#![warn(missing_docs)]

//! Shared harness machinery for the `paracrash` binary's figure/table
//! regeneration subcommands and the sweep driver.
//!
//! Every evaluation artifact of the paper reduces to running a set of
//! `(program, file system, placement, parameters)` cells through
//! `paracrash::check_stack` and aggregating the outcomes:
//!
//! * Table 3 — the union of unique bugs over the full matrix;
//! * Figure 8 — inconsistent-state counts per cell;
//! * Figure 10 — exploration time per cell under the three modes;
//! * Figure 11 — exploration time as the server count grows.
//!
//! Wall-clock performance is measured by the standalone `benchmark/`
//! crate (see `benchmark/README.md`), which drives [`run_program`],
//! [`run_program_swept`] and [`dims_variants`] from here.

use paracrash::{check_stack, CheckConfig, CheckOutcome, Inconsistency, LayerVerdict};
use workloads::{FsKind, Params, Program};

pub mod campaign;
pub mod progress;

/// One evaluated cell of the matrix.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Test program.
    pub program: Program,
    /// File system.
    pub fs: FsKind,
    /// Placement-variant label ("default", "split-dirs", …).
    pub placement: &'static str,
    /// Check result.
    pub outcome: CheckOutcome,
}

/// Run one `(program, fs)` cell under one placement.
pub fn run_cell(
    program: Program,
    fs: FsKind,
    placement_name: &'static str,
    params: &Params,
    cfg: &CheckConfig,
) -> MatrixCell {
    // One causal trace id per cell: every span this check opens — trace
    // generation, checker stages, simnet RPC deliveries on pool worker
    // threads — tags this id, so Chrome-trace export renders the cell
    // as one cross-layer flow.
    pc_rt::obs::set_trace_id(pc_rt::obs::next_trace_id());
    let started = std::time::Instant::now();
    let trace_span = pc_rt::obs::span_cat("trace.generate", "trace");
    let stack = program.run(fs, params);
    drop(trace_span);
    let factory = fs.factory(params);
    let outcome = check_stack(&stack, &factory, cfg);
    if pc_rt::obs::stream::enabled() {
        pc_rt::obs::stream::emit(
            pc_rt::obs::stream::EventKind::Cell,
            &format!("{}@{}/{placement_name}", program.name(), fs.name()),
            started.elapsed().as_nanos() as u64,
            &format!(
                "bugs={} states={}",
                outcome.bugs.len(),
                outcome.stats.states_checked
            ),
        );
        pc_rt::obs::stream::flush();
    }
    pc_rt::obs::set_trace_id(0);
    MatrixCell {
        program,
        fs,
        placement: placement_name,
        outcome,
    }
}

/// Sum one legal-list table's traffic into an accumulator (placement /
/// dims-sweep merging).
fn merge_cache(acc: &mut paracrash::explore::CacheStats, cell: &paracrash::explore::CacheStats) {
    acc.hits += cell.hits;
    acc.misses += cell.misses;
}

/// Merge explain bundles into an accumulator, one per `(signature,
/// layer)`, keeping the first variant's bundle (mirrors the bug-witness
/// policy: the first state to expose a cause is its witness).
fn merge_explanations(
    acc: &mut Vec<paracrash::BugExplanation>,
    from: Vec<paracrash::BugExplanation>,
) {
    for expl in from {
        if !acc
            .iter()
            .any(|e| e.signature == expl.signature && e.layer == expl.layer)
        {
            acc.push(expl);
        }
    }
}

/// Run a program on a file system across its placement variants and
/// merge the outcomes (union of bugs, summed state counts — the paper
/// tests "different distribution patterns" and reports the union).
pub fn run_program(program: Program, fs: FsKind, params: &Params, cfg: &CheckConfig) -> MatrixCell {
    let mut merged: Option<MatrixCell> = None;
    for (name, placement) in program.placements() {
        let cell_params = params.clone().with_placement(placement);
        let cell = run_cell(program, fs, name, &cell_params, cfg);
        merged = Some(match merged {
            None => cell,
            Some(mut acc) => {
                acc.outcome.raw_inconsistent_states += cell.outcome.raw_inconsistent_states;
                acc.outcome.h5_bad_pfs_ok_states += cell.outcome.h5_bad_pfs_ok_states;
                acc.outcome.stats.states_total += cell.outcome.stats.states_total;
                acc.outcome.stats.states_checked += cell.outcome.stats.states_checked;
                acc.outcome.stats.states_pruned += cell.outcome.stats.states_pruned;
                acc.outcome.stats.states_diagnostic += cell.outcome.stats.states_diagnostic;
                acc.outcome.diagnostics.extend(cell.outcome.diagnostics);
                acc.outcome.stats.sim_seconds += cell.outcome.stats.sim_seconds;
                acc.outcome.stats.wall_seconds += cell.outcome.stats.wall_seconds;
                acc.outcome.stats.server_rebuilds += cell.outcome.stats.server_rebuilds;
                acc.outcome.stats.legal_replays += cell.outcome.stats.legal_replays;
                merge_cache(
                    &mut acc.outcome.stats.pfs_cache,
                    &cell.outcome.stats.pfs_cache,
                );
                merge_cache(
                    &mut acc.outcome.stats.h5_cache,
                    &cell.outcome.stats.h5_cache,
                );
                merge_explanations(&mut acc.outcome.explanations, cell.outcome.explanations);
                for bug in cell.outcome.bugs {
                    if let Some(existing) = acc
                        .outcome
                        .bugs
                        .iter_mut()
                        .find(|b| b.signature == bug.signature && b.layer == bug.layer)
                    {
                        existing.occurrences += bug.occurrences;
                    } else {
                        acc.outcome.bugs.push(bug);
                    }
                }
                acc
            }
        });
    }
    merged.expect("every program has at least one placement")
}

/// Dataset-dimension variants for I/O-library programs: §6.2 "we test
/// them with a variety of dataset dimensions (from 200×200 to
/// 1000×1000)" — whether group structures and new-object headers land
/// on the *same* storage server (journal-ordered, safe) or different
/// ones (reorderable) depends on the data size between them, so a
/// single dimension can mask cross-server hazards.
pub fn dims_variants(program: Program, params: &Params) -> Vec<Params> {
    if program.uses_iolib() {
        let d = params.dims;
        vec![
            params.clone(),
            params.clone().with_dims(d + d / 4),
            params.clone().with_dims(d + d / 2),
        ]
    } else {
        vec![params.clone()]
    }
}

/// [`run_program`] unioned over the paper's dataset-dimension sweep.
pub fn run_program_swept(
    program: Program,
    fs: FsKind,
    params: &Params,
    cfg: &CheckConfig,
) -> MatrixCell {
    let mut merged: Option<MatrixCell> = None;
    for v in dims_variants(program, params) {
        let cell = run_program(program, fs, &v, cfg);
        merged = Some(match merged {
            None => cell,
            Some(mut acc) => {
                acc.outcome.raw_inconsistent_states += cell.outcome.raw_inconsistent_states;
                acc.outcome.h5_bad_pfs_ok_states += cell.outcome.h5_bad_pfs_ok_states;
                acc.outcome.stats.states_diagnostic += cell.outcome.stats.states_diagnostic;
                acc.outcome.diagnostics.extend(cell.outcome.diagnostics);
                merge_explanations(&mut acc.outcome.explanations, cell.outcome.explanations);
                for bug in cell.outcome.bugs {
                    if let Some(existing) = acc
                        .outcome
                        .bugs
                        .iter_mut()
                        .find(|b| b.signature == bug.signature && b.layer == bug.layer)
                    {
                        existing.occurrences += bug.occurrences;
                    } else {
                        acc.outcome.bugs.push(bug);
                    }
                }
                acc
            }
        });
    }
    merged.expect("at least one dims variant")
}

/// Filesystem-safe bundle-name component: lowercase, non-alphanumerics
/// collapsed to `-` (e.g. `"H5-create"` → `"h5-create"`).
pub fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Render one inconsistency like a Table 3 row body.
pub fn render_bug(bug: &Inconsistency) -> String {
    let layer = match bug.layer {
        LayerVerdict::IoLibBug => "I/O library",
        LayerVerdict::PfsBug => "PFS",
    };
    format!(
        "{} | violates {} | {} (x{})",
        layer,
        bug.violated_model.as_str(),
        bug.signature,
        bug.occurrences
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_variants_sweep_only_iolib_programs() {
        let params = Params::quick();
        assert_eq!(dims_variants(Program::Arvr, &params).len(), 1);
        let swept = dims_variants(Program::H5Create, &params);
        assert_eq!(swept.len(), 3);
        assert!(swept[1].dims > swept[0].dims && swept[2].dims > swept[1].dims);
    }

    #[test]
    fn run_program_merges_placement_variants() {
        // WAL has two placement variants; the merged cell must account
        // for both explorations.
        let params = Params::quick();
        let cfg = CheckConfig::paper_default();
        let merged = run_program(Program::Wal, FsKind::GlusterFs, &params, &cfg);
        let single = run_cell(Program::Wal, FsKind::GlusterFs, "default", &params, &cfg);
        assert!(merged.outcome.stats.states_total > single.outcome.stats.states_total);
        assert!(merged.outcome.bugs.len() >= single.outcome.bugs.len());
    }
}
