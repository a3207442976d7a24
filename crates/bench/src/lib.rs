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
    // generation, checker stages, simnet RPC deliveries — tags this id,
    // so Chrome-trace export renders the cell as one cross-layer flow.
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
    }
    pc_rt::obs::set_trace_id(0);
    MatrixCell {
        program,
        fs,
        placement: placement_name,
        outcome,
    }
}

/// Run a program on a file system across its placement variants and
/// merge the outcomes (union of bugs, summed state counts — the paper
/// tests "different distribution patterns" and reports the union).
pub fn run_program(program: Program, fs: FsKind, params: &Params, cfg: &CheckConfig) -> MatrixCell {
    let cells = program.placements().into_iter().map(|(name, placement)| {
        let cell_params = params.clone().with_placement(placement);
        run_cell(program, fs, name, &cell_params, cfg)
    });
    cells
        .reduce(|mut acc, cell| {
            acc.outcome.absorb_counts(&cell.outcome);
            acc.outcome.absorb_findings(cell.outcome);
            acc
        })
        .expect("every program has at least one placement")
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

/// [`run_program`] unioned over the paper's dataset-dimension sweep:
/// the findings of every variant, the exploration accounting of the
/// first.
pub fn run_program_swept(
    program: Program,
    fs: FsKind,
    params: &Params,
    cfg: &CheckConfig,
) -> MatrixCell {
    let cells = dims_variants(program, params).into_iter();
    cells
        .map(|variant| run_program(program, fs, &variant, cfg))
        .reduce(|mut acc, cell| {
            acc.outcome.absorb_findings(cell.outcome);
            acc
        })
        .expect("at least one dims variant")
}

/// Write one explain bundle — `<dir>/<stem>.md` and `.dot` — for a
/// finding of `context` ("program on file system").
pub fn write_bundle(
    dir: &str,
    stem: &str,
    explanation: &paracrash::BugExplanation,
    context: &str,
) -> Result<(), String> {
    for (ext, text) in [
        ("md", explanation.to_markdown(context)),
        ("dot", explanation.to_dot()),
    ] {
        let path = format!("{dir}/{stem}.{ext}");
        std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
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
