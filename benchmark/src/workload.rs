//! The four workloads: which cells a pass runs, in which order, and
//! what a correct cell prints.
//!
//! A *cell* is one call a user would make — one Table 3 matrix entry,
//! one fuzz `(workload, fs)` check, one 256-server check. A *pass* is
//! every cell of the workload once. The seed shuffles cell order within
//! a pass (and draws `fuzz_pr_tier`'s sampled tail); it never changes
//! which work a pass of the other three workloads contains.

use crate::stats::fnv1a;
use paracrash::{check_stack, CheckConfig, CheckOutcome, LayerVerdict, Stack, StackFactory};
use pc_bench::{dims_variants, run_program, run_program_swept};
use pc_rt::rng::Rng;
use simfs::JournalMode;
use std::collections::BTreeMap;
use workloads::ground_truth::BugLayer;
use workloads::{generated, FsKind, GeneratedWorkload, Params, Program};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MatrixSweep,
    ResizeSplit,
    FuzzPrTier,
    Scale256,
}

/// Bound-3 workloads in the sampled `fuzz_pr_tier` tail (× two file
/// systems).
const TAIL_SAMPLE: usize = 64;
const FUZZ_FS: [FsKind; 2] = [FsKind::BeeGfs, FsKind::OrangeFs];

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MatrixSweep,
        Workload::ResizeSplit,
        Workload::FuzzPrTier,
        Workload::Scale256,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MatrixSweep => "matrix_sweep",
            Workload::ResizeSplit => "resize_split",
            Workload::FuzzPrTier => "fuzz_pr_tier",
            Workload::Scale256 => "scale_256",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Passes of the fixed-work run (`run.sh` without `--seconds`),
    /// sized for 20–30 s per workload on two cores.
    pub fn nominal_passes(self) -> usize {
        match self {
            Workload::MatrixSweep | Workload::ResizeSplit => 3,
            Workload::FuzzPrTier => 25,
            Workload::Scale256 => 100,
        }
    }

    /// The seed reorders cells except on `fuzz_pr_tier`, whose corpus
    /// report names the *first* workload to expose each finding and so
    /// depends on the canonical order.
    pub fn shuffles(self) -> bool {
        self != Workload::FuzzPrTier
    }

    /// Servers of the cluster the workload's cells run on.
    pub fn servers(self) -> u32 {
        match self {
            Workload::Scale256 => 256,
            _ => 4,
        }
    }

    pub fn config(self) -> CheckConfig {
        let mut cfg = CheckConfig::paper_default();
        // The PR tier counts distinct representative crash states, as
        // `pc_bench::fuzz_driver::FuzzOptions::pr_tier` does.
        cfg.collect_rep_digests = self == Workload::FuzzPrTier;
        cfg
    }

    /// The `--smoke` size: the first two cells — except on
    /// `resize_split`, where one PFS cell costs seconds, so its smoke
    /// run is the ext4 control alone.
    pub fn smoke(self, cells: &mut Vec<Cell>) {
        if self == Workload::ResizeSplit {
            cells.retain(|c| c.fs == FsKind::Ext4);
        }
        cells.truncate(2);
    }

    /// Every cell of one pass, in canonical order. `bless` widens
    /// `resize_split` to all six file systems (the Table 3 column the
    /// coverage check needs) and drops the unpinnable sampled tail.
    pub fn cells(self, seed: u64, bless: bool) -> Vec<Cell> {
        let quick = Params::quick();
        match self {
            Workload::MatrixSweep => Program::paper_eleven()
                .into_iter()
                .flat_map(|p| FsKind::all().map(|fs| (p, fs)))
                .map(|(p, fs)| Cell {
                    label: format!("{}@{}", p.name(), fs.name()),
                    subject: Subject::Program {
                        program: p,
                        swept: true,
                    },
                    fs,
                    params: quick.clone(),
                    pinned: true,
                })
                .collect(),
            Workload::ResizeSplit => {
                let timed = [FsKind::BeeGfs, FsKind::Gpfs, FsKind::Ext4];
                let split = quick.clone().with_dims(quick.split_dims());
                FsKind::all()
                    .into_iter()
                    .filter(|fs| bless || timed.contains(fs))
                    .map(|fs| Cell {
                        label: format!("{}@{}/split", Program::H5Resize.name(), fs.name()),
                        subject: Subject::Program {
                            program: Program::H5Resize,
                            swept: false,
                        },
                        fs,
                        params: split.clone(),
                        pinned: true,
                    })
                    .collect()
            }
            Workload::FuzzPrTier => {
                let params = quick.with_journal(JournalMode::Data);
                let cell = |w: GeneratedWorkload, fs: FsKind, tail: bool| Cell {
                    label: format!(
                        "{}{}@{}/data",
                        if tail { "tail:" } else { "" },
                        w.label(),
                        fs.name()
                    ),
                    subject: Subject::Generated { workload: w, tail },
                    fs,
                    params: params.clone(),
                    pinned: !tail,
                };
                let mut cells: Vec<Cell> = generated::corpus(2)
                    .into_iter()
                    .flat_map(|w| FUZZ_FS.map(|fs| cell(w.clone(), fs, false)))
                    .collect();
                if !bless {
                    // POSIX sequences only. The bound-3 corpus is 2 240
                    // of them plus 26 HDF5 ones that cost a hundred
                    // times as much each (≈ 140 ms against 1.6 ms):
                    // whether a 64-draw from the whole corpus catches
                    // none, one or two of those moved a pass by 40–80 %
                    // from seed to seed. The heavy-HDF5 regime is
                    // `resize_split`'s; this tail stays fixed-cost-bound.
                    let posix3 = generated::posix_sequences(3);
                    cells.extend(
                        paracrash::sample_indices(posix3.len(), TAIL_SAMPLE, seed)
                            .into_iter()
                            .flat_map(|i| FUZZ_FS.map(|fs| cell(posix3[i].clone(), fs, true))),
                    );
                }
                cells
            }
            Workload::Scale256 => {
                // 128 + 128 servers, stripe shrunk with the server
                // count as `pc_bench::benches::scale` does.
                let servers = self.servers();
                let stripe = (quick.stripe * 4 / u64::from(servers)).max(256);
                let params = quick
                    .with_servers(servers / 2, servers / 2)
                    .with_stripe(stripe);
                std::iter::once(Program::H5Create)
                    .chain(Program::posix())
                    .map(|p| Cell {
                        label: format!("{}@{}/{servers}", p.name(), FsKind::BeeGfs.name()),
                        subject: Subject::Program {
                            program: p,
                            swept: false,
                        },
                        fs: FsKind::BeeGfs,
                        params: params.clone(),
                        pinned: true,
                    })
                    .collect()
            }
        }
    }
}

#[derive(Debug, Clone)]
pub enum Subject {
    /// A paper program; `swept` adds the §6.2 dataset-dimension sweep.
    Program { program: Program, swept: bool },
    /// A generated fuzz workload; `tail` marks the seeded sample, which
    /// folds into its own corpus.
    Generated {
        workload: GeneratedWorkload,
        tail: bool,
    },
}

#[derive(Debug, Clone)]
pub struct Cell {
    pub label: String,
    pub subject: Subject,
    pub fs: FsKind,
    pub params: Params,
    /// Whether `expected/<workload>.txt` pins this cell's output (all
    /// but the seed-dependent fuzz tail).
    pub pinned: bool,
}

impl Cell {
    /// Check the cell the way the shipped front ends do.
    pub fn check(&self, cfg: &CheckConfig) -> CheckOutcome {
        match &self.subject {
            Subject::Program {
                program,
                swept: true,
            } => run_program_swept(*program, self.fs, &self.params, cfg).outcome,
            Subject::Program {
                program,
                swept: false,
            } => run_program(*program, self.fs, &self.params, cfg).outcome,
            Subject::Generated { workload, .. } => {
                let stack = workload.run(self.fs, &self.params);
                check_stack(&stack, &self.fs.factory(&self.params), cfg)
            }
        }
    }

    /// The parameter variants `check` traces one stack each for, in
    /// its order: dims sweep outermost, placements inside.
    pub fn stack_params(&self) -> Vec<Params> {
        match &self.subject {
            Subject::Program { program, swept } => {
                let dims = if *swept {
                    dims_variants(*program, &self.params)
                } else {
                    vec![self.params.clone()]
                };
                dims.into_iter()
                    .flat_map(|v| {
                        program
                            .placements()
                            .into_iter()
                            .map(move |(_, placement)| v.clone().with_placement(placement))
                    })
                    .collect()
            }
            Subject::Generated { .. } => vec![self.params.clone()],
        }
    }

    /// Trace one stack of the cell (the traced run's own loop).
    pub fn trace(&self, params: &Params) -> (Stack, StackFactory) {
        let stack = match &self.subject {
            Subject::Program { program, .. } => program.run(self.fs, params),
            Subject::Generated { workload, .. } => workload.run(self.fs, params),
        };
        (stack, self.fs.factory(params))
    }

    pub fn is_tail(&self) -> bool {
        matches!(self.subject, Subject::Generated { tail: true, .. })
    }

    pub fn fuzz_label(&self) -> Option<String> {
        match &self.subject {
            Subject::Generated { workload, .. } => Some(workload.label()),
            Subject::Program { .. } => None,
        }
    }
}

/// Cell order of one pass. The generator carries over from pass to
/// pass, so a seed fixes the order of every pass of the run.
pub fn pass_order(workload: Workload, n_cells: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n_cells).collect();
    if workload.shuffles() {
        rng.shuffle(&mut order);
    }
    order
}

/// What `expected/<workload>.txt` pins for one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pin {
    /// Digest of the merged outcome's `canonical_report()`.
    pub merged: u64,
    /// Digest over the per-stack reports, which is what the traced
    /// run's own loop produces (equal to `merged` for one-stack cells).
    pub stacks: u64,
    pub pfs_bugs: usize,
    pub iolib_bugs: usize,
}

/// Digest over the `canonical_report()`s of a cell's outcomes: the one
/// merged outcome, or one per stack in `Cell::stack_params` order.
pub fn stacks_digest(outcomes: &[CheckOutcome]) -> u64 {
    let all: String = outcomes.iter().map(|o| o.canonical_report()).collect();
    fnv1a(all.as_bytes())
}

fn layer_count(outcome: &CheckOutcome, layer: LayerVerdict) -> usize {
    outcome.bugs.iter().filter(|b| b.layer == layer).count()
}

impl Pin {
    pub fn of(merged: &CheckOutcome, stacks: &[CheckOutcome]) -> Pin {
        Pin {
            merged: stacks_digest(std::slice::from_ref(merged)),
            stacks: stacks_digest(stacks),
            pfs_bugs: layer_count(merged, LayerVerdict::PfsBug),
            iolib_bugs: layer_count(merged, LayerVerdict::IoLibBug),
        }
    }
}

/// The pinned outputs of a workload, by cell label.
pub type Pins = BTreeMap<String, Pin>;

pub fn render_pins(pins: &Pins) -> String {
    let mut out = String::from(
        "# label\tmerged\tstacks\tpfs_bugs\tiolib_bugs — `run.sh --bless` regenerates\n",
    );
    for (label, p) in pins {
        out.push_str(&format!(
            "{label}\t{:016x}\t{:016x}\t{}\t{}\n",
            p.merged, p.stacks, p.pfs_bugs, p.iolib_bugs
        ));
    }
    out
}

pub fn parse_pins(text: &str) -> Result<Pins, String> {
    let mut pins = Pins::new();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let bad = || format!("line {}: expected 5 tab-separated fields", n + 1);
        let f: Vec<&str> = line.split('\t').collect();
        let [label, merged, stacks, pfs_bugs, iolib_bugs] = f[..] else {
            return Err(bad());
        };
        let pin = Pin {
            merged: u64::from_str_radix(merged, 16).map_err(|_| bad())?,
            stacks: u64::from_str_radix(stacks, 16).map_err(|_| bad())?,
            pfs_bugs: pfs_bugs.parse().map_err(|_| bad())?,
            iolib_bugs: iolib_bugs.parse().map_err(|_| bad())?,
        };
        pins.insert(label.to_string(), pin);
    }
    Ok(pins)
}

/// Table 3 rows the pinned cells do not reproduce (empty = 15/15).
/// `matrix` ∪ `split` is Table 3's matrix: the swept cells plus the
/// six-FS split-dims `H5-resize` column bug 14 needs. The matching
/// rule is `table3`'s own.
pub fn table3_missing(matrix: &Pins, split: &Pins) -> Vec<u8> {
    let found: Vec<(&str, &str, &Pin)> = matrix
        .iter()
        .chain(split)
        .filter_map(|(label, pin)| {
            let (program, rest) = label.split_once('@')?;
            Some((program, rest.split('/').next()?, pin))
        })
        .collect();
    workloads::table3()
        .into_iter()
        .filter(|bug| {
            !found.iter().any(|(program, fs, pin)| {
                bug.programs.contains(program)
                    && (bug.file_systems.contains(fs) || bug.file_systems == ["HDF5"])
                    && match bug.layer {
                        BugLayer::Pfs | BugLayer::IoLibPfsRooted => pin.pfs_bugs > 0,
                        BugLayer::IoLib => pin.iolib_bugs > 0,
                    }
            })
        })
        .map(|bug| bug.no)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_cell_order() {
        let orders = |seed: u64| -> Vec<Vec<usize>> {
            let mut rng = Rng::new(seed);
            (0..3)
                .map(|_| pass_order(Workload::MatrixSweep, 66, &mut rng))
                .collect()
        };
        assert_eq!(orders(42), orders(42));
        assert_ne!(orders(42), orders(43));
        // Passes of one run differ from each other, and each is a
        // permutation of all cells.
        let run = orders(42);
        assert_ne!(run[0], run[1]);
        let mut sorted = run[0].clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..66).collect::<Vec<_>>());
        // The fuzz corpus keeps canonical order whatever the seed.
        let mut rng = Rng::new(7);
        assert_eq!(
            pass_order(Workload::FuzzPrTier, 5, &mut rng),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn workload_shapes() {
        assert_eq!(Workload::MatrixSweep.cells(42, false).len(), 66);
        assert_eq!(Workload::ResizeSplit.cells(42, false).len(), 3);
        assert_eq!(Workload::ResizeSplit.cells(42, true).len(), 6);
        assert_eq!(Workload::Scale256.cells(42, false).len(), 5);
        let fuzz = Workload::FuzzPrTier.cells(42, false);
        assert_eq!(fuzz.iter().filter(|c| !c.is_tail()).count(), 426);
        assert_eq!(fuzz.iter().filter(|c| c.is_tail()).count(), 2 * TAIL_SAMPLE);
        // The seed draws the tail and nothing else.
        let other = Workload::FuzzPrTier.cells(43, false);
        let labels = |cells: &[Cell], tail: bool| -> Vec<String> {
            cells
                .iter()
                .filter(|c| c.is_tail() == tail)
                .map(|c| c.label.clone())
                .collect()
        };
        assert_eq!(labels(&fuzz, false), labels(&other, false));
        assert_ne!(labels(&fuzz, true), labels(&other, true));
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn swept_cells_trace_every_variant() {
        let cells = Workload::MatrixSweep.cells(42, false);
        let stacks = |label: &str| {
            let cell = cells.iter().find(|c| c.label == label).unwrap();
            cell.stack_params().len()
        };
        assert_eq!(stacks("ARVR@BeeGFS"), 1);
        assert_eq!(stacks("WAL@BeeGFS"), 2); // two placements
        assert_eq!(stacks("H5-create@BeeGFS"), 3); // three dims
    }

    #[test]
    fn pins_round_trip_and_reject_garbage() {
        let mut pins = Pins::new();
        pins.insert(
            "H5-resize@GPFS/split".into(),
            Pin {
                merged: 0xdead_beef,
                stacks: 7,
                pfs_bugs: 0,
                iolib_bugs: 2,
            },
        );
        assert_eq!(parse_pins(&render_pins(&pins)).unwrap(), pins);
        assert!(parse_pins("a\tb\n").is_err());
        assert!(parse_pins("a\tzz\t0\t0\t0\n").is_err());
    }

    #[test]
    fn table3_coverage_reads_program_fs_and_layer() {
        let pin = |pfs_bugs, iolib_bugs| Pin {
            merged: 0,
            stacks: 0,
            pfs_bugs,
            iolib_bugs,
        };
        // Nothing pinned: all fifteen rows are missing.
        assert_eq!(table3_missing(&Pins::new(), &Pins::new()).len(), 15);
        // Bug 1 is ARVR on BeeGFS/OrangeFS at the PFS layer; an
        // I/O-library finding there does not cover it.
        let mut pins = Pins::new();
        pins.insert("ARVR@OrangeFS".into(), pin(0, 1));
        assert!(table3_missing(&pins, &Pins::new()).contains(&1));
        pins.insert("ARVR@OrangeFS".into(), pin(1, 0));
        assert!(!table3_missing(&pins, &Pins::new()).contains(&1));
    }
}
