//! One workload, one process: set-up, timed passes, output checks,
//! metrics.

use crate::json::Json;
use crate::speed::SpeedMeter;
use crate::stats::{fnv1a, median, percentile, tail_rung};
use crate::trace::{self, Counts, Tracer};
use crate::workload::{
    parse_pins, pass_order, render_pins, stacks_digest, table3_missing, Cell, Pin, Pins, Workload,
};
use paracrash::{check_stack, CheckConfig, CheckOutcome, FuzzCorpus};
use pc_rt::obs::prof;
use pc_rt::rng::Rng;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use workloads::FsKind;

/// The PR tier's pinned corpus report: read from the repo's own gate
/// file at build time, never copied.
const PR_TIER_REPORT: &str = include_str!("../../crates/bench/tests/expected_fuzz_pr_tier.txt");

/// Cold set-ups per untraced run — this process's own and one per
/// `--setup-only` child; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Whole passes until this many seconds have gone by.
    Seconds(f64),
    /// Fixed work.
    Passes(usize),
}

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    /// One pass over the first two cells: every code path, no numbers.
    pub smoke: bool,
    /// Regenerate `expected/<workload>.txt` instead of checking it.
    pub bless: bool,
    /// Add the readings that are not `BENCHMARK.json` metrics.
    pub detail: bool,
    /// The benchmark's own directory (`expected/`, `out/`).
    pub dir: PathBuf,
}

/// A metric reading: name, value, unit.
pub type Reading = (String, f64, &'static str);

#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Reading>,
    /// Why cells failed, and anything else worth a line in the table.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line of the benchmark contract.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            let reading = Json::obj([
                                ("value", Json::Num(*value)),
                                ("unit", Json::str(*unit)),
                            ]);
                            (name.clone(), reading)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        // A systematic failure would otherwise print once per cell.
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }
}

fn pins_path(dir: &Path, workload: Workload) -> PathBuf {
    dir.join("expected")
        .join(format!("{}.txt", workload.name()))
}

fn load_pins(dir: &Path, workload: Workload) -> Result<Pins, String> {
    let path = pins_path(dir, workload);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read {}: {e} (run with --bless first)",
            path.display()
        )
    })?;
    parse_pins(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Everything a pass needs that set-up builds.
struct Inputs {
    cells: Vec<Cell>,
    pins: Pins,
    cfg: CheckConfig,
    corpus_enum_ms: f64,
}

/// What checking one cell produced: its outcomes — the one merged
/// outcome of `Cell::check`, or the traced loop's one per stack — or
/// the message of the panic that was caught.
type CellOutput = Result<Vec<CheckOutcome>, String>;

/// Which of a cell's two pinned digests an output is held against.
#[derive(Clone, Copy)]
enum Against {
    Merged,
    PerStack,
}

impl Inputs {
    /// Input construction, corpus enumeration, pin loading and one
    /// untimed warm-up pass — only the ext4 column for the two matrix
    /// workloads, whose full pass would double the run.
    fn build(opts: &RunOpts, result: &mut RunResult) -> Result<Inputs, String> {
        let workload = opts.workload;
        let mut corpus_enum_ms = 0.0;
        if workload == Workload::FuzzPrTier {
            // `cells` enumerates the corpus again; this reading isolates
            // the enumeration from the cell construction around it.
            let t = Instant::now();
            std::hint::black_box(workloads::generated::corpus(2));
            corpus_enum_ms = t.elapsed().as_secs_f64() * 1e3;
        }
        let mut cells = workload.cells(opts.seed, opts.bless);
        if opts.smoke {
            workload.smoke(&mut cells);
        }
        let pins = if opts.bless {
            Pins::new()
        } else {
            load_pins(&opts.dir, workload)?
        };
        let inputs = Inputs {
            cells,
            pins,
            cfg: workload.config(),
            corpus_enum_ms,
        };
        if !opts.bless {
            let warm_up: Vec<usize> = (0..inputs.cells.len())
                .filter(|&i| match workload {
                    Workload::MatrixSweep | Workload::ResizeSplit => {
                        opts.smoke || inputs.cells[i].fs == FsKind::Ext4
                    }
                    _ => true,
                })
                .collect();
            for i in warm_up {
                let output = run_caught(|| inputs.cells[i].check(&inputs.cfg));
                inputs.verify(&inputs.cells[i], &output, Against::Merged, result);
            }
        }
        Ok(inputs)
    }

    /// Count the cell and compare what it printed with its pin.
    fn verify(&self, cell: &Cell, output: &CellOutput, against: Against, result: &mut RunResult) {
        result.attempted += 1;
        let outcomes = match output {
            Ok(outcomes) => outcomes,
            Err(msg) => return result.fail(format!("{}: panicked: {msg}", cell.label)),
        };
        if let Some(d) = outcomes.iter().flat_map(|o| &o.diagnostics).next() {
            return result.fail(format!("{}: diagnostic: {d}", cell.label));
        }
        if !cell.pinned {
            return;
        }
        let digest = stacks_digest(outcomes);
        let expected = self.pins.get(&cell.label).map(|pin| match against {
            Against::Merged => pin.merged,
            Against::PerStack => pin.stacks,
        });
        match expected {
            Some(e) if e == digest => {}
            Some(e) => result.fail(format!(
                "{}: report digest {digest:016x}, pinned {e:016x}",
                cell.label
            )),
            None => result.fail(format!("{}: no pin in expected/", cell.label)),
        }
    }
}

fn run_caught(check: impl FnOnce() -> CheckOutcome) -> CellOutput {
    match catch_unwind(AssertUnwindSafe(check)) {
        Ok(outcome) => Ok(vec![outcome]),
        Err(p) => Err(pc_rt::pool::panic_message(p.as_ref())),
    }
}

/// The two corpora a `fuzz_pr_tier` pass folds its cells into.
#[derive(Default)]
struct FuzzFold {
    exhaustive: FuzzCorpus,
    tail: FuzzCorpus,
}

impl FuzzFold {
    fn record(&mut self, cell: &Cell, outcome: &CheckOutcome) {
        let Some(label) = cell.fuzz_label() else {
            return;
        };
        let corpus = if cell.is_tail() {
            &mut self.tail
        } else {
            &mut self.exhaustive
        };
        corpus.record_cell(&label, cell.fs.name(), "data", outcome);
    }

    /// The exhaustive corpus must print the repo's pinned PR-tier
    /// report; the tail must print the same thing every pass.
    fn verify(self, first_tail: &mut Option<u64>, smoke: bool, result: &mut RunResult) {
        if !smoke && self.exhaustive.canonical_report() != PR_TIER_REPORT {
            result.fail("PR-tier corpus report differs from expected_fuzz_pr_tier.txt".into());
        }
        let tail = fnv1a(self.tail.canonical_report().as_bytes());
        if *first_tail.get_or_insert(tail) != tail {
            result.fail("sampled-tail corpus report changed between passes".into());
        }
    }
}

/// Timings of one pass.
struct Pass {
    wall_s: f64,
    cell_ms: Vec<f64>,
    states_total: usize,
    /// How much slower than nominal the machine ran during the pass.
    slowdown: f64,
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A process that is ready for its first timed pass.
struct Ready {
    inputs: Inputs,
    meter: SpeedMeter,
    /// Process start → ready, at reference machine speed.
    setup_s: f64,
}

/// The cold set-up. `started` is when the process did.
fn set_up(opts: &RunOpts, started: Instant, result: &mut RunResult) -> Result<Ready, String> {
    let t = Instant::now();
    let mut meter = SpeedMeter::new();
    // The reference kernel is the harness's, not the program's set-up.
    let meter_s = t.elapsed().as_secs_f64();
    let inputs = Inputs::build(opts, result)?;
    let raw_s = started.elapsed().as_secs_f64() - meter_s;
    meter.sample();
    meter.sample();
    Ok(Ready {
        inputs,
        setup_s: raw_s / meter.slowdown_since(0),
        meter,
    })
}

/// `--setup-only`: the cold set-up alone, for the parent run's median.
pub fn setup_only(opts: &RunOpts, started: Instant) -> Result<f64, String> {
    let mut result = RunResult::default();
    let ready = set_up(opts, started, &mut result)?;
    if result.failed > 0 {
        return Err(format!("set-up failed: {}", result.notes.join("; ")));
    }
    Ok(ready.setup_s)
}

/// One more cold set-up, in a child process of this executable.
fn child_set_up(opts: &RunOpts) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", opts.workload.name(), "--setup-only"])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--threads", &pc_rt::pool::default_threads().to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.trim().parse::<f64>() {
        Ok(setup_s) if output.status.success() => Ok(setup_s),
        _ => Err(format!("set-up child failed ({})", output.status)),
    }
}

/// Run one workload. `started` is when the process did.
pub fn run(opts: &RunOpts, started: Instant) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    if opts.bless {
        bless(opts, &mut result)?;
        return Ok(result);
    }

    let Ready {
        inputs,
        mut meter,
        setup_s,
    } = set_up(opts, started, &mut result)?;
    // A single set-up is a second or less and carries the process's
    // start-up noise, so it is repeated — each time in a fresh process,
    // because a second set-up in this one would find the allocator and
    // the page cache warm and measure something else.
    let mut setups = vec![setup_s];
    if !opts.trace && !opts.smoke {
        for _ in 1..SETUP_REPS {
            setups.push(child_set_up(opts)?);
        }
    }
    check_table3(opts, &inputs.pins, &mut result);

    if opts.trace {
        traced_passes(opts, &inputs, &mut result)?;
        return Ok(result);
    }

    let passes = timed_passes(opts, &inputs, &mut meter, &mut result);
    // Timings at reference machine speed (see `speed`): each pass is
    // corrected by the reference samples taken during it.
    let wall_s: f64 = passes.iter().map(|p| p.wall_s).sum();
    let pass_totals: Vec<f64> = passes.iter().map(|p| p.wall_s * 1e3 / p.slowdown).collect();
    // Row per pass, column per cell.
    let cell_ms: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| p.cell_ms.iter().map(|ms| ms / p.slowdown).collect())
        .collect();
    let pass_ms = quiet_pass_ms(&cell_ms);
    // Every pass decides the same states; a panicked cell's are missing
    // from its pass, and that run is reported incorrect anyway.
    let states = passes.iter().map(|p| p.states_total).max().unwrap_or(0);
    let slowdown = median(&passes.iter().map(|p| p.slowdown).collect::<Vec<_>>());
    // The rung the nominal run supports, whatever this run's length: a
    // faster program fits more passes into `--seconds`, and must not be
    // read at a higher percentile for it.
    let rung = tail_rung(inputs.cells.len() * opts.workload.nominal_passes());
    let Tail {
        value: cell_tail,
        percentile,
        samples,
    } = cell_tail(&cell_ms, rung);
    result.metrics = vec![
        ("setup_s".into(), median(&setups), "s"),
        ("pass_ms".into(), pass_ms, "ms"),
        ("states_per_s".into(), states as f64 / pass_ms * 1e3, "1/s"),
        ("cell_ms_tail".into(), cell_tail, "ms"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ];
    if opts.detail {
        result.metrics.extend([
            ("wall_s".to_string(), wall_s, "s"),
            ("passes".to_string(), passes.len() as f64, "count"),
            ("machine_slowdown".to_string(), slowdown, "ratio"),
            ("cell_ms_tail.percentile".to_string(), percentile, "%"),
            ("cell_ms_tail.samples".to_string(), samples as f64, "count"),
            (
                "attempted_cells".to_string(),
                result.attempted as f64,
                "count",
            ),
            ("failed_cells".to_string(), result.failed as f64, "count"),
        ]);
    }
    let mut sorted = pass_totals;
    sorted.sort_by(f64::total_cmp);
    result.notes.push(format!(
        "whole passes, ms: min/p25/p50/p75/max = {:.1}/{:.1}/{:.1}/{:.1}/{:.1}",
        sorted[0],
        sorted[sorted.len() / 4],
        sorted[sorted.len() / 2],
        sorted[sorted.len() * 3 / 4],
        sorted[sorted.len() - 1]
    ));
    result.notes.push(format!(
        "{} passes in {wall_s:.2} s; cell_ms_tail is p{percentile} of {samples} cells; \
         machine ran at {slowdown:.3}x nominal time ({} reference samples)",
        passes.len(),
        meter.samples()
    ));
    Ok(result)
}

/// The pass as it runs when nothing disturbs it: every cell at its
/// lower-quartile time over the run's passes (the faster of two, the
/// third-fastest of twelve), summed. The machine's disturbances only
/// ever add time — bursts of slow cross-core wake-ups, for minutes on
/// end on the sizing VM — and a whole pass collects every burst that
/// falls into it: within groups of ten runs the median of whole passes
/// spread by up to 13 % where this spread by 7 % (README, *Why not the
/// median pass*). Not the fastest reading: with a dozen passes that is
/// the noise of the speed correction.
fn quiet_pass_ms(cell_ms: &[Vec<f64>]) -> f64 {
    (0..cell_ms[0].len())
        .map(|cell| {
            let over_passes: Vec<f64> = cell_ms.iter().map(|pass| pass[cell]).collect();
            percentile(&over_passes, 25.0)
        })
        .sum()
}

/// A tail reading: the value, the percentile it was taken at and how
/// many samples it was taken from.
struct Tail {
    value: f64,
    percentile: f64,
    samples: usize,
}

/// The tail of the per-cell times over all cells × passes, at `rung`.
/// Without one — too few samples a run for any percentile
/// (`resize_split`: three cells, three passes) — it is the slowest
/// cell's median over the passes, reported as p100: a percentile of
/// nine samples from three cells that differ tenfold would hop between
/// cells from run to run.
fn cell_tail(cell_ms: &[Vec<f64>], rung: Option<f64>) -> Tail {
    let all: Vec<f64> = cell_ms.iter().flatten().copied().collect();
    let (value, percentile) = match rung {
        Some(p) => (percentile(&all, p), p),
        None => {
            let slowest = (0..cell_ms[0].len())
                .map(|cell| median(&cell_ms.iter().map(|pass| pass[cell]).collect::<Vec<_>>()))
                .fold(f64::NAN, f64::max);
            (slowest, 100.0)
        }
    };
    Tail {
        value,
        percentile,
        samples: all.len(),
    }
}

fn budget_spent(budget: Budget, passes_done: usize, since: Instant) -> bool {
    match budget {
        Budget::Passes(n) => passes_done >= n,
        Budget::Seconds(s) => since.elapsed().as_secs_f64() >= s,
    }
}

/// The untraced, closed-loop run: one thread issues one cell after
/// another; outputs are checked between passes, off the clock.
fn timed_passes(
    opts: &RunOpts,
    inputs: &Inputs,
    meter: &mut SpeedMeter,
    result: &mut RunResult,
) -> Vec<Pass> {
    let mut rng = Rng::new(opts.seed);
    let mut passes = Vec::new();
    let mut first_tail = None;
    let since = Instant::now();
    loop {
        let order = pass_order(opts.workload, inputs.cells.len(), &mut rng);
        let mut fold = FuzzFold::default();
        let mut outputs = Vec::with_capacity(order.len());
        let mut cell_ms = vec![0.0; order.len()];
        let mark = meter.samples();
        for &i in &order {
            let cell = &inputs.cells[i];
            let t = Instant::now();
            let output = run_caught(|| cell.check(&inputs.cfg));
            if let Ok(outcomes) = &output {
                fold.record(cell, &outcomes[0]);
            }
            cell_ms[i] = t.elapsed().as_secs_f64() * 1e3;
            outputs.push(output);
            meter.tick();
        }
        // The cells only: the reference samples between them are not
        // the program's time.
        let wall_s = cell_ms.iter().sum::<f64>() / 1e3;
        let slowdown = meter.slowdown_since(mark);
        let mut states_total = 0;
        for (&i, output) in order.iter().zip(&outputs) {
            if let Ok(outcomes) = output {
                // Total, not checked: pruning a state decides it.
                states_total += outcomes[0].stats.states_total;
            }
            inputs.verify(&inputs.cells[i], output, Against::Merged, result);
        }
        if opts.workload == Workload::FuzzPrTier {
            fold.verify(&mut first_tail, opts.smoke, result);
        }
        passes.push(Pass {
            wall_s,
            cell_ms,
            states_total,
            slowdown,
        });
        if opts.smoke || budget_spent(opts.budget, passes.len(), since) {
            return passes;
        }
    }
}

/// The traced run. Each cell is checked exactly as the untraced run
/// does (the reference the overhead is measured against) and stack by
/// stack with spans and the stage re-drive; which of the two goes
/// first alternates, so neither always finds the caches warm. The
/// first pass checks the cell a third time with allocation accounting
/// on: the counting allocator's atomics cost the heavy cells 30–50 %,
/// so that check feeds `alloc.*` and no timing.
fn traced_passes(opts: &RunOpts, inputs: &Inputs, result: &mut RunResult) -> Result<(), String> {
    let mut tr = Tracer::new();
    let mut rng = Rng::new(opts.seed);
    let mut rows: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut first_tail = None;
    let mut visits = 0usize;
    let since = Instant::now();
    // A quarter of the untraced run's passes, at least one.
    let budget = match opts.budget {
        Budget::Passes(n) => Budget::Passes(n.div_ceil(4)),
        Budget::Seconds(s) => Budget::Seconds(s / 4.0),
    };
    loop {
        let order = pass_order(opts.workload, inputs.cells.len(), &mut rng);
        let mut pass = TracedPass {
            tr: &mut tr,
            counts: Counts::default(),
            fold: FuzzFold::default(),
            cfg: &inputs.cfg,
            account: rows.is_empty(),
        };
        let first = pass.tr.spans.len();
        let alloc_before = prof::alloc_snapshot().1;
        for &i in &order {
            let cell = &inputs.cells[i];
            pass.tr.set_cell(i);
            let depth = pass.tr.depth();
            visits += 1;
            let traced = catch_unwind(AssertUnwindSafe(|| {
                pass.cell(cell, visits % 2 == 1, result)
            }));
            prof::set_alloc_tracking(false);
            let (reference, stacks) = traced.unwrap_or_else(|p| {
                pass.tr.close_to(depth);
                let msg = pc_rt::pool::panic_message(p.as_ref());
                (Err(msg.clone()), Err(msg))
            });
            inputs.verify(cell, &reference, Against::Merged, result);
            inputs.verify(cell, &stacks, Against::PerStack, result);
        }
        let TracedPass {
            mut counts, fold, ..
        } = pass;
        trace::pass_probes(&mut tr, &mut counts, opts.workload.servers());
        if opts.workload == Workload::FuzzPrTier {
            fold.verify(&mut first_tail, opts.smoke, result);
        }
        let alloc = prof::alloc_snapshot().1;
        let mut row = trace::layer_rows(&tr, first, &counts);
        let traced_ms = tr.total_ms(first, "workloads.trace_gen")
            + tr.total_ms(first, "core.check.check_stack");
        row.extend([
            ("workloads.corpus_enum_ms", inputs.corpus_enum_ms),
            ("rt.pool.threads", pc_rt::pool::default_threads() as f64),
            (
                "alloc.mb_per_pass",
                (alloc.bytes - alloc_before.bytes) as f64 / 1e6,
            ),
            (
                "alloc.count_per_pass",
                (alloc.count - alloc_before.count) as f64,
            ),
            (
                "trace_overhead_pct",
                (traced_ms / tr.total_ms(first, "ref.cell") - 1.0) * 100.0,
            ),
        ]);
        rows.push(row);
        if opts.smoke || budget_spent(budget, rows.len(), since) {
            break;
        }
    }

    result.metrics = trace::LAYER_METRICS
        .iter()
        .map(|&(name, unit, _)| {
            // Only the first pass accounts allocations.
            let passes = if name.starts_with("alloc.") {
                &rows[..1]
            } else {
                &rows[..]
            };
            let per_pass: Vec<f64> = passes.iter().map(|r| r[name]).collect();
            (name.to_string(), median(&per_pass), unit)
        })
        .collect();
    result.notes.push(format!(
        "{} traced passes, {} spans",
        rows.len(),
        tr.spans.len()
    ));

    let labels: Vec<String> = inputs.cells.iter().map(|c| c.label.clone()).collect();
    let header = Json::obj([
        ("workload", Json::str(opts.workload.name())),
        ("seed", Json::Num(opts.seed as f64)),
        ("passes", Json::Num(rows.len() as f64)),
        ("spans", Json::Num(tr.spans.len() as f64)),
    ]);
    let out = opts.dir.join("out");
    let path = out.join(format!("trace-{}.jsonl", opts.workload.name()));
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&path, trace::render_jsonl(header, &labels, &tr.spans)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// What the cells of one traced pass write into.
struct TracedPass<'a> {
    tr: &'a mut Tracer,
    counts: Counts,
    fold: FuzzFold,
    cfg: &'a CheckConfig,
    /// Whether this pass runs the allocation-accounted third check.
    account: bool,
}

impl TracedPass<'_> {
    /// One cell; returns the reference output and the traced loop's
    /// per-stack outputs.
    fn cell(
        &mut self,
        cell: &Cell,
        reference_first: bool,
        result: &mut RunResult,
    ) -> (CellOutput, CellOutput) {
        let span = self.tr.enter("cell");
        let mut reference = None;
        if reference_first {
            reference = Some(self.reference(cell));
        }
        let mut stacks = Vec::new();
        for params in cell.stack_params() {
            let stack_span = self.tr.enter("stack");
            let (stack, factory) = self.tr.time("workloads.trace_gen", || cell.trace(&params));
            let check = self.tr.enter("core.check.check_stack");
            let outcome = check_stack(&stack, &factory, self.cfg);
            self.tr.exit(check);
            let check_ms = self.tr.spans[check].ms();
            let sum = trace::redrive(
                self.tr,
                &mut self.counts,
                &stack,
                &factory,
                self.cfg,
                &outcome,
                check_ms,
            );
            if sum.negative() && result.notes.len() < 20 {
                result.notes.push(format!(
                    "{}: negative residual {:.3} ms (check_stack {:.3} ms, re-driven stages {:.3} ms)",
                    cell.label, sum.residual_ms, sum.check_ms, sum.stages_ms
                ));
            }
            stacks.push(outcome);
            self.tr.exit(stack_span);
        }
        let reference = reference.unwrap_or_else(|| self.reference(cell));
        if self.account {
            // The program's own work only — trace generation and the
            // check — not the probes above.
            prof::set_alloc_tracking(true);
            self.tr.time("alloc.accounted_check", || {
                std::hint::black_box(cell.check(self.cfg))
            });
            prof::set_alloc_tracking(false);
        }
        self.tr.exit(span);
        (Ok(vec![reference]), Ok(stacks))
    }

    /// The cell exactly as the untraced run checks it, folded into the
    /// fuzz corpus as that run folds it.
    fn reference(&mut self, cell: &Cell) -> CheckOutcome {
        let outcome = self.tr.time("ref.cell", || cell.check(self.cfg));
        if cell.fuzz_label().is_some() {
            self.tr
                .time("core.fuzz.record_cell", || self.fold.record(cell, &outcome));
        }
        outcome
    }
}

/// Regenerate the workload's pins from one pass over every pinnable
/// cell (all six file systems for `resize_split`).
fn bless(opts: &RunOpts, result: &mut RunResult) -> Result<(), String> {
    let inputs = Inputs::build(opts, result)?;
    let mut pins = Pins::new();
    let mut fold = FuzzFold::default();
    for cell in &inputs.cells {
        result.attempted += 1;
        let blessed = catch_unwind(AssertUnwindSafe(|| {
            let merged = cell.check(&inputs.cfg);
            let stacks: Vec<CheckOutcome> = cell
                .stack_params()
                .iter()
                .map(|params| {
                    let (stack, factory) = cell.trace(params);
                    check_stack(&stack, &factory, &inputs.cfg)
                })
                .collect();
            (merged, stacks)
        }));
        match blessed {
            Ok((merged, _)) if !merged.diagnostics.is_empty() => result.fail(format!(
                "{}: diagnostic: {}",
                cell.label, merged.diagnostics[0]
            )),
            Ok((merged, stacks)) => {
                fold.record(cell, &merged);
                pins.insert(cell.label.clone(), Pin::of(&merged, &stacks));
            }
            Err(p) => result.fail(format!(
                "{}: panicked: {}",
                cell.label,
                pc_rt::pool::panic_message(p.as_ref())
            )),
        }
    }
    if opts.workload == Workload::FuzzPrTier {
        fold.verify(&mut None, opts.smoke, result);
    }
    if result.failed > 0 {
        return Ok(()); // never pin a run that failed
    }
    let path = pins_path(&opts.dir, opts.workload);
    std::fs::write(&path, render_pins(&pins))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    result.notes.push(format!(
        "blessed {} cells into {}",
        pins.len(),
        path.display()
    ));
    check_table3(opts, &pins, result);
    Ok(())
}

/// Table 3 coverage of the pinned rows: `matrix_sweep` ∪ the six-FS
/// `resize_split` column must reproduce all fifteen paper bugs. Cheap
/// (it reads pins, and every cell is checked against its pin), so both
/// matrix workloads re-check it on every run.
fn check_table3(opts: &RunOpts, own: &Pins, result: &mut RunResult) {
    let other = match opts.workload {
        Workload::MatrixSweep => Workload::ResizeSplit,
        Workload::ResizeSplit => Workload::MatrixSweep,
        _ => return,
    };
    match load_pins(&opts.dir, other) {
        Ok(other_pins) => {
            let missing = table3_missing(own, &other_pins);
            if !missing.is_empty() {
                result.fail(format!("pinned rows miss Table 3 bugs {missing:?}"));
            }
        }
        // Blessing the first of the pair: the second one's bless checks.
        Err(_) if opts.bless => {}
        Err(e) => result.fail(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_pass_takes_each_cells_lower_quartile() {
        // Two passes: the faster reading of each cell.
        assert_eq!(quiet_pass_ms(&[vec![1.0, 8.0], vec![2.0, 4.0]]), 5.0);
        // Eight: each cell's second-fastest, so one lucky reading or
        // five disturbed ones do not move it.
        let mut passes = vec![vec![10.0, 20.0]; 2];
        passes.push(vec![9.0, 19.0]);
        passes.extend(vec![vec![15.0, 30.0]; 5]);
        assert_eq!(quiet_pass_ms(&passes), 30.0);
    }

    #[test]
    fn few_samples_read_the_slowest_cells_median() {
        // Three cells, three passes: nine samples, no percentile rung.
        let passes = vec![
            vec![0.5, 3.0, 5.0],
            vec![0.6, 9.0, 5.2], // a disturbed middle cell
            vec![0.4, 3.2, 4.8],
        ];
        let t = cell_tail(&passes, None);
        assert_eq!((t.value, t.percentile, t.samples), (5.0, 100.0, 9));
        // A rung: that percentile over all samples, however many
        // passes the run fitted in.
        let t = cell_tail(&passes, Some(50.0));
        assert_eq!((t.value, t.percentile, t.samples), (3.2, 50.0, 9));
    }
}
