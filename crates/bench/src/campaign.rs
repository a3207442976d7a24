//! The one sweep driver (`paracrash fuzz`): generated corpus × (file
//! system × journaling mode) through `check_stack`, folded into a
//! [`FuzzCorpus`], with automatic triage of novel findings — crash-safe
//! and resumable when given a state dir.
//!
//! Cells run one after another on the sweep thread, each `check_stack`
//! inside its cell, so the whole sweep's report is byte-identical from
//! run to run, which is exactly the determinism contract the CI crash
//! gate diffs (`paracrash::fuzz` module docs).
//!
//! Triage: [`FuzzCorpus::record_cell`] returns the keys a cell *newly*
//! contributed. Only those cells are re-run with the explain engine
//! enabled (the provenance pass costs real time on buggy cells), and
//! each novel finding gets a self-contained bundle under
//! `findings_out`: Markdown report and Graphviz causal graph, plus a
//! `.repro` file with the exact workload label and re-run command line.
//!
//! Live observability rides along without touching the fold: each cell
//! gets a fresh causal trace id, `PC_LOG=info` adds a rate-limited
//! throughput/ETA line, and — when the event stream is on — the driver
//! publishes a `cell` event per completed cell, a `finding` event per
//! novel finding, and a `snapshot` event with the Good–Turing
//! saturation estimate every [`SNAPSHOT_EVERY`] cells; each line is in
//! the file once emitted, so a killed sweep leaves a readable stream
//! behind.
//!
//! **A cell is one call** (every run): one `catch_unwind` around the
//! check, on the sweep thread. The exploration is deterministic — the
//! same cell panics again — so a panic **quarantines** the cell at once:
//! the sweep records a `quarantined:` diagnostic (part of the canonical
//! report — a ledger, not a silent skip) and moves on.
//!
//! **Persistence is an attribute of the run, not a second tool.** A
//! sweep at campaign scale runs long enough to be killed, OOM-ed or
//! power-cycled mid-run, so with [`FuzzOptions::state_dir`] set the
//! driver applies the discipline the checker demands of the systems it
//! tests to its own state (without one it skips exactly this and is
//! otherwise the same loop):
//!
//! * **Persistent corpus** — every finished cell appends one record to
//!   an append-only, CRC-checked [`pc_rt::durable::RecordLog`]
//!   (`<state-dir>/corpus.log`): the cell's verdict essentials (bugs,
//!   diagnostics, representative crash-state digests) serialized as
//!   JSON. The append is the cell's *commit point* — triage bundles are
//!   written before it, so a crash between them merely re-runs the cell
//!   and rewrites identical bundles.
//! * **Resume is one log replay** — the log is the whole durable state.
//!   On `--resume` the driver replays every record through the *same*
//!   [`FuzzCorpus::record_cell`] fold as a live run and continues at
//!   the first unrecorded cell — so a resumed campaign's final
//!   [`FuzzCorpus::canonical_report`] is byte-identical to an
//!   uninterrupted one (pinned by `tests/campaign_resume.rs` and
//!   verify gate 12). Opening the log already reads, CRC-checks and
//!   parses every record; folding them is the cheap part (9 ms for the
//!   426-cell PR tier).
//!
//! Robustness counters (`campaign.resumed_cells`, `campaign.quarantined`)
//! flow through [`pc_rt::obs::count`] into the telemetry registry, and
//! their running totals ride the periodic `snapshot` event (`resumed=
//! quarantined=`) into the `paracrash report` dashboard; they are
//! deliberately *not* part of the canonical report — nor of the `cell`
//! events, which the stream's canonical projection keeps — which must
//! stay byte-identical between a clean run and a crash-and-resume run.
//!
//! Self-crash-testing goes through [`pc_rt::inject`]: a test that arms
//! `durable:` kills the sweep at a durability point of its log, torn or
//! not (see [`pc_rt::durable`]), and one that arms a cell's label
//! (`<workload>@<fs>/<journal>`) panics that cell inside its
//! `catch_unwind`.

use paracrash::fuzz::FindingKey;
use paracrash::{
    check_stack, BugKind, BugSignature, CheckConfig, CheckOutcome, FuzzCorpus, Inconsistency,
    LayerVerdict, Model,
};
use pc_rt::durable::RecordLog;
use pc_rt::json::Json;
use pc_rt::obs::{stream, Level};
use pc_rt::{pc_info, pc_warn};
use simfs::JournalMode;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::generated::{self, GeneratedWorkload};
use workloads::{FsKind, Params};

use crate::sanitize;

/// Emit a `snapshot` delta event every this many cells.
pub const SNAPSHOT_EVERY: usize = 32;

/// Minimum time between two progress lines.
const PROGRESS_EVERY: Duration = Duration::from_millis(500);

/// Short journaling-mode label used in reports, bundle names and the
/// CLI (`--modes data,ordered,…`).
pub fn mode_label(mode: JournalMode) -> &'static str {
    match mode {
        JournalMode::Data => "data",
        JournalMode::Ordered => "ordered",
        JournalMode::Writeback => "writeback",
        JournalMode::None => "none",
    }
}

/// Parse a `--modes` list: comma-separated short labels or `all`.
pub fn parse_modes(spec: &str) -> Option<Vec<JournalMode>> {
    if spec.eq_ignore_ascii_case("all") {
        return Some(vec![
            JournalMode::Data,
            JournalMode::Ordered,
            JournalMode::Writeback,
            JournalMode::None,
        ]);
    }
    spec.split(',').map(JournalMode::parse).collect()
}

/// One run of the driver: which cells, checked how, persisted where.
pub struct FuzzOptions {
    /// Maximum POSIX sequence length (HDF5/MPI-IO sequences are one op
    /// shorter — `workloads::generated` module docs).
    pub bound: usize,
    /// Seed for the sampling mode (ignored when `sample` is `None`, but
    /// still recorded in `.repro` files so a finding names its run).
    pub seed: u64,
    /// `Some(n)`: check a seeded deterministic sample of `n` workloads
    /// instead of the exhaustive corpus (the nightly tier).
    pub sample: Option<usize>,
    /// File systems under test.
    pub file_systems: Vec<FsKind>,
    /// Journaling modes of the servers' local stores (the sweep axis
    /// GPFS ignores — it journals at the block layer).
    pub modes: Vec<JournalMode>,
    /// Directory for per-finding triage bundles; `None` skips triage.
    pub findings_out: Option<String>,
    /// Paper-scale workload parameters instead of the quick ones.
    pub paper: bool,
    /// Checker configuration (explain is forced on only for the triage
    /// re-runs, never for the sweep itself).
    pub cfg: CheckConfig,
    /// Directory holding `corpus.log`; `None` runs the same sweep
    /// without the record log.
    pub state_dir: Option<String>,
    /// Continue from existing state instead of refusing to clobber it
    /// (needs a state dir).
    pub resume: bool,
}

impl FuzzOptions {
    /// The PR-tier defaults: exhaustive bound-2 corpus, BeeGFS +
    /// OrangeFS, data journaling, quick parameters, no triage output,
    /// no state dir. Representative-state digests are collected so the
    /// corpus (and its pinned report) counts distinct crash states, not
    /// just verdict classes.
    pub fn pr_tier() -> FuzzOptions {
        let mut cfg = CheckConfig::paper_default();
        cfg.collect_rep_digests = true;
        FuzzOptions {
            bound: 2,
            seed: 42,
            sample: None,
            file_systems: vec![FsKind::BeeGfs, FsKind::OrangeFs],
            modes: vec![JournalMode::Data],
            findings_out: None,
            paper: false,
            cfg,
            state_dir: None,
            resume: false,
        }
    }
}

/// What one run (or resume) of the driver produced.
#[derive(Debug)]
pub struct CampaignReport {
    /// The corpus, including everything recovered from prior runs.
    pub corpus: FuzzCorpus,
    /// Workloads drawn from the generator.
    pub workloads: usize,
    /// Total cells in the sweep (workloads × fs × modes).
    pub total_cells: usize,
    /// Cells recovered from the log instead of re-checked.
    pub resumed_cells: usize,
    /// Cells actually checked by this process.
    pub cells_run: usize,
    /// Cells quarantined because their check panicked.
    pub quarantined: usize,
    /// Triage bundles written by this process.
    pub bundles: usize,
}

/// The progress meter at `PC_LOG=info`: one throughput/ETA line at most
/// every [`PROGRESS_EVERY`], and always after the last cell.
struct Meter {
    started: Instant,
    last_print: Instant,
}

impl Meter {
    fn tick(&mut self, done: usize, total: usize, run: usize, corpus: &FuzzCorpus) {
        if done < total && self.last_print.elapsed() < PROGRESS_EVERY {
            return;
        }
        self.last_print = Instant::now();
        let rate = run as f64 / self.started.elapsed().as_secs_f64().max(1e-9);
        pc_info!("{}", progress_line(done, total, rate, corpus));
    }
}

/// One meter line (`done <= total`); every field renders finite, an
/// empty sweep included.
fn progress_line(done: usize, total: usize, rate: f64, corpus: &FuzzCorpus) -> String {
    let eta = if rate > 0.0 {
        (total - done) as f64 / rate
    } else {
        0.0
    };
    format!(
        "fuzz: {done}/{total} cells ({}%) | {rate:.1} cells/s | eta {eta:.0}s | \
         behaviors {} | findings {} | saturation {:.0}%",
        (100 * done).checked_div(total).unwrap_or(100),
        corpus.behavior_count(),
        corpus.finding_count(),
        corpus.saturation() * 100.0,
    )
}

// ---------------------------------------------------------------------------
// Record (de)serialization. The replay fold reconstructs each cell's
// CheckOutcome essentials and pushes them through the *same*
// FuzzCorpus::record_cell as the live run, so recovered state is
// byte-identical by construction, not by parallel bookkeeping.
// ---------------------------------------------------------------------------

fn get_int(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_int)
        .ok_or_else(|| format!("campaign record: missing int {key}"))
}

fn get_str(j: &Json, key: &str) -> Result<String, String> {
    Ok(j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("campaign record: missing string {key}"))?
        .to_string())
}

fn get_arr<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    j.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("campaign record: missing array {key}"))
}

fn get_all<T>(j: &Json, key: &str, item: fn(&Json) -> Option<T>) -> Result<Vec<T>, String> {
    get_arr(j, key)?
        .iter()
        .map(item)
        .collect::<Option<_>>()
        .ok_or_else(|| format!("campaign record: bad item in {key}"))
}

fn str_arr(items: &[String]) -> Json {
    Json::Arr(items.iter().cloned().map(Json::Str).collect())
}

fn meta_record(opts: &FuzzOptions) -> Json {
    Json::Obj(vec![
        ("kind".into(), Json::Str("meta".into())),
        ("bound".into(), Json::Int(opts.bound as u64)),
        ("seed".into(), Json::Int(opts.seed)),
        (
            "sample".into(),
            match opts.sample {
                Some(n) => Json::Int(n as u64),
                None => Json::Null,
            },
        ),
        (
            "fs".into(),
            Json::Arr(
                opts.file_systems
                    .iter()
                    .map(|f| Json::Str(f.name().to_string()))
                    .collect(),
            ),
        ),
        (
            "modes".into(),
            Json::Arr(
                opts.modes
                    .iter()
                    .map(|&m| Json::Str(mode_label(m).to_string()))
                    .collect(),
            ),
        ),
        ("paper".into(), Json::Bool(opts.paper)),
    ])
}

/// Reject resuming with different sweep parameters: the cursor is an
/// index into the cell enumeration, so a changed corpus would silently
/// mis-attribute every recovered record.
fn check_meta(meta: &Json, opts: &FuzzOptions) -> Result<(), String> {
    let expected = meta_record(opts);
    if *meta != expected {
        return Err(format!(
            "campaign state was written by a different sweep \
             (logged {} vs requested {}); remove the state dir or rerun \
             with the original --bound/--seed/--sample/--fs/--modes/--paper",
            compact(meta),
            compact(&expected),
        ));
    }
    Ok(())
}

fn compact(j: &Json) -> String {
    j.pretty()
        .replace('\n', " ")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

fn cell_record(idx: usize, workload: &str, fs: &str, journal: &str, o: &CheckOutcome) -> Json {
    let bugs = o
        .bugs
        .iter()
        .map(|b| {
            Json::Obj(vec![
                (
                    "kind".into(),
                    Json::Str(
                        match b.signature.kind {
                            BugKind::Reordering => "reordering",
                            BugKind::Atomicity => "atomicity",
                        }
                        .into(),
                    ),
                ),
                ("members".into(), str_arr(&b.signature.members)),
                (
                    "layer".into(),
                    Json::Str(
                        match b.layer {
                            LayerVerdict::IoLibBug => "iolib",
                            LayerVerdict::PfsBug => "pfs",
                        }
                        .into(),
                    ),
                ),
                (
                    "violated_model".into(),
                    Json::Str(b.violated_model.as_str().into()),
                ),
                ("occurrences".into(), Json::Int(b.occurrences as u64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("kind".into(), Json::Str("cell".into())),
        ("idx".into(), Json::Int(idx as u64)),
        ("workload".into(), Json::Str(workload.into())),
        ("fs".into(), Json::Str(fs.into())),
        ("journal".into(), Json::Str(journal.into())),
        (
            "raw_inconsistent".into(),
            Json::Int(o.raw_inconsistent_states as u64),
        ),
        ("diagnostics".into(), str_arr(&o.diagnostics)),
        (
            "rep_digests".into(),
            Json::Arr(o.rep_digests.iter().map(|&d| Json::Int(d)).collect()),
        ),
        ("bugs".into(), Json::Arr(bugs)),
    ])
}

fn quarantine_record(idx: usize, workload: &str, fs: &str, journal: &str, reason: &str) -> Json {
    Json::Obj(vec![
        ("kind".into(), Json::Str("quarantine".into())),
        ("idx".into(), Json::Int(idx as u64)),
        ("workload".into(), Json::Str(workload.into())),
        ("fs".into(), Json::Str(fs.into())),
        ("journal".into(), Json::Str(journal.into())),
        ("reason".into(), Json::Str(reason.into())),
    ])
}

/// Rebuild the [`CheckOutcome`] essentials a `cell` record carries.
fn outcome_from_record(rec: &Json) -> Result<CheckOutcome, String> {
    let mut bugs = Vec::new();
    for b in get_arr(rec, "bugs")? {
        let kind = match get_str(b, "kind")?.as_str() {
            "reordering" => BugKind::Reordering,
            "atomicity" => BugKind::Atomicity,
            other => return Err(format!("campaign record: unknown bug kind {other}")),
        };
        let layer = match get_str(b, "layer")?.as_str() {
            "iolib" => LayerVerdict::IoLibBug,
            "pfs" => LayerVerdict::PfsBug,
            other => return Err(format!("campaign record: unknown layer {other}")),
        };
        let model_str = get_str(b, "violated_model")?;
        let violated_model = Model::parse(&model_str)
            .ok_or_else(|| format!("campaign record: unknown model {model_str}"))?;
        bugs.push(Inconsistency {
            signature: BugSignature {
                kind,
                members: get_all(b, "members", |s| s.as_str().map(str::to_string))?,
            },
            layer,
            violated_model,
            witness: Vec::new(),
            occurrences: get_int(b, "occurrences")? as usize,
        });
    }
    Ok(CheckOutcome {
        bugs,
        raw_inconsistent_states: get_int(rec, "raw_inconsistent")? as usize,
        diagnostics: get_all(rec, "diagnostics", |s| s.as_str().map(str::to_string))?,
        rep_digests: get_all(rec, "rep_digests", Json::as_int)?,
        ..Default::default()
    })
}

/// Fold a quarantine into the corpus: the ledger line is part of the
/// canonical report (same path live and on replay).
fn fold_quarantine(corpus: &mut FuzzCorpus, workload: &str, fs: &str, journal: &str, reason: &str) {
    corpus.diagnostics.push(format!(
        "{workload} on {fs}/{journal}: quarantined: {reason}"
    ));
}

// ---------------------------------------------------------------------------
// The durable half: `<state-dir>/corpus.log`.
// ---------------------------------------------------------------------------

/// An open state dir.
struct Durable {
    log: RecordLog,
}

impl Durable {
    /// Open (or create) the state dir and rebuild what it recorded: the
    /// corpus so far and the index of the first cell that still needs
    /// checking.
    fn open(opts: &FuzzOptions, dir: &str) -> Result<(Durable, FuzzCorpus, usize), String> {
        let state_dir = PathBuf::from(dir);
        let log_path = state_dir.join("corpus.log");
        if !opts.resume && log_path.exists() {
            return Err(format!(
                "campaign state already exists at {}; pass --resume to continue it \
                 or remove the directory to start over",
                state_dir.display()
            ));
        }
        let (mut log, raw_records) = RecordLog::open(&log_path)
            .map_err(|e| format!("cannot open campaign log {}: {e}", log_path.display()))?;
        let (corpus, cursor) = recover(opts, &raw_records)?;
        if raw_records.is_empty() {
            let mut text = meta_record(opts).pretty();
            text.push('\n');
            log.append(text.as_bytes())
                .map_err(|e| format!("cannot append campaign meta record: {e}"))?;
        }
        Ok((Durable { log }, corpus, cursor))
    }

    /// The cell's commit point.
    fn append(&mut self, idx: usize, record: &Json) -> Result<(), String> {
        let mut text = record.pretty();
        text.push('\n');
        self.log
            .append(text.as_bytes())
            .map_err(|e| format!("cannot append campaign record {idx}: {e}"))
    }
}

/// Replay `records` (already CRC-validated by [`RecordLog::open`])
/// through the corpus fold; returns the rebuilt corpus and the cursor.
/// Record `idx` fields must be contiguous from zero — anything else
/// means the state dir was tampered with or mixes runs.
fn recover(fuzz: &FuzzOptions, records: &[Vec<u8>]) -> Result<(FuzzCorpus, usize), String> {
    let parsed: Vec<Json> = records
        .iter()
        .enumerate()
        .map(|(i, bytes)| {
            let text = std::str::from_utf8(bytes)
                .map_err(|_| format!("campaign log: record {i} is not UTF-8"))?;
            Json::parse(text).map_err(|e| format!("campaign log: record {i}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if let Some(first) = parsed.first() {
        check_meta(first, fuzz)?;
    }
    let mut corpus = FuzzCorpus::new();
    let mut cursor = 0usize;
    // Everything after the meta record is one cell each.
    for rec in parsed.iter().skip(1) {
        let idx = get_int(rec, "idx")? as usize;
        if idx != cursor {
            return Err(format!(
                "campaign log: record for cell {idx} where cell {cursor} was expected \
                 (state dir corrupted or mixed between runs)"
            ));
        }
        let workload = get_str(rec, "workload")?;
        let fs = get_str(rec, "fs")?;
        let journal = get_str(rec, "journal")?;
        match get_str(rec, "kind")?.as_str() {
            "cell" => {
                let outcome = outcome_from_record(rec)?;
                corpus.record_cell(&workload, &fs, &journal, &outcome);
            }
            "quarantine" => {
                fold_quarantine(
                    &mut corpus,
                    &workload,
                    &fs,
                    &journal,
                    &get_str(rec, "reason")?,
                );
            }
            other => return Err(format!("campaign log: unknown record kind {other}")),
        }
        cursor += 1;
    }
    Ok((corpus, cursor))
}

// ---------------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------------

/// Run (or resume) one sweep: every generated workload through every
/// `(fs, mode)` cell, deduplicating into a [`FuzzCorpus`] and writing
/// triage bundles for novel findings. See the module docs for what a
/// state dir adds; stdout formatting is the caller's job — the report
/// carries the corpus.
pub fn run_campaign(opts: &FuzzOptions) -> Result<CampaignReport, String> {
    let workloads = match opts.sample {
        Some(n) => generated::sample(opts.bound, opts.seed, n),
        None => generated::corpus(opts.bound),
    };
    // Flat, deterministic cell enumeration (workload outer, fs, then
    // mode), so cursor N always names the same cell for a given meta
    // record.
    let cells: Vec<(usize, FsKind, JournalMode)> = workloads
        .iter()
        .enumerate()
        .flat_map(|(wi, _)| {
            opts.file_systems
                .iter()
                .flat_map(move |&fs| opts.modes.iter().map(move |&mode| (wi, fs, mode)))
        })
        .collect();
    let total_cells = cells.len();

    let (mut durable, mut corpus, start_cursor) = match &opts.state_dir {
        Some(dir) => {
            let (durable, corpus, cursor) = Durable::open(opts, dir)?;
            (Some(durable), corpus, cursor)
        }
        None if opts.resume => return Err("--resume needs a --state-dir to resume from".into()),
        None => (None, FuzzCorpus::new(), 0),
    };
    if start_cursor > total_cells {
        return Err(format!(
            "campaign log holds {start_cursor} cells but the sweep only has {total_cells}"
        ));
    }
    if start_cursor > 0 {
        pc_rt::obs::count("campaign.resumed_cells", start_cursor as u64);
    }

    let mut report = CampaignReport {
        corpus: FuzzCorpus::new(), // placeholder, swapped in at the end
        workloads: workloads.len(),
        total_cells,
        resumed_cells: start_cursor,
        cells_run: 0,
        quarantined: 0,
        bundles: 0,
    };
    let base_params = if opts.paper {
        Params::paper()
    } else {
        Params::quick()
    };
    let mut meter = pc_rt::obs::log_enabled(Level::Info).then(|| Meter {
        started: Instant::now(),
        last_print: Instant::now(),
    });
    for (idx, &(wi, fs, mode)) in cells.iter().enumerate().skip(start_cursor) {
        let w = &workloads[wi];
        let params = base_params.clone().with_journal(mode);
        let label = w.label();
        let journal = mode_label(mode);
        let cell_label = format!("{label}@{}/{journal}", fs.name());
        // Fresh causal trace id: every span this cell opens — replay,
        // checker stages, simnet RPC — tags it, giving
        // Chrome-trace one flow per check.
        pc_rt::obs::set_trace_id(pc_rt::obs::next_trace_id());
        let started = Instant::now();
        let checked = catch_unwind(AssertUnwindSafe(|| {
            pc_rt::inject::point(&cell_label, |_| {});
            let stack = w.run(fs, &params);
            check_stack(&stack, &fs.factory(&params), &opts.cfg)
        }))
        .map_err(|p| format!("panicked: {}", pc_rt::pool::panic_message(p.as_ref())));
        let wall_ns = started.elapsed().as_nanos() as u64;
        match &checked {
            Ok(outcome) => {
                let novel = corpus.record_cell(&label, fs.name(), journal, outcome);
                if stream::enabled() {
                    for (key_fs, key_journal, signature, layer) in &novel {
                        stream::emit(
                            stream::EventKind::Finding,
                            &format!("{key_fs}/{key_journal}"),
                            1,
                            &format!("{signature} [{layer:?}] first={label}"),
                        );
                    }
                    stream::emit(
                        stream::EventKind::Cell,
                        &cell_label,
                        wall_ns,
                        &format!(
                            "behaviors={} findings={} buggy={}",
                            corpus.behavior_count(),
                            corpus.finding_count(),
                            corpus.buggy_cells,
                        ),
                    );
                }
                if !novel.is_empty() {
                    if let Some(dir) = &opts.findings_out {
                        report.bundles += triage(dir, w, fs, &params, &novel, opts)?;
                    }
                }
            }
            Err(reason) => {
                report.quarantined += 1;
                pc_rt::obs::count("campaign.quarantined", 1);
                pc_warn!("campaign: quarantined {cell_label}: {reason}");
                fold_quarantine(&mut corpus, &label, fs.name(), journal, reason);
            }
        }
        pc_rt::obs::set_trace_id(0);
        // Bundles first (above), then the commit-point append: a crash
        // between them re-runs the cell and rewrites identical bundles,
        // never the reverse (a record without bundles).
        if let Some(durable) = &mut durable {
            let record = match &checked {
                Ok(outcome) => cell_record(idx, &label, fs.name(), journal, outcome),
                Err(reason) => quarantine_record(idx, &label, fs.name(), journal, reason),
            };
            durable.append(idx, &record)?;
        }
        report.cells_run += 1;
        let done = idx + 1;
        if let Some(meter) = &mut meter {
            meter.tick(done, total_cells, report.cells_run, &corpus);
        }
        if stream::enabled() && (done % SNAPSHOT_EVERY == 0 || done == total_cells) {
            stream::emit(
                stream::EventKind::Snapshot,
                "campaign",
                done as u64,
                &format!(
                    "cells={done}/{total_cells} behaviors={} findings={} \
                     rep_states={} saturation_pct={:.0} resumed={} quarantined={}",
                    corpus.behavior_count(),
                    corpus.finding_count(),
                    corpus.rep_state_count(),
                    corpus.saturation() * 100.0,
                    report.resumed_cells,
                    report.quarantined,
                ),
            );
        }
    }
    if pc_rt::obs::summary_enabled() {
        eprintln!(
            "campaign: campaign.resumed_cells = {}  campaign.quarantined = {}",
            report.resumed_cells, report.quarantined,
        );
    }
    report.corpus = corpus;
    Ok(report)
}

/// Re-run one novel cell through the explain engine and write one
/// bundle per novel finding key. Returns the number of bundles written.
fn triage(
    dir: &str,
    w: &GeneratedWorkload,
    fs: FsKind,
    params: &Params,
    novel: &[FindingKey],
    opts: &FuzzOptions,
) -> Result<usize, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let mut explain_cfg = opts.cfg.clone();
    explain_cfg.explain = true;
    let stack = w.run(fs, params);
    let factory = fs.factory(params);
    let outcome = check_stack(&stack, &factory, &explain_cfg);
    let rendered: Vec<String> = (outcome.explanations.iter())
        .map(|e| e.signature.to_string())
        .collect();
    let mut written = 0usize;
    for (i, key) in novel.iter().enumerate() {
        let (_, journal, signature, layer) = key;
        let stem = format!(
            "{}-{}-{}",
            sanitize(fs.name()),
            sanitize(journal),
            sanitize(&format!("{}-{:02}", w.label(), i + 1)),
        );
        let context = format!("{} on {} ({journal})", w.label(), fs.name());
        let found = (outcome.explanations.iter().zip(&rendered))
            .find(|(e, rendered)| *rendered == signature && e.layer == *layer);
        if let Some((e, _)) = found {
            crate::write_bundle(dir, &stem, e, &context)?;
        }
        let sample_arg = match opts.sample {
            Some(n) => format!(" --sample {n}"),
            None => String::new(),
        };
        let paper_arg = if opts.paper { " --paper" } else { "" };
        let path = format!("{dir}/{stem}.repro");
        std::fs::write(
            &path,
            format!(
                "workload: {}\nfs: {}\njournal: {}\nsignature: {}\nlayer: {:?}\n\
                 repro: paracrash fuzz --bound {} --seed {}{} --fs {} --modes {}{}\n",
                w.label(),
                fs.name(),
                journal,
                signature,
                layer,
                opts.bound,
                opts.seed,
                sample_arg,
                fs.name(),
                journal,
                paper_arg,
            ),
        )
        .map_err(|e| format!("cannot write {path}: {e}"))?;
        written += 1;
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_rt::inject;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard};

    /// The armed injection target is process-global; serialize the
    /// campaign tests.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock_tests() -> MutexGuard<'static, ()> {
        pc_rt::lock(&TEST_LOCK)
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pc-campaign-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_opts(dir: &Path) -> FuzzOptions {
        FuzzOptions {
            sample: Some(5),
            file_systems: vec![FsKind::BeeGfs],
            state_dir: dir.to_str().map(str::to_string),
            ..FuzzOptions::pr_tier()
        }
    }

    /// The same sweep with no state dir.
    fn stateless_opts() -> FuzzOptions {
        FuzzOptions {
            state_dir: None,
            ..tiny_opts(Path::new(""))
        }
    }

    fn dir_listing(dir: &Path) -> Vec<PathBuf> {
        let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn mode_parsing_roundtrips() {
        assert_eq!(parse_modes("all").unwrap().len(), 4);
        assert_eq!(
            parse_modes("data,none").unwrap(),
            vec![JournalMode::Data, JournalMode::None]
        );
        assert!(parse_modes("data,wat").is_none());
        for m in parse_modes("all").unwrap() {
            assert_eq!(parse_modes(mode_label(m)).unwrap(), vec![m]);
        }
    }

    #[test]
    fn state_dir_adds_only_durability_and_refuses_clobber() {
        let _g = lock_tests();
        let dir = scratch_dir("basic");
        let opts = tiny_opts(&dir);
        let report = run_campaign(&opts).unwrap();
        assert_eq!(report.workloads, 5);
        assert_eq!(report.total_cells, 5);
        assert_eq!(report.cells_run, 5);
        assert_eq!(report.resumed_cells, 0);
        assert_eq!(report.corpus.cells, 5);
        // Same sweep without a state dir: identical corpus, twice (same
        // seed + bound reproduce byte-identically), and no file created
        // anywhere the driver could default to.
        let cwd = std::env::current_dir().unwrap();
        let (cwd_before, state_before) = (dir_listing(&cwd), dir_listing(&dir));
        let stateless = run_campaign(&stateless_opts()).unwrap();
        let again = run_campaign(&stateless_opts()).unwrap();
        assert_eq!(dir_listing(&cwd), cwd_before, "stateless run wrote to cwd");
        assert_eq!(dir_listing(&dir), state_before);
        assert_eq!(
            report.corpus.canonical_report(),
            stateless.corpus.canonical_report(),
            "with and without a state dir the folds must agree cell-for-cell"
        );
        assert_eq!(
            stateless.corpus.canonical_report(),
            again.corpus.canonical_report()
        );
        assert_eq!((stateless.cells_run, stateless.resumed_cells), (5, 0));
        // --resume has nothing to resume from without a state dir.
        let err = run_campaign(&FuzzOptions {
            resume: true,
            ..stateless_opts()
        })
        .unwrap_err();
        assert!(err.contains("--state-dir"), "got: {err}");
        assert!(report.corpus.rep_state_count() > 0, "digests collected");
        // Re-running without --resume must refuse, not clobber.
        let err = run_campaign(&opts).unwrap_err();
        assert!(err.contains("--resume"), "got: {err}");
        // Resuming a *finished* campaign replays to the same report.
        let resumed = run_campaign(&FuzzOptions {
            resume: true,
            ..tiny_opts(&dir)
        })
        .unwrap();
        assert_eq!(resumed.resumed_cells, 5);
        assert_eq!(resumed.cells_run, 0);
        assert_eq!(
            resumed.corpus.canonical_report(),
            report.corpus.canonical_report()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_mid_sweep_resumes_byte_identically() {
        let _g = lock_tests();
        let ref_dir = scratch_dir("crash-ref");
        let reference = run_campaign(&tiny_opts(&ref_dir)).unwrap();
        // Crash at the 4th durability point (header, meta record, cells),
        // so mid-sweep with some cells committed, leaving a 9-byte tear.
        let dir = scratch_dir("crash-resume");
        inject::arm("durable:", 4, 9);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_campaign(&tiny_opts(&dir))
        }));
        inject::disarm();
        assert!(crashed.is_err(), "armed crash must fire mid-campaign");
        let resumed = run_campaign(&FuzzOptions {
            resume: true,
            ..tiny_opts(&dir)
        })
        .unwrap();
        assert!(resumed.resumed_cells > 0, "some cells survived the crash");
        assert!(resumed.cells_run > 0, "the tail was re-run");
        assert_eq!(
            resumed.corpus.canonical_report(),
            reference.corpus.canonical_report(),
            "resume must be byte-identical to the uninterrupted run"
        );
        std::fs::remove_dir_all(&ref_dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_with_different_sweep_is_rejected() {
        let _g = lock_tests();
        let dir = scratch_dir("meta");
        run_campaign(&tiny_opts(&dir)).unwrap();
        let mut other = tiny_opts(&dir);
        other.resume = true;
        other.seed = 7;
        other.sample = Some(4);
        let err = run_campaign(&other).unwrap_err();
        assert!(err.contains("different sweep"), "got: {err}");
        // The scale is part of the sweep: a quick log never resumes a
        // --paper run (nor the reverse).
        let paper = FuzzOptions {
            resume: true,
            paper: true,
            ..tiny_opts(&dir)
        };
        let err = run_campaign(&paper).unwrap_err();
        assert!(err.contains("\"paper\": true"), "got: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn panicking_cell_is_quarantined_at_once() {
        let _g = lock_tests();
        let cell = format!("{}@BeeGFS/data", generated::sample(2, 42, 5)[0].label());
        let dir = scratch_dir("poison");
        let poisoned = |opts: &FuzzOptions| {
            inject::arm(&cell, 1, 0);
            let run = run_campaign(opts);
            inject::disarm();
            run
        };
        let stateless = poisoned(&stateless_opts());
        let durable = poisoned(&tiny_opts(&dir));
        // One panic, one quarantine, and the sweep goes on — with and
        // without a state dir.
        let ledger = format!("quarantined: panicked: injected crash at {cell} (hit 1)");
        for run in [stateless.unwrap(), durable.unwrap()] {
            assert_eq!((run.quarantined, run.cells_run), (1, 5));
            assert_eq!(run.corpus.cells, 4, "the other cells were checked");
            let report = run.corpus.canonical_report();
            assert_eq!(report.matches(&ledger).count(), 1, "{report}");
        }
        // The durable `quarantine` record replays to the same ledger line.
        let resumed = run_campaign(&FuzzOptions {
            resume: true,
            ..tiny_opts(&dir)
        })
        .unwrap();
        assert_eq!((resumed.resumed_cells, resumed.cells_run), (5, 0));
        assert!(resumed.corpus.canonical_report().contains(&ledger));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A log written before the campaign stopped recording bug witnesses
    /// carries a `witness` key in each bug; nothing reads it, so such a
    /// log folds to the same corpus as one without the key.
    #[test]
    fn a_logged_bug_witness_folds_unchanged() {
        let outcome = CheckOutcome {
            bugs: vec![Inconsistency {
                signature: BugSignature {
                    kind: BugKind::Reordering,
                    members: vec!["a@x".into(), "b@y".into()],
                },
                layer: LayerVerdict::PfsBug,
                violated_model: Model::Causal,
                witness: vec!["creat(/f)@server#0".into()],
                occurrences: 3,
            }],
            raw_inconsistent_states: 3,
            ..Default::default()
        };
        let current = cell_record(0, "w", "BeeGFS", "data", &outcome).pretty();
        assert!(!current.contains("witness"), "{current}");
        let legacy = current.replace("\"occurrences\"", "\"witness\": [\"w\"], \"occurrences\"");
        let opts = stateless_opts();
        let fold = |cell: &str| {
            let log = [meta_record(&opts).pretty().into_bytes(), cell.into()];
            let (corpus, cursor) = recover(&opts, &log).unwrap();
            (corpus.canonical_report(), corpus.finding_count(), cursor)
        };
        let folded = fold(&current);
        assert_eq!((folded.1, folded.2), (1, 1));
        assert_eq!(fold(&legacy), folded);
    }

    #[test]
    fn progress_line_counts_and_stays_finite() {
        let corpus = FuzzCorpus::new();
        let line = progress_line(4, 8, 2.0, &corpus);
        assert!(line.contains("4/8 cells (50%)"), "{line}");
        assert!(line.contains("2.0 cells/s | eta 2s"), "{line}");
        assert!(line.contains("behaviors 0 | findings 0 | saturation 0%"));
        // An empty sweep renders as complete, with no NaN or inf.
        let line = progress_line(0, 0, 0.0, &corpus);
        assert!(line.contains("0/0 cells (100%)"), "{line}");
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
    }
}
