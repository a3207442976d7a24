//! The `paracrash` command-line front end.
//!
//! Mirrors the original framework's interface (§5): "ParaCrash takes a
//! configuration file and two programs as input, and automatically
//! generates crash-consistency reports for the tested I/O stack." The
//! preamble program is part of each named test program here; everything
//! else — per-layer models, exploration mode, `k`, cluster shape — comes
//! from the configuration file.
//!
//! ```sh
//! paracrash --fs BeeGFS --program ARVR [--config paracrash.conf] [--paper]
//! paracrash --fs all --program all          # the full evaluation matrix
//! paracrash --fs GPFS --program WAL --dump-trace wal.trace
//! paracrash --fs BeeGFS --program ARVR --telemetry-out trace.json \
//!           --telemetry-format chrome      # Perfetto-loadable timeline
//! paracrash --fs BeeGFS --program ARVR --explain-out reports/
//! ```
//!
//! `--telemetry-out` enables the `pc_rt::obs` layer for the run and
//! writes the collected spans/counters to the given path on exit —
//! plain structured JSON by default, Chrome trace-event format with
//! `--telemetry-format chrome`. `PC_TRACE=summary` additionally prints
//! a per-check stage table to stderr.
//!
//! `--explain-out DIR` turns on the provenance engine and writes one
//! self-contained bundle per bug into `DIR`: a Markdown report, a
//! Graphviz `.dot` causal graph, and a machine-readable `.json`
//! (minimal witness, violated ordering edges, vector clocks, state
//! diff).
//!
//! The `fuzz` subcommand switches from the paper's eleven programs to
//! the bounded black-box generator:
//!
//! ```sh
//! paracrash fuzz --bound 2 --seed 42                 # PR-tier sweep
//! paracrash fuzz --bound 3 --sample 400 --modes all  # nightly-style
//! paracrash fuzz --bound 2 --findings-out findings/  # triage bundles
//! ```
//!
//! Its stdout is exactly the corpus's canonical report (byte-stable
//! across `PC_THREADS` — the CI crash gate diffs it); progress and
//! timing go to stderr.
//!
//! Live observability: `--events-out FILE` (or `PC_EVENTS=FILE`)
//! attaches the `pc_rt::obs::stream` flight recorder's JSON-lines sink
//! — structured events (cells, findings, spans, counters, periodic
//! campaign snapshots) stream to `FILE` while the run is still going,
//! and a panic flushes the ring so a wedged run stays diagnosable.
//! `PC_PROGRESS=1` adds a throughput/ETA meter on stderr. Afterwards,
//! the `report` subcommand folds the artifacts into one self-contained
//! HTML dashboard (inline SVG, no scripts, no network):
//!
//! ```sh
//! paracrash fuzz --bound 2 --events-out events.jsonl
//! paracrash report --events events.jsonl --out report.html
//! paracrash report --events events.jsonl --telemetry trace.json \
//!           --out report.html
//! ```
//!
//! The harnesses that used to be separate binaries are subcommands too
//! (their code lives in this binary's private modules):
//!
//! ```sh
//! paracrash table3 [--paper]                 # Table 3, 15/15 REPRODUCED
//! paracrash fig8|fig9|fig10|fig11 [--paper]  # the evaluation figures
//! paracrash selftest <plane> [args]          # the verify gates' helpers
//! ```
//!
//! Self-profiling: `--profile-out FILE` (or `PC_PROFILE=FILE`) arms the
//! cooperative sampling profiler — worker threads publish their span
//! stacks through a seqlock shadow, a sampler thread folds them at
//! `PC_PROF_HZ` — and writes an inferno-compatible `.folded` aggregate
//! on exit; `report --profile FILE` renders it as a no-script SVG flame
//! view. `--history-dir DIR` appends one perf record per run (states/s,
//! per-stage ns, allocation bytes, peak RSS) to a durable CRC-checked
//! log that the `history` subcommand reads back:
//!
//! ```sh
//! paracrash fuzz --bound 2 --profile-out fuzz.folded --history-dir perf-history
//! paracrash history diff --history-dir perf-history --band 1.5
//! paracrash report --events events.jsonl --profile fuzz.folded
//! ```

use paracrash::dashboard::render_dashboard;
use paracrash::history;
use paracrash::telemetry::{chrome_trace, telemetry_json};
use paracrash::CheckConfig;
use pc_bench::campaign::{parse_modes, run_campaign, CampaignOptions, FuzzOptions};
use pc_bench::{render_bug, run_program_swept, sanitize};
use pc_rt::json::Json;
use simnet::FaultConfig;
use std::time::Duration;
use workloads::{FsKind, Params, Program};

mod figures;
mod overhead;
mod selftest;

/// One-line diagnostic, then the usage-error exit code (2).
fn die(msg: std::fmt::Arguments<'_>) -> ! {
    pc_rt::pc_error!("{msg}");
    std::process::exit(2);
}

/// What an output-path flag names on disk.
enum OutTarget {
    /// A directory the run writes files into (created in full).
    Dir,
    /// A single output file (its parent directories are created).
    File,
}

/// Validate an output path at launch: create the directory — or the
/// file's parent directories — so an unwritable target fails *here*
/// with exit 2 instead of hours into a campaign when the first write
/// lands. Shared by every `*-out` / `*-dir` flag; returns the path
/// back for assignment-style call sites.
fn prepare_out(target: OutTarget, flag: &str, path: String) -> String {
    let result = match target {
        OutTarget::Dir => std::fs::create_dir_all(&path),
        OutTarget::File => pc_rt::durable::ensure_parent_dir(std::path::Path::new(&path)),
    };
    result.unwrap_or_else(|e| die(format_args!("cannot prepare {flag} {path}: {e}")));
    path
}

/// Arm the self-profiling plane for a `--profile-out` run: telemetry
/// on (spans must exist to be sampled), sampler thread running at
/// `PC_PROF_HZ`, and the `.folded` output path armed for
/// [`finish_profile_and_history`] to flush.
fn arm_profile(path: String) {
    pc_rt::obs::set_enabled(true);
    pc_rt::obs::prof::enable_sampling(pc_rt::obs::prof::hz_from_env());
    pc_rt::obs::prof::arm_output(path);
}

/// Output options that need carrying to the end of the run (the
/// profiler arms process-global state instead).
#[derive(Default)]
struct ProfOpts {
    /// `--history-dir`: append one perf record to this durable log.
    history_dir: Option<String>,
}

/// Flush the self-profiling plane at the end of a run: write the armed
/// `.folded` profile (if any) and append one perf record to the
/// `--history-dir` log. Failures are I/O errors on explicitly
/// requested output paths, so they exit 1 like the other end-of-run
/// writers.
fn finish_profile_and_history(
    prof_opts: &ProfOpts,
    kind: &str,
    label: &str,
    work: u64,
    wall: Duration,
) {
    match pc_rt::obs::prof::finish() {
        Ok(Some(path)) => pc_rt::pc_info!(
            "profile written to {} ({} samples)",
            path.display(),
            pc_rt::obs::prof::samples_total()
        ),
        Ok(None) => {}
        Err(e) => {
            pc_rt::pc_error!("cannot write profile: {e}");
            std::process::exit(1);
        }
    }
    let Some(dir) = &prof_opts.history_dir else {
        return;
    };
    let snap = pc_rt::obs::snapshot();
    let rec = history::RunRecord::from_run(kind, label, work, wall.as_nanos() as u64, &snap);
    if let Err(e) = history::append(std::path::Path::new(dir), &rec) {
        pc_rt::pc_error!("cannot append history record to {dir}: {e}");
        std::process::exit(1);
    }
    pc_rt::pc_info!("history record appended to {dir}/{}", history::HISTORY_LOG);
}

fn usage() -> ! {
    eprintln!(
        "usage: paracrash --fs <BeeGFS|OrangeFS|GlusterFS|GPFS|Lustre|ext4|all>\n\
         \x20                --program <ARVR|CR|RC|WAL|H5-create|...|all>\n\
         \x20                [--config <file>] [--dump-trace <file>] [--paper]\n\
         \x20                [--faults <spec>|chaos] [--fail-fast]\n\
         \x20                [--telemetry-out <file>] [--telemetry-format <json|chrome>]\n\
         \x20                [--explain-out <dir>] [--events-out <file>]\n\
         \x20                [--profile-out <file>] [--history-dir <dir>]\n\
         \x20      paracrash fuzz|campaign [--bound <n>] [--seed <n>] [--sample <n>]\n\
         \x20                [--fs <list|all>] [--modes <data,ordered,writeback,none|all>]\n\
         \x20                [--findings-out <dir>] [--events-out <file>] [--paper]\n\
         \x20                [--profile-out <file>] [--history-dir <dir>]\n\
         \x20                [--cell-timeout <secs>] [--max-retries <n>]\n\
         \x20                [--state-dir <dir>] [--resume] [--checkpoint-every <n>]\n\
         \x20      paracrash report --events <file> [--telemetry <file>]\n\
         \x20                [--profile <file>] [--out <file>]\n\
         \x20      paracrash history <show|diff|regressions>\n\
         \x20                [--history-dir <dir>] [--band <ratio>]\n\
         \x20      paracrash table3|fig8|fig9|fig10|fig11 [--paper]\n\
         \x20      paracrash selftest <{}> [args]\n\n\
         `fuzz` and `campaign` are one sweep driver; `campaign` defaults\n\
         `--state-dir` to campaign-state. With a state dir the sweep is\n\
         crash-safe and resumable: every cell commits to an append-only\n\
         CRC-checked log under it, checkpoints land atomically, and\n\
         `--resume` replays the log to continue a killed run with a\n\
         byte-identical final report. Either way, cells that hang past\n\
         `--cell-timeout` or panic through `--max-retries` retries are\n\
         quarantined, not fatal.\n\n\
         `selftest <plane>` with no further argument asserts the plane's\n\
         disabled-overhead budget (<3%); with an artifact it validates it:\n\
         `telemetry <file>`, `explain <dir> [<min-bundles>]`, `events <file>`\n\
         | `events --canonical-diff <a> <b>` | `events --html <report>`,\n\
         `prof <file.folded>`, `durable [<seed>] [<cases>]`. `selftest scale`\n\
         takes no argument: it times the batched engine against the per-state\n\
         loop and the 64- against the 256-server check, in process.\n\n\
         `--events-out` streams flight-recorder events (cells, findings,\n\
         spans, campaign snapshots) as JSON lines while the run is live;\n\
         `report` renders them (plus optional telemetry JSON and a\n\
         `--profile` .folded aggregate as an SVG flame view) into one\n\
         self-contained HTML dashboard.\n\n\
         `--profile-out` arms the cooperative sampling profiler (rate from\n\
         PC_PROF_HZ, default 97 Hz) and writes a flamegraph-compatible\n\
         .folded stack aggregate on exit; PC_PROFILE=FILE is the env-var\n\
         spelling. `--history-dir` appends one perf record per run to a\n\
         durable CRC-checked log; `history show|diff|regressions` renders,\n\
         compares (last two runs), or scans it, flagging any metric that\n\
         slowed by more than `--band` (default 1.5x) with exit 1.\n\n\
         `--faults` takes a comma-separated spec (seed=N,drop=R,dup=R,delay=R,\n\
         retries=N,partition=S[:H],torn=BOOL) or the word `chaos`; the\n\
         PC_CHAOS_SEED / PC_FAULT_RATE environment variables arm the same\n\
         plane when the flag is absent.\n\n\
         The configuration file uses `key = value` lines:\n{}",
        selftest::PLANES,
        CheckConfig::paper_default().render()
    );
    std::process::exit(2);
}

/// Parse one flag describing the sweep itself (as opposed to how the
/// driver runs it) into `opts`; returns `false` when the flag is not
/// one of those so the caller can try the driver's set. Every output path goes through
/// [`prepare_out`] so an unwritable target fails at launch with exit 2
/// instead of hours in: `--events-out` attaches the stream sink
/// immediately, `--profile-out` arms the sampling profiler, and
/// `--history-dir` is carried in `prof_opts` for the end-of-run append.
fn parse_fuzz_flag(
    opts: &mut FuzzOptions,
    paper: &mut bool,
    prof_opts: &mut ProfOpts,
    a: &str,
    value: &mut dyn FnMut(&str) -> String,
) -> bool {
    match a {
        "--bound" => {
            opts.bound = value("--bound")
                .parse()
                .unwrap_or_else(|_| die(format_args!("--bound must be a number")));
            if opts.bound == 0 || opts.bound > 4 {
                die(format_args!(
                    "--bound must be 1..=4 (the corpus is exponential)"
                ));
            }
        }
        "--seed" => {
            opts.seed = value("--seed")
                .parse()
                .unwrap_or_else(|_| die(format_args!("--seed must be a number")));
        }
        "--sample" => {
            opts.sample = Some(
                value("--sample")
                    .parse()
                    .unwrap_or_else(|_| die(format_args!("--sample must be a number"))),
            );
        }
        "--fs" => {
            let spec = value("--fs");
            opts.file_systems = if spec.eq_ignore_ascii_case("all") {
                FsKind::all().to_vec()
            } else {
                spec.split(',')
                    .map(|s| {
                        FsKind::parse(s)
                            .unwrap_or_else(|| die(format_args!("unknown file system: {s}")))
                    })
                    .collect()
            };
        }
        "--modes" => {
            let spec = value("--modes");
            opts.modes =
                parse_modes(&spec).unwrap_or_else(|| die(format_args!("bad --modes spec: {spec}")));
        }
        "--findings-out" => {
            opts.findings_out = Some(prepare_out(
                OutTarget::Dir,
                "--findings-out",
                value("--findings-out"),
            ));
        }
        "--events-out" => {
            let path = prepare_out(OutTarget::File, "--events-out", value("--events-out"));
            pc_rt::obs::stream::set_sink(&path)
                .unwrap_or_else(|e| die(format_args!("cannot open {path}: {e}")));
        }
        "--profile-out" => {
            arm_profile(prepare_out(
                OutTarget::File,
                "--profile-out",
                value("--profile-out"),
            ));
        }
        "--history-dir" => {
            pc_rt::obs::set_enabled(true);
            prof_opts.history_dir = Some(prepare_out(
                OutTarget::Dir,
                "--history-dir",
                value("--history-dir"),
            ));
        }
        "--paper" => *paper = true,
        _ => return false,
    }
    true
}

/// The `fuzz` / `campaign` subcommands: one bounded black-box sweep
/// over the generated-workload corpus, crash-safe and resumable when it
/// has a state dir (`campaign` defaults one, `fuzz` does not — the only
/// difference between the two spellings). Stdout carries exactly the
/// canonical report so CI can diff runs (resume/retry accounting goes
/// to stderr with everything else, so a resumed run diffs clean against
/// an uninterrupted one).
fn run_sweep(kind: &str, args: &[String]) -> ! {
    let default_state_dir = (kind == "campaign").then_some("campaign-state");
    let mut opts = CampaignOptions::new(FuzzOptions::pr_tier(), default_state_dir);
    let mut paper = false;
    let mut prof_opts = ProfOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(format_args!("{what} needs a value")))
        };
        if parse_fuzz_flag(&mut opts.fuzz, &mut paper, &mut prof_opts, a, &mut value) {
            continue;
        }
        match a.as_str() {
            "--state-dir" => opts.state_dir = Some(value("--state-dir")),
            "--resume" => opts.resume = true,
            "--cell-timeout" => {
                let secs: f64 = value("--cell-timeout")
                    .parse()
                    .unwrap_or_else(|_| die(format_args!("--cell-timeout must be seconds")));
                if !secs.is_finite() || secs <= 0.0 {
                    die(format_args!("--cell-timeout must be positive"));
                }
                opts.cell_timeout = Some(Duration::from_secs_f64(secs));
            }
            "--max-retries" => {
                opts.max_retries = value("--max-retries")
                    .parse()
                    .unwrap_or_else(|_| die(format_args!("--max-retries must be a number")));
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = value("--checkpoint-every")
                    .parse()
                    .unwrap_or_else(|_| die(format_args!("--checkpoint-every must be a number")));
                if opts.checkpoint_every == 0 {
                    die(format_args!("--checkpoint-every must be at least 1"));
                }
            }
            "--help" | "-h" => usage(),
            other => {
                pc_rt::pc_error!("unknown {kind} argument: {other}");
                usage();
            }
        }
    }
    if paper {
        opts.fuzz.params = Params::paper();
    }
    let start = std::time::Instant::now();
    let report = run_campaign(&opts).unwrap_or_else(|e| die(format_args!("{e}")));
    let wall = start.elapsed();
    let secs = wall.as_secs_f64();
    pc_rt::obs::stream::close();
    finish_profile_and_history(
        &prof_opts,
        kind,
        &format!("bound={} seed={}", opts.fuzz.bound, opts.fuzz.seed),
        report.corpus.cells as u64,
        wall,
    );
    print!("{}", report.corpus.canonical_report());
    pc_rt::pc_info!(
        "{kind}: {} workloads, {}/{} cells this run ({} resumed, {} retries, {} quarantined) \
         in {:.1}s ({:.1} cells/s), {} findings, {} bundles, state dir: {}",
        report.workloads,
        report.cells_run,
        report.total_cells,
        report.resumed_cells,
        report.retries,
        report.quarantined,
        secs,
        report.cells_run as f64 / secs.max(1e-9),
        report.corpus.finding_count(),
        report.bundles,
        opts.state_dir.as_deref().unwrap_or("none"),
    );
    std::process::exit(0);
}

/// The `report` subcommand: fold a run's artifacts — the `--events-out`
/// stream, an optional `--telemetry-out` snapshot, an optional
/// `--profile-out` profile — into one self-contained HTML dashboard.
fn run_report(args: &[String]) -> ! {
    let mut events_path: Option<String> = None;
    let mut telemetry_path: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut out_path = "paracrash-report.html".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(format_args!("{what} needs a value")))
        };
        match a.as_str() {
            "--events" => events_path = Some(value("--events")),
            "--telemetry" => telemetry_path = Some(value("--telemetry")),
            "--profile" => profile_path = Some(value("--profile")),
            "--out" => out_path = value("--out"),
            "--help" | "-h" => usage(),
            other => {
                pc_rt::pc_error!("unknown report argument: {other}");
                usage();
            }
        }
    }
    let Some(events_path) = events_path else {
        pc_rt::pc_error!("report needs --events <file>");
        usage();
    };
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(format_args!("cannot read {path}: {e}")))
    };
    let events_text = read(&events_path);
    let telemetry = telemetry_path.as_deref().map(|p| {
        Json::parse(&read(p)).unwrap_or_else(|e| die(format_args!("bad telemetry {p}: {e}")))
    });
    let profile_text = profile_path.as_deref().map(read);
    let html = render_dashboard(&events_text, telemetry.as_ref(), profile_text.as_deref())
        .unwrap_or_else(|e| die(format_args!("bad report input ({events_path}): {e}")));
    std::fs::write(&out_path, &html)
        .unwrap_or_else(|e| die(format_args!("cannot write {out_path}: {e}")));
    println!(
        "dashboard written to {out_path} ({} bytes from {events_path})",
        html.len()
    );
    std::process::exit(0);
}

/// The `history` subcommand: render, compare, or scan the durable
/// perf-history log that `--history-dir` runs append to. `diff`
/// compares the last two records and `regressions` walks every
/// consecutive pair; both exit 1 when a headline metric slowed by
/// `--band` or more, so CI can gate on run-to-run drift.
fn run_history(args: &[String]) -> ! {
    let mut dir = "perf-history".to_string();
    let mut band = history::DEFAULT_BAND;
    let mut action: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(format_args!("{what} needs a value")))
        };
        match a.as_str() {
            "--history-dir" => dir = value("--history-dir"),
            "--band" => {
                band = value("--band")
                    .parse()
                    .unwrap_or_else(|_| die(format_args!("--band must be a ratio")));
                if !band.is_finite() || band <= 1.0 {
                    die(format_args!("--band must be a finite ratio above 1.0"));
                }
            }
            "show" | "diff" | "regressions" if action.is_none() => action = Some(a.clone()),
            "--help" | "-h" => usage(),
            other => {
                pc_rt::pc_error!("unknown history argument: {other}");
                usage();
            }
        }
    }
    let Some(action) = action else {
        pc_rt::pc_error!("history needs an action: show, diff, or regressions");
        usage();
    };
    let records = history::load(std::path::Path::new(&dir))
        .unwrap_or_else(|e| die(format_args!("cannot load history from {dir}: {e}")));
    match action.as_str() {
        "show" => {
            print!("{}", history::render_show(&records));
            std::process::exit(0);
        }
        "diff" => {
            if records.len() < 2 {
                die(format_args!(
                    "history diff needs at least two recorded runs in {dir} (found {})",
                    records.len()
                ));
            }
            let (text, flagged) = history::diff(
                &records[records.len() - 2],
                &records[records.len() - 1],
                band,
            );
            print!("{text}");
            std::process::exit(i32::from(flagged));
        }
        _ => {
            let (text, flagged) = history::regressions(&records, band);
            print!("{text}");
            std::process::exit(i32::from(flagged));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some((sub, rest)) = args.split_first() {
        match sub.as_str() {
            "fuzz" | "campaign" => run_sweep(sub, rest),
            "report" => run_report(rest),
            "history" => run_history(rest),
            "selftest" => selftest::run(rest),
            _ => {}
        }
        if let Some((name, figure)) = figures::FIGURES.iter().find(|(name, _)| name == sub) {
            figures::run(*figure, name, rest);
        }
    }
    let mut fs_arg = None;
    let mut program_arg = None;
    let mut config_path = None;
    let mut dump_trace = None;
    let mut paper = false;
    let mut telemetry_out = None;
    let mut telemetry_format = "json".to_string();
    let mut faults_arg: Option<String> = None;
    let mut fail_fast = false;
    let mut explain_out: Option<String> = None;
    let mut events_out: Option<String> = None;
    let mut prof_opts = ProfOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(format_args!("{what} needs a value")))
        };
        match a.as_str() {
            "--events-out" => {
                events_out = Some(prepare_out(
                    OutTarget::File,
                    "--events-out",
                    value("--events-out"),
                ));
            }
            "--profile-out" => {
                arm_profile(prepare_out(
                    OutTarget::File,
                    "--profile-out",
                    value("--profile-out"),
                ));
            }
            "--history-dir" => {
                pc_rt::obs::set_enabled(true);
                prof_opts.history_dir = Some(prepare_out(
                    OutTarget::Dir,
                    "--history-dir",
                    value("--history-dir"),
                ));
            }
            "--fs" => fs_arg = it.next().cloned(),
            "--program" => program_arg = it.next().cloned(),
            "--config" => config_path = it.next().cloned(),
            "--dump-trace" => dump_trace = it.next().cloned(),
            "--paper" => paper = true,
            "--faults" => faults_arg = it.next().cloned(),
            "--fail-fast" => fail_fast = true,
            "--explain-out" => explain_out = it.next().cloned(),
            "--telemetry-out" => telemetry_out = it.next().cloned(),
            "--telemetry-format" => {
                telemetry_format = it.next().cloned().unwrap_or_default();
                if !matches!(telemetry_format.as_str(), "json" | "chrome") {
                    pc_rt::pc_error!("unknown telemetry format: {telemetry_format}");
                    usage();
                }
            }
            "--help" | "-h" => usage(),
            other => {
                pc_rt::pc_error!("unknown argument: {other}");
                usage();
            }
        }
    }
    let (Some(fs_arg), Some(program_arg)) = (fs_arg, program_arg) else {
        usage();
    };
    if telemetry_out.is_some() {
        pc_rt::obs::set_enabled(true);
    }
    if let Some(path) = &events_out {
        pc_rt::obs::stream::set_sink(path)
            .unwrap_or_else(|e| die(format_args!("cannot open {path}: {e}")));
    }
    // Outermost span: everything from configuration to the last verdict
    // lands under it, so the emitted timeline covers the full run.
    let start = std::time::Instant::now();
    let cli_span = pc_rt::obs::span_cat("cli.run", "cli");

    let mut cfg = CheckConfig::paper_default();
    if let Some(path) = config_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die(format_args!("cannot read {path}: {e}")));
        cfg = CheckConfig::parse(&text)
            .unwrap_or_else(|e| die(format_args!("bad configuration {path}: {e}")));
    }
    cfg.fail_fast |= fail_fast;
    if let Some(dir) = &explain_out {
        cfg.explain = true;
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(format_args!("cannot create {dir}: {e}")));
    }
    // `--faults` wins over the config file; the environment is the
    // fallback when neither names a plane.
    match &faults_arg {
        Some(spec) => {
            cfg.faults = FaultConfig::parse_spec(spec)
                .unwrap_or_else(|e| die(format_args!("bad --faults spec: {e}")));
        }
        None => {
            if let Some(env_cfg) = FaultConfig::from_env() {
                cfg.faults = env_cfg;
            }
        }
    }
    let mut params = if paper {
        Params::paper()
    } else {
        Params::quick()
    };
    params = params
        .with_servers(cfg.servers.0, cfg.servers.1)
        .with_clients(cfg.clients);
    if paper {
        params = params.with_stripe(cfg.stripe_size);
    }
    if cfg.faults.enabled() {
        params = params.with_faults(cfg.faults.clone());
    }

    let systems: Vec<FsKind> = if fs_arg.eq_ignore_ascii_case("all") {
        FsKind::all().to_vec()
    } else {
        match FsKind::parse(&fs_arg) {
            Some(f) => vec![f],
            None => {
                pc_rt::pc_error!("unknown file system: {fs_arg}");
                usage();
            }
        }
    };
    let programs: Vec<Program> = if program_arg.eq_ignore_ascii_case("all") {
        Program::paper_eleven().to_vec()
    } else {
        match Program::paper_eleven()
            .into_iter()
            .chain([Program::CdfRename])
            .find(|p| p.name().eq_ignore_ascii_case(&program_arg))
        {
            Some(p) => vec![p],
            None => {
                pc_rt::pc_error!("unknown program: {program_arg}");
                usage();
            }
        }
    };

    if let Some(path) = &dump_trace {
        // Trace-only mode companion: record the first (program, fs) cell
        // and write its per-process trace files next to `path`.
        let stack = programs[0].run(systems[0], &params);
        std::fs::write(path, tracer::save_trace(&stack.rec)).unwrap_or_else(|e| {
            pc_rt::pc_error!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!(
            "trace of {} on {} written to {path} ({} events)",
            programs[0].name(),
            systems[0].name(),
            stack.rec.len()
        );
    }

    let mut total_bugs = 0usize;
    let mut total_bundles = 0usize;
    let mut total_states_checked = 0u64;
    for &program in &programs {
        for &fs in &systems {
            let cell = run_program_swept(program, fs, &params, &cfg);
            total_states_checked += cell.outcome.stats.states_checked as u64;
            println!(
                "== {} on {} ==  ({} crash states, {} checked, {} pruned, {:.1}s simulated)",
                program.name(),
                fs.name(),
                cell.outcome.stats.states_total,
                cell.outcome.stats.states_checked,
                cell.outcome.stats.states_pruned,
                cell.outcome.stats.sim_seconds,
            );
            if cell.outcome.bugs.is_empty() {
                println!("   no crash-consistency bugs found");
            }
            for bug in &cell.outcome.bugs {
                total_bugs += 1;
                println!("   {}", render_bug(bug));
                for w in bug.witness.iter().take(4) {
                    println!("      witness: {w}");
                }
            }
            for d in &cell.outcome.diagnostics {
                println!("   diagnostic: {d}");
            }
            if let Some(dir) = &explain_out {
                let context = format!("{} on {}", program.name(), fs.name());
                for (i, e) in cell.outcome.explanations.iter().enumerate() {
                    let stem = format!(
                        "{}-{}-bug{:02}",
                        sanitize(program.name()),
                        sanitize(fs.name()),
                        i + 1
                    );
                    let write = |ext: &str, text: String| {
                        let path = format!("{dir}/{stem}.{ext}");
                        std::fs::write(&path, text).unwrap_or_else(|err| {
                            pc_rt::pc_error!("cannot write {path}: {err}");
                            std::process::exit(1);
                        });
                    };
                    write("md", e.to_markdown(&context));
                    write("dot", e.to_dot());
                    let mut json = e.to_json().pretty();
                    json.push('\n');
                    write("json", json);
                    total_bundles += 1;
                }
            }
        }
    }
    println!("\n{total_bugs} unique crash-consistency bug(s) reported.");
    if let Some(dir) = &explain_out {
        println!("{total_bundles} explain bundle(s) written to {dir}/ (.md + .dot + .json each).");
    }
    drop(cli_span);
    pc_rt::obs::stream::close();
    finish_profile_and_history(
        &prof_opts,
        "check",
        &format!("{program_arg} on {fs_arg}"),
        total_states_checked,
        start.elapsed(),
    );
    if let Some(path) = &telemetry_out {
        let snap = pc_rt::obs::snapshot();
        let json = if telemetry_format == "chrome" {
            chrome_trace(&snap)
        } else {
            telemetry_json(&snap)
        };
        let mut text = json.pretty();
        text.push('\n');
        std::fs::write(path, text).unwrap_or_else(|e| {
            pc_rt::pc_error!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        pc_rt::pc_info!(
            "telemetry ({telemetry_format}) written to {path}: {} spans, {} counters",
            snap.spans.len(),
            snap.counters.len()
        );
    }
    let exit = i32::from(
        programs.len() == 1
            && systems.len() == 1
            && total_bugs > 0
            && programs[0].name() != "CDF-rename",
    );
    // Exit 1 when a targeted single-cell check found bugs (CI-friendly).
    std::process::exit(if programs.len() == 1 && systems.len() == 1 {
        exit
    } else {
        0
    });
}
