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
//! paracrash --fs GPFS --program WAL --dump-trace wal.txt  # Figure 9 listing
//! paracrash --fs BeeGFS --program ARVR --telemetry-out trace.json  # Perfetto-loadable
//! paracrash --fs BeeGFS --program ARVR --explain-out reports/
//! ```
//!
//! `--telemetry-out` enables the `pc_rt::obs` layer for the run and
//! writes the collected spans/counters to the given path on exit in
//! Chrome trace-event format. `PC_TRACE=summary` additionally prints a
//! per-check stage table to stderr.
//!
//! `--explain-out DIR` turns on the provenance engine and writes one
//! self-contained bundle per bug into `DIR`: a Markdown report (minimal
//! witness, violated ordering edges, state diff) and a Graphviz `.dot`
//! causal graph.
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
//! from run to run — the CI crash gate diffs it); progress and
//! timing go to stderr.
//!
//! Live observability: `--events-out FILE` attaches the
//! `pc_rt::obs::stream` JSON-lines sink — structured events (cells,
//! findings, periodic campaign snapshots) stream to `FILE` while the run
//! is still going, each line in the file once emitted, so a killed run
//! leaves a readable crash dump.
//! `PC_LOG=info` adds a throughput/ETA meter on stderr. Afterwards,
//! the `report` subcommand reads each artifact back with its writer's
//! reader — a file that reader rejects fails the command with exit 1 —
//! and folds them into one self-contained HTML dashboard (inline SVG, no
//! scripts, no network):
//!
//! ```sh
//! paracrash fuzz --bound 2 --events-out events.jsonl --telemetry-out trace.json
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
//! Self-profiling: the `--telemetry-out` file also holds the registry's
//! exact self time per span stack (`otherData.stacks`, in nanoseconds),
//! which `report` draws as a no-script SVG flame view. The two
//! observability flags (`--telemetry-out`, `--events-out`) mean the same
//! on a single check and on a sweep.

use paracrash::dashboard::render_dashboard;
use paracrash::telemetry::{chrome_trace, read_trace};
use paracrash::CheckConfig;
use pc_bench::campaign::{parse_modes, run_campaign, FuzzOptions};
use pc_bench::{render_bug, run_program_swept, sanitize, write_bundle};
use pc_rt::obs::stream;
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

/// Write an output file the command line asked for; an I/O error on it
/// exits 1 like any other failed run.
fn write_out(path: &str, text: String) {
    std::fs::write(path, text).unwrap_or_else(|e| {
        pc_rt::pc_error!("cannot write {path}: {e}");
        std::process::exit(1);
    });
}

/// Parse one observability flag — the same two on a single check and on
/// a sweep; returns `false` when `a` is not one of them. Every path goes
/// through [`prepare_out`], so an unwritable target fails at launch with
/// exit 2 instead of hours in; `--events-out` attaches the stream sink
/// immediately, `--telemetry-out` names the file [`finish_obs`] writes.
fn parse_obs_flag(
    telemetry_out: &mut Option<String>,
    a: &str,
    value: &mut dyn FnMut(&str) -> String,
) -> bool {
    match a {
        "--events-out" => {
            let path = prepare_out(OutTarget::File, a, value(a));
            stream::set_sink(&path)
                .unwrap_or_else(|e| die(format_args!("cannot open {path}: {e}")));
        }
        "--telemetry-out" => {
            pc_rt::obs::set_enabled(true);
            *telemetry_out = Some(prepare_out(OutTarget::File, a, value(a)));
        }
        _ => return false,
    }
    true
}

/// End of run: close the event stream and write the `--telemetry-out`
/// snapshot.
fn finish_obs(telemetry_out: Option<&str>) {
    stream::close();
    let Some(path) = telemetry_out else {
        return;
    };
    let snap = pc_rt::obs::snapshot();
    write_out(path, chrome_trace(&snap).pretty() + "\n");
    pc_rt::pc_info!(
        "telemetry written to {path}: {} spans, {} counters, {} stacks",
        snap.spans.len(),
        snap.counters.len(),
        snap.self_times.len()
    );
}

fn usage() -> ! {
    let env_table: String = pc_rt::env::VARS
        .iter()
        .map(|(name, meaning)| format!("  {name:<20} {meaning}\n"))
        .collect();
    eprintln!(
        "usage: paracrash --fs <BeeGFS|OrangeFS|GlusterFS|GPFS|Lustre|ext4|all>\n\
         \x20                --program <ARVR|CR|RC|WAL|H5-create|...|all>\n\
         \x20                [--config <file>] [--dump-trace <file>] [--paper]\n\
         \x20                [--torn-seed <n>] [--explain-out <dir>]\n\
         \x20                [--telemetry-out <file>] [--events-out <file>]\n\
         \x20      paracrash fuzz [--bound <n>] [--seed <n>] [--sample <n>]\n\
         \x20                [--fs <list|all>] [--modes <data,ordered,writeback,none|all>]\n\
         \x20                [--findings-out <dir>] [--paper]\n\
         \x20                [--telemetry-out <file>] [--events-out <file>]\n\
         \x20                [--state-dir <dir>] [--resume]\n\
         \x20      paracrash report --events <file> [--telemetry <file>] [--out <file>]\n\
         \x20      paracrash table3|fig8|fig9|fig10|fig11 [--paper]\n\
         \x20      paracrash selftest <{}> [args]\n\n\
         With `--state-dir` a `fuzz` sweep is crash-safe and resumable:\n\
         every cell commits to an append-only CRC-checked log under it,\n\
         and `--resume` replays the log to continue a killed run with a\n\
         byte-identical final report. Either way a cell whose check\n\
         panics is quarantined, not fatal.\n\n\
         `selftest obs` asserts the observability plane's disabled-overhead\n\
         budget (<3%); `explain <dir> [<min-bundles>]` validates explain\n\
         bundles, `events --canonical-diff <a> <b>` compares two streams'\n\
         deterministic content. `selftest scale` takes no argument: it times\n\
         the batched engine against the per-state loop and the 64- against\n\
         the 256-server check, in process.\n\n\
         `--events-out` streams events (cells, findings, sweep\n\
         snapshots) as JSON lines while the run is live; `report` validates\n\
         them (plus an optional --telemetry-out file, whose self time per\n\
         span stack it draws as an SVG flame view) and renders one\n\
         self-contained HTML dashboard.\n\n\
         `--torn-seed` tears crash victims' multi-block writes at points\n\
         drawn from the seed.\n\n\
         Environment:\n{}\n\
         The configuration file uses `key = value` lines; a cluster key it\n\
         omits keeps the profile's value (quick, or Table 2 with --paper):\n{}",
        selftest::PLANES,
        env_table,
        Params::quick().render_config(&CheckConfig::paper_default())
    );
    std::process::exit(2);
}

/// Parse one `fuzz` flag into `opts`; returns `false` when `a` is not
/// one of them so the caller can try the observability set.
fn parse_fuzz_flag(opts: &mut FuzzOptions, a: &str, value: &mut dyn FnMut(&str) -> String) -> bool {
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
        "--paper" => opts.paper = true,
        "--state-dir" => opts.state_dir = Some(value("--state-dir")),
        "--resume" => opts.resume = true,
        _ => return false,
    }
    true
}

/// The `fuzz` subcommand: one bounded black-box sweep over the
/// generated-workload corpus, crash-safe and resumable when it has a
/// state dir. Stdout carries exactly the canonical report so CI can
/// diff runs (resume accounting goes to stderr with everything else, so
/// a resumed run diffs clean against an uninterrupted one).
fn run_sweep(args: &[String]) -> ! {
    let mut opts = FuzzOptions::pr_tier();
    let mut telemetry_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(format_args!("{what} needs a value")))
        };
        if parse_fuzz_flag(&mut opts, a, &mut value)
            || parse_obs_flag(&mut telemetry_out, a, &mut value)
        {
            continue;
        }
        match a.as_str() {
            "--help" | "-h" => usage(),
            other => {
                pc_rt::pc_error!("unknown fuzz argument: {other}");
                usage();
            }
        }
    }
    let start = std::time::Instant::now();
    let report = run_campaign(&opts).unwrap_or_else(|e| die(format_args!("{e}")));
    let secs = start.elapsed().as_secs_f64();
    finish_obs(telemetry_out.as_deref());
    print!("{}", report.corpus.canonical_report());
    pc_rt::pc_info!(
        "fuzz: {} workloads, {}/{} cells this run ({} resumed, {} quarantined) \
         in {:.1}s ({:.1} cells/s), {} findings, {} bundles, state dir: {}",
        report.workloads,
        report.cells_run,
        report.total_cells,
        report.resumed_cells,
        report.quarantined,
        secs,
        report.cells_run as f64 / secs.max(1e-9),
        report.corpus.finding_count(),
        report.bundles,
        opts.state_dir.as_deref().unwrap_or("none"),
    );
    std::process::exit(0);
}

/// Read the artifact at `path` with its format's reader. A file the
/// reader rejects is a failed run (exit 1, one line naming the file), not
/// a usage error.
fn read_artifact<T>(path: &str, read: impl Fn(&str) -> Result<T, String>) -> T {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(format_args!("cannot read {path}: {e}")));
    read(&text).unwrap_or_else(|e| {
        pc_rt::pc_error!("{path}: {e}");
        std::process::exit(1);
    })
}

/// The `report` subcommand: read back a run's artifacts — the
/// `--events-out` stream and an optional `--telemetry-out` trace — each
/// strictly, by the module that writes it, and fold them into one
/// self-contained HTML dashboard.
fn run_report(args: &[String]) -> ! {
    let mut events_path: Option<String> = None;
    let mut telemetry_path: Option<String> = None;
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
            "--out" => out_path = prepare_out(OutTarget::File, a, value(a)),
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
    let events = read_artifact(&events_path, stream::read_stream).events;
    let trace = telemetry_path.map(|p| read_artifact(&p, read_trace));
    let html = render_dashboard(&events, trace.as_ref());
    let bytes = html.len();
    write_out(&out_path, html);
    println!("dashboard written to {out_path} ({bytes} bytes from {events_path})");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some((sub, rest)) = args.split_first() {
        match sub.as_str() {
            "fuzz" => run_sweep(rest),
            "report" => run_report(rest),
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
    let mut torn_seed = None;
    let mut explain_out: Option<String> = None;
    let mut telemetry_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(format_args!("{what} needs a value")))
        };
        if parse_obs_flag(&mut telemetry_out, a, &mut value) {
            continue;
        }
        match a.as_str() {
            "--fs" => fs_arg = Some(value("--fs")),
            "--program" => program_arg = Some(value("--program")),
            "--config" => config_path = Some(value("--config")),
            "--dump-trace" => dump_trace = Some(prepare_out(OutTarget::File, a, value(a))),
            "--paper" => paper = true,
            "--torn-seed" => {
                torn_seed = Some(
                    (value(a).parse())
                        .unwrap_or_else(|_| die(format_args!("--torn-seed must be a number"))),
                )
            }
            "--explain-out" => explain_out = Some(prepare_out(OutTarget::Dir, a, value(a))),
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
    // Outermost span: everything from configuration to the last verdict
    // lands under it, so the emitted timeline covers the full run.
    let cli_span = pc_rt::obs::span_cat("cli.run", "cli");

    let profile = if paper {
        Params::paper()
    } else {
        Params::quick()
    };
    let (params, mut cfg) = match config_path {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| die(format_args!("cannot read {path}: {e}")));
            profile
                .configure(&text)
                .unwrap_or_else(|e| die(format_args!("bad configuration {path}: {e}")))
        }
        None => (profile, CheckConfig::paper_default()),
    };
    cfg.explain = explain_out.is_some();
    cfg.torn_seed = torn_seed;

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
        // The first (program, fs) cell's trace, as the Figure 9 listing.
        let stack = programs[0].run(systems[0], &params);
        write_out(path, stack.rec.render());
        println!(
            "trace of {} on {} written to {path} ({} events)",
            programs[0].name(),
            systems[0].name(),
            stack.rec.len()
        );
    }

    let mut total_bugs = 0usize;
    let mut total_bundles = 0usize;
    for &program in &programs {
        for &fs in &systems {
            let cell = run_program_swept(program, fs, &params, &cfg);
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
                    write_bundle(dir, &stem, e, &context).unwrap_or_else(|e| {
                        pc_rt::pc_error!("{e}");
                        std::process::exit(1);
                    });
                    total_bundles += 1;
                }
            }
        }
    }
    println!("\n{total_bugs} unique crash-consistency bug(s) reported.");
    if let Some(dir) = &explain_out {
        println!("{total_bundles} explain bundle(s) written to {dir}/ (.md + .dot each).");
    }
    drop(cli_span);
    finish_obs(telemetry_out.as_deref());
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
