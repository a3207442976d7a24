//! `pc-benchmark` — the repo's one repeatable benchmark.
//!
//! ```text
//! pc-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//! pc-benchmark [--seed N] [--repeat N] [--smoke] [--bless]      every workload
//! pc-benchmark check BASE.json[,…] CHANGE.json[,…]
//! ```
//!
//! `benchmark/run.sh` builds this offline and forwards its arguments;
//! `benchmark/README.md` says what the workloads and metrics mean.

mod json;
mod results;
mod run;
mod speed;
mod stats;
mod trace;
mod workload;

use json::Json;
use run::{Budget, RunOpts, RunResult};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::Workload;

/// Exit code for a refused or malformed invocation.
const USAGE: u8 = 2;

/// The benchmark's own directory, relative to the repo root `run.sh`
/// runs from: `expected/` is read from it, `out/` written under it.
const DIR: &str = "benchmark";

fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    /// Set up, print the set-up time and exit: the child the untraced
    /// run repeats its cold set-up in.
    setup_only: bool,
    smoke: bool,
    bless: bool,
    detail: bool,
    threads: Option<usize>,
    repeat: Option<usize>,
    build_s: Option<f64>,
    check: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    fn value<T: std::str::FromStr>(
        flag: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<T, String> {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("bad value for {flag}: {v}"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "check" if args.check.is_empty() => {
                args.check = it.by_ref().cloned().collect();
                if args.check.len() != 2 {
                    return Err("check takes BASE.json[,…] CHANGE.json[,…]".into());
                }
            }
            "--workload" => args.workload = Some(value(arg, &mut it)?),
            "--seed" => args.seed = Some(value(arg, &mut it)?),
            "--seconds" => args.seconds = Some(value(arg, &mut it)?),
            "--trace" => args.trace = Some(value::<u8>(arg, &mut it)? != 0),
            "--setup-only" => args.setup_only = true,
            "--threads" => args.threads = Some(value(arg, &mut it)?),
            "--repeat" => args.repeat = Some(value(arg, &mut it)?),
            "--build-s" => args.build_s = Some(value(arg, &mut it)?),
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            "--detail" => args.detail = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--seconds must be positive".into());
    }
    if args.workload.is_none() && (args.seconds.is_some() || args.trace.is_some()) {
        // Every workload runs its fixed pass count, untraced then traced.
        return Err("--seconds and --trace need --workload".into());
    }
    if args.workload.is_none() && args.setup_only {
        return Err("--setup-only needs --workload".into());
    }
    if args.threads == Some(0) || args.repeat == Some(0) {
        return Err("--threads and --repeat must be positive".into());
    }
    Ok(args)
}

/// Run hygiene: refuse conditions under which the numbers would not
/// mean what the ledger says, pin `PC_THREADS`, and scrub every other
/// `PC_*` variable (`PC_TRACE`, `PC_NAIVE_*`, `PC_CHAOS_SEED`,
/// `PC_FAULT_RATE`, `PC_PROFILE`, `PC_BENCH_*`, …) so no plane or
/// oracle engine is switched on from outside. Returns the thread count
/// and the names scrubbed.
fn hygiene(args: &Args) -> Result<(usize, Vec<String>), String> {
    if cfg!(debug_assertions) {
        return Err(
            "refusing to measure a debug build (use run.sh, or cargo run --release)".into(),
        );
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < 2 {
        return Err(format!(
            "refusing to run on {nproc} core: the checker's pool needs two"
        ));
    }
    let threads = args.threads.unwrap_or(nproc.min(4));
    if let Ok(set) = std::env::var(pc_rt::pool::THREADS_ENV) {
        if args.threads.is_none() && set.trim() != threads.to_string() {
            return Err(format!(
                "PC_THREADS={set} is set but the benchmark runs with {threads}; \
                 unset it or pass --threads"
            ));
        }
    }
    let mut scrubbed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PC_") && k != pc_rt::pool::THREADS_ENV)
        .collect();
    scrubbed.sort();
    // Still single-threaded here: nothing reads the environment yet.
    for name in &scrubbed {
        std::env::remove_var(name);
    }
    std::env::set_var(pc_rt::pool::THREADS_ENV, threads.to_string());
    Ok((threads, scrubbed))
}

/// Every reading by name with its unit, then the notes.
fn print_readings(result: &RunResult) {
    for (name, value, unit) in &result.metrics {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    for note in &result.notes {
        println!("# {note}");
    }
}

/// One workload in this process; the last line printed is the result
/// object of the benchmark contract.
fn single(args: &Args, name: &str, started: Instant) -> ExitCode {
    let Some(workload) = Workload::parse(name) else {
        eprintln!("unknown workload {name}");
        return ExitCode::from(USAGE);
    };
    let opts = RunOpts {
        workload,
        seed: args.seed.unwrap_or(42),
        budget: args
            .seconds
            .map_or(Budget::Passes(workload.nominal_passes()), Budget::Seconds),
        trace: args.trace == Some(true),
        smoke: args.smoke,
        bless: args.bless,
        detail: args.detail,
        dir: PathBuf::from(DIR),
    };
    if args.setup_only {
        return match run::setup_only(&opts, started) {
            Ok(setup_s) => {
                println!("{setup_s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    match run::run(&opts, started) {
        Ok(result) => {
            print_readings(&result);
            println!("{}", result.to_json().compact());
            exit(result.correct())
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Run one workload in a child process, pass on the table it prints
/// and parse its result line.
fn child(
    args: &Args,
    workload: Workload,
    seed: u64,
    threads: usize,
    trace: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--detail"])
        .args(["--seed", &seed.to_string()])
        .args(["--threads", &threads.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.bless {
        cmd.arg("--bless");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or_else(|| {
        format!(
            "{}: child printed nothing ({})",
            workload.name(),
            output.status
        )
    })?;
    for line in lines {
        println!("  {line}");
    }
    Json::parse(last).map_err(|e| format!("{}: bad result line: {e}", workload.name()))
}

/// Every workload, each in its own child process: an untraced run for
/// the end-to-end numbers, then a traced run of the same inputs.
fn all(args: &Args, threads: usize, scrubbed: &[String]) -> ExitCode {
    let seed = args.seed.unwrap_or(42);
    let repeat = args.repeat.unwrap_or(1);
    let header = Json::obj([
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("cpu", Json::str(cpu_model())),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("PC_THREADS", Json::Num(threads as f64)),
        ("seed", Json::Num(seed as f64)),
        (
            "date",
            Json::str(command_line("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"])),
        ),
        ("build_s", args.build_s.map_or(Json::Null, Json::Num)),
        ("smoke", Json::Bool(args.smoke)),
        (
            "scrubbed_env",
            Json::Arr(scrubbed.iter().map(Json::str).collect()),
        ),
    ]);
    println!("{}", header.pretty());

    let mut ok = true;
    for set in 1..=repeat {
        let mut sets = Vec::new();
        for workload in Workload::ALL {
            println!("== {} (set {set}/{repeat}) ==", workload.name());
            let mut entry = Vec::new();
            let modes: &[(bool, &str)] = if args.bless {
                &[(false, "bless")]
            } else {
                &[(false, "end_to_end"), (true, "per_layer")]
            };
            for &(trace, key) in modes {
                match child(args, workload, seed, threads, trace) {
                    Ok(result) => {
                        ok &= result.get("correct") == Some(&Json::Bool(true));
                        for count in ["attempted", "failed"] {
                            if let Some(n) = result.get(count) {
                                entry.push((format!("{key}.{count}"), n.clone()));
                            }
                        }
                        entry.push((
                            key.to_string(),
                            result.get("metrics").cloned().unwrap_or(Json::Null),
                        ));
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        ok = false;
                    }
                }
            }
            sets.push((workload.name().to_string(), Json::Obj(entry)));
        }
        if args.bless {
            continue;
        }
        let doc = Json::obj([("header", header.clone()), ("workloads", Json::Obj(sets))]);
        let out = PathBuf::from(DIR).join("out");
        let name = if repeat == 1 {
            "results.json".to_string()
        } else {
            format!("results-{set}.json")
        };
        let path = out.join(name);
        match std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, doc.pretty())) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                ok = false;
            }
        }
    }
    if !ok {
        eprintln!("some cells failed or a child did not finish: see above");
    }
    exit(ok)
}

fn check(args: &Args) -> ExitCode {
    let load_side = |list: &str| -> Result<Vec<Json>, String> {
        list.split(',').map(results::load_results).collect()
    };
    let loaded = results::Spec::load(Path::new("BENCHMARK.json"))
        .and_then(|spec| Ok((spec, load_side(&args.check[0])?, load_side(&args.check[1])?)));
    match loaded {
        Ok((spec, base, change)) => {
            let (report, ok) = results::check(&spec, &base, &change);
            print!("{report}");
            exit(ok)
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(USAGE)
        }
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(USAGE);
        }
    };
    if !args.check.is_empty() {
        return check(&args);
    }
    let (threads, scrubbed) = match hygiene(&args) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(USAGE);
        }
    };
    match &args.workload {
        Some(name) => single(&args, name, started),
        None => all(&args, threads, &scrubbed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn contract_command_line_parses() {
        let args = parse_args(&argv(
            "--workload scale_256 --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("scale_256"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (Some(7), Some(10.0), Some(true))
        );
        let args = parse_args(&argv("check a.json,b.json c.json")).unwrap();
        assert_eq!(args.check, ["a.json,b.json", "c.json"]);
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        for bad in [
            "--seed",
            "--seed x",
            "--seconds 0",
            "--threads 0",
            // All-workloads mode runs fixed passes, untraced then traced.
            "--seconds 5",
            "--trace 1",
            "--setup-only",
            "--frobnicate",
            "check only-one.json",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// `--smoke` — one pass over the first two cells — untraced and
    /// traced: pins load and match, the corpus folds, every layer probe
    /// runs, the trace file is written.
    fn smoke(workload: Workload) {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        for trace in [false, true] {
            let opts = RunOpts {
                workload,
                seed: 42,
                budget: Budget::Passes(1),
                trace,
                smoke: true,
                bless: false,
                detail: false,
                dir: dir.clone(),
            };
            let result = run::run(&opts, Instant::now()).unwrap();
            assert!(result.correct(), "trace={trace}: {:?}", result.notes);
            let names: Vec<&str> = result.metrics.iter().map(|m| m.0.as_str()).collect();
            if trace {
                let listed: Vec<&str> = trace::LAYER_METRICS.iter().map(|m| m.0).collect();
                assert_eq!(names, listed);
                let file = dir.join(format!("out/trace-{}.jsonl", workload.name()));
                let text = std::fs::read_to_string(file).unwrap();
                assert!(text.lines().all(|l| Json::parse(l).is_ok()));
            } else {
                assert_eq!(names[0], "setup_s");
                assert!(
                    result.metrics.iter().all(|m| m.1 > 0.0),
                    "{:?}",
                    result.metrics
                );
            }
            assert_eq!(
                Json::parse(&result.to_json().compact()).unwrap(),
                result.to_json()
            );
        }
    }

    #[test]
    fn smoke_matrix_sweep() {
        smoke(Workload::MatrixSweep);
    }

    #[test]
    fn smoke_resize_split() {
        smoke(Workload::ResizeSplit);
    }

    #[test]
    fn smoke_fuzz_pr_tier() {
        smoke(Workload::FuzzPrTier);
    }

    #[test]
    fn smoke_scale_256() {
        smoke(Workload::Scale256);
    }
}
