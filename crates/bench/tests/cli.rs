//! The folded subcommands, driven through the one binary: exit codes
//! and the verdicts `scripts/verify.sh` greps for.

use std::path::PathBuf;
use std::process::{Command, Output};

fn paracrash(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paracrash"))
        .args(args)
        .output()
        .expect("paracrash runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pc-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn selftest_durable_passes_and_unknown_planes_are_usage_errors() {
    let ok = paracrash(&["selftest", "durable"]);
    assert!(ok.status.success(), "{ok:?}");
    assert!(String::from_utf8_lossy(&ok.stdout).contains("64 torn-tail recovery cases"));

    let bad = paracrash(&["selftest", "nonsense"]);
    assert_eq!(bad.status.code(), Some(2));
    let err = String::from_utf8_lossy(&bad.stderr);
    assert!(
        err.contains("obs|faults|explain|telemetry|events|prof|durable|scale"),
        "plane list missing from: {err}"
    );
}

#[test]
fn table3_reproduces_all_fifteen() {
    let out = paracrash(&["table3"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("REPRODUCED").count(), 15, "{text}");
    assert!(!text.contains("missing"));
}

/// The legacy perf path and the run-history ledger are gone, not
/// ignored: their subcommands and flags, the file argument of `selftest
/// scale` and the bare spellings of the folded overhead budgets are
/// usage errors, and the usage text no longer offers them.
#[test]
fn removed_bench_surfaces_are_usage_errors() {
    for args in [
        &["bench"][..],
        &["report", "--bench", "x.json"],
        &["selftest", "scale", "some.json"],
        &["history", "show"],
        &["--fs", "ext4", "--program", "ARVR", "--history-dir", "d"],
        &["fuzz", "--history-dir", "d"],
        &["fuzz", "--band", "2"],
        &["fuzz", "--checkpoint-every", "4"],
        &["campaign"],
        &["campaign", "--state-dir", "d"],
        &["fuzz", "--cell-timeout", "1"],
        &["fuzz", "--max-retries", "1"],
        &["selftest", "telemetry"],
        &["selftest", "stream"],
        &["selftest", "prof"],
    ] {
        let out = paracrash(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: paracrash"), "{args:?}: {err}");
    }
    let help = paracrash(&["--help"]);
    assert_eq!(help.status.code(), Some(2));
    let text = String::from_utf8_lossy(&help.stderr);
    assert!(text.contains("usage: paracrash"), "{text}");
    assert!(!text.contains("bench"), "{text}");
    assert!(!text.contains("history"), "{text}");
    assert!(!text.contains("checkpoint"), "{text}");
    assert!(!text.contains("campaign-state"), "{text}");
    assert!(!text.contains("--cell-timeout") && !text.contains("--max-retries"));
    for (name, _) in pc_rt::env::VARS {
        assert!(text.contains(name), "{name} missing from: {text}");
    }
}

/// A value flag at the end of the line is a usage error naming the flag,
/// not a run that silently drops the flag.
#[test]
fn a_missing_flag_value_is_a_usage_error() {
    for flag in ["--explain-out", "--faults"] {
        let out = paracrash(&["--fs", "BeeGFS", "--program", "ARVR", flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("{flag} needs a value")), "{err}");
    }
}

/// The PR-tier sweep is quiet at `PC_LOG=warn`: nothing it logs there is
/// a false alarm about the corpus's own mix of cell sizes.
#[test]
fn pr_tier_fuzz_writes_no_warning() {
    let out = Command::new(env!("CARGO_BIN_EXE_paracrash"))
        .arg("fuzz")
        .env("PC_LOG", "warn")
        .output()
        .expect("paracrash runs");
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("[warn]"), "{err}");
}

/// `PC_TRACE` is read by the first `enabled()` check, not by the
/// counting allocator: the process allocates (its arguments, at least)
/// long before that, and an allocator that ran the bootstrap — which
/// itself allocates — would recurse. The run completes, and the
/// bootstrap it did run switched on the registry, the summary tables and
/// allocation accounting.
#[test]
fn allocating_before_the_first_telemetry_check_is_safe_under_pc_trace() {
    let out = Command::new(env!("CARGO_BIN_EXE_paracrash"))
        .args(["--fs", "ext4", "--program", "ARVR"])
        .env("PC_TRACE", "summary")
        .output()
        .expect("paracrash runs");
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("telemetry summary"), "{err}");
    assert!(err.contains("check_stack"), "{err}");
    assert!(err.contains("alloc total"), "{err}");
}

/// The committed Figure 9 traces are what the models emit today, line
/// for line (RPC labels, server ids, LBAs, event order).
#[test]
fn fig9_matches_the_committed_traces() {
    let out = paracrash(&["fig9"]);
    assert!(out.status.success(), "{out:?}");
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/fig9.txt");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        std::fs::read_to_string(committed).unwrap()
    );
}

/// Each file validator accepts the artifact the tool writes and rejects
/// the same artifact cut in half with exit 1 (a verdict, not a usage
/// error or a panic); so does `report` with a foreign `--telemetry`.
#[test]
fn file_validators_reject_truncated_artifacts() {
    let dir = scratch("artifacts");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();

    // One small sweep and one single-cell check write every artifact
    // kind (BeeGFS/ARVR finds bugs, so that cell exits 1 by design).
    let sweep = paracrash(&[
        "fuzz",
        "--sample",
        "6",
        "--fs",
        "BeeGFS",
        "--events-out",
        &path("events.jsonl"),
    ]);
    assert!(sweep.status.success(), "{sweep:?}");
    let cell = paracrash(&[
        "--fs",
        "BeeGFS",
        "--program",
        "ARVR",
        "--telemetry-out",
        &path("telemetry.json"),
        "--profile-out",
        &path("run.folded"),
        "--explain-out",
        &path("explain"),
    ]);
    assert_eq!(cell.status.code(), Some(1), "{cell:?}");

    // Cut near the middle, but never at a line boundary: a file that
    // ends after a whole line is a shorter valid artifact, not a torn one.
    let halve = |from: &str, to: &str| {
        let bytes = std::fs::read(from).unwrap();
        let mut cut = bytes.len() / 2;
        while bytes[cut] == b'\n' || bytes[cut - 1] == b'\n' {
            cut -= 1;
        }
        std::fs::write(to, &bytes[..cut]).unwrap();
    };
    let cases = [
        ("telemetry", path("telemetry.json")),
        ("events", path("events.jsonl")),
        ("prof", path("run.folded")),
    ];
    for (plane, good) in &cases {
        let run = |file: &str| paracrash(&["selftest", plane, file]);
        let ok = run(good);
        assert!(ok.status.success(), "selftest {plane} {good}: {ok:?}");
        let cut = path("cut");
        halve(good, &cut);
        let bad = run(&cut);
        assert_eq!(
            bad.status.code(),
            Some(1),
            "selftest {plane} {cut}: {bad:?}"
        );
        assert!(String::from_utf8_lossy(&bad.stderr).contains("selftest: FAIL"));
    }

    // explain validates a directory: truncate one bundle's JSON in place.
    let explain = path("explain");
    let ok = paracrash(&["selftest", "explain", &explain, "1"]);
    assert!(ok.status.success(), "{ok:?}");
    let bundle = std::fs::read_dir(&explain)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("a bundle was written");
    halve(bundle.to_str().unwrap(), bundle.to_str().unwrap());
    let bad = paracrash(&["selftest", "explain", &explain, "1"]);
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");

    // `report` renders the three artifacts, and turns away a
    // `--telemetry` file that is not a trace-event file with exit 1
    // instead of rendering empty stage and allocation panels.
    let report = |telemetry: &str| {
        paracrash(&[
            "report",
            "--events",
            &path("events.jsonl"),
            "--telemetry",
            telemetry,
            "--profile",
            &path("run.folded"),
            "--out",
            &path("report.html"),
        ])
    };
    let ok = report(&path("telemetry.json"));
    assert!(ok.status.success(), "{ok:?}");
    let html = std::fs::read_to_string(path("report.html")).unwrap();
    for metric in ["stage-breakdown", "flame-table", "alloc-table"] {
        assert!(
            html.contains(&format!("data-metric=\"{metric}\"")),
            "{metric}"
        );
    }
    std::fs::write(path("plain.json"), "{\"schema_version\":2,\"spans\":[]}\n").unwrap();
    let bad = report(&path("plain.json"));
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");
    let err = String::from_utf8_lossy(&bad.stderr);
    assert!(err.contains("no traceEvents"), "{err}");

    std::fs::remove_dir_all(&dir).unwrap();
}
