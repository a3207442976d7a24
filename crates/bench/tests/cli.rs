//! The folded subcommands, driven through the one binary: exit codes
//! and the verdicts `scripts/verify.sh` greps for.

use pc_rt::json::Json;
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
fn unknown_selftest_planes_are_usage_errors_that_list_the_planes() {
    let bad = paracrash(&["selftest", "nonsense"]);
    assert_eq!(bad.status.code(), Some(2));
    let err = String::from_utf8_lossy(&bad.stderr);
    assert!(
        err.contains("obs|explain|events|scale"),
        "plane list missing from: {err}"
    );
}

/// The sweep's progress meter is the logger's `info` level: a line per
/// half second and one after the last cell at `PC_LOG=info`, none at the
/// default level.
#[test]
fn pc_log_info_turns_the_sweep_progress_meter_on() {
    let sweep = |level: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_paracrash"));
        cmd.args(["fuzz", "--sample", "3", "--fs", "BeeGFS"]);
        if let Some(level) = level {
            cmd.env("PC_LOG", level);
        }
        let out = cmd.output().expect("paracrash runs");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8_lossy(&out.stderr).to_string()
    };
    let info = sweep(Some("info"));
    assert!(info.contains("[info] fuzz: 3/3 cells (100%) | "), "{info}");
    let quiet = sweep(None);
    assert!(!quiet.contains("[info]"), "{quiet}");
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
/// scale`, the bare spellings of the folded overhead budgets (`explain`'s
/// among them), the artifact validators `report` replaced, `selftest
/// durable` (a property test of `pc_rt::durable` now), `selftest faults`
/// (there is no delivery-fault plane to budget), `--fail-fast` and the
/// profile file's flags (the telemetry file holds the stacks) are
/// usage errors, and the usage text no longer offers them, nor the
/// test hooks and the progress switch that were variables.
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
        &["selftest", "telemetry", "trace.json"],
        &["selftest", "events", "events.jsonl"],
        &["selftest", "events", "--html", "report.html"],
        &["selftest", "prof", "run.folded"],
        &["selftest", "explain"],
        &["selftest", "durable"],
        &["selftest", "durable", "7", "64"],
        &["selftest", "faults"],
        &["--fs", "ext4", "--program", "ARVR", "--fail-fast"],
        &["--fs", "ext4", "--program", "ARVR", "--profile-out", "p"],
        &["fuzz", "--profile-out", "p"],
        &["report", "--events", "e", "--profile", "p"],
        &["--fs", "ext4", "--program", "ARVR", "--faults", "chaos"],
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
    assert!(!text.contains("--fail-fast"), "{text}");
    assert!(!text.contains("durable"), "{text}");
    assert!(
        !text.contains("obs|faults") && !text.contains("drop="),
        "{text}"
    );
    // Five settings, and no test hook or progress switch among them.
    let mut named: Vec<&str> = text
        .split(|c: char| !(c.is_ascii_uppercase() || c == '_'))
        .filter(|word| word.starts_with("PC_"))
        .collect();
    named.sort_unstable();
    named.dedup();
    let expected = [
        "PC_LOG",
        "PC_PROPTEST_CASES",
        "PC_PROPTEST_SEED",
        "PC_THREADS",
        "PC_TRACE",
    ];
    assert_eq!(named, expected, "{text}");
}

/// A `--config` file's cluster keys override the profile, with `--paper`
/// or without; a key the file omits keeps the profile's value.
#[test]
fn config_file_cluster_keys_override_the_profile() {
    let dir = scratch("config");
    let conf = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    };
    // The cell's first line counts its crash states.
    let header = |args: &[&str]| {
        let cell = ["--fs", "BeeGFS", "--program", "ARVR"];
        let out = paracrash(&[&cell[..], args].concat());
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        text.lines().next().unwrap_or_default().to_string()
    };
    let (quick, paper) = (header(&[]), header(&["--paper"]));
    let striped = conf("striped.conf", "stripe_size = 16\n");
    let k = conf("k.conf", "k = 1\n");
    assert!(quick.contains("(91 crash states"), "{quick}");
    assert!(header(&["--config", &striped]).contains("(151 crash states"));
    assert!(header(&["--paper", "--config", &striped]).contains("(151 crash states"));
    assert_eq!(header(&["--config", &k]), quick);
    assert_eq!(header(&["--paper", "--config", &k]), paper);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A value flag at the end of the line is a usage error naming the flag,
/// not a run that silently drops the flag.
#[test]
fn a_missing_flag_value_is_a_usage_error() {
    for flag in ["--explain-out", "--torn-seed"] {
        let out = paracrash(&["--fs", "BeeGFS", "--program", "ARVR", flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("{flag} needs a value")), "{err}");
    }
}

/// Torn writes are the one fault, set by one integer: `--torn-seed 0`
/// on GPFS/ARVR, where a torn block write exposes one more bug than the
/// clean run, and a seed that is not a number is a usage error naming
/// the flag.
#[test]
fn faults_is_torn_writes_only() {
    let cell =
        |args: &[&str]| paracrash(&[&["--fs", "GPFS", "--program", "ARVR"][..], args].concat());
    let (clean, torn) = (cell(&[]), cell(&["--torn-seed", "0"]));
    assert_eq!(torn.status.code(), Some(1), "{torn:?}");
    assert_ne!(torn.stdout, clean.stdout);
    for seed in ["seven", "-1", "torn=1"] {
        let out = cell(&["--torn-seed", seed]);
        assert_eq!(out.status.code(), Some(2), "{seed}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--torn-seed must be a number"), "{err}");
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
/// allocation accounting. The summary runs no explain pass of its own:
/// only `--explain-out` adds explain rows and `pinpoint:` lines.
#[test]
fn allocating_before_the_first_telemetry_check_is_safe_under_pc_trace() {
    let summary = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_paracrash"))
            .args(args)
            .env("PC_TRACE", "summary")
            .output()
            .expect("paracrash runs");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.code(), err)
    };
    let (code, err) = summary(&["--fs", "ext4", "--program", "ARVR"]);
    assert_eq!(code, Some(0), "{err}");
    assert!(err.contains("telemetry summary"), "{err}");
    assert!(err.contains("check_stack"), "{err}");
    assert!(err.contains("alloc total"), "{err}");

    // BeeGFS/ARVR finds two bugs, so the cell exits 1.
    let cell = ["--fs", "BeeGFS", "--program", "ARVR"];
    let (code, err) = summary(&cell);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("alloc total"), "{err}");
    for absent in ["check.explain", "explain.", "pinpoint:"] {
        assert!(!err.contains(absent), "{absent}: {err}");
    }
    let dir = scratch("pinpoint");
    let explained = [&cell[..], &["--explain-out", dir.to_str().unwrap()]].concat();
    let (code, err) = summary(&explained);
    assert_eq!(code, Some(1), "{err}");
    assert_eq!(err.matches("\n  pinpoint: ").count(), 2, "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The committed Figure 9.
const FIG9: &str = include_str!("../../../results/fig9.txt");

/// The committed Figure 9 traces are what the models emit today, line
/// for line (RPC labels, server ids, LBAs, event order), and so are the
/// committed quick-profile Figures 10 and 11, to the last cost-model
/// digit.
#[test]
fn fig9_matches_the_committed_traces() {
    for (figure, committed) in [
        ("fig9", FIG9),
        ("fig10", include_str!("../../../results/fig10_quick.txt")),
        ("fig11", include_str!("../../../results/fig11_quick.txt")),
    ] {
        let out = paracrash(&[figure]);
        assert!(out.status.success(), "{figure}: {out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), committed, "{figure}");
    }
}

/// `--dump-trace` writes the Figure 9 listing of its cell: for
/// BeeGFS/ARVR, exactly that section of the committed figure. Like every
/// other output path, it creates its missing parent directories.
#[test]
fn dump_trace_writes_the_fig9_listing() {
    let dir = scratch("dump-trace");
    let file = dir.join("nested/x/arvr.txt");
    let path = file.to_str().unwrap();
    let out = paracrash(&["--fs", "BeeGFS", "--program", "ARVR", "--dump-trace", path]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let (_, rest) = FIG9
        .split_once("(beegfs) ARVR trace on BeeGFS\n\n")
        .expect("Figure 9 shows the BeeGFS trace");
    let listing = &rest[..=rest.find("\n\n").expect("a blank line ends the listing")];
    assert_eq!(std::fs::read_to_string(&file).unwrap(), listing);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `report --out` goes through the launch-time output check every other
/// output path takes: a target whose parent directories are missing gets
/// them, and the dashboard renders there.
#[test]
fn report_out_creates_missing_parent_directories() {
    let dir = scratch("nested-out");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let events = path("events.jsonl");
    let sweep = paracrash(&["fuzz", "--sample", "1", "--events-out", &events]);
    assert!(sweep.status.success(), "{sweep:?}");
    let out = path("nested/dir/r.html");
    let report = paracrash(&["report", "--events", &events, "--out", &out]);
    assert!(report.status.success(), "{report:?}");
    let html = std::fs::read_to_string(&out).unwrap();
    assert!(html.contains("data-metric="), "{html}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Member `key` of JSON object `obj`, for editing.
fn member<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(fields) = obj else {
        panic!("no object holds {key}")
    };
    &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1
}

/// `report` is the validator of the two files a run writes: it renders
/// what the tool writes, and turns away with exit 1 and one line naming
/// the file each of them cut in half, and each made inconsistent in a way
/// the writer never is. `selftest explain` does the same for a bundle
/// directory, and `report` for a `--telemetry` file of another shape.
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
        "--explain-out",
        &path("explain"),
    ]);
    assert_eq!(cell.status.code(), Some(1), "{cell:?}");

    let good = [path("events.jsonl"), path("telemetry.json")];
    let report = |files: &[String]| {
        let out = path("report.html");
        let args = ["--events", "--telemetry"].iter().zip(files);
        let mut args: Vec<&str> = args
            .flat_map(|(flag, file)| [*flag, file.as_str()])
            .collect();
        args.extend(["--out", &out]);
        paracrash(&[&["report"][..], &args].concat())
    };
    let ok = report(&good);
    assert!(ok.status.success(), "{ok:?}");
    let html = std::fs::read_to_string(path("report.html")).unwrap();
    assert!(html.contains("data-metric=\"flame\""), "no flame panel");

    // Cut near the middle, right after a letter: inside a JSON string,
    // never where a shorter file would still be whole.
    let halve = |text: &str| {
        let mut cut = text.len() / 2;
        while !text.as_bytes()[cut - 1].is_ascii_alphabetic() {
            cut -= 1;
        }
        text[..cut].to_string()
    };
    let text = good.clone().map(|p| std::fs::read_to_string(p).unwrap());
    // The trailer claims more events than the stream holds.
    let (body, _) = text[0].trim_end().rsplit_once('\n').unwrap();
    let miscounted = format!("{body}\n{{\"schema_version\":3,\"published\":9999}}\n");
    // The spans reversed, the first three of them begin (`B`) events.
    let mut doc = Json::parse(&text[1]).unwrap();
    let Json::Arr(spans) = member(&mut doc, "traceEvents") else {
        panic!("traceEvents is an array")
    };
    spans.reverse();
    for span in spans.iter_mut().take(3) {
        *member(span, "ph") = Json::Str("B".into());
    }
    // The self-time stacks with an empty frame, a weightless stack, or
    // out of order.
    let stacks = |edit: fn(&mut [(String, Json)])| {
        let mut doc = Json::parse(&text[1]).unwrap();
        let Json::Obj(stacks) = member(member(&mut doc, "otherData"), "stacks") else {
            panic!("otherData.stacks is an object")
        };
        edit(stacks);
        doc.pretty()
    };
    let bad = [
        (0, halve(&text[0])),
        (1, halve(&text[1])),
        (0, miscounted),
        (1, doc.pretty()),
        (1, stacks(|s| s[0].0.push(';'))),
        (1, stacks(|s| s[0].1 = Json::Int(0))),
        (1, stacks(|s| s.reverse())),
    ];
    for (slot, content) in bad {
        let mut files = good.clone();
        files[slot] = path(&format!("bad-{slot}"));
        std::fs::write(&files[slot], &content).unwrap();
        let out = report(&files);
        assert_eq!(out.status.code(), Some(1), "{}: {out:?}", files[slot]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(err.contains(&files[slot]), "{err}");
    }

    // explain validates a directory: truncate one bundle's graph in place.
    let explain = path("explain");
    let ok = paracrash(&["selftest", "explain", &explain, "1"]);
    assert!(ok.status.success(), "{ok:?}");
    let bundle = std::fs::read_dir(&explain)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "dot"))
        .expect("a bundle was written");
    let bundle_text = std::fs::read_to_string(&bundle).unwrap();
    std::fs::write(&bundle, halve(&bundle_text)).unwrap();
    let bad = paracrash(&["selftest", "explain", &explain, "1"]);
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");
    assert!(String::from_utf8_lossy(&bad.stderr).contains("selftest: FAIL"));

    // A `--telemetry` file that is not a trace-event file is turned away
    // instead of rendering an empty flame panel.
    std::fs::write(path("plain.json"), "{\"schema_version\":3,\"spans\":[]}\n").unwrap();
    let bad = report(&[good[0].clone(), path("plain.json")]);
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");
    let err = String::from_utf8_lossy(&bad.stderr);
    assert!(err.contains("no traceEvents"), "{err}");

    std::fs::remove_dir_all(&dir).unwrap();
}
