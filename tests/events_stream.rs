//! Integration tests for the `pc_rt::obs::stream` event stream: the
//! panic-hook crash dump, the disabled fast path, and the determinism
//! contract (enabling the stream must not perturb the checker's
//! canonical output).
//!
//! The stream is process-global (one sequence counter, one sink), so
//! every test here serializes on a lock and restores the disabled
//! default before releasing it.

use paracrash::{check_stack, CheckConfig, FuzzCorpus};
use pc_rt::json::Json;
use pc_rt::obs::stream;
use std::sync::Mutex;
use workloads::{FsKind, Params, Program};

static TEST_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn panic_flush_leaves_a_valid_json_lines_crash_dump() {
    let _guard = TEST_LOCK.lock().unwrap();
    let path = std::env::temp_dir().join("pc-events-panic-test.jsonl");
    let path_str = path.to_str().unwrap().to_string();
    stream::set_sink(&path_str).expect("sink opens");
    stream::emit(stream::EventKind::Cell, "w0@BeeGFS/data", 42, "bugs=0");
    stream::emit(stream::EventKind::Finding, "BeeGFS/data", 1, "sig [PfsBug]");
    let caught = std::panic::catch_unwind(|| panic!("simulated campaign crash"));
    assert!(caught.is_err());
    stream::close();
    stream::set_enabled(false);
    pc_rt::obs::set_enabled(false);

    let text = std::fs::read_to_string(&path).expect("crash dump exists");
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(lines.len() >= 4, "header + 2 events + panic marker");
    let mut saw_panic = false;
    let mut saw_cell = false;
    for line in &lines {
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        if doc.get("meta").and_then(Json::as_str) == Some("panic") {
            saw_panic = true;
        }
        if doc.get("kind").and_then(Json::as_str) == Some("cell") {
            saw_cell = true;
            assert_eq!(
                doc.get("name").and_then(Json::as_str),
                Some("w0@BeeGFS/data")
            );
            assert_eq!(doc.get("value").and_then(Json::as_int), Some(42));
        }
    }
    assert!(saw_cell, "flushed events precede the marker");
    assert!(saw_panic, "the hook stamps a panic marker line");
    // The marker is stamped by the hook, before the orderly trailer.
    let panic_idx = lines
        .iter()
        .position(|l| l.contains("\"meta\":\"panic\""))
        .unwrap();
    assert!(panic_idx > 0 && panic_idx < lines.len() - 1);
}

#[test]
fn disabled_stream_publishes_nothing() {
    let _guard = TEST_LOCK.lock().unwrap();
    stream::set_enabled(false);
    let before = stream::published();
    for i in 0..1000u64 {
        stream::emit(stream::EventKind::Cell, "ghost", i, "never seen");
    }
    assert_eq!(
        stream::published(),
        before,
        "a disabled emit must be a bail-out, not a reservation"
    );
}

#[test]
fn canonical_report_is_identical_with_stream_on_and_off() {
    let _guard = TEST_LOCK.lock().unwrap();
    let params = Params::quick();
    let cfg = CheckConfig::paper_default();
    let run = |stream_on: bool| {
        let mut corpus = FuzzCorpus::new();
        if stream_on {
            stream::set_enabled(true);
            pc_rt::obs::set_enabled(true);
        }
        for program in [Program::Arvr, Program::Wal] {
            let stack = program.run(FsKind::BeeGfs, &params);
            let factory = FsKind::BeeGfs.factory(&params);
            let outcome = check_stack(&stack, &factory, &cfg);
            corpus.record_cell(program.name(), "BeeGFS", "data", &outcome);
        }
        if stream_on {
            stream::set_enabled(false);
            pc_rt::obs::set_enabled(false);
            pc_rt::obs::reset();
        }
        corpus.canonical_report()
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(
        off, on,
        "the event stream must observe the fold, never perturb it"
    );
}
