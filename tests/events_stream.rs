//! Integration tests for the `pc_rt::obs::stream` event stream: a caught
//! panic leaves no marker, the disabled fast path, and the determinism
//! contract (enabling the stream must not perturb the checker's
//! canonical output).
//!
//! The stream is process-global (one sequence counter, one sink), so
//! every test here serializes on a lock and restores the disabled
//! default before releasing it.

use paracrash::{check_stack, CheckConfig, FuzzCorpus};
use pc_rt::obs::stream;
use std::sync::Mutex;
use workloads::{FsKind, Params, Program};

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// A panic the sweep catches (a quarantined cell) is not a crash: the
/// stream carries on and closes with every event counted, no marker line
/// in between.
#[test]
fn a_caught_panic_leaves_no_marker_before_the_trailer() {
    let _guard = TEST_LOCK.lock().unwrap();
    let path = std::env::temp_dir().join("pc-events-panic-test.jsonl");
    let path_str = path.to_str().unwrap().to_string();
    stream::set_sink(&path_str).expect("sink opens");
    stream::emit(stream::EventKind::Cell, "w0@BeeGFS/data", 42, "bugs=0");
    let caught = std::panic::catch_unwind(|| panic!("simulated quarantined cell"));
    assert!(caught.is_err());
    stream::emit(stream::EventKind::Finding, "BeeGFS/data", 1, "sig [PfsBug]");
    stream::close();
    stream::set_enabled(false);
    pc_rt::obs::set_enabled(false);

    let text = std::fs::read_to_string(&path).expect("stream exists");
    std::fs::remove_file(&path).ok();
    assert_eq!(
        text.lines().count(),
        4,
        "header, two events, trailer:\n{text}"
    );
    let read = stream::read_stream(&text).expect("a closed, valid stream");
    assert_eq!(read.published, Some(read.events.len() as u64));
    let kinds: Vec<_> = read.events.iter().map(|e| e.kind).collect();
    assert_eq!(kinds, [stream::EventKind::Cell, stream::EventKind::Finding]);
    assert_eq!(
        (read.events[0].name.as_str(), read.events[0].value),
        ("w0@BeeGFS/data", 42)
    );
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
