//! Integration tests for the `pc_rt::obs` telemetry layer as wired
//! through the checker pipeline: span nesting, the Chrome-trace
//! serialization round-trip, a check that stays on one thread, and
//! cache-stats surfacing in `ExploreStats`.

use paracrash::telemetry::{chrome_trace, read_trace, render_summary};
use paracrash::{check_stack, CheckConfig};
use pc_rt::json::Json;
use std::sync::Mutex;
use workloads::{FsKind, Params, Program};

/// The obs registry is process-global; serialize every test that
/// enables/resets it so parallel test threads don't interleave.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with telemetry enabled on a fresh registry, returning the
/// resulting snapshot; always restores the disabled default.
fn with_telemetry<T>(f: impl FnOnce() -> T) -> (T, pc_rt::obs::TelemetrySnapshot) {
    pc_rt::obs::reset();
    pc_rt::obs::set_enabled(true);
    let out = f();
    let snap = pc_rt::obs::snapshot();
    pc_rt::obs::set_enabled(false);
    pc_rt::obs::reset();
    (out, snap)
}

fn counter(snap: &pc_rt::obs::TelemetrySnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn spans_nest_with_increasing_depth() {
    let _guard = TEST_LOCK.lock().unwrap();
    let ((), snap) = with_telemetry(|| {
        let outer = pc_rt::obs::span("outer");
        let inner = pc_rt::obs::span("inner");
        drop(inner);
        drop(outer);
    });
    assert_eq!(snap.spans.len(), 2);
    let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
    let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
    assert_eq!(outer.depth + 1, inner.depth);
    assert_eq!(outer.tid, inner.tid);
    // The inner span starts no earlier and ends no later than the outer.
    assert!(inner.start_ns >= outer.start_ns);
    assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
}

#[test]
fn disabled_telemetry_records_nothing() {
    let _guard = TEST_LOCK.lock().unwrap();
    pc_rt::obs::reset();
    pc_rt::obs::set_enabled(false);
    {
        let _s = pc_rt::obs::span("ghost");
        pc_rt::obs::count("ghost.ctr", 7);
    }
    let snap = pc_rt::obs::snapshot();
    assert!(snap.spans.is_empty());
    assert!(snap.counters.is_empty());
    assert_eq!(snap.ops, 0);
}

#[test]
fn chrome_trace_round_trips_with_monotonic_ts() {
    let _guard = TEST_LOCK.lock().unwrap();
    let ((), snap) = with_telemetry(|| {
        for _ in 0..3 {
            let _outer = pc_rt::obs::span_cat("work", "test");
            let _inner = pc_rt::obs::span("work.step");
        }
        pc_rt::obs::count("events", 3);
    });
    // The reader holds the file to the format: complete (`ph: "X"`)
    // events with a nondecreasing `ts`, the `otherData` members.
    let text = chrome_trace(&snap).pretty();
    read_trace(&text).expect("the trace reads back");
    // The file holds what the registry held: every span's exact
    // nanoseconds, the counters and the operation count.
    let file = Json::parse(&text).unwrap();
    let events = file.get("traceEvents").and_then(Json::as_arr).unwrap();
    let written: Vec<(&str, u64)> = (events.iter())
        .map(|e| {
            let dur_ns = e.get("args").and_then(|a| a.get("dur_ns")?.as_int());
            (
                e.get("name").and_then(Json::as_str).unwrap(),
                dur_ns.unwrap(),
            )
        })
        .collect();
    let held: Vec<(&str, u64)> = snap.spans.iter().map(|s| (s.name, s.dur_ns)).collect();
    assert_eq!(written, held);
    let other = file.get("otherData").unwrap();
    let events = other.get("counters").and_then(|c| c.get("events"));
    assert_eq!(events.and_then(Json::as_int), Some(3));
    assert_eq!(other.get("ops").and_then(Json::as_int), Some(snap.ops));
}

#[test]
fn check_stack_surfaces_cache_stats_and_stage_spans() {
    let _guard = TEST_LOCK.lock().unwrap();
    let params = Params::quick();
    let stack = Program::Arvr.run(FsKind::BeeGfs, &params);
    let factory = FsKind::BeeGfs.factory(&params);
    let cfg = CheckConfig::paper_default();
    let (outcome, snap) = with_telemetry(|| check_stack(&stack, &factory, &cfg));
    let summary = render_summary(&snap);

    // Satellite #2: the cache asymmetry fix — hits AND misses surface.
    // Every crash state looks up one list per layer the program uses.
    let (pfs, h5) = (outcome.stats.pfs_cache, outcome.stats.h5_cache);
    assert_eq!(pfs.hits + pfs.misses, outcome.stats.states_total);
    assert_eq!(h5.hits + h5.misses, 0, "ARVR does not use the library");
    assert_eq!(outcome.stats.legal_replays, pfs.misses + h5.misses);
    assert_eq!(counter(&snap, "cache.pfs.hits"), pfs.hits as u64);
    assert_eq!(counter(&snap, "cache.pfs.misses"), pfs.misses as u64);

    // Every pipeline stage produced a span.
    let names: Vec<&str> = snap.spans.iter().map(|s| s.name).collect();
    for stage in [
        "check_stack",
        "check.analyze",
        "check.enumerate",
        "check.candidates",
        "check.materialize",
        "check.legal_states",
        "check.preserved_sets",
        "check.legal_replay",
        "pfs.dispatch",
        "golden.state",
        "golden.digest",
        "check.judge",
        "snapshot.materialize",
        "snapshot.probe",
        "pfs.mount",
        "recover/BeeGFS",
    ] {
        assert!(names.contains(&stage), "missing span {stage}");
    }
    // One closure per (cut, victim candidate), at least one victim.
    assert!(counter(&snap, "persist.closures") > 0);
    // The recovery memo: every recovery tool run filled an entry, every
    // checked crash state and classifier probe asked it once, some were
    // answered by a view another had recovered, and a pruned state never
    // asked.
    let executed = counter(&snap, "recover.executed");
    let shared = counter(&snap, "recover.shared_set") + counter(&snap, "recover.shared_digest");
    let tool_runs = names.iter().filter(|n| **n == "recover/BeeGFS").count();
    assert_eq!(executed, tool_runs as u64);
    assert!(shared > 0);
    assert!(outcome.stats.states_pruned > 0, "the cell prunes");
    assert_eq!(
        executed + shared,
        outcome.stats.states_checked as u64 + counter(&snap, "classify.probes"),
    );
    let line = summary.lines().find(|l| l.contains("recoveries "));
    let line = line.unwrap_or_else(|| panic!("no recoveries line in:\n{summary}"));
    assert!(line.contains(&format!("{executed}  executed ({shared} more")));
    // The golden walks end before the per-state loop starts.
    let span = |name: &str| snap.spans.iter().find(|s| s.name == name).unwrap();
    let (legal, judge) = (span("check.legal_states"), span("check.judge"));
    assert_eq!(legal.depth, judge.depth);
    assert!(legal.start_ns + legal.dur_ns <= judge.start_ns);
    // Stage spans nest under the check_stack root.
    let root = span("check_stack");
    let enumerate = snap
        .spans
        .iter()
        .find(|s| s.name == "check.enumerate")
        .unwrap();
    assert!(enumerate.depth > root.depth);
}

/// A check runs on one thread and reads no `PC_THREADS`: it opens no
/// pool scope, bumps no `pool.*` counter, and records every span on the
/// thread that opened `check_stack`.
#[test]
fn a_check_runs_on_one_thread() {
    let _guard = TEST_LOCK.lock().unwrap();
    let params = Params::quick();
    let stack = Program::H5Create.run(FsKind::BeeGfs, &params);
    let factory = FsKind::BeeGfs.factory(&params);
    let ((), snap) = with_telemetry(|| {
        check_stack(&stack, &factory, &CheckConfig::paper_default());
    });
    assert!(snap.spans.iter().all(|s| s.name != "pool.scope"));
    let pooled: Vec<&str> = (snap.counters.iter())
        .map(|(name, _)| name.as_str())
        .filter(|name| name.starts_with("pool."))
        .collect();
    assert!(pooled.is_empty(), "pool counters {pooled:?}");
    let root = snap.spans.iter().find(|s| s.name == "check_stack").unwrap();
    assert!(snap.spans.iter().all(|s| s.tid == root.tid));
    assert!(snap.spans.iter().any(|s| s.name == "check.judge"));
}

/// H5-resize at the split dims is one 80-call chain under the resize:
/// its 81 PFS-layer preserved sets are the chain's prefixes (the 2
/// library-layer ones: with and without the resize), so the two golden
/// walks dispatch one call per trie edge and no preamble (both start
/// from the sealed pre-test snapshot), fork nothing, and open one
/// `check.legal_replay` span each — where 83 full replays dispatched
/// 10 206 calls.
#[test]
fn golden_walk_counters_are_edge_counts() {
    let _guard = TEST_LOCK.lock().unwrap();
    let quick = Params::quick();
    let params = quick.clone().with_dims(quick.split_dims());
    let stack = Program::H5Resize.run(FsKind::Ext4, &params);
    let factory = FsKind::Ext4.factory(&params);
    let cfg = CheckConfig::paper_default();
    let ((), snap) = with_telemetry(|| {
        check_stack(&stack, &factory, &cfg);
    });
    let summary = render_summary(&snap);
    assert_eq!(counter(&snap, "replay.executed"), 81 + 2);
    // Both walks fork what the stack sealed: no preamble call is
    // dispatched again.
    let dispatched = counter(&snap, "replay.dispatched");
    assert_eq!(dispatched, 80 + 1);
    assert_eq!(counter(&snap, "replay.forks"), 0);
    let spans = |name: &str| snap.spans.iter().filter(|s| s.name == name).count();
    assert_eq!(spans("check.legal_replay"), 2);
    // One walk step span per call dispatched, per layer.
    assert_eq!(
        spans("pfs.dispatch") + spans("h5.step"),
        dispatched as usize
    );
    assert_eq!(spans("h5.step"), 1);
    assert_eq!(spans("golden.fork"), 0);
    let line = summary.lines().find(|l| l.contains("golden replays "));
    let line = line.unwrap_or_else(|| panic!("no golden replays line in:\n{summary}"));
    assert!(line.contains(" 83  executed ("), "{line}");
    assert!(line.ends_with(&format!("({dispatched} calls dispatched, 0 forks)")));
}

/// A view's digest folds its runs' digests, which the stores cache: a
/// second digest of an unchanged view, or of another view over the same
/// stores, streams no byte (`digest.bytes`), and equal views over the
/// same stores digest alike.
#[test]
fn a_second_view_digest_streams_no_bytes() {
    let _guard = TEST_LOCK.lock().unwrap();
    let stack = Program::Arvr.run(FsKind::BeeGfs, &Params::quick());
    let view = || stack.pfs.client_view(stack.pfs.live());
    let (first, second) = (view(), view());
    let (digest, snap) = with_telemetry(|| first.digest());
    assert!(
        counter(&snap, "digest.bytes") > 0,
        "the first digest hashes the runs"
    );
    let (again, snap) = with_telemetry(|| (first.digest(), second.digest()));
    assert_eq!(counter(&snap, "digest.bytes"), 0);
    assert_eq!(again, (digest, digest));
    assert!(first == second);
}

/// The parse budget of a recovered view (DESIGN.md §7): its library file
/// is walked once, and once more — through `h5clear` — only if that walk
/// met an error; every parse is one `h5.parse` span. A cell without an
/// inconsistent state walks each view exactly once.
#[test]
fn a_recovered_view_is_walked_at_most_twice() {
    let _guard = TEST_LOCK.lock().unwrap();
    let params = Params::quick();
    let cfg = CheckConfig::paper_default();
    let mut second_walks = 0;
    for (program, fs) in [
        (Program::H5Resize, FsKind::BeeGfs),
        (Program::H5Resize, FsKind::Gpfs),
        (Program::H5Create, FsKind::Ext4),
    ] {
        let stack = program.run(fs, &params);
        let factory = fs.factory(&params);
        let (outcome, snap) = with_telemetry(|| check_stack(&stack, &factory, &cfg));
        let (parses, walks) = (counter(&snap, "h5.view_parses"), counter(&snap, "h5.walks"));
        let label = format!("{} on {}", program.name(), fs.name());
        assert!(
            parses > 0 && parses <= walks && walks <= 2 * parses,
            "{label}: {parses} / {walks}"
        );
        let spans = snap.spans.iter().filter(|s| s.name == "h5.parse").count();
        assert_eq!(spans as u64, parses, "{label}");
        if outcome.raw_inconsistent_states == 0 {
            assert_eq!(walks, parses, "{label}");
        }
        second_walks += walks - parses;
    }
    assert!(second_walks > 0, "no view needed h5clear");
}
