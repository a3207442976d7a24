//! The self-profiling plane's cross-crate contracts (the observability
//! verify gate repeats the process-level versions):
//!
//! * the disabled path records nothing — no spans, no self time, no
//!   allocation attribution — so an unprofiled run is untouched;
//! * the telemetry file's `otherData.stacks` renders deterministically
//!   (same stacks → same bytes), which is what lets CI diff emitted
//!   profiles;
//! * the profile is an exact partition of a real traced sweep: self
//!   times sum to the depth-0 span durations and name every span of the
//!   run;
//! * profiling is strictly presentation-plane: `canonical_report()` is
//!   byte-identical with it off and on.

use paracrash::telemetry::{chrome_trace, read_trace};
use pc_bench::campaign::{run_campaign, FuzzOptions};
use pc_rt::obs::{prof, SpanRec, TelemetrySnapshot};
use std::sync::Mutex;
use workloads::FsKind;

/// All tests toggle process-global profiling/telemetry state.
static LOCK: Mutex<()> = Mutex::new(());

fn tiny_opts() -> FuzzOptions {
    FuzzOptions {
        sample: Some(6),
        file_systems: vec![FsKind::BeeGfs],
        ..FuzzOptions::pr_tier()
    }
}

#[test]
fn disabled_planes_record_nothing() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pc_rt::obs::set_enabled(false);
    pc_rt::obs::reset();
    assert!(!prof::alloc_tracking_enabled());
    // Real work through the instrumented stack with every plane off.
    run_campaign(&tiny_opts()).unwrap();
    let big = vec![0u8; 1 << 20];
    std::hint::black_box(&big);
    let snap = pc_rt::obs::snapshot();
    assert!(snap.spans.is_empty());
    assert!(snap.allocs.is_empty(), "alloc attribution while off");
    assert_eq!(snap.alloc_total.count, 0);
    assert!(snap.self_times.is_empty(), "self time while off");
}

#[test]
fn folded_render_is_deterministic() {
    let span = SpanRec {
        name: "suite.root",
        cat: "suite",
        tid: 1,
        depth: 0,
        start_ns: 0,
        dur_ns: 6,
        trace_id: 0,
    };
    let snap = TelemetrySnapshot {
        spans: vec![span],
        self_times: vec![
            (vec!["suite.root"], 1),
            (vec!["suite.root", "suite.leaf"], 5),
            (vec!["suite.root.b"], 2),
        ],
        ..Default::default()
    };
    let stacks = || {
        let trace = chrome_trace(&snap);
        trace
            .get("otherData")
            .and_then(|o| o.get("stacks"))
            .unwrap()
            .pretty()
    };
    let first = stacks();
    // Sorted as joined keys, not as the table's paths.
    assert_eq!(
        first,
        "{\n  \"suite.root\": 1,\n  \"suite.root.b\": 2,\n  \"suite.root;suite.leaf\": 5\n}"
    );
    assert_eq!(stacks(), first, "re-render changed bytes");
    let trace = read_trace(&chrome_trace(&snap).pretty()).unwrap();
    assert_eq!(trace.stacks.len(), 3);
}

/// Σ self time = Σ root durations on a real traced sweep, and the
/// telemetry file's stacks name every span name of the run.
#[test]
fn folded_profile_partitions_a_real_check() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pc_rt::obs::reset();
    pc_rt::obs::set_enabled(true);
    run_campaign(&tiny_opts()).unwrap();
    let snap = pc_rt::obs::snapshot();
    pc_rt::obs::set_enabled(false);
    pc_rt::obs::reset();

    assert_eq!(snap.dropped_spans, 0);
    let roots: Vec<_> = snap.spans.iter().filter(|s| s.depth == 0).collect();
    let folded: u64 = snap.self_times.iter().map(|(_, ns)| ns).sum();
    let root_ns: u64 = roots.iter().map(|s| s.dur_ns).sum();
    assert_eq!(folded, root_ns);
    for (stack, _) in &snap.self_times {
        assert!(roots.iter().any(|r| r.name == stack[0]), "{stack:?}");
    }
    // A check runs on one thread: no pool scope, and a recovery nests
    // under `check_stack` instead of rooting a stack.
    assert!(snap.spans.iter().all(|s| s.name != "pool.scope"));
    assert!(!roots.iter().any(|r| r.name.starts_with("recover/")));
    let rows = read_trace(&chrome_trace(&snap).pretty()).unwrap().stacks;
    for s in &snap.spans {
        let named = |(stack, _): &(Vec<String>, u64)| stack.iter().any(|f| f == s.name);
        assert!(rows.iter().any(named), "{} not in the stacks", s.name);
    }
}

#[test]
fn canonical_report_is_identical_with_profiling_on_and_off() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let opts = tiny_opts();
    let report = || run_campaign(&opts).unwrap().corpus.canonical_report();

    pc_rt::obs::set_enabled(false);
    pc_rt::obs::reset();
    let plain = report();

    // Profiled: span collection + allocation accounting on.
    pc_rt::obs::set_enabled(true);
    let profiled = report();
    pc_rt::obs::set_enabled(false);
    pc_rt::obs::reset();

    assert_eq!(plain, profiled, "profiling changed the report");
}
