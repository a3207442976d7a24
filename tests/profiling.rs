//! The self-profiling plane's cross-crate contracts (the observability
//! verify gate repeats the process-level versions):
//!
//! * the disabled path records nothing — no spans, no self time, no
//!   allocation attribution — so an unprofiled run is untouched;
//! * the `.folded` file renders deterministically (same stacks → same
//!   bytes), which is what lets CI diff emitted profiles;
//! * the profile is an exact partition of a real traced sweep: self
//!   times sum to the depth-0 span durations, sequentially and on the
//!   pool, and name every span of the run;
//! * profiling is strictly presentation-plane: `canonical_report()` is
//!   byte-identical with it off, on, and on across `PC_THREADS` widths.
//!
//! The width switch sets `PC_THREADS` in this process, under `LOCK`,
//! because a check opens its own pool and reads the width there. It is
//! the one `env::set_var` left in the tests, and outside `crates/` (where
//! verify gate 3 forbids it); it goes when a check can take a pool from
//! its caller.

use pc_bench::campaign::{run_campaign, FuzzOptions};
use pc_rt::obs::{prof, TelemetrySnapshot};
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

/// Run `f` with `PC_THREADS` set to `threads`, restoring it after.
fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    let saved = std::env::var("PC_THREADS").ok();
    std::env::set_var("PC_THREADS", threads);
    let out = f();
    match saved {
        Some(v) => std::env::set_var("PC_THREADS", v),
        None => std::env::remove_var("PC_THREADS"),
    }
    out
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
    assert!(snap.spans.is_empty() && snap.self_times.is_empty());
    assert!(snap.allocs.is_empty(), "alloc attribution while off");
    assert_eq!(snap.alloc_total.count, 0);
    assert_eq!(prof::render_folded(&snap), "", "folded output while off");
}

#[test]
fn folded_render_is_deterministic() {
    let snap = TelemetrySnapshot {
        self_times: vec![
            (vec!["suite.root"], 1),
            (vec!["suite.root", "suite.leaf"], 5),
            (vec!["suite.root.b"], 2),
        ],
        ..Default::default()
    };
    let first = prof::render_folded(&snap);
    // Sorted as rendered lines, not as the table's paths.
    assert_eq!(
        first,
        "suite.root 1\nsuite.root.b 2\nsuite.root;suite.leaf 5\n"
    );
    assert_eq!(prof::render_folded(&snap), first, "re-render changed bytes");
    assert_eq!(prof::parse_folded(&first).unwrap().len(), 3);
}

/// Σ self time = Σ root durations on a real traced sweep, sequentially
/// and on the pool (where each worker's outermost span is its own
/// root), and the rendered profile names every span name of the run.
#[test]
fn folded_profile_partitions_a_real_check() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for threads in ["1", "4"] {
        pc_rt::obs::reset();
        pc_rt::obs::set_enabled(true);
        with_threads(threads, || run_campaign(&tiny_opts()).unwrap());
        let snap = pc_rt::obs::snapshot();
        pc_rt::obs::set_enabled(false);
        pc_rt::obs::reset();

        assert_eq!(snap.dropped_spans, 0);
        let roots: Vec<_> = snap.spans.iter().filter(|s| s.depth == 0).collect();
        let folded: u64 = snap.self_times.iter().map(|(_, ns)| ns).sum();
        let root_ns: u64 = roots.iter().map(|s| s.dur_ns).sum();
        assert_eq!(folded, root_ns, "PC_THREADS={threads}");
        for (stack, _) in &snap.self_times {
            assert!(roots.iter().any(|r| r.name == stack[0]), "{stack:?}");
        }
        // A verdict task's recovery nests under `check_stack` inline and
        // roots its own stack on a pool worker.
        let pooled = roots.iter().any(|r| r.name.starts_with("recover/"));
        assert_eq!(pooled, threads == "4", "PC_THREADS={threads}");
        let rows = prof::parse_folded(&prof::render_folded(&snap)).unwrap();
        for s in &snap.spans {
            let named = |(stack, _): &(Vec<String>, u64)| stack.iter().any(|f| f == s.name);
            assert!(rows.iter().any(named), "{} not in profile", s.name);
        }
    }
}

#[test]
fn canonical_report_is_identical_with_profiling_on_off_and_across_threads() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let opts = tiny_opts();
    let report = || run_campaign(&opts).unwrap().corpus.canonical_report();

    pc_rt::obs::set_enabled(false);
    pc_rt::obs::reset();
    let plain = with_threads("1", report);

    // Profiled (span collection + allocation accounting on),
    // single-threaded, then on the parallel pool.
    pc_rt::obs::set_enabled(true);
    let profiled_seq = with_threads("1", report);
    let profiled_par = with_threads("4", report);
    pc_rt::obs::set_enabled(false);
    pc_rt::obs::reset();

    assert_eq!(plain, profiled_seq, "profiling changed the report");
    assert_eq!(plain, profiled_par, "profiling+threads changed the report");
}
