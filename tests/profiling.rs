//! The self-profiling plane's cross-crate contracts (the observability
//! verify gate repeats the process-level versions):
//!
//! * the disabled path records nothing — no samples, no allocation
//!   attribution — so an unprofiled run is untouched;
//! * the `.folded` aggregate renders deterministically (same stacks →
//!   same bytes), which is what lets CI diff emitted profiles;
//! * profiling is strictly presentation-plane: `canonical_report()` is
//!   byte-identical with the profiler off, on, and on across
//!   `PC_THREADS` widths.

use pc_bench::campaign::{run_campaign, CampaignOptions, FuzzOptions};
use pc_rt::obs::prof;
use std::sync::Mutex;
use workloads::FsKind;

/// All tests toggle process-global profiling/telemetry state.
static LOCK: Mutex<()> = Mutex::new(());

fn tiny_opts() -> CampaignOptions {
    let fuzz = FuzzOptions {
        sample: Some(6),
        file_systems: vec![FsKind::BeeGfs],
        ..FuzzOptions::pr_tier()
    };
    CampaignOptions::new(fuzz, None)
}

#[test]
fn disabled_planes_record_nothing() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pc_rt::obs::set_enabled(false);
    pc_rt::obs::reset();
    assert!(!prof::sampling_enabled());
    assert!(!prof::alloc_tracking_enabled());
    let before = prof::samples_total();
    // Real work through the instrumented stack with every plane off.
    run_campaign(&tiny_opts()).unwrap();
    let big = vec![0u8; 1 << 20];
    std::hint::black_box(&big);
    assert_eq!(prof::samples_total(), before, "sampler ran while off");
    let (rows, total) = prof::alloc_snapshot();
    assert!(rows.is_empty(), "alloc attribution while off: {rows:?}");
    assert_eq!(total.count, 0);
    assert_eq!(prof::render_folded(), "", "folded output while off");
}

#[test]
fn folded_render_is_deterministic() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pc_rt::obs::reset();
    let record = || {
        prof::record_synthetic(&["suite.root", "suite.leaf"], 3);
        prof::record_synthetic(&["suite.root"], 1);
        prof::record_synthetic(&["suite.root", "suite.leaf"], 2);
    };
    record();
    let first = prof::render_folded();
    assert_eq!(first, "suite.root 1\nsuite.root;suite.leaf 5\n");
    assert_eq!(prof::render_folded(), first, "re-render changed bytes");
    pc_rt::obs::reset();
    record();
    assert_eq!(
        prof::render_folded(),
        first,
        "same stacks after reset must render identically"
    );
    pc_rt::obs::reset();
}

#[test]
fn canonical_report_is_identical_with_profiling_on_off_and_across_threads() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved = std::env::var("PC_THREADS").ok();
    let opts = tiny_opts();

    std::env::set_var("PC_THREADS", "1");
    pc_rt::obs::set_enabled(false);
    pc_rt::obs::reset();
    let plain = run_campaign(&opts).unwrap().corpus.canonical_report();

    // Profiled, single-threaded: sampler + allocation accounting on.
    pc_rt::obs::set_enabled(true);
    prof::enable_sampling(2_000);
    let profiled_seq = run_campaign(&opts).unwrap().corpus.canonical_report();

    // Profiled, parallel pool.
    std::env::set_var("PC_THREADS", "4");
    let profiled_par = run_campaign(&opts).unwrap().corpus.canonical_report();

    prof::disable_sampling();
    pc_rt::obs::set_enabled(false);
    pc_rt::obs::reset();
    match saved {
        Some(v) => std::env::set_var("PC_THREADS", v),
        None => std::env::remove_var("PC_THREADS"),
    }

    assert_eq!(plain, profiled_seq, "profiling changed the report");
    assert_eq!(plain, profiled_par, "profiling+threads changed the report");
}
