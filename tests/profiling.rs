//! The self-profiling plane's cross-crate contracts (verify gate 14
//! repeats the process-level versions):
//!
//! * the disabled path records nothing — no samples, no allocation
//!   attribution — so an unprofiled run is untouched;
//! * the `.folded` aggregate renders deterministically (same stacks →
//!   same bytes), which is what lets CI diff emitted profiles;
//! * profiling is strictly presentation-plane: `canonical_report()` is
//!   byte-identical with the profiler off, on, and on across
//!   `PC_THREADS` widths;
//! * the durable perf-history log recovers its committed prefix from a
//!   torn tail and stays appendable;
//! * `history::diff` flags an injected 2× slowdown inside the band and
//!   stays quiet outside it.

use paracrash::history;
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

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pc-prof-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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

#[test]
fn history_log_recovers_committed_prefix_from_a_torn_tail() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch_dir("torn");
    let rec = |n: u64| history::RunRecord {
        kind: "fuzz".into(),
        label: format!("run {n}"),
        work: 10 * n,
        wall_ns: 1_000_000 * n,
        stages: vec![("check.verdicts".into(), 400_000 * n)],
        alloc_bytes: 1 << 20,
        alloc_peak: 1 << 18,
        peak_rss_kb: 4096,
    };
    history::append(&dir, &rec(1)).unwrap();
    history::append(&dir, &rec(2)).unwrap();
    let log = dir.join(history::HISTORY_LOG);
    let committed = std::fs::metadata(&log).unwrap().len();
    history::append(&dir, &rec(3)).unwrap();
    let full = std::fs::metadata(&log).unwrap().len();
    assert!(full > committed);

    // Tear the third record in half, as a crash mid-append would.
    let torn = committed + (full - committed) / 2;
    let f = std::fs::OpenOptions::new().write(true).open(&log).unwrap();
    f.set_len(torn).unwrap();
    drop(f);

    let recovered = history::load(&dir).unwrap();
    assert_eq!(recovered.len(), 2, "torn tail must truncate to the prefix");
    assert_eq!(recovered[1], rec(2));

    // The recovered log stays appendable.
    history::append(&dir, &rec(4)).unwrap();
    let after = history::load(&dir).unwrap();
    assert_eq!(after.len(), 3);
    assert_eq!(after[2], rec(4));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn history_diff_flags_a_2x_slowdown() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fast = history::RunRecord {
        kind: "fuzz".into(),
        label: "baseline".into(),
        work: 100,
        wall_ns: 50_000_000,
        stages: vec![("check.verdicts".into(), 20_000_000)],
        alloc_bytes: 8 << 20,
        alloc_peak: 1 << 20,
        peak_rss_kb: 10_000,
    };
    let slow = history::RunRecord {
        label: "regressed".into(),
        wall_ns: fast.wall_ns * 2,
        ..fast.clone()
    };
    let (text, flagged) = history::diff(&fast, &slow, history::DEFAULT_BAND);
    assert!(flagged, "2x slowdown not flagged at band 1.5:\n{text}");
    assert!(text.contains("REGRESSION"), "no marker in:\n{text}");
    let (_, flagged_wide) = history::diff(&fast, &slow, 4.0);
    assert!(!flagged_wide, "2x slowdown flagged at band 4.0");
    let (_, same) = history::diff(&fast, &fast.clone(), history::DEFAULT_BAND);
    assert!(!same, "identical runs flagged");
}
