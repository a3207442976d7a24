//! Kill-resume equivalence for the crash-safe campaign driver: a
//! campaign killed at *any* durability point — creating the log,
//! mid-append, with a torn partial record — and then resumed must
//! produce a `canonical_report()` byte-identical to an uninterrupted
//! run, from the record log alone.
//!
//! The kill is a `pc_rt::inject` crash armed at the log's `durable:`
//! points, so one process can die and "restart" hundreds of times; the
//! torn prefix is written and synced before the panic, so the bytes on
//! disk are those a killed process leaves. Every durability point of the
//! sweep is killed, with property-tested random tear lengths.
//! `scripts/verify.sh` gate 12 adds a real mid-sweep SIGKILL across
//! process boundaries and resumes it at `PC_THREADS=1`.

use pc_bench::campaign::{run_campaign, FuzzOptions};
use pc_rt::inject;
use pc_rt::prop_assert;
use pc_rt::proptest::{run, Config};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use workloads::FsKind;

fn scratch_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pc-resume-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small but non-trivial sweep: 8 cells, so 10 durability points.
fn opts(dir: &Path) -> FuzzOptions {
    FuzzOptions {
        sample: Some(8),
        file_systems: vec![FsKind::BeeGfs],
        state_dir: dir.to_str().map(str::to_string),
        ..FuzzOptions::pr_tier()
    }
}

/// Run the sweep in `dir` with a crash armed at point `at`, then resume
/// it; the resumed canonical report.
fn kill_and_resume(dir: &Path, at: u64, tear: u64) -> Result<String, String> {
    inject::arm("durable:", at, tear);
    let crashed = catch_unwind(AssertUnwindSafe(|| run_campaign(&opts(dir))));
    inject::disarm();
    prop_assert!(
        crashed.is_err(),
        "crash at point {at} must interrupt the campaign"
    );
    let resumed = run_campaign(&FuzzOptions {
        resume: true,
        ..opts(dir)
    })
    .map_err(|e| format!("resume after kill at {at}: {e}"))?;
    Ok(resumed.corpus.canonical_report())
}

/// One `#[test]` because the armed injection target is process-global.
#[test]
fn killed_campaign_resumes_byte_identically() {
    let ref_dir = scratch_dir("reference");
    // A target the run never reaches counts its durability points.
    inject::arm("durable:", u64::MAX, 0);
    let reference = run_campaign(&opts(&ref_dir))
        .expect("uninterrupted campaign")
        .corpus
        .canonical_report();
    // Every durability point the uninterrupted run passed through is a
    // legal kill site: the log-open header write, the meta record and
    // one append per cell. The sweep stays at 8 cells, so the schedule
    // is exactly these ten and every one of them is killed, each case
    // with its own random tears.
    let total_points = inject::disarm();
    assert_eq!(total_points, 10, "header + meta record + 8 cell appends");
    std::fs::remove_dir_all(&ref_dir).unwrap();

    run(
        "killed_campaign_resumes_byte_identically",
        &Config::with_cases(2),
        |rng, _size| -> Vec<u64> { (0..total_points).map(|_| rng.gen_range(0u64..64)).collect() },
        |tears| {
            for (at, &tear) in (1..=total_points).zip(tears) {
                let dir = scratch_dir("kill");
                prop_assert!(
                    kill_and_resume(&dir, at, tear)? == reference,
                    "kill at point {at} (tear {tear}) diverged after resume"
                );
                std::fs::remove_dir_all(&dir).unwrap();
            }
            Ok(())
        },
    );

    // A `checkpoint.json` an older binary left behind — well-formed, a
    // cursor the log corroborates, the wrong corpus under it — is never
    // read: the log alone decides what a resume rebuilds.
    let dir = scratch_dir("stale-checkpoint");
    let stale = dir.join("checkpoint.json");
    let text = r#"{"kind": "checkpoint", "cursor": 2, "records": 3, "corpus": {"cells": 2,
        "buggy_cells": 0, "rep_states": [], "diagnostics": [], "behaviors": [], "findings": []}}"#;
    std::fs::write(&stale, text).unwrap();
    assert_eq!(kill_and_resume(&dir, 6, 5).unwrap(), reference);
    assert_eq!(std::fs::read_to_string(&stale).unwrap(), text);
    std::fs::remove_dir_all(&dir).unwrap();
}
