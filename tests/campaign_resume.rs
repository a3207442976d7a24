//! Kill-resume equivalence for the crash-safe campaign driver: a
//! campaign killed at *any* durability point — mid-append, with a torn
//! partial record, before or after a checkpoint's atomic rename — and
//! then resumed must produce a `canonical_report()` byte-identical to
//! an uninterrupted run.
//!
//! The kill is injected through `pc_rt::durable`'s `PC_DURABLE_CRASH`
//! machinery in panic mode (so one process can die and "restart"
//! hundreds of times), at a property-tested random durability point
//! with a random tear length. `scripts/verify.sh` gate 13 repeats the
//! experiment across process boundaries — exit-mode injection (rc 137)
//! and a real mid-sweep SIGKILL — and across `PC_THREADS=1` vs the
//! parallel pool, so the in-process shortcut here is cross-checked
//! end to end.

use pc_bench::campaign::{run_campaign, CampaignOptions, FuzzOptions};
use pc_rt::durable::{arm_crash, disarm_crash, points_seen, reset_points, CrashMode, CrashSpec};
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

/// A small but non-trivial sweep: 8 cells, checkpoint every 3, so a
/// random durability point can land before the first checkpoint, between
/// checkpoints, inside `write_atomic`'s three points, or on the final
/// checkpoint.
fn opts(dir: &Path) -> CampaignOptions {
    let fuzz = FuzzOptions {
        sample: Some(8),
        file_systems: vec![FsKind::BeeGfs],
        ..FuzzOptions::pr_tier()
    };
    let mut o = CampaignOptions::new(fuzz, dir.to_str());
    o.checkpoint_every = 3;
    o
}

/// One `#[test]` because the crash-injection state is process-global.
#[test]
fn killed_campaign_resumes_byte_identically() {
    disarm_crash();
    let ref_dir = scratch_dir("reference");
    reset_points();
    let reference = run_campaign(&opts(&ref_dir))
        .expect("uninterrupted campaign")
        .corpus
        .canonical_report();
    // Every durability point the uninterrupted run passed through is a
    // legal kill site: log-open header write, each record append, and
    // each checkpoint's write-tmp / pre-rename / post-rename points.
    let total_points = points_seen();
    assert!(
        total_points > 10,
        "expected a rich point schedule, got {total_points}"
    );
    std::fs::remove_dir_all(&ref_dir).unwrap();

    run(
        "killed_campaign_resumes_byte_identically",
        &Config::with_cases(10),
        |rng, _size| {
            (
                rng.gen_range(1..=total_points),
                rng.gen_range(0u64..64) as usize,
            )
        },
        |&(at, tear)| {
            let dir = scratch_dir("kill");
            reset_points();
            arm_crash(CrashSpec {
                at,
                tear: Some(tear),
                mode: CrashMode::Panic,
            });
            let crashed = catch_unwind(AssertUnwindSafe(|| run_campaign(&opts(&dir))));
            disarm_crash();
            prop_assert!(
                crashed.is_err(),
                "crash at point {at} must interrupt the campaign"
            );
            let resumed = run_campaign(&CampaignOptions {
                resume: true,
                ..opts(&dir)
            })
            .map_err(|e| format!("resume after kill at {at}: {e}"))?;
            prop_assert!(
                resumed.corpus.canonical_report() == reference,
                "kill at point {at} (tear {tear}) diverged after resume"
            );
            std::fs::remove_dir_all(&dir).unwrap();
            Ok(())
        },
    );
}
