//! Benches for the bug-provenance engine (`paracrash::explain`).
//!
//! The engine only runs on buggy cells, so its cost is dominated by
//! delta-debugging: every ddmin probe is a crash-state materialization
//! plus a recover-and-mount check. Two questions matter:
//!
//! * **disabled cost** — a full check with `explain = false` (the
//!   production default). The `selftest explain` verify gate asserts
//!   this stays within 3% of the pre-explain checker; here it is the
//!   baseline sample;
//! * **prefix-shared shrink** — explain on, probes materialized in
//!   batches through the snapshot engine's prefix-sharing replay, so
//!   probes that share an op prefix share COW nodes.
//!
//! The cell is ARVR on BeeGFS — two REPRODUCED bugs, so every sample
//! includes two full shrink runs.

use paracrash::{check_stack, CheckConfig};
use pc_rt::bench::{black_box, Bench};
use workloads::{FsKind, Params, Program};

/// Register the provenance-engine benches.
pub fn register(b: &mut Bench) {
    let params = Params::quick();
    let stack = Program::Arvr.run(FsKind::BeeGfs, &params);
    let factory = FsKind::BeeGfs.factory(&params);

    let run = |cfg: &CheckConfig| {
        let outcome = check_stack(&stack, &factory, cfg);
        black_box((outcome.bugs.len(), outcome.explanations.len()))
    };

    let off = CheckConfig::paper_default();
    assert!(!off.explain, "explain must default off");
    b.bench("explain/check/off", || run(&off));

    let prefix = CheckConfig {
        explain: true,
        ..CheckConfig::paper_default()
    };
    b.bench("explain/shrink/prefix-shared", || run(&prefix));
}
