//! The pinned-corpus regression test behind the PR-tier crash gate.
//!
//! `expected_fuzz_pr_tier.txt` is the canonical report of the PR-tier
//! sweep ([`FuzzOptions::pr_tier`]): exhaustive bound-2 corpus on
//! BeeGFS + OrangeFS under data journaling. The report is byte-stable
//! by contract (RNG-free enumeration, `PC_THREADS`-invariant checking,
//! sequential cell order), so any drift here is a *behavior change* in
//! the stack — intended changes must regenerate the file:
//!
//! ```sh
//! cargo run --release -p pc-bench -- fuzz 2>/dev/null \
//!     > crates/bench/tests/expected_fuzz_pr_tier.txt
//! ```
//!
//! `scripts/verify.sh` re-checks the same pin through the CLI (and
//! diffs `PC_THREADS=1` against the default pool); this test keeps the
//! gate active under a plain `cargo test` too.

use pc_bench::campaign::{run_campaign, FuzzOptions};

const EXPECTED: &str = include_str!("expected_fuzz_pr_tier.txt");

#[test]
fn pr_tier_finding_set_is_pinned() {
    let report = run_campaign(&FuzzOptions::pr_tier())
        .expect("sweep runs")
        .corpus
        .canonical_report();
    assert_eq!(
        report, EXPECTED,
        "PR-tier fuzz findings drifted from the pinned corpus; if the \
         change is intended, regenerate expected_fuzz_pr_tier.txt (see \
         module docs)"
    );
}

#[test]
fn sampled_runs_are_byte_identical() {
    // Determinism on the sampling path (the exhaustive path is already
    // pinned above; verify.sh additionally diffs PC_THREADS=1 vs the
    // default pool through the CLI).
    let fuzz = FuzzOptions {
        sample: Some(60),
        ..FuzzOptions::pr_tier()
    };
    let a = run_campaign(&fuzz).expect("run a");
    let b = run_campaign(&fuzz).expect("run b");
    assert_eq!(
        a.corpus.canonical_report(),
        b.corpus.canonical_report(),
        "same bound and seed must reproduce byte-identically"
    );
    assert_eq!(a.workloads, 60);
}
