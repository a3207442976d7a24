//! `check_stack` against `check_reference`, cell by cell.
//!
//! The two checkers share analysis, enumeration, legal-state sets, the
//! Figure 6 verdict, classification and the cost model; they differ
//! only in *how* a crash state becomes a recovered view. `check_stack`
//! forks every state off a shared prefix tree, recovers once per
//! subtree representative and fans verdicts out over the thread pool;
//! `check_reference` deep-clones the baseline, replays the state's full
//! persisted prefix, tears its victims, recovers and mounts — one state
//! at a time. Never in *what* they materialize: everything a checker
//! decides must match byte for byte, on the same traced run.
//!
//! `scripts/verify.sh` runs this suite once with `PC_THREADS=1` and once
//! parallel, so the guarantee is also checked against the thread pool.

use paracrash::{check_reference, check_stack, CheckConfig, CheckOutcome, ExploreMode};
use paracrash_suite::simnet::FaultConfig;
use pc_rt::proptest::{gen_vec, run, Config};
use pc_rt::rng::Rng;
use pc_rt::{prop_assert, prop_assert_eq};
use simfs::{FsOp, FsState, JournalMode};
use workloads::{generated, FsKind, Params, Program};

const PFS_MODELS: [FsKind; 5] = [
    FsKind::BeeGfs,
    FsKind::OrangeFs,
    FsKind::Lustre,
    FsKind::GlusterFs,
    FsKind::Gpfs,
];

/// Everything a checker decides, rendered for comparison: the canonical
/// report (the full user-facing output) plus the statistics and state
/// identities it does not print. Cache traffic and `wall_seconds` are
/// deliberately excluded — they describe how a checker ran.
fn observable(outcome: &CheckOutcome) -> String {
    format!(
        "{}total={} checked={} pruned={} diagnostic={} rebuilds={} sim={} reps={:?}",
        outcome.canonical_report(),
        outcome.stats.states_total,
        outcome.stats.states_checked,
        outcome.stats.states_pruned,
        outcome.stats.states_diagnostic,
        outcome.stats.server_rebuilds,
        outcome.stats.sim_seconds,
        outcome.rep_digests,
    )
}

/// Trace one run and hand the *same* stack to both checkers.
/// Representative-state digests are checker-derived (prefix-tree
/// terminals vs per-state materialization), so they are part of the
/// contract: collect them and let `observable` compare the exact sets.
fn differ(what: &str, stack: &paracrash::Stack, fs: FsKind, params: &Params, cfg: &CheckConfig) {
    let cfg = CheckConfig {
        collect_rep_digests: true,
        ..cfg.clone()
    };
    let factory = fs.factory(params);
    let fast = check_stack(stack, &factory, &cfg);
    let reference = check_reference(stack, &factory, &cfg);
    assert_eq!(
        observable(&fast),
        observable(&reference),
        "check_stack and check_reference diverged for {what} on {} (journal {:?}, mode {})",
        fs.name(),
        params.journal,
        cfg.mode.as_str(),
    );
    assert!(fast.stats.states_total > 0);
}

/// One paper program, every placement variant of it.
fn differ_program(program: Program, fs: FsKind, params: &Params, cfg: &CheckConfig) {
    for (_, placement) in program.placements() {
        let params = params.clone().with_placement(placement);
        let stack = program.run(fs, &params);
        differ(program.name(), &stack, fs, &params, cfg);
    }
}

/// Representative workloads, one per PFS model plus the ext4 control.
#[test]
fn engines_report_identical_outcomes() {
    let cells: [(Program, FsKind, ExploreMode); 7] = [
        (Program::Arvr, FsKind::BeeGfs, ExploreMode::BruteForce),
        (Program::Arvr, FsKind::BeeGfs, ExploreMode::Optimized),
        (Program::Arvr, FsKind::OrangeFs, ExploreMode::Optimized),
        (Program::Wal, FsKind::GlusterFs, ExploreMode::Optimized),
        (Program::Cr, FsKind::Gpfs, ExploreMode::Optimized),
        (Program::CdfCreate, FsKind::Lustre, ExploreMode::Optimized),
        (Program::Arvr, FsKind::Ext4, ExploreMode::BruteForce),
    ];
    for (program, fs, mode) in cells {
        let cfg = CheckConfig {
            mode,
            ..CheckConfig::paper_default()
        };
        differ_program(program, fs, &Params::quick(), &cfg);
    }
}

/// H5-resize at the bug-14 split dims on BeeGFS: eighty-one nested
/// candidate sets whose preserved sets are each other's prefixes, so
/// nearly every legal state `check_stack` compares against is a view
/// shared with an earlier candidate set. The reference replays every
/// preserved set of every crash state afresh (thousands of replays here);
/// `k = 0` keeps that affordable in a debug build and leaves the
/// candidate sets — and so the sharing — exactly as they are at `k = 1`.
#[test]
fn shared_golden_views_match_per_state_replays() {
    let quick = Params::quick();
    let params = quick.clone().with_dims(quick.split_dims());
    let cfg = CheckConfig {
        k: 0,
        ..CheckConfig::paper_default()
    };
    differ_program(Program::H5Resize, FsKind::BeeGfs, &params, &cfg);
}

/// `check_stack` shares one recovery across each snapshot-plan subtree;
/// the reference recovers every state individually. Identical across
/// all five PFS models × all journal modes.
#[test]
fn batched_verdicts_match_per_state_oracle() {
    let journals = [
        JournalMode::Data,
        JournalMode::Ordered,
        JournalMode::Writeback,
        JournalMode::None,
    ];
    for fs in PFS_MODELS {
        for journal in journals {
            let params = Params::quick().with_journal(journal);
            differ_program(Program::Arvr, fs, &params, &CheckConfig::paper_default());
        }
    }
}

/// Chaos faults: delivery noise plus torn writes, driving both the
/// shared-recovery path (victim-free states) and the per-state torn
/// fallback (states with live victims) of `check_stack` in one run.
#[test]
fn torn_and_chaos_cells_match_the_reference() {
    let faults = FaultConfig::chaos(0x5CA1EB47);
    let params = Params::quick().with_faults(faults.clone());
    let cfg = CheckConfig {
        faults,
        ..CheckConfig::paper_default()
    };
    for fs in PFS_MODELS {
        differ_program(Program::Arvr, fs, &params, &cfg);
    }
}

/// H5-resize at the split dims on GPFS, the cell where pre-recovery
/// images collapse most: `check_stack` answers most of its crash states
/// and nearly all of its classifier probes from a view some other
/// state or probe already recovered, keyed by the image's digest. The
/// reference has no recovery memo — it recovers every state and every
/// probe afresh, and parses the library file on every verdict — so it
/// is the oracle for the key's soundness. `k = 0` as above.
#[test]
fn digest_shared_recoveries_match_per_request_recoveries() {
    let quick = Params::quick();
    let params = quick.clone().with_dims(quick.split_dims());
    let cfg = CheckConfig {
        k: 0,
        ..CheckConfig::paper_default()
    };
    differ_program(Program::H5Resize, FsKind::Gpfs, &params, &cfg);
}

/// Torn writes on an I/O-library program: a state with live victims is
/// torn *after* materialization, so the digest of its prepared image
/// says nothing about what recovery will see. If such a state read the
/// recovery memo it would be judged on an untorn view, and if it filled
/// the memo the victim-free state with the same prepared image would be
/// judged on a torn one (and on the torn view's cached parses) — either
/// way the reference, which tears and recovers every state on its own,
/// decides differently.
#[test]
fn torn_states_recover_past_the_memo() {
    let faults = FaultConfig {
        seed: 0x70_12_4D,
        torn_writes: true,
        ..FaultConfig::disabled()
    };
    let params = Params::quick().with_faults(faults.clone());
    let cfg = CheckConfig {
        faults,
        ..CheckConfig::paper_default()
    };
    for fs in [FsKind::BeeGfs, FsKind::Gpfs] {
        differ_program(Program::H5Create, fs, &params, &cfg);
        differ_program(Program::Wal, fs, &params, &cfg);
    }
}

/// 64-server BeeGFS (4× the paper's largest configuration): the cell
/// `scripts/verify.sh` gate 11 diffs sequential vs parallel through the
/// CLI.
#[test]
fn sixty_four_server_cell_matches_the_reference() {
    let params = Params::quick().with_servers(32, 32);
    let cfg = CheckConfig::paper_default();
    differ_program(Program::Arvr, FsKind::BeeGfs, &params, &cfg);
}

/// Sampled bound-2 generated workloads (POSIX, HDF5 and MPI-IO
/// vocabularies) on the two PFS models the PR-tier fuzz sweep finds the
/// most behaviours on.
#[test]
fn sampled_generated_cells_match_the_reference() {
    let corpus = generated::corpus(2);
    run(
        "sampled_generated_cells_match_the_reference",
        &Config::with_cases(24),
        |rng, _size| {
            let fs = [FsKind::BeeGfs, FsKind::OrangeFs][rng.gen_range(0..2u64) as usize];
            (rng.gen_range(0..corpus.len() as u64) as usize, fs)
        },
        |&(index, fs)| {
            let (params, workload) = (Params::quick(), &corpus[index]);
            let stack = workload.run(fs, &params);
            differ(
                &workload.label(),
                &stack,
                fs,
                &params,
                &CheckConfig::paper_default(),
            );
            Ok(())
        },
    );
}

/// Random op sequence over a small path universe; lenient application
/// skips ops whose prerequisites are missing, mirroring crash replay.
fn arb_ops(rng: &mut Rng, size: usize) -> (Vec<FsOp>, Vec<FsOp>) {
    let gen_seq = |r: &mut Rng| {
        gen_vec(r, size.min(12), |r| {
            let f = format!("/f{}", r.next_u32() % 4);
            let g = format!("/d/f{}", r.next_u32() % 3);
            match r.next_u32() % 10 {
                0 => FsOp::Creat { path: f },
                1 => FsOp::Mkdir { path: "/d".into() },
                2 => FsOp::Creat { path: g },
                3 => FsOp::Pwrite {
                    path: f,
                    offset: u64::from(r.next_u32() % 8),
                    data: vec![r.next_u32() as u8; 1 + (r.next_u32() % 4) as usize],
                },
                4 => FsOp::Append {
                    path: f,
                    data: vec![r.next_u32() as u8],
                },
                5 => FsOp::Truncate {
                    path: f,
                    size: u64::from(r.next_u32() % 6),
                },
                6 => FsOp::Rename { src: f, dst: g },
                7 => FsOp::Link { src: f, dst: g },
                8 => FsOp::SetXattr {
                    path: f,
                    key: "user.k".into(),
                    value: vec![r.next_u32() as u8],
                },
                _ => FsOp::Unlink { path: f },
            }
        })
    };
    (gen_seq(rng), gen_seq(rng))
}

/// COW fork + mutate + hash must equal naive deep-clone + mutate + hash
/// for arbitrary `FsOp` sequences, and the shared parent must be
/// unaffected by the fork's mutations.
#[test]
fn cow_fork_equals_naive_clone_under_random_ops() {
    run(
        "cow_fork_equals_naive_clone_under_random_ops",
        &Config::with_cases(128),
        arb_ops,
        |(base_ops, suffix)| {
            let mut base = FsState::new();
            base.apply_lenient(base_ops.iter());
            let base_digest = base.digest();
            let mut fork = base.fork();
            let mut deep = base.deep_clone();
            prop_assert_eq!(&fork, &deep);
            let fork_failures = fork.apply_lenient(suffix.iter()).len();
            let deep_failures = deep.apply_lenient(suffix.iter()).len();
            prop_assert_eq!(fork_failures, deep_failures);
            prop_assert_eq!(&fork, &deep);
            prop_assert_eq!(fork.digest(), deep.digest());
            prop_assert!(fork.same_tree(&deep));
            prop_assert_eq!(base.digest(), base_digest);
            Ok(())
        },
    );
}
