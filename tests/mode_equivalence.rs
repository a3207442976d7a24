//! §5.3 / §6.4: "these optimization strategies did not reduce the number
//! of bugs discovered." Brute force and the optimized mode must report
//! the same unique signatures across representative cells of the
//! matrix — while strictly reducing the work.

use paracrash::{CheckConfig, CheckOutcome, ExploreMode};
use paracrash_suite::check_with;
use std::collections::BTreeSet;
use workloads::{FsKind, Params, Program};

fn check(program: Program, fs: FsKind, mode: ExploreMode) -> CheckOutcome {
    check_with(
        program,
        fs,
        &Params::quick(),
        &CheckConfig {
            mode,
            ..CheckConfig::paper_default()
        },
    )
}

fn sigs(outcome: &CheckOutcome) -> BTreeSet<String> {
    (outcome.bugs.iter())
        .map(|b| format!("{:?}|{}", b.layer, b.signature))
        .collect()
}

#[test]
fn optimizations_do_not_lose_bugs() {
    for (program, fs) in [
        (Program::Arvr, FsKind::BeeGfs),
        (Program::Wal, FsKind::BeeGfs),
        (Program::Cr, FsKind::Gpfs),
        (Program::Wal, FsKind::GlusterFs),
        (Program::H5Delete, FsKind::BeeGfs),
        (Program::CdfCreate, FsKind::Lustre),
    ] {
        let brute = check(program, fs, ExploreMode::BruteForce);
        let optim = check(program, fs, ExploreMode::Optimized);
        let (brute_time, optim_time) = (brute.stats.sim_seconds, optim.stats.sim_seconds);
        assert_eq!(
            sigs(&brute),
            sigs(&optim),
            "optimized exploration changed the bugs for {} on {}",
            program.name(),
            fs.name()
        );
        // Pruning can only reduce the states checked; whether it does
        // depends on when the pattern is learned relative to the
        // matching states (the paper reports savings in aggregate).
        assert!(optim.stats.states_checked <= brute.stats.states_checked);
        // Brute force restarts for every state it checks, so both of its
        // prices agree; restarting only the states pruning keeps is a
        // subset of that work.
        assert_eq!(brute.stats.restart_seconds, brute_time);
        assert!(optim.stats.restart_seconds <= brute_time);
        // The cost model must honour the cheaper reconstruction.
        assert!(
            optim_time < brute_time,
            "{} on {}: optimized not cheaper ({optim_time} vs {brute_time})",
            program.name(),
            fs.name()
        );
    }
}
