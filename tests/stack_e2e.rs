//! End-to-end sanity across the whole matrix: every program runs on
//! every file system, the full replay of the recorded trace reproduces
//! the live state, and recovery of the no-crash state is clean.

use paracrash::stack::{replay_h5, replay_pfs};
use pfs::recover_and_mount;
use tracer::CausalityGraph;
use workloads::{FsKind, Params, Program};

#[test]
fn every_program_runs_on_every_fs() {
    let params = Params::quick();
    for program in Program::paper_eleven() {
        for fs in FsKind::all() {
            let stack = program.run(fs, &params);
            assert!(
                !stack.rec.is_empty(),
                "{} on {} traced nothing",
                program.name(),
                fs.name()
            );
            assert!(
                !stack.rec.lowermost_events().is_empty(),
                "{} on {} has no lowermost ops",
                program.name(),
                fs.name()
            );
        }
    }
}

#[test]
fn full_crash_state_equals_live_state() {
    // Applying every recorded lowermost op onto the baseline snapshot
    // must reproduce the live server state — materialization is lossless.
    let params = Params::quick();
    for program in [
        Program::Arvr,
        Program::Wal,
        Program::H5Create,
        Program::CdfCreate,
    ] {
        for fs in FsKind::all() {
            let stack = program.run(fs, &params);
            let mut states = stack.pfs.baseline().clone();
            states.apply_events(&stack.rec, stack.rec.lowermost_events());
            assert_eq!(
                stack.pfs.client_view(&states),
                stack.pfs.client_view(stack.pfs.live()),
                "{} on {}",
                program.name(),
                fs.name()
            );
        }
    }
}

#[test]
fn recovery_of_uncrashed_state_is_lossless() {
    let params = Params::quick();
    for program in [Program::Arvr, Program::Cr, Program::Rc, Program::Wal] {
        for fs in FsKind::all() {
            let stack = program.run(fs, &params);
            let mut states = stack.pfs.live().clone();
            let before = stack.pfs.client_view(&states);
            let after = recover_and_mount(stack.pfs.as_ref(), &mut states);
            assert_eq!(before, after, "{} on {}", program.name(), fs.name());
        }
    }
}

#[test]
fn pfs_replay_of_full_call_sequence_matches_live_view() {
    let params = Params::quick();
    for program in Program::posix() {
        for fs in FsKind::all() {
            let stack = program.run(fs, &params);
            let factory = fs.factory(&params);
            let subset: Vec<_> = stack
                .calls
                .entries()
                .iter()
                .map(|(_, p, c)| (*p, c.clone()))
                .collect();
            let view = replay_pfs(&factory, &stack.pre_calls, &subset)
                .expect("full sequence is executable");
            assert_eq!(
                view,
                stack.pfs.client_view(stack.pfs.live()),
                "{} on {}",
                program.name(),
                fs.name()
            );
        }
    }
}

#[test]
fn traces_are_deterministic() {
    let params = Params::quick();
    for fs in [FsKind::BeeGfs, FsKind::Gpfs] {
        let a = Program::H5Create.run(fs, &params);
        let b = Program::H5Create.run(fs, &params);
        assert_eq!(a.rec.len(), b.rec.len());
        assert_eq!(a.rec.render(), b.rec.render(), "{}", fs.name());
    }
}

#[test]
fn causality_graphs_have_chained_client_flows() {
    // Client program order must chain the lowermost ops of successive
    // calls (the property the cut enumeration's tractability relies on).
    let params = Params::quick();
    let stack = Program::Arvr.run(FsKind::BeeGfs, &params);
    let g = CausalityGraph::build(&stack.rec);
    let low = stack.rec.lowermost_events();
    let first = low[0];
    let last = *low.last().unwrap();
    assert!(g.happens_before(first, last));
}

/// The instance a stack sealed after its preamble — what both golden
/// walks fork instead of building one — is a fresh instance with the
/// preamble dispatched: server by server the same stores, the same
/// mounted view, and the traced stack's baseline. With the library
/// replay sealed next to it, it is the library preamble replayed afresh:
/// the same logical state, and the same after any one test-phase call.
#[test]
fn sealed_instance_equals_a_fresh_instance_plus_the_preamble() {
    let params = Params::quick();
    for program in Program::paper_eleven()
        .into_iter()
        .chain([Program::CdfRename])
    {
        for fs in FsKind::all() {
            let stack = program.run(fs, &params);
            let mut fresh = fs.factory(&params)();
            let rec = &mut tracer::Recorder::new();
            for (client, call) in &stack.pre_calls {
                fresh.dispatch(rec, *client, call, None).unwrap();
            }
            let (sealed, name) = (
                stack.sealed(),
                format!("{} on {}", program.name(), fs.name()),
            );
            let digests = sealed.live().per_server_digests();
            assert_eq!(digests, fresh.live().per_server_digests(), "{name}");
            assert_eq!(digests, stack.pfs.baseline().per_server_digests(), "{name}");
            let view = sealed.client_view(sealed.live());
            assert_eq!(view, fresh.client_view(fresh.live()), "{name}");
            let Some(path) = stack.h5_path.as_deref() else {
                continue;
            };
            let factory = fs.factory(&params);
            let (ranks, pre, spec) = (&stack.h5_ranks, &stack.pre_h5, stack.h5_spec);
            let replayed = |subset: &[_]| replay_h5(&factory, path, ranks, pre, subset, spec);
            let state = stack.sealed_h5().finish(sealed, None).ok();
            assert!(state.is_some(), "{name}");
            assert_eq!(state, replayed(&[]), "{name}");
            for (_, rank, call) in stack.h5.entries() {
                let (mut pfs, mut replay) = (sealed.fork(), stack.sealed_h5());
                replay.step(pfs.as_mut(), *rank, call).unwrap();
                let state = replay.finish(pfs.as_ref(), None).ok();
                let subset = [(*rank, call.clone())];
                assert_eq!(state, replayed(&subset), "{name}: {}", call.name());
            }
        }
    }
}
