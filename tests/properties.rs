//! Property-based tests over the framework's core invariants, driven by
//! randomly generated multi-process traces (hosted on the vendored
//! `pc-rt` property harness; `PC_PROPTEST_SEED` reproduces failures).

use paracrash::{crash_states, PersistAnalysis};
use pc_rt::proptest::{gen_vec, run, Config};
use pc_rt::rng::Rng;
use pc_rt::{prop_assert, prop_assert_eq, prop_assume};
use simfs::{BlockOp, FsOp, JournalMode};
use tracer::{BitSet, CausalityGraph, EventId, Layer, Payload, Process, Recorder};

/// A randomly generated trace: up to ~11 lowermost ops spread over
/// 1–3 servers and chained/crossed by random message edges. The `size`
/// budget bounds both the op count and the edge count, so shrinking a
/// failure yields a smaller trace.
fn arb_trace(rng: &mut Rng, size: usize) -> (Recorder, Vec<usize>) {
    let n = 2 + rng.gen_range(0..=size.min(9) as u64) as usize;
    let servers = rng.gen_range(1u32..4) as u32;
    let edges = gen_vec(rng, size.min(7), |r| {
        (r.next_u32() % 4, (r.next_u64() % 6) as u8)
    });
    let mut rec = Recorder::new();
    let mut ids = Vec::new();
    for i in 0..n {
        let server = (i as u32) % servers;
        let op = match i % 5 {
            0 => FsOp::Creat {
                path: format!("/f{i}"),
            },
            1 => FsOp::Append {
                path: format!("/f{}", i.saturating_sub(1)),
                data: vec![i as u8],
            },
            2 => FsOp::SetXattr {
                path: format!("/f{}", i.saturating_sub(2)),
                key: "user.k".into(),
                value: vec![i as u8],
            },
            3 => FsOp::Fsync {
                path: format!("/f{}", i.saturating_sub(3)),
            },
            _ => FsOp::Unlink {
                path: format!("/f{}", i.saturating_sub(4)),
            },
        };
        ids.push(rec.record(
            Layer::LocalFs,
            Process::Server(server),
            Payload::Fs { server, op },
            None,
        ));
    }
    // Random forward cross-server edges.
    for (a, b) in edges {
        let (a, b) = (a as usize % n, b as usize % n);
        if a < b {
            rec.add_edge(ids[a], ids[b]);
        }
    }
    (rec, ids)
}

/// [`arb_trace`] at the width of a real trace: `2..=max_ops` lowermost
/// ops, each behind a run of client-side events as an RPC stack records
/// them, so event ids — and with them every bitset — run past one and
/// two words while the op count (and the number of cuts) stays small.
/// Adds the device-wide and data-only syncs to the op mix.
fn arb_wide_trace(rng: &mut Rng, size: usize, max_ops: usize) -> (Recorder, Vec<usize>) {
    let n = 2 + rng.gen_range(0..=size.min(max_ops - 2) as u64) as usize;
    let servers = rng.gen_range(1u32..4) as u32;
    let edges = gen_vec(rng, size.min(7), |r| {
        (r.next_u32() as usize, r.next_u32() as usize)
    });
    let mut rec = Recorder::new();
    let mut ids = Vec::new();
    for i in 0..n {
        let server = (i as u32) % servers;
        let file = |back: usize| format!("/f{}", i.saturating_sub(back));
        let op = match i % 7 {
            0 => FsOp::Creat { path: file(0) },
            1 => FsOp::Append {
                path: file(1),
                data: vec![i as u8],
            },
            2 => FsOp::SetXattr {
                path: file(2),
                key: "user.k".into(),
                value: vec![i as u8],
            },
            3 => FsOp::Fsync { path: file(3) },
            4 => FsOp::Unlink { path: file(4) },
            5 => FsOp::Fdatasync { path: file(4) },
            _ => FsOp::SyncFs,
        };
        let mut parent = None;
        for _ in 0..rng.gen_range(0..=size.min(30) as u64) {
            let call = Payload::Call {
                name: "rpc".into(),
                args: vec![],
            };
            parent = Some(rec.record(Layer::PfsClient, Process::Client(0), call, None));
        }
        ids.push(rec.record(
            Layer::LocalFs,
            Process::Server(server),
            Payload::Fs { server, op },
            parent,
        ));
    }
    for (a, b) in edges {
        let (a, b) = (a % n, b % n);
        if a < b {
            rec.add_edge(ids[a], ids[b]);
        }
    }
    (rec, ids)
}

const JOURNAL_MODES: [JournalMode; 4] = [
    JournalMode::Data,
    JournalMode::Ordered,
    JournalMode::Writeback,
    JournalMode::None,
];

/// A random subset of `of`, as a set over `len` elements.
fn arb_subset(rng: &mut Rng, len: usize, of: &[EventId]) -> BitSet {
    BitSet::from_iter(len, of.iter().copied().filter(|_| rng.gen_index(4) != 0))
}

/// `depends_on` as a fixpoint, straight from its definition: keep adding
/// the universe's updates that some member persists before. Rests on
/// nothing — not on id order, not on the row layout.
fn closure_reference(pa: &PersistAnalysis, victim: EventId, universe: &BitSet) -> BitSet {
    let mut deps = BitSet::new(universe.capacity());
    deps.insert(victim);
    loop {
        let grown: Vec<EventId> = pa
            .updates()
            .iter()
            .copied()
            .filter(|&op| universe.contains(op) && !deps.contains(op))
            .filter(|&op| deps.iter().any(|d| pa.persists_before(d, op)))
            .collect();
        if grown.is_empty() {
            return deps;
        }
        for op in grown {
            deps.insert(op);
        }
    }
}

/// `PersistAnalysis::pinned` as it was before the committing-sync
/// table: scan the syncs of the cut for one that commits `v` after it.
fn pinned_reference(
    rec: &Recorder,
    g: &CausalityGraph,
    syncs: &[EventId],
    v: EventId,
    cut: &BitSet,
) -> bool {
    let commits = |s: EventId| match (&rec.event(v).payload, &rec.event(s).payload) {
        (
            Payload::Fs { server: sa, op },
            Payload::Fs {
                server: ss,
                op: sync,
            },
        ) => {
            sa == ss
                && match sync {
                    FsOp::SyncFs => true,
                    FsOp::Fsync { path } | FsOp::Fdatasync { path } => {
                        op.paths().contains(&path.as_str())
                    }
                    _ => false,
                }
        }
        (Payload::Block { server: sa, .. }, Payload::Block { server: ss, op }) => {
            sa == ss && matches!(op, BlockOp::SyncCache)
        }
        _ => false,
    };
    syncs
        .iter()
        .any(|&s| cut.contains(s) && commits(s) && g.happens_before(v, s))
}

/// Algorithm 1 as `crash_states` enumerated it before closures were
/// taken once per cut: every victim list rebuilds each closure, checks
/// it against the pinned updates still persisted, and states dedup on
/// the listed members of `(persisted, cut)`. Frozen here, over the two
/// references above. Yields `(cut, victims, persisted)` in output order.
fn crash_states_frozen(
    rec: &Recorder,
    g: &CausalityGraph,
    pa: &PersistAnalysis,
    k: usize,
    victim_filter: &dyn Fn(EventId) -> bool,
) -> Vec<(BitSet, Vec<EventId>, BitSet)> {
    let pinned = |v, cut: &BitSet| pinned_reference(rec, g, pa.syncs(), v, cut);
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for cut in g.consistent_cuts(&rec.lowermost_events()) {
        let in_cut = |&u: &EventId| cut.contains(u);
        let cut_updates: Vec<EventId> = pa.updates().iter().copied().filter(in_cut).collect();
        let universe = BitSet::from_iter(rec.len(), cut_updates.iter().copied());
        let candidates: Vec<EventId> = cut_updates
            .iter()
            .copied()
            .filter(|&u| !pinned(u, &cut) && victim_filter(u))
            .collect();
        let mut push = |victims: Vec<EventId>| {
            let mut persisted = universe.clone();
            for &v in &victims {
                let deps = closure_reference(pa, v, &universe);
                if deps
                    .iter()
                    .any(|d| d != v && pinned(d, &cut) && persisted.contains(d))
                {
                    return;
                }
                persisted.subtract(&deps);
            }
            let mut key: Vec<u64> = persisted.iter().map(|i| i as u64).collect();
            key.push(u64::MAX);
            key.extend(cut.iter().map(|i| i as u64));
            if seen.insert(key) {
                out.push((cut.clone(), victims, persisted));
            }
        };
        push(Vec::new());
        if k >= 1 {
            for &v in &candidates {
                push(vec![v]);
            }
        }
        if k >= 2 {
            for (i, &v1) in candidates.iter().enumerate() {
                for &v2 in &candidates[i + 1..] {
                    push(vec![v1, v2]);
                }
            }
        }
    }
    out
}

/// Every enumerated consistent cut is downward-closed under
/// happens-before.
#[test]
fn consistent_cuts_are_downward_closed() {
    run(
        "consistent_cuts_are_downward_closed",
        &Config::with_cases(64),
        arb_trace,
        |(rec, ids)| {
            let g = CausalityGraph::build(rec);
            for cut in g.consistent_cuts(ids) {
                prop_assert!(g.is_consistent_cut(&cut, ids));
                for &a in ids {
                    for &b in ids {
                        if g.happens_before(a, b) && cut.contains(b) {
                            prop_assert!(cut.contains(a), "cut not downward closed");
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// `happens_before` from the causality graph is a strict partial order.
#[test]
fn graph_hb_is_a_partial_order() {
    run(
        "graph_hb_is_a_partial_order",
        &Config::with_cases(64),
        arb_trace,
        |(rec, ids)| {
            let g = CausalityGraph::build(rec);
            for &a in ids {
                prop_assert!(!g.happens_before(a, a), "irreflexive");
                for &b in ids {
                    if g.happens_before(a, b) {
                        prop_assert!(!g.happens_before(b, a), "antisymmetric");
                        for &c in ids {
                            if g.happens_before(b, c) {
                                prop_assert!(g.happens_before(a, c), "transitive");
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// Crash states never violate the persists-before relation: if
/// `a persists_before b` and `b` persisted, `a` persisted.
#[test]
fn crash_states_respect_persistence_order() {
    run(
        "crash_states_respect_persistence_order",
        &Config::with_cases(64),
        arb_trace,
        |(rec, _ids)| {
            let g = CausalityGraph::build(rec);
            let pa = paracrash::PersistAnalysis::build(rec, &g, |_| Some(JournalMode::Data));
            let states = paracrash::crash_states(rec, &g, &pa, 2, None);
            prop_assert!(!states.is_empty());
            for st in &states {
                for &a in pa.updates() {
                    for &b in pa.updates() {
                        if pa.persists_before(a, b) && st.persisted.contains(b) {
                            prop_assert!(
                                st.persisted.contains(a),
                                "state drops {a} but keeps its dependent {b}"
                            );
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// Synced updates are pinned: any crash state whose cut includes the
/// covering fsync persists the update.
#[test]
fn synced_updates_survive_every_crash() {
    run(
        "synced_updates_survive_every_crash",
        &Config::with_cases(64),
        arb_trace,
        |(rec, _ids)| {
            let g = CausalityGraph::build(rec);
            let pa = paracrash::PersistAnalysis::build(rec, &g, |_| Some(JournalMode::Writeback));
            let states = paracrash::crash_states(rec, &g, &pa, 2, None);
            for st in &states {
                for &u in pa.updates() {
                    if st.cut.contains(u) && pa.pinned(u, &st.cut) {
                        prop_assert!(st.persisted.contains(u), "pinned update {u} dropped");
                    }
                }
            }
            Ok(())
        },
    );
}

/// The one-pass row-OR closure equals the fixpoint definition, on traces
/// whose rows span several words, over universes that are *not*
/// downward-closed (the classifier's extended universe is one), with a
/// victim in or out of the universe, under every journaling mode.
#[test]
fn closure_matches_its_definition() {
    run(
        "closure_matches_its_definition",
        &Config::with_cases(48).max_size(160),
        |rng, size| {
            let (rec, ids) = arb_wide_trace(rng, size, 150);
            (rec, ids, rng.next_u64())
        },
        |(rec, _ids, seed)| {
            let g = CausalityGraph::build(rec);
            let mut rng = Rng::new(*seed);
            for mode in JOURNAL_MODES {
                let pa = PersistAnalysis::build(rec, &g, |_| Some(mode));
                let updates = pa.updates();
                prop_assume!(!updates.is_empty());
                let universe = arb_subset(&mut rng, rec.len(), updates);
                for _ in 0..6 {
                    let victim = updates[rng.gen_index(updates.len())];
                    let deps = pa.depends_on(victim, &universe);
                    let expected = closure_reference(&pa, victim, &universe);
                    prop_assert!(
                        deps == expected,
                        "{mode:?} victim {victim}: {:?}, by definition {:?}",
                        deps.iter().collect::<Vec<_>>(),
                        expected.iter().collect::<Vec<_>>()
                    );
                }
            }
            Ok(())
        },
    );
}

/// `pinned` read off the committing-sync table equals the scan over the
/// cut's syncs it replaced, on any set of events as the cut.
#[test]
fn pinned_matches_the_sync_scan() {
    run(
        "pinned_matches_the_sync_scan",
        &Config::with_cases(64),
        |rng, size| {
            let (rec, ids) = arb_wide_trace(rng, size, 40);
            (rec, ids, rng.next_u64())
        },
        |(rec, ids, seed)| {
            let g = CausalityGraph::build(rec);
            let pa = PersistAnalysis::build(rec, &g, |_| Some(JournalMode::Writeback));
            let mut rng = Rng::new(*seed);
            for _ in 0..4 {
                let cut = arb_subset(&mut rng, rec.len(), ids);
                for &u in pa.updates() {
                    prop_assert_eq!(
                        pa.pinned(u, &cut),
                        pinned_reference(rec, &g, pa.syncs(), u, &cut)
                    );
                }
            }
            Ok(())
        },
    );
}

/// `crash_states` emits exactly the states, in exactly the order, of
/// the frozen per-victim-list enumerator — narrow traces and wide ones,
/// with and without a victim filter, for k = 0..2.
#[test]
fn crash_states_match_the_frozen_enumerator() {
    run(
        "crash_states_match_the_frozen_enumerator",
        &Config::with_cases(48),
        |rng, size| {
            let (rec, _) = match rng.next_u32() % 2 {
                0 => arb_trace(rng, size),
                _ => arb_wide_trace(rng, size, 12),
            };
            (
                rec,
                rng.next_u32() % 2 == 0,
                rng.gen_index(JOURNAL_MODES.len()),
            )
        },
        |(rec, filtered, mode)| {
            let g = CausalityGraph::build(rec);
            let pa = PersistAnalysis::build(rec, &g, |_| Some(JOURNAL_MODES[*mode]));
            let filter = |e: EventId| !(*filtered && e.is_multiple_of(3));
            for k in 0..=2 {
                let states = crash_states(rec, &g, &pa, k, Some(&filter));
                let frozen = crash_states_frozen(rec, &g, &pa, k, &filter);
                prop_assert_eq!(states.len(), frozen.len());
                for (st, (cut, victims, persisted)) in states.iter().zip(&frozen) {
                    prop_assert!(
                        st.cut == *cut && st.victims == *victims && st.persisted == *persisted,
                        "k = {k}: state {:?} / {:?} / {:?}, frozen {:?} / {:?} / {:?}",
                        st.cut.iter().collect::<Vec<_>>(),
                        st.victims,
                        st.persisted.iter().collect::<Vec<_>>(),
                        cut.iter().collect::<Vec<_>>(),
                        victims,
                        persisted.iter().collect::<Vec<_>>()
                    );
                }
            }
            Ok(())
        },
    );
}

/// Every closure of a 1 500-update data-journal chain on one server —
/// each the whole tail, 1.1 million members in all. A closure that
/// searched for a member's row, or asked per (member, op) pair, would
/// take ~10¹² steps here; as row ORs it is a few million word
/// operations.
#[test]
fn closures_of_a_long_chain_are_row_ors() {
    const N: usize = 1500;
    let mut rec = Recorder::new();
    let ids: Vec<EventId> = (0..N)
        .map(|i| {
            let op = FsOp::Creat {
                path: format!("/f{i}"),
            };
            rec.record(
                Layer::LocalFs,
                Process::Server(0),
                Payload::Fs { server: 0, op },
                None,
            )
        })
        .collect();
    let g = CausalityGraph::build(&rec);
    let pa = PersistAnalysis::build(&rec, &g, |_| Some(JournalMode::Data));
    let universe = BitSet::from_iter(rec.len(), ids.iter().copied());
    let mut deps = BitSet::new(rec.len());
    for (i, &v) in ids.iter().enumerate() {
        pa.depends_on_into(v, &universe, &mut deps);
        assert_eq!(deps.count(), N - i, "closure of update {i}");
        assert!(!deps.contains(v.wrapping_sub(1)), "closure of update {i}");
    }
    assert_eq!(pa.closures_taken(), N as u64);
}

/// Model lattice: every causal preserved set is also a legal commit
/// and baseline preserved set.
#[test]
fn weaker_models_admit_more() {
    run(
        "weaker_models_admit_more",
        &Config::with_cases(64),
        arb_trace,
        |(rec, ids)| {
            prop_assume!(ids.len() <= 8);
            let g = CausalityGraph::build(rec);
            let causal = paracrash::Model::Causal.preserved_sets(&g, ids, &[]);
            let commit: std::collections::BTreeSet<Vec<usize>> = paracrash::Model::Commit
                .preserved_sets(&g, ids, &[])
                .into_iter()
                .map(|mut s| {
                    s.sort_unstable();
                    s
                })
                .collect();
            let baseline: std::collections::BTreeSet<Vec<usize>> = paracrash::Model::Baseline
                .preserved_sets(&g, ids, &[])
                .into_iter()
                .map(|mut s| {
                    s.sort_unstable();
                    s
                })
                .collect();
            for mut s in causal {
                s.sort_unstable();
                prop_assert!(commit.contains(&s));
                prop_assert!(baseline.contains(&s));
            }
            // Strict's single set is causal-legal.
            let strict = paracrash::Model::Strict.preserved_sets(&g, ids, &[]);
            prop_assert_eq!(strict.len(), 1);
            Ok(())
        },
    );
}

/// Replaying any subset of ops leaves the local FS structurally
/// clean (the invariant ParaCrash's state materialization relies
/// on).
#[test]
fn lenient_replay_preserves_fs_invariants() {
    run(
        "lenient_replay_preserves_fs_invariants",
        &Config::with_cases(64),
        |rng, size| {
            let (rec, ids) = arb_trace(rng, size);
            let mask = rng.next_u64();
            (rec, ids, mask)
        },
        |(rec, ids, mask)| {
            let mut fs = simfs::FsState::new();
            let ops: Vec<&FsOp> = ids
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> (i % 64) & 1 == 1)
                .filter_map(|(_, &id)| match &rec.event(id).payload {
                    Payload::Fs { op, .. } => Some(op),
                    _ => None,
                })
                .collect();
            fs.apply_lenient(ops);
            prop_assert!(simfs::Fsck::is_clean(&fs));
            Ok(())
        },
    );
}

/// Bitset algebra sanity under random operations.
#[test]
fn bitset_algebra() {
    run(
        "bitset_algebra",
        &Config::with_cases(64),
        |rng, size| {
            let set = |r: &mut Rng| -> std::collections::BTreeSet<usize> {
                gen_vec(r, size.min(39), |r| r.gen_index(200))
                    .into_iter()
                    .collect()
            };
            (set(rng), set(rng))
        },
        |(xs, ys)| {
            let a = BitSet::from_iter(200, xs.iter().copied());
            let b = BitSet::from_iter(200, ys.iter().copied());
            let mut u = a.clone();
            u.union_with(&b);
            prop_assert_eq!(u.count(), xs.union(ys).count());
            let mut d = a.clone();
            d.subtract(&b);
            prop_assert_eq!(d.count(), xs.difference(ys).count());
            prop_assert_eq!(a.is_disjoint(&b), xs.is_disjoint(ys));
            prop_assert_eq!(a.intersects(&b), !xs.is_disjoint(ys));
            prop_assert_eq!(a.is_subset(&u), true);
            let mut i = a.clone();
            i.intersect_with(&b);
            prop_assert_eq!(
                i.iter().collect::<Vec<_>>(),
                xs.intersection(ys).copied().collect::<Vec<_>>()
            );
            // Word-skipping iteration against the bit-by-bit filter.
            let bit_by_bit: Vec<usize> = (0..200).filter(|&e| a.contains(e)).collect();
            prop_assert_eq!(a.iter().collect::<Vec<_>>(), bit_by_bit);
            for e in 0..200 {
                prop_assert_eq!(a.next_after(e), xs.range(e + 1..).next().copied());
            }
            // `d |= a & b` from element `from` on leaves the words below
            // alone and equals the plain algebra above them.
            let from = xs.first().copied().unwrap_or(0);
            let mut d = BitSet::new(200);
            d.union_with_intersection_from(&a, &b, from);
            let expected: Vec<usize> = xs
                .intersection(ys)
                .copied()
                .filter(|&e| e / 64 >= from / 64)
                .collect();
            prop_assert_eq!(d.iter().collect::<Vec<_>>(), expected);
            Ok(())
        },
    );
}

/// Logical equality of two crash-state images: every local file system
/// holds the same tree (inode numbering aside — it is not on disk in
/// any way recovery or mounting reads), every block device the same
/// blocks.
fn same_image(a: &pfs::ServerStates, b: &pfs::ServerStates) -> bool {
    a.len() == b.len()
        && (0..a.len() as u32).all(|s| match (a.server(s), b.server(s)) {
            (pfs::Store::Fs { state: x, .. }, pfs::Store::Fs { state: y, .. }) => x.same_tree(y),
            (x, y) => x == y,
        })
}

/// The soundness of the recovery memo's key on `fs`: images are random
/// subsequences of the storage ops (`FsOp`s or `BlockOp`s) real
/// programs emit, applied to the sealed baseline in different
/// cross-server interleavings.
///
/// * Interleaving does not matter: per-server order kept, the stores
///   are `==` and digest alike however the servers' ops interleave.
/// * `ServerStates::digest()` is equal exactly when the images are —
///   a digest that skipped a store, a block tag or an xattr would call
///   different images one.
/// * Equal images recover and mount to equal `PfsView`s: nothing but
///   the stores feeds recovery.
fn digest_is_a_sound_recovery_key(name: &str, fs: workloads::FsKind) {
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use workloads::{Params, Program};
    let params = Params::quick();
    let stacks: Vec<paracrash::Stack> = [Program::Arvr, Program::Wal, Program::H5Create]
        .iter()
        .map(|p| p.run(fs, &params))
        .collect();
    let storage_ops = |stack: &paracrash::Stack| -> Vec<EventId> {
        (stack.rec.events().iter())
            .filter(|e| matches!(e.payload, Payload::Fs { .. } | Payload::Block { .. }))
            .map(|e| e.id)
            .collect()
    };
    let (equal_pairs, distinct_pairs) = (AtomicUsize::new(0), AtomicUsize::new(0));
    run(
        name,
        &Config::with_cases(192),
        |rng, size| {
            let which = rng.gen_range(0..stacks.len() as u64) as usize;
            let n = storage_ops(&stacks[which]).len();
            let keep: Vec<bool> = (0..n).map(|_| rng.next_u32() % 8 != 0).collect();
            let flips = gen_vec(rng, size.min(3), |r| r.gen_range(0..n as u64) as usize);
            (which, keep, flips)
        },
        |(which, keep, flips)| {
            let stack = &stacks[*which];
            let ops = storage_ops(stack);
            let server_of = |id: EventId| match stack.rec.event(id).payload {
                Payload::Fs { server, .. } | Payload::Block { server, .. } => server,
                _ => unreachable!("storage ops only"),
            };
            let apply = |order: &[EventId]| {
                let mut image = stack.pfs.baseline().fork();
                for &id in order {
                    match &stack.rec.event(id).payload {
                        Payload::Fs { server, op } => image.server_mut(*server).apply_fs(op),
                        Payload::Block { server, op } => image.server_mut(*server).apply_block(op),
                        _ => unreachable!("storage ops only"),
                    }
                }
                image
            };
            let kept = |keep: &[bool]| -> Vec<EventId> {
                (ops.iter().zip(keep))
                    .filter_map(|(&id, &k)| k.then_some(id))
                    .collect()
            };
            let recovered = |image: &pfs::ServerStates| {
                pfs::recover_and_mount(stack.pfs.as_ref(), &mut image.fork())
            };

            // One subsequence, trace order against server-by-server.
            let in_trace_order = kept(keep);
            let mut by_server = in_trace_order.clone();
            by_server.sort_by_key(|&id| (server_of(id), id));
            let (a, a2) = (apply(&in_trace_order), apply(&by_server));
            prop_assert!(a == a2, "interleaving changed the stores");
            prop_assert_eq!(a.digest(), a2.digest());

            // A nearby subsequence: the digests agree exactly when the
            // images do, and equal images recover alike.
            let mut keep_b = keep.clone();
            for &f in flips {
                keep_b[f] = !keep_b[f];
            }
            let b = apply(&kept(&keep_b));
            let same = same_image(&a, &b);
            prop_assert_eq!(a.digest() == b.digest(), same);
            if same {
                let (va, vb) = (recovered(&a), recovered(&b));
                prop_assert!(va == vb, "equal images, different views");
                prop_assert_eq!(va.digest(), vb.digest());
            }
            let tally = if same && keep_b != *keep {
                &equal_pairs
            } else {
                &distinct_pairs
            };
            tally.fetch_add(1, Relaxed);
            Ok(())
        },
    );
    // Both sides of the equivalence were exercised.
    assert!(
        equal_pairs.load(Relaxed) > 0,
        "no two subsequences coincided"
    );
    assert!(distinct_pairs.load(Relaxed) > 0);
}

#[test]
fn digest_is_a_sound_recovery_key_on_beegfs() {
    digest_is_a_sound_recovery_key(
        "digest_is_a_sound_recovery_key_on_beegfs",
        workloads::FsKind::BeeGfs,
    );
}

#[test]
fn digest_is_a_sound_recovery_key_on_gpfs() {
    digest_is_a_sound_recovery_key(
        "digest_is_a_sound_recovery_key_on_gpfs",
        workloads::FsKind::Gpfs,
    );
}

/// The golden walk is `replay_pfs`, set by set: for a random bound-3
/// POSIX workload on a random file system and a random family of
/// subsequences of its calls — duplicates and non-executable ones (a
/// dropped `creat` under a later write) included — the table one walk
/// fills holds, per set, what one full replay on a fresh instance
/// returns, `None`s included. (No model rejects a bound-3 subsequence
/// the namespace mirror admits; `golden::tests` covers that path and the
/// panicking one with a faulty double.)
#[test]
fn golden_walk_equals_full_replays_on_random_families() {
    use paracrash::stack::replay_pfs;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use workloads::{generated, FsKind, Params};
    let workloads = generated::posix_sequences(3);
    let params = Params::quick();
    let (legal, illegal) = (AtomicUsize::new(0), AtomicUsize::new(0));
    run(
        "golden_walk_equals_full_replays_on_random_families",
        &Config::with_cases(128),
        |rng, size| {
            let workload = rng.gen_range(0..workloads.len() as u64) as usize;
            let fs = rng.gen_range(0..FsKind::all().len() as u64) as usize;
            let masks = gen_vec(rng, 1 + size.min(11), |r| r.next_u32() % 8);
            (workload, fs, masks)
        },
        |(workload, fs, masks)| {
            let fs = FsKind::all()[*fs];
            let stack = workloads[*workload].run(fs, &params);
            let factory = fs.factory(&params);
            let ids = stack.calls.event_ids();
            let sets: Vec<Vec<EventId>> = (masks.iter())
                .map(|mask| {
                    let kept = ids.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1);
                    kept.map(|(_, &id)| id).collect()
                })
                .collect();
            let walked = paracrash::golden::walk_pfs(&stack, &factory, &sets);
            for (set, walked) in sets.iter().zip(walked) {
                let replayed = replay_pfs(&factory, &stack.pre_calls, &stack.calls.subset(set));
                let tally = if replayed.is_some() { &legal } else { &illegal };
                tally.fetch_add(1, Relaxed);
                prop_assert!(walked == Ok(replayed), "{fs:?} {set:?} of {ids:?}");
            }
            Ok(())
        },
    );
    assert!(legal.load(Relaxed) > 0 && illegal.load(Relaxed) > 0);
}
