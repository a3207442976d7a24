//! Property-based tests over the framework's core invariants, driven by
//! randomly generated multi-process traces (hosted on the vendored
//! `pc-rt` property harness; `PC_PROPTEST_SEED` reproduces failures).

use paracrash::{crash_states, PersistAnalysis};
use pc_rt::proptest::{gen_vec, run, Config};
use pc_rt::rng::Rng;
use pc_rt::{prop_assert, prop_assert_eq, prop_assume};
use simfs::{BlockOp, FsOp, JournalMode};
use std::collections::BTreeMap;
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
    for cut in consistent_cuts_frozen(g, &rec.lowermost_events(), &[]) {
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

/// `CausalityGraph::consistent_cuts` as it enumerated before each
/// position's predecessors became one mask: a recursion over the
/// universe in its order, include before exclude, each node asking
/// `happens_before` of every earlier position, cuts over event ids, and
/// `required` filtered afterwards. Frozen here as the order oracle.
fn consistent_cuts_frozen(
    g: &CausalityGraph,
    universe: &[EventId],
    required: &[EventId],
) -> Vec<BitSet> {
    fn extend_cut(
        g: &CausalityGraph,
        universe: &[EventId],
        idx: usize,
        current: &mut BitSet,
        out: &mut Vec<BitSet>,
    ) {
        if idx == universe.len() {
            out.push(current.clone());
            return;
        }
        let e = universe[idx];
        let preds_ok = universe[..idx]
            .iter()
            .all(|&p| !g.happens_before(p, e) || current.contains(p));
        if preds_ok {
            current.insert(e);
            extend_cut(g, universe, idx + 1, current, out);
            current.remove(e);
        }
        extend_cut(g, universe, idx + 1, current, out);
    }
    let mut cuts = Vec::new();
    extend_cut(g, universe, 0, &mut BitSet::new(g.len()), &mut cuts);
    cuts.retain(|cut| required.iter().all(|&r| cut.contains(r)));
    cuts
}

/// `consistent_cuts`' masks over universe positions, as sets of event
/// ids in enumeration order.
fn cuts_of(g: &CausalityGraph, universe: &[EventId], required: &[EventId]) -> Vec<BitSet> {
    let mut cuts = Vec::new();
    g.consistent_cuts(universe, required, |mask| {
        cuts.push(BitSet::from_iter(g.len(), mask.iter().map(|i| universe[i])));
    });
    cuts
}

/// A universe drawn from a trace's ops (in id order, or shuffled: the
/// enumeration is over positions) and a `required` drawn from it, now
/// and then with an op outside the universe.
fn arb_cut_query(rng: &mut Rng, size: usize) -> (Recorder, Vec<EventId>, Vec<EventId>) {
    let (rec, ids) = match rng.next_u32() % 2 {
        0 => arb_trace(rng, size),
        _ => arb_wide_trace(rng, size, 12),
    };
    let (mut universe, outside): (Vec<EventId>, Vec<EventId>) =
        ids.iter().copied().partition(|_| rng.gen_index(4) != 0);
    if rng.gen_index(4) == 0 {
        rng.shuffle(&mut universe);
    }
    let mut required: Vec<EventId> = (universe.iter().copied())
        .filter(|_| rng.gen_index(4) == 0)
        .collect();
    if rng.gen_index(4) == 0 {
        required.extend(outside.first());
    }
    (rec, universe, required)
}

/// The enumerator yields the frozen recursion's cuts, cut for cut and
/// in its order (the order reports and legal lists are built in).
#[test]
fn consistent_cuts_equal_the_frozen_recursion() {
    run(
        "consistent_cuts_equal_the_frozen_recursion",
        &Config::with_cases(128),
        arb_cut_query,
        |(rec, universe, required)| {
            let g = CausalityGraph::build(rec);
            let frozen = consistent_cuts_frozen(&g, universe, required);
            prop_assert!(
                cuts_of(&g, universe, required) == frozen,
                "cuts or order differ"
            );
            Ok(())
        },
    );
}

/// The enumerator is complete: on universes of up to 10 ops (kept in
/// id order) it yields every subset that is a consistent cut holding
/// `required`, each once.
#[test]
fn consistent_cuts_are_every_consistent_subset() {
    run(
        "consistent_cuts_are_every_consistent_subset",
        &Config::with_cases(64),
        |rng, size| {
            let (rec, mut universe, required) = arb_cut_query(rng, size);
            universe.sort_unstable();
            universe.truncate(10);
            (rec, universe, required)
        },
        |(rec, universe, required)| {
            let g = CausalityGraph::build(rec);
            let mut brute = Vec::new();
            for mask in 0u32..1 << universe.len() {
                let members = (0..universe.len()).filter(|i| mask >> i & 1 == 1);
                let set = BitSet::from_iter(rec.len(), members.map(|i| universe[i]));
                if g.is_consistent_cut(&set, universe) && required.iter().all(|&r| set.contains(r))
                {
                    brute.push(set);
                }
            }
            let mut cuts = cuts_of(&g, universe, required);
            let key = |c: &BitSet| c.iter().collect::<Vec<_>>();
            cuts.sort_by_key(key);
            brute.sort_by_key(key);
            prop_assert!(
                cuts == brute,
                "{} cuts, {} by brute force",
                cuts.len(),
                brute.len()
            );
            Ok(())
        },
    );
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
            for cut in cuts_of(&g, ids, &[]) {
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

/// Happens-before from its definition, sharing nothing with the graph's
/// id-ordered closure rows: `reach[a][b]` iff a depth-first search from
/// `a` over program order, caller links and extra edges reaches `b`.
fn hb_reference(rec: &Recorder) -> Vec<Vec<bool>> {
    let mut succ: Vec<Vec<EventId>> = vec![Vec::new(); rec.len()];
    for (_, ids) in rec.per_process() {
        ids.windows(2).for_each(|w| succ[w[0]].push(w[1]));
    }
    let callers = rec.events().iter().filter_map(|e| Some((e.parent?, e.id)));
    for (a, b) in callers.chain(rec.extra_edges().iter().copied()) {
        succ[a].push(b);
    }
    let dfs = |a: EventId| {
        let (mut seen, mut stack) = (vec![false; rec.len()], succ[a].clone());
        while let Some(e) = stack.pop() {
            if !std::mem::replace(&mut seen[e], true) {
                stack.extend(&succ[e]);
            }
        }
        seen
    };
    (0..rec.len()).map(dfs).collect()
}

/// `happens_before` and `concurrent` equal [`hb_reference`] on every pair
/// of events; `Ok` carries the number of concurrent pairs.
fn hb_matches_reference(rec: &Recorder) -> Result<usize, String> {
    let (g, reach) = (CausalityGraph::build(rec), hb_reference(rec));
    let mut concurrent = 0;
    for (a, row) in reach.iter().enumerate() {
        for (b, &hb) in row.iter().enumerate() {
            let independent = a != b && !hb && !reach[b][a];
            prop_assert_eq!((a, b, g.happens_before(a, b)), (a, b, hb));
            prop_assert_eq!((a, b, g.concurrent(a, b)), (a, b, independent));
            concurrent += usize::from(independent);
        }
    }
    Ok(concurrent / 2)
}

/// The graph's happens-before is reachability, on random traces whose
/// rows span several words.
#[test]
fn graph_hb_matches_the_reachability_reference() {
    run(
        "graph_hb_matches_the_reachability_reference",
        &Config::with_cases(64),
        |rng, size| arb_wide_trace(rng, size, 40),
        |(rec, _)| hb_matches_reference(rec).map(drop),
    );
}

/// … and on real program traces; the collective create really produces
/// concurrent pairs.
#[test]
fn graph_hb_matches_the_reference_on_program_traces() {
    use workloads::{FsKind, Params, Program};
    for (program, fs) in [
        (Program::Arvr, FsKind::BeeGfs),
        (Program::Wal, FsKind::GlusterFs),
        (Program::H5ParallelCreate, FsKind::Lustre),
        (Program::Cr, FsKind::Gpfs),
        (Program::H5ParallelCreate, FsKind::BeeGfs),
    ] {
        let cell = format!("{} on {}", program.name(), fs.name());
        let stack = program.run(fs, &Params::quick());
        let concurrent = hb_matches_reference(&stack.rec).unwrap_or_else(|e| panic!("{cell}: {e}"));
        if program == Program::H5ParallelCreate {
            assert!(concurrent > 0, "{cell}: no concurrent pair");
        }
    }
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

/// The stacks the recovery properties draw their images from: ARVR, WAL
/// and H5-create traced on `fs` with `params`.
fn image_stacks(fs: workloads::FsKind, params: &workloads::Params) -> Vec<paracrash::Stack> {
    use workloads::Program;
    [Program::Arvr, Program::Wal, Program::H5Create]
        .iter()
        .map(|p| p.run(fs, params))
        .collect()
}

/// The storage ops (`FsOp`s and `BlockOp`s) of a traced run, in trace
/// order.
fn storage_ops(stack: &paracrash::Stack) -> Vec<EventId> {
    (stack.rec.events().iter())
        .filter(|e| matches!(e.payload, Payload::Fs { .. } | Payload::Block { .. }))
        .map(|e| e.id)
        .collect()
}

/// A random crash image of one of `stacks`: its index, and per storage
/// op whether it persisted (seven in eight do).
fn arb_image(rng: &mut Rng, stacks: &[paracrash::Stack]) -> (usize, Vec<bool>) {
    let which = rng.gen_range(0..stacks.len() as u64) as usize;
    let n = storage_ops(&stacks[which]).len();
    let keep = (0..n).map(|_| !rng.next_u32().is_multiple_of(8)).collect();
    (which, keep)
}

/// The ops of `stack` that `keep` marks.
fn kept(stack: &paracrash::Stack, keep: &[bool]) -> Vec<EventId> {
    (storage_ops(stack).into_iter().zip(keep))
        .filter_map(|(id, &k)| k.then_some(id))
        .collect()
}

/// `order`'s storage ops applied, in that order, to a fork of the sealed
/// baseline of `stack`.
fn image_of(stack: &paracrash::Stack, order: &[EventId]) -> pfs::ServerStates {
    let mut image = stack.pfs.baseline().fork();
    for &id in order {
        match &stack.rec.event(id).payload {
            Payload::Fs { server, op } => image.server_mut(*server).apply_fs(op),
            Payload::Block { server, op } => image.server_mut(*server).apply_block(op),
            _ => unreachable!("storage ops only"),
        }
    }
    image
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
    let stacks = image_stacks(fs, &workloads::Params::quick());
    let (equal_pairs, distinct_pairs) = (AtomicUsize::new(0), AtomicUsize::new(0));
    run(
        name,
        &Config::with_cases(192),
        |rng, size| {
            let (which, keep) = arb_image(rng, &stacks);
            let n = keep.len();
            let flips = gen_vec(rng, size.min(3), |r| r.gen_range(0..n as u64) as usize);
            (which, keep, flips)
        },
        |(which, keep, flips)| {
            let stack = &stacks[*which];
            let server_of = |id: EventId| match stack.rec.event(id).payload {
                Payload::Fs { server, .. } | Payload::Block { server, .. } => server,
                _ => unreachable!("storage ops only"),
            };
            let recovered = |image: &pfs::ServerStates| {
                pfs::recover_and_mount(stack.pfs.as_ref(), &mut image.fork())
            };

            // One subsequence, trace order against server-by-server.
            let in_trace_order = kept(stack, keep);
            let mut by_server = in_trace_order.clone();
            by_server.sort_by_key(|&id| (server_of(id), id));
            let (a, a2) = (
                image_of(stack, &in_trace_order),
                image_of(stack, &by_server),
            );
            prop_assert!(a == a2, "interleaving changed the stores");
            prop_assert_eq!(a.digest(), a2.digest());

            // A nearby subsequence: the digests agree exactly when the
            // images do, and equal images recover alike.
            let mut keep_b = keep.clone();
            for &f in flips {
                keep_b[f] = !keep_b[f];
            }
            let b = image_of(stack, &kept(stack, &keep_b));
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

/// Recovery and mount visit only what the crash touched, and that is
/// the whole fsck and the whole mount: on the four striping models
/// (BeeGFS, OrangeFS, Lustre, GlusterFS) at 2 + 2, 32 + 32 and 128 + 128
/// servers — the last at `scale_256`'s 256-byte stripe, so files span
/// many servers — an image forked from the baseline (clean servers share
/// their store with it) and a deep copy of it (every server dirty: the
/// full algorithm) mount the same view, and recovered leave the same
/// stores and mount the same view. The deep copies mount on a freshly
/// formatted instance, whose baseline index lists none of the
/// images' chunks: every stripe by path. On the three models whose fsck
/// indexes the baseline, some cases must repair a server the crash left
/// clean — a chunk whose owner the crash unlinked, a directory object a
/// dirty server's dentry names — or the clean-server half of recovery
/// went untested.
#[test]
fn recovering_a_fork_equals_recovering_the_whole_image() {
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use workloads::FsKind;
    let models = [
        FsKind::BeeGfs,
        FsKind::OrangeFs,
        FsKind::Lustre,
        FsKind::GlusterFs,
    ];
    for fs in models {
        let repaired_clean = AtomicUsize::new(0);
        let quick = workloads::Params::quick();
        for (servers, stripe) in [(2, quick.stripe), (32, quick.stripe), (128, 256)] {
            let params = quick
                .clone()
                .with_servers(servers, servers)
                .with_stripe(stripe);
            let stacks = image_stacks(fs, &params);
            let formatted = fs.factory(&params)();
            let name =
                format!("recovering_a_fork_equals_recovering_the_whole_image/{fs:?}/{servers}");
            run(
                &name,
                &Config::with_cases(128),
                |rng, _| arb_image(rng, &stacks),
                |(which, keep)| {
                    let stack = &stacks[*which];
                    let (pfs, baseline) = (stack.pfs.as_ref(), stack.pfs.baseline());
                    let image = image_of(stack, &kept(stack, keep));
                    let dirty = image.dirty_mask(baseline);
                    let (mut fork, mut whole) = (image.fork(), image.deep_clone());
                    prop_assert!(
                        pfs.client_view(&fork) == formatted.client_view(&whole),
                        "patched mount differs"
                    );
                    pfs.recover(&mut fork);
                    pfs.recover(&mut whole);
                    prop_assert!(same_image(&fork, &whole), "recovered stores differ");
                    prop_assert!(pfs.client_view(&fork) == formatted.client_view(&whole));
                    let after = fork.dirty_mask(baseline);
                    if after
                        .iter()
                        .zip(&dirty)
                        .any(|(&now, &before)| now && !before)
                    {
                        repaired_clean.fetch_add(1, Relaxed);
                    }
                    Ok(())
                },
            );
        }
        assert!(
            fs == FsKind::GlusterFs || repaired_clean.load(Relaxed) > 0,
            "{fs:?}: no case repaired a clean server"
        );
    }
}

/// `view` with each run copied into one the view owns, the files split
/// where they were.
fn owned_runs(view: &pfs::PfsView) -> pfs::PfsView {
    let mut out = pfs::PfsView::new();
    for dir in view.dirs_sorted() {
        out.add_dir(dir);
    }
    for (path, content) in view.files_sorted() {
        let Some(content) = content else {
            out.add_damaged_file(path);
            continue;
        };
        let mut owned = pfs::view::Content::default();
        for run in content.runs() {
            owned.push(std::sync::Arc::new(run.to_vec()));
        }
        out.add_file(path, owned);
    }
    out
}

/// A mount borrows the stores' bytes, and nothing a checker decides can
/// tell: on all six models — the four striping ones at 2 + 2 servers and
/// at 128 + 128 with `scale_256`'s 256-byte stripe, so a file is many
/// shared runs — the recovered view of a random image equals its
/// [`flat`](pfs::PfsView::flat) copy (each file one owned buffer, the
/// copying mount), digests as a copy that owns each of its runs, and for
/// a nearby image both `==` and digest equality answer as they do
/// between the flat copies: the models split equal bytes alike, so the
/// run-folded digest merges what `==` merges.
#[test]
fn a_borrowed_view_equals_its_flat_copy() {
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use workloads::FsKind;
    let (equal_pairs, distinct_pairs) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let quick = workloads::Params::quick();
    let striped = |servers, stripe| {
        quick
            .clone()
            .with_servers(servers, servers)
            .with_stripe(stripe)
    };
    let mut configs = vec![(FsKind::Gpfs, quick.clone()), (FsKind::Ext4, quick.clone())];
    for fs in [
        FsKind::BeeGfs,
        FsKind::OrangeFs,
        FsKind::Lustre,
        FsKind::GlusterFs,
    ] {
        configs.push((fs, striped(2, quick.stripe)));
        configs.push((fs, striped(128, 256)));
    }
    for (fs, params) in configs {
        let stacks = image_stacks(fs, &params);
        let name = format!(
            "a_borrowed_view_equals_its_flat_copy/{fs:?}/{}",
            params.storage
        );
        run(
            &name,
            &Config::with_cases(64),
            |rng, size| {
                let (which, keep) = arb_image(rng, &stacks);
                let n = keep.len();
                let flips = gen_vec(rng, size.min(3), |r| r.gen_range(0..n as u64) as usize);
                (which, keep, flips)
            },
            |(which, keep, flips)| {
                let stack = &stacks[*which];
                let view = |keep: &[bool]| {
                    let mut image = image_of(stack, &kept(stack, keep));
                    pfs::recover_and_mount(stack.pfs.as_ref(), &mut image)
                };
                let mut keep_b = keep.clone();
                for &f in flips {
                    keep_b[f] = !keep_b[f];
                }
                let (a, b) = (view(keep), view(&keep_b));
                let (flat_a, flat_b) = (a.flat(), b.flat());
                prop_assert!(a == flat_a, "a view differs from its flat copy");
                // The digest folds the runs' cached digests: a copy
                // that owns each run, split where the stores split it,
                // digests alike. The flat copy may not (one run).
                prop_assert_eq!(a.digest(), owned_runs(&a).digest());
                prop_assert_eq!(a == b, flat_a == flat_b);
                prop_assert_eq!(a.digest() == b.digest(), flat_a.digest() == flat_b.digest());
                prop_assert_eq!(a.to_string(), flat_a.to_string());
                let tally = if a == b {
                    &equal_pairs
                } else {
                    &distinct_pairs
                };
                tally.fetch_add(1, Relaxed);
                Ok(())
            },
        );
    }
    // Both sides of the equivalence were exercised.
    assert!(equal_pairs.load(Relaxed) > 0, "no two views coincided");
    assert!(distinct_pairs.load(Relaxed) > 0);
}

/// One step of [`overlay_equals_the_dense_model`]. Image indices wrap
/// around the images made so far.
#[derive(Debug)]
enum OverlayStep {
    /// Op `op` on file `file` of `server`, through `server_mut`, its
    /// offset, length or size drawn from `at`.
    Write {
        image: usize,
        server: u32,
        op: u8,
        file: u8,
        at: u32,
    },
    /// The recorded events `mask` selects, through `apply_events`.
    Events { image: usize, mask: u64 },
    /// A new image: a fork of `image`.
    Fork { image: usize },
    /// `image` becomes its `sealed()` self and the baseline a fork of it,
    /// as `ModelBase::seal` does.
    Seal { image: usize },
}

fn overlay_op(op: u8, file: u8, at: u32) -> FsOp {
    let path = format!("/f{file}");
    // A few bytes either side of 0, one page or two: offsets, lengths
    // and sizes that end, start and straddle page boundaries.
    let near = |x: u32| {
        let edge = [0, simfs::PAGE, 2 * simfs::PAGE][x as usize % 3];
        (edge + (x as usize / 3 % 8)).saturating_sub(4)
    };
    match op % 6 {
        0 => FsOp::Creat { path },
        1 => FsOp::Append {
            path,
            data: vec![file; 1 + near(at)],
        },
        2 => FsOp::Unlink { path },
        3 => FsOp::Pwrite {
            path,
            offset: near(at) as u64,
            data: vec![op; 1 + near(at >> 8)],
        },
        4 => FsOp::Truncate {
            path,
            size: near(at) as u64,
        },
        _ => FsOp::SetXattr {
            path,
            key: "user.k".into(),
            value: vec![op],
        },
    }
}

/// `ops` on a file map, as a file system of plain `Vec<u8>` files
/// applies them: the bytes model a paged file must read as.
fn mirror_ops<'o>(files: &mut BTreeMap<String, Vec<u8>>, ops: impl IntoIterator<Item = &'o FsOp>) {
    for op in ops {
        match op {
            FsOp::Creat { path } => files.entry(path.clone()).or_default().clear(),
            FsOp::Unlink { path } => drop(files.remove(path)),
            FsOp::Append { path, data } => {
                if let Some(bytes) = files.get_mut(path) {
                    bytes.extend_from_slice(data);
                }
            }
            FsOp::Pwrite { path, offset, data } => {
                if let Some(bytes) = files.get_mut(path) {
                    let (from, to) = (*offset as usize, *offset as usize + data.len());
                    bytes.resize(bytes.len().max(to), 0);
                    bytes[from..to].copy_from_slice(data);
                }
            }
            FsOp::Truncate { path, size } => {
                if let Some(bytes) = files.get_mut(path) {
                    bytes.resize(*size as usize, 0);
                }
            }
            _ => {}
        }
    }
}

/// `ServerStates` — a sealed base plus the stores written since — is
/// the dense one-store-per-server vector it replaced: random writes
/// through `server_mut` and `apply_events`, forks and `sealed()` calls,
/// mirrored on a `Vec<Store>` per image, at 4 and 256 servers. After
/// every step each image's `digest()` is the FNV fold of its stores'
/// uncached `digest_reference()`, so no cached file digest outlives a
/// write. Offsets, lengths and sizes straddle one and two pages, and
/// every file reads as its `Vec<u8>` mirror, its digest the mirror's
/// `payload_digest`. Server by server the stores are equal; `digest()` is the
/// dense FNV fold of the store digests; `per_server_digests()` is the dense list;
/// `dirty_mask` against the baseline and against every other image is
/// the dense `same_root` compare; and two images are `==` exactly when
/// their dense mirrors are.
#[test]
fn overlay_equals_the_dense_model() {
    use pc_rt::hash::{fnv1a_extend, FNV_OFFSET_BASIS};
    use pfs::{ServerStates, Store};
    for servers in [4u32, 256] {
        run(
            &format!("overlay_equals_the_dense_model/{servers}"),
            &Config::with_cases(64),
            |rng, size| {
                let events = gen_vec(rng, 12, |r| {
                    let server = r.gen_range(0..servers as u64) as u32;
                    (server, r.next_u32() as u8, r.next_u32())
                });
                let steps = gen_vec(rng, size.min(24), |r| {
                    let image = r.gen_index(8);
                    match r.gen_index(8) {
                        0..=3 => OverlayStep::Write {
                            image,
                            server: r.gen_range(0..servers as u64) as u32,
                            op: r.next_u32() as u8,
                            file: r.gen_index(3) as u8,
                            at: r.next_u32(),
                        },
                        4 => OverlayStep::Events {
                            image,
                            mask: r.next_u64(),
                        },
                        5 | 6 => OverlayStep::Fork { image },
                        _ => OverlayStep::Seal { image },
                    }
                });
                (events, steps)
            },
            |(events, steps)| {
                let mut rec = Recorder::new();
                let ids: Vec<EventId> = (events.iter())
                    .map(|&(server, op, at)| {
                        let op = overlay_op(op, op % 3, at);
                        let payload = Payload::Fs { server, op };
                        rec.record(Layer::LocalFs, Process::Server(server), payload, None)
                    })
                    .collect();
                let dense_fork = |stores: &[Store]| stores.iter().map(Store::fork).collect();
                let mut baseline = ServerStates::all_fs(servers, JournalMode::Data);
                let mut dense_baseline: Vec<Store> =
                    (0..servers).map(|_| Store::fs(JournalMode::Data)).collect();
                let mut images = vec![baseline.fork()];
                let mut dense: Vec<Vec<Store>> = vec![dense_fork(&dense_baseline)];
                let mut bytes_baseline = vec![BTreeMap::new(); servers as usize];
                let mut bytes: Vec<Vec<BTreeMap<String, Vec<u8>>>> = vec![bytes_baseline.clone()];
                // Every file of a store reads as its mirror in `files`.
                let reads_as = |fs: &simfs::FsState, files: &BTreeMap<String, Vec<u8>>| {
                    (0..3).all(|file| {
                        let path = format!("/f{file}");
                        match (fs.read_shared(&path).ok(), files.get(&path)) {
                            (Some(pages), Some(bytes)) => {
                                *fs.read(&path).unwrap() == bytes[..]
                                    && pages.digest() == simfs::payload_digest(bytes)
                            }
                            (pages, bytes) => pages.is_none() && bytes.is_none(),
                        }
                    })
                };
                let uncached = |image: &ServerStates| {
                    (image.iter()).fold(FNV_OFFSET_BASIS, |h, (_, store)| {
                        let digest = store.as_fs().digest_reference();
                        fnv1a_extend(h, &digest.to_le_bytes())
                    })
                };
                for step in steps {
                    match *step {
                        OverlayStep::Write {
                            image,
                            server,
                            op,
                            file,
                            at,
                        } => {
                            let (i, op) = (image % images.len(), overlay_op(op, file, at));
                            images[i].server_mut(server).apply_fs(&op);
                            dense[i][server as usize].apply_fs(&op);
                            mirror_ops(&mut bytes[i][server as usize], [&op]);
                            let fs = images[i].server(server).as_fs();
                            prop_assert!(reads_as(fs, &bytes[i][server as usize]), "{op:?}");
                        }
                        OverlayStep::Events { image, mask } => {
                            let i = image % images.len();
                            let set = (ids.iter().enumerate())
                                .filter(|&(bit, _)| mask >> bit & 1 == 1)
                                .map(|(_, &id)| id);
                            images[i].apply_events(&rec, set.clone());
                            for id in set {
                                let Payload::Fs { server, op } = &rec.event(id).payload else {
                                    unreachable!("file-system events only")
                                };
                                dense[i][*server as usize].apply_fs(op);
                                mirror_ops(&mut bytes[i][*server as usize], [op]);
                            }
                        }
                        OverlayStep::Fork { image } => {
                            let i = image % images.len();
                            images.push(images[i].fork());
                            dense.push(dense_fork(&dense[i]));
                            bytes.push(bytes[i].clone());
                        }
                        OverlayStep::Seal { image } => {
                            let i = image % images.len();
                            images[i] = images[i].sealed();
                            dense[i] = dense_fork(&dense[i]);
                            baseline = images[i].fork();
                            dense_baseline = dense_fork(&dense[i]);
                            bytes_baseline = bytes[i].clone();
                        }
                    }
                    for (i, image) in images.iter().chain([&baseline]).enumerate() {
                        prop_assert!(image.digest() == uncached(image), "image {i}: {step:?}");
                    }
                }
                images.push(baseline.fork());
                dense.push(dense_fork(&dense_baseline));
                bytes.push(bytes_baseline);
                for (i, (image, stores)) in images.iter().zip(&dense).enumerate() {
                    for (s, store) in image.iter() {
                        let files = &bytes[i][s as usize];
                        prop_assert!(reads_as(store.as_fs(), files), "image {i} server {s}");
                    }
                    prop_assert_eq!(image.len(), stores.len());
                    for (s, store) in stores.iter().enumerate() {
                        prop_assert!(image.server(s as u32) == store, "image {i} server {s}");
                    }
                    let digests: Vec<u64> = stores.iter().map(Store::digest).collect();
                    let fold = (digests.iter())
                        .fold(FNV_OFFSET_BASIS, |h, d| fnv1a_extend(h, &d.to_le_bytes()));
                    prop_assert_eq!(image.digest(), fold);
                    prop_assert_eq!(image.per_server_digests(), digests);
                    let dirty: Vec<bool> = (stores.iter().zip(&dense_baseline))
                        .map(|(store, base)| !store.same_root(base))
                        .collect();
                    prop_assert_eq!(image.dirty_mask(&baseline), dirty);
                    for (j, other) in images.iter().enumerate() {
                        let equal = *stores == dense[j];
                        prop_assert!((image == other) == equal, "images {i}, {j}: {equal}");
                        let dirty: Vec<bool> = (stores.iter().zip(&dense[j]))
                            .map(|(store, theirs)| !store.same_root(theirs))
                            .collect();
                        prop_assert!(image.dirty_mask(other) == dirty, "images {i}, {j}");
                    }
                }
                Ok(())
            },
        );
    }
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

/// An image built server by server from checkpoints by the one builder
/// of a check (`snapshot::ProbeImages`, over the whole trace) is the
/// image of a baseline fork with the whole set applied
/// (`check_reference`'s): on GPFS and BeeGFS, for sets asked of one
/// builder in random order — a universe of a random 7-in-8 subsequence
/// of a real program's storage ops spanning at least two servers, the
/// universe less one op, less a victim's `depends_on` closure, arbitrary
/// subsets, and the persisted sets of the program's real crash states —
/// after seeding the builder with a random subset of them, so seeded
/// and lazily inserted checkpoints mix: `digest()`,
/// `per_server_digests()` and `dirty_mask` against the baseline agree.
#[test]
fn probe_images_equal_whole_set_replays() {
    use paracrash::snapshot::ProbeImages;
    use workloads::FsKind;
    for fs in [FsKind::Gpfs, FsKind::BeeGfs] {
        let stacks = image_stacks(fs, &workloads::Params::quick());
        let analyses: Vec<(PersistAnalysis, Vec<BitSet>)> = (stacks.iter())
            .map(|stack| {
                let graph = CausalityGraph::build(&stack.rec);
                let pa = PersistAnalysis::build(&stack.rec, &graph, |s| stack.journal_of(s));
                let states = crash_states(&stack.rec, &graph, &pa, 2, None);
                (
                    pa,
                    states.into_iter().map(|state| state.persisted).collect(),
                )
            })
            .collect();
        run(
            &format!("probe_images_equal_whole_set_replays/{fs:?}"),
            &Config::with_cases(96),
            |rng, size| {
                let (which, keep) = arb_image(rng, &stacks);
                let mut probes = gen_vec(rng, 3 + size.min(13), |r| {
                    (1 + r.gen_index(4) as u8, r.next_u64(), r.gen_bool(0.5))
                });
                probes.push((0, 0, rng.gen_bool(0.5)));
                rng.shuffle(&mut probes);
                (which, keep, probes)
            },
            |(which, keep, probes)| {
                let (stack, (pa, persisted)) = (&stacks[*which], &analyses[*which]);
                let baseline = stack.pfs.baseline();
                let ops = kept(stack, keep);
                let servers: std::collections::BTreeSet<u32> = (ops.iter())
                    .map(|&id| match stack.rec.event(id).payload {
                        Payload::Fs { server, .. } | Payload::Block { server, .. } => server,
                        _ => unreachable!("storage ops only"),
                    })
                    .collect();
                prop_assume!(servers.len() >= 2);
                let universe = BitSet::from_iter(stack.rec.len(), ops.iter().copied());
                let sets: Vec<(BitSet, bool)> = (probes.iter())
                    .map(|&(kind, pick, seeded)| {
                        let victim = ops[pick as usize % ops.len()];
                        let mut probe = universe.clone();
                        match kind {
                            0 => {}
                            1 => probe.remove(victim),
                            2 => probe.subtract(&pa.depends_on(victim, &universe)),
                            3 => {
                                let mut bits = Rng::new(pick);
                                probe = BitSet::from_iter(
                                    stack.rec.len(),
                                    ops.iter().copied().filter(|_| bits.gen_bool(0.75)),
                                );
                            }
                            _ => probe = persisted[pick as usize % persisted.len()].clone(),
                        }
                        (probe, seeded)
                    })
                    .collect();
                let mut images = ProbeImages::new(&stack.rec, baseline);
                images.seed(
                    sets.iter()
                        .filter(|(_, seeded)| *seeded)
                        .map(|(set, _)| set),
                );
                for (probe, _) in &sets {
                    let image = images.image(probe);
                    let mut whole = baseline.fork();
                    whole.apply_events(&stack.rec, probe.iter());
                    prop_assert_eq!(image.digest(), whole.digest());
                    prop_assert_eq!(image.per_server_digests(), whole.per_server_digests());
                    prop_assert_eq!(image.dirty_mask(baseline), whole.dirty_mask(baseline));
                }
                Ok(())
            },
        );
    }
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
            let walked = paracrash::golden::walk_pfs(&stack, &sets);
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
