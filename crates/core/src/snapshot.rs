//! Prefix-sharing crash-state materialization (the replay engine).
//!
//! Materializing a crash state means applying its persisted storage
//! events, in trace order, to the sealed baseline snapshot. Done naively
//! that costs O(states × trace length) — every state replays its full
//! prefix onto a fresh copy of every server — which is exactly the
//! redundancy the paper's incremental testing (§5.4) targets: sibling
//! crash states differ by a handful of operations.
//!
//! This engine exploits the redundancy *exactly*, not heuristically:
//!
//! 1. every state's persisted set is projected to its storage-event
//!    sequence (ascending event ids — the order replay applies them);
//! 2. the sequences are sorted, which lays their prefix tree out as
//!    nested contiguous ranges: states sharing a replay prefix share
//!    the tree path that encodes it;
//! 3. a DFS over the tree (`descend`, which the golden walks of
//!    `core::golden` share) threads one working snapshot down each
//!    chain, applying each event once per tree *edge* and forking only
//!    at branch nodes and at terminals (where a crash state's
//!    materialized snapshot is handed out).
//!
//! Total replay work is the edge count of the prefix tree instead of the
//! sum of sequence lengths, the fork count is linear in the tree size,
//! and every fork is an O(1) [`ServerStates::fork`]
//! (the COW snapshots introduced in `simfs`). Because each state still
//! ends up with *its exact persisted sequence applied in the exact same
//! order*, the materialized states — and therefore all verdicts, bug
//! reports, state counts and simulated costs — are bit-identical to the
//! naive engine's. The naive engine lives on in
//! `paracrash::check_reference`, the differential oracle
//! `tests/differential.rs` holds `check_stack` to.

use crate::emulate::CrashState;
use pfs::ServerStates;
use tracer::{EventId, Payload, Recorder};

/// Accounting of one prefix-sharing materialization pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// COW forks taken (one per terminal plus branch-node fan-out).
    pub forks: usize,
    /// Storage events actually applied — the prefix-tree edge count,
    /// versus the sum of sequence lengths a naive engine replays.
    pub ops_replayed: usize,
    /// Sum of sequence lengths (what the naive engine would replay).
    pub naive_ops: usize,
}

/// Pre-materialized pre-crash states, one COW fork per crash state, in
/// crash-state order. Workers fork their entry again (O(1)) before
/// running recovery, so the plan itself stays immutable and shareable.
#[derive(Debug)]
pub struct SnapshotPlan {
    /// `prepared[i]` is crash state `i` materialized (persisted events
    /// applied, recovery not yet run).
    pub prepared: Vec<ServerStates>,
    /// Subtree representative: the first crash state (in input order)
    /// whose storage-event sequence lands on the same prefix-tree
    /// terminal as state `i` (`rep[i] == i` when the sequence is
    /// unique). States with equal representatives have *identical*
    /// `prepared` snapshots, so the checker batches recovery per
    /// representative — unless fault widening makes a state's on-disk
    /// image unique again.
    pub rep: Vec<usize>,
    /// Sharing accounting.
    pub stats: SnapshotStats,
}

/// Storage-level event ids of a persisted set, ascending — the order
/// `ServerStates::apply_events` applies them. Non-storage events are
/// no-ops for materialization and are dropped so they cannot break
/// prefix sharing between states that differ only in upper-layer events.
fn storage_seq(rec: &Recorder, state: &CrashState) -> Vec<EventId> {
    let mut ids: Vec<EventId> = state
        .persisted
        .iter()
        .filter(|&id| {
            matches!(
                rec.event(id).payload,
                Payload::Fs { .. } | Payload::Block { .. }
            )
        })
        .collect();
    ids.sort_unstable();
    ids
}

fn apply_one(states: &mut ServerStates, rec: &Recorder, id: EventId) {
    match &rec.event(id).payload {
        Payload::Fs { server, op } => states.server_mut(*server).apply_fs(op),
        Payload::Block { server, op } => states.server_mut(*server).apply_block(op),
        _ => {}
    }
}

/// Depth-first descent of the prefix tree of `seqs` — sorted, so the
/// sequences below a tree node are one contiguous range led by those
/// that end at it. One instance is threaded down each chain from
/// `root`: `step` applies an edge's key to it (`false` = nothing below
/// this edge is wanted), `leaf` sees it once per sequence that ends at
/// the node (by index into `seqs`), and it is `fork`ed only where the
/// tree branches, the last child taking the instance itself. Returns the
/// forks taken.
pub(crate) fn descend<K: Copy + PartialEq, N>(
    seqs: &[&[K]],
    root: N,
    fork: impl Fn(&N) -> N,
    mut step: impl FnMut(&mut N, K) -> bool,
    mut leaf: impl FnMut(&N, usize),
) -> usize {
    let mut forks = 0;
    // `(node, depth, lo, hi)`: `seqs[lo..hi]` share their first `depth`
    // keys and `node` has stepped through them.
    let mut stack = vec![(root, 0, 0, seqs.len())];
    while let Some((node, depth, mut lo, hi)) = stack.pop() {
        while lo < hi && seqs[lo].len() == depth {
            leaf(&node, lo);
            lo += 1;
        }
        let mut node = Some(node);
        while lo < hi {
            let key = seqs[lo][depth];
            let end = lo + seqs[lo..hi].partition_point(|seq| seq[depth] == key);
            let mut child = if end == hi {
                node.take().expect("taken by the last child only")
            } else {
                forks += 1;
                fork(node.as_ref().expect("taken by the last child only"))
            };
            if step(&mut child, key) {
                stack.push((child, depth + 1, lo, end));
            }
            lo = end;
        }
    }
    forks
}

/// Materialize every crash state as a COW fork off the shared prefix
/// tree. See the module docs for the algorithm and the equivalence
/// argument.
pub fn prepare_states(
    rec: &Recorder,
    baseline: &ServerStates,
    states: &[CrashState],
) -> SnapshotPlan {
    let _span = pc_rt::obs::span_cat("snapshot.materialize", "snapshot");
    let mut stats = SnapshotStats::default();
    let seqs: Vec<Vec<EventId>> = states.iter().map(|s| storage_seq(rec, s)).collect();
    stats.naive_ops = seqs.iter().map(Vec::len).sum();
    // Equal sequences end on one tree node, in input order.
    let mut order: Vec<usize> = (0..states.len()).collect();
    order.sort_by_key(|&idx| &seqs[idx]);
    let sorted: Vec<&[EventId]> = order.iter().map(|&idx| seqs[idx].as_slice()).collect();
    // States whose sequence an earlier state has share that state's
    // fully-materialized snapshot; `rep` records the earlier state so the
    // checker can batch per-snapshot work (the count is telemetry only —
    // not part of the equivalence-checked [`SnapshotStats`]).
    let mut states_shared = 0u64;
    let mut rep: Vec<usize> = (0..states.len()).collect();
    let mut prepared: Vec<Option<ServerStates>> = states.iter().map(|_| None).collect();
    // An op is applied once per tree edge; forks are the working copy,
    // one per terminal and one per extra child of a branch node — linear
    // in the tree size — so pure chains (the common case) never copy
    // anything.
    let branch_forks = descend(
        &sorted,
        baseline.fork(),
        ServerStates::fork,
        |image, id| {
            apply_one(image, rec, id);
            stats.ops_replayed += 1;
            true
        },
        |image, at| {
            prepared[order[at]] = Some(image.fork());
            if at > 0 && sorted[at - 1] == sorted[at] {
                states_shared += 1;
                rep[order[at]] = rep[order[at - 1]];
            }
        },
    );
    stats.forks = 1 + states.len() + branch_forks;
    pc_rt::obs::count("snapshot.states", states.len() as u64);
    pc_rt::obs::count("snapshot.states_shared", states_shared);
    pc_rt::obs::count("snapshot.forks", stats.forks as u64);
    pc_rt::obs::count("snapshot.ops_replayed", stats.ops_replayed as u64);
    pc_rt::obs::count("snapshot.naive_ops", stats.naive_ops as u64);
    SnapshotPlan {
        prepared: prepared
            .into_iter()
            .map(|s| s.expect("every state visited"))
            .collect(),
        rep,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfs::{FsOp, JournalMode};
    use tracer::{BitSet, Layer, Process};

    fn creat(path: &str) -> FsOp {
        FsOp::Creat { path: path.into() }
    }

    /// A trace of n single-server creats; crash states are arbitrary
    /// persisted subsets.
    fn fixture(n: usize) -> (Recorder, Vec<EventId>) {
        let mut rec = Recorder::new();
        let ids = (0..n)
            .map(|i| {
                rec.record(
                    Layer::LocalFs,
                    Process::Server(0),
                    Payload::Fs {
                        server: 0,
                        op: creat(&format!("/f{i}")),
                    },
                    None,
                )
            })
            .collect();
        (rec, ids)
    }

    fn state_of(rec: &Recorder, ids: &[EventId]) -> CrashState {
        CrashState {
            cut: BitSet::from_iter(rec.len(), ids.iter().copied()),
            victims: vec![],
            persisted: BitSet::from_iter(rec.len(), ids.iter().copied()),
        }
    }

    #[test]
    fn prepared_states_match_naive_materialization() {
        let (rec, e) = fixture(4);
        let baseline = ServerStates::all_fs(1, JournalMode::Data);
        let subsets: Vec<Vec<EventId>> = vec![
            vec![e[0], e[1], e[2]],
            vec![e[0], e[1], e[3]],
            vec![e[0], e[2]],
            vec![],
            vec![e[0], e[1], e[2]], // duplicate sequence
        ];
        let states: Vec<CrashState> = subsets.iter().map(|s| state_of(&rec, s)).collect();
        let plan = prepare_states(&rec, &baseline, &states);
        assert_eq!(plan.prepared.len(), states.len());
        for (i, subset) in subsets.iter().enumerate() {
            let mut naive = baseline.deep_clone();
            naive.apply_events(&rec, subset.iter().copied());
            assert_eq!(plan.prepared[i], naive, "state {i}");
        }
        // State 4 duplicates state 0's sequence; everyone else is unique.
        assert_eq!(plan.rep, vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn sharing_replays_only_the_prefix_tree() {
        let (rec, e) = fixture(4);
        let baseline = ServerStates::all_fs(1, JournalMode::Data);
        // Sequences 012, 013, 02: tree nodes = 0,1,2,3,2' = 5 events,
        // naive = 3 + 3 + 2 = 8.
        let subsets = [
            vec![e[0], e[1], e[2]],
            vec![e[0], e[1], e[3]],
            vec![e[0], e[2]],
        ];
        let states: Vec<CrashState> = subsets.iter().map(|s| state_of(&rec, s)).collect();
        let plan = prepare_states(&rec, &baseline, &states);
        assert_eq!(plan.stats.naive_ops, 8);
        assert_eq!(plan.stats.ops_replayed, 5);
    }
}
