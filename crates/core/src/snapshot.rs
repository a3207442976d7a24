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
//! 2. the sequences are inserted into a prefix tree, so states sharing
//!    a replay prefix share the tree path that encodes it;
//! 3. a DFS over the tree threads one working snapshot down each chain,
//!    applying each event once per tree *edge* and forking only at
//!    branch nodes and at terminals (where a crash state's materialized
//!    snapshot is handed out).
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

/// One node of the prefix tree: outgoing edges (storage event → child)
/// in insertion order, plus the crash states whose sequence ends here.
#[derive(Default)]
struct TrieNode {
    children: Vec<(EventId, usize)>,
    terminals: Vec<usize>,
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
    // States whose storage-event sequence lands on an already-terminal
    // trie node share a fully-materialized snapshot with an earlier
    // state; `rep` records that earlier state so the checker can batch
    // per-snapshot work (the count is telemetry only — not part of the
    // equivalence-checked [`SnapshotStats`]).
    let mut states_shared = 0u64;
    let mut rep: Vec<usize> = (0..states.len()).collect();

    // Build the prefix tree of the storage-event sequences. Node count
    // is the number of distinct prefixes, i.e. exactly the replay work.
    let mut nodes: Vec<TrieNode> = vec![TrieNode::default()];
    for (idx, state) in states.iter().enumerate() {
        let seq = storage_seq(rec, state);
        stats.naive_ops += seq.len();
        let mut cur = 0usize;
        for id in seq {
            cur = match nodes[cur].children.iter().find(|&&(e, _)| e == id) {
                Some(&(_, child)) => child,
                None => {
                    nodes.push(TrieNode::default());
                    let child = nodes.len() - 1;
                    nodes[cur].children.push((id, child));
                    child
                }
            };
        }
        if let Some(&first) = nodes[cur].terminals.first() {
            states_shared += 1;
            rep[idx] = first;
        }
        nodes[cur].terminals.push(idx);
    }

    // DFS, threading one working snapshot down each chain: an op is
    // applied once per tree edge, and forks happen only at terminals and
    // at nodes with more than one child — both linear in the tree size.
    let mut prepared: Vec<Option<ServerStates>> = states.iter().map(|_| None).collect();
    let mut stack: Vec<(usize, ServerStates)> = vec![(0, baseline.fork())];
    stats.forks += 1;
    while let Some((n, state)) = stack.pop() {
        for &t in &nodes[n].terminals {
            prepared[t] = Some(state.fork());
            stats.forks += 1;
        }
        let kids: Vec<(EventId, usize)> = nodes[n].children.clone();
        // All but the first child fork the snapshot; the first inherits
        // it, so pure chains (the common case) never copy anything.
        for &(id, child) in kids.iter().skip(1) {
            let mut st = state.fork();
            stats.forks += 1;
            apply_one(&mut st, rec, id);
            stats.ops_replayed += 1;
            stack.push((child, st));
        }
        if let Some(&(id, child)) = kids.first() {
            let mut st = state;
            apply_one(&mut st, rec, id);
            stats.ops_replayed += 1;
            stack.push((child, st));
        }
    }
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
