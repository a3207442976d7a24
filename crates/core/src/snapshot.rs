//! Crash-state and probe materialization (the replay engine).
//!
//! Materializing a persisted set means applying its storage events, in
//! trace order, to the sealed baseline snapshot. Done naively that costs
//! O(sets × trace length), every set replaying its whole prefix onto a
//! fresh copy of every server. That is the redundancy the paper's
//! incremental reconstruction (§5.3) targets: two sets differ on a few
//! servers, and only those need rebuilding.
//!
//! A store sees only its own server's events, in ascending order,
//! whatever the other servers hold. So [`ProbeImages`] keeps one line
//! per server, the server's storage events in the trace, with
//! checkpoints along it. A set forks the nearest checkpoint at or before
//! its first missing event on that server, applies the gap (keeping a
//! checkpoint at its end) and then its own remaining events there. A
//! server the set holds whole reuses one store, digest memo included,
//! and a server it has no event on stays the baseline's.
//!
//! Each store thus receives exactly the set's events on its server, in
//! order: content, root sharing and digest equal those of a baseline
//! fork with the whole set applied, which `paracrash::check_reference`
//! still builds and `tests/differential.rs` holds `check_stack` to.
//!
//! A check owns one builder. Its `materialize` stage [seeds](ProbeImages::seed)
//! it with every crash state, one ascending pass per line, so the
//! states' images (judged in decreasing cut size) and the classifier's
//! and explain's probes all start from a checkpoint at their first gap.

use crate::emulate::CrashState;
use pfs::{ServerStates, Store};
use std::collections::HashMap;
use tracer::{BitSet, EventId, Payload, Recorder};

/// Accounting of one [`prepare_states`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Images forked off the baseline, one per crash state.
    pub forks: usize,
    /// Storage events actually applied, seeding included.
    pub ops_replayed: usize,
    /// Sum of the states' storage-event counts (what replaying each
    /// state on its own applies).
    pub naive_ops: usize,
}

/// Pre-materialized pre-crash states, in crash-state order.
#[derive(Debug)]
pub struct SnapshotPlan {
    /// `prepared[i]` is crash state `i` materialized (persisted events
    /// applied, recovery not yet run).
    pub prepared: Vec<ServerStates>,
    /// Representative: the first crash state (in input order) with the
    /// same storage events as state `i` (`rep[i] == i` when they are
    /// unique). States with equal representatives have *identical*
    /// `prepared` snapshots, so recovery can be batched per
    /// representative.
    pub rep: Vec<usize>,
    /// Replay accounting.
    pub stats: SnapshotStats,
}

/// Materialize every crash state with one seeded [`ProbeImages`]: the
/// engine `check_stack` builds its images with, without the recovery
/// memo.
pub fn prepare_states(
    rec: &Recorder,
    baseline: &ServerStates,
    states: &[CrashState],
) -> SnapshotPlan {
    let mut images = ProbeImages::new(rec, baseline);
    let mut stats = SnapshotStats {
        forks: states.len(),
        ops_replayed: images.seed(states.iter().map(|s| &s.persisted)),
        naive_ops: 0,
    };
    let lines = images.servers.iter().flat_map(|line| &line.events);
    let storage = BitSet::from_iter(rec.len(), lines.copied());
    let mut first: HashMap<BitSet, usize> = HashMap::new();
    let (mut prepared, mut rep) = (Vec::new(), Vec::new());
    for (i, state) in states.iter().enumerate() {
        let mut key = state.persisted.clone();
        key.intersect_with(&storage);
        stats.naive_ops += key.count();
        rep.push(*first.entry(key).or_insert(i));
        let (image, applied) = images.build(&state.persisted);
        stats.ops_replayed += applied;
        prepared.push(image);
    }
    SnapshotPlan {
        prepared,
        rep,
        stats,
    }
}

/// The images of persisted sets, built server by server from
/// checkpoints: crash states, the classifier's probes, and explain's
/// ddmin rounds and state diff. See the module docs.
pub struct ProbeImages<'a> {
    rec: &'a Recorder,
    baseline: &'a ServerStates,
    /// One per server with a storage event, in server order.
    servers: Vec<ServerLine>,
}

/// One server's storage events and checkpoints along them.
struct ServerLine {
    server: u32,
    /// The trace's storage events on this server, ascending.
    events: Vec<EventId>,
    /// `(k, store)`: the baseline's store with `events[..k]` applied,
    /// sorted by `k`; `(0, baseline store)` first.
    checkpoints: Vec<(usize, Store)>,
}

impl ServerLine {
    /// The first of this line's events `set` lacks (the line's length
    /// when it has them all).
    fn first_gap(&self, set: &BitSet) -> usize {
        (self.events.iter())
            .position(|&id| !set.contains(id))
            .unwrap_or(self.events.len())
    }
}

/// A fork of the checkpoint at `k` on the line of `events`, made from
/// the nearest one before it if there is none yet, and the events that
/// took.
fn checkpoint(
    rec: &Recorder,
    events: &[EventId],
    checkpoints: &mut Vec<(usize, Store)>,
    k: usize,
) -> (Store, usize) {
    let at = checkpoints.partition_point(|&(pos, _)| pos <= k) - 1;
    let (from, checkpoint) = &checkpoints[at];
    let (from, mut store) = (*from, checkpoint.fork());
    if from < k {
        for &id in &events[from..k] {
            pfs::apply_event(rec, id, |_| &mut store);
        }
        checkpoints.insert(at + 1, (k, store.fork()));
    }
    (store, k - from)
}

impl<'a> ProbeImages<'a> {
    /// Split the trace's storage events by server, each server's line
    /// starting at its `baseline` store.
    pub fn new(rec: &'a Recorder, baseline: &'a ServerStates) -> Self {
        let mut events: Vec<(u32, EventId)> = (0..rec.len())
            .filter_map(|id| match rec.event(id).payload {
                Payload::Fs { server, .. } | Payload::Block { server, .. } => Some((server, id)),
                _ => None,
            })
            .collect();
        events.sort_unstable();
        let mut servers: Vec<ServerLine> = Vec::new();
        for (server, id) in events {
            match servers.last_mut() {
                Some(line) if line.server == server => line.events.push(id),
                _ => servers.push(ServerLine {
                    server,
                    events: vec![id],
                    checkpoints: vec![(0, baseline.server(server).fork())],
                }),
            }
        }
        ProbeImages {
            rec,
            baseline,
            servers,
        }
    }

    /// Leave a checkpoint at every first gap of `sets` on every line,
    /// in one ascending pass per line, so that a later image of one of
    /// them applies only its own events past the gap. Returns the
    /// storage events applied.
    pub fn seed<'s>(&mut self, sets: impl Iterator<Item = &'s BitSet> + Clone) -> usize {
        let _span = pc_rt::obs::span_cat("snapshot.materialize", "snapshot");
        let mut applied = 0;
        for line in &mut self.servers {
            let mut gaps: Vec<usize> = sets.clone().map(|set| line.first_gap(set)).collect();
            gaps.sort_unstable();
            gaps.dedup();
            for k in gaps {
                applied += checkpoint(self.rec, &line.events, &mut line.checkpoints, k).1;
            }
        }
        pc_rt::obs::count("pfs.events_applied", applied as u64);
        applied
    }

    /// The pre-recovery image of the baseline with `set` applied.
    pub fn image(&mut self, set: &BitSet) -> ServerStates {
        let _span = pc_rt::obs::span_cat("snapshot.probe", "snapshot");
        self.build(set).0
    }

    /// [`Self::image`] and the storage events applied to build it.
    fn build(&mut self, set: &BitSet) -> (ServerStates, usize) {
        let rec = self.rec;
        let mut image = self.baseline.fork();
        let mut applied = 0;
        for line in &mut self.servers {
            let k = line.first_gap(set);
            let mut rest = (line.events[k..].iter())
                .filter(|&&id| set.contains(id))
                .peekable();
            if k == 0 && rest.peek().is_none() {
                continue;
            }
            let (mut store, gap) = checkpoint(rec, &line.events, &mut line.checkpoints, k);
            applied += gap;
            for &id in rest {
                pfs::apply_event(rec, id, |_| &mut store);
                applied += 1;
            }
            *image.server_mut(line.server) = store;
        }
        pc_rt::obs::count("pfs.events_applied", applied as u64);
        (image, applied)
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
    fn a_probe_with_a_known_first_gap_applies_no_prefix() {
        let (mut rec, e) = fixture(4);
        let other = rec.record(
            Layer::LocalFs,
            Process::Server(1),
            Payload::Fs {
                server: 1,
                op: creat("/g"),
            },
            None,
        );
        let baseline = ServerStates::all_fs(2, JournalMode::Data);
        let set = |ids: &[EventId]| BitSet::from_iter(rec.len(), ids.iter().copied());
        let mut images = ProbeImages::new(&rec, &baseline);
        // Both probes first miss e[2] on server 0: the first applies
        // e[0], e[1] up to the gap and e[3] past it, the second only
        // what it holds past the gap. Server 1 is whole in the first
        // and empty in the second.
        let probes = [set(&[e[0], e[1], e[3], other]), set(&[e[0], e[1]])];
        let applied = probes.each_ref().map(|probe| {
            let (image, applied) = images.build(probe);
            let mut whole = baseline.fork();
            whole.apply_events(&rec, probe.iter());
            assert_eq!(image, whole);
            assert_eq!(image.dirty_mask(&baseline), whole.dirty_mask(&baseline));
            applied
        });
        assert_eq!(applied, [4, 0]);
    }

    #[test]
    fn a_seeded_line_replays_each_gap_once() {
        let (rec, e) = fixture(4);
        let baseline = ServerStates::all_fs(1, JournalMode::Data);
        // Decreasing cut size, the order states are judged in: first
        // gaps at 3, 2 and 1.
        let sets = [
            vec![e[0], e[1], e[2]],
            vec![e[0], e[1], e[3]],
            vec![e[0], e[2]],
        ]
        .map(|ids| BitSet::from_iter(rec.len(), ids));
        let mut images = ProbeImages::new(&rec, &baseline);
        let seeded = images.seed(sets.iter());
        assert!(seeded <= e.len(), "one pass along the line: {seeded}");
        // Each build starts at its gap's checkpoint and applies only
        // what it holds past it.
        for set in &sets {
            let k = e
                .iter()
                .position(|&id| !set.contains(id))
                .unwrap_or(e.len());
            let past_gap = e[k..].iter().filter(|&&id| set.contains(id)).count();
            let (image, applied) = images.build(set);
            assert_eq!(applied, past_gap);
            let mut whole = baseline.fork();
            whole.apply_events(&rec, set.iter());
            assert_eq!(image, whole);
        }
    }
}
