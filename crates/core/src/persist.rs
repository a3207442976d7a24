//! Algorithm 2 — the *persists-before* partial order.
//!
//! Two lowermost-level storage updates may execute in one order yet reach
//! persistent storage in another; `persists_before(a, b)` holds exactly
//! when the storage guarantees `a` is durable no later than `b`:
//!
//! * **same local file system** — decided by its journaling mode
//!   (delegated to `simfs::journal`, the paper's `data` / `ordered` /
//!   `writeback` branches);
//! * **same block device** — only a cache-flush barrier between them
//!   orders them;
//! * **any pair (including cross-server)** — a commit operation between
//!   them: an `fsync`/`fdatasync` of `a`'s file (or a device-wide
//!   `syncfs` / `scsi_synchronize_cache` on `a`'s device) that happens
//!   after `a` and before `b` makes `a` durable first (the `else`
//!   branch of Algorithm 2).
//!
//! The paper memoises the function (`@lru_cache`) because Algorithm 1
//! asks it the same question for every (cut, victim) pair. Here
//! everything that is a function of the trace alone is a table built
//! once, in `check_stack`'s first stage: the relation as a bit matrix
//! (one row per update, one bit per event) behind a dense event-id → row
//! index, so [`PersistAnalysis::persists_before`] is one load and one bit
//! test; each update's committing syncs as a list, so
//! [`PersistAnalysis::pinned`] is a bit test of the cut per such sync;
//! each update's server. Algorithm 1's per-(cut, victim) question —
//! [`PersistAnalysis::depends_on`] — is then word-parallel algebra over
//! those rows.

use simfs::{journal, BlockOp, FsOp, JournalMode};
use std::sync::atomic::{AtomicU64, Ordering};
use tracer::{BitSet, CausalityGraph, EventId, Payload, Recorder};

/// Which server and operation family a lowermost event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpSite {
    Fs(u32),
    Block(u32),
}

impl OpSite {
    fn server(self) -> u32 {
        match self {
            OpSite::Fs(s) | OpSite::Block(s) => s,
        }
    }
}

/// `row_of` entry of an event that is not a storage update.
const NO_ROW: u32 = u32::MAX;

/// Precomputed persists-before relation over a trace.
pub struct PersistAnalysis {
    /// Lowermost *update* events (the replayable ops of Algorithm 1).
    updates: Vec<EventId>,
    /// Lowermost sync events.
    syncs: Vec<EventId>,
    /// Event id → index into `updates` and the per-update tables below
    /// (`NO_ROW` for every other event).
    row_of: Vec<u32>,
    /// Relation rows: `before[i]` = the updates `updates[i]` persists
    /// before.
    before: Vec<BitSet>,
    /// `committing[i]` = the sync events that commit `updates[i]` and
    /// happen after it (a handful per update: a list, not a row).
    committing: Vec<Vec<EventId>>,
    /// `servers[i]` = the server `updates[i]` executed on.
    servers: Vec<u32>,
    n_events: usize,
    /// Closures taken (`persist.closures` in the telemetry summary).
    closures: AtomicU64,
}

impl PersistAnalysis {
    /// Build the relation for a trace, given each server's journaling
    /// mode (taken from the PFS's store configuration).
    pub fn build(
        rec: &Recorder,
        graph: &CausalityGraph,
        journal_of: impl Fn(u32) -> Option<JournalMode>,
    ) -> Self {
        let updates: Vec<EventId> = rec
            .events()
            .iter()
            .filter(|e| e.payload.is_storage_update())
            .map(|e| e.id)
            .collect();
        let syncs: Vec<EventId> = rec
            .events()
            .iter()
            .filter(|e| e.payload.is_storage_sync())
            .map(|e| e.id)
            .collect();
        let n = rec.len();
        let mut row_of = vec![NO_ROW; n];
        for (i, &u) in updates.iter().enumerate() {
            row_of[u] = u32::try_from(i).expect("fewer than 2^32 updates");
        }
        let update_set = BitSet::from_iter(n, updates.iter().copied());
        let sites: Vec<OpSite> = updates.iter().map(|&u| Self::site(rec, u)).collect();
        let committing: Vec<Vec<EventId>> = updates
            .iter()
            .map(|&a| {
                let commits_a =
                    |s: &EventId| Self::commits(rec, a, *s) && graph.happens_before(a, *s);
                syncs.iter().copied().filter(commits_a).collect()
            })
            .collect();
        let before: Vec<BitSet> = updates
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                // Commit rule (works across servers): a → sync(a) → b.
                let mut row = BitSet::new(n);
                for &s in &committing[i] {
                    row.union_with(graph.reachable(s));
                }
                row.intersect_with(&update_set);
                // Same-file-system rule. Block writes on one device are
                // unordered without a barrier, which the commit rule
                // already covered.
                if let OpSite::Fs(server) = sites[i] {
                    let mode = journal_of(server).unwrap_or(JournalMode::Data);
                    let op_a = Self::fs_op(rec, a).expect("an Fs site holds an Fs op");
                    for (j, &b) in updates.iter().enumerate() {
                        if sites[j] != sites[i] {
                            continue;
                        }
                        let op_b = Self::fs_op(rec, b).expect("an Fs site holds an Fs op");
                        let hb = graph.happens_before(a, b);
                        if journal::same_fs_persists_before(mode, op_a, op_b, hb) {
                            row.insert(b);
                        }
                    }
                }
                row
            })
            .collect();
        PersistAnalysis {
            servers: sites.iter().map(|s| s.server()).collect(),
            updates,
            syncs,
            row_of,
            before,
            committing,
            n_events: n,
            closures: AtomicU64::new(0),
        }
    }

    fn site(rec: &Recorder, e: EventId) -> OpSite {
        match &rec.event(e).payload {
            Payload::Fs { server, .. } => OpSite::Fs(*server),
            Payload::Block { server, .. } => OpSite::Block(*server),
            _ => unreachable!("persistence analysis only sees storage events"),
        }
    }

    fn fs_op(rec: &Recorder, e: EventId) -> Option<&FsOp> {
        match &rec.event(e).payload {
            Payload::Fs { op, .. } => Some(op),
            _ => None,
        }
    }

    /// Does a commit event `s` commit update `a`? An `fsync`/`fdatasync`
    /// commits prior updates touching the same file on the same server;
    /// `syncfs` / `scsi_synchronize_cache` commit every prior update on
    /// their server.
    fn commits(rec: &Recorder, a: EventId, s: EventId) -> bool {
        match (&rec.event(a).payload, &rec.event(s).payload) {
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
        }
    }

    /// The lowermost update events, in trace order.
    pub fn updates(&self) -> &[EventId] {
        &self.updates
    }

    /// The lowermost sync events.
    pub fn syncs(&self) -> &[EventId] {
        &self.syncs
    }

    /// Index of update `e` in the per-update tables.
    fn row(&self, e: EventId) -> Option<usize> {
        match self.row_of.get(e) {
            Some(&r) if r != NO_ROW => Some(r as usize),
            _ => None,
        }
    }

    /// The server update `e` executed on (`None` for any other event).
    pub fn server_of(&self, e: EventId) -> Option<u32> {
        self.row(e).map(|r| self.servers[r])
    }

    /// `true` iff update `a` is guaranteed durable no later than `b`.
    pub fn persists_before(&self, a: EventId, b: EventId) -> bool {
        self.row(a).is_some_and(|r| self.before[r].contains(b))
    }

    /// Algorithm 1's `depends_on`: every update that cannot be persisted
    /// if `victim` is not — the forward closure of persists-before
    /// within `universe`. Includes the victim.
    pub fn depends_on(&self, victim: EventId, universe: &BitSet) -> BitSet {
        let mut deps = BitSet::new(self.n_events);
        self.depends_on_into(victim, universe, &mut deps);
        deps
    }

    /// [`PersistAnalysis::depends_on`] into a caller-owned set (cleared
    /// first), so taking many closures allocates nothing.
    ///
    /// Persists-before implies happens-before implies id order (events
    /// are recorded chronologically and every causal edge goes forward),
    /// so a member's row only holds later events: one ascending pass
    /// over the growing set closes it, each member ORing `row ∩ universe`
    /// into the words from its own on. `O(|closure| · n / 64)` word
    /// operations for `n` trace events.
    pub fn depends_on_into(&self, victim: EventId, universe: &BitSet, deps: &mut BitSet) {
        self.closures.fetch_add(1, Ordering::Relaxed);
        deps.clear();
        deps.insert(victim);
        let mut member = Some(victim);
        while let Some(m) = member {
            if let Some(r) = self.row(m) {
                deps.union_with_intersection_from(&self.before[r], universe, m);
            }
            member = deps.next_after(m);
        }
    }

    /// Closures taken since the analysis was built.
    pub fn closures_taken(&self) -> u64 {
        self.closures.load(Ordering::Relaxed)
    }

    /// Is `v` pinned durable within `cut` — i.e. does some sync event in
    /// the cut commit it? Pinned updates cannot be crash victims.
    pub fn pinned(&self, v: EventId, cut: &BitSet) -> bool {
        self.row(v)
            .is_some_and(|r| self.committing[r].iter().any(|&s| cut.contains(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracer::{Layer, Process};

    fn fs_event(rec: &mut Recorder, server: u32, op: FsOp, parent: Option<EventId>) -> EventId {
        rec.record(
            Layer::LocalFs,
            Process::Server(server),
            Payload::Fs { server, op },
            parent,
        )
    }

    fn chain_client(rec: &mut Recorder, n: usize) -> Vec<EventId> {
        (0..n)
            .map(|i| {
                rec.record(
                    Layer::PfsClient,
                    Process::Client(0),
                    Payload::Call {
                        name: format!("op{i}"),
                        args: vec![],
                    },
                    None,
                )
            })
            .collect()
    }

    #[test]
    fn same_fs_data_journal_orders_by_hb() {
        let mut rec = Recorder::new();
        let a = fs_event(&mut rec, 0, FsOp::Creat { path: "/a".into() }, None);
        let b = fs_event(&mut rec, 0, FsOp::Creat { path: "/b".into() }, None);
        let g = CausalityGraph::build(&rec);
        let pa = PersistAnalysis::build(&rec, &g, |_| Some(JournalMode::Data));
        assert!(pa.persists_before(a, b)); // program order on one server
        assert!(!pa.persists_before(b, a));
    }

    #[test]
    fn cross_server_is_unordered_without_commit() {
        let mut rec = Recorder::new();
        let calls = chain_client(&mut rec, 2);
        let a = fs_event(
            &mut rec,
            0,
            FsOp::Creat { path: "/a".into() },
            Some(calls[0]),
        );
        let b = fs_event(
            &mut rec,
            1,
            FsOp::Creat { path: "/b".into() },
            Some(calls[1]),
        );
        let g = CausalityGraph::build(&rec);
        let pa = PersistAnalysis::build(&rec, &g, |_| Some(JournalMode::Data));
        assert!(g.happens_before(a, b) || g.concurrent(a, b));
        assert!(!pa.persists_before(a, b));
        assert!(!pa.persists_before(b, a));
        assert_eq!(
            [pa.server_of(a), pa.server_of(b), pa.server_of(calls[0])],
            [Some(0), Some(1), None]
        );
    }

    #[test]
    fn fsync_commits_across_servers() {
        let mut rec = Recorder::new();
        // a on server 0; fsync(a's file) on server 0; then b on server 1,
        // causally after the fsync via the client chain.
        let c0 = rec.record(
            Layer::PfsClient,
            Process::Client(0),
            Payload::Call {
                name: "w".into(),
                args: vec![],
            },
            None,
        );
        let a = fs_event(
            &mut rec,
            0,
            FsOp::Append {
                path: "/f".into(),
                data: vec![1],
            },
            Some(c0),
        );
        let s = fs_event(&mut rec, 0, FsOp::Fsync { path: "/f".into() }, Some(a));
        let c1 = rec.record(
            Layer::PfsClient,
            Process::Client(0),
            Payload::Call {
                name: "w2".into(),
                args: vec![],
            },
            None,
        );
        rec.add_edge(s, c1);
        let b = fs_event(&mut rec, 1, FsOp::Creat { path: "/g".into() }, Some(c1));
        let g = CausalityGraph::build(&rec);
        let pa = PersistAnalysis::build(&rec, &g, |_| Some(JournalMode::Data));
        assert!(pa.persists_before(a, b));
        // And the fsync pins `a` in any cut containing it.
        let mut cut = BitSet::new(rec.len());
        for e in [a, s, b] {
            cut.insert(e);
        }
        assert!(pa.pinned(a, &cut));
        cut.remove(s);
        assert!(!pa.pinned(a, &cut));
    }

    #[test]
    fn fdatasync_only_commits_same_file() {
        let mut rec = Recorder::new();
        let a = fs_event(
            &mut rec,
            0,
            FsOp::Append {
                path: "/other".into(),
                data: vec![1],
            },
            None,
        );
        let s = fs_event(&mut rec, 0, FsOp::Fdatasync { path: "/f".into() }, None);
        let b = fs_event(&mut rec, 1, FsOp::Creat { path: "/g".into() }, None);
        rec.add_edge(a, s);
        rec.add_edge(s, b);
        let g = CausalityGraph::build(&rec);
        // Writeback mode so the same-FS rule does not mask the commit
        // rule (data ops are unordered under writeback).
        let pa = PersistAnalysis::build(&rec, &g, |_| Some(JournalMode::Writeback));
        assert!(
            !pa.persists_before(a, b),
            "fdatasync of another file commits nothing"
        );
    }

    #[test]
    fn block_ops_need_barriers() {
        use simfs::StructTag;
        let mut rec = Recorder::new();
        let w1 = rec.record(
            Layer::Block,
            Process::Server(0),
            Payload::Block {
                server: 0,
                op: BlockOp::write(1, StructTag::LogFile, vec![1]),
            },
            None,
        );
        let sync = rec.record(
            Layer::Block,
            Process::Server(0),
            Payload::Block {
                server: 0,
                op: BlockOp::SyncCache,
            },
            None,
        );
        let w2 = rec.record(
            Layer::Block,
            Process::Server(0),
            Payload::Block {
                server: 0,
                op: BlockOp::write(2, StructTag::AllocMap, vec![2]),
            },
            None,
        );
        let g = CausalityGraph::build(&rec);
        let pa = PersistAnalysis::build(&rec, &g, |_| None);
        assert!(pa.persists_before(w1, w2)); // barrier between
        assert!(!pa.persists_before(w2, w1));
        let _ = sync;

        // Without a barrier the same-device pair is unordered.
        let mut rec2 = Recorder::new();
        let a = rec2.record(
            Layer::Block,
            Process::Server(0),
            Payload::Block {
                server: 0,
                op: BlockOp::write(1, StructTag::LogFile, vec![1]),
            },
            None,
        );
        let b = rec2.record(
            Layer::Block,
            Process::Server(0),
            Payload::Block {
                server: 0,
                op: BlockOp::write(2, StructTag::AllocMap, vec![2]),
            },
            None,
        );
        let g2 = CausalityGraph::build(&rec2);
        let pa2 = PersistAnalysis::build(&rec2, &g2, |_| None);
        assert!(!pa2.persists_before(a, b));
    }

    #[test]
    fn depends_on_closes_forward() {
        let mut rec = Recorder::new();
        let a = fs_event(&mut rec, 0, FsOp::Creat { path: "/a".into() }, None);
        let b = fs_event(&mut rec, 0, FsOp::Creat { path: "/b".into() }, None);
        let c = fs_event(&mut rec, 0, FsOp::Creat { path: "/c".into() }, None);
        let other = fs_event(&mut rec, 1, FsOp::Creat { path: "/x".into() }, None);
        let g = CausalityGraph::build(&rec);
        let pa = PersistAnalysis::build(&rec, &g, |_| Some(JournalMode::Data));
        let universe = BitSet::from_iter(rec.len(), [a, b, c, other]);
        let deps = pa.depends_on(a, &universe);
        assert!(deps.contains(a) && deps.contains(b) && deps.contains(c));
        assert!(!deps.contains(other));
        // Dropping the middle op keeps the first.
        let deps_b = pa.depends_on(b, &universe);
        assert!(!deps_b.contains(a) && deps_b.contains(c));
    }
}
