//! Per-server persistent stores and crash-state materialization.

use pc_rt::hash::{fnv1a_extend, FNV_OFFSET_BASIS};
use simfs::{BlockDev, BlockOp, FsOp, FsState, JournalMode};
use std::sync::{Arc, OnceLock};
use tracer::{EventId, Payload, Recorder};

/// The persistent store of one server: a local file system (user-level
/// PFS) or a raw block device (kernel-level PFS).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Store {
    /// Local file system with its journaling mode.
    Fs {
        /// The file-system state.
        state: FsState,
        /// Journaling mode in effect.
        journal: JournalMode,
    },
    /// Raw block device.
    Block(BlockDev),
}

impl Store {
    /// A fresh local-FS store.
    pub fn fs(journal: JournalMode) -> Self {
        Store::Fs {
            state: FsState::new(),
            journal,
        }
    }

    /// A fresh block store.
    pub fn block() -> Self {
        Store::Block(BlockDev::new())
    }

    /// The journaling mode, if this is a local FS.
    pub fn journal(&self) -> Option<JournalMode> {
        match self {
            Store::Fs { journal, .. } => Some(*journal),
            Store::Block(_) => None,
        }
    }

    /// Borrow the FS state if this is a local-FS store.
    pub fn try_as_fs(&self) -> Option<&FsState> {
        match self {
            Store::Fs { state, .. } => Some(state),
            Store::Block(_) => None,
        }
    }

    /// Mutable FS state if this is a local-FS store.
    pub fn try_as_fs_mut(&mut self) -> Option<&mut FsState> {
        match self {
            Store::Fs { state, .. } => Some(state),
            Store::Block(_) => None,
        }
    }

    /// Borrow the block device if this is a block store.
    pub fn try_as_block(&self) -> Option<&BlockDev> {
        match self {
            Store::Block(dev) => Some(dev),
            Store::Fs { .. } => None,
        }
    }

    /// Mutable block device if this is a block store.
    pub fn try_as_block_mut(&mut self) -> Option<&mut BlockDev> {
        match self {
            Store::Block(dev) => Some(dev),
            Store::Fs { .. } => None,
        }
    }

    /// Borrow the FS state. A PFS model only ever calls this on its own
    /// stores, whose kind it chose at construction.
    pub fn as_fs(&self) -> &FsState {
        self.try_as_fs()
            .expect("invariant: model addresses its own local-FS store")
    }

    /// Mutable FS state.
    pub fn as_fs_mut(&mut self) -> &mut FsState {
        self.try_as_fs_mut()
            .expect("invariant: model addresses its own local-FS store")
    }

    /// Borrow the block device.
    pub fn as_block(&self) -> &BlockDev {
        self.try_as_block()
            .expect("invariant: model addresses its own block store")
    }

    /// Mutable block device.
    pub fn as_block_mut(&mut self) -> &mut BlockDev {
        self.try_as_block_mut()
            .expect("invariant: model addresses its own block store")
    }

    /// Apply one local-FS op (lenient: a crash state may contain an op
    /// whose prerequisite was dropped; the replay then skips it, matching
    /// the paper's replay of traced calls with Python's `os` module).
    pub fn apply_fs(&mut self, op: &FsOp) {
        let _ = self.as_fs_mut().apply(op);
    }

    /// Apply one block op.
    pub fn apply_block(&mut self, op: &BlockOp) {
        self.as_block_mut().apply(op);
    }

    /// Canonical digest for state dedup.
    pub fn digest(&self) -> u64 {
        match self {
            Store::Fs { state, .. } => state.digest(),
            Store::Block(dev) => dev.digest(),
        }
    }

    /// O(1) copy-on-write snapshot of this store (shares all nodes with
    /// `self` until either side mutates).
    pub fn fork(&self) -> Store {
        match self {
            Store::Fs { state, journal } => Store::Fs {
                state: state.fork(),
                journal: *journal,
            },
            Store::Block(dev) => Store::Block(dev.fork()),
        }
    }

    /// Whether this store still *is* the copy-on-write snapshot `other`:
    /// O(1), and conservative — a store mutated back to `other`'s content
    /// is not.
    pub fn same_root(&self, other: &Store) -> bool {
        match (self, other) {
            (Store::Fs { state: a, .. }, Store::Fs { state: b, .. }) => a.same_root(b),
            (Store::Block(a), Store::Block(b)) => a.same_root(b),
            _ => false,
        }
    }

    /// Structurally independent copy (the reference checker's
    /// clone-everything cost model).
    pub fn deep_clone(&self) -> Store {
        match self {
            Store::Fs { state, journal } => Store::Fs {
                state: state.deep_clone(),
                journal: *journal,
            },
            Store::Block(dev) => Store::Block(dev.deep_clone()),
        }
    }
}

/// Apply storage event `id` — a `Payload::Fs` or `Payload::Block` — to
/// the store `store_of` returns for the server it addresses; any other
/// event is a no-op.
pub fn apply_event<'a>(rec: &Recorder, id: EventId, store_of: impl FnOnce(u32) -> &'a mut Store) {
    match &rec.event(id).payload {
        Payload::Fs { server, op } => store_of(*server).apply_fs(op),
        Payload::Block { server, op } => store_of(*server).apply_block(op),
        _ => {}
    }
}

/// The persistent state of the whole cluster: one store per server,
/// indexed by server id. It is an overlay: a sealed base that every
/// fork shares, plus the stores written since, sorted by server id. A
/// fork, the dirty mask of an image against its baseline and equality
/// between two images of one base cost the servers written, not the
/// server count.
#[derive(Debug)]
pub struct ServerStates {
    base: Arc<Base>,
    written: Vec<(u32, Store)>,
}

/// The sealed stores of a [`ServerStates`], one per server: never
/// written, shared by every fork. Made only by [`ServerStates::sealed`],
/// the `all_*` constructors and [`ServerStates::deep_clone`].
#[derive(Debug)]
struct Base {
    stores: Vec<Store>,
    /// [`Store::digest`] of each store, worked out on first use.
    digests: OnceLock<Vec<u64>>,
}

impl ServerStates {
    /// `stores` as a fresh base with nothing written.
    fn over(stores: Vec<Store>) -> Self {
        let digests = OnceLock::new();
        ServerStates {
            base: Arc::new(Base { stores, digests }),
            written: Vec::new(),
        }
    }

    /// `n` local-FS servers, all with the same journaling mode.
    pub fn all_fs(n: u32, journal: JournalMode) -> Self {
        Self::over((0..n).map(|_| Store::fs(journal)).collect())
    }

    /// `n` block-device servers.
    pub fn all_block(n: u32) -> Self {
        Self::over((0..n).map(|_| Store::block()).collect())
    }

    /// The same state with every store in a fresh base and nothing
    /// written: O(servers) once, so that each fork of the result — and
    /// each image materialized on one — costs only what it writes.
    pub fn sealed(&self) -> ServerStates {
        Self::over(self.iter().map(|(_, store)| store.fork()).collect())
    }

    /// Where server `id` sits in `written`, or where it would go.
    fn slot(&self, id: u32) -> Result<usize, usize> {
        self.written
            .binary_search_by_key(&id, |&(server, _)| server)
    }

    /// Store of server `id`.
    pub fn server(&self, id: u32) -> &Store {
        match self.slot(id) {
            Ok(i) => &self.written[i].1,
            Err(_) => &self.base.stores[id as usize],
        }
    }

    /// Mutable store of server `id`: the first call for a server forks
    /// its base store into the written ones.
    pub fn server_mut(&mut self, id: u32) -> &mut Store {
        let i = self.slot(id).unwrap_or_else(|i| {
            let store = self.base.stores[id as usize].fork();
            pc_rt::obs::count("pfs.stores_forked", 1);
            self.written.insert(i, (id, store));
            i
        });
        &mut self.written[i].1
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.base.stores.len()
    }

    /// `true` if no servers.
    pub fn is_empty(&self) -> bool {
        self.base.stores.is_empty()
    }

    /// Iterate over `(server_id, store)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Store)> {
        (0..self.len() as u32).map(|id| (id, self.server(id)))
    }

    /// [`Store::digest`] of each server in server order: the base's
    /// cached words with the written stores' swapped in.
    fn store_digests(&self) -> impl Iterator<Item = u64> + '_ {
        let base = (self.base.digests)
            .get_or_init(|| self.base.stores.iter().map(Store::digest).collect());
        let mut written = self.written.iter().peekable();
        base.iter().enumerate().map(move |(id, &digest)| {
            match written.next_if(|&&(server, _)| server as usize == id) {
                Some((_, store)) => store.digest(),
                None => digest,
            }
        })
    }

    /// Canonical digest of the whole cluster state: FNV-1a over the
    /// per-server [`Store::digest`] words in server order. Equal states
    /// hash equal whatever engine materialized them — the key the
    /// campaign's representative-state corpus dedups on.
    pub fn digest(&self) -> u64 {
        (self.store_digests()).fold(FNV_OFFSET_BASIS, |h, digest| {
            fnv1a_extend(h, &digest.to_le_bytes())
        })
    }

    /// Apply a *subset* of recorded lowermost-level events (a crash
    /// state) in trace order. Non-storage events in `ids` are ignored.
    pub fn apply_events(&mut self, rec: &Recorder, ids: impl IntoIterator<Item = EventId>) {
        let mut ids: Vec<EventId> = ids.into_iter().collect();
        ids.sort_unstable();
        pc_rt::obs::count("pfs.events_applied", ids.len() as u64);
        for id in ids {
            apply_event(rec, id, |server| self.server_mut(server));
        }
    }

    /// Disk-fault widening of a crash state: ops *in flight* at the crash
    /// (the enumeration's victims) may persist partially instead of not at
    /// all. Each eligible victim — a multi-byte file write or multi-byte
    /// block write — tears with probability ½ at an RNG-chosen split point
    /// and its surviving prefix is applied. Under data journaling the torn
    /// transaction's commit record fails its checksum and the whole op is
    /// discarded ([`simfs::torn_write`]), so data-journaled stores never
    /// widen. Returns the number of torn prefixes applied.
    pub fn apply_torn_victims(
        &mut self,
        rec: &Recorder,
        victims: impl IntoIterator<Item = EventId>,
        rng: &mut pc_rt::rng::Rng,
    ) -> usize {
        let mut ids: Vec<EventId> = victims.into_iter().collect();
        ids.sort_unstable();
        let mut applied = 0;
        for id in ids {
            match &rec.event(id).payload {
                Payload::Fs { server, op } => {
                    let Some(mode) = self.server(*server).journal() else {
                        continue;
                    };
                    let len = match op {
                        FsOp::Pwrite { data, .. } | FsOp::Append { data, .. } => data.len(),
                        _ => continue,
                    };
                    if len < 2 || !rng.gen_bool(0.5) {
                        continue;
                    }
                    let keep = rng.gen_range(1..len as u64) as usize;
                    if let Some(torn) = simfs::torn_write(mode, op, keep) {
                        self.server_mut(*server).apply_fs(&torn);
                        applied += 1;
                    }
                }
                Payload::Block { server, op } => {
                    let len = op.payload_len();
                    if len < 2 || !rng.gen_bool(0.5) {
                        continue;
                    }
                    let keep = rng.gen_range(1..len as u64) as usize;
                    if let Some(torn) = op.torn(keep) {
                        self.server_mut(*server).apply_block(&torn);
                        applied += 1;
                    }
                }
                _ => {}
            }
        }
        pc_rt::obs::count("faults.torn", applied as u64);
        applied
    }

    /// One [`Store::digest`] per server, in server order: the provenance
    /// engine names the servers on which a crashed image and the fully
    /// persisted one differ by comparing these.
    pub fn per_server_digests(&self) -> Vec<u64> {
        self.store_digests().collect()
    }

    /// The servers recovery must visit: `true` for each store that is no
    /// longer the one `snapshot` holds — no longer shares its root
    /// ([`FsState::same_root`], [`BlockDev::same_root`]) — so an image
    /// forked from `snapshot` is dirty exactly where it was written. Two
    /// states of one base differ only where either was written, so only
    /// those servers are compared; states of two bases compare every
    /// server, and every server is dirty if the two differ in size.
    pub fn dirty_mask(&self, snapshot: &ServerStates) -> Vec<bool> {
        let n = self.len();
        if n != snapshot.len() {
            return vec![true; n];
        }
        let moved = |id: u32| !self.server(id).same_root(snapshot.server(id));
        if !Arc::ptr_eq(&self.base, &snapshot.base) {
            return (0..n as u32).map(moved).collect();
        }
        let mut dirty = vec![false; n];
        for &(id, _) in self.written.iter().chain(&snapshot.written) {
            dirty[id as usize] = moved(id);
        }
        dirty
    }

    /// Copy-on-write snapshot of the whole cluster: the simulation
    /// analogue of taking per-server LVM snapshots before crash emulation
    /// (§4.3), minus the copying. Shares the base and forks the written
    /// stores, so it costs O(written).
    pub fn fork(&self) -> ServerStates {
        pc_rt::obs::count("pfs.stores_forked", self.written.len() as u64);
        ServerStates {
            base: Arc::clone(&self.base),
            written: (self.written.iter())
                .map(|(id, store)| (*id, store.fork()))
                .collect(),
        }
    }

    /// Structurally independent copy of every server, flattened into a
    /// fresh base (the reference checker's clone-everything cost model:
    /// it shares no store with any other state, so it is dirty
    /// everywhere against one).
    pub fn deep_clone(&self) -> ServerStates {
        Self::over(self.iter().map(|(_, store)| store.deep_clone()).collect())
    }
}

/// The fork: a model's `Clone` forks its stores.
impl Clone for ServerStates {
    fn clone(&self) -> Self {
        self.fork()
    }
}

/// Equal when every server's store is; two states of one base compare
/// only the servers either has written.
impl PartialEq for ServerStates {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        if Arc::ptr_eq(&self.base, &other.base) {
            let mut written = self.written.iter().chain(&other.written);
            return written.all(|&(id, _)| self.server(id) == other.server(id));
        }
        self.iter().zip(other.iter()).all(|((_, a), (_, b))| a == b)
    }
}

impl Eq for ServerStates {}

#[cfg(test)]
mod tests {
    use super::*;
    use tracer::{Layer, Process};

    #[test]
    fn stores_construct_and_borrow() {
        let mut s = Store::fs(JournalMode::Data);
        assert_eq!(s.journal(), Some(JournalMode::Data));
        s.as_fs_mut().creat("/f").unwrap();
        assert!(s.as_fs().exists("/f"));
        let b = Store::block();
        assert_eq!(b.journal(), None);
        assert!(b.as_block().is_empty());
    }

    #[test]
    fn apply_events_respects_subset_and_order() {
        let mut rec = Recorder::new();
        let creat = rec.record(
            Layer::LocalFs,
            Process::Server(0),
            Payload::Fs {
                server: 0,
                op: FsOp::Creat { path: "/f".into() },
            },
            None,
        );
        let write = rec.record(
            Layer::LocalFs,
            Process::Server(0),
            Payload::Fs {
                server: 0,
                op: FsOp::Append {
                    path: "/f".into(),
                    data: b"x".to_vec(),
                },
            },
            None,
        );
        let mut full = ServerStates::all_fs(2, JournalMode::Data);
        full.apply_events(&rec, [write, creat]); // out of order on purpose
        assert_eq!(&full.server(0).as_fs().read("/f").unwrap()[..], b"x");

        let mut partial = ServerStates::all_fs(2, JournalMode::Data);
        partial.apply_events(&rec, [write]); // creat dropped -> append skipped
        assert!(!partial.server(0).as_fs().exists("/f"));
    }
}
