//! Per-server persistent stores and crash-state materialization.

use pc_rt::hash::{fnv1a_extend, FNV_OFFSET_BASIS};
use simfs::{BlockDev, BlockOp, FsOp, FsState, JournalMode};
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

/// The persistent state of the whole cluster: one store per server,
/// indexed by server id.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerStates {
    stores: Vec<Store>,
}

impl ServerStates {
    /// `n` local-FS servers, all with the same journaling mode.
    pub fn all_fs(n: u32, journal: JournalMode) -> Self {
        ServerStates {
            stores: (0..n).map(|_| Store::fs(journal)).collect(),
        }
    }

    /// `n` block-device servers.
    pub fn all_block(n: u32) -> Self {
        ServerStates {
            stores: (0..n).map(|_| Store::block()).collect(),
        }
    }

    /// Store of server `id`.
    pub fn server(&self, id: u32) -> &Store {
        &self.stores[id as usize]
    }

    /// Mutable store of server `id`.
    pub fn server_mut(&mut self, id: u32) -> &mut Store {
        &mut self.stores[id as usize]
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// `true` if no servers.
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }

    /// Iterate over `(server_id, store)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Store)> {
        self.stores.iter().enumerate().map(|(i, s)| (i as u32, s))
    }

    /// Canonical digest of the whole cluster state: FNV-1a over the
    /// per-server [`Store::digest`] words in server order. Equal states
    /// hash equal whatever engine materialized them — the key the
    /// campaign's representative-state corpus dedups on.
    pub fn digest(&self) -> u64 {
        self.stores.iter().fold(FNV_OFFSET_BASIS, |h, store| {
            fnv1a_extend(h, &store.digest().to_le_bytes())
        })
    }

    /// Apply a *subset* of recorded lowermost-level events (a crash
    /// state) in trace order. Non-storage events in `ids` are ignored.
    pub fn apply_events(&mut self, rec: &Recorder, ids: impl IntoIterator<Item = EventId>) {
        let mut ids: Vec<EventId> = ids.into_iter().collect();
        ids.sort_unstable();
        pc_rt::obs::count("pfs.events_applied", ids.len() as u64);
        for id in ids {
            match &rec.event(id).payload {
                Payload::Fs { server, op } => self.server_mut(*server).apply_fs(op),
                Payload::Block { server, op } => self.server_mut(*server).apply_block(op),
                _ => {}
            }
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

    /// Digest over all servers, for crash-state dedup and for the
    /// "distance" metric of the TSP visiting order (§5.3: the distance
    /// between two crash states is the number of servers whose state
    /// differs).
    pub fn per_server_digests(&self) -> Vec<u64> {
        self.stores.iter().map(|s| s.digest()).collect()
    }

    /// O(1) copy-on-write snapshot of the whole cluster: the simulation
    /// analogue of taking per-server LVM snapshots before crash emulation
    /// (§4.3), minus the copying.
    pub fn fork(&self) -> ServerStates {
        ServerStates {
            stores: self.stores.iter().map(Store::fork).collect(),
        }
    }

    /// Structurally independent copy of every server (the reference
    /// checker's clone-everything cost model).
    pub fn deep_clone(&self) -> ServerStates {
        ServerStates {
            stores: self.stores.iter().map(Store::deep_clone).collect(),
        }
    }
}

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
        assert_eq!(full.server(0).as_fs().read("/f").unwrap(), b"x");

        let mut partial = ServerStates::all_fs(2, JournalMode::Data);
        partial.apply_events(&rec, [write]); // creat dropped -> append skipped
        assert!(!partial.server(0).as_fs().exists("/f"));
    }
}
