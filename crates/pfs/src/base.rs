//! What every model shares: the store lifecycle, event emission, the
//! RPC round trip and the path / striping / attribute helpers.
//!
//! A model embeds one [`ModelBase`] and owns only what Table 3's bugs
//! come from — where it *places* an update, in which order it issues
//! the per-server operations of a call, and how it *recovers*. The
//! lifecycle lives here and nowhere else:
//!
//! ```text
//! fs()/block() → mkfs() → seal()          constructor (untraced format)
//! emit_fs()/emit_block()                   dispatch mutates `live` only
//! seal()                                   end of preamble: baseline = live.sealed()
//! baseline().fork() + apply_events → recover → client_view   (crash states)
//! clone() = Pfs::fork → dispatch → client_view(live)         (golden walk)
//! ```
//!
//! The last line is how the checker gets legal states: it forks the
//! *model* — this base, stores shared copy-on-write, plus the model's
//! own bookkeeping — as the traced stack sealed it after its preamble,
//! and again wherever two preserved sets diverge.
//!
//! Recovery costs what the crash touched, and so does a mount's data.
//! A striping model names its object directory once, in its constructor
//! ([`ModelBase::mkfs_objects`]); from that name the base spells each
//! `<dir>/<object>.<stripe>` chunk path and keeps one baseline index of
//! the directory, built on first use after each
//! [`seal`](ModelBase::seal) and shared by forks. [`ModelBase::recover`]
//! runs a model's fsck under a [`Scope`]: the servers whose store is no
//! longer the sealed baseline's ([`ServerStates::dirty_mask`]), with the
//! index standing in for the clean ones. [`ModelBase::read_striped`]
//! takes a stripe on a clean server from the same index and reads only
//! the written servers' stripes by path, each the store's own pages,
//! shared into the view's [`Content`], not a copy of its bytes.

use crate::error::{PfsError, PfsResult};
use crate::placement::Placement;
use crate::store::{ServerStates, Store};
use crate::view::Content;
use simfs::state::Inode;
use simfs::{BlockOp, FsOp, FsState, Ino, JournalMode, Pages};
use simnet::{ClusterTopology, RpcNet};
use std::any::Any;
use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use tracer::{EventId, Layer, Payload, Process, Recorder};

/// The state and plumbing embedded in every PFS model. `Clone` is the
/// fork: both store sets are copy-on-write, so a clone shares every
/// node with its origin until one side dispatches, and the baseline
/// index with it.
#[derive(Clone)]
pub struct ModelBase {
    /// The cluster shape this instance runs on.
    pub topo: ClusterTopology,
    /// Directory / file placement pins and hashes.
    pub placement: Placement,
    /// Stripe size in bytes.
    pub stripe: u64,
    /// Journaling mode of the servers' local file systems (`None` for
    /// block-device servers).
    pub journal: Option<JournalMode>,
    /// The object directory of a striping model (see
    /// [`mkfs_objects`](Self::mkfs_objects)).
    objects: Option<&'static str>,
    live: ServerStates,
    baseline: ServerStates,
    /// What recovery and mounts know of `baseline`, built on first use.
    /// Forks share it (they share the baseline); `seal` starts a new one.
    index: Arc<OnceLock<BaselineIndex>>,
}

/// What the base knows of a sealed baseline. It carries the snapshot it
/// describes, and is asked only for a server whose store still shares
/// its root with the snapshot's, so an index that outlived its baseline
/// could cost speed (no image shares a store with it) but never
/// correctness.
pub(crate) struct BaselineIndex {
    snapshot: ServerStates,
    /// The `<object>.<stripe>` regular files of the object directory on
    /// every server that holds it, `object → (stripe, server) → inode`.
    chunks: BTreeMap<String, BTreeMap<(u64, u32), Ino>>,
    /// The model's own part (see [`ModelBase::recover`]), built on the
    /// first recovery.
    model: OnceLock<Box<dyn Any + Send + Sync>>,
    /// Whether recovering the baseline leaves it as it is, worked out
    /// the first time a pass asks to skip a clean server (see
    /// [`Scope::clean`]).
    fixpoint: OnceLock<bool>,
}

/// The servers one recovery visits. A clean server — one the crash did
/// not touch — is byte-for-byte the baseline's: the orphan sweep answers
/// for it from the baseline index, and a model's pass may skip it where
/// [`Scope::clean`] allows. Every server is dirty in the scope the
/// fixpoint test runs under — the full fsck.
pub struct Scope<'a, X> {
    dirty: Vec<bool>,
    index: Option<(&'a BaselineIndex, &'a X)>,
    /// Whether recovering the baseline leaves it as it is (run once per
    /// index, on the first ask).
    fixpoint: &'a dyn Fn() -> bool,
}

impl<'a, X> Scope<'a, X> {
    /// Every one of `n` servers dirty: the full algorithm.
    fn all(n: usize) -> Self {
        Scope {
            dirty: vec![true; n],
            index: None,
            fixpoint: &|| false,
        }
    }

    /// Whether the crash touched `server`: its store no longer shares
    /// the baseline's root. A pass that would skip a server asks
    /// [`clean`](Self::clean) instead.
    pub fn is_dirty(&self, server: u32) -> bool {
        self.dirty[server as usize]
    }

    /// The model's baseline index, if `server` is clean and may be
    /// skipped: only if recovering the baseline leaves it as it is, or a
    /// pass that skipped the server could miss a repair the baseline
    /// itself needs.
    pub fn clean(&self, server: u32) -> Option<&'a X> {
        let (_, model) = self.index?;
        (!self.is_dirty(server) && (self.fixpoint)()).then_some(model)
    }
}

impl ModelBase {
    /// Unformatted local-FS servers, one per topology entry.
    pub fn fs(
        topo: ClusterTopology,
        placement: Placement,
        stripe: u64,
        journal: JournalMode,
    ) -> Self {
        let live = ServerStates::all_fs(topo.server_count(), journal);
        Self::over(topo, placement, stripe, Some(journal), live)
    }

    /// Unformatted block-device servers.
    pub fn block(topo: ClusterTopology, placement: Placement, stripe: u64) -> Self {
        let live = ServerStates::all_block(topo.server_count());
        Self::over(topo, placement, stripe, None, live)
    }

    fn over(
        topo: ClusterTopology,
        placement: Placement,
        stripe: u64,
        journal: Option<JournalMode>,
        live: ServerStates,
    ) -> Self {
        ModelBase {
            topo,
            placement,
            stripe,
            journal,
            objects: None,
            baseline: live.fork(),
            live,
            index: Arc::default(),
        }
    }

    /// Untraced access to one server's live store — for the `mkfs` step
    /// of a constructor only; follow it with [`seal`](Self::seal).
    pub fn mkfs(&mut self, server: u32) -> &mut Store {
        self.live.server_mut(server)
    }

    /// [`mkfs`](Self::mkfs) every local-FS server of `servers` with
    /// `format`, which runs once per distinct store: a server whose store
    /// equals the first one's before its format gets a fork of the
    /// formatted result, so a role costs one format however many servers
    /// hold it.
    pub fn mkfs_all(&mut self, servers: &[u32], format: impl Fn(&mut FsState)) {
        // The first store formatted, before and after.
        let mut alike: Option<(Store, Store)> = None;
        for &server in servers {
            let store = self.mkfs(server);
            match &alike {
                Some((blank, formatted)) if store == blank => *store = formatted.fork(),
                _ => {
                    let blank = store.fork();
                    format(store.as_fs_mut());
                    alike.get_or_insert_with(|| (blank, store.fork()));
                }
            }
        }
    }

    /// Name `dir` the object directory — where a striping model keeps
    /// its `<object>.<stripe>` chunk files — and make it on `servers`
    /// (through [`mkfs_all`](Self::mkfs_all)). A model calls this once,
    /// in its constructor; every chunk path, the orphan sweep and the
    /// baseline index follow from the name.
    pub fn mkfs_objects(&mut self, dir: &'static str, servers: &[u32]) {
        self.objects = Some(dir);
        self.mkfs_all(servers, |fs| {
            fs.mkdir_all(dir)
                .expect("invariant: a blank store takes a directory")
        });
    }

    /// The object directory the model named.
    fn objects(&self) -> &'static str {
        (self.objects).expect("invariant: a striping model names its object directory")
    }

    /// The chunk file of `stripe` of `object`: `<dir>/<object>.<stripe>`,
    /// the one spelling of a chunk name. An object id holds no `.`.
    pub fn chunk_path(&self, object: &str, stripe: u64) -> String {
        format!("{}/{object}.{stripe}", self.objects())
    }

    /// Snapshot the live state as the baseline crash states are
    /// materialized on (the paper's pre-test LVM snapshot, §4.3). The
    /// live stores become a fresh sealed base, so the baseline and every
    /// image forked from it carry only the servers they write.
    pub fn seal(&mut self) {
        self.live = self.live.sealed();
        self.baseline = self.live.fork();
        self.index = Arc::default();
    }

    /// The sealed baseline snapshot.
    pub fn baseline(&self) -> &ServerStates {
        &self.baseline
    }

    /// The live (fully-executed) server states.
    pub fn live(&self) -> &ServerStates {
        &self.live
    }

    /// Id of the `idx`-th metadata server.
    pub fn meta_server(&self, idx: usize) -> u32 {
        self.topo.metadata_servers()[idx]
    }

    /// Id of the `idx`-th storage server.
    pub fn storage_server(&self, idx: usize) -> u32 {
        self.topo.storage_servers()[idx]
    }

    /// Id of the storage server holding `stripe` of a file whose first
    /// stripe is on the `first`-th one.
    pub fn stripe_server(&self, first: usize, stripe: u64) -> u32 {
        let servers = self.topo.storage_servers();
        servers[stripe_target(first, stripe, servers.len())]
    }

    /// Number of metadata servers.
    pub fn n_meta(&self) -> usize {
        self.topo.metadata_servers().len()
    }

    /// Number of storage servers.
    pub fn n_storage(&self) -> usize {
        self.topo.storage_servers().len()
    }

    /// Apply a local-FS op to `server`'s live store and record it as a
    /// lowermost event caused by `parent`.
    pub fn emit_fs(
        &mut self,
        rec: &mut Recorder,
        server: u32,
        op: FsOp,
        parent: EventId,
    ) -> EventId {
        self.live.server_mut(server).apply_fs(&op);
        let payload = Payload::Fs { server, op };
        rec.record(
            Layer::LocalFs,
            Process::Server(server),
            payload,
            Some(parent),
        )
    }

    /// Apply a block op to `server`'s live device and record it.
    pub fn emit_block(
        &mut self,
        rec: &mut Recorder,
        server: u32,
        op: BlockOp,
        parent: EventId,
    ) -> EventId {
        self.live.server_mut(server).apply_block(&op);
        let payload = Payload::Block { server, op };
        rec.record(Layer::Block, Process::Server(server), payload, Some(parent))
    }

    /// Request leg of a client → server round trip issued by the client
    /// call `cev`; returns the server-side receive event the server's
    /// work hangs off.
    pub fn request(
        &self,
        rec: &mut Recorder,
        client: Process,
        server: u32,
        msg: &str,
        cev: EventId,
    ) -> EventId {
        RpcNet::new(rec)
            .request(client, Process::Server(server), msg, Some(cev))
            .1
    }

    /// Reply leg: sent once the server-side event `after` is done.
    /// Returns the server's send event.
    pub fn reply(
        &self,
        rec: &mut Recorder,
        server: u32,
        client: Process,
        msg: &str,
        after: EventId,
    ) -> EventId {
        RpcNet::new(rec)
            .reply(Process::Server(server), client, msg, Some(after))
            .0
    }

    /// One-way server → server message; returns the receive event.
    pub fn notify(
        &self,
        rec: &mut Recorder,
        from: u32,
        to: u32,
        msg: &str,
        parent: Option<EventId>,
    ) -> EventId {
        RpcNet::new(rec)
            .message(Process::Server(from), Process::Server(to), msg, parent)
            .1
    }

    /// One stripe segment landing in its chunk file on `server`: `creat`
    /// on first touch, then `append` when the segment starts at the
    /// chunk's current end and `pwrite` otherwise. `lens` is the file's
    /// stripe → chunk-length bookkeeping; returns the write event.
    #[allow(clippy::too_many_arguments)]
    pub fn write_chunk(
        &mut self,
        rec: &mut Recorder,
        server: u32,
        chunk: String,
        lens: &mut BTreeMap<u64, u64>,
        seg: &Segment,
        data: &[u8],
        recv: EventId,
    ) -> EventId {
        if !lens.contains_key(&seg.stripe) {
            let path = chunk.clone();
            self.emit_fs(rec, server, FsOp::Creat { path }, recv);
        }
        let len = lens.entry(seg.stripe).or_insert(0);
        let data = data[seg.data.clone()].to_vec();
        let end = seg.local + data.len() as u64;
        let (path, offset) = (chunk, seg.local);
        let op = if offset == *len {
            FsOp::Append { path, data }
        } else {
            FsOp::Pwrite { path, offset, data }
        };
        *len = end.max(*len);
        self.emit_fs(rec, server, op, recv)
    }

    /// Run a model's fsck over crashed `states`, visiting what the crash
    /// touched. `fsck` repairs `states` in place under the [`Scope`] it
    /// is given and must treat a dirty server exactly as the full
    /// algorithm does; a server [`Scope::clean`] hands the model's index
    /// for it may skip wherever that index (`index`, built from the
    /// baseline once) says the full algorithm would change nothing.
    ///
    /// The baseline index ([`ModelBase::mkfs_objects`]'s directory, by
    /// owner, for [`collect_orphans`](Self::collect_orphans)) is the one
    /// mounts read; the model's part joins it on the first recovery
    /// after a [`seal`](Self::seal). Whether `fsck` with every server
    /// dirty leaves the baseline as it is, is worked out once, when a
    /// pass first asks to skip a clean server.
    pub fn recover<X: Send + Sync + 'static>(
        &self,
        states: &mut ServerStates,
        index: impl FnOnce(&ServerStates) -> X,
        fsck: impl Fn(&mut ServerStates, &Scope<X>),
    ) {
        let built = self.baseline_index();
        let model = built.model.get_or_init(|| Box::new(index(&built.snapshot)));
        let model = (model.downcast_ref::<X>())
            .expect("invariant: a base's index holds its own model's part");
        let fixpoint = || {
            *built.fixpoint.get_or_init(|| {
                let mut image = built.snapshot.fork();
                fsck(&mut image, &Scope::all(built.snapshot.len()));
                image == built.snapshot
            })
        };
        let scope = Scope {
            dirty: states.dirty_mask(&built.snapshot),
            index: Some((built, model)),
            fixpoint: &fixpoint,
        };
        let dirty = scope.dirty.iter().filter(|&&d| d).count();
        pc_rt::obs::count("pfs.dirty_servers", dirty as u64);
        fsck(states, &scope);
    }

    /// The storage-side sweep of every fsck that has one: on each storage
    /// server, unlink each entry of the object directory whose owner —
    /// the name before its first `.` — is not in `live`. A name no live
    /// id can match (OrangeFS's `stranded-<handle>.<n>`) is always
    /// collected. A dirty server is swept in full; on a clean one — the
    /// baseline's chunks, nothing more — only the indexed chunks of the
    /// owners `live` lacks go.
    pub fn collect_orphans<X>(
        &self,
        states: &mut ServerStates,
        live: &HashSet<String>,
        scope: &Scope<X>,
    ) {
        let dir = self.objects();
        for &s in (self.topo.storage_servers().iter()).filter(|&&s| scope.is_dirty(s)) {
            let Ok(names) = states.server(s).as_fs().readdir(dir) else {
                continue;
            };
            for name in names {
                if !live.contains(chunk_of(&name).0) {
                    let _ = states
                        .server_mut(s)
                        .as_fs_mut()
                        .unlink(&format!("{dir}/{name}"));
                }
            }
        }
        let Some((index, _)) = scope.index else {
            return;
        };
        let storage = self.topo.storage_servers();
        for (owner, stripes) in index.chunks.iter().filter(|(o, _)| !live.contains(*o)) {
            for &(stripe, s) in stripes.keys() {
                if !scope.is_dirty(s) && storage.binary_search(&s).is_ok() {
                    let path = self.chunk_path(owner, stripe);
                    let _ = states.server_mut(s).as_fs_mut().unlink(&path);
                }
            }
        }
    }

    /// A striped file's content: chunk [`chunk_path`](Self::chunk_path)
    /// `(object, stripe)` on server `server_of(stripe)` for stripe 0, 1,
    /// …, in order until the first gap — or `head` as stripe 0 and the
    /// chunks from stripe 1, for a model that keeps stripe 0 elsewhere. A
    /// never-written file reads as empty, a file whose chunks were lost
    /// reads short: what the application would see. Each chunk comes as the
    /// store's own pages, shared, not copies of their bytes.
    ///
    /// A stripe on a server whose store still shares its root with the
    /// baseline's comes from the baseline index, keyed by `(stripe,
    /// server)`; only the other stripes resolve their path in `states`.
    pub fn read_striped(
        &self,
        states: &ServerStates,
        head: Option<&Pages>,
        object: &str,
        server_of: impl Fn(u64) -> u32,
    ) -> Content {
        let index = self.baseline_index();
        let baseline = index.chunks.get(object);
        let mut content = Content::default();
        if let Some(head) = head {
            content.push_file(head);
        }
        let mut from_baseline = 0;
        for stripe in u64::from(head.is_some()).. {
            let server = server_of(stripe);
            let store = states.server(server);
            let clean = (server as usize) < index.snapshot.len()
                && store.same_root(index.snapshot.server(server));
            let chunk = if clean {
                // The store *is* the snapshot's: its inodes are the index's.
                let ino = baseline.and_then(|stripes| stripes.get(&(stripe, server)));
                ino.and_then(|&ino| file_pages(store.as_fs(), ino))
            } else {
                let path = self.chunk_path(object, stripe);
                store.as_fs().read_shared(&path).ok()
            };
            let Some(chunk) = chunk else {
                break;
            };
            from_baseline += clean as u64;
            content.push_file(chunk);
        }
        pc_rt::obs::count("pfs.stripes_from_baseline", from_baseline);
        content
    }

    /// The baseline index, built on the first call after a seal: one
    /// scan of the object directory on each server of a fork of the
    /// baseline.
    fn baseline_index(&self) -> &BaselineIndex {
        self.index.get_or_init(|| {
            let snapshot = self.baseline.fork();
            let dir = self.objects();
            let mut chunks: BTreeMap<String, BTreeMap<(u64, u32), Ino>> = BTreeMap::new();
            for (server, store) in snapshot.iter() {
                let Some(fs) = store.try_as_fs() else {
                    continue;
                };
                let entries = fs.resolve(dir).ok().and_then(|ino| fs.inode(ino));
                let Some(Inode::Dir { entries, .. }) = entries else {
                    continue;
                };
                for (name, &ino) in entries
                    .iter()
                    .filter(|(_, &ino)| file_pages(fs, ino).is_some())
                {
                    if let (owner, Some(stripe)) = chunk_of(name.as_str()) {
                        let stripes = chunks.entry(owner.to_string()).or_default();
                        stripes.insert((stripe, server), ino);
                    }
                }
            }
            BaselineIndex {
                snapshot,
                chunks,
                model: OnceLock::new(),
                fixpoint: OnceLock::new(),
            }
        })
    }

    /// Whether recovering the sealed baseline leaves it as it is; `None`
    /// until a pass first asks to skip a clean server.
    #[cfg(test)]
    pub(crate) fn baseline_is_fixpoint(&self) -> Option<bool> {
        self.index.get()?.fixpoint.get().copied()
    }

    /// The baseline index, if one was built since the last seal.
    #[cfg(test)]
    pub(crate) fn built_index(&self) -> Option<&BaselineIndex> {
        self.index.get()
    }
}

/// The pages of `ino`, if it is a regular file of `fs`.
fn file_pages(fs: &FsState, ino: Ino) -> Option<&Pages> {
    match fs.inode(ino)? {
        Inode::File { data, .. } => Some(data),
        Inode::Dir { .. } => None,
    }
}

/// The owner id and stripe of a chunk name, the one parse of what
/// [`ModelBase::chunk_path`] spells: the owner is the name before its
/// first `.` (all of it if none), the stripe the rest if it is the
/// canonical decimal of a `u64` (no `01`, no `+1`).
fn chunk_of(name: &str) -> (&str, Option<u64>) {
    let (owner, stripe) = name.split_once('.').unwrap_or((name, ""));
    let parsed = stripe.parse::<u64>().ok();
    (owner, parsed.filter(|s| s.to_string() == stripe))
}

/// Parent directory of a mount-relative path (`/` for top-level names).
pub fn parent_of(path: &str) -> String {
    match path.rfind('/') {
        Some(0) | None => "/".to_string(),
        Some(i) => path[..i].to_string(),
    }
}

/// Last component of a path.
pub fn name_of(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// `dir/name`, without doubling the root's slash.
pub fn child_path(dir: &str, name: &str) -> String {
    if dir == "/" {
        format!("/{name}")
    } else {
        format!("{dir}/{name}")
    }
}

/// Look `path` up in a model's runtime table; a miss is malformed input.
pub fn lookup<'a, T>(map: &'a BTreeMap<String, T>, path: &str) -> PfsResult<&'a T> {
    map.get(path)
        .ok_or_else(|| PfsError::UnknownPath(path.to_string()))
}

/// Mutable [`lookup`].
pub fn lookup_mut<'a, T>(map: &'a mut BTreeMap<String, T>, path: &str) -> PfsResult<&'a mut T> {
    map.get_mut(path)
        .ok_or_else(|| PfsError::UnknownPath(path.to_string()))
}

/// Runtime bookkeeping of a directory rename: every key at or under
/// `src` moves to the same place under `dst`.
pub fn rekey<T>(map: &mut BTreeMap<String, T>, src: &str, dst: &str) {
    let under = format!("{src}/");
    let moved: Vec<String> = map
        .keys()
        .filter(|k| *k == src || k.starts_with(&under))
        .cloned()
        .collect();
    for old in moved {
        let value = map.remove(&old).expect("invariant: key came from this map");
        map.insert(format!("{dst}{}", &old[src.len()..]), value);
    }
}

/// The value of `key` in a `k=v;k2=v2` attribute record.
pub fn attr<'a>(raw: &'a str, key: &str) -> Option<&'a str> {
    raw.split(';')
        .filter_map(|part| part.strip_prefix(key)?.strip_prefix('='))
        .next_back()
}

/// Numeric [`attr`]; absent or malformed reads as zero.
pub fn attr_num<T: std::str::FromStr + Default>(raw: &str, key: &str) -> T {
    attr(raw, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or_default()
}

/// One per-stripe piece of a striped byte range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Index (into the storage-server list) of the server holding it.
    pub target: usize,
    /// Stripe number within the file.
    pub stripe: u64,
    /// Offset within the stripe's chunk.
    pub local: u64,
    /// The segment's bytes, as a range of the written buffer.
    pub data: Range<usize>,
}

/// Index of the server holding `stripe` of a file whose first stripe is
/// on `first`: round-robin over `n` servers (Table 2).
pub fn stripe_target(first: usize, stripe: u64, n: usize) -> usize {
    (first + stripe as usize) % n
}

/// Split `len` bytes written at `offset` into per-stripe segments. Keyed
/// on the file's *recorded* `first` server, not its name: a renamed file
/// keeps its placement.
pub fn stripe_segments(
    first: usize,
    offset: u64,
    len: usize,
    stripe: u64,
    n: usize,
) -> impl Iterator<Item = Segment> {
    let end = offset + len as u64;
    let mut off = offset;
    std::iter::from_fn(move || {
        if off >= end {
            return None;
        }
        let s = off / stripe;
        let local = off - s * stripe;
        let seg_len = (stripe - local).min(end - off);
        let start = (off - offset) as usize;
        off += seg_len;
        Some(Segment {
            target: stripe_target(first, s, n),
            stripe: s,
            local,
            data: start..start + seg_len as usize,
        })
    })
}

#[cfg(test)]
pub(crate) mod testkit {
    //! The ARVR driver and call shorthands the model unit tests share.
    use crate::{Pfs, PfsCall};
    use tracer::{EventId, Process, Recorder};

    pub fn creat(path: &str) -> PfsCall {
        PfsCall::Creat { path: path.into() }
    }
    pub fn mkdir(path: &str) -> PfsCall {
        PfsCall::Mkdir { path: path.into() }
    }
    pub fn pwrite(path: &str, offset: u64, data: &[u8]) -> PfsCall {
        let (path, data) = (path.into(), data.to_vec());
        PfsCall::Pwrite { path, offset, data }
    }
    pub fn rename(src: &str, dst: &str) -> PfsCall {
        let (src, dst) = (src.into(), dst.into());
        PfsCall::Rename { src, dst }
    }
    pub fn unlink(path: &str) -> PfsCall {
        PfsCall::Unlink { path: path.into() }
    }
    pub fn close(path: &str) -> PfsCall {
        PfsCall::Close { path: path.into() }
    }
    pub fn fsync(path: &str) -> PfsCall {
        PfsCall::Fsync { path: path.into() }
    }

    /// Dispatch `calls` from client 0; returns their call events.
    pub fn drive(fs: &mut dyn Pfs, rec: &mut Recorder, calls: &[PfsCall]) -> Vec<EventId> {
        calls
            .iter()
            .map(|c| fs.dispatch(rec, Process::Client(0), c, None).unwrap())
            .collect()
    }

    /// Atomic-Replace-via-Rename: `/file` = "old" is the sealed
    /// preamble; the traced test phase writes "new" to `/tmp` and
    /// renames it over `/file`.
    pub fn run_arvr(fs: &mut dyn Pfs) -> (Recorder, Vec<EventId>) {
        let preamble = [creat("/file"), pwrite("/file", 0, b"old"), close("/file")];
        drive(fs, &mut Recorder::new(), &preamble);
        fs.seal_baseline();
        let mut rec = Recorder::new();
        let test = [
            creat("/tmp"),
            pwrite("/tmp", 0, b"new"),
            close("/tmp"),
            rename("/tmp", "/file"),
        ];
        let evs = drive(fs, &mut rec, &test);
        (rec, evs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segs(first: usize, offset: u64, len: usize, stripe: u64, n: usize) -> Vec<Segment> {
        stripe_segments(first, offset, len, stripe, n).collect()
    }

    /// One baseline index per seal: a recovery builds it and a later
    /// mount of a clean stripe reads that same index; a fork shares it;
    /// a seal starts a new one, which a mount builds and a recovery reads.
    #[test]
    fn one_baseline_index_per_seal_serves_fsck_and_mount() {
        let topo = ClusterTopology::dedicated(1, 2, 1);
        let mut base = ModelBase::fs(topo, Placement::new(), 4, JournalMode::Data);
        base.mkfs_objects("/objects", &[1, 2]);
        for server in [1, 2] {
            let path = base.chunk_path("x", u64::from(server - 1));
            let fs = base.mkfs(server).as_fs_mut();
            fs.creat(&path).unwrap();
            fs.pwrite(&path, 0, b"abcd").unwrap();
        }
        base.seal();
        let mount = |base: &ModelBase, states: &ServerStates| {
            let content = base.read_striped(states, None, "x", |s| s as u32 % 2 + 1);
            content.joined().to_vec()
        };
        let sweep = |base: &ModelBase, live: &[&str]| {
            let live: HashSet<String> = live.iter().map(|o| o.to_string()).collect();
            let mut image = base.baseline().fork();
            base.recover(
                &mut image,
                |_| (),
                |states, scope| base.collect_orphans(states, &live, scope),
            );
            image
        };
        assert!(base.built_index().is_none());
        let image = sweep(&base, &["x"]);
        let built: *const _ = base.built_index().expect("a recovery builds the index");
        let fork = base.clone();
        assert!(Arc::ptr_eq(&fork.index, &base.index));
        assert_eq!(mount(&fork, &image), b"abcdabcd");
        assert!(std::ptr::eq(fork.built_index().unwrap(), built));
        // A dead owner's clean chunks are swept off the same index.
        assert_eq!(mount(&fork, &sweep(&fork, &[])), b"");

        let mut resealed = fork.clone();
        resealed.seal();
        assert!(resealed.built_index().is_none());
        assert!(!Arc::ptr_eq(&resealed.index, &base.index));
        assert_eq!(mount(&resealed, resealed.baseline()), b"abcdabcd");
        let built: *const _ = resealed.built_index().expect("a mount builds the index");
        sweep(&resealed, &["x"]);
        assert!(std::ptr::eq(resealed.built_index().unwrap(), built));
    }

    #[test]
    fn striping_is_round_robin_from_first() {
        assert_eq!(stripe_target(1, 0, 4), 1);
        assert_eq!(stripe_target(1, 1, 4), 2);
        assert_eq!(stripe_target(1, 3, 4), 0);
    }

    #[test]
    fn segments_cover_the_range_exactly() {
        let s = segs(0, 100, 300, 128, 2);
        assert_eq!(s.iter().map(|s| s.data.len()).sum::<usize>(), 300);
        // First segment ends at the stripe boundary.
        assert_eq!((s[0].target, s[0].stripe, s[0].local), (0, 0, 100));
        assert_eq!(s[0].data, 0..28);
        assert_eq!((s[1].target, s[1].local), (1, 0)); // next stripe, next server
        for w in s.windows(2) {
            assert_eq!(w[0].data.end, w[1].data.start); // contiguous
            assert_eq!(w[0].stripe + 1, w[1].stripe);
        }
    }

    #[test]
    fn small_write_stays_on_one_server() {
        assert_eq!(segs(3, 0, 64, 128 * 1024, 4).len(), 1);
        assert!(segs(3, 7, 0, 128, 4).is_empty());
    }

    #[test]
    fn paths_attrs_and_rekey() {
        assert_eq!(parent_of("/a/b"), "/a");
        assert_eq!(parent_of("/a"), "/");
        assert_eq!(name_of("/a/b"), "b");
        assert_eq!(child_path("/", "x"), "/x");
        assert_eq!(child_path("/a", "x"), "/a/x");
        assert_eq!(attr("id=f1;first=3", "first"), Some("3"));
        assert_eq!(attr("gfid=g1", "id"), None);
        assert_eq!(attr_num::<usize>("id=f1;first=x", "first"), 0);
        let mut m = BTreeMap::from([("/a".to_string(), 1), ("/a/f".into(), 2), ("/ab".into(), 3)]);
        rekey(&mut m, "/a", "/z");
        assert_eq!(m.keys().collect::<Vec<_>>(), ["/ab", "/z", "/z/f"]);
        assert!(lookup(&m, "/a").is_err() && lookup_mut(&mut m, "/z").is_ok());
    }
}
