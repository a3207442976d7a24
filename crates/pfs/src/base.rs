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
//! seal()                                   end of preamble: baseline = live.fork()
//! baseline().fork() + apply_events → recover → client_view   (crash states)
//! clone() = Pfs::fork → dispatch → client_view(live)         (golden walk)
//! ```
//!
//! The last line is how the checker gets legal states: it replays a
//! preamble once on a factory-built instance and forks the *model* —
//! this base, stores shared copy-on-write, plus the model's own
//! bookkeeping — wherever two preserved sets diverge.

use crate::error::{PfsError, PfsResult};
use crate::placement::Placement;
use crate::store::{ServerStates, Store};
use simfs::{BlockOp, FsOp, JournalMode};
use simnet::{ClusterTopology, FaultConfig, FaultPlane, RpcNet};
use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use tracer::{EventId, Layer, Payload, Process, Recorder};

/// The state and plumbing embedded in every PFS model. `Clone` is the
/// fork: both store sets are copy-on-write, so a clone shares every
/// node with its origin until one side dispatches.
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
    live: ServerStates,
    baseline: ServerStates,
    faults: FaultPlane,
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
            baseline: live.fork(),
            live,
            faults: FaultPlane::disabled(),
        }
    }

    /// Untraced access to one server's live store — for the `mkfs` step
    /// of a constructor only; follow it with [`seal`](Self::seal).
    pub fn mkfs(&mut self, server: u32) -> &mut Store {
        self.live.server_mut(server)
    }

    /// Snapshot the live state as the baseline crash states are
    /// materialized on (the paper's pre-test LVM snapshot, §4.3).
    pub fn seal(&mut self) {
        self.baseline = self.live.fork();
    }

    /// The sealed baseline snapshot.
    pub fn baseline(&self) -> &ServerStates {
        &self.baseline
    }

    /// The live (fully-executed) server states.
    pub fn live(&self) -> &ServerStates {
        &self.live
    }

    /// Arm the RPC fault plane every round trip is routed through.
    pub fn install_faults(&mut self, cfg: FaultConfig) {
        self.faults = FaultPlane::new(cfg);
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
        &mut self,
        rec: &mut Recorder,
        client: Process,
        server: u32,
        msg: &str,
        cev: EventId,
    ) -> EventId {
        self.message(rec, client, Process::Server(server), msg, Some(cev))
            .1
    }

    /// Reply leg: sent once the server-side event `after` is done.
    /// Returns the server's send event.
    pub fn reply(
        &mut self,
        rec: &mut Recorder,
        server: u32,
        client: Process,
        msg: &str,
        after: EventId,
    ) -> EventId {
        self.message(rec, Process::Server(server), client, msg, Some(after))
            .0
    }

    /// One-way server → server message; returns the receive event.
    pub fn notify(
        &mut self,
        rec: &mut Recorder,
        from: u32,
        to: u32,
        msg: &str,
        parent: Option<EventId>,
    ) -> EventId {
        self.message(rec, Process::Server(from), Process::Server(to), msg, parent)
            .1
    }

    fn message(
        &mut self,
        rec: &mut Recorder,
        from: Process,
        to: Process,
        msg: &str,
        parent: Option<EventId>,
    ) -> (EventId, EventId) {
        RpcNet::faulty(rec, &mut self.faults).message(from, to, msg, parent)
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

    /// The storage-side sweep of every fsck that has one: on each storage
    /// server, unlink each entry of `dir` whose owner — the object id
    /// before the first `.` of its `<id>.<stripe>` name — is not in `live`.
    /// A name no live id can match (OrangeFS's `stranded-<handle>.<n>`) is
    /// always collected.
    pub fn collect_orphans(&self, states: &mut ServerStates, dir: &str, live: &HashSet<String>) {
        for s in self.topo.storage_servers() {
            let Ok(names) = states.server(s).as_fs().readdir(dir) else {
                continue;
            };
            for name in names {
                if !live.contains(name.split('.').next().unwrap_or("")) {
                    let _ = states
                        .server_mut(s)
                        .as_fs_mut()
                        .unlink(&format!("{dir}/{name}"));
                }
            }
        }
    }
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

/// A striped file's content: the chunk `chunk_of(stripe)` names — a
/// `(server id, local path)` pair — for stripe 0, 1, …, concatenated
/// until the first gap. A never-written file reads as empty, a file
/// whose chunks were lost reads short: what the application would see.
pub fn read_striped(states: &ServerStates, chunk_of: impl Fn(u64) -> (u32, String)) -> Vec<u8> {
    // Gather the chunks first: `concat` then sizes the content buffer
    // once instead of doubling it across every stripe of the file.
    let mut chunks: Vec<&[u8]> = Vec::new();
    for stripe in 0.. {
        let (server, path) = chunk_of(stripe);
        match states.server(server).as_fs().read(&path) {
            Ok(data) => chunks.push(data),
            Err(_) => break,
        }
    }
    chunks.concat()
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
