//! GPFS (IBM Spectrum Scale) model.
//!
//! GPFS (Table 2: v5.0.4) is a *kernel-level*, shared-disk file system:
//! it bypasses any local file system and writes disk blocks directly, so
//! the paper traces it at the SCSI level through iSCSI (Figure 7) and
//! reasons about **tagged block writes** — `scsi_write(LBA: …, log
//! file)`, `…, inode of file`, `…, parent dir` (Figure 9(d)).
//!
//! The journal groups the block writes of one namespace operation into an
//! **atomic group**; with disk write-back caching and no barriers between
//! the group members, a crash can persist the group partially — exactly
//! Table 3 bug 3 (`[write(log)@server#2, write(parent_dir)@server#2,
//! write(file inode)@server#1, write(parent_dir inode)@server#2]`), whose
//! damage survives even when "accepting all mmfsck fixes".
//!
//! Block-resident structures (each lives at a deterministic LBA derived
//! from its name; recovery and mount scan by tag):
//!
//! * `DirEntry(<dir>)` — the directory's entry map, serialized whole;
//! * `Inode(<id>)` / `Inode(dir:<dir>)` — file / directory inodes;
//! * `FileContent(<id>.<stripe>)` — data chunks;
//! * `LogFile`, `AllocMap` — journal and allocation map blocks.

use crate::base::{
    child_path, lookup, lookup_mut, name_of, parent_of, rekey, stripe_segments, stripe_target,
    ModelBase,
};
use crate::call::PfsCall;
use crate::error::{PfsError, PfsResult};
use crate::placement::Placement;
use crate::store::ServerStates;
use crate::view::{Content, PfsView};
use crate::Pfs;
use pc_rt::hash::{fnv1a_fold, FNV_OFFSET_BASIS, LONG_PRIME};
use simfs::{Block, BlockOp, StructTag};
use simnet::ClusterTopology;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tracer::{EventId, Process, Recorder};

/// A directory's entry map: name → record (`F:<id>` / `D:<dirid>`).
type DirEntries = BTreeMap<String, String>;

/// Parsed block structures of one set of server states.
struct Blocks<'s> {
    /// Directory entries by directory identity.
    dirs: BTreeMap<String, DirEntries>,
    /// Inode payloads by id.
    inodes: BTreeMap<String, String>,
    /// Content blocks by `<id>.<stripe>`, as the devices share them.
    contents: BTreeMap<String, &'s Arc<Block>>,
}

#[derive(Debug, Clone)]
struct FileInfo {
    id: String,
    first: usize,
    size: u64,
    /// stripe → chunk content (needed to compose whole-block payloads).
    chunks: BTreeMap<u64, Vec<u8>>,
}

/// The GPFS model over raw block devices. NSD servers are the
/// topology's (combined) servers, so a server index is a server id.
#[derive(Clone)]
pub struct Gpfs {
    base: ModelBase,
    files: BTreeMap<String, FileInfo>,
    /// Entry maps by directory identity. Directories are identity-keyed
    /// (like inode numbers): a rename changes the parent's entry, never
    /// the directory's own block.
    dirents: BTreeMap<String, DirEntries>,
    /// path → directory identity (runtime bookkeeping only).
    dirpaths: BTreeMap<String, String>,
    /// Servers with unflushed data blocks, per client (GPFS's token
    /// protocol forces data to disk before metadata transitions).
    dirty: BTreeMap<Process, BTreeSet<u32>>,
    next_id: u64,
    next_group: u32,
}

/// Deterministic LBA for a structure name.
fn lba(name: &str) -> u64 {
    // Kept small so figures stay readable, as in the paper's traces.
    fnv1a_fold(FNV_OFFSET_BASIS, name.as_bytes(), LONG_PRIME) % 4_000_000
}

fn serialize_dir(entries: &DirEntries) -> Vec<u8> {
    let mut s = String::new();
    for (name, rec) in entries {
        s.push_str(name);
        s.push('=');
        s.push_str(rec);
        s.push('\n');
    }
    s.into_bytes()
}

fn parse_dir(raw: &[u8]) -> DirEntries {
    String::from_utf8_lossy(raw)
        .lines()
        .filter_map(|line| line.split_once('='))
        .map(|(name, rec)| (name.to_string(), rec.to_string()))
        .collect()
}

/// The (whole) entry block of the directory `dirid`.
fn dirent_block(dirid: &str, entries: &DirEntries, group: Option<u32>) -> BlockOp {
    let tag = StructTag::DirEntry(dirid.to_string());
    BlockOp::write_in_group(
        lba(&format!("dir:{dirid}")),
        tag,
        serialize_dir(entries),
        group,
    )
}

impl Gpfs {
    /// A formatted GPFS instance over `topo.server_count()` NSD servers.
    pub fn new(topo: ClusterTopology, placement: Placement, stripe: u64) -> Self {
        let mut base = ModelBase::block(topo, placement, stripe);
        // mkfs: superblock + empty root directory block.
        let n = base.topo.server_count() as usize;
        let dev = base
            .mkfs(base.placement.dir_index("root", n) as u32)
            .as_block_mut();
        dev.apply(&BlockOp::write(
            lba("super"),
            StructTag::Superblock,
            b"gpfs".to_vec(),
        ));
        dev.apply(&dirent_block("root", &DirEntries::new(), None));
        base.seal();
        Gpfs {
            base,
            files: BTreeMap::new(),
            dirents: BTreeMap::from([("root".to_string(), DirEntries::new())]),
            dirpaths: BTreeMap::from([("/".to_string(), "root".to_string())]),
            dirty: BTreeMap::new(),
            next_id: 0,
            next_group: 0,
        }
    }

    /// Paper default: 2 combined NSD servers, 128 KiB stripes.
    pub fn paper_default() -> Self {
        Gpfs::new(
            ClusterTopology::paper_combined_default(),
            Placement::new(),
            128 * 1024,
        )
    }

    fn n(&self) -> usize {
        self.base.topo.server_count() as usize
    }

    /// Server owning a directory's entry block (by directory identity,
    /// stable across renames).
    fn dir_server(&self, dirid: &str) -> u32 {
        self.base.placement.dir_index(dirid, self.n()) as u32
    }

    /// Server owning the inode `id`.
    fn id_server(&self, id: &str) -> u32 {
        (lba(id) % self.n() as u64) as u32
    }

    /// Directory identity of the parent of `path` (runtime lookup).
    fn parent_id(&self, path: &str) -> PfsResult<String> {
        lookup(&self.dirpaths, &parent_of(path)).cloned()
    }

    fn dirents_mut(&mut self, dirid: &str) -> &mut DirEntries {
        self.dirents
            .get_mut(dirid)
            .expect("invariant: resolved directory identity has an entry map")
    }

    fn next_group(&mut self) -> u32 {
        self.next_group += 1;
        self.next_group - 1
    }

    /// Flush the client's dirty data with cache barriers before a
    /// namespace transition (like Lustre, GPFS "aggregates intermediate
    /// changes" — this is why the paper's Table 3 lists no GPFS rows
    /// pairing file *content* against metadata).
    fn flush_dirty(&mut self, rec: &mut Recorder, client: Process, cev: EventId) {
        for server in self.dirty.remove(&client).unwrap_or_default() {
            self.sync_cache(rec, client, server, "FLUSH-DATA", cev);
        }
    }

    /// One `SYNCHRONIZE CACHE` round trip.
    fn sync_cache(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        server: u32,
        msg: &str,
        cev: EventId,
    ) {
        let recv = self.base.request(rec, client, server, msg, cev);
        let w = self.base.emit_block(rec, server, BlockOp::SyncCache, recv);
        self.base.reply(rec, server, client, "OK", w);
    }

    /// Open the atomic group `group` of one namespace operation on the
    /// server coordinating it: the request `rpc` (`"RENAME /a /b"`), then
    /// the log record (`"log: rename /a /b"`). Returns the receive event
    /// the group's writes hang off.
    fn begin(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        server: u32,
        group: u32,
        rpc: &str,
        cev: EventId,
    ) -> EventId {
        let recv = self.base.request(rec, client, server, rpc, cev);
        let (verb, args) = rpc.split_once(' ').unwrap_or((rpc, ""));
        let log = BlockOp::write_in_group(
            lba(&format!("log@{server}")),
            StructTag::LogFile,
            format!("log: {} {args}", verb.to_lowercase()).into_bytes(),
            group,
        );
        self.base.emit_block(rec, server, log, recv);
        recv
    }

    /// Write the (whole) current entry block of the directory `dirid`.
    fn write_dirent_block(
        &mut self,
        rec: &mut Recorder,
        dirid: &str,
        group: u32,
        recv: EventId,
    ) -> EventId {
        let op = dirent_block(dirid, &self.dirents[dirid], Some(group));
        self.base.emit_block(rec, self.dir_server(dirid), op, recv)
    }

    fn write_inode(
        &mut self,
        rec: &mut Recorder,
        id: &str,
        payload: &str,
        group: Option<u32>,
        recv: EventId,
    ) -> EventId {
        let op = BlockOp::write_in_group(
            lba(&format!("inode:{id}")),
            StructTag::Inode(id.to_string()),
            payload.as_bytes(),
            group,
        );
        self.base.emit_block(rec, self.id_server(id), op, recv)
    }

    fn write_allocmap(
        &mut self,
        rec: &mut Recorder,
        server: u32,
        group: u32,
        recv: EventId,
    ) -> EventId {
        let op = BlockOp::write_in_group(
            lba(&format!("alloc@{server}")),
            StructTag::AllocMap,
            b"bitmap".to_vec(),
            group,
        );
        self.base.emit_block(rec, server, op, recv)
    }

    fn do_creat(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        path: &str,
        cev: EventId,
    ) -> PfsResult<()> {
        let pid = self.parent_id(path)?;
        let id = format!("i{}", self.next_id);
        self.next_id += 1;
        let group = self.next_group();
        let first = self.base.placement.file_index(path, self.n());
        let dsrv = self.dir_server(&pid);
        self.dirents_mut(&pid)
            .insert(name_of(path).to_string(), format!("F:{id}"));

        let recv = self.begin(rec, client, dsrv, group, &format!("CREATE {path}"), cev);
        self.write_dirent_block(rec, &pid, group, recv);
        let inode = format!("size=0;first={first}");
        self.write_inode(rec, &id, &inode, Some(group), recv);
        let w = self.write_allocmap(rec, self.id_server(&id), group, recv);
        self.base.reply(rec, dsrv, client, "OK", w);

        let info = FileInfo {
            id,
            first,
            size: 0,
            chunks: BTreeMap::new(),
        };
        self.files.insert(path.to_string(), info);
        Ok(())
    }

    fn do_mkdir(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        path: &str,
        cev: EventId,
    ) -> PfsResult<()> {
        let pid = self.parent_id(path)?;
        let did = format!("d{}", self.next_id);
        self.next_id += 1;
        let group = self.next_group();
        let dsrv = self.dir_server(&pid);
        self.dirents_mut(&pid)
            .insert(name_of(path).to_string(), format!("D:{did}"));
        self.dirents.insert(did.clone(), DirEntries::new());
        self.dirpaths.insert(path.to_string(), did.clone());
        let recv = self.begin(rec, client, dsrv, group, &format!("MKDIR {path}"), cev);
        self.write_dirent_block(rec, &pid, group, recv);
        self.write_dirent_block(rec, &did, group, recv);
        let w = self.write_inode(rec, &format!("dir:{did}"), "dir", Some(group), recv);
        self.base.reply(rec, dsrv, client, "OK", w);
        Ok(())
    }

    fn do_pwrite(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        path: &str,
        offset: u64,
        data: &[u8],
        cev: EventId,
    ) -> PfsResult<()> {
        let n = self.n();
        let f = lookup_mut(&mut self.files, path)?;
        for seg in stripe_segments(f.first, offset, data.len(), self.base.stripe, n) {
            let server = seg.target as u32;
            // Compose the whole chunk payload (block writes replace the
            // entire block).
            let chunk = f.chunks.entry(seg.stripe).or_default();
            let local = seg.local as usize..seg.local as usize + seg.data.len();
            if chunk.len() < local.end {
                chunk.resize(local.end, 0);
            }
            chunk[local].copy_from_slice(&data[seg.data.clone()]);
            let content = format!("{}.{}", f.id, seg.stripe);
            let write = BlockOp::write(
                lba(&format!("content:{content}")),
                StructTag::FileContent(content),
                chunk.clone(),
            );
            let msg = format!("WRITE {path} stripe {}", seg.stripe);
            let recv = self.base.request(rec, client, server, &msg, cev);
            let w = self.base.emit_block(rec, server, write, recv);
            self.base.reply(rec, server, client, "OK", w);
            self.dirty.entry(client).or_default().insert(server);
        }
        f.size = f.size.max(offset + data.len() as u64);
        let (id, inode) = (f.id.clone(), format!("size={};first={}", f.size, f.first));
        let isrv = self.id_server(&id);
        let msg = format!("SETATTR {path}");
        let recv = self.base.request(rec, client, isrv, &msg, cev);
        let w = self.write_inode(rec, &id, &inode, None, recv);
        self.base.reply(rec, isrv, client, "OK", w);
        Ok(())
    }

    fn do_rename(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        src: &str,
        dst: &str,
        cev: EventId,
    ) -> PfsResult<()> {
        let spid = self.parent_id(src)?;
        let dpid = self.parent_id(dst)?;
        let group = self.next_group();
        let rpc = format!("RENAME {src} {dst}");

        if self.dirpaths.contains_key(src) {
            // Directory rename: only the parent's entry block changes —
            // the directory's own (identity-keyed) block does not.
            let rec_entry = self
                .dirents_mut(&spid)
                .remove(name_of(src))
                .ok_or_else(|| PfsError::UnknownPath(src.to_string()))?;
            self.dirents_mut(&dpid)
                .insert(name_of(dst).to_string(), rec_entry);
            rekey(&mut self.dirpaths, src, dst);
            rekey(&mut self.files, src, dst);
            let dsrv = self.dir_server(&spid);
            let recv = self.begin(rec, client, dsrv, group, &rpc, cev);
            self.write_dirent_block(rec, &spid, group, recv);
            let w = self.write_inode(rec, &format!("dir:{spid}"), "dir", Some(group), recv);
            self.base.reply(rec, dsrv, client, "OK", w);
            return Ok(());
        }

        let info = lookup(&self.files, src)?.clone();
        let overwritten = self.files.get(dst).cloned();
        let entry = self.dirents_mut(&spid).remove(name_of(src));
        let entry = entry.unwrap_or(format!("F:{}", info.id));
        self.dirents_mut(&dpid)
            .insert(name_of(dst).to_string(), entry);

        // Figure 9(d) / bug 3: the atomic group of the ARVR rename —
        // log + parent dir block (+ source dir block if different) on the
        // coordinating server, inode of the overwritten file elsewhere,
        // parent dir inode.
        let dsrv = self.dir_server(&dpid);
        let recv = self.begin(rec, client, dsrv, group, &rpc, cev);
        self.write_dirent_block(rec, &dpid, group, recv);
        if spid != dpid {
            self.write_dirent_block(rec, &spid, group, recv);
            self.write_inode(rec, &format!("dir:{spid}"), "dir", Some(group), recv);
        }
        if let Some(old) = &overwritten {
            self.write_inode(rec, &old.id, "deleted", Some(group), recv);
        }
        let w = self.write_inode(rec, &format!("dir:{dpid}"), "dir", Some(group), recv);
        self.base.reply(rec, dsrv, client, "OK", w);

        self.files.remove(src);
        self.files.insert(dst.to_string(), info);
        Ok(())
    }

    fn do_unlink(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        path: &str,
        cev: EventId,
    ) -> PfsResult<()> {
        let pid = self.parent_id(path)?;
        let info = lookup(&self.files, path)?.clone();
        let group = self.next_group();
        self.dirents_mut(&pid).remove(name_of(path));
        let dsrv = self.dir_server(&pid);
        let recv = self.begin(rec, client, dsrv, group, &format!("UNLINK {path}"), cev);
        self.write_dirent_block(rec, &pid, group, recv);
        self.write_inode(rec, &info.id, "deleted", Some(group), recv);
        let w = self.write_allocmap(rec, self.id_server(&info.id), group, recv);
        self.base.reply(rec, dsrv, client, "OK", w);
        self.files.remove(path);
        Ok(())
    }

    fn do_rmdir(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        path: &str,
        cev: EventId,
    ) -> PfsResult<()> {
        let pid = self.parent_id(path)?;
        let group = self.next_group();
        self.dirents_mut(&pid).remove(name_of(path));
        if let Some(did) = self.dirpaths.remove(path) {
            self.dirents.remove(&did);
        }
        let dsrv = self.dir_server(&pid);
        let recv = self.begin(rec, client, dsrv, group, &format!("RMDIR {path}"), cev);
        let w = self.write_dirent_block(rec, &pid, group, recv);
        self.base.reply(rec, dsrv, client, "OK", w);
        Ok(())
    }

    /// Barrier on every device holding a piece of the file.
    fn do_fsync(&mut self, rec: &mut Recorder, client: Process, path: &str, cev: EventId) {
        let Some(info) = self.files.get(path) else {
            return;
        };
        let n = self.n();
        let mut servers: BTreeSet<u32> = info
            .chunks
            .keys()
            .map(|&s| stripe_target(info.first, s, n) as u32)
            .collect();
        servers.insert(self.id_server(&info.id));
        let msg = format!("SYNC {path}");
        for server in servers {
            self.sync_cache(rec, client, server, &msg, cev);
        }
    }

    /// Collect all blocks by tag across servers.
    fn collect(states: &ServerStates) -> Blocks<'_> {
        let mut blocks = Blocks {
            dirs: BTreeMap::new(),
            inodes: BTreeMap::new(),
            contents: BTreeMap::new(),
        };
        for (_, store) in states.iter() {
            for (_, block) in store.as_block().iter_shared() {
                let (tag, data) = &**block;
                match tag {
                    StructTag::DirEntry(d) => {
                        blocks.dirs.insert(d.clone(), parse_dir(data));
                    }
                    StructTag::Inode(i) => {
                        let payload = String::from_utf8_lossy(data).to_string();
                        blocks.inodes.insert(i.clone(), payload);
                    }
                    StructTag::FileContent(c) => {
                        blocks.contents.insert(c.clone(), block);
                    }
                    _ => {}
                }
            }
        }
        blocks
    }

    fn walk(blocks: &Blocks, dirid: &str, vpath: &str, view: &mut PfsView) {
        let Some(entries) = blocks.dirs.get(dirid) else {
            return;
        };
        for (name, record) in entries {
            let child = child_path(vpath, name);
            if let Some(did) = record.strip_prefix("D:") {
                view.add_dir(child.clone());
                Self::walk(blocks, did, &child, view);
            } else if let Some(id) = record.strip_prefix("F:") {
                if blocks.inodes.get(id).is_none_or(|p| p == "deleted") {
                    view.add_damaged_file(child);
                    continue;
                }
                // Content = the content blocks, in stripe order, until
                // the first gap, each shared with its device.
                let mut content = Content::default();
                for stripe in 0.. {
                    let Some(&block) = blocks.contents.get(&format!("{id}.{stripe}")) else {
                        break;
                    };
                    content.push(block.clone());
                }
                view.add_file(child, content);
            }
        }
    }
}

impl Pfs for Gpfs {
    fn name(&self) -> &'static str {
        "GPFS"
    }

    fn base(&self) -> &ModelBase {
        &self.base
    }

    fn base_mut(&mut self) -> &mut ModelBase {
        &mut self.base
    }

    fn handle(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        call: &PfsCall,
        cev: EventId,
    ) -> PfsResult<()> {
        if call.is_namespace_op() {
            self.flush_dirty(rec, client, cev);
        }
        match call {
            PfsCall::Creat { path } => self.do_creat(rec, client, path, cev),
            PfsCall::Mkdir { path } => self.do_mkdir(rec, client, path, cev),
            PfsCall::Pwrite { path, offset, data } => {
                self.do_pwrite(rec, client, path, *offset, data, cev)
            }
            PfsCall::Rename { src, dst } => self.do_rename(rec, client, src, dst, cev),
            PfsCall::Unlink { path } => self.do_unlink(rec, client, path, cev),
            PfsCall::Rmdir { path } => self.do_rmdir(rec, client, path, cev),
            PfsCall::Close { .. } => Ok(()),
            PfsCall::Fsync { path } => {
                self.do_fsync(rec, client, path, cev);
                Ok(())
            }
        }
    }

    fn recover(&self, states: &mut ServerStates) {
        // mmfsck in "accept all fixes" mode: directory entries whose inode
        // is missing or deleted are removed. Data lost by those fixes
        // stays lost (Table 3 bug 3's consequence).
        let _span = pc_rt::obs::span_cat("recover/GPFS", "pfs");
        let blocks = Self::collect(states);
        let mut repaired = Vec::new();
        for (dir, entries) in blocks.dirs {
            let mut fixed = entries.clone();
            fixed.retain(|_, record| match record.strip_prefix("F:") {
                Some(id) => blocks.inodes.get(id).is_some_and(|p| p != "deleted"),
                None => true,
            });
            if fixed != entries {
                repaired.push((dir, fixed));
            }
        }
        // Write the repaired directory blocks back.
        for (dir, fixed) in repaired {
            states
                .server_mut(self.dir_server(&dir))
                .as_block_mut()
                .apply(&dirent_block(&dir, &fixed, None));
        }
    }

    fn client_view(&self, states: &ServerStates) -> PfsView {
        let mut view = PfsView::new();
        Self::walk(&Self::collect(states), "root", "/", &mut view);
        view
    }

    fn restart_cost_secs(&self) -> f64 {
        4.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::testkit::*;
    use crate::recover_and_mount;
    use tracer::Payload;

    /// The ARVR trace minus the lowermost block ops `drop` selects.
    fn arvr_without(drop: fn(&BlockOp) -> bool) -> (Gpfs, ServerStates) {
        let mut fs = Gpfs::paper_default();
        let (rec, _) = run_arvr(&mut fs);
        let keep: Vec<EventId> = rec
            .lowermost_events()
            .into_iter()
            .filter(|&id| !matches!(&rec.event(id).payload, Payload::Block { op, .. } if drop(op)))
            .collect();
        let mut states = fs.baseline().clone();
        states.apply_events(&rec, keep);
        (fs, states)
    }

    #[test]
    fn rename_emits_an_atomic_group() {
        let mut fs = Gpfs::paper_default();
        let (rec, _) = run_arvr(&mut fs);
        // The rename's block writes share one atomic group with ≥ 3
        // members including the log (Figure 9(d)).
        let mut groups: BTreeMap<u32, usize> = BTreeMap::new();
        let mut group_has_log: BTreeMap<u32, bool> = BTreeMap::new();
        for id in rec.lowermost_events() {
            if let Payload::Block { op, .. } = &rec.event(id).payload {
                if let Some(g) = op.atomic_group() {
                    *groups.entry(g).or_default() += 1;
                    if matches!(op.tag(), Some(StructTag::LogFile)) {
                        group_has_log.insert(g, true);
                    }
                }
            }
        }
        assert!(groups.values().any(|&n| n >= 3));
        assert!(group_has_log.values().any(|&b| b));
    }

    #[test]
    fn live_view_after_arvr() {
        let mut fs = Gpfs::paper_default();
        let _ = run_arvr(&mut fs);
        let view = fs.client_view(fs.live());
        assert_eq!(view.read("/file"), Some(&b"new"[..]));
        assert!(!view.exists("/tmp"));
    }

    #[test]
    fn partial_group_dirent_without_inode_delete_is_metadata_leak() {
        // Persist the rename's dirent update but not the "deleted" mark
        // on the old inode: foo points at tmp's inode; the old inode
        // leaks (Table 3 bug 3, "metadata loss if inode entry not
        // deleted").
        let (fs, mut states) = arvr_without(|op| op.payload() == b"deleted");
        let view = recover_and_mount(&fs, &mut states);
        assert_eq!(view.read("/file"), Some(&b"new"[..]));
    }

    #[test]
    fn fsck_drops_the_entry_of_a_deleted_inode_bug3_data_loss() {
        // Persist the "deleted" inode mark but not the dirent update:
        // foo's entry still names the old inode, which is deleted —
        // mmfsck removes the entry, the file is gone (bug 3, "data loss
        // accept all mmfsck fixes").
        let (fs, mut states) = arvr_without(|op| {
            matches!(op.tag(), Some(StructTag::DirEntry(_)))
                // only drop the rename-group dirent write
                && op.atomic_group() >= Some(2)
        });
        assert!(Gpfs::collect(&states).dirs["root"].contains_key("file"));
        let view = recover_and_mount(&fs, &mut states);
        assert!(!Gpfs::collect(&states).dirs["root"].contains_key("file"));
        assert!(!view.exists("/file"), "{view}");
    }

    #[test]
    fn fsync_issues_synchronize_cache() {
        let mut fs = Gpfs::paper_default();
        let mut rec = Recorder::new();
        let calls = [creat("/f"), pwrite("/f", 0, b"d"), fsync("/f")];
        drive(&mut fs, &mut rec, &calls);
        assert!(rec.events().iter().any(|e| matches!(
            &e.payload,
            Payload::Block {
                op: BlockOp::SyncCache,
                ..
            }
        )));
    }

    #[test]
    fn directories_nest() {
        let mut fs = Gpfs::paper_default();
        let calls = [mkdir("/A"), creat("/A/x"), pwrite("/A/x", 0, b"1")];
        drive(&mut fs, &mut Recorder::new(), &calls);
        let view = fs.client_view(fs.live());
        assert!(view.has_dir("/A"));
        assert_eq!(view.read("/A/x"), Some(&b"1"[..]));
    }
}
