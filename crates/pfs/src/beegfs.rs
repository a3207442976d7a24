//! BeeGFS model.
//!
//! BeeGFS (Table 2: v7.1.2, `tuneRemoteFSync`) runs dedicated metadata
//! servers and storage servers over ext4. Its metadata scheme — traced by
//! the paper in Figure 2 — stores, per directory, a *dentries directory*
//! whose entries are **hard links to idfiles**; file attributes live in
//! extended attributes; file data lives in per-stripe *chunk files* on the
//! storage servers.
//!
//! Crucially for crash consistency, BeeGFS issues **no fsyncs** on its
//! metadata path: metadata updates on one server persist in journal order
//! (ext4 data journaling in the paper's setup), but nothing orders
//! persistence *across* servers. That is the mechanism behind Table 3
//! bugs 1, 2, 4, 5, 6, 7 and 8.
//!
//! Per-server layout used by this model:
//!
//! ```text
//! metadata server:  /dentries/<dirkey>/<name>   hard link to the idfile
//!                                               (or dir marker with
//!                                               user.dirkey xattr)
//!                   /idfiles/<id>               xattrs: user.info, user.size
//!                   /inodes/<dirkey>            directory inode (xattrs)
//! storage server:   /chunks/<id>.<stripe>       one chunk file per stripe
//! ```

use crate::base::{
    attr, attr_num, child_path, lookup, lookup_mut, name_of, parent_of, read_striped, rekey,
    stripe_segments, ModelBase,
};
use crate::call::PfsCall;
use crate::error::{PfsError, PfsResult};
use crate::placement::Placement;
use crate::store::ServerStates;
use crate::view::PfsView;
use crate::Pfs;
use simfs::{FsOp, FsState, Ino, JournalMode};
use simnet::ClusterTopology;
use std::collections::{BTreeMap, HashSet};
use tracer::{EventId, Process, Recorder};

/// Runtime info for a directory.
#[derive(Debug, Clone)]
struct DirInfo {
    key: String,
    /// Index into the metadata-server list.
    owner: usize,
}

/// Runtime info for a regular file.
#[derive(Debug, Clone)]
struct FileInfo {
    id: String,
    /// Index into the storage-server list of the first stripe.
    first: usize,
    size: u64,
    /// stripe number → current chunk length.
    chunks: BTreeMap<u64, u64>,
}

/// The BeeGFS model. See the module docs for the layout.
#[derive(Clone)]
pub struct BeeGfs {
    base: ModelBase,
    dirs: BTreeMap<String, DirInfo>,
    files: BTreeMap<String, FileInfo>,
    next_id: u64,
}

fn dentry_path(dirkey: &str, name: &str) -> String {
    format!("/dentries/{dirkey}/{name}")
}

fn idfile_path(id: &str) -> String {
    format!("/idfiles/{id}")
}

fn inode_path(dirkey: &str) -> String {
    format!("/inodes/{dirkey}")
}

fn chunk_path(id: &str, stripe: u64) -> String {
    format!("/chunks/{id}.{stripe}")
}

/// A `user.dirkey` xattr: `<key>:<owner index>`.
fn parse_dirkey(raw: &[u8]) -> (String, usize) {
    let spec = String::from_utf8_lossy(raw);
    let (key, owner) = spec.split_once(':').unwrap_or(("?", "0"));
    (key.to_string(), owner.parse().unwrap_or(0))
}

impl BeeGfs {
    /// Create a formatted BeeGFS instance (the `mkfs` + mount step; not
    /// traced). The paper's default: 2 metadata + 2 storage servers,
    /// 128 KiB stripes, ext4 in data-journaling mode underneath.
    pub fn new(topo: ClusterTopology, placement: Placement, stripe: u64) -> Self {
        Self::with_journal(topo, placement, stripe, JournalMode::Data)
    }

    /// Same, with an explicit local-FS journaling mode (the writeback /
    /// none modes model weaker local file systems, Figure 2 case ③).
    pub fn with_journal(
        topo: ClusterTopology,
        placement: Placement,
        stripe: u64,
        journal: JournalMode,
    ) -> Self {
        let mut base = ModelBase::fs(topo, placement, stripe, journal);
        for m in base.topo.metadata_servers() {
            let fs = base.mkfs(m).as_fs_mut();
            fs.mkdir_all("/dentries").unwrap();
            fs.mkdir_all("/idfiles").unwrap();
            fs.mkdir_all("/inodes").unwrap();
        }
        for s in base.topo.storage_servers() {
            base.mkfs(s).as_fs_mut().mkdir_all("/chunks").unwrap();
        }
        let owner = base.placement.dir_index("/", base.n_meta());
        let fs = base.mkfs(base.meta_server(owner)).as_fs_mut();
        fs.mkdir_all("/dentries/root").unwrap();
        fs.creat("/inodes/root").unwrap();
        base.seal();
        let key = "root".to_string();
        BeeGfs {
            base,
            dirs: BTreeMap::from([("/".to_string(), DirInfo { key, owner })]),
            files: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// The paper's default configuration.
    pub fn paper_default() -> Self {
        BeeGfs::new(
            ClusterTopology::paper_dedicated_default(),
            Placement::new(),
            128 * 1024,
        )
    }

    /// `setxattr(path, key, value)` on `server`.
    fn set_xattr(
        &mut self,
        rec: &mut Recorder,
        server: u32,
        path: String,
        key: &str,
        value: impl Into<Vec<u8>>,
        parent: EventId,
    ) -> EventId {
        let (key, value) = (key.into(), value.into());
        self.base
            .emit_fs(rec, server, FsOp::SetXattr { path, key, value }, parent)
    }

    /// The directory-inode `mtime` bump every namespace change ends with.
    fn touch_dir(&mut self, rec: &mut Recorder, meta: u32, dirkey: &str, recv: EventId) -> EventId {
        self.set_xattr(rec, meta, inode_path(dirkey), "user.mtime", "t", recv)
    }

    fn do_creat(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        path: &str,
        cev: EventId,
    ) -> PfsResult<()> {
        let pinfo = lookup(&self.dirs, &parent_of(path))?.clone();
        let meta = self.base.meta_server(pinfo.owner);
        let id = format!("f{}", self.next_id);
        self.next_id += 1;
        let first = self.base.placement.file_index(path, self.base.n_storage());

        // Figure 2: creat(idfile); link(idfile, dentries/<name>);
        // setxattr(dir_inode) on the metadata server, driven by an RPC
        // from the client.
        let msg = format!("CREAT {path}");
        let recv = self.base.request(rec, client, meta, &msg, cev);
        let idf = idfile_path(&id);
        let op = FsOp::Creat { path: idf.clone() };
        let e1 = self.base.emit_fs(rec, meta, op, recv);
        let info = format!("id={id};first={first}");
        self.set_xattr(rec, meta, idf.clone(), "user.info", info, e1);
        let dst = dentry_path(&pinfo.key, name_of(path));
        let op = FsOp::Link { src: idf, dst };
        self.base.emit_fs(rec, meta, op, recv);
        let w = self.touch_dir(rec, meta, &pinfo.key, recv);
        self.base.reply(rec, meta, client, "OK", w);

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
        let pinfo = lookup(&self.dirs, &parent_of(path))?.clone();
        let key = format!("d{}", self.next_id);
        self.next_id += 1;
        let owner = self.base.placement.dir_index(path, self.base.n_meta());
        let pmeta = self.base.meta_server(pinfo.owner);
        let ometa = self.base.meta_server(owner);

        // Dentry on the parent's owner.
        let msg = format!("MKDIR {path}");
        let recv = self.base.request(rec, client, pmeta, &msg, cev);
        let dentry = dentry_path(&pinfo.key, name_of(path));
        let creat = FsOp::Creat {
            path: dentry.clone(),
        };
        let e = self.base.emit_fs(rec, pmeta, creat, recv);
        let dirkey = format!("{key}:{owner}");
        self.set_xattr(rec, pmeta, dentry, "user.dirkey", dirkey, e);
        let w = self.touch_dir(rec, pmeta, &pinfo.key, recv);
        self.base.reply(rec, pmeta, client, "OK", w);

        // Dentries dir + inode on the new directory's owner.
        let msg = format!("MKDIR-OBJ {key}");
        let recv2 = self.base.request(rec, client, ometa, &msg, cev);
        let mkdir = FsOp::Mkdir {
            path: format!("/dentries/{key}"),
        };
        self.base.emit_fs(rec, ometa, mkdir, recv2);
        let creat = FsOp::Creat {
            path: inode_path(&key),
        };
        let w2 = self.base.emit_fs(rec, ometa, creat, recv2);
        self.base.reply(rec, ometa, client, "OK", w2);

        self.dirs.insert(path.to_string(), DirInfo { key, owner });
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
        let f = lookup_mut(&mut self.files, path)?;
        let owner = lookup(&self.dirs, &parent_of(path))?.owner;
        let meta = self.base.meta_server(owner);
        let n = self.base.n_storage();

        // Round-robin from the file's recorded first stripe target.
        let (base, mut last) = (&mut self.base, None);
        for seg in stripe_segments(f.first, offset, data.len(), base.stripe, n) {
            let storage = base.storage_server(seg.target);
            let msg = format!("WRITE {path} stripe {}", seg.stripe);
            let recv = base.request(rec, client, storage, &msg, cev);
            let chunk = chunk_path(&f.id, seg.stripe);
            let w = base.write_chunk(rec, storage, chunk, &mut f.chunks, &seg, data, recv);
            // Ack to the client: the write call returns before the next
            // client operation runs.
            base.reply(rec, storage, client, "OK", w);
            last = Some(storage);
        }

        // Size update on the metadata server, sent by the storage side
        // (Figure 2: storage `sendto(meta-node)`, meta `setxattr(idfile)`,
        // acknowledged before the write call returns).
        f.size = f.size.max(offset + data.len() as u64);
        let (idf, size) = (idfile_path(&f.id), f.size.to_string());
        if let Some(storage) = last {
            let msg = format!("SIZE {path}");
            let recv = self.base.notify(rec, storage, meta, &msg, Some(cev));
            let w = self.set_xattr(rec, meta, idf, "user.size", size, recv);
            self.base.reply(rec, meta, client, "SIZE-OK", w);
        }
        Ok(())
    }

    fn rename_dir(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        src: &str,
        dst: &str,
        cev: EventId,
    ) -> PfsResult<()> {
        let spinfo = lookup(&self.dirs, &parent_of(src))?.clone();
        let dpinfo = lookup(&self.dirs, &parent_of(dst))?.clone();
        if spinfo.key != dpinfo.key {
            // The model only traces directory renames within one parent.
            return Err(PfsError::BadCall(format!(
                "directory rename across parents: {src} -> {dst}"
            )));
        }
        let meta = self.base.meta_server(spinfo.owner);
        let msg = format!("RENAME {src} {dst}");
        let recv = self.base.request(rec, client, meta, &msg, cev);
        let rename = FsOp::Rename {
            src: dentry_path(&spinfo.key, name_of(src)),
            dst: dentry_path(&dpinfo.key, name_of(dst)),
        };
        self.base.emit_fs(rec, meta, rename, recv);
        let w = self.touch_dir(rec, meta, &spinfo.key, recv);
        self.base.reply(rec, meta, client, "OK", w);
        rekey(&mut self.dirs, src, dst);
        rekey(&mut self.files, src, dst);
        Ok(())
    }

    fn rename_file(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        src: &str,
        dst: &str,
        cev: EventId,
    ) -> PfsResult<()> {
        let spinfo = lookup(&self.dirs, &parent_of(src))?.clone();
        let dpinfo = lookup(&self.dirs, &parent_of(dst))?.clone();
        let sinfo = lookup(&self.files, src)?.clone();
        let overwritten = self.files.get(dst).cloned();
        let sdentry = dentry_path(&spinfo.key, name_of(src));
        let ddentry = dentry_path(&dpinfo.key, name_of(dst));

        let smeta = self.base.meta_server(spinfo.owner);
        if spinfo.owner == dpinfo.owner {
            let msg = format!("RENAME {src} {dst}");
            let recv = self.base.request(rec, client, smeta, &msg, cev);
            if spinfo.key == dpinfo.key {
                // Same directory: one atomic local rename
                // (Figure 2: rename(dentries/tmp, dentries/file)).
                let (src, dst) = (sdentry, ddentry);
                self.base
                    .emit_fs(rec, smeta, FsOp::Rename { src, dst }, recv);
            } else {
                // Cross-directory: BeeGFS dentries are hard links, so the
                // move decomposes into link(new) + unlink(old) — the
                // non-atomic pair behind Table 3 bug 4.
                let (src, dst) = (sdentry.clone(), ddentry);
                self.base.emit_fs(rec, smeta, FsOp::Link { src, dst }, recv);
                self.base
                    .emit_fs(rec, smeta, FsOp::Unlink { path: sdentry }, recv);
            }
            self.touch_dir(rec, smeta, &dpinfo.key, recv);
            if let Some(old) = &overwritten {
                // Figure 2: unlink(old-idfile) on the metadata server.
                let path = idfile_path(&old.id);
                self.base.emit_fs(rec, smeta, FsOp::Unlink { path }, recv);
            }
            let idf = idfile_path(&sinfo.id);
            let w = self.set_xattr(rec, smeta, idf, "user.ctime", "t", recv);
            self.base.reply(rec, smeta, client, "OK", w);

            // Asynchronous chunk cleanup of the overwritten file
            // (Figure 2: meta `sendto(storage)`, storage
            // `unlink(old-chunk)` — no ack).
            if let Some(old) = &overwritten {
                self.unlink_chunks(rec, smeta, old, Some(recv));
            }
        } else {
            // Cross-metadata-server move: new idfile + dentry on the
            // destination owner, removal on the source owner.
            let dmeta = self.base.meta_server(dpinfo.owner);
            let msg = format!("RENAME-IN {dst}");
            let recv = self.base.request(rec, client, dmeta, &msg, cev);
            let idf = idfile_path(&sinfo.id);
            let op = FsOp::Creat { path: idf.clone() };
            let e = self.base.emit_fs(rec, dmeta, op, recv);
            let info = format!("id={};first={}", sinfo.id, sinfo.first);
            self.set_xattr(rec, dmeta, idf.clone(), "user.info", info, e);
            let size = sinfo.size.to_string();
            self.set_xattr(rec, dmeta, idf.clone(), "user.size", size, e);
            let link = FsOp::Link {
                src: idf.clone(),
                dst: ddentry,
            };
            let w = self.base.emit_fs(rec, dmeta, link, recv);
            self.base.reply(rec, dmeta, client, "OK", w);

            let msg = format!("RENAME-OUT {src}");
            let recv2 = self.base.request(rec, client, smeta, &msg, cev);
            let unlink = FsOp::Unlink { path: sdentry };
            self.base.emit_fs(rec, smeta, unlink, recv2);
            let unlink = FsOp::Unlink { path: idf };
            let w2 = self.base.emit_fs(rec, smeta, unlink, recv2);
            self.base.reply(rec, smeta, client, "OK", w2);

            if let Some(old) = &overwritten {
                self.unlink_chunks(rec, dmeta, old, None);
            }
        }

        self.files.remove(src);
        self.files.insert(dst.to_string(), sinfo);
        Ok(())
    }

    /// Asynchronous chunk removal for a deleted/overwritten file.
    fn unlink_chunks(
        &mut self,
        rec: &mut Recorder,
        meta: u32,
        info: &FileInfo,
        parent: Option<EventId>,
    ) {
        for &stripe in info.chunks.keys() {
            let storage = self.base.stripe_server(info.first, stripe);
            let msg = format!("UNLINK-CHUNK {}.{stripe}", info.id);
            let recv = self.base.notify(rec, meta, storage, &msg, parent);
            let path = chunk_path(&info.id, stripe);
            self.base.emit_fs(rec, storage, FsOp::Unlink { path }, recv);
        }
    }

    fn do_unlink(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        path: &str,
        cev: EventId,
    ) -> PfsResult<()> {
        let pinfo = lookup(&self.dirs, &parent_of(path))?.clone();
        let info = lookup(&self.files, path)?.clone();
        let meta = self.base.meta_server(pinfo.owner);
        let msg = format!("UNLINK {path}");
        let recv = self.base.request(rec, client, meta, &msg, cev);
        for path in [
            dentry_path(&pinfo.key, name_of(path)),
            idfile_path(&info.id),
        ] {
            self.base.emit_fs(rec, meta, FsOp::Unlink { path }, recv);
        }
        let w = self.touch_dir(rec, meta, &pinfo.key, recv);
        self.base.reply(rec, meta, client, "OK", w);
        self.unlink_chunks(rec, meta, &info, Some(recv));
        self.files.remove(path);
        Ok(())
    }

    /// Dentry removal on the parent's owner; object cleanup is lazy (not
    /// modelled — none of the test programs need it).
    fn do_rmdir(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        path: &str,
        cev: EventId,
    ) -> PfsResult<()> {
        let pinfo = lookup(&self.dirs, &parent_of(path))?.clone();
        let meta = self.base.meta_server(pinfo.owner);
        let msg = format!("RMDIR {path}");
        let recv = self.base.request(rec, client, meta, &msg, cev);
        let op = FsOp::Unlink {
            path: dentry_path(&pinfo.key, name_of(path)),
        };
        let w = self.base.emit_fs(rec, meta, op, recv);
        self.base.reply(rec, meta, client, "OK", w);
        self.dirs.remove(path);
        Ok(())
    }

    /// tuneRemoteFSync: the client fsync is forwarded to every server
    /// holding a piece of the file.
    fn do_fsync(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        path: &str,
        cev: EventId,
    ) -> PfsResult<()> {
        let Some(info) = self.files.get(path).cloned() else {
            return Ok(());
        };
        for &stripe in info.chunks.keys() {
            let storage = self.base.stripe_server(info.first, stripe);
            let msg = format!("FSYNC {path} stripe {stripe}");
            let recv = self.base.request(rec, client, storage, &msg, cev);
            let path = chunk_path(&info.id, stripe);
            let w = self.base.emit_fs(rec, storage, FsOp::Fsync { path }, recv);
            self.base.reply(rec, storage, client, "OK", w);
        }
        let owner = lookup(&self.dirs, &parent_of(path))?.owner;
        let meta = self.base.meta_server(owner);
        let msg = format!("FSYNC-META {path}");
        let recv = self.base.request(rec, client, meta, &msg, cev);
        let path = idfile_path(&info.id);
        let w = self.base.emit_fs(rec, meta, FsOp::Fsync { path }, recv);
        self.base.reply(rec, meta, client, "OK", w);
        Ok(())
    }

    /// Walk one directory (by key/owner) of a crashed-or-live state.
    fn walk_dir(
        &self,
        states: &ServerStates,
        key: &str,
        owner: usize,
        vpath: &str,
        view: &mut PfsView,
    ) {
        let fs = states.server(self.base.meta_server(owner)).as_fs();
        let dent_dir = format!("/dentries/{key}");
        let Ok(names) = fs.readdir(&dent_dir) else {
            return;
        };
        for name in names {
            let dentry = format!("{dent_dir}/{name}");
            let child = child_path(vpath, &name);
            if let Ok(dk) = fs.getxattr(&dentry, "user.dirkey") {
                let (ckey, cowner) = parse_dirkey(dk);
                view.add_dir(child.clone());
                self.walk_dir(states, &ckey, cowner, &child, view);
            } else {
                // Regular file: the dentry is a hard link to the idfile.
                self.read_file(states, fs, &dentry, &child, view);
            }
        }
    }

    fn read_file(
        &self,
        states: &ServerStates,
        meta_fs: &FsState,
        dentry: &str,
        vpath: &str,
        view: &mut PfsView,
    ) {
        let Ok(info) = meta_fs.getxattr(dentry, "user.info") else {
            // idfile attributes never persisted: file exists but cannot
            // be resolved to chunks.
            view.add_damaged_file(vpath);
            return;
        };
        let info = String::from_utf8_lossy(info);
        let id = attr(&info, "id").unwrap_or("");
        let first: usize = attr_num(&info, "first");
        // The stripe count is implied by the chunk files themselves.
        let content = read_striped(states, |stripe| {
            let storage = self.base.stripe_server(first, stripe);
            (storage, chunk_path(id, stripe))
        });
        view.add_file(vpath, content);
    }
}

impl Pfs for BeeGfs {
    fn name(&self) -> &'static str {
        "BeeGFS"
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
        match call {
            PfsCall::Creat { path } => self.do_creat(rec, client, path, cev),
            PfsCall::Mkdir { path } => self.do_mkdir(rec, client, path, cev),
            PfsCall::Pwrite { path, offset, data } => {
                self.do_pwrite(rec, client, path, *offset, data, cev)
            }
            PfsCall::Rename { src, dst } if self.dirs.contains_key(src) => {
                self.rename_dir(rec, client, src, dst, cev)
            }
            PfsCall::Rename { src, dst } => self.rename_file(rec, client, src, dst, cev),
            PfsCall::Unlink { path } => self.do_unlink(rec, client, path, cev),
            PfsCall::Rmdir { path } => self.do_rmdir(rec, client, path, cev),
            // Client-side handle release only; BeeGFS flushes nothing.
            PfsCall::Close { .. } => Ok(()),
            PfsCall::Fsync { path } => self.do_fsync(rec, client, path, cev),
        }
    }

    fn recover(&self, states: &mut ServerStates) {
        let _span = pc_rt::obs::span_cat("recover/BeeGFS", "pfs");
        let metas = self.base.topo.metadata_servers();
        // Pass 1: a directory dentry whose dentries object is missing on
        // its owner gets an empty one.
        for &m in &metas {
            let fs = states.server(m).as_fs().fork();
            for key in fs.readdir("/dentries").unwrap_or_default() {
                let dent_dir = format!("/dentries/{key}");
                for name in fs.readdir(&dent_dir).unwrap_or_default() {
                    let dentry = format!("{dent_dir}/{name}");
                    let Ok(spec) = fs.getxattr(&dentry, "user.dirkey") else {
                        continue;
                    };
                    let (ckey, cowner) = parse_dirkey(spec);
                    let cmeta = self.base.meta_server(cowner);
                    let object = format!("/dentries/{ckey}");
                    if !states.server(cmeta).as_fs().is_dir(&object) {
                        let _ = states.server_mut(cmeta).as_fs_mut().mkdir_all(&object);
                    }
                }
            }
        }
        // Pass 2: an idfile no dentry of its own server links to (the
        // create's `link` never persisted, or every dentry was removed) is
        // an orphan and is disposed.
        for &m in &metas {
            let fs = states.server(m).as_fs().fork();
            let mut linked: HashSet<Ino> = HashSet::new();
            for key in fs.readdir("/dentries").unwrap_or_default() {
                let dent_dir = format!("/dentries/{key}");
                for name in fs.readdir(&dent_dir).unwrap_or_default() {
                    linked.extend(fs.resolve(&format!("{dent_dir}/{name}")));
                }
            }
            for id in fs.readdir("/idfiles").unwrap_or_default() {
                let idf = format!("/idfiles/{id}");
                if fs.resolve(&idf).is_ok_and(|ino| !linked.contains(&ino)) {
                    let _ = states.server_mut(m).as_fs_mut().unlink(&idf);
                }
            }
        }
        // Pass 3: chunks no idfile owns are collected. Referenced but
        // missing chunks are data loss the tool cannot repair (§2.3:
        // "cannot be resolved by beegfs-fsck").
        let live: HashSet<String> = (metas.iter())
            .flat_map(|&m| {
                states
                    .server(m)
                    .as_fs()
                    .readdir("/idfiles")
                    .unwrap_or_default()
            })
            .collect();
        self.base.collect_orphans(states, "/chunks", &live);
    }

    fn client_view(&self, states: &ServerStates) -> PfsView {
        let mut view = PfsView::new();
        let root_owner = self.base.placement.dir_index("/", self.base.n_meta());
        self.walk_dir(states, "root", root_owner, "/", &mut view);
        view
    }

    fn restart_cost_secs(&self) -> f64 {
        // §6.4: BeeGFS requires the longest restart, up to 7.8 s.
        7.8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::testkit::*;
    use crate::recover_and_mount;
    use tracer::Payload;

    fn arvr_setup() -> (BeeGfs, Recorder) {
        let mut fs = BeeGfs::paper_default();
        let (rec, _) = run_arvr(&mut fs);
        (fs, rec)
    }

    #[test]
    fn live_view_after_arvr_shows_new_content() {
        let (fs, _rec) = arvr_setup();
        let view = fs.client_view(fs.live());
        assert_eq!(view.read("/file"), Some(&b"new"[..]));
        assert!(!view.exists("/tmp"));
    }

    #[test]
    fn baseline_view_shows_old_content() {
        let (fs, _rec) = arvr_setup();
        let view = fs.client_view(fs.baseline());
        assert_eq!(view.read("/file"), Some(&b"old"[..]));
    }

    #[test]
    fn full_replay_on_baseline_matches_live() {
        let (fs, rec) = arvr_setup();
        let mut states = fs.baseline().clone();
        states.apply_events(&rec, rec.lowermost_events());
        assert_eq!(fs.client_view(&states), fs.client_view(fs.live()));
    }

    #[test]
    fn dropping_the_append_loses_data_bug1_shape() {
        // Persist everything except the storage-side append of /tmp's
        // chunk: after the rename the file points at an empty chunk —
        // both versions lost (Figure 2 case ①).
        let (fs, rec) = arvr_setup();
        let dropped: Vec<EventId> = rec
            .lowermost_events()
            .into_iter()
            .filter(|&id| {
                !matches!(
                    &rec.event(id).payload,
                    Payload::Fs {
                        op: FsOp::Append { .. },
                        ..
                    }
                )
            })
            .collect();
        let mut states = fs.baseline().clone();
        states.apply_events(&rec, dropped);
        let view = recover_and_mount(&fs, &mut states);
        // The file exists but its content is neither old nor new.
        let got = view.read("/file");
        assert!(
            got != Some(&b"old"[..]) && got != Some(&b"new"[..]),
            "{view}"
        );
        assert!(!view.exists("/tmp"));
    }

    #[test]
    fn dropping_meta_rename_after_chunk_unlink_is_bug2_shape() {
        // Persist the storage-side unlink of the old chunk but none of
        // the rename's metadata ops: `file` still points at the (gone)
        // old chunk — data loss (Figure 2 case ②).
        let (fs, rec) = arvr_setup();
        let keep: Vec<EventId> = rec
            .lowermost_events()
            .into_iter()
            .filter(|&id| match &rec.event(id).payload {
                // Drop every metadata-server op belonging to the rename
                // flow (rename/link/unlink of idfiles, late xattrs) but
                // keep the storage unlink. The rename flow starts after
                // the tmp write, so filter by op shape.
                Payload::Fs { op, .. } => {
                    !matches!(op, FsOp::Rename { .. })
                        && !matches!(op, FsOp::SetXattr { key, .. } if key == "user.ctime")
                        && !matches!(op, FsOp::Unlink { path } if path.starts_with("/idfiles"))
                }
                _ => true,
            })
            .collect();
        let mut states = fs.baseline().clone();
        states.apply_events(&rec, keep);
        let view = recover_and_mount(&fs, &mut states);
        // tmp holds the new data; file lost its content (chunk gone).
        assert_eq!(view.read("/tmp"), Some(&b"new"[..]));
        assert!(view.exists("/file"));
        let file = view.read("/file");
        assert!(
            file != Some(&b"old"[..]) && file != Some(&b"new"[..]),
            "{view}"
        );
    }

    #[test]
    fn mkdir_and_nested_files() {
        let mut fs = BeeGfs::paper_default();
        let calls = [mkdir("/A"), creat("/A/foo"), pwrite("/A/foo", 0, b"x")];
        drive(&mut fs, &mut Recorder::new(), &calls);
        let view = fs.client_view(fs.live());
        assert!(view.has_dir("/A"));
        assert_eq!(view.read("/A/foo"), Some(&b"x"[..]));
    }

    #[test]
    fn cross_directory_rename_decomposes_into_link_unlink() {
        let mut fs = BeeGfs::paper_default();
        let mut rec = Recorder::new();
        drive(
            &mut fs,
            &mut rec,
            &[mkdir("/A"), mkdir("/B"), creat("/A/foo")],
        );
        let before = rec.len();
        drive(&mut fs, &mut rec, &[rename("/A/foo", "/B/foo")]);
        let emitted = |want: fn(&FsOp) -> bool| {
            rec.events()[before..]
                .iter()
                .any(|e| matches!(&e.payload, Payload::Fs { op, .. } if want(op)))
        };
        assert!(emitted(|op| matches!(op, FsOp::Link { .. })));
        assert!(emitted(|op| matches!(op, FsOp::Unlink { .. })));
        let view = fs.client_view(fs.live());
        assert!(view.exists("/B/foo"));
        assert!(!view.exists("/A/foo"));
    }

    #[test]
    fn striped_file_spans_storage_servers() {
        let mut fs = BeeGfs::new(
            ClusterTopology::paper_dedicated_default(),
            Placement::new().pin_file("/big", 0),
            4, // tiny stripe to force splitting
        );
        let calls = [creat("/big"), pwrite("/big", 0, b"0123456789")];
        drive(&mut fs, &mut Recorder::new(), &calls);
        let view = fs.client_view(fs.live());
        assert_eq!(view.read("/big"), Some(&b"0123456789"[..]));
        // Both storage servers hold chunks.
        let s0 = fs.live().server(2).as_fs().readdir("/chunks").unwrap();
        let s1 = fs.live().server(3).as_fs().readdir("/chunks").unwrap();
        assert!(!s0.is_empty() && !s1.is_empty());
    }

    /// Every storage server's `/chunks` listing.
    fn chunks(fs: &BeeGfs, states: &ServerStates) -> Vec<Vec<String>> {
        let storage = fs.base.topo.storage_servers().into_iter();
        storage
            .map(|s| states.server(s).as_fs().readdir("/chunks").unwrap())
            .collect()
    }

    /// The lowermost events of `rec` except those whose op `drop` selects.
    fn without(rec: &Recorder, drop: fn(&FsOp) -> bool) -> Vec<EventId> {
        let dropped =
            |id: EventId| matches!(&rec.event(id).payload, Payload::Fs { op, .. } if drop(op));
        rec.lowermost_events()
            .into_iter()
            .filter(|&id| !dropped(id))
            .collect()
    }

    #[test]
    fn fsck_collects_orphan_chunks() {
        let (fs, rec) = arvr_setup();
        // Persist only the storage-side ops of the tmp write: chunks with
        // no metadata.
        let keep: Vec<EventId> = rec
            .lowermost_events()
            .into_iter()
            .filter(|&id| match &rec.event(id).payload {
                Payload::Fs { server, op } => {
                    fs.base.topo.storage_servers().contains(server)
                        && matches!(op, FsOp::Creat { .. } | FsOp::Append { .. })
                }
                _ => false,
            })
            .collect();
        let mut states = fs.baseline().clone();
        states.apply_events(&rec, keep);
        assert_ne!(chunks(&fs, &states), chunks(&fs, fs.baseline()));
        fs.recover(&mut states);
        assert_eq!(chunks(&fs, &states), chunks(&fs, fs.baseline()));
    }

    #[test]
    fn fsck_recreates_a_missing_directory_object() {
        // /A's dentry lands on the root's server, its dentries object on
        // the other one; only the object is lost.
        let placement = Placement::new().pin_dir("/", 0).pin_dir("/A", 1);
        let topo = ClusterTopology::paper_dedicated_default();
        let mut fs = BeeGfs::new(topo, placement, 128 * 1024);
        let mut rec = Recorder::new();
        drive(&mut fs, &mut rec, &[mkdir("/A")]);
        let object =
            |op: &FsOp| matches!(op, FsOp::Mkdir { path } if path.starts_with("/dentries/"));
        let mut states = fs.baseline().clone();
        states.apply_events(&rec, without(&rec, object));
        let owner = fs.base.meta_server(1);
        let key = &fs.dirs["/A"].key;
        let has_object =
            |st: &ServerStates| st.server(owner).as_fs().is_dir(&format!("/dentries/{key}"));
        assert!(!has_object(&states));
        fs.recover(&mut states);
        assert!(has_object(&states));
    }

    #[test]
    fn fsck_disposes_an_orphan_idfile_and_collects_its_chunk() {
        // Three metadata servers: /A on the second, /B on the third.
        let placement = Placement::new()
            .pin_dir("/", 0)
            .pin_dir("/A", 1)
            .pin_dir("/B", 2);
        let mut fs = BeeGfs::new(ClusterTopology::dedicated(3, 2, 1), placement, 128 * 1024);
        let preamble = [
            mkdir("/A"),
            mkdir("/B"),
            creat("/A/keep"),
            pwrite("/A/keep", 0, b"k"),
        ];
        drive(&mut fs, &mut Recorder::new(), &preamble);
        fs.seal_baseline();
        let mut rec = Recorder::new();
        drive(
            &mut fs,
            &mut rec,
            &[creat("/B/lost"), pwrite("/B/lost", 0, b"x")],
        );
        // Everything persists but the dentry's link: /B/lost's idfile and
        // chunk have no name.
        let mut states = fs.baseline().clone();
        states.apply_events(&rec, without(&rec, |op| matches!(op, FsOp::Link { .. })));
        let idfiles = |st: &ServerStates, idx: usize| {
            let meta = fs.base.meta_server(idx);
            st.server(meta).as_fs().readdir("/idfiles").unwrap()
        };
        let lost = &fs.files["/B/lost"].id;
        assert_eq!(idfiles(&states, 2), [lost.as_str()]);
        assert!(chunks(&fs, &states).concat().contains(&format!("{lost}.0")));
        fs.recover(&mut states);
        assert!(idfiles(&states, 2).is_empty());
        assert_eq!(idfiles(&states, 1), [fs.files["/A/keep"].id.as_str()]);
        assert_eq!(chunks(&fs, &states), chunks(&fs, fs.baseline()));
        assert_eq!(fs.client_view(&states).read("/A/keep"), Some(&b"k"[..]));
    }

    #[test]
    fn fsync_emits_server_side_syncs() {
        let mut fs = BeeGfs::paper_default();
        let mut rec = Recorder::new();
        let calls = [creat("/f"), pwrite("/f", 0, b"d"), fsync("/f")];
        drive(&mut fs, &mut rec, &calls);
        let syncs = rec
            .events()
            .iter()
            .filter(|e| e.payload.is_storage_sync())
            .count();
        assert!(syncs >= 2); // chunk fsync + idfile fsync
    }
}
