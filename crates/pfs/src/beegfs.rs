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

use crate::call::PfsCall;
use crate::error::{PfsError, PfsResult};
use crate::placement::Placement;
use crate::store::ServerStates;
use crate::view::{PfsView, RecoveryReport};
use crate::Pfs;
use simfs::{FsOp, FsState, JournalMode};
use simnet::{ClusterTopology, FaultConfig, FaultPlane, RpcNet};
use std::collections::BTreeMap;
use tracer::{EventId, Layer, Payload, Process, Recorder};

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
pub struct BeeGfs {
    topo: ClusterTopology,
    placement: Placement,
    stripe: u64,
    journal: JournalMode,
    live: ServerStates,
    baseline: ServerStates,
    dirs: BTreeMap<String, DirInfo>,
    files: BTreeMap<String, FileInfo>,
    next_id: u64,
    faults: FaultPlane,
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
        let mut live = ServerStates::all_fs(topo.server_count(), journal);
        // mkfs: base directories on every server.
        for &m in &topo.metadata_servers() {
            let fs = live.server_mut(m).as_fs_mut();
            fs.mkdir_all("/dentries").unwrap();
            fs.mkdir_all("/idfiles").unwrap();
            fs.mkdir_all("/inodes").unwrap();
        }
        for &s in &topo.storage_servers() {
            live.server_mut(s).as_fs_mut().mkdir_all("/chunks").unwrap();
        }
        let mut dirs = BTreeMap::new();
        let root_owner = placement.dir_index("/", topo.metadata_servers().len());
        dirs.insert(
            "/".to_string(),
            DirInfo {
                key: "root".into(),
                owner: root_owner,
            },
        );
        let root_meta = topo.metadata_servers()[root_owner];
        let fs = live.server_mut(root_meta).as_fs_mut();
        fs.mkdir_all("/dentries/root").unwrap();
        fs.creat("/inodes/root").unwrap();
        let baseline = live.fork();
        BeeGfs {
            topo,
            placement,
            stripe,
            journal,
            live,
            baseline,
            dirs,
            files: BTreeMap::new(),
            next_id: 0,
            faults: FaultPlane::disabled(),
        }
    }

    /// The journaling mode of the servers' local file systems.
    pub fn journal_mode(&self) -> JournalMode {
        self.journal
    }

    /// The paper's default configuration.
    pub fn paper_default() -> Self {
        BeeGfs::new(
            ClusterTopology::paper_dedicated_default(),
            Placement::new(),
            128 * 1024,
        )
    }

    fn meta_server(&self, idx: usize) -> u32 {
        self.topo.metadata_servers()[idx]
    }

    fn storage_server(&self, idx: usize) -> u32 {
        self.topo.storage_servers()[idx]
    }

    fn n_meta(&self) -> usize {
        self.topo.metadata_servers().len()
    }

    fn n_storage(&self) -> usize {
        self.topo.storage_servers().len()
    }

    fn parent_of(path: &str) -> String {
        match path.rfind('/') {
            Some(0) => "/".to_string(),
            Some(i) => path[..i].to_string(),
            None => "/".to_string(),
        }
    }

    fn name_of(path: &str) -> &str {
        path.rsplit('/').next().unwrap_or(path)
    }

    /// Apply a lowermost op to the live state and record it.
    fn emit(
        &mut self,
        rec: &mut Recorder,
        server: u32,
        op: FsOp,
        parent: Option<EventId>,
    ) -> EventId {
        self.live.server_mut(server).apply_fs(&op);
        rec.record(
            Layer::LocalFs,
            Process::Server(server),
            Payload::Fs { server, op },
            parent,
        )
    }

    fn dentry_path(&self, dirkey: &str, name: &str) -> String {
        format!("/dentries/{dirkey}/{name}")
    }

    fn idfile_path(id: &str) -> String {
        format!("/idfiles/{id}")
    }

    fn chunk_path(id: &str, stripe: u64) -> String {
        format!("/chunks/{id}.{stripe}")
    }

    fn dir_info(&self, path: &str) -> PfsResult<&DirInfo> {
        self.dirs
            .get(path)
            .ok_or_else(|| PfsError::UnknownPath(path.to_string()))
    }

    fn file_info(&self, path: &str) -> PfsResult<&FileInfo> {
        self.files
            .get(path)
            .ok_or_else(|| PfsError::UnknownPath(path.to_string()))
    }

    fn file_mut(&mut self, path: &str) -> &mut FileInfo {
        self.files
            .get_mut(path)
            .expect("invariant: file checked present earlier in this call")
    }

    /// RPC net routed through this instance's fault plane.
    fn net<'a>(&'a mut self, rec: &'a mut Recorder) -> RpcNet<'a> {
        RpcNet::faulty(rec, &mut self.faults)
    }

    fn do_creat(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        path: &str,
        cev: EventId,
    ) -> PfsResult<()> {
        let parent_dir = Self::parent_of(path);
        let name = Self::name_of(path).to_string();
        let pinfo = self.dir_info(&parent_dir)?.clone();
        let meta = self.meta_server(pinfo.owner);
        let id = format!("f{}", self.next_id);
        self.next_id += 1;
        let first = self.placement.file_index(path, self.n_storage());

        // Figure 2: creat(idfile); link(idfile, dentries/<name>);
        // setxattr(dir_inode) on the metadata server, driven by an RPC
        // from the client.
        let (_, recv) = self.net(rec).request(
            client,
            Process::Server(meta),
            &format!("CREAT {path}"),
            Some(cev),
        );
        let idf = Self::idfile_path(&id);
        let e1 = self.emit(rec, meta, FsOp::Creat { path: idf.clone() }, Some(recv));
        self.emit(
            rec,
            meta,
            FsOp::SetXattr {
                path: idf.clone(),
                key: "user.info".into(),
                value: format!("id={id};first={first}").into_bytes(),
            },
            Some(e1),
        );
        self.emit(
            rec,
            meta,
            FsOp::Link {
                src: idf,
                dst: self.dentry_path(&pinfo.key, &name),
            },
            Some(recv),
        );
        let w = self.emit(
            rec,
            meta,
            FsOp::SetXattr {
                path: format!("/inodes/{}", pinfo.key),
                key: "user.mtime".into(),
                value: b"t".to_vec(),
            },
            Some(recv),
        );
        self.net(rec)
            .reply(Process::Server(meta), client, "OK", Some(w));

        self.files.insert(
            path.to_string(),
            FileInfo {
                id,
                first,
                size: 0,
                chunks: BTreeMap::new(),
            },
        );
        Ok(())
    }

    fn do_mkdir(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        path: &str,
        cev: EventId,
    ) -> PfsResult<()> {
        let parent_dir = Self::parent_of(path);
        let name = Self::name_of(path).to_string();
        let pinfo = self.dir_info(&parent_dir)?.clone();
        let key = format!("d{}", self.next_id);
        self.next_id += 1;
        let owner = self.placement.dir_index(path, self.n_meta());
        let pmeta = self.meta_server(pinfo.owner);
        let ometa = self.meta_server(owner);

        // Dentry on the parent's owner.
        let (_, recv) = self.net(rec).request(
            client,
            Process::Server(pmeta),
            &format!("MKDIR {path}"),
            Some(cev),
        );
        let dentry = self.dentry_path(&pinfo.key, &name);
        let e = self.emit(
            rec,
            pmeta,
            FsOp::Creat {
                path: dentry.clone(),
            },
            Some(recv),
        );
        self.emit(
            rec,
            pmeta,
            FsOp::SetXattr {
                path: dentry,
                key: "user.dirkey".into(),
                value: format!("{key}:{owner}").into_bytes(),
            },
            Some(e),
        );
        let w = self.emit(
            rec,
            pmeta,
            FsOp::SetXattr {
                path: format!("/inodes/{}", pinfo.key),
                key: "user.mtime".into(),
                value: b"t".to_vec(),
            },
            Some(recv),
        );
        self.net(rec)
            .reply(Process::Server(pmeta), client, "OK", Some(w));

        // Dentries dir + inode on the new directory's owner.
        let (_, recv2) = self.net(rec).request(
            client,
            Process::Server(ometa),
            &format!("MKDIR-OBJ {key}"),
            Some(cev),
        );
        self.emit(
            rec,
            ometa,
            FsOp::Mkdir {
                path: format!("/dentries/{key}"),
            },
            Some(recv2),
        );
        let w2 = self.emit(
            rec,
            ometa,
            FsOp::Creat {
                path: format!("/inodes/{key}"),
            },
            Some(recv2),
        );
        self.net(rec)
            .reply(Process::Server(ometa), client, "OK", Some(w2));

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
        let info = self.file_info(path)?.clone();
        let n_storage = self.n_storage();
        let parent_dir = Self::parent_of(path);
        let meta_owner = self.dir_info(&parent_dir)?.owner;
        let meta = self.meta_server(meta_owner);

        let mut segs = Vec::new();
        {
            // Round-robin from the file's recorded first stripe target.
            let mut off = offset;
            let end = offset + data.len() as u64;
            while off < end {
                let stripe = off / self.stripe;
                let stripe_end = (stripe + 1) * self.stripe;
                let len = stripe_end.min(end) - off;
                let sidx = (info.first + stripe as usize) % n_storage;
                segs.push((sidx, stripe, off, len));
                off += len;
            }
        }

        let mut touched_servers = Vec::new();
        for (sidx, stripe, off, len) in segs {
            let storage = self.storage_server(sidx);
            let (_, recv) = self.net(rec).request(
                client,
                Process::Server(storage),
                &format!("WRITE {path} stripe {stripe}"),
                Some(cev),
            );
            let chunk = Self::chunk_path(&info.id, stripe);
            let chunk_off = off - stripe * self.stripe;
            let cur_len = self
                .files
                .get(path)
                .and_then(|f| f.chunks.get(&stripe))
                .copied();
            if cur_len.is_none() {
                self.emit(
                    rec,
                    storage,
                    FsOp::Creat {
                        path: chunk.clone(),
                    },
                    Some(recv),
                );
                self.file_mut(path).chunks.insert(stripe, 0);
            }
            let cur_len = self.file_mut(path).chunks[&stripe];
            let buf = data[(off - offset) as usize..(off - offset + len) as usize].to_vec();
            let op = if chunk_off == cur_len {
                FsOp::Append {
                    path: chunk.clone(),
                    data: buf,
                }
            } else {
                FsOp::Pwrite {
                    path: chunk.clone(),
                    offset: chunk_off,
                    data: buf,
                }
            };
            let w = self.emit(rec, storage, op, Some(recv));
            let f = self.file_mut(path);
            let new_len = (chunk_off + len).max(cur_len);
            f.chunks.insert(stripe, new_len);
            // Ack to the client: the write call returns before the next
            // client operation runs.
            self.net(rec)
                .reply(Process::Server(storage), client, "OK", Some(w));
            touched_servers.push(storage);
        }

        // Size update on the metadata server, sent by the storage side
        // (Figure 2: storage `sendto(meta-node)`, meta `setxattr(idfile)`,
        // acknowledged before the write call returns).
        let f = self.file_mut(path);
        f.size = f.size.max(offset + data.len() as u64);
        let new_size = f.size;
        let idf = Self::idfile_path(&info.id);
        if let Some(&storage) = touched_servers.last() {
            let (_, recv) = self.net(rec).message(
                Process::Server(storage),
                Process::Server(meta),
                &format!("SIZE {path}"),
                Some(cev),
            );
            let w = self.emit(
                rec,
                meta,
                FsOp::SetXattr {
                    path: idf,
                    key: "user.size".into(),
                    value: new_size.to_string().into_bytes(),
                },
                Some(recv),
            );
            self.net(rec)
                .reply(Process::Server(meta), client, "SIZE-OK", Some(w));
        }
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
        if self.dirs.contains_key(src) {
            self.rename_dir(rec, client, src, dst, cev)
        } else {
            self.rename_file(rec, client, src, dst, cev)
        }
    }

    fn rename_dir(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        src: &str,
        dst: &str,
        cev: EventId,
    ) -> PfsResult<()> {
        let sparent = Self::parent_of(src);
        let dparent = Self::parent_of(dst);
        let spinfo = self.dir_info(&sparent)?.clone();
        let dpinfo = self.dir_info(&dparent)?.clone();
        if spinfo.key != dpinfo.key {
            // The model only traces directory renames within one parent.
            return Err(PfsError::BadCall(format!(
                "directory rename across parents: {src} -> {dst}"
            )));
        }
        let meta = self.meta_server(spinfo.owner);
        let (_, recv) = self.net(rec).request(
            client,
            Process::Server(meta),
            &format!("RENAME {src} {dst}"),
            Some(cev),
        );
        self.emit(
            rec,
            meta,
            FsOp::Rename {
                src: self.dentry_path(&spinfo.key, Self::name_of(src)),
                dst: self.dentry_path(&dpinfo.key, Self::name_of(dst)),
            },
            Some(recv),
        );
        let w = self.emit(
            rec,
            meta,
            FsOp::SetXattr {
                path: format!("/inodes/{}", spinfo.key),
                key: "user.mtime".into(),
                value: b"t".to_vec(),
            },
            Some(recv),
        );
        self.net(rec)
            .reply(Process::Server(meta), client, "OK", Some(w));

        // Runtime rebookkeeping: every path under src moves to dst.
        let rewrite = |map_keys: Vec<String>| -> Vec<(String, String)> {
            map_keys
                .into_iter()
                .filter(|k| k == src || k.starts_with(&format!("{src}/")))
                .map(|k| {
                    let new = format!("{dst}{}", &k[src.len()..]);
                    (k, new)
                })
                .collect()
        };
        for (old, new) in rewrite(self.dirs.keys().cloned().collect()) {
            let v = self
                .dirs
                .remove(&old)
                .expect("invariant: key came from this map");
            self.dirs.insert(new, v);
        }
        for (old, new) in rewrite(self.files.keys().cloned().collect()) {
            let v = self
                .files
                .remove(&old)
                .expect("invariant: key came from this map");
            self.files.insert(new, v);
        }
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
        let sparent = Self::parent_of(src);
        let dparent = Self::parent_of(dst);
        let spinfo = self.dir_info(&sparent)?.clone();
        let dpinfo = self.dir_info(&dparent)?.clone();
        let sinfo = self.file_info(src)?.clone();
        let overwritten = self.files.get(dst).cloned();

        let smeta = self.meta_server(spinfo.owner);
        if spinfo.owner == dpinfo.owner {
            let (_, recv) = self.net(rec).request(
                client,
                Process::Server(smeta),
                &format!("RENAME {src} {dst}"),
                Some(cev),
            );
            if spinfo.key == dpinfo.key {
                // Same directory: one atomic local rename
                // (Figure 2: rename(dentries/tmp, dentries/file)).
                self.emit(
                    rec,
                    smeta,
                    FsOp::Rename {
                        src: self.dentry_path(&spinfo.key, Self::name_of(src)),
                        dst: self.dentry_path(&dpinfo.key, Self::name_of(dst)),
                    },
                    Some(recv),
                );
            } else {
                // Cross-directory: BeeGFS dentries are hard links, so the
                // move decomposes into link(new) + unlink(old) — the
                // non-atomic pair behind Table 3 bug 4.
                self.emit(
                    rec,
                    smeta,
                    FsOp::Link {
                        src: self.dentry_path(&spinfo.key, Self::name_of(src)),
                        dst: self.dentry_path(&dpinfo.key, Self::name_of(dst)),
                    },
                    Some(recv),
                );
                self.emit(
                    rec,
                    smeta,
                    FsOp::Unlink {
                        path: self.dentry_path(&spinfo.key, Self::name_of(src)),
                    },
                    Some(recv),
                );
            }
            self.emit(
                rec,
                smeta,
                FsOp::SetXattr {
                    path: format!("/inodes/{}", dpinfo.key),
                    key: "user.mtime".into(),
                    value: b"t".to_vec(),
                },
                Some(recv),
            );
            if let Some(old) = &overwritten {
                // Figure 2: unlink(old-idfile) on the metadata server.
                self.emit(
                    rec,
                    smeta,
                    FsOp::Unlink {
                        path: Self::idfile_path(&old.id),
                    },
                    Some(recv),
                );
            }
            let w = self.emit(
                rec,
                smeta,
                FsOp::SetXattr {
                    path: Self::idfile_path(&sinfo.id),
                    key: "user.ctime".into(),
                    value: b"t".to_vec(),
                },
                Some(recv),
            );
            let reply_parent = recv;
            self.net(rec)
                .reply(Process::Server(smeta), client, "OK", Some(w));

            // Asynchronous chunk cleanup of the overwritten file
            // (Figure 2: meta `sendto(storage)`, storage
            // `unlink(old-chunk)` — no ack).
            if let Some(old) = &overwritten {
                self.unlink_chunks(rec, smeta, old, Some(reply_parent));
            }
        } else {
            // Cross-metadata-server move: new idfile + dentry on the
            // destination owner, removal on the source owner.
            let dmeta = self.meta_server(dpinfo.owner);
            let (_, recv) = self.net(rec).request(
                client,
                Process::Server(dmeta),
                &format!("RENAME-IN {dst}"),
                Some(cev),
            );
            let idf = Self::idfile_path(&sinfo.id);
            let e = self.emit(rec, dmeta, FsOp::Creat { path: idf.clone() }, Some(recv));
            self.emit(
                rec,
                dmeta,
                FsOp::SetXattr {
                    path: idf.clone(),
                    key: "user.info".into(),
                    value: format!("id={};first={}", sinfo.id, sinfo.first).into_bytes(),
                },
                Some(e),
            );
            self.emit(
                rec,
                dmeta,
                FsOp::SetXattr {
                    path: idf.clone(),
                    key: "user.size".into(),
                    value: sinfo.size.to_string().into_bytes(),
                },
                Some(e),
            );
            let link_dst = self.dentry_path(&dpinfo.key, Self::name_of(dst));
            let w = self.emit(
                rec,
                dmeta,
                FsOp::Link {
                    src: idf,
                    dst: link_dst,
                },
                Some(recv),
            );
            self.net(rec)
                .reply(Process::Server(dmeta), client, "OK", Some(w));

            let (_, recv2) = self.net(rec).request(
                client,
                Process::Server(smeta),
                &format!("RENAME-OUT {src}"),
                Some(cev),
            );
            self.emit(
                rec,
                smeta,
                FsOp::Unlink {
                    path: self.dentry_path(&spinfo.key, Self::name_of(src)),
                },
                Some(recv2),
            );
            let w2 = self.emit(
                rec,
                smeta,
                FsOp::Unlink {
                    path: Self::idfile_path(&sinfo.id),
                },
                Some(recv2),
            );
            self.net(rec)
                .reply(Process::Server(smeta), client, "OK", Some(w2));

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
        let stripes: Vec<u64> = info.chunks.keys().copied().collect();
        let n_storage = self.n_storage();
        for stripe in stripes {
            let sidx = (info.first + stripe as usize) % n_storage;
            let storage = self.storage_server(sidx);
            let (send, recv) = self.net(rec).message(
                Process::Server(meta),
                Process::Server(storage),
                &format!("UNLINK-CHUNK {}.{stripe}", info.id),
                parent,
            );
            let _ = send;
            self.emit(
                rec,
                storage,
                FsOp::Unlink {
                    path: Self::chunk_path(&info.id, stripe),
                },
                Some(recv),
            );
        }
    }

    fn do_unlink(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        path: &str,
        cev: EventId,
    ) -> PfsResult<()> {
        let parent_dir = Self::parent_of(path);
        let pinfo = self.dir_info(&parent_dir)?.clone();
        let info = self.file_info(path)?.clone();
        let meta = self.meta_server(pinfo.owner);
        let (_, recv) = self.net(rec).request(
            client,
            Process::Server(meta),
            &format!("UNLINK {path}"),
            Some(cev),
        );
        self.emit(
            rec,
            meta,
            FsOp::Unlink {
                path: self.dentry_path(&pinfo.key, Self::name_of(path)),
            },
            Some(recv),
        );
        self.emit(
            rec,
            meta,
            FsOp::Unlink {
                path: Self::idfile_path(&info.id),
            },
            Some(recv),
        );
        let w = self.emit(
            rec,
            meta,
            FsOp::SetXattr {
                path: format!("/inodes/{}", pinfo.key),
                key: "user.mtime".into(),
                value: b"t".to_vec(),
            },
            Some(recv),
        );
        let reply_parent = recv;
        self.net(rec)
            .reply(Process::Server(meta), client, "OK", Some(w));
        self.unlink_chunks(rec, meta, &info, Some(reply_parent));
        self.files.remove(path);
        Ok(())
    }

    fn do_fsync(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        path: &str,
        cev: EventId,
    ) -> PfsResult<()> {
        // tuneRemoteFSync: the client fsync is forwarded to every server
        // holding a piece of the file.
        let Some(info) = self.files.get(path).cloned() else {
            return Ok(());
        };
        let n_storage = self.n_storage();
        for &stripe in info.chunks.keys() {
            let storage = self.storage_server((info.first + stripe as usize) % n_storage);
            let (_, recv) = self.net(rec).request(
                client,
                Process::Server(storage),
                &format!("FSYNC {path} stripe {stripe}"),
                Some(cev),
            );
            let w = self.emit(
                rec,
                storage,
                FsOp::Fsync {
                    path: Self::chunk_path(&info.id, stripe),
                },
                Some(recv),
            );
            self.net(rec)
                .reply(Process::Server(storage), client, "OK", Some(w));
        }
        let parent_dir = Self::parent_of(path);
        let meta = self.meta_server(self.dir_info(&parent_dir)?.owner);
        let (_, recv) = self.net(rec).request(
            client,
            Process::Server(meta),
            &format!("FSYNC-META {path}"),
            Some(cev),
        );
        let w = self.emit(
            rec,
            meta,
            FsOp::Fsync {
                path: Self::idfile_path(&info.id),
            },
            Some(recv),
        );
        self.net(rec)
            .reply(Process::Server(meta), client, "OK", Some(w));
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
        let meta = self.meta_server(owner);
        let fs = states.server(meta).as_fs();
        let dent_dir = format!("/dentries/{key}");
        let Ok(names) = fs.readdir(&dent_dir) else {
            return;
        };
        for name in names {
            let dentry = format!("{dent_dir}/{name}");
            let child_vpath = if vpath == "/" {
                format!("/{name}")
            } else {
                format!("{vpath}/{name}")
            };
            if let Ok(dk) = fs.getxattr(&dentry, "user.dirkey") {
                // Subdirectory.
                let spec = String::from_utf8_lossy(dk);
                let (ckey, cowner) = spec.split_once(':').unwrap_or(("?", "0"));
                let cowner: usize = cowner.parse().unwrap_or(0);
                view.add_dir(child_vpath.clone());
                self.walk_dir(states, ckey, cowner, &child_vpath, view);
            } else {
                // Regular file: the dentry is a hard link to the idfile.
                self.read_file(states, fs, &dentry, &child_vpath, view);
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
        let info = String::from_utf8_lossy(info).to_string();
        let mut id = String::new();
        let mut first = 0usize;
        for part in info.split(';') {
            if let Some(v) = part.strip_prefix("id=") {
                id = v.to_string();
            } else if let Some(v) = part.strip_prefix("first=") {
                first = v.parse().unwrap_or(0);
            }
        }
        // File content is whatever the chunk files hold, concatenated in
        // stripe order until the first gap (the stripe count is implied
        // by the chunks themselves; a never-written file reads as empty,
        // a file whose chunks were lost reads short or empty — exactly
        // what the application would observe).
        let n_storage = self.n_storage();
        let mut content = Vec::new();
        for stripe in 0.. {
            let storage = self.storage_server((first + stripe as usize) % n_storage);
            let chunk = Self::chunk_path(&id, stripe);
            match states.server(storage).as_fs().read(&chunk) {
                Ok(data) => content.extend_from_slice(data),
                Err(_) => break,
            }
        }
        view.add_file(vpath, content);
    }
}

impl Pfs for BeeGfs {
    fn name(&self) -> &'static str {
        "BeeGFS"
    }

    fn topology(&self) -> &ClusterTopology {
        &self.topo
    }

    fn stripe_size(&self) -> u64 {
        self.stripe
    }

    fn dispatch(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        call: &PfsCall,
        parent: Option<EventId>,
    ) -> PfsResult<EventId> {
        let cev = rec.record(
            Layer::PfsClient,
            client,
            Payload::Call {
                name: call.name().into(),
                args: call.args(),
            },
            parent,
        );
        match call {
            PfsCall::Creat { path } => self.do_creat(rec, client, path, cev)?,
            PfsCall::Mkdir { path } => self.do_mkdir(rec, client, path, cev)?,
            PfsCall::Pwrite { path, offset, data } => {
                self.do_pwrite(rec, client, path, *offset, data, cev)?
            }
            PfsCall::Rename { src, dst } => self.do_rename(rec, client, src, dst, cev)?,
            PfsCall::Unlink { path } => self.do_unlink(rec, client, path, cev)?,
            PfsCall::Rmdir { path } => {
                // Dentry removal on the parent's owner; object cleanup is
                // lazy (not modelled — none of the test programs need it).
                let parent_dir = Self::parent_of(path);
                let pinfo = self.dir_info(&parent_dir)?.clone();
                let meta = self.meta_server(pinfo.owner);
                let (_, recv) = self.net(rec).request(
                    client,
                    Process::Server(meta),
                    &format!("RMDIR {path}"),
                    Some(cev),
                );
                let w = self.emit(
                    rec,
                    meta,
                    FsOp::Unlink {
                        path: self.dentry_path(&pinfo.key, Self::name_of(path)),
                    },
                    Some(recv),
                );
                self.net(rec)
                    .reply(Process::Server(meta), client, "OK", Some(w));
                self.dirs.remove(path);
            }
            PfsCall::Close { .. } => {
                // Client-side handle release only; BeeGFS flushes nothing.
            }
            PfsCall::Fsync { path } => self.do_fsync(rec, client, path, cev)?,
        }
        Ok(cev)
    }

    fn seal_baseline(&mut self) {
        self.baseline = self.live.fork();
    }

    fn baseline(&self) -> &ServerStates {
        &self.baseline
    }

    fn live(&self) -> &ServerStates {
        &self.live
    }

    fn install_faults(&mut self, cfg: FaultConfig) {
        self.faults = FaultPlane::new(cfg);
    }

    fn recover(&self, states: &mut ServerStates) -> RecoveryReport {
        let _span = pc_rt::obs::span_cat("recover/BeeGFS", "pfs");
        let mut report = RecoveryReport::clean("beegfs-fsck");
        // Pass 1: dentries pointing at idfiles with no attributes, or
        // directories with no dentries object → report; drop directory
        // dentries whose object is missing.
        let metas = self.topo.metadata_servers();
        for &m in &metas {
            let fs = states.server(m).as_fs().fork();
            let Ok(dirkeys) = fs.readdir("/dentries") else {
                continue;
            };
            for key in dirkeys {
                let dent_dir = format!("/dentries/{key}");
                let Ok(names) = fs.readdir(&dent_dir) else {
                    continue;
                };
                for name in names {
                    let dentry = format!("{dent_dir}/{name}");
                    if let Ok(spec) = fs.getxattr(&dentry, "user.dirkey") {
                        let spec = String::from_utf8_lossy(spec).to_string();
                        let (ckey, cowner) = spec.split_once(':').unwrap_or(("?", "0"));
                        let cowner: usize = cowner.parse().unwrap_or(0);
                        let cmeta = self.meta_server(cowner);
                        if !states
                            .server(cmeta)
                            .as_fs()
                            .is_dir(&format!("/dentries/{ckey}"))
                        {
                            report.finding(format!(
                                "dentry {name}: directory object {ckey} missing on meta#{cowner}"
                            ));
                            // Repair: recreate an empty dentries object.
                            let _ = states
                                .server_mut(cmeta)
                                .as_fs_mut()
                                .mkdir_all(&format!("/dentries/{ckey}"));
                            report.repair(format!("recreated empty directory object {ckey}"));
                        }
                    } else if fs.getxattr(&dentry, "user.info").is_err() {
                        report.finding(format!("dentry {name}: idfile has no attributes"));
                        report.unrecovered_damage = true;
                    }
                }
            }
        }
        // Pass 2: idfiles no dentry links to (the create's `link` never
        // persisted, or every dentry was removed) are orphans —
        // disposed, together with their chunks.
        for &m in &metas {
            let fs = states.server(m).as_fs().fork();
            let Ok(ids) = fs.readdir("/idfiles") else {
                continue;
            };
            for id in ids {
                let idf = format!("/idfiles/{id}");
                let Ok(id_ino) = fs.resolve(&idf) else {
                    continue;
                };
                let mut linked = false;
                'outer: for &m2 in &metas {
                    let fs2 = states.server(m2).as_fs();
                    if let Ok(dirs) = fs2.readdir("/dentries") {
                        for key in dirs {
                            if let Ok(names) = fs2.readdir(&format!("/dentries/{key}")) {
                                for name in names {
                                    if m2 == m
                                        && fs2.resolve(&format!("/dentries/{key}/{name}")).ok()
                                            == Some(id_ino)
                                    {
                                        linked = true;
                                        break 'outer;
                                    }
                                }
                            }
                        }
                    }
                }
                if !linked {
                    report.finding(format!("orphan idfile {id} on meta#{m}"));
                    let _ = states.server_mut(m).as_fs_mut().unlink(&idf);
                    report.repair(format!("disposed orphan idfile {id}"));
                }
            }
        }
        // Pass 3: chunks on storage servers with no referencing idfile →
        // garbage-collect; referenced-but-missing chunks → data loss the
        // tool cannot repair (§2.3: "cannot be resolved by beegfs-fsck").
        let mut live_ids: Vec<String> = Vec::new();
        for &m in &metas {
            let fs = states.server(m).as_fs();
            if let Ok(ids) = fs.readdir("/idfiles") {
                live_ids.extend(ids);
            }
        }
        for &s in &self.topo.storage_servers() {
            let fs = states.server(s).as_fs().fork();
            let Ok(chunks) = fs.readdir("/chunks") else {
                continue;
            };
            for chunk in chunks {
                let id = chunk.split('.').next().unwrap_or("").to_string();
                if !live_ids.contains(&id) {
                    report.finding(format!("orphan chunk {chunk} on storage#{s}"));
                    let _ = states
                        .server_mut(s)
                        .as_fs_mut()
                        .unlink(&format!("/chunks/{chunk}"));
                    report.repair(format!("removed orphan chunk {chunk}"));
                }
            }
        }
        report
    }

    fn client_view(&self, states: &ServerStates) -> PfsView {
        let mut view = PfsView::new();
        let root_owner = self.placement.dir_index("/", self.n_meta());
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
    use crate::recover_and_mount;

    fn arvr_setup() -> (BeeGfs, Recorder, Vec<EventId>) {
        let mut fs = BeeGfs::paper_default();
        let mut rec = Recorder::new();
        let c = Process::Client(0);
        // Preamble: file with old content.
        fs.dispatch(
            &mut rec,
            c,
            &PfsCall::Creat {
                path: "/file".into(),
            },
            None,
        )
        .unwrap();
        fs.dispatch(
            &mut rec,
            c,
            &PfsCall::Pwrite {
                path: "/file".into(),
                offset: 0,
                data: b"old".to_vec(),
            },
            None,
        )
        .unwrap();
        fs.seal_baseline();
        let mut rec = Recorder::new();
        // Test program: ARVR.
        let mut evs = vec![fs
            .dispatch(
                &mut rec,
                c,
                &PfsCall::Creat {
                    path: "/tmp".into(),
                },
                None,
            )
            .unwrap()];
        evs.push(
            fs.dispatch(
                &mut rec,
                c,
                &PfsCall::Pwrite {
                    path: "/tmp".into(),
                    offset: 0,
                    data: b"new".to_vec(),
                },
                None,
            )
            .unwrap(),
        );
        evs.push(
            fs.dispatch(
                &mut rec,
                c,
                &PfsCall::Close {
                    path: "/tmp".into(),
                },
                None,
            )
            .unwrap(),
        );
        evs.push(
            fs.dispatch(
                &mut rec,
                c,
                &PfsCall::Rename {
                    src: "/tmp".into(),
                    dst: "/file".into(),
                },
                None,
            )
            .unwrap(),
        );
        (fs, rec, evs)
    }

    #[test]
    fn live_view_after_arvr_shows_new_content() {
        let (fs, _rec, _) = arvr_setup();
        let view = fs.client_view(fs.live());
        assert_eq!(view.read("/file"), Some(&b"new"[..]));
        assert!(!view.exists("/tmp"));
    }

    #[test]
    fn baseline_view_shows_old_content() {
        let (fs, _rec, _) = arvr_setup();
        let view = fs.client_view(fs.baseline());
        assert_eq!(view.read("/file"), Some(&b"old"[..]));
    }

    #[test]
    fn full_replay_on_baseline_matches_live() {
        let (fs, rec, _) = arvr_setup();
        let mut states = fs.baseline().clone();
        states.apply_events(&rec, rec.lowermost_events());
        assert_eq!(fs.client_view(&states), fs.client_view(fs.live()));
    }

    #[test]
    fn dropping_the_append_loses_data_bug1_shape() {
        // Persist everything except the storage-side append of /tmp's
        // chunk: after the rename the file points at an empty chunk —
        // both versions lost (Figure 2 case ①).
        let (fs, rec, _) = arvr_setup();
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
        let (report, view) = recover_and_mount(&fs, &mut states);
        // The file exists but its content is neither old nor new.
        let got = view.read("/file");
        assert!(
            got != Some(&b"old"[..]) && got != Some(&b"new"[..]),
            "{view}"
        );
        assert!(!view.exists("/tmp"));
        let _ = report;
    }

    #[test]
    fn dropping_meta_rename_after_chunk_unlink_is_bug2_shape() {
        // Persist the storage-side unlink of the old chunk but none of
        // the rename's metadata ops: `file` still points at the (gone)
        // old chunk — data loss (Figure 2 case ②).
        let (fs, rec, _) = arvr_setup();
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
        let (report, view) = recover_and_mount(&fs, &mut states);
        // tmp holds the new data; file lost its content (chunk gone).
        assert_eq!(view.read("/tmp"), Some(&b"new"[..]));
        assert!(view.exists("/file"));
        let file = view.read("/file");
        assert!(
            file != Some(&b"old"[..]) && file != Some(&b"new"[..]),
            "{view}"
        );
        let _ = report;
    }

    #[test]
    fn mkdir_and_nested_files() {
        let mut fs = BeeGfs::paper_default();
        let mut rec = Recorder::new();
        let c = Process::Client(0);
        fs.dispatch(&mut rec, c, &PfsCall::Mkdir { path: "/A".into() }, None)
            .unwrap();
        fs.dispatch(
            &mut rec,
            c,
            &PfsCall::Creat {
                path: "/A/foo".into(),
            },
            None,
        )
        .unwrap();
        fs.dispatch(
            &mut rec,
            c,
            &PfsCall::Pwrite {
                path: "/A/foo".into(),
                offset: 0,
                data: b"x".to_vec(),
            },
            None,
        )
        .unwrap();
        let view = fs.client_view(fs.live());
        assert!(view.has_dir("/A"));
        assert_eq!(view.read("/A/foo"), Some(&b"x"[..]));
    }

    #[test]
    fn cross_directory_rename_decomposes_into_link_unlink() {
        let mut fs = BeeGfs::paper_default();
        let mut rec = Recorder::new();
        let c = Process::Client(0);
        fs.dispatch(&mut rec, c, &PfsCall::Mkdir { path: "/A".into() }, None)
            .unwrap();
        fs.dispatch(&mut rec, c, &PfsCall::Mkdir { path: "/B".into() }, None)
            .unwrap();
        fs.dispatch(
            &mut rec,
            c,
            &PfsCall::Creat {
                path: "/A/foo".into(),
            },
            None,
        )
        .unwrap();
        let before = rec.len();
        fs.dispatch(
            &mut rec,
            c,
            &PfsCall::Rename {
                src: "/A/foo".into(),
                dst: "/B/foo".into(),
            },
            None,
        )
        .unwrap();
        let has_link = rec.events()[before..].iter().any(|e| {
            matches!(
                &e.payload,
                Payload::Fs {
                    op: FsOp::Link { .. },
                    ..
                }
            )
        });
        let has_unlink = rec.events()[before..].iter().any(|e| {
            matches!(
                &e.payload,
                Payload::Fs {
                    op: FsOp::Unlink { .. },
                    ..
                }
            )
        });
        assert!(has_link && has_unlink);
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
        let mut rec = Recorder::new();
        let c = Process::Client(0);
        fs.dispatch(
            &mut rec,
            c,
            &PfsCall::Creat {
                path: "/big".into(),
            },
            None,
        )
        .unwrap();
        fs.dispatch(
            &mut rec,
            c,
            &PfsCall::Pwrite {
                path: "/big".into(),
                offset: 0,
                data: b"0123456789".to_vec(),
            },
            None,
        )
        .unwrap();
        let view = fs.client_view(fs.live());
        assert_eq!(view.read("/big"), Some(&b"0123456789"[..]));
        // Both storage servers hold chunks.
        let s0 = fs.live().server(2).as_fs().readdir("/chunks").unwrap();
        let s1 = fs.live().server(3).as_fs().readdir("/chunks").unwrap();
        assert!(!s0.is_empty() && !s1.is_empty());
    }

    #[test]
    fn fsck_collects_orphan_chunks() {
        let (fs, rec, _) = arvr_setup();
        // Persist only the storage-side ops of the tmp write: chunks with
        // no metadata.
        let keep: Vec<EventId> = rec
            .lowermost_events()
            .into_iter()
            .filter(|&id| match &rec.event(id).payload {
                Payload::Fs { server, op } => {
                    fs.topo.storage_servers().contains(server)
                        && matches!(op, FsOp::Creat { .. } | FsOp::Append { .. })
                }
                _ => false,
            })
            .collect();
        let mut states = fs.baseline().clone();
        states.apply_events(&rec, keep);
        let report = fs.recover(&mut states);
        assert!(report.findings.iter().any(|f| f.contains("orphan chunk")));
        // After repair the view equals the baseline view.
        assert_eq!(fs.client_view(&states), fs.client_view(fs.baseline()));
    }

    #[test]
    fn fsync_emits_server_side_syncs() {
        let mut fs = BeeGfs::paper_default();
        let mut rec = Recorder::new();
        let c = Process::Client(0);
        fs.dispatch(&mut rec, c, &PfsCall::Creat { path: "/f".into() }, None)
            .unwrap();
        fs.dispatch(
            &mut rec,
            c,
            &PfsCall::Pwrite {
                path: "/f".into(),
                offset: 0,
                data: b"d".to_vec(),
            },
            None,
        )
        .unwrap();
        fs.dispatch(&mut rec, c, &PfsCall::Fsync { path: "/f".into() }, None)
            .unwrap();
        let syncs = rec
            .events()
            .iter()
            .filter(|e| e.payload.is_storage_sync())
            .count();
        assert!(syncs >= 2); // chunk fsync + idfile fsync
    }
}
