//! Lustre model.
//!
//! Lustre (Table 2: v2.12.6) is the only PFS in the paper's study with
//! **no POSIX-level crash-consistency bugs**: "Lustre properly aggregates
//! intermediate changes to the files and invokes accurate disk barriers
//! to flush data to the disk" (§6.3.1). We model that as: before any
//! namespace-visible operation (`creat`, `rename`, `unlink`, `close`)
//! commits on the MDT, the client's *dirty data* is flushed to the OSTs
//! with explicit commits, and the MDT change itself is journal-committed
//! (a device barrier). Consequently every reachable crash state
//! corresponds to a causal prefix of the client's operations.
//!
//! The vulnerability that remains — and that the HDF5 test programs hit
//! (Table 3 bugs 10, 13, 15 list Lustre) — is *data written into a file
//! that stays open*: HDF5's metadata cache writes B-trees, heaps and
//! superblock updates as ordinary file data with no fsync, and those
//! writes reorder freely across (and within) OSTs.
//!
//! Layout:
//!
//! ```text
//! MDT (metadata server 0..m): /mdt/<path>  entry files
//!                             ("obj=<id>;size=<n>;first=<k>"), real dirs
//! OST (storage servers):      /objects/<id>.<stripe>
//! ```

use crate::base::{attr, attr_num, lookup, lookup_mut, stripe_segments, ModelBase};
use crate::call::PfsCall;
use crate::error::PfsResult;
use crate::placement::Placement;
use crate::store::ServerStates;
use crate::view::PfsView;
use crate::Pfs;
use simfs::{FsOp, JournalMode};
use simnet::ClusterTopology;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use tracer::{EventId, Process, Recorder};

#[derive(Debug, Clone)]
struct FileInfo {
    obj: String,
    first: usize,
    size: u64,
    chunks: BTreeMap<u64, u64>,
}

impl FileInfo {
    /// The MDT entry file's content.
    fn entry(&self) -> Vec<u8> {
        format!("obj={};size={};first={}", self.obj, self.size, self.first).into_bytes()
    }
}

/// The Lustre model.
#[derive(Clone)]
pub struct Lustre {
    base: ModelBase,
    files: BTreeMap<String, FileInfo>,
    /// Files with unflushed OST data, per client.
    dirty: BTreeMap<Process, BTreeSet<String>>,
    next_id: u64,
}

fn mdt_path(path: &str) -> String {
    format!("/mdt{path}")
}

impl Lustre {
    /// A formatted Lustre instance.
    pub fn new(topo: ClusterTopology, placement: Placement, stripe: u64) -> Self {
        Self::with_journal(topo, placement, stripe, JournalMode::Data)
    }

    /// Same, with an explicit local-FS journaling mode for the MDT/OST
    /// backing stores (the fuzzer's journaling-mode sweep; the paper's
    /// deployment runs data journaling).
    pub fn with_journal(
        topo: ClusterTopology,
        placement: Placement,
        stripe: u64,
        journal: JournalMode,
    ) -> Self {
        let mut base = ModelBase::fs(topo.clone(), placement, stripe, journal);
        base.mkfs_all(topo.metadata_servers(), |fs| {
            fs.mkdir_all("/mdt").unwrap();
        });
        base.mkfs_objects("/objects", topo.storage_servers());
        base.seal();
        Lustre {
            base,
            files: BTreeMap::new(),
            dirty: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Paper default: 2 metadata + 2 storage servers, 128 KiB stripes.
    pub fn paper_default() -> Self {
        Lustre::new(
            ClusterTopology::paper_dedicated_default(),
            Placement::new(),
            128 * 1024,
        )
    }

    fn mdt(&self) -> u32 {
        self.base.meta_server(0)
    }

    /// Flush every dirty object of `client` with explicit OST commits —
    /// the "aggregates intermediate changes … accurate disk barriers"
    /// behaviour that precedes any namespace update.
    fn flush_dirty(&mut self, rec: &mut Recorder, client: Process, cev: EventId) {
        for path in self.dirty.remove(&client).unwrap_or_default() {
            let Some(info) = self.files.get(&path).cloned() else {
                continue;
            };
            for &stripe in info.chunks.keys() {
                let ost = self.base.stripe_server(info.first, stripe);
                let msg = format!("OST-COMMIT {path} stripe {stripe}");
                let recv = self.base.request(rec, client, ost, &msg, cev);
                let path = self.base.chunk_path(&info.obj, stripe);
                let w = self.base.emit_fs(rec, ost, FsOp::Fsync { path }, recv);
                self.base.reply(rec, ost, client, "COMMITTED", w);
            }
        }
    }

    /// One namespace update on the MDT: request, the local op, the MDT
    /// journal commit (a device-wide barrier), reply. Returns the
    /// server's reply-send event.
    fn mdt_update(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        msg: &str,
        op: FsOp,
        cev: EventId,
    ) -> EventId {
        let mdt = self.mdt();
        let recv = self.base.request(rec, client, mdt, msg, cev);
        let e = self.base.emit_fs(rec, mdt, op, recv);
        self.base.emit_fs(rec, mdt, FsOp::SyncFs, e);
        self.base.reply(rec, mdt, client, "OK", e)
    }

    /// Rewrite the MDT entry of `path`.
    fn update_entry(
        &mut self,
        rec: &mut Recorder,
        path: &str,
        data: Vec<u8>,
        parent: EventId,
    ) -> EventId {
        let (path, offset) = (mdt_path(path), 0);
        let op = FsOp::Pwrite { path, offset, data };
        self.base.emit_fs(rec, self.mdt(), op, parent)
    }

    /// Destroy a dead file's objects, after the committed MDT update
    /// `reply` acknowledged (so never "before" it on disk).
    fn destroy_objects(&mut self, rec: &mut Recorder, info: &FileInfo, reply: EventId) {
        let mdt = self.mdt();
        for &stripe in info.chunks.keys() {
            let ost = self.base.stripe_server(info.first, stripe);
            let msg = format!("OST-DESTROY {}.{stripe}", info.obj);
            let recv = self.base.notify(rec, mdt, ost, &msg, Some(reply));
            let path = self.base.chunk_path(&info.obj, stripe);
            self.base.emit_fs(rec, ost, FsOp::Unlink { path }, recv);
        }
    }

    fn do_creat(&mut self, rec: &mut Recorder, client: Process, path: &str, cev: EventId) {
        let obj = format!("o{}", self.next_id);
        self.next_id += 1;
        let first = self.base.placement.file_index(path, self.base.n_storage());
        let info = FileInfo {
            obj,
            first,
            size: 0,
            chunks: BTreeMap::new(),
        };
        let mdt = self.mdt();
        let msg = format!("MDS-CREATE {path}");
        let recv = self.base.request(rec, client, mdt, &msg, cev);
        let creat = FsOp::Creat {
            path: mdt_path(path),
        };
        let e = self.base.emit_fs(rec, mdt, creat, recv);
        let e2 = self.update_entry(rec, path, info.entry(), e);
        self.base.emit_fs(rec, mdt, FsOp::SyncFs, e2);
        self.base.reply(rec, mdt, client, "OK", e2);
        self.files.insert(path.to_string(), info);
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
        let n = self.base.n_storage();
        let f = lookup_mut(&mut self.files, path)?;
        let base = &mut self.base;
        for seg in stripe_segments(f.first, offset, data.len(), base.stripe, n) {
            let ost = base.storage_server(seg.target);
            let msg = format!("OST-WRITE {path} stripe {}", seg.stripe);
            let recv = base.request(rec, client, ost, &msg, cev);
            let target = base.chunk_path(&f.obj, seg.stripe);
            let w = base.write_chunk(rec, ost, target, &mut f.chunks, &seg, data, recv);
            base.reply(rec, ost, client, "OK", w);
        }
        // Size update on the MDT (journal-committed lazily with the next
        // namespace op; size here is piggybacked).
        f.size = f.size.max(offset + data.len() as u64);
        let entry = f.entry();
        let mdt = self.mdt();
        let msg = format!("MDS-SETATTR {path}");
        let recv = self.base.request(rec, client, mdt, &msg, cev);
        let w = self.update_entry(rec, path, entry, recv);
        self.base.reply(rec, mdt, client, "OK", w);
        self.dirty
            .entry(client)
            .or_default()
            .insert(path.to_string());
        Ok(())
    }
}

impl Pfs for Lustre {
    fn name(&self) -> &'static str {
        "Lustre"
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
        // Any namespace-visible operation (close included) first drains
        // the client's dirty data with OST commits.
        if call.is_namespace_op() {
            self.flush_dirty(rec, client, cev);
        }
        match call {
            PfsCall::Creat { path } => self.do_creat(rec, client, path, cev),
            PfsCall::Mkdir { path } => {
                let mkdir = FsOp::Mkdir {
                    path: mdt_path(path),
                };
                self.mdt_update(rec, client, &format!("MDS-MKDIR {path}"), mkdir, cev);
            }
            PfsCall::Pwrite { path, offset, data } => {
                self.do_pwrite(rec, client, path, *offset, data, cev)?
            }
            PfsCall::Rename { src, dst } => {
                let overwritten = self.files.get(dst).cloned();
                let rename = FsOp::Rename {
                    src: mdt_path(src),
                    dst: mdt_path(dst),
                };
                let msg = format!("MDS-RENAME {src} {dst}");
                let reply = self.mdt_update(rec, client, &msg, rename, cev);
                if let Some(old) = overwritten {
                    self.destroy_objects(rec, &old, reply);
                }
                if let Some(info) = self.files.remove(src) {
                    self.files.insert(dst.clone(), info);
                }
                for set in self.dirty.values_mut() {
                    if set.remove(src) {
                        set.insert(dst.clone());
                    }
                }
            }
            PfsCall::Unlink { path } => {
                let info = lookup(&self.files, path)?.clone();
                let unlink = FsOp::Unlink {
                    path: mdt_path(path),
                };
                let msg = format!("MDS-UNLINK {path}");
                let reply = self.mdt_update(rec, client, &msg, unlink, cev);
                self.destroy_objects(rec, &info, reply);
                self.files.remove(path);
            }
            PfsCall::Rmdir { path } => {
                let rmdir = FsOp::Rmdir {
                    path: mdt_path(path),
                };
                self.mdt_update(rec, client, &format!("MDS-RMDIR {path}"), rmdir, cev);
            }
            PfsCall::Close { .. } => {}
            PfsCall::Fsync { path } => {
                self.dirty.entry(client).or_default().insert(path.clone());
                self.flush_dirty(rec, client, cev);
            }
        }
        Ok(())
    }

    fn recover(&self, states: &mut ServerStates) {
        // lfsck: objects no MDT entry names are destroyed.
        let _span = pc_rt::obs::span_cat("recover/Lustre", "pfs");
        self.base.recover(
            states,
            |_| (),
            |states, scope| {
                let mdt_fs = states.server(self.mdt()).as_fs();
                let mut live = HashSet::new();
                for path in mdt_fs.walk() {
                    // Directories do not read.
                    if let Ok(raw) = mdt_fs.read(&path) {
                        let entry = String::from_utf8_lossy(&raw);
                        let objs = entry
                            .split(';')
                            .filter_map(|part| part.strip_prefix("obj="));
                        live.extend(objs.map(str::to_string));
                    }
                }
                self.base.collect_orphans(states, &live, scope);
            },
        );
    }

    fn client_view(&self, states: &ServerStates) -> PfsView {
        let mut view = PfsView::new();
        let mdt_fs = states.server(self.mdt()).as_fs();
        for p in mdt_fs.walk() {
            let Some(vpath) = p.strip_prefix("/mdt").filter(|v| !v.is_empty()) else {
                continue;
            };
            if mdt_fs.is_dir(&p) {
                view.add_dir(vpath);
                continue;
            }
            let Ok(raw) = mdt_fs.read(&p) else {
                view.add_damaged_file(vpath);
                continue;
            };
            let entry = String::from_utf8_lossy(&raw);
            let obj = attr(&entry, "obj").unwrap_or("");
            if obj.is_empty() {
                // Entry created but never assigned an object: an
                // in-flight create — not visible to lookups.
                continue;
            }
            let first: usize = attr_num(&entry, "first");
            let content = (self.base).read_striped(states, None, obj, |stripe| {
                self.base.stripe_server(first, stripe)
            });
            view.add_file(vpath, content);
        }
        view
    }

    fn restart_cost_secs(&self) -> f64 {
        3.2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::testkit::*;
    use tracer::Payload;

    #[test]
    fn namespace_ops_flush_dirty_data_first() {
        let mut fs = Lustre::paper_default();
        let (rec, _) = run_arvr(&mut fs);
        // Find the OST append of "new" and the MDT rename; there must be
        // an OST fsync between them in trace order.
        let events = rec.events();
        let append_pos = events
            .iter()
            .position(|e| matches!(&e.payload, Payload::Fs { op: FsOp::Append { data, .. }, .. } if data == b"new"))
            .expect("append traced");
        let rename_pos = events
            .iter()
            .position(|e| {
                matches!(
                    &e.payload,
                    Payload::Fs {
                        op: FsOp::Rename { .. },
                        ..
                    }
                )
            })
            .expect("rename traced");
        let fsync_between = events[append_pos..rename_pos].iter().any(|e| {
            matches!(
                &e.payload,
                Payload::Fs {
                    op: FsOp::Fsync { .. },
                    ..
                }
            )
        });
        assert!(fsync_between, "close must flush OST data before the rename");
    }

    #[test]
    fn mdt_commits_with_syncfs() {
        let mut fs = Lustre::paper_default();
        let mut rec = Recorder::new();
        drive(&mut fs, &mut rec, &[creat("/f")]);
        assert!(rec.events().iter().any(|e| matches!(
            &e.payload,
            Payload::Fs {
                op: FsOp::SyncFs,
                ..
            }
        )));
    }

    #[test]
    fn live_view_and_full_replay_agree() {
        let mut fs = Lustre::paper_default();
        let (rec, _) = run_arvr(&mut fs);
        let mut states = fs.baseline().clone();
        states.apply_events(&rec, rec.lowermost_events());
        assert_eq!(fs.client_view(&states), fs.client_view(fs.live()));
        let view = fs.client_view(fs.live());
        assert_eq!(view.read("/file"), Some(&b"new"[..]));
        assert!(!view.exists("/tmp"));
    }

    #[test]
    fn plain_data_writes_stay_unsynced() {
        // An HDF5-style workload — open file, many pwrites, no close
        // before the crash — must leave unsynced OST data.
        let mut fs = Lustre::paper_default();
        let mut rec = Recorder::new();
        drive(&mut fs, &mut rec, &[creat("/d.h5")]);
        let start = rec.len();
        let writes = [pwrite("/d.h5", 0, &[1; 8]), pwrite("/d.h5", 8, &[2; 8])];
        drive(&mut fs, &mut rec, &writes);
        let syncs = rec.events()[start..]
            .iter()
            .filter(|e| e.payload.is_storage_sync())
            .count();
        assert_eq!(syncs, 0);
    }

    #[test]
    fn lfsck_destroys_orphan_objects() {
        let mut fs = Lustre::paper_default();
        let preamble = [creat("/f"), pwrite("/f", 0, b"data")];
        drive(&mut fs, &mut Recorder::new(), &preamble);
        fs.seal_baseline();
        let mut rec2 = Recorder::new();
        drive(&mut fs, &mut rec2, &[unlink("/f")]);
        // Crash: MDT unlink persisted, OST destroy not.
        let keep: Vec<EventId> = rec2
            .lowermost_events()
            .into_iter()
            .filter(|&id| {
                !matches!(&rec2.event(id).payload,
                    Payload::Fs { op: FsOp::Unlink { path }, .. } if path.starts_with("/objects"))
            })
            .collect();
        let mut states = fs.baseline().clone();
        states.apply_events(&rec2, keep);
        let objects = |st: &ServerStates| -> Vec<String> {
            let osts = fs.base.topo.storage_servers().iter();
            osts.flat_map(|&s| st.server(s).as_fs().readdir("/objects").unwrap())
                .collect()
        };
        assert!(!objects(&states).is_empty());
        fs.recover(&mut states);
        assert!(objects(&states).is_empty());
        assert!(!fs.client_view(&states).exists("/f"));
    }
}
