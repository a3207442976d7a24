//! OrangeFS (PVFS2) model.
//!
//! OrangeFS (Table 2: v2.9.7) keeps its metadata in Berkeley DB on the
//! metadata servers. The paper's Figure 9(b) trace shows the key
//! behaviour: **every DB page update is immediately followed by
//! `fdatasync`** (`pwrite(keyval.db); fdatasync(keyval.db);
//! pwrite(attrs.db); fdatasync(attrs.db)`), so metadata-server updates
//! are durable, in order, at the moment the server replies. That
//! suppresses Table 3 bug 2 (the storage-side cleanup can never be
//! persisted "before" rename metadata that is already on disk), but
//! leaves bug 1 (unsynced storage-side data vs. synced metadata) and
//! bug 4 (the CR program's *insert-new / delete-old* record pair is
//! issued as two separately-synced updates with a vulnerable window that
//! `pvfs2-fsck` cannot repair).
//!
//! Layout:
//!
//! ```text
//! metadata server:  /db/keyval.db   append-only dentry records, each
//!                                   followed by fdatasync
//!                   /db/attrs.db    append-only attribute records, ditto
//! storage server:   /bstreams/<handle>.<stripe>
//! ```
//!
//! Record grammar (one record per line):
//! `I <dirkey> <name> F <handle>` / `I <dirkey> <name> D <key>:<owner>` /
//! `D <dirkey> <name>` in `keyval.db`;
//! `A <handle> size=<n>;first=<idx>` / `R <handle>` in `attrs.db`.

use crate::base::{
    attr_num, child_path, lookup, lookup_mut, name_of, parent_of, rekey, stripe_segments, ModelBase,
};
use crate::call::PfsCall;
use crate::error::PfsResult;
use crate::placement::Placement;
use crate::store::ServerStates;
use crate::view::PfsView;
use crate::Pfs;
use simfs::{FsOp, FsState, JournalMode};
use simnet::ClusterTopology;
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashSet};
use tracer::{EventId, Process, Recorder};

#[derive(Debug, Clone)]
struct DirInfo {
    key: String,
    owner: usize,
}

#[derive(Debug, Clone)]
struct FileInfo {
    handle: String,
    first: usize,
    size: u64,
    chunks: BTreeMap<u64, u64>,
}

/// The OrangeFS model.
#[derive(Clone)]
pub struct OrangeFs {
    base: ModelBase,
    dirs: BTreeMap<String, DirInfo>,
    files: BTreeMap<String, FileInfo>,
    next_id: u64,
}

/// A keyval.db replayed: `dirkey → name → record`.
type Keyval = BTreeMap<String, BTreeMap<String, String>>;

/// What one mount reads of the metadata servers: the union of their
/// attributes, and each one's keyval.db, parsed on the walk's first visit.
struct Mount<'s> {
    states: &'s ServerStates,
    attrs: BTreeMap<String, String>,
    keyvals: Vec<OnceCell<Keyval>>,
}

impl OrangeFs {
    /// A formatted OrangeFS instance.
    pub fn new(topo: ClusterTopology, placement: Placement, stripe: u64) -> Self {
        Self::with_journal(topo, placement, stripe, JournalMode::Data)
    }

    /// Same, with an explicit local-FS journaling mode for the servers'
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
            fs.mkdir_all("/db").unwrap();
            fs.creat("/db/keyval.db").unwrap();
            fs.creat("/db/attrs.db").unwrap();
        });
        base.mkfs_objects("/bstreams", topo.storage_servers());
        base.seal();
        let owner = base.placement.dir_index("/", base.n_meta());
        let key = "root".to_string();
        OrangeFs {
            base,
            dirs: BTreeMap::from([("/".to_string(), DirInfo { key, owner })]),
            files: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Paper default: 2 metadata + 2 storage servers, 128 KiB stripes.
    pub fn paper_default() -> Self {
        OrangeFs::new(
            ClusterTopology::paper_dedicated_default(),
            Placement::new(),
            128 * 1024,
        )
    }

    /// One durable DB update: append the record, then `fdatasync` —
    /// exactly the Figure 9(b) pattern. Returns the append.
    fn db_update(
        &mut self,
        rec: &mut Recorder,
        meta: u32,
        db: &str,
        record: String,
        recv: EventId,
    ) -> EventId {
        let path = format!("/db/{db}");
        let append = FsOp::Append {
            path: path.clone(),
            data: format!("{record}\n").into_bytes(),
        };
        let w = self.base.emit_fs(rec, meta, append, recv);
        self.base.emit_fs(rec, meta, FsOp::Fdatasync { path }, w);
        w
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
        let handle = format!("h{}", self.next_id);
        self.next_id += 1;
        let first = self.base.placement.file_index(path, self.base.n_storage());
        let msg = format!("CREATE {path}");
        let recv = self.base.request(rec, client, meta, &msg, cev);
        let dentry = format!("I {} {} F {handle}", pinfo.key, name_of(path));
        self.db_update(rec, meta, "keyval.db", dentry, recv);
        let attrs = format!("A {handle} size=0;first={first}");
        let w = self.db_update(rec, meta, "attrs.db", attrs, recv);
        self.base.reply(rec, meta, client, "OK", w);
        let info = FileInfo {
            handle,
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
        let meta = self.base.meta_server(pinfo.owner);
        let msg = format!("MKDIR {path}");
        let recv = self.base.request(rec, client, meta, &msg, cev);
        let dentry = format!("I {} {} D {key}:{owner}", pinfo.key, name_of(path));
        let w = self.db_update(rec, meta, "keyval.db", dentry, recv);
        self.base.reply(rec, meta, client, "OK", w);
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
        let n = self.base.n_storage();
        let base = &mut self.base;
        for seg in stripe_segments(f.first, offset, data.len(), base.stripe, n) {
            let storage = base.storage_server(seg.target);
            let msg = format!("WRITE {path} stripe {}", seg.stripe);
            let recv = base.request(rec, client, storage, &msg, cev);
            // bstream writes are NOT followed by fdatasync: only the
            // metadata side of OrangeFS is durable-by-construction
            // (this asymmetry is Table 3 bug 1).
            let bs = base.chunk_path(&f.handle, seg.stripe);
            let w = base.write_chunk(rec, storage, bs, &mut f.chunks, &seg, data, recv);
            base.reply(rec, storage, client, "OK", w);
        }
        // Durable size update in attrs.db on the metadata server.
        f.size = f.size.max(offset + data.len() as u64);
        let attrs = format!("A {} size={};first={}", f.handle, f.size, f.first);
        let owner = lookup(&self.dirs, &parent_of(path))?.owner;
        let meta = self.base.meta_server(owner);
        let msg = format!("SETATTR {path}");
        let recv = self.base.request(rec, client, meta, &msg, cev);
        let w = self.db_update(rec, meta, "attrs.db", attrs, recv);
        self.base.reply(rec, meta, client, "OK", w);
        Ok(())
    }

    /// Directory rename within one parent: a single keyval record (one
    /// atomic DB page update).
    fn rename_dir(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        src: &str,
        dst: &str,
        cev: EventId,
    ) -> PfsResult<()> {
        let pinfo = lookup(&self.dirs, &parent_of(src))?.clone();
        let meta = self.base.meta_server(pinfo.owner);
        let msg = format!("RENAME {src} {dst}");
        let recv = self.base.request(rec, client, meta, &msg, cev);
        let moved = format!("M {} {} {}", pinfo.key, name_of(src), name_of(dst));
        let w = self.db_update(rec, meta, "keyval.db", moved, recv);
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
        let info = lookup(&self.files, src)?.clone();
        let overwritten = self.files.get(dst).cloned();
        let spinfo = lookup(&self.dirs, &parent_of(src))?.clone();
        let dpinfo = lookup(&self.dirs, &parent_of(dst))?.clone();
        let smeta = self.base.meta_server(spinfo.owner);
        let dmeta = self.base.meta_server(dpinfo.owner);

        // Same-directory rename: a single keyval record (one DB page
        // update — Figure 9(b) traces exactly one `pwrite(keyval.db);
        // fdatasync` pair for the ARVR rename), so no vulnerable window.
        // Cross-directory rename (the CR program): OrangeFS issues the
        // *insert before the delete* — the "updates … not issued in the
        // correct order" of §6.3.1 — leaving a durable window in which
        // the file exists in both directories (bug 4).
        let msg = format!("RENAME {src} {dst}");
        let recv = self.base.request(rec, client, dmeta, &msg, cev);
        let mut last_meta_work;
        if spinfo.key == dpinfo.key {
            let moved = format!("M {} {} {}", spinfo.key, name_of(src), name_of(dst));
            last_meta_work = self.db_update(rec, smeta, "keyval.db", moved, recv);
        } else {
            let insert = format!("I {} {} F {}", dpinfo.key, name_of(dst), info.handle);
            last_meta_work = self.db_update(rec, dmeta, "keyval.db", insert, recv);
            let msg = format!("RENAME-OUT {src}");
            let recv2 = self.base.request(rec, client, smeta, &msg, cev);
            let delete = format!("D {} {}", spinfo.key, name_of(src));
            let w = self.db_update(rec, smeta, "keyval.db", delete, recv2);
            self.base.reply(rec, smeta, client, "OK", w);
        }
        if let Some(old) = &overwritten {
            let remove = format!("R {}", old.handle);
            last_meta_work = self.db_update(rec, dmeta, "attrs.db", remove, recv);
        }
        self.base.reply(rec, dmeta, client, "OK", last_meta_work);

        // Storage-side cleanup of the overwritten file's bstreams:
        // rename to `stranded`, then unlink (Figure 9(b)).
        if let Some(old) = &overwritten {
            self.strand_bstreams(rec, dmeta, old);
        }
        self.files.remove(src);
        self.files.insert(dst.to_string(), info);
        Ok(())
    }

    fn strand_bstreams(&mut self, rec: &mut Recorder, meta: u32, info: &FileInfo) {
        for &stripe in info.chunks.keys() {
            let storage = self.base.stripe_server(info.first, stripe);
            let msg = format!("REMOVE-BSTREAM {}.{stripe}", info.handle);
            let recv = self.base.notify(rec, meta, storage, &msg, None);
            let stranded = (self.base).chunk_path(&format!("stranded-{}", info.handle), stripe);
            let rename = FsOp::Rename {
                src: self.base.chunk_path(&info.handle, stripe),
                dst: stranded.clone(),
            };
            let r = self.base.emit_fs(rec, storage, rename, recv);
            let op = FsOp::Unlink { path: stranded };
            self.base.emit_fs(rec, storage, op, r);
        }
    }

    fn do_unlink(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        path: &str,
        cev: EventId,
    ) -> PfsResult<()> {
        let info = lookup(&self.files, path)?.clone();
        let pinfo = lookup(&self.dirs, &parent_of(path))?.clone();
        let meta = self.base.meta_server(pinfo.owner);
        let msg = format!("UNLINK {path}");
        let recv = self.base.request(rec, client, meta, &msg, cev);
        let delete = format!("D {} {}", pinfo.key, name_of(path));
        self.db_update(rec, meta, "keyval.db", delete, recv);
        let remove = format!("R {}", info.handle);
        let w = self.db_update(rec, meta, "attrs.db", remove, recv);
        self.base.reply(rec, meta, client, "OK", w);
        self.strand_bstreams(rec, meta, &info);
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
        let pinfo = lookup(&self.dirs, &parent_of(path))?.clone();
        let meta = self.base.meta_server(pinfo.owner);
        let msg = format!("RMDIR {path}");
        let recv = self.base.request(rec, client, meta, &msg, cev);
        let delete = format!("D {} {}", pinfo.key, name_of(path));
        let w = self.db_update(rec, meta, "keyval.db", delete, recv);
        self.base.reply(rec, meta, client, "OK", w);
        self.dirs.remove(path);
        Ok(())
    }

    fn do_fsync(&mut self, rec: &mut Recorder, client: Process, path: &str, cev: EventId) {
        let Some(info) = self.files.get(path).cloned() else {
            return;
        };
        for &stripe in info.chunks.keys() {
            let storage = self.base.stripe_server(info.first, stripe);
            let msg = format!("FLUSH {path} stripe {stripe}");
            let recv = self.base.request(rec, client, storage, &msg, cev);
            let path = self.base.chunk_path(&info.handle, stripe);
            let op = FsOp::Fdatasync { path };
            let w = self.base.emit_fs(rec, storage, op, recv);
            self.base.reply(rec, storage, client, "OK", w);
        }
    }

    /// Replay a keyval.db file into `dirkey → name → record` maps.
    fn parse_keyval(fs: &FsState) -> Keyval {
        let mut out = Keyval::new();
        let Ok(raw) = fs.read("/db/keyval.db") else {
            return out;
        };
        for line in String::from_utf8_lossy(&raw).lines() {
            let parts: Vec<&str> = line.split_whitespace().collect();
            match parts.as_slice() {
                ["I", dirkey, name, rest @ ..] => {
                    out.entry(dirkey.to_string())
                        .or_default()
                        .insert(name.to_string(), rest.join(" "));
                }
                ["D", dirkey, name] => {
                    out.entry(dirkey.to_string()).or_default().remove(*name);
                }
                ["M", dirkey, old, new] => {
                    let entry = out.entry(dirkey.to_string()).or_default().remove(*old);
                    if let Some(entry) = entry {
                        out.entry(dirkey.to_string())
                            .or_default()
                            .insert(new.to_string(), entry);
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Replay an attrs.db file into `handle → attrs` maps.
    fn parse_attrs(fs: &FsState) -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        let Ok(raw) = fs.read("/db/attrs.db") else {
            return out;
        };
        for line in String::from_utf8_lossy(&raw).lines() {
            let parts: Vec<&str> = line.splitn(3, ' ').collect();
            match parts.as_slice() {
                ["A", handle, attrs] => {
                    out.insert(handle.to_string(), attrs.to_string());
                }
                ["R", handle] => {
                    out.remove(*handle);
                }
                _ => {}
            }
        }
        out
    }

    /// `handle → attrs` over every metadata server. Attributes live on
    /// the server that created the handle — not necessarily the owner of
    /// the directory naming it — so lookups resolve against the union.
    fn attrs(&self, states: &ServerStates) -> BTreeMap<String, String> {
        let metas = self.base.topo.metadata_servers().iter();
        metas
            .flat_map(|&m| Self::parse_attrs(states.server(m).as_fs()))
            .collect()
    }

    fn walk_dir(&self, mount: &Mount, key: &str, owner: usize, vpath: &str, view: &mut PfsView) {
        let fs = mount.states.server(self.base.meta_server(owner)).as_fs();
        let keyval = mount.keyvals[owner].get_or_init(|| Self::parse_keyval(fs));
        let Some(entries) = keyval.get(key) else {
            return;
        };
        for (name, record) in entries {
            let child = child_path(vpath, name);
            let parts: Vec<&str> = record.split_whitespace().collect();
            match parts.as_slice() {
                ["D", spec] => {
                    let (ckey, cowner) = spec.split_once(':').unwrap_or(("?", "0"));
                    view.add_dir(child.clone());
                    let cowner = cowner.parse().unwrap_or(0);
                    self.walk_dir(mount, ckey, cowner, &child, view);
                }
                ["F", handle] => {
                    let Some(a) = mount.attrs.get(*handle) else {
                        // A dentry whose handle has no attributes yet is
                        // an in-flight create: lookups fail, the file is
                        // simply not visible.
                        continue;
                    };
                    let first: usize = attr_num(a, "first");
                    let content = (self.base).read_striped(mount.states, None, handle, |stripe| {
                        self.base.stripe_server(first, stripe)
                    });
                    view.add_file(child, content);
                }
                _ => {}
            }
        }
    }
}

impl Pfs for OrangeFs {
    fn name(&self) -> &'static str {
        "OrangeFS"
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
            PfsCall::Close { .. } => Ok(()),
            PfsCall::Fsync { path } => {
                self.do_fsync(rec, client, path, cev);
                Ok(())
            }
        }
    }

    fn recover(&self, states: &mut ServerStates) {
        // pvfs2-fsck: collects stranded and unowned bstreams; it cannot
        // repair mis-ordered DB records (§6.3.1).
        let _span = pc_rt::obs::span_cat("recover/OrangeFS", "pfs");
        self.base.recover(
            states,
            |_| (),
            |states, scope| {
                let live: HashSet<String> = self.attrs(states).into_keys().collect();
                self.base.collect_orphans(states, &live, scope);
            },
        );
    }

    fn client_view(&self, states: &ServerStates) -> PfsView {
        let mut view = PfsView::new();
        let root_owner = self.base.placement.dir_index("/", self.base.n_meta());
        let mount = Mount {
            states,
            attrs: self.attrs(states),
            keyvals: vec![OnceCell::new(); self.base.n_meta()],
        };
        self.walk_dir(&mount, "root", root_owner, "/", &mut view);
        view
    }

    fn restart_cost_secs(&self) -> f64 {
        1.8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::testkit::*;
    use tracer::Payload;

    #[test]
    fn db_updates_are_each_followed_by_fdatasync() {
        let mut fs = OrangeFs::paper_default();
        let mut rec = Recorder::new();
        drive(&mut fs, &mut rec, &[creat("/foo")]);
        let ops: Vec<&FsOp> = rec
            .lowermost_events()
            .into_iter()
            .filter_map(|id| match &rec.event(id).payload {
                Payload::Fs { op, .. } => Some(op),
                _ => None,
            })
            .collect();
        // Appends to DB files alternate with fdatasync.
        for w in ops.windows(2) {
            if let FsOp::Append { path, .. } = w[0] {
                if path.starts_with("/db/") {
                    assert!(
                        matches!(w[1], FsOp::Fdatasync { path: p } if p == path),
                        "DB append not followed by fdatasync"
                    );
                }
            }
        }
    }

    #[test]
    fn view_reconstructs_files_from_db_and_bstreams() {
        let mut fs = OrangeFs::paper_default();
        let calls = [mkdir("/A"), creat("/A/foo"), pwrite("/A/foo", 0, b"orange")];
        drive(&mut fs, &mut Recorder::new(), &calls);
        let view = fs.client_view(fs.live());
        assert!(view.has_dir("/A"));
        assert_eq!(view.read("/A/foo"), Some(&b"orange"[..]));
    }

    #[test]
    fn same_dir_rename_is_one_atomic_record() {
        let mut fs = OrangeFs::paper_default();
        let mut rec = Recorder::new();
        drive(&mut fs, &mut rec, &[creat("/tmp")]);
        let before = rec.len();
        drive(&mut fs, &mut rec, &[rename("/tmp", "/file")]);
        let records: Vec<String> = rec.events()[before..]
            .iter()
            .filter_map(|e| match &e.payload {
                Payload::Fs {
                    op: FsOp::Append { data, .. },
                    ..
                } => Some(String::from_utf8_lossy(data).to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(records.len(), 1, "{records:?}");
        assert!(records[0].starts_with("M "));
        let view = fs.client_view(fs.live());
        assert!(view.exists("/file") && !view.exists("/tmp"));
    }

    #[test]
    fn cross_dir_rename_is_insert_then_delete_bug4_window() {
        let mut fs = OrangeFs::paper_default();
        let preamble = [mkdir("/A"), mkdir("/B"), creat("/A/foo")];
        drive(&mut fs, &mut Recorder::new(), &preamble);
        fs.seal_baseline();
        let mut rec = Recorder::new();
        drive(&mut fs, &mut rec, &[rename("/A/foo", "/B/foo")]);
        // Crash after the insert but before the delete: foo in BOTH dirs.
        let low = rec.lowermost_events();
        // Insert record + its fdatasync are the first two lowermost ops.
        let mut states = fs.baseline().clone();
        states.apply_events(&rec, low[..2].iter().copied());
        let view = fs.client_view(&states);
        assert!(view.exists("/A/foo") && view.exists("/B/foo"), "{view}");
        // And pvfs2-fsck does not repair it.
        let mut s2 = states.clone();
        fs.recover(&mut s2);
        let v2 = fs.client_view(&s2);
        assert!(v2.exists("/A/foo") && v2.exists("/B/foo"));
    }

    #[test]
    fn fsck_collects_stranded_bstreams() {
        let mut fs = OrangeFs::paper_default();
        let preamble = [creat("/f"), pwrite("/f", 0, b"x")];
        drive(&mut fs, &mut Recorder::new(), &preamble);
        fs.seal_baseline();
        let mut rec = Recorder::new();
        drive(&mut fs, &mut rec, &[unlink("/f")]);
        // Crash state: rename-to-stranded persisted, final unlink not.
        let keep: Vec<EventId> = rec
            .lowermost_events()
            .into_iter()
            .filter(|&id| {
                !matches!(&rec.event(id).payload,
                    Payload::Fs { op: FsOp::Unlink { path }, .. } if path.contains("stranded"))
            })
            .collect();
        let mut states = fs.baseline().clone();
        states.apply_events(&rec, keep);
        let bstreams = |st: &ServerStates| -> Vec<String> {
            let storage = fs.base.topo.storage_servers().iter();
            storage
                .flat_map(|&s| st.server(s).as_fs().readdir("/bstreams").unwrap())
                .collect()
        };
        assert!(bstreams(&states).iter().any(|b| b.starts_with("stranded-")));
        fs.recover(&mut states);
        assert!(bstreams(&states).is_empty());
        assert_eq!(fs.client_view(&states), PfsView::new());
    }
}
