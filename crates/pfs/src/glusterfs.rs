//! GlusterFS model (striped volume).
//!
//! GlusterFS (Table 2: v5.13, striped volume) has **no dedicated metadata
//! servers**: "the metadata and data chunks of a single file or directory
//! are stored on the same servers" (§6.3.1). The paper's Figure 9(c)
//! trace shows the consequence: for the ARVR program every operation —
//! `creat(tmp)`, `lsetxattr(tmp)`, `link(tmp, new chunk)`, `append`,
//! `rename(tmp, foo)`, `unlink(old chunk of foo)` — executes on one local
//! file system, whose journal orders their persistence. That is why ARVR
//! exposes nothing on GlusterFS, while multi-file (WAL) and multi-stripe
//! (large HDF5 files) workloads still do (Table 3 bugs 6 and 8).
//!
//! Layout per brick:
//!
//! ```text
//! /data/<path>          the file entry on its primary brick; hard link
//!                       to its first chunk; xattrs user.meta, user.size
//! /chunks/<gfid>.<s>    stripe s ≥ 1 chunks on brick (primary + s) % n
//! directories           replicated on every brick
//! ```
//!
//! Files are placed by their *parent directory* (colocating the files a
//! single-directory program touches, per the paper's observation); the
//! file-distribution sensitivity of Table 3 is expressed through
//! [`Placement`] pins.

use crate::base::{
    attr, attr_num, lookup, lookup_mut, parent_of, read_striped, rekey, stripe_segments,
    stripe_target, ModelBase,
};
use crate::call::PfsCall;
use crate::error::PfsResult;
use crate::placement::Placement;
use crate::store::ServerStates;
use crate::view::PfsView;
use crate::Pfs;
use simfs::{FsOp, JournalMode};
use simnet::ClusterTopology;
use std::collections::BTreeMap;
use tracer::{EventId, Process, Recorder};

#[derive(Debug, Clone)]
struct FileInfo {
    gfid: String,
    /// Primary brick index (holds the entry + stripe 0).
    primary: usize,
    size: u64,
    /// stripe → current length.
    chunks: BTreeMap<u64, u64>,
}

/// The GlusterFS striped-volume model. Bricks are the topology's
/// (combined) servers, so a brick index is a server id.
#[derive(Clone)]
pub struct GlusterFs {
    base: ModelBase,
    files: BTreeMap<String, FileInfo>,
    dirs: Vec<String>,
    next_id: u64,
}

fn data_path(path: &str) -> String {
    format!("/data{path}")
}

fn chunk_path(gfid: &str, stripe: u64) -> String {
    format!("/chunks/{gfid}.{stripe}")
}

/// Where stripe `stripe` of the file at `path` lives on its brick:
/// stripe 0 is the entry itself, the others are chunk files.
fn stripe_path(path: &str, gfid: &str, stripe: u64) -> String {
    if stripe == 0 {
        data_path(path)
    } else {
        chunk_path(gfid, stripe)
    }
}

/// A parsed `user.meta` xattr: `(gfid, first brick, generation)`. The
/// generation is monotonic; heal and lookup resolve duplicate entries
/// of one path by it.
type Meta = (String, usize, u64);

/// Every file entry with a `user.meta` xattr, brick by brick:
/// `(brick, mount path, meta)`. Entries without the xattr are in-flight
/// creates: lookups fail, the file is not visible yet.
fn entries(states: &ServerStates) -> Vec<(u32, String, Meta)> {
    let mut out = Vec::new();
    for (brick, store) in states.iter() {
        let fs = store.as_fs();
        for p in fs.walk() {
            let Some(vpath) = p.strip_prefix("/data") else {
                continue;
            };
            if fs.is_dir(&p) {
                continue;
            }
            if let Ok(raw) = fs.getxattr(&p, "user.meta") {
                let s = String::from_utf8_lossy(raw);
                let gfid = attr(&s, "gfid").unwrap_or("").to_string();
                let meta = (gfid, attr_num(&s, "first"), attr_num(&s, "gen"));
                out.push((brick, vpath.to_string(), meta));
            }
        }
    }
    out
}

impl GlusterFs {
    /// A formatted striped volume over `topo.server_count()` bricks.
    pub fn new(topo: ClusterTopology, placement: Placement, stripe: u64) -> Self {
        Self::with_journal(topo, placement, stripe, JournalMode::Data)
    }

    /// Same, with an explicit local-FS journaling mode for the bricks
    /// (the fuzzer's journaling-mode sweep; the paper's deployment runs
    /// data journaling).
    pub fn with_journal(
        topo: ClusterTopology,
        placement: Placement,
        stripe: u64,
        journal: JournalMode,
    ) -> Self {
        let mut base = ModelBase::fs(topo, placement, stripe, journal);
        for brick in 0..base.topo.server_count() {
            let fs = base.mkfs(brick).as_fs_mut();
            fs.mkdir_all("/data").unwrap();
            fs.mkdir_all("/chunks").unwrap();
        }
        base.seal();
        GlusterFs {
            base,
            files: BTreeMap::new(),
            dirs: vec!["/".to_string()],
            next_id: 0,
        }
    }

    /// Paper default: 2 combined servers, 128 KiB stripes.
    pub fn paper_default() -> Self {
        GlusterFs::new(
            ClusterTopology::paper_combined_default(),
            Placement::new(),
            128 * 1024,
        )
    }

    fn n_bricks(&self) -> usize {
        self.base.topo.server_count() as usize
    }

    /// Primary brick of a file: explicit pin, else parent-directory hash
    /// — files created together live together (ARVR safety).
    fn primary_of(&self, path: &str) -> usize {
        let n = self.n_bricks();
        match self.base.placement.file_pin(path) {
            Some(idx) => idx % n,
            None => self.base.placement.dir_index(&parent_of(path), n),
        }
    }

    /// One request / local op / reply round trip on every brick
    /// (directories are replicated on all of them).
    fn on_every_brick(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        msg: &str,
        op: FsOp,
        cev: EventId,
    ) {
        for brick in 0..self.n_bricks() as u32 {
            let recv = self.base.request(rec, client, brick, msg, cev);
            let w = self.base.emit_fs(rec, brick, op.clone(), recv);
            self.base.reply(rec, brick, client, "OK", w);
        }
    }

    fn do_creat(&mut self, rec: &mut Recorder, client: Process, path: &str, cev: EventId) {
        let primary = self.primary_of(path);
        let gfid = format!("g{}", self.next_id);
        let gen = self.next_id;
        self.next_id += 1;
        let brick = primary as u32;
        let overwritten = self.files.get(path).cloned();
        let msg = format!("CREATE {path}");
        let recv = self.base.request(rec, client, brick, &msg, cev);
        // Figure 9(c): creat(tmp); lsetxattr(tmp); link(tmp, new chunk).
        let dp = data_path(path);
        let op = FsOp::Creat { path: dp.clone() };
        let e = self.base.emit_fs(rec, brick, op, recv);
        let meta = FsOp::SetXattr {
            path: dp.clone(),
            key: "user.meta".into(),
            value: format!("gfid={gfid};first={primary};gen={gen}").into_bytes(),
        };
        self.base.emit_fs(rec, brick, meta, e);
        let link = FsOp::Link {
            src: dp,
            dst: chunk_path(&gfid, 0),
        };
        let w = self.base.emit_fs(rec, brick, link, recv);
        self.base.reply(rec, brick, client, "OK", w);
        if let Some(old) = overwritten {
            self.cleanup_chunks(rec, &old, recv);
        }
        let info = FileInfo {
            gfid,
            primary,
            size: 0,
            chunks: BTreeMap::from([(0, 0)]),
        };
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
        let n = self.n_bricks();
        let f = lookup_mut(&mut self.files, path)?;
        let base = &mut self.base;
        for seg in stripe_segments(f.primary, offset, data.len(), base.stripe, n) {
            let brick = seg.target as u32;
            let msg = format!("WRITE {path} stripe {}", seg.stripe);
            let recv = base.request(rec, client, brick, &msg, cev);
            let target = stripe_path(path, &f.gfid, seg.stripe);
            let w = base.write_chunk(rec, brick, target, &mut f.chunks, &seg, data, recv);
            base.reply(rec, brick, client, "OK", w);
        }
        // Size update on the primary brick.
        f.size = f.size.max(offset + data.len() as u64);
        let primary = f.primary as u32;
        let size = FsOp::SetXattr {
            path: data_path(path),
            key: "user.size".into(),
            value: f.size.to_string().into_bytes(),
        };
        let msg = format!("SETSIZE {path}");
        let recv = self.base.request(rec, client, primary, &msg, cev);
        let w = self.base.emit_fs(rec, primary, size, recv);
        self.base.reply(rec, primary, client, "OK", w);
        Ok(())
    }

    /// Remove the chunk files of a dead file (stripe 0 chunk link and any
    /// higher stripes) — Figure 9(c)'s `unlink(old chunk of foo)`.
    fn cleanup_chunks(&mut self, rec: &mut Recorder, info: &FileInfo, parent: EventId) {
        let n = self.n_bricks();
        for &stripe in info.chunks.keys() {
            let brick = stripe_target(info.primary, stripe, n) as u32;
            let path = chunk_path(&info.gfid, stripe);
            self.base.emit_fs(rec, brick, FsOp::Unlink { path }, parent);
        }
    }

    /// Directory rename: replicated like mkdir, one local rename per
    /// brick.
    fn rename_dir(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        src: &str,
        dst: &str,
        cev: EventId,
    ) {
        let rename = FsOp::Rename {
            src: data_path(src),
            dst: data_path(dst),
        };
        self.on_every_brick(rec, client, &format!("RENAME-DIR {src} {dst}"), rename, cev);
        let under = format!("{src}/");
        for d in &mut self.dirs {
            if d == src || d.starts_with(&under) {
                *d = format!("{dst}{}", &d[src.len()..]);
            }
        }
        rekey(&mut self.files, src, dst);
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
        let brick = info.primary as u32;
        let msg = format!("RENAME {src} {dst}");
        let recv = self.base.request(rec, client, brick, &msg, cev);
        let rename = FsOp::Rename {
            src: data_path(src),
            dst: data_path(dst),
        };
        let w = self.base.emit_fs(rec, brick, rename, recv);
        self.base.reply(rec, brick, client, "OK", w);
        if let Some(old) = overwritten {
            if old.primary != info.primary {
                // The overwritten file lived on another brick: its entry
                // must be unlinked there (cross-brick, unordered —
                // the distribution-sensitive hazard).
                let ob = old.primary as u32;
                let msg = format!("UNLINK-OLD {dst}");
                let recv2 = self.base.request(rec, client, ob, &msg, cev);
                let path = data_path(dst);
                let w2 = self.base.emit_fs(rec, ob, FsOp::Unlink { path }, recv2);
                self.cleanup_chunks(rec, &old, recv2);
                self.base.reply(rec, ob, client, "OK", w2);
            } else {
                // Same brick: the rename already replaced the entry;
                // clean up the old chunk hard links.
                self.cleanup_chunks(rec, &old, recv);
            }
        }
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
        let info = lookup(&self.files, path)?.clone();
        let brick = info.primary as u32;
        let msg = format!("UNLINK {path}");
        let recv = self.base.request(rec, client, brick, &msg, cev);
        let entry = data_path(path);
        let op = FsOp::Unlink { path: entry };
        let w = self.base.emit_fs(rec, brick, op, recv);
        self.cleanup_chunks(rec, &info, recv);
        self.base.reply(rec, brick, client, "OK", w);
        self.files.remove(path);
        Ok(())
    }

    fn do_fsync(&mut self, rec: &mut Recorder, client: Process, path: &str, cev: EventId) {
        let Some(info) = self.files.get(path).cloned() else {
            return;
        };
        let n = self.n_bricks();
        for &stripe in info.chunks.keys() {
            let brick = stripe_target(info.primary, stripe, n) as u32;
            let msg = format!("FSYNC {path} stripe {stripe}");
            let recv = self.base.request(rec, client, brick, &msg, cev);
            let target = stripe_path(path, &info.gfid, stripe);
            let op = FsOp::Fsync { path: target };
            let w = self.base.emit_fs(rec, brick, op, recv);
            self.base.reply(rec, brick, client, "OK", w);
        }
    }
}

impl Pfs for GlusterFs {
    fn name(&self) -> &'static str {
        "GlusterFS"
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
            PfsCall::Mkdir { path } => {
                let mkdir = FsOp::Mkdir {
                    path: data_path(path),
                };
                self.on_every_brick(rec, client, &format!("MKDIR {path}"), mkdir, cev);
                self.dirs.push(path.to_string());
            }
            PfsCall::Pwrite { path, offset, data } => {
                self.do_pwrite(rec, client, path, *offset, data, cev)?
            }
            PfsCall::Rename { src, dst } if self.dirs.contains(src) => {
                self.rename_dir(rec, client, src, dst, cev)
            }
            PfsCall::Rename { src, dst } => self.rename_file(rec, client, src, dst, cev)?,
            PfsCall::Unlink { path } => self.do_unlink(rec, client, path, cev)?,
            PfsCall::Rmdir { path } => {
                let rmdir = FsOp::Rmdir {
                    path: data_path(path),
                };
                self.on_every_brick(rec, client, &format!("RMDIR {path}"), rmdir, cev);
                self.dirs.retain(|d| d != path);
            }
            PfsCall::Close { .. } => {}
            PfsCall::Fsync { path } => self.do_fsync(rec, client, path, cev),
        }
        Ok(())
    }

    fn recover(&self, states: &mut ServerStates) {
        let _span = pc_rt::obs::span_cat("recover/GlusterFS", "pfs");
        // Duplicate entries for one path across bricks → keep the highest
        // generation (self-heal), drop the rest.
        let mut by_path: BTreeMap<String, Vec<(u32, u64)>> = BTreeMap::new();
        for (brick, vpath, (_, _, gen)) in entries(states) {
            by_path.entry(vpath).or_default().push((brick, gen));
        }
        for (vpath, mut holders) in by_path {
            holders.sort_by_key(|&(_, gen)| std::cmp::Reverse(gen));
            for &(brick, _) in holders.iter().skip(1) {
                let _ = states
                    .server_mut(brick)
                    .as_fs_mut()
                    .unlink(&data_path(&vpath));
            }
        }
    }

    fn client_view(&self, states: &ServerStates) -> PfsView {
        let mut view = PfsView::new();
        // Directories: the first brick is authoritative for the
        // namespace (DHT lookups consult the hashed subvolume first), so
        // a directory rename that persisted on only some bricks resolves
        // deterministically instead of showing both names.
        let fs = states.server(0).as_fs();
        for p in fs.walk() {
            if let Some(vpath) = p.strip_prefix("/data") {
                if !vpath.is_empty() && fs.is_dir(&p) {
                    view.add_dir(vpath);
                }
            }
        }
        // Files: entry with the highest generation wins (lookup + heal).
        let mut best: BTreeMap<String, Meta> = BTreeMap::new();
        for (_, vpath, meta) in entries(states) {
            match best.get_mut(&vpath) {
                Some(e) if meta.2 > e.2 => *e = meta,
                Some(_) => {}
                None => {
                    best.insert(vpath, meta);
                }
            }
        }
        let n = self.n_bricks();
        for (vpath, (gfid, first, _)) in best {
            let content = read_striped(states, |stripe| {
                let brick = stripe_target(first, stripe, n) as u32;
                (brick, stripe_path(&vpath, &gfid, stripe))
            });
            view.add_file(vpath, content);
        }
        view
    }

    fn restart_cost_secs(&self) -> f64 {
        2.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::testkit::*;
    use std::collections::BTreeSet;
    use tracer::Payload;

    /// The servers the lowermost events of `rec` touch.
    fn touched(rec: &Recorder) -> BTreeSet<u32> {
        rec.lowermost_events()
            .into_iter()
            .filter_map(|id| match &rec.event(id).payload {
                Payload::Fs { server, .. } => Some(*server),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn arvr_lands_on_one_brick() {
        let mut fs = GlusterFs::paper_default();
        let (rec, _) = run_arvr(&mut fs);
        // Files of one directory colocate: every lowermost op targets the
        // same brick (the paper's ARVR-safety argument).
        assert_eq!(touched(&rec).len(), 1);
        let view = fs.client_view(fs.live());
        assert_eq!(view.read("/file"), Some(&b"new"[..]));
        assert!(!view.exists("/tmp"));
    }

    #[test]
    fn arvr_every_prefix_is_legal() {
        let mut fs = GlusterFs::paper_default();
        let (rec, _) = run_arvr(&mut fs);
        let low = rec.lowermost_events();
        for k in 0..=low.len() {
            let mut states = fs.baseline().clone();
            states.apply_events(&rec, low[..k].iter().copied());
            let mut s2 = states.clone();
            fs.recover(&mut s2);
            let view = fs.client_view(&s2);
            let file = view.read("/file");
            assert!(
                file == Some(&b"old"[..]) || file == Some(&b"new"[..]),
                "prefix {k}: {view}"
            );
        }
    }

    #[test]
    fn pinned_files_split_across_bricks() {
        let placement = Placement::new().pin_file("/log", 0).pin_file("/foo", 1);
        let mut fs = GlusterFs::new(
            ClusterTopology::paper_combined_default(),
            placement,
            128 * 1024,
        );
        drive(
            &mut fs,
            &mut Recorder::new(),
            &[creat("/log"), creat("/foo")],
        );
        assert_eq!(fs.files["/log"].primary, 0);
        assert_eq!(fs.files["/foo"].primary, 1);
    }

    #[test]
    fn large_file_stripes_across_bricks() {
        let mut fs = GlusterFs::new(
            ClusterTopology::paper_combined_default(),
            Placement::new(),
            4,
        );
        let mut rec = Recorder::new();
        let calls = [creat("/big"), pwrite("/big", 0, b"abcdefghij")];
        drive(&mut fs, &mut rec, &calls);
        let view = fs.client_view(fs.live());
        assert_eq!(view.read("/big"), Some(&b"abcdefghij"[..]));
        assert_eq!(touched(&rec).len(), 2);
    }

    #[test]
    fn fsck_heals_split_brain_by_generation() {
        // A renamed file colliding with a stale old entry on another
        // brick must resolve to the newer generation.
        let placement = Placement::new().pin_file("/a", 0).pin_file("/b", 1);
        let mut fs = GlusterFs::new(
            ClusterTopology::paper_combined_default(),
            placement,
            128 * 1024,
        );
        let preamble = [creat("/b"), pwrite("/b", 0, b"OLD")];
        drive(&mut fs, &mut Recorder::new(), &preamble);
        fs.seal_baseline();
        let mut rec = Recorder::new();
        let test = [creat("/a"), pwrite("/a", 0, b"NEW"), rename("/a", "/b")];
        drive(&mut fs, &mut rec, &test);
        // Crash state: everything except the cross-brick unlink of the
        // old /b entry.
        let keep: Vec<EventId> = rec
            .lowermost_events()
            .into_iter()
            .filter(|&id| {
                !matches!(&rec.event(id).payload,
                Payload::Fs { op: FsOp::Unlink { path }, .. } if path == "/data/b")
            })
            .collect();
        let mut states = fs.baseline().clone();
        states.apply_events(&rec, keep);
        let stale = |st: &ServerStates| st.server(1).as_fs().exists("/data/b");
        assert!(stale(&states));
        fs.recover(&mut states);
        assert!(!stale(&states) && states.server(0).as_fs().exists("/data/b"));
        let view = fs.client_view(&states);
        assert_eq!(view.read("/b"), Some(&b"NEW"[..]));
        assert!(!view.exists("/a"));
    }
}
