#![warn(missing_docs)]

//! # pfs — parallel file system models
//!
//! ParaCrash tested five production parallel file systems: BeeGFS,
//! OrangeFS, GlusterFS, GPFS and Lustre (Table 2). This crate implements
//! a *model* of each: given a client-level PFS call (`creat`, `pwrite`,
//! `rename`, …), the model issues the same per-server lowermost-level
//! operation sequences the paper traced (Figures 2 and 9), records them
//! into the shared trace `Recorder` with caller–callee and RPC causality
//! edges, and knows how to *recover* (its `fsck` tool) and *mount* (derive
//! the client-visible file tree) from any combination of per-server
//! persistent states — rereading only the servers a crash image wrote
//! where the model's layout allows (see `client_view` below).
//!
//! Each model captures the persistence-relevant behaviour that determines
//! which Table 3 bugs it exposes:
//!
//! | model | metadata scheme | what makes it (un)safe |
//! |---|---|---|
//! | [`beegfs::BeeGfs`] | idfiles + dentry hard links + dir xattrs on dedicated metadata servers | no metadata syncs → cross-server reorder bugs 1,2,4,5,6,7,8 |
//! | [`orangefs::OrangeFs`] | Berkeley-DB-style record log, `fdatasync` after every update | meta-server commits suppress bug 2; mis-ordered DB updates keep bugs 1,4,6 |
//! | [`glusterfs::GlusterFs`] | metadata colocated with file data on each brick | same-FS ordering shields ARVR; multi-file / multi-stripe bugs 6,8 remain |
//! | [`gpfs::Gpfs`] | shared-disk block FS, logged block writes in atomic groups | partially-persisted log groups → bugs 3,4,5 |
//! | [`lustre::Lustre`] | aggregated updates + accurate barriers on namespace ops | no POSIX-level bugs; open-file data writes still reorder (HDF5 bugs) |
//! | [`ext4::Ext4Direct`] | single local FS in data-journaling mode | the paper's clean baseline (Figure 8: zero bugs) |
//!
//! ## The base owns lifecycle, emission and RPC; a model is placement + dispatch + recover
//!
//! Everything the models have in common is one embedded [`ModelBase`]
//! (module [`base`]): the per-server stores and their `live → sealed →
//! forked` lifecycle, `emit_fs` / `emit_block` (apply to the live store,
//! record the lowermost event), the `request` / `reply` / `notify` RPC
//! legs, and the path / striping / attribute helpers. The [`Pfs`] trait
//! provides `dispatch`, `topology`, `stripe_size`, `seal_baseline`,
//! `baseline` and `live` over it, and [`Fork`] provides `fork` for every
//! `Clone` model.
//!
//! To add a model, embed a `ModelBase` (format the servers through
//! `base.mkfs(..)`, or a role's worth at once through `base.mkfs_all(..)`;
//! a striping model names its object directory there, once, through
//! `base.mkfs_objects(dir, servers)` and spells every chunk file
//! `base.chunk_path(object, stripe)`; end the constructor with
//! `base.seal()`), derive `Clone`, return the base from `base` /
//! `base_mut`, and write five methods:
//!
//! 1. `name` — the paper's name for the file system;
//! 2. `handle` — each [`PfsCall`] as `base.request`, `base.emit_*`,
//!    `base.reply` in the order the real system issues them;
//! 3. `recover` — the fsck tool: repairs crashed [`ServerStates`] in
//!    place (storage-side orphans through `base.collect_orphans`).
//!    Recovery costs what the crash touched: every image the checker
//!    recovers is a copy-on-write fork of the baseline, and a server
//!    whose store still shares its root with the baseline's is *clean*
//!    ([`ServerStates::dirty_mask`]: a pointer compare per written server).
//!    [`ModelBase::recover`] runs the model's passes under a
//!    [`base::Scope`] that marks the dirty servers and carries the
//!    baseline index, built once per seal on first use. A pass
//!    treats a dirty server exactly as the full algorithm does and
//!    answers for a clean one from the index, and skips one only if
//!    recovering the baseline leaves it as it is. An all-dirty scope — a
//!    `deep_clone`d image — is the full algorithm, and there is no
//!    second one. BeeGFS (passes 1–3), OrangeFS and Lustre (their orphan
//!    sweep) use the index; GPFS (a global dirent/inode scan), GlusterFS
//!    (cross-brick self-heal) and ext4 (one server) keep the full path;
//! 4. `client_view` — mount: the file tree from persistent state only.
//!    A file's data is a [`Content`]: the stores' own pages or blocks,
//!    shared, never copied. A striped file's goes through
//!    [`ModelBase::read_striped`]: a stripe on a clean server comes from
//!    the same baseline index, and only a written server's stripe is read
//!    by path. BeeGFS, OrangeFS, GlusterFS and Lustre read through it;
//!    GPFS takes its content blocks from one scan of every device, ext4
//!    its one file's pages;
//! 5. `restart_cost_secs` — the Figure 10/11 cost-model constant.

pub mod base;
pub mod beegfs;
pub mod call;
pub mod error;
pub mod ext4;
pub mod glusterfs;
pub mod gpfs;
pub mod label;
pub mod lustre;
pub mod orangefs;
pub mod placement;
pub mod store;
pub mod view;

pub use base::ModelBase;
pub use call::{CallTrace, ClientTrace, PfsCall};
pub use error::{PfsError, PfsResult};
pub use placement::Placement;
pub use store::{apply_event, ServerStates, Store};
pub use view::{Content, PfsView};

use simnet::ClusterTopology;
use tracer::{EventId, Layer, Payload, Process, Recorder};

/// A parallel file system model: a [`ModelBase`] plus the five things
/// that differ between file systems (see the crate docs).
///
/// The base keeps a *live* (in-memory, pre-crash) copy of every server's
/// persistent store, updated as calls are dispatched — the state the
/// running system sees — and the sealed *baseline* snapshot. Crash
/// emulation never touches the live state: it replays subsets of the
/// recorded lowermost operations onto forks of the baseline. Legal
/// states come from the other direction: subsets of the recorded
/// *calls* dispatched onto forks of a whole instance.
///
/// Models are `Send + Sync`, but a check runs on one thread: no two
/// threads read one model (its stores are only mutated during
/// dispatch). They are also
/// [`Fork`]: a model is its base plus a few `BTreeMap`s of runtime
/// bookkeeping, all `Clone`, and that is all `fork` needs.
pub trait Pfs: Fork + Send + Sync {
    /// Short name as used in the paper's tables ("BeeGFS", …).
    fn name(&self) -> &'static str;

    /// The embedded base.
    fn base(&self) -> &ModelBase;

    /// The embedded base, mutably.
    fn base_mut(&mut self) -> &mut ModelBase;

    /// The model's translation of one client call — already recorded as
    /// the call event `cev` — into RPCs and lowermost server operations,
    /// all emitted through the base. A [`PfsError`] reports a call that
    /// references paths outside the model's live namespace (malformed
    /// workload/trace input).
    fn handle(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        call: &PfsCall,
        cev: EventId,
    ) -> PfsResult<()>;

    /// Run the PFS's recovery tool (`beegfs-fsck`, `pvfs2-fsck`, `mmfsck`,
    /// …) over crashed server states, repairing them in place. The
    /// checker judges only the view mounted afterwards (Figure 6), so the
    /// tool's findings are not an output.
    fn recover(&self, states: &mut ServerStates);

    /// Mount: derive the client-visible file tree purely from persistent
    /// server states (never from live bookkeeping — a crash destroys
    /// that).
    fn client_view(&self, states: &ServerStates) -> PfsView;

    /// Simulated PFS restart cost in seconds — drives the Figure 10/11
    /// cost model (the paper: BeeGFS restart takes up to 7.8 s).
    fn restart_cost_secs(&self) -> f64;

    /// The cluster shape this instance runs on.
    fn topology(&self) -> &ClusterTopology {
        &self.base().topo
    }

    /// Stripe size in bytes (Table 2 default: 128 KiB).
    fn stripe_size(&self) -> u64 {
        self.base().stripe
    }

    /// Execute one client call: record the client-level trace event,
    /// then let the model [`handle`](Pfs::handle) it. Returns the id of
    /// the client-call event.
    fn dispatch(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        call: &PfsCall,
        parent: Option<EventId>,
    ) -> PfsResult<EventId> {
        let payload = Payload::Call {
            name: call.name().into(),
            args: call.args(),
        };
        let cev = rec.record(Layer::PfsClient, client, payload, parent);
        self.handle(rec, client, call, cev)?;
        Ok(cev)
    }

    /// Snapshot the current live state as the pre-test baseline.
    fn seal_baseline(&mut self) {
        self.base_mut().seal()
    }

    /// The sealed baseline snapshot.
    fn baseline(&self) -> &ServerStates {
        self.base().baseline()
    }

    /// The live (fully-executed) server states.
    fn live(&self) -> &ServerStates {
        self.base().live()
    }
}

/// [`Pfs::fork`](Fork::fork), provided for every `Clone` model — and so
/// for a test double that wraps a `Box<dyn Pfs>` and derives `Clone`.
pub trait Fork {
    /// An independent instance in the same state: the stores are shared
    /// copy-on-write (O(servers written since the seal)), the bookkeeping is
    /// cloned. Dispatching on either side never shows on the other —
    /// the golden walk replays a preamble once and forks where preserved
    /// sets diverge.
    fn fork(&self) -> Box<dyn Pfs>;
}

impl<T: Pfs + Clone + 'static> Fork for T {
    fn fork(&self) -> Box<dyn Pfs> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Pfs> {
    fn clone(&self) -> Self {
        (**self).fork()
    }
}

/// Convenience: run the recovery tool and return the recovered view in
/// one step, as the checking workflow of Figure 6 does.
pub fn recover_and_mount(pfs: &dyn Pfs, states: &mut ServerStates) -> PfsView {
    pfs.recover(states);
    let _mount = pc_rt::obs::span_cat("pfs.mount", "pfs");
    pfs.client_view(states)
}

#[cfg(test)]
mod tests {
    use super::base::testkit::{close, creat, drive, pwrite, rename, unlink};
    use super::*;

    fn models() -> Vec<Box<dyn Pfs>> {
        vec![
            Box::new(beegfs::BeeGfs::paper_default()),
            Box::new(orangefs::OrangeFs::paper_default()),
            Box::new(glusterfs::GlusterFs::paper_default()),
            Box::new(gpfs::Gpfs::paper_default()),
            Box::new(lustre::Lustre::paper_default()),
            Box::new(ext4::Ext4Direct::paper_default()),
        ]
    }

    /// The ARVR sequence, cut at every call: dispatching on a fork never
    /// shows on its origin, and a fork that carries on from call `n` ends
    /// where one uninterrupted replay on a fresh instance ends.
    #[test]
    fn fork_is_independent_and_continues_like_a_fresh_replay() {
        let calls = [
            creat("/file"),
            pwrite("/file", 0, b"old"),
            close("/file"),
            creat("/tmp"),
            pwrite("/tmp", 0, b"new"),
            close("/tmp"),
            rename("/tmp", "/file"),
        ];
        for (fresh, mut origin) in models().into_iter().zip(models()) {
            let mut uninterrupted = fresh.fork();
            drive(uninterrupted.as_mut(), &mut Recorder::new(), &calls);
            let end = uninterrupted.client_view(uninterrupted.live());
            for n in 0..calls.len() {
                if n == 3 {
                    origin.seal_baseline();
                }
                let digests = (origin.live().digest(), origin.baseline().digest());
                let view = origin.client_view(origin.live());
                let mut fork = origin.fork();
                drive(fork.as_mut(), &mut Recorder::new(), &calls[n..]);
                let name = origin.name();
                assert_eq!(fork.client_view(fork.live()), end, "{name} @ {n}");
                assert_eq!(
                    (origin.live().digest(), origin.baseline().digest()),
                    digests,
                    "{name} @ {n}"
                );
                assert_eq!(origin.client_view(origin.live()), view, "{name} @ {n}");
                drive(origin.as_mut(), &mut Recorder::new(), &calls[n..=n]);
            }
        }
    }

    /// A mount takes a clean server's stripes from the baseline's chunk
    /// table and reads only the written servers' by path: after every
    /// call of a test phase that rewrites, extends, replaces and deletes
    /// files striped over four servers, the live stores mount to the view
    /// a freshly formatted instance — whose table lists no chunk — mounts
    /// from their deep copy (every server written: every stripe by path).
    #[test]
    fn mount_of_a_fork_equals_mount_of_a_deep_copy() {
        let topo = || ClusterTopology::dedicated(2, 4, 2);
        let striping = |stripe| -> Vec<Box<dyn Pfs>> {
            vec![
                Box::new(beegfs::BeeGfs::new(topo(), Placement::new(), stripe)),
                Box::new(orangefs::OrangeFs::new(topo(), Placement::new(), stripe)),
                Box::new(lustre::Lustre::new(topo(), Placement::new(), stripe)),
                Box::new(glusterfs::GlusterFs::new(
                    ClusterTopology::combined(4, 2),
                    Placement::new(),
                    stripe,
                )),
            ]
        };
        let preamble = [
            creat("/a"),
            pwrite("/a", 0, b"0123456789abcdefghij"),
            creat("/c"),
            pwrite("/c", 0, b"cccccccc"),
        ];
        let test = [
            pwrite("/a", 5, b"WXYZ"),
            pwrite("/a", 20, b"klmnopqr"),
            creat("/b"),
            pwrite("/b", 0, b"bbbbbbbbbbbb"),
            rename("/b", "/c"),
            unlink("/a"),
        ];
        for (mut fs, formatted) in striping(4).into_iter().zip(striping(4)) {
            drive(fs.as_mut(), &mut Recorder::new(), &preamble);
            fs.seal_baseline();
            for call in &test {
                drive(
                    fs.as_mut(),
                    &mut Recorder::new(),
                    std::slice::from_ref(call),
                );
                let (live, name) = (fs.live(), fs.name());
                let view = fs.client_view(live);
                let whole = formatted.client_view(&live.deep_clone());
                assert_eq!(view, whole, "{name} after {call:?}");
            }
        }
    }
}
