//! Direct ext4 baseline — no PFS at all.
//!
//! Figure 8 includes "ext4" as the control: the same POSIX test programs
//! run against a single local ext4 file system in data-journaling mode
//! leave *zero* inconsistent crash states. This model routes every client
//! call straight to one local FS, with rename remaining the single atomic
//! operation POSIX promises — exactly why the PFSs (which decompose it
//! across servers) are the ones that break.

use crate::base::ModelBase;
use crate::call::PfsCall;
use crate::error::PfsResult;
use crate::placement::Placement;
use crate::store::ServerStates;
use crate::view::PfsView;
use crate::Pfs;
use simfs::{FsOp, JournalMode};
use simnet::ClusterTopology;
use tracer::{EventId, Process, Recorder};

/// A single local ext4 file system mounted directly.
#[derive(Clone)]
pub struct Ext4Direct {
    base: ModelBase,
}

impl Ext4Direct {
    /// ext4 with the given journaling mode on one "server" (no striping).
    pub fn new(journal: JournalMode) -> Self {
        let topo = ClusterTopology::combined(1, 2);
        Ext4Direct {
            base: ModelBase::fs(topo, Placement::new(), u64::MAX, journal),
        }
    }

    /// The paper's safest mode: data journaling.
    pub fn paper_default() -> Self {
        Self::new(JournalMode::Data)
    }
}

impl Pfs for Ext4Direct {
    fn name(&self) -> &'static str {
        "ext4"
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
        _client: Process,
        call: &PfsCall,
        cev: EventId,
    ) -> PfsResult<()> {
        let path = call.primary_path().to_string();
        let op = match call {
            PfsCall::Creat { .. } => FsOp::Creat { path },
            PfsCall::Mkdir { .. } => FsOp::Mkdir { path },
            PfsCall::Pwrite { offset, data, .. } => FsOp::Pwrite {
                path,
                offset: *offset,
                data: data.clone(),
            },
            PfsCall::Rename { dst, .. } => FsOp::Rename {
                src: path,
                dst: dst.clone(),
            },
            PfsCall::Unlink { .. } => FsOp::Unlink { path },
            PfsCall::Rmdir { .. } => FsOp::Rmdir { path },
            PfsCall::Fsync { .. } => FsOp::Fsync { path },
            PfsCall::Close { .. } => return Ok(()),
        };
        self.base.emit_fs(rec, 0, op, cev);
        Ok(())
    }

    fn recover(&self, _states: &mut ServerStates) {
        // e2fsck has nothing to repair: the simulated local FS applies
        // every operation whole, so its structure is always sound (the
        // property tests hold it to `simfs::Fsck`).
        let _span = pc_rt::obs::span_cat("recover/ext4", "pfs");
    }

    fn client_view(&self, states: &ServerStates) -> PfsView {
        let mut view = PfsView::new();
        let fs = states.server(0).as_fs();
        for path in fs.walk() {
            if fs.is_dir(&path) {
                view.add_dir(path);
            } else if let Ok(data) = fs.read(&path) {
                view.add_file(path, data.to_vec());
            }
        }
        view
    }

    fn restart_cost_secs(&self) -> f64 {
        0.3 // remount only
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::testkit::*;

    #[test]
    fn arvr_on_ext4_rename_is_atomic() {
        let mut fs = Ext4Direct::paper_default();
        let (rec, _) = run_arvr(&mut fs);
        // Every prefix of the lowermost ops yields a legal intermediate
        // view under data journaling.
        let low = rec.lowermost_events();
        for k in 0..=low.len() {
            let mut states = fs.baseline().clone();
            states.apply_events(&rec, low[..k].iter().copied());
            let view = fs.client_view(&states);
            let file = view.read("/file");
            assert!(
                file == Some(&b"old"[..]) || file == Some(&b"new"[..]),
                "prefix {k} produced inconsistent file content"
            );
        }
    }

    #[test]
    fn journal_mode_is_configurable() {
        let fs = Ext4Direct::new(JournalMode::Writeback);
        assert_eq!(fs.live().server(0).journal(), Some(JournalMode::Writeback));
        assert_eq!(fs.base().journal, Some(JournalMode::Writeback));
    }

    #[test]
    fn view_walks_directories() {
        let mut fs = Ext4Direct::paper_default();
        drive(&mut fs, &mut Recorder::new(), &[mkdir("/A"), creat("/A/f")]);
        let view = fs.client_view(fs.live());
        assert!(view.has_dir("/A"));
        assert!(view.exists("/A/f"));
    }
}
