//! The file systems under test (Table 2).

use crate::params::Params;
use paracrash::StackFactory;
use pfs::beegfs::BeeGfs;
use pfs::ext4::Ext4Direct;
use pfs::glusterfs::GlusterFs;
use pfs::gpfs::Gpfs;
use pfs::lustre::Lustre;
use pfs::orangefs::OrangeFs;
use pfs::Pfs;
use simnet::ClusterTopology;

/// One row of Table 2's parallel-file-system list, plus the local-FS
/// control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FsKind {
    /// BeeGFS 7.1.2 (`tuneRemoteFSync`).
    BeeGfs,
    /// OrangeFS 2.9.7 (default, Berkeley-DB metadata).
    OrangeFs,
    /// GlusterFS 5.13 (striped volume).
    GlusterFs,
    /// GPFS / Spectrum Scale 5.0.4 (kernel-level, block-traced).
    Gpfs,
    /// Lustre 2.12.6 (kernel-level).
    Lustre,
    /// Local ext4 in data-journaling mode (the clean control of
    /// Figure 8).
    Ext4,
}

impl FsKind {
    /// The five parallel file systems of the paper's evaluation.
    pub fn parallel() -> [FsKind; 5] {
        [
            FsKind::BeeGfs,
            FsKind::OrangeFs,
            FsKind::GlusterFs,
            FsKind::Gpfs,
            FsKind::Lustre,
        ]
    }

    /// Everything in Figure 8 (the five PFSs + ext4).
    pub fn all() -> [FsKind; 6] {
        [
            FsKind::BeeGfs,
            FsKind::OrangeFs,
            FsKind::GlusterFs,
            FsKind::Gpfs,
            FsKind::Lustre,
            FsKind::Ext4,
        ]
    }

    /// Name as printed in the paper's tables and figures.
    pub fn name(&self) -> &'static str {
        match self {
            FsKind::BeeGfs => "BeeGFS",
            FsKind::OrangeFs => "OrangeFS",
            FsKind::GlusterFs => "GlusterFS",
            FsKind::Gpfs => "GPFS",
            FsKind::Lustre => "Lustre",
            FsKind::Ext4 => "ext4",
        }
    }

    /// Parse a name.
    pub fn parse(s: &str) -> Option<FsKind> {
        match s.to_ascii_lowercase().as_str() {
            "beegfs" => Some(FsKind::BeeGfs),
            "orangefs" | "pvfs2" => Some(FsKind::OrangeFs),
            "glusterfs" => Some(FsKind::GlusterFs),
            "gpfs" | "spectrum-scale" => Some(FsKind::Gpfs),
            "lustre" => Some(FsKind::Lustre),
            "ext4" => Some(FsKind::Ext4),
            _ => None,
        }
    }

    /// Build a fresh formatted instance for the given parameters. When
    /// [`Params::faults`] is set the instance's RPC fault plane is armed
    /// (the ext4 control has no network and ignores it).
    pub fn build(&self, params: &Params) -> Box<dyn Pfs> {
        let placement = params.placement.clone();
        let journal = params.journal.unwrap_or(simfs::JournalMode::Data);
        let mut pfs: Box<dyn Pfs> = match self {
            FsKind::BeeGfs => Box::new(BeeGfs::with_journal(
                ClusterTopology::dedicated(params.meta, params.storage, params.clients),
                placement,
                params.stripe,
                journal,
            )),
            FsKind::OrangeFs => Box::new(OrangeFs::with_journal(
                ClusterTopology::dedicated(params.meta, params.storage, params.clients),
                placement,
                params.stripe,
                journal,
            )),
            FsKind::GlusterFs => Box::new(GlusterFs::with_journal(
                ClusterTopology::combined(params.meta + params.storage, params.clients),
                placement,
                params.stripe,
                journal,
            )),
            // GPFS journals at the block layer (tagged scsi_write
            // groups); the local-FS journaling knob does not apply.
            FsKind::Gpfs => Box::new(Gpfs::new(
                ClusterTopology::combined(params.meta + params.storage, params.clients),
                placement,
                params.stripe,
            )),
            FsKind::Lustre => Box::new(Lustre::with_journal(
                ClusterTopology::dedicated(params.meta, params.storage, params.clients),
                placement,
                params.stripe,
                journal,
            )),
            FsKind::Ext4 => Box::new(Ext4Direct::new(journal)),
        };
        if let Some(faults) = &params.faults {
            pfs.install_faults(faults.clone());
        }
        pfs
    }

    /// A factory building identical fresh instances (for golden-state
    /// replay). Replays run fault-free: delivery faults are
    /// state-invariant, so the legal states of a faulty trace are the
    /// legal states of its clean replay.
    pub fn factory(&self, params: &Params) -> StackFactory {
        let kind = *self;
        let mut params = params.clone();
        params.faults = None;
        Box::new(move || kind.build(&params))
    }

    /// Number of combined servers this kind uses for a `(meta, storage)`
    /// split (GlusterFS/GPFS merge them).
    pub fn server_count(&self, params: &Params) -> u32 {
        match self {
            FsKind::Ext4 => 1,
            _ => params.meta + params.storage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_roundtrip() {
        for fs in FsKind::all() {
            assert_eq!(FsKind::parse(fs.name()), Some(fs));
        }
        assert_eq!(FsKind::parse("PVFS2"), Some(FsKind::OrangeFs));
        assert_eq!(FsKind::parse("zfs"), None);
    }

    #[test]
    fn build_produces_matching_names() {
        let params = Params::quick();
        for fs in FsKind::all() {
            let built = fs.build(&params);
            assert_eq!(built.name(), fs.name());
        }
    }

    #[test]
    fn factories_build_identical_instances() {
        let params = Params::quick();
        let f = FsKind::BeeGfs.factory(&params);
        let a = f();
        let b = f();
        assert_eq!(a.baseline(), b.baseline());
    }
}
