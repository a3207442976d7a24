//! Block-device substrate for kernel-level parallel file systems.
//!
//! GPFS and Lustre do not issue POSIX calls against a local file system;
//! they write disk blocks directly. The paper mounts them on iSCSI disks
//! and traces `scsi_write(LBA)` / `scsi_synchronize_cache` commands
//! (Figure 7). Each traced block write is *tagged* with the on-disk
//! structure it updates (Figure 9(d): "log file", "inode of file",
//! "parent dir", "inode allocation map"), which is what ParaCrash's
//! semantic analysis and bug reports consume.
//!
//! Persistence semantics: a disk may persist outstanding writes in any
//! order; ordering is only enforced by cache-flush barriers
//! (`scsi_synchronize_cache`). Writes may also be grouped into *atomic log
//! groups* by the file system's journal — the group is a promise the FS
//! makes, and ParaCrash checks whether a crash can break it (Table 3
//! bug 3).

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// The on-disk structure a tagged block write updates.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StructTag {
    /// File-system journal / log file block.
    LogFile,
    /// Inode of the named object.
    Inode(String),
    /// Directory-entry block of the named directory.
    DirEntry(String),
    /// Inode / block allocation map.
    AllocMap,
    /// Content block of the named file.
    FileContent(String),
    /// File-system superblock.
    Superblock,
    /// Anything else.
    Other(String),
}

impl StructTag {
    /// `true` for tags that represent file-system metadata.
    pub fn is_meta(&self) -> bool {
        !matches!(self, StructTag::FileContent(_))
    }

    /// The object name the tag refers to, if any.
    pub fn object(&self) -> Option<&str> {
        match self {
            StructTag::Inode(n) | StructTag::DirEntry(n) | StructTag::FileContent(n) => Some(n),
            _ => None,
        }
    }
}

impl fmt::Display for StructTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructTag::LogFile => write!(f, "log file"),
            StructTag::Inode(n) => write!(f, "inode of {n}"),
            StructTag::DirEntry(n) => write!(f, "d_entry of {n}"),
            StructTag::AllocMap => write!(f, "inode allocation map"),
            StructTag::FileContent(n) => write!(f, "content of {n}"),
            StructTag::Superblock => write!(f, "superblock"),
            StructTag::Other(s) => write!(f, "{s}"),
        }
    }
}

/// One traced block-level command.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BlockOp {
    /// `scsi_write(LBA)` — tagged with the structure it updates and,
    /// optionally, the atomic journal group it belongs to.
    Write {
        lba: u64,
        payload: Vec<u8>,
        tag: StructTag,
        /// Writes sharing a group id are intended by the FS journal to be
        /// all-or-nothing.
        atomic_group: Option<u32>,
    },
    /// `scsi_synchronize_cache` — persistence barrier: every write issued
    /// before it (on this device) is persisted before any write issued
    /// after it.
    SyncCache,
}

impl BlockOp {
    /// Convenience constructor for a tagged write.
    pub fn write(lba: u64, tag: StructTag, payload: impl Into<Vec<u8>>) -> Self {
        BlockOp::Write {
            lba,
            payload: payload.into(),
            tag,
            atomic_group: None,
        }
    }

    /// Convenience constructor for a tagged write inside an atomic group.
    pub fn write_in_group(
        lba: u64,
        tag: StructTag,
        payload: impl Into<Vec<u8>>,
        group: u32,
    ) -> Self {
        BlockOp::Write {
            lba,
            payload: payload.into(),
            tag,
            atomic_group: Some(group),
        }
    }

    /// `true` for the barrier command.
    pub fn is_sync(&self) -> bool {
        matches!(self, BlockOp::SyncCache)
    }

    /// `true` if the command mutates the device.
    pub fn is_update(&self) -> bool {
        !self.is_sync()
    }

    /// The structure tag, if this is a write.
    pub fn tag(&self) -> Option<&StructTag> {
        match self {
            BlockOp::Write { tag, .. } => Some(tag),
            BlockOp::SyncCache => None,
        }
    }

    /// The atomic group id, if any.
    pub fn atomic_group(&self) -> Option<u32> {
        match self {
            BlockOp::Write { atomic_group, .. } => *atomic_group,
            BlockOp::SyncCache => None,
        }
    }

    /// Payload size in bytes (0 for barriers).
    pub fn payload_len(&self) -> usize {
        match self {
            BlockOp::Write { payload, .. } => payload.len(),
            BlockOp::SyncCache => 0,
        }
    }

    /// Torn version of this command: the write the disk actually
    /// completed when a crash hit after `keep` payload bytes. `None`
    /// when nothing partial can persist (barriers; writes of < 2 bytes
    /// are sector-atomic here).
    pub fn torn(&self, keep: usize) -> Option<BlockOp> {
        match self {
            BlockOp::Write {
                lba,
                payload,
                tag,
                atomic_group,
            } if payload.len() >= 2 => {
                let keep = keep.clamp(1, payload.len() - 1);
                Some(BlockOp::Write {
                    lba: *lba,
                    payload: payload[..keep].to_vec(),
                    tag: tag.clone(),
                    atomic_group: *atomic_group,
                })
            }
            _ => None,
        }
    }
}

impl fmt::Display for BlockOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockOp::Write { lba, tag, .. } => write!(f, "scsi_write(LBA: {lba}, {tag})"),
            BlockOp::SyncCache => write!(f, "scsi_synchronize_cache()"),
        }
    }
}

/// An addressable block device, snapshot-able like [`crate::FsState`].
///
/// Like `FsState`, the block table is persistent (copy-on-write):
/// `clone`/[`BlockDev::fork`] are O(1), per-block payloads stay shared
/// between forks until overwritten, and the digest is memoized.
#[derive(Clone, Default)]
pub struct BlockDev {
    blocks: Arc<BTreeMap<u64, Arc<(StructTag, Vec<u8>)>>>,
    digest_memo: Arc<OnceLock<u64>>,
}

impl fmt::Debug for BlockDev {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockDev")
            .field("blocks", &self.blocks)
            .finish()
    }
}

impl PartialEq for BlockDev {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.blocks, &other.blocks) || self.blocks == other.blocks
    }
}

impl Eq for BlockDev {}

impl BlockDev {
    /// An empty (all-zero) device.
    pub fn new() -> Self {
        Self::default()
    }

    /// O(1) copy-on-write snapshot (see [`crate::FsState::fork`]).
    pub fn fork(&self) -> BlockDev {
        self.clone()
    }

    /// A structurally independent copy sharing no blocks with `self`
    /// (the reference checker's clone-everything cost model).
    pub fn deep_clone(&self) -> BlockDev {
        BlockDev {
            blocks: Arc::new(
                self.blocks
                    .iter()
                    .map(|(k, v)| (*k, Arc::new((**v).clone())))
                    .collect(),
            ),
            digest_memo: Arc::new(OnceLock::new()),
        }
    }

    /// Apply one command. `SyncCache` is a no-op at the state level.
    pub fn apply(&mut self, op: &BlockOp) {
        if let BlockOp::Write {
            lba, payload, tag, ..
        } = op
        {
            if self.digest_memo.get().is_some() || Arc::strong_count(&self.digest_memo) > 1 {
                self.digest_memo = Arc::new(OnceLock::new());
            }
            Arc::make_mut(&mut self.blocks).insert(*lba, Arc::new((tag.clone(), payload.clone())));
        }
    }

    /// Read the content last written to `lba`, if any.
    pub fn read(&self, lba: u64) -> Option<&[u8]> {
        self.blocks.get(&lba).map(|b| b.1.as_slice())
    }

    /// All written blocks in LBA order.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &StructTag, &[u8])> {
        self.blocks.iter().map(|(l, b)| (l, &b.0, b.1.as_slice()))
    }

    /// Number of written blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` if nothing was ever written.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Canonical digest for crash-state dedup (memoized like
    /// [`crate::FsState::digest`]).
    pub fn digest(&self) -> u64 {
        *self.digest_memo.get_or_init(|| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            self.blocks.hash(&mut h);
            h.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_land_and_overwrite() {
        let mut dev = BlockDev::new();
        dev.apply(&BlockOp::write(8, StructTag::LogFile, vec![1]));
        dev.apply(&BlockOp::write(8, StructTag::LogFile, vec![2]));
        assert_eq!(dev.read(8), Some(&[2u8][..]));
        assert_eq!(dev.len(), 1);
    }

    #[test]
    fn sync_cache_is_stateless() {
        let mut dev = BlockDev::new();
        let d0 = dev.digest();
        dev.apply(&BlockOp::SyncCache);
        assert_eq!(dev.digest(), d0);
        assert!(dev.is_empty());
    }

    #[test]
    fn tags_classify_and_name() {
        assert!(StructTag::Inode("f".into()).is_meta());
        assert!(!StructTag::FileContent("f".into()).is_meta());
        assert_eq!(StructTag::DirEntry("d".into()).object(), Some("d"));
        assert_eq!(StructTag::AllocMap.object(), None);
        assert_eq!(
            BlockOp::write(2297128, StructTag::LogFile, vec![]).to_string(),
            "scsi_write(LBA: 2297128, log file)"
        );
    }

    #[test]
    fn atomic_groups_recorded() {
        let w = BlockOp::write_in_group(4, StructTag::AllocMap, vec![1], 7);
        assert_eq!(w.atomic_group(), Some(7));
        assert_eq!(BlockOp::SyncCache.atomic_group(), None);
    }

    #[test]
    fn fork_is_independent_and_digest_memo_is_safe() {
        let mut a = BlockDev::new();
        a.apply(&BlockOp::write(1, StructTag::LogFile, vec![1]));
        let d0 = a.digest();
        let fork = a.fork();
        assert_eq!(fork.digest(), d0);
        a.apply(&BlockOp::write(1, StructTag::LogFile, vec![2]));
        assert_ne!(a.digest(), d0);
        assert_eq!(fork.digest(), d0);
        assert_eq!(fork.read(1), Some(&[1u8][..]));
        assert_eq!(a.deep_clone(), a);
    }

    #[test]
    fn digests_differ_on_content() {
        let mut a = BlockDev::new();
        let mut b = BlockDev::new();
        a.apply(&BlockOp::write(1, StructTag::LogFile, vec![1]));
        b.apply(&BlockOp::write(1, StructTag::LogFile, vec![2]));
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a, b);
    }
}
