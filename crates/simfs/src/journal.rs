//! Journaling modes and the intra-file-system persistence ordering rule.
//!
//! This is the local-FS half of **Algorithm 2** in the paper
//! (`persists_before`). Operations executed on the *same* local file system
//! are ordered on persistent storage according to the journaling mode of
//! that file system:
//!
//! * **data journaling** — every update (data and metadata) is journaled, so
//!   updates persist exactly in their execution (happens-before) order. The
//!   paper's evaluation runs ext4 in this, its safest, mode.
//! * **ordered** (ext4 default) — metadata updates persist in order, and the
//!   data blocks a metadata update references are flushed before the
//!   metadata commits; independent data writes may reorder freely.
//! * **writeback** — only metadata updates are ordered; data writes may
//!   persist in any order relative to everything else.
//! * **none** — nothing is ordered except by explicit commits (`fsync`);
//!   also used to model local file systems such as Btrfs that may reorder
//!   directory operations (Figure 2 case ③).
//!
//! Cross-file-system ordering (the `else` branch of Algorithm 2: an `fsync`
//! that happened between the two operations) is implemented in the
//! `paracrash` crate, which owns the full causality graph.

use crate::ops::{FsOp, OpClass};
use pc_rt::hash::{fnv1a_fold, FNV_OFFSET_BASIS};

/// Journaling mode of one local file system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JournalMode {
    /// Everything persists in execution order (`data=journal`).
    #[default]
    Data,
    /// Metadata ordered; data ordered only relative to metadata that
    /// references the same file (`data=ordered`).
    Ordered,
    /// Only metadata ordered (`data=writeback`).
    Writeback,
    /// No ordering at all without explicit commits (models FSs that can
    /// reorder even directory operations).
    None,
}

impl JournalMode {
    /// Parse the mount-option spelling used in configuration files.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "data" | "journal" | "data=journal" => Some(JournalMode::Data),
            "ordered" | "data=ordered" => Some(JournalMode::Ordered),
            "writeback" | "data=writeback" => Some(JournalMode::Writeback),
            "none" => Some(JournalMode::None),
            _ => None,
        }
    }

    /// Mount-option spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            JournalMode::Data => "data=journal",
            JournalMode::Ordered => "data=ordered",
            JournalMode::Writeback => "data=writeback",
            JournalMode::None => "none",
        }
    }
}

/// Same-local-FS persistence rule of Algorithm 2.
///
/// Given two *update* operations `op1`, `op2` executed on the same local
/// file system and the fact `hb12 = happens_before(op1, op2)`, decide
/// whether the journal guarantees `op1` is persisted no later than `op2`.
///
/// Sync operations never participate (they impose ordering through the
/// cross-FS commit rule instead).
pub fn same_fs_persists_before(mode: JournalMode, op1: &FsOp, op2: &FsOp, hb12: bool) -> bool {
    if !hb12 || op1.is_sync() || op2.is_sync() {
        return false;
    }
    match mode {
        JournalMode::Data => true,
        JournalMode::Ordered => match (op1.class(), op2.class()) {
            (OpClass::Meta, OpClass::Meta) => true,
            // Data blocks are flushed before a later metadata commit that
            // references the same file.
            (OpClass::Data, OpClass::Meta) => op1.touches_same_file(op2),
            _ => false,
        },
        JournalMode::Writeback => op1.is_meta() && op2.is_meta(),
        JournalMode::None => false,
    }
}

/// A journal commit record with an end-to-end checksum, as ext4/jbd2
/// writes at the end of every transaction.
///
/// The record stores a digest of the data blocks the transaction
/// covers; recovery replays a transaction only if recomputing the
/// digest over what actually reached the disk matches. This is the
/// mechanism that makes *data journaling* torn-write-proof: a crash in
/// the middle of the journal write leaves a record whose checksum
/// fails, and replay discards the whole transaction instead of
/// exposing a partial write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    /// Transaction sequence number.
    pub seq: u64,
    /// Number of payload bytes the transaction covers.
    pub len: u64,
    /// Digest of the covered payload bytes.
    pub payload_digest: u64,
    /// Checksum over the record fields themselves.
    pub checksum: u64,
}

/// The cheap stable FNV-1a-shaped digest used for commit records. The
/// multiplier is two hex digits longer than `FNV_PRIME`; it is the one
/// every commit-record checksum was written with, so it stays.
fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET_BASIS, bytes, 0x1_0000_0000_01B3)
}

impl CommitRecord {
    /// Size of an encoded record in bytes.
    pub const ENCODED_LEN: usize = 32;

    /// Build the record a journal commit writes for `payload`.
    pub fn new(seq: u64, payload: &[u8]) -> CommitRecord {
        let payload_digest = fnv1a(payload);
        CommitRecord {
            seq,
            len: payload.len() as u64,
            payload_digest,
            checksum: Self::mix(seq, payload.len() as u64, payload_digest),
        }
    }

    fn mix(seq: u64, len: u64, digest: u64) -> u64 {
        fnv1a(&[seq.to_le_bytes(), len.to_le_bytes(), digest.to_le_bytes()].concat())
    }

    /// `true` if the record's own checksum is intact.
    pub fn is_intact(&self) -> bool {
        self.checksum == Self::mix(self.seq, self.len, self.payload_digest)
    }

    /// `true` if the record is intact *and* covers exactly the bytes
    /// that reached the disk — the recovery-time replay gate.
    pub fn validates(&self, on_disk: &[u8]) -> bool {
        self.is_intact()
            && self.len == on_disk.len() as u64
            && self.payload_digest == fnv1a(on_disk)
    }

    /// Serialize (little-endian field order).
    pub fn encode(&self) -> [u8; Self::ENCODED_LEN] {
        let mut out = [0u8; Self::ENCODED_LEN];
        out[0..8].copy_from_slice(&self.seq.to_le_bytes());
        out[8..16].copy_from_slice(&self.len.to_le_bytes());
        out[16..24].copy_from_slice(&self.payload_digest.to_le_bytes());
        out[24..32].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// Deserialize; `None` if `bytes` is not a whole record (e.g. the
    /// record itself was torn).
    pub fn decode(bytes: &[u8]) -> Option<CommitRecord> {
        if bytes.len() != Self::ENCODED_LEN {
            return None;
        }
        let f = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        Some(CommitRecord {
            seq: f(0),
            len: f(8),
            payload_digest: f(16),
            checksum: f(24),
        })
    }
}

/// Disposition of a *crash-victim* write under torn-write injection:
/// what, if anything, of `op` reaches the disk when the crash hits
/// after `keep` payload bytes.
///
/// * Metadata operations are single-block and atomic on every mode —
///   nothing partial can persist, so the op stays a plain victim
///   (`None`).
/// * Multi-byte data writes tear: the first `keep` bytes persist
///   (`Some(truncated op)`) — **except** under data journaling, where
///   the torn transaction's [`CommitRecord`] fails validation and
///   recovery discards the whole write (`None`).
pub fn torn_write(mode: JournalMode, op: &FsOp, keep: usize) -> Option<FsOp> {
    match op {
        FsOp::Pwrite { path, offset, data } if data.len() >= 2 => {
            let keep = keep.clamp(1, data.len() - 1);
            if journaled_data_survives_torn(mode, data, keep) {
                Some(FsOp::Pwrite {
                    path: path.clone(),
                    offset: *offset,
                    data: data[..keep].to_vec(),
                })
            } else {
                None
            }
        }
        FsOp::Append { path, data } if data.len() >= 2 => {
            let keep = keep.clamp(1, data.len() - 1);
            if journaled_data_survives_torn(mode, data, keep) {
                Some(FsOp::Append {
                    path: path.clone(),
                    data: data[..keep].to_vec(),
                })
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Whether a torn data write survives to the main file area: under
/// `data=journal` the commit record's checksum catches the tear and
/// replay drops the transaction; the other modes write data in place,
/// so the prefix is simply there after the crash.
fn journaled_data_survives_torn(mode: JournalMode, full: &[u8], keep: usize) -> bool {
    match mode {
        JournalMode::Data => {
            let record = CommitRecord::new(0, full);
            // The tear hit the journal: only `keep` bytes of the
            // transaction's data made it. Validation must fail — which
            // is exactly why the op is discarded.
            debug_assert!(!record.validates(&full[..keep]));
            record.validates(&full[..keep])
        }
        JournalMode::Ordered | JournalMode::Writeback | JournalMode::None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(path: &str) -> FsOp {
        FsOp::Append {
            path: path.into(),
            data: vec![0],
        }
    }

    fn meta(path: &str) -> FsOp {
        FsOp::Creat { path: path.into() }
    }

    #[test]
    fn data_journal_orders_everything_in_hb() {
        let (a, b) = (data("/x"), meta("/y"));
        assert!(same_fs_persists_before(JournalMode::Data, &a, &b, true));
        assert!(same_fs_persists_before(JournalMode::Data, &b, &a, true));
        assert!(!same_fs_persists_before(JournalMode::Data, &a, &b, false));
    }

    #[test]
    fn writeback_orders_only_metadata() {
        let (d1, d2) = (data("/x"), data("/y"));
        let (m1, m2) = (meta("/x"), meta("/y"));
        assert!(same_fs_persists_before(
            JournalMode::Writeback,
            &m1,
            &m2,
            true
        ));
        assert!(!same_fs_persists_before(
            JournalMode::Writeback,
            &d1,
            &d2,
            true
        ));
        assert!(!same_fs_persists_before(
            JournalMode::Writeback,
            &d1,
            &m2,
            true
        ));
        assert!(!same_fs_persists_before(
            JournalMode::Writeback,
            &m1,
            &d2,
            true
        ));
    }

    #[test]
    fn ordered_flushes_data_before_same_file_metadata() {
        let d = data("/f");
        let m_same = FsOp::Truncate {
            path: "/f".into(),
            size: 0,
        };
        let m_other = meta("/g");
        assert!(same_fs_persists_before(
            JournalMode::Ordered,
            &d,
            &m_same,
            true
        ));
        assert!(!same_fs_persists_before(
            JournalMode::Ordered,
            &d,
            &m_other,
            true
        ));
        assert!(same_fs_persists_before(
            JournalMode::Ordered,
            &m_other,
            &m_same,
            true
        ));
        assert!(!same_fs_persists_before(
            JournalMode::Ordered,
            &m_same,
            &d,
            true
        ));
        assert!(!same_fs_persists_before(
            JournalMode::Ordered,
            &data("/f"),
            &data("/f"),
            true
        ));
    }

    #[test]
    fn none_orders_nothing() {
        let (m1, m2) = (meta("/x"), meta("/y"));
        assert!(!same_fs_persists_before(JournalMode::None, &m1, &m2, true));
    }

    #[test]
    fn sync_ops_do_not_participate() {
        let s = FsOp::Fsync { path: "/f".into() };
        let m = meta("/f");
        assert!(!same_fs_persists_before(JournalMode::Data, &s, &m, true));
        assert!(!same_fs_persists_before(JournalMode::Data, &m, &s, true));
    }

    #[test]
    fn commit_record_round_trips_and_validates() {
        let payload = b"journal transaction payload bytes";
        let rec = CommitRecord::new(7, payload);
        assert!(rec.is_intact());
        assert!(rec.validates(payload));
        let decoded = CommitRecord::decode(&rec.encode()).unwrap();
        assert_eq!(decoded, rec);
        assert!(CommitRecord::decode(&rec.encode()[..16]).is_none());
    }

    #[test]
    fn commit_record_rejects_torn_payloads_and_bit_flips() {
        let payload = b"0123456789abcdef";
        let rec = CommitRecord::new(1, payload);
        // Torn data: any strict prefix fails validation.
        for keep in 1..payload.len() {
            assert!(!rec.validates(&payload[..keep]), "prefix {keep} validated");
        }
        // Same length, different content.
        assert!(!rec.validates(b"0123456789abcdeX"));
        // A corrupted record field breaks the record's own checksum.
        let mut bytes = rec.encode();
        bytes[3] ^= 0x40;
        let corrupt = CommitRecord::decode(&bytes).unwrap();
        assert!(!corrupt.is_intact());
        assert!(!corrupt.validates(payload));
    }

    #[test]
    fn torn_writes_tear_except_under_data_journaling() {
        let w = FsOp::Pwrite {
            path: "/f".into(),
            offset: 4,
            data: vec![1, 2, 3, 4, 5, 6],
        };
        // data=journal: checksum-invalid commit record -> whole op gone.
        assert_eq!(torn_write(JournalMode::Data, &w, 3), None);
        // The in-place modes expose the prefix.
        for mode in [
            JournalMode::Ordered,
            JournalMode::Writeback,
            JournalMode::None,
        ] {
            match torn_write(mode, &w, 3) {
                Some(FsOp::Pwrite { offset, data, .. }) => {
                    assert_eq!(offset, 4);
                    assert_eq!(data, vec![1, 2, 3]);
                }
                other => panic!("{mode:?}: expected torn pwrite, got {other:?}"),
            }
        }
        // keep is clamped into 1..len: a torn write is never empty and
        // never the full write.
        match torn_write(JournalMode::None, &w, 100) {
            Some(FsOp::Pwrite { data, .. }) => assert_eq!(data.len(), 5),
            other => panic!("expected clamped torn pwrite, got {other:?}"),
        }
        // Appends tear the same way.
        let a = FsOp::Append {
            path: "/f".into(),
            data: vec![9, 8, 7],
        };
        assert!(matches!(
            torn_write(JournalMode::Ordered, &a, 1),
            Some(FsOp::Append { data, .. }) if data == vec![9]
        ));
        assert_eq!(torn_write(JournalMode::Data, &a, 1), None);
    }

    #[test]
    fn metadata_and_tiny_writes_never_tear() {
        let m = FsOp::Creat { path: "/f".into() };
        assert_eq!(torn_write(JournalMode::None, &m, 1), None);
        let tiny = FsOp::Pwrite {
            path: "/f".into(),
            offset: 0,
            data: vec![1],
        };
        assert_eq!(torn_write(JournalMode::None, &tiny, 1), None);
    }

    #[test]
    fn mode_parse_roundtrip() {
        for mode in [
            JournalMode::Data,
            JournalMode::Ordered,
            JournalMode::Writeback,
            JournalMode::None,
        ] {
            assert_eq!(JournalMode::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(JournalMode::parse("data"), Some(JournalMode::Data));
        assert_eq!(JournalMode::parse("bogus"), None);
    }
}
