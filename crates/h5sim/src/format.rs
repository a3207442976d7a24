//! The byte-level file format and its checker (≈ `h5check`).
//!
//! Layout (all integers little-endian, all structures at fixed sizes):
//!
//! ```text
//! SUPERBLOCK @0, 96 B : "H5SB" ver:u8 status:u8 pad:2
//!                        root_oh:u64 eof:u64
//! OHDR (object header), 64 B:
//!   "OHDR" kind:u8 pad:3
//!   group:   btree:u64 heap:u64
//!   dataset: rows:u64 cols:u64 dtree:u64
//! TREE (group B-tree node), 160 B:
//!   "TREE" n:u16 pad:2  snod_addr:u64 × ≤8
//! SNOD (symbol-table node), 272 B:
//!   "SNOD" n:u16 pad:2  (name_off:u64 oh_addr:u64) × ≤16
//! HEAP (local name heap), 512 B:
//!   "HEAP" used:u16 pad:2  then (len:u16 bytes) records at offsets
//! DTRE (dataset chunk B-tree node), 1600 B:
//!   "DTRE" leaf:u8 n:u16 pad:1  (addr:u64 len:u64) × ≤96
//! data segments: raw bytes, SEG = 64 KiB each
//! ```
//!
//! `check` walks superblock → root group → groups → datasets →
//! segments, validating every signature and address bound. Its error
//! vocabulary deliberately mirrors the failures the paper reports:
//! *address overflow* (bug 13), *wrong B-tree signature* (bug 14),
//! *cannot open the file* (bug 15).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Fixed structure sizes (bytes).
pub mod sizes {
    /// Superblock length.
    pub const SUPERBLOCK: u64 = 96;
    /// Object header length.
    pub const OHDR: u64 = 64;
    /// Group B-tree node length.
    pub const TREE: u64 = 160;
    /// Symbol-table node length.
    pub const SNOD: u64 = 272;
    /// Local heap length.
    pub const HEAP: u64 = 512;
    /// Dataset chunk B-tree node length.
    pub const DTRE: u64 = 1600;
    /// Data segment length.
    pub const SEG: u64 = 64 * 1024;
    /// Max group B-tree fan-out.
    pub const TREE_CAP: usize = 8;
    /// Max symbol-table entries.
    pub const SNOD_CAP: usize = 16;
    /// Max dataset B-tree entries per node (leaf split threshold —
    /// chosen so the paper's 800×800 dataset fits in one leaf and
    /// 1000×1000 does not, reproducing the bug-14 sensitivity).
    pub const DTRE_CAP: usize = 96;
    /// Element size (f64, as in the paper's h5py datasets).
    pub const ELEM: u64 = 8;
}

/// Object kinds in an `OHDR`.
pub const KIND_GROUP: u8 = 1;
/// Dataset object kind.
pub const KIND_DATASET: u8 = 2;

/// Failures `check` can report.
///
/// Fields carry the failing structure's name, file offset, found
/// signature bytes and the superblock EOF where relevant.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum H5Error {
    /// The file is shorter than a structure it must contain.
    Truncated { what: &'static str, addr: u64 },
    /// A structure's magic signature is wrong (bug 14's "wrong B-tree
    /// signature").
    BadSignature {
        what: &'static str,
        addr: u64,
        found: [u8; 4],
    },
    /// An address points at or beyond the superblock's end-of-file
    /// (bug 13's "addr overflow").
    AddrOverflow {
        what: &'static str,
        addr: u64,
        eof: u64,
    },
    /// A name offset does not decode inside the local heap.
    BadHeapName { group: String, offset: u64 },
    /// The superblock itself is unreadable → the file cannot be opened
    /// at all (bug 15's consequence).
    CannotOpen { reason: String },
}

impl fmt::Display for H5Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            H5Error::Truncated { what, addr } => {
                write!(f, "h5check: {what} at {addr:#x} past end of file")
            }
            H5Error::BadSignature { what, addr, found } => write!(
                f,
                "h5check: wrong {what} signature at {addr:#x} (found {:?})",
                String::from_utf8_lossy(found)
            ),
            H5Error::AddrOverflow { what, addr, eof } => {
                write!(
                    f,
                    "h5check: {what} address {addr:#x} overflows eof {eof:#x}"
                )
            }
            H5Error::BadHeapName { group, offset } => {
                write!(f, "h5check: bad heap name offset {offset} in group {group}")
            }
            H5Error::CannotOpen { reason } => write!(f, "h5check: cannot open file: {reason}"),
        }
    }
}

impl std::error::Error for H5Error {}

/// The logical content of a structurally-valid file: what an application
/// (or the golden-master comparison) actually observes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct H5Logical {
    /// group name → dataset names.
    pub groups: BTreeMap<String, BTreeSet<String>>,
    /// "group/dataset" → (rows, cols, content digest).
    pub datasets: BTreeMap<String, (u64, u64, u64)>,
}

/// Canonical "group/dataset" key ("/" joins as "/name", not "//name").
pub fn dataset_key(group: &str, name: &str) -> String {
    if group == "/" {
        format!("/{name}")
    } else {
        format!("{group}/{name}")
    }
}

impl H5Logical {
    /// `true` if a dataset exists.
    pub fn has_dataset(&self, group: &str, name: &str) -> bool {
        self.datasets.contains_key(&dataset_key(group, name))
    }

    /// Digest for state dedup.
    pub fn digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.groups.hash(&mut h);
        self.datasets.hash(&mut h);
        h.finish()
    }
}

/// `len` bytes at `at`, if the image holds them.
fn bytes_at(b: &[u8], at: u64, len: u64) -> Option<&[u8]> {
    b.get(usize::try_from(at).ok()?..usize::try_from(at.checked_add(len)?).ok()?)
}

fn rd_u8(b: &[u8], at: u64) -> Option<u8> {
    Some(bytes_at(b, at, 1)?[0])
}

fn rd_u16(b: &[u8], at: u64) -> Option<u16> {
    Some(u16::from_le_bytes(bytes_at(b, at, 2)?.try_into().ok()?))
}

fn rd_u64(b: &[u8], at: u64) -> Option<u64> {
    Some(u64::from_le_bytes(bytes_at(b, at, 8)?.try_into().ok()?))
}

fn truncated(what: &'static str, addr: u64) -> H5Error {
    H5Error::Truncated { what, addr }
}

fn bad_signature(what: &'static str, addr: u64, found: &[u8; 4]) -> H5Error {
    H5Error::BadSignature {
        what,
        addr,
        found: *found,
    }
}

fn expect_sig(
    b: &[u8],
    at: u64,
    magic: &[u8; 4],
    what: &'static str,
    eof: u64,
) -> Result<(), H5Error> {
    if at >= eof {
        return Err(H5Error::AddrOverflow {
            what,
            addr: at,
            eof,
        });
    }
    let found = bytes_at(b, at, 4).and_then(|sig| sig.try_into().ok());
    let found: &[u8; 4] = found.ok_or(truncated(what, at))?;
    if found != magic {
        return Err(bad_signature(what, at, found));
    }
    Ok(())
}

/// The entry count of the `magic` node `what` at `addr` (a `u16` at
/// `addr + at`), which holds at most `cap` entries.
fn entry_count(
    b: &[u8],
    (addr, at, cap): (u64, u64, usize),
    magic: &[u8; 4],
    (what, over): (&'static str, &'static str),
) -> Result<u64, H5Error> {
    let n = rd_u16(b, addr + at).ok_or(truncated(what, addr))?;
    if n as usize > cap {
        return Err(bad_signature(over, addr, magic));
    }
    Ok(n as u64)
}

/// The two `u64`s of the 16-byte node entry at `ea`.
fn entry(b: &[u8], ea: u64, what: &'static str) -> Result<(u64, u64), H5Error> {
    let entry = rd_u64(b, ea).zip(rd_u64(b, ea + 8));
    entry.ok_or(truncated(what, ea))
}

/// Read a heap-resident name: `len:u16` + bytes at `heap_addr + off`.
fn heap_name(b: &[u8], heap_addr: u64, off: u64, group: &str) -> Result<String, H5Error> {
    let err = || H5Error::BadHeapName {
        group: group.to_string(),
        offset: off,
    };
    if !(8..sizes::HEAP).contains(&off) {
        return Err(err());
    }
    let at = heap_addr + off;
    let len = rd_u16(b, at).ok_or_else(err)? as u64;
    if len == 0 || len > 255 || at + 2 + len > heap_addr + sizes::HEAP {
        return Err(err());
    }
    let raw = bytes_at(b, at + 2, len).ok_or_else(err)?;
    let s = std::str::from_utf8(raw).map_err(|_| err())?;
    if s.chars().any(|c| c.is_control()) {
        return Err(err());
    }
    Ok(s.to_string())
}

/// The data segments of one dataset, in file order, over the image that
/// holds them.
pub(crate) struct Segments<'a> {
    image: &'a [u8],
    parts: &'a [(u64, u64)],
}

impl Segments<'_> {
    /// Content digest. Hashes the byte *stream*, not the slices:
    /// `Hasher::write` calls concatenate (no length prefixes, unlike
    /// `Hash for [u8]`), so two files storing the same data in different
    /// segment layouts digest equally.
    fn digest(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for &(a, l) in self.parts {
            h.write(&self.image[a as usize..(a + l) as usize]);
        }
        h.finish()
    }
}

/// What [`walk`] reports of an image, in walk order. A fold implements
/// the callbacks it reads; the walk never asks it anything.
pub(crate) trait Visitor {
    /// A validated structure of `len` bytes at `addr`, named `"{what}
    /// {owner}"` by `h5inspect`; `is_data` for dataset data.
    fn structure(&mut self, _what: &str, _owner: &str, _addr: u64, _len: u64, _is_data: bool) {}
    /// A group whose B-tree and heap can be opened.
    fn group(&mut self, _name: &str) {}
    /// A symbol-table entry `name` of `group` (`key` is their
    /// [`dataset_key`]) that is not a group the walk descends into:
    /// `(rows, cols, data)` of a readable dataset, else why it is none.
    fn dataset(&mut self, _group: &str, _name: &str, _key: String, _found: Found<'_>) {}
    /// Part of `group`'s namespace is unreachable.
    fn group_error(&mut self, _group: &str, _e: H5Error) {}
}

/// What the walk found behind a dataset's symbol-table entry.
pub(crate) type Found<'a> = Result<(u64, u64, Segments<'a>), H5Error>;

/// The one reader of the layout: superblock → root group → groups →
/// datasets → segments, every signature, count and address checked
/// against `eof` and the image's length. It does not stop at an error:
/// it reports it, skips what the broken structure would have named and
/// carries on — real HDF5 applications open one dataset at a time, so
/// corruption of one dataset's structures does not make the others
/// unreadable (the baseline model's granularity: "if a … dataset was
/// closed before the crash, all updates to that dataset … were
/// preserved"). Returns the first error met, as `h5check` words it.
pub(crate) fn walk<V: Visitor>(bytes: &[u8], v: &mut V) -> Result<(), H5Error> {
    let cannot_open = |reason: String| Err(H5Error::CannotOpen { reason });
    if bytes.len() < sizes::SUPERBLOCK as usize {
        return cannot_open("file shorter than superblock".into());
    }
    if &bytes[0..4] != b"H5SB" {
        return cannot_open("superblock signature not found".into());
    }
    let (Some(root_oh), Some(eof)) = (rd_u64(bytes, 8), rd_u64(bytes, 16)) else {
        return cannot_open("superblock truncated".into());
    };
    let mut walk = Walk {
        b: bytes,
        eof,
        v,
        first: None,
    };
    walk.group("/", root_oh, 0);
    match walk.first {
        None => Ok(()),
        // A broken *root* object header means nothing in the file is
        // reachable — the NetCDF-style "cannot open" failure.
        Some(H5Error::BadSignature {
            what: "object header",
            addr,
            ..
        }) if addr == root_oh => cannot_open(format!("root object header unreadable at {addr:#x}")),
        Some(H5Error::AddrOverflow {
            what: "object header",
            addr,
            eof,
        }) if addr == root_oh => cannot_open(format!(
            "root object header at {addr:#x} beyond eof {eof:#x}"
        )),
        Some(e) => Err(e),
    }
}

struct Walk<'a, V> {
    b: &'a [u8],
    eof: u64,
    v: &'a mut V,
    first: Option<H5Error>,
}

impl<V: Visitor> Walk<'_, V> {
    fn note(&mut self, e: &H5Error) {
        if self.first.is_none() {
            self.first = Some(e.clone());
        }
    }

    fn fail(&mut self, group: &str, e: H5Error) {
        self.note(&e);
        self.v.group_error(group, e);
    }

    /// The group whose object header is at `oh`, `depth` groups below
    /// the root.
    fn group(&mut self, gname: &str, oh: u64, depth: usize) {
        let (b, eof) = (self.b, self.eof);
        let header = (|| {
            if depth > 4 {
                return Err(bad_signature("group object header (cycle)", oh, b"????"));
            }
            expect_sig(b, oh, b"OHDR", "object header", eof)?;
            if rd_u8(b, oh + 4).ok_or(truncated("object header", oh))? != KIND_GROUP {
                return Err(bad_signature("group object header (kind)", oh, b"OHDR"));
            }
            let links = rd_u64(b, oh + 8).zip(rd_u64(b, oh + 16));
            let (btree, heap) = links.ok_or(truncated("object header", oh))?;
            expect_sig(b, btree, b"TREE", "group B-tree node", eof)?;
            expect_sig(b, heap, b"HEAP", "local heap", eof)?;
            Ok((btree, heap))
        })();
        let (btree, heap) = match header {
            Ok(header) => header,
            Err(e) => return self.fail(gname, e),
        };
        for (what, addr, len) in [
            ("object header of", oh, sizes::OHDR),
            ("B-tree node of", btree, sizes::TREE),
            ("local heap of", heap, sizes::HEAP),
        ] {
            self.v.structure(what, gname, addr, len, false);
        }
        self.v.group(gname);
        let whats = ("group B-tree node", "group B-tree node (fan-out)");
        let nsnod = match entry_count(b, (btree, 4, sizes::TREE_CAP), b"TREE", whats) {
            Ok(n) => n,
            Err(e) => return self.fail(gname, e),
        };
        for s in 0..nsnod {
            let node = rd_u64(b, btree + 8 + s * 8).ok_or(truncated("group B-tree entry", btree));
            let node = node.and_then(|snod| {
                expect_sig(b, snod, b"SNOD", "symbol table node", eof)?;
                let whats = ("symbol table node", "symbol table node (entry count)");
                Ok((
                    snod,
                    entry_count(b, (snod, 4, sizes::SNOD_CAP), b"SNOD", whats)?,
                ))
            });
            let (snod, n) = match node {
                Ok(node) => node,
                Err(e) => {
                    self.fail(gname, e);
                    continue;
                }
            };
            self.v
                .structure("symbol table node of", gname, snod, sizes::SNOD, false);
            // Pass 1: decode the symbol-table entries. A lookup scans the
            // node sequentially, so one undecodable name record poisons
            // every lookup through this node ("cannot open an unmodified
            // dataset", Table 3 bugs 9-11).
            let mut decoded: Vec<(String, u64)> = Vec::new();
            let mut poison: Option<H5Error> = None;
            for i in 0..n {
                match entry(b, snod + 8 + i * 16, "symbol table entry") {
                    Ok((name_off, child_oh)) => match heap_name(b, heap, name_off, gname) {
                        Ok(name) => decoded.push((name, child_oh)),
                        Err(e) => {
                            poison = Some(e.clone());
                            self.fail(gname, e);
                        }
                    },
                    // The image ends here: so do the entries.
                    Err(e) => {
                        self.fail(gname, e);
                        break;
                    }
                }
            }
            for (name, child_oh) in decoded {
                let kind = expect_sig(b, child_oh, b"OHDR", "object header", eof).and_then(|()| {
                    rd_u8(b, child_oh + 4).ok_or(truncated("object header", child_oh))
                });
                if poison.is_none() && kind == Ok(KIND_GROUP) {
                    self.group(&name, child_oh, depth + 1);
                    continue;
                }
                let key = dataset_key(gname, &name);
                let mut parts = Vec::new();
                let found = match &poison {
                    Some(poison) => Err(poison.clone()),
                    None => kind.and_then(|kind| self.dataset(&key, child_oh, kind, &mut parts)),
                };
                if let Err(e) = &found {
                    self.note(e);
                }
                let data = Segments {
                    image: b,
                    parts: &parts,
                };
                let found = found.map(|(rows, cols)| (rows, cols, data));
                self.v.dataset(gname, &name, key, found);
            }
        }
    }

    /// The dataset `key` whose object header (of `kind`) is at `oh`:
    /// its dimensions, and its data segments into `parts`.
    fn dataset(
        &mut self,
        key: &str,
        oh: u64,
        kind: u8,
        parts: &mut Vec<(u64, u64)>,
    ) -> Result<(u64, u64), H5Error> {
        if kind != KIND_DATASET {
            return Err(bad_signature("object header (kind)", oh, b"OHDR"));
        }
        let b = self.b;
        let field = |at| rd_u64(b, oh + at).ok_or(truncated("dataset object header", oh));
        let (rows, cols, dtree) = (field(8)?, field(16)?, field(24)?);
        self.v
            .structure("object header of dataset", key, oh, sizes::OHDR, false);
        self.dtree(key, dtree, 0, parts)?;
        let have: u64 = parts.iter().map(|part| part.1).sum();
        if have < rows.saturating_mul(cols).saturating_mul(sizes::ELEM) {
            return Err(truncated("dataset data", dtree));
        }
        Ok((rows, cols))
    }

    /// One node of a dataset chunk B-tree, collecting `(addr, len)` data
    /// segments.
    fn dtree(
        &mut self,
        key: &str,
        addr: u64,
        depth: usize,
        parts: &mut Vec<(u64, u64)>,
    ) -> Result<(), H5Error> {
        let (b, eof) = (self.b, self.eof);
        if depth > 4 {
            return Err(bad_signature("dataset B-tree (cycle)", addr, b"????"));
        }
        expect_sig(b, addr, b"DTRE", "dataset B-tree node", eof)?;
        let leaf = rd_u8(b, addr + 4).ok_or(truncated("dataset B-tree node", addr))?;
        let whats = ("dataset B-tree node", "dataset B-tree node (entry count)");
        let n = entry_count(b, (addr, 5, sizes::DTRE_CAP), b"DTRE", whats)?;
        self.v
            .structure("B-tree node of dataset", key, addr, sizes::DTRE, false);
        for i in 0..n {
            let (a, l) = entry(b, addr + 8 + i * 16, "dataset B-tree entry")?;
            if leaf != 1 {
                self.dtree(key, a, depth + 1, parts)?;
                continue;
            }
            if a.saturating_add(l) > eof {
                return Err(H5Error::AddrOverflow {
                    what: "data segment",
                    addr: a.saturating_add(l),
                    eof,
                });
            }
            if bytes_at(b, a, l).is_none() {
                return Err(truncated("data segment", a));
            }
            self.v.structure("data chunks of", key, a, l, true);
            parts.push((a, l));
        }
        Ok(())
    }
}

/// `h5check`: validate a file image and extract its logical state — the
/// first error of the walk, else everything it reported.
pub fn check(bytes: &[u8]) -> Result<H5Logical, H5Error> {
    let mut report = LenientReport::default();
    walk(bytes, &mut report)?;
    Ok(report.into_logical().expect("no error met, none reported"))
}

/// Per-dataset results of the walk: what it reported, errors included.
#[derive(Debug, Clone, Default)]
pub struct LenientReport {
    /// Fatal error opening the file at all (superblock / root group).
    pub open_error: Option<H5Error>,
    /// group → dataset names reachable.
    pub groups: BTreeMap<String, BTreeSet<String>>,
    /// "group/dataset" → per-dataset outcome.
    pub datasets: BTreeMap<String, Result<(u64, u64, u64), H5Error>>,
    /// Errors that made part of the namespace unreachable (broken
    /// B-tree / heap / symbol-table of some group).
    pub group_errors: Vec<(String, H5Error)>,
}

impl LenientReport {
    /// `true` if the walk met no error.
    pub fn is_clean(&self) -> bool {
        self.open_error.is_none()
            && self.group_errors.is_empty()
            && self.datasets.values().all(Result::is_ok)
    }

    /// What [`check`] returns for the same image: the logical state of
    /// a clean report, else `None`.
    pub fn into_logical(self) -> Option<H5Logical> {
        self.is_clean().then(|| H5Logical {
            groups: self.groups,
            datasets: (self.datasets.into_iter())
                .filter_map(|(key, found)| Some((key, found.ok()?)))
                .collect(),
        })
    }
}

impl Visitor for LenientReport {
    fn group(&mut self, name: &str) {
        self.groups.entry(name.to_string()).or_default();
    }

    fn dataset(&mut self, group: &str, name: &str, key: String, found: Found<'_>) {
        let names = self.groups.entry(group.to_string()).or_default();
        names.insert(name.to_string());
        let found = found.map(|(rows, cols, data)| (rows, cols, data.digest()));
        self.datasets.insert(key, found);
    }

    fn group_error(&mut self, group: &str, e: H5Error) {
        self.group_errors.push((group.to_string(), e));
    }
}

/// Lenient `h5check`: collect per-dataset outcomes instead of failing
/// on the first corruption.
pub fn check_lenient(bytes: &[u8]) -> LenientReport {
    let mut out = LenientReport::default();
    if let Err(e) = walk(bytes, &mut out) {
        // No superblock, or a broken root group: the file cannot be
        // opened at all.
        if out.groups.is_empty() {
            out.open_error = Some(match out.group_errors.first() {
                Some((_, root)) => H5Error::CannotOpen {
                    reason: root.to_string(),
                },
                None => e,
            });
        }
    }
    out
}

/// The superblock encoder (used by the library runtime).
pub mod superblock {
    use super::sizes;

    /// Serialize a superblock.
    pub fn encode(root_oh: u64, eof: u64, status: u8) -> Vec<u8> {
        let mut b = vec![0u8; sizes::SUPERBLOCK as usize];
        b[0..4].copy_from_slice(b"H5SB");
        b[4] = 1; // version
        b[5] = status;
        b[8..16].copy_from_slice(&root_oh.to_le_bytes());
        b[16..24].copy_from_slice(&eof.to_le_bytes());
        b
    }
}

/// Encoders for each structure (used by the library runtime).
pub mod encode {
    use super::sizes;

    /// Group object header.
    pub fn group_ohdr(btree: u64, heap: u64) -> Vec<u8> {
        let mut b = vec![0u8; sizes::OHDR as usize];
        b[0..4].copy_from_slice(b"OHDR");
        b[4] = super::KIND_GROUP;
        b[8..16].copy_from_slice(&btree.to_le_bytes());
        b[16..24].copy_from_slice(&heap.to_le_bytes());
        b
    }

    /// Dataset object header.
    pub fn dataset_ohdr(rows: u64, cols: u64, dtree: u64) -> Vec<u8> {
        let mut b = vec![0u8; sizes::OHDR as usize];
        b[0..4].copy_from_slice(b"OHDR");
        b[4] = super::KIND_DATASET;
        b[8..16].copy_from_slice(&rows.to_le_bytes());
        b[16..24].copy_from_slice(&cols.to_le_bytes());
        b[24..32].copy_from_slice(&dtree.to_le_bytes());
        b
    }

    /// Group B-tree node over symbol-table node addresses.
    pub fn tree(snods: &[u64]) -> Vec<u8> {
        assert!(snods.len() <= sizes::TREE_CAP);
        let mut b = vec![0u8; sizes::TREE as usize];
        b[0..4].copy_from_slice(b"TREE");
        b[4..6].copy_from_slice(&(snods.len() as u16).to_le_bytes());
        for (i, s) in snods.iter().enumerate() {
            let at = 8 + i * 8;
            b[at..at + 8].copy_from_slice(&s.to_le_bytes());
        }
        b
    }

    /// Symbol-table node over `(name_offset, object_header)` entries.
    pub fn snod(entries: &[(u64, u64)]) -> Vec<u8> {
        assert!(entries.len() <= sizes::SNOD_CAP);
        let mut b = vec![0u8; sizes::SNOD as usize];
        b[0..4].copy_from_slice(b"SNOD");
        b[4..6].copy_from_slice(&(entries.len() as u16).to_le_bytes());
        for (i, (off, oh)) in entries.iter().enumerate() {
            let at = 8 + i * 16;
            b[at..at + 8].copy_from_slice(&off.to_le_bytes());
            b[at + 8..at + 16].copy_from_slice(&oh.to_le_bytes());
        }
        b
    }

    /// Local heap with `(offset, name)` records (offsets relative to the
    /// heap start; record = len:u16 + bytes).
    pub fn heap(names: &[(u64, String)]) -> Vec<u8> {
        let mut b = vec![0u8; sizes::HEAP as usize];
        b[0..4].copy_from_slice(b"HEAP");
        let mut used = 8u64;
        for (off, name) in names {
            let at = *off as usize;
            assert!(at + 2 + name.len() <= sizes::HEAP as usize, "heap overflow");
            b[at..at + 2].copy_from_slice(&(name.len() as u16).to_le_bytes());
            b[at + 2..at + 2 + name.len()].copy_from_slice(name.as_bytes());
            used = used.max(*off + 2 + name.len() as u64);
        }
        b[4..6].copy_from_slice(&(used as u16).to_le_bytes());
        b
    }

    /// Dataset chunk B-tree node.
    pub fn dtree(leaf: bool, entries: &[(u64, u64)]) -> Vec<u8> {
        assert!(entries.len() <= sizes::DTRE_CAP);
        let mut b = vec![0u8; sizes::DTRE as usize];
        b[0..4].copy_from_slice(b"DTRE");
        b[4] = u8::from(leaf);
        b[5..7].copy_from_slice(&(entries.len() as u16).to_le_bytes());
        for (i, (a, l)) in entries.iter().enumerate() {
            let at = 8 + i * 16;
            b[at..at + 8].copy_from_slice(&a.to_le_bytes());
            b[at + 8..at + 16].copy_from_slice(&l.to_le_bytes());
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-assemble a minimal valid file: root group with one dataset.
    fn minimal_file() -> Vec<u8> {
        let mut img = Vec::new();
        let sb_end = sizes::SUPERBLOCK;
        let root_oh = sb_end;
        let tree = root_oh + sizes::OHDR;
        let heap = tree + sizes::TREE;
        let snod = heap + sizes::HEAP;
        let ds_oh = snod + sizes::SNOD;
        let dtree = ds_oh + sizes::OHDR;
        let data = dtree + sizes::DTRE;
        let dlen = 2 * 2 * sizes::ELEM;
        let eof = data + dlen;
        img.extend_from_slice(&superblock::encode(root_oh, eof, 0));
        img.extend_from_slice(&encode::group_ohdr(tree, heap));
        img.extend_from_slice(&encode::tree(&[snod]));
        img.extend_from_slice(&encode::heap(&[(8, "d1".into())]));
        img.extend_from_slice(&encode::snod(&[(8, ds_oh)]));
        img.extend_from_slice(&encode::dataset_ohdr(2, 2, dtree));
        img.extend_from_slice(&encode::dtree(true, &[(data, dlen)]));
        img.extend_from_slice(&vec![7u8; dlen as usize]);
        img
    }

    #[test]
    fn minimal_file_checks_clean() {
        let img = minimal_file();
        let logical = check(&img).expect("valid file");
        assert!(logical.has_dataset("/", "d1"));
        assert_eq!(logical.datasets["/d1"].0, 2);
    }

    #[test]
    fn corrupt_superblock_cannot_open() {
        let mut img = minimal_file();
        img[0] = b'X';
        assert!(matches!(check(&img), Err(H5Error::CannotOpen { .. })));
    }

    #[test]
    fn zeroed_tree_is_bad_signature() {
        let mut img = minimal_file();
        let tree = (sizes::SUPERBLOCK + sizes::OHDR) as usize;
        for b in &mut img[tree..tree + 4] {
            *b = 0;
        }
        assert!(matches!(
            check(&img),
            Err(H5Error::BadSignature {
                what: "group B-tree node",
                ..
            })
        ));
    }

    #[test]
    fn eof_before_data_is_addr_overflow() {
        let mut img = minimal_file();
        // Shrink the superblock EOF below the data segment end.
        let short_eof = (img.len() as u64) - 8;
        img[16..24].copy_from_slice(&short_eof.to_le_bytes());
        assert!(matches!(check(&img), Err(H5Error::AddrOverflow { .. })));
    }

    #[test]
    fn dangling_heap_name_detected() {
        let mut img = minimal_file();
        // Zero the heap record that holds "d1".
        let heap = (sizes::SUPERBLOCK + sizes::OHDR + sizes::TREE) as usize;
        for b in &mut img[heap + 8..heap + 12] {
            *b = 0;
        }
        assert!(matches!(check(&img), Err(H5Error::BadHeapName { .. })));
    }

    #[test]
    fn digest_tracks_content() {
        let img = minimal_file();
        let l1 = check(&img).unwrap();
        let mut img2 = img.clone();
        let last = img2.len() - 1;
        img2[last] ^= 0xff;
        let l2 = check(&img2).unwrap();
        assert_ne!(l1.datasets["/d1"].2, l2.datasets["/d1"].2);
        assert_ne!(l1.digest(), l2.digest());
    }

    /// Break the dataset's B-tree: strict fails, lenient isolates the
    /// failure to that dataset.
    #[test]
    fn lenient_walk_isolates_a_broken_dataset() {
        let mut broken = minimal_file();
        let dtree = (sizes::SUPERBLOCK
            + sizes::OHDR
            + sizes::TREE
            + sizes::HEAP
            + sizes::SNOD
            + sizes::OHDR) as usize;
        for b in &mut broken[dtree..dtree + 4] {
            *b = 0;
        }
        assert!(check(&broken).is_err());
        let lenient = check_lenient(&broken);
        assert!(lenient.open_error.is_none());
        assert!(matches!(lenient.datasets.get("/d1"), Some(Err(_))));
    }

    #[test]
    fn truncated_file_reports_truncation() {
        let img = minimal_file();
        let cut = &img[..img.len() - 4];
        assert!(matches!(
            check(cut),
            Err(H5Error::Truncated { .. }) | Err(H5Error::AddrOverflow { .. })
        ));
    }
}
