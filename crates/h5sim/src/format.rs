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

fn rd_u16(b: &[u8], at: u64) -> Option<u16> {
    let at = at as usize;
    Some(u16::from_le_bytes(b.get(at..at + 2)?.try_into().ok()?))
}

fn rd_u64(b: &[u8], at: u64) -> Option<u64> {
    let at = at as usize;
    Some(u64::from_le_bytes(b.get(at..at + 8)?.try_into().ok()?))
}

fn sig(b: &[u8], at: u64) -> Option<[u8; 4]> {
    let at = at as usize;
    b.get(at..at + 4)?.try_into().ok()
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
    let found = sig(b, at).ok_or(H5Error::Truncated { what, addr: at })?;
    if &found != magic {
        return Err(H5Error::BadSignature {
            what,
            addr: at,
            found,
        });
    }
    Ok(())
}

/// Read a heap-resident name: `len:u16` + bytes at `heap_addr + off`.
fn heap_name(b: &[u8], heap_addr: u64, off: u64, group: &str) -> Result<String, H5Error> {
    let at = heap_addr + off;
    let err = || H5Error::BadHeapName {
        group: group.to_string(),
        offset: off,
    };
    if !(8..sizes::HEAP).contains(&off) {
        return Err(err());
    }
    let len = rd_u16(b, at).ok_or_else(err)? as u64;
    if len == 0 || len > 255 || at + 2 + len > heap_addr + sizes::HEAP {
        return Err(err());
    }
    let raw = &b[(at + 2) as usize..(at + 2 + len) as usize];
    let s = std::str::from_utf8(raw).map_err(|_| err())?;
    if s.chars().any(|c| c.is_control()) || s.is_empty() {
        return Err(err());
    }
    Ok(s.to_string())
}

/// Walk a dataset chunk B-tree, collecting `(addr, len)` data segments.
fn walk_dtree(
    b: &[u8],
    addr: u64,
    eof: u64,
    depth: usize,
    out: &mut Vec<(u64, u64)>,
) -> Result<(), H5Error> {
    if depth > 4 {
        return Err(H5Error::BadSignature {
            what: "dataset B-tree (cycle)",
            addr,
            found: *b"????",
        });
    }
    expect_sig(b, addr, b"DTRE", "dataset B-tree node", eof)?;
    let leaf = b[(addr + 4) as usize];
    let n = rd_u16(b, addr + 5).ok_or(H5Error::Truncated {
        what: "dataset B-tree node",
        addr,
    })? as usize;
    if n > sizes::DTRE_CAP {
        return Err(H5Error::BadSignature {
            what: "dataset B-tree node (entry count)",
            addr,
            found: *b"DTRE",
        });
    }
    for i in 0..n {
        let ea = addr + 8 + (i as u64) * 16;
        let a = rd_u64(b, ea).ok_or(H5Error::Truncated {
            what: "dataset B-tree entry",
            addr: ea,
        })?;
        let l = rd_u64(b, ea + 8).ok_or(H5Error::Truncated {
            what: "dataset B-tree entry",
            addr: ea,
        })?;
        if leaf == 1 {
            if a + l > eof {
                return Err(H5Error::AddrOverflow {
                    what: "data segment",
                    addr: a + l,
                    eof,
                });
            }
            if (a + l) as usize > b.len() {
                return Err(H5Error::Truncated {
                    what: "data segment",
                    addr: a,
                });
            }
            out.push((a, l));
        } else {
            walk_dtree(b, a, eof, depth + 1, out)?;
        }
    }
    Ok(())
}

fn digest_bytes(parts: &[(u64, u64)], b: &[u8]) -> u64 {
    use std::hash::Hasher;
    // Hash the byte *stream*, not the slices: `Hasher::write` calls
    // concatenate (no length prefixes, unlike `Hash for [u8]`), so two
    // files storing the same data in different segment layouts digest
    // equally.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for &(a, l) in parts {
        h.write(&b[a as usize..(a + l) as usize]);
    }
    h.finish()
}

/// Parse one group (object header at `oh`) into the logical state.
fn check_group(
    b: &[u8],
    gname: &str,
    oh: u64,
    eof: u64,
    logical: &mut H5Logical,
) -> Result<(), H5Error> {
    expect_sig(b, oh, b"OHDR", "object header", eof)?;
    let kind = b[(oh + 4) as usize];
    if kind != KIND_GROUP {
        return Err(H5Error::BadSignature {
            what: "group object header (kind)",
            addr: oh,
            found: *b"OHDR",
        });
    }
    let btree = rd_u64(b, oh + 8).ok_or(H5Error::Truncated {
        what: "object header",
        addr: oh,
    })?;
    let heap = rd_u64(b, oh + 16).ok_or(H5Error::Truncated {
        what: "object header",
        addr: oh,
    })?;
    expect_sig(b, btree, b"TREE", "group B-tree node", eof)?;
    expect_sig(b, heap, b"HEAP", "local heap", eof)?;
    logical.groups.entry(gname.to_string()).or_default();
    let nsnod = rd_u16(b, btree + 4).ok_or(H5Error::Truncated {
        what: "group B-tree node",
        addr: btree,
    })? as usize;
    if nsnod > sizes::TREE_CAP {
        return Err(H5Error::BadSignature {
            what: "group B-tree node (fan-out)",
            addr: btree,
            found: *b"TREE",
        });
    }
    for s in 0..nsnod {
        let snod = rd_u64(b, btree + 8 + (s as u64) * 8).ok_or(H5Error::Truncated {
            what: "group B-tree entry",
            addr: btree,
        })?;
        expect_sig(b, snod, b"SNOD", "symbol table node", eof)?;
        let n = rd_u16(b, snod + 4).ok_or(H5Error::Truncated {
            what: "symbol table node",
            addr: snod,
        })? as usize;
        if n > sizes::SNOD_CAP {
            return Err(H5Error::BadSignature {
                what: "symbol table node (entry count)",
                addr: snod,
                found: *b"SNOD",
            });
        }
        for i in 0..n {
            let ea = snod + 8 + (i as u64) * 16;
            let name_off = rd_u64(b, ea).ok_or(H5Error::Truncated {
                what: "symbol table entry",
                addr: ea,
            })?;
            let child_oh = rd_u64(b, ea + 8).ok_or(H5Error::Truncated {
                what: "symbol table entry",
                addr: ea,
            })?;
            let name = heap_name(b, heap, name_off, gname)?;
            expect_sig(b, child_oh, b"OHDR", "object header", eof)?;
            let ckind = b[(child_oh + 4) as usize];
            if ckind == KIND_GROUP {
                check_group(b, &name, child_oh, eof, logical)?;
            } else if ckind == KIND_DATASET {
                let rows = rd_u64(b, child_oh + 8).unwrap_or(0);
                let cols = rd_u64(b, child_oh + 16).unwrap_or(0);
                let dtree = rd_u64(b, child_oh + 24).ok_or(H5Error::Truncated {
                    what: "dataset object header",
                    addr: child_oh,
                })?;
                let mut segs = Vec::new();
                walk_dtree(b, dtree, eof, 0, &mut segs)?;
                let have: u64 = segs.iter().map(|s| s.1).sum();
                if have < rows * cols * sizes::ELEM {
                    return Err(H5Error::Truncated {
                        what: "dataset data",
                        addr: dtree,
                    });
                }
                let digest = digest_bytes(&segs, b);
                logical
                    .groups
                    .entry(gname.to_string())
                    .or_default()
                    .insert(name.clone());
                logical
                    .datasets
                    .insert(dataset_key(gname, &name), (rows, cols, digest));
            } else {
                return Err(H5Error::BadSignature {
                    what: "object header (kind)",
                    addr: child_oh,
                    found: *b"OHDR",
                });
            }
        }
    }
    Ok(())
}

/// Per-dataset results of a lenient walk: real HDF5 applications open
/// one dataset at a time, so corruption of one dataset's structures does
/// not necessarily make the others unreadable. The paper's baseline
/// crash-consistency model needs exactly this granularity ("if a …
/// dataset was closed before the crash, all updates to that dataset …
/// were preserved").
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

fn lenient_group(b: &[u8], gname: &str, oh: u64, eof: u64, out: &mut LenientReport) {
    if let Err(e) = expect_sig(b, oh, b"OHDR", "object header", eof) {
        out.group_errors.push((gname.to_string(), e));
        return;
    }
    let kind = b[(oh + 4) as usize];
    if kind != KIND_GROUP {
        out.group_errors.push((
            gname.to_string(),
            H5Error::BadSignature {
                what: "group object header (kind)",
                addr: oh,
                found: *b"OHDR",
            },
        ));
        return;
    }
    let (Some(btree), Some(heap)) = (rd_u64(b, oh + 8), rd_u64(b, oh + 16)) else {
        out.group_errors.push((
            gname.to_string(),
            H5Error::Truncated {
                what: "object header",
                addr: oh,
            },
        ));
        return;
    };
    for (addr, magic, what) in [
        (btree, b"TREE", "group B-tree node"),
        (heap, b"HEAP", "local heap"),
    ] {
        if let Err(e) = expect_sig(b, addr, magic, what, eof) {
            out.group_errors.push((gname.to_string(), e));
            return;
        }
    }
    out.groups.entry(gname.to_string()).or_default();
    let nsnod = rd_u16(b, btree + 4).unwrap_or(u16::MAX) as usize;
    if nsnod > sizes::TREE_CAP {
        out.group_errors.push((
            gname.to_string(),
            H5Error::BadSignature {
                what: "group B-tree node (fan-out)",
                addr: btree,
                found: *b"TREE",
            },
        ));
        return;
    }
    for s in 0..nsnod {
        let Some(snod) = rd_u64(b, btree + 8 + (s as u64) * 8) else {
            continue;
        };
        if let Err(e) = expect_sig(b, snod, b"SNOD", "symbol table node", eof) {
            out.group_errors.push((gname.to_string(), e));
            continue;
        }
        let n = rd_u16(b, snod + 4).unwrap_or(u16::MAX) as usize;
        if n > sizes::SNOD_CAP {
            out.group_errors.push((
                gname.to_string(),
                H5Error::BadSignature {
                    what: "symbol table node (entry count)",
                    addr: snod,
                    found: *b"SNOD",
                },
            ));
            continue;
        }
        // Pass 1: decode the symbol-table entries. A lookup scans the
        // node sequentially, so one undecodable name record poisons
        // every lookup through this node ("cannot open an unmodified
        // dataset", Table 3 bugs 9-11).
        let mut decoded: Vec<(String, u64)> = Vec::new();
        let mut poison: Option<H5Error> = None;
        for i in 0..n {
            let ea = snod + 8 + (i as u64) * 16;
            let (Some(name_off), Some(child_oh)) = (rd_u64(b, ea), rd_u64(b, ea + 8)) else {
                continue;
            };
            match heap_name(b, heap, name_off, gname) {
                Ok(name) => decoded.push((name, child_oh)),
                Err(e) => {
                    out.group_errors.push((gname.to_string(), e.clone()));
                    poison = Some(e);
                }
            }
        }
        for (name, child_oh) in decoded {
            let kind_ok = expect_sig(b, child_oh, b"OHDR", "object header", eof);
            let ckind = if kind_ok.is_ok() {
                b[(child_oh + 4) as usize]
            } else {
                0
            };
            if ckind == KIND_GROUP && poison.is_none() {
                lenient_group(b, &name, child_oh, eof, out);
            } else {
                let key = dataset_key(gname, &name);
                out.groups
                    .entry(gname.to_string())
                    .or_default()
                    .insert(name.clone());
                let result = (|| -> Result<(u64, u64, u64), H5Error> {
                    if let Some(p) = &poison {
                        return Err(p.clone());
                    }
                    kind_ok?;
                    if ckind != KIND_DATASET {
                        return Err(H5Error::BadSignature {
                            what: "object header (kind)",
                            addr: child_oh,
                            found: *b"OHDR",
                        });
                    }
                    let rows = rd_u64(b, child_oh + 8).unwrap_or(0);
                    let cols = rd_u64(b, child_oh + 16).unwrap_or(0);
                    let dtree = rd_u64(b, child_oh + 24).ok_or(H5Error::Truncated {
                        what: "dataset object header",
                        addr: child_oh,
                    })?;
                    let mut segs = Vec::new();
                    walk_dtree(b, dtree, eof, 0, &mut segs)?;
                    let have: u64 = segs.iter().map(|s| s.1).sum();
                    if have < rows * cols * sizes::ELEM {
                        return Err(H5Error::Truncated {
                            what: "dataset data",
                            addr: dtree,
                        });
                    }
                    Ok((rows, cols, digest_bytes(&segs, b)))
                })();
                out.datasets.insert(key, result);
            }
        }
    }
}

/// Lenient walk: collect per-dataset outcomes instead of failing on the
/// first corruption.
pub fn check_lenient(bytes: &[u8]) -> LenientReport {
    let mut out = LenientReport::default();
    if bytes.len() < sizes::SUPERBLOCK as usize || &bytes[0..4] != b"H5SB" {
        out.open_error = Some(H5Error::CannotOpen {
            reason: "superblock signature not found".into(),
        });
        return out;
    }
    let root_oh = rd_u64(bytes, 8).unwrap_or(0);
    let eof = rd_u64(bytes, 16).unwrap_or(0);
    let before = out.group_errors.len();
    lenient_group(bytes, "/", root_oh, eof, &mut out);
    // A broken root group means the file cannot be opened at all.
    if out.group_errors.len() > before && out.groups.is_empty() {
        let (_, e) = out.group_errors[before].clone();
        out.open_error = Some(H5Error::CannotOpen {
            reason: e.to_string(),
        });
    }
    out
}

/// `h5check`: validate a file image and extract its logical state.
pub fn check(bytes: &[u8]) -> Result<H5Logical, H5Error> {
    if bytes.len() < sizes::SUPERBLOCK as usize {
        return Err(H5Error::CannotOpen {
            reason: "file shorter than superblock".into(),
        });
    }
    if &bytes[0..4] != b"H5SB" {
        return Err(H5Error::CannotOpen {
            reason: "superblock signature not found".into(),
        });
    }
    let root_oh = rd_u64(bytes, 8).ok_or(H5Error::CannotOpen {
        reason: "superblock truncated".into(),
    })?;
    let eof = rd_u64(bytes, 16).ok_or(H5Error::CannotOpen {
        reason: "superblock truncated".into(),
    })?;
    let mut logical = H5Logical::default();
    match check_group(bytes, "/", root_oh, eof, &mut logical) {
        Ok(()) => Ok(logical),
        // A broken *root* object header means nothing in the file is
        // reachable — the NetCDF-style "cannot open" failure.
        Err(H5Error::BadSignature {
            what: "object header",
            addr,
            ..
        }) if addr == root_oh => Err(H5Error::CannotOpen {
            reason: format!("root object header unreadable at {addr:#x}"),
        }),
        Err(H5Error::AddrOverflow {
            what: "object header",
            addr,
            eof,
        }) if addr == root_oh => Err(H5Error::CannotOpen {
            reason: format!("root object header at {addr:#x} beyond eof {eof:#x}"),
        }),
        Err(e) => Err(e),
    }
}

/// Superblock accessors used by `h5clear` and the library runtime.
pub mod superblock {
    use super::sizes;

    /// Read the EOF field.
    pub fn eof(bytes: &[u8]) -> Option<u64> {
        super::rd_u64(bytes, 16)
    }

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

    #[test]
    fn lenient_walk_agrees_with_strict_on_clean_and_broken_files() {
        let img = minimal_file();
        // Clean file: the lenient walk reaches what the strict one does.
        let (lenient, strict) = (check_lenient(&img), check(&img).unwrap());
        assert!(lenient.open_error.is_none() && lenient.group_errors.is_empty());
        assert_eq!(lenient.groups, strict.groups);
        let datasets: BTreeMap<_, _> = (lenient.datasets.into_iter())
            .map(|(key, dataset)| (key, dataset.unwrap()))
            .collect();
        assert_eq!(datasets, strict.datasets);
        // Break the dataset's B-tree: strict fails, lenient isolates the
        // failure to that dataset.
        let mut broken = img.clone();
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
