//! The client-visible file tree of a (possibly recovered) PFS.
//!
//! ParaCrash's golden-master comparison happens at this level: a recovered
//! crash state is *consistent* iff its client-visible tree matches the
//! tree produced by replaying some legal preserved set of PFS calls
//! (§4.4.3). The view deliberately abstracts away server placement, chunk
//! names and internal metadata — those are implementation details the
//! crash-consistency contract does not cover.

use pc_rt::intern::Sym;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A logical file tree as seen through the PFS mount point.
///
/// Paths are interned [`Sym`]s internally: the golden-master check
/// compares a recovered view against every legal view, and with
/// interned keys that containment test compares 4-byte ids instead of
/// re-walking path strings. Map iteration order is id order — an
/// implementation detail — so every rendered output ([`fmt::Display`],
/// [`PfsView::diff`], [`PfsView::digest`]) sorts by the resolved
/// string, keeping presentation byte-identical to the string-keyed
/// representation it replaced.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PfsView {
    /// Regular files: mount-relative path → content. A file that exists
    /// but whose data is unreadable (lost chunk) maps to `None`.
    files: BTreeMap<Sym, Option<Vec<u8>>>,
    /// Directories (mount-relative paths, `/` excluded).
    dirs: BTreeSet<Sym>,
}

impl PfsView {
    /// Empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a readable file.
    pub fn add_file(&mut self, path: impl AsRef<str>, data: impl Into<Vec<u8>>) {
        self.files
            .insert(Sym::new(path.as_ref()), Some(data.into()));
    }

    /// Add a file whose content could not be reconstructed.
    pub fn add_damaged_file(&mut self, path: impl AsRef<str>) {
        self.files.insert(Sym::new(path.as_ref()), None);
    }

    /// Add a directory.
    pub fn add_dir(&mut self, path: impl AsRef<str>) {
        self.dirs.insert(Sym::new(path.as_ref()));
    }

    /// Content of a file, if present and readable.
    pub fn read(&self, path: &str) -> Option<&[u8]> {
        self.files.get(&Sym::new(path)).and_then(|d| d.as_deref())
    }

    /// `true` if a file or directory exists at `path`.
    pub fn exists(&self, path: &str) -> bool {
        let sym = Sym::new(path);
        self.files.contains_key(&sym) || self.dirs.contains(&sym)
    }

    /// `true` if a directory exists at `path`.
    pub fn has_dir(&self, path: &str) -> bool {
        self.dirs.contains(&Sym::new(path))
    }

    /// Files in lexicographic path order: `(path, content)` where
    /// `None` content marks a damaged file.
    pub fn files_sorted(&self) -> Vec<(&'static str, Option<&[u8]>)> {
        let mut out: Vec<(&'static str, Option<&[u8]>)> = self
            .files
            .iter()
            .map(|(p, d)| (p.as_str(), d.as_deref()))
            .collect();
        out.sort_unstable_by_key(|(p, _)| *p);
        out
    }

    /// Directories in lexicographic path order.
    pub fn dirs_sorted(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = self.dirs.iter().map(|d| d.as_str()).collect();
        out.sort_unstable();
        out
    }

    /// Canonical digest (for dedup of recovered states). Hashes the
    /// resolved, sorted tree so the value is independent of interning
    /// order (and therefore stable across thread schedules).
    pub fn digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        let files: BTreeMap<&str, &Option<Vec<u8>>> =
            self.files.iter().map(|(p, d)| (p.as_str(), d)).collect();
        let dirs: BTreeSet<&str> = self.dirs.iter().map(|d| d.as_str()).collect();
        files.hash(&mut h);
        dirs.hash(&mut h);
        h.finish()
    }

    /// Human-readable diff against another view (for bug reports).
    pub fn diff(&self, other: &PfsView) -> Vec<String> {
        let mut out = Vec::new();
        for (p, d) in self.files_sorted() {
            match other.files.get(&Sym::new(p)) {
                None => out.push(format!("file {p} missing in other")),
                Some(od) if od.as_deref() != d => out.push(format!("file {p} content differs")),
                _ => {}
            }
        }
        for (p, _) in other.files_sorted() {
            if !self.files.contains_key(&Sym::new(p)) {
                out.push(format!("file {p} only in other"));
            }
        }
        let mut dir_diff: Vec<&str> = self
            .dirs
            .symmetric_difference(&other.dirs)
            .map(|d| d.as_str())
            .collect();
        dir_diff.sort_unstable();
        for d in dir_diff {
            out.push(format!("dir {d} present in only one view"));
        }
        out
    }
}

impl fmt::Display for PfsView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in self.dirs_sorted() {
            writeln!(f, "{d}/")?;
        }
        for (p, data) in self.files_sorted() {
            match data {
                Some(d) => writeln!(f, "{p} ({} bytes)", d.len())?,
                None => writeln!(f, "{p} (UNREADABLE)")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_roundtrip_and_digest() {
        let mut a = PfsView::new();
        a.add_dir("/A");
        a.add_file("/A/foo", b"data".to_vec());
        assert!(a.exists("/A"));
        assert!(a.exists("/A/foo"));
        assert_eq!(a.read("/A/foo"), Some(&b"data"[..]));
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn damaged_files_differ_from_readable() {
        let mut a = PfsView::new();
        a.add_file("/f", b"x".to_vec());
        let mut b = PfsView::new();
        b.add_damaged_file("/f");
        assert_ne!(a, b);
        assert_eq!(b.read("/f"), None);
        assert!(b.exists("/f"));
    }

    #[test]
    fn diff_lists_discrepancies() {
        let mut a = PfsView::new();
        a.add_file("/x", b"1".to_vec());
        a.add_dir("/d");
        let mut b = PfsView::new();
        b.add_file("/x", b"2".to_vec());
        b.add_file("/y", b"3".to_vec());
        let d = a.diff(&b);
        assert!(d.iter().any(|s| s.contains("/x") && s.contains("differs")));
        assert!(d.iter().any(|s| s.contains("/y")));
        assert!(d.iter().any(|s| s.contains("/d")));
    }
}
