//! The client-visible file tree of a (possibly recovered) PFS.
//!
//! ParaCrash's golden-master comparison happens at this level: a recovered
//! crash state is *consistent* iff its client-visible tree matches the
//! tree produced by replaying some legal preserved set of PFS calls
//! (§4.4.3). The view deliberately abstracts away server placement, chunk
//! names and internal metadata — those are implementation details the
//! crash-consistency contract does not cover.
//!
//! A file's bytes are not copied out of the stores. Its [`Content`] is
//! the list of the stores' own byte runs — chunk-file inodes, content
//! blocks — each held by its `Arc`, so a mount costs a refcount bump per
//! stripe and a view of a clean stripe shares it with the baseline and
//! with every other view. Equality reads the bytes, never the chunking;
//! the digest folds each run's cached digest, so it reads only runs
//! hashed nowhere before.

use pc_rt::intern::Sym;
use simfs::payload_digest;
use simfs::state::Inode;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Bytes a server store owns behind an `Arc`: what one chunk of a
/// [`Content`] reads in place.
pub trait Bytes: Send + Sync {
    /// The bytes.
    fn bytes(&self) -> &[u8];
    /// [`payload_digest`] of the bytes.
    fn digest(&self) -> u64;
}

/// A regular file's data, its digest the one the store caches; a
/// directory holds none.
impl Bytes for Inode {
    fn bytes(&self) -> &[u8] {
        match self {
            Inode::File { data, .. } => &data[..],
            Inode::Dir { .. } => &[],
        }
    }
    fn digest(&self) -> u64 {
        match self {
            Inode::File { data, .. } => data.digest(),
            Inode::Dir { .. } => payload_digest(&[]),
        }
    }
}

/// A block's payload, its digest the one the device caches.
impl Bytes for simfs::Block {
    fn bytes(&self) -> &[u8] {
        &self.1[..]
    }
    fn digest(&self) -> u64 {
        self.1.digest()
    }
}

/// Bytes a view owns itself, hashed on every ask.
impl Bytes for Vec<u8> {
    fn bytes(&self) -> &[u8] {
        self
    }
    fn digest(&self) -> u64 {
        payload_digest(self)
    }
}

/// A file's content as a view holds it: shared byte runs in file order.
///
/// Two contents are `==` when their bytes are equal, however the runs
/// split them; a pair of runs that is one `Arc` at one offset is skipped
/// without reading it.
#[derive(Clone, Default)]
pub struct Content {
    /// Non-empty runs, each with the file offset where it ends.
    runs: Vec<(Arc<dyn Bytes>, u64)>,
    /// The bytes joined, for [`joined`](Self::joined) on a content of
    /// more than one run: built on first use, ignored by `==`.
    joined: OnceLock<Box<[u8]>>,
}

impl Content {
    /// Append a run; an empty one adds nothing.
    pub fn push(&mut self, run: Arc<dyn Bytes>) {
        let len = run.bytes().len() as u64;
        if len > 0 {
            self.runs.push((run, self.len() + len));
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.runs.last().map_or(0, |run| run.1)
    }

    /// `true` for an empty file.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The runs, in file order.
    pub fn runs(&self) -> impl Iterator<Item = &[u8]> {
        self.runs.iter().map(|(run, _)| run.bytes())
    }

    /// The bytes from `at` to the end of the run that holds it; empty at
    /// or past the end of the file.
    pub fn run_at(&self, at: u64) -> &[u8] {
        self.chunk_at(at)
            .map_or(&[], |(run, off)| &run.bytes()[off as usize..])
    }

    /// The shared run that holds byte `at`, and `at`'s offset in it;
    /// `None` at or past the end of the file. The run is a store's own
    /// `Arc`, so while a reader holds it (or a `Weak` of it) its address
    /// names these bytes and no others.
    pub fn chunk_at(&self, at: u64) -> Option<(&Arc<dyn Bytes>, u64)> {
        let i = self.runs.partition_point(|run| run.1 <= at);
        let (run, end) = self.runs.get(i)?;
        Some((run, at + run.bytes().len() as u64 - end))
    }

    /// The whole content as one slice: the run itself when there is at
    /// most one, else a copy joined once and kept.
    pub fn joined(&self) -> &[u8] {
        match self.runs.as_slice() {
            [] => &[],
            [(run, _)] => run.bytes(),
            _ => self
                .joined
                .get_or_init(|| self.runs().collect::<Vec<_>>().concat().into()),
        }
    }
}

/// A content of one run.
impl<B: Bytes + 'static> From<Arc<B>> for Content {
    fn from(run: Arc<B>) -> Content {
        let mut content = Content::default();
        content.push(run);
        content
    }
}

impl From<Vec<u8>> for Content {
    fn from(data: Vec<u8>) -> Content {
        Arc::new(data).into()
    }
}

impl PartialEq for Content {
    fn eq(&self, other: &Content) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let (mut a, mut b) = (self.runs(), other.runs());
        let (mut x, mut y): (&[u8], &[u8]) = (&[], &[]);
        loop {
            if x.is_empty() {
                let Some(next) = a.next() else {
                    return true;
                };
                x = next;
            }
            if y.is_empty() {
                y = b.next().expect("equal lengths");
            }
            // One `Arc` at one offset: the same bytes, unread.
            let n = if std::ptr::eq(x, y) {
                x.len()
            } else {
                let n = x.len().min(y.len());
                if x[..n] != y[..n] {
                    return false;
                }
                n
            };
            (x, y) = (&x[n..], &y[n..]);
        }
    }
}

impl Eq for Content {}

impl fmt::Debug for Content {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.joined(), f)
    }
}

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
    files: BTreeMap<Sym, Option<Content>>,
    /// Directories (mount-relative paths, `/` excluded).
    dirs: BTreeSet<Sym>,
}

impl PfsView {
    /// Empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a readable file.
    pub fn add_file(&mut self, path: impl AsRef<str>, data: impl Into<Content>) {
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
    pub fn content(&self, path: &str) -> Option<&Content> {
        self.files.get(&Sym::new(path))?.as_ref()
    }

    /// Content of a file as one slice, if present and readable (see
    /// [`Content::joined`]).
    pub fn read(&self, path: &str) -> Option<&[u8]> {
        self.content(path).map(Content::joined)
    }

    /// The same tree with each file's bytes joined into one run the view
    /// owns: the view a copying mount would give, which `==` and
    /// [`digest`](Self::digest) cannot tell from this one.
    pub fn flat(&self) -> PfsView {
        let files = self.files.iter().map(|(path, content)| {
            let flat = content.as_ref().map(|c| Content::from(c.joined().to_vec()));
            (*path, flat)
        });
        PfsView {
            files: files.collect(),
            dirs: self.dirs.clone(),
        }
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
    pub fn files_sorted(&self) -> Vec<(&'static str, Option<&Content>)> {
        let mut out: Vec<(&'static str, Option<&Content>)> = self
            .files
            .iter()
            .map(|(p, d)| (p.as_str(), d.as_ref()))
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

    /// Canonical digest (for dedup of legal states). Hashes the
    /// resolved, sorted tree so the value is independent of interning
    /// order (and therefore stable across thread schedules), and per
    /// file its length and each run's [`Bytes::digest`]: a run a store
    /// already hashed is not read again.
    ///
    /// The value depends on where the runs split a file's bytes, so two
    /// `==` views may digest apart (a dedup then fails to merge them);
    /// views that digest alike are `==` up to a hash collision.
    pub fn digest(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        let files = self.files_sorted();
        h.write_usize(files.len());
        for (path, content) in files {
            path.hash(&mut h);
            content.map(|c| (c.len(), c.runs.len())).hash(&mut h);
            for (run, _) in content.iter().flat_map(|c| &c.runs) {
                h.write_u64(run.digest());
            }
        }
        self.dirs_sorted().hash(&mut h);
        h.finish()
    }

    /// Human-readable diff against another view (for bug reports).
    pub fn diff(&self, other: &PfsView) -> Vec<String> {
        let mut out = Vec::new();
        for (p, d) in self.files_sorted() {
            match other.files.get(&Sym::new(p)) {
                None => out.push(format!("file {p} missing in other")),
                Some(od) if od.as_ref() != d => out.push(format!("file {p} content differs")),
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

    /// `bytes` in runs that end at each of `cuts`.
    fn chunked(bytes: &[u8], cuts: &[usize]) -> Content {
        let mut content = Content::default();
        let mut from = 0;
        for &to in cuts.iter().chain([&bytes.len()]) {
            content.push(Arc::new(bytes[from..to].to_vec()));
            from = to;
        }
        content
    }

    /// The digest of the view a copying mount built: every non-empty
    /// file one owned run, folded as its `payload_digest`.
    fn copied_digest(files: &[(&str, Option<&[u8]>)], dirs: &[&str]) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        let files: BTreeMap<&str, Option<&[u8]>> = files.iter().copied().collect();
        h.write_usize(files.len());
        for (path, bytes) in files {
            path.hash(&mut h);
            let runs = bytes.map(|b| (b.len() as u64, usize::from(!b.is_empty())));
            runs.hash(&mut h);
            if let Some(bytes) = bytes.filter(|b| !b.is_empty()) {
                h.write_u64(payload_digest(bytes));
            }
        }
        let dirs: BTreeSet<&str> = dirs.iter().copied().collect();
        dirs.hash(&mut h);
        h.finish()
    }

    #[test]
    fn chunk_boundaries_keep_equality_and_the_digest_follows_them() {
        let bytes: Vec<u8> = (0..=255).cycle().take(700).collect();
        let splits: [&[usize]; 5] = [&[], &[1], &[7, 8, 300], &[256, 512], &[0, 699, 700]];
        let views: Vec<PfsView> = (splits.iter())
            .map(|cuts| {
                let mut v = PfsView::new();
                v.add_dir("/d");
                v.add_file("/d/f", chunked(&bytes, cuts));
                v.add_file("/e", Vec::new());
                v
            })
            .collect();
        // The digest follows the runs: one run digests as a copying
        // mount's view, a flat copy of any split too, and a split built
        // again digests as before.
        let copied = copied_digest(&[("/d/f", Some(&bytes)), ("/e", Some(&[]))], &["/d"]);
        assert_eq!(views[0].digest(), copied);
        for (a, cuts) in views.iter().zip(splits) {
            assert_eq!(a.flat().digest(), copied);
            let mut again = PfsView::new();
            again.add_dir("/d");
            again.add_file("/d/f", chunked(&bytes, cuts));
            again.add_file("/e", Vec::new());
            assert_eq!(a.digest(), again.digest());
            assert_eq!(a.read("/d/f"), Some(&bytes[..]));
            assert_eq!(a, &a.flat());
            for b in &views {
                assert_eq!(a, b);
                assert!(a.diff(b).is_empty());
            }
        }
        // One byte changed in any run, or one byte fewer, is another file.
        for at in [0, 7, 255, 256, 699] {
            let mut other = bytes.clone();
            other[at] ^= 1;
            for cuts in splits {
                assert_ne!(chunked(&bytes, cuts), chunked(&other, &[256]));
            }
        }
        assert_ne!(chunked(&bytes, &[7]), chunked(&bytes[..699], &[7]));
    }

    #[test]
    fn a_shared_chunk_compares_unread_and_seeks_by_offset() {
        let run: Arc<dyn Bytes> = Arc::new(b"abcdef".to_vec());
        let mut a = Content::default();
        let mut b = Content::default();
        for c in [&mut a, &mut b] {
            c.push(run.clone());
            c.push(Arc::new(b"gh".to_vec()));
        }
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert_eq!(a.run_at(0), b"abcdef");
        assert_eq!(a.run_at(4), b"ef");
        assert_eq!(a.run_at(6), b"gh");
        assert_eq!(a.run_at(8), b"");
        assert_eq!(a.joined(), b"abcdefgh");
    }

    #[test]
    fn chunked_views_keep_damaged_empty_and_absent_files_distinct() {
        let mut empty = PfsView::new();
        empty.add_file("/f", chunked(&[], &[]));
        let mut damaged = PfsView::new();
        damaged.add_damaged_file("/f");
        let absent = PfsView::new();
        let views = [&empty, &damaged, &absent];
        for (i, a) in views.iter().enumerate() {
            for (j, b) in views.iter().enumerate() {
                assert_eq!(a == b, i == j);
                assert_eq!(a.digest() == b.digest(), i == j);
            }
        }
        assert_eq!(empty.digest(), copied_digest(&[("/f", Some(&[]))], &[]));
        assert_eq!(damaged.digest(), copied_digest(&[("/f", None)], &[]));
        assert_eq!(empty.read("/f"), Some(&[][..]));
        assert_eq!(damaged.read("/f"), None);
    }

    #[test]
    fn diff_and_display_read_bytes_not_chunks() {
        let mut a = PfsView::new();
        a.add_dir("/d");
        a.add_file("/d/x", chunked(b"hello world", &[3, 5]));
        a.add_damaged_file("/y");
        let mut b = PfsView::new();
        b.add_file("/d/x", b"hello World".to_vec());
        b.add_file("/z", b"!".to_vec());
        assert_eq!(a.to_string(), "/d/\n/d/x (11 bytes)\n/y (UNREADABLE)\n");
        assert_eq!(a.to_string(), a.flat().to_string());
        assert_eq!(
            a.diff(&b),
            [
                "file /d/x content differs",
                "file /y missing in other",
                "file /z only in other",
                "dir /d present in only one view",
            ]
        );
        assert_eq!(a.diff(&b), a.flat().diff(&b.flat()));
    }

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
