//! In-memory POSIX-like file-system state.
//!
//! [`FsState`] is the storage target onto which ParaCrash replays operation
//! subsets. It is inode-based (so hard links behave correctly — BeeGFS
//! metadata servers `link()` idfiles into dentry directories) and fully
//! deterministic: two states produced by replaying the same operations are
//! structurally equal, which is what the golden-master comparison relies on.

use crate::error::{FsError, FsResult};
use crate::ops::FsOp;
use pc_rt::intern::Sym;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Inode number.
pub type Ino = u64;

const ROOT_INO: Ino = 1;

/// A file or directory inode.
///
/// Entry and xattr names are interned [`Sym`]s: map probes compare
/// 4-byte ids, and unsharing a directory under copy-on-write copies ids
/// instead of re-allocating every name. Map iteration order is id
/// order, an implementation detail — every observable consumer
/// ([`FsState::walk`], [`FsState::readdir`], fsck, digests) sorts by
/// the resolved string at the boundary.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Inode {
    /// Regular file: raw content plus extended attributes.
    File {
        /// File content.
        data: Vec<u8>,
        /// Extended attributes.
        xattrs: BTreeMap<Sym, Vec<u8>>,
    },
    /// Directory: name → inode map plus extended attributes.
    Dir {
        /// Child entries.
        entries: BTreeMap<Sym, Ino>,
        /// Extended attributes.
        xattrs: BTreeMap<Sym, Vec<u8>>,
    },
}

impl Inode {
    fn empty_file() -> Self {
        Inode::File {
            data: Vec::new(),
            xattrs: BTreeMap::new(),
        }
    }

    fn empty_dir() -> Self {
        Inode::Dir {
            entries: BTreeMap::new(),
            xattrs: BTreeMap::new(),
        }
    }

    /// Extended attributes of either inode kind (keys are interned).
    pub fn xattrs(&self) -> &BTreeMap<Sym, Vec<u8>> {
        match self {
            Inode::File { xattrs, .. } | Inode::Dir { xattrs, .. } => xattrs,
        }
    }

    fn xattrs_mut(&mut self) -> &mut BTreeMap<Sym, Vec<u8>> {
        match self {
            Inode::File { xattrs, .. } | Inode::Dir { xattrs, .. } => xattrs,
        }
    }

    /// `true` for directories.
    pub fn is_dir(&self) -> bool {
        matches!(self, Inode::Dir { .. })
    }
}

/// A snapshot-able, comparable local file system.
///
/// Cloning an `FsState` is the simulation analogue of taking an LVM/ext4
/// snapshot of a storage server before crash emulation (§4.3). The inode
/// table is a persistent (copy-on-write) structure: `clone`/[`FsState::fork`]
/// are O(1) Arc bumps, and mutation unshares only the touched nodes via
/// `Arc::make_mut`, so memory grows with divergence rather than state size.
#[derive(Clone)]
pub struct FsState {
    inodes: Arc<BTreeMap<Ino, Arc<Inode>>>,
    next_ino: Ino,
    /// Memoized [`FsState::digest`]. Abandoned (not cleared) on mutation so
    /// forks sharing the cell never observe a diverged state's digest.
    digest_memo: Arc<OnceLock<u64>>,
}

impl Default for FsState {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for FsState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FsState")
            .field("inodes", &self.inodes)
            .field("next_ino", &self.next_ino)
            .finish()
    }
}

impl PartialEq for FsState {
    fn eq(&self, other: &Self) -> bool {
        self.next_ino == other.next_ino
            && (Arc::ptr_eq(&self.inodes, &other.inodes) || self.inodes == other.inodes)
    }
}

impl Eq for FsState {}

impl FsState {
    /// An empty file system containing only `/`.
    pub fn new() -> Self {
        let mut inodes = BTreeMap::new();
        inodes.insert(ROOT_INO, Arc::new(Inode::empty_dir()));
        FsState {
            inodes: Arc::new(inodes),
            next_ino: ROOT_INO + 1,
            digest_memo: Arc::new(OnceLock::new()),
        }
    }

    /// O(1) copy-on-write snapshot: shares the whole inode table with
    /// `self` until either side mutates. This is the fast path the replay
    /// engine forks crash states from.
    pub fn fork(&self) -> FsState {
        self.clone()
    }

    /// A structurally independent copy sharing no nodes with `self`. Only
    /// the reference checker (`paracrash::check_reference`) and tests
    /// that need true isolation use this — it reproduces the historical
    /// clone-everything cost model.
    pub fn deep_clone(&self) -> FsState {
        FsState {
            inodes: Arc::new(
                self.inodes
                    .iter()
                    .map(|(k, v)| (*k, Arc::new((**v).clone())))
                    .collect(),
            ),
            next_ino: self.next_ino,
            digest_memo: Arc::new(OnceLock::new()),
        }
    }

    /// Invalidate the digest memo ahead of a mutation. A shared or
    /// initialized cell is abandoned rather than cleared: forks still
    /// holding it keep their (valid) memo, and this state re-memoizes
    /// lazily. Any live fork keeps a strong reference, so sharing is
    /// always visible in `strong_count`.
    fn touch(&mut self) {
        if self.digest_memo.get().is_some() || Arc::strong_count(&self.digest_memo) > 1 {
            self.digest_memo = Arc::new(OnceLock::new());
        }
    }

    /// Unshared access to the inode table (clones the table's Arc spine on
    /// first mutation after a fork; individual inodes stay shared).
    fn inodes_mut(&mut self) -> &mut BTreeMap<Ino, Arc<Inode>> {
        self.touch();
        Arc::make_mut(&mut self.inodes)
    }

    /// Unshared access to one inode (clones just that inode if shared).
    fn inode_mut(&mut self, ino: Ino) -> &mut Inode {
        Arc::make_mut(
            self.inodes_mut()
                .get_mut(&ino)
                .expect("invariant: resolved ino exists"),
        )
    }

    /// Split an absolute path into components; rejects empty / relative
    /// paths. `/` itself yields an empty component list.
    fn components(path: &str) -> FsResult<Vec<&str>> {
        if !path.starts_with('/') {
            return Err(FsError::Invalid(format!("path not absolute: {path}")));
        }
        Ok(path.split('/').filter(|c| !c.is_empty()).collect())
    }

    /// Resolve a path to an inode number.
    pub fn resolve(&self, path: &str) -> FsResult<Ino> {
        let mut cur = ROOT_INO;
        for comp in Self::components(path)? {
            let node = self
                .inodes
                .get(&cur)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
            match &**node {
                Inode::Dir { entries, .. } => {
                    cur = *entries
                        .get(&Sym::new(comp))
                        .ok_or_else(|| FsError::NotFound(path.to_string()))?;
                }
                Inode::File { .. } => return Err(FsError::NotADirectory(path.to_string())),
            }
        }
        Ok(cur)
    }

    /// Resolve the parent directory of `path`, returning `(parent_ino,
    /// final_component)`.
    fn resolve_parent<'p>(&self, path: &'p str) -> FsResult<(Ino, &'p str)> {
        let comps = Self::components(path)?;
        let (last, dirs) = comps
            .split_last()
            .ok_or_else(|| FsError::Invalid(format!("no final component in {path}")))?;
        let mut cur = ROOT_INO;
        for comp in dirs {
            let node = self
                .inodes
                .get(&cur)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
            match &**node {
                Inode::Dir { entries, .. } => {
                    cur = *entries
                        .get(&Sym::new(comp))
                        .ok_or_else(|| FsError::NotFound(path.to_string()))?;
                }
                Inode::File { .. } => return Err(FsError::NotADirectory(path.to_string())),
            }
        }
        Ok((cur, last))
    }

    fn dir_entries_mut(&mut self, ino: Ino) -> &mut BTreeMap<Sym, Ino> {
        match self.inode_mut(ino) {
            Inode::Dir { entries, .. } => entries,
            Inode::File { .. } => unreachable!("invariant: parent resolution returns directories"),
        }
    }

    /// Immutable inode lookup for inos obtained from a successful
    /// resolution — existence is a table invariant, so a miss is a bug
    /// in `FsState` itself, never bad user input.
    fn inode_ref(&self, ino: Ino) -> &Inode {
        self.inodes
            .get(&ino)
            .expect("invariant: resolved ino exists")
    }

    /// `true` if `path` resolves to any inode.
    pub fn exists(&self, path: &str) -> bool {
        self.resolve(path).is_ok()
    }

    /// `true` if `path` resolves to a directory.
    pub fn is_dir(&self, path: &str) -> bool {
        self.resolve(path)
            .map(|i| self.inode_ref(i).is_dir())
            .unwrap_or(false)
    }

    /// Read full file contents.
    pub fn read(&self, path: &str) -> FsResult<&[u8]> {
        let ino = self.resolve(path)?;
        match self.inode_ref(ino) {
            Inode::File { data, .. } => Ok(data),
            Inode::Dir { .. } => Err(FsError::IsADirectory(path.to_string())),
        }
    }

    /// Read an extended attribute.
    pub fn getxattr(&self, path: &str, key: &str) -> FsResult<&[u8]> {
        let ino = self.resolve(path)?;
        self.inode_ref(ino)
            .xattrs()
            .get(&Sym::new(key))
            .map(|v| v.as_slice())
            .ok_or_else(|| FsError::NoAttr(format!("{path}#{key}")))
    }

    /// List directory entry names (sorted lexicographically, whatever
    /// the interned-id order of the underlying map).
    pub fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        let ino = self.resolve(path)?;
        match self.inode_ref(ino) {
            Inode::Dir { entries, .. } => {
                let mut names: Vec<&'static str> = entries.keys().map(|s| s.as_str()).collect();
                names.sort_unstable();
                Ok(names.into_iter().map(str::to_string).collect())
            }
            Inode::File { .. } => Err(FsError::NotADirectory(path.to_string())),
        }
    }

    /// Recursively list every path in the file system (sorted, files and
    /// directories, excluding `/`). Used for state comparison and fsck.
    pub fn walk(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk_from(ROOT_INO, String::new(), &mut out);
        out.sort();
        out
    }

    fn walk_from(&self, ino: Ino, prefix: String, out: &mut Vec<String>) {
        if let Inode::Dir { entries, .. } = self.inode_ref(ino) {
            for (name, child) in entries {
                let path = format!("{prefix}/{}", name.as_str());
                out.push(path.clone());
                self.walk_from(*child, path, out);
            }
        }
    }

    /// Number of live inodes (including `/`).
    pub fn inode_count(&self) -> usize {
        self.inodes.len()
    }

    /// Direct inode access (used by `fsck`).
    pub fn inode(&self, ino: Ino) -> Option<&Inode> {
        self.inodes.get(&ino).map(|a| &**a)
    }

    /// Root inode number.
    pub fn root(&self) -> Ino {
        ROOT_INO
    }

    /// Apply one operation, mutating the state. Sync operations are no-ops
    /// at the state level (they only matter for persistence ordering).
    pub fn apply(&mut self, op: &FsOp) -> FsResult<()> {
        match op {
            FsOp::Creat { path } => self.creat(path),
            FsOp::Mkdir { path } => self.mkdir(path),
            FsOp::Pwrite { path, offset, data } => self.pwrite(path, *offset, data),
            FsOp::Append { path, data } => self.append(path, data),
            FsOp::Truncate { path, size } => self.truncate(path, *size),
            FsOp::Rename { src, dst } => self.rename(src, dst),
            FsOp::Link { src, dst } => self.link(src, dst),
            FsOp::Unlink { path } => self.unlink(path),
            FsOp::Rmdir { path } => self.rmdir(path),
            FsOp::SetXattr { path, key, value } => self.setxattr(path, key, value),
            FsOp::RemoveXattr { path, key } => self.removexattr(path, key),
            FsOp::Fsync { .. } | FsOp::Fdatasync { .. } | FsOp::SyncFs => Ok(()),
        }
    }

    /// Apply a sequence of operations, skipping ones that fail (a crash
    /// state may contain an operation whose prerequisite was dropped).
    /// Returns the operations that could not be applied.
    pub fn apply_lenient<'o>(
        &mut self,
        ops: impl IntoIterator<Item = &'o FsOp>,
    ) -> Vec<(&'o FsOp, FsError)> {
        let mut failed = Vec::new();
        for op in ops {
            if let Err(e) = self.apply(op) {
                failed.push((op, e));
            }
        }
        failed
    }

    /// `creat`: create or truncate a regular file.
    pub fn creat(&mut self, path: &str) -> FsResult<()> {
        let (parent, name) = self.resolve_parent(path)?;
        let name = Sym::new(name);
        let fresh_ino = self.next_ino;
        match self.dir_entries_mut(parent).entry(name) {
            Entry::Occupied(e) => {
                let ino = *e.get();
                match self.inode_mut(ino) {
                    Inode::File { data, .. } => {
                        data.clear();
                        Ok(())
                    }
                    Inode::Dir { .. } => Err(FsError::IsADirectory(path.to_string())),
                }
            }
            Entry::Vacant(e) => {
                e.insert(fresh_ino);
                self.next_ino += 1;
                self.inodes_mut()
                    .insert(fresh_ino, Arc::new(Inode::empty_file()));
                Ok(())
            }
        }
    }

    /// `mkdir`.
    pub fn mkdir(&mut self, path: &str) -> FsResult<()> {
        let (parent, name) = self.resolve_parent(path)?;
        let name = Sym::new(name);
        if self.dir_entries_mut(parent).contains_key(&name) {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        let ino = self.next_ino;
        self.next_ino += 1;
        self.dir_entries_mut(parent).insert(name, ino);
        self.inodes_mut().insert(ino, Arc::new(Inode::empty_dir()));
        Ok(())
    }

    /// `mkdir -p` convenience for preambles.
    pub fn mkdir_all(&mut self, path: &str) -> FsResult<()> {
        let comps = Self::components(path)?;
        let mut cur = String::new();
        for c in comps {
            cur.push('/');
            cur.push_str(c);
            match self.mkdir(&cur) {
                Ok(()) | Err(FsError::AlreadyExists(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// `pwrite`: positional write, zero-filling any hole.
    pub fn pwrite(&mut self, path: &str, offset: u64, buf: &[u8]) -> FsResult<()> {
        let ino = self.resolve(path)?;
        match self.inode_mut(ino) {
            Inode::File { data, .. } => {
                let off = offset as usize;
                let end = off + buf.len();
                if data.len() < end {
                    data.resize(end, 0);
                }
                data[off..end].copy_from_slice(buf);
                Ok(())
            }
            Inode::Dir { .. } => Err(FsError::IsADirectory(path.to_string())),
        }
    }

    /// `append`: write at end of file.
    pub fn append(&mut self, path: &str, buf: &[u8]) -> FsResult<()> {
        let ino = self.resolve(path)?;
        match self.inode_mut(ino) {
            Inode::File { data, .. } => {
                data.extend_from_slice(buf);
                Ok(())
            }
            Inode::Dir { .. } => Err(FsError::IsADirectory(path.to_string())),
        }
    }

    /// `truncate`.
    pub fn truncate(&mut self, path: &str, size: u64) -> FsResult<()> {
        let ino = self.resolve(path)?;
        match self.inode_mut(ino) {
            Inode::File { data, .. } => {
                data.resize(size as usize, 0);
                Ok(())
            }
            Inode::Dir { .. } => Err(FsError::IsADirectory(path.to_string())),
        }
    }

    /// `rename`: atomically move `src` over `dst` (replacing a file or an
    /// empty directory).
    pub fn rename(&mut self, src: &str, dst: &str) -> FsResult<()> {
        let src_ino = self.resolve(src)?;
        let (src_parent, src_name) = self.resolve_parent(src)?;
        let src_name = Sym::new(src_name);
        let (dst_parent, dst_name) = self.resolve_parent(dst)?;
        let dst_name = Sym::new(dst_name);
        if let Some(&existing) = self.dir_entries_mut(dst_parent).get(&dst_name) {
            if existing != src_ino {
                if let Inode::Dir { entries, .. } = self.inode_ref(existing) {
                    if !entries.is_empty() {
                        return Err(FsError::NotEmpty(dst.to_string()));
                    }
                }
            }
        }
        self.dir_entries_mut(src_parent).remove(&src_name);
        let replaced = self.dir_entries_mut(dst_parent).insert(dst_name, src_ino);
        if let Some(old) = replaced {
            if old != src_ino {
                self.drop_if_unreferenced(old);
            }
        }
        Ok(())
    }

    /// `link`: create a hard link `dst` to the file at `src`.
    pub fn link(&mut self, src: &str, dst: &str) -> FsResult<()> {
        let src_ino = self.resolve(src)?;
        if self.inode_ref(src_ino).is_dir() {
            return Err(FsError::IsADirectory(src.to_string()));
        }
        let (dst_parent, dst_name) = self.resolve_parent(dst)?;
        let dst_name = Sym::new(dst_name);
        if self.dir_entries_mut(dst_parent).contains_key(&dst_name) {
            return Err(FsError::AlreadyExists(dst.to_string()));
        }
        self.dir_entries_mut(dst_parent).insert(dst_name, src_ino);
        Ok(())
    }

    /// `unlink`: remove one name; the inode is freed when no directory
    /// entry references it any more.
    pub fn unlink(&mut self, path: &str) -> FsResult<()> {
        let ino = self.resolve(path)?;
        if self.inode_ref(ino).is_dir() {
            return Err(FsError::IsADirectory(path.to_string()));
        }
        let (parent, name) = self.resolve_parent(path)?;
        let name = Sym::new(name);
        self.dir_entries_mut(parent).remove(&name);
        self.drop_if_unreferenced(ino);
        Ok(())
    }

    /// `rmdir`: remove an empty directory.
    pub fn rmdir(&mut self, path: &str) -> FsResult<()> {
        let ino = self.resolve(path)?;
        match self.inode_ref(ino) {
            Inode::Dir { entries, .. } => {
                if !entries.is_empty() {
                    return Err(FsError::NotEmpty(path.to_string()));
                }
            }
            Inode::File { .. } => return Err(FsError::NotADirectory(path.to_string())),
        }
        let (parent, name) = self.resolve_parent(path)?;
        let name = Sym::new(name);
        self.dir_entries_mut(parent).remove(&name);
        self.inodes_mut().remove(&ino);
        Ok(())
    }

    /// `setxattr`.
    pub fn setxattr(&mut self, path: &str, key: &str, value: &[u8]) -> FsResult<()> {
        let ino = self.resolve(path)?;
        self.inode_mut(ino)
            .xattrs_mut()
            .insert(Sym::new(key), value.to_vec());
        Ok(())
    }

    /// `removexattr`.
    pub fn removexattr(&mut self, path: &str, key: &str) -> FsResult<()> {
        let ino = self.resolve(path)?;
        let removed = self.inode_mut(ino).xattrs_mut().remove(&Sym::new(key));
        if removed.is_none() {
            return Err(FsError::NoAttr(format!("{path}#{key}")));
        }
        Ok(())
    }

    /// Reference count of `ino` across all directories.
    fn nlink(&self, ino: Ino) -> usize {
        self.inodes
            .values()
            .filter_map(|i| match &**i {
                Inode::Dir { entries, .. } => Some(entries.values().filter(|&&e| e == ino).count()),
                Inode::File { .. } => None,
            })
            .sum()
    }

    fn drop_if_unreferenced(&mut self, ino: Ino) {
        if self.nlink(ino) == 0 {
            self.inodes_mut().remove(&ino);
        }
    }

    /// A canonical 64-bit digest of the full state. Two states compare
    /// equal iff their digests match (modulo hash collisions); ParaCrash
    /// uses digests to dedup crash states cheaply before falling back to a
    /// structural comparison. Memoized: repeated digests of an unmutated
    /// state (and of its unmutated forks) are O(1).
    ///
    /// One DFS collects the tree; [`Self::digest_reference`] is the
    /// historical string-keyed algorithm and hashes the same
    /// resolved-string stream, so digest-derived orderings (state
    /// dedup, cost-model fingerprints) are the same under either.
    pub fn digest(&self) -> u64 {
        *self.digest_memo.get_or_init(|| self.compute_digest())
    }

    /// Hash xattrs exactly as the historical `BTreeMap<String, Vec<u8>>`
    /// did: via a string-keyed view (`&str` hashes identically to
    /// `String`, and `BTreeMap` orders by the resolved key either way).
    fn hash_xattrs<H: Hasher>(xattrs: &BTreeMap<Sym, Vec<u8>>, h: &mut H) {
        let view: BTreeMap<&str, &Vec<u8>> = xattrs.iter().map(|(k, v)| (k.as_str(), v)).collect();
        view.hash(h);
    }

    fn hash_node<H: Hasher>(&self, node: &Inode, h: &mut H) {
        match node {
            Inode::File { data, xattrs } => {
                0u8.hash(h);
                data.hash(h);
                Self::hash_xattrs(xattrs, h);
            }
            Inode::Dir { xattrs, .. } => {
                1u8.hash(h);
                Self::hash_xattrs(xattrs, h);
            }
        }
    }

    fn compute_digest(&self) -> u64 {
        // Hash the *logical* tree (paths + contents), not raw inode
        // numbers: two states reached by different op interleavings must
        // compare equal when their visible trees match. One DFS collects
        // every (path, node) pair; sorting by path reproduces the walk()
        // order (and thus the exact naive hash stream) without
        // re-resolving each path from the root.
        let mut nodes: Vec<(String, &Inode)> = Vec::new();
        self.collect_nodes(ROOT_INO, "", &mut nodes);
        nodes.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (path, node) in nodes {
            path.hash(&mut h);
            self.hash_node(node, &mut h);
        }
        h.finish()
    }

    fn collect_nodes<'s>(&'s self, ino: Ino, prefix: &str, out: &mut Vec<(String, &'s Inode)>) {
        if let Inode::Dir { entries, .. } = self.inode_ref(ino) {
            for (name, child) in entries {
                let path = format!("{prefix}/{}", name.as_str());
                let node = self.inode_ref(*child);
                if node.is_dir() {
                    self.collect_nodes(*child, &path, out);
                }
                out.push((path, node));
            }
        }
    }

    /// The historical string-keyed digest: walk the sorted path list,
    /// re-resolve each path, hash. Kept verbatim as the reference
    /// `tests/intern_equivalence.rs` compares [`Self::digest`] against;
    /// unmemoized.
    #[doc(hidden)]
    pub fn digest_reference(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for path in self.walk() {
            path.hash(&mut h);
            if let Ok(ino) = self.resolve(&path) {
                self.hash_node(self.inode_ref(ino), &mut h);
            }
        }
        h.finish()
    }

    /// Logical equality: same visible tree (paths, kinds, contents,
    /// xattrs), ignoring inode numbering. This is the comparison the
    /// golden-master check uses.
    ///
    /// Structural recursion comparing interned name sets — O(1) per
    /// component, no path strings built. [`Self::same_tree_reference`]
    /// is the historical walk-both-trees comparison; the two agree
    /// because sym↔string is a bijection.
    pub fn same_tree(&self, other: &FsState) -> bool {
        self.same_subtree(ROOT_INO, other, ROOT_INO)
    }

    fn same_subtree(&self, a: Ino, other: &FsState, b: Ino) -> bool {
        match (self.inode_ref(a), other.inode_ref(b)) {
            (
                Inode::File {
                    data: da,
                    xattrs: xa,
                },
                Inode::File {
                    data: db,
                    xattrs: xb,
                },
            ) => da == db && xa == xb,
            (
                Inode::Dir {
                    entries: ea,
                    xattrs: xa,
                },
                Inode::Dir {
                    entries: eb,
                    xattrs: xb,
                },
            ) => {
                xa == xb
                    && ea.len() == eb.len()
                    && ea.iter().all(|(name, &ca)| {
                        eb.get(name)
                            .is_some_and(|&cb| self.same_subtree(ca, other, cb))
                    })
            }
            _ => false,
        }
    }

    /// The historical string-keyed comparison: walk both trees, resolve
    /// every path in each, compare node by node. Kept verbatim as the
    /// reference `tests/intern_equivalence.rs` compares
    /// [`Self::same_tree`] against.
    #[doc(hidden)]
    pub fn same_tree_reference(&self, other: &FsState) -> bool {
        let a = self.walk();
        if a != other.walk() {
            return false;
        }
        for path in &a {
            let (ia, ib) = (self.resolve(path), other.resolve(path));
            match (ia, ib) {
                (Ok(ia), Ok(ib)) => {
                    let (na, nb) = (self.inode_ref(ia), other.inode_ref(ib));
                    match (na, nb) {
                        (
                            Inode::File {
                                data: da,
                                xattrs: xa,
                            },
                            Inode::File {
                                data: db,
                                xattrs: xb,
                            },
                        ) => {
                            if da != db || xa != xb {
                                return false;
                            }
                        }
                        (Inode::Dir { xattrs: xa, .. }, Inode::Dir { xattrs: xb, .. }) => {
                            if xa != xb {
                                return false;
                            }
                        }
                        _ => return false,
                    }
                }
                _ => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs_with(paths: &[&str]) -> FsState {
        let mut fs = FsState::new();
        for p in paths {
            if let Some(dir) = p.rfind('/') {
                if dir > 0 {
                    fs.mkdir_all(&p[..dir]).unwrap();
                }
            }
            fs.creat(p).unwrap();
        }
        fs
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut fs = FsState::new();
        fs.creat("/foo").unwrap();
        fs.pwrite("/foo", 0, b"hello").unwrap();
        assert_eq!(fs.read("/foo").unwrap(), b"hello");
        fs.pwrite("/foo", 3, b"XYZ").unwrap();
        assert_eq!(fs.read("/foo").unwrap(), b"helXYZ");
    }

    #[test]
    fn pwrite_zero_fills_holes() {
        let mut fs = fs_with(&["/f"]);
        fs.pwrite("/f", 4, b"ab").unwrap();
        assert_eq!(fs.read("/f").unwrap(), &[0, 0, 0, 0, b'a', b'b']);
    }

    #[test]
    fn append_extends() {
        let mut fs = fs_with(&["/f"]);
        fs.append("/f", b"aa").unwrap();
        fs.append("/f", b"bb").unwrap();
        assert_eq!(fs.read("/f").unwrap(), b"aabb");
    }

    #[test]
    fn creat_truncates_existing() {
        let mut fs = fs_with(&["/f"]);
        fs.append("/f", b"data").unwrap();
        fs.creat("/f").unwrap();
        assert_eq!(fs.read("/f").unwrap(), b"");
    }

    #[test]
    fn rename_replaces_and_frees_target() {
        let mut fs = fs_with(&["/tmp", "/file"]);
        fs.pwrite("/tmp", 0, b"new").unwrap();
        fs.pwrite("/file", 0, b"old").unwrap();
        let inodes_before = fs.inode_count();
        fs.rename("/tmp", "/file").unwrap();
        assert!(!fs.exists("/tmp"));
        assert_eq!(fs.read("/file").unwrap(), b"new");
        assert_eq!(fs.inode_count(), inodes_before - 1);
    }

    #[test]
    fn rename_into_nonempty_dir_fails() {
        let mut fs = FsState::new();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/b").unwrap();
        fs.creat("/b/x").unwrap();
        assert_eq!(
            fs.rename("/a", "/b"),
            Err(FsError::NotEmpty("/b".to_string()))
        );
    }

    #[test]
    fn hard_links_share_content_until_last_unlink() {
        let mut fs = fs_with(&["/idfile"]);
        fs.mkdir("/dentries").unwrap();
        fs.link("/idfile", "/dentries/foo").unwrap();
        fs.pwrite("/idfile", 0, b"id").unwrap();
        assert_eq!(fs.read("/dentries/foo").unwrap(), b"id");
        fs.unlink("/idfile").unwrap();
        // Still alive through the second link.
        assert_eq!(fs.read("/dentries/foo").unwrap(), b"id");
        let n = fs.inode_count();
        fs.unlink("/dentries/foo").unwrap();
        assert_eq!(fs.inode_count(), n - 1);
    }

    #[test]
    fn xattrs_roundtrip() {
        let mut fs = fs_with(&["/f"]);
        fs.setxattr("/f", "user.stripe", b"128K").unwrap();
        assert_eq!(fs.getxattr("/f", "user.stripe").unwrap(), b"128K");
        fs.removexattr("/f", "user.stripe").unwrap();
        assert!(matches!(
            fs.getxattr("/f", "user.stripe"),
            Err(FsError::NoAttr(_))
        ));
    }

    #[test]
    fn rmdir_only_empty() {
        let mut fs = FsState::new();
        fs.mkdir("/d").unwrap();
        fs.creat("/d/f").unwrap();
        assert!(matches!(fs.rmdir("/d"), Err(FsError::NotEmpty(_))));
        fs.unlink("/d/f").unwrap();
        fs.rmdir("/d").unwrap();
        assert!(!fs.exists("/d"));
    }

    #[test]
    fn walk_lists_everything_sorted() {
        let mut fs = FsState::new();
        fs.mkdir("/b").unwrap();
        fs.creat("/b/z").unwrap();
        fs.creat("/a").unwrap();
        assert_eq!(fs.walk(), vec!["/a", "/b", "/b/z"]);
    }

    #[test]
    fn same_tree_ignores_inode_numbers() {
        // Build the same logical tree via different op orders.
        let mut a = FsState::new();
        a.creat("/x").unwrap();
        a.creat("/y").unwrap();
        let mut b = FsState::new();
        b.creat("/y").unwrap();
        b.creat("/x").unwrap();
        assert!(a.same_tree(&b));
        assert_eq!(a.digest(), b.digest());
        b.pwrite("/x", 0, b"!").unwrap();
        assert!(!a.same_tree(&b));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn apply_dispatches_all_ops() {
        let mut fs = FsState::new();
        let script = [
            FsOp::Mkdir { path: "/d".into() },
            FsOp::Creat {
                path: "/d/f".into(),
            },
            FsOp::Pwrite {
                path: "/d/f".into(),
                offset: 0,
                data: b"abc".to_vec(),
            },
            FsOp::Append {
                path: "/d/f".into(),
                data: b"de".to_vec(),
            },
            FsOp::Truncate {
                path: "/d/f".into(),
                size: 4,
            },
            FsOp::SetXattr {
                path: "/d/f".into(),
                key: "user.k".into(),
                value: b"v".to_vec(),
            },
            FsOp::Fsync {
                path: "/d/f".into(),
            },
            FsOp::Link {
                src: "/d/f".into(),
                dst: "/d/g".into(),
            },
            FsOp::Rename {
                src: "/d/g".into(),
                dst: "/d/h".into(),
            },
            FsOp::Unlink {
                path: "/d/h".into(),
            },
            FsOp::SyncFs,
        ];
        for op in &script {
            fs.apply(op).unwrap();
        }
        assert_eq!(fs.read("/d/f").unwrap(), b"abcd");
        assert!(!fs.exists("/d/h"));
    }

    #[test]
    fn apply_lenient_reports_failures() {
        let mut fs = FsState::new();
        let ops = [
            FsOp::Creat { path: "/ok".into() },
            FsOp::Unlink {
                path: "/missing".into(),
            },
        ];
        let failed = fs.apply_lenient(ops.iter());
        assert_eq!(failed.len(), 1);
        assert!(fs.exists("/ok"));
    }

    #[test]
    fn snapshot_is_independent() {
        let mut fs = fs_with(&["/f"]);
        let snap = fs.clone();
        fs.pwrite("/f", 0, b"mutated").unwrap();
        assert_eq!(snap.read("/f").unwrap(), b"");
        assert!(!snap.same_tree(&fs));
    }

    #[test]
    fn fork_is_independent_both_ways() {
        let mut fs = fs_with(&["/f", "/g"]);
        fs.pwrite("/f", 0, b"base").unwrap();
        let mut fork = fs.fork();
        fork.pwrite("/f", 0, b"FORK").unwrap();
        fs.pwrite("/g", 0, b"ORIG").unwrap();
        assert_eq!(fs.read("/f").unwrap(), b"base");
        assert_eq!(fork.read("/f").unwrap(), b"FORK");
        assert_eq!(fork.read("/g").unwrap(), b"");
    }

    #[test]
    fn fork_matches_deep_clone() {
        let mut fs = fs_with(&["/a/f"]);
        fs.setxattr("/a/f", "user.k", b"v").unwrap();
        let fork = fs.fork();
        let deep = fs.deep_clone();
        assert_eq!(fork, deep);
        assert!(fork.same_tree(&deep));
        assert_eq!(fork.digest(), deep.digest());
    }

    #[test]
    fn fast_digest_matches_naive_digest_value() {
        // The interned DFS digest and the historical walk+resolve digest
        // must agree on the exact value (not just equality classes), so
        // digest-derived orderings can't depend on which one ran.
        let mut fs = FsState::new();
        fs.mkdir_all("/a/b").unwrap();
        fs.creat("/a/b/f").unwrap();
        fs.pwrite("/a/b/f", 0, b"payload").unwrap();
        fs.setxattr("/a/b/f", "user.stripe", b"128K").unwrap();
        fs.setxattr("/a", "user.owner", b"mds0").unwrap();
        fs.creat("/a!edge").unwrap(); // '!' < '/': DFS order != sorted-path order
        fs.mkdir("/a!edge-dir").unwrap();
        fs.link("/a/b/f", "/a/hard").unwrap();
        assert_eq!(fs.digest(), fs.digest_reference());
        assert!(fs.same_tree_reference(&fs.fork()));
        assert!(fs.same_tree(&fs.fork()));
    }

    #[test]
    fn digest_memo_survives_fork_and_resets_on_mutation() {
        let mut fs = fs_with(&["/f"]);
        fs.pwrite("/f", 0, b"x").unwrap();
        let d0 = fs.digest();
        let fork = fs.fork();
        assert_eq!(fork.digest(), d0);
        fs.pwrite("/f", 0, b"y").unwrap();
        assert_ne!(fs.digest(), d0);
        // The fork still sees the original content and digest.
        assert_eq!(fork.digest(), d0);
        assert_eq!(fork.read("/f").unwrap(), b"x");
        // Reverting the mutation restores the original digest.
        fs.pwrite("/f", 0, b"x").unwrap();
        assert_eq!(fs.digest(), d0);
    }
}
