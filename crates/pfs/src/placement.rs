//! Metadata and data placement policy.
//!
//! Table 3's "Sensitivity" column notes that several bugs only trigger
//! under particular *file distribution* patterns (e.g. bug 5 needs the
//! two directories of the RC program on *different* metadata servers;
//! bug 6 needs the two files of the WAL program on *different* storage
//! servers). The paper therefore "tests POSIX programs with different
//! distribution patterns" (§6.2). [`Placement`] makes that pattern an
//! explicit, overridable input.

use pc_rt::hash::{fnv1a_fold, FNV_OFFSET_BASIS, LONG_PRIME};
use pc_rt::intern::Sym;
use std::collections::BTreeMap;

/// Deterministic placement policy for directories (→ metadata server)
/// and files (→ first stripe target).
///
/// Override maps are keyed by interned [`Sym`]s: placement is probed
/// for every striped write a model replays, so the lookup compares
/// 4-byte ids instead of path strings. Interning is bijective, so the
/// derived `Eq` is unchanged from the string-keyed representation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Placement {
    /// Explicit directory → metadata-server-index overrides
    /// (index into the topology's metadata server list).
    dir_overrides: BTreeMap<Sym, usize>,
    /// Explicit file → first-storage-server-index overrides
    /// (index into the topology's storage server list).
    file_overrides: BTreeMap<Sym, usize>,
}

impl Placement {
    /// Default hash-based placement.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pin a directory onto the `idx`-th metadata server.
    pub fn pin_dir(mut self, dir: impl AsRef<str>, idx: usize) -> Self {
        self.dir_overrides.insert(Sym::new(dir.as_ref()), idx);
        self
    }

    /// Pin a file's first stripe onto the `idx`-th storage server.
    pub fn pin_file(mut self, file: impl AsRef<str>, idx: usize) -> Self {
        self.file_overrides.insert(Sym::new(file.as_ref()), idx);
        self
    }

    /// Explicit pin for a file, if any.
    pub fn file_pin(&self, file: &str) -> Option<usize> {
        self.file_overrides.get(&Sym::new(file)).copied()
    }

    /// Explicit pin for a directory, if any.
    pub fn dir_pin(&self, dir: &str) -> Option<usize> {
        self.dir_overrides.get(&Sym::new(dir)).copied()
    }

    /// Stable hash — placement must be identical across runs and across
    /// the fresh replays used for golden-state generation. Every index
    /// so far was computed with [`LONG_PRIME`], so it stays.
    fn fnv(s: &str) -> u64 {
        fnv1a_fold(FNV_OFFSET_BASIS, s.as_bytes(), LONG_PRIME)
    }

    /// Index (into the metadata-server list) owning directory `dir`.
    pub fn dir_index(&self, dir: &str, n_meta: usize) -> usize {
        assert!(n_meta > 0, "cluster has no metadata servers");
        self.dir_pin(dir)
            .unwrap_or_else(|| (Self::fnv(dir) as usize) % n_meta)
            % n_meta
    }

    /// Index (into the storage-server list) holding the first stripe of
    /// `file`; subsequent stripes go round-robin from there.
    pub fn file_index(&self, file: &str, n_storage: usize) -> usize {
        assert!(n_storage > 0, "cluster has no storage servers");
        self.file_pin(file)
            .unwrap_or_else(|| (Self::fnv(file) as usize) % n_storage)
            % n_storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic() {
        let p = Placement::new();
        assert_eq!(p.dir_index("/A", 2), p.dir_index("/A", 2));
        assert_eq!(p.file_index("/foo", 4), p.file_index("/foo", 4));
    }

    #[test]
    fn overrides_win() {
        let p = Placement::new().pin_dir("/A", 1).pin_file("/foo", 3);
        assert_eq!(p.dir_index("/A", 2), 1);
        assert_eq!(p.file_index("/foo", 4), 3);
        // Overrides are taken modulo the server count.
        assert_eq!(p.file_index("/foo", 2), 1);
    }
}
