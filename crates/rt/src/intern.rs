//! Symbol interning: map strings to dense `u32` ids, once per process.
//!
//! The simulation hot path (directory entries, xattr names, PFS view
//! keys) used to key `BTreeMap<String, _>` everywhere, so every map
//! probe re-compared full path components byte by byte and every COW
//! unshare re-allocated every key. [`Sym`] replaces those keys with a
//! 4-byte `Copy` id: probes become integer compares, equality is O(1),
//! and cloning a directory map copies ids, not strings. Resolution back
//! to `&'static str` ([`Sym::as_str`]) is lock-free (two array loads)
//! and is only needed at the presentation boundary — reports, explain
//! bundles, `Display` impls, and anything that must iterate in
//! lexicographic order.
//!
//! # Determinism contract
//!
//! Ids are assigned in **first-intern order**. Within one process that
//! order is fixed (the table is append-only and bijective), but it is
//! *not* lexicographic and may depend on thread scheduling, so:
//!
//! - `Eq`/`Hash`/`Ord` on [`Sym`] are id-based and cheap — use them
//!   freely for map keys and set membership;
//! - anything **observable** (report text, digests, issue lists) must
//!   order by the **resolved string**, exactly as the pre-interning
//!   code did. `BTreeMap<Sym, _>` iterates in id order, which is an
//!   implementation detail — sort by [`Sym::as_str`] at the boundary.
//!
//! The string-keyed digest/comparison algorithms that interning replaced
//! are kept as directly callable reference functions next to their fast
//! paths (`simfs::FsState::{digest_reference, same_tree_reference}`);
//! `tests/intern_equivalence.rs` asserts the two agree on the same state.
//!
//! # Example
//!
//! ```
//! use pc_rt::intern::Sym;
//!
//! let a = Sym::new("/dentries/A");
//! let b = Sym::new("/dentries/A");
//! assert_eq!(a, b); // same string, same id
//! assert_eq!(a.as_str(), "/dentries/A");
//! ```

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// An append-only string table assigning dense ids in insertion order.
///
/// This is the engine under the global [`Sym`] interner, exposed
/// standalone so determinism properties (dense ids, insertion order,
/// idempotence) can be pinned on private tables in tests.
#[derive(Default)]
pub struct SymTable {
    lookup: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

impl SymTable {
    /// An empty table.
    pub fn new() -> SymTable {
        SymTable::default()
    }

    /// Intern `s`, returning its id (existing id if already present,
    /// the next dense id otherwise). Interned strings are leaked; the
    /// leak is bounded by the run's distinct-name working set.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.lookup.get(s) {
            return id;
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(self.strings.len()).expect("invariant: < 2^32 interned symbols");
        self.strings.push(leaked);
        self.lookup.insert(leaked, id);
        id
    }

    /// Resolve an id previously returned by [`SymTable::intern`].
    ///
    /// # Panics
    ///
    /// Panics if `id` was never handed out by this table.
    pub fn resolve(&self, id: u32) -> &'static str {
        self.strings[id as usize]
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

// Global interner: a mutex-guarded lookup map for writes, plus a
// two-level lock-free slot table for resolution. `Sym::as_str` must be
// cheap enough to call inside comparison loops (sorting a directory for
// output), so it cannot take a lock: ids index into fixed-size chunks
// of `OnceLock<&'static str>` slots, published with release/acquire
// semantics by the (locked) writer.
const CHUNK: usize = 1024;
const MAX_CHUNKS: usize = 4096; // 4M distinct symbols — far beyond any run

type Chunk = Box<[OnceLock<&'static str>; CHUNK]>;

struct Global {
    lookup: RwLock<HashMap<&'static str, u32>>,
    chunks: Box<[OnceLock<Chunk>; MAX_CHUNKS]>,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        lookup: RwLock::new(HashMap::new()),
        chunks: Box::new(std::array::from_fn(|_| OnceLock::new())),
    })
}

/// An interned string: a 4-byte id into the process-global symbol table.
///
/// `Eq`/`Hash`/`Ord` are id-based (O(1)). Id order is first-intern
/// order, not lexicographic — see the module-level determinism
/// contract: sort by [`Sym::as_str`] for any observable output.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

impl Sym {
    /// Intern `s` in the global table. Hits (the overwhelmingly common
    /// case after warm-up) take only a shared read lock.
    pub fn new(s: &str) -> Sym {
        let g = global();
        if let Some(&id) = g.lookup.read().expect("intern lock").get(s) {
            return Sym(id);
        }
        let mut lookup = g.lookup.write().expect("intern lock");
        // Double-check: another thread may have interned it between the
        // read unlock and the write lock.
        if let Some(&id) = lookup.get(s) {
            return Sym(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(lookup.len()).expect("invariant: < 2^32 interned symbols");
        let (ci, si) = (id as usize / CHUNK, id as usize % CHUNK);
        assert!(ci < MAX_CHUNKS, "invariant: symbol table capacity");
        let chunk = g.chunks[ci].get_or_init(|| Box::new(std::array::from_fn(|_| OnceLock::new())));
        chunk[si].set(leaked).expect("invariant: fresh slot");
        lookup.insert(leaked, id);
        Sym(id)
    }

    /// The interned string. Lock-free: two array loads.
    pub fn as_str(self) -> &'static str {
        let g = global();
        let (ci, si) = (self.0 as usize / CHUNK, self.0 as usize % CHUNK);
        g.chunks[ci]
            .get()
            .and_then(|c| c[si].get())
            .copied()
            .expect("invariant: Sym id was handed out by intern()")
    }

    /// The raw id. Stable for the life of the process, but assignment
    /// order can depend on thread scheduling: use only for
    /// equality/hashing within a run, never for ordered output.
    pub fn id(self) -> u32 {
        self.0
    }
}

impl std::fmt::Debug for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sym({}:{:?})", self.0, self.as_str())
    }
}

impl std::fmt::Display for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_string_same_id_and_round_trip() {
        let a = Sym::new("alpha/beta");
        let b = Sym::new("alpha/beta");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "alpha/beta");
    }

    #[test]
    fn private_table_assigns_dense_insertion_order_ids() {
        let mut t = SymTable::new();
        assert!(t.is_empty());
        assert_eq!(t.intern("x"), 0);
        assert_eq!(t.intern("y"), 1);
        assert_eq!(t.intern("x"), 0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(1), "y");
    }

    #[test]
    fn concurrent_interning_is_bijective_and_stable() {
        // Pre-intern a vocabulary sequentially, pinning each string's
        // id; then hammer the same vocabulary from many threads plus
        // fresh thread-private strings. Pinned ids must not shift
        // (append-only table) and round-trips must hold from every
        // thread — the seq-vs-par determinism pin for the global table.
        let vocab: Vec<String> = (0..64).map(|i| format!("conc-test/{i}")).collect();
        let pinned: Vec<Sym> = vocab.iter().map(|s| Sym::new(s)).collect();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let vocab = &vocab;
                let pinned = &pinned;
                scope.spawn(move || {
                    for rep in 0..50 {
                        let i = (t * 31 + rep * 7) % vocab.len();
                        let s = Sym::new(&vocab[i]);
                        assert_eq!(s, pinned[i]);
                        assert_eq!(s.as_str(), vocab[i]);
                        let fresh = Sym::new(&format!("conc-test/fresh-{t}-{rep}"));
                        assert_eq!(fresh.as_str(), format!("conc-test/fresh-{t}-{rep}"));
                    }
                });
            }
        });
        for (s, orig) in pinned.iter().zip(&vocab) {
            assert_eq!(s.as_str(), orig);
        }
    }

    #[test]
    fn chunk_boundary_crossing_resolves() {
        // Force ids across at least one chunk boundary.
        let start = Sym::new("chunk-test/0").id();
        let mut last = Sym::new("chunk-test/0");
        for i in 1..=(CHUNK as u32 + 8) {
            last = Sym::new(&format!("chunk-test/{i}"));
        }
        assert!(last.id() >= start + CHUNK as u32);
        assert_eq!(last.as_str(), format!("chunk-test/{}", CHUNK + 8));
    }
}
