//! Generated workloads: the fuzzer's bounded operation vocabularies.
//!
//! The paper's eleven programs are *representative* workloads; this
//! module provides the complementary B3-style **bounded black-box**
//! vocabulary (cf. CrashMonkey/B3): every sequence of up to `bound`
//! operations drawn from a small, argument-bounded POSIX vocabulary
//! over a fixed file set, plus short HDF5 and MPI-IO call sequences.
//! `paracrash::fuzz::bounded_sequences` enumerates the sequences in a
//! canonical radix order with namespace-validity pruning, so the corpus
//! for a given bound is a pure function of this file — no RNG anywhere
//! in enumeration, and the seeded [`sample`] mode draws a deterministic
//! subset via `paracrash::fuzz::sample_indices`.
//!
//! Bounding decisions (argument bounding is what makes exhaustive
//! enumeration tractable — B3's insight):
//!
//! * **File set**: directory `/A`, files `/foo` and `/A/bar` pre-created
//!   with known content; one creatable file `/baz` and one creatable
//!   directory `/B`.
//! * **`link` is omitted**: the PFS call vocabulary has no hard-link
//!   operation (BeeGFS's idfile links are internal to the model).
//! * **`fdatasync` lowers to `Fsync`**: the simulated stores have no
//!   separate metadata flush, so the two ops produce byte-identical
//!   traces — the duplicate is kept in the vocabulary deliberately, as
//!   a live demonstration that the corpus dedups by *behavior* (the
//!   Pathfinder-style representative-testing collapse).
//! * **HDF5/MPI-IO sequences are one op shorter** than the POSIX bound:
//!   each library call expands to many PFS calls, so the crash-state
//!   space per op is far larger.

use crate::fskind::FsKind;
use crate::params::Params;
use h5sim::{H5File, H5Spec};
use mpiio::MpiIo;
use paracrash::fuzz::{bounded_sequences, sample_indices};
use paracrash::Stack;
use pfs::PfsCall;
use std::collections::BTreeSet;

/// Length of the initial content written to the pre-created files; the
/// `append` ops write at this offset.
const INIT_LEN: usize = 32;

/// One bounded POSIX operation (paths are drawn from the fixed file
/// set, offsets and data from fixed slots — B3-style argument bounding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GenOp {
    /// `creat(path)` of a not-yet-existing file.
    Creat(&'static str),
    /// `mkdir(path)` of a not-yet-existing directory.
    Mkdir(&'static str),
    /// `pwrite(path, 0, …)` replacing the head of the file.
    Overwrite(&'static str),
    /// `pwrite(path, INIT_LEN, …)` past the initial content.
    Append(&'static str),
    /// `rename(src, dst)`.
    Rename(&'static str, &'static str),
    /// `unlink(path)`.
    Unlink(&'static str),
    /// `fsync(path)`.
    Fsync(&'static str),
    /// `fdatasync(path)` — lowers to the same PFS `Fsync` (see module
    /// docs: a deliberate vocabulary duplicate).
    Fdatasync(&'static str),
}

impl GenOp {
    /// Canonical label, e.g. `creat(/baz)` — stable across releases
    /// (it keys findings bundles and the pinned-corpus gate).
    pub fn label(&self) -> String {
        match self {
            GenOp::Creat(p) => format!("creat({p})"),
            GenOp::Mkdir(p) => format!("mkdir({p})"),
            GenOp::Overwrite(p) => format!("overwrite({p})"),
            GenOp::Append(p) => format!("append({p})"),
            GenOp::Rename(s, d) => format!("rename({s},{d})"),
            GenOp::Unlink(p) => format!("unlink({p})"),
            GenOp::Fsync(p) => format!("fsync({p})"),
            GenOp::Fdatasync(p) => format!("fdatasync({p})"),
        }
    }
}

/// The bounded POSIX vocabulary (17 operations; order fixes the
/// enumeration order, so append-only changes keep old corpora stable).
pub fn posix_vocabulary() -> Vec<GenOp> {
    vec![
        GenOp::Creat("/baz"),
        GenOp::Mkdir("/B"),
        GenOp::Overwrite("/foo"),
        GenOp::Overwrite("/A/bar"),
        GenOp::Overwrite("/baz"),
        GenOp::Append("/foo"),
        GenOp::Append("/A/bar"),
        GenOp::Rename("/foo", "/baz"),
        GenOp::Rename("/foo", "/A/bar"),
        GenOp::Rename("/A/bar", "/baz"),
        GenOp::Rename("/A", "/B"),
        GenOp::Unlink("/foo"),
        GenOp::Unlink("/A/bar"),
        GenOp::Unlink("/baz"),
        GenOp::Fsync("/foo"),
        GenOp::Fsync("/A/bar"),
        GenOp::Fdatasync("/foo"),
    ]
}

/// Namespace state for validity pruning; mirrors the semantics of the
/// checker's own executability filter (`core::stack`), strengthened to
/// also reject creat-over-existing and rename-over-existing-directory so
/// every admitted sequence replays panic-free on every PFS model.
struct Namespace {
    dirs: BTreeSet<String>,
    files: BTreeSet<String>,
}

impl Namespace {
    fn initial() -> Namespace {
        let mut dirs = BTreeSet::new();
        dirs.insert("/".to_string());
        dirs.insert("/A".to_string());
        let mut files = BTreeSet::new();
        files.insert("/foo".to_string());
        files.insert("/A/bar".to_string());
        Namespace { dirs, files }
    }

    fn parent(p: &str) -> String {
        match p.rfind('/') {
            Some(0) => "/".into(),
            Some(i) => p[..i].to_string(),
            None => "/".into(),
        }
    }

    /// Apply one op; `false` if it is not executable in this state.
    fn apply(&mut self, op: &GenOp) -> bool {
        match op {
            GenOp::Creat(p) => {
                if !self.dirs.contains(&Self::parent(p))
                    || self.dirs.contains(*p)
                    || self.files.contains(*p)
                {
                    return false;
                }
                self.files.insert((*p).into());
                true
            }
            GenOp::Mkdir(p) => {
                if !self.dirs.contains(&Self::parent(p))
                    || self.dirs.contains(*p)
                    || self.files.contains(*p)
                {
                    return false;
                }
                self.dirs.insert((*p).into());
                true
            }
            GenOp::Overwrite(p) | GenOp::Append(p) | GenOp::Fsync(p) | GenOp::Fdatasync(p) => {
                self.files.contains(*p)
            }
            GenOp::Unlink(p) => self.files.remove(*p),
            GenOp::Rename(src, dst) => {
                if self.files.remove(*src) {
                    // File rename: dst may be an existing file (POSIX
                    // replace) but not a directory.
                    if !self.dirs.contains(&Self::parent(dst)) || self.dirs.contains(*dst) {
                        return false;
                    }
                    self.files.insert((*dst).into());
                    true
                } else if self.dirs.contains(*src) {
                    // Directory rename: require a fresh dst, rewrite
                    // children.
                    if !self.dirs.contains(&Self::parent(dst))
                        || self.dirs.contains(*dst)
                        || self.files.contains(*dst)
                    {
                        return false;
                    }
                    self.dirs.remove(*src);
                    let prefix = format!("{src}/");
                    let moved: Vec<String> = self
                        .dirs
                        .iter()
                        .chain(self.files.iter())
                        .filter(|p| p.starts_with(&prefix))
                        .cloned()
                        .collect();
                    for m in moved {
                        let new = format!("{dst}{}", &m[src.len()..]);
                        if self.dirs.remove(&m) {
                            self.dirs.insert(new);
                        } else {
                            self.files.remove(&m);
                            self.files.insert(new);
                        }
                    }
                    self.dirs.insert((*dst).into());
                    true
                } else {
                    false
                }
            }
        }
    }
}

fn posix_valid(seq: &[GenOp]) -> bool {
    let mut ns = Namespace::initial();
    seq.iter().all(|op| ns.apply(op))
}

/// One bounded HDF5 operation over the common preamble state (file with
/// groups `g1`/`g2` and datasets `g1/d1`, `g1/d2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum H5GenOp {
    /// `H5Dcreate("g1/d3")` from rank 0.
    Create,
    /// `H5Ldelete("g1/d2")`.
    Delete,
    /// `H5Lmove("g1/d2" → "g2/d2")`.
    Rename,
    /// `H5Dset_extent` doubling `g1/d2`.
    Resize,
    /// Collective `H5Dcreate("g1/d3")` from all ranks.
    CreateParallel,
    /// Collective `H5Dset_extent` doubling `g1/d2`.
    ResizeParallel,
}

impl H5GenOp {
    /// Canonical label, e.g. `h5create(g1/d3)`.
    pub fn label(&self) -> &'static str {
        match self {
            H5GenOp::Create => "h5create(g1/d3)",
            H5GenOp::Delete => "h5delete(g1/d2)",
            H5GenOp::Rename => "h5rename(g1/d2,g2/d2)",
            H5GenOp::Resize => "h5resize(g1/d2)",
            H5GenOp::CreateParallel => "h5create-par(g1/d3)",
            H5GenOp::ResizeParallel => "h5resize-par(g1/d2)",
        }
    }
}

/// The bounded HDF5 vocabulary.
pub fn h5_vocabulary() -> Vec<H5GenOp> {
    vec![
        H5GenOp::Create,
        H5GenOp::Delete,
        H5GenOp::Rename,
        H5GenOp::Resize,
        H5GenOp::CreateParallel,
        H5GenOp::ResizeParallel,
    ]
}

/// Dataset-existence validity for HDF5 sequences: `g1/d3` must not
/// exist before a create and must for a delete/rename/resize target;
/// each dataset resizes at most once (the doubled extent is absolute).
fn h5_valid(seq: &[H5GenOp]) -> bool {
    let mut d2_in_g1 = true;
    let mut d2_in_g2 = false;
    let mut d3 = false;
    let mut d2_resized = false;
    for op in seq {
        match op {
            H5GenOp::Create | H5GenOp::CreateParallel => {
                if d3 {
                    return false;
                }
                d3 = true;
            }
            H5GenOp::Delete => {
                if !d2_in_g1 {
                    return false;
                }
                d2_in_g1 = false;
            }
            H5GenOp::Rename => {
                if !d2_in_g1 || d2_in_g2 {
                    return false;
                }
                d2_in_g1 = false;
                d2_in_g2 = true;
            }
            H5GenOp::Resize | H5GenOp::ResizeParallel => {
                if !d2_in_g1 || d2_resized {
                    return false;
                }
                d2_resized = true;
            }
        }
    }
    true
}

/// One bounded MPI-IO operation on the preamble file `/mpi.dat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MpiGenOp {
    /// `MPI_File_write_at` from rank 0 at offset 0.
    WriteAt0,
    /// `MPI_File_write_at` from the last rank at one stripe's offset
    /// (lands on a different storage server than rank 0's write).
    WriteAt1,
    /// `MPI_File_sync` from rank 0.
    Sync,
    /// `MPI_Barrier` across all ranks (adds happens-before edges only).
    Barrier,
    /// Collective `MPI_File_close`.
    Close,
}

impl MpiGenOp {
    /// Canonical label, e.g. `mpi-write@0(r0)`.
    pub fn label(&self) -> &'static str {
        match self {
            MpiGenOp::WriteAt0 => "mpi-write@0(r0)",
            MpiGenOp::WriteAt1 => "mpi-write@stripe(r1)",
            MpiGenOp::Sync => "mpi-sync(r0)",
            MpiGenOp::Barrier => "mpi-barrier",
            MpiGenOp::Close => "mpi-close",
        }
    }
}

/// The bounded MPI-IO vocabulary.
pub fn mpi_vocabulary() -> Vec<MpiGenOp> {
    vec![
        MpiGenOp::WriteAt0,
        MpiGenOp::WriteAt1,
        MpiGenOp::Sync,
        MpiGenOp::Barrier,
        MpiGenOp::Close,
    ]
}

/// MPI-IO validity: nothing follows the collective close.
fn mpi_valid(seq: &[MpiGenOp]) -> bool {
    match seq.iter().position(|op| *op == MpiGenOp::Close) {
        Some(i) => i == seq.len() - 1,
        None => true,
    }
}

/// One generated workload: an operation sequence from one of the three
/// vocabularies, runnable on any [`FsKind`] like a paper [`crate::Program`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GeneratedWorkload {
    /// A POSIX operation sequence.
    Posix(Vec<GenOp>),
    /// An HDF5 call sequence (through `h5sim` + `mpiio`).
    H5(Vec<H5GenOp>),
    /// An MPI-IO call sequence (through `mpiio` only).
    Mpi(Vec<MpiGenOp>),
}

impl GeneratedWorkload {
    /// Canonical label, e.g. `posix:creat(/baz)+fsync(/foo)` — the
    /// stable identity used in reports, findings bundles and the
    /// pinned-corpus gate.
    pub fn label(&self) -> String {
        match self {
            GeneratedWorkload::Posix(ops) => format!(
                "posix:{}",
                ops.iter().map(|o| o.label()).collect::<Vec<_>>().join("+")
            ),
            GeneratedWorkload::H5(ops) => format!(
                "h5:{}",
                ops.iter().map(|o| o.label()).collect::<Vec<_>>().join("+")
            ),
            GeneratedWorkload::Mpi(ops) => format!(
                "mpi:{}",
                ops.iter().map(|o| o.label()).collect::<Vec<_>>().join("+")
            ),
        }
    }

    /// Execute the workload (preamble + traced test phase) on `fs`,
    /// mirroring [`crate::Program::run`].
    pub fn run(&self, fs: FsKind, params: &Params) -> Stack {
        match self {
            GeneratedWorkload::Posix(ops) => run_posix(ops, fs, params),
            GeneratedWorkload::H5(ops) => run_h5_gen(ops, fs, params),
            GeneratedWorkload::Mpi(ops) => run_mpi_gen(ops, fs, params),
        }
    }
}

fn run_posix(ops: &[GenOp], fs: FsKind, params: &Params) -> Stack {
    let mut stack = Stack::new(fs.build(params));
    // Preamble: the fixed file set with known content.
    stack.posix(0, PfsCall::Mkdir { path: "/A".into() });
    for path in ["/foo", "/A/bar"] {
        stack.posix(0, PfsCall::Creat { path: path.into() });
        stack.posix(
            0,
            PfsCall::Pwrite {
                path: path.into(),
                offset: 0,
                data: vec![b'i'; INIT_LEN],
            },
        );
        stack.posix(0, PfsCall::Close { path: path.into() });
    }
    stack.seal_preamble();
    for (i, op) in ops.iter().enumerate() {
        let call = match op {
            GenOp::Creat(p) => PfsCall::Creat { path: (*p).into() },
            GenOp::Mkdir(p) => PfsCall::Mkdir { path: (*p).into() },
            GenOp::Overwrite(p) => PfsCall::Pwrite {
                path: (*p).into(),
                offset: 0,
                // Distinct data per position so behaviors that differ
                // only in op order stay distinguishable.
                data: format!("gen-over-{i}").into_bytes(),
            },
            GenOp::Append(p) => PfsCall::Pwrite {
                path: (*p).into(),
                offset: INIT_LEN as u64,
                data: format!("gen-app-{i}").into_bytes(),
            },
            GenOp::Rename(s, d) => PfsCall::Rename {
                src: (*s).into(),
                dst: (*d).into(),
            },
            GenOp::Unlink(p) => PfsCall::Unlink { path: (*p).into() },
            GenOp::Fsync(p) | GenOp::Fdatasync(p) => PfsCall::Fsync { path: (*p).into() },
        };
        stack.posix(0, call);
    }
    stack
}

fn run_h5_gen(ops: &[H5GenOp], fs: FsKind, params: &Params) -> Stack {
    let mut stack = Stack::new(fs.build(params));
    stack.h5_path = Some("/file.h5".into());
    stack.h5_ranks = params.ranks();
    stack.h5_spec = H5Spec {
        elem: 8,
        seg: params.h5_seg,
    };
    let ranks = params.ranks();
    let dims = params.dims;

    // The common initial state of every H5 program: two groups, two
    // datasets in g1.
    let mut file = {
        let mut mpi = MpiIo::new(stack.pfs.as_mut(), &mut stack.rec, &mut stack.calls);
        let mut f = H5File::create(&mut mpi, &mut stack.h5, &ranks, "/file.h5", stack.h5_spec);
        f.create_group(&mut mpi, &mut stack.h5, ranks[0], "g1");
        f.create_group(&mut mpi, &mut stack.h5, ranks[0], "g2");
        for i in 1..=2u32 {
            f.create_dataset(
                &mut mpi,
                &mut stack.h5,
                ranks[0],
                "g1",
                &format!("d{i}"),
                dims,
                dims,
            );
        }
        f.close(&mut mpi, &mut stack.h5, &ranks);
        f
    };
    stack.seal_preamble();

    {
        let mut mpi = MpiIo::new(stack.pfs.as_mut(), &mut stack.rec, &mut stack.calls);
        file.open(&mut mpi, &ranks);
        for op in ops {
            match op {
                H5GenOp::Create => {
                    file.create_dataset(&mut mpi, &mut stack.h5, ranks[0], "g1", "d3", dims, dims);
                }
                H5GenOp::Delete => {
                    file.delete_dataset(&mut mpi, &mut stack.h5, ranks[0], "g1", "d2");
                }
                H5GenOp::Rename => {
                    file.rename_dataset(&mut mpi, &mut stack.h5, ranks[0], "g1", "d2", "g2", "d2");
                }
                H5GenOp::Resize => {
                    file.resize_dataset(
                        &mut mpi,
                        &mut stack.h5,
                        ranks[0],
                        "g1",
                        "d2",
                        dims * 2,
                        dims * 2,
                    );
                }
                H5GenOp::CreateParallel => {
                    file.create_dataset_parallel(
                        &mut mpi,
                        &mut stack.h5,
                        &ranks,
                        "g1",
                        "d3",
                        dims,
                        dims,
                    );
                }
                H5GenOp::ResizeParallel => {
                    file.resize_dataset_parallel(
                        &mut mpi,
                        &mut stack.h5,
                        &ranks,
                        "g1",
                        "d2",
                        dims * 2,
                        dims * 2,
                    );
                }
            }
        }
    }
    stack
}

fn run_mpi_gen(ops: &[MpiGenOp], fs: FsKind, params: &Params) -> Stack {
    let mut stack = Stack::new(fs.build(params));
    let ranks = params.ranks();
    let path = "/mpi.dat";
    {
        let mut mpi = MpiIo::new(stack.pfs.as_mut(), &mut stack.rec, &mut stack.calls);
        mpi.file_open(&ranks, path, true, None);
        mpi.file_write_at(ranks[0], path, 0, &[b'i'; INIT_LEN], None);
        mpi.file_close(&ranks, path, None);
    }
    stack.seal_preamble();
    {
        let mut mpi = MpiIo::new(stack.pfs.as_mut(), &mut stack.rec, &mut stack.calls);
        mpi.file_open(&ranks, path, false, None);
        let last = *ranks.last().expect("at least one rank");
        for (i, op) in ops.iter().enumerate() {
            match op {
                MpiGenOp::WriteAt0 => {
                    let data = format!("mpi-w0-{i}").into_bytes();
                    mpi.file_write_at(ranks[0], path, 0, &data, None);
                }
                MpiGenOp::WriteAt1 => {
                    let data = format!("mpi-w1-{i}").into_bytes();
                    mpi.file_write_at(last, path, params.stripe, &data, None);
                }
                MpiGenOp::Sync => {
                    mpi.file_sync(ranks[0], path, None);
                }
                MpiGenOp::Barrier => {
                    mpi.barrier(&ranks, None);
                }
                MpiGenOp::Close => {
                    mpi.file_close(&ranks, path, None);
                }
            }
        }
    }
    stack
}

/// All valid POSIX sequences of length 1..=`bound`, in canonical order.
pub fn posix_sequences(bound: usize) -> Vec<GeneratedWorkload> {
    bounded_sequences(&posix_vocabulary(), bound, posix_valid)
        .into_iter()
        .map(GeneratedWorkload::Posix)
        .collect()
}

/// All valid HDF5 sequences of length 1..=`max(1, bound-1)` (one op
/// shorter than the POSIX bound — see module docs).
pub fn h5_sequences(bound: usize) -> Vec<GeneratedWorkload> {
    let b = bound.saturating_sub(1).max(1);
    bounded_sequences(&h5_vocabulary(), b, h5_valid)
        .into_iter()
        .map(GeneratedWorkload::H5)
        .collect()
}

/// All valid MPI-IO sequences of length 1..=`max(1, bound-1)`.
pub fn mpi_sequences(bound: usize) -> Vec<GeneratedWorkload> {
    let b = bound.saturating_sub(1).max(1);
    bounded_sequences(&mpi_vocabulary(), b, mpi_valid)
        .into_iter()
        .map(GeneratedWorkload::Mpi)
        .collect()
}

/// The full generated corpus for a bound: POSIX, then HDF5, then MPI-IO
/// sequences, each in canonical enumeration order.
pub fn corpus(bound: usize) -> Vec<GeneratedWorkload> {
    let mut all = posix_sequences(bound);
    all.extend(h5_sequences(bound));
    all.extend(mpi_sequences(bound));
    all
}

/// A seeded deterministic sample of `n` workloads from the bound's
/// corpus (the nightly tier's mode); `n >= corpus size` returns the
/// whole corpus. Order follows the canonical enumeration order.
pub fn sample(bound: usize, seed: u64, n: usize) -> Vec<GeneratedWorkload> {
    let all = corpus(bound);
    let idx = sample_indices(all.len(), n, seed);
    idx.into_iter().map(|i| all[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn posix_vocabulary_is_stable() {
        let vocab = posix_vocabulary();
        assert_eq!(vocab.len(), 17);
        // The enumeration order (and hence the corpus) keys off this
        // exact order; changing it invalidates pinned findings.
        assert_eq!(vocab[0].label(), "creat(/baz)");
        assert_eq!(vocab[16].label(), "fdatasync(/foo)");
    }

    #[test]
    fn invalid_prefixes_are_pruned() {
        // /baz does not exist initially.
        assert!(!posix_valid(&[GenOp::Overwrite("/baz")]));
        assert!(posix_valid(&[
            GenOp::Creat("/baz"),
            GenOp::Overwrite("/baz")
        ]));
        // Directory rename rewrites children.
        assert!(!posix_valid(&[
            GenOp::Rename("/A", "/B"),
            GenOp::Fsync("/A/bar")
        ]));
        // Creat over an existing file is excluded from the vocabulary's
        // semantics (fresh creates only).
        assert!(!posix_valid(&[GenOp::Creat("/baz"), GenOp::Creat("/baz")]));
    }

    #[test]
    fn every_bound2_posix_workload_replays_panic_free() {
        let params = Params::quick();
        for w in posix_sequences(2) {
            let stack = w.run(FsKind::BeeGfs, &params);
            assert!(!stack.calls.is_empty(), "{}", w.label());
        }
    }

    #[test]
    fn h5_and_mpi_sequences_replay_panic_free() {
        let params = Params::quick();
        for w in h5_sequences(3).into_iter().chain(mpi_sequences(3)) {
            let stack = w.run(FsKind::OrangeFs, &params);
            assert!(!stack.rec.is_empty(), "{}", w.label());
        }
    }

    #[test]
    fn labels_are_unique_across_the_corpus() {
        let all = corpus(2);
        let labels: std::collections::BTreeSet<String> = all.iter().map(|w| w.label()).collect();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn sampling_is_a_deterministic_subset() {
        let s1 = sample(2, 42, 10);
        let s2 = sample(2, 42, 10);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 10);
        let all = corpus(2);
        assert!(s1.iter().all(|w| all.contains(w)));
        assert_ne!(sample(2, 43, 10), s1, "different seed, different draw");
    }

    #[test]
    fn h5_validity_tracks_dataset_existence() {
        assert!(h5_valid(&[H5GenOp::Delete, H5GenOp::Create]));
        assert!(!h5_valid(&[H5GenOp::Delete, H5GenOp::Resize]));
        assert!(!h5_valid(&[H5GenOp::Create, H5GenOp::CreateParallel]));
        assert!(!h5_valid(&[H5GenOp::Rename, H5GenOp::Delete]));
        assert!(!mpi_valid(&[MpiGenOp::Close, MpiGenOp::Sync]));
    }
}
