//! The HDF5 tool suite: `h5clear`, `h5inspect`, `h5replay`.
//!
//! * `h5clear` — the repair tool ParaCrash runs before declaring a crash
//!   state inconsistent (§4.4.3). Its option set is the sensitivity knob
//!   of Table 3 bug 13: with `--increase-eof` it can repair the
//!   superblock-vs-B-tree "addr overflow" states; without it it cannot.
//! * `h5inspect` — maps every internal object to its byte range in the
//!   file (§5.2). The semantic pruning of §5.3 does not read the map: it
//!   reads the same object names off the labels the library records
//!   with each flush.
//! * `h5replay` — replays a preserved set of I/O-library calls on a
//!   fresh stack to produce a legal golden state (§5.1; the original
//!   generates and compiles a C program, we drive the library directly).

use crate::call::{H5Call, H5Trace};
use crate::file::{H5File, H5Spec};
use crate::format::{self, check_with, DigestMemo, H5Error, H5Logical, Image};
use mpiio::MpiIo;
use pfs::view::Bytes;
use pfs::{ClientTrace, Pfs};
use std::collections::BTreeSet;
use std::sync::Arc;
use tracer::Recorder;

/// `h5clear` options.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClearOpts {
    /// `--increase-eof`: set the superblock EOF to the physical file
    /// size, repairing addr-overflow states.
    pub increase_eof: bool,
}

const SUPERBLOCK: usize = format::sizes::SUPERBLOCK as usize;

/// An image as `h5clear` repairs it, without a copy: the repaired
/// superblock laid over the unchanged rest.
pub struct Cleared<'a, S: ?Sized> {
    superblock: [u8; SUPERBLOCK],
    rest: &'a S,
}

impl<'a, S: Image + ?Sized> Cleared<'a, S> {
    /// The superblock patch, computed once: the status flags cleared and,
    /// with `increase_eof`, the EOF set to the image's size. `None` if the
    /// superblock is unreadable, which `h5clear` leaves as it is.
    pub fn new(image: &'a S, opts: ClearOpts) -> Option<Self> {
        let mut superblock: [u8; SUPERBLOCK] = format::rd(image, 0)?;
        if &superblock[0..4] != b"H5SB" {
            return None;
        }
        superblock[5] = 0; // status flags
        if opts.increase_eof {
            superblock[16..24].copy_from_slice(&image.len().to_le_bytes());
        }
        Some(Cleared {
            superblock,
            rest: image,
        })
    }
}

impl<S: Image + ?Sized> Image for Cleared<'_, S> {
    fn len(&self) -> u64 {
        self.rest.len()
    }

    fn run_at(&self, at: u64) -> &[u8] {
        if at < SUPERBLOCK as u64 {
            &self.superblock[at as usize..]
        } else {
            self.rest.run_at(at)
        }
    }

    /// The image's own chunks, at or past the patch: what it reads there
    /// is theirs, unchanged.
    fn chunk_at(&self, at: u64) -> Option<(&Arc<dyn Bytes>, u64)> {
        (at >= SUPERBLOCK as u64)
            .then(|| self.rest.chunk_at(at))
            .flatten()
    }
}

/// `h5clear`: clear the superblock status flags (and optionally repair
/// the EOF). Returns the repaired image — [`Cleared`]'s patch applied to
/// a copy; returns the input unchanged if the superblock is unreadable.
pub fn h5clear(bytes: &[u8], opts: ClearOpts) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if let Some(cleared) = Cleared::new(bytes, opts) {
        out[..SUPERBLOCK].copy_from_slice(&cleared.superblock);
    }
    out
}

/// One entry of the `h5inspect` object map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectRange {
    /// Structure name ("superblock", "B-tree node of g1", …).
    pub name: String,
    /// Byte offset in the file.
    pub addr: u64,
    /// Structure length.
    pub len: u64,
    /// `true` for dataset data (the semantic-pruning predicate: data
    /// chunk updates "will not be reordered", §5.3).
    pub is_data: bool,
}

/// `h5inspect`: map internal objects to byte ranges. An image `h5check`
/// rejects has no object map.
pub fn h5inspect(bytes: &[u8]) -> Result<Vec<ObjectRange>, H5Error> {
    let mut out = vec![ObjectRange {
        name: "superblock".into(),
        addr: 0,
        len: format::sizes::SUPERBLOCK,
        is_data: false,
    }];
    format::walk(bytes, &mut out)?;
    out.sort_by_key(|o| o.addr);
    Ok(out)
}

impl<S: ?Sized> format::Visitor<S> for Vec<ObjectRange> {
    fn structure(&mut self, what: &str, owner: &str, addr: u64, len: u64, is_data: bool) {
        let name = format!("{what} {owner}");
        self.push(ObjectRange {
            name,
            addr,
            len,
            is_data,
        });
    }
}

/// Why a replay could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The call sequence is not executable (missing prerequisite).
    Invalid(String),
    /// The produced image failed `h5check`.
    Check(H5Error),
    /// The stack produced no readable file.
    NoFile,
}

/// `h5replay`: execute a sequence of I/O-library calls on a *fresh* PFS
/// and return the resulting logical state. Used to materialize legal
/// golden states from preserved sets; sequences that are not executable
/// (e.g. a resize whose create was dropped) are rejected — they denote
/// no legal state. `spec` must be the traced run's library
/// configuration (the same allocation geometry), and `calls` is any
/// borrowed sequence (a slice, or a preamble chained to a preserved
/// subset), so callers never copy calls to concatenate them.
pub fn h5replay_with<'a>(
    pfs: &mut dyn Pfs,
    path: &str,
    ranks: &[u32],
    calls: impl IntoIterator<Item = &'a (u32, H5Call)>,
    spec: H5Spec,
) -> Result<H5Logical, ReplayError> {
    let mut replay = H5Replay::new(path, ranks, spec);
    for (rank, call) in calls {
        replay.step(pfs, *rank, call)?;
    }
    replay.finish(pfs, None)
}

/// `h5replay`, resumable: the library-side state of a replay in
/// progress — the open [`H5File`] and the names that exist — kept apart
/// from the PFS it runs on, so a caller that forks the PFS clones this
/// next to it and continues either copy ([`h5replay_with`] is the loop
/// over one). [`step_with`](Self::step_with) traces a call into the
/// caller's recorders (the traced run steps its own replay so);
/// [`step`](Self::step) into throw-away ones, since a golden state
/// needs no causality graph.
///
/// A `RenameDataset` within one group rewrites the name in place
/// ([`H5File::rename_dataset_in_place`], NetCDF's `nc_rename_var`); one
/// between groups moves the link ([`H5File::rename_dataset`], `H5Lmove`).
/// NetCDF's other rule needs nothing here: its variables are datasets
/// of the root group `/`.
#[derive(Debug, Clone)]
pub struct H5Replay {
    path: String,
    ranks: Vec<u32>,
    spec: H5Spec,
    file: Option<H5File>,
    groups: BTreeSet<String>,
    datasets: BTreeSet<String>,
}

impl H5Replay {
    /// A replay that has executed nothing yet.
    pub fn new(path: &str, ranks: &[u32], spec: H5Spec) -> H5Replay {
        H5Replay {
            path: path.to_string(),
            ranks: ranks.to_vec(),
            spec,
            file: None,
            groups: BTreeSet::new(),
            datasets: BTreeSet::new(),
        }
    }

    /// Execute one call on `pfs`. [`ReplayError::Invalid`] when its
    /// prerequisite is missing: the sequence so far denotes no legal
    /// state, and neither does any continuation of it.
    pub fn step(&mut self, pfs: &mut dyn Pfs, rank: u32, call: &H5Call) -> Result<(), ReplayError> {
        let (mut rec, mut ct, mut h5t) = (Recorder::new(), ClientTrace::new(), H5Trace::new());
        self.step_with(
            &mut MpiIo::new(pfs, &mut rec, &mut ct),
            &mut h5t,
            rank,
            call,
        )
    }

    /// [`step`](Self::step) through `mpi`, tracing the call into `h5t`.
    pub fn step_with(
        &mut self,
        mpi: &mut MpiIo,
        h5t: &mut H5Trace,
        rank: u32,
        call: &H5Call,
    ) -> Result<(), ReplayError> {
        let (ranks, groups, datasets) = (&self.ranks, &mut self.groups, &mut self.datasets);
        let invalid = |what: String| Err(ReplayError::Invalid(what));
        if let H5Call::CreateFile = call {
            if self.file.is_some() {
                return invalid("file created twice".into());
            }
            self.file = Some(H5File::create(mpi, h5t, ranks, &self.path, self.spec));
            groups.insert("/".into());
            return Ok(());
        }
        let Some(f) = self.file.as_mut() else {
            return invalid("no file".into());
        };
        match call {
            H5Call::CreateFile => unreachable!(),
            H5Call::CreateGroup { group } => {
                if !groups.insert(group.clone()) {
                    return invalid(format!("group {group} exists"));
                }
                f.create_group(mpi, h5t, rank, group);
            }
            H5Call::CreateDataset {
                group,
                name,
                rows,
                cols,
            } => {
                if !groups.contains(group) || !datasets.insert(format::dataset_key(group, name)) {
                    return invalid(format!("cannot create {group}/{name}"));
                }
                f.create_dataset(mpi, h5t, rank, group, name, *rows, *cols);
            }
            H5Call::CreateDatasetParallel {
                group,
                name,
                rows,
                cols,
                nranks,
            } => {
                if !groups.contains(group) || !datasets.insert(format::dataset_key(group, name)) {
                    return invalid(format!("cannot create {group}/{name}"));
                }
                let use_ranks = &ranks[..ranks.len().min(*nranks as usize)];
                f.create_dataset_parallel(mpi, h5t, use_ranks, group, name, *rows, *cols);
            }
            H5Call::ResizeDataset {
                group,
                name,
                rows,
                cols,
            } => {
                if !datasets.contains(&format::dataset_key(group, name)) {
                    return invalid(format!("resize of missing {group}/{name}"));
                }
                f.resize_dataset(mpi, h5t, rank, group, name, *rows, *cols);
            }
            H5Call::ResizeDatasetParallel {
                group,
                name,
                rows,
                cols,
                nranks,
            } => {
                if !datasets.contains(&format::dataset_key(group, name)) {
                    return invalid(format!("resize of missing {group}/{name}"));
                }
                let use_ranks = &ranks[..ranks.len().min(*nranks as usize)];
                f.resize_dataset_parallel(mpi, h5t, use_ranks, group, name, *rows, *cols);
            }
            H5Call::DeleteDataset { group, name } => {
                if !datasets.remove(&format::dataset_key(group, name)) {
                    return invalid(format!("delete of missing {group}/{name}"));
                }
                f.delete_dataset(mpi, h5t, rank, group, name);
            }
            H5Call::RenameDataset {
                src_group,
                src_name,
                dst_group,
                dst_name,
            } => {
                let src = format::dataset_key(src_group, src_name);
                let dst = format::dataset_key(dst_group, dst_name);
                if !datasets.remove(&src) || !groups.contains(dst_group) || !datasets.insert(dst) {
                    return invalid(format!("rename of missing {src_group}/{src_name}"));
                }
                if src_group == dst_group {
                    f.rename_dataset_in_place(mpi, h5t, rank, src_group, src_name, dst_name);
                } else {
                    f.rename_dataset(mpi, h5t, rank, src_group, src_name, dst_group, dst_name);
                }
            }
            H5Call::CloseFile => f.close(mpi, h5t, ranks),
        }
        Ok(())
    }

    /// The logical state of the file as `pfs` holds it now: mount the
    /// live stores, read the file, `h5check` it, its dataset digests
    /// taken through `memo` when there is one.
    pub fn finish(
        &self,
        pfs: &dyn Pfs,
        memo: Option<&DigestMemo>,
    ) -> Result<H5Logical, ReplayError> {
        let view = pfs.client_view(pfs.live());
        let content = view.content(&self.path).ok_or(ReplayError::NoFile)?;
        check_with(content, memo).map_err(ReplayError::Check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::check;
    use pfs::ext4::Ext4Direct;

    fn preamble() -> Vec<(u32, H5Call)> {
        vec![
            (0, H5Call::CreateFile),
            (0, H5Call::CreateGroup { group: "g1".into() }),
            (0, H5Call::CreateGroup { group: "g2".into() }),
            (
                0,
                H5Call::CreateDataset {
                    group: "g1".into(),
                    name: "d1".into(),
                    rows: 20,
                    cols: 20,
                },
            ),
        ]
    }

    #[test]
    fn replay_produces_logical_state() {
        let mut pfs = Ext4Direct::paper_default();
        let logical =
            h5replay_with(&mut pfs, "/f.h5", &[0, 1], &preamble(), H5Spec::default()).unwrap();
        assert!(logical.has_dataset("g1", "d1"));
        assert!(logical.groups.contains_key("g2"));
    }

    fn dataset(group: &str, name: &str) -> H5Call {
        let (group, name) = (group.into(), name.into());
        H5Call::CreateDataset {
            group,
            name,
            rows: 20,
            cols: 20,
        }
    }

    /// One sequence per `ReplayError::Invalid` the replay can return.
    fn invalid_sequences() -> Vec<Vec<(u32, H5Call)>> {
        let (group, name) = (String::from("g1"), String::from("d1"));
        let (rows, cols, nranks) = (40, 40, 2);
        let resize = H5Call::ResizeDataset {
            group: group.clone(),
            name: name.clone(),
            rows,
            cols,
        };
        let after_preamble = |call: H5Call| {
            let mut calls = preamble();
            calls.push((0, call));
            calls
        };
        vec![
            vec![(0, resize.clone())],
            after_preamble(H5Call::CreateFile),
            after_preamble(H5Call::CreateGroup { group: "g2".into() }),
            after_preamble(dataset("g1", "d1")),
            after_preamble(dataset("g9", "d1")),
            after_preamble(H5Call::CreateDatasetParallel {
                group: "g9".into(),
                name: name.clone(),
                rows,
                cols,
                nranks,
            }),
            vec![(0, H5Call::CreateFile), (0, resize)],
            after_preamble(H5Call::ResizeDatasetParallel {
                group: group.clone(),
                name: "d9".into(),
                rows,
                cols,
                nranks,
            }),
            after_preamble(H5Call::DeleteDataset {
                group: group.clone(),
                name: "d9".into(),
            }),
            after_preamble(H5Call::RenameDataset {
                src_group: group.clone(),
                src_name: "d9".into(),
                dst_group: group.clone(),
                dst_name: "dx".into(),
            }),
            after_preamble(H5Call::RenameDataset {
                src_group: group.clone(),
                src_name: name,
                dst_group: "g9".into(),
                dst_name: "dx".into(),
            }),
        ]
    }

    #[test]
    fn replay_rejects_invalid_subsets() {
        for calls in invalid_sequences() {
            let mut pfs = Ext4Direct::paper_default();
            assert!(
                matches!(
                    h5replay_with(&mut pfs, "/f.h5", &[0, 1], &calls, H5Spec::default()),
                    Err(ReplayError::Invalid(_))
                ),
                "{calls:?}"
            );
        }
    }

    /// `H5Replay` stepped call by call — forked before every call, the
    /// fork carrying on while the origin stops — is `h5replay` of the
    /// same sequence: the state after every prefix, and the error of
    /// every invalid sequence at the call that raises it.
    #[test]
    fn stepped_and_forked_replay_equals_the_loop() {
        let valid = {
            let mut calls = preamble();
            calls.push((0, dataset("g2", "d2")));
            calls.push((0, H5Call::CloseFile));
            calls
        };
        for calls in invalid_sequences().into_iter().chain([valid]) {
            let mut pfs: Box<dyn Pfs> = Box::new(Ext4Direct::paper_default());
            let mut replay = H5Replay::new("/f.h5", &[0, 1], H5Spec::default());
            for (n, (rank, call)) in calls.iter().enumerate() {
                let (stopped, stopped_pfs) = (replay.clone(), pfs.fork());
                let stepped = replay.step(pfs.as_mut(), *rank, call);
                let mut fresh = Ext4Direct::paper_default();
                let looped = h5replay_with(
                    &mut fresh,
                    "/f.h5",
                    &[0, 1],
                    &calls[..=n],
                    H5Spec::default(),
                );
                match stepped {
                    Ok(()) => {
                        assert_eq!(replay.finish(pfs.as_ref(), None), looped, "{calls:?} @ {n}")
                    }
                    Err(e) => assert_eq!(Err(e), looped, "{calls:?} @ {n}"),
                }
                // The origin of the fork saw nothing of the step.
                let mut fresh = Ext4Direct::paper_default();
                let before =
                    h5replay_with(&mut fresh, "/f.h5", &[0, 1], &calls[..n], H5Spec::default());
                assert_eq!(
                    stopped.finish(stopped_pfs.as_ref(), None),
                    before,
                    "{calls:?} @ {n}"
                );
            }
        }
    }

    /// A rename within one group is NetCDF's in-place one: stepping it
    /// writes the bytes `rename_dataset_in_place` writes, which a move
    /// of the link would not.
    #[test]
    fn a_same_group_rename_steps_in_place() {
        let (g1, d1, dx) = (String::from("g1"), String::from("d1"), String::from("dx"));
        let mut calls = preamble();
        calls.push((
            0,
            H5Call::RenameDataset {
                src_group: g1.clone(),
                src_name: d1.clone(),
                dst_group: g1.clone(),
                dst_name: dx.clone(),
            },
        ));
        let mut stepped = Ext4Direct::paper_default();
        h5replay_with(&mut stepped, "/f.h5", &[0], &calls, H5Spec::default()).unwrap();
        let library = |in_place: bool| {
            let mut pfs = Ext4Direct::paper_default();
            let (mut rec, mut ct, h5t) = (Recorder::new(), ClientTrace::new(), &mut H5Trace::new());
            let mpi = &mut MpiIo::new(&mut pfs, &mut rec, &mut ct);
            let mut f = H5File::create(mpi, h5t, &[0], "/f.h5", H5Spec::default());
            f.create_group(mpi, h5t, 0, &g1);
            f.create_group(mpi, h5t, 0, "g2");
            f.create_dataset(mpi, h5t, 0, &g1, &d1, 20, 20);
            if in_place {
                f.rename_dataset_in_place(mpi, h5t, 0, &g1, &d1, &dx);
            } else {
                f.rename_dataset(mpi, h5t, 0, &g1, &d1, &g1, &dx);
            }
            pfs.client_view(pfs.live()).read("/f.h5").unwrap().to_vec()
        };
        let stepped = stepped
            .client_view(stepped.live())
            .read("/f.h5")
            .unwrap()
            .to_vec();
        assert_eq!(stepped, library(true));
        assert_ne!(stepped, library(false));
    }

    #[test]
    fn replays_deterministic_digest() {
        let mut a = Ext4Direct::paper_default();
        let mut b = Ext4Direct::paper_default();
        let la = h5replay_with(&mut a, "/f.h5", &[0], &preamble(), H5Spec::default()).unwrap();
        let lb = h5replay_with(&mut b, "/f.h5", &[0], &preamble(), H5Spec::default()).unwrap();
        assert_eq!(la, lb);
        assert_eq!(la.digest(), lb.digest());
    }

    #[test]
    fn h5clear_repairs_eof() {
        let mut pfs = Ext4Direct::paper_default();
        let _ = h5replay_with(&mut pfs, "/f.h5", &[0], &preamble(), H5Spec::default()).unwrap();
        let bytes = pfs.client_view(pfs.live()).read("/f.h5").unwrap().to_vec();
        // Break the EOF (superblock behind the B-tree — bug 13's shape).
        let mut broken = bytes.clone();
        broken[16..24].copy_from_slice(&200u64.to_le_bytes());
        assert!(check(&broken).is_err());
        let unfixed = h5clear(&broken, ClearOpts::default());
        assert!(check(&unfixed).is_err());
        let fixed = h5clear(&broken, ClearOpts { increase_eof: true });
        assert!(check(&fixed).is_ok());
    }

    /// A striped file's content is walked in its runs, and `h5clear`'s
    /// patch laid over runs of 7 bytes — every structure straddling two —
    /// reads like the patched copy.
    #[test]
    fn chunked_content_reads_like_its_joined_bytes() {
        let topo = simnet::ClusterTopology::paper_dedicated_default();
        let mut pfs = pfs::beegfs::BeeGfs::new(topo, pfs::Placement::new(), 1024);
        let _ = h5replay_with(&mut pfs, "/f.h5", &[0], &preamble(), H5Spec::default()).unwrap();
        let view = pfs.client_view(pfs.live());
        let content = view.content("/f.h5").unwrap();
        assert!(content.runs().count() > 2, "not striped");
        assert_eq!(check(content), check(content.joined()));
        let mut broken = content.joined().to_vec();
        broken[16..24].copy_from_slice(&200u64.to_le_bytes());
        let mut runs = pfs::Content::default();
        for run in broken.chunks(7) {
            runs.push(std::sync::Arc::new(run.to_vec()));
        }
        assert_eq!(check(&runs), check(&broken));
        for opts in [ClearOpts::default(), ClearOpts { increase_eof: true }] {
            let patched = Cleared::new(&runs, opts).unwrap();
            assert_eq!(check(&patched), check(&h5clear(&broken, opts)));
        }
        // A superblock h5clear cannot read has no patch.
        assert!(Cleared::new(&broken[..50], ClearOpts::default()).is_none());
    }

    #[test]
    fn h5inspect_maps_every_structure() {
        let mut pfs = Ext4Direct::paper_default();
        let _ = h5replay_with(&mut pfs, "/f.h5", &[0], &preamble(), H5Spec::default()).unwrap();
        let bytes = pfs.client_view(pfs.live()).read("/f.h5").unwrap().to_vec();
        let map = h5inspect(&bytes).unwrap();
        assert!(map.iter().any(|o| o.name == "superblock"));
        assert!(map.iter().any(|o| o.name.contains("local heap of g1")));
        assert!(map.iter().any(|o| o.is_data));
        // Ranges must not overlap.
        let mut prev_end = 0;
        for o in &map {
            assert!(o.addr >= prev_end, "overlap at {}", o.name);
            prev_end = o.addr + o.len;
        }
    }
}
