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
use crate::format::{self, check, H5Error, H5Logical};
use mpiio::MpiIo;
use pfs::{ClientTrace, Pfs};
use std::collections::BTreeSet;
use tracer::Recorder;

/// `h5clear` options.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClearOpts {
    /// `--increase-eof`: set the superblock EOF to the physical file
    /// size, repairing addr-overflow states.
    pub increase_eof: bool,
}

/// `h5clear`: clear the superblock status flags (and optionally repair
/// the EOF). Returns the repaired image; returns the input unchanged if
/// the superblock is unreadable.
pub fn h5clear(bytes: &[u8], opts: ClearOpts) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if out.len() < format::sizes::SUPERBLOCK as usize || &out[0..4] != b"H5SB" {
        return out;
    }
    out[5] = 0; // status flags
    if opts.increase_eof {
        let eof = out.len() as u64;
        out[16..24].copy_from_slice(&eof.to_le_bytes());
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

impl format::Visitor for Vec<ObjectRange> {
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
/// no legal state.
pub fn h5replay(
    pfs: &mut dyn Pfs,
    path: &str,
    ranks: &[u32],
    calls: &[(u32, H5Call)],
) -> Result<H5Logical, ReplayError> {
    h5replay_with(pfs, path, ranks, calls, H5Spec::default())
}

/// [`h5replay`] with an explicit library configuration — the replay must
/// use the same allocation geometry as the traced run. `calls` is any
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
    replay.finish(pfs)
}

/// `h5replay`, resumable: the library-side state of a replay in
/// progress — the open [`H5File`] and the names that exist — kept apart
/// from the PFS it runs on, so a caller that forks the PFS clones this
/// next to it and continues either copy ([`h5replay_with`] is the loop
/// over one). Every call is traced into throw-away recorders: a golden
/// state needs no causality graph.
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
        let (mpi, h5t) = (&mut MpiIo::new(pfs, &mut rec, &mut ct), &mut h5t);
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
                f.rename_dataset(mpi, h5t, rank, src_group, src_name, dst_group, dst_name);
            }
            H5Call::CloseFile => f.close(mpi, h5t, ranks),
        }
        Ok(())
    }

    /// The logical state of the file as `pfs` holds it now: mount the
    /// live stores, read the file, `h5check` it.
    pub fn finish(&self, pfs: &dyn Pfs) -> Result<H5Logical, ReplayError> {
        let view = pfs.client_view(pfs.live());
        let bytes = view.read(&self.path).ok_or(ReplayError::NoFile)?;
        check(bytes).map_err(ReplayError::Check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let logical = h5replay(&mut pfs, "/f.h5", &[0, 1], &preamble()).unwrap();
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
                    h5replay(&mut pfs, "/f.h5", &[0, 1], &calls),
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
                let looped = h5replay(&mut fresh, "/f.h5", &[0, 1], &calls[..=n]);
                match stepped {
                    Ok(()) => assert_eq!(replay.finish(pfs.as_ref()), looped, "{calls:?} @ {n}"),
                    Err(e) => assert_eq!(Err(e), looped, "{calls:?} @ {n}"),
                }
                // The origin of the fork saw nothing of the step.
                let mut fresh = Ext4Direct::paper_default();
                let before = h5replay(&mut fresh, "/f.h5", &[0, 1], &calls[..n]);
                assert_eq!(
                    stopped.finish(stopped_pfs.as_ref()),
                    before,
                    "{calls:?} @ {n}"
                );
            }
        }
    }

    #[test]
    fn replays_deterministic_digest() {
        let mut a = Ext4Direct::paper_default();
        let mut b = Ext4Direct::paper_default();
        let la = h5replay(&mut a, "/f.h5", &[0], &preamble()).unwrap();
        let lb = h5replay(&mut b, "/f.h5", &[0], &preamble()).unwrap();
        assert_eq!(la, lb);
        assert_eq!(la.digest(), lb.digest());
    }

    #[test]
    fn h5clear_repairs_eof() {
        let mut pfs = Ext4Direct::paper_default();
        let _ = h5replay(&mut pfs, "/f.h5", &[0], &preamble()).unwrap();
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

    #[test]
    fn h5inspect_maps_every_structure() {
        let mut pfs = Ext4Direct::paper_default();
        let _ = h5replay(&mut pfs, "/f.h5", &[0], &preamble()).unwrap();
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
