//! The 11 test programs (§6.2).

use crate::fskind::FsKind;
use crate::params::Params;
use h5sim::{H5Call, H5Spec};
use mpiio::MpiIo;
use paracrash::Stack;
use pfs::{PfsCall, Placement};

/// One test program from §6.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Program {
    /// Atomic-Replace-via-Rename: the checkpointing pattern (create a
    /// temp file, write the new version, rename over the original).
    Arvr,
    /// Create-and-Rename: create `A/foo`, move it to `B/foo`.
    Cr,
    /// Rename-and-Create: rename directory `A` to `B`, create `B/foo`.
    Rc,
    /// Write-Ahead-Logging: write a log, overwrite the file's pages,
    /// delete the log.
    Wal,
    /// `H5Dcreate` of a new dataset in a populated group.
    H5Create,
    /// `H5Ldelete` of one of the preamble datasets.
    H5Delete,
    /// `H5Lmove` of a dataset between groups.
    H5Rename,
    /// `H5Dset_extent` growing a preamble dataset.
    H5Resize,
    /// NetCDF variable creation.
    CdfCreate,
    /// NetCDF variable rename (the paper found no bugs here — and we
    /// assert that).
    CdfRename,
    /// Collective dataset creation from multiple ranks.
    H5ParallelCreate,
    /// Collective dataset resize from multiple ranks.
    H5ParallelResize,
}

impl Program {
    /// The 11 programs of the paper's evaluation (CDF-rename exposed no
    /// bugs and is not reported in Figure 8, but is included here for
    /// completeness checks).
    pub fn paper_eleven() -> [Program; 11] {
        [
            Program::Arvr,
            Program::Cr,
            Program::Rc,
            Program::Wal,
            Program::H5Create,
            Program::H5Delete,
            Program::H5Rename,
            Program::H5Resize,
            Program::CdfCreate,
            Program::H5ParallelCreate,
            Program::H5ParallelResize,
        ]
    }

    /// The four POSIX programs.
    pub fn posix() -> [Program; 4] {
        [Program::Arvr, Program::Cr, Program::Rc, Program::Wal]
    }

    /// Name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Program::Arvr => "ARVR",
            Program::Cr => "CR",
            Program::Rc => "RC",
            Program::Wal => "WAL",
            Program::H5Create => "H5-create",
            Program::H5Delete => "H5-delete",
            Program::H5Rename => "H5-rename",
            Program::H5Resize => "H5-resize",
            Program::CdfCreate => "CDF-create",
            Program::CdfRename => "CDF-rename",
            Program::H5ParallelCreate => "H5-parallel-create",
            Program::H5ParallelResize => "H5-parallel-resize",
        }
    }

    /// `true` for programs going through the I/O library layer.
    pub fn uses_iolib(&self) -> bool {
        !matches!(
            self,
            Program::Arvr | Program::Cr | Program::Rc | Program::Wal
        )
    }

    /// Placement variants to test (the paper's "different distribution
    /// patterns", §6.2): name + pins. The first entry is the default.
    pub fn placements(&self) -> Vec<(&'static str, Placement)> {
        match self {
            Program::Rc => vec![
                ("default", Placement::new()),
                (
                    "split-dirs",
                    Placement::new().pin_dir("/", 0).pin_dir("/A", 1),
                ),
            ],
            Program::Wal => vec![
                ("default", Placement::new()),
                (
                    "split-files",
                    Placement::new().pin_file("/log", 0).pin_file("/foo", 1),
                ),
            ],
            _ => vec![("default", Placement::new())],
        }
    }

    /// Execute the program (preamble + traced test phase) on `fs`.
    pub fn run(&self, fs: FsKind, params: &Params) -> Stack {
        let mut stack = match self {
            Program::Arvr => return run_arvr(fs, params),
            Program::Cr => return run_cr(fs, params),
            Program::Rc => return run_rc(fs, params),
            Program::Wal => return run_wal(fs, params),
            // NetCDF variables are root-group datasets.
            Program::CdfCreate | Program::CdfRename => {
                let v1 = dataset("/", "v1", params.dims);
                let calls = vec![H5Call::CreateFile, v1, H5Call::CloseFile];
                library_stack(fs, params, "/data.nc", H5Spec::default(), calls)
            }
            _ => h5_stack(fs, params, params.datasets_per_group),
        };
        let call = self.h5_call(params, params.datasets_per_group);
        stack.h5(stack.h5_ranks[0], call);
        stack
    }

    /// The one library call of a library program's test phase, issued
    /// from the first rank. An HDF5 program whose preamble left `n`
    /// datasets in g1 creates `d{n+1}` or works on `d{n}`.
    pub(crate) fn h5_call(&self, params: &Params, n: u32) -> H5Call {
        let (g1, dims, nranks) = (String::from("g1"), params.dims, params.ranks().len() as u32);
        let last = format!("d{n}");
        match self {
            Program::H5Create => dataset(&g1, &format!("d{}", n + 1), dims),
            Program::H5Delete => H5Call::DeleteDataset {
                group: g1,
                name: last,
            },
            Program::H5Rename => H5Call::RenameDataset {
                src_group: g1,
                src_name: last.clone(),
                dst_group: "g2".into(),
                dst_name: last,
            },
            // Resize the last dataset: its chunk B-tree sits beyond the
            // preceding data, so it can land on a different server than
            // the superblock (the cross-server hazard of Table 3 bug 13 —
            // the first dataset's B-tree shares the superblock's stripe
            // and is journal-ordered with it).
            Program::H5Resize => H5Call::ResizeDataset {
                group: g1,
                name: last,
                rows: dims * 2,
                cols: dims * 2,
            },
            Program::H5ParallelCreate => H5Call::CreateDatasetParallel {
                group: g1,
                name: format!("d{}", n + 1),
                rows: dims,
                cols: dims,
                nranks,
            },
            Program::H5ParallelResize => H5Call::ResizeDatasetParallel {
                group: g1,
                name: last,
                rows: dims * 2,
                cols: dims * 2,
                nranks,
            },
            Program::CdfCreate => dataset("/", "v2", dims),
            // A rename within one group: NetCDF's in-place one.
            Program::CdfRename => H5Call::RenameDataset {
                src_group: "/".into(),
                src_name: "v1".into(),
                dst_group: "/".into(),
                dst_name: "v1x".into(),
            },
            _ => unreachable!("{} makes no library call", self.name()),
        }
    }
}

/// `H5Dcreate` of a `dims` × `dims` dataset.
fn dataset(group: &str, name: &str, dims: u64) -> H5Call {
    H5Call::CreateDataset {
        group: group.into(),
        name: name.into(),
        rows: dims,
        cols: dims,
    }
}

/// A stack whose preamble issues `calls` from the first rank on the
/// library file at `path` (ranks `params.ranks()`, configuration
/// `spec`), sealed, with the file reopened for the test phase: a library
/// program's crash window is before its close.
fn library_stack(
    fs: FsKind,
    params: &Params,
    path: &str,
    spec: H5Spec,
    calls: Vec<H5Call>,
) -> Stack {
    let mut stack = Stack::new(fs.build(params));
    stack.h5_path = Some(path.into());
    stack.h5_ranks = params.ranks();
    stack.h5_spec = spec;
    for call in calls {
        stack.h5(stack.h5_ranks[0], call);
    }
    stack.seal_preamble();
    let mut mpi = MpiIo::new(stack.pfs.as_mut(), &mut stack.rec, &mut stack.calls);
    mpi.file_open(&stack.h5_ranks, path, false, None);
    stack
}

/// The common initial state of every HDF5 program (§6.2: "a common
/// initial state in which a file stores two groups and two datasets"):
/// groups g1 and g2, datasets `d1` to `d{n}` in g1.
pub(crate) fn h5_stack(fs: FsKind, params: &Params, n: u32) -> Stack {
    let group = |group: &str| H5Call::CreateGroup {
        group: group.into(),
    };
    let mut calls = vec![H5Call::CreateFile, group("g1"), group("g2")];
    calls.extend((1..=n).map(|i| dataset("g1", &format!("d{i}"), params.dims)));
    calls.push(H5Call::CloseFile);
    let spec = H5Spec {
        elem: 8,
        seg: params.h5_seg,
    };
    library_stack(fs, params, "/file.h5", spec, calls)
}

fn run_arvr(fs: FsKind, params: &Params) -> Stack {
    let mut stack = Stack::new(fs.build(params));
    let old: Vec<u8> = b"old-version-of-the-checkpoint".to_vec();
    let new: Vec<u8> = b"NEW-VERSION-OF-THE-CHECKPOINT!!!".to_vec();
    stack.posix(
        0,
        PfsCall::Creat {
            path: "/file".into(),
        },
    );
    stack.posix(
        0,
        PfsCall::Pwrite {
            path: "/file".into(),
            offset: 0,
            data: old,
        },
    );
    stack.posix(
        0,
        PfsCall::Close {
            path: "/file".into(),
        },
    );
    stack.seal_preamble();
    stack.posix(
        0,
        PfsCall::Creat {
            path: "/tmp".into(),
        },
    );
    stack.posix(
        0,
        PfsCall::Pwrite {
            path: "/tmp".into(),
            offset: 0,
            data: new,
        },
    );
    stack.posix(
        0,
        PfsCall::Close {
            path: "/tmp".into(),
        },
    );
    stack.posix(
        0,
        PfsCall::Rename {
            src: "/tmp".into(),
            dst: "/file".into(),
        },
    );
    stack
}

fn run_cr(fs: FsKind, params: &Params) -> Stack {
    let mut stack = Stack::new(fs.build(params));
    stack.posix(0, PfsCall::Mkdir { path: "/A".into() });
    stack.posix(0, PfsCall::Mkdir { path: "/B".into() });
    stack.seal_preamble();
    stack.posix(
        0,
        PfsCall::Creat {
            path: "/A/foo".into(),
        },
    );
    stack.posix(
        0,
        PfsCall::Rename {
            src: "/A/foo".into(),
            dst: "/B/foo".into(),
        },
    );
    stack
}

fn run_rc(fs: FsKind, params: &Params) -> Stack {
    let mut stack = Stack::new(fs.build(params));
    stack.posix(0, PfsCall::Mkdir { path: "/A".into() });
    stack.seal_preamble();
    stack.posix(
        0,
        PfsCall::Rename {
            src: "/A".into(),
            dst: "/B".into(),
        },
    );
    stack.posix(
        0,
        PfsCall::Creat {
            path: "/B/foo".into(),
        },
    );
    stack
}

fn run_wal(fs: FsKind, params: &Params) -> Stack {
    let mut stack = Stack::new(fs.build(params));
    let page = params.wal_page_size() as usize;
    let pages = params.wal_pages as usize;
    stack.posix(
        0,
        PfsCall::Creat {
            path: "/foo".into(),
        },
    );
    stack.posix(
        0,
        PfsCall::Pwrite {
            path: "/foo".into(),
            offset: 0,
            data: vec![b'o'; page * pages],
        },
    );
    stack.posix(
        0,
        PfsCall::Close {
            path: "/foo".into(),
        },
    );
    stack.seal_preamble();
    // Write the log describing the modification…
    stack.posix(
        0,
        PfsCall::Creat {
            path: "/log".into(),
        },
    );
    stack.posix(
        0,
        PfsCall::Pwrite {
            path: "/log".into(),
            offset: 0,
            data: b"REDO foo pages".to_vec(),
        },
    );
    stack.posix(
        0,
        PfsCall::Close {
            path: "/log".into(),
        },
    );
    // …overwrite the pages…
    for p in 0..pages {
        stack.posix(
            0,
            PfsCall::Pwrite {
                path: "/foo".into(),
                offset: (p * page) as u64,
                data: vec![b'N'; page],
            },
        );
    }
    // …and retire the log.
    stack.posix(
        0,
        PfsCall::Unlink {
            path: "/log".into(),
        },
    );
    stack
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_sets() {
        assert_eq!(Program::paper_eleven().len(), 11);
        assert_eq!(Program::Arvr.name(), "ARVR");
        assert_eq!(Program::H5ParallelResize.name(), "H5-parallel-resize");
        assert!(Program::H5Create.uses_iolib());
        assert!(!Program::Wal.uses_iolib());
    }

    #[test]
    fn arvr_runs_on_every_fs() {
        let params = Params::quick();
        for fs in FsKind::all() {
            let stack = Program::Arvr.run(fs, &params);
            assert_eq!(stack.pre_calls.len(), 3, "{}", fs.name());
            assert_eq!(stack.calls.len(), 4);
            assert!(!stack.rec.is_empty());
            let view = stack.pfs.client_view(stack.pfs.live());
            assert_eq!(
                view.read("/file"),
                Some(&b"NEW-VERSION-OF-THE-CHECKPOINT!!!"[..]),
                "{}",
                fs.name()
            );
        }
    }

    #[test]
    fn posix_programs_leave_expected_final_states() {
        let params = Params::quick();
        for fs in [FsKind::BeeGfs, FsKind::Gpfs, FsKind::Ext4] {
            let cr = Program::Cr.run(fs, &params);
            let v = cr.pfs.client_view(cr.pfs.live());
            assert!(v.exists("/B/foo") && !v.exists("/A/foo"), "{}", fs.name());

            let rc = Program::Rc.run(fs, &params);
            let v = rc.pfs.client_view(rc.pfs.live());
            assert!(v.exists("/B/foo") && !v.exists("/A"), "{}", fs.name());

            let wal = Program::Wal.run(fs, &params);
            let v = wal.pfs.client_view(wal.pfs.live());
            assert!(!v.exists("/log"), "{}", fs.name());
            assert_eq!(v.read("/foo").map(|d| d[0]), Some(b'N'));
        }
    }

    #[test]
    fn h5_programs_produce_valid_final_files() {
        let params = Params::quick();
        for program in [
            Program::H5Create,
            Program::H5Delete,
            Program::H5Rename,
            Program::H5Resize,
            Program::H5ParallelCreate,
            Program::H5ParallelResize,
        ] {
            let stack = program.run(FsKind::BeeGfs, &params);
            let view = stack.pfs.client_view(stack.pfs.live());
            let bytes = view.read("/file.h5").expect("file readable");
            let logical = h5sim::check(bytes).unwrap_or_else(|_| panic!("{}", program.name()));
            assert!(!stack.h5.is_empty());
            match program {
                Program::H5Create | Program::H5ParallelCreate => {
                    assert!(logical.has_dataset("g1", "d3"))
                }
                Program::H5Delete => assert!(!logical.has_dataset("g1", "d2")),
                Program::H5Rename => assert!(logical.has_dataset("g2", "d2")),
                Program::H5Resize | Program::H5ParallelResize => {
                    assert_eq!(logical.datasets["g1/d2"].0, params.dims * 2)
                }
                _ => {}
            }
        }
    }

    #[test]
    fn cdf_programs_produce_valid_final_files() {
        let params = Params::quick();
        let stack = Program::CdfCreate.run(FsKind::OrangeFs, &params);
        let view = stack.pfs.client_view(stack.pfs.live());
        let logical = h5sim::check(view.read("/data.nc").unwrap()).unwrap();
        assert!(logical.has_dataset("/", "v2"));

        let stack = Program::CdfRename.run(FsKind::OrangeFs, &params);
        let view = stack.pfs.client_view(stack.pfs.live());
        let logical = h5sim::check(view.read("/data.nc").unwrap()).unwrap();
        assert!(logical.has_dataset("/", "v1x"));
    }

    #[test]
    fn placement_variants_exist_for_sensitive_programs() {
        assert_eq!(Program::Rc.placements().len(), 2);
        assert_eq!(Program::Wal.placements().len(), 2);
        assert_eq!(Program::Arvr.placements().len(), 1);
    }

    #[test]
    fn h5_preamble_is_sealed_before_test_phase() {
        let stack = Program::H5Create.run(FsKind::BeeGfs, &Params::quick());
        // Preamble H5 calls: create file + 2 groups + 2 datasets + close.
        assert_eq!(stack.pre_h5.len(), 6);
        // Test phase: exactly the one create.
        assert_eq!(stack.h5.len(), 1);
        // The baseline file is already valid.
        let bytes = stack
            .pfs
            .client_view(stack.pfs.baseline())
            .read("/file.h5")
            .unwrap()
            .to_vec();
        assert!(h5sim::check(&bytes).is_ok());
    }
}
