//! I/O-library-level operations and their trace.
//!
//! ParaCrash generates legal golden states for the I/O-library layer by
//! replaying *preserved sets of HDF5 calls* (via its `h5replay` tool,
//! §5.1). [`H5Call`] is that replayable vocabulary; [`H5Trace`] maps each
//! executed call to its trace event so the checker can project preserved
//! sets out of the causality graph.

/// One I/O-library call.
///
/// Variant fields mirror the HDF5 API arguments (`group`, `name`,
/// `rows`, `cols`, `nranks`, source/destination pairs).
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum H5Call {
    /// `H5Fcreate` — create the file with an empty root group.
    CreateFile,
    /// `H5Gcreate(name)` — create a top-level group.
    CreateGroup { group: String },
    /// `H5Dcreate(group, name, dims)` + data fill.
    CreateDataset {
        group: String,
        name: String,
        rows: u64,
        cols: u64,
    },
    /// Collective `H5Dcreate` across `nranks` ranks.
    CreateDatasetParallel {
        group: String,
        name: String,
        rows: u64,
        cols: u64,
        nranks: u32,
    },
    /// `H5Dset_extent` — grow a dataset.
    ResizeDataset {
        group: String,
        name: String,
        rows: u64,
        cols: u64,
    },
    /// Collective `H5Dset_extent`.
    ResizeDatasetParallel {
        group: String,
        name: String,
        rows: u64,
        cols: u64,
        nranks: u32,
    },
    /// `H5Ldelete` — unlink a dataset from its group.
    DeleteDataset { group: String, name: String },
    /// `H5Lmove` — rename/move a dataset between groups.
    RenameDataset {
        src_group: String,
        src_name: String,
        dst_group: String,
        dst_name: String,
    },
    /// `H5Fclose`.
    CloseFile,
}

impl H5Call {
    /// Call name as traced (HDF5 API spelling).
    pub fn name(&self) -> &'static str {
        match self {
            H5Call::CreateFile => "H5Fcreate",
            H5Call::CreateGroup { .. } => "H5Gcreate",
            H5Call::CreateDataset { .. } | H5Call::CreateDatasetParallel { .. } => "H5Dcreate",
            H5Call::ResizeDataset { .. } | H5Call::ResizeDatasetParallel { .. } => "H5Dset_extent",
            H5Call::DeleteDataset { .. } => "H5Ldelete",
            H5Call::RenameDataset { .. } => "H5Lmove",
            H5Call::CloseFile => "H5Fclose",
        }
    }

    /// Trace-rendered arguments.
    pub fn args(&self) -> Vec<String> {
        match self {
            H5Call::CreateFile | H5Call::CloseFile => vec![],
            H5Call::CreateGroup { group } => vec![group.clone()],
            H5Call::CreateDataset {
                group,
                name,
                rows,
                cols,
            } => {
                vec![group.clone(), name.clone(), format!("{rows}x{cols}")]
            }
            H5Call::CreateDatasetParallel {
                group,
                name,
                rows,
                cols,
                nranks,
            } => vec![
                group.clone(),
                name.clone(),
                format!("{rows}x{cols}"),
                format!("nranks={nranks}"),
            ],
            H5Call::ResizeDataset {
                group,
                name,
                rows,
                cols,
            } => {
                vec![group.clone(), name.clone(), format!("{rows}x{cols}")]
            }
            H5Call::ResizeDatasetParallel {
                group,
                name,
                rows,
                cols,
                nranks,
            } => vec![
                group.clone(),
                name.clone(),
                format!("{rows}x{cols}"),
                format!("nranks={nranks}"),
            ],
            H5Call::DeleteDataset { group, name } => vec![group.clone(), name.clone()],
            H5Call::RenameDataset {
                src_group,
                src_name,
                dst_group,
                dst_name,
            } => vec![
                format!("{src_group}/{src_name}"),
                format!("{dst_group}/{dst_name}"),
            ],
        }
    }
}

/// The I/O-library-level trace of a run: ranks and their [`H5Call`]s.
pub type H5Trace = pfs::CallTrace<u32, H5Call>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_args() {
        let c = H5Call::CreateDataset {
            group: "g1".into(),
            name: "d3".into(),
            rows: 200,
            cols: 200,
        };
        assert_eq!(c.name(), "H5Dcreate");
        assert_eq!(c.args(), vec!["g1", "d3", "200x200"]);
        assert_eq!(H5Call::CloseFile.name(), "H5Fclose");
    }

    #[test]
    fn trace_subsets() {
        let mut t = H5Trace::new();
        t.push(5, 0, H5Call::CreateFile);
        t.push(9, 0, H5Call::CloseFile);
        assert_eq!(t.len(), 2);
        let sub = t.subset(&[9]);
        assert_eq!(sub, vec![(0, H5Call::CloseFile)]);
        assert_eq!(t.subset(&[9, 7, 5, 5]).len(), 2);
        assert_eq!(t.get(5), Some((0, &H5Call::CreateFile)));
        assert_eq!(t.get(7), None);
        assert_eq!(t.event_ids(), vec![5, 9]);
    }
}
