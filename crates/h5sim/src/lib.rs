#![warn(missing_docs)]

//! # h5sim — an HDF5-like parallel I/O library over the simulated stack
//!
//! The paper's HDF5 bugs (Table 3, rows 9–15) are all statements about
//! the **order in which HDF5 1.8's metadata cache flushes its internal
//! structures into the file**: superblock, object headers, group B-tree
//! nodes, local name heaps, symbol-table nodes, and dataset chunk
//! B-trees (Figure 4 shows the byte layout of exactly these structures).
//! This crate reimplements that structure — at the byte level, inside a
//! single file that the PFS stripes across servers — together with:
//!
//! * [`file::H5File`] — the library: `create_group`, `create_dataset`,
//!   `resize_dataset`, `delete_dataset`, `rename_dataset`, serial and
//!   collective (parallel) variants, each flushing its structures in the
//!   order real HDF5 1.8 does — including the orders that are bugs;
//! * [`mod@format`] — the byte format, plus `check` (≈ `h5check`): parse and
//!   validate a file image into an [`format::H5Logical`] state;
//! * [`tools`] — `h5clear` (superblock repair, with the option knob of
//!   Table 3 bug 13), `h5inspect` (object → byte-range map, §5.2; the
//!   semantic pruning of §5.3 reads the same object names off the event
//!   labels [`file::H5File`] records), and `h5replay` (replay a
//!   preserved set of H5 calls on a fresh stack, §5.1);
//! * [`netcdf`] — a NetCDF-style wrapper (variables over datasets) in
//!   HDF5 format, as in the paper's NetCDF 4.7 setup;
//! * [`call::H5Call`] — the I/O-library-level operation vocabulary whose
//!   preserved subsets define legal golden states at this layer.
//!
//! Besides the paper's fixed H5/CDF programs, the library is exercised
//! by the fuzzer's generated HDF5 call sequences
//! (`workloads::generated`, DESIGN.md §11): bounded
//! create/delete/rename/resize programs — serial and collective —
//! enumerated exhaustively and replayed through the same [`H5File`]
//! API the fixed programs use.

pub mod call;
pub mod file;
pub mod format;
pub mod netcdf;
pub mod tools;

pub use call::{H5Call, H5Trace};
pub use file::{H5File, H5Spec};
pub use format::{check, check_lenient, H5Error, H5Logical, LenientReport};
pub use netcdf::{nc_check, NcError, NcFile};
pub use tools::{
    h5clear, h5inspect, h5replay, h5replay_with, ClearOpts, H5Replay, ObjectRange, ReplayError,
};
