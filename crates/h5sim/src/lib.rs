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
//!   validate a file image — one slice, or a PFS view's shared chunks read
//!   in place ([`format::Image`]) — into an [`format::H5Logical`] state;
//! * [`tools`] — `h5clear` (superblock repair, with the option knob of
//!   Table 3 bug 13; [`Cleared`] lays its patch over an image instead of
//!   copying it), `h5inspect` (object → byte-range map, §5.2; the
//!   semantic pruning of §5.3 reads the same object names off the event
//!   labels [`file::H5File`] records), and `h5replay` ([`H5Replay`]:
//!   the one stepper of library calls, which the traced run drives and
//!   every golden replay of a preserved set continues, §5.1);
//! * NetCDF 4.7 (Table 2: "HDF5 format") is no separate API: its
//!   variables are datasets of the root group `/`, and its
//!   `nc_rename_var` is a rename within one group, which [`H5Replay`]
//!   rewrites in place;
//! * [`call::H5Call`] — the I/O-library-level operation vocabulary whose
//!   preserved subsets define legal golden states at this layer.
//!
//! Besides the paper's fixed H5/CDF programs, the library is exercised
//! by the fuzzer's generated HDF5 call sequences
//! (`workloads::generated`, DESIGN.md §11): bounded
//! create/delete/rename/resize programs — serial and collective —
//! enumerated exhaustively and issued as the same [`H5Call`]s the
//! fixed programs issue.

pub mod call;
pub mod file;
pub mod format;
pub mod tools;

pub use call::{H5Call, H5Trace};
pub use file::{H5File, H5Spec};
pub use format::{
    check, check_lenient_with, check_with, DigestMemo, H5Error, H5Logical, Image, LenientReport,
};
pub use tools::{
    h5clear, h5inspect, h5replay_with, ClearOpts, Cleared, H5Replay, ObjectRange, ReplayError,
};
