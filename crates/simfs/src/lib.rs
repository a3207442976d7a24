#![warn(missing_docs)]

//! # simfs — simulated local storage substrate for the ParaCrash reproduction
//!
//! The original ParaCrash (SC '21) replays traced POSIX calls onto ext4
//! snapshots and traced SCSI commands onto iSCSI disk images. This crate is
//! the Rust stand-in for that lowest layer of the HPC I/O stack:
//!
//! * [`ops::FsOp`] — the vocabulary of local file-system operations that a
//!   parallel-file-system server issues against its backing store
//!   (`creat`, `pwrite`, `append`, `rename`, `link`, `unlink`, `setxattr`,
//!   `fsync`, …).
//! * [`state::FsState`] — an in-memory, inode-based POSIX-like file system
//!   with hard links, extended attributes, snapshots and canonical hashing,
//!   onto which operation subsets ("crash states") are replayed.
//! * [`journal::JournalMode`] — the journaling model of the local file
//!   system, which determines the *persists-before* partial order between
//!   operations on the same local FS (Algorithm 2 of the paper).
//! * [`block`] — a block device with `scsi_write` / `scsi_synchronize_cache`
//!   and tagged writes, used by kernel-level PFS models (GPFS, Lustre) the
//!   way the paper traces block I/O through Open-iSCSI.
//! * [`fsck`] — an e2fsck-style structural checker and repairer for
//!   [`state::FsState`].
//!
//! Everything is deterministic and `Clone`-snapshot friendly: ParaCrash's
//! crash emulation materializes hundreds of crash states per test program by
//! replaying operation subsets on snapshots of the initial state.

pub mod block;
pub mod data;
pub mod error;
pub mod fsck;
pub mod journal;
pub mod ops;
pub mod state;

pub use block::{Block, BlockDev, BlockOp, StructTag};
pub use data::{payload_digest, Data, Pages, PAGE};
pub use error::{FsError, FsResult};
pub use fsck::{Fsck, FsckIssue};
pub use journal::{torn_write, CommitRecord, JournalMode};
pub use ops::{FsOp, OpClass};
pub use state::{FsState, Ino};
