#![warn(missing_docs)]

//! # tracer — multi-layer I/O tracing and causality analysis
//!
//! The original ParaCrash traces every layer of the HPC I/O stack with a
//! mix of Recorder 2.0 (HDF5 / MPI-IO / POSIX calls of the test program),
//! `strace` (local I/O and socket calls of user-level PFS servers) and
//! Open-iSCSI (block commands of kernel-level PFS), then *correlates* the
//! per-process trace files into one end-to-end **causality graph** (§4.2).
//!
//! In this reproduction every layer is simulated in-process, so tracing is
//! exact rather than inferred: each simulated call records an [`Event`]
//! into a [`Recorder`], explicitly linked to its caller (caller–callee
//! edges) and, for RPCs, to its matching send/recv (sender–receiver
//! edges). [`CausalityGraph`] then answers `happens_before` queries — the
//! partial order that drives crash-state generation (Algorithm 1) and the
//! persistence analysis (Algorithm 2).
//!
//! Nothing reads a trace back, so a trace has one text form:
//! [`Recorder::render`], the Figure 9 listing (`paracrash fig9`,
//! `paracrash --dump-trace FILE`).

pub mod event;
pub mod graph;

pub use event::{Event, EventId, Layer, Payload, Process, Recorder};
pub use graph::{BitSet, CausalityGraph};
