#![warn(missing_docs)]

//! # paracrash — the cross-layer crash-consistency testing framework
//!
//! This crate is the reproduction of the paper's contribution proper:
//! given a traced run of a test program over the simulated HPC I/O stack
//! (`h5sim` → `mpiio` → `pfs` → `simfs`), it
//!
//! 1. builds the end-to-end causality graph (via the `tracer` crate) and
//!    the **persists-before** relation (Algorithm 2) over the
//!    lowermost-level operations ([`persist`]);
//! 2. enumerates **crash states** — consistent cuts plus up-to-`k`
//!    dropped victims with their persistence-dependency closures
//!    (Algorithm 1, [`emulate`]);
//! 3. materializes each crash state on snapshots of the server stores,
//!    runs the stack's recovery tools, and compares the recovered state
//!    against **legal golden states** generated from the preserved sets
//!    allowed by each layer's crash-consistency model ([`model`],
//!    [`check`]);
//! 4. attributes each inconsistency to the responsible layer —
//!    I/O library vs parallel file system (Figure 6) — classifies it as
//!    a reordering or atomicity violation (Table 1, [`classify`]), and
//!    aggregates duplicates (§5.2);
//! 5. optionally prunes and reorders the exploration (§5.3: known-bad
//!    pattern pruning, semantic object-map pruning, incremental state
//!    reconstruction with a greedy TSP visiting order, [`explore`]);
//! 6. optionally builds a provenance bundle per reproduced bug — a
//!    delta-debugged minimal witness, a causal-graph export with its
//!    violated persists-before edges, and a tree-structured state diff
//!    ([`explain`]);
//! 7. optionally *generates* workloads instead of replaying the paper's
//!    eleven: B3-style bounded black-box enumeration with a seeded
//!    sampling mode and a deduplicating findings corpus ([`fuzz`]) —
//!    the vocabularies live in `workloads::generated`, the campaign
//!    driver and `paracrash fuzz` CLI in `pc-bench`.

pub mod check;
pub mod classify;
pub mod config;
pub mod dashboard;
pub mod emulate;
pub mod explain;
pub mod explore;
pub mod fuzz;
pub mod golden;
pub mod model;
pub mod persist;
pub mod report;
pub mod snapshot;
pub mod stack;
pub mod telemetry;

pub use check::{check_reference, check_stack, CheckOutcome, Inconsistency, LayerVerdict};
pub use classify::{BugKind, BugSignature};
pub use config::CheckConfig;
pub use emulate::{crash_states, CrashState};
pub use explain::{BugExplanation, EdgeKind};
pub use explore::{ExploreMode, ExploreStats};
pub use fuzz::{bounded_sequences, sample_indices, FuzzCorpus, FuzzFinding};
pub use model::Model;
pub use persist::PersistAnalysis;
pub use snapshot::{prepare_states, SnapshotPlan, SnapshotStats};
pub use stack::{Stack, StackFactory};
