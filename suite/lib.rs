#![warn(missing_docs)]

//! # paracrash-suite — integration surface of the ParaCrash reproduction
//!
//! This crate ties the workspace together for the repository-level
//! integration tests (`tests/`) and runnable examples (`examples/`). It
//! re-exports the member crates and provides a few one-call helpers that
//! the examples and tests share.

pub use h5sim;
pub use mpiio;
pub use paracrash;
pub use pfs;
pub use simfs;
pub use simnet;
pub use tracer;
pub use workloads;

use paracrash::{CheckConfig, CheckOutcome};
use workloads::{FsKind, Params, Program};

/// Run one `(program, file system)` cell at the fast test scale with the
/// paper's checker configuration, merging the program's placement
/// variants (the sensitivity sweep of §6.2).
pub fn check_quick(program: Program, fs: FsKind) -> CheckOutcome {
    check_with(program, fs, &Params::quick(), &CheckConfig::paper_default())
}

/// Run one cell with explicit parameters and configuration.
pub fn check_with(
    program: Program,
    fs: FsKind,
    params: &Params,
    cfg: &CheckConfig,
) -> CheckOutcome {
    pc_bench::run_program(program, fs, params, cfg).outcome
}

/// All bug signatures of an outcome, rendered.
pub fn signatures(outcome: &CheckOutcome) -> Vec<String> {
    outcome
        .bugs
        .iter()
        .map(|b| b.signature.to_string())
        .collect()
}
