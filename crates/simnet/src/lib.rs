#![warn(missing_docs)]

//! # simnet — deterministic simulated cluster
//!
//! ParaCrash's evaluation runs each PFS server as "a separate process …
//! listening on a distinct network port" on one machine (§6.1). This crate
//! is the in-process equivalent: a cluster **topology** (metadata servers,
//! storage servers, combined servers, clients) and an **RPC** helper that
//! records matched `sendto` / `recvfrom` trace events with
//! sender→receiver causality edges — the raw material from which the
//! `tracer` crate builds the multi-layer causality graph, the one
//! happens-before relation the framework reads.
//!
//! Determinism is load-bearing: crash-state exploration must be exactly
//! reproducible across runs, so all message delivery is synchronous and
//! ordered by program logic, never by wall-clock time.

pub mod rpc;
pub mod topology;

pub use rpc::RpcNet;
pub use topology::{ClusterTopology, ServerRole, ServerSpec};
