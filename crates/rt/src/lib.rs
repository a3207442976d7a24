#![warn(missing_docs)]

//! `pc-rt` — the vendored runtime of the ParaCrash reproduction.
//!
//! The workspace builds **hermetically**: `cargo build --release --offline`
//! must succeed from a cold, empty cargo registry, so nothing in the tree
//! may depend on a registry crate. This crate supplies, on top of `std`
//! alone, the four pieces of infrastructure the framework previously
//! pulled from crates.io:
//!
//! * [`pool`] — a scoped worker pool: a task scheduler
//!   (`Pool::scope`) for pipelined stages (replaces `rayon` on the
//!   crash-state verdict fan-out of Algorithm 1's exploration loop). Thread count comes from the
//!   `PC_THREADS` environment variable, defaulting to the machine's
//!   available parallelism.
//! * [`intern`] — process-global symbol interning (`Sym`, a 4-byte id)
//!   for the path components and structure labels the simulation layers
//!   key their maps by.
//! * [`rng`] — a deterministic SplitMix64-seeded xoshiro256\*\* PRNG
//!   (replaces `rand`). Same seed, same stream, on every platform.
//! * [`proptest`] — a seeded property-testing harness with
//!   shrinking-by-halving and failure-seed reporting (replaces the
//!   `proptest` crate for the suite's property tests).
//! * [`durable`] — crash-safe on-disk primitives (an append-only
//!   CRC-checked record log with torn-tail recovery) backing the
//!   resumable campaign engine.
//! * [`inject`] — labelled injection points: a test arms a label
//!   prefix and a hit number, and the process crashes there (the
//!   durable log's durability points, the sweep's cells).
//! * [`obs`] — structured telemetry (spans, counters, gauges, a
//!   leveled logger) for the checker pipeline itself
//!   (replaces `tracing`), with the [`obs::stream`] event stream and
//!   the [`obs::prof`] self-profiling plane (an exact per-stack
//!   self-time fold with `.folded` export, and a counting
//!   `#[global_allocator]` attributing alloc count/bytes/peak to the
//!   innermost open span; replaces `pprof` + `dhat`) behind it. All off
//!   by default behind one enable mask: every disabled check is one
//!   relaxed atomic load.
//! * [`mod@env`] — the table of every `PC_*` variable and the only
//!   `std::env::var` calls in the workspace.
//!
//! Owning the runtime is not only an offline-build workaround: the
//! exploration hot path (thousands of independent crash-state
//! reconstructions per trace) is exactly the loop later performance work
//! wants to schedule deliberately — batching states that share server
//! fingerprints, choosing which queued task runs next — which a black-box
//! `rayon` would not let us do.
//!
//! # Example
//!
//! ```
//! use pc_rt::{pool, rng::Rng};
//!
//! // Deterministic PRNG: same seed, same stream.
//! let mut a = Rng::new(42);
//! let mut b = Rng::new(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//!
//! // Scoped tasks join by handle, whatever order workers finish in.
//! let square = pool::scope(|sc| sc.spawn(|| 4u64 * 4).join());
//! assert_eq!(square, Ok(16));
//! ```

pub mod durable;
pub mod env;
pub mod hash;
pub mod inject;
pub mod intern;
pub mod json;
pub mod obs;
pub mod pool;
pub mod proptest;
pub mod rng;

/// Take `m`'s guard whether or not a thread panicked while holding it.
/// For mutexes whose every update leaves the data valid at each step
/// (a counter bump, a queue push, a map insert): there a poisoned flag
/// carries no information, and honouring it turns one panicking task —
/// which is a diagnostic — into a panic in every task that locks next.
pub fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
