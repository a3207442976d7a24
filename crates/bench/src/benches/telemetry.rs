//! Benches for the `pc_rt::obs` telemetry layer itself.
//!
//! Two questions matter:
//!
//! * **disabled cost** — what does an instrumentation site cost when
//!   telemetry is off (the default)? This is the price every production
//!   run pays and must stay at a single atomic load (~1 ns);
//! * **enabled cost** — what does recording cost when telemetry is on?
//!   This bounds how much a `--telemetry-out` run distorts the
//!   timings it reports.
//!
//! `paracrash selftest telemetry` (the `scripts/verify.sh` gate)
//! additionally asserts the end-to-end disabled overhead on the
//! snapshot-engine microbench stays under 3%; these benches are the
//! per-operation view committed as `BENCH_telemetry.json`.

use paracrash::{crash_states, prepare_states, PersistAnalysis};
use pc_rt::bench::{black_box, Bench};
use tracer::CausalityGraph;
use workloads::{FsKind, Params, Program};

/// Register the telemetry-layer benches.
pub fn register(b: &mut Bench) {
    // Per-operation costs, disabled vs enabled. `set_enabled` overrides
    // whatever PC_TRACE says, and is restored to off afterwards so the
    // other suites bench the production configuration.
    pc_rt::obs::set_enabled(false);
    b.bench("telemetry/span/disabled", || {
        for _ in 0..1000 {
            let _s = black_box(pc_rt::obs::span("bench.telemetry.span"));
        }
    });
    b.bench("telemetry/counter/disabled", || {
        for _ in 0..1000 {
            pc_rt::obs::count("bench.telemetry.ctr", black_box(1));
        }
    });
    pc_rt::obs::set_enabled(true);
    b.bench("telemetry/span/enabled", || {
        for _ in 0..1000 {
            let _s = black_box(pc_rt::obs::span("bench.telemetry.span"));
        }
    });
    b.bench("telemetry/counter/enabled", || {
        for _ in 0..1000 {
            pc_rt::obs::count("bench.telemetry.ctr", black_box(1));
        }
    });
    pc_rt::obs::reset();
    pc_rt::obs::set_enabled(false);

    // End-to-end: the snapshot-engine materialization microbench (the
    // same workload the verify gate measures) with telemetry off and on.
    let params = Params::quick();
    let stack = Program::Arvr.run(FsKind::BeeGfs, &params);
    let graph = CausalityGraph::build(&stack.rec);
    let pa = PersistAnalysis::build(&stack.rec, &graph, |s| stack.journal_of(s));
    let states = crash_states(&stack.rec, &graph, &pa, 1, None);
    assert!(!states.is_empty());
    b.bench("telemetry/snapshot-materialize/off", || {
        prepare_states(&stack.rec, stack.pfs.baseline(), &states).prepared
    });
    pc_rt::obs::set_enabled(true);
    b.bench("telemetry/snapshot-materialize/on", || {
        prepare_states(&stack.rec, stack.pfs.baseline(), &states).prepared
    });
    pc_rt::obs::reset();
    pc_rt::obs::set_enabled(false);
}
