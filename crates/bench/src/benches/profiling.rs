//! The self-profiling suite behind the committed `BENCH_profiling.json`:
//! engine throughput with the sampling profiler off vs on, and
//! per-stage allocation accounting at 16 and 64 servers.
//!
//! The throughput pair brackets the *enabled* sampler's cost (the
//! disabled path is a separate contract, gated by `selftest prof`):
//!
//! * `profiling/sampler-off/16-servers` — the batched verdict engine
//!   with telemetry on but no sampler thread;
//! * `profiling/sampler-on/16-servers` — the same loop while the
//!   sampler folds every worker's span stack at 997 Hz.
//!
//! Both annotate `states_per_sec`; the `-on` sample adds
//! `samples_per_sec` (how fast the fold actually ran).
//!
//! The `profiling/alloc/{16,64}-servers` samples time one full checker
//! run, then re-run it once with allocation accounting on and annotate
//! what the counting allocator attributed:
//!
//! * `alloc_bytes` / `alloc_peak_bytes` — run-total allocation volume
//!   and peak net footprint;
//! * `trace_alloc_bytes` / `trace_events` / `trace_bytes_per_event` —
//!   bytes attributed to the `trace.generate` span per recorded trace
//!   event, the per-event heap-allocation baseline the ROADMAP's
//!   extreme-scale round-2 item wants pinned before `tracer::Record`
//!   goes arena-backed.

use paracrash::{crash_states, prepare_states, ExploreMode, PersistAnalysis};
use pc_rt::bench::Bench;
use pc_rt::obs::prof;
use pfs::{recover_and_mount, PfsView};
use tracer::CausalityGraph;
use workloads::{FsKind, Params, Program};

use crate::run_with_mode;

/// Sampling rate for the `-on` sample: a prime well above the default
/// 97 Hz so the bench exercises a deliberately aggressive fold cadence.
const BENCH_HZ: u32 = 997;

/// Server-count parameterization shared with the `scale` suite.
fn scale_params(servers: u32) -> Params {
    let base = Params::quick();
    let stripe = (base.stripe * 4 / u64::from(servers)).max(256);
    base.with_servers(servers / 2, servers / 2)
        .with_stripe(stripe)
}

/// Annotate engine throughput on the just-benched sample (no-op when a
/// name filter skipped it).
fn annotate_throughput(b: &mut Bench, before: usize, states: usize) {
    if b.samples().len() == before {
        return;
    }
    let median_ns = b.samples().last().expect("just pushed").median_ns;
    b.annotate("states_checked", states as f64);
    b.annotate("states_per_sec", states as f64 / (median_ns / 1e9));
}

/// Register the profiling suite.
pub fn register(b: &mut Bench) {
    // The engine loop under test: identical to `scale/engine-batched`.
    let params = scale_params(16);
    let stack = Program::Arvr.run(FsKind::BeeGfs, &params);
    let graph = CausalityGraph::build(&stack.rec);
    let pa = PersistAnalysis::build(&stack.rec, &graph, |s| stack.journal_of(s));
    let states = crash_states(&stack.rec, &graph, &pa, 1, None);
    assert!(!states.is_empty());
    let engine = || {
        let plan = prepare_states(&stack.rec, stack.pfs.baseline(), &states);
        let mut views: Vec<Option<PfsView>> = (0..states.len()).map(|_| None).collect();
        let mut digest = 0u64;
        for (i, &rep) in plan.rep.iter().enumerate() {
            debug_assert!(rep <= i);
            if views[rep].is_none() {
                let mut st = plan.prepared[rep].fork();
                let (_, view) = recover_and_mount(stack.pfs.as_ref(), &mut st);
                views[rep] = Some(view);
            }
            digest ^= views[rep].as_ref().expect("recovered above").digest();
        }
        digest
    };

    // Telemetry on for both sides so the only delta is the sampler.
    pc_rt::obs::reset();
    pc_rt::obs::set_enabled(true);

    let before = b.samples().len();
    b.bench("profiling/sampler-off/16-servers", engine);
    annotate_throughput(b, before, states.len());

    prof::enable_sampling(BENCH_HZ);
    let sampled_from = prof::samples_total();
    let t = std::time::Instant::now();
    let before = b.samples().len();
    b.bench("profiling/sampler-on/16-servers", engine);
    let wall = t.elapsed().as_secs_f64();
    let sampled = prof::samples_total() - sampled_from;
    prof::disable_sampling();
    annotate_throughput(b, before, states.len());
    if b.samples().len() > before {
        b.annotate("samples_per_sec", sampled as f64 / wall.max(1e-9));
    }

    pc_rt::obs::set_enabled(false);
    pc_rt::obs::reset();

    // Allocation accounting: time the plain checker run, then account
    // one run outside the timing loop and pin what it allocated.
    for &servers in &[16u32, 64] {
        let cell_params = scale_params(servers);
        let before = b.samples().len();
        b.bench(&format!("profiling/alloc/{servers}-servers"), || {
            run_with_mode(
                Program::H5Create,
                FsKind::BeeGfs,
                &cell_params,
                ExploreMode::Optimized,
            )
        });
        if b.samples().len() == before {
            continue;
        }
        // Event count from an unaccounted run; the accounted run below
        // attributes trace allocation through `run_cell`'s own
        // `trace.generate` span.
        let events = Program::H5Create
            .run(FsKind::BeeGfs, &cell_params)
            .rec
            .len();
        pc_rt::obs::reset();
        pc_rt::obs::set_enabled(true);
        run_with_mode(
            Program::H5Create,
            FsKind::BeeGfs,
            &cell_params,
            ExploreMode::Optimized,
        );
        let snap = pc_rt::obs::snapshot();
        pc_rt::obs::set_enabled(false);
        pc_rt::obs::reset();
        let trace_bytes = snap
            .allocs
            .iter()
            .find(|(n, _)| n == "trace.generate")
            .map_or(0, |(_, s)| s.bytes);
        b.annotate("alloc_bytes", snap.alloc_total.bytes as f64);
        b.annotate("alloc_peak_bytes", snap.alloc_total.peak_bytes as f64);
        b.annotate("trace_alloc_bytes", trace_bytes as f64);
        b.annotate("trace_events", events as f64);
        b.annotate(
            "trace_bytes_per_event",
            trace_bytes as f64 / (events.max(1)) as f64,
        );
    }
}
