//! `paracrash selftest obs`: assert the observability plane's *disabled*
//! overhead budget.
//!
//! The plane is off by default and its disabled path is one relaxed
//! atomic load per site. There is no plane-free build to diff against,
//! so the bound is computed instead of measured directly:
//!
//! 1. measure the per-site cost `c` of the disabled path;
//! 2. measure the median wall time `t_off` of one full cell with the
//!    plane off (ARVR on BeeGFS, quick scale — the verify gates' cell);
//! 3. count the sites `K` the same cell passes through, with the plane
//!    *on*, which is how they are counted;
//! 4. assert `K × c / t_off < 3 %` — the worst-case share of the cell's
//!    runtime spent in disabled checks.
//!
//! Exits 0 when the bound holds, 1 with a diagnostic when it does not.

use paracrash::{
    check_stack, crash_states, CheckConfig, CrashState, PersistAnalysis, Stack, StackFactory,
};
use pc_rt::obs::{prof, stream};
use std::hint::black_box;
use std::time::Instant;
use tracer::CausalityGraph;
use workloads::{FsKind, Params, Program};

/// Maximum tolerated disabled-plane share of the cell's runtime.
const BUDGET: f64 = 0.03;

/// One traced run on BeeGFS and its crash states: the budget's cell
/// (ARVR at quick scale) and `selftest scale`'s.
pub struct Fixture {
    pub params: Params,
    pub stack: Stack,
    pub factory: StackFactory,
    pub cfg: CheckConfig,
    pub states: Vec<CrashState>,
}

impl Fixture {
    pub fn new(program: Program, params: Params) -> Fixture {
        let stack = program.run(FsKind::BeeGfs, &params);
        let factory = FsKind::BeeGfs.factory(&params);
        let graph = CausalityGraph::build(&stack.rec);
        let pa = PersistAnalysis::build(&stack.rec, &graph, |s| stack.journal_of(s));
        let states = crash_states(&stack.rec, &graph, &pa, 1, None);
        assert!(!states.is_empty(), "no crash states to materialize");
        Fixture {
            params,
            stack,
            factory,
            cfg: CheckConfig::paper_default(),
            states,
        }
    }
}

/// Median wall time of `reps` runs of `f`, in ns (the first run also
/// warms up).
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut runs: Vec<u64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    runs.sort_unstable();
    runs[runs.len() / 2] as f64
}

/// Step 1: ns per disabled site, one site of each kind per round — a
/// span, a counter, a stream event and the allocator's check. All four
/// are one relaxed load of the same mask; `emit` must bail on it before
/// touching name/detail formatting or the sink.
fn disabled_site_ns() -> f64 {
    const ROUNDS: u64 = 500_000;
    let before = stream::published();
    let t = Instant::now();
    for i in 0..ROUNDS {
        let _s = black_box(pc_rt::obs::span("overhead.span"));
        pc_rt::obs::count("overhead.ctr", black_box(i & 1));
        stream::emit(
            stream::EventKind::Cell,
            black_box("overhead.cell"),
            black_box(i & 1),
            "",
        );
        black_box(prof::alloc_tracking_enabled());
    }
    let per_site = t.elapsed().as_nanos() as f64 / (ROUNDS * 4) as f64;
    assert_eq!(
        stream::published(),
        before,
        "disabled emit must publish nothing"
    );
    per_site
}

/// Compute and assert the disabled-overhead bound of the `obs` plane.
pub fn disabled_obs() {
    pc_rt::obs::set_enabled(false);
    let fx = Fixture::new(Program::Arvr, Params::quick());
    let cell = || {
        let stack = Program::Arvr.run(FsKind::BeeGfs, &fx.params);
        black_box(check_stack(&stack, &fx.factory, &fx.cfg).bugs.len());
    };
    let per_site_ns = disabled_site_ns();
    let t_off_ns = median_ns(9, cell);
    // Steps 3–4. Registry on: its operations and the allocations of one
    // cell (a bare `check_stack` publishes no event; the drivers' one
    // `cell` event per cell is the probe's `emit`).
    pc_rt::obs::reset();
    pc_rt::obs::set_enabled(true);
    cell();
    let snap = pc_rt::obs::snapshot();
    pc_rt::obs::set_enabled(false);
    pc_rt::obs::reset();
    let sites = snap.ops + snap.dropped_spans + snap.alloc_total.count;
    let overhead = sites as f64 * per_site_ns / t_off_ns;
    println!(
        "selftest obs: {sites} span/counter ops + allocations x {per_site_ns:.2} ns disabled \
         cost / {:.2} ms cell = {:.4}% (budget {:.0}%)",
        t_off_ns / 1e6,
        overhead * 100.0,
        BUDGET * 100.0,
    );
    if overhead >= BUDGET {
        super::selftest::fail(format_args!(
            "disabled obs overhead {:.3}% exceeds the {:.0}% budget",
            overhead * 100.0,
            BUDGET * 100.0
        ));
    }
}
