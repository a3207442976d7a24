//! `paracrash selftest <obs|faults>`: assert the plane's *disabled*
//! overhead budget.
//!
//! Every plane is off by default and its disabled path is one cheap
//! check per site (a relaxed atomic load, an inactive-plane branch).
//! There is no plane-free build to diff against, so the bound is
//! computed instead of measured directly, the same four steps for every
//! plane:
//!
//! 1. measure the per-site cost `c` of the disabled path (`probe`);
//! 2. measure the median wall time `t_off` of the plane's reference
//!    workload with the plane off (ARVR on BeeGFS, quick scale — the
//!    verify gates' cell);
//! 3. count the sites `K` the same workload passes through, with the
//!    plane *on* where that is how they are counted (`sites`);
//! 4. assert `K × c / t_off < 3 %` — the worst-case share of the
//!    workload's runtime spent in disabled checks.
//!
//! Exits 0 when the bound holds, 1 with a diagnostic when it does not.

use paracrash::{
    check_stack, crash_states, CheckConfig, CrashState, PersistAnalysis, Stack, StackFactory,
};
use pc_rt::obs::{prof, stream};
use simnet::{FaultPlane, RpcNet};
use std::hint::black_box;
use std::time::Instant;
use tracer::{CausalityGraph, Payload, Process, Recorder};
use workloads::{FsKind, Params, Program};

/// Maximum tolerated disabled-plane share of the workload runtime.
const BUDGET: f64 = 0.03;

/// What the probes and workloads share: one traced run on BeeGFS (the
/// budgets use ARVR at quick scale) and its crash states.
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

/// One row of the per-plane table.
struct Plane {
    name: &'static str,
    /// What one counted site is, for the report line.
    unit: &'static str,
    /// What the timed workload is, for the report line.
    workload_name: &'static str,
    /// Step 1: ns per disabled site.
    probe: fn(&Fixture) -> f64,
    /// Step 2: one run of the reference workload.
    workload: fn(&Fixture),
    /// Step 3: sites the workload passes through.
    sites: fn(&Fixture, fn(&Fixture)) -> u64,
}

// --- workloads --------------------------------------------------------------

/// The traced run alone.
fn traced_run(fx: &Fixture) {
    black_box(Program::Arvr.run(FsKind::BeeGfs, &fx.params).rec.len());
}

/// One full cell, the unit the sweep driver instruments.
fn cell(fx: &Fixture) {
    let stack = Program::Arvr.run(FsKind::BeeGfs, &fx.params);
    black_box(check_stack(&stack, &fx.factory, &fx.cfg).bugs.len());
}

// --- the table --------------------------------------------------------------

const PLANES: [Plane; 2] = [
    Plane {
        name: "obs",
        unit: "span/counter ops + allocations",
        workload_name: "cell",
        // One disabled site of each kind: a span, a counter, a stream
        // event and the allocator's check. All four are one relaxed
        // load of the same mask; `emit` must bail on it before touching
        // name/detail formatting or the sink.
        probe: |_| {
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
        },
        workload: cell,
        // Registry on: its operations and the allocations of one run
        // (a bare `check_stack` publishes no event; the drivers' one
        // `cell` event per cell is the probe's `emit`).
        sites: |fx, workload| {
            pc_rt::obs::reset();
            pc_rt::obs::set_enabled(true);
            workload(fx);
            let snap = pc_rt::obs::snapshot();
            pc_rt::obs::set_enabled(false);
            pc_rt::obs::reset();
            snap.ops + snap.dropped_spans + snap.alloc_total.count
        },
    },
    Plane {
        name: "faults",
        unit: "messages",
        workload_name: "traced run",
        // Per-message cost of a round trip through `RpcNet::new`
        // (fault-free) vs `RpcNet::faulty` with a disabled plane; both
        // loops are identical apart from the plane wiring.
        probe: |_| {
            const MSGS: u32 = 4096;
            let per_msg = |faulty: bool| {
                median_ns(21, || {
                    let mut rec = Recorder::new();
                    let mut plane = FaultPlane::disabled();
                    let mut net = if faulty {
                        RpcNet::faulty(&mut rec, &mut plane)
                    } else {
                        RpcNet::new(&mut rec)
                    };
                    for i in 0..MSGS {
                        let client = Process::Client(i % 4);
                        let server = Process::Server(i % 2);
                        let (_, recv) = net.request(client, server, "WRITE", None);
                        net.reply(server, client, "OK", Some(recv));
                    }
                    drop(net);
                    black_box(rec.len());
                }) / (f64::from(MSGS) * 2.0)
            };
            let (clean, faulty) = (per_msg(false), per_msg(true));
            println!("selftest faults: {clean:.2} -> {faulty:.2} ns/msg with a disabled plane");
            (faulty - clean).max(0.0)
        },
        workload: traced_run,
        sites: |fx, _| {
            let events = fx.stack.rec.events();
            let sends = events
                .iter()
                .filter(|e| matches!(e.payload, Payload::Send { .. }));
            sends.count() as u64
        },
    },
];

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

/// `true` when `plane` has a disabled-overhead budget.
pub fn has_budget(plane: &str) -> bool {
    PLANES.iter().any(|p| p.name == plane)
}

/// Compute and assert the disabled-overhead bound of `plane`.
pub fn disabled_overhead(plane: &str) {
    let p = PLANES
        .iter()
        .find(|p| p.name == plane)
        .expect("caller checked has_budget");
    pc_rt::obs::set_enabled(false);
    let fx = Fixture::new(Program::Arvr, Params::quick());
    let per_site_ns = (p.probe)(&fx);
    let t_off_ns = median_ns(9, || (p.workload)(&fx));
    let sites = (p.sites)(&fx, p.workload);
    let overhead = sites as f64 * per_site_ns / t_off_ns;
    println!(
        "selftest {plane}: {sites} {} x {per_site_ns:.2} ns disabled cost \
         / {:.2} ms {} = {:.4}% (budget {:.0}%)",
        p.unit,
        t_off_ns / 1e6,
        p.workload_name,
        overhead * 100.0,
        BUDGET * 100.0,
    );
    if overhead >= BUDGET {
        super::selftest::fail(format_args!(
            "disabled {plane} overhead {:.3}% exceeds the {:.0}% budget",
            overhead * 100.0,
            BUDGET * 100.0
        ));
    }
}
