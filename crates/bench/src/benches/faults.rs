//! Benches for the `simnet` fault plane.
//!
//! The number that matters is the *disabled* cost: after PR 4 every PFS
//! model routes its RPC traffic through [`simnet::RpcNet::faulty`] with
//! an inactive [`simnet::FaultPlane`], so the per-message price of the
//! plane check is paid by every fault-free run. The `selftest faults`
//! binary (verify gate) asserts that price stays under 3% of a traced
//! workload run; these benches are the per-operation view committed as
//! `BENCH_faults.json`.

use pc_rt::bench::{black_box, Bench};
use simnet::{FaultConfig, FaultPlane, RpcNet};
use tracer::{Process, Recorder};
use workloads::{FsKind, Params, Program};

/// Messages per bench iteration (fresh recorder each time, so recorder
/// growth does not leak across samples).
const MSGS: u32 = 256;

fn round_trips(net: &mut RpcNet<'_>) {
    for i in 0..MSGS {
        let client = Process::Client(i % 4);
        let server = Process::Server(i % 2);
        let (_, recv) = net.request(client, server, "WRITE", None);
        net.reply(server, client, "OK", Some(recv));
    }
}

/// Register the fault-plane benches.
pub fn register(b: &mut Bench) {
    b.bench("faults/rpc/fault-free", || {
        let mut rec = Recorder::new();
        let mut net = RpcNet::new(&mut rec);
        round_trips(&mut net);
        black_box(rec.len())
    });
    b.bench("faults/rpc/disabled-plane", || {
        let mut rec = Recorder::new();
        let mut plane = FaultPlane::disabled();
        let mut net = RpcNet::faulty(&mut rec, &mut plane);
        round_trips(&mut net);
        black_box(rec.len())
    });
    b.bench("faults/rpc/chaos-plane", || {
        let mut rec = Recorder::new();
        let mut plane = FaultPlane::new(FaultConfig::chaos(42));
        let mut net = RpcNet::faulty(&mut rec, &mut plane);
        round_trips(&mut net);
        black_box(rec.len())
    });

    // End to end: one traced workload run, fault-free vs chaos. The
    // chaos run's extra cost is the injected events themselves (lost
    // sends, duplicate deliveries), not bookkeeping.
    let clean = Params::quick();
    let chaos = Params::quick().with_faults(FaultConfig::chaos(42));
    b.bench("faults/run/fault-free", || {
        black_box(Program::Arvr.run(FsKind::BeeGfs, &clean).rec.len())
    });
    b.bench("faults/run/chaos", || {
        black_box(Program::Arvr.run(FsKind::BeeGfs, &chaos).rec.len())
    });
}
