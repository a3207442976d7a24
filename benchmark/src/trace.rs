//! Outside-in tracing: spans around the calls the harness makes into
//! each layer's public functions.
//!
//! Nothing here reaches inside the program. After a stack's
//! `check_stack` the harness *re-drives* the checker's stages on the
//! same `Stack` through their public entry points and times each call,
//! so a stage's row is the cost of that stage's work on this cell's
//! input, measured on one thread. Spans stay in memory and are written
//! to `out/trace-<workload>.jsonl` when the run ends.

use crate::json::Json;
use h5sim::{check as h5check, h5clear};
use paracrash::explore::is_data_chunk;
use paracrash::stack::{replay_h5, replay_pfs};
use paracrash::{
    crash_states, prepare_states, CheckConfig, CheckOutcome, PersistAnalysis, Stack, StackFactory,
};
use pfs::PfsCall;
use simnet::RpcNet;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use tracer::{CausalityGraph, EventId, Payload, Process, Recorder};

/// One timed call. `parent` is the span that was open when this one
/// started; spans of one cell share `cell`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cell: usize,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder for the load-generating thread.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    cell: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
        }
    }

    pub fn set_cell(&mut self, cell: usize) {
        self.cell = cell;
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell: self.cell,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now();
    }

    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close every span opened since `depth` (a cell panicked).
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let id = *self.open.last().expect("non-empty");
            self.exit(id);
        }
    }

    /// Total duration of the spans called `name` recorded since span
    /// index `from`.
    pub fn total_ms(&self, from: usize, name: &str) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }
}

/// A span's self time: its duration minus the part of that interval
/// its child spans cover. `spans` must be in start order, which is the
/// order a `Tracer` records them in.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    let mut covered_until = vec![0u64; spans.len()];
    for s in spans {
        let Some(p) = s.parent else { continue };
        let start = s.start_ns.max(covered_until[p]).max(spans[p].start_ns);
        let end = s.end_ns.min(spans[p].end_ns);
        if end > start {
            covered[p] += end - start;
            covered_until[p] = end;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns) - c)
        .collect()
}

/// The trace file: a header line, then one line per span.
pub fn render_jsonl(header: Json, labels: &[String], spans: &[Span]) -> String {
    let mut out = header.compact();
    out.push('\n');
    for (id, (s, self_ns)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
        let line = Json::obj([
            ("id", Json::Num(id as f64)),
            ("name", Json::str(s.name)),
            (
                "cell",
                Json::str(labels.get(s.cell).map_or("", String::as_str)),
            ),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("self_ns", Json::Num(self_ns as f64)),
        ]);
        out.push_str(&line.compact());
        out.push('\n');
    }
    out
}

/// The stage-sum identity: `stages + residual == check_stack` holds by
/// construction, so the only thing to watch is the residual's sign. A
/// negative one means the re-driven stages (run back to back on one
/// thread) cost more than the whole check did with its verdict workers
/// overlapping the replay producer; it is reported, never clamped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSum {
    pub check_ms: f64,
    pub stages_ms: f64,
    pub residual_ms: f64,
}

impl StageSum {
    pub fn new(check_ms: f64, stages: &[f64]) -> StageSum {
        let stages_ms: f64 = stages.iter().sum();
        StageSum {
            check_ms,
            stages_ms,
            residual_ms: check_ms - stages_ms,
        }
    }

    pub fn negative(&self) -> bool {
        self.residual_ms < 0.0
    }
}

/// Counts taken at the layer boundaries during one traced pass.
#[derive(Debug, Default, Clone)]
pub struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    pub fn add(&mut self, name: &'static str, n: f64) {
        *self.0.entry(name).or_default() += n;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn owned_calls(stack: &Stack) -> Vec<(Process, PfsCall)> {
    stack
        .calls
        .entries()
        .iter()
        .map(|(_, p, c)| (*p, c.clone()))
        .collect()
}

/// Re-drive the checker's stages on a checked stack, one span per call
/// into a layer. Returns the stage-sum reading for this stack.
pub fn redrive(
    tr: &mut Tracer,
    counts: &mut Counts,
    stack: &Stack,
    factory: &StackFactory,
    cfg: &CheckConfig,
    outcome: &CheckOutcome,
    check_ms: f64,
) -> StageSum {
    let first = tr.spans.len();
    let redrive = tr.enter("redrive");
    let rec = &stack.rec;
    counts.add("workloads.events_recorded", rec.len() as f64);

    // tracer → core.persist → core.emulate → core.snapshot, exactly the
    // calls `check_stack` opens with.
    let graph = tr.time("tracer.graph_build", || CausalityGraph::build(rec));
    counts.add("tracer.graph_events", graph.len() as f64);
    let pa = tr.time("core.persist.build", || {
        PersistAnalysis::build(rec, &graph, |s| stack.journal_of(s))
    });
    counts.add("core.persist.updates", pa.updates().len() as f64);
    let semantic = cfg.mode.prunes() && stack.h5_path.is_some();
    let filter = |e: EventId| !(semantic && is_data_chunk(rec, e));
    let states = tr.time("core.emulate.enumerate", || {
        crash_states(rec, &graph, &pa, cfg.k, Some(&filter))
    });
    counts.add("core.emulate.states", states.len() as f64);
    let plan = tr.time("core.snapshot.prepare", || {
        prepare_states(rec, stack.pfs.baseline(), &states)
    });
    counts.add("core.snapshot.forks", plan.stats.forks as f64);
    counts.add("core.snapshot.ops_replayed", plan.stats.ops_replayed as f64);
    counts.add("core.snapshot.naive_ops", plan.stats.naive_ops as f64);

    // pfs: one fork → recover → mount per prefix-tree representative,
    // the unit `check_stack` shares a recovered view across.
    for (i, _) in plan.rep.iter().enumerate().filter(|&(i, &rep)| rep == i) {
        let mut st = tr.time("pfs.fork", || plan.prepared[i].fork());
        tr.time("pfs.recover", || black_box(stack.pfs.recover(&mut st)));
        tr.time("pfs.mount", || black_box(stack.pfs.client_view(&st)));
        counts.add("core.snapshot.representatives", 1.0);
    }

    // pfs dispatch + simnet: preamble and test calls on a fresh
    // instance with a fresh recorder — what one golden replay does.
    let test_calls = owned_calls(stack);
    let mut fresh = tr.time("pfs.factory", factory);
    let mut probe = Recorder::new();
    tr.time("pfs.dispatch", || {
        for (client, call) in stack.pre_calls.iter().chain(&test_calls) {
            let _ = black_box(fresh.dispatch(&mut probe, *client, call, None));
        }
    });
    counts.add(
        "pfs.dispatch_calls",
        (stack.pre_calls.len() + test_calls.len()) as f64,
    );
    let rpc_events = probe
        .events()
        .iter()
        .filter(|e| matches!(e.payload, Payload::Send { .. } | Payload::Recv { .. }))
        .count();
    counts.add("simnet.rpc_events", rpc_events as f64);
    let replay_pfs_ms = {
        let id = tr.enter("core.stack.replay_pfs_full");
        black_box(replay_pfs(factory, &stack.pre_calls, &test_calls));
        tr.exit(id);
        tr.spans[id].ms()
    };

    // simfs: the recorded local-FS ops onto a private copy of the
    // baseline (GPFS cells record block ops and contribute nothing).
    let fs_ops: Vec<EventId> = rec
        .events()
        .iter()
        .filter(|e| matches!(e.payload, Payload::Fs { .. }))
        .map(|e| e.id)
        .collect();
    if !fs_ops.is_empty() {
        let mut st = stack.pfs.baseline().deep_clone();
        tr.time("simfs.apply", || {
            st.apply_events(rec, fs_ops.iter().copied())
        });
        counts.add("simfs.ops", fs_ops.len() as f64);
    }

    // h5sim: one full golden replay, one h5check, one h5clear.
    let mut replay_h5_ms = 0.0;
    if let Some(path) = &stack.h5_path {
        let test_h5: Vec<(u32, h5sim::H5Call)> = stack
            .h5
            .entries()
            .iter()
            .map(|(_, r, c)| (*r, c.clone()))
            .collect();
        let id = tr.enter("h5sim.replay");
        black_box(replay_h5(
            factory,
            path,
            &stack.h5_ranks,
            &stack.pre_h5,
            &test_h5,
            stack.h5_spec,
        ));
        tr.exit(id);
        replay_h5_ms = tr.spans[id].ms();
        let live = stack.pfs.client_view(stack.pfs.live());
        if let Some(bytes) = live.read(path) {
            tr.time("h5sim.check", || black_box(h5check(bytes).is_ok()));
            tr.time("h5sim.clear", || black_box(h5clear(bytes, cfg.clear_opts)));
        }
    }
    tr.exit(redrive);

    // What the checker itself reports about this stack.
    let stats = &outcome.stats;
    counts.add("core.check.states_total", stats.states_total as f64);
    counts.add("core.check.states_checked", stats.states_checked as f64);
    counts.add("core.check.states_pruned", stats.states_pruned as f64);
    counts.add("core.stack.legal_replays", stats.legal_replays as f64);
    counts.add(
        "core.stack.cache_hits",
        (stats.pfs_cache.hits + stats.h5_cache.hits) as f64,
    );
    // Computed, not measured: every replay-cache miss charged one
    // full-sequence replay. A miss replays each preserved set of its
    // candidate ops (several, each shorter than the full sequence), so
    // this is an estimate, not a bound.
    let replay_est_ms =
        stats.pfs_cache.misses as f64 * replay_pfs_ms + stats.h5_cache.misses as f64 * replay_h5_ms;
    counts.add("core.stack.replay_est_ms", replay_est_ms);

    let sum = StageSum::new(
        check_ms,
        &[
            tr.total_ms(first, "tracer.graph_build"),
            tr.total_ms(first, "core.persist.build"),
            tr.total_ms(first, "core.emulate.enumerate"),
            tr.total_ms(first, "core.snapshot.prepare"),
            tr.total_ms(first, "pfs.recover"),
            tr.total_ms(first, "pfs.mount"),
            replay_est_ms,
        ],
    );
    counts.add("core.check.residual_ms", sum.residual_ms);
    if sum.negative() {
        counts.add("core.check.negative_residual_stacks", 1.0);
    }
    sum
}

/// Messages of the `simnet` probe batch.
const MSG_BATCH: usize = 20_000;
/// Tasks of the `pool::scope` spawn probe.
const SPAWN_TASKS: usize = 1_000;

/// Once-per-pass probes of the layers no single cell isolates.
pub fn pass_probes(tr: &mut Tracer, counts: &mut Counts, servers: u32) {
    // simnet: deliveries round-robin over the workload's servers.
    let mut rec = Recorder::new();
    let mut net = RpcNet::new(&mut rec);
    tr.time("simnet.msg_batch", || {
        for i in 0..MSG_BATCH {
            let to = Process::Server(i as u32 % servers);
            black_box(net.message(Process::Client(0), to, "probe", None));
        }
    });
    counts.add("simnet.msgs", MSG_BATCH as f64);

    // rt.pool: what one `scope` costs before it does any work, and
    // what each spawned task adds.
    const SCOPES: usize = 50;
    tr.time("rt.pool.scope_empty", || {
        for _ in 0..SCOPES {
            pc_rt::pool::scope(|_| ());
        }
    });
    counts.add("rt.pool.scopes", SCOPES as f64);
    tr.time("rt.pool.spawn_batch", || {
        pc_rt::pool::scope(|scope| {
            let handles: Vec<_> = (0..SPAWN_TASKS)
                .map(|i| scope.spawn(move || black_box(i)))
                .collect();
            for h in handles {
                let _ = h.join();
            }
        })
    });
    counts.add("rt.pool.spawned", SPAWN_TASKS as f64);
}

/// Every per-layer metric the traced run reports: name, unit, whether
/// higher or lower is better. `BENCHMARK.json` lists the same rows (a
/// unit test holds the two together).
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    ("workloads.trace_gen_ms", "ms", "lower"),
    ("workloads.events_recorded", "count", "lower"),
    ("workloads.corpus_enum_ms", "ms", "lower"),
    ("tracer.graph_build_ms", "ms", "lower"),
    ("tracer.graph_events", "count", "lower"),
    ("core.persist.build_ms", "ms", "lower"),
    ("core.persist.updates", "count", "lower"),
    ("core.emulate.enumerate_ms", "ms", "lower"),
    ("core.emulate.states", "count", "lower"),
    ("core.snapshot.prepare_ms", "ms", "lower"),
    ("core.snapshot.forks", "count", "lower"),
    ("core.snapshot.ops_replayed", "count", "lower"),
    ("core.snapshot.share_ratio", "ratio", "higher"),
    ("core.snapshot.representatives", "count", "lower"),
    ("pfs.recover_ms", "ms", "lower"),
    ("pfs.mount_ms", "ms", "lower"),
    ("pfs.recoveries", "count", "lower"),
    ("pfs.factory_us", "us", "lower"),
    ("pfs.dispatch_us_per_call", "us", "lower"),
    ("pfs.fork_us", "us", "lower"),
    ("simfs.apply_ns_per_op", "ns", "lower"),
    ("simnet.msg_ns", "ns", "lower"),
    ("simnet.rpc_events_per_call", "ratio", "lower"),
    ("h5sim.replay_ms", "ms", "lower"),
    ("h5sim.check_us", "us", "lower"),
    ("h5sim.clear_us", "us", "lower"),
    ("core.stack.replay_pfs_full_ms", "ms", "lower"),
    ("core.stack.legal_replays", "count", "lower"),
    ("core.stack.replay_hit_ratio", "ratio", "higher"),
    ("core.stack.replay_est_ms", "ms", "lower"),
    ("core.check.check_stack_ms", "ms", "lower"),
    ("core.check.us_per_state", "us", "lower"),
    ("core.check.states_checked", "count", "lower"),
    ("core.check.prune_ratio", "ratio", "higher"),
    ("core.check.residual_ms", "ms", "lower"),
    ("core.check.negative_residual_stacks", "count", "lower"),
    ("core.fuzz.record_cell_us", "us", "lower"),
    ("rt.pool.scope_fixed_us", "us", "lower"),
    ("rt.pool.spawn_ns_per_task", "ns", "lower"),
    ("rt.pool.threads", "count", "higher"),
    ("alloc.mb_per_pass", "MB", "lower"),
    ("alloc.count_per_pass", "count", "lower"),
    ("trace_overhead_pct", "%", "lower"),
];

/// `a / b`, or 0 when the layer saw no work on this workload (a ratio
/// of nothing is reported as 0, and the README says which rows are
/// structurally empty where).
fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Reduce one traced pass (its spans from `first` on, and its counts)
/// to the per-layer rows. The rows not derived from a pass's spans
/// (`workloads.corpus_enum_ms`, `rt.pool.threads`, `alloc.*`,
/// `trace_overhead_pct`) are filled in by the caller.
pub fn layer_rows(tr: &Tracer, first: usize, c: &Counts) -> BTreeMap<&'static str, f64> {
    let ms = |name: &str| tr.total_ms(first, name);
    let calls = |name: &str| tr.spans[first..].iter().filter(|s| s.name == name).count() as f64;
    let check_ms = ms("core.check.check_stack");
    let lookups = c.get("core.stack.cache_hits") + c.get("core.stack.legal_replays");
    BTreeMap::from([
        ("workloads.trace_gen_ms", ms("workloads.trace_gen")),
        (
            "workloads.events_recorded",
            c.get("workloads.events_recorded"),
        ),
        ("tracer.graph_build_ms", ms("tracer.graph_build")),
        ("tracer.graph_events", c.get("tracer.graph_events")),
        ("core.persist.build_ms", ms("core.persist.build")),
        ("core.persist.updates", c.get("core.persist.updates")),
        ("core.emulate.enumerate_ms", ms("core.emulate.enumerate")),
        ("core.emulate.states", c.get("core.emulate.states")),
        ("core.snapshot.prepare_ms", ms("core.snapshot.prepare")),
        ("core.snapshot.forks", c.get("core.snapshot.forks")),
        (
            "core.snapshot.ops_replayed",
            c.get("core.snapshot.ops_replayed"),
        ),
        (
            "core.snapshot.share_ratio",
            1.0 - per(
                c.get("core.snapshot.ops_replayed"),
                c.get("core.snapshot.naive_ops"),
            ),
        ),
        (
            "core.snapshot.representatives",
            c.get("core.snapshot.representatives"),
        ),
        ("pfs.recover_ms", ms("pfs.recover")),
        ("pfs.mount_ms", ms("pfs.mount")),
        ("pfs.recoveries", calls("pfs.recover")),
        (
            "pfs.factory_us",
            per(ms("pfs.factory") * 1e3, calls("pfs.factory")),
        ),
        (
            "pfs.dispatch_us_per_call",
            per(ms("pfs.dispatch") * 1e3, c.get("pfs.dispatch_calls")),
        ),
        ("pfs.fork_us", per(ms("pfs.fork") * 1e3, calls("pfs.fork"))),
        (
            "simfs.apply_ns_per_op",
            per(ms("simfs.apply") * 1e6, c.get("simfs.ops")),
        ),
        (
            "simnet.msg_ns",
            per(ms("simnet.msg_batch") * 1e6, c.get("simnet.msgs")),
        ),
        (
            "simnet.rpc_events_per_call",
            per(c.get("simnet.rpc_events"), c.get("pfs.dispatch_calls")),
        ),
        ("h5sim.replay_ms", ms("h5sim.replay")),
        (
            "h5sim.check_us",
            per(ms("h5sim.check") * 1e3, calls("h5sim.check")),
        ),
        (
            "h5sim.clear_us",
            per(ms("h5sim.clear") * 1e3, calls("h5sim.clear")),
        ),
        (
            "core.stack.replay_pfs_full_ms",
            ms("core.stack.replay_pfs_full"),
        ),
        (
            "core.stack.legal_replays",
            c.get("core.stack.legal_replays"),
        ),
        (
            "core.stack.replay_hit_ratio",
            per(c.get("core.stack.cache_hits"), lookups),
        ),
        (
            "core.stack.replay_est_ms",
            c.get("core.stack.replay_est_ms"),
        ),
        ("core.check.check_stack_ms", check_ms),
        (
            "core.check.us_per_state",
            per(check_ms * 1e3, c.get("core.check.states_total")),
        ),
        (
            "core.check.states_checked",
            c.get("core.check.states_checked"),
        ),
        (
            "core.check.prune_ratio",
            per(
                c.get("core.check.states_pruned"),
                c.get("core.check.states_total"),
            ),
        ),
        ("core.check.residual_ms", c.get("core.check.residual_ms")),
        (
            "core.check.negative_residual_stacks",
            c.get("core.check.negative_residual_stacks"),
        ),
        (
            "core.fuzz.record_cell_us",
            per(
                ms("core.fuzz.record_cell") * 1e3,
                calls("core.fuzz.record_cell"),
            ),
        ),
        (
            "rt.pool.scope_fixed_us",
            per(ms("rt.pool.scope_empty") * 1e3, c.get("rt.pool.scopes")),
        ),
        (
            "rt.pool.spawn_ns_per_task",
            per(ms("rt.pool.spawn_batch") * 1e6, c.get("rt.pool.spawned")),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            cell: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("cell", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a` by 5 ns and runs 10 ns past the parent's
            // end: only 25..30 is double cover, only ..100 counts.
            span("b", 25, 60, Some(0)),
            span("b.inner", 30, 40, Some(2)),
            span("c", 90, 110, Some(0)),
        ];
        let own = self_times_ns(&spans);
        // Children cover 10..60 and 90..100 of the parent: 60 ns.
        assert_eq!(own[0], 40);
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 25);
        assert_eq!(own[3], 10);
        assert_eq!(own[4], 20);
    }

    #[test]
    fn tracer_nests_and_unwinds() {
        let mut tr = Tracer::new();
        tr.set_cell(3);
        let outer = tr.enter("outer");
        let depth = tr.depth();
        let got = tr.time("inner", || 7);
        assert_eq!(got, 7);
        let _leaked = tr.enter("leaked");
        tr.close_to(depth);
        tr.exit(outer);
        assert_eq!(tr.depth(), 0);
        assert_eq!(tr.spans[1].parent, Some(outer));
        assert_eq!(tr.spans[2].parent, Some(outer));
        assert!(tr
            .spans
            .iter()
            .all(|s| s.cell == 3 && s.end_ns >= s.start_ns));
        assert!(tr.total_ms(0, "outer") >= tr.total_ms(0, "inner"));
    }

    #[test]
    fn stage_sum_identity_keeps_a_negative_residual() {
        let s = StageSum::new(10.0, &[1.0, 2.5, 0.5]);
        assert_eq!(s.stages_ms + s.residual_ms, s.check_ms);
        assert_eq!(s.residual_ms, 6.0);
        assert!(!s.negative());
        let over = StageSum::new(3.0, &[2.0, 2.0]);
        assert_eq!(over.stages_ms + over.residual_ms, over.check_ms);
        assert_eq!(over.residual_ms, -1.0);
        assert!(over.negative());
    }

    #[test]
    fn trace_file_has_a_header_and_one_line_per_span() {
        let spans = vec![span("cell", 0, 100, None), span("a", 10, 30, Some(0))];
        let text = render_jsonl(
            Json::obj([("workload", Json::str("w"))]),
            &["H5-create@BeeGFS".to_string()],
            &spans,
        );
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[2].get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(lines[1].get("self_ns"), Some(&Json::Num(80.0)));
        assert_eq!(
            lines[2].get("cell").and_then(Json::as_str),
            Some("H5-create@BeeGFS")
        );
    }
}
