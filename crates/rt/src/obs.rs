//! `obs` — zero-dependency structured telemetry for the checker pipeline.
//!
//! ParaCrash pinpoints *where* in the I/O stack a crash vulnerability
//! arises; this module does the same for the checker itself. It provides,
//! on `std` alone (the workspace is hermetic — no registry deps):
//!
//! * **spans** — [`span`] returns a guard that records a named interval
//!   with monotonic start/duration, the recording thread, and its nesting
//!   depth (a thread-local stack tracks parents);
//! * **counters / gauges** — [`count`] accumulates, [`gauge_max`]
//!   keeps a high-water mark;
//! * **a per-run registry** — everything lands in one process-global
//!   `Registry`; [`mark`] + [`render_summary`] slice out a window (one
//!   `check_stack` call) for the human-readable `PC_TRACE=summary` table,
//!   [`snapshot`] exports the whole run for the machine-readable writers
//!   (`paracrash::telemetry` serializes it as Chrome trace-event JSON
//!   loadable in Perfetto);
//! * **a leveled logger** — the [`crate::pc_error!`], [`crate::pc_warn!`],
//!   [`crate::pc_info!`] and [`crate::pc_debug!`] macros replace the
//!   scattered `eprintln!`s. `PC_LOG=warn|info|debug` raises verbosity;
//!   the default threshold is `error`, so everything below stays silent;
//! * **a streaming plane** — [`stream`] writes the drivers' events
//!   (findings, cell completions, campaign snapshots) to a JSON-lines
//!   sink (`--events-out`) as they happen, for watching a campaign live
//!   instead of waiting for the exit snapshot;
//! * **a self-time profile** — every closing span files `dur − Σ direct
//!   children` under its open-span path, so the registry holds an exact
//!   per-stack fold ([`TelemetrySnapshot::self_times`]) that
//!   [`prof::render_folded`] writes as a `.folded` profile; [`prof`]
//!   also attributes allocations to the innermost open span;
//! * **causal trace ids** — [`set_trace_id`] / [`current_trace_id`]
//!   carry one ambient workload-cell id that every span and stream
//!   event records, so Chrome-trace export can group one cross-layer
//!   flow (workload → checker → `simnet` RPC) per check.
//!
//! # Planes and the mask
//!
//! Everything here is **off by default** behind one `AtomicU8` of plane
//! bits — registry, summary tables, stream, allocation accounting —
//! that [`enabled`], [`summary_enabled`], [`stream::enabled`] and
//! [`prof::alloc_tracking_enabled`] are bit tests of. Every entry point
//! starts with one relaxed load of it and returns immediately when its
//! plane is off — no allocation, no lock, no clock read;
//! `paracrash selftest obs` (pc-bench) measures that early return and
//! asserts the disabled sites add < 3% to a checked cell. The first
//! load finds an `UNINIT` bit and runs the one bootstrap, which reads
//! the environment:
//!
//! * `PC_TRACE=1` (or any other truthy value) — collect telemetry;
//! * `PC_TRACE=summary` — collect *and* print a per-check summary table
//!   (stage timings, counters, cache hit rates, pool utilization);
//! * `PC_LOG` — the log threshold.
//!
//! Programmatic switches are one `fetch_or` / `fetch_and` each:
//! [`set_enabled`] (`--telemetry-out`, `--profile-out`),
//! [`stream::set_sink`] (`--events-out`). Turning the registry on turns
//! allocation accounting on with it. When enabled, events funnel through
//! one `Mutex<Registry>`; the instrumented operations (crash-state
//! reconstruction, golden-state replay, recovery) cost micro- to
//! milliseconds each, so a ~20 ns lock per event is noise.
//!
//! # Example
//!
//! ```
//! use pc_rt::obs;
//!
//! obs::set_enabled(true);
//! let mark = obs::mark();
//! {
//!     let _stage = obs::span("example.stage");
//!     obs::count("example.items", 3);
//! }
//! let summary = obs::render_summary(&mark, "example");
//! assert!(summary.contains("example.stage"));
//! assert!(summary.contains("example.items"));
//! obs::set_enabled(false);
//! ```

use crate::{env, lock};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[path = "stream.rs"]
pub mod stream;

#[path = "prof.rs"]
pub mod prof;

pub use prof::AllocStat;

// ---------------------------------------------------------------------------
// Leveled logging
// ---------------------------------------------------------------------------

/// Log severity. The threshold defaults to [`Level::Error`]: fatal
/// diagnostics always reach stderr, everything else is opt-in through
/// `PC_LOG`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Fatal / always-visible diagnostics.
    Error = 0,
    /// Suspicious but non-fatal conditions.
    Warn = 1,
    /// Progress notes ("wrote file X").
    Info = 2,
    /// Per-event chatter (RPC deliveries).
    Debug = 3,
}

impl Level {
    /// `PC_LOG` spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parse a `PC_LOG` value (`off` silences even errors).
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" | "trace" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// Threshold encoding: 0..=3 map to [`Level`], 4 = fully off,
/// `LOG_UNINIT` = the bootstrap has not read `PC_LOG` yet.
static LOG_THRESHOLD: AtomicU8 = AtomicU8::new(LOG_UNINIT);
const LOG_OFF: u8 = 4;
const LOG_UNINIT: u8 = u8::MAX;

fn log_threshold() -> u8 {
    match LOG_THRESHOLD.load(Ordering::Relaxed) {
        LOG_UNINIT => {
            bootstrap();
            LOG_THRESHOLD.load(Ordering::Relaxed)
        }
        v => v,
    }
}

/// Override the log threshold (`None` silences everything).
pub fn set_log_level(level: Option<Level>) {
    LOG_THRESHOLD.store(level.map_or(LOG_OFF, |l| l as u8), Ordering::Relaxed);
}

/// `true` if a message at `level` would be emitted. The logging macros
/// check this before formatting, so disabled levels cost one atomic load.
pub fn log_enabled(level: Level) -> bool {
    let t = log_threshold();
    t != LOG_OFF && (level as u8) <= t
}

/// Emit one log line to stderr. Use the [`crate::pc_warn!`]-family macros
/// instead of calling this directly — they skip the formatting work when
/// the level is disabled.
pub fn log(level: Level, args: std::fmt::Arguments<'_>) {
    eprintln!("[{}] {args}", level.as_str());
}

/// Log at an explicit [`Level`]; formatting only happens when the level
/// is enabled. Prefer the per-level shorthands.
#[macro_export]
macro_rules! pc_log {
    ($lvl:expr, $($arg:tt)*) => {
        if $crate::obs::log_enabled($lvl) {
            $crate::obs::log($lvl, format_args!($($arg)*));
        }
    };
}

/// Log an error (visible by default).
#[macro_export]
macro_rules! pc_error {
    ($($arg:tt)*) => { $crate::pc_log!($crate::obs::Level::Error, $($arg)*) };
}

/// Log a warning (silent unless `PC_LOG=warn` or lower).
#[macro_export]
macro_rules! pc_warn {
    ($($arg:tt)*) => { $crate::pc_log!($crate::obs::Level::Warn, $($arg)*) };
}

/// Log a progress note (silent unless `PC_LOG=info` or lower).
#[macro_export]
macro_rules! pc_info {
    ($($arg:tt)*) => { $crate::pc_log!($crate::obs::Level::Info, $($arg)*) };
}

/// Log per-event chatter (silent unless `PC_LOG=debug`).
#[macro_export]
macro_rules! pc_debug {
    ($($arg:tt)*) => { $crate::pc_log!($crate::obs::Level::Debug, $($arg)*) };
}

// ---------------------------------------------------------------------------
// Planes and the mask
// ---------------------------------------------------------------------------

/// The plane bits of the enable mask.
mod plane {
    /// Spans, counters and gauges land in the registry.
    pub const REGISTRY: u8 = 1 << 0;
    /// `PC_TRACE=summary`: print a table per check.
    pub const SUMMARY: u8 = 1 << 1;
    /// `stream::emit` writes to the sink.
    pub const STREAM: u8 = 1 << 2;
    /// The counting allocator attributes to the innermost open span.
    pub const ALLOC: u8 = 1 << 3;
    /// The environment has not been read yet.
    pub const UNINIT: u8 = 1 << 7;
}

/// The one enable mask. `Relaxed` throughout: it publishes no data —
/// the registry and the sink each sit behind their own lock.
static PLANES: AtomicU8 = AtomicU8::new(plane::UNINIT);

/// The plane bits. The fast path every instrumentation site takes: one
/// relaxed load and a branch once the first caller has bootstrapped.
#[inline]
fn planes() -> u8 {
    let m = PLANES.load(Ordering::Relaxed);
    if m & plane::UNINIT == 0 {
        m
    } else {
        bootstrap()
    }
}

/// Plane bits a `PC_TRACE` value asks for. The registry brings
/// allocation accounting with it, so `PC_TRACE=summary` shows bytes per
/// stage.
fn trace_planes(value: Option<&str>) -> u8 {
    match value.map(|v| v.trim().to_ascii_lowercase()) {
        Some(v) if v == "summary" => plane::REGISTRY | plane::ALLOC | plane::SUMMARY,
        Some(v) if env::is_truthy(&v) => plane::REGISTRY | plane::ALLOC,
        _ => 0,
    }
}

/// The one place the observability environment is read: `PC_TRACE` into
/// the mask, `PC_LOG` into the log threshold. Runs on the first touch of
/// either; a concurrent first touch computes the same values and only
/// one of them clears `UNINIT`, so bits set programmatically since are
/// never overwritten. Returns the bootstrapped mask.
#[cold]
fn bootstrap() -> u8 {
    let level = match env::get(env::LOG) {
        Some(s) if s.trim().eq_ignore_ascii_case("off") => LOG_OFF,
        Some(s) => Level::parse(&s).unwrap_or(Level::Error) as u8,
        None => Level::Error as u8,
    };
    let _ = LOG_THRESHOLD.compare_exchange(LOG_UNINIT, level, Ordering::Relaxed, Ordering::Relaxed);
    let bits = trace_planes(env::get(env::TRACE).as_deref());
    let first = |m: u8| (m & plane::UNINIT != 0).then_some((m & !plane::UNINIT) | bits);
    match PLANES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, first) {
        Ok(prev) => (prev & !plane::UNINIT) | bits,
        Err(current) => current,
    }
}

/// Switch `bits` on or off (after the bootstrap, so the environment
/// cannot re-enable what a caller turned off).
fn set_planes(bits: u8, on: bool) {
    planes();
    if on {
        PLANES.fetch_or(bits, Ordering::Relaxed);
    } else {
        PLANES.fetch_and(!bits, Ordering::Relaxed);
    }
}

/// `true` when telemetry collection is on.
#[inline]
pub fn enabled() -> bool {
    planes() & plane::REGISTRY != 0
}

/// Turn collection on or off programmatically (overrides `PC_TRACE`).
/// Allocation accounting rides along: enabled telemetry implies
/// span-attributed alloc counters (still lock-free in the allocator).
pub fn set_enabled(on: bool) {
    set_planes(plane::REGISTRY | plane::ALLOC, on);
}

/// `true` when `PC_TRACE=summary` asked for per-check summary tables.
pub fn summary_enabled() -> bool {
    let both = plane::REGISTRY | plane::SUMMARY;
    planes() & both == both
}

// ---------------------------------------------------------------------------
// Causal trace ids
// ---------------------------------------------------------------------------

/// The ambient trace id every span and stream event records. Process
/// global rather than thread local: a campaign checks one workload cell
/// at a time, and the pool's verdict workers must inherit the cell's id
/// without per-task plumbing. 0 = "no cell" (single-check CLI runs).
static TRACE_ID: AtomicU64 = AtomicU64::new(0);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Set the ambient causal trace id (0 clears it). Campaign drivers call
/// this once per workload cell so every span — down to `simnet` RPC
/// deliveries on pool worker threads — tags the cell that caused it.
pub fn set_trace_id(id: u64) {
    TRACE_ID.store(id, Ordering::Relaxed);
}

/// The ambient causal trace id (one relaxed load).
#[inline]
pub fn current_trace_id() -> u64 {
    TRACE_ID.load(Ordering::Relaxed)
}

/// Allocate a fresh, process-unique trace id (monotonic from 1).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One recorded span: a named interval on one thread.
///
/// `start_ns` is measured from a process-global monotonic epoch (the
/// first telemetry event), so spans from every thread share one timeline
/// and serialize directly as Chrome trace-event `ts`/`dur` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Span name (`check.enumerate`, `recover/BeeGFS`, …).
    pub name: &'static str,
    /// Coarse category (`check`, `pfs`, `pool`, …) — the Chrome trace
    /// `cat` field, used for filtering in Perfetto.
    pub cat: &'static str,
    /// Small dense id of the recording thread (assigned on first span).
    pub tid: u32,
    /// Nesting depth on its thread at open time (0 = top level).
    pub depth: u32,
    /// Start, nanoseconds since the telemetry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Causal trace id captured at open time ([`current_trace_id`];
    /// 0 = outside any workload cell). Chrome-trace export groups spans
    /// by this id so each check reads as one cross-layer flow.
    pub trace_id: u64,
}

/// The process-global event store.
struct Registry {
    spans: Vec<SpanRec>,
    dropped_spans: u64,
    /// Self time by open-span path (outermost first): what every span
    /// that closed at the end of that path took, less its direct
    /// children. Bounded by the distinct stacks of a run, not its length,
    /// so it keeps folding past [`SPAN_CAP`].
    self_ns: BTreeMap<Vec<&'static str>, u64>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    /// Total telemetry operations recorded while enabled — the event
    /// count the overhead bench multiplies by the per-call disabled cost.
    ops: u64,
}

impl Registry {
    const fn new() -> Registry {
        Registry {
            spans: Vec::new(),
            dropped_spans: 0,
            self_ns: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            ops: 0,
        }
    }
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry::new());

/// Backstop against unbounded memory on very long enabled runs; past the
/// cap, spans are counted in `dropped_spans` instead of stored (lowered
/// under test so a unit test can reach it).
const SPAN_CAP: usize = if cfg!(test) { 256 } else { 1 << 20 };

static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// One thread's open spans, outermost first.
struct OpenStack {
    /// Their names — the path a closing span's self time is filed under.
    names: Vec<&'static str>,
    /// In step with `names`: the span's allocation-table id, and the
    /// nanoseconds its already-closed direct children took.
    frames: Vec<(u32, u64)>,
}

thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
    static OPEN: RefCell<OpenStack> = const {
        RefCell::new(OpenStack {
            names: Vec::new(),
            frames: Vec::new(),
        })
    };
}

fn tid() -> u32 {
    TID.with(|c| {
        let v = c.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            c.set(v);
            v
        }
    })
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// An open span; records itself into the registry on drop. No-op (and
/// cost-free beyond one atomic load) when telemetry is disabled.
#[must_use = "a span measures the scope it is alive in"]
pub struct Span {
    open: Option<OpenSpan>,
}

struct OpenSpan {
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    depth: u32,
    trace_id: u64,
}

/// Open a span in the default category.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_cat(name, "")
}

/// Open a span with an explicit category (Chrome trace `cat`).
#[inline]
pub fn span_cat(name: &'static str, cat: &'static str) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let id = prof::enter(name);
    let depth = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        open.names.push(name);
        open.frames.push((id, 0));
        open.names.len() as u32 - 1
    });
    Span {
        open: Some(OpenSpan {
            name,
            cat,
            start_ns: now_ns(),
            depth,
            trace_id: current_trace_id(),
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let dur_ns = now_ns().saturating_sub(open.start_ns);
        let rec = SpanRec {
            name: open.name,
            cat: open.cat,
            tid: tid(),
            depth: open.depth,
            start_ns: open.start_ns,
            dur_ns,
            trace_id: open.trace_id,
        };
        OPEN.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Spans are scope guards: the closing one is the innermost.
            let (_, children_ns) = stack.frames.pop().unwrap_or_default();
            {
                let mut reg = lock(&REGISTRY);
                reg.ops += 1;
                // Looked up by slice: only a first-seen stack allocates.
                let self_ns = dur_ns.saturating_sub(children_ns);
                match reg.self_ns.get_mut(stack.names.as_slice()) {
                    Some(total) => *total += self_ns,
                    None => drop(reg.self_ns.insert(stack.names.clone(), self_ns)),
                }
                if reg.spans.len() < SPAN_CAP {
                    reg.spans.push(rec);
                } else {
                    reg.dropped_spans += 1;
                }
            }
            stack.names.pop();
            let parent = stack.frames.last_mut().map_or(0, |(id, children_ns)| {
                *children_ns += dur_ns;
                *id
            });
            prof::set_current(parent);
        });
    }
}

// ---------------------------------------------------------------------------
// Counters / gauges
// ---------------------------------------------------------------------------

/// Add `delta` to a named counter.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut reg = lock(&REGISTRY);
    reg.ops += 1;
    *reg.counters.entry(name).or_insert(0) += delta;
}

/// Raise a named high-water-mark gauge to at least `value`.
#[inline]
pub fn gauge_max(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    let mut reg = lock(&REGISTRY);
    reg.ops += 1;
    let g = reg.gauges.entry(name).or_insert(0);
    *g = (*g).max(value);
}

// ---------------------------------------------------------------------------
// Snapshot / reset
// ---------------------------------------------------------------------------

/// Everything the registry holds, exported for serialization.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// All spans, sorted by start time (monotonic `ts` for Chrome
    /// traces).
    pub spans: Vec<SpanRec>,
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Spans lost to the memory backstop.
    pub dropped_spans: u64,
    /// Self time in nanoseconds per open-span path (outermost first),
    /// sorted by path: every closed span's duration less its direct
    /// children's, so the values sum to the summed duration of the
    /// depth-0 spans. Unaffected by `dropped_spans`.
    pub self_times: Vec<(Vec<&'static str>, u64)>,
    /// Telemetry operations recorded while enabled (spans + counter /
    /// gauge updates) — the instrumentation-site count the overhead bench
    /// scales by.
    pub ops: u64,
    /// Per-span allocation attribution (spans that allocated while
    /// accounting was on, plus `"(untracked)"`), sorted by name.
    pub allocs: Vec<(String, AllocStat)>,
    /// Process-wide allocation totals while accounting was on.
    pub alloc_total: AllocStat,
}

/// Export the registry. Spans come back sorted by `start_ns`.
pub fn snapshot() -> TelemetrySnapshot {
    let (allocs, alloc_total) = prof::alloc_snapshot();
    let reg = lock(&REGISTRY);
    let mut spans = reg.spans.clone();
    spans.sort_by_key(|s| (s.start_ns, s.tid, s.depth));
    TelemetrySnapshot {
        spans,
        counters: reg
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
        gauges: reg
            .gauges
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
        dropped_spans: reg.dropped_spans,
        self_times: reg.self_ns.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        ops: reg.ops,
        allocs,
        alloc_total,
    }
}

/// Clear the registry (tests and benches; production runs accumulate).
pub fn reset() {
    {
        let mut reg = lock(&REGISTRY);
        reg.spans.clear();
        reg.dropped_spans = 0;
        reg.self_ns.clear();
        reg.counters.clear();
        reg.gauges.clear();
        reg.ops = 0;
    }
    prof::reset();
}

// ---------------------------------------------------------------------------
// Summary windows
// ---------------------------------------------------------------------------

/// A watermark into the registry taken at the start of a unit of work
/// (one `check_stack` call); [`render_summary`] reports the delta.
#[derive(Debug, Clone, Default)]
pub struct Mark {
    span_idx: usize,
    counters: BTreeMap<&'static str, u64>,
}

/// Take a watermark for a later [`render_summary`].
pub fn mark() -> Mark {
    if !enabled() {
        return Mark::default();
    }
    let reg = lock(&REGISTRY);
    Mark {
        span_idx: reg.spans.len(),
        counters: reg.counters.clone(),
    }
}

/// Format nanoseconds human-readably (`412 ns`, `3.10 µs`, `2.40 ms`, …).
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// What [`span_totals`] knows about one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTotal<N> {
    /// The span name.
    pub name: N,
    /// How many spans carried it.
    pub calls: u64,
    /// Their summed duration.
    pub total_ns: u64,
    /// The longest of them.
    pub max_ns: u64,
}

/// Fold `(name, duration)` pairs by name, largest total first
/// (first-seen order among equals) — the one aggregation behind the
/// summary table and the dashboard's stage-time panel.
pub fn span_totals<N: PartialEq>(spans: impl IntoIterator<Item = (N, u64)>) -> Vec<SpanTotal<N>> {
    let mut agg: Vec<SpanTotal<N>> = Vec::new();
    for (name, dur_ns) in spans {
        match agg.iter_mut().find(|t| t.name == name) {
            Some(t) => {
                t.calls += 1;
                t.total_ns += dur_ns;
                t.max_ns = t.max_ns.max(dur_ns);
            }
            None => agg.push(SpanTotal {
                name,
                calls: 1,
                total_ns: dur_ns,
                max_ns: dur_ns,
            }),
        }
    }
    agg.sort_by_key(|t| std::cmp::Reverse(t.total_ns));
    agg
}

/// Render the human-readable summary table of everything recorded since
/// `mark`: per-span-name call counts and timings, counter deltas, gauges,
/// plus derived lines — a hit rate for every `X.hits` /
/// `X.misses` counter pair, the verdict stage's join wait, and pool
/// utilization when the pool gauges are present.
pub fn render_summary(mark: &Mark, title: &str) -> String {
    use std::fmt::Write as _;
    let reg = lock(&REGISTRY);
    let mut out = String::new();
    let _ = writeln!(out, "── telemetry summary: {title} ──");

    let agg = span_totals(
        reg.spans
            .iter()
            .skip(mark.span_idx.min(reg.spans.len()))
            .map(|s| (s.name, s.dur_ns)),
    );
    if !agg.is_empty() {
        let _ = writeln!(
            out,
            "  {:<34} {:>8} {:>12} {:>12} {:>12}",
            "span", "calls", "total", "mean", "max"
        );
        for t in &agg {
            let _ = writeln!(
                out,
                "  {:<34} {:>8} {:>12} {:>12} {:>12}",
                t.name,
                t.calls,
                fmt_ns(t.total_ns as f64),
                fmt_ns(t.total_ns as f64 / t.calls as f64),
                fmt_ns(t.max_ns as f64),
            );
        }
    }
    if reg.dropped_spans > 0 {
        let _ = writeln!(
            out,
            "  span table incomplete: {} spans past the {SPAN_CAP}-span cap were not stored",
            reg.dropped_spans,
        );
    }

    // Counter deltas since the mark.
    let delta: Vec<(&'static str, u64)> = reg
        .counters
        .iter()
        .filter_map(|(k, v)| {
            let d = v - mark.counters.get(k).copied().unwrap_or(0);
            (d > 0).then_some((*k, d))
        })
        .collect();
    if !delta.is_empty() {
        let _ = writeln!(out, "  {:<34} {:>8}", "counter", "value");
        for (name, v) in &delta {
            let _ = writeln!(out, "  {:<34} {:>8}", name, v);
        }
    }
    if !reg.gauges.is_empty() {
        let _ = writeln!(out, "  {:<34} {:>8}", "gauge (run max)", "value");
        for (name, v) in reg.gauges.iter() {
            let _ = writeln!(out, "  {:<34} {:>8}", name, v);
        }
    }
    // Allocation attribution (whole run, not windowed: the table is a
    // set of process-global atomics, cleared only by `reset`).
    let (allocs, alloc_total) = prof::alloc_snapshot();
    if alloc_total.count > 0 {
        let _ = writeln!(
            out,
            "  {:<34} {:>10} {:>12} {:>12}",
            "alloc by span (run total)", "count", "bytes", "peak"
        );
        for (name, a) in &allocs {
            let _ = writeln!(
                out,
                "  {:<34} {:>10} {:>12} {:>12}",
                name,
                a.count,
                prof::fmt_bytes(a.bytes as f64),
                prof::fmt_bytes(a.peak_bytes as f64),
            );
        }
        let _ = writeln!(
            out,
            "  {:<34} {:>10} {:>12} {:>12}",
            "alloc total",
            alloc_total.count,
            prof::fmt_bytes(alloc_total.bytes as f64),
            prof::fmt_bytes(alloc_total.peak_bytes as f64),
        );
    }

    // Derived: hit rates for every `X.hits` / `X.misses` counter pair.
    let get = |name: &str| delta.iter().find(|(k, _)| *k == name).map(|&(_, v)| v);
    let prefixes: Vec<String> = delta
        .iter()
        .filter_map(|(k, _)| k.strip_suffix(".hits").map(str::to_string))
        .collect();
    for p in prefixes {
        let hits = get(&format!("{p}.hits")).unwrap_or(0);
        let misses = get(&format!("{p}.misses")).unwrap_or(0);
        if hits + misses > 0 {
            let _ = writeln!(
                out,
                "  {:<34} {:>7.1}%  ({hits} hits / {misses} misses)",
                format!("{p} hit rate"),
                100.0 * hits as f64 / (hits + misses) as f64,
            );
        }
    }

    // Derived: oracle work executed against work a shared answer saved —
    // golden replays per distinct preserved set (and what the walks that
    // produced them dispatched), classifier probes per distinct persisted
    // set, recoveries per distinct pre-recovery image (crash states,
    // classifier probes and explain probes together).
    let walked = format!(
        " ({} calls dispatched, {} forks)",
        get("replay.dispatched").unwrap_or(0),
        get("replay.forks").unwrap_or(0),
    );
    for (label, executed, shared, cost) in [
        (
            "golden replays",
            "replay.executed",
            &["replay.shared"][..],
            walked.as_str(),
        ),
        (
            "classifier probes",
            "classify.probes",
            &["classify.probes_shared"],
            "",
        ),
        (
            "recoveries",
            "recover.executed",
            &["recover.shared_set", "recover.shared_digest"],
            "",
        ),
    ] {
        let executed = get(executed).unwrap_or(0);
        let shared: u64 = shared.iter().filter_map(|name| get(name)).sum();
        if executed + shared > 0 {
            let _ = writeln!(
                out,
                "  {:<34} {executed:>8}  executed ({shared} more answered by a shared result){cost}",
                label,
            );
        }
    }

    // Derived: how much of the verdict scope its producer spent blocked
    // in `join` after it had spawned the last task — time in which only
    // the workers (`PC_THREADS − 1` of them) made progress.
    let span_total = |name: &str| -> u64 {
        agg.iter()
            .find(|t| t.name == name)
            .map_or(0, |t| t.total_ns)
    };
    let (join_wait, verdicts) = (span_total("check.join_wait"), span_total("check.verdicts"));
    if join_wait > 0 && verdicts > 0 {
        let _ = writeln!(
            out,
            "  {:<34} {:>7.1}%  (producer blocked {} of the {} verdict stage)",
            "verdict join wait",
            100.0 * join_wait as f64 / verdicts as f64,
            fmt_ns(join_wait as f64),
            fmt_ns(verdicts as f64),
        );
    }

    // Derived: pool utilization = busy time / (span wall × workers).
    // Under `PC_THREADS=1` the pool takes the inline reference path —
    // work runs on the caller with no worker threads to divide by,
    // so utilization is meaningless there, not 0%.
    let workers = reg.gauges.get("pool.workers").copied().unwrap_or(0);
    if let Some(busy) = get("pool.busy_ns") {
        let wall = span_total("pool.scope");
        if workers > 1 && wall > 0 {
            let _ = writeln!(
                out,
                "  {:<34} {:>7.1}%  (busy {} over {workers} workers × {})",
                "pool utilization",
                100.0 * busy as f64 / (wall as f64 * workers as f64),
                fmt_ns(busy as f64),
                fmt_ns(wall as f64),
            );
        } else if workers <= 1 {
            let _ = writeln!(
                out,
                "  {:<34} {:>8}  (inline reference path, busy {})",
                "pool utilization",
                "n/a",
                fmt_ns(busy as f64),
            );
        }
    }

    // Derived: scheduler traffic, when `Pool::scope` ran with workers.
    // The inline path queues nothing, so there is no peak to report
    // under `PC_THREADS=1` — skip the row entirely.
    if workers > 1 {
        if let Some(scopes) = get("pool.scope_calls") {
            let queued = get("pool.tasks_queued").unwrap_or(0);
            let peak = reg.gauges.get("pool.max_queue_depth").copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "  {:<34} {queued:>8}  (over {scopes} scope runs, peak queue {peak})",
                "pool tasks",
            );
        }
    }
    out
}

/// Serialize telemetry/profiling tests across modules: the registry,
/// the profiling planes, and the allocator table are all process-global.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn with_telemetry<R>(f: impl FnOnce() -> R) -> R {
        let _guard = lock(&TEST_LOCK);
        set_enabled(true);
        reset();
        let r = f();
        reset();
        set_enabled(false);
        r
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = lock(&TEST_LOCK);
        set_enabled(false);
        reset();
        {
            let _s = span("obs.test.disabled");
            count("obs.test.disabled.ctr", 5);
            gauge_max("obs.test.disabled.gauge", 5);
        }
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert_eq!(snap.ops, 0);
    }

    /// Run `f` as the first observability touch of a process would see
    /// it: the mask re-armed to `UNINIT` plus `preset`, every plane
    /// otherwise off. Returns the mask afterwards and restores "off".
    fn first_touch(preset: u8, f: fn() -> bool) -> u8 {
        PLANES.store(plane::UNINIT | preset, Ordering::Relaxed);
        f();
        PLANES.swap(0, Ordering::Relaxed)
    }

    #[test]
    fn every_entry_point_runs_the_same_bootstrap() {
        let _guard = lock(&TEST_LOCK);
        let from_env = trace_planes(env::get(env::TRACE).as_deref());
        let touches: [fn() -> bool; 4] = [
            enabled,
            summary_enabled,
            stream::enabled,
            prof::alloc_tracking_enabled,
        ];
        for touch in touches {
            assert_eq!(first_touch(0, touch), from_env);
            // A bit set before the first touch survives the bootstrap.
            assert_eq!(first_touch(plane::STREAM, touch), from_env | plane::STREAM);
        }
        reset();
    }

    #[test]
    fn trace_values_map_to_planes() {
        assert_eq!(trace_planes(None), 0);
        for off in ["", "0", "off", "False"] {
            assert_eq!(trace_planes(Some(off)), 0, "{off:?}");
        }
        assert_eq!(trace_planes(Some("1")), plane::REGISTRY | plane::ALLOC);
        assert_eq!(
            trace_planes(Some(" Summary ")),
            plane::REGISTRY | plane::ALLOC | plane::SUMMARY
        );
    }

    #[test]
    fn a_sink_sets_three_planes_and_disabling_telemetry_leaves_the_stream() {
        let _guard = lock(&TEST_LOCK);
        set_enabled(false);
        let path = std::env::temp_dir().join(format!("pc-obs-mask-{}.jsonl", std::process::id()));
        stream::set_sink(path.to_str().unwrap()).unwrap();
        assert_eq!(planes(), plane::REGISTRY | plane::STREAM | plane::ALLOC);
        stream::close();
        std::fs::remove_file(&path).ok();
        set_enabled(false);
        assert_eq!(planes(), plane::STREAM);
        stream::set_enabled(false);
        assert_eq!(planes(), 0);
        reset();
    }

    #[test]
    fn alloc_tracking_alone_counts_totals_and_records_no_span() {
        let _guard = lock(&TEST_LOCK);
        set_enabled(false);
        reset();
        prof::set_alloc_tracking(true);
        assert_eq!(planes(), plane::ALLOC);
        {
            let _s = span("obs.test.alloc_only");
            std::hint::black_box(Vec::<u8>::with_capacity(4096));
        }
        prof::set_alloc_tracking(false);
        let snap = snapshot();
        assert!(snap.spans.is_empty() && snap.ops == 0, "{snap:?}");
        assert!(snap.alloc_total.count >= 1 && snap.alloc_total.bytes >= 4096);
        // No span opened, so nothing is attributed to one.
        assert!(snap.allocs.iter().all(|(name, _)| name == "(untracked)"));
        reset();
    }

    #[test]
    fn a_panic_under_the_registry_lock_does_not_cascade() {
        with_telemetry(|| {
            let task = crate::pool::scope(|sc| {
                sc.spawn(|| {
                    // Dropped in reverse order: the guard poisons the
                    // registry, then the span's drop locks it again.
                    let _s = span("obs.test.poisoned");
                    let _held = lock(&REGISTRY);
                    panic!("poison the registry");
                })
                .join()
            });
            assert!(task.is_err());
            assert!(REGISTRY.is_poisoned());
            count("obs.test.after_poison", 1);
            let snap = snapshot();
            assert!(snap.spans.iter().any(|s| s.name == "obs.test.poisoned"));
            assert!(snap
                .counters
                .iter()
                .any(|(n, _)| n == "obs.test.after_poison"));
            REGISTRY.clear_poison();
        });
    }

    #[test]
    fn span_totals_fold_by_name_largest_first() {
        let totals = span_totals([("a", 5), ("b", 30), ("a", 7), ("c", 12), ("d", 12)]);
        let row = |name, calls, total_ns, max_ns| SpanTotal {
            name,
            calls,
            total_ns,
            max_ns,
        };
        assert_eq!(
            totals,
            vec![
                row("b", 1, 30, 30),
                row("a", 2, 12, 7),
                row("c", 1, 12, 12),
                row("d", 1, 12, 12)
            ]
        );
    }

    #[test]
    fn spans_nest_and_time() {
        with_telemetry(|| {
            {
                let _outer = span_cat("obs.test.outer", "test");
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _inner = span_cat("obs.test.inner", "test");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            let snap = snapshot();
            let outer = snap
                .spans
                .iter()
                .find(|s| s.name == "obs.test.outer")
                .unwrap();
            let inner = snap
                .spans
                .iter()
                .find(|s| s.name == "obs.test.inner")
                .unwrap();
            assert_eq!(inner.depth, outer.depth + 1);
            assert_eq!(inner.tid, outer.tid);
            assert!(inner.start_ns >= outer.start_ns);
            assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
            assert!(outer.dur_ns >= inner.dur_ns);
        });
    }

    /// The spans and self-time stacks of `snap` whose (outermost) name
    /// starts with `prefix`: the pool's own tests run beside these and
    /// record a scope span whenever they find telemetry on.
    fn named<'a>(
        snap: &'a TelemetrySnapshot,
        prefix: &str,
    ) -> (Vec<&'a SpanRec>, Vec<(Vec<&'static str>, u64)>) {
        let spans = snap.spans.iter().filter(|s| s.name.starts_with(prefix));
        let stacks = snap.self_times.iter();
        let stacks = stacks.filter(|(k, _)| k[0].starts_with(prefix));
        (spans.collect(), stacks.cloned().collect())
    }

    /// Partition identity: for any tree of nested spans on one thread,
    /// the per-stack self times sum to the depth-0 durations exactly,
    /// are keyed by the open-span paths, and equal a fold recomputed
    /// from the stored records alone.
    #[test]
    fn self_times_partition_the_root_spans() {
        use crate::proptest::{gen_vec, run, Config};
        use crate::{prop_assert, prop_assert_eq, prop_assume};
        const NAMES: [&str; 4] = ["obs.prop.a", "obs.prop.b", "obs.prop.c", "obs.prop.d"];
        // A program: `Some(i)` opens `NAMES[i]`, `None` closes the
        // innermost open span; whatever is left open closes at the end.
        let gen = |rng: &mut crate::rng::Rng, size: usize| {
            gen_vec(rng, 2 * size.min(40), |r| {
                (r.next_u32() % 5 != 0).then(|| r.next_u32() as usize % NAMES.len())
            })
        };
        let cfg = Config::with_cases(64);
        run("self_times_partition", &cfg, gen, |program| {
            let (snap, paths) = with_telemetry(|| {
                let mut open: Vec<Span> = Vec::new();
                let mut path: Vec<&'static str> = Vec::new();
                let mut paths = std::collections::BTreeSet::new();
                for op in program {
                    match op {
                        Some(i) if open.len() < 8 => {
                            open.push(span(NAMES[*i]));
                            path.push(NAMES[*i]);
                            paths.insert(path.clone());
                        }
                        _ => {
                            open.pop();
                            path.pop();
                        }
                    }
                }
                while open.pop().is_some() {}
                (snapshot(), paths)
            });
            prop_assume!(snap.dropped_spans == 0);
            let (spans, folded) = named(&snap, "obs.prop.");
            let folded: BTreeMap<_, _> = folded.into_iter().collect();
            let roots: u64 = spans
                .iter()
                .filter(|s| s.depth == 0)
                .map(|s| s.dur_ns)
                .sum();
            prop_assert_eq!(folded.values().sum::<u64>(), roots);
            prop_assert!(folded.keys().eq(paths.iter()), "{folded:?} vs {paths:?}");
            // Reference: the snapshot is sorted by start, so a span's
            // ancestors are the latest earlier spans of smaller depth.
            let mut reference: BTreeMap<Vec<&'static str>, u64> = BTreeMap::new();
            let mut ancestors: Vec<&SpanRec> = Vec::new();
            for s in &spans {
                ancestors.truncate(s.depth as usize);
                let parent: Vec<&'static str> = ancestors.iter().map(|a| a.name).collect();
                if !parent.is_empty() {
                    *reference.get_mut(&parent).expect("parent came first") -= s.dur_ns;
                }
                ancestors.push(s);
                let path: Vec<&'static str> = ancestors.iter().map(|a| a.name).collect();
                *reference.entry(path).or_insert(0) += s.dur_ns;
            }
            prop_assert_eq!(folded, reference);
            Ok(())
        });
    }

    /// Every count here is of this test's spans, or a bound (see `named`).
    #[test]
    fn the_span_cap_is_reported_and_does_not_truncate_self_times() {
        with_telemetry(|| {
            assert!(!render_summary(&mark(), "unit").contains("incomplete"));
            for _ in 0..SPAN_CAP {
                let _s = span("obs.test.cap");
            }
            let full = snapshot();
            assert_eq!(full.spans.len(), SPAN_CAP);
            // Past the cap spans are counted, not stored …
            let m = mark();
            {
                let _late = span("obs.test.cap.late");
                let _s = span("obs.test.cap");
            }
            let snap = snapshot();
            assert_eq!(snap.spans.len(), SPAN_CAP);
            assert!(snap.dropped_spans >= full.dropped_spans + 2);
            // … which the summary says instead of printing an empty table …
            let text = render_summary(&m, "unit");
            assert!(text.contains("span table incomplete: "), "{text}");
            // … and the self-time table keeps folding, new stacks included.
            let ((stored, before), (_, after)) =
                (named(&full, "obs.test.cap"), named(&snap, "obs.test.cap"));
            let stacks: Vec<_> = after.iter().map(|(k, _)| k.as_slice()).collect();
            assert_eq!(
                stacks,
                [
                    &["obs.test.cap"][..],
                    &["obs.test.cap.late"],
                    &["obs.test.cap.late", "obs.test.cap"],
                ]
            );
            let stored: u64 = stored.iter().map(|s| s.dur_ns).sum();
            assert!(before[0].1 >= stored);
            assert!(full.dropped_spans > 0 || before[0].1 == stored);
            assert_eq!(after[0], before[0]);
        });
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        with_telemetry(|| {
            count("obs.test.ctr", 2);
            count("obs.test.ctr", 3);
            gauge_max("obs.test.gauge", 7);
            gauge_max("obs.test.gauge", 4);
            let snap = snapshot();
            assert_eq!(snap.counters, vec![("obs.test.ctr".to_string(), 5)]);
            assert_eq!(snap.gauges, vec![("obs.test.gauge".to_string(), 7)]);
            assert!(snap.ops >= 4);
        });
    }

    #[test]
    fn summary_windows_on_marks_and_derives_hit_rates() {
        with_telemetry(|| {
            count("obs.test.cache.hits", 9);
            let m = mark();
            {
                let _s = span("obs.test.stage");
            }
            count("obs.test.cache.hits", 3);
            count("obs.test.cache.misses", 1);
            let text = render_summary(&m, "unit");
            assert!(text.contains("obs.test.stage"));
            // Only the delta since the mark: 3 hits, not 12.
            assert!(text.contains("obs.test.cache hit rate"), "{text}");
            assert!(text.contains("75.0%"), "{text}");
            assert!(text.contains("(3 hits / 1 misses)"), "{text}");
        });
    }

    #[test]
    fn summary_derives_recoveries_executed_and_shared() {
        with_telemetry(|| {
            count("recover.executed", 100);
            let m = mark();
            count("recover.executed", 5);
            count("recover.shared_set", 2);
            count("recover.shared_digest", 4);
            count("replay.executed", 3);
            count("replay.dispatched", 17);
            let text = render_summary(&m, "unit");
            let line = text.lines().find(|l| l.contains("recoveries")).unwrap();
            assert!(line.trim_start().starts_with("recoveries  "), "{line}");
            assert!(line.contains(" 5  executed"), "{line}");
            assert!(line.ends_with("(6 more answered by a shared result)"));
            let line = text.lines().find(|l| l.contains("golden replays")).unwrap();
            assert!(
                line.ends_with("result) (17 calls dispatched, 0 forks)"),
                "{line}"
            );
            // Nothing recovered in the window: no line.
            let text = render_summary(&mark(), "unit");
            assert!(!text.contains("recoveries"), "{text}");
        });
    }

    #[test]
    fn summary_derives_the_verdict_join_wait() {
        with_telemetry(|| {
            let m = mark();
            {
                let _verdicts = span("check.verdicts");
                let _wait = span("check.join_wait");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let text = render_summary(&m, "unit");
            assert!(text.contains("verdict join wait"), "{text}");
        });
    }

    #[test]
    fn snapshot_spans_sorted_by_start() {
        with_telemetry(|| {
            for _ in 0..50 {
                let _s = span("obs.test.seq");
            }
            let snap = snapshot();
            assert!(snap
                .spans
                .windows(2)
                .all(|w| w[0].start_ns <= w[1].start_ns));
        });
    }

    #[test]
    fn log_levels_parse_and_gate() {
        assert_eq!(Level::parse("warn"), Some(Level::Warn));
        assert_eq!(Level::parse("DEBUG"), Some(Level::Debug));
        assert_eq!(Level::parse("nope"), None);
        let _guard = lock(&TEST_LOCK);
        set_log_level(Some(Level::Warn));
        assert!(log_enabled(Level::Error));
        assert!(log_enabled(Level::Warn));
        assert!(!log_enabled(Level::Info));
        set_log_level(None);
        assert!(!log_enabled(Level::Error));
        set_log_level(Some(Level::Error));
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(412.0), "412 ns");
        assert_eq!(fmt_ns(3_100.0), "3.10 µs");
        assert_eq!(fmt_ns(2_400_000.0), "2.40 ms");
        assert_eq!(fmt_ns(2_000_000_000.0), "2.000 s");
    }
}
