//! `obs::stream` — a bounded flight recorder and JSON-lines event bus.
//!
//! [`super`] (the `obs` registry) is snapshot-at-exit: nothing leaves the
//! process until a run finishes and something calls
//! [`super::snapshot`]. That is useless for a multi-hour fuzz campaign —
//! the operator needs to know *while it runs* whether coverage is still
//! growing, and a poisoned run that panics mid-campaign should leave a
//! diagnosable trail. This module adds the streaming plane:
//!
//! * **flight recorder** — a bounded ring of structured [`Event`]s
//!   (span open/close, counter deltas, findings, cell completions,
//!   periodic snapshots). Publishing reserves a slot with one
//!   `fetch_add` and takes only that slot's lock, so concurrent verdict
//!   workers never serialize on a global mutex. When the ring wraps, the
//!   *oldest* events are overwritten — the newest history survives,
//!   which is exactly what a post-mortem wants.
//! * **JSON-lines sink** — `PC_EVENTS=path` (or the CLI's
//!   `--events-out`) attaches a file sink; [`flush`] drains every event
//!   published since the previous flush as one compact JSON object per
//!   line (the [`crate::json`] subset: unsigned integers, escaped
//!   strings). The first line is a header carrying
//!   [`SCHEMA_VERSION`]; [`close`] appends a trailer with drop
//!   statistics.
//! * **crash-dump hook** — attaching a sink installs a panic hook
//!   (chained in front of the previous one) that flushes the ring, so
//!   the events leading up to a panic reach disk before the process
//!   unwinds.
//!
//! # Overhead contract
//!
//! Like the registry, the stream is **off by default** and every
//! [`emit`] entry point returns after one relaxed atomic load when
//! disabled — no allocation, no clock read, no lock. The committed
//! `paracrash selftest stream` asserts the disabled taps add < 3% to the
//! snapshot-engine microbench.
//!
//! # Determinism contract
//!
//! The stream is strictly **presentation-plane**: publishing an event
//! never feeds back into checking, so `canonical_report()` is
//! byte-identical with the stream enabled or disabled, sequential or
//! parallel (enforced by tests and verify gate 12). Timestamps and
//! durations are wall-clock and therefore nondeterministic;
//! `paracrash::telemetry::canonical_event_lines` projects a stream onto
//! its deterministic fields for seq ≡ par comparison.
//!
//! # Example
//!
//! ```
//! use pc_rt::obs::stream;
//!
//! stream::set_enabled(true);
//! stream::emit(stream::EventKind::Cell, "wl@OrangeFS/writeback", 1234, "findings=0");
//! let newest = stream::collect();
//! assert_eq!(newest.last().unwrap().1.name, "wl@OrangeFS/writeback");
//! stream::set_enabled(false);
//! ```

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock, RwLock};

/// `PC_EVENTS` environment variable: path of the JSON-lines event sink.
/// Setting it enables both the stream and the underlying telemetry
/// registry (events carry span/counter taps).
pub const EVENTS_ENV: &str = "PC_EVENTS";

/// `PC_EVENTS_CAP` environment variable: flight-recorder ring capacity
/// in events (default [`DEFAULT_CAP`]).
pub const EVENTS_CAP_ENV: &str = "PC_EVENTS_CAP";

/// Version stamp written into the stream header (and into the telemetry
/// JSON exporters); consumers reject streams with any other value.
pub const SCHEMA_VERSION: u64 = 1;

/// Default flight-recorder capacity: large enough to hold several fuzz
/// cells of span/counter traffic between per-cell flushes, small enough
/// (~1 MB of `Event`s) to stay a rounding error next to the span store.
pub const DEFAULT_CAP: usize = 8192;

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// What kind of thing happened. The wire spelling is [`EventKind::as_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A telemetry span opened (`value` unused, `detail` = category).
    SpanOpen,
    /// A telemetry span closed (`value` = duration ns, `detail` = category).
    SpanClose,
    /// A counter delta (`value` = delta).
    Counter,
    /// A novel fuzz finding (`value` = occurrences, `detail` = signature).
    Finding,
    /// A campaign cell completed (`value` = wall ns, `detail` = totals).
    Cell,
    /// A periodic campaign delta snapshot (`value` = cells done).
    Snapshot,
}

impl EventKind {
    /// Wire spelling used in the JSON-lines stream.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::SpanOpen => "span_open",
            EventKind::SpanClose => "span_close",
            EventKind::Counter => "counter",
            EventKind::Finding => "finding",
            EventKind::Cell => "cell",
            EventKind::Snapshot => "snapshot",
        }
    }

    /// Parse the wire spelling back; `None` for unknown kinds.
    pub fn parse(s: &str) -> Option<EventKind> {
        match s {
            "span_open" => Some(EventKind::SpanOpen),
            "span_close" => Some(EventKind::SpanClose),
            "counter" => Some(EventKind::Counter),
            "finding" => Some(EventKind::Finding),
            "cell" => Some(EventKind::Cell),
            "snapshot" => Some(EventKind::Snapshot),
            _ => None,
        }
    }
}

/// One structured event in the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the telemetry epoch (shared with span
    /// timestamps, so events and spans line up on one timeline).
    pub ts_ns: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Event name (span name, counter name, or cell label).
    pub name: String,
    /// Kind-specific magnitude (duration, delta, wall time, …).
    pub value: u64,
    /// Kind-specific free-text detail (category, signature, totals).
    pub detail: String,
    /// Causal trace id ([`super::current_trace_id`]) — ties the event to
    /// the workload cell that was being checked when it fired.
    pub trace_id: u64,
}

impl Event {
    /// Serialize as one compact JSON object (the [`crate::json`] subset).
    pub fn to_json_line(&self, seq: u64) -> String {
        format!(
            "{{\"seq\":{},\"ts_ns\":{},\"kind\":\"{}\",\"name\":\"{}\",\"value\":{},\"detail\":\"{}\",\"trace_id\":{}}}",
            seq,
            self.ts_ns,
            self.kind.as_str(),
            json_escape(&self.name),
            self.value,
            json_escape(&self.detail),
            self.trace_id,
        )
    }
}

/// Escape a string for a JSON string literal, staying inside the subset
/// [`crate::json::Json::parse`] round-trips (`\" \\ \n \r \t`, other
/// control characters as `\u00XX`).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Enable / disable
// ---------------------------------------------------------------------------

static STREAM_ON: AtomicBool = AtomicBool::new(false);
static STREAM_INIT: Once = Once::new();

/// One-time `PC_EVENTS` / `PC_EVENTS_CAP` bootstrap, run from the first
/// [`enabled`] check. Called from `obs::init_from_env` as well so that
/// setting only `PC_EVENTS` turns on both planes.
pub(super) fn init_from_env() {
    STREAM_INIT.call_once(|| {
        if let Ok(cap) = std::env::var(EVENTS_CAP_ENV) {
            if let Ok(cap) = cap.trim().parse::<usize>() {
                if cap > 0 {
                    set_capacity(cap);
                }
            }
        }
        if let Ok(path) = std::env::var(EVENTS_ENV) {
            let path = path.trim().to_string();
            if !path.is_empty() {
                if let Err(e) = set_sink(&path) {
                    crate::pc_error!("obs::stream: cannot open {EVENTS_ENV}={path}: {e}");
                }
            }
        }
    });
}

/// `true` when the event stream is on. The fast path every tap takes:
/// after the one-time env parse it is a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    init_from_env();
    STREAM_ON.load(Ordering::Relaxed)
}

/// Turn the stream on or off programmatically (overrides `PC_EVENTS`).
/// Enabling the stream does not by itself enable the telemetry
/// registry; callers that want span/counter events must also call
/// [`super::set_enabled`] (attaching a sink via [`set_sink`] does both).
pub fn set_enabled(on: bool) {
    init_from_env();
    STREAM_ON.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// The ring
// ---------------------------------------------------------------------------

/// Slot: `(seq, event)`; a slot only ever moves forward in seq, so a
/// late writer whose reservation was lapped cannot clobber newer data.
type Slot = Mutex<Option<(u64, Event)>>;

struct Ring {
    slots: Vec<Slot>,
}

impl Ring {
    fn with_cap(cap: usize) -> Ring {
        Ring {
            slots: (0..cap.max(1)).map(|_| Mutex::new(None)).collect(),
        }
    }
}

static RING: OnceLock<RwLock<Ring>> = OnceLock::new();
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);

fn ring() -> &'static RwLock<Ring> {
    RING.get_or_init(|| RwLock::new(Ring::with_cap(DEFAULT_CAP)))
}

fn lock_slot(slot: &Slot) -> std::sync::MutexGuard<'_, Option<(u64, Event)>> {
    slot.lock().unwrap_or_else(|e| e.into_inner())
}

/// Replace the ring with a fresh one of `cap` slots (tests and the
/// `PC_EVENTS_CAP` bootstrap). Events currently buffered are discarded;
/// the sequence counter keeps running.
pub fn set_capacity(cap: usize) {
    let mut r = ring().write().unwrap_or_else(|e| e.into_inner());
    *r = Ring::with_cap(cap);
}

/// Total events published since process start (including any that were
/// overwritten before a flush). One relaxed load.
pub fn published() -> u64 {
    NEXT_SEQ.load(Ordering::Relaxed)
}

/// Publish one event. Returns after a single relaxed atomic load when
/// the stream is disabled; when enabled, reserves a sequence number with
/// one `fetch_add` and takes only the destination slot's lock.
#[inline]
pub fn emit(kind: EventKind, name: &str, value: u64, detail: &str) {
    if !enabled() {
        return;
    }
    publish(Event {
        ts_ns: super::now_ns(),
        kind,
        name: name.to_string(),
        value,
        detail: detail.to_string(),
        trace_id: super::current_trace_id(),
    });
}

fn publish(ev: Event) {
    let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    let r = ring().read().unwrap_or_else(|e| e.into_inner());
    let idx = (seq % r.slots.len() as u64) as usize;
    let mut slot = lock_slot(&r.slots[idx]);
    let newer = match &*slot {
        Some((existing, _)) => *existing < seq,
        None => true,
    };
    if newer {
        *slot = Some((seq, ev));
    }
}

/// Read the ring's current contents in sequence order (oldest surviving
/// event first) without consuming them. Test / debug hook.
pub fn collect() -> Vec<(u64, Event)> {
    let r = ring().read().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<(u64, Event)> = r
        .slots
        .iter()
        .filter_map(|s| lock_slot(s).clone())
        .collect();
    out.sort_by_key(|&(seq, _)| seq);
    out
}

// ---------------------------------------------------------------------------
// Sink
// ---------------------------------------------------------------------------

struct Sink {
    out: std::io::BufWriter<std::fs::File>,
    /// Next sequence number to flush.
    flushed_seq: u64,
    /// Events lost to ring wraparound (or reserved-but-unwritten races).
    dropped: u64,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);
static PANIC_HOOK: Once = Once::new();

fn lock_sink() -> std::sync::MutexGuard<'static, Option<Sink>> {
    SINK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Attach a JSON-lines sink at `path` (truncating), write the
/// schema-version header line, enable the stream *and* the telemetry
/// registry, and install the panic-flush hook. Everything still live in
/// the ring at attach time is flushed on the next [`flush`]. Missing
/// parent directories are created, so `--events-out runs/a/ev.jsonl`
/// works on a fresh checkout.
pub fn set_sink(path: &str) -> std::io::Result<()> {
    crate::durable::ensure_parent_dir(std::path::Path::new(path))?;
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    let cap = ring().read().unwrap_or_else(|e| e.into_inner()).slots.len();
    writeln!(
        out,
        "{{\"schema_version\":{SCHEMA_VERSION},\"stream\":\"paracrash-events\",\"cap\":{cap}}}"
    )?;
    out.flush()?;
    {
        let mut sink = lock_sink();
        *sink = Some(Sink {
            out,
            flushed_seq: 0,
            dropped: 0,
        });
    }
    STREAM_ON.store(true, Ordering::Relaxed);
    // Store the parent flag directly: this can run inside the parent's
    // env-bootstrap `Once`, so calling `super::set_enabled` (which
    // re-enters that `Once`) would deadlock.
    super::TELEMETRY_ON.store(true, Ordering::Relaxed);
    PANIC_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            panic_flush();
            prev(info);
        }));
    });
    Ok(())
}

/// Drain every event published since the last flush into the sink.
/// Events the ring overwrote in the meantime are counted as dropped.
/// No-op without a sink.
pub fn flush() {
    let mut guard = lock_sink();
    let Some(sink) = guard.as_mut() else {
        return;
    };
    flush_into(sink);
}

fn flush_into(sink: &mut Sink) {
    let head = NEXT_SEQ.load(Ordering::Relaxed);
    let r = ring().read().unwrap_or_else(|e| e.into_inner());
    let cap = r.slots.len() as u64;
    let mut from = sink.flushed_seq;
    if head.saturating_sub(from) > cap {
        sink.dropped += head - from - cap;
        from = head - cap;
    }
    for seq in from..head {
        let slot = lock_slot(&r.slots[(seq % cap) as usize]);
        match &*slot {
            Some((s, ev)) if *s == seq => {
                let _ = writeln!(sink.out, "{}", ev.to_json_line(seq));
            }
            _ => sink.dropped += 1,
        }
    }
    sink.flushed_seq = head;
    let _ = sink.out.flush();
}

/// Flush and detach the sink, appending a trailer line with publish /
/// drop totals. No-op without a sink.
pub fn close() {
    let mut guard = lock_sink();
    let Some(mut sink) = guard.take() else {
        return;
    };
    flush_into(&mut sink);
    let _ = writeln!(
        sink.out,
        "{{\"schema_version\":{SCHEMA_VERSION},\"published\":{},\"dropped\":{}}}",
        sink.flushed_seq, sink.dropped,
    );
    let _ = sink.out.flush();
}

/// The crash-dump path: drain the ring and stamp a panic marker so a
/// post-mortem reader can see where the stream ends. Runs inside the
/// panic hook; every lock acquisition recovers from poisoning.
fn panic_flush() {
    let mut guard = lock_sink();
    let Some(sink) = guard.as_mut() else {
        return;
    };
    flush_into(sink);
    let _ = writeln!(
        sink.out,
        "{{\"schema_version\":{SCHEMA_VERSION},\"meta\":\"panic\",\"flushed\":{}}}",
        sink.flushed_seq,
    );
    let _ = sink.out.flush();
}
