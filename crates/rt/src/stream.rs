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
//! * **JSON-lines sink** — [`set_sink`] (the CLI's `--events-out`)
//!   attaches a file sink; [`flush`] drains every event
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
//! The stream is one bit of the [`super`] plane mask: **off by
//! default**, and every [`emit`] returns after one relaxed atomic load
//! when disabled — no allocation, no clock read, no lock
//! (`paracrash selftest obs` holds the disabled sites under 3%).
//!
//! # Determinism contract
//!
//! The stream is strictly **presentation-plane**: publishing an event
//! never feeds back into checking, so `canonical_report()` is
//! byte-identical with the stream enabled or disabled, sequential or
//! parallel (enforced by tests and the observability verify gate). Timestamps and
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

use super::plane;
use crate::json::Json;
use crate::lock;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock, RwLock, RwLockReadGuard};

/// Version stamp written into the stream header (and into the telemetry
/// JSON exporters); consumers reject streams with any other value.
pub const SCHEMA_VERSION: u64 = 1;

/// Flight-recorder capacity: large enough to hold several fuzz
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

/// Every kind with its wire spelling.
const KINDS: [(EventKind, &str); 6] = [
    (EventKind::SpanOpen, "span_open"),
    (EventKind::SpanClose, "span_close"),
    (EventKind::Counter, "counter"),
    (EventKind::Finding, "finding"),
    (EventKind::Cell, "cell"),
    (EventKind::Snapshot, "snapshot"),
];

impl EventKind {
    /// Wire spelling used in the JSON-lines stream.
    pub fn as_str(&self) -> &'static str {
        KINDS[*self as usize].1
    }

    /// Parse the wire spelling back; `None` for unknown kinds.
    pub fn parse(s: &str) -> Option<EventKind> {
        KINDS.iter().find(|(_, name)| *name == s).map(|(k, _)| *k)
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
        let mut out = String::with_capacity(96 + self.name.len() + self.detail.len());
        let _ = write!(
            out,
            "{{\"seq\":{seq},\"ts_ns\":{},\"kind\":\"{}\",\"name\":",
            self.ts_ns,
            self.kind.as_str(),
        );
        Json::write_str(&mut out, &self.name);
        let _ = write!(out, ",\"value\":{},\"detail\":", self.value);
        Json::write_str(&mut out, &self.detail);
        let _ = write!(out, ",\"trace_id\":{}}}", self.trace_id);
        out
    }
}

// ---------------------------------------------------------------------------
// Enable / disable
// ---------------------------------------------------------------------------

/// `true` when the event stream is on: one relaxed load of the plane
/// mask.
#[inline]
pub fn enabled() -> bool {
    super::planes() & plane::STREAM != 0
}

/// Turn the stream on or off programmatically. Enabling the stream does
/// not by itself enable the telemetry registry; callers that want
/// span/counter events must also call [`super::set_enabled`] (attaching
/// a sink via [`set_sink`] does both).
pub fn set_enabled(on: bool) {
    super::set_planes(plane::STREAM, on);
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

fn ring_lock() -> &'static RwLock<Ring> {
    RING.get_or_init(|| RwLock::new(Ring::with_cap(DEFAULT_CAP)))
}

/// The ring, for publishing or reading slots (poison-tolerant like
/// [`lock`]: a slot write is one assignment).
fn ring() -> RwLockReadGuard<'static, Ring> {
    ring_lock().read().unwrap_or_else(|e| e.into_inner())
}

/// Replace the ring with a fresh one of `cap` slots (tests; every run
/// uses [`DEFAULT_CAP`]). Events currently buffered are discarded; the
/// sequence counter keeps running.
pub fn set_capacity(cap: usize) {
    *ring_lock().write().unwrap_or_else(|e| e.into_inner()) = Ring::with_cap(cap);
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
    let r = ring();
    let idx = (seq % r.slots.len() as u64) as usize;
    let mut slot = lock(&r.slots[idx]);
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
    let mut out: Vec<(u64, Event)> = ring()
        .slots
        .iter()
        .filter_map(|s| lock(s).clone())
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
    let cap = ring().slots.len();
    writeln!(
        out,
        "{{\"schema_version\":{SCHEMA_VERSION},\"stream\":\"paracrash-events\",\"cap\":{cap}}}"
    )?;
    out.flush()?;
    *lock(&SINK) = Some(Sink {
        out,
        flushed_seq: 0,
        dropped: 0,
    });
    super::set_planes(plane::REGISTRY | plane::STREAM | plane::ALLOC, true);
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
    if let Some(sink) = lock(&SINK).as_mut() {
        flush_into(sink);
    }
}

fn flush_into(sink: &mut Sink) {
    let head = NEXT_SEQ.load(Ordering::Relaxed);
    let r = ring();
    let cap = r.slots.len() as u64;
    let mut from = sink.flushed_seq;
    if head.saturating_sub(from) > cap {
        sink.dropped += head - from - cap;
        from = head - cap;
    }
    for seq in from..head {
        let slot = lock(&r.slots[(seq % cap) as usize]);
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

/// Drain the ring into `sink` and stamp a closing meta line.
fn flush_with(sink: &mut Sink, meta: impl FnOnce(&Sink) -> String) {
    flush_into(sink);
    let line = meta(sink);
    let _ = writeln!(sink.out, "{{\"schema_version\":{SCHEMA_VERSION},{line}}}");
    let _ = sink.out.flush();
}

/// Flush and detach the sink, appending a trailer line with publish /
/// drop totals. No-op without a sink.
pub fn close() {
    if let Some(mut sink) = lock(&SINK).take() {
        flush_with(&mut sink, |s| {
            format!("\"published\":{},\"dropped\":{}", s.flushed_seq, s.dropped)
        });
    }
}

/// The crash-dump path: drain the ring and stamp a panic marker so a
/// post-mortem reader can see where the stream ends. Runs inside the
/// panic hook; every lock acquisition recovers from poisoning.
fn panic_flush() {
    if let Some(sink) = lock(&SINK).as_mut() {
        flush_with(sink, |s| {
            format!("\"meta\":\"panic\",\"flushed\":{}", s.flushed_seq)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The line format is a file format: these are the bytes the
    /// private escaper this module used to carry produced.
    #[test]
    fn kinds_table_is_in_enum_order() {
        for (kind, name) in KINDS {
            assert_eq!(kind.as_str(), name);
            assert_eq!(EventKind::parse(name), Some(kind));
        }
        assert_eq!(EventKind::parse("mystery"), None);
    }

    #[test]
    fn json_line_bytes_are_pinned() {
        let ev = Event {
            ts_ns: 12,
            kind: EventKind::Cell,
            name: "a\"b\\c".into(),
            value: 7,
            detail: "l1\nl2\u{1}\t\rµ".into(),
            trace_id: 3,
        };
        assert_eq!(
            ev.to_json_line(5),
            r#"{"seq":5,"ts_ns":12,"kind":"cell","name":"a\"b\\c","value":7,"detail":"l1\nl2\u0001\t\rµ","trace_id":3}"#
        );
    }
}
