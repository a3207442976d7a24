//! `obs::stream` — the JSON-lines event stream of a running sweep.
//!
//! [`super`] (the `obs` registry) is snapshot-at-exit: nothing leaves the
//! process until a run finishes and something calls
//! [`super::snapshot`]. That is useless for a multi-hour fuzz campaign —
//! the operator needs to know *while it runs* whether coverage is still
//! growing, and a poisoned run that panics mid-campaign should leave a
//! diagnosable trail. This module is the streaming plane:
//!
//! * **what it carries** — the three things a consumer reads: a
//!   [`EventKind::Cell`] per checked cell, a [`EventKind::Finding`] per
//!   novel finding, a periodic campaign [`EventKind::Snapshot`]. Spans
//!   and counters are not events: the registry already holds them
//!   exactly, and the exit snapshot exports them.
//! * **no buffer** — every emitter is the driver thread, at about one
//!   event per cell, so [`emit`] formats its one line and writes it to
//!   the sink under the sink's mutex. There is nothing to overwrite and
//!   nothing to drop.
//! * **JSON-lines sink** — [`set_sink`] (the CLI's `--events-out`)
//!   attaches a file sink; one compact JSON object per line (the
//!   [`crate::json`] subset: unsigned integers, escaped strings). The
//!   first line is a header carrying [`SCHEMA_VERSION`]; the drivers
//!   [`flush`] after every cell, so a killed sweep leaves everything up
//!   to its last finished cell; [`close`] appends a trailer with the
//!   number of events written.
//! * **crash-dump hook** — attaching a sink installs a panic hook
//!   (chained in front of the previous one) that stamps a marker line
//!   and flushes, so a post-mortem reader sees where the stream ends.
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
//! parallel (enforced by tests and the observability verify gate).
//! Timestamps and durations are wall-clock and therefore nondeterministic;
//! `paracrash::telemetry::canonical_event_lines` projects a stream onto
//! its deterministic fields for seq ≡ par comparison.
//!
//! # Example
//!
//! ```
//! use pc_rt::obs::stream;
//!
//! stream::set_enabled(true);
//! let before = stream::published();
//! stream::emit(stream::EventKind::Cell, "wl@OrangeFS/writeback", 1234, "findings=0");
//! assert_eq!(stream::published(), before + 1);
//! stream::set_enabled(false);
//! ```

use super::plane;
use crate::json::Json;
use crate::lock;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};

/// Version stamp written into the stream header (and into the telemetry
/// JSON exporter); consumers reject files with any other value. 2: the
/// stream lost its span and counter kinds, telemetry its plain dialect.
pub const SCHEMA_VERSION: u64 = 2;

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// What kind of thing happened. The wire spelling is [`EventKind::as_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A novel fuzz finding (`value` = occurrences, `detail` = signature).
    Finding,
    /// A campaign cell completed (`value` = wall ns, `detail` = totals).
    Cell,
    /// A periodic campaign delta snapshot (`value` = cells done).
    Snapshot,
}

/// Every kind with its wire spelling.
const KINDS: [(EventKind, &str); 3] = [
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

/// One structured event, as [`emit`] formats it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event<'a> {
    /// Nanoseconds since the telemetry epoch (shared with span
    /// timestamps, so events and spans line up on one timeline).
    pub ts_ns: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Event name (cell label, `fs/journal` of a finding, `campaign`).
    pub name: &'a str,
    /// Kind-specific magnitude (occurrences, wall time, cells done).
    pub value: u64,
    /// Kind-specific free-text detail (signature, totals).
    pub detail: &'a str,
    /// Causal trace id ([`super::current_trace_id`]) — ties the event to
    /// the workload cell that was being checked when it fired.
    pub trace_id: u64,
}

impl Event<'_> {
    /// Serialize as one compact JSON object (the [`crate::json`] subset).
    pub fn to_json_line(&self, seq: u64) -> String {
        let mut out = String::with_capacity(96 + self.name.len() + self.detail.len());
        let _ = write!(
            out,
            "{{\"seq\":{seq},\"ts_ns\":{},\"kind\":\"{}\",\"name\":",
            self.ts_ns,
            self.kind.as_str(),
        );
        Json::write_str(&mut out, self.name);
        let _ = write!(out, ",\"value\":{},\"detail\":", self.value);
        Json::write_str(&mut out, self.detail);
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

/// Turn the stream on or off programmatically (attaching a sink via
/// [`set_sink`] turns it on).
pub fn set_enabled(on: bool) {
    super::set_planes(plane::STREAM, on);
}

// ---------------------------------------------------------------------------
// Emit and the sink
// ---------------------------------------------------------------------------

struct Sink {
    out: std::io::BufWriter<std::fs::File>,
    /// Event lines written to this sink.
    written: u64,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);
static PUBLISHED: AtomicU64 = AtomicU64::new(0);
static PANIC_HOOK: Once = Once::new();

/// Total events published since process start; each one's `seq`. One
/// relaxed load.
pub fn published() -> u64 {
    PUBLISHED.load(Ordering::Relaxed)
}

/// Publish one event. Returns after a single relaxed atomic load when
/// the stream is disabled; when enabled, takes the sink's lock, draws
/// the next sequence number under it (so file order is `seq` order) and
/// writes the line to the sink, if one is attached.
#[inline]
pub fn emit(kind: EventKind, name: &str, value: u64, detail: &str) {
    if !enabled() {
        return;
    }
    let mut sink = lock(&SINK);
    let seq = PUBLISHED.fetch_add(1, Ordering::Relaxed);
    if let Some(sink) = sink.as_mut() {
        let ev = Event {
            ts_ns: super::now_ns(),
            kind,
            name,
            value,
            detail,
            trace_id: super::current_trace_id(),
        };
        let _ = writeln!(sink.out, "{}", ev.to_json_line(seq));
        sink.written += 1;
    }
}

/// Attach a JSON-lines sink at `path` (truncating), write the
/// schema-version header line, enable the stream *and* the telemetry
/// registry, and install the panic hook. Missing parent directories are
/// created, so `--events-out runs/a/ev.jsonl` works on a fresh checkout.
pub fn set_sink(path: &str) -> std::io::Result<()> {
    crate::durable::ensure_parent_dir(std::path::Path::new(path))?;
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    writeln!(
        out,
        "{{\"schema_version\":{SCHEMA_VERSION},\"stream\":\"paracrash-events\"}}"
    )?;
    out.flush()?;
    *lock(&SINK) = Some(Sink { out, written: 0 });
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

/// Push everything written so far to the file. The drivers call this
/// once per cell. No-op without a sink.
pub fn flush() {
    if let Some(sink) = lock(&SINK).as_mut() {
        let _ = sink.out.flush();
    }
}

/// Stamp a closing meta line and flush.
fn write_meta(sink: &mut Sink, fields: std::fmt::Arguments<'_>) {
    let _ = writeln!(sink.out, "{{\"schema_version\":{SCHEMA_VERSION},{fields}}}");
    let _ = sink.out.flush();
}

/// Detach the sink, appending a trailer line with the number of events
/// written. No-op without a sink.
pub fn close() {
    if let Some(mut sink) = lock(&SINK).take() {
        let written = sink.written;
        write_meta(&mut sink, format_args!("\"published\":{written}"));
    }
}

/// The crash-dump path: stamp a panic marker so a post-mortem reader
/// can see where the stream ends. Runs inside the panic hook; the lock
/// acquisition recovers from poisoning.
fn panic_flush() {
    if let Some(sink) = lock(&SINK).as_mut() {
        let written = sink.written;
        write_meta(
            sink,
            format_args!("\"meta\":\"panic\",\"flushed\":{written}"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_table_is_in_enum_order() {
        for (kind, name) in KINDS {
            assert_eq!(kind.as_str(), name);
            assert_eq!(EventKind::parse(name), Some(kind));
        }
        assert_eq!(EventKind::parse("span_close"), None);
    }

    /// The line format is a file format: these are the bytes the
    /// private escaper this module used to carry produced.
    #[test]
    fn json_line_bytes_are_pinned() {
        let ev = Event {
            ts_ns: 12,
            kind: EventKind::Cell,
            name: "a\"b\\c",
            value: 7,
            detail: "l1\nl2\u{1}\t\rµ",
            trace_id: 3,
        };
        assert_eq!(
            ev.to_json_line(5),
            r#"{"seq":5,"ts_ns":12,"kind":"cell","name":"a\"b\\c","value":7,"detail":"l1\nl2\u0001\t\rµ","trace_id":3}"#
        );
    }
}
