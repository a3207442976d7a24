//! `obs::stream` — the JSON-lines event stream of a running sweep: its
//! writer ([`emit`]) and its one reader ([`read_stream`]).
//!
//! [`super`] (the `obs` registry) is snapshot-at-exit: nothing leaves the
//! process until a run finishes and something calls
//! [`super::snapshot`]. That is useless for a multi-hour fuzz campaign —
//! the operator needs to know *while it runs* whether coverage is still
//! growing, and a run that dies mid-campaign should leave a diagnosable
//! trail. This module is the streaming plane:
//!
//! * **what it carries** — the three things a consumer reads: a
//!   [`EventKind::Cell`] per checked cell, a [`EventKind::Finding`] per
//!   novel finding, a periodic campaign [`EventKind::Snapshot`]. Spans
//!   and counters are not events: the registry already holds them
//!   exactly, and the exit snapshot exports them.
//! * **no buffer** — every emitter is the driver thread, at about one
//!   event per cell, so [`emit`] formats its one line and appends it to
//!   the file with one `write_all` under the sink's mutex. There is
//!   nothing to overwrite, nothing to drop and nothing to flush: every
//!   line emitted is in the file even if the process dies next.
//! * **JSON-lines file** — [`set_sink`] (the CLI's `--events-out`)
//!   attaches the file; one compact JSON object per line (the
//!   [`crate::json`] subset: unsigned integers, escaped strings). The
//!   first line is a header carrying [`SCHEMA_VERSION`]; [`close`]
//!   appends a trailer with the number of events written. A stream
//!   without a trailer is a crash dump: everything up to the last line
//!   the process wrote.
//!
//! The stream is one bit of the [`super`] plane mask: **off by
//! default**, and every [`emit`] returns after one relaxed atomic load
//! when disabled — no allocation, no clock read, no lock
//! (`paracrash selftest obs` holds the disabled sites under 3%).
//! Publishing an event never feeds back into checking, so
//! `canonical_report()` is byte-identical with the stream on or off.
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
use std::sync::Mutex;

/// Version stamp written into the stream header (and into the telemetry
/// JSON exporter); readers reject files with any other value. 2: the
/// stream lost its span and counter kinds, telemetry its plain dialect.
pub const SCHEMA_VERSION: u64 = 2;

/// The one version gate of both artifacts: `doc` (a telemetry file, a
/// stream header) must carry this tool's [`SCHEMA_VERSION`].
pub fn check_version(doc: &Json) -> Result<(), String> {
    match doc.get("schema_version").and_then(Json::as_int) {
        Some(SCHEMA_VERSION) => Ok(()),
        Some(v) => Err(format!(
            "unknown schema_version {v} (expected {SCHEMA_VERSION})"
        )),
        None => Err("missing schema_version".into()),
    }
}

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

/// One event: what [`emit`] writes as a line and [`read_stream`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Position in the process's event sequence ([`published`] before
    /// it was emitted).
    pub seq: u64,
    /// Nanoseconds since the telemetry epoch (shared with span
    /// timestamps, so events and spans line up on one timeline), stamped
    /// when the event is emitted.
    pub ts_ns: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Event name (cell label, `fs/journal` of a finding, `campaign`).
    pub name: String,
    /// Kind-specific magnitude (occurrences, wall time, cells done).
    pub value: u64,
    /// Kind-specific free-text detail (signature, totals).
    pub detail: String,
    /// Causal trace id ([`super::current_trace_id`]) — ties the event to
    /// the workload cell that was being checked when it fired.
    pub trace_id: u64,
}

impl Event {
    /// Serialize as one compact JSON object (the [`crate::json`] subset),
    /// without the line's newline.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96 + self.name.len() + self.detail.len());
        let _ = write!(
            out,
            "{{\"seq\":{},\"ts_ns\":{},\"kind\":\"{}\",\"name\":",
            self.seq,
            self.ts_ns,
            self.kind.as_str(),
        );
        Json::write_str(&mut out, &self.name);
        let _ = write!(out, ",\"value\":{},\"detail\":", self.value);
        Json::write_str(&mut out, &self.detail);
        let _ = write!(out, ",\"trace_id\":{}}}", self.trace_id);
        out
    }

    /// The event an event line holds: every field present with its type,
    /// and a known kind.
    fn from_json(doc: &Json) -> Result<Event, String> {
        let int = |key: &str| {
            doc.get(key)
                .and_then(Json::as_int)
                .ok_or(format!("missing {key}"))
        };
        let text = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("missing {key}"))
        };
        let seq = int("seq")?;
        let kind = text("kind")?;
        Ok(Event {
            seq,
            ts_ns: int("ts_ns")?,
            kind: EventKind::parse(&kind).ok_or(format!("unknown kind {kind:?}"))?,
            name: text("name")?,
            value: int("value")?,
            detail: text("detail")?,
            trace_id: int("trace_id")?,
        })
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
    file: std::fs::File,
    /// Event lines written to this sink.
    written: u64,
}

impl Sink {
    /// Append `line` and its newline with one `write_all`.
    fn write_line(&mut self, mut line: String) -> std::io::Result<()> {
        line.push('\n');
        self.file.write_all(line.as_bytes())
    }
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);
static PUBLISHED: AtomicU64 = AtomicU64::new(0);

/// Total events published since process start; each one's `seq`. One
/// relaxed load.
pub fn published() -> u64 {
    PUBLISHED.load(Ordering::Relaxed)
}

/// Publish one event. Returns after a single relaxed atomic load when
/// the stream is disabled; when enabled, takes the sink's lock, draws
/// the next sequence number under it (so file order is `seq` order) and
/// appends the line to the sink, if one is attached.
#[inline]
pub fn emit(kind: EventKind, name: &str, value: u64, detail: &str) {
    if !enabled() {
        return;
    }
    let mut sink = lock(&SINK);
    let seq = PUBLISHED.fetch_add(1, Ordering::Relaxed);
    if let Some(sink) = sink.as_mut() {
        let ev = Event {
            seq,
            ts_ns: super::now_ns(),
            kind,
            name: name.to_string(),
            value,
            detail: detail.to_string(),
            trace_id: super::current_trace_id(),
        };
        let _ = sink.write_line(ev.to_json_line());
        sink.written += 1;
    }
}

fn header() -> String {
    format!("{{\"schema_version\":{SCHEMA_VERSION},\"stream\":\"paracrash-events\"}}")
}

fn trailer(published: u64) -> String {
    format!("{{\"schema_version\":{SCHEMA_VERSION},\"published\":{published}}}")
}

/// Attach a JSON-lines sink at `path` (truncating), write the
/// schema-version header line, and enable the stream *and* the telemetry
/// registry. Missing parent directories are created, so `--events-out
/// runs/a/ev.jsonl` works on a fresh checkout.
pub fn set_sink(path: &str) -> std::io::Result<()> {
    crate::durable::ensure_parent_dir(std::path::Path::new(path))?;
    let mut sink = Sink {
        file: std::fs::File::create(path)?,
        written: 0,
    };
    sink.write_line(header())?;
    *lock(&SINK) = Some(sink);
    super::set_planes(plane::REGISTRY | plane::STREAM | plane::ALLOC, true);
    Ok(())
}

/// Detach the sink, appending a trailer line with the number of events
/// written. No-op without a sink.
pub fn close() {
    if let Some(mut sink) = lock(&SINK).take() {
        let _ = sink.write_line(trailer(sink.written));
    }
}

// ---------------------------------------------------------------------------
// The reader
// ---------------------------------------------------------------------------

/// A `--events-out` stream as [`read_stream`] returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    /// The events, in file order (strictly increasing `seq`).
    pub events: Vec<Event>,
    /// The trailer's event count, equal to `events.len()`; `None` for a
    /// stream that was never closed (a crash dump).
    pub published: Option<u64>,
}

/// Read a `--events-out` stream back, strictly: the first line is the
/// header with this tool's [`SCHEMA_VERSION`]; every other line is an
/// event with the full field set, a known kind and a `seq` above the
/// previous one — or the trailer, which comes last and counts exactly the
/// events before it. A stream without a trailer is a crash dump.
pub fn read_stream(text: &str) -> Result<Stream, String> {
    let mut lines = (1..)
        .zip(text.lines())
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or("empty event stream")?;
    let header = Json::parse(header).map_err(|e| format!("header: {e}"))?;
    check_version(&header).map_err(|e| format!("header: {e}"))?;
    let mut stream = Stream {
        events: Vec::new(),
        published: None,
    };
    for (n, line) in lines {
        let at = |e: String| format!("line {n}: {e}");
        if stream.published.is_some() {
            return Err(at("a line after the trailer".into()));
        }
        let doc = Json::parse(line).map_err(at)?;
        if doc.get("kind").is_none() {
            check_version(&doc).map_err(at)?;
            let count = doc.get("published").and_then(Json::as_int);
            let count = count.ok_or_else(|| at("neither an event nor the trailer".into()))?;
            let held = stream.events.len() as u64;
            if count != held {
                return Err(at(format!(
                    "the trailer counts {count} events, the stream holds {held}"
                )));
            }
            stream.published = Some(count);
            continue;
        }
        let ev = Event::from_json(&doc).map_err(at)?;
        if let Some(prev) = stream.events.last() {
            if ev.seq <= prev.seq {
                return Err(at(format!("seq {} not above {}", ev.seq, prev.seq)));
            }
        }
        stream.events.push(ev);
    }
    Ok(stream)
}

impl Stream {
    /// The stream's deterministic content, for seq ≡ par comparison:
    /// `finding` and `cell` events (whose name and detail are pure
    /// functions of the campaign's deterministic fold) as `kind name ::
    /// detail`, sorted — no timestamps, durations, sequence numbers or
    /// periodic snapshots. Two campaign runs of the same matrix —
    /// sequential or parallel, any `PC_THREADS` — must project
    /// identically; the observability verify gate diffs them.
    pub fn canonical_lines(&self) -> Vec<String> {
        let mut out: Vec<String> = (self.events.iter())
            .filter(|e| e.kind != EventKind::Snapshot)
            .map(|e| format!("{} {} :: {}", e.kind.as_str(), e.name, e.detail))
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use EventKind::{Cell, Finding, Snapshot};

    #[test]
    fn kinds_table_is_in_enum_order() {
        for (kind, name) in KINDS {
            assert_eq!(kind.as_str(), name);
            assert_eq!(EventKind::parse(name), Some(kind));
        }
        assert_eq!(EventKind::parse("span_close"), None);
    }

    fn ev(seq: u64, kind: EventKind, name: &str, detail: &str) -> Event {
        let (name, detail) = (name.to_string(), detail.to_string());
        let (ts_ns, value, trace_id) = (seq * 100, 7, 3);
        Event {
            seq,
            ts_ns,
            kind,
            name,
            value,
            detail,
            trace_id,
        }
    }

    /// The text a sink holds after writing `events` (and the trailer
    /// when `closed`).
    fn written(events: &[Event], closed: bool) -> String {
        let mut lines = vec![header()];
        lines.extend(events.iter().map(Event::to_json_line));
        lines.extend(closed.then(|| trailer(events.len() as u64)));
        lines.join("\n") + "\n"
    }

    /// The line format is a file format: these are the bytes the
    /// private escaper this module used to carry produced.
    #[test]
    fn json_line_bytes_are_pinned_and_read_back() {
        let mut ev = ev(5, Cell, "a\"b\\c", "l1\nl2\u{1}\t\rµ");
        ev.ts_ns = 12;
        assert_eq!(
            ev.to_json_line(),
            r#"{"seq":5,"ts_ns":12,"kind":"cell","name":"a\"b\\c","value":7,"detail":"l1\nl2\u0001\t\rµ","trace_id":3}"#
        );
        let closed = read_stream(&written(&[ev.clone()], true)).unwrap();
        assert_eq!(
            (&closed.events[..], closed.published),
            (&[ev.clone()][..], Some(1))
        );
        // Never closed: a crash dump, every event it wrote intact.
        let dump = read_stream(&written(&[ev.clone()], false)).unwrap();
        assert_eq!((dump.events, dump.published), (vec![ev], None));
    }

    #[test]
    fn the_reader_rejects_what_the_writer_never_writes() {
        let (a, b) = (ev(0, Cell, "wl@x/y", ""), ev(5, Finding, "x/y", ""));
        let text = written(&[a.clone(), b.clone()], true);
        let edit = |from: &str, to: &str| text.replacen(from, to, 1);
        let unsorted = written(&[b.clone(), a.clone()], true);
        let repeated = written(&[a.clone(), a.clone()], false);
        let after_trailer = text.clone() + &a.to_json_line();
        for (bad, why) in [
            // A v1 stream is turned away at the header, before its
            // `span_close` lines could read as "unknown kind".
            (edit(":2,", ":1,"), "header: unknown schema_version 1"),
            ("{}".into(), "header: missing schema_version"),
            (String::new(), "empty event stream"),
            (unsorted, "line 3: seq 0 not above 5"),
            (repeated, "line 3: seq 0 not above 0"),
            (edit("finding", "counter"), "line 3: unknown kind"),
            (edit(",\"trace_id\":3", ""), "line 2: missing trace_id"),
            (edit(":7,", ":\"7\","), "line 2: missing value"),
            (edit(":2}", ":9999}"), "line 4: the trailer counts 9999"),
            (after_trailer, "line 5: a line after the trailer"),
            (edit("published", "meta"), "line 4: neither an event"),
            (text[..text.len() - 10].into(), "line 4: "),
        ] {
            let err = read_stream(&bad).unwrap_err();
            assert!(err.starts_with(why), "{err} (wanted {why})");
        }
    }

    #[test]
    fn canonical_projection_is_order_and_noise_invariant() {
        let cell = ev(1, Cell, "wl@x/y", "findings=0");
        let finding = ev(2, Finding, "x/y", "sig");
        let snapshot = |seq, detail| ev(seq, Snapshot, "campaign", detail);
        let a = [snapshot(0, "cells=1/2"), cell.clone(), finding.clone()];
        // Same deterministic content: different seqs, timestamps,
        // ordering, and snapshot cadence.
        let (mut cell, mut finding) = (cell, finding);
        (cell.seq, cell.ts_ns, finding.seq) = (800, 1, 10);
        let b = [finding, snapshot(90, "cells=2/2"), cell];
        let project = |events| read_stream(&written(events, true)).unwrap();
        let lines = project(&a).canonical_lines();
        assert_eq!(lines, project(&b).canonical_lines());
        assert_eq!(lines, ["cell wl@x/y :: findings=0", "finding x/y :: sig"]);
    }
}
