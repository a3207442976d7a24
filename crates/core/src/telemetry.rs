//! Telemetry serialization: a `pc_rt::obs` snapshot as machine-readable
//! JSON, and the read side of the `--events-out` stream.
//!
//! * [`chrome_trace`] — what `--telemetry-out` writes: the Chrome
//!   trace-event format (the JSON Array Format with `traceEvents`),
//!   loadable in Perfetto / `chrome://tracing` for a flamegraph-style
//!   timeline of a full bug-finding run. Every span becomes a complete
//!   (`"ph": "X"`) event with its exact nanoseconds under `args`;
//!   counters, gauges, histogram summaries and allocation attribution
//!   ride along under `otherData`. It serializes with the vendored
//!   writer and round-trips through [`Json::parse`] — the `selftest
//!   telemetry` gate in `scripts/verify.sh` relies on that — and carries
//!   a top-level `schema_version`
//!   ([`pc_rt::obs::stream::SCHEMA_VERSION`], shared with the events
//!   stream); `selftest telemetry` and `paracrash report` reject any
//!   other version instead of silently re-parsing an incompatible dump.
//! * [`trace_spans`] / [`trace_other`] — the two accessors every reader
//!   of such a file goes through.
//! * [`parse_event_stream`] validates a `--events-out` JSON-lines
//!   stream; [`canonical_event_lines`] projects it onto its
//!   deterministic fields (kind/name/detail of `finding` and `cell`
//!   events, sorted) so sequential and parallel campaign runs can be
//!   diffed byte-for-byte.

use pc_rt::json::Json;
use pc_rt::obs::stream::SCHEMA_VERSION;
use pc_rt::obs::TelemetrySnapshot;

/// The `otherData.alloc` object: whole-process totals plus
/// per-span attribution from the counting allocator (empty when
/// accounting never ran).
fn alloc_json(snap: &TelemetrySnapshot) -> Json {
    let stat = |s: &pc_rt::obs::AllocStat| {
        Json::Obj(vec![
            ("count".into(), Json::Int(s.count)),
            ("bytes".into(), Json::Int(s.bytes)),
            ("peak_bytes".into(), Json::Int(s.peak_bytes)),
        ])
    };
    Json::Obj(vec![
        ("total".into(), stat(&snap.alloc_total)),
        (
            "spans".into(),
            Json::Obj(
                snap.allocs
                    .iter()
                    .map(|(k, s)| (k.clone(), stat(s)))
                    .collect(),
            ),
        ),
    ])
}

/// Serialize a snapshot in Chrome trace-event format. Spans arrive
/// sorted by start time, so the emitted `ts` fields are monotonically
/// nondecreasing (asserted by `tests/telemetry.rs`). Timestamps are
/// microseconds, as the format requires; sub-microsecond precision is
/// kept in `args.start_ns` / `args.dur_ns`.
///
/// The `pid` field carries the span's causal trace id plus one (0 is
/// not a valid pid; untraced spans land in pid 1), so Perfetto groups
/// each workload cell's cross-layer flow — workload replay, checker
/// stages, `simnet` RPC deliveries on pool workers — as one process
/// lane per check.
pub fn chrome_trace(snap: &TelemetrySnapshot) -> Json {
    let events = snap
        .spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                (
                    "cat".into(),
                    Json::Str(if s.cat.is_empty() { "pc" } else { s.cat }.into()),
                ),
                ("ph".into(), Json::Str("X".into())),
                ("pid".into(), Json::Int(s.trace_id + 1)),
                ("tid".into(), Json::Int(s.tid.into())),
                ("ts".into(), Json::Int(s.start_ns / 1_000)),
                ("dur".into(), Json::Int(s.dur_ns.div_ceil(1_000))),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("depth".into(), Json::Int(s.depth.into())),
                        ("start_ns".into(), Json::Int(s.start_ns)),
                        ("dur_ns".into(), Json::Int(s.dur_ns)),
                        ("trace_id".into(), Json::Int(s.trace_id)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema_version".into(), Json::Int(SCHEMA_VERSION)),
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
        (
            "otherData".into(),
            Json::Obj(vec![
                ("counters".into(), named_ints(&snap.counters)),
                ("gauges".into(), named_ints(&snap.gauges)),
                ("histograms".into(), hists(snap)),
                ("dropped_spans".into(), Json::Int(snap.dropped_spans)),
                ("ops".into(), Json::Int(snap.ops)),
                ("alloc".into(), alloc_json(snap)),
            ]),
        ),
    ])
}

/// The spans of a parsed `--telemetry-out` file as `(name, dur_ns)`
/// pairs. A document without `traceEvents`, or with a `schema_version`
/// other than [`SCHEMA_VERSION`], is an error: it is not a file this
/// tool wrote.
pub fn trace_spans(doc: &Json) -> Result<impl Iterator<Item = (&str, u64)>, String> {
    check_version(doc)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no traceEvents array (not a --telemetry-out file)")?;
    Ok(events.iter().map(|e| {
        let dur_ns = e.get("args").and_then(|a| a.get("dur_ns"));
        (
            e.get("name").and_then(Json::as_str).unwrap_or(""),
            dur_ns.and_then(Json::as_int).unwrap_or(0),
        )
    }))
}

/// The one version gate of both artifacts: `doc` (a telemetry file, a
/// stream header) must carry this tool's [`SCHEMA_VERSION`].
fn check_version(doc: &Json) -> Result<(), String> {
    match doc.get("schema_version").and_then(Json::as_int) {
        Some(v) if v == SCHEMA_VERSION => Ok(()),
        Some(v) => Err(format!(
            "unknown schema_version {v} (expected {SCHEMA_VERSION})"
        )),
        None => Err("missing schema_version".into()),
    }
}

/// Field `key` of a parsed `--telemetry-out` file's `otherData`.
pub fn trace_other<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    doc.get("otherData").and_then(|o| o.get(key))
}

/// A validated `--events-out` stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EventStream {
    /// The event objects, in stream order.
    pub events: Vec<Json>,
    /// The event count from the trailer [`pc_rt::obs::stream::close`]
    /// writes. `None` for a stream that was never closed (a crash dump).
    pub published: Option<u64>,
}

/// Parse and validate a `--events-out` JSON-lines stream.
///
/// The first line must be the stream header carrying a known
/// `schema_version`; event lines must have the full field set with a
/// strictly increasing `seq` and a known `kind`; meta lines (the
/// trailer, the panic marker) are allowed after the header.
pub fn parse_event_stream(text: &str) -> Result<EventStream, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty event stream")?;
    let header = Json::parse(header).map_err(|e| format!("header: {e}"))?;
    check_version(&header).map_err(|e| format!("header: {e}"))?;
    let mut events = Vec::new();
    let mut published = None;
    let mut last_seq: Option<u64> = None;
    for (i, line) in lines.enumerate() {
        let obj = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 2))?;
        if obj.get("schema_version").is_some() && obj.get("kind").is_none() {
            // Meta line: the trailer, or the panic marker (no total).
            published = obj.get("published").and_then(Json::as_int).or(published);
            continue;
        }
        let seq = obj
            .get("seq")
            .and_then(Json::as_int)
            .ok_or_else(|| format!("line {}: missing seq", i + 2))?;
        if let Some(prev) = last_seq {
            if seq <= prev {
                return Err(format!("line {}: seq {seq} not above {prev}", i + 2));
            }
        }
        last_seq = Some(seq);
        let kind = obj
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing kind", i + 2))?;
        if pc_rt::obs::stream::EventKind::parse(kind).is_none() {
            return Err(format!("line {}: unknown kind {kind:?}", i + 2));
        }
        for key in ["ts_ns", "value", "trace_id"] {
            if obj.get(key).and_then(Json::as_int).is_none() {
                return Err(format!("line {}: missing {key}", i + 2));
            }
        }
        for key in ["name", "detail"] {
            if obj.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("line {}: missing {key}", i + 2));
            }
        }
        events.push(obj);
    }
    Ok(EventStream { events, published })
}

/// Project an event stream onto its deterministic content for seq ≡ par
/// comparison: keep `finding` and `cell` events (whose name/detail are
/// pure functions of the campaign's deterministic fold), drop the
/// wall-clock noise (timestamps, durations, sequence numbers) and the
/// periodic snapshots, and sort. Two campaign runs of the same
/// matrix — sequential or parallel, any `PC_THREADS` — must produce
/// identical projections; the observability verify gate diffs them.
pub fn canonical_event_lines(text: &str) -> Result<Vec<String>, String> {
    let mut out: Vec<String> = parse_event_stream(text)?
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.get("kind").and_then(Json::as_str),
                Some("finding") | Some("cell")
            )
        })
        .map(|e| {
            format!(
                "{} {} :: {}",
                e.get("kind").and_then(Json::as_str).unwrap_or(""),
                e.get("name").and_then(Json::as_str).unwrap_or(""),
                e.get("detail").and_then(Json::as_str).unwrap_or(""),
            )
        })
        .collect();
    out.sort();
    Ok(out)
}

fn named_ints(pairs: &[(String, u64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), Json::Int(*v)))
            .collect(),
    )
}

fn hists(snap: &TelemetrySnapshot) -> Json {
    Json::Obj(
        snap.hists
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("count".into(), Json::Int(h.count)),
                        ("sum_ns".into(), Json::Int(h.sum_ns)),
                        ("min_ns".into(), Json::Int(h.min_ns)),
                        ("max_ns".into(), Json::Int(h.max_ns)),
                        ("mean_ns".into(), Json::Int(h.mean_ns)),
                        ("p50_ns".into(), Json::Int(h.p50_ns)),
                        ("p95_ns".into(), Json::Int(h.p95_ns)),
                        ("p99_ns".into(), Json::Int(h.p99_ns)),
                        ("p999_ns".into(), Json::Int(h.p999_ns)),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_rt::obs::{HistSummary, SpanRec};

    fn sample_snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            spans: vec![
                SpanRec {
                    name: "check_stack",
                    cat: "check",
                    tid: 1,
                    depth: 0,
                    start_ns: 500,
                    dur_ns: 9_000,
                    trace_id: 0,
                },
                SpanRec {
                    name: "check.enumerate",
                    cat: "check",
                    tid: 1,
                    depth: 1,
                    start_ns: 1_000,
                    dur_ns: 2_000,
                    trace_id: 0,
                },
            ],
            counters: vec![("cache.pfs.hits".into(), 12)],
            gauges: vec![("pool.workers".into(), 4)],
            hists: vec![(
                "pool.task_ns".into(),
                HistSummary {
                    count: 3,
                    sum_ns: 600,
                    min_ns: 100,
                    max_ns: 300,
                    mean_ns: 200,
                    p50_ns: 255,
                    p95_ns: 300,
                    p99_ns: 300,
                    p999_ns: 300,
                },
            )],
            dropped_spans: 0,
            self_times: Vec::new(),
            ops: 7,
            allocs: vec![
                (
                    "(untracked)".into(),
                    pc_rt::obs::AllocStat {
                        count: 40,
                        bytes: 9_000,
                        peak_bytes: 5_000,
                    },
                ),
                (
                    "check.enumerate".into(),
                    pc_rt::obs::AllocStat {
                        count: 12,
                        bytes: 4_096,
                        peak_bytes: 2_048,
                    },
                ),
            ],
            alloc_total: pc_rt::obs::AllocStat {
                count: 52,
                bytes: 13_096,
                peak_bytes: 7_048,
            },
        }
    }

    #[test]
    fn chrome_trace_shape() {
        let j = chrome_trace(&sample_snapshot());
        let parsed = Json::parse(&j.pretty()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
            assert_eq!(e.get("pid").and_then(Json::as_int), Some(1));
            assert!(e.get("ts").and_then(Json::as_int).is_some());
            assert!(e.get("dur").and_then(Json::as_int).is_some());
        }
        // ts is microseconds and monotonic.
        assert_eq!(events[0].get("ts").and_then(Json::as_int), Some(0));
        assert_eq!(events[1].get("ts").and_then(Json::as_int), Some(1));
        // Sub-microsecond durations round *up*, so no span renders as
        // zero-width.
        assert_eq!(events[0].get("dur").and_then(Json::as_int), Some(9));
        assert_eq!(events[1].get("dur").and_then(Json::as_int), Some(2));
        assert_eq!(
            trace_other(&parsed, "counters")
                .and_then(|c| c.get("cache.pfs.hits"))
                .and_then(Json::as_int),
            Some(12)
        );
        assert_eq!(trace_other(&parsed, "ops").and_then(Json::as_int), Some(7));
        let alloc = trace_other(&parsed, "alloc").unwrap();
        assert_eq!(
            alloc
                .get("spans")
                .and_then(|s| s.get("check.enumerate"))
                .and_then(|s| s.get("peak_bytes"))
                .and_then(Json::as_int),
            Some(2_048)
        );
        // The exact nanoseconds survive the microsecond rounding.
        let spans: Vec<_> = trace_spans(&parsed).unwrap().collect();
        assert_eq!(spans, [("check_stack", 9_000), ("check.enumerate", 2_000)]);
    }

    #[test]
    fn trace_carries_schema_version_and_p999_and_readers_reject_others() {
        let j = chrome_trace(&sample_snapshot());
        assert_eq!(
            j.get("schema_version").and_then(Json::as_int),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(
            trace_other(&j, "histograms")
                .and_then(|h| h.get("pool.task_ns"))
                .and_then(|h| h.get("p999_ns"))
                .and_then(Json::as_int),
            Some(300)
        );
        let v1_plain = Json::parse("{\"schema_version\":1,\"spans\":[]}").unwrap();
        let err = trace_spans(&v1_plain).err().unwrap();
        assert!(err.contains("schema_version 1"), "{err}");
        let no_events = Json::parse("{\"schema_version\":2,\"spans\":[]}").unwrap();
        let err = trace_spans(&no_events).err().unwrap();
        assert!(err.contains("traceEvents"), "{err}");
    }

    const STREAM_HEADER: &str = "{\"schema_version\":2,\"stream\":\"paracrash-events\"}";

    fn event_line(seq: u64, kind: &str, name: &str, detail: &str) -> String {
        format!(
            "{{\"seq\":{seq},\"ts_ns\":{},\"kind\":\"{kind}\",\"name\":\"{name}\",\"value\":7,\"detail\":\"{detail}\",\"trace_id\":3}}",
            seq * 100,
        )
    }

    #[test]
    fn event_stream_parses_and_rejects_bad_versions() {
        let good = format!(
            "{STREAM_HEADER}\n{}\n{}\n{{\"schema_version\":2,\"published\":2}}\n",
            event_line(0, "cell", "wl@OrangeFS/ordered", "findings=0"),
            event_line(5, "finding", "BeeGFS/writeback", "sig [Pfs]"),
        );
        let stream = parse_event_stream(&good).unwrap();
        assert_eq!(stream.events.len(), 2);
        assert_eq!(stream.published, Some(2));
        // A crash dump ends in a panic marker, not a trailer.
        let dump = good.replace("\"published\":2", "\"meta\":\"panic\",\"flushed\":2");
        assert_eq!(parse_event_stream(&dump).unwrap().published, None);

        // A v1 stream is turned away at the header, before its
        // `span_close` lines could read as "unknown kind".
        let v1 = good.replace(
            "\"schema_version\":2,\"stream\"",
            "\"schema_version\":1,\"stream\"",
        );
        let err = parse_event_stream(&v1).unwrap_err();
        assert!(err.contains("schema_version 1"), "{err}");

        let no_version = "{\"stream\":\"paracrash-events\"}\n";
        assert!(parse_event_stream(no_version).is_err());

        let bad_seq = format!(
            "{STREAM_HEADER}\n{}\n{}\n",
            event_line(5, "cell", "a", ""),
            event_line(5, "cell", "b", ""),
        );
        assert!(parse_event_stream(&bad_seq).unwrap_err().contains("seq"));

        let bad_kind = format!("{STREAM_HEADER}\n{}\n", event_line(0, "counter", "a", ""));
        assert!(parse_event_stream(&bad_kind).unwrap_err().contains("kind"));
    }

    #[test]
    fn canonical_projection_is_order_and_noise_invariant() {
        let a = format!(
            "{STREAM_HEADER}\n{}\n{}\n{}\n",
            event_line(0, "snapshot", "campaign", "cells=1/2"),
            event_line(1, "cell", "wl@OrangeFS/ordered", "findings=0"),
            event_line(2, "finding", "BeeGFS/writeback", "sig [Pfs]"),
        );
        // Same deterministic content: different seqs, timestamps,
        // ordering, and snapshot cadence.
        let b = format!(
            "{STREAM_HEADER}\n{}\n{}\n{}\n",
            event_line(10, "finding", "BeeGFS/writeback", "sig [Pfs]"),
            event_line(90, "snapshot", "campaign", "cells=2/2"),
            event_line(800, "cell", "wl@OrangeFS/ordered", "findings=0"),
        );
        assert_eq!(
            canonical_event_lines(&a).unwrap(),
            canonical_event_lines(&b).unwrap()
        );
        assert_eq!(canonical_event_lines(&a).unwrap().len(), 2);
    }
}
