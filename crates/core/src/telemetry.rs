//! Telemetry serialization: `pc_rt::obs` snapshots as machine-readable
//! JSON, in two dialects.
//!
//! * [`telemetry_json`] — a plain structured dump (`spans`, `counters`,
//!   `gauges`, `histograms`) through the `pc_rt::json` writer;
//! * [`chrome_trace`] — the Chrome trace-event format (the JSON Array
//!   Format with `traceEvents`), loadable in Perfetto / `chrome://tracing`
//!   for a flamegraph-style timeline of a full bug-finding run. Every
//!   span becomes a complete (`"ph": "X"`) event; counters, gauges and
//!   histogram summaries ride along under `otherData`.
//!
//! Both serialize with the vendored writer and round-trip through
//! [`Json::parse`] — the `selftest telemetry` gate in `scripts/verify.sh`
//! relies on that. Both carry a top-level `schema_version`
//! ([`pc_rt::obs::stream::SCHEMA_VERSION`], shared with the events
//! stream); `selftest telemetry` rejects any other version instead of
//! silently re-parsing an incompatible dump.
//!
//! [`canonical_event_lines`] is the third consumer-side piece: it
//! projects a `--events-out` JSON-lines stream onto its deterministic
//! fields (kind/name/detail of `finding` and `cell` events, sorted) so
//! sequential and parallel campaign runs can be diffed byte-for-byte.

use pc_rt::json::Json;
use pc_rt::obs::stream::SCHEMA_VERSION;
use pc_rt::obs::TelemetrySnapshot;

/// Serialize a snapshot as plain structured JSON.
pub fn telemetry_json(snap: &TelemetrySnapshot) -> Json {
    let spans = snap
        .spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("cat".into(), Json::Str(s.cat.into())),
                ("tid".into(), Json::Int(s.tid.into())),
                ("depth".into(), Json::Int(s.depth.into())),
                ("start_ns".into(), Json::Int(s.start_ns)),
                ("dur_ns".into(), Json::Int(s.dur_ns)),
                ("trace_id".into(), Json::Int(s.trace_id)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema_version".into(), Json::Int(SCHEMA_VERSION)),
        ("spans".into(), Json::Arr(spans)),
        ("counters".into(), named_ints(&snap.counters)),
        ("gauges".into(), named_ints(&snap.gauges)),
        ("histograms".into(), hists(snap)),
        ("dropped_spans".into(), Json::Int(snap.dropped_spans)),
        ("ops".into(), Json::Int(snap.ops)),
        ("alloc".into(), alloc_json(snap)),
    ])
}

/// The `alloc` object both dialects carry: whole-process totals plus
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
                ("alloc".into(), alloc_json(snap)),
            ]),
        ),
    ])
}

/// A validated `--events-out` stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EventStream {
    /// The event objects, in stream order.
    pub events: Vec<Json>,
    /// `(published, dropped)` from the trailer [`pc_rt::obs::stream::close`]
    /// writes: how many events the run published and how many of them
    /// the ring overwrote before a flush. `None` for a stream that was
    /// never closed (a crash dump).
    pub trailer: Option<(u64, u64)>,
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
    match header.get("schema_version").and_then(Json::as_int) {
        Some(v) if v == SCHEMA_VERSION => {}
        Some(v) => {
            return Err(format!(
                "unknown schema_version {v} (expected {SCHEMA_VERSION})"
            ))
        }
        None => return Err("header missing schema_version".into()),
    }
    let mut events = Vec::new();
    let mut trailer = None;
    let mut last_seq: Option<u64> = None;
    for (i, line) in lines.enumerate() {
        let obj = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 2))?;
        if obj.get("schema_version").is_some() && obj.get("kind").is_none() {
            // Meta line: the trailer, or the panic marker (no totals).
            let total = |key| obj.get(key).and_then(Json::as_int);
            trailer = total("published").zip(total("dropped")).or(trailer);
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
    Ok(EventStream { events, trailer })
}

/// Project an event stream onto its deterministic content for seq ≡ par
/// comparison: keep `finding` and `cell` events (whose name/detail are
/// pure functions of the campaign's deterministic fold), drop the
/// wall-clock and scheduling noise (timestamps, durations, span and
/// counter interleavings), and sort. Two campaign runs of the same
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
    fn plain_json_round_trips() {
        let j = telemetry_json(&sample_snapshot());
        let parsed = Json::parse(&j.pretty()).unwrap();
        assert_eq!(parsed, j);
        assert_eq!(parsed.get("spans").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("cache.pfs.hits"))
                .and_then(Json::as_int),
            Some(12)
        );
        assert_eq!(parsed.get("ops").and_then(Json::as_int), Some(7));
        assert_eq!(
            parsed
                .get("histograms")
                .and_then(|h| h.get("pool.task_ns"))
                .and_then(|h| h.get("p99_ns"))
                .and_then(Json::as_int),
            Some(300)
        );
        let alloc = parsed.get("alloc").unwrap();
        assert_eq!(
            alloc
                .get("total")
                .and_then(|t| t.get("bytes"))
                .and_then(Json::as_int),
            Some(13_096)
        );
        assert_eq!(
            alloc
                .get("spans")
                .and_then(|s| s.get("check.enumerate"))
                .and_then(|s| s.get("peak_bytes"))
                .and_then(Json::as_int),
            Some(2_048)
        );
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
        assert!(parsed.get("otherData").unwrap().get("counters").is_some());
    }

    #[test]
    fn both_dialects_carry_schema_version_and_p999() {
        for j in [
            telemetry_json(&sample_snapshot()),
            chrome_trace(&sample_snapshot()),
        ] {
            assert_eq!(
                j.get("schema_version").and_then(Json::as_int),
                Some(SCHEMA_VERSION)
            );
        }
        let j = telemetry_json(&sample_snapshot());
        assert_eq!(
            j.get("histograms")
                .and_then(|h| h.get("pool.task_ns"))
                .and_then(|h| h.get("p999_ns"))
                .and_then(Json::as_int),
            Some(300)
        );
    }

    const STREAM_HEADER: &str =
        "{\"schema_version\":1,\"stream\":\"paracrash-events\",\"cap\":8192}";

    fn event_line(seq: u64, kind: &str, name: &str, detail: &str) -> String {
        format!(
            "{{\"seq\":{seq},\"ts_ns\":{},\"kind\":\"{kind}\",\"name\":\"{name}\",\"value\":7,\"detail\":\"{detail}\",\"trace_id\":3}}",
            seq * 100,
        )
    }

    #[test]
    fn event_stream_parses_and_rejects_bad_versions() {
        let good = format!(
            "{STREAM_HEADER}\n{}\n{}\n{{\"schema_version\":1,\"published\":2,\"dropped\":0}}\n",
            event_line(0, "cell", "wl@OrangeFS/ordered", "findings=0"),
            event_line(5, "finding", "BeeGFS/writeback", "sig [Pfs]"),
        );
        let stream = parse_event_stream(&good).unwrap();
        assert_eq!(stream.events.len(), 2);
        assert_eq!(stream.trailer, Some((2, 0)));
        // A crash dump ends in a panic marker, not a trailer.
        let dump = good.replace(
            "\"published\":2,\"dropped\":0",
            "\"meta\":\"panic\",\"flushed\":2",
        );
        assert_eq!(parse_event_stream(&dump).unwrap().trailer, None);

        let bad_version = good.replace(
            "\"schema_version\":1,\"stream\"",
            "\"schema_version\":9,\"stream\"",
        );
        let err = parse_event_stream(&bad_version).unwrap_err();
        assert!(err.contains("schema_version 9"), "{err}");

        let no_version = "{\"stream\":\"paracrash-events\"}\n";
        assert!(parse_event_stream(no_version).is_err());

        let bad_seq = format!(
            "{STREAM_HEADER}\n{}\n{}\n",
            event_line(5, "cell", "a", ""),
            event_line(5, "cell", "b", ""),
        );
        assert!(parse_event_stream(&bad_seq).unwrap_err().contains("seq"));

        let bad_kind = format!("{STREAM_HEADER}\n{}\n", event_line(0, "mystery", "a", ""));
        assert!(parse_event_stream(&bad_kind).unwrap_err().contains("kind"));
    }

    #[test]
    fn canonical_projection_is_order_and_noise_invariant() {
        let a = format!(
            "{STREAM_HEADER}\n{}\n{}\n{}\n",
            event_line(0, "span_close", "check.verdicts", "check"),
            event_line(1, "cell", "wl@OrangeFS/ordered", "findings=0"),
            event_line(2, "finding", "BeeGFS/writeback", "sig [Pfs]"),
        );
        // Same deterministic content: different seqs, timestamps,
        // ordering, and span/counter noise.
        let b = format!(
            "{STREAM_HEADER}\n{}\n{}\n{}\n",
            event_line(10, "finding", "BeeGFS/writeback", "sig [Pfs]"),
            event_line(90, "counter", "rpc.messages", ""),
            event_line(800, "cell", "wl@OrangeFS/ordered", "findings=0"),
        );
        assert_eq!(
            canonical_event_lines(&a).unwrap(),
            canonical_event_lines(&b).unwrap()
        );
        assert_eq!(canonical_event_lines(&a).unwrap().len(), 2);
    }
}
