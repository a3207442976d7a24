//! The `--telemetry-out` file: a `pc_rt::obs` snapshot as Chrome
//! trace-event JSON ([`chrome_trace`]), and the one reader of such a file
//! ([`read_trace`]).
//!
//! The format is the JSON Array Format with `traceEvents`, loadable in
//! Perfetto / `chrome://tracing` for a flamegraph-style timeline of a full
//! bug-finding run. Every span becomes a complete (`"ph": "X"`) event
//! with its exact nanoseconds under `args`; counters, gauges and
//! allocation attribution ride along under `otherData`. The file carries
//! a top-level `schema_version` ([`SCHEMA_VERSION`], shared with the
//! event stream), and [`read_trace`] rejects any other version instead of
//! silently re-parsing an incompatible dump.

use pc_rt::json::Json;
use pc_rt::obs::stream::{check_version, SCHEMA_VERSION};
use pc_rt::obs::{AllocStat, TelemetrySnapshot};

const ALLOC_KEYS: [&str; 3] = ["count", "bytes", "peak_bytes"];

fn alloc_stat_json(s: &AllocStat) -> Json {
    let values = [s.count, s.bytes, s.peak_bytes];
    Json::Obj(
        ALLOC_KEYS
            .iter()
            .zip(values)
            .map(|(k, v)| (k.to_string(), Json::Int(v)))
            .collect(),
    )
}

/// The `otherData.alloc` object: whole-process totals plus
/// per-span attribution from the counting allocator (empty when
/// accounting never ran).
fn alloc_json(snap: &TelemetrySnapshot) -> Json {
    let spans = snap
        .allocs
        .iter()
        .map(|(k, s)| (k.clone(), alloc_stat_json(s)));
    Json::Obj(vec![
        ("total".into(), alloc_stat_json(&snap.alloc_total)),
        ("spans".into(), Json::Obj(spans.collect())),
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
                ("dropped_spans".into(), Json::Int(snap.dropped_spans)),
                ("ops".into(), Json::Int(snap.ops)),
                ("alloc".into(), alloc_json(snap)),
            ]),
        ),
    ])
}

fn named_ints(pairs: &[(String, u64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), Json::Int(*v)))
            .collect(),
    )
}

/// A `--telemetry-out` file as [`read_trace`] returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Every span as `(name, exact duration in ns)`, in start order.
    pub spans: Vec<(String, u64)>,
    /// Counter values, in file order.
    pub counters: Vec<(String, u64)>,
    /// Telemetry operations the registry recorded.
    pub ops: u64,
    /// Spans the registry counted past its storage cap: their time is
    /// missing from `spans`.
    pub dropped_spans: u64,
    /// Per-span allocation attribution, in file order.
    pub allocs: Vec<(String, AllocStat)>,
    /// Process-wide allocation totals.
    pub alloc_total: AllocStat,
}

/// The members of object `j`, each read by `read`; `None` when `j` is
/// not an object or `read` turns a member away.
fn read_members<T>(j: &Json, read: impl Fn(&Json) -> Option<T>) -> Option<Vec<(String, T)>> {
    let Json::Obj(fields) = j else {
        return None;
    };
    (fields.iter())
        .map(|(k, v)| Some((k.clone(), read(v)?)))
        .collect()
}

fn alloc_stat(j: &Json) -> Option<AllocStat> {
    let [count, bytes, peak_bytes] = ALLOC_KEYS.map(|k| j.get(k).and_then(Json::as_int));
    Some(AllocStat {
        count: count?,
        bytes: bytes?,
        peak_bytes: peak_bytes?,
    })
}

/// Read a `--telemetry-out` file back, strictly: this tool's
/// [`SCHEMA_VERSION`]; a non-empty `traceEvents` array of named complete
/// (`ph: "X"`) events with integer `pid`, `tid`, `dur`, `args.dur_ns` and
/// a nondecreasing `ts`; and the `otherData` members the writer puts
/// there (members it does not know are ignored). A file without
/// `traceEvents` is not one this tool wrote.
pub fn read_trace(text: &str) -> Result<Trace, String> {
    let doc = Json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    check_version(&doc)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no traceEvents array (not a --telemetry-out file)")?;
    if events.is_empty() {
        return Err("traceEvents is empty: no spans were recorded".into());
    }
    let mut spans = Vec::with_capacity(events.len());
    let mut prev_ts = 0;
    for (i, ev) in events.iter().enumerate() {
        let fail = |e: &str| Err(format!("traceEvents[{i}] {e}"));
        let int = |key: &str| ev.get(key).and_then(Json::as_int);
        let name = ev.get("name").and_then(Json::as_str);
        let Some(name) = name.filter(|n| !n.is_empty()) else {
            return fail("has no name");
        };
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            return fail("is not a complete (ph=X) event");
        }
        let fields = ["pid", "tid", "dur", "ts"].map(|k| (k, int(k)));
        if let Some((key, _)) = fields.iter().find(|(_, v)| v.is_none()) {
            return fail(&format!("has no {key}"));
        }
        let dur_ns = ev.get("args").and_then(|a| a.get("dur_ns"));
        let Some(dur_ns) = dur_ns.and_then(Json::as_int) else {
            return fail("has no args.dur_ns");
        };
        let ts = fields[3].1.expect("`ts` is checked above");
        if ts < prev_ts {
            return fail(&format!("ts {ts} goes backwards (prev {prev_ts})"));
        }
        prev_ts = ts;
        spans.push((name.to_string(), dur_ns));
    }
    let other = doc.get("otherData").ok_or("no otherData")?;
    let member = |key: &str| other.get(key).ok_or(format!("otherData: missing {key}"));
    let bad = |key: &str| format!("otherData.{key} is not what this tool writes");
    let int = |key: &str| member(key)?.as_int().ok_or_else(|| bad(key));
    let ints = |key: &str| read_members(member(key)?, Json::as_int).ok_or_else(|| bad(key));
    ints("gauges")?;
    let alloc = member("alloc")?;
    let total = alloc.get("total").and_then(alloc_stat);
    let allocs = alloc.get("spans").and_then(|s| read_members(s, alloc_stat));
    let (Some(alloc_total), Some(allocs)) = (total, allocs) else {
        return Err(bad("alloc"));
    };
    Ok(Trace {
        spans,
        counters: ints("counters")?,
        ops: int("ops")?,
        dropped_spans: int("dropped_spans")?,
        allocs,
        alloc_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_rt::obs::SpanRec;

    fn sample_snapshot() -> TelemetrySnapshot {
        let span = |name, depth, start_ns, dur_ns| SpanRec {
            name,
            cat: "check",
            tid: 1,
            depth,
            start_ns,
            dur_ns,
            trace_id: 0,
        };
        let stat = |count, bytes, peak_bytes| AllocStat {
            count,
            bytes,
            peak_bytes,
        };
        TelemetrySnapshot {
            spans: vec![
                span("check_stack", 0, 500, 9_000),
                span("check.enumerate", 1, 1_000, 2_000),
            ],
            counters: vec![("cache.pfs.hits".into(), 12)],
            gauges: vec![("pool.workers".into(), 4)],
            dropped_spans: 3,
            self_times: Vec::new(),
            ops: 7,
            allocs: vec![("check.enumerate".into(), stat(12, 4_096, 2_048))],
            alloc_total: stat(52, 13_096, 7_048),
        }
    }

    #[test]
    fn chrome_trace_shape_and_read_back() {
        let snap = sample_snapshot();
        let text = chrome_trace(&snap).pretty();
        let parsed = Json::parse(&text).unwrap();
        let version = parsed.get("schema_version").and_then(Json::as_int);
        assert_eq!(version, Some(SCHEMA_VERSION));
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let fields =
            |i: usize| ["pid", "ts", "dur"].map(|k| events[i].get(k).and_then(Json::as_int));
        // Untraced spans land in pid 1; ts is microseconds; sub-microsecond
        // durations round *up*, so no span renders as zero-width.
        assert_eq!(fields(0), [Some(1), Some(0), Some(9)]);
        assert_eq!(fields(1), [Some(1), Some(1), Some(2)]);
        // What the reader returns is what the snapshot held, the exact
        // nanoseconds included.
        let spans = vec![
            ("check_stack".into(), 9_000),
            ("check.enumerate".into(), 2_000),
        ];
        let (counters, allocs) = (snap.counters, snap.allocs);
        let (ops, dropped_spans, alloc_total) = (7, 3, snap.alloc_total);
        let held = Trace {
            spans,
            counters,
            ops,
            dropped_spans,
            allocs,
            alloc_total,
        };
        assert_eq!(read_trace(&text).unwrap(), held);
    }

    #[test]
    fn the_reader_rejects_what_the_writer_never_writes() {
        let text = chrome_trace(&sample_snapshot()).pretty();
        let edit = |from: &str, to: &str| text.replacen(from, to, 1);
        let backwards = text.replace("\"ts\": 1,", "\"ts\": 0,");
        let backwards = backwards.replacen("\"ts\": 0,", "\"ts\": 5,", 1);
        for (bad, why) in [
            (text[..text.len() / 2].into(), "not JSON"),
            ("{\"schema_version\":1}".into(), "unknown schema_version 1"),
            ("{\"schema_version\":2}".into(), "no traceEvents"),
            (
                edit("\"spans\": {", "\"spans\": 7, \"x\": {"),
                "otherData.alloc",
            ),
            (
                edit("\"ph\": \"X\"", "\"ph\": \"B\""),
                "traceEvents[0] is not a complete",
            ),
            (backwards, "traceEvents[1] ts 0 goes backwards (prev 5)"),
            (edit("\"tid\": 1,", ""), "traceEvents[0] has no tid"),
            (
                edit("\"dur_ns\": 9000,", ""),
                "traceEvents[0] has no args.dur_ns",
            ),
            (
                edit("\"check_stack\"", "\"\""),
                "traceEvents[0] has no name",
            ),
            (edit("\"ops\": 7", "\"ops\": \"7\""), "otherData.ops is not"),
            (edit("\"gauges\"", "\"gauge\""), "otherData: missing gauges"),
            (
                edit("\"peak_bytes\": 2048", "\"peak\": 2048"),
                "otherData.alloc is not",
            ),
        ] {
            let err = read_trace(&bad).unwrap_err();
            assert!(err.starts_with(why), "{err} (wanted {why})");
        }
        let empty = "{\"schema_version\":2,\"traceEvents\":[]}";
        assert!(read_trace(empty)
            .unwrap_err()
            .starts_with("traceEvents is empty"));
        // A member this reader does not know is ignored: a file written
        // when `otherData` still held histograms reads the same.
        let older = edit("\"ops\": 7", "\"histograms\": {},\n    \"ops\": 7");
        assert_eq!(read_trace(&older).unwrap(), read_trace(&text).unwrap());
    }
}
