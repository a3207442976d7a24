//! The two renderings of a `pc_rt::obs` snapshot — the `--telemetry-out`
//! file as Chrome trace-event JSON ([`chrome_trace`]) and the table a
//! `PC_TRACE` run prints at exit ([`render_summary`]) — and the one
//! reader of such a file ([`read_trace`]).
//!
//! The format is the JSON Array Format with `traceEvents`, loadable in
//! Perfetto / `chrome://tracing` for a flamegraph-style timeline of a full
//! bug-finding run. Every span becomes a complete (`"ph": "X"`) event
//! with its exact nanoseconds under `args`; counters, allocation
//! attribution and the exact self time per span stack (the dashboard's
//! flame view) ride along under `otherData`. The file carries
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

/// The `otherData.stacks` object: the self time in ns of each span
/// stack, keyed `outer;…;leaf` and sorted as strings. A stack that took
/// no measurable time is left out.
fn stacks_json(snap: &TelemetrySnapshot) -> Json {
    let mut rows: Vec<(String, Json)> = (snap.self_times.iter())
        .filter(|(_, ns)| *ns > 0)
        .map(|(stack, ns)| (stack.join(";"), Json::Int(*ns)))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    Json::Obj(rows)
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
/// stages, `simnet` RPC deliveries — as one process
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
                ("dropped_spans".into(), Json::Int(snap.dropped_spans)),
                ("ops".into(), Json::Int(snap.ops)),
                ("alloc".into(), alloc_json(snap)),
                ("stacks".into(), stacks_json(snap)),
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

/// The `otherData.stacks` rows, held to what [`stacks_json`] writes: no
/// empty frame, every weight positive, each stack above the one before.
fn read_stacks(rows: Vec<(String, u64)>) -> Result<Vec<(Vec<String>, u64)>, String> {
    for (i, (stack, ns)) in rows.iter().enumerate() {
        let fail = |e: &str| Err(format!("otherData.stacks: stack {stack:?} {e}"));
        if stack.split(';').any(str::is_empty) {
            return fail("has an empty frame");
        }
        if *ns == 0 {
            return fail("has weight 0");
        }
        if i > 0 && rows[i - 1].0 >= *stack {
            return fail("is not above the one before (unsorted or repeated)");
        }
    }
    let frames = |stack: String| stack.split(';').map(String::from).collect();
    Ok(rows.into_iter().map(|(k, ns)| (frames(k), ns)).collect())
}

/// Read a `--telemetry-out` file back, strictly: this tool's
/// [`SCHEMA_VERSION`]; a non-empty `traceEvents` array of named complete
/// (`ph: "X"`) events with integer `pid`, `tid`, `dur`, `args.dur_ns` and
/// a nondecreasing `ts`; and the `otherData` members the writer puts
/// there, `stacks` as strictly as it writes them (members it does not
/// know are ignored). A file without
/// `traceEvents` is not one this tool wrote.
///
/// Returns what `paracrash report` draws: the self time in ns per span
/// stack (frames outermost first), sorted by the `;`-joined stack.
pub fn read_trace(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
    let doc = Json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    check_version(&doc)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no traceEvents array (not a --telemetry-out file)")?;
    if events.is_empty() {
        return Err("traceEvents is empty: no spans were recorded".into());
    }
    let mut prev_ts = 0;
    for (i, ev) in events.iter().enumerate() {
        let fail = |e: &str| Err(format!("traceEvents[{i}] {e}"));
        let int = |key: &str| ev.get(key).and_then(Json::as_int);
        let name = ev.get("name").and_then(Json::as_str);
        if name.is_none_or(str::is_empty) {
            return fail("has no name");
        }
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            return fail("is not a complete (ph=X) event");
        }
        let fields = ["pid", "tid", "dur", "ts"].map(|k| (k, int(k)));
        if let Some((key, _)) = fields.iter().find(|(_, v)| v.is_none()) {
            return fail(&format!("has no {key}"));
        }
        let dur_ns = ev.get("args").and_then(|a| a.get("dur_ns"));
        if dur_ns.and_then(Json::as_int).is_none() {
            return fail("has no args.dur_ns");
        }
        let ts = fields[3].1.expect("`ts` is checked above");
        if ts < prev_ts {
            return fail(&format!("ts {ts} goes backwards (prev {prev_ts})"));
        }
        prev_ts = ts;
    }
    let other = doc.get("otherData").ok_or("no otherData")?;
    let member = |key: &str| other.get(key).ok_or(format!("otherData: missing {key}"));
    let bad = |key: &str| format!("otherData.{key} is not what this tool writes");
    let int = |key: &str| member(key)?.as_int().ok_or_else(|| bad(key));
    let ints = |key: &str| read_members(member(key)?, Json::as_int).ok_or_else(|| bad(key));
    let alloc = member("alloc")?;
    let total = alloc.get("total").and_then(alloc_stat);
    let allocs = alloc.get("spans").and_then(|s| read_members(s, alloc_stat));
    if total.is_none() || allocs.is_none() {
        return Err(bad("alloc"));
    }
    ints("counters")?;
    int("ops")?;
    int("dropped_spans")?;
    read_stacks(ints("stacks")?)
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

/// Human-readable byte count (`1.50 MB`, `320 B`).
fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1} kB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

/// What [`span_totals`] knows about one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SpanTotal {
    /// The span name.
    name: &'static str,
    /// How many spans carried it.
    calls: u64,
    /// Their summed duration.
    total_ns: u64,
    /// The longest of them.
    max_ns: u64,
}

/// Fold `(name, duration)` pairs by name, largest total first
/// (first-seen order among equals): the rows of the summary table.
fn span_totals(spans: impl IntoIterator<Item = (&'static str, u64)>) -> Vec<SpanTotal> {
    let mut agg: Vec<SpanTotal> = Vec::new();
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

/// Render the human-readable table of a run's snapshot: per-span-name
/// call counts and timings, the counters, allocation by span, plus
/// derived lines — a hit rate for every `X.hits` / `X.misses` counter
/// pair, and oracle work executed against work a shared answer saved.
pub fn render_summary(snap: &TelemetrySnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "── telemetry summary ──");

    let agg = span_totals(snap.spans.iter().map(|s| (s.name, s.dur_ns)));
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
    if snap.dropped_spans > 0 {
        let _ = writeln!(
            out,
            "  span table incomplete: {} spans past the registry's cap were not stored",
            snap.dropped_spans,
        );
    }

    if !snap.counters.is_empty() {
        let _ = writeln!(out, "  {:<34} {:>8}", "counter", "value");
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "  {:<34} {:>8}", name, v);
        }
    }
    if snap.alloc_total.count > 0 {
        let row = |out: &mut String, name: &str, a: &AllocStat| {
            let _ = writeln!(
                out,
                "  {:<34} {:>10} {:>12} {:>12}",
                name,
                a.count,
                fmt_bytes(a.bytes as f64),
                fmt_bytes(a.peak_bytes as f64),
            );
        };
        let _ = writeln!(
            out,
            "  {:<34} {:>10} {:>12} {:>12}",
            "alloc by span", "count", "bytes", "peak"
        );
        for (name, a) in &snap.allocs {
            row(&mut out, name, a);
        }
        row(&mut out, "alloc total", &snap.alloc_total);
    }

    // Derived: hit rates for every `X.hits` / `X.misses` counter pair.
    let get = |name: &str| {
        let found = snap.counters.iter().find(|(k, _)| k == name);
        found.map_or(0, |&(_, v)| v)
    };
    for (name, _) in &snap.counters {
        let Some(p) = name.strip_suffix(".hits") else {
            continue;
        };
        let (hits, misses) = (get(name), get(&format!("{p}.misses")));
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
        get("replay.dispatched"),
        get("replay.forks"),
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
        let executed = get(executed);
        let shared: u64 = shared.iter().map(|name| get(name)).sum();
        if executed + shared > 0 {
            let _ = writeln!(
                out,
                "  {:<34} {executed:>8}  executed ({shared} more answered by a shared result){cost}",
                label,
            );
        }
    }

    out
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
            dropped_spans: 3,
            // Sorted by path, not as the file's keys are; one stack took
            // no measurable time.
            self_times: vec![
                (vec!["check_stack"], 7_000),
                (vec!["check_stack", "check.enumerate"], 2_000),
                (vec!["check_stack", "check.idle"], 0),
                (vec!["check_stack.tail"], 500),
            ],
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
        // The file holds what the snapshot held, the exact nanoseconds
        // included.
        let exact: Vec<_> = (events.iter())
            .map(|e| {
                let name = e.get("name").and_then(Json::as_str);
                (name, e.get("args").and_then(|a| a.get("dur_ns")?.as_int()))
            })
            .collect();
        let spans = [
            (Some("check_stack"), Some(9_000)),
            (Some("check.enumerate"), Some(2_000)),
        ];
        assert_eq!(exact, spans);
        let other = parsed.get("otherData").unwrap();
        let int = |key| other.get(key).and_then(Json::as_int);
        assert_eq!([int("ops"), int("dropped_spans")], [Some(7), Some(3)]);
        let counters = read_members(other.get("counters").unwrap(), Json::as_int);
        assert_eq!(counters, Some(snap.counters));
        let alloc = other.get("alloc").unwrap();
        assert_eq!(
            alloc.get("total").and_then(alloc_stat),
            Some(snap.alloc_total)
        );
        let allocs = read_members(alloc.get("spans").unwrap(), alloc_stat);
        assert_eq!(allocs, Some(snap.allocs));
        // The reader returns the stacks, re-sorted as strings, the
        // weightless one dropped.
        let stack = |frames: &[&str], ns| (frames.iter().map(|f| f.to_string()).collect(), ns);
        let stacks = vec![
            stack(&["check_stack"], 7_000),
            stack(&["check_stack.tail"], 500),
            stack(&["check_stack", "check.enumerate"], 2_000),
        ];
        assert_eq!(read_trace(&text).unwrap(), stacks);
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

    /// The table is the snapshot's: its spans, counters and allocation
    /// rows, a cap it hit, and the lines derived from its counters.
    #[test]
    fn the_summary_renders_the_snapshot_and_derives_rates_and_shared_work() {
        let mut snap = sample_snapshot();
        snap.counters.extend(
            [
                ("cache.pfs.misses", 4),
                ("recover.executed", 5),
                ("recover.shared_digest", 4),
                ("recover.shared_set", 2),
                ("replay.dispatched", 17),
                ("replay.executed", 3),
            ]
            .map(|(name, v)| (name.to_string(), v)),
        );
        let text = render_summary(&snap);
        let line = |label: &str| {
            let found = text.lines().find(|l| l.trim_start().starts_with(label));
            found.unwrap_or_else(|| panic!("no {label} line in:\n{text}"))
        };
        assert!(text.starts_with("── telemetry summary ──\n"), "{text}");
        assert!(line("check_stack ").contains(" 1 "), "{text}");
        assert!(line("check.enumerate ").contains("2.00 µs"), "{text}");
        assert!(line("span table incomplete: 3 spans").ends_with("not stored"));
        assert!(line("replay.dispatched ").ends_with(" 17"), "{text}");
        let alloc_row = text
            .lines()
            .rfind(|l| l.trim_start().starts_with("check.enumerate "));
        assert!(alloc_row.is_some_and(|l| l.contains("4.1 kB")), "{text}");
        assert!(line("alloc total ").contains("13.1 kB"), "{text}");
        let rate = line("cache.pfs hit rate");
        assert!(rate.ends_with("75.0%  (12 hits / 4 misses)"), "{rate}");
        let recoveries = line("recoveries ");
        assert!(recoveries.contains(" 5  executed"), "{recoveries}");
        assert!(recoveries.ends_with("(6 more answered by a shared result)"));
        let replays = line("golden replays ");
        assert!(
            replays.ends_with("result) (17 calls dispatched, 0 forks)"),
            "{replays}"
        );
        // No classifier probe ran, a full registry: no such lines.
        assert!(!text.contains("classifier probes"), "{text}");
        snap.dropped_spans = 0;
        assert!(!render_summary(&snap).contains("incomplete"));
    }

    #[test]
    fn units_scale() {
        assert_eq!(fmt_ns(412.0), "412 ns");
        assert_eq!(fmt_ns(3_100.0), "3.10 µs");
        assert_eq!(fmt_ns(2_400_000.0), "2.40 ms");
        assert_eq!(fmt_ns(2_000_000_000.0), "2.000 s");
        assert_eq!(fmt_bytes(320.0), "320 B");
        assert_eq!(fmt_bytes(1_500.0), "1.5 kB");
        assert_eq!(fmt_bytes(2_500_000.0), "2.50 MB");
        assert_eq!(fmt_bytes(3_000_000_000.0), "3.00 GB");
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
            ("{\"schema_version\":3}".into(), "no traceEvents"),
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
            (
                edit("\"peak_bytes\": 2048", "\"peak\": 2048"),
                "otherData.alloc is not",
            ),
            (edit("\"stacks\"", "\"stack\""), "otherData: missing stacks"),
            (
                edit("tail\": 500", "tail\": \"500\""),
                "otherData.stacks is not",
            ),
            (
                edit("\"check_stack;check.enumerate\"", "\"check_stack;\""),
                "otherData.stacks: stack \"check_stack;\" has an empty frame",
            ),
            (
                edit("tail\": 500", "tail\": 0"),
                "otherData.stacks: stack \"check_stack.tail\" has weight 0",
            ),
            (
                edit("\"check_stack;check.enumerate\"", "\"check\""),
                "otherData.stacks: stack \"check\" is not above",
            ),
            (
                edit("\"check_stack.tail\"", "\"check_stack\""),
                "otherData.stacks: stack \"check_stack\" is not above",
            ),
        ] {
            let err = read_trace(&bad).unwrap_err();
            assert!(err.starts_with(why), "{err} (wanted {why})");
        }
        let empty = "{\"schema_version\":3,\"traceEvents\":[]}";
        assert!(read_trace(empty)
            .unwrap_err()
            .starts_with("traceEvents is empty"));
        // A member this reader does not know is ignored: a file written
        // when `otherData` still held histograms reads the same.
        let older = edit("\"ops\": 7", "\"histograms\": {},\n    \"ops\": 7");
        assert_eq!(read_trace(&older).unwrap(), read_trace(&text).unwrap());
    }
}
