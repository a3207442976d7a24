//! `history` — the durable run-to-run performance history.
//!
//! The `benchmark/` ledger compares two commits; it keeps no log of a
//! user's own runs on their own machine. This module gives every
//! profiled run a durable perf record: `--history-dir DIR` appends one
//! [`RunRecord`] per run to a crash-safe [`RecordLog`]
//! (`DIR/history.log` — CRC-checked, fsynced, torn-tail-recovering, the
//! same primitive the resumable campaign engine commits cells to), and
//! the `paracrash history` subcommand reads the trend back:
//!
//! * `history show` — one table row per recorded run;
//! * `history diff` — last two runs, per-metric ratios, exit 1 when a
//!   normalized metric regressed past `--band` (default 1.5×);
//! * `history regressions` — every consecutive pair, the ratchet a CI
//!   job can run after `selftest scale`.
//!
//! Records serialize as JSON payloads inside the record log, so the
//! format is self-describing and old logs keep parsing as fields grow
//! (unknown fields are ignored, missing ones default to zero).

use std::io;
use std::path::Path;

use pc_rt::durable::RecordLog;
use pc_rt::json::Json;
use pc_rt::obs::prof::fmt_bytes;
use pc_rt::obs::{fmt_ns, TelemetrySnapshot};

/// File name of the record log inside `--history-dir`.
pub const HISTORY_LOG: &str = "history.log";

/// Default regression band for `history diff` / `history regressions`:
/// a normalized metric may grow up to this ratio before it flags.
pub const DEFAULT_BAND: f64 = 1.5;

/// How many per-stage rows a record keeps (largest total first).
const STAGE_CAP: usize = 12;

/// One recorded run: normalized throughput plus the attribution columns
/// the profiler measured.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunRecord {
    /// Run flavor (`fuzz`, `campaign`, `cell`).
    pub kind: String,
    /// Human label (workload/fs summary, corpus tag).
    pub label: String,
    /// Units of work completed (crash states or cells checked) — the
    /// denominator every cross-run comparison normalizes by.
    pub work: u64,
    /// Wall-clock nanoseconds for the run.
    pub wall_ns: u64,
    /// Per-stage span totals (name, summed ns), largest first, top 12.
    pub stages: Vec<(String, u64)>,
    /// Total bytes allocated while accounting was on.
    pub alloc_bytes: u64,
    /// Peak net live bytes while accounting was on.
    pub alloc_peak: u64,
    /// Peak resident set (`VmHWM` from `/proc/self/status`), kB;
    /// 0 where the kernel interface is unavailable.
    pub peak_rss_kb: u64,
}

impl RunRecord {
    /// Build a record from a finished run's telemetry snapshot.
    pub fn from_run(
        kind: &str,
        label: &str,
        work: u64,
        wall_ns: u64,
        snap: &TelemetrySnapshot,
    ) -> RunRecord {
        let mut totals: Vec<(String, u64)> = Vec::new();
        for s in &snap.spans {
            match totals.iter_mut().find(|(n, _)| n == s.name) {
                Some((_, t)) => *t += s.dur_ns,
                None => totals.push((s.name.to_string(), s.dur_ns)),
            }
        }
        totals.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        totals.truncate(STAGE_CAP);
        RunRecord {
            kind: kind.to_string(),
            label: label.to_string(),
            work,
            wall_ns,
            stages: totals,
            alloc_bytes: snap.alloc_total.bytes,
            alloc_peak: snap.alloc_total.peak_bytes,
            peak_rss_kb: peak_rss_kb(),
        }
    }

    /// Serialize as the JSON payload stored in the record log.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::Str(self.kind.clone())),
            ("label".into(), Json::Str(self.label.clone())),
            ("work".into(), Json::Int(self.work)),
            ("wall_ns".into(), Json::Int(self.wall_ns)),
            (
                "stages".into(),
                Json::Arr(
                    self.stages
                        .iter()
                        .map(|(n, t)| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(n.clone())),
                                ("total_ns".into(), Json::Int(*t)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("alloc_bytes".into(), Json::Int(self.alloc_bytes)),
            ("alloc_peak".into(), Json::Int(self.alloc_peak)),
            ("peak_rss_kb".into(), Json::Int(self.peak_rss_kb)),
        ])
    }

    /// Parse a record-log payload. Missing numeric fields default to 0
    /// so records written by older builds keep loading.
    pub fn parse(payload: &str) -> Result<RunRecord, String> {
        let j = Json::parse(payload)?;
        let int = |k: &str| j.get(k).and_then(Json::as_int).unwrap_or(0);
        let text = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let mut stages = Vec::new();
        if let Some(rows) = j.get("stages").and_then(Json::as_arr) {
            for row in rows {
                let name = row
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("stage row without name")?;
                let total = row.get("total_ns").and_then(Json::as_int).unwrap_or(0);
                stages.push((name.to_string(), total));
            }
        }
        Ok(RunRecord {
            kind: text("kind"),
            label: text("label"),
            work: int("work"),
            wall_ns: int("wall_ns"),
            stages,
            alloc_bytes: int("alloc_bytes"),
            alloc_peak: int("alloc_peak"),
            peak_rss_kb: int("peak_rss_kb"),
        })
    }

    /// Wall nanoseconds per unit of work (the run's headline metric).
    pub fn ns_per_work(&self) -> f64 {
        self.wall_ns as f64 / self.work.max(1) as f64
    }

    /// Allocated bytes per unit of work.
    pub fn alloc_per_work(&self) -> f64 {
        self.alloc_bytes as f64 / self.work.max(1) as f64
    }
}

/// Peak resident set size in kB (`VmHWM` from `/proc/self/status`);
/// 0 when the interface is unavailable (non-Linux, sandboxed).
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// Append one record to `dir/history.log` (creating the directory).
pub fn append(dir: &Path, rec: &RunRecord) -> io::Result<()> {
    let (mut log, _) = RecordLog::open(&dir.join(HISTORY_LOG))?;
    log.append(rec.to_json().pretty().as_bytes())
}

/// Load every intact record from `dir/history.log` in append order
/// (torn tails are truncated by the log itself; a payload that is not
/// valid JSON is an `InvalidData` error, not silent loss).
pub fn load(dir: &Path) -> io::Result<Vec<RunRecord>> {
    let path = dir.join(HISTORY_LOG);
    if !path.exists() {
        return Ok(Vec::new());
    }
    let (_, payloads) = RecordLog::open(&path)?;
    let mut out = Vec::with_capacity(payloads.len());
    for (i, p) in payloads.iter().enumerate() {
        let text = String::from_utf8_lossy(p);
        let rec = RunRecord::parse(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("history record {}: {e}", i + 1),
            )
        })?;
        out.push(rec);
    }
    Ok(out)
}

/// Render the `history show` table: one row per recorded run.
pub fn render_show(records: &[RunRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<4} {:<10} {:<24} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "#", "kind", "label", "work", "wall", "ns/work", "alloc", "rss"
    );
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:<4} {:<10} {:<24} {:>10} {:>12} {:>12} {:>12} {:>10}",
            i + 1,
            r.kind,
            if r.label.len() > 24 {
                &r.label[..24]
            } else {
                &r.label
            },
            r.work,
            fmt_ns(r.wall_ns as f64),
            fmt_ns(r.ns_per_work()),
            fmt_bytes(r.alloc_bytes as f64),
            if r.peak_rss_kb > 0 {
                fmt_bytes(r.peak_rss_kb as f64 * 1024.0)
            } else {
                "n/a".to_string()
            },
        );
    }
    if records.is_empty() {
        out.push_str("(no recorded runs)\n");
    }
    out
}

fn ratio(old: f64, new: f64) -> f64 {
    if old <= 0.0 {
        if new <= 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        new / old
    }
}

/// Compare two runs metric by metric. Returns the rendered report and
/// whether any normalized metric regressed by at least `band` (for
/// runs that share a `kind`; comparing a fuzz run against a campaign
/// run renders but never flags).
pub fn diff(old: &RunRecord, new: &RunRecord, band: f64) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let comparable = old.kind == new.kind;
    let _ = writeln!(
        out,
        "history diff: {} [{}] → {} [{}]  (band {band:.2}×{})",
        old.kind,
        old.label,
        new.kind,
        new.label,
        if comparable {
            ""
        } else {
            "; kinds differ — informational only"
        },
    );
    let mut flagged = false;
    let mut metric = |name: &str, o: f64, n: f64, rendered_o: String, rendered_n: String| {
        let r = ratio(o, n);
        let mark = if comparable && r >= band && n > 0.0 {
            flagged = true;
            "  ← REGRESSION"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {:<18} {:>12} → {:>12}  ({:>6}×){mark}",
            name,
            rendered_o,
            rendered_n,
            if r.is_finite() {
                format!("{r:.2}")
            } else {
                "inf".into()
            },
        );
    };
    metric(
        "wall ns/work",
        old.ns_per_work(),
        new.ns_per_work(),
        fmt_ns(old.ns_per_work()),
        fmt_ns(new.ns_per_work()),
    );
    metric(
        "alloc bytes/work",
        old.alloc_per_work(),
        new.alloc_per_work(),
        fmt_bytes(old.alloc_per_work()),
        fmt_bytes(new.alloc_per_work()),
    );
    metric(
        "peak rss",
        old.peak_rss_kb as f64,
        new.peak_rss_kb as f64,
        fmt_bytes(old.peak_rss_kb as f64 * 1024.0),
        fmt_bytes(new.peak_rss_kb as f64 * 1024.0),
    );
    // Per-stage wall deltas for stages both runs saw (informational —
    // stage mixes shift run to run; the normalized totals gate).
    for (name, o_ns) in &old.stages {
        if let Some((_, n_ns)) = new.stages.iter().find(|(n, _)| n == name) {
            let r = ratio(*o_ns as f64, *n_ns as f64);
            if r >= band || r <= 1.0 / band {
                let _ = writeln!(
                    out,
                    "  stage {:<26} {:>12} → {:>12}  ({r:.2}×)",
                    name,
                    fmt_ns(*o_ns as f64),
                    fmt_ns(*n_ns as f64),
                );
            }
        }
    }
    (out, flagged)
}

/// Walk every consecutive pair of records; returns the report and
/// whether any pair regressed past `band`.
pub fn regressions(records: &[RunRecord], band: f64) -> (String, bool) {
    let mut out = String::new();
    let mut any = false;
    for pair in records.windows(2) {
        let (text, flagged) = diff(&pair[0], &pair[1], band);
        if flagged {
            any = true;
            out.push_str(&text);
        }
    }
    if !any {
        out.push_str(&format!(
            "history regressions: {} run(s), no pairwise regression past {band:.2}×\n",
            records.len()
        ));
    }
    (out, any)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_rt::durable::{arm_crash, disarm_crash, reset_points, CrashMode, CrashSpec};
    use std::sync::Mutex;

    /// Crash-injection state is process-global; serialize the tests
    /// that arm it.
    static CRASH_LOCK: Mutex<()> = Mutex::new(());

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pc-history-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn rec(work: u64, wall_ns: u64, alloc: u64) -> RunRecord {
        RunRecord {
            kind: "fuzz".into(),
            label: "seq2/BeeGFS".into(),
            work,
            wall_ns,
            stages: vec![
                ("snapshot.materialize".into(), wall_ns / 2),
                ("recover/BeeGFS".into(), wall_ns / 4),
            ],
            alloc_bytes: alloc,
            alloc_peak: alloc / 2,
            peak_rss_kb: 10_000,
        }
    }

    #[test]
    fn record_json_round_trips() {
        let r = rec(500, 2_000_000_000, 64 << 20);
        let back = RunRecord::parse(&r.to_json().pretty()).unwrap();
        assert_eq!(back, r);
        // Older / foreign payloads degrade to zeros, not errors.
        let sparse = RunRecord::parse(r#"{"kind": "fuzz"}"#).unwrap();
        assert_eq!(sparse.kind, "fuzz");
        assert_eq!(sparse.work, 0);
        assert!(RunRecord::parse("not json").is_err());
    }

    #[test]
    fn diff_flags_a_2x_slowdown_inside_the_band() {
        let old = rec(500, 1_000_000_000, 64 << 20);
        let new = rec(500, 2_000_000_000, 64 << 20); // 2× wall, same work
        let (text, flagged) = diff(&old, &new, 1.5);
        assert!(flagged, "2× ns/work must flag at band 1.5:\n{text}");
        assert!(text.contains("REGRESSION"), "{text}");
        let (text, flagged) = diff(&old, &new, 4.0);
        assert!(!flagged, "2× must pass a 4× band:\n{text}");
        // Different kinds render but never flag.
        let mut campaign = new.clone();
        campaign.kind = "campaign".into();
        let (_, flagged) = diff(&old, &campaign, 1.5);
        assert!(!flagged);
    }

    #[test]
    fn regressions_walk_consecutive_pairs() {
        let runs = vec![
            rec(500, 1_000_000_000, 64 << 20),
            rec(500, 1_050_000_000, 64 << 20),
            rec(500, 3_000_000_000, 64 << 20),
        ];
        let (text, any) = regressions(&runs, 1.5);
        assert!(any, "{text}");
        let (text, any) = regressions(&runs[..2], 1.5);
        assert!(!any, "{text}");
    }

    #[test]
    fn append_load_round_trips_and_show_renders() {
        let dir = scratch("append");
        let a = rec(500, 1_000_000_000, 64 << 20);
        let b = rec(600, 1_100_000_000, 70 << 20);
        append(&dir, &a).unwrap();
        append(&dir, &b).unwrap();
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded, vec![a, b]);
        let table = render_show(&loaded);
        assert!(table.contains("seq2/BeeGFS"), "{table}");
        assert!(table.contains("fuzz"), "{table}");
        assert_eq!(load(&scratch("missing")).unwrap(), Vec::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn history_log_survives_a_torn_tail_crash() {
        let _g = CRASH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = scratch("torn");
        append(&dir, &rec(500, 1_000_000_000, 64 << 20)).unwrap();
        append(&dir, &rec(500, 1_010_000_000, 64 << 20)).unwrap();
        // Arm a crash that tears 9 bytes into the third append's framed
        // record (open is not a durability point on an existing log).
        reset_points();
        arm_crash(CrashSpec {
            at: 1,
            tear: Some(9),
            mode: CrashMode::Panic,
        });
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            append(&dir, &rec(500, 5_000_000_000, 64 << 20)).unwrap();
        }));
        disarm_crash();
        reset_points();
        assert!(crashed.is_err(), "armed crash must unwind");
        // The torn tail truncates away; the two committed records load,
        // and the log accepts appends again.
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.len(), 2, "torn third record must be cut");
        assert_eq!(loaded[1].wall_ns, 1_010_000_000);
        append(&dir, &rec(500, 1_020_000_000, 64 << 20)).unwrap();
        assert_eq!(load(&dir).unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
