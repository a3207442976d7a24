//! `BENCHMARK.json`, the results ledger, and `check`.

use crate::json::Json;
use crate::stats::median;
use std::path::Path;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the baseline's median the metric may worsen by.
    pub bound: f64,
}

/// What `check` needs from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<(String, String, String)>,
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn text(obj: &Json, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{key:?} is not a string"))
}

fn list<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(obj, key)?
        .as_arr()
        .ok_or_else(|| format!("{key:?} is not a list"))
}

impl Spec {
    pub fn parse(doc: &Json) -> Result<Spec, String> {
        let workloads = list(doc, "workloads")?
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Result<_, _>>()?;
        let end_to_end = list(doc, "end_to_end")?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: text(m, "name")?,
                    higher_is_better: text(m, "better")? == "higher",
                    bound: field(m, "bound")?
                        .as_f64()
                        .ok_or("\"bound\" is not a number")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let per_layer = list(doc, "per_layer")?
            .iter()
            .map(|m| Ok((text(m, "name")?, text(m, "unit")?, text(m, "better")?)))
            .collect::<Result<_, String>>()?;
        Ok(Spec {
            workloads,
            end_to_end,
            per_layer,
        })
    }

    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Json::parse(&text)
            .and_then(|doc| Spec::parse(&doc))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

pub fn load_results(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One end-to-end reading out of a results file.
fn reading(results: &Json, workload: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Fail,
    /// The runs of one side disagree with each other by more than the
    /// bound, so a difference of that size cannot be told from noise.
    Unresolved,
}

/// Range over median of one side's readings (0 for a single reading).
fn spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / median(values).abs()
}

/// Judge one workload × metric: `base` and `change` are each side's
/// readings, one per results file.
pub fn judge(metric: &Metric, base: &[f64], change: &[f64]) -> (Verdict, f64) {
    let (b, c) = (median(base), median(change));
    let worse_by = if metric.higher_is_better {
        (b - c) / b.abs()
    } else {
        (c - b) / b.abs()
    };
    let every_change_better = change.iter().all(|&c| {
        base.iter().all(|&b| {
            if metric.higher_is_better {
                c > b
            } else {
                c < b
            }
        })
    });
    let noisy = spread(base).max(spread(change)) > metric.bound;
    let verdict = if !worse_by.is_finite() {
        Verdict::Fail
    } else if noisy && !every_change_better {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Fail
    } else {
        Verdict::Pass
    };
    (verdict, worse_by)
}

/// `check BASE[,BASE…] CHANGE[,CHANGE…]`: every workload × end-to-end
/// metric against its bound. Returns the report and whether all passed.
pub fn check(spec: &Spec, base: &[Json], change: &[Json]) -> (String, bool) {
    let mut out = format!(
        "{:<14} {:<14} {:>12} {:>12} {:>9} {:>7}  verdict\n",
        "workload", "metric", "base", "change", "worse by", "bound"
    );
    let mut ok = true;
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let side = |files: &[Json]| -> Vec<f64> {
                files
                    .iter()
                    .filter_map(|f| reading(f, workload, &metric.name))
                    .collect()
            };
            let (b, c) = (side(base), side(change));
            let (verdict, worse_by) = if b.is_empty() || c.is_empty() {
                (Verdict::Fail, f64::NAN) // a missing reading is not a pass
            } else {
                judge(metric, &b, &c)
            };
            ok &= verdict == Verdict::Pass;
            out.push_str(&format!(
                "{:<14} {:<14} {:>12.4} {:>12.4} {:>8.2}% {:>6.1}%  {}\n",
                workload,
                metric.name,
                median(&b),
                median(&c),
                worse_by * 100.0,
                metric.bound * 100.0,
                match verdict {
                    Verdict::Pass => "pass",
                    Verdict::Fail => "FAIL",
                    Verdict::Unresolved => "UNRESOLVED",
                }
            ));
        }
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> Metric {
        Metric {
            name: "m".into(),
            higher_is_better,
            bound: 0.05,
        }
    }

    #[test]
    fn judge_respects_direction_and_bound() {
        let lower = metric(false);
        assert_eq!(judge(&lower, &[100.0], &[104.0]).0, Verdict::Pass);
        assert_eq!(judge(&lower, &[100.0], &[106.0]).0, Verdict::Fail);
        assert_eq!(judge(&lower, &[100.0], &[50.0]).0, Verdict::Pass);
        let higher = metric(true);
        assert_eq!(judge(&higher, &[100.0], &[94.0]).0, Verdict::Fail);
        assert_eq!(judge(&higher, &[100.0], &[150.0]).0, Verdict::Pass);
        let (_, worse_by) = judge(&higher, &[100.0], &[94.0]);
        assert!((worse_by - 0.06).abs() < 1e-12);
    }

    #[test]
    fn judge_reports_noise_as_unresolved() {
        let lower = metric(false);
        // The base runs disagree by 10 % — wider than the 5 % bound.
        assert_eq!(
            judge(&lower, &[95.0, 100.0, 105.0], &[101.0, 102.0, 103.0]).0,
            Verdict::Unresolved
        );
        // …unless every run of the change beats every run of the base.
        assert_eq!(
            judge(&lower, &[95.0, 100.0, 105.0], &[80.0, 85.0, 90.0]).0,
            Verdict::Pass
        );
        assert_eq!(judge(&lower, &[0.0], &[1.0]).0, Verdict::Fail);
    }

    fn results(value: f64) -> Json {
        let reading = Json::obj([("value", Json::Num(value)), ("unit", Json::str("ms"))]);
        let workload = Json::obj([("end_to_end", Json::obj([("m", reading)]))]);
        Json::obj([("workloads", Json::obj([("w", workload)]))])
    }

    #[test]
    fn results_round_trip_through_check() {
        let spec = Spec {
            workloads: vec!["w".into()],
            end_to_end: vec![metric(false)],
            per_layer: vec![],
        };
        let reread = |v: f64| Json::parse(&results(v).pretty()).unwrap();
        assert_eq!(reread(20.123_456_789), results(20.123_456_789));
        let (report, ok) = check(&spec, &[reread(100.0)], &[reread(103.0)]);
        assert!(ok, "{report}");
        let (report, ok) = check(&spec, &[reread(100.0)], &[reread(110.0)]);
        assert!(!ok && report.contains("FAIL"), "{report}");
        // A workload the file does not have is a failure, not a skip.
        let (_, ok) = check(
            &spec,
            &[reread(100.0)],
            &[Json::obj([("workloads", Json::Null)])],
        );
        assert!(!ok);
    }

    #[test]
    fn benchmark_json_lists_what_the_harness_reports() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Spec::load(&root).unwrap();
        let names: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(spec.workloads, names);
        let layers: Vec<(String, String, String)> = crate::trace::LAYER_METRICS
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(spec.per_layer, layers);
        let e2e: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            e2e,
            [
                "setup_s",
                "pass_ms",
                "states_per_s",
                "cell_ms_tail",
                "peak_rss_mb"
            ]
        );
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
