//! A wall-clock microbenchmark harness.
//!
//! Replaces `criterion` for `pc-bench`: each benchmark is a closure run
//! for a warmup phase and then a measured phase, with per-iteration
//! wall times collected and summarized as min / mean / median / p95.
//! Results accumulate on a [`Bench`] and can be rendered as an aligned
//! text table ([`Bench::report`]) or exported as structured
//! [`Sample`]s for machine-readable output (the `pc-bench` binary
//! serializes them with `h5sim`'s vendored JSON writer).
//!
//! Iteration counts are chosen per benchmark from a time budget: after
//! warmup, the harness estimates the cost of one iteration and sizes
//! the sample so a benchmark takes roughly [`Config::target_ms`]
//! (clamped to `[Config::min_iters, Config::max_iters]`), so
//! microsecond-scale inner loops get thousands of samples while
//! full-exploration runs get a handful. Environment overrides:
//! `PC_BENCH_TIME_MS` (budget), `PC_BENCH_MIN_ITERS`,
//! `PC_BENCH_MAX_ITERS`.
//!
//! # Example
//!
//! ```
//! use pc_rt::bench::{black_box, Bench, Config};
//!
//! let mut b = Bench::new(Config { target_ms: 5, ..Config::default() });
//! b.bench("sum-1k", || (0..1000u64).map(black_box).sum::<u64>());
//! assert_eq!(b.samples().len(), 1);
//! assert!(b.samples()[0].median_ns > 0.0);
//! println!("{}", b.report());
//! ```

use std::time::Instant;

/// Re-export of [`std::hint::black_box`]: keeps the optimizer from
/// deleting the benchmarked computation.
pub use std::hint::black_box;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Target measured time per benchmark, in milliseconds.
    pub target_ms: u64,
    /// Warmup iterations (unmeasured; also used to estimate cost).
    pub warmup_iters: u32,
    /// Lower bound on measured iterations.
    pub min_iters: u32,
    /// Upper bound on measured iterations.
    pub max_iters: u32,
    /// Only run benchmarks whose name contains this substring.
    pub filter: Option<String>,
}

impl Default for Config {
    fn default() -> Config {
        let env_u64 = |k: &str| std::env::var(k).ok().and_then(|v| v.trim().parse().ok());
        Config {
            target_ms: env_u64("PC_BENCH_TIME_MS").unwrap_or(1000),
            warmup_iters: 3,
            min_iters: env_u64("PC_BENCH_MIN_ITERS").unwrap_or(5) as u32,
            max_iters: env_u64("PC_BENCH_MAX_ITERS").unwrap_or(5000) as u32,
            filter: None,
        }
    }
}

/// Summary statistics of one benchmark.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Benchmark name (`group/name` by convention).
    pub name: String,
    /// Measured iterations.
    pub iters: u32,
    /// Fastest iteration, nanoseconds.
    pub min_ns: f64,
    /// Arithmetic mean, nanoseconds.
    pub mean_ns: f64,
    /// Median, nanoseconds.
    pub median_ns: f64,
    /// 95th percentile, nanoseconds.
    pub p95_ns: f64,
    /// Free-form derived metrics attached via [`Bench::annotate`]
    /// (e.g. `states_per_sec`); serialized alongside the timing fields.
    pub extra: Vec<(String, f64)>,
}

impl Sample {
    fn from_times(name: &str, mut ns: Vec<f64>) -> Sample {
        ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let n = ns.len();
        let pick = |q: f64| ns[((n - 1) as f64 * q).round() as usize];
        Sample {
            name: name.to_string(),
            iters: n as u32,
            min_ns: ns[0],
            mean_ns: ns.iter().sum::<f64>() / n as f64,
            median_ns: pick(0.5),
            p95_ns: pick(0.95),
            extra: Vec::new(),
        }
    }
}

/// Format nanoseconds human-readably (`412 ns`, `3.1 µs`, `2.4 ms`, …).
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

/// A benchmark run in progress: owns the configuration and the results
/// collected so far.
#[derive(Debug)]
pub struct Bench {
    cfg: Config,
    samples: Vec<Sample>,
}

impl Bench {
    /// Start a run with the given configuration.
    pub fn new(cfg: Config) -> Bench {
        Bench {
            cfg,
            samples: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Run one benchmark. `f` is invoked repeatedly; its return value
    /// is passed through [`black_box`] so the computation is not
    /// optimized away. Skipped (with a note on stderr) when a filter is
    /// set and doesn't match.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) {
        if let Some(filter) = &self.cfg.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        crate::pc_debug!("bench {name} ...");
        // Warmup doubles as the cost estimate for sizing the sample.
        let warm_start = Instant::now();
        for _ in 0..self.cfg.warmup_iters.max(1) {
            black_box(f());
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / f64::from(self.cfg.warmup_iters.max(1));
        let budget = self.cfg.target_ms as f64 / 1e3;
        let iters = if per_iter > 0.0 {
            (budget / per_iter).ceil() as u32
        } else {
            self.cfg.max_iters
        }
        .clamp(self.cfg.min_iters.max(1), self.cfg.max_iters.max(1));

        let mut times = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            let t = Instant::now();
            black_box(f());
            times.push(t.elapsed().as_secs_f64() * 1e9);
        }
        self.samples.push(Sample::from_times(name, times));
    }

    /// All results collected so far.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Attach a derived metric to the most recent sample (no-op when
    /// the last `bench` call was filtered out). Suites use this for
    /// headline numbers computed *from* the timing — e.g. the scale
    /// suite divides checked-state counts by the median wall time to
    /// get `states_per_sec` — so the JSON export carries the metric
    /// next to the measurement it came from.
    pub fn annotate(&mut self, key: &str, value: f64) {
        if let Some(last) = self.samples.last_mut() {
            last.extra.push((key.to_string(), value));
        }
    }

    /// Render an aligned text table of the results.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let width = self
            .samples
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        out.push_str(&format!(
            "{:width$}  {:>8}  {:>12}  {:>12}  {:>12}  {:>12}\n",
            "name", "iters", "min", "median", "mean", "p95",
        ));
        for s in &self.samples {
            out.push_str(&format!(
                "{:width$}  {:>8}  {:>12}  {:>12}  {:>12}  {:>12}\n",
                s.name,
                s.iters,
                fmt_ns(s.min_ns),
                fmt_ns(s.median_ns),
                fmt_ns(s.mean_ns),
                fmt_ns(s.p95_ns),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> Config {
        Config {
            target_ms: 1,
            warmup_iters: 1,
            min_iters: 5,
            max_iters: 50,
            filter: None,
        }
    }

    #[test]
    fn collects_ordered_sane_statistics() {
        let mut b = Bench::new(tiny_cfg());
        b.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..500u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        let s = &b.samples()[0];
        assert_eq!(s.name, "spin");
        assert!(s.iters >= 5);
        assert!(s.min_ns > 0.0);
        assert!(s.min_ns <= s.median_ns);
        assert!(s.median_ns <= s.p95_ns);
        assert!(s.mean_ns >= s.min_ns && s.mean_ns <= s.p95_ns.max(s.mean_ns));
    }

    #[test]
    fn filter_skips_non_matching_benchmarks() {
        let mut b = Bench::new(Config {
            filter: Some("keep".into()),
            ..tiny_cfg()
        });
        b.bench("keep/this", || 1);
        b.bench("drop/this", || 2);
        assert_eq!(b.samples().len(), 1);
        assert_eq!(b.samples()[0].name, "keep/this");
    }

    #[test]
    fn iteration_budget_adapts_to_cost() {
        let mut b = Bench::new(Config {
            target_ms: 20,
            warmup_iters: 2,
            min_iters: 2,
            max_iters: 100_000,
            filter: None,
        });
        // ~1 ms per iteration -> ~20 iterations, far below max_iters.
        b.bench("sleepy", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let s = &b.samples()[0];
        assert!(s.iters >= 2 && s.iters < 1000, "iters = {}", s.iters);
    }

    #[test]
    fn report_renders_every_sample() {
        let mut b = Bench::new(tiny_cfg());
        b.bench("a/one", || 1);
        b.bench("b/two", || 2);
        let rep = b.report();
        assert!(rep.contains("a/one") && rep.contains("b/two"));
        assert!(rep.contains("median"));
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(412.0), "412 ns");
        assert!(fmt_ns(3_100.0).ends_with("µs"));
        assert!(fmt_ns(2_400_000.0).ends_with("ms"));
        assert!(fmt_ns(2_000_000_000.0).ends_with('s'));
    }
}
