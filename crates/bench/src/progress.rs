//! Campaign-level live metrics: throughput, ETA, and anomaly detection
//! for the sweep driver's cell loop.
//!
//! A multi-hour campaign must be legible while it runs. This module
//! owns the three live views the driver threads through
//! [`crate::campaign::run_campaign`]:
//!
//! * **progress lines** — `PC_PROGRESS=1` prints a one-line meter to
//!   stderr (cells done, throughput, ETA, behavior classes, findings,
//!   coverage saturation), rate-limited so a fast campaign does not
//!   spam the terminal;
//! * **stall detection** — a cell whose wall time blows past the
//!   exponentially-weighted moving average by [`STALL_FACTOR`]×
//!   produces a `pc_warn!` naming the offending cell (the classic
//!   symptom: one pathological workload × journal-mode combination
//!   wedging an otherwise-healthy sweep);
//! * **throughput-regression detection** — the rolling
//!   [`WINDOW`]-cell wall time is compared against the best window seen
//!   so far; a [`REGRESSION_FACTOR`]× slowdown warns once per window,
//!   again naming the slowest cell inside it.
//!
//! The meter is pure bookkeeping over caller-supplied wall times — it
//! never touches the checker, so it cannot perturb the campaign's
//! deterministic fold (the `canonical_report()` contract). Detection
//! thresholds are deliberately coarse: the goal is "a human notices
//! within seconds", not statistics.

use pc_rt::obs::fmt_ns;
use std::collections::VecDeque;
use std::time::Instant;

/// A cell this many times slower than the rolling mean is a stall.
pub const STALL_FACTOR: f64 = 8.0;

/// Ignore stall candidates faster than this — microsecond cells jitter
/// far beyond 8× without meaning anything.
pub const STALL_MIN_NS: u64 = 50_000_000;

/// Rolling window, in cells, for throughput-regression detection.
pub const WINDOW: usize = 32;

/// A window this many times slower than the best window is a regression.
pub const REGRESSION_FACTOR: f64 = 4.0;

/// Minimum seconds between progress lines.
const PROGRESS_INTERVAL_SECS: f64 = 0.5;

/// Live campaign bookkeeping: throughput, ETA, stall and regression
/// detection. One instance per campaign, fed once per completed cell.
pub struct CampaignMeter {
    total_cells: usize,
    done: usize,
    started: Instant,
    last_print: Instant,
    progress_on: bool,
    /// EWMA of per-cell wall time (ns); 0 until the first cell.
    ewma_ns: f64,
    /// Last [`WINDOW`] cells: (label, wall_ns).
    window: VecDeque<(String, u64)>,
    /// Fastest full-window total seen so far (ns).
    best_window_ns: Option<u64>,
    /// Cells to skip before the next regression warning (anti-spam).
    regression_cooldown: usize,
}

impl CampaignMeter {
    /// A meter for a campaign of `total_cells` cells. Reads
    /// `PC_PROGRESS` once.
    pub fn new(total_cells: usize) -> CampaignMeter {
        CampaignMeter::with_progress(total_cells, pc_rt::env::truthy(pc_rt::env::PROGRESS))
    }

    /// Like [`CampaignMeter::new`] with the progress switch explicit
    /// (tests).
    pub fn with_progress(total_cells: usize, progress_on: bool) -> CampaignMeter {
        let now = Instant::now();
        CampaignMeter {
            total_cells,
            done: 0,
            started: now,
            last_print: now,
            progress_on,
            ewma_ns: 0.0,
            window: VecDeque::with_capacity(WINDOW),
            best_window_ns: None,
            regression_cooldown: 0,
        }
    }

    /// Cells recorded so far.
    pub fn done(&self) -> usize {
        self.done
    }

    /// Fold one completed cell in and return any anomaly messages
    /// (already formatted for `pc_warn!`). Pure function of the fed
    /// wall times — no clocks, no I/O — so the detectors are unit
    /// testable with synthetic durations.
    pub fn note_cell(&mut self, label: &str, wall_ns: u64) -> Vec<String> {
        let mut warnings = Vec::new();
        self.done += 1;

        // Stall: compare against the EWMA *before* folding this cell
        // in, so the stall itself does not raise the bar it is judged
        // against.
        if self.done > 4 && wall_ns > STALL_MIN_NS {
            let bar = self.ewma_ns * STALL_FACTOR;
            if self.ewma_ns > 0.0 && (wall_ns as f64) > bar {
                warnings.push(format!(
                    "fuzz: stalled cell {label}: {} ({:.1}x the {} rolling mean)",
                    fmt_ns(wall_ns as f64),
                    wall_ns as f64 / self.ewma_ns,
                    fmt_ns(self.ewma_ns),
                ));
            }
        }
        self.ewma_ns = if self.ewma_ns == 0.0 {
            wall_ns as f64
        } else {
            0.8 * self.ewma_ns + 0.2 * wall_ns as f64
        };

        // Throughput regression over the rolling window.
        if self.window.len() == WINDOW {
            self.window.pop_front();
        }
        self.window.push_back((label.to_string(), wall_ns));
        self.regression_cooldown = self.regression_cooldown.saturating_sub(1);
        if self.window.len() == WINDOW {
            let total: u64 = self.window.iter().map(|&(_, ns)| ns).sum();
            let best = self.best_window_ns.get_or_insert(total);
            if total < *best {
                *best = total;
            } else if self.regression_cooldown == 0
                && *best > 0
                && (total as f64) > (*best as f64) * REGRESSION_FACTOR
            {
                let (slowest, slow_ns) = self
                    .window
                    .iter()
                    .max_by_key(|&&(_, ns)| ns)
                    .cloned()
                    .expect("window is non-empty");
                warnings.push(format!(
                    "fuzz: throughput regression: last {WINDOW} cells took {} \
                     ({:.1}x the best window); slowest cell {slowest} at {}",
                    fmt_ns(total as f64),
                    total as f64 / *best as f64,
                    fmt_ns(slow_ns as f64),
                ));
                self.regression_cooldown = WINDOW;
            }
        }
        warnings
    }

    /// Build the one-line progress meter. `saturation` is the corpus's
    /// Good–Turing estimate in `[0, 1]`. Total math is guarded against
    /// the degenerate corpora a filtered campaign can produce (zero
    /// cells, zero elapsed time): every field renders finite.
    pub fn progress_line(&self, behaviors: usize, findings: usize, saturation: f64) -> String {
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 && self.done > 0 {
            self.done as f64 / elapsed
        } else {
            0.0
        };
        let eta = if rate > 0.0 && self.total_cells > self.done {
            format!("{:.0}s", (self.total_cells - self.done) as f64 / rate)
        } else {
            "0s".to_string()
        };
        let pct = if self.total_cells > 0 {
            100 * self.done / self.total_cells
        } else {
            100
        };
        format!(
            "[fuzz] {}/{} cells ({pct}%) | {rate:.1} cells/s | eta {eta} | \
             behaviors {behaviors} | findings {findings} | saturation {:.0}%",
            self.done,
            self.total_cells,
            saturation * 100.0,
        )
    }

    /// Print the progress line to stderr when `PC_PROGRESS` is on,
    /// rate-limited to one line per half second (the final cell always
    /// prints).
    pub fn maybe_print(&mut self, behaviors: usize, findings: usize, saturation: f64) {
        if !self.progress_on {
            return;
        }
        let last = self.done == self.total_cells;
        if !last && self.last_print.elapsed().as_secs_f64() < PROGRESS_INTERVAL_SECS {
            return;
        }
        self.last_print = Instant::now();
        eprintln!("{}", self.progress_line(behaviors, findings, saturation));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_detector_names_the_offending_cell() {
        let mut m = CampaignMeter::with_progress(100, false);
        for i in 0..10 {
            assert!(m
                .note_cell(&format!("w{i}@BeeGFS/data"), 60_000_000)
                .is_empty());
        }
        let w = m.note_cell("slow@OrangeFS/none", 900_000_000);
        assert_eq!(w.len(), 1);
        assert!(w[0].contains("stalled cell slow@OrangeFS/none"), "{}", w[0]);
        // Sub-threshold cells never stall, however slow relatively.
        let mut m = CampaignMeter::with_progress(100, false);
        for _ in 0..10 {
            m.note_cell("w", 1_000);
        }
        assert!(m.note_cell("w", 40_000_000).is_empty());
    }

    #[test]
    fn regression_detector_warns_once_per_window() {
        let mut m = CampaignMeter::with_progress(1000, false);
        for i in 0..WINDOW {
            assert!(m.note_cell(&format!("fast{i}"), 1_000_000).is_empty());
        }
        // 5x slower cells: the rolling window degrades past 4x best.
        let mut warned = 0;
        for i in 0..2 * WINDOW {
            warned += m.note_cell(&format!("slow{i}"), 5_000_000).len();
        }
        assert!(warned >= 1, "no regression warning");
        assert!(warned <= 3, "warning spam: {warned}");
    }

    #[test]
    fn degenerate_meters_stay_finite() {
        // Zero-cell campaign (everything filtered out): the line must
        // render without NaN/inf and claim completion.
        let m = CampaignMeter::with_progress(0, false);
        let line = m.progress_line(0, 0, 0.0);
        assert!(line.contains("0/0 cells (100%)"), "{line}");
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
        // All-zero wall times (a mocked clock): the regression detector
        // must not divide by a zero best window.
        let mut m = CampaignMeter::with_progress(1000, false);
        for i in 0..WINDOW {
            assert!(m.note_cell(&format!("z{i}"), 0).is_empty());
        }
        for i in 0..WINDOW {
            for w in m.note_cell(&format!("s{i}"), 1_000_000) {
                assert!(!w.contains("inf"), "{w}");
            }
        }
        let line = m.progress_line(1, 0, 1.0);
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
    }

    #[test]
    fn progress_line_reports_totals_and_saturation() {
        let mut m = CampaignMeter::with_progress(8, false);
        for i in 0..4 {
            m.note_cell(&format!("w{i}"), 1_000_000);
        }
        let line = m.progress_line(3, 2, 0.75);
        assert!(line.contains("4/8 cells (50%)"), "{line}");
        assert!(line.contains("behaviors 3"), "{line}");
        assert!(line.contains("findings 2"), "{line}");
        assert!(line.contains("saturation 75%"), "{line}");
        assert!(line.contains("cells/s"), "{line}");
    }
}
