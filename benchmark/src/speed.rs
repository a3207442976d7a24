//! The machine-speed reference.
//!
//! The sandbox this benchmark runs in is a shared two-core VM whose
//! speed drifts by 10–25 % over tens of seconds, mostly on the memory
//! side (a pure-ALU loop holds steady while map look-ups and sorts slow
//! by 15 %), and by up to 2× in bursts. The drift outlasts a run, so no
//! statistic taken inside a run removes it: ten back-to-back runs of
//! one binary spread 10–16 % (interquartile range ÷ median) on raw pass
//! time, 18–33 % end to end.
//!
//! What does remove most of it is a fixed reference kernel sampled
//! between cells throughout the run: each stretch of the run (set-up,
//! then every pass) has its timings divided by how much slower than
//! nominal the kernel ran during that stretch. Over ten seeds that
//! brought the spread of `matrix_sweep`'s pass time from 16 % raw to
//! 4 % (README, calibration table). The kernel is harness code —
//! ordered-map look-ups, string hashing and a sort over preallocated
//! data, the kind of work the checker does — that allocates nothing and
//! calls nothing in the repository, so no change to the program under
//! test can move it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// About what one kernel sample takes on the sizing box (2-core Xeon
/// @ 2.1 GHz). Only sets the scale of the normalised numbers; changing
/// it moves every timing metric alike.
const NOMINAL_MS: f64 = 16.0;

/// One sample per this much run time: ~16 ms in 200 ms is the share of
/// the run the reference may cost.
const EVERY: Duration = Duration::from_millis(200);

/// Most samples one `tick` takes, after a cell of seconds.
const BURST: usize = 8;

const KEYS: u32 = 12_000;
const SORTED: usize = 40_000;
/// Rounds of (look up and hash every key, sort) per sample.
const ROUNDS: usize = 4;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Samples the reference kernel through a run.
pub struct SpeedMeter {
    map: BTreeMap<String, Vec<u8>>,
    /// The map's keys in scrambled order.
    lookups: Vec<String>,
    unsorted: Vec<u64>,
    scratch: Vec<u64>,
    samples_ms: Vec<f64>,
    last: Instant,
}

impl SpeedMeter {
    pub fn new() -> SpeedMeter {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut map = BTreeMap::new();
        for i in 0..KEYS {
            let key = format!("/dir{}/file{}", i % 97, i.wrapping_mul(2_654_435_761));
            map.insert(key, vec![i as u8; 16 + (i % 48) as usize]);
        }
        let mut lookups: Vec<String> = map.keys().cloned().collect();
        for i in (1..lookups.len()).rev() {
            lookups.swap(i, (xorshift(&mut rng) % (i as u64 + 1)) as usize);
        }
        let unsorted: Vec<u64> = (0..SORTED).map(|_| xorshift(&mut rng)).collect();
        let mut meter = SpeedMeter {
            map,
            lookups,
            scratch: vec![0; unsorted.len()],
            unsorted,
            samples_ms: Vec::new(),
            last: Instant::now(),
        };
        // The first run finds the caches cold: discard it.
        meter.sample();
        meter.samples_ms.clear();
        meter.sample();
        meter
    }

    /// Run the kernel once and keep its time.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..ROUNDS {
            for key in &self.lookups {
                if let Some(v) = self.map.get(key) {
                    acc = acc.wrapping_add(v.len() as u64 + u64::from(v[0]));
                }
                acc ^= crate::stats::fnv1a(key.as_bytes());
            }
            self.scratch.copy_from_slice(&self.unsorted);
            self.scratch.sort_unstable();
            acc = acc.wrapping_add(self.scratch[SORTED / 2]);
        }
        black_box(acc);
        self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.last = Instant::now();
    }

    /// Call between cells: one sample per `EVERY` gone by since the
    /// last, so that a stretch of few long cells (`resize_split`: three
    /// a pass, seconds each) is judged by about as many samples as a
    /// stretch of many short ones.
    pub fn tick(&mut self) {
        let due = self.last.elapsed().as_secs_f64() / EVERY.as_secs_f64();
        for _ in 0..(due as usize).min(BURST) {
            self.sample();
        }
    }

    /// How much slower than nominal the machine ran since sample
    /// number `mark` (median of those samples; one is taken now if
    /// there is none): divide times by it, multiply rates. Timings are
    /// corrected stretch by stretch — set-up, then each pass — so a
    /// stretch is judged by the samples taken while it ran.
    pub fn slowdown_since(&mut self, mark: usize) -> f64 {
        if self.samples_ms.len() == mark {
            self.sample();
        }
        crate::stats::median(&self.samples_ms[mark..]) / NOMINAL_MS
    }

    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_on_a_cadence_and_reads_near_nominal() {
        let mut meter = SpeedMeter::new();
        assert_eq!(meter.samples(), 1);
        meter.tick(); // too soon
        assert_eq!(meter.samples(), 1);
        std::thread::sleep(EVERY);
        meter.tick();
        assert_eq!(meter.samples(), 2);
        // Any machine this runs on is within 10× of the sizing box.
        let s = meter.slowdown_since(0);
        assert!(s > 0.1 && s < 10.0, "slowdown {s}");
        // A stretch without a sample of its own takes one.
        assert!(meter.slowdown_since(2) > 0.0);
        assert_eq!(meter.samples(), 3);
    }
}
