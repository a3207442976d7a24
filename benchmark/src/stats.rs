//! Order statistics the ledger reports.

/// Median of the values (mean of the middle two for an even count).
/// `NaN` for an empty slice — a metric with no samples must not read
/// as zero.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Percentiles a tail is reported at, highest first. No p99.9: on this
/// benchmark's sample counts it would flap with the pass count.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of the ladder that still has at least ten of
/// `n` samples beyond it (choosing-metrics §1). `None` below twenty
/// samples, where not even the median qualifies.
pub fn tail_rung(n: usize) -> Option<f64> {
    // `n - rank - 1` samples lie strictly beyond the percentile's rank.
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) > 10)
}

/// Nearest-rank `p`-th percentile of the values; `NaN` for none.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p)]
}

/// Nearest-rank index of the p-th percentile among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// FNV-1a, the digest the expected-output pins are written in.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_rung_needs_ten_samples_beyond() {
        // 1000 samples: p99 is sample 990, ten lie beyond it.
        assert_eq!(tail_rung(1000), Some(99.0));
        // One sample fewer and p99 has only nine beyond: fall to p95.
        assert_eq!(tail_rung(999), Some(95.0));
        // 198 = three passes of the 66-cell matrix: p90 (19 beyond),
        // not p95 (9 beyond).
        assert_eq!(tail_rung(198), Some(90.0));
        assert_eq!(tail_rung(200), Some(95.0));
        assert_eq!(tail_rung(20), Some(50.0));
        // Too few for any rung.
        assert_eq!(tail_rung(19), None);
        assert_eq!(tail_rung(0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ramp: Vec<f64> = (1..=198).rev().map(f64::from).collect();
        assert_eq!(percentile(&ramp, 90.0), 179.0);
        assert_eq!(percentile(&ramp, 50.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
