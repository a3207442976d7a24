//! Deterministic pseudo-random number generation.
//!
//! Two tiny, well-studied generators, both fully deterministic and
//! platform-independent so that every randomized test and workload in
//! the workspace reproduces bit-for-bit from a printed seed:
//!
//! * [`SplitMix64`] — Steele, Lea & Flood's 64-bit mixer. One `u64` of
//!   state, equidistributed, primarily used here to expand a user seed
//!   into the larger state of the main generator (its intended role in
//!   the xoshiro family) and to derive independent per-case seeds in
//!   the property-test harness.
//! * [`Rng`] — xoshiro256\*\* (Blackman & Vigna), the general-purpose
//!   generator: 256 bits of state, period 2^256 − 1, passes BigCrush.
//!
//! # Example
//!
//! ```
//! use pc_rt::rng::Rng;
//!
//! let mut rng = Rng::new(0xC0FFEE);
//! let die = rng.gen_range(1u64..=6);
//! assert!((1..=6).contains(&die));
//! let mut xs = vec![1, 2, 3, 4, 5];
//! rng.shuffle(&mut xs);
//! assert_eq!(xs.len(), 5);
//! ```

/// SplitMix64: one-u64-of-state generator used for seed expansion.
///
/// ```
/// use pc_rt::rng::SplitMix64;
/// let mut sm = SplitMix64::new(0);
/// assert_eq!(sm.next_u64(), 0xE220A8397B1DCDAF); // published vector
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Any seed (including 0) is fine.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\* — the workspace's general-purpose deterministic PRNG.
///
/// State is seeded through [`SplitMix64`] as the xoshiro authors
/// recommend, so `Rng::new(s)` is well-distributed even for small `s`.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed a generator. Identical seeds yield identical streams on
    /// every platform.
    pub fn new(seed: u64) -> Rng {
        let mut sm = SplitMix64::new(seed);
        Rng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32-bit output (upper bits of the 64-bit stream, which are
    /// the strongest bits of xoshiro256\*\*).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in an integer range, e.g. `rng.gen_range(0..10)`
    /// or `rng.gen_range(1..=6)`. Uses Lemire-style rejection so the
    /// distribution is exactly uniform.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn gen_range<R: RangeLike>(&mut self, range: R) -> u64 {
        let (lo, hi_inclusive) = range.bounds();
        assert!(lo <= hi_inclusive, "gen_range called with an empty range");
        let span = hi_inclusive - lo; // inclusive span - 1
        if span == u64::MAX {
            return self.next_u64();
        }
        let n = span + 1;
        // Rejection sampling on the top bits: unbiased and cheap.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return lo + v % n;
            }
        }
    }

    /// Uniform `usize` in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_index(0)");
        self.gen_range(0..n as u64) as usize
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        // 53 bits of mantissa — the same construction `rand` uses.
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.gen_index(i + 1));
        }
    }

    /// Fill a byte slice with uniform random bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Derive an independent child generator (for per-task streams that
    /// must not depend on how much the parent consumed afterwards).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

/// Integer ranges accepted by [`Rng::gen_range`] (`a..b` and `a..=b`
/// over the common unsigned widths).
pub trait RangeLike {
    /// `(low, high_inclusive)` bounds of the range.
    fn bounds(&self) -> (u64, u64);
}

macro_rules! impl_range_like {
    ($($t:ty),*) => {$(
        impl RangeLike for std::ops::Range<$t> {
            fn bounds(&self) -> (u64, u64) {
                assert!(self.start < self.end, "empty range");
                (self.start as u64, self.end as u64 - 1)
            }
        }
        impl RangeLike for std::ops::RangeInclusive<$t> {
            fn bounds(&self) -> (u64, u64) {
                (*self.start() as u64, *self.end() as u64)
            }
        }
    )*};
}

impl_range_like!(u8, u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer vectors computed from the reference C
    /// implementations (Vigna's `splitmix64.c`).
    #[test]
    fn splitmix64_known_answer() {
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
        assert_eq!(sm.next_u64(), 0xF88B_B8A8_724C_81EC);
        let mut sm = SplitMix64::new(0x9E37_79B9_7F4A_7C15);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    /// Known-answer vectors for xoshiro256** seeded via SplitMix64,
    /// computed from the reference C implementation
    /// (Blackman & Vigna's `xoshiro256starstar.c`).
    #[test]
    fn xoshiro256ss_known_answer() {
        let mut rng = Rng::new(0xC0FFEE);
        assert_eq!(
            rng.s,
            [
                0xCA82_16FA_9058_D0FA,
                0xECE4_5BAB_CE87_0479,
                0x87BE_93A4_A16A_73CB,
                0x5A71_C089_57A5_0D44
            ]
        );
        let expect = [
            0x120E_99A6_DDE4_A550u64,
            0x8F98_9EF9_7733_D4B4,
            0xF0A2_8EB2_E4FD_367B,
            0x50C2_9BFE_8734_F5D2,
            0xF763_EB3E_1CBE_4E9B,
            0x4ECA_86E0_293E_9B6C,
        ];
        for e in expect {
            assert_eq!(rng.next_u64(), e);
        }
        let mut rng = Rng::new(1);
        assert_eq!(rng.next_u64(), 0xB3F2_AF6D_0FC7_10C5);
        assert_eq!(rng.next_u64(), 0x853B_5596_4736_4CEA);
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let mut c = Rng::new(8);
        let sa: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn gen_range_respects_bounds_and_hits_all_values() {
        let mut rng = Rng::new(99);
        let mut seen = [false; 6];
        for _ in 0..500 {
            let v = rng.gen_range(1u64..=6);
            assert!((1..=6).contains(&v));
            seen[(v - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "die faces seen: {seen:?}");
        for _ in 0..100 {
            assert!(rng.gen_range(10u32..11) == 10);
        }
    }

    #[test]
    fn gen_bool_extremes_and_rough_balance() {
        let mut rng = Rng::new(3);
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
        let heads = (0..2000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((800..1200).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn shuffle_is_a_permutation_and_fill_bytes_covers_tail() {
        let mut rng = Rng::new(11);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());

        let mut buf = [0u8; 13]; // not a multiple of 8: exercises the tail
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn fork_streams_are_independent_of_parent_consumption() {
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        let fa = a.fork();
        let fb = b.fork();
        // Parent b consumes extra values after forking; the forks agree.
        let _ = b.next_u64();
        let (mut fa, mut fb) = (fa, fb);
        assert_eq!(fa.next_u64(), fb.next_u64());
    }
}
