//! A minimal seeded property-testing harness.
//!
//! The suite's property tests (trace invariants, HDF5 fuzzing,
//! randomized workloads) previously ran on the `proptest` crate; this
//! module re-hosts them on ~200 lines of `std`-only harness with the
//! three capabilities those tests actually use:
//!
//! 1. **Seeded case generation** — each case `i` of a run gets its own
//!    deterministic [`crate::rng::Rng`], derived by SplitMix64
//!    from `(run seed, i)`. The run seed defaults to a fixed constant
//!    (CI is reproducible by default) and can be overridden with the
//!    `PC_PROPTEST_SEED` environment variable; `PC_PROPTEST_CASES`
//!    scales case counts globally.
//! 2. **Shrinking by halving** — generators receive a `size` budget
//!    that ramps up over the cases of a run. When a case fails, the
//!    harness re-generates *the same case* at halved sizes until it
//!    stops failing, then binary-searches the boundary, reporting the
//!    smallest failing size's input. (Sizes, not individual fields,
//!    are what every generator in this suite scales by, so halving the
//!    budget is exactly "try a smaller trace / fewer ops".)
//! 3. **Failure-seed reporting** — a failure panics with the seed, case
//!    index, size and `Debug` rendering of the minimal input, plus the
//!    `PC_PROPTEST_SEED=…` incantation that replays it.
//!
//! Properties report failure by returning `Err(String)` — usually via
//! the [`crate::prop_assert!`] / [`crate::prop_assert_eq!`] macros — or by panicking
//! (panics are caught and shrunk the same way, so `expect()` deep in
//! library code still gets minimized).
//!
//! # Example
//!
//! ```
//! use pc_rt::proptest::{run, Config};
//! use pc_rt::prop_assert;
//!
//! run(
//!     "reverse twice is identity",
//!     &Config::with_cases(64),
//!     |rng, size| {
//!         (0..size).map(|_| rng.next_u32()).collect::<Vec<_>>()
//!     },
//!     |xs| {
//!         let twice: Vec<_> = xs.iter().rev().rev().cloned().collect();
//!         prop_assert!(twice == *xs, "lost elements");
//!         Ok(())
//!     },
//! );
//! ```

use crate::env::{PROPTEST_CASES, PROPTEST_SEED};
use crate::rng::{Rng, SplitMix64};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default run seed: reproducible CI without any environment setup.
pub const DEFAULT_SEED: u64 = 0x5EED_CAFE_F00D_0001;

/// Configuration of one property run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases.
    pub cases: u32,
    /// Run seed; per-case seeds derive from it.
    pub seed: u64,
    /// Largest `size` budget handed to the generator (ramped from 1).
    pub max_size: usize,
}

impl Config {
    /// A config running `cases` cases with the default (or
    /// environment-overridden) seed and a size ramp up to 64.
    pub fn with_cases(cases: u32) -> Config {
        let seed = crate::env::get(PROPTEST_SEED)
            .and_then(|v| parse_u64(&v))
            .unwrap_or(DEFAULT_SEED);
        let cases = crate::env::get(PROPTEST_CASES)
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(cases);
        Config {
            cases,
            seed,
            max_size: 64,
        }
    }

    /// Same config with a different size ramp ceiling.
    pub fn max_size(mut self, n: usize) -> Config {
        self.max_size = n.max(1);
        self
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Outcome of one property evaluation.
enum CaseResult {
    Pass,
    /// Property rejected the case as not applicable ([`prop_assume!`]).
    Reject,
    Fail(String),
}

/// Derive the deterministic RNG for case `case` of run `seed`.
fn case_rng(seed: u64, case: u32) -> Rng {
    let mut sm = SplitMix64::new(seed ^ 0x9E6B_5355_C5B9_35C9u64.wrapping_mul(case as u64 + 1));
    Rng::new(sm.next_u64())
}

/// The `size` budget for case `case`: ramps linearly from 1 to
/// `max_size` over the run so early cases are small and late cases
/// exercise the full configured scale.
fn case_size(cfg: &Config, case: u32) -> usize {
    if cfg.cases <= 1 {
        return cfg.max_size;
    }
    1 + (cfg.max_size - 1) * case as usize / (cfg.cases as usize - 1)
}

fn eval_case<T, G, P>(gen: &G, prop: &P, seed: u64, case: u32, size: usize) -> (CaseResult, String)
where
    T: std::fmt::Debug,
    G: Fn(&mut Rng, usize) -> T,
    P: Fn(&T) -> Result<(), String>,
{
    let mut rng = case_rng(seed, case);
    let value = gen(&mut rng, size);
    let rendered = format!("{value:?}");
    let outcome = catch_unwind(AssertUnwindSafe(|| prop(&value)));
    let result = match outcome {
        Ok(Ok(())) => CaseResult::Pass,
        Ok(Err(msg)) => {
            if msg == REJECT_SENTINEL {
                CaseResult::Reject
            } else {
                CaseResult::Fail(msg)
            }
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "property panicked".to_string());
            CaseResult::Fail(format!("panic: {msg}"))
        }
    };
    (result, rendered)
}

/// Internal marker distinguishing [`prop_assume!`] rejections from
/// failures. Not part of the public API.
#[doc(hidden)]
pub const REJECT_SENTINEL: &str = "\u{0}pc-rt-prop-assume-reject";

/// Run a property over `cfg.cases` generated cases.
///
/// * `gen` builds a case from a deterministic RNG and a `size` budget;
/// * `prop` checks it, reporting failure as `Err` (see
///   [`crate::prop_assert!`]) or by panicking.
///
/// On failure the case is shrunk by halving its `size` budget (the
/// generator re-runs with the *same* per-case seed, so a smaller size
/// yields a prefix-like smaller input), then the pass/fail boundary is
/// binary-searched; the final panic message carries everything needed
/// to reproduce.
///
/// # Panics
///
/// Panics if any case fails — this is the test-failure path.
pub fn run<T, G, P>(name: &str, cfg: &Config, gen: G, prop: P)
where
    T: std::fmt::Debug,
    G: Fn(&mut Rng, usize) -> T,
    P: Fn(&T) -> Result<(), String>,
{
    let mut rejected = 0u32;
    for case in 0..cfg.cases {
        let size = case_size(cfg, case);
        let (result, rendered) = eval_case(&gen, &prop, cfg.seed, case, size);
        match result {
            CaseResult::Pass => continue,
            CaseResult::Reject => {
                rejected += 1;
                continue;
            }
            CaseResult::Fail(first_msg) => {
                let (min_size, min_input, min_msg) =
                    shrink(&gen, &prop, cfg.seed, case, size, rendered, first_msg);
                panic!(
                    "property '{name}' failed\n\
                     \x20 seed: {seed:#018X} (reproduce with {env}={seed:#X})\n\
                     \x20 case: {case} of {cases}, failing size {size}, minimal size {min_size}\n\
                     \x20 minimal input: {min_input}\n\
                     \x20 failure: {min_msg}",
                    seed = cfg.seed,
                    env = PROPTEST_SEED,
                    cases = cfg.cases,
                );
            }
        }
    }
    if rejected == cfg.cases && cfg.cases > 0 {
        panic!("property '{name}': every case was rejected by prop_assume!");
    }
}

/// Shrink a failing case by halving the size budget, then binary-search
/// the boundary. Returns `(minimal size, rendered input, message)`.
fn shrink<T, G, P>(
    gen: &G,
    prop: &P,
    seed: u64,
    case: u32,
    failing_size: usize,
    failing_input: String,
    failing_msg: String,
) -> (usize, String, String)
where
    T: std::fmt::Debug,
    G: Fn(&mut Rng, usize) -> T,
    P: Fn(&T) -> Result<(), String>,
{
    let mut fail = (failing_size, failing_input, failing_msg);
    // Phase 1: halve while it still fails.
    let mut passing_floor = 0usize; // largest size known to pass (0 = none)
    while fail.0 > 1 {
        let probe = fail.0 / 2;
        match eval_case(gen, prop, seed, case, probe) {
            (CaseResult::Fail(msg), rendered) => fail = (probe, rendered, msg),
            _ => {
                passing_floor = probe;
                break;
            }
        }
    }
    // Phase 2: binary-search (passing_floor, fail.0) for the boundary.
    let mut lo = passing_floor;
    let mut hi = fail.0;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        match eval_case(gen, prop, seed, case, mid) {
            (CaseResult::Fail(msg), rendered) => {
                hi = mid;
                fail = (mid, rendered, msg);
            }
            _ => lo = mid,
        }
    }
    fail
}

/// Generate a `Vec<T>` of length `0..=size` — the workhorse collection
/// generator (counterpart of `proptest::collection::vec`).
///
/// ```
/// use pc_rt::proptest::gen_vec;
/// use pc_rt::rng::Rng;
/// let mut rng = Rng::new(1);
/// let xs = gen_vec(&mut rng, 10, |r| r.gen_range(0u32..100));
/// assert!(xs.len() <= 10);
/// ```
pub fn gen_vec<T>(rng: &mut Rng, size: usize, mut elem: impl FnMut(&mut Rng) -> T) -> Vec<T> {
    let len = rng.gen_range(0..=size as u64) as usize;
    (0..len).map(|_| elem(rng)).collect()
}

/// Assert inside a property; on failure the property returns
/// `Err(message)` and the harness shrinks the case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "{}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Equality assertion inside a property (see [`crate::prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                a,
                b
            ));
        }
    }};
}

/// Skip a generated case that does not satisfy a precondition. The
/// case counts as neither pass nor failure (a run where *every* case is
/// rejected fails loudly instead of silently passing).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::proptest::REJECT_SENTINEL.to_string());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        run(
            "sum is commutative",
            &Config {
                cases: 50,
                seed: 1,
                max_size: 32,
            },
            |rng, size| (rng.gen_range(0..size as u64 + 1), rng.next_u32() as u64),
            |&(a, b)| {
                prop_assert_eq!(a + b, b + a);
                Ok(())
            },
        );
        // `run` panics on failure; reaching here means all cases passed.
        count += 1;
        assert_eq!(count, 1);
    }

    /// The planted failure: vectors of length >= 7 "fail". Shrinking
    /// must find the minimal counterexample (size exactly 7) from a
    /// much larger initial failure.
    #[test]
    fn shrinking_finds_minimal_counterexample() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            run(
                "planted: no vec of length >= 7",
                &Config {
                    cases: 10,
                    seed: 42,
                    max_size: 64,
                },
                |rng, size| {
                    // Deterministic in size: length == size.
                    let _ = rng.next_u64();
                    vec![0u8; size]
                },
                |xs| {
                    prop_assert!(xs.len() < 7, "vec too long: {}", xs.len());
                    Ok(())
                },
            )
        }))
        .expect_err("planted property must fail");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic message is a String");
        assert!(msg.contains("minimal size 7"), "report: {msg}");
        assert!(msg.contains("vec too long: 7"), "report: {msg}");
        assert!(msg.contains("PC_PROPTEST_SEED"), "report: {msg}");
        assert!(msg.contains("0x2A"), "seed missing: {msg}");
    }

    #[test]
    fn panicking_property_is_caught_and_reported() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            run(
                "planted panic",
                &Config {
                    cases: 4,
                    seed: 7,
                    max_size: 8,
                },
                |_rng, size| size,
                |&s| {
                    assert!(s < 3, "size {s} too big");
                    Ok(())
                },
            )
        }))
        .expect_err("must fail");
        let msg = err.downcast_ref::<String>().cloned().unwrap();
        assert!(msg.contains("panic: size"), "report: {msg}");
        assert!(msg.contains("minimal size 3"), "report: {msg}");
    }

    #[test]
    fn case_generation_is_deterministic_per_seed() {
        let gen = |rng: &mut Rng, size: usize| gen_vec(rng, size, |r| r.next_u64());
        let a: Vec<Vec<u64>> = (0..10).map(|c| gen(&mut case_rng(9, c), 16)).collect();
        let b: Vec<Vec<u64>> = (0..10).map(|c| gen(&mut case_rng(9, c), 16)).collect();
        let c: Vec<Vec<u64>> = (0..10)
            .map(|case| gen(&mut case_rng(10, case), 16))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn all_rejected_run_fails_loudly() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            run(
                "impossible precondition",
                &Config {
                    cases: 5,
                    seed: 3,
                    max_size: 8,
                },
                |rng, _| rng.next_u64(),
                |_| {
                    prop_assume!(false);
                    Ok(())
                },
            )
        }))
        .expect_err("must fail");
        let msg = err.downcast_ref::<String>().cloned().unwrap();
        assert!(msg.contains("rejected"), "report: {msg}");
    }

    #[test]
    fn size_ramp_starts_small_and_reaches_max() {
        let cfg = Config {
            cases: 10,
            seed: 0,
            max_size: 64,
        };
        assert_eq!(case_size(&cfg, 0), 1);
        assert_eq!(case_size(&cfg, 9), 64);
        assert!(case_size(&cfg, 4) > 1 && case_size(&cfg, 4) < 64);
    }
}
