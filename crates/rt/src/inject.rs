//! `inject` — labelled injection points: where a test may crash the
//! process, and when.
//!
//! Product code marks an instant where a crash would bite with
//! [`point`]`(label, damage)`. A test [`arm`]s a label prefix, a hit
//! number `N` and one argument. From then on every point whose label
//! starts with the prefix counts one hit, before comparing; the `N`-th
//! calls `damage` with the argument, prints one line naming the label
//! and `N`, and panics, so one test process can die and resume many
//! times. Points of other labels count nothing. [`disarm`] returns the
//! hits counted, so a test counts an uninterrupted run's points by
//! arming a target the run never reaches (the schedule is exhausted).
//! Disarmed, a point is one relaxed load. Nothing reads the
//! environment: only a test arms a point.
//!
//! ```
//! use pc_rt::inject;
//!
//! inject::arm("log:", u64::MAX, 0);
//! for label in ["log:header", "log:append", "cell:a", "log:append"] {
//!     inject::point(label, |_| unreachable!("the target is never reached"));
//! }
//! assert_eq!(inject::disarm(), 3);
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

struct Target {
    prefix: String,
    at: u64,
    arg: u64,
    hits: u64,
}

/// `Relaxed`: the flag publishes nothing, the target sits behind its
/// mutex. A point on another thread that has not yet seen a fresh `arm`
/// misses that one hit.
static ARMED: AtomicBool = AtomicBool::new(false);
static TARGET: Mutex<Option<Target>> = Mutex::new(None);

/// Fire at the `at`-th hit (1-based) of a point labelled `prefix…`,
/// handing it `arg`. Replaces any armed target and restarts the count.
pub fn arm(prefix: &str, at: u64, arg: u64) {
    *crate::lock(&TARGET) = Some(Target {
        prefix: prefix.to_string(),
        at,
        arg,
        hits: 0,
    });
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarm; returns the hits of the armed prefix counted since [`arm`].
pub fn disarm() -> u64 {
    ARMED.store(false, Ordering::Relaxed);
    crate::lock(&TARGET).take().map_or(0, |t| t.hits)
}

/// An injection point. When this hit is the armed one: `damage(arg)`,
/// one line on stderr, then a panic.
#[inline]
pub fn point(label: &str, damage: impl FnOnce(u64)) {
    if ARMED.load(Ordering::Relaxed) {
        hit(label, damage);
    }
}

#[cold]
fn hit(label: &str, damage: impl FnOnce(u64)) {
    let (n, arg) = {
        let mut target = crate::lock(&TARGET);
        let Some(t) = target.as_mut().filter(|t| label.starts_with(&t.prefix)) else {
            return;
        };
        t.hits += 1;
        if t.hits != t.at {
            return;
        }
        (t.hits, t.arg)
    };
    damage(arg);
    eprintln!("pc-inject: crash at {label} (hit {n})");
    panic!("injected crash at {label} (hit {n})");
}

/// The armed target is process-global: every test of this crate that
/// arms it, or passes a point, holds this lock.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn fires_once_at_the_nth_hit_of_the_armed_prefix() {
        let _g = crate::lock(&TEST_LOCK);
        point("a:x", |_| unreachable!("disarmed"));
        arm("a:", 2, 7);
        point("b:x", |_| unreachable!("another prefix"));
        point("a:x", |_| unreachable!("hit 1"));
        let mut got = None;
        let fired = catch_unwind(AssertUnwindSafe(|| point("a:y", |arg| got = Some(arg))));
        let msg = fired
            .expect_err("hit 2 fires")
            .downcast::<String>()
            .unwrap();
        assert_eq!(
            (*msg, got),
            ("injected crash at a:y (hit 2)".into(), Some(7))
        );
        point("a:z", |_| unreachable!("past the target"));
        assert_eq!(disarm(), 3);
        assert_eq!(disarm(), 0);
    }
}
