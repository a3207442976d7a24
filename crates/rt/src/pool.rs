//! Inline task scope: [`TaskScope::spawn`] runs each task at once, on
//! the calling thread, under `catch_unwind`; a panic is an `Err` on the
//! task's own handle. A check and a sweep run on one thread, so nothing
//! in the checker spawns: the callers are `pc-benchmark` (its spawn
//! probe calls [`scope`], its ledger reads [`default_threads`]) and the
//! `catch_unwind` sites that render a payload with [`panic_message`].

use std::marker::PhantomData;

/// The environment variable [`default_threads`] reads.
pub const THREADS_ENV: &str = crate::env::THREADS;

/// `PC_THREADS` if set to a positive integer, otherwise the machine's
/// available parallelism (1 if that cannot be determined). No check or
/// sweep reads it; the wall-clock ledger records it.
pub fn default_threads() -> usize {
    if let Some(v) = crate::env::get(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `body` with a [`TaskScope`] (a call, nothing more).
pub fn scope<'env, R>(body: impl FnOnce(&TaskScope<'_, 'env>) -> R) -> R {
    body(&TaskScope(PhantomData))
}

/// The spawning surface handed to [`scope`]'s closure; `'env` is the
/// lifetime of the borrows its tasks may capture.
pub struct TaskScope<'scope, 'env>(PhantomData<(&'scope (), &'env ())>);

impl<'env> TaskScope<'_, 'env> {
    /// Run `f` now, catching a panic, and return a handle to its result.
    pub fn spawn<T, F>(&self, f: F) -> TaskHandle<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        TaskHandle(out.map_err(|e| panic_message(e.as_ref())))
    }
}

/// A spawned task's result (`Err` holds the panic message).
pub struct TaskHandle<T>(Result<T, String>);

impl<T> TaskHandle<T> {
    /// Take the task's result.
    pub fn join(self) -> Result<T, String> {
        self.0
    }
}

/// Extract a human-readable message from a caught panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock;

    /// A panic is an `Err` on its own handle, whatever its payload; a
    /// mutex the task died holding still opens through [`lock`] with its
    /// update in it, and the next scope runs every task.
    #[test]
    fn a_panicking_task_is_one_err_and_the_next_scope_is_healthy() {
        let seen = &std::sync::Mutex::new(Vec::new());
        let (died, odd, good) = scope(|sc| {
            let died = sc.spawn(|| {
                let mut held = lock(seen);
                held.push(0u64);
                panic!("task died holding the lock");
            });
            let odd = sc.spawn(|| std::panic::panic_any(42usize));
            (died.join(), odd.join(), sc.spawn(|| 7).join())
        });
        assert!(died.unwrap_err().contains("holding the lock"));
        assert!(odd.unwrap_err().contains("non-string"));
        assert_eq!(good, Ok(7));
        assert!(seen.is_poisoned());
        let task = |i| move || lock(seen).push(i);
        let sum: Result<u64, _> =
            scope(|sc| (1..=20).map(|i| sc.spawn(task(i)).join().map(|()| i)).sum());
        assert_eq!(sum, Ok(210));
        assert_eq!(lock(seen).len(), 21);
    }
}
