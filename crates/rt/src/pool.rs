//! Scoped worker pool: a task scheduler ([`Pool::scope`]) on borrowed
//! data, built on [`std::thread::scope`].
//!
//! A check runs on one thread, so the checker spawns no tasks. The
//! pool's callers are `pc-benchmark` (its spawn probe calls [`scope`],
//! its `--threads` sets [`THREADS_ENV`], its ledger reads
//! [`default_threads`]) and the `catch_unwind` sites that render a
//! payload with [`panic_message`]. Its next caller is a sweep that keeps
//! `PC_THREADS` cells in flight (ROADMAP item 1(c)). Workers share one
//! locked queue and take a task as soon as it is spawned, while the
//! caller is still spawning the rest.
//!
//! Results come back **by handle**, whatever order workers finish in,
//! and a panicking task yields `Err(message)` on its own handle instead
//! of aborting its siblings.
//!
//! The worker count is decided per [`Pool`]: explicitly via
//! [`Pool::with_threads`], or from the environment via [`Pool::new`]
//! (the `PC_THREADS` variable, else [`std::thread::available_parallelism`]).
//! `PC_THREADS=1` degenerates to running every task inline on the
//! calling thread, which is the reference behaviour for determinism
//! tests.
//!
//! # Example
//!
//! ```
//! use pc_rt::pool::{self, Pool};
//!
//! // Free function: pool sized from PC_THREADS / the machine.
//! let doubled: Vec<i32> = pool::scope(|sc| {
//!     let handles: Vec<_> = [1, 2, 3].map(|x| sc.spawn(move || x * 2)).into();
//!     handles.into_iter().map(|h| h.join().unwrap()).collect()
//! });
//! assert_eq!(doubled, vec![2, 4, 6]);
//!
//! // Explicit pool: deterministic single-threaded reference run.
//! let seq = Pool::with_threads(1).scope(|sc| sc.spawn(|| 21 * 2).join());
//! assert_eq!(seq, Ok(42));
//! ```

use crate::lock;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = crate::env::THREADS;

/// Number of workers a default-configured pool will use: `PC_THREADS`
/// if set to a positive integer, otherwise the machine's available
/// parallelism (1 if that cannot be determined).
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

/// A worker-pool configuration.
///
/// Threads are not kept alive between calls: each [`Pool::scope`] call
/// spawns scoped workers and joins them before returning.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

impl Pool {
    /// Pool sized by `PC_THREADS` / available parallelism.
    pub fn new() -> Pool {
        Pool {
            threads: default_threads(),
        }
    }

    /// Pool with an explicit worker count (`n == 0` is treated as 1).
    pub fn with_threads(n: usize) -> Pool {
        Pool { threads: n.max(1) }
    }

    /// The worker count this pool will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `body` with a [`TaskScope`]: tasks spawned via
    /// [`TaskScope::spawn`] execute on this pool's workers while `body`
    /// keeps running, and each returns a [`TaskHandle`] to join on.
    ///
    /// With one worker (`PC_THREADS=1`), spawned tasks run **inline**
    /// inside `spawn` — the deterministic sequential reference: the
    /// interleaving is exactly "spawn i, then task i".
    ///
    /// Panics inside a task are caught and surface as `Err(message)`
    /// from [`TaskHandle::join`], never aborting sibling tasks.
    pub fn scope<'env, R>(&self, body: impl FnOnce(&TaskScope<'_, 'env>) -> R) -> R {
        let workers = self.threads.max(1).saturating_sub(1).min(MAX_SCOPE_WORKERS);
        let sched = Sched {
            queue: Mutex::new((VecDeque::new(), false)),
            wake: Condvar::new(),
            inline: workers == 0,
        };
        if workers == 0 {
            let scope = TaskScope { sched: &sched };
            return body(&scope);
        }
        std::thread::scope(|ts| {
            let threads: Vec<_> = (0..workers)
                .map(|_| ts.spawn(|| sched.worker_loop()))
                .collect();
            let scope = TaskScope { sched: &sched };
            let out = body(&scope);
            sched.finish();
            // Join the threads, not only their closures (all `thread::scope`
            // waits for): a worker still exiting when the next scope spawns
            // holds its malloc arena, that spawn opens another, and the
            // process's peak RSS is whatever the race made it.
            threads.into_iter().for_each(|t| drop(t.join()));
            out
        })
    }
}

/// Upper bound on scope workers: every worker contends for the one
/// queue lock, so keep the fan-in sane even on very wide machines.
const MAX_SCOPE_WORKERS: usize = 64;

type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Shared scheduler state for one [`Pool::scope`] call: the queued jobs
/// and "the producer finished", under one lock, so a job is counted and
/// published in the same critical section and a worker that finds the
/// queue empty cannot miss the push that follows.
///
/// Jobs are pushed at the back and popped at the back — newest first.
/// A caller that joins its handles in spawn order, each on its own
/// condvar, is then woken once at the end of the drain instead of once
/// per task (join 0 returns, join 1 blocks, …): 19 % of a PR-tier
/// sweep's `pass_ms`, measured on a 2-core box with verdict tasks. A
/// `join` that runs queued tasks itself would make the order free to
/// choose.
struct Sched<'env> {
    queue: Mutex<(VecDeque<Job<'env>>, bool)>,
    wake: Condvar,
    /// No workers (`PC_THREADS=1`): `spawn` runs the task itself.
    inline: bool,
}

impl<'env> Sched<'env> {
    fn push(&self, job: Job<'env>) {
        lock(&self.queue).0.push_back(job);
        self.wake.notify_one();
    }

    /// Mark the producer done and wake everyone so idle workers can
    /// observe termination.
    fn finish(&self) {
        lock(&self.queue).1 = true;
        self.wake.notify_all();
    }

    fn worker_loop(&self) {
        let mut queue = lock(&self.queue);
        loop {
            if let Some(job) = queue.0.pop_back() {
                drop(queue);
                job();
                queue = lock(&self.queue);
            } else if queue.1 {
                return;
            } else {
                // Nothing queued and the producer is still running:
                // sleep until a push or finish wakes us.
                queue = self
                    .wake
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Handle to a task spawned on a [`TaskScope`]; [`join`](Self::join)
/// blocks until the task finishes and yields its result (`Err` holds
/// the panic message if the task panicked).
pub struct TaskHandle<T> {
    cell: std::sync::Arc<(Mutex<Option<Result<T, String>>>, Condvar)>,
}

impl<T> TaskHandle<T> {
    fn new() -> TaskHandle<T> {
        TaskHandle {
            cell: std::sync::Arc::new((Mutex::new(None), Condvar::new())),
        }
    }

    fn fill(&self, value: Result<T, String>) {
        let (slot, cv) = &*self.cell;
        *lock(slot) = Some(value);
        cv.notify_all();
    }

    /// Wait for the task and take its result.
    pub fn join(self) -> Result<T, String> {
        let (slot, cv) = &*self.cell;
        let mut guard = lock(slot);
        loop {
            if let Some(v) = guard.take() {
                return v;
            }
            guard = cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The spawning surface handed to [`Pool::scope`]'s closure.
///
/// `'env` is the lifetime of borrows the tasks may capture (everything
/// declared outside the `scope` call); all tasks complete before
/// `scope` returns, exactly like [`std::thread::scope`].
pub struct TaskScope<'sched, 'env> {
    sched: &'sched Sched<'env>,
}

impl<'env> TaskScope<'_, 'env> {
    /// Submit `f` to the pool, returning a handle to its result.
    ///
    /// On a single-threaded pool this runs `f` inline (catching panics
    /// identically) — the sequential reference interleaving.
    pub fn spawn<T, F>(&self, f: F) -> TaskHandle<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let handle = TaskHandle::new();
        let result_cell = TaskHandle {
            cell: handle.cell.clone(),
        };
        let run = move || {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .map_err(|e| panic_message(e.as_ref()));
            result_cell.fill(out);
        };
        if self.sched.inline {
            run();
        } else {
            self.sched.push(Box::new(run));
        }
        handle
    }
}

/// [`Pool::scope`] on a default-configured pool.
pub fn scope<'env, R>(body: impl FnOnce(&TaskScope<'_, 'env>) -> R) -> R {
    Pool::new().scope(body)
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

    #[test]
    fn with_threads_zero_means_one() {
        assert_eq!(Pool::with_threads(0).threads(), 1);
    }

    #[test]
    fn scope_tasks_all_run_and_join_in_order() {
        for threads in [1, 2, 4, 8] {
            let pool = Pool::with_threads(threads);
            let out: Vec<u64> = pool.scope(|sc| {
                let handles: Vec<_> = (0..100u64).map(|i| sc.spawn(move || i * 7)).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(out, (0..100).map(|i| i * 7).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn scope_pipelines_producer_and_consumers() {
        // A sequential producer holding &mut state spawns a task per
        // step; tasks borrow the produced value. The &mut producer
        // state and shared task captures coexist.
        let inputs: Vec<std::sync::OnceLock<u64>> = (0..50).map(|_| Default::default()).collect();
        let mut produced = 0u64; // &mut state only the producer touches
        let total: u64 = Pool::with_threads(4).scope(|sc| {
            let mut handles = Vec::new();
            for cell in &inputs {
                produced += 1;
                cell.set(produced).unwrap();
                handles.push(sc.spawn(move || cell.get().copied().unwrap() * 2));
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total, (1..=50).map(|i| i * 2).sum::<u64>());
        assert_eq!(produced, 50);
    }

    #[test]
    fn scope_catches_panics_per_task() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for threads in [1, 4] {
            let results: Vec<Result<usize, String>> = Pool::with_threads(threads).scope(|sc| {
                let handles: Vec<_> = (0..10)
                    .map(|i| {
                        sc.spawn(move || {
                            if i == 3 {
                                panic!("scope task {i} poisoned");
                            }
                            i
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            for (i, r) in results.iter().enumerate() {
                if i == 3 {
                    assert!(r.as_ref().unwrap_err().contains("poisoned"), "{r:?}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i);
                }
            }
        }
        std::panic::set_hook(prev);
    }

    /// One panicking task is one `Err` on its handle: the same pool
    /// then runs a healthy scope, and a mutex the task died holding
    /// still opens through [`lock`] with every completed update in it.
    #[test]
    fn a_panicking_task_is_followed_by_a_healthy_scope() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for threads in [1, 3] {
            let pool = Pool::with_threads(threads);
            let seen: Mutex<Vec<u64>> = Mutex::new(Vec::new());
            let died = pool.scope(|sc| {
                sc.spawn(|| {
                    let mut guard = lock(&seen);
                    guard.push(0);
                    panic!("task died holding the lock");
                })
                .join()
            });
            assert!(died.unwrap_err().contains("holding the lock"));
            assert!(seen.is_poisoned());
            let sum: u64 = pool.scope(|sc| {
                let handles: Vec<_> = (1..=20u64)
                    .map(|i| {
                        let seen = &seen;
                        sc.spawn(move || {
                            lock(seen).push(i);
                            i
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(sum, 210);
            assert_eq!(lock(&seen).len(), 21);
        }
        std::panic::set_hook(prev);
    }

    #[test]
    fn scope_multiple_workers_participate() {
        use std::sync::Mutex;
        let ids: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
        Pool::with_threads(5).scope(|sc| {
            let handles: Vec<_> = (0..64)
                .map(|_| {
                    sc.spawn(|| {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        let id = std::thread::current().id();
                        let mut guard = lock(&ids);
                        if !guard.contains(&id) {
                            guard.push(id);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert!(lock(&ids).len() > 1, "only one worker ran tasks");
    }

    /// The queue is popped newest-first, on purpose: a caller that joins
    /// its handles in spawn order would otherwise be woken once per task
    /// (see [`Sched`]).
    #[test]
    fn one_worker_runs_the_newest_queued_task_first() {
        use std::sync::mpsc::channel;
        let n = 8u32;
        let (parked_tx, parked_rx) = channel::<()>();
        let (gate_tx, gate_rx) = channel::<()>();
        let ran: Mutex<Vec<u32>> = Mutex::new(Vec::new());
        Pool::with_threads(2).scope(|sc| {
            // Park the one worker on a gate task, so 1..=n queue up.
            let gate = sc.spawn(move || {
                parked_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
            });
            parked_rx.recv().unwrap();
            let handles: Vec<_> = (1..=n)
                .map(|i| {
                    let ran = &ran;
                    sc.spawn(move || lock(ran).push(i))
                })
                .collect();
            gate_tx.send(()).unwrap();
            gate.join().unwrap();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(*lock(&ran), (1..=n).rev().collect::<Vec<_>>());
    }

    #[test]
    fn scope_tasks_spawned_late_still_run_after_body_returns_handles() {
        // Handles may be joined inside the scope in any order, including
        // immediately after spawn (producer-consumer lockstep).
        let out = Pool::with_threads(3).scope(|sc| {
            let mut acc = Vec::new();
            for i in 0..20 {
                let h = sc.spawn(move || i + 100);
                acc.push(h.join().unwrap());
            }
            acc
        });
        assert_eq!(out, (100..120).collect::<Vec<_>>());
    }

    #[test]
    fn scope_reports_non_string_panics() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = Pool::with_threads(2).scope(|sc| {
            let bad = sc.spawn(|| std::panic::panic_any(42usize));
            let good = sc.spawn(|| 7usize);
            (bad.join(), good.join())
        });
        std::panic::set_hook(prev);
        assert!(out.0.unwrap_err().contains("non-string"));
        assert_eq!(out.1, Ok(7));
    }

    /// ROADMAP item 0: `push` used to publish a job before counting it,
    /// so a fast worker could decrement the outstanding count below zero
    /// (debug: overflow panic + poisoned lock; release: idle workers
    /// spin). Trivial tasks on more workers than cores make the window
    /// wide; 64 rounds of 1 000 spawns failed every time at the old order.
    #[test]
    fn scope_spawn_storm_keeps_the_outstanding_count_consistent() {
        for round in 0..64u64 {
            let sum: u64 = Pool::with_threads(8).scope(|sc| {
                let handles: Vec<_> = (0..1000u64).map(|i| sc.spawn(move || i ^ round)).collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(sum, (0..1000u64).map(|i| i ^ round).sum::<u64>());
        }
    }
}
