//! A small scoped worker pool with deterministic result assembly.
//!
//! The experiment harness and the capacity planner both fan out over
//! *independent* cells — (workload, deadline) grid points, figure sections,
//! planner probes. This crate provides the one primitive they need:
//! [`WorkerPool::map`], which runs a function over a batch of items on a
//! fixed number of scoped threads and returns the results **in item
//! order**, regardless of which thread finished when. Determinism is
//! positional: result `i` always comes from item `i`, so a parallel run
//! assembles bit-for-bit the same output as a serial one as long as the
//! per-item function is itself deterministic.
//!
//! The pool is dependency-free (`std::thread::scope` + an atomic work
//! index) because the build environment has no access to crates.io.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-width pool of scoped worker threads.
///
/// # Examples
///
/// ```
/// use gqos_parallel::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let squares = pool.map((0..8u64).collect(), |x| x * x);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// Creates a pool that runs `threads` workers; `0` and `1` both mean
    /// serial execution on the calling thread.
    pub fn new(threads: usize) -> Self {
        WorkerPool { threads }
    }

    /// A serial pool (all work on the calling thread).
    pub fn serial() -> Self {
        WorkerPool::new(1)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` if this pool runs everything on the calling thread.
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Applies `f` to every item, returning results in item order.
    ///
    /// Items are claimed by workers through a shared atomic index, so the
    /// *execution* order is nondeterministic, but each result lands in the
    /// slot of the item that produced it — the assembled `Vec` does not
    /// depend on scheduling. With a serial pool (or a single item) this is
    /// exactly `items.into_iter().map(f).collect()` on the calling thread.
    ///
    /// # Panics
    ///
    /// Propagates the first panic (in item order) once every item has run.
    /// A panicking task cannot hang the pool or corrupt other results.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let mut out = Vec::with_capacity(items.len());
        for caught in self.run_caught(items, f) {
            match caught {
                Ok(r) => out.push(r),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    }

    /// The engine behind `map`: every task runs under
    /// `catch_unwind`, so a panic is just another per-slot result and the
    /// scoped threads always join cleanly.
    fn run_caught<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<Result<R, Box<dyn Any + Send>>>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        if self.is_serial() || n <= 1 {
            return items
                .into_iter()
                .map(|item| catch_unwind(AssertUnwindSafe(|| f(item))))
                .collect();
        }

        // Hand-rolled work queue: each slot is taken exactly once, each
        // result written exactly once; the mutexes are uncontended (a
        // worker only touches the slot whose index it claimed).
        type Slot<R> = Mutex<Option<Result<R, Box<dyn Any + Send>>>>;
        let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Slot<R>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let f = &f;
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .expect("work slot poisoned")
                        .take()
                        .expect("work item claimed twice");
                    let result = catch_unwind(AssertUnwindSafe(|| f(item)));
                    *results[i].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker left a result slot empty")
            })
            .collect()
    }

    /// Runs a batch of independent closures, returning their results in
    /// batch order — [`map`](WorkerPool::map) for heterogeneous tasks.
    pub fn run<R, F>(&self, tasks: Vec<F>) -> Vec<R>
    where
        R: Send,
        F: FnOnce() -> R + Send,
    {
        self.map(tasks, |task| task())
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..100).collect();
        let serial = WorkerPool::serial().map(items.clone(), |x| x.wrapping_mul(x) ^ 0xabcd);
        for threads in [2, 3, 8, 64] {
            let parallel =
                WorkerPool::new(threads).map(items.clone(), |x| x.wrapping_mul(x) ^ 0xabcd);
            assert_eq!(serial, parallel, "{threads} threads");
        }
    }

    #[test]
    fn results_are_in_item_order_not_completion_order() {
        // Later items finish first (earlier ones spin longer); order must
        // still be positional.
        let out = WorkerPool::new(4).map((0..16u64).collect(), |i| {
            let mut acc = 0u64;
            for _ in 0..(16 - i) * 10_000 {
                acc = acc.wrapping_add(i).rotate_left(1);
            }
            (i, std::hint::black_box(acc))
        });
        let indices: Vec<u64> = out.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let count = AtomicU64::new(0);
        let out = WorkerPool::new(8).map((0..1000u64).collect(), |x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn empty_and_singleton_batches() {
        let empty: Vec<u64> = WorkerPool::new(4).map(Vec::new(), |x: u64| x);
        assert!(empty.is_empty());
        assert_eq!(WorkerPool::new(4).map(vec![7u64], |x| x + 1), vec![8]);
    }

    #[test]
    fn run_executes_heterogeneous_closures_in_order() {
        let tasks: Vec<Box<dyn FnOnce() -> String + Send>> = vec![
            Box::new(|| "first".to_string()),
            Box::new(|| format!("{}", 2 * 21)),
            Box::new(|| "third".to_string()),
        ];
        let out = WorkerPool::new(2).run(tasks);
        assert_eq!(out, vec!["first", "42", "third"]);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let _ = WorkerPool::new(2).map(vec![0u64, 1, 2, 3], |x| {
            assert!(x != 2, "boom");
            x
        });
    }

    /// Runs `pool.map` and returns the message of the panic it propagates.
    fn map_panic_message(
        pool: &WorkerPool,
        items: Vec<u64>,
        f: impl Fn(u64) -> u64 + Sync,
    ) -> String {
        let payload =
            catch_unwind(AssertUnwindSafe(|| pool.map(items, f))).expect_err("a task panics");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn map_propagates_first_panic_in_item_order() {
        // Items 9 and 2 both panic; regardless of which thread hits which
        // first, the propagated panic is deterministic: item order wins.
        for threads in [1, 2, 4] {
            let message = map_panic_message(&WorkerPool::new(threads), (0..12).collect(), |x| {
                assert!(x != 2 && x != 9, "bad item {x}");
                x
            });
            assert!(
                message.contains("bad item 2"),
                "{threads} threads: {message}"
            );
        }
    }

    #[test]
    fn panicking_task_does_not_hang_or_poison_the_pool() {
        // A panic in one slot must not leave the pool wedged: every other
        // item still runs, and the same pool keeps working afterwards.
        let pool = WorkerPool::new(4);
        let ran = AtomicU64::new(0);
        let message = map_panic_message(&pool, (0..64).collect(), |x| {
            ran.fetch_add(1, Ordering::Relaxed);
            assert!(x != 31, "boom at {x}");
            x
        });
        assert!(message.contains("boom at 31"), "{message}");
        assert_eq!(ran.load(Ordering::Relaxed), 64, "all items should run");
        let healthy = pool.map((0..64u64).collect(), |x| x + 1);
        assert_eq!(healthy.len(), 64);
    }
}
