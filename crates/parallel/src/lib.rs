//! A small persistent worker pool with deterministic result assembly.
//!
//! The experiment harness, the capacity planner and the ingest gateway all
//! fan out over *independent* cells — (workload, deadline) grid points,
//! figure sections, planner probes, tenant lanes. This crate provides the
//! one primitive they need: [`WorkerPool::map`], which runs a function over
//! a batch of items on a fixed number of threads and returns the results
//! **in item order**, regardless of which thread finished when. Determinism
//! is positional: result `i` always comes from item `i`, so a parallel run
//! assembles bit-for-bit the same output as a serial one as long as the
//! per-item function is itself deterministic.
//!
//! A pool of width `n` spawns its `n − 1` workers once and parks them on a
//! condvar between calls; the thread that calls `map` is the `n`-th worker.
//! A call publishes one job (a claim loop over an atomic work index), runs
//! that job itself, and returns only once no worker still holds it. Calls
//! far shorter than a thread spawn therefore still pay off. The pool is
//! dependency-free because the build environment has no access to
//! crates.io.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A fixed-width pool: `threads − 1` parked workers plus the caller.
///
/// Clones share the same workers; dropping the last clone stops and joins
/// them. A `map` that finds the workers busy — called from inside one of
/// their jobs, or concurrently through another clone — runs its batch on
/// the calling thread alone, with the same positional result.
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
#[derive(Clone)]
pub struct WorkerPool {
    threads: usize,
    /// `None` for a serial pool.
    workers: Option<Arc<Workers>>,
}

impl WorkerPool {
    /// Creates a pool that runs `threads` workers, spawning `threads − 1`
    /// threads now; `0` and `1` both mean serial execution on the calling
    /// thread, with no thread spawned.
    ///
    /// # Panics
    ///
    /// If the operating system refuses to spawn a worker thread.
    pub fn new(threads: usize) -> Self {
        let workers = (threads > 1).then(|| {
            let mut workers = Workers {
                shared: Arc::new(Shared::default()),
                handles: Vec::with_capacity(threads - 1),
            };
            for i in 1..threads {
                let shared = Arc::clone(&workers.shared);
                let handle = std::thread::Builder::new()
                    .name(format!("gqos-worker-{i}"))
                    .spawn(move || shared.work())
                    .expect("spawn a pool worker");
                workers.handles.push(handle);
            }
            Arc::new(workers)
        });
        WorkerPool { threads, workers }
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

    /// The engine behind `map`: every task runs under `catch_unwind`, so a
    /// panic is just another per-slot result and the job itself never
    /// unwinds.
    fn run_caught<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<Result<R, Box<dyn Any + Send>>>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        let workers = match &self.workers {
            Some(workers) if n > 1 => workers,
            _ => {
                return items
                    .into_iter()
                    .map(|item| catch_unwind(AssertUnwindSafe(|| f(item))))
                    .collect()
            }
        };

        // Hand-rolled work queue: each slot is taken exactly once, each
        // result written exactly once; the mutexes are uncontended (a
        // worker only touches the slot whose index it claimed).
        type Slot<R> = Mutex<Option<Result<R, Box<dyn Any + Send>>>>;
        let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Slot<R>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let claim = || loop {
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
        };
        workers.shared.broadcast(&claim);
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

/// Pools of equal width are interchangeable: no result depends on which
/// one ran it.
impl PartialEq for WorkerPool {
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads
    }
}

impl Eq for WorkerPool {}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

/// A published job with its borrow erased; see [`Shared::broadcast`].
type Job = &'static (dyn Fn() + Sync);

/// The spawned workers of one pool, shared by its clones.
struct Workers {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            // A worker never unwinds (every task runs under
            // `catch_unwind`), and `drop` must not panic.
            let _ = handle.join();
        }
    }
}

/// What the caller and the parked workers synchronise on.
#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Workers park here until a job is published or the pool shuts down.
    wake: Condvar,
    /// The publishing caller waits here until no worker holds its job.
    idle: Condvar,
}

#[derive(Default)]
struct State {
    /// The published job; `None` between calls.
    job: Option<Job>,
    /// Bumped on every publish, so a worker takes each job at most once.
    generation: u64,
    /// Workers that took the published job and have not let go of it.
    holders: usize,
    /// A caller owns the workers, from publish until its latch opens.
    busy: bool,
    shutdown: bool,
}

impl Shared {
    /// Locks the state. Every critical section leaves it valid, and the
    /// latch must hold even after a panic elsewhere, so a poisoned lock
    /// is taken as is.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A worker's life: run each published job once, park in between,
    /// return on shutdown.
    fn work(&self) {
        let mut seen = 0;
        let mut state = self.lock();
        loop {
            if state.shutdown {
                return;
            }
            match state.job {
                Some(job) if state.generation != seen => {
                    seen = state.generation;
                    state.holders += 1;
                    drop(state);
                    job();
                    state = self.lock();
                    state.holders -= 1;
                    if state.holders == 0 {
                        self.idle.notify_one();
                    }
                }
                _ => {
                    state = self
                        .wake
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
    }

    /// Runs `job` on the calling thread and on every parked worker, and
    /// returns once no worker still holds it. If another call owns the
    /// workers, `job` runs on the calling thread alone.
    fn broadcast(&self, job: &(dyn Fn() + Sync)) {
        let mut state = self.lock();
        if state.busy {
            drop(state);
            job();
            return;
        }
        // SAFETY: `job` borrows the caller's frame, which the erased
        // `'static` outlives; no worker may touch it once this function
        // returns. `Latch::drop` guarantees that: under the lock it clears
        // `state.job`, then waits until `state.holders` is 0. A worker
        // copies the job out and counts itself in `holders` in one
        // critical section, and only lets go of it after the call returns;
        // a worker that wakes after the clear finds `None` and does not
        // touch it. The latch is a local of this frame, so it runs whether
        // the caller's own share below returns or unwinds.
        let erased: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) };
        state.job = Some(erased);
        state.generation += 1;
        state.busy = true;
        drop(state);
        self.wake.notify_all();
        let _latch = Latch(self);
        job();
    }
}

/// Retires a published job: clears it, then holds the caller until every
/// worker that took it has let go.
struct Latch<'a>(&'a Shared);

impl Drop for Latch<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.job = None;
        while state.holders > 0 {
            state = self
                .0
                .idle
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.busy = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;
    use std::time::Duration;

    const WIDTHS: [usize; 4] = [1, 2, 4, 8];

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
        for threads in WIDTHS {
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
        for threads in WIDTHS {
            let pool = WorkerPool::new(threads);
            let ran = AtomicU64::new(0);
            let message = map_panic_message(&pool, (0..64).collect(), |x| {
                ran.fetch_add(1, Ordering::Relaxed);
                assert!(x != 31, "boom at {x}");
                x
            });
            assert!(
                message.contains("boom at 31"),
                "{threads} threads: {message}"
            );
            assert_eq!(ran.load(Ordering::Relaxed), 64, "all items should run");
            let healthy = pool.map((0..64u64).collect(), |x| x + 1);
            assert_eq!(healthy, (1..65).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_map_runs_on_the_calling_thread() {
        // The outer call owns the workers, so every inner call finds the
        // pool busy and runs its batch serially, positionally.
        for threads in WIDTHS {
            let pool = WorkerPool::new(threads);
            let out = pool.map((0..16u64).collect(), |x| {
                pool.map((0..x).collect(), |y| y * y).iter().sum::<u64>()
            });
            let serial: Vec<u64> = (0..16u64).map(|x| (0..x).map(|y| y * y).sum()).collect();
            assert_eq!(out, serial, "{threads} threads");
        }
    }

    #[test]
    fn clones_mapping_concurrently_agree_with_serial() {
        let serial: Vec<u64> = (0..2000u64).map(|x| x.wrapping_mul(0x9E37)).collect();
        for threads in WIDTHS {
            let pool = WorkerPool::new(threads);
            let start = Barrier::new(2);
            let agreed: Vec<bool> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        let (clone, start, serial) = (pool.clone(), &start, &serial);
                        scope.spawn(move || {
                            start.wait();
                            (0..50).all(|_| {
                                clone.map((0..2000u64).collect(), |x| x.wrapping_mul(0x9E37))
                                    == *serial
                            })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("mapper"))
                    .collect()
            });
            assert_eq!(agreed, [true, true], "{threads} threads");
        }
    }

    #[test]
    fn a_panic_in_the_callers_share_waits_for_the_workers() {
        // Two items, caller plus one worker: the barrier forces each to
        // hold one item. The caller's item panics while the worker's is
        // still running; `map` must not unwind before the worker is done.
        let pool = WorkerPool::new(2);
        let caller = std::thread::current().id();
        let both_started = Barrier::new(2);
        let worker_done = AtomicU64::new(0);
        let message = map_panic_message(&pool, vec![0, 1], |x| {
            both_started.wait();
            if std::thread::current().id() == caller {
                panic!("caller share {x}");
            }
            std::thread::sleep(Duration::from_millis(50));
            worker_done.store(1, Ordering::SeqCst);
            x
        });
        assert!(message.contains("caller share"), "{message}");
        assert_eq!(worker_done.load(Ordering::SeqCst), 1, "map returned early");
    }

    #[test]
    fn many_tiny_maps_back_to_back_finish() {
        let pool = WorkerPool::new(2);
        let mut total = 0u64;
        for round in 0..10_000u64 {
            total += pool.map(vec![round, 1], |x| x).iter().sum::<u64>();
        }
        assert_eq!(total, (0..10_000u64).sum::<u64>() + 10_000);
    }

    #[test]
    fn clones_share_workers_and_compare_by_width() {
        let pool = WorkerPool::new(3);
        let clone = pool.clone();
        assert!(Arc::ptr_eq(
            pool.workers.as_ref().expect("3 wide"),
            clone.workers.as_ref().expect("3 wide")
        ));
        assert_eq!(pool, WorkerPool::new(3));
        assert_ne!(pool, WorkerPool::serial());
        assert!(WorkerPool::new(0).workers.is_none() && WorkerPool::new(1).is_serial());
    }
}
