//! Thread lifecycle of a pool: exactly `threads − 1` workers, spawned once,
//! all joined when the last clone drops.
//!
//! The only test of this binary, so no other test's threads come and go
//! while it counts this process's threads (the entries of
//! `/proc/self/task`, read-only).

use std::time::{Duration, Instant};

use gqos_parallel::WorkerPool;

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("Linux /proc")
        .count()
}

/// Waits until the thread count reads `want`; a joined thread leaves the
/// task list a moment after `join` returns.
fn settles_at(want: usize) -> bool {
    let give_up = Instant::now() + Duration::from_secs(5);
    while live_threads() != want {
        if Instant::now() > give_up {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

#[test]
fn workers_are_spawned_once_and_joined_on_last_drop() {
    let before = live_threads();
    for threads in [1, 2, 4, 8] {
        let pool = WorkerPool::new(threads);
        let spawned = threads.max(1) - 1;
        assert_eq!(live_threads(), before + spawned, "{threads} wide, fresh");
        for round in 0..100u64 {
            let out = pool.map((0..16).collect(), |x: u64| x + round);
            assert_eq!(out, (round..round + 16).collect::<Vec<_>>());
        }
        let clone = pool.clone();
        drop(pool);
        assert_eq!(clone.map(vec![1u64, 2, 3], |x| x * 2), vec![2, 4, 6]);
        assert_eq!(live_threads(), before + spawned, "{threads} wide, used");
        drop(clone);
        assert!(
            settles_at(before),
            "{threads} wide: {} threads left, {before} before",
            live_threads()
        );
    }
}
