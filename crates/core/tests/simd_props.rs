//! Differential property tests: the batched (SIMD) grid kernels —
//! [`overflow_curve`] and [`within_miss_budget_curve`] — must be
//! bit-identical to the scalar single-capacity oracle [`overflow_count`]
//! (a budget is met exactly when `overflow_count(..) <= budget`) for every
//! grid length
//! around the lane width (0 ..= 2×8 covers full batches, empty grids, and
//! every scalar-remainder size), over randomised bursty workloads,
//! including workloads whose emulated completions pass the end of the
//! `u64` clock. The batched tiles and the scalar scan run the same work
//! recurrence; `columnar_props` holds both to an independent
//! per-completion loop. No external property-testing crate: a
//! deterministic splitmix-style generator drives the rounds.

use gqos_core::{overflow_count, overflow_curve, within_miss_budget_curve};
use gqos_trace::{Iops, SimDuration, SimTime, Workload};

/// Deterministic 64-bit generator (splitmix64) so failures replay exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// A bursty arrival stream: mostly small gaps, occasional long idle
    /// stretches, and runs of identical timestamps (ties are legal).
    fn workload(&mut self, len: usize, start: u64) -> Workload {
        let mut t = start;
        let arrivals = (0..len)
            .map(|_| {
                t += match self.below(10) {
                    0..=5 => self.below(2_000_000), // ≤ 2 ms
                    6..=7 => 0,                     // a tie (burst)
                    8 => self.below(200_000_000),   // ≤ 200 ms idle
                    _ => self.below(5_000_000_000), // ≤ 5 s idle
                };
                SimTime::from_nanos(t)
            })
            .collect::<Vec<_>>();
        Workload::from_arrivals(arrivals)
    }

    /// A capacity grid of the given length, unsorted and with possible
    /// duplicates; every capacity yields at least one queue slot at a
    /// 10 ms deadline (the non-degenerate regime both paths accept).
    fn grid(&mut self, len: usize) -> Vec<Iops> {
        (0..len)
            .map(|_| Iops::new((101 + self.below(5_000)) as f64))
            .collect()
    }
}

const DEADLINE: SimDuration = SimDuration::from_millis(10);
/// Twice the widest SIMD batch (LANE_BATCH = 8 lanes).
const MAX_GRID: usize = 16;

#[test]
fn overflow_curve_is_bit_identical_to_the_scalar_oracle() {
    let mut rng = Rng(0xf00d_0001);
    for round in 0..60 {
        let len = (rng.below(400) + 1) as usize;
        let workload = rng.workload(len, 0);
        for len in 0..=MAX_GRID {
            let grid = rng.grid(len);
            let batched = overflow_curve(&workload, &grid, DEADLINE);
            let scalar: Vec<u64> = grid
                .iter()
                .map(|&c| overflow_count(&workload, c, DEADLINE))
                .collect();
            assert_eq!(batched, scalar, "round {round}, grid length {len}");
        }
    }
}

#[test]
fn budget_curve_is_bit_identical_to_the_scalar_oracle() {
    let mut rng = Rng(0xf00d_0002);
    for round in 0..60 {
        let len = (rng.below(400) + 1) as usize;
        let workload = rng.workload(len, 0);
        let budget = rng.below(workload.len() as u64 + 1);
        for len in 0..=MAX_GRID {
            let grid = rng.grid(len);
            let batched = within_miss_budget_curve(&workload, &grid, DEADLINE, budget);
            let scalar: Vec<bool> = grid
                .iter()
                .map(|&c| overflow_count(&workload, c, DEADLINE) <= budget)
                .collect();
            assert_eq!(batched, scalar, "round {round}, grid length {len}");
        }
    }
}

/// Arrivals in the last 40 s of representable time, and the same
/// arrivals shifted so the last lands on `u64::MAX` (their emulated
/// completions pass the clock), run on the batched lanes like any other;
/// every grid shape must still agree element-wise with the oracle.
#[test]
fn horizon_adjacent_workloads_still_match_the_oracle() {
    let mut rng = Rng(0xf00d_0003);
    let start = u64::MAX - 40_000_000_000; // 40 s of headroom before the horizon
    for round in 0..20 {
        let workload = rng.workload(50, start);
        let col = workload.arrival_column().nanos();
        let shift = u64::MAX - col.last().expect("non-empty");
        let at_the_end =
            Workload::from_arrivals(col.iter().map(|&t| SimTime::from_nanos(t + shift)));
        for len in [1, 7, 8, 9, 16] {
            let grid = rng.grid(len);
            for workload in [&workload, &at_the_end] {
                let batched = overflow_curve(workload, &grid, DEADLINE);
                let scalar: Vec<u64> = grid
                    .iter()
                    .map(|&c| overflow_count(workload, c, DEADLINE))
                    .collect();
                assert_eq!(batched, scalar, "round {round}, grid length {len}");
            }
        }
    }
}

/// The empty workload is a fixed point of both paths: no arrivals, no
/// overflow, every budget met.
#[test]
fn empty_workload_matches_on_every_grid_length() {
    let mut rng = Rng(0xf00d_0004);
    let workload = Workload::from_arrivals(Vec::<SimTime>::new());
    for len in 0..=MAX_GRID {
        let grid = rng.grid(len);
        assert_eq!(overflow_curve(&workload, &grid, DEADLINE), vec![0u64; len]);
        assert_eq!(
            within_miss_budget_curve(&workload, &grid, DEADLINE, 0),
            vec![true; len]
        );
    }
}
