//! Controller-vs-oracle properties: on a piecewise-constant drift the
//! bisection loop converges to the static planner's exact quote.
//!
//! The verdict predicate ([`WindowVerdict::classify`] over the analytic
//! window sketch) is exactly the miss-budget test
//! [`CapacityPlanner::min_capacity`] bisects on, so for a lone tenant over a
//! perfect channel the loop's fixed point is pinned analytically:
//!
//! - If the tail of the final segment is **command-free**, the loop
//!   settled: its share meets the SLO but sits below the slack quote
//!   `Cs = Cmin(f, 3δ/4)` (the silent Meet band), i.e. within
//!   `[Cmin, max(Cmin, Cs)]` — or exactly at the capacity floor.
//! - If the tail still **carries commands**, the share sits at the
//!   slack quote itself (`Cmin == Cs`, every meeting share is Slack):
//!   the loop runs bounded re-probe cycles whose ceiling — the maximum
//!   intended share across a full cycle — is exactly `Cmin`, reached
//!   and held between probes. Never above, never settling below.
//!
//! Either way, the converged share equals the static quote to within
//! the one-step tolerance the silent band allows, for every seed, every
//! admissible gain, and drifts of one to three segments.
//!
//! [`WindowVerdict::classify`]: gqos_control::WindowVerdict::classify
//! [`CapacityPlanner::min_capacity`]: gqos_core::CapacityPlanner::min_capacity

use gqos_control::{SloScenario, SloScenarioConfig, SloTarget};
use gqos_core::CapacityPlanner;
use gqos_trace::{SimTime, Workload};
use proptest::prelude::*;

/// Windows per segment: long enough that growth (≤ 8 doublings from the
/// floor), one full down-and-up bisection (≤ ~13 probes), and a whole
/// re-probe cycle (TTL 8 + descent + re-bisection ≈ 22 windows) all fit
/// before the asserted tail begins.
const WINDOWS_PER_SEGMENT: u32 = 80;

/// The asserted tail: longer than one full re-probe cycle, so a cycling
/// loop provably touches its ceiling (`Cmin`) inside it.
const TAIL: u32 = 40;

/// The static planner's quote at the shrunk deadline `3δ/4`: the upper
/// edge of the silent Meet band.
fn slack_quote(offsets: &[u64], slo: SloTarget) -> u64 {
    let workload = Workload::from_arrivals(offsets.iter().map(|&o| SimTime::from_nanos(o)));
    CapacityPlanner::new(&workload, slo.slack_deadline())
        .min_capacity(slo.fraction())
        .get() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The loop's converged share equals the static quote `Cmin(f, δ)`
    /// within one bisection step, for arbitrary seeds, gains, and
    /// drift lengths.
    #[test]
    fn converged_share_is_the_static_quote(
        seed in any::<u64>(),
        segments in 1usize..=3,
        gain in 9u32..=24,
    ) {
        let cfg = SloScenarioConfig {
            tenants: 1,
            segments,
            windows_per_segment: WINDOWS_PER_SEGMENT,
            gain,
            ..SloScenarioConfig::default()
        };
        let scenario = SloScenario::generate(seed, cfg);
        let last = segments - 1;
        // A quiet final segment says nothing about convergence: skip.
        if scenario.pattern(0, last).is_empty() {
            return Ok(());
        }
        let slo = cfg.slo;
        let floor = slo.capacity_floor();
        let cmin = scenario.oracle_quote(0, last).max(floor);
        let cs = slack_quote(scenario.pattern(0, last), slo).max(floor);
        let run = scenario.execute(1);
        let total = segments as u32 * WINDOWS_PER_SEGMENT;
        let tail: Vec<_> = run
            .records
            .iter()
            .filter(|r| r.window >= total - TAIL)
            .collect();
        prop_assert_eq!(tail.len(), TAIL as usize);
        prop_assert_eq!(run.controller.stats().frozen, 0);
        if tail.iter().any(|r| r.commanded) {
            // Re-probe cycles: their ceiling is the exact quote.
            let peak = tail.iter().map(|r| r.intended).max().unwrap();
            prop_assert_eq!(
                peak, cmin,
                "seed {:#x}: cycling loop peaked at {} instead of Cmin {}",
                seed, peak, cmin
            );
        } else {
            // Settled: inside the silent band, or clamped at the floor.
            let share = tail.last().unwrap().intended;
            prop_assert!(
                share >= cmin && share <= cmin.max(cs),
                "seed {:#x}: settled at {} outside [{}, {}]",
                seed, share, cmin, cmin.max(cs)
            );
        }
    }
}
