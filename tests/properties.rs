//! Property-based tests of the core invariants, spanning crates.

use proptest::prelude::*;

use gqos::core::{
    capacity_floor, optimal_drop_lower_bound, overflow_count, within_miss_budget_curve,
};
use gqos::sim::{simulate, FcfsScheduler, FixedRateServer, ServiceClass};
use gqos::{
    decompose, CapacityPlanner, Iops, MiserScheduler, Provision, SimDuration, SimTime, Workload,
};

/// Arbitrary small arrival pattern: up to `n` requests within `max_ms`
/// milliseconds.
fn arrivals(n: usize, max_ms: u64) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..max_ms, 1..=n)
}

/// Brute-force maximum subset of requests servable within the deadline on a
/// dedicated rate-`C` FCFS server (EDF = FCFS for uniform deadlines).
fn brute_force_max_kept(w: &Workload, c: Iops, delta: SimDuration) -> u64 {
    let n = w.len();
    assert!(n <= 14);
    let service = c.service_time();
    let mut best = 0u64;
    'subsets: for mask in 0..(1u32 << n) {
        let kept = mask.count_ones() as u64;
        if kept <= best {
            continue;
        }
        let mut free_at = SimTime::ZERO;
        for (i, r) in w.iter().enumerate() {
            if mask & (1 << i) == 0 {
                continue;
            }
            let start = free_at.max(r.arrival);
            let done = start + service;
            if done > r.arrival + delta {
                continue 'subsets;
            }
            free_at = done;
        }
        best = kept;
    }
    best
}

/// `Cmin(f, δ)` by definition, checked without the planner's search: RTT
/// guarantees `f` at `c`, and misses it at `c − 1` whenever `c − 1` is
/// still a capacity with a non-degenerate bound (at or above `⌈1/δ⌉`).
fn is_cmin(planner: &CapacityPlanner<'_>, c: Iops, f: f64) -> Result<(), TestCaseError> {
    let floor = capacity_floor(planner.deadline()) as f64;
    prop_assert!(
        c.get() >= floor,
        "Cmin {} below the floor {}",
        c.get(),
        floor
    );
    prop_assert!(
        planner.fraction_guaranteed(c) >= f,
        "Cmin {} does not guarantee f={}",
        c.get(),
        f
    );
    let below = c.get() - 1.0;
    if below >= floor {
        prop_assert!(
            planner.fraction_guaranteed(Iops::new(below)) < f,
            "Cmin {} not minimal for f={}",
            c.get(),
            f
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// RTT admits exactly as many requests as the offline optimum — the
    /// paper's central optimality theorem, verified against brute force.
    #[test]
    fn rtt_matches_brute_force_optimum(ms in arrivals(12, 60)) {
        let w = Workload::from_arrivals(ms.iter().map(|&m| SimTime::from_millis(m)));
        let c = Iops::new(100.0); // 10 ms service
        let delta = SimDuration::from_millis(20); // maxQ1 = 2
        let d = decompose(&w, c, delta);
        let best = brute_force_max_kept(&w, c, delta);
        prop_assert_eq!(d.primary_count(), best,
            "RTT kept {} vs optimal {}", d.primary_count(), best);
    }

    /// The miss-budget test agrees with the full decomposition *and* with
    /// the brute-force optimum: `overflow_count` is exactly what
    /// [`decompose`] diverts and what the offline-best subset leaves out,
    /// so a budget is met exactly when that drop fits it, and the fused
    /// budget probe gives the same verdict.
    #[test]
    fn budget_probe_matches_decompose_and_brute_force(
        ms in arrivals(12, 60),
        budget in 0u64..14,
    ) {
        let w = Workload::from_arrivals(ms.iter().map(|&m| SimTime::from_millis(m)));
        let c = Iops::new(100.0); // 10 ms service
        let delta = SimDuration::from_millis(20); // maxQ1 = 2
        let full = decompose(&w, c, delta);
        let overflow = overflow_count(&w, c, delta);
        let best_kept = brute_force_max_kept(&w, c, delta);

        // RTT is optimal, so the overflow count is exactly n - best_kept and
        // the budget test reduces to comparing against the brute-force drop.
        prop_assert_eq!(overflow, full.overflow_count());
        prop_assert_eq!(full.primary_count(), best_kept);
        prop_assert_eq!(overflow, w.len() as u64 - best_kept);
        let feasible = w.len() as u64 - best_kept <= budget;
        prop_assert_eq!(within_miss_budget_curve(&w, &[c], delta, budget), vec![feasible]);
    }

    /// RTT never drops fewer than the Lemma 1 lower bound permits (sanity:
    /// the bound really is a lower bound on RTT too).
    #[test]
    fn lemma1_bound_is_respected(ms in arrivals(40, 200), cap in 50u64..400) {
        let w = Workload::from_arrivals(ms.iter().map(|&m| SimTime::from_millis(m)));
        let c = Iops::new(cap as f64);
        let delta = SimDuration::from_millis(25);
        if c.requests_within(delta) == 0 {
            return Ok(());
        }
        let d = decompose(&w, c, delta);
        let bound = optimal_drop_lower_bound(&w, c, delta);
        prop_assert!(d.overflow_count() >= bound,
            "RTT dropped {} below the lower bound {}", d.overflow_count(), bound);
    }

    /// Every request RTT admits meets its deadline on a dedicated rate-C
    /// FCFS server — the guarantee that justifies calling Q1 "guaranteed".
    #[test]
    fn admitted_requests_always_meet_deadlines(
        ms in arrivals(60, 300),
        cap in 100u64..800,
        delta_ms in 5u64..50,
    ) {
        let w = Workload::from_arrivals(ms.iter().map(|&m| SimTime::from_millis(m)));
        let c = Iops::new(cap as f64);
        let delta = SimDuration::from_millis(delta_ms);
        if c.requests_within(delta) == 0 {
            return Ok(());
        }
        let d = decompose(&w, c, delta);
        let (q1, _) = d.split(&w);
        let report = simulate(&q1, FcfsScheduler::new(), FixedRateServer::new(c));
        prop_assert_eq!(report.completed(), q1.len());
        if let Some(max) = report.stats().max() {
            prop_assert!(max <= delta, "Q1 deadline miss: {} > {}", max, delta);
        }
    }

    /// Miser with the theoretical surplus ΔC = Cmin never causes a primary
    /// deadline miss, whatever the arrival pattern.
    #[test]
    fn miser_with_full_surplus_never_misses(
        ms in arrivals(60, 300),
        cap in 100u64..600,
        delta_ms in 10u64..50,
    ) {
        let c = Iops::new(cap as f64);
        let delta = SimDuration::from_millis(delta_ms);
        if c.requests_within(delta) == 0 {
            return Ok(());
        }
        let w = Workload::from_arrivals(ms.iter().map(|&m| SimTime::from_millis(m)));
        let p = Provision::new(c, c); // ΔC = Cmin
        let report = simulate(
            &w,
            MiserScheduler::new(p, delta),
            FixedRateServer::new(p.total()),
        );
        prop_assert_eq!(report.completed(), w.len());
        let primary = report.stats_for(ServiceClass::PRIMARY);
        if let Some(max) = primary.max() {
            prop_assert!(max <= delta,
                "primary miss with full surplus: {} > {}", max, delta);
        }
    }

    /// The planner's result is feasible and minimal (at integer-IOPS
    /// granularity) for any arrival pattern and deadline: `min_capacity`,
    /// and every entry of one `menu`.
    #[test]
    fn planner_is_feasible_and_minimal(
        ms in arrivals(50, 400),
        frac in 0.5f64..1.0,
        delta_ms in 1u64..=50,
        menu in prop::collection::vec(
            prop_oneof![Just(0.9), Just(1.0), 0.05f64..=1.0],
            1..=6,
        ),
    ) {
        let w = Workload::from_arrivals(ms.iter().map(|&m| SimTime::from_millis(m)));
        let delta = SimDuration::from_millis(delta_ms);
        let planner = CapacityPlanner::new(&w, delta);
        is_cmin(&planner, planner.min_capacity(frac), frac)?;
        // One menu over unsorted, possibly repeated fractions: every entry
        // answers the definition on its own, in input order.
        let quotes = planner.menu(&menu).expect("fractions in (0, 1]");
        prop_assert_eq!(quotes.len(), menu.len());
        for (quote, &f) in quotes.iter().zip(&menu) {
            prop_assert_eq!(quote.target.fraction(), f);
            is_cmin(&planner, quote.cmin, f)?;
        }
    }

    /// Workload algebra: merging preserves counts and ordering; shifting
    /// preserves gaps.
    #[test]
    fn workload_algebra_invariants(
        a in arrivals(30, 1000),
        b in arrivals(30, 1000),
        shift in 0u64..5000,
    ) {
        let wa = Workload::from_arrivals(a.iter().map(|&m| SimTime::from_millis(m)));
        let wb = Workload::from_arrivals(b.iter().map(|&m| SimTime::from_millis(m)));
        let merged = wa.merged(&wb);
        prop_assert_eq!(merged.len(), wa.len() + wb.len());
        prop_assert!(merged
            .requests()
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));

        let shifted = wa.shifted(SimDuration::from_millis(shift));
        prop_assert_eq!(shifted.len(), wa.len());
        prop_assert_eq!(shifted.span(), wa.span());
        prop_assert_eq!(
            shifted.first_arrival().unwrap(),
            wa.first_arrival().unwrap() + SimDuration::from_millis(shift)
        );
    }

    /// The simulation engine conserves requests and never reorders a FCFS
    /// class's completions before its arrivals.
    #[test]
    fn engine_conserves_and_orders(ms in arrivals(80, 500), cap in 50u64..2000) {
        let w = Workload::from_arrivals(ms.iter().map(|&m| SimTime::from_millis(m)));
        let report = simulate(
            &w,
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(cap as f64)),
        );
        prop_assert_eq!(report.completed(), w.len());
        for r in report.records() {
            prop_assert!(r.dispatched >= r.arrival);
            prop_assert!(r.completion > r.dispatched);
        }
        // FCFS completions are ordered by arrival.
        let mut last = SimTime::ZERO;
        for r in report.records() {
            prop_assert!(r.arrival >= last);
            last = r.arrival;
        }
    }
}
