//! Property tests: the columnar integer kernels agree with the legacy
//! request-struct scan on arbitrary workloads.
//!
//! The seed implementation walked `Vec<Request>` with a per-completion
//! drain loop around [`RttClassifier`]; the kernels replaced it with a
//! bulk-drain integer scan over the cached arrival column. `legacy_scan`
//! below is a literal transcription of the seed loop (kept *here*, outside
//! the library, as the reference semantics) — assignments, counts, and
//! budget early-exits must coincide exactly, because experiment outputs and
//! planner quotes are required to stay byte-identical across the rewrite.

use gqos_core::{
    decompose, decompose_with_budget, overflow_count, overflow_curve, within_miss_budget,
    within_miss_budget_curve, CascadeDecomposer, CascadeLevel, DecomposeScratch, RttClassifier,
};
use gqos_sim::ServiceClass;
use gqos_trace::{Iops, SimDuration, SimTime, Workload};
use proptest::prelude::*;

/// The seed's scan loop: emulates the dedicated primary server's
/// completions one at a time and hands each request's class to `visit`.
/// Stops (returning `false`) when `visit` declines to continue.
fn legacy_scan(
    workload: &Workload,
    capacity: Iops,
    deadline: SimDuration,
    mut visit: impl FnMut(ServiceClass) -> bool,
) -> bool {
    let mut rtt = RttClassifier::new(capacity, deadline);
    let service = capacity.service_time().max(SimDuration::from_nanos(1));
    let mut next_done = SimTime::ZERO;
    for r in workload.iter() {
        while rtt.len_q1() > 0 && next_done <= r.arrival {
            rtt.primary_departed();
            next_done += service;
        }
        if rtt.len_q1() == 0 {
            next_done = r.arrival + service;
        }
        if !visit(rtt.classify()) {
            return false;
        }
    }
    true
}

/// Legacy full decomposition: per-request assignments and overflow count.
fn legacy_decompose(w: &Workload, c: Iops, d: SimDuration) -> (Vec<ServiceClass>, u64) {
    let mut assignments = Vec::with_capacity(w.len());
    let mut overflow = 0u64;
    legacy_scan(w, c, d, |class| {
        if class != ServiceClass::PRIMARY {
            overflow += 1;
        }
        assignments.push(class);
        true
    });
    (assignments, overflow)
}

/// Legacy budgeted probe: `false` as soon as overflow exceeds `budget`.
fn legacy_within_budget(w: &Workload, c: Iops, d: SimDuration, budget: u64) -> bool {
    let mut overflow = 0u64;
    legacy_scan(w, c, d, |class| {
        if class != ServiceClass::PRIMARY {
            overflow += 1;
            if overflow > budget {
                return false;
            }
        }
        true
    })
}

/// The seed's scan loop over a cascade of levels: every level drains its
/// completions one at a time on every arrival, and the request joins the
/// first level with a free slot, else the best-effort class
/// `levels.len()`.
fn legacy_cascade(workload: &Workload, levels: &[CascadeLevel]) -> Vec<ServiceClass> {
    let mut states: Vec<(RttClassifier, SimDuration, SimTime)> = levels
        .iter()
        .map(|l| {
            let rtt = RttClassifier::new(l.capacity, l.deadline);
            let service = l.capacity.service_time().max(SimDuration::from_nanos(1));
            (rtt, service, SimTime::ZERO)
        })
        .collect();
    let mut assignments = Vec::with_capacity(workload.len());
    for r in workload.iter() {
        let mut assigned = levels.len();
        for (i, (rtt, service, next_done)) in states.iter_mut().enumerate() {
            while rtt.len_q1() > 0 && *next_done <= r.arrival {
                rtt.primary_departed();
                *next_done += *service;
            }
            if rtt.len_q1() == 0 {
                *next_done = r.arrival + *service;
            }
            if assigned == levels.len() && rtt.classify() == ServiceClass::PRIMARY {
                assigned = i;
            }
        }
        assignments.push(ServiceClass::new(assigned as u8));
    }
    assignments
}

prop_compose! {
    /// An arbitrary workload: bursty gap sequence (many zero gaps — i.e.
    /// simultaneous arrivals — plus calm stretches), up to ~6 s long.
    fn arb_workload()(gaps in prop::collection::vec(
        prop_oneof![
            Just(0u64),                  // burst: same-instant arrival
            1u64..1_000_000,             // sub-millisecond spacing
            1_000_000u64..50_000_000,    // calm: 1–50 ms
        ],
        0..120,
    )) -> Workload {
        let mut t = 0u64;
        Workload::from_arrivals(gaps.into_iter().map(|g| {
            t += g;
            SimTime::from_nanos(t)
        }))
    }
}

prop_compose! {
    /// A non-degenerate (C, δ) pair: C·δ ranges from ~1.5 to ~300 slots.
    fn arb_params()(c in 300.0f64..3000.0, dms in 5u64..100) -> (Iops, SimDuration) {
        (Iops::new(c), SimDuration::from_millis(dms))
    }
}

prop_compose! {
    /// One to four cascade levels at strictly increasing deadlines, each
    /// with C·δ of at least ~1.5 slots.
    fn arb_levels()(
        first_ms in 5u64..40,
        steps in prop::collection::vec((300.0f64..3000.0, 1u64..60), 1..=4),
    ) -> Vec<CascadeLevel> {
        let mut deadline_ms = first_ms;
        steps
            .into_iter()
            .map(|(c, step_ms)| {
                let level = CascadeLevel {
                    capacity: Iops::new(c),
                    deadline: SimDuration::from_millis(deadline_ms),
                };
                deadline_ms += step_ms;
                level
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cascade_matches_multi_level_legacy(w in arb_workload(), levels in arb_levels()) {
        let cascade = CascadeDecomposer::new(levels.clone());
        let d = cascade.decompose(&w);
        let legacy = legacy_cascade(&w, &levels);
        prop_assert_eq!(d.assignments(), legacy.as_slice());
        for class in 0..=levels.len() {
            let n = legacy.iter().filter(|c| usize::from(c.index()) == class).count() as u64;
            prop_assert_eq!(d.count_of(class as u8), n, "class {}", class);
        }
        // Level 0 sees every arrival, so it is plain two-class RTT.
        let (_, overflow) = legacy_decompose(&w, levels[0].capacity, levels[0].deadline);
        prop_assert_eq!(d.count_of(0), w.len() as u64 - overflow);
    }

    #[test]
    fn columnar_decompose_matches_legacy(w in arb_workload(), p in arb_params()) {
        let (c, d) = p;
        let (legacy_assignments, legacy_overflow) = legacy_decompose(&w, c, d);
        let columnar = decompose(&w, c, d);
        prop_assert_eq!(columnar.assignments(), legacy_assignments.as_slice());
        prop_assert_eq!(columnar.overflow_count(), legacy_overflow);
        prop_assert_eq!(
            columnar.primary_count() + columnar.overflow_count(),
            w.len() as u64
        );
        prop_assert_eq!(overflow_count(&w, c, d), legacy_overflow);
    }

    #[test]
    fn scratch_reuse_matches_legacy(w in arb_workload(), p in arb_params()) {
        let (c, d) = p;
        let (legacy_assignments, legacy_overflow) = legacy_decompose(&w, c, d);
        // A dirty scratch (pre-filled from an unrelated workload) must not
        // leak state into the next run.
        let mut scratch = DecomposeScratch::new();
        let warmup = Workload::from_arrivals(vec![SimTime::ZERO; 7]);
        let _ = scratch.decompose(&warmup, Iops::new(500.0), SimDuration::from_millis(10));
        let view = scratch.decompose(&w, c, d);
        prop_assert_eq!(view.assignments(), legacy_assignments.as_slice());
        prop_assert_eq!(view.overflow_count(), legacy_overflow);
    }

    #[test]
    fn budget_early_exit_matches_legacy(
        w in arb_workload(),
        p in arb_params(),
        budget in 0u64..140,
    ) {
        let (c, d) = p;
        prop_assert_eq!(
            within_miss_budget(&w, c, d, budget),
            legacy_within_budget(&w, c, d, budget)
        );
        let budgeted = decompose_with_budget(&w, c, d, budget);
        prop_assert_eq!(budgeted.is_some(), legacy_within_budget(&w, c, d, budget));
        if let Some(full) = budgeted {
            let (legacy_assignments, legacy_overflow) = legacy_decompose(&w, c, d);
            prop_assert_eq!(full.assignments(), legacy_assignments.as_slice());
            prop_assert_eq!(full.overflow_count(), legacy_overflow);
            prop_assert!(full.overflow_count() <= budget);
        }
    }

    #[test]
    fn overflow_curve_matches_legacy_per_capacity(
        w in arb_workload(),
        dms in 5u64..100,
        grid in prop::collection::vec(1.0f64..4000.0, 1..8),
    ) {
        let d = SimDuration::from_millis(dms);
        let capacities: Vec<Iops> = grid.into_iter().map(Iops::new).collect();
        let fused = overflow_curve(&w, &capacities, d);
        for (i, &c) in capacities.iter().enumerate() {
            if c.requests_within(d) == 0 {
                // Degenerate lane: the documented everything-overflows
                // convention (the legacy scan panics here).
                prop_assert_eq!(fused[i], w.len() as u64, "degenerate C={}", c);
            } else {
                let (_, legacy_overflow) = legacy_decompose(&w, c, d);
                prop_assert_eq!(fused[i], legacy_overflow, "C={}", c);
            }
        }
    }

    #[test]
    fn budget_curve_matches_legacy_per_capacity(
        w in arb_workload(),
        dms in 5u64..100,
        grid in prop::collection::vec(1.0f64..4000.0, 1..8),
        budget in 0u64..140,
    ) {
        let d = SimDuration::from_millis(dms);
        let capacities: Vec<Iops> = grid.into_iter().map(Iops::new).collect();
        let fused = within_miss_budget_curve(&w, &capacities, d, budget);
        for (i, &c) in capacities.iter().enumerate() {
            if c.requests_within(d) == 0 {
                prop_assert_eq!(fused[i], w.len() as u64 <= budget, "degenerate C={}", c);
            } else {
                prop_assert_eq!(
                    fused[i],
                    legacy_within_budget(&w, c, d, budget),
                    "C={} budget={}", c, budget
                );
            }
        }
    }
}
