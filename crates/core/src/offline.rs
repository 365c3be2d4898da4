//! Offline optimality verification at scale.
//!
//! The paper proves (Lemmas 1–3) that RTT drops exactly the minimum number
//! of requests any algorithm — online or offline — must drop. The tests in
//! [`crate::rtt`] verify this against an exponential brute force on tiny
//! inputs; this module provides the polynomial-time oracle for *large*
//! workloads: Lemma 1's bound computed on the exact slotted service model
//! the schedulers use, summed over busy periods.
//!
//! Checked against RTT's drop count
//! ([`decompose`](crate::decompose)`(..).overflow_count()`),
//! `RTT drops ≥ bound` always holds (it is a true lower bound for any
//! scheduler); equality certifies optimality for the given input.

use gqos_trace::{Iops, SimDuration, SimTime, Workload};

/// Lemma 1 on the slotted service model: the minimum number of requests
/// any scheduler must fail at capacity `capacity` and deadline `deadline`,
/// summed over the busy periods of a never-dropping slotted server.
///
/// # Panics
///
/// Panics if `deadline` is zero.
pub fn slotted_lower_bound(workload: &Workload, capacity: Iops, deadline: SimDuration) -> u64 {
    assert!(!deadline.is_zero(), "deadline must be positive");
    let service = capacity.service_time();

    let mut total_bound = 0u64;
    let mut period_max = 0u64;
    let mut period_start = SimTime::ZERO;
    let mut period_arrivals = 0u64;
    let mut pending = 0u64;
    let mut next_done = SimTime::ZERO;
    let mut in_period = false;

    for (t, n) in workload.arrival_counts() {
        if in_period {
            while pending > 0 && next_done <= t {
                pending -= 1;
                next_done += service;
            }
            if pending == 0 {
                total_bound += period_max;
                in_period = false;
            }
        }
        if !in_period {
            in_period = true;
            period_start = t;
            period_arrivals = 0;
            period_max = 0;
            next_done = t + service;
        }
        pending += n;
        period_arrivals += n;

        // Requests of this busy period due by t + δ, minus the service
        // slots any scheduler can complete on them by then.
        let window = (t + deadline) - period_start;
        let servable = window / service; // whole slots
        let deficit = period_arrivals.saturating_sub(servable);
        period_max = period_max.max(deficit);
    }
    if in_period {
        total_bound += period_max;
    }
    total_bound
}

/// Lemma 2's deficit arithmetic evaluated over *RTT's* busy periods: the
/// number of requests that must be dropped, computed purely from arrival
/// counts and service slots, with no reference to the queue-bound rule.
///
/// By Lemmas 2–3 this equals RTT's drop count exactly whenever `C·δ` is a
/// whole number of service slots (the paper's implicit setting); with a
/// fractional `C·δ` the floor interactions make it a lower bound instead.
/// Computing it through an independent code path (deficit arithmetic
/// instead of queue-length bookkeeping) makes it a strong consistency
/// oracle for large inputs.
///
/// # Panics
///
/// Panics if `deadline` is zero or `⌊C·δ⌋` is zero.
pub fn rtt_period_bound(workload: &Workload, capacity: Iops, deadline: SimDuration) -> u64 {
    assert!(!deadline.is_zero(), "deadline must be positive");
    let service = capacity.service_time();
    let max_q1 = capacity.requests_within(deadline);
    assert!(max_q1 >= 1, "C x delta admits no requests");

    let mut total = 0u64;
    let mut pending = 0u64; // accepted, not yet completed
    let mut next_done = SimTime::ZERO;
    let mut in_period = false;
    let mut period_start = SimTime::ZERO;
    let mut period_arrivals = 0u64; // accepted AND dropped
    let mut period_max = 0u64;

    for (t, n) in workload.arrival_counts() {
        if in_period {
            while pending > 0 && next_done <= t {
                pending -= 1;
                next_done += service;
            }
            if pending == 0 {
                total += period_max;
                in_period = false;
            }
        }
        if !in_period {
            in_period = true;
            period_start = t;
            period_arrivals = 0;
            period_max = 0;
            next_done = t + service;
        }
        // RTT accepts up to the queue bound; the rest are dropped but still
        // count as arrivals of this busy period.
        let space = max_q1 - pending;
        pending += n.min(space);
        period_arrivals += n;

        let window = (t + deadline) - period_start;
        let servable = window / service;
        let deficit = period_arrivals.saturating_sub(servable);
        period_max = period_max.max(deficit);
    }
    if in_period {
        total += period_max;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtt::decompose;

    /// RTT's drop count and Lemma 1's lower bound on `workload`.
    fn drops_and_bound(workload: &Workload, capacity: Iops, deadline: SimDuration) -> (u64, u64) {
        (
            decompose(workload, capacity, deadline).overflow_count(),
            slotted_lower_bound(workload, capacity, deadline),
        )
    }

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn feasible_workload_has_zero_bound() {
        let w = Workload::from_arrivals((0..50).map(|i| ms(i * 20)));
        assert_eq!(drops_and_bound(&w, Iops::new(100.0), dms(20)), (0, 0));
    }

    #[test]
    fn single_burst_bound_is_exact() {
        // 10 at once, room for 3 (300 IOPS x 10 ms): 7 must drop.
        let w = Workload::from_arrivals(vec![SimTime::ZERO; 10]);
        assert_eq!(drops_and_bound(&w, Iops::new(300.0), dms(10)), (7, 7));
    }

    #[test]
    fn separated_bursts_sum() {
        let mut arrivals = vec![SimTime::ZERO; 5];
        arrivals.extend(vec![SimTime::from_secs(10); 6]);
        let w = Workload::from_arrivals(arrivals);
        // 200 IOPS x 10 ms = 2 slots: drops 3 + 4.
        assert_eq!(drops_and_bound(&w, Iops::new(200.0), dms(10)), (7, 7));
    }

    #[test]
    fn sustained_overload_is_tight() {
        // 200 offered vs 100 capacity for 2 s: about half must drop, and
        // RTT matches the bound exactly.
        let w = Workload::from_arrivals((0..400).map(|i| ms(i * 5)));
        let (dropped, bound) = drops_and_bound(&w, Iops::new(100.0), dms(20));
        assert!(bound > 150);
        assert_eq!(dropped, bound);
    }

    #[test]
    fn no_drop_bound_holds_on_profile_scale_input() {
        use gqos_trace::gen::profiles::TraceProfile;
        let w = TraceProfile::FinTrans.generate(SimDuration::from_secs(60), 3);
        let (dropped, bound) = drops_and_bound(&w, Iops::new(150.0), dms(10));
        assert!(dropped >= bound, "bound violated: {dropped} < {bound}");
    }

    #[test]
    fn deficit_arithmetic_reproduces_rtt_exactly() {
        // Lemma 2 computed through deficit arithmetic must equal the
        // queue-bound rule's drop count on every input — including full
        // profile-scale traces.
        use gqos_trace::gen::profiles::TraceProfile;
        // Capacities with integer C x delta (whole service slots), where
        // the deficit arithmetic is exact.
        for (profile, cap) in [
            (TraceProfile::FinTrans, 200.0),
            (TraceProfile::WebSearch, 400.0),
        ] {
            let w = profile.generate(SimDuration::from_secs(60), 3);
            let dropped = decompose(&w, Iops::new(cap), dms(10)).overflow_count();
            let bound = rtt_period_bound(&w, Iops::new(cap), dms(10));
            assert_eq!(dropped, bound, "{profile} at {cap} IOPS");
        }
    }

    #[test]
    fn deficit_arithmetic_matches_on_crafted_patterns() {
        let patterns: Vec<Vec<SimTime>> = vec![
            vec![SimTime::ZERO; 10],
            (0..100).map(|i| ms(i * 3)).collect(),
            {
                let mut v: Vec<SimTime> = (0..50).map(|i| ms(i * 11)).collect();
                v.extend(vec![ms(200); 20]);
                v.extend(vec![ms(900); 7]);
                v
            },
        ];
        for arrivals in patterns {
            let w = Workload::from_arrivals(arrivals.clone());
            let c = Iops::new(250.0);
            let dropped = decompose(&w, c, dms(20)).overflow_count();
            let bound = rtt_period_bound(&w, c, dms(20));
            assert_eq!(dropped, bound, "pattern of {} arrivals", w.len());
        }
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn zero_deadline_rejected() {
        let _ = slotted_lower_bound(&Workload::new(), Iops::new(1.0), SimDuration::ZERO);
    }
}
