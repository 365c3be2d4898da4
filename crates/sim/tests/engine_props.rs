//! Property-based tests of the simulation engine and metric recorders.

use proptest::prelude::*;

use gqos_sim::{simulate, FcfsScheduler, FixedRateServer, ResponseStats};
use gqos_trace::{Iops, SimDuration, SimTime, Workload};

fn arb_arrivals(max: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..20_000, 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine conserves requests, timestamps are causal, and the
    /// server is never double-booked.
    #[test]
    fn engine_invariants(ms in arb_arrivals(80), cap in 50u64..5_000) {
        let w = Workload::from_arrivals(ms.iter().map(|&m| SimTime::from_millis(m)));
        let report = simulate(
            &w,
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(cap as f64)),
        );
        prop_assert_eq!(report.completed(), w.len());
        let mut records: Vec<_> = report.records().to_vec();
        records.sort_by_key(|r| r.dispatched);
        for r in &records {
            prop_assert!(r.dispatched >= r.arrival);
            prop_assert!(r.completion > r.dispatched);
        }
        // Single server: service intervals never overlap.
        for pair in records.windows(2) {
            prop_assert!(
                pair[1].dispatched >= pair[0].completion,
                "server double-booked"
            );
        }
        // End time is the last completion.
        let last = records.iter().map(|r| r.completion).max().expect("non-empty");
        prop_assert_eq!(report.end_time(), last);
    }

    /// FCFS on a deterministic server is invariant to bulk time shifts.
    #[test]
    fn engine_is_shift_invariant(ms in arb_arrivals(60), shift in 1u64..10_000) {
        let w = Workload::from_arrivals(ms.iter().map(|&m| SimTime::from_millis(m)));
        let s = w.shifted(SimDuration::from_millis(shift));
        let server = FixedRateServer::new(Iops::new(250.0));
        let a = simulate(&w, FcfsScheduler::new(), server);
        let b = simulate(&s, FcfsScheduler::new(), server);
        prop_assert_eq!(a.completed(), b.completed());
        for (x, y) in a.records().iter().zip(b.records()) {
            prop_assert_eq!(
                y.response_time(),
                x.response_time(),
                "shift changed a response time"
            );
        }
    }

    /// Bucketed fractions always sum to one over the population.
    #[test]
    fn bucket_fractions_partition(samples in prop::collection::vec(0u64..5_000, 0..100), extra in 0usize..20) {
        let durations: Vec<SimDuration> =
            samples.iter().map(|&msv| SimDuration::from_millis(msv)).collect();
        let denom = durations.len() + extra;
        let stats = ResponseStats::from_times(durations, denom);
        let edges = [
            SimDuration::from_millis(50),
            SimDuration::from_millis(100),
            SimDuration::from_millis(500),
            SimDuration::from_millis(1000),
        ];
        let f = stats.bucket_fractions(&edges);
        prop_assert_eq!(f.len(), 5);
        if denom > 0 {
            let sum: f64 = f.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
        }
        // CDF is monotone.
        let cdf = stats.cdf();
        for pair in cdf.windows(2) {
            prop_assert!(pair[0].0 < pair[1].0);
            prop_assert!(pair[0].1 <= pair[1].1);
        }
    }
}
