//! Token-bucket envelopes: the `(σ, ρ)` arrival-curve characterisation.
//!
//! A stream *conforms* to a token bucket `(σ, ρ)` when every interval
//! `[s, t]` contains at most `σ + ρ·(t − s)` arrivals. The set of minimal
//! conforming pairs forms the stream's *envelope* — the workload-side
//! counterpart of the service-curve analysis in [`crate::ServiceAnalysis`],
//! and the quantity arrival-curve QoS schedulers (pClock-style
//! specifications) and statistical admission control are parameterised by.
//!
//! For bursty storage workloads the envelope makes the provisioning dilemma
//! visible: σ explodes as ρ approaches the mean rate (the whole burst must
//! fit in the bucket), which is exactly the worst-case reservation problem
//! the paper's decomposition dissolves.

use crate::workload::Workload;

/// Computes the minimum bucket depth σ such that every request of
/// `workload` conforms to a token bucket of rate `rate` — i.e. the maximum
/// over arrival instants `t` of `A[s, t] − ρ·(t − s)` over all window
/// starts `s`.
///
/// Runs in `O(N)` using the standard bucket-simulation argument: track the
/// bucket level as requests consume tokens that refill at `rate`; the
/// minimal σ is the peak deficit.
///
/// # Panics
///
/// Panics if `rate` is not finite and strictly positive.
///
/// # Examples
///
/// ```
/// use gqos_trace::envelope::min_burst;
/// use gqos_trace::{SimTime, Workload};
///
/// // 5 simultaneous requests need a bucket of 5 at any finite rate.
/// let w = Workload::from_arrivals(vec![SimTime::ZERO; 5]);
/// assert_eq!(min_burst(&w, 100.0).ceil(), 5.0);
/// ```
pub fn min_burst(workload: &Workload, rate: f64) -> f64 {
    assert!(
        rate.is_finite() && rate > 0.0,
        "invalid envelope rate: {rate}"
    );
    // Simulate a bucket with unbounded depth starting empty *in deficit
    // terms*: deficit(t) = max over windows ending at t of arrivals - ρ·len.
    // Classic recurrence: deficit += 1 per arrival, drains at ρ, floored at
    // 0; σ_min = max deficit seen *after* each arrival consumes its token.
    let mut deficit = 0.0f64;
    let mut max_deficit = 0.0f64;
    let mut last_secs = match workload.first_arrival() {
        Some(t) => t.as_secs_f64(),
        None => return 0.0,
    };
    for (t, n) in workload.arrival_counts() {
        let now = t.as_secs_f64();
        deficit = (deficit - rate * (now - last_secs)).max(0.0);
        deficit += n as f64;
        max_deficit = max_deficit.max(deficit);
        last_secs = now;
    }
    max_deficit
}

/// `true` when every interval of `workload` holds at most
/// `burst + rate·len` requests.
///
/// # Panics
///
/// Panics if `rate` is not finite and strictly positive, or `burst` is
/// negative or non-finite.
pub fn conforms(workload: &Workload, rate: f64, burst: f64) -> bool {
    assert!(
        burst.is_finite() && burst >= 0.0,
        "invalid burst allowance: {burst}"
    );
    min_burst(workload, rate) <= burst + 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn empty_workload_needs_no_bucket() {
        assert_eq!(min_burst(&Workload::new(), 10.0), 0.0);
    }

    #[test]
    fn single_request_needs_one_token() {
        let w = Workload::from_arrivals([ms(5)]);
        assert_eq!(min_burst(&w, 1.0), 1.0);
    }

    #[test]
    fn burst_depth_equals_burst_size_at_any_rate() {
        let w = Workload::from_arrivals(vec![SimTime::ZERO; 8]);
        assert_eq!(min_burst(&w, 1.0), 8.0);
        assert_eq!(min_burst(&w, 10_000.0), 8.0);
    }

    #[test]
    fn paced_stream_at_its_rate_needs_one_token() {
        // 100 requests 10 ms apart = 100/s; at ρ = 100 the bucket refills
        // exactly one token per arrival.
        let w = Workload::from_arrivals((0..100).map(|i| ms(i * 10)));
        let sigma = min_burst(&w, 100.0);
        assert!(sigma <= 1.0 + 1e-9, "sigma {sigma}");
        // At half the rate, half of each gap goes unfunded: the deficit
        // climbs by 0.5 per request.
        let sigma = min_burst(&w, 50.0);
        assert!((sigma - 50.5).abs() < 1.0, "sigma {sigma}");
    }

    #[test]
    fn envelope_is_monotone_decreasing_in_rate() {
        let mut arrivals: Vec<SimTime> = (0..200).map(|i| ms(i * 7)).collect();
        arrivals.extend(vec![ms(350); 30]);
        let w = Workload::from_arrivals(arrivals);
        let bursts: Vec<f64> = [50.0, 100.0, 200.0, 400.0, 1000.0]
            .iter()
            .map(|&rate| min_burst(&w, rate))
            .collect();
        for pair in bursts.windows(2) {
            assert!(
                pair[1] <= pair[0] + 1e-9,
                "envelope not monotone: {bursts:?}"
            );
        }
        // The burst floor is the largest simultaneous batch.
        assert!(*bursts.last().unwrap() >= 30.0);
    }

    #[test]
    fn conforms_matches_min_burst() {
        let w = Workload::from_arrivals(vec![ms(0), ms(0), ms(0), ms(100)]);
        let sigma = min_burst(&w, 20.0);
        assert!(conforms(&w, 20.0, sigma));
        assert!(!conforms(&w, 20.0, sigma - 0.5));
        assert!(conforms(&w, 20.0, sigma + 10.0));
    }

    #[test]
    fn envelope_explodes_near_the_mean_rate() {
        // The provisioning dilemma: a stream alternating 5 s at 80/s with
        // 5 s at 10/s (mean 45/s) needs a huge bucket at ρ ≈ mean — the
        // whole high period must fit — but only a tiny one at 3x mean.
        let mut arrivals = Vec::new();
        for c in 0..4u64 {
            let base = c * 10_000;
            for i in 0..400 {
                arrivals.push(ms(base + i * 125 / 10)); // 80/s for 5 s
            }
            for i in 0..50 {
                arrivals.push(ms(base + 5_000 + i * 100)); // 10/s for 5 s
            }
        }
        let w = Workload::from_arrivals(arrivals);
        let mean = w.mean_iops();
        let near_mean = min_burst(&w, mean * 1.05);
        let ample = min_burst(&w, mean * 3.0);
        assert!(
            near_mean > 20.0 * ample,
            "near-mean sigma {near_mean} vs ample {ample} (mean {mean})"
        );
    }

    #[test]
    #[should_panic(expected = "invalid envelope rate")]
    fn zero_rate_rejected() {
        let _ = min_burst(&Workload::new(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid burst allowance")]
    fn negative_burst_rejected() {
        let _ = conforms(&Workload::new(), 1.0, -1.0);
    }
}
