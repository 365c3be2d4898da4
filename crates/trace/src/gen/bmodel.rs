//! The b-model: self-similar traffic via biased bisection.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{ArrivalProcess, IoMix};
use crate::time::{SimDuration, SimTime};
use crate::workload::Workload;

/// Self-similar arrival generator using the *b-model* (biased binary
/// cascade), a standard model for bursty, long-range-dependent disk traffic.
///
/// The interval is bisected `levels` times; at each split a fraction `bias`
/// of the requests lands on one (randomly chosen) half and `1 − bias` on the
/// other. `bias = 0.5` yields smooth traffic; values toward 1.0 concentrate
/// the workload into ever-sharper bursts. Within the finest sub-interval,
/// requests are spread uniformly at random.
///
/// # Examples
///
/// ```
/// use gqos_trace::gen::{ArrivalProcess, BModelGen};
/// use gqos_trace::SimDuration;
///
/// let mut gen = BModelGen::new(10_000, 0.75, 12, 99);
/// let w = gen.generate(SimDuration::from_secs(100));
/// assert_eq!(w.len(), 10_000);
/// ```
#[derive(Clone, Debug)]
pub struct BModelGen {
    total_requests: u64,
    bias: f64,
    levels: u32,
    mix: IoMix,
    rng: StdRng,
}

impl BModelGen {
    /// Creates a generator producing exactly `total_requests` requests, with
    /// split bias `bias ∈ [0.5, 1.0)` over `levels` bisection levels.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is outside `[0.5, 1.0)` or `levels` exceeds 40.
    pub fn new(total_requests: u64, bias: f64, levels: u32, seed: u64) -> Self {
        assert!(
            (0.5..1.0).contains(&bias),
            "b-model bias must be in [0.5, 1.0): {bias}"
        );
        assert!(levels <= 40, "too many bisection levels: {levels}");
        BModelGen {
            total_requests,
            bias,
            levels,
            mix: IoMix::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl ArrivalProcess for BModelGen {
    fn generate(&mut self, duration: SimDuration) -> Workload {
        // Distribute counts down the binary cascade iteratively.
        let mut counts = vec![self.total_requests];
        for _ in 0..self.levels {
            let mut next = Vec::with_capacity(counts.len() * 2);
            for &n in &counts {
                let big = (n as f64 * self.bias).round() as u64;
                let big = big.min(n);
                let small = n - big;
                if self.rng.gen_bool(0.5) {
                    next.push(big);
                    next.push(small);
                } else {
                    next.push(small);
                    next.push(big);
                }
            }
            counts = next;
        }
        // Spread each leaf's requests uniformly within its sub-interval.
        let leaf_ns = duration.as_nanos() / counts.len() as u64;
        let mut out = Vec::with_capacity(self.total_requests as usize);
        for (i, &n) in counts.iter().enumerate() {
            let start = i as u64 * leaf_ns;
            for _ in 0..n {
                let offset = if leaf_ns > 0 {
                    self.rng.gen_range(0..leaf_ns)
                } else {
                    0
                };
                let t = SimTime::from_nanos(start + offset);
                out.push(self.mix.request_at(t, &mut self.rng));
            }
        }
        Workload::from_requests(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{hurst_exponent, index_of_dispersion};
    use crate::window::RateSeries;

    #[test]
    fn exact_request_count() {
        let mut g = BModelGen::new(5_000, 0.7, 10, 1);
        let w = g.generate(SimDuration::from_secs(50));
        assert_eq!(w.len(), 5_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = SimDuration::from_secs(10);
        let mut a = BModelGen::new(1000, 0.8, 8, 2);
        let mut b = BModelGen::new(1000, 0.8, 8, 2);
        assert_eq!(a.generate(d), b.generate(d));
    }

    #[test]
    fn bias_half_is_smooth_high_bias_is_bursty() {
        let d = SimDuration::from_secs(100);
        let smooth = BModelGen::new(50_000, 0.5, 10, 3).generate(d);
        let bursty = BModelGen::new(50_000, 0.85, 10, 3).generate(d);
        let w100 = SimDuration::from_millis(100);
        let idc_smooth = index_of_dispersion(RateSeries::new(&smooth, w100).counts());
        let idc_bursty = index_of_dispersion(RateSeries::new(&bursty, w100).counts());
        assert!(
            idc_bursty > 10.0 * idc_smooth,
            "smooth {idc_smooth}, bursty {idc_bursty}"
        );
    }

    #[test]
    fn high_bias_yields_high_hurst() {
        let d = SimDuration::from_secs(200);
        let w = BModelGen::new(100_000, 0.8, 11, 4).generate(d);
        let series = RateSeries::with_origin(&w, SimDuration::from_millis(100), SimTime::ZERO);
        let h = hurst_exponent(series.counts()).expect("long series");
        assert!(h > 0.65, "H {h}");
    }

    #[test]
    fn arrivals_stay_within_duration() {
        let d = SimDuration::from_secs(5);
        let mut g = BModelGen::new(2000, 0.9, 6, 5);
        let w = g.generate(d);
        assert!(w.last_arrival().unwrap() < SimTime::ZERO + d);
    }

    #[test]
    fn zero_requests_is_empty() {
        let mut g = BModelGen::new(0, 0.7, 8, 6);
        assert!(g.generate(SimDuration::from_secs(10)).is_empty());
    }

    #[test]
    #[should_panic(expected = "bias must be in")]
    fn bias_below_half_rejected() {
        let _ = BModelGen::new(10, 0.4, 4, 0);
    }

    #[test]
    #[should_panic(expected = "bisection levels")]
    fn excessive_levels_rejected() {
        let _ = BModelGen::new(10, 0.7, 64, 0);
    }

    #[test]
    fn accessors() {
        let g = BModelGen::new(10, 0.7, 4, 0);
        assert_eq!(g.levels, 4);
    }
}
