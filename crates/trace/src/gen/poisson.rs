//! Memoryless (Poisson) arrival generator — the smooth baseline.

use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{poisson_arrivals_into, ArrivalProcess, IoMix};
use crate::time::{SimDuration, SimTime};
use crate::workload::Workload;

/// Poisson arrivals at a constant rate.
///
/// Useful as the non-bursty control in experiments and as the base layer of
/// composite profiles.
///
/// # Examples
///
/// ```
/// use gqos_trace::gen::{ArrivalProcess, PoissonGen};
/// use gqos_trace::SimDuration;
///
/// let mut gen = PoissonGen::new(500.0, 42);
/// let w = gen.generate(SimDuration::from_secs(10));
/// assert!((w.mean_iops() - 500.0).abs() < 50.0);
/// ```
#[derive(Clone, Debug)]
pub struct PoissonGen {
    rate: f64,
    mix: IoMix,
    rng: StdRng,
}

impl PoissonGen {
    /// Creates a generator with `rate` ops/sec and the default [`IoMix`].
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or non-finite.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "invalid Poisson rate: {rate}"
        );
        PoissonGen {
            rate,
            mix: IoMix::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configured arrival rate in ops/sec.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl ArrivalProcess for PoissonGen {
    fn generate(&mut self, duration: SimDuration) -> Workload {
        let mut out = Vec::new();
        poisson_arrivals_into(
            &mut self.rng,
            &self.mix,
            self.rate,
            SimTime::ZERO,
            SimTime::ZERO + duration,
            &mut out,
        );
        Workload::from_requests(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::index_of_dispersion;
    use crate::window::RateSeries;

    #[test]
    fn deterministic_given_seed() {
        let mut a = PoissonGen::new(200.0, 9);
        let mut b = PoissonGen::new(200.0, 9);
        let d = SimDuration::from_secs(5);
        assert_eq!(a.generate(d), b.generate(d));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = PoissonGen::new(200.0, 9);
        let mut b = PoissonGen::new(200.0, 10);
        let d = SimDuration::from_secs(5);
        assert_ne!(a.generate(d), b.generate(d));
    }

    #[test]
    fn dispersion_is_near_one() {
        let mut g = PoissonGen::new(1000.0, 3);
        let w = g.generate(SimDuration::from_secs(60));
        let series = RateSeries::new(&w, SimDuration::from_millis(100));
        let idc = index_of_dispersion(series.counts());
        assert!((idc - 1.0).abs() < 0.3, "idc {idc}");
    }

    #[test]
    fn zero_rate_is_empty() {
        let mut g = PoissonGen::new(0.0, 3);
        assert!(g.generate(SimDuration::from_secs(10)).is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid Poisson rate")]
    fn negative_rate_rejected() {
        let _ = PoissonGen::new(-1.0, 0);
    }

    #[test]
    fn arrivals_within_bounds() {
        let mut g = PoissonGen::new(500.0, 5);
        let d = SimDuration::from_secs(2);
        let w = g.generate(d);
        assert!(w.last_arrival().unwrap() < SimTime::ZERO + d);
    }
}
