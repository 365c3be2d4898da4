//! ON/OFF burst generator with heavy-tailed burst durations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Pareto};

use super::{poisson_arrivals_into, ArrivalProcess, IoMix};
use crate::time::{SimDuration, SimTime};
use crate::workload::Workload;

/// Alternating ON/OFF arrival process.
///
/// During OFF periods requests arrive as a Poisson stream at `base_rate`;
/// during ON periods at `burst_rate`. OFF durations are exponential with the
/// given mean; ON durations follow a Pareto distribution, giving the
/// heavy-tailed burst lengths observed in storage traces (occasional very
/// long bursts dominate capacity requirements — the paper's "tail").
///
/// # Examples
///
/// ```
/// use gqos_trace::gen::{ArrivalProcess, OnOffGen};
/// use gqos_trace::SimDuration;
///
/// let mut gen = OnOffGen::builder(100.0, 2000.0)
///     .mean_off(SimDuration::from_secs(10))
///     .on_pareto(1.5, SimDuration::from_millis(200))
///     .seed(7)
///     .build();
/// let w = gen.generate(SimDuration::from_secs(60));
/// assert!(!w.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct OnOffGen {
    base_rate: f64,
    burst_rate: f64,
    mean_off: SimDuration,
    pareto_shape: f64,
    pareto_scale: SimDuration,
    max_on: SimDuration,
    mix: IoMix,
    rng: StdRng,
}

/// Configures an [`OnOffGen`]; created by [`OnOffGen::builder`].
#[derive(Clone, Debug)]
pub struct OnOffBuilder {
    base_rate: f64,
    burst_rate: f64,
    mean_off: SimDuration,
    pareto_shape: f64,
    pareto_scale: SimDuration,
    max_on: SimDuration,
    mix: IoMix,
    seed: u64,
}

impl OnOffGen {
    /// Starts building a generator with the given OFF-period (`base_rate`)
    /// and ON-period (`burst_rate`) arrival rates, in ops/sec.
    ///
    /// # Panics
    ///
    /// Panics if either rate is negative or non-finite.
    pub fn builder(base_rate: f64, burst_rate: f64) -> OnOffBuilder {
        assert!(
            base_rate.is_finite() && base_rate >= 0.0,
            "invalid base rate: {base_rate}"
        );
        assert!(
            burst_rate.is_finite() && burst_rate >= 0.0,
            "invalid burst rate: {burst_rate}"
        );
        OnOffBuilder {
            base_rate,
            burst_rate,
            mean_off: SimDuration::from_secs(10),
            pareto_shape: 1.5,
            pareto_scale: SimDuration::from_millis(200),
            max_on: SimDuration::from_secs(30),
            mix: IoMix::default(),
            seed: 0,
        }
    }
}

impl OnOffBuilder {
    /// Mean of the exponential OFF-period duration.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is zero.
    pub fn mean_off(mut self, mean: SimDuration) -> Self {
        assert!(!mean.is_zero(), "mean OFF duration must be positive");
        self.mean_off = mean;
        self
    }

    /// Pareto parameters of the ON-period duration: tail index `shape`
    /// (smaller = heavier tail) and minimum duration `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is not finite and positive, or `scale` is zero.
    pub fn on_pareto(mut self, shape: f64, scale: SimDuration) -> Self {
        assert!(
            shape.is_finite() && shape > 0.0,
            "invalid Pareto shape: {shape}"
        );
        assert!(!scale.is_zero(), "Pareto scale must be positive");
        self.pareto_shape = shape;
        self.pareto_scale = scale;
        self
    }

    /// Upper cap on a single ON period (keeps heavy-tailed draws bounded).
    pub fn max_on(mut self, max: SimDuration) -> Self {
        self.max_on = max;
        self
    }

    /// I/O mix of the generated requests.
    pub fn mix(mut self, mix: IoMix) -> Self {
        self.mix = mix;
        self
    }

    /// Random seed; identical seeds reproduce identical workloads.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Finishes the generator.
    pub fn build(self) -> OnOffGen {
        OnOffGen {
            base_rate: self.base_rate,
            burst_rate: self.burst_rate,
            mean_off: self.mean_off,
            pareto_shape: self.pareto_shape,
            pareto_scale: self.pareto_scale,
            max_on: self.max_on,
            mix: self.mix,
            rng: StdRng::seed_from_u64(self.seed),
        }
    }
}

impl ArrivalProcess for OnOffGen {
    fn generate(&mut self, duration: SimDuration) -> Workload {
        let end = SimTime::ZERO + duration;
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        let pareto = Pareto::new(self.pareto_scale.as_secs_f64(), self.pareto_shape)
            .expect("validated pareto parameters");
        let mut on = false;
        while t < end {
            let period = if on {
                let drawn = SimDuration::from_secs_f64(pareto.sample(&mut self.rng));
                drawn.min(self.max_on)
            } else {
                let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
                self.mean_off.mul_f64(-u.ln())
            };
            let period_end = t.checked_add(period).unwrap_or(end).min(end);
            let rate = if on { self.burst_rate } else { self.base_rate };
            poisson_arrivals_into(&mut self.rng, &self.mix, rate, t, period_end, &mut out);
            t = period_end;
            on = !on;
        }
        Workload::from_requests(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::TraceSummary;
    use crate::window::RateSeries;

    fn bursty() -> OnOffGen {
        OnOffGen::builder(100.0, 3000.0)
            .mean_off(SimDuration::from_secs(5))
            .on_pareto(1.5, SimDuration::from_millis(300))
            .seed(11)
            .build()
    }

    #[test]
    fn deterministic_given_seed() {
        let d = SimDuration::from_secs(30);
        assert_eq!(bursty().generate(d), bursty().generate(d));
    }

    #[test]
    fn produces_bursts_above_base_rate() {
        let w = bursty().generate(SimDuration::from_secs(120));
        let stats = TraceSummary::new(&w, SimDuration::from_millis(100));
        assert!(
            stats.peak_to_mean() > 3.0,
            "peak/mean {}",
            stats.peak_to_mean()
        );
        assert!(stats.index_of_dispersion() > 2.0);
    }

    #[test]
    fn mean_rate_between_base_and_burst() {
        let w = bursty().generate(SimDuration::from_secs(120));
        let mean = w.mean_iops();
        assert!(mean > 100.0 && mean < 3000.0, "mean {mean}");
    }

    #[test]
    fn zero_base_rate_gives_silent_off_periods() {
        let mut g = OnOffGen::builder(0.0, 1000.0)
            .mean_off(SimDuration::from_secs(2))
            .on_pareto(1.5, SimDuration::from_millis(100))
            .seed(3)
            .build();
        let w = g.generate(SimDuration::from_secs(60));
        // Still produces requests (the bursts), but far fewer than 1000/s.
        assert!(!w.is_empty());
        assert!(w.mean_iops() < 1000.0);
    }

    #[test]
    #[should_panic(expected = "invalid base rate")]
    fn negative_base_rate_rejected() {
        let _ = OnOffGen::builder(-1.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "Pareto scale")]
    fn zero_pareto_scale_rejected() {
        let _ = OnOffGen::builder(1.0, 10.0).on_pareto(1.5, SimDuration::ZERO);
    }

    #[test]
    fn max_on_caps_burst_length() {
        let mut g = OnOffGen::builder(0.0, 2000.0)
            .mean_off(SimDuration::from_secs(20))
            // Heavy tail that would frequently exceed the cap.
            .on_pareto(0.6, SimDuration::from_millis(500))
            .max_on(SimDuration::from_millis(800))
            .seed(5)
            .build();
        let w = g.generate(SimDuration::from_secs(600));
        let series = RateSeries::new(&w, SimDuration::from_millis(100));
        // With OFF periods vastly longer than the cap, no run of non-empty
        // 100 ms windows can much exceed the 800 ms cap (8 windows, plus
        // boundary effects).
        let mut longest_run = 0usize;
        let mut run = 0usize;
        for &c in series.counts() {
            if c > 0 {
                run += 1;
                longest_run = longest_run.max(run);
            } else {
                run = 0;
            }
        }
        assert!(longest_run <= 10, "burst of {longest_run} windows");
    }
}
