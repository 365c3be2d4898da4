//! Markov-modulated Poisson process generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{poisson_arrivals_into, ArrivalProcess, IoMix};
use crate::time::{SimDuration, SimTime};
use crate::workload::Workload;

/// One state of a Markov-modulated Poisson process.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct MmppState {
    /// Poisson arrival rate while in this state, in ops/sec.
    pub rate: f64,
    /// Mean (exponential) holding time of the state.
    pub mean_holding: SimDuration,
}

impl MmppState {
    /// Creates a state.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative/non-finite or `mean_holding` is zero.
    pub fn new(rate: f64, mean_holding: SimDuration) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "invalid MMPP rate: {rate}");
        assert!(
            !mean_holding.is_zero(),
            "MMPP holding time must be positive"
        );
        MmppState { rate, mean_holding }
    }
}

/// Markov-modulated Poisson arrivals: the process jumps between states, each
/// with its own rate and exponential holding time; the next state is chosen
/// uniformly among the others.
///
/// A multi-level MMPP captures workloads such as web search: a dominant
/// steady level, an elevated level, and short intense bursts.
///
/// # Examples
///
/// ```
/// use gqos_trace::gen::{ArrivalProcess, MmppGen, MmppState};
/// use gqos_trace::SimDuration;
///
/// let mut gen = MmppGen::new(
///     vec![
///         MmppState::new(300.0, SimDuration::from_secs(5)),
///         MmppState::new(1500.0, SimDuration::from_millis(400)),
///     ],
///     13,
/// );
/// let w = gen.generate(SimDuration::from_secs(30));
/// assert!(!w.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct MmppGen {
    states: Vec<MmppState>,
    mix: IoMix,
    rng: StdRng,
}

impl MmppGen {
    /// Creates a generator starting in the first state, with the default
    /// [`IoMix`].
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty.
    pub fn new(states: Vec<MmppState>, seed: u64) -> Self {
        assert!(!states.is_empty(), "MMPP needs at least one state");
        MmppGen {
            states,
            mix: IoMix::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl ArrivalProcess for MmppGen {
    fn generate(&mut self, duration: SimDuration) -> Workload {
        let end = SimTime::ZERO + duration;
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        let mut state = 0usize;
        while t < end {
            let s = self.states[state];
            let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            let hold = s.mean_holding.mul_f64(-u.ln());
            let period_end = t.checked_add(hold).unwrap_or(end).min(end);
            poisson_arrivals_into(&mut self.rng, &self.mix, s.rate, t, period_end, &mut out);
            t = period_end;
            if self.states.len() > 1 {
                // Uniform jump to a different state.
                let mut next = self.rng.gen_range(0..self.states.len() - 1);
                if next >= state {
                    next += 1;
                }
                state = next;
            }
        }
        Workload::from_requests(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::index_of_dispersion;
    use crate::window::RateSeries;

    fn two_level() -> MmppGen {
        MmppGen::new(
            vec![
                MmppState::new(200.0, SimDuration::from_secs(5)),
                MmppState::new(2000.0, SimDuration::from_millis(500)),
            ],
            21,
        )
    }

    #[test]
    fn deterministic_given_seed() {
        let d = SimDuration::from_secs(30);
        assert_eq!(two_level().generate(d), two_level().generate(d));
    }

    #[test]
    fn burstier_than_poisson() {
        let w = two_level().generate(SimDuration::from_secs(120));
        let series = RateSeries::new(&w, SimDuration::from_millis(100));
        assert!(index_of_dispersion(series.counts()) > 2.0);
    }

    #[test]
    fn single_state_behaves_like_poisson() {
        let mut g = MmppGen::new(vec![MmppState::new(500.0, SimDuration::from_secs(1))], 4);
        let w = g.generate(SimDuration::from_secs(60));
        assert!(
            (w.mean_iops() - 500.0).abs() < 60.0,
            "mean {}",
            w.mean_iops()
        );
    }

    #[test]
    fn mean_rate_is_time_weighted_average() {
        // Equal holding times of 1 s at 100 and 900 ops/s -> about 500 mean.
        let mut g = MmppGen::new(
            vec![
                MmppState::new(100.0, SimDuration::from_secs(1)),
                MmppState::new(900.0, SimDuration::from_secs(1)),
            ],
            8,
        );
        let w = g.generate(SimDuration::from_secs(300));
        let mean = w.mean_iops();
        assert!((mean - 500.0).abs() < 80.0, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn empty_states_rejected() {
        let _ = MmppGen::new(vec![], 0);
    }

    #[test]
    #[should_panic(expected = "invalid MMPP rate")]
    fn bad_rate_rejected() {
        let _ = MmppState::new(f64::NAN, SimDuration::from_secs(1));
    }

    #[test]
    fn states_accessor() {
        let g = two_level();
        assert_eq!(g.states.len(), 2);
        assert_eq!(g.states[0].rate, 200.0);
    }
}
