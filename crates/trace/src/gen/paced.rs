//! Paced (jittered-periodic) modulated arrivals.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{ArrivalProcess, IoMix, MmppState};
use crate::time::{SimDuration, SimTime};
use crate::workload::Workload;

/// State-modulated *paced* arrivals: within each state the stream is
/// periodic at the state's rate, with each arrival jittered by a bounded
/// fraction of the period.
///
/// Paced streams model the well-behaved portion of production storage
/// traffic better than Poisson at millisecond timescales: an application
/// issuing I/O at a steady pace has far less short-window variance than a
/// memoryless process. The practical consequence — central to the paper's
/// consolidation result — is additivity: merging two paced streams of rates
/// `R₁` and `R₂` needs capacity `≈ R₁ + R₂`, with no statistical pooling of
/// noise.
///
/// # Examples
///
/// ```
/// use gqos_trace::gen::{ArrivalProcess, MmppState, PacedGen};
/// use gqos_trace::SimDuration;
///
/// let mut gen = PacedGen::new(
///     vec![MmppState::new(100.0, SimDuration::from_secs(10))],
///     0.3,
///     7,
/// );
/// let w = gen.generate(SimDuration::from_secs(10));
/// assert!((w.len() as i64 - 1000).abs() < 30);
/// ```
#[derive(Clone, Debug)]
pub struct PacedGen {
    states: Vec<MmppState>,
    jitter: f64,
    mix: IoMix,
    rng: StdRng,
}

impl PacedGen {
    /// Creates a paced generator over the given states (visited like an
    /// MMPP: exponential holding, uniform jumps) with per-arrival jitter of
    /// `jitter` periods (`0` = strictly periodic, values near `1` approach
    /// Poisson-like local randomness).
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty or `jitter` is outside `[0, 1]`.
    pub fn new(states: Vec<MmppState>, jitter: f64, seed: u64) -> Self {
        assert!(
            !states.is_empty(),
            "paced generator needs at least one state"
        );
        assert!(
            (0.0..=1.0).contains(&jitter),
            "jitter must be in [0, 1]: {jitter}"
        );
        PacedGen {
            states,
            jitter,
            mix: IoMix::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configured jitter fraction.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }
}

impl ArrivalProcess for PacedGen {
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
            if s.rate > 0.0 {
                let interval = 1.0 / s.rate;
                // Random phase so merged copies do not phase-lock.
                let mut next = t.as_secs_f64() + self.rng.gen_range(0.0..interval);
                let end_s = period_end.as_secs_f64();
                while next < end_s {
                    let jitter = if self.jitter > 0.0 {
                        self.rng
                            .gen_range(-self.jitter * interval..=self.jitter * interval)
                    } else {
                        0.0
                    };
                    let at = (next + jitter).max(0.0);
                    if at < end_s {
                        out.push(
                            self.mix
                                .request_at(SimTime::from_secs_f64(at), &mut self.rng),
                        );
                    }
                    next += interval;
                }
            }
            t = period_end;
            if self.states.len() > 1 {
                let mut nxt = self.rng.gen_range(0..self.states.len() - 1);
                if nxt >= state {
                    nxt += 1;
                }
                state = nxt;
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

    fn steady(rate: f64, jitter: f64, seed: u64) -> PacedGen {
        PacedGen::new(
            vec![MmppState::new(rate, SimDuration::from_secs(1000))],
            jitter,
            seed,
        )
    }

    #[test]
    fn deterministic_given_seed() {
        let d = SimDuration::from_secs(20);
        assert_eq!(
            steady(200.0, 0.3, 5).generate(d),
            steady(200.0, 0.3, 5).generate(d)
        );
    }

    #[test]
    fn hits_target_rate() {
        let w = steady(500.0, 0.4, 1).generate(SimDuration::from_secs(40));
        let rate = w.len() as f64 / 40.0;
        assert!((rate - 500.0).abs() < 20.0, "rate {rate}");
    }

    #[test]
    fn far_smoother_than_poisson() {
        // Paced traffic's window-count dispersion is well below the Poisson
        // value of 1.
        let w = steady(1000.0, 0.4, 2).generate(SimDuration::from_secs(60));
        let idc = index_of_dispersion(RateSeries::new(&w, SimDuration::from_millis(100)).counts());
        assert!(idc < 0.3, "idc {idc}");
    }

    #[test]
    fn merged_paced_streams_add_without_pooling() {
        // Peak window rate of the merged stream is close to the sum of the
        // individual peaks (the additivity the consolidation result needs).
        let a = steady(400.0, 0.3, 3).generate(SimDuration::from_secs(30));
        let b = steady(400.0, 0.3, 4).generate(SimDuration::from_secs(30));
        let m = a.merged(&b);
        let window = SimDuration::from_millis(10);
        let peak_m = RateSeries::new(&m, window).peak_iops();
        let peak_a = RateSeries::new(&a, window).peak_iops();
        assert!(
            peak_m < 1.35 * 2.0 * peak_a.min(400.0 * 1.5),
            "merged peak {peak_m} vs individual {peak_a}"
        );
    }

    #[test]
    fn zero_jitter_is_strictly_periodic() {
        let w = steady(100.0, 0.0, 6).generate(SimDuration::from_secs(10));
        let times: Vec<f64> = w.iter().map(|r| r.arrival.as_secs_f64()).collect();
        for pair in times.windows(2) {
            let gap = pair[1] - pair[0];
            assert!((gap - 0.01).abs() < 1e-6, "gap {gap}");
        }
    }

    #[test]
    fn multi_state_changes_rate() {
        let mut gen = PacedGen::new(
            vec![
                MmppState::new(100.0, SimDuration::from_secs(5)),
                MmppState::new(1000.0, SimDuration::from_secs(5)),
            ],
            0.2,
            9,
        );
        let w = gen.generate(SimDuration::from_secs(60));
        let series = RateSeries::new(&w, SimDuration::from_secs(1));
        assert!(series.peak_iops() > 500.0);
        let mean = w.mean_iops();
        assert!((200.0..900.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn accessors() {
        let g = steady(100.0, 0.25, 0);
        assert_eq!(g.states.len(), 1);
        assert_eq!(g.jitter(), 0.25);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn empty_states_rejected() {
        let _ = PacedGen::new(vec![], 0.2, 0);
    }

    #[test]
    #[should_panic(expected = "jitter must be in")]
    fn bad_jitter_rejected() {
        let _ = PacedGen::new(vec![MmppState::new(1.0, SimDuration::from_secs(1))], 1.5, 0);
    }
}
