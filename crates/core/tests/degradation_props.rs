//! The degradation contract, adversarially checked.
//!
//! Under *any* fault schedule, a Q1 request admitted while the server was
//! actually delivering at least the admission-time negotiated capacity
//! fraction — over the whole deadline window, with no latency jitter
//! nearby — still meets `δ`. Degradation may shed arrivals to Q2 (that is
//! its job) but must never let an honestly-admitted primary miss.

use gqos_core::{
    DegradationController, Provision, RecombinePolicy, WorkloadShaper, DEGRADATION_STEPS,
};
use gqos_faults::FaultSchedule;
use gqos_trace::{Iops, SimDuration, SimTime, Workload};
use proptest::prelude::*;

/// Feeds the controller one completion whose observed service time
/// encodes an instantaneous capacity ratio of `inst` against a 1 ms
/// nominal: `observed = nominal / inst`, so the estimator sees `inst`
/// (up to sub-ppm rounding of the nanosecond grid).
fn observe_ratio(controller: &mut DegradationController, inst: f64) -> Option<f64> {
    let nominal = SimDuration::from_nanos(1_000_000);
    let observed = SimDuration::from_nanos((1_000_000.0 / inst).round() as u64);
    controller.observe(observed, nominal)
}

/// A calm stream with periodic bursts — enough pressure to keep Q1 near
/// its bound so renegotiation actually bites.
fn bursty_workload(cmin: f64, cycles: u64, depth_seed: u64) -> Workload {
    let mut arrivals = Vec::new();
    let period_ms = 100u64;
    let per_cycle = (cmin * (period_ms as f64) / 1000.0 * 0.7).ceil() as u64;
    for cycle in 0..cycles {
        let base = cycle * period_ms;
        for i in 0..per_cycle {
            arrivals.push(SimTime::from_millis(
                base + i * period_ms / per_cycle.max(1),
            ));
        }
        // Every few cycles, a deep burst at the cycle boundary.
        if (cycle + depth_seed).is_multiple_of(4) {
            for _ in 0..per_cycle {
                arrivals.push(SimTime::from_millis(base));
            }
        }
    }
    Workload::from_arrivals(arrivals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every recombination policy and every generated fault schedule:
    /// admissions whose deadline window the server honoured at the
    /// admission-time fraction complete within the deadline.
    #[test]
    fn honest_admissions_meet_the_deadline(
        seed in 0u64..1_000,
        severity in 0.0f64..1.0,
        cmin in 150u64..400,
        delta_ms in 20u64..60,
    ) {
        let cmin = cmin as f64;
        let delta = SimDuration::from_millis(delta_ms);
        let c = Iops::new(cmin);
        if c.requests_within(delta) == 0 {
            return Ok(());
        }
        // The paper's no-miss provision: ΔC = Cmin.
        let provision = Provision::new(c, c);
        let shaper = WorkloadShaper::new(provision, delta);
        let workload = bursty_workload(cmin, 30, seed % 4);
        let span = workload.span().max(SimDuration::from_secs(1));
        let schedule = FaultSchedule::generate(seed, span, severity);

        for policy in RecombinePolicy::ALL {
            let (report, admissions) =
                shaper.run_with_faults_logged(&workload, policy, &schedule);
            for record in &admissions {
                let window_end = record.at + delta;
                // Jitter near the window voids the capacity accounting:
                // an in-flight dispatch delayed just before admission can
                // push work past what the rate factor alone predicts.
                let guard_start = record
                    .at
                    .checked_sub(delta)
                    .unwrap_or(SimTime::ZERO);
                if schedule.has_jitter_in(guard_start, window_end) {
                    continue;
                }
                if schedule.min_rate_factor(record.at, window_end) < record.factor {
                    continue;
                }
                let completion = report
                    .records()
                    .iter()
                    .find(|r| r.id == record.id)
                    .unwrap_or_else(|| panic!("{policy}: admitted {} never completed", record.id));
                prop_assert!(
                    completion.response_time() <= delta,
                    "{policy}: request {} admitted at {} under factor {:.3} \
                     missed: response {} > {delta} (severity {severity:.2}, seed {seed})",
                    record.id,
                    record.at,
                    record.factor,
                    completion.response_time(),
                );
            }
        }
    }

    /// The admission log itself is well-formed: timestamps are
    /// non-decreasing and factors stay within the negotiated ladder.
    #[test]
    fn admission_log_is_monotonic_and_bounded(
        seed in 0u64..500,
        severity in 0.0f64..1.0,
    ) {
        let c = Iops::new(250.0);
        let delta = SimDuration::from_millis(20);
        let shaper = WorkloadShaper::new(Provision::new(c, c), delta);
        let workload = bursty_workload(250.0, 20, seed % 4);
        let span = workload.span().max(SimDuration::from_secs(1));
        let schedule = FaultSchedule::generate(seed, span, severity);
        let (_, admissions) =
            shaper.run_with_faults_logged(&workload, RecombinePolicy::Miser, &schedule);
        for pair in admissions.windows(2) {
            prop_assert!(pair[0].at <= pair[1].at);
        }
        for record in &admissions {
            prop_assert!(record.factor > 0.0 && record.factor <= 1.0);
        }
    }

    /// The oscillation guard: once the controller has settled on a rung,
    /// borderline observations alternating around that rung's capacity
    /// fraction — strictly inside the ladder's 2% headroom margin — must
    /// never change the level. No `Some` from `observe`, no factor
    /// drift; the ladder only moves when the estimate genuinely leaves
    /// the rung's band.
    #[test]
    fn borderline_oscillation_never_flaps_the_rung(
        level in 1usize..=5,
        eps_hi in 0.0005f64..0.016,
        eps_lo in 0.0005f64..0.016,
        window in 4usize..32,
        wobble in 50usize..300,
    ) {
        let s = DEGRADATION_STEPS[level];
        let mut controller = DegradationController::new(window);

        // Settle: a sustained fault at exactly `s` walks the controller
        // down the ladder. Degradation is monotone on the way — every
        // emitted renegotiation is strictly deeper than the last.
        let mut last_emitted = f64::INFINITY;
        for _ in 0..600 {
            if let Some(factor) = observe_ratio(&mut controller, s) {
                prop_assert!(
                    factor < last_emitted,
                    "settling emitted a non-deepening renegotiation: {factor} after {last_emitted}"
                );
                last_emitted = factor;
            }
        }
        prop_assert_eq!(controller.factor(), s, "controller must settle on the faulted rung");

        // Oscillate: capacity observations alternate just above and just
        // below the rung, both inside the margin. The quantised level —
        // and therefore the admission bound — must not move at all.
        for i in 0..wobble {
            let inst = if i % 2 == 0 { s * (1.0 + eps_hi) } else { s * (1.0 - eps_lo) };
            let change = observe_ratio(&mut controller, inst);
            prop_assert_eq!(
                change, None,
                "borderline wobble {} (inst {:.5}) renegotiated off rung {}",
                i, inst, s
            );
            prop_assert_eq!(controller.factor(), s);
        }
    }
}
