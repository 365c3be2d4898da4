//! Cumulative arrival curves, service curves, and overload analysis.
//!
//! This module implements the analytical model of Section 2.1 of the paper
//! (Figure 3): the cumulative arrival curve `A(t)`, the service curve of a
//! work-conserving rate-`C` server, and the *Service Curve Limit* (SCL) —
//! the line `S(t + δ)` above which pending requests can no longer all meet a
//! response-time bound of `δ`. From these it derives Lemma 1's lower bound on
//! the number of requests that **any** scheduler (online or offline) must
//! fail, which is the yardstick used to verify that RTT decomposition is
//! optimal.

use std::fmt;

use crate::time::{Iops, SimDuration, SimTime};
use crate::workload::Workload;

/// The cumulative arrival curve `A(t)` of a workload: a right-continuous
/// staircase counting requests that arrived at or before `t`.
///
/// # Examples
///
/// ```
/// use gqos_trace::{ArrivalCurve, SimTime, Workload};
///
/// let w = Workload::from_arrivals([SimTime::from_millis(1), SimTime::from_millis(1)]);
/// let curve = ArrivalCurve::new(&w);
/// assert_eq!(curve.cumulative_at(SimTime::from_millis(1)), 2);
/// assert_eq!(curve.cumulative_at(SimTime::ZERO), 0);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArrivalCurve {
    /// `(instant, cumulative count at and including that instant)`,
    /// strictly increasing in both components.
    steps: Vec<(SimTime, u64)>,
}

impl ArrivalCurve {
    /// Builds the arrival curve of `workload`.
    pub fn new(workload: &Workload) -> Self {
        let mut steps = Vec::new();
        let mut total = 0u64;
        for (t, n) in workload.arrival_counts() {
            total += n;
            steps.push((t, total));
        }
        ArrivalCurve { steps }
    }

    /// `A(t)`: requests arrived at or before `t`.
    pub fn cumulative_at(&self, t: SimTime) -> u64 {
        match self.steps.partition_point(|&(at, _)| at <= t) {
            0 => 0,
            i => self.steps[i - 1].1,
        }
    }

    /// The staircase breakpoints `(instant, cumulative count)`.
    pub fn steps(&self) -> &[(SimTime, u64)] {
        &self.steps
    }

    /// Total number of requests.
    pub fn total(&self) -> u64 {
        self.steps.last().map_or(0, |&(_, n)| n)
    }
}

/// A maximal interval during which a work-conserving rate-`C` server that
/// serves *every* request is continuously busy.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct BusyPeriod {
    /// First arrival of the period (service starts here).
    pub start: SimTime,
    /// Instant the backlog drains to zero.
    pub end: SimTime,
    /// Number of requests arriving within `[start, end)`.
    pub arrivals: u64,
}

impl BusyPeriod {
    /// Length of the busy period.
    pub fn len(&self) -> SimDuration {
        self.end - self.start
    }

    /// `true` if the period is degenerate (zero length).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl fmt::Display for BusyPeriod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "busy [{} .. {}] ({} arrivals)",
            self.start, self.end, self.arrivals
        )
    }
}

/// Overload analysis of a workload against a rate-`C`, deadline-`δ` service
/// model (the paper's Figure 3).
///
/// All quantities are computed on the *fluid* model the paper analyses:
/// the server completes work continuously at `C` requests per second while
/// its backlog is non-zero.
#[derive(Clone, Debug)]
pub struct ServiceAnalysis {
    capacity: Iops,
    deadline: SimDuration,
    busy_periods: Vec<BusyPeriod>,
    /// Arrival instants where `A(a_k)` exceeds the SCL, with the overshoot
    /// amount `⌈A(a_k) − S(a_k + δ)⌉`.
    overload_instants: Vec<(SimTime, u64)>,
    lower_bound_misses: u64,
}

impl ServiceAnalysis {
    /// Analyses `workload` under capacity `capacity` and response-time bound
    /// `deadline`.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero.
    pub fn new(workload: &Workload, capacity: Iops, deadline: SimDuration) -> Self {
        assert!(!deadline.is_zero(), "deadline must be positive");
        let c = capacity.get();
        let delta = deadline.as_secs_f64();
        // Tolerance for float comparisons on cumulative work (requests).
        const EPS: f64 = 1e-9;

        let mut busy_periods = Vec::new();
        let mut overload_instants = Vec::new();
        let mut lower_bound = 0u64;

        // State of the current busy period.
        let mut period_start: Option<SimTime> = None;
        let mut period_start_secs = 0.0f64;
        let mut period_arrivals = 0u64;
        let mut backlog = 0.0f64; // outstanding requests (fluid)
        let mut last_t = 0.0f64;
        let mut period_max_deficit = 0u64;

        let close_period = |start: SimTime,
                            backlog_now: f64,
                            now_secs: f64,
                            arrivals: u64,
                            max_deficit: u64,
                            busy_periods: &mut Vec<BusyPeriod>,
                            lower_bound: &mut u64| {
            let end_secs = now_secs + backlog_now / c;
            busy_periods.push(BusyPeriod {
                start,
                end: SimTime::from_secs_f64(end_secs),
                arrivals,
            });
            *lower_bound += max_deficit;
        };

        for (t, n) in workload.arrival_counts() {
            let t_secs = t.as_secs_f64();
            if period_start.is_some() {
                // Drain the backlog up to this arrival.
                let drained = c * (t_secs - last_t);
                if backlog - drained <= EPS {
                    // The period ended strictly before this arrival.
                    let start = period_start.take().expect("period open");
                    close_period(
                        start,
                        backlog,
                        last_t,
                        period_arrivals,
                        period_max_deficit,
                        &mut busy_periods,
                        &mut lower_bound,
                    );
                    backlog = 0.0;
                    period_arrivals = 0;
                    period_max_deficit = 0;
                } else {
                    backlog -= drained;
                }
            }
            if period_start.is_none() {
                period_start = Some(t);
                period_start_secs = t_secs;
            }
            backlog += n as f64;
            period_arrivals += n;
            last_t = t_secs;

            // Lemma 1 deficit at this arrival instant: requests of this busy
            // period with deadline ≤ t + δ, minus the service any scheduler
            // can complete on them by then (they arrive no earlier than the
            // period start, where the server had no carried-over backlog).
            let servable = c * (t_secs + delta - period_start_secs);
            let deficit = period_arrivals as f64 - servable;
            if deficit > EPS {
                let overshoot = deficit.ceil() as u64;
                overload_instants.push((t, overshoot));
                period_max_deficit = period_max_deficit.max(overshoot);
            }
        }
        if let Some(start) = period_start {
            close_period(
                start,
                backlog,
                last_t,
                period_arrivals,
                period_max_deficit,
                &mut busy_periods,
                &mut lower_bound,
            );
        }

        ServiceAnalysis {
            capacity,
            deadline,
            busy_periods,
            overload_instants,
            lower_bound_misses: lower_bound,
        }
    }

    /// The analysed capacity.
    pub fn capacity(&self) -> Iops {
        self.capacity
    }

    /// The analysed response-time bound δ.
    pub fn deadline(&self) -> SimDuration {
        self.deadline
    }

    /// Busy periods of the fluid rate-`C` server serving every request.
    pub fn busy_periods(&self) -> &[BusyPeriod] {
        &self.busy_periods
    }

    /// Arrival instants whose cumulative arrivals exceed the Service Curve
    /// Limit, with the overshoot `⌈A(a_k) − S(a_k + δ)⌉` (Figure 3 points
    /// "2" and "3").
    pub fn overload_instants(&self) -> &[(SimTime, u64)] {
        &self.overload_instants
    }

    /// Lemma 1 (summed over busy periods): a lower bound on the number of
    /// requests that must miss the deadline under **any** scheduler, online
    /// or offline, at this capacity.
    pub fn lower_bound_misses(&self) -> u64 {
        self.lower_bound_misses
    }

    /// `true` if every request can meet the deadline at this capacity
    /// (the lower bound is zero and no overload instant exists).
    pub fn is_feasible(&self) -> bool {
        self.lower_bound_misses == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn arrival_curve_staircase() {
        let w = Workload::from_arrivals([ms(1), ms(1), ms(3), ms(7)]);
        let c = ArrivalCurve::new(&w);
        assert_eq!(c.total(), 4);
        assert_eq!(c.steps().len(), 3);
        assert_eq!(c.cumulative_at(ms(0)), 0);
        assert_eq!(c.cumulative_at(ms(1)), 2);
        assert_eq!(c.cumulative_at(ms(2)), 2);
        assert_eq!(c.cumulative_at(ms(3)), 3);
        assert_eq!(c.cumulative_at(ms(100)), 4);
    }

    #[test]
    fn arrival_curve_of_empty_workload() {
        let c = ArrivalCurve::new(&Workload::new());
        assert_eq!(c.total(), 0);
        assert_eq!(c.cumulative_at(SimTime::MAX), 0);
        assert!(c.steps().is_empty());
    }

    #[test]
    fn single_request_is_feasible_and_one_busy_period() {
        let w = Workload::from_arrivals([ms(10)]);
        let a = ServiceAnalysis::new(&w, Iops::new(100.0), SimDuration::from_millis(10));
        assert!(a.is_feasible());
        assert_eq!(a.busy_periods().len(), 1);
        let p = a.busy_periods()[0];
        assert_eq!(p.start, ms(10));
        // One request at 100 IOPS takes 10 ms of fluid service.
        assert_eq!(p.end, ms(20));
        assert_eq!(p.arrivals, 1);
        assert!(!p.is_empty());
    }

    #[test]
    fn separated_arrivals_form_separate_busy_periods() {
        // 100 IOPS -> 10 ms per request; arrivals 30 ms apart never overlap.
        let w = Workload::from_arrivals([ms(0), ms(30), ms(60)]);
        let a = ServiceAnalysis::new(&w, Iops::new(100.0), SimDuration::from_millis(10));
        assert_eq!(a.busy_periods().len(), 3);
        assert!(a.is_feasible());
    }

    #[test]
    fn burst_exceeding_scl_is_detected() {
        // Paper's Figure 3 scenario: C = 1 req per unit, δ = 1 unit, so at
        // most C·δ = 1 pending request can still meet its deadline. A burst
        // of 3 simultaneous requests must miss at least
        // ceil(3 - C·(0 + δ - 0)) = 2 deadlines.
        let w = Workload::from_arrivals([SimTime::ZERO, SimTime::ZERO, SimTime::ZERO]);
        let a = ServiceAnalysis::new(&w, Iops::new(1.0), SimDuration::from_secs(1));
        assert!(!a.is_feasible());
        assert_eq!(a.lower_bound_misses(), 2);
        assert_eq!(a.overload_instants().len(), 1);
        assert_eq!(a.overload_instants()[0], (SimTime::ZERO, 2));
    }

    #[test]
    fn deficit_accumulates_within_one_busy_period() {
        // C = 1 rps, δ = 1 s. Arrivals: 2 at t=0, 1 at t=1, 1 at t=2.
        // Backlog never drains (1 req/s arrival rate exactly matches C after
        // the initial burst), so this is one busy period. Deficit at t=0:
        // 2 - 1 = 1. At t=1: 4 arrivals? no: 3 - 1·(1+1) = 1. At t=2:
        // 4 - 3 = 1. Max deficit = 1 -> exactly one forced miss.
        let w = Workload::from_arrivals([
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        ]);
        let a = ServiceAnalysis::new(&w, Iops::new(1.0), SimDuration::from_secs(1));
        assert_eq!(a.busy_periods().len(), 1);
        assert_eq!(a.lower_bound_misses(), 1);
    }

    #[test]
    fn deficits_sum_across_busy_periods() {
        // Two identical overloaded bursts separated by ample idle time: the
        // lower bound counts both.
        let w = Workload::from_arrivals([
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from_secs(100),
            SimTime::from_secs(100),
            SimTime::from_secs(100),
        ]);
        let a = ServiceAnalysis::new(&w, Iops::new(1.0), SimDuration::from_secs(1));
        assert_eq!(a.busy_periods().len(), 2);
        assert_eq!(a.lower_bound_misses(), 4);
    }

    #[test]
    fn higher_capacity_restores_feasibility() {
        let w = Workload::from_arrivals([SimTime::ZERO, SimTime::ZERO, SimTime::ZERO]);
        let a = ServiceAnalysis::new(&w, Iops::new(3.0), SimDuration::from_secs(1));
        assert!(a.is_feasible());
        assert_eq!(a.lower_bound_misses(), 0);
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn zero_deadline_rejected() {
        let w = Workload::from_arrivals([SimTime::ZERO]);
        let _ = ServiceAnalysis::new(&w, Iops::new(1.0), SimDuration::ZERO);
    }

    #[test]
    fn empty_workload_analysis() {
        let a = ServiceAnalysis::new(&Workload::new(), Iops::new(1.0), SimDuration::from_secs(1));
        assert!(a.is_feasible());
        assert!(a.busy_periods().is_empty());
    }

    #[test]
    fn accessors_round_trip() {
        let w = Workload::from_arrivals([SimTime::ZERO]);
        let a = ServiceAnalysis::new(&w, Iops::new(50.0), SimDuration::from_millis(20));
        assert_eq!(a.capacity().get(), 50.0);
        assert_eq!(a.deadline(), SimDuration::from_millis(20));
        assert!(a.busy_periods()[0].to_string().contains("busy ["));
    }
}
