//! Graceful QoS degradation: the adaptive control loop that keeps Q1
//! honest when the server itself misbehaves.
//!
//! The paper's guarantee — every admitted request finishes within `δ` —
//! rests on the server actually delivering `Cmin`. When effective capacity
//! drops (rebuilds, flushes, outages), holding `maxQ1 = ⌊Cmin·δ⌋` silently
//! converts the guarantee into a lie. The graceful alternative implemented
//! here renegotiates the guarantee *downward in graduated steps*: a
//! [`DegradationController`] tracks `C_eff/C` from observed service times
//! (via [`CapacityEstimator`]) and walks the [`DEGRADATION_STEPS`] ladder;
//! every step change calls [`CapacityAdaptive::renegotiate`] on the
//! scheduler, which shrinks the RTT bound to `⌊C_eff·δ⌋` — shedding *new*
//! arrivals to Q2 rather than letting queued Q1 requests miss — and
//! recomputes Miser slack and FairQueue weights against `C_eff`.
//!
//! [`AdaptiveScheduler`] wires the loop into any recombination scheduler
//! without touching the engine: it observes dispatches and completions from
//! inside the [`Scheduler`] interface.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use gqos_faults::CapacityEstimator;
use gqos_sim::{
    Dispatch, FcfsScheduler, Scheduler, ServerId, ServiceClass, TraceEvent, TraceHandle,
};
use gqos_trace::{Iops, Request, RequestId, SimDuration, SimTime};

/// The graduated ladder of renegotiated capacity fractions, descending from
/// 1.0 (healthy).
///
/// Degradation is immediate (jump straight to the step matching the
/// estimate — shedding late is how deadlines get missed) while recovery is
/// deliberate: one step at a time, and only after a run of consecutive
/// healthy observations, so a flapping server does not whipsaw the
/// admission bound.
pub const DEGRADATION_STEPS: [f64; 6] = [1.0, 0.9, 0.75, 0.5, 0.25, 0.1];

/// Relative headroom for step selection: a step `s` matches an estimate
/// `e` when `s ≤ e·(1 + MARGIN)`, so a near-healthy estimate counts as
/// healthy.
const MARGIN: f64 = 0.02;

/// Consecutive better-than-current observations required before the
/// controller climbs one step.
const RECOVERY_PATIENCE: u32 = 8;

/// The deepest (most conservative) ladder level whose fraction the
/// estimate still supports, with headroom [`MARGIN`].
fn level_for(estimate: f64) -> usize {
    let ceiling = estimate * (1.0 + MARGIN);
    DEGRADATION_STEPS
        .iter()
        .position(|&s| s <= ceiling)
        .unwrap_or(DEGRADATION_STEPS.len() - 1)
}

/// Tracks the effective capacity online and decides when to renegotiate.
///
/// Feed it one `(observed, nominal)` service-time pair per completion; it
/// returns `Some(new_factor)` whenever the graduated level changes.
///
/// On a healthy server every observation is exactly 1.0, the estimator
/// never moves off its 1.0 fixed point, and the controller never fires —
/// which is what keeps fault-free runs byte-identical to unadapted ones.
#[derive(Clone, Debug)]
pub struct DegradationController {
    estimator: CapacityEstimator,
    level: usize,
    recovery_streak: u32,
}

impl DegradationController {
    /// Creates a controller over [`DEGRADATION_STEPS`] with the given
    /// estimator window.
    pub fn new(window: usize) -> Self {
        DegradationController {
            estimator: CapacityEstimator::new(window),
            level: 0,
            recovery_streak: 0,
        }
    }

    /// The current renegotiated capacity fraction `φ̂` — what admission
    /// control believes the server can sustain.
    pub fn factor(&self) -> f64 {
        DEGRADATION_STEPS[self.level]
    }

    /// The raw capacity estimate `C_eff/C` the ladder quantises.
    pub fn estimate(&self) -> f64 {
        self.estimator.estimate()
    }

    /// `true` while the ladder sits below the nominal rung — the freeze
    /// signal for the SLO-window feedback controller's non-interference
    /// rule: latencies observed against a degraded server say nothing
    /// about a tenant's *share*, so the share loop must hold rather than
    /// fight the ladder's renegotiation.
    pub fn is_degraded(&self) -> bool {
        self.level > 0
    }

    /// Folds one completion into the estimate; returns the new factor if
    /// the graduated level changed.
    pub fn observe(&mut self, observed: SimDuration, nominal: SimDuration) -> Option<f64> {
        let estimate = self.estimator.observe(observed, nominal);
        let target = level_for(estimate);
        if target > self.level {
            // Degrade immediately, straight to the supported level.
            self.level = target;
            self.recovery_streak = 0;
            return Some(self.factor());
        }
        if target < self.level {
            self.recovery_streak += 1;
            if self.recovery_streak > RECOVERY_PATIENCE {
                // Recover gradually: one rung per patience run.
                self.level -= 1;
                self.recovery_streak = 0;
                return Some(self.factor());
            }
        } else {
            self.recovery_streak = 0;
        }
        None
    }
}

impl fmt::Display for DegradationController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "degradation level {} (factor {:.2}, estimate {:.3})",
            self.level,
            self.factor(),
            self.estimate()
        )
    }
}

/// A scheduler whose admission bound can be renegotiated against an
/// estimated effective capacity — the contract [`AdaptiveScheduler`]
/// drives.
pub trait CapacityAdaptive: Scheduler {
    /// Renegotiates the guarantee for `C_eff = factor · C`: shrink the RTT
    /// bound, recompute slack/weights. `factor` is in `[0, 1]`.
    fn renegotiate(&mut self, factor: f64);

    /// The currently negotiated factor.
    fn degradation_factor(&self) -> f64;

    /// Pending primary (Q1) requests — used to detect, around an arrival,
    /// whether it was admitted to Q1.
    fn primary_backlog(&self) -> u64;
}

/// The unshaped baseline has no admission bound to renegotiate; the
/// degradation invariant is vacuous for it.
impl CapacityAdaptive for FcfsScheduler {
    fn renegotiate(&mut self, _factor: f64) {}

    fn degradation_factor(&self) -> f64 {
        1.0
    }

    fn primary_backlog(&self) -> u64 {
        0
    }
}

/// One Q1 admission, as witnessed by an [`AdaptiveScheduler`]: which
/// request, when, and what capacity fraction admission control believed in
/// at that instant. The degradation invariant quantifies over these
/// records: if the server actually sustained `factor` over the request's
/// deadline window, the request met its deadline.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct AdmissionRecord {
    /// The admitted request.
    pub id: RequestId,
    /// Admission instant.
    pub at: SimTime,
    /// The controller's negotiated capacity fraction `φ̂` at admission.
    pub factor: f64,
}

/// Shared handle to an [`AdaptiveScheduler`]'s admission log.
pub type AdmissionLog = Rc<RefCell<Vec<AdmissionRecord>>>;

/// Wraps a recombination scheduler with the degradation control loop:
/// per-completion capacity estimation, graduated renegotiation, and an
/// optional admission log for auditing the degradation invariant.
///
/// The wrapper is transparent to the engine — it implements [`Scheduler`]
/// by delegation, recording dispatch instants in [`next_for`] and deriving
/// observed service times in [`on_completion`]. With a healthy server the
/// controller never fires and the wrapped scheduler behaves identically to
/// an unwrapped one.
///
/// [`next_for`]: Scheduler::next_for
/// [`on_completion`]: Scheduler::on_completion
#[derive(Debug)]
pub struct AdaptiveScheduler<S> {
    inner: S,
    controller: DegradationController,
    /// Nominal (healthy) service time per server, indexed by [`ServerId`].
    nominals: Vec<SimDuration>,
    /// `(request, dispatch instant, server)` for requests in service.
    in_flight: Vec<(RequestId, SimTime, usize)>,
    log: Option<AdmissionLog>,
    trace: TraceHandle,
}

impl<S: CapacityAdaptive> AdaptiveScheduler<S> {
    /// Wraps `inner`; `server_rates` lists the nominal capacity of each
    /// server in [`ServerId`] order (needed to translate observed service
    /// times into capacity fractions).
    ///
    /// # Panics
    ///
    /// Panics if `server_rates` is empty.
    pub fn new(inner: S, controller: DegradationController, server_rates: &[Iops]) -> Self {
        assert!(!server_rates.is_empty(), "at least one server rate needed");
        AdaptiveScheduler {
            inner,
            controller,
            nominals: server_rates.iter().map(|r| r.service_time()).collect(),
            in_flight: Vec::new(),
            log: None,
            trace: TraceHandle::disabled(),
        }
    }

    /// Enables admission logging and returns the shared log handle.
    pub fn with_admission_log(mut self) -> (Self, AdmissionLog) {
        let log: AdmissionLog = Rc::new(RefCell::new(Vec::new()));
        self.log = Some(Rc::clone(&log));
        (self, log)
    }

    /// Emits a `DegradationChanged` event into `trace` at every graduated
    /// rung change (both degradations and recoveries).
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// The controller's current view of the server.
    pub fn controller(&self) -> &DegradationController {
        &self.controller
    }
}

impl<S: CapacityAdaptive> Scheduler for AdaptiveScheduler<S> {
    fn on_arrival(&mut self, request: Request, now: SimTime) {
        let id = request.id;
        let before = self.inner.primary_backlog();
        self.inner.on_arrival(request, now);
        if let Some(log) = &self.log {
            if self.inner.primary_backlog() > before {
                log.borrow_mut().push(AdmissionRecord {
                    id,
                    at: now,
                    factor: self.controller.factor(),
                });
            }
        }
    }

    fn next_for(&mut self, server: ServerId, now: SimTime) -> Dispatch {
        let dispatch = self.inner.next_for(server, now);
        if let Dispatch::Serve(request, _) = &dispatch {
            self.in_flight.push((request.id, now, server.index()));
        }
        dispatch
    }

    fn on_completion(&mut self, request: &Request, class: ServiceClass, now: SimTime) {
        self.inner.on_completion(request, class, now);
        if let Some(pos) = self
            .in_flight
            .iter()
            .position(|&(id, _, _)| id == request.id)
        {
            let (_, dispatched, server) = self.in_flight.swap_remove(pos);
            let observed = now.saturating_duration_since(dispatched);
            let nominal = self.nominals[server];
            let before = self.controller.factor();
            if let Some(factor) = self.controller.observe(observed, nominal) {
                self.trace.emit_with(|| TraceEvent::DegradationChanged {
                    at: now,
                    from_factor: before,
                    to_factor: factor,
                });
                self.inner.renegotiate(factor);
            }
        }
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miser::MiserScheduler;
    use crate::target::Provision;

    fn dms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn ladder_starts_healthy_and_descends() {
        assert_eq!(DEGRADATION_STEPS[0], 1.0);
        assert!(DEGRADATION_STEPS.windows(2).all(|w| w[0] > w[1]));
        assert!(DEGRADATION_STEPS.iter().all(|&s| s.is_finite() && s > 0.0));
    }

    #[test]
    fn ladder_selection_with_margin() {
        assert_eq!(level_for(1.0), 0);
        // 2% headroom lets a near-healthy estimate count as healthy.
        assert_eq!(level_for(0.985), 0);
        assert_eq!(level_for(0.6), 3); // 0.5 rung
        assert_eq!(level_for(0.05), 5); // below the ladder: deepest rung
    }

    #[test]
    fn controller_degrades_fast_and_recovers_slowly() {
        let mut c = DegradationController::new(4);
        assert_eq!(c.factor(), 1.0);
        // A burst of 4x service times: degrade within a few completions.
        let mut changed = None;
        for _ in 0..20 {
            if let Some(f) = c.observe(dms(40), dms(10)) {
                changed = Some(f);
            }
        }
        let degraded = changed.expect("controller never degraded");
        assert!(degraded <= 0.5, "degraded factor {degraded}");
        // Healthy again: recovery takes at least `patience` observations
        // per rung and climbs one rung at a time.
        let mut upgrades = Vec::new();
        for _ in 0..200 {
            if let Some(f) = c.observe(dms(10), dms(10)) {
                upgrades.push(f);
            }
        }
        assert!(!upgrades.is_empty(), "controller never recovered");
        assert!(
            upgrades.windows(2).all(|w| w[0] < w[1]),
            "recovery must climb monotonically: {upgrades:?}"
        );
        assert_eq!(*upgrades.last().unwrap(), 1.0, "full recovery expected");
        assert!(c.to_string().contains("level 0"));
    }

    #[test]
    fn healthy_observations_never_fire() {
        let mut c = DegradationController::new(16);
        for _ in 0..10_000 {
            assert_eq!(c.observe(dms(10), dms(10)), None);
        }
        assert_eq!(c.factor(), 1.0);
        assert_eq!(c.estimate(), 1.0);
    }

    #[test]
    fn adaptive_wrapper_sheds_under_degradation() {
        // Miser with maxQ1 = 5; a stream of 3x-stretched completions must
        // shrink the bound and start shedding.
        let p = Provision::new(Iops::new(100.0), Iops::new(100.0));
        let inner = MiserScheduler::new(p, dms(50));
        let controller = DegradationController::new(4);
        let (mut s, log) =
            AdaptiveScheduler::new(inner, controller, &[p.total()]).with_admission_log();

        let mut now = SimTime::ZERO;
        // Drive dispatch/complete cycles with 3x the nominal 5 ms service.
        for id in 0..30u64 {
            let r = Request::at(now).with_id(RequestId::new(id));
            s.on_arrival(r, now);
            if let Dispatch::Serve(req, class) = s.next_for(ServerId::new(0), now) {
                now += dms(15); // nominal is 5 ms at 200 IOPS
                s.on_completion(&req, class, now);
            }
        }
        assert!(
            s.controller().factor() < 1.0,
            "controller failed to degrade: {}",
            s.controller()
        );
        let records = log.borrow();
        assert!(!records.is_empty());
        // Later admissions carry the degraded factor.
        assert!(records.last().unwrap().factor < 1.0);
        assert!(records.first().unwrap().factor == 1.0);
    }

    #[test]
    fn fcfs_is_vacuously_adaptive() {
        let mut s = FcfsScheduler::new();
        s.renegotiate(0.1);
        assert_eq!(s.degradation_factor(), 1.0);
        assert_eq!(s.primary_backlog(), 0);
    }
}
