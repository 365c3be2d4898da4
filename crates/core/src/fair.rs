//! FairQueue — recombination by proportional sharing on one server.
//!
//! Both classes share a single server of capacity `Cmin + ΔC` through a fair
//! queueing scheduler weighted `Cmin : ΔC`. Unlike Split, spare capacity
//! moves freely between the classes (statistical multiplexing): the
//! overflow class inherits the whole server during calm stretches, and the
//! primary class is still guaranteed its `Cmin` share during bursts.

use gqos_fairqueue::{FlowId, Sfq};
use gqos_sim::{Dispatch, PolicyTag, Scheduler, ServerId, ServiceClass, TraceEvent, TraceHandle};
use gqos_trace::{Request, SimDuration, SimTime};

use crate::degrade::CapacityAdaptive;
use crate::rtt::RttClassifier;
use crate::target::Provision;

const PRIMARY_FLOW: FlowId = FlowId::new(0);
const OVERFLOW_FLOW: FlowId = FlowId::new(1);

/// The FairQueue recombination scheduler: RTT decomposition feeding a
/// two-flow start-time fair queueing scheduler.
///
/// Use with a single server of capacity [`Provision::total`].
///
/// # Examples
///
/// ```
/// use gqos_core::{FairQueueScheduler, Provision};
/// use gqos_sim::{simulate, FixedRateServer};
/// use gqos_trace::{Iops, SimDuration, SimTime, Workload};
///
/// let p = Provision::new(Iops::new(200.0), Iops::new(100.0));
/// let w = Workload::from_arrivals(vec![SimTime::ZERO; 8]);
/// let report = simulate(
///     &w,
///     FairQueueScheduler::new(p, SimDuration::from_millis(20)),
///     FixedRateServer::new(p.total()),
/// );
/// assert_eq!(report.completed(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct FairQueueScheduler {
    rtt: RttClassifier,
    flows: Sfq,
    /// The healthy `[Cmin, ΔC]` weights renegotiation scales from.
    nominal_weights: [f64; 2],
    trace: TraceHandle,
}

impl FairQueueScheduler {
    /// Creates a FairQueue scheduler with SFQ weights `Cmin : ΔC`.
    ///
    /// # Panics
    ///
    /// Panics if the RTT bound `⌊Cmin·δ⌋` is zero.
    pub fn new(provision: Provision, deadline: SimDuration) -> Self {
        FairQueueScheduler::with_trace(provision, deadline, TraceHandle::disabled())
    }

    /// Like [`new`](FairQueueScheduler::new), emitting `Admitted`/`Diverted`
    /// (with Q1 depth) and `Dispatched` (policy tag `fairqueue`) events into
    /// `trace`.
    pub fn with_trace(provision: Provision, deadline: SimDuration, trace: TraceHandle) -> Self {
        FairQueueScheduler {
            rtt: RttClassifier::new(provision.cmin(), deadline),
            flows: Sfq::new(&provision.weights()),
            nominal_weights: provision.weights(),
            trace,
        }
    }

    /// Queued primary requests.
    fn primary_pending(&self) -> usize {
        self.flows.flow_len(PRIMARY_FLOW)
    }
}

impl Scheduler for FairQueueScheduler {
    #[inline]
    fn on_arrival(&mut self, request: Request, now: SimTime) {
        match self.rtt.classify() {
            ServiceClass::PRIMARY => {
                self.trace.emit_with(|| TraceEvent::Admitted {
                    at: now,
                    id: request.id.index(),
                    queue_depth: self.rtt.len_q1(),
                });
                self.flows.enqueue(PRIMARY_FLOW, request);
            }
            _ => {
                self.trace.emit_with(|| TraceEvent::Diverted {
                    at: now,
                    id: request.id.index(),
                    queue_depth: self.rtt.len_q1(),
                });
                self.flows.enqueue(OVERFLOW_FLOW, request);
            }
        }
    }

    #[inline]
    fn next_for(&mut self, server: ServerId, now: SimTime) -> Dispatch {
        match self.flows.dequeue() {
            Some((flow, request)) => {
                let class = if flow == PRIMARY_FLOW {
                    ServiceClass::PRIMARY
                } else {
                    ServiceClass::OVERFLOW
                };
                self.trace.emit_with(|| TraceEvent::Dispatched {
                    at: now,
                    id: request.id.index(),
                    class: class.index(),
                    server: server.index(),
                    policy: PolicyTag::FairQueue,
                    slack: None,
                });
                Dispatch::Serve(request, class)
            }
            None => Dispatch::Idle,
        }
    }

    #[inline]
    fn on_completion(&mut self, _request: &Request, class: ServiceClass, _now: SimTime) {
        if class == ServiceClass::PRIMARY {
            self.rtt.primary_departed();
        }
    }

    #[inline]
    fn pending(&self) -> usize {
        self.flows.len()
    }
}

impl CapacityAdaptive for FairQueueScheduler {
    /// Shrinks the admission bound to `⌊C_eff·δ⌋` and recomputes the flow
    /// weights against `C_eff`: the primary class keeps its nominal `Cmin`
    /// weight while the overflow share scales with the factor, so the (now
    /// fewer) admitted primaries get first claim on whatever capacity the
    /// degraded server still delivers.
    fn renegotiate(&mut self, factor: f64) {
        self.rtt.set_degradation(factor);
        let [w_primary, w_overflow] = self.nominal_weights;
        // Weights must stay strictly positive; floor the overflow share so
        // an outage (factor 0) demotes rather than erases the flow.
        let scaled = (w_overflow * factor).max(w_overflow * 1e-6);
        self.flows.set_weights(&[w_primary, scaled]);
    }

    fn degradation_factor(&self) -> f64 {
        self.rtt.degradation()
    }

    fn primary_backlog(&self) -> u64 {
        self.primary_pending() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_sim::{simulate, FixedRateServer, RunReport};
    use gqos_trace::{Iops, Workload};

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn run(workload: &Workload, cmin: f64, delta_c: f64, deadline: SimDuration) -> RunReport {
        let p = Provision::new(Iops::new(cmin), Iops::new(delta_c));
        simulate(
            workload,
            FairQueueScheduler::new(p, deadline),
            FixedRateServer::new(p.total()),
        )
    }

    #[test]
    fn everything_completes() {
        let w = Workload::from_arrivals((0..60).map(|i| ms(i * 5)));
        let report = run(&w, 300.0, 30.0, dms(20));
        assert_eq!(report.completed(), 60);
    }

    #[test]
    fn overflow_uses_idle_capacity() {
        // Burst then silence: the overflow class drains at the full server
        // rate once the primary queue empties — much faster than Split's
        // dedicated delta_c server would.
        let w = Workload::from_arrivals(vec![ms(0); 10]);
        // maxQ1 = 2; 8 overflow requests.
        let report = run(&w, 100.0, 10.0, dms(20));
        let o = report.stats_for(ServiceClass::OVERFLOW);
        // Shared 110 IOPS server: all 10 served within ~91 ms total, far
        // below the 800 ms a dedicated 10-IOPS overflow server needs.
        assert!(
            o.max().unwrap() < SimDuration::from_millis(200),
            "overflow max {}",
            o.max().unwrap()
        );
    }

    #[test]
    fn primary_keeps_its_share_under_overflow_pressure() {
        // Sustained overload: the overflow backlog grows without bound, yet
        // the primary class keeps most of its deadlines thanks to its Cmin
        // share — while FCFS at the same total capacity collapses entirely.
        let mut arrivals = Vec::new();
        for c in 0..50u64 {
            for i in 0..8 {
                arrivals.push(ms(c * 40 + i)); // ~200 IOPS offered
            }
        }
        let w = Workload::from_arrivals(arrivals);
        let deadline = dms(20);
        let report = run(&w, 150.0, 15.0, deadline);
        let primary = report.stats_for(ServiceClass::PRIMARY);
        let frac = primary.fraction_within(deadline);
        assert!(frac > 0.8, "primary within deadline: {frac}");

        let fcfs = simulate(
            &w,
            gqos_sim::FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(165.0)),
        );
        let fcfs_frac = fcfs.stats().fraction_within(deadline);
        assert!(
            frac > fcfs_frac + 0.3,
            "isolation gain too small: FQ {frac:.3} vs FCFS {fcfs_frac:.3}"
        );
    }

    #[test]
    fn pending_counts_both_flows() {
        let p = Provision::new(Iops::new(100.0), Iops::new(10.0));
        let mut s = FairQueueScheduler::new(p, dms(20)); // maxQ1 = 2
        for _ in 0..4 {
            s.on_arrival(Request::at(ms(0)), ms(0));
        }
        assert_eq!(s.primary_pending(), 2);
        assert_eq!(s.flows.flow_len(OVERFLOW_FLOW), 2);
        assert_eq!(s.pending(), 4);
    }
}
