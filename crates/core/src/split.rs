//! Split — recombination on two dedicated physical servers.
//!
//! The simplest recombination strategy: the primary class gets its own
//! server of capacity `Cmin`, the overflow class a separate server of
//! capacity `ΔC` (in the spirit of write off-loading to idle spindles).
//! Isolation is perfect, but so is the waste: when either class idles, its
//! capacity cannot help the other — which is exactly what the FairQueue and
//! Miser comparisons in Figure 6 quantify.

use std::collections::VecDeque;

use gqos_sim::{Dispatch, PolicyTag, Scheduler, ServerId, ServiceClass, TraceEvent, TraceHandle};
use gqos_trace::{Request, SimDuration, SimTime};

use crate::degrade::CapacityAdaptive;
use crate::rtt::RttClassifier;
use crate::target::Provision;

/// Index of the primary server in a Split simulation.
pub const SPLIT_PRIMARY_SERVER: ServerId = ServerId::new(0);
/// Index of the overflow server in a Split simulation.
pub const SPLIT_OVERFLOW_SERVER: ServerId = ServerId::new(1);

/// The Split scheduler: RTT decomposition onto two dedicated servers.
///
/// Build the simulation with exactly two servers: server 0 at
/// [`Provision::cmin`], server 1 at [`Provision::delta_c`].
///
/// # Examples
///
/// ```
/// use gqos_core::{SplitScheduler, Provision};
/// use gqos_sim::{FixedRateServer, Simulation};
/// use gqos_trace::{Iops, SimDuration, SimTime, Workload};
///
/// let p = Provision::new(Iops::new(200.0), Iops::new(50.0));
/// let deadline = SimDuration::from_millis(20);
/// let w = Workload::from_arrivals(vec![SimTime::ZERO; 6]);
/// let report = Simulation::new(SplitScheduler::new(p, deadline))
///     .server(FixedRateServer::new(p.cmin()))
///     .server(FixedRateServer::new(p.delta_c()))
///     .run(&w);
/// assert_eq!(report.completed(), 6);
/// ```
#[derive(Clone, Debug)]
pub struct SplitScheduler {
    rtt: RttClassifier,
    q1: VecDeque<Request>,
    q2: VecDeque<Request>,
    trace: TraceHandle,
}

impl SplitScheduler {
    /// Creates a Split scheduler; admission uses `provision.cmin()`.
    ///
    /// # Panics
    ///
    /// Panics if the RTT bound `⌊Cmin·δ⌋` is zero.
    pub fn new(provision: Provision, deadline: SimDuration) -> Self {
        SplitScheduler::with_trace(provision, deadline, TraceHandle::disabled())
    }

    /// Like [`new`](SplitScheduler::new), emitting `Admitted`/`Diverted`
    /// (with Q1 depth) and `Dispatched` (policy tag `split`) events into
    /// `trace`.
    pub fn with_trace(provision: Provision, deadline: SimDuration, trace: TraceHandle) -> Self {
        SplitScheduler {
            rtt: RttClassifier::new(provision.cmin(), deadline),
            q1: VecDeque::new(),
            q2: VecDeque::new(),
            trace,
        }
    }
}

impl Scheduler for SplitScheduler {
    #[inline]
    fn on_arrival(&mut self, request: Request, now: SimTime) {
        match self.rtt.classify() {
            ServiceClass::PRIMARY => {
                self.trace.emit_with(|| TraceEvent::Admitted {
                    at: now,
                    id: request.id.index(),
                    queue_depth: self.rtt.len_q1(),
                });
                self.q1.push_back(request);
            }
            _ => {
                self.trace.emit_with(|| TraceEvent::Diverted {
                    at: now,
                    id: request.id.index(),
                    queue_depth: self.rtt.len_q1(),
                });
                self.q2.push_back(request);
            }
        }
    }

    #[inline]
    fn next_for(&mut self, server: ServerId, now: SimTime) -> Dispatch {
        let (queue, class) = match server {
            SPLIT_PRIMARY_SERVER => (&mut self.q1, ServiceClass::PRIMARY),
            SPLIT_OVERFLOW_SERVER => (&mut self.q2, ServiceClass::OVERFLOW),
            other => panic!("Split runs on exactly two servers, got {other}"),
        };
        match queue.pop_front() {
            Some(r) => {
                self.trace.emit_with(|| TraceEvent::Dispatched {
                    at: now,
                    id: r.id.index(),
                    class: class.index(),
                    server: server.index(),
                    policy: PolicyTag::Split,
                    slack: None,
                });
                Dispatch::Serve(r, class)
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
        self.q1.len() + self.q2.len()
    }
}

impl CapacityAdaptive for SplitScheduler {
    /// Split has no cross-class capacity to rebalance; renegotiation only
    /// shrinks the admission bound so new arrivals shed to Q2.
    fn renegotiate(&mut self, factor: f64) {
        self.rtt.set_degradation(factor);
    }

    fn degradation_factor(&self) -> f64 {
        self.rtt.degradation()
    }

    fn primary_backlog(&self) -> u64 {
        self.q1.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_sim::{FixedRateServer, Simulation};
    use gqos_trace::{Iops, Workload};

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn run(
        workload: &Workload,
        cmin: f64,
        delta_c: f64,
        deadline: SimDuration,
    ) -> gqos_sim::RunReport {
        let p = Provision::new(Iops::new(cmin), Iops::new(delta_c));
        Simulation::new(SplitScheduler::new(p, deadline))
            .server(FixedRateServer::new(p.cmin()))
            .server(FixedRateServer::new(p.delta_c()))
            .run(workload)
    }

    #[test]
    fn primary_deadlines_always_hold() {
        // Dedicated Cmin server + RTT admission = hard guarantee, any load.
        let mut arrivals = Vec::new();
        for c in 0..40u64 {
            for i in 0..((c % 9) + 1) {
                arrivals.push(ms(c * 50 + i));
            }
        }
        let w = Workload::from_arrivals(arrivals);
        let deadline = dms(20);
        let report = run(&w, 250.0, 25.0, deadline);
        let primary = report.stats_for(ServiceClass::PRIMARY);
        assert!(primary.max().unwrap() <= deadline);
        assert_eq!(report.completed(), w.len());
    }

    #[test]
    fn overflow_served_on_slow_dedicated_server() {
        // Burst of 6, room for 2 primary; overflow drains at delta_c only.
        let w = Workload::from_arrivals(vec![ms(0); 6]);
        let report = run(&w, 100.0, 50.0, dms(20));
        assert_eq!(report.completed_in(ServiceClass::PRIMARY), 2);
        assert_eq!(report.completed_in(ServiceClass::OVERFLOW), 4);
        // 4 overflow at 50 IOPS: last completes at 80 ms.
        let o = report.stats_for(ServiceClass::OVERFLOW);
        assert_eq!(o.max().unwrap(), dms(80));
    }

    #[test]
    fn capacity_is_not_shared_across_classes() {
        // Identical total capacity as a hypothetical shared server, but the
        // idle primary server cannot help the overflow backlog.
        let w = Workload::from_arrivals(vec![ms(0); 10]);
        // maxQ1 = 2, so 8 overflow at 10 IOPS: 800 ms to drain.
        let report = run(&w, 100.0, 10.0, dms(20));
        let o = report.stats_for(ServiceClass::OVERFLOW);
        assert_eq!(o.max().unwrap(), SimDuration::from_millis(800));
    }

    #[test]
    #[should_panic(expected = "exactly two servers")]
    fn rejects_third_server() {
        let p = Provision::new(Iops::new(100.0), Iops::new(10.0));
        let mut s = SplitScheduler::new(p, dms(20));
        let _ = s.next_for(ServerId::new(2), ms(0));
    }

    #[test]
    fn pending_counts_both_queues() {
        let p = Provision::new(Iops::new(100.0), Iops::new(10.0));
        let mut s = SplitScheduler::new(p, dms(20)); // maxQ1 = 2
        for _ in 0..5 {
            s.on_arrival(Request::at(ms(0)), ms(0));
        }
        assert_eq!(s.q1.len(), 2);
        assert_eq!(s.q2.len(), 3);
        assert_eq!(s.pending(), 5);
    }
}
