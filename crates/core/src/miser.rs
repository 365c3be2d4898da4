//! Miser — the paper's slack-stealing recombination scheduler (Algorithm 2).
//!
//! Miser serves both classes on one server of capacity `Cmin + ΔC`. Each
//! admitted primary request carries a *slack*: the number of spare service
//! slots (`maxQ1 − lenQ1` at admission) that can be inserted ahead of it
//! without endangering its deadline. Whenever the minimum slack across the
//! primary queue is at least one, Miser opportunistically serves an overflow
//! request — getting the tail served *early*, inside the bursts' shadow —
//! and debits every queued primary request's slack by one.
//!
//! Because admission is online, a later primary burst can arrive after slack
//! has been spent; the paper shows `ΔC = Cmin` suffices to make primary
//! misses impossible, and that in practice the default `ΔC = 1/δ` yields few
//! to none (see this module's tests and the `ablation_delta_c` benchmark).

use std::collections::VecDeque;
use std::fmt;

use gqos_sim::{Dispatch, PolicyTag, Scheduler, ServerId, ServiceClass, TraceEvent, TraceHandle};
use gqos_trace::{Request, SimDuration, SimTime};

use crate::degrade::CapacityAdaptive;
use crate::rtt::RttClassifier;
use crate::target::Provision;

/// The Miser scheduler: RTT decomposition plus slack-driven recombination
/// on a single shared server.
///
/// Use with a server of capacity [`Provision::total`].
///
/// # Examples
///
/// ```
/// use gqos_core::{MiserScheduler, Provision};
/// use gqos_sim::{simulate, FixedRateServer};
/// use gqos_trace::{Iops, SimDuration, SimTime, Workload};
///
/// let provision = Provision::new(Iops::new(200.0), Iops::new(100.0));
/// let deadline = SimDuration::from_millis(20);
/// let workload = Workload::from_arrivals(vec![SimTime::ZERO; 8]);
/// let report = simulate(
///     &workload,
///     MiserScheduler::new(provision, deadline),
///     FixedRateServer::new(provision.total()),
/// );
/// assert_eq!(report.completed(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct MiserScheduler {
    rtt: RttClassifier,
    q1: VecDeque<(Request, u64)>, // (request, remaining slack)
    q2: VecDeque<Request>,
    /// Cached minimum slack over `q1`; `None` when `q1` is empty.
    min_slack: Option<u64>,
    trace: TraceHandle,
}

impl MiserScheduler {
    /// Creates a Miser scheduler for the given provision and deadline.
    /// RTT admission uses `provision.cmin()`; pair it with a server of
    /// capacity `provision.total()`.
    ///
    /// # Panics
    ///
    /// Panics if the RTT bound `⌊Cmin·δ⌋` is zero (see
    /// [`RttClassifier::new`]).
    pub fn new(provision: Provision, deadline: SimDuration) -> Self {
        MiserScheduler::with_trace(provision, deadline, TraceHandle::disabled())
    }

    /// Like [`new`](MiserScheduler::new), emitting `Admitted`/`Diverted`
    /// (with Q1 depth) and `Dispatched` (policy tag `miser`, with the slack
    /// in force at the dispatch decision) events into `trace`.
    pub fn with_trace(provision: Provision, deadline: SimDuration, trace: TraceHandle) -> Self {
        MiserScheduler {
            rtt: RttClassifier::new(provision.cmin(), deadline),
            q1: VecDeque::new(),
            q2: VecDeque::new(),
            min_slack: None,
            trace,
        }
    }

    fn recompute_min_slack(&mut self) {
        self.min_slack = self.q1.iter().map(|&(_, s)| s).min();
    }

    fn serve_overflow_now(&self) -> bool {
        if self.q2.is_empty() {
            return false;
        }
        // An empty primary queue imposes no slack constraint.
        match self.min_slack {
            None => true,
            Some(s) => s >= 1,
        }
    }
}

impl Scheduler for MiserScheduler {
    fn on_arrival(&mut self, request: Request, now: SimTime) {
        match self.rtt.classify() {
            ServiceClass::PRIMARY => {
                // Slack after admission: spare primary slots remaining.
                let slack = self.rtt.slack();
                self.min_slack = Some(match self.min_slack {
                    None => slack,
                    Some(m) => m.min(slack),
                });
                self.q1.push_back((request, slack));
                self.trace.emit_with(|| TraceEvent::Admitted {
                    at: now,
                    id: request.id.index(),
                    queue_depth: self.rtt.len_q1(),
                });
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

    fn next_for(&mut self, server: ServerId, now: SimTime) -> Dispatch {
        if self.serve_overflow_now() {
            // The slack that authorised stealing this slot.
            let stolen_from = self.min_slack;
            let request = self.q2.pop_front().expect("q2 checked non-empty");
            // Serving an overflow request consumes one service slot every
            // queued primary request was counting on.
            for (_, slack) in &mut self.q1 {
                debug_assert!(*slack >= 1, "slack invariant violated");
                *slack -= 1;
            }
            if let Some(m) = &mut self.min_slack {
                *m -= 1;
            }
            self.trace.emit_with(|| TraceEvent::Dispatched {
                at: now,
                id: request.id.index(),
                class: ServiceClass::OVERFLOW.index(),
                server: server.index(),
                policy: PolicyTag::Miser,
                slack: stolen_from,
            });
            return Dispatch::Serve(request, ServiceClass::OVERFLOW);
        }
        match self.q1.pop_front() {
            Some((request, slack)) => {
                if Some(slack) == self.min_slack {
                    self.recompute_min_slack();
                }
                self.trace.emit_with(|| TraceEvent::Dispatched {
                    at: now,
                    id: request.id.index(),
                    class: ServiceClass::PRIMARY.index(),
                    server: server.index(),
                    policy: PolicyTag::Miser,
                    slack: Some(slack),
                });
                Dispatch::Serve(request, ServiceClass::PRIMARY)
            }
            None => match self.q2.pop_front() {
                // min_slack == Some(0) with an empty q1 cannot happen, but a
                // non-empty q2 with q1 empty is served work-conservingly.
                Some(request) => {
                    self.trace.emit_with(|| TraceEvent::Dispatched {
                        at: now,
                        id: request.id.index(),
                        class: ServiceClass::OVERFLOW.index(),
                        server: server.index(),
                        policy: PolicyTag::Miser,
                        slack: None,
                    });
                    Dispatch::Serve(request, ServiceClass::OVERFLOW)
                }
                None => Dispatch::Idle,
            },
        }
    }

    fn on_completion(&mut self, _request: &Request, class: ServiceClass, _now: SimTime) {
        if class == ServiceClass::PRIMARY {
            self.rtt.primary_departed();
        }
    }

    fn pending(&self) -> usize {
        self.q1.len() + self.q2.len()
    }
}

impl CapacityAdaptive for MiserScheduler {
    /// Shrinks the admission bound to `⌊C_eff·δ⌋` and clamps every queued
    /// slack to the spare slots the *degraded* bound still offers — slack
    /// granted against capacity that no longer exists must not let an
    /// overflow request cut ahead of a primary deadline.
    fn renegotiate(&mut self, factor: f64) {
        self.rtt.set_degradation(factor);
        let available = self.rtt.slack();
        for (_, slack) in &mut self.q1 {
            *slack = (*slack).min(available);
        }
        self.recompute_min_slack();
    }

    fn degradation_factor(&self) -> f64 {
        self.rtt.degradation()
    }

    fn primary_backlog(&self) -> u64 {
        self.q1.len() as u64
    }
}

impl fmt::Display for MiserScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Miser({}, q1={}, q2={}, minSlack={:?})",
            self.rtt,
            self.q1.len(),
            self.q2.len(),
            self.min_slack
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_sim::{simulate, FixedRateServer};
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
        simulate(
            workload,
            MiserScheduler::new(p, deadline),
            FixedRateServer::new(p.total()),
        )
    }

    #[test]
    fn everything_completes() {
        let w = Workload::from_arrivals((0..100).map(|i| ms(i * 3)));
        let report = run(&w, 200.0, 20.0, dms(20));
        assert_eq!(report.completed(), 100);
        assert_eq!(report.unfinished(), 0);
    }

    #[test]
    fn smooth_load_stays_primary_and_meets_deadline() {
        // 100 IOPS arrivals against Cmin = 200: never overflows.
        let w = Workload::from_arrivals((0..200).map(|i| ms(i * 10)));
        let report = run(&w, 200.0, 20.0, dms(20));
        assert_eq!(report.completed_in(ServiceClass::OVERFLOW), 0);
        let stats = report.stats_for(ServiceClass::PRIMARY);
        assert!(stats.max().unwrap() <= dms(20));
    }

    #[test]
    fn burst_overflows_and_is_served_in_slack() {
        // Burst of 10 at t=0 with room for 4 primaries (200 IOPS x 20 ms),
        // then silence: overflow requests get served from the slack.
        let w = Workload::from_arrivals(vec![ms(0); 10]);
        let report = run(&w, 200.0, 40.0, dms(20));
        assert_eq!(report.completed(), 10);
        assert_eq!(report.completed_in(ServiceClass::PRIMARY), 4);
        assert_eq!(report.completed_in(ServiceClass::OVERFLOW), 6);
    }

    #[test]
    fn primary_deadlines_hold_with_generous_surplus() {
        // Theorem: ΔC = Cmin makes primary misses impossible. Exercise with
        // an adversarial on/off burst pattern.
        let mut arrivals = Vec::new();
        for cycle in 0..30u64 {
            let base = cycle * 100;
            for i in 0..12 {
                arrivals.push(ms(base + (i % 3))); // 12-deep burst
            }
        }
        let w = Workload::from_arrivals(arrivals);
        let cmin = 250.0;
        let deadline = dms(20); // maxQ1 = 5
        let report = run(&w, cmin, cmin, deadline);
        let primary = report.stats_for(ServiceClass::PRIMARY);
        assert!(
            primary.max().unwrap() <= deadline,
            "primary miss with delta_c = cmin: max {}",
            primary.max().unwrap()
        );
    }

    #[test]
    fn overflow_served_earlier_than_strict_priority_would() {
        // One overflow request stuck behind a half-full primary queue: Miser
        // serves it immediately because slack >= 1.
        let p = Provision::new(Iops::new(100.0), Iops::new(100.0));
        let mut s = MiserScheduler::new(p, dms(50)); // maxQ1 = 5
                                                     // Two primaries (slack 4 and 3), then force an overflow by filling.
        for _ in 0..2 {
            s.on_arrival(Request::at(ms(0)), ms(0));
        }
        assert_eq!(s.min_slack, Some(3));
        // Fill the remaining 3 slots and one extra -> overflow.
        for _ in 0..4 {
            s.on_arrival(Request::at(ms(0)), ms(0));
        }
        assert_eq!(s.q1.len(), 5);
        assert_eq!(s.q2.len(), 1);
        assert_eq!(s.min_slack, Some(0));
        // minSlack = 0: primary must go first.
        match s.next_for(ServerId::new(0), ms(0)) {
            Dispatch::Serve(_, class) => assert_eq!(class, ServiceClass::PRIMARY),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn q2_first_when_slack_allows() {
        let p = Provision::new(Iops::new(100.0), Iops::new(100.0));
        let mut s = MiserScheduler::new(p, dms(50)); // maxQ1 = 5
        s.on_arrival(Request::at(ms(0)), ms(0)); // primary, slack 4
                                                 // Saturate then drain to create a queued overflow with slack left:
                                                 // easiest is to inject directly into q2 via classification overflow.
        for _ in 0..4 {
            s.on_arrival(Request::at(ms(0)), ms(0));
        }
        s.on_arrival(Request::at(ms(0)), ms(0)); // 6th -> overflow
                                                 // Complete three primaries to restore slack... but queued slacks are
                                                 // fixed at admission; serve three primaries first.
        for _ in 0..3 {
            match s.next_for(ServerId::new(0), ms(1)) {
                Dispatch::Serve(r, ServiceClass::PRIMARY) => {
                    s.on_completion(&r, ServiceClass::PRIMARY, ms(1));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Remaining q1 heads had slacks 1 and 0 -> still primary next.
        assert_eq!(s.min_slack, Some(0));
        // New arrival now gets slack = maxQ1 - lenQ1 = 5 - 3 = 2; min stays 0.
        s.on_arrival(Request::at(ms(2)), ms(2));
        assert_eq!(s.min_slack, Some(0));
        assert_eq!(s.pending(), 4);
    }

    #[test]
    fn min_slack_recomputed_after_min_leaves() {
        let p = Provision::new(Iops::new(100.0), Iops::new(100.0));
        let mut s = MiserScheduler::new(p, dms(50)); // maxQ1 = 5
        s.on_arrival(Request::at(ms(0)), ms(0)); // slack 4
        s.on_arrival(Request::at(ms(0)), ms(0)); // slack 3
        s.on_arrival(Request::at(ms(0)), ms(0)); // slack 2
        assert_eq!(s.min_slack, Some(2));
        // Serving an overflow is impossible (q2 empty) -> serves q1 head
        // (slack 4); min stays 2... head slack was 4 != min, no recompute.
        match s.next_for(ServerId::new(0), ms(0)) {
            Dispatch::Serve(_, ServiceClass::PRIMARY) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.min_slack, Some(2));
        // Pop two more; after the slack-2 head leaves, min recomputes to 3.
        s.next_for(ServerId::new(0), ms(0));
        assert_eq!(s.min_slack, Some(2));
        s.next_for(ServerId::new(0), ms(0));
        assert_eq!(s.min_slack, None); // queue empty
    }

    #[test]
    fn idle_when_empty() {
        let p = Provision::new(Iops::new(100.0), Iops::new(10.0));
        let mut s = MiserScheduler::new(p, dms(50));
        assert_eq!(s.next_for(ServerId::new(0), ms(0)), Dispatch::Idle);
        assert_eq!(s.pending(), 0);
        assert!(s.to_string().contains("Miser("));
    }

    #[test]
    fn work_conserving_overflow_without_primaries() {
        // Only overflow requests pending (primaries all served): q2 drains.
        let w = Workload::from_arrivals(vec![ms(0); 6]);
        let report = run(&w, 100.0, 50.0, dms(20)); // maxQ1 = 2
        assert_eq!(report.completed(), 6);
        assert_eq!(report.completed_in(ServiceClass::OVERFLOW), 4);
    }

    mod slack_audit {
        use super::*;
        use proptest::prelude::*;

        /// One step of an adversarial driving sequence.
        #[derive(Clone, Copy, Debug)]
        enum Op {
            /// A new request arrives `gap_ms` after the previous one.
            Arrive { gap_ms: u64 },
            /// The server asks for the next request to dispatch.
            Serve,
            /// The oldest in-flight request completes.
            Complete,
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..40).prop_map(|gap_ms| Op::Arrive { gap_ms }),
                Just(Op::Serve),
                Just(Op::Complete),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The cached `min_slack` equals the minimum over the queued
            /// primary slacks after *any* sequence of arrivals, dispatches
            /// and completions — the bookkeeping never drifts from the
            /// ground truth it summarises.
            #[test]
            fn cached_min_slack_matches_recomputation(
                ops in prop::collection::vec(op(), 1..200),
                cmin in 60u64..400,
                delta_ms in 10u64..60,
            ) {
                let c = Iops::new(cmin as f64);
                let delta = dms(delta_ms);
                if c.requests_within(delta) == 0 {
                    return Ok(());
                }
                let p = Provision::new(c, c);
                let mut s = MiserScheduler::new(p, delta);
                let mut now = SimTime::ZERO;
                let mut in_flight: std::collections::VecDeque<(Request, ServiceClass)> =
                    std::collections::VecDeque::new();
                for op in ops {
                    match op {
                        Op::Arrive { gap_ms } => {
                            now += SimDuration::from_millis(gap_ms);
                            s.on_arrival(Request::at(now), now);
                        }
                        Op::Serve => {
                            if let Dispatch::Serve(r, class) =
                                s.next_for(ServerId::new(0), now)
                            {
                                in_flight.push_back((r, class));
                            }
                        }
                        Op::Complete => {
                            if let Some((r, class)) = in_flight.pop_front() {
                                s.on_completion(&r, class, now);
                            }
                        }
                    }
                    let truth = s.q1.iter().map(|&(_, slack)| slack).min();
                    prop_assert_eq!(
                        s.min_slack, truth,
                        "cached min_slack diverged after {:?}: cached {:?}, actual {:?}",
                        op, s.min_slack, truth
                    );
                }
            }
        }
    }

    #[test]
    fn default_surplus_rarely_misses_in_practice() {
        // The paper's observation: with ΔC = 1/δ, very few (if any) primary
        // requests miss. Use a bursty pattern and allow a small miss rate.
        let mut arrivals = Vec::new();
        for cycle in 0..50u64 {
            let base = cycle * 200;
            let depth = if cycle % 7 == 0 { 15 } else { 3 };
            for i in 0..depth {
                arrivals.push(ms(base + i / 4));
            }
        }
        let w = Workload::from_arrivals(arrivals);
        let deadline = dms(20);
        let report = run(&w, 250.0, 50.0, deadline);
        let primary = report.stats_for(ServiceClass::PRIMARY);
        let frac = primary.fraction_within(deadline);
        assert!(frac > 0.98, "primary within-deadline fraction {frac}");
    }
}
