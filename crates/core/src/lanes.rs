//! Lanes — every recombination policy on plain fixed-rate servers, each
//! on the leanest core that reproduces it.
//!
//! In the paper's service model every server has a fixed rate `C` and a
//! deterministic service time `s = 1/C`. Two shapes of core follow.
//!
//! **FIFO lanes** ([`FifoLanes`]) serve FCFS and Split. A FIFO server is
//! the Lindley recurrence
//!
//! ```text
//! dispatched = max(arrival, done)
//! done       = dispatched + s
//! ```
//!
//! FCFS is one such lane at `Cmin + ΔC`. Split is two, `Cmin` and `ΔC`,
//! with RTT (Algorithm 1) choosing the lane. RTT's test "fewer than
//! `maxQ1` primaries pending" is the work form of the kernel
//! (`kernel.rs`, "the work-recurrence lane form"): at arrival `t` lane 0
//! holds `w = max(done₀ − t, 0)` ns of work, the pending count is `⌈w/s₀⌉`,
//! and `⌈w/s₀⌉ < maxQ1 ⇔ w ≤ (maxQ1 − 1)·s₀`.
//!
//! **The simulation core** serves FairQueue and Miser: one server of
//! `Cmin + ΔC` with two queues, whose order is the policy's own
//! [`Scheduler`](gqos_sim::Scheduler). [`Lanes`] holds a
//! [`Simulation`] of the [`FairQueueScheduler`] or [`MiserScheduler`] on
//! one [`FixedRateServer`], by value and untraced, so no call goes through
//! a box. RTT admission, the SFQ tags and Miser's slack debit keep their
//! one definition in the scheduler.
//!
//! The FIFO lanes reproduce the simulation core record for record: the
//! same constants ([`Iops::service_time`], which the core's 1 ns floor
//! leaves as it is; `maxQ1` from [`Iops::requests_within`], as
//! [`RttClassifier`] computes it), the same record order (completion
//! instant, then server), and the same release rule (a record leaves once
//! its completion is at or before the last offered arrival). [`Lanes`] is
//! the one core type [`RecombinePolicy::lanes`](crate::RecombinePolicy)
//! hands the shaper for every run with no trace sink.
//! `crates/core/tests/fifo_lanes_props.rs` checks all four policies
//! against the simulation core as the shaper builds it for traced runs.
//!
//! [`RttClassifier`]: crate::RttClassifier

use std::collections::VecDeque;

use gqos_sim::{
    run_chunks, ChunkCore, CompletionRecord, FixedRateServer, RunReport, ServiceClass, Simulation,
    StreamRun,
};
use gqos_trace::{ArrivalStream, Iops, Request, SimDuration, SimTime, StreamError, Workload};

use crate::fair::FairQueueScheduler;
use crate::miser::MiserScheduler;

/// One fixed-rate FIFO server: its service time, the instant its last
/// request completes, and the records not yet released, in completion
/// order.
#[derive(Debug)]
struct Lane {
    service: SimDuration,
    class: ServiceClass,
    done: SimTime,
    records: VecDeque<CompletionRecord>,
}

impl Lane {
    fn new(rate: Iops, class: ServiceClass) -> Self {
        Lane {
            service: rate.service_time(),
            class,
            done: SimTime::ZERO,
            records: VecDeque::new(),
        }
    }

    /// Serves `request` after every request already in the lane.
    #[inline]
    fn serve(&mut self, request: Request) {
        let dispatched = request.arrival.max(self.done);
        let completion = dispatched
            .checked_add(self.service)
            .expect("completion instant overflows the simulation clock");
        self.done = completion;
        self.records.push_back(CompletionRecord {
            id: request.id,
            class: self.class,
            arrival: request.arrival,
            dispatched,
            completion,
        });
    }
}

/// The closed-form core of a policy whose servers are all fixed-rate
/// FIFOs: FCFS (one lane) or Split (two lanes, RTT choosing). Fed by
/// [`run_chunks`](gqos_sim::run_chunks) or [`run`](FifoLanes::run).
#[derive(Debug)]
pub(crate) struct FifoLanes {
    /// Lane 0 first; the index is the engine's server index.
    lanes: Vec<Lane>,
    /// Split's admission limit `(maxQ1 − 1)·s₀` on lane 0's work, in ns;
    /// `None` for FCFS, whose one lane takes every arrival.
    admit_work: Option<u64>,
    offered: usize,
    last_arrival: SimTime,
    finished: bool,
}

impl FifoLanes {
    fn new(lanes: Vec<Lane>, admit_work: Option<u64>) -> Self {
        FifoLanes {
            lanes,
            admit_work,
            offered: 0,
            last_arrival: SimTime::ZERO,
            finished: false,
        }
    }

    /// FCFS: one FIFO server at `rate`, every request in the primary class.
    pub(crate) fn fcfs(rate: Iops) -> Self {
        FifoLanes::new(vec![Lane::new(rate, ServiceClass::PRIMARY)], None)
    }

    /// Split: the primary lane at `cmin` behind RTT's bound at `deadline`,
    /// the overflow lane at `delta_c`.
    ///
    /// `None` where the lanes cannot stand in for the engine: `⌊Cmin·δ⌋` is
    /// zero (the engine's `SplitScheduler` panics with the reason), or
    /// `maxQ1·s₀` is not representable in `u64` nanoseconds, as with a
    /// saturated bound.
    pub(crate) fn split(cmin: Iops, delta_c: Iops, deadline: SimDuration) -> Option<Self> {
        let max_q1 = Some(cmin.requests_within(deadline)).filter(|&m| m >= 1)?;
        let primary = Lane::new(cmin, ServiceClass::PRIMARY);
        let s0 = primary.service.as_nanos();
        max_q1.checked_mul(s0)?;
        let overflow = Lane::new(delta_c, ServiceClass::OVERFLOW);
        Some(FifoLanes::new(
            vec![primary, overflow],
            Some((max_q1 - 1) * s0),
        ))
    }

    /// Whether every completion instant of `workload` is representable:
    /// `last arrival + n·s` fits a `u64` for every lane. Beyond it
    /// the engine's clock overflows too, so the caller keeps the engine.
    pub(crate) fn covers(&self, workload: &Workload) -> bool {
        let last = workload
            .requests()
            .last()
            .map_or(0, |r| r.arrival.as_nanos());
        self.lanes.iter().all(|lane| {
            (workload.len() as u64)
                .checked_mul(lane.service.as_nanos())
                .and_then(|work| work.checked_add(last))
                .is_some()
        })
    }
}

impl ChunkCore for FifoLanes {
    #[inline]
    fn offer(&mut self, request: Request) {
        assert!(!self.finished, "offer after finish");
        assert!(
            request.arrival >= self.last_arrival,
            "arrivals must be offered in order: {} after {}",
            request.arrival,
            self.last_arrival
        );
        self.last_arrival = request.arrival;
        self.offered += 1;
        // Split only: RTT diverts when lane 0 holds too much work.
        let diverted = self.admit_work.is_some_and(|limit| {
            let work = self.lanes[0]
                .done
                .saturating_duration_since(request.arrival);
            work.as_nanos() > limit
        });
        self.lanes[usize::from(diverted)].serve(request);
    }

    fn finish(&mut self) {
        self.finished = true;
    }

    fn drain(&mut self, mut sink: impl FnMut(CompletionRecord)) -> usize {
        let mut drained = 0;
        loop {
            // The earliest unreleased completion, lower lane first on a tie.
            let next = self
                .lanes
                .iter()
                .enumerate()
                .filter_map(|(i, lane)| lane.records.front().map(|r| (r.completion, i)))
                .min();
            match next {
                Some((at, i)) if self.finished || at <= self.last_arrival => {
                    sink(self.lanes[i].records.pop_front().expect("front exists"));
                    drained += 1;
                }
                _ => return drained,
            }
        }
    }

    fn offered(&self) -> usize {
        self.offered
    }

    /// The later of the last arrival and the last completion — the
    /// engine's last event once the run is finished.
    fn end_time(&self) -> SimTime {
        self.lanes
            .iter()
            .map(|lane| lane.done)
            .fold(self.last_arrival, SimTime::max)
    }
}

/// The core of a policy on plain fixed-rate servers, as
/// [`RecombinePolicy::lanes`](crate::RecombinePolicy) builds it. Each
/// variant holds its core by value, so every offer loop is its own.
#[derive(Debug)]
pub(crate) enum Lanes {
    /// FCFS or Split.
    Fifo(FifoLanes),
    /// FairQueue on one server of `Cmin + ΔC`.
    FairQueue(Simulation<FairQueueScheduler, FixedRateServer>),
    /// Miser on one server of `Cmin + ΔC`.
    Miser(Simulation<MiserScheduler, FixedRateServer>),
}

impl Lanes {
    /// Runs `workload` to quiescence and returns the report, or `None`
    /// where the FIFO lanes do not [cover](FifoLanes::covers) it; the
    /// core itself panics where the clock overflows.
    pub(crate) fn run(self, workload: &Workload) -> Option<RunReport> {
        Some(match self {
            Lanes::Fifo(core) if !core.covers(workload) => return None,
            Lanes::Fifo(core) => run_workload(core, workload),
            Lanes::FairQueue(sim) => sim.run(workload),
            Lanes::Miser(sim) => sim.run(workload),
        })
    }

    /// Runs `stream` through [`run_chunks`], as
    /// [`Simulation::run_stream`] does.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamError`] from the source, as [`run_chunks`] does.
    pub(crate) fn run_stream<A: ArrivalStream + ?Sized>(
        self,
        stream: &mut A,
        on_completion: impl FnMut(CompletionRecord),
    ) -> Result<StreamRun, StreamError> {
        match self {
            Lanes::Fifo(mut core) => run_chunks(&mut core, stream, on_completion),
            Lanes::FairQueue(mut sim) => sim.run_stream(stream, on_completion),
            Lanes::Miser(mut sim) => sim.run_stream(stream, on_completion),
        }
    }
}

/// Offers all of `workload` to the FIFO lanes, finishes them and collects
/// the report.
fn run_workload(mut core: FifoLanes, workload: &Workload) -> RunReport {
    for &request in workload.requests() {
        core.offer(request);
    }
    core.finish();
    let mut records = Vec::with_capacity(workload.len());
    core.drain(|r| records.push(r));
    RunReport::new(records, core.offered(), core.end_time())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::Provision;
    use gqos_sim::Scheduler;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn split_admits_while_fewer_than_max_q1_are_pending() {
        // maxQ1 = ⌊100 × 0.02⌋ = 2, s₀ = 10 ms, s₁ = 20 ms.
        let mut lanes = FifoLanes::split(
            Iops::new(100.0),
            Iops::new(50.0),
            SimDuration::from_millis(20),
        )
        .expect("representable");
        for &r in Workload::from_arrivals([ms(0), ms(0), ms(0), ms(10)]).requests() {
            lanes.offer(r);
        }
        lanes.finish();
        let mut records = Vec::new();
        assert_eq!(lanes.drain(|r| records.push(r)), 4);
        let got: Vec<_> = records
            .iter()
            .map(|r| (r.id.index(), r.class, r.completion))
            .collect();
        // Request 3 arrives at 10 ms as request 0 completes: one primary
        // left pending, so it is admitted behind request 1.
        assert_eq!(
            got,
            vec![
                (0, ServiceClass::PRIMARY, ms(10)),
                (1, ServiceClass::PRIMARY, ms(20)),
                (2, ServiceClass::OVERFLOW, ms(20)),
                (3, ServiceClass::PRIMARY, ms(30)),
            ]
        );
        assert_eq!(lanes.end_time(), ms(30));
    }

    /// `(id, class, dispatched, completion)` of every record of `arrivals`
    /// served by `scheduler` on one server of `rate`, in completion order.
    fn served<S: Scheduler>(
        scheduler: S,
        rate: Iops,
        arrivals: &[SimTime],
    ) -> Vec<(u64, ServiceClass, SimTime, SimTime)> {
        let report = Simulation::new(scheduler)
            .server(FixedRateServer::new(rate))
            .run(&Workload::from_arrivals(arrivals.iter().copied()));
        report
            .records()
            .iter()
            .map(|r| (r.id.index(), r.class, r.dispatched, r.completion))
            .collect()
    }

    #[test]
    fn fairqueue_counts_the_departure_before_classifying_a_tied_arrival() {
        // One 200 IOPS server (s = 5 ms), weights 1 : 1, maxQ1 =
        // ⌊100 × 0.02⌋ = 2. Request 2 is diverted, and its start tag 0
        // puts it ahead of request 1's 0.01. Request 3 arrives at 5 ms as
        // request 0 completes: the departure leaves one primary pending,
        // so request 3 is admitted as a primary — after the server has
        // already taken request 2 at 5 ms.
        let p = Provision::new(Iops::new(100.0), Iops::new(100.0));
        let scheduler = FairQueueScheduler::new(p, SimDuration::from_millis(20));
        let (primary, overflow) = (ServiceClass::PRIMARY, ServiceClass::OVERFLOW);
        assert_eq!(
            served(scheduler, p.total(), &[ms(0), ms(0), ms(0), ms(5)]),
            vec![
                (0, primary, ms(0), ms(5)),
                (2, overflow, ms(5), ms(10)),
                (1, primary, ms(10), ms(15)),
                (3, primary, ms(15), ms(20)),
            ]
        );
    }

    #[test]
    fn miser_counts_the_departure_before_admitting_a_tied_arrival() {
        // One 200 IOPS server (s = 5 ms), maxQ1 = ⌊100 × 0.03⌋ = 3.
        // Requests 0–2 fill Q1 (slacks 2, 1, 0); request 3 is diverted and
        // waits while a zero slack is queued. Request 4 arrives at 10 ms as
        // request 1 completes and request 2 takes the server: two
        // primaries pending, so it is admitted with slack 3 − 2 = 1, and
        // at 15 ms that slack lets request 3 go first.
        let p = Provision::new(Iops::new(100.0), Iops::new(100.0));
        let scheduler = MiserScheduler::new(p, SimDuration::from_millis(30));
        let (primary, overflow) = (ServiceClass::PRIMARY, ServiceClass::OVERFLOW);
        assert_eq!(
            served(scheduler, p.total(), &[ms(0), ms(0), ms(0), ms(0), ms(10)]),
            vec![
                (0, primary, ms(0), ms(5)),
                (1, primary, ms(5), ms(10)),
                (2, primary, ms(10), ms(15)),
                (3, overflow, ms(15), ms(20)),
                (4, primary, ms(20), ms(25)),
            ]
        );
    }

    #[test]
    fn drain_releases_only_completions_up_to_the_last_arrival() {
        let mut lanes = FifoLanes::fcfs(Iops::new(100.0));
        lanes.offer(Request::at(ms(0)));
        lanes.offer(Request::at(ms(5)));
        assert_eq!(lanes.drain(|_| {}), 0);
        lanes.offer(Request::at(ms(10)));
        assert_eq!(lanes.drain(|_| {}), 1, "the completion at 10 ms ties");
        lanes.finish();
        assert_eq!(lanes.drain(|_| {}), 2);
    }

    #[test]
    fn guards_send_unrepresentable_runs_to_the_engine() {
        let d = SimDuration::from_millis(20);
        // ⌊Cmin·δ⌋ = 0: the engine's SplitScheduler reports it.
        assert!(FifoLanes::split(Iops::new(10.0), Iops::new(1.0), d).is_none());
        // 1/C = 1.5 ns rounds to s₀ = 2 ns, so maxQ1·s₀ ≈ 1.33·δ overflows
        // for δ near the top of the clock while ⌊C·δ⌋ itself still fits.
        let huge = SimDuration::from_nanos(14_000_000_000_000_000_000);
        assert!(FifoLanes::split(Iops::new(6.6e8), Iops::new(1.0), huge).is_none());
        assert!(FifoLanes::split(Iops::new(6.6e8), Iops::new(1.0), d).is_some());
        // A workload whose last completion passes the clock.
        let late = Workload::from_arrivals([SimTime::from_nanos(u64::MAX - 5); 2]);
        assert!(!FifoLanes::fcfs(Iops::new(1.0)).covers(&late));
        assert!(FifoLanes::fcfs(Iops::new(1.0)).covers(&Workload::from_arrivals([ms(1); 2])));
    }
}
