//! Lanes — the cores a policy runs on over plain fixed-rate servers.
//!
//! In the paper's service model every server has a fixed rate `C` and a
//! deterministic service time `s = 1/C`. FCFS and Split then serve every
//! server first in, first out, and each server is the Lindley recurrence
//!
//! ```text
//! dispatched = max(arrival, done)
//! done       = dispatched + s
//! ```
//!
//! **FIFO lanes** ([`FifoLanes`]) are that recurrence. FCFS is one lane at
//! `Cmin + ΔC`. Split is two, `Cmin` and `ΔC`, with RTT (Algorithm 1)
//! choosing the lane. RTT's test "fewer than `maxQ1` primaries pending" is
//! the kernel's work recurrence (`kernel.rs`, "the work recurrence"): at
//! arrival `t` lane 0 holds `w = max(done₀ − t, 0)` ns of work, and the
//! arrival joins it iff `w` is at most the admit cap of the kernel's
//! `RttParams` at `(Cmin, δ)`, `(maxQ1 − 1)·s₀` wherever `maxQ1·s₀` fits
//! a `u64`. Beyond that the cap diverts only an arrival whose primary
//! completion would pass the clock, where the simulation core panics.
//!
//! **The simulation core** ([`Simulation`] of the
//! [`PolicyScheduler`](crate::PolicyScheduler)) serves everything else:
//! FairQueue and Miser, whose one server of `Cmin + ΔC` picks between two
//! queues, and every traced run. RTT admission, the SFQ tags and Miser's
//! slack debit keep their one definition in the scheduler.
//!
//! The FIFO lanes reproduce the simulation core record for record: the
//! same constants ([`Iops::service_time`], which the core's 1 ns floor
//! leaves as it is; `maxQ1` from [`Iops::requests_within`], as
//! [`RttClassifier`] computes it), the same record order (completion
//! instant, then server), the same release rule (a record leaves once its
//! completion is at or before the last offered arrival) and the same
//! panics: a degenerate Split (`⌊Cmin·δ⌋ = 0`) and a completion past the
//! `u64` clock panic with the core's messages. [`Lanes`] holds one of the
//! two cores; the shaper picks it for every run on plain fixed-rate
//! servers. `crates/core/tests/fifo_lanes_props.rs` checks all four
//! policies against the simulation core as the shaper builds it for
//! traced runs.
//!
//! **Inbox lanes** ([`InboxLanes`]) put the FIFO lanes behind a gateway
//! lane's bounded inbox, by the same rule: the gateway runs an untraced
//! FCFS or Split lane on them, and every other lane on `gqos-stream`'s
//! `ShedScheduler` over the simulation core, their oracle
//! (`crates/stream/tests/inbox_lanes_props.rs`). A shed request is served
//! only where a lane's own queue is empty, so the lanes stay Lindley
//! recurrences, and deterministic service turns the shed test into a
//! comparison of work (see [`InboxLanes`]). [`FifoLanes`]' own offer path,
//! the shaper's, has no inbox and pays nothing for one.
//!
//! [`RttClassifier`]: crate::RttClassifier

use std::collections::VecDeque;

use gqos_sim::{
    run_chunks, ChunkCore, CompletionRecord, FixedRateServer, RunReport, ServiceClass, Simulation,
    StreamRun,
};
use gqos_trace::{ArrivalStream, Iops, Request, SimDuration, SimTime, StreamError, Workload};

use crate::kernel::RttParams;
use crate::shaper::PolicyScheduler;

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
        self.serve_as(request, self.class);
    }

    /// Serves `request` after every request already in the lane, in
    /// `class`.
    #[inline]
    fn serve_as(&mut self, request: Request, class: ServiceClass) {
        let dispatched = request.arrival.max(self.done);
        let completion = dispatched
            .checked_add(self.service)
            .expect("completion instant overflows the simulation clock");
        self.done = completion;
        self.records.push_back(CompletionRecord {
            id: request.id,
            class,
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
    /// Split's admit cap on lane 0's work, in ns (the kernel's
    /// `RttParams::admit_cap_ns`); `None` for FCFS, whose one lane takes
    /// every arrival.
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
    /// # Panics
    ///
    /// Panics if `⌊Cmin·δ⌋ = 0`, with the message of the simulation core's
    /// `SplitScheduler`.
    pub(crate) fn split(cmin: Iops, delta_c: Iops, deadline: SimDuration) -> Self {
        let p = RttParams::new(cmin, deadline);
        FifoLanes::new(
            vec![
                Lane::new(cmin, ServiceClass::PRIMARY),
                Lane::new(delta_c, ServiceClass::OVERFLOW),
            ],
            Some(p.admit_cap_ns),
        )
    }

    /// Counts an arrival at `at`, which must not precede the last one.
    #[inline]
    fn arrive(&mut self, at: SimTime) {
        assert!(!self.finished, "offer after finish");
        assert!(
            at >= self.last_arrival,
            "arrivals must be offered in order: {} after {}",
            at,
            self.last_arrival
        );
        self.last_arrival = at;
        self.offered += 1;
    }
}

impl ChunkCore for FifoLanes {
    #[inline]
    fn offer(&mut self, request: Request) {
        self.arrive(request.arrival);
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

/// The FIFO lanes behind a bounded inbox: the semantics of `gqos-stream`'s
/// `ShedScheduler` over FCFS or Split, in closed form. Built by
/// [`WorkloadShaper::inbox_lanes`](crate::WorkloadShaper::inbox_lanes)
/// and fed by [`run_chunks`](gqos_sim::run_chunks).
///
/// An arrival at `t` is *shed* when the requests queued on the lanes (not
/// the ones in service) plus the shed FIFO reach the bound, or when `t` is
/// at or after `drain_from`. A shed request waits in the FIFO and is
/// served in class `OVERFLOW` by the lowest-index lane that is free with
/// an empty queue, dispatched at that free instant: as on the simulation
/// core, a completion comes before an arrival at the same instant, so a
/// lane freed at `t` takes the FIFO's head before an arrival at `t` joins
/// its queue. An admitted request queues on its lane ahead of every shed
/// one, so each lane stays the Lindley recurrence, its `done` counting
/// the shed requests it served.
///
/// # The shed test without a division
///
/// Service is deterministic, so a lane's backlog runs back to back: at
/// `t`, a lane that finishes at `done` serves one request with `(0, s]`
/// ns left and holds the rest queued,
///
/// ```text
/// queued(t) = ⌈(done − t)/s⌉ − 1        (0 when done ≤ t)
/// ```
///
/// With `k = bound − |shed|` free places, FCFS's one lane fills the inbox
/// iff `queued(t) ≥ k`, that is iff its work `done − t` exceeds `k·s`: a
/// work comparison, as RTT's admit cap is (`RttParams`). `k·s` changes
/// only with the FIFO's length, so it is recomputed then and no arrival
/// divides; past `u64::MAX` it saturates, where no work can exceed it.
/// Split's lanes run at two rates, so the sum of their queues is no one
/// comparison. Each lane instead counts its queued requests and the
/// instant the first of them is dispatched, and an arrival steps that
/// instant forward by `s` past every dispatch it has reached: the same
/// formula, evaluated incrementally, each request leaving the count once.
///
/// Split's RTT test counts primaries only, since the core's
/// `RttClassifier` never sees a shed request. A shed request served on
/// lane 0 ends at `primary_from`, and only primaries queue behind it, so
/// the test reads lane 0's work from `max(t, primary_from)`.
#[derive(Debug)]
pub struct InboxLanes {
    fifo: FifoLanes,
    bound: usize,
    drain_from: Option<SimTime>,
    /// Shed requests not yet dispatched, in arrival order.
    shed: VecDeque<Request>,
    shed_count: usize,
    depth: Depth,
}

/// How [`InboxLanes`] reads its lanes' queues (see its docs).
#[derive(Debug)]
enum Depth {
    /// FCFS: the inbox is full once the lane's work exceeds this many ns,
    /// `k·s`; `None` once the shed FIFO alone fills it.
    Work(Option<u64>),
    /// Split: each lane's queue, the admit cap on lane 0's primary work,
    /// and the end of the last shed request served on lane 0.
    Queues {
        backlogs: [Backlog; 2],
        admit_work: u64,
        primary_from: SimTime,
    },
}

/// The requests queued on one lane: how many, and the instant the first
/// of them is dispatched.
#[derive(Copy, Clone, Default, Debug)]
struct Backlog {
    queued: usize,
    next: SimTime,
}

impl Backlog {
    /// Drops every queued request dispatched by `t`, one each `service`.
    #[inline]
    fn advance(&mut self, t: SimTime, service: SimDuration) {
        while self.queued > 0 && self.next <= t {
            self.queued -= 1;
            self.next += service;
        }
    }

    /// Queues a request dispatched at `at`, behind the queued ones.
    #[inline]
    fn push(&mut self, at: SimTime) {
        if self.queued == 0 {
            self.next = at;
        }
        self.queued += 1;
    }
}

impl InboxLanes {
    /// Puts `fifo` behind an inbox bounded at `bound` queued requests,
    /// shedding every arrival at or after `drain_from`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero, as `ShedScheduler` does.
    pub(crate) fn new(fifo: FifoLanes, bound: usize, drain_from: Option<SimTime>) -> Self {
        assert!(bound > 0, "inbox bound must be positive");
        let depth = match fifo.admit_work {
            None => Depth::Work(None),
            Some(admit_work) => Depth::Queues {
                backlogs: [Backlog::default(); 2],
                admit_work,
                primary_from: SimTime::ZERO,
            },
        };
        let mut lanes = InboxLanes {
            fifo,
            bound,
            drain_from,
            shed: VecDeque::new(),
            shed_count: 0,
            depth,
        };
        lanes.set_room();
        lanes
    }

    /// Arrivals shed so far.
    pub fn shed_count(&self) -> usize {
        self.shed_count
    }

    /// Recomputes FCFS's work cap `k·s` for the FIFO's length.
    fn set_room(&mut self) {
        if let Depth::Work(room) = &mut self.depth {
            let s = self.fifo.lanes[0].service.as_nanos();
            *room = self
                .bound
                .checked_sub(self.shed.len())
                .filter(|&k| k > 0)
                .map(|k| u64::try_from(k).unwrap_or(u64::MAX).saturating_mul(s));
        }
    }

    /// Whether the queues and the shed FIFO fill the inbox at `t`.
    #[inline]
    fn full(&self, t: SimTime) -> bool {
        match &self.depth {
            Depth::Work(room) => {
                let work = self.fifo.lanes[0].done.saturating_duration_since(t);
                room.is_none_or(|room| work.as_nanos() > room)
            }
            Depth::Queues { backlogs, .. } => {
                backlogs[0].queued + backlogs[1].queued + self.shed.len() >= self.bound
            }
        }
    }

    /// Serves an admitted request on its lane: FCFS's one, or the lane
    /// RTT picks by lane 0's primary work.
    #[inline]
    fn admit(&mut self, request: Request) {
        let t = request.arrival;
        match &mut self.depth {
            Depth::Work(_) => self.fifo.lanes[0].serve(request),
            Depth::Queues {
                backlogs,
                admit_work,
                primary_from,
            } => {
                let work = self.fifo.lanes[0]
                    .done
                    .saturating_duration_since(t.max(*primary_from));
                let i = usize::from(work.as_nanos() > *admit_work);
                let lane = &mut self.fifo.lanes[i];
                if lane.done > t {
                    backlogs[i].push(lane.done);
                }
                lane.serve(request);
            }
        }
    }

    /// Dispatches the shed FIFO's head on the lane free first (the lower
    /// on a tie) while that lane is free by `t`; returns whether any was.
    fn serve_shed(&mut self, t: SimTime) -> bool {
        let mut served = false;
        while let Some(&head) = self.shed.front() {
            let (at, i) = self
                .fifo
                .lanes
                .iter()
                .enumerate()
                .map(|(i, lane)| (lane.done.max(head.arrival), i))
                .min()
                .expect("a policy has a lane");
            if at > t {
                break;
            }
            self.shed.pop_front();
            let lane = &mut self.fifo.lanes[i];
            lane.serve_as(head, ServiceClass::OVERFLOW);
            if let (0, Depth::Queues { primary_from, .. }) = (i, &mut self.depth) {
                *primary_from = lane.done;
            }
            served = true;
        }
        served
    }
}

impl ChunkCore for InboxLanes {
    #[inline]
    fn offer(&mut self, request: Request) {
        let t = request.arrival;
        self.fifo.arrive(t);
        if let Depth::Queues { backlogs, .. } = &mut self.depth {
            for (backlog, lane) in backlogs.iter_mut().zip(&self.fifo.lanes) {
                backlog.advance(t, lane.service);
            }
        }
        // Lanes free by `t` take the FIFO's head before the arrival. A
        // request shed onto an idle lane is dispatched here too, at the
        // next offer (or `finish`): at its own arrival instant.
        if !self.shed.is_empty() && self.serve_shed(t) {
            self.set_room();
        }
        if self.drain_from.is_some_and(|at| t >= at) || self.full(t) {
            self.shed_count += 1;
            self.shed.push_back(request);
            self.set_room();
        } else {
            self.admit(request);
        }
    }

    fn finish(&mut self) {
        self.serve_shed(SimTime::MAX);
        self.fifo.finish();
    }

    fn drain(&mut self, sink: impl FnMut(CompletionRecord)) -> usize {
        self.fifo.drain(sink)
    }

    fn offered(&self) -> usize {
        self.fifo.offered()
    }

    fn end_time(&self) -> SimTime {
        self.fifo.end_time()
    }
}

/// The core of a policy on plain fixed-rate servers, as the shaper
/// picks it.
#[derive(Debug)]
pub(crate) enum Lanes {
    /// An untraced FCFS or Split run.
    Fifo(FifoLanes),
    /// Every other run: the policy's scheduler, by value, on the simulation
    /// core. Boxed once per run only to keep the enum small.
    Core(Box<Simulation<PolicyScheduler, FixedRateServer>>),
}

impl Lanes {
    /// Runs `workload` to quiescence and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if a completion instant passes the `u64` nanosecond clock.
    pub(crate) fn run(self, workload: &Workload) -> RunReport {
        match self {
            Lanes::Fifo(core) => run_workload(core, workload),
            Lanes::Core(sim) => sim.run(workload),
        }
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
            Lanes::Core(mut sim) => sim.run_stream(stream, on_completion),
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
    use crate::{FairQueueScheduler, MiserScheduler, RecombinePolicy, WorkloadShaper};
    use gqos_sim::{Scheduler, TraceHandle};
    use gqos_trace::WorkloadStream;

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
        );
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

    /// The message `run` panics with.
    fn panic_message(run: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err("the run must panic");
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .expect("a text panic")
                .to_string(),
        }
    }

    #[test]
    fn lanes_panic_where_the_core_panics() {
        let d = SimDuration::from_millis(20);
        let late = Workload::from_arrivals([SimTime::from_nanos(u64::MAX - 5); 2]);
        let clock = "completion instant overflows the simulation clock";
        let cases = [
            // ⌊Cmin·δ⌋ = 0: the core's SplitScheduler rejects it.
            (10.0, RecombinePolicy::Split, "admits no requests"),
            // Last completions past the clock, on one lane and on lane 0.
            (1.0, RecombinePolicy::Fcfs, clock),
            (100.0, RecombinePolicy::Split, clock),
        ];
        for (cmin, policy, expected) in cases {
            let shaper = WorkloadShaper::new(Provision::new(Iops::new(cmin), Iops::new(1.0)), d);
            let core = panic_message(|| {
                shaper
                    .simulation(
                        policy,
                        TraceHandle::disabled(),
                        |s, _| s,
                        FixedRateServer::new,
                    )
                    .run(&late);
            });
            assert!(core.contains(expected), "{policy}: {core}");
            let runs = [
                ("run", panic_message(|| drop(shaper.run(&late, policy)))),
                (
                    "run_traced",
                    panic_message(|| {
                        drop(shaper.run_traced(&late, policy, TraceHandle::disabled()));
                    }),
                ),
                (
                    "run_observed",
                    panic_message(|| {
                        let mut stream = WorkloadStream::new(late.clone(), 1);
                        drop(shaper.run_observed(&mut stream, policy, |_| {}));
                    }),
                ),
            ];
            for (name, message) in runs {
                assert_eq!(message, core, "{policy} {name}");
            }
        }
    }
}
