//! Lanes — the two cores a policy runs on over plain fixed-rate servers.
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
