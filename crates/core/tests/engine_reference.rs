//! The simulation core against an event-driven reference engine.
//!
//! `Simulation` drives its scheduler directly: an offer at `t` first
//! completes every request done at or before `t`, the earliest
//! `(done, server)` next, and only then hands the arrival to the
//! scheduler. This suite keeps the event-driven engine that order was
//! taken from as the reference: pending events in a binary heap keyed
//! `(at, kind, seq)`, where a completion sorts before an arrival at the
//! same instant and the lower server first, at most one arrival queued,
//! and events popped only while the next arrival is known or the run is
//! finished.
//!
//! Both are driven by `run_chunks` at chunk sizes 1, 7 and the whole
//! workload, and must agree on the records, the records released before
//! every pull, the run counters and the `MemorySink` event stream (the
//! core's `Arrival`/`Completed` and the schedulers' own events,
//! interleaved). The runs cover FCFS, Split, FairQueue and Miser on
//! fixed-rate servers, `AdaptiveScheduler` over `ModulatedServer`s with a
//! seeded `FaultSchedule`, and a stateful service model on one to three
//! servers whose zero service times meet the 1 ns floor. Workloads have
//! 40% zero gaps, and services and gaps sit on one time unit, so arrivals
//! tie with completions and servers tie with each other.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use proptest::prelude::*;

use gqos_core::{
    AdaptiveScheduler, DegradationController, FairQueueScheduler, MiserScheduler, PolicyScheduler,
    Provision, SplitScheduler,
};
use gqos_faults::FaultSchedule;
use gqos_sim::{
    run_chunks, ChunkCore, CompletionRecord, Dispatch, FcfsScheduler, FixedRateServer,
    ModulatedServer, Scheduler, ServerId, ServiceClass, ServiceModel, Simulation, StreamRun,
    TraceEvent, TraceHandle,
};
use gqos_trace::{
    ArrivalStream, Iops, Request, SimDuration, SimTime, StreamError, Workload, WorkloadStream,
};

/// What an event does, in its tie order at one instant: completions
/// before the arrival, the lower server first.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Kind {
    Completion(usize),
    Arrival,
}

/// The event-driven reference engine.
struct Reference<S, M> {
    scheduler: S,
    servers: Vec<M>,
    trace: TraceHandle,
    deadline: Option<SimDuration>,
    events: BinaryHeap<Reverse<(SimTime, Kind, u64)>>,
    seq: u64,
    /// `(request, class, dispatch time)` in flight per server.
    in_flight: Vec<Option<(Request, ServiceClass, SimTime)>>,
    /// Arrivals offered but not yet queued as an event.
    pending: VecDeque<Request>,
    /// The request whose arrival event is queued.
    queued_arrival: Option<Request>,
    completions: Vec<CompletionRecord>,
    end_time: SimTime,
    offered: usize,
    finished: bool,
}

impl<S: Scheduler, M: ServiceModel> Reference<S, M> {
    fn new(
        scheduler: S,
        servers: Vec<M>,
        trace: TraceHandle,
        deadline: Option<SimDuration>,
    ) -> Self {
        let in_flight = vec![None; servers.len()];
        Reference {
            scheduler,
            servers,
            trace,
            deadline,
            events: BinaryHeap::new(),
            seq: 0,
            in_flight,
            pending: VecDeque::new(),
            queued_arrival: None,
            completions: Vec::new(),
            end_time: SimTime::ZERO,
            offered: 0,
            finished: false,
        }
    }

    fn push(&mut self, at: SimTime, kind: Kind) {
        self.events.push(Reverse((at, kind, self.seq)));
        self.seq += 1;
    }

    /// Pops every event whose order relative to future arrivals is known.
    fn pump(&mut self) {
        loop {
            if self.queued_arrival.is_none() {
                match self.pending.pop_front() {
                    Some(request) => {
                        self.push(request.arrival, Kind::Arrival);
                        self.queued_arrival = Some(request);
                    }
                    None if self.finished => {}
                    // A completion might still tie with an arrival not
                    // offered yet.
                    None => return,
                }
            }
            let Some(Reverse((now, kind, _))) = self.events.pop() else {
                return;
            };
            self.end_time = self.end_time.max(now);
            match kind {
                Kind::Arrival => {
                    let request = self.queued_arrival.take().expect("queued arrival");
                    self.trace.emit_with(|| TraceEvent::Arrival {
                        at: now,
                        id: request.id.index(),
                    });
                    self.scheduler.on_arrival(request, now);
                    for server in 0..self.servers.len() {
                        if self.in_flight[server].is_none() {
                            self.poll(server, now);
                        }
                    }
                }
                Kind::Completion(server) => {
                    let (request, class, dispatched) =
                        self.in_flight[server].take().expect("busy server");
                    self.completions.push(CompletionRecord {
                        id: request.id,
                        class,
                        arrival: request.arrival,
                        dispatched,
                        completion: now,
                    });
                    self.trace.emit_with(|| {
                        let response = now - request.arrival;
                        TraceEvent::Completed {
                            at: now,
                            id: request.id.index(),
                            class: class.index(),
                            response,
                            deadline_met: self.deadline.map(|d| response <= d),
                        }
                    });
                    self.scheduler.on_completion(&request, class, now);
                    self.poll(server, now);
                }
            }
        }
    }

    fn poll(&mut self, server: usize, now: SimTime) {
        let Dispatch::Serve(request, class) = self.scheduler.next_for(ServerId::new(server), now)
        else {
            return;
        };
        let service = self.servers[server]
            .service_time(&request, now)
            .max(SimDuration::from_nanos(1));
        let at = now.checked_add(service).expect("clock overflow");
        self.in_flight[server] = Some((request, class, now));
        self.push(at, Kind::Completion(server));
    }
}

impl<S: Scheduler, M: ServiceModel> ChunkCore for Reference<S, M> {
    fn offer(&mut self, request: Request) {
        assert!(!self.finished, "offer after finish");
        self.offered += 1;
        self.pending.push_back(request);
        self.pump();
    }

    fn finish(&mut self) {
        self.finished = true;
        self.pump();
    }

    fn drain(&mut self, sink: impl FnMut(CompletionRecord)) -> usize {
        let n = self.completions.len();
        self.completions.drain(..).for_each(sink);
        n
    }

    fn offered(&self) -> usize {
        self.offered
    }

    fn end_time(&self) -> SimTime {
        self.end_time
    }
}

/// Counts the sink's records at every pull of the wrapped stream.
struct PullProbe<'a> {
    inner: WorkloadStream,
    sunk: &'a Cell<usize>,
    at_pull: Vec<usize>,
}

impl ArrivalStream for PullProbe<'_> {
    fn chunk_capacity(&self) -> usize {
        self.inner.chunk_capacity()
    }

    fn next_chunk(&mut self, buf: &mut Vec<Request>) -> Result<usize, StreamError> {
        self.at_pull.push(self.sunk.get());
        self.inner.next_chunk(buf)
    }
}

/// Everything one run shows: records, records released before each pull,
/// the run counters and the trace.
type Observed = (
    Vec<CompletionRecord>,
    Vec<usize>,
    StreamRun,
    Vec<TraceEvent>,
);

/// Streams `workload` in chunks of `chunk` through the core `build`
/// makes from a trace handle.
fn observe<C: ChunkCore>(
    workload: &Workload,
    chunk: usize,
    build: impl FnOnce(TraceHandle) -> C,
) -> Observed {
    let (trace, sink) = TraceHandle::memory();
    let mut core = build(trace);
    let sunk = Cell::new(0);
    let mut probe = PullProbe {
        inner: WorkloadStream::new(workload.clone(), chunk),
        sunk: &sunk,
        at_pull: Vec::new(),
    };
    let mut records = Vec::new();
    let run = run_chunks(&mut core, &mut probe, |r| {
        sunk.set(sunk.get() + 1);
        records.push(r);
    })
    .expect("workload stream");
    let events = sink.borrow().events();
    (records, probe.at_pull, run, events)
}

/// Runs `workload` on the core and on the reference, each over the
/// scheduler and servers `parts` builds from a trace handle, and compares
/// everything they show at chunk sizes 1, 7 and whole.
fn compare<S, M>(
    what: &str,
    workload: &Workload,
    deadline: Option<SimDuration>,
    parts: impl Fn(&TraceHandle) -> (S, Vec<M>),
) -> Result<(), TestCaseError>
where
    S: Scheduler,
    M: ServiceModel,
{
    for chunk in [1, 7, workload.len()] {
        let core = observe(workload, chunk, |trace| {
            let (scheduler, models) = parts(&trace);
            let mut sim = Simulation::new(scheduler).trace(trace);
            if let Some(d) = deadline {
                sim = sim.deadline(d);
            }
            models.into_iter().fold(sim, Simulation::server)
        });
        let reference = observe(workload, chunk, |trace| {
            let (scheduler, models) = parts(&trace);
            Reference::new(scheduler, models, trace, deadline)
        });
        let what = format!("{what}, {} requests, chunk {chunk}", workload.len());
        prop_assert_eq!(&core.0, &reference.0, "{}: records", what);
        prop_assert_eq!(&core.1, &reference.1, "{}: records released per pull", what);
        prop_assert_eq!(core.2, reference.2, "{}: run counters", what);
        prop_assert_eq!(&core.3, &reference.3, "{}: trace", what);
    }
    Ok(())
}

/// A rate whose service time is exactly `service_ns`.
fn rate(service_ns: u64) -> Iops {
    Iops::new(1e9 / service_ns as f64)
}

/// Arrivals whose gaps are `unit` times a value drawn from each raw
/// number: 40% zero gaps, most within two services, one in ten up to
/// forty services, long enough to empty every queue.
fn arrivals(raw: &[u64], unit: u64, service_units: u64) -> Workload {
    let mut t = 0;
    Workload::from_arrivals(raw.iter().map(|&r| {
        let (pick, draw) = (r % 10, r / 10);
        t += unit
            * match pick {
                0..=3 => 0,
                4..=8 => draw % (2 * service_units + 2),
                _ => draw % (40 * service_units + 2),
            };
        SimTime::from_nanos(t)
    }))
}

/// A shared-server or Split provision at `cmin` and `delta_c`, and a
/// deadline of `slots` primary services, so `⌊Cmin·δ⌋ = slots`.
fn provision(cmin: Iops, delta_c: Iops, slots: u64) -> (Provision, SimDuration) {
    let s0 = cmin.service_time().as_nanos();
    let mut deadline = s0 * slots;
    while cmin.requests_within(SimDuration::from_nanos(deadline)) == 0 {
        deadline += 1;
    }
    (
        Provision::new(cmin, delta_c),
        SimDuration::from_nanos(deadline),
    )
}

/// The four policies: the scheduler and its server rates, as
/// `RecombinePolicy` builds them.
fn policy(
    which: usize,
    split: (Provision, SimDuration),
    shared: (Provision, SimDuration),
    trace: &TraceHandle,
) -> (PolicyScheduler, Vec<Iops>) {
    let t = trace.clone();
    let ((sp, sd), (p, d)) = (split, shared);
    let scheduler = match which {
        0 => PolicyScheduler::Fcfs(FcfsScheduler::with_trace(t)),
        1 => PolicyScheduler::Split(SplitScheduler::with_trace(sp, sd, t)),
        2 => PolicyScheduler::FairQueue(FairQueueScheduler::with_trace(p, d, t)),
        _ => PolicyScheduler::Miser(MiserScheduler::with_trace(p, d, t)),
    };
    let rates = match which {
        1 => vec![sp.cmin(), sp.delta_c()],
        _ => vec![p.total()],
    };
    (scheduler, rates)
}

const POLICIES: [&str; 4] = ["FCFS", "Split", "FairQueue", "Miser"];

/// A stateful service model: a head that seeks between five positions,
/// one time unit per position crossed. A request at the head's position
/// takes zero time, which the 1 ns floor turns into one tick.
#[derive(Clone, Debug)]
struct Seeking {
    unit: u64,
    position: u64,
}

impl ServiceModel for Seeking {
    fn service_time(&mut self, request: &Request, _now: SimTime) -> SimDuration {
        let target = request.id.index() * 7 % 5;
        let seek = self.position.abs_diff(target);
        self.position = target;
        SimDuration::from_nanos(self.unit * seek)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn core_matches_the_reference_engine(
        raw in prop::collection::vec(0u64..10_000, 1..160),
        unit in prop_oneof![Just(1u64), Just(1_000u64), Just(1_000_000u64)],
        units in (1u64..6, 1u64..12, 1u64..6),
        slots in 1u64..5,
        servers in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let (cmin_units, delta_units, total_units) = units;
        // Split on Cmin and ΔC; FCFS, FairQueue and Miser on one server of
        // `total` with RTT bounded at half of it.
        let split = provision(rate(unit * cmin_units), rate(unit * delta_units), slots);
        let total = rate(unit * total_units);
        let half = Iops::new(total.get() / 2.0);
        let shared = provision(half, half, slots);
        let w = arrivals(&raw, unit, total_units.max(cmin_units));

        for (which, name) in POLICIES.iter().enumerate() {
            let deadline = if which == 1 { split.1 } else { shared.1 };
            compare(name, &w, Some(deadline), |t| {
                let (scheduler, rates) = policy(which, split, shared, t);
                (scheduler, rates.into_iter().map(FixedRateServer::new).collect())
            })?;
        }

        // The degradation loop on faulted servers, one policy per case.
        let which = (seed % 4) as usize;
        let span = w.requests().last().map_or(0, |r| r.arrival.as_nanos()).max(1);
        let schedule = FaultSchedule::generate(seed, SimDuration::from_nanos(span), 0.8);
        compare(&format!("adaptive {}", POLICIES[which]), &w, None, |t| {
            let (inner, rates) = policy(which, split, shared, t);
            let controller = DegradationController::new(8);
            let models = rates
                .iter()
                .map(|&r| ModulatedServer::new(FixedRateServer::new(r), schedule.clone()))
                .collect();
            (AdaptiveScheduler::new(inner, controller, &rates), models)
        })?;

        // A stateful model: FCFS on one to three heads, and Split.
        let heads = |n: usize| {
            (0..n as u64)
                .map(|i| Seeking { unit, position: i })
                .collect::<Vec<_>>()
        };
        compare(&format!("FCFS on {servers} seeking heads"), &w, None, |t| {
            (FcfsScheduler::with_trace(t.clone()), heads(servers))
        })?;
        compare("Split on seeking heads", &w, Some(split.1), |t| {
            (SplitScheduler::with_trace(split.0, split.1, t.clone()), heads(2))
        })?;
    }
}

#[test]
fn reference_orders_a_completion_before_a_tied_arrival() {
    // 100 IOPS: request 0 completes at 10 ms, the instant request 1
    // arrives, and request 1 finds the server free.
    let ms = SimTime::from_millis;
    let w = Workload::from_arrivals([ms(0), ms(10)]);
    let (records, at_pull, _, events) = observe(&w, 1, |trace| {
        Reference::new(
            FcfsScheduler::new(),
            vec![FixedRateServer::new(Iops::new(100.0))],
            trace,
            None,
        )
    });
    assert_eq!(records[1].dispatched, ms(10));
    // Pulls: before chunk 0, before chunk 1, and the empty pull after it.
    assert_eq!(at_pull, vec![0, 0, 1]);
    let kinds: Vec<_> = events.iter().map(|e| e.kind()).collect();
    assert_eq!(kinds, ["arrival", "completed", "arrival", "completed"]);
}
