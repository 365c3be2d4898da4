//! The simulation core.
//!
//! [`Simulation`] is the one core: a scheduler over one or more servers,
//! fed arrivals in order and run to quiescence. Every request is either
//! completed or left undispatched by the scheduler (a drop). Two drivers
//! feed it:
//!
//! - [`run`](Simulation::run) offers a materialised [`Workload`] straight
//!   from its slice and returns the full [`RunReport`];
//! - [`run_stream`](Simulation::run_stream) pulls an [`ArrivalStream`]
//!   chunk by chunk and hands each completion record to a callback after
//!   every chunk, so a caller that keeps no records holds `O(chunk)` of
//!   them at a time.
//!
//! Both offer the same requests to the same core, so a streamed run over
//! any chunking of a workload is **bit-identical** to the batch run: same
//! completion records, same nanoseconds, same tie-breaks.
//!
//! The chunk loop itself is [`run_chunks`], written once over the
//! [`ChunkCore`] trait: the simulation is one core, and `gqos-core`'s
//! FIFO lanes (FCFS and Split in closed form) are the other.
//!
//! # Event order
//!
//! A server holds one request at a time, so a run has at most one pending
//! arrival and one pending completion per server, and the core orders them
//! directly. An offer at `t` first completes every request done at or
//! before `t`, always the earliest `(done, server)` next: it records the
//! request, reports it to the scheduler with `on_completion`, and asks
//! `next_for(done)` for that server. Only then does the arrival reach the
//! scheduler, and every idle server, in index order, asks `next_for(t)`.
//! So a completion comes before an arrival at the same instant (a request
//! arriving as a server frees up sees the freed slot, the convention the
//! paper's queue-length argument assumes), and the lower server comes
//! first among completions at one instant.
//!
//! A completion at `T` is processed only once an arrival at or after `T`
//! is offered, or the run finishes: until then an arrival that ties with
//! it could still come. The per-offer state is one in-flight request per
//! server plus whatever backlog the scheduler itself holds.
//! `crates/core/tests/engine_reference.rs` pins this order against an
//! event-driven reference engine.

use std::mem;

use gqos_obs::{TraceEvent, TraceHandle};
use gqos_trace::{ArrivalStream, Request, SimDuration, SimTime, StreamError, Workload};

use crate::metrics::{CompletionRecord, RunReport};
use crate::scheduler::{Dispatch, Scheduler, ServiceClass};
use crate::server::{ServerId, ServiceModel};

/// A request in service on one server.
#[derive(Copy, Clone, Debug)]
struct InService {
    request: Request,
    class: ServiceClass,
    dispatched: SimTime,
    done: SimTime,
}

/// One server: its service model and the request it is serving.
#[derive(Debug)]
struct Server<M> {
    model: M,
    in_service: Option<InService>,
}

/// A configured simulation: one scheduler, one or more servers of one
/// service model, an optional trace handle and deadline.
///
/// # Examples
///
/// ```
/// use gqos_sim::{FcfsScheduler, FixedRateServer, Simulation};
/// use gqos_trace::{Iops, SimDuration, SimTime, Workload};
///
/// let workload = Workload::from_arrivals([SimTime::ZERO, SimTime::ZERO]);
/// let report = Simulation::new(FcfsScheduler::new())
///     .server(FixedRateServer::new(Iops::new(100.0)))
///     .run(&workload);
/// assert_eq!(report.completed(), 2);
/// // Second request waits for the first: 10 ms + 10 ms.
/// assert_eq!(report.stats().max(), Some(SimDuration::from_millis(20)));
/// ```
pub struct Simulation<S, M> {
    scheduler: S,
    servers: Vec<Server<M>>,
    trace: TraceHandle,
    deadline: Option<SimDuration>,
    completions: Vec<CompletionRecord>,
    offered: usize,
    last_arrival: SimTime,
    last_completion: SimTime,
    finished: bool,
}

/// What one [`Simulation::run_stream`] pass saw of its stream and its
/// drains.
///
/// This is a passive result record; fields are public by design.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct StreamRun {
    /// Chunks pulled from the stream.
    pub chunks: usize,
    /// Largest resident chunk, in bytes (`len × size_of::<Request>()`) —
    /// the peak-RSS proxy for the input side of the pipeline.
    pub peak_chunk_bytes: usize,
    /// Requests offered to the scheduler.
    pub offered: usize,
    /// Instant of the last processed event.
    pub end_time: SimTime,
    /// Largest number of completion records handed over in one drain —
    /// the output-side footprint, bounded by the backlog a chunk can flush.
    pub peak_drain_records: usize,
}

impl<S, M> std::fmt::Debug for Simulation<S, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("servers", &self.servers.len())
            .field("offered", &self.offered)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl<S: Scheduler, M: ServiceModel> Simulation<S, M> {
    /// Creates a simulation under `scheduler` with no servers yet; add at
    /// least one with [`server`](Simulation::server).
    pub fn new(scheduler: S) -> Self {
        Simulation {
            scheduler,
            servers: Vec::new(),
            trace: TraceHandle::disabled(),
            deadline: None,
            completions: Vec::new(),
            offered: 0,
            last_arrival: SimTime::ZERO,
            last_completion: SimTime::ZERO,
            finished: false,
        }
    }

    /// Adds a server with the given service model. Servers are identified
    /// by the order they are added ([`ServerId::new(0)`](crate::ServerId::new)
    /// first).
    pub fn server(mut self, model: M) -> Self {
        self.servers.push(Server {
            model,
            in_service: None,
        });
        self
    }

    /// Attaches a trace handle; the core emits `Arrival` and `Completed`
    /// events into it (schedulers emit their own admit/divert/dispatch
    /// events through their own handles). A disabled handle — the default —
    /// costs one untaken branch per event, so untraced runs are unchanged.
    pub fn trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the deadline used for the per-completion `deadline_met` verdict
    /// in trace events. Without one, completions carry no verdict.
    pub fn deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The scheduler, for reading back policy-side state (e.g. shed
    /// counters in wrapper schedulers) after the run.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Runs `workload` to quiescence and returns the report over every
    /// completion record.
    ///
    /// # Panics
    ///
    /// Panics if no server was added.
    pub fn run(mut self, workload: &Workload) -> RunReport {
        self.completions.reserve_exact(workload.len());
        for &request in workload.requests() {
            self.offer(request);
        }
        self.finish();
        let end_time = self.end_time();
        RunReport::new(self.completions, self.offered, end_time)
    }

    /// Runs `stream` to quiescence: pulls a chunk, offers it, and hands
    /// every completion record the chunk released to `on_completion`,
    /// until the stream is empty; then ends the run and hands over the
    /// rest. `on_completion` runs after each chunk and before the next
    /// pull, in completion order.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamError`] from the source. Records drained before
    /// the failing pull have already been handed to `on_completion`; the
    /// run stops there and the simulation is left unfinished.
    ///
    /// # Panics
    ///
    /// Panics if no server was added, or if the simulation has already run.
    pub fn run_stream<A: ArrivalStream + ?Sized>(
        &mut self,
        stream: &mut A,
        on_completion: impl FnMut(CompletionRecord),
    ) -> Result<StreamRun, StreamError> {
        assert!(
            self.offered == 0 && !self.finished,
            "a simulation runs once"
        );
        run_chunks(self, stream, on_completion)
    }

    fn assert_has_servers(&self) {
        assert!(
            !self.servers.is_empty(),
            "simulation needs at least one server"
        );
    }

    /// Completes every request done at or before `t`, the earliest
    /// `(done, server)` first.
    #[inline]
    fn complete_until(&mut self, t: SimTime) {
        loop {
            let next = self
                .servers
                .iter()
                .enumerate()
                .filter_map(|(server, s)| s.in_service.as_ref().map(|job| (job.done, server)))
                .min();
            match next {
                Some((done, server)) if done <= t => self.complete(server),
                _ => return,
            }
        }
    }

    /// Records `server`'s request as completed and hands the server its
    /// next request at the completion instant.
    #[inline]
    fn complete(&mut self, server: usize) {
        let InService {
            request,
            class,
            dispatched,
            done,
        } = self.servers[server]
            .in_service
            .take()
            .expect("completing an idle server");
        self.completions.push(CompletionRecord {
            id: request.id,
            class,
            arrival: request.arrival,
            dispatched,
            completion: done,
        });
        self.last_completion = done;
        self.trace.emit_with(|| {
            let response = done - request.arrival;
            TraceEvent::Completed {
                at: done,
                id: request.id.index(),
                class: class.index(),
                response,
                deadline_met: self.deadline.map(|d| response <= d),
            }
        });
        self.scheduler.on_completion(&request, class, done);
        self.dispatch(server, done);
    }

    /// Asks the scheduler for idle `server`'s next request at `now`.
    #[inline]
    fn dispatch(&mut self, server: usize, now: SimTime) {
        let Dispatch::Serve(request, class) = self.scheduler.next_for(ServerId::new(server), now)
        else {
            return;
        };
        let slot = &mut self.servers[server];
        // Zero-length service still advances the clock by one tick so
        // progress is guaranteed.
        let service = slot
            .model
            .service_time(&request, now)
            .max(SimDuration::from_nanos(1));
        let done = now
            .checked_add(service)
            .expect("completion instant overflows the simulation clock");
        slot.in_service = Some(InService {
            request,
            class,
            dispatched: now,
            done,
        });
    }
}

/// What the chunk driver [`run_chunks`] needs of a simulation core: a
/// run fed arrivals in order, whose completion records are released as
/// soon as no arrival still to come could precede them.
///
/// [`Simulation`] is the general core. A policy whose servers are all
/// fixed-rate FIFOs can supply a closed-form one instead (`gqos-core`'s
/// FIFO lanes); both share this one driver, so the drain-after-chunk
/// contract and the peak counters have one implementation.
pub trait ChunkCore {
    /// Offers the next arrival. Arrivals must be offered in
    /// non-decreasing arrival order.
    fn offer(&mut self, request: Request);

    /// Declares the arrival stream exhausted and runs to quiescence.
    fn finish(&mut self);

    /// Hands every record released so far to `sink`, in completion order
    /// (ties by server index), and returns how many. Before
    /// [`finish`](ChunkCore::finish) a record is released once its
    /// completion is at or before the last offered arrival; after it,
    /// every record is.
    fn drain(&mut self, sink: impl FnMut(CompletionRecord)) -> usize;

    /// Requests offered so far.
    fn offered(&self) -> usize;

    /// Instant of the last event of the run; final once finished.
    fn end_time(&self) -> SimTime;
}

impl<S: Scheduler, M: ServiceModel> ChunkCore for Simulation<S, M> {
    /// Completes what the arrival's instant settles, then hands the
    /// arrival to the scheduler (see the module docs for the order).
    ///
    /// # Panics
    ///
    /// Panics if no server was added, after
    /// [`finish`](ChunkCore::finish), or if `request` arrives before the
    /// last offered arrival.
    #[inline]
    fn offer(&mut self, request: Request) {
        self.assert_has_servers();
        assert!(!self.finished, "offer after finish");
        let now = request.arrival;
        assert!(
            now >= self.last_arrival,
            "arrivals must be offered in order: {} after {}",
            now,
            self.last_arrival
        );
        self.last_arrival = now;
        self.offered += 1;
        self.complete_until(now);
        self.trace.emit_with(|| TraceEvent::Arrival {
            at: now,
            id: request.id.index(),
        });
        self.scheduler.on_arrival(request, now);
        for server in 0..self.servers.len() {
            if self.servers[server].in_service.is_none() {
                self.dispatch(server, now);
            }
        }
    }

    /// Declares the arrival stream exhausted and runs the simulation to
    /// quiescence. Idempotent; a later offer panics.
    ///
    /// # Panics
    ///
    /// Panics if no server was added.
    fn finish(&mut self) {
        self.assert_has_servers();
        self.finished = true;
        self.complete_until(SimTime::MAX);
    }

    fn drain(&mut self, sink: impl FnMut(CompletionRecord)) -> usize {
        let n = self.completions.len();
        self.completions.drain(..).for_each(sink);
        n
    }

    fn offered(&self) -> usize {
        self.offered
    }

    /// The later of the last arrival and the last completion.
    fn end_time(&self) -> SimTime {
        self.last_arrival.max(self.last_completion)
    }
}

/// Runs `stream` through `core` to quiescence: pulls a chunk, offers it,
/// and hands every record the chunk released to `on_completion`, until
/// the stream is empty; then finishes the run and hands over the rest.
/// `on_completion` runs after each chunk and before the next pull, in
/// completion order.
///
/// # Errors
///
/// Propagates [`StreamError`] from the source. Records drained before the
/// failing pull have already been handed to `on_completion`; the run
/// stops there and `core` is left unfinished.
pub fn run_chunks<C, A>(
    core: &mut C,
    stream: &mut A,
    mut on_completion: impl FnMut(CompletionRecord),
) -> Result<StreamRun, StreamError>
where
    C: ChunkCore + ?Sized,
    A: ArrivalStream + ?Sized,
{
    let mut buf = Vec::new();
    let (mut chunks, mut peak_chunk_bytes, mut peak_drain_records) = (0, 0, 0);
    loop {
        let n = stream.next_chunk(&mut buf)?;
        if n == 0 {
            break;
        }
        chunks += 1;
        peak_chunk_bytes = peak_chunk_bytes.max(n * mem::size_of::<Request>());
        for &request in &buf {
            core.offer(request);
        }
        peak_drain_records = peak_drain_records.max(core.drain(&mut on_completion));
    }
    core.finish();
    peak_drain_records = peak_drain_records.max(core.drain(&mut on_completion));
    Ok(StreamRun {
        chunks,
        peak_chunk_bytes,
        offered: core.offered(),
        end_time: core.end_time(),
        peak_drain_records,
    })
}

/// Convenience wrapper: simulates `workload` under `scheduler` on a single
/// server with the given service model.
///
/// # Examples
///
/// ```
/// use gqos_sim::{simulate, FcfsScheduler, FixedRateServer};
/// use gqos_trace::{Iops, SimTime, Workload};
///
/// let workload = Workload::from_arrivals([SimTime::ZERO]);
/// let report = simulate(&workload, FcfsScheduler::new(),
///     FixedRateServer::new(Iops::new(1000.0)));
/// assert_eq!(report.completed(), 1);
/// ```
pub fn simulate<S, M>(workload: &Workload, scheduler: S, model: M) -> RunReport
where
    S: Scheduler,
    M: ServiceModel,
{
    Simulation::new(scheduler).server(model).run(workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FcfsScheduler;
    use crate::server::FixedRateServer;
    use gqos_trace::{Iops, WorkloadStream};

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dur_ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn fcfs_spaced_arrivals_have_pure_service_latency() {
        // 100 IOPS -> 10 ms service; arrivals 50 ms apart never queue.
        let w = Workload::from_arrivals([ms(0), ms(50), ms(100)]);
        let report = simulate(
            &w,
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(100.0)),
        );
        assert_eq!(report.completed(), 3);
        for r in report.records() {
            assert_eq!(r.response_time(), dur_ms(10));
            assert_eq!(r.queueing_time(), SimDuration::ZERO);
        }
    }

    #[test]
    fn fcfs_burst_queues_linearly() {
        // Three simultaneous arrivals at 100 IOPS: completions at 10/20/30 ms.
        let w = Workload::from_arrivals([ms(0), ms(0), ms(0)]);
        let report = simulate(
            &w,
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(100.0)),
        );
        let mut resp: Vec<_> = report.records().iter().map(|r| r.response_time()).collect();
        resp.sort();
        assert_eq!(resp, vec![dur_ms(10), dur_ms(20), dur_ms(30)]);
        assert_eq!(report.end_time(), ms(30));
    }

    #[test]
    fn arrival_at_completion_instant_sees_free_server() {
        // Service 10 ms; second arrival exactly at first completion: no wait.
        let w = Workload::from_arrivals([ms(0), ms(10)]);
        let report = simulate(
            &w,
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(100.0)),
        );
        for r in report.records() {
            assert_eq!(r.queueing_time(), SimDuration::ZERO);
        }
    }

    #[test]
    fn empty_workload_finishes_immediately() {
        let w = Workload::new();
        let report = simulate(
            &w,
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(1.0)),
        );
        assert_eq!(report.completed(), 0);
        assert_eq!(report.total_requests(), 0);
        assert_eq!(report.end_time(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn requires_a_server() {
        let w = Workload::new();
        let _ = Simulation::<_, FixedRateServer>::new(FcfsScheduler::new()).run(&w);
    }

    /// A scheduler that drops every second request (never dispatches it).
    #[derive(Default)]
    struct DropHalf {
        queue: std::collections::VecDeque<Request>,
        seen: usize,
    }

    impl Scheduler for DropHalf {
        fn on_arrival(&mut self, request: Request, _now: SimTime) {
            self.seen += 1;
            if self.seen % 2 == 1 {
                self.queue.push_back(request);
            }
        }
        fn next_for(&mut self, _server: ServerId, _now: SimTime) -> Dispatch {
            match self.queue.pop_front() {
                Some(r) => Dispatch::Serve(r, ServiceClass::PRIMARY),
                None => Dispatch::Idle,
            }
        }
        fn pending(&self) -> usize {
            self.queue.len()
        }
    }

    #[test]
    fn dropped_requests_are_reported_unfinished() {
        let w = Workload::from_arrivals([ms(0), ms(1), ms(2), ms(3)]);
        let report = simulate(
            &w,
            DropHalf::default(),
            FixedRateServer::new(Iops::new(1000.0)),
        );
        assert_eq!(report.completed(), 2);
        assert_eq!(report.unfinished(), 2);
    }

    #[test]
    fn two_servers_drain_in_parallel() {
        // Two servers at 100 IOPS each; two simultaneous requests finish
        // simultaneously — FCFS hands one to each idle server.
        let w = Workload::from_arrivals([ms(0), ms(0)]);
        let report = Simulation::new(FcfsScheduler::new())
            .server(FixedRateServer::new(Iops::new(100.0)))
            .server(FixedRateServer::new(Iops::new(100.0)))
            .run(&w);
        assert_eq!(report.completed(), 2);
        for r in report.records() {
            assert_eq!(r.response_time(), dur_ms(10));
        }
    }

    #[test]
    fn report_matches_mm1_queueing_growth() {
        // Deterministic arrivals faster than service: backlog grows, and the
        // k-th request's response is k * (service - gap) + service-ish.
        // 1 ms apart, 2 ms service: request k waits ~k ms.
        let w = Workload::from_arrivals((0..10).map(ms));
        let report = simulate(
            &w,
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(500.0)),
        );
        let last = report
            .records()
            .iter()
            .max_by_key(|r| r.completion)
            .expect("non-empty");
        // Last request arrives at 9 ms; completions at 2,4,..,20 ms.
        assert_eq!(last.completion, ms(20));
        assert_eq!(last.response_time(), dur_ms(11));
    }

    fn server() -> FixedRateServer {
        FixedRateServer::new(Iops::new(100.0))
    }

    fn offline(w: &Workload) -> RunReport {
        Simulation::new(FcfsScheduler::new())
            .server(server())
            .run(w)
    }

    #[test]
    fn stream_driver_matches_batch_run_for_every_chunking() {
        // Chunk size 1 drains between every two offers; the larger sizes
        // leave completions queued across many offers.
        let mut arrivals: Vec<SimTime> = (0..50).map(|i| ms(i * 7)).collect();
        arrivals.extend(vec![ms(100); 20]);
        let w = Workload::from_arrivals(arrivals);
        let reference = offline(&w);
        for chunk in [1usize, 7, 70, 1000] {
            let mut sim = Simulation::new(FcfsScheduler::new()).server(server());
            let mut records = Vec::new();
            let run = sim
                .run_stream(&mut WorkloadStream::new(w.clone(), chunk), |r| {
                    records.push(r)
                })
                .expect("workload stream");
            assert_eq!(records, reference.records(), "chunk {chunk}");
            assert_eq!(run.offered, w.len());
            assert_eq!(run.end_time, reference.end_time());
            assert_eq!(run.chunks, w.len().div_ceil(chunk));
            let widest = chunk.min(w.len());
            assert_eq!(
                run.peak_chunk_bytes,
                widest * std::mem::size_of::<Request>()
            );
            assert!(run.peak_drain_records >= 1 && run.peak_drain_records <= w.len());
        }
    }

    #[test]
    fn completions_wait_for_the_next_arrival() {
        // One request in service; its completion is in the future, but the
        // engine must not process it while another arrival could precede it.
        let mut sim = Simulation::new(FcfsScheduler::new()).server(server());
        sim.offer(Request::at(ms(0)));
        assert_eq!(sim.completions.len(), 0);
        // A later arrival resolves the ambiguity up to its own timestamp...
        sim.offer(Request::at(ms(50)));
        assert_eq!(sim.completions.drain(..).count(), 1);
        // ...and finish() resolves the rest.
        sim.finish();
        assert_eq!(sim.completions.drain(..).count(), 1);
    }

    #[test]
    fn finish_is_idempotent_and_empty_stream_is_fine() {
        let mut sim = Simulation::new(FcfsScheduler::new()).server(server());
        sim.finish();
        sim.finish();
        assert_eq!(sim.offered(), 0);
        assert_eq!(sim.end_time(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "offered in order")]
    fn rejects_out_of_order_offers() {
        let mut sim = Simulation::new(FcfsScheduler::new()).server(server());
        sim.offer(Request::at(ms(10)));
        sim.offer(Request::at(ms(5)));
    }

    #[test]
    #[should_panic(expected = "offer after finish")]
    fn rejects_offers_after_finish() {
        let mut sim = Simulation::new(FcfsScheduler::new()).server(server());
        sim.finish();
        sim.offer(Request::at(ms(1)));
    }

    #[test]
    #[should_panic(expected = "completion instant overflows the simulation clock")]
    fn completion_past_the_clock_end_panics_instead_of_wrapping() {
        // Regression: `now + service` wrapped in release builds, so two
        // requests arriving near `SimTime::MAX` on a 1 IOPS server
        // completed before they arrived.
        let at = SimTime::from_nanos(u64::MAX - 5);
        let w = Workload::from_arrivals([at, at]);
        let _ = Simulation::new(FcfsScheduler::new())
            .server(FixedRateServer::new(Iops::new(1.0)))
            .run(&w);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn stream_driver_requires_a_server() {
        let mut sim = Simulation::<_, FixedRateServer>::new(FcfsScheduler::new());
        let w = Workload::from_arrivals([ms(0)]);
        let _ = sim.run_stream(&mut WorkloadStream::new(w, 1), |_| {});
    }

    #[test]
    #[should_panic(expected = "simulation needs at least one server")]
    fn chunk_driver_requires_a_server() {
        // Regression: only `run` and `run_stream` checked, so the chunk
        // driver accepted every arrival, completed none and returned `Ok`.
        let mut sim = Simulation::<_, FixedRateServer>::new(FcfsScheduler::new());
        let w = Workload::from_arrivals([ms(0), ms(1)]);
        let _ = run_chunks(&mut sim, &mut WorkloadStream::new(w, 1), |_| {});
    }
}
