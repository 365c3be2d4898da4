//! Incremental (streaming) simulation: feed arrivals as they become
//! available instead of materialising a whole [`Workload`](gqos_trace::Workload).
//!
//! [`StreamingSimulation`] is the engine's event loop factored out of the
//! batch driver so that arrivals can be *offered* one at a time and
//! completion records *drained* between offers. The batch
//! [`Simulation`](crate::Simulation) is reimplemented on top of this type,
//! so a streamed run over any chunking of a workload is **bit-identical**
//! to the batch run — same completion records, same nanoseconds, same
//! tie-breaks — by construction rather than by parallel maintenance of two
//! loops.
//!
//! # Why popping must wait for the next arrival
//!
//! The batch engine keeps exactly one arrival event in the queue at all
//! times (arrival `i + 1` is scheduled while processing arrival `i`), and
//! the queue breaks timestamp ties by event kind. A completion at time `T`
//! may therefore only be processed once the engine knows no arrival at a
//! time `< T` (or `== T`, which would still pop *after* the completion) is
//! coming. The streaming driver enforces this with a simple invariant: it
//! pops events only while the next arrival is already queued, or after
//! [`finish`](StreamingSimulation::finish) has promised that no further
//! arrivals exist. In between, pending completions and retries simply stay
//! queued — the per-call state is `O(servers)` events plus whatever backlog
//! the scheduler itself holds.
//!
//! # Examples
//!
//! ```
//! use gqos_sim::{FcfsScheduler, FixedRateServer, StreamingSimulation};
//! use gqos_trace::{Iops, Request, SimTime};
//!
//! let mut sim = StreamingSimulation::new(FcfsScheduler::new())
//!     .server(FixedRateServer::new(Iops::new(100.0)));
//! for ms in [0u64, 5, 300] {
//!     sim.offer(Request::at(SimTime::from_millis(ms)));
//! }
//! sim.finish();
//! assert_eq!(sim.drain_completions().count(), 3);
//! ```

use std::collections::VecDeque;

use gqos_obs::{TraceEvent, TraceHandle};
use gqos_trace::{Request, SimDuration, SimTime};

use crate::event::{Event, EventKind, IndexedEventQueue};
use crate::metrics::{CompletionRecord, RunReport};
use crate::scheduler::{Dispatch, Scheduler, ServiceClass};
use crate::server::{ServerId, ServiceModel};

/// An incremental simulation accepting arrivals one at a time.
///
/// Built with the same pieces as [`Simulation`](crate::Simulation) — a
/// scheduler, one or more servers, an optional trace handle and deadline —
/// but driven by [`offer`](StreamingSimulation::offer) /
/// [`finish`](StreamingSimulation::finish) instead of a workload reference.
/// Completion records accumulate internally until taken with
/// [`drain_completions`](StreamingSimulation::drain_completions), so a
/// caller that drains between chunks holds `O(chunk)` records at a time.
pub struct StreamingSimulation<S> {
    scheduler: S,
    servers: Vec<Box<dyn ServiceModel>>,
    trace: TraceHandle,
    deadline: Option<SimDuration>,
    queue: IndexedEventQueue,
    /// `(request, class, dispatch time)` in flight per server.
    in_flight: Vec<Option<(Request, ServiceClass, SimTime)>>,
    /// Arrivals offered but not yet injected into the event queue. Holds at
    /// most the requests offered since the last pump made progress; with an
    /// eagerly-pumping caller it stays at one element.
    pending: VecDeque<Request>,
    /// The request whose arrival event is currently queued.
    queued_arrival: Option<Request>,
    completions: Vec<CompletionRecord>,
    end_time: SimTime,
    offered: usize,
    last_arrival: SimTime,
    started: bool,
    finished: bool,
}

impl<S> std::fmt::Debug for StreamingSimulation<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingSimulation")
            .field("servers", &self.servers.len())
            .field("offered", &self.offered)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl<S: Scheduler> StreamingSimulation<S> {
    /// Creates a streaming simulation with no servers yet; add at least one
    /// with [`server`](StreamingSimulation::server) before offering.
    pub fn new(scheduler: S) -> Self {
        StreamingSimulation {
            scheduler,
            servers: Vec::new(),
            trace: TraceHandle::disabled(),
            deadline: None,
            queue: IndexedEventQueue::new(0),
            in_flight: Vec::new(),
            pending: VecDeque::new(),
            queued_arrival: None,
            completions: Vec::new(),
            end_time: SimTime::ZERO,
            offered: 0,
            last_arrival: SimTime::ZERO,
            started: false,
            finished: false,
        }
    }

    /// Assembles a streaming simulation from a batch
    /// [`Simulation`](crate::Simulation)'s parts, collecting completion
    /// records into `completions` (empty, possibly preallocated).
    pub(crate) fn from_parts(
        scheduler: S,
        servers: Vec<Box<dyn ServiceModel>>,
        trace: TraceHandle,
        deadline: Option<SimDuration>,
        completions: Vec<CompletionRecord>,
    ) -> Self {
        let mut sim = StreamingSimulation::new(scheduler);
        sim.completions = completions;
        sim.servers = servers;
        sim.trace = trace;
        sim.deadline = deadline;
        sim
    }

    /// Adds a server with the given service model. Servers are identified
    /// by the order they are added. Must be called before the first
    /// [`offer`](StreamingSimulation::offer).
    ///
    /// # Panics
    ///
    /// Panics if arrivals have already been offered.
    pub fn server<M: ServiceModel + 'static>(mut self, model: M) -> Self {
        assert!(!self.started, "servers must be added before offering");
        self.servers.push(Box::new(model));
        self
    }

    /// Attaches a trace handle (see [`Simulation::trace`](crate::Simulation::trace)).
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

    /// Total arrivals offered so far.
    pub fn offered(&self) -> usize {
        self.offered
    }

    /// The timestamp of the latest event processed so far.
    pub fn end_time(&self) -> SimTime {
        self.end_time
    }

    /// Offers the next arrival. Arrivals must be offered in non-decreasing
    /// arrival order; the engine processes every event that is already
    /// unambiguous before returning.
    ///
    /// # Panics
    ///
    /// Panics if no server was added, if `request.arrival` precedes an
    /// earlier offer, if called after [`finish`](StreamingSimulation::finish),
    /// or if the scheduler requests a retry at a non-future instant.
    pub fn offer(&mut self, request: Request) {
        assert!(!self.finished, "offer after finish");
        if !self.started {
            assert!(
                !self.servers.is_empty(),
                "simulation needs at least one server"
            );
            self.queue = IndexedEventQueue::new(self.servers.len());
            self.in_flight = (0..self.servers.len()).map(|_| None).collect();
            self.started = true;
        }
        assert!(
            request.arrival >= self.last_arrival,
            "arrivals must be offered in order: {} after {}",
            request.arrival,
            self.last_arrival
        );
        self.last_arrival = request.arrival;
        self.offered += 1;
        self.pending.push_back(request);
        self.pump();
    }

    /// Declares the arrival stream exhausted and runs the simulation to
    /// quiescence. Further [`offer`](StreamingSimulation::offer) calls
    /// panic; `finish` itself is idempotent.
    pub fn finish(&mut self) {
        self.finished = true;
        self.pump();
    }

    /// Removes and returns the completion records accumulated since the
    /// last drain, in completion order.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, CompletionRecord> {
        self.completions.drain(..)
    }

    /// Consumes the simulation into a [`RunReport`] over the records still
    /// in the internal buffer. For the report to cover the whole run, call
    /// [`finish`](StreamingSimulation::finish) first and do not drain.
    pub fn into_report(mut self) -> RunReport {
        self.finish();
        RunReport::new(self.completions, self.offered, self.end_time)
    }

    /// Processes every event whose order relative to future arrivals is
    /// already determined (see the module docs for the invariant).
    fn pump(&mut self) {
        loop {
            if self.queued_arrival.is_none() {
                match self.pending.pop_front() {
                    Some(request) => {
                        self.queue.push(Event {
                            at: request.arrival,
                            // The index is informational in streaming mode:
                            // the queue holds at most one arrival, so it
                            // never participates in ordering.
                            kind: EventKind::Arrival {
                                index: self.offered - self.pending.len() - 1,
                            },
                        });
                        self.queued_arrival = Some(request);
                    }
                    None if self.finished => {}
                    // A completion or retry here might still be preceded by
                    // (or tie with) an arrival that has not been offered
                    // yet; stop until the caller offers it or finishes.
                    None => return,
                }
            }
            let Some(Event { at: now, kind }) = self.queue.pop() else {
                return;
            };
            self.end_time = self.end_time.max(now);
            match kind {
                EventKind::Arrival { .. } => {
                    let request = self
                        .queued_arrival
                        .take()
                        .expect("arrival event without a queued request");
                    self.trace.emit_with(|| TraceEvent::Arrival {
                        at: now,
                        id: request.id.index(),
                    });
                    self.scheduler.on_arrival(request, now);
                    for server in 0..self.servers.len() {
                        if self.in_flight[server].is_none() {
                            Self::poll_server(
                                &mut self.scheduler,
                                &mut self.servers,
                                &mut self.in_flight,
                                &mut self.queue,
                                server,
                                now,
                            );
                        }
                    }
                }
                EventKind::Completion { server } => {
                    let (request, class, dispatched) = self.in_flight[server]
                        .take()
                        .expect("completion event for idle server");
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
                    Self::poll_server(
                        &mut self.scheduler,
                        &mut self.servers,
                        &mut self.in_flight,
                        &mut self.queue,
                        server,
                        now,
                    );
                }
                EventKind::Retry { server } => {
                    if self.in_flight[server].is_none() {
                        Self::poll_server(
                            &mut self.scheduler,
                            &mut self.servers,
                            &mut self.in_flight,
                            &mut self.queue,
                            server,
                            now,
                        );
                    }
                }
            }
        }
    }

    fn poll_server(
        scheduler: &mut S,
        servers: &mut [Box<dyn ServiceModel>],
        in_flight: &mut [Option<(Request, ServiceClass, SimTime)>],
        queue: &mut IndexedEventQueue,
        server: usize,
        now: SimTime,
    ) {
        debug_assert!(in_flight[server].is_none());
        match scheduler.next_for(ServerId::new(server), now) {
            Dispatch::Serve(request, class) => {
                let service = servers[server].service_time(&request, now);
                // Zero-length service still advances the clock by one tick
                // so progress is guaranteed.
                let service = service.max(SimDuration::from_nanos(1));
                in_flight[server] = Some((request, class, now));
                queue.push(Event {
                    at: now + service,
                    kind: EventKind::Completion { server },
                });
            }
            Dispatch::After(when) => {
                assert!(
                    when > now,
                    "scheduler requested retry at {when} which is not after {now}"
                );
                queue.push(Event {
                    at: when,
                    kind: EventKind::Retry { server },
                });
            }
            Dispatch::Idle => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;
    use crate::scheduler::FcfsScheduler;
    use crate::server::FixedRateServer;
    use gqos_trace::{Iops, Workload};

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn offline(w: &Workload) -> RunReport {
        Simulation::new(w, FcfsScheduler::new())
            .server(FixedRateServer::new(Iops::new(100.0)))
            .run()
    }

    fn streamed(w: &Workload) -> RunReport {
        let mut sim = StreamingSimulation::new(FcfsScheduler::new())
            .server(FixedRateServer::new(Iops::new(100.0)));
        for &r in w.requests() {
            sim.offer(r);
        }
        sim.into_report()
    }

    #[test]
    fn matches_offline_run_exactly() {
        let mut arrivals: Vec<SimTime> = (0..50).map(|i| ms(i * 7)).collect();
        arrivals.extend(vec![ms(100); 20]); // a burst with timestamp ties
        let w = Workload::from_arrivals(arrivals);
        let a = offline(&w);
        let b = streamed(&w);
        assert_eq!(a.records(), b.records());
        assert_eq!(a.end_time(), b.end_time());
        assert_eq!(a.total_requests(), b.total_requests());
    }

    #[test]
    fn drain_between_offers_preserves_order() {
        let w = Workload::from_arrivals((0..30).map(|i| ms(i * 3)));
        let whole = streamed(&w).into_records();

        let mut sim = StreamingSimulation::new(FcfsScheduler::new())
            .server(FixedRateServer::new(Iops::new(100.0)));
        let mut collected = Vec::new();
        for &r in w.requests() {
            sim.offer(r);
            collected.extend(sim.drain_completions());
        }
        sim.finish();
        collected.extend(sim.drain_completions());
        assert_eq!(collected, whole);
    }

    #[test]
    fn completions_wait_for_the_next_arrival() {
        // One request in service; its completion is in the future, but the
        // engine must not process it while another arrival could precede it.
        let mut sim = StreamingSimulation::new(FcfsScheduler::new())
            .server(FixedRateServer::new(Iops::new(100.0)));
        sim.offer(Request::at(ms(0)));
        assert_eq!(sim.drain_completions().count(), 0);
        // A later arrival resolves the ambiguity up to its own timestamp...
        sim.offer(Request::at(ms(50)));
        assert_eq!(sim.drain_completions().count(), 1);
        // ...and finish() resolves the rest.
        sim.finish();
        assert_eq!(sim.drain_completions().count(), 1);
    }

    #[test]
    fn finish_is_idempotent_and_empty_stream_is_fine() {
        let mut sim = StreamingSimulation::new(FcfsScheduler::new())
            .server(FixedRateServer::new(Iops::new(100.0)));
        sim.finish();
        sim.finish();
        assert_eq!(sim.offered(), 0);
        assert_eq!(sim.end_time(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "offered in order")]
    fn rejects_out_of_order_offers() {
        let mut sim = StreamingSimulation::new(FcfsScheduler::new())
            .server(FixedRateServer::new(Iops::new(100.0)));
        sim.offer(Request::at(ms(10)));
        sim.offer(Request::at(ms(5)));
    }

    #[test]
    #[should_panic(expected = "offer after finish")]
    fn rejects_offers_after_finish() {
        let mut sim = StreamingSimulation::new(FcfsScheduler::new())
            .server(FixedRateServer::new(Iops::new(100.0)));
        sim.finish();
        sim.offer(Request::at(ms(1)));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn requires_a_server() {
        let mut sim = StreamingSimulation::new(FcfsScheduler::new());
        sim.offer(Request::at(ms(0)));
    }
}
