//! Sharded multi-tenant admission: bounded per-tenant inboxes with
//! shed-to-Q2 backpressure, fanned across a
//! [`WorkerPool`](gqos_parallel::WorkerPool).
//!
//! Each tenant is an independent lane — its own arrival stream, shaper
//! provision, recombination policy, and inbox bound — so lanes partition
//! cleanly across workers and the gateway's output is assembled
//! positionally: for a fixed tenant list the result is **byte-identical**
//! for any worker count (1, 2, 4, 8, …).
//!
//! # Backpressure semantics
//!
//! A tenant's inbox holds the requests its policy has queued (not the ones
//! in service) and the shed FIFO, bounded at [`TenantSpec::inbox_bound`]
//! entries. An arrival that finds the inbox full is *shed*: it is never
//! dropped, but demoted past the policy's own decomposition into a
//! best-effort FIFO served at [`ServiceClass::OVERFLOW`] only when the
//! policy has nothing eligible (work-conserving, never pre-empting a
//! policy decision). Every shed is counted and, when a trace is attached,
//! emitted as a [`TraceEvent::Diverted`] with the full queue depth at the
//! instant of the shed.
//!
//! # Two cores, one semantics
//!
//! [`ShedScheduler`] states the inbox: it wraps the policy's scheduler on
//! the simulation core, and FairQueue and Miser lanes, and every lane
//! whose sheds are traced, run on it. Untraced FCFS and Split lanes, the
//! ones the shaper runs on FIFO lanes, run on
//! [`InboxLanes`](gqos_core::InboxLanes) instead: the same inbox over the
//! FIFO lanes' Lindley recurrences, with a shed test that reads each
//! lane's queue off its work. `tests/inbox_lanes_props.rs` holds them to
//! the `ShedScheduler` core, whole report against whole report.

use std::collections::VecDeque;
use std::fmt;

use gqos_core::{PolicyScheduler, RecombinePolicy, WorkloadShaper};
use gqos_parallel::WorkerPool;
use gqos_sim::{
    run_chunks, CompletionRecord, Dispatch, FixedRateServer, LatencySketch, LongTermStore,
    Scheduler, ServerId, ServiceClass, Simulation, TraceEvent, TraceHandle, WindowSnapshot,
    WindowedSketch,
};
use gqos_trace::{Request, SimDuration, SimTime, Workload, WorkloadStream};

/// Wraps a policy scheduler with a bounded inbox: arrivals beyond the
/// bound are shed to a best-effort overflow FIFO instead of growing the
/// policy's queues without limit.
///
/// With a bound no arrival ever reaches, the wrapper is an exact no-op —
/// every dispatch, class, and completion matches the bare inner scheduler.
///
/// # Examples
///
/// ```
/// use gqos_sim::{Dispatch, FcfsScheduler, Scheduler, ServerId, ServiceClass};
/// use gqos_stream::ShedScheduler;
/// use gqos_trace::{Request, SimTime};
///
/// let mut s = ShedScheduler::new(FcfsScheduler::new(), 1);
/// s.on_arrival(Request::at(SimTime::ZERO), SimTime::ZERO);
/// s.on_arrival(Request::at(SimTime::ZERO), SimTime::ZERO); // inbox full
/// // The shed request is served best-effort once the inner queue drains.
/// let _ = s.next_for(ServerId::new(0), SimTime::ZERO);
/// match s.next_for(ServerId::new(0), SimTime::ZERO) {
///     Dispatch::Serve(_, class) => assert_eq!(class, ServiceClass::OVERFLOW),
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct ShedScheduler<S> {
    inner: S,
    bound: usize,
    shed: VecDeque<Request>,
    /// Ids of shed requests currently in service, so their completions are
    /// not reflected into the inner scheduler (which never saw them): at
    /// most one per server.
    in_service: Vec<u64>,
    shed_count: usize,
    /// When set, every arrival at or after this instant is shed regardless
    /// of inbox depth — the handoff window of a drain-and-migrate.
    drain_from: Option<SimTime>,
    trace: TraceHandle,
}

impl<S: Scheduler> ShedScheduler<S> {
    /// Wraps `inner` with an inbox bounded at `bound` pending requests.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn new(inner: S, bound: usize) -> Self {
        Self::with_trace(inner, bound, TraceHandle::disabled())
    }

    /// Like [`new`](ShedScheduler::new), emitting a
    /// [`TraceEvent::Diverted`] into `trace` for every shed arrival.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn with_trace(inner: S, bound: usize, trace: TraceHandle) -> Self {
        assert!(bound > 0, "inbox bound must be positive");
        ShedScheduler {
            inner,
            bound,
            shed: VecDeque::new(),
            in_service: Vec::new(),
            shed_count: 0,
            drain_from: None,
            trace,
        }
    }

    /// Marks the scheduler as draining from `at`: every arrival at or
    /// after that instant is shed to the best-effort lane regardless of
    /// inbox depth, so the inner policy's backlog can only shrink. Already
    /// admitted requests still run to completion — nothing is dropped.
    #[must_use]
    fn with_drain_from(mut self, at: SimTime) -> Self {
        self.drain_from = Some(at);
        self
    }

    /// The wrapped policy scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Arrivals shed to the best-effort lane so far.
    fn shed_count(&self) -> usize {
        self.shed_count
    }
}

impl<S: Scheduler> Scheduler for ShedScheduler<S> {
    fn on_arrival(&mut self, request: Request, now: SimTime) {
        let depth = self.inner.pending() + self.shed.len();
        let draining = self.drain_from.is_some_and(|at| now >= at);
        if depth >= self.bound || draining {
            self.shed_count += 1;
            self.trace.emit_with(|| TraceEvent::Diverted {
                at: now,
                id: request.id.index(),
                queue_depth: depth as u64,
            });
            self.shed.push_back(request);
        } else {
            self.inner.on_arrival(request, now);
        }
    }

    fn next_for(&mut self, server: ServerId, now: SimTime) -> Dispatch {
        match self.inner.next_for(server, now) {
            Dispatch::Idle => match self.shed.pop_front() {
                Some(request) => {
                    self.in_service.push(request.id.index());
                    Dispatch::Serve(request, ServiceClass::OVERFLOW)
                }
                None => Dispatch::Idle,
            },
            decision => decision,
        }
    }

    fn on_completion(&mut self, request: &Request, class: ServiceClass, now: SimTime) {
        let id = request.id.index();
        if let Some(slot) = self.in_service.iter().position(|&held| held == id) {
            self.in_service.swap_remove(slot);
        } else {
            self.inner.on_completion(request, class, now);
        }
    }

    fn pending(&self) -> usize {
        self.inner.pending() + self.shed.len()
    }
}

/// One tenant's lane configuration.
///
/// This is a passive data record; fields are public by design.
#[derive(Clone, PartialEq, Debug)]
pub struct TenantSpec {
    /// Display name, carried through to the report.
    pub name: String,
    /// The tenant's arrival stream (materialised; streamed in chunks).
    pub workload: Workload,
    /// Provision and deadline for the tenant's lane.
    pub shaper: WorkloadShaper,
    /// Recombination policy for the lane.
    pub policy: RecombinePolicy,
    /// Inbox bound: pending requests beyond this are shed to best-effort.
    pub inbox_bound: usize,
    /// Ingestion chunk size for the lane.
    pub chunk: usize,
}

/// The outcome of one tenant's lane.
///
/// This is a passive result record; fields are public by design.
#[derive(Clone, PartialEq, Debug)]
pub struct TenantReport {
    /// The tenant's name, copied from its spec.
    pub name: String,
    /// The policy the lane ran.
    pub policy: RecombinePolicy,
    /// Requests offered to the lane.
    pub offered: usize,
    /// Requests that completed service.
    pub completed: usize,
    /// Arrivals shed to the best-effort lane by the inbox bound.
    pub shed: usize,
    /// Instant of the lane's last event.
    pub end_time: SimTime,
    /// Largest resident ingestion chunk, in bytes.
    pub peak_chunk_bytes: usize,
    /// Sketch over all of the lane's response times.
    pub sketch: LatencySketch,
    /// Every completion record, in completion order — the byte-identity
    /// witness for determinism checks across worker counts.
    pub records: Vec<CompletionRecord>,
}

impl TenantReport {
    /// The gateway's feedback tap for the SLO-window controller:
    /// partitions this lane's response times into fixed `window`-wide
    /// sketches keyed by **completion instant**, quiet windows included
    /// (they surface as typed no-signal snapshots, never a zero
    /// quantile — see [`WindowSnapshot::signal`]).
    ///
    /// Lossless by construction: merging every returned snapshot
    /// reproduces [`TenantReport::sketch`] bit for bit. Ingesting every
    /// snapshot into a `LongTermStore` is also the oracle that
    /// [`feed_longterm`](TenantReport::feed_longterm) is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn window_feedback(&self, window: SimDuration) -> Vec<WindowSnapshot> {
        let mut windowed = WindowedSketch::new(window);
        let mut out = Vec::new();
        for r in &self.records {
            let latency = r.response_time().as_nanos();
            // Records are in completion order, so instants are monotone
            // and recording can never reject as out-of-order.
            out.extend(
                windowed
                    .record(r.completion, latency)
                    .expect("completion-ordered records cannot be out of order"),
            );
        }
        out.push(windowed.finish());
        out
    }

    /// Feeds this lane's response times into a long-horizon store under
    /// the tenant's name, in one pass over [`records`](TenantReport::records):
    /// each value is filed through [`LongTermStore::record_all`] at the
    /// start of its `window`-wide feed window (keyed by completion
    /// instant). The store ends bit-identical to merging every
    /// [`window_feedback`](TenantReport::window_feedback) snapshot with
    /// `ingest_snapshot`: a merge is the recording of its values, and
    /// each snapshot's values all land in the tier-0 bucket holding the
    /// snapshot's start, whatever the window width. Keep `window` no
    /// wider than (and dividing) the store's tier-0 width for exact time
    /// attribution. A lane with no records feeds nothing.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero, if a record completes before the
    /// feed window of the record before it (the records are not in
    /// completion order), or if the store already holds values for this
    /// tenant from a tier-0 bucket later than the one holding the lane's
    /// first feed window.
    pub fn feed_longterm(&self, window: SimDuration, store: &mut LongTermStore<String>) {
        assert!(!window.is_zero(), "feedback window must be positive");
        let width = window.as_nanos();
        let (mut start, mut end) = (0, width);
        let values = self.records.iter().map(|r| {
            let t = r.completion.as_nanos();
            assert!(
                t >= start,
                "completion-ordered records cannot be out of order: {:?} before {:?}",
                r.completion,
                SimTime::from_nanos(start)
            );
            if t >= end {
                start = t - t % width;
                end = start.saturating_add(width);
            }
            (SimTime::from_nanos(start), r.response_time().as_nanos())
        });
        store
            .record_all(&self.name, values)
            .expect("window feedback is time-ordered");
    }
}

/// A sharded admission gateway: runs each tenant lane independently on a
/// worker pool, assembling reports in tenant order.
///
/// # Examples
///
/// ```
/// use gqos_core::{Provision, RecombinePolicy, WorkloadShaper};
/// use gqos_parallel::WorkerPool;
/// use gqos_stream::{IngestGateway, TenantSpec};
/// use gqos_trace::{Iops, SimDuration, SimTime, Workload};
///
/// let spec = TenantSpec {
///     name: "tenant-a".into(),
///     workload: Workload::from_arrivals((0..50).map(SimTime::from_millis)),
///     shaper: WorkloadShaper::new(
///         Provision::new(Iops::new(200.0), Iops::new(100.0)),
///         SimDuration::from_millis(20),
///     ),
///     policy: RecombinePolicy::FairQueue,
///     inbox_bound: 64,
///     chunk: 16,
/// };
/// let reports = IngestGateway::new(WorkerPool::serial()).run(vec![spec]);
/// assert_eq!(reports[0].completed, 50);
/// ```
#[derive(Clone, Debug)]
pub struct IngestGateway {
    pool: WorkerPool,
}

impl IngestGateway {
    /// Creates a gateway sharding lanes across `pool`.
    pub fn new(pool: WorkerPool) -> Self {
        IngestGateway { pool }
    }

    /// The gateway's worker pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Runs every tenant lane to completion, returning reports in tenant
    /// order. Lanes are independent, so the result does not depend on the
    /// worker count: for a fixed `tenants` list the reports are
    /// byte-identical whether the pool is serial or 8-wide.
    pub fn run(&self, tenants: Vec<TenantSpec>) -> Vec<TenantReport> {
        self.pool.map(tenants, run_lane)
    }
}

impl fmt::Display for IngestGateway {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gateway({} workers)", self.pool.threads())
    }
}

/// Drives one tenant lane start to finish. Lanes run untraced: trace
/// handles are single-threaded by design (`Rc`-shared sinks), so sharded
/// lanes report through counters and sketches instead.
fn run_lane(mut spec: TenantSpec) -> TenantReport {
    let workload = std::mem::take(&mut spec.workload);
    drive_lane(&spec, workload, None, TraceHandle::disabled())
}

/// Drives one lane over `workload` with the spec's shaper, policy, inbox
/// bound and chunk size. `drain_from` puts the inbox into drain mode from
/// that instant, and `shed_trace` receives the shed events. Each record
/// is folded into the lane's sketch as it completes, in one pass.
///
/// Where the shaper's untraced runs take FIFO lanes (FCFS and Split with
/// no sink on `shed_trace`), the lane runs on
/// [`InboxLanes`](gqos_core::InboxLanes), their closed form behind the
/// inbox. Every other lane runs [`ShedScheduler`] over the policy's
/// scheduler on the simulation core, the inbox lanes' oracle.
pub(crate) fn drive_lane(
    spec: &TenantSpec,
    workload: Workload,
    drain_from: Option<SimTime>,
    shed_trace: TraceHandle,
) -> TenantReport {
    let mut sketch = LatencySketch::new();
    let mut records = Vec::with_capacity(workload.len());
    let mut sink = |r: CompletionRecord| {
        sketch.record(r.response_time().as_nanos());
        records.push(r);
    };
    let mut stream = WorkloadStream::new(workload, spec.chunk);
    let inbox_lanes =
        spec.shaper
            .inbox_lanes(spec.policy, &shed_trace, spec.inbox_bound, drain_from);
    let (run, shed) = match inbox_lanes {
        Some(mut lanes) => (
            run_chunks(&mut lanes, &mut stream, &mut sink),
            lanes.shed_count(),
        ),
        None => {
            let mut sim = lane_simulation(spec, drain_from, shed_trace);
            (
                sim.run_stream(&mut stream, &mut sink),
                sim.scheduler().shed_count(),
            )
        }
    };
    let run = run.expect("workload streams cannot fail");
    TenantReport {
        name: spec.name.clone(),
        policy: spec.policy,
        offered: run.offered,
        completed: records.len(),
        shed,
        end_time: run.end_time,
        peak_chunk_bytes: run.peak_chunk_bytes,
        sketch,
        records,
    }
}

/// The lane's policy scheduler behind its inbox, on the simulation core.
fn lane_simulation(
    spec: &TenantSpec,
    drain_from: Option<SimTime>,
    shed_trace: TraceHandle,
) -> Simulation<ShedScheduler<PolicyScheduler>, FixedRateServer> {
    spec.shaper.simulation(
        spec.policy,
        TraceHandle::disabled(),
        |scheduler, _| {
            let shed = ShedScheduler::with_trace(scheduler, spec.inbox_bound, shed_trace);
            match drain_from {
                Some(at) => shed.with_drain_from(at),
                None => shed,
            }
        },
        FixedRateServer::new,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_core::Provision;
    use gqos_sim::{FcfsScheduler, RunReport};
    use gqos_trace::{Iops, RequestId, SimDuration};

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn shaper() -> WorkloadShaper {
        WorkloadShaper::new(
            Provision::new(Iops::new(250.0), Iops::new(100.0)),
            SimDuration::from_millis(20),
        )
    }

    fn bursty(seed: u64) -> Workload {
        let mut arrivals: Vec<SimTime> = (0..150).map(|i| ms(i * 5 + seed)).collect();
        arrivals.extend(vec![ms(300 + seed); 30]);
        Workload::from_arrivals(arrivals)
    }

    fn specs() -> Vec<TenantSpec> {
        RecombinePolicy::ALL
            .iter()
            .enumerate()
            .map(|(i, &policy)| TenantSpec {
                name: format!("tenant-{i}"),
                workload: bursty(i as u64),
                shaper: shaper(),
                policy,
                inbox_bound: 8,
                chunk: 16,
            })
            .collect()
    }

    #[test]
    fn generous_bound_is_a_no_op_wrapper() {
        // With an unreachable bound, the lane must reproduce the plain
        // offline shaper byte for byte — sheds included (zero).
        let w = bursty(0);
        for policy in RecombinePolicy::ALL {
            let reference = shaper().run(&w, policy);
            let report = run_lane(TenantSpec {
                name: "t".into(),
                workload: w.clone(),
                shaper: shaper(),
                policy,
                inbox_bound: usize::MAX,
                chunk: 32,
            });
            assert_eq!(report.shed, 0, "{policy}");
            assert_eq!(report.records, reference.records(), "{policy}");
            assert_eq!(report.end_time, reference.end_time(), "{policy}");
        }
    }

    #[test]
    fn one_pass_lane_matches_the_run_report_route() {
        for policy in RecombinePolicy::ALL {
            for inbox_bound in [1, usize::MAX] {
                for drain_from in [None, Some(ms(300))] {
                    let spec = TenantSpec {
                        name: "t".into(),
                        workload: bursty(3),
                        shaper: shaper(),
                        policy,
                        inbox_bound,
                        chunk: 16,
                    };
                    let w = spec.workload.clone();
                    let one_pass =
                        drive_lane(&spec, w.clone(), drain_from, TraceHandle::disabled());
                    // The oracle: the whole run as a `RunReport`, walked again
                    // for the counters and the sketch.
                    let mut sim = lane_simulation(&spec, drain_from, TraceHandle::disabled());
                    let mut records = Vec::new();
                    let run = sim
                        .run_stream(&mut WorkloadStream::new(w, spec.chunk), |r| records.push(r))
                        .expect("workload streams cannot fail");
                    let report = RunReport::new(records, run.offered, run.end_time);
                    let oracle = TenantReport {
                        name: spec.name.clone(),
                        policy,
                        offered: report.total_requests(),
                        completed: report.completed(),
                        shed: sim.scheduler().shed_count(),
                        end_time: report.end_time(),
                        peak_chunk_bytes: run.peak_chunk_bytes,
                        sketch: report.response_sketch(),
                        records: report.records().to_vec(),
                    };
                    let case = format!("{policy}, bound {inbox_bound}, drain {drain_from:?}");
                    assert_eq!(one_pass, oracle, "{case}");
                }
            }
        }
    }

    #[test]
    fn tight_bound_sheds_but_completes_everything() {
        let report = run_lane(TenantSpec {
            name: "t".into(),
            workload: bursty(0),
            shaper: shaper(),
            policy: RecombinePolicy::Miser,
            inbox_bound: 4,
            chunk: 16,
        });
        assert!(report.shed > 0, "burst of 30 must overflow a 4-deep inbox");
        assert_eq!(
            report.completed, report.offered,
            "shedding must demote, never drop"
        );
        let overflow = report
            .records
            .iter()
            .filter(|r| r.class == ServiceClass::OVERFLOW)
            .count();
        assert!(
            overflow >= report.shed,
            "shed requests must complete best-effort"
        );
    }

    #[test]
    fn sheds_are_traced_as_diverted() {
        let (trace, sink) = TraceHandle::memory();
        let mut s = ShedScheduler::with_trace(FcfsScheduler::new(), 2, trace);
        for i in 0..5u64 {
            s.on_arrival(
                Request::at(ms(0)).with_id(gqos_trace::RequestId::new(i)),
                ms(0),
            );
        }
        assert_eq!(s.shed_count(), 3);
        assert_eq!(s.shed.len(), 3);
        assert_eq!(s.pending(), 5);
        assert_eq!(s.inner().pending(), 2);
        let diverted: Vec<u64> = sink
            .borrow()
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Diverted {
                    id, queue_depth, ..
                } => {
                    assert!(*queue_depth >= 2);
                    Some(*id)
                }
                _ => None,
            })
            .collect();
        assert_eq!(diverted, vec![2, 3, 4]);
    }

    #[test]
    fn pending_counts_queued_requests_and_the_shed_fifo() {
        // The inbox lanes read the queued requests off a lane's work, so
        // their shed test holds only if `pending` leaves out the requests
        // in service, and the inbox adds its shed FIFO.
        let arrive = |s: &mut dyn Scheduler, n: u64| {
            for i in 0..n {
                s.on_arrival(Request::at(ms(0)).with_id(RequestId::new(i)), ms(0));
            }
        };
        let serve = |s: &mut dyn Scheduler, server: usize| {
            let dispatch = s.next_for(ServerId::new(server), ms(0));
            assert!(matches!(dispatch, Dispatch::Serve(..)), "{dispatch:?}");
        };
        let mut fcfs = FcfsScheduler::new();
        arrive(&mut fcfs, 3);
        serve(&mut fcfs, 0);
        assert_eq!(fcfs.pending(), 2);
        // maxQ1 = ⌊250 × 0.02⌋ = 5: five primaries and two overflows, one
        // of each in service.
        let mut split = gqos_core::SplitScheduler::new(shaper().provision(), shaper().deadline());
        arrive(&mut split, 7);
        serve(&mut split, 0);
        serve(&mut split, 1);
        assert_eq!(split.pending(), 5);
        // Two admitted, one of them in service, and two shed.
        let mut shed = ShedScheduler::new(FcfsScheduler::new(), 2);
        arrive(&mut shed, 4);
        serve(&mut shed, 0);
        assert_eq!((shed.inner().pending(), shed.shed.len()), (1, 2));
        assert_eq!(shed.pending(), 3);
    }

    #[test]
    fn shed_completions_do_not_reach_the_inner_scheduler() {
        // A shed request's completion must not be reflected into the inner
        // scheduler; an admitted request's must.
        let mut s = ShedScheduler::new(FcfsScheduler::new(), 1);
        let admitted = Request::at(ms(0)).with_id(gqos_trace::RequestId::new(0));
        let shed = Request::at(ms(0)).with_id(gqos_trace::RequestId::new(1));
        s.on_arrival(admitted, ms(0));
        s.on_arrival(shed, ms(0));
        let Dispatch::Serve(first, class) = s.next_for(ServerId::new(0), ms(0)) else {
            panic!("expected admitted dispatch");
        };
        assert_eq!(class, ServiceClass::PRIMARY);
        s.on_completion(&first, class, ms(1));
        let Dispatch::Serve(second, class) = s.next_for(ServerId::new(0), ms(1)) else {
            panic!("expected shed dispatch");
        };
        assert_eq!(class, ServiceClass::OVERFLOW);
        assert_eq!(second.id, shed.id);
        s.on_completion(&second, class, ms(2));
        assert_eq!(s.pending(), 0);
        assert_eq!(s.next_for(ServerId::new(0), ms(2)), Dispatch::Idle);
    }

    #[test]
    fn shed_requests_can_occupy_both_split_servers() {
        let split = gqos_core::SplitScheduler::new(shaper().provision(), shaper().deadline());
        let mut s = ShedScheduler::new(split, 1).with_drain_from(ms(0));
        for i in 0..3u64 {
            s.on_arrival(Request::at(ms(0)).with_id(RequestId::new(i)), ms(0));
        }
        let mut serve = |server| match s.next_for(ServerId::new(server), ms(0)) {
            Dispatch::Serve(request, ServiceClass::OVERFLOW) => request,
            other => panic!("expected a shed dispatch, got {other:?}"),
        };
        let (first, second) = (serve(0), serve(1));
        assert_eq!(s.in_service, vec![0, 1]);
        // Completions in either order free exactly their own slot.
        s.on_completion(&second, ServiceClass::OVERFLOW, ms(1));
        assert_eq!(s.in_service, vec![0]);
        s.on_completion(&first, ServiceClass::OVERFLOW, ms(1));
        assert!(s.in_service.is_empty());
        assert_eq!((s.pending(), s.inner().pending()), (1, 0));
    }

    #[test]
    fn reports_are_identical_across_worker_counts() {
        let reference = IngestGateway::new(WorkerPool::serial()).run(specs());
        for workers in [2usize, 4, 8] {
            let sharded = IngestGateway::new(WorkerPool::new(workers)).run(specs());
            assert_eq!(
                reference, sharded,
                "gateway output diverged at {workers} workers"
            );
        }
        assert_eq!(reference.len(), 4);
        assert!(reference.iter().all(|r| r.completed == r.offered));
    }

    #[test]
    fn longterm_feed_is_lossless_against_the_lane_sketch() {
        use gqos_sim::{LongTermStore, RetentionConfig};
        let report = run_lane(TenantSpec {
            name: "t".into(),
            workload: bursty(0),
            shaper: shaper(),
            policy: RecombinePolicy::FairQueue,
            inbox_bound: 8,
            chunk: 16,
        });
        let mut store: LongTermStore<String> = LongTermStore::new(RetentionConfig::default_tiers());
        report.feed_longterm(SimDuration::from_millis(100), &mut store);
        // The retention ladder's cumulative sketch reproduces the lane's
        // whole-run sketch bit for bit — retention loses nothing.
        assert_eq!(store.cumulative(&report.name).unwrap(), &report.sketch);
    }

    #[test]
    fn gateway_display_names_worker_count() {
        let gw = IngestGateway::new(WorkerPool::new(4));
        assert_eq!(gw.to_string(), "gateway(4 workers)");
        assert_eq!(gw.pool().threads(), 4);
    }

    #[test]
    #[should_panic(expected = "inbox bound must be positive")]
    fn zero_bound_rejected() {
        let _ = ShedScheduler::new(FcfsScheduler::new(), 0);
    }
}
