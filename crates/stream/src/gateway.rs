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
//! A tenant's inbox is the pending backlog of its policy scheduler,
//! bounded at [`TenantSpec::inbox_bound`] entries. An arrival that finds
//! the inbox full is *shed*: it is never dropped, but demoted past the
//! policy's own decomposition into a best-effort FIFO served at
//! [`ServiceClass::OVERFLOW`] only when the policy has nothing eligible
//! (work-conserving, never pre-empting a policy decision and never
//! overriding a non-work-conserving policy's `After` holdback). Every
//! shed is counted and, when a trace is attached, emitted as a
//! [`TraceEvent::Diverted`] with the full queue depth at the instant of
//! the shed.

use std::collections::{HashSet, VecDeque};
use std::fmt;

use gqos_core::RecombinePolicy;
use gqos_parallel::WorkerPool;
use gqos_sim::{
    CompletionRecord, Dispatch, LatencySketch, LongTermStore, Scheduler, ServerId, ServiceClass,
    TraceEvent, TraceHandle, WindowSnapshot, WindowedSketch,
};
use gqos_trace::{Request, SimDuration, SimTime, Workload};

use crate::shaper::{feed_chunks, policy_simulation};
use crate::source::WorkloadStream;
use crate::OnlineShaper;

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
    /// not reflected into the inner scheduler (which never saw them).
    in_service: HashSet<u64>,
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
            in_service: HashSet::new(),
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
                    self.in_service.insert(request.id.index());
                    Dispatch::Serve(request, ServiceClass::OVERFLOW)
                }
                None => Dispatch::Idle,
            },
            decision => decision,
        }
    }

    fn on_completion(&mut self, request: &Request, class: ServiceClass, now: SimTime) {
        if !self.in_service.remove(&request.id.index()) {
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
    pub shaper: OnlineShaper,
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
    /// reproduces [`TenantReport::sketch`] bit for bit.
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

    /// Feeds this lane's window feedback into a long-horizon store under
    /// the tenant's name: every closed `window`-wide snapshot is merged
    /// into the store's retention ladder, keyed by its start instant.
    /// Keep `window` no wider than (and dividing) the store's tier-0
    /// width for exact time attribution.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn feed_longterm(&self, window: SimDuration, store: &mut LongTermStore<String>) {
        for snapshot in self.window_feedback(window) {
            store
                .ingest_snapshot(&self.name, &snapshot)
                .expect("window feedback snapshots are time-ordered");
        }
    }
}

/// A sharded admission gateway: runs each tenant lane independently on a
/// worker pool, assembling reports in tenant order.
///
/// # Examples
///
/// ```
/// use gqos_core::{Provision, RecombinePolicy};
/// use gqos_parallel::WorkerPool;
/// use gqos_stream::{IngestGateway, OnlineShaper, TenantSpec};
/// use gqos_trace::{Iops, SimDuration, SimTime, Workload};
///
/// let spec = TenantSpec {
///     name: "tenant-a".into(),
///     workload: Workload::from_arrivals((0..50).map(SimTime::from_millis)),
///     shaper: OnlineShaper::new(
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
#[derive(Copy, Clone, Debug)]
pub struct IngestGateway {
    pool: WorkerPool,
}

impl IngestGateway {
    /// Creates a gateway sharding lanes across `pool`.
    pub fn new(pool: WorkerPool) -> Self {
        IngestGateway { pool }
    }

    /// The gateway's worker pool.
    pub fn pool(&self) -> WorkerPool {
        self.pool
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
    drive_lane(&spec, workload, None, TraceHandle::disabled(), |_| {})
}

/// Drives one lane over `workload` with the spec's shaper, policy, inbox
/// bound and chunk size. `drain_from` puts the inbox into drain mode from
/// that instant, `shed_trace` receives the shed events, and `on_offer`
/// sees each request before the lane does.
pub(crate) fn drive_lane(
    spec: &TenantSpec,
    workload: Workload,
    drain_from: Option<SimTime>,
    shed_trace: TraceHandle,
    on_offer: impl FnMut(&Request),
) -> TenantReport {
    let mut sim = policy_simulation(
        spec.policy,
        &spec.shaper,
        &TraceHandle::disabled(),
        |scheduler| {
            let shed = ShedScheduler::with_trace(scheduler, spec.inbox_bound, shed_trace);
            match drain_from {
                Some(at) => shed.with_drain_from(at),
                None => shed,
            }
        },
    );
    let (_, peak_chunk_bytes) = feed_chunks(
        &mut WorkloadStream::new(workload, spec.chunk),
        &mut sim,
        on_offer,
        |_| {},
    )
    .expect("workload streams cannot fail");
    sim.finish();
    let shed = sim.scheduler().shed_count();
    let report = sim.into_report();
    TenantReport {
        name: spec.name.clone(),
        policy: spec.policy,
        offered: report.total_requests(),
        completed: report.completed(),
        shed,
        end_time: report.end_time(),
        peak_chunk_bytes,
        sketch: report.response_sketch(),
        records: report.into_records(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_core::{Provision, WorkloadShaper};
    use gqos_sim::FcfsScheduler;
    use gqos_trace::{Iops, SimDuration};

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn shaper() -> OnlineShaper {
        OnlineShaper::new(
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
        let offline = WorkloadShaper::new(shaper().provision(), shaper().deadline());
        for policy in RecombinePolicy::ALL {
            let reference = offline.run(&w, policy);
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
