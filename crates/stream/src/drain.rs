//! Zero-drop tenant drain-and-migrate through the ingest gateway.
//!
//! A live reconfiguration — SLA renegotiation onto a different server bin,
//! or evacuating a node the placer marked down — must move a tenant's lane
//! without dropping a single request. [`drain_migrate`] implements the
//! three-phase handoff the control plane's `DrainTenant` command rides on:
//!
//! 1. **Before the window** (`t < plan.start()`): arrivals are admitted on
//!    the old bin exactly as a normal lane run — same decisions, same
//!    nanoseconds.
//! 2. **Inside the window** (`plan.start() <= t < plan.end()`): the old
//!    lane's [`ShedScheduler`] is put into drain mode
//!    ([`ShedScheduler::with_drain_from`]): every new arrival is shed to
//!    the best-effort overflow FIFO — counted, traced as
//!    [`TraceEvent::Diverted`], and served at `OVERFLOW` class on the old
//!    bin once the policy's backlog empties. Already-admitted requests run
//!    to completion undisturbed.
//! 3. **After the window** (`t >= plan.end()`): arrivals are re-admitted
//!    on the target bin, each traced as [`TraceEvent::Migrated`].
//!
//! The handoff is bracketed by [`TraceEvent::DrainStarted`] and
//! [`TraceEvent::DrainCompleted`] so a replayed trace (`gqos-obs`'s
//! `DrainRecord` reconstruction) can
//! audit the shed and migrated counts independently. The invariant the
//! chaos harness pins: **offered == completed on both lanes** — shedding
//! demotes, migration redirects, nothing is ever dropped.
//!
//! [`ShedScheduler`]: crate::ShedScheduler
//! [`ShedScheduler::with_drain_from`]: crate::ShedScheduler::with_drain_from

use gqos_sim::{TraceEvent, TraceHandle};
use gqos_trace::{SimDuration, SimTime};

use crate::gateway::{drive_lane, TenantReport, TenantSpec};

/// The handoff window of a drain-and-migrate: shedding starts at `start`
/// and the target bin takes over at `start + window`.
///
/// # Examples
///
/// ```
/// use gqos_stream::DrainPlan;
/// use gqos_trace::{SimDuration, SimTime};
///
/// let plan = DrainPlan::new(SimTime::from_millis(100), SimDuration::from_millis(50));
/// assert_eq!(plan.end(), SimTime::from_millis(150));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct DrainPlan {
    start: SimTime,
    window: SimDuration,
}

impl DrainPlan {
    /// A handoff window starting at `start` and lasting `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero (the cutover would be ill-defined: the
    /// drain trace events would bracket an empty interval) or if
    /// `start + window` overflows the timeline.
    pub fn new(start: SimTime, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "drain window must be positive");
        assert!(
            start.as_nanos().checked_add(window.as_nanos()).is_some(),
            "drain window end overflows the timeline"
        );
        DrainPlan { start, window }
    }

    /// First instant at which old-lane arrivals are shed.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// The handoff window length.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// First instant served by the target bin (exclusive end of the shed
    /// window).
    pub fn end(&self) -> SimTime {
        self.start + self.window
    }
}

/// The audited outcome of a [`drain_migrate`] handoff.
///
/// This is a passive result record; fields are public by design.
#[derive(Clone, PartialEq, Debug)]
pub struct DrainReport {
    /// The tenant being moved (control-plane id, carried into the trace).
    pub tenant: u64,
    /// The bin the tenant drained from.
    pub from_server: usize,
    /// The bin the tenant migrated to.
    pub to_server: usize,
    /// The old lane's report: pre-window admissions plus window sheds,
    /// all completed on `from_server`.
    pub old: TenantReport,
    /// The new lane's report: post-window arrivals, all completed on
    /// `to_server`.
    pub new: TenantReport,
    /// Arrivals inside the handoff window, every one shed to best-effort
    /// (never dropped) on the old bin.
    pub window_shed: u64,
    /// Arrivals re-admitted on the target bin after the window.
    pub migrated: u64,
}

impl DrainReport {
    /// Total requests offered across both lanes.
    pub fn offered(&self) -> usize {
        self.old.offered + self.new.offered
    }

    /// Total requests completed across both lanes.
    pub fn completed(&self) -> usize {
        self.old.completed + self.new.completed
    }

    /// Requests lost in the handoff — zero by construction; exposed so
    /// harnesses can assert the invariant rather than trust it.
    pub fn dropped(&self) -> usize {
        self.offered() - self.completed()
    }
}

/// Drains `spec`'s lane off `from_server` and migrates it to `to_server`
/// over the handoff window `plan` in three phases (admit on the old bin,
/// shed inside the window, re-admit on the target bin), dropping nothing.
///
/// Emits [`TraceEvent::DrainStarted`] / [`TraceEvent::DrainCompleted`]
/// brackets, a [`TraceEvent::Diverted`] per window shed, and a
/// [`TraceEvent::Migrated`] per re-admitted arrival into `trace`. Request
/// ids in those events are *lane-local* (each lane re-identifies its
/// window of the workload from 0), matching every other per-lane trace in
/// the gateway.
///
/// Both lanes run single-threaded: trace handles are `Rc`-shared by
/// design, so a traced drain is a one-lane operation — the control plane
/// serialises drains, it does not fan them out.
pub fn drain_migrate(
    spec: &TenantSpec,
    plan: DrainPlan,
    tenant: u64,
    from_server: usize,
    to_server: usize,
    trace: &TraceHandle,
) -> DrainReport {
    trace.emit_with(|| TraceEvent::DrainStarted {
        at: plan.start,
        tenant,
        from_server,
    });
    let window_shed = spec.workload.window(plan.start, plan.end()).len() as u64;
    let old = drive_lane(
        spec,
        spec.workload.window(SimTime::ZERO, plan.end()),
        Some(plan.start),
        trace.clone(),
        |_| {},
    );
    let new_workload = spec.workload.window(plan.end(), SimTime::MAX);
    let migrated = new_workload.len() as u64;
    let new = drive_lane(
        spec,
        new_workload,
        None,
        TraceHandle::disabled(),
        |request| {
            trace.emit_with(|| TraceEvent::Migrated {
                at: request.arrival,
                id: request.id.index(),
                tenant,
                to_server,
            });
        },
    );
    trace.emit_with(|| TraceEvent::DrainCompleted {
        at: plan.end(),
        tenant,
        shed: window_shed,
        migrated,
    });
    DrainReport {
        tenant,
        from_server,
        to_server,
        old,
        new,
        window_shed,
        migrated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_core::{Provision, RecombinePolicy};
    use gqos_sim::ServiceClass;
    use gqos_trace::{Iops, Workload};

    use crate::OnlineShaper;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn spec() -> TenantSpec {
        TenantSpec {
            name: "drainee".into(),
            workload: Workload::from_arrivals((0..200).map(|i| ms(i * 5))),
            shaper: OnlineShaper::new(
                Provision::new(Iops::new(250.0), Iops::new(100.0)),
                SimDuration::from_millis(20),
            ),
            policy: RecombinePolicy::FairQueue,
            inbox_bound: 64,
            chunk: 16,
        }
    }

    #[test]
    fn drain_is_zero_drop_and_splits_at_the_window() {
        let plan = DrainPlan::new(ms(300), SimDuration::from_millis(100));
        let report = drain_migrate(&spec(), plan, 7, 0, 3, &TraceHandle::disabled());
        // 200 arrivals at 5ms spacing: [0, 300) → 60 pre-window,
        // [300, 400) → 20 shed in-window, [400, ∞) → 120 migrated.
        assert_eq!(report.window_shed, 20);
        assert_eq!(report.migrated, 120);
        assert_eq!(report.old.offered, 80);
        assert_eq!(report.new.offered, 120);
        assert_eq!(report.offered(), 200);
        assert_eq!(report.dropped(), 0, "drain must never drop a request");
        assert!(report.old.shed as u64 >= report.window_shed);
        let overflow = report
            .old
            .records
            .iter()
            .filter(|r| r.class == ServiceClass::OVERFLOW)
            .count();
        assert!(
            overflow as u64 >= report.window_shed,
            "window arrivals must complete best-effort on the old bin"
        );
    }

    #[test]
    fn drain_trace_brackets_and_counts_the_handoff() {
        let (trace, sink) = TraceHandle::memory();
        let plan = DrainPlan::new(ms(300), SimDuration::from_millis(100));
        let report = drain_migrate(&spec(), plan, 7, 1, 2, &trace);
        let events = sink.borrow().events().to_vec();
        let started = events.iter().any(|e| {
            matches!(
                e,
                TraceEvent::DrainStarted { at, tenant: 7, from_server: 1 } if *at == ms(300)
            )
        });
        assert!(started, "missing DrainStarted bracket");
        let migrated = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Migrated {
                        tenant: 7,
                        to_server: 2,
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(migrated, report.migrated);
        let diverted = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Diverted { .. }))
            .count() as u64;
        assert!(diverted >= report.window_shed);
        let completed = events.iter().find_map(|e| match e {
            TraceEvent::DrainCompleted {
                at,
                tenant: 7,
                shed,
                migrated,
            } => Some((*at, *shed, *migrated)),
            _ => None,
        });
        assert_eq!(completed, Some((ms(400), 20, 120)));
    }

    #[test]
    fn pre_window_service_is_untouched_by_the_drain() {
        // A drain scheduled after the whole workload must reproduce the
        // plain lane byte for byte on the old bin, with nothing migrated.
        let s = spec();
        let last = s.workload.last_arrival().unwrap();
        let plan = DrainPlan::new(
            last + SimDuration::from_millis(1),
            SimDuration::from_millis(1),
        );
        let report = drain_migrate(&s, plan, 1, 0, 1, &TraceHandle::disabled());
        let plain = drive_lane(
            &s,
            s.workload.clone(),
            None,
            TraceHandle::disabled(),
            |_| {},
        );
        assert_eq!(report.old.records, plain.records);
        assert_eq!(report.window_shed, 0);
        assert_eq!(report.migrated, 0);
        assert_eq!(report.new.offered, 0);
    }

    #[test]
    #[should_panic(expected = "drain window must be positive")]
    fn zero_window_rejected() {
        let _ = DrainPlan::new(ms(0), SimDuration::ZERO);
    }
}
