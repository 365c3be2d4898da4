//! Epoch-fencing regression suite for the `QuoteCache` invalidation
//! contract under live SLA renegotiation: an `UpdateSla` bumps exactly
//! the renegotiated tenant's fencing epoch and evicts nothing, because a
//! quote depends on the workload alone; only a replaced workload (a
//! removed and re-added tenant, whose entry is invalidated) rebuilds a
//! tenant's entry (hit/miss counters asserted precisely), and a quote
//! computed for a replaced workload is never served again.

use gqos_control::{Ack, AckDetail, CommandBody, ControlError, ControlPlane, ControlRequest};
use gqos_core::{CapacityPlanner, FleetPlacer, FleetTenant, QosTarget, QuoteCache, TenantId};
use gqos_parallel::WorkerPool;
use gqos_trace::{Iops, SimDuration, SimTime, Workload};

fn workload(seed: u64) -> Workload {
    Workload::from_arrivals((0..80).map(|i| SimTime::from_millis(i * 5 + seed)))
}

/// `workload(0)`'s rate doubled.
fn doubled() -> Workload {
    Workload::from_arrivals((0..160).map(|i| SimTime::from_millis(i * 2)))
}

fn cold(t: &FleetTenant, deadline: SimDuration, fraction: f64) -> u64 {
    CapacityPlanner::new(t.workload(), deadline)
        .min_capacity(fraction)
        .get() as u64
}

#[test]
fn bump_epoch_fences_without_evicting_and_a_replaced_workload_rebuilds_one_tenant() {
    let deadline = SimDuration::from_millis(20);
    let mut cache = QuoteCache::new(deadline);
    let mut a = FleetTenant::new(TenantId::new(0), workload(0));
    let b = FleetTenant::new(TenantId::new(1), workload(1));

    // Cold quote for each tenant: two misses. Repeats: two hits.
    let qa = cache.quote_int(&a, 0.9);
    let qb = cache.quote_int(&b, 0.9);
    assert_eq!((cache.hits(), cache.misses()), (0, 2));
    assert_eq!(cache.quote_int(&a, 0.9), qa);
    assert_eq!(cache.quote_int(&b, 0.9), qb);
    assert_eq!((cache.hits(), cache.misses()), (2, 2));

    // SLA renegotiation on `a` alone: epoch bump, same workload. The
    // quote is served from the memo and is still the cold planner's.
    a.bump_epoch();
    assert_eq!(a.epoch(), 1);
    assert_eq!(cache.quote_int(&a, 0.9), qa, "same workload, same Cmin");
    assert_eq!((cache.hits(), cache.misses()), (3, 2), "a must not rebuild");
    assert_eq!(qa, cold(&a, deadline, 0.9));
    assert_eq!(cache.quote_int(&b, 0.9), qb);
    assert_eq!((cache.hits(), cache.misses()), (4, 2), "b must stay cached");

    // A new workload for `a` is a new incarnation whose entry is
    // invalidated: exactly `a`'s entry rebuilds, one miss.
    a = FleetTenant::with_epoch(a.id(), doubled(), a.epoch() + 1);
    cache.invalidate(a.id());
    let fresh = cache.quote_int(&a, 0.9);
    assert_eq!(fresh, cold(&a, deadline, 0.9));
    assert_eq!((cache.hits(), cache.misses()), (4, 3), "a must rebuild");
    assert_eq!(cache.quote_int(&b, 0.9), qb);
    assert_eq!((cache.hits(), cache.misses()), (5, 3), "b must stay cached");

    // The rebuilt entry memoizes again.
    assert_eq!(cache.quote_int(&a, 0.9), fresh);
    assert_eq!((cache.hits(), cache.misses()), (6, 3));
}

#[test]
fn stale_quotes_are_never_served_after_a_remove_and_re_add() {
    // The control plane replaces a workload by removal and re-admission;
    // the removal drops the tenant's cached entry, so the re-added
    // tenant's quote is the cold quote of its new workload.
    let target = QosTarget::new(0.9, SimDuration::from_millis(20));
    let placer = FleetPlacer::new(target, Iops::new(4000.0));
    let mut plane = ControlPlane::new(placer, 4, WorkerPool::serial()).unwrap();
    let id = TenantId::new(0);
    let add = |seq, workload| {
        ControlRequest::new(
            seq,
            CommandBody::AddTenant {
                tenant: id,
                workload,
            },
        )
    };
    assert!(plane
        .apply(&add(1, workload(0)), SimTime::ZERO)
        .outcome
        .is_ok());
    let before = plane.converged_quotes();
    let remove = ControlRequest::new(
        2,
        CommandBody::RemoveTenant {
            tenant: id,
            expect_epoch: 0,
        },
    );
    assert!(plane.apply(&remove, SimTime::ZERO).outcome.is_ok());

    // The tenant's profile doubles in rate: a stale quote would
    // under-provision it.
    let readd = plane.apply(&add(3, doubled()), SimTime::ZERO);
    assert_eq!(readd.outcome.map(|ack| ack.epoch), Ok(Some(1)));
    let after = plane.converged_quotes();
    assert_ne!(after, before, "the stale quote must not be replayed");
    let t = FleetTenant::with_epoch(id, doubled(), 1);
    assert_eq!(
        after,
        vec![(id, cold(&t, SimDuration::from_millis(20), 0.9))]
    );
}

#[test]
fn update_sla_through_the_plane_fences_and_reuses_the_cached_quote() {
    let target = QosTarget::new(0.9, SimDuration::from_millis(20));
    let placer = FleetPlacer::new(target, Iops::new(400.0));
    let mut plane = ControlPlane::new(placer, 4, WorkerPool::serial()).unwrap();
    for tenant in 0..2usize {
        let add = ControlRequest::new(
            tenant as u64 + 1,
            CommandBody::AddTenant {
                tenant: TenantId::new(tenant),
                workload: workload(tenant as u64),
            },
        );
        assert!(plane.apply(&add, SimTime::ZERO).outcome.is_ok());
    }
    let (hits0, misses0) = (plane.cache().hits(), plane.cache().misses());

    // Renegotiate tenant 0 at the fleet deadline and fraction: the epoch
    // bump fences, and the unchanged workload's quote is one memo hit,
    // with zero extra work for tenant 1.
    let update = ControlRequest::new(
        10,
        CommandBody::UpdateSla {
            tenant: TenantId::new(0),
            fraction: 0.9,
            deadline: SimDuration::from_millis(20),
            expect_epoch: 0,
            share: None,
        },
    );
    let out = plane.apply(&update, SimTime::ZERO);
    let Ok(Ack {
        epoch: Some(1),
        detail: AckDetail::SlaUpdated { cmin },
    }) = out.outcome
    else {
        panic!("renegotiation rejected: {out:?}");
    };
    let t0 = FleetTenant::new(TenantId::new(0), workload(0));
    assert_eq!(cmin, cold(&t0, SimDuration::from_millis(20), 0.9));
    assert_eq!(
        (plane.cache().hits(), plane.cache().misses()),
        (hits0 + 1, misses0),
        "an SLA change must not rebuild the unchanged workload's quote"
    );

    // A duplicate delivery replays the decision: no second bump, no
    // cache traffic.
    assert_eq!(plane.apply(&update, SimTime::from_millis(1)), out);
    assert_eq!(plane.epoch_of(TenantId::new(0)), Some(1));
    assert_eq!(
        (plane.cache().hits(), plane.cache().misses()),
        (hits0 + 1, misses0)
    );

    // A fresh command still fenced at the old epoch is rejected with
    // both epochs, and leaves the cache alone.
    let stale = ControlRequest::new(
        11,
        CommandBody::UpdateSla {
            tenant: TenantId::new(0),
            fraction: 0.8,
            deadline: SimDuration::from_millis(20),
            expect_epoch: 0,
            share: None,
        },
    );
    assert_eq!(
        plane.apply(&stale, SimTime::from_millis(2)).outcome,
        Err(ControlError::StaleEpoch {
            tenant: TenantId::new(0),
            expect: 0,
            current: 1,
        })
    );
    assert_eq!(
        (plane.cache().hits(), plane.cache().misses()),
        (hits0 + 1, misses0)
    );

    // Both tenants' quotes are still served from the memo.
    let quotes = plane.converged_quotes();
    assert_eq!(quotes.len(), 2);
    assert_eq!(
        (plane.cache().hits(), plane.cache().misses()),
        (hits0 + 3, misses0),
        "no tenant rebuilt"
    );
}
