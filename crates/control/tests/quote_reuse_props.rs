//! Plane-level differential properties of quote reuse: random histories
//! of `AddTenant`, `RemoveTenant` (and re-add), `UpdateSla`,
//! `DrainTenant` and `NodeDown`/`NodeUp` applied through
//! [`ControlPlane::apply`], checked against cold oracles after every
//! command:
//!
//! 1. every renegotiated `Cmin` equals a cold
//!    [`CapacityPlanner::min_capacity`] on the tenant's workload, at any
//!    fraction and deadline and after any number of fencing epoch bumps;
//! 2. the plane's running committed-share total equals the sum of its
//!    recorded shares, which stays within the fleet's capacity;
//! 3. a retune repeating a `(tenant, f, δ)` already quoted for the same
//!    workload, or a fraction with the same miss budget, adds zero
//!    misses to the cache that answers it;
//! 4. a stale-epoch rejection causes no cache traffic at all;
//! 5. after the history, the long-lived cache's quotes equal a
//!    from-scratch pack's.

use std::collections::{BTreeMap, BTreeSet};

use gqos_control::{Ack, AckDetail, CommandBody, ControlError, ControlPlane, ControlRequest};
use gqos_core::{CapacityPlanner, FleetPlacer, QosTarget, TenantId};
use gqos_parallel::WorkerPool;
use gqos_trace::{Iops, SimDuration, SimTime, Workload};
use proptest::prelude::*;

const FLEET_DEADLINE_MS: u64 = 20;
const TENANTS: u64 = 6;
const SERVERS: u64 = 4;

/// A steady stream plus one burst, both shaped by `seed`.
fn workload(seed: u64) -> Workload {
    let mut arrivals: Vec<SimTime> = (0..40)
        .map(|k| SimTime::from_millis(k * 10 + seed % 7))
        .collect();
    arrivals.extend(vec![
        SimTime::from_millis(100 + 13 * (seed % 11));
        3 + (seed % 5) as usize
    ]);
    Workload::from_arrivals(arrivals)
}

fn cold(workload: &Workload, deadline: SimDuration, fraction: f64) -> u64 {
    CapacityPlanner::new(workload, deadline)
        .min_capacity(fraction)
        .get() as u64
}

/// `(hits, misses)` of the cache answering quotes at `deadline`.
fn traffic(plane: &ControlPlane, deadline: SimDuration) -> (u64, u64) {
    plane
        .sla_cache(deadline)
        .map_or((0, 0), |c| (c.hits(), c.misses()))
}

fn all_traffic(plane: &ControlPlane) -> [(u64, u64); 2] {
    [
        traffic(plane, SimDuration::from_millis(FLEET_DEADLINE_MS)),
        traffic(plane, SimDuration::from_millis(100)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn renegotiated_quotes_are_cold_and_repeats_are_free(
        ops in prop::collection::vec(
            (0u8..10, 0u64..TENANTS, any::<u64>(), 0usize..6, 0.5f64..1.0, any::<bool>(), 0u64..900),
            1..64,
        ),
    ) {
        let fleet_deadline = SimDuration::from_millis(FLEET_DEADLINE_MS);
        let target = QosTarget::new(0.9, fleet_deadline);
        let placer = FleetPlacer::new(target, Iops::new(400.0));
        let mut plane = ControlPlane::new(placer, SERVERS as usize, WorkerPool::serial()).unwrap();
        // Model: each live tenant's workload seed, and the (f, δ) pairs
        // already quoted for that workload.
        let mut live: BTreeMap<TenantId, u64> = BTreeMap::new();
        let mut quoted: BTreeSet<(TenantId, u64, u64)> = BTreeSet::new();
        for t in 0..TENANTS {
            let add = CommandBody::AddTenant { tenant: TenantId::new(t as usize), workload: workload(t) };
            prop_assert!(plane.apply(&ControlRequest::new(10_000 + t, add), SimTime::ZERO).outcome.is_ok());
            live.insert(TenantId::new(t as usize), t);
        }
        for (step, (kind, pick, seed, which, arbitrary, slow, share)) in ops.into_iter().enumerate() {
            let id = TenantId::new(pick as usize);
            let now = SimTime::from_millis(step as u64 * 50);
            let epoch = plane.epoch_of(id);
            // Mostly a small set, sometimes an arbitrary fraction.
            let fraction = [0.9, 0.95, 1.0, 0.905].get(which).copied().unwrap_or(arbitrary);
            // On these 43–47-request workloads 0.905 leaves the same miss
            // budget as 0.9, so it must reuse 0.9's quote.
            let key = if fraction == 0.905 { 0.9f64 } else { fraction }.to_bits();
            let deadline = SimDuration::from_millis(if slow { 100 } else { FLEET_DEADLINE_MS });
            let body = match kind {
                0 => CommandBody::AddTenant { tenant: id, workload: workload(seed) },
                1 => CommandBody::RemoveTenant { tenant: id, expect_epoch: epoch.unwrap_or(0) },
                2 => CommandBody::DrainTenant { tenant: id, expect_epoch: epoch.unwrap_or(0) },
                3 => CommandBody::NodeDown { node: (seed % SERVERS) as usize },
                4 => CommandBody::NodeUp { node: (seed % SERVERS) as usize },
                _ => CommandBody::UpdateSla {
                    tenant: id,
                    fraction,
                    deadline,
                    expect_epoch: epoch.unwrap_or(0),
                    share: (kind % 2 == 1).then_some(share + 1),
                },
            };
            let repeat = matches!(body, CommandBody::UpdateSla { .. })
                && epoch.is_some()
                && quoted.contains(&(id, key, deadline.as_nanos()));
            let before = traffic(&plane, deadline);
            let out = plane.apply(&ControlRequest::new(step as u64, body.clone()), now);
            match (&body, &out.outcome) {
                (CommandBody::AddTenant { .. }, Ok(_)) => {
                    let fresh = live.insert(id, seed).is_none();
                    prop_assert!(fresh, "duplicate add of {} acked", id);
                }
                (CommandBody::RemoveTenant { .. }, Ok(_)) => {
                    live.remove(&id);
                    quoted.retain(|&(t, _, _)| t != id);
                }
                (CommandBody::UpdateSla { .. }, Ok(Ack { detail: AckDetail::SlaUpdated { cmin }, .. })) => {
                    let w = workload(live[&id]);
                    prop_assert_eq!(*cmin, cold(&w, deadline, fraction), "{} f={} δ={}", id, fraction, deadline);
                    if repeat {
                        let after = traffic(&plane, deadline);
                        prop_assert_eq!(after.1, before.1, "repeated retune of {} re-planned", id);
                        prop_assert_eq!(after.0, before.0 + 1);
                    }
                    quoted.insert((id, key, deadline.as_nanos()));
                }
                (CommandBody::UpdateSla { .. }, Ok(ack)) => {
                    prop_assert!(false, "unexpected ack {:?}", ack);
                }
                (CommandBody::UpdateSla { .. }, Err(ControlError::ShareOverCommit { asked, available })) => {
                    prop_assert!(asked > available);
                    prop_assert_eq!(traffic(&plane, deadline), before);
                }
                _ => {}
            }
            let shares: u64 = plane.shares().iter().map(|&(_, s)| s).sum();
            prop_assert_eq!(plane.committed(), shares);
            prop_assert!(shares <= plane.fleet_capacity());
            let tenants: Vec<TenantId> = live.keys().copied().collect();
            prop_assert_eq!(plane.tenants(), tenants);

            // The same command fenced one epoch stale: rejected, with no
            // cache traffic anywhere.
            if let (Some(e), 2 | 5..) = (plane.epoch_of(id), kind) {
                let stale = match body {
                    CommandBody::UpdateSla { tenant, fraction, deadline, share, .. } => {
                        CommandBody::UpdateSla { tenant, fraction, deadline, share, expect_epoch: e + 1 }
                    }
                    _ => CommandBody::DrainTenant { tenant: id, expect_epoch: e + 1 },
                };
                let caches = all_traffic(&plane);
                let out = plane.apply(&ControlRequest::new(1_000 + step as u64, stale), now);
                let is_stale = matches!(out.outcome, Err(ControlError::StaleEpoch { .. }));
                prop_assert!(is_stale, "{:?}", out);
                prop_assert_eq!(all_traffic(&plane), caches);
            }
        }
        let converged = plane.converged_quotes();
        let oracle = plane.oracle_quotes().unwrap();
        prop_assert_eq!(converged, oracle);
    }
}
