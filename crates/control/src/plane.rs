//! The control plane: the single authority that applies bus commands to
//! the live fleet placement.
//!
//! State it owns: the tenant registry (each a [`FleetTenant`] with its
//! fencing epoch), the per-tenant SLA records, the live [`Placement`],
//! the long-lived [`QuoteCache`] the placement is costed from, and the
//! command dedup log. Every mutation flows through [`ControlPlane::apply`]:
//!
//! 1. the protocol version is gated;
//! 2. a previously decided command id replays its cached
//!    [`ControlResponse`] verbatim (at-most-once application);
//! 3. epoch-fenced bodies are checked against the tenant's current
//!    epoch and rejected with [`ControlError::StaleEpoch`] on mismatch;
//! 4. the mutation is applied through the `FleetPlacer`'s incremental
//!    hooks, and the decision — ack or typed rejection — is cached.
//!
//! The correctness claim the chaos harness pins: after any command
//! history, the standalone quotes served from the plane's long-lived
//! cache are **bit-identical** to a from-scratch pack of the surviving
//! tenant set with a fresh cache ([`ControlPlane::oracle_quotes`]), and
//! every tenant's logged epoch sequence is strictly increasing.

use std::collections::BTreeMap;

use gqos_core::{FleetPlacer, FleetTenant, Placement, QosTarget, QuoteCache, TenantId};
use gqos_parallel::WorkerPool;
use gqos_trace::{SimDuration, SimTime, Workload};

use crate::bus::{
    Ack, AckDetail, CommandBody, CommandId, ControlError, ControlRequest, ControlResponse,
    PROTOCOL_VERSION,
};
use crate::guard::ReplanGuard;

/// Deterministic counters of one plane's command history.
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct PlaneStats {
    /// Commands applied (acked) for the first time.
    pub applied: u64,
    /// Duplicate deliveries answered from the dedup log.
    pub replayed: u64,
    /// Commands rejected with a typed error.
    pub rejected: u64,
    /// Tenants refilled onto recovered nodes.
    pub refilled: u64,
    /// Recovery refills suppressed by the flap guard.
    pub suppressed_refills: u64,
}

/// The fleet's single control authority.
#[derive(Clone, Debug)]
pub struct ControlPlane {
    placer: FleetPlacer,
    servers: usize,
    pool: WorkerPool,
    tenants: BTreeMap<TenantId, FleetTenant>,
    slas: BTreeMap<TenantId, QosTarget>,
    /// Final epoch of every removed tenant: a re-added tenant resumes
    /// one past it, so commands fenced against the dead incarnation stay
    /// dead.
    retired: BTreeMap<TenantId, u64>,
    placement: Placement,
    cache: QuoteCache,
    /// Explicit per-tenant capacity shares (integer IOPS) recorded by
    /// share-carrying `UpdateSla` commands — the SLO-window feedback
    /// controller's ledger. Invariant: values sum to at most the fleet's
    /// total capacity (`server_capacity × servers`).
    shares: BTreeMap<TenantId, u64>,
    /// Running sum of `shares`, kept at every share insert and removal.
    committed: u64,
    /// Per-deadline caches for renegotiated SLA quotes at deadlines other
    /// than the fleet target's, keyed by deadline nanoseconds.
    sla_caches: BTreeMap<u64, QuoteCache>,
    applied: BTreeMap<CommandId, ControlResponse>,
    epoch_log: Vec<(TenantId, u64)>,
    guard: ReplanGuard,
    stats: PlaneStats,
}

impl ControlPlane {
    /// An empty plane packing onto `servers` servers under `placer`'s
    /// target, with a 200 ms default flap-guard patience.
    ///
    /// # Errors
    ///
    /// [`gqos_core::FleetError::NoServers`] when `servers == 0`.
    pub fn new(
        placer: FleetPlacer,
        servers: usize,
        pool: WorkerPool,
    ) -> Result<Self, gqos_core::FleetError> {
        let mut cache = QuoteCache::new(placer.target().deadline());
        let placement = placer.pack(&[], servers, &mut cache, &pool)?;
        Ok(ControlPlane {
            placer,
            servers,
            pool,
            tenants: BTreeMap::new(),
            slas: BTreeMap::new(),
            retired: BTreeMap::new(),
            placement,
            cache,
            shares: BTreeMap::new(),
            committed: 0,
            sla_caches: BTreeMap::new(),
            applied: BTreeMap::new(),
            epoch_log: Vec::new(),
            guard: ReplanGuard::new(SimDuration::from_millis(200)),
            stats: PlaneStats::default(),
        })
    }

    /// Replaces the flap guard.
    #[must_use]
    pub fn with_guard(mut self, guard: ReplanGuard) -> Self {
        self.guard = guard;
        self
    }

    /// The live placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The long-lived quote cache the placement is costed from.
    pub fn cache(&self) -> &QuoteCache {
        &self.cache
    }

    /// The cache that quotes renegotiated SLAs at `deadline`: the fleet
    /// cache at the fleet deadline, otherwise that deadline's own cache,
    /// or `None` before any `UpdateSla` asked for it.
    pub fn sla_cache(&self, deadline: SimDuration) -> Option<&QuoteCache> {
        if deadline == self.cache.deadline() {
            Some(&self.cache)
        } else {
            self.sla_caches.get(&deadline.as_nanos())
        }
    }

    /// The command counters.
    pub fn stats(&self) -> PlaneStats {
        self.stats
    }

    /// The flap guard.
    pub fn guard(&self) -> &ReplanGuard {
        &self.guard
    }

    /// Tenants currently in the fleet, ascending by id.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.tenants.keys().copied().collect()
    }

    /// A tenant's current fencing epoch.
    pub fn epoch_of(&self, tenant: TenantId) -> Option<u64> {
        self.tenants.get(&tenant).map(FleetTenant::epoch)
    }

    /// A tenant's explicitly recorded capacity share, if a share-carrying
    /// `UpdateSla` has been applied for it.
    pub fn share_of(&self, tenant: TenantId) -> Option<u64> {
        self.shares.get(&tenant).copied()
    }

    /// Every explicitly recorded capacity share, ascending by tenant.
    pub fn shares(&self) -> Vec<(TenantId, u64)> {
        self.shares.iter().map(|(&t, &s)| (t, s)).collect()
    }

    /// The sum of every explicitly recorded share, kept as a running
    /// total.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The fleet's total capacity in integer IOPS: `server_capacity ×
    /// servers`, the ceiling explicit shares must stay within.
    pub fn fleet_capacity(&self) -> u64 {
        self.placer.server_capacity() * self.servers as u64
    }

    /// Every epoch ever logged, in application order — the monotonicity
    /// witness: per tenant, entries are strictly increasing.
    pub fn epoch_log(&self) -> &[(TenantId, u64)] {
        &self.epoch_log
    }

    /// Applies one command at `now`, returning its decision. Duplicate
    /// ids replay the cached decision without touching state.
    pub fn apply(&mut self, request: &ControlRequest, now: SimTime) -> ControlResponse {
        if let Some(cached) = self.applied.get(&request.id) {
            self.stats.replayed += 1;
            return cached.clone();
        }
        let outcome = if request.version != PROTOCOL_VERSION {
            Err(ControlError::VersionMismatch {
                got: request.version,
                want: PROTOCOL_VERSION,
            })
        } else {
            self.dispatch(&request.body, now)
        };
        match outcome {
            Ok(_) => self.stats.applied += 1,
            Err(_) => self.stats.rejected += 1,
        }
        let response = ControlResponse {
            id: request.id,
            outcome,
        };
        self.applied.insert(request.id, response.clone());
        response
    }

    fn dispatch(&mut self, body: &CommandBody, now: SimTime) -> Result<Ack, ControlError> {
        match body {
            CommandBody::AddTenant { tenant, workload } => self.add_tenant(*tenant, workload),
            CommandBody::RemoveTenant {
                tenant,
                expect_epoch,
            } => self.remove_tenant(*tenant, *expect_epoch),
            CommandBody::UpdateSla {
                tenant,
                fraction,
                deadline,
                expect_epoch,
                share,
            } => self.update_sla(*tenant, *fraction, *deadline, *expect_epoch, *share),
            CommandBody::DrainTenant {
                tenant,
                expect_epoch,
            } => self.drain_tenant(*tenant, *expect_epoch),
            CommandBody::NodeDown { node } => self.node_down(*node, now),
            CommandBody::NodeUp { node } => self.node_up(*node, now),
        }
    }

    /// Debug builds recompute the running committed-share total from
    /// scratch and compare.
    fn debug_check_committed(&self) {
        debug_assert_eq!(
            self.committed,
            self.shares.values().sum::<u64>(),
            "running committed-share total drifted"
        );
    }

    fn add_tenant(&mut self, tenant: TenantId, workload: &Workload) -> Result<Ack, ControlError> {
        if self.tenants.contains_key(&tenant) {
            return Err(ControlError::DuplicateTenant { tenant });
        }
        // A re-added tenant resumes past its retired incarnation's epoch.
        let epoch = self.retired.get(&tenant).map_or(0, |last| last + 1);
        let t = FleetTenant::with_epoch(tenant, workload.clone(), epoch);
        let node = self
            .placer
            .place_into(&mut self.placement, &t, &mut self.cache, &self.pool)?;
        self.tenants.insert(tenant, t);
        self.slas.insert(tenant, self.placer.target());
        self.epoch_log.push((tenant, epoch));
        Ok(Ack {
            epoch: Some(epoch),
            detail: AckDetail::Placed { node },
        })
    }

    fn remove_tenant(&mut self, tenant: TenantId, expect: u64) -> Result<Ack, ControlError> {
        let t = fence(&self.tenants, tenant, expect)?;
        let from = self.placer.evict(&mut self.placement, t);
        self.cache.invalidate(tenant);
        for cache in self.sla_caches.values_mut() {
            cache.invalidate(tenant);
        }
        self.retired.insert(tenant, t.epoch());
        self.tenants.remove(&tenant);
        self.slas.remove(&tenant);
        if let Some(share) = self.shares.remove(&tenant) {
            self.committed -= share;
        }
        self.debug_check_committed();
        Ok(Ack {
            epoch: None,
            detail: AckDetail::Removed { from },
        })
    }

    fn update_sla(
        &mut self,
        tenant: TenantId,
        fraction: f64,
        deadline: SimDuration,
        expect: u64,
        share: Option<u64>,
    ) -> Result<Ack, ControlError> {
        if !(fraction.is_finite() && fraction > 0.0 && fraction <= 1.0) {
            return Err(ControlError::BadSla { fraction });
        }
        if deadline.is_zero() {
            return Err(ControlError::BadDeadline);
        }
        fence(&self.tenants, tenant, expect)?;
        // This tenant's own prior share, released by the update.
        let prior = self.shares.get(&tenant).copied().unwrap_or(0);
        if let Some(asked) = share {
            if asked == 0 {
                return Err(ControlError::BadShare);
            }
            // The fleet-capacity invariant: explicit shares (with this
            // tenant's own prior share released) must fit the fleet.
            let available = self.fleet_capacity().saturating_sub(self.committed - prior);
            if asked > available {
                return Err(ControlError::ShareOverCommit { asked, available });
            }
        }
        let t = self.tenants.get_mut(&tenant).expect("fenced above");
        t.bump_epoch();
        let epoch = t.epoch();
        self.epoch_log.push((tenant, epoch));
        self.slas.insert(tenant, QosTarget::new(fraction, deadline));
        if let Some(asked) = share {
            self.shares.insert(tenant, asked);
            self.committed = self.committed - prior + asked;
            self.debug_check_committed();
        }
        // Quote Cmin(f, δ) under the renegotiated target. The fleet
        // cache answers when δ matches the fleet deadline; other
        // deadlines get their own memoized cache. The epoch bump keeps
        // the tenant's cached quotes: they depend on its workload alone.
        let t = &self.tenants[&tenant];
        let cmin = if deadline == self.cache.deadline() {
            self.cache.quote_int(t, fraction)
        } else {
            self.sla_caches
                .entry(deadline.as_nanos())
                .or_insert_with(|| QuoteCache::new(deadline))
                .quote_int(t, fraction)
        };
        Ok(Ack {
            epoch: Some(epoch),
            detail: AckDetail::SlaUpdated { cmin },
        })
    }

    fn drain_tenant(&mut self, tenant: TenantId, expect: u64) -> Result<Ack, ControlError> {
        let t = fence(&self.tenants, tenant, expect)?;
        let Some(from) = self.placement.server_of(tenant) else {
            return Err(ControlError::NotPlaced { tenant });
        };
        self.placer.evict(&mut self.placement, t);
        let to = self.placer.place_avoiding(
            &mut self.placement,
            t,
            &[from],
            &mut self.cache,
            &self.pool,
        )?;
        Ok(Ack {
            epoch: Some(t.epoch()),
            detail: AckDetail::Drained { from, to },
        })
    }

    fn node_down(&mut self, node: usize, now: SimTime) -> Result<Ack, ControlError> {
        // Only the node's residents move, so only they are handed over.
        let residents: Vec<FleetTenant> = self
            .placement
            .bins()
            .get(node)
            .map_or(&[][..], |bin| bin.members())
            .iter()
            .map(|id| self.tenants[id].clone())
            .collect();
        let moved = self.placer.replan_node_down(
            &mut self.placement,
            &residents,
            node,
            &mut self.cache,
            &self.pool,
        )?;
        self.guard.on_down(node, now);
        Ok(Ack {
            epoch: None,
            detail: AckDetail::NodeState {
                node,
                down: true,
                moved: moved.placed,
            },
        })
    }

    fn node_up(&mut self, node: usize, now: SimTime) -> Result<Ack, ControlError> {
        self.placer.mark_node_up(&mut self.placement, node)?;
        let moved = if self.guard.allows_refill(node, now) {
            self.refill()
        } else {
            self.stats.suppressed_refills += 1;
            0
        };
        Ok(Ack {
            epoch: None,
            detail: AckDetail::NodeState {
                node,
                down: false,
                moved,
            },
        })
    }

    /// Offers every unplaced tenant to the fleet again, ascending by id.
    /// Returns how many found a home.
    fn refill(&mut self) -> u64 {
        let mut waiting: Vec<TenantId> = self.placement.unplaced().to_vec();
        waiting.sort_unstable();
        let mut refilled = 0;
        for id in waiting {
            let Some(t) = self.tenants.get(&id) else {
                continue;
            };
            if let Ok(Some(_)) =
                self.placer
                    .place_into(&mut self.placement, t, &mut self.cache, &self.pool)
            {
                refilled += 1;
            }
        }
        self.stats.refilled += refilled;
        refilled
    }

    /// The standalone quotes of every surviving tenant as served by the
    /// plane's **long-lived** cache, ascending by id — the incremental
    /// half of the convergence check.
    pub fn converged_quotes(&mut self) -> Vec<(TenantId, u64)> {
        let fraction = self.placer.target().fraction();
        self.tenants
            .values()
            .map(|t| (t.id(), self.cache.quote_int(t, fraction)))
            .collect()
    }

    /// The standalone quotes of a **from-scratch** placement of the
    /// surviving tenant set (fresh cache, same down nodes), ascending by
    /// id — the oracle half of the convergence check. After any command
    /// history these must be bit-identical to
    /// [`converged_quotes`](Self::converged_quotes).
    ///
    /// # Errors
    ///
    /// As [`FleetPlacer::pack_avoiding`].
    pub fn oracle_quotes(&self) -> Result<Vec<(TenantId, u64)>, gqos_core::FleetError> {
        let mut cache = QuoteCache::new(self.placer.target().deadline());
        let tenants: Vec<FleetTenant> = self.tenants.values().cloned().collect();
        let down = self.placement.down_nodes();
        let _ = self
            .placer
            .pack_avoiding(&tenants, self.servers, &down, &mut cache, &self.pool)?;
        let fraction = self.placer.target().fraction();
        Ok(tenants
            .iter()
            .map(|t| (t.id(), cache.quote_int(t, fraction)))
            .collect())
    }

    /// A deterministic multi-line rendering of the plane's end state —
    /// the byte-identity witness compared across worker counts.
    pub fn summary(&mut self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let stats = self.stats;
        let _ = writeln!(
            out,
            "plane applied={} replayed={} rejected={} refilled={} suppressed={}",
            stats.applied, stats.replayed, stats.rejected, stats.refilled, stats.suppressed_refills
        );
        let _ = writeln!(
            out,
            "placement servers={} used={} down={:?} unplaced={}",
            self.placement.servers(),
            self.placement.servers_used(),
            self.placement.down_nodes(),
            self.placement.unplaced().len()
        );
        for (id, quote) in self.converged_quotes() {
            let epoch = self.epoch_of(id).unwrap_or(0);
            let node = self
                .placement
                .server_of(id)
                .map_or_else(|| "-".to_string(), |n| n.to_string());
            // Shares render only when explicitly recorded, so share-free
            // histories keep their pre-ledger summary bytes.
            let share = self
                .share_of(id)
                .map_or_else(String::new, |s| format!(" share={s}"));
            let _ = writeln!(out, "{id} epoch={epoch} node={node} cmin={quote}{share}");
        }
        out
    }
}

/// Fences `expect` against the tenant's current epoch. A free function
/// over the registry, so the fenced tenant stays borrowed while the
/// placement and caches are mutated.
fn fence(
    tenants: &BTreeMap<TenantId, FleetTenant>,
    tenant: TenantId,
    expect: u64,
) -> Result<&FleetTenant, ControlError> {
    let t = tenants
        .get(&tenant)
        .ok_or(ControlError::UnknownTenant { tenant })?;
    if t.epoch() != expect {
        return Err(ControlError::StaleEpoch {
            tenant,
            expect,
            current: t.epoch(),
        });
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_trace::SimTime;

    fn workload(seed: u64) -> Workload {
        Workload::from_arrivals((0..60).map(|i| SimTime::from_millis(i * 7 + seed)))
    }

    fn plane() -> ControlPlane {
        let target = QosTarget::new(0.9, SimDuration::from_millis(20));
        let placer = FleetPlacer::new(target, gqos_trace::Iops::new(400.0));
        ControlPlane::new(placer, 4, WorkerPool::serial()).unwrap()
    }

    fn add(id: u64, tenant: usize) -> ControlRequest {
        ControlRequest::new(
            id,
            CommandBody::AddTenant {
                tenant: TenantId::new(tenant),
                workload: workload(tenant as u64),
            },
        )
    }

    #[test]
    fn duplicate_delivery_replays_the_cached_decision() {
        let mut p = plane();
        let first = p.apply(&add(1, 0), SimTime::ZERO);
        assert!(first.outcome.is_ok());
        let replay = p.apply(&add(1, 0), SimTime::from_millis(5));
        assert_eq!(first, replay, "a retried command must not double-apply");
        assert_eq!(p.stats().applied, 1);
        assert_eq!(p.stats().replayed, 1);
        assert_eq!(p.tenants().len(), 1);
    }

    #[test]
    fn stale_epoch_commands_are_rejected_with_both_epochs() {
        let mut p = plane();
        p.apply(&add(1, 0), SimTime::ZERO);
        let bump = ControlRequest::new(
            2,
            CommandBody::UpdateSla {
                tenant: TenantId::new(0),
                fraction: 0.95,
                deadline: SimDuration::from_millis(20),
                expect_epoch: 0,
                share: None,
            },
        );
        assert!(p.apply(&bump, SimTime::ZERO).outcome.is_ok());
        assert_eq!(p.epoch_of(TenantId::new(0)), Some(1));
        // The same renegotiation drafted against the old epoch: fenced.
        let stale = ControlRequest::new(
            3,
            CommandBody::UpdateSla {
                tenant: TenantId::new(0),
                fraction: 0.8,
                deadline: SimDuration::from_millis(20),
                expect_epoch: 0,
                share: None,
            },
        );
        let out = p.apply(&stale, SimTime::ZERO);
        assert_eq!(
            out.outcome,
            Err(ControlError::StaleEpoch {
                tenant: TenantId::new(0),
                expect: 0,
                current: 1,
            })
        );
        // The rejection is itself idempotent.
        assert_eq!(p.apply(&stale, SimTime::ZERO), out);
    }

    #[test]
    fn readding_a_removed_tenant_keeps_epochs_monotone() {
        let mut p = plane();
        p.apply(&add(1, 0), SimTime::ZERO);
        let bump = ControlRequest::new(
            2,
            CommandBody::UpdateSla {
                tenant: TenantId::new(0),
                fraction: 0.95,
                deadline: SimDuration::from_millis(20),
                expect_epoch: 0,
                share: None,
            },
        );
        p.apply(&bump, SimTime::ZERO);
        let remove = ControlRequest::new(
            3,
            CommandBody::RemoveTenant {
                tenant: TenantId::new(0),
                expect_epoch: 1,
            },
        );
        assert!(p.apply(&remove, SimTime::ZERO).outcome.is_ok());
        let again = p.apply(&add(4, 0), SimTime::ZERO);
        let Ok(ack) = again.outcome else {
            panic!("re-add rejected: {again:?}");
        };
        assert_eq!(
            ack.epoch,
            Some(2),
            "re-add must resume past the retired epoch"
        );
        let mut last: BTreeMap<TenantId, u64> = BTreeMap::new();
        for &(id, epoch) in p.epoch_log() {
            if let Some(&prev) = last.get(&id) {
                assert!(
                    epoch > prev,
                    "epoch log must be strictly increasing per tenant"
                );
            }
            last.insert(id, epoch);
        }
    }

    #[test]
    fn drain_moves_the_tenant_off_its_bin() {
        let mut p = plane();
        for i in 0..3 {
            p.apply(&add(i as u64 + 1, i), SimTime::ZERO);
        }
        let from = p.placement().server_of(TenantId::new(0)).unwrap();
        let drain = ControlRequest::new(
            10,
            CommandBody::DrainTenant {
                tenant: TenantId::new(0),
                expect_epoch: 0,
            },
        );
        let out = p.apply(&drain, SimTime::ZERO);
        let Ok(Ack {
            detail: AckDetail::Drained { from: f, to },
            ..
        }) = out.outcome
        else {
            panic!("drain rejected: {out:?}");
        };
        assert_eq!(f, from);
        if let Some(to) = to {
            assert_ne!(to, from, "drain target must differ from the vacated bin");
            assert_eq!(p.placement().server_of(TenantId::new(0)), Some(to));
        }
    }

    #[test]
    fn node_down_is_idempotent_and_node_up_waits_out_the_guard() {
        let mut p = plane().with_guard(ReplanGuard::new(SimDuration::from_millis(100)));
        for i in 0..4 {
            p.apply(&add(i as u64 + 1, i), SimTime::ZERO);
        }
        let down = ControlRequest::new(10, CommandBody::NodeDown { node: 0 });
        let first = p.apply(&down, SimTime::from_millis(10));
        assert!(first.outcome.is_ok());
        assert!(p.placement().is_down(0));
        // Same command id: replay. Fresh id, same node: idempotent no-op.
        assert_eq!(p.apply(&down, SimTime::from_millis(11)), first);
        let down2 = ControlRequest::new(11, CommandBody::NodeDown { node: 0 });
        let Ok(ack) = p.apply(&down2, SimTime::from_millis(12)).outcome else {
            panic!("re-down rejected");
        };
        assert_eq!(
            ack.detail,
            AckDetail::NodeState {
                node: 0,
                down: true,
                moved: 0
            }
        );
        // Up too soon: the refill is suppressed by the guard.
        let up = ControlRequest::new(12, CommandBody::NodeUp { node: 0 });
        let Ok(ack) = p.apply(&up, SimTime::from_millis(50)).outcome else {
            panic!("up rejected");
        };
        assert!(!p.placement().is_down(0));
        assert_eq!(p.stats().suppressed_refills, 1);
        assert_eq!(
            ack.detail,
            AckDetail::NodeState {
                node: 0,
                down: false,
                moved: 0
            }
        );
    }

    #[test]
    fn convergence_oracle_matches_after_a_command_history() {
        let mut p = plane();
        for i in 0..4 {
            p.apply(&add(i as u64 + 1, i), SimTime::ZERO);
        }
        p.apply(
            &ControlRequest::new(
                5,
                CommandBody::UpdateSla {
                    tenant: TenantId::new(1),
                    fraction: 0.95,
                    deadline: SimDuration::from_millis(20),
                    expect_epoch: 0,
                    share: None,
                },
            ),
            SimTime::ZERO,
        );
        p.apply(
            &ControlRequest::new(
                6,
                CommandBody::RemoveTenant {
                    tenant: TenantId::new(2),
                    expect_epoch: 0,
                },
            ),
            SimTime::ZERO,
        );
        p.apply(
            &ControlRequest::new(7, CommandBody::NodeDown { node: 1 }),
            SimTime::ZERO,
        );
        let converged = p.converged_quotes();
        let oracle = p.oracle_quotes().unwrap();
        assert_eq!(converged, oracle);
    }

    #[test]
    fn version_mismatch_is_gated_before_state() {
        let mut p = plane();
        let mut req = add(1, 0);
        req.version = 99;
        let out = p.apply(&req, SimTime::ZERO);
        assert_eq!(
            out.outcome,
            Err(ControlError::VersionMismatch { got: 99, want: 1 })
        );
        assert!(p.tenants().is_empty());
    }
}
