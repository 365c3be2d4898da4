//! Multi-tenant shaping: several clients, one shared server.
//!
//! The paper's deployment setting (Section 1): a storage service hosts many
//! rate-controlled clients, each with its own SLA, and must (a) isolate
//! them from each other's demand overruns and (b) decompose each client's
//! own bursts. This module combines both levels:
//!
//! - each tenant gets its own [`RttClassifier`] at its planned `Cmin_i`
//!   and deadline `δ_i` (per-client decomposition), and
//! - the shared server multiplexes all tenants' classes through start-time
//!   fair queueing, primaries weighted by `Cmin_i` and overflows by
//!   `ΔC_i` (cross-client isolation).
//!
//! Provision the server with at least `Σ (Cmin_i + ΔC_i)` — which, after
//! decomposition, is an accurate estimate of what the merged workloads
//! need (Section 4.4).

use std::fmt;

use gqos_fairqueue::{FlowId, Sfq};
use gqos_sim::{Dispatch, Scheduler, ServerId, ServiceClass};
use gqos_trace::{Iops, Request, RequestId, SimDuration, SimTime, Workload};

use crate::rtt::RttClassifier;
use crate::target::Provision;

/// Identifier of a tenant within one [`MultiTenantScheduler`].
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Default, Debug)]
pub struct TenantId(usize);

impl TenantId {
    /// Creates a tenant id from its index.
    pub const fn new(index: usize) -> Self {
        TenantId(index)
    }

    /// The tenant's index.
    pub const fn index(self) -> usize {
        self.0
    }

    /// The service class this tenant's guaranteed requests complete under.
    pub fn primary_class(self) -> ServiceClass {
        ServiceClass::new((self.0 * 2) as u8)
    }

    /// The service class this tenant's overflow requests complete under.
    pub fn overflow_class(self) -> ServiceClass {
        ServiceClass::new((self.0 * 2 + 1) as u8)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// One tenant's shaping configuration.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct TenantConfig {
    /// The tenant's planned provision (`Cmin_i`, `ΔC_i`).
    pub provision: Provision,
    /// The tenant's response-time bound `δ_i`.
    pub deadline: SimDuration,
}

impl TenantConfig {
    /// Creates a config.
    pub fn new(provision: Provision, deadline: SimDuration) -> Self {
        TenantConfig {
            provision,
            deadline,
        }
    }
}

/// Merges per-tenant workloads into one arrival stream, returning the
/// merged workload and the tenant owning each request (indexed by
/// [`RequestId`]).
///
/// # Examples
///
/// ```
/// use gqos_core::merge_tenants;
/// use gqos_trace::{SimTime, Workload};
///
/// let a = Workload::from_arrivals([SimTime::from_millis(1)]);
/// let b = Workload::from_arrivals([SimTime::from_millis(2)]);
/// let (merged, owners) = merge_tenants(&[&a, &b]);
/// assert_eq!(merged.len(), 2);
/// assert_eq!(owners[0].index(), 0);
/// assert_eq!(owners[1].index(), 1);
/// ```
pub fn merge_tenants(workloads: &[&Workload]) -> (Workload, Vec<TenantId>) {
    // Tag each request with its tenant through the block field being
    // irrelevant here: collect (arrival order) pairs then sort stably.
    let mut tagged: Vec<(Request, TenantId)> = Vec::new();
    for (t, w) in workloads.iter().enumerate() {
        for r in w.iter() {
            tagged.push((*r, TenantId::new(t)));
        }
    }
    tagged.sort_by_key(|(r, _)| r.arrival);
    let owners: Vec<TenantId> = tagged.iter().map(|&(_, t)| t).collect();
    let merged = Workload::from_requests(tagged.into_iter().map(|(r, _)| r));
    (merged, owners)
}

/// The two-level multi-tenant scheduler.
///
/// Drive it with the exact workload returned by [`merge_tenants`] — request
/// identities index the ownership table.
///
/// Completion classes encode `(tenant, class)` as
/// [`TenantId::primary_class`] / [`TenantId::overflow_class`], so a
/// [`RunReport`](gqos_sim::RunReport) yields per-tenant statistics via
/// `stats_for`.
///
/// # Examples
///
/// ```
/// use gqos_core::{merge_tenants, MultiTenantScheduler, Provision, TenantConfig, TenantId};
/// use gqos_sim::{simulate, FixedRateServer};
/// use gqos_trace::{Iops, SimDuration, SimTime, Workload};
///
/// let a = Workload::from_arrivals(vec![SimTime::ZERO; 4]);
/// let b = Workload::from_arrivals(vec![SimTime::from_millis(5); 4]);
/// let (merged, owners) = merge_tenants(&[&a, &b]);
/// let config = TenantConfig::new(
///     Provision::new(Iops::new(200.0), Iops::new(50.0)),
///     SimDuration::from_millis(20),
/// );
/// let scheduler = MultiTenantScheduler::new(vec![config, config], owners);
/// let report = simulate(&merged, scheduler, FixedRateServer::new(Iops::new(500.0)));
/// assert_eq!(report.completed(), 8);
/// assert!(report.completed_in(TenantId::new(0).primary_class()) > 0);
/// ```
pub struct MultiTenantScheduler {
    tenants: Vec<TenantState>,
    owners: Vec<TenantId>,
    /// One flow per (tenant, class): flow `2i` is tenant `i`'s primary
    /// class at weight `Cmin_i`, flow `2i + 1` its overflow class at
    /// weight `ΔC_i`. A tenant's idle class donates its share to everyone.
    flows: Sfq,
}

struct TenantState {
    config: TenantConfig,
    rtt: RttClassifier,
}

impl MultiTenantScheduler {
    /// Creates a scheduler for the given tenants and ownership table
    /// (from [`merge_tenants`]).
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty, more than 127 tenants are configured
    /// (class encoding limit), any owner index is out of range, or any
    /// tenant's RTT bound `⌊Cmin·δ⌋` is zero.
    pub fn new(configs: Vec<TenantConfig>, owners: Vec<TenantId>) -> Self {
        assert!(!configs.is_empty(), "at least one tenant is required");
        assert!(
            configs.len() <= 127,
            "at most 127 tenants are supported (class encoding)"
        );
        assert!(
            owners.iter().all(|t| t.index() < configs.len()),
            "ownership table references an unknown tenant"
        );
        let weights: Vec<f64> = configs
            .iter()
            .flat_map(|c| [c.provision.cmin().get(), c.provision.delta_c().get()])
            .collect();
        let flows = Sfq::new(&weights);
        let tenants = configs
            .into_iter()
            .map(|config| TenantState {
                rtt: RttClassifier::new(config.provision.cmin(), config.deadline),
                config,
            })
            .collect();
        MultiTenantScheduler {
            tenants,
            owners,
            flows,
        }
    }

    /// Number of tenants.
    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }

    /// The configuration of one tenant.
    pub fn config(&self, tenant: TenantId) -> TenantConfig {
        self.tenants[tenant.index()].config
    }

    /// The total capacity the tenants' provisions add up to — what the
    /// shared server should be provisioned with.
    pub fn required_capacity(&self) -> Iops {
        Iops::new(
            self.tenants
                .iter()
                .map(|t| t.config.provision.total().get())
                .sum(),
        )
    }

    fn owner_of(&self, id: RequestId) -> TenantId {
        *self
            .owners
            .get(id.as_usize())
            .expect("request outside the merged workload")
    }
}

impl Scheduler for MultiTenantScheduler {
    fn on_arrival(&mut self, request: Request, _now: SimTime) {
        let tenant = self.owner_of(request.id);
        let t = tenant.index();
        let class = self.tenants[t].rtt.classify();
        let leaf = usize::from(class != ServiceClass::PRIMARY);
        self.flows.enqueue(FlowId::new(t * 2 + leaf), request);
    }

    fn next_for(&mut self, _server: ServerId, _now: SimTime) -> Dispatch {
        match self.flows.dequeue() {
            Some((flow, request)) => {
                let tenant = TenantId::new(flow.index() / 2);
                let class = if flow.index() % 2 == 0 {
                    tenant.primary_class()
                } else {
                    tenant.overflow_class()
                };
                Dispatch::Serve(request, class)
            }
            None => Dispatch::Idle,
        }
    }

    fn on_completion(&mut self, _request: &Request, class: ServiceClass, _now: SimTime) {
        if class.index().is_multiple_of(2) {
            let tenant = (class.index() / 2) as usize;
            self.tenants[tenant].rtt.primary_departed();
        }
    }

    fn pending(&self) -> usize {
        self.flows.len()
    }
}

impl fmt::Debug for MultiTenantScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiTenantScheduler")
            .field("tenants", &self.tenants.len())
            .field("pending", &self.pending())
            .finish_non_exhaustive()
    }
}

impl fmt::Display for MultiTenantScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "multi-tenant shaper ({} tenants, {} pending, {:.0} IOPS required)",
            self.tenants.len(),
            self.pending(),
            self.required_capacity().get()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_sim::{simulate, FixedRateServer, RunReport};

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn config(cmin: f64, delta: f64, deadline_ms: u64) -> TenantConfig {
        TenantConfig::new(
            Provision::new(Iops::new(cmin), Iops::new(delta)),
            dms(deadline_ms),
        )
    }

    fn run(workloads: &[&Workload], configs: Vec<TenantConfig>, capacity: f64) -> RunReport {
        let (merged, owners) = merge_tenants(workloads);
        let scheduler = MultiTenantScheduler::new(configs, owners);
        simulate(
            &merged,
            scheduler,
            FixedRateServer::new(Iops::new(capacity)),
        )
    }

    #[test]
    fn merge_tenants_tags_by_origin() {
        let a = Workload::from_arrivals([ms(3), ms(1)]);
        let b = Workload::from_arrivals([ms(2)]);
        let (merged, owners) = merge_tenants(&[&a, &b]);
        assert_eq!(merged.len(), 3);
        // Sorted arrivals: 1 (a), 2 (b), 3 (a).
        assert_eq!(
            owners,
            vec![TenantId::new(0), TenantId::new(1), TenantId::new(0)]
        );
    }

    #[test]
    fn class_encoding_round_trips() {
        let t = TenantId::new(3);
        assert_eq!(t.primary_class().index(), 6);
        assert_eq!(t.overflow_class().index(), 7);
        assert_eq!(t.to_string(), "tenant3");
        assert_eq!(t.index(), 3);
    }

    #[test]
    fn smooth_tenants_all_meet_their_deadlines() {
        let a = Workload::from_arrivals((0..100).map(|i| ms(i * 10)));
        let b = Workload::from_arrivals((0..100).map(|i| ms(i * 10 + 5)));
        let cfg = config(200.0, 20.0, 20);
        let report = run(&[&a, &b], vec![cfg, cfg], 440.0);
        assert_eq!(report.completed(), 200);
        for t in [TenantId::new(0), TenantId::new(1)] {
            let stats = report.stats_for(t.primary_class());
            assert_eq!(stats.len(), 100, "{t} lost requests to overflow");
            assert!(stats.max().unwrap() <= dms(20), "{t} missed deadlines");
        }
    }

    #[test]
    fn bursty_tenant_cannot_hurt_its_neighbour() {
        // Tenant 0: smooth 100 IOPS. Tenant 1: an overwhelming burst.
        let a = Workload::from_arrivals((0..200).map(|i| ms(i * 10)));
        let mut burst: Vec<SimTime> = vec![ms(500); 300];
        burst.extend((0..50).map(|i| ms(i * 40)));
        let b = Workload::from_arrivals(burst);
        let cfg_a = config(200.0, 20.0, 20);
        let cfg_b = config(200.0, 20.0, 20);
        let report = run(&[&a, &b], vec![cfg_a, cfg_b], 440.0);
        let t0 = report.stats_for(TenantId::new(0).primary_class());
        assert_eq!(t0.len(), 200, "tenant 0 requests diverted");
        assert!(
            t0.fraction_within(dms(20)) > 0.99,
            "tenant 0 hurt by tenant 1's burst: {:.3}",
            t0.fraction_within(dms(20))
        );
        // Tenant 1's own burst went to its overflow class instead.
        assert!(report.completed_in(TenantId::new(1).overflow_class()) > 100);
    }

    #[test]
    fn per_tenant_deadlines_can_differ() {
        let a = Workload::from_arrivals(vec![ms(0); 4]);
        let b = Workload::from_arrivals(vec![ms(0); 4]);
        // Tenant 0: tight 10 ms bound (maxQ1 = 2); tenant 1: loose 100 ms
        // (maxQ1 = 20).
        let report = run(
            &[&a, &b],
            vec![config(200.0, 20.0, 10), config(200.0, 20.0, 100)],
            440.0,
        );
        assert_eq!(report.completed_in(TenantId::new(0).primary_class()), 2);
        assert_eq!(report.completed_in(TenantId::new(0).overflow_class()), 2);
        assert_eq!(report.completed_in(TenantId::new(1).primary_class()), 4);
    }

    #[test]
    fn required_capacity_sums_provisions() {
        let s = MultiTenantScheduler::new(
            vec![config(200.0, 20.0, 20), config(300.0, 30.0, 20)],
            vec![],
        );
        assert_eq!(s.required_capacity().get(), 550.0);
        assert_eq!(s.tenants(), 2);
        assert_eq!(s.config(TenantId::new(1)).provision.cmin().get(), 300.0);
        assert!(s.to_string().contains("2 tenants"));
        assert!(format!("{s:?}").contains("MultiTenantScheduler"));
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn empty_tenants_rejected() {
        let _ = MultiTenantScheduler::new(vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "unknown tenant")]
    fn owner_table_validated() {
        let _ = MultiTenantScheduler::new(vec![config(100.0, 10.0, 20)], vec![TenantId::new(5)]);
    }

    #[test]
    #[should_panic(expected = "outside the merged workload")]
    fn foreign_workload_detected() {
        let a = Workload::from_arrivals([ms(0)]);
        let (_, owners) = merge_tenants(&[&a]);
        let scheduler = MultiTenantScheduler::new(vec![config(100.0, 10.0, 20)], owners);
        // A two-request workload was never merged: the second id is unknown.
        let w = Workload::from_arrivals([ms(0), ms(1)]);
        let _ = simulate(&w, scheduler, FixedRateServer::new(Iops::new(100.0)));
    }
}
