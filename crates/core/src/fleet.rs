//! Fleet-scale placement: packing thousands of tenants onto simulated
//! servers with the capacity planner as the costing kernel.
//!
//! The paper prices one tenant (or one co-located set) at a time; the
//! ROADMAP's north star is millions of users. A naive bin-packer would
//! call [`CapacityPlanner::min_capacity`] `O(tenants × servers × sweep)`
//! times — minutes for a thousand tenants. This module makes fleet
//! placement sub-second with three ingredients:
//!
//! 1. **[`QuoteCache`]** — each tenant's standalone overflow curve is
//!    computed once over the doubling [`SeedCurve`] grid and its
//!    `Cmin(f, δ)` quotes are memoized by `(workload epoch, miss budget)`;
//!    a quote is invalidated only when the tenant's workload changes. An
//!    SLA change fences the tenant's epoch but keeps its quotes, because
//!    a quote depends on nothing but the workload, δ and f. Cached quotes
//!    are **bit-identical** to the cold planner's: both are the unique
//!    minimal integer capacity meeting the miss budget, and every probe
//!    answers the same exact feasibility question.
//! 2. **Incremental consolidation ([`ServerBin`])** — each server keeps
//!    its residents' *merged* arrival column; "tenant T joins server S"
//!    is a zero-allocation feasibility probe streamed over the two sorted
//!    columns ([`merged_within_budget`]), and committing an add/remove is
//!    a linear multiset merge/subtract that marks the cached consolidated
//!    quote stale; the next quote read re-resolves it by a bisection
//!    warm-started from the previous value, so a burst of commits pays
//!    for one search, not one per commit. Equal arrival instants are
//!    interchangeable to the admit kernel, so the delta-maintained column
//!    equals the from-scratch merge element for element — the lazily
//!    re-resolved quote is exactly the cold quote (enforced by the
//!    `fleet_props` differential suite).
//! 3. **[`FleetPlacer`]** — a first-fit-decreasing packer with *bin
//!    retirement*: tenants are offered to the open bins in server-index
//!    order, and an occupied bin that rejects a tenant ahead of the
//!    chosen one is closed to the rest of the pass. A whole pack
//!    therefore issues at most `tenants + servers` decisive probes
//!    instead of `tenants × servers`. Probes run as a serial scout on
//!    the front candidate plus fixed-width rounds fanned out over a
//!    [`WorkerPool`]; widths, candidate order, and positional assembly
//!    are all independent of the pool, so placements are byte-identical
//!    across 1/2/4/8 threads.
//!    [`replan_degraded`](FleetPlacer::replan_degraded) re-places only
//!    the affected server's tenants when a
//!    [`DegradationController`](crate::DegradationController) drops a
//!    rung.
//!
//! # Examples
//!
//! ```
//! use gqos_core::{FleetPlacer, FleetTenant, QosTarget, QuoteCache, TenantId};
//! use gqos_parallel::WorkerPool;
//! use gqos_trace::{Iops, SimDuration, SimTime, Workload};
//!
//! let deadline = SimDuration::from_millis(10);
//! let tenants: Vec<FleetTenant> = (0..6)
//!     .map(|i| {
//!         let w = Workload::from_arrivals(vec![SimTime::from_millis(100 * i); 4]);
//!         FleetTenant::new(TenantId::new(i as usize), w)
//!     })
//!     .collect();
//! let placer = FleetPlacer::new(QosTarget::new(0.9, deadline), Iops::new(900.0));
//! let mut cache = QuoteCache::new(deadline);
//! let pool = WorkerPool::new(4);
//! let placement = placer.pack(&tenants, 4, &mut cache, &pool).unwrap();
//! assert!(placement.unplaced().is_empty());
//! assert!(placement.servers_used() <= 4);
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use gqos_parallel::WorkerPool;
use gqos_trace::{Iops, SimDuration, Workload};

use crate::kernel::{merged_within_budget, within_miss_budget_ns};
use crate::planner::{capacity_floor, miss_budget, resolve_cmin_ns, CapacityPlanner, SeedCurve};
use crate::target::QosTarget;
use crate::tenant::TenantId;

/// A fleet placement request was impossible or malformed.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum FleetError {
    /// The fleet has zero servers: nothing can be placed.
    NoServers,
    /// The quote cache was built for a different deadline than the
    /// placer's target — its memoized quotes would answer the wrong
    /// question.
    DeadlineMismatch {
        /// The cache's deadline.
        cache: SimDuration,
        /// The placer's target deadline.
        target: SimDuration,
    },
    /// A replan named a server index outside the placement.
    UnknownServer {
        /// The offending server index.
        node: usize,
        /// The number of servers in the placement.
        servers: usize,
    },
    /// A degradation factor outside `(0, 1]`.
    BadFactor {
        /// The offending factor.
        value: f64,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FleetError::NoServers => f.write_str("fleet placement requires at least one server"),
            FleetError::DeadlineMismatch { cache, target } => write!(
                f,
                "quote cache deadline {cache} differs from target deadline {target}"
            ),
            FleetError::UnknownServer { node, servers } => {
                write!(f, "server {node} out of range (fleet has {servers})")
            }
            FleetError::BadFactor { value } => {
                write!(f, "degradation factor must be in (0, 1]: got {value}")
            }
        }
    }
}

impl Error for FleetError {}

/// One tenant of the fleet: an identity, its workload profile, and an
/// **epoch** that advances whenever the workload or SLA changes.
///
/// The epoch fences commands. The [`QuoteCache`] keys on a narrower
/// value: the epoch at which the current workload was installed. Cached
/// curves and quotes are keyed by `(tenant, workload epoch)`, so a stale
/// workload can never answer for a changed one, while an SLA-only
/// [`bump_epoch`](Self::bump_epoch) keeps every quote.
#[derive(Clone, Debug)]
pub struct FleetTenant {
    id: TenantId,
    workload: Workload,
    epoch: u64,
    /// The value of `epoch` when `workload` was installed.
    workload_epoch: u64,
}

impl FleetTenant {
    /// Creates a tenant at epoch 0. Fleet operations assume ids are
    /// unique within one fleet.
    pub fn new(id: TenantId, workload: Workload) -> Self {
        FleetTenant::with_epoch(id, workload, 0)
    }

    /// Creates a tenant at an explicit `epoch` — the re-admission path:
    /// a control plane re-adding a previously removed tenant must resume
    /// at its last fenced epoch (or later) so stale retried commands and
    /// stale cached quotes from the earlier incarnation stay dead.
    pub fn with_epoch(id: TenantId, workload: Workload, epoch: u64) -> Self {
        FleetTenant {
            id,
            workload,
            epoch,
            workload_epoch: epoch,
        }
    }

    /// The tenant's identity.
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// The tenant's workload profile.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The fencing epoch: bumped by every workload or SLA change.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Replaces the workload profile and advances the epoch, invalidating
    /// every cached curve and quote for this tenant.
    pub fn set_workload(&mut self, workload: Workload) {
        self.workload = workload;
        self.epoch += 1;
        self.workload_epoch = self.epoch;
    }

    /// Advances the epoch without touching the workload — the hook for
    /// SLA changes tracked outside the profile. Cached quotes survive it:
    /// they depend on the workload alone.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The tenant's sorted arrival column in nanoseconds.
    fn col(&self) -> &[u64] {
        self.workload.arrival_column().nanos()
    }
}

/// Per-tenant seed curve and `Cmin(f, δ)` quote memo keyed by
/// `(tenant, workload epoch, miss budget)`, at one fixed deadline `δ`.
///
/// The first quote for a tenant builds its [`SeedCurve`] (one fused
/// overflow pass over the doubling grid) and resolves the bracket by wide
/// bisection; every further fraction reuses the curve, and a fraction
/// whose integer miss budget was already quoted returns the memoized
/// integer with no probe at all. A quote is invalidated **only** by a
/// workload change ([`FleetTenant::set_workload`]) — the cache compares
/// workload epochs on every access and rebuilds the entry when they
/// differ. An SLA-only [`FleetTenant::bump_epoch`] moves the fencing
/// epoch and keeps the entry. Keying by budget bounds each entry's memo
/// at `n + 1` quotes for an `n`-request workload.
///
/// Cached quotes are bit-identical to the cold
/// [`CapacityPlanner::min_capacity`]: both paths return the unique
/// minimal integer capacity whose overflow count meets the miss budget.
#[derive(Clone, Debug)]
pub struct QuoteCache {
    deadline: SimDuration,
    entries: BTreeMap<TenantId, CacheEntry>,
    hits: u64,
    misses: u64,
}

#[derive(Clone, Debug)]
struct CacheEntry {
    workload_epoch: u64,
    seed: SeedCurve,
    /// `miss budget → Cmin`. A quote depends on the fraction only through
    /// `miss_budget(n, f)`, so two fractions share a key exactly when the
    /// planner would search for the same capacity.
    quotes: BTreeMap<u64, u64>,
}

impl QuoteCache {
    /// An empty cache for quotes at `deadline`.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero.
    pub fn new(deadline: SimDuration) -> Self {
        assert!(!deadline.is_zero(), "deadline must be positive");
        QuoteCache {
            deadline,
            entries: BTreeMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The deadline all quotes answer for.
    pub fn deadline(&self) -> SimDuration {
        self.deadline
    }

    /// `Cmin(fraction, δ)` for the tenant — memoized, workload-checked,
    /// and bit-identical to [`CapacityPlanner::min_capacity`].
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    pub fn quote(&mut self, tenant: &FleetTenant, fraction: f64) -> Iops {
        Iops::new(self.quote_int(tenant, fraction) as f64)
    }

    /// [`quote`](Self::quote) as the raw integer IOPS the searches work
    /// in.
    pub fn quote_int(&mut self, tenant: &FleetTenant, fraction: f64) -> u64 {
        assert!(
            fraction.is_finite() && fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]: {fraction}"
        );
        let deadline = self.deadline;
        let entry = self
            .entries
            .entry(tenant.id)
            .and_modify(|e| {
                if e.workload_epoch != tenant.workload_epoch {
                    // New workload: every cached curve and quote is stale.
                    e.workload_epoch = tenant.workload_epoch;
                    e.seed = SeedCurve::new(&tenant.workload, deadline);
                    e.quotes.clear();
                }
            })
            .or_insert_with(|| CacheEntry {
                workload_epoch: tenant.workload_epoch,
                seed: SeedCurve::new(&tenant.workload, deadline),
                quotes: BTreeMap::new(),
            });
        let budget = miss_budget(tenant.workload.len() as u64, fraction);
        if let Some(&cmin) = entry.quotes.get(&budget) {
            self.hits += 1;
            return cmin;
        }
        self.misses += 1;
        let (lo, hi) = entry.seed.bracket(budget);
        let cmin = match lo {
            // The domain floor meets the budget: it is Cmin by minimality.
            None => hi,
            Some(lo) => resolve_cmin_ns(tenant.col(), deadline, budget, lo, hi),
        };
        entry.quotes.insert(budget, cmin);
        cmin
    }

    /// Prefills the cache for every tenant whose `(workload epoch, miss
    /// budget)` quote is missing, fanning the independent cold searches
    /// out over `pool`. The resulting memo (and every later
    /// [`quote_int`](Self::quote_int)) is identical for any pool width —
    /// each per-tenant search is self-contained and lands in its own
    /// entry. Each computed quote counts as one miss, exactly as if it
    /// had been demanded serially.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    fn warm_batch(&mut self, tenants: &[FleetTenant], fraction: f64, pool: &WorkerPool) {
        assert!(
            fraction.is_finite() && fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]: {fraction}"
        );
        let deadline = self.deadline;
        let missing: Vec<(&FleetTenant, u64)> = tenants
            .iter()
            .map(|t| (t, miss_budget(t.workload.len() as u64, fraction)))
            .filter(|&(t, budget)| match self.entries.get(&t.id) {
                Some(e) => e.workload_epoch != t.workload_epoch || !e.quotes.contains_key(&budget),
                None => true,
            })
            .collect();
        let computed = pool.map(missing, |(t, budget)| {
            let seed = SeedCurve::new(&t.workload, deadline);
            let cmin = match seed.bracket(budget) {
                (None, hi) => hi,
                (Some(lo), hi) => resolve_cmin_ns(t.col(), deadline, budget, lo, hi),
            };
            (t.id, t.workload_epoch, seed, budget, cmin)
        });
        for (id, workload_epoch, seed, budget, cmin) in computed {
            self.misses += 1;
            match self.entries.get_mut(&id) {
                // Same workload: keep the entry's other memoized budgets.
                Some(e) if e.workload_epoch == workload_epoch => {
                    e.quotes.insert(budget, cmin);
                }
                _ => {
                    let mut quotes = BTreeMap::new();
                    quotes.insert(budget, cmin);
                    self.entries.insert(
                        id,
                        CacheEntry {
                            workload_epoch,
                            seed,
                            quotes,
                        },
                    );
                }
            }
        }
    }

    /// Drops a tenant's entry outright (e.g. the tenant left the fleet).
    pub fn invalidate(&mut self, id: TenantId) {
        self.entries.remove(&id);
    }

    /// Number of tenants with a cached entry.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no tenant has been quoted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Memo hits since construction (quotes answered with zero probes).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Memo misses since construction (quotes that ran a bisection).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// One server's resident set: the merged arrival column of its tenants
/// and the cached consolidated quote, maintained incrementally.
///
/// Adding or removing one tenant never re-concatenates the co-located
/// workloads: the column is updated by a linear two-pointer multiset
/// merge/subtract, which marks the cached quote **stale** instead of
/// re-searching on the spot. The next quote read re-resolves it by a
/// bisection **warm-started** from the previous value — so a pack that
/// commits fifteen tenants to a bin pays for one consolidated search,
/// not fifteen. The warm walk brackets in *both* directions — at `f < 1`
/// adding arrivals also grows the miss budget, so the consolidated quote
/// may legitimately decrease. Feasibility is monotone in capacity for
/// any fixed column, so the warm-started search returns the same unique
/// minimal integer as a cold search (pinned by `fleet_props`).
///
/// The quote cell is atomic so a bin stays `Sync` while parallel admit
/// probes hold shared references; a racing re-resolve is benign because
/// every thread computes the identical minimal integer.
#[derive(Debug)]
pub struct ServerBin {
    target: QosTarget,
    col: Vec<u64>,
    members: Vec<TenantId>,
    /// Last resolved consolidated quote; serves as the warm hint while
    /// `stale` is set.
    quote: AtomicU64,
    /// Set by [`add`](Self::add)/[`remove`](Self::remove), cleared by the
    /// next quote read.
    stale: AtomicBool,
}

impl Clone for ServerBin {
    fn clone(&self) -> Self {
        ServerBin {
            target: self.target,
            col: self.col.clone(),
            members: self.members.clone(),
            quote: AtomicU64::new(self.quote.load(Ordering::Relaxed)),
            stale: AtomicBool::new(self.stale.load(Ordering::Relaxed)),
        }
    }
}

impl ServerBin {
    /// An empty bin for `target`; its quote is the domain floor `⌈1/δ⌉`.
    pub fn new(target: QosTarget) -> Self {
        ServerBin {
            target,
            col: Vec::new(),
            members: Vec::new(),
            quote: AtomicU64::new(capacity_floor(target.deadline())),
            stale: AtomicBool::new(false),
        }
    }

    /// The QoS target every resident is consolidated under.
    pub fn target(&self) -> QosTarget {
        self.target
    }

    /// Resident tenant ids, ascending.
    pub fn members(&self) -> &[TenantId] {
        &self.members
    }

    /// Total resident arrivals.
    pub fn len(&self) -> usize {
        self.col.len()
    }

    /// `true` when no tenant is resident.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The merged resident arrival column (sorted nanoseconds).
    pub fn arrivals(&self) -> &[u64] {
        &self.col
    }

    /// The cached consolidated quote: `Cmin(f, δ)` of the merged resident
    /// column — identical to cold-planning the merged workload. If
    /// commits have made the cached value stale, this re-resolves it
    /// first (bisection warm-started from the stale value) and stores the
    /// result, so repeated reads are free.
    pub fn quote(&self) -> Iops {
        Iops::new(self.quote_int() as f64)
    }

    /// [`quote`](Self::quote) as raw integer IOPS.
    pub fn quote_int(&self) -> u64 {
        // Acquire pairs with the Release in `resolve`/`add`/`remove`: a
        // clean flag guarantees the matching quote store is visible.
        if !self.stale.load(Ordering::Acquire) {
            return self.quote.load(Ordering::Relaxed);
        }
        let hint = self.quote.load(Ordering::Relaxed);
        let fresh = hinted_cmin(
            &self.col,
            self.target.deadline(),
            miss_budget(self.col.len() as u64, self.target.fraction()),
            Some(hint),
        );
        self.quote.store(fresh, Ordering::Relaxed);
        self.stale.store(false, Ordering::Release);
        fresh
    }

    /// Would admitting a tenant with column `tenant_col` keep the
    /// consolidated quote within `capacity`? One allocation-free budget
    /// probe streamed over the two sorted columns — the column is never
    /// materialised and the scan aborts as soon as the budget busts.
    fn admits(&self, tenant_col: &[u64], capacity: Iops) -> bool {
        let total = (self.col.len() + tenant_col.len()) as u64;
        let budget = miss_budget(total, self.target.fraction());
        merged_within_budget(
            &self.col,
            tenant_col,
            capacity,
            self.target.deadline(),
            budget,
        )
    }

    /// Commits a tenant: linear multiset merge of the columns; the cached
    /// quote is marked stale and re-resolved lazily on the next read.
    pub fn add(&mut self, id: TenantId, tenant_col: &[u64]) {
        let mut merged = Vec::with_capacity(self.col.len() + tenant_col.len());
        let (mut i, mut j) = (0, 0);
        while i < self.col.len() && j < tenant_col.len() {
            if self.col[i] <= tenant_col[j] {
                merged.push(self.col[i]);
                i += 1;
            } else {
                merged.push(tenant_col[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.col[i..]);
        merged.extend_from_slice(&tenant_col[j..]);
        self.col = merged;
        let at = self.members.partition_point(|&m| m < id);
        self.members.insert(at, id);
        self.stale.store(true, Ordering::Release);
    }

    /// Removes a resident tenant: multiset-subtracts its column (each of
    /// the tenant's arrival values is removed once) and marks the quote
    /// stale for lazy re-resolution. Returns `false` if the tenant was
    /// not resident.
    pub fn remove(&mut self, id: TenantId, tenant_col: &[u64]) -> bool {
        let Ok(at) = self.members.binary_search(&id) else {
            return false;
        };
        self.members.remove(at);
        let mut kept = Vec::with_capacity(self.col.len() - tenant_col.len());
        let mut j = 0;
        for &v in &self.col {
            if j < tenant_col.len() && v == tenant_col[j] {
                j += 1;
            } else {
                kept.push(v);
            }
        }
        debug_assert_eq!(j, tenant_col.len(), "tenant column was not a subset");
        self.col = kept;
        self.stale.store(true, Ordering::Release);
        true
    }
}

/// Warm-started exact `Cmin` search over a raw column: establishes a
/// `(failing lo, meeting hi]` bracket by geometric walk from `hint`
/// (downward when the hint meets, upward when it fails — the consolidated
/// quote can move either way under an add at `f < 1`), then resolves it
/// by wide bisection. Returns the same unique minimal integer capacity as
/// a cold search from the floor; the hint only changes how fast the
/// bracket is found.
fn hinted_cmin(col: &[u64], deadline: SimDuration, budget: u64, hint: Option<u64>) -> u64 {
    let floor = capacity_floor(deadline);
    if col.is_empty() {
        return floor;
    }
    let meets = |c: u64| within_miss_budget_ns(col, Iops::new(c as f64), deadline, budget);
    if meets(floor) {
        return floor;
    }
    let start = hint.unwrap_or(floor).max(floor);
    let mut step = 1u64;
    let (lo, hi) = if start > floor && meets(start) {
        // Hint meets: walk down geometrically until a capacity fails.
        let mut hi = start;
        loop {
            let cand = start.saturating_sub(step).max(floor);
            if meets(cand) {
                hi = cand;
            } else {
                break (cand, hi);
            }
            step = step.saturating_mul(2);
        }
    } else {
        // Hint fails (or is the failing floor): walk up by doubling.
        let mut lo = start;
        loop {
            let cand = start.checked_add(step).expect("capacity search overflow");
            if meets(cand) {
                break (lo, cand);
            }
            lo = cand;
            step = step.checked_mul(2).expect("capacity search overflow");
        }
    };
    resolve_cmin_ns(col, deadline, budget, lo, hi)
}

/// Deterministic counters of one pack or replan: no wall-clock, so
/// experiment output built from them is byte-identical across runs and
/// thread counts.
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct PackStats {
    /// Candidate feasibility probes issued against bins.
    pub probes: u64,
    /// Tenants placed onto a server.
    pub placed: u64,
    /// Tenants that fit on no server.
    pub unplaced: u64,
    /// Quote-cache memo hits observed during the operation.
    pub cache_hits: u64,
    /// Quote-cache memo misses observed during the operation.
    pub cache_misses: u64,
}

/// A fleet assignment: per-server bins, the tenant → server map, and the
/// tenants nothing could host.
#[derive(Clone, Debug)]
pub struct Placement {
    target: QosTarget,
    capacity: u64,
    bins: Vec<ServerBin>,
    factors: Vec<f64>,
    down: Vec<bool>,
    assignment: BTreeMap<TenantId, usize>,
    unplaced: Vec<TenantId>,
    stats: PackStats,
}

impl Placement {
    fn new(target: QosTarget, capacity: u64, servers: usize) -> Self {
        Placement {
            target,
            capacity,
            bins: (0..servers).map(|_| ServerBin::new(target)).collect(),
            factors: vec![1.0; servers],
            down: vec![false; servers],
            assignment: BTreeMap::new(),
            unplaced: Vec::new(),
            stats: PackStats::default(),
        }
    }

    /// The QoS target the fleet is packed under.
    pub fn target(&self) -> QosTarget {
        self.target
    }

    /// Total servers in the fleet (used or not).
    pub fn servers(&self) -> usize {
        self.bins.len()
    }

    /// Servers hosting at least one tenant.
    pub fn servers_used(&self) -> usize {
        self.bins.iter().filter(|b| !b.is_empty()).count()
    }

    /// The per-server bins, by server index.
    pub fn bins(&self) -> &[ServerBin] {
        &self.bins
    }

    /// The server hosting `id`, if placed.
    pub fn server_of(&self, id: TenantId) -> Option<usize> {
        self.assignment.get(&id).copied()
    }

    /// Tenants that fit on no server, in the order they were rejected.
    pub fn unplaced(&self) -> &[TenantId] {
        &self.unplaced
    }

    /// Deterministic counters of the pack that built this placement.
    pub fn stats(&self) -> PackStats {
        self.stats
    }

    /// The server's current degradation factor (1.0 nominal).
    pub fn factor(&self, node: usize) -> f64 {
        self.factors[node]
    }

    /// `true` while the server is marked down
    /// ([`FleetPlacer::replan_node_down`]): no tenant is offered to it.
    pub fn is_down(&self, node: usize) -> bool {
        self.down[node]
    }

    /// The down servers, ascending.
    pub fn down_nodes(&self) -> Vec<usize> {
        (0..self.down.len()).filter(|&n| self.down[n]).collect()
    }

    /// The server's effective capacity: `⌊nominal × factor⌋`, at least 1.
    fn effective_capacity(&self, node: usize) -> u64 {
        (((self.capacity as f64) * self.factors[node]).floor() as u64).max(1)
    }
}

/// The fleet bin-packer: first-fit-decreasing tenant order with bin
/// retirement, planner-exact costing.
///
/// Tenants are ordered by descending standalone quote (ties break on
/// ascending [`TenantId`]); each is offered to the **open** servers in
/// ascending index order through `ServerBin::admits` probes and
/// committed to the first feasible candidate. An *occupied* bin that
/// rejects a tenant ahead of the chosen one is **closed** for the rest
/// of the pass — with decreasing quotes a rejecting bin is essentially
/// full, so re-probing it for every later tenant would buy little and
/// cost a column scan each time. Closing caps the decisive probes of a
/// whole pack at `placed + servers` instead of `tenants × servers`.
/// Empty bins never close: their verdict judges the tenant alone (a
/// standalone misfit), not the bin. The trade is a slightly less
/// aggressive fill than exhaustive first-fit — a closed bin might have
/// admitted a later, smaller tenant — bought deliberately: it is what
/// turns fleet packing from quadratic probe volume into linear.
///
/// Probes run as a serial scout on the front candidate (which almost
/// always admits) plus fixed-width rounds fanned out over the pool when
/// the scout misses. Candidate order, round widths, and positional probe
/// assembly are all independent of the pool, so placements — and the
/// probe counters — are byte-identical across thread counts.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct FleetPlacer {
    target: QosTarget,
    capacity: u64,
}

impl FleetPlacer {
    /// A placer for `target` with `server_capacity` IOPS per server
    /// (truncated to the integer grid the quote searches run on).
    pub fn new(target: QosTarget, server_capacity: Iops) -> Self {
        FleetPlacer {
            target,
            capacity: (server_capacity.get().floor() as u64).max(1),
        }
    }

    /// The QoS target tenants are consolidated under.
    pub fn target(&self) -> QosTarget {
        self.target
    }

    /// Nominal per-server capacity in integer IOPS.
    pub fn server_capacity(&self) -> u64 {
        self.capacity
    }

    /// Packs the fleet onto at most `servers` servers.
    ///
    /// Standalone quotes come from (and warm) `cache`; candidate probes
    /// fan out over `pool`. The result is identical for any pool width.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoServers`] when `servers == 0`;
    /// [`FleetError::DeadlineMismatch`] when the cache answers for a
    /// different deadline.
    pub fn pack(
        &self,
        tenants: &[FleetTenant],
        servers: usize,
        cache: &mut QuoteCache,
        pool: &WorkerPool,
    ) -> Result<Placement, FleetError> {
        self.pack_avoiding(tenants, servers, &[], cache, pool)
    }

    /// [`pack`](Self::pack) with the servers in `down` marked down before
    /// any tenant is offered — the from-scratch placement of a degraded
    /// fleet, and the convergence oracle the control plane's incremental
    /// state is checked against.
    ///
    /// # Errors
    ///
    /// As [`pack`](Self::pack), plus [`FleetError::UnknownServer`] for a
    /// down index outside the fleet.
    pub fn pack_avoiding(
        &self,
        tenants: &[FleetTenant],
        servers: usize,
        down: &[usize],
        cache: &mut QuoteCache,
        pool: &WorkerPool,
    ) -> Result<Placement, FleetError> {
        if servers == 0 {
            return Err(FleetError::NoServers);
        }
        if cache.deadline() != self.target.deadline() {
            return Err(FleetError::DeadlineMismatch {
                cache: cache.deadline(),
                target: self.target.deadline(),
            });
        }
        let mut placement = Placement::new(self.target, self.capacity, servers);
        for &node in down {
            if node >= servers {
                return Err(FleetError::UnknownServer { node, servers });
            }
            placement.down[node] = true;
        }
        let (hits0, misses0) = (cache.hits(), cache.misses());
        // Fan the independent cold standalone searches out over the pool;
        // the ordering pass below then runs entirely on memo hits.
        cache.warm_batch(tenants, self.target.fraction(), pool);
        let order = self.decreasing_order(tenants, cache);
        let mut closed = vec![false; servers];
        for (idx, _) in order {
            let tenant = &tenants[idx];
            self.place_one(&mut placement, tenant.id(), tenant.col(), &mut closed, pool);
        }
        placement.stats.cache_hits = cache.hits() - hits0;
        placement.stats.cache_misses = cache.misses() - misses0;
        Ok(placement)
    }

    /// The naive cold-costing baseline: classic exhaustive first-fit
    /// decreasing, `O(tenants × servers × search)`. Every standalone
    /// quote is a fresh [`CapacityPlanner::min_capacity`] search, and
    /// every candidate — re-probed for every tenant, with no retirement —
    /// is costed by materialising the merged column and running a full
    /// cold consolidated search; every commit re-quotes the bin cold. No
    /// cache, no incremental column, no warm hints, no pool: exactly what
    /// a fleet packer looks like without this module's three ingredients,
    /// and the performance baseline `fleet_bench` and `perf_report`
    /// compare against.
    ///
    /// Because it never retires a bin, its placements may differ from
    /// [`pack`](Self::pack) when a once-rejecting bin would have admitted
    /// a later, smaller tenant; both packers are individually
    /// deterministic and every placement they produce respects the
    /// per-server capacity.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoServers`] when `servers == 0`.
    pub fn pack_naive(
        &self,
        tenants: &[FleetTenant],
        servers: usize,
    ) -> Result<Placement, FleetError> {
        if servers == 0 {
            return Err(FleetError::NoServers);
        }
        let deadline = self.target.deadline();
        let fraction = self.target.fraction();
        let mut placement = Placement::new(self.target, self.capacity, servers);
        let mut order: Vec<(usize, u64)> = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let planner = CapacityPlanner::new(&t.workload, deadline);
                (i, planner.min_capacity(fraction).get() as u64)
            })
            .collect();
        order.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then(tenants[a.0].id().cmp(&tenants[b.0].id()))
        });
        for (idx, _) in order {
            let tenant = &tenants[idx];
            let tcol = tenant.col();
            let mut chosen = None;
            for node in 0..placement.bins.len() {
                let bin = &placement.bins[node];
                let mut merged = Vec::with_capacity(bin.col.len() + tcol.len());
                merged.extend_from_slice(&bin.col);
                merged.extend_from_slice(tcol);
                merged.sort_unstable();
                let cold = cold_cmin(&merged, deadline, fraction);
                placement.stats.probes += 1;
                if cold <= placement.effective_capacity(node) {
                    chosen = Some(node);
                    break;
                }
            }
            match chosen {
                Some(node) => {
                    placement.bins[node].add(tenant.id(), tcol);
                    // Keep the bin's quote cold too: recompute unhinted.
                    let cold = cold_cmin(&placement.bins[node].col, deadline, fraction);
                    placement.bins[node].quote.store(cold, Ordering::Relaxed);
                    placement.bins[node].stale.store(false, Ordering::Release);
                    placement.assignment.insert(tenant.id(), node);
                    placement.stats.placed += 1;
                }
                None => {
                    placement.unplaced.push(tenant.id());
                    placement.stats.unplaced += 1;
                }
            }
        }
        Ok(placement)
    }

    /// Re-places only the tenants of `node` after its capacity degrades
    /// to `factor × nominal` — the online hook for a
    /// [`DegradationController`](crate::DegradationController) rung drop
    /// (pass its [`factor()`](crate::DegradationController::factor)).
    /// Every resident of `node` is evicted, the factor is recorded, and
    /// the evicted tenants re-enter normal candidate selection in
    /// descending-quote order — the degraded server itself may readmit as
    /// many as its reduced capacity carries. Other servers' residents are
    /// never touched. Returns the deterministic counters of the replan.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownServer`] for an out-of-range node,
    /// [`FleetError::BadFactor`] for a factor outside `(0, 1]`,
    /// [`FleetError::DeadlineMismatch`] as in [`pack`](Self::pack).
    pub fn replan_degraded(
        &self,
        placement: &mut Placement,
        tenants: &[FleetTenant],
        node: usize,
        factor: f64,
        cache: &mut QuoteCache,
        pool: &WorkerPool,
    ) -> Result<PackStats, FleetError> {
        if node >= placement.bins.len() {
            return Err(FleetError::UnknownServer {
                node,
                servers: placement.bins.len(),
            });
        }
        if !(factor.is_finite() && factor > 0.0 && factor <= 1.0) {
            return Err(FleetError::BadFactor { value: factor });
        }
        if cache.deadline() != self.target.deadline() {
            return Err(FleetError::DeadlineMismatch {
                cache: cache.deadline(),
                target: self.target.deadline(),
            });
        }
        let (hits0, misses0) = (cache.hits(), cache.misses());
        let stats0 = placement.stats;
        placement.factors[node] = factor;
        let evicted: Vec<TenantId> = placement.bins[node].members().to_vec();
        placement.bins[node] = ServerBin::new(self.target);
        for id in &evicted {
            placement.assignment.remove(id);
        }
        let affected: Vec<&FleetTenant> = tenants
            .iter()
            .filter(|t| evicted.contains(&t.id()))
            .collect();
        let order = self.decreasing_order_of(&affected, cache);
        // Fresh retirement state: the replan judges today's bins, not the
        // rejections recorded while the original pack was still filling.
        let mut closed = vec![false; placement.bins.len()];
        for (idx, _) in order {
            let tenant = affected[idx];
            self.place_one(placement, tenant.id(), tenant.col(), &mut closed, pool);
        }
        Ok(PackStats {
            probes: placement.stats.probes - stats0.probes,
            placed: placement.stats.placed - stats0.placed,
            unplaced: placement.stats.unplaced - stats0.unplaced,
            cache_hits: cache.hits() - hits0,
            cache_misses: cache.misses() - misses0,
        })
    }

    /// Places one tenant into an existing placement — the `AddTenant`
    /// hook of a live control plane. The tenant is offered to the open,
    /// up servers exactly as one [`pack`](Self::pack) step would; if it
    /// was previously recorded unplaced and now fits, the unplaced record
    /// is cleared. Placing an already-placed tenant is a no-op returning
    /// its current server.
    ///
    /// Returns the hosting server, or `None` when no server admits the
    /// tenant (it is recorded unplaced, never dropped).
    ///
    /// # Errors
    ///
    /// [`FleetError::DeadlineMismatch`] as in [`pack`](Self::pack).
    pub fn place_into(
        &self,
        placement: &mut Placement,
        tenant: &FleetTenant,
        cache: &mut QuoteCache,
        pool: &WorkerPool,
    ) -> Result<Option<usize>, FleetError> {
        self.place_avoiding(placement, tenant, &[], cache, pool)
    }

    /// [`place_into`](Self::place_into) with the servers in `avoid`
    /// additionally excluded from candidacy — the `DrainTenant` hook,
    /// where the target must differ from the server being vacated.
    ///
    /// # Errors
    ///
    /// As [`place_into`](Self::place_into), plus
    /// [`FleetError::UnknownServer`] for an avoided index outside the
    /// fleet.
    pub fn place_avoiding(
        &self,
        placement: &mut Placement,
        tenant: &FleetTenant,
        avoid: &[usize],
        cache: &mut QuoteCache,
        pool: &WorkerPool,
    ) -> Result<Option<usize>, FleetError> {
        if cache.deadline() != self.target.deadline() {
            return Err(FleetError::DeadlineMismatch {
                cache: cache.deadline(),
                target: self.target.deadline(),
            });
        }
        for &node in avoid {
            if node >= placement.bins.len() {
                return Err(FleetError::UnknownServer {
                    node,
                    servers: placement.bins.len(),
                });
            }
        }
        if let Some(node) = placement.assignment.get(&tenant.id()).copied() {
            return Ok(Some(node));
        }
        let (hits0, misses0) = (cache.hits(), cache.misses());
        // Warm (and workload-check) the standalone quote so the cache state
        // matches what a full pack of the same tenant set would hold.
        let _ = cache.quote_int(tenant, self.target.fraction());
        placement.unplaced.retain(|&id| id != tenant.id());
        let mut closed = vec![false; placement.bins.len()];
        for &node in avoid {
            closed[node] = true;
        }
        self.place_one(placement, tenant.id(), tenant.col(), &mut closed, pool);
        placement.stats.cache_hits += cache.hits() - hits0;
        placement.stats.cache_misses += cache.misses() - misses0;
        Ok(placement.assignment.get(&tenant.id()).copied())
    }

    /// Removes one tenant from the placement — the `RemoveTenant` /
    /// drain-eviction hook. The hosting bin multiset-subtracts the
    /// tenant's column; any unplaced record is cleared too. Returns the
    /// server the tenant was evicted from, or `None` if it was not
    /// placed.
    pub fn evict(&self, placement: &mut Placement, tenant: &FleetTenant) -> Option<usize> {
        placement.unplaced.retain(|&id| id != tenant.id());
        let node = placement.assignment.remove(&tenant.id())?;
        placement.bins[node].remove(tenant.id(), tenant.col());
        Some(node)
    }

    /// Marks `node` down and re-places its residents on the remaining up
    /// servers — the `NodeDown` hook. Like
    /// [`replan_degraded`](Self::replan_degraded), only the failed
    /// server's tenants move; residents that fit nowhere are recorded
    /// unplaced (never dropped) and can be refilled once a node returns
    /// via [`mark_node_up`](Self::mark_node_up) +
    /// [`place_into`](Self::place_into). Marking an already-down node is
    /// an idempotent no-op returning zeroed stats.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownServer`] for an out-of-range node,
    /// [`FleetError::DeadlineMismatch`] as in [`pack`](Self::pack).
    pub fn replan_node_down(
        &self,
        placement: &mut Placement,
        tenants: &[FleetTenant],
        node: usize,
        cache: &mut QuoteCache,
        pool: &WorkerPool,
    ) -> Result<PackStats, FleetError> {
        if node >= placement.bins.len() {
            return Err(FleetError::UnknownServer {
                node,
                servers: placement.bins.len(),
            });
        }
        if cache.deadline() != self.target.deadline() {
            return Err(FleetError::DeadlineMismatch {
                cache: cache.deadline(),
                target: self.target.deadline(),
            });
        }
        if placement.down[node] {
            return Ok(PackStats::default());
        }
        let (hits0, misses0) = (cache.hits(), cache.misses());
        let stats0 = placement.stats;
        placement.down[node] = true;
        let evicted: Vec<TenantId> = placement.bins[node].members().to_vec();
        placement.bins[node] = ServerBin::new(self.target);
        for id in &evicted {
            placement.assignment.remove(id);
        }
        let affected: Vec<&FleetTenant> = tenants
            .iter()
            .filter(|t| evicted.contains(&t.id()))
            .collect();
        let order = self.decreasing_order_of(&affected, cache);
        let mut closed = vec![false; placement.bins.len()];
        for (idx, _) in order {
            let tenant = affected[idx];
            self.place_one(placement, tenant.id(), tenant.col(), &mut closed, pool);
        }
        Ok(PackStats {
            probes: placement.stats.probes - stats0.probes,
            placed: placement.stats.placed - stats0.placed,
            unplaced: placement.stats.unplaced - stats0.unplaced,
            cache_hits: cache.hits() - hits0,
            cache_misses: cache.misses() - misses0,
        })
    }

    /// Clears a server's down mark — the `NodeUp` hook. The recovered
    /// server starts empty; the caller decides when (and whether) to
    /// refill it, typically behind a flap-damping guard. Returns `true`
    /// when the node was down.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownServer`] for an out-of-range node.
    pub fn mark_node_up(&self, placement: &mut Placement, node: usize) -> Result<bool, FleetError> {
        if node >= placement.bins.len() {
            return Err(FleetError::UnknownServer {
                node,
                servers: placement.bins.len(),
            });
        }
        let was_down = placement.down[node];
        placement.down[node] = false;
        Ok(was_down)
    }

    /// Standalone quotes for every tenant, ordered by descending quote
    /// with ties on ascending id.
    fn decreasing_order(
        &self,
        tenants: &[FleetTenant],
        cache: &mut QuoteCache,
    ) -> Vec<(usize, u64)> {
        let mut order: Vec<(usize, u64)> = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| (i, cache.quote_int(t, self.target.fraction())))
            .collect();
        order.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then(tenants[a.0].id().cmp(&tenants[b.0].id()))
        });
        order
    }

    /// [`decreasing_order`](Self::decreasing_order) over a borrowed
    /// subset (the replan path).
    fn decreasing_order_of(
        &self,
        tenants: &[&FleetTenant],
        cache: &mut QuoteCache,
    ) -> Vec<(usize, u64)> {
        let mut order: Vec<(usize, u64)> = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| (i, cache.quote_int(t, self.target.fraction())))
            .collect();
        order.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then(tenants[a.0].id().cmp(&tenants[b.0].id()))
        });
        order
    }

    /// Offers one tenant to the open bins in ascending index order,
    /// commits it to the first feasible one, or records it unplaced.
    ///
    /// The first candidate is probed by a serial scout — it is the oldest
    /// never-rejecting bin and admits the vast majority of tenants, so
    /// the common case costs one streamed column scan and no pool
    /// round-trip. When the scout misses, the remaining candidates are
    /// probed in fixed-width parallel rounds. Every *occupied* candidate
    /// rejected ahead of the winner is closed (`closed[node] = true`) for
    /// the rest of the pass; rejections probed past the winner inside its
    /// round are discarded, so the closure set — and with it every later
    /// placement — is a pure function of the candidate order, never of
    /// the round width or pool. Empty bins are never closed.
    fn place_one(
        &self,
        placement: &mut Placement,
        id: TenantId,
        tcol: &[u64],
        closed: &mut [bool],
        pool: &WorkerPool,
    ) {
        /// Candidates probed by the serial scout round.
        const SCOUT: usize = 1;
        /// Candidates per parallel round after the scout — fixed, never
        /// the pool width.
        const PROBE_BATCH: usize = 8;

        let candidates: Vec<usize> = (0..placement.bins.len())
            .filter(|&n| !closed[n] && !placement.down[n])
            .collect();
        let mut chosen = None;
        let mut next = 0;
        while next < candidates.len() && chosen.is_none() {
            let width = if next == 0 { SCOUT } else { PROBE_BATCH };
            let batch: Vec<usize> = candidates[next..(next + width).min(candidates.len())].to_vec();
            next += batch.len();
            placement.stats.probes += batch.len() as u64;
            let verdicts: Vec<bool> = {
                let probe_view = &*placement;
                pool.map(batch.clone(), |node| {
                    probe_view.bins[node]
                        .admits(tcol, Iops::new(probe_view.effective_capacity(node) as f64))
                })
            };
            let winner = verdicts.iter().position(|&v| v);
            let rejected_ahead = winner.unwrap_or(batch.len());
            for &node in &batch[..rejected_ahead] {
                if !placement.bins[node].is_empty() {
                    closed[node] = true;
                }
            }
            chosen = winner.map(|pos| batch[pos]);
        }
        match chosen {
            Some(node) => {
                placement.bins[node].add(id, tcol);
                placement.assignment.insert(id, node);
                placement.stats.placed += 1;
            }
            None => {
                placement.unplaced.push(id);
                placement.stats.unplaced += 1;
            }
        }
    }
}

/// A cold, unhinted consolidated `Cmin` over a raw merged column: seed
/// grid from scratch plus bracket resolution — the cost profile of
/// [`CapacityPlanner::min_capacity`] on the materialised merge, used only
/// by the naive reference packer.
fn cold_cmin(col: &[u64], deadline: SimDuration, fraction: f64) -> u64 {
    let budget = miss_budget(col.len() as u64, fraction);
    let seed = SeedCurve::from_nanos(col, deadline);
    match seed.bracket(budget) {
        (None, hi) => hi,
        (Some(lo), hi) => resolve_cmin_ns(col, deadline, budget, lo, hi),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consolidate::merge_all;
    use gqos_trace::SimTime;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// A small deterministic fleet: staggered steady streams with bursts
    /// of varying depth.
    fn fleet(n: usize) -> Vec<FleetTenant> {
        (0..n)
            .map(|i| {
                let mut arrivals: Vec<SimTime> =
                    (0..60).map(|k| ms(k * 10 + i as u64 * 3)).collect();
                arrivals.extend(vec![ms(200 + 70 * i as u64); 5 + 3 * (i % 4)]);
                FleetTenant::new(TenantId::new(i), Workload::from_arrivals(arrivals))
            })
            .collect()
    }

    #[test]
    fn cached_quotes_are_bit_identical_to_cold_min_capacity() {
        let tenants = fleet(6);
        let mut cache = QuoteCache::new(dms(10));
        for f in [0.9, 0.95, 1.0] {
            for t in &tenants {
                let cached = cache.quote(t, f);
                let cold = CapacityPlanner::new(t.workload(), dms(10)).min_capacity(f);
                assert_eq!(
                    cached.get().to_bits(),
                    cold.get().to_bits(),
                    "tenant {:?} f={f}",
                    t.id()
                );
            }
        }
        let misses = cache.misses();
        // Every repeat is a memo hit with no new probe.
        for f in [0.9, 0.95, 1.0] {
            for t in &tenants {
                let _ = cache.quote(t, f);
            }
        }
        assert_eq!(cache.misses(), misses);
        assert_eq!(cache.hits(), 18);
        assert_eq!(cache.len(), 6);
    }

    #[test]
    fn workload_change_invalidates_and_epoch_bump_keeps_cached_quotes() {
        let mut tenant = FleetTenant::new(
            TenantId::new(0),
            Workload::from_arrivals(vec![SimTime::ZERO; 10]),
        );
        let mut cache = QuoteCache::new(dms(10));
        assert_eq!(cache.quote_int(&tenant, 1.0), 1000);
        assert_eq!(tenant.epoch(), 0);
        tenant.set_workload(Workload::from_arrivals(vec![SimTime::ZERO; 20]));
        assert_eq!(tenant.epoch(), 1);
        assert_eq!(cache.quote_int(&tenant, 1.0), 2000, "stale quote served");
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        // An SLA-only bump fences the tenant but keeps its quotes: the
        // next quote is a hit, and still the cold planner's answer.
        tenant.bump_epoch();
        assert_eq!(tenant.epoch(), 2);
        assert_eq!(cache.quote_int(&tenant, 1.0), 2000);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        let cold = CapacityPlanner::new(tenant.workload(), dms(10)).min_capacity(1.0);
        assert_eq!(
            cache.quote(&tenant, 1.0).get().to_bits(),
            cold.get().to_bits()
        );
        // 0.96 of 20 requests leaves the same zero-miss budget as 1.0: a hit.
        assert_eq!(cache.quote_int(&tenant, 0.96), 2000);
        assert_eq!((cache.hits(), cache.misses()), (3, 2));
        // A workload change after the bump still rebuilds: one miss.
        tenant.set_workload(Workload::from_arrivals(vec![SimTime::ZERO; 30]));
        assert_eq!(cache.quote_int(&tenant, 1.0), 3000);
        assert_eq!((cache.hits(), cache.misses()), (3, 3));
        cache.invalidate(tenant.id());
        assert!(cache.is_empty());
    }

    #[test]
    fn incremental_bin_quote_matches_cold_consolidation() {
        let tenants = fleet(5);
        let target = QosTarget::new(0.92, dms(10));
        let mut bin = ServerBin::new(target);
        let mut resident: Vec<usize> = Vec::new();
        // A fixed add/remove script exercising growth and shrinkage.
        let script: &[(bool, usize)] = &[
            (true, 0),
            (true, 3),
            (true, 1),
            (false, 3),
            (true, 4),
            (true, 2),
            (false, 0),
            (true, 3),
        ];
        for &(add, idx) in script {
            let t = &tenants[idx];
            if add {
                bin.add(t.id(), t.col());
                resident.push(idx);
            } else {
                assert!(bin.remove(t.id(), t.col()));
                resident.retain(|&r| r != idx);
            }
            let clients: Vec<&Workload> = resident.iter().map(|&r| tenants[r].workload()).collect();
            let merged = merge_all(&clients);
            let cold = CapacityPlanner::new(&merged, dms(10)).min_capacity(0.92);
            assert_eq!(
                bin.quote().get().to_bits(),
                cold.get().to_bits(),
                "after {:?} with {resident:?}",
                (add, idx)
            );
            assert_eq!(bin.len(), merged.len());
        }
        assert!(!bin.remove(TenantId::new(99), &[]), "non-resident remove");
    }

    #[test]
    fn admits_agrees_with_cold_consolidated_quote() {
        let tenants = fleet(4);
        let target = QosTarget::new(0.9, dms(10));
        let mut bin = ServerBin::new(target);
        bin.add(tenants[0].id(), tenants[0].col());
        bin.add(tenants[1].id(), tenants[1].col());
        let candidate = &tenants[2];
        let clients = [
            tenants[0].workload(),
            tenants[1].workload(),
            candidate.workload(),
        ];
        let merged = merge_all(&clients);
        let cold = CapacityPlanner::new(&merged, dms(10))
            .min_capacity(0.9)
            .get() as u64;
        assert!(bin.admits(candidate.col(), Iops::new(cold as f64)));
        assert!(!bin.admits(candidate.col(), Iops::new((cold - 1) as f64)));
    }

    #[test]
    fn hinted_search_matches_cold_from_any_hint() {
        let tenants = fleet(3);
        let clients: Vec<&Workload> = tenants.iter().map(FleetTenant::workload).collect();
        let merged = merge_all(&clients);
        let col = merged.arrival_column().nanos();
        for f in [0.9, 1.0] {
            let budget = miss_budget(col.len() as u64, f);
            let cold = hinted_cmin(col, dms(10), budget, None);
            assert_eq!(
                cold,
                CapacityPlanner::new(&merged, dms(10)).min_capacity(f).get() as u64
            );
            for hint in [1, 100, cold - 1, cold, cold + 1, cold * 7, 1_000_000] {
                assert_eq!(
                    hinted_cmin(col, dms(10), budget, Some(hint)),
                    cold,
                    "hint={hint} f={f}"
                );
            }
        }
        assert_eq!(
            hinted_cmin(&[], dms(10), 0, Some(12345)),
            100,
            "empty→floor"
        );
    }

    #[test]
    fn pack_is_deterministic_across_thread_counts() {
        let tenants = fleet(12);
        let placer = FleetPlacer::new(QosTarget::new(0.9, dms(10)), Iops::new(1500.0));
        let mut reference: Option<Vec<Option<usize>>> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut cache = QuoteCache::new(dms(10));
            let pool = WorkerPool::new(threads);
            let p = placer.pack(&tenants, 5, &mut cache, &pool).unwrap();
            let assignment: Vec<Option<usize>> =
                tenants.iter().map(|t| p.server_of(t.id())).collect();
            match &reference {
                None => reference = Some(assignment),
                Some(r) => assert_eq!(r, &assignment, "{threads} threads"),
            }
        }
    }

    #[test]
    fn naive_baseline_is_feasible_deterministic_and_cold_costed() {
        let tenants = fleet(9);
        let placer = FleetPlacer::new(QosTarget::new(0.93, dms(10)), Iops::new(1200.0));
        let mut cache = QuoteCache::new(dms(10));
        let pool = WorkerPool::new(4);
        let fast = placer.pack(&tenants, 4, &mut cache, &pool).unwrap();
        let naive = placer.pack_naive(&tenants, 4).unwrap();
        // Both packers answer the same feasibility question, so every bin
        // either builds respects its server's capacity, and they agree on
        // which tenants the fleet can host at all.
        for p in [&fast, &naive] {
            for node in 0..p.servers() {
                assert!(
                    p.bins()[node].quote_int() <= p.effective_capacity(node),
                    "server {node} over capacity"
                );
            }
        }
        assert_eq!(fast.stats().placed, naive.stats().placed);
        assert_eq!(fast.unplaced(), naive.unplaced());
        // The baseline re-probes every candidate for every tenant — the
        // quadratic cost profile the fast packer's retirement rule avoids.
        let rerun = placer.pack_naive(&tenants, 4).unwrap();
        for t in &tenants {
            assert_eq!(
                naive.server_of(t.id()),
                rerun.server_of(t.id()),
                "naive baseline must be deterministic for {:?}",
                t.id()
            );
        }
        // Naive bin quotes are cold by construction: recomputing from the
        // merged residents reproduces them bit for bit.
        for node in 0..naive.servers() {
            let members = naive.bins()[node].members();
            if members.is_empty() {
                continue;
            }
            let clients: Vec<&Workload> = tenants
                .iter()
                .filter(|t| members.contains(&t.id()))
                .map(FleetTenant::workload)
                .collect();
            let merged = merge_all(&clients);
            let cold = CapacityPlanner::new(&merged, dms(10)).min_capacity(0.93);
            assert_eq!(naive.bins()[node].quote_int(), cold.get() as u64);
        }
    }

    #[test]
    fn every_placed_server_quote_fits_its_capacity() {
        let tenants = fleet(10);
        let placer = FleetPlacer::new(QosTarget::new(0.9, dms(10)), Iops::new(1400.0));
        let mut cache = QuoteCache::new(dms(10));
        let pool = WorkerPool::new(2);
        let p = placer.pack(&tenants, 6, &mut cache, &pool).unwrap();
        let stats = p.stats();
        assert_eq!(stats.placed + stats.unplaced, tenants.len() as u64);
        assert!(stats.probes > 0);
        for node in 0..p.servers() {
            assert!(
                p.bins()[node].quote_int() <= p.effective_capacity(node),
                "server {node} over capacity"
            );
        }
        // Placed + unplaced partitions the fleet.
        for t in &tenants {
            let placed = p.server_of(t.id()).is_some();
            let rejected = p.unplaced().contains(&t.id());
            assert!(placed ^ rejected, "tenant {:?}", t.id());
        }
    }

    #[test]
    fn oversized_tenant_is_reported_unplaced() {
        let big = FleetTenant::new(
            TenantId::new(0),
            Workload::from_arrivals(vec![SimTime::ZERO; 500]),
        );
        let small = FleetTenant::new(
            TenantId::new(1),
            Workload::from_arrivals((0..20).map(|i| ms(i * 50)).collect::<Vec<_>>()),
        );
        let placer = FleetPlacer::new(QosTarget::full(dms(10)), Iops::new(2000.0));
        let mut cache = QuoteCache::new(dms(10));
        let pool = WorkerPool::serial();
        let p = placer
            .pack(&[big.clone(), small], 2, &mut cache, &pool)
            .unwrap();
        assert_eq!(p.unplaced(), &[big.id()]);
        assert_eq!(p.servers_used(), 1);
    }

    #[test]
    fn replan_degraded_moves_only_the_affected_server() {
        let tenants = fleet(10);
        let placer = FleetPlacer::new(QosTarget::new(0.9, dms(10)), Iops::new(1400.0));
        let mut cache = QuoteCache::new(dms(10));
        let pool = WorkerPool::new(4);
        let mut p = placer.pack(&tenants, 6, &mut cache, &pool).unwrap();
        let node = p
            .bins()
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .max_by_key(|(_, b)| b.members().len())
            .map(|(i, _)| i)
            .unwrap();
        let before: BTreeMap<TenantId, usize> = tenants
            .iter()
            .filter_map(|t| p.server_of(t.id()).map(|s| (t.id(), s)))
            .collect();
        let moved: Vec<TenantId> = p.bins()[node].members().to_vec();
        let stats = placer
            .replan_degraded(&mut p, &tenants, node, 0.5, &mut cache, &pool)
            .unwrap();
        assert_eq!(p.factor(node), 0.5);
        assert_eq!(p.effective_capacity(node), 700);
        assert_eq!(stats.placed + stats.unplaced, moved.len() as u64);
        for (id, server) in &before {
            if !moved.contains(id) {
                assert_eq!(p.server_of(*id), Some(*server), "{id:?} must not move");
            }
        }
        for node in 0..p.servers() {
            assert!(p.bins()[node].quote_int() <= p.effective_capacity(node));
        }
    }

    #[test]
    fn replan_is_deterministic_across_thread_counts() {
        let tenants = fleet(10);
        let placer = FleetPlacer::new(QosTarget::new(0.9, dms(10)), Iops::new(1400.0));
        let mut reference: Option<Vec<Option<usize>>> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut cache = QuoteCache::new(dms(10));
            let pool = WorkerPool::new(threads);
            let mut p = placer.pack(&tenants, 6, &mut cache, &pool).unwrap();
            placer
                .replan_degraded(&mut p, &tenants, 0, 0.6, &mut cache, &pool)
                .unwrap();
            let assignment: Vec<Option<usize>> =
                tenants.iter().map(|t| p.server_of(t.id())).collect();
            match &reference {
                None => reference = Some(assignment),
                Some(r) => assert_eq!(r, &assignment, "{threads} threads"),
            }
        }
    }

    #[test]
    fn fleet_errors_are_typed_and_displayed() {
        let tenants = fleet(2);
        let placer = FleetPlacer::new(QosTarget::new(0.9, dms(10)), Iops::new(1000.0));
        let mut cache = QuoteCache::new(dms(10));
        let pool = WorkerPool::serial();
        assert_eq!(
            placer.pack(&tenants, 0, &mut cache, &pool).unwrap_err(),
            FleetError::NoServers
        );
        assert_eq!(
            placer.pack_naive(&tenants, 0).unwrap_err(),
            FleetError::NoServers
        );
        let mut wrong = QuoteCache::new(dms(20));
        assert!(matches!(
            placer.pack(&tenants, 2, &mut wrong, &pool).unwrap_err(),
            FleetError::DeadlineMismatch { .. }
        ));
        let mut p = placer.pack(&tenants, 2, &mut cache, &pool).unwrap();
        assert!(matches!(
            placer
                .replan_degraded(&mut p, &tenants, 7, 0.5, &mut cache, &pool)
                .unwrap_err(),
            FleetError::UnknownServer {
                node: 7,
                servers: 2
            }
        ));
        assert!(matches!(
            placer
                .replan_degraded(&mut p, &tenants, 0, 0.0, &mut cache, &pool)
                .unwrap_err(),
            FleetError::BadFactor { .. }
        ));
        assert!(FleetError::NoServers.to_string().contains("at least one"));
        assert!(FleetError::UnknownServer {
            node: 7,
            servers: 2
        }
        .to_string()
        .contains("out of range"));
        assert!(FleetError::BadFactor { value: -1.0 }
            .to_string()
            .contains("(0, 1]"));
    }

    #[test]
    fn place_into_and_evict_roundtrip() {
        let tenants = fleet(8);
        let placer = FleetPlacer::new(QosTarget::new(0.9, dms(10)), Iops::new(1400.0));
        let mut cache = QuoteCache::new(dms(10));
        let pool = WorkerPool::new(2);
        let mut p = placer.pack(&tenants, 4, &mut cache, &pool).unwrap();
        let t = &tenants[3];
        let home = p.server_of(t.id()).expect("placed by pack");
        // Idempotent: placing a placed tenant returns its current server.
        assert_eq!(
            placer.place_into(&mut p, t, &mut cache, &pool).unwrap(),
            Some(home)
        );
        let from = placer.evict(&mut p, t).expect("was placed");
        assert_eq!(from, home);
        assert_eq!(p.server_of(t.id()), None);
        assert!(!p.bins()[from].members().contains(&t.id()));
        // Re-placing lands it somewhere feasible again.
        let node = placer
            .place_into(&mut p, t, &mut cache, &pool)
            .unwrap()
            .expect("fits again");
        assert_eq!(p.server_of(t.id()), Some(node));
        assert!(p.bins()[node].quote_int() <= p.effective_capacity(node));
        // Evicting an unplaced tenant is None.
        placer.evict(&mut p, t);
        assert_eq!(placer.evict(&mut p, t), None);
        // Avoiding the old home forces a different target.
        let moved = placer
            .place_avoiding(&mut p, t, &[node], &mut cache, &pool)
            .unwrap();
        if let Some(m) = moved {
            assert_ne!(m, node, "avoided server must not host the tenant");
        }
        assert!(matches!(
            placer
                .place_avoiding(&mut p, &tenants[0], &[99], &mut cache, &pool)
                .unwrap_err(),
            FleetError::UnknownServer { node: 99, .. }
        ));
    }

    #[test]
    fn replan_node_down_moves_only_that_node_and_is_idempotent() {
        let tenants = fleet(10);
        let placer = FleetPlacer::new(QosTarget::new(0.9, dms(10)), Iops::new(1400.0));
        let mut cache = QuoteCache::new(dms(10));
        let pool = WorkerPool::new(4);
        let mut p = placer.pack(&tenants, 6, &mut cache, &pool).unwrap();
        let node = p
            .bins()
            .iter()
            .position(|b| !b.is_empty())
            .expect("some bin is occupied");
        let moved: Vec<TenantId> = p.bins()[node].members().to_vec();
        let before: BTreeMap<TenantId, usize> = tenants
            .iter()
            .filter_map(|t| p.server_of(t.id()).map(|s| (t.id(), s)))
            .collect();
        let stats = placer
            .replan_node_down(&mut p, &tenants, node, &mut cache, &pool)
            .unwrap();
        assert!(p.is_down(node));
        assert_eq!(p.down_nodes(), vec![node]);
        assert!(p.bins()[node].is_empty(), "down node must be vacated");
        assert_eq!(stats.placed + stats.unplaced, moved.len() as u64);
        for (id, server) in &before {
            if !moved.contains(id) {
                assert_eq!(p.server_of(*id), Some(*server), "{id:?} must not move");
            } else {
                assert_ne!(p.server_of(*id), Some(node), "{id:?} left on down node");
            }
        }
        // Idempotent: a duplicate NodeDown changes nothing.
        let again = placer
            .replan_node_down(&mut p, &tenants, node, &mut cache, &pool)
            .unwrap();
        assert_eq!(again, PackStats::default());
        // Recovery: the node is offerable again after mark_node_up.
        assert!(placer.mark_node_up(&mut p, node).unwrap());
        assert!(!p.is_down(node));
        assert!(!placer.mark_node_up(&mut p, node).unwrap());
        assert!(matches!(
            placer.mark_node_up(&mut p, 77).unwrap_err(),
            FleetError::UnknownServer { node: 77, .. }
        ));
    }

    #[test]
    fn pack_avoiding_never_uses_down_servers() {
        let tenants = fleet(10);
        let placer = FleetPlacer::new(QosTarget::new(0.9, dms(10)), Iops::new(1400.0));
        let mut cache = QuoteCache::new(dms(10));
        let pool = WorkerPool::new(2);
        let p = placer
            .pack_avoiding(&tenants, 6, &[1, 4], &mut cache, &pool)
            .unwrap();
        assert!(p.bins()[1].is_empty() && p.bins()[4].is_empty());
        assert!(p.is_down(1) && p.is_down(4));
        assert_eq!(p.down_nodes(), vec![1, 4]);
        for t in &tenants {
            if let Some(node) = p.server_of(t.id()) {
                assert!(node != 1 && node != 4);
            }
        }
        assert!(matches!(
            placer
                .pack_avoiding(&tenants, 6, &[6], &mut cache, &pool)
                .unwrap_err(),
            FleetError::UnknownServer {
                node: 6,
                servers: 6
            }
        ));
    }

    #[test]
    fn incremental_node_down_matches_from_scratch_pack_avoiding() {
        let tenants = fleet(12);
        let placer = FleetPlacer::new(QosTarget::new(0.9, dms(10)), Iops::new(1500.0));
        let pool = WorkerPool::new(4);
        let mut cache = QuoteCache::new(dms(10));
        let mut live = placer.pack(&tenants, 5, &mut cache, &pool).unwrap();
        placer
            .replan_node_down(&mut live, &tenants, 2, &mut cache, &pool)
            .unwrap();
        // The oracle: both paths respect capacity and leave node 2 empty;
        // the surviving assignment is feasible either way.
        let mut fresh_cache = QuoteCache::new(dms(10));
        let scratch = placer
            .pack_avoiding(&tenants, 5, &[2], &mut fresh_cache, &pool)
            .unwrap();
        for p in [&live, &scratch] {
            assert!(p.bins()[2].is_empty());
            for node in 0..p.servers() {
                assert!(p.bins()[node].quote_int() <= p.effective_capacity(node));
            }
        }
    }

    #[test]
    fn empty_fleet_packs_to_empty_placement() {
        let placer = FleetPlacer::new(QosTarget::new(0.9, dms(10)), Iops::new(1000.0));
        let mut cache = QuoteCache::new(dms(10));
        let pool = WorkerPool::new(2);
        let p = placer.pack(&[], 3, &mut cache, &pool).unwrap();
        assert_eq!(p.servers_used(), 0);
        assert_eq!(p.servers(), 3);
        assert!(p.unplaced().is_empty());
        assert_eq!(p.stats(), PackStats::default());
        assert_eq!(p.capacity, 1000);
        assert_eq!(p.target().fraction(), 0.9);
    }
}
