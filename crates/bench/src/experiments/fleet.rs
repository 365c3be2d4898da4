//! Fleet-scale placement — the memoized packer exercised end to end.
//!
//! Drives [`gqos_core`]'s fleet engine over a tenants × servers grid and
//! renders the evidence for its three headline contracts:
//!
//! - **planner-exact costing**: every placement decision is backed by the
//!   same `Cmin(f, δ)` the cold [`CapacityPlanner`] would quote — on the
//!   small cells the exhaustive cold-costing [`FleetPlacer::pack_naive`]
//!   baseline is re-run; the engine must place at least as many tenants
//!   under the same capacities, and the baseline's probe counter shows
//!   the `O(tenants × servers)` blow-up the engine avoids;
//! - **memoization pays**: the cached packer needs one capacity search
//!   per quote-cache miss plus at most one lazy warm-hinted resolve per
//!   used server, where the cold packer runs a from-scratch search for
//!   the ordering pass, every candidate probe, and every commit. The
//!   `search ratio` column counts exactly that (deterministic counters,
//!   no wall clock);
//! - **replans are surgical**: degrading one server re-places only that
//!   server's residents, against an already-warm cache (zero cold
//!   searches), leaving every other server untouched.
//!
//! Everything printed here and written to `fleet_placement.csv` is
//! deterministic — placements are byte-identical across thread counts
//! (see `parallel_equiv`), and costs are probe/search *counts*, never
//! nanoseconds. Wall-clock costs of the same scenario are `perf_report`'s
//! `fleet/*` rows.

use gqos_core::{
    CapacityPlanner, FleetPlacer, FleetTenant, PackStats, Placement, QosTarget, QuoteCache,
    TenantId,
};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::{Iops, SimDuration};

use crate::config::ExpConfig;
use crate::outln;
use crate::output::{CsvWriter, Table};

/// The fleet's response-time deadline (ms).
pub const FLEET_DEADLINE_MS: u64 = 20;
/// The consolidated guarantee: 95% of requests within the deadline.
pub const FLEET_FRACTION: f64 = 0.95;
/// The tenants × servers grid the experiment sweeps.
const FLEET_GRID: [(usize, usize); 3] = [(16, 4), (32, 8), (64, 12)];
/// Per-server capacity headroom over the largest standalone quote.
const FLEET_HEADROOM: f64 = 1.6;
/// Headroom over the mean per-server share of the summed standalone
/// quotes — consolidation is usually subadditive, so this is generous.
const FLEET_AGG_HEADROOM: f64 = 1.25;
/// Largest cell the cold-costing naive packer is re-run on (every one of
/// its feasibility verdicts is a from-scratch merged-column search —
/// exactly the cost the engine exists to avoid).
const FLEET_NAIVE_LIMIT: usize = 32;
/// The degradation factor each cell's replan is driven with.
const FLEET_DEGRADE_FACTOR: f64 = 0.6;
/// Per-tenant trace spans are capped here so fleet cells stay proportionate
/// to the other experiments at the default 1200 s span.
const FLEET_SPAN_CAP_SECS: u64 = 60;

/// The per-tenant trace span: the configured span, capped at
/// [`FLEET_SPAN_CAP_SECS`].
fn fleet_span(cfg: &ExpConfig) -> SimDuration {
    SimDuration::from_secs((cfg.span.as_secs_f64() as u64).clamp(1, FLEET_SPAN_CAP_SECS))
}

/// Generates `count` tenants with dense ids: profiles cycle through the
/// paper's three traces, seeds derive from `cfg.seed` per tenant.
pub fn fleet_tenants(cfg: &ExpConfig, count: usize) -> Vec<FleetTenant> {
    const PROFILES: [TraceProfile; 3] = [
        TraceProfile::OpenMail,
        TraceProfile::WebSearch,
        TraceProfile::FinTrans,
    ];
    let span = fleet_span(cfg);
    (0..count)
        .map(|i| {
            let profile = PROFILES[i % PROFILES.len()];
            let workload = profile.generate(span, cfg.seed.wrapping_add(7919 * i as u64));
            FleetTenant::new(TenantId::new(i), workload)
        })
        .collect()
}

/// Sizes the per-server capacity so the whole fleet fits: the larger of
/// `FLEET_HEADROOM` over the largest standalone quote (any single
/// tenant fits with room to consolidate) and `FLEET_AGG_HEADROOM` over
/// the mean per-server share of the summed standalone quotes (the
/// `servers` bins can absorb the aggregate demand).
pub fn size_capacity(tenants: &[FleetTenant], servers: usize, target: QosTarget) -> u64 {
    let quotes: Vec<u64> = tenants
        .iter()
        .map(|t| {
            CapacityPlanner::new(t.workload(), target.deadline())
                .min_capacity(target.fraction())
                .get() as u64
        })
        .collect();
    let max_solo = quotes.iter().copied().max().unwrap_or(1);
    let total: u64 = quotes.iter().sum();
    let per_server = total as f64 / servers.max(1) as f64;
    (((max_solo as f64) * FLEET_HEADROOM).max(per_server * FLEET_AGG_HEADROOM)).ceil() as u64
}

/// One tenants × servers cell: the pack's outcome, its deterministic
/// search-cost ledger, and the forced single-node replan.
struct FleetCell {
    /// Tenants offered.
    pub tenants: usize,
    /// Servers available.
    pub servers: usize,
    /// Per-server capacity (integer IOPS).
    pub capacity: u64,
    /// Servers hosting at least one tenant after the pack.
    pub servers_used: usize,
    /// Tenants no server could host.
    pub unplaced: usize,
    /// Candidate feasibility probes the pack issued.
    pub probes: u64,
    /// Quote-cache hits / misses during the pack.
    pub cache_hits: u64,
    /// Quote-cache misses during the pack.
    pub cache_misses: u64,
    /// Full capacity searches the cold-costing packer runs for the same
    /// work: one per tenant (ordering) + one per candidate probe + one
    /// per commit.
    pub cold_searches: u64,
    /// Full searches the cached packer actually ran: one per cache miss
    /// plus at most one lazy warm-hinted resolve per used server.
    pub cached_searches: u64,
    /// The exhaustive cold-costing baseline's counters on the same cell:
    /// `(servers used, unplaced, probes)` — `None` when the cell is above
    /// [`FLEET_NAIVE_LIMIT`] and the baseline was skipped.
    pub naive: Option<(usize, usize, u64)>,
    /// The server degraded for the replan (the most loaded one).
    pub replan_node: usize,
    /// Deterministic counters of the replan.
    pub replan: PackStats,
}

impl FleetCell {
    /// Cold searches per cached search — the memoization payoff.
    fn search_ratio(&self) -> f64 {
        self.cold_searches as f64 / (self.cached_searches.max(1)) as f64
    }
}

/// The most loaded used server: most members, ties to the lowest index.
pub fn busiest_node(placement: &Placement) -> usize {
    placement
        .bins()
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| a.len().cmp(&b.len()).then(ib.cmp(ia)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Runs the grid: pack, naive cross-check on small cells, then a forced
/// degrade-and-replan of the most loaded server.
fn compute(cfg: &ExpConfig) -> Vec<FleetCell> {
    let deadline = SimDuration::from_millis(FLEET_DEADLINE_MS);
    let target = QosTarget::new(FLEET_FRACTION, deadline);
    let pool = cfg.pool();
    FLEET_GRID
        .iter()
        .map(|&(tenants_n, servers)| {
            let tenants = fleet_tenants(cfg, tenants_n);
            let capacity = size_capacity(&tenants, servers, target);
            let placer = FleetPlacer::new(target, Iops::new(capacity as f64));
            let mut cache = QuoteCache::new(deadline);
            let mut placement = placer
                .pack(&tenants, servers, &mut cache, &pool)
                .expect("servers > 0, matching deadline");
            let stats = placement.stats();

            let naive = (tenants_n <= FLEET_NAIVE_LIMIT).then(|| {
                let naive = placer.pack_naive(&tenants, servers).expect("servers > 0");
                (
                    naive.servers_used(),
                    naive.unplaced().len(),
                    naive.stats().probes,
                )
            });

            let replan_node = busiest_node(&placement);
            let replan = placer
                .replan_degraded(
                    &mut placement,
                    &tenants,
                    replan_node,
                    FLEET_DEGRADE_FACTOR,
                    &mut cache,
                    &pool,
                )
                .expect("valid node and factor");

            FleetCell {
                tenants: tenants_n,
                servers,
                capacity,
                servers_used: placement.servers_used(),
                unplaced: placement.unplaced().len(),
                probes: stats.probes,
                cache_hits: stats.cache_hits,
                cache_misses: stats.cache_misses,
                cold_searches: tenants_n as u64 + stats.probes + stats.placed,
                cached_searches: stats.cache_misses + placement.servers_used() as u64,
                naive,
                replan_node,
                replan,
            }
        })
        .collect()
}

/// Renders the experiment report and writes `fleet_placement.csv`.
pub fn report(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    outln!(
        out,
        "Fleet placement: memoized quotes, incremental consolidation, parallel packer  [{cfg}]"
    );
    outln!(
        out,
        "target: {:.0}% within {} ms; capacity = max({:.1}x largest solo quote, {:.2}x mean per-server demand)",
        FLEET_FRACTION * 100.0,
        FLEET_DEADLINE_MS,
        FLEET_HEADROOM,
        FLEET_AGG_HEADROOM
    );
    outln!(out);

    let cells = compute(cfg);
    let naive_probes = |cell: &FleetCell| match cell.naive {
        Some((_, _, probes)) => probes.to_string(),
        None => "(skipped)".to_string(),
    };
    let mut table = Table::new(vec![
        "tenants".into(),
        "servers".into(),
        "capacity".into(),
        "used".into(),
        "unplaced".into(),
        "probes".into(),
        "naive probes".into(),
        "cold srch".into(),
        "cached srch".into(),
        "ratio".into(),
    ]);
    for cell in &cells {
        table.row(vec![
            cell.tenants.to_string(),
            cell.servers.to_string(),
            cell.capacity.to_string(),
            cell.servers_used.to_string(),
            cell.unplaced.to_string(),
            cell.probes.to_string(),
            naive_probes(cell),
            cell.cold_searches.to_string(),
            cell.cached_searches.to_string(),
            format!("{:.1}x", cell.search_ratio()),
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "Search counts are deterministic cost ledgers, not wall clock: the\n\
         cold packer runs a full capacity search per ordering quote, per\n\
         candidate probe, and per commit; the cached packer searches only\n\
         on quote-cache misses plus one lazy warm-hinted resolve per used\n\
         server. `naive probes` is the exhaustive baseline's counter — it\n\
         re-probes every candidate server per tenant (no bin retirement),\n\
         and every one of those probes is a from-scratch cold search."
    );
    outln!(out);

    let mut table = Table::new(vec![
        "tenants".into(),
        "degraded node".into(),
        "factor".into(),
        "moved".into(),
        "unplaced".into(),
        "probes".into(),
        "cold searches".into(),
    ]);
    for cell in &cells {
        table.row(vec![
            cell.tenants.to_string(),
            cell.replan_node.to_string(),
            format!("{FLEET_DEGRADE_FACTOR:.2}"),
            cell.replan.placed.to_string(),
            cell.replan.unplaced.to_string(),
            cell.replan.probes.to_string(),
            cell.replan.cache_misses.to_string(),
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "Replan: the most loaded server drops to {FLEET_DEGRADE_FACTOR:.2}x capacity; only its\n\
         residents move, and the warm quote cache answers every ordering\n\
         quote without a single cold search."
    );
    let replan_cold: u64 = cells.iter().map(|c| c.replan.cache_misses).sum();
    if replan_cold > 0 {
        outln!(out, "REPLAN RAN {replan_cold} COLD SEARCHES (expected 0)");
    }
    let lost = cells
        .iter()
        .filter(|c| matches!(c.naive, Some((_, naive_unplaced, _)) if c.unplaced > naive_unplaced))
        .count();
    if lost > 0 {
        outln!(
            out,
            "BIN RETIREMENT LOST PLACEMENTS vs the exhaustive baseline in {lost} cell(s)"
        );
    }

    let csv = CsvWriter::new(&cfg.out_dir).expect("create output dir");
    let mut rows = vec![vec![
        "tenants".to_string(),
        "servers".to_string(),
        "capacity".to_string(),
        "servers_used".to_string(),
        "unplaced".to_string(),
        "probes".to_string(),
        "cache_hits".to_string(),
        "cache_misses".to_string(),
        "cold_searches".to_string(),
        "cached_searches".to_string(),
        "search_ratio".to_string(),
        "naive_used".to_string(),
        "naive_unplaced".to_string(),
        "naive_probes".to_string(),
        "replan_node".to_string(),
        "replan_factor".to_string(),
        "replan_moved".to_string(),
        "replan_unplaced".to_string(),
        "replan_probes".to_string(),
        "replan_cold_searches".to_string(),
    ]];
    rows.extend(cells.iter().map(|c| {
        vec![
            c.tenants.to_string(),
            c.servers.to_string(),
            c.capacity.to_string(),
            c.servers_used.to_string(),
            c.unplaced.to_string(),
            c.probes.to_string(),
            c.cache_hits.to_string(),
            c.cache_misses.to_string(),
            c.cold_searches.to_string(),
            c.cached_searches.to_string(),
            format!("{:.3}", c.search_ratio()),
            match c.naive {
                Some((used, _, _)) => used.to_string(),
                None => "skipped".to_string(),
            },
            match c.naive {
                Some((_, unplaced, _)) => unplaced.to_string(),
                None => "skipped".to_string(),
            },
            match c.naive {
                Some((_, _, probes)) => probes.to_string(),
                None => "skipped".to_string(),
            },
            c.replan_node.to_string(),
            format!("{FLEET_DEGRADE_FACTOR:.2}"),
            c.replan.placed.to_string(),
            c.replan.unplaced.to_string(),
            c.replan.probes.to_string(),
            c.replan.cache_misses.to_string(),
        ]
    }));
    let path = csv
        .write("fleet_placement", &rows)
        .expect("write fleet_placement");
    outln!(out, "wrote {}", path.display());
    out
}
