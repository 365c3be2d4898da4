//! Long-horizon retention — the tiered store fed from the gateway tap.
//!
//! Runs the multi-tenant [`IngestGateway`] over shifted OpenMail lanes
//! (the `stream` experiment's fleet), feeds every lane's
//! `window_feedback` snapshots into one [`LongTermStore`] via
//! `TenantReport::feed_longterm`, and renders the evidence for the
//! store's three contracts:
//!
//! - **losslessness** — each tenant's cumulative store sketch must equal
//!   the lane's own [`TenantReport::sketch`] bit for bit: tiered
//!   downsampling is pure merging, so retention loses nothing;
//! - **bounded memory** — resident sketches never exceed the
//!   [`RetentionConfig::max_resident_sketches`] bound times the tenant
//!   count, no matter the span;
//! - **feed-shape independence** — the store built from 1, 2, 4, and 8
//!   gateway workers is identical (`Eq`), so `longterm_stats.csv` is
//!   byte-identical at any `--threads` count.
//!
//! The report carries a tenant×time heat map (p99 per cell, quiet and
//! evicted cells typed distinctly), a p99-over-time series for the first
//! tenant, and per-tenant drift context. Everything printed and written
//! to the CSV is integer data from deterministic runs.
//!
//! [`RetentionConfig::max_resident_sketches`]: gqos_sim::RetentionConfig::max_resident_sketches

use gqos_core::{CapacityPlanner, Provision, RecombinePolicy};
use gqos_parallel::WorkerPool;
use gqos_sim::{LongTermStore, RetentionConfig, SeriesPoint, TierConfig};
use gqos_stream::{IngestGateway, OnlineShaper, TenantReport, TenantSpec};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::{SimDuration, SimTime};

use crate::config::ExpConfig;
use crate::outln;
use crate::output::{CsvWriter, Table};

/// The lanes' deadline (ms) — the stream experiment's 50 ms.
pub const LONGTERM_DEADLINE_MS: u64 = 50;
/// The planned guaranteed fraction.
const LONGTERM_FRACTION: f64 = 0.90;
/// Feedback window fed into the store (divides the 1 s tier-0 bucket for
/// exact time attribution).
pub const FEED_WINDOW_MS: u64 = 250;
/// Worker counts the store must be invariant across.
const LONGTERM_WORKERS: [usize; 4] = [1, 2, 4, 8];
/// Trailing span the drift context compares against all-time.
pub const DRIFT_RECENT_SECS: u64 = 30;

/// The experiment's retention ladder: 20 s at full second resolution, an
/// hour at 10 s, two hours at minute resolution. Tier 0 is deliberately
/// tiny so default spans exercise ring eviction and the coarse-tier
/// fallback in queries.
pub fn ladder() -> RetentionConfig {
    RetentionConfig::new(vec![
        TierConfig {
            width: SimDuration::from_secs(1),
            capacity: 20,
        },
        TierConfig {
            width: SimDuration::from_secs(10),
            capacity: 360,
        },
        TierConfig {
            width: SimDuration::from_secs(60),
            capacity: 120,
        },
    ])
}

fn lanes(cfg: &ExpConfig) -> Vec<TenantSpec> {
    let deadline = SimDuration::from_millis(LONGTERM_DEADLINE_MS);
    let workload = TraceProfile::OpenMail.generate(cfg.span, cfg.seed);
    let planner = CapacityPlanner::new(&workload, deadline);
    let provision =
        Provision::with_default_surplus(planner.min_capacity(LONGTERM_FRACTION), deadline);
    let shaper = OnlineShaper::new(provision, deadline);
    // Same four-lane fleet as the stream experiment: two unbounded
    // inboxes, two tight enough to shed under OpenMail's bursts.
    let specs = [
        ("tenant-a", RecombinePolicy::Fcfs, usize::MAX),
        ("tenant-b", RecombinePolicy::Split, usize::MAX),
        ("tenant-c", RecombinePolicy::FairQueue, 8),
        ("tenant-d", RecombinePolicy::Miser, 4),
    ];
    specs
        .iter()
        .enumerate()
        .map(|(i, &(name, policy, inbox_bound))| TenantSpec {
            name: name.to_string(),
            workload: workload.shifted(SimDuration::from_millis(i as u64)),
            shaper,
            policy,
            inbox_bound,
            chunk: gqos_stream::DEFAULT_CHUNK,
        })
        .collect()
}

/// Builds a store from gateway reports: every lane's
/// [`FEED_WINDOW_MS`]-wide feedback snapshots, fed in tenant order.
pub fn feed(reports: &[TenantReport]) -> LongTermStore<String> {
    let window = SimDuration::from_millis(FEED_WINDOW_MS);
    let mut store = LongTermStore::new(ladder());
    for report in reports {
        report.feed_longterm(window, &mut store);
    }
    store
}

/// The executed experiment: the gateway reports, the fed store, and the
/// query geometry shared by the report and the [`top`](super::top) view.
pub struct LongTermOutcome {
    /// Per-lane gateway reports, in tenant order.
    pub reports: Vec<TenantReport>,
    /// The store after ingesting every lane's feedback.
    pub store: LongTermStore<String>,
    /// Heat-map cell width (a multiple of the 10 s tier-1 width).
    pub resolution: SimDuration,
    /// One past the last heat-map cell.
    pub end: SimTime,
    /// Per tenant: cumulative store sketch equals the lane sketch.
    pub lossless: Vec<(String, bool)>,
    /// The store was identical when fed from every worker count in
    /// `LONGTERM_WORKERS`.
    pub workers_identical: bool,
}

/// Runs the gateway at `cfg.threads`, feeds the store, and cross-checks
/// the store against re-feeds from every worker count.
pub fn compute(cfg: &ExpConfig) -> LongTermOutcome {
    let reports = IngestGateway::new(cfg.pool()).run(lanes(cfg));
    let store = feed(&reports);
    let lossless = reports
        .iter()
        .map(|r| {
            let ok = match store.cumulative(&r.name) {
                Some(cumulative) => cumulative == &r.sketch,
                None => r.sketch.is_empty(),
            };
            (r.name.clone(), ok)
        })
        .collect();
    let workers_identical = LONGTERM_WORKERS.iter().all(|&workers| {
        let alt = IngestGateway::new(WorkerPool::new(workers)).run(lanes(cfg));
        feed(&alt) == store
    });
    let last_event = reports
        .iter()
        .map(|r| r.end_time.as_nanos())
        .max()
        .unwrap_or(0);
    // Aim for ~6 heat cells; keep the width a multiple of the 10 s
    // tier-1 bucket so coarse tiers can answer evicted fine ranges.
    let ten = SimDuration::from_secs(10).as_nanos();
    let raw = last_event.div_ceil(6);
    let resolution = SimDuration::from_nanos((raw / ten).max(1) * ten);
    let end =
        SimTime::from_nanos(last_event.div_ceil(resolution.as_nanos()) * resolution.as_nanos());
    LongTermOutcome {
        reports,
        store,
        resolution,
        end,
        lossless,
        workers_identical,
    }
}

/// Renders one heat cell: p99 in µs, `quiet` for a covered-but-empty
/// cell, `evicted` for a cell no tier can answer anymore.
fn cell_text(point: &SeriesPoint) -> String {
    if !point.covered {
        "evicted".to_string()
    } else {
        match point.quantile {
            Some(q) => (q / 1_000).to_string(),
            None => "quiet".to_string(),
        }
    }
}

/// Renders the experiment report and writes `longterm_stats.csv`.
pub fn report(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    let outcome = compute(cfg);
    let config = ladder();
    let tiers: Vec<String> = config
        .tiers()
        .iter()
        .map(|t| format!("{}s x {}", t.width.as_nanos() / 1_000_000_000, t.capacity))
        .collect();
    outln!(
        out,
        "Long-horizon retention: tiered downsampling over the gateway feedback tap  [{cfg}]"
    );
    outln!(
        out,
        "ladder {}; feed window {} ms; bound {} sketches/tenant",
        tiers.join(", "),
        FEED_WINDOW_MS,
        config.max_resident_sketches()
    );
    outln!(out);

    let mut table = Table::new(vec![
        "tenant".into(),
        "completed".into(),
        "t0 buckets".into(),
        "t1 buckets".into(),
        "t2 buckets".into(),
        "p99 us".into(),
        "drift ppm".into(),
    ]);
    for report in &outcome.reports {
        let buckets = |tier: usize| {
            outcome
                .store
                .tier_buckets(&report.name, tier)
                .len()
                .to_string()
        };
        let p99 = outcome
            .store
            .cumulative(&report.name)
            .map_or("quiet".to_string(), |s| {
                (s.quantile(0.99) / 1_000).to_string()
            });
        let drift = outcome
            .store
            .drift_ppm(
                &report.name,
                0.99,
                SimDuration::from_secs(DRIFT_RECENT_SECS),
            )
            .map_or("n/a".to_string(), |d| format!("{d:+}"));
        table.row(vec![
            report.name.clone(),
            report.completed.to_string(),
            buckets(0),
            buckets(1),
            buckets(2),
            p99,
            drift,
        ]);
    }
    outln!(out, "{}", table.render());

    let res_secs = outcome.resolution.as_nanos() / 1_000_000_000;
    let mut header = vec!["tenant".into()];
    let mut cell_start = SimTime::ZERO;
    while cell_start < outcome.end {
        header.push(format!("{}s", cell_start.as_nanos() / 1_000_000_000));
        cell_start += outcome.resolution;
    }
    outln!(out, "tenant x time heat map: p99 us per {res_secs} s cell");
    let mut heat = Table::new(header);
    let rows = outcome
        .store
        .heatmap(0.99, SimTime::ZERO, outcome.end, outcome.resolution);
    for row in &rows {
        let mut cells = vec![row.tenant.clone()];
        cells.extend(row.cells.iter().map(cell_text));
        heat.row(cells);
    }
    outln!(out, "{}", heat.render());

    let first = &outcome.reports[0].name;
    let series = outcome
        .store
        .p99_over(first, SimTime::ZERO, outcome.end, outcome.resolution);
    let mut table = Table::new(vec![
        "cell start".into(),
        "count".into(),
        "p99 us".into(),
        "covered".into(),
    ]);
    for point in &series {
        table.row(vec![
            format!("{}s", point.start.as_nanos() / 1_000_000_000),
            point.count.to_string(),
            point
                .quantile
                .map_or("-".to_string(), |q| (q / 1_000).to_string()),
            point.covered.to_string(),
        ]);
    }
    outln!(out, "p99 over time, {first}:");
    outln!(out, "{}", table.render());

    let lossless_ok = outcome.lossless.iter().filter(|(_, ok)| *ok).count();
    outln!(
        out,
        "verdict: cumulative sketches lossless for {lossless_ok}/{} tenants",
        outcome.lossless.len()
    );
    if lossless_ok != outcome.lossless.len() {
        outln!(out, "INVARIANT VIOLATION: retention lost data");
    }
    let resident = outcome.store.resident_sketches();
    let bound = config.max_resident_sketches() * outcome.store.tenants().count();
    outln!(
        out,
        "verdict: {resident} resident sketches within bound {bound}"
    );
    if resident > bound {
        outln!(
            out,
            "INVARIANT VIOLATION: retention memory exceeded its bound"
        );
    }
    outln!(
        out,
        "verdict: store {} across workers {LONGTERM_WORKERS:?}",
        if outcome.workers_identical {
            "identical"
        } else {
            "DIVERGED"
        }
    );

    let csv = CsvWriter::new(&cfg.out_dir).expect("create output dir");
    let mut rows = vec![vec![
        "tenant".to_string(),
        "cell_start_ms".to_string(),
        "count".to_string(),
        "p99_ns".to_string(),
        "covered".to_string(),
    ]];
    for row in outcome
        .store
        .heatmap(0.99, SimTime::ZERO, outcome.end, outcome.resolution)
    {
        for point in &row.cells {
            rows.push(vec![
                row.tenant.clone(),
                (point.start.as_nanos() / 1_000_000).to_string(),
                point.count.to_string(),
                point.quantile.map_or(String::new(), |q| q.to_string()),
                point.covered.to_string(),
            ]);
        }
    }
    let path = csv
        .write("longterm_stats", &rows)
        .expect("write longterm_stats");
    outln!(out, "wrote {}", path.display());
    out
}
