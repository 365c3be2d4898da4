//! Figure 5 — FCFS response-time CDF at 50 ms for higher planned fractions
//! (95% and 99%): raising the guaranteed fraction raises the planned
//! capacity, which also improves the unpartitioned FCFS baseline — but it
//! still undershoots the decomposed guarantee.

use gqos_core::CapacityPlanner;
use gqos_sim::{simulate, FcfsScheduler, FixedRateServer, ResponseStats};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::SimDuration;

use crate::config::ExpConfig;
use crate::experiments::fig4::cdf_points_ms;
use crate::outln;
use crate::output::{CsvWriter, Table};
use crate::paper::fig5_fcfs_fraction;

/// The two planned fractions of the figure.
const FIG5_FRACTIONS: [f64; 2] = [0.95, 0.99];
/// The figure's deadline (ms).
const FIG5_DEADLINE_MS: u64 = 50;

/// One measured cell: workload × planned fraction.
struct Fig5Cell {
    /// The workload.
    pub profile: TraceProfile,
    /// The planned decomposed fraction.
    pub fraction: f64,
    /// Planned capacity `Cmin(f, 50 ms)`.
    pub capacity: f64,
    /// FCFS response-time distribution at that capacity.
    pub stats: ResponseStats,
}

/// Computes all six cells, fanning the `(workload, fraction)` grid over
/// [`ExpConfig::pool`].
///
/// Capacities come from one warm-started [`CapacityPlanner::menu`] sweep
/// per workload — both fractions quoted off a single ascending search over
/// the columnar kernels — instead of an independent `Cmin` search per cell;
/// the quotes are identical (the menu returns the same minimal integer
/// capacities), only the probe work is shared.
fn compute(cfg: &ExpConfig) -> Vec<Fig5Cell> {
    let deadline = SimDuration::from_millis(FIG5_DEADLINE_MS);
    let workloads = cfg.pool.map(TraceProfile::ALL.to_vec(), |profile| {
        (profile, profile.generate(cfg.span, cfg.seed))
    });
    let menus = cfg.pool.map((0..workloads.len()).collect(), |w: usize| {
        CapacityPlanner::new(&workloads[w].1, deadline)
            .menu(&FIG5_FRACTIONS)
            .expect("the Figure 5 fractions are in (0, 1]")
    });
    let grid: Vec<(usize, usize)> = (0..workloads.len())
        .flat_map(|w| (0..FIG5_FRACTIONS.len()).map(move |f| (w, f)))
        .collect();
    cfg.pool.map(grid, |(w, f)| {
        let (profile, ref workload) = workloads[w];
        let capacity = menus[w][f].cmin;
        let report = simulate(
            workload,
            FcfsScheduler::new(),
            FixedRateServer::new(capacity),
        );
        Fig5Cell {
            profile,
            fraction: FIG5_FRACTIONS[f],
            capacity: capacity.get(),
            stats: report.stats(),
        }
    })
}

/// Renders the experiment report and writes `fig5_fcfs_cdf.csv`.
pub fn report(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    outln!(
        out,
        "Figure 5: FCFS CDF at Cmin(f, 50 ms), f in {{95%, 99%}}  [{cfg}]"
    );
    outln!(out);
    let cells = compute(cfg);
    let deadline = SimDuration::from_millis(FIG5_DEADLINE_MS);

    let mut table = Table::new(vec![
        "workload".into(),
        "planned f".into(),
        "C (ours)".into(),
        "FCFS within 50 ms (ours)".into(),
        "(paper)".into(),
    ]);
    for cell in &cells {
        let ours = cell.stats.fraction_within(deadline);
        let paper = fig5_fcfs_fraction(cell.profile, cell.fraction)
            .map(|v| format!("{:.0}%", v * 100.0))
            .unwrap_or_default();
        table.row(vec![
            cell.profile.abbrev().into(),
            format!("{:.0}%", cell.fraction * 100.0),
            format!("{:.0}", cell.capacity),
            format!("{:.0}%", ours * 100.0),
            paper,
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "Shape check: FCFS compliance rises with the planned fraction (more\n\
         capacity) but stays below the decomposed guarantee in every cell."
    );

    let mut rows = vec![vec![
        "workload".to_string(),
        "planned_fraction".to_string(),
        "response_ms".to_string(),
        "fraction".to_string(),
    ]];
    for cell in &cells {
        for &p in &cdf_points_ms() {
            let f = cell
                .stats
                .fraction_within(SimDuration::from_micros((p * 1000.0) as u64));
            rows.push(vec![
                cell.profile.abbrev().to_string(),
                format!("{:.2}", cell.fraction),
                format!("{p:.1}"),
                format!("{f:.4}"),
            ]);
        }
    }
    let writer = CsvWriter::new(&cfg.out_dir).expect("create output directory");
    let path = writer.write("fig5_fcfs_cdf", &rows).expect("write CSV");
    outln!(out, "wrote {}", path.display());
    out
}
