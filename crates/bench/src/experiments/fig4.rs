//! Figure 4 — response-time CDF of plain FCFS at the capacity that would
//! serve 90% of the workload within δ *if decomposed*.
//!
//! The point of the figure: without decomposition, bursts spill over and
//! the unpartitioned workload meets the deadline far less often than the
//! 90% the same capacity guarantees with RTT — and more relaxed deadlines
//! make FCFS *worse*, because the planned capacity shrinks while queues
//! drain slower.

use gqos_core::CapacityPlanner;
use gqos_sim::{simulate, FcfsScheduler, FixedRateServer, ResponseStats};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::SimDuration;

use crate::config::ExpConfig;
use crate::outln;
use crate::output::{CsvWriter, Table};
use crate::paper::fig4_fcfs_fraction;

/// Deadlines of the three panels, in milliseconds.
const FIG4_DEADLINES_MS: [u64; 3] = [10, 20, 50];
/// The decomposed fraction the capacity is planned for.
const FIG4_FRACTION: f64 = 0.90;

/// One measured cell: workload × deadline.
struct Fig4Cell {
    /// The workload.
    pub profile: TraceProfile,
    /// Deadline in ms.
    pub deadline_ms: u64,
    /// Planned capacity `Cmin(90%, δ)`.
    pub capacity: f64,
    /// FCFS response-time distribution at that capacity.
    pub stats: ResponseStats,
}

/// Computes all nine cells, fanning the `(workload, deadline)` grid over
/// [`ExpConfig::pool`].
fn compute(cfg: &ExpConfig) -> Vec<Fig4Cell> {
    let workloads = cfg.pool.map(TraceProfile::ALL.to_vec(), |profile| {
        (profile, profile.generate(cfg.span, cfg.seed))
    });
    let grid: Vec<(usize, u64)> = (0..workloads.len())
        .flat_map(|w| FIG4_DEADLINES_MS.iter().map(move |&d| (w, d)))
        .collect();
    cfg.pool.map(grid, |(w, deadline_ms)| {
        let (profile, ref workload) = workloads[w];
        let deadline = SimDuration::from_millis(deadline_ms);
        let capacity = CapacityPlanner::new(workload, deadline).min_capacity(FIG4_FRACTION);
        let report = simulate(
            workload,
            FcfsScheduler::new(),
            FixedRateServer::new(capacity),
        );
        Fig4Cell {
            profile,
            deadline_ms,
            capacity: capacity.get(),
            stats: report.stats(),
        }
    })
}

/// Log-spaced response-time points for the CDF export (ms).
pub fn cdf_points_ms() -> Vec<f64> {
    let mut points = Vec::new();
    let mut v: f64 = 1.0;
    while v <= 100_000.0 {
        for m in [1.0, 1.5, 2.0, 3.0, 5.0, 7.0] {
            points.push(v * m);
        }
        v *= 10.0;
    }
    points
}

/// Renders the fraction-within-deadline comparison and writes
/// `fig4_fcfs_cdf.csv`.
pub fn report(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    outln!(
        out,
        "Figure 4: FCFS response-time CDF at Cmin(90%, delta)  [{cfg}]"
    );
    outln!(out);
    let cells = compute(cfg);

    let mut table = Table::new(vec![
        "workload".into(),
        "delta".into(),
        "C (ours)".into(),
        "FCFS within delta (ours)".into(),
        "(paper)".into(),
        "decomposed".into(),
    ]);
    for cell in &cells {
        let deadline = SimDuration::from_millis(cell.deadline_ms);
        let ours = cell.stats.fraction_within(deadline);
        let paper = fig4_fcfs_fraction(cell.profile, cell.deadline_ms)
            .map(|v| format!("{:.0}%", v * 100.0))
            .unwrap_or_default();
        table.row(vec![
            cell.profile.abbrev().into(),
            format!("{} ms", cell.deadline_ms),
            format!("{:.0}", cell.capacity),
            format!("{:.0}%", ours * 100.0),
            paper,
            "90%".into(),
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "Shape check: every FCFS cell sits far below the 90% the same capacity\n\
         achieves with decomposition, and WS degrades as delta relaxes."
    );

    let mut rows = vec![vec![
        "workload".to_string(),
        "deadline_ms".to_string(),
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
                cell.deadline_ms.to_string(),
                format!("{p:.1}"),
                format!("{f:.4}"),
            ]);
        }
    }
    let writer = CsvWriter::new(&cfg.out_dir).expect("create output directory");
    let path = writer.write("fig4_fcfs_cdf", &rows).expect("write CSV");
    outln!(out, "wrote {}", path.display());
    out
}
