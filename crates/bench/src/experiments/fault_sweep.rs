//! Fault sweep — graceful QoS degradation under an increasingly unhealthy
//! server.
//!
//! For a grid of fault severities, a seeded [`FaultSchedule`] (transient
//! slowdowns, a RAID-rebuild-style ramp, outages and latency jitter at high
//! severity) degrades the server while the four recombination policies run
//! with the graduated-degradation control loop active. The sweep reports,
//! per `(severity, policy)` cell, the achieved guaranteed fraction, the
//! Q1 miss fraction, the class split, and how far the controller
//! renegotiated the guarantee.
//!
//! Determinism: the schedule for a severity is derived from
//! `(cfg.seed, severity index)` only — the same schedule hits all four
//! policies, the `(severity, policy)` cells fan over the worker pool in a
//! fixed order, and output is byte-identical at any thread count.

use gqos_core::{CapacityPlanner, Provision, RecombinePolicy, WorkloadShaper};
use gqos_faults::FaultSchedule;
use gqos_sim::ServiceClass;
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::SimDuration;

use crate::config::ExpConfig;
use crate::outln;
use crate::output::{CsvWriter, Table};

/// The sweep's deadline (ms) — same as Figure 6.
pub const SWEEP_DEADLINE_MS: u64 = 50;
/// The planned guaranteed fraction.
pub const SWEEP_FRACTION: f64 = 0.90;
/// Fault severities swept, from healthy to heavily faulted.
const SWEEP_SEVERITIES: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];

/// One `(severity, policy)` cell of the sweep.
pub struct FaultCell {
    /// Fault severity in `[0, 1]`.
    pub severity: f64,
    /// Recombination policy.
    pub policy: RecombinePolicy,
    /// Whole-workload fraction meeting the deadline.
    pub achieved_fraction: f64,
    /// Fraction of Q1 (primary) completions missing the deadline.
    pub q1_miss_fraction: f64,
    /// Primary completions.
    pub q1_completed: usize,
    /// Overflow completions.
    pub q2_completed: usize,
    /// Deepest capacity fraction the controller negotiated down to
    /// (1.0 = never degraded).
    pub min_negotiated_factor: f64,
}

/// The per-severity schedule seed: derived from the experiment seed and the
/// severity index only, so every policy (and any thread count) sees the
/// identical fault timeline.
fn schedule_seed(cfg_seed: u64, severity_index: usize) -> u64 {
    cfg_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(severity_index as u64)
}

/// Computes the sweep grid, fanning cells over [`ExpConfig::pool`].
pub fn compute(cfg: &ExpConfig) -> Vec<FaultCell> {
    let deadline = SimDuration::from_millis(SWEEP_DEADLINE_MS);
    let workload = TraceProfile::WebSearch.generate(cfg.span, cfg.seed);
    let planner = CapacityPlanner::new(&workload, deadline);
    let provision = Provision::with_default_surplus(planner.min_capacity(SWEEP_FRACTION), deadline);

    let grid: Vec<(usize, f64, RecombinePolicy)> = SWEEP_SEVERITIES
        .iter()
        .enumerate()
        .flat_map(|(i, &sev)| RecombinePolicy::ALL.iter().map(move |&p| (i, sev, p)))
        .collect();

    cfg.pool().map(grid, move |(index, severity, policy)| {
        let workload = TraceProfile::WebSearch.generate(cfg.span, cfg.seed);
        let span = workload.span().max(SimDuration::from_secs(1));
        let schedule = FaultSchedule::generate(schedule_seed(cfg.seed, index), span, severity);
        let shaper = WorkloadShaper::new(provision, deadline);
        let (report, admissions) = shaper.run_with_faults_logged(&workload, policy, &schedule);
        FaultCell {
            severity,
            policy,
            achieved_fraction: report.stats().fraction_within(deadline),
            q1_miss_fraction: report.miss_fraction(ServiceClass::PRIMARY, deadline),
            q1_completed: report.completed_in(ServiceClass::PRIMARY),
            q2_completed: report.completed_in(ServiceClass::OVERFLOW),
            min_negotiated_factor: admissions.iter().map(|r| r.factor).fold(1.0f64, f64::min),
        }
    })
}

/// Renders the sweep report and writes `fault_sweep.csv`.
pub fn report(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    outln!(
        out,
        "Fault sweep: graceful degradation vs fault severity (WebSearch, \
         target {:.0}% within {SWEEP_DEADLINE_MS} ms)  [{cfg}]",
        SWEEP_FRACTION * 100.0
    );
    outln!(out);

    let cells = compute(cfg);
    let mut csv = vec![vec![
        "severity".to_string(),
        "policy".to_string(),
        "achieved_f".to_string(),
        "q1_miss_fraction".to_string(),
        "q1_completed".to_string(),
        "q2_completed".to_string(),
        "min_negotiated_factor".to_string(),
    ]];

    let per_severity = RecombinePolicy::ALL.len();
    for (i, &severity) in SWEEP_SEVERITIES.iter().enumerate() {
        outln!(out, "Severity {severity:.1}:");
        let mut table = Table::new(vec![
            "policy".into(),
            "achieved f".into(),
            "Q1 miss".into(),
            "Q1/Q2 served".into(),
            "min factor".into(),
        ]);
        for cell in &cells[i * per_severity..(i + 1) * per_severity] {
            table.row(vec![
                cell.policy.to_string(),
                format!("{:.1}%", cell.achieved_fraction * 100.0),
                format!("{:.2}%", cell.q1_miss_fraction * 100.0),
                format!("{}/{}", cell.q1_completed, cell.q2_completed),
                format!("{:.2}", cell.min_negotiated_factor),
            ]);
            csv.push(vec![
                format!("{severity:.2}"),
                cell.policy.to_string(),
                format!("{:.4}", cell.achieved_fraction),
                format!("{:.4}", cell.q1_miss_fraction),
                cell.q1_completed.to_string(),
                cell.q2_completed.to_string(),
                format!("{:.4}", cell.min_negotiated_factor),
            ]);
        }
        outln!(out, "{}", table.render());
    }

    let writer = CsvWriter::new(&cfg.out_dir).expect("create output directory");
    let path = writer.write("fault_sweep", &csv).expect("write CSV");
    outln!(out, "wrote {}", path.display());
    out
}
