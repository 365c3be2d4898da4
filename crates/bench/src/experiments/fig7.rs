//! Figure 7 — multiplexing two instances of the *same* workload, one
//! shifted in time by 1 s or 100 s (δ = 10 ms):
//!
//! - (a) traditional provisioning (f = 100%): the additive estimate
//!   over-provisions badly, because shifted bursts never align;
//! - (b)/(c) decomposed provisioning (f = 90% / 95%): the additive estimate
//!   of the reshaped workloads is accurate to within a few percent.

use gqos_core::{ConsolidationReport, ConsolidationStudy, QosTarget};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::SimDuration;

use crate::config::ExpConfig;
use crate::outln;
use crate::output::{CsvWriter, Table};
use crate::paper::{fig7_decomposed_error, fig7_ratio_100pct};

/// The figure's deadline (ms).
const FIG7_DEADLINE_MS: u64 = 10;
/// The three provisioning fractions of the panels.
const FIG7_FRACTIONS: [f64; 3] = [1.0, 0.90, 0.95];
/// The two time shifts, in seconds.
const FIG7_SHIFTS_S: [u64; 2] = [1, 100];

/// One measured cell: workload × fraction × shift.
struct Fig7Cell {
    /// The duplicated workload.
    pub profile: TraceProfile,
    /// Provisioning fraction.
    pub fraction: f64,
    /// Shift applied to the second copy, in seconds.
    pub shift_s: u64,
    /// Estimate-versus-actual comparison.
    pub report: ConsolidationReport,
}

/// Computes all cells, fanning the `(workload, fraction, shift)` grid over
/// [`ExpConfig::pool`].
fn compute(cfg: &ExpConfig) -> Vec<Fig7Cell> {
    let deadline = SimDuration::from_millis(FIG7_DEADLINE_MS);
    let workloads = cfg.pool().map(TraceProfile::ALL.to_vec(), |profile| {
        (profile, profile.generate(cfg.span, cfg.seed))
    });
    let grid: Vec<(usize, f64, u64)> = (0..workloads.len())
        .flat_map(|w| {
            FIG7_FRACTIONS
                .iter()
                .flat_map(move |&f| FIG7_SHIFTS_S.iter().map(move |&s| (w, f, s)))
        })
        .collect();
    cfg.pool().map(grid, |(w, fraction, shift_s)| {
        let (profile, ref workload) = workloads[w];
        let study = ConsolidationStudy::new(QosTarget::new(fraction, deadline));
        let report = study.compare_shifted(workload, SimDuration::from_secs(shift_s));
        Fig7Cell {
            profile,
            fraction,
            shift_s,
            report,
        }
    })
}

/// Renders the experiment report and writes `fig7_same_mux.csv`.
pub fn report(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    outln!(
        out,
        "Figure 7: same-workload multiplexing (delta = 10 ms)  [{cfg}]"
    );
    outln!(out);

    let cells = compute(cfg);
    let mut csv = vec![vec![
        "pair".to_string(),
        "fraction".to_string(),
        "shift_s".to_string(),
        "estimate_iops".to_string(),
        "actual_iops".to_string(),
        "ratio".to_string(),
    ]];

    let mut table = Table::new(vec![
        "pair".into(),
        "f".into(),
        "shift".into(),
        "estimate".into(),
        "actual".into(),
        "actual/est".into(),
        "paper".into(),
    ]);
    for cell in &cells {
        let paper = if cell.fraction == 1.0 {
            let (s1, s100) = fig7_ratio_100pct(cell.profile);
            let v = if cell.shift_s == 1 { s1 } else { s100 };
            format!("ratio {v:.2}")
        } else {
            let (e90, e95) = fig7_decomposed_error(cell.profile);
            let v = if (cell.fraction - 0.90).abs() < 1e-9 {
                e90
            } else {
                e95
            };
            format!("err {:.1}%", v * 100.0)
        };
        table.row(vec![
            format!("{0}+{0}", cell.profile.abbrev()),
            format!("{:.0}%", cell.fraction * 100.0),
            format!("{}s", cell.shift_s),
            format!("{:.0}", cell.report.estimate.get()),
            format!("{:.0}", cell.report.actual.get()),
            format!("{:.2}", cell.report.ratio()),
            paper,
        ]);
        csv.push(vec![
            format!("{0}+{0}", cell.profile.abbrev()),
            format!("{:.2}", cell.fraction),
            cell.shift_s.to_string(),
            format!("{:.0}", cell.report.estimate.get()),
            format!("{:.0}", cell.report.actual.get()),
            format!("{:.4}", cell.report.ratio()),
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "Shape check: at f = 100% the additive estimate over-provisions\n\
         (ratio well below 1); at f = 90%/95% the estimate is nearly exact."
    );

    let writer = CsvWriter::new(&cfg.out_dir).expect("create output directory");
    let path = writer.write("fig7_same_mux", &csv).expect("write CSV");
    outln!(out, "wrote {}", path.display());
    out
}
