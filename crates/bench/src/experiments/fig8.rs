//! Figure 8 — multiplexing pairs of *different* workloads (δ = 10 ms):
//! WS+FT, FT+OM, OM+WS, comparing the additive capacity estimate against
//! the true requirement of the merged stream, at f = 100% (traditional)
//! and f = 90% / 95% (decomposed).

use gqos_core::{ConsolidationReport, ConsolidationStudy, QosTarget};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::SimDuration;

use crate::config::ExpConfig;
use crate::outln;
use crate::output::{CsvWriter, Table};
use crate::paper::{FIG8_DECOMPOSED_ERROR, FIG8_RATIO_100PCT};

/// The figure's deadline (ms).
const FIG8_DEADLINE_MS: u64 = 10;
/// The three provisioning fractions of the panels.
const FIG8_FRACTIONS: [f64; 3] = [1.0, 0.90, 0.95];

/// The paper's pair order: WS+FT, FT+OM, OM+WS.
const FIG8_PAIRS: [(TraceProfile, TraceProfile); 3] = [
    (TraceProfile::WebSearch, TraceProfile::FinTrans),
    (TraceProfile::FinTrans, TraceProfile::OpenMail),
    (TraceProfile::OpenMail, TraceProfile::WebSearch),
];

/// One measured cell: pair × fraction.
struct Fig8Cell {
    /// Index into [`FIG8_PAIRS`].
    pub pair: usize,
    /// Provisioning fraction.
    pub fraction: f64,
    /// Estimate-versus-actual comparison.
    pub report: ConsolidationReport,
}

/// Computes all cells, fanning the `(pair, fraction)` grid over
/// [`ExpConfig::pool`].
fn compute(cfg: &ExpConfig) -> Vec<Fig8Cell> {
    let deadline = SimDuration::from_millis(FIG8_DEADLINE_MS);
    let pairs = cfg.pool.map(FIG8_PAIRS.to_vec(), |(a, b)| {
        // Distinct seeds so the two clients are independent processes.
        (
            a.generate(cfg.span, cfg.seed),
            b.generate(cfg.span, cfg.seed.wrapping_add(1)),
        )
    });
    let grid: Vec<(usize, f64)> = (0..pairs.len())
        .flat_map(|i| FIG8_FRACTIONS.iter().map(move |&f| (i, f)))
        .collect();
    cfg.pool.map(grid, |(i, fraction)| {
        let (ref wa, ref wb) = pairs[i];
        let study = ConsolidationStudy::new(QosTarget::new(fraction, deadline));
        Fig8Cell {
            pair: i,
            fraction,
            report: study.compare(&[wa, wb]).expect("a pair is two clients"),
        }
    })
}

fn pair_name(i: usize) -> String {
    let (a, b) = FIG8_PAIRS[i];
    format!("{}+{}", a.abbrev(), b.abbrev())
}

/// Renders the experiment report and writes `fig8_diff_mux.csv`.
pub fn report(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    outln!(
        out,
        "Figure 8: different-workload multiplexing (delta = 10 ms)  [{cfg}]"
    );
    outln!(out);

    let cells = compute(cfg);
    let mut csv = vec![vec![
        "pair".to_string(),
        "fraction".to_string(),
        "estimate_iops".to_string(),
        "actual_iops".to_string(),
        "ratio".to_string(),
    ]];

    let mut table = Table::new(vec![
        "pair".into(),
        "f".into(),
        "estimate".into(),
        "actual".into(),
        "actual/est".into(),
        "paper".into(),
    ]);
    for cell in &cells {
        let paper = if cell.fraction == 1.0 {
            format!("ratio {:.2}", FIG8_RATIO_100PCT[cell.pair])
        } else {
            let (e90, e95) = FIG8_DECOMPOSED_ERROR[cell.pair];
            let v = if (cell.fraction - 0.90).abs() < 1e-9 {
                e90
            } else {
                e95
            };
            format!("err {:.1}%", v * 100.0)
        };
        table.row(vec![
            pair_name(cell.pair),
            format!("{:.0}%", cell.fraction * 100.0),
            format!("{:.0}", cell.report.estimate.get()),
            format!("{:.0}", cell.report.actual.get()),
            format!("{:.2}", cell.report.ratio()),
            paper,
        ]);
        csv.push(vec![
            pair_name(cell.pair),
            format!("{:.2}", cell.fraction),
            format!("{:.0}", cell.report.estimate.get()),
            format!("{:.0}", cell.report.actual.get()),
            format!("{:.4}", cell.report.ratio()),
        ]);
    }
    outln!(out, "{}", table.render());
    // The decomposed panels' claim, measured: the worst relative error of
    // the additive estimate at f = 90% / 95%, beside the paper's worst.
    let worst = cells
        .iter()
        .filter(|cell| cell.fraction < 1.0)
        .map(|cell| (cell.report.ratio() - 1.0).abs())
        .fold(0.0, f64::max);
    let paper_worst = FIG8_DECOMPOSED_ERROR
        .iter()
        .flat_map(|&(e90, e95)| [e90, e95])
        .fold(0.0, f64::max);
    outln!(
        out,
        "Shape check: decomposed estimates (f = 90%/95%) miss the actual\n\
         requirement by up to {:.1}% (paper: up to {:.1}%); the f = 100% estimate\n\
         over-provisions, least so for pairs dominated by one workload's huge\n\
         peak (paper: FT+OM, OM+WS).",
        worst * 100.0,
        paper_worst * 100.0
    );

    let writer = CsvWriter::new(&cfg.out_dir).expect("create output directory");
    let path = writer.write("fig8_diff_mux", &csv).expect("write CSV");
    outln!(out, "wrote {}", path.display());
    out
}
