//! Figure 6 — the four recombination policies compared on WebSearch at
//! constant total capacity `Cmin + ΔC` (ΔC = 1/δ = 20 IOPS):
//!
//! - (a)/(b): bucketed response times (≤50 / ≤100 / ≤500 / ≤1000 / >1000 ms)
//!   at targets (90%, 50 ms) and (95%, 50 ms);
//! - (c): Miser's overflow-class mean/max response time normalised to
//!   FairQueue's.

use gqos_core::{CapacityPlanner, Provision, RecombinePolicy, WorkloadShaper};
use gqos_sim::{RunReport, ServiceClass};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::SimDuration;

use crate::config::ExpConfig;
use crate::outln;
use crate::output::{CsvWriter, Table};
use crate::paper::fig6a_reference;

/// The figure's deadline (ms).
const FIG6_DEADLINE_MS: u64 = 50;
/// The two panel targets.
const FIG6_FRACTIONS: [f64; 2] = [0.90, 0.95];
/// Bucket edges of the paper's histogram, in ms.
const FIG6_BUCKETS_MS: [u64; 4] = [50, 100, 500, 1000];
/// Seeds averaged for panel (c).
const FIG6C_SEEDS: [u64; 4] = [42, 43, 44, 45];

/// One panel: a planned fraction with the four policies' reports.
struct Fig6Panel {
    /// Planned fraction.
    pub fraction: f64,
    /// Planned provision (`Cmin + 20` IOPS).
    pub provision: Provision,
    /// The four reports in [`RecombinePolicy::ALL`] order.
    pub reports: Vec<(RecombinePolicy, RunReport)>,
}

/// Computes both panels, fanning them over [`ExpConfig::pool`].
fn compute(cfg: &ExpConfig) -> Vec<Fig6Panel> {
    let deadline = SimDuration::from_millis(FIG6_DEADLINE_MS);
    let workload = TraceProfile::WebSearch.generate(cfg.span, cfg.seed);
    let planner = CapacityPlanner::new(&workload, deadline);
    cfg.pool().map(FIG6_FRACTIONS.to_vec(), |fraction| {
        let provision = Provision::with_default_surplus(planner.min_capacity(fraction), deadline);
        let shaper = WorkloadShaper::new(provision, deadline);
        Fig6Panel {
            fraction,
            provision,
            reports: shaper.run_all(&workload),
        }
    })
}

/// Renders the experiment report and writes `fig6_schedulers.csv`.
pub fn report(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    outln!(
        out,
        "Figure 6: FCFS vs Split vs FairQueue vs Miser (WebSearch, delta = 50 ms)  [{cfg}]"
    );
    outln!(out);
    let edges: Vec<SimDuration> = FIG6_BUCKETS_MS
        .iter()
        .map(|&ms| SimDuration::from_millis(ms))
        .collect();

    let panels = compute(cfg);
    let mut csv = vec![vec![
        "fraction".to_string(),
        "policy".to_string(),
        "le50".to_string(),
        "le100".to_string(),
        "le500".to_string(),
        "le1000".to_string(),
        "gt1000".to_string(),
    ]];

    for panel in &panels {
        outln!(
            out,
            "Target ({:.0}%, 50 ms), capacity {} (cumulative bucket fractions):",
            panel.fraction * 100.0,
            panel.provision
        );
        let mut table = Table::new(vec![
            "policy".into(),
            "<=50ms".into(),
            "<=100ms".into(),
            "<=500ms".into(),
            "<=1000ms".into(),
            ">1000ms".into(),
            "paper <=50 / >1000".into(),
        ]);
        for (policy, report) in &panel.reports {
            let f = report.stats().bucket_fractions(&edges);
            let mut cumulative = Vec::new();
            let mut acc = 0.0;
            for &v in &f[..4] {
                acc += v;
                cumulative.push(acc);
            }
            let paper = if (panel.fraction - 0.90).abs() < 1e-9 {
                fig6a_reference(&policy.to_string())
                    .map(|r| {
                        format!(
                            "{:.0}% / {:.0}%",
                            r.within_deadline * 100.0,
                            r.beyond_1s * 100.0
                        )
                    })
                    .unwrap_or_default()
            } else {
                String::new()
            };
            table.row(vec![
                policy.to_string(),
                format!("{:.1}%", cumulative[0] * 100.0),
                format!("{:.1}%", cumulative[1] * 100.0),
                format!("{:.1}%", cumulative[2] * 100.0),
                format!("{:.1}%", cumulative[3] * 100.0),
                format!("{:.1}%", f[4] * 100.0),
                paper,
            ]);
            csv.push(vec![
                format!("{:.2}", panel.fraction),
                policy.to_string(),
                format!("{:.4}", f[0]),
                format!("{:.4}", f[1]),
                format!("{:.4}", f[2]),
                format!("{:.4}", f[3]),
                format!("{:.4}", f[4]),
            ]);
        }
        outln!(out, "{}", table.render());
    }

    // Panel (c): Miser's overflow class normalised to FairQueue's. This is
    // sensitive to the burst realization (how saturated the plateaus are),
    // so average over several seeds. The (fraction, seed) cells fan over
    // the pool; the sums accumulate in cell order, so the averages are
    // identical at any thread count.
    outln!(
        out,
        "Figure 6(c): Miser overflow class relative to FairQueue,
         averaged over {} seeds (paper: ~0.85-0.90):",
        FIG6C_SEEDS.len()
    );
    let deadline = SimDuration::from_millis(FIG6_DEADLINE_MS);
    let mut table = Table::new(vec![
        "target".into(),
        "mean ratio".into(),
        "max ratio".into(),
    ]);
    let grid: Vec<(f64, u64)> = FIG6_FRACTIONS
        .iter()
        .flat_map(|&f| FIG6C_SEEDS.iter().map(move |&s| (f, s)))
        .collect();
    let ratios = cfg.pool().map(grid, |(fraction, seed)| {
        let workload = TraceProfile::WebSearch.generate(cfg.span, seed);
        let planner = CapacityPlanner::new(&workload, deadline);
        let provision = Provision::with_default_surplus(planner.min_capacity(fraction), deadline);
        let shaper = WorkloadShaper::new(provision, deadline);
        let fq = shaper
            .run(&workload, RecombinePolicy::FairQueue)
            .stats_for(ServiceClass::OVERFLOW);
        let miser = shaper
            .run(&workload, RecombinePolicy::Miser)
            .stats_for(ServiceClass::OVERFLOW);
        let ratio = |a: Option<SimDuration>, b: Option<SimDuration>| match (a, b) {
            (Some(a), Some(b)) if b > SimDuration::ZERO => a.as_secs_f64() / b.as_secs_f64(),
            _ => f64::NAN,
        };
        (ratio(miser.mean(), fq.mean()), ratio(miser.max(), fq.max()))
    });
    for (i, &fraction) in FIG6_FRACTIONS.iter().enumerate() {
        let per_seed = &ratios[i * FIG6C_SEEDS.len()..(i + 1) * FIG6C_SEEDS.len()];
        let mean_sum: f64 = per_seed.iter().map(|&(m, _)| m).sum();
        let max_sum: f64 = per_seed.iter().map(|&(_, x)| x).sum();
        let mean_ratio = mean_sum / FIG6C_SEEDS.len() as f64;
        let max_ratio = max_sum / FIG6C_SEEDS.len() as f64;
        table.row(vec![
            format!("{:.0}%", fraction * 100.0),
            format!("{mean_ratio:.2}"),
            format!("{max_ratio:.2}"),
        ]);
        csv.push(vec![
            format!("{fraction:.2}"),
            "miser_vs_fq".to_string(),
            format!("{mean_ratio:.4}"),
            format!("{max_ratio:.4}"),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    outln!(out, "{}", table.render());

    let writer = CsvWriter::new(&cfg.out_dir).expect("create output directory");
    let path = writer.write("fig6_schedulers", &csv).expect("write CSV");
    outln!(out, "wrote {}", path.display());
    out
}
