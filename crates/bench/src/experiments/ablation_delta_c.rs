//! Ablation: sensitivity of the recombination schedulers to the surplus
//! capacity ΔC.
//!
//! The paper provisions `Cmin + ΔC` with `ΔC = 1/δ` and proves Miser can
//! never cause a primary miss when `ΔC = Cmin`. This sweep quantifies the
//! trade-off in between: primary-class compliance and overflow-class
//! latency as ΔC grows from (near) zero to `Cmin`, for both FairQueue and
//! Miser.

use gqos_core::{CapacityPlanner, Provision, RecombinePolicy, WorkloadShaper};
use gqos_sim::ServiceClass;
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::{Iops, SimDuration};

use crate::config::ExpConfig;
use crate::outln;
use crate::output::{CsvWriter, Table};

/// Renders the experiment report and writes `ablation_delta_c.csv`.
pub fn report(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    let deadline = SimDuration::from_millis(50);
    let workload = TraceProfile::WebSearch.generate(cfg.span, cfg.seed);
    let cmin = CapacityPlanner::new(&workload, deadline).min_capacity(0.90);
    outln!(
        out,
        "Ablation: delta_c sweep (WebSearch, 90% @ 50 ms, Cmin = {:.0} IOPS)  [{cfg}]",
        cmin.get()
    );
    outln!(out);

    let fractions_of_cmin = [0.005, 0.02, 0.0662, 0.125, 0.25, 0.5, 1.0];
    // Analytical companion: the RTT-guaranteed fraction if the *whole*
    // provisioned capacity Cmin + ΔC served the primary class — every grid
    // point evaluated in one fused pass over the trace.
    let totals: Vec<Iops> = fractions_of_cmin
        .iter()
        .map(|&f| Iops::new(cmin.get() + (cmin.get() * f).max(1.0)))
        .collect();
    let planned = CapacityPlanner::new(&workload, deadline).fraction_curve(&totals);
    let mut table = Table::new(vec![
        "delta_c".into(),
        "policy".into(),
        "primary within".into(),
        "primary misses".into(),
        "overflow mean".into(),
        "overflow max".into(),
        "rtt bound at total".into(),
    ]);
    let mut csv = vec![vec![
        "delta_c_iops".to_string(),
        "policy".to_string(),
        "primary_within".to_string(),
        "primary_misses".to_string(),
        "overflow_mean_ms".to_string(),
        "overflow_max_ms".to_string(),
        "rtt_bound_at_total".to_string(),
    ]];

    // The (delta_c, policy) cells are independent simulations — fan them
    // over the pool and render in cell order.
    let cells: Vec<(f64, RecombinePolicy)> = fractions_of_cmin
        .iter()
        .flat_map(|&f| [(f, RecombinePolicy::FairQueue), (f, RecombinePolicy::Miser)])
        .collect();
    let reports = cfg.pool.map(cells.clone(), |(frac, policy)| {
        let delta_c = Iops::new((cmin.get() * frac).max(1.0));
        WorkloadShaper::new(Provision::new(cmin, delta_c), deadline).run(&workload, policy)
    });

    for (cell, ((frac, policy), report)) in cells.into_iter().zip(reports).enumerate() {
        let delta_c = Iops::new((cmin.get() * frac).max(1.0));
        let bound = planned[cell / 2]; // two policies per delta_c grid point
        {
            let primary = report.stats_for(ServiceClass::PRIMARY);
            let overflow = report.stats_for(ServiceClass::OVERFLOW);
            let within = primary.fraction_within(deadline);
            let misses = primary.len() - (within * primary.len() as f64).round() as usize;
            let omean = overflow.mean().map(|d| d.as_millis_f64()).unwrap_or(0.0);
            let omax = overflow.max().map(|d| d.as_millis_f64()).unwrap_or(0.0);
            table.row(vec![
                format!("{:.0} ({:.1}% of Cmin)", delta_c.get(), frac * 100.0),
                policy.to_string(),
                format!("{:.3}%", within * 100.0),
                misses.to_string(),
                format!("{omean:.0} ms"),
                format!("{omax:.0} ms"),
                format!("{:.3}%", bound * 100.0),
            ]);
            csv.push(vec![
                format!("{:.0}", delta_c.get()),
                policy.to_string(),
                format!("{within:.5}"),
                misses.to_string(),
                format!("{omean:.1}"),
                format!("{omax:.1}"),
                format!("{bound:.5}"),
            ]);
        }
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "Reading: Miser's slack rule protects the primary class far better at\n\
         small surplus (misses vanish well before the theoretical delta_c = Cmin\n\
         bound), at the cost of a slower overflow class when a long backlog\n\
         builds: FairQueue's reserved share drains sustained overload faster,\n\
         while Miser wins on short burst episodes (Figure 6c's setting)."
    );

    let writer = CsvWriter::new(&cfg.out_dir).expect("create output directory");
    let path = writer.write("ablation_delta_c", &csv).expect("write CSV");
    outln!(out, "wrote {}", path.display());
    out
}
