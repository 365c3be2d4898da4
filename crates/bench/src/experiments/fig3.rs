//! Figure 3 — the decomposition model on a small example: cumulative
//! arrival curve, service curve, Service Curve Limit, and RTT's drop
//! decisions.
//!
//! The paper's Figure 3 illustrates the mechanics on a toy arrival pattern:
//! where the arrival staircase climbs above the SCL (the service curve
//! shifted up by `C·δ`), some requests *must* miss, and RTT drops exactly
//! at those instants. This experiment regenerates that picture as data: the
//! curves as a time series plus the per-request accept/divert decisions.

use gqos_core::{decompose, optimal_drop_lower_bound};
use gqos_sim::ServiceClass;
use gqos_trace::{ArrivalCurve, Iops, ServiceAnalysis, SimDuration, SimTime, Workload};

use crate::config::ExpConfig;
use crate::outln;
use crate::output::{CsvWriter, Table};

/// Renders the experiment report and writes `fig3_scl.csv`.
pub fn report(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    // A Figure 3-flavoured toy pattern: C = 1 req/s, δ = 1 s, with bursts
    // at t = 1 s and t = 2 s that overflow the SCL.
    let capacity = Iops::new(1.0);
    let deadline = SimDuration::from_secs(1);
    let arrivals: Vec<SimTime> = vec![
        SimTime::from_secs(0),
        SimTime::from_secs(1),
        SimTime::from_secs(1),
        SimTime::from_secs(2),
        SimTime::from_secs(2),
        SimTime::from_secs(3),
    ];
    let workload = Workload::from_arrivals(arrivals);

    outln!(
        out,
        "Figure 3: arrival curve vs Service Curve Limit (C = 1/s, delta = 1 s)"
    );
    outln!(out);

    let curve = ArrivalCurve::new(&workload);
    let analysis = ServiceAnalysis::new(&workload, capacity, deadline);
    let decomposition = decompose(&workload, capacity, deadline);

    let mut table = Table::new(vec![
        "t (s)".into(),
        "A(t)".into(),
        "SCL(t)".into(),
        "overload".into(),
    ]);
    let mut csv = vec![vec![
        "t_s".to_string(),
        "arrivals".to_string(),
        "scl".to_string(),
        "overload".to_string(),
    ]];
    // SCL(t) = C·t + C·δ within the busy period starting at 0.
    for t in 0..=4u64 {
        let at = SimTime::from_secs(t);
        let a = curve.cumulative_at(at);
        let scl = capacity.get() * t as f64 + capacity.get() * deadline.as_secs_f64();
        let over = a as f64 > scl;
        table.row(vec![
            t.to_string(),
            a.to_string(),
            format!("{scl:.0}"),
            if over { "OVER".into() } else { String::new() },
        ]);
        csv.push(vec![
            t.to_string(),
            a.to_string(),
            format!("{scl:.1}"),
            (over as u8).to_string(),
        ]);
    }
    outln!(out, "{}", table.render());

    outln!(out, "RTT decisions (request -> class):");
    for (i, r) in workload.iter().enumerate() {
        let class = decomposition.assignments()[i];
        outln!(
            out,
            "  request {} @ {}: {}",
            i,
            r.arrival,
            if class == ServiceClass::PRIMARY {
                "Q1 (guaranteed)"
            } else {
                "Q2 (diverted)  <- SCL overflow"
            }
        );
    }
    outln!(out);
    outln!(
        out,
        "dropped {} of {} (Lemma 1 lower bound: {}; overload instants: {})",
        decomposition.overflow_count(),
        workload.len(),
        optimal_drop_lower_bound(&workload, capacity, deadline),
        analysis
            .overload_instants()
            .iter()
            .map(|(t, n)| format!("{n}@{t}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    outln!(
        out,
        "Shape check (paper Fig 3): the two SCL crossings force exactly two\n\
         diverted requests, and RTT diverts at precisely those instants."
    );

    let writer = CsvWriter::new(&cfg.out_dir).expect("create output directory");
    let path = writer.write("fig3_scl", &csv).expect("write CSV");
    outln!(out, "wrote {}", path.display());
    out
}
