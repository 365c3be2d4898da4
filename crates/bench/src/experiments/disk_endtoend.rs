//! Extension experiment: the headline scheduler comparison re-run on the
//! mechanical disk model instead of the paper's constant-rate server.
//!
//! The paper's evaluation (like its analysis) abstracts the device as a
//! fixed `C` IOPS server. Real disks serve at a rate that depends on
//! locality and cache hits. This experiment repeats the Figure 6-style
//! FCFS / Split / FairQueue / Miser comparison with every server replaced
//! by a seek+rotation+transfer disk (with an LRU cache), showing that the
//! conclusions — shaped policies protect the primary class where FCFS
//! collapses; shared-server recombination beats dedicated splitting —
//! survive a fluctuating-capacity service process.

use gqos_core::{Provision, RecombinePolicy};
use gqos_disk::{CachedDisk, DiskModel};
use gqos_sim::{RunReport, ServiceClass, Simulation, TraceHandle};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::{Iops, SimDuration, Workload};

use crate::config::ExpConfig;
use crate::outln;
use crate::output::{CsvWriter, Table};

fn disk(seed: u64) -> CachedDisk<DiskModel> {
    CachedDisk::new(
        DiskModel::builder().seed(seed).build(),
        4096,
        SimDuration::from_micros(60),
    )
}

/// Renders the experiment report and writes `disk_endtoend.csv`.
pub fn report(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    let deadline = SimDuration::from_millis(50);
    // A mechanical disk with a warm cache sustains a few hundred IOPS on
    // this mix; scale FinTrans to fit and provision the primary class at a
    // disk-feasible nominal rate.
    let workload: Workload = TraceProfile::FinTrans
        .generate(cfg.span, cfg.seed)
        .time_scaled(1.2);
    let provision = Provision::new(Iops::new(120.0), Iops::new(60.0));

    outln!(
        out,
        "Disk end-to-end: policies on a mechanical disk (FinTrans/1.2, {} requests,\n\
         mean {:.0} IOPS offered, nominal provision {provision}, delta = 50 ms)  [{cfg}]",
        workload.len(),
        workload.mean_iops()
    );
    outln!(out);

    // Each policy's servers become disks, seeded 1, 2, … in server order.
    let mut seed = 0;
    let runs: Vec<(RecombinePolicy, RunReport)> = RecombinePolicy::ALL
        .iter()
        .map(|&policy| {
            let (scheduler, rates) = policy.parts(provision, deadline, &TraceHandle::disabled());
            let mut sim = Simulation::new(&workload, scheduler);
            for _ in rates {
                seed += 1;
                sim = sim.server(disk(seed));
            }
            (policy, sim.run())
        })
        .collect();

    let mut table = Table::new(vec![
        "policy".into(),
        "all within 50ms".into(),
        "primary within 50ms".into(),
        "overflow mean".into(),
        "p99".into(),
    ]);
    let mut csv = vec![vec![
        "policy".to_string(),
        "all_within".to_string(),
        "primary_within".to_string(),
        "overflow_mean_ms".to_string(),
        "p99_ms".to_string(),
    ]];
    for (policy, report) in &runs {
        let all = report.stats();
        let primary = report.stats_for(ServiceClass::PRIMARY);
        let overflow = report.stats_for(ServiceClass::OVERFLOW);
        let omean = overflow.mean().map(|d| d.as_millis_f64()).unwrap_or(0.0);
        table.row(vec![
            policy.to_string(),
            format!("{:.1}%", all.fraction_within(deadline) * 100.0),
            format!("{:.1}%", primary.fraction_within(deadline) * 100.0),
            if overflow.is_empty() {
                "-".into()
            } else {
                format!("{omean:.0} ms")
            },
            format!("{:.0} ms", all.percentile(0.99).as_millis_f64()),
        ]);
        csv.push(vec![
            policy.to_string(),
            format!("{:.4}", all.fraction_within(deadline)),
            format!("{:.4}", primary.fraction_within(deadline)),
            format!("{omean:.1}"),
            format!("{:.1}", all.percentile(0.99).as_millis_f64()),
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "Reading: the shaped policies keep their primary class near its bound on\n\
         a device whose service rate fluctuates with locality and cache hits; the\n\
         constant-rate abstraction in the paper's analysis is not load-bearing."
    );

    let writer = CsvWriter::new(&cfg.out_dir).expect("create output directory");
    let path = writer.write("disk_endtoend", &csv).expect("write CSV");
    outln!(out, "wrote {}", path.display());
    out
}
