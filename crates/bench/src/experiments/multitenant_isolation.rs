//! Extension experiment: cross-tenant isolation on a shared server.
//!
//! The paper's setting is a data center serving several rate-controlled
//! clients at once. This experiment puts the three profile workloads on one
//! server, planned at (90%, 20 ms) each, and compares:
//!
//! - **shared FCFS** — no isolation, no decomposition (one queue);
//! - **two-level shaping** — per-tenant RTT decomposition + fair queueing
//!   across tenants ([`MultiTenantScheduler`]).
//!
//! The question: when OpenMail bursts, what happens to WebSearch's and
//! FinTrans' response times?

use gqos_core::{
    merge_tenants, CapacityPlanner, MultiTenantScheduler, Provision, TenantConfig, TenantId,
};
use gqos_sim::{simulate, FcfsScheduler, FixedRateServer};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::SimDuration;

use crate::config::ExpConfig;
use crate::outln;
use crate::output::{CsvWriter, Table};

/// Renders the experiment report and writes `multitenant_isolation.csv`.
pub fn report(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    let deadline = SimDuration::from_millis(20);
    outln!(
        out,
        "Multi-tenant isolation: three tenants, one server (delta = 20 ms)  [{cfg}]"
    );
    outln!(out);

    // Per-tenant planning at (90%, 20 ms).
    let workloads: Vec<_> = TraceProfile::ALL
        .iter()
        .map(|p| p.generate(cfg.span, cfg.seed.wrapping_add(p.abbrev().len() as u64)))
        .collect();
    let configs: Vec<TenantConfig> = workloads
        .iter()
        .map(|w| {
            let cmin = CapacityPlanner::new(w, deadline).min_capacity(0.90);
            TenantConfig::new(Provision::with_default_surplus(cmin, deadline), deadline)
        })
        .collect();
    let refs: Vec<&gqos_trace::Workload> = workloads.iter().collect();
    let (merged, owners) = merge_tenants(&refs);
    let scheduler = MultiTenantScheduler::new(configs.clone(), owners);
    let capacity = scheduler.required_capacity();
    outln!(
        out,
        "{} merged requests; tenant provisions sum to {:.0} IOPS",
        merged.len(),
        capacity.get()
    );
    outln!(out);

    // Shared FCFS at the identical total capacity.
    let fcfs = simulate(
        &merged,
        FcfsScheduler::new(),
        FixedRateServer::new(capacity),
    );
    let shaped = simulate(&merged, scheduler, FixedRateServer::new(capacity));

    let mut table = Table::new(vec![
        "tenant".into(),
        "provision".into(),
        "FCFS within 20ms (all)".into(),
        "shaped primary within 20ms".into(),
        "shaped overflow share".into(),
    ]);
    let mut csv = vec![vec![
        "tenant".to_string(),
        "cmin_iops".to_string(),
        "fcfs_within".to_string(),
        "shaped_primary_within".to_string(),
        "overflow_share".to_string(),
    ]];

    // FCFS has no per-tenant classes; its single number applies to all.
    let fcfs_within = fcfs.stats().fraction_within(deadline);

    for (i, profile) in TraceProfile::ALL.iter().enumerate() {
        let t = TenantId::new(i);
        let primary = shaped.stats_for(t.primary_class());
        let overflow_n = shaped.completed_in(t.overflow_class());
        let total = primary.len() + overflow_n;
        let within = primary.fraction_within(deadline);
        let overflow_share = overflow_n as f64 / total.max(1) as f64;
        table.row(vec![
            profile.abbrev().into(),
            configs[i].provision.to_string(),
            format!("{:.1}%", fcfs_within * 100.0),
            format!("{:.1}%", within * 100.0),
            format!("{:.1}%", overflow_share * 100.0),
        ]);
        csv.push(vec![
            profile.abbrev().into(),
            format!("{:.0}", configs[i].provision.cmin().get()),
            format!("{fcfs_within:.4}"),
            format!("{within:.4}"),
            format!("{overflow_share:.4}"),
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "Reading: under shared FCFS every tenant eats every other tenant's\n\
         bursts; under two-level shaping each tenant's guaranteed class holds\n\
         its own deadline and bursts stay in the burster's overflow class."
    );

    let writer = CsvWriter::new(&cfg.out_dir).expect("create output directory");
    let path = writer
        .write("multitenant_isolation", &csv)
        .expect("write CSV");
    outln!(out, "wrote {}", path.display());
    out
}
