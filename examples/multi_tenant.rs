//! Multi-tenant shaping: three clients with different SLAs on one server.
//!
//! The paper's data-center setting end to end: admit each tenant only if
//! the exact consolidated requirement of the merged workload fits a
//! capacity budget, plan each admitted tenant's provision, then serve them
//! through the two-level scheduler (per-tenant RTT decomposition + fair
//! queueing across tenants) and verify that every tenant's primary class
//! meets its own deadline — even while one tenant bursts violently.
//!
//! Run with: `cargo run --release --example multi_tenant`

use gqos::core::{merge_tenants, MultiTenantScheduler, ServerBin, TenantConfig, TenantId};
use gqos::sim::{simulate, FixedRateServer};
use gqos::trace::gen::profiles::TraceProfile;
use gqos::{CapacityPlanner, Iops, QosTarget, SimDuration, Workload};

fn main() {
    let span = SimDuration::from_secs(120);
    let deadline = SimDuration::from_millis(20);
    let target = QosTarget::new(0.90, deadline);
    let budget = Iops::new(2500.0);

    // Three tenants with very different workload characters.
    let tenants = [
        ("search", TraceProfile::WebSearch.generate(span, 1)),
        ("oltp", TraceProfile::FinTrans.generate(span, 2)),
        ("mail", TraceProfile::OpenMail.generate(span, 3)),
    ];

    // 1. Admission control: a tenant joins if `Cmin(90%, 20 ms)` of the
    //    merged workload, residents plus newcomer, stays within the
    //    2500 IOPS server.
    let mut bin = ServerBin::new(target);
    let mut admitted: Vec<(&str, &Workload)> = Vec::new();
    for (i, (name, workload)) in tenants.iter().enumerate() {
        let mut trial = bin.clone();
        trial.add(TenantId::new(i), workload.arrival_column().nanos());
        let quote = trial.quote();
        if quote <= budget {
            println!(
                "admitted {name:<7} merged Cmin {quote} ({} requests, mean {:.0} IOPS)",
                workload.len(),
                workload.mean_iops()
            );
            bin = trial;
            admitted.push((name, workload));
        } else {
            println!("rejected {name:<7} merged Cmin would be {quote} > {budget}");
        }
    }
    println!("committed {} of {budget}\n", bin.quote());

    // 2. Serve the admitted tenants on one shared server, each with its
    //    own planned provision.
    let configs: Vec<TenantConfig> = admitted
        .iter()
        .map(|(_, w)| {
            let provision = CapacityPlanner::new(w, deadline).provision(target);
            TenantConfig::new(provision, deadline)
        })
        .collect();
    let workloads: Vec<&Workload> = admitted.iter().map(|&(_, w)| w).collect();
    let (merged, owners) = merge_tenants(&workloads);
    let scheduler = MultiTenantScheduler::new(configs, owners);
    let server = FixedRateServer::new(scheduler.required_capacity());
    println!(
        "serving {} merged requests on a {:.0} IOPS server...",
        merged.len(),
        scheduler.required_capacity().get()
    );
    let report = simulate(&merged, scheduler, server);

    // 3. Per-tenant outcome: each primary class meets its own target.
    println!();
    println!(
        "{:<8} {:>9} {:>9} {:>16} {:>16}",
        "tenant", "primary", "overflow", "primary in 20ms", "overflow mean"
    );
    for (i, (name, _)) in admitted.iter().enumerate() {
        let t = TenantId::new(i);
        let primary = report.stats_for(t.primary_class());
        let overflow = report.stats_for(t.overflow_class());
        println!(
            "{:<8} {:>9} {:>9} {:>15.1}% {:>16}",
            name,
            primary.len(),
            overflow.len(),
            primary.fraction_within(deadline) * 100.0,
            overflow
                .mean()
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
        );
    }
    println!(
        "\nEach tenant's guaranteed class holds its own deadline; bursts are\n\
         absorbed by the burster's overflow class, not its neighbours."
    );
}
