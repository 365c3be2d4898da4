//! Consolidation / admission control: how much capacity does a shared
//! server need for several clients at once?
//!
//! Summing worst-case (100%) capacities over-books the server ~2x; summing
//! the clients' *reshaped* (90%) capacities predicts the true requirement
//! closely — the paper's Section 4.4 argument, live.
//!
//! Run with: `cargo run --release --example consolidation`

use gqos::core::merge_all;
use gqos::trace::gen::profiles::TraceProfile;
use gqos::{ConsolidationStudy, QosTarget, SimDuration};

fn main() {
    let span = SimDuration::from_secs(300);
    let deadline = SimDuration::from_millis(10);

    // Three tenants with different workload characters.
    let ws = TraceProfile::WebSearch.generate(span, 1);
    let ft = TraceProfile::FinTrans.generate(span, 2);
    let om = TraceProfile::OpenMail.generate(span, 3);
    let tenants = [("search", &ws), ("oltp", &ft), ("mail", &om)];

    for (name, w) in &tenants {
        println!("tenant {name}: {w}");
    }
    println!();

    for fraction in [1.0, 0.90] {
        let study = ConsolidationStudy::new(QosTarget::new(fraction, deadline));
        let clients = [&ws, &ft, &om];
        let report = study.compare(&clients).expect("three clients");
        println!(
            "f = {:>4.0}%: additive estimate {:>6.0} IOPS, true merged need {:>6.0} IOPS \
             (estimate error {:+.0}%)",
            fraction * 100.0,
            report.estimate.get(),
            report.actual.get(),
            (1.0 / report.ratio() - 1.0) * 100.0,
        );
    }

    println!();
    println!("Admission control walk-through at (90%, 10 ms):");
    let study = ConsolidationStudy::new(QosTarget::new(0.90, deadline));
    let server_capacity = 2000.0;
    let mut admitted: Vec<&gqos::Workload> = Vec::new();
    let mut names: Vec<&str> = Vec::new();
    for (name, w) in &tenants {
        let mut candidate = admitted.clone();
        candidate.push(w);
        let estimate = study
            .estimate(&candidate)
            .expect("one client or more")
            .get();
        if estimate <= server_capacity {
            admitted = candidate;
            names.push(name);
            println!(
                "  admit {name:<7} estimated need {estimate:>6.0} / {server_capacity:.0} IOPS"
            );
        } else {
            println!(
                "  reject {name:<6} estimated need {estimate:>6.0} exceeds {server_capacity:.0} IOPS"
            );
        }
    }
    let merged = merge_all(&admitted);
    let actual = gqos::CapacityPlanner::new(&merged, deadline)
        .min_capacity(0.90)
        .get();
    println!(
        "  admitted {{{}}}: actual merged requirement {actual:.0} IOPS — \
         within the {server_capacity:.0} IOPS server",
        names.join(", ")
    );
}
