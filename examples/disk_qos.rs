//! QoS on a mechanical disk: run the shaping pipeline end-to-end against
//! the seek/rotation/transfer disk model instead of the constant-rate
//! abstraction.
//!
//! This is the "DiskSim" configuration: the QoS layer (RTT + Miser) sits at
//! the device-driver level above a disk whose throughput depends on request
//! locality.
//!
//! Run with: `cargo run --release --example disk_qos`

use gqos::disk::{CachedDisk, DiskModel};
use gqos::sim::{ServiceClass, TraceHandle};
use gqos::trace::gen::profiles::TraceProfile;
use gqos::{Iops, Provision, RecombinePolicy, SimDuration, WorkloadShaper};

fn main() {
    // A light OLTP-like stream: the mechanical disk sustains only a couple
    // hundred random IOPS, so use the FinTrans stand-in scaled down.
    let workload = TraceProfile::FinTrans
        .generate(SimDuration::from_secs(120), 9)
        .time_scaled(2.0); // halve the rate: random disk territory

    println!("workload: {workload}");

    // The QoS layer on the disk: Miser shaping with a provision sized to
    // the disk's random-access throughput (with an LRU cache absorbing
    // re-reads).
    let deadline = SimDuration::from_millis(50);
    let provision = Provision::new(Iops::new(150.0), Iops::new(150.0));
    let disk = |_| {
        CachedDisk::new(
            DiskModel::builder().build(),
            4096,
            SimDuration::from_micros(60),
        )
    };
    let report = WorkloadShaper::new(provision, deadline)
        .simulation(
            RecombinePolicy::Miser,
            TraceHandle::disabled(),
            |s, _| s,
            disk,
        )
        .run(&workload);
    let primary = report.stats_for(ServiceClass::PRIMARY);
    let overflow = report.stats_for(ServiceClass::OVERFLOW);
    println!("\nRTT + Miser above the mechanical disk ({provision}, delta 50 ms):");
    println!(
        "  primary:  {:>6} requests, {:.1}% within 50 ms",
        primary.len(),
        primary.fraction_within(deadline) * 100.0
    );
    println!(
        "  overflow: {:>6} requests, mean response {}",
        overflow.len(),
        overflow
            .mean()
            .map(|d| d.to_string())
            .unwrap_or_else(|| "n/a".into())
    );
    println!(
        "  conclusion: the shaping results survive a fluctuating-capacity\n\
         \u{20}  service process, not just the paper's constant-rate model."
    );
}
