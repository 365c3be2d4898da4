//! QoS on a mechanical disk: run the shaping pipeline end-to-end against
//! the seek/rotation/transfer disk model instead of the constant-rate
//! abstraction, and compare low-level scheduler orderings.
//!
//! This is the "DiskSim" configuration: the QoS layer (RTT + Miser) sits at
//! the device-driver level above a disk whose throughput depends on request
//! locality.
//!
//! Run with: `cargo run --release --example disk_qos`

use gqos::disk::{CachedDisk, DiskModel, ScanScheduler, SstfScheduler, SweepMode};
use gqos::sim::{FcfsScheduler, ServiceClass, Simulation, TraceHandle};
use gqos::trace::gen::profiles::TraceProfile;
use gqos::{Iops, Provision, RecombinePolicy, SimDuration, WorkloadShaper};

fn main() {
    // A light OLTP-like stream: the mechanical disk sustains only a couple
    // hundred random IOPS, so use the FinTrans stand-in scaled down.
    let workload = TraceProfile::FinTrans
        .generate(SimDuration::from_secs(120), 9)
        .time_scaled(2.0); // halve the rate: random disk territory

    println!("workload: {workload}");

    // 1. Low-level orderings on the raw disk: FCFS vs SSTF vs C-LOOK over a
    //    *closed batch* of queued random requests (the situation where the
    //    throughput-maximising ordering below the QoS layer earns its keep).
    let batch = gqos::Workload::from_requests(workload.iter().take(3000).map(|r| gqos::Request {
        arrival: gqos::SimTime::ZERO,
        ..*r
    }));
    println!(
        "\nlow-level disk scheduling (batch of {} queued requests):",
        batch.len()
    );
    let run_lowlevel = |name: &str, report: gqos::sim::RunReport| {
        println!(
            "  {name:<7} makespan {:>6.1}s  throughput {:>5.0} IOPS",
            report.end_time().as_secs_f64(),
            report.completed() as f64 / report.end_time().as_secs_f64(),
        );
        report.end_time()
    };
    let fcfs_end = run_lowlevel(
        "FCFS",
        Simulation::new(FcfsScheduler::new())
            .server(DiskModel::builder().build())
            .run(&batch),
    );
    let sstf_end = run_lowlevel(
        "SSTF",
        Simulation::new(SstfScheduler::new())
            .server(DiskModel::builder().build())
            .run(&batch),
    );
    run_lowlevel(
        "C-LOOK",
        Simulation::new(ScanScheduler::new(SweepMode::CircularLook))
            .server(DiskModel::builder().build())
            .run(&batch),
    );
    println!(
        "  => seek-aware ordering saves {:.1}% of the FCFS makespan",
        100.0 * (1.0 - sstf_end.as_secs_f64() / fcfs_end.as_secs_f64())
    );

    // 2. The QoS layer on the disk: Miser shaping with a provision sized to
    //    the disk's random-access throughput (with an LRU cache absorbing
    //    re-reads).
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
