//! Trace analysis: burstiness statistics, overload analysis, and SPC trace
//! I/O round-trip.
//!
//! Shows the analytical layer beneath the QoS algorithms: arrival curves,
//! the Lemma 1 lower bound on forced deadline misses, and the windowed
//! statistics used to characterise a workload before quoting it an SLA.
//!
//! Run with: `cargo run --release --example trace_analysis`

use gqos::trace::gen::profiles::TraceProfile;
use gqos::trace::{spc, ServiceAnalysis, TraceSummary};
use gqos::{Iops, Request, SimDuration, SimTime, Workload};

fn main() {
    let span = SimDuration::from_secs(300);

    println!("Burstiness profile of the three evaluation workloads:");
    for profile in TraceProfile::ALL {
        let w = profile.generate(span, 42);
        println!(
            "{profile}:\n{}\n",
            TraceSummary::new(&w, SimDuration::from_millis(100))
        );
    }

    let om = TraceProfile::OpenMail.generate(span, 42);

    // Overload analysis: how many requests *must* miss a 10 ms deadline at
    // a given capacity, no matter the scheduler (Lemma 1)?
    println!("Forced deadline misses for OpenMail at 10 ms (any scheduler):");
    for capacity in [600.0, 1000.0, 2000.0, 4000.0, 8000.0] {
        let analysis = ServiceAnalysis::new(&om, Iops::new(capacity), SimDuration::from_millis(10));
        println!(
            "  C = {capacity:>6.0} IOPS: >= {:>6} forced misses ({:.2}% of workload), \
             {} busy periods",
            analysis.lower_bound_misses(),
            100.0 * analysis.lower_bound_misses() as f64 / om.len() as f64,
            analysis.busy_periods().len(),
        );
    }

    // SPC round-trip: the format the UMass repository traces use. Its
    // timestamps carry whole microseconds, so quantise the arrivals first
    // for the round trip to be exact.
    let small = Workload::from_requests(
        TraceProfile::FinTrans
            .generate(SimDuration::from_secs(5), 1)
            .iter()
            .map(|r| Request {
                arrival: SimTime::from_micros(r.arrival.as_nanos() / 1_000),
                ..*r
            }),
    );
    let mut buffer = Vec::new();
    spc::write_trace(&small, &mut buffer).expect("write SPC");
    let reparsed = spc::read_trace(buffer.as_slice()).expect("read SPC");
    assert_eq!(small, reparsed);
    println!(
        "\nSPC I/O round-trip: {} requests -> {} bytes -> {} requests (exact match)",
        small.len(),
        buffer.len(),
        reparsed.len()
    );
    let preview = String::from_utf8_lossy(&buffer);
    for line in preview.lines().take(3) {
        println!("  {line}");
    }
}
