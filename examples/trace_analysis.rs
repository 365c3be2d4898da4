//! Trace analysis: burstiness statistics, burst episodes, overload
//! analysis, and SPC trace I/O round-trip.
//!
//! Shows the analytical layer beneath the QoS algorithms: arrival curves,
//! the Lemma 1 lower bound on forced deadline misses, and the windowed
//! statistics used to characterise a workload before quoting it an SLA.
//!
//! Run with: `cargo run --release --example trace_analysis`

use gqos::trace::gen::profiles::TraceProfile;
use gqos::trace::stats::burst_episodes;
use gqos::trace::{spc, RateSeries, ServiceAnalysis, TraceSummary};
use gqos::{Iops, SimDuration};

fn main() {
    let span = SimDuration::from_secs(300);

    println!("Burstiness profile of the three evaluation workloads:");
    println!(
        "{:<10} {:>8} {:>8} {:>10} {:>7} {:>7} {:>7}",
        "workload", "mean", "peak", "peak/mean", "IDC", "rho1", "Hurst"
    );
    for profile in TraceProfile::ALL {
        let w = profile.generate(span, 42);
        let stats = TraceSummary::new(&w, SimDuration::from_millis(100));
        let hurst = stats
            .hurst()
            .map(|h| format!("{h:.2}"))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<10} {:>8.0} {:>8.0} {:>10.1} {:>7.1} {:>7.2} {:>7}",
            profile.abbrev(),
            stats.mean_iops(),
            stats.peak_iops(),
            stats.peak_to_mean(),
            stats.index_of_dispersion(),
            stats.lag1_autocorrelation(),
            hurst,
        );
    }

    // Burst episodes of the OpenMail stand-in.
    let om = TraceProfile::OpenMail.generate(span, 42);
    let series = RateSeries::new(&om, SimDuration::from_millis(100));
    let episodes = burst_episodes(&series, 3.0);
    println!("\nOpenMail burst episodes (> 3x mean): {}", episodes.len());
    for e in episodes.iter().take(5) {
        println!("  {e}");
    }

    // Overload analysis: how many requests *must* miss a 10 ms deadline at
    // a given capacity, no matter the scheduler (Lemma 1)?
    println!("\nForced deadline misses for OpenMail at 10 ms (any scheduler):");
    for capacity in [600.0, 1000.0, 2000.0, 4000.0, 8000.0] {
        let analysis = ServiceAnalysis::new(&om, Iops::new(capacity), SimDuration::from_millis(10));
        println!(
            "  C = {capacity:>6.0} IOPS: >= {:>6} forced misses ({:.2}% of workload), \
             {} busy periods, utilization {:.0}%",
            analysis.lower_bound_misses(),
            100.0 * analysis.lower_bound_misses() as f64 / om.len() as f64,
            analysis.busy_periods().len(),
            analysis.utilization(om.span()) * 100.0,
        );
    }

    // SPC round-trip: the format the UMass repository traces use.
    let small = TraceProfile::FinTrans.generate(SimDuration::from_secs(5), 1);
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
