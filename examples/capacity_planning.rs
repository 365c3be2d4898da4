//! Capacity planning: price a menu of graduated SLAs for one client, and
//! build a multi-level response-time distribution with a cascade.
//!
//! A storage provider quotes each client a table of (fraction, deadline) →
//! capacity options; clients with streamlined workloads get cheap
//! guarantees, bursty ones pay for their tails (Section 1 of the paper).
//!
//! Run with: `cargo run --release --example capacity_planning`

use gqos::core::{CascadeDecomposer, CascadeLevel};
use gqos::trace::gen::profiles::TraceProfile;
use gqos::{CapacityPlanner, Iops, SimDuration};

fn main() {
    let span = SimDuration::from_secs(300);
    let fractions = [0.90, 0.95, 0.99, 1.0];
    let deadlines_ms = [5u64, 10, 20, 50];

    // An SLA menu per workload: the burstier the client, the steeper the
    // price of the last few percent.
    for profile in TraceProfile::ALL {
        let workload = profile.generate(span, 7);
        println!(
            "=== {profile} ({} requests, mean {:.0} IOPS)",
            workload.len(),
            workload.mean_iops()
        );
        print!("{:>8}", "f \\ delta");
        for d in deadlines_ms {
            print!("{:>9}", format!("{d} ms"));
        }
        println!();
        for f in fractions {
            print!("{:>8}", format!("{:.0}%", f * 100.0));
            for d in deadlines_ms {
                let planner = CapacityPlanner::new(&workload, SimDuration::from_millis(d));
                print!("{:>9.0}", planner.min_capacity(f).get());
            }
            println!();
        }
        let p10 = CapacityPlanner::new(&workload, SimDuration::from_millis(10));
        println!(
            "tail premium at 10 ms (100% vs 90%): {:.1}x\n",
            p10.min_capacity(1.0).get() / p10.min_capacity(0.90).get()
        );
    }

    // Beyond two classes: a cascade gives a graduated response-time
    // *distribution* — e.g. "90% within 10 ms, 97% within 50 ms, 99.5%
    // within 200 ms, rest best-effort" — from one pass over the stream.
    let workload = TraceProfile::OpenMail.generate(span, 7);
    let p10 = CapacityPlanner::new(&workload, SimDuration::from_millis(10));
    let c90 = p10.min_capacity(0.90);
    let cascade = CascadeDecomposer::new(vec![
        CascadeLevel {
            capacity: c90,
            deadline: SimDuration::from_millis(10),
        },
        CascadeLevel {
            capacity: Iops::new(c90.get() * 0.4),
            deadline: SimDuration::from_millis(50),
        },
        CascadeLevel {
            capacity: Iops::new(c90.get() * 0.2),
            deadline: SimDuration::from_millis(200),
        },
    ]);
    let d = cascade.decompose(&workload);
    println!("=== OpenMail graduated distribution (cascade of 3 levels)");
    let share = |class| 100.0 * d.count_of(class) as f64 / workload.len() as f64;
    for (class, deadline) in [(0u8, "10 ms"), (1, "50 ms"), (2, "200 ms")] {
        println!(
            "class {class} (within {deadline}): {} requests ({:.2}%)",
            d.count_of(class),
            share(class)
        );
    }
    println!("best effort: {} requests ({:.2}%)", d.count_of(3), share(3));
}
