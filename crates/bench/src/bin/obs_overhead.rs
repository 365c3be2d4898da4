//! Observability overhead smoke: instrumentation must be free when off.
//!
//! Runs the same shaped WebSearch workload through every recombination
//! policy three ways — untraced, traced into a disabled handle, and
//! traced through the full instrumented path into a `NullSink` — and
//! compares best-of-N wall times (samples interleaved A/B/A/B so clock
//! drift hits both sides equally; the minimum is the robust estimator here
//! because scheduler interference can only add time to a deterministic
//! workload). Also times the `rtt/decompose` planner kernel, which carries
//! no instrumentation at all, under the same interleaving. Contracts
//! asserted:
//!
//! - **identical results**: runs traced into a disabled handle, a
//!   `NullSink` and a `MemorySink` produce the untraced run's completion
//!   records, record for record (tracing observes, never steers);
//! - **free when off**: a disabled handle is within `--max-overhead-pct`
//!   (default 2%) of untraced, summed across policies; both should run
//!   the same lanes, so this catches an off path forked from `run` again;
//! - **no kernel pollution**: `rtt/decompose` with a live trace context in
//!   the process stays within the same bound of its baseline.
//!
//! The fully-instrumented cost (event construction + dynamic dispatch per
//! event) is printed for the record but not bounded — it buys the trace.
//!
//! Usage: `cargo run --release -p gqos-bench --bin obs_overhead --
//!         [--samples 15] [--span-secs 60] [--max-overhead-pct 2.0]`
//!
//! A malformed flag prints `error: …` and [`USAGE`] to stderr and exits
//! with status 2.

use std::time::Instant;

use gqos_core::{decompose, CapacityPlanner, Provision, RecombinePolicy, WorkloadShaper};
use gqos_sim::{NullSink, TraceHandle};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::{Iops, SimDuration};

/// Interleaved best-of-N: samples alternate `a, b, a, b, …` so slow clock
/// or thermal drift lands on both measurands symmetrically, and each side
/// keeps its minimum — noise from a shared CPU only ever inflates a
/// sample, so the minimum tracks the true cost. Returns `(min_a_ns,
/// min_b_ns)`.
fn best_of_interleaved<R>(
    samples: usize,
    mut a: impl FnMut() -> R,
    mut b: impl FnMut() -> R,
) -> (f64, f64) {
    let time = |op: &mut dyn FnMut() -> R| {
        let start = Instant::now();
        std::hint::black_box(op());
        start.elapsed().as_nanos() as f64
    };
    let mut ta = f64::INFINITY;
    let mut tb = f64::INFINITY;
    for _ in 0..samples {
        ta = ta.min(time(&mut a));
        tb = tb.min(time(&mut b));
    }
    (ta, tb)
}

/// The usage line printed under every command-line error.
const USAGE: &str =
    "usage: obs_overhead [--samples <n>] [--span-secs <s>] [--max-overhead-pct <pct>]";

fn parse_flag(args: &[String], flag: &str) -> Option<f64> {
    let i = args.iter().position(|a| a == flag)?;
    let value = args.get(i + 1).unwrap_or_else(|| {
        gqos_bench::exit_usage(USAGE, &format!("{flag} requires a value"));
    });
    match value.parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 0.0 => Some(v),
        _ => gqos_bench::exit_usage(
            USAGE,
            &format!("{flag} value must be a non-negative number (got `{value}`)"),
        ),
    }
}

fn pct(traced: f64, untraced: f64) -> f64 {
    (traced / untraced - 1.0) * 100.0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let samples = parse_flag(&args, "--samples").unwrap_or(15.0) as usize;
    let span = SimDuration::from_secs(parse_flag(&args, "--span-secs").unwrap_or(60.0) as u64);
    let max_overhead_pct = parse_flag(&args, "--max-overhead-pct").unwrap_or(2.0);

    let deadline = SimDuration::from_millis(50);
    let workload = TraceProfile::WebSearch.generate(span, 42);
    let planner = CapacityPlanner::new(&workload, deadline);
    let provision = Provision::with_default_surplus(planner.min_capacity(0.90), deadline);
    let shaper = WorkloadShaper::new(provision, deadline);
    println!(
        "obs_overhead: {} requests over {span}, {samples} samples/case, \
         bound {max_overhead_pct:.1}%",
        workload.len()
    );

    // Result contract: no handle, with or without a sink, may perturb a
    // single completion record.
    for policy in RecombinePolicy::ALL {
        let plain = shaper.run(&workload, policy);
        let handles = [
            ("disabled", TraceHandle::disabled()),
            ("instrumented", TraceHandle::new(NullSink)),
            ("memory", TraceHandle::memory().0),
        ];
        for (name, trace) in handles {
            assert_eq!(
                plain.records(),
                shaper.run_traced(&workload, policy, trace).records(),
                "{policy}: {name}-traced run diverged from the untraced run"
            );
        }
    }
    println!("  result identity: traced == untraced for all four policies ok");

    // Timing noise on a shared runner only ever inflates a measurement, so
    // the bound holds if ANY attempt lands inside it; a real regression
    // fails every attempt.
    const ATTEMPTS: usize = 3;
    for attempt in 1..=ATTEMPTS {
        // Free-when-off: untraced vs a disabled handle, per policy.
        let mut untraced_total = 0.0;
        let mut off_total = 0.0;
        for policy in RecombinePolicy::ALL {
            let (untraced, off) = best_of_interleaved(
                samples,
                || shaper.run(&workload, policy).completed(),
                || {
                    shaper
                        .run_traced(&workload, policy, TraceHandle::disabled())
                        .completed()
                },
            );
            let (_, instrumented) = best_of_interleaved(
                samples.min(3),
                || 0,
                || {
                    shaper
                        .run_traced(&workload, policy, TraceHandle::new(NullSink))
                        .completed()
                },
            );
            println!(
                "  {policy:<10} untraced {untraced:>12.0} ns   off {:+6.2}%   \
                 instrumented {:+6.2}%",
                pct(off, untraced),
                pct(instrumented, untraced),
            );
            untraced_total += untraced;
            off_total += off;
        }
        let engine_pct = pct(off_total, untraced_total);
        println!("  tracing-off overhead: {engine_pct:+.2}% (bound {max_overhead_pct:.1}%)");

        // Kernel pollution: rtt/decompose carries no instrumentation; with
        // a live trace handle in scope its timing must not move.
        let trace = TraceHandle::new(NullSink);
        let kernel_iters = 20;
        let (baseline, with_trace) = best_of_interleaved(
            samples,
            || {
                (0..kernel_iters)
                    .map(|_| decompose(&workload, Iops::new(900.0), deadline).overflow_count())
                    .sum::<u64>()
            },
            || {
                std::hint::black_box(&trace);
                (0..kernel_iters)
                    .map(|_| decompose(&workload, Iops::new(900.0), deadline).overflow_count())
                    .sum::<u64>()
            },
        );
        let kernel_pct = pct(with_trace, baseline);
        println!(
            "  rtt/decompose: baseline {baseline:>12.0} ns   with trace context \
             {kernel_pct:+.2}% (bound {max_overhead_pct:.1}%)"
        );

        if engine_pct < max_overhead_pct && kernel_pct < max_overhead_pct {
            println!("ok");
            return;
        }
        println!("  attempt {attempt}/{ATTEMPTS} over the bound; remeasuring");
    }
    panic!(
        "observability overhead exceeded the {max_overhead_pct:.1}% bound on all \
         {ATTEMPTS} attempts"
    );
}
