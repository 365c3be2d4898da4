//! Observability overhead smoke: instrumentation must be free when off.
//!
//! Runs the same shaped WebSearch workload through every recombination
//! policy three ways — untraced, traced into a disabled handle, and
//! traced through the full instrumented path into a `NullSink` — and
//! compares them in interleaved pairs: each sample times both sides back
//! to back as `a, b, b, a` and keeps their ratio, so host drift between
//! samples cancels inside each pair, and so does the warm cache the first
//! call of a pair leaves. Each measurand is the median of its samples'
//! ratios. Also times the `rtt/decompose` planner kernel, which carries no
//! instrumentation at all, the same way. Contracts asserted:
//!
//! - **identical results**: runs traced into a disabled handle, a
//!   `NullSink` and a `MemorySink` produce the untraced run's completion
//!   records, record for record (tracing observes, never steers);
//! - **free when off**: a disabled handle is within `--max-overhead-pct`
//!   (default 2%) of untraced, summed across policies in each sample; both
//!   should run the same lanes, so this catches an off path forked from
//!   `run` again;
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

/// Calls of an op per timing: one run of the smallest case takes ~0.1 ms,
/// short enough for one timer tick or interrupt to move it by percents.
const REPS: usize = 4;

/// Wall time of [`REPS`] calls of `op`, in ns.
fn time<R>(op: &mut impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(op());
    }
    start.elapsed().as_nanos() as f64
}

/// One interleaved pair, timed `a, b, b, a`: a cache warmed by the first
/// call of a pair and a clock drifting linearly over it fall on both
/// sides alike. Returns the summed `(a_ns, b_ns)`.
fn paired<R>(a: &mut impl FnMut() -> R, b: &mut impl FnMut() -> R) -> (f64, f64) {
    let (a1, b1, b2, a2) = (time(a), time(b), time(b), time(a));
    (a1 + a2, b1 + b2)
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    values[values.len() / 2]
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

/// A ratio as a percentage change.
fn pct(ratio: f64) -> f64 {
    (ratio - 1.0) * 100.0
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

    // Free-when-off: untraced vs a disabled handle, every policy once per
    // sample; the sample's ratio is over the sums.
    let samples = samples.max(1);
    let mut summed = Vec::with_capacity(samples);
    let mut per_policy = vec![Vec::with_capacity(samples); RecombinePolicy::ALL.len()];
    let mut untraced_ns = vec![Vec::with_capacity(samples); RecombinePolicy::ALL.len()];
    for _ in 0..samples {
        let (mut untraced_sum, mut off_sum) = (0.0, 0.0);
        for (k, policy) in RecombinePolicy::ALL.into_iter().enumerate() {
            let (untraced, off) = paired(
                &mut || shaper.run(&workload, policy).completed(),
                &mut || {
                    shaper
                        .run_traced(&workload, policy, TraceHandle::disabled())
                        .completed()
                },
            );
            per_policy[k].push(off / untraced);
            untraced_ns[k].push(untraced / (2 * REPS) as f64);
            untraced_sum += untraced;
            off_sum += off;
        }
        summed.push(off_sum / untraced_sum);
    }
    for (k, policy) in RecombinePolicy::ALL.into_iter().enumerate() {
        // The instrumented path costs a multiple; a few pairs show it.
        let instrumented: Vec<f64> = (0..samples.min(3))
            .map(|_| {
                let (untraced, instrumented) = paired(
                    &mut || shaper.run(&workload, policy).completed(),
                    &mut || {
                        shaper
                            .run_traced(&workload, policy, TraceHandle::new(NullSink))
                            .completed()
                    },
                );
                instrumented / untraced
            })
            .collect();
        println!(
            "  {policy:<10} untraced {:>10.0} ns per run   off {:+6.2}%   \
             instrumented {:+6.2}%",
            median(untraced_ns[k].clone()),
            pct(median(per_policy[k].clone())),
            pct(median(instrumented)),
        );
    }
    let engine_pct = pct(median(summed));
    println!("  tracing-off overhead: {engine_pct:+.2}% (bound {max_overhead_pct:.1}%)");

    // Kernel pollution: rtt/decompose carries no instrumentation; with a
    // live trace handle in scope its timing must not move.
    let trace = TraceHandle::new(NullSink);
    let kernel_iters = 5;
    let mut baseline = || {
        (0..kernel_iters)
            .map(|_| decompose(&workload, Iops::new(900.0), deadline).overflow_count())
            .sum::<u64>()
    };
    let mut with_trace = || {
        std::hint::black_box(&trace);
        (0..kernel_iters)
            .map(|_| decompose(&workload, Iops::new(900.0), deadline).overflow_count())
            .sum::<u64>()
    };
    let (kernel_ns, kernel_ratios): (Vec<f64>, Vec<f64>) = (0..samples)
        .map(|_| {
            let (base, traced) = paired(&mut baseline, &mut with_trace);
            (base / (2 * REPS * kernel_iters) as f64, traced / base)
        })
        .unzip();
    let kernel_pct = pct(median(kernel_ratios));
    println!(
        "  rtt/decompose: baseline {:>10.0} ns per call   with trace context {kernel_pct:+.2}% \
         (bound {max_overhead_pct:.1}%)",
        median(kernel_ns)
    );

    assert!(
        engine_pct < max_overhead_pct && kernel_pct < max_overhead_pct,
        "observability overhead exceeded the {max_overhead_pct:.1}% bound: tracing off \
         {engine_pct:+.2}%, rtt/decompose with a trace context {kernel_pct:+.2}%"
    );
    println!("ok");
}
