//! The repository benchmark: one workload per process, closed loop.
//!
//! ```text
//! qosbench --workload <spc_replay|tenant_gateway|control_loop>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload is set up [`SETUPS`] times (the median
//! is `setup_s`) and then measured untraced for `--seconds`; the last
//! line of output is the end-to-end metrics as one JSON object. With
//! `--trace 1` the same workload runs untraced for half the time and
//! traced for the other half; the last line is the per-layer metrics,
//! including the tracing overhead, and the spans are written to
//! `.bench_out/spans/`. Between ops every workload times a fixed reference
//! kernel ([`reference`]), and the end-to-end op times and throughput are
//! scaled by how fast it ran. `qosbench/README.md` documents every metric.

mod control;
mod gateway;
mod reference;
mod spans;
mod spc_replay;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::Tracer;

/// Identical set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Workload size: the measured size, or a tiny one for the self-test.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn pick(self, full: u64, tiny: u64) -> u64 {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// What one measured run of a workload produced.
///
/// A run repeats the workload's fixed unit (a policy cycle, a round
/// cycle, an episode) until its time is up. Every repetition runs the same
/// ops in the same order on the same inputs, so op `k` of every
/// repetition is the same piece of work.
#[derive(Clone, Default, Debug, PartialEq)]
pub struct Outcome {
    /// Ops started.
    pub attempted: u64,
    /// Ops that returned an unexpected error or failed an output check.
    pub failed: u64,
    /// Wall time of every op, in run order.
    pub op_ns: Vec<u64>,
    /// Ops in one repetition of the unit.
    pub unit_ops: usize,
    /// Requests shaped, or control steps taken, in one repetition.
    pub unit_work: u64,
    /// Requests shaped, or control steps taken, in the whole run.
    pub work: u64,
    /// Share of what tenants received within their objective, in ppm. On
    /// the data plane it counts the three shaping policies only: the
    /// unshaped FCFS baseline's share swings with the planned capacity,
    /// which is bimodal across seeds of the bursty profiles.
    pub qos_met_ppm: f64,
    /// Exact per-layer counts: they repeat bit for bit for one seed.
    pub counts: BTreeMap<&'static str, f64>,
    /// Timed per-layer metrics, from the traced run only.
    pub layers: BTreeMap<&'static str, f64>,
    /// Host-speed reference samples, taken between ops.
    pub ref_ns: Vec<u64>,
}

impl Outcome {
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Takes `n` host-speed reference samples; call it outside op clocks.
    pub fn probe(&mut self, n: usize) {
        self.ref_ns.extend((0..n).map(|_| reference::sample()));
    }

    /// Completed repetitions of the unit.
    pub fn reps(&self) -> usize {
        self.op_ns.len() / self.unit_ops.max(1)
    }

    /// Each op's fastest wall time over the run's repetitions, in unit
    /// order. Contention from other tenants of a shared host only ever
    /// slows an op, and on a 2-core VM it comes in phases that slow every
    /// op by up to ~1.7× for seconds at a time; an op's best time over
    /// repetitions spread across the run is what its code costs. Phases
    /// that outlast the run are left to [`host_factor`](Self::host_factor).
    pub fn best_ops(&self) -> Vec<u64> {
        let n = self.unit_ops;
        let mut best = vec![u64::MAX; n];
        for rep in self.op_ns.chunks_exact(n.max(1)) {
            for (b, &t) in best.iter_mut().zip(rep) {
                *b = (*b).min(t);
            }
        }
        best
    }

    /// Work per second of one repetition made of every op's best time.
    pub fn throughput(&self) -> f64 {
        per(self.unit_work * 1_000_000_000, self.best_ops().iter().sum())
    }

    /// Host time per nominal time: how much slower than the nominal host
    /// the reference kernel ran in this run.
    pub fn host_factor(&self) -> f64 {
        reference::run_ns(&self.ref_ns) / reference::NOMINAL_NS
    }
}

/// `num / den` as a float, 0 when `den` is 0.
pub fn per(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of `values` (0 for none); sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile of sorted `values`.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// FNV-1a over `bytes`: a fingerprint of generated inputs.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A workload, set up and ready to run.
pub enum Bench {
    SpcReplay(spc_replay::SpcReplay),
    Gateway(gateway::Gateway),
    Control(Box<control::Control>),
}

pub const WORKLOADS: [&str; 3] = ["spc_replay", "tenant_gateway", "control_loop"];

impl Bench {
    pub fn setup(workload: &str, seed: u64, size: Size) -> Option<Bench> {
        Some(match workload {
            "spc_replay" => Bench::SpcReplay(spc_replay::setup(seed, size)),
            "tenant_gateway" => Bench::Gateway(gateway::setup(seed, size)),
            "control_loop" => Bench::Control(Box::new(control::setup(seed, size))),
            _ => return None,
        })
    }

    pub fn run(&self, budget: Duration, tracer: &mut Tracer) -> Outcome {
        match self {
            Bench::SpcReplay(b) => b.run(budget, tracer),
            Bench::Gateway(b) => b.run(budget, tracer),
            Bench::Control(b) => b.run(budget, tracer),
        }
    }

    /// A fingerprint of the generated inputs.
    pub fn digest(&self) -> u64 {
        match self {
            Bench::SpcReplay(b) => b.digest(),
            Bench::Gateway(b) => b.digest(),
            Bench::Control(b) => b.digest(),
        }
    }
}

/// Every per-layer metric with its unit. A workload whose path does not
/// cross a layer reports 0 for that layer's metrics.
const PER_LAYER: [(&str, &str); 32] = [
    ("trace.spc.parse_ns_per_req", "ns"),
    ("stream.shaper.self_ns_per_req.fcfs", "ns"),
    ("stream.shaper.self_ns_per_req.split", "ns"),
    ("stream.shaper.self_ns_per_req.fairqueue", "ns"),
    ("stream.shaper.self_ns_per_req.miser", "ns"),
    ("obs.longterm.record_ns_per_req", "ns"),
    ("obs.longterm.feed_ns_per_req", "ns"),
    ("stream.gateway.ns_per_req", "ns"),
    ("parallel.pool.speedup", "ratio"),
    ("stream.gateway.shed_ratio", "ratio"),
    ("control.slo.observe_ns_per_tenant_window", "ns"),
    ("control.driver.run_us_per_command", "us"),
    ("control.plane.apply_us.add_tenant", "us"),
    ("control.plane.apply_us.remove_tenant", "us"),
    ("control.plane.apply_us.drain_tenant", "us"),
    ("control.plane.apply_us.update_sla", "us"),
    ("control.plane.apply_us.node_down", "us"),
    ("control.plane.apply_us.node_up", "us"),
    ("core.fleet.quote_cache_hit_ratio", "ratio"),
    ("core.fleet.cold_searches", "count"),
    ("core.fleet.probes", "count"),
    ("stream.shaper.chunks", "count"),
    ("core.overflow_ratio.fcfs", "ratio"),
    ("core.overflow_ratio.split", "ratio"),
    ("core.overflow_ratio.fairqueue", "ratio"),
    ("core.overflow_ratio.miser", "ratio"),
    ("obs.longterm.resident_sketches", "count"),
    ("control.slo.commands", "count"),
    ("control.slo.resyncs", "count"),
    ("control.driver.retries", "count"),
    ("control.driver.expired", "count"),
    ("control.plane.rejected", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: qosbench --workload <spc_replay|tenant_gateway|control_loop> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn end_to_end(args: &Args) -> String {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first so the repeats do not stack up
        // in the peak resident set.
        drop(bench.take());
        let t0 = Instant::now();
        bench = Bench::setup(&args.workload, args.seed, Size::Full);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let bench = bench.expect("workload name was validated");
    reference::warm();
    let out = bench.run(
        Duration::from_secs_f64(args.seconds),
        &mut Tracer::new(false),
    );
    // Op times and throughput are scaled to the nominal host speed: a run
    // in a host phase that slows the reference kernel by some factor is
    // scaled back by that factor. Set-up time is not scaled.
    let factor = out.host_factor();
    let mut best = out.best_ops();
    best.sort_unstable();
    let mut raw = out.op_ns.clone();
    raw.sort_unstable();
    let ms = |ns: u64| ns as f64 / 1e6;
    let (p50, p99) = (percentile(&best, 0.50), percentile(&best, 0.99));
    let wall = per(out.work * 1_000_000_000, out.op_ns.iter().sum());
    println!(
        "{}: {} ops x {} repetitions, {} ops beyond p99, {} failed, setups {:?}",
        args.workload,
        best.len(),
        out.reps(),
        best.iter().filter(|&&v| v > p99).count(),
        out.failed,
        setups,
    );
    println!(
        "reference: {} samples, host factor {factor:.4}; unscaled: best-of throughput \
         {:.1}/s, wall throughput {wall:.1}/s",
        out.ref_ns.len(),
        out.throughput(),
    );
    // A reported percentile on a cliff between op kinds swings from run
    // to run; these neighbours show whether it sits on a flat stretch.
    // The raw percentiles over every sample show how slow the host ran.
    let around = |sorted: &[u64]| -> String {
        [(40, 0.40), (50, 0.50), (60, 0.60), (98, 0.98), (99, 0.99)]
            .iter()
            .map(|&(label, q)| format!("p{label}={:.3}", ms(percentile(sorted, q))))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "unscaled best op ms: {}; raw op ms: {}",
        around(&best),
        around(&raw)
    );
    let metrics = [
        ("setup_s", median(&mut setups), "s"),
        ("throughput_per_s", out.throughput() * factor, "1/s"),
        ("op_p50_ms", ms(p50) / factor, "ms"),
        ("op_p99_ms", ms(p99) / factor, "ms"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ("ok_ratio", 1.0 - per(out.failed, out.attempted), "ratio"),
        ("qos_met_ppm", out.qos_met_ppm, "ppm"),
    ];
    json(out.failed == 0, out.attempted, out.failed, &metrics)
}

fn per_layer(args: &Args) -> String {
    let bench =
        Bench::setup(&args.workload, args.seed, Size::Full).expect("workload name was validated");
    reference::warm();
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let plain = bench.run(half, &mut Tracer::new(false));
    let mut tracer = Tracer::new(true);
    let traced = bench.run(half, &mut tracer);
    // One file per workload, replaced by each traced run.
    let path = PathBuf::from(format!(".bench_out/spans/{}.tsv", args.workload));
    if let Err(e) = tracer.write_tsv(&path) {
        eprintln!("warning: could not write spans to {}: {e}", path.display());
    }
    // Traced over untraced time per unit of work, each half at the
    // nominal host speed.
    let overhead =
        (plain.throughput() * plain.host_factor()) / (traced.throughput() * traced.host_factor());
    println!(
        "{}: {} spans -> {}; traced {} ops, untraced {} ops; tracing overhead {:.4}",
        args.workload,
        tracer.len(),
        path.display(),
        traced.op_ns.len(),
        plain.op_ns.len(),
        overhead,
    );
    let mut metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = traced
                .layers
                .get(name)
                .or_else(|| traced.counts.get(name))
                .copied()
                .unwrap_or(0.0);
            (name, value, unit)
        })
        .collect();
    metrics.push(("bench.trace_overhead_ratio", overhead, "ratio"));
    let failed = plain.failed + traced.failed;
    json(
        failed == 0 && plain.counts == traced.counts && plain.qos_met_ppm == traced.qos_met_ppm,
        plain.attempted + traced.attempted,
        failed,
        &metrics,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let line = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One tiny run's deterministic results: qos, failures and every
    /// exact count.
    fn tiny(workload: &str, seed: u64) -> (u64, Outcome) {
        let bench = Bench::setup(workload, seed, Size::Tiny).expect("known workload");
        // A zero budget still runs one full cycle or episode.
        let mut out = bench.run(Duration::ZERO, &mut Tracer::new(false));
        assert_eq!(out.reps(), 1, "{workload}: a zero budget runs one unit");
        assert_eq!(out.op_ns.len(), out.unit_ops, "{workload}");
        out.op_ns.clear();
        (bench.digest(), out)
    }

    #[test]
    fn every_workload_repeats_bit_for_bit_and_follows_its_seed() {
        for workload in WORKLOADS {
            let (digest, a) = tiny(workload, 7);
            let (digest_again, b) = tiny(workload, 7);
            assert_eq!(
                digest, digest_again,
                "{workload}: inputs differ for one seed"
            );
            assert_eq!(a.failed, 0, "{workload}: output checks failed");
            assert!(a.attempted > 0 && a.work > 0, "{workload}: no work done");
            assert_eq!(
                a.qos_met_ppm.to_bits(),
                b.qos_met_ppm.to_bits(),
                "{workload}"
            );
            assert_eq!(a.counts, b.counts, "{workload}: exact counts moved");
            assert_eq!((a.attempted, a.work), (b.attempted, b.work), "{workload}");
            let (other, _) = tiny(workload, 8);
            assert_ne!(
                digest, other,
                "{workload}: a second seed left the inputs alone"
            );
        }
    }

    #[test]
    fn traced_run_matches_untraced_decisions() {
        for workload in WORKLOADS {
            let bench = Bench::setup(workload, 3, Size::Tiny).expect("known workload");
            let plain = bench.run(Duration::ZERO, &mut Tracer::new(false));
            let mut tracer = Tracer::new(true);
            let traced = bench.run(Duration::ZERO, &mut tracer);
            assert!(tracer.len() > 0, "{workload}: no spans recorded");
            assert_eq!(plain.counts, traced.counts, "{workload}");
            assert_eq!(plain.qos_met_ppm, traced.qos_met_ppm, "{workload}");
            assert!(!traced.layers.is_empty(), "{workload}: no layer metrics");
            for name in traced.layers.keys().chain(traced.counts.keys()) {
                assert!(
                    PER_LAYER.iter().any(|&(n, _)| n == *name),
                    "{workload}: {name} is not a declared per-layer metric"
                );
            }
        }
    }

    #[test]
    fn best_ops_takes_each_ops_fastest_repetition() {
        let out = Outcome {
            op_ns: vec![5, 9, 7, 3, 10, 8, 4, 4],
            unit_ops: 3,
            unit_work: 6,
            ..Outcome::default()
        };
        // The trailing partial repetition [4, 4] is not counted.
        assert_eq!(out.reps(), 2);
        assert_eq!(out.best_ops(), vec![3, 9, 7]);
        assert_eq!(out.throughput(), 6e9 / 19.0);
    }

    #[test]
    fn host_factor_compares_the_reference_with_its_nominal_time() {
        let nominal = reference::NOMINAL_NS as u64;
        let out = Outcome {
            ref_ns: vec![2 * nominal; 10],
            ..Outcome::default()
        };
        assert_eq!(out.host_factor(), 2.0);
        assert_eq!(Outcome::default().host_factor(), 1.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[5], 0.99), 5);
    }
}
