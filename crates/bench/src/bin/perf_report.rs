//! Deterministic micro-benchmark report: the repo's perf trajectory seed.
//!
//! Runs the planner / RTT / simulation kernels over fixed synthetic traces
//! (fixed seed, fixed iteration counts — the *work* is deterministic, only
//! the wall-clock varies) and writes `BENCH_core.json`: one record per
//! kernel with the median ns/op across samples. CI runs a reduced-sample
//! pass and archives the JSON; trend tooling diffs records by `name`.
//!
//! Also asserts the SLA-menu contract on every run: each quote of one
//! `CapacityPlanner::menu` call (one seed curve, warm-started in ascending
//! order) equals `min_capacity` of its fraction (a fresh search), bit for
//! bit.
//!
//! Usage: `cargo run --release -p gqos-bench --bin perf_report --
//!         [--out BENCH_core.json] [--samples 9] [--span-secs 60]
//!         [--threads 4] [--assert-fleet-place-ms <ms>]
//!         [--assert-fleet-speedup <ratio>] [--assert-spc-parse-ns <ns>]
//!         [--assert-sim-ns <ns>] [--assert-window-feed-ns <ns>]`
//!
//! The fleet rows carry their own guards: `fleet/quote_cache_hit` must
//! always cost at most 5% of `fleet/quote_cold` (asserted on every run —
//! the cache either pays or the build fails), while
//! `--assert-fleet-place-ms 1000` and `--assert-fleet-speedup 20` gate
//! the wall-clock ceiling of `fleet/place_1000` and the cached-vs-naive
//! packer ratio for CI.
//!
//! `control/retune_apply` is one SLO retune through the control plane: a
//! share-carrying `UpdateSla` at the tenant's unchanged fraction, applied
//! with `ControlPlane::apply` on a warm plane. The retune fences a new
//! epoch but must not re-plan the unchanged workload, so it must always
//! cost at most 5% of `fleet/quote_cold` (asserted on every run).
//!
//! `trace/spc_parse` is the SPC ingest stage on its own: ns per record to
//! drain a fixed-seed OpenMail trace, serialised as SPC text, through
//! `SpcStream` at `DEFAULT_CHUNK`. `--assert-spc-parse-ns 150` fails the
//! run when it comes in above 150 ns per record.
//!
//! `sim/requests_per_sec_core` is the single-server simulation core on its
//! own: ns per simulated request through FCFS, the core and the metrics.
//! `--assert-sim-ns 160` fails the run when it comes in above 160 ns.
//!
//! `shaper/{split,fairqueue,miser}_observed_lanes` are one observed run
//! of each policy over the OpenMail trace through
//! `WorkloadShaper::run_observed`, in ns per request: the FIFO lanes for
//! Split, the simulation core for FairQueue and Miser.
//! `shaper/split_observed_engine` is the Split run built through
//! `WorkloadShaper::simulation` (its scheduler on the simulation core),
//! observed exactly as `run_observed` observes. The two Split rows are
//! timed in 15 interleaved samples, and every run asserts that the lanes
//! cost at most 0.8 of the engine. In 10 runs with CI's flags on a shared
//! 2-core x86-64 host the paired ratio read 0.53-0.57x.
//!
//! `obs/window_feed` is the retention feed of one fixed 600-request
//! gateway lane (`TenantReport::feed_longterm` into a fresh
//! `LongTermStore`), in ns per request; `obs/sketch_record` is one
//! `LatencySketch::record` into a warm sketch.
//! `--assert-window-feed-ns 45` fails the run when the feed comes in
//! above 45 ns per request: about 2x the one-pass fold (12-23 ns on a
//! shared 2-core x86-64 host), and below the ~60 ns median (44-68 ns) of
//! the per-window snapshot route it replaced. Every run also asserts
//! that the feed costs at most 8x `obs/sketch_record`, a ratio that holds
//! across host phases: in 10 runs with CI's flags on that host the
//! one-pass fold read 3.8-6.6x, and the snapshot route read 13.0-21.2x.
//!
//! `gateway/round_4x600_{serial,pool2}` time `tenant_gateway` rounds (4
//! lanes of 600 requests) through `IngestGateway::run` on a serial pool
//! and on a 2-wide one, per round, cycling through 24 distinct rounds in
//! 15 interleaved samples. Every run asserts that the 2-wide round costs
//! at most 1.1x the serial one. In 10 runs with CI's flags on that host
//! it read 0.57-0.85x; in phases where the kernel woke the worker on the
//! caller's CPU it read 1.02x (5 of 5 runs), which is why the bound is
//! not 1.0. A pool that spawned its threads on every call read
//! 0.97-1.36x. `fleet/place_1000_serial` is `fleet/place_1000` on a
//! serial pool, for comparison with the `--threads` row.
//!
//! A malformed flag prints `error: …` and [`USAGE`] to stderr and exits
//! with status 2.

use std::time::Instant;

use gqos_bench::experiments::fleet;
use gqos_bench::ExpConfig;
use gqos_control::{CommandBody, ControlPlane, ControlRequest};
use gqos_core::{
    decompose, overflow_count, overflow_curve, CapacityPlanner, FcfsScheduler, FleetPlacer,
    Provision, QosTarget, QuoteCache, RecombinePolicy, RttClassifier, WorkloadShaper,
};
use gqos_fairqueue::{FlowId, Sfq};
use gqos_parallel::WorkerPool;
use gqos_sim::{
    run_chunks, simulate, CompletionRecord, FixedRateServer, LatencySketch, LongTermStore,
    RetentionConfig, ServiceClass, TraceHandle,
};
use gqos_stream::{
    ArrivalStream, IngestGateway, ShedScheduler, SpcStream, TenantSpec, WorkloadStream,
    DEFAULT_CHUNK,
};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::{spc, Iops, Request, SimDuration, SimTime, TraceSummary, Workload};

/// One measured kernel: median nanoseconds per operation, plus how many
/// trace elements one operation touches (0 when not meaningful).
struct Record {
    name: &'static str,
    median_ns: f64,
    elements: u64,
}

/// Runs `op` `iters` times; returns the ns per single call.
fn time_per_call<R>(iters: usize, op: &mut impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(op());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Runs `op` `iters` times per sample for `samples` samples; returns the
/// median ns per single `op` call.
fn measure<R>(samples: usize, iters: usize, mut op: impl FnMut() -> R) -> f64 {
    median(
        (0..samples)
            .map(|_| time_per_call(iters, &mut op))
            .collect(),
    )
}

/// Runs `a` and `b` `iters` times each per sample for `samples` samples,
/// alternating which goes first, so host drift falls on both alike;
/// returns the median ns per call of each.
fn measure_paired<A, B>(
    samples: usize,
    iters: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (f64, f64) {
    let (mut per_a, mut per_b) = (Vec::with_capacity(samples), Vec::with_capacity(samples));
    for sample in 0..samples {
        if sample % 2 == 0 {
            per_a.push(time_per_call(iters, &mut a));
            per_b.push(time_per_call(iters, &mut b));
        } else {
            per_b.push(time_per_call(iters, &mut b));
            per_a.push(time_per_call(iters, &mut a));
        }
    }
    (median(per_a), median(per_b))
}

/// One gateway lane as `tenant_gateway` builds it: planned at 90% within
/// 50 ms, with an inbox of 6·⌊Cmin·δ⌋.
fn gateway_lane(name: String, workload: Workload, policy: RecombinePolicy) -> TenantSpec {
    let deadline = SimDuration::from_millis(50);
    let cmin = CapacityPlanner::new(&workload, deadline).min_capacity(0.90);
    let q1 = cmin.requests_within(deadline) as usize;
    TenantSpec {
        name,
        workload,
        shaper: WorkloadShaper::new(Provision::with_default_surplus(cmin, deadline), deadline),
        policy,
        inbox_bound: (q1 * 6).max(1),
        chunk: DEFAULT_CHUNK,
    }
}

/// Distinct rounds the gateway rows cycle through.
const GATEWAY_ROUNDS: usize = 24;

/// Paired samples of the gateway rows, whatever `--samples` says: their
/// ratio is asserted, and 3 samples leave it at the mercy of one slow one.
const GATEWAY_SAMPLES: usize = 15;

/// The largest `gateway/round_4x600_pool2` / `gateway/round_4x600_serial`
/// ratio allowed.
const POOL2_OVER_SERIAL: f64 = 1.1;

/// The largest `gateway/{fcfs,split}_lane_lanes` /
/// `gateway/{fcfs,split}_lane_engine` ratio allowed.
const INBOX_LANES_OVER_ENGINE: f64 = 0.9;

/// The largest `obs/window_feed` / `obs/sketch_record` ratio allowed.
const WINDOW_FEED_OVER_RECORD: f64 = 8.0;

/// The usage line printed under every command-line error.
const USAGE: &str = "usage: perf_report [--out <path>] [--samples <n>] [--span-secs <s>] \
     [--threads <n>] [--assert-fleet-place-ms <ms>] [--assert-fleet-speedup <ratio>] \
     [--assert-spc-parse-ns <ns>] [--assert-sim-ns <ns>] [--assert-window-feed-ns <ns>]";

fn parse_flag(args: &[String], flag: &str) -> Option<u64> {
    let i = args.iter().position(|a| a == flag)?;
    let value = args.get(i + 1).unwrap_or_else(|| {
        gqos_bench::exit_usage(USAGE, &format!("{flag} requires a value"));
    });
    match value.parse() {
        Ok(v) => Some(v),
        Err(_) => gqos_bench::exit_usage(
            USAGE,
            &format!("{flag} value must be an integer (got `{value}`)"),
        ),
    }
}

/// The observed-run rows of the policies that run on the simulation core.
const SHAPER_ROWS: [(RecombinePolicy, &str); 2] = [
    (
        RecombinePolicy::FairQueue,
        "shaper/fairqueue_observed_lanes",
    ),
    (RecombinePolicy::Miser, "shaper/miser_observed_lanes"),
];

/// Paired samples of the Split rows, whatever `--samples` says: their
/// ratio is asserted, and 3 samples leave it at the mercy of one slow one.
const SPLIT_SAMPLES: usize = 15;

/// The largest `shaper/split_observed_lanes` /
/// `shaper/split_observed_engine` ratio allowed.
const SPLIT_LANES_OVER_ENGINE: f64 = 0.8;

/// Requests one fair-queue cycle enqueues and drains.
const FAIRQUEUE_CYCLE: usize = 10_000;

/// One fair-queue cycle: enqueue [`FAIRQUEUE_CYCLE`] requests alternating
/// over two flows, then dequeue until empty. Returns the served count.
fn fairqueue_cycle(mut scheduler: Sfq) -> usize {
    for i in 0..FAIRQUEUE_CYCLE {
        scheduler.enqueue(
            FlowId::new(i % 2),
            Request::at(SimTime::from_micros(i as u64)),
        );
    }
    let mut served = 0;
    while scheduler.dequeue().is_some() {
        served += 1;
    }
    served
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_core.json".to_string());
    let samples = parse_flag(&args, "--samples").unwrap_or(9) as usize;
    let span = SimDuration::from_secs(parse_flag(&args, "--span-secs").unwrap_or(60));
    let threads = parse_flag(&args, "--threads").unwrap_or(4) as usize;
    let parse_ratio = |flag: &'static str| -> Option<f64> {
        args.iter().position(|a| a == flag).map(|i| {
            let value = args.get(i + 1).unwrap_or_else(|| {
                gqos_bench::exit_usage(USAGE, &format!("{flag} requires a ratio"));
            });
            match value.parse::<f64>() {
                Ok(v) if v.is_finite() && v > 0.0 => v,
                _ => gqos_bench::exit_usage(
                    USAGE,
                    &format!("{flag} value must be a positive ratio (got `{value}`)"),
                ),
            }
        })
    };
    let fleet_place_ceiling_ms = parse_flag(&args, "--assert-fleet-place-ms");
    let fleet_speedup_floor = parse_ratio("--assert-fleet-speedup");
    let spc_parse_ceiling_ns = parse_flag(&args, "--assert-spc-parse-ns");
    let sim_ceiling_ns = parse_flag(&args, "--assert-sim-ns");
    let window_feed_ceiling_ns = parse_flag(&args, "--assert-window-feed-ns");

    let openmail = TraceProfile::OpenMail.generate(span, 1);
    let websearch = TraceProfile::WebSearch.generate(span, 1);
    let delta = SimDuration::from_millis(10);
    let n = openmail.len() as u64;
    println!(
        "perf_report: OpenMail {} req, WebSearch {} req over {span} \
         ({samples} samples)",
        openmail.len(),
        websearch.len()
    );

    // Warm the arrival columns so no record pays the one-time projection.
    let _ = openmail.arrival_column();
    let _ = websearch.arrival_column();

    // The fused-vs-scalar capacity grid: 16 probes spanning infeasible to
    // comfortable capacities.
    let grid: Vec<Iops> = (1..=16).map(|i| Iops::new(i as f64 * 150.0)).collect();

    let mut records: Vec<Record> = Vec::new();
    let mut push = |name, median_ns, elements| {
        println!("  {name:<32} {median_ns:>14.1} ns/op");
        records.push(Record {
            name,
            median_ns,
            elements,
        });
    };

    // --- SPC ingest ------------------------------------------------------
    let mut spc_bytes = Vec::new();
    spc::write_trace(&openmail, &mut spc_bytes).expect("writing to memory cannot fail");
    let mut chunk = Vec::with_capacity(DEFAULT_CHUNK);
    let spc_parse_ns = measure(samples, 20, || {
        let mut stream = SpcStream::new(&spc_bytes[..], DEFAULT_CHUNK);
        let mut records = 0;
        while let k @ 1.. = stream.next_chunk(&mut chunk).expect("valid SPC") {
            records += k;
        }
        records
    }) / n as f64;
    push("trace/spc_parse", spc_parse_ns, n);
    if let Some(ceiling_ns) = spc_parse_ceiling_ns {
        assert!(
            spc_parse_ns <= ceiling_ns as f64,
            "trace/spc_parse ({spc_parse_ns:.1} ns per record) exceeded the \
             {ceiling_ns} ns ceiling"
        );
        println!("  spc parse assertion: trace/spc_parse <= {ceiling_ns} ns ok");
    }

    // --- RTT kernels -----------------------------------------------------
    let mut classifier = RttClassifier::new(Iops::new(1000.0), delta);
    push(
        "rtt/classifier_op",
        measure(samples, 2_000_000, || {
            let class = classifier.classify();
            if class == ServiceClass::PRIMARY {
                classifier.primary_departed();
            }
            class
        }),
        1,
    );
    push(
        "rtt/decompose",
        measure(samples, 20, || {
            decompose(&openmail, Iops::new(900.0), delta)
        }),
        n,
    );
    push(
        "rtt/overflow_count",
        measure(samples, 20, || {
            overflow_count(&openmail, Iops::new(900.0), delta)
        }),
        n,
    );

    // --- Fused capacity grid vs per-capacity probes ----------------------
    push(
        "grid/overflow_curve_16",
        measure(samples, 3, || overflow_curve(&openmail, &grid, delta)),
        n * grid.len() as u64,
    );
    push(
        "grid/per_probe_16",
        measure(samples, 3, || {
            grid.iter()
                .map(|&c| {
                    if c.requests_within(delta) == 0 {
                        n
                    } else {
                        overflow_count(&openmail, c, delta)
                    }
                })
                .collect::<Vec<u64>>()
        }),
        n * grid.len() as u64,
    );

    // --- Planner ---------------------------------------------------------
    let planner = CapacityPlanner::new(&websearch, delta);
    push(
        "planner/min_capacity_f90",
        measure(samples, 10, || planner.min_capacity(0.90)),
        websearch.len() as u64,
    );
    push(
        "planner/min_capacity_f100",
        measure(samples, 10, || planner.min_capacity(1.0)),
        websearch.len() as u64,
    );
    let fractions = [0.90, 0.95, 0.99, 0.999, 1.0];
    push(
        "planner/menu_serial_5",
        measure(samples, 3, || planner.menu(&fractions)),
        websearch.len() as u64,
    );

    // Menu contract: one seed curve swept with warm starts quotes exactly
    // what a fresh search per fraction does.
    let menu = planner.menu(&fractions).expect("valid fractions");
    for (quote, &f) in menu.iter().zip(&fractions) {
        assert_eq!(
            quote.cmin.get().to_bits(),
            planner.min_capacity(f).get().to_bits(),
            "menu quote for f={f} differs from min_capacity"
        );
    }
    println!(
        "  menu equivalence: menu == min_capacity ({} fractions) ok",
        fractions.len()
    );

    // --- Fair queueing -----------------------------------------------------
    // The per-request cost of the FairQueue recombination path: a 9:1
    // weighted two-flow cycle through SFQ.
    push(
        "fairqueue/sfq_cycle",
        measure(samples, 20, || fairqueue_cycle(Sfq::new(&[9.0, 1.0]))),
        FAIRQUEUE_CYCLE as u64,
    );

    // --- Workload aggregates ---------------------------------------------
    let stats_window = SimDuration::from_millis(100);
    push(
        "summary/cold",
        measure(samples, 3, || TraceSummary::new(&openmail, stats_window)),
        n,
    );

    // --- Simulation ------------------------------------------------------
    let sim_w: Workload = {
        let sim_span = SimDuration::from_secs((span.as_secs_f64() as u64).clamp(1, 30));
        TraceProfile::OpenMail.generate(sim_span, 1)
    };
    let sim_capacity = CapacityPlanner::new(&sim_w, delta).min_capacity(0.90);
    let sim_run_ns = measure(samples, 3, || {
        simulate(
            &sim_w,
            FcfsScheduler::new(),
            FixedRateServer::new(sim_capacity),
        )
        .completed()
    });
    push("sim/fcfs_openmail", sim_run_ns, sim_w.len() as u64);
    // The simulated-throughput headline: wall-clock ns per simulated
    // request through the whole simulation core (scheduler, server,
    // records). Requests per second = 1e9 / median_ns.
    let ns_per_request = sim_run_ns / sim_w.len() as f64;
    push(
        "sim/requests_per_sec_core",
        ns_per_request,
        sim_w.len() as u64,
    );
    println!(
        "  sim throughput: {:.2}M simulated requests/sec",
        1e3 / ns_per_request
    );
    if let Some(ceiling_ns) = sim_ceiling_ns {
        assert!(
            ns_per_request <= ceiling_ns as f64,
            "sim/requests_per_sec_core ({ns_per_request:.1} ns per request) \
             exceeded the {ceiling_ns} ns ceiling"
        );
        println!("  sim assertion: sim/requests_per_sec_core <= {ceiling_ns} ns ok");
    }

    // --- Shaped policies: lanes vs the engine -----------------------------
    // One observed run over the OpenMail trace, streamed in `DEFAULT_CHUNK`s
    // into per-class sketches through `run_observed`. Split also runs
    // built through `WorkloadShaper::simulation` and observed as
    // `run_observed` observes (one class sketch per record, one merge);
    // its FIFO lanes must cost at most their share of that engine run.
    let shaper = WorkloadShaper::plan(&openmail, QosTarget::new(0.90, delta));
    let observed = |policy| {
        let mut stream = WorkloadStream::new(openmail.clone(), DEFAULT_CHUNK);
        shaper
            .run_observed(&mut stream, policy, |_| {})
            .expect("workload stream")
            .completed
    };
    let split_engine = || {
        let mut stream = WorkloadStream::new(openmail.clone(), DEFAULT_CHUNK);
        let mut primary = LatencySketch::new();
        let mut overflow = LatencySketch::new();
        let mut completed = 0usize;
        shaper
            .simulation(
                RecombinePolicy::Split,
                TraceHandle::disabled(),
                |s, _| s,
                FixedRateServer::new,
            )
            .run_stream(&mut stream, |r| {
                let response = r.response_time().as_nanos();
                match r.class {
                    ServiceClass::PRIMARY => primary.record(response),
                    _ => overflow.record(response),
                }
                completed += 1;
            })
            .expect("workload stream");
        let mut sketch = primary.clone();
        sketch.merge(&overflow);
        (sketch, completed)
    };
    let (split_lanes_ns, split_engine_ns) = measure_paired(
        SPLIT_SAMPLES,
        3,
        || observed(RecombinePolicy::Split),
        split_engine,
    );
    let (split_lanes_ns, split_engine_ns) = (split_lanes_ns / n as f64, split_engine_ns / n as f64);
    push("shaper/split_observed_lanes", split_lanes_ns, n);
    push("shaper/split_observed_engine", split_engine_ns, n);
    println!(
        "  shaper: Split on lanes costs {:.2}x of the engine",
        split_lanes_ns / split_engine_ns
    );
    assert!(
        split_lanes_ns <= SPLIT_LANES_OVER_ENGINE * split_engine_ns,
        "shaper/split_observed_lanes ({split_lanes_ns:.1} ns per request) exceeded \
         {SPLIT_LANES_OVER_ENGINE} of shaper/split_observed_engine ({split_engine_ns:.1} ns) \
         — Split is no longer on its closed-form lanes"
    );
    for (policy, row) in SHAPER_ROWS {
        push(row, measure(samples, 3, || observed(policy)) / n as f64, n);
    }

    // --- Sketches and the retention feed ----------------------------------
    // One fixed 600-request gateway lane, as `tenant_gateway` runs them:
    // OpenMail, Split, fed at 100 ms windows. The warm sketch already
    // spans its values.
    let serial_gateway = IngestGateway::new(WorkerPool::serial());
    let lane = serial_gateway
        .run(vec![gateway_lane(
            "lane".into(),
            openmail.truncated(600),
            RecombinePolicy::Split,
        )])
        .remove(0);
    let lane_n = lane.records.len() as u64;
    let feed_window = SimDuration::from_millis(100);
    let feed_ns = measure(samples, 200, || {
        let mut store = LongTermStore::new(RetentionConfig::default_tiers());
        lane.feed_longterm(feed_window, &mut store);
        store.resident_sketches()
    }) / lane_n as f64;
    push("obs/window_feed", feed_ns, lane_n);
    if let Some(ceiling_ns) = window_feed_ceiling_ns {
        assert!(
            feed_ns <= ceiling_ns as f64,
            "obs/window_feed ({feed_ns:.1} ns per request) exceeded the \
             {ceiling_ns} ns ceiling"
        );
        println!("  window feed assertion: obs/window_feed <= {ceiling_ns} ns ok");
    }
    let responses: Vec<u64> = lane
        .records
        .iter()
        .map(|r| r.response_time().as_nanos())
        .collect();
    let mut warm = LatencySketch::new();
    responses.iter().for_each(|&v| warm.record(v));
    let record_ns = measure(samples, 2_000, || {
        for &v in &responses {
            warm.record(std::hint::black_box(v));
        }
    }) / lane_n as f64;
    push("obs/sketch_record", record_ns, 1);
    println!(
        "  retention feed: one request's feed costs {:.2}x of one sketch record",
        feed_ns / record_ns
    );
    assert!(
        feed_ns <= WINDOW_FEED_OVER_RECORD * record_ns,
        "obs/window_feed ({feed_ns:.1} ns per request) exceeded \
         {WINDOW_FEED_OVER_RECORD}x obs/sketch_record ({record_ns:.1} ns) — \
         the feed is no longer one sketch record per value"
    );

    // --- Gateway round -------------------------------------------------------
    // `tenant_gateway` rounds: 4 lanes of 600 requests each. Tenant i draws
    // WebSearch/FinTrans/OpenMail in turn at seed 1 + 7919·i, over the span
    // qosbench draws it from, under policy ⌊i/3⌋ mod 4. Like the workload,
    // the rows cycle through distinct rounds (24 here) instead of
    // repeating one, whose lanes would stay hot in one core's cache.
    // Timed per round on a serial pool and on a 2-wide pool (the caller
    // and one parked worker).
    let profiles = [
        TraceProfile::WebSearch,
        TraceProfile::FinTrans,
        TraceProfile::OpenMail,
    ];
    let lanes: Vec<TenantSpec> = (0..GATEWAY_ROUNDS * 4)
        .map(|i| {
            let profile = profiles[i % profiles.len()];
            let policy = RecombinePolicy::ALL[(i / profiles.len()) % RecombinePolicy::ALL.len()];
            let span_s = if profile == TraceProfile::FinTrans {
                18
            } else {
                6
            };
            let workload = profile
                .generate(SimDuration::from_secs(span_s), 1 + 7919 * i as u64)
                .truncated(600);
            gateway_lane(format!("tenant-{i:03}"), workload, policy)
        })
        .collect();
    let rounds: Vec<&[TenantSpec]> = lanes.chunks(4).collect();
    let round_n = lanes.iter().map(|t| t.workload.len() as u64).sum::<u64>() / rounds.len() as u64;
    let pool2_gateway = IngestGateway::new(WorkerPool::new(2));
    for round in &rounds {
        assert!(
            pool2_gateway.run(round.to_vec()) == serial_gateway.run(round.to_vec()),
            "a 2-wide gateway round differs from the serial one"
        );
    }
    let every_round = |gateway: &IngestGateway| {
        for round in &rounds {
            std::hint::black_box(gateway.run(round.to_vec()));
        }
    };
    let (serial_pass_ns, pool2_pass_ns) = measure_paired(
        GATEWAY_SAMPLES,
        2,
        || every_round(&serial_gateway),
        || every_round(&pool2_gateway),
    );
    let round_serial_ns = serial_pass_ns / rounds.len() as f64;
    let round_pool2_ns = pool2_pass_ns / rounds.len() as f64;
    push("gateway/round_4x600_serial", round_serial_ns, round_n);
    push("gateway/round_4x600_pool2", round_pool2_ns, round_n);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "  gateway round: the 2-wide pool costs {:.2}x of serial ({cores} cores)",
        round_pool2_ns / round_serial_ns
    );
    assert!(
        round_pool2_ns <= POOL2_OVER_SERIAL * round_serial_ns,
        "gateway/round_4x600_pool2 ({round_pool2_ns:.0} ns) exceeded \
         {POOL2_OVER_SERIAL}x gateway/round_4x600_serial ({round_serial_ns:.0} ns) — \
         a call into the worker pool costs more than the work it shares"
    );

    // --- Gateway lanes: the inbox lanes against the core ------------------
    // The FCFS and the Split lane of those rounds whose inbox sheds most
    // (the last of a tie), each through its inbox lanes and through `ShedScheduler` over
    // its scheduler on the simulation core, into the same sink as a
    // gateway lane's: a sketch record and a kept record per request.
    let shed = |spec: &TenantSpec| serial_gateway.run(vec![spec.clone()]).remove(0).shed;
    for (policy, lanes_row, engine_row) in [
        (
            RecombinePolicy::Fcfs,
            "gateway/fcfs_lane_lanes",
            "gateway/fcfs_lane_engine",
        ),
        (
            RecombinePolicy::Split,
            "gateway/split_lane_lanes",
            "gateway/split_lane_engine",
        ),
    ] {
        let spec = lanes
            .iter()
            .filter(|spec| spec.policy == policy)
            .max_by_key(|spec| shed(spec))
            .expect("the rounds hold lanes of every policy");
        let bound = spec.inbox_bound;
        let run = |on_lanes: bool| {
            let mut sketch = LatencySketch::new();
            let mut records = Vec::with_capacity(spec.workload.len());
            let sink = |r: CompletionRecord| {
                sketch.record(r.response_time().as_nanos());
                records.push(r);
            };
            let mut stream = WorkloadStream::new(spec.workload.clone(), spec.chunk);
            let run = if on_lanes {
                let mut lanes = spec
                    .shaper
                    .inbox_lanes(policy, &TraceHandle::disabled(), bound, None)
                    .expect("FCFS and Split gateway lanes run on the FIFO lanes");
                run_chunks(&mut lanes, &mut stream, sink)
            } else {
                spec.shaper
                    .simulation(
                        policy,
                        TraceHandle::disabled(),
                        |s, _| ShedScheduler::new(s, bound),
                        FixedRateServer::new,
                    )
                    .run_stream(&mut stream, sink)
            };
            run.expect("workload stream");
            (sketch, records)
        };
        assert!(
            run(true) == run(false),
            "{policy}: the inbox lanes differ from the core"
        );
        let (lanes_ns, engine_ns) =
            measure_paired(GATEWAY_SAMPLES, 40, || run(true), || run(false));
        let lane_n = spec.workload.len() as u64;
        let (lanes_ns, engine_ns) = (lanes_ns / lane_n as f64, engine_ns / lane_n as f64);
        push(lanes_row, lanes_ns, lane_n);
        push(engine_row, engine_ns, lane_n);
        println!(
            "  gateway lane: {policy} on its inbox lanes costs {:.2}x of the core \
             ({}, {} of {lane_n} shed)",
            lanes_ns / engine_ns,
            spec.name,
            shed(spec)
        );
        assert!(
            lanes_ns <= INBOX_LANES_OVER_ENGINE * engine_ns,
            "{lanes_row} ({lanes_ns:.1} ns per request) exceeded {INBOX_LANES_OVER_ENGINE} of \
             {engine_row} ({engine_ns:.1} ns) — the {policy} gateway lane is no longer on its \
             inbox lanes"
        );
    }

    // --- Fleet placement --------------------------------------------------
    // The fleet experiment's headline scenario, as trended records: pack
    // 1000 tenants onto 64 servers from a cold quote cache, re-place one
    // degraded server against the warm cache, and price a single quote
    // both cold (full planner search) and memoized (cache hit).
    // Short per-tenant traces, independent of `--span-secs`: the
    // scenario is 1000 tenants, not 1000 long traces.
    let fleet_cfg = ExpConfig {
        span: SimDuration::from_secs(10),
        ..ExpConfig::default()
    };
    let fleet_deadline = SimDuration::from_millis(fleet::FLEET_DEADLINE_MS);
    let fleet_target = QosTarget::new(fleet::FLEET_FRACTION, fleet_deadline);
    let fleet_tenants = fleet::fleet_tenants(&fleet_cfg, 1000);
    let fleet_capacity = fleet::size_capacity(&fleet_tenants, 64, fleet_target);
    let fleet_placer = FleetPlacer::new(fleet_target, Iops::new(fleet_capacity as f64));
    let pool = WorkerPool::new(threads);

    let tenant0 = &fleet_tenants[0];
    let quote_cold_ns = measure(samples, 5, || {
        CapacityPlanner::new(tenant0.workload(), fleet_deadline).min_capacity(fleet::FLEET_FRACTION)
    });
    push(
        "fleet/quote_cold",
        quote_cold_ns,
        tenant0.workload().len() as u64,
    );
    let mut fleet_cache = QuoteCache::new(fleet_deadline);
    let _ = fleet_cache.quote(tenant0, fleet::FLEET_FRACTION);
    let quote_hit_ns = measure(samples, 100_000, || {
        fleet_cache.quote(tenant0, fleet::FLEET_FRACTION)
    });
    push("fleet/quote_cache_hit", quote_hit_ns, 1);
    println!(
        "  quote cache: a hit costs {:.5}x of the cold search it memoizes",
        quote_hit_ns / quote_cold_ns
    );
    assert!(
        quote_hit_ns <= 0.05 * quote_cold_ns,
        "fleet/quote_cache_hit ({quote_hit_ns:.0} ns) exceeded 5% of \
         fleet/quote_cold ({quote_cold_ns:.0} ns) — the quote cache stopped paying"
    );

    let place_1000_ns = measure(samples, 1, || {
        let mut cache = QuoteCache::new(fleet_deadline);
        fleet_placer
            .pack(&fleet_tenants, 64, &mut cache, &pool)
            .expect("64 servers, matching deadline")
            .servers_used()
    });
    push(
        "fleet/place_1000",
        place_1000_ns,
        fleet_tenants.len() as u64,
    );
    let serial_pool = WorkerPool::serial();
    let place_1000_serial_ns = measure(samples, 1, || {
        let mut cache = QuoteCache::new(fleet_deadline);
        fleet_placer
            .pack(&fleet_tenants, 64, &mut cache, &serial_pool)
            .expect("64 servers, matching deadline")
            .servers_used()
    });
    push(
        "fleet/place_1000_serial",
        place_1000_serial_ns,
        fleet_tenants.len() as u64,
    );
    println!(
        "  fleet place: {threads} wide costs {:.2}x of serial",
        place_1000_ns / place_1000_serial_ns
    );
    if let Some(ceiling_ms) = fleet_place_ceiling_ms {
        assert!(
            place_1000_ns <= ceiling_ms as f64 * 1e6,
            "fleet/place_1000 ({:.1} ms) exceeded the {ceiling_ms} ms ceiling",
            place_1000_ns / 1e6
        );
        println!("  fleet place assertion: place_1000 <= {ceiling_ms} ms ok");
    }

    let placement = fleet_placer
        .pack(&fleet_tenants, 64, &mut fleet_cache, &pool)
        .expect("64 servers, matching deadline");
    let degraded_node = fleet::busiest_node(&placement);
    let residents = placement.bins()[degraded_node].len() as u64;
    let replan_ns = measure(samples, 1, || {
        let mut p = placement.clone();
        fleet_placer
            .replan_degraded(
                &mut p,
                &fleet_tenants,
                degraded_node,
                0.5,
                &mut fleet_cache,
                &pool,
            )
            .expect("valid node and factor")
            .placed
    });
    push("fleet/replan_one_node", replan_ns, residents);

    // The like-for-like baseline on a reduced cell: every naive verdict
    // and quote is a from-scratch cold search, the cached side reuses the
    // headline-warmed cache.
    let small = &fleet_tenants[..128];
    let naive_ns = measure(samples, 1, || {
        fleet_placer
            .pack_naive(small, 8)
            .expect("8 servers")
            .servers_used()
    });
    push("fleet/naive_pack_128", naive_ns, small.len() as u64);
    let cached_ns = measure(samples, 1, || {
        fleet_placer
            .pack(small, 8, &mut fleet_cache, &pool)
            .expect("8 servers")
            .servers_used()
    });
    push("fleet/cached_pack_128", cached_ns, small.len() as u64);
    println!(
        "  fleet speedup: cached packer is {:.1}x vs the cold-costing baseline \
         (128 tenants, 8 servers)",
        naive_ns / cached_ns
    );
    if let Some(floor) = fleet_speedup_floor {
        assert!(
            naive_ns >= floor * cached_ns,
            "cached packer is only {:.1}x faster than the cold-costing baseline \
             (floor {floor}x) — the memoized engine regressed",
            naive_ns / cached_ns
        );
        println!("  fleet speedup assertion: cached >= {floor}x naive ok");
    }

    // --- Control plane -----------------------------------------------------
    // One SLO retune as the feedback controller issues it, on the
    // `control_loop` shape: 240 of the fleet tenants on 24 servers, a
    // share-carrying `UpdateSla` at the tenant's unchanged fraction and at
    // the controller's 100 ms window deadline (not the fleet's). Each retune
    // moves the fencing epoch; the first one pays the only cold search.
    let retune_deadline = SimDuration::from_millis(100);
    let mut plane = ControlPlane::new(fleet_placer, 24, WorkerPool::serial()).expect("24 servers");
    for (i, t) in fleet_tenants[..240].iter().enumerate() {
        let add = CommandBody::AddTenant {
            tenant: t.id(),
            workload: t.workload().clone(),
        };
        let out = plane.apply(&ControlRequest::new(i as u64, add), SimTime::ZERO);
        assert!(out.outcome.is_ok(), "fresh tenant rejected: {out:?}");
    }
    let retuned = fleet_tenants[0].id();
    let mut epoch = plane.epoch_of(retuned).expect("added above");
    let mut next_id = 240;
    let mut retune = || {
        next_id += 1;
        let update = CommandBody::UpdateSla {
            tenant: retuned,
            fraction: fleet::FLEET_FRACTION,
            deadline: retune_deadline,
            expect_epoch: epoch,
            share: Some(fleet_capacity / 2 + next_id % 2),
        };
        let ack = plane
            .apply(&ControlRequest::new(next_id, update), SimTime::ZERO)
            .outcome
            .expect("a fenced retune within the fleet's capacity applies");
        epoch = ack.epoch.expect("an SLA ack carries the new epoch");
    };
    retune();
    let retune_ns = measure(samples, 2_000, &mut retune);
    push("control/retune_apply", retune_ns, 1);
    println!(
        "  control plane: a retune costs {:.5}x of one cold quote",
        retune_ns / quote_cold_ns
    );
    assert!(
        retune_ns <= 0.05 * quote_cold_ns,
        "control/retune_apply ({retune_ns:.0} ns) exceeded 5% of \
         fleet/quote_cold ({quote_cold_ns:.0} ns) — retunes are re-planning \
         unchanged tenants"
    );

    // --- JSON ------------------------------------------------------------
    let fused = records
        .iter()
        .find(|r| r.name == "grid/overflow_curve_16")
        .expect("fused record");
    let scalar = records
        .iter()
        .find(|r| r.name == "grid/per_probe_16")
        .expect("scalar record");
    println!(
        "  grid speedup: fused is {:.2}x vs per-capacity probes",
        scalar.median_ns / fused.median_ns
    );

    let mut json = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"name\": \"{}\", \"median_ns\": {:.1}, \"elements\": {}}}{}\n",
            r.name,
            r.median_ns,
            r.elements,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    std::fs::write(&out_path, json).expect("write BENCH json");
    println!("wrote {out_path}");
}
