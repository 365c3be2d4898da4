//! Deterministic micro-benchmark report: the repo's perf trajectory seed.
//!
//! Runs the planner / RTT / simulation kernels over fixed synthetic traces
//! (fixed seed, fixed iteration counts — the *work* is deterministic, only
//! the wall-clock varies) and writes `BENCH_core.json`: one record per
//! kernel with the median ns/op across samples. CI runs a reduced-sample
//! pass and archives the JSON; trend tooling diffs records by `name`.
//!
//! Also asserts the serial-vs-parallel SLA-menu equivalence contract on
//! every run: `CapacityPlanner::menu` and `menu_parallel` must quote
//! byte-identical capacities.
//!
//! Usage: `cargo run --release -p gqos-bench --bin perf_report --
//!         [--out BENCH_core.json] [--samples 9] [--span-secs 60]
//!         [--threads 4] [--assert-parallel-speedup <ratio>]
//!         [--assert-fleet-place-ms <ms>] [--assert-fleet-speedup <ratio>]
//!         [--assert-spc-parse-ns <ns>] [--assert-sim-ns <ns>]`
//!
//! With `--assert-parallel-speedup 0.75` the run fails unless
//! `planner/menu_parallel_5` comes in at or under 0.75× of
//! `planner/menu_serial_5` — the CI guard against the parallel menu
//! regressing back to a non-speedup.
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
//! `SpcStream` at `DEFAULT_CHUNK`. `--assert-spc-parse-ns 200` fails the
//! run when it comes in above 200 ns per record.
//!
//! `sim/requests_per_sec_core` is the single-server engine on its own: ns
//! per simulated request through FCFS, the event queue and the metrics.
//! `--assert-sim-ns 160` fails the run when it comes in above 160 ns.
//!
//! `shaper/split_observed_lanes` and `shaper/split_observed_engine` are one
//! observed Split run over the OpenMail trace, in ns per request: through
//! `WorkloadShaper::run_observed` (the FIFO-lane recurrence), and the same
//! run built explicitly on the event engine. The lane row must always cost
//! at most half the engine row (asserted on every run; both rows come from
//! one process, so the ratio holds on shared hosts).
//!
//! `obs/window_feed` is the retention feed of one fixed 600-request
//! gateway lane (`TenantReport::feed_longterm` into a fresh
//! `LongTermStore`), in ns per request; `obs/sketch_record` is one
//! `LatencySketch::record` into a warm sketch.
//!
//! A malformed flag prints `error: …` and [`USAGE`] to stderr and exits
//! with status 2.

use std::time::Instant;

use gqos_bench::experiments::fleet;
use gqos_bench::ExpConfig;
use gqos_control::{CommandBody, ControlPlane, ControlRequest};
use gqos_core::{
    decompose, overflow_count, overflow_curve, within_miss_budget, CapacityPlanner,
    DecomposeScratch, FcfsScheduler, FleetPlacer, Provision, QosTarget, QuoteCache,
    RecombinePolicy, RttClassifier, WorkloadShaper,
};
use gqos_fairqueue::{FlowId, Sfq};
use gqos_parallel::WorkerPool;
use gqos_sim::{
    simulate, FixedRateServer, LatencySketch, LongTermStore, RetentionConfig, ServiceClass,
    TraceHandle,
};
use gqos_stream::{
    ArrivalStream, IngestGateway, SpcStream, TenantSpec, WorkloadStream, DEFAULT_CHUNK,
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

/// Runs `op` `iters` times per sample for `samples` samples; returns the
/// median ns per single `op` call.
fn measure<R>(samples: usize, iters: usize, mut op: impl FnMut() -> R) -> f64 {
    let mut per_op: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(op());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_op.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    per_op[per_op.len() / 2]
}

/// The usage line printed under every command-line error.
const USAGE: &str = "usage: perf_report [--out <path>] [--samples <n>] [--span-secs <s>] \
     [--threads <n>] [--assert-parallel-speedup <ratio>] [--assert-fleet-place-ms <ms>] \
     [--assert-fleet-speedup <ratio>] [--assert-spc-parse-ns <ns>] [--assert-sim-ns <ns>]";

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
    let speedup_bound = parse_ratio("--assert-parallel-speedup");
    let fleet_place_ceiling_ms = parse_flag(&args, "--assert-fleet-place-ms");
    let fleet_speedup_floor = parse_ratio("--assert-fleet-speedup");
    let spc_parse_ceiling_ns = parse_flag(&args, "--assert-spc-parse-ns");
    let sim_ceiling_ns = parse_flag(&args, "--assert-sim-ns");

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
    let mut scratch = DecomposeScratch::new();
    push(
        "rtt/decompose_scratch",
        measure(samples, 20, || {
            scratch
                .decompose(&openmail, Iops::new(900.0), delta)
                .overflow_count()
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
    push(
        "rtt/budget_probe_infeasible",
        measure(samples, 200, || {
            within_miss_budget(&openmail, Iops::new(300.0), delta, n / 10)
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
    let menu_serial_ns = measure(samples, 3, || planner.menu(&fractions));
    push(
        "planner/menu_serial_5",
        menu_serial_ns,
        websearch.len() as u64,
    );
    let pool = WorkerPool::new(threads);
    let menu_parallel_ns = measure(samples, 3, || planner.menu_parallel(&fractions, &pool));
    push(
        "planner/menu_parallel_5",
        menu_parallel_ns,
        websearch.len() as u64,
    );

    // Determinism contract: the two menu paths must agree byte for byte.
    let serial = planner.menu(&fractions).expect("valid fractions");
    let parallel = planner
        .menu_parallel(&fractions, &pool)
        .expect("valid fractions");
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.target, p.target, "menu targets diverged");
        assert_eq!(
            s.cmin.get().to_bits(),
            p.cmin.get().to_bits(),
            "serial and parallel menus must quote byte-identical capacities"
        );
    }
    println!(
        "  menu equivalence: serial == parallel ({} fractions, {} threads) ok",
        fractions.len(),
        pool.threads()
    );
    println!(
        "  menu speedup: parallel is {:.2}x vs serial",
        menu_serial_ns / menu_parallel_ns
    );
    if let Some(bound) = speedup_bound {
        assert!(
            menu_parallel_ns <= bound * menu_serial_ns,
            "menu_parallel_5 ({menu_parallel_ns:.0} ns) exceeded {bound} x \
             menu_serial_5 ({menu_serial_ns:.0} ns) — the parallel menu regressed"
        );
        println!("  menu speedup assertion: parallel <= {bound} x serial ok");
    }

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
    // request through the full engine (event queue, scheduler, server,
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

    // --- Shaped Split: FIFO lanes vs the engine ----------------------------
    // One observed Split run over the OpenMail trace, streamed in
    // `DEFAULT_CHUNK`s into per-class sketches: through `run_observed`
    // (the FIFO-lane recurrence), and built explicitly on the engine.
    let shaper = WorkloadShaper::plan(&openmail, QosTarget::new(0.90, delta));
    let lanes_ns = measure(samples, 3, || {
        let mut stream = WorkloadStream::new(openmail.clone(), DEFAULT_CHUNK);
        shaper
            .run_observed(&mut stream, RecombinePolicy::Split, |_| {})
            .expect("workload stream")
            .completed
    }) / n as f64;
    let engine_ns = measure(samples, 3, || {
        let mut stream = WorkloadStream::new(openmail.clone(), DEFAULT_CHUNK);
        let mut sketch = LatencySketch::new();
        let mut primary = LatencySketch::new();
        let mut overflow = LatencySketch::new();
        shaper
            .simulation(
                RecombinePolicy::Split,
                TraceHandle::disabled(),
                |s, _| s,
                FixedRateServer::new,
            )
            .run_stream(&mut stream, |r| {
                let response = r.response_time().as_nanos();
                sketch.record(response);
                match r.class {
                    ServiceClass::PRIMARY => primary.record(response),
                    _ => overflow.record(response),
                }
            })
            .expect("workload stream")
            .offered
    }) / n as f64;
    push("shaper/split_observed_lanes", lanes_ns, n);
    push("shaper/split_observed_engine", engine_ns, n);
    println!(
        "  shaper: Split on FIFO lanes costs {:.2}x of the engine",
        lanes_ns / engine_ns
    );
    assert!(
        lanes_ns <= 0.5 * engine_ns,
        "shaper/split_observed_lanes ({lanes_ns:.1} ns per request) exceeded \
         half of shaper/split_observed_engine ({engine_ns:.1} ns) — Split is \
         no longer skipping the event engine"
    );

    // --- Sketches and the retention feed ----------------------------------
    // One fixed 600-request gateway lane, as `tenant_gateway` runs them:
    // OpenMail planned at 90% within 50 ms, Split, a 6·⌊Cmin·δ⌋ inbox,
    // fed at 100 ms windows. The warm sketch already spans its values.
    let lane_deadline = SimDuration::from_millis(50);
    let lane_workload = openmail.truncated(600);
    let lane_cmin = CapacityPlanner::new(&lane_workload, lane_deadline).min_capacity(0.90);
    let lane_q1 = lane_cmin.requests_within(lane_deadline) as usize;
    let lane = IngestGateway::new(WorkerPool::serial())
        .run(vec![TenantSpec {
            name: "lane".into(),
            workload: lane_workload,
            shaper: WorkloadShaper::new(
                Provision::with_default_surplus(lane_cmin, lane_deadline),
                lane_deadline,
            ),
            policy: RecombinePolicy::Split,
            inbox_bound: (lane_q1 * 6).max(1),
            chunk: DEFAULT_CHUNK,
        }])
        .remove(0);
    let lane_n = lane.records.len() as u64;
    let feed_window = SimDuration::from_millis(100);
    let feed_ns = measure(samples, 200, || {
        let mut store = LongTermStore::new(RetentionConfig::default_tiers());
        lane.feed_longterm(feed_window, &mut store);
        store.resident_sketches()
    }) / lane_n as f64;
    push("obs/window_feed", feed_ns, lane_n);
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

    // --- Fleet placement --------------------------------------------------
    // The fleet experiment's headline scenario, as trended records: pack
    // 1000 tenants onto 64 servers from a cold quote cache, re-place one
    // degraded server against the warm cache, and price a single quote
    // both cold (full planner search) and memoized (cache hit).
    // Short per-tenant traces, independent of `--span-secs`: the
    // scenario is 1000 tenants, not 1000 long traces.
    let fleet_cfg = ExpConfig {
        span: SimDuration::from_secs(10),
        threads,
        ..ExpConfig::default()
    };
    let fleet_deadline = SimDuration::from_millis(fleet::FLEET_DEADLINE_MS);
    let fleet_target = QosTarget::new(fleet::FLEET_FRACTION, fleet_deadline);
    let fleet_tenants = fleet::fleet_tenants(&fleet_cfg, 1000);
    let fleet_capacity = fleet::size_capacity(&fleet_tenants, 64, fleet_target);
    let fleet_placer = FleetPlacer::new(fleet_target, Iops::new(fleet_capacity as f64));

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
