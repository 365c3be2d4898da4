//! Fleet placement experiment plus its wall-clock headline numbers.
//!
//! Stdout carries only the deterministic report of
//! [`experiments::fleet`](gqos_bench::experiments::fleet) (byte-identical across runs and thread counts);
//! all timings go to stderr:
//!
//! - `place_1000`: pack 1000 tenants onto 64 servers from a cold quote
//!   cache, then again against the warm cache;
//! - the cold-costing naive baseline on a reduced cell (the full cell
//!   would take minutes — that is the point), with the like-for-like
//!   speedup;
//! - a [`DegradationController`]-driven rung drop on the most loaded
//!   server and the latency of the surgical replan it triggers.

use std::time::Instant;

use gqos_bench::experiments::fleet;
use gqos_bench::ExpConfig;
use gqos_core::{DegradationController, DegradationPolicy, FleetPlacer, QosTarget, QuoteCache};
use gqos_parallel::WorkerPool;
use gqos_trace::{Iops, SimDuration};

/// Tenants in the headline scenario.
const HEADLINE_TENANTS: usize = 1000;
/// Servers in the headline scenario.
const HEADLINE_SERVERS: usize = 64;
/// The reduced cell the naive baseline is timed on — deep enough
/// (~16 tenants per server) that per-decision costs match the headline
/// cell, small enough that the cold-costing run finishes in seconds.
const NAIVE_TENANTS: usize = 128;
/// Servers of the reduced cell.
const NAIVE_SERVERS: usize = 8;

fn main() {
    let cfg = ExpConfig::from_env();
    fleet::run(&cfg);

    // --- Wall clock, stderr only ----------------------------------------
    let deadline = SimDuration::from_millis(fleet::FLEET_DEADLINE_MS);
    let target = QosTarget::new(fleet::FLEET_FRACTION, deadline);
    // The headline scenario uses short per-tenant traces (1000 of them)
    // regardless of --span; the grid above already scales with the span.
    let headline_cfg = ExpConfig {
        span: SimDuration::from_secs(10),
        ..cfg.clone()
    };
    let pool = if cfg.threads > 1 {
        cfg.pool()
    } else {
        WorkerPool::new(4)
    };

    eprintln!("generating {HEADLINE_TENANTS} tenants...");
    let tenants = fleet::fleet_tenants(&headline_cfg, HEADLINE_TENANTS);
    let capacity = fleet::size_capacity(&tenants, HEADLINE_SERVERS, target);
    let placer = FleetPlacer::new(target, Iops::new(capacity as f64));

    let mut cache = QuoteCache::new(deadline);
    let start = Instant::now();
    let mut placement = placer
        .pack(&tenants, HEADLINE_SERVERS, &mut cache, &pool)
        .expect("headline pack");
    let cold_pack = start.elapsed();
    let start = Instant::now();
    let warm = placer
        .pack(&tenants, HEADLINE_SERVERS, &mut cache, &pool)
        .expect("warm pack");
    let warm_pack = start.elapsed();
    eprintln!(
        "place_1000: {HEADLINE_TENANTS} tenants on {HEADLINE_SERVERS} servers \
         ({} threads): {:.1} ms cold cache, {:.1} ms warm ({} used, {} unplaced, \
         {} warm-pack cache hits)",
        pool.threads(),
        cold_pack.as_secs_f64() * 1e3,
        warm_pack.as_secs_f64() * 1e3,
        placement.servers_used(),
        placement.unplaced().len(),
        warm.stats().cache_hits,
    );

    // Naive baseline on a cell small enough to finish: same placer rules,
    // but every feasibility verdict and every quote is a from-scratch
    // cold search. The cached side reuses the headline-warmed cache —
    // that reuse is the memoization being measured.
    let small = &tenants[..NAIVE_TENANTS];
    let start = Instant::now();
    let fast = placer
        .pack(small, NAIVE_SERVERS, &mut cache, &pool)
        .expect("reduced pack");
    let fast_ns = start.elapsed().as_nanos() as f64;
    let start = Instant::now();
    let naive = placer.pack_naive(small, NAIVE_SERVERS).expect("naive pack");
    let naive_ns = start.elapsed().as_nanos() as f64;
    assert!(
        fast.unplaced().len() <= naive.unplaced().len(),
        "bin retirement lost placements vs the exhaustive baseline"
    );
    eprintln!(
        "naive baseline: {NAIVE_TENANTS} tenants on {NAIVE_SERVERS} servers: \
         {:.1} ms naive cold-costing vs {:.1} ms warm-cached — {:.1}x speedup",
        naive_ns / 1e6,
        fast_ns / 1e6,
        naive_ns / fast_ns,
    );

    // A real controller drives the rung drop: the most loaded server
    // reports service times at twice nominal until the ladder settles.
    let node = fleet::busiest_node(&placement);
    let mut controller = DegradationController::new(DegradationPolicy::default(), 16);
    let nominal = SimDuration::from_millis(1);
    let slowed = SimDuration::from_millis(2);
    let mut factor = controller.factor();
    for _ in 0..64 {
        if let Some(f) = controller.observe(slowed, nominal) {
            factor = f;
        }
    }
    let start = Instant::now();
    let replan = placer
        .replan_degraded(&mut placement, &tenants, node, factor, &mut cache, &pool)
        .expect("replan");
    let replan_ms = start.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "replan_one_node: node {node} dropped to {factor:.2}x by the controller; \
         {} tenants re-placed in {replan_ms:.1} ms ({} cold searches)",
        replan.placed, replan.cache_misses,
    );
}
