//! Control-plane chaos experiment plus its wall-clock headline numbers.
//!
//! Stdout carries only the deterministic report of
//! [`experiments::control_chaos`](gqos_bench::experiments::control_chaos) (byte-identical across runs and thread
//! counts); all timings go to stderr:
//!
//! - the hostile-cell scenario generated and executed serially, then at
//!   4 pool workers, with the byte-identity of the two reports asserted;
//! - per-command application throughput of the serial run.

use std::time::Instant;

use gqos_bench::experiments::control_chaos;
use gqos_bench::ExpConfig;
use gqos_control::chaos::{ChaosConfig, ChaosScenario};

fn main() {
    let cfg = ExpConfig::from_env();
    control_chaos::run(&cfg);

    // --- Wall clock, stderr only ----------------------------------------
    let (label, channel_severity, node_severity, correlation) = control_chaos::CHAOS_CELLS[2];
    let config = ChaosConfig {
        channel_severity,
        node_severity,
        correlation,
        ..ChaosConfig::default()
    };
    let start = Instant::now();
    let scenario = ChaosScenario::generate(cfg.seed, config);
    let generate = start.elapsed();

    let start = Instant::now();
    let mut serial = scenario.execute(1);
    let serial_elapsed = start.elapsed();
    let start = Instant::now();
    let mut sharded = scenario.execute(control_chaos::CHAOS_SHARD_WORKERS);
    let sharded_elapsed = start.elapsed();
    assert_eq!(
        serial.report(),
        sharded.report(),
        "sharded chaos report diverged from serial"
    );

    let commands = scenario.commands().len();
    eprintln!(
        "chaos_{label}: {commands} commands generated in {:.2} ms; executed in \
         {:.1} ms serial, {:.1} ms at {} workers (reports byte-identical)",
        generate.as_secs_f64() * 1e3,
        serial_elapsed.as_secs_f64() * 1e3,
        sharded_elapsed.as_secs_f64() * 1e3,
        control_chaos::CHAOS_SHARD_WORKERS,
    );
    eprintln!(
        "chaos_{label}: {:.1} commands/ms applied end to end ({} delivery attempts, \
         {} plane applications)",
        commands as f64 / serial_elapsed.as_secs_f64().max(1e-9) / 1e3,
        serial.stats.attempts,
        serial.plane.stats().applied,
    );
}
