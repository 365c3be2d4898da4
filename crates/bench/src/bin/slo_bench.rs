//! SLO-feedback head-to-head plus its wall-clock headline numbers.
//!
//! Stdout carries only the deterministic report of
//! [`experiments::slo_feedback`](gqos_bench::experiments::slo_feedback) (byte-identical across runs and thread
//! counts); timings go to stderr.
//!
//! On top of the shared experiment flags, three controller knobs:
//!
//! - `--window <ms>` — feedback window length (default 100, must be ≥ 1);
//! - `--gain <n>` — growth-gain numerator over 8 (default 16, must be > 8);
//! - `--tenants <n>` — tenants under control (default 3, must be ≥ 1).
//!
//! Malformed values exit with status 2 and a usage line, like every
//! experiment binary — the contract `tests/cli_errors.rs` pins.

use std::time::Instant;

use gqos_bench::experiments::slo_feedback::{self, SloOptions};
use gqos_bench::{exit_usage, ExpConfig};
use gqos_control::GROWTH_DEN;

/// Extracts `flag <integer>` from `args`, removing both tokens. Exits
/// with usage status 2 on a missing or non-integer value.
fn take_integer(args: &mut Vec<String>, flag: &'static str) -> Option<u64> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        exit_usage(&format!("{flag} requires an integer value"));
    }
    let raw = args.remove(i + 1);
    args.remove(i);
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => exit_usage(&format!(
            "{flag} value must be a non-negative integer (got `{raw}`)"
        )),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = SloOptions::default();
    if let Some(window_ms) = take_integer(&mut args, "--window") {
        if window_ms == 0 {
            exit_usage("--window value must be at least 1 millisecond");
        }
        opts.window_ms = window_ms;
    }
    if let Some(gain) = take_integer(&mut args, "--gain") {
        if gain <= u64::from(GROWTH_DEN) {
            exit_usage(&format!(
                "--gain value must exceed {GROWTH_DEN} (the gain is <n>/{GROWTH_DEN}; got {gain})"
            ));
        }
        opts.gain = u32::try_from(gain)
            .unwrap_or_else(|_| exit_usage(&format!("--gain value {gain} is out of range")));
    }
    if let Some(tenants) = take_integer(&mut args, "--tenants") {
        if tenants == 0 {
            exit_usage("--tenants value must be at least 1");
        }
        opts.tenants = tenants as usize;
    }
    let cfg = ExpConfig::try_parse(args).unwrap_or_else(|err| exit_usage(&err.to_string()));
    if let Err(err) = std::fs::create_dir_all(&cfg.out_dir) {
        exit_usage(&format!(
            "cannot create output directory `{}`: {err}",
            cfg.out_dir
        ));
    }

    let start = Instant::now();
    print!("{}", slo_feedback::report_with(&cfg, opts));
    let elapsed = start.elapsed();
    eprintln!(
        "slo_feedback: three arms executed in {:.1} ms at {} worker(s)",
        elapsed.as_secs_f64() * 1e3,
        cfg.threads
    );
}
