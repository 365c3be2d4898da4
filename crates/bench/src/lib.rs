//! # gqos-bench — the experiment harness
//!
//! Every table, figure and ablation of the ICDCS 2009 paper, plus the
//! extension experiments, is one row of
//! [`experiments::REGISTRY`] (see DESIGN.md §4 for the index). The
//! `gqos-bench` binary runs a row by name, or every row:
//!
//! ```text
//! cargo run --release -p gqos-bench -- fig6_schedulers --quick
//! cargo run --release -p gqos-bench -- all    # regenerates results/
//! ```
//!
//! Each experiment prints the paper's rows/series next to the measured
//! values and writes its CSV/JSON artifacts into `--out` (default
//! `results`). Two measurement tools with flags of their own sit beside
//! it: `perf_report` (the `BENCH_core.json` micro-benchmarks) and
//! `obs_overhead` (the tracing-overhead gate).
//!
//! Shared here: command-line configuration, table/CSV output helpers, and
//! the paper's published reference numbers.

#![warn(missing_docs)]

pub mod config;
pub mod experiments;
pub mod output;
pub mod paper;

pub use config::{exit_usage, ConfigError, ExpConfig, USAGE};
pub use output::{CsvWriter, Table};
