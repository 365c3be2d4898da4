//! `gqos-bench` — runs one experiment of the registry, or all of them.
//!
//! ```text
//! gqos-bench <experiment> [--span <s>] [--seed <n>] [--quick] [--out <dir>] [--threads <n>]
//! gqos-bench all          [same flags]
//! ```
//!
//! `<experiment>` is a row name of
//! [`REGISTRY`](gqos_bench::experiments::REGISTRY). `all` renders every
//! row, concurrently with `--threads`, and prints them as sections in
//! registry order, so its output is byte-identical at any thread count.
//! With no flags, `gqos-bench all` regenerates the committed `results/`.
//!
//! An unknown experiment, flag or malformed value prints `error: …` and
//! the usage line to stderr and exits with status 2.

use gqos_bench::experiments::{self, Experiment, REGISTRY};
use gqos_bench::{exit_usage, ExpConfig, USAGE};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let selected: Vec<Experiment> = match (name.as_str(), experiments::find(&name)) {
        ("all", _) => REGISTRY.to_vec(),
        (_, Some(&experiment)) => vec![experiment],
        _ => {
            let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
            let problem = if name.is_empty() {
                "missing experiment name".to_string()
            } else {
                format!("unknown experiment `{name}`")
            };
            exit_usage(
                USAGE,
                &format!("{problem}; expected `all` or one of: {}", names.join(", ")),
            )
        }
    };
    let cfg = ExpConfig::from_args(args);
    if name != "all" {
        print!("{}", (selected[0].report)(&cfg));
        return;
    }
    let cfg = &cfg;
    let tasks: Vec<_> = selected.iter().map(|e| move || (e.report)(cfg)).collect();
    let rule = "=".repeat(72);
    for (experiment, body) in selected.iter().zip(cfg.pool.run(tasks)) {
        println!("{rule}");
        println!("== {}", experiment.title);
        println!("{rule}");
        print!("{body}");
        println!();
    }
}
