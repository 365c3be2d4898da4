//! Control-plane chaos — the deterministic fault harness as an experiment.
//!
//! Drives [`gqos_control`]'s chaos scenarios over a severity ladder and
//! renders the evidence for the control plane's headline contracts:
//!
//! - **at-most-once application**: every command delivered more than once
//!   (retries, duplicating channel) is replayed from the dedup log, never
//!   re-applied — the `replayed` column counts the absorbed deliveries;
//! - **epoch fencing bites**: under loss and reordering the client's
//!   optimistic epochs diverge from the plane's, and the resulting stale
//!   commands are rejected with a typed error (`rejected`), not applied;
//! - **convergence**: after the full interleaving the quotes served from
//!   the plane's long-lived cache are bit-identical to a from-scratch
//!   placement of the surviving tenant set (`converged` column — any `NO`
//!   is a loud failure line);
//! - **worker-count byte-identity**: the full run report at 4 pool
//!   workers is byte-identical to the serial run (`sharded` column).
//!
//! Everything printed here and written to `control_chaos.csv` is
//! deterministic — counters and byte-equality verdicts, never wall
//! clock.

use gqos_control::chaos::{ChaosConfig, ChaosScenario};

use crate::config::ExpConfig;
use crate::outln;
use crate::output::{CsvWriter, Table};

/// The severity ladder: `(label, channel severity, node severity,
/// cross-node correlation)`. `calm` pins the no-fault baseline (every
/// command acks, nothing retried); the rest turn the screws.
const CHAOS_CELLS: [(&str, f64, f64, f64); 4] = [
    ("calm", 0.0, 0.0, 0.0),
    ("lossy", 0.4, 0.5, 0.3),
    ("hostile", 0.7, 0.9, 0.5),
    ("brutal", 0.9, 0.95, 0.8),
];

/// Worker count the sharded byte-identity run uses.
const CHAOS_SHARD_WORKERS: usize = 4;

/// One severity cell: the client's view, the plane's ledger, and the
/// two invariant verdicts.
struct ChaosCell {
    /// Ladder label.
    pub label: &'static str,
    /// Channel fault severity in `[0, 1]`.
    pub channel_severity: f64,
    /// Node fault severity in `[0, 1]`.
    pub node_severity: f64,
    /// Scenario seed (derived from the experiment seed).
    pub seed: u64,
    /// Commands issued (tenant script + node chaos).
    pub commands: usize,
    /// Commands acked client-side (ok or typed rejection).
    pub acked: u64,
    /// Commands that expired client-side after exhausting the policy.
    pub expired: u64,
    /// Delivery retries beyond each command's first attempt.
    pub retries: u64,
    /// Request + response legs the channel dropped.
    pub dropped: u64,
    /// Duplicate deliveries the channel injected.
    pub duplicates: u64,
    /// Commands applied by the plane (state actually changed).
    pub applied: u64,
    /// Duplicate deliveries absorbed by the dedup log.
    pub replayed: u64,
    /// Typed rejections (stale epochs, unknown tenants, bad SLAs).
    pub rejected: u64,
    /// Tenants surviving the interleaving.
    pub tenants: usize,
    /// Converged quotes bit-identical to a from-scratch pack.
    pub converged: bool,
    /// Report at [`CHAOS_SHARD_WORKERS`] workers byte-identical to serial.
    pub sharded_identical: bool,
}

/// Runs the severity ladder. Each cell executes its scenario twice —
/// serial and at [`CHAOS_SHARD_WORKERS`] pool workers — and compares the
/// full run reports byte for byte.
fn compute(cfg: &ExpConfig) -> Vec<ChaosCell> {
    CHAOS_CELLS
        .iter()
        .enumerate()
        .map(
            |(i, &(label, channel_severity, node_severity, correlation))| {
                let seed = cfg
                    .seed
                    .wrapping_add(0xC0A7_0001u64.wrapping_mul(i as u64 + 1));
                let config = ChaosConfig {
                    channel_severity,
                    node_severity,
                    correlation,
                    ..ChaosConfig::default()
                };
                let scenario = ChaosScenario::generate(seed, config);
                let mut run = scenario.execute(1);
                let serial_report = run.report();
                let sharded_identical =
                    scenario.execute(CHAOS_SHARD_WORKERS).report() == serial_report;
                let converged = run
                    .plane
                    .oracle_quotes()
                    .map(|oracle| run.plane.converged_quotes() == oracle)
                    .unwrap_or(false);
                let stats = run.stats;
                let plane = run.plane.stats();
                ChaosCell {
                    label,
                    channel_severity,
                    node_severity,
                    seed,
                    commands: scenario.commands().len(),
                    acked: stats.acked,
                    expired: stats.expired,
                    retries: stats.retries,
                    dropped: stats.dropped_requests + stats.dropped_responses,
                    duplicates: stats.duplicates,
                    applied: plane.applied,
                    replayed: plane.replayed,
                    rejected: plane.rejected,
                    tenants: run.plane.tenants().len(),
                    converged,
                    sharded_identical,
                }
            },
        )
        .collect()
}

fn verdict(ok: bool) -> String {
    if ok {
        "yes".into()
    } else {
        "NO".into()
    }
}

/// Renders the experiment report and writes `control_chaos.csv`.
pub fn report(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    outln!(
        out,
        "Control chaos: epoch-fenced idempotent commands under loss, duplication, and node faults  [{cfg}]"
    );
    outln!(
        out,
        "ladder: {} severity cells; {} initial admissions + {} tenant ops each, plus seeded node chaos; sharded runs use {} workers",
        CHAOS_CELLS.len(),
        ChaosConfig::default().initial_tenants,
        ChaosConfig::default().ops,
        CHAOS_SHARD_WORKERS
    );
    outln!(out);

    let cells = compute(cfg);
    let mut table = Table::new(vec![
        "cell".into(),
        "chan".into(),
        "node".into(),
        "cmds".into(),
        "acked".into(),
        "expired".into(),
        "retries".into(),
        "dropped".into(),
        "dupes".into(),
        "applied".into(),
        "replayed".into(),
        "rejected".into(),
        "tenants".into(),
        "converged".into(),
        "sharded".into(),
    ]);
    for cell in &cells {
        table.row(vec![
            cell.label.to_string(),
            format!("{:.2}", cell.channel_severity),
            format!("{:.2}", cell.node_severity),
            cell.commands.to_string(),
            cell.acked.to_string(),
            cell.expired.to_string(),
            cell.retries.to_string(),
            cell.dropped.to_string(),
            cell.duplicates.to_string(),
            cell.applied.to_string(),
            cell.replayed.to_string(),
            cell.rejected.to_string(),
            cell.tenants.to_string(),
            verdict(cell.converged),
            verdict(cell.sharded_identical),
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "Every command retried over the lossy channel lands at most once:\n\
         duplicate deliveries are replayed from the dedup log (`replayed`),\n\
         stale-epoch commands are rejected with a typed error (`rejected`),\n\
         and after the whole interleaving the plane's cached quotes are\n\
         bit-identical to a from-scratch placement of the surviving tenant\n\
         set (`converged`). `sharded` certifies the full run report is\n\
         byte-identical at {CHAOS_SHARD_WORKERS} workers."
    );

    let calm = &cells[0];
    if calm.expired > 0 || calm.retries > 0 {
        outln!(
            out,
            "CALM CELL RETRIED OR EXPIRED (expected a clean no-fault baseline)"
        );
    }
    let broken: Vec<&str> = cells
        .iter()
        .filter(|c| !c.converged || !c.sharded_identical)
        .map(|c| c.label)
        .collect();
    if !broken.is_empty() {
        outln!(out, "INVARIANT VIOLATION in cell(s): {}", broken.join(", "));
    }

    let csv = CsvWriter::new(&cfg.out_dir).expect("create output dir");
    let mut rows = vec![vec![
        "cell".to_string(),
        "seed".to_string(),
        "channel_severity".to_string(),
        "node_severity".to_string(),
        "commands".to_string(),
        "acked".to_string(),
        "expired".to_string(),
        "retries".to_string(),
        "dropped".to_string(),
        "duplicates".to_string(),
        "applied".to_string(),
        "replayed".to_string(),
        "rejected".to_string(),
        "tenants".to_string(),
        "converged".to_string(),
        "sharded_identical".to_string(),
    ]];
    rows.extend(cells.iter().map(|c| {
        vec![
            c.label.to_string(),
            format!("{:#x}", c.seed),
            format!("{:.2}", c.channel_severity),
            format!("{:.2}", c.node_severity),
            c.commands.to_string(),
            c.acked.to_string(),
            c.expired.to_string(),
            c.retries.to_string(),
            c.dropped.to_string(),
            c.duplicates.to_string(),
            c.applied.to_string(),
            c.replayed.to_string(),
            c.rejected.to_string(),
            c.tenants.to_string(),
            c.converged.to_string(),
            c.sharded_identical.to_string(),
        ]
    }));
    let path = csv
        .write("control_chaos", &rows)
        .expect("write control_chaos");
    outln!(out, "wrote {}", path.display());
    out
}
