//! `top` — an lqtop-style operator view over the retention store.
//!
//! Runs the same gateway fleet as the `longterm_stats` experiment, feeds
//! every lane's window feedback into the tiered [`LongTermStore`], then
//! replays the run's timeline as `TOP_FRAMES` frames. Each frame shows,
//! per tenant:
//!
//! - a p99 sparkline over the heat cells visible so far (`.` quiet,
//!   `!` evicted, `_` through `#` scaled to the tenant's run maximum);
//! - the latest cell's request count and p99;
//! - the tenant's current **rung** on the graduated-QoS ladder, judged
//!   from the latest cell's p99 against the lanes' 50 ms deadline:
//!   `slack` (≤ 3δ/4), `meet` (≤ δ), `miss` (> δ), `quiet`, `evicted`;
//! - the drift of recent p99 against all-time, in ppm.
//!
//! This is a *replay*, not a poll: the run finishes first, so the frames
//! are deterministic (byte-identical across runs and `--threads`
//! counts). It writes no files.
//!
//! [`LongTermStore`]: gqos_sim::LongTermStore

use gqos_sim::SeriesPoint;
use gqos_trace::{SimDuration, SimTime};

use crate::config::ExpConfig;
use crate::experiments::longterm_stats::{self, DRIFT_RECENT_SECS, LONGTERM_DEADLINE_MS};
use crate::outln;
use crate::output::Table;

/// Timeline frames the replay renders.
const TOP_FRAMES: u64 = 6;

/// One sparkline character for a heat cell, scaled to `max` (the
/// tenant's largest cell p99 across the whole run).
fn spark(point: &SeriesPoint, max: u64) -> char {
    const LEVELS: [char; 6] = ['_', '-', '=', '+', '*', '#'];
    if !point.covered {
        return '!';
    }
    match point.quantile {
        None => '.',
        Some(q) => {
            let idx = if max == 0 {
                0
            } else {
                ((q as u128 * (LEVELS.len() as u128 - 1)).div_ceil(max as u128)) as usize
            };
            LEVELS[idx.min(LEVELS.len() - 1)]
        }
    }
}

/// The graduated-QoS rung of one cell, judged from its p99 against the
/// deadline δ: `slack` within 3δ/4, `meet` within δ, `miss` beyond.
fn rung(point: &SeriesPoint, deadline: SimDuration) -> &'static str {
    if !point.covered {
        return "evicted";
    }
    match point.quantile {
        None => "quiet",
        Some(q) => {
            if q <= deadline.as_nanos() / 4 * 3 {
                "slack"
            } else if q <= deadline.as_nanos() {
                "meet"
            } else {
                "miss"
            }
        }
    }
}

/// Renders the replay frames and the closing verdict stream.
pub fn report(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    let outcome = longterm_stats::compute(cfg);
    let deadline = SimDuration::from_millis(LONGTERM_DEADLINE_MS);
    let res = outcome.resolution;
    let total_cells = (outcome.end.as_nanos() / res.as_nanos()).max(1);
    outln!(
        out,
        "gqos_top: {} tenants, {} cells of {} s, deadline {} ms  [{cfg}]",
        outcome.reports.len(),
        total_cells,
        res.as_nanos() / 1_000_000_000,
        LONGTERM_DEADLINE_MS
    );
    // Each tenant's sparkline scale: its largest cell p99 over the run.
    let full: Vec<Vec<SeriesPoint>> = outcome
        .reports
        .iter()
        .map(|r| {
            outcome
                .store
                .p99_over(&r.name, SimTime::ZERO, outcome.end, res)
        })
        .collect();
    let scales: Vec<u64> = full
        .iter()
        .map(|series| series.iter().filter_map(|p| p.quantile).max().unwrap_or(0))
        .collect();
    for frame in 1..=TOP_FRAMES {
        let cells = (total_cells * frame).div_ceil(TOP_FRAMES).max(1);
        let horizon = SimTime::from_nanos(cells * res.as_nanos());
        outln!(out);
        outln!(
            out,
            "frame {frame}/{TOP_FRAMES}  t = {} s",
            horizon.as_nanos() / 1_000_000_000
        );
        let mut table = Table::new(vec![
            "tenant".into(),
            "p99 trail".into(),
            "count".into(),
            "p99 us".into(),
            "rung".into(),
            "drift ppm".into(),
        ]);
        for (tenant, (series, &scale)) in outcome.reports.iter().zip(full.iter().zip(&scales)) {
            let visible = &series[..cells as usize];
            let latest = visible.last().expect("at least one cell");
            let trail: String = visible.iter().map(|p| spark(p, scale)).collect();
            let drift = if frame == TOP_FRAMES {
                outcome
                    .store
                    .drift_ppm(
                        &tenant.name,
                        0.99,
                        SimDuration::from_secs(DRIFT_RECENT_SECS),
                    )
                    .map_or("n/a".to_string(), |d| format!("{d:+}"))
            } else {
                // Drift reads the store's live horizon; mid-replay frames
                // show the ladder only.
                "-".to_string()
            };
            table.row(vec![
                tenant.name.clone(),
                trail,
                latest.count.to_string(),
                latest
                    .quantile
                    .map_or("-".to_string(), |q| (q / 1_000).to_string()),
                rung(latest, deadline).to_string(),
                drift,
            ]);
        }
        out.push_str(&table.render());
    }
    outln!(out);
    outln!(
        out,
        "verdict stream: {}",
        full.iter()
            .zip(&outcome.reports)
            .map(|(series, r)| {
                let worst = series
                    .iter()
                    .map(|p| rung(p, deadline))
                    .max_by_key(|&label| match label {
                        "miss" => 3,
                        "meet" => 2,
                        "slack" => 1,
                        _ => 0,
                    })
                    .unwrap_or("quiet");
                format!("{}={worst}", r.name)
            })
            .collect::<Vec<_>>()
            .join(" ")
    );
    out
}
