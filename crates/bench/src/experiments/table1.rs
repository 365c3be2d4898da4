//! Table 1 — capacity required for a specified workload fraction to meet
//! the response-time target, per workload and deadline.

use gqos_core::CapacityPlanner;
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::SimDuration;

use crate::config::ExpConfig;
use crate::outln;
use crate::output::{CsvWriter, Table};
use crate::paper::{table1_reference, TABLE1_DEADLINES_MS, TABLE1_FRACTIONS};

/// The measured table: `results[workload][deadline] = [Cmin per fraction]`.
type Table1Result = Vec<(TraceProfile, Vec<(u64, Vec<u64>)>)>;

/// Computes the table without printing (reused by tests).
///
/// The `(workload, deadline)` grid cells are independent planner sweeps,
/// so they fan out over [`ExpConfig::pool`]; each cell's fraction menu is
/// computed by the planner's warm-started ascending sweep. Results are
/// assembled positionally, so the table is identical at any thread count.
fn compute(cfg: &ExpConfig) -> Table1Result {
    let workloads: Vec<_> = cfg.pool().map(TraceProfile::ALL.to_vec(), |profile| {
        (profile, profile.generate(cfg.span, cfg.seed))
    });

    let cells: Vec<(usize, u64)> = (0..workloads.len())
        .flat_map(|w| TABLE1_DEADLINES_MS.iter().map(move |&d| (w, d)))
        .collect();
    let menus = cfg.pool().map(cells.clone(), |(w, delta_ms)| {
        let planner = CapacityPlanner::new(&workloads[w].1, SimDuration::from_millis(delta_ms));
        planner
            .menu(&TABLE1_FRACTIONS)
            .into_iter()
            .map(|quote| quote.cmin.get().round() as u64)
            .collect::<Vec<u64>>()
    });

    let mut result: Table1Result = workloads
        .iter()
        .map(|&(profile, _)| (profile, Vec::new()))
        .collect();
    for ((w, delta_ms), caps) in cells.into_iter().zip(menus) {
        result[w].1.push((delta_ms, caps));
    }
    result
}

/// Renders the table next to the paper's values and writes `table1.csv`.
pub fn report(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    outln!(out, "Table 1: Cmin(f, delta) per workload  [{cfg}]");
    outln!(out);

    let mut header = vec![
        "workload".to_string(),
        "delta".to_string(),
        "src".to_string(),
    ];
    header.extend(
        TABLE1_FRACTIONS
            .iter()
            .map(|f| format!("{:.1}%", f * 100.0)),
    );
    let mut table = Table::new(header.clone());
    let mut csv_rows = vec![header];

    for (profile, rows) in compute(cfg) {
        for (delta_ms, measured) in rows {
            let mut row = vec![
                profile.abbrev().to_string(),
                format!("{delta_ms} ms"),
                "ours".to_string(),
            ];
            row.extend(measured.iter().map(u64::to_string));
            table.row(row.clone());
            csv_rows.push(row);

            if let Some(reference) = table1_reference(profile, delta_ms) {
                let mut row = vec![String::new(), String::new(), "paper".to_string()];
                row.extend(reference.iter().map(u64::to_string));
                table.row(row.clone());
                csv_rows.push(row);
            }
        }
    }

    outln!(out, "{}", table.render());
    let writer = CsvWriter::new(&cfg.out_dir).expect("create output directory");
    let path = writer.write("table1", &csv_rows).expect("write CSV");
    outln!(out, "wrote {}", path.display());
    out
}
