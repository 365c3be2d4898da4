//! Run report — the observability pipeline exercised end to end.
//!
//! Traces one fig5-style WebSearch run per recombination policy into a
//! [`MemorySink`](gqos_sim::MemorySink), then cross-validates every layer of the pipeline
//! against the simulation's own aggregate metrics:
//!
//! - **sketches**: per-class response-time quantiles from the mergeable
//!   [`LatencySketch`], plus a sharded rebuild over the worker pool whose
//!   merge must be bit-identical to the single-pass sketch;
//! - **events**: [`EventCounts`] reconciled against the workload size and
//!   the report's completion count;
//! - **deadline-miss audit**: the miss fraction re-derived from replayed
//!   request lifecycles must equal [`RunReport::miss_fraction`] exactly.
//!
//! The rendered table and `results/run_report.json` carry an `ok` verdict
//! per policy; any mismatch is a pipeline bug, not workload noise.

use std::fs;
use std::path::{Path, PathBuf};

use gqos_core::{CapacityPlanner, Provision, RecombinePolicy, WorkloadShaper};
use gqos_sim::{EventCounts, LatencySketch, ReplayedRun, RunReport, ServiceClass, TraceHandle};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::SimDuration;

use crate::config::ExpConfig;
use crate::outln;
use crate::output::Table;

/// The run's deadline (ms) — fig5/fig6's 50 ms.
const RUN_REPORT_DEADLINE_MS: u64 = 50;
/// The planned guaranteed fraction.
const RUN_REPORT_FRACTION: f64 = 0.90;
/// The quantiles the report renders.
const RUN_REPORT_QUANTILES: [(f64, &str); 4] =
    [(0.50, "p50"), (0.90, "p90"), (0.99, "p99"), (0.999, "p999")];

/// Per-class sketch summary.
pub struct ClassSummary {
    /// Class label (`"primary"` / `"overflow"`).
    pub label: &'static str,
    /// Completions in the class.
    pub completed: u64,
    /// Sketch quantiles in `RUN_REPORT_QUANTILES` order, milliseconds.
    pub quantiles_ms: [f64; 4],
}

/// One policy's validated observability report.
pub struct PolicySummary {
    /// The recombination policy.
    pub policy: RecombinePolicy,
    /// Event counts tallied from the trace.
    pub counts: EventCounts,
    /// Per-class sketch summaries (primary, overflow).
    pub classes: Vec<ClassSummary>,
    /// Whole-run sketch quantiles, milliseconds.
    pub quantiles_ms: [f64; 4],
    /// Primary-class miss fraction from the aggregate [`RunReport`].
    pub aggregate_miss: f64,
    /// Primary-class miss fraction re-derived from the replayed trace.
    pub replay_miss: f64,
    /// Lifecycle violations found by [`ReplayedRun::audit`].
    pub violations: Vec<String>,
    /// Whether the pool-sharded sketch merge was bit-identical to the
    /// single-pass sketch.
    pub merge_identical: bool,
}

impl PolicySummary {
    /// The audit verdict: every cross-check agreed.
    pub fn ok(&self) -> bool {
        self.aggregate_miss == self.replay_miss
            && self.violations.is_empty()
            && self.merge_identical
    }
}

fn sketch_quantiles_ms(sketch: &LatencySketch) -> [f64; 4] {
    let mut out = [0.0; 4];
    for (slot, &(q, _)) in out.iter_mut().zip(RUN_REPORT_QUANTILES.iter()) {
        *slot = sketch.quantile(q) as f64 / 1e6;
    }
    out
}

/// Rebuilds the whole-run sketch from per-worker shards over `cfg.pool()`
/// and merges them — the merge contract a parallel harness relies on.
fn sharded_sketch(cfg: &ExpConfig, report: &RunReport) -> LatencySketch {
    let records = report.records();
    let shards = cfg.pool().threads().max(1);
    let chunk = records.len().div_ceil(shards).max(1);
    let spans: Vec<(usize, usize)> = (0..shards)
        .map(|s| (s * chunk, ((s + 1) * chunk).min(records.len())))
        .filter(|(lo, hi)| lo < hi)
        .collect();
    let partials = cfg.pool().map(spans, |(lo, hi)| {
        let mut sketch = LatencySketch::new();
        for record in &records[lo..hi] {
            sketch.record(record.response_time().as_nanos());
        }
        sketch
    });
    let mut merged = LatencySketch::new();
    for partial in &partials {
        merged.merge(partial);
    }
    merged
}

/// Computes the validated per-policy summaries, fanning the four traced
/// runs over [`ExpConfig::pool`].
pub fn compute(cfg: &ExpConfig) -> Vec<PolicySummary> {
    let deadline = SimDuration::from_millis(RUN_REPORT_DEADLINE_MS);
    let workload = TraceProfile::WebSearch.generate(cfg.span, cfg.seed);
    let planner = CapacityPlanner::new(&workload, deadline);
    let provision =
        Provision::with_default_surplus(planner.min_capacity(RUN_REPORT_FRACTION), deadline);
    let shaper = WorkloadShaper::new(provision, deadline);
    let workload = &workload;
    cfg.pool()
        .map(RecombinePolicy::ALL.to_vec(), move |policy| {
            let (trace, sink) = TraceHandle::memory();
            let report = shaper.run_traced(workload, policy, trace);
            let events = sink.borrow().events();
            let replay = ReplayedRun::from_events(&events);

            let single_pass = report.response_sketch();
            let merge_identical = sharded_sketch(cfg, &report) == single_pass;

            let classes = [
                ("primary", ServiceClass::PRIMARY),
                ("overflow", ServiceClass::OVERFLOW),
            ]
            .into_iter()
            .map(|(label, class)| ClassSummary {
                label,
                completed: report.completed_in(class) as u64,
                quantiles_ms: sketch_quantiles_ms(&report.response_sketch_for(class)),
            })
            .collect();

            PolicySummary {
                policy,
                counts: replay.counts(),
                classes,
                quantiles_ms: sketch_quantiles_ms(&single_pass),
                aggregate_miss: report.miss_fraction(ServiceClass::PRIMARY, deadline),
                replay_miss: replay.miss_fraction(ServiceClass::PRIMARY.index(), deadline),
                violations: replay.audit(),
                merge_identical,
            }
        })
}

/// Renders `summaries` as the canonical `run_report.json` document.
///
/// The JSON is assembled by hand in a fixed field order with fixed float
/// formatting, so serial and parallel runs (and repeated runs at one seed)
/// produce byte-identical bytes.
fn render_json(cfg: &ExpConfig, summaries: &[PolicySummary]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"config\": {{\"span_s\": {}, \"seed\": {}, \"deadline_ms\": {}, \"fraction\": {:.2}}},\n",
        cfg.span.as_secs_f64() as u64,
        cfg.seed,
        RUN_REPORT_DEADLINE_MS,
        RUN_REPORT_FRACTION
    ));
    out.push_str("  \"policies\": [\n");
    for (i, s) in summaries.iter().enumerate() {
        let c = &s.counts;
        out.push_str("    {\n");
        out.push_str(&format!("      \"policy\": \"{}\",\n", s.policy));
        out.push_str(&format!("      \"ok\": {},\n", s.ok()));
        out.push_str(&format!(
            "      \"events\": {{\"arrivals\": {}, \"admitted\": {}, \"diverted\": {}, \
             \"dispatched\": {}, \"completed\": {}, \"degradation_changes\": {}}},\n",
            c.arrivals, c.admitted, c.diverted, c.dispatched, c.completed, c.degradation_changes
        ));
        out.push_str(&format!(
            "      \"miss_fraction\": {{\"aggregate\": {:.6}, \"replayed\": {:.6}}},\n",
            s.aggregate_miss, s.replay_miss
        ));
        out.push_str(&format!(
            "      \"audit_violations\": {},\n",
            s.violations.len()
        ));
        out.push_str(&format!(
            "      \"sharded_merge_identical\": {},\n",
            s.merge_identical
        ));
        let quantiles = |q: &[f64; 4]| {
            RUN_REPORT_QUANTILES
                .iter()
                .zip(q.iter())
                .map(|(&(_, name), v)| format!("\"{name}_ms\": {v:.3}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        out.push_str(&format!(
            "      \"response\": {{{}}},\n",
            quantiles(&s.quantiles_ms)
        ));
        out.push_str("      \"classes\": [\n");
        for (j, class) in s.classes.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"class\": \"{}\", \"completed\": {}, {}}}{}\n",
                class.label,
                class.completed,
                quantiles(&class.quantiles_ms),
                if j + 1 < s.classes.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < summaries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Writes `run_report.json` into `cfg.out_dir`, returning its path.
fn write_json(cfg: &ExpConfig, summaries: &[PolicySummary]) -> std::io::Result<PathBuf> {
    fs::create_dir_all(&cfg.out_dir)?;
    let path = Path::new(&cfg.out_dir).join("run_report.json");
    fs::write(&path, render_json(cfg, summaries))?;
    Ok(path)
}

/// Renders the experiment report and writes `run_report.json`.
pub fn report(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    outln!(
        out,
        "Run report: traced runs, sketch quantiles, miss audit  [{cfg}]"
    );
    outln!(out);
    let summaries = compute(cfg);

    let mut table = Table::new(vec![
        "policy".into(),
        "events (arr/adm/div/disp/done)".into(),
        "p50".into(),
        "p99".into(),
        "p999".into(),
        "miss (agg)".into(),
        "miss (replay)".into(),
        "audit".into(),
    ]);
    for s in &summaries {
        let c = &s.counts;
        table.row(vec![
            s.policy.to_string(),
            format!(
                "{}/{}/{}/{}/{}",
                c.arrivals, c.admitted, c.diverted, c.dispatched, c.completed
            ),
            format!("{:.1} ms", s.quantiles_ms[0]),
            format!("{:.1} ms", s.quantiles_ms[2]),
            format!("{:.1} ms", s.quantiles_ms[3]),
            format!("{:.4}", s.aggregate_miss),
            format!("{:.4}", s.replay_miss),
            if s.ok() {
                "ok".into()
            } else {
                "MISMATCH".into()
            },
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "Audit: replayed miss fractions must equal the aggregate exactly;\n\
         sharded sketch merges must be bit-identical to single-pass sketches."
    );
    let mismatches = summaries.iter().filter(|s| !s.ok()).count();
    if mismatches > 0 {
        outln!(
            out,
            "OBSERVABILITY PIPELINE MISMATCH in {mismatches} polic(ies)"
        );
    }
    let path = write_json(cfg, &summaries).expect("write run_report.json");
    outln!(out, "wrote {}", path.display());
    out
}
