//! The experiments, one row of [`REGISTRY`] each.
//!
//! Every experiment renders its whole stdout report into a `String` and
//! writes its CSV/JSON artifacts into [`ExpConfig::out_dir`]. The
//! `gqos-bench` binary runs one row by name (`gqos-bench fig6_schedulers`)
//! or every row in table order (`gqos-bench all`).

use crate::config::ExpConfig;

pub mod ablation_delta_c;
pub mod ablation_token_bucket;
pub mod control_chaos;
pub mod disk_endtoend;
pub mod fault_sweep;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fleet;
pub mod longterm_stats;
pub mod multitenant_isolation;
pub mod run_report;
pub mod slo_feedback;
pub mod stream;
pub mod table1;
pub mod top;

/// One experiment of the harness.
#[derive(Copy, Clone, Debug)]
pub struct Experiment {
    /// The name `gqos-bench <name>` selects the experiment by.
    pub name: &'static str,
    /// The section heading `gqos-bench all` prints above the report.
    pub title: &'static str,
    /// Renders the report and writes the experiment's artifacts.
    pub report: fn(&ExpConfig) -> String,
}

const fn row(
    name: &'static str,
    title: &'static str,
    report: fn(&ExpConfig) -> String,
) -> Experiment {
    Experiment {
        name,
        title,
        report,
    }
}

/// Every experiment, in the order `gqos-bench all` runs and prints them:
/// the paper's table and figures, its §5 ablations, then the extensions.
pub const REGISTRY: &[Experiment] = &[
    row("table1", "Table 1", table1::report),
    row("fig2_shaping", "Figure 2", fig2::report),
    row("fig3_scl", "Figure 3", fig3::report),
    row("fig4_fcfs_cdf", "Figure 4", fig4::report),
    row("fig5_fcfs_cdf", "Figure 5", fig5::report),
    row("fig6_schedulers", "Figure 6", fig6::report),
    row("fig7_same_mux", "Figure 7", fig7::report),
    row("fig8_diff_mux", "Figure 8", fig8::report),
    row(
        "ablation_delta_c",
        "Ablation: delta_c",
        ablation_delta_c::report,
    ),
    row(
        "ablation_token_bucket",
        "Ablation: token bucket",
        ablation_token_bucket::report,
    ),
    row("disk_endtoend", "Disk end-to-end", disk_endtoend::report),
    row(
        "multitenant_isolation",
        "Multi-tenant isolation",
        multitenant_isolation::report,
    ),
    row("fault_sweep", "Fault sweep", fault_sweep::report),
    row("run_report", "Run report", run_report::report),
    row("stream_bench", "Stream", stream::report),
    row("fleet_bench", "Fleet", fleet::report),
    row("control_chaos", "Control chaos", control_chaos::report),
    row("slo_bench", "SLO feedback", slo_feedback::report),
    row("longterm_stats", "Long-term stats", longterm_stats::report),
    row("top", "Operator view", top::report),
];

/// The registry row named `name`, if any.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}
