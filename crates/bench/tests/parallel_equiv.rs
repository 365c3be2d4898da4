//! Serial-vs-parallel equivalence: every registry row's rendered report
//! and every file it writes must be byte-identical at any thread count.
//! This is the contract that makes `--threads` safe to use for the paper's
//! artifacts.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use gqos_bench::experiments::{fault_sweep, REGISTRY};
use gqos_bench::ExpConfig;
use gqos_trace::SimDuration;

fn cfg(threads: usize, out: &str) -> ExpConfig {
    ExpConfig {
        // Short span so the whole suite stays fast; long enough that every
        // experiment has real bursts to chew on.
        span: SimDuration::from_secs(30),
        seed: 42,
        out_dir: out.to_string(),
        threads,
    }
}

/// Every file in `dir`, by name, with its bytes; empty when the row wrote
/// nothing and so never created `dir` (`top`).
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .map(|entry| {
                    let entry = entry.expect("readable out dir");
                    let name = entry.file_name().to_string_lossy().into_owned();
                    (name, fs::read(entry.path()).expect("readable artifact"))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Runs every registry row serially and with 4 workers, each into a fresh
/// out dir of the same path, and asserts the report text and every written
/// file match exactly. No report may flag an invariant violation.
#[test]
fn every_registry_row_is_identical_serial_and_parallel() {
    for experiment in REGISTRY {
        let dir = std::env::temp_dir().join(format!("gqos_parallel_equiv_{}", experiment.name));
        let out = dir.to_str().expect("utf-8 temp path");
        let run = |threads| {
            let _ = fs::remove_dir_all(&dir);
            let text = (experiment.report)(&cfg(threads, out));
            (text, files(&dir))
        };
        let (serial_text, serial_files) = run(1);
        let (parallel_text, parallel_files) = run(4);
        let name = experiment.name;
        assert_eq!(serial_text, parallel_text, "{name}: report text diverged");
        assert_eq!(
            serial_files.keys().collect::<Vec<_>>(),
            parallel_files.keys().collect::<Vec<_>>(),
            "{name}: different files written"
        );
        for (file, bytes) in &serial_files {
            assert!(
                parallel_files[file] == *bytes,
                "{name}: {file} bytes diverged"
            );
        }
        assert!(
            !serial_text.contains("INVARIANT VIOLATION"),
            "{name}: report flagged an invariant violation:\n{serial_text}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// The fault-free golden contract at the harness level: severity 0 cells of
/// the sweep (whose generated schedule is empty) must reproduce the plain,
/// unadapted run of each policy byte-for-byte — same achieved fraction,
/// same class split, no renegotiation.
#[test]
fn fault_sweep_severity_zero_matches_plain_runs() {
    use gqos_core::{CapacityPlanner, Provision, WorkloadShaper};
    use gqos_sim::ServiceClass;
    use gqos_trace::gen::profiles::TraceProfile;

    let cfg = cfg(1, "unused");
    let deadline = SimDuration::from_millis(fault_sweep::SWEEP_DEADLINE_MS);
    let workload = TraceProfile::WebSearch.generate(cfg.span, cfg.seed);
    let planner = CapacityPlanner::new(&workload, deadline);
    let provision = Provision::with_default_surplus(
        planner.min_capacity(fault_sweep::SWEEP_FRACTION),
        deadline,
    );
    let shaper = WorkloadShaper::new(provision, deadline);

    let cells = fault_sweep::compute(&cfg);
    for cell in cells.iter().filter(|c| c.severity == 0.0) {
        let plain = shaper.run(&workload, cell.policy);
        assert_eq!(
            cell.achieved_fraction,
            plain.stats().fraction_within(deadline),
            "{}: severity-0 achieved fraction diverged from plain run",
            cell.policy
        );
        assert_eq!(cell.q1_completed, plain.completed_in(ServiceClass::PRIMARY));
        assert_eq!(
            cell.q2_completed,
            plain.completed_in(ServiceClass::OVERFLOW)
        );
        assert_eq!(
            cell.min_negotiated_factor, 1.0,
            "{}: controller fired on a healthy server",
            cell.policy
        );
    }
}

/// A pinned-seed degrade-and-replan reproduces exactly: same assignments,
/// same consolidated quotes, same unplaced set — across reruns and across
/// 1/2/4/8 worker threads.
#[test]
fn fleet_degrade_replan_reproduces_exactly() {
    use gqos_bench::experiments::fleet;
    use gqos_core::{FleetPlacer, QosTarget, QuoteCache, TenantId};
    use gqos_parallel::WorkerPool;
    use gqos_trace::Iops;

    let cfg = cfg(1, "unused");
    let deadline = SimDuration::from_millis(fleet::FLEET_DEADLINE_MS);
    let target = QosTarget::new(fleet::FLEET_FRACTION, deadline);
    let tenants = fleet::fleet_tenants(&cfg, 64);
    let servers = 12;
    let capacity = fleet::size_capacity(&tenants, servers, target);
    let placer = FleetPlacer::new(target, Iops::new(capacity as f64));

    type Fingerprint = (usize, Vec<Option<usize>>, Vec<u64>, Vec<TenantId>);
    let run = |threads: usize| -> Fingerprint {
        let pool = WorkerPool::new(threads);
        let mut cache = QuoteCache::new(deadline);
        let mut placement = placer
            .pack(&tenants, servers, &mut cache, &pool)
            .expect("pack");
        let node = fleet::busiest_node(&placement);
        placer
            .replan_degraded(&mut placement, &tenants, node, 0.6, &mut cache, &pool)
            .expect("replan");
        (
            node,
            tenants
                .iter()
                .map(|t| placement.server_of(t.id()))
                .collect(),
            placement.bins().iter().map(|b| b.quote_int()).collect(),
            placement.unplaced().to_vec(),
        )
    };

    let serial = run(1);
    assert_eq!(serial, run(1), "degrade-and-replan is not reproducible");
    for threads in [2, 4, 8] {
        assert_eq!(
            serial,
            run(threads),
            "degrade-and-replan diverged at {threads} threads"
        );
    }
}

/// Every policy's audit must hold on the parallel path too: replayed miss
/// fractions equal aggregates, lifecycles are clean, merges bit-identical.
#[test]
fn run_report_audits_pass_on_the_parallel_path() {
    use gqos_bench::experiments::run_report;

    let summaries = run_report::compute(&cfg(4, "unused"));
    assert_eq!(summaries.len(), 4);
    for s in &summaries {
        assert!(s.ok(), "{}: observability audit failed", s.policy);
        assert_eq!(s.aggregate_miss, s.replay_miss, "{}", s.policy);
        assert!(s.merge_identical, "{}", s.policy);
        assert!(s.violations.is_empty(), "{}: {:?}", s.policy, s.violations);
    }
}
