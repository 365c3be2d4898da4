//! The deterministic chaos harness: random command × channel-fault ×
//! node-fault interleavings under pinned seeds, checked against the
//! invariant oracles that must survive *any* interleaving:
//!
//! 1. **Zero drop** — every acked `DrainTenant` handoff, replayed at the
//!    data plane through `drain_migrate`, completes every offered
//!    request (shed and migrated, never dropped).
//! 2. **Epoch monotonicity** — the plane's epoch log is strictly
//!    increasing per tenant, across removals and re-admissions.
//! 3. **Convergence** — after the full interleaving, the quotes served
//!    from the plane's long-lived cache are bit-identical to a
//!    from-scratch placement of the surviving tenant set.
//! 4. **Worker-count byte-identity** — the full run report is
//!    byte-identical across 1/2/4/8 workers.

use std::collections::BTreeMap;

use gqos_control::chaos::{chaos_workload, ChaosConfig, ChaosRun, ChaosScenario};
use gqos_control::{Ack, AckDetail, CommandBody, ControlResponse, Delivery};
use gqos_core::{Provision, RecombinePolicy, WorkloadShaper};
use gqos_parallel::WorkerPool;
use gqos_stream::{drain_migrate, DrainPlan, TenantSpec};
use gqos_trace::{Iops, SimDuration, SimTime};

/// The pinned seeds every invariant is checked under. Chosen arbitrarily
/// and frozen: a failure reproduces from the seed alone.
const SEEDS: [u64; 6] = [
    0xC0FFEE,
    0x5EED_0001,
    0x5EED_0002,
    0xDEAD_BEEF,
    0xBADC_0DE5,
    0x1234_5678_9ABC,
];

fn acked_ok(delivery: &Delivery) -> Option<&Ack> {
    match delivery {
        Delivery::Acked(ControlResponse {
            outcome: Ok(ack), ..
        }) => Some(ack),
        _ => None,
    }
}

#[test]
fn chaos_epochs_are_monotone_per_tenant() {
    for seed in SEEDS {
        let run =
            ChaosScenario::generate(seed, ChaosConfig::default()).execute(&WorkerPool::serial());
        let mut last: BTreeMap<_, u64> = BTreeMap::new();
        for &(tenant, epoch) in run.plane.epoch_log() {
            if let Some(&prev) = last.get(&tenant) {
                assert!(
                    epoch > prev,
                    "seed {seed:#x}: tenant {tenant} epoch went {prev} -> {epoch}"
                );
            }
            last.insert(tenant, epoch);
        }
        assert!(
            !run.plane.epoch_log().is_empty(),
            "seed {seed:#x}: nothing applied"
        );
    }
}

#[test]
fn chaos_converged_quotes_match_a_from_scratch_pack() {
    for seed in SEEDS {
        let mut run =
            ChaosScenario::generate(seed, ChaosConfig::default()).execute(&WorkerPool::serial());
        let converged = run.plane.converged_quotes();
        let oracle = run.plane.oracle_quotes().expect("oracle pack must succeed");
        assert_eq!(
            converged, oracle,
            "seed {seed:#x}: incremental quotes diverged from the from-scratch pack"
        );
    }
}

#[test]
fn chaos_acked_drains_are_zero_drop_at_the_data_plane() {
    let mut verified = 0usize;
    for seed in SEEDS {
        let scenario = ChaosScenario::generate(seed, ChaosConfig::default());
        let run = scenario.execute(&WorkerPool::serial());
        for (i, outcome) in run.outcomes.iter().enumerate() {
            let Some(Ack {
                detail: AckDetail::Drained { from, to: Some(to) },
                ..
            }) = acked_ok(&outcome.delivery)
            else {
                continue;
            };
            let (_, request) = &scenario.commands()[i];
            let CommandBody::DrainTenant { tenant, .. } = request.body else {
                panic!("Drained ack for a non-drain command");
            };
            // Replay the handoff at the data plane: the same tenant's
            // workload drained off `from` onto `to` over a mid-run
            // window must complete everything it was offered.
            let workload = chaos_workload(seed, tenant.index());
            let mid = workload.last_arrival().unwrap_or(SimTime::ZERO);
            let plan = DrainPlan::new(
                SimTime::from_nanos(mid.as_nanos() / 3),
                SimDuration::from_nanos((mid.as_nanos() / 4).max(1)),
            );
            let spec = TenantSpec {
                name: format!("{tenant}"),
                workload,
                shaper: WorkloadShaper::new(
                    Provision::new(Iops::new(300.0), Iops::new(150.0)),
                    SimDuration::from_millis(20),
                ),
                policy: RecombinePolicy::FairQueue,
                inbox_bound: 32,
                chunk: 16,
            };
            let report = drain_migrate(
                &spec,
                plan,
                tenant.index() as u64,
                *from,
                *to,
                &gqos_obs::TraceHandle::disabled(),
            );
            assert_eq!(
                report.dropped(),
                0,
                "seed {seed:#x}: drain of {tenant} dropped requests"
            );
            assert_eq!(report.offered(), spec_len(&spec));
            verified += 1;
        }
    }
    assert!(
        verified > 0,
        "no acked drain across all pinned seeds — scenario too tame"
    );
}

fn spec_len(spec: &TenantSpec) -> usize {
    spec.workload.len()
}

#[test]
fn chaos_reports_are_byte_identical_across_worker_counts() {
    for seed in [SEEDS[0], SEEDS[3]] {
        let scenario = ChaosScenario::generate(seed, ChaosConfig::default());
        let reference = scenario.execute(&WorkerPool::serial()).report();
        for workers in [2usize, 4, 8] {
            let sharded = scenario.execute(&WorkerPool::new(workers)).report();
            assert_eq!(
                reference, sharded,
                "seed {seed:#x}: report diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn chaos_interleavings_actually_exercise_the_fault_paths() {
    // The harness is only meaningful if the scenarios hit the machinery:
    // across the pinned seeds there must be retries, drops, duplicate
    // deliveries absorbed by the dedup log, typed rejections, and at
    // least one client-side expiry.
    let mut retries = 0u64;
    let mut dropped = 0u64;
    let mut replayed = 0u64;
    let mut rejected = 0u64;
    let mut expired = 0u64;
    for seed in SEEDS {
        let run: ChaosRun =
            ChaosScenario::generate(seed, ChaosConfig::default()).execute(&WorkerPool::serial());
        retries += run.stats.retries;
        dropped += run.stats.dropped_requests + run.stats.dropped_responses;
        replayed += run.plane.stats().replayed;
        rejected += run.plane.stats().rejected;
        expired += run.stats.expired;
    }
    assert!(retries > 0, "no retries — channel too kind");
    assert!(dropped > 0, "no drops — channel too kind");
    assert!(
        replayed > 0,
        "no dedup replays — duplicates never reached the plane"
    );
    assert!(rejected > 0, "no typed rejections — fencing never tested");
    assert!(expired > 0, "no expiries — deadline path never tested");
}
