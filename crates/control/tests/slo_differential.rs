//! The SLO-feedback differential harness: the controller's behavioural
//! invariants pinned under fixed seeds, each checked against an
//! independently computed oracle:
//!
//! 1. **Steady-state silence** — on a workload the static quote already
//!    serves (Meet or Quiet at the initial share, asserted per seed),
//!    the controller issues zero commands and the run is byte-identical
//!    to the uncontrolled arm, modulo the arm label.
//! 2. **Non-interference** — while the server-side degradation ladder
//!    sits below nominal, the loop is frozen: no frozen window ever
//!    carries a command, and the ladder trace is byte-identical whether
//!    feedback runs or not.
//! 3. **Capacity & fencing** — intended shares never sum past the fleet
//!    capacity, the plane's committed ledger never does either, and the
//!    controller's epoch shadow never runs ahead of the plane (and is
//!    exactly the plane's epoch over a perfect channel).
//! 4. **Worker-count byte-identity** — the full run report is identical
//!    across 1/2/4/8 workers, faults and degradation included.
//! 5. **Gateway tap** — `TenantReport::window_feedback` snapshots merge
//!    back to the lane sketch bit for bit and drive the controller
//!    deterministically.

use std::collections::BTreeMap;

use gqos_control::{
    synth_window_sketch, SloConfig, SloController, SloRun, SloScenario, SloScenarioConfig,
    SloTarget, WindowVerdict,
};
use gqos_core::{Provision, RecombinePolicy, TenantId, WorkloadShaper};
use gqos_obs::LatencySketch;
use gqos_parallel::WorkerPool;
use gqos_stream::{IngestGateway, TenantSpec};
use gqos_trace::{Iops, SimDuration, SimTime, Workload};

/// Seeds pinned for the steady-state arm: under `static_config()` every
/// tenant's verdict at its initial (static-quote) share is Meet or
/// Quiet, so the controlled run must stay silent. The precondition is
/// re-asserted inside the test; re-pin with `probe_steady_seeds` if the
/// drift generator ever changes.
const STEADY_SEEDS: [u64; 6] = [0x0, 0x2, 0x5, 0x2F, 0x1C3, 0xC0FFEE];

/// Seeds for the chaos / capacity / identity arms — arbitrary and
/// frozen, no precondition needed.
const CHAOS_SEEDS: [u64; 6] = [
    0xC0FFEE,
    0x5EED_0001,
    0x5EED_0002,
    0xDEAD_BEEF,
    0xBADC_0DE5,
    0x1234_5678_9ABC,
];

/// One drift segment, no faults, no degradation: the workload the
/// static quote was cut for.
fn static_config() -> SloScenarioConfig {
    SloScenarioConfig {
        segments: 1,
        windows_per_segment: 24,
        ..SloScenarioConfig::default()
    }
}

/// Drifting workload under a lossy channel with a mid-run degradation
/// span: the stability gauntlet.
fn chaos_config() -> SloScenarioConfig {
    SloScenarioConfig {
        segments: 3,
        windows_per_segment: 16,
        channel_severity: 0.5,
        degraded_from: 8,
        degraded_until: 24,
        degraded_factor_pct: 50,
        ..SloScenarioConfig::default()
    }
}

/// The uncontrolled twin of `config`.
fn static_arm(mut config: SloScenarioConfig) -> SloScenarioConfig {
    config.feedback = false;
    config
}

/// A run report with the arm-label header and controller-counter lines
/// stripped: what must be byte-identical between a silent controlled
/// run and its uncontrolled twin.
fn armless_report(run: &mut SloRun) -> String {
    run.report()
        .lines()
        .filter(|l| !l.starts_with("slo ") && !l.starts_with("controller "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Scans seeds for the steady-state precondition and prints the first
/// pinnable ones. Not an invariant — a maintenance tool:
/// `cargo test -p gqos-control --test slo_differential probe -- --ignored --nocapture`
#[test]
#[ignore = "seed-pinning tool, not an invariant"]
fn probe_steady_seeds() {
    let cfg = static_config();
    let mut found = 0;
    for seed in 0..512u64 {
        let scenario = SloScenario::generate(seed, cfg);
        let floor = cfg.slo.capacity_floor();
        let steady = (0..cfg.tenants).all(|t| {
            let share = scenario.oracle_quote(t, 0).max(floor);
            let sketch = synth_window_sketch(scenario.pattern(t, 0), share, cfg.slo);
            matches!(
                WindowVerdict::classify(sketch.as_ref(), cfg.slo),
                WindowVerdict::Meet | WindowVerdict::Quiet
            )
        });
        if steady {
            println!("steady seed: {seed:#x}");
            found += 1;
            if found >= 12 {
                break;
            }
        }
    }
    assert!(found > 0, "no steady seed in 0..512");
}

#[test]
fn steady_state_issues_no_commands_and_matches_the_uncontrolled_run() {
    let cfg = static_config();
    for seed in STEADY_SEEDS {
        let scenario = SloScenario::generate(seed, cfg);
        // Precondition, asserted so a drift-generator change can't
        // silently hollow the test out: the static quote already serves
        // every tenant without slack.
        let floor = cfg.slo.capacity_floor();
        for t in 0..cfg.tenants {
            let share = scenario.oracle_quote(t, 0).max(floor);
            let sketch = synth_window_sketch(scenario.pattern(t, 0), share, cfg.slo);
            let verdict = WindowVerdict::classify(sketch.as_ref(), cfg.slo);
            assert!(
                matches!(verdict, WindowVerdict::Meet | WindowVerdict::Quiet),
                "seed {seed:#x}: tenant {t} at quote {share} is {}, not steady — re-pin seeds",
                verdict.label()
            );
        }
        let mut controlled = scenario.execute(&WorkerPool::serial());
        let mut uncontrolled =
            SloScenario::generate(seed, static_arm(cfg)).execute(&WorkerPool::serial());
        let stats = controlled.controller.stats();
        assert_eq!(
            stats.commands, 0,
            "seed {seed:#x}: a zero-error steady state must issue nothing"
        );
        assert_eq!(
            controlled.driver_stats.attempts, 0,
            "seed {seed:#x}: nothing to deliver, nothing attempted"
        );
        assert_eq!(
            armless_report(&mut controlled),
            armless_report(&mut uncontrolled),
            "seed {seed:#x}: silent feedback must be byte-identical to no feedback"
        );
    }
}

#[test]
fn frozen_windows_never_carry_commands_and_the_ladder_trace_is_unchanged() {
    let cfg = chaos_config();
    for seed in CHAOS_SEEDS {
        let run = SloScenario::generate(seed, cfg).execute(&WorkerPool::serial());
        let frozen_windows = run.records.iter().filter(|r| r.frozen).count();
        assert!(
            frozen_windows > 0,
            "seed {seed:#x}: the degradation span never froze the loop — dead test"
        );
        assert!(
            run.factors.iter().any(|&f| f < 100),
            "seed {seed:#x}: the ladder never left nominal"
        );
        for r in &run.records {
            assert!(
                !(r.frozen && r.commanded),
                "seed {seed:#x}: w={} {} commanded while frozen — the loop fought the ladder",
                r.window,
                r.tenant
            );
        }
        // The ladder is driven purely by server-side observations: the
        // feedback loop must not perturb it.
        let twin = SloScenario::generate(seed, static_arm(cfg)).execute(&WorkerPool::serial());
        assert_eq!(
            run.factors, twin.factors,
            "seed {seed:#x}: feedback changed the degradation trace"
        );
        // Stability: the loop never runs away — at most one command per
        // tenant-window, every intended share within [floor, ceiling].
        let stats = run.controller.stats();
        assert!(
            stats.commands <= stats.windows,
            "seed {seed:#x}: more commands than windows"
        );
        let floor = cfg.slo.capacity_floor();
        let cap = run.plane.fleet_capacity();
        for r in &run.records {
            assert!(
                (floor..=cap).contains(&r.intended),
                "seed {seed:#x}: w={} {} intended {} outside [{floor}, {cap}]",
                r.window,
                r.tenant,
                r.intended
            );
        }
    }
}

#[test]
fn shares_never_overcommit_and_epoch_shadows_never_run_ahead() {
    for (lossy, cfg) in [(false, static_config()), (true, chaos_config())] {
        for seed in CHAOS_SEEDS {
            let run = SloScenario::generate(seed, cfg).execute(&WorkerPool::serial());
            let cap = run.plane.fleet_capacity();
            // The plane's own ledger, after every window.
            for (w, &sum) in run.committed.iter().enumerate() {
                assert!(
                    sum <= cap,
                    "seed {seed:#x}: window {w} committed {sum} > fleet capacity {cap}"
                );
            }
            // The controller's intent, per window.
            let mut intended: BTreeMap<u32, u64> = BTreeMap::new();
            for r in &run.records {
                *intended.entry(r.window).or_default() += r.intended;
            }
            for (&w, &sum) in &intended {
                assert!(
                    sum <= cap,
                    "seed {seed:#x}: window {w} intends {sum} > fleet capacity {cap}"
                );
            }
            // Epoch fencing: the shadow only ever copies epochs the
            // plane reported, so it can trail but never lead.
            for t in 0..cfg.tenants {
                let tenant = TenantId::new(t);
                let shadow = run
                    .controller
                    .epoch_shadow(tenant)
                    .expect("every tenant is registered");
                let epoch = run.plane.epoch_of(tenant).expect("every tenant is placed");
                if lossy {
                    assert!(
                        shadow <= epoch,
                        "seed {seed:#x}: tenant {tenant} shadow {shadow} ahead of plane {epoch}"
                    );
                } else {
                    assert_eq!(
                        shadow, epoch,
                        "seed {seed:#x}: tenant {tenant} shadow diverged over a perfect channel"
                    );
                }
            }
            if !lossy {
                assert_eq!(
                    run.driver_stats.expired, 0,
                    "seed {seed:#x}: expiries over a perfect channel"
                );
                assert_eq!(
                    run.plane.stats().rejected,
                    0,
                    "seed {seed:#x}: rejections over a perfect channel"
                );
            }
        }
    }
}

#[test]
fn reports_are_byte_identical_across_worker_counts() {
    for cfg in [static_config(), chaos_config()] {
        for seed in [CHAOS_SEEDS[0], CHAOS_SEEDS[3]] {
            let scenario = SloScenario::generate(seed, cfg);
            let baseline = scenario.execute(&WorkerPool::serial()).report();
            for workers in [2, 4, 8] {
                assert_eq!(
                    scenario.execute(&WorkerPool::new(workers)).report(),
                    baseline,
                    "seed {seed:#x}: report diverged at {workers} workers"
                );
            }
        }
    }
}

#[test]
fn gateway_tap_snapshots_merge_losslessly_and_drive_the_controller() {
    let window = SimDuration::from_millis(20);
    let spec = TenantSpec {
        name: "tap".into(),
        workload: Workload::from_arrivals((0..200).map(SimTime::from_millis)),
        shaper: WorkloadShaper::new(
            Provision::new(Iops::new(200.0), Iops::new(100.0)),
            SimDuration::from_millis(20),
        ),
        policy: RecombinePolicy::FairQueue,
        inbox_bound: 64,
        chunk: 16,
    };
    let report = IngestGateway::new(WorkerPool::serial())
        .run(vec![spec])
        .pop()
        .expect("one lane in, one report out");
    let snapshots = report.window_feedback(window);
    let mut merged = LatencySketch::new();
    for s in &snapshots {
        merged.merge(s.sketch());
    }
    assert_eq!(
        merged, report.sketch,
        "window feedback lost samples against the lane sketch"
    );
    // The tap drives the controller deterministically: two identical
    // feeds, identical loop state.
    let drive = || {
        let mut c = SloController::new(SloConfig::new(10_000), 7_000);
        let t = TenantId::new(0);
        c.register(
            t,
            SloTarget::new(SimDuration::from_millis(5), 900_000),
            100,
            0,
        );
        let mut moves = Vec::new();
        for s in &snapshots {
            if let Some(req) = c.observe_snapshot(t, s, false) {
                moves.push(req.id);
            }
        }
        (c.share_of(t), c.stats(), moves)
    };
    assert_eq!(drive(), drive(), "the tap-fed loop is not deterministic");
    let (_, stats, _) = drive();
    assert_eq!(
        stats.windows,
        snapshots.len() as u64,
        "every snapshot must reach the loop, quiet ones included"
    );
}
