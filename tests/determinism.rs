//! Reproducibility: identical seeds must reproduce identical workloads,
//! simulations, and experiment results bit for bit, across every layer.

use gqos::disk::{CachedDisk, DiskModel};
use gqos::sim::{simulate, FcfsScheduler, ServiceClass, Simulation};
use gqos::trace::gen::profiles::TraceProfile;
use gqos::{
    CapacityPlanner, MiserScheduler, Provision, QosTarget, RecombinePolicy, SimDuration,
    WorkloadShaper,
};

const SPAN: SimDuration = SimDuration::from_secs(60);

/// A mechanical disk behind a 1,024-line LRU cache.
fn cached_disk() -> CachedDisk<DiskModel> {
    CachedDisk::new(
        DiskModel::builder().build(),
        1024,
        SimDuration::from_micros(50),
    )
}

#[test]
fn profile_generation_is_bit_reproducible() {
    for profile in TraceProfile::ALL {
        let a = profile.generate(SPAN, 99);
        let b = profile.generate(SPAN, 99);
        assert_eq!(a, b, "{profile} not reproducible");
    }
}

#[test]
fn full_shaping_run_is_reproducible() {
    let w = TraceProfile::OpenMail.generate(SPAN, 5);
    let shaper = WorkloadShaper::plan(&w, QosTarget::new(0.9, SimDuration::from_millis(10)));
    for policy in RecombinePolicy::ALL {
        let a = shaper.run(&w, policy);
        let b = shaper.run(&w, policy);
        assert_eq!(a.records(), b.records(), "{policy} diverged");
        assert_eq!(a.end_time(), b.end_time());
    }
}

#[test]
fn planner_is_reproducible() {
    let w = TraceProfile::WebSearch.generate(SPAN, 8);
    let planner = CapacityPlanner::new(&w, SimDuration::from_millis(20));
    assert_eq!(
        planner.min_capacity(0.95).get(),
        planner.min_capacity(0.95).get()
    );
}

#[test]
fn disk_model_simulation_is_reproducible() {
    let w = TraceProfile::FinTrans.generate(SPAN, 3).time_scaled(3.0);
    let run = || {
        Simulation::new(FcfsScheduler::new())
            .server(cached_disk())
            .run(&w)
    };
    let a = run();
    let b = run();
    assert_eq!(a.records(), b.records());
}

#[test]
fn miser_on_disk_is_reproducible_and_complete() {
    let w = TraceProfile::FinTrans.generate(SPAN, 6).time_scaled(3.0);
    let p = Provision::new(gqos::Iops::new(100.0), gqos::Iops::new(100.0));
    let run = || {
        simulate(
            &w,
            MiserScheduler::new(p, SimDuration::from_millis(100)),
            cached_disk(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.records(), b.records());
    assert_eq!(a.completed(), w.len());
    assert!(a.completed_in(ServiceClass::PRIMARY) > 0);
}

#[test]
fn different_seeds_change_the_workload_but_not_the_laws() {
    // Different realizations must still satisfy the planner guarantee.
    let deadline = SimDuration::from_millis(10);
    for seed in [1u64, 2, 3] {
        let w = TraceProfile::WebSearch.generate(SPAN, seed);
        let planner = CapacityPlanner::new(&w, deadline);
        let c = planner.min_capacity(0.9);
        assert!(planner.fraction_guaranteed(c) >= 0.9, "seed {seed}");
    }
}

#[test]
fn traced_runs_are_byte_identical_to_untraced_runs() {
    // The golden observability contract: a trace handle — disabled, the
    // fully instrumented NullSink path, or a recording MemorySink — never
    // changes a single completion record, for any policy. Sinks observe;
    // they never steer.
    use gqos::sim::{NullSink, TraceHandle};

    let w = TraceProfile::OpenMail.generate(SPAN, 5);
    let shaper = WorkloadShaper::plan(&w, QosTarget::new(0.9, SimDuration::from_millis(10)));
    for policy in RecombinePolicy::ALL {
        let plain = shaper.run(&w, policy);
        let (memory, sink) = TraceHandle::memory();
        let handles = [
            ("disabled", TraceHandle::disabled()),
            ("instrumented", TraceHandle::new(NullSink)),
            ("memory", memory),
        ];
        for (name, trace) in handles {
            let traced = shaper.run_traced(&w, policy, trace);
            assert_eq!(
                plain.records(),
                traced.records(),
                "{policy}: {name}-traced run diverged"
            );
            assert_eq!(plain.end_time(), traced.end_time(), "{policy}: {name}");
        }
        assert!(!sink.borrow().is_empty(), "{policy}: no events captured");
    }
}

#[test]
fn the_trace_itself_is_reproducible() {
    // Two traced runs at one seed must capture identical event streams —
    // the property that makes a JSONL trace a usable artifact.
    use gqos::sim::TraceHandle;

    let w = TraceProfile::WebSearch.generate(SPAN, 7);
    let shaper = WorkloadShaper::plan(&w, QosTarget::new(0.9, SimDuration::from_millis(50)));
    for policy in RecombinePolicy::ALL {
        let (h1, s1) = TraceHandle::memory();
        let _ = shaper.run_traced(&w, policy, h1);
        let (h2, s2) = TraceHandle::memory();
        let _ = shaper.run_traced(&w, policy, h2);
        assert_eq!(
            s1.borrow().to_jsonl(),
            s2.borrow().to_jsonl(),
            "{policy}: trace not reproducible"
        );
    }
}
