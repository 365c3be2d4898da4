//! The policy table against an independent oracle.
//!
//! `RecombinePolicy::parts` is the one place a policy becomes a scheduler
//! plus server rates, and every shaped run is built from it. This suite
//! keeps the explicit per-policy construction as the reference: the
//! concrete scheduler type, then `FixedRateServer`s in `ServerId` order
//! (`Cmin` then `ΔC` for Split). A table that swapped Split's servers,
//! picked the wrong scheduler, or dropped the trace from one arm would
//! diverge here record for record.

use gqos_core::{
    AdaptiveScheduler, AdmissionRecord, CapacityAdaptive, DegradationController,
    FairQueueScheduler, MiserScheduler, QosTarget, RecombinePolicy, SplitScheduler, WorkloadShaper,
};
use gqos_faults::FaultSchedule;
use gqos_sim::{
    FcfsScheduler, FixedRateServer, ModulatedServer, RunReport, Scheduler, Simulation, TraceEvent,
    TraceHandle,
};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::{Iops, SimDuration, SimTime, Workload};

/// The estimator window `WorkloadShaper::run_with_faults_logged` uses.
const DEGRADATION_WINDOW: usize = 8;

fn planned() -> (Workload, WorkloadShaper) {
    let workload = TraceProfile::OpenMail.generate(SimDuration::from_secs(10), 42);
    let shaper = WorkloadShaper::plan(
        &workload,
        QosTarget::new(0.90, SimDuration::from_millis(20)),
    );
    let p = shaper.provision();
    // A swapped Split server order is only visible if the rates differ.
    assert_ne!(p.cmin(), p.delta_c());
    (workload, shaper)
}

fn plain<S: Scheduler>(workload: &Workload, scheduler: S, rates: &[Iops]) -> RunReport {
    let mut sim = Simulation::new(scheduler);
    for &rate in rates {
        sim = sim.server(FixedRateServer::new(rate));
    }
    sim.run(workload)
}

fn traced<S: Scheduler>(
    workload: &Workload,
    scheduler: S,
    rates: &[Iops],
    trace: TraceHandle,
    deadline: SimDuration,
) -> RunReport {
    let mut sim = Simulation::new(scheduler).trace(trace).deadline(deadline);
    for &rate in rates {
        sim = sim.server(FixedRateServer::new(rate));
    }
    sim.run(workload)
}

fn faulted<S: CapacityAdaptive>(
    workload: &Workload,
    scheduler: S,
    rates: &[Iops],
    schedule: &FaultSchedule,
) -> (RunReport, Vec<AdmissionRecord>) {
    let controller = DegradationController::new(DEGRADATION_WINDOW);
    let (scheduler, log) =
        AdaptiveScheduler::new(scheduler, controller, rates).with_admission_log();
    let mut sim = Simulation::new(scheduler);
    for &rate in rates {
        sim = sim.server(ModulatedServer::new(
            FixedRateServer::new(rate),
            schedule.clone(),
        ));
    }
    let report = sim.run(workload);
    (report, log.take())
}

fn reference_run(shaper: &WorkloadShaper, w: &Workload, policy: RecombinePolicy) -> RunReport {
    let (p, d) = (shaper.provision(), shaper.deadline());
    match policy {
        RecombinePolicy::Fcfs => plain(w, FcfsScheduler::new(), &[p.total()]),
        RecombinePolicy::Split => plain(w, SplitScheduler::new(p, d), &[p.cmin(), p.delta_c()]),
        RecombinePolicy::FairQueue => plain(w, FairQueueScheduler::new(p, d), &[p.total()]),
        RecombinePolicy::Miser => plain(w, MiserScheduler::new(p, d), &[p.total()]),
    }
}

fn reference_traced(
    shaper: &WorkloadShaper,
    w: &Workload,
    policy: RecombinePolicy,
    t: TraceHandle,
) -> RunReport {
    let (p, d) = (shaper.provision(), shaper.deadline());
    match policy {
        RecombinePolicy::Fcfs => {
            traced(w, FcfsScheduler::with_trace(t.clone()), &[p.total()], t, d)
        }
        RecombinePolicy::Split => traced(
            w,
            SplitScheduler::with_trace(p, d, t.clone()),
            &[p.cmin(), p.delta_c()],
            t,
            d,
        ),
        RecombinePolicy::FairQueue => traced(
            w,
            FairQueueScheduler::with_trace(p, d, t.clone()),
            &[p.total()],
            t,
            d,
        ),
        RecombinePolicy::Miser => traced(
            w,
            MiserScheduler::with_trace(p, d, t.clone()),
            &[p.total()],
            t,
            d,
        ),
    }
}

fn reference_faulted(
    shaper: &WorkloadShaper,
    w: &Workload,
    policy: RecombinePolicy,
    schedule: &FaultSchedule,
) -> (RunReport, Vec<AdmissionRecord>) {
    let (p, d) = (shaper.provision(), shaper.deadline());
    match policy {
        RecombinePolicy::Fcfs => faulted(w, FcfsScheduler::new(), &[p.total()], schedule),
        RecombinePolicy::Split => faulted(
            w,
            SplitScheduler::new(p, d),
            &[p.cmin(), p.delta_c()],
            schedule,
        ),
        RecombinePolicy::FairQueue => {
            faulted(w, FairQueueScheduler::new(p, d), &[p.total()], schedule)
        }
        RecombinePolicy::Miser => faulted(w, MiserScheduler::new(p, d), &[p.total()], schedule),
    }
}

fn events(run: impl FnOnce(TraceHandle) -> RunReport) -> (RunReport, Vec<TraceEvent>) {
    let (trace, sink) = TraceHandle::memory();
    let report = run(trace);
    let events = sink.borrow().events();
    (report, events)
}

#[test]
fn plain_runs_match_the_explicit_construction() {
    let (workload, shaper) = planned();
    for policy in RecombinePolicy::ALL {
        let reference = reference_run(&shaper, &workload, policy);
        let table = shaper.run(&workload, policy);
        assert_eq!(reference.records(), table.records(), "{policy}");
        assert_eq!(reference.end_time(), table.end_time(), "{policy}");
    }
}

#[test]
fn traced_runs_match_the_explicit_construction() {
    let (workload, shaper) = planned();
    for policy in RecombinePolicy::ALL {
        let (reference, ref_events) = events(|t| reference_traced(&shaper, &workload, policy, t));
        let (table, table_events) = events(|t| shaper.run_traced(&workload, policy, t));
        assert!(!ref_events.is_empty(), "{policy}: no events captured");
        assert_eq!(ref_events, table_events, "{policy}: event streams differ");
        assert_eq!(reference.records(), table.records(), "{policy}");
    }
}

#[test]
fn faulted_runs_match_the_explicit_construction() {
    let (workload, shaper) = planned();
    let schedule = FaultSchedule::new(7)
        .with_slowdown(SimTime::from_secs(2), SimDuration::from_secs(3), 4.0)
        .with_outage(SimTime::from_secs(6), SimDuration::from_millis(400));
    let mut degraded = 0;
    for policy in RecombinePolicy::ALL {
        let (reference, ref_log) = reference_faulted(&shaper, &workload, policy, &schedule);
        let (table, table_log) = shaper.run_with_faults_logged(&workload, policy, &schedule);
        assert_eq!(reference.records(), table.records(), "{policy}");
        assert_eq!(ref_log, table_log, "{policy}: admission logs differ");
        degraded += table_log.iter().filter(|r| r.factor < 1.0).count();
    }
    assert!(degraded > 0, "the schedule never moved the controller");
}
