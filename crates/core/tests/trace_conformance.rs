//! Trace-replay conformance: per-request lifecycles reconstructed from the
//! event trace must reproduce the simulation's own aggregate metrics
//! exactly — same completion counts, same miss fractions, bit-identical
//! response sketches — for every recombination policy on a fig5-style run.

use gqos_core::{CapacityPlanner, Provision, RecombinePolicy, WorkloadShaper};
use gqos_sim::{ReplayedRun, ServiceClass, TraceHandle};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::SimDuration;

const DEADLINE_MS: u64 = 50;

/// A fig5-style shaped WebSearch run: 30 s of trace, planned at (90%, 50 ms).
fn shaped() -> (gqos_trace::Workload, WorkloadShaper, SimDuration) {
    let deadline = SimDuration::from_millis(DEADLINE_MS);
    let workload = TraceProfile::WebSearch.generate(SimDuration::from_secs(30), 42);
    let planner = CapacityPlanner::new(&workload, deadline);
    let provision = Provision::with_default_surplus(planner.min_capacity(0.90), deadline);
    let shaper = WorkloadShaper::new(provision, deadline);
    (workload, shaper, deadline)
}

#[test]
fn replayed_metrics_equal_aggregate_metrics() {
    let (workload, shaper, deadline) = shaped();
    for policy in RecombinePolicy::ALL {
        let (trace, sink) = TraceHandle::memory();
        let report = shaper.run_traced(&workload, policy, trace);
        let events = sink.borrow().events();
        let replay = ReplayedRun::from_events(&events);

        assert_eq!(
            replay.requests_seen(),
            workload.len(),
            "{policy}: replay lost requests"
        );
        assert_eq!(replay.unfinished(), report.unfinished(), "{policy}");

        for class in [ServiceClass::PRIMARY, ServiceClass::OVERFLOW] {
            assert_eq!(
                replay.completed_in(class.index()),
                report.completed_in(class),
                "{policy}/{class:?}: completion counts diverged"
            );
            assert_eq!(
                replay.miss_count(class.index(), deadline),
                report.miss_count(class, deadline),
                "{policy}/{class:?}: miss counts diverged"
            );
            let replayed = replay.miss_fraction(class.index(), deadline);
            let aggregate = report.miss_fraction(class, deadline);
            assert_eq!(
                replayed, aggregate,
                "{policy}/{class:?}: miss fraction {replayed} != aggregate {aggregate}"
            );
            assert_eq!(
                replay.response_sketch(class.index()),
                report.response_sketch_for(class),
                "{policy}/{class:?}: replayed sketch diverged from aggregate"
            );
        }
    }
}

#[test]
fn event_counts_reconcile_with_the_workload() {
    let (workload, shaper, _) = shaped();
    let n = workload.len() as u64;
    for policy in RecombinePolicy::ALL {
        let (trace, sink) = TraceHandle::memory();
        let report = shaper.run_traced(&workload, policy, trace);
        let events = sink.borrow().events();
        let counts = ReplayedRun::from_events(&events).counts();

        assert_eq!(counts.arrivals, n, "{policy}: arrival count");
        assert_eq!(counts.dispatched, n, "{policy}: dispatch count");
        assert_eq!(counts.completed, report.completed() as u64, "{policy}");
        match policy {
            // FCFS has no RTT classifier, hence no admission decisions.
            RecombinePolicy::Fcfs => {
                assert_eq!(counts.admitted + counts.diverted, 0, "{policy}")
            }
            _ => assert_eq!(
                counts.admitted + counts.diverted,
                n,
                "{policy}: every arrival must be admitted or diverted"
            ),
        }
        assert_eq!(counts.degradation_changes, 0, "{policy}: healthy run");
    }
}

#[test]
fn lifecycle_audit_finds_no_violations() {
    let (workload, shaper, _) = shaped();
    for policy in RecombinePolicy::ALL {
        let (trace, sink) = TraceHandle::memory();
        let _ = shaper.run_traced(&workload, policy, trace);
        let events = sink.borrow().events();
        let violations = ReplayedRun::from_events(&events).audit();
        assert!(
            violations.is_empty(),
            "{policy}: lifecycle violations: {violations:?}"
        );
    }
}

#[test]
fn deadline_verdicts_match_the_miss_convention() {
    // The engine stamps `deadline_met = response <= deadline`; the replayed
    // miss fraction counts strictly-late completions. Exactly-on-deadline
    // requests are hits under both, so the two stay consistent.
    let (workload, shaper, deadline) = shaped();
    for policy in RecombinePolicy::ALL {
        let (trace, sink) = TraceHandle::memory();
        let report = shaper.run_traced(&workload, policy, trace);
        let events = sink.borrow().events();
        let late = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    gqos_sim::TraceEvent::Completed {
                        deadline_met: Some(false),
                        ..
                    }
                )
            })
            .count();
        let mut expected = 0;
        for class in [ServiceClass::PRIMARY, ServiceClass::OVERFLOW] {
            expected += report.miss_count(class, deadline);
        }
        assert_eq!(late, expected, "{policy}: verdict stamps != miss counts");
    }
}
