//! Property-based tests of the start-time fair queueing scheduler.

use proptest::prelude::*;

use gqos_fairqueue::{FlowId, Sfq};
use gqos_trace::{Request, SimTime};

/// A random interleaved script: (flow, arrival-ms) pairs in time order plus
/// interspersed dequeue operations.
fn arb_script() -> impl Strategy<Value = Vec<Option<usize>>> {
    // Some(flow) = enqueue on flow; None = dequeue.
    prop::collection::vec(prop_oneof![Just(None), (0usize..2).prop_map(Some),], 1..200)
}

/// Runs the script: enqueues carry increasing timestamps. Returns
/// (enqueued, dequeued) counts and checks per-flow FIFO along the way.
fn exercise(mut s: Sfq, script: &[Option<usize>]) -> (usize, usize) {
    let mut enqueued = 0usize;
    let mut dequeued = 0usize;
    let mut clock = 0u64;
    let mut last_served: [Option<SimTime>; 2] = [None, None];
    for op in script {
        match op {
            Some(flow) => {
                clock += 1;
                s.enqueue(FlowId::new(*flow), Request::at(SimTime::from_millis(clock)));
                enqueued += 1;
            }
            None => {
                if let Some((flow, r)) = s.dequeue() {
                    dequeued += 1;
                    let slot = &mut last_served[flow.index()];
                    if let Some(prev) = *slot {
                        assert!(r.arrival > prev, "per-flow FIFO violated");
                    }
                    *slot = Some(r.arrival);
                }
            }
        }
    }
    (enqueued, dequeued)
}

/// Drains the scheduler and verifies conservation.
fn drain_and_check(mut s: Sfq, script: &[Option<usize>]) {
    let mut enqueued = 0usize;
    let mut clock = 0u64;
    for flow in script.iter().flatten() {
        clock += 1;
        s.enqueue(FlowId::new(*flow), Request::at(SimTime::from_millis(clock)));
        enqueued += 1;
    }
    assert_eq!(s.len(), enqueued);
    let mut dequeued = 0usize;
    while s.dequeue().is_some() {
        dequeued += 1;
    }
    assert_eq!(dequeued, enqueued, "requests lost or duplicated");
    assert!(s.is_empty());
    assert_eq!(s.flow_len(FlowId::new(0)) + s.flow_len(FlowId::new(1)), 0);
}

mod sfq_props {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn conserves_requests(script in arb_script()) {
            drain_and_check(Sfq::new(&[3.0, 1.0]), &script);
        }

        #[test]
        fn interleaved_ops_preserve_fifo_and_counts(script in arb_script()) {
            let (enq, deq) = exercise(Sfq::new(&[3.0, 1.0]), &script);
            prop_assert!(deq <= enq);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// SFQ starves no backlogged flow while the other flow keeps
    /// arriving: after enough dequeues both flows make progress.
    #[test]
    fn no_starvation_under_continuous_load(heavy_flow in 0usize..2) {
        let light_flow = 1 - heavy_flow;
        let mut s = Sfq::new(&[1.0, 1.0]);
        // The light flow queues 5 requests early; the heavy flow floods.
        for i in 0..5u64 {
            s.enqueue(FlowId::new(light_flow), Request::at(SimTime::from_millis(i)));
        }
        for i in 0..200u64 {
            s.enqueue(FlowId::new(heavy_flow), Request::at(SimTime::from_millis(i)));
        }
        let mut light_served = 0;
        for _ in 0..40 {
            let (flow, _) = s.dequeue().expect("backlogged");
            if flow.index() == light_flow {
                light_served += 1;
            }
        }
        prop_assert_eq!(light_served, 5, "light flow starved");
    }
}
