//! The inbox lanes against the gateway's `ShedScheduler` simulation.
//!
//! An untraced FCFS or Split gateway lane runs on `InboxLanes`, the FIFO
//! lanes' closed form behind the inbox. A lane whose shed events go to a
//! live trace sink runs `ShedScheduler` over the policy's scheduler on the
//! simulation core instead, so a traced `drain_migrate` is the oracle:
//! its old lane is the same lane, driven the other way. Both must return
//! the same `TenantReport` as a whole: records, shed count, end time and
//! sketch.
//!
//! Services and arrival gaps sit on one time unit, with many zero gaps,
//! so bursts fill the inbox, arrivals land on completion instants, and
//! Split's two lanes complete together. Bounds run from 1 to unreachable,
//! drains start anywhere (on an arrival instant too), and chunks run from
//! 1 request to the whole lane.

use gqos_core::{Provision, RecombinePolicy, WorkloadShaper};
use gqos_parallel::WorkerPool;
use gqos_sim::{ServiceClass, TraceHandle};
use gqos_stream::{drain_migrate, DrainPlan, IngestGateway, TenantReport, TenantSpec};
use gqos_trace::{Iops, SimDuration, SimTime, Workload};
use proptest::prelude::*;

/// A rate whose service time is exactly `service_ns`.
fn rate(service_ns: u64) -> Iops {
    Iops::new(1e9 / service_ns as f64)
}

/// One lane of `policy`: FCFS on one server of `units.0·unit` ns per
/// request, or Split on `units.0·unit` and `units.1·unit`, with RTT's
/// bound at `slots` primaries.
fn spec(
    policy: RecombinePolicy,
    unit: u64,
    units: (u64, u64),
    slots: u64,
    workload: Workload,
    inbox_bound: usize,
    chunk: usize,
) -> TenantSpec {
    let (s0, s1) = (units.0 * unit, units.1 * unit);
    let provision = match policy {
        // Halves of one rate add back to it exactly.
        RecombinePolicy::Fcfs => Provision::new(
            Iops::new(rate(s0).get() * 0.5),
            Iops::new(rate(s0).get() * 0.5),
        ),
        _ => Provision::new(rate(s0), rate(s1)),
    };
    let mut deadline = SimDuration::from_nanos(s0 * slots);
    while provision.cmin().requests_within(deadline) == 0 {
        deadline += SimDuration::from_nanos(1);
    }
    TenantSpec {
        name: "lane".into(),
        chunk: chunk.clamp(1, workload.len().max(1)),
        workload,
        shaper: WorkloadShaper::new(provision, deadline),
        policy,
        inbox_bound,
    }
}

/// Arrivals `gaps[i]·unit` ns apart.
fn arrivals(gaps: &[u64], unit: u64) -> Workload {
    let mut t = 0;
    Workload::from_arrivals(gaps.iter().map(|&gap| {
        t += gap * unit;
        SimTime::from_nanos(t)
    }))
}

/// The lane through `IngestGateway` (inbox lanes for FCFS and Split).
fn gateway(spec: &TenantSpec) -> TenantReport {
    IngestGateway::new(WorkerPool::serial())
        .run(vec![spec.clone()])
        .remove(0)
}

/// The old lane of a drain over `plan`: on the inbox lanes when `traced`
/// is false, on `ShedScheduler` over the simulation core when it is true.
fn drained(spec: &TenantSpec, plan: DrainPlan, traced: bool) -> TenantReport {
    let trace = if traced {
        TraceHandle::memory().0
    } else {
        TraceHandle::disabled()
    };
    drain_migrate(spec, plan, 0, 0, 1, &trace).old
}

/// A drain that starts after every arrival: the inbox never drains, so
/// the traced old lane is the whole lane on the simulation core.
fn after_the_last(spec: &TenantSpec) -> DrainPlan {
    let last = spec.workload.last_arrival().unwrap_or(SimTime::ZERO);
    DrainPlan::new(
        last + SimDuration::from_nanos(1),
        SimDuration::from_nanos(1),
    )
}

/// Gaps in units: a third zero (a burst), mostly short, sometimes long
/// enough to empty every queue.
fn gap() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 0u64..14, 0u64..400]
}

/// Inbox bounds from 1 to unreachable.
fn bound() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=4, 1usize..=4, 5usize..=40, Just(usize::MAX)]
}

/// No drain, or one from the arrival at an index (taken modulo the
/// lane's length) plus 0–2 units, lasting 1–199 units.
fn drain() -> impl Strategy<Value = Option<(usize, u64, u64)>> {
    prop_oneof![Just(None), (0usize..160, 0u64..3, 1u64..200).prop_map(Some)]
}

/// Chunks from 1 request to the whole lane.
fn chunk() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), 2usize..50, Just(usize::MAX)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn inbox_lanes_match_the_shed_scheduler_core(
        split in any::<bool>(),
        unit in prop_oneof![Just(1u64), Just(1_000), Just(1_000_000)],
        units in (1u64..6, 1u64..12),
        slots in 1u64..6,
        gaps in prop::collection::vec(gap(), 1..160),
        inbox_bound in bound(),
        chunk in chunk(),
        drain in drain(),
    ) {
        let policy = if split { RecombinePolicy::Split } else { RecombinePolicy::Fcfs };
        let w = arrivals(&gaps, unit);
        let spec = spec(policy, unit, units, slots, w, inbox_bound, chunk);
        let case = format!("{policy}, bound {inbox_bound}, chunk {}", spec.chunk);

        // No drain: the gateway's lane, and the same lane on the core.
        let lanes = gateway(&spec);
        let core = drained(&spec, after_the_last(&spec), true);
        prop_assert_eq!(&lanes, &core, "{}", case);
        prop_assert_eq!(lanes.completed, lanes.offered, "{}", case);

        // A drain from an arrival instant, or one unit after it.
        if let Some((at, offset, window)) = drain {
            let arrival = spec.workload.requests()[at % spec.workload.len()].arrival;
            let plan = DrainPlan::new(
                arrival + SimDuration::from_nanos(offset * unit),
                SimDuration::from_nanos(window * unit),
            );
            let lanes = drained(&spec, plan, false);
            let core = drained(&spec, plan, true);
            prop_assert_eq!(&lanes, &core, "{}, drain {:?}", case, plan);
        }
    }
}

/// The trap the RTT test on lane 0 must avoid: a shed request in service
/// there is not a primary, because the core's `RttClassifier` never sees
/// it. s₀ = 10 ms, s₁ = 5 ms, maxQ1 = 1, inbox 1.
#[test]
fn a_shed_request_on_the_primary_lane_is_not_a_primary() {
    let ms = SimTime::from_millis;
    // At 0: request 0 takes lane 0, RTT diverts 1 and 2 to lane 1 (one
    // queued), and 3 finds the inbox full. At 10 both lanes free; lane 0
    // takes 3 as the lower. At 12, 3 has 8 ms left on lane 0: RTT must
    // count no primary there and queue 4 behind it, not divert it to the
    // idle lane 1. Then 4 fills the inbox, and 5 is shed to lane 1.
    let w = Workload::from_arrivals([ms(0), ms(0), ms(0), ms(0), ms(12), ms(12)]);
    let spec = spec(
        RecombinePolicy::Split,
        1_000_000,
        (10, 5),
        1,
        w,
        1,
        usize::MAX,
    );
    let lanes = gateway(&spec);
    let core = drained(&spec, after_the_last(&spec), true);
    assert_eq!(lanes, core);
    let got: Vec<_> = lanes
        .records
        .iter()
        .map(|r| (r.id.index(), r.class, r.dispatched, r.completion))
        .collect();
    let (primary, overflow) = (ServiceClass::PRIMARY, ServiceClass::OVERFLOW);
    assert_eq!(lanes.shed, 2);
    assert_eq!(
        got,
        vec![
            (1, overflow, ms(0), ms(5)),
            (0, primary, ms(0), ms(10)),
            (2, overflow, ms(5), ms(10)),
            (5, overflow, ms(12), ms(17)),
            (3, overflow, ms(10), ms(20)),
            (4, primary, ms(20), ms(30)),
        ]
    );
}
