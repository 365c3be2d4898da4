//! Closed-loop simulation: a fixed population of clients with think time.
//!
//! The trace-driven engine in [`Simulation`](crate::Simulation) replays an
//! *open* arrival stream — arrivals do not react to service. Real storage
//! benchmarks (and many applications) are *closed*: each of `N` clients
//! keeps one request outstanding, thinking for a while between completion
//! and the next issue. Closed loops self-throttle — response times feed
//! back into the arrival rate — which is exactly the behaviour open-loop
//! QoS analysis must not assume it has (the paper's arrival streams are
//! open; this driver exists to study the difference).

use gqos_trace::{Request, RequestId, SimDuration, SimTime};

use crate::event::{Event, EventKind, EventQueue};
use crate::metrics::{CompletionRecord, RunReport};
use crate::scheduler::{Dispatch, Scheduler, ServiceClass};
use crate::server::{ServerId, ServiceModel};

/// Configuration of a closed-loop run.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ClosedLoopConfig {
    /// Number of clients, each with at most one request outstanding.
    pub clients: usize,
    /// Pause between a client's completion and its next issue.
    pub think_time: SimDuration,
    /// Clients stop issuing at this instant (outstanding requests finish).
    pub duration: SimDuration,
}

impl ClosedLoopConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is zero or `duration` is zero.
    pub fn new(clients: usize, think_time: SimDuration, duration: SimDuration) -> Self {
        assert!(clients > 0, "at least one client is required");
        assert!(!duration.is_zero(), "duration must be positive");
        ClosedLoopConfig {
            clients,
            think_time,
            duration,
        }
    }
}

/// Runs a closed loop: `factory(client, issue_time)` materialises each
/// request (its `id` and `arrival` are overwritten by the driver).
///
/// Horizon accounting: clients issue strictly before `config.duration`
/// (an arrival at exactly the horizon retires), outstanding requests
/// run to completion, and the report's `end_time` is the instant of the
/// last completion — so `completed / end_time` is a true throughput
/// over the span work actually occupied.
///
/// # Panics
///
/// Panics if the scheduler requests a retry at a non-future instant
/// (same contract as [`Simulation`](crate::Simulation)).
///
/// # Examples
///
/// ```
/// use gqos_sim::{closed_loop, ClosedLoopConfig, FcfsScheduler, FixedRateServer};
/// use gqos_trace::{Iops, Request, SimDuration};
///
/// // 4 clients, 10 ms service, 90 ms think: each cycle is ~100 ms, so the
/// // loop self-throttles to ~40 IOPS on a 100 IOPS server.
/// let config = ClosedLoopConfig::new(
///     4,
///     SimDuration::from_millis(90),
///     SimDuration::from_secs(10),
/// );
/// let report = closed_loop(
///     config,
///     FcfsScheduler::new(),
///     FixedRateServer::new(Iops::new(100.0)),
///     |_, t| Request::at(t),
/// );
/// let rate = report.completed() as f64 / 10.0;
/// assert!((rate - 40.0).abs() < 5.0, "rate {rate}");
/// ```
pub fn closed_loop<S, M, F>(
    config: ClosedLoopConfig,
    mut scheduler: S,
    model: M,
    mut factory: F,
) -> RunReport
where
    S: Scheduler,
    M: ServiceModel + 'static,
    F: FnMut(usize, SimTime) -> Request,
{
    let mut servers: Vec<Box<dyn ServiceModel>> = vec![Box::new(model)];
    let mut queue = EventQueue::new();
    let mut in_flight: Vec<Option<(Request, ServiceClass, SimTime)>> = vec![None];
    let mut records: Vec<CompletionRecord> = Vec::new();
    // Which client issued each request, indexed by request id.
    let mut owners: Vec<usize> = Vec::new();
    let mut issued = 0u64;
    let mut end_time = SimTime::ZERO;
    let horizon = SimTime::ZERO + config.duration;

    for client in 0..config.clients {
        queue.push(Event {
            at: SimTime::ZERO,
            kind: EventKind::Arrival { index: client },
        });
    }

    // Horizon convention (pinned by `horizon_accounting_*` tests): clients
    // issue strictly before `horizon` — an arrival at exactly `horizon`
    // retires — and `end_time` is the instant of the **last completion**.
    // Retiring arrivals (scheduled think-time after the final completion)
    // and stale retries are bookkeeping events, not work: letting them
    // stretch `end_time` would divide horizon-bounded completions by a
    // span no request ever occupied, deflating every derived throughput.
    while let Some(Event { at: now, kind }) = queue.pop() {
        match kind {
            EventKind::Arrival { index: client } => {
                if now >= horizon {
                    continue; // this client retires
                }
                let request = factory(client, now)
                    .with_id(RequestId::new(issued))
                    .with_arrival(now);
                owners.push(client);
                issued += 1;
                scheduler.on_arrival(request, now);
                for server in 0..servers.len() {
                    if in_flight[server].is_none() {
                        poll(
                            &mut scheduler,
                            &mut servers,
                            &mut in_flight,
                            &mut queue,
                            server,
                            now,
                        );
                    }
                }
            }
            EventKind::Completion { server } => {
                end_time = end_time.max(now);
                let (request, class, dispatched) = in_flight[server]
                    .take()
                    .expect("completion event for idle server");
                records.push(CompletionRecord {
                    id: request.id,
                    class,
                    arrival: request.arrival,
                    dispatched,
                    completion: now,
                });
                scheduler.on_completion(&request, class, now);
                // The owning client thinks, then issues again; a think that
                // runs past the end of the clock retires the client.
                let client = owners[request.id.as_usize()];
                queue.push(Event {
                    at: now.checked_add(config.think_time).unwrap_or(SimTime::MAX),
                    kind: EventKind::Arrival { index: client },
                });
                poll(
                    &mut scheduler,
                    &mut servers,
                    &mut in_flight,
                    &mut queue,
                    server,
                    now,
                );
            }
            EventKind::Retry { server } => {
                if in_flight[server].is_none() {
                    poll(
                        &mut scheduler,
                        &mut servers,
                        &mut in_flight,
                        &mut queue,
                        server,
                        now,
                    );
                }
            }
        }
    }

    RunReport::new(records, issued as usize, end_time)
}

fn poll<S: Scheduler>(
    scheduler: &mut S,
    servers: &mut [Box<dyn ServiceModel>],
    in_flight: &mut [Option<(Request, ServiceClass, SimTime)>],
    queue: &mut EventQueue,
    server: usize,
    now: SimTime,
) {
    match scheduler.next_for(ServerId::new(server), now) {
        Dispatch::Serve(request, class) => {
            let service = servers[server]
                .service_time(&request, now)
                .max(SimDuration::from_nanos(1));
            in_flight[server] = Some((request, class, now));
            queue.push(Event {
                at: now
                    .checked_add(service)
                    .expect("completion instant overflows the simulation clock"),
                kind: EventKind::Completion { server },
            });
        }
        Dispatch::After(when) => {
            assert!(when > now, "retry at {when} is not after {now}");
            queue.push(Event {
                at: when,
                kind: EventKind::Retry { server },
            });
        }
        Dispatch::Idle => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FcfsScheduler;
    use crate::server::FixedRateServer;
    use gqos_trace::Iops;

    fn dms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn single_client_alternates_service_and_think() {
        // Service 10 ms + think 40 ms = 50 ms per cycle over 1 s -> 20 ops.
        let report = closed_loop(
            ClosedLoopConfig::new(1, dms(40), SimDuration::from_secs(1)),
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(100.0)),
            |_, t| Request::at(t),
        );
        assert_eq!(report.completed(), 20);
        for r in report.records() {
            assert_eq!(r.response_time(), dms(10));
        }
    }

    #[test]
    fn a_think_past_the_clock_retires_the_client() {
        let report = closed_loop(
            ClosedLoopConfig::new(1, SimDuration::MAX, SimDuration::from_secs(1)),
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(100.0)),
            |_, t| Request::at(t),
        );
        assert_eq!(report.completed(), 1);
        assert_eq!(report.end_time(), SimTime::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "completion instant overflows the simulation clock")]
    fn a_completion_past_the_clock_is_an_error() {
        // 10^10 s of service each: the second request would complete at
        // 2·10^19 ns, past the end of the 64-bit clock.
        let _ = closed_loop(
            ClosedLoopConfig::new(2, SimDuration::ZERO, SimDuration::from_secs(1)),
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(1e-10)),
            |_, t| Request::at(t),
        );
    }

    #[test]
    fn population_scales_offered_load_until_saturation() {
        // Service 10 ms, zero think, one server: the device saturates at
        // 100 IOPS no matter how many clients queue.
        let few = closed_loop(
            ClosedLoopConfig::new(1, SimDuration::ZERO, SimDuration::from_secs(2)),
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(100.0)),
            |_, t| Request::at(t),
        );
        let many = closed_loop(
            ClosedLoopConfig::new(16, SimDuration::ZERO, SimDuration::from_secs(2)),
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(100.0)),
            |_, t| Request::at(t),
        );
        // Measure over the actual end time: the queued backlog drains past
        // the issue horizon.
        let rate = |r: &RunReport| r.completed() as f64 / r.end_time().as_secs_f64();
        assert!((rate(&few) - 100.0).abs() < 5.0, "few {}", rate(&few));
        assert!((rate(&many) - 100.0).abs() < 5.0, "many {}", rate(&many));
        // But response times stretch with the queue depth (Little's law).
        let rt_many = many.stats().mean().unwrap();
        assert!((rt_many.as_millis_f64() - 160.0).abs() < 15.0, "{rt_many}");
    }

    #[test]
    fn closed_loop_self_throttles_where_open_loop_overloads() {
        // The defining difference: a closed population cannot overload the
        // server — throughput caps at capacity and the backlog stays at the
        // population size.
        let report = closed_loop(
            ClosedLoopConfig::new(8, SimDuration::ZERO, SimDuration::from_secs(1)),
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(50.0)),
            |_, t| Request::at(t),
        );
        let max_rt = report.stats().max().unwrap();
        // Worst case: wait behind 7 others + own service = 160 ms.
        assert!(max_rt <= dms(161), "max {max_rt}");
    }

    #[test]
    fn issues_stop_at_the_horizon_but_outstanding_work_completes() {
        let report = closed_loop(
            ClosedLoopConfig::new(4, dms(5), SimDuration::from_millis(100)),
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(50.0)), // 20 ms service
            |_, t| Request::at(t),
        );
        assert_eq!(report.completed(), report.total_requests());
        // No arrival at or past the horizon.
        for r in report.records() {
            assert!(r.arrival < SimTime::from_millis(100));
        }
        // The last outstanding request may finish after the horizon.
        assert!(report.end_time() >= SimTime::from_millis(100));
    }

    #[test]
    fn horizon_accounting_end_time_is_the_last_completion() {
        // Regression: `end_time` used to advance on *every* event,
        // including the retiring think-time arrival scheduled after the
        // final completion. One client, 10 ms service, 10 s think, 50 ms
        // horizon: the only request completes at 10 ms, the client's next
        // arrival at 10.01 s retires. The measured span is 10 ms — the
        // pre-fix code reported ~10.01 s, deflating throughput 1000x.
        let report = closed_loop(
            ClosedLoopConfig::new(1, SimDuration::from_secs(10), dms(50)),
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(100.0)),
            |_, t| Request::at(t),
        );
        assert_eq!(report.completed(), 1);
        assert_eq!(report.end_time(), SimTime::from_millis(10));
    }

    #[test]
    fn horizon_accounting_arrival_exactly_at_horizon_retires() {
        // The issue side of the pinned convention: issues happen strictly
        // before `horizon`. Service 10 ms + think 40 ms puts the third
        // arrival at exactly t=100 ms — it retires, and the span ends at
        // the second completion (t=60 ms).
        let report = closed_loop(
            ClosedLoopConfig::new(1, dms(40), dms(100)),
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(100.0)),
            |_, t| Request::at(t),
        );
        assert_eq!(report.completed(), 2);
        for r in report.records() {
            assert!(r.arrival < SimTime::from_millis(100));
        }
        assert_eq!(report.end_time(), SimTime::from_millis(60));
    }

    #[test]
    fn factory_controls_request_contents() {
        let report = closed_loop(
            ClosedLoopConfig::new(2, dms(10), SimDuration::from_millis(200)),
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(1000.0)),
            |client, t| Request::at(t).with_block(gqos_trace::LogicalBlock::new(client as u64)),
        );
        assert!(report.completed() > 10);
    }

    #[test]
    fn deterministic() {
        let run = || {
            closed_loop(
                ClosedLoopConfig::new(3, dms(7), SimDuration::from_secs(1)),
                FcfsScheduler::new(),
                FixedRateServer::new(Iops::new(333.0)),
                |_, t| Request::at(t),
            )
        };
        assert_eq!(run().records(), run().records());
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        let _ = ClosedLoopConfig::new(0, SimDuration::ZERO, SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_rejected() {
        let _ = ClosedLoopConfig::new(1, SimDuration::ZERO, SimDuration::ZERO);
    }
}
