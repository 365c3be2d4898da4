//! Trace replay: reconstructing per-request lifecycles from a raw event
//! stream and re-deriving aggregate metrics from them.
//!
//! This is the audit path: the simulator's `RunReport` computes miss
//! fractions from its own completion records, and [`ReplayedRun`] recomputes
//! the same quantities *independently* from the trace. The conformance tests
//! assert the two agree, which catches double-count and off-by-one
//! accounting bugs in either pipeline.

use std::collections::HashMap;

use gqos_trace::{SimDuration, SimTime};

use crate::event::{EventCounts, TraceEvent};
use crate::sketch::LatencySketch;

/// The lifecycle of one request, rebuilt from trace events.
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct RequestLifecycle {
    /// Arrival instant, if an `Arrival` event was seen.
    pub arrival: Option<SimTime>,
    /// `Some(true)` if admitted to Q1, `Some(false)` if diverted to Q2.
    pub admitted: Option<bool>,
    /// Q1 depth reported by the admit/divert event.
    pub queue_depth: Option<u64>,
    /// Dispatch instant and serving class, if dispatched.
    pub dispatched: Option<(SimTime, u8)>,
    /// Completion instant, class, and response time, if completed.
    pub completed: Option<(SimTime, u8, SimDuration)>,
}

/// A run reconstructed from trace events.
#[derive(Clone, Debug, Default)]
pub struct ReplayedRun {
    lifecycles: HashMap<u64, RequestLifecycle>,
    counts: EventCounts,
    drain_log: Vec<DrainRecord>,
}

/// One drain-and-migrate handoff reconstructed from trace events.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct DrainRecord {
    /// The draining tenant.
    pub tenant: u64,
    /// When the handoff window opened, if a `DrainStarted` was seen.
    pub started: Option<(SimTime, usize)>,
    /// When the drain accounting closed, with its shed/migrated totals,
    /// if a `DrainCompleted` was seen.
    pub completed: Option<(SimTime, u64, u64)>,
    /// `Migrated` events observed for the tenant.
    pub migrated_seen: u64,
}

impl ReplayedRun {
    /// Rebuilds per-request lifecycles from an event stream.
    ///
    /// Later events win on conflict (a truncated trace keeps the most
    /// recent view of each request); the caller should check
    /// [`EventCounts`] when completeness matters.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut run = ReplayedRun {
            counts: EventCounts::tally(events),
            ..ReplayedRun::default()
        };
        for &event in events {
            match event {
                TraceEvent::Arrival { at, id } => {
                    run.entry(id).arrival = Some(at);
                }
                TraceEvent::Admitted {
                    id, queue_depth, ..
                } => {
                    let life = run.entry(id);
                    life.admitted = Some(true);
                    life.queue_depth = Some(queue_depth);
                }
                TraceEvent::Diverted {
                    id, queue_depth, ..
                } => {
                    let life = run.entry(id);
                    life.admitted = Some(false);
                    life.queue_depth = Some(queue_depth);
                }
                TraceEvent::Dispatched { at, id, class, .. } => {
                    run.entry(id).dispatched = Some((at, class));
                }
                TraceEvent::Completed {
                    at,
                    id,
                    class,
                    response,
                    ..
                } => {
                    run.entry(id).completed = Some((at, class, response));
                }
                TraceEvent::DegradationChanged { .. } => {}
                TraceEvent::DrainStarted {
                    at,
                    tenant,
                    from_server,
                } => {
                    run.drain_entry(tenant).started = Some((at, from_server));
                }
                TraceEvent::Migrated { tenant, .. } => {
                    run.drain_entry(tenant).migrated_seen += 1;
                }
                TraceEvent::DrainCompleted {
                    at,
                    tenant,
                    shed,
                    migrated,
                } => {
                    run.drain_entry(tenant).completed = Some((at, shed, migrated));
                }
            }
        }
        run
    }

    fn drain_entry(&mut self, tenant: u64) -> &mut DrainRecord {
        if let Some(at) = self.drain_log.iter().position(|d| d.tenant == tenant) {
            return &mut self.drain_log[at];
        }
        self.drain_log.push(DrainRecord {
            tenant,
            started: None,
            completed: None,
            migrated_seen: 0,
        });
        self.drain_log.last_mut().expect("just pushed")
    }

    fn entry(&mut self, id: u64) -> &mut RequestLifecycle {
        self.lifecycles.entry(id).or_default()
    }

    /// Per-kind event totals over the replayed stream.
    pub fn counts(&self) -> EventCounts {
        self.counts
    }

    /// Number of distinct requests seen in the trace.
    pub fn requests_seen(&self) -> usize {
        self.lifecycles.len()
    }

    /// Number of requests whose trace shows a completion in `class`.
    pub fn completed_in(&self, class: u8) -> usize {
        self.lifecycles
            .values()
            .filter(|l| matches!(l.completed, Some((_, c, _)) if c == class))
            .count()
    }

    /// Number of completions in `class` whose replayed response time exceeds
    /// `deadline` — the same strict-inequality convention as
    /// `gqos_sim::RunReport::miss_count`.
    pub fn miss_count(&self, class: u8, deadline: SimDuration) -> usize {
        self.lifecycles
            .values()
            .filter(|l| matches!(l.completed, Some((_, c, resp)) if c == class && resp > deadline))
            .count()
    }

    /// Fraction of `class` completions missing `deadline` (0.0 when the
    /// class has no completions), re-derived purely from trace events.
    pub fn miss_fraction(&self, class: u8, deadline: SimDuration) -> f64 {
        let total = self.completed_in(class);
        if total == 0 {
            0.0
        } else {
            self.miss_count(class, deadline) as f64 / total as f64
        }
    }

    /// A latency sketch over the replayed response times of `class`.
    pub fn response_sketch(&self, class: u8) -> LatencySketch {
        let mut sketch = LatencySketch::new();
        for life in self.lifecycles.values() {
            if let Some((_, c, resp)) = life.completed {
                if c == class {
                    sketch.record(resp.as_nanos());
                }
            }
        }
        sketch
    }

    /// Requests that were admitted/diverted but never completed.
    pub fn unfinished(&self) -> usize {
        self.lifecycles
            .values()
            .filter(|l| l.completed.is_none())
            .count()
    }

    /// Structural sanity checks on a complete (undropped) trace; returns a
    /// list of human-readable violations, empty when the trace is coherent.
    ///
    /// Checks per request: a completion implies a dispatch, a dispatch
    /// implies an arrival, dispatch class equals completion class, and
    /// timestamps are monotone (arrival ≤ dispatch ≤ completion).
    pub fn audit(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let mut ids: Vec<&u64> = self.lifecycles.keys().collect();
        ids.sort_unstable();
        for &id in ids {
            let l = &self.lifecycles[&id];
            if let Some((done_at, done_class, resp)) = l.completed {
                match l.dispatched {
                    None => {
                        violations.push(format!("request {id}: completed but never dispatched"))
                    }
                    Some((disp_at, disp_class)) => {
                        if disp_class != done_class {
                            violations.push(format!(
                                "request {id}: dispatched as class {disp_class} \
                                 but completed as class {done_class}"
                            ));
                        }
                        if disp_at > done_at {
                            violations.push(format!(
                                "request {id}: dispatch at {disp_at} after completion at {done_at}"
                            ));
                        }
                    }
                }
                if let Some(arr) = l.arrival {
                    if arr > done_at {
                        violations.push(format!(
                            "request {id}: arrival at {arr} after completion at {done_at}"
                        ));
                    } else if done_at - arr != resp {
                        violations.push(format!(
                            "request {id}: reported response {resp} != completion - arrival"
                        ));
                    }
                }
            }
            if l.dispatched.is_some() && l.arrival.is_none() {
                violations.push(format!("request {id}: dispatched but never arrived"));
            }
            if let (Some(arr), Some((disp_at, _))) = (l.arrival, l.dispatched) {
                if arr > disp_at {
                    violations.push(format!(
                        "request {id}: arrival at {arr} after dispatch at {disp_at}"
                    ));
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PolicyTag;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn full_lifecycle(
        id: u64,
        arr_ms: u64,
        disp_ms: u64,
        done_ms: u64,
        class: u8,
    ) -> Vec<TraceEvent> {
        vec![
            TraceEvent::Arrival { at: ms(arr_ms), id },
            if class == 0 {
                TraceEvent::Admitted {
                    at: ms(arr_ms),
                    id,
                    queue_depth: 1,
                }
            } else {
                TraceEvent::Diverted {
                    at: ms(arr_ms),
                    id,
                    queue_depth: 4,
                }
            },
            TraceEvent::Dispatched {
                at: ms(disp_ms),
                id,
                class,
                server: 0,
                policy: PolicyTag::Miser,
                slack: None,
            },
            TraceEvent::Completed {
                at: ms(done_ms),
                id,
                class,
                response: SimDuration::from_millis(done_ms - arr_ms),
                deadline_met: None,
            },
        ]
    }

    #[test]
    fn rebuilds_lifecycles_and_misses() {
        let mut events = Vec::new();
        events.extend(full_lifecycle(0, 0, 1, 5, 0)); // 5 ms response, Q1
        events.extend(full_lifecycle(1, 2, 8, 40, 0)); // 38 ms response, Q1
        events.extend(full_lifecycle(2, 3, 50, 200, 1)); // 197 ms response, Q2
        let run = ReplayedRun::from_events(&events);

        assert_eq!(run.requests_seen(), 3);
        assert_eq!(run.completed_in(0), 2);
        assert_eq!(run.completed_in(1), 1);
        let d = SimDuration::from_millis(20);
        assert_eq!(run.miss_count(0, d), 1);
        assert!((run.miss_fraction(0, d) - 0.5).abs() < 1e-12);
        assert_eq!(run.miss_fraction(2, d), 0.0);
        assert!(run.audit().is_empty(), "{:?}", run.audit());

        let life = &run.lifecycles[&1];
        assert_eq!(life.admitted, Some(true));
        assert_eq!(life.dispatched, Some((ms(8), 0)));
        let sketch = run.response_sketch(0);
        assert_eq!(sketch.count(), 2);
        assert_eq!(sketch.max(), SimDuration::from_millis(38).as_nanos());
    }

    #[test]
    fn miss_is_strictly_greater_than_deadline() {
        // Exactly-on-deadline must NOT count as a miss (matches RunReport).
        let events = full_lifecycle(0, 0, 0, 20, 0);
        let run = ReplayedRun::from_events(&events);
        assert_eq!(run.miss_count(0, SimDuration::from_millis(20)), 0);
        assert_eq!(run.miss_count(0, SimDuration::from_millis(19)), 1);
    }

    #[test]
    fn audit_flags_incoherent_traces() {
        // Completion without a dispatch.
        let run = ReplayedRun::from_events(&[TraceEvent::Completed {
            at: ms(5),
            id: 9,
            class: 0,
            response: SimDuration::from_millis(5),
            deadline_met: None,
        }]);
        let violations = run.audit();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("never dispatched"));

        // Class mismatch between dispatch and completion.
        let run = ReplayedRun::from_events(&[
            TraceEvent::Arrival { at: ms(0), id: 1 },
            TraceEvent::Dispatched {
                at: ms(1),
                id: 1,
                class: 0,
                server: 0,
                policy: PolicyTag::Fcfs,
                slack: None,
            },
            TraceEvent::Completed {
                at: ms(2),
                id: 1,
                class: 1,
                response: SimDuration::from_millis(2),
                deadline_met: None,
            },
        ]);
        assert!(run.audit().iter().any(|v| v.contains("class")));
    }

    #[test]
    fn drain_records_are_reconstructed_per_tenant() {
        let events = [
            TraceEvent::DrainStarted {
                at: ms(1),
                tenant: 7,
                from_server: 0,
            },
            TraceEvent::Migrated {
                at: ms(2),
                id: 10,
                tenant: 7,
                to_server: 3,
            },
            TraceEvent::Migrated {
                at: ms(3),
                id: 11,
                tenant: 7,
                to_server: 3,
            },
            TraceEvent::DrainCompleted {
                at: ms(4),
                tenant: 7,
                shed: 1,
                migrated: 2,
            },
            TraceEvent::DrainStarted {
                at: ms(5),
                tenant: 9,
                from_server: 2,
            },
        ];
        let run = ReplayedRun::from_events(&events);
        let drains = &run.drain_log;
        assert_eq!(drains.len(), 2);
        assert_eq!(drains[0].tenant, 7);
        assert_eq!(drains[0].started, Some((ms(1), 0)));
        assert_eq!(drains[0].completed, Some((ms(4), 1, 2)));
        assert_eq!(drains[0].migrated_seen, 2);
        assert_eq!(drains[1].tenant, 9);
        assert_eq!(drains[1].completed, None);
        assert_eq!(run.counts().drains_started, 2);
        assert_eq!(run.counts().migrated, 2);
        assert_eq!(run.counts().drains_completed, 1);
    }

    #[test]
    fn degradation_changes_and_unfinished() {
        let mut events = full_lifecycle(0, 0, 1, 2, 0);
        events.push(TraceEvent::Arrival { at: ms(3), id: 1 }); // never completes
        events.push(TraceEvent::DegradationChanged {
            at: ms(4),
            from_factor: 1.0,
            to_factor: 0.75,
        });
        let run = ReplayedRun::from_events(&events);
        assert_eq!(run.unfinished(), 1);
        assert_eq!(run.counts().degradation_changes, 1);
        assert_eq!(run.counts().arrivals, 2);
    }
}
