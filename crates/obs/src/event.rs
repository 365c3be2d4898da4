//! The typed, fixed-size trace events the instrumented layers emit.
//!
//! Events are `Copy` and carry no heap data, so building one never
//! allocates: recording into a [`MemorySink`](crate::MemorySink) is a
//! `Vec` push, and the disabled path (a [`TraceHandle`](crate::TraceHandle)
//! holding no sink) is a single branch.

use std::fmt;

use gqos_trace::{SimDuration, SimTime};

/// Which recombination policy emitted a scheduler-level event.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum PolicyTag {
    /// The unshaped FCFS baseline.
    Fcfs,
    /// Dedicated servers per class.
    Split,
    /// Proportional sharing on one server.
    FairQueue,
    /// Slack-stealing on one server.
    Miser,
    /// Any scheduler outside the paper's four policies.
    Other,
}

impl PolicyTag {
    /// Stable lowercase name used in JSONL output.
    pub const fn as_str(self) -> &'static str {
        match self {
            PolicyTag::Fcfs => "fcfs",
            PolicyTag::Split => "split",
            PolicyTag::FairQueue => "fairqueue",
            PolicyTag::Miser => "miser",
            PolicyTag::Other => "other",
        }
    }
}

impl fmt::Display for PolicyTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured event in a run's trace.
///
/// `id` is the request's index within its workload
/// ([`RequestId::index`](gqos_trace::RequestId::index)); `class` is the
/// service-class index (`0` = primary/Q1, `1` = overflow/Q2).
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum TraceEvent {
    /// A request arrived at the scheduler.
    Arrival {
        /// Arrival instant.
        at: SimTime,
        /// Request index within the workload.
        id: u64,
    },
    /// RTT admission: the request joined the primary class (Q1).
    Admitted {
        /// Classification instant.
        at: SimTime,
        /// Request index within the workload.
        id: u64,
        /// Pending Q1 requests *after* this admission (`lenQ1`).
        queue_depth: u64,
    },
    /// RTT diversion: Q1 was full, the request fell to overflow (Q2).
    Diverted {
        /// Classification instant.
        at: SimTime,
        /// Request index within the workload.
        id: u64,
        /// Pending Q1 requests at the instant of diversion (`maxQ1`-full).
        queue_depth: u64,
    },
    /// A scheduler handed the request to a server.
    Dispatched {
        /// Dispatch instant.
        at: SimTime,
        /// Request index within the workload.
        id: u64,
        /// Service-class index the request is served under.
        class: u8,
        /// Server index receiving the request.
        server: usize,
        /// The recombination policy that made the decision.
        policy: PolicyTag,
        /// Miser's minimum primary slack at dispatch; `None` for policies
        /// without a slack notion (or an empty primary queue).
        slack: Option<u64>,
    },
    /// Service finished.
    Completed {
        /// Completion instant.
        at: SimTime,
        /// Request index within the workload.
        id: u64,
        /// Service-class index the request completed under.
        class: u8,
        /// Response time (completion − arrival).
        response: SimDuration,
        /// Deadline verdict: `Some(true)` when the response met the run's
        /// configured deadline, `None` when no deadline was configured.
        deadline_met: Option<bool>,
    },
    /// The degradation controller moved to a new rung.
    DegradationChanged {
        /// Instant of the renegotiation.
        at: SimTime,
        /// The capacity fraction in force before the change.
        from_factor: f64,
        /// The newly negotiated capacity fraction.
        to_factor: f64,
    },
    /// A tenant's drain-and-migrate handoff window opened: new arrivals
    /// shed to overflow on the old server until the window closes.
    DrainStarted {
        /// Instant the handoff window opens.
        at: SimTime,
        /// The draining tenant.
        tenant: u64,
        /// Server index being vacated.
        from_server: usize,
    },
    /// A post-handoff arrival was re-admitted on the drain target server.
    Migrated {
        /// Arrival instant on the target.
        at: SimTime,
        /// Request index within the migrated tail.
        id: u64,
        /// The draining tenant.
        tenant: u64,
        /// Server index now hosting the tenant.
        to_server: usize,
    },
    /// A tenant's drain completed: every request was either finished on
    /// the old server (in-flight and window arrivals, the latter at
    /// overflow class) or re-admitted on the target — none dropped.
    DrainCompleted {
        /// Instant the drain accounting closed.
        at: SimTime,
        /// The drained tenant.
        tenant: u64,
        /// Window arrivals demoted to overflow on the old server.
        shed: u64,
        /// Arrivals re-admitted on the target server.
        migrated: u64,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::Arrival { at, .. }
            | TraceEvent::Admitted { at, .. }
            | TraceEvent::Diverted { at, .. }
            | TraceEvent::Dispatched { at, .. }
            | TraceEvent::Completed { at, .. }
            | TraceEvent::DegradationChanged { at, .. }
            | TraceEvent::DrainStarted { at, .. }
            | TraceEvent::Migrated { at, .. }
            | TraceEvent::DrainCompleted { at, .. } => at,
        }
    }

    /// Stable lowercase kind name used in JSONL output and event counts.
    pub const fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Arrival { .. } => "arrival",
            TraceEvent::Admitted { .. } => "admitted",
            TraceEvent::Diverted { .. } => "diverted",
            TraceEvent::Dispatched { .. } => "dispatched",
            TraceEvent::Completed { .. } => "completed",
            TraceEvent::DegradationChanged { .. } => "degradation",
            TraceEvent::DrainStarted { .. } => "drain_started",
            TraceEvent::Migrated { .. } => "migrated",
            TraceEvent::DrainCompleted { .. } => "drain_completed",
        }
    }

    /// Appends the event as one JSON line (no trailing newline) to `out`.
    ///
    /// The schema is flat and self-describing:
    /// `{"event":"<kind>","t_ns":<u64>,...}` — see DESIGN.md §11.
    pub fn write_jsonl(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = match *self {
            TraceEvent::Arrival { at, id } => {
                write!(
                    out,
                    "{{\"event\":\"arrival\",\"t_ns\":{},\"id\":{}}}",
                    at.as_nanos(),
                    id
                )
            }
            TraceEvent::Admitted {
                at,
                id,
                queue_depth,
            } => write!(
                out,
                "{{\"event\":\"admitted\",\"t_ns\":{},\"id\":{},\"q1_depth\":{}}}",
                at.as_nanos(),
                id,
                queue_depth
            ),
            TraceEvent::Diverted {
                at,
                id,
                queue_depth,
            } => write!(
                out,
                "{{\"event\":\"diverted\",\"t_ns\":{},\"id\":{},\"q1_depth\":{}}}",
                at.as_nanos(),
                id,
                queue_depth
            ),
            TraceEvent::Dispatched {
                at,
                id,
                class,
                server,
                policy,
                slack,
            } => {
                let r = write!(
                    out,
                    "{{\"event\":\"dispatched\",\"t_ns\":{},\"id\":{},\"class\":{},\
                     \"server\":{},\"policy\":\"{}\"",
                    at.as_nanos(),
                    id,
                    class,
                    server,
                    policy.as_str()
                );
                if let Some(s) = slack {
                    let _ = write!(out, ",\"slack\":{s}");
                }
                out.push('}');
                r
            }
            TraceEvent::Completed {
                at,
                id,
                class,
                response,
                deadline_met,
            } => {
                let r = write!(
                    out,
                    "{{\"event\":\"completed\",\"t_ns\":{},\"id\":{},\"class\":{},\
                     \"response_ns\":{}",
                    at.as_nanos(),
                    id,
                    class,
                    response.as_nanos()
                );
                if let Some(met) = deadline_met {
                    let _ = write!(out, ",\"deadline_met\":{met}");
                }
                out.push('}');
                r
            }
            TraceEvent::DegradationChanged {
                at,
                from_factor,
                to_factor,
            } => write!(
                out,
                "{{\"event\":\"degradation\",\"t_ns\":{},\"from\":{from_factor},\
                 \"to\":{to_factor}}}",
                at.as_nanos()
            ),
            TraceEvent::DrainStarted {
                at,
                tenant,
                from_server,
            } => write!(
                out,
                "{{\"event\":\"drain_started\",\"t_ns\":{},\"tenant\":{},\
                 \"from_server\":{}}}",
                at.as_nanos(),
                tenant,
                from_server
            ),
            TraceEvent::Migrated {
                at,
                id,
                tenant,
                to_server,
            } => write!(
                out,
                "{{\"event\":\"migrated\",\"t_ns\":{},\"id\":{},\"tenant\":{},\
                 \"to_server\":{}}}",
                at.as_nanos(),
                id,
                tenant,
                to_server
            ),
            TraceEvent::DrainCompleted {
                at,
                tenant,
                shed,
                migrated,
            } => write!(
                out,
                "{{\"event\":\"drain_completed\",\"t_ns\":{},\"tenant\":{},\
                 \"shed\":{},\"migrated\":{}}}",
                at.as_nanos(),
                tenant,
                shed,
                migrated
            ),
        };
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut line = String::new();
        self.write_jsonl(&mut line);
        f.write_str(&line)
    }
}

/// Per-kind event totals over a trace — the `run_report` summary counters.
#[derive(Copy, Clone, PartialEq, Eq, Default, Debug)]
pub struct EventCounts {
    /// `Arrival` events.
    pub arrivals: u64,
    /// `Admitted` events.
    pub admitted: u64,
    /// `Diverted` events.
    pub diverted: u64,
    /// `Dispatched` events.
    pub dispatched: u64,
    /// `Completed` events.
    pub completed: u64,
    /// `DegradationChanged` events.
    pub degradation_changes: u64,
    /// `DrainStarted` events.
    pub drains_started: u64,
    /// `Migrated` events.
    pub migrated: u64,
    /// `DrainCompleted` events.
    pub drains_completed: u64,
}

impl EventCounts {
    /// Tallies the events in `events`.
    pub fn tally<'a, I: IntoIterator<Item = &'a TraceEvent>>(events: I) -> Self {
        let mut c = EventCounts::default();
        for e in events {
            match e {
                TraceEvent::Arrival { .. } => c.arrivals += 1,
                TraceEvent::Admitted { .. } => c.admitted += 1,
                TraceEvent::Diverted { .. } => c.diverted += 1,
                TraceEvent::Dispatched { .. } => c.dispatched += 1,
                TraceEvent::Completed { .. } => c.completed += 1,
                TraceEvent::DegradationChanged { .. } => c.degradation_changes += 1,
                TraceEvent::DrainStarted { .. } => c.drains_started += 1,
                TraceEvent::Migrated { .. } => c.migrated += 1,
                TraceEvent::DrainCompleted { .. } => c.drains_completed += 1,
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn events_are_small_and_copy() {
        // The event must stay register-friendly: no accidental growth.
        assert!(std::mem::size_of::<TraceEvent>() <= 64);
        let e = TraceEvent::Arrival { at: ms(1), id: 7 };
        let f = e; // Copy
        assert_eq!(e, f);
    }

    #[test]
    fn jsonl_schema_is_stable() {
        let mut line = String::new();
        TraceEvent::Arrival { at: ms(1), id: 3 }.write_jsonl(&mut line);
        assert_eq!(line, "{\"event\":\"arrival\",\"t_ns\":1000000,\"id\":3}");

        line.clear();
        TraceEvent::Dispatched {
            at: ms(2),
            id: 4,
            class: 1,
            server: 0,
            policy: PolicyTag::Miser,
            slack: Some(3),
        }
        .write_jsonl(&mut line);
        assert_eq!(
            line,
            "{\"event\":\"dispatched\",\"t_ns\":2000000,\"id\":4,\"class\":1,\
             \"server\":0,\"policy\":\"miser\",\"slack\":3}"
        );

        line.clear();
        TraceEvent::Completed {
            at: ms(5),
            id: 4,
            class: 0,
            response: SimDuration::from_millis(3),
            deadline_met: Some(true),
        }
        .write_jsonl(&mut line);
        assert!(line.contains("\"deadline_met\":true"), "{line}");

        line.clear();
        TraceEvent::DegradationChanged {
            at: ms(9),
            from_factor: 1.0,
            to_factor: 0.5,
        }
        .write_jsonl(&mut line);
        assert_eq!(
            line,
            "{\"event\":\"degradation\",\"t_ns\":9000000,\"from\":1,\"to\":0.5}"
        );
        assert_eq!(
            TraceEvent::DegradationChanged {
                at: ms(9),
                from_factor: 1.0,
                to_factor: 0.5
            }
            .to_string(),
            line
        );
    }

    #[test]
    fn drain_events_serialize_and_tally() {
        let events = [
            TraceEvent::DrainStarted {
                at: ms(10),
                tenant: 3,
                from_server: 1,
            },
            TraceEvent::Migrated {
                at: ms(12),
                id: 40,
                tenant: 3,
                to_server: 2,
            },
            TraceEvent::DrainCompleted {
                at: ms(15),
                tenant: 3,
                shed: 2,
                migrated: 5,
            },
        ];
        let mut line = String::new();
        events[0].write_jsonl(&mut line);
        assert_eq!(
            line,
            "{\"event\":\"drain_started\",\"t_ns\":10000000,\"tenant\":3,\"from_server\":1}"
        );
        line.clear();
        events[1].write_jsonl(&mut line);
        assert_eq!(
            line,
            "{\"event\":\"migrated\",\"t_ns\":12000000,\"id\":40,\"tenant\":3,\"to_server\":2}"
        );
        line.clear();
        events[2].write_jsonl(&mut line);
        assert_eq!(
            line,
            "{\"event\":\"drain_completed\",\"t_ns\":15000000,\"tenant\":3,\"shed\":2,\
             \"migrated\":5}"
        );
        let c = EventCounts::tally(&events);
        assert_eq!(c.drains_started, 1);
        assert_eq!(c.migrated, 1);
        assert_eq!(c.drains_completed, 1);
        assert_eq!(events[0].kind(), "drain_started");
        assert_eq!(events[1].at(), ms(12));
    }

    #[test]
    fn optional_fields_are_omitted_not_nulled() {
        let mut line = String::new();
        TraceEvent::Dispatched {
            at: ms(1),
            id: 0,
            class: 0,
            server: 1,
            policy: PolicyTag::Split,
            slack: None,
        }
        .write_jsonl(&mut line);
        assert!(!line.contains("slack"), "{line}");
        line.clear();
        TraceEvent::Completed {
            at: ms(1),
            id: 0,
            class: 0,
            response: SimDuration::ZERO,
            deadline_met: None,
        }
        .write_jsonl(&mut line);
        assert!(!line.contains("deadline_met"), "{line}");
    }

    #[test]
    fn counts_and_accessors() {
        let events = [
            TraceEvent::Arrival { at: ms(0), id: 0 },
            TraceEvent::Admitted {
                at: ms(0),
                id: 0,
                queue_depth: 1,
            },
            TraceEvent::Diverted {
                at: ms(1),
                id: 1,
                queue_depth: 1,
            },
            TraceEvent::Completed {
                at: ms(2),
                id: 0,
                class: 0,
                response: SimDuration::from_millis(2),
                deadline_met: None,
            },
        ];
        let c = EventCounts::tally(&events);
        assert_eq!(c.arrivals, 1);
        assert_eq!(c.admitted, 1);
        assert_eq!(c.diverted, 1);
        assert_eq!(c.completed, 1);
        assert_eq!(c.dispatched, 0);
        assert_eq!(events[2].at(), ms(1));
        assert_eq!(events[2].kind(), "diverted");
        for p in [
            PolicyTag::Fcfs,
            PolicyTag::Split,
            PolicyTag::FairQueue,
            PolicyTag::Miser,
            PolicyTag::Other,
        ] {
            assert!(!p.to_string().is_empty());
        }
    }
}
