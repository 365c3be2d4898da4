//! The scheduler interface the simulation engine drives, and a reference
//! FCFS implementation.

use std::collections::VecDeque;
use std::fmt;

use gqos_obs::{PolicyTag, TraceEvent, TraceHandle};
use gqos_trace::{Request, SimTime};

use crate::server::ServerId;

/// Service class a request is served under.
///
/// The paper's two-class decomposition uses [`PRIMARY`](ServiceClass::PRIMARY)
/// (queue `Q1`, guaranteed response time) and
/// [`OVERFLOW`](ServiceClass::OVERFLOW) (queue `Q2`, best effort); cascaded
/// decompositions may use further classes.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Default, Debug)]
pub struct ServiceClass(u8);

impl ServiceClass {
    /// The guaranteed class (`Q1`).
    pub const PRIMARY: ServiceClass = ServiceClass(0);
    /// The best-effort overflow class (`Q2`).
    pub const OVERFLOW: ServiceClass = ServiceClass(1);

    /// Creates a class from its index.
    pub const fn new(index: u8) -> Self {
        ServiceClass(index)
    }

    /// The class index.
    pub const fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Display for ServiceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ServiceClass::PRIMARY => f.write_str("primary"),
            ServiceClass::OVERFLOW => f.write_str("overflow"),
            ServiceClass(n) => write!(f, "class{n}"),
        }
    }
}

/// What a scheduler tells an idle server to do.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum Dispatch {
    /// Serve this request under this class.
    Serve(Request, ServiceClass),
    /// Nothing is pending for this server.
    Idle,
}

/// A QoS scheduler, driven by the simulation engine.
///
/// The engine calls [`on_arrival`] for every request in timestamp order and
/// [`next_for`] whenever a server becomes free and on each arrival while a
/// server idles. [`on_completion`] fires when a dispatched request
/// finishes. Schedulers are work-conserving: a server that hears
/// [`Dispatch::Idle`] is asked again only at the next arrival.
///
/// Multi-server schedulers (the paper's *Split* policy) route different
/// queues to different [`ServerId`]s; single-server schedulers ignore the id.
///
/// [`on_arrival`]: Scheduler::on_arrival
/// [`next_for`]: Scheduler::next_for
/// [`on_completion`]: Scheduler::on_completion
pub trait Scheduler {
    /// Accepts an arriving request.
    fn on_arrival(&mut self, request: Request, now: SimTime);

    /// Chooses the next request for the given (now idle) server.
    fn next_for(&mut self, server: ServerId, now: SimTime) -> Dispatch;

    /// Observes a completion on `server`. Default: no-op.
    fn on_completion(&mut self, request: &Request, class: ServiceClass, now: SimTime) {
        let _ = (request, class, now);
    }

    /// Number of requests queued (not yet dispatched).
    fn pending(&self) -> usize;
}

/// Plain FCFS over a single queue — the paper's unshaped baseline: no
/// decomposition, every request in one class, served in arrival order.
///
/// # Examples
///
/// ```
/// use gqos_sim::{Dispatch, FcfsScheduler, Scheduler, ServerId};
/// use gqos_trace::{Request, SimTime};
///
/// let mut s = FcfsScheduler::new();
/// s.on_arrival(Request::at(SimTime::ZERO), SimTime::ZERO);
/// assert!(matches!(s.next_for(ServerId::new(0), SimTime::ZERO), Dispatch::Serve(..)));
/// assert!(matches!(s.next_for(ServerId::new(0), SimTime::ZERO), Dispatch::Idle));
/// ```
#[derive(Clone, Default, Debug)]
pub struct FcfsScheduler {
    queue: VecDeque<Request>,
    trace: TraceHandle,
}

impl FcfsScheduler {
    /// Creates an empty FCFS scheduler.
    pub fn new() -> Self {
        FcfsScheduler::default()
    }

    /// Creates an FCFS scheduler that emits `Dispatched` events (policy tag
    /// `fcfs`) into `trace`.
    pub fn with_trace(trace: TraceHandle) -> Self {
        FcfsScheduler {
            queue: VecDeque::new(),
            trace,
        }
    }
}

impl Scheduler for FcfsScheduler {
    #[inline]
    fn on_arrival(&mut self, request: Request, _now: SimTime) {
        self.queue.push_back(request);
    }

    #[inline]
    fn next_for(&mut self, server: ServerId, now: SimTime) -> Dispatch {
        match self.queue.pop_front() {
            Some(r) => {
                self.trace.emit_with(|| TraceEvent::Dispatched {
                    at: now,
                    id: r.id.index(),
                    class: ServiceClass::PRIMARY.index(),
                    server: server.index(),
                    policy: PolicyTag::Fcfs,
                    slack: None,
                });
                Dispatch::Serve(r, ServiceClass::PRIMARY)
            }
            None => Dispatch::Idle,
        }
    }

    #[inline]
    fn pending(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_constants_and_display() {
        assert_eq!(ServiceClass::PRIMARY.index(), 0);
        assert_eq!(ServiceClass::OVERFLOW.index(), 1);
        assert_eq!(ServiceClass::PRIMARY.to_string(), "primary");
        assert_eq!(ServiceClass::OVERFLOW.to_string(), "overflow");
        assert_eq!(ServiceClass::new(3).to_string(), "class3");
    }

    #[test]
    fn fcfs_serves_in_arrival_order() {
        let mut s = FcfsScheduler::new();
        let r1 = Request::at(SimTime::from_millis(1));
        let r2 = Request::at(SimTime::from_millis(2));
        s.on_arrival(r1, r1.arrival);
        s.on_arrival(r2, r2.arrival);
        assert_eq!(s.pending(), 2);
        match s.next_for(ServerId::new(0), SimTime::from_millis(2)) {
            Dispatch::Serve(r, class) => {
                assert_eq!(r.arrival, r1.arrival);
                assert_eq!(class, ServiceClass::PRIMARY);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn fcfs_idle_when_empty() {
        let mut s = FcfsScheduler::new();
        assert_eq!(s.pending(), 0);
        assert_eq!(s.next_for(ServerId::new(0), SimTime::ZERO), Dispatch::Idle);
    }

    #[test]
    fn default_on_completion_is_noop() {
        let mut s = FcfsScheduler::new();
        let r = Request::at(SimTime::ZERO);
        s.on_completion(&r, ServiceClass::PRIMARY, SimTime::from_secs(1));
        assert_eq!(s.pending(), 0);
    }
}
