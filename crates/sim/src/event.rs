//! Deterministic time-ordered event queues.
//!
//! [`EventQueue`] keeps its pending events in a vector sorted latest
//! first by `(at, kind)`: a push inserts in place (a binary search for the
//! position), a pop takes the last entry. [`IndexedEventQueue`] is the
//! engine-facing facade: the same list plus the engine's uniqueness
//! bookkeeping (one pending arrival, one pending completion per server).
//!
//! The engine holds only a handful of live events: the one pending
//! arrival plus one completion or retry per server, on one server (or
//! two, for Split). At that size a sorted vector is cheap: measured on a
//! 2-core x86-64 host, a simulated request through the whole
//! single-server engine costs ~90 ns (`sim/requests_per_sec_core` in
//! `perf_report`); DESIGN.md §13 compares the storages measured.
//!
//! # Ordering contract
//!
//! Events pop in `(at, kind)` order — time first, then [`EventKind`]'s
//! fixed order. A binary heap popping by `(at, kind, insertion order)`
//! yields the same sequence: events equal in `(at, kind)` are identical,
//! so their relative order cannot be observed. `crates/sim/tests/
//! event_props.rs` keeps such a heap as the differential oracle. A push
//! dated before the last pop simply sorts first and fires next; the engine
//! never makes one (it asserts that a retry lies in the future).

use gqos_trace::SimTime;

/// What happens when an event fires.
///
/// Ordering at equal timestamps is significant and fixed: completions are
/// processed before retries, and retries before arrivals, so that a request
/// arriving exactly when the server frees up observes the freed queue slot
/// (the convention the paper's queue-length argument assumes). Within a
/// kind, the lower server (or workload) index fires first; equal events
/// fire in insertion order.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub enum EventKind {
    /// A server finishes its in-flight request.
    Completion {
        /// Index of the completing server.
        server: usize,
    },
    /// A server should re-poll its scheduler (used by non-work-conserving
    /// schedulers that report a future eligibility time).
    Retry {
        /// Index of the server to poll.
        server: usize,
    },
    /// The workload's next request arrives.
    Arrival {
        /// Index of the arriving request within the workload.
        index: usize,
    },
}

/// A scheduled event.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct Event {
    /// When the event fires.
    pub at: SimTime,
    /// What fires.
    pub kind: EventKind,
}

/// A priority queue of events ordered by time, then by [`EventKind`] —
/// fully deterministic.
///
/// Backed by a vector kept in descending order (see the module docs).
///
/// # Examples
///
/// ```
/// use gqos_sim::{Event, EventKind, EventQueue};
/// use gqos_trace::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(Event { at: SimTime::from_secs(2), kind: EventKind::Arrival { index: 1 } });
/// q.push(Event { at: SimTime::from_secs(1), kind: EventKind::Arrival { index: 0 } });
/// assert_eq!(q.pop().unwrap().at, SimTime::from_secs(1));
/// ```
#[derive(Clone, Debug, Default)]
pub struct EventQueue {
    /// `(at, kind)` entries in descending order, so the next event to pop
    /// is the last.
    events: Vec<(SimTime, EventKind)>,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Empties the queue, keeping its buffer for reuse.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Schedules an event.
    #[inline]
    pub fn push(&mut self, event: Event) {
        // The new entry goes after every entry that pops later than it.
        let entry = (event.at, event.kind);
        let pos = self.events.partition_point(|e| *e > entry);
        self.events.insert(pos, entry);
    }

    /// Removes and returns the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        self.events.pop().map(|(at, kind)| Event { at, kind })
    }

    /// The timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.events.last().map(|&(at, _)| at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The engine's event queue: an [`EventQueue`] plus the engine's
/// uniqueness invariants —
///
/// - at most **one pending arrival** (the engine schedules arrival `i + 1`
///   only when it processes arrival `i`),
/// - at most **one pending completion per server** (a server holds one
///   in-flight request),
/// - any number of **stackable retries per server** (a non-work-conserving
///   scheduler may re-announce an eligibility time).
///
/// Violations of the uniqueness invariants are engine bookkeeping bugs and
/// panic at `push`. Pop order is [`EventQueue`]'s: time, then
/// [`EventKind`] (completions before retries before arrivals, lower server
/// index first).
///
/// # Examples
///
/// ```
/// use gqos_sim::{Event, EventKind, IndexedEventQueue};
/// use gqos_trace::SimTime;
///
/// let mut q = IndexedEventQueue::new(1);
/// q.push(Event { at: SimTime::from_secs(2), kind: EventKind::Arrival { index: 0 } });
/// q.push(Event { at: SimTime::from_secs(2), kind: EventKind::Completion { server: 0 } });
/// assert_eq!(q.pop().unwrap().kind, EventKind::Completion { server: 0 });
/// ```
#[derive(Clone, Debug, Default)]
pub struct IndexedEventQueue {
    events: EventQueue,
    /// Per-server "a completion is pending" flag, for the uniqueness panic.
    completion_pending: Vec<bool>,
    /// Whether the single arrival slot is taken.
    arrival_pending: bool,
}

impl IndexedEventQueue {
    /// Creates an empty queue with slots for `servers` servers.
    pub fn new(servers: usize) -> Self {
        IndexedEventQueue {
            events: EventQueue::new(),
            completion_pending: vec![false; servers],
            arrival_pending: false,
        }
    }

    /// Empties the queue, keeping its buffers for reuse.
    pub fn clear(&mut self) {
        self.events.clear();
        self.completion_pending.fill(false);
        self.arrival_pending = false;
    }

    /// Schedules an event.
    ///
    /// # Panics
    ///
    /// Panics if the event's server index is out of range, or if a slot
    /// that must be unique (a server's completion, the arrival) is already
    /// occupied — both are engine bookkeeping bugs.
    pub fn push(&mut self, event: Event) {
        match event.kind {
            EventKind::Completion { server } => {
                let pending = &mut self.completion_pending[server];
                assert!(!*pending, "server {server} already has a completion");
                *pending = true;
            }
            EventKind::Retry { server } => {
                assert!(
                    server < self.completion_pending.len(),
                    "retry for unknown server {server}"
                );
            }
            EventKind::Arrival { .. } => {
                assert!(!self.arrival_pending, "an arrival is already pending");
                self.arrival_pending = true;
            }
        }
        self.events.push(event);
    }

    /// Removes and returns the earliest event (see the type docs for the
    /// tie-break order).
    pub fn pop(&mut self) -> Option<Event> {
        let event = self.events.pop()?;
        match event.kind {
            EventKind::Completion { server } => self.completion_pending[server] = false,
            EventKind::Retry { .. } => {}
            EventKind::Arrival { .. } => self.arrival_pending = false,
        }
        Some(event)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64, kind: EventKind) -> Event {
        Event {
            at: SimTime::from_secs(secs),
            kind,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(at(3, EventKind::Arrival { index: 2 }));
        q.push(at(1, EventKind::Arrival { index: 0 }));
        q.push(at(2, EventKind::Arrival { index: 1 }));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.at).collect();
        assert_eq!(
            order,
            vec![
                SimTime::from_secs(1),
                SimTime::from_secs(2),
                SimTime::from_secs(3)
            ]
        );
    }

    #[test]
    fn completion_precedes_arrival_at_same_instant() {
        let mut q = EventQueue::new();
        q.push(at(5, EventKind::Arrival { index: 0 }));
        q.push(at(5, EventKind::Completion { server: 0 }));
        q.push(at(5, EventKind::Retry { server: 0 }));
        assert_eq!(q.pop().unwrap().kind, EventKind::Completion { server: 0 });
        assert_eq!(q.pop().unwrap().kind, EventKind::Retry { server: 0 });
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrival { index: 0 });
    }

    #[test]
    fn equal_events_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(at(1, EventKind::Arrival { index: 7 }));
        q.push(at(1, EventKind::Arrival { index: 7 }));
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(at(9, EventKind::Retry { server: 1 }));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(9)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn arrivals_at_same_instant_pop_by_index() {
        let mut q = EventQueue::new();
        q.push(at(1, EventKind::Arrival { index: 5 }));
        q.push(at(1, EventKind::Arrival { index: 3 }));
        match q.pop().unwrap().kind {
            EventKind::Arrival { index } => assert_eq!(index, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn indexed_queue_orders_kinds_at_equal_time() {
        let mut q = IndexedEventQueue::new(2);
        q.push(at(5, EventKind::Arrival { index: 0 }));
        q.push(at(5, EventKind::Retry { server: 1 }));
        q.push(at(5, EventKind::Retry { server: 0 }));
        q.push(at(5, EventKind::Completion { server: 1 }));
        q.push(at(5, EventKind::Completion { server: 0 }));
        assert_eq!(q.len(), 5);
        let kinds: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Completion { server: 0 },
                EventKind::Completion { server: 1 },
                EventKind::Retry { server: 0 },
                EventKind::Retry { server: 1 },
                EventKind::Arrival { index: 0 },
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn indexed_queue_clear_reuses_buffers() {
        let mut q = IndexedEventQueue::new(1);
        q.push(at(1, EventKind::Completion { server: 0 }));
        q.push(at(2, EventKind::Retry { server: 0 }));
        q.clear();
        assert!(q.is_empty());
        // Slots are free again after clear.
        q.push(at(3, EventKind::Completion { server: 0 }));
        q.push(at(3, EventKind::Arrival { index: 9 }));
        assert_eq!(q.pop().unwrap().kind, EventKind::Completion { server: 0 });
    }

    #[test]
    #[should_panic(expected = "already has a completion")]
    fn indexed_queue_rejects_double_completion() {
        let mut q = IndexedEventQueue::new(1);
        q.push(at(1, EventKind::Completion { server: 0 }));
        q.push(at(2, EventKind::Completion { server: 0 }));
    }

    #[test]
    #[should_panic(expected = "an arrival is already pending")]
    fn indexed_queue_rejects_double_arrival() {
        let mut q = IndexedEventQueue::new(1);
        q.push(at(1, EventKind::Arrival { index: 0 }));
        q.push(at(2, EventKind::Arrival { index: 1 }));
    }

    #[test]
    #[should_panic(expected = "unknown server")]
    fn indexed_queue_rejects_out_of_range_retry() {
        let mut q = IndexedEventQueue::new(2);
        q.push(at(1, EventKind::Retry { server: 2 }));
    }
}
