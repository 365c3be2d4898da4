//! Differential property tests: both storages behind the event queues
//! must pop in exactly the order of the [`BinaryHeapEventQueue`] oracle.
//!
//! - The timing-wheel [`EventQueue`] (and [`IndexedEventQueue`] above two
//!   servers) on arbitrary event sequences — interleaved pushes and pops,
//!   timestamp ties on every kind, magnitudes spanning all eleven wheel
//!   levels, and pushes into the past.
//! - The sorted-list [`IndexedEventQueue`] (one and two servers) on
//!   engine-feasible schedules — stacked retries, ties across all three
//!   kinds, pushes dated before the last pop, and `clear` reuse.
//!
//! No external property-testing crate: a deterministic splitmix-style
//! generator drives thousands of randomised rounds.

use gqos_sim::{BinaryHeapEventQueue, Event, EventKind, EventQueue, IndexedEventQueue};
use gqos_trace::SimTime;

/// Deterministic 64-bit generator (splitmix64) so failures replay exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// A timestamp whose magnitude is itself random: raw 64-bit values
    /// shifted right by 0..64 bits, hitting every wheel level from
    /// single-nanosecond slots to the top 4-bit level.
    fn time(&mut self) -> SimTime {
        let shift = self.below(64) as u32;
        SimTime::from_nanos(self.next() >> shift)
    }

    fn kind(&mut self, servers: u64) -> EventKind {
        match self.below(3) {
            0 => EventKind::Completion {
                server: self.below(servers) as usize,
            },
            1 => EventKind::Retry {
                server: self.below(servers) as usize,
            },
            _ => EventKind::Arrival {
                index: self.below(servers) as usize,
            },
        }
    }
}

/// Drain both queues fully and compare every popped event.
fn assert_drain_matches(wheel: &mut EventQueue, oracle: &mut BinaryHeapEventQueue, round: u64) {
    loop {
        let (a, b) = (oracle.pop(), wheel.pop());
        assert_eq!(a, b, "wheel diverged from heap oracle (round {round})");
        if a.is_none() {
            break;
        }
    }
}

/// Bulk load then drain: pop order over arbitrary magnitudes and kinds.
#[test]
fn wheel_matches_heap_on_bulk_loads() {
    let mut rng = Rng(0x51ab_0001);
    for round in 0..2_000 {
        let mut wheel = EventQueue::new();
        let mut oracle = BinaryHeapEventQueue::new();
        let n = rng.below(40) + 1;
        for _ in 0..n {
            let event = Event {
                at: rng.time(),
                kind: rng.kind(4),
            };
            wheel.push(event);
            oracle.push(event);
        }
        assert_eq!(wheel.len(), oracle.len());
        assert_eq!(wheel.peek_time(), oracle.peek_time());
        assert_drain_matches(&mut wheel, &mut oracle, round);
    }
}

/// Interleaved pushes and pops, including pushes *behind* the last popped
/// timestamp (the wheel fires those immediately; so does the heap, because
/// nothing earlier can still be pending — see DESIGN.md §13).
#[test]
fn wheel_matches_heap_under_interleaving_and_past_pushes() {
    let mut rng = Rng(0x51ab_0002);
    for round in 0..2_000 {
        let mut wheel = EventQueue::new();
        let mut oracle = BinaryHeapEventQueue::new();
        for _ in 0..60 {
            if rng.below(3) == 0 {
                let (a, b) = (oracle.pop(), wheel.pop());
                assert_eq!(a, b, "pop diverged mid-stream (round {round})");
            } else {
                // Half the pushes aim near (possibly before) the most
                // recently popped time to stress the clamp path; the rest
                // are arbitrary.
                let at = if rng.below(2) == 0 {
                    SimTime::from_nanos(rng.below(1 << 12))
                } else {
                    rng.time()
                };
                let event = Event {
                    at,
                    kind: rng.kind(4),
                };
                wheel.push(event);
                oracle.push(event);
            }
            assert_eq!(wheel.peek_time(), oracle.peek_time());
        }
        assert_drain_matches(&mut wheel, &mut oracle, round);
    }
}

/// Dense timestamp ties: many events in a handful of instants, so the
/// (kind, insertion-order) tie-breaks do all the work.
#[test]
fn wheel_matches_heap_on_heavy_ties() {
    let mut rng = Rng(0x51ab_0003);
    for round in 0..2_000 {
        let mut wheel = EventQueue::new();
        let mut oracle = BinaryHeapEventQueue::new();
        for _ in 0..30 {
            let event = Event {
                at: SimTime::from_nanos(rng.below(3)),
                kind: rng.kind(3),
            };
            wheel.push(event);
            oracle.push(event);
        }
        assert_drain_matches(&mut wheel, &mut oracle, round);
    }
}

/// The engine facade on top of the wheel, driven with engine-feasible
/// schedules (unique arrival, unique completion per server) at fleet
/// scale, interleaving pushes and pops as the simulation loop does.
#[test]
fn indexed_queue_matches_heap_at_fleet_scale() {
    let mut rng = Rng(0x51ab_0004);
    for &servers in &[1usize, 2, 16, 128] {
        for round in 0..200 {
            let mut indexed = IndexedEventQueue::new(servers);
            let mut oracle = BinaryHeapEventQueue::new();
            let mut arrival_pending = false;
            let mut completion_pending = vec![false; servers];
            let mut last_popped = SimTime::ZERO;
            for _ in 0..80 {
                if rng.below(3) == 0 {
                    let (a, b) = (oracle.pop(), indexed.pop());
                    assert_eq!(a, b, "indexed diverged ({servers} servers, round {round})");
                    if let Some(e) = a {
                        last_popped = last_popped.max(e.at);
                        match e.kind {
                            EventKind::Completion { server } => completion_pending[server] = false,
                            EventKind::Arrival { .. } => arrival_pending = false,
                            EventKind::Retry { .. } => {}
                        }
                    }
                    continue;
                }
                // Engine pushes never go into the past relative to the
                // event it is currently processing.
                let at =
                    SimTime::from_nanos(last_popped.as_nanos().saturating_add(rng.below(1 << 20)));
                let kind = match rng.below(3) {
                    0 if !arrival_pending => {
                        arrival_pending = true;
                        EventKind::Arrival {
                            index: rng.below(1000) as usize,
                        }
                    }
                    1 => {
                        let s = rng.below(servers as u64) as usize;
                        if completion_pending[s] {
                            continue;
                        }
                        completion_pending[s] = true;
                        EventKind::Completion { server: s }
                    }
                    _ => EventKind::Retry {
                        server: rng.below(servers as u64) as usize,
                    },
                };
                let event = Event { at, kind };
                indexed.push(event);
                oracle.push(event);
            }
            loop {
                let (a, b) = (oracle.pop(), indexed.pop());
                assert_eq!(a, b, "drain diverged ({servers} servers, round {round})");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}

/// `clear` must leave the wheel indistinguishable from a fresh queue.
#[test]
fn cleared_wheel_behaves_like_new() {
    let mut rng = Rng(0x51ab_0005);
    let mut wheel = EventQueue::new();
    for round in 0..200 {
        let mut oracle = BinaryHeapEventQueue::new();
        wheel.clear();
        for _ in 0..20 {
            let event = Event {
                at: rng.time(),
                kind: rng.kind(4),
            };
            wheel.push(event);
            oracle.push(event);
        }
        assert_drain_matches(&mut wheel, &mut oracle, round);
    }
}

/// The sorted-list storage (one and two servers) against the heap oracle
/// on engine-feasible schedules: one arrival and one completion per
/// server at a time, stacked retries, timestamps clustered on the last
/// popped instant so ties across all three kinds and pushes dated before
/// it are common. One queue serves every round through `clear`, half the
/// time with events still pending.
#[test]
fn sorted_list_indexed_queue_matches_heap() {
    let mut rng = Rng(0x51ab_0006);
    for servers in [1usize, 2] {
        let mut indexed = IndexedEventQueue::new(servers);
        for round in 0..2_000 {
            indexed.clear();
            assert!(indexed.is_empty());
            let mut oracle = BinaryHeapEventQueue::new();
            let mut arrival_pending = false;
            let mut completion_pending = vec![false; servers];
            let mut last_popped = 0u64;
            for _ in 0..60 {
                if rng.below(3) == 0 {
                    let (a, b) = (oracle.pop(), indexed.pop());
                    assert_eq!(
                        a, b,
                        "sorted list diverged ({servers} servers, round {round})"
                    );
                    if let Some(e) = a {
                        last_popped = e.at.as_nanos();
                        match e.kind {
                            EventKind::Completion { server } => completion_pending[server] = false,
                            EventKind::Arrival { .. } => arrival_pending = false,
                            EventKind::Retry { .. } => {}
                        }
                    }
                    continue;
                }
                let at = SimTime::from_nanos(match rng.below(4) {
                    0 => last_popped.saturating_sub(rng.below(3)),
                    1 => last_popped + rng.below(3),
                    _ => last_popped + rng.below(1 << 24),
                });
                let kind = match rng.below(4) {
                    0 if !arrival_pending => {
                        arrival_pending = true;
                        EventKind::Arrival {
                            index: rng.below(1000) as usize,
                        }
                    }
                    1 => {
                        let s = rng.below(servers as u64) as usize;
                        if completion_pending[s] {
                            continue;
                        }
                        completion_pending[s] = true;
                        EventKind::Completion { server: s }
                    }
                    _ => EventKind::Retry {
                        server: rng.below(servers as u64) as usize,
                    },
                };
                let event = Event { at, kind };
                indexed.push(event);
                oracle.push(event);
                assert_eq!(indexed.len(), oracle.len());
            }
            if rng.below(2) == 0 {
                continue;
            }
            loop {
                let (a, b) = (oracle.pop(), indexed.pop());
                assert_eq!(a, b, "drain diverged ({servers} servers, round {round})");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
