//! FIFO lanes — FCFS and Split as a closed-form recurrence instead of
//! the event engine.
//!
//! In the paper's service model every server has a fixed rate `C` and
//! serves in FIFO order with a deterministic service time `s = 1/C`. Such
//! a server is the Lindley recurrence
//!
//! ```text
//! dispatched = max(arrival, done)
//! done       = dispatched + s
//! ```
//!
//! FCFS is one such lane at `Cmin + ΔC`. Split is two, `Cmin` and `ΔC`,
//! with RTT (Algorithm 1) choosing the lane. RTT's test "fewer than
//! `maxQ1` primaries pending" is the work form of the kernel
//! (`kernel.rs`, "the work-recurrence lane form"): at arrival `t` lane 0
//! holds `w = max(done₀ − t, 0)` ns of work, the pending count is `⌈w/s₀⌉`,
//! and `⌈w/s₀⌉ < maxQ1 ⇔ w ≤ (maxQ1 − 1)·s₀`.
//!
//! [`FifoLanes`] reproduces the engine record for record: the same
//! constants ([`Iops::service_time`], which the engine's clamp leaves as
//! it is; `maxQ1` from [`Iops::requests_within`], as [`RttClassifier`]
//! computes it),
//! the same record order (completion instant, then lane — the engine's
//! `Completion { server }` tie order), and the same release rule (a record
//! leaves once its completion is at or before the last offered arrival).
//! `crates/core/tests/fifo_lanes_props.rs` checks it against the engine.
//!
//! [`RttClassifier`]: crate::RttClassifier

use std::collections::VecDeque;

use gqos_sim::{ChunkCore, CompletionRecord, RunReport, ServiceClass};
use gqos_trace::{Iops, Request, SimDuration, SimTime, Workload};

/// One fixed-rate FIFO server: its service time, the instant its last
/// request completes, and the records not yet released, in completion
/// order.
#[derive(Debug)]
struct Lane {
    service: SimDuration,
    class: ServiceClass,
    done: SimTime,
    records: VecDeque<CompletionRecord>,
}

impl Lane {
    fn new(rate: Iops, class: ServiceClass) -> Self {
        Lane {
            service: rate.service_time(),
            class,
            done: SimTime::ZERO,
            records: VecDeque::new(),
        }
    }

    /// Serves `request` after every request already in the lane.
    #[inline]
    fn serve(&mut self, request: Request) {
        let dispatched = request.arrival.max(self.done);
        let completion = dispatched
            .checked_add(self.service)
            .expect("completion instant overflows the simulation clock");
        self.done = completion;
        self.records.push_back(CompletionRecord {
            id: request.id,
            class: self.class,
            arrival: request.arrival,
            dispatched,
            completion,
        });
    }
}

/// The closed-form core of a policy whose servers are all fixed-rate
/// FIFOs: FCFS (one lane) or Split (two lanes, RTT choosing). Fed by
/// [`run_chunks`](gqos_sim::run_chunks) or [`run`](FifoLanes::run).
#[derive(Debug)]
pub(crate) struct FifoLanes {
    /// Lane 0 first; the index is the engine's server index.
    lanes: Vec<Lane>,
    /// Split's admission limit `(maxQ1 − 1)·s₀` on lane 0's work, in ns;
    /// `None` for FCFS, whose one lane takes every arrival.
    admit_work: Option<u64>,
    offered: usize,
    last_arrival: SimTime,
    finished: bool,
}

impl FifoLanes {
    fn new(lanes: Vec<Lane>, admit_work: Option<u64>) -> Self {
        FifoLanes {
            lanes,
            admit_work,
            offered: 0,
            last_arrival: SimTime::ZERO,
            finished: false,
        }
    }

    /// FCFS: one FIFO server at `rate`, every request in the primary class.
    pub(crate) fn fcfs(rate: Iops) -> Self {
        FifoLanes::new(vec![Lane::new(rate, ServiceClass::PRIMARY)], None)
    }

    /// Split: the primary lane at `cmin` behind RTT's bound at `deadline`,
    /// the overflow lane at `delta_c`.
    ///
    /// `None` where the lanes cannot stand in for the engine: `⌊Cmin·δ⌋` is
    /// zero (the engine's `SplitScheduler` panics with the reason), or
    /// `maxQ1·s₀` is not representable in `u64` nanoseconds, as with a
    /// saturated bound.
    pub(crate) fn split(cmin: Iops, delta_c: Iops, deadline: SimDuration) -> Option<Self> {
        let max_q1 = Some(cmin.requests_within(deadline)).filter(|&m| m >= 1)?;
        let primary = Lane::new(cmin, ServiceClass::PRIMARY);
        let s0 = primary.service.as_nanos();
        max_q1.checked_mul(s0)?;
        let overflow = Lane::new(delta_c, ServiceClass::OVERFLOW);
        Some(FifoLanes::new(
            vec![primary, overflow],
            Some((max_q1 - 1) * s0),
        ))
    }

    /// Whether every completion instant of `workload` is representable:
    /// `last arrival + n·s` fits a `u64` for every lane. Beyond it
    /// the engine's clock overflows too, so the caller keeps the engine.
    pub(crate) fn covers(&self, workload: &Workload) -> bool {
        let last = workload
            .requests()
            .last()
            .map_or(0, |r| r.arrival.as_nanos());
        self.lanes.iter().all(|lane| {
            (workload.len() as u64)
                .checked_mul(lane.service.as_nanos())
                .and_then(|work| work.checked_add(last))
                .is_some()
        })
    }

    /// Runs `workload` to quiescence and returns the report the engine
    /// would.
    pub(crate) fn run(mut self, workload: &Workload) -> RunReport {
        for &request in workload.requests() {
            self.offer(request);
        }
        self.finish();
        let mut records = Vec::with_capacity(workload.len());
        self.drain(|r| records.push(r));
        RunReport::new(records, self.offered, self.end_time())
    }
}

impl ChunkCore for FifoLanes {
    #[inline]
    fn offer(&mut self, request: Request) {
        assert!(!self.finished, "offer after finish");
        assert!(
            request.arrival >= self.last_arrival,
            "arrivals must be offered in order: {} after {}",
            request.arrival,
            self.last_arrival
        );
        self.last_arrival = request.arrival;
        self.offered += 1;
        // Split only: RTT diverts when lane 0 holds too much work.
        let diverted = self.admit_work.is_some_and(|limit| {
            let work = self.lanes[0]
                .done
                .saturating_duration_since(request.arrival);
            work.as_nanos() > limit
        });
        self.lanes[usize::from(diverted)].serve(request);
    }

    fn finish(&mut self) {
        self.finished = true;
    }

    fn drain(&mut self, mut sink: impl FnMut(CompletionRecord)) -> usize {
        let mut drained = 0;
        loop {
            // The earliest unreleased completion, lower lane first on a tie.
            let next = self
                .lanes
                .iter()
                .enumerate()
                .filter_map(|(i, lane)| lane.records.front().map(|r| (r.completion, i)))
                .min();
            match next {
                Some((at, i)) if self.finished || at <= self.last_arrival => {
                    sink(self.lanes[i].records.pop_front().expect("front exists"));
                    drained += 1;
                }
                _ => return drained,
            }
        }
    }

    fn offered(&self) -> usize {
        self.offered
    }

    /// The later of the last arrival and the last completion — the
    /// engine's last event once the run is finished.
    fn end_time(&self) -> SimTime {
        self.lanes
            .iter()
            .map(|lane| lane.done)
            .fold(self.last_arrival, SimTime::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn split_admits_while_fewer_than_max_q1_are_pending() {
        // maxQ1 = ⌊100 × 0.02⌋ = 2, s₀ = 10 ms, s₁ = 20 ms.
        let mut lanes = FifoLanes::split(
            Iops::new(100.0),
            Iops::new(50.0),
            SimDuration::from_millis(20),
        )
        .expect("representable");
        for &r in Workload::from_arrivals([ms(0), ms(0), ms(0), ms(10)]).requests() {
            lanes.offer(r);
        }
        lanes.finish();
        let mut records = Vec::new();
        assert_eq!(lanes.drain(|r| records.push(r)), 4);
        let got: Vec<_> = records
            .iter()
            .map(|r| (r.id.index(), r.class, r.completion))
            .collect();
        // Request 3 arrives at 10 ms as request 0 completes: one primary
        // left pending, so it is admitted behind request 1.
        assert_eq!(
            got,
            vec![
                (0, ServiceClass::PRIMARY, ms(10)),
                (1, ServiceClass::PRIMARY, ms(20)),
                (2, ServiceClass::OVERFLOW, ms(20)),
                (3, ServiceClass::PRIMARY, ms(30)),
            ]
        );
        assert_eq!(lanes.end_time(), ms(30));
    }

    #[test]
    fn drain_releases_only_completions_up_to_the_last_arrival() {
        let mut lanes = FifoLanes::fcfs(Iops::new(100.0));
        lanes.offer(Request::at(ms(0)));
        lanes.offer(Request::at(ms(5)));
        assert_eq!(lanes.drain(|_| {}), 0);
        lanes.offer(Request::at(ms(10)));
        assert_eq!(lanes.drain(|_| {}), 1, "the completion at 10 ms ties");
        lanes.finish();
        assert_eq!(lanes.drain(|_| {}), 2);
    }

    #[test]
    fn guards_send_unrepresentable_runs_to_the_engine() {
        let d = SimDuration::from_millis(20);
        // ⌊Cmin·δ⌋ = 0: the engine's SplitScheduler reports it.
        assert!(FifoLanes::split(Iops::new(10.0), Iops::new(1.0), d).is_none());
        // 1/C = 1.5 ns rounds to s₀ = 2 ns, so maxQ1·s₀ ≈ 1.33·δ overflows
        // for δ near the top of the clock while ⌊C·δ⌋ itself still fits.
        let huge = SimDuration::from_nanos(14_000_000_000_000_000_000);
        assert!(FifoLanes::split(Iops::new(6.6e8), Iops::new(1.0), huge).is_none());
        assert!(FifoLanes::split(Iops::new(6.6e8), Iops::new(1.0), d).is_some());
        // A workload whose last completion passes the clock.
        let late = Workload::from_arrivals([SimTime::from_nanos(u64::MAX - 5); 2]);
        assert!(!FifoLanes::fcfs(Iops::new(1.0)).covers(&late));
        assert!(FifoLanes::fcfs(Iops::new(1.0)).covers(&Workload::from_arrivals([ms(1); 2])));
    }
}
