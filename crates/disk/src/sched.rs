//! Low-level throughput-oriented disk schedulers.
//!
//! The paper notes that "scheduling at the low level of storage array uses
//! some throughput maximizing ordering from among the requests in the
//! low-level queue" beneath the per-client QoS layer. These are those
//! orderings: shortest-seek-time-first and the elevator (SCAN / C-LOOK)
//! family, implementing the engine's [`Scheduler`] interface so they can be
//! paired with [`DiskModel`](crate::DiskModel).

use std::fmt;

use gqos_sim::{Dispatch, Scheduler, ServerId, ServiceClass};
use gqos_trace::{Request, SimTime};

/// Shortest-seek-time-first: always serve the queued request whose block is
/// closest to the last dispatched block. Maximises throughput; can starve
/// edge requests under sustained load.
///
/// # Examples
///
/// ```
/// use gqos_disk::SstfScheduler;
/// use gqos_sim::{Dispatch, Scheduler, ServerId};
/// use gqos_trace::{LogicalBlock, Request, SimTime};
///
/// let mut s = SstfScheduler::new();
/// s.on_arrival(Request::at(SimTime::ZERO).with_block(LogicalBlock::new(1000)), SimTime::ZERO);
/// s.on_arrival(Request::at(SimTime::ZERO).with_block(LogicalBlock::new(10)), SimTime::ZERO);
/// // Head starts at block 0: block 10 is nearer.
/// match s.next_for(ServerId::new(0), SimTime::ZERO) {
///     Dispatch::Serve(r, _) => assert_eq!(r.block.get(), 10),
///     _ => unreachable!(),
/// }
/// ```
#[derive(Clone, Default, Debug)]
pub struct SstfScheduler {
    queue: Vec<Request>,
    head: u64,
}

impl SstfScheduler {
    /// Creates a scheduler with the head at block 0.
    pub fn new() -> Self {
        SstfScheduler::default()
    }
}

impl Scheduler for SstfScheduler {
    fn on_arrival(&mut self, request: Request, _now: SimTime) {
        self.queue.push(request);
    }

    fn next_for(&mut self, _server: ServerId, _now: SimTime) -> Dispatch {
        if self.queue.is_empty() {
            return Dispatch::Idle;
        }
        let head = self.head;
        let (idx, _) = self
            .queue
            .iter()
            .enumerate()
            .min_by_key(|(i, r)| (r.block.get().abs_diff(head), *i))
            .expect("non-empty queue");
        let request = self.queue.swap_remove(idx);
        self.head = request.block.get();
        Dispatch::Serve(request, ServiceClass::PRIMARY)
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }
}

impl fmt::Display for SstfScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SSTF(head@{}, {} queued)", self.head, self.queue.len())
    }
}

/// Elevator scheduling: sweep upward serving blocks in ascending order,
/// then (SCAN) reverse, or (C-LOOK) jump back to the lowest pending block
/// and sweep upward again.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum SweepMode {
    /// Reverse direction at the extremes (classic elevator).
    Scan,
    /// Always sweep upward, wrapping to the lowest pending block (C-LOOK):
    /// more uniform response times across the platter.
    CircularLook,
}

/// The elevator / circular-look disk scheduler.
///
/// # Examples
///
/// ```
/// use gqos_disk::{ScanScheduler, SweepMode};
/// use gqos_sim::{Dispatch, Scheduler, ServerId};
/// use gqos_trace::{LogicalBlock, Request, SimTime};
///
/// let mut s = ScanScheduler::new(SweepMode::Scan);
/// for lba in [500u64, 100, 900] {
///     s.on_arrival(Request::at(SimTime::ZERO).with_block(LogicalBlock::new(lba)), SimTime::ZERO);
/// }
/// // Upward sweep from 0: serves 100, then 500, then 900.
/// match s.next_for(ServerId::new(0), SimTime::ZERO) {
///     Dispatch::Serve(r, _) => assert_eq!(r.block.get(), 100),
///     _ => unreachable!(),
/// }
/// ```
#[derive(Clone, Debug)]
pub struct ScanScheduler {
    mode: SweepMode,
    queue: Vec<Request>,
    head: u64,
    upward: bool,
}

impl ScanScheduler {
    /// Creates a scheduler sweeping upward from block 0.
    pub fn new(mode: SweepMode) -> Self {
        ScanScheduler {
            mode,
            queue: Vec::new(),
            head: 0,
            upward: true,
        }
    }

    fn pick_scan(&self) -> Option<usize> {
        // Nearest request in the sweep direction; if none, nearest against
        // the direction (the reversal).
        let ahead = self
            .queue
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                if self.upward {
                    r.block.get() >= self.head
                } else {
                    r.block.get() <= self.head
                }
            })
            .min_by_key(|(i, r)| (r.block.get().abs_diff(self.head), *i));
        if let Some((i, _)) = ahead {
            return Some(i);
        }
        self.queue
            .iter()
            .enumerate()
            .min_by_key(|(i, r)| (r.block.get().abs_diff(self.head), *i))
            .map(|(i, _)| i)
    }

    fn pick_clook(&self) -> Option<usize> {
        // Nearest request at or above the head; else the lowest block.
        let ahead = self
            .queue
            .iter()
            .enumerate()
            .filter(|(_, r)| r.block.get() >= self.head)
            .min_by_key(|(i, r)| (r.block.get(), *i));
        if let Some((i, _)) = ahead {
            return Some(i);
        }
        self.queue
            .iter()
            .enumerate()
            .min_by_key(|(i, r)| (r.block.get(), *i))
            .map(|(i, _)| i)
    }
}

impl Scheduler for ScanScheduler {
    fn on_arrival(&mut self, request: Request, _now: SimTime) {
        self.queue.push(request);
    }

    fn next_for(&mut self, _server: ServerId, _now: SimTime) -> Dispatch {
        let idx = match self.mode {
            SweepMode::Scan => self.pick_scan(),
            SweepMode::CircularLook => self.pick_clook(),
        };
        match idx {
            Some(i) => {
                let request = self.queue.swap_remove(i);
                let block = request.block.get();
                if self.mode == SweepMode::Scan {
                    if block < self.head {
                        self.upward = false;
                    } else if block > self.head {
                        self.upward = true;
                    }
                }
                self.head = block;
                Dispatch::Serve(request, ServiceClass::PRIMARY)
            }
            None => Dispatch::Idle,
        }
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }
}

impl fmt::Display for ScanScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}(head@{}, {} queued, {})",
            self.mode,
            self.head,
            self.queue.len(),
            if self.upward { "up" } else { "down" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_trace::LogicalBlock;

    fn req(lba: u64) -> Request {
        Request::at(SimTime::ZERO).with_block(LogicalBlock::new(lba))
    }

    fn drain_order<S: Scheduler>(s: &mut S) -> Vec<u64> {
        let mut order = Vec::new();
        while let Dispatch::Serve(r, _) = s.next_for(ServerId::new(0), SimTime::ZERO) {
            order.push(r.block.get());
        }
        order
    }

    #[test]
    fn sstf_greedy_nearest() {
        let mut s = SstfScheduler::new();
        for lba in [100u64, 50, 500, 60] {
            s.on_arrival(req(lba), SimTime::ZERO);
        }
        // Head 0 -> 50 -> 60 -> 100 -> 500.
        assert_eq!(drain_order(&mut s), vec![50, 60, 100, 500]);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn sstf_tie_breaks_by_insertion() {
        let mut s = SstfScheduler::new();
        s.on_arrival(req(10), SimTime::ZERO);
        s.on_arrival(req(10), SimTime::ZERO);
        let order = drain_order(&mut s);
        assert_eq!(order, vec![10, 10]);
    }

    #[test]
    fn scan_sweeps_up_then_down() {
        let mut s = ScanScheduler::new(SweepMode::Scan);
        // Head at 0 sweeping up; serve 100, 500; then reverse for 30.
        for lba in [500u64, 100] {
            s.on_arrival(req(lba), SimTime::ZERO);
        }
        assert_eq!(drain_order(&mut s), vec![100, 500]);
        s.on_arrival(req(30), SimTime::ZERO);
        s.on_arrival(req(600), SimTime::ZERO);
        // Upward from 500: serve 600 first, then come back down for 30.
        assert_eq!(drain_order(&mut s), vec![600, 30]);
    }

    #[test]
    fn clook_wraps_to_lowest() {
        let mut s = ScanScheduler::new(SweepMode::CircularLook);
        for lba in [400u64, 100, 900] {
            s.on_arrival(req(lba), SimTime::ZERO);
        }
        assert_eq!(drain_order(&mut s), vec![100, 400, 900]);
        // Head at 900: new low requests are served after wrapping.
        s.on_arrival(req(50), SimTime::ZERO);
        s.on_arrival(req(950), SimTime::ZERO);
        assert_eq!(drain_order(&mut s), vec![950, 50]);
    }

    #[test]
    fn sstf_beats_fcfs_on_seek_distance() {
        // Total head travel under SSTF must not exceed FCFS's on a
        // scattered batch.
        let blocks = [900u64, 10, 800, 20, 700, 30, 600, 40];
        let mut sstf = SstfScheduler::new();
        for &b in &blocks {
            sstf.on_arrival(req(b), SimTime::ZERO);
        }
        let travel = |order: &[u64]| -> u64 {
            let mut pos = 0u64;
            let mut total = 0u64;
            for &b in order {
                total += b.abs_diff(pos);
                pos = b;
            }
            total
        };
        let sstf_travel = travel(&drain_order(&mut sstf));
        let fcfs_travel = travel(&blocks);
        assert!(
            sstf_travel < fcfs_travel / 2,
            "SSTF {sstf_travel} vs FCFS {fcfs_travel}"
        );
    }

    #[test]
    fn empty_schedulers_idle() {
        let mut s = SstfScheduler::new();
        assert_eq!(s.next_for(ServerId::new(0), SimTime::ZERO), Dispatch::Idle);
        let mut e = ScanScheduler::new(SweepMode::Scan);
        assert_eq!(e.next_for(ServerId::new(0), SimTime::ZERO), Dispatch::Idle);
        assert_eq!(e.mode, SweepMode::Scan);
        assert!(s.to_string().contains("SSTF"));
        assert!(e.to_string().contains("Scan"));
    }
}
