//! A deterministic LRU block cache in front of a service model.
//!
//! [`DiskModel`](crate::DiskModel) offers a *probabilistic* cache for quick
//! what-ifs; this wrapper models the real thing: an LRU-managed set of
//! cache lines keyed by block address, write-through on writes. Hit rates
//! emerge from the workload's actual locality instead of a dialled-in
//! probability.

use std::collections::HashMap;
use std::fmt;

use gqos_sim::ServiceModel;
use gqos_trace::{Request, RequestKind, SimDuration, SimTime};

/// LRU cache wrapper around any [`ServiceModel`].
///
/// Reads that hit cost the configured `hit_time`; read misses and
/// all writes go to the inner model (write-through) and populate the cache.
///
/// # Examples
///
/// ```
/// use gqos_disk::{CachedDisk, DiskModel};
/// use gqos_sim::ServiceModel;
/// use gqos_trace::{LogicalBlock, Request, SimDuration, SimTime};
///
/// let mut disk = CachedDisk::new(DiskModel::builder().build(), 1024,
///     SimDuration::from_micros(50));
/// let r = Request::at(SimTime::ZERO).with_block(LogicalBlock::new(42));
/// let miss = disk.service_time(&r, SimTime::ZERO);
/// let hit = disk.service_time(&r, SimTime::ZERO);
/// assert!(hit < miss);
/// assert_eq!(hit, SimDuration::from_micros(50));
/// ```
#[derive(Clone, Debug)]
pub struct CachedDisk<M> {
    inner: M,
    capacity: usize,
    hit_time: SimDuration,
    /// Block -> LRU stamp; evict the smallest stamp when full.
    lines: HashMap<u64, u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl<M> CachedDisk<M> {
    /// Wraps `inner` with a cache of `capacity` lines (one block each) and
    /// the given hit service time.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(inner: M, capacity: usize, hit_time: SimDuration) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        CachedDisk {
            inner,
            capacity,
            hit_time,
            lines: HashMap::with_capacity(capacity),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Read hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Read misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Observed hit rate over reads, or 0.0 before any read.
    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Cached lines currently resident.
    pub fn resident(&self) -> usize {
        self.lines.len()
    }

    /// Consumes the wrapper, returning the inner model.
    pub fn into_inner(self) -> M {
        self.inner
    }

    fn touch(&mut self, block: u64) {
        self.clock += 1;
        if self.lines.len() >= self.capacity && !self.lines.contains_key(&block) {
            // Evict the least recently used line.
            if let Some((&victim, _)) = self.lines.iter().min_by_key(|&(_, &stamp)| stamp) {
                self.lines.remove(&victim);
            }
        }
        self.lines.insert(block, self.clock);
    }
}

impl<M: ServiceModel> ServiceModel for CachedDisk<M> {
    fn service_time(&mut self, request: &Request, now: SimTime) -> SimDuration {
        let block = request.block.get();
        match request.kind {
            RequestKind::Read => {
                if self.lines.contains_key(&block) {
                    self.hits += 1;
                    self.touch(block);
                    self.hit_time
                } else {
                    self.misses += 1;
                    let t = self.inner.service_time(request, now);
                    self.touch(block);
                    t
                }
            }
            // Write-through: pay the device, keep the line warm.
            RequestKind::Write => {
                let t = self.inner.service_time(request, now);
                self.touch(block);
                t
            }
        }
    }
}

impl<M> fmt::Display for CachedDisk<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LRU cache ({}/{} lines, hit rate {:.0}%)",
            self.lines.len(),
            self.capacity,
            self.hit_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DiskModel;
    use gqos_trace::LogicalBlock;

    fn read_at(lba: u64) -> Request {
        Request::at(SimTime::ZERO).with_block(LogicalBlock::new(lba))
    }

    fn write_at(lba: u64) -> Request {
        read_at(lba).with_kind(RequestKind::Write)
    }

    fn cache(capacity: usize) -> CachedDisk<DiskModel> {
        CachedDisk::new(
            DiskModel::builder().build(),
            capacity,
            SimDuration::from_micros(50),
        )
    }

    #[test]
    fn repeat_reads_hit() {
        let mut c = cache(16);
        let miss = c.service_time(&read_at(7), SimTime::ZERO);
        let hit = c.service_time(&read_at(7), SimTime::ZERO);
        assert!(miss > hit);
        assert_eq!(hit, SimDuration::from_micros(50));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hit_rate(), 0.5);
    }

    #[test]
    fn lru_evicts_the_coldest_line() {
        let mut c = cache(2);
        c.service_time(&read_at(1), SimTime::ZERO); // miss, resident {1}
        c.service_time(&read_at(2), SimTime::ZERO); // miss, {1,2}
        c.service_time(&read_at(1), SimTime::ZERO); // hit, 1 is now hottest
        c.service_time(&read_at(3), SimTime::ZERO); // miss, evicts 2
        assert_eq!(c.resident(), 2);
        assert_eq!(c.service_time(&read_at(1), SimTime::ZERO), c.hit_time); // still hot
        let t2 = c.service_time(&read_at(2), SimTime::ZERO); // was evicted
        assert!(t2 > c.hit_time);
    }

    #[test]
    fn writes_populate_the_cache() {
        let mut c = cache(8);
        let wt = c.service_time(&write_at(9), SimTime::ZERO);
        assert!(wt > c.hit_time, "write-through pays the device");
        let rt = c.service_time(&read_at(9), SimTime::ZERO);
        assert_eq!(rt, c.hit_time, "write left the line warm");
    }

    #[test]
    fn working_set_locality_shows_up_in_hit_rate() {
        let mut c = cache(64);
        // 90% of reads within a 32-block working set, 10% cold.
        for i in 0..1000u64 {
            let lba = if i % 10 == 0 {
                1_000_000 + i // cold
            } else {
                i % 32 // hot set
            };
            c.service_time(&read_at(lba), SimTime::ZERO);
        }
        assert!(c.hit_rate() > 0.8, "hit rate {:.2}", c.hit_rate());
    }

    #[test]
    fn capacity_one_still_works() {
        let mut c = cache(1);
        c.service_time(&read_at(1), SimTime::ZERO);
        c.service_time(&read_at(2), SimTime::ZERO);
        assert_eq!(c.resident(), 1);
        assert!(c.service_time(&read_at(2), SimTime::ZERO) == c.hit_time);
    }

    #[test]
    fn into_inner_returns_the_disk() {
        let c = cache(4);
        let _disk: DiskModel = c.into_inner();
    }

    #[test]
    fn display_mentions_hit_rate() {
        let mut c = cache(4);
        c.service_time(&read_at(1), SimTime::ZERO);
        c.service_time(&read_at(1), SimTime::ZERO);
        assert!(c.to_string().contains("hit rate 50%"));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = cache(0);
    }

    #[test]
    fn deterministic_behaviour() {
        let run = || {
            let mut c = cache(8);
            (0..100u64)
                .map(|i| c.service_time(&read_at(i % 13), SimTime::ZERO))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
