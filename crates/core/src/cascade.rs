//! Multi-level decomposition — the paper's "two (or more in general)
//! classes" generalisation.
//!
//! A cascade of RTT classifiers with graduated deadlines: an arriving
//! request is admitted to the first (tightest) class with a free slot,
//! spilling down through progressively looser classes, and only requests
//! that fit nowhere land in best-effort. This yields a full response-time
//! *distribution* SLA — e.g. 90% within 10 ms, 98% within 50 ms, rest best
//! effort — from the same bounded-counter machinery as two-class RTT.

use std::fmt;

use gqos_sim::ServiceClass;
use gqos_trace::{Iops, SimDuration, Workload};

use crate::kernel::{RttParams, RttState};

/// One level of a cascade: a capacity share and its deadline.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct CascadeLevel {
    /// Capacity reserved for this level.
    pub capacity: Iops,
    /// Response-time bound of this level.
    pub deadline: SimDuration,
}

/// A graduated multi-class decomposer.
///
/// Levels must be ordered by strictly increasing deadline. Class `i`
/// corresponds to level `i`; requests that fit no level are classified
/// `ServiceClass::new(levels.len())` (best effort).
///
/// # Examples
///
/// ```
/// use gqos_core::{CascadeDecomposer, CascadeLevel};
/// use gqos_trace::{Iops, SimDuration, SimTime, Workload};
///
/// let levels = vec![
///     CascadeLevel { capacity: Iops::new(200.0), deadline: SimDuration::from_millis(10) },
///     CascadeLevel { capacity: Iops::new(100.0), deadline: SimDuration::from_millis(50) },
/// ];
/// let cascade = CascadeDecomposer::new(levels);
/// let w = Workload::from_arrivals(vec![SimTime::ZERO; 10]);
/// let result = cascade.decompose(&w);
/// // 2 fit in the 10 ms class, 5 more in the 50 ms class, 3 best effort.
/// assert_eq!(result.count_of(0), 2);
/// assert_eq!(result.count_of(1), 5);
/// assert_eq!(result.count_of(2), 3);
/// ```
#[derive(Clone, Debug)]
pub struct CascadeDecomposer {
    levels: Vec<RttParams>,
}

impl CascadeDecomposer {
    /// Creates a cascade from levels ordered by increasing deadline.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty, deadlines are not strictly increasing,
    /// or any level's `⌊C·δ⌋` is zero.
    pub fn new(levels: Vec<CascadeLevel>) -> Self {
        assert!(!levels.is_empty(), "cascade needs at least one level");
        for pair in levels.windows(2) {
            assert!(
                pair[0].deadline < pair[1].deadline,
                "cascade deadlines must be strictly increasing"
            );
        }
        for (i, level) in levels.iter().enumerate() {
            assert!(
                level.capacity.requests_within(level.deadline) >= 1,
                "level {i} admits no requests (C x delta < 1)"
            );
        }
        let levels = levels
            .iter()
            .map(|l| RttParams::new(l.capacity, l.deadline))
            .collect();
        CascadeDecomposer { levels }
    }

    /// Number of classes including the trailing best-effort class.
    pub fn classes(&self) -> usize {
        self.levels.len() + 1
    }

    /// Decomposes a workload: each request is offered to the levels in
    /// order and assigned the first that admits it (each level runs the
    /// two-class admit rule, [`RttState::admit`], on its own emulated
    /// dedicated server), else the best-effort class.
    ///
    /// A level that an arrival never reaches is not drained then: its next
    /// `admit` drains every completion since in one closed-form step, so
    /// the deferral changes no decision.
    pub fn decompose(&self, workload: &Workload) -> CascadeDecomposition {
        let mut states = vec![RttState::default(); self.levels.len()];
        let mut assignments = Vec::with_capacity(workload.len());
        let mut counts = vec![0u64; self.classes()];
        for &arrival_ns in workload.arrival_column().nanos() {
            let assigned = self
                .levels
                .iter()
                .zip(&mut states)
                .position(|(&p, s)| s.admit(p, arrival_ns))
                .unwrap_or(self.levels.len());
            counts[assigned] += 1;
            assignments.push(ServiceClass::new(assigned as u8));
        }
        CascadeDecomposition {
            assignments,
            counts,
        }
    }
}

impl fmt::Display for CascadeDecomposer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cascade of {} levels", self.levels.len())
    }
}

/// The per-class outcome of a cascade decomposition.
#[derive(Clone, Debug)]
pub struct CascadeDecomposition {
    assignments: Vec<ServiceClass>,
    counts: Vec<u64>,
}

impl CascadeDecomposition {
    /// Class of each request by position.
    pub fn assignments(&self) -> &[ServiceClass] {
        &self.assignments
    }

    /// Requests assigned to class `class`.
    pub fn count_of(&self, class: u8) -> u64 {
        self.counts[class as usize]
    }

    /// Cumulative fraction of requests in classes `0..=class` — the
    /// graduated SLA distribution.
    pub fn cumulative_fraction(&self, class: u8) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let covered: u64 = self.counts[..=(class as usize)].iter().sum();
        covered as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_trace::SimTime;

    fn lvl(c: f64, ms: u64) -> CascadeLevel {
        CascadeLevel {
            capacity: Iops::new(c),
            deadline: SimDuration::from_millis(ms),
        }
    }

    #[test]
    fn single_level_matches_two_class_rtt() {
        let cascade = CascadeDecomposer::new(vec![lvl(200.0, 10)]);
        let w = Workload::from_arrivals(vec![SimTime::ZERO; 5]);
        let d = cascade.decompose(&w);
        // maxQ1 = 2 -> 2 primary, 3 best effort.
        assert_eq!(d.count_of(0), 2);
        assert_eq!(d.count_of(1), 3);
        let rtt = crate::rtt::decompose(&w, Iops::new(200.0), SimDuration::from_millis(10));
        assert_eq!(d.count_of(0), rtt.primary_count());
    }

    #[test]
    fn burst_spills_through_levels() {
        let cascade = CascadeDecomposer::new(vec![lvl(300.0, 10), lvl(100.0, 50), lvl(50.0, 200)]);
        // maxQ per level: 3, 5, 10.
        let w = Workload::from_arrivals(vec![SimTime::ZERO; 20]);
        let d = cascade.decompose(&w);
        assert_eq!(d.count_of(0), 3);
        assert_eq!(d.count_of(1), 5);
        assert_eq!(d.count_of(2), 10);
        assert_eq!(d.count_of(3), 2);
        assert!((d.cumulative_fraction(1) - 0.4).abs() < 1e-12);
        assert_eq!(d.cumulative_fraction(3), 1.0);
    }

    #[test]
    fn calm_traffic_stays_in_the_top_class() {
        let cascade = CascadeDecomposer::new(vec![lvl(200.0, 10), lvl(50.0, 100)]);
        let w = Workload::from_arrivals((0..50).map(|i| SimTime::from_millis(i * 20)));
        let d = cascade.decompose(&w);
        assert_eq!(d.count_of(0), 50);
        assert_eq!(d.cumulative_fraction(0), 1.0);
    }

    #[test]
    fn levels_recover_after_draining() {
        let cascade = CascadeDecomposer::new(vec![lvl(100.0, 20)]); // maxQ 2
        let mut arrivals = vec![SimTime::ZERO; 3];
        arrivals.push(SimTime::from_secs(1)); // long after the burst drained
        let w = Workload::from_arrivals(arrivals);
        let d = cascade.decompose(&w);
        assert_eq!(d.count_of(0), 3);
        assert_eq!(d.count_of(1), 1);
    }

    #[test]
    fn classes_counts_levels_plus_best_effort() {
        let cascade = CascadeDecomposer::new(vec![lvl(100.0, 20), lvl(100.0, 40)]);
        assert_eq!(cascade.classes(), 3);
        assert_eq!(cascade.levels.len(), 2);
        assert!(cascade.to_string().contains("2 levels"));
    }

    #[test]
    fn empty_workload_is_vacuously_covered() {
        let cascade = CascadeDecomposer::new(vec![lvl(100.0, 20)]);
        let d = cascade.decompose(&Workload::new());
        assert_eq!(d.cumulative_fraction(0), 1.0);
        assert!(d.assignments().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_cascade_rejected() {
        let _ = CascadeDecomposer::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unordered_deadlines_rejected() {
        let _ = CascadeDecomposer::new(vec![lvl(100.0, 50), lvl(100.0, 10)]);
    }

    #[test]
    #[should_panic(expected = "admits no requests")]
    fn degenerate_level_rejected() {
        let _ = CascadeDecomposer::new(vec![lvl(10.0, 10)]);
    }
}
