//! RTT — the paper's optimal online decomposition algorithm (Algorithm 1).
//!
//! RTT partitions an arrival stream into a primary class `Q1` (guaranteed a
//! response time of `δ` at capacity `C`) and an overflow class `Q2`, using a
//! single bounded counter: a request joins `Q1` if fewer than
//! `maxQ1 = ⌊C·δ⌋` primary requests are pending, else it is diverted.
//! Despite its simplicity it is *optimal*: no partitioning algorithm, online
//! or offline, can place more requests in the deadline-meeting class
//! (Lemmas 1–3 of the paper; verified against brute force and the Lemma 1
//! bound in this module's tests).
//!
//! The offline entry points ([`decompose`], [`within_miss_budget`],
//! [`overflow_count`], [`DecomposeScratch`]) run on the crate's
//! allocation-free integer kernels, scanning the workload's cached columnar
//! arrival view ([`Workload::arrival_column`]) instead of the request
//! structs; the online [`RttClassifier`] remains the per-request admission
//! rule schedulers embed.

use std::error::Error;
use std::fmt;

use gqos_sim::ServiceClass;
use gqos_trace::{Iops, SimDuration, Workload};

use crate::kernel::{scan_overflow, scan_within_budget, RttParams, RttState};

/// Typed overflow error: `⌊C·δ⌋` exceeds the 64-bit primary-queue counter.
///
/// The queue bound is an integer; a `(C, δ)` pair whose product reaches
/// `2^64` cannot be represented (and no physical trace could fill such a
/// queue anyway). [`checked_max_queue`] reports the offending pair instead
/// of silently wrapping or saturating.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CapacityOverflow {
    /// The capacity of the offending pair.
    pub capacity: Iops,
    /// The deadline of the offending pair.
    pub deadline: SimDuration,
}

impl fmt::Display for CapacityOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "C x delta = {} x {} overflows the 64-bit queue bound",
            self.capacity, self.deadline
        )
    }
}

impl Error for CapacityOverflow {}

/// The primary-queue bound `⌊C·δ⌋` with an overflow check: `Err` when the
/// product does not fit a `u64` instead of a saturating cast.
///
/// # Panics
///
/// Panics if `deadline` is zero.
///
/// # Errors
///
/// Returns [`CapacityOverflow`] when `C·δ ≥ 2^64`.
///
/// # Examples
///
/// ```
/// use gqos_core::checked_max_queue;
/// use gqos_trace::{Iops, SimDuration};
///
/// let delta = SimDuration::from_millis(20);
/// assert_eq!(checked_max_queue(Iops::new(100.0), delta), Ok(2));
/// assert!(checked_max_queue(Iops::new(1e21), SimDuration::from_secs(100)).is_err());
/// ```
pub fn checked_max_queue(capacity: Iops, deadline: SimDuration) -> Result<u64, CapacityOverflow> {
    assert!(!deadline.is_zero(), "deadline must be positive");
    let product = capacity.get() * deadline.as_secs_f64();
    // `u64::MAX as f64` rounds up to 2^64 exactly, so `>=` catches every
    // product the counter cannot hold.
    if product >= u64::MAX as f64 {
        return Err(CapacityOverflow { capacity, deadline });
    }
    Ok(product as u64)
}

/// Online RTT classifier: the bounded-queue admission rule, reusable by any
/// recombination scheduler.
///
/// The embedding scheduler must report primary-class departures via
/// [`primary_departed`](RttClassifier::primary_departed) so the pending
/// count stays accurate.
///
/// # Examples
///
/// ```
/// use gqos_core::RttClassifier;
/// use gqos_sim::ServiceClass;
/// use gqos_trace::{Iops, SimDuration};
///
/// // C·δ = 100 × 0.02 = 2 primary slots.
/// let mut rtt = RttClassifier::new(Iops::new(100.0), SimDuration::from_millis(20));
/// assert_eq!(rtt.classify(), ServiceClass::PRIMARY);
/// assert_eq!(rtt.classify(), ServiceClass::PRIMARY);
/// assert_eq!(rtt.classify(), ServiceClass::OVERFLOW); // Q1 full
/// rtt.primary_departed();
/// assert_eq!(rtt.classify(), ServiceClass::PRIMARY);
/// ```
#[derive(Clone, Debug)]
pub struct RttClassifier {
    capacity: Iops,
    deadline: SimDuration,
    max_q1: u64,
    len_q1: u64,
    /// Degradation factor applied to `capacity` when sizing `max_q1`;
    /// 1.0 on a healthy server.
    degradation: f64,
}

impl RttClassifier {
    /// Creates a classifier for the given primary capacity and deadline.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero, if `⌊C·δ⌋` is zero (the capacity
    /// cannot complete even one request within the deadline, so no request
    /// could ever be guaranteed), or if `⌊C·δ⌋` overflows the 64-bit queue
    /// counter (see [`checked_max_queue`]).
    pub fn new(capacity: Iops, deadline: SimDuration) -> Self {
        let max_q1 = checked_max_queue(capacity, deadline).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            max_q1 >= 1,
            "C x delta = {} x {} admits no requests; raise capacity or deadline",
            capacity,
            deadline
        );
        RttClassifier {
            capacity,
            deadline,
            max_q1,
            len_q1: 0,
            degradation: 1.0,
        }
    }

    /// Pending primary requests (queued or in service).
    pub fn len_q1(&self) -> u64 {
        self.len_q1
    }

    /// Remaining primary slots, `maxQ1 − lenQ1` — the paper's per-request
    /// slack value at admission time. Saturates at zero: after a downward
    /// renegotiation `lenQ1` may temporarily exceed the shrunken bound.
    pub fn slack(&self) -> u64 {
        self.max_q1.saturating_sub(self.len_q1)
    }

    /// Renegotiates the admission bound against an estimated effective
    /// capacity `C_eff = factor · C`: shrinks (or restores)
    /// `maxQ1 = ⌊C_eff·δ⌋`, so *new* arrivals are shed to the overflow
    /// class while already-admitted requests keep their slots. A factor of
    /// zero (outage) closes Q1 to new admissions entirely.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite, or if
    /// `⌊C_eff·δ⌋` overflows the 64-bit queue counter (only possible with a
    /// factor far above 1 — see [`checked_max_queue`]).
    pub fn set_degradation(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "degradation factor must be finite and non-negative: {factor}"
        );
        self.degradation = factor;
        self.max_q1 = match Iops::try_new(self.capacity.get() * factor) {
            Some(c_eff) => {
                checked_max_queue(c_eff, self.deadline).unwrap_or_else(|e| panic!("{e}"))
            }
            None => 0,
        };
    }

    /// The current degradation factor (1.0 on a healthy server).
    pub fn degradation(&self) -> f64 {
        self.degradation
    }

    /// The capacity the classifier was built with.
    pub fn capacity(&self) -> Iops {
        self.capacity
    }

    /// The deadline the classifier was built with.
    pub fn deadline(&self) -> SimDuration {
        self.deadline
    }

    /// Classifies the next arriving request (Algorithm 1): `PRIMARY` if it
    /// fits in `Q1`, `OVERFLOW` otherwise. Increments the pending count on
    /// admission.
    pub fn classify(&mut self) -> ServiceClass {
        if self.len_q1 < self.max_q1 {
            self.len_q1 += 1;
            ServiceClass::PRIMARY
        } else {
            ServiceClass::OVERFLOW
        }
    }

    /// Records that a primary request left the system (service completed).
    ///
    /// # Panics
    ///
    /// Panics if no primary request is pending (scheduler bookkeeping bug).
    pub fn primary_departed(&mut self) {
        assert!(self.len_q1 > 0, "primary departure with empty Q1");
        self.len_q1 -= 1;
    }
}

impl fmt::Display for RttClassifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RTT(C={}, delta={}, {}/{} slots used)",
            self.capacity, self.deadline, self.len_q1, self.max_q1
        )
    }
}

/// The result of decomposing a whole workload offline.
#[derive(Clone, Debug)]
pub struct Decomposition {
    assignments: Vec<ServiceClass>,
    primary: u64,
    overflow: u64,
    capacity: Iops,
    deadline: SimDuration,
}

impl Decomposition {
    /// Class of each request, indexed by
    /// [`RequestId`](gqos_trace::RequestId) position.
    pub fn assignments(&self) -> &[ServiceClass] {
        &self.assignments
    }

    /// Number of requests admitted to the primary class.
    pub fn primary_count(&self) -> u64 {
        self.primary
    }

    /// Number of requests diverted to the overflow class (the paper's
    /// "dropped" count — they are still served, just not guaranteed).
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// Fraction of the workload in the primary class, in `[0, 1]`.
    /// Returns 1.0 for an empty workload (vacuously guaranteed).
    pub fn primary_fraction(&self) -> f64 {
        let total = self.primary + self.overflow;
        if total == 0 {
            1.0
        } else {
            self.primary as f64 / total as f64
        }
    }

    /// The capacity used for the decomposition.
    pub fn capacity(&self) -> Iops {
        self.capacity
    }

    /// The deadline used for the decomposition.
    pub fn deadline(&self) -> SimDuration {
        self.deadline
    }

    /// Splits `workload` into its primary and overflow sub-workloads
    /// (re-identified), in that order.
    ///
    /// # Panics
    ///
    /// Panics if `workload` is not the workload this decomposition was
    /// computed from (length mismatch).
    pub fn split(&self, workload: &Workload) -> (Workload, Workload) {
        assert_eq!(
            workload.len(),
            self.assignments.len(),
            "decomposition does not match workload"
        );
        let mut q1 = Vec::with_capacity(self.primary as usize);
        let mut q2 = Vec::with_capacity(self.overflow as usize);
        for r in workload.iter() {
            match self.assignments[r.id.as_usize()] {
                ServiceClass::PRIMARY => q1.push(*r),
                _ => q2.push(*r),
            }
        }
        (Workload::from_requests(q1), Workload::from_requests(q2))
    }
}

impl fmt::Display for Decomposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2}% primary ({} of {} requests) at C={}",
            self.primary_fraction() * 100.0,
            self.primary,
            self.primary + self.overflow,
            self.capacity
        )
    }
}

/// Decomposes a whole workload offline with RTT against a dedicated
/// rate-`C` primary server (deterministic service time `1/C`).
///
/// Every admitted request is guaranteed to finish within `deadline` when the
/// primary class is served FCFS at capacity `capacity` — see
/// `q1_meets_deadline_by_construction` in the tests.
///
/// # Panics
///
/// Panics if `deadline` is zero or `⌊C·δ⌋ = 0` (see [`RttClassifier::new`]).
///
/// # Examples
///
/// ```
/// use gqos_core::decompose;
/// use gqos_trace::{Iops, SimDuration, SimTime, Workload};
///
/// // Three simultaneous arrivals, capacity for two within the deadline.
/// let w = Workload::from_arrivals(vec![SimTime::ZERO; 3]);
/// let d = decompose(&w, Iops::new(100.0), SimDuration::from_millis(20));
/// assert_eq!(d.primary_count(), 2);
/// assert_eq!(d.overflow_count(), 1);
/// ```
pub fn decompose(workload: &Workload, capacity: Iops, deadline: SimDuration) -> Decomposition {
    let mut scratch = DecomposeScratch::new();
    let (primary, overflow) = scratch
        .run(workload, RttParams::new(capacity, deadline), u64::MAX)
        .expect("unbudgeted scan always completes");
    Decomposition {
        assignments: scratch.assignments,
        primary,
        overflow,
        capacity,
        deadline,
    }
}

/// Like [`decompose`], but aborts as soon as the overflow count exceeds
/// `budget` (the planner's miss budget `N − ⌈f·N⌉`), returning `None`.
///
/// When it returns `Some`, the decomposition is identical to what
/// [`decompose`] produces and its overflow count is at most `budget`. The
/// early exit is what makes the capacity search cheap on failing probes: a
/// capacity far below `Cmin` diverts requests from the start of the trace,
/// so the probe touches only a small prefix instead of scanning all `N`
/// requests.
///
/// # Panics
///
/// Panics if `deadline` is zero or `⌊C·δ⌋ = 0` (see [`RttClassifier::new`]).
///
/// # Examples
///
/// ```
/// use gqos_core::{decompose, decompose_with_budget};
/// use gqos_trace::{Iops, SimDuration, SimTime, Workload};
///
/// let w = Workload::from_arrivals(vec![SimTime::ZERO; 3]);
/// let (c, d) = (Iops::new(100.0), SimDuration::from_millis(20));
/// // Capacity for two of three: one overflow.
/// assert!(decompose_with_budget(&w, c, d, 0).is_none());
/// let full = decompose_with_budget(&w, c, d, 1).expect("within budget");
/// assert_eq!(full.assignments(), decompose(&w, c, d).assignments());
/// ```
pub fn decompose_with_budget(
    workload: &Workload,
    capacity: Iops,
    deadline: SimDuration,
    budget: u64,
) -> Option<Decomposition> {
    let mut scratch = DecomposeScratch::new();
    let counts = scratch.run(workload, RttParams::new(capacity, deadline), budget)?;
    let (primary, overflow) = counts;
    Some(Decomposition {
        assignments: scratch.assignments,
        primary,
        overflow,
        capacity,
        deadline,
    })
}

/// Counting-only budget probe: does RTT at this capacity divert at most
/// `budget` requests? Equivalent to
/// `decompose_with_budget(..).is_some()` without allocating the
/// per-request assignment vector — the planner's inner-loop primitive.
///
/// # Panics
///
/// Panics if `deadline` is zero or `⌊C·δ⌋ = 0` (see [`RttClassifier::new`]).
pub fn within_miss_budget(
    workload: &Workload,
    capacity: Iops,
    deadline: SimDuration,
    budget: u64,
) -> bool {
    scan_within_budget(
        workload.arrival_column().nanos(),
        RttParams::new(capacity, deadline),
        budget,
    )
}

/// The overflow count of [`decompose`] without materialising the
/// decomposition — a single allocation-free pass over the arrival column,
/// used by [`CapacityPlanner::fraction_guaranteed`](crate::CapacityPlanner::fraction_guaranteed).
///
/// # Panics
///
/// Panics if `deadline` is zero or `⌊C·δ⌋ = 0` (see [`RttClassifier::new`]).
pub fn overflow_count(workload: &Workload, capacity: Iops, deadline: SimDuration) -> u64 {
    scan_overflow(
        workload.arrival_column().nanos(),
        RttParams::new(capacity, deadline),
    )
}

/// Reusable storage for offline decompositions: run many probes, allocate
/// (at most) once.
///
/// [`decompose`] allocates a fresh assignment vector per call — fine for a
/// one-shot analysis, wasteful inside a planner loop or an experiment grid
/// that decomposes the same trace at hundreds of capacities. A scratch
/// holds the vector across calls; each call clears and refills it, growing
/// only when a workload is larger than anything seen before.
///
/// # Examples
///
/// ```
/// use gqos_core::{decompose, DecomposeScratch};
/// use gqos_trace::{Iops, SimDuration, SimTime, Workload};
///
/// let w = Workload::from_arrivals(vec![SimTime::ZERO; 3]);
/// let (c, d) = (Iops::new(100.0), SimDuration::from_millis(20));
/// let mut scratch = DecomposeScratch::new();
/// let view = scratch.decompose(&w, c, d);
/// assert_eq!(view.overflow_count(), 1);
/// assert_eq!(view.assignments(), decompose(&w, c, d).assignments());
/// ```
#[derive(Clone, Default, Debug)]
pub struct DecomposeScratch {
    assignments: Vec<ServiceClass>,
}

impl DecomposeScratch {
    /// Creates an empty scratch (first use allocates).
    pub fn new() -> Self {
        DecomposeScratch::default()
    }

    /// Creates a scratch pre-sized for workloads of `capacity` requests.
    pub fn with_capacity(capacity: usize) -> Self {
        DecomposeScratch {
            assignments: Vec::with_capacity(capacity),
        }
    }

    /// Decomposes `workload` into this scratch, returning a borrowed view
    /// with the same contents [`decompose`] would produce.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero or `⌊C·δ⌋ = 0` (see
    /// [`RttClassifier::new`]).
    pub fn decompose(
        &mut self,
        workload: &Workload,
        capacity: Iops,
        deadline: SimDuration,
    ) -> ScratchDecomposition<'_> {
        let (primary, overflow) = self
            .run(workload, RttParams::new(capacity, deadline), u64::MAX)
            .expect("unbudgeted scan always completes");
        ScratchDecomposition {
            assignments: &self.assignments,
            primary,
            overflow,
            capacity,
            deadline,
        }
    }

    /// Budgeted variant: like [`decompose_with_budget`], `None` as soon as
    /// the overflow count exceeds `budget` (the scratch then holds only the
    /// scanned prefix and is ready for reuse).
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero or `⌊C·δ⌋ = 0` (see
    /// [`RttClassifier::new`]).
    pub fn decompose_with_budget(
        &mut self,
        workload: &Workload,
        capacity: Iops,
        deadline: SimDuration,
        budget: u64,
    ) -> Option<ScratchDecomposition<'_>> {
        let (primary, overflow) = self.run(workload, RttParams::new(capacity, deadline), budget)?;
        Some(ScratchDecomposition {
            assignments: &self.assignments,
            primary,
            overflow,
            capacity,
            deadline,
        })
    }

    /// Algorithm 1 over the cached arrival column: fills `assignments` and
    /// returns `(primary, overflow)` counts, or `None` once overflow
    /// exceeds `budget`.
    fn run(&mut self, workload: &Workload, params: RttParams, budget: u64) -> Option<(u64, u64)> {
        self.assignments.clear();
        let arrivals = workload.arrival_column().nanos();
        self.assignments.reserve(arrivals.len());
        let mut state = RttState::default();
        let mut primary = 0u64;
        let mut overflow = 0u64;
        for &arrival in arrivals {
            if state.admit(params, arrival) {
                primary += 1;
                self.assignments.push(ServiceClass::PRIMARY);
            } else {
                overflow += 1;
                if overflow > budget {
                    return None;
                }
                self.assignments.push(ServiceClass::OVERFLOW);
            }
        }
        Some((primary, overflow))
    }
}

/// A decomposition whose assignment storage is borrowed from a
/// [`DecomposeScratch`] — the counts and accessors of [`Decomposition`]
/// without owning the vector.
#[derive(Copy, Clone, Debug)]
pub struct ScratchDecomposition<'s> {
    assignments: &'s [ServiceClass],
    primary: u64,
    overflow: u64,
    capacity: Iops,
    deadline: SimDuration,
}

impl ScratchDecomposition<'_> {
    /// Class of each request, indexed by
    /// [`RequestId`](gqos_trace::RequestId) position.
    pub fn assignments(&self) -> &[ServiceClass] {
        self.assignments
    }

    /// Number of requests admitted to the primary class.
    pub fn primary_count(&self) -> u64 {
        self.primary
    }

    /// Number of requests diverted to the overflow class.
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// Fraction of the workload in the primary class, in `[0, 1]`
    /// (1.0 for an empty workload).
    pub fn primary_fraction(&self) -> f64 {
        let total = self.primary + self.overflow;
        if total == 0 {
            1.0
        } else {
            self.primary as f64 / total as f64
        }
    }

    /// The capacity used for the decomposition.
    pub fn capacity(&self) -> Iops {
        self.capacity
    }

    /// The deadline used for the decomposition.
    pub fn deadline(&self) -> SimDuration {
        self.deadline
    }
}

/// The smallest number of requests that must be diverted at this capacity
/// and deadline by *any* algorithm — the paper's Lemma 1 bound, summed over
/// busy periods. RTT achieves this bound (Lemmas 2–3).
pub fn optimal_drop_lower_bound(workload: &Workload, capacity: Iops, deadline: SimDuration) -> u64 {
    gqos_trace::ServiceAnalysis::new(workload, capacity, deadline).lower_bound_misses()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_sim::{simulate, FcfsScheduler, FixedRateServer};
    use gqos_trace::SimTime;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn classifier_admits_up_to_bound() {
        let mut rtt = RttClassifier::new(Iops::new(1000.0), dms(5));
        assert_eq!(rtt.max_q1, 5);
        for _ in 0..5 {
            assert_eq!(rtt.classify(), ServiceClass::PRIMARY);
        }
        assert_eq!(rtt.classify(), ServiceClass::OVERFLOW);
        assert_eq!(rtt.len_q1(), 5);
        assert_eq!(rtt.slack(), 0);
    }

    #[test]
    fn classifier_slack_shrinks_with_occupancy() {
        let mut rtt = RttClassifier::new(Iops::new(400.0), dms(10));
        assert_eq!(rtt.max_q1, 4);
        assert_eq!(rtt.slack(), 4);
        rtt.classify();
        assert_eq!(rtt.slack(), 3);
        rtt.primary_departed();
        assert_eq!(rtt.slack(), 4);
    }

    #[test]
    fn degradation_shrinks_and_restores_the_bound() {
        let mut rtt = RttClassifier::new(Iops::new(1000.0), dms(5)); // maxQ1 = 5
        for _ in 0..4 {
            rtt.classify();
        }
        assert_eq!(rtt.slack(), 1);
        // Halve the effective capacity: bound 2, occupancy 4 -> slack
        // saturates at 0 and new arrivals are shed.
        rtt.set_degradation(0.5);
        assert_eq!(rtt.max_q1, 2);
        assert_eq!(rtt.degradation(), 0.5);
        assert_eq!(rtt.slack(), 0);
        assert_eq!(rtt.classify(), ServiceClass::OVERFLOW);
        // Admitted requests keep their slots and drain normally.
        for _ in 0..4 {
            rtt.primary_departed();
        }
        assert_eq!(rtt.len_q1(), 0);
        // Full recovery restores the original bound exactly.
        rtt.set_degradation(1.0);
        assert_eq!(rtt.max_q1, 5);
    }

    #[test]
    fn outage_degradation_closes_q1() {
        let mut rtt = RttClassifier::new(Iops::new(1000.0), dms(5));
        rtt.set_degradation(0.0);
        assert_eq!(rtt.max_q1, 0);
        assert_eq!(rtt.classify(), ServiceClass::OVERFLOW);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_degradation_rejected() {
        let mut rtt = RttClassifier::new(Iops::new(1000.0), dms(5));
        rtt.set_degradation(-0.5);
    }

    #[test]
    #[should_panic(expected = "empty Q1")]
    fn departure_underflow_is_a_bug() {
        let mut rtt = RttClassifier::new(Iops::new(100.0), dms(20));
        rtt.primary_departed();
    }

    #[test]
    #[should_panic(expected = "admits no requests")]
    fn degenerate_bound_rejected() {
        // 10 IOPS x 10 ms = 0.1 -> maxQ1 = 0.
        let _ = RttClassifier::new(Iops::new(10.0), dms(10));
    }

    #[test]
    fn checked_max_queue_matches_float_floor_in_range() {
        let delta = dms(20);
        assert_eq!(checked_max_queue(Iops::new(100.0), delta), Ok(2));
        assert_eq!(checked_max_queue(Iops::new(150.0), dms(10)), Ok(1));
        // Just inside the counter: ~2^63 slots is absurd but representable.
        let huge = checked_max_queue(Iops::new(9.2e18), SimDuration::from_secs(1));
        assert!(huge.is_ok_and(|q| q > u64::MAX / 4), "{huge:?}");
    }

    #[test]
    fn checked_max_queue_rejects_u64_max_adjacent_products() {
        // 1e19 × 10 s = 1e20 ≥ 2^64 ≈ 1.8e19: typed error, not a wrap.
        let err = checked_max_queue(Iops::new(1e19), SimDuration::from_secs(10)).unwrap_err();
        assert_eq!(err.capacity, Iops::new(1e19));
        assert_eq!(err.deadline, SimDuration::from_secs(10));
        assert!(err.to_string().contains("overflows"), "{err}");
        // Exactly at the boundary the counter cannot hold the bound either.
        assert!(checked_max_queue(Iops::new(u64::MAX as f64), SimDuration::from_secs(1)).is_err());
    }

    #[test]
    #[should_panic(expected = "overflows the 64-bit queue bound")]
    fn classifier_rejects_overflowing_bound() {
        let _ = RttClassifier::new(Iops::new(1e19), SimDuration::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "overflows the 64-bit queue bound")]
    fn renegotiation_rejects_overflowing_bound() {
        let mut rtt = RttClassifier::new(Iops::new(1e18), SimDuration::from_secs(10));
        // A factor far above 1 pushes C_eff·δ past 2^64.
        rtt.set_degradation(1e6);
    }

    #[test]
    fn display_formats() {
        let rtt = RttClassifier::new(Iops::new(100.0), dms(20));
        assert!(rtt.to_string().contains("RTT("));
        let w = Workload::from_arrivals([ms(0)]);
        let d = decompose(&w, Iops::new(100.0), dms(20));
        assert!(d.to_string().contains("primary"));
    }

    #[test]
    fn smooth_workload_is_fully_primary() {
        // 10 ms apart at 100 IOPS: each request finishes before the next.
        let w = Workload::from_arrivals((0..50).map(|i| ms(10 * i)));
        let d = decompose(&w, Iops::new(100.0), dms(10));
        assert_eq!(d.overflow_count(), 0);
        assert_eq!(d.primary_fraction(), 1.0);
    }

    #[test]
    fn figure3_like_scenario_drops_the_minimum() {
        // A Figure 3-style pattern: C = 1 per unit, δ = 1 unit.
        // Arrivals (units of 1 s): 1@0, 2@1, 1@2.
        // maxQ1 = 1. t=0: admit (pending 1, done@1). t=1: drain, admit one,
        // divert one. t=2: drain, admit.
        let w = Workload::from_arrivals([
            SimTime::from_secs(0),
            SimTime::from_secs(1),
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        ]);
        let d = decompose(&w, Iops::new(1.0), SimDuration::from_secs(1));
        assert_eq!(d.overflow_count(), 1);
        // Lemma 1 agrees.
        assert_eq!(
            optimal_drop_lower_bound(&w, Iops::new(1.0), SimDuration::from_secs(1)),
            1
        );
    }

    #[test]
    fn burst_overflow_count_matches_lemma1() {
        // 10 simultaneous arrivals, room for 3.
        let w = Workload::from_arrivals(vec![SimTime::ZERO; 10]);
        let c = Iops::new(300.0);
        let d = decompose(&w, c, dms(10));
        assert_eq!(d.primary_count(), 3);
        assert_eq!(d.overflow_count(), 7);
        assert_eq!(optimal_drop_lower_bound(&w, c, dms(10)), 7);
    }

    #[test]
    fn q1_meets_deadline_by_construction() {
        // Whatever the arrival pattern, all admitted requests served FCFS on
        // a dedicated C-rate server finish within δ.
        let arrivals: Vec<SimTime> = (0..200)
            .flat_map(|i| {
                // Alternating calm stretches and 8-deep bursts.
                if i % 10 == 0 {
                    vec![ms(i * 7); 8]
                } else {
                    vec![ms(i * 7)]
                }
            })
            .collect();
        let w = Workload::from_arrivals(arrivals);
        let c = Iops::new(500.0);
        let delta = dms(10);
        let d = decompose(&w, c, delta);
        assert!(d.overflow_count() > 0, "test needs an overloaded pattern");
        let (q1, _q2) = d.split(&w);
        let report = simulate(&q1, FcfsScheduler::new(), FixedRateServer::new(c));
        assert_eq!(report.completed(), q1.len());
        let stats = report.stats();
        assert!(
            stats.max().expect("non-empty") <= delta,
            "a Q1 request missed: max {}",
            stats.max().unwrap()
        );
    }

    #[test]
    fn rtt_matches_lemma1_bound_on_bursty_patterns() {
        // Multiple separated bursts: the lower bound sums per busy period
        // and RTT must achieve it exactly.
        let mut arrivals = Vec::new();
        for burst in 0..5u64 {
            let base = burst * 10_000; // 10 s apart
            for i in 0..(3 + burst) {
                arrivals.push(ms(base + i)); // near-simultaneous
            }
        }
        let w = Workload::from_arrivals(arrivals);
        let c = Iops::new(200.0);
        let delta = dms(10);
        let d = decompose(&w, c, delta);
        assert_eq!(
            d.overflow_count(),
            optimal_drop_lower_bound(&w, c, delta),
            "RTT must drop exactly the optimal number"
        );
        assert!(d.overflow_count() > 0);
    }

    #[test]
    fn split_partitions_the_workload() {
        let w = Workload::from_arrivals(vec![SimTime::ZERO; 5]);
        let d = decompose(&w, Iops::new(200.0), dms(10));
        let (q1, q2) = d.split(&w);
        assert_eq!(q1.len() + q2.len(), w.len());
        assert_eq!(q1.len() as u64, d.primary_count());
        assert_eq!(d.assignments()[0], ServiceClass::PRIMARY);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn split_rejects_wrong_workload() {
        let w = Workload::from_arrivals(vec![SimTime::ZERO; 5]);
        let d = decompose(&w, Iops::new(200.0), dms(10));
        let other = Workload::from_arrivals(vec![SimTime::ZERO; 3]);
        let _ = d.split(&other);
    }

    #[test]
    fn empty_workload_decomposition() {
        let d = decompose(&Workload::new(), Iops::new(100.0), dms(10));
        assert_eq!(d.primary_fraction(), 1.0);
        assert_eq!(d.primary_count(), 0);
        assert!(d.assignments().is_empty());
    }

    #[test]
    fn accessors_round_trip() {
        let w = Workload::from_arrivals([ms(0)]);
        let d = decompose(&w, Iops::new(150.0), dms(20));
        assert_eq!(d.capacity().get(), 150.0);
        assert_eq!(d.deadline(), dms(20));
    }

    #[test]
    fn scratch_reuse_matches_fresh_decompose() {
        let bursty = {
            let mut arrivals: Vec<SimTime> = (0..100).map(|i| ms(i * 3)).collect();
            arrivals.extend(vec![ms(50); 15]);
            Workload::from_arrivals(arrivals)
        };
        let small = Workload::from_arrivals(vec![SimTime::ZERO; 4]);
        let (c, delta) = (Iops::new(400.0), dms(10));
        let mut scratch = DecomposeScratch::with_capacity(8);
        for w in [&bursty, &small, &bursty] {
            let fresh = decompose(w, c, delta);
            let view = scratch.decompose(w, c, delta);
            assert_eq!(view.assignments(), fresh.assignments());
            assert_eq!(view.primary_count(), fresh.primary_count());
            assert_eq!(view.overflow_count(), fresh.overflow_count());
            assert_eq!(view.primary_fraction(), fresh.primary_fraction());
            assert_eq!(view.capacity(), c);
            assert_eq!(view.deadline(), delta);
        }
    }

    #[test]
    fn scratch_budget_abort_then_reuse() {
        let w = Workload::from_arrivals(vec![SimTime::ZERO; 10]);
        let (c, delta) = (Iops::new(300.0), dms(10)); // 3 slots, 7 overflow
        let mut scratch = DecomposeScratch::new();
        assert!(scratch.decompose_with_budget(&w, c, delta, 6).is_none());
        let ok = scratch
            .decompose_with_budget(&w, c, delta, 7)
            .expect("within budget");
        assert_eq!(ok.overflow_count(), 7);
        assert_eq!(ok.assignments(), decompose(&w, c, delta).assignments());
    }

    #[test]
    fn overflow_count_agrees_with_decompose() {
        let mut arrivals: Vec<SimTime> = (0..200).map(|i| ms(i * 4)).collect();
        arrivals.extend(vec![ms(111); 30]);
        let w = Workload::from_arrivals(arrivals);
        for c in [150.0, 400.0, 1200.0] {
            let c = Iops::new(c);
            assert_eq!(
                overflow_count(&w, c, dms(10)),
                decompose(&w, c, dms(10)).overflow_count()
            );
        }
    }

    /// Brute-force optimal decomposition for tiny workloads: try every
    /// subset as "kept", check feasibility on the slotted server, return
    /// the max kept size.
    fn brute_force_max_kept(w: &Workload, c: Iops, delta: SimDuration) -> u64 {
        let n = w.len();
        assert!(n <= 16, "brute force limited to tiny workloads");
        let service = c.service_time();
        let mut best = 0u64;
        'subsets: for mask in 0..(1u32 << n) {
            let kept = mask.count_ones() as u64;
            if kept <= best {
                continue;
            }
            // FCFS-feasibility of the kept subset (EDF == FCFS here since
            // all deadlines are arrival + delta and arrivals are ordered).
            let mut free_at = SimTime::ZERO;
            for (i, r) in w.iter().enumerate() {
                if mask & (1 << i) == 0 {
                    continue;
                }
                let start = free_at.max(r.arrival);
                let done = start + service;
                if done > r.arrival + delta {
                    continue 'subsets;
                }
                free_at = done;
            }
            best = kept;
        }
        best
    }

    #[test]
    fn rtt_is_optimal_vs_brute_force_on_crafted_cases() {
        let c = Iops::new(100.0); // 10 ms service
        let delta = dms(20); // maxQ1 = 2
        let cases: Vec<Vec<SimTime>> = vec![
            vec![ms(0); 4],
            vec![ms(0), ms(0), ms(5), ms(6), ms(30)],
            vec![ms(0), ms(1), ms(2), ms(3), ms(4), ms(5)],
            vec![ms(0), ms(25), ms(25), ms(25), ms(60), ms(60)],
            (0..10).map(|i| ms(i * 3)).collect(),
        ];
        for arrivals in cases {
            let w = Workload::from_arrivals(arrivals.clone());
            let d = decompose(&w, c, delta);
            let best = brute_force_max_kept(&w, c, delta);
            assert_eq!(
                d.primary_count(),
                best,
                "RTT suboptimal on {arrivals:?}: kept {} vs optimal {best}",
                d.primary_count()
            );
        }
    }
}
