//! Multi-client consolidation: estimating shared-server capacity
//! (Section 2.2 "Multiple Concurrent Clients" and Section 4.4).
//!
//! Summing each client's *worst-case* capacity over-provisions badly: it
//! assumes all bursts align. Summing each client's *reshaped* capacity
//! (`Cmin` at fraction `f < 1`) instead turns out to be an excellent
//! predictor of the true multiplexed requirement, because decomposition has
//! removed the high-variance portions whose alignment is unpredictable.
//! Figures 7 and 8 are built from the comparisons computed here.

use std::error::Error;
use std::fmt;

use gqos_trace::{Iops, SimDuration, Workload};

use crate::planner::CapacityPlanner;
use crate::target::QosTarget;

/// A consolidation comparison was requested over an impossible input.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum ConsolidationError {
    /// The client list was empty: neither an additive estimate nor a
    /// merged requirement exists over zero clients.
    NoClients,
}

impl fmt::Display for ConsolidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsolidationError::NoClients => {
                f.write_str("consolidation requires at least one client workload")
            }
        }
    }
}

impl Error for ConsolidationError {}

/// The estimate-versus-actual capacity comparison for one set of
/// consolidated clients at one QoS target.
///
/// Both sides are [`Iops`], which is strictly positive and finite by
/// construction — there is no way to build a report whose
/// [`ratio`](ConsolidationReport::ratio) or
/// [`relative_error`](ConsolidationReport::relative_error) divides by
/// zero. The division-hazard lives one level up, in inputs the planner
/// cannot price (an empty client list); [`ConsolidationStudy::try_compare`]
/// surfaces those as a typed [`ConsolidationError`] instead of a panic.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ConsolidationReport {
    /// Sum of the clients' individual `Cmin` values (the additive
    /// estimate).
    pub estimate: Iops,
    /// `Cmin` of the actual merged workload.
    pub actual: Iops,
}

impl ConsolidationReport {
    /// `actual / estimate`: below 1.0 means the additive estimate
    /// over-provisions (multiplexing gain), near 1.0 means it is accurate.
    ///
    /// Never NaN and never zero: both operands are [`Iops`], whose
    /// constructor rejects zero, negatives, and non-finite rates. The one
    /// documented sentinel is `+∞`, reachable only when the two rates
    /// differ by more than `f64`'s ~308 orders of magnitude — far outside
    /// any plannable capacity, but pinned by a regression test rather than
    /// left as an accidental outcome.
    pub fn ratio(&self) -> f64 {
        self.actual.get() / self.estimate.get()
    }

    /// Relative error `|actual − estimate| / actual`.
    ///
    /// Never NaN and never negative, by the same [`Iops`] invariant (and
    /// the same `+∞`-on-astronomical-mismatch sentinel) as
    /// [`ratio`](ConsolidationReport::ratio).
    pub fn relative_error(&self) -> f64 {
        (self.actual.get() - self.estimate.get()).abs() / self.actual.get()
    }
}

impl fmt::Display for ConsolidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "estimate {:.0} IOPS, actual {:.0} IOPS (ratio {:.2})",
            self.estimate.get(),
            self.actual.get(),
            self.ratio()
        )
    }
}

/// Plans capacity for consolidated clients at a QoS target.
///
/// # Examples
///
/// ```
/// use gqos_core::{ConsolidationStudy, QosTarget};
/// use gqos_trace::{SimDuration, SimTime, Workload};
///
/// let a = Workload::from_arrivals(vec![SimTime::ZERO; 5]);
/// let b = Workload::from_arrivals(vec![SimTime::from_millis(500); 5]);
/// let study = ConsolidationStudy::new(QosTarget::new(1.0, SimDuration::from_millis(10)));
/// let report = study.compare(&[&a, &b]);
/// // Non-overlapping bursts: the merged workload needs half the estimate.
/// assert!(report.ratio() < 0.6);
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ConsolidationStudy {
    target: QosTarget,
}

impl ConsolidationStudy {
    /// Creates a study at the given target.
    pub fn new(target: QosTarget) -> Self {
        ConsolidationStudy { target }
    }

    /// The study's QoS target.
    pub fn target(&self) -> QosTarget {
        self.target
    }

    /// The additive estimate: sum of each client's individual `Cmin`.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty; use
    /// [`try_estimate`](ConsolidationStudy::try_estimate) for a typed
    /// error instead.
    pub fn estimate(&self, clients: &[&Workload]) -> Iops {
        self.try_estimate(clients)
            .expect("at least one client is required")
    }

    /// Fallible form of [`estimate`](ConsolidationStudy::estimate).
    ///
    /// # Errors
    ///
    /// Returns [`ConsolidationError::NoClients`] for an empty client list.
    pub fn try_estimate(&self, clients: &[&Workload]) -> Result<Iops, ConsolidationError> {
        if clients.is_empty() {
            return Err(ConsolidationError::NoClients);
        }
        let total: f64 = clients
            .iter()
            .map(|w| {
                CapacityPlanner::new(w, self.target.deadline())
                    .min_capacity(self.target.fraction())
                    .get()
            })
            .sum();
        Ok(Iops::new(total))
    }

    /// The true requirement: `Cmin` of the merged arrival stream.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty; use
    /// [`try_actual`](ConsolidationStudy::try_actual) for a typed error
    /// instead.
    pub fn actual(&self, clients: &[&Workload]) -> Iops {
        self.try_actual(clients)
            .expect("at least one client is required")
    }

    /// Fallible form of [`actual`](ConsolidationStudy::actual).
    ///
    /// # Errors
    ///
    /// Returns [`ConsolidationError::NoClients`] for an empty client list.
    pub fn try_actual(&self, clients: &[&Workload]) -> Result<Iops, ConsolidationError> {
        if clients.is_empty() {
            return Err(ConsolidationError::NoClients);
        }
        let merged = merge_all(clients);
        Ok(CapacityPlanner::new(&merged, self.target.deadline())
            .min_capacity(self.target.fraction()))
    }

    /// Computes both sides of the comparison.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty; use
    /// [`try_compare`](ConsolidationStudy::try_compare) for a typed error
    /// instead.
    pub fn compare(&self, clients: &[&Workload]) -> ConsolidationReport {
        self.try_compare(clients)
            .expect("at least one client is required")
    }

    /// Fallible form of [`compare`](ConsolidationStudy::compare).
    ///
    /// # Errors
    ///
    /// Returns [`ConsolidationError::NoClients`] for an empty client list.
    pub fn try_compare(
        &self,
        clients: &[&Workload],
    ) -> Result<ConsolidationReport, ConsolidationError> {
        Ok(ConsolidationReport {
            estimate: self.try_estimate(clients)?,
            actual: self.try_actual(clients)?,
        })
    }

    /// Compares a client against a time-shifted copy of itself — the
    /// paper's `Shift-1s` / `Shift-100s` experiment (Figure 7), modelling
    /// two instances of the same application whose bursts do not align.
    pub fn compare_shifted(&self, client: &Workload, shift: SimDuration) -> ConsolidationReport {
        let shifted = client.shifted(shift);
        self.compare(&[client, &shifted])
    }
}

/// Merges any number of client workloads into one arrival stream.
pub fn merge_all(clients: &[&Workload]) -> Workload {
    let mut merged = match clients.first() {
        Some(w) => (*w).clone(),
        None => Workload::new(),
    };
    for w in &clients[1.min(clients.len())..] {
        merged = merged.merged(w);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_trace::SimTime;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn identical_aligned_bursts_match_the_estimate() {
        // Worst case: both clients burst at the same instant; the estimate
        // (2x individual) is exactly right.
        let w = Workload::from_arrivals(vec![SimTime::ZERO; 10]);
        let study = ConsolidationStudy::new(QosTarget::new(1.0, dms(10)));
        let report = study.compare(&[&w, &w]);
        assert_eq!(report.estimate.get(), 2000.0);
        assert_eq!(report.actual.get(), 2000.0);
        assert!((report.ratio() - 1.0).abs() < 1e-9);
        assert!(report.relative_error() < 1e-9);
    }

    #[test]
    fn shifted_bursts_halve_the_requirement() {
        // A single burst, merged with itself shifted beyond the drain time:
        // the server never sees both bursts at once.
        let w = Workload::from_arrivals(vec![SimTime::ZERO; 10]);
        let study = ConsolidationStudy::new(QosTarget::new(1.0, dms(10)));
        let report = study.compare_shifted(&w, SimDuration::from_secs(1));
        assert_eq!(report.estimate.get(), 2000.0);
        assert_eq!(report.actual.get(), 1000.0);
        assert_eq!(report.ratio(), 0.5);
    }

    #[test]
    fn decomposed_estimate_tracks_actual_for_shifted_bursty_clients() {
        // The paper's core claim: at f < 1 the additive estimate is close to
        // the true merged requirement even when bursts do not align.
        let mut arrivals: Vec<SimTime> = (0..400).map(|i| ms(i * 5)).collect();
        arrivals.extend(vec![ms(700); 40]); // burst
        let w = Workload::from_arrivals(arrivals);
        let study = ConsolidationStudy::new(QosTarget::new(0.90, dms(10)));
        let report = study.compare_shifted(&w, SimDuration::from_secs(1));
        assert!(
            report.relative_error() < 0.15,
            "decomposed estimate off by {:.1}%: {report}",
            report.relative_error() * 100.0
        );
    }

    #[test]
    fn full_guarantee_estimate_overshoots_for_disjoint_bursts() {
        // Same clients at f = 100%: the estimate over-provisions heavily.
        let mut arrivals: Vec<SimTime> = (0..400).map(|i| ms(i * 5)).collect();
        arrivals.extend(vec![ms(700); 40]);
        let w = Workload::from_arrivals(arrivals);
        let study = ConsolidationStudy::new(QosTarget::new(1.0, dms(10)));
        let report = study.compare_shifted(&w, SimDuration::from_secs(1));
        assert!(
            report.ratio() < 0.75,
            "expected multiplexing gain at f=100%: {report}"
        );
    }

    #[test]
    fn merge_all_handles_many_clients() {
        let a = Workload::from_arrivals([ms(0)]);
        let b = Workload::from_arrivals([ms(1)]);
        let c = Workload::from_arrivals([ms(2)]);
        let merged = merge_all(&[&a, &b, &c]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merge_all(&[]).len(), 0);
        assert_eq!(merge_all(&[&a]).len(), 1);
    }

    #[test]
    fn three_client_comparison() {
        let w = Workload::from_arrivals(vec![SimTime::ZERO; 6]);
        let study = ConsolidationStudy::new(QosTarget::new(1.0, dms(10)));
        let s1 = w.shifted(SimDuration::from_secs(1));
        let s2 = w.shifted(SimDuration::from_secs(2));
        let report = study.compare(&[&w, &s1, &s2]);
        assert_eq!(report.estimate.get(), 1800.0);
        assert_eq!(report.actual.get(), 600.0);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn estimate_requires_clients() {
        let study = ConsolidationStudy::new(QosTarget::new(1.0, dms(10)));
        let _ = study.estimate(&[]);
    }

    #[test]
    fn empty_client_list_is_a_typed_error() {
        let study = ConsolidationStudy::new(QosTarget::new(1.0, dms(10)));
        assert_eq!(study.try_estimate(&[]), Err(ConsolidationError::NoClients));
        assert_eq!(study.try_actual(&[]), Err(ConsolidationError::NoClients));
        assert_eq!(study.try_compare(&[]), Err(ConsolidationError::NoClients));
        let err = study.try_compare(&[]).unwrap_err();
        assert!(err.to_string().contains("at least one client"));
    }

    #[test]
    fn empty_client_workloads_compare_without_dividing_by_zero() {
        // Clients with zero arrivals are priced at the floor capacity, not
        // zero, so the report's divisions stay finite.
        let empty = Workload::new();
        let study = ConsolidationStudy::new(QosTarget::new(0.9, dms(10)));
        let report = study
            .try_compare(&[&empty, &empty])
            .expect("empty workloads are still one-client-each");
        assert!(report.ratio().is_finite());
        assert!(report.ratio() > 0.0);
        assert!(report.relative_error().is_finite());
        assert!(report.relative_error() >= 0.0);
    }

    #[test]
    fn ratio_and_relative_error_are_never_nan_at_extreme_rates() {
        // The Iops invariant (finite, strictly positive) rules out NaN and
        // zero for any report; plannable magnitudes stay finite.
        for (estimate, actual) in [(1e-9, 1e-9), (1.0, 1e18), (1e18, 1.0)] {
            let report = ConsolidationReport {
                estimate: Iops::new(estimate),
                actual: Iops::new(actual),
            };
            assert!(report.ratio().is_finite(), "ratio({estimate}, {actual})");
            assert!(report.ratio() > 0.0);
            assert!(
                report.relative_error().is_finite(),
                "relative_error({estimate}, {actual})"
            );
        }
        // The documented sentinel: a mismatch beyond f64's dynamic range
        // overflows to +∞ — never NaN, never a negative, never a panic.
        let sentinel = ConsolidationReport {
            estimate: Iops::new(f64::MIN_POSITIVE),
            actual: Iops::new(1e18),
        };
        assert_eq!(sentinel.ratio(), f64::INFINITY);
        assert!(!sentinel.ratio().is_nan());
        assert!(!sentinel.relative_error().is_nan());
        assert!(sentinel.relative_error() >= 0.0);
    }

    #[test]
    fn fallible_and_panicking_paths_agree() {
        let w = Workload::from_arrivals(vec![SimTime::ZERO; 10]);
        let study = ConsolidationStudy::new(QosTarget::new(1.0, dms(10)));
        let fallible = study.try_compare(&[&w, &w]).unwrap();
        let panicking = study.compare(&[&w, &w]);
        assert_eq!(fallible, panicking);
    }

    #[test]
    fn display_and_accessors() {
        let study = ConsolidationStudy::new(QosTarget::new(0.95, dms(10)));
        assert_eq!(study.target().fraction(), 0.95);
        let r = ConsolidationReport {
            estimate: Iops::new(100.0),
            actual: Iops::new(90.0),
        };
        assert!(r.to_string().contains("ratio 0.90"));
    }
}
