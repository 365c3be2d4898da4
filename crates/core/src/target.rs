//! QoS targets and provisioned capacities.

use std::fmt;

use gqos_trace::{Iops, SimDuration};

/// A graduated QoS target: a fraction `f` of the workload must complete
/// within the response-time bound `δ`.
///
/// The paper's SLAs are pairs like *(90%, 10 ms)*: at least 90% of requests
/// finish within 10 ms, the rest are served best-effort.
///
/// # Examples
///
/// ```
/// use gqos_core::QosTarget;
/// use gqos_trace::SimDuration;
///
/// let target = QosTarget::new(0.90, SimDuration::from_millis(10));
/// assert_eq!(target.fraction(), 0.90);
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct QosTarget {
    fraction: f64,
    deadline: SimDuration,
}

impl QosTarget {
    /// Creates a target guaranteeing `fraction` of requests within
    /// `deadline`.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]` or `deadline` is zero.
    pub fn new(fraction: f64, deadline: SimDuration) -> Self {
        assert!(
            fraction.is_finite() && fraction > 0.0 && fraction <= 1.0,
            "guaranteed fraction must be in (0, 1]: {fraction}"
        );
        assert!(!deadline.is_zero(), "deadline must be positive");
        QosTarget { fraction, deadline }
    }

    /// A full guarantee: 100% of requests within `deadline` (the
    /// traditional, burst-dominated provisioning the paper improves on).
    pub fn full(deadline: SimDuration) -> Self {
        QosTarget::new(1.0, deadline)
    }

    /// The guaranteed fraction in `(0, 1]`.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// The response-time bound δ.
    pub fn deadline(&self) -> SimDuration {
        self.deadline
    }
}

impl fmt::Display for QosTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2}% within {:.1} ms",
            self.fraction * 100.0,
            self.deadline.as_millis_f64()
        )
    }
}

/// A provisioned capacity: the primary reservation `Cmin` plus the surplus
/// `ΔC` that keeps the overflow class from starving.
///
/// The paper provisions `Cmin + ΔC` with `ΔC = 1/δ` by default, and proves
/// Miser can never cause a primary miss when `ΔC = Cmin`.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Provision {
    cmin: Iops,
    delta_c: Iops,
}

impl Provision {
    /// Creates a provision from its two components.
    pub fn new(cmin: Iops, delta_c: Iops) -> Self {
        Provision { cmin, delta_c }
    }

    /// The paper's default surplus for a deadline δ: `ΔC = 1/δ` (one extra
    /// request per deadline window).
    pub fn with_default_surplus(cmin: Iops, deadline: SimDuration) -> Self {
        let delta = Iops::new(1.0 / deadline.as_secs_f64());
        Provision::new(cmin, delta)
    }

    /// The primary-class reservation.
    pub fn cmin(&self) -> Iops {
        self.cmin
    }

    /// The overflow surplus.
    pub fn delta_c(&self) -> Iops {
        self.delta_c
    }

    /// The total capacity `Cmin + ΔC`.
    pub fn total(&self) -> Iops {
        Iops::new(self.cmin.get() + self.delta_c.get())
    }

    /// Weights for proportional sharing in the ratio `Cmin : ΔC`.
    pub fn weights(&self) -> [f64; 2] {
        [self.cmin.get(), self.delta_c.get()]
    }
}

impl fmt::Display for Provision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}+{:.0} IOPS", self.cmin.get(), self.delta_c.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_accessors() {
        let t = QosTarget::new(0.99, SimDuration::from_millis(50));
        assert_eq!(t.fraction(), 0.99);
        assert_eq!(t.deadline(), SimDuration::from_millis(50));
        assert_eq!(QosTarget::full(SimDuration::from_millis(5)).fraction(), 1.0);
    }

    #[test]
    fn target_display() {
        let t = QosTarget::new(0.9, SimDuration::from_millis(10));
        assert_eq!(t.to_string(), "90.00% within 10.0 ms");
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn zero_fraction_rejected() {
        let _ = QosTarget::new(0.0, SimDuration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn fraction_above_one_rejected() {
        let _ = QosTarget::new(1.5, SimDuration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn zero_deadline_rejected() {
        let _ = QosTarget::new(0.5, SimDuration::ZERO);
    }

    #[test]
    fn provision_totals_and_weights() {
        let p = Provision::new(Iops::new(400.0), Iops::new(100.0));
        assert_eq!(p.total().get(), 500.0);
        assert_eq!(p.weights(), [400.0, 100.0]);
        assert_eq!(p.cmin().get(), 400.0);
        assert_eq!(p.delta_c().get(), 100.0);
        assert_eq!(p.to_string(), "400+100 IOPS");
    }

    #[test]
    fn default_surplus_is_inverse_deadline() {
        // δ = 50 ms -> ΔC = 20 IOPS, matching the paper's Figure 6 setup.
        let p = Provision::with_default_surplus(Iops::new(328.0), SimDuration::from_millis(50));
        assert!((p.delta_c().get() - 20.0).abs() < 1e-9);
        // δ = 10 ms -> ΔC = 100 IOPS.
        let p = Provision::with_default_surplus(Iops::new(410.0), SimDuration::from_millis(10));
        assert!((p.delta_c().get() - 100.0).abs() < 1e-9);
    }
}
