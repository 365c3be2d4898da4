//! Admission control from reshaped capacity estimates.
//!
//! The consolidation result (Section 4.4) turns into an operational
//! policy: admit a new client if the sum of everyone's *reshaped* `Cmin`
//! fits the server. Because decomposed estimates track the true merged
//! requirement closely, this admits far more clients than worst-case
//! budgeting at the same risk.

use std::error::Error;
use std::fmt;

use gqos_trace::{Iops, Workload};

use crate::planner::CapacityPlanner;
use crate::target::{Provision, QosTarget};

/// A capacity-budgeted admission controller for one shared server.
///
/// # Examples
///
/// ```
/// use gqos_core::{AdmissionController, QosTarget};
/// use gqos_trace::{Iops, SimDuration, SimTime, Workload};
///
/// let target = QosTarget::new(0.90, SimDuration::from_millis(10));
/// let mut ctrl = AdmissionController::new(Iops::new(1000.0), target);
/// let client = Workload::from_arrivals((0..100).map(|i| SimTime::from_millis(i * 10)));
/// let ticket = ctrl.try_admit("web", &client)?;
/// assert!(ticket.provision.cmin().get() <= 1000.0);
/// # Ok::<(), gqos_core::AdmissionError>(())
/// ```
#[derive(Clone, Debug)]
pub struct AdmissionController {
    capacity: Iops,
    target: QosTarget,
    admitted: Vec<Admission>,
}

/// A successfully admitted client.
#[derive(Clone, PartialEq, Debug)]
pub struct Admission {
    /// Caller-supplied client name.
    pub name: String,
    /// The client's planned provision at the controller's target.
    pub provision: Provision,
}

/// Rejection from [`AdmissionController::try_admit`].
#[derive(Clone, PartialEq, Debug)]
pub struct AdmissionError {
    /// Capacity the client would need.
    pub required: f64,
    /// Capacity left in the budget.
    pub available: f64,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "admission rejected: client needs {:.0} IOPS but only {:.0} IOPS remain",
            self.required, self.available
        )
    }
}

impl Error for AdmissionError {}

impl AdmissionController {
    /// Creates a controller budgeting `capacity` at the given per-client
    /// target.
    pub fn new(capacity: Iops, target: QosTarget) -> Self {
        AdmissionController {
            capacity,
            target,
            admitted: Vec::new(),
        }
    }

    /// The server's total budget.
    pub fn capacity(&self) -> Iops {
        self.capacity
    }

    /// The per-client QoS target.
    pub fn target(&self) -> QosTarget {
        self.target
    }

    /// Capacity committed to admitted clients (sum of `Cmin + ΔC`).
    pub fn committed(&self) -> f64 {
        self.admitted
            .iter()
            .map(|a| a.provision.total().get())
            .sum()
    }

    /// Capacity still available.
    fn available(&self) -> f64 {
        (self.capacity.get() - self.committed()).max(0.0)
    }

    /// The admitted clients, in admission order.
    pub fn admitted(&self) -> &[Admission] {
        &self.admitted
    }

    /// Plans the client's provision at the controller's target and admits
    /// it if the budget allows.
    ///
    /// # Errors
    ///
    /// Returns [`AdmissionError`] when the client's `Cmin + ΔC` exceeds
    /// the remaining budget; the controller state is unchanged.
    pub fn try_admit(
        &mut self,
        name: &str,
        workload: &Workload,
    ) -> Result<Admission, AdmissionError> {
        let planner = CapacityPlanner::new(workload, self.target.deadline());
        let provision = planner.provision(self.target);
        let required = provision.total().get();
        let available = self.available();
        if required > available {
            return Err(AdmissionError {
                required,
                available,
            });
        }
        let admission = Admission {
            name: name.to_string(),
            provision,
        };
        self.admitted.push(admission.clone());
        Ok(admission)
    }
}

impl fmt::Display for AdmissionController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "admission controller: {}/{} IOPS committed across {} clients ({})",
            self.committed(),
            self.capacity.get(),
            self.admitted.len(),
            self.target
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_trace::{SimDuration, SimTime};

    fn target() -> QosTarget {
        QosTarget::new(0.90, SimDuration::from_millis(10))
    }

    fn smooth_client(rate_per_10ms: u64, n: u64) -> Workload {
        Workload::from_arrivals((0..n).flat_map(|i| {
            (0..rate_per_10ms)
                .map(move |j| SimTime::from_millis(i * 10) + SimDuration::from_micros(j * 100))
        }))
    }

    #[test]
    fn admits_until_budget_exhausted() {
        let mut ctrl = AdmissionController::new(Iops::new(800.0), target());
        // Each smooth client needs roughly 200 + 100 (surplus) IOPS.
        let client = smooth_client(2, 200);
        assert!(ctrl.try_admit("a", &client).is_ok());
        assert!(ctrl.try_admit("b", &client).is_ok());
        let err = ctrl.try_admit("c", &client).unwrap_err();
        assert!(err.required > err.available, "{err}");
        assert_eq!(ctrl.admitted().len(), 2);
        assert!(ctrl.to_string().contains("2 clients"));
    }

    #[test]
    fn rejection_leaves_state_unchanged() {
        let mut ctrl = AdmissionController::new(Iops::new(100.0), target());
        let committed_before = ctrl.committed();
        let big = Workload::from_arrivals(vec![SimTime::ZERO; 50]);
        assert!(ctrl.try_admit("big", &big).is_err());
        assert_eq!(ctrl.committed(), committed_before);
        assert!(ctrl.admitted().is_empty());
    }

    #[test]
    fn provision_reflects_the_target() {
        let mut ctrl = AdmissionController::new(Iops::new(10_000.0), target());
        let bursty = Workload::from_arrivals(vec![SimTime::ZERO; 20]);
        let adm = ctrl.try_admit("burst", &bursty).expect("budget is large");
        // 90% of 20 requests within 10 ms -> Cmin = 1800 (18 slots).
        assert_eq!(adm.provision.cmin().get(), 1800.0);
        assert_eq!(adm.provision.delta_c().get(), 100.0);
        assert_eq!(ctrl.capacity().get(), 10_000.0);
        assert_eq!(ctrl.target().fraction(), 0.90);
    }

    #[test]
    fn error_is_a_real_error_type() {
        let e = AdmissionError {
            required: 500.0,
            available: 100.0,
        };
        assert!(e.to_string().contains("rejected"));
        let _: &dyn Error = &e;
    }
}
