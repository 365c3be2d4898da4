//! The end-to-end workload shaper (the paper's Figure 1 architecture).
//!
//! Ties decomposition and recombination together: pick a QoS target, plan
//! (or supply) a provision, choose a recombination policy, and run the
//! shaped workload through the simulation engine.

use std::fmt;

use gqos_faults::FaultSchedule;
use gqos_sim::{
    FcfsScheduler, FixedRateServer, ModulatedServer, RunReport, Simulation, TraceHandle,
};
use gqos_trace::{Iops, SimDuration, Workload};

use crate::degrade::{
    AdaptiveScheduler, AdmissionRecord, CapacityAdaptive, DegradationController, DegradationPolicy,
};
use crate::fair::FairQueueScheduler;
use crate::miser::MiserScheduler;
use crate::planner::CapacityPlanner;
use crate::split::SplitScheduler;
use crate::target::{Provision, QosTarget};

/// EWMA window (in completions) of the capacity estimator used by
/// [`WorkloadShaper::run_with_faults_logged`]. Short enough to react within
/// one deadline's worth of completions at typical provisions.
const DEGRADATION_WINDOW: usize = 8;

/// How the decomposed classes are recombined for service — the four
/// policies evaluated in Section 4.3.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum RecombinePolicy {
    /// No decomposition: one FCFS queue on the total capacity (baseline).
    Fcfs,
    /// Dedicated servers: `Cmin` for the primary class, `ΔC` for overflow.
    Split,
    /// One shared server, proportional sharing `Cmin : ΔC` (SFQ).
    FairQueue,
    /// One shared server, slack-stealing (Algorithm 2).
    Miser,
}

impl RecombinePolicy {
    /// All policies in the paper's presentation order.
    pub const ALL: [RecombinePolicy; 4] = [
        RecombinePolicy::Fcfs,
        RecombinePolicy::Split,
        RecombinePolicy::FairQueue,
        RecombinePolicy::Miser,
    ];

    /// The policy's scheduler (emitting its events into `trace`) and the
    /// rates of the servers it runs on, in [`ServerId`](gqos_sim::ServerId)
    /// order: `[Cmin, ΔC]` for Split, one server of `Cmin + ΔC` otherwise.
    ///
    /// This is the one place a policy becomes a scheduler; every shaped
    /// run, offline or streamed, healthy or faulted, is built from it.
    pub fn parts(
        self,
        provision: Provision,
        deadline: SimDuration,
        trace: &TraceHandle,
    ) -> (Box<dyn CapacityAdaptive>, Vec<Iops>) {
        let (p, t) = (provision, trace.clone());
        match self {
            RecombinePolicy::Fcfs => (Box::new(FcfsScheduler::with_trace(t)), vec![p.total()]),
            RecombinePolicy::Split => (
                Box::new(SplitScheduler::with_trace(p, deadline, t)),
                vec![p.cmin(), p.delta_c()],
            ),
            RecombinePolicy::FairQueue => (
                Box::new(FairQueueScheduler::with_trace(p, deadline, t)),
                vec![p.total()],
            ),
            RecombinePolicy::Miser => (
                Box::new(MiserScheduler::with_trace(p, deadline, t)),
                vec![p.total()],
            ),
        }
    }
}

impl fmt::Display for RecombinePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecombinePolicy::Fcfs => f.write_str("FCFS"),
            RecombinePolicy::Split => f.write_str("Split"),
            RecombinePolicy::FairQueue => f.write_str("FairQueue"),
            RecombinePolicy::Miser => f.write_str("Miser"),
        }
    }
}

/// A configured workload shaper: provision + deadline.
///
/// # Examples
///
/// Plan a 90%-within-20ms shaper for a bursty workload and compare FCFS
/// with Miser at identical total capacity:
///
/// ```
/// use gqos_core::{QosTarget, RecombinePolicy, WorkloadShaper};
/// use gqos_sim::ServiceClass;
/// use gqos_trace::{SimDuration, SimTime, Workload};
///
/// let mut arrivals: Vec<SimTime> = (0..200).map(|i| SimTime::from_millis(i * 10)).collect();
/// arrivals.extend(vec![SimTime::from_millis(555); 30]); // a burst
/// let workload = Workload::from_arrivals(arrivals);
///
/// let target = QosTarget::new(0.90, SimDuration::from_millis(20));
/// let shaper = WorkloadShaper::plan(&workload, target);
/// let fcfs = shaper.run(&workload, RecombinePolicy::Fcfs);
/// let miser = shaper.run(&workload, RecombinePolicy::Miser);
/// let d = SimDuration::from_millis(20);
/// assert!(miser.stats_for(ServiceClass::PRIMARY).fraction_within(d)
///     >= fcfs.stats().fraction_within(d));
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct WorkloadShaper {
    provision: Provision,
    deadline: SimDuration,
}

impl WorkloadShaper {
    /// Creates a shaper from an explicit provision.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero.
    pub fn new(provision: Provision, deadline: SimDuration) -> Self {
        assert!(!deadline.is_zero(), "deadline must be positive");
        WorkloadShaper {
            provision,
            deadline,
        }
    }

    /// Plans the provision for `workload` at `target` (binary-searching
    /// `Cmin`, adding the default surplus `ΔC = 1/δ`) and returns the
    /// configured shaper.
    pub fn plan(workload: &Workload, target: QosTarget) -> Self {
        let planner = CapacityPlanner::new(workload, target.deadline());
        WorkloadShaper {
            provision: planner.provision(target),
            deadline: target.deadline(),
        }
    }

    /// The shaper's provision.
    pub fn provision(&self) -> Provision {
        self.provision
    }

    /// The shaper's deadline.
    pub fn deadline(&self) -> SimDuration {
        self.deadline
    }

    /// Runs `workload` under the given recombination policy at constant
    /// total capacity `Cmin + ΔC` and returns the simulation report.
    ///
    /// Under [`RecombinePolicy::Fcfs`] every request completes in class
    /// [`ServiceClass::PRIMARY`](gqos_sim::ServiceClass::PRIMARY) (there is
    /// no decomposition); under the other policies, per-class statistics
    /// are available via [`RunReport::stats_for`].
    pub fn run(&self, workload: &Workload, policy: RecombinePolicy) -> RunReport {
        self.run_traced(workload, policy, TraceHandle::disabled())
    }

    /// Like [`run`](WorkloadShaper::run), but with the full event trace
    /// routed into `trace`: the engine emits `Arrival`/`Completed` (the
    /// latter judged against the shaper's deadline), the policy scheduler
    /// emits `Admitted`/`Diverted`/`Dispatched`.
    ///
    /// Tracing never changes scheduling decisions — a run traced into any
    /// sink produces a [`RunReport`] identical to the untraced
    /// [`run`](WorkloadShaper::run).
    pub fn run_traced(
        &self,
        workload: &Workload,
        policy: RecombinePolicy,
        trace: TraceHandle,
    ) -> RunReport {
        let (scheduler, rates) = policy.parts(self.provision, self.deadline, &trace);
        let mut sim = Simulation::new(workload, scheduler)
            .trace(trace)
            .deadline(self.deadline);
        for rate in rates {
            sim = sim.server(FixedRateServer::new(rate));
        }
        sim.run()
    }

    /// Runs `workload` under `policy` on servers degraded by `schedule`,
    /// with the graduated-degradation control loop active, and returns the
    /// report plus the admission log.
    ///
    /// An online capacity estimator watches completions and renegotiates
    /// the RTT bound (plus Miser slacks / FairQueue weights) against
    /// `C_eff`. The log holds every Q1 admission with the capacity fraction
    /// the controller had negotiated at that instant. This is the evidence
    /// for the degradation contract — an admitted request whose deadline
    /// window the server actually sustained at the admission-time fraction
    /// must meet `δ`.
    ///
    /// With an [empty](FaultSchedule::empty) schedule the report is
    /// identical to [`run`](WorkloadShaper::run) — the modulation and the
    /// controller are both exact no-ops on a healthy server.
    pub fn run_with_faults_logged(
        &self,
        workload: &Workload,
        policy: RecombinePolicy,
        schedule: &FaultSchedule,
    ) -> (RunReport, Vec<AdmissionRecord>) {
        let (inner, rates) = policy.parts(self.provision, self.deadline, &TraceHandle::disabled());
        let controller =
            DegradationController::new(DegradationPolicy::default(), DEGRADATION_WINDOW);
        let (scheduler, log) =
            AdaptiveScheduler::new(inner, controller, &rates).with_admission_log();
        let mut sim = Simulation::new(workload, scheduler);
        for rate in rates {
            sim = sim.server(ModulatedServer::new(
                FixedRateServer::new(rate),
                schedule.clone(),
            ));
        }
        let report = sim.run();
        (report, log.take())
    }

    /// Runs all four policies and returns `(policy, report)` pairs in the
    /// paper's order.
    pub fn run_all(&self, workload: &Workload) -> Vec<(RecombinePolicy, RunReport)> {
        RecombinePolicy::ALL
            .iter()
            .map(|&p| (p, self.run(workload, p)))
            .collect()
    }
}

impl fmt::Display for WorkloadShaper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shaper({}, delta={:.0} ms)",
            self.provision,
            self.deadline.as_millis_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_sim::ServiceClass;
    use gqos_trace::{Iops, SimTime};

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// A calm stream with one deep burst — the pattern the paper's shaping
    /// argument is about.
    fn bursty_workload() -> Workload {
        let mut arrivals: Vec<SimTime> = (0..300).map(|i| ms(i * 10)).collect();
        arrivals.extend(vec![ms(1000); 60]);
        arrivals.extend(vec![ms(2000); 40]);
        Workload::from_arrivals(arrivals)
    }

    #[test]
    fn plan_produces_feasible_provision() {
        let w = bursty_workload();
        let target = QosTarget::new(0.90, dms(20));
        let shaper = WorkloadShaper::plan(&w, target);
        assert!(shaper.provision().cmin().get() >= 100.0);
        assert!(shaper.deadline() == dms(20));
        // At the planned provision, the shaped policies meet the target.
        for policy in [RecombinePolicy::Split, RecombinePolicy::FairQueue] {
            let frac = shaper.run(&w, policy).stats().fraction_within(dms(20));
            assert!(
                frac >= 0.90,
                "{policy} met only {frac:.3} at planned capacity"
            );
        }
    }

    #[test]
    fn fcfs_baseline_is_worse_at_equal_capacity() {
        let w = bursty_workload();
        let shaper = WorkloadShaper::plan(&w, QosTarget::new(0.90, dms(20)));
        let fcfs = shaper
            .run(&w, RecombinePolicy::Fcfs)
            .stats()
            .fraction_within(dms(20));
        let fq = shaper
            .run(&w, RecombinePolicy::FairQueue)
            .stats()
            .fraction_within(dms(20));
        assert!(
            fq > fcfs,
            "shaping should beat FCFS at equal capacity: FCFS {fcfs:.3}, FQ {fq:.3}"
        );
    }

    #[test]
    fn miser_overflow_beats_split_overflow() {
        // Miser exploits slack; Split's overflow is stuck on a tiny server.
        let w = bursty_workload();
        let shaper = WorkloadShaper::plan(&w, QosTarget::new(0.90, dms(20)));
        let split = shaper.run(&w, RecombinePolicy::Split);
        let miser = shaper.run(&w, RecombinePolicy::Miser);
        let split_o = split.stats_for(ServiceClass::OVERFLOW);
        let miser_o = miser.stats_for(ServiceClass::OVERFLOW);
        assert!(
            miser_o.mean().unwrap() < split_o.mean().unwrap(),
            "Miser overflow mean {} vs Split {}",
            miser_o.mean().unwrap(),
            split_o.mean().unwrap()
        );
    }

    #[test]
    fn run_all_covers_every_policy() {
        let w = Workload::from_arrivals(vec![ms(0); 5]);
        let shaper =
            WorkloadShaper::new(Provision::new(Iops::new(200.0), Iops::new(100.0)), dms(20));
        let all = shaper.run_all(&w);
        assert_eq!(all.len(), 4);
        for (policy, report) in &all {
            assert_eq!(
                report.completed(),
                5,
                "{policy} failed to complete the workload"
            );
        }
    }

    #[test]
    fn policy_display_names_match_paper() {
        let names: Vec<String> = RecombinePolicy::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(names, vec!["FCFS", "Split", "FairQueue", "Miser"]);
    }

    #[test]
    fn shaper_display() {
        let shaper =
            WorkloadShaper::new(Provision::new(Iops::new(328.0), Iops::new(20.0)), dms(50));
        assert!(shaper.to_string().contains("328"));
    }

    #[test]
    fn empty_fault_schedule_is_byte_identical_to_plain_run() {
        // The degradation contract's fault-free clause: with no faults, the
        // adaptive path must reproduce the plain path exactly — same
        // completion records, same classes, same nanoseconds.
        let w = bursty_workload();
        let shaper = WorkloadShaper::plan(&w, QosTarget::new(0.90, dms(20)));
        let empty = FaultSchedule::empty();
        for policy in RecombinePolicy::ALL {
            let plain = shaper.run(&w, policy);
            let (faulted, log) = shaper.run_with_faults_logged(&w, policy, &empty);
            assert_eq!(
                plain.records(),
                faulted.records(),
                "{policy}: empty schedule diverged from plain run"
            );
            // Every logged admission was negotiated at full capacity.
            assert!(log.iter().all(|r| r.factor == 1.0), "{policy}");
        }
    }

    #[test]
    fn outage_degrades_and_sheds_instead_of_missing() {
        // A mid-run slowdown: the controller must renegotiate downward and
        // later admissions must carry the degraded factor.
        let w = bursty_workload();
        let shaper = WorkloadShaper::plan(&w, QosTarget::new(0.90, dms(20)));
        let schedule = FaultSchedule::new(11).with_slowdown(
            SimTime::from_millis(500),
            SimDuration::from_secs(2),
            4.0,
        );
        let (report, log) = shaper.run_with_faults_logged(&w, RecombinePolicy::Miser, &schedule);
        assert_eq!(report.completed(), w.len());
        assert!(
            log.iter().any(|r| r.factor < 1.0),
            "no admission saw a degraded factor"
        );
        // Degraded admissions are rarer than healthy ones would have been:
        // shedding moved arrivals to Q2.
        let faulted_q1 = report.completed_in(ServiceClass::PRIMARY);
        let healthy_q1 = shaper
            .run(&w, RecombinePolicy::Miser)
            .completed_in(ServiceClass::PRIMARY);
        assert!(
            faulted_q1 < healthy_q1,
            "degradation did not shed: {faulted_q1} vs healthy {healthy_q1}"
        );
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn zero_deadline_rejected() {
        let _ = WorkloadShaper::new(
            Provision::new(Iops::new(1.0), Iops::new(1.0)),
            SimDuration::ZERO,
        );
    }
}
