//! The end-to-end workload shaper (the paper's Figure 1 architecture).
//!
//! Ties decomposition and recombination together: pick a QoS target, plan
//! (or supply) a provision, choose a recombination policy, and run the
//! shaped workload through a simulation core — whole, or streamed chunk
//! by chunk from an [`ArrivalStream`] in `O(maxQ1 + chunk)` memory. Both
//! feed the same core (a FIFO lane, or the simulation core
//! [`Simulation`]), so a streamed run is bit-identical to the batch run
//! for any chunking.
//!
//! A policy becomes a scheduler in one place, `RecombinePolicy::parts`,
//! as a [`PolicyScheduler`]: a closed enum over the four policies' own
//! schedulers, held by value, so no run boxes its scheduler or calls it
//! through a vtable. Every run on the simulation core is built from it by
//! [`WorkloadShaper::simulation`]. Fixed-rate FCFS and Split runs with no
//! trace sink ([`run_traced`] into a disabled handle, and so [`run`], and
//! [`run_observed`]) take FIFO-lane recurrences instead (`lanes.rs`),
//! which compute the simulation core's records, record for record, and
//! panic where it panics.
//!
//! [`run`]: WorkloadShaper::run
//! [`run_traced`]: WorkloadShaper::run_traced
//! [`run_observed`]: WorkloadShaper::run_observed

use std::fmt;

use gqos_faults::FaultSchedule;
use gqos_sim::{
    CompletionRecord, Dispatch, FcfsScheduler, FixedRateServer, LatencySketch, ModulatedServer,
    RunReport, Scheduler, ServerId, ServiceClass, ServiceModel, Simulation, TraceHandle,
};
use gqos_trace::{ArrivalStream, Iops, Request, SimDuration, SimTime, StreamError, Workload};

use crate::degrade::{
    AdaptiveScheduler, AdmissionLog, AdmissionRecord, CapacityAdaptive, DegradationController,
};
use crate::fair::FairQueueScheduler;
use crate::lanes::{FifoLanes, InboxLanes, Lanes};
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
    /// This is the one place a policy becomes a scheduler;
    /// [`WorkloadShaper::simulation`] is its one caller.
    fn parts(
        self,
        provision: Provision,
        deadline: SimDuration,
        trace: &TraceHandle,
    ) -> (PolicyScheduler, Vec<Iops>) {
        let (p, d, t) = (provision, deadline, trace.clone());
        let scheduler = match self {
            RecombinePolicy::Fcfs => PolicyScheduler::Fcfs(FcfsScheduler::with_trace(t)),
            RecombinePolicy::Split => PolicyScheduler::Split(SplitScheduler::with_trace(p, d, t)),
            RecombinePolicy::FairQueue => {
                PolicyScheduler::FairQueue(FairQueueScheduler::with_trace(p, d, t))
            }
            RecombinePolicy::Miser => PolicyScheduler::Miser(MiserScheduler::with_trace(p, d, t)),
        };
        let rates = match self {
            RecombinePolicy::Split => vec![p.cmin(), p.delta_c()],
            _ => vec![p.total()],
        };
        (scheduler, rates)
    }
}

impl fmt::Display for RecombinePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecombinePolicy::Fcfs => f.pad("FCFS"),
            RecombinePolicy::Split => f.pad("Split"),
            RecombinePolicy::FairQueue => f.pad("FairQueue"),
            RecombinePolicy::Miser => f.pad("Miser"),
        }
    }
}

/// The scheduler of one of the four policies, held by value: what
/// [`WorkloadShaper::simulation`] hands its `wrap` closure. Every call
/// forwards to the variant's own scheduler.
#[derive(Clone, Debug)]
pub enum PolicyScheduler {
    /// [`RecombinePolicy::Fcfs`].
    Fcfs(FcfsScheduler),
    /// [`RecombinePolicy::Split`].
    Split(SplitScheduler),
    /// [`RecombinePolicy::FairQueue`].
    FairQueue(FairQueueScheduler),
    /// [`RecombinePolicy::Miser`].
    Miser(MiserScheduler),
}

/// Evaluates `$call` with `$s` bound to the variant's scheduler.
macro_rules! each {
    ($self:expr, $s:ident => $call:expr) => {
        match $self {
            PolicyScheduler::Fcfs($s) => $call,
            PolicyScheduler::Split($s) => $call,
            PolicyScheduler::FairQueue($s) => $call,
            PolicyScheduler::Miser($s) => $call,
        }
    };
}

// These methods and the four schedulers' own are `#[inline]`, so a core
// monomorphised in another crate (the gateway's lanes) inlines the arm it
// takes instead of calling out per event.
impl Scheduler for PolicyScheduler {
    #[inline]
    fn on_arrival(&mut self, request: Request, now: SimTime) {
        each!(self, s => s.on_arrival(request, now));
    }

    #[inline]
    fn next_for(&mut self, server: ServerId, now: SimTime) -> Dispatch {
        each!(self, s => s.next_for(server, now))
    }

    #[inline]
    fn on_completion(&mut self, request: &Request, class: ServiceClass, now: SimTime) {
        each!(self, s => s.on_completion(request, class, now));
    }

    #[inline]
    fn pending(&self) -> usize {
        each!(self, s => s.pending())
    }
}

impl CapacityAdaptive for PolicyScheduler {
    fn renegotiate(&mut self, factor: f64) {
        each!(self, s => s.renegotiate(factor));
    }

    fn degradation_factor(&self) -> f64 {
        each!(self, s => s.degradation_factor())
    }

    fn primary_backlog(&self) -> u64 {
        each!(self, s => s.primary_backlog())
    }
}

/// The outcome of a bounded-memory observed run: aggregate sketches and
/// counters only, never the per-request records.
///
/// This is a passive result record; fields are public by design.
#[derive(Clone, PartialEq, Debug)]
pub struct StreamObservation {
    /// Sketch over all response times — bit-identical to
    /// [`RunReport::response_sketch`] of the batch run.
    pub sketch: LatencySketch,
    /// Sketch over primary-class (`Q1`) response times.
    pub primary: LatencySketch,
    /// Sketch over overflow-class (`Q2`) response times.
    pub overflow: LatencySketch,
    /// Requests offered to the scheduler.
    pub offered: usize,
    /// Requests that completed service.
    pub completed: usize,
    /// Instant of the last processed event.
    pub end_time: SimTime,
    /// Number of chunks pulled from the stream.
    pub chunks: usize,
    /// Largest resident chunk, in bytes.
    pub peak_chunk_bytes: usize,
    /// Largest number of completion records buffered between drains — the
    /// output-side footprint, bounded by the backlog a chunk can flush.
    pub peak_resident_records: usize,
}

/// A configured workload shaper: provision + deadline, run over a whole
/// workload ([`run`](WorkloadShaper::run)) or an arrival stream
/// ([`run_observed`](WorkloadShaper::run_observed)).
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

    /// Builds the simulation of `policy` at this shaper's provision: the
    /// policy's scheduler (emitting its events into `trace`), handed with
    /// its server rates to `wrap`, over one `server(rate)` model per rate
    /// in [`ServerId`](gqos_sim::ServerId) order. The simulation emits
    /// into `trace` too and judges completions against the shaper's
    /// deadline.
    ///
    /// Every run on the simulation core is assembled here: traced runs
    /// and untraced FairQueue and Miser runs on plain servers, faulted
    /// runs (`wrap` adds the degradation loop), gateway and drain lanes
    /// (`wrap` adds an inbox), and runs on other service models (`server`
    /// builds a disk). Identity parts are `|scheduler, _| scheduler` and
    /// `FixedRateServer::new`; built with them, the simulation is the
    /// oracle the FIFO lanes of [`run`](Self::run) and
    /// [`run_observed`](Self::run_observed) are checked against.
    pub fn simulation<S, M>(
        &self,
        policy: RecombinePolicy,
        trace: TraceHandle,
        wrap: impl FnOnce(PolicyScheduler, &[Iops]) -> S,
        server: impl FnMut(Iops) -> M,
    ) -> Simulation<S, M>
    where
        S: Scheduler,
        M: ServiceModel,
    {
        let (scheduler, rates) = policy.parts(self.provision, self.deadline, &trace);
        let mut sim = Simulation::new(wrap(scheduler, &rates))
            .trace(trace)
            .deadline(self.deadline);
        for model in rates.into_iter().map(server) {
            sim = sim.server(model);
        }
        sim
    }

    /// Runs `workload` under the given recombination policy at constant
    /// total capacity `Cmin + ΔC` and returns the simulation report.
    ///
    /// Under [`RecombinePolicy::Fcfs`] every request completes in class
    /// [`ServiceClass::PRIMARY`](gqos_sim::ServiceClass::PRIMARY) (there is
    /// no decomposition); under the other policies, per-class statistics
    /// are available via [`RunReport::stats_for`].
    ///
    /// This is [`run_traced`](Self::run_traced) with a
    /// [`disabled`](TraceHandle::disabled) handle.
    pub fn run(&self, workload: &Workload, policy: RecombinePolicy) -> RunReport {
        self.run_traced(workload, policy, TraceHandle::disabled())
    }

    /// Like [`run`](WorkloadShaper::run), but with the full event trace
    /// routed into `trace`: the simulation emits `Arrival`/`Completed` (the
    /// latter judged against the shaper's deadline), the policy scheduler
    /// emits `Admitted`/`Diverted`/`Dispatched`.
    ///
    /// A handle with no sink runs FCFS and Split on FIFO lanes (the
    /// simulation core's report in closed form); every other run takes
    /// the simulation core, whose report is identical: tracing never
    /// changes scheduling decisions.
    ///
    /// # Panics
    ///
    /// Panics if `⌊Cmin·δ⌋ = 0` under [`RecombinePolicy::Split`], or if a
    /// completion instant passes the `u64` nanosecond clock.
    pub fn run_traced(
        &self,
        workload: &Workload,
        policy: RecombinePolicy,
        trace: TraceHandle,
    ) -> RunReport {
        self.lanes(policy, trace).run(workload)
    }

    /// The core of `policy` on plain fixed-rate servers, emitting into
    /// `trace`: FIFO lanes for an untraced FCFS or Split run, the
    /// simulation core otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `⌊Cmin·δ⌋ = 0` under [`RecombinePolicy::Split`].
    fn lanes(&self, policy: RecombinePolicy, trace: TraceHandle) -> Lanes {
        match self.fifo_lanes(policy, &trace) {
            Some(fifo) => Lanes::Fifo(fifo),
            None => Lanes::Core(Box::new(self.simulation(
                policy,
                trace,
                |s, _| s,
                FixedRateServer::new,
            ))),
        }
    }

    /// The FIFO lanes of an untraced FCFS or Split run; `None` where the
    /// run takes the simulation core.
    ///
    /// # Panics
    ///
    /// Panics if `⌊Cmin·δ⌋ = 0` under [`RecombinePolicy::Split`].
    fn fifo_lanes(&self, policy: RecombinePolicy, trace: &TraceHandle) -> Option<FifoLanes> {
        let p = self.provision;
        match policy {
            RecombinePolicy::Fcfs if !trace.is_enabled() => Some(FifoLanes::fcfs(p.total())),
            RecombinePolicy::Split if !trace.is_enabled() => {
                Some(FifoLanes::split(p.cmin(), p.delta_c(), self.deadline))
            }
            _ => None,
        }
    }

    /// The FIFO lanes of `policy` behind an inbox bounded at `bound`
    /// queued requests, shedding every arrival at or after `drain_from`:
    /// a gateway lane in closed form, with the semantics of
    /// `gqos-stream`'s `ShedScheduler` wrapped around the policy's
    /// scheduler on the simulation core, record for record. `None` where
    /// [`run_traced`](Self::run_traced) into `trace` would take the
    /// simulation core: FairQueue, Miser, and any run whose `trace` has a
    /// sink.
    ///
    /// # Panics
    ///
    /// Panics if `⌊Cmin·δ⌋ = 0` under [`RecombinePolicy::Split`], or if
    /// `bound` is zero.
    pub fn inbox_lanes(
        &self,
        policy: RecombinePolicy,
        trace: &TraceHandle,
        bound: usize,
        drain_from: Option<SimTime>,
    ) -> Option<InboxLanes> {
        self.fifo_lanes(policy, trace)
            .map(|fifo| InboxLanes::new(fifo, bound, drain_from))
    }

    /// Streams every chunk of `stream` through `policy` in bounded memory:
    /// completion records are drained after each chunk into per-class
    /// latency sketches (and `sink`, for callers that forward them — pass
    /// `|_| {}` to discard) instead of accumulating. The aggregate sketch
    /// is bit-identical to [`RunReport::response_sketch`] of the batch
    /// run; peak footprint is one chunk of requests plus the drained
    /// backlog, not the whole trace. Every policy runs on the core
    /// [`run`](Self::run) gives it, through the one chunk driver.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamError`] from the source. `sink` has by then
    /// received every record drained before the failing pull.
    ///
    /// # Panics
    ///
    /// Panics as [`run_traced`](Self::run_traced) does.
    pub fn run_observed<A, F>(
        &self,
        stream: &mut A,
        policy: RecombinePolicy,
        mut sink: F,
    ) -> Result<StreamObservation, StreamError>
    where
        A: ArrivalStream + ?Sized,
        F: FnMut(CompletionRecord),
    {
        let mut primary = LatencySketch::new();
        let mut overflow = LatencySketch::new();
        let mut completed = 0;
        let observe = |record: CompletionRecord| {
            let response = record.response_time().as_nanos();
            match record.class {
                ServiceClass::PRIMARY => primary.record(response),
                _ => overflow.record(response),
            }
            completed += 1;
            sink(record);
        };
        let run = self
            .lanes(policy, TraceHandle::disabled())
            .run_stream(stream, observe)?;
        // Merging is exact, so this equals recording every response once
        // more into a whole-run sketch, at one merge instead of a record
        // per request.
        let mut sketch = primary.clone();
        sketch.merge(&overflow);
        Ok(StreamObservation {
            sketch,
            primary,
            overflow,
            offered: run.offered,
            completed,
            end_time: run.end_time,
            chunks: run.chunks,
            peak_chunk_bytes: run.peak_chunk_bytes,
            peak_resident_records: run.peak_drain_records,
        })
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
        let controller = DegradationController::new(DEGRADATION_WINDOW);
        let mut log = AdmissionLog::default();
        let report = self
            .simulation(
                policy,
                TraceHandle::disabled(),
                |inner, rates| {
                    let (scheduler, handle) =
                        AdaptiveScheduler::new(inner, controller, rates).with_admission_log();
                    log = handle;
                    scheduler
                },
                |rate| ModulatedServer::new(FixedRateServer::new(rate), schedule.clone()),
            )
            .run(workload);
        (report, log.take())
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
    use gqos_trace::{Request, SpcStream, WorkloadStream};
    use std::cell::Cell;

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
    fn every_policy_completes_the_workload() {
        let w = Workload::from_arrivals(vec![ms(0); 5]);
        let shaper =
            WorkloadShaper::new(Provision::new(Iops::new(200.0), Iops::new(100.0)), dms(20));
        for policy in RecombinePolicy::ALL {
            let report = shaper.run(&w, policy);
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
    fn policy_display_honours_width_and_alignment() {
        assert_eq!(format!("{:<10}|", RecombinePolicy::Fcfs), "FCFS      |");
        assert_eq!(format!("{:>6}|", RecombinePolicy::Split), " Split|");
        assert_eq!(format!("{:^7}|", RecombinePolicy::Miser), " Miser |");
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

    /// The simulation core of `policy` on plain fixed-rate servers,
    /// emitting into `trace`: the oracle of the FIFO lanes.
    fn engine(
        shaper: &WorkloadShaper,
        policy: RecombinePolicy,
        trace: TraceHandle,
    ) -> Simulation<PolicyScheduler, FixedRateServer> {
        shaper.simulation(policy, trace, |s, _| s, FixedRateServer::new)
    }

    /// A shaper with a real queue under [`streamed_workload`]'s burst.
    fn stream_shaper() -> WorkloadShaper {
        WorkloadShaper::new(Provision::new(Iops::new(250.0), Iops::new(100.0)), dms(20))
    }

    fn streamed_workload() -> Workload {
        let mut arrivals: Vec<SimTime> = (0..200).map(|i| ms(i * 5)).collect();
        arrivals.extend(vec![ms(333); 40]);
        Workload::from_arrivals(arrivals)
    }

    #[test]
    fn observed_run_sketches_match_offline_report() {
        let w = streamed_workload();
        let shaper = stream_shaper();
        for policy in RecombinePolicy::ALL {
            let reference = engine(&shaper, policy, TraceHandle::disabled()).run(&w);
            let mut forwarded = 0usize;
            let obs = shaper
                .run_observed(&mut WorkloadStream::new(w.clone(), 7), policy, |_| {
                    forwarded += 1;
                })
                .expect("workload stream");
            assert_eq!(obs.sketch, reference.response_sketch(), "{policy}");
            assert_eq!(
                obs.primary,
                reference.response_sketch_for(ServiceClass::PRIMARY),
                "{policy}"
            );
            assert_eq!(
                obs.overflow,
                reference.response_sketch_for(ServiceClass::OVERFLOW),
                "{policy}"
            );
            assert_eq!(obs.completed, reference.completed());
            assert_eq!(obs.offered, reference.total_requests());
            assert_eq!(obs.end_time, reference.end_time());
            assert_eq!(forwarded, obs.completed);
        }
    }

    #[test]
    fn observed_run_footprint_is_bounded_by_chunking() {
        // The ingestion footprint must track the chunk size, not the trace
        // length: a 10×-longer trace at the same chunk size reports the
        // same peak chunk bytes.
        let shaper = stream_shaper();
        let short = Workload::from_arrivals((0..100).map(|i| ms(i * 5)));
        let long = Workload::from_arrivals((0..1000).map(|i| ms(i * 5)));
        let chunk = 10;
        let a = shaper
            .run_observed(
                &mut WorkloadStream::new(short, chunk),
                RecombinePolicy::Fcfs,
                |_| {},
            )
            .unwrap();
        let b = shaper
            .run_observed(
                &mut WorkloadStream::new(long, chunk),
                RecombinePolicy::Fcfs,
                |_| {},
            )
            .unwrap();
        assert_eq!(a.peak_chunk_bytes, b.peak_chunk_bytes);
        assert_eq!(a.peak_chunk_bytes, chunk * std::mem::size_of::<Request>());
    }

    #[test]
    fn traced_run_matches_untraced() {
        let w = streamed_workload();
        let shaper = stream_shaper();
        let streamed = |trace: TraceHandle| {
            let mut records = Vec::new();
            engine(&shaper, RecombinePolicy::Miser, trace)
                .run_stream(&mut WorkloadStream::new(w.clone(), 9), |r| records.push(r))
                .unwrap();
            records
        };
        let (trace, sink) = TraceHandle::memory();
        let traced = streamed(trace);
        let plain = streamed(TraceHandle::disabled());
        assert_eq!(traced, plain);
        assert!(!sink.borrow().is_empty(), "no trace events captured");
    }

    /// Counts the sink's records at every pull of the wrapped stream.
    struct PullProbe<'a, A> {
        inner: A,
        sunk: &'a Cell<usize>,
        at_pull: Vec<usize>,
    }

    impl<A: ArrivalStream> ArrivalStream for PullProbe<'_, A> {
        fn chunk_capacity(&self) -> usize {
            self.inner.chunk_capacity()
        }

        fn next_chunk(&mut self, buf: &mut Vec<Request>) -> Result<usize, StreamError> {
            self.at_pull.push(self.sunk.get());
            self.inner.next_chunk(buf)
        }
    }

    #[test]
    fn stream_error_keeps_the_records_drained_before_the_failing_pull() {
        // 40 spaced records in chunks of 8; in the broken copy, line 30 (in
        // chunk k = 3, 0-based) has an unknown op code.
        let line = |i: usize, op: char| format!("0,{i},512,{op},{:.3}\n", i as f64 * 0.003);
        let clean: String = (0..40).map(|i| line(i, 'R')).collect();
        let broken: String = (0..40)
            .map(|i| line(i, if i == 30 { 'X' } else { 'R' }))
            .collect();
        let (chunk, k) = (8, 3);
        let shaper = stream_shaper();
        for policy in RecombinePolicy::ALL {
            let sunk = Cell::new(0);
            let mut probe = PullProbe {
                inner: SpcStream::new(clean.as_bytes(), chunk),
                sunk: &sunk,
                at_pull: Vec::new(),
            };
            let mut clean_records = Vec::new();
            engine(&shaper, policy, TraceHandle::disabled())
                .run_stream(&mut probe, |r| {
                    sunk.set(sunk.get() + 1);
                    clean_records.push(r);
                })
                .expect("clean trace");
            let before_kth_pull = probe.at_pull[k];
            // The drain runs after each chunk, before the next pull: by
            // pull k the sink holds every completion up to the last
            // arrival of chunk k - 1, and nothing later.
            let horizon = clean_records
                .iter()
                .find(|r| r.id.index() == (k * chunk - 1) as u64)
                .expect("request completed")
                .arrival;
            let released = clean_records
                .iter()
                .filter(|r| r.completion <= horizon)
                .count();
            assert_eq!(before_kth_pull, released, "{policy}");

            // The observed run (on the lanes) drains the same records
            // before the failing pull as the engine.
            let mut received = Vec::new();
            let err = shaper
                .run_observed(&mut SpcStream::new(broken.as_bytes(), chunk), policy, |r| {
                    received.push(r)
                })
                .unwrap_err();
            assert!(matches!(err, StreamError::Parse(_)), "{policy}: {err}");
            assert!(
                before_kth_pull > 0,
                "{policy}: nothing drained before chunk {k}"
            );
            assert_eq!(received, clean_records[..before_kth_pull], "{policy}");
        }
    }
}
