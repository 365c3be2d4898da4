//! Online shaping: drive the paper's recombination policies chunk by
//! chunk instead of over a materialised workload.
//!
//! [`OnlineShaper`] is the streaming counterpart of
//! [`WorkloadShaper`](gqos_core::WorkloadShaper): the same provision, the
//! same deadline, the same four [`RecombinePolicy`] configurations — but
//! fed from an [`ArrivalStream`] through a
//! [`StreamingSimulation`](gqos_sim::StreamingSimulation), so peak input
//! memory is one resident chunk (`O(chunk)`) plus the scheduler backlog
//! (`O(maxQ1)` for the primary queue by Algorithm 1's bound) regardless of
//! trace length.
//!
//! Because the streaming engine is the *same* event loop the offline
//! engine runs on (see `gqos_sim::StreamingSimulation`), a chunked run
//! here is **bit-identical** to the offline `WorkloadShaper` run over the
//! recombined workload: same completion records, same nanoseconds, same
//! tie-breaks, for any chunking. The golden equivalence suite in
//! `tests/golden_equiv.rs` pins this across all four policies and chunk
//! sizes from 1 to whole-trace.

use std::mem;

use gqos_core::{CapacityAdaptive, Provision, RecombinePolicy};
use gqos_sim::{
    CompletionRecord, FixedRateServer, LatencySketch, RunReport, Scheduler, ServiceClass,
    StreamingSimulation, TraceHandle,
};
use gqos_trace::{Request, SimDuration, SimTime};

use crate::source::{ArrivalStream, StreamError};

/// Builds the streaming simulation for `policy` from
/// [`RecombinePolicy::parts`]: the policy's scheduler, handed to `wrap`,
/// over one fixed-rate server per rate in server order.
pub(crate) fn policy_simulation<S: Scheduler>(
    policy: RecombinePolicy,
    shaper: &OnlineShaper,
    trace: &TraceHandle,
    wrap: impl FnOnce(Box<dyn CapacityAdaptive>) -> S,
) -> StreamingSimulation<S> {
    let (scheduler, rates) = policy.parts(shaper.provision, shaper.deadline, trace);
    let mut sim = StreamingSimulation::new(wrap(scheduler));
    for rate in rates {
        sim = sim.server(FixedRateServer::new(rate));
    }
    sim
}

/// Offers every chunk of `stream` to `sim` in order, handing each request
/// to `on_offer` first and the simulation to `after_chunk` once the whole
/// chunk is in. Returns the chunk count and the largest resident chunk in
/// bytes (`len × size_of::<Request>()`).
pub(crate) fn feed_chunks<A, S>(
    stream: &mut A,
    sim: &mut StreamingSimulation<S>,
    mut on_offer: impl FnMut(&Request),
    mut after_chunk: impl FnMut(&mut StreamingSimulation<S>),
) -> Result<(usize, usize), StreamError>
where
    A: ArrivalStream + ?Sized,
    S: Scheduler,
{
    let mut buf = Vec::new();
    let (mut chunks, mut peak_chunk_bytes) = (0usize, 0usize);
    loop {
        let n = stream.next_chunk(&mut buf)?;
        if n == 0 {
            return Ok((chunks, peak_chunk_bytes));
        }
        chunks += 1;
        peak_chunk_bytes = peak_chunk_bytes.max(n * mem::size_of::<Request>());
        for &request in buf.iter() {
            on_offer(&request);
            sim.offer(request);
        }
        after_chunk(sim);
    }
}

/// The outcome of a record-accumulating streamed run: the full
/// [`RunReport`] plus the ingestion-side footprint numbers.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// The simulation report — bit-identical to the offline shaper's.
    pub report: RunReport,
    /// Number of chunks pulled from the stream.
    pub chunks: usize,
    /// Largest resident chunk, in bytes (`len × size_of::<Request>()`) —
    /// the peak-RSS proxy for the input side of the pipeline.
    pub peak_chunk_bytes: usize,
}

/// The outcome of a bounded-memory observed run: aggregate sketches and
/// counters only, never the per-request records.
///
/// This is a passive result record; fields are public by design.
#[derive(Clone, PartialEq, Debug)]
pub struct StreamObservation {
    /// Sketch over all response times — bit-identical to
    /// [`RunReport::response_sketch`] of the offline run.
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

/// A configured online shaper: provision + deadline, driven from an
/// [`ArrivalStream`].
///
/// # Examples
///
/// Stream a workload through Miser in chunks of 64 and check the result
/// matches the offline shaper exactly:
///
/// ```
/// use gqos_core::{Provision, RecombinePolicy, WorkloadShaper};
/// use gqos_stream::{OnlineShaper, WorkloadStream};
/// use gqos_trace::{Iops, SimDuration, SimTime, Workload};
///
/// let workload = Workload::from_arrivals((0..500).map(|i| SimTime::from_millis(i * 2)));
/// let provision = Provision::new(Iops::new(300.0), Iops::new(100.0));
/// let deadline = SimDuration::from_millis(20);
///
/// let offline = WorkloadShaper::new(provision, deadline)
///     .run(&workload, RecombinePolicy::Miser);
/// let streamed = OnlineShaper::new(provision, deadline)
///     .run(
///         &mut WorkloadStream::new(workload, 64),
///         RecombinePolicy::Miser,
///     )
///     .unwrap();
/// assert_eq!(offline.records(), streamed.report.records());
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct OnlineShaper {
    provision: Provision,
    deadline: SimDuration,
}

impl OnlineShaper {
    /// Creates an online shaper from an explicit provision.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero.
    pub fn new(provision: Provision, deadline: SimDuration) -> Self {
        assert!(!deadline.is_zero(), "deadline must be positive");
        OnlineShaper {
            provision,
            deadline,
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

    /// Streams every chunk through `policy`, accumulating the full record
    /// set, and returns the report plus footprint counters. Bit-identical
    /// to `WorkloadShaper::run` over the same arrivals.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamError`] from the source; events processed before
    /// the error are discarded.
    pub fn run<A: ArrivalStream + ?Sized>(
        &self,
        stream: &mut A,
        policy: RecombinePolicy,
    ) -> Result<StreamReport, StreamError> {
        self.run_traced(stream, policy, TraceHandle::disabled())
    }

    /// Like [`run`](OnlineShaper::run), with the full event trace routed
    /// into `trace` — same events, verdicts, and order as
    /// `WorkloadShaper::run_traced`.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamError`] from the source.
    pub fn run_traced<A: ArrivalStream + ?Sized>(
        &self,
        stream: &mut A,
        policy: RecombinePolicy,
        trace: TraceHandle,
    ) -> Result<StreamReport, StreamError> {
        let mut sim = policy_simulation(policy, self, &trace, |s| s)
            .trace(trace)
            .deadline(self.deadline);
        let (chunks, peak_chunk_bytes) = feed_chunks(stream, &mut sim, |_| {}, |_| {})?;
        Ok(StreamReport {
            report: sim.into_report(),
            chunks,
            peak_chunk_bytes,
        })
    }

    /// Streams every chunk through `policy` in bounded memory: completion
    /// records are drained after each chunk into per-class latency
    /// sketches (and `sink`, for callers that forward them — pass
    /// `|_| {}` to discard) instead of accumulating. The aggregate sketch
    /// is bit-identical to [`RunReport::response_sketch`] of the offline
    /// run; peak footprint is one chunk of requests plus the drained
    /// backlog, not the whole trace.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamError`] from the source.
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
        let mut sim = policy_simulation(policy, self, &TraceHandle::disabled(), |s| s);
        let mut obs = StreamObservation {
            sketch: LatencySketch::new(),
            primary: LatencySketch::new(),
            overflow: LatencySketch::new(),
            offered: 0,
            completed: 0,
            end_time: SimTime::ZERO,
            chunks: 0,
            peak_chunk_bytes: 0,
            peak_resident_records: 0,
        };
        let mut drain = |sim: &mut StreamingSimulation<Box<dyn CapacityAdaptive>>,
                         obs: &mut StreamObservation| {
            let mut resident = 0usize;
            for record in sim.drain_completions() {
                resident += 1;
                let response = record.response_time().as_nanos();
                obs.sketch.record(response);
                match record.class {
                    ServiceClass::PRIMARY => obs.primary.record(response),
                    _ => obs.overflow.record(response),
                }
                sink(record);
            }
            obs.completed += resident;
            obs.peak_resident_records = obs.peak_resident_records.max(resident);
        };
        (obs.chunks, obs.peak_chunk_bytes) =
            feed_chunks(stream, &mut sim, |_| {}, |sim| drain(sim, &mut obs))?;
        sim.finish();
        drain(&mut sim, &mut obs);
        obs.offered = sim.offered();
        obs.end_time = sim.end_time();
        Ok(obs)
    }
}

impl From<gqos_core::WorkloadShaper> for OnlineShaper {
    /// Adopts an offline shaper's provision and deadline, so a plan made
    /// with `WorkloadShaper::plan` can drive the streaming path.
    fn from(shaper: gqos_core::WorkloadShaper) -> Self {
        OnlineShaper::new(shaper.provision(), shaper.deadline())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::WorkloadStream;
    use gqos_core::WorkloadShaper;
    use gqos_trace::{Iops, Workload};

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn bursty() -> Workload {
        let mut arrivals: Vec<SimTime> = (0..200).map(|i| ms(i * 5)).collect();
        arrivals.extend(vec![ms(333); 40]);
        Workload::from_arrivals(arrivals)
    }

    fn shapers() -> (WorkloadShaper, OnlineShaper) {
        let provision = Provision::new(Iops::new(250.0), Iops::new(100.0));
        let deadline = SimDuration::from_millis(20);
        (
            WorkloadShaper::new(provision, deadline),
            OnlineShaper::new(provision, deadline),
        )
    }

    #[test]
    fn chunked_run_matches_offline_for_every_policy() {
        let w = bursty();
        let (offline, online) = shapers();
        for policy in RecombinePolicy::ALL {
            let reference = offline.run(&w, policy);
            let streamed = online
                .run(&mut WorkloadStream::new(w.clone(), 13), policy)
                .expect("workload stream");
            assert_eq!(
                reference.records(),
                streamed.report.records(),
                "{policy} diverged under chunking"
            );
            assert_eq!(reference.end_time(), streamed.report.end_time());
            assert_eq!(streamed.chunks, w.len().div_ceil(13));
            assert_eq!(
                streamed.peak_chunk_bytes,
                13 * std::mem::size_of::<Request>()
            );
        }
    }

    #[test]
    fn observed_run_sketches_match_offline_report() {
        let w = bursty();
        let (offline, online) = shapers();
        for policy in RecombinePolicy::ALL {
            let reference = offline.run(&w, policy);
            let mut forwarded = 0usize;
            let obs = online
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
        let (_, online) = shapers();
        let short = Workload::from_arrivals((0..100).map(|i| ms(i * 5)));
        let long = Workload::from_arrivals((0..1000).map(|i| ms(i * 5)));
        let chunk = 10;
        let a = online
            .run_observed(
                &mut WorkloadStream::new(short, chunk),
                RecombinePolicy::Fcfs,
                |_| {},
            )
            .unwrap();
        let b = online
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
        let w = bursty();
        let (_, online) = shapers();
        let (trace, sink) = TraceHandle::memory();
        let traced = online
            .run_traced(
                &mut WorkloadStream::new(w.clone(), 9),
                RecombinePolicy::Miser,
                trace,
            )
            .unwrap();
        let plain = online
            .run(&mut WorkloadStream::new(w, 9), RecombinePolicy::Miser)
            .unwrap();
        assert_eq!(traced.report.records(), plain.report.records());
        assert!(!sink.borrow().is_empty(), "no trace events captured");
    }

    #[test]
    fn adopts_offline_shaper_plan() {
        let (offline, _) = shapers();
        let online = OnlineShaper::from(offline);
        assert_eq!(online.provision(), offline.provision());
        assert_eq!(online.deadline(), offline.deadline());
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn zero_deadline_rejected() {
        let _ = OnlineShaper::new(
            Provision::new(Iops::new(1.0), Iops::new(1.0)),
            SimDuration::ZERO,
        );
    }
}
