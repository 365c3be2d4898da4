//! `spc_replay`: the paper's data path end to end.
//!
//! One long seeded OpenMail-profile trace (~530k requests over 28
//! simulated minutes) is serialised to SPC bytes in set-up. Each pass streams those bytes through `SpcStream` →
//! `OnlineShaper::run_observed` → a `LongTermStore::record` completion
//! sink, one `RecombinePolicy` per pass in turn. One op is one
//! `DEFAULT_CHUNK` of arrivals, timed from one chunk pull to the next by
//! [`TimedStream`], so an op covers the retention flush of the previous
//! chunk's completions, the parse of the chunk, and its simulation.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use gqos_core::{CapacityPlanner, Provision, RecombinePolicy};
use gqos_obs::{LongTermStore, RetentionConfig};
use gqos_sim::CompletionRecord;
use gqos_stream::{ArrivalStream, OnlineShaper, SpcStream, StreamError, StreamObservation};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::{spc, Request, SimDuration, Workload};

use crate::spans::{SpanId, Tracer};
use crate::{digest_bytes, per, Outcome, Size};

/// The shaping deadline δ (the stream experiment's 50 ms).
const DEADLINE_MS: u64 = 50;
/// The planned guaranteed fraction.
const FRACTION: f64 = 0.90;
const STORE_KEY: &str = "openmail";
/// The trace is this many seeded draws of [`SEGMENT_SECS`] each, cut to
/// at most [`SEGMENT_REQUESTS`]: a 60 s OpenMail draw holds ~20k–22k
/// requests in its low states, and up to three times that in its rare
/// high ones. That makes ~130 chunks per pass and ~520 ops per cycle of
/// four passes: few enough that a 30 s run repeats every op a dozen
/// times or more.
const SEGMENTS: u64 = 28;
const SEGMENT_SECS: u64 = 60;
const SEGMENT_REQUESTS: usize = 19_000;
/// Host-speed reference samples taken after each pass.
const PROBES_PER_PASS: usize = 16;

pub struct SpcReplay {
    bytes: Vec<u8>,
    requests: usize,
    shaper: OnlineShaper,
}

/// Span and metric names per policy, in `RecombinePolicy::ALL` order.
const PASS_SPANS: [&str; 4] = [
    "stream.shaper.run_observed.fcfs",
    "stream.shaper.run_observed.split",
    "stream.shaper.run_observed.fairqueue",
    "stream.shaper.run_observed.miser",
];
const SELF_METRICS: [&str; 4] = [
    "stream.shaper.self_ns_per_req.fcfs",
    "stream.shaper.self_ns_per_req.split",
    "stream.shaper.self_ns_per_req.fairqueue",
    "stream.shaper.self_ns_per_req.miser",
];
const OVERFLOW_METRICS: [&str; 4] = [
    "core.overflow_ratio.fcfs",
    "core.overflow_ratio.split",
    "core.overflow_ratio.fairqueue",
    "core.overflow_ratio.miser",
];

/// Generates the trace, serialises it to SPC and plans the provision.
///
/// The OpenMail profile modulates on 1–5 minute timescales, so a single
/// long draw holds only a handful of rate states, and its volume (and
/// the set-up time and memory that follow it) swings with the seed. The
/// trace is therefore stitched from [`SEGMENTS`] independently seeded
/// draws laid [`SEGMENT_SECS`] apart, each cut to at most its first
/// [`SEGMENT_REQUESTS`] requests, so every seed yields nearly the same
/// request count.
pub fn setup(seed: u64, size: Size) -> SpcReplay {
    let deadline = SimDuration::from_millis(DEADLINE_MS);
    let segment = SimDuration::from_secs(SEGMENT_SECS);
    let requests: Vec<Request> = (0..size.pick(SEGMENTS, 2))
        .flat_map(|k| {
            let draw = TraceProfile::OpenMail
                .generate(segment, seed.wrapping_add(7919 * k))
                .truncated(SEGMENT_REQUESTS);
            let offset = SimDuration::from_nanos(segment.as_nanos() * k);
            draw.shifted(offset).requests().to_vec()
        })
        .collect();
    let workload = Workload::from_requests(requests);
    let mut bytes = Vec::with_capacity(workload.len() * 40);
    spc::write_trace(&workload, &mut bytes).expect("writing to memory cannot fail");
    let cmin = CapacityPlanner::new(&workload, deadline).min_capacity(FRACTION);
    SpcReplay {
        bytes,
        requests: workload.len(),
        shaper: OnlineShaper::new(Provision::with_default_surplus(cmin, deadline), deadline),
    }
}

/// The benchmark-side `ArrivalStream` wrapper: closes one op per chunk
/// pull, flushes the previous chunk's completions into the store, and
/// parses the next chunk, each under its own span.
struct TimedStream<'a> {
    inner: SpcStream<&'a [u8]>,
    pending: &'a RefCell<Vec<CompletionRecord>>,
    store: &'a mut LongTermStore<String>,
    key: String,
    record_errors: u64,
    tracer: &'a mut Tracer,
    parent: SpanId,
    op: u64,
    last: Option<Instant>,
    op_ns: Vec<u64>,
}

impl TimedStream<'_> {
    fn flush(&mut self) {
        let id = self
            .tracer
            .begin("obs.longterm.record", self.parent, self.op);
        for r in self.pending.borrow_mut().drain(..) {
            let latency = r.response_time().as_nanos();
            if self.store.record(&self.key, r.completion, latency).is_err() {
                self.record_errors += 1;
            }
        }
        self.tracer.end(id);
    }

    fn close_op(&mut self, now: Instant) {
        if let Some(last) = self.last.replace(now) {
            self.op_ns.push((now - last).as_nanos() as u64);
            self.op += 1;
        }
    }
}

impl ArrivalStream for TimedStream<'_> {
    fn chunk_capacity(&self) -> usize {
        self.inner.chunk_capacity()
    }

    fn next_chunk(&mut self, buf: &mut Vec<Request>) -> Result<usize, StreamError> {
        let now = Instant::now();
        self.flush();
        let id = self.tracer.begin("trace.spc.parse", self.parent, self.op);
        let n = self.inner.next_chunk(buf);
        self.tracer.end(id);
        // The pull that finds the stream exhausted leaves the last op
        // open: the engine's final drain and flush still belong to it.
        if matches!(n, Ok(k) if k > 0) {
            self.close_op(now);
        }
        n
    }
}

impl SpcReplay {
    pub fn digest(&self) -> u64 {
        digest_bytes(&self.bytes)
    }

    /// Runs whole policy passes until `budget` has passed and at least one
    /// full cycle over the four policies is done.
    pub fn run(&self, budget: Duration, tracer: &mut Tracer) -> Outcome {
        let deadline_ns = self.shaper.deadline().as_nanos();
        let mut out = Outcome::default();
        let mut first: Vec<Option<StreamObservation>> = vec![None; RecombinePolicy::ALL.len()];
        let mut policy_reqs = [0u64; 4];
        let (mut met, mut completed) = (0u64, 0u64);
        let started = Instant::now();
        for pass in 0.. {
            let slot = pass % RecombinePolicy::ALL.len();
            if slot == 0 && pass > 0 {
                if out.unit_ops == 0 {
                    out.unit_ops = out.op_ns.len();
                    out.unit_work = out.work;
                }
                if started.elapsed() >= budget {
                    break;
                }
            }
            let policy = RecombinePolicy::ALL[slot];
            let mut store = LongTermStore::new(RetentionConfig::default_tiers());
            let pending = RefCell::new(Vec::new());
            let span = tracer.begin(PASS_SPANS[slot], None, out.attempted);
            let mut stream = TimedStream {
                inner: SpcStream::new(&self.bytes[..], gqos_stream::DEFAULT_CHUNK),
                pending: &pending,
                store: &mut store,
                key: STORE_KEY.to_string(),
                record_errors: 0,
                tracer: &mut *tracer,
                parent: span,
                op: out.attempted,
                last: None,
                op_ns: Vec::new(),
            };
            let observed = self
                .shaper
                .run_observed(&mut stream, policy, |r| pending.borrow_mut().push(r));
            stream.flush();
            stream.close_op(Instant::now());
            let TimedStream {
                op_ns,
                record_errors,
                ..
            } = stream;
            tracer.end(span);
            out.probe(PROBES_PER_PASS);
            let ops = op_ns.len() as u64;
            out.attempted += ops;
            out.op_ns.extend(op_ns);
            let Ok(obs) = observed else {
                out.failed += ops;
                continue;
            };
            let q1_ok = policy != RecombinePolicy::Split || obs.primary.max() <= deadline_ns;
            let ok = record_errors == 0
                && q1_ok
                && obs.offered == self.requests
                && obs.completed == obs.offered
                && store.cumulative(&STORE_KEY.to_string()) == Some(&obs.sketch)
                && first[slot].as_ref().is_none_or(|f| *f == obs);
            if !ok {
                out.failed += ops;
            }
            out.work += obs.offered as u64;
            policy_reqs[slot] += obs.offered as u64;
            if first[slot].is_none() {
                if policy != RecombinePolicy::Fcfs {
                    met += obs.sketch.count_at_most(deadline_ns);
                    completed += obs.completed as u64;
                }
                out.count("stream.shaper.chunks", obs.chunks as f64);
                out.count(
                    OVERFLOW_METRICS[slot],
                    per(obs.overflow.count(), obs.completed as u64),
                );
                out.count(
                    "obs.longterm.resident_sketches",
                    store.resident_sketches() as f64,
                );
                first[slot] = Some(obs);
            }
        }
        out.qos_met_ppm = per(met * 1_000_000, completed);
        if tracer.enabled() {
            let t = tracer.totals();
            let ns = |name: &str| t.get(name).map_or(0, |s| s.total_ns);
            out.layer(
                "trace.spc.parse_ns_per_req",
                per(ns("trace.spc.parse"), out.work),
            );
            out.layer(
                "obs.longterm.record_ns_per_req",
                per(ns("obs.longterm.record"), out.work),
            );
            for slot in 0..RecombinePolicy::ALL.len() {
                let self_ns = t.get(PASS_SPANS[slot]).map_or(0, |s| s.self_ns);
                out.layer(SELF_METRICS[slot], per(self_ns, policy_reqs[slot]));
            }
        }
        out
    }
}
