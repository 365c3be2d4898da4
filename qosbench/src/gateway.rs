//! `tenant_gateway`: a few hundred short tenants through `IngestGateway`
//! on a two-worker pool, a few lanes per round.
//!
//! Tenants cycle the WS/FT/OM profiles and the four policies, and every
//! lane is cut to the same request count. Inbox bounds are tight enough
//! that a measurable share of arrivals sheds. The rounds are [`PASSES`]
//! seeded shuffles of the tenant set cut into rounds of [`LANES`], so
//! every tenant runs once per pass and in different company each pass.
//! One op is one `IngestGateway::run` round followed by
//! `TenantReport::feed_longterm` of each of its lanes into the pass's
//! shared `LongTermStore`.

use std::time::{Duration, Instant};

use gqos_core::{CapacityPlanner, Provision, RecombinePolicy};
use gqos_faults::splitmix64;
use gqos_obs::{LongTermStore, RetentionConfig};
use gqos_parallel::WorkerPool;
use gqos_stream::{IngestGateway, OnlineShaper, TenantReport, TenantSpec};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::{SimDuration, Workload};

use crate::spans::Tracer;
use crate::{digest_bytes, median, per, Outcome, Size};

const DEADLINE_MS: u64 = 50;
const FRACTION: f64 = 0.90;
/// Lanes per round: one per worker and one more each.
const LANES: usize = 4;
/// Shuffled passes over the tenant set per cycle: 9 × 480 / 4 = 1080
/// distinct rounds, so that ten or more lie beyond p99.
const PASSES: u64 = 9;
/// Worker threads of the gateway's pool (the host's `nproc`).
const WORKERS: usize = 2;
/// Every this many rounds, the round is re-run on a serial pool and must
/// reproduce the two-worker result byte for byte.
const SERIAL_CHECK_EVERY: usize = 8;
/// Every this many rounds, one host-speed reference sample is taken.
const PROBE_EVERY: usize = 4;
/// Inbox bound as a multiple of the lane's primary-queue bound ⌊Cmin·δ⌋:
/// the inbox also holds the overflow backlog, so this sheds a few
/// percent of arrivals under the profiles' bursts.
const INBOX_OVER_Q1: usize = 6;
/// Feedback window of the retention feed; divides the store's 1 s tier.
const FEED_WINDOW_MS: u64 = 100;
const SHUFFLE_SALT: u64 = 0x6A7E_5A1F_F1E5_0002;
const PROFILES: [TraceProfile; 3] = [
    TraceProfile::WebSearch,
    TraceProfile::FinTrans,
    TraceProfile::OpenMail,
];

/// A span over which `profile` generates more arrivals than a lane
/// keeps, so that every lane is cut to the same request count.
fn profile_span(profile: TraceProfile) -> SimDuration {
    SimDuration::from_secs(match profile {
        TraceProfile::FinTrans => 18,
        TraceProfile::WebSearch | TraceProfile::OpenMail => 6,
    })
}

pub struct Gateway {
    tenants: Vec<TenantSpec>,
    /// Tenant indices of every round of a cycle, pass after pass.
    rounds: Vec<[usize; LANES]>,
}

/// `passes` seeded shuffles of `0..tenants`, cut into rounds of [`LANES`].
fn shuffled_rounds(seed: u64, tenants: usize, passes: u64) -> Vec<[usize; LANES]> {
    let mut rounds = Vec::new();
    for pass in 0..passes {
        let mut order: Vec<usize> = (0..tenants).collect();
        for i in (1..tenants).rev() {
            let h = splitmix64(seed ^ SHUFFLE_SALT ^ (pass << 32) ^ i as u64);
            order.swap(i, (h % (i as u64 + 1)) as usize);
        }
        rounds.extend(
            order
                .chunks_exact(LANES)
                .map(|c| <[usize; LANES]>::try_from(c).expect("chunks are LANES long")),
        );
    }
    rounds
}

/// Generates and plans every tenant lane, and lays out the rounds.
pub fn setup(seed: u64, size: Size) -> Gateway {
    let count = size.pick(480, 24) as usize;
    let lane_requests = size.pick(600, 200) as usize;
    let deadline = SimDuration::from_millis(DEADLINE_MS);
    let tenants = (0..count)
        .map(|i| {
            let profile = PROFILES[i % PROFILES.len()];
            let policy = RecombinePolicy::ALL[(i / PROFILES.len()) % RecombinePolicy::ALL.len()];
            let workload = profile
                .generate(profile_span(profile), seed.wrapping_add(7919 * i as u64))
                .truncated(lane_requests);
            let cmin = CapacityPlanner::new(&workload, deadline).min_capacity(FRACTION);
            let max_q1 = (cmin.get() * deadline.as_secs_f64()).floor() as usize;
            TenantSpec {
                name: format!("tenant-{i:03}"),
                workload,
                shaper: OnlineShaper::new(
                    Provision::with_default_surplus(cmin, deadline),
                    deadline,
                ),
                policy,
                inbox_bound: (max_q1 * INBOX_OVER_Q1).max(1),
                chunk: gqos_stream::DEFAULT_CHUNK,
            }
        })
        .collect();
    Gateway {
        tenants,
        rounds: shuffled_rounds(seed, count, size.pick(PASSES, 2)),
    }
}

fn workload_digest(w: &Workload) -> u64 {
    let bytes: Vec<u8> = w
        .iter()
        .flat_map(|r| r.arrival.as_nanos().to_le_bytes())
        .collect();
    digest_bytes(&bytes)
}

/// What a round must reproduce on every later cycle: each lane's counts
/// and every completion record.
fn round_digest(reports: &[TenantReport]) -> u64 {
    let mut bytes = Vec::new();
    for r in reports {
        for v in [r.offered, r.completed, r.shed] {
            bytes.extend_from_slice(&(v as u64).to_le_bytes());
        }
        for c in &r.records {
            bytes.extend_from_slice(&c.completion.as_nanos().to_le_bytes());
            bytes.extend_from_slice(&c.dispatched.as_nanos().to_le_bytes());
        }
    }
    digest_bytes(&bytes)
}

impl Gateway {
    pub fn digest(&self) -> u64 {
        let rounds: Vec<u8> = self
            .rounds
            .iter()
            .flatten()
            .flat_map(|&t| (t as u32).to_le_bytes())
            .collect();
        self.tenants.iter().fold(digest_bytes(&rounds), |h, t| {
            h.rotate_left(5) ^ workload_digest(&t.workload)
        })
    }

    /// Runs rounds until `budget` has passed and at least one full cycle
    /// over the rounds is done.
    pub fn run(&self, budget: Duration, tracer: &mut Tracer) -> Outcome {
        let deadline_ns = SimDuration::from_millis(DEADLINE_MS).as_nanos();
        let window = SimDuration::from_millis(FEED_WINDOW_MS);
        let gateway = IngestGateway::new(WorkerPool::new(WORKERS));
        let serial = IngestGateway::new(WorkerPool::serial());
        let per_pass = self.tenants.len() / LANES;
        let mut out = Outcome::default();
        let mut first = Vec::with_capacity(self.rounds.len());
        let mut store = LongTermStore::new(RetentionConfig::default_tiers());
        let (mut met, mut completed, mut shed, mut offered) = (0u64, 0u64, 0u64, 0u64);
        let mut speedups = Vec::new();
        let started = Instant::now();
        for step in 0.. {
            let (cycle, round) = (step / self.rounds.len(), step % self.rounds.len());
            if round == 0 && cycle > 0 {
                if out.unit_ops == 0 {
                    out.unit_ops = out.op_ns.len();
                    out.unit_work = out.work;
                }
                if started.elapsed() >= budget {
                    break;
                }
            }
            // Every tenant feeds the store once per pass.
            if round % per_pass == 0 && step > 0 {
                store = LongTermStore::new(RetentionConfig::default_tiers());
            }
            let specs: Vec<TenantSpec> = self.rounds[round]
                .iter()
                .map(|&t| self.tenants[t].clone())
                .collect();
            let serial_specs = (round % SERIAL_CHECK_EVERY == 0).then(|| specs.clone());
            let op = out.attempted;
            let t0 = Instant::now();
            let span = tracer.begin("gateway.round", None, op);
            let run = tracer.begin("stream.gateway.run", span, op);
            let reports = gateway.run(specs);
            tracer.end(run);
            let parallel_ns = t0.elapsed().as_nanos() as u64;
            for r in &reports {
                tracer.wrap("obs.longterm.feed", span, op, || {
                    r.feed_longterm(window, &mut store)
                });
            }
            tracer.end(span);
            out.op_ns.push(t0.elapsed().as_nanos() as u64);
            out.attempted += 1;
            let mut ok = reports
                .iter()
                .all(|r| r.completed == r.offered && store.cumulative(&r.name) == Some(&r.sketch));
            if let Some(specs) = serial_specs {
                let t1 = Instant::now();
                let again = serial.run(specs);
                speedups.push(t1.elapsed().as_nanos() as f64 / parallel_ns as f64);
                ok &= again == reports;
            }
            let print = round_digest(&reports);
            if cycle == 0 {
                for r in &reports {
                    if r.policy != RecombinePolicy::Fcfs {
                        met += r.sketch.count_at_most(deadline_ns);
                        completed += r.completed as u64;
                    }
                    shed += r.shed as u64;
                    offered += r.offered as u64;
                }
                first.push(print);
                if round + 1 == per_pass {
                    out.count(
                        "obs.longterm.resident_sketches",
                        store.resident_sketches() as f64,
                    );
                }
            } else {
                ok &= first[round] == print;
            }
            if !ok {
                out.failed += 1;
            }
            if round % PROBE_EVERY == 0 {
                out.probe(1);
            }
            out.work += reports.iter().map(|r| r.offered as u64).sum::<u64>();
        }
        out.qos_met_ppm = per(met * 1_000_000, completed);
        out.count("stream.gateway.shed_ratio", per(shed, offered));
        if tracer.enabled() {
            let t = tracer.totals();
            let ns = |name: &str| t.get(name).map_or(0, |s| s.total_ns);
            out.layer(
                "stream.gateway.ns_per_req",
                per(ns("stream.gateway.run"), out.work),
            );
            out.layer(
                "obs.longterm.feed_ns_per_req",
                per(ns("obs.longterm.feed"), out.work),
            );
            out.layer("parallel.pool.speedup", median(&mut speedups));
        }
        out
    }
}
