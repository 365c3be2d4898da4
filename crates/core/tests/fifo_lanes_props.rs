//! Differential property tests: the shaper's runs of all four
//! policies against the event engine.
//!
//! Untraced FCFS and Split runs on fixed-rate servers skip the engine:
//! `WorkloadShaper::run` and `WorkloadShaper::run_observed` compute them
//! as Lindley recurrences (`crates/core/src/lanes.rs`), and run FairQueue
//! and Miser on the engine itself. The engine, built explicitly through
//! `WorkloadShaper::simulation(.., FixedRateServer::new)`, stays the
//! oracle. Both drivers must match it exactly: the same records in the
//! same order, the same records released before every pull of the stream,
//! the same run counters, the same reports and per-class sketches.
//!
//! Workloads are bursty, with many zero gaps, so Q1 fills to `maxQ1` and
//! Miser's slacks sit at zero for stretches. Half the rounds put service
//! times and gaps on one time unit, so arrivals land on completion
//! instants and the two Split lanes complete at the same instant; the
//! others use arbitrary rates. Capacities include `Cmin·δ` near 1 (`maxQ1`
//! = 1 or 2) and rates whose service time clamps to 1 ns, and deadlines
//! reach the top of the clock, where `maxQ1·s₀` passes `u64::MAX`. No external
//! property-testing crate: a deterministic splitmix generator drives the
//! rounds, so a failure replays exactly.

use std::cell::Cell;

use gqos_core::{PolicyScheduler, Provision, RecombinePolicy, WorkloadShaper};
use gqos_sim::{
    CompletionRecord, FixedRateServer, RunReport, ServiceClass, Simulation, StreamRun, TraceHandle,
};
use gqos_trace::{
    ArrivalStream, Iops, Request, SimDuration, SimTime, StreamError, Workload, WorkloadStream,
};

/// Deterministic 64-bit generator (splitmix64) so failures replay exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// A bursty arrival stream of `len` requests whose gaps are multiples
    /// of `unit` ns: 40% zero gaps (ties), mostly short gaps, occasional
    /// idle stretches long enough to empty every queue.
    fn workload(&mut self, len: usize, unit: u64, service: u64) -> Workload {
        let mut t = 0u64;
        let arrivals = (0..len)
            .map(|_| {
                t += unit
                    * match self.below(10) {
                        0..=3 => 0,
                        4..=8 => self.below(2 * service / unit + 2),
                        _ => self.below(40 * service / unit + 2),
                    };
                SimTime::from_nanos(t)
            })
            .collect::<Vec<_>>();
        Workload::from_arrivals(arrivals)
    }

    /// A deadline at which `cmin` admits at least one primary: usually a
    /// bound `⌊Cmin·δ⌋` of 1 or 2, sometimes up to 8.
    fn deadline(&mut self, cmin: Iops) -> SimDuration {
        let s0 = cmin
            .service_time()
            .max(SimDuration::from_nanos(1))
            .as_nanos();
        let slots = if self.below(2) == 0 {
            1 + self.below(2)
        } else {
            1 + self.below(8)
        };
        let mut deadline = s0 * slots + self.below(2) * self.below(s0);
        while cmin.requests_within(SimDuration::from_nanos(deadline)) == 0 {
            deadline += 1;
        }
        SimDuration::from_nanos(deadline)
    }
}

/// A rate whose service time is exactly `service_ns`.
fn rate(service_ns: u64) -> Iops {
    Iops::new(1e9 / service_ns as f64)
}

/// The engine of `policy` at `shaper`'s provision, untraced on plain
/// fixed-rate servers: the oracle.
fn engine(
    shaper: &WorkloadShaper,
    policy: RecombinePolicy,
) -> Simulation<PolicyScheduler, FixedRateServer> {
    shaper.simulation(
        policy,
        TraceHandle::disabled(),
        |s, _| s,
        FixedRateServer::new,
    )
}

/// Counts the sink's records at every pull of the wrapped stream: where
/// each drain ended.
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

/// Streams `workload` in chunks of `chunk` through `run`, returning the
/// records, what `run` returned, and the record count at every pull.
fn streamed<R>(
    workload: &Workload,
    chunk: usize,
    run: impl FnOnce(&mut PullProbe<'_, WorkloadStream>, &mut dyn FnMut(CompletionRecord)) -> R,
) -> (Vec<CompletionRecord>, R, Vec<usize>) {
    let sunk = Cell::new(0);
    let mut probe = PullProbe {
        inner: WorkloadStream::new(workload.clone(), chunk),
        sunk: &sunk,
        at_pull: Vec::new(),
    };
    let mut records = Vec::new();
    let out = run(&mut probe, &mut |r| {
        sunk.set(sunk.get() + 1);
        records.push(r);
    });
    (records, out, probe.at_pull)
}

fn assert_reports_equal(lanes: &RunReport, oracle: &RunReport, what: &str) {
    assert_eq!(lanes.records(), oracle.records(), "{what}: records");
    assert_eq!(lanes.total_requests(), oracle.total_requests(), "{what}");
    assert_eq!(lanes.end_time(), oracle.end_time(), "{what}: end time");
    assert_eq!(lanes.response_sketch(), oracle.response_sketch(), "{what}");
    for class in [ServiceClass::PRIMARY, ServiceClass::OVERFLOW] {
        assert_eq!(
            lanes.response_sketch_for(class),
            oracle.response_sketch_for(class),
            "{what}: {class:?} sketch"
        );
    }
}

/// Both drivers of `policy` against the engine, over every chunking in
/// `chunks`.
fn check(shaper: &WorkloadShaper, policy: RecombinePolicy, w: &Workload, chunks: &[usize]) {
    let what = format!("{policy} at {shaper}, {} requests", w.len());
    let oracle = engine(shaper, policy).run(w);
    assert_reports_equal(&shaper.run(w, policy), &oracle, &what);
    for &chunk in chunks {
        let what = format!("{what}, chunk {chunk}");
        let (engine_records, run, engine_pulls) = streamed(w, chunk, |stream, sink| {
            engine(shaper, policy)
                .run_stream(stream, sink)
                .expect("workload stream")
        });
        let run: StreamRun = run;
        assert_eq!(engine_records, oracle.records(), "{what}: engine drivers");
        let (records, obs, pulls) = streamed(w, chunk, |stream, sink| {
            shaper
                .run_observed(stream, policy, sink)
                .expect("workload stream")
        });
        assert_eq!(records, engine_records, "{what}: records");
        assert_eq!(pulls, engine_pulls, "{what}: records released per pull");
        assert_eq!(obs.chunks, run.chunks, "{what}");
        assert_eq!(obs.peak_chunk_bytes, run.peak_chunk_bytes, "{what}");
        assert_eq!(obs.offered, run.offered, "{what}");
        assert_eq!(obs.end_time, run.end_time, "{what}");
        assert_eq!(obs.peak_resident_records, run.peak_drain_records, "{what}");
        assert_eq!(obs.completed, engine_records.len(), "{what}");
        assert_eq!(obs.sketch, oracle.response_sketch(), "{what}");
        assert_eq!(
            obs.primary,
            oracle.response_sketch_for(ServiceClass::PRIMARY),
            "{what}"
        );
        assert_eq!(
            obs.overflow,
            oracle.response_sketch_for(ServiceClass::OVERFLOW),
            "{what}"
        );
    }
}

#[test]
fn lanes_match_the_engine_on_random_workloads() {
    let mut rng = Rng(0x1a4e_0001);
    for round in 0..240 {
        let aligned = round % 2 == 0;
        // One time unit for services and gaps in aligned rounds, so
        // arrivals meet completions and the lanes complete together.
        let unit = [1, 1_000, 1_000_000][rng.below(3) as usize];
        let (cmin, delta_c, total) = match rng.below(8) {
            // Service below half a nanosecond clamps to 1 ns.
            0 => (Iops::new(3e9), Iops::new(2.5e9), Iops::new(5.5e9)),
            _ if aligned => (
                rate(unit * (1 + rng.below(6))),
                rate(unit * (1 + rng.below(12))),
                rate(unit * (1 + rng.below(6))),
            ),
            _ => {
                let c = 50.0 + rng.below(5_000) as f64 * 1.37;
                (
                    Iops::new(c),
                    Iops::new(1.0 + rng.below(2_000) as f64 * 0.91),
                    Iops::new(c),
                )
            }
        };
        let unit = if aligned { unit } else { 1 };
        let s0 = cmin
            .service_time()
            .max(SimDuration::from_nanos(1))
            .as_nanos();
        let len = 1 + rng.below(300) as usize;
        let w = rng.workload(len, unit.min(s0), s0);
        let deadline = rng.deadline(cmin);
        let chunks = [1, 7, 1 + rng.below(50) as usize, w.len()];
        let split = WorkloadShaper::new(Provision::new(cmin, delta_c), deadline);
        check(&split, RecombinePolicy::Split, &w, &chunks);
        // FCFS, FairQueue and Miser on one server of a total rate of its
        // own (aligned rounds keep it on the unit): Cmin + ΔC = total, with
        // RTT bounded at a share of it.
        let share = [0.5, 0.75, 0.875][rng.below(3) as usize];
        let shared_cmin = Iops::new(total.get() * share);
        let one_server = WorkloadShaper::new(
            Provision::new(shared_cmin, Iops::new(total.get() * (1.0 - share))),
            rng.deadline(shared_cmin),
        );
        let s = one_server.provision().total().service_time().as_nanos();
        let w = rng.workload(len, unit.min(s), s);
        for policy in [
            RecombinePolicy::Fcfs,
            RecombinePolicy::FairQueue,
            RecombinePolicy::Miser,
        ] {
            check(&one_server, policy, &w, &chunks);
        }
    }
}

#[test]
fn lane_ties_release_the_primary_server_first() {
    // maxQ1 = ⌊100 × 0.02⌋ = 2, s₀ = 10 ms, s₁ = 20 ms. Requests 1
    // (primary) and 2 (overflow) both complete at 20 ms, the instant of
    // the last arrival: the engine pops Completion{server 0} first, and
    // both are released by the drain of the chunk that ends at 20 ms.
    let shaper = WorkloadShaper::new(
        Provision::new(Iops::new(100.0), Iops::new(50.0)),
        SimDuration::from_millis(20),
    );
    let ms = SimTime::from_millis;
    let w = Workload::from_arrivals([ms(0), ms(0), ms(0), ms(20)]);
    let report = shaper.run(&w, RecombinePolicy::Split);
    let got: Vec<_> = report
        .records()
        .iter()
        .map(|r| (r.id.index(), r.class, r.completion))
        .collect();
    assert_eq!(
        got,
        vec![
            (0, ServiceClass::PRIMARY, ms(10)),
            (1, ServiceClass::PRIMARY, ms(20)),
            (2, ServiceClass::OVERFLOW, ms(20)),
            (3, ServiceClass::PRIMARY, ms(30)),
        ]
    );
    for policy in RecombinePolicy::ALL {
        check(&shaper, policy, &w, &[1, 2, 3, 4]);
    }
}

#[test]
fn overflowing_admission_bounds_match_the_engine() {
    // 1/Cmin between k − 0.5 and k ns rounds up to s₀ = k, so near the top
    // of the clock maxQ1·s₀ passes 2^64 ns while ⌊Cmin·δ⌋ itself still
    // fits (at Cmin = 6.6·10⁸, from δ ≈ 1.4·10¹⁹ ns). The lanes' admit cap
    // is then u64::MAX − s₀; short bursts near t = 0 never reach it, and
    // every policy must still match the engine record for record.
    let mut rng = Rng(0x1a4e_0002);
    for round in 0..40 {
        let k = 2 + rng.below(3);
        let service_ns = k as f64 - 0.5 + rng.below(400) as f64 / 1000.0;
        let cmin = if round == 0 {
            Iops::new(6.6e8)
        } else {
            Iops::new(1e9 / service_ns)
        };
        let s0 = cmin.service_time().as_nanos();
        // The smallest δ at which maxQ1·s₀ overflows, with a margin for
        // the float estimate; then anywhere from there to the clock's end.
        let lowest = (u64::MAX as f64 / (cmin.get() * s0 as f64 / 1e9) * (1.0 + 1e-9)) as u64;
        let deadline = SimDuration::from_nanos(u64::MAX - rng.below(u64::MAX - lowest));
        let max_q1 = cmin.requests_within(deadline);
        assert!(max_q1.checked_mul(s0).is_none(), "round {round}");
        let len = 1 + rng.below(200) as usize;
        let w = rng.workload(len, 1, s0);
        let chunks = [1, 7, 1 + rng.below(50) as usize, w.len()];
        let delta_c = Iops::new(1.0 + rng.below(2_000_000_000) as f64);
        let shaper = WorkloadShaper::new(Provision::new(cmin, delta_c), deadline);
        for policy in RecombinePolicy::ALL {
            check(&shaper, policy, &w, &chunks);
        }
    }
}
