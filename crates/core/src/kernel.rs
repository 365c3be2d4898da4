//! Allocation-free integer kernels behind the RTT decomposition family.
//!
//! Every offline entry point — [`decompose`], [`overflow_count`], the
//! cascade, the fused capacity grids, the planner's probes and the fleet
//! placer's merged-column probe — runs the same loop: walk the arrivals in
//! order, emulate the dedicated rate-`C` primary server, and admit while
//! fewer than `maxQ1 = ⌊C·δ⌋` primary requests are pending. This module
//! states that server once, as a work recurrence in pure integer
//! arithmetic over the workload's cached
//! [`ArrivalColumn`](gqos_trace::ArrivalColumn):
//!
//! - [`RttParams`] precomputes the service time and the admit cap for one
//!   `(C, δ)` pair; the shaper's Split lanes (`lanes.rs`) read the same
//!   pair online;
//! - [`WorkState`] is one lane of the emulated server;
//! - `count_misses` is the one scalar scan: it feeds one lane and counts
//!   misses until they pass a budget (`u64::MAX` counts them all);
//! - `work_tile` is the one batched form: [`LANE_BATCH`] lanes per sweep,
//!   compiled once per ISA tier;
//! - `budgeted_misses` drives a whole capacity grid through both, and
//!   [`overflow_curve`] and [`within_miss_budget_curve`] are its public
//!   faces.
//!
//! # The work recurrence
//!
//! The emulated server is work-conserving with deterministic service
//! `s = service_ns`, so its remaining work `w` (ns) drains at exactly
//! 1 ns per ns while positive. Per arrival, with `gap` the time since the
//! previous one:
//!
//! ```text
//! w ← max(w − gap, 0)          // the server drains 1 ns of work per ns
//! admit ⇔ w ≤ (maxQ1 − 1)·s    // pending = ⌈w/s⌉ < maxQ1
//! if admit { w ← w + s }       // an admitted request adds s ns of work
//! ```
//!
//! The head request carries `w mod s` (or a full `s`) and every other
//! request a full `s`, so the pending count at any instant is `⌈w/s⌉`, and
//! `⌈w/s⌉ < maxQ1 ⇔ w ≤ (maxQ1 − 1)·s` for integer `w`: the recurrence is
//! Algorithm 1's count test, decision for decision. Four branch-free
//! integer ops per lane per arrival, no division, and one `u64` of state
//! per lane — the shape the vector units want. [`LANE_BATCH`] lanes run
//! per sweep through one generic `work_tile` body, which the compiler
//! vectorises once per `#[target_feature]` tier (AVX-512F, AVX2, baseline)
//! selected at runtime. Every tier performs the same wrap-free `u64`
//! arithmetic, so results are bit-identical across ISAs — see `DESIGN.md`
//! §13.
//!
//! Nothing wraps: the gap is never negative on a sorted column, and the
//! admit cap is `min((maxQ1 − 1)·s, u64::MAX − s)`, so the backlog after an
//! admission is at most `u64::MAX`. The second term binds only where
//! `maxQ1·s` itself passes `u64::MAX` (δ > 1.38·10¹⁹ ns, ~438 years), and
//! there it diverts exactly the arrivals whose emulated completion
//! `t + w + s` would pass the `u64` clock. Everywhere else the recurrence
//! is exact, whatever the arrival instants: the unit tests hold it to a
//! `u128` transcription of the per-completion loop at the clock horizon,
//! and `columnar_props` on random workloads.
//!
//! [`decompose`]: crate::rtt::decompose
//! [`overflow_count`]: crate::rtt::overflow_count

use gqos_trace::{Iops, SimDuration, Workload};

/// The emulated primary server at one `(C, δ)`: the service time `s` and
/// the admit cap on its remaining work (module docs).
#[derive(Copy, Clone, Debug)]
pub(crate) struct RttParams {
    /// Deterministic primary service time `s = 1/C` in nanoseconds (≥ 1).
    pub(crate) service_ns: u64,
    /// An arrival is admitted iff the remaining work is at most this:
    /// `min((maxQ1 − 1)·s, u64::MAX − s)`.
    pub(crate) admit_cap_ns: u64,
}

impl RttParams {
    /// Parameters for a scan, with the same contract as
    /// [`RttClassifier::new`](crate::RttClassifier::new).
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero or `⌊C·δ⌋ = 0`.
    pub(crate) fn new(capacity: Iops, deadline: SimDuration) -> Self {
        assert!(!deadline.is_zero(), "deadline must be positive");
        RttParams::try_new(capacity, deadline).unwrap_or_else(|| {
            panic!(
                "C x delta = {capacity} x {deadline} admits no requests; \
                 raise capacity or deadline"
            )
        })
    }

    /// Non-panicking variant: `None` when `⌊C·δ⌋ = 0` (a zero deadline, or
    /// a degenerate capacity that can guarantee nothing — every request
    /// overflows).
    ///
    /// The bound is [`Iops::requests_within`], which saturates at
    /// `u64::MAX` when `C·δ` exceeds the 64-bit counter; the cap's
    /// `u64::MAX − s` term covers that too, so grid sweeps may include
    /// absurd capacities without pre-filtering or panicking.
    pub(crate) fn try_new(capacity: Iops, deadline: SimDuration) -> Option<Self> {
        let max_q1 = capacity.requests_within(deadline);
        if max_q1 == 0 {
            return None;
        }
        let service_ns = capacity.service_time().as_nanos();
        let admit_cap_ns = (max_q1 - 1)
            .saturating_mul(service_ns)
            .min(u64::MAX - service_ns);
        Some(RttParams {
            service_ns,
            admit_cap_ns,
        })
    }
}

/// One lane of the emulated primary server: its remaining work `w` and the
/// previous arrival instant, which carries the gap chain.
#[derive(Copy, Clone, Default, Debug)]
pub(crate) struct WorkState {
    w: u64,
    prev: u64,
}

impl WorkState {
    /// Processes one arrival (Algorithm 1, module docs): `true` if it is
    /// admitted to the primary class.
    ///
    /// A lane that skips arrivals (a cascade level an arrival never
    /// reaches) loses nothing: draining `a` then `b` ns is draining `a + b`.
    #[inline(always)]
    pub(crate) fn admit(&mut self, p: RttParams, arrival_ns: u64) -> bool {
        // The column is sorted ascending (ArrivalColumn invariant), so the
        // gap never underflows.
        let drained = self.w.saturating_sub(arrival_ns - self.prev);
        self.prev = arrival_ns;
        let admit = drained <= p.admit_cap_ns;
        self.w = if admit {
            drained + p.service_ns
        } else {
            drained
        };
        admit
    }
}

/// RTT misses at one capacity over sorted `arrivals`, stopping as soon as
/// they exceed `budget`: the count is exact when it is at most `budget`,
/// and some count above `budget` otherwise; a `budget` of `u64::MAX` counts
/// every miss.
///
/// This is the one scalar scan: [`overflow_count`](crate::overflow_count),
/// the planner's single-capacity probe, the grids' last `k mod 8` lanes and
/// the fleet's merged-column probe all run it.
#[inline]
pub(crate) fn count_misses(
    arrivals: impl IntoIterator<Item = u64>,
    p: RttParams,
    budget: u64,
) -> u64 {
    let mut state = WorkState::default();
    let mut misses = 0u64;
    for arrival in arrivals {
        if !state.admit(p, arrival) {
            misses += 1;
            if misses > budget {
                break;
            }
        }
    }
    misses
}

/// Budget probe over the *merge* of two sorted columns, without
/// materialising the merged column: `true` iff RTT diverts at most
/// `budget` of the merged arrivals. Equal instants are interchangeable —
/// the admit rule depends only on the arrival value, so any tie order
/// yields the same verdict as scanning the materialised merge.
///
/// This is the fleet placer's "tenant T joins server S" feasibility probe:
/// `a` is the server's resident merged column, `b` the candidate tenant's,
/// and the probe costs zero allocations and stops as soon as `budget` is
/// exceeded. It runs the one scalar scan, so it is bit-equal to
/// `overflow_count(merged) <= budget`, pinned by
/// `merged_probe_matches_materialised` and the `fleet_props` differential
/// suite. A degenerate capacity (`⌊C·δ⌋ = 0`) misses every arrival.
pub(crate) fn merged_within_budget(
    a: &[u64],
    b: &[u64],
    capacity: Iops,
    deadline: SimDuration,
    budget: u64,
) -> bool {
    let misses = match RttParams::try_new(capacity, deadline) {
        Some(p) => count_misses(merge(a, b), p, budget),
        None => (a.len() + b.len()) as u64,
    };
    misses <= budget
}

/// The merge of two sorted columns, ascending.
fn merge<'a>(a: &'a [u64], b: &'a [u64]) -> impl Iterator<Item = u64> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || match (a.get(i), b.get(j)) {
        (Some(&x), Some(&y)) if y < x => {
            j += 1;
            Some(y)
        }
        (Some(&x), _) => {
            i += 1;
            Some(x)
        }
        (None, Some(&y)) => {
            j += 1;
            Some(y)
        }
        (None, None) => None,
    })
}

/// Lanes per sweep of the fused curves. Eight `u64` states fill one
/// AVX-512 register (two AVX2 registers), and eight independent
/// recurrences are enough to hide the compare/blend latency even on the
/// baseline tier. Grids are processed `⌈k/8⌉` batches at a time with a
/// scalar remainder loop for the last `k mod 8` lanes.
pub(crate) const LANE_BATCH: usize = 8;

/// Arrivals per tile of a batched sweep: 4096 × 8 B = 32 KiB, sized to
/// sit in L1d. `budgeted_misses` checks lane viability at tile
/// granularity so busted batches drop out between blocks.
const TILE: usize = 4096;

/// One tile of the work recurrence over `K` lanes: streams `block`,
/// updating per-lane backlog `w` and miss counters in place. `prev` is the
/// previous arrival instant (0 before the first tile) and carries the gap
/// chain across tiles. The inner `K`-lane loop is branch-free (compare →
/// mask → blend), which is what lets the compiler vectorise it inside each
/// `#[target_feature]` wrapper.
#[inline(always)]
fn work_tile<const K: usize>(
    block: &[u64],
    service: &[u64; K],
    cap: &[u64; K],
    w: &mut [u64; K],
    miss: &mut [u64; K],
    prev: &mut u64,
) {
    let mut last = *prev;
    for &arrival in block {
        let gap = arrival - last;
        last = arrival;
        for l in 0..K {
            let drained = w[l].saturating_sub(gap);
            let admit = drained <= cap[l];
            miss[l] += u64::from(!admit);
            w[l] = drained + u64::from(admit) * service[l];
        }
    }
    *prev = last;
}

/// [`work_tile`] compiled for AVX-512F: the eight `u64` lanes fit one zmm
/// register, and unsigned 64-bit max/compare are native.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn work_tile_avx512(
    block: &[u64],
    service: &[u64; LANE_BATCH],
    cap: &[u64; LANE_BATCH],
    w: &mut [u64; LANE_BATCH],
    miss: &mut [u64; LANE_BATCH],
    prev: &mut u64,
) {
    work_tile(block, service, cap, w, miss, prev);
}

/// [`work_tile`] compiled for AVX2: the eight lanes split across two ymm
/// registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn work_tile_avx2(
    block: &[u64],
    service: &[u64; LANE_BATCH],
    cap: &[u64; LANE_BATCH],
    w: &mut [u64; LANE_BATCH],
    miss: &mut [u64; LANE_BATCH],
    prev: &mut u64,
) {
    work_tile(block, service, cap, w, miss, prev);
}

/// Runtime-dispatched `work_tile`: picks the widest ISA tier the host
/// supports. Every tier compiles the same wrap-free `u64` recurrence, so
/// the choice affects speed only, never results — pinned by
/// `every_tile_tier_matches_the_scalar_lane_bit_for_bit` and the
/// `simd_props` differential suite.
#[inline]
fn work_tile_dispatch(
    block: &[u64],
    service: &[u64; LANE_BATCH],
    cap: &[u64; LANE_BATCH],
    w: &mut [u64; LANE_BATCH],
    miss: &mut [u64; LANE_BATCH],
    prev: &mut u64,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f support was just verified.
            return unsafe { work_tile_avx512(block, service, cap, w, miss, prev) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: avx2 support was just verified.
            return unsafe { work_tile_avx2(block, service, cap, w, miss, prev) };
        }
    }
    work_tile(block, service, cap, w, miss, prev);
}

/// RTT miss counts for a set of `(capacity, budget)` probes over one
/// sorted column, in fused passes: count `i` is exact when it is at most
/// `probes[i].1`, and some count above it otherwise (see
/// `count_misses`), so probe `i` is met iff count `i` is at most its
/// budget. Degenerate capacities (`⌊C·δ⌋ = 0`) miss every arrival. Per-lane
/// budgets are what the planner's wide bisection needs: one pass answers
/// eight *different* capacities' probes at once.
///
/// Lanes run [`LANE_BATCH`] at a time through `work_tile`, each
/// batch sweeping the column once with its eight 8-byte states in
/// registers. Early exit is at batch granularity: the column is streamed
/// in [`TILE`]-sized blocks and a batch stops as soon as *every* lane in
/// it has exceeded its budget (each lane's verdict depends only on its own
/// running count, so letting a busted lane ride along is harmless).
/// Overflow counts are non-increasing in `C` (see
/// `overflow_is_monotone_in_capacity` in the tests), so sorted grids bust
/// from the bottom up and an infeasible batch costs one budget-bounded
/// prefix, not eight full scans. The last `k mod 8` lanes run one at a
/// time through `count_misses`.
///
/// # Panics
///
/// Panics if `deadline` is zero.
pub(crate) fn budgeted_misses(
    col: &[u64],
    probes: &[(Iops, u64)],
    deadline: SimDuration,
) -> Vec<u64> {
    assert!(!deadline.is_zero(), "deadline must be positive");
    let mut misses = vec![col.len() as u64; probes.len()];
    let batched: Vec<(usize, RttParams, u64)> = probes
        .iter()
        .enumerate()
        .filter_map(|(i, &(c, budget))| Some((i, RttParams::try_new(c, deadline)?, budget)))
        .collect();
    let mut batches = batched.chunks_exact(LANE_BATCH);
    for batch in &mut batches {
        let mut service = [0u64; LANE_BATCH];
        let mut cap = [0u64; LANE_BATCH];
        let mut budget = [0u64; LANE_BATCH];
        for (l, &(_, p, b)) in batch.iter().enumerate() {
            service[l] = p.service_ns;
            cap[l] = p.admit_cap_ns;
            budget[l] = b;
        }
        let mut w = [0u64; LANE_BATCH];
        let mut miss = [0u64; LANE_BATCH];
        let mut prev = 0u64;
        for block in col.chunks(TILE) {
            work_tile_dispatch(block, &service, &cap, &mut w, &mut miss, &mut prev);
            if (0..LANE_BATCH).all(|l| miss[l] > budget[l]) {
                // Whole batch busted: drop the remaining tiles.
                break;
            }
        }
        for (l, &(i, _, _)) in batch.iter().enumerate() {
            misses[i] = miss[l];
        }
    }
    for &(i, p, b) in batches.remainder() {
        misses[i] = count_misses(col.iter().copied(), p, b);
    }
    misses
}

/// Evaluates RTT overflow counts for a whole capacity grid in one fused
/// pass over the workload — the probe behind capacity sweeps and
/// [`CapacityPlanner::fraction_curve`](crate::CapacityPlanner::fraction_curve).
///
/// Result `i` equals `decompose(workload, capacities[i], deadline)
/// .overflow_count()`, except that *degenerate* capacities (`⌊C·δ⌋ = 0`,
/// which [`decompose`](crate::rtt::decompose) rejects with a panic) map to
/// `workload.len()`: a capacity that cannot finish one request within the
/// deadline guarantees nothing, so every request overflows. That convention
/// lets grid sweeps include sub-floor capacities without pre-filtering.
///
/// The grid is processed eight capacities at a time in the
/// work-recurrence form (module docs): each batch sweeps the column once
/// with its eight 8-byte states in registers, four branch-free ops per
/// lane per arrival, vectorised on the widest ISA tier the host supports.
/// Results are bit-identical to the scalar scan on every tier. The column
/// is streamed `⌈k/8⌉` times, but it is a flat 8 B/req buffer — bandwidth
/// is not the binding constraint.
///
/// # Panics
///
/// Panics if `deadline` is zero.
pub fn overflow_curve(workload: &Workload, capacities: &[Iops], deadline: SimDuration) -> Vec<u64> {
    overflow_curve_ns(workload.arrival_column().nanos(), capacities, deadline)
}

/// [`overflow_curve`] over a raw sorted arrival column (nanoseconds), the
/// form the planner's seed curves build on.
///
/// The column must be sorted ascending (an [`ArrivalColumn`] invariant;
/// merged server columns preserve it by construction).
///
/// [`ArrivalColumn`]: gqos_trace::ArrivalColumn
///
/// # Panics
///
/// Panics if `deadline` is zero.
pub fn overflow_curve_ns(col: &[u64], capacities: &[Iops], deadline: SimDuration) -> Vec<u64> {
    let probes: Vec<(Iops, u64)> = capacities.iter().map(|&c| (c, u64::MAX)).collect();
    budgeted_misses(col, &probes, deadline)
}

/// Fused budgeted feasibility probe over a capacity grid at one shared
/// budget: result `i` is `overflow_count(workload, capacities[i],
/// deadline) <= budget` (with the [`overflow_curve`] convention for
/// degenerate capacities), computed in fused passes over the workload that
/// stop early once every lane of a batch is past the budget.
///
/// # Panics
///
/// Panics if `deadline` is zero.
pub fn within_miss_budget_curve(
    workload: &Workload,
    capacities: &[Iops],
    deadline: SimDuration,
    budget: u64,
) -> Vec<bool> {
    let probes: Vec<(Iops, u64)> = capacities.iter().map(|&c| (c, budget)).collect();
    budgeted_misses(workload.arrival_column().nanos(), &probes, deadline)
        .into_iter()
        .map(|misses| misses <= budget)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::{CascadeDecomposer, CascadeLevel};
    use crate::rtt::{decompose, overflow_count};
    use gqos_sim::ServiceClass;
    use gqos_trace::SimTime;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn bursty() -> Workload {
        let mut arrivals: Vec<SimTime> = (0..400).map(|i| ms(i * 7)).collect();
        arrivals.extend(vec![ms(500); 25]);
        arrivals.extend(vec![ms(1700); 60]);
        Workload::from_arrivals(arrivals)
    }

    /// A seeded column with runs of equal instants and long idle gaps
    /// (splitmix64, so a failure replays exactly).
    fn random_column(len: usize, seed: u64) -> Workload {
        let mut state = seed;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        let mut t = 0u64;
        let arrivals: Vec<SimTime> = (0..len)
            .map(|_| {
                t += match next(10) {
                    0..=4 => next(3_000_000),  // ≤ 3 ms
                    5..=7 => 0,                // a tie (burst)
                    8 => next(300_000_000),    // ≤ 300 ms idle
                    _ => next(20_000_000_000), // ≤ 20 s idle
                };
                SimTime::from_nanos(t)
            })
            .collect();
        Workload::from_arrivals(arrivals)
    }

    /// Algorithm 1 as a per-completion loop over a cascade of levels, with
    /// the emulated clocks in `u128` so no instant saturates or wraps: each
    /// level drains its completions one at a time on every arrival, and the
    /// arrival joins the first level with fewer than `maxQ1` pending, else
    /// class `levels.len()`. One level is two-class RTT.
    fn per_completion_classes(col: &[u64], levels: &[(Iops, SimDuration)]) -> Vec<usize> {
        let mut servers: Vec<(u128, u128, u128, u128)> = levels
            .iter()
            .map(|&(c, d)| {
                let max_q1 = u128::from(c.requests_within(d));
                (max_q1, u128::from(c.service_time().as_nanos()), 0, 0)
            })
            .collect();
        col.iter()
            .map(|&arrival| {
                let a = u128::from(arrival);
                for (_, s, len_q1, next_done) in &mut servers {
                    while *len_q1 > 0 && *next_done <= a {
                        *len_q1 -= 1;
                        *next_done += *s;
                    }
                    if *len_q1 == 0 {
                        *next_done = a + *s;
                    }
                }
                let class = servers
                    .iter()
                    .position(|&(max_q1, _, len_q1, _)| len_q1 < max_q1)
                    .unwrap_or(levels.len());
                if let Some((_, _, len_q1, _)) = servers.get_mut(class) {
                    *len_q1 += 1;
                }
                class
            })
            .collect()
    }

    /// The per-completion loop's overflow count at one `(C, δ)`.
    fn per_completion_misses(col: &[u64], c: Iops, d: SimDuration) -> u64 {
        let classes = per_completion_classes(col, &[(c, d)]);
        classes.iter().filter(|&&class| class == 1).count() as u64
    }

    /// `decompose`, `overflow_count`, `overflow_curve` and a two-level
    /// `CascadeDecomposer` over `w`, each against the per-completion loop.
    fn assert_matches_per_completion_loop(w: &Workload, grid: &[Iops], d: SimDuration) {
        let col = w.arrival_column().nanos();
        let expected: Vec<u64> = grid
            .iter()
            .map(|&c| per_completion_misses(col, c, d))
            .collect();
        assert_eq!(overflow_curve(w, grid, d), expected, "overflow_curve");
        for (&c, &misses) in grid.iter().zip(&expected) {
            assert_eq!(overflow_count(w, c, d), misses, "overflow_count C={c}");
            let classes: Vec<usize> = decompose(w, c, d)
                .assignments()
                .iter()
                .map(|class| usize::from(class.index()))
                .collect();
            assert_eq!(classes, per_completion_classes(col, &[(c, d)]), "C={c}");
            let levels = [(c, d), (Iops::new(c.get() / 4.0), d * 8)];
            let cascade = CascadeDecomposer::new(
                levels
                    .iter()
                    .map(|&(capacity, deadline)| CascadeLevel { capacity, deadline })
                    .collect(),
            );
            let classes: Vec<usize> = cascade
                .decompose(w)
                .assignments()
                .iter()
                .map(|class| usize::from(class.index()))
                .collect();
            assert_eq!(
                classes,
                per_completion_classes(col, &levels),
                "cascade C={c}"
            );
        }
    }

    #[test]
    fn work_form_matches_the_per_completion_loop_at_the_horizon() {
        // Arrivals at the end of the u64 clock, where the emulated
        // completions pass it. At C = 100, δ = 20 ms (maxQ1 = 2, s = 10 ms)
        // the first two requests at MAX − 10 ns are still pending at MAX,
        // so the fourth arrival is diverted, like the third.
        let max = u64::MAX;
        let w =
            Workload::from_arrivals([max - 10, max - 10, max - 10, max].map(SimTime::from_nanos));
        let (c, d) = (Iops::new(100.0), dms(20));
        assert_eq!(overflow_count(&w, c, d), 2);
        let admitted: Vec<bool> = decompose(&w, c, d)
            .assignments()
            .iter()
            .map(|&class| class == ServiceClass::PRIMARY)
            .collect();
        assert_eq!(admitted, [true, true, false, false]);
        let grid = [100.0, 300.0, 1e6].map(Iops::new);
        assert_matches_per_completion_loop(&w, &grid, d);
        // Bursts ending at the horizon, and seeded columns shifted so their
        // last arrival is `u64::MAX`.
        let stepped =
            Workload::from_arrivals((0..50).map(|i| SimTime::from_nanos(max - 500 + 10 * (i / 5))));
        assert_matches_per_completion_loop(&stepped, &grid, d);
        for seed in 0..4 {
            let w = random_column(300, seed);
            let col = w.arrival_column().nanos();
            let shift = max - col.last().unwrap();
            let w = Workload::from_arrivals(col.iter().map(|&t| SimTime::from_nanos(t + shift)));
            assert_matches_per_completion_loop(&w, &grid, dms(10));
        }
    }

    #[test]
    fn the_backlog_cap_binds_only_past_the_clock() {
        // 1/C rounds 1.5 ns up to s = 2 ns, so at δ = 1.4·10¹⁹ ns
        // maxQ1·s ≈ 1.33·δ passes u64::MAX and the cap is u64::MAX − s.
        let p = RttParams::new(
            Iops::new(6.6e8),
            SimDuration::from_nanos(14_000_000_000_000_000_000),
        );
        assert_eq!((p.service_ns, p.admit_cap_ns), (2, u64::MAX - 2));
        let mut lane = WorkState {
            w: u64::MAX - 2,
            prev: 0,
        };
        assert!(lane.admit(p, 0), "a backlog at the cap admits");
        assert_eq!(lane.w, u64::MAX);
        assert!(!lane.admit(p, 0), "past the cap: diverted, not wrapped");
        assert_eq!(lane.w, u64::MAX);
        // A reachable case: at C ≈ 4.34·10⁻⁷ IOPS and δ = u64::MAX ns,
        // maxQ1 = 8000 and s = 2,305,843,009,213,694 ns, so 8000·s passes
        // u64::MAX by 385 ns. Of 8001 requests at t = 0 the per-completion
        // loop admits 8000; the kernel diverts the 8000th, whose emulated
        // completion at 8000·s is past the clock, and agrees on the rest.
        let (c, d) = (Iops::new(4.336_808_689_942_018_3e-7), SimDuration::MAX);
        assert_eq!(c.requests_within(d), 8000);
        let p = RttParams::new(c, d);
        assert_eq!(p.service_ns, 2_305_843_009_213_694);
        assert_eq!(p.admit_cap_ns, u64::MAX - p.service_ns);
        let w = Workload::from_arrivals(vec![SimTime::ZERO; 8001]);
        let col = w.arrival_column().nanos();
        assert_eq!(per_completion_misses(col, c, d), 1);
        assert_eq!(overflow_count(&w, c, d), 2);
        assert_eq!(overflow_curve(&w, &[c], d), vec![2]);
        let admitted = decompose(&w, c, d).assignments()[..8000]
            .iter()
            .filter(|&&class| class == ServiceClass::PRIMARY)
            .count();
        assert_eq!(admitted, 7999);
    }

    #[test]
    fn every_tile_tier_matches_the_scalar_lane_bit_for_bit() {
        // The generic tile and every `#[target_feature]` wrapper this host
        // can run, against eight scalar work lanes: miss counts, final
        // backlogs and the gap chain must be bit-identical (the SIMD
        // determinism guarantee, DESIGN.md §13). The columns are the bursty
        // one and a seeded one with ties and long idle gaps, each fed in
        // one block and in odd-sized blocks so the chain crosses blocks.
        type Tile = fn(
            &[u64],
            &[u64; LANE_BATCH],
            &[u64; LANE_BATCH],
            &mut [u64; LANE_BATCH],
            &mut [u64; LANE_BATCH],
            &mut u64,
        );
        let mut tiers: Vec<(&str, Tile)> = vec![("generic", work_tile::<LANE_BATCH>)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: avx512f support was just verified.
                tiers.push(("avx512f", |b, s, c, w, m, p| unsafe {
                    work_tile_avx512(b, s, c, w, m, p)
                }));
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: avx2 support was just verified.
                tiers.push(("avx2", |b, s, c, w, m, p| unsafe {
                    work_tile_avx2(b, s, c, w, m, p)
                }));
            }
        }
        let caps: [f64; LANE_BATCH] = [110.0, 150.0, 250.0, 333.0, 410.0, 800.0, 1500.0, 6000.0];
        for workload in [bursty(), random_column(3 * TILE + 11, 7)] {
            let col = workload.arrival_column().nanos();
            let last = *col.last().unwrap();
            let mut service = [0u64; LANE_BATCH];
            let mut cap = [0u64; LANE_BATCH];
            let mut scalar = [(0u64, WorkState::default()); LANE_BATCH];
            for (l, &c) in caps.iter().enumerate() {
                let p = RttParams::new(Iops::new(c), dms(10));
                service[l] = p.service_ns;
                cap[l] = p.admit_cap_ns;
                let (misses, state) = &mut scalar[l];
                for &a in col {
                    *misses += u64::from(!state.admit(p, a));
                }
            }
            assert!(scalar.iter().any(|&(m, _)| m > 0), "lanes must miss");
            for &(tier, tile) in &tiers {
                for block_len in [col.len(), 777] {
                    let mut w = [0u64; LANE_BATCH];
                    let mut miss = [0u64; LANE_BATCH];
                    let mut prev = 0u64;
                    for block in col.chunks(block_len) {
                        tile(block, &service, &cap, &mut w, &mut miss, &mut prev);
                    }
                    assert_eq!(prev, last, "{tier}");
                    for (l, &(misses, state)) in scalar.iter().enumerate() {
                        assert_eq!((miss[l], w[l]), (misses, state.w), "{tier} lane {l}");
                    }
                }
            }
        }
    }

    #[test]
    fn budgeted_scans_stop_one_past_the_budget() {
        // The scalar scan counts exactly up to the budget and stops at the
        // first miss past it; `u64::MAX` counts every miss.
        let w = bursty();
        let col = w.arrival_column().nanos();
        let p = RttParams::new(Iops::new(300.0), dms(10));
        let total = count_misses(col.iter().copied(), p, u64::MAX);
        assert!(total > 10);
        assert_eq!(total, overflow_count(&w, Iops::new(300.0), dms(10)));
        for budget in [0, 3, total - 1, total, total + 5] {
            let expected = total.min(budget + 1);
            assert_eq!(count_misses(col.iter().copied(), p, budget), expected);
        }
    }

    #[test]
    fn overflow_curve_matches_scalar_decompose() {
        let w = bursty();
        let delta = dms(10);
        let grid: Vec<Iops> = [120.0, 250.0, 400.0, 800.0, 2000.0, 9000.0]
            .map(Iops::new)
            .to_vec();
        let fused = overflow_curve(&w, &grid, delta);
        for (i, &c) in grid.iter().enumerate() {
            assert_eq!(fused[i], decompose(&w, c, delta).overflow_count(), "C={c}");
        }
    }

    #[test]
    fn overflow_curve_matches_across_batch_remainders() {
        // Grid sizes 0..=2×LANE_BATCH exercise every remainder length on
        // both sides of the batch boundary.
        let w = bursty();
        let delta = dms(10);
        for k in 0..=(2 * LANE_BATCH) {
            let grid: Vec<Iops> = (0..k)
                .map(|i| Iops::new(105.0 + 137.0 * i as f64))
                .collect();
            let fused = overflow_curve(&w, &grid, delta);
            for (i, &c) in grid.iter().enumerate() {
                assert_eq!(
                    fused[i],
                    decompose(&w, c, delta).overflow_count(),
                    "k={k} C={c}"
                );
            }
        }
    }

    #[test]
    fn overflow_curve_handles_degenerate_and_empty() {
        let w = bursty();
        // 10 IOPS × 10 ms < 1 slot: degenerate, everything overflows.
        let grid = [Iops::new(10.0), Iops::new(500.0)];
        let fused = overflow_curve(&w, &grid, dms(10));
        assert_eq!(fused[0], w.len() as u64);
        assert_eq!(fused[1], decompose(&w, grid[1], dms(10)).overflow_count());
        assert_eq!(
            overflow_curve(&Workload::new(), &grid, dms(10)),
            vec![0, 0],
            "empty workload overflows nothing at any capacity"
        );
        assert!(overflow_curve(&w, &[], dms(10)).is_empty());
    }

    #[test]
    fn overflow_is_monotone_in_capacity() {
        // The property the fused budget probe's shared exit leans on.
        let w = bursty();
        let grid: Vec<Iops> = (1..60).map(|i| Iops::new(i as f64 * 50.0)).collect();
        let curve = overflow_curve(&w, &grid, dms(10));
        assert!(
            curve.windows(2).all(|p| p[1] <= p[0]),
            "overflow must not increase with capacity: {curve:?}"
        );
    }

    #[test]
    fn budget_curve_matches_scalar_probe() {
        let w = bursty();
        let delta = dms(10);
        let grid: Vec<Iops> = [150.0, 300.0, 600.0, 1200.0, 6000.0]
            .map(Iops::new)
            .to_vec();
        for budget in [0u64, 5, 40, w.len() as u64] {
            let fused = within_miss_budget_curve(&w, &grid, delta, budget);
            for (i, &c) in grid.iter().enumerate() {
                assert_eq!(
                    fused[i],
                    overflow_count(&w, c, delta) <= budget,
                    "C={c} budget={budget}"
                );
            }
        }
    }

    #[test]
    fn budget_multi_honours_per_lane_budgets() {
        // A full batch plus remainder where every lane carries a different
        // budget; each verdict must match the scalar count at that lane's
        // own budget.
        let w = bursty();
        let delta = dms(10);
        let probes: Vec<(Iops, u64)> = (0..11)
            .map(|i| (Iops::new(120.0 + 90.0 * i as f64), (i * i) as u64))
            .collect();
        let fused = budgeted_misses(w.arrival_column().nanos(), &probes, delta);
        for (i, &(c, b)) in probes.iter().enumerate() {
            let misses = overflow_count(&w, c, delta);
            assert_eq!(fused[i] <= b, misses <= b, "C={c} b={b}");
            if misses <= b {
                assert_eq!(fused[i], misses, "an in-budget count is exact");
            }
        }
    }

    #[test]
    fn budget_curve_degenerate_capacity_needs_budget_for_all() {
        let w = Workload::from_arrivals(vec![SimTime::ZERO; 4]);
        let grid = [Iops::new(10.0)]; // degenerate at 10 ms
        assert_eq!(within_miss_budget_curve(&w, &grid, dms(10), 3), vec![false]);
        assert_eq!(within_miss_budget_curve(&w, &grid, dms(10), 4), vec![true]);
    }

    #[test]
    fn curves_are_order_insensitive() {
        // Lanes carry their original index: a shuffled grid returns the
        // same values in the shuffled positions.
        let w = bursty();
        let delta = dms(10);
        let asc: Vec<Iops> = [150.0, 400.0, 900.0].map(Iops::new).to_vec();
        let desc: Vec<Iops> = [900.0, 400.0, 150.0].map(Iops::new).to_vec();
        let a = overflow_curve(&w, &asc, delta);
        let d = overflow_curve(&w, &desc, delta);
        assert_eq!(a[0], d[2]);
        assert_eq!(a[1], d[1]);
        assert_eq!(a[2], d[0]);
    }

    #[test]
    fn tiling_boundary_is_seamless() {
        // A workload longer than one tile: the gap chain and per-lane
        // backlog must carry across tile boundaries exactly.
        let w = Workload::from_arrivals((0..(TILE as u64 * 2 + 37)).map(|i| ms(i / 3)));
        let delta = dms(10);
        let grid = [Iops::new(250.0), Iops::new(3500.0)];
        let fused = overflow_curve(&w, &grid, delta);
        for (i, &c) in grid.iter().enumerate() {
            assert_eq!(fused[i], decompose(&w, c, delta).overflow_count(), "C={c}");
        }
        let batch = [Iops::new(250.0); LANE_BATCH];
        let misses = overflow_count(&w, batch[0], delta);
        for budget in [0u64, 100, 5000] {
            let fused = within_miss_budget_curve(&w, &batch, delta, budget);
            assert_eq!(fused, vec![misses <= budget; LANE_BATCH], "budget={budget}");
        }
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn overflow_curve_rejects_zero_deadline() {
        let _ = overflow_curve(&Workload::new(), &[Iops::new(100.0)], SimDuration::ZERO);
    }

    #[test]
    fn overflowing_capacity_saturates_and_admits_everything() {
        // C·δ = 1e30 × 10 s ≫ 2^64: the bound saturates at u64::MAX and the
        // 1 ns service floor leaves the cap at u64::MAX − 1, so nothing
        // wraps or panics and nothing overflows Q1.
        let w = bursty();
        let p = RttParams::try_new(Iops::new(1e30), SimDuration::from_secs(10))
            .expect("saturated bound is not degenerate");
        assert_eq!((p.service_ns, p.admit_cap_ns), (1, u64::MAX - 1));
        let col = w.arrival_column().nanos();
        assert_eq!(count_misses(col.iter().copied(), p, u64::MAX), 0);
        assert_eq!(
            overflow_curve(&w, &[Iops::new(1e30)], SimDuration::from_secs(10)),
            vec![0]
        );
    }

    #[test]
    fn merged_probe_matches_materialised() {
        // The streamed two-cursor probe must agree with the count on the
        // materialised merge — including tie-heavy columns (equal instants
        // split across the two inputs), empty sides, a degenerate capacity,
        // and a capacity whose bound saturates.
        let a = bursty();
        let b = Workload::from_arrivals(
            (0..80)
                .map(|i| ms(i * 7))
                .chain(vec![ms(333); 20])
                .collect::<Vec<_>>(),
        );
        let merged = a.merged(&b);
        let (an, bn) = (a.arrival_column().nanos(), b.arrival_column().nanos());
        assert!(merge(an, bn).eq(merged.arrival_column().nanos().iter().copied()));
        let grid = [150.0, 400.0, 1200.0, 1e30].map(Iops::new);
        for c in grid {
            let misses = overflow_count(&merged, c, dms(10));
            for budget in [0u64, 3, 25, merged.len() as u64] {
                assert_eq!(
                    merged_within_budget(an, bn, c, dms(10), budget),
                    misses <= budget,
                    "C={c} budget={budget}"
                );
            }
        }
        // Degenerate capacity (⌊C·δ⌋ = 0): everything overflows, so the
        // verdict is just `n ≤ budget` — `overflow_count` panics here, the
        // merged form reports gracefully.
        let n = merged.len() as u64;
        assert!(!merged_within_budget(
            an,
            bn,
            Iops::new(10.0),
            dms(10),
            n - 1
        ));
        assert!(merged_within_budget(an, bn, Iops::new(10.0), dms(10), n));
        // Empty sides reduce to the single-column probe.
        let c = Iops::new(150.0);
        assert_eq!(
            merged_within_budget(an, &[], c, dms(10), 10),
            overflow_count(&a, c, dms(10)) <= 10
        );
        assert_eq!(
            merged_within_budget(&[], bn, c, dms(10), 0),
            overflow_count(&b, c, dms(10)) == 0
        );
        assert!(merged_within_budget(&[], &[], c, dms(10), 0));
    }
}
