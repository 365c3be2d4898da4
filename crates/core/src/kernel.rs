//! Allocation-free integer kernels behind the RTT decomposition family.
//!
//! Every offline entry point in [`rtt`](crate::rtt) — [`decompose`],
//! [`within_miss_budget`], the planner's probes — reduces to the same loop:
//! walk the arrivals in order, emulate the dedicated rate-`C` primary
//! server, and admit while fewer than `maxQ1 = ⌊C·δ⌋` primary requests are
//! pending. This module states that loop once, in pure integer arithmetic
//! over the workload's cached [`ArrivalColumn`](gqos_trace::ArrivalColumn):
//!
//! - [`RttParams`] precomputes `(maxQ1, service_ns)` for one `(C, δ)` pair;
//! - [`RttState`] is the 16-byte rolling server state with an O(1)
//!   *bulk-drain* admit step (the seed's per-completion `while` loop is
//!   replaced by one division — exactly equivalent, see the unit tests);
//! - [`overflow_curve`] and [`within_miss_budget_curve`] fuse a whole
//!   capacity grid into a single pass over the arrivals.
//!
//! # The work-recurrence lane form
//!
//! The fused curves do not run [`RttState::admit`] per lane: its drain step
//! branches three ways and divides on partial drains, which defeats
//! vectorisation. Instead each non-degenerate lane is rewritten as a
//! *Lindley work recurrence* over the server's remaining work `w` (ns):
//!
//! ```text
//! w ← max(w − gap, 0)          // the server drains 1 ns of work per ns
//! admit ⇔ w ≤ (maxQ1 − 1)·s    // pending = ⌈w/s⌉ < maxQ1
//! if admit { w ← w + s }       // an admitted request adds s ns of work
//! ```
//!
//! where `gap` is the inter-arrival time (shared across lanes) and
//! `s = service_ns`. The emulated server is work-conserving with
//! deterministic service, so remaining work decreases at exactly rate 1
//! while positive, and the pending count at any instant is `⌈w/s⌉` — the
//! head request carries `w mod s` (or a full `s`), every other request a
//! full `s`. `⌈w/s⌉ < maxQ1 ⇔ w ≤ (maxQ1−1)·s` for integer `w`, so the
//! recurrence reproduces [`RttState::admit`] decision-for-decision: four
//! branch-free integer ops per lane per arrival, no division, and the
//! per-lane state is one `u64` — exactly the shape the vector units want.
//! [`LANE_BATCH`] lanes run per sweep, with `#[target_feature]`-compiled
//! bodies (AVX-512/AVX2 on x86-64) selected once at runtime; every tier
//! performs the same wrap-free `u64` arithmetic, so results are
//! bit-identical across ISAs — see `DESIGN.md` §13.
//!
//! The rewrite is exact only while no intermediate saturates: `RttState`
//! deliberately clamps completion instants at the `u64::MAX` ns horizon
//! ("busy past the horizon") while the work form would keep draining.
//! [`WorkParams::try_from_rtt`] therefore admits a lane only when
//! `maxQ1·s` and `last_arrival + maxQ1·s` are representable — then
//! `w ≤ maxQ1·s` and every `RttState` instant stays below the horizon, so
//! the two forms coincide. Lanes that fail the guard (saturated `maxQ1`,
//! horizon-adjacent arrivals) fall back to the scalar scans, whose
//! saturation semantics are the documented contract.
//!
//! [`decompose`]: crate::rtt::decompose
//! [`within_miss_budget`]: crate::rtt::within_miss_budget

use gqos_trace::{Iops, SimDuration, Workload};

/// Arrivals per tile of the fused *budget* probe: 4096 × 8 B = 32 KiB,
/// sized to sit in L1d. [`within_miss_budget_curve`] checks lane viability
/// at tile granularity so busted batches drop out between blocks.
const TILE: usize = 4096;

/// Precomputed integer parameters of one RTT scan at a fixed `(C, δ)`.
#[derive(Copy, Clone, Debug)]
pub(crate) struct RttParams {
    /// The primary-queue bound `maxQ1 = ⌊C·δ⌋` (≥ 1).
    pub(crate) max_q1: u64,
    /// Deterministic primary service time `1/C` in nanoseconds (≥ 1).
    pub(crate) service_ns: u64,
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

    /// Non-panicking variant: `None` when `⌊C·δ⌋ = 0` (a degenerate
    /// capacity that can guarantee nothing — every request overflows).
    ///
    /// When `C·δ` exceeds the 64-bit counter ([`checked_max_queue`] would
    /// return [`CapacityOverflow`]), the bound **saturates** at `u64::MAX`:
    /// such a capacity admits every request, and [`RttState::admit`]'s
    /// arithmetic is itself saturating, so grid sweeps may include absurd
    /// capacities without pre-filtering or panicking.
    ///
    /// [`checked_max_queue`]: crate::rtt::checked_max_queue
    /// [`CapacityOverflow`]: crate::rtt::CapacityOverflow
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero.
    pub(crate) fn try_new(capacity: Iops, deadline: SimDuration) -> Option<Self> {
        assert!(!deadline.is_zero(), "deadline must be positive");
        let max_q1 = crate::rtt::checked_max_queue(capacity, deadline).unwrap_or(u64::MAX);
        if max_q1 == 0 {
            return None;
        }
        let service_ns = capacity
            .service_time()
            .max(SimDuration::from_nanos(1))
            .as_nanos();
        Some(RttParams { max_q1, service_ns })
    }
}

/// Rolling state of the emulated dedicated primary server: the pending
/// primary count and the completion instant of the request at the head of
/// `Q1`.
#[derive(Copy, Clone, Default, Debug)]
pub(crate) struct RttState {
    len_q1: u64,
    next_done_ns: u64,
}

impl RttState {
    /// Processes one arrival (Algorithm 1): `true` if it is admitted to the
    /// primary class.
    ///
    /// While busy the server finishes one request every `service_ns`, so
    /// all completions up to the arrival drain in one step:
    /// `min(lenQ1, (arrival − next_done)/service + 1)` — the closed form of
    /// the per-completion loop. The common case (the whole queue drains
    /// before the arrival: the last completion, at
    /// `next_done + (lenQ1−1)·service`, has passed) is decided with one
    /// multiply; the division only runs on a *partial* drain, i.e. when a
    /// burst is actively backlogging the server.
    ///
    /// All completion-instant arithmetic **saturates** at `u64::MAX` ns
    /// (the clock horizon, ≈ 584 years): with `u64::MAX`-adjacent
    /// capacities, deadlines, or arrivals, a product that overflows means
    /// "the server is busy past the horizon", and a saturated instant
    /// encodes exactly that — the full-drain test still errs toward the
    /// partial branch (the true instant exceeds any representable
    /// arrival), and `drained ≤ lenQ1 − 1` keeps holding, so the state
    /// stays coherent instead of wrapping or panicking.
    #[inline(always)]
    pub(crate) fn admit(&mut self, p: RttParams, arrival_ns: u64) -> bool {
        if self.len_q1 > 0 && self.next_done_ns <= arrival_ns {
            let last_done_ns = self
                .next_done_ns
                .saturating_add((self.len_q1 - 1).saturating_mul(p.service_ns));
            if last_done_ns <= arrival_ns {
                // Full drain: `next_done` is reset by the idle branch below.
                self.len_q1 = 0;
            } else {
                let drained = (arrival_ns - self.next_done_ns) / p.service_ns + 1;
                self.len_q1 -= drained;
                self.next_done_ns = self
                    .next_done_ns
                    .saturating_add(drained.saturating_mul(p.service_ns));
            }
        }
        if self.len_q1 == 0 {
            // Server idle: the next admitted request starts on arrival.
            self.next_done_ns = arrival_ns.saturating_add(p.service_ns);
        }
        if self.len_q1 < p.max_q1 {
            self.len_q1 += 1;
            true
        } else {
            false
        }
    }
}

/// Counts RTT overflow at one capacity — a single allocation-free pass
/// over a sorted arrival column.
pub(crate) fn scan_overflow(col: &[u64], p: RttParams) -> u64 {
    let mut state = RttState::default();
    let mut overflow = 0u64;
    for &arrival in col {
        overflow += u64::from(!state.admit(p, arrival));
    }
    overflow
}

/// Counting budget probe at one capacity: `true` iff RTT diverts at most
/// `budget` requests. Aborts the scan as soon as the budget is exceeded.
pub(crate) fn scan_within_budget(col: &[u64], p: RttParams, budget: u64) -> bool {
    let mut state = RttState::default();
    let mut overflow = 0u64;
    for &arrival in col {
        if !state.admit(p, arrival) {
            overflow += 1;
            if overflow > budget {
                return false;
            }
        }
    }
    true
}

/// Budget probe over the *merge* of two sorted columns, without
/// materialising the merged column: walks `a` and `b` with two cursors,
/// always consuming the smaller head. Equal instants are interchangeable —
/// [`RttState::admit`] depends only on the arrival value, so any tie order
/// yields the same verdict as scanning the materialised merge.
///
/// This is the fleet placer's "tenant T joins server S" feasibility probe:
/// `a` is the server's resident merged column, `b` the candidate tenant's,
/// and the probe costs zero allocations and aborts as soon as `budget` is
/// exceeded. Feeds on the work-recurrence lane when the exactness guard
/// admits it (the common case), else the saturating scalar scan — both
/// bit-equal to [`within_miss_budget`](crate::rtt::within_miss_budget) on
/// the merged workload, pinned by `merged_probe_matches_materialised` and
/// the `fleet_props` differential suite.
pub(crate) fn merged_within_budget(
    a: &[u64],
    b: &[u64],
    capacity: Iops,
    deadline: SimDuration,
    budget: u64,
) -> bool {
    assert!(!deadline.is_zero(), "deadline must be positive");
    let n = (a.len() + b.len()) as u64;
    let last = a
        .last()
        .copied()
        .unwrap_or(0)
        .max(b.last().copied().unwrap_or(0));
    match lane_form(capacity, deadline, last) {
        LaneForm::Degenerate => n <= budget,
        LaneForm::Work(wp) => {
            let (mut w, mut miss, mut prev) = (0u64, 0u64, 0u64);
            let mut scan = |arrival: u64| {
                let gap = arrival - prev;
                prev = arrival;
                let drained = w.saturating_sub(gap);
                if drained <= wp.admit_cap_ns {
                    w = drained + wp.service_ns;
                    true
                } else {
                    w = drained;
                    miss += 1;
                    miss <= budget
                }
            };
            merge_scan(a, b, &mut scan)
        }
        LaneForm::Scalar(p) => {
            let mut state = RttState::default();
            let mut miss = 0u64;
            let mut scan = |arrival: u64| {
                if state.admit(p, arrival) {
                    true
                } else {
                    miss += 1;
                    miss <= budget
                }
            };
            merge_scan(a, b, &mut scan)
        }
    }
}

/// Streams the merge of two sorted columns into `visit` in ascending
/// order, stopping early (returning `false`) when `visit` does.
fn merge_scan(a: &[u64], b: &[u64], visit: &mut impl FnMut(u64) -> bool) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let next = if a[i] <= b[j] {
            let v = a[i];
            i += 1;
            v
        } else {
            let v = b[j];
            j += 1;
            v
        };
        if !visit(next) {
            return false;
        }
    }
    for &v in &a[i..] {
        if !visit(v) {
            return false;
        }
    }
    for &v in &b[j..] {
        if !visit(v) {
            return false;
        }
    }
    true
}

/// Lanes per sweep of the fused curves. Eight `u64` states fill one
/// AVX-512 register (two AVX2 registers), and eight independent
/// recurrences are enough to hide the compare/blend latency even on the
/// scalar tier. Grids are processed `⌈k/8⌉` batches at a time with a
/// scalar remainder loop for the last `k mod 8` lanes.
pub(crate) const LANE_BATCH: usize = 8;

/// Per-lane constants of the work-recurrence form (module docs): the
/// service time `s` and the admit threshold `T = (maxQ1 − 1)·s`.
#[derive(Copy, Clone, Debug)]
struct WorkParams {
    service_ns: u64,
    admit_cap_ns: u64,
}

impl WorkParams {
    /// Rewrites an [`RttParams`] lane into work-recurrence form, or `None`
    /// when the rewrite is not provably exact for this column — i.e. when
    /// `maxQ1·s` or `last_arrival + maxQ1·s` overflows `u64`, the regime
    /// where [`RttState`]'s saturating "busy past the horizon" semantics
    /// (which the work form does not model) can engage. Callers must route
    /// `None` lanes to the scalar scans.
    fn try_from_rtt(p: RttParams, last_arrival_ns: u64) -> Option<Self> {
        let worst_backlog = p.max_q1.checked_mul(p.service_ns)?;
        last_arrival_ns.checked_add(worst_backlog)?;
        Some(WorkParams {
            service_ns: p.service_ns,
            admit_cap_ns: (p.max_q1 - 1) * p.service_ns,
        })
    }
}

/// One tile of the work recurrence over `K` lanes: streams `block`,
/// updating per-lane backlog `w` and miss counters in place. `prev` is the
/// previous arrival instant (0 before the first tile) and carries the gap
/// chain across tiles. The inner `K`-lane loop is branch-free (compare →
/// mask → blend), which is what lets the `#[target_feature]` wrappers
/// vectorise it.
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
        // The column is sorted ascending (ArrivalColumn invariant), so the
        // gap never underflows.
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

/// `work_tile` hand-vectorised for AVX-512F: all eight `u64` lanes of the
/// batch live in one zmm register per state array. `max(w, gap) − gap` is
/// the branch-free saturating subtraction; admits are a `cmple` mask
/// driving two masked adds. Identical u64 arithmetic to [`work_tile`],
/// instruction for instruction in value terms — only the lane width
/// differs.
///
/// # Safety
///
/// The caller must have verified `avx512f` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn work_tile_avx512(
    block: &[u64],
    service: &[u64; LANE_BATCH],
    cap: &[u64; LANE_BATCH],
    w: &mut [u64; LANE_BATCH],
    miss: &mut [u64; LANE_BATCH],
    prev: &mut u64,
) {
    use std::arch::x86_64::*;
    // SAFETY: loadu/storeu have no alignment requirement and the arrays
    // are exactly LANE_BATCH = 8 u64s = 64 bytes, one zmm register.
    unsafe {
        let one = _mm512_set1_epi64(1);
        let vs = _mm512_loadu_si512(service.as_ptr().cast());
        let vc = _mm512_loadu_si512(cap.as_ptr().cast());
        let mut vw = _mm512_loadu_si512(w.as_ptr().cast());
        let mut vm = _mm512_loadu_si512(miss.as_ptr().cast());
        let mut last = *prev;
        for &arrival in block {
            let gap = arrival - last;
            last = arrival;
            let vg = _mm512_set1_epi64(gap as i64);
            let drained = _mm512_sub_epi64(_mm512_max_epu64(vw, vg), vg);
            let admit = _mm512_cmple_epu64_mask(drained, vc);
            vm = _mm512_mask_add_epi64(vm, !admit, vm, one);
            vw = _mm512_mask_add_epi64(drained, admit, drained, vs);
        }
        _mm512_storeu_si512(w.as_mut_ptr().cast(), vw);
        _mm512_storeu_si512(miss.as_mut_ptr().cast(), vm);
        *prev = last;
    }
}

/// `work_tile` hand-vectorised for AVX2: the eight lanes split across two
/// ymm halves. AVX2 has no unsigned 64-bit compare, so operands are
/// sign-flipped (`x ^ 2⁶³`) before the signed `cmpgt`; the saturating
/// subtraction is `(w − gap) & (w > gap)` and misses accumulate by
/// subtracting the all-ones `!admit` mask. Same u64 values as the scalar
/// tier throughout.
///
/// # Safety
///
/// The caller must have verified `avx2` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn work_tile_avx2(
    block: &[u64],
    service: &[u64; LANE_BATCH],
    cap: &[u64; LANE_BATCH],
    w: &mut [u64; LANE_BATCH],
    miss: &mut [u64; LANE_BATCH],
    prev: &mut u64,
) {
    use std::arch::x86_64::*;
    // SAFETY: loadu/storeu have no alignment requirement; each half is
    // four u64s = 32 bytes, one ymm register.
    unsafe {
        let sign = _mm256_set1_epi64x(i64::MIN);
        let load =
            |a: &[u64; LANE_BATCH], h: usize| _mm256_loadu_si256(a.as_ptr().add(4 * h).cast());
        let vs = [load(service, 0), load(service, 1)];
        // The admit threshold, pre-flipped for the signed compare.
        let vcf = [
            _mm256_xor_si256(load(cap, 0), sign),
            _mm256_xor_si256(load(cap, 1), sign),
        ];
        let mut vw = [load(w, 0), load(w, 1)];
        let mut vm = [load(miss, 0), load(miss, 1)];
        let mut last = *prev;
        for &arrival in block {
            let gap = arrival - last;
            last = arrival;
            let vg = _mm256_set1_epi64x(gap as i64);
            let vgf = _mm256_xor_si256(vg, sign);
            for h in 0..2 {
                let wf = _mm256_xor_si256(vw[h], sign);
                let pos = _mm256_cmpgt_epi64(wf, vgf); // w > gap, unsigned
                let diff = _mm256_sub_epi64(vw[h], vg);
                let drained = _mm256_and_si256(diff, pos); // max(w − gap, 0)
                let df = _mm256_xor_si256(drained, sign);
                let no_admit = _mm256_cmpgt_epi64(df, vcf[h]); // drained > cap
                vm[h] = _mm256_sub_epi64(vm[h], no_admit); // −(−1) per miss
                let add = _mm256_andnot_si256(no_admit, vs[h]);
                vw[h] = _mm256_add_epi64(drained, add);
            }
        }
        for h in 0..2 {
            _mm256_storeu_si256(w.as_mut_ptr().add(4 * h).cast(), vw[h]);
            _mm256_storeu_si256(miss.as_mut_ptr().add(4 * h).cast(), vm[h]);
        }
        *prev = last;
    }
}

/// Runtime-dispatched `work_tile`: picks the widest ISA tier the host
/// supports. Every tier runs the identical wrap-free `u64` recurrence, so
/// the choice affects speed only, never results — pinned by
/// `batched_tiers_match_the_scalar_lane_bit_for_bit` and the
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

/// Scalar (single-lane) work recurrence: the remainder loop of the fused
/// curves, and the reference the batched tiers are pinned against in the
/// differential tests.
fn work_overflow_lane(col: &[u64], p: WorkParams) -> u64 {
    let (mut w, mut miss, mut prev) = (0u64, 0u64, 0u64);
    for &arrival in col {
        let gap = arrival - prev;
        prev = arrival;
        let drained = w.saturating_sub(gap);
        if drained <= p.admit_cap_ns {
            w = drained + p.service_ns;
        } else {
            w = drained;
            miss += 1;
        }
    }
    miss
}

/// Scalar budgeted work recurrence: aborts as soon as `budget` is
/// exceeded, mirroring [`scan_within_budget`].
fn work_budget_lane(col: &[u64], p: WorkParams, budget: u64) -> bool {
    let (mut w, mut miss, mut prev) = (0u64, 0u64, 0u64);
    for &arrival in col {
        let gap = arrival - prev;
        prev = arrival;
        let drained = w.saturating_sub(gap);
        if drained <= p.admit_cap_ns {
            w = drained + p.service_ns;
        } else {
            w = drained;
            miss += 1;
            if miss > budget {
                return false;
            }
        }
    }
    true
}

/// How a grid lane is evaluated: the vectorisable work form, the scalar
/// saturating scan (horizon-adjacent regimes), or degenerate (`⌊C·δ⌋ = 0`).
enum LaneForm {
    Work(WorkParams),
    Scalar(RttParams),
    Degenerate,
}

fn lane_form(capacity: Iops, deadline: SimDuration, last_arrival_ns: u64) -> LaneForm {
    match RttParams::try_new(capacity, deadline) {
        None => LaneForm::Degenerate,
        Some(p) => match WorkParams::try_from_rtt(p, last_arrival_ns) {
            Some(wp) => LaneForm::Work(wp),
            None => LaneForm::Scalar(p),
        },
    }
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

/// [`overflow_curve`] over a raw sorted arrival column (nanoseconds). The
/// fleet placer's incremental consolidation kernel maintains per-server
/// merged columns directly and probes them here without materialising a
/// [`Workload`] per probe.
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
    assert!(!deadline.is_zero(), "deadline must be positive");
    let n = col.len() as u64;
    let last_arrival = col.last().copied().unwrap_or(0);
    let mut overflow = vec![0u64; capacities.len()];
    let mut fast: Vec<(usize, WorkParams)> = Vec::with_capacity(capacities.len());
    for (i, &c) in capacities.iter().enumerate() {
        match lane_form(c, deadline, last_arrival) {
            LaneForm::Work(wp) => fast.push((i, wp)),
            LaneForm::Scalar(p) => overflow[i] = scan_overflow(col, p),
            LaneForm::Degenerate => overflow[i] = n,
        }
    }
    let mut batches = fast.chunks_exact(LANE_BATCH);
    for batch in &mut batches {
        let mut service = [0u64; LANE_BATCH];
        let mut cap = [0u64; LANE_BATCH];
        for (l, &(_, wp)) in batch.iter().enumerate() {
            service[l] = wp.service_ns;
            cap[l] = wp.admit_cap_ns;
        }
        let mut w = [0u64; LANE_BATCH];
        let mut miss = [0u64; LANE_BATCH];
        let mut prev = 0u64;
        work_tile_dispatch(col, &service, &cap, &mut w, &mut miss, &mut prev);
        for (l, &(i, _)) in batch.iter().enumerate() {
            overflow[i] = miss[l];
        }
    }
    // Scalar remainder: the last `k mod LANE_BATCH` lanes sweep one by one.
    for &(i, wp) in batches.remainder() {
        overflow[i] = work_overflow_lane(col, wp);
    }
    overflow
}

/// Fused budgeted feasibility probes over a set of `(capacity, budget)`
/// pairs: result `i` is `within_miss_budget(workload, probes[i].0,
/// deadline, probes[i].1)`, with degenerate capacities (`⌊C·δ⌋ = 0`)
/// feasible only when the whole workload fits the budget, matching the
/// [`overflow_curve`] convention. Per-lane budgets are what the planner's
/// wide bisection needs: one pass answers eight *different* fractions'
/// probes at once.
///
/// Early exit is at batch granularity: the column is streamed in
/// [`TILE`]-sized blocks and a batch stops as soon as *every* lane in it
/// has exceeded its budget (each lane's verdict depends only on its own
/// running count, so letting a busted lane ride along is harmless).
/// Overflow counts are non-increasing in `C` (see
/// `overflow_is_monotone_in_capacity` in the tests), so sorted grids bust
/// from the bottom up and an infeasible batch costs one budget-bounded
/// prefix, not eight full scans.
pub(crate) fn within_miss_budget_multi(
    workload: &Workload,
    probes: &[(Iops, u64)],
    deadline: SimDuration,
) -> Vec<bool> {
    within_miss_budget_multi_ns(workload.arrival_column().nanos(), probes, deadline)
}

/// [`within_miss_budget_multi`] over a raw sorted arrival column — the
/// form the planner's wide bisection and the fleet placer's consolidated
/// quote resolution share.
pub(crate) fn within_miss_budget_multi_ns(
    col: &[u64],
    probes: &[(Iops, u64)],
    deadline: SimDuration,
) -> Vec<bool> {
    assert!(!deadline.is_zero(), "deadline must be positive");
    let n = col.len() as u64;
    let last_arrival = col.last().copied().unwrap_or(0);
    let mut verdicts = vec![false; probes.len()];
    let mut fast: Vec<(usize, WorkParams, u64)> = Vec::with_capacity(probes.len());
    for (i, &(c, budget)) in probes.iter().enumerate() {
        match lane_form(c, deadline, last_arrival) {
            LaneForm::Work(wp) => fast.push((i, wp, budget)),
            LaneForm::Scalar(p) => verdicts[i] = scan_within_budget(col, p, budget),
            LaneForm::Degenerate => verdicts[i] = n <= budget,
        }
    }
    let mut batches = fast.chunks_exact(LANE_BATCH);
    for batch in &mut batches {
        let mut service = [0u64; LANE_BATCH];
        let mut cap = [0u64; LANE_BATCH];
        let mut budget = [0u64; LANE_BATCH];
        for (l, &(_, wp, b)) in batch.iter().enumerate() {
            service[l] = wp.service_ns;
            cap[l] = wp.admit_cap_ns;
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
        for (l, &(i, _, b)) in batch.iter().enumerate() {
            verdicts[i] = miss[l] <= b;
        }
    }
    for &(i, wp, b) in batches.remainder() {
        verdicts[i] = work_budget_lane(col, wp, b);
    }
    verdicts
}

/// Single budgeted feasibility probe over a raw sorted arrival column:
/// `within_miss_budget` for callers that hold a column, not a
/// [`Workload`]. Degenerate capacities (`⌊C·δ⌋ = 0`) are feasible only
/// when the whole column fits the budget, matching [`overflow_curve_ns`].
///
/// # Panics
///
/// Panics if `deadline` is zero.
pub(crate) fn within_miss_budget_ns(
    col: &[u64],
    capacity: Iops,
    deadline: SimDuration,
    budget: u64,
) -> bool {
    assert!(!deadline.is_zero(), "deadline must be positive");
    let last = col.last().copied().unwrap_or(0);
    match lane_form(capacity, deadline, last) {
        LaneForm::Degenerate => col.len() as u64 <= budget,
        LaneForm::Work(wp) => work_budget_lane(col, wp, budget),
        LaneForm::Scalar(p) => scan_within_budget(col, p, budget),
    }
}

/// Fused budgeted feasibility probe over a capacity grid at one shared
/// budget: result `i` is `within_miss_budget(workload, capacities[i],
/// deadline, budget)`, computed in fused passes over the workload.
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
    within_miss_budget_multi(workload, &probes, deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtt::{decompose, within_miss_budget};
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

    #[test]
    fn bulk_drain_matches_per_completion_loop() {
        // Replay the same arrivals through the closed-form state and a
        // literal transcription of the seed's while-loop; every decision
        // and every intermediate state must coincide.
        let w = bursty();
        let p = RttParams::new(Iops::new(300.0), dms(20));
        let mut fast = RttState::default();
        let (mut len_q1, mut next_done) = (0u64, 0u64);
        for &a in w.arrival_column().nanos() {
            while len_q1 > 0 && next_done <= a {
                len_q1 -= 1;
                next_done += p.service_ns;
            }
            if len_q1 == 0 {
                next_done = a + p.service_ns;
            }
            let slow_admit = len_q1 < p.max_q1;
            if slow_admit {
                len_q1 += 1;
            }
            assert_eq!(fast.admit(p, a), slow_admit);
            assert_eq!((fast.len_q1, fast.next_done_ns), (len_q1, next_done));
        }
    }

    #[test]
    fn work_recurrence_matches_rtt_state_decision_for_decision() {
        // The module-docs equivalence, checked per arrival: backlog work
        // w relates to the queue state by lenQ1 = ⌈w/s⌉, and the admit
        // decisions coincide.
        let w = bursty();
        for c in [120.0, 300.0, 457.0, 2000.0] {
            let p = RttParams::new(Iops::new(c), dms(20));
            let wp = WorkParams::try_from_rtt(p, u64::MAX / 4).expect("guard passes");
            let mut state = RttState::default();
            let (mut work, mut prev) = (0u64, 0u64);
            for &a in w.arrival_column().nanos() {
                let gap = a - prev;
                prev = a;
                work = work.saturating_sub(gap);
                let work_admit = work <= wp.admit_cap_ns;
                if work_admit {
                    work += wp.service_ns;
                }
                assert_eq!(state.admit(p, a), work_admit, "C={c} arrival={a}");
                assert_eq!(state.len_q1, work.div_ceil(wp.service_ns), "C={c}");
            }
        }
    }

    #[test]
    fn work_form_guard_rejects_horizon_and_saturated_lanes() {
        // Saturated maxQ1: maxQ1·s overflows, no work form.
        let sat = RttParams {
            max_q1: u64::MAX,
            service_ns: 2,
        };
        assert!(WorkParams::try_from_rtt(sat, 0).is_none());
        // Horizon-adjacent column: last + maxQ1·s overflows, no work form.
        let p = RttParams::new(Iops::new(100.0), dms(20));
        assert!(WorkParams::try_from_rtt(p, u64::MAX - 10).is_none());
        assert!(WorkParams::try_from_rtt(p, u64::MAX / 2).is_some());
    }

    #[test]
    fn batched_tiers_match_the_scalar_lane_bit_for_bit() {
        // The same eight lanes through the dispatched batch and the scalar
        // remainder loop: counts must be bit-identical (the SIMD
        // determinism guarantee, DESIGN.md §13).
        let w = bursty();
        let col = w.arrival_column().nanos();
        let caps: [f64; LANE_BATCH] = [110.0, 150.0, 250.0, 333.0, 410.0, 800.0, 1500.0, 6000.0];
        let mut service = [0u64; LANE_BATCH];
        let mut cap = [0u64; LANE_BATCH];
        let mut scalar = [0u64; LANE_BATCH];
        for (l, &c) in caps.iter().enumerate() {
            let p = RttParams::new(Iops::new(c), dms(10));
            let wp = WorkParams::try_from_rtt(p, *col.last().unwrap()).unwrap();
            service[l] = wp.service_ns;
            cap[l] = wp.admit_cap_ns;
            scalar[l] = work_overflow_lane(col, wp);
        }
        let mut wstate = [0u64; LANE_BATCH];
        let mut miss = [0u64; LANE_BATCH];
        let mut prev = 0u64;
        work_tile_dispatch(col, &service, &cap, &mut wstate, &mut miss, &mut prev);
        assert_eq!(miss, scalar);
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
                    within_miss_budget(&w, c, delta, budget),
                    "C={c} budget={budget}"
                );
            }
        }
    }

    #[test]
    fn budget_multi_honours_per_lane_budgets() {
        // A full batch plus remainder where every lane carries a different
        // budget; each verdict must match the scalar probe at that lane's
        // own budget.
        let w = bursty();
        let delta = dms(10);
        let probes: Vec<(Iops, u64)> = (0..11)
            .map(|i| (Iops::new(120.0 + 90.0 * i as f64), (i * i) as u64))
            .collect();
        let fused = within_miss_budget_multi(&w, &probes, delta);
        for (i, &(c, b)) in probes.iter().enumerate() {
            assert_eq!(fused[i], within_miss_budget(&w, c, delta, b), "C={c} b={b}");
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
        for budget in [0u64, 100, 5000] {
            let fused = within_miss_budget_curve(&w, &grid, delta, budget);
            for (i, &c) in grid.iter().enumerate() {
                assert_eq!(fused[i], within_miss_budget(&w, c, delta, budget), "C={c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn overflow_curve_rejects_zero_deadline() {
        let _ = overflow_curve(&Workload::new(), &[Iops::new(100.0)], SimDuration::ZERO);
    }

    #[test]
    fn overflowing_capacity_saturates_and_admits_everything() {
        // C·δ = 1e30 × 10 s ≫ 2^64: the bound saturates at u64::MAX, the
        // work-form guard rejects the lane, and the scalar fallback must
        // neither wrap nor panic — nothing overflows Q1.
        let w = bursty();
        let p = RttParams::try_new(Iops::new(1e30), SimDuration::from_secs(10))
            .expect("saturated bound is not degenerate");
        assert_eq!(p.max_q1, u64::MAX);
        assert_eq!(scan_overflow(w.arrival_column().nanos(), p), 0);
        assert_eq!(
            overflow_curve(&w, &[Iops::new(1e30)], SimDuration::from_secs(10)),
            vec![0]
        );
    }

    #[test]
    fn horizon_adjacent_columns_use_the_saturating_scalar_path() {
        // Arrivals at the clock horizon: the work form is not exact there
        // (RttState deliberately saturates), so the curve must agree with
        // the scalar scan — the guard routes these lanes to it.
        let arrivals: Vec<SimTime> = (0..50)
            .map(|i| SimTime::from_nanos(u64::MAX - 500 + 10 * (i / 5)))
            .collect();
        let w = Workload::from_arrivals(arrivals);
        let grid = [Iops::new(100.0), Iops::new(1e6)];
        let fused = overflow_curve(&w, &grid, dms(20));
        for (i, &c) in grid.iter().enumerate() {
            let p = RttParams::new(c, dms(20));
            assert_eq!(
                fused[i],
                scan_overflow(w.arrival_column().nanos(), p),
                "C={c}"
            );
        }
    }

    #[test]
    fn bulk_drain_saturates_instead_of_wrapping() {
        // Deep queue × huge service time: the full-drain probe
        // `next_done + (lenQ1−1)·service` exceeds u64 and must saturate
        // into the partial branch, not wrap (a wrap would fake a full
        // drain and corrupt the state — and panics in debug builds).
        let p = RttParams {
            max_q1: u64::MAX,
            service_ns: u64::MAX / 2,
        };
        let mut state = RttState::default();
        for _ in 0..3 {
            assert!(state.admit(p, 0));
        }
        // lenQ1 = 3, next_done = MAX/2. True last completion is at
        // MAX/2 + 2·(MAX/2) ≈ 1.5·u64::MAX — past any representable
        // arrival, so exactly one service interval has elapsed: one
        // request drains and the new arrival is admitted on top.
        assert!(state.admit(p, u64::MAX - 5));
        assert_eq!(state.len_q1, 3, "one drained, one admitted");
    }

    #[test]
    fn horizon_adjacent_arrivals_do_not_overflow() {
        // `arrival + service` past the horizon saturates to u64::MAX
        // ("busy past the horizon") instead of wrapping to a tiny instant —
        // a wrap would fake an idle server and admit without bound.
        let p = RttParams::new(Iops::new(100.0), dms(20)); // maxQ1 = 2
        let mut state = RttState::default();
        let arrival = u64::MAX - 10;
        assert!(state.admit(p, arrival));
        assert_eq!(state.next_done_ns, u64::MAX);
        assert!(state.admit(p, arrival));
        assert!(!state.admit(p, arrival), "Q1 full at the horizon: shed");
    }

    #[test]
    fn merged_probe_matches_materialised() {
        // The streamed two-cursor probe must agree with the scalar budget
        // probe on the materialised merge — including tie-heavy columns
        // (equal instants split across the two inputs), empty sides, the
        // degenerate form, and a capacity saturating the work-form guard.
        let a = bursty();
        let b = Workload::from_arrivals(
            (0..80)
                .map(|i| ms(i * 7))
                .chain(vec![ms(333); 20])
                .collect::<Vec<_>>(),
        );
        let merged = a.merged(&b);
        let (an, bn) = (a.arrival_column().nanos(), b.arrival_column().nanos());
        let grid = [150.0, 400.0, 1200.0, 1e30].map(Iops::new);
        for c in grid {
            for budget in [0u64, 3, 25, merged.len() as u64] {
                assert_eq!(
                    merged_within_budget(an, bn, c, dms(10), budget),
                    within_miss_budget(&merged, c, dms(10), budget),
                    "C={c} budget={budget}"
                );
            }
        }
        // Degenerate capacity (⌊C·δ⌋ = 0): everything overflows, so the
        // verdict is just `n ≤ budget` — the scalar probe panics here, the
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
        assert_eq!(
            merged_within_budget(an, &[], Iops::new(150.0), dms(10), 10),
            within_miss_budget(&a, Iops::new(150.0), dms(10), 10)
        );
        assert_eq!(
            merged_within_budget(&[], bn, Iops::new(150.0), dms(10), 0),
            within_miss_budget(&b, Iops::new(150.0), dms(10), 0)
        );
        assert!(merged_within_budget(&[], &[], Iops::new(150.0), dms(10), 0));
    }

    #[test]
    fn saturated_scan_stays_coherent_over_a_full_workload() {
        // A whole pass mixing normal arrivals with horizon-adjacent ones:
        // must complete without panicking and never admit beyond maxQ1.
        let arrivals: Vec<SimTime> = (0..100)
            .map(|i| SimTime::from_nanos(u64::MAX - 200 + 2 * (i / 2)))
            .collect();
        let w = Workload::from_arrivals(arrivals);
        let p = RttParams::new(Iops::new(100.0), dms(20));
        let overflow = scan_overflow(w.arrival_column().nanos(), p);
        assert!(
            overflow >= 100 - p.max_q1,
            "Q1 is bounded even at the horizon"
        );
    }
}
