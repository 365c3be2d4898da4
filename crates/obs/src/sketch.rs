//! Mergeable fixed-precision latency sketches.
//!
//! [`LatencySketch`] is a log-linear bucketed histogram over `u64`
//! nanosecond values with a *guaranteed* one-sided relative quantile error
//! of at most [`RELATIVE_ERROR_BOUND`] (1/32 = 3.125%). Bucketing is pure
//! integer arithmetic — no floats, no rounding ambiguity — so two sketches
//! built from the same values are bit-identical, and [`merge`]
//! (`LatencySketch::merge`) of per-worker shards equals the sketch of the
//! concatenated stream exactly (bucket counts are just added).
//!
//! # Bucket layout
//!
//! Values below `2^SUB_BITS` (= 32) get exact unit-width buckets: the sketch
//! is *lossless* there. Every octave `[2^e, 2^(e+1))` above that is split
//! into `2^SUB_BITS` equal sub-buckets of width `2^(e-SUB_BITS)`, so a
//! bucket's upper bound overestimates any member by less than
//! `width / lower ≤ 1/2^SUB_BITS` of its value.

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUBS: u64 = 1 << SUB_BITS;
/// Documented guaranteed relative quantile error: `1 / 2^SUB_BITS`.
///
/// For any recorded value `v` mapped to its bucket, the bucket upper bound
/// `u` satisfies `v ≤ u < v · (1 + RELATIVE_ERROR_BOUND)`; quantiles report
/// bucket upper bounds (clamped to the exact tracked maximum), so a reported
/// quantile `q̂` versus the exact quantile `q` obeys
/// `q ≤ q̂ ≤ q · (1 + RELATIVE_ERROR_BOUND)`.
pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / SUBS as f64;

/// Octaves above the linear region: exponents `SUB_BITS..64`.
const OCTAVES: usize = (64 - SUB_BITS) as usize;
/// Total bucket count: the linear region plus `SUBS` buckets per octave.
const BUCKETS: usize = SUBS as usize + OCTAVES * SUBS as usize;

/// The nearest-rank index for quantile `q` over `n` values: `⌈q·n⌉`
/// clamped to `[1, n]`, computed in pure integer (`u128`) arithmetic.
///
/// The old float formula `(q * n as f64).ceil() as u64` breaks down as
/// `n` approaches 2⁵³: `n as f64` rounds the count itself, the product's
/// ulp exceeds one whole rank, and `.ceil()` can no longer separate
/// adjacent ranks — so the selected rank drifts off the true ceiling.
/// Here the f64 `q` is decomposed exactly into its integer mantissa and
/// exponent (`q = m·2⁻ˢ`) and the rank is the integer ceiling of
///
/// ```text
/// (m·n − slack) / 2ˢ      with  slack = min(n/2, 2ˢ⁻²)
/// ```
///
/// The slack term subtracts half an ulp of `q` scaled by `n` — a decimal
/// like `0.9` sits half an ulp *above* `9/10`, and without the slack the
/// exact ceiling would select rank `⌈9/10·n⌉ + 1` whenever `9n/10` is an
/// integer, betraying the caller's intent. Capping the slack at a
/// quarter rank (`2ˢ⁻²`) keeps every integer-exact case honest: a dyadic
/// `q` (0.5, 0.25, …) yields the true `⌈q·n⌉` for **any** `n`, including
/// the 2⁵³-boundary counts the float formula got wrong. For counts far
/// below 2⁵³ the result is identical to the old formula wherever `q·n`
/// is not within one ulp of an integer.
///
/// Returns 0 only when `n == 0`.
///
/// # Panics
///
/// Panics if `q` is not in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use gqos_obs::nearest_rank;
///
/// assert_eq!(nearest_rank(0.5, 7), 4);           // ⌈3.5⌉
/// assert_eq!(nearest_rank(0.9, 10), 9);          // 0.9 means 9/10
/// assert_eq!(nearest_rank(0.0, 5), 1);
/// assert_eq!(nearest_rank(1.0, 5), 5);
/// // The large-total boundary the float formula loses: the true median
/// // rank of 2^53 + 1 values is 2^52 + 1, not 2^52.
/// assert_eq!(nearest_rank(0.5, (1 << 53) + 1), (1 << 52) + 1);
/// ```
pub fn nearest_rank(q: f64, n: u64) -> u64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if n == 0 {
        return 0;
    }
    if q <= 0.0 {
        return 1;
    }
    if q >= 1.0 {
        return n;
    }
    // Exact dyadic decomposition q = m · 2^(-shift); every finite f64 is
    // a dyadic rational. 0 < q < 1 guarantees shift >= 53.
    let bits = q.to_bits();
    let biased = (bits >> 52) & 0x7FF;
    let frac = bits & ((1u64 << 52) - 1);
    let (m, shift) = if biased == 0 {
        (frac, 1074u32) // subnormal
    } else {
        (frac | (1u64 << 52), 1075 - biased as u32)
    };
    let prod = u128::from(m) * u128::from(n); // < 2^53 · 2^64 = 2^117
    let slack = if shift - 2 >= 127 {
        u128::from(n / 2)
    } else {
        u128::from(n / 2).min(1u128 << (shift - 2))
    };
    let num = prod.saturating_sub(slack);
    let rank = if shift >= 128 {
        1 // q < 2^-75, so q·n < 1 for any u64 count
    } else {
        let floor = num >> shift;
        // q < 1 bounds floor below n, so the ceiling fits in u64.
        (floor as u64) + u64::from(num & ((1u128 << shift) - 1) != 0)
    };
    rank.clamp(1, n)
}

/// A mergeable log-bucketed latency histogram with bounded relative error.
///
/// # Examples
///
/// ```
/// use gqos_obs::LatencySketch;
///
/// let mut s = LatencySketch::new();
/// for v in [1_000u64, 2_000, 4_000, 8_000] {
///     s.record(v);
/// }
/// let p50 = s.quantile(0.5);
/// assert!(p50 >= 2_000 && (p50 as f64) <= 2_000.0 * 1.03125);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LatencySketch {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for LatencySketch {
    fn default() -> Self {
        LatencySketch::new()
    }
}

impl LatencySketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        LatencySketch {
            counts: vec![0u64; BUCKETS].into_boxed_slice().try_into().unwrap(),
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Maps a value to its bucket index. Pure integer arithmetic.
    #[inline]
    pub(crate) fn bucket_index(value: u64) -> usize {
        if value < SUBS {
            value as usize
        } else {
            let e = 63 - value.leading_zeros(); // e >= SUB_BITS
            let shift = e - SUB_BITS;
            let sub = ((value >> shift) - SUBS) as usize;
            SUBS as usize + (e - SUB_BITS) as usize * SUBS as usize + sub
        }
    }

    /// The largest value mapping into bucket `index` (inclusive upper bound).
    #[inline]
    pub(crate) fn bucket_upper(index: usize) -> u64 {
        if index < SUBS as usize {
            index as u64
        } else {
            let rel = index - SUBS as usize;
            let shift = (rel / SUBS as usize) as u32;
            let sub = (rel % SUBS as usize) as u64;
            // Bucket covers [(SUBS + sub) << shift, (SUBS + sub + 1) << shift).
            // The very top bucket's exclusive end is 2^64, which does not
            // fit in u64 — its inclusive upper bound is exactly u64::MAX.
            let next = SUBS + sub + 1;
            if shift > next.leading_zeros() {
                u64::MAX
            } else {
                (next << shift) - 1
            }
        }
    }

    /// Records one latency value (nanoseconds).
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value as u128;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The exact smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// The exact largest recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The exact mean of recorded values, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`, nearest-rank convention.
    ///
    /// Returns the containing bucket's upper bound, clamped to the exact
    /// tracked maximum, so the result `q̂` versus the exact quantile `q`
    /// satisfies `q ≤ q̂ ≤ q · (1 + RELATIVE_ERROR_BOUND)`. The extremes are
    /// *exact*, not bucket bounds: `quantile(0.0)` equals
    /// [`min`](LatencySketch::min) and `quantile(1.0)` equals
    /// [`max`](LatencySketch::max), bit for bit. Returns 0 for an empty
    /// sketch — the same value empty [`min`](LatencySketch::min) and
    /// [`max`](LatencySketch::max) report.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]` (even on an empty sketch).
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.is_empty() {
            return 0;
        }
        // Nearest-rank: the smallest value with at least ceil(q * n) values
        // at or below it (rank clamped to [1, n]) — the same convention as
        // the exact sorted-vector oracle in gqos-sim::metrics. Computed in
        // pure integer arithmetic ([`nearest_rank`]): the float product
        // `q * n` cannot separate adjacent ranks once `n` nears 2^53.
        let rank = nearest_rank(q, self.total);
        if rank == 1 {
            // The rank-1 statistic is the minimum, which is tracked exactly;
            // reporting its bucket's upper bound would overestimate it.
            return self.min;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// The number of recorded values `<= threshold`, up to bucket
    /// resolution: exact whenever `threshold` falls on a bucket boundary,
    /// otherwise counts whole buckets with upper bound `<= threshold`.
    ///
    /// Pure integer arithmetic — the SLO-window feedback controller
    /// compares `count_at_most(δ) × denom` against `f_num × count()` in
    /// `u128` so its verdicts are exactly reproducible.
    ///
    /// Bucket upper bounds increase with the index, so the qualifying
    /// buckets are exactly a prefix: everything below the threshold's own
    /// bucket, plus that bucket when its upper bound is `<= threshold`.
    pub fn count_at_most(&self, threshold: u64) -> u64 {
        let own = Self::bucket_index(threshold);
        let end = if Self::bucket_upper(own) <= threshold {
            own + 1
        } else {
            own
        };
        self.counts[..end].iter().sum()
    }

    /// The exact fraction of recorded values `<= threshold`, up to bucket
    /// resolution: exact whenever `threshold` falls on a bucket boundary,
    /// otherwise counts whole buckets with upper bound `<= threshold`.
    pub fn fraction_below(&self, threshold: u64) -> f64 {
        if self.is_empty() {
            return 1.0;
        }
        self.count_at_most(threshold) as f64 / self.total as f64
    }

    /// Adds all of `other`'s recorded values into `self`.
    ///
    /// Bucket counts are added elementwise, so merging per-worker shards is
    /// *exactly* equivalent to having built one sketch over the concatenated
    /// stream — bit-identical counts, min, max, and sum.
    pub fn merge(&mut self, other: &LatencySketch) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// The non-empty buckets as `(upper_bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (Self::bucket_upper(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records `n` copies of `value` in O(1) — bit-identical to calling
    /// [`LatencySketch::record`] `n` times (checked below). This is what
    /// makes count boundaries near 2^53 reachable in tests at all.
    fn record_n(s: &mut LatencySketch, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        s.counts[LatencySketch::bucket_index(value)] += n;
        s.total += n;
        s.min = s.min.min(value);
        s.max = s.max.max(value);
        s.sum += u128::from(value) * u128::from(n);
    }

    /// Exact nearest-rank quantile over a sorted copy — the oracle. Uses
    /// the same integer [`nearest_rank`] as the sketch: the float formula
    /// it replaced shared the sketch's precision flaw near 2^53, so an
    /// oracle built on it could never have caught the bug.
    fn exact_quantile(values: &[u64], q: f64) -> u64 {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = nearest_rank(q, sorted.len() as u64);
        sorted[(rank - 1) as usize]
    }

    #[test]
    fn small_values_are_lossless() {
        // The linear region stores values < 32 in unit buckets.
        for v in 0..SUBS {
            let i = LatencySketch::bucket_index(v);
            assert_eq!(i, v as usize);
            assert_eq!(LatencySketch::bucket_upper(i), v);
        }
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        // Every value must satisfy v <= upper(bucket(v)) < v * (1 + bound),
        // including at powers of two and their neighbours.
        let mut probes: Vec<u64> = vec![0, 1, 31, 32, 33, u64::MAX];
        for e in 5..64u32 {
            let base = 1u64 << e;
            probes.extend([base - 1, base, base + 1]);
            probes.push(base | (base >> 1)); // mid-octave
        }
        for &v in &probes {
            let i = LatencySketch::bucket_index(v);
            let upper = LatencySketch::bucket_upper(i);
            assert!(upper >= v, "upper {upper} < value {v}");
            if v >= SUBS {
                // width / lower <= 1/32 bounds the overestimate (the f64
                // division can round the strict inequality up to equality).
                let over = (upper - v) as f64 / v as f64;
                assert!(
                    over <= RELATIVE_ERROR_BOUND,
                    "value {v}: overestimate {over} exceeds bound"
                );
            }
        }
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut probes: Vec<u64> = (0..200).collect();
        for e in 5..64u32 {
            let base = 1u64 << e;
            probes.extend([base - 1, base, base + 1, base | (base >> 2)]);
        }
        probes.sort_unstable();
        for pair in probes.windows(2) {
            assert!(
                LatencySketch::bucket_index(pair[0]) <= LatencySketch::bucket_index(pair[1]),
                "bucket index not monotone at {} vs {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn quantiles_track_the_oracle_within_bound() {
        // Deterministic LCG; no external RNG needed for a unit test.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 20 // spread over ~44 bits
        };
        let values: Vec<u64> = (0..10_000).map(|_| next() % 10_000_000_000).collect();
        let mut sketch = LatencySketch::new();
        for &v in &values {
            sketch.record(v);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&values, q);
            let approx = sketch.quantile(q);
            assert!(approx >= exact, "q={q}: approx {approx} < exact {exact}");
            let bound = exact as f64 * (1.0 + RELATIVE_ERROR_BOUND);
            assert!(
                approx as f64 <= bound.max(exact as f64 + 1.0),
                "q={q}: approx {approx} above bound {bound} (exact {exact})"
            );
        }
        assert_eq!(sketch.quantile(1.0), *values.iter().max().unwrap());
        assert_eq!(sketch.min(), *values.iter().min().unwrap());
    }

    #[test]
    fn merge_equals_concatenation_bit_identical() {
        let a_vals: Vec<u64> = (0..500).map(|i| i * 977 + 13).collect();
        let b_vals: Vec<u64> = (0..300).map(|i| i * 104_729 + 7).collect();
        let mut a = LatencySketch::new();
        let mut b = LatencySketch::new();
        let mut whole = LatencySketch::new();
        for &v in &a_vals {
            a.record(v);
            whole.record(v);
        }
        for &v in &b_vals {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole, "merged shards differ from concatenated sketch");
    }

    #[test]
    fn empty_and_single_value_edges() {
        let mut s = LatencySketch::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.fraction_below(10), 1.0);
        s.record(42);
        assert_eq!(s.count(), 1);
        assert_eq!(s.quantile(0.0), 42);
        assert_eq!(s.quantile(1.0), 42);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.nonzero_buckets().len(), 1);
    }

    #[test]
    fn fraction_below_is_exact_on_boundaries() {
        let mut s = LatencySketch::new();
        for v in [10u64, 20, 30, 31] {
            s.record(v);
        }
        // All in the lossless linear region.
        assert_eq!(s.fraction_below(9), 0.0);
        assert_eq!(s.fraction_below(10), 0.25);
        assert_eq!(s.fraction_below(30), 0.75);
        assert_eq!(s.fraction_below(31), 1.0);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_rejects_out_of_range() {
        LatencySketch::new().quantile(1.5);
    }

    #[test]
    fn quantile_never_under_reports_regression() {
        // These literals violated the old float bucketing: each value mapped
        // into a bucket whose rounded upper bound was BELOW the value, so the
        // quantile under-reported. With one sample the clamp to the tracked
        // max is exact.
        for nanos in [
            549_755_813_888_001u64,
            1_099_511_627_776_002,
            924_575_386_326_617,
        ] {
            let mut s = LatencySketch::new();
            s.record(nanos);
            assert_eq!(s.quantile(1.0), nanos);
        }
    }

    #[test]
    fn quantile_zero_is_exactly_min() {
        // 100's bucket caps at 101, so bucket-bound reporting would return
        // 101 for q=0 while min() said 100 — the extremes must be exact.
        let mut s = LatencySketch::new();
        s.record(100);
        s.record(1_000);
        assert_eq!(s.min(), 100);
        assert_eq!(s.quantile(0.0), s.min());
        assert_eq!(s.quantile(1.0), s.max());
        // Tiny q that still ranks 1 behaves like q=0.
        assert_eq!(s.quantile(0.1), 100);
    }

    #[test]
    fn empty_sketch_contract() {
        // Empty: count 0, min/max/quantile all report 0, mean 0.0, and
        // quantile still validates its argument.
        let s = LatencySketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(s.quantile(q), 0);
        }
        assert!(s.nonzero_buckets().is_empty());
    }

    #[test]
    fn nearest_rank_matches_float_formula_where_it_was_sane() {
        // For modest counts the integer rank must agree with the float
        // formula it replaced — the fix may not shift the repo-wide
        // quantile convention at ordinary scales.
        let counts = [1u64, 2, 3, 7, 10, 20, 99, 100, 1_000, 9_999, 65_536];
        let quantiles = [0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0];
        for &n in &counts {
            for &q in &quantiles {
                let float_rank = ((q * n as f64).ceil() as u64).clamp(1, n);
                assert_eq!(
                    nearest_rank(q, n),
                    float_rank,
                    "rank diverged from the float formula at q={q}, n={n}"
                );
            }
        }
    }

    #[test]
    fn nearest_rank_is_exact_at_large_total_boundaries() {
        // Regression for the f64 rank formula: `(q * n as f64)` first
        // rounds n (2^53 + 1 is not representable), then produces a product
        // whose ulp exceeds one whole rank, so `.ceil()` lands on the wrong
        // order statistic. The true median rank of 2^53 + 1 values is
        // 2^52 + 1; the float formula said 2^52.
        let n = (1u64 << 53) + 1;
        let float_rank = ((0.5 * n as f64).ceil() as u64).clamp(1, n);
        assert_eq!(float_rank, 1 << 52, "float formula silently changed");
        assert_eq!(nearest_rank(0.5, n), (1 << 52) + 1);
        // Dyadic quantiles stay exact across the whole u64 range.
        assert_eq!(nearest_rank(0.5, u64::MAX), u64::MAX / 2 + 1);
        assert_eq!(nearest_rank(0.25, (1 << 54) + 4), (1 << 52) + 1);
        // Non-dyadic decimals keep their decimal meaning at large n too:
        // 0.9 of 10^16 values is rank 9·10^15 even though 0.9f64 > 9/10.
        assert_eq!(nearest_rank(0.9, 10_u64.pow(16)), 9 * 10_u64.pow(15));
    }

    #[test]
    fn quantile_selects_true_rank_at_large_totals() {
        // End-to-end regression on the sketch itself: 2^52 values of 100
        // and 2^52 + 1 values of 1000. The median (rank 2^52 + 1 of
        // 2^53 + 1) is 1000; the pre-fix rank undershot by one and
        // reported 100's bucket instead.
        let mut s = LatencySketch::new();
        record_n(&mut s, 100, 1 << 52);
        record_n(&mut s, 1_000, (1 << 52) + 1);
        assert_eq!(s.count(), (1 << 53) + 1);
        let p50 = s.quantile(0.5);
        assert!(p50 >= 1_000, "median fell in the low bucket: {p50}");
    }

    #[test]
    fn record_n_is_bit_identical_to_repeated_record() {
        let mut bulk = LatencySketch::new();
        let mut loop_ = LatencySketch::new();
        for (value, n) in [(7u64, 3u64), (100, 0), (4_096, 17), (u64::MAX, 2)] {
            record_n(&mut bulk, value, n);
            for _ in 0..n {
                loop_.record(value);
            }
        }
        assert_eq!(bulk, loop_);
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let mut s = LatencySketch::new();
        s.record(0);
        s.record(u64::MAX);
        s.record(u64::MAX - 1);
        assert_eq!(s.count(), 3);
        assert_eq!(s.quantile(1.0), u64::MAX);
        assert_eq!(s.quantile(0.0), 0);
    }

    /// The original `count_at_most`: a scan over every bucket, kept as the
    /// oracle the prefix-sum version is differentially tested against.
    fn count_at_most_full_scan(sketch: &LatencySketch, threshold: u64) -> u64 {
        let mut below = 0u64;
        for (i, &c) in sketch.counts.iter().enumerate() {
            if c != 0 && LatencySketch::bucket_upper(i) <= threshold {
                below += c;
            }
        }
        below
    }

    /// Every bucket occupied, every bucket boundary and its neighbours.
    #[test]
    fn count_at_most_matches_full_scan_at_every_boundary() {
        let mut s = LatencySketch::new();
        for i in 0..BUCKETS {
            record_n(&mut s, LatencySketch::bucket_upper(i), i as u64 + 1);
        }
        for i in 0..BUCKETS {
            let upper = LatencySketch::bucket_upper(i);
            for t in [upper.saturating_sub(1), upper, upper.saturating_add(1)] {
                assert_eq!(
                    s.count_at_most(t),
                    count_at_most_full_scan(&s, t),
                    "threshold {t}"
                );
            }
        }
    }

    mod count_at_most_props {
        use super::*;
        use proptest::prelude::*;

        fn value() -> impl Strategy<Value = u64> {
            prop_oneof![
                0u64..32,
                32u64..1_000_000,
                1_000_000u64..10_000_000_000_000,
                any::<u64>(),
            ]
        }

        /// Zero, `u64::MAX`, a bucket upper bound ±1, or any value.
        fn threshold() -> impl Strategy<Value = u64> {
            prop_oneof![
                Just(0u64),
                Just(u64::MAX),
                (0..BUCKETS, -1i64..=1)
                    .prop_map(|(i, d)| LatencySketch::bucket_upper(i).saturating_add_signed(d)),
                value(),
            ]
        }

        proptest! {
            #[test]
            fn prefix_sum_matches_full_scan(
                values in prop::collection::vec((value(), 1u64..1_000), 0..200),
                thresholds in prop::collection::vec(threshold(), 1..16),
            ) {
                let mut s = LatencySketch::new();
                for &(v, n) in &values {
                    record_n(&mut s, v, n);
                }
                for &t in &thresholds {
                    prop_assert_eq!(s.count_at_most(t), count_at_most_full_scan(&s, t));
                }
            }
        }
    }
}
