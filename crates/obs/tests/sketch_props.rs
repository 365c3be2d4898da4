//! Differential properties: [`LatencySketch`] quantiles against an exact
//! sorted-vector oracle, and merge against sketch-of-concatenation.
//!
//! The oracle uses the same nearest-rank convention as
//! `gqos-sim::ResponseStats::percentile`: `rank = ceil(q·n)` clamped to
//! `[1, n]`, answer = `sorted[rank-1]` — computed with the shared integer
//! [`nearest_rank`], since an oracle built on the float formula would
//! share the precision flaw the sketch was cured of. The sketch must
//! never under-report the oracle, and may over-report by at most the
//! documented one-sided relative bound — asserted in exact integer
//! arithmetic: `(sketch − exact)·32 ≤ exact`.
//!
//! The sketch stores only its occupied bucket span. [`DenseSketch`], the
//! layout it replaced (all 1,920 buckets, always), is kept here as a
//! second oracle: random sequences of records and merges drive both, and
//! every query and every `==` must agree.

use gqos_obs::{nearest_rank, LatencySketch, RELATIVE_ERROR_BOUND};
use proptest::prelude::*;

/// The quantiles the run report renders: p50/p90/p99/p999.
const QUANTILES: [f64; 4] = [0.50, 0.90, 0.99, 0.999];

/// Exact nearest-rank quantile over a sorted sample.
fn oracle(sorted: &[u64], q: f64) -> u64 {
    let rank = nearest_rank(q, sorted.len() as u64);
    sorted[(rank - 1) as usize]
}

fn sketch_of(values: &[u64]) -> LatencySketch {
    let mut sketch = LatencySketch::new();
    for &v in values {
        sketch.record(v);
    }
    sketch
}

/// Latencies spanning every regime the sketch has to cover: the lossless
/// unit-bucket region, realistic nanosecond latencies, and the extreme
/// octaves near `u64::MAX`.
fn latency() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..32,                         // lossless linear region
        32u64..1_000_000,                 // sub-millisecond ns
        1_000_000u64..10_000_000_000_000, // ms .. hours in ns
        any::<u64>(),                     // arbitrary, incl. extremes
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// p50/p90/p99/p999 of the sketch bracket the exact oracle from above,
    /// within the documented relative bound, on every generated sample.
    #[test]
    fn quantiles_match_exact_oracle(mut values in prop::collection::vec(latency(), 1..400)) {
        let sketch = sketch_of(&values);
        values.sort_unstable();
        for q in QUANTILES {
            let exact = oracle(&values, q);
            let approx = sketch.quantile(q);
            prop_assert!(
                approx >= exact,
                "p{q}: sketch {approx} under-reports exact {exact}"
            );
            // (approx − exact)·32 ≤ exact is the integer form of the
            // documented one-sided bound (approx − exact)/exact ≤ 1/32.
            prop_assert!(
                (approx - exact) as u128 * 32 <= exact as u128,
                "p{q}: sketch {approx} exceeds exact {exact} by more than {}",
                RELATIVE_ERROR_BOUND
            );
        }
    }

    /// `merge(a, b)` is bit-identical to the sketch of the concatenation:
    /// same bucket counts, same min/max/sum, hence same quantiles.
    #[test]
    fn merge_equals_concatenation(
        a in prop::collection::vec(latency(), 0..200),
        b in prop::collection::vec(latency(), 0..200),
    ) {
        let mut merged = sketch_of(&a);
        merged.merge(&sketch_of(&b));

        let concat: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let direct = sketch_of(&concat);

        prop_assert_eq!(&merged, &direct, "merge diverged from concatenation");
        prop_assert_eq!(merged.nonzero_buckets(), direct.nonzero_buckets());
        prop_assert_eq!(merged.count(), (a.len() + b.len()) as u64);
    }

    /// Merging is order-insensitive: a ∪ b == b ∪ a, bit for bit.
    #[test]
    fn merge_commutes(
        a in prop::collection::vec(latency(), 0..200),
        b in prop::collection::vec(latency(), 0..200),
    ) {
        let mut ab = sketch_of(&a);
        ab.merge(&sketch_of(&b));
        let mut ba = sketch_of(&b);
        ba.merge(&sketch_of(&a));
        prop_assert_eq!(ab, ba);
    }

    /// `fraction_below` agrees exactly with the oracle at bucket boundaries:
    /// counting values strictly below a recorded value's bucket upper bound
    /// can never disagree by more than the in-bucket population.
    #[test]
    fn count_and_extremes_are_exact(values in prop::collection::vec(latency(), 1..400)) {
        let sketch = sketch_of(&values);
        prop_assert_eq!(sketch.count(), values.len() as u64);
        prop_assert_eq!(sketch.min(), *values.iter().min().unwrap());
        prop_assert_eq!(sketch.max(), *values.iter().max().unwrap());
        let mean_exact = values.iter().map(|&v| v as u128).sum::<u128>() as f64
            / values.len() as f64;
        let rel = if mean_exact == 0.0 {
            (sketch.mean() - mean_exact).abs()
        } else {
            (sketch.mean() - mean_exact).abs() / mean_exact
        };
        prop_assert!(rel < 1e-9, "mean drifted: {} vs {}", sketch.mean(), mean_exact);
    }
}

/// Sub-bucket resolution of the bucket math (`2^SUB_BITS` per octave).
const SUB_BITS: u32 = 5;
const SUBS: u64 = 1 << SUB_BITS;
/// The linear region plus `SUBS` buckets for each octave `SUB_BITS..64`.
const BUCKETS: usize = SUBS as usize * (65 - SUB_BITS as usize);

fn bucket_index(value: u64) -> usize {
    if value < SUBS {
        value as usize
    } else {
        let e = 63 - value.leading_zeros();
        let sub = ((value >> (e - SUB_BITS)) - SUBS) as usize;
        SUBS as usize * (1 + (e - SUB_BITS) as usize) + sub
    }
}

fn bucket_upper(index: usize) -> u64 {
    if index < SUBS as usize {
        return index as u64;
    }
    let rel = index - SUBS as usize;
    let shift = (rel / SUBS as usize) as u32;
    let next = u128::from(SUBS + (rel % SUBS as usize) as u64 + 1);
    u64::try_from((next << shift) - 1).unwrap_or(u64::MAX)
}

/// The dense layout the span layout replaced: every bucket stored, always.
#[derive(Clone, PartialEq, Eq, Debug)]
struct DenseSketch {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl DenseSketch {
    fn new() -> Self {
        DenseSketch {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += u128::from(value);
    }

    fn merge(&mut self, other: &DenseSketch) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = nearest_rank(q, self.total);
        if rank == 1 {
            return self.min;
        }
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    fn count_at_most(&self, threshold: u64) -> u64 {
        let own = bucket_index(threshold);
        let end = own + usize::from(bucket_upper(own) <= threshold);
        self.counts[..end].iter().sum()
    }

    fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (bucket_upper(i), c))
            .collect()
    }
}

/// One sketch in the span layout and the same sketch in the dense one.
#[derive(Clone, Debug)]
struct Pair {
    span: LatencySketch,
    dense: DenseSketch,
}

impl Pair {
    fn new() -> Self {
        Pair {
            span: LatencySketch::new(),
            dense: DenseSketch::new(),
        }
    }

    fn of(values: &[u64]) -> Self {
        let mut pair = Pair::new();
        for &v in values {
            pair.record(v);
        }
        pair
    }

    fn record(&mut self, value: u64) {
        self.span.record(value);
        self.dense.record(value);
    }

    fn merge(&mut self, other: &Pair) {
        self.span.merge(&other.span);
        self.dense.merge(&other.dense);
    }

    /// Every query of the two layouts agrees, at every bucket boundary of
    /// the recorded values and at `extra` thresholds.
    fn assert_agrees(&self, extra: &[u64]) -> Result<(), TestCaseError> {
        let (s, d) = (&self.span, &self.dense);
        prop_assert_eq!(s.count(), d.total);
        prop_assert_eq!(s.is_empty(), d.total == 0);
        prop_assert_eq!(s.min(), if d.total == 0 { 0 } else { d.min });
        prop_assert_eq!(s.max(), d.max);
        let mean = if d.total == 0 {
            0.0
        } else {
            d.sum as f64 / d.total as f64
        };
        prop_assert_eq!(s.mean().to_bits(), mean.to_bits());
        for q in [0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(s.quantile(q), d.quantile(q), "quantile {}", q);
        }
        let buckets = d.nonzero_buckets();
        prop_assert_eq!(s.nonzero_buckets(), buckets.clone());
        let mut thresholds = vec![0, u64::MAX, d.min, d.max];
        thresholds.extend_from_slice(extra);
        for &(upper, _) in &buckets {
            thresholds.extend([upper.saturating_sub(1), upper, upper.saturating_add(1)]);
        }
        for t in thresholds {
            prop_assert_eq!(s.count_at_most(t), d.count_at_most(t), "threshold {}", t);
            let fraction = if d.total == 0 {
                1.0
            } else {
                d.count_at_most(t) as f64 / d.total as f64
            };
            prop_assert_eq!(s.fraction_below(t).to_bits(), fraction.to_bits());
        }
        Ok(())
    }
}

/// One step of a random sketch history.
#[derive(Clone, Debug)]
enum Op {
    Record(u64),
    /// Merge a fresh sketch of these values (empty included).
    Merge(Vec<u64>),
    /// Merge a copy of the sketch into itself.
    MergeSelf,
}

/// Values that stress the span: both extremes (a quarter of draws each
/// way), the lossless region and arbitrary magnitudes, so a span often
/// widens down after widening up.
fn span_value() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), latency(), latency(),]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        span_value().prop_map(Op::Record),
        span_value().prop_map(Op::Record),
        span_value().prop_map(Op::Record),
        prop::collection::vec(span_value(), 0..12).prop_map(Op::Merge),
        Just(Op::MergeSelf),
    ]
}

/// A seeded Fisher–Yates shuffle (splitmix64 steps).
fn shuffled(values: &[u64], mut seed: u64) -> Vec<u64> {
    let mut out = values.to_vec();
    for i in (1..out.len()).rev() {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        out.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    out
}

fn apply(pair: &mut Pair, op: &Op) {
    match op {
        Op::Record(v) => pair.record(*v),
        Op::Merge(values) => pair.merge(&Pair::of(values)),
        Op::MergeSelf => {
            let copy = pair.clone();
            pair.merge(&copy);
        }
    }
}

/// Builds `values` as chunks cut at `cuts`, each chunk its own sketch,
/// merged in order or in reverse.
fn chunked(values: &[u64], cuts: &[usize], reverse: bool) -> Pair {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (values.len() + 1)).collect();
    bounds.extend([0, values.len()]);
    bounds.sort_unstable();
    let mut chunks: Vec<Pair> = bounds
        .windows(2)
        .map(|w| Pair::of(&values[w[0]..w[1]]))
        .collect();
    if reverse {
        chunks.reverse();
    }
    let mut whole = Pair::new();
    for chunk in &chunks {
        whole.merge(chunk);
    }
    whole
}

/// The span widens upward, then a value lands below it.
#[test]
fn span_widens_below_after_widening_above() {
    let mut pair = Pair::new();
    for v in [1_000_000u64, 5_000_000_000, 40, 0, u64::MAX, 7] {
        pair.record(v);
        pair.assert_agrees(&[]).unwrap();
    }
    let mut merged = Pair::of(&[3_000]);
    merged.merge(&pair);
    merged.assert_agrees(&[]).unwrap();
    assert_eq!(
        merged.span,
        Pair::of(&[1_000_000, 5_000_000_000, 40, 0, u64::MAX, 7, 3_000]).span
    );
}

proptest! {
    // Each step checks every bucket boundary against a 1,920-bucket scan.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After every step of a random history of records and merges, the
    /// span layout answers every query as the dense layout does.
    #[test]
    fn span_layout_matches_dense_oracle(
        ops in prop::collection::vec(op(), 0..32),
        thresholds in prop::collection::vec(span_value(), 0..8),
    ) {
        let mut pair = Pair::new();
        pair.assert_agrees(&thresholds)?;
        for op in &ops {
            apply(&mut pair, op);
            pair.assert_agrees(&thresholds)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `==` on the span layout agrees with `==` on the dense layout for
    /// two independently built sketches: one recorded value by value, the
    /// other from the same values in a shuffled order, merged from chunks
    /// (or with one value replaced).
    #[test]
    fn span_equality_matches_dense_equality(
        values in prop::collection::vec(span_value(), 0..60),
        seed in any::<u64>(),
        cuts in prop::collection::vec(any::<usize>(), 0..5),
        reverse in any::<bool>(),
        (replace, at, with) in (any::<bool>(), any::<usize>(), span_value()),
    ) {
        let mut other = shuffled(&values, seed);
        if replace && !other.is_empty() {
            let i = at % other.len();
            other[i] = with;
        }
        let a = Pair::of(&values);
        let b = chunked(&other, &cuts, reverse);
        a.assert_agrees(&[])?;
        b.assert_agrees(&[])?;
        prop_assert_eq!(a.span == b.span, a.dense == b.dense);
        if !replace {
            prop_assert_eq!(&a.span, &b.span);
        }
    }
}
