//! Long-horizon retention: fixed-memory, per-tenant latency history.
//!
//! A run-scoped [`crate::WindowedSketch`] answers "what happened in this
//! window"; nothing in the crate retained *history*, so multi-hour soak
//! runs were uninspectable and feedback controllers could only see the
//! present. [`LongTermStore`] fixes that with a **tiered ring** per
//! tenant: tier 0 holds recent fine-grained buckets (say 1 s wide), each
//! coarser tier holds wider buckets (1 min, 1 h, …) covering further
//! back in time, and every tier has a fixed bucket capacity — total
//! memory is bounded by the [`RetentionConfig`] no matter how long the
//! run is.
//!
//! # Downsampling is merging, so every tier is lossless
//!
//! A coarse bucket is **never** built by decaying, sampling, or
//! rescaling: when a tier-`k` bucket closes it is merged — plain
//! [`LatencySketch::merge`] — into the tier-`k+1` bucket covering it.
//! Since merge is exactly equivalent to having recorded the concatenated
//! stream (the `window_props.rs` contract), a coarse bucket is
//! *bit-identical* to the sketch of every value observed in its time
//! range, regardless of how many fine buckets have since been evicted.
//! Resolution decays with age; fidelity never does. The proptests in
//! `crates/obs/tests/longterm_props.rs` pin this.
//!
//! # Feeding and querying
//!
//! Values enter through [`LongTermStore::record_all`], one pass over a
//! tenant's `(instant, value)` stream that looks the tenant up once and
//! keeps the open tier-0 bucket's bounds in nanoseconds;
//! [`LongTermStore::record`] is its one-value call (e.g. from a
//! `WorkloadShaper::run_observed` completion tap). A gateway lane's
//! `TenantReport::feed_longterm` folds its completions straight in,
//! each filed at the start of its feed window, and ends with the same
//! store, bit for bit, as merging every `window_feedback` snapshot
//! through [`LongTermStore::ingest_snapshot`]: merge is recording the
//! concatenated stream, and every value of a snapshot lands in the
//! tier-0 bucket holding the snapshot's start
//! (`crates/stream/tests/feed_props.rs` pins this). Every feed is
//! ordered per tenant: an instant from an already-closed tier-0 bucket
//! is a typed [`OutOfOrderInstant`], never a silent misfile. Queries — [`LongTermStore::series`],
//! [`LongTermStore::p99_over`], [`LongTermStore::heatmap`] — pick, per
//! requested cell, the finest tier that still covers that cell's range
//! and merge its buckets; cells older than every tier's retention come
//! back typed as uncovered rather than as fabricated zeros.

use std::collections::{BTreeMap, VecDeque};

use gqos_trace::{SimDuration, SimTime};

use crate::sketch::LatencySketch;
use crate::window::{OutOfOrderInstant, WindowSnapshot};

/// One retention tier: buckets `width` wide, at most `capacity` retained.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TierConfig {
    /// Bucket width. Each tier's width must be an exact multiple of the
    /// previous (finer) tier's width.
    pub width: SimDuration,
    /// Maximum closed buckets retained; the oldest is evicted beyond
    /// this. Open buckets and the cumulative sketch are extra.
    pub capacity: usize,
}

/// The full downsampling ladder: tier widths and ring capacities.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RetentionConfig {
    tiers: Vec<TierConfig>,
}

impl RetentionConfig {
    /// Builds a retention ladder from fine to coarse.
    ///
    /// # Panics
    ///
    /// Panics if `tiers` is empty, any width is zero, any capacity is
    /// zero, or a tier's width is not an exact multiple of the previous
    /// tier's width (exact nesting is what makes coarse buckets pure
    /// merges of fine ones).
    pub fn new(tiers: Vec<TierConfig>) -> Self {
        assert!(!tiers.is_empty(), "retention needs at least one tier");
        for (k, tier) in tiers.iter().enumerate() {
            assert!(!tier.width.is_zero(), "tier {k} width must be positive");
            assert!(tier.capacity > 0, "tier {k} capacity must be positive");
            if k > 0 {
                let prev = tiers[k - 1].width;
                assert!(
                    tier.width > prev && (tier.width % prev).is_zero(),
                    "tier {k} width {:?} must be a whole multiple of {:?}",
                    tier.width,
                    prev
                );
            }
        }
        RetentionConfig { tiers }
    }

    /// The default ladder: 1 s × 120, 1 min × 120, 1 h × 48 — two
    /// minutes at full resolution, two hours at minute resolution, two
    /// days at hour resolution, in under a thousand sketches per tenant.
    pub fn default_tiers() -> Self {
        RetentionConfig::new(vec![
            TierConfig {
                width: SimDuration::from_secs(1),
                capacity: 120,
            },
            TierConfig {
                width: SimDuration::from_secs(60),
                capacity: 120,
            },
            TierConfig {
                width: SimDuration::from_secs(3600),
                capacity: 48,
            },
        ])
    }

    /// The tiers, finest first.
    pub fn tiers(&self) -> &[TierConfig] {
        &self.tiers
    }

    /// Upper bound on live sketches **per tenant**: every ring at
    /// capacity, plus one open bucket per tier, plus the cumulative
    /// sketch. The store's memory is at most this bound times the tenant
    /// count times one full-span sketch, independent of run length; a
    /// sketch stores only its occupied bucket span, so most cost less.
    pub fn max_resident_sketches(&self) -> usize {
        self.tiers.iter().map(|t| t.capacity).sum::<usize>() + self.tiers.len() + 1
    }
}

/// One tier's live state: the open bucket plus the ring of closed ones.
#[derive(Clone, PartialEq, Eq, Debug)]
struct TierState {
    /// Ordinal of the bucket currently collecting (bucket `i` covers
    /// `[i·width, (i+1)·width)`).
    open_index: u64,
    open: LatencySketch,
    /// Closed non-empty buckets, oldest first, as `(index, sketch)`.
    /// Empty buckets are never stored — a gap in indices *is* the
    /// record of a quiet period.
    ring: VecDeque<(u64, LatencySketch)>,
    /// Highest bucket index ever evicted, if any: queries touching
    /// indices at or below this cannot be answered from this tier.
    evicted_through: Option<u64>,
}

impl TierState {
    fn new() -> Self {
        TierState {
            open_index: 0,
            open: LatencySketch::new(),
            ring: VecDeque::new(),
            evicted_through: None,
        }
    }
}

/// One tenant's full history: the tier ladder plus the cumulative sketch.
#[derive(Clone, PartialEq, Eq, Debug)]
struct TenantHistory {
    tiers: Vec<TierState>,
    cumulative: LatencySketch,
}

impl TenantHistory {
    fn new(config: &RetentionConfig) -> Self {
        TenantHistory {
            tiers: config.tiers.iter().map(|_| TierState::new()).collect(),
            cumulative: LatencySketch::new(),
        }
    }

    /// Closes tier `k`'s open bucket: pushes it into the ring (evicting
    /// the oldest past capacity) and merges it into the covering tier
    /// `k+1` bucket. Empty buckets close for free — no ring entry, no
    /// cascade — so a long quiet gap costs O(1), not O(gap).
    fn close_open(&mut self, config: &RetentionConfig, k: usize) {
        if self.tiers[k].open.is_empty() {
            return;
        }
        let closed = std::mem::take(&mut self.tiers[k].open);
        let index = self.tiers[k].open_index;
        if k + 1 < self.tiers.len() {
            let ratio = config.tiers[k + 1].width / config.tiers[k].width;
            let parent = index / ratio;
            self.advance_tier(config, k + 1, parent);
            self.tiers[k + 1].open.merge(&closed);
        }
        let tier = &mut self.tiers[k];
        tier.ring.push_back((index, closed));
        if tier.ring.len() > config.tiers[k].capacity {
            let (evicted, _) = tier.ring.pop_front().expect("ring over capacity");
            tier.evicted_through = Some(tier.evicted_through.map_or(evicted, |e| e.max(evicted)));
        }
    }

    /// Moves tier `k`'s open bucket forward to `target`, closing the
    /// current one if it holds anything. `target` is never behind the
    /// open index: tier-0 ordering is enforced at the store boundary and
    /// coarser deposits inherit monotonicity from their sources.
    fn advance_tier(&mut self, config: &RetentionConfig, k: usize, target: u64) {
        debug_assert!(target >= self.tiers[k].open_index, "tier advance backwards");
        if self.tiers[k].open_index < target {
            self.close_open(config, k);
            self.tiers[k].open_index = target;
        }
    }
}

/// One point of a percentile-over-time series.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SeriesPoint {
    /// The cell's start instant.
    pub start: SimTime,
    /// Values observed in the cell (0 for a quiet cell).
    pub count: u64,
    /// The requested quantile over the cell, `None` when the cell saw
    /// nothing — the same typed no-signal stance as
    /// [`WindowSnapshot::signal`], never a fabricated zero.
    pub quantile: Option<u64>,
    /// `false` when the cell's range has been evicted from every tier
    /// that could answer it: its `count`/`quantile` are unknowable, not
    /// zero.
    pub covered: bool,
}

/// One tenant's row of a tenant×time heat map.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HeatmapRow<K> {
    /// The tenant key.
    pub tenant: K,
    /// One point per time cell, in query order.
    pub cells: Vec<SeriesPoint>,
}

/// A fixed-memory, per-tenant long-horizon latency history.
///
/// Keys are any ordered type — tenant names, `TenantId`s — and queries
/// iterate tenants in key order, so results are deterministic.
///
/// # Examples
///
/// ```
/// use gqos_obs::{LongTermStore, RetentionConfig};
/// use gqos_trace::{SimDuration, SimTime};
///
/// let mut store: LongTermStore<&str> = LongTermStore::new(RetentionConfig::default_tiers());
/// for sec in 0..90u64 {
///     store
///         .record(&"t0", SimTime::from_secs(sec), 1_000 + sec * 10)
///         .unwrap();
/// }
/// let series = store.p99_over(
///     &"t0",
///     SimTime::ZERO,
///     SimTime::from_secs(90),
///     SimDuration::from_secs(30),
/// );
/// assert_eq!(series.len(), 3);
/// assert_eq!(series[0].count, 30);
/// assert!(series[0].quantile.unwrap() >= 1_290);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LongTermStore<K: Ord + Clone> {
    config: RetentionConfig,
    tenants: BTreeMap<K, TenantHistory>,
}

impl<K: Ord + Clone> LongTermStore<K> {
    /// An empty store with the given retention ladder.
    pub fn new(config: RetentionConfig) -> Self {
        LongTermStore {
            config,
            tenants: BTreeMap::new(),
        }
    }

    /// The retention ladder.
    pub fn config(&self) -> &RetentionConfig {
        &self.config
    }

    /// The tenant keys, in order.
    pub fn tenants(&self) -> impl Iterator<Item = &K> {
        self.tenants.keys()
    }

    /// Splits the borrow: the (immutable) config alongside the tenant's
    /// (mutable) history, creating the history on first sight.
    fn parts_mut(&mut self, tenant: &K) -> (&RetentionConfig, &mut TenantHistory) {
        if !self.tenants.contains_key(tenant) {
            self.tenants
                .insert(tenant.clone(), TenantHistory::new(&self.config));
        }
        let history = self.tenants.get_mut(tenant).expect("tenant just inserted");
        (&self.config, history)
    }

    /// Records one latency value observed at instant `at`: a one-value
    /// [`record_all`](LongTermStore::record_all).
    ///
    /// Ordered per tenant at tier-0 resolution: an `at` from a tier-0
    /// bucket that has already closed is a typed [`OutOfOrderInstant`]
    /// and changes nothing. Instants within the open bucket may arrive
    /// in any order.
    pub fn record(&mut self, tenant: &K, at: SimTime, value: u64) -> Result<(), OutOfOrderInstant> {
        self.record_all(tenant, [(at, value)])
    }

    /// Records a stream of `(instant, value)` observations for one
    /// tenant, in order — the same store as calling
    /// [`record`](LongTermStore::record) once per pair. The tenant is
    /// looked up once and the open tier-0 bucket's bounds are kept in
    /// nanoseconds, so a value inside the open bucket costs two compares
    /// plus the two sketch records; the bucket index is recomputed only
    /// when the stream leaves the bucket. An empty stream leaves the
    /// store untouched (it does not materialise the tenant).
    ///
    /// Stops at the first value whose instant lies in an already-closed
    /// tier-0 bucket, returning its [`OutOfOrderInstant`]: every value
    /// before it stays recorded, and it and every value after it are not.
    pub fn record_all(
        &mut self,
        tenant: &K,
        values: impl IntoIterator<Item = (SimTime, u64)>,
    ) -> Result<(), OutOfOrderInstant> {
        let mut values = values.into_iter();
        let Some((mut at, mut value)) = values.next() else {
            return Ok(());
        };
        let (config, history) = self.parts_mut(tenant);
        let width = config.tiers[0].width.as_nanos();
        let mut start = history.tiers[0].open_index * width;
        let mut end = start.saturating_add(width);
        loop {
            let t = at.as_nanos();
            if t < start {
                return Err(OutOfOrderInstant {
                    at,
                    window_start: SimTime::from_nanos(start),
                });
            }
            if t >= end {
                let index = t / width;
                history.advance_tier(config, 0, index);
                start = index * width;
                end = start.saturating_add(width);
            }
            history.tiers[0].open.record(value);
            history.cumulative.record(value);
            let Some(next) = values.next() else {
                return Ok(());
            };
            (at, value) = next;
        }
    }

    /// Merges a closed window snapshot — e.g. one
    /// `TenantReport::window_feedback` window or a `WindowedSketch` tap —
    /// at its own start instant: the sketch lands in the tier-0 bucket
    /// holding that start. Keep the window no wider than tier 0 (and
    /// aligned to it) for exact time attribution. Empty snapshots are
    /// ordered no-ops that do not materialise the tenant. Same ordering
    /// contract as [`record`](LongTermStore::record).
    pub fn ingest_snapshot(
        &mut self,
        tenant: &K,
        snapshot: &WindowSnapshot,
    ) -> Result<(), OutOfOrderInstant> {
        let (at, sketch) = (snapshot.start(), snapshot.sketch());
        if sketch.is_empty() {
            return Ok(());
        }
        let (config, history) = self.parts_mut(tenant);
        let width = config.tiers[0].width;
        let index = at.as_nanos() / width.as_nanos();
        if index < history.tiers[0].open_index {
            return Err(OutOfOrderInstant {
                at,
                window_start: SimTime::from_nanos(history.tiers[0].open_index * width.as_nanos()),
            });
        }
        history.advance_tier(config, 0, index);
        history.tiers[0].open.merge(sketch);
        history.cumulative.merge(sketch);
        Ok(())
    }

    /// The sketch of everything this tenant ever recorded, exact and
    /// unwindowed, or `None` for an unknown tenant.
    pub fn cumulative(&self, tenant: &K) -> Option<&LatencySketch> {
        self.tenants.get(tenant).map(|h| &h.cumulative)
    }

    /// Live sketches currently held across all tenants — the quantity
    /// [`RetentionConfig::max_resident_sketches`] bounds per tenant.
    pub fn resident_sketches(&self) -> usize {
        self.tenants
            .values()
            .map(|h| h.tiers.iter().map(|t| t.ring.len() + 1).sum::<usize>() + 1)
            .sum()
    }

    /// Tier `k`'s still-open bucket for a tenant, as `(index, sketch)`.
    /// For coarse tiers the open bucket is **incomplete by design**: its
    /// final fine-grained sources have not cascaded into it yet, so only
    /// closed buckets carry the bit-for-bit losslessness guarantee.
    pub fn open_bucket(&self, tenant: &K, tier: usize) -> Option<(u64, &LatencySketch)> {
        let state = &self.tenants.get(tenant)?.tiers[tier];
        Some((state.open_index, &state.open))
    }

    /// Tier `k`'s retained buckets for a tenant, oldest first, as
    /// `(index, sketch)` — closed ring buckets plus the open bucket if
    /// it holds anything. Bucket `i` covers `[i·width, (i+1)·width)`.
    pub fn tier_buckets(&self, tenant: &K, tier: usize) -> Vec<(u64, &LatencySketch)> {
        let Some(history) = self.tenants.get(tenant) else {
            return Vec::new();
        };
        let state = &history.tiers[tier];
        let mut out: Vec<(u64, &LatencySketch)> = state.ring.iter().map(|(i, s)| (*i, s)).collect();
        if !state.open.is_empty() {
            out.push((state.open_index, &state.open));
        }
        out
    }

    /// Quantile-over-time: splits `[start, end)` into `resolution`-wide
    /// cells and answers each from the **finest tier that still covers
    /// it** — tier widths must divide `resolution`, and both `start` and
    /// `resolution` must be multiples of the chosen tier's width (use
    /// cell edges aligned to tier 0). A cell whose range has been
    /// evicted from every eligible tier comes back `covered: false`.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is zero or not a multiple of the tier-0
    /// width, or if `start` is not aligned to `resolution`.
    pub fn series(
        &self,
        tenant: &K,
        q: f64,
        start: SimTime,
        end: SimTime,
        resolution: SimDuration,
    ) -> Vec<SeriesPoint> {
        assert!(!resolution.is_zero(), "series resolution must be positive");
        let base = self.config.tiers[0].width;
        assert!(
            (resolution % base).is_zero(),
            "resolution {resolution:?} must be a multiple of the tier-0 width {base:?}"
        );
        assert!(
            SimDuration::from_nanos(start.as_nanos() % resolution.as_nanos()).is_zero(),
            "series start {start:?} must be aligned to the resolution {resolution:?}"
        );
        let history = self.tenants.get(tenant);
        let mut out = Vec::new();
        let mut cell_start = start;
        while cell_start < end {
            let cell_end = cell_start + resolution;
            out.push(match history {
                Some(h) => Self::cell(&self.config, h, q, cell_start, cell_end),
                // An unknown tenant has observed nothing and evicted
                // nothing: every cell is a covered quiet cell.
                None => SeriesPoint {
                    start: cell_start,
                    count: 0,
                    quantile: None,
                    covered: true,
                },
            });
            cell_start = cell_end;
        }
        out
    }

    /// Answers one cell from the finest tier whose width divides the
    /// cell and whose ring still reaches back far enough.
    fn cell(
        config: &RetentionConfig,
        history: &TenantHistory,
        q: f64,
        cell_start: SimTime,
        cell_end: SimTime,
    ) -> SeriesPoint {
        let span = cell_end - cell_start;
        for (tier_cfg, state) in config.tiers.iter().zip(&history.tiers) {
            let width = tier_cfg.width.as_nanos();
            if !(span % tier_cfg.width).is_zero() || !cell_start.as_nanos().is_multiple_of(width) {
                continue;
            }
            let first = cell_start.as_nanos() / width;
            let last = cell_end.as_nanos() / width; // exclusive
            if state.evicted_through.is_some_and(|e| first <= e) {
                continue; // part of the cell is gone from this tier
            }
            let mut merged: Option<LatencySketch> = None;
            let mut count = 0u64;
            for (index, sketch) in state
                .ring
                .iter()
                .map(|(i, s)| (*i, s))
                .chain((!state.open.is_empty()).then_some((state.open_index, &state.open)))
            {
                if index >= first && index < last {
                    count += sketch.count();
                    match merged.as_mut() {
                        Some(m) => m.merge(sketch),
                        None => merged = Some(sketch.clone()),
                    }
                }
            }
            return SeriesPoint {
                start: cell_start,
                count,
                quantile: merged.map(|m| m.quantile(q)),
                covered: true,
            };
        }
        SeriesPoint {
            start: cell_start,
            count: 0,
            quantile: None,
            covered: false,
        }
    }

    /// [`series`](LongTermStore::series) at the paper's headline
    /// quantile, p99.
    pub fn p99_over(
        &self,
        tenant: &K,
        start: SimTime,
        end: SimTime,
        resolution: SimDuration,
    ) -> Vec<SeriesPoint> {
        self.series(tenant, 0.99, start, end, resolution)
    }

    /// The tenant×time heat map: one [`series`](LongTermStore::series)
    /// row per tenant, tenants in key order.
    pub fn heatmap(
        &self,
        q: f64,
        start: SimTime,
        end: SimTime,
        resolution: SimDuration,
    ) -> Vec<HeatmapRow<K>> {
        self.tenants
            .keys()
            .map(|tenant| HeatmapRow {
                tenant: tenant.clone(),
                cells: self.series(tenant, q, start, end, resolution),
            })
            .collect()
    }

    /// Drift context: how far the quantile over the most recent `recent`
    /// span sits from the all-time quantile, in parts per million of the
    /// all-time value (positive = recent is slower). `None` until both
    /// spans hold data. Integer arithmetic end to end, so feedback
    /// consumers stay exactly reproducible.
    pub fn drift_ppm(&self, tenant: &K, q: f64, recent: SimDuration) -> Option<i64> {
        let history = self.tenants.get(tenant)?;
        if history.cumulative.is_empty() {
            return None;
        }
        let state = &history.tiers[0];
        let width = self.config.tiers[0].width;
        let horizon_end = (state.open_index + 1) * width.as_nanos();
        let horizon_start = horizon_end.saturating_sub(recent.as_nanos());
        let first = horizon_start.div_ceil(width.as_nanos());
        let mut merged: Option<LatencySketch> = None;
        for (index, sketch) in state
            .ring
            .iter()
            .map(|(i, s)| (*i, s))
            .chain((!state.open.is_empty()).then_some((state.open_index, &state.open)))
        {
            if index >= first {
                match merged.as_mut() {
                    Some(m) => m.merge(sketch),
                    None => merged = Some(sketch.clone()),
                }
            }
        }
        let recent_q = merged?.quantile(q);
        let all_q = history.cumulative.quantile(q);
        if all_q == 0 {
            return None;
        }
        let diff = i128::from(recent_q) - i128::from(all_q);
        Some((diff * 1_000_000 / i128::from(all_q)) as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tier(fine_capacity: usize) -> RetentionConfig {
        RetentionConfig::new(vec![
            TierConfig {
                width: SimDuration::from_secs(1),
                capacity: fine_capacity,
            },
            TierConfig {
                width: SimDuration::from_secs(60),
                capacity: 4,
            },
        ])
    }

    #[test]
    fn coarse_tier_is_the_merge_of_its_sources() {
        let mut store: LongTermStore<&str> = LongTermStore::new(two_tier(8));
        let mut reference = LatencySketch::new();
        // Fill minute 0 completely, then step into minute 1 to close it.
        for sec in 0..60u64 {
            let v = 1_000 + sec * 31;
            store.record(&"t", SimTime::from_secs(sec), v).unwrap();
            reference.record(v);
        }
        store.record(&"t", SimTime::from_secs(61), 9_999).unwrap();
        // Tier 0 has long since evicted minute 0's early seconds
        // (capacity 8), yet the closed tier-1 bucket is bit-identical to
        // the sketch of all 60 source values.
        let coarse = store.tier_buckets(&"t", 1);
        assert_eq!(coarse[0].0, 0);
        assert_eq!(*coarse[0].1, reference);
    }

    #[test]
    fn memory_is_bounded_by_the_config() {
        let config = two_tier(8);
        let bound = config.max_resident_sketches();
        let mut store: LongTermStore<&str> = LongTermStore::new(config);
        for sec in 0..5_000u64 {
            store
                .record(&"t", SimTime::from_secs(sec), 100 + sec)
                .unwrap();
        }
        assert!(
            store.resident_sketches() <= bound,
            "{} sketches exceeds the configured bound {bound}",
            store.resident_sketches()
        );
    }

    #[test]
    fn quiet_gaps_cost_nothing_and_read_as_quiet() {
        let mut store: LongTermStore<&str> = LongTermStore::new(two_tier(8));
        store.record(&"t", SimTime::from_secs(0), 500).unwrap();
        // A huge silent gap: no per-bucket work, no ring pollution.
        store
            .record(&"t", SimTime::from_secs(100_000), 700)
            .unwrap();
        let series = store.series(
            &"t",
            0.5,
            SimTime::from_secs(99_996),
            SimTime::from_secs(100_002),
            SimDuration::from_secs(1),
        );
        assert!(series[0].covered && series[0].count == 0);
        assert_eq!(series[4].quantile, Some(700));
    }

    #[test]
    fn out_of_order_feed_is_a_typed_error() {
        let mut store: LongTermStore<&str> = LongTermStore::new(two_tier(8));
        store.record(&"t", SimTime::from_secs(10), 1).unwrap();
        let err = store.record(&"t", SimTime::from_secs(9), 2).unwrap_err();
        assert_eq!(err.window_start, SimTime::from_secs(10));
        assert_eq!(store.cumulative(&"t").unwrap().count(), 1);
        // Within the open tier-0 bucket any ordering is fine.
        store
            .record(&"t", SimTime::from_nanos(10_000_000_001), 3)
            .unwrap();
        store
            .record(&"t", SimTime::from_nanos(10_000_000_000), 4)
            .unwrap();
    }

    #[test]
    fn record_all_is_repeated_record_up_to_the_first_out_of_order_value() {
        let config = two_tier(2);
        let values = [
            (SimTime::from_millis(200), 10),
            (SimTime::from_millis(900), 20),
            (SimTime::from_millis(1_500), 30),
            (SimTime::from_millis(4_000), 40),
            (SimTime::from_millis(4_000), 50),
            (SimTime::from_millis(3_999), 60), // back into closed bucket 3
            (SimTime::from_millis(5_000), 70),
        ];
        let mut one_by_one: LongTermStore<&str> = LongTermStore::new(config.clone());
        let mut first_err = None;
        for &(at, v) in &values {
            if let Err(e) = one_by_one.record(&"t", at, v) {
                first_err = Some(e);
                break;
            }
        }
        let mut folded: LongTermStore<&str> = LongTermStore::new(config.clone());
        let err = folded.record_all(&"t", values).unwrap_err();
        assert_eq!(Some(err), first_err);
        assert_eq!(err.at, SimTime::from_millis(3_999));
        assert_eq!(err.window_start, SimTime::from_secs(4));
        // The five values before the error stay recorded; none after it.
        assert_eq!(folded, one_by_one);
        assert_eq!(folded.cumulative(&"t").unwrap().count(), 5);
        assert_eq!(folded.open_bucket(&"t", 0).unwrap().0, 4);

        // An in-order stream agrees too, and an empty one touches nothing.
        let ordered = values[..5].iter().chain(&values[6..]).copied();
        let mut a: LongTermStore<&str> = LongTermStore::new(config.clone());
        let mut b: LongTermStore<&str> = LongTermStore::new(config);
        a.record_all(&"t", ordered.clone()).unwrap();
        ordered.for_each(|(at, v)| b.record(&"t", at, v).unwrap());
        assert_eq!(a, b);
        a.record_all(&"u", []).unwrap();
        assert_eq!(a.tenants().count(), 1);
    }

    #[test]
    fn evicted_cells_are_uncovered_not_zero() {
        // One tier only: once a bucket is evicted, nothing can answer it.
        let config = RetentionConfig::new(vec![TierConfig {
            width: SimDuration::from_secs(1),
            capacity: 2,
        }]);
        let mut store: LongTermStore<&str> = LongTermStore::new(config);
        for sec in 0..6u64 {
            store.record(&"t", SimTime::from_secs(sec), 100).unwrap();
        }
        let series = store.series(
            &"t",
            0.5,
            SimTime::ZERO,
            SimTime::from_secs(6),
            SimDuration::from_secs(1),
        );
        assert!(!series[0].covered, "evicted cell must not read as data");
        assert!(series[5].covered && series[5].count == 1);
    }

    #[test]
    fn heatmap_rows_follow_key_order() {
        let mut store: LongTermStore<String> = LongTermStore::new(two_tier(8));
        for name in ["zeta", "alpha", "mid"] {
            store
                .record(&name.to_string(), SimTime::from_secs(1), 42)
                .unwrap();
        }
        let rows = store.heatmap(
            0.5,
            SimTime::ZERO,
            SimTime::from_secs(2),
            SimDuration::from_secs(1),
        );
        let names: Vec<&str> = rows.iter().map(|r| r.tenant.as_str()).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    #[should_panic(expected = "whole multiple")]
    fn misaligned_tier_widths_rejected() {
        let _ = RetentionConfig::new(vec![
            TierConfig {
                width: SimDuration::from_secs(2),
                capacity: 4,
            },
            TierConfig {
                width: SimDuration::from_secs(3),
                capacity: 4,
            },
        ]);
    }

    #[test]
    fn drift_reads_recent_against_all_time() {
        let mut store: LongTermStore<&str> = LongTermStore::new(two_tier(64));
        // 100 slow seconds then 20 fast ones: recent p50 sits below the
        // all-time p50, so drift is negative.
        for sec in 0..100u64 {
            store.record(&"t", SimTime::from_secs(sec), 10_000).unwrap();
        }
        for sec in 100..120u64 {
            store.record(&"t", SimTime::from_secs(sec), 1_000).unwrap();
        }
        let drift = store
            .drift_ppm(&"t", 0.5, SimDuration::from_secs(10))
            .unwrap();
        assert!(drift < -800_000, "expected strong negative drift: {drift}");
    }
}
