//! An ordered stream of I/O requests and the algebra used to combine them.
//!
//! A [`Workload`] is the paper's arrival sequence `(a_i, n_i)`: requests
//! sorted by arrival time, several of which may share an instant. The
//! consolidation experiments (Figures 7 and 8) are built from the merge and
//! shift operations defined here.

use std::fmt;
use std::slice;
use std::sync::{Arc, OnceLock};

use crate::column::ArrivalColumn;
use crate::request::{Request, RequestId};
use crate::time::{SimDuration, SimTime};

/// An immutable, arrival-ordered sequence of requests.
///
/// Invariants:
/// - requests are sorted by `arrival` (ties keep insertion order), and
/// - ids are the dense indices `0..len`, so `requests()[i].id.index() == i`.
///
/// # Examples
///
/// ```
/// use gqos_trace::{SimDuration, SimTime, Workload};
///
/// let w = Workload::from_arrivals([
///     SimTime::from_millis(0),
///     SimTime::from_millis(5),
///     SimTime::from_millis(5),
/// ]);
/// assert_eq!(w.len(), 3);
/// assert_eq!(w.span(), SimDuration::from_millis(5));
/// ```
#[derive(Clone, Default, Debug)]
pub struct Workload {
    requests: Vec<Request>,
    /// The arrival column, computed on first use. The requests are
    /// immutable once constructed (every transform builds a new workload;
    /// [`Extend`] swaps in a fresh cell), so clones share it. Never
    /// compared.
    column: Arc<OnceLock<ArrivalColumn>>,
}

impl PartialEq for Workload {
    fn eq(&self, other: &Self) -> bool {
        // Identity is the request sequence alone; the column is a derived
        // view and clones may or may not share one.
        self.requests == other.requests
    }
}

impl Eq for Workload {}

impl Workload {
    /// Creates an empty workload.
    pub fn new() -> Self {
        Workload::default()
    }

    /// Builds a workload from arrival instants; other request fields take
    /// their defaults.
    pub fn from_arrivals<I>(arrivals: I) -> Self
    where
        I: IntoIterator<Item = SimTime>,
    {
        arrivals.into_iter().map(Request::at).collect()
    }

    /// Builds a workload from requests, sorting by arrival (stably) and
    /// reassigning dense ids.
    pub fn from_requests<I>(requests: I) -> Self
    where
        I: IntoIterator<Item = Request>,
    {
        let mut requests: Vec<Request> = requests.into_iter().collect();
        requests.sort_by_key(|r| r.arrival);
        Workload::from_sorted(requests)
    }

    fn from_sorted(mut requests: Vec<Request>) -> Self {
        for (i, r) in requests.iter_mut().enumerate() {
            r.id = RequestId::new(i as u64);
        }
        Workload {
            requests,
            column: Arc::default(),
        }
    }

    /// The columnar arrival-time view of this workload, computed on first
    /// use and cached for the workload's lifetime (clones share the cache).
    ///
    /// This is the input of the allocation-free decomposition kernels in
    /// `gqos-core`: a sorted `u64` nanosecond slice the scan walks instead
    /// of the full request structs.
    pub fn arrival_column(&self) -> &ArrivalColumn {
        self.column.get_or_init(|| ArrivalColumn::new(self))
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` if the workload holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The requests in arrival order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Iterates over the requests in arrival order.
    pub fn iter(&self) -> slice::Iter<'_, Request> {
        self.requests.iter()
    }

    /// Arrival time of the first request, if any.
    pub fn first_arrival(&self) -> Option<SimTime> {
        self.requests.first().map(|r| r.arrival)
    }

    /// Arrival time of the last request, if any.
    pub fn last_arrival(&self) -> Option<SimTime> {
        self.requests.last().map(|r| r.arrival)
    }

    /// Time between the first and last arrival (zero for fewer than two
    /// requests).
    pub fn span(&self) -> SimDuration {
        match (self.first_arrival(), self.last_arrival()) {
            (Some(first), Some(last)) => last - first,
            _ => SimDuration::ZERO,
        }
    }

    /// Mean arrival rate in IOPS over the workload's span, or zero when the
    /// span is empty.
    pub fn mean_iops(&self) -> f64 {
        let secs = self.span().as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.len() as f64 / secs
        }
    }

    /// Groups requests sharing an arrival instant into the paper's
    /// `(a_i, n_i)` pairs, in time order.
    pub fn arrival_counts(&self) -> ArrivalCounts<'_> {
        ArrivalCounts {
            rest: &self.requests,
        }
    }

    /// A copy of this workload with every arrival shifted later by `offset`
    /// (the `Shift-1s` / `Shift-100s` operation of Figure 7).
    pub fn shifted(&self, offset: SimDuration) -> Workload {
        let shifted = self.requests.iter().map(|r| Request {
            arrival: r.arrival + offset,
            ..*r
        });
        Workload::from_sorted(shifted.collect())
    }

    /// A copy with arrivals compressed (`factor < 1`) or dilated
    /// (`factor > 1`) in time around time zero. Request count is preserved;
    /// the mean rate scales by `1/factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and strictly positive.
    pub fn time_scaled(&self, factor: f64) -> Workload {
        assert!(
            factor.is_finite() && factor > 0.0,
            "invalid time scale factor: {factor}"
        );
        let scaled = self.requests.iter().map(|r| Request {
            arrival: SimTime::from_secs_f64(r.arrival.as_secs_f64() * factor),
            ..*r
        });
        // Scaling by a positive factor preserves order.
        Workload::from_sorted(scaled.collect())
    }

    /// Merges this workload with another, interleaving by arrival time
    /// (multiplexing two clients onto one server).
    pub fn merged(&self, other: &Workload) -> Workload {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut a, mut b) = (self.iter().peekable(), other.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => {
                    if x.arrival <= y.arrival {
                        out.push(*a.next().expect("peeked"));
                    } else {
                        out.push(*b.next().expect("peeked"));
                    }
                }
                (Some(_), None) => out.extend(a.by_ref().copied()),
                (None, Some(_)) => out.extend(b.by_ref().copied()),
                (None, None) => break,
            }
        }
        Workload::from_sorted(out)
    }

    /// The sub-workload with arrivals in `[start, end)`, re-identified.
    pub fn window(&self, start: SimTime, end: SimTime) -> Workload {
        let lo = self.requests.partition_point(|r| r.arrival < start);
        let hi = self.requests.partition_point(|r| r.arrival < end);
        Workload::from_sorted(self.requests[lo..hi].to_vec())
    }

    /// The first `n` requests as a new workload.
    pub fn truncated(&self, n: usize) -> Workload {
        Workload::from_sorted(self.requests[..n.min(self.len())].to_vec())
    }

    /// Number of requests arriving at or before `t` — the cumulative arrival
    /// curve `A(t)`.
    pub fn arrivals_by(&self, t: SimTime) -> u64 {
        self.requests.partition_point(|r| r.arrival <= t) as u64
    }

    /// A random subsample keeping each request independently with
    /// probability `keep`, deterministic in `seed`. Thinning a Poisson-like
    /// stream scales its rate without changing its character.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is outside `[0, 1]`.
    pub fn thinned(&self, keep: f64, seed: u64) -> Workload {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        assert!(
            (0.0..=1.0).contains(&keep),
            "keep probability must be in [0, 1]: {keep}"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let kept = self.requests.iter().filter(|_| rng.gen_bool(keep)).copied();
        Workload::from_sorted(kept.collect())
    }
}

impl FromIterator<Request> for Workload {
    fn from_iter<I: IntoIterator<Item = Request>>(iter: I) -> Self {
        Workload::from_requests(iter)
    }
}

impl Extend<Request> for Workload {
    fn extend<I: IntoIterator<Item = Request>>(&mut self, iter: I) {
        self.requests.extend(iter);
        self.requests.sort_by_key(|r| r.arrival);
        for (i, r) in self.requests.iter_mut().enumerate() {
            r.id = RequestId::new(i as u64);
        }
        // The requests changed: drop the memoised column. A fresh cell (not
        // a clear-in-place) so clones sharing the old Arc keep their still
        // valid view of the pre-extend workload.
        self.column = Arc::default();
    }
}

impl<'a> IntoIterator for &'a Workload {
    type Item = &'a Request;
    type IntoIter = slice::Iter<'a, Request>;
    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter()
    }
}

impl IntoIterator for Workload {
    type Item = Request;
    type IntoIter = std::vec::IntoIter<Request>;
    fn into_iter(self) -> Self::IntoIter {
        self.requests.into_iter()
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "workload of {} requests over {} ({:.1} IOPS mean)",
            self.len(),
            self.span(),
            self.mean_iops()
        )
    }
}

/// Iterator over `(arrival instant, request count)` pairs of a [`Workload`].
///
/// Produced by [`Workload::arrival_counts`].
#[derive(Clone, Debug)]
pub struct ArrivalCounts<'a> {
    rest: &'a [Request],
}

impl Iterator for ArrivalCounts<'_> {
    type Item = (SimTime, u64);

    fn next(&mut self) -> Option<Self::Item> {
        let first = self.rest.first()?;
        let n = self
            .rest
            .iter()
            .take_while(|r| r.arrival == first.arrival)
            .count();
        self.rest = &self.rest[n..];
        Some((first.arrival, n as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::LogicalBlock;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn from_arrivals_sorts_and_ids_are_dense() {
        let w = Workload::from_arrivals([ms(5), ms(1), ms(3)]);
        let times: Vec<_> = w.iter().map(|r| r.arrival).collect();
        assert_eq!(times, vec![ms(1), ms(3), ms(5)]);
        for (i, r) in w.iter().enumerate() {
            assert_eq!(r.id.as_usize(), i);
        }
    }

    #[test]
    fn span_and_mean_rate() {
        let w = Workload::from_arrivals((0..=10).map(SimTime::from_secs));
        assert_eq!(w.span(), SimDuration::from_secs(10));
        assert!((w.mean_iops() - 1.1).abs() < 1e-9);
    }

    #[test]
    fn empty_workload_behaviour() {
        let w = Workload::new();
        assert!(w.is_empty());
        assert_eq!(w.span(), SimDuration::ZERO);
        assert_eq!(w.mean_iops(), 0.0);
        assert_eq!(w.first_arrival(), None);
        assert_eq!(w.arrival_counts().count(), 0);
    }

    #[test]
    fn arrival_counts_groups_ties() {
        let w = Workload::from_arrivals([ms(1), ms(1), ms(2), ms(5), ms(5), ms(5)]);
        let counts: Vec<_> = w.arrival_counts().collect();
        assert_eq!(counts, vec![(ms(1), 2), (ms(2), 1), (ms(5), 3)]);
    }

    #[test]
    fn shifted_moves_every_arrival() {
        let w = Workload::from_arrivals([ms(0), ms(10)]);
        let s = w.shifted(SimDuration::from_millis(100));
        assert_eq!(s.first_arrival(), Some(ms(100)));
        assert_eq!(s.last_arrival(), Some(ms(110)));
        assert_eq!(s.len(), w.len());
    }

    #[test]
    fn time_scaled_compresses() {
        let w = Workload::from_arrivals([ms(0), ms(100), ms(200)]);
        let fast = w.time_scaled(0.5);
        assert_eq!(fast.last_arrival(), Some(ms(100)));
        assert_eq!(fast.len(), 3);
        assert!((fast.mean_iops() - 2.0 * w.mean_iops()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid time scale")]
    fn time_scaled_rejects_zero() {
        let _ = Workload::new().time_scaled(0.0);
    }

    #[test]
    fn merged_interleaves_and_preserves_counts() {
        let a = Workload::from_arrivals([ms(1), ms(4)]);
        let b = Workload::from_arrivals([ms(2), ms(3), ms(9)]);
        let m = a.merged(&b);
        assert_eq!(m.len(), 5);
        let times: Vec<_> = m.iter().map(|r| r.arrival).collect();
        assert_eq!(times, vec![ms(1), ms(2), ms(3), ms(4), ms(9)]);
    }

    #[test]
    fn merged_with_empty_is_identity_on_times() {
        let a = Workload::from_arrivals([ms(1), ms(2)]);
        let m = a.merged(&Workload::new());
        assert_eq!(m.len(), 2);
        assert_eq!(m.requests()[0].arrival, ms(1));
    }

    #[test]
    fn window_selects_half_open_range() {
        let w = Workload::from_arrivals([ms(0), ms(5), ms(10), ms(15)]);
        let mid = w.window(ms(5), ms(15));
        let times: Vec<_> = mid.iter().map(|r| r.arrival).collect();
        assert_eq!(times, vec![ms(5), ms(10)]);
    }

    #[test]
    fn truncated_takes_prefix() {
        let w = Workload::from_arrivals([ms(0), ms(5), ms(10)]);
        assert_eq!(w.truncated(2).len(), 2);
        assert_eq!(w.truncated(99).len(), 3);
        assert_eq!(w.truncated(0).len(), 0);
    }

    #[test]
    fn arrivals_by_is_cumulative_curve() {
        let w = Workload::from_arrivals([ms(1), ms(1), ms(3)]);
        assert_eq!(w.arrivals_by(ms(0)), 0);
        assert_eq!(w.arrivals_by(ms(1)), 2);
        assert_eq!(w.arrivals_by(ms(2)), 2);
        assert_eq!(w.arrivals_by(ms(3)), 3);
        assert_eq!(w.arrivals_by(ms(1000)), 3);
    }

    #[test]
    fn extend_resorts_and_reassigns_ids() {
        let mut w = Workload::from_arrivals([ms(5)]);
        w.extend([Request::at(ms(1)).with_block(LogicalBlock::new(9))]);
        assert_eq!(w.requests()[0].arrival, ms(1));
        assert_eq!(w.requests()[0].block, LogicalBlock::new(9));
        assert_eq!(w.requests()[1].id.as_usize(), 1);
    }

    #[test]
    fn stable_sort_preserves_tie_order() {
        // Two requests at the same instant with distinct blocks: insertion
        // order must be kept so decomposition decisions are deterministic.
        let r1 = Request::at(ms(1)).with_block(LogicalBlock::new(1));
        let r2 = Request::at(ms(1)).with_block(LogicalBlock::new(2));
        let w = Workload::from_requests([r1, r2]);
        assert_eq!(w.requests()[0].block, LogicalBlock::new(1));
        assert_eq!(w.requests()[1].block, LogicalBlock::new(2));
    }

    #[test]
    fn display_mentions_count() {
        let w = Workload::from_arrivals([ms(0), ms(1)]);
        assert!(w.to_string().contains("2 requests"));
    }

    #[test]
    fn thinned_keeps_roughly_the_fraction() {
        let w = Workload::from_arrivals((0..10_000).map(ms));
        let half = w.thinned(0.5, 9);
        let frac = half.len() as f64 / w.len() as f64;
        assert!((frac - 0.5).abs() < 0.03, "kept {frac}");
        // Deterministic and order-preserving.
        assert_eq!(half, w.thinned(0.5, 9));
        assert!(half
            .requests()
            .windows(2)
            .all(|p| p[0].arrival <= p[1].arrival));
    }

    #[test]
    fn thinned_extremes() {
        let w = Workload::from_arrivals((0..100).map(ms));
        assert_eq!(w.thinned(1.0, 1).len(), 100);
        assert_eq!(w.thinned(0.0, 1).len(), 0);
    }

    #[test]
    #[should_panic(expected = "keep probability")]
    fn thinned_validates_probability() {
        let _ = Workload::new().thinned(1.5, 0);
    }

    #[test]
    fn arrival_column_is_cached_and_shared_by_clones() {
        let w = Workload::from_arrivals([ms(1), ms(4), ms(9)]);
        let first = w.arrival_column() as *const _;
        let again = w.arrival_column() as *const _;
        assert_eq!(first, again, "column must be computed once");
        assert_eq!(
            w.arrival_column().nanos(),
            &[1_000_000, 4_000_000, 9_000_000]
        );
        let clone = w.clone();
        assert_eq!(clone.arrival_column() as *const _, first, "clones share");
    }

    #[test]
    fn extend_invalidates_cached_views() {
        let mut w = Workload::from_arrivals([ms(5)]);
        assert_eq!(w.arrival_column().nanos(), &[5_000_000]);
        let snapshot = w.clone();
        w.extend([Request::at(ms(1))]);
        assert_eq!(w.arrival_column().nanos(), &[1_000_000, 5_000_000]);
        // The pre-extend clone still sees its own (valid) cached view.
        assert_eq!(snapshot.arrival_column().nanos(), &[5_000_000]);
    }

    #[test]
    fn equality_ignores_cache_state() {
        let a = Workload::from_arrivals([ms(1), ms(2)]);
        let b = Workload::from_arrivals([ms(1), ms(2)]);
        let _ = a.arrival_column(); // populate one side only
        assert_eq!(a, b);
    }
}
