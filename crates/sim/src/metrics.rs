//! Per-request latency records and response-time distributions.

use std::fmt;

use gqos_trace::{RequestId, SimDuration, SimTime};

use crate::scheduler::ServiceClass;

/// The lifecycle timestamps of one completed request.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct CompletionRecord {
    /// The request's id within its workload.
    pub id: RequestId,
    /// Class the request was served under.
    pub class: ServiceClass,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Instant the request was dispatched to a server.
    pub dispatched: SimTime,
    /// Instant service finished.
    pub completion: SimTime,
}

impl CompletionRecord {
    /// Total time in system: completion − arrival.
    pub fn response_time(&self) -> SimDuration {
        self.completion - self.arrival
    }

    /// Time spent queued before dispatch.
    pub fn queueing_time(&self) -> SimDuration {
        self.dispatched - self.arrival
    }

    /// Time spent in service: completion − dispatch. Under a fault-injected
    /// (modulated) server this is the *observed* service time, which a
    /// capacity estimator compares against the server's nominal one.
    pub fn service_time(&self) -> SimDuration {
        self.completion - self.dispatched
    }
}

/// The outcome of one simulation run.
///
/// Requests that were never dispatched (a shaping policy dropped or starved
/// them) appear in [`total_requests`](RunReport::total_requests) but have no
/// [`CompletionRecord`]; whole-workload fractions count them as misses.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    records: Vec<CompletionRecord>,
    total_requests: usize,
    end_time: SimTime,
}

impl RunReport {
    /// Assembles a report. `records` need not be sorted.
    pub fn new(records: Vec<CompletionRecord>, total_requests: usize, end_time: SimTime) -> Self {
        RunReport {
            records,
            total_requests,
            end_time,
        }
    }

    /// All completion records, in completion order.
    pub fn records(&self) -> &[CompletionRecord] {
        &self.records
    }

    /// Consumes the report, returning its completion records.
    pub fn into_records(self) -> Vec<CompletionRecord> {
        self.records
    }

    /// Number of requests offered to the scheduler.
    pub fn total_requests(&self) -> usize {
        self.total_requests
    }

    /// Number of requests that completed service.
    pub fn completed(&self) -> usize {
        self.records.len()
    }

    /// Requests offered but never completed (dropped by a shaping policy).
    pub fn unfinished(&self) -> usize {
        self.total_requests - self.records.len()
    }

    /// Instant of the last processed event.
    pub fn end_time(&self) -> SimTime {
        self.end_time
    }

    /// Response-time statistics over the whole workload; never-completed
    /// requests count toward the denominator (as deadline misses).
    pub fn stats(&self) -> ResponseStats {
        ResponseStats::from_times(
            self.records.iter().map(CompletionRecord::response_time),
            self.total_requests,
        )
    }

    /// Response-time statistics restricted to one service class. The
    /// denominator is the number of completions in that class.
    pub fn stats_for(&self, class: ServiceClass) -> ResponseStats {
        let times: Vec<SimDuration> = self
            .records
            .iter()
            .filter(|r| r.class == class)
            .map(CompletionRecord::response_time)
            .collect();
        let n = times.len();
        ResponseStats::from_times(times, n)
    }

    /// Number of completions in the given class.
    pub fn completed_in(&self, class: ServiceClass) -> usize {
        self.records.iter().filter(|r| r.class == class).count()
    }

    /// A mergeable latency sketch over all response times, for combining
    /// per-worker shards from parallel sweeps
    /// (`merge` of per-run sketches is exact — see
    /// [`gqos_obs::LatencySketch::merge`]).
    pub fn response_sketch(&self) -> gqos_obs::LatencySketch {
        let mut sketch = gqos_obs::LatencySketch::new();
        for r in &self.records {
            sketch.record(r.response_time().as_nanos());
        }
        sketch
    }

    /// A mergeable latency sketch over the response times of one class.
    pub fn response_sketch_for(&self, class: ServiceClass) -> gqos_obs::LatencySketch {
        let mut sketch = gqos_obs::LatencySketch::new();
        for r in self.records.iter().filter(|r| r.class == class) {
            sketch.record(r.response_time().as_nanos());
        }
        sketch
    }

    /// Number of completed requests in `class` whose response time exceeded
    /// `deadline` — the degradation experiments' "Q1 miss" counter.
    pub fn miss_count(&self, class: ServiceClass, deadline: SimDuration) -> usize {
        self.records
            .iter()
            .filter(|r| r.class == class && r.response_time() > deadline)
            .count()
    }

    /// Fraction of `class` completions missing `deadline`, in `[0, 1]`
    /// (0.0 when the class has no completions).
    pub fn miss_fraction(&self, class: ServiceClass, deadline: SimDuration) -> f64 {
        let total = self.completed_in(class);
        if total == 0 {
            0.0
        } else {
            self.miss_count(class, deadline) as f64 / total as f64
        }
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} requests completed by {}",
            self.completed(),
            self.total_requests(),
            self.end_time
        )
    }
}

/// An empirical response-time distribution.
///
/// # Examples
///
/// ```
/// use gqos_sim::ResponseStats;
/// use gqos_trace::SimDuration;
///
/// let stats = ResponseStats::from_times(
///     (1..=100).map(SimDuration::from_millis),
///     100,
/// );
/// assert_eq!(stats.fraction_within(SimDuration::from_millis(50)), 0.5);
/// assert_eq!(stats.percentile(0.99), SimDuration::from_millis(99));
/// ```
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ResponseStats {
    sorted: Vec<SimDuration>,
    denominator: usize,
}

impl ResponseStats {
    /// Builds statistics from response times. `denominator` is the
    /// population size for fractional metrics; it must be at least the
    /// number of samples (missing samples are treated as unbounded
    /// response times).
    ///
    /// # Panics
    ///
    /// Panics if `denominator` is smaller than the sample count.
    pub fn from_times<I>(times: I, denominator: usize) -> Self
    where
        I: IntoIterator<Item = SimDuration>,
    {
        let mut sorted: Vec<SimDuration> = times.into_iter().collect();
        assert!(
            denominator >= sorted.len(),
            "denominator {} smaller than sample count {}",
            denominator,
            sorted.len()
        );
        sorted.sort_unstable();
        ResponseStats {
            sorted,
            denominator,
        }
    }

    /// Number of observed samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if no samples were observed.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of the population with response time ≤ `bound`, in `[0, 1]`.
    /// Returns zero for an empty population.
    pub fn fraction_within(&self, bound: SimDuration) -> f64 {
        if self.denominator == 0 {
            return 0.0;
        }
        let within = self.sorted.partition_point(|&t| t <= bound);
        within as f64 / self.denominator as f64
    }

    /// The smallest observed response time.
    pub fn min(&self) -> Option<SimDuration> {
        self.sorted.first().copied()
    }

    /// The largest observed response time.
    pub fn max(&self) -> Option<SimDuration> {
        self.sorted.last().copied()
    }

    /// Mean of the observed response times.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.sorted.is_empty() {
            return None;
        }
        let total: u128 = self.sorted.iter().map(|t| t.as_nanos() as u128).sum();
        Some(SimDuration::from_nanos(
            (total / self.sorted.len() as u128) as u64,
        ))
    }

    /// The `p`-quantile of observed samples (`p` in `[0, 1]`), using the
    /// exact integer nearest rank, [`gqos_obs::nearest_rank`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or no samples exist.
    pub fn percentile(&self, p: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&p), "percentile out of range: {p}");
        assert!(!self.sorted.is_empty(), "no samples");
        let rank = gqos_obs::nearest_rank(p, self.sorted.len() as u64);
        self.sorted[rank as usize - 1]
    }

    /// Fractions of the population falling into the buckets
    /// `(≤ edges[0]], (edges[0], edges[1]], …, (edges.last(), ∞)`.
    /// The returned vector has `edges.len() + 1` entries; never-completed
    /// requests land in the final bucket.
    ///
    /// This matches the paper's Figure 6 presentation
    /// (≤50 / ≤100 / ≤500 / ≤1000 / >1000 ms).
    ///
    /// # Panics
    ///
    /// Panics if `edges` is not strictly increasing.
    pub fn bucket_fractions(&self, edges: &[SimDuration]) -> Vec<f64> {
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "bucket edges must be strictly increasing"
        );
        let mut out = Vec::with_capacity(edges.len() + 1);
        if self.denominator == 0 {
            out.resize(edges.len() + 1, 0.0);
            return out;
        }
        let mut prev = 0usize;
        for &edge in edges {
            let upto = self.sorted.partition_point(|&t| t <= edge);
            out.push((upto - prev) as f64 / self.denominator as f64);
            prev = upto;
        }
        out.push((self.denominator - prev) as f64 / self.denominator as f64);
        out
    }

    /// `(bound, cumulative fraction)` pairs at each distinct observed
    /// response time — the empirical CDF (relative to the population
    /// denominator).
    pub fn cdf(&self) -> Vec<(SimDuration, f64)> {
        let mut out: Vec<(SimDuration, f64)> = Vec::new();
        if self.denominator == 0 {
            return out;
        }
        for (i, &t) in self.sorted.iter().enumerate() {
            let frac = (i + 1) as f64 / self.denominator as f64;
            match out.last_mut() {
                Some(last) if last.0 == t => last.1 = frac,
                _ => out.push((t, frac)),
            }
        }
        out
    }
}

impl fmt::Display for ResponseStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "no samples ({} in population)", self.denominator);
        }
        write!(
            f,
            "{} samples: mean {}, max {}",
            self.len(),
            self.mean().expect("non-empty"),
            self.max().expect("non-empty"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn record(arr_ms: u64, disp_ms: u64, comp_ms: u64, class: ServiceClass) -> CompletionRecord {
        CompletionRecord {
            id: RequestId::new(0),
            class,
            arrival: SimTime::from_millis(arr_ms),
            dispatched: SimTime::from_millis(disp_ms),
            completion: SimTime::from_millis(comp_ms),
        }
    }

    #[test]
    fn record_times() {
        let r = record(10, 15, 25, ServiceClass::PRIMARY);
        assert_eq!(r.response_time(), ms(15));
        assert_eq!(r.queueing_time(), ms(5));
        assert_eq!(r.service_time(), ms(10));
    }

    #[test]
    fn miss_counts_per_class() {
        let report = RunReport::new(
            vec![
                record(0, 0, 5, ServiceClass::PRIMARY),
                record(0, 0, 30, ServiceClass::PRIMARY),
                record(0, 0, 100, ServiceClass::OVERFLOW),
            ],
            3,
            SimTime::from_millis(100),
        );
        let d = ms(20);
        assert_eq!(report.miss_count(ServiceClass::PRIMARY, d), 1);
        assert_eq!(report.miss_count(ServiceClass::OVERFLOW, d), 1);
        assert!((report.miss_fraction(ServiceClass::PRIMARY, d) - 0.5).abs() < 1e-12);
        assert_eq!(report.miss_fraction(ServiceClass::new(7), d), 0.0);
    }

    #[test]
    fn report_counts_unfinished() {
        let report = RunReport::new(
            vec![record(0, 0, 10, ServiceClass::PRIMARY)],
            3,
            SimTime::from_millis(10),
        );
        assert_eq!(report.completed(), 1);
        assert_eq!(report.unfinished(), 2);
        assert_eq!(report.total_requests(), 3);
        // 1 of 3 within 10 ms; the unfinished two count as misses.
        assert!((report.stats().fraction_within(ms(10)) - 1.0 / 3.0).abs() < 1e-12);
        assert!(report.to_string().contains("1/3"));
    }

    #[test]
    fn per_class_stats_split() {
        let report = RunReport::new(
            vec![
                record(0, 0, 5, ServiceClass::PRIMARY),
                record(0, 0, 100, ServiceClass::OVERFLOW),
                record(0, 0, 7, ServiceClass::PRIMARY),
            ],
            3,
            SimTime::from_millis(100),
        );
        assert_eq!(report.completed_in(ServiceClass::PRIMARY), 2);
        assert_eq!(report.completed_in(ServiceClass::OVERFLOW), 1);
        let p = report.stats_for(ServiceClass::PRIMARY);
        assert_eq!(p.max(), Some(ms(7)));
        let o = report.stats_for(ServiceClass::OVERFLOW);
        assert_eq!(o.min(), Some(ms(100)));
    }

    #[test]
    fn fraction_within_is_right_continuous() {
        let s = ResponseStats::from_times([ms(10), ms(20)], 2);
        assert_eq!(s.fraction_within(ms(9)), 0.0);
        assert_eq!(s.fraction_within(ms(10)), 0.5);
        assert_eq!(s.fraction_within(ms(20)), 1.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let s = ResponseStats::from_times((1..=10).map(ms), 10);
        assert_eq!(s.percentile(0.0), ms(1));
        assert_eq!(s.percentile(0.5), ms(5));
        assert_eq!(s.percentile(0.95), ms(10));
        assert_eq!(s.percentile(1.0), ms(10));
    }

    #[test]
    fn percentile_rank_is_exact_where_the_float_product_rounds_up() {
        // 0.28 · 25 is 7 exactly, but the f64 product is 7.000000000000001,
        // whose ceiling would pick the 8th sample.
        let s = ResponseStats::from_times((1..=25).map(ms), 25);
        assert_eq!(s.percentile(0.28), ms(7));
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_validates_range() {
        let s = ResponseStats::from_times([ms(1)], 1);
        let _ = s.percentile(1.5);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn percentile_requires_samples() {
        let s = ResponseStats::from_times([], 0);
        let _ = s.percentile(0.5);
    }

    #[test]
    fn mean_min_max() {
        let s = ResponseStats::from_times([ms(10), ms(20), ms(30)], 3);
        assert_eq!(s.mean(), Some(ms(20)));
        assert_eq!(s.min(), Some(ms(10)));
        assert_eq!(s.max(), Some(ms(30)));
        let empty = ResponseStats::from_times([], 0);
        assert_eq!(empty.mean(), None);
        assert!(empty.is_empty());
        assert!(empty.to_string().contains("no samples"));
    }

    #[test]
    fn bucket_fractions_match_figure6_shape() {
        // 4 samples + 1 unfinished: 10, 60, 400, 2000 ms of 5 total.
        let s = ResponseStats::from_times([ms(10), ms(60), ms(400), ms(2000)], 5);
        let edges = [ms(50), ms(100), ms(500), ms(1000)];
        let f = s.bucket_fractions(&edges);
        assert_eq!(f.len(), 5);
        assert_eq!(f, vec![0.2, 0.2, 0.2, 0.0, 0.4]);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bucket_edges_validated() {
        let s = ResponseStats::from_times([ms(1)], 1);
        let _ = s.bucket_fractions(&[ms(10), ms(10)]);
    }

    #[test]
    fn cdf_collapses_duplicates() {
        let s = ResponseStats::from_times([ms(5), ms(5), ms(9)], 3);
        let cdf = s.cdf();
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf[0].0, ms(5));
        assert!((cdf[0].1 - 2.0 / 3.0).abs() < 1e-12);
        assert!((cdf[1].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_with_unfinished_population_stays_below_one() {
        let s = ResponseStats::from_times([ms(5)], 2);
        let cdf = s.cdf();
        assert_eq!(cdf.len(), 1);
        assert!((cdf[0].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn denominator_must_cover_samples() {
        let _ = ResponseStats::from_times([ms(1), ms(2)], 1);
    }

    #[test]
    fn empty_bucket_fractions() {
        let s = ResponseStats::from_times([], 0);
        assert_eq!(s.bucket_fractions(&[ms(10)]), vec![0.0, 0.0]);
        assert!(s.cdf().is_empty());
        assert_eq!(s.fraction_within(ms(1)), 0.0);
    }
}
