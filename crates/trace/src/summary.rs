//! One-look characterisation of a workload.

use std::fmt;

use crate::request::RequestKind;
use crate::stats::{autocorrelation, hurst_exponent, index_of_dispersion};
use crate::time::{SimDuration, SimTime};
use crate::window::RateSeries;
use crate::workload::Workload;

/// A full statistical profile of a workload: the numbers a provider looks
/// at before quoting an SLA.
///
/// # Examples
///
/// ```
/// use gqos_trace::{SimDuration, SimTime, TraceSummary, Workload};
///
/// let w = Workload::from_arrivals((0..200).map(|i| SimTime::from_millis(i * 5)));
/// let s = TraceSummary::new(&w, SimDuration::from_millis(100));
/// assert_eq!(s.requests(), 200);
/// assert!((s.mean_iops() - 200.0).abs() < 5.0);
/// assert!(s.peak_to_mean() < 1.2); // perfectly even
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct TraceSummary {
    requests: usize,
    span: SimDuration,
    first_arrival: Option<SimTime>,
    mean_iops: f64,
    peak_iops: f64,
    window: SimDuration,
    index_of_dispersion: f64,
    lag1_autocorrelation: f64,
    hurst: Option<f64>,
    read_fraction: f64,
    mean_bytes: f64,
}

impl TraceSummary {
    /// Profiles `workload` using rate windows of width `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(workload: &Workload, window: SimDuration) -> Self {
        let series = RateSeries::new(workload, window);
        let reads = workload
            .iter()
            .filter(|r| r.kind == RequestKind::Read)
            .count();
        let total_bytes: u64 = workload.iter().map(|r| r.bytes as u64).sum();
        let n = workload.len();
        TraceSummary {
            requests: n,
            span: workload.span(),
            first_arrival: workload.first_arrival(),
            mean_iops: series.mean_iops(),
            peak_iops: series.peak_iops(),
            window,
            index_of_dispersion: index_of_dispersion(series.counts()),
            lag1_autocorrelation: autocorrelation(series.counts(), 1),
            hurst: hurst_exponent(series.counts()),
            read_fraction: if n == 0 { 0.0 } else { reads as f64 / n as f64 },
            mean_bytes: if n == 0 {
                0.0
            } else {
                total_bytes as f64 / n as f64
            },
        }
    }

    /// Total requests.
    pub fn requests(&self) -> usize {
        self.requests
    }

    /// Time between first and last arrival.
    pub fn span(&self) -> SimDuration {
        self.span
    }

    /// First arrival instant, if any.
    pub fn first_arrival(&self) -> Option<SimTime> {
        self.first_arrival
    }

    /// Mean windowed arrival rate in IOPS.
    pub fn mean_iops(&self) -> f64 {
        self.mean_iops
    }

    /// Peak windowed arrival rate in IOPS.
    pub fn peak_iops(&self) -> f64 {
        self.peak_iops
    }

    /// The window width the rates were computed over.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Peak/mean rate ratio (0.0 for an empty workload).
    pub fn peak_to_mean(&self) -> f64 {
        if self.mean_iops == 0.0 {
            0.0
        } else {
            self.peak_iops / self.mean_iops
        }
    }

    /// Index of dispersion for window counts.
    pub fn index_of_dispersion(&self) -> f64 {
        self.index_of_dispersion
    }

    /// Lag-1 autocorrelation of window counts.
    pub fn lag1_autocorrelation(&self) -> f64 {
        self.lag1_autocorrelation
    }

    /// Hurst exponent estimate (R/S), when the series is long enough.
    pub fn hurst(&self) -> Option<f64> {
        self.hurst
    }

    /// Fraction of read requests.
    pub fn read_fraction(&self) -> f64 {
        self.read_fraction
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} requests over {} ({:.1}% reads, {:.0} B mean)",
            self.requests,
            self.span,
            self.read_fraction * 100.0,
            self.mean_bytes
        )?;
        write!(
            f,
            "rate: mean {:.1}, peak {:.1} IOPS (x{:.1}) in {} windows; IDC {:.2}, rho1 {:.2}, H {}",
            self.mean_iops,
            self.peak_iops,
            self.peak_to_mean(),
            self.window,
            self.index_of_dispersion,
            self.lag1_autocorrelation,
            self.hurst
                .map(|h| format!("{h:.2}"))
                .unwrap_or_else(|| "n/a".into()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{LogicalBlock, Request};

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn summary_of_even_stream() {
        let w = Workload::from_arrivals((0..300).map(|i| ms(i * 10)));
        let s = TraceSummary::new(&w, SimDuration::from_millis(100));
        assert_eq!(s.requests(), 300);
        assert!((s.mean_iops() - 100.0).abs() < 5.0);
        assert!(s.peak_to_mean() < 1.2);
        assert!(s.index_of_dispersion() < 0.2);
        assert_eq!(s.first_arrival(), Some(ms(0)));
        assert_eq!(s.window(), SimDuration::from_millis(100));
    }

    #[test]
    fn summary_of_bursty_stream() {
        let mut arrivals: Vec<SimTime> = (0..200).map(|i| ms(i * 10)).collect();
        arrivals.extend(vec![ms(1000); 100]);
        let w = Workload::from_arrivals(arrivals);
        let s = TraceSummary::new(&w, SimDuration::from_millis(100));
        assert!(s.peak_to_mean() > 4.0, "ratio {}", s.peak_to_mean());
        assert!(s.index_of_dispersion() > 5.0);
    }

    #[test]
    fn io_mix_fields() {
        let w = Workload::from_requests([
            Request::at(ms(0)).with_bytes(4096),
            Request::at(ms(1))
                .with_bytes(8192)
                .with_kind(RequestKind::Write)
                .with_block(LogicalBlock::new(5)),
        ]);
        let s = TraceSummary::new(&w, SimDuration::from_millis(10));
        assert_eq!(s.read_fraction(), 0.5);
        assert_eq!(s.mean_bytes, 6144.0);
    }

    #[test]
    fn empty_workload_summary() {
        let s = TraceSummary::new(&Workload::new(), SimDuration::from_millis(100));
        assert_eq!(s.requests(), 0);
        assert_eq!(s.mean_iops(), 0.0);
        assert_eq!(s.peak_to_mean(), 0.0);
        assert_eq!(s.read_fraction(), 0.0);
        assert_eq!(s.mean_bytes, 0.0);
        assert_eq!(s.first_arrival(), None);
        assert!(s.hurst().is_none());
    }

    #[test]
    fn display_is_two_lines() {
        let w = Workload::from_arrivals((0..50).map(|i| ms(i * 20)));
        let text = TraceSummary::new(&w, SimDuration::from_millis(100)).to_string();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("IDC"));
    }

    #[test]
    fn hurst_present_for_long_varying_series() {
        // A pseudo-randomly spread stream: window counts vary, so the R/S
        // estimate exists (a perfectly even stream has zero variance and
        // yields None).
        let w = Workload::from_arrivals((0..5000u64).map(|i| ms((i * 7919) % 20011)));
        let s = TraceSummary::new(&w, SimDuration::from_millis(100));
        assert!(s.hurst().is_some());
        assert!(s.lag1_autocorrelation().abs() <= 1.0);

        let even = Workload::from_arrivals((0..5000).map(|i| ms(i * 2)));
        let se = TraceSummary::new(&even, SimDuration::from_millis(100));
        assert!(se.hurst().is_none(), "zero-variance series has no estimate");
    }
}
