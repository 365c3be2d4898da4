//! Burstiness statistics for workloads.
//!
//! These metrics quantify the "tail wagging the server" phenomenon the paper
//! targets: how far the instantaneous arrival rate departs from the
//! long-term average, how correlated the bursts are in time, and where the
//! burst episodes sit on the timeline.

use std::fmt;

use crate::time::{SimDuration, SimTime};
use crate::window::RateSeries;

/// Variance-to-mean ratio of window counts. Returns zero for fewer than two
/// windows or a zero mean.
pub fn index_of_dispersion(counts: &[u64]) -> f64 {
    if counts.len() < 2 {
        return 0.0;
    }
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<u64>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / (n - 1.0);
    var / mean
}

/// Sample autocorrelation of window counts at the given lag.
///
/// Returns zero when the series is too short or has zero variance.
pub fn autocorrelation(counts: &[u64], lag: usize) -> f64 {
    if lag == 0 {
        return 1.0;
    }
    if counts.len() <= lag + 1 {
        return 0.0;
    }
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<u64>() as f64 / n;
    let var: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - mean;
            d * d
        })
        .sum();
    if var == 0.0 {
        return 0.0;
    }
    let cov: f64 = counts
        .windows(lag + 1)
        .map(|w| (w[0] as f64 - mean) * (w[lag] as f64 - mean))
        .sum();
    cov / var
}

/// Estimates the Hurst exponent of a count series by rescaled-range (R/S)
/// analysis. `H ≈ 0.5` indicates short-range dependence; `H > 0.7` indicates
/// the long-range dependence reported for storage traffic.
///
/// Returns `None` when the series is shorter than 16 windows.
pub fn hurst_exponent(counts: &[u64]) -> Option<f64> {
    const MIN_LEN: usize = 16;
    if counts.len() < MIN_LEN {
        return None;
    }
    // Compute R/S at a range of block sizes and fit log(R/S) ~ H log(n).
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut block = 8usize;
    while block <= counts.len() / 2 {
        let mut rs_values = Vec::new();
        for chunk in counts.chunks_exact(block) {
            if let Some(rs) = rescaled_range(chunk) {
                rs_values.push(rs);
            }
        }
        if !rs_values.is_empty() {
            let mean_rs = rs_values.iter().sum::<f64>() / rs_values.len() as f64;
            if mean_rs > 0.0 {
                xs.push((block as f64).ln());
                ys.push(mean_rs.ln());
            }
        }
        block *= 2;
    }
    if xs.len() < 2 {
        return None;
    }
    Some(slope(&xs, &ys))
}

fn rescaled_range(chunk: &[u64]) -> Option<f64> {
    let n = chunk.len() as f64;
    let mean = chunk.iter().sum::<u64>() as f64 / n;
    let mut cum = 0.0;
    let mut min_dev = f64::INFINITY;
    let mut max_dev = f64::NEG_INFINITY;
    let mut var = 0.0;
    for &c in chunk {
        let d = c as f64 - mean;
        cum += d;
        min_dev = min_dev.min(cum);
        max_dev = max_dev.max(cum);
        var += d * d;
    }
    let std = (var / n).sqrt();
    if std == 0.0 {
        return None;
    }
    Some((max_dev - min_dev) / std)
}

fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let num: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let den: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A contiguous run of windows whose rate exceeds a threshold.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct BurstEpisode {
    /// Start of the first over-threshold window.
    pub start: SimTime,
    /// Length of the episode.
    pub duration: SimDuration,
    /// Peak window rate within the episode, in IOPS.
    pub peak_iops: f64,
    /// Requests contained in the episode.
    pub requests: u64,
}

impl fmt::Display for BurstEpisode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "burst @{} for {} (peak {:.0} IOPS, {} requests)",
            self.start, self.duration, self.peak_iops, self.requests
        )
    }
}

/// Finds maximal runs of windows whose rate exceeds `threshold_factor` times
/// the series mean.
///
/// # Panics
///
/// Panics if `threshold_factor` is not finite and positive.
pub fn burst_episodes(series: &RateSeries, threshold_factor: f64) -> Vec<BurstEpisode> {
    assert!(
        threshold_factor.is_finite() && threshold_factor > 0.0,
        "invalid burst threshold factor: {threshold_factor}"
    );
    let threshold = series.mean_iops() * threshold_factor;
    let mut episodes = Vec::new();
    let mut current: Option<(usize, f64, u64)> = None; // (start idx, peak, reqs)
    for i in 0..series.len() {
        let rate = series.iops_at(i);
        if rate > threshold {
            let entry = current.get_or_insert((i, 0.0, 0));
            entry.1 = entry.1.max(rate);
            entry.2 += series.counts()[i];
        } else if let Some((start, peak, reqs)) = current.take() {
            episodes.push(BurstEpisode {
                start: series.window_start(start),
                duration: series.window() * (i - start) as u64,
                peak_iops: peak,
                requests: reqs,
            });
        }
    }
    if let Some((start, peak, reqs)) = current {
        episodes.push(BurstEpisode {
            start: series.window_start(start),
            duration: series.window() * (series.len() - start) as u64,
            peak_iops: peak,
            requests: reqs,
        });
    }
    episodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::workload::Workload;

    fn series_from_counts(counts: &[u64]) -> RateSeries {
        // One request per count in consecutive 100 ms windows.
        let window = SimDuration::from_millis(100);
        let mut arrivals = Vec::new();
        for (i, &n) in counts.iter().enumerate() {
            for j in 0..n {
                arrivals.push(SimTime::from_millis(i as u64 * 100) + SimDuration::from_micros(j));
            }
        }
        RateSeries::with_origin(&Workload::from_arrivals(arrivals), window, SimTime::ZERO)
    }

    #[test]
    fn index_of_dispersion_poissonish() {
        // Constant counts -> zero variance -> IDC 0.
        assert_eq!(index_of_dispersion(&[3, 3, 3, 3]), 0.0);
        // Alternating 0/2 -> mean 1, sample variance 4/3 -> IDC 4/3.
        let idc = index_of_dispersion(&[0, 2, 0, 2]);
        assert!((idc - 4.0 / 3.0).abs() < 1e-9, "idc {idc}");
    }

    #[test]
    fn index_of_dispersion_degenerate_inputs() {
        assert_eq!(index_of_dispersion(&[]), 0.0);
        assert_eq!(index_of_dispersion(&[7]), 0.0);
        assert_eq!(index_of_dispersion(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn autocorrelation_bounds_and_degenerates() {
        assert_eq!(autocorrelation(&[1, 2, 3], 0), 1.0);
        assert_eq!(autocorrelation(&[1, 2], 5), 0.0);
        assert_eq!(autocorrelation(&[4, 4, 4, 4], 1), 0.0);
    }

    #[test]
    fn autocorrelation_detects_persistence() {
        // Long alternating blocks -> strong positive lag-1 correlation.
        let mut counts = Vec::new();
        for block in 0..10 {
            let v = if block % 2 == 0 { 0 } else { 10 };
            counts.extend(std::iter::repeat_n(v, 20));
        }
        let rho = autocorrelation(&counts, 1);
        assert!(rho > 0.8, "rho {rho}");
        // Strictly alternating values -> strong negative correlation.
        let alt: Vec<u64> = (0..100).map(|i| if i % 2 == 0 { 0 } else { 10 }).collect();
        assert!(autocorrelation(&alt, 1) < -0.8);
    }

    #[test]
    fn hurst_of_short_series_is_none() {
        assert_eq!(hurst_exponent(&[1, 2, 3]), None);
    }

    #[test]
    fn hurst_of_alternating_series_is_low() {
        let alt: Vec<u64> = (0..512).map(|i| if i % 2 == 0 { 0 } else { 10 }).collect();
        let h = hurst_exponent(&alt).expect("long enough");
        assert!(h < 0.5, "H {h}");
    }

    #[test]
    fn hurst_of_persistent_series_exceeds_antipersistent() {
        // A smooth random-walk-like series (persistent) must score a higher
        // Hurst estimate than a strictly alternating (anti-persistent) one.
        let mut walk = Vec::new();
        let mut level: i64 = 50;
        let mut state: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..512 {
            // xorshift for a deterministic pseudo-random step
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            level += (state % 7) as i64 - 3;
            level = level.clamp(0, 1000);
            walk.push(level as u64);
        }
        let h_walk = hurst_exponent(&walk).expect("long enough");
        let alt: Vec<u64> = (0..512).map(|i| if i % 2 == 0 { 0 } else { 10 }).collect();
        let h_alt = hurst_exponent(&alt).expect("long enough");
        assert!(
            h_walk > h_alt + 0.2,
            "walk H {h_walk}, alternating H {h_alt}"
        );
        assert!(h_walk > 0.6, "walk H {h_walk}");
    }

    #[test]
    fn burst_episodes_found_and_merged() {
        // mean over 10 windows: (8*1 + 2*11)/10 = 3 IOPS => 30 IOPS per-window
        // rate mean... series_from_counts uses 100 ms windows, so rates are
        // counts*10. Episode threshold 2x mean catches the two 11-count
        // windows as one contiguous episode.
        let s = series_from_counts(&[1, 1, 1, 1, 11, 11, 1, 1, 1, 1]);
        let eps = burst_episodes(&s, 2.0);
        assert_eq!(eps.len(), 1);
        let e = eps[0];
        assert_eq!(e.start, SimTime::from_millis(400));
        assert_eq!(e.duration, SimDuration::from_millis(200));
        assert_eq!(e.requests, 22);
        assert!((e.peak_iops - 110.0).abs() < 1e-9);
        assert!(e.to_string().contains("burst @"));
    }

    #[test]
    fn burst_episode_at_series_end_is_closed() {
        let s = series_from_counts(&[1, 1, 1, 1, 1, 1, 1, 1, 30, 30]);
        let eps = burst_episodes(&s, 3.0);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].requests, 60);
    }

    #[test]
    fn no_bursts_in_flat_series() {
        let s = series_from_counts(&[2; 20]);
        assert!(burst_episodes(&s, 1.5).is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid burst threshold")]
    fn burst_threshold_validated() {
        let s = series_from_counts(&[1, 2]);
        let _ = burst_episodes(&s, f64::NAN);
    }
}
