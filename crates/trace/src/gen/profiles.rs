//! Calibrated stand-ins for the paper's evaluation traces.
//!
//! The ICDCS 2009 evaluation uses three proprietary block-level traces:
//!
//! - **WebSearch** (UMass): user search I/O — a high, fairly steady rate
//!   with moderate bursts.
//! - **FinTrans** (UMass): OLTP at two financial institutions — a low
//!   average rate punctuated by extreme short spikes.
//! - **OpenMail** (HP Labs): busy e-mail servers — a high average rate with
//!   long, heavy bursts (the paper reports ≈534 IOPS average vs ≈4440 IOPS
//!   peak in 100 ms windows).
//!
//! The real traces are not redistributable, so these profiles synthesise
//! arrival processes matching the published statistics and — more
//! importantly — the *shape* of the capacity/QoS trade-off each trace
//! induces (Table 1's sharp knee between the 90% and 100% columns).
//!
//! Each profile is a **base process** (Poisson or MMPP, the well-behaved
//! majority) merged with **spike layers**: independent ON/OFF processes of
//! increasing rate and decreasing duty cycle. Layer `k` holds a small,
//! known share of the total requests, so relaxing the guaranteed fraction
//! `f` progressively exempts the taller layers — which is precisely the
//! graduated-capacity structure of the paper's Table 1. The constants of
//! the three generators behind [`TraceProfile::generate`] were tuned
//! against the paper's capacity ratios (see EXPERIMENTS.md).

use std::fmt;

use super::{batch_arrivals, ArrivalProcess, MmppState, OnOffGen, PacedGen};
use crate::time::SimDuration;
use crate::workload::Workload;

/// One spike layer: an ON/OFF burst process riding on the base traffic.
#[derive(Copy, Clone, PartialEq, Debug)]
struct SpikeLayer {
    /// Arrival rate while the layer is ON, in IOPS.
    rate: f64,
    /// Pareto minimum ON duration (seconds).
    on_scale_s: f64,
    /// Pareto tail index of the ON duration.
    on_shape: f64,
    /// Mean exponential OFF duration (seconds).
    mean_off_s: f64,
    /// Cap on one ON period (seconds).
    max_on_s: f64,
}

fn spike(rate: f64, on_scale_s: f64, on_shape: f64, mean_off_s: f64, max_on_s: f64) -> SpikeLayer {
    SpikeLayer {
        rate,
        on_scale_s,
        on_shape,
        mean_off_s,
        max_on_s,
    }
}

/// Merges a base workload with spike layers, deriving per-layer seeds.
fn compose(base: Workload, layers: &[SpikeLayer], span: SimDuration, seed: u64) -> Workload {
    let mut workload = base;
    for (i, layer) in layers.iter().enumerate() {
        let layer_seed = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x1000 + i as u64);
        let mut gen = OnOffGen::builder(0.0, layer.rate)
            .mean_off(SimDuration::from_secs_f64(layer.mean_off_s))
            .on_pareto(layer.on_shape, SimDuration::from_secs_f64(layer.on_scale_s))
            .max_on(SimDuration::from_secs_f64(layer.max_on_s))
            .seed(layer_seed)
            .build();
        workload = workload.merged(&gen.generate(span));
    }
    workload
}

/// Builds a profile base: a slow MMPP (plateau levels holding for minutes,
/// so consolidation shifts of 1–100 s leave a workload aligned with its
/// shifted self, as real busy-hour traces are) whose arrivals are then
/// clumped into small batches (block traces are clumpy at millisecond
/// scale: one logical operation issues several block requests).
fn plateau_base(states: Vec<MmppState>, mean_batch: f64, span: SimDuration, seed: u64) -> Workload {
    let mut gen = PacedGen::new(states, 0.4, seed);
    let events = gen.generate(span);
    batch_arrivals(
        &events,
        mean_batch,
        SimDuration::from_millis(2),
        seed.wrapping_add(0x5eed),
    )
}

/// The three evaluation workloads of the paper.
///
/// # Examples
///
/// ```
/// use gqos_trace::gen::profiles::TraceProfile;
/// use gqos_trace::SimDuration;
///
/// let w = TraceProfile::FinTrans.generate(SimDuration::from_secs(60), 1);
/// assert!(!w.is_empty());
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum TraceProfile {
    /// UMass web search engine stand-in (`WS` in the paper's tables).
    WebSearch,
    /// UMass financial OLTP stand-in (`FT`).
    FinTrans,
    /// HP OpenMail stand-in (`OM`).
    OpenMail,
}

impl TraceProfile {
    /// All profiles in the order the paper tabulates them.
    pub const ALL: [TraceProfile; 3] = [
        TraceProfile::WebSearch,
        TraceProfile::FinTrans,
        TraceProfile::OpenMail,
    ];

    /// The paper's abbreviation: `WS`, `FT`, or `OM`.
    pub fn abbrev(self) -> &'static str {
        match self {
            TraceProfile::WebSearch => "WS",
            TraceProfile::FinTrans => "FT",
            TraceProfile::OpenMail => "OM",
        }
    }

    /// Generates the profile's workload over `span` with the given seed.
    pub fn generate(self, span: SimDuration, seed: u64) -> Workload {
        match self {
            TraceProfile::WebSearch => websearch_with(span, seed),
            TraceProfile::FinTrans => fintrans_with(span, seed),
            TraceProfile::OpenMail => openmail_with(span, seed),
        }
    }
}

impl fmt::Display for TraceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceProfile::WebSearch => f.write_str("WebSearch"),
            TraceProfile::FinTrans => f.write_str("FinTrans"),
            TraceProfile::OpenMail => f.write_str("OpenMail"),
        }
    }
}

/// WebSearch stand-in: a steady two-level MMPP base (most of the traffic)
/// with moderate spike layers — the least bursty of the three traces.
fn websearch_with(span: SimDuration, seed: u64) -> Workload {
    let base = plateau_base(
        vec![
            MmppState::new(240.0, SimDuration::from_secs(250)), // ~312 IOPS batched
            MmppState::new(335.0, SimDuration::from_secs(180)), // ~436 IOPS batched
        ],
        1.3,
        span,
        seed.wrapping_mul(0x9e37_79b9).wrapping_add(1),
    );
    let layers = [
        // rate, on_scale, on_shape, mean_off, max_on
        spike(650.0, 0.05, 2.0, 30.0, 0.5),
        spike(1000.0, 0.03, 2.2, 60.0, 0.15),
        spike(2200.0, 0.008, 2.5, 250.0, 0.025),
    ];
    compose(base, &layers, span, seed)
}

/// FinTrans stand-in: low steady OLTP traffic with rare, extreme
/// transaction bursts — the most burst-dominated workload relative to its
/// mean (full guarantees cost ≈7.5× the 90% capacity at δ = 5 ms in the
/// paper).
fn fintrans_with(span: SimDuration, seed: u64) -> Workload {
    let base = plateau_base(
        vec![
            // FinTrans has no sustained plateau (its 50 ms capacity sits at
            // the mean): the 10 ms headroom comes from millisecond clumps.
            MmppState::new(78.0, SimDuration::from_secs(60)),
        ],
        1.3,
        span,
        seed.wrapping_mul(0x9e37_79b9).wrapping_add(2),
    );
    let layers = [
        spike(240.0, 0.08, 1.7, 13.0, 0.8),
        spike(420.0, 0.03, 2.0, 60.0, 0.15),
        // The extreme layer must be able to fill a 100 ms stats window with
        // several times the ~105 IOPS composite mean on its own (the paper's
        // FT peaks sit an order of magnitude over the base), so its
        // one-window burst budget (rate x max_on) stays well above 5x the
        // mean rather than relying on chance overlap with the other layers.
        spike(4200.0, 0.010, 2.5, 300.0, 0.04),
    ];
    compose(base, &layers, span, seed)
}

/// OpenMail stand-in: high mail-server traffic whose base is itself uneven,
/// plus long heavy delivery bursts — the burstiest workload in absolute
/// terms (≈534 IOPS mean with ≈4440 IOPS peaks in the paper).
fn openmail_with(span: SimDuration, seed: u64) -> Workload {
    let base = plateau_base(
        vec![
            MmppState::new(165.0, SimDuration::from_secs(300)), // ~330 IOPS batched
            MmppState::new(500.0, SimDuration::from_secs(180)), // ~1000 IOPS batched
        ],
        2.0,
        span,
        seed.wrapping_mul(0x9e37_79b9).wrapping_add(3),
    );
    let layers = [
        spike(1800.0, 0.10, 1.8, 18.0, 0.8),
        spike(3200.0, 0.05, 2.0, 45.0, 0.3),
        spike(5500.0, 0.02, 2.2, 150.0, 0.08),
        spike(9500.0, 0.008, 2.5, 400.0, 0.03),
    ];
    compose(base, &layers, span, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::TraceSummary;
    use crate::window::RateSeries;

    // Profiles modulate on 1–5 minute timescales, so statistics need the
    // experiments' default 1200 s span to be representative.
    const SPAN: SimDuration = SimDuration::from_secs(1200);
    const SHORT: SimDuration = SimDuration::from_secs(120);

    fn stats(w: &Workload) -> TraceSummary {
        TraceSummary::new(w, SimDuration::from_millis(100))
    }

    #[test]
    fn profiles_are_deterministic() {
        for p in TraceProfile::ALL {
            assert_eq!(p.generate(SHORT, 7), p.generate(SHORT, 7), "{p}");
        }
    }

    #[test]
    fn profiles_differ_across_seeds() {
        for p in TraceProfile::ALL {
            assert_ne!(p.generate(SHORT, 1), p.generate(SHORT, 2), "{p}");
        }
    }

    #[test]
    fn websearch_mean_rate_in_range() {
        let mean = websearch_with(SPAN, 3).mean_iops();
        assert!((250.0..550.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn fintrans_mean_rate_in_range() {
        let mean = fintrans_with(SPAN, 3).mean_iops();
        assert!((70.0..230.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn openmail_mean_rate_in_range() {
        let mean = openmail_with(SPAN, 3).mean_iops();
        assert!((330.0..900.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn all_profiles_are_bursty() {
        for p in TraceProfile::ALL {
            let w = p.generate(SPAN, 11);
            let s = stats(&w);
            // Every profile's 100 ms peaks dwarf its mean (the paper's
            // tail-wagging premise).
            assert!(
                s.peak_to_mean() > 2.5,
                "{p}: peak/mean {}",
                s.peak_to_mean()
            );
        }
    }

    #[test]
    fn fintrans_spikes_dwarf_its_base() {
        // FinTrans's defining trait: its extreme spikes tower over its tiny
        // base rate (peak windows more than 5x the mean).
        let ft = stats(&fintrans_with(SPAN, 5)).peak_to_mean();
        assert!(ft > 5.0, "FT peak/mean {ft}");
    }

    #[test]
    fn openmail_has_highest_mean_rate() {
        let om = openmail_with(SPAN, 9).mean_iops();
        let ws = websearch_with(SPAN, 9).mean_iops();
        let ft = fintrans_with(SPAN, 9).mean_iops();
        assert!(om > ws && om > ft, "OM {om}, WS {ws}, FT {ft}");
    }

    #[test]
    fn spikes_are_a_minority_of_requests() {
        // The defining property for Table 1's knee: the tall spikes hold a
        // small share of requests, so exempting ~10% removes the bursts.
        // Windows above 3x the mean (above any sustained plateau) hold well
        // under 15% of requests.
        for p in TraceProfile::ALL {
            let w = p.generate(SPAN, 13);
            let series = RateSeries::new(&w, SimDuration::from_millis(100));
            let mean = series.mean_iops();
            let in_bursts: u64 = series
                .counts()
                .iter()
                .filter(|&&c| c as f64 / 0.1 > 3.0 * mean)
                .sum();
            let share = in_bursts as f64 / w.len() as f64;
            assert!(share < 0.15, "{p}: burst share {share:.2}");
        }
    }

    #[test]
    fn abbreviations_and_display() {
        assert_eq!(TraceProfile::WebSearch.abbrev(), "WS");
        assert_eq!(TraceProfile::FinTrans.abbrev(), "FT");
        assert_eq!(TraceProfile::OpenMail.abbrev(), "OM");
        assert_eq!(TraceProfile::OpenMail.to_string(), "OpenMail");
    }
}
