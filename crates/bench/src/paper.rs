//! The paper's published reference numbers, for side-by-side reporting.
//!
//! Absolute values cannot be expected to match — the original traces are
//! proprietary and our profiles are synthetic stand-ins — but the *shape*
//! (ordering, knees, ratios) should reproduce. EXPERIMENTS.md records the
//! comparison for every table and figure.

use gqos_trace::gen::profiles::TraceProfile;

/// The guaranteed-fraction columns of Table 1.
pub const TABLE1_FRACTIONS: [f64; 6] = [0.90, 0.95, 0.99, 0.995, 0.999, 1.0];

/// The response-time rows of Table 1, in milliseconds.
pub const TABLE1_DEADLINES_MS: [u64; 4] = [5, 10, 20, 50];

/// Paper Table 1: capacity (IOPS) for `(workload, δ)` across the fraction
/// columns of [`TABLE1_FRACTIONS`].
pub fn table1_reference(profile: TraceProfile, deadline_ms: u64) -> Option<[u64; 6]> {
    use TraceProfile::*;
    let v = match (profile, deadline_ms) {
        (WebSearch, 5) => [590, 711, 960, 1055, 1310, 2325],
        (WebSearch, 10) => [410, 473, 603, 658, 786, 1538],
        (WebSearch, 20) => [345, 388, 462, 487, 540, 900],
        (WebSearch, 50) => [328, 363, 419, 437, 467, 533],
        (FinTrans, 5) => [400, 550, 600, 800, 1000, 3000],
        (FinTrans, 10) => [200, 299, 360, 400, 500, 1500],
        (FinTrans, 20) => [150, 168, 216, 236, 280, 750],
        (FinTrans, 50) => [119, 138, 172, 184, 209, 330],
        (OpenMail, 5) => [1350, 2000, 3950, 4800, 6600, 13990],
        (OpenMail, 10) => [1080, 1595, 2965, 3550, 4860, 9241],
        (OpenMail, 20) => [900, 1326, 2361, 2740, 3480, 5766],
        (OpenMail, 50) => [745, 1045, 1805, 2050, 2495, 3656],
        _ => return None,
    };
    Some(v)
}

/// Paper Figure 4: fraction of the *unpartitioned* workload meeting the
/// deadline under FCFS at `Cmin(90%, δ)`, per `(workload, δ ms)`.
pub fn fig4_fcfs_fraction(profile: TraceProfile, deadline_ms: u64) -> Option<f64> {
    use TraceProfile::*;
    let v = match (profile, deadline_ms) {
        (WebSearch, 10) => 0.54,
        (FinTrans, 10) => 0.64,
        (OpenMail, 10) => 0.71,
        (WebSearch, 20) => 0.08,
        (FinTrans, 20) => 0.57,
        (OpenMail, 20) => 0.66,
        (WebSearch, 50) => 0.05,
        (FinTrans, 50) => 0.29,
        (OpenMail, 50) => 0.55,
        _ => return None,
    };
    Some(v)
}

/// Paper Figure 5: FCFS fraction meeting 50 ms at `Cmin(f, 50 ms)` for
/// `f ∈ {95%, 99%}`.
pub fn fig5_fcfs_fraction(profile: TraceProfile, fraction: f64) -> Option<f64> {
    use TraceProfile::*;
    let v = match (profile, (fraction * 100.0).round() as u64) {
        (WebSearch, 95) => 0.30,
        (FinTrans, 95) => 0.57,
        (OpenMail, 95) => 0.85,
        (WebSearch, 99) => 0.81,
        (FinTrans, 99) => 0.90,
        (OpenMail, 99) => 0.97,
        _ => return None,
    };
    Some(v)
}

/// Paper Figure 6a headline numbers (WebSearch, 90%, 50 ms): fraction
/// within 50 ms and fraction beyond 1 s, per policy, at 328+20 IOPS.
pub(crate) struct Fig6Reference {
    /// Fraction of requests finishing within the 50 ms deadline.
    pub within_deadline: f64,
    /// Fraction of requests delayed beyond 1 s.
    pub beyond_1s: f64,
}

/// Reference Figure 6a values for the named policy (`"FCFS"`, `"Split"`,
/// `"FairQueue"`, `"Miser"`).
pub(crate) fn fig6a_reference(policy: &str) -> Option<Fig6Reference> {
    let (within, beyond) = match policy {
        "FCFS" => (0.14, 0.74),
        "Split" | "FairQueue" | "Miser" => (0.90, 0.10),
        _ => return None,
    };
    Some(Fig6Reference {
        within_deadline: within,
        beyond_1s: beyond,
    })
}

/// Paper Figure 7 (same-workload multiplexing at 10 ms, f = 100%):
/// `actual/estimate` capacity ratios for `Shift-1s` and `Shift-100s`.
pub fn fig7_ratio_100pct(profile: TraceProfile) -> (f64, f64) {
    use TraceProfile::*;
    match profile {
        WebSearch => (0.63, 0.56),
        FinTrans => (0.50, 0.53),
        OpenMail => (0.51, 0.66),
    }
}

/// Paper Figures 7(b)/(c): decomposed consolidation relative errors —
/// `(f = 90%, f = 95%)` — per same-workload pair.
pub fn fig7_decomposed_error(profile: TraceProfile) -> (f64, f64) {
    use TraceProfile::*;
    match profile {
        WebSearch => (0.01, 0.03),
        FinTrans => (0.001, 0.125),
        OpenMail => (0.002, 0.01),
    }
}

/// Paper Figure 8 (different-workload multiplexing at 10 ms): the
/// traditional `actual/estimate` ratio at f = 100% per pair index
/// (0 = WS+FT, 1 = FT+OM, 2 = OM+WS).
pub const FIG8_RATIO_100PCT: [f64; 3] = [0.53, 0.86, 0.87];

/// Paper Figure 8(b)/(c): decomposed estimate relative errors at
/// `(90%, 95%)` per pair index.
pub const FIG8_DECOMPOSED_ERROR: [(f64, f64); 3] =
    [(0.003, 0.062), (0.0005, 0.026), (0.007, 0.001)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reference_is_complete() {
        for p in TraceProfile::ALL {
            for d in TABLE1_DEADLINES_MS {
                let row = table1_reference(p, d).expect("reference row");
                // Capacity grows monotonically with the fraction.
                for w in row.windows(2) {
                    assert!(w[1] >= w[0], "{p} {d}ms not monotone: {row:?}");
                }
            }
        }
        assert!(table1_reference(TraceProfile::WebSearch, 7).is_none());
    }

    #[test]
    fn fig4_reference_covers_nine_cells() {
        let mut n = 0;
        for p in TraceProfile::ALL {
            for d in [10, 20, 50] {
                assert!(fig4_fcfs_fraction(p, d).is_some());
                n += 1;
            }
        }
        assert_eq!(n, 9);
        assert!(fig4_fcfs_fraction(TraceProfile::WebSearch, 5).is_none());
    }

    #[test]
    fn fig5_and_fig6_lookups() {
        assert!(fig5_fcfs_fraction(TraceProfile::OpenMail, 0.99).unwrap() > 0.9);
        assert!(fig5_fcfs_fraction(TraceProfile::OpenMail, 0.5).is_none());
        assert!(fig6a_reference("FCFS").unwrap().beyond_1s > 0.5);
        assert!(fig6a_reference("Miser").unwrap().within_deadline >= 0.9);
        assert!(fig6a_reference("nope").is_none());
    }

    #[test]
    fn fig7_fig8_tables() {
        for p in TraceProfile::ALL {
            let (s1, s100) = fig7_ratio_100pct(p);
            assert!(s1 < 1.0 && s100 < 1.0);
            let (e90, e95) = fig7_decomposed_error(p);
            assert!(e90 < 0.2 && e95 < 0.2);
        }
        assert_eq!(FIG8_RATIO_100PCT.len(), 3);
        assert_eq!(FIG8_DECOMPOSED_ERROR.len(), 3);
    }
}
