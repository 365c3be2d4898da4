//! Cross-crate consolidation tests: the Section 4.4 claims on profile
//! workloads.

use gqos::trace::gen::profiles::TraceProfile;
use gqos::{ConsolidationStudy, QosTarget, SimDuration};

const SPAN: SimDuration = SimDuration::from_secs(120);
const DEADLINE: SimDuration = SimDuration::from_millis(10);

#[test]
fn merged_requirement_never_exceeds_the_estimate() {
    // Sub-additivity: serving two streams together can never need more than
    // the sum of serving them apart (the estimate is a safe upper bound).
    for profile in TraceProfile::ALL {
        for fraction in [0.90, 1.0] {
            let w = profile.generate(SPAN, 31);
            let study = ConsolidationStudy::new(QosTarget::new(fraction, DEADLINE));
            let report = study.compare_shifted(&w, SimDuration::from_secs(1));
            assert!(
                report.ratio() <= 1.0 + 1e-9,
                "{profile} f={fraction}: actual exceeded estimate ({report})"
            );
        }
    }
}

#[test]
fn full_guarantee_estimate_overshoots_shifted_pairs() {
    // Figure 7(a): at f = 100% the worst cases cannot align once shifted,
    // so the additive estimate over-provisions substantially.
    for profile in TraceProfile::ALL {
        let w = profile.generate(SPAN, 37);
        let study = ConsolidationStudy::new(QosTarget::new(1.0, DEADLINE));
        let report = study.compare_shifted(&w, SimDuration::from_secs(1));
        assert!(
            report.ratio() < 0.85,
            "{profile}: expected large multiplexing gain at 100% ({report})"
        );
    }
}

#[test]
fn decomposed_estimate_is_more_accurate_than_full() {
    // Figures 7(b)/(c): reshaping makes the additive estimate a better
    // predictor than it is for the raw worst case.
    for profile in TraceProfile::ALL {
        let w = profile.generate(SPAN, 41);
        let full = ConsolidationStudy::new(QosTarget::new(1.0, DEADLINE))
            .compare_shifted(&w, SimDuration::from_secs(1));
        let decomposed = ConsolidationStudy::new(QosTarget::new(0.90, DEADLINE))
            .compare_shifted(&w, SimDuration::from_secs(1));
        assert!(
            decomposed.relative_error() <= full.relative_error() + 1e-9,
            "{profile}: decomposition did not improve the estimate \
             (full {:.3}, decomposed {:.3})",
            full.relative_error(),
            decomposed.relative_error()
        );
    }
}

#[test]
fn different_workload_pairs_behave_like_figure8() {
    // Accuracy-after-reshaping is an ensemble property; average over seeds
    // to keep the test robust to individual realizations.
    let full = ConsolidationStudy::new(QosTarget::new(1.0, DEADLINE));
    let decomposed = ConsolidationStudy::new(QosTarget::new(0.90, DEADLINE));
    let mut full_err = 0.0;
    let mut deco_err = 0.0;
    // Longer span than the other tests: the slow plateaus need sampling.
    let span = SimDuration::from_secs(240);
    const SEEDS: [u64; 3] = [43, 44, 45];
    for seed in SEEDS {
        let ws = TraceProfile::WebSearch.generate(span, seed);
        let om = TraceProfile::OpenMail.generate(span, seed.wrapping_add(100));

        let full_report = full.compare(&[&ws, &om]).unwrap();
        let deco_report = decomposed.compare(&[&ws, &om]).unwrap();

        // The merged stream needs at least the bigger client's own capacity.
        let om_alone = full.actual(&[&om]).unwrap();
        assert!(full_report.actual.get() >= om_alone.get() - 1.0);

        full_err += full_report.relative_error();
        deco_err += deco_report.relative_error();
    }
    full_err /= SEEDS.len() as f64;
    deco_err /= SEEDS.len() as f64;
    // For pairs dominated by one client the raw estimate can be fairly
    // accurate too (paper Fig. 8: OM-dominated ratios reach 0.86-0.87), so
    // allow a modest margin; the decomposed estimate must still be sound.
    assert!(
        deco_err <= full_err + 0.15,
        "decomposed mean error {deco_err:.3} vs full {full_err:.3}"
    );
    assert!(
        deco_err < 0.40,
        "decomposed mean error too large: {deco_err:.3}"
    );
}

#[test]
fn estimates_scale_with_client_count() {
    let w = TraceProfile::FinTrans.generate(SPAN, 47);
    let study = ConsolidationStudy::new(QosTarget::new(0.90, DEADLINE));
    let one = study.estimate(&[&w]).unwrap().get();
    let s1 = w.shifted(SimDuration::from_secs(1));
    let s2 = w.shifted(SimDuration::from_secs(2));
    let three = study.estimate(&[&w, &s1, &s2]).unwrap().get();
    assert!((three - 3.0 * one).abs() / (3.0 * one) < 1e-9);
}
