//! Windowed-snapshot properties: the snapshot/reset cycle of
//! [`WindowedSketch`] is lossless.
//!
//! For arbitrary value streams and window boundaries, the merge of every
//! emitted window snapshot (plus the final open window) must be
//! **bit-identical** to the sketch built over the unwindowed stream —
//! same bucket counts, min, max, sum. Empty windows must surface as
//! typed no-signal snapshots, never as sketches whose zero quantile
//! could be mistaken for a latency.

use gqos_obs::{LatencySketch, WindowSnapshot, WindowedSketch};
use gqos_trace::{SimDuration, SimTime};
use proptest::prelude::*;

/// Latencies spanning the sketch's regimes (mirrors sketch_props.rs).
fn latency() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..32,
        32u64..1_000_000,
        1_000_000u64..10_000_000_000_000,
        any::<u64>(),
    ]
}

/// An observation stream: (instant ns, value) pairs. Instants are drawn
/// unsorted and sorted afterwards — completion streams are time-ordered,
/// but the windowing must not care about the exact spacing.
fn stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..50_000_000_000, latency()), 0..300).prop_map(|mut s| {
        s.sort_unstable_by_key(|&(at, _)| at);
        s
    })
}

fn merge_all<'a, I: IntoIterator<Item = &'a WindowSnapshot>>(snapshots: I) -> LatencySketch {
    let mut whole = LatencySketch::new();
    for snap in snapshots {
        whole.merge(snap.sketch());
    }
    whole
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Merging the N window snapshots reproduces the unwindowed sketch
    /// bit for bit, for arbitrary streams and window widths.
    #[test]
    fn window_snapshot_merge_is_lossless(
        stream in stream(),
        window_ns in 1u64..20_000_000_000,
    ) {
        let mut unwindowed = LatencySketch::new();
        let mut windowed = WindowedSketch::new(SimDuration::from_nanos(window_ns));
        let mut closed = Vec::new();
        for &(at, value) in &stream {
            unwindowed.record(value);
            // The stream is time-ordered, so recording never rejects.
            closed.extend(windowed.record(SimTime::from_nanos(at), value).unwrap());
        }
        closed.push(windowed.finish());

        // Window indices partition time: strictly increasing, each value
        // landed in exactly one snapshot.
        for pair in closed.windows(2) {
            prop_assert!(pair[0].index() < pair[1].index());
        }
        let merged = merge_all(&closed);
        prop_assert_eq!(&merged, &unwindowed, "snapshot merge diverged from unwindowed sketch");
    }

    /// Every all-empty window yields the typed no-signal outcome, and
    /// non-empty windows always carry a signal.
    #[test]
    fn empty_windows_are_typed_no_signal(
        stream in stream(),
        window_ns in 1u64..2_000_000_000,
    ) {
        let mut windowed = WindowedSketch::new(SimDuration::from_nanos(window_ns));
        let mut closed = Vec::new();
        for &(at, value) in &stream {
            closed.extend(windowed.record(SimTime::from_nanos(at), value).unwrap());
        }
        closed.push(windowed.finish());
        for snap in &closed {
            match snap.signal() {
                None => prop_assert!(snap.sketch().is_empty()),
                Some(s) => {
                    prop_assert!(!s.is_empty());
                    prop_assert!(s.count() == snap.sketch().count());
                }
            }
        }
    }

    /// An instant from an already-closed window is a typed error that
    /// changes nothing; an instant exactly on the current window's start
    /// boundary is in order. (Regression: the pre-fix code silently
    /// folded stale instants into the current window, misfiling them.)
    #[test]
    fn out_of_order_instants_reject_without_state_change(
        window_ns in 1u64..2_000_000_000,
        advance_windows in 1u64..50,
        offset_ns in 0u64..2_000_000_000,
    ) {
        let window = SimDuration::from_nanos(window_ns);
        let mut w = WindowedSketch::new(window);
        // Move into window `advance_windows` so earlier windows exist.
        let start_ns = advance_windows * window_ns;
        w.record(SimTime::from_nanos(start_ns), 42).unwrap();
        let before = w.clone();

        // Exactly on the current boundary: in order, always accepted.
        prop_assert!(w.record(SimTime::from_nanos(start_ns), 43).is_ok());

        // Strictly before the boundary: typed rejection, no mutation.
        let mut w = before.clone();
        let stale_ns = start_ns - 1 - (offset_ns % start_ns.max(1)).min(start_ns - 1);
        let err = w.record(SimTime::from_nanos(stale_ns), 44).unwrap_err();
        prop_assert_eq!(err.at, SimTime::from_nanos(stale_ns));
        prop_assert_eq!(err.window_start, SimTime::from_nanos(start_ns));
        prop_assert_eq!(&w, &before, "a rejected record must not change state");
    }

    /// `count_at_most` is consistent with `fraction_below` and exact on
    /// the whole-stream count — the integer feedback primitive the SLO
    /// controller's verdicts are built on.
    #[test]
    fn count_at_most_matches_exact_census(
        values in prop::collection::vec(latency(), 1..300),
        threshold in latency(),
    ) {
        let mut sketch = LatencySketch::new();
        for &v in &values {
            sketch.record(v);
        }
        let counted = sketch.count_at_most(threshold);
        // Bucketed census: at least every value whose bucket closes at or
        // under the threshold, never more than the exact census.
        let exact = values.iter().filter(|&&v| v <= threshold).count() as u64;
        prop_assert!(counted <= exact, "bucketed census over-counts: {counted} > {exact}");
        prop_assert_eq!(sketch.count_at_most(u64::MAX), values.len() as u64);
        let frac = sketch.fraction_below(threshold);
        prop_assert_eq!(frac, counted as f64 / values.len() as f64);
    }
}

/// The regression the satellite names: a long quiet gap must produce
/// typed no-signal windows, and a controller reading them must see
/// "hold", not "p99 = 0 → slam shares to the floor".
#[test]
fn all_empty_window_regression() {
    let window = SimDuration::from_millis(100);
    let mut w = WindowedSketch::new(window);
    w.record(SimTime::from_millis(20), 7_000_000).unwrap();
    // One second of silence closes nine empty windows after the first.
    let closed = w.advance_to(SimTime::from_secs(1));
    assert_eq!(closed.len(), 10);
    assert!(closed[0].signal().is_some());
    for quiet in &closed[1..] {
        // The raw sketch still reports 0 — the documented empty-sketch
        // contract — which is exactly why the typed outcome must exist.
        assert_eq!(quiet.sketch().quantile(0.99), 0);
        assert_eq!(quiet.signal(), None);
    }
    // The lossless invariant holds across the gap.
    let mut merged = LatencySketch::new();
    for snap in &closed {
        merged.merge(snap.sketch());
    }
    merged.merge(w.finish().sketch());
    let mut whole = LatencySketch::new();
    whole.record(7_000_000);
    assert_eq!(merged, whole);
}
