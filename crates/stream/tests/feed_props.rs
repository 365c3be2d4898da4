//! The one-pass retention feed against the snapshot route.
//!
//! `TenantReport::feed_longterm` folds a lane's completions straight into
//! a `LongTermStore`, each value filed at the start of its feed window.
//! The oracle is the route it replaced: partition the lane with
//! `window_feedback` and merge every snapshot with `ingest_snapshot`.
//! Merge is exactly recording the concatenated stream, and every value of
//! a snapshot lands in the tier-0 bucket holding the snapshot's start, so
//! the two stores must be equal as a whole — every ring, open bucket,
//! eviction mark and cumulative sketch — for any window width, dividing
//! the tier-0 width or not.

use gqos_core::RecombinePolicy;
use gqos_sim::{
    CompletionRecord, LatencySketch, LongTermStore, RetentionConfig, ServiceClass, TierConfig,
};
use gqos_stream::TenantReport;
use gqos_trace::{RequestId, SimDuration, SimTime};
use proptest::prelude::*;

/// Feed windows: 1 ms, 100 ms, 300 ms, 1 s, 1.7 s and 2 s. 300 ms,
/// 1.7 s and 2 s do not divide the 1 s tier-0 width.
const WINDOWS_MS: [u64; 6] = [1, 100, 300, 1_000, 1_700, 2_000];

/// The step from one completion to the next: a burst at one instant,
/// a busy stretch, a lull, or a quiet gap of many tier-0 buckets.
fn gap_ns() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..1,
        0u64..5_000_000,
        0u64..700_000_000,
        1_000_000_000u64..40_000_000_000,
    ]
}

/// One lane's `(completion ns, response ns)` pairs in completion order;
/// possibly empty.
fn lane() -> impl Strategy<Value = Vec<(u64, u64)>> {
    (
        0u64..3_000_000_000,
        prop::collection::vec((gap_ns(), 0u64..80_000_000), 0..120),
    )
        .prop_map(|(origin, steps)| {
            let mut t = origin;
            steps
                .into_iter()
                .map(|(gap, response)| {
                    t += gap;
                    (t, response.min(t))
                })
                .collect()
        })
}

/// A three-tier ladder small enough that long lanes evict from every
/// ring: 1 s, 5 s and 60 s buckets.
fn ladder(caps: (usize, usize, usize)) -> RetentionConfig {
    let tier = |secs, capacity| TierConfig {
        width: SimDuration::from_secs(secs),
        capacity,
    };
    RetentionConfig::new(vec![tier(1, caps.0), tier(5, caps.1), tier(60, caps.2)])
}

/// A hand-built lane report over `pairs`, as `IngestGateway` would
/// return it.
fn report(name: &str, pairs: &[(u64, u64)]) -> TenantReport {
    let records: Vec<CompletionRecord> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(completion, response))| CompletionRecord {
            id: RequestId::new(i as u64),
            class: ServiceClass::PRIMARY,
            arrival: SimTime::from_nanos(completion - response),
            dispatched: SimTime::from_nanos(completion - response),
            completion: SimTime::from_nanos(completion),
        })
        .collect();
    let mut sketch = LatencySketch::new();
    pairs
        .iter()
        .for_each(|&(_, response)| sketch.record(response));
    TenantReport {
        name: name.to_string(),
        policy: RecombinePolicy::Fcfs,
        offered: records.len(),
        completed: records.len(),
        shed: 0,
        end_time: SimTime::from_nanos(pairs.last().map_or(0, |&(c, _)| c)),
        peak_chunk_bytes: 0,
        sketch,
        records,
    }
}

/// The snapshot route: every `window_feedback` snapshot merged in order.
fn ingest_snapshots(report: &TenantReport, window: SimDuration, store: &mut LongTermStore<String>) {
    for snapshot in report.window_feedback(window) {
        store.ingest_snapshot(&report.name, &snapshot).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Several tenants, each lane cut into consecutive reports, fed in
    /// an interleaved order into one store by both routes: the stores
    /// are equal as a whole after every feed.
    #[test]
    fn one_pass_feed_equals_the_snapshot_route(
        lanes in prop::collection::vec((lane(), 1usize..4), 1..4),
        window in 0usize..WINDOWS_MS.len(),
        caps in (1usize..6, 1usize..4, 1usize..3),
    ) {
        let window = SimDuration::from_millis(WINDOWS_MS[window]);
        // Cut each lane into `parts` consecutive reports.
        let parts: Vec<Vec<TenantReport>> = lanes
            .iter()
            .enumerate()
            .map(|(k, (pairs, parts))| {
                let size = pairs.len().div_ceil(*parts).max(1);
                let name = format!("tenant-{k}");
                let mut cut: Vec<TenantReport> =
                    pairs.chunks(size).map(|c| report(&name, c)).collect();
                if cut.is_empty() {
                    cut.push(report(&name, &[])); // an empty lane
                }
                cut
            })
            .collect();

        let mut folded: LongTermStore<String> = LongTermStore::new(ladder(caps));
        let mut oracle: LongTermStore<String> = LongTermStore::new(ladder(caps));
        let rounds = parts.iter().map(Vec::len).max().unwrap_or(0);
        for round in 0..rounds {
            for lane in parts.iter().filter_map(|p| p.get(round)) {
                lane.feed_longterm(window, &mut folded);
                ingest_snapshots(lane, window, &mut oracle);
                prop_assert_eq!(&folded, &oracle, "stores diverged after feeding {}", lane.name);
            }
        }
        // Empty lanes feed nothing; the rest keep every value.
        for (k, (pairs, _)) in lanes.iter().enumerate() {
            let name = format!("tenant-{k}");
            let whole = report(&name, pairs).sketch;
            match folded.cumulative(&name) {
                Some(sketch) => prop_assert_eq!(sketch, &whole),
                None => prop_assert!(pairs.is_empty(), "{} was never created", name),
            }
        }
    }
}

#[test]
#[should_panic(expected = "out of order")]
fn feed_rejects_records_that_go_back_across_a_window() {
    // 150 ms completes after 250 ms: it belongs to window [100, 200),
    // which the feed has already left. Filing it at the open window's
    // start (200 ms) would misfile it without a sound.
    let ms = |v: u64| (v * 1_000_000, 1_000_000);
    let lane = report("t", &[ms(50), ms(250), ms(150)]);
    let mut store = LongTermStore::new(RetentionConfig::default_tiers());
    lane.feed_longterm(SimDuration::from_millis(100), &mut store);
}

#[test]
#[should_panic(expected = "feedback window must be positive")]
fn feed_rejects_a_zero_window() {
    let mut store = LongTermStore::new(RetentionConfig::default_tiers());
    report("t", &[(1_000_000, 1_000)]).feed_longterm(SimDuration::ZERO, &mut store);
}
