//! Long-horizon retention properties: tier losslessness, eviction
//! stability, and feed-shape independence.
//!
//! The [`LongTermStore`] contract extends `window_props.rs`: coarse
//! tiers are built purely by sketch `merge`, so a closed tier-k+1
//! bucket must be **bit-identical** to the merge of every tier-k source
//! window it covers — no decay, no rescaling, no sampling. On top of
//! that, ring eviction must never rewrite surviving buckets, and query
//! results must not depend on how the feed was chunked across workers.

use gqos_obs::{LatencySketch, LongTermStore, RetentionConfig, TierConfig, WindowedSketch};
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

/// A time-ordered observation stream over a few simulated minutes:
/// (instant ns, value) pairs.
fn stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..200_000_000_000, latency()), 1..400).prop_map(|mut s| {
        s.sort_unstable_by_key(|&(at, _)| at);
        s
    })
}

/// A small two-tier ladder: 1 s fine buckets, 10 s coarse buckets.
fn ladder(fine_capacity: usize, coarse_capacity: usize) -> RetentionConfig {
    RetentionConfig::new(vec![
        TierConfig {
            width: SimDuration::from_secs(1),
            capacity: fine_capacity,
        },
        TierConfig {
            width: SimDuration::from_secs(10),
            capacity: coarse_capacity,
        },
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every closed coarse bucket equals, bit for bit, the merge of the
    /// source windows it covers — rebuilt here from the raw stream with
    /// an independent `WindowedSketch`, regardless of how many fine
    /// buckets the ring has since evicted.
    #[test]
    fn coarse_tiers_are_bitwise_merges_of_their_sources(
        stream in stream(),
        fine_capacity in 1usize..12,
    ) {
        let mut store: LongTermStore<u32> = LongTermStore::new(ladder(fine_capacity, 64));
        for &(at, value) in &stream {
            store.record(&0, SimTime::from_nanos(at), value).unwrap();
        }

        // Independent reference: 10 s windows over the same stream.
        let mut reference = WindowedSketch::new(SimDuration::from_secs(10));
        let mut closed = Vec::new();
        for &(at, value) in &stream {
            closed.extend(reference.record(SimTime::from_nanos(at), value).unwrap());
        }
        closed.push(reference.finish());

        // Only closed coarse buckets are complete: the open one is still
        // waiting on fine buckets that have not cascaded yet.
        let open_index = store.open_bucket(&0, 1).unwrap().0;
        for (index, sketch) in store.tier_buckets(&0, 1) {
            if index == open_index {
                continue;
            }
            let expected = closed
                .iter()
                .find(|snap| snap.index() == index)
                .expect("coarse bucket with no matching reference window");
            prop_assert_eq!(
                sketch,
                expected.sketch(),
                "tier-1 bucket {} diverged from the merge of its sources",
                index
            );
        }
    }

    /// The cumulative sketch is lossless over the whole stream, and the
    /// resident-sketch count respects the configured bound no matter how
    /// long the stream runs.
    #[test]
    fn cumulative_is_lossless_and_memory_is_bounded(
        stream in stream(),
        fine_capacity in 1usize..12,
        coarse_capacity in 1usize..6,
    ) {
        let config = ladder(fine_capacity, coarse_capacity);
        let bound = config.max_resident_sketches();
        let mut store: LongTermStore<u32> = LongTermStore::new(config);
        let mut whole = LatencySketch::new();
        for &(at, value) in &stream {
            store.record(&0, SimTime::from_nanos(at), value).unwrap();
            whole.record(value);
        }
        prop_assert_eq!(store.cumulative(&0).unwrap(), &whole);
        prop_assert!(
            store.resident_sketches() <= bound,
            "{} resident sketches exceeds bound {}",
            store.resident_sketches(),
            bound
        );
    }

    /// Ring eviction only ever drops the oldest bucket — every bucket
    /// surviving a later feed is bit-identical to its earlier self.
    #[test]
    fn eviction_never_changes_surviving_buckets(
        stream in stream(),
        more in stream(),
        fine_capacity in 1usize..12,
    ) {
        let mut store: LongTermStore<u32> = LongTermStore::new(ladder(fine_capacity, 8));
        for &(at, value) in &stream {
            store.record(&0, SimTime::from_nanos(at), value).unwrap();
        }
        let before: Vec<(u64, LatencySketch)> = store
            .tier_buckets(&0, 0)
            .into_iter()
            .map(|(i, s)| (i, s.clone()))
            .collect();
        let open_before = store
            .tier_buckets(&0, 0)
            .last()
            .map(|&(i, _)| i)
            .unwrap_or(0);

        // Feed a second stream shifted entirely after the first.
        let offset = 200_000_000_000u64;
        for &(at, value) in &more {
            store.record(&0, SimTime::from_nanos(at + offset), value).unwrap();
        }
        let after = store.tier_buckets(&0, 0);
        for (index, sketch) in &before {
            // The open bucket may legitimately keep collecting; closed
            // buckets must survive eviction unchanged or disappear.
            if *index == open_before {
                continue;
            }
            if let Some((_, now)) = after.iter().find(|(i, _)| i == index) {
                prop_assert_eq!(&sketch, now, "surviving bucket {} was rewritten", index);
            }
        }
    }

    /// Query results are independent of feed chunking: ingesting
    /// per-window sketches (any chunk split) gives byte-identical series
    /// to recording value by value, and a sharded feed (tenants split
    /// across worker-local stores, merged by key) equals the serial one.
    #[test]
    fn queries_are_feed_shape_independent(
        stream in stream(),
        window_choice in 0usize..3,
        tenant_count in 1u32..5,
    ) {
        let config = ladder(8, 64);

        // Serial: every value recorded directly, tenants round-robin.
        let mut serial: LongTermStore<u32> = LongTermStore::new(config.clone());
        for (k, &(at, value)) in stream.iter().enumerate() {
            let tenant = k as u32 % tenant_count;
            serial.record(&tenant, SimTime::from_nanos(at), value).unwrap();
        }

        // Chunked: per-tenant windowed sketches ingested snapshot by
        // snapshot — the gateway feedback shape. Window width divides
        // the tier-0 width so attribution is exact.
        let mut chunked: LongTermStore<u32> = LongTermStore::new(config.clone());
        for tenant in 0..tenant_count {
            // Widths that divide the 1 s tier-0 bucket, so window-level
            // attribution is exact.
            let window = SimDuration::from_millis([250, 500, 1_000][window_choice]);
            let mut windowed = WindowedSketch::new(window);
            let mut snaps = Vec::new();
            for (k, &(at, value)) in stream.iter().enumerate() {
                if k as u32 % tenant_count == tenant {
                    snaps.extend(windowed.record(SimTime::from_nanos(at), value).unwrap());
                }
            }
            snaps.push(windowed.finish());
            for snap in &snaps {
                chunked.ingest_snapshot(&tenant, snap).unwrap();
            }
        }

        prop_assert_eq!(&serial, &chunked, "chunked feed diverged from value-by-value feed");

        // Worker-sharded: each tenant fed into its own store (the
        // positional pool pattern), results read per key — identical.
        for tenant in 0..tenant_count {
            let mut shard: LongTermStore<u32> = LongTermStore::new(config.clone());
            for (k, &(at, value)) in stream.iter().enumerate() {
                if k as u32 % tenant_count == tenant {
                    shard.record(&tenant, SimTime::from_nanos(at), value).unwrap();
                }
            }
            let end = SimTime::from_secs(210);
            let res = SimDuration::from_secs(10);
            prop_assert_eq!(
                serial.series(&tenant, 0.99, SimTime::ZERO, end, res),
                shard.series(&tenant, 0.99, SimTime::ZERO, end, res),
                "sharded tenant {} series diverged from serial",
                tenant
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `record_all` is `record` once per value: on a stream that may step
    /// back into a closed tier-0 bucket, both stop at the same value with
    /// the same error and leave equal stores — every value before it
    /// recorded, none after. The stream is fed in two calls so the second
    /// starts from a store the first left mid-bucket.
    #[test]
    fn record_all_is_repeated_record(
        steps in prop::collection::vec((0u64..3_000_000_000, 0u64..8, latency()), 1..200),
        split in 0usize..200,
        fine_capacity in 1usize..6,
    ) {
        // Mostly forward in time; a step of kind 0 goes back up to 3 s.
        let mut t = 5_000_000_000u64;
        let values: Vec<(SimTime, u64)> = steps
            .iter()
            .map(|&(delta, kind, value)| {
                t = if kind == 0 { t.saturating_sub(delta) } else { t + delta / 4 };
                (SimTime::from_nanos(t), value)
            })
            .collect();
        let config = ladder(fine_capacity, 2);

        let mut one_by_one: LongTermStore<u32> = LongTermStore::new(config.clone());
        let mut expected = Ok(());
        for &(at, value) in &values {
            if let Err(e) = one_by_one.record(&7, at, value) {
                expected = Err(e);
                break;
            }
        }

        let mut folded: LongTermStore<u32> = LongTermStore::new(config);
        let (head, tail) = values.split_at(split.min(values.len()));
        let got = folded
            .record_all(&7, head.iter().copied())
            .and_then(|()| folded.record_all(&7, tail.iter().copied()));
        prop_assert_eq!(got, expected);
        prop_assert_eq!(&folded, &one_by_one, "record_all left a different store");
    }
}

/// Window-width nesting is load-bearing: a misaligned ladder must be
/// rejected loudly at construction, not silently mis-merge.
#[test]
#[should_panic(expected = "whole multiple")]
fn misaligned_ladders_are_rejected() {
    let _ = RetentionConfig::new(vec![
        TierConfig {
            width: SimDuration::from_secs(7),
            capacity: 4,
        },
        TierConfig {
            width: SimDuration::from_secs(10),
            capacity: 4,
        },
    ]);
}
