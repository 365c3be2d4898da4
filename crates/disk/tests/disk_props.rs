//! Property-based tests of the disk models.

use proptest::prelude::*;

use gqos_disk::{CachedDisk, DiskGeometry, DiskModel, SeekProfile};
use gqos_sim::{simulate, ServiceModel};
use gqos_trace::{Iops, LogicalBlock, Request, SimDuration, SimTime, Workload};

fn small_geometry() -> DiskGeometry {
    DiskGeometry::new(2_000, 2, 100, 512, 10_000)
}

fn arb_lbas(max: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..400_000, 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Service times are always positive and bounded by the mechanical
    /// worst case (full seek + full rotation + transfer).
    #[test]
    fn service_times_are_positive_and_bounded(lbas in arb_lbas(64)) {
        let geometry = small_geometry();
        let seek = SeekProfile::default();
        let mut disk = DiskModel::builder().geometry(geometry).seek(seek).build();
        let worst = seek.max_seek()
            + geometry.rotation_time()
            + geometry.transfer_time(8192);
        for &lba in &lbas {
            let t = disk.service_time(
                &Request::at(SimTime::ZERO).with_block(LogicalBlock::new(lba)),
                SimTime::ZERO,
            );
            prop_assert!(t > SimDuration::ZERO);
            prop_assert!(t <= worst, "service {t} above mechanical worst case");
        }
    }

    /// Seek times are monotone in distance for arbitrary distance pairs.
    #[test]
    fn seek_monotonicity(d1 in 0u64..70_000, d2 in 0u64..70_000) {
        let s = SeekProfile::default();
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(s.seek_time(lo, 65_536) <= s.seek_time(hi, 65_536));
    }

    /// FCFS over the mechanical disk serves the whole batch exactly once
    /// (conservation through the engine).
    #[test]
    fn fcfs_over_disk_conserves(lbas in arb_lbas(40)) {
        let w = Workload::from_requests(
            lbas.iter()
                .enumerate()
                .map(|(i, &l)| {
                    Request::at(SimTime::from_micros(i as u64))
                        .with_block(LogicalBlock::new(l))
                }),
        );
        let report = simulate(
            &w,
            gqos_sim::FcfsScheduler::new(),
            DiskModel::builder().geometry(small_geometry()).build(),
        );
        prop_assert_eq!(report.completed(), w.len());
    }

    /// The LRU cache never slows a request down and never exceeds its
    /// capacity.
    #[test]
    fn cache_is_never_harmful(lbas in arb_lbas(64), capacity in 1usize..32) {
        let mut plain = DiskModel::builder().geometry(small_geometry()).build();
        let mut cached = CachedDisk::new(
            DiskModel::builder().geometry(small_geometry()).build(),
            capacity,
            SimDuration::from_micros(50),
        );
        let mut plain_total = SimDuration::ZERO;
        let mut cached_total = SimDuration::ZERO;
        for &lba in &lbas {
            let r = Request::at(SimTime::ZERO).with_block(LogicalBlock::new(lba));
            plain_total += plain.service_time(&r, SimTime::ZERO);
            cached_total += cached.service_time(&r, SimTime::ZERO);
            prop_assert!(cached.resident() <= capacity);
        }
        // Cache hits replace mechanical service; misses cost the same.
        prop_assert!(cached_total <= plain_total + SimDuration::from_micros(1));
        prop_assert_eq!(cached.hits() + cached.misses(), lbas.len() as u64);
    }

    /// A QoS pipeline over the disk completes any batch (cross-crate
    /// smoke property).
    #[test]
    fn qos_over_disk_conserves(lbas in arb_lbas(32)) {
        use gqos_core::{MiserScheduler, Provision};
        let w = Workload::from_requests(
            lbas.iter()
                .enumerate()
                .map(|(i, &l)| {
                    Request::at(SimTime::from_millis(i as u64 * 3))
                        .with_block(LogicalBlock::new(l))
                }),
        );
        let report = simulate(
            &w,
            MiserScheduler::new(
                Provision::new(Iops::new(80.0), Iops::new(80.0)),
                SimDuration::from_millis(100),
            ),
            DiskModel::builder().geometry(small_geometry()).build(),
        );
        prop_assert_eq!(report.completed(), w.len());
    }
}
