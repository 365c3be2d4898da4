//! Property tests for the fleet placement engine.
//!
//! Three contracts are differential, pinned against the cold planner as
//! the reference semantics:
//!
//! 1. the parallel packer vs a brute-force subset-partition enumeration on
//!    small fleets (≤ 8 tenants, ≤ 3 servers): the packed server count is
//!    optimal-or-within-one whenever the fleet is packable at all, and
//!    every bin's consolidated quote meets `(f, δ)` under its capacity;
//! 2. [`QuoteCache`] quotes vs cold [`CapacityPlanner::min_capacity`]
//!    bit-identity under random quote/workload-replacement/epoch-bump
//!    sequences;
//! 3. [`ServerBin`]'s incrementally-maintained consolidated quote vs
//!    cold-planning the materialised merge under random add/remove
//!    sequences, and vs the definition of `Cmin` on that merge (the
//!    quote meets the fraction, one IOPS less misses it).

use gqos_core::{
    capacity_floor, merge_all, CapacityPlanner, FleetPlacer, FleetTenant, QosTarget, QuoteCache,
    ServerBin, TenantId,
};
use gqos_parallel::WorkerPool;
use gqos_trace::{Iops, SimDuration, SimTime, Workload};
use proptest::prelude::*;

prop_compose! {
    /// A small bursty tenant workload: mixed same-instant bursts and calm
    /// stretches, 1–40 arrivals.
    fn arb_tenant_workload()(gaps in prop::collection::vec(
        prop_oneof![
            Just(0u64),                  // burst: same-instant arrival
            1u64..1_000_000,             // sub-millisecond spacing
            1_000_000u64..80_000_000,    // calm: 1–80 ms
        ],
        1..40,
    )) -> Workload {
        let mut t = 0u64;
        Workload::from_arrivals(gaps.into_iter().map(|g| {
            t += g;
            SimTime::from_nanos(t)
        }))
    }
}

prop_compose! {
    /// A small fleet of 1–8 tenants with dense ids.
    fn arb_fleet()(workloads in prop::collection::vec(arb_tenant_workload(), 1..=8))
        -> Vec<FleetTenant>
    {
        workloads
            .into_iter()
            .enumerate()
            .map(|(i, w)| FleetTenant::new(TenantId::new(i), w))
            .collect()
    }
}

fn arb_fraction() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.85), Just(0.9), Just(0.95), Just(1.0)]
}

/// Cold reference: `Cmin` of the merged workloads of `members`.
fn cold_consolidated(tenants: &[FleetTenant], members: u32, target: QosTarget) -> u64 {
    let clients: Vec<&Workload> = tenants
        .iter()
        .enumerate()
        .filter(|(i, _)| members & (1 << i) != 0)
        .map(|(_, t)| t.workload())
        .collect();
    if clients.is_empty() {
        return 1; // unused; masks are non-empty below
    }
    let merged = merge_all(&clients);
    CapacityPlanner::new(&merged, target.deadline())
        .min_capacity(target.fraction())
        .get() as u64
}

/// Minimum number of feasible bins partitioning the full tenant set, via
/// subset DP over the 2^n masks — `None` if some tenant fits nowhere even
/// alone.
fn optimal_bins(feasible: &[bool], n: usize) -> Option<u32> {
    let full = (1u32 << n) - 1;
    let mut best = vec![u32::MAX; (full + 1) as usize];
    best[0] = 0;
    for mask in 1..=full {
        // Iterate non-empty submasks of `mask`.
        let mut sub = mask;
        while sub > 0 {
            if feasible[sub as usize] && best[(mask ^ sub) as usize] != u32::MAX {
                best[mask as usize] = best[mask as usize].min(best[(mask ^ sub) as usize] + 1);
            }
            sub = (sub - 1) & mask;
        }
    }
    (best[full as usize] != u32::MAX).then(|| best[full as usize])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packer vs brute force: whenever a full partition onto `servers`
    /// feasible bins exists, the packer places everyone on at most one
    /// server more than optimal; and always, every bin's consolidated
    /// quote fits its capacity.
    #[test]
    fn packer_is_optimal_or_within_one(
        tenants in arb_fleet(),
        fraction in arb_fraction(),
        dms in 5u64..50,
        headroom in 1.2f64..3.0,
        servers in 1usize..=3,
    ) {
        let deadline = SimDuration::from_millis(dms);
        let target = QosTarget::new(fraction, deadline);
        let n = tenants.len();

        // Capacity: generous enough that every tenant fits alone.
        let max_solo = tenants
            .iter()
            .map(|t| {
                CapacityPlanner::new(t.workload(), deadline)
                    .min_capacity(fraction)
                    .get() as u64
            })
            .max()
            .unwrap();
        let capacity = ((max_solo as f64) * headroom).ceil() as u64;

        // Brute force: feasibility of every non-empty subset, then the
        // minimal partition size.
        let full = (1u32 << n) - 1;
        let mut feasible = vec![false; (full + 1) as usize];
        for mask in 1..=full {
            feasible[mask as usize] =
                cold_consolidated(&tenants, mask, target) <= capacity;
        }
        let optimal = optimal_bins(&feasible, n).expect("every tenant fits alone");

        let placer = FleetPlacer::new(target, Iops::new(capacity as f64));
        let mut cache = QuoteCache::new(deadline);
        let pool = WorkerPool::new(4);
        let placement = placer.pack(&tenants, servers, &mut cache, &pool).unwrap();

        // Every bin's consolidated quote meets (f, δ) under its capacity —
        // checked against the cold planner, not the bin's own cache.
        for bin in placement.bins() {
            if bin.is_empty() {
                continue;
            }
            let mask = bin
                .members()
                .iter()
                .fold(0u32, |m, id| m | (1 << id.index()));
            let cold = cold_consolidated(&tenants, mask, target);
            prop_assert_eq!(bin.quote_int(), cold, "bin quote must equal cold");
            prop_assert!(cold <= capacity, "bin over capacity");
        }

        if optimal as usize <= servers {
            prop_assert!(
                placement.unplaced().is_empty(),
                "a full {optimal}-bin partition exists but {:?} were unplaced",
                placement.unplaced()
            );
            prop_assert!(
                (placement.servers_used() as u32) <= optimal + 1,
                "used {} servers, optimal {optimal}",
                placement.servers_used()
            );
        }
    }

    /// Cached quotes are bit-identical to cold `min_capacity` under random
    /// interleavings of quotes, workload replacements (re-added tenants
    /// with invalidated entries), and SLA epoch bumps.
    #[test]
    fn cache_is_bit_identical_under_mutation_sequences(
        mut tenants in arb_fleet(),
        replacements in prop::collection::vec(arb_tenant_workload(), 4),
        ops in prop::collection::vec((0usize..32, 0usize..4, 0usize..3), 1..24),
        dms in 5u64..50,
    ) {
        let deadline = SimDuration::from_millis(dms);
        let fractions = [0.85, 0.9, 0.95, 1.0];
        let mut cache = QuoteCache::new(deadline);
        for (pick, which, kind) in ops {
            let idx = pick % tenants.len();
            match kind {
                0 => {
                    let f = fractions[which];
                    let cached = cache.quote(&tenants[idx], f);
                    let cold = CapacityPlanner::new(tenants[idx].workload(), deadline)
                        .min_capacity(f);
                    prop_assert_eq!(
                        cached.get().to_bits(),
                        cold.get().to_bits(),
                        "tenant {} f={}", idx, f
                    );
                }
                1 => {
                    // A new profile is a new incarnation: the owner drops
                    // the retired one's entry, as the control plane does.
                    let id = tenants[idx].id();
                    let epoch = tenants[idx].epoch() + 1;
                    tenants[idx] = FleetTenant::with_epoch(id, replacements[which].clone(), epoch);
                    cache.invalidate(id);
                }
                _ => tenants[idx].bump_epoch(),
            }
        }
        // Final sweep: every tenant, every fraction, after all mutations.
        for t in &tenants {
            for &f in &fractions {
                let cached = cache.quote(t, f);
                let cold = CapacityPlanner::new(t.workload(), deadline).min_capacity(f);
                prop_assert_eq!(cached.get().to_bits(), cold.get().to_bits());
            }
        }
    }

    /// The incrementally-maintained consolidated quote equals cold-planning
    /// the materialised merge after every add/remove.
    #[test]
    fn bin_delta_updates_match_cold_consolidation(
        tenants in arb_fleet(),
        ops in prop::collection::vec(0usize..32, 1..20),
        fraction in arb_fraction(),
        dms in 5u64..50,
    ) {
        let deadline = SimDuration::from_millis(dms);
        let target = QosTarget::new(fraction, deadline);
        let mut bin = ServerBin::new(target);
        let mut resident: Vec<usize> = Vec::new();
        for op in ops {
            let idx = op % tenants.len();
            let t = &tenants[idx];
            if let Some(at) = resident.iter().position(|&r| r == idx) {
                prop_assert!(bin.remove(t.id(), t.workload().arrival_column().nanos()));
                resident.remove(at);
            } else {
                bin.add(t.id(), t.workload().arrival_column().nanos());
                resident.push(idx);
            }
            let cold = if resident.is_empty() {
                // An empty bin quotes the domain floor, like the planner
                // on an empty workload.
                CapacityPlanner::new(&Workload::new(), deadline)
                    .min_capacity(fraction)
                    .get() as u64
            } else {
                let clients: Vec<&Workload> =
                    resident.iter().map(|&r| tenants[r].workload()).collect();
                let merged = merge_all(&clients);
                CapacityPlanner::new(&merged, deadline)
                    .min_capacity(fraction)
                    .get() as u64
            };
            prop_assert_eq!(bin.quote_int(), cold, "resident {:?}", resident);
            // The definition on the merged workload, independent of the
            // resolver: the quote meets the fraction, one IOPS less (above
            // the domain floor) misses it.
            let clients: Vec<&Workload> =
                resident.iter().map(|&r| tenants[r].workload()).collect();
            let merged = merge_all(&clients);
            let planner = CapacityPlanner::new(&merged, deadline);
            let quote = bin.quote_int();
            prop_assert!(planner.fraction_guaranteed(Iops::new(quote as f64)) >= fraction);
            if quote > capacity_floor(deadline) {
                prop_assert!(
                    planner.fraction_guaranteed(Iops::new((quote - 1) as f64)) < fraction,
                    "bin quote {} not minimal, resident {:?}", quote, resident
                );
            }
        }
    }

    /// Placements are identical for serial and parallel pools on random
    /// fleets.
    #[test]
    fn pack_matches_serial_for_any_pool(
        tenants in arb_fleet(),
        fraction in arb_fraction(),
        dms in 5u64..50,
        servers in 1usize..=3,
        threads in 2usize..=8,
    ) {
        let deadline = SimDuration::from_millis(dms);
        let target = QosTarget::new(fraction, deadline);
        let capacity = Iops::new(5000.0);
        let placer = FleetPlacer::new(target, capacity);
        let mut cache_a = QuoteCache::new(deadline);
        let mut cache_b = QuoteCache::new(deadline);
        let serial = placer
            .pack(&tenants, servers, &mut cache_a, &WorkerPool::serial())
            .unwrap();
        let parallel = placer
            .pack(&tenants, servers, &mut cache_b, &WorkerPool::new(threads))
            .unwrap();
        for t in &tenants {
            prop_assert_eq!(serial.server_of(t.id()), parallel.server_of(t.id()));
        }
        prop_assert_eq!(serial.unplaced(), parallel.unplaced());
        prop_assert_eq!(serial.stats(), parallel.stats());
    }
}
