//! Host-speed reference: a fixed kernel timed between ops.
//!
//! The benchmark host is a shared VM whose speed drifts in phases that can
//! outlast a whole run, so best-of-repetition op times alone still move
//! between runs of identical code. The kernel here uses nothing from the
//! repository — only `std`'s `BTreeMap` and slice sort on fixed data — so
//! a change to the code under test cannot move it; only the host can. The
//! end-to-end times are reported scaled to a host on which the kernel takes
//! [`NOMINAL_NS`].
//!
//! The kernel is small and cache-resident, like the control plane's maps
//! and the data plane's per-chunk queues: a multiply chain, by contrast,
//! does not slow in the host's slow phases.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The kernel's time on a host running at the speed the reported figures
/// are scaled to: about its fast-phase time on a 2-vCPU Xeon VM.
pub const NOMINAL_NS: f64 = 250_000.0;

/// Entries of the lookup map, lookups per sample, and sorted values.
const MAP_KEYS: u64 = 4096;
const LOOKUPS: u64 = 2048;
const SORTED: u64 = 8192;

struct Data {
    map: BTreeMap<u64, u64>,
    values: Vec<u64>,
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn data() -> &'static Data {
    static DATA: OnceLock<Data> = OnceLock::new();
    DATA.get_or_init(|| Data {
        map: (0..MAP_KEYS).map(|k| (mix(k), k)).collect(),
        values: (0..SORTED).map(|k| mix(k ^ 0x5EED)).collect(),
    })
}

/// Builds the kernel's data, so that no sample pays for it.
pub fn warm() {
    data();
}

/// Runs the kernel once and returns its wall time in nanoseconds: half of
/// the lookups miss, and the sort starts from the same shuffle every time.
pub fn sample() -> u64 {
    let d = data();
    let t0 = Instant::now();
    let mut found = 0u64;
    for k in 0..LOOKUPS {
        if let Some(v) = d.map.get(&mix(k % (2 * MAP_KEYS))) {
            found = found.wrapping_add(*v);
        }
    }
    let mut values = d.values.clone();
    values.sort_unstable();
    black_box((found, values));
    t0.elapsed().as_nanos() as u64
}

/// The run's host speed from its samples: their 10th percentile, the
/// reference's counterpart of an op's best repetition.
pub fn run_ns(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return NOMINAL_NS;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) / 10] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_take_time_and_the_run_figure_is_a_low_quantile() {
        warm();
        assert!(sample() > 0);
        let samples: Vec<u64> = (1..=20).rev().collect();
        assert_eq!(run_ns(&samples), 2.0);
        assert_eq!(run_ns(&[]), NOMINAL_NS);
    }
}
