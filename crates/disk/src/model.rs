//! The mechanical disk service model.

use std::fmt;

use gqos_sim::ServiceModel;
use gqos_trace::{Request, SimDuration, SimTime};

use crate::geometry::DiskGeometry;
use crate::seek::SeekProfile;

/// A stateful mechanical disk: service time = seek (head movement from the
/// previous request's cylinder) + average rotational latency + media
/// transfer. Wrap it in [`CachedDisk`](crate::CachedDisk) for an on-board
/// cache.
///
/// This is the workspace's DiskSim stand-in: unlike
/// [`FixedRateServer`](gqos_sim::FixedRateServer), throughput depends on
/// request locality, so it exercises the QoS schedulers against a
/// fluctuating-capacity server (the situation SFQ-style virtual clocks are
/// designed for).
///
/// # Examples
///
/// ```
/// use gqos_disk::DiskModel;
/// use gqos_sim::ServiceModel;
/// use gqos_trace::{Request, SimTime};
///
/// let mut disk = DiskModel::builder().build();
/// let t = disk.service_time(&Request::at(SimTime::ZERO), SimTime::ZERO);
/// assert!(t.as_millis_f64() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct DiskModel {
    geometry: DiskGeometry,
    seek: SeekProfile,
    current_cylinder: u64,
}

/// Configures a [`DiskModel`]; created by [`DiskModel::builder`].
#[derive(Clone, Debug)]
pub struct DiskModelBuilder {
    geometry: DiskGeometry,
    seek: SeekProfile,
}

impl DiskModel {
    /// Starts building a disk with default enterprise-class parameters.
    pub fn builder() -> DiskModelBuilder {
        DiskModelBuilder {
            geometry: DiskGeometry::default(),
            seek: SeekProfile::default(),
        }
    }

    /// The disk's geometry.
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geometry
    }
}

impl DiskModelBuilder {
    /// Sets the geometry.
    pub fn geometry(mut self, geometry: DiskGeometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Sets the seek profile.
    pub fn seek(mut self, seek: SeekProfile) -> Self {
        self.seek = seek;
        self
    }

    /// Finishes the disk model.
    pub fn build(self) -> DiskModel {
        DiskModel {
            geometry: self.geometry,
            seek: self.seek,
            current_cylinder: 0,
        }
    }
}

impl ServiceModel for DiskModel {
    fn service_time(&mut self, request: &Request, _now: SimTime) -> SimDuration {
        let target = self.geometry.cylinder_of(request.block);
        let distance = target.abs_diff(self.current_cylinder);
        self.current_cylinder = target;
        self.seek.seek_time(distance, self.geometry.cylinders())
            + self.geometry.average_rotational_latency()
            + self.geometry.transfer_time(request.bytes)
    }
}

impl fmt::Display for DiskModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "disk[{}, {}]", self.geometry, self.seek)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_trace::LogicalBlock;

    fn req_at_block(lba: u64) -> Request {
        Request::at(SimTime::ZERO).with_block(LogicalBlock::new(lba))
    }

    #[test]
    fn sequential_access_is_faster_than_random() {
        let mut disk = DiskModel::builder().build();
        let spc = disk.geometry().sectors_per_cylinder();
        // Repeated access to the same cylinder: no seek after the first.
        let mut seq_total = SimDuration::ZERO;
        for _ in 0..10 {
            seq_total += disk.service_time(&req_at_block(0), SimTime::ZERO);
        }
        // Long strides: full seeks each time.
        let mut disk2 = DiskModel::builder().build();
        let mut rand_total = SimDuration::ZERO;
        for i in 0..10u64 {
            let lba = (i % 2) * (60_000 * spc); // ping-pong across the disk
            rand_total += disk2.service_time(&req_at_block(lba), SimTime::ZERO);
        }
        assert!(
            rand_total > seq_total.mul_f64(1.5),
            "sequential {seq_total}, random {rand_total}"
        );
    }

    #[test]
    fn service_time_components_add_up() {
        let mut disk = DiskModel::builder().build();
        let g = *disk.geometry();
        // First request from cylinder 0 to cylinder 0: latency + transfer.
        let t = disk.service_time(&req_at_block(0), SimTime::ZERO);
        let expected = g.average_rotational_latency() + g.transfer_time(8192);
        assert_eq!(t, expected);
    }

    #[test]
    fn head_position_is_tracked() {
        let mut disk = DiskModel::builder().build();
        let spc = disk.geometry().sectors_per_cylinder();
        assert_eq!(disk.current_cylinder, 0);
        disk.service_time(&req_at_block(10 * spc), SimTime::ZERO);
        assert_eq!(disk.current_cylinder, 10);
    }

    #[test]
    fn realistic_throughput_range() {
        // Random 8 KiB requests across the whole disk should land in the
        // classic 100–300 IOPS range for a 15 kRPM drive.
        let mut disk = DiskModel::builder().build();
        let total = disk.geometry().total_sectors();
        let mut sum = SimDuration::ZERO;
        let n = 200u64;
        let mut lba = 12345u64;
        for _ in 0..n {
            lba = lba
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            sum += disk.service_time(&req_at_block(lba % total), SimTime::ZERO);
        }
        let mean_ms = sum.as_millis_f64() / n as f64;
        let iops = 1000.0 / mean_ms;
        assert!((80.0..400.0).contains(&iops), "random IOPS {iops:.0}");
    }
}
