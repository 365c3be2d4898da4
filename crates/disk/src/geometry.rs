//! Disk geometry: platters, tracks, sectors, and rotation.

use std::fmt;

use gqos_trace::{LogicalBlock, SimDuration};

/// Physical layout of a mechanical disk.
///
/// The default models a 15 kRPM enterprise drive of the paper's era
/// (DiskSim-style parameters): ≈73 GB over 65,536 cylinders.
///
/// # Examples
///
/// ```
/// use gqos_disk::DiskGeometry;
///
/// let g = DiskGeometry::default();
/// assert!(g.to_string().contains("73.0 GB"));
/// assert_eq!(g.rotation_time().as_millis_f64(), 4.0); // 15 kRPM
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct DiskGeometry {
    cylinders: u64,
    heads: u32,
    sectors_per_track: u32,
    bytes_per_sector: u32,
    rpm: u32,
}

impl Default for DiskGeometry {
    fn default() -> Self {
        DiskGeometry::new(65_536, 4, 544, 512, 15_000)
    }
}

impl DiskGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(
        cylinders: u64,
        heads: u32,
        sectors_per_track: u32,
        bytes_per_sector: u32,
        rpm: u32,
    ) -> Self {
        assert!(cylinders > 0, "cylinders must be positive");
        assert!(heads > 0, "heads must be positive");
        assert!(sectors_per_track > 0, "sectors per track must be positive");
        assert!(bytes_per_sector > 0, "bytes per sector must be positive");
        assert!(rpm > 0, "rpm must be positive");
        DiskGeometry {
            cylinders,
            heads,
            sectors_per_track,
            bytes_per_sector,
            rpm,
        }
    }

    /// Number of cylinders.
    pub fn cylinders(&self) -> u64 {
        self.cylinders
    }

    /// Sectors per cylinder (all heads).
    pub fn sectors_per_cylinder(&self) -> u64 {
        self.sectors_per_track as u64 * self.heads as u64
    }

    /// Total addressable sectors.
    pub fn total_sectors(&self) -> u64 {
        self.sectors_per_cylinder() * self.cylinders
    }

    /// Total capacity in bytes.
    fn capacity_bytes(&self) -> u64 {
        self.total_sectors() * self.bytes_per_sector as u64
    }

    /// Time for one full platter rotation.
    pub fn rotation_time(&self) -> SimDuration {
        SimDuration::from_nanos(60_000_000_000 / self.rpm as u64)
    }

    /// Average rotational latency (half a rotation).
    pub fn average_rotational_latency(&self) -> SimDuration {
        self.rotation_time() / 2
    }

    /// Media transfer time for `bytes` once the head is positioned.
    pub fn transfer_time(&self, bytes: u32) -> SimDuration {
        let track_bytes = self.sectors_per_track as u64 * self.bytes_per_sector as u64;
        // One rotation reads one track.
        let fraction = bytes as f64 / track_bytes as f64;
        self.rotation_time().mul_f64(fraction)
    }

    /// Cylinder containing a logical block (sectors are striped across
    /// cylinders in LBA order, the classic mapping). Out-of-range blocks
    /// wrap around.
    pub fn cylinder_of(&self, block: LogicalBlock) -> u64 {
        (block.get() % self.total_sectors()) / self.sectors_per_cylinder()
    }
}

impl fmt::Display for DiskGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cyl x {} heads x {} sectors @ {} RPM ({:.1} GB)",
            self.cylinders,
            self.heads,
            self.sectors_per_track,
            self.rpm,
            self.capacity_bytes() as f64 / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_is_enterprise_class() {
        let g = DiskGeometry::default();
        assert_eq!(g.rpm, 15_000);
        let gb = g.capacity_bytes() as f64 / 1e9;
        assert!((50.0..100.0).contains(&gb), "capacity {gb} GB");
    }

    #[test]
    fn rotation_times() {
        let g = DiskGeometry::new(10, 1, 100, 512, 7_200);
        // 7200 RPM -> 8.33 ms per rotation.
        assert!((g.rotation_time().as_millis_f64() - 8.3333).abs() < 0.001);
        assert!((g.average_rotational_latency().as_millis_f64() - 4.1666).abs() < 0.001);
    }

    #[test]
    fn transfer_scales_with_bytes() {
        let g = DiskGeometry::new(10, 1, 128, 512, 6_000); // 10 ms rotation
                                                           // A full track (65536 bytes) takes one rotation.
        assert_eq!(g.transfer_time(65_536), SimDuration::from_millis(10));
        assert_eq!(g.transfer_time(32_768), SimDuration::from_millis(5));
        assert!(g.transfer_time(512) < g.transfer_time(4096));
    }

    #[test]
    fn cylinder_mapping_is_dense() {
        let g = DiskGeometry::new(100, 2, 50, 512, 10_000);
        let spc = g.sectors_per_cylinder(); // 100
        assert_eq!(g.cylinder_of(LogicalBlock::new(0)), 0);
        assert_eq!(g.cylinder_of(LogicalBlock::new(spc - 1)), 0);
        assert_eq!(g.cylinder_of(LogicalBlock::new(spc)), 1);
        assert_eq!(g.cylinder_of(LogicalBlock::new(99 * spc)), 99);
        // Wraps rather than panicking.
        assert_eq!(g.cylinder_of(LogicalBlock::new(100 * spc)), 0);
    }

    #[test]
    fn totals_multiply_out() {
        let g = DiskGeometry::new(100, 2, 50, 512, 10_000);
        assert_eq!(g.total_sectors(), 10_000);
        assert_eq!(g.capacity_bytes(), 5_120_000);
        assert_eq!(g.cylinders(), 100);
        assert_eq!(g.heads, 2);
        assert_eq!(g.sectors_per_track, 50);
        assert_eq!(g.bytes_per_sector, 512);
    }

    #[test]
    #[should_panic(expected = "cylinders must be positive")]
    fn zero_cylinders_rejected() {
        let _ = DiskGeometry::new(0, 1, 1, 512, 7200);
    }

    #[test]
    #[should_panic(expected = "rpm must be positive")]
    fn zero_rpm_rejected() {
        let _ = DiskGeometry::new(1, 1, 1, 512, 0);
    }

    #[test]
    fn display_mentions_rpm() {
        assert!(DiskGeometry::default().to_string().contains("RPM"));
    }
}
