//! Seek-time modelling.

use std::fmt;

use gqos_trace::SimDuration;

/// A seek-time curve: the classic square-root model used by disk
/// simulators, `t(d) = t₁ + (tₘₐₓ − t₁)·√((d−1)/(D−1))` for a seek of `d`
/// cylinders on a disk with maximum seek distance `D`, and `t(0) = 0`.
///
/// Short seeks are dominated by arm acceleration (√ shape); the longest
/// seek pins the curve's right edge.
///
/// # Examples
///
/// ```
/// use gqos_disk::SeekProfile;
/// use gqos_trace::SimDuration;
///
/// let seek = SeekProfile::default();
/// assert_eq!(seek.seek_time(0, 65_536), SimDuration::ZERO);
/// assert!(seek.seek_time(1, 65_536) < seek.seek_time(65_535, 65_536));
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct SeekProfile {
    track_to_track: SimDuration,
    max_seek: SimDuration,
}

impl Default for SeekProfile {
    /// A 15 kRPM enterprise profile: 0.4 ms track-to-track, 7.5 ms full
    /// stroke.
    fn default() -> Self {
        SeekProfile::new(
            SimDuration::from_micros(400),
            SimDuration::from_micros(7_500),
        )
    }
}

impl SeekProfile {
    /// Creates a profile from the single-track and full-stroke seek times.
    ///
    /// # Panics
    ///
    /// Panics if `track_to_track` is zero or exceeds `max_seek`.
    pub fn new(track_to_track: SimDuration, max_seek: SimDuration) -> Self {
        assert!(
            !track_to_track.is_zero(),
            "track-to-track seek must be positive"
        );
        assert!(
            track_to_track <= max_seek,
            "track-to-track seek exceeds the full-stroke seek"
        );
        SeekProfile {
            track_to_track,
            max_seek,
        }
    }

    /// The full-stroke seek time.
    pub fn max_seek(&self) -> SimDuration {
        self.max_seek
    }

    /// Seek time for a distance of `distance` cylinders on a disk with
    /// `cylinders` cylinders total. Zero distance costs nothing.
    ///
    /// # Panics
    ///
    /// Panics if `cylinders` is zero.
    pub fn seek_time(&self, distance: u64, cylinders: u64) -> SimDuration {
        assert!(cylinders > 0, "cylinder count must be positive");
        if distance == 0 {
            return SimDuration::ZERO;
        }
        let max_distance = (cylinders - 1).max(1);
        let distance = distance.min(max_distance);
        if max_distance == 1 {
            return self.track_to_track;
        }
        let frac = ((distance - 1) as f64 / (max_distance - 1) as f64).sqrt();
        let extra = (self.max_seek - self.track_to_track).mul_f64(frac);
        self.track_to_track + extra
    }
}

impl fmt::Display for SeekProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seek {:.2}..{:.2} ms",
            self.track_to_track.as_millis_f64(),
            self.max_seek.as_millis_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CYLS: u64 = 65_536;

    #[test]
    fn zero_distance_is_free() {
        assert_eq!(SeekProfile::default().seek_time(0, CYLS), SimDuration::ZERO);
    }

    #[test]
    fn single_track_seek_is_the_floor() {
        let s = SeekProfile::default();
        assert_eq!(s.seek_time(1, CYLS), s.track_to_track);
    }

    #[test]
    fn full_stroke_is_the_ceiling() {
        let s = SeekProfile::default();
        assert_eq!(s.seek_time(CYLS - 1, CYLS), s.max_seek());
        // Overshoot clamps.
        assert_eq!(s.seek_time(10 * CYLS, CYLS), s.max_seek());
    }

    #[test]
    fn curve_is_monotonic() {
        let s = SeekProfile::default();
        let mut prev = SimDuration::ZERO;
        for d in [0u64, 1, 2, 16, 256, 4096, 20_000, CYLS - 1] {
            let t = s.seek_time(d, CYLS);
            assert!(t >= prev, "seek not monotone at d={d}");
            prev = t;
        }
    }

    #[test]
    fn curve_is_concave_sqrt_shape() {
        // Half the distance costs much more than half the extra time.
        let s = SeekProfile::default();
        let half = s.seek_time(CYLS / 2, CYLS).as_nanos() as f64;
        let full = s.seek_time(CYLS - 1, CYLS).as_nanos() as f64;
        assert!(half > 0.65 * full, "half {half}, full {full}");
    }

    #[test]
    fn two_cylinder_disk_degenerate_case() {
        let s = SeekProfile::default();
        assert_eq!(s.seek_time(1, 2), s.track_to_track);
    }

    #[test]
    #[should_panic(expected = "track-to-track seek exceeds")]
    fn inverted_profile_rejected() {
        let _ = SeekProfile::new(SimDuration::from_millis(10), SimDuration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "cylinder count")]
    fn zero_cylinders_rejected() {
        let _ = SeekProfile::default().seek_time(1, 0);
    }

    #[test]
    fn display_and_accessors() {
        let s = SeekProfile::default();
        assert!(s.to_string().contains("seek"));
        assert!(s.max_seek() > s.track_to_track);
    }
}
