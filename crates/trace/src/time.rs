//! Simulation time, duration, and service-rate newtypes.
//!
//! All simulation arithmetic is done on nanosecond-resolution integers so
//! that runs are exactly reproducible across platforms; floating point only
//! appears at the boundaries (statistics, rate conversions).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An instant on the simulation timeline, in nanoseconds since time zero.
///
/// `SimTime` is an absolute point; the difference of two `SimTime`s is a
/// [`SimDuration`].
///
/// # Examples
///
/// ```
/// use gqos_trace::{SimDuration, SimTime};
///
/// let t = SimTime::from_millis(250) + SimDuration::from_millis(750);
/// assert_eq!(t, SimTime::from_secs(1));
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use gqos_trace::SimDuration;
///
/// let delta = SimDuration::from_millis(10);
/// assert_eq!(delta.as_secs_f64(), 0.010);
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Default)]
pub struct SimDuration(u64);

const NANOS_PER_MICRO: u64 = 1_000;
const NANOS_PER_MILLI: u64 = 1_000_000;
const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    /// The origin of the simulation timeline.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from a raw nanosecond count.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * NANOS_PER_MICRO)
    }

    /// Creates an instant from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * NANOS_PER_MILLI)
    }

    /// Creates an instant from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Creates an instant from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, non-finite, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0 && secs <= (u64::MAX / NANOS_PER_SEC) as f64,
            "invalid simulation time in seconds: {secs}"
        );
        SimTime((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanosecond count since time zero.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// This instant expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Time elapsed from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier instant is later than self"),
        )
    }

    /// Time elapsed from `earlier` to `self`, or zero if `earlier` is later.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, rhs: SimDuration) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Checked subtraction of a duration; `None` on underflow.
    pub fn checked_sub(self, rhs: SimDuration) -> Option<SimTime> {
        self.0.checked_sub(rhs.0).map(SimTime)
    }
}

impl SimDuration {
    /// An empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from a raw nanosecond count.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * NANOS_PER_MICRO)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * NANOS_PER_MILLI)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Creates a span from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, non-finite, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0 && secs <= (u64::MAX / NANOS_PER_SEC) as f64,
            "invalid simulation duration in seconds: {secs}"
        );
        SimDuration((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// This span expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// `true` if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Span scaled by a non-negative factor, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid duration scale factor: {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(rhs.0).map(SimDuration)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// Whole number of `rhs`-sized steps that fit in `self`.
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({:.6}s)", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({:.6}s)", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A service or arrival rate in I/O operations per second.
///
/// The value is guaranteed finite and strictly positive.
///
/// # Examples
///
/// ```
/// use gqos_trace::Iops;
///
/// let capacity = Iops::new(1000.0);
/// assert_eq!(capacity.service_time().as_millis_f64(), 1.0);
/// ```
#[derive(Copy, Clone, PartialEq, PartialOrd)]
pub struct Iops(f64);

impl Iops {
    /// Creates a rate from operations per second.
    ///
    /// # Panics
    ///
    /// Panics if `ops_per_sec` is not finite and strictly positive.
    pub fn new(ops_per_sec: f64) -> Self {
        Iops::try_new(ops_per_sec).unwrap_or_else(|| panic!("invalid IOPS rate: {ops_per_sec}"))
    }

    /// Creates a rate, returning `None` when `ops_per_sec` is not finite and
    /// strictly positive.
    pub fn try_new(ops_per_sec: f64) -> Option<Self> {
        (ops_per_sec.is_finite() && ops_per_sec > 0.0).then_some(Iops(ops_per_sec))
    }

    /// The rate as operations per second.
    pub const fn get(self) -> f64 {
        self.0
    }

    /// The time to serve one request at this rate, rounded to nanoseconds
    /// and at least 1 ns, so a server always makes progress.
    pub fn service_time(self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.0).max(SimDuration::from_nanos(1))
    }

    /// The whole number of requests this rate completes within `window`:
    /// the paper's primary-queue bound `maxQ1 = ⌊C·δ⌋`, the one definition
    /// every admission rule, kernel and planner uses.
    ///
    /// The floor is exact for the rate's exact binary value (no rounding of
    /// `C·δ` in floating point), so an integer rate gives exactly
    /// `C·δ_ns / 10⁹`. It saturates at `u64::MAX`; a primary queue is a
    /// `u64` count, so it can never reach a saturated bound and saturation
    /// decides nothing differently from the exact value.
    pub fn requests_within(self, window: SimDuration) -> u64 {
        // The rate is exactly `m·2^e` with `m < 2^53`, so `m·δ_ns < 2^117`.
        let bits = self.0.to_bits();
        let biased = ((bits >> 52) & 0x7ff) as i32;
        let fraction = bits & ((1 << 52) - 1);
        let (m, e) = if biased == 0 {
            (fraction, -1074)
        } else {
            (fraction | 1 << 52, biased - 1075)
        };
        let product = u128::from(m) * u128::from(window.as_nanos());
        let nanos = u128::from(NANOS_PER_SEC);
        let q = if product == 0 {
            0
        } else if e >= 0 {
            // `product·2^e ≥ 2^127` puts the quotient far past `u64::MAX`.
            if e.unsigned_abs() >= product.leading_zeros() {
                return u64::MAX;
            }
            (product << e) / nanos
        } else {
            // `⌊⌊x / 10⁹⌋ / 2^k⌋ = ⌊x / (10⁹·2^k)⌋`.
            (product / nanos).checked_shr(e.unsigned_abs()).unwrap_or(0)
        };
        u64::try_from(q).unwrap_or(u64::MAX)
    }
}

impl fmt::Debug for Iops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Iops({})", self.0)
    }
}

impl fmt::Display for Iops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} IOPS", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
        assert_eq!(SimTime::from_secs_f64(2.5), SimTime::from_millis(2500));
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(
            SimDuration::from_secs_f64(0.010),
            SimDuration::from_millis(10)
        );
    }

    #[test]
    fn time_arithmetic_round_trips() {
        let base = SimTime::from_secs(5);
        let step = SimDuration::from_millis(1500);
        let later = base + step;
        assert_eq!(later - base, step);
        assert_eq!(later - step, base);
        assert_eq!(later.duration_since(base), step);
    }

    #[test]
    fn saturating_duration_since_clamps() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.saturating_duration_since(late), SimDuration::ZERO);
        assert_eq!(
            late.saturating_duration_since(early),
            SimDuration::from_secs(1)
        );
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_backwards() {
        let _ = SimTime::from_secs(1).duration_since(SimTime::from_secs(2));
    }

    #[test]
    fn duration_division_counts_steps() {
        let span = SimDuration::from_secs(1);
        let window = SimDuration::from_millis(100);
        assert_eq!(span / window, 10);
        assert_eq!(SimDuration::from_millis(250) / window, 2);
        assert_eq!(
            SimDuration::from_millis(250) % window,
            SimDuration::from_millis(50)
        );
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(1));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
        assert_eq!(d * 3, SimDuration::from_secs(6));
        assert_eq!(d / 4, SimDuration::from_millis(500));
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn iops_service_time() {
        assert_eq!(
            Iops::new(100.0).service_time(),
            SimDuration::from_millis(10)
        );
        assert_eq!(
            Iops::new(1_000_000.0).service_time(),
            SimDuration::from_micros(1)
        );
        // Faster than 2·10⁹ IOPS rounds to 0 ns; the floor keeps 1 ns.
        assert_eq!(Iops::new(1e12).service_time(), SimDuration::from_nanos(1));
    }

    #[test]
    fn iops_requests_within_floors() {
        let c = Iops::new(1000.0);
        assert_eq!(c.requests_within(SimDuration::from_millis(10)), 10);
        let c = Iops::new(150.0);
        // 150 IOPS * 10 ms = 1.5 -> 1 request.
        assert_eq!(c.requests_within(SimDuration::from_millis(10)), 1);
    }

    #[test]
    fn iops_requests_within_is_exact_for_integer_rates() {
        let mut wrong = Vec::new();
        for c in 1..=2000u64 {
            for ms in 1..=1000u64 {
                let window = SimDuration::from_millis(ms);
                let exact = u128::from(c) * u128::from(window.as_nanos()) / 1_000_000_000;
                let got = Iops::new(c as f64).requests_within(window);
                if u128::from(got) != exact {
                    wrong.push((c, ms, got, exact));
                }
            }
        }
        assert!(
            wrong.is_empty(),
            "{} (IOPS, ms) pairs off the exact floor, e.g. {:?}",
            wrong.len(),
            &wrong[..wrong.len().min(5)]
        );
    }

    #[test]
    fn iops_requests_within_is_exact_for_dyadic_rates() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..100_000 {
            let j = (next() % 31) as u32;
            let k = next() % (1 << 40);
            let window = SimDuration::from_nanos(next() % 100_000_000_000 + 1);
            let Some(rate) = Iops::try_new(k as f64 / (1u64 << j) as f64) else {
                continue;
            };
            let exact = u128::from(k) * u128::from(window.as_nanos()) / (1_000_000_000u128 << j);
            assert_eq!(
                u128::from(rate.requests_within(window)),
                exact,
                "{k} / 2^{j} IOPS over {} ns",
                window.as_nanos()
            );
        }
    }

    #[test]
    fn iops_requests_within_saturates_and_underflows() {
        let ten_s = SimDuration::from_secs(10);
        assert_eq!(Iops::new(1e30).requests_within(ten_s), u64::MAX);
        assert_eq!(Iops::new(f64::MAX).requests_within(ten_s), u64::MAX);
        // 2^61 IOPS x 8 s = 2^64 exactly, one past the counter; 1 ns less
        // floors to 2^64 − ⌈2^61 / 10⁹⌉.
        let c = Iops::new(2f64.powi(61));
        assert_eq!(c.requests_within(SimDuration::from_secs(8)), u64::MAX);
        let just_under = SimDuration::from_nanos(8_000_000_000 - 1);
        assert_eq!(c.requests_within(just_under), u64::MAX - 2_305_843_009);
        assert_eq!(
            Iops::new(1.8e18).requests_within(ten_s),
            18_000_000_000_000_000_000
        );
        let subnormal = Iops::new(f64::from_bits(1));
        assert_eq!(subnormal.requests_within(ten_s), 0);
        assert_eq!(Iops::new(1e6).requests_within(SimDuration::ZERO), 0);
    }

    #[test]
    fn iops_validation() {
        assert!(Iops::try_new(0.0).is_none());
        assert!(Iops::try_new(-5.0).is_none());
        assert!(Iops::try_new(f64::NAN).is_none());
        assert!(Iops::try_new(f64::INFINITY).is_none());
        assert!(Iops::try_new(1.0).is_some());
    }

    #[test]
    #[should_panic(expected = "invalid IOPS")]
    fn iops_new_panics_on_zero() {
        let _ = Iops::new(0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(SimDuration::from_millis(10).to_string(), "0.010000s");
        assert_eq!(Iops::new(534.0).to_string(), "534.0 IOPS");
        assert!(!format!("{:?}", SimTime::ZERO).is_empty());
    }
}
