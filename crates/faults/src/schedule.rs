//! Seeded, deterministic capacity-fault timelines.

use std::fmt;

use gqos_sim::CapacityModulation;
use gqos_trace::{SimDuration, SimTime};
use rand::{Rng, SeedableRng};

/// Number of discrete recovery steps a [`FaultKind::RebuildRamp`] climbs
/// through between its floor rate and nominal rate.
const RAMP_STEPS: u64 = 16;

/// Longest span [`FaultSchedule::try_generate`] accepts: half the
/// representable timeline, so every generated window's `start + duration`
/// stays far from the end-of-time saturation point and the float fraction
/// arithmetic can never overflow the nanosecond grid.
pub const MAX_GENERATED_SPAN: SimDuration = SimDuration::from_nanos(u64::MAX / 2);

/// A fault-timeline generation request was malformed.
///
/// Returned by [`FaultSchedule::try_generate`] (and the channel/fleet
/// generators built on it) instead of silently clamping adversarial
/// inputs: a caller that asks for a NaN severity or a zero span almost
/// certainly holds a bug, and a clamped-to-empty schedule would hide it.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum ScheduleError {
    /// The experiment span was zero: no instant exists to place a fault.
    ZeroSpan,
    /// The experiment span exceeds [`MAX_GENERATED_SPAN`]; window
    /// arithmetic could saturate and alias distinct schedules.
    SpanOverflow {
        /// The offending span.
        span: SimDuration,
    },
    /// A severity outside `[0, 1]` (or not finite).
    BadSeverity {
        /// The offending severity.
        severity: f64,
    },
    /// A correlation outside `[0, 1]` (or not finite) for a fleet
    /// schedule.
    BadCorrelation {
        /// The offending correlation.
        correlation: f64,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ScheduleError::ZeroSpan => f.write_str("fault generation span must be positive"),
            ScheduleError::SpanOverflow { span } => {
                write!(f, "fault generation span {span} overflows the timeline")
            }
            ScheduleError::BadSeverity { severity } => {
                write!(f, "fault severity must be in [0, 1]: got {severity}")
            }
            ScheduleError::BadCorrelation { correlation } => {
                write!(f, "fleet correlation must be in [0, 1]: got {correlation}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// One class of server misbehaviour.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum FaultKind {
    /// The server serves at `1/factor` of its nominal rate (e.g. a factor
    /// of 4 quadruples every service time) — a cache flush or a competing
    /// background scan.
    Slowdown {
        /// Service-time stretch factor, at least 1.
        factor: f64,
    },
    /// The server makes no progress at all for the window's duration.
    Outage,
    /// A RAID rebuild: the rate starts at `floor` of nominal and climbs
    /// back to nominal in 16 equal steps across the window.
    RebuildRamp {
        /// Starting fraction of nominal rate, in `(0, 1]`.
        floor: f64,
    },
    /// Additive dispatch latency, uniform in `[0, max]`, drawn
    /// deterministically from the schedule seed and the dispatch instant.
    /// Jitter delays individual requests without changing the service
    /// *rate*, so it is excluded from `C_eff(t)`.
    Jitter {
        /// Largest added latency.
        max: SimDuration,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Slowdown { factor } => write!(f, "slowdown x{factor:.2}"),
            FaultKind::Outage => f.write_str("outage"),
            FaultKind::RebuildRamp { floor } => write!(f, "rebuild from {:.0}%", floor * 100.0),
            FaultKind::Jitter { max } => write!(f, "jitter <= {max}"),
        }
    }
}

/// One fault active over the half-open interval `[start, start + duration)`.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct FaultWindow {
    /// Instant the fault begins.
    pub start: SimTime,
    /// How long the fault lasts.
    pub duration: SimDuration,
    /// What kind of fault it is.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Creates a window.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero, a slowdown factor is below 1 or not
    /// finite, or a rebuild floor is outside `(0, 1]`.
    pub fn new(start: SimTime, duration: SimDuration, kind: FaultKind) -> Self {
        assert!(!duration.is_zero(), "fault window must have a duration");
        match kind {
            FaultKind::Slowdown { factor } => assert!(
                factor.is_finite() && factor >= 1.0,
                "slowdown factor must be finite and >= 1: {factor}"
            ),
            FaultKind::RebuildRamp { floor } => assert!(
                floor.is_finite() && floor > 0.0 && floor <= 1.0,
                "rebuild floor must be in (0, 1]: {floor}"
            ),
            FaultKind::Outage | FaultKind::Jitter { .. } => {}
        }
        FaultWindow {
            start,
            duration,
            kind,
        }
    }

    /// First instant after the window (saturating at the end of time).
    pub fn end(&self) -> SimTime {
        self.start
            .checked_add(self.duration)
            .unwrap_or(SimTime::MAX)
    }

    /// `true` while the fault is active at `t`.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end()
    }

    /// The window's rate multiplier at `t` (1.0 outside the window; jitter
    /// windows are rate-neutral everywhere).
    fn rate_factor_at(&self, t: SimTime) -> f64 {
        if !self.contains(t) {
            return 1.0;
        }
        match self.kind {
            FaultKind::Slowdown { factor } => 1.0 / factor,
            FaultKind::Outage => 0.0,
            FaultKind::RebuildRamp { floor } => {
                let step = self.ramp_step_at(t);
                floor + (1.0 - floor) * (step as f64 / RAMP_STEPS as f64)
            }
            FaultKind::Jitter { .. } => 1.0,
        }
    }

    /// Which recovery step of a rebuild ramp `t` falls into, in
    /// `0..RAMP_STEPS`.
    fn ramp_step_at(&self, t: SimTime) -> u64 {
        debug_assert!(self.contains(t));
        let offset = t.duration_since(self.start).as_nanos() as u128;
        let total = self.duration.as_nanos() as u128;
        ((offset * RAMP_STEPS as u128 / total) as u64).min(RAMP_STEPS - 1)
    }

    /// The smallest rate-change boundary of this window strictly after `t`,
    /// if any. Jitter windows have none (they never change the rate).
    fn next_boundary_after(&self, t: SimTime) -> Option<SimTime> {
        if matches!(self.kind, FaultKind::Jitter { .. }) {
            return None;
        }
        if t < self.start {
            return Some(self.start);
        }
        let end = self.end();
        if t >= end {
            return None;
        }
        if let FaultKind::RebuildRamp { .. } = self.kind {
            // The next step boundary inside the ramp, else the end.
            let step = self.ramp_step_at(t);
            if step + 1 < RAMP_STEPS {
                let total = self.duration.as_nanos() as u128;
                let offset = (total * (step + 1) as u128 / RAMP_STEPS as u128) as u64;
                let b = self
                    .start
                    .checked_add(SimDuration::from_nanos(offset))
                    .unwrap_or(SimTime::MAX);
                if b > t {
                    return Some(b.min(end));
                }
            }
        }
        Some(end)
    }
}

impl fmt::Display for FaultWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} for {} from {}", self.kind, self.duration, self.start)
    }
}

/// A deterministic timeline of capacity faults, reproducible from a `u64`
/// seed and composable per-experiment.
///
/// The schedule defines the effective-rate step function
/// `C_eff(t) = C · Π factor_w(t)` over all windows `w` active at `t`
/// (overlapping faults compound). [`finish_time`](FaultSchedule::finish_time)
/// integrates that step function to stretch a nominal amount of work into
/// wall-clock time; the sim crate's
/// [`ModulatedServer`](gqos_sim::ModulatedServer) calls it through the
/// [`CapacityModulation`] trait.
///
/// # Examples
///
/// ```
/// use gqos_faults::FaultSchedule;
/// use gqos_trace::{SimDuration, SimTime};
///
/// let s = FaultSchedule::new(42)
///     .with_outage(SimTime::from_secs(1), SimDuration::from_millis(500));
/// // Work dispatched mid-outage only starts progressing at t = 1.5 s.
/// let finish = s.finish_time(SimTime::from_millis(1200), SimDuration::from_millis(10));
/// assert_eq!(finish, SimTime::from_millis(1510));
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct FaultSchedule {
    windows: Vec<FaultWindow>,
    seed: u64,
}

impl FaultSchedule {
    /// Creates an empty schedule. The seed only matters once jitter windows
    /// are added (it decorrelates their per-request draws).
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            windows: Vec::new(),
            seed,
        }
    }

    /// The canonical fault-free schedule.
    pub fn empty() -> Self {
        FaultSchedule::new(0)
    }

    /// `true` when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The schedule's windows, sorted by start time.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// The schedule's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Adds a window, keeping the timeline sorted by start time.
    pub fn push(&mut self, window: FaultWindow) {
        let at = self.windows.partition_point(|w| w.start <= window.start);
        self.windows.insert(at, window);
    }

    /// Builder form of [`push`](FaultSchedule::push).
    fn with_window(mut self, window: FaultWindow) -> Self {
        self.push(window);
        self
    }

    /// Adds a slowdown window (service times stretched by `factor`).
    pub fn with_slowdown(self, start: SimTime, duration: SimDuration, factor: f64) -> Self {
        self.with_window(FaultWindow::new(
            start,
            duration,
            FaultKind::Slowdown { factor },
        ))
    }

    /// Adds a full outage window.
    pub fn with_outage(self, start: SimTime, duration: SimDuration) -> Self {
        self.with_window(FaultWindow::new(start, duration, FaultKind::Outage))
    }

    /// Adds a RAID-rebuild ramp climbing from `floor` of nominal rate back
    /// to full rate across the window.
    fn with_rebuild(self, start: SimTime, duration: SimDuration, floor: f64) -> Self {
        self.with_window(FaultWindow::new(
            start,
            duration,
            FaultKind::RebuildRamp { floor },
        ))
    }

    /// Adds a latency-jitter window (each dispatch in the window delayed by
    /// a deterministic pseudo-random amount in `[0, max]`).
    fn with_jitter(self, start: SimTime, duration: SimDuration, max: SimDuration) -> Self {
        self.with_window(FaultWindow::new(start, duration, FaultKind::Jitter { max }))
    }

    /// Merges two schedules into one timeline; overlapping faults compound
    /// multiplicatively. The left seed wins for jitter draws.
    pub fn compose(&self, other: &FaultSchedule) -> FaultSchedule {
        let mut merged = self.clone();
        for w in &other.windows {
            merged.push(*w);
        }
        merged
    }

    /// Generates a reproducible fault mix for a `span`-long experiment at
    /// the given `severity` in `[0, 1]`: a transient slowdown and a
    /// rebuild ramp at any severity above zero, plus a full outage once
    /// severity exceeds 0.5, plus dispatch jitter. Severity zero yields
    /// the empty schedule. Identical `(seed, span, severity)` triples
    /// yield identical schedules.
    ///
    /// # Panics
    ///
    /// Panics with the [`ScheduleError`] message on a zero span, a span
    /// above [`MAX_GENERATED_SPAN`], or a severity outside `[0, 1]`
    /// (including NaN); [`try_generate`](Self::try_generate) returns the
    /// typed error instead.
    pub fn generate(seed: u64, span: SimDuration, severity: f64) -> FaultSchedule {
        match FaultSchedule::try_generate(seed, span, severity) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`generate`](Self::generate) with the malformed-input cases
    /// reported as a typed [`ScheduleError`] instead of a panic.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::ZeroSpan`] when `span` is zero,
    /// [`ScheduleError::SpanOverflow`] when it exceeds
    /// [`MAX_GENERATED_SPAN`], and [`ScheduleError::BadSeverity`] when
    /// `severity` is not finite or falls outside `[0, 1]`.
    pub fn try_generate(
        seed: u64,
        span: SimDuration,
        severity: f64,
    ) -> Result<FaultSchedule, ScheduleError> {
        if span.is_zero() {
            return Err(ScheduleError::ZeroSpan);
        }
        if span > MAX_GENERATED_SPAN {
            return Err(ScheduleError::SpanOverflow { span });
        }
        if !(severity.is_finite() && (0.0..=1.0).contains(&severity)) {
            return Err(ScheduleError::BadSeverity { severity });
        }
        if severity == 0.0 {
            return Ok(FaultSchedule::new(seed));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let at = |frac: f64| SimTime::ZERO + span.mul_f64(frac);
        let mut s = FaultSchedule::new(seed);

        // A window left out (at a lower severity, or rounding to 0 ns) is
        // still drawn, so the remaining draws do not shift.
        // A transient slowdown early in the run.
        let start = rng.gen_range(0.05f64..0.35);
        let dur = span.mul_f64(rng.gen_range(0.05f64..0.15));
        let factor = 1.0 + (1.0 + rng.gen_range(0.0f64..3.0)) * severity;
        if !dur.is_zero() {
            s = s.with_slowdown(at(start), dur, factor);
        }

        // A rebuild ramp mid-run.
        let start = rng.gen_range(0.40f64..0.55);
        let dur = span.mul_f64(rng.gen_range(0.10f64..0.25));
        let floor = (1.0 - 0.9 * severity * rng.gen_range(0.5f64..1.0)).max(0.05);
        if !dur.is_zero() {
            s = s.with_rebuild(at(start), dur, floor);
        }

        // A short full outage only at high severity.
        let start = rng.gen_range(0.70f64..0.85);
        let dur = span.mul_f64(0.01 + 0.04 * severity * rng.gen_range(0.0f64..1.0));
        if severity > 0.5 && !dur.is_zero() {
            s = s.with_outage(at(start), dur);
        }

        // Late-run dispatch jitter proportional to severity.
        let start = rng.gen_range(0.88f64..0.92);
        let max = span.mul_f64(0.002 * severity);
        if !max.is_zero() {
            s = s.with_jitter(at(start), span.mul_f64(0.06), max);
        }
        Ok(s)
    }

    /// The effective-rate multiplier `C_eff(t) / C` at `t`, in `[0, 1]`.
    /// Overlapping faults compound; jitter windows do not affect the rate.
    pub fn rate_factor_at(&self, t: SimTime) -> f64 {
        self.windows.iter().map(|w| w.rate_factor_at(t)).product()
    }

    /// The smallest rate-change boundary strictly after `t`, if any fault
    /// still lies ahead.
    fn next_boundary_after(&self, t: SimTime) -> Option<SimTime> {
        self.windows
            .iter()
            .filter_map(|w| w.next_boundary_after(t))
            .min()
    }

    /// The minimum of [`rate_factor_at`](FaultSchedule::rate_factor_at)
    /// over `[from, to]` — the honest-capacity test an admission-time
    /// estimate is checked against.
    pub fn min_rate_factor(&self, from: SimTime, to: SimTime) -> f64 {
        let mut min = self.rate_factor_at(from);
        let mut t = from;
        while let Some(b) = self.next_boundary_after(t) {
            if b > to {
                break;
            }
            min = min.min(self.rate_factor_at(b));
            t = b;
        }
        min
    }

    /// `true` if any jitter window overlaps `[from, to)`. Jitter delays
    /// requests without reducing capacity, so deadline accounting treats
    /// jittered intervals separately.
    pub fn has_jitter_in(&self, from: SimTime, to: SimTime) -> bool {
        self.windows
            .iter()
            .any(|w| matches!(w.kind, FaultKind::Jitter { .. }) && w.start < to && w.end() > from)
    }

    /// The additive dispatch latency for a request dispatched at `t`: the
    /// sum of a deterministic uniform draw in `[0, max]` per active jitter
    /// window, keyed on the schedule seed, the dispatch instant, and the
    /// window's position.
    fn jitter_at(&self, t: SimTime) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for (i, w) in self.windows.iter().enumerate() {
            if let FaultKind::Jitter { max } = w.kind {
                if w.contains(t) && !max.is_zero() {
                    let h = splitmix64(
                        self.seed
                            ^ t.as_nanos().wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            ^ (i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
                    );
                    let draw = h % (max.as_nanos() + 1);
                    total = total
                        .checked_add(SimDuration::from_nanos(draw))
                        .unwrap_or(SimDuration::MAX);
                }
            }
        }
        total
    }

    /// When `work` full-rate nanoseconds of service dispatched at `start`
    /// finish, integrating the piecewise-constant rate function across the
    /// schedule and adding any dispatch jitter.
    ///
    /// With an empty schedule this is exactly `start + work` — no floating
    /// point touches the fast path, preserving byte-identical fault-free
    /// outputs.
    pub fn finish_time(&self, start: SimTime, work: SimDuration) -> SimTime {
        if self.windows.is_empty() {
            return start.checked_add(work).unwrap_or(SimTime::MAX);
        }
        let jitter = self.jitter_at(start);
        let mut t = start.checked_add(jitter).unwrap_or(SimTime::MAX);
        let mut remaining = work.as_nanos() as f64;
        loop {
            let phi = self.rate_factor_at(t);
            let boundary = self.next_boundary_after(t);
            if phi > 0.0 {
                let need = (remaining / phi).ceil();
                let finish = add_nanos_saturating(t, need);
                match boundary {
                    Some(b) if finish > b => {
                        let span = b.duration_since(t).as_nanos() as f64;
                        remaining = (remaining - span * phi).max(0.0);
                        t = b;
                    }
                    _ => return finish,
                }
            } else {
                match boundary {
                    Some(b) => t = b,
                    // Every window is finite, so a zero rate always has a
                    // boundary ahead (its own end at the latest).
                    None => unreachable!("outage with no end boundary"),
                }
            }
            if remaining <= 0.0 || t == SimTime::MAX {
                return t;
            }
        }
    }
}

impl CapacityModulation for FaultSchedule {
    fn finish_time(&self, start: SimTime, work: SimDuration) -> SimTime {
        FaultSchedule::finish_time(self, start, work)
    }

    fn is_identity(&self) -> bool {
        self.is_empty()
    }
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("no faults");
        }
        write!(f, "{} faults (seed {})", self.windows.len(), self.seed)
    }
}

/// `t + nanos` where `nanos` is a non-negative float, saturating at the end
/// of time.
fn add_nanos_saturating(t: SimTime, nanos: f64) -> SimTime {
    let headroom = (u64::MAX - t.as_nanos()) as f64;
    if nanos >= headroom {
        SimTime::MAX
    } else {
        SimTime::from_nanos(t.as_nanos() + nanos as u64)
    }
}

/// SplitMix64 finalizer — the stateless hash behind deterministic jitter
/// and the channel/fleet fault draws. Public so sibling crates (e.g. the
/// control plane's retry backoff) can share one jitter primitive instead
/// of growing subtly different ones.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChannelFaultSchedule;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn empty_schedule_is_identity() {
        let s = FaultSchedule::empty();
        assert!(s.is_empty());
        assert_eq!(s.finish_time(ms(5), dms(10)), ms(15));
        assert_eq!(s.rate_factor_at(ms(0)), 1.0);
        assert_eq!(s.min_rate_factor(ms(0), ms(1000)), 1.0);
        assert!(!s.has_jitter_in(ms(0), SimTime::MAX));
        assert_eq!(s.jitter_at(ms(3)), SimDuration::ZERO);
        assert!(CapacityModulation::is_identity(&s));
        assert_eq!(s.to_string(), "no faults");
    }

    #[test]
    fn slowdown_stretches_service() {
        let s = FaultSchedule::new(1).with_slowdown(ms(100), dms(100), 4.0);
        // Fully inside the window: 4x.
        assert_eq!(s.finish_time(ms(100), dms(10)), ms(140));
        // Before the window: untouched.
        assert_eq!(s.finish_time(ms(0), dms(10)), ms(10));
        // Straddling the start: 5 ms at full rate, remaining 5 ms at 1/4.
        assert_eq!(s.finish_time(ms(95), dms(10)), ms(120));
        // Straddling the end: 10 ms eats 2.5 ms of work, rest at full rate.
        let finish = s.finish_time(ms(190), dms(10));
        assert_eq!(finish, ms(200) + dms(10) - SimDuration::from_micros(2500));
    }

    #[test]
    fn outage_blocks_until_it_ends() {
        let s = FaultSchedule::new(1).with_outage(ms(50), dms(100));
        assert_eq!(s.finish_time(ms(60), dms(10)), ms(160));
        assert_eq!(s.rate_factor_at(ms(60)), 0.0);
        assert_eq!(s.rate_factor_at(ms(150)), 1.0);
        // Work dispatched before the outage but overrunning into it stalls.
        assert_eq!(s.finish_time(ms(45), dms(10)), ms(155));
    }

    #[test]
    fn rebuild_ramp_recovers_in_steps() {
        let s = FaultSchedule::new(1).with_rebuild(ms(0), dms(1600), 0.5);
        // First step serves at exactly the floor rate.
        assert_eq!(s.rate_factor_at(ms(0)), 0.5);
        // Monotone non-decreasing across the window.
        let mut prev = 0.0;
        for t in (0..1600).step_by(50) {
            let f = s.rate_factor_at(ms(t));
            assert!(f >= prev, "ramp decreased at {t} ms: {f} < {prev}");
            prev = f;
        }
        // Past the window: nominal.
        assert_eq!(s.rate_factor_at(ms(1600)), 1.0);
        // Last step is still below nominal.
        assert!(s.rate_factor_at(ms(1599)) < 1.0);
    }

    #[test]
    fn overlapping_faults_compound() {
        let s = FaultSchedule::new(1)
            .with_slowdown(ms(0), dms(100), 2.0)
            .with_slowdown(ms(50), dms(100), 2.0);
        assert_eq!(s.rate_factor_at(ms(25)), 0.5);
        assert_eq!(s.rate_factor_at(ms(75)), 0.25);
        assert_eq!(s.rate_factor_at(ms(125)), 0.5);
    }

    #[test]
    fn min_rate_factor_sees_interior_dips() {
        let s = FaultSchedule::new(1).with_outage(ms(100), dms(10));
        assert_eq!(s.min_rate_factor(ms(0), ms(50)), 1.0);
        assert_eq!(s.min_rate_factor(ms(0), ms(200)), 0.0);
        assert_eq!(s.min_rate_factor(ms(105), ms(106)), 0.0);
        assert_eq!(s.min_rate_factor(ms(110), ms(200)), 1.0);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let s = FaultSchedule::new(9).with_jitter(ms(0), dms(1000), dms(5));
        let a = s.jitter_at(ms(123));
        assert_eq!(a, s.jitter_at(ms(123)), "same instant, same draw");
        assert!(a <= dms(5));
        assert!(s.has_jitter_in(ms(500), ms(600)));
        assert!(!s.has_jitter_in(ms(1000), ms(2000)));
        // A different seed decorrelates the draws somewhere.
        let other = FaultSchedule::new(10).with_jitter(ms(0), dms(1000), dms(5));
        assert!(
            (0..100).any(|t| s.jitter_at(ms(t)) != other.jitter_at(ms(t))),
            "seed had no effect on jitter"
        );
    }

    #[test]
    fn jitter_delays_finish_time() {
        let s = FaultSchedule::new(9).with_jitter(ms(0), dms(1000), dms(5));
        let finish = s.finish_time(ms(100), dms(10));
        assert_eq!(finish, ms(110) + s.jitter_at(ms(100)));
    }

    #[test]
    fn compose_merges_sorted() {
        let a = FaultSchedule::new(1).with_outage(ms(500), dms(10));
        let b = FaultSchedule::new(2).with_slowdown(ms(100), dms(10), 2.0);
        let c = a.compose(&b);
        assert_eq!(c.windows().len(), 2);
        assert!(c.windows()[0].start <= c.windows()[1].start);
        assert_eq!(c.seed(), 1);
    }

    #[test]
    fn generate_is_reproducible_and_scales_with_severity() {
        let span = SimDuration::from_secs(120);
        let a = FaultSchedule::generate(42, span, 0.8);
        let b = FaultSchedule::generate(42, span, 0.8);
        assert_eq!(a, b);
        assert!(FaultSchedule::generate(42, span, 0.0).is_empty());
        // High severity includes the outage; low severity does not.
        assert!(a
            .windows()
            .iter()
            .any(|w| matches!(w.kind, FaultKind::Outage)));
        let low = FaultSchedule::generate(42, span, 0.3);
        assert!(!low
            .windows()
            .iter()
            .any(|w| matches!(w.kind, FaultKind::Outage)));
        // Different seeds move the windows.
        assert_ne!(a, FaultSchedule::generate(43, span, 0.8));
    }

    #[test]
    fn try_generate_rejects_adversarial_inputs_with_typed_errors() {
        let span = SimDuration::from_secs(120);
        assert_eq!(
            FaultSchedule::try_generate(42, SimDuration::ZERO, 0.5).unwrap_err(),
            ScheduleError::ZeroSpan
        );
        assert_eq!(
            FaultSchedule::try_generate(42, SimDuration::MAX, 0.5).unwrap_err(),
            ScheduleError::SpanOverflow {
                span: SimDuration::MAX
            }
        );
        for severity in [7.0, -0.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    FaultSchedule::try_generate(42, span, severity),
                    Err(ScheduleError::BadSeverity { .. })
                ),
                "severity {severity} accepted"
            );
        }
        // Severity zero is a valid request for the fault-free schedule.
        assert!(FaultSchedule::try_generate(42, span, 0.0)
            .unwrap()
            .is_empty());
        // The boundary span is accepted.
        assert!(FaultSchedule::try_generate(42, MAX_GENERATED_SPAN, 0.5).is_ok());
        // Error messages are descriptive.
        assert!(ScheduleError::ZeroSpan.to_string().contains("positive"));
        assert!(ScheduleError::SpanOverflow { span }
            .to_string()
            .contains("overflows"));
        assert!(ScheduleError::BadSeverity { severity: 7.0 }
            .to_string()
            .contains("[0, 1]"));
        assert!(ScheduleError::BadCorrelation { correlation: 2.0 }
            .to_string()
            .contains("[0, 1]"));
    }

    #[test]
    fn generators_leave_out_windows_that_round_to_zero() {
        // A window that rounds to 0 ns is left out, not a constructor panic.
        for nanos in 1..=100 {
            let span = SimDuration::from_nanos(nanos);
            for severity in [0.3, 0.8, 1.0] {
                for seed in 0..200 {
                    assert!(FaultSchedule::try_generate(seed, span, severity).is_ok());
                    assert!(ChannelFaultSchedule::try_generate(seed, span, severity).is_ok());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "fault severity must be in [0, 1]")]
    fn generate_panics_with_the_schedule_error_message() {
        let _ = FaultSchedule::generate(42, SimDuration::from_secs(1), f64::NAN);
    }

    #[test]
    fn finish_time_monotone_in_dispatch_time() {
        let s = FaultSchedule::generate(7, SimDuration::from_secs(100), 0.9);
        let mut prev = SimTime::ZERO;
        for t in (0..100_000).step_by(997) {
            let f = s.finish_time(ms(t), dms(7));
            assert!(
                f >= prev.max(ms(t)),
                "finish went backwards at {t} ms: {f} < {prev}"
            );
            // Jitter excluded, finishing cannot beat the no-fault time.
            if !s.has_jitter_in(ms(t), f) {
                assert!(f >= ms(t) + dms(7));
            }
            prev = f;
        }
    }

    #[test]
    fn window_display_and_validation() {
        let w = FaultWindow::new(ms(1), dms(2), FaultKind::Outage);
        assert!(w.to_string().contains("outage"));
        assert!(FaultSchedule::new(0)
            .with_rebuild(ms(0), dms(10), 0.5)
            .to_string()
            .contains("1 faults"));
    }

    #[test]
    #[should_panic(expected = "must have a duration")]
    fn zero_duration_rejected() {
        let _ = FaultWindow::new(ms(0), SimDuration::ZERO, FaultKind::Outage);
    }

    #[test]
    #[should_panic(expected = "slowdown factor")]
    fn sub_unity_slowdown_rejected() {
        let _ = FaultWindow::new(ms(0), dms(1), FaultKind::Slowdown { factor: 0.5 });
    }

    #[test]
    #[should_panic(expected = "rebuild floor")]
    fn bad_rebuild_floor_rejected() {
        let _ = FaultWindow::new(ms(0), dms(1), FaultKind::RebuildRamp { floor: 0.0 });
    }

    #[test]
    fn windows_near_the_end_of_time_saturate() {
        let s = FaultSchedule::new(1).with_window(FaultWindow::new(
            SimTime::from_nanos(u64::MAX - 10),
            SimDuration::MAX,
            FaultKind::Slowdown { factor: 2.0 },
        ));
        assert_eq!(s.windows()[0].end(), SimTime::MAX);
        let f = s.finish_time(SimTime::from_nanos(u64::MAX - 5), SimDuration::from_secs(1));
        assert_eq!(f, SimTime::MAX);
    }
}
