//! Deterministic control-channel fault timelines: dropped, duplicated,
//! and delayed message deliveries.
//!
//! The server-side [`FaultSchedule`](crate::FaultSchedule) models what a
//! machine does to the *work*; this module models what the network does
//! to the *commands*. A [`ChannelFaultSchedule`] assigns every message
//! send a [`ChannelFate`] — delivered after some latency, delivered twice,
//! or dropped outright — as a pure function of `(seed, send instant,
//! message key)`. Per-message delay draws vary independently, so messages
//! sent close together naturally *reorder* without any extra machinery:
//! a retry routinely overtakes the original it retransmits.
//!
//! Determinism is the point: the control-plane chaos harness replays the
//! exact same loss pattern from a pinned seed, so an invariant violation
//! reproduces from the failing seed alone.

use std::fmt;

use gqos_trace::{SimDuration, SimTime};
use rand::{Rng, SeedableRng};

use crate::schedule::{splitmix64, ScheduleError, MAX_GENERATED_SPAN};

/// One class of channel misbehaviour.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum ChannelFaultKind {
    /// Each message in the window is lost with the given probability.
    Drop {
        /// Per-message loss probability in `[0, 1]`.
        probability: f64,
    },
    /// Each message in the window is delivered **twice** with the given
    /// probability — the second copy after an extra deterministic delay.
    Duplicate {
        /// Per-message duplication probability in `[0, 1]`.
        probability: f64,
    },
    /// Each message in the window is delayed by an extra deterministic
    /// uniform draw in `[0, max]` on top of the base latency. Unequal
    /// draws on nearby messages reorder them.
    Delay {
        /// Largest added latency.
        max: SimDuration,
    },
}

impl fmt::Display for ChannelFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelFaultKind::Drop { probability } => {
                write!(f, "drop p={probability:.2}")
            }
            ChannelFaultKind::Duplicate { probability } => {
                write!(f, "duplicate p={probability:.2}")
            }
            ChannelFaultKind::Delay { max } => write!(f, "delay <= {max}"),
        }
    }
}

/// One channel fault active over `[start, start + duration)`.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ChannelWindow {
    /// Instant the fault begins.
    pub start: SimTime,
    /// How long the fault lasts.
    pub duration: SimDuration,
    /// What the channel does to messages in the window.
    pub kind: ChannelFaultKind,
}

impl ChannelWindow {
    /// Creates a window.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero or a probability is not finite or
    /// outside `[0, 1]`.
    pub fn new(start: SimTime, duration: SimDuration, kind: ChannelFaultKind) -> Self {
        assert!(!duration.is_zero(), "channel window must have a duration");
        match kind {
            ChannelFaultKind::Drop { probability }
            | ChannelFaultKind::Duplicate { probability } => {
                assert!(
                    probability.is_finite() && (0.0..=1.0).contains(&probability),
                    "channel fault probability must be in [0, 1]: {probability}"
                );
            }
            ChannelFaultKind::Delay { .. } => {}
        }
        ChannelWindow {
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
}

impl fmt::Display for ChannelWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} for {} from {}", self.kind, self.duration, self.start)
    }
}

/// What the channel did to one message send.
///
/// `delivery` is the total latency of the primary copy (`None` when the
/// message was dropped — and a dropped message has no duplicate either).
/// `duplicate` is the total latency of an extra copy when a duplication
/// window fired.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ChannelFate {
    /// Latency of the delivered message, `None` when dropped.
    pub delivery: Option<SimDuration>,
    /// Latency of the extra duplicate copy, if one was created.
    pub duplicate: Option<SimDuration>,
}

/// A deterministic timeline of channel faults, reproducible from a `u64`
/// seed.
///
/// Outside every window the channel is perfect: each message is delivered
/// exactly once after [`base_latency`](Self::base_latency). Inside a
/// window, each message's fate is a stateless [`splitmix64`] draw keyed
/// by the schedule seed, the message key, and the window index — the same
/// `(at, key)` always resolves to the same [`ChannelFate`].
///
/// # Examples
///
/// ```
/// use gqos_faults::{ChannelFaultSchedule, ChannelFate};
/// use gqos_trace::{SimDuration, SimTime};
///
/// let ch = ChannelFaultSchedule::new(7, SimDuration::from_millis(1))
///     .with_drop(SimTime::from_secs(1), SimDuration::from_secs(1), 1.0);
/// // Outside the window: perfect delivery at base latency.
/// let ok = ch.fate(SimTime::ZERO, 0);
/// assert_eq!(ok.delivery, Some(SimDuration::from_millis(1)));
/// // Inside a p=1 drop window: lost.
/// assert_eq!(ch.fate(SimTime::from_millis(1500), 0).delivery, None);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct ChannelFaultSchedule {
    seed: u64,
    base_latency: SimDuration,
    windows: Vec<ChannelWindow>,
}

impl ChannelFaultSchedule {
    /// An empty (perfect) channel with the given base one-way latency.
    pub fn new(seed: u64, base_latency: SimDuration) -> Self {
        ChannelFaultSchedule {
            seed,
            base_latency,
            windows: Vec::new(),
        }
    }

    /// The schedule's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault-free one-way latency.
    pub fn base_latency(&self) -> SimDuration {
        self.base_latency
    }

    /// `true` when no faults are scheduled — a perfect channel.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The schedule's windows, sorted by start time.
    pub fn windows(&self) -> &[ChannelWindow] {
        &self.windows
    }

    /// Adds a window, keeping the timeline sorted by start time.
    pub fn push(&mut self, window: ChannelWindow) {
        let at = self.windows.partition_point(|w| w.start <= window.start);
        self.windows.insert(at, window);
    }

    /// Builder form of [`push`](Self::push).
    fn with_window(mut self, window: ChannelWindow) -> Self {
        self.push(window);
        self
    }

    /// Adds a message-loss window.
    pub fn with_drop(self, start: SimTime, duration: SimDuration, probability: f64) -> Self {
        self.with_window(ChannelWindow::new(
            start,
            duration,
            ChannelFaultKind::Drop { probability },
        ))
    }

    /// Adds a message-duplication window.
    pub fn with_duplicate(self, start: SimTime, duration: SimDuration, probability: f64) -> Self {
        self.with_window(ChannelWindow::new(
            start,
            duration,
            ChannelFaultKind::Duplicate { probability },
        ))
    }

    /// Adds a delay window (per-message extra latency in `[0, max]`).
    fn with_delay(self, start: SimTime, duration: SimDuration, max: SimDuration) -> Self {
        self.with_window(ChannelWindow::new(
            start,
            duration,
            ChannelFaultKind::Delay { max },
        ))
    }

    /// The fate of one message sent at `at` with unique `key` (e.g. a
    /// hash of command id, attempt number, and direction). Pure and
    /// stateless: identical `(at, key)` always returns the same fate.
    pub fn fate(&self, at: SimTime, key: u64) -> ChannelFate {
        let mut latency = self.base_latency;
        let mut dropped = false;
        let mut duplicate_extra: Option<SimDuration> = None;
        for (i, w) in self.windows.iter().enumerate() {
            if !w.contains(at) {
                continue;
            }
            let h = splitmix64(
                self.seed
                    ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
            );
            match w.kind {
                ChannelFaultKind::Drop { probability } => {
                    if unit(h) < probability {
                        dropped = true;
                    }
                }
                ChannelFaultKind::Duplicate { probability } => {
                    if unit(h) < probability {
                        // The extra copy trails the primary by a draw in
                        // (0, 2 × base + 1 ns] from a decorrelated hash.
                        let spread = self.base_latency.as_nanos().saturating_mul(2) + 1;
                        let extra = splitmix64(h) % spread + 1;
                        duplicate_extra = Some(SimDuration::from_nanos(extra));
                    }
                }
                ChannelFaultKind::Delay { max } => {
                    if !max.is_zero() {
                        let draw = splitmix64(h ^ 0x94D0_49BB_1331_11EB) % (max.as_nanos() + 1);
                        latency = latency
                            .checked_add(SimDuration::from_nanos(draw))
                            .unwrap_or(SimDuration::MAX);
                    }
                }
            }
        }
        if dropped {
            return ChannelFate {
                delivery: None,
                duplicate: None,
            };
        }
        ChannelFate {
            delivery: Some(latency),
            duplicate: duplicate_extra
                .map(|extra| latency.checked_add(extra).unwrap_or(SimDuration::MAX)),
        }
    }

    /// Generates a reproducible channel-fault mix for a `span`-long run
    /// at `severity` in `[0, 1]`: an early loss window, a mid-run
    /// duplication window, and a late delay window, each scaled by
    /// severity. Severity zero yields the perfect channel. Identical
    /// `(seed, span, severity)` triples yield identical schedules.
    ///
    /// # Panics
    ///
    /// Panics with the [`ScheduleError`] message on malformed inputs;
    /// [`try_generate`](Self::try_generate) returns the typed error.
    pub fn generate(seed: u64, span: SimDuration, severity: f64) -> ChannelFaultSchedule {
        match ChannelFaultSchedule::try_generate(seed, span, severity) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`generate`](Self::generate) with typed rejection.
    ///
    /// # Errors
    ///
    /// Exactly the [`FaultSchedule::try_generate`] contract:
    /// [`ScheduleError::ZeroSpan`], [`ScheduleError::SpanOverflow`], or
    /// [`ScheduleError::BadSeverity`].
    ///
    /// [`FaultSchedule::try_generate`]: crate::FaultSchedule::try_generate
    pub fn try_generate(
        seed: u64,
        span: SimDuration,
        severity: f64,
    ) -> Result<ChannelFaultSchedule, ScheduleError> {
        if span.is_zero() {
            return Err(ScheduleError::ZeroSpan);
        }
        if span > MAX_GENERATED_SPAN {
            return Err(ScheduleError::SpanOverflow { span });
        }
        if !(severity.is_finite() && (0.0..=1.0).contains(&severity)) {
            return Err(ScheduleError::BadSeverity { severity });
        }
        // One-way base latency: 0.02 % of the span, at least 1 ns, so
        // request→response round trips stay small against the command
        // deadline at any span.
        let base = SimDuration::from_nanos(span.mul_f64(0.0002).as_nanos().max(1));
        let mut s = ChannelFaultSchedule::new(seed, base);
        if severity == 0.0 {
            return Ok(s);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0A7_C0A7_C0A7_C0A7);
        let at = |frac: f64| SimTime::ZERO + span.mul_f64(frac);

        // A window that rounds to 0 ns is left out, after its draws, so
        // the remaining draws do not shift.
        // Early loss: retries must punch through it.
        let start = rng.gen_range(0.05f64..0.25);
        let dur = span.mul_f64(rng.gen_range(0.15f64..0.30));
        if !dur.is_zero() {
            s = s.with_drop(at(start), dur, 0.6 * severity);
        }

        // Mid-run duplication: dedup must absorb it.
        let start = rng.gen_range(0.35f64..0.55);
        let dur = span.mul_f64(rng.gen_range(0.15f64..0.25));
        if !dur.is_zero() {
            s = s.with_duplicate(at(start), dur, 0.5 * severity);
        }

        // Late delay: reordering across in-flight commands.
        let start = rng.gen_range(0.60f64..0.80);
        let dur = rng.gen_range(0.10f64..0.20);
        let max = span.mul_f64(0.004 * severity);
        if !max.is_zero() {
            s = s.with_delay(at(start), span.mul_f64(dur), max);
        }
        Ok(s)
    }
}

impl fmt::Display for ChannelFaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "perfect channel ({})", self.base_latency);
        }
        write!(
            f,
            "{} channel faults (seed {}, base {})",
            self.windows.len(),
            self.seed,
            self.base_latency
        )
    }
}

/// Uniform `[0, 1)` from a hash: the top 53 bits as a float mantissa.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn perfect_channel_delivers_everything_once() {
        let ch = ChannelFaultSchedule::new(1, dms(2));
        assert!(ch.is_empty());
        for key in 0..100 {
            let fate = ch.fate(ms(key), key);
            assert_eq!(fate.delivery, Some(dms(2)));
            assert_eq!(fate.duplicate, None);
            assert!(fate.delivery.is_some());
        }
        assert!(ch.to_string().contains("perfect"));
    }

    #[test]
    fn fates_are_deterministic_and_window_scoped() {
        let ch = ChannelFaultSchedule::new(9, dms(1))
            .with_drop(ms(100), dms(100), 0.5)
            .with_delay(ms(300), dms(100), dms(10));
        for key in 0..50 {
            assert_eq!(ch.fate(ms(150), key), ch.fate(ms(150), key));
        }
        // Outside every window: clean delivery.
        assert_eq!(ch.fate(ms(50), 7).delivery, Some(dms(1)));
        // Inside the delay window: latency within [base, base + max].
        for key in 0..50 {
            let fate = ch.fate(ms(350), key);
            let lat = fate.delivery.expect("delay never drops");
            assert!(lat >= dms(1) && lat <= dms(11), "latency {lat}");
        }
        // A p = 0.5 drop window drops some keys and passes others.
        let dropped = (0..100)
            .filter(|&k| ch.fate(ms(150), k).delivery.is_none())
            .count();
        assert!(dropped > 10 && dropped < 90, "dropped {dropped}/100");
    }

    #[test]
    fn certain_drop_loses_the_duplicate_too() {
        let ch = ChannelFaultSchedule::new(3, dms(1))
            .with_drop(ms(0), dms(100), 1.0)
            .with_duplicate(ms(0), dms(100), 1.0);
        let fate = ch.fate(ms(50), 42);
        assert!(fate.delivery.is_none());
        assert_eq!(fate.duplicate, None);
        // Past the windows both disappear.
        let clean = ch.fate(ms(150), 42);
        assert_eq!(clean.delivery, Some(dms(1)));
        assert_eq!(clean.duplicate, None);
    }

    #[test]
    fn duplicates_trail_the_primary() {
        let ch = ChannelFaultSchedule::new(3, dms(1)).with_duplicate(ms(0), dms(100), 1.0);
        for key in 0..20 {
            let fate = ch.fate(ms(10), key);
            let primary = fate.delivery.unwrap();
            let copy = fate.duplicate.expect("p = 1 duplicates");
            assert!(copy > primary, "duplicate must arrive strictly later");
        }
    }

    #[test]
    fn generate_is_reproducible_and_typed_on_bad_input() {
        let span = SimDuration::from_secs(60);
        let a = ChannelFaultSchedule::generate(42, span, 0.8);
        assert_eq!(a, ChannelFaultSchedule::generate(42, span, 0.8));
        assert_ne!(a, ChannelFaultSchedule::generate(43, span, 0.8));
        assert_eq!(a.windows().len(), 3);
        assert!(ChannelFaultSchedule::generate(42, span, 0.0).is_empty());
        assert_eq!(
            ChannelFaultSchedule::try_generate(42, SimDuration::ZERO, 0.5).unwrap_err(),
            ScheduleError::ZeroSpan
        );
        assert!(matches!(
            ChannelFaultSchedule::try_generate(42, span, f64::NAN),
            Err(ScheduleError::BadSeverity { .. })
        ));
        assert!(matches!(
            ChannelFaultSchedule::try_generate(42, SimDuration::MAX, 0.5),
            Err(ScheduleError::SpanOverflow { .. })
        ));
    }

    #[test]
    fn window_validation_panics_on_bad_probability() {
        let result = std::panic::catch_unwind(|| {
            ChannelWindow::new(ms(0), dms(1), ChannelFaultKind::Drop { probability: 2.0 })
        });
        assert!(result.is_err());
        let result = std::panic::catch_unwind(|| {
            ChannelWindow::new(
                ms(0),
                SimDuration::ZERO,
                ChannelFaultKind::Delay { max: dms(1) },
            )
        });
        assert!(result.is_err());
    }
}
