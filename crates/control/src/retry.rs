//! Deterministic retry policy: capped exponential backoff with seeded
//! jitter and a per-command deadline, all in simulated nanoseconds.
//!
//! Nothing here touches a wall clock or a thread-local RNG: the backoff
//! for `(command, attempt)` is a pure [`splitmix64`] function of the
//! policy seed, so a chaos run replays bit-identically from its seed and
//! two commands never synchronise their retry storms.

use gqos_faults::splitmix64;
use gqos_trace::SimDuration;

use crate::bus::CommandId;

/// Capped exponential backoff + deterministic jitter + per-command
/// deadline.
///
/// # Examples
///
/// ```
/// use gqos_control::{CommandId, RetryPolicy};
/// use gqos_trace::SimDuration;
///
/// let policy = RetryPolicy::new(42);
/// let a = policy.backoff(CommandId::new(1), 1);
/// // Deterministic: the same (command, attempt) always backs off the same.
/// assert_eq!(a, policy.backoff(CommandId::new(1), 1));
/// // Jitter decorrelates commands: a different id draws differently.
/// assert_ne!(a, policy.backoff(CommandId::new(2), 1));
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct RetryPolicy {
    seed: u64,
    base: SimDuration,
    cap: SimDuration,
    jitter: f64,
    deadline: SimDuration,
    max_attempts: u32,
}

impl RetryPolicy {
    /// A policy with the default shape: 2 ms base doubling to a 50 ms
    /// cap, 50% jitter, a 500 ms per-command deadline, and at most 8
    /// attempts. `seed` drives every jitter draw.
    pub fn new(seed: u64) -> Self {
        RetryPolicy {
            seed,
            base: SimDuration::from_millis(2),
            cap: SimDuration::from_millis(50),
            jitter: 0.5,
            deadline: SimDuration::from_millis(500),
            max_attempts: 8,
        }
    }

    /// Replaces the first-retry backoff.
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero.
    #[must_use]
    pub fn with_base(mut self, base: SimDuration) -> Self {
        assert!(!base.is_zero(), "backoff base must be positive");
        self.base = base;
        self
    }

    /// Replaces the backoff cap.
    #[must_use]
    pub fn with_cap(mut self, cap: SimDuration) -> Self {
        self.cap = cap;
        self
    }

    /// The jitter seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-command deadline.
    pub fn deadline(&self) -> SimDuration {
        self.deadline
    }

    /// The attempt budget.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The delay between attempt `attempt` (1-based) and the next one:
    /// `min(base × 2^(attempt−1), cap)` plus a deterministic jitter draw
    /// in `[0, jitter × backoff]` keyed by `(seed, command, attempt)`.
    pub fn backoff(&self, command: CommandId, attempt: u32) -> SimDuration {
        let doublings = attempt.saturating_sub(1).min(63);
        let raw = self
            .base
            .as_nanos()
            .saturating_mul(1u64.checked_shl(doublings).unwrap_or(u64::MAX))
            .min(self.cap.as_nanos())
            .max(1);
        let span = ((raw as f64) * self.jitter) as u64;
        let extra = if span == 0 {
            0
        } else {
            splitmix64(
                self.seed
                    ^ command.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ u64::from(attempt).wrapping_mul(0xBF58_476D_1CE4_E5B9),
            ) % (span + 1)
        };
        SimDuration::from_nanos(raw.saturating_add(extra))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_jitter(seed: u64) -> RetryPolicy {
        RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::new(seed)
        }
    }

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        let p = no_jitter(1);
        let b1 = p.backoff(CommandId::new(0), 1);
        let b2 = p.backoff(CommandId::new(0), 2);
        let b3 = p.backoff(CommandId::new(0), 3);
        assert_eq!(b1, SimDuration::from_millis(2));
        assert_eq!(b2, SimDuration::from_millis(4));
        assert_eq!(b3, SimDuration::from_millis(8));
        // Far attempts saturate at the cap instead of overflowing.
        assert_eq!(
            p.backoff(CommandId::new(0), 40),
            SimDuration::from_millis(50)
        );
        assert_eq!(
            p.backoff(CommandId::new(0), u32::MAX),
            SimDuration::from_millis(50)
        );
    }

    #[test]
    fn jitter_is_bounded_and_seed_deterministic() {
        let p = RetryPolicy::new(9);
        for attempt in 1..6u32 {
            for cmd in 0..8u64 {
                let b = p.backoff(CommandId::new(cmd), attempt);
                let floor = no_jitter(9).backoff(CommandId::new(cmd), attempt);
                assert!(b >= floor);
                assert!(b.as_nanos() <= floor.as_nanos() + floor.as_nanos() / 2 + 1);
                assert_eq!(b, p.backoff(CommandId::new(cmd), attempt));
            }
        }
        // A different seed draws different jitter somewhere.
        let q = RetryPolicy::new(10);
        assert!(
            (1..6u32).any(|a| q.backoff(CommandId::new(3), a) != p.backoff(CommandId::new(3), a))
        );
    }
}
