//! Flap damping for node recovery: replan down fast, refill up slow.
//!
//! A failing node must shed its tenants immediately — `NodeDown` always
//! replans on the spot. But a node that flaps (down, up, down, up within
//! seconds) must not drag the whole fleet through a replan on every
//! transition. [`ReplanGuard`] is the hysteresis: it remembers each
//! node's last failure instant and only allows a recovery refill once
//! the node has stayed out of trouble for a configured patience — the
//! same degrade-fast / recover-slow asymmetry as
//! `gqos_core::DegradationController`, applied to membership instead of
//! capacity.

use std::collections::BTreeMap;

use gqos_trace::{SimDuration, SimTime};

/// Hysteresis state for node recovery refills.
///
/// # Examples
///
/// ```
/// use gqos_control::ReplanGuard;
/// use gqos_trace::{SimDuration, SimTime};
///
/// let mut guard = ReplanGuard::new(SimDuration::from_millis(200));
/// guard.on_down(3, SimTime::from_millis(100));
/// // Too soon after the failure: the refill is suppressed.
/// assert!(!guard.allows_refill(3, SimTime::from_millis(150)));
/// // Patience elapsed: the node has earned its tenants back.
/// assert!(guard.allows_refill(3, SimTime::from_millis(300)));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReplanGuard {
    patience: SimDuration,
    last_down: BTreeMap<usize, SimTime>,
}

impl ReplanGuard {
    /// A guard requiring `patience` of failure-free time before a
    /// recovered node is refilled.
    ///
    /// # Panics
    ///
    /// Panics if `patience` is zero (a zero-patience guard is no guard).
    pub fn new(patience: SimDuration) -> Self {
        assert!(!patience.is_zero(), "guard patience must be positive");
        ReplanGuard {
            patience,
            last_down: BTreeMap::new(),
        }
    }

    /// Records a node failure at `now`. Later failures overwrite earlier
    /// ones — the patience clock restarts on every flap.
    pub fn on_down(&mut self, node: usize, now: SimTime) {
        let at = self.last_down.entry(node).or_insert(now);
        if now > *at {
            *at = now;
        }
    }

    /// `true` when `node` may be refilled at `now`: it has never failed,
    /// or its last failure is at least `patience` old.
    pub fn allows_refill(&self, node: usize, now: SimTime) -> bool {
        match self.last_down.get(&node) {
            None => true,
            Some(&at) => now.saturating_duration_since(at) >= self.patience,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn flapping_restarts_the_patience_clock() {
        let mut g = ReplanGuard::new(SimDuration::from_millis(100));
        g.on_down(0, ms(0));
        assert!(g.allows_refill(0, ms(100)));
        // A second failure pushes the earliest refill out again.
        g.on_down(0, ms(80));
        assert!(!g.allows_refill(0, ms(150)));
        assert!(g.allows_refill(0, ms(180)));
        // An out-of-order (stale) failure report never rewinds the clock.
        g.on_down(0, ms(40));
        assert!(g.allows_refill(0, ms(180)));
    }

    #[test]
    fn unknown_nodes_are_always_allowed() {
        let g = ReplanGuard::new(SimDuration::from_millis(100));
        assert!(g.allows_refill(7, SimTime::ZERO));
    }

    #[test]
    #[should_panic(expected = "guard patience must be positive")]
    fn zero_patience_rejected() {
        let _ = ReplanGuard::new(SimDuration::ZERO);
    }
}
