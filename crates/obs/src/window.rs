//! Per-window latency snapshots for feedback control.
//!
//! [`WindowedSketch`] partitions a value stream into fixed-width,
//! contiguous time windows and emits one [`LatencySketch`] per closed
//! window. The partition is *lossless*: bucket counts are never decayed
//! or rescaled, so merging every emitted window snapshot reproduces the
//! sketch of the whole stream **bit for bit** (the property
//! `crates/obs/tests/window_props.rs` pins).
//!
//! # The empty-window hazard
//!
//! A bare [`LatencySketch`] reports `quantile(q) == 0` when empty — fine
//! for a cumulative sketch, fatal for a feedback controller: a quiet
//! window read as "p99 = 0 ns" looks like infinite headroom and would
//! slam a tenant's capacity share to its floor. A [`WindowSnapshot`]
//! therefore types the outcome: [`WindowSnapshot::signal`] returns
//! `None` for an all-empty window, and consumers (the SLO controller's
//! `WindowVerdict::Quiet`) must treat that as "hold", never as a
//! zero quantile.

use gqos_trace::{SimDuration, SimTime};

use crate::sketch::LatencySketch;

/// A value arrived with an observation instant from a window that has
/// already been closed.
///
/// Mirrors `gqos_stream::StreamError::OutOfOrder`: silently folding the
/// value into the *current* window would misfile it (corrupting that
/// window's quantiles), and dropping it would break the lossless
/// partition contract — so the outcome is typed and the caller decides.
/// The sketch is left untouched: no window state changes on this error.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct OutOfOrderInstant {
    /// The offending observation instant.
    pub at: SimTime,
    /// The start of the currently-open window — the earliest instant
    /// still accepted.
    pub window_start: SimTime,
}

impl std::fmt::Display for OutOfOrderInstant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out-of-order observation at {:?}: current window starts at {:?}",
            self.at, self.window_start
        )
    }
}

impl std::error::Error for OutOfOrderInstant {}

/// One closed feedback window: its index, start instant, and the sketch
/// of every value observed in it (possibly empty).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WindowSnapshot {
    index: u64,
    start: SimTime,
    sketch: LatencySketch,
}

impl WindowSnapshot {
    /// The window's ordinal: window `i` covers `[i·w, (i+1)·w)`.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The window's start instant (`index × width`).
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// The window's sketch, empty or not. Prefer
    /// [`signal`](WindowSnapshot::signal) in feedback paths.
    pub fn sketch(&self) -> &LatencySketch {
        &self.sketch
    }

    /// The window's sketch **only if it observed anything**: `None` is
    /// the typed "no signal" outcome for an all-empty window, guarding
    /// consumers from misreading empty-sketch zero quantiles as real
    /// latencies.
    pub fn signal(&self) -> Option<&LatencySketch> {
        if self.sketch.is_empty() {
            None
        } else {
            Some(&self.sketch)
        }
    }
}

/// A latency sketch split into fixed-width time windows.
///
/// Values are recorded with their observation instant; crossing a window
/// boundary closes every elapsed window (empty ones included, so quiet
/// periods surface as typed no-signal snapshots rather than silently
/// vanishing) and hands the snapshots back to the caller.
///
/// # Examples
///
/// ```
/// use gqos_obs::WindowedSketch;
/// use gqos_trace::{SimDuration, SimTime};
///
/// let mut w = WindowedSketch::new(SimDuration::from_millis(100));
/// assert!(w.record(SimTime::from_millis(10), 500).unwrap().is_empty());
/// // Jumping to t=350ms closes windows 0..3: one with data, two quiet.
/// let closed = w.record(SimTime::from_millis(350), 900).unwrap();
/// assert_eq!(closed.len(), 3);
/// assert!(closed[0].signal().is_some());
/// assert!(closed[1].signal().is_none()); // typed no-signal, not "p99 = 0"
/// // An instant from an already-closed window is a typed error, not a
/// // silent misfile into the wrong window.
/// assert!(w.record(SimTime::from_millis(250), 700).is_err());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WindowedSketch {
    window: SimDuration,
    index: u64,
    current: LatencySketch,
}

impl WindowedSketch {
    /// An empty windowed sketch with `window`-wide windows anchored at
    /// time zero.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "feedback window must be positive");
        WindowedSketch {
            window,
            index: 0,
            current: LatencySketch::new(),
        }
    }

    /// The window width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// The window ordinal containing instant `at`.
    fn index_of(&self, at: SimTime) -> u64 {
        at.as_nanos() / self.window.as_nanos()
    }

    /// The start instant of the currently-open window.
    fn current_start(&self) -> SimTime {
        SimTime::from_nanos(self.index * self.window.as_nanos())
    }

    /// Closes every window that ends at or before `at`'s window,
    /// returning their snapshots in order — **including empty ones**,
    /// which report as typed no-signal (see [`WindowSnapshot::signal`]).
    /// An `at` inside the current window (or earlier) is a no-op: this
    /// method only moves forward, it never rejects — the typed
    /// out-of-order outcome belongs to [`record`](WindowedSketch::record),
    /// where a value would otherwise be misfiled.
    pub fn advance_to(&mut self, at: SimTime) -> Vec<WindowSnapshot> {
        let target = self.index_of(at);
        let mut closed = Vec::new();
        while self.index < target {
            let sketch = std::mem::take(&mut self.current);
            closed.push(WindowSnapshot {
                index: self.index,
                start: SimTime::from_nanos(self.index * self.window.as_nanos()),
                sketch,
            });
            self.index += 1;
        }
        closed
    }

    /// Records `value` as observed at instant `at`, first closing any
    /// windows `at` has moved past (returned in order, empty windows
    /// included).
    ///
    /// An instant from a window that has already been closed is rejected
    /// with a typed [`OutOfOrderInstant`] — nothing is recorded and no
    /// window state changes. (The pre-fix behaviour silently folded such
    /// values into the *current* window, misfiling them in time.) An
    /// instant exactly on a boundary `k·width` belongs to window `k`:
    /// `at == current_start()` is in order.
    pub fn record(
        &mut self,
        at: SimTime,
        value: u64,
    ) -> Result<Vec<WindowSnapshot>, OutOfOrderInstant> {
        if self.index_of(at) < self.index {
            return Err(OutOfOrderInstant {
                at,
                window_start: self.current_start(),
            });
        }
        let closed = self.advance_to(at);
        self.current.record(value);
        Ok(closed)
    }

    /// Closes the still-open window and returns its snapshot, consuming
    /// the windowed sketch.
    pub fn finish(self) -> WindowSnapshot {
        WindowSnapshot {
            index: self.index,
            start: SimTime::from_nanos(self.index * self.window.as_nanos()),
            sketch: self.current,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_partition_the_stream() {
        let mut w = WindowedSketch::new(SimDuration::from_millis(10));
        assert!(w.record(SimTime::from_millis(1), 100).unwrap().is_empty());
        assert!(w.record(SimTime::from_millis(9), 200).unwrap().is_empty());
        let closed = w.record(SimTime::from_millis(12), 300).unwrap();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].index(), 0);
        assert_eq!(closed[0].sketch().count(), 2);
        let last = w.finish();
        assert_eq!(last.index(), 1);
        assert_eq!(last.sketch().count(), 1);
    }

    #[test]
    fn empty_window_is_typed_no_signal_not_zero_quantile() {
        // The regression satellite: a quiet window must never read as
        // "p99 = 0 ns". The bare sketch *does* report 0 (documented
        // empty-sketch contract); the snapshot types it away.
        let mut w = WindowedSketch::new(SimDuration::from_millis(10));
        w.record(SimTime::from_millis(1), 5_000_000).unwrap();
        let closed = w.record(SimTime::from_millis(35), 6_000_000).unwrap();
        assert_eq!(closed.len(), 3);
        assert!(closed[0].signal().is_some());
        for quiet in &closed[1..] {
            assert!(quiet.sketch().is_empty());
            assert_eq!(quiet.sketch().quantile(0.99), 0, "the raw hazard");
            assert_eq!(quiet.signal(), None, "the typed guard");
        }
    }

    #[test]
    fn out_of_order_instants_are_typed_errors_not_misfiles() {
        // Regression: the pre-fix code silently folded an instant from an
        // already-closed window into the *current* window, attributing its
        // latency to the wrong point in time.
        let mut w = WindowedSketch::new(SimDuration::from_millis(10));
        w.record(SimTime::from_millis(25), 1).unwrap();
        let err = w.record(SimTime::from_millis(5), 2).unwrap_err();
        assert_eq!(err.at, SimTime::from_millis(5));
        assert_eq!(err.window_start, SimTime::from_millis(20));
        // Nothing was recorded and no window state moved.
        assert_eq!(w.index, 2);
        assert_eq!(w.finish().sketch().count(), 1);
    }

    #[test]
    fn boundary_instants_belong_to_the_window_they_open() {
        // An instant exactly on k·width is the first instant of window k:
        // recording at the current window's start is in order, one
        // nanosecond before it is not.
        let mut w = WindowedSketch::new(SimDuration::from_millis(10));
        w.record(SimTime::from_millis(25), 1).unwrap();
        assert!(w.record(SimTime::from_millis(20), 2).is_ok());
        let err = w
            .record(SimTime::from_nanos(20_000_000 - 1), 3)
            .unwrap_err();
        assert_eq!(err.window_start, SimTime::from_millis(20));
        // A boundary instant ahead closes exactly the elapsed windows and
        // opens window 3.
        let closed = w.record(SimTime::from_millis(30), 4).unwrap();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].index(), 2);
        assert_eq!(closed[0].sketch().count(), 2);
        assert_eq!(w.index, 3);
        assert_eq!(w.finish().sketch().count(), 1);
    }

    #[test]
    #[should_panic(expected = "feedback window must be positive")]
    fn zero_window_rejected() {
        let _ = WindowedSketch::new(SimDuration::ZERO);
    }
}
