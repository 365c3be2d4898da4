//! Observability for gqos: structured run tracing, mergeable latency
//! sketches, and trace replay.
//!
//! The crate has five pieces:
//!
//! - **Tracing** ([`TraceEvent`], [`TraceSink`], [`TraceHandle`]): typed,
//!   `Copy` events covering a request's whole lifecycle (arrival, RTT
//!   admit/divert with queue depth, dispatch with policy and slack,
//!   completion with deadline verdict) plus degradation rung changes.
//!   Sinks: [`NullSink`] (instrumented path, events discarded),
//!   [`MemorySink`] (unbounded, read back after the run), [`FileSink`]
//!   (JSONL stream).
//!   A [`TraceHandle`] with no sink costs one branch per emission site,
//!   never constructs the event and runs on the untraced lanes —
//!   observability is free when off.
//! - **Sketches** ([`LatencySketch`]): log-linear bucketed histograms over
//!   nanosecond latencies with a guaranteed one-sided relative quantile
//!   error of [`RELATIVE_ERROR_BOUND`] (3.125%), pure integer bucketing,
//!   and an exact [`merge`](LatencySketch::merge) for combining per-worker
//!   shards from parallel runs.
//! - **Windows** ([`WindowedSketch`]): the same sketch partitioned into
//!   fixed-width feedback windows, losslessly (merging every window
//!   snapshot reproduces the unwindowed sketch bit for bit), with a typed
//!   no-signal outcome for all-empty windows so feedback controllers never
//!   mistake a quiet window's empty-sketch zero quantile for a latency.
//! - **Long-horizon retention** ([`LongTermStore`], [`longterm`]): a
//!   fixed-memory, per-tenant ring of window sketches with tiered
//!   downsampling (e.g. 1 s → 1 min → 1 h) implemented purely by sketch
//!   `merge`, so every coarse tier is provably lossless relative to its
//!   source windows; queryable as percentile-over-time series and
//!   tenant×time heat maps.
//! - **Replay** ([`ReplayedRun`]): rebuilds per-request lifecycles from a
//!   trace and independently re-derives miss fractions and percentiles, so
//!   reported aggregates can be audited against the raw event stream.
//!
//! The crate deliberately depends only on `gqos-trace` (for the time
//! newtypes), so every higher layer — engine, policies, bench — can emit
//! into it without dependency cycles.

#![warn(missing_docs)]

mod event;
pub mod longterm;
mod replay;
mod sink;
mod sketch;
mod window;

pub use event::{EventCounts, PolicyTag, TraceEvent};
pub use longterm::{HeatmapRow, LongTermStore, RetentionConfig, SeriesPoint, TierConfig};
pub use replay::{DrainRecord, ReplayedRun, RequestLifecycle};
pub use sink::{FileSink, MemorySink, NullSink, TraceHandle, TraceSink};
pub use sketch::{nearest_rank, LatencySketch, RELATIVE_ERROR_BOUND};
pub use window::{OutOfOrderInstant, WindowSnapshot, WindowedSketch};
