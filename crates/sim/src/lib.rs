//! # gqos-sim — deterministic storage-server simulation
//!
//! The discrete-event substrate of the `gqos` workspace (the stand-in for
//! the DiskSim-based evaluation in the ICDCS 2009 paper). It provides:
//!
//! - [`Simulation`] / [`simulate`] — the one event-driven engine: a
//!   [`Scheduler`] over one or more servers, fed a whole
//!   [`Workload`](gqos_trace::Workload) by [`Simulation::run`] or an
//!   [`ArrivalStream`](gqos_trace::ArrivalStream) chunk by chunk by
//!   [`Simulation::run_stream`] (bit-identical for any chunking), whose
//!   chunk loop [`run_chunks`] serves any [`ChunkCore`];
//! - [`ServiceModel`] — pluggable service-time models, with the paper's
//!   constant-capacity [`FixedRateServer`] built in (the mechanical disk
//!   model lives in `gqos-disk`);
//! - [`RunReport`] / [`ResponseStats`] — per-request latency records,
//!   response-time CDFs, percentiles, and the paper's bucketed histograms;
//! - [`FcfsScheduler`] — the unshaped baseline policy;
//! - [`EventQueue`] / [`IndexedEventQueue`] — the engines' event storage:
//!   one small vector kept sorted, since no engine holds more than a
//!   handful of live events.
//!
//! Simulations are fully deterministic: ties in event time are broken by a
//! fixed event-kind order (completions before retries before arrivals,
//! lower server or request index first).
//!
//! # Examples
//!
//! A burst of ten requests against a server provisioned at the mean rate —
//! the queue builds and response times degrade linearly:
//!
//! ```
//! use gqos_sim::{simulate, FcfsScheduler, FixedRateServer};
//! use gqos_trace::{Iops, SimDuration, SimTime, Workload};
//!
//! let burst = Workload::from_arrivals(vec![SimTime::ZERO; 10]);
//! let report = simulate(&burst, FcfsScheduler::new(),
//!     FixedRateServer::new(Iops::new(100.0)));
//! let stats = report.stats();
//! assert_eq!(stats.max(), Some(SimDuration::from_millis(100)));
//! assert_eq!(stats.fraction_within(SimDuration::from_millis(50)), 0.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod event;
mod metrics;
mod scheduler;
mod server;

pub use engine::{run_chunks, simulate, ChunkCore, Simulation, StreamRun};
pub use event::{Event, EventKind, EventQueue, IndexedEventQueue};
pub use metrics::{CompletionRecord, ResponseStats, RunReport};
pub use scheduler::{Dispatch, FcfsScheduler, Scheduler, ServiceClass};
pub use server::{CapacityModulation, FixedRateServer, ModulatedServer, ServerId, ServiceModel};

// Re-export the observability vocabulary so downstream crates can attach
// traces and read sketches without naming gqos-obs directly.
pub use gqos_obs::{
    nearest_rank, EventCounts, FileSink, HeatmapRow, LatencySketch, LongTermStore, MemorySink,
    NullSink, OutOfOrderInstant, PolicyTag, ReplayedRun, RetentionConfig, SeriesPoint, TierConfig,
    TraceEvent, TraceHandle, TraceSink, WindowSnapshot, WindowedSketch,
};
