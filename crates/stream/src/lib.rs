//! # gqos-stream — chunked bounded-memory ingestion
//!
//! Streaming front-end for the `gqos` workspace: decompose and serve
//! *unbounded* arrival streams in `O(maxQ1 + chunk)` memory instead of
//! materialising whole workloads, per the online spirit of Algorithm 1 in
//! *"Graduated QoS by Decomposing Bursts"* (ICDCS 2009).
//!
//! It holds the multi-tenant layer over the one shaper and the one engine:
//!
//! - [`IngestGateway`] + [`ShedScheduler`] — sharded multi-tenant
//!   admission with bounded per-tenant inboxes and shed-to-Q2
//!   backpressure, byte-identical across worker counts; plus
//!   [`drain_migrate`] — a zero-drop drain-and-migrate handoff that moves
//!   a live lane between server bins over a [`DrainPlan`] window without
//!   dropping a single request.
//!
//! Each lane is built by the shaper and fed by `run_chunks`, the one
//! chunk driver, from an [`ArrivalStream`]: an untraced FCFS or Split
//! lane on `WorkloadShaper::inbox_lanes` (the FIFO lanes behind the
//! inbox), every other lane on `ShedScheduler` over the simulation core
//! that `WorkloadShaper::simulation` builds. The stream types live in
//! `gqos-trace` and the shaper in `gqos-core`; this crate re-exports them
//! at their historical paths. A streamed run is bit-identical to the batch run for any
//! chunking (golden-tested in `tests/golden_equiv.rs`).
//!
//! # Examples
//!
//! Stream an SPC trace through FairQueue without ever holding the full
//! trace:
//!
//! ```
//! use gqos_core::{Provision, RecombinePolicy, WorkloadShaper};
//! use gqos_stream::SpcStream;
//! use gqos_trace::{Iops, SimDuration};
//!
//! let trace = "0,0,512,R,0.000\n0,8,512,R,0.001\n0,16,512,W,0.002\n";
//! let shaper = WorkloadShaper::new(
//!     Provision::new(Iops::new(200.0), Iops::new(100.0)),
//!     SimDuration::from_millis(20),
//! );
//! let obs = shaper
//!     .run_observed(
//!         &mut SpcStream::new(trace.as_bytes(), 2),
//!         RecombinePolicy::FairQueue,
//!         |_| {},
//!     )
//!     .unwrap();
//! assert_eq!(obs.completed, 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod drain;
mod gateway;

pub use drain::{drain_migrate, DrainPlan, DrainReport};
pub use gateway::{IngestGateway, ShedScheduler, TenantReport, TenantSpec};
pub use gqos_core::StreamObservation;
pub use gqos_trace::{ArrivalStream, SpcStream, StreamError, WorkloadStream, DEFAULT_CHUNK};

/// The one workload shaper, at the path the `qosbench` benchmark names.
pub use gqos_core::WorkloadShaper as OnlineShaper;
