//! # gqos-stream — chunked bounded-memory ingestion
//!
//! Streaming front-end for the `gqos` workspace: decompose and serve
//! *unbounded* arrival streams in `O(maxQ1 + chunk)` memory instead of
//! materialising whole workloads, per the online spirit of Algorithm 1 in
//! *"Graduated QoS by Decomposing Bursts"* (ICDCS 2009).
//!
//! Three layers:
//!
//! - [`ArrivalStream`] + adapters ([`WorkloadStream`], [`SpcStream`]) —
//!   arrivals in fixed-capacity sorted chunks with dense cross-chunk
//!   request ids;
//! - [`OnlineShaper`] — drives the four recombination policies chunk by
//!   chunk through `gqos_sim::StreamingSimulation`; results are
//!   bit-identical to the offline `WorkloadShaper` for any chunking
//!   (golden-tested in `tests/golden_equiv.rs`);
//! - [`IngestGateway`] + [`ShedScheduler`] — sharded multi-tenant
//!   admission with bounded per-tenant inboxes and shed-to-Q2
//!   backpressure, byte-identical across worker counts; plus
//!   [`drain_migrate`] — a zero-drop drain-and-migrate handoff that moves
//!   a live lane between server bins over a [`DrainPlan`] window without
//!   dropping a single request.
//!
//! # Examples
//!
//! Stream an SPC trace through FairQueue without ever holding the full
//! trace:
//!
//! ```
//! use gqos_core::{Provision, RecombinePolicy};
//! use gqos_stream::{OnlineShaper, SpcStream};
//! use gqos_trace::{Iops, SimDuration};
//!
//! let trace = "0,0,512,R,0.000\n0,8,512,R,0.001\n0,16,512,W,0.002\n";
//! let shaper = OnlineShaper::new(
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
mod shaper;
mod source;

pub use drain::{drain_migrate, DrainPlan, DrainReport};
pub use gateway::{IngestGateway, ShedScheduler, TenantReport, TenantSpec};
pub use shaper::{OnlineShaper, StreamObservation, StreamReport};
pub use source::{ArrivalStream, SpcStream, StreamError, WorkloadStream, DEFAULT_CHUNK};
