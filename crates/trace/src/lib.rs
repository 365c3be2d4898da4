//! # gqos-trace — storage workload modelling for graduated QoS
//!
//! Foundation crate of the `gqos` workspace, a from-scratch reproduction of
//! *"Graduated QoS by Decomposing Bursts: Don't Let the Tail Wag Your
//! Server"* (Lu, Varman, Doshi — ICDCS 2009).
//!
//! This crate provides everything the QoS scheduling layers need to describe
//! and analyse arrival streams:
//!
//! - [`Workload`] — an arrival-ordered request stream with the merge / shift
//!   / window algebra used by the consolidation experiments;
//! - [`ArrivalCurve`] and [`ServiceAnalysis`] — the paper's analytical model
//!   (cumulative arrival curve, service-curve limit, Lemma 1 lower bound on
//!   forced deadline misses);
//! - [`RateSeries`], [`stats`] and [`TraceSummary`] — windowed rates,
//!   burstiness metrics and a one-look workload profile;
//! - [`envelope`] — token-bucket `(σ, ρ)` arrival-curve envelopes;
//! - [`gen`] — deterministic synthetic generators (Poisson, ON/OFF, MMPP,
//!   paced, b-model) and [`gen::profiles`] calibrated to the paper's traces;
//! - [`spc`] — SPC-format trace I/O so real repository traces drop in;
//! - [`ArrivalStream`] + adapters ([`WorkloadStream`], [`SpcStream`]) —
//!   arrivals in fixed-capacity sorted chunks with dense cross-chunk
//!   request ids, so a trace never has to be materialised whole.
//!
//! # Examples
//!
//! Generate a bursty workload and quantify how unbalanced it is:
//!
//! ```
//! use gqos_trace::gen::profiles::TraceProfile;
//! use gqos_trace::{SimDuration, TraceSummary};
//!
//! let workload = TraceProfile::OpenMail.generate(SimDuration::from_secs(60), 42);
//! let summary = TraceSummary::new(&workload, SimDuration::from_millis(100));
//! assert!(summary.peak_to_mean() > 2.0); // bursts dwarf the average rate
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod column;
mod curve;
pub mod envelope;
pub mod gen;
mod request;
mod source;
pub mod spc;
pub mod stats;
mod summary;
mod time;
mod window;
mod workload;

pub use column::ArrivalColumn;
pub use curve::{ArrivalCurve, BusyPeriod, ServiceAnalysis};
pub use request::{LogicalBlock, Request, RequestId, RequestKind, DEFAULT_REQUEST_BYTES};
pub use source::{ArrivalStream, SpcStream, StreamError, WorkloadStream, DEFAULT_CHUNK};
pub use summary::TraceSummary;
pub use time::{Iops, SimDuration, SimTime};
pub use window::RateSeries;
pub use workload::{ArrivalCounts, Workload};
