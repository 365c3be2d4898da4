//! # gqos-disk — a mechanical disk model and low-level schedulers
//!
//! The DiskSim stand-in of the `gqos` workspace. The paper evaluates its
//! QoS framework inside a disk simulator; this crate supplies the
//! equivalent pieces, built from scratch:
//!
//! - [`DiskGeometry`] — platters, tracks, sectors, rotation;
//! - [`SeekProfile`] — the classic square-root seek-time curve;
//! - [`DiskModel`] — a stateful [`ServiceModel`](gqos_sim::ServiceModel):
//!   seek + rotational latency + transfer, with an optional cache. Unlike
//!   the constant-rate server used for the paper's capacity analysis, its
//!   throughput depends on request locality;
//! - [`SstfScheduler`] / [`ScanScheduler`] — the throughput-maximising
//!   low-level orderings the paper assumes beneath the QoS layer;
//! - [`CachedDisk`] — a deterministic LRU block cache wrapper.
//!
//! # Examples
//!
//! Run a workload against the mechanical disk with elevator scheduling:
//!
//! ```
//! use gqos_disk::{DiskModel, ScanScheduler, SweepMode};
//! use gqos_sim::Simulation;
//! use gqos_trace::{SimTime, Workload};
//!
//! let w = Workload::from_arrivals((0..20).map(|i| SimTime::from_millis(i * 30)));
//! let report = Simulation::new(&w, ScanScheduler::new(SweepMode::CircularLook))
//!     .server(DiskModel::builder().build())
//!     .run();
//! assert_eq!(report.completed(), 20);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod geometry;
mod model;
mod sched;
mod seek;

pub use cache::CachedDisk;
pub use geometry::DiskGeometry;
pub use model::{DiskModel, DiskModelBuilder};
pub use sched::{ScanScheduler, SstfScheduler, SweepMode};
pub use seek::SeekProfile;
