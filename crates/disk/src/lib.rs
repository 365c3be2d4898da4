//! # gqos-disk — a mechanical disk model
//!
//! The DiskSim stand-in of the `gqos` workspace. The paper evaluates its
//! QoS framework inside a disk simulator; this crate supplies the
//! equivalent pieces, built from scratch:
//!
//! - [`DiskGeometry`] — platters, tracks, sectors, rotation;
//! - [`SeekProfile`] — the classic square-root seek-time curve;
//! - [`DiskModel`] — a stateful [`ServiceModel`](gqos_sim::ServiceModel):
//!   seek + rotational latency + transfer. Unlike the constant-rate server
//!   used for the paper's capacity analysis, its throughput depends on
//!   request locality;
//! - [`CachedDisk`] — a deterministic LRU block cache wrapper.
//!
//! # Examples
//!
//! Run a workload against the mechanical disk in arrival order:
//!
//! ```
//! use gqos_disk::DiskModel;
//! use gqos_sim::{FcfsScheduler, Simulation};
//! use gqos_trace::{SimTime, Workload};
//!
//! let w = Workload::from_arrivals((0..20).map(|i| SimTime::from_millis(i * 30)));
//! let report = Simulation::new(FcfsScheduler::new())
//!     .server(DiskModel::builder().build())
//!     .run(&w);
//! assert_eq!(report.completed(), 20);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod geometry;
mod model;
mod seek;

pub use cache::CachedDisk;
pub use geometry::DiskGeometry;
pub use model::{DiskModel, DiskModelBuilder};
pub use seek::SeekProfile;
