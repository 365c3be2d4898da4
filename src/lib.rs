//! # gqos — graduated QoS for bursty storage workloads
//!
//! An open-source reproduction of *"Graduated QoS by Decomposing Bursts:
//! Don't Let the Tail Wag Your Server"* (Lu, Varman, Doshi — ICDCS 2009),
//! built as a Rust workspace. This facade crate re-exports every layer:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`trace`] | `gqos-trace` | workload model, synthetic generators, SPC I/O, burstiness statistics |
//! | [`sim`] | `gqos-sim` | deterministic discrete-event engine, servers, latency metrics |
//! | [`fairqueue`] | `gqos-fairqueue` | SFQ / token bucket |
//! | [`disk`] | `gqos-disk` | mechanical disk model, SSTF / SCAN / C-LOOK |
//! | [`core`] | `gqos-core` | RTT decomposition, Miser / Split / FairQueue recombination, capacity planning, consolidation |
//!
//! The most common entry points are also re-exported at the top level.
//!
//! # Quickstart
//!
//! ```
//! use gqos::{QosTarget, RecombinePolicy, WorkloadShaper};
//! use gqos::trace::gen::profiles::TraceProfile;
//! use gqos::trace::SimDuration;
//! use gqos::sim::ServiceClass;
//!
//! // Synthesize a bursty mail-server workload.
//! let workload = TraceProfile::OpenMail.generate(SimDuration::from_secs(30), 42);
//!
//! // Guarantee 90% of requests a 20 ms response time and shape the rest.
//! let target = QosTarget::new(0.90, SimDuration::from_millis(20));
//! let shaper = WorkloadShaper::plan(&workload, target);
//! let report = shaper.run(&workload, RecombinePolicy::Miser);
//!
//! let primary = report.stats_for(ServiceClass::PRIMARY);
//! assert!(primary.fraction_within(target.deadline()) > 0.95);
//! ```

#![warn(missing_docs)]

pub use gqos_core as core;
pub use gqos_disk as disk;
pub use gqos_fairqueue as fairqueue;
pub use gqos_sim as sim;
pub use gqos_trace as trace;

pub use gqos_core::{
    decompose, decompose_with_budget, within_miss_budget, CapacityPlanner, CascadeDecomposer,
    ConsolidationStudy, MiserScheduler, Provision, QosTarget, RecombinePolicy, RttClassifier,
    WorkloadShaper,
};
pub use gqos_trace::{Iops, Request, SimDuration, SimTime, Workload};
