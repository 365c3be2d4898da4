//! # gqos-core — graduated QoS by decomposing bursts
//!
//! A from-scratch Rust implementation of *"Graduated QoS by Decomposing
//! Bursts: Don't Let the Tail Wag Your Server"* (Lu, Varman, Doshi —
//! ICDCS 2009).
//!
//! Bursty storage workloads force a painful choice: provision for the worst
//! burst (several times the average rate) or let bursts wreck response
//! times for the entire workload. This crate implements the paper's third
//! way — *workload shaping*:
//!
//! 1. **Decompose** the arrival stream online with [`RttClassifier`] /
//!    [`decompose`] (Algorithm 1): a provably optimal bounded-queue rule
//!    that isolates the overflowing tail into a best-effort class while
//!    guaranteeing the rest a response time `δ` at capacity `Cmin`.
//! 2. **Recombine** the classes for service with [`RecombinePolicy`]:
//!    dedicated servers ([`SplitScheduler`]), proportional sharing
//!    ([`FairQueueScheduler`]), or slack-stealing ([`MiserScheduler`],
//!    Algorithm 2).
//! 3. **Plan capacity** with [`CapacityPlanner`] — binary search for
//!    `Cmin(f, δ)` — and price graduated SLAs from the resulting menu.
//! 4. **Consolidate clients** with [`ConsolidationStudy`]: sums of reshaped
//!    capacities accurately predict multiplexed requirements.
//!
//! The [`CascadeDecomposer`] extends decomposition to more than two classes
//! (graduated response-time distributions), as the paper sketches.
//!
//! # Examples
//!
//! The headline workflow — plan a graduated SLA and shape the workload:
//!
//! ```
//! use gqos_core::{QosTarget, RecombinePolicy, WorkloadShaper};
//! use gqos_sim::ServiceClass;
//! use gqos_trace::{SimDuration, SimTime, Workload};
//!
//! // A calm stream with an overwhelming burst.
//! let mut arrivals: Vec<SimTime> = (0..100).map(|i| SimTime::from_millis(i * 10)).collect();
//! arrivals.extend(vec![SimTime::from_millis(333); 40]);
//! let workload = Workload::from_arrivals(arrivals);
//!
//! // Guarantee 90% of requests a 20 ms response time.
//! let target = QosTarget::new(0.90, SimDuration::from_millis(20));
//! let shaper = WorkloadShaper::plan(&workload, target);
//!
//! // Serve with Miser: primaries guaranteed, the burst's tail follows in
//! // the stream's own slack.
//! let report = shaper.run(&workload, RecombinePolicy::Miser);
//! let primary = report.stats_for(ServiceClass::PRIMARY);
//! assert!(primary.fraction_within(target.deadline()) > 0.99);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cascade;
mod consolidate;
mod degrade;
mod fair;
mod fleet;
mod kernel;
mod lanes;
mod miser;
mod offline;
mod planner;
mod rtt;
mod shaper;
mod split;
mod target;
mod tenant;

pub use cascade::{CascadeDecomposer, CascadeDecomposition, CascadeLevel};
pub use consolidate::{merge_all, ConsolidationError, ConsolidationReport, ConsolidationStudy};
pub use degrade::{
    AdaptiveScheduler, AdmissionLog, AdmissionRecord, CapacityAdaptive, DegradationController,
    DegradationPolicy,
};
pub use fair::FairQueueScheduler;
pub use fleet::{
    FleetError, FleetPlacer, FleetTenant, PackStats, Placement, QuoteCache, ServerBin,
};
pub use kernel::{overflow_curve, within_miss_budget_curve};
pub use miser::MiserScheduler;
pub use offline::{rtt_period_bound, slotted_lower_bound, OptimalityCheck};
pub use planner::{capacity_floor, CapacityPlanner, MenuError, SeedCurve, SlaQuote};
pub use rtt::{
    decompose, decompose_with_budget, optimal_drop_lower_bound, overflow_count, within_miss_budget,
    DecomposeScratch, Decomposition, RttClassifier, ScratchDecomposition,
};
pub use shaper::{RecombinePolicy, StreamObservation, WorkloadShaper};
pub use split::{SplitScheduler, SPLIT_OVERFLOW_SERVER, SPLIT_PRIMARY_SERVER};
pub use target::{Provision, QosTarget};
pub use tenant::{merge_tenants, MultiTenantScheduler, TenantConfig, TenantId};

// The unshaped baseline scheduler lives in the simulation crate; re-export
// it so downstream users find all four policies in one place.
pub use gqos_sim::FcfsScheduler;
