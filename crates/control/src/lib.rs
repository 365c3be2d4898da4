//! # gqos-control — crash-safe live SLA renegotiation for the fleet
//!
//! The control plane over `gqos_core`'s fleet placement engine: a
//! versioned command bus with **epoch-fenced, idempotent** commands, a
//! deterministic **retry/timeout/backoff** client driving delivery over
//! an injectable lossy channel, graceful **zero-drop reconfiguration**
//! (drain-and-migrate, node down/up with flap damping), and the
//! deterministic chaos harness that pins the whole stack's invariants.
//!
//! The pieces:
//!
//! - [`ControlRequest`] / [`ControlResponse`] (bus-level types):
//!   typed commands (`AddTenant`, `RemoveTenant`, `UpdateSla`,
//!   `DrainTenant`, `NodeDown`, `NodeUp`) with per-tenant epoch fencing
//!   on top of `FleetTenant::bump_epoch` / `QuoteCache` invalidation —
//!   stale commands rejected with [`ControlError::StaleEpoch`], retried
//!   commands deduped by [`CommandId`] so nothing ever double-applies.
//! - [`ControlPlane`]: the single authority applying commands to the
//!   live [`Placement`](gqos_core::Placement), with the convergence
//!   oracle ([`ControlPlane::oracle_quotes`]) that a from-scratch pack
//!   must match bit-for-bit.
//! - [`RetryPolicy`] + [`ControlDriver`]: seeded capped-exponential
//!   backoff with deterministic jitter, driving delivery over a
//!   [`ControlChannel`] — either the no-fault [`PerfectChannel`] or
//!   `gqos_faults::ChannelFaultSchedule` with drop/duplicate/delay
//!   windows.
//! - [`ReplanGuard`]: degrade-fast / recover-slow hysteresis so a
//!   flapping node cannot thrash fleet replanning.
//! - [`SloController`] ([`slo`]): the QWin-style SLO-window feedback
//!   loop — per-window integer verdicts over `gqos_obs` latency
//!   sketches, a bracketed bisection per tenant that provably converges
//!   to the static quote `Cmin(f, δ)`, retunes issued as epoch-fenced
//!   share-carrying `UpdateSla` commands, frozen while the degradation
//!   ladder is below nominal.
//!
//! Chaos invariants (pinned in `tests/chaos_props.rs` and exercised by
//! the `control_chaos` bench): no request is ever dropped by a drain,
//! epochs are monotone per tenant, converged quotes are bit-identical
//! to a from-scratch placement of the final tenant set, and reports are
//! byte-identical across 1/2/4/8 workers.
//!
//! # Examples
//!
//! ```
//! use gqos_control::{CommandBody, ControlPlane, ControlRequest};
//! use gqos_core::{FleetPlacer, QosTarget, TenantId};
//! use gqos_parallel::WorkerPool;
//! use gqos_trace::{Iops, SimDuration, SimTime, Workload};
//!
//! let target = QosTarget::new(0.9, SimDuration::from_millis(20));
//! let placer = FleetPlacer::new(target, Iops::new(400.0));
//! let mut plane = ControlPlane::new(placer, 4, WorkerPool::serial()).unwrap();
//! let add = ControlRequest::new(
//!     1,
//!     CommandBody::AddTenant {
//!         tenant: TenantId::new(0),
//!         workload: Workload::from_arrivals((0..50).map(SimTime::from_millis)),
//!     },
//! );
//! let response = plane.apply(&add, SimTime::ZERO);
//! assert!(response.outcome.is_ok());
//! // Retried delivery of the same command: replayed, not re-applied.
//! assert_eq!(plane.apply(&add, SimTime::from_millis(3)), response);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bus;
mod channel;
pub mod chaos;
mod guard;
mod plane;
mod retry;
pub mod slo;

pub use bus::{
    Ack, AckDetail, CommandBody, CommandId, ControlError, ControlRequest, ControlResponse,
    PROTOCOL_VERSION,
};
pub use channel::{
    CommandOutcome, ControlChannel, ControlDriver, Delivery, DriverStats, PerfectChannel,
};
pub use guard::ReplanGuard;
pub use plane::{ControlPlane, PlaneStats};
pub use retry::RetryPolicy;
pub use slo::{
    drift_pattern, synth_window_sketch, SloConfig, SloController, SloRun, SloScenario,
    SloScenarioConfig, SloStats, SloTarget, WindowRecord, WindowVerdict, GROWTH_DEN,
};
