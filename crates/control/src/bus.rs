//! The versioned control bus: typed commands, typed acks, typed
//! rejections.
//!
//! Every mutation of the fleet travels as a [`ControlRequest`] — a
//! protocol version, a client-chosen [`CommandId`], and a
//! [`CommandBody`]. The contract that makes retries safe:
//!
//! - **Idempotency by id.** The plane remembers the [`ControlResponse`]
//!   of every command id it has ever decided and replays it verbatim for
//!   a duplicate delivery — a retried command can never double-apply.
//! - **Epoch fencing.** Every tenant-mutating body carries the epoch the
//!   client believes the tenant is at (its `expect_epoch` field).
//!   A mismatch is rejected with [`ControlError::StaleEpoch`] carrying
//!   both epochs, so a command drafted against yesterday's SLA can never
//!   clobber today's.
//! - **Version gating.** A request whose `version` differs from
//!   [`PROTOCOL_VERSION`] is rejected with
//!   [`ControlError::VersionMismatch`] before any state is read.

use std::error::Error;
use std::fmt;

use gqos_core::TenantId;
use gqos_trace::{SimDuration, Workload};

/// The control bus protocol version requests must carry.
pub const PROTOCOL_VERSION: u32 = 1;

/// A client-chosen command identifier — the idempotency key.
///
/// Ids must be unique per logical command; retries of the same command
/// reuse the same id, which is exactly what lets the plane dedup them.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CommandId(u64);

impl CommandId {
    /// Wraps a raw id.
    pub const fn new(raw: u64) -> Self {
        CommandId(raw)
    }

    /// The raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for CommandId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cmd{}", self.0)
    }
}

/// What a control command asks the plane to do.
#[derive(Clone, PartialEq, Debug)]
pub enum CommandBody {
    /// Admit a new tenant with this workload profile and place it.
    AddTenant {
        /// The tenant to admit (must not currently exist).
        tenant: TenantId,
        /// The tenant's arrival profile.
        workload: Workload,
    },
    /// Remove a tenant, evicting it from its bin and dropping its cached
    /// quotes.
    RemoveTenant {
        /// The tenant to remove.
        tenant: TenantId,
        /// The epoch the client believes the tenant is at.
        expect_epoch: u64,
    },
    /// Renegotiate a tenant's SLA to `fraction` of requests within
    /// `deadline`, advancing its epoch. Cached quotes survive: they
    /// depend on the tenant's workload alone.
    UpdateSla {
        /// The tenant renegotiating.
        tenant: TenantId,
        /// The new guaranteed fraction `f` in `(0, 1]`.
        fraction: f64,
        /// The new response-time bound δ.
        deadline: SimDuration,
        /// The epoch the client believes the tenant is at.
        expect_epoch: u64,
        /// An explicit capacity share (integer IOPS) to record for the
        /// tenant — the SLO-window feedback controller's actuation path.
        /// `None` keeps share bookkeeping untouched (plain SLA
        /// renegotiation); `Some(s)` requires `s ≥ 1` and that explicit
        /// shares across the fleet stay within total fleet capacity
        /// ([`ControlError::ShareOverCommit`] otherwise).
        share: Option<u64>,
    },
    /// Drain the tenant off its current bin and migrate it to a
    /// different one (zero-drop at the data plane; see
    /// `gqos_stream::drain_migrate`).
    DrainTenant {
        /// The tenant to move.
        tenant: TenantId,
        /// The epoch the client believes the tenant is at.
        expect_epoch: u64,
    },
    /// A server failed: mark it down and re-place its residents.
    NodeDown {
        /// The failed server index.
        node: usize,
    },
    /// A server recovered: mark it up; refill is deferred behind the
    /// flap-damping guard.
    NodeUp {
        /// The recovered server index.
        node: usize,
    },
}

impl CommandBody {
    /// The tenant this command targets, if any.
    pub fn tenant(&self) -> Option<TenantId> {
        match *self {
            CommandBody::AddTenant { tenant, .. }
            | CommandBody::RemoveTenant { tenant, .. }
            | CommandBody::UpdateSla { tenant, .. }
            | CommandBody::DrainTenant { tenant, .. } => Some(tenant),
            CommandBody::NodeDown { .. } | CommandBody::NodeUp { .. } => None,
        }
    }

    /// Short command-kind label for reports and traces.
    pub fn kind(&self) -> &'static str {
        match self {
            CommandBody::AddTenant { .. } => "add_tenant",
            CommandBody::RemoveTenant { .. } => "remove_tenant",
            CommandBody::UpdateSla { .. } => "update_sla",
            CommandBody::DrainTenant { .. } => "drain_tenant",
            CommandBody::NodeDown { .. } => "node_down",
            CommandBody::NodeUp { .. } => "node_up",
        }
    }
}

/// One versioned, idempotent command envelope.
#[derive(Clone, PartialEq, Debug)]
pub struct ControlRequest {
    /// The protocol version the client speaks.
    pub version: u32,
    /// The idempotency key.
    pub id: CommandId,
    /// What the command does.
    pub body: CommandBody,
}

impl ControlRequest {
    /// A request at the current [`PROTOCOL_VERSION`].
    pub fn new(id: u64, body: CommandBody) -> Self {
        ControlRequest {
            version: PROTOCOL_VERSION,
            id: CommandId::new(id),
            body,
        }
    }
}

/// The plane's decision for one command id — replayed verbatim on
/// duplicate delivery.
#[derive(Clone, PartialEq, Debug)]
pub struct ControlResponse {
    /// The command this responds to.
    pub id: CommandId,
    /// The decision: a typed ack or a typed rejection.
    pub outcome: Result<Ack, ControlError>,
}

/// A successful command application.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Ack {
    /// The tenant's epoch after the command, when one is involved.
    pub epoch: Option<u64>,
    /// What actually happened.
    pub detail: AckDetail,
}

/// The per-command payload of an [`Ack`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AckDetail {
    /// `AddTenant`: the hosting server, or `None` when no server admits
    /// the tenant (it is recorded unplaced, never dropped).
    Placed {
        /// The hosting server, if any.
        node: Option<usize>,
    },
    /// `RemoveTenant`: the server the tenant was evicted from, if it was
    /// placed.
    Removed {
        /// The server vacated, if any.
        from: Option<usize>,
    },
    /// `UpdateSla`: the fresh `Cmin(f, δ)` quote under the renegotiated
    /// target.
    SlaUpdated {
        /// The renegotiated capacity quote in integer IOPS.
        cmin: u64,
    },
    /// `DrainTenant`: the handoff endpoints.
    Drained {
        /// The bin vacated.
        from: usize,
        /// The target bin, or `None` when no other server admits the
        /// tenant (recorded unplaced, never dropped).
        to: Option<usize>,
    },
    /// `NodeDown` / `NodeUp`: the node's new state and how many tenants
    /// moved (re-placed on down, refilled on up).
    NodeState {
        /// The server index.
        node: usize,
        /// `true` when the node is now down.
        down: bool,
        /// Tenants re-placed (down) or refilled (up) by this command.
        moved: u64,
    },
}

/// A typed command rejection. Rejections are decisions too: they are
/// cached under the command id and replayed on retry exactly like acks.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum ControlError {
    /// The request's protocol version is not this plane's.
    VersionMismatch {
        /// The version the request carried.
        got: u32,
        /// The version the plane speaks.
        want: u32,
    },
    /// The command's fencing epoch does not match the tenant's current
    /// epoch — it was drafted against stale state.
    StaleEpoch {
        /// The fenced tenant.
        tenant: TenantId,
        /// The epoch the command expected.
        expect: u64,
        /// The tenant's actual epoch.
        current: u64,
    },
    /// The command names a tenant the plane does not have.
    UnknownTenant {
        /// The missing tenant.
        tenant: TenantId,
    },
    /// `AddTenant` for a tenant that already exists.
    DuplicateTenant {
        /// The existing tenant.
        tenant: TenantId,
    },
    /// `DrainTenant` for a tenant that is not currently placed.
    NotPlaced {
        /// The unplaced tenant.
        tenant: TenantId,
    },
    /// `UpdateSla` with a fraction outside `(0, 1]` or not finite.
    BadSla {
        /// The offending fraction.
        fraction: f64,
    },
    /// `UpdateSla` with a zero deadline.
    BadDeadline,
    /// `UpdateSla` with an explicit share of zero IOPS.
    BadShare,
    /// `UpdateSla` whose explicit share would push the fleet's committed
    /// shares past its total capacity.
    ShareOverCommit {
        /// The share the command asked for.
        asked: u64,
        /// The capacity still uncommitted before this command.
        available: u64,
    },
    /// The placement layer rejected the operation.
    Placement {
        /// The underlying fleet error.
        error: gqos_core::FleetError,
    },
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ControlError::VersionMismatch { got, want } => {
                write!(
                    f,
                    "protocol version {got} not understood (plane speaks {want})"
                )
            }
            ControlError::StaleEpoch {
                tenant,
                expect,
                current,
            } => write!(
                f,
                "stale epoch for {tenant}: command fenced at {expect}, tenant is at {current}"
            ),
            ControlError::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant}"),
            ControlError::DuplicateTenant { tenant } => {
                write!(f, "tenant {tenant} already exists")
            }
            ControlError::NotPlaced { tenant } => {
                write!(f, "tenant {tenant} is not placed on any server")
            }
            ControlError::BadSla { fraction } => {
                write!(f, "guaranteed fraction must be in (0, 1]: got {fraction}")
            }
            ControlError::BadDeadline => f.write_str("SLA deadline must be positive"),
            ControlError::BadShare => f.write_str("capacity share must be at least 1 IOPS"),
            ControlError::ShareOverCommit { asked, available } => write!(
                f,
                "share of {asked} IOPS exceeds the fleet's uncommitted capacity ({available} IOPS)"
            ),
            ControlError::Placement { error } => write!(f, "placement rejected: {error}"),
        }
    }
}

impl Error for ControlError {}

impl From<gqos_core::FleetError> for ControlError {
    fn from(error: gqos_core::FleetError) -> Self {
        ControlError::Placement { error }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_trace::SimTime;

    #[test]
    fn bodies_expose_tenant_and_fence() {
        let t = TenantId::new(3);
        let add = CommandBody::AddTenant {
            tenant: t,
            workload: Workload::from_arrivals([SimTime::ZERO]),
        };
        assert_eq!(add.tenant(), Some(t));
        assert_eq!(add.kind(), "add_tenant");
        let fence = CommandBody::UpdateSla {
            tenant: t,
            fraction: 0.9,
            deadline: SimDuration::from_millis(20),
            expect_epoch: 4,
            share: None,
        };
        assert_eq!(fence.tenant(), Some(t));
        let node = CommandBody::NodeDown { node: 2 };
        assert_eq!(node.tenant(), None);
        assert_eq!(node.kind(), "node_down");
    }

    #[test]
    fn errors_display_both_epochs() {
        let e = ControlError::StaleEpoch {
            tenant: TenantId::new(1),
            expect: 2,
            current: 5,
        };
        assert_eq!(
            e.to_string(),
            "stale epoch for tenant1: command fenced at 2, tenant is at 5"
        );
        assert_eq!(
            ControlError::VersionMismatch { got: 9, want: 1 }.to_string(),
            "protocol version 9 not understood (plane speaks 1)"
        );
    }

    #[test]
    fn requests_default_to_the_current_version() {
        let r = ControlRequest::new(7, CommandBody::NodeUp { node: 0 });
        assert_eq!(r.version, PROTOCOL_VERSION);
        assert_eq!(r.id, CommandId::new(7));
        assert_eq!(r.id.to_string(), "cmd7");
    }
}
