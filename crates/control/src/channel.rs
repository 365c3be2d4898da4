//! Deterministic delivery of control commands over a faulty channel.
//!
//! [`ControlDriver`] is a simulated-clock event loop: each scheduled
//! command is attempted, retried per its [`RetryPolicy`], and both the
//! request and the response independently suffer the channel's fate —
//! drop, duplicate, or delay — drawn statelessly from the
//! [`ChannelFaultSchedule`] seed. Duplicates exercise the plane's dedup
//! log; drops exercise the retry path; delays reorder applications
//! across commands. Everything is a pure function of
//! `(commands, channel, policy)`, so a chaos interleaving replays
//! bit-identically from its seeds.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use gqos_faults::{splitmix64, ChannelFate, ChannelFaultSchedule};
use gqos_trace::{SimDuration, SimTime};

use crate::bus::{CommandId, ControlRequest, ControlResponse};
use crate::plane::ControlPlane;
use crate::retry::RetryPolicy;

/// Salt decorrelating response fates from request fates on the same
/// attempt.
const RESPONSE_SALT: u64 = 0xA5A5_5A5A_C3C3_3C3C;

/// A transport the driver can send one message over.
///
/// Implemented by [`ChannelFaultSchedule`] (lossy, seeded) and
/// [`PerfectChannel`] (fixed latency, never drops) — inject whichever
/// the scenario calls for.
pub trait ControlChannel {
    /// The fate of a message sent at `at` with stateless key `key`.
    fn fate(&self, at: SimTime, key: u64) -> ChannelFate;
}

impl ControlChannel for ChannelFaultSchedule {
    fn fate(&self, at: SimTime, key: u64) -> ChannelFate {
        ChannelFaultSchedule::fate(self, at, key)
    }
}

/// A channel that delivers every message exactly once after a fixed
/// latency — the no-fault baseline.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct PerfectChannel {
    latency: SimDuration,
}

impl PerfectChannel {
    /// A perfect channel with `latency` per hop.
    pub fn new(latency: SimDuration) -> Self {
        PerfectChannel { latency }
    }
}

impl ControlChannel for PerfectChannel {
    fn fate(&self, _at: SimTime, _key: u64) -> ChannelFate {
        ChannelFate {
            delivery: Some(self.latency),
            duplicate: None,
        }
    }
}

/// Deterministic counters of one driver run.
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct DriverStats {
    /// Send attempts issued (first tries and retries).
    pub attempts: u64,
    /// Retries among those attempts.
    pub retries: u64,
    /// Request copies lost in flight.
    pub dropped_requests: u64,
    /// Response copies lost in flight.
    pub dropped_responses: u64,
    /// Extra deliveries created by duplication windows (either
    /// direction).
    pub duplicates: u64,
    /// Commands resolved by an acked response.
    pub acked: u64,
    /// Commands that hit their deadline unresolved.
    pub expired: u64,
}

/// How one command ended, from the client's point of view.
///
/// `Expired` means the *client* gave up — the plane may still have
/// applied the command if a request copy landed after the last response
/// was lost. Convergence invariants are therefore checked against the
/// plane's actual state, never against client bookkeeping.
#[derive(Clone, PartialEq, Debug)]
pub enum Delivery {
    /// A response made it back before the deadline.
    Acked(ControlResponse),
    /// No response arrived before the per-command deadline.
    Expired,
}

/// One command's client-side outcome.
#[derive(Clone, PartialEq, Debug)]
pub struct CommandOutcome {
    /// The command.
    pub id: CommandId,
    /// Send attempts actually issued.
    pub attempts: u32,
    /// How it resolved.
    pub delivery: Delivery,
}

/// The retrying client + event loop over a [`ControlChannel`].
#[derive(Debug)]
pub struct ControlDriver<'a, C: ControlChannel> {
    channel: &'a C,
    policy: RetryPolicy,
}

enum EvKind {
    /// Client sends attempt `n` of command `cmd`.
    Attempt { cmd: usize, attempt: u32 },
    /// A request copy reaches the plane.
    ServerArrive { cmd: usize, attempt: u32 },
    /// A response copy reaches the client.
    ClientArrive {
        cmd: usize,
        response: ControlResponse,
    },
    /// The command's deadline passes.
    Expire { cmd: usize },
}

struct Ev {
    at: SimTime,
    seq: u64,
    kind: EvKind,
}

// Min-heap order on (at, seq): BinaryHeap is a max-heap, so reverse.
impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<'a, C: ControlChannel> ControlDriver<'a, C> {
    /// A driver sending over `channel` under `policy`.
    pub fn new(channel: &'a C, policy: RetryPolicy) -> Self {
        ControlDriver { channel, policy }
    }

    /// Delivers `commands` (each an issue instant and a request) to
    /// `plane`, retrying per the policy, and returns the per-command
    /// outcomes in input order plus the run's counters.
    pub fn run(
        &self,
        plane: &mut ControlPlane,
        commands: &[(SimTime, ControlRequest)],
    ) -> (Vec<CommandOutcome>, DriverStats) {
        let mut stats = DriverStats::default();
        let mut resolved: Vec<Option<Delivery>> = vec![None; commands.len()];
        let mut attempts: Vec<u32> = vec![0; commands.len()];
        let mut heap: BinaryHeap<Ev> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |heap: &mut BinaryHeap<Ev>, at: SimTime, kind: EvKind| {
            heap.push(Ev { at, seq, kind });
            seq += 1;
        };
        for (i, (issue, _)) in commands.iter().enumerate() {
            push(&mut heap, *issue, EvKind::Attempt { cmd: i, attempt: 1 });
            push(
                &mut heap,
                *issue + self.policy.deadline(),
                EvKind::Expire { cmd: i },
            );
        }
        while let Some(Ev { at, kind, .. }) = heap.pop() {
            match kind {
                EvKind::Attempt { cmd, attempt } => {
                    if resolved[cmd].is_some() {
                        continue;
                    }
                    let (issue, request) = &commands[cmd];
                    attempts[cmd] = attempt;
                    stats.attempts += 1;
                    if attempt > 1 {
                        stats.retries += 1;
                    }
                    let fate = self.channel.fate(at, request_key(request.id, attempt));
                    match fate.delivery {
                        None => stats.dropped_requests += 1,
                        Some(latency) => {
                            push(
                                &mut heap,
                                at + latency,
                                EvKind::ServerArrive { cmd, attempt },
                            );
                            if let Some(extra) = fate.duplicate {
                                stats.duplicates += 1;
                                push(&mut heap, at + extra, EvKind::ServerArrive { cmd, attempt });
                            }
                        }
                    }
                    if attempt < self.policy.max_attempts() {
                        let next = at + self.policy.backoff(request.id, attempt);
                        if next <= *issue + self.policy.deadline() {
                            push(
                                &mut heap,
                                next,
                                EvKind::Attempt {
                                    cmd,
                                    attempt: attempt + 1,
                                },
                            );
                        }
                    }
                }
                EvKind::ServerArrive { cmd, attempt } => {
                    let (_, request) = &commands[cmd];
                    // The plane dedups by command id: duplicate arrivals
                    // replay the cached decision, never re-apply.
                    let response = plane.apply(request, at);
                    let fate = self.channel.fate(at, response_key(request.id, attempt));
                    match fate.delivery {
                        None => stats.dropped_responses += 1,
                        Some(latency) => {
                            if let Some(extra) = fate.duplicate {
                                stats.duplicates += 1;
                                push(
                                    &mut heap,
                                    at + extra,
                                    EvKind::ClientArrive {
                                        cmd,
                                        response: response.clone(),
                                    },
                                );
                            }
                            push(
                                &mut heap,
                                at + latency,
                                EvKind::ClientArrive { cmd, response },
                            );
                        }
                    }
                }
                EvKind::ClientArrive { cmd, response } => {
                    if resolved[cmd].is_none() {
                        resolved[cmd] = Some(Delivery::Acked(response));
                        stats.acked += 1;
                    }
                }
                EvKind::Expire { cmd } => {
                    if resolved[cmd].is_none() {
                        resolved[cmd] = Some(Delivery::Expired);
                        stats.expired += 1;
                    }
                }
            }
        }
        let outcomes = commands
            .iter()
            .enumerate()
            .map(|(i, (_, request))| CommandOutcome {
                id: request.id,
                attempts: attempts[i],
                delivery: resolved[i].take().unwrap_or(Delivery::Expired),
            })
            .collect();
        (outcomes, stats)
    }
}

/// Stateless fate key for attempt `attempt` of `id`'s request leg.
fn request_key(id: CommandId, attempt: u32) -> u64 {
    splitmix64(id.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt))
}

/// Stateless fate key for the response leg — decorrelated from the
/// request leg so a drop window does not doom both directions together.
fn response_key(id: CommandId, attempt: u32) -> u64 {
    splitmix64(id.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt) ^ RESPONSE_SALT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{Ack, AckDetail, CommandBody};
    use gqos_core::{FleetPlacer, QosTarget, TenantId};
    use gqos_parallel::WorkerPool;
    use gqos_trace::{Iops, Workload};

    fn plane() -> ControlPlane {
        let target = QosTarget::new(0.9, SimDuration::from_millis(20));
        ControlPlane::new(
            FleetPlacer::new(target, Iops::new(400.0)),
            3,
            WorkerPool::serial(),
        )
        .unwrap()
    }

    fn add(id: u64, tenant: usize) -> ControlRequest {
        ControlRequest::new(
            id,
            CommandBody::AddTenant {
                tenant: TenantId::new(tenant),
                workload: Workload::from_arrivals(
                    (0..40).map(|i| SimTime::from_millis(i * 9 + tenant as u64)),
                ),
            },
        )
    }

    #[test]
    fn perfect_channel_acks_everything_once() {
        let channel = PerfectChannel::new(SimDuration::from_millis(1));
        let driver = ControlDriver::new(&channel, RetryPolicy::new(7));
        let mut plane = plane();
        let commands = vec![
            (SimTime::from_millis(0), add(1, 0)),
            (SimTime::from_millis(5), add(2, 1)),
        ];
        let (outcomes, stats) = driver.run(&mut plane, &commands);
        assert_eq!(stats.attempts, 2);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.acked, 2);
        assert_eq!(stats.expired, 0);
        for o in &outcomes {
            let Delivery::Acked(resp) = &o.delivery else {
                panic!("expected ack, got {o:?}");
            };
            assert!(matches!(
                resp.outcome,
                Ok(Ack {
                    detail: AckDetail::Placed { node: Some(_) },
                    ..
                })
            ));
        }
        assert_eq!(plane.stats().applied, 2);
        assert_eq!(plane.stats().replayed, 0);
    }

    #[test]
    fn total_blackout_expires_without_applying() {
        let channel = ChannelFaultSchedule::new(1, SimDuration::from_millis(1)).with_drop(
            SimTime::ZERO,
            SimDuration::from_secs(3600),
            1.0,
        );
        let driver = ControlDriver::new(&channel, RetryPolicy::new(7));
        let mut plane = plane();
        let commands = vec![(SimTime::ZERO, add(1, 0))];
        let (outcomes, stats) = driver.run(&mut plane, &commands);
        assert_eq!(outcomes[0].delivery, Delivery::Expired);
        assert_eq!(outcomes[0].attempts, RetryPolicy::new(7).max_attempts());
        assert_eq!(stats.acked, 0);
        assert_eq!(stats.expired, 1);
        assert!(stats.dropped_requests >= 1);
        assert!(
            plane.tenants().is_empty(),
            "nothing must have reached the plane"
        );
    }

    #[test]
    fn duplicated_requests_apply_exactly_once() {
        // Duplicate every message both ways: the dedup log must absorb it.
        let channel = ChannelFaultSchedule::new(3, SimDuration::from_millis(1)).with_duplicate(
            SimTime::ZERO,
            SimDuration::from_secs(3600),
            1.0,
        );
        let driver = ControlDriver::new(&channel, RetryPolicy::new(5));
        let mut plane = plane();
        let commands = vec![
            (SimTime::from_millis(0), add(1, 0)),
            (SimTime::from_millis(2), add(2, 1)),
        ];
        let (outcomes, stats) = driver.run(&mut plane, &commands);
        assert!(stats.duplicates >= 2);
        assert_eq!(stats.acked, 2);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o.delivery, Delivery::Acked(_))));
        assert_eq!(
            plane.stats().applied,
            2,
            "each command applies exactly once"
        );
        assert!(
            plane.stats().replayed >= 2,
            "duplicates must hit the dedup log"
        );
        assert_eq!(plane.tenants().len(), 2);
    }

    #[test]
    fn runs_are_reproducible() {
        let channel = ChannelFaultSchedule::generate(11, SimDuration::from_secs(10), 0.6);
        let commands = vec![
            (SimTime::from_millis(100), add(1, 0)),
            (SimTime::from_millis(200), add(2, 1)),
            (SimTime::from_millis(300), add(3, 2)),
        ];
        let run = || {
            let driver = ControlDriver::new(&channel, RetryPolicy::new(13));
            let mut plane = plane();
            let (outcomes, stats) = driver.run(&mut plane, &commands);
            (outcomes, stats, plane.summary())
        };
        assert_eq!(run(), run());
    }
}
