//! The deterministic chaos scenario generator: random command × channel
//! fault × node fault interleavings, reproducible from one `u64` seed.
//!
//! [`ChaosScenario::generate`] derives everything from the seed with
//! stateless [`splitmix64`] draws: a fleet of tenants with synthetic
//! bursty workloads, a command script (adds, removes, SLA
//! renegotiations, drains) fenced against an optimistic shadow of the
//! epochs, and `NodeDown`/`NodeUp` commands derived from a correlated
//! [`FleetFaultSchedule`]'s outages. [`ChaosScenario::execute`] then drives
//! the script through a [`ControlPlane`] over a seeded lossy channel.
//!
//! Because the channel drops and reorders, the shadow epochs diverge
//! from the plane's — some commands are rejected with
//! [`StaleEpoch`](crate::ControlError::StaleEpoch), some expire
//! client-side. That is the point: the harness asserts the invariants
//! that must survive *any* interleaving (epochs monotone, convergence
//! oracle bit-identical, worker-count byte-identity), not a particular
//! happy path.

use gqos_core::{FleetPlacer, QosTarget, TenantId};
use gqos_faults::{splitmix64, ChannelFaultSchedule, FleetFaultSchedule};
use gqos_parallel::WorkerPool;
use gqos_trace::{Iops, SimDuration, SimTime, Workload};

use crate::bus::{CommandBody, ControlRequest};
use crate::channel::{CommandOutcome, ControlDriver, Delivery, DriverStats};
use crate::guard::ReplanGuard;
use crate::plane::ControlPlane;
use crate::retry::RetryPolicy;

/// Salt separating the channel-fault seed stream from the command
/// stream.
const CHANNEL_SALT: u64 = 0xC0A7_1E55_0B5E_55ED;
/// Salt separating the node-fault seed stream.
const FLEET_SALT: u64 = 0xF1EE_7F4A_17B0_0B5E;

/// Shape of one chaos scenario. This is a passive config record; fields
/// are public by design.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ChaosConfig {
    /// Servers in the fleet.
    pub servers: usize,
    /// Tenants admitted before the chaos starts.
    pub initial_tenants: usize,
    /// Random tenant operations after the initial admissions.
    pub ops: usize,
    /// Scenario span; faults and command times are scaled into it.
    pub span: SimDuration,
    /// Channel fault severity in `[0, 1]`.
    pub channel_severity: f64,
    /// Node fault severity in `[0, 1]`.
    pub node_severity: f64,
    /// Cross-node fault correlation in `[0, 1]`.
    pub correlation: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            servers: 6,
            initial_tenants: 8,
            ops: 24,
            span: SimDuration::from_secs(10),
            channel_severity: 0.7,
            node_severity: 0.9,
            correlation: 0.5,
        }
    }
}

/// A fully generated scenario: the command script and the fault
/// schedules it runs under.
#[derive(Clone, Debug)]
pub struct ChaosScenario {
    seed: u64,
    config: ChaosConfig,
    commands: Vec<(SimTime, ControlRequest)>,
    channel: ChannelFaultSchedule,
}

/// `[0, 1)` fraction from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A synthetic bursty workload for tenant `idx`: a steady lane plus a
/// mid-run burst, sized and spaced by seeded draws.
pub fn chaos_workload(seed: u64, idx: usize) -> Workload {
    let h = splitmix64(seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let steady = 40 + (h % 40);
    let spacing = 4 + (splitmix64(h) % 9);
    let burst = 8 + (splitmix64(h ^ 1) % 16);
    let burst_at = SimTime::from_millis(steady * spacing / 2);
    let mut arrivals: Vec<SimTime> = (0..steady)
        .map(|i| SimTime::from_millis(i * spacing + (idx as u64 % spacing)))
        .collect();
    arrivals.extend(std::iter::repeat_n(burst_at, burst as usize));
    Workload::from_arrivals(arrivals)
}

impl ChaosScenario {
    /// Generates the scenario for `seed` under `config`.
    pub fn generate(seed: u64, config: ChaosConfig) -> Self {
        let mut commands: Vec<(SimTime, ControlRequest)> = Vec::new();
        let mut next_id = 1u64;
        let mut issue =
            |commands: &mut Vec<(SimTime, ControlRequest)>, at: SimTime, body: CommandBody| {
                commands.push((at, ControlRequest::new(next_id, body)));
                next_id += 1;
            };
        // Optimistic shadow of the fleet: epochs as they would be if
        // every command applied in issue order.
        let mut alive: Vec<usize> = Vec::new();
        let mut epochs: Vec<u64> = Vec::new();
        let mut retired: Vec<(usize, u64)> = Vec::new();
        let mut next_tenant = 0usize;
        for i in 0..config.initial_tenants {
            issue(
                &mut commands,
                SimTime::from_millis(i as u64 + 1),
                CommandBody::AddTenant {
                    tenant: TenantId::new(next_tenant),
                    workload: chaos_workload(seed, next_tenant),
                },
            );
            alive.push(next_tenant);
            epochs.push(0);
            next_tenant += 1;
        }
        let step =
            SimDuration::from_nanos((config.span.as_nanos() / (config.ops as u64 + 2)).max(1));
        for op in 0..config.ops {
            let h =
                splitmix64(seed ^ 0x0B5E_55ED ^ (op as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
            let at = SimTime::ZERO
                + SimDuration::from_nanos(step.as_nanos() * (op as u64 + 1))
                + SimDuration::from_nanos(splitmix64(h) % step.as_nanos().max(1));
            let kind = h % 100;
            if alive.is_empty() || kind >= 75 {
                // Admit a fresh tenant (or re-admit a retired one).
                let (tenant, epoch) = if !retired.is_empty() && kind.is_multiple_of(2) {
                    let (t, last) =
                        retired.remove((splitmix64(h ^ 2) % retired.len() as u64) as usize);
                    (t, last + 1)
                } else {
                    let t = next_tenant;
                    next_tenant += 1;
                    (t, 0)
                };
                issue(
                    &mut commands,
                    at,
                    CommandBody::AddTenant {
                        tenant: TenantId::new(tenant),
                        workload: chaos_workload(seed, tenant),
                    },
                );
                alive.push(tenant);
                epochs.push(epoch);
                continue;
            }
            let pick = (splitmix64(h ^ 3) % alive.len() as u64) as usize;
            let tenant = alive[pick];
            let expect = epochs[pick];
            if kind < 35 {
                let fraction = 0.75 + unit(splitmix64(h ^ 4)) * 0.25;
                let deadline = SimDuration::from_millis([10, 20, 20, 40][(h % 4) as usize]);
                issue(
                    &mut commands,
                    at,
                    CommandBody::UpdateSla {
                        tenant: TenantId::new(tenant),
                        fraction,
                        deadline,
                        expect_epoch: expect,
                        share: None,
                    },
                );
                epochs[pick] += 1;
            } else if kind < 60 {
                issue(
                    &mut commands,
                    at,
                    CommandBody::DrainTenant {
                        tenant: TenantId::new(tenant),
                        expect_epoch: expect,
                    },
                );
            } else {
                issue(
                    &mut commands,
                    at,
                    CommandBody::RemoveTenant {
                        tenant: TenantId::new(tenant),
                        expect_epoch: expect,
                    },
                );
                alive.swap_remove(pick);
                let last = epochs.swap_remove(pick);
                retired.push((tenant, last));
            }
        }
        // Node chaos: every outage of a correlated fleet fault schedule
        // becomes a NodeDown at its start and a NodeUp at its end.
        let fleet = FleetFaultSchedule::try_generate(
            splitmix64(seed ^ FLEET_SALT),
            config.servers,
            config.span,
            config.node_severity,
            config.correlation,
        )
        .expect("chaos config must be valid");
        for (node, start, end) in fleet.outages() {
            issue(&mut commands, start, CommandBody::NodeDown { node });
            issue(&mut commands, end, CommandBody::NodeUp { node });
        }
        let channel = ChannelFaultSchedule::try_generate(
            splitmix64(seed ^ CHANNEL_SALT),
            config.span,
            config.channel_severity,
        )
        .expect("chaos config must be valid");
        ChaosScenario {
            seed,
            config,
            commands,
            channel,
        }
    }

    /// The scenario seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The generated command script, in issue order.
    pub fn commands(&self) -> &[(SimTime, ControlRequest)] {
        &self.commands
    }

    /// The channel fault schedule commands are delivered over.
    pub fn channel(&self) -> &ChannelFaultSchedule {
        &self.channel
    }

    /// Executes the scenario on a fresh plane that shares `pool`.
    pub fn execute(&self, pool: &WorkerPool) -> ChaosRun {
        let target = QosTarget::new(0.9, SimDuration::from_millis(20));
        let placer = FleetPlacer::new(target, Iops::new(500.0));
        let plane = ControlPlane::new(placer, self.config.servers, pool.clone())
            .expect("chaos fleets have servers")
            .with_guard(ReplanGuard::new(SimDuration::from_millis(250)));
        let mut plane = plane;
        // First backoff strictly above the channel round trip (one-way
        // base latency each leg), so a fault-free delivery acks before
        // the retry fires and a calm channel stays retry-free.
        let rtt = SimDuration::from_nanos(self.channel.base_latency().as_nanos().saturating_mul(2));
        let policy = RetryPolicy::new(self.seed)
            .with_base(rtt + SimDuration::from_millis(1))
            .with_cap(rtt + SimDuration::from_millis(50));
        let driver = ControlDriver::new(&self.channel, policy);
        let (outcomes, stats) = driver.run(&mut plane, &self.commands);
        ChaosRun {
            plane,
            outcomes,
            stats,
        }
    }
}

/// The executed scenario: the plane's end state and the client's view.
#[derive(Debug)]
pub struct ChaosRun {
    /// The plane after the full interleaving.
    pub plane: ControlPlane,
    /// Per-command client outcomes, in issue order.
    pub outcomes: Vec<CommandOutcome>,
    /// Delivery counters.
    pub stats: DriverStats,
}

impl ChaosRun {
    /// A deterministic multi-line rendering of the whole run — the
    /// byte-identity witness compared across worker counts and the body
    /// of the `control_chaos` report.
    pub fn report(&mut self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for o in &self.outcomes {
            let verdict = match &o.delivery {
                Delivery::Expired => "expired".to_string(),
                Delivery::Acked(resp) => match &resp.outcome {
                    Ok(ack) => format!("ok:{:?}", ack.detail),
                    Err(e) => format!("err:{e}"),
                },
            };
            let _ = writeln!(out, "{} attempts={} {}", o.id, o.attempts, verdict);
        }
        let s = self.stats;
        let _ = writeln!(
            out,
            "driver attempts={} retries={} dropped_req={} dropped_resp={} duplicates={} acked={} expired={}",
            s.attempts, s.retries, s.dropped_requests, s.dropped_responses, s.duplicates, s.acked, s.expired
        );
        out.push_str(&self.plane.summary());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_reproducible_and_nontrivial() {
        let a = ChaosScenario::generate(0xC0FFEE, ChaosConfig::default());
        let b = ChaosScenario::generate(0xC0FFEE, ChaosConfig::default());
        assert_eq!(a.commands(), b.commands());
        assert!(a.commands().len() >= 32, "initial adds + ops + node events");
        let kinds: std::collections::BTreeSet<&'static str> =
            a.commands().iter().map(|(_, r)| r.body.kind()).collect();
        assert!(kinds.contains("add_tenant"));
        assert!(
            kinds.contains("node_down") && kinds.contains("node_up"),
            "severity 0.9 outages must surface node chaos: got {kinds:?}"
        );
    }

    #[test]
    fn execution_is_deterministic_for_a_fixed_seed() {
        let scenario = ChaosScenario::generate(7, ChaosConfig::default());
        let mut a = scenario.execute(&WorkerPool::serial());
        let mut b = scenario.execute(&WorkerPool::serial());
        assert_eq!(a.report(), b.report());
    }
}
