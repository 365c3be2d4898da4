//! `control_loop`: a single-threaded `ControlPlane` holding a few hundred
//! tenants on tens of servers, driven by a seeded script of ops.
//!
//! An op is either one SLO window tick — `SloController::observe` of
//! every live tenant's `synth_window_sketch` at its applied share, with
//! the retunes delivered by `ControlDriver` over a seeded
//! `ChannelFaultSchedule` — or one scripted fleet command applied with
//! `ControlPlane::apply`. The script is one fixed episode; the run
//! replays it from the same post-set-up state until its time is up, and
//! every replay must end in the same state.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};

use gqos_bench::experiments::fleet::{fleet_tenants, size_capacity};
use gqos_bench::ExpConfig;
use gqos_control::{
    drift_pattern, synth_window_sketch, CommandBody, ControlDriver, ControlPlane, ControlRequest,
    RetryPolicy, SloConfig, SloController, SloTarget, WindowVerdict,
};
use gqos_core::{CapacityPlanner, FleetPlacer, QosTarget, TenantId};
use gqos_faults::{splitmix64, ChannelFaultSchedule};
use gqos_parallel::WorkerPool;
use gqos_trace::{Iops, SimDuration, SimTime, Workload};

use crate::spans::Tracer;
use crate::{digest_bytes, per, Outcome, Size};

/// The fleet's placement target (the fleet experiment's 95% in 20 ms).
const DEADLINE_MS: u64 = 20;
const FRACTION: f64 = 0.95;
/// The per-window SLO the controller holds each tenant to. Its deadline
/// is looser than the placement target's so that the synthetic patterns'
/// static quotes fit the fleet the sizing rule builds.
const SLO_DEADLINE_MS: u64 = 100;
const SLO_FRACTION_PPM: u32 = 900_000;
/// SLO window, and the simulated time one tick advances.
const WINDOW_MS: u64 = 100;
/// Ticks per drift segment of the synthetic per-window patterns.
const WINDOWS_PER_SEGMENT: u32 = 32;
/// Channel fault severity the retunes are delivered under.
const CHANNEL_SEVERITY: f64 = 0.3;
/// Command ids of scripted ops start here; set-up adds use `1..`.
const SCRIPT_ID_BASE: u64 = 1 << 32;
/// Command ids of controller retunes start here.
const SLO_ID_BASE: u64 = 1 << 40;
/// Every this many steps, one host-speed reference sample is taken.
const PROBE_EVERY: usize = 5;
const SCRIPT_SALT: u64 = 0x0C7A_11B0_0B5E_55ED;
const CHANNEL_SALT: u64 = 0x0C4A_77E1_5EED_0001;

/// One scripted op. Tenant picks are resolved against the live plane
/// when the op runs, so the script stays valid whatever the plane did.
#[derive(Copy, Clone, Debug, PartialEq)]
enum Step {
    Tick,
    Add(usize),
    Remove(u64),
    Drain(u64),
    UpdateSla(u64, f64),
    NodeDown(u64),
    NodeUp,
}

impl Step {
    fn span(self) -> &'static str {
        match self {
            Step::Tick => "control.tick",
            Step::Add(_) => "control.plane.apply.add_tenant",
            Step::Remove(_) => "control.plane.apply.remove_tenant",
            Step::Drain(_) => "control.plane.apply.drain_tenant",
            Step::UpdateSla(..) => "control.plane.apply.update_sla",
            Step::NodeDown(_) => "control.plane.apply.node_down",
            Step::NodeUp => "control.plane.apply.node_up",
        }
    }
}

/// Per-layer metric of each scripted command kind, from its span.
const APPLY_METRICS: [(&str, &str); 6] = [
    (
        "control.plane.apply.add_tenant",
        "control.plane.apply_us.add_tenant",
    ),
    (
        "control.plane.apply.remove_tenant",
        "control.plane.apply_us.remove_tenant",
    ),
    (
        "control.plane.apply.drain_tenant",
        "control.plane.apply_us.drain_tenant",
    ),
    (
        "control.plane.apply.update_sla",
        "control.plane.apply_us.update_sla",
    ),
    (
        "control.plane.apply.node_down",
        "control.plane.apply_us.node_down",
    ),
    (
        "control.plane.apply.node_up",
        "control.plane.apply_us.node_up",
    ),
];

pub struct Control {
    seed: u64,
    slo: SloTarget,
    plane: ControlPlane,
    controller: SloController,
    /// Tenants the script may add, with their workloads.
    extra: Vec<(TenantId, Workload)>,
    /// Every tenant's starting share: the static quote of its first
    /// segment's pattern.
    initial_share: BTreeMap<TenantId, u64>,
    script: Vec<Step>,
    channel: ChannelFaultSchedule,
}

/// `[0, 1)` from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn window() -> SimDuration {
    SimDuration::from_millis(WINDOW_MS)
}

/// The static quote of `tenant`'s pattern in the first drift segment.
fn pattern_quote(seed: u64, tenant: TenantId, slo: SloTarget) -> u64 {
    let offsets = drift_pattern(seed, tenant.index(), 0, window());
    if offsets.is_empty() {
        return slo.capacity_floor();
    }
    let workload = Workload::from_arrivals(offsets.iter().map(|&o| SimTime::from_nanos(o)));
    let quote = CapacityPlanner::new(&workload, slo.deadline()).min_capacity(slo.fraction());
    (quote.get() as u64).max(slo.capacity_floor())
}

/// The episode script. Sorted by cost, an episode's ops fall into four
/// groups: sub-0.1 ms commands (`UpdateSla`, removes, node-ups, ~30%),
/// ticks whose window retunes at most two tenants (~35%), adds, drains
/// and node-downs (~10%), and ticks that retune three or more and replan
/// (~25%). The mix puts `op_p50_ms` in the middle of the light ticks and
/// `op_p99_ms` among the heavy ones, well clear of the cliffs between
/// groups. Node outages come in down/up pairs at least four steps apart,
/// one node down at a time.
fn script(seed: u64, steps: usize, adds: usize) -> Vec<Step> {
    let mut out = Vec::with_capacity(steps);
    let mut added = 0;
    let mut down_since: Option<usize> = None;
    for k in 0..steps {
        let h = splitmix64(seed ^ SCRIPT_SALT ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let pick = splitmix64(h ^ 1);
        let step = match h % 1000 {
            0..=549 => Step::Tick,
            550..=799 => Step::UpdateSla(pick, 0.90 + 0.09 * unit(splitmix64(h ^ 2))),
            800..=839 if added < adds => {
                added += 1;
                Step::Add(added - 1)
            }
            800..=839 => Step::Tick,
            840..=879 => Step::Remove(pick),
            880..=919 => Step::Drain(pick),
            _ => match down_since {
                None => {
                    down_since = Some(k);
                    Step::NodeDown(pick)
                }
                Some(at) if k >= at + 4 => {
                    down_since = None;
                    Step::NodeUp
                }
                Some(_) => Step::Tick,
            },
        };
        out.push(step);
    }
    if down_since.is_some() {
        out.push(Step::NodeUp);
    }
    out
}

/// Builds the fleet: tenants from the fleet experiment's generator,
/// servers sized by its sizing rule, the initial fleet added through the
/// plane, and the SLO controller registered for every tenant.
pub fn setup(seed: u64, size: Size) -> Control {
    let tenants = size.pick(240, 24) as usize;
    let servers = size.pick(24, 4) as usize;
    let steps = size.pick(300, 120) as usize;
    let adds = steps / 10;
    let cfg = ExpConfig {
        span: SimDuration::from_secs(size.pick(4, 2)),
        seed,
        ..ExpConfig::default()
    };
    let target = QosTarget::new(FRACTION, SimDuration::from_millis(DEADLINE_MS));
    let slo = SloTarget::new(SimDuration::from_millis(SLO_DEADLINE_MS), SLO_FRACTION_PPM);
    let mut all = fleet_tenants(&cfg, tenants + adds);
    let extra: Vec<(TenantId, Workload)> = all
        .split_off(tenants)
        .into_iter()
        .map(|t| (t.id(), t.workload().clone()))
        .collect();
    let capacity = size_capacity(&all, servers, target);
    let placer = FleetPlacer::new(target, Iops::new(capacity as f64));
    let mut plane =
        ControlPlane::new(placer, servers, WorkerPool::serial()).expect("the fleet has servers");
    for (i, t) in all.iter().enumerate() {
        let add = ControlRequest::new(
            i as u64 + 1,
            CommandBody::AddTenant {
                tenant: t.id(),
                workload: t.workload().clone(),
            },
        );
        let response = plane.apply(&add, SimTime::ZERO);
        assert!(
            response.outcome.is_ok(),
            "set-up add rejected: {response:?}"
        );
    }
    let initial_share: BTreeMap<TenantId, u64> = all
        .iter()
        .map(|t| t.id())
        .chain(extra.iter().map(|(id, _)| *id))
        .map(|id| (id, pattern_quote(seed, id, slo)))
        .collect();
    let mut controller = SloController::new(SloConfig::new(plane.fleet_capacity()), SLO_ID_BASE);
    for t in &all {
        controller.register(t.id(), slo, initial_share[&t.id()], 0);
    }
    let script = script(seed, steps, adds);
    let ticks = script.iter().filter(|s| **s == Step::Tick).count() as u64;
    let span = SimDuration::from_nanos(window().as_nanos() * (ticks + 4));
    let channel = ChannelFaultSchedule::try_generate(seed ^ CHANNEL_SALT, span, CHANNEL_SEVERITY)
        .expect("the channel parameters are valid");
    Control {
        seed,
        slo,
        plane,
        controller,
        extra,
        initial_share,
        script,
        channel,
    }
}

/// What one episode must reproduce on every replay.
#[derive(Clone, Debug, PartialEq)]
struct EpisodeEnd {
    summary: String,
    /// Non-quiet tenant-windows, and those whose verdict was Meet or Slack.
    windows: u64,
    met: u64,
    /// Tenant-windows observed, quiet ones included.
    tenant_windows: u64,
    /// Retunes the controller issued.
    commands: u64,
}

/// True when every tenant's logged epochs are strictly increasing.
fn epochs_increase(log: &[(TenantId, u64)]) -> bool {
    let mut last: BTreeMap<TenantId, u64> = BTreeMap::new();
    log.iter()
        .all(|&(t, e)| last.insert(t, e).is_none_or(|prev| prev < e))
}

impl Control {
    pub fn digest(&self) -> u64 {
        let extra: Vec<(TenantId, usize, Option<SimTime>)> = self
            .extra
            .iter()
            .map(|(t, w)| (*t, w.len(), w.iter().last().map(|r| r.arrival)))
            .collect();
        let inputs = format!("{:?}{:?}{extra:?}", self.initial_share, self.script);
        digest_bytes(inputs.as_bytes())
    }

    /// Replays the episode until `budget` has passed, at least once.
    pub fn run(&self, budget: Duration, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut first: Option<EpisodeEnd> = None;
        let mut episodes = 0u64;
        let started = Instant::now();
        while first.is_none() || started.elapsed() < budget {
            let before = out.attempted;
            let (end, ok) = self.episode(&mut out, tracer, first.is_none());
            episodes += 1;
            // The checks hold for the episode as a whole, so a failed
            // episode fails every op in it.
            if !(ok && first.as_ref().is_none_or(|f| *f == end)) {
                out.failed += out.attempted - before;
            }
            if first.is_none() {
                out.unit_ops = out.op_ns.len();
                out.unit_work = out.work;
                out.qos_met_ppm = per(end.met * 1_000_000, end.windows);
                first = Some(end);
            }
        }
        if tracer.enabled() {
            let first = first.expect("at least one episode ran");
            let t = tracer.totals();
            let get = |name: &str| t.get(name).copied().unwrap_or_default();
            out.layer(
                "control.slo.observe_ns_per_tenant_window",
                per(
                    get("control.slo.observe").total_ns,
                    first.tenant_windows * episodes,
                ),
            );
            out.layer(
                "control.driver.run_us_per_command",
                per(
                    get("control.driver.run").total_ns,
                    first.commands * episodes,
                ) / 1e3,
            );
            for (span, metric) in APPLY_METRICS {
                let s = get(span);
                out.layer(metric, per(s.total_ns, s.count) / 1e3);
            }
        }
        out
    }

    /// Runs the script once from the post-set-up state. Returns the end
    /// state and whether every output check held.
    fn episode(&self, out: &mut Outcome, tracer: &mut Tracer, first: bool) -> (EpisodeEnd, bool) {
        let mut plane = self.plane.clone();
        let mut ctl = self.controller.clone();
        let rtt = SimDuration::from_nanos(self.channel.base_latency().as_nanos().saturating_mul(2));
        let policy = RetryPolicy::new(self.seed)
            .with_base(rtt + SimDuration::from_millis(1))
            .with_cap(rtt + SimDuration::from_millis(50));
        let driver = ControlDriver::new(&self.channel, policy);
        let mut alive: BTreeSet<TenantId> = plane.tenants().into_iter().collect();
        let mut down: VecDeque<usize> = VecDeque::new();
        let (hits0, misses0) = (plane.cache().hits(), plane.cache().misses());
        let probes0 = plane.placement().stats().probes;
        let rejected0 = plane.stats().rejected;
        let (mut retries, mut expired) = (0u64, 0u64);
        let (mut met, mut windows, mut tenant_windows) = (0u64, 0u64, 0u64);
        let mut ok = true;
        let mut ticks = 0u64;
        let mut since_tick = 0u64;
        for (k, &step) in self.script.iter().enumerate() {
            if k % PROBE_EVERY == 0 {
                out.probe(1);
            }
            let now = SimTime::from_nanos(window().as_nanos() * ticks + since_tick * 1_000_000);
            let op = out.attempted;
            if step == Step::Tick {
                ticks += 1;
                since_tick = 0;
                let end = SimTime::from_nanos(window().as_nanos() * ticks);
                let segment = ((ticks - 1) / u64::from(WINDOWS_PER_SEGMENT)) as usize;
                // The data plane's stand-in is input generation, not a
                // layer under test: it runs before the op clock starts.
                let sketches: Vec<_> = alive
                    .iter()
                    .map(|&t| {
                        let share = plane.share_of(t).unwrap_or(self.initial_share[&t]);
                        let pattern = drift_pattern(self.seed, t.index(), segment, window());
                        (t, synth_window_sketch(&pattern, share, self.slo))
                    })
                    .collect();
                let t0 = Instant::now();
                let span = tracer.begin(step.span(), None, op);
                let observe = tracer.begin("control.slo.observe", span, op);
                let mut commands = Vec::new();
                for (t, sketch) in &sketches {
                    if let Some(request) = ctl.observe(*t, sketch.as_ref(), false) {
                        commands.push((end, request));
                    }
                }
                tracer.end(observe);
                let run = tracer.begin("control.driver.run", span, op);
                let (outcomes, stats) = driver.run(&mut plane, &commands);
                tracer.end(run);
                for outcome in &outcomes {
                    ctl.absorb(outcome);
                }
                tracer.end(span);
                out.op_ns.push(t0.elapsed().as_nanos() as u64);
                retries += stats.retries;
                expired += stats.expired;
                tenant_windows += sketches.len() as u64;
                for (_, sketch) in &sketches {
                    match WindowVerdict::classify(sketch.as_ref(), self.slo) {
                        WindowVerdict::Quiet => {}
                        WindowVerdict::Miss => windows += 1,
                        WindowVerdict::Meet | WindowVerdict::Slack => {
                            windows += 1;
                            met += 1;
                        }
                    }
                }
                let committed: u64 = plane.shares().iter().map(|&(_, s)| s).sum();
                ok &= committed <= plane.fleet_capacity();
            } else {
                since_tick += 1;
                let Some(body) = self.resolve(step, &plane, &alive, &mut down) else {
                    // Nothing to act on (e.g. no placed tenant to drain):
                    // the op is a no-op and is not timed.
                    continue;
                };
                let request = ControlRequest::new(SCRIPT_ID_BASE + k as u64, body);
                let t0 = Instant::now();
                let span = tracer.begin(step.span(), None, op);
                let response = plane.apply(&request, now);
                tracer.end(span);
                out.op_ns.push(t0.elapsed().as_nanos() as u64);
                match (&request.body, &response.outcome) {
                    (CommandBody::AddTenant { tenant, .. }, Ok(ack)) => {
                        alive.insert(*tenant);
                        let share = self.initial_share[tenant];
                        ctl.register(*tenant, self.slo, share, ack.epoch.unwrap_or(0));
                    }
                    (CommandBody::RemoveTenant { tenant, .. }, Ok(_)) => {
                        alive.remove(tenant);
                    }
                    (CommandBody::NodeDown { node }, Ok(_)) => down.push_back(*node),
                    (_, Ok(_)) => {}
                    (_, Err(_)) => ok = false,
                }
            }
            out.attempted += 1;
            out.work += 1;
        }
        ok &= epochs_increase(plane.epoch_log());
        if first {
            ok &= plane
                .oracle_quotes()
                .is_ok_and(|o| o == plane.converged_quotes());
            let cache = plane.cache();
            let (hits, misses) = (cache.hits() - hits0, cache.misses() - misses0);
            out.count("core.fleet.quote_cache_hit_ratio", per(hits, hits + misses));
            out.count("core.fleet.cold_searches", misses as f64);
            out.count(
                "core.fleet.probes",
                (plane.placement().stats().probes - probes0) as f64,
            );
            let slo = ctl.stats();
            out.count("control.slo.commands", slo.commands as f64);
            out.count("control.slo.resyncs", slo.resyncs as f64);
            out.count("control.driver.retries", retries as f64);
            out.count("control.driver.expired", expired as f64);
            out.count(
                "control.plane.rejected",
                (plane.stats().rejected - rejected0) as f64,
            );
        }
        let end = EpisodeEnd {
            summary: plane.summary(),
            windows,
            met,
            tenant_windows,
            commands: ctl.stats().commands,
        };
        (end, ok)
    }

    /// Turns a scripted step into a command against the live plane.
    fn resolve(
        &self,
        step: Step,
        plane: &ControlPlane,
        alive: &BTreeSet<TenantId>,
        down: &mut VecDeque<usize>,
    ) -> Option<CommandBody> {
        let nth = |pick: u64, from: &[TenantId]| -> Option<TenantId> {
            (!from.is_empty()).then(|| from[(pick % from.len() as u64) as usize])
        };
        let live: Vec<TenantId> = alive.iter().copied().collect();
        Some(match step {
            Step::Tick => return None,
            Step::Add(i) => {
                let (tenant, workload) = &self.extra[i];
                CommandBody::AddTenant {
                    tenant: *tenant,
                    workload: workload.clone(),
                }
            }
            Step::Remove(pick) => {
                let tenant = nth(pick, &live)?;
                CommandBody::RemoveTenant {
                    tenant,
                    expect_epoch: plane.epoch_of(tenant)?,
                }
            }
            Step::Drain(pick) => {
                let placed: Vec<TenantId> = live
                    .iter()
                    .copied()
                    .filter(|&t| plane.placement().server_of(t).is_some())
                    .collect();
                let tenant = nth(pick, &placed)?;
                CommandBody::DrainTenant {
                    tenant,
                    expect_epoch: plane.epoch_of(tenant)?,
                }
            }
            Step::UpdateSla(pick, fraction) => {
                let tenant = nth(pick, &live)?;
                CommandBody::UpdateSla {
                    tenant,
                    fraction,
                    deadline: self.slo.deadline(),
                    expect_epoch: plane.epoch_of(tenant)?,
                    share: None,
                }
            }
            Step::NodeDown(pick) => {
                let servers = plane.placement().servers() as u64;
                CommandBody::NodeDown {
                    node: (pick % servers) as usize,
                }
            }
            Step::NodeUp => CommandBody::NodeUp {
                node: down.pop_front()?,
            },
        })
    }
}
