//! The Master's self-healing control loop.
//!
//! SODA's availability story (§3.6) needs more than an omniscient
//! failover script: the Master must *notice* that a host died, and it
//! can only do so through the control plane. This module closes that
//! loop:
//!
//! 1. **Heartbeats** — every daemon reports its running VSNs each
//!    interval; delivery is gated by the world's [`ControlPlane`], so a
//!    partitioned or lossy link looks exactly like a dead host.
//! 2. **Detection** — a host silent past the timeout is declared down:
//!    its backends are drained from every switch, their runtimes and
//!    in-flight work dropped (and counted), and one recovery *episode*
//!    opens per lost node. A heartbeat that names a crashed VSN opens
//!    an episode for just that node.
//! 3. **Recovery** — an episode first tries to re-prime the node in
//!    place (host still up), otherwise places a replacement on a host
//!    not already carrying the service. Placement failures retry with
//!    exponential backoff and jitter from a dedicated seeded RNG.
//! 4. **Graceful degradation** — when the backoff budget is exhausted
//!    the service is declared degraded; capacity is reclaimed by
//!    shedding the lowest-priority service (strictly lower than the
//!    victim of the outage), and as a last resort the episode parks,
//!    retrying at the backoff ceiling until capacity appears.
//! 5. **Flap tolerance** — a host that heartbeats again after being
//!    declared down cancels any episode whose "dead" node turned out
//!    alive (a false alarm), restoring it to rotation.
//!
//! Every decision is recorded as a typed [`Event`], so a chaos run's
//! whole recovery timeline is reconstructable from the event log, and
//! all randomness flows from [`RecoveryConfig::seed`] — the loop is
//! deterministic given `(seed, FaultPlan)`.
//!
//! [`ControlPlane`]: soda_net::control::ControlPlane

use std::collections::BTreeMap;
use std::ops::Range;

use serde::{Serialize, Value};
use soda_hup::host::HostId;
use soda_sim::{BackoffPolicy, Ctx, Engine, Event, SimDuration, SimRng, SimTime};
use soda_vmm::isolation::ExecutionMode;
use soda_vmm::vsn::{VsnId, VsnState};

use crate::config::ShardId;
use crate::journal::{
    array, get_arr, get_bool, get_opt_u64, get_u64, object, tuples, EpisodeId, JournalOp,
};
use crate::service::{ServiceId, ServiceState};
use crate::shard::{send_shard_msg, shard_salt, ShardMsg};
use crate::world::{self, SodaWorld};

/// Tunables of the self-healing loop.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryConfig {
    /// How often each daemon heartbeats.
    pub heartbeat_interval: SimDuration,
    /// Silence past this declares the host down (must exceed the
    /// interval by enough to ride out one lost heartbeat).
    pub heartbeat_timeout: SimDuration,
    /// Retry schedule for failed replacement placements.
    pub backoff: BackoffPolicy,
    /// Seed of the loop's own RNG (backoff jitter); independent from
    /// the engine's seed so enabling recovery never perturbs workload
    /// randomness.
    pub seed: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            heartbeat_interval: SimDuration::from_secs(1),
            heartbeat_timeout: SimDuration::from_millis(3500),
            backoff: BackoffPolicy::default(),
            seed: 0x5eed_4ea1,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HostHealth {
    Up,
    Down,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct HostState {
    last_heartbeat: SimTime,
    health: HostHealth,
}

/// One open capacity-restoration effort: a lost node being replaced.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Episode {
    /// Epoch-stamped id: a Master resurrected under a later epoch can
    /// never collide with (or accidentally resume) a pre-crash episode.
    id: EpisodeId,
    service: ServiceId,
    /// Machine instances to restore.
    capacity: u32,
    lost_at: SimTime,
    /// The dead node, still in the service record (drained) until a
    /// replacement commits — so a false alarm can roll back.
    dead_vsn: Option<VsnId>,
    origin_host: Option<HostId>,
    attempt: u32,
    /// The replacement currently priming (or the dead node itself when
    /// re-priming in place).
    replacement: Option<VsnId>,
    /// Whether an in-place re-prime is worth trying first.
    try_reprime: bool,
    /// A shed has already been performed for this episode.
    shed_done: bool,
    /// The episode has already been counted (and announced) as a
    /// degradation — park/poll cycles must not re-count it.
    degraded: bool,
    /// Parked: retry when the clock passes this.
    parked_until: Option<SimTime>,
}

/// Counters and timelines accumulated by the loop.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryStats {
    /// `(host, when)` — each host-down declaration.
    pub detections: Vec<(u64, SimTime)>,
    /// `(episode, lost → restored latency)` per completed episode.
    pub recoveries: Vec<(EpisodeId, SimDuration)>,
    /// Placement retries scheduled.
    pub retries: u64,
    /// Episodes that exhausted their backoff budget.
    pub degradations: u64,
    /// Lower-priority services shed to reclaim capacity.
    pub sheds: u64,
    /// Down declarations rolled back by a later heartbeat.
    pub false_alarms: u64,
    /// Routing-invariant violations observed (see [`check_invariants`]).
    pub invariant_violations: u64,
}

/// The Master-side state of the self-healing loop: exactly what a
/// [`WorldSnapshot`](crate::journal::WorldSnapshot) checkpoints. The
/// loop's tunables ([`RecoveryConfig`]) live beside it in its cell.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryManager {
    enabled: bool,
    rng: SimRng,
    hosts: BTreeMap<HostId, HostState>,
    episodes: Vec<Episode>,
    /// Master epoch stamped onto new episode ids.
    epoch: u64,
    next_seq: u64,
    degraded_since: BTreeMap<ServiceId, SimTime>,
    degraded_total: BTreeMap<ServiceId, SimDuration>,
    priorities: BTreeMap<ServiceId, i32>,
    /// Accumulated counters and timelines.
    pub stats: RecoveryStats,
}

impl RecoveryManager {
    /// A disabled manager whose jitter RNG starts from `seed` (armed by
    /// [`start_self_healing`]).
    pub fn new(seed: u64) -> Self {
        RecoveryManager {
            enabled: false,
            rng: SimRng::new(seed),
            hosts: BTreeMap::new(),
            episodes: Vec::new(),
            epoch: 1,
            next_seq: 1,
            degraded_since: BTreeMap::new(),
            degraded_total: BTreeMap::new(),
            priorities: BTreeMap::new(),
            stats: RecoveryStats::default(),
        }
    }

    /// Whether the loop is armed.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Set a service's priority (higher = shed last; default 0).
    /// Degradation only sheds victims with *strictly lower* priority
    /// than the service being restored.
    pub fn set_priority(&mut self, service: ServiceId, priority: i32) {
        self.priorities.insert(service, priority);
    }

    /// Episode `id`, while it is open.
    fn episode(&self, id: EpisodeId) -> Option<&Episode> {
        self.episodes.iter().find(|e| e.id == id)
    }

    /// Mutable episode `id`, while it is open.
    fn episode_mut(&mut self, id: EpisodeId) -> Option<&mut Episode> {
        self.episodes.iter_mut().find(|e| e.id == id)
    }

    fn priority(&self, service: ServiceId) -> i32 {
        self.priorities.get(&service).copied().unwrap_or(0)
    }

    /// Episodes still open (capacity not yet restored).
    pub fn open_episodes(&self) -> usize {
        self.episodes.len()
    }

    /// Total time any service has spent at degraded capacity up to
    /// `now`, including still-open windows.
    pub fn degraded_time(&self, now: SimTime) -> SimDuration {
        let closed: u64 = self.degraded_total.values().map(|d| d.as_nanos()).sum();
        let open: u64 = self
            .degraded_since
            .values()
            .map(|s| now.saturating_since(*s).as_nanos())
            .sum();
        SimDuration::from_nanos(closed + open)
    }

    /// Master epoch new episode ids are stamped with.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn new_episode_id(&mut self) -> EpisodeId {
        let id = EpisodeId {
            epoch: self.epoch,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        id
    }

    /// The Master process died: its in-memory control state — host
    /// table, open episodes, the jitter RNG position — is gone. The
    /// accumulated [`RecoveryStats`] and degraded-time ledgers survive:
    /// they model external measurement, not Master memory.
    pub(crate) fn crash(&mut self) {
        self.enabled = false;
        self.hosts.clear();
        self.episodes.clear();
    }

    /// A warm standby took over as `epoch`: re-arm with a fresh seq
    /// stream and a jitter RNG re-seeded from the cell's `seed ^ epoch`
    /// (the crashed Master's RNG position is unrecoverable by design —
    /// it was never journaled, so the standby must not pretend to
    /// resume it).
    pub(crate) fn rearm(&mut self, seed: u64, epoch: u64, now: SimTime, hosts: &[HostId]) {
        self.enabled = true;
        self.epoch = epoch;
        self.next_seq = 1;
        self.rng = SimRng::new(seed ^ epoch);
        self.hosts.clear();
        for &h in hosts {
            self.hosts.insert(
                h,
                HostState {
                    last_heartbeat: now,
                    health: HostHealth::Up,
                },
            );
        }
    }

    /// Parses the tree [`Serialize`] renders; `None` on a missing or
    /// mistyped field.
    pub fn from_value(v: &Value) -> Option<Self> {
        let rng: [u64; 4] = get_arr(v, "rng")?
            .iter()
            .map(Value::as_u64)
            .collect::<Option<Vec<_>>>()?
            .try_into()
            .ok()?;
        let hosts = get_arr(v, "hosts")?
            .iter()
            .map(|h| {
                let health = if get_bool(h, "up")? {
                    HostHealth::Up
                } else {
                    HostHealth::Down
                };
                let last_heartbeat = SimTime::from_nanos(get_u64(h, "last_heartbeat_ns")?);
                let state = HostState {
                    last_heartbeat,
                    health,
                };
                Some((HostId(get_u64(h, "host")? as u32), state))
            })
            .collect::<Option<_>>()?;
        let stats = v.get("stats")?;
        Some(RecoveryManager {
            enabled: get_bool(v, "enabled")?,
            rng: SimRng::from_state(rng),
            hosts,
            episodes: get_arr(v, "episodes")?
                .iter()
                .map(Episode::from_value)
                .collect::<Option<_>>()?,
            epoch: get_u64(v, "episode_epoch")?,
            next_seq: get_u64(v, "next_seq")?,
            degraded_since: tuples(v, "degraded_since")?
                .into_iter()
                .map(|[s, t]| (ServiceId(s), SimTime::from_nanos(t)))
                .collect(),
            degraded_total: tuples(v, "degraded_total")?
                .into_iter()
                .map(|[s, d]| (ServiceId(s), SimDuration::from_nanos(d)))
                .collect(),
            priorities: tuples(v, "priorities")?
                .into_iter()
                .map(|[s, p]| (ServiceId(s), p.wrapping_sub(PRIORITY_BIAS) as i32))
                .collect(),
            stats: RecoveryStats {
                detections: tuples(stats, "detections")?
                    .into_iter()
                    .map(|[h, t]| (h, SimTime::from_nanos(t)))
                    .collect(),
                recoveries: tuples(stats, "recoveries")?
                    .into_iter()
                    .map(|[epoch, seq, d]| (EpisodeId { epoch, seq }, SimDuration::from_nanos(d)))
                    .collect(),
                retries: get_u64(stats, "retries")?,
                degradations: get_u64(stats, "degradations")?,
                sheds: get_u64(stats, "sheds")?,
                false_alarms: get_u64(stats, "false_alarms")?,
                invariant_violations: get_u64(stats, "invariant_violations")?,
            },
        })
    }
}

/// Bias for encoding signed priorities in unsigned pairs: a priority
/// renders as `priority + 2^32`.
const PRIORITY_BIAS: u64 = 1 << 32;

/// Renders the manager's durable state. Times are `_ns` integers,
/// episode ids split into `epoch`/`seq`, priorities carry
/// `PRIORITY_BIAS`; the keys and their order are the snapshot format.
impl Serialize for RecoveryManager {
    fn to_json_value(&self) -> Value {
        let hosts = self.hosts.iter().map(|(h, st)| {
            let up = st.health == HostHealth::Up;
            object([
                ("host", h.0.to_json_value()),
                (
                    "last_heartbeat_ns",
                    st.last_heartbeat.as_nanos().to_json_value(),
                ),
                ("up", up.to_json_value()),
            ])
        });
        let since = self.degraded_since.iter().map(|(s, t)| (s.0, t.as_nanos()));
        let total = self.degraded_total.iter().map(|(s, d)| (s.0, d.as_nanos()));
        let biased = |p: i32| (i64::from(p) + PRIORITY_BIAS as i64) as u64;
        let priorities = self.priorities.iter().map(|(s, &p)| (s.0, biased(p)));
        let st = &self.stats;
        let detections = st.detections.iter().map(|&(h, t)| (h, t.as_nanos()));
        let recoveries = st
            .recoveries
            .iter()
            .map(|(id, d)| (id.epoch, id.seq, d.as_nanos()));
        let stats = object([
            ("detections", array(detections)),
            ("recoveries", array(recoveries)),
            ("retries", st.retries.to_json_value()),
            ("degradations", st.degradations.to_json_value()),
            ("sheds", st.sheds.to_json_value()),
            ("false_alarms", st.false_alarms.to_json_value()),
            (
                "invariant_violations",
                st.invariant_violations.to_json_value(),
            ),
        ]);
        object([
            ("enabled", self.enabled.to_json_value()),
            ("episode_epoch", self.epoch.to_json_value()),
            ("next_seq", self.next_seq.to_json_value()),
            ("rng", self.rng.state().to_json_value()),
            ("hosts", array(hosts)),
            ("episodes", self.episodes.to_json_value()),
            ("degraded_since", array(since)),
            ("degraded_total", array(total)),
            ("priorities", array(priorities)),
            ("stats", stats),
        ])
    }
}

impl Episode {
    fn from_value(v: &Value) -> Option<Self> {
        Some(Episode {
            id: EpisodeId {
                epoch: get_u64(v, "epoch")?,
                seq: get_u64(v, "seq")?,
            },
            service: ServiceId(get_u64(v, "service")?),
            capacity: get_u64(v, "capacity")? as u32,
            lost_at: SimTime::from_nanos(get_u64(v, "lost_at_ns")?),
            dead_vsn: get_opt_u64(v, "dead_vsn")?.map(VsnId),
            origin_host: get_opt_u64(v, "origin_host")?.map(|h| HostId(h as u32)),
            attempt: get_u64(v, "attempt")? as u32,
            replacement: get_opt_u64(v, "replacement")?.map(VsnId),
            try_reprime: get_bool(v, "try_reprime")?,
            shed_done: get_bool(v, "shed_done")?,
            degraded: get_bool(v, "degraded")?,
            parked_until: get_opt_u64(v, "parked_until_ns")?.map(SimTime::from_nanos),
        })
    }
}

impl Serialize for Episode {
    fn to_json_value(&self) -> Value {
        object([
            ("epoch", self.id.epoch.to_json_value()),
            ("seq", self.id.seq.to_json_value()),
            ("service", self.service.0.to_json_value()),
            ("capacity", self.capacity.to_json_value()),
            ("lost_at_ns", self.lost_at.as_nanos().to_json_value()),
            ("dead_vsn", self.dead_vsn.map(|v| v.0).to_json_value()),
            ("origin_host", self.origin_host.map(|h| h.0).to_json_value()),
            ("attempt", self.attempt.to_json_value()),
            ("replacement", self.replacement.map(|v| v.0).to_json_value()),
            ("try_reprime", self.try_reprime.to_json_value()),
            ("shed_done", self.shed_done.to_json_value()),
            ("degraded", self.degraded.to_json_value()),
            (
                "parked_until_ns",
                self.parked_until.map(SimTime::as_nanos).to_json_value(),
            ),
        ])
    }
}

/// Arm the self-healing loop: heartbeats every
/// `cfg.heartbeat_interval`, detection, recovery and degradation run
/// autonomously until `until`.
pub fn start_self_healing(engine: &mut Engine<SodaWorld>, cfg: RecoveryConfig, until: SimTime) {
    let interval = cfg.heartbeat_interval;
    let now = engine.now();
    {
        let world = engine.state_mut();
        // One manager per cell: beliefs about a host live only in its
        // own cell, and each cell's jitter RNG gets a salted seed
        // (`shard_salt(0) == 0`, so a one-cell world draws `cfg.seed`).
        for shard in 0..world.shard_count() {
            let shard = ShardId(shard);
            let range = world.cell_range(shard);
            let cell_hosts: Vec<HostId> = world.daemons[range].iter().map(|d| d.host.id).collect();
            let mut scfg = cfg;
            scfg.seed ^= shard_salt(shard.0);
            let mut mgr = RecoveryManager::new(scfg.seed);
            mgr.enabled = true;
            mgr.epoch = world.journal_of(shard).epoch();
            // Seed the table now so a host that never heartbeats still
            // times out.
            for h in cell_hosts {
                mgr.hosts.insert(
                    h,
                    HostState {
                        last_heartbeat: now,
                        health: HostHealth::Up,
                    },
                );
            }
            let cell = &mut world.shards.cells[shard.0 as usize];
            cell.recovery = mgr;
            cell.recovery_cfg = scfg;
        }
    }
    engine.schedule_periodic(now + interval, interval, until, |w, ctx| {
        heartbeat_tick(w, ctx);
        true
    });
}

/// One heartbeat round: gather reports, detect silence, drive retries.
pub fn heartbeat_tick(world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>) {
    // Cell 0's manager arms the loop fleet-wide: a Master crash disarms
    // it until the standby takes over.
    if !world.recovery_of(ShardId(0)).enabled {
        return;
    }
    let now = ctx.now();
    // Gather delivered heartbeats (the control plane may eat them). All
    // reports share one `running` buffer; each owns a range of it.
    let mut hosts: Vec<HostId> = Vec::with_capacity(world.daemons.len());
    let mut running: Vec<VsnId> = Vec::new();
    let mut reports: Vec<(HostId, Range<usize>)> = Vec::new();
    for i in 0..world.daemons.len() {
        let host = world.daemons[i].host.id;
        hosts.push(host);
        let start = running.len();
        if !world.daemons[i].heartbeat_into(&mut running) {
            continue;
        }
        let delivered = world
            .control
            .delivers(u64::from(host.0), now, || ctx.rng().f64());
        if delivered {
            reports.push((host, start..running.len()));
        } else {
            running.truncate(start);
        }
    }
    for (host, range) in reports {
        process_heartbeat(world, ctx, host, &running[range]);
    }
    // Silence detection, against the host's own cell's beliefs.
    let timeout = world.recovery_cfg_of(ShardId(0)).heartbeat_timeout;
    for host in hosts {
        let cell = world.shard_of_host(host);
        let mgr = world.recovery_of_mut(cell);
        let Some(st) = mgr.hosts.get(&host).copied() else {
            mgr.hosts.insert(
                host,
                HostState {
                    last_heartbeat: now,
                    health: HostHealth::Up,
                },
            );
            continue;
        };
        if st.health == HostHealth::Up && now.saturating_since(st.last_heartbeat) > timeout {
            declare_host_down(world, ctx, host);
        }
    }
    // Parked episodes poll for capacity at the backoff ceiling. Episode
    // sequences are per-cell, so episodes are addressed (shard, id).
    let mut due: Vec<(ShardId, EpisodeId)> = Vec::new();
    for shard in 0..world.shard_count() {
        let shard = ShardId(shard);
        due.extend(
            world
                .recovery_of(shard)
                .episodes
                .iter()
                .filter(|e| e.replacement.is_none() && e.parked_until.is_some_and(|t| now >= t))
                .map(|e| (shard, e.id)),
        );
    }
    for (shard, id) in due {
        attempt_recovery(world, ctx, shard, id);
    }
}

fn process_heartbeat(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    host: HostId,
    running: &[VsnId],
) {
    let now = ctx.now();
    let cell = world.shard_of_host(host);
    let prev = world.recovery_of_mut(cell).hosts.insert(
        host,
        HostState {
            last_heartbeat: now,
            health: HostHealth::Up,
        },
    );
    if prev.is_some_and(|p| p.health == HostHealth::Down) {
        host_flapped_up(world, ctx, host, running);
    }
    // Only a node its daemon marks Crashed is a failure (below): a host
    // holding none would `continue` past every record, so skip the scan.
    if !soda_hup::daemon::daemon_for(&world.daemons, host).is_some_and(|d| d.has_crashed_vsn()) {
        return;
    }
    // A heartbeat that omits a recorded node while its daemon marks it
    // Crashed is a node-level failure report. Every cell's records are
    // scanned: a spilled node lives on this host but is homed elsewhere.
    let recorded: Vec<(ServiceId, VsnId, u32)> = world
        .services_all()
        .filter(|r| r.state != ServiceState::TornDown)
        .flat_map(|r| {
            r.nodes
                .iter()
                .filter(|n| n.host == host)
                .map(move |n| (r.id, n.vsn, n.capacity))
        })
        .collect();
    for (svc, vsn, cap) in recorded {
        if running.contains(&vsn) {
            continue;
        }
        let crashed = soda_hup::daemon::daemon_for(&world.daemons, host)
            .and_then(|d| d.vsn(vsn))
            .is_some_and(|v| matches!(v.state(), VsnState::Crashed));
        if !crashed {
            continue; // priming or mid-transition: not a failure
        }
        let home = world.shard_of_service(svc);
        if world
            .recovery_of(home)
            .episodes
            .iter()
            .any(|e| e.dead_vsn == Some(vsn) || e.replacement == Some(vsn))
        {
            continue;
        }
        if home != cell {
            // The dead node is homed in another cell: tell that cell's
            // Master over the inter-shard message layer.
            send_shard_msg(
                world,
                ctx,
                cell,
                home,
                ShardMsg::NodeDown {
                    service: svc,
                    vsn,
                    capacity: cap,
                    origin_host: host,
                    try_reprime: true,
                },
            );
            continue;
        }
        handle_node_down(world, ctx, svc, vsn, cap, host, true);
    }
}

/// A host declared down heartbeats again: false alarms roll back, and
/// leftovers of committed recoveries are torn down to reclaim slices.
fn host_flapped_up(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    host: HostId,
    running: &[VsnId],
) {
    let now = ctx.now();
    world.obs.record(
        now,
        Event::HostUp {
            host: u64::from(host.0),
        },
    );
    // False-alarm episodes can live in any cell: a foreign-homed node
    // spilled onto this host is tracked by its home shard's manager.
    let mut cancelable: Vec<(ShardId, EpisodeId, ServiceId, VsnId)> = Vec::new();
    for shard in 0..world.shard_count() {
        let shard = ShardId(shard);
        cancelable.extend(
            world
                .recovery_of(shard)
                .episodes
                .iter()
                .filter(|e| e.origin_host == Some(host) && e.replacement.is_none())
                .filter_map(|e| e.dead_vsn.map(|v| (shard, e.id, e.service, v)))
                .filter(|(_, _, _, v)| running.contains(v)),
        );
    }
    for (shard, id, svc, vsn) in cancelable {
        world.master_of_mut(shard).node_recovered(svc, vsn);
        let _ = world.install_runtime(svc, vsn, ExecutionMode::GuestIsolated);
        let mgr = world.recovery_of_mut(shard);
        mgr.episodes.retain(|e| e.id != id);
        mgr.stats.false_alarms += 1;
        world.journal_episode(now, JournalOp::EpisodeClose, svc, id);
        clear_degraded_if_recovered(world, shard, svc, now);
    }
    // VSNs on the daemon that no service record references any more
    // (their capacity was re-placed while the host was out) are stale.
    let mut referenced: Vec<VsnId> = world
        .services_all()
        .flat_map(|r| r.nodes.iter().map(|n| n.vsn))
        .collect();
    referenced.sort_unstable();
    if let Some(d) = soda_hup::daemon::daemon_for_mut(&mut world.daemons, host) {
        let stale: Vec<VsnId> = d
            .vsns()
            .filter(|v| {
                referenced.binary_search(&v.id).is_err() && !matches!(v.state(), VsnState::TornDown)
            })
            .map(|v| v.id)
            .collect();
        let scrubbed = !stale.is_empty();
        for v in stale {
            let _ = d.teardown_vsn(v);
        }
        if scrubbed {
            world.invalidate_admission_indexes();
        }
    }
}

/// The host has been silent past the timeout: drain and open episodes.
fn declare_host_down(world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>, host: HostId) {
    let now = ctx.now();
    let h = u64::from(host.0);
    world.obs.record(now, Event::HeartbeatMissed { host: h });
    world.obs.record(now, Event::HostDown { host: h });
    let cell = world.shard_of_host(host);
    {
        let mgr = world.recovery_of_mut(cell);
        if let Some(st) = mgr.hosts.get_mut(&host) {
            st.health = HostHealth::Down;
        }
        mgr.stats.detections.push((h, now));
    }
    // Every cell's Master drains its own nodes on the dead host, in
    // shard order (a spilled node is recorded by its home cell).
    let mut affected: Vec<(ServiceId, VsnId, u32)> = Vec::new();
    for shard in 0..world.shard_count() {
        affected.extend(world.master_of_mut(ShardId(shard)).host_failed(host));
    }
    for (svc, vsn, cap) in affected {
        let home = world.shard_of_service(svc);
        // A replacement that was priming on this very host: release it
        // and send its episode back to placement. This reconciliation
        // stays synchronous — it is part of the host-down broadcast,
        // not a belief exchange.
        if let Some(ep) = world
            .recovery_of_mut(home)
            .episodes
            .iter_mut()
            .find(|e| e.replacement == Some(vsn))
        {
            ep.replacement = None;
            ep.try_reprime = false;
            let id = ep.id;
            world::scrub_node(world, svc, vsn, now);
            world.remove_runtime(vsn);
            world.journal_op(now, JournalOp::Recovery, svc);
            schedule_retry(world, ctx, home, id);
            continue;
        }
        if world
            .recovery_of(home)
            .episodes
            .iter()
            .any(|e| e.dead_vsn == Some(vsn))
        {
            continue;
        }
        if home != cell {
            send_shard_msg(
                world,
                ctx,
                cell,
                home,
                ShardMsg::NodeDown {
                    service: svc,
                    vsn,
                    capacity: cap,
                    origin_host: host,
                    try_reprime: false,
                },
            );
            continue;
        }
        handle_node_down(world, ctx, svc, vsn, cap, host, false);
    }
}

/// Drain one dead node and open (and immediately drive) its episode.
pub(crate) fn handle_node_down(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    service: ServiceId,
    vsn: VsnId,
    capacity: u32,
    origin_host: HostId,
    try_reprime: bool,
) {
    let now = ctx.now();
    let home = world.shard_of_service(service);
    world.master_of_mut(home).node_crashed(service, vsn);
    world.obs.record(
        now,
        Event::BackendDrained {
            service: service.0,
            vsn: vsn.0,
        },
    );
    world.remove_runtime(vsn);
    world::drop_inflight_on_vsn(world, ctx, origin_host, vsn);
    let mgr = world.recovery_of_mut(home);
    mgr.degraded_since.entry(service).or_insert(now);
    let id = mgr.new_episode_id();
    mgr.episodes.push(Episode {
        id,
        service,
        capacity,
        lost_at: now,
        dead_vsn: Some(vsn),
        origin_host: Some(origin_host),
        attempt: 0,
        replacement: None,
        try_reprime,
        shed_done: false,
        degraded: false,
        parked_until: None,
    });
    world.journal_episode(now, JournalOp::EpisodeOpen, service, id);
    attempt_recovery(world, ctx, home, id);
}

/// A [`ShardMsg::NodeDown`] landed at the home shard: the reported node
/// may have been scrubbed, recovered, or re-reported while the message
/// was in flight, so re-validate before opening an episode.
pub(crate) fn deliver_node_down(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    service: ServiceId,
    vsn: VsnId,
    capacity: u32,
    origin_host: HostId,
    try_reprime: bool,
) {
    if !world.recovery_of(ShardId(0)).enabled {
        return;
    }
    let home = world.shard_of_service(service);
    let still_recorded = world
        .service_record(service)
        .is_some_and(|r| r.state != ServiceState::TornDown && r.node(vsn).is_some());
    if !still_recorded {
        return;
    }
    if world
        .recovery_of(home)
        .episodes
        .iter()
        .any(|e| e.dead_vsn == Some(vsn) || e.replacement == Some(vsn))
    {
        return;
    }
    handle_node_down(world, ctx, service, vsn, capacity, origin_host, try_reprime);
}

/// Drive one episode: re-prime in place if possible, else place a
/// replacement; on failure, back off / degrade / shed.
fn attempt_recovery(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    shard: ShardId,
    id: EpisodeId,
) {
    let now = ctx.now();
    let Some(ep) = world.recovery_of_mut(shard).episode_mut(id) else {
        return;
    };
    if ep.replacement.is_some() {
        return;
    }
    ep.parked_until = None;
    ep.attempt += 1;
    let (svc, capacity, attempt) = (ep.service, ep.capacity, ep.attempt);
    let (dead, origin, try_reprime) = (ep.dead_vsn, ep.origin_host, ep.try_reprime);
    world.obs.record(
        now,
        Event::RecoveryAttempt {
            service: svc.0,
            attempt,
        },
    );

    // In-place re-prime: cheapest path when the host itself survived.
    if try_reprime {
        if let (Some(vsn), Some(host)) = (dead, origin) {
            let host_alive =
                soda_hup::daemon::daemon_for(&world.daemons, host).is_some_and(|d| !d.is_failed());
            if host_alive {
                if let Ok(timing) = world.daemon_mut(host).begin_repriming(vsn) {
                    if let Some(ep) = world.recovery_of_mut(shard).episode_mut(id) {
                        ep.replacement = Some(vsn);
                    }
                    world.obs.record(
                        now,
                        Event::RecoveryPlaced {
                            service: svc.0,
                            vsn: vsn.0,
                            host: u64::from(host.0),
                        },
                    );
                    ctx.schedule_in_as("reprime", timing.total(), move |w: &mut SodaWorld, ctx| {
                        finish_reprime(w, ctx, shard, id, svc, vsn, host);
                    });
                    return;
                }
            }
            // Host gone or blueprint lost: fall through to placement.
            if let Some(ep) = world.recovery_of_mut(shard).episode_mut(id) {
                ep.try_reprime = false;
            }
        }
    }

    // Replacement placement, steering clear of every host the monitor
    // currently believes is down (a partitioned host is not `failed`,
    // but placing there would strand the replacement). Down beliefs are
    // gathered across every cell in shard order: the home cell tries
    // its own hosts first, then spills fleet-wide if the cell is full.
    let mut down: Vec<HostId> = Vec::new();
    for s in 0..world.shard_count() {
        down.extend(
            world
                .recovery_of(ShardId(s))
                .hosts
                .iter()
                .filter(|(_, s)| s.health == HostHealth::Down)
                .map(|(&h, _)| h),
        );
    }
    let n = world.shard_count();
    let cell = world.cell_range(shard);
    let (master, daemons) = world.master_and_daemons(shard);
    let mut placed = master.place_recovery_node(svc, capacity, &down, &mut daemons[cell], now);
    let mut spilled = false;
    if n > 1 && placed.is_err() {
        // Cross-shard spill: the home cell has no room for the
        // replacement, so place it anywhere in the fleet.
        placed = master.place_recovery_node(svc, capacity, &down, daemons, now);
        spilled = placed.is_ok();
    }
    // Recovery priming reserved on some cell's host (possibly spilled).
    world.invalidate_admission_indexes();
    if spilled {
        world.shards.spills += 1;
        world.obs.record(
            now,
            Event::ShardSpill {
                service: svc.0,
                from: shard.0,
            },
        );
    }
    match placed {
        Ok((target, ticket)) => {
            let new_vsn = ticket.vsn;
            world.obs.record(
                now,
                Event::RecoveryPlaced {
                    service: svc.0,
                    vsn: new_vsn.0,
                    host: u64::from(target.0),
                },
            );
            // Commit: the successor exists, scrub the dead node.
            if let Some(vsn) = dead {
                world::scrub_node(world, svc, vsn, now);
            }
            if let Some(ep) = world.recovery_of_mut(shard).episode_mut(id) {
                ep.dead_vsn = None;
                ep.replacement = Some(new_vsn);
            }
            world.journal_op(now, JournalOp::Recovery, svc);
            world::start_download(world, ctx, target, svc, &ticket);
        }
        Err(_) => schedule_retry(world, ctx, shard, id),
    }
}

/// Back off before the next attempt — or, with the budget exhausted,
/// degrade (and shed) instead.
fn schedule_retry(world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>, shard: ShardId, id: EpisodeId) {
    let now = ctx.now();
    let Some(ep) = world.recovery_of(shard).episode(id) else {
        return;
    };
    let (svc, attempt) = (ep.service, ep.attempt);
    let policy = world.recovery_cfg_of(shard).backoff;
    if policy.exhausted(attempt) {
        degrade_or_shed(world, ctx, shard, id);
        return;
    }
    let mgr = world.recovery_of_mut(shard);
    mgr.stats.retries += 1;
    let delay = policy.delay_jittered(attempt.max(1), &mut mgr.rng);
    world.obs.record(
        now,
        Event::RecoveryRetry {
            service: svc.0,
            attempt,
            delay_ms: delay.as_millis(),
        },
    );
    ctx.schedule_in_as("retry", delay, move |w: &mut SodaWorld, ctx| {
        // Generation guard: only fire if the episode is still waiting
        // on this very attempt.
        let live = w
            .recovery_of(shard)
            .episode(id)
            .is_some_and(|e| e.attempt == attempt && e.replacement.is_none());
        if live {
            attempt_recovery(w, ctx, shard, id);
        }
    });
}

/// The backoff budget ran out: declare degradation, shed the lowest
/// strictly-lower-priority service once, then park at the ceiling.
fn degrade_or_shed(world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>, shard: ShardId, id: EpisodeId) {
    let now = ctx.now();
    let Some(ep) = world.recovery_of(shard).episode(id) else {
        return;
    };
    let (svc, capacity, shed_done, degraded) = (ep.service, ep.capacity, ep.shed_done, ep.degraded);
    if !degraded {
        if let Some(ep) = world.recovery_of_mut(shard).episode_mut(id) {
            ep.degraded = true;
        }
        world.recovery_of_mut(shard).stats.degradations += 1;
        world.obs.record(
            now,
            Event::ServiceDegraded {
                service: svc.0,
                capacity: world.master_of(shard).healthy_capacity(svc),
            },
        );
    }
    if !shed_done {
        // Shed victims come from the home cell only: a cell Master has
        // no authority to tear down another cell's services.
        let my_prio = world.recovery_of(shard).priority(svc);
        let victim = world
            .master_of(shard)
            .services()
            .filter(|r| r.id != svc && r.state == ServiceState::Running)
            .filter(|r| r.placed_capacity() > 0)
            .filter(|r| world.recovery_of(shard).priority(r.id) < my_prio)
            .min_by_key(|r| (world.recovery_of(shard).priority(r.id), r.id.0))
            .map(|r| (r.id, r.placed_capacity()));
        if let Some((victim, vcap)) = victim {
            if let Some(ep) = world.recovery_of_mut(shard).episode_mut(id) {
                ep.shed_done = true;
            }
            let shed = if vcap > capacity {
                let (master, daemons) = world.master_and_daemons(shard);
                let res = master.resize(victim, vcap - capacity, daemons, now);
                world.invalidate_admission_indexes();
                if res.is_ok() {
                    world.journal_op(now, JournalOp::Resize, victim);
                    world.prune_runtimes();
                }
                res.is_ok()
            } else {
                world::teardown_service(world, victim, now).is_ok()
            };
            if shed {
                world.recovery_of_mut(shard).stats.sheds += 1;
                world.obs.record(
                    now,
                    Event::ServiceShed {
                        service: svc.0,
                        victim: victim.0,
                    },
                );
                attempt_recovery(world, ctx, shard, id);
                return;
            }
        }
    }
    // Park: poll again once per ceiling (driven by the heartbeat tick).
    let ceiling = world.recovery_cfg_of(shard).backoff.ceiling;
    if let Some(ep) = world.recovery_of_mut(shard).episode_mut(id) {
        ep.parked_until = Some(now + ceiling);
    }
}

/// An in-place re-prime finished (or the host died underneath it).
fn finish_reprime(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    shard: ShardId,
    id: EpisodeId,
    svc: ServiceId,
    vsn: VsnId,
    host: HostId,
) {
    let now = ctx.now();
    let live = world
        .recovery_of(shard)
        .episode(id)
        .is_some_and(|e| e.replacement == Some(vsn));
    if !live {
        return;
    }
    if world::reprime_landed(world, svc, vsn, host, now) {
        complete_episode(world, shard, id, svc, vsn, now);
    } else {
        if let Some(ep) = world.recovery_of_mut(shard).episode_mut(id) {
            ep.replacement = None;
            ep.try_reprime = false;
        }
        schedule_retry(world, ctx, shard, id);
    }
}

fn complete_episode(
    world: &mut SodaWorld,
    shard: ShardId,
    id: EpisodeId,
    svc: ServiceId,
    vsn: VsnId,
    now: SimTime,
) {
    let mgr = world.recovery_of_mut(shard);
    let Some(pos) = mgr.episodes.iter().position(|e| e.id == id) else {
        return;
    };
    let ep = mgr.episodes.remove(pos);
    let latency = now.saturating_since(ep.lost_at);
    mgr.stats.recoveries.push((id, latency));
    world.obs.record(
        now,
        Event::RecoveryCompleted {
            service: svc.0,
            vsn: vsn.0,
            latency_ms: latency.as_millis(),
        },
    );
    world.journal_episode(now, JournalOp::EpisodeClose, svc, id);
    clear_degraded_if_recovered(world, shard, svc, now);
}

fn clear_degraded_if_recovered(
    world: &mut SodaWorld,
    shard: ShardId,
    svc: ServiceId,
    now: SimTime,
) {
    let mgr = world.recovery_of_mut(shard);
    if mgr.episodes.iter().any(|e| e.service == svc) {
        return;
    }
    if let Some(since) = mgr.degraded_since.remove(&svc) {
        let window = now.saturating_since(since);
        let total = mgr.degraded_total.entry(svc).or_insert(SimDuration::ZERO);
        *total = SimDuration::from_nanos(total.as_nanos() + window.as_nanos());
    }
}

/// Hook from the world: a node finished booting. Completes the episode
/// tracking it as a replacement; a no-op otherwise.
pub(crate) fn on_node_boot(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    svc: ServiceId,
    vsn: VsnId,
) {
    if !world.recovery_of(ShardId(0)).enabled {
        return;
    }
    let now = ctx.now();
    let shard = world.shard_of_service(svc);
    let Some(id) = world
        .recovery_of(shard)
        .episodes
        .iter()
        .find(|e| e.replacement == Some(vsn))
        .map(|e| e.id)
    else {
        return;
    };
    complete_episode(world, shard, id, svc, vsn, now);
}

/// Hook from the world: a node's priming failed. Requeues the episode
/// tracking it, or — for an ordinary creation/growth node — opens a
/// fresh episode to restore the lost capacity.
pub(crate) fn on_priming_failed(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    svc: ServiceId,
    vsn: VsnId,
    capacity: u32,
) {
    if !world.recovery_of(ShardId(0)).enabled {
        return;
    }
    let now = ctx.now();
    let shard = world.shard_of_service(svc);
    if let Some(ep) = world
        .recovery_of_mut(shard)
        .episodes
        .iter_mut()
        .find(|e| e.replacement == Some(vsn))
    {
        ep.replacement = None;
        ep.try_reprime = false;
        let id = ep.id;
        schedule_retry(world, ctx, shard, id);
        return;
    }
    if capacity == 0 {
        return;
    }
    let mgr = world.recovery_of_mut(shard);
    mgr.degraded_since.entry(svc).or_insert(now);
    let id = mgr.new_episode_id();
    mgr.episodes.push(Episode {
        id,
        service: svc,
        capacity,
        lost_at: now,
        dead_vsn: None,
        origin_host: None,
        attempt: 0,
        replacement: None,
        try_reprime: false,
        shed_done: false,
        degraded: false,
        parked_until: None,
    });
    world.journal_episode(now, JournalOp::EpisodeOpen, svc, id);
    attempt_recovery(world, ctx, shard, id);
}

/// The routing invariant: once the control loop *knows* a node is dead
/// (its host declared down, or an episode is open for it), the switch
/// must not keep it healthy. Counts (and records) violations; the
/// pre-detection window, where the switch cannot yet know, is exempt.
pub fn check_invariants(world: &mut SodaWorld) -> u64 {
    let services: Vec<ServiceId> = world.services_all().map(|r| r.id).collect();
    let mut violations = 0u64;
    for svc in services {
        let home = world.shard_of_service(svc);
        let Some(sw) = world.master_of(home).switch(svc) else {
            continue;
        };
        let healthy: Vec<VsnId> = sw
            .backends()
            .iter()
            .filter(|b| b.healthy)
            .map(|b| b.vsn)
            .collect();
        for vsn in healthy {
            let host = world
                .master_of(home)
                .service(svc)
                .and_then(|r| r.node(vsn))
                .map(|n| n.host);
            let alive = host.is_some_and(|h| {
                soda_hup::daemon::daemon_for(&world.daemons, h)
                    .is_some_and(|d| !d.is_failed() && d.vsn(vsn).is_some_and(|v| v.is_running()))
            });
            if alive {
                continue;
            }
            // Beliefs about the node's host live in the *host's* cell;
            // the episode (if any) lives in the service's home cell.
            let known_down = host.is_some_and(|h| {
                world
                    .recovery_of(world.shard_of_host(h))
                    .hosts
                    .get(&h)
                    .is_some_and(|s| s.health == HostHealth::Down)
            }) || world
                .recovery_of(home)
                .episodes
                .iter()
                .any(|e| e.dead_vsn == Some(vsn));
            if known_down {
                violations += 1;
            }
        }
    }
    world.recovery_of_mut(ShardId(0)).stats.invariant_violations += violations;
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceSpec;
    use crate::world::{apply_fault, create_service_driven};
    use soda_hostos::resources::ResourceVector;
    use soda_hup::daemon::SodaDaemon;
    use soda_hup::host::HupHost;
    use soda_net::pool::IpPool;
    use soda_sim::FaultSpec;
    use soda_vmm::rootfs::RootFsCatalog;
    use soda_vmm::sysservices::StartupClass;

    /// Three hosts, self-healing armed (heartbeats every second from
    /// t = 1 s), and a three-instance service primed by t = 20 s.
    fn healing_world() -> (Engine<SodaWorld>, ServiceId) {
        let daemons = (1..=3)
            .map(|i| {
                SodaDaemon::new(HupHost::seattle(
                    HostId(i),
                    IpPool::new(format!("10.0.{i}.0").parse().unwrap(), 8),
                ))
            })
            .collect();
        let mut engine = Engine::with_seed(SodaWorld::new(daemons), 3);
        start_self_healing(
            &mut engine,
            RecoveryConfig::default(),
            SimTime::from_secs(60),
        );
        let spec = ServiceSpec {
            name: "web".into(),
            image: RootFsCatalog::new().base_1_0(),
            required_services: vec!["network", "syslogd"],
            app_class: StartupClass::Light,
            instances: 3,
            machine: ResourceVector::TABLE1_EXAMPLE,
            port: 8080,
        };
        let svc = create_service_driven(&mut engine, spec, "webco").unwrap();
        engine.run_until(SimTime::from_secs(20));
        assert_eq!(engine.state().creations.len(), 1, "service primed");
        (engine, svc)
    }

    /// Episodes opened so far in every cell (sequences start at 1).
    fn episodes_opened(world: &SodaWorld) -> u64 {
        (0..world.shard_count())
            .map(|s| world.recovery_of(ShardId(s)).next_seq - 1)
            .sum()
    }

    /// Rounds in which no daemon holds a crashed VSN take the fast path
    /// and open nothing; the first round after a `VsnCrash` still sees
    /// the failure and opens exactly one episode, for that node.
    #[test]
    fn heartbeat_fast_path_still_sees_node_failures() {
        let (mut engine, svc) = healing_world();
        engine.run_until(SimTime::from_millis(30_500));
        let w = engine.state();
        assert!(w.daemons.iter().all(|d| !d.has_crashed_vsn()));
        assert_eq!(episodes_opened(w), 0, "healthy rounds open no episode");

        let victim = w.service_record(svc).unwrap().nodes[1].vsn;
        engine.schedule_at(
            SimTime::from_millis(30_600),
            move |w: &mut SodaWorld, ctx| {
                apply_fault(w, ctx, FaultSpec::VsnCrash { vsn: victim.0 });
            },
        );
        // The Master is not told of the crash: until the next round
        // (t = 31 s) nothing is opened.
        engine.run_until(SimTime::from_millis(30_900));
        assert_eq!(episodes_opened(engine.state()), 0);
        engine.run_until(SimTime::from_millis(31_100));
        let w = engine.state();
        assert_eq!(episodes_opened(w), 1, "one round, one episode");
        let home = w.shard_of_service(svc);
        let dead: Vec<Option<VsnId>> = w
            .recovery_of(home)
            .episodes
            .iter()
            .map(|e| e.dead_vsn)
            .collect();
        assert_eq!(dead, vec![Some(victim)]);
    }
}
