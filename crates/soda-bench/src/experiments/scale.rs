//! X-SCALE — the utility-scale workload every scale, shard, sweep and
//! parallel record measures, and the one harness that runs it.
//!
//! The paper's testbed is two hosts. This experiment builds a fleet of
//! N identical *seattle* hosts, fills it wall-to-wall with services (20
//! single-instance machine slices per host — the worst-fit index places
//! every last instance), then pushes a fixed request count through the
//! switches, CPU stages, shapers and NICs, reporting wall-clock,
//! events/second, peak heap and the event-queue high-water mark.
//!
//! The fleet can be split into placement cells along `ShardMap`
//! boundaries: each cell is a complete `SodaWorld` over its contiguous
//! slice of the host roster, with its own timer wheel, RNG stream and
//! event-log shard, driven by its own [`Engine`] under
//! [`soda_sim::run_cells`]. Lookahead is the 500 µs inter-cell message
//! latency (`ShardPlane::DEFAULT_LATENCY`), and a deterministic sliver
//! of each cell's client requests travels to sibling cells through the
//! cell's [`soda_sim::CellPort`], merged at the epoch barrier in
//! `(time, sender cell, sender seq)` order. `cells = 1` (the default)
//! is the plain X-SCALE run: one world, one epoch, no port traffic.
//! Orthogonally, `kind` splits a one-cell world's control plane into
//! `Sharded(n)` placement cells coordinated by messages.
//!
//! Two fingerprints make a run comparable across processes, thread
//! counts and optimisation levels (see [`crate::fingerprint`]):
//!
//! * `trajectory_fingerprint` — over every completed request's
//!   `(service, vsn, issued, completed, dataset)` plus the drop count.
//!   Computed whether or not observability is on.
//! * `event_fingerprint` — over the rendered observability event log
//!   (0 when `obs` is off).
//!
//! At one cell both are the cell's own values; a multi-cell run folds
//! the per-cell values over `(cell, fingerprint)` pairs. `Parallel(n)`
//! for any `n` replays `Serial` bit-identically at the same cell count
//! — see [`crate::experiments::parallel::gate`].

use serde::Serialize;
use soda_core::config::{ShardId, ShardMap};
use soda_core::recovery::{self, RecoveryConfig};
use soda_core::service::{ServiceId, ServiceSpec};
use soda_core::shard::{shard_salt, ControlPlaneKind, ShardPlane};
use soda_core::world::{apply_fault, create_service_driven, submit_request, SodaWorld};
use soda_hostos::resources::ResourceVector;
use soda_hup::daemon::SodaDaemon;
use soda_hup::host::{HostId, HupHost};
use soda_net::addr::Ipv4Addr;
use soda_net::pool::IpPool;
use soda_sim::{
    run_cells, ChaosProfile, Engine, EngineKind, FaultPlan, ProfileEntry, SimDuration, SimTime,
};
use soda_vmm::rootfs::RootFsCatalog;
use soda_vmm::sysservices::StartupClass;
use std::rc::Rc;
use std::time::Instant;

use crate::fingerprint;

/// Services created per host. Each service is `<instances, M_SCALE>`,
/// so the canonical 4-instance fleet carries `hosts × SERVICES_PER_HOST
/// × 4` virtual service nodes (20 per host — 1,000 hosts ⇒ 20,000 VSNs).
pub const SERVICES_PER_HOST: u32 = 5;

/// The scale-run machine instance: sized so exactly 20 inflated
/// instances fill one *seattle* host's CPU (20 × ceil(75 × 1.5) = 2260
/// of 2340 MHz), with slack in every other dimension.
const M_SCALE: ResourceVector = ResourceVector {
    cpu_mhz: 75,
    mem_mb: 80,
    disk_mb: 500,
    bw_mbps: 2,
};

/// One point of an X-SCALE sweep.
#[derive(Clone, Copy, Debug)]
pub struct ScaleConfig {
    /// Fleet size (must be ≥ `cells`; cells split it contiguously).
    pub hosts: u32,
    /// Client requests pushed through the fleet, split across cells.
    pub requests: u64,
    /// Engine seed; cell `k` runs on `seed ^ shard_salt(k)` (salt 0 = 0,
    /// so cell 0 keeps the unsalted seed).
    pub seed: u64,
    /// DES partitions the world is split into (1 = one world).
    pub cells: u32,
    /// Execution mode: the serial oracle or `Parallel(n)` threads.
    pub engine: EngineKind,
    /// Control plane of a one-cell run: `n` placement cells coordinated
    /// by messages (`Sharded(1)`, the default, is the single Master).
    /// Multi-cell runs keep `Sharded(1)` in every cell.
    pub kind: ControlPlaneKind,
    /// VSN instances per service (4 in the canonical grid — 20 VSNs per
    /// host; the xl tier runs 2 so 100k hosts carry exactly 1M VSNs
    /// without changing the per-service spec shape).
    pub instances: u32,
    /// Record observability events/metrics during the run.
    pub obs: bool,
    /// Run the per-cell engine self-profiler (wall-clock cost per event
    /// kind). It reads the host clock around every handler and must
    /// never move the trajectory.
    pub profile: bool,
    /// Inject the per-cell chaos plan (host crashes + self-healing).
    pub chaos: bool,
    /// Skew the request split: cell 0 carries ~90% of the budget, the
    /// rest is balanced over the other cells — the straggler workload
    /// per-cell epoch bounds exist for.
    pub skew: bool,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            hosts: 10,
            requests: 10_000,
            seed: 42,
            cells: 1,
            engine: EngineKind::Serial,
            kind: ControlPlaneKind::default(),
            instances: 4,
            obs: false,
            profile: false,
            chaos: false,
            skew: false,
        }
    }
}

/// What one cell hands back when its engine is reduced (on the worker
/// thread that owned it — everything here is plain `Send` data).
#[derive(Clone, Debug, Serialize)]
pub struct CellOutcome {
    /// Cell index.
    pub cell: u32,
    /// Services created in this cell.
    pub services: u32,
    /// Requests completed in this cell (cross-cell arrivals included —
    /// a request belongs to the cell that serves it).
    pub completed: u64,
    /// Requests dropped in this cell.
    pub dropped: u64,
    /// Engine events this cell executed.
    pub events: u64,
    /// Event-queue high-water mark.
    pub peak_queue_depth: usize,
    /// Peak concurrently-active NIC flows in this cell.
    pub peak_live_flows: u64,
    /// Peak in-flight admitted requests in this cell.
    pub peak_open_requests: u64,
    /// Cross-cell requests this cell shipped out.
    pub remote_sent: u64,
    /// Creations this cell's control plane re-placed over the whole
    /// fleet after their home placement cell was full.
    pub shard_spills: u64,
    /// Inter-shard control-plane messages sent.
    pub shard_msgs_sent: u64,
    /// Inter-shard messages dropped because the destination's journal
    /// epoch moved while they were in flight.
    pub shard_msgs_stale: u64,
    /// This cell's trajectory fingerprint.
    pub trajectory_fingerprint: u64,
    /// This cell's event-log fingerprint (0 with obs off).
    pub event_fingerprint: u64,
    /// Per-event-kind cost table (empty unless profiling).
    pub profile: Vec<ProfileEntry>,
    /// Host wall-clock from the run's start until this cell was
    /// reduced, seconds. Dropping the cell's world comes after, so
    /// tearing down a large fleet is not charged to the run.
    pub wall_secs: f64,
}

/// Measurements from one X-SCALE run.
#[derive(Clone, Debug, Serialize)]
pub struct ScaleResult {
    /// Fleet size.
    pub hosts: u32,
    /// DES partitions.
    pub cells: u32,
    /// Execution mode label (`"serial"` / `"parallel-N"`).
    pub engine: String,
    /// Worker threads actually used (min of threads and cells).
    pub threads: u32,
    /// Control plane label (`"sharded-N"`).
    pub control_plane: String,
    /// Placement cells in each world's control plane.
    pub shards: u32,
    /// Services created (all admitted, or the run panics).
    pub services: u32,
    /// Virtual service nodes running after creation.
    pub vsns: u32,
    /// Requests submitted.
    pub requests: u64,
    /// Requests completed (delivered responses).
    pub completed: u64,
    /// Requests dropped.
    pub dropped: u64,
    /// Whether observability was on.
    pub obs: bool,
    /// Whether the chaos plan ran.
    pub chaos: bool,
    /// Whether the skewed request split was used.
    pub skew: bool,
    /// Spill re-placements, summed over cells.
    pub shard_spills: u64,
    /// Inter-shard messages sent, summed over cells.
    pub shard_msgs_sent: u64,
    /// Inter-shard messages dropped as stale, summed over cells.
    pub shard_msgs_stale: u64,
    /// Engine events executed, creation phase included, summed over
    /// cells.
    pub events: u64,
    /// Epoch barriers crossed (1 for a one-cell run).
    pub epochs: u64,
    /// Cross-cell events delivered through the barriers.
    pub remote_msgs: u64,
    /// Total wall-clock the workers spent parked at barriers, seconds.
    pub barrier_wait_secs: f64,
    /// Barrier wait split by worker (cell `k` runs on worker
    /// `k % threads`, so with `threads == cells` this is per cell).
    pub barrier_wait_by_worker: Vec<f64>,
    /// Host wall-clock from the run's start until its last cell was
    /// reduced, seconds.
    pub wall_secs: f64,
    /// Virtual time simulated, seconds.
    pub sim_secs: f64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Requests per wall-clock second.
    pub requests_per_sec: f64,
    /// Largest per-cell event-queue high-water mark.
    pub peak_queue_depth: usize,
    /// Sum of per-cell peak live-flow counts (cells peak at different
    /// instants, so with several cells this bounds the fleet-wide
    /// concurrent peak from above).
    pub peak_live_flows: u64,
    /// Sum of per-cell peak open-request counts (same caveat).
    pub peak_open_requests: u64,
    /// Per-cell outcomes, cell order.
    pub cell_outcomes: Vec<CellOutcome>,
    /// Heap high-water mark in bytes when the run ended (0 unless the
    /// binary installs `memtrack::TrackingAllocator`). Process-wide and
    /// monotonic, so it covers every earlier run of the same process.
    pub peak_heap_bytes: u64,
    /// Trajectory fingerprint (one cell's own value, or the fold over
    /// cells).
    pub trajectory_fingerprint: u64,
    /// Event-log fingerprint, folded the same way (0 with obs off).
    pub event_fingerprint: u64,
}

fn spec(name: &str, instances: u32) -> ServiceSpec {
    ServiceSpec {
        name: name.into(),
        image: RootFsCatalog::new().base_1_0(),
        required_services: vec!["network", "syslogd"],
        app_class: StartupClass::Light,
        instances,
        machine: M_SCALE,
        port: 8080,
    }
}

/// Per-host IP pool base. Fleets up to 60,000 hosts keep the historic
/// `10.{i/250}.{i%250}.0` dotted formula verbatim — the committed
/// fingerprints depend on these addresses — and larger fleets (the xl
/// tier) switch to flat arithmetic in 10/8: host `i` owns the 32
/// addresses starting at `10.0.0.0 + i·64`. The formulas never mix
/// within one run, and 100,000 × 64 stays far inside the /8.
pub fn host_ip(i: u32, hosts: u32) -> Ipv4Addr {
    if hosts <= 60_000 {
        format!("10.{}.{}.0", i / 250, i % 250)
            .parse()
            .expect("valid dotted quad below 60k hosts")
    } else {
        Ipv4Addr(0x0a00_0000 + i * 64)
    }
}

/// Priming horizon: image downloads + bootstraps, ~20 concurrent
/// downloads per NIC.
const T_READY: SimTime = SimTime::from_secs(300);
/// Virtual seconds after `T_READY` the run drains for.
const DRAIN: SimDuration = SimDuration::from_secs(200);
/// Issue ticks: one batch per 10 ms for 100 s of virtual time.
const TICKS: u64 = 10_000;
/// Cross-cell egress runs every `REMOTE_EVERY_TICKS`th tick, so cell
/// promises advance in 100 ms strides and ten ticks share one epoch.
const REMOTE_EVERY_TICKS: u64 = 10;
/// Within a send tick, every `REMOTE_EVERY_REQS`th request (by the
/// driver's global counter) goes to a sibling cell.
const REMOTE_EVERY_REQS: u64 = 16;

/// The per-cell client driver: a fixed batch every 10 ms, round-robin
/// over the cell's services, until the budget is spent. At `cells > 1`
/// it diverts a deterministic sliver of its budget to sibling cells
/// through the epoch fabric and keeps its port's promise pointing at
/// the next possible send tick; at one cell it never touches the port.
struct Driver {
    services: Rc<Vec<ServiceId>>,
    cell: u64,
    cells: u64,
    /// Services per cell, for receiver-side target arithmetic.
    dest_services: Rc<Vec<u64>>,
    next: u64,
    remote_seq: u64,
    remaining: u64,
    batch: u64,
    tick: SimDuration,
    ticks_fired: u64,
    expect_creations: usize,
}

impl Driver {
    fn fire(mut self, w: &mut SodaWorld, ctx: &mut soda_sim::Ctx<SodaWorld>) {
        if self.ticks_fired == 0 {
            // The first tick is the end of the priming horizon; checking
            // here costs no engine event.
            assert_eq!(
                w.creations.len(),
                self.expect_creations,
                "every creation completes within the priming horizon"
            );
        }
        let n = self.batch.min(self.remaining);
        let send_tick = self.cells > 1 && self.ticks_fired.is_multiple_of(REMOTE_EVERY_TICKS);
        for _ in 0..n {
            let idx = self.next;
            if send_tick && idx.is_multiple_of(REMOTE_EVERY_REQS) {
                // Ship this request to a sibling cell. The target
                // service id is computed arithmetically from the id-lane
                // striping (cell j's s-th service is `j+1 + s*cells`),
                // so no cross-cell lookup is needed. Delay is exactly
                // the lookahead — the earliest legal arrival.
                let hop = 1 + (self.remote_seq % (self.cells - 1));
                let to = ((self.cell + hop) % self.cells) as usize;
                let s = idx % self.dest_services[to];
                let svc = ServiceId(to as u64 + 1 + s * self.cells);
                self.remote_seq += 1;
                let lookahead = w.port.lookahead();
                w.port.send(
                    ctx.now(),
                    to,
                    lookahead,
                    "remote_request",
                    move |w: &mut SodaWorld, ctx: &mut soda_sim::Ctx<SodaWorld>| {
                        submit_request(w, ctx, svc, 2_000);
                    },
                );
            } else {
                let svc = self.services[(idx % self.services.len() as u64) as usize];
                submit_request(w, ctx, svc, 2_000);
            }
            self.next += 1;
        }
        self.remaining -= n;
        self.ticks_fired += 1;
        if self.cells > 1 {
            // Promise the next send tick (a multiple of
            // REMOTE_EVERY_TICKS), or never once the budget is spent.
            if self.remaining == 0 {
                w.port.set_promise(SimTime::MAX);
            } else {
                let ms = self.ticks_fired.div_ceil(REMOTE_EVERY_TICKS) * REMOTE_EVERY_TICKS;
                let at = T_READY + SimDuration::from_nanos(ms * self.tick.as_nanos());
                w.port.set_promise(at);
            }
        }
        if self.remaining > 0 {
            let tick = self.tick;
            ctx.schedule_in_as("client_arrival", tick, move |w, ctx| self.fire(w, ctx));
        }
    }
}

/// Per-cell request budget: the canonical balanced split, or — under
/// `skew` — a deliberately imbalanced one where cell 0 carries ~90% of
/// the load and the rest is balanced over the other cells. The light
/// cells exhaust their budgets early and promise `MAX`, which is
/// exactly the straggler shape per-cell epoch bounds collapse.
pub(crate) fn cell_requests(requests: u64, cells: u32, k: u32, skew: bool) -> u64 {
    if !skew || cells <= 1 {
        return requests / cells as u64 + u64::from((k as u64) < requests % cells as u64);
    }
    let heavy = requests / 10 * 9;
    if k == 0 {
        return heavy;
    }
    let rest = requests - heavy;
    let others = cells as u64 - 1;
    rest / others + u64::from((k as u64 - 1) < rest % others)
}

/// Build cell `k`'s engine: its slice of the host roster (global host
/// ids and addresses), its salted seed, its control plane, its services
/// on the striped id lane, its driver, and — when `chaos` — its fault
/// plan and self-healing loop.
fn build_cell(k: u32, map: &ShardMap, cfg: &ScaleConfig) -> Engine<SodaWorld> {
    let range = map.range(ShardId(k));
    let daemons: Vec<SodaDaemon> = range
        .clone()
        .map(|idx| {
            let i = idx as u32 + 1; // global 1-based host id
            SodaDaemon::new(HupHost::seattle(
                HostId(i),
                IpPool::new(host_ip(i, cfg.hosts), 32),
            ))
        })
        .collect();
    let hosts_here = daemons.len() as u32;
    let mut engine = Engine::with_seed(SodaWorld::new(daemons), cfg.seed ^ shard_salt(k));
    // The control plane first: striping a multi-cell world's id lanes
    // acts on the plane `configure_shards` builds.
    engine.state_mut().configure_shards(cfg.kind);
    engine
        .state_mut()
        .configure_parallel_cell(k, cfg.cells, ShardPlane::DEFAULT_LATENCY);
    let budget = cell_requests(cfg.requests, cfg.cells, k, cfg.skew);
    // Workload-derived capacity hint: the queue high-water mark tracks the
    // in-flight request population, itself bounded by the issue batch size
    // times the pipeline depth. Pre-paying the growth keeps re-allocation
    // out of the measured request phase.
    engine.reserve_events(
        usize::try_from(budget / 4)
            .unwrap_or(usize::MAX)
            .clamp(1024, 1 << 20),
    );
    if cfg.obs {
        engine.state_mut().enable_obs(1 << 16);
    }
    if cfg.profile {
        engine.enable_profiler();
    }

    // Fill this cell's slice of the utility: every admission succeeds
    // because the slice's instance capacity equals its demand exactly.
    // Service names carry the global index.
    let offset: u32 = map
        .shards()
        .take_while(|&s| s != ShardId(k))
        .map(|s| map.range(s).len() as u32 * SERVICES_PER_HOST)
        .sum();
    let n_services = hosts_here * SERVICES_PER_HOST;
    let services: Vec<ServiceId> = (0..n_services)
        .map(|s| {
            create_service_driven(
                &mut engine,
                spec(&format!("svc{}", offset + s), cfg.instances),
                "scaleco",
            )
            .expect("fleet sized to admit every service")
        })
        .collect();

    if cfg.chaos {
        let horizon = T_READY + DRAIN;
        let mut rc = RecoveryConfig::default();
        rc.seed ^= shard_salt(k);
        recovery::start_self_healing(&mut engine, rc, horizon);
        let profile = ChaosProfile {
            hosts: range.map(|idx| idx as u64 + 1).collect(),
            start: T_READY + SimDuration::from_secs(20),
            end: T_READY + SimDuration::from_secs(120),
            mean_gap: SimDuration::from_secs(20),
            mean_repair: SimDuration::from_secs(40),
            domains: vec![],
            master_crashes: 0,
        };
        let plan = FaultPlan::randomized(cfg.seed ^ shard_salt(k), &profile);
        plan.schedule(&mut engine, apply_fault);
        engine.schedule_periodic(
            T_READY + SimDuration::from_secs(5),
            SimDuration::from_secs(5),
            horizon,
            |w: &mut SodaWorld, _ctx| {
                recovery::check_invariants(w);
                true
            },
        );
    }

    let dest_services: Vec<u64> = map
        .shards()
        .map(|s| map.range(s).len() as u64 * u64::from(SERVICES_PER_HOST))
        .collect();
    let driver = Driver {
        services: Rc::new(services),
        cell: k as u64,
        cells: cfg.cells as u64,
        dest_services: Rc::new(dest_services),
        next: 0,
        remote_seq: 0,
        remaining: budget,
        batch: budget.div_ceil(TICKS).max(1),
        tick: SimDuration::from_millis(10),
        ticks_fired: 0,
        expect_creations: n_services as usize,
    };
    if budget > 0 {
        engine.schedule_at_as("client_arrival", T_READY, move |w, ctx| driver.fire(w, ctx));
        if cfg.cells > 1 {
            // The first send tick is the driver's first fire.
            engine.state_mut().port.set_promise(T_READY);
        }
    }
    engine
}

/// Reduce a finished cell engine into plain `Send` data (runs on the
/// worker thread that owns the engine).
fn finish_cell(k: u32, mut engine: Engine<SodaWorld>, obs: bool, start: Instant) -> CellOutcome {
    let events = engine.events_executed();
    let peak_queue_depth = engine.peak_events_pending();
    let profile = engine.profile_report();
    let w = engine.state_mut();
    CellOutcome {
        cell: k,
        services: w.services_all().count() as u32,
        completed: w.completed.len() as u64,
        dropped: w.dropped,
        events,
        peak_queue_depth,
        peak_live_flows: w.peak_live_flows as u64,
        peak_open_requests: w.peak_open_requests,
        remote_sent: w.port.sent,
        shard_spills: w.shards.spills,
        shard_msgs_sent: w.shards.msgs_sent,
        shard_msgs_stale: w.shards.msgs_stale,
        trajectory_fingerprint: fingerprint::trajectory(w),
        event_fingerprint: if obs { fingerprint::event_log(w) } else { 0 },
        profile,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

/// Run one point: partition, execute under `cfg.engine`, reduce.
pub fn run(cfg: &ScaleConfig) -> ScaleResult {
    let cfg = *cfg;
    assert!(cfg.instances >= 1, "services need at least one instance");
    assert!(cfg.cells >= 1, "at least one cell");
    assert!(cfg.hosts >= cfg.cells, "every cell needs at least one host");
    assert!(
        cfg.cells == 1 || cfg.kind.shards() == 1,
        "a sharded control plane runs in a one-cell world"
    );
    let wall_start = Instant::now();
    let map = ShardMap::new(cfg.cells, cfg.hosts as usize);
    let horizon = T_READY + DRAIN;

    let builders: Vec<_> = (0..cfg.cells)
        .map(|k| {
            let map = map.clone();
            move |cell: usize| {
                assert_eq!(cell as u32, k);
                build_cell(k, &map, &cfg)
            }
        })
        .collect();
    let (outcomes, stats) = run_cells(
        cfg.engine,
        ShardPlane::DEFAULT_LATENCY,
        horizon,
        builders,
        |k, engine| finish_cell(k as u32, engine, cfg.obs, wall_start),
    );

    let sum = |pick: fn(&CellOutcome) -> u64| -> u64 { outcomes.iter().map(pick).sum() };
    let completed = sum(|o| o.completed);
    let dropped = sum(|o| o.dropped);
    let events = sum(|o| o.events);
    let services: u32 = outcomes.iter().map(|o| o.services).sum();
    if !cfg.chaos {
        assert_eq!(
            completed + dropped,
            cfg.requests,
            "every request completes or is counted dropped"
        );
    }

    // FNV doesn't compose, so a multi-cell run folds `(cell, fp)`
    // pairs; a one-cell run reports the cell's own value.
    let fold = |pick: fn(&CellOutcome) -> u64| -> u64 {
        if outcomes.len() == 1 {
            return pick(&outcomes[0]);
        }
        outcomes.iter().fold(soda_sim::FNV_OFFSET, |fp, o| {
            let fp = soda_sim::fnv1a(fp, &o.cell.to_le_bytes());
            soda_sim::fnv1a(fp, &pick(o).to_le_bytes())
        })
    };
    let trajectory_fingerprint = fold(|o| o.trajectory_fingerprint);
    let event_fingerprint = if cfg.obs {
        fold(|o| o.event_fingerprint)
    } else {
        0
    };

    let wall_secs = outcomes.iter().map(|o| o.wall_secs).fold(0.0, f64::max);
    ScaleResult {
        hosts: cfg.hosts,
        cells: cfg.cells,
        engine: cfg.engine.label(),
        threads: stats.threads,
        control_plane: cfg.kind.label(),
        shards: cfg.kind.shards(),
        services,
        vsns: cfg.instances * services,
        requests: cfg.requests,
        completed,
        dropped,
        obs: cfg.obs,
        chaos: cfg.chaos,
        skew: cfg.skew,
        shard_spills: sum(|o| o.shard_spills),
        shard_msgs_sent: sum(|o| o.shard_msgs_sent),
        shard_msgs_stale: sum(|o| o.shard_msgs_stale),
        events,
        epochs: stats.epochs,
        remote_msgs: stats.remote_msgs,
        barrier_wait_secs: stats.barrier_wait_secs,
        barrier_wait_by_worker: stats.barrier_wait_by_worker,
        wall_secs,
        sim_secs: horizon.as_secs_f64(),
        events_per_sec: events as f64 / wall_secs.max(1e-9),
        requests_per_sec: cfg.requests as f64 / wall_secs.max(1e-9),
        peak_queue_depth: outcomes
            .iter()
            .map(|o| o.peak_queue_depth)
            .max()
            .unwrap_or(0),
        peak_live_flows: sum(|o| o.peak_live_flows),
        peak_open_requests: sum(|o| o.peak_open_requests),
        cell_outcomes: outcomes,
        peak_heap_bytes: crate::memtrack::peak_bytes(),
        trajectory_fingerprint,
        event_fingerprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_grid_point_fills_fleet_and_serves_everything() {
        let r = run(&ScaleConfig {
            hosts: 4,
            requests: 2_000,
            ..ScaleConfig::default()
        });
        assert_eq!(r.services, 4 * SERVICES_PER_HOST);
        assert_eq!(r.vsns, 4 * r.services);
        assert_eq!(r.completed + r.dropped, 2_000);
        assert_eq!(r.dropped, 0, "unsaturated fleet drops nothing");
        assert!(r.peak_queue_depth > 0);
        assert_eq!(r.event_fingerprint, 0, "obs off");
    }

    #[test]
    fn same_seed_same_trajectory() {
        let cfg = ScaleConfig {
            hosts: 3,
            requests: 1_000,
            seed: 9,
            ..ScaleConfig::default()
        };
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.trajectory_fingerprint, b.trajectory_fingerprint);
        assert_eq!(a.events, b.events);
    }

    /// The self-profiler only reads the host clock around handlers: a
    /// profiled run must walk the exact trajectory of a plain one, and
    /// its cost table must account for every event executed.
    #[test]
    fn profiler_is_trajectory_transparent_and_buckets_kinds() {
        let cfg = ScaleConfig {
            hosts: 3,
            requests: 1_000,
            seed: 5,
            ..ScaleConfig::default()
        };
        let plain = run(&cfg);
        let profiled = run(&ScaleConfig {
            profile: true,
            ..cfg
        });
        assert_eq!(
            plain.trajectory_fingerprint,
            profiled.trajectory_fingerprint
        );
        assert_eq!(plain.events, profiled.events);
        assert!(
            plain.cell_outcomes[0].profile.is_empty(),
            "profiler off by default"
        );
        let table = &profiled.cell_outcomes[0].profile;
        let counted: u64 = table.iter().map(|e| e.count).sum();
        assert_eq!(counted, profiled.events, "every event lands in a bucket");
        for kind in ["client_arrival", "cpu_done", "nic_pump", "response_depart"] {
            assert!(
                table.iter().any(|e| e.kind == kind),
                "expected event kind {kind} in the cost table"
            );
        }
    }

    /// Four cells keep the conservation law and the admission totals of
    /// the single cell: every service admits, every request completes or
    /// is counted dropped.
    #[test]
    fn sharded_four_cells_conserve_requests() {
        let cfg = ScaleConfig {
            hosts: 4,
            requests: 2_000,
            seed: 23,
            kind: ControlPlaneKind::Sharded(4),
            ..ScaleConfig::default()
        };
        let r = run(&cfg);
        assert_eq!(r.shards, 4);
        assert_eq!(r.services, 4 * SERVICES_PER_HOST);
        assert_eq!(r.vsns, 4 * r.services);
        assert_eq!(r.completed + r.dropped, cfg.requests);
        assert_eq!(r.dropped, 0, "unsaturated fleet drops nothing");
    }

    /// The xl addressing formula stays verbatim-compatible below the
    /// 60k-host threshold and injective (with room for a /27 per host)
    /// above it.
    #[test]
    fn host_ip_formulas_agree_on_ranges() {
        assert_eq!(host_ip(1, 100), "10.0.1.0".parse().unwrap());
        assert_eq!(host_ip(251, 10_000), "10.1.1.0".parse().unwrap());
        assert_eq!(host_ip(60_000, 60_000), "10.240.0.0".parse().unwrap());
        assert_eq!(host_ip(1, 100_000), Ipv4Addr(0x0a00_0000 + 64));
        assert_eq!(
            host_ip(100_000, 100_000),
            Ipv4Addr(0x0a00_0000 + 100_000 * 64)
        );
    }
}
