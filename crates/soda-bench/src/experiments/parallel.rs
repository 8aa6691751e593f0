//! X-PARALLEL — conservative epoch-synchronized parallel DES over
//! placement cells, and its serial-oracle differential gate.
//!
//! The world is partitioned along the PR 8 `ShardMap` cell boundaries:
//! each cell is a complete `SodaWorld` over its contiguous slice of the
//! host roster, with its own timer wheel, RNG stream and event-log
//! shard, driven by its own [`Engine`]. Lookahead is the 500 µs
//! inter-cell message latency (`ShardPlane::DEFAULT_LATENCY` — the same
//! LAN delay the sharded control plane charges for `ShardMsg`), and
//! cross-cell client requests travel through each cell's
//! [`soda_sim::CellPort`], buffered at the epoch barrier and merged in
//! deterministic `(time, sender cell, sender seq)` order
//! ([`soda_sim::par`]).
//!
//! Determinism contract:
//!
//! * `cells = 1` under [`EngineKind::Serial`] IS the X-SCALE run —
//!   same seed, same ids, same trajectory and event fingerprints.
//! * `Parallel(n)` for ANY `n` replays `Serial` bit-identically at the
//!   same cell count: the merge order, not thread arrival order,
//!   decides every cross-cell tie.
//!
//! [`gate`] checks both (plus a chaos-soak seed and the profiler
//! accounting) and is wired into tier 1 and CI; [`speedup_grid`] /
//! [`run`] produce the committed scaling curves.

use serde::Serialize;
use soda_core::config::{ShardId, ShardMap};
use soda_core::recovery::{self, RecoveryConfig};
use soda_core::service::{ServiceId, ServiceSpec};
use soda_core::shard::{shard_salt, ShardPlane};
use soda_core::world::{apply_fault, create_service_driven, submit_request, SodaWorld};
use soda_hostos::resources::ResourceVector;
use soda_hup::daemon::SodaDaemon;
use soda_hup::host::{HostId, HupHost};
use soda_net::pool::IpPool;
use soda_sim::{
    run_cells, ChaosProfile, Engine, EngineKind, FaultPlan, ProfileEntry, SimDuration, SimTime,
};
use soda_vmm::rootfs::RootFsCatalog;
use soda_vmm::sysservices::StartupClass;
use std::rc::Rc;

use crate::experiments::scale::{self, ScaleConfig, SERVICES_PER_HOST};
use crate::experiments::shard::GateCheck;

/// The scale-run machine instance (identical to X-SCALE's `M_SCALE`, so
/// a one-cell run fills hosts exactly the way X-SCALE does).
const M_PAR: ResourceVector = ResourceVector {
    cpu_mhz: 75,
    mem_mb: 80,
    disk_mb: 500,
    bw_mbps: 2,
};

/// One grid point of the parallel sweep.
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Fleet size (must be ≥ `cells`; cells split it contiguously).
    pub hosts: u32,
    /// Client requests pushed through the fleet, split across cells.
    pub requests: u64,
    /// Base seed; cell `k` runs on `seed ^ shard_salt(k)` (salt 0 = 0,
    /// so a one-cell run replays the X-SCALE seed exactly).
    pub seed: u64,
    /// Placement cells the world is partitioned into.
    pub cells: u32,
    /// Execution mode: the serial oracle or `Parallel(n)` threads.
    pub engine: EngineKind,
    /// Record observability events/metrics during the run.
    pub obs: bool,
    /// Run the per-cell engine self-profiler.
    pub profile: bool,
    /// Inject the per-cell chaos plan (host crashes + self-healing).
    pub chaos: bool,
    /// Skew the request split: cell 0 carries ~90% of the budget, the
    /// rest is balanced over the other cells. The straggler workload
    /// per-cell epoch bounds exist for.
    pub skew: bool,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            hosts: 10,
            requests: 10_000,
            seed: 42,
            cells: 1,
            engine: EngineKind::Serial,
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
    /// FNV-1a over this cell's completed-request tuples + drop count
    /// (the X-SCALE scheme, per cell).
    pub trajectory_fingerprint: u64,
    /// FNV-1a over this cell's rendered event log (0 with obs off).
    pub event_fingerprint: u64,
    /// Per-event-kind cost table (empty unless profiling).
    pub profile: Vec<ProfileEntry>,
}

/// Measurements from one parallel run.
#[derive(Clone, Debug, Serialize)]
pub struct ParallelResult {
    /// Fleet size.
    pub hosts: u32,
    /// Placement cells.
    pub cells: u32,
    /// Execution mode label (`"serial"` / `"parallel-N"`).
    pub engine: String,
    /// Worker threads actually used (min of threads and cells).
    pub threads: u32,
    /// Services created fleet-wide.
    pub services: u32,
    /// Virtual service nodes running after creation.
    pub vsns: u32,
    /// Requests submitted fleet-wide.
    pub requests: u64,
    /// Requests completed fleet-wide.
    pub completed: u64,
    /// Requests dropped fleet-wide.
    pub dropped: u64,
    /// Whether observability was on.
    pub obs: bool,
    /// Whether the chaos plan ran.
    pub chaos: bool,
    /// Events executed, summed over cells.
    pub events: u64,
    /// Whether the skewed request split was used.
    pub skew: bool,
    /// Epoch barriers crossed.
    pub epochs: u64,
    /// Cross-cell events delivered through the barriers.
    pub remote_msgs: u64,
    /// Total wall-clock the workers spent parked at barriers, seconds.
    pub barrier_wait_secs: f64,
    /// Barrier wait split by worker (cell `k` runs on worker
    /// `k % threads`, so with `threads == cells` this is per cell).
    pub barrier_wait_by_worker: Vec<f64>,
    /// Host wall-clock for the whole run, seconds.
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
    /// instants, so this bounds the fleet-wide concurrent peak from
    /// above).
    pub peak_live_flows: u64,
    /// Sum of per-cell peak open-request counts (same caveat).
    pub peak_open_requests: u64,
    /// Per-cell outcomes, cell order.
    pub cell_outcomes: Vec<CellOutcome>,
    /// FNV-1a fold of the per-cell trajectory fingerprints (for one
    /// cell this IS the cell's — and therefore X-SCALE's — value).
    pub trajectory_fingerprint: u64,
    /// FNV-1a fold of the per-cell event fingerprints (same collapse
    /// at one cell; 0 with obs off).
    pub event_fingerprint: u64,
    /// Process peak RSS in kB (`VmHWM`; 0 where unavailable).
    pub peak_rss_kb: u64,
}

fn spec(name: &str) -> ServiceSpec {
    ServiceSpec {
        name: name.into(),
        image: RootFsCatalog::new().base_1_0(),
        required_services: vec!["network", "syslogd"],
        app_class: StartupClass::Light,
        instances: 4,
        machine: M_PAR,
        port: 8080,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(fp: u64, bytes: &[u8]) -> u64 {
    let mut fp = fp;
    for &b in bytes {
        fp ^= u64::from(b);
        fp = fp.wrapping_mul(FNV_PRIME);
    }
    fp
}

/// Priming horizon — identical to X-SCALE's.
const T_READY: SimTime = SimTime::from_secs(300);
/// Virtual seconds after `T_READY` the run drains for (X-SCALE's 200).
const DRAIN: SimDuration = SimDuration::from_secs(200);
/// Issue ticks (X-SCALE's driver: one batch per 10 ms for 100 s).
const TICKS: u64 = 10_000;
/// Cross-cell egress runs every `REMOTE_EVERY_TICKS`th tick, so cell
/// promises advance in 100 ms strides and ten ticks share one epoch.
const REMOTE_EVERY_TICKS: u64 = 10;
/// Within a send tick, every `REMOTE_EVERY_REQS`th request (by the
/// driver's global counter) goes to a sibling cell.
const REMOTE_EVERY_REQS: u64 = 16;

/// The per-cell client driver. At one cell it degenerates to X-SCALE's
/// driver exactly: same batch, same tick, same round-robin, no port
/// traffic. At `cells > 1` it diverts a deterministic sliver of its
/// budget to sibling cells through the epoch fabric and keeps its
/// port's promise pointing at the next possible send tick.
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
            // X-SCALE asserts this between its two run_until calls; in
            // the epoch harness the first driver tick is the same
            // instant, and the check costs no engine event.
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
fn cell_requests(requests: u64, cells: u32, k: u32, skew: bool) -> u64 {
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
/// ids, so a one-cell build is byte-identical to X-SCALE's fleet), its
/// salted seed, its services on the striped id lane, its driver, and —
/// when `chaos` — its fault plan and self-healing loop.
fn build_cell(k: u32, map: &ShardMap, cfg: &ParallelConfig) -> Engine<SodaWorld> {
    let range = map.range(ShardId(k));
    let daemons: Vec<SodaDaemon> = range
        .clone()
        .map(|idx| {
            let i = idx as u32 + 1; // global 1-based host id, as X-SCALE numbers them
            SodaDaemon::new(HupHost::seattle(
                HostId(i),
                IpPool::new(
                    format!("10.{}.{}.0", i / 250, i % 250)
                        .parse()
                        .expect("valid"),
                    32,
                ),
            ))
        })
        .collect();
    let hosts_here = daemons.len() as u32;
    let mut engine = Engine::with_seed(SodaWorld::new(daemons), cfg.seed ^ shard_salt(k));
    engine
        .state_mut()
        .configure_parallel_cell(k, cfg.cells, ShardPlane::DEFAULT_LATENCY);
    let budget = cell_requests(cfg.requests, cfg.cells, k, cfg.skew);
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

    // Fill this cell's slice of the utility. Service names carry the
    // global index so a one-cell run matches X-SCALE's names exactly.
    let offset: u32 = map
        .shards()
        .take_while(|&s| s != ShardId(k))
        .map(|s| map.range(s).len() as u32 * SERVICES_PER_HOST)
        .sum();
    let n_services = hosts_here * SERVICES_PER_HOST;
    let services: Vec<ServiceId> = (0..n_services)
        .map(|s| {
            create_service_driven(&mut engine, spec(&format!("svc{}", offset + s)), "scaleco")
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

    // X-SCALE's driver, parameterized for this cell's budget.
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
fn finish_cell(k: u32, mut engine: Engine<SodaWorld>, obs: bool) -> CellOutcome {
    let events = engine.events_executed();
    let peak_queue_depth = engine.peak_events_pending();
    let profile = engine.profile_report();
    let w = engine.state_mut();

    let mut fp = FNV_OFFSET;
    for r in &w.completed {
        fp = fnv_bytes(fp, &r.service.0.to_le_bytes());
        fp = fnv_bytes(fp, &r.vsn.0.to_le_bytes());
        fp = fnv_bytes(fp, &r.issued.as_nanos().to_le_bytes());
        fp = fnv_bytes(fp, &r.completed.as_nanos().to_le_bytes());
        fp = fnv_bytes(fp, &r.dataset.to_le_bytes());
    }
    fp = fnv_bytes(fp, &w.dropped.to_le_bytes());
    let trajectory_fingerprint = fp;

    let mut event_fingerprint = 0;
    if obs {
        let mut fp = FNV_OFFSET;
        if let Some(drained) = w.obs.drain_events() {
            for ev in &drained.events {
                fp = fnv_bytes(fp, ev.to_string().as_bytes());
            }
        }
        event_fingerprint = fp;
    }

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
        trajectory_fingerprint,
        event_fingerprint,
        profile,
    }
}

/// Run one grid point: partition, execute under `cfg.engine`, reduce.
pub fn run(cfg: &ParallelConfig) -> ParallelResult {
    let cfg = *cfg;
    assert!(cfg.cells >= 1, "at least one cell");
    assert!(cfg.hosts >= cfg.cells, "every cell needs at least one host");
    let wall_start = std::time::Instant::now();
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
        |k, engine| finish_cell(k as u32, engine, cfg.obs),
    );

    let completed: u64 = outcomes.iter().map(|o| o.completed).sum();
    let dropped: u64 = outcomes.iter().map(|o| o.dropped).sum();
    let events: u64 = outcomes.iter().map(|o| o.events).sum();
    let services: u32 = outcomes.iter().map(|o| o.services).sum();
    if !cfg.chaos {
        assert_eq!(
            completed + dropped,
            cfg.requests,
            "every request completes or is counted dropped"
        );
    }

    // Fold the per-cell fingerprints. FNV doesn't compose, so the
    // combined value of a multi-cell run is a fold over `(cell, fp)`
    // pairs — but at one cell it must BE the cell's value, so the
    // X-SCALE comparison stays a single equality.
    let fold = |pick: fn(&CellOutcome) -> u64| -> u64 {
        if outcomes.len() == 1 {
            return pick(&outcomes[0]);
        }
        let mut fp = FNV_OFFSET;
        for o in &outcomes {
            fp = fnv_bytes(fp, &o.cell.to_le_bytes());
            fp = fnv_bytes(fp, &pick(o).to_le_bytes());
        }
        fp
    };
    let trajectory_fingerprint = fold(|o| o.trajectory_fingerprint);
    let event_fingerprint = if cfg.obs {
        fold(|o| o.event_fingerprint)
    } else {
        0
    };

    let wall_secs = wall_start.elapsed().as_secs_f64();
    ParallelResult {
        hosts: cfg.hosts,
        cells: cfg.cells,
        engine: cfg.engine.label(),
        threads: stats.threads,
        services,
        vsns: 4 * services,
        requests: cfg.requests,
        completed,
        dropped,
        obs: cfg.obs,
        chaos: cfg.chaos,
        events,
        skew: cfg.skew,
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
        peak_live_flows: outcomes.iter().map(|o| o.peak_live_flows).sum(),
        peak_open_requests: outcomes.iter().map(|o| o.peak_open_requests).sum(),
        cell_outcomes: outcomes,
        trajectory_fingerprint,
        event_fingerprint,
        peak_rss_kb: crate::memtrack::vm_hwm_bytes() / 1024,
    }
}

/// The gate's full report.
#[derive(Clone, Debug, Serialize)]
pub struct ParallelGateReport {
    /// Threads exercised on the parallel side.
    pub threads: u32,
    /// Cells the world was split into.
    pub cells: u32,
    /// Every comparison made, in order.
    pub checks: Vec<GateCheck>,
    /// The runs compared (serial oracle, parallel-1, parallel-n).
    pub points: Vec<ParallelResult>,
    /// True iff every check passed.
    pub passed: bool,
}

fn check(checks: &mut Vec<GateCheck>, name: &str, passed: bool, detail: String) {
    checks.push(GateCheck {
        name: name.to_string(),
        passed,
        detail,
    });
}

/// Run the differential gate with `threads` workers on the parallel
/// side (`Parallel(1)` is always exercised too; `Serial` is the
/// oracle, and the one-cell serial run is compared against X-SCALE).
pub fn gate(threads: u32) -> ParallelGateReport {
    let threads = threads.max(2);
    let cells = 4;
    let mut checks = Vec::new();

    // Tier 0: one cell, serial, IS the X-SCALE run.
    let base = ParallelConfig {
        hosts: 8,
        requests: 20_000,
        seed: 1303,
        obs: true,
        ..ParallelConfig::default()
    };
    let solo = run(&base);
    let xscale = scale::run(&ScaleConfig {
        hosts: base.hosts,
        requests: base.requests,
        seed: base.seed,
        obs: true,
        ..ScaleConfig::default()
    });
    check(
        &mut checks,
        "cells=1 serial replays the X-SCALE run",
        solo.trajectory_fingerprint == xscale.trajectory_fingerprint
            && solo.event_fingerprint == xscale.event_fingerprint
            && solo.events == xscale.events,
        format!(
            "trajectory {:#018x} vs {:#018x}, events {:#018x} vs {:#018x}, count {} vs {}",
            xscale.trajectory_fingerprint,
            solo.trajectory_fingerprint,
            xscale.event_fingerprint,
            solo.event_fingerprint,
            xscale.events,
            solo.events
        ),
    );

    // Tier 1: multi-cell, serial oracle vs Parallel(1) and Parallel(n).
    let multi = ParallelConfig { cells, ..base };
    let serial = run(&multi);
    let mut points = vec![solo];
    for n in [1, threads] {
        let par = run(&ParallelConfig {
            engine: EngineKind::Parallel(n),
            ..multi
        });
        check(
            &mut checks,
            &format!("parallel({n}) trajectory ≡ serial, cells={cells}"),
            par.trajectory_fingerprint == serial.trajectory_fingerprint,
            format!(
                "serial {:#018x} vs parallel-{n} {:#018x}",
                serial.trajectory_fingerprint, par.trajectory_fingerprint
            ),
        );
        check(
            &mut checks,
            &format!("parallel({n}) event log ≡ serial, cells={cells}"),
            par.event_fingerprint == serial.event_fingerprint,
            format!(
                "serial {:#018x} vs parallel-{n} {:#018x}",
                serial.event_fingerprint, par.event_fingerprint
            ),
        );
        check(
            &mut checks,
            &format!("parallel({n}) event count ≡ serial, cells={cells}"),
            par.events == serial.events,
            format!("serial {} vs parallel-{n} {}", serial.events, par.events),
        );
        check(
            &mut checks,
            &format!("parallel({n}) conservation"),
            par.completed + par.dropped == multi.requests,
            format!(
                "completed {} + dropped {} vs submitted {}",
                par.completed, par.dropped, multi.requests
            ),
        );
        points.push(par);
    }
    check(
        &mut checks,
        "cross-cell traffic actually flowed",
        serial.remote_msgs > 0,
        format!("{} remote msgs", serial.remote_msgs),
    );
    points.insert(1, serial.clone());

    // Tier 2: the profiler must account for every event per cell and
    // stay trajectory-transparent under the parallel engine.
    let profiled = run(&ParallelConfig {
        profile: true,
        engine: EngineKind::Parallel(threads),
        ..multi
    });
    let accounted = profiled
        .cell_outcomes
        .iter()
        .all(|o| o.profile.iter().map(|e| e.count).sum::<u64>() == o.events);
    check(
        &mut checks,
        "profiler buckets every event in every cell",
        accounted,
        profiled
            .cell_outcomes
            .iter()
            .map(|o| {
                format!(
                    "cell {}: {}/{}",
                    o.cell,
                    o.profile.iter().map(|e| e.count).sum::<u64>(),
                    o.events
                )
            })
            .collect::<Vec<_>>()
            .join(", "),
    );
    check(
        &mut checks,
        "profiler is trajectory-transparent in parallel mode",
        profiled.trajectory_fingerprint == serial.trajectory_fingerprint
            && profiled.event_fingerprint == serial.event_fingerprint,
        format!(
            "plain {:#018x} vs profiled {:#018x}",
            serial.trajectory_fingerprint, profiled.trajectory_fingerprint
        ),
    );

    // Tier 3: a chaos seed — fault plans, heartbeats, self-healing and
    // invariant sweeps per cell — must replay identically too.
    let chaos = ParallelConfig {
        chaos: true,
        ..multi
    };
    let chaos_serial = run(&chaos);
    let chaos_par = run(&ParallelConfig {
        engine: EngineKind::Parallel(threads),
        ..chaos
    });
    check(
        &mut checks,
        "chaos seed: parallel ≡ serial",
        chaos_par.trajectory_fingerprint == chaos_serial.trajectory_fingerprint
            && chaos_par.event_fingerprint == chaos_serial.event_fingerprint
            && chaos_par.events == chaos_serial.events,
        format!(
            "trajectory {:#018x} vs {:#018x}, events {} vs {}",
            chaos_serial.trajectory_fingerprint,
            chaos_par.trajectory_fingerprint,
            chaos_serial.events,
            chaos_par.events
        ),
    );
    check(
        &mut checks,
        "chaos seed keeps serving",
        chaos_serial.completed > 1000,
        format!("{} completed", chaos_serial.completed),
    );

    // Tier 4: a skewed split (cell 0 carries ~90% of the requests), so
    // per-cell epoch bounds differ widely between cells.
    let skew = ParallelConfig {
        skew: true,
        ..multi
    };
    let skew_serial = run(&skew);
    let skew_par = run(&ParallelConfig {
        engine: EngineKind::Parallel(threads),
        ..skew
    });
    check(
        &mut checks,
        "skewed split: parallel ≡ serial",
        skew_par.trajectory_fingerprint == skew_serial.trajectory_fingerprint
            && skew_par.event_fingerprint == skew_serial.event_fingerprint
            && skew_par.events == skew_serial.events,
        format!(
            "trajectory {:#018x} vs {:#018x}, events {} vs {}",
            skew_serial.trajectory_fingerprint,
            skew_par.trajectory_fingerprint,
            skew_serial.events,
            skew_par.events
        ),
    );
    check(
        &mut checks,
        "skewed split conserves requests",
        skew_par.completed + skew_par.dropped == multi.requests,
        format!(
            "completed {} + dropped {} vs submitted {}",
            skew_par.completed, skew_par.dropped, multi.requests
        ),
    );

    let passed = checks.iter().all(|c| c.passed);
    ParallelGateReport {
        threads,
        cells,
        checks,
        points,
        passed,
    }
}

/// The speedup grid: a fixed workload at a fixed cell count, swept
/// over execution modes (serial, then 1/2/…/max threads).
pub fn speedup_grid(hosts: u32, requests: u64, cells: u32, threads: &[u32]) -> Vec<ParallelConfig> {
    let base = ParallelConfig {
        hosts,
        requests,
        seed: 1303,
        cells,
        engine: EngineKind::Serial,
        ..ParallelConfig::default()
    };
    let mut grid = vec![base];
    grid.extend(threads.iter().map(|&n| ParallelConfig {
        engine: EngineKind::Parallel(n),
        ..base
    }));
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_serial_replays_the_scale_run() {
        let cfg = ParallelConfig {
            hosts: 3,
            requests: 1_000,
            seed: 9,
            obs: true,
            ..ParallelConfig::default()
        };
        let par = run(&cfg);
        let xscale = scale::run(&ScaleConfig {
            hosts: 3,
            requests: 1_000,
            seed: 9,
            obs: true,
            ..ScaleConfig::default()
        });
        assert_eq!(par.trajectory_fingerprint, xscale.trajectory_fingerprint);
        assert_eq!(par.event_fingerprint, xscale.event_fingerprint);
        assert_eq!(par.events, xscale.events);
        assert_eq!(par.epochs, 1, "a solo cell drains in one epoch");
    }

    #[test]
    fn parallel_threads_replay_the_serial_oracle() {
        let cfg = ParallelConfig {
            hosts: 4,
            requests: 2_000,
            seed: 23,
            cells: 4,
            obs: true,
            ..ParallelConfig::default()
        };
        let serial = run(&cfg);
        assert!(serial.remote_msgs > 0, "cross-cell traffic flowed");
        for n in [1, 2, 4] {
            let par = run(&ParallelConfig {
                engine: EngineKind::Parallel(n),
                ..cfg
            });
            assert_eq!(
                par.trajectory_fingerprint, serial.trajectory_fingerprint,
                "Parallel({n}) trajectory diverged"
            );
            assert_eq!(
                par.event_fingerprint, serial.event_fingerprint,
                "Parallel({n}) event log diverged"
            );
            assert_eq!(par.events, serial.events);
            assert_eq!(par.remote_msgs, serial.remote_msgs);
        }
    }

    #[test]
    fn requests_are_conserved_across_cells() {
        let r = run(&ParallelConfig {
            hosts: 4,
            requests: 2_000,
            seed: 23,
            cells: 2,
            engine: EngineKind::Parallel(2),
            ..ParallelConfig::default()
        });
        assert_eq!(r.completed + r.dropped, 2_000);
        assert_eq!(r.services, 4 * SERVICES_PER_HOST);
        assert_eq!(r.dropped, 0, "unsaturated fleet drops nothing");
        let sent: u64 = r.cell_outcomes.iter().map(|o| o.remote_sent).sum();
        assert_eq!(sent, r.remote_msgs, "every sent message was delivered");
    }

    #[test]
    fn gate_passes_on_the_pinned_seed() {
        let report = gate(4);
        let failed: Vec<&GateCheck> = report.checks.iter().filter(|c| !c.passed).collect();
        assert!(report.passed, "failed checks: {failed:?}");
        assert_eq!(report.cells, 4);
        assert!(report.points.len() >= 4);
    }

    #[test]
    fn speedup_grid_sweeps_modes() {
        let grid = speedup_grid(8, 1_000, 8, &[1, 4]);
        assert_eq!(grid.len(), 3);
        assert_eq!(grid[0].engine, EngineKind::Serial);
        assert_eq!(grid[1].engine, EngineKind::Parallel(1));
        assert_eq!(grid[2].engine, EngineKind::Parallel(4));
        assert!(grid.iter().all(|c| c.cells == 8));
    }

    #[test]
    fn cell_request_split_is_balanced_and_total() {
        for (req, cells) in [(10u64, 3u32), (7, 7), (1_000_003, 8)] {
            let total: u64 = (0..cells)
                .map(|k| cell_requests(req, cells, k, false))
                .sum();
            assert_eq!(total, req);
            let mn = (0..cells)
                .map(|k| cell_requests(req, cells, k, false))
                .min()
                .unwrap();
            let mx = (0..cells)
                .map(|k| cell_requests(req, cells, k, false))
                .max()
                .unwrap();
            assert!(mx - mn <= 1);
        }
    }

    #[test]
    fn skewed_split_is_total_and_heavy_on_cell_zero() {
        for (req, cells) in [(10_000u64, 4u32), (1_000_003, 8), (17, 3)] {
            let total: u64 = (0..cells).map(|k| cell_requests(req, cells, k, true)).sum();
            assert_eq!(total, req);
            let heavy = cell_requests(req, cells, 0, true);
            let light_max = (1..cells)
                .map(|k| cell_requests(req, cells, k, true))
                .max()
                .unwrap();
            assert!(heavy >= light_max, "cell 0 carries the straggler load");
        }
        // One cell: skew degenerates to the balanced split.
        assert_eq!(cell_requests(100, 1, 0, true), 100);
    }

    #[test]
    fn skewed_cells_replay_the_serial_oracle() {
        let skewed = ParallelConfig {
            hosts: 4,
            requests: 4_000,
            seed: 23,
            cells: 4,
            skew: true,
            obs: true,
            ..ParallelConfig::default()
        };
        let serial = run(&skewed);
        let par = run(&ParallelConfig {
            engine: EngineKind::Parallel(4),
            ..skewed
        });
        assert_eq!(
            par.trajectory_fingerprint, serial.trajectory_fingerprint,
            "parallel diverged from the serial oracle"
        );
        assert_eq!(par.event_fingerprint, serial.event_fingerprint);
        assert_eq!(par.events, serial.events);
        assert_eq!(par.epochs, serial.epochs);
        assert_eq!(serial.completed + serial.dropped, skewed.requests);
        assert_eq!(par.barrier_wait_by_worker.len(), 4);
    }
}
