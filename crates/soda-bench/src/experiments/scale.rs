//! X-SCALE — hot-path throughput sweep over a utility-scale HUP.
//!
//! The paper's testbed is two hosts; the ROADMAP's north star is a
//! utility "serving heavy traffic from millions of users". This
//! experiment measures the gap: it builds a fleet of N identical hosts,
//! fills it wall-to-wall with services (20 single-instance machine
//! slices per host — the worst-fit index places every last instance),
//! then pushes a fixed request count through the switches, CPU stages,
//! shapers and NICs, reporting wall-clock, events/second, peak RSS and
//! the event-queue high-water mark.
//!
//! Two fingerprints make the run comparable across processes and
//! optimisation levels:
//!
//! * `trajectory_fingerprint` — FNV-1a over every completed request's
//!   `(service, vsn, issued, completed, dataset)` plus the drop count.
//!   Computed whether or not observability is on; the indexed hot paths
//!   must not move it.
//! * `event_fingerprint` — FNV-1a over the rendered observability event
//!   log (0 when `obs` is off), the same scheme X-CHAOS uses.

use serde::Serialize;
use soda_core::service::{ServiceId, ServiceSpec};
use soda_core::shard::ControlPlaneKind;
use soda_core::world::{create_service_driven, submit_request, SodaWorld};
use soda_core::WorldStorageKind;
use soda_hostos::resources::ResourceVector;
use soda_hup::daemon::SodaDaemon;
use soda_hup::host::{HostId, HupHost};
use soda_net::addr::Ipv4Addr;
use soda_net::pool::IpPool;
use soda_sim::{Engine, QueueKind, SimDuration, SimTime};
use soda_vmm::rootfs::RootFsCatalog;
use soda_vmm::sysservices::StartupClass;
use std::rc::Rc;

/// Services created per host. Each service is `<4, M_SCALE>`, so a full
/// fleet carries `hosts × SERVICES_PER_HOST × 4` virtual service nodes
/// (20 per host — 1,000 hosts ⇒ 20,000 VSNs).
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

/// One grid point of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct ScaleConfig {
    /// Fleet size.
    pub hosts: u32,
    /// Client requests to push through the fleet.
    pub requests: u64,
    /// Engine seed (workload interleaving is fully deterministic).
    pub seed: u64,
    /// Record observability events/metrics during the run.
    pub obs: bool,
    /// Run the engine self-profiler (wall-clock cost per event kind).
    /// Profiling reads the host clock around every handler, so it is
    /// off for fingerprint-bearing CI runs and on for `exp_scale
    /// profile` investigations; it must never move the trajectory.
    pub profile: bool,
    /// Event-queue implementation; the determinism suite replays runs on
    /// both kinds and requires identical fingerprints.
    pub queue: QueueKind,
    /// Control plane driving the run: `n` placement cells coordinated
    /// by messages (`Sharded(1)`, the default, is the single Master).
    pub kind: ControlPlaneKind,
    /// VSN instances per service (4 in the canonical grid — 20 VSNs per
    /// host; the xl tier runs 2 so 100k hosts carry exactly 1M VSNs
    /// without changing the per-service spec shape).
    pub instances: u32,
    /// World-state storage backend. `Arena` (the default) is the dense
    /// slab data plane; `Map` is the ordered-map oracle the
    /// differential suite replays against.
    pub storage: WorldStorageKind,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            hosts: 10,
            requests: 10_000,
            seed: 42,
            obs: false,
            profile: false,
            queue: QueueKind::default(),
            kind: ControlPlaneKind::default(),
            instances: 4,
            storage: WorldStorageKind::default(),
        }
    }
}

/// Measurements from one scale run.
#[derive(Clone, Debug, Serialize)]
pub struct ScaleResult {
    /// Fleet size.
    pub hosts: u32,
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
    /// Whether observability was enabled.
    pub obs: bool,
    /// Event-queue implementation the run used (`"wheel"` / `"heap"`).
    pub queue: String,
    /// Control plane the run used (`"sharded-N"`).
    pub control_plane: String,
    /// Storage backend the run used (`"arena"` / `"map"`).
    pub storage: String,
    /// Placement cells in the control plane.
    pub shards: u32,
    /// Creations re-placed over the whole fleet after their home cell
    /// was full.
    pub shard_spills: u64,
    /// Inter-shard messages sent / dropped as stale.
    pub shard_msgs_sent: u64,
    /// Inter-shard messages dropped because the destination's journal
    /// epoch moved while they were in flight.
    pub shard_msgs_stale: u64,
    /// Engine events executed, creation phase included.
    pub events: u64,
    /// Host wall-clock for the whole run, seconds.
    pub wall_secs: f64,
    /// Virtual time simulated, seconds.
    pub sim_secs: f64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Requests per wall-clock second.
    pub requests_per_sec: f64,
    /// Event-queue high-water mark.
    pub peak_queue_depth: usize,
    /// High-water mark of concurrently active NIC flows fleet-wide.
    pub peak_live_flows: u64,
    /// High-water mark of in-flight (admitted, unanswered) requests.
    pub peak_open_requests: u64,
    /// Per-event-kind wall-clock cost table (empty unless
    /// [`ScaleConfig::profile`] was set).
    pub profile: Vec<soda_sim::ProfileEntry>,
    /// Process peak RSS in kB (`VmHWM`; 0 where unavailable). Process-
    /// wide and monotonic, so within one sweep only the largest grid
    /// point's value is meaningful.
    pub peak_rss_kb: u64,
    /// Peak heap bytes (counting-allocator mark when the binary
    /// installs one, `VmHWM` otherwise — see `soda_bench::memtrack`).
    /// Process-wide and monotonic like `peak_rss_kb`.
    pub peak_rss_bytes: u64,
    /// FNV-1a over completed-request tuples + the drop count.
    pub trajectory_fingerprint: u64,
    /// FNV-1a over the rendered event log (0 with `obs` off).
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

/// Peak resident-set size in kB from `/proc/self/status` (`VmHWM`).
fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    if let Some(kb) = rest.split_whitespace().next() {
                        return kb.parse().unwrap_or(0);
                    }
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Run one grid point.
pub fn run(cfg: &ScaleConfig) -> ScaleResult {
    assert!(cfg.instances >= 1, "services need at least one instance");
    let wall_start = std::time::Instant::now();
    let daemons: Vec<SodaDaemon> = (1..=cfg.hosts)
        .map(|i| {
            SodaDaemon::new(HupHost::seattle(
                HostId(i),
                IpPool::new(host_ip(i, cfg.hosts), 32),
            ))
        })
        .collect();
    let mut world = SodaWorld::new(daemons);
    world.configure_storage(cfg.storage);
    let mut engine = Engine::with_seed_queue(world, cfg.seed, cfg.queue);
    engine.state_mut().configure_shards(cfg.kind);
    // Workload-derived capacity hint: the queue high-water mark tracks the
    // in-flight request population, itself bounded by the issue batch size
    // times the pipeline depth. Pre-paying the growth keeps re-allocation
    // out of the measured request phase.
    engine.reserve_events(
        usize::try_from(cfg.requests / 4)
            .unwrap_or(usize::MAX)
            .clamp(1024, 1 << 20),
    );
    if cfg.obs {
        engine.state_mut().enable_obs(1 << 16);
    }
    if cfg.profile {
        engine.enable_profiler();
    }

    // Fill the utility: every admission succeeds because the fleet's
    // instance capacity equals total demand exactly.
    let n_services = cfg.hosts * SERVICES_PER_HOST;
    let services: Vec<ServiceId> = (0..n_services)
        .map(|s| {
            create_service_driven(
                &mut engine,
                spec(&format!("svc{s}"), cfg.instances),
                "scaleco",
            )
            .expect("fleet sized to admit every service")
        })
        .collect();
    // Image downloads + bootstraps; ~20 concurrent downloads per NIC.
    let t_ready = SimTime::from_secs(300);
    engine.run_until(t_ready);
    assert_eq!(
        engine.state().creations.len(),
        n_services as usize,
        "every creation completes within the priming horizon"
    );
    let vsns = cfg.instances * n_services;

    // Request phase: a deterministic driver issues a fixed batch every
    // 10 ms, round-robin over services, until the budget is spent.
    let tick = SimDuration::from_millis(10);
    let ticks: u64 = 10_000; // 100 s of virtual time
    let batch = cfg.requests.div_ceil(ticks).max(1);
    let services = Rc::new(services);
    struct Driver {
        services: Rc<Vec<ServiceId>>,
        next: u64,
        remaining: u64,
        batch: u64,
        tick: SimDuration,
    }
    impl Driver {
        fn fire(mut self, w: &mut SodaWorld, ctx: &mut soda_sim::Ctx<SodaWorld>) {
            let n = self.batch.min(self.remaining);
            for _ in 0..n {
                let svc = self.services[(self.next % self.services.len() as u64) as usize];
                submit_request(w, ctx, svc, 2_000);
                self.next += 1;
            }
            self.remaining -= n;
            if self.remaining > 0 {
                let tick = self.tick;
                ctx.schedule_in_as("client_arrival", tick, move |w, ctx| self.fire(w, ctx));
            }
        }
    }
    let driver = Driver {
        services: Rc::clone(&services),
        next: 0,
        remaining: cfg.requests,
        batch,
        tick,
    };
    engine.schedule_at_as("client_arrival", t_ready, move |w, ctx| driver.fire(w, ctx));
    // Budget ÷ batch ticks of issue plus drain time.
    engine.run_until(t_ready + SimDuration::from_secs(200));

    let events = engine.events_executed();
    let peak_queue_depth = engine.peak_events_pending();
    let sim_secs = engine.now().as_secs_f64();
    let profile = engine.profile_report();
    let w = engine.state_mut();
    assert_eq!(
        w.completed.len() as u64 + w.dropped,
        cfg.requests,
        "every request completes or is counted dropped"
    );

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
    if cfg.obs {
        let mut fp = FNV_OFFSET;
        if let Some(drained) = w.obs.drain_events() {
            for ev in &drained.events {
                fp = fnv_bytes(fp, ev.to_string().as_bytes());
            }
        }
        event_fingerprint = fp;
    }

    let wall_secs = wall_start.elapsed().as_secs_f64();
    ScaleResult {
        hosts: cfg.hosts,
        services: n_services,
        vsns,
        requests: cfg.requests,
        completed: w.completed.len() as u64,
        dropped: w.dropped,
        obs: cfg.obs,
        queue: match cfg.queue {
            QueueKind::Wheel => "wheel".to_string(),
            QueueKind::Heap => "heap".to_string(),
        },
        control_plane: cfg.kind.label(),
        storage: cfg.storage.label().to_string(),
        shards: w.shard_count(),
        shard_spills: w.shards.spills,
        shard_msgs_sent: w.shards.msgs_sent,
        shard_msgs_stale: w.shards.msgs_stale,
        events,
        wall_secs,
        sim_secs,
        events_per_sec: events as f64 / wall_secs.max(1e-9),
        requests_per_sec: cfg.requests as f64 / wall_secs.max(1e-9),
        peak_queue_depth,
        peak_live_flows: w.peak_live_flows as u64,
        peak_open_requests: w.peak_open_requests,
        profile,
        peak_rss_kb: peak_rss_kb(),
        peak_rss_bytes: crate::memtrack::peak_rss_bytes(),
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
        assert!(plain.profile.is_empty(), "profiler off by default");
        let counted: u64 = profiled.profile.iter().map(|e| e.count).sum();
        assert_eq!(counted, profiled.events, "every event lands in a bucket");
        for kind in ["client_arrival", "cpu_done", "nic_pump", "response_depart"] {
            assert!(
                profiled.profile.iter().any(|e| e.kind == kind),
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

    /// The dense arena backend IS the ordered-map oracle: a full scale
    /// run on each must fingerprint (trajectory AND event log)
    /// identically, event for event.
    #[test]
    fn arena_and_map_storage_fingerprint_identically() {
        let cfg = ScaleConfig {
            hosts: 4,
            requests: 2_000,
            seed: 23,
            obs: true,
            storage: WorldStorageKind::Arena,
            ..ScaleConfig::default()
        };
        let arena = run(&cfg);
        let map = run(&ScaleConfig {
            storage: WorldStorageKind::Map,
            ..cfg
        });
        assert_eq!(arena.storage, "arena");
        assert_eq!(map.storage, "map");
        assert_eq!(arena.trajectory_fingerprint, map.trajectory_fingerprint);
        assert_eq!(arena.event_fingerprint, map.event_fingerprint);
        assert_eq!(arena.events, map.events);
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

    /// The wheel and the heap are trajectory-identical end to end, not
    /// just at the queue API: a full scale run on each must fingerprint
    /// the same.
    #[test]
    fn queue_kinds_are_trajectory_identical() {
        let cfg = ScaleConfig {
            hosts: 3,
            requests: 1_000,
            seed: 17,
            obs: true,
            ..ScaleConfig::default()
        };
        let wheel = run(&cfg);
        let heap = run(&ScaleConfig {
            queue: QueueKind::Heap,
            ..cfg
        });
        assert_eq!(wheel.trajectory_fingerprint, heap.trajectory_fingerprint);
        assert_eq!(wheel.event_fingerprint, heap.event_fingerprint);
        assert_eq!(wheel.events, heap.events);
    }
}
