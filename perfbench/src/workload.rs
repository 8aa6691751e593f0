//! The four workloads, each built here from the layer crates' public API
//! (`SodaWorld`, `create_service_driven`, `submit_request`,
//! `apply_fault`, `recovery::start_self_healing`, `Engine`,
//! `run_cells_with`, `FaultPlan::randomized`) rather than through the
//! experiment harness, so editing an experiment cannot move a workload.
//!
//! Only configurations the simulator keeps are selected: default
//! storage and event queue, the default control plane or `Sharded(n)`,
//! and `EpochPolicy::Adaptive` on the `Serial` cell engine.
//!
//! One call to [`run_pass`] is one pass: build, prime, drive the clients,
//! verify. A pass runs on the calling thread only.

use crate::ledger::{profile_delta, Ledger, Phase, UNATTRIBUTED};
use soda_core::config::ShardMap;
use soda_core::recovery::{self, RecoveryConfig};
use soda_core::service::{ServiceId, ServiceSpec};
use soda_core::shard::{shard_salt, ControlPlaneKind, ShardPlane};
use soda_core::world::{
    apply_fault, create_service_driven, submit_request, submit_request_with_callback,
    RequestRecord, SodaWorld,
};
use soda_hostos::resources::ResourceVector;
use soda_hup::daemon::SodaDaemon;
use soda_hup::host::{HostId, HupHost};
use soda_net::pool::IpPool;
use soda_sim::{
    run_cells_with, ChaosProfile, Ctx, Engine, EngineKind, EpochPolicy, FaultPlan, FaultSpec,
    ProfileEntry, SimDuration, SimRng, SimTime,
};
use soda_vmm::rootfs::RootFsCatalog;
use soda_vmm::sysservices::StartupClass;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Services created per host; each has `instances` VSNs.
const SERVICES_PER_HOST: u32 = 5;
/// Machine instance sized so 20 inflated instances fill one *seattle*
/// host's CPU exactly.
const MACHINE: ResourceVector = ResourceVector {
    cpu_mhz: 75,
    mem_mb: 80,
    disk_mb: 500,
    bw_mbps: 2,
};
/// Bytes a client request asks for: uniform over 1–3 kB (2 kB on
/// average), drawn from the seed, so simulated response times form a
/// continuum rather than a handful of queueing levels.
const REQUEST_BYTES: std::ops::Range<u64> = 1_000..3_001;
/// Every service is admitted and primed by this virtual time.
const T_READY: SimTime = SimTime::from_secs(300);
/// Client issue period.
const TICK: SimDuration = SimDuration::from_millis(10);
/// Issue ticks: 100 s of virtual time.
const TICKS: u64 = 10_000;
/// Virtual time the run drains for after `T_READY`.
const DRAIN: SimDuration = SimDuration::from_secs(200);
/// `cells-8`: cross-cell requests leave on every 10th tick …
const REMOTE_EVERY_TICKS: u64 = 10;
/// … one request in 16 of that tick.
const REMOTE_EVERY_REQS: u64 = 16;
/// `chaos-200`: a lost request is sent again after this long …
const RETRY_GAP: SimDuration = SimDuration::from_millis(10);
/// … at most this many times.
const MAX_RETRIES: u32 = 40;
/// `chaos-200`: routing invariants are swept this often.
const SWEEP_EVERY: SimDuration = SimDuration::from_secs(5);
/// Seed salts, so the workload's random streams are independent.
const ORDER_SALT: u64 = 0x0bde_5eed_c11e_0001;
const FAULT_SALT: u64 = 0xfa17_5eed_0000_0002;
const RECOVERY_SALT: u64 = 0x4ec0_5eed_0000_0003;
const SIZE_SALT: u64 = 0x512e_5eed_0000_0004;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 1,000 hosts full of services; the request data plane.
    Steady1k,
    /// 10,000 hosts half full, 16 placement cells; per-host state and
    /// set-up.
    Fleet10k,
    /// `steady-1k` split into 8 DES partitions under the epoch loop.
    Cells8,
    /// 200 full hosts under a seeded fault plan, self-healing and
    /// observability on.
    Chaos200,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Steady1k,
        Workload::Fleet10k,
        Workload::Cells8,
        Workload::Chaos200,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady1k => "steady-1k",
            Workload::Fleet10k => "fleet-10k",
            Workload::Cells8 => "cells-8",
            Workload::Chaos200 => "chaos-200",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether a pass can switch observability off (the `obs.*` layer
    /// metrics compare the two).
    pub fn has_obs(self) -> bool {
        self == Workload::Chaos200
    }

    /// The workload's size at `scale`.
    pub fn shape(self, scale: Scale) -> Shape {
        let full = scale == Scale::Full;
        let base = Shape {
            hosts: if full { 1_000 } else { 8 },
            instances: 4,
            requests: if full { 1_000_000 } else { 2_000 },
            shards: 1,
            cells: 1,
            fault_gap: None,
        };
        match self {
            Workload::Steady1k => base,
            Workload::Fleet10k => Shape {
                hosts: if full { 10_000 } else { 32 },
                instances: 2,
                shards: if full { 16 } else { 4 },
                ..base
            },
            Workload::Cells8 => Shape {
                hosts: if full { 1_000 } else { 16 },
                cells: 8,
                ..base
            },
            Workload::Chaos200 => Shape {
                hosts: if full { 200 } else { 12 },
                requests: if full { 1_000_000 } else { 4_000 },
                fault_gap: Some(SimDuration::from_millis(if full { 1_500 } else { 4_000 })),
                ..base
            },
        }
    }
}

/// Workload size: the benchmark's, or a shrunken one for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// A few hosts and thousands of requests.
    Small,
}

/// The size and shape of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// *seattle* hosts in the fleet.
    pub hosts: u32,
    /// VSNs per service.
    pub instances: u32,
    /// Client requests issued.
    pub requests: u64,
    /// Placement cells of the control plane (1: the default plane).
    pub shards: u32,
    /// DES partitions under `run_cells_with` (1: one engine).
    pub cells: u32,
    /// Mean gap between injected faults (`None`: no faults, no
    /// self-healing).
    pub fault_gap: Option<SimDuration>,
}

/// One pass to run.
#[derive(Clone, Copy, Debug)]
pub struct PassSpec {
    /// Which workload.
    pub workload: Workload,
    /// Seed all of the pass's inputs derive from.
    pub seed: u64,
    /// Its size.
    pub scale: Scale,
    /// Record the layer ledger and run the engine self-profiler.
    pub traced: bool,
    /// Observability on (`chaos-200` only; its default).
    pub obs: bool,
}

impl PassSpec {
    /// The workload's default pass: untraced, observability as the
    /// workload defines it.
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Self {
        PassSpec {
            workload,
            seed,
            scale,
            traced: false,
            obs: workload.has_obs(),
        }
    }
}

/// One correctness check.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The values compared.
    pub detail: String,
}

impl Check {
    /// A check named `name` that holds iff `ok`.
    pub fn new(name: &str, ok: bool, detail: String) -> Self {
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }
}

/// What one pass measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PassResult {
    /// Client requests issued.
    pub attempted: u64,
    /// Client requests that got a response.
    pub answered: u64,
    /// Host seconds before the first client request.
    pub setup_s: f64,
    /// Host seconds from the end of set-up until the engine drained.
    pub run_s: f64,
    /// Host seconds of the whole pass, verification included.
    pub wall_s: f64,
    /// Process `VmHWM` at the end of the pass, MB.
    pub peak_rss_mb: f64,
    /// Median simulated client response time, ms.
    pub p50_ms: f64,
    /// 99th-percentile simulated client response time, ms.
    pub p99_ms: f64,
    /// Response times the quantiles were taken over.
    pub samples: u64,
    /// FNV-1a over every completed request record and the drop count.
    pub fingerprint: u64,
    /// Correctness checks; any failure fails every request of the pass.
    pub checks: Vec<Check>,
    /// Layer times (traced passes only), [`crate::ledger::LAYERS`] order.
    pub layers: Vec<(String, f64)>,
    /// Layer counts (traced passes only), [`crate::ledger::COUNTS`] order.
    pub counts: Vec<(String, f64)>,
}

impl PassResult {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Client requests that failed: dropped or never answered, or all of
    /// them when a check failed.
    pub fn failed(&self) -> u64 {
        if self.correct() {
            self.attempted - self.answered.min(self.attempted)
        } else {
            self.attempted
        }
    }
}

/// Run one pass on the calling thread.
pub fn run_pass(spec: &PassSpec) -> PassResult {
    SUBMITS.with(|s| s.set(0));
    let shape = spec.workload.shape(spec.scale);
    if shape.cells > 1 {
        run_cells_pass(spec, &shape)
    } else {
        run_single_pass(spec, &shape)
    }
}

thread_local! {
    /// `submit_request` calls made by the clients of the current pass. A
    /// pass runs on one thread (`cells-8` on the `Serial` engine), so
    /// this one counter sees every submission of every cell.
    static SUBMITS: Cell<u64> = const { Cell::new(0) };
}

fn submit(w: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>, svc: ServiceId, bytes: u64) {
    SUBMITS.with(|s| s.set(s.get() + 1));
    submit_request(w, ctx, svc, bytes);
}

fn spec_for(name: String, instances: u32) -> ServiceSpec {
    ServiceSpec {
        name,
        image: RootFsCatalog::new().base_1_0(),
        required_services: vec!["network", "syslogd"],
        app_class: StartupClass::Light,
        instances,
        machine: MACHINE,
        port: 8080,
    }
}

/// Host `i` (1-based, fleet-global) with its own /27 of addresses.
fn daemon(i: u32) -> SodaDaemon {
    let base = format!("10.{}.{}.0", i / 250, i % 250)
        .parse()
        .expect("dotted quad for fleets below 60k hosts");
    SodaDaemon::new(HupHost::seattle(HostId(i), IpPool::new(base, 32)))
}

/// Event-queue capacity hint: the in-flight population is bounded by the
/// issue batch times the pipeline depth.
fn queue_hint(requests: u64) -> usize {
    usize::try_from(requests / 4)
        .unwrap_or(usize::MAX)
        .clamp(1024, 1 << 20)
}

/// Admit `n` services named from `first`, each admission timed.
fn admit_all(
    engine: &mut Engine<SodaWorld>,
    led: &mut Ledger,
    first: u32,
    n: u32,
    instances: u32,
) -> (Vec<ServiceId>, u64) {
    let mut services = Vec::with_capacity(n as usize);
    let mut refused = 0u64;
    for s in first..first + n {
        let spec = spec_for(format!("svc{s}"), instances);
        match led.span("core.admit_s", || {
            create_service_driven(engine, spec, "benchco")
        }) {
            Ok(id) => services.push(id),
            Err(_) => refused += 1,
        }
    }
    led.count("core.admissions", services.len() as f64);
    led.count("core.admit_refused", refused as f64);
    (services, refused)
}

/// The order the client cycles through services: a seeded shuffle.
fn client_order(mut services: Vec<ServiceId>, seed: u64) -> Rc<Vec<ServiceId>> {
    let mut rng = SimRng::new(seed ^ ORDER_SALT);
    for i in (1..services.len()).rev() {
        services.swap(i, rng.index(i + 1));
    }
    Rc::new(services)
}

/// Services primed by the ready horizon.
fn primed_by_ready(w: &SodaWorld) -> usize {
    w.creations.iter().filter(|c| c.at <= T_READY).count()
}

/// Peak resident set of this process (`VmHWM`), MB; 0 where unknown.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut fp: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        fp ^= u64::from(b);
        fp = fp.wrapping_mul(FNV_PRIME);
    }
    fp
}

/// FNV-1a over the completed records and the drop count: the trajectory
/// fingerprint.
fn fingerprint(completed: &[RequestRecord], dropped: u64) -> u64 {
    let mut fp = FNV_OFFSET;
    for r in completed {
        fp = fnv(fp, &r.service.0.to_le_bytes());
        fp = fnv(fp, &r.vsn.0.to_le_bytes());
        fp = fnv(fp, &r.issued.as_nanos().to_le_bytes());
        fp = fnv(fp, &r.completed.as_nanos().to_le_bytes());
        fp = fnv(fp, &r.dataset.to_le_bytes());
    }
    fnv(fp, &dropped.to_le_bytes())
}

/// Nearest-rank quantile of sorted nanoseconds, in ms.
fn quantile_ms(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e6
}

/// What the `chaos-200` client saw.
#[derive(Debug, Default)]
struct ClientLog {
    answered: u64,
    gave_up: u64,
    retries: u64,
    /// Due time to response, ns, per answered request.
    latencies: Vec<u64>,
}

/// The open-loop client: a fixed batch every [`TICK`] of virtual time,
/// round-robin over a seeded service order, until the budget is spent.
/// With a log it retries lost requests, as a client facing a host
/// failure would, and times each from when it was first due.
struct OpenLoop {
    order: Rc<Vec<ServiceId>>,
    sizes: SimRng,
    next: u64,
    remaining: u64,
    batch: u64,
    log: Option<Rc<RefCell<ClientLog>>>,
}

impl OpenLoop {
    fn fire(mut self, w: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>) {
        let n = self.batch.min(self.remaining);
        let due = ctx.now();
        for _ in 0..n {
            let svc = self.order[(self.next % self.order.len() as u64) as usize];
            let bytes = self.sizes.range_u64(REQUEST_BYTES);
            match &self.log {
                None => submit(w, ctx, svc, bytes),
                Some(log) => submit_retrying(w, ctx, svc, bytes, due, 0, Rc::clone(log)),
            }
            self.next += 1;
        }
        self.remaining -= n;
        if self.remaining > 0 {
            ctx.schedule_in_as("client_arrival", TICK, move |w, ctx| self.fire(w, ctx));
        }
    }
}

fn submit_retrying(
    w: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    svc: ServiceId,
    bytes: u64,
    due: SimTime,
    attempt: u32,
    log: Rc<RefCell<ClientLog>>,
) {
    SUBMITS.with(|s| s.set(s.get() + 1));
    let on_done = Box::new(
        move |_: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>, rec: Option<&RequestRecord>| match rec {
            Some(r) => {
                let mut l = log.borrow_mut();
                l.answered += 1;
                l.latencies
                    .push(r.completed.saturating_since(due).as_nanos());
            }
            None if attempt < MAX_RETRIES => {
                log.borrow_mut().retries += 1;
                ctx.schedule_in_as("client_retry", RETRY_GAP, move |w, ctx| {
                    submit_retrying(w, ctx, svc, bytes, due, attempt + 1, log)
                });
            }
            None => log.borrow_mut().gave_up += 1,
        },
    );
    submit_request_with_callback(w, ctx, svc, bytes, Some(on_done));
}

/// Sweep the routing invariants every [`SWEEP_EVERY`] until `until`,
/// adding violations to `tally`.
fn sweep_invariants(
    w: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    tally: Rc<Cell<u64>>,
    until: SimTime,
) {
    tally.set(tally.get() + recovery::check_invariants(w));
    if ctx.now() + SWEEP_EVERY <= until {
        ctx.schedule_in_as("invariant_sweep", SWEEP_EVERY, move |w, ctx| {
            sweep_invariants(w, ctx, tally, until)
        });
    }
}

/// The common checks: every service admitted and primed, every request
/// submitted accounted for.
fn common_checks(
    n_services: u32,
    admitted: usize,
    primed: usize,
    completed: u64,
    dropped: u64,
    submits: u64,
) -> Vec<Check> {
    vec![
        Check::new(
            "admitted",
            admitted == n_services as usize,
            format!("{admitted} of {n_services} services admitted"),
        ),
        Check::new(
            "primed",
            primed == n_services as usize,
            format!("{primed} of {n_services} services primed by {T_READY:?}"),
        ),
        Check::new(
            "conservation",
            completed + dropped == submits,
            format!("completed {completed} + dropped {dropped} vs submitted {submits}"),
        ),
    ]
}

fn run_single_pass(spec: &PassSpec, shape: &Shape) -> PassResult {
    let mut led = Ledger::new(spec.traced);
    let t0 = Instant::now();
    let mut engine = led.span("core.build_s", || {
        let daemons: Vec<SodaDaemon> = (1..=shape.hosts).map(daemon).collect();
        let mut engine = Engine::with_seed(SodaWorld::new(daemons), spec.seed);
        if shape.shards > 1 {
            engine
                .state_mut()
                .configure_shards(ControlPlaneKind::Sharded(shape.shards));
        }
        engine.reserve_events(queue_hint(shape.requests));
        if spec.obs {
            engine.state_mut().enable_obs(1 << 16);
        }
        engine
    });
    if spec.traced {
        engine.enable_profiler();
    }
    let n_services = shape.hosts * SERVICES_PER_HOST;
    let (services, _) = admit_all(&mut engine, &mut led, 0, n_services, shape.instances);

    let t = Instant::now();
    engine.run_until(T_READY);
    let prime_s = t.elapsed().as_secs_f64();
    let primed_profile = engine.profile_report();
    led.engine_span(prime_s, &primed_profile, Phase::Priming);
    let primed = primed_by_ready(engine.state());

    let horizon = T_READY + DRAIN;
    let violations = Rc::new(Cell::new(0u64));
    let mut host_crashes = 0;
    if let Some(gap) = shape.fault_gap {
        led.span("core.recovery_s", || {
            let rc = RecoveryConfig {
                seed: spec.seed ^ RECOVERY_SALT,
                ..RecoveryConfig::default()
            };
            recovery::start_self_healing(&mut engine, rc, horizon);
            let profile = ChaosProfile {
                hosts: (1..=u64::from(shape.hosts)).collect(),
                start: T_READY + SimDuration::from_secs(20),
                end: T_READY + SimDuration::from_secs(120),
                mean_gap: gap,
                mean_repair: SimDuration::from_secs(40),
                domains: Vec::new(),
                master_crashes: 0,
            };
            // Only the plan's host crashes and their repairs are kept:
            // slow hosts and link faults made the simulated p99 swing
            // with the draw (see README.md).
            let mut plan = FaultPlan::new();
            for inj in FaultPlan::randomized(spec.seed ^ FAULT_SALT, &profile).injections() {
                match inj.fault {
                    FaultSpec::HostCrash { .. } => host_crashes += 1,
                    FaultSpec::HostRepair { .. } => {}
                    _ => continue,
                }
                plan.push(inj.at, inj.fault);
            }
            plan.schedule(&mut engine, apply_fault);
        });
        let tally = Rc::clone(&violations);
        engine.schedule_at_as("invariant_sweep", T_READY + SWEEP_EVERY, move |w, ctx| {
            sweep_invariants(w, ctx, tally, horizon)
        });
    }
    let log = shape
        .fault_gap
        .map(|_| Rc::new(RefCell::new(ClientLog::default())));
    let client = OpenLoop {
        order: client_order(services.clone(), spec.seed),
        sizes: SimRng::new(spec.seed ^ SIZE_SALT),
        next: 0,
        remaining: shape.requests,
        batch: shape.requests.div_ceil(TICKS).max(1),
        log: log.clone(),
    };
    engine.schedule_at_as("client_arrival", T_READY, move |w, ctx| client.fire(w, ctx));
    let setup_s = t0.elapsed().as_secs_f64();

    let t = Instant::now();
    engine.run_until(horizon);
    let run_s = t.elapsed().as_secs_f64();
    if spec.traced {
        let delta = profile_delta(&primed_profile, &engine.profile_report());
        led.engine_span(run_s, &delta, Phase::Requests);
    }

    let (mut result, tally) = led.span("bench.check_s", move || {
        let events = engine.events_executed();
        let peak_queue = engine.peak_events_pending();
        let w = engine.state();
        let submits = SUBMITS.with(Cell::get);
        let completed = w.completed.len() as u64;
        let mut checks = common_checks(
            n_services,
            services.len(),
            primed,
            completed,
            w.dropped,
            submits,
        );
        let (answered, mut latencies) = match &log {
            None => (
                completed,
                w.completed
                    .iter()
                    .map(|r| r.completed.saturating_since(r.issued).as_nanos())
                    .collect::<Vec<u64>>(),
            ),
            Some(log) => {
                let mut l = log.borrow_mut();
                (l.answered, std::mem::take(&mut l.latencies))
            }
        };
        let (mut retries, mut recoveries) = (0u64, 0u64);
        if let Some(log) = &log {
            let v = violations.get();
            checks.push(Check::new(
                "invariants",
                v == 0,
                format!("{v} routing-invariant violations"),
            ));
            checks.push(Check::new(
                "faults",
                host_crashes > 0,
                format!("{host_crashes} host crashes planned"),
            ));
            let l = log.borrow();
            checks.push(Check::new(
                "client-resolved",
                l.answered + l.gave_up == shape.requests,
                format!(
                    "{} answered + {} gave up of {} ({} resends)",
                    l.answered, l.gave_up, shape.requests, l.retries
                ),
            ));
            for k in 0..w.shard_count() {
                let stats = &w.recovery_of(soda_core::config::ShardId(k)).stats;
                retries += stats.retries;
                recoveries += stats.recoveries.len() as u64;
            }
        }
        latencies.sort_unstable();
        let tally = Tally {
            events,
            engine_s: prime_s + run_s,
            peak_queue,
            peak_live_flows: w.peak_live_flows as u64,
            peak_open_requests: w.peak_open_requests,
            submits,
            retries,
            recoveries,
            epochs: 0,
            remote_msgs: 0,
        };
        let result = PassResult {
            attempted: shape.requests,
            answered,
            setup_s,
            run_s,
            wall_s: 0.0,
            peak_rss_mb: 0.0,
            p50_ms: quantile_ms(&latencies, 0.50),
            p99_ms: quantile_ms(&latencies, 0.99),
            samples: latencies.len() as u64,
            fingerprint: fingerprint(&w.completed, w.dropped),
            checks,
            layers: Vec::new(),
            counts: Vec::new(),
        };
        (result, tally)
    });
    finish(&mut result, &mut led, &tally, t0);
    result
}

/// Engine-wide totals of a pass, turned into layer counts when traced.
struct Tally {
    events: u64,
    /// Host seconds the engine(s) ran, handlers included.
    engine_s: f64,
    peak_queue: usize,
    peak_live_flows: u64,
    peak_open_requests: u64,
    submits: u64,
    retries: u64,
    recoveries: u64,
    epochs: u64,
    remote_msgs: u64,
}

/// Stamp the pass's wall time and peak RSS and, when traced, close the
/// ledger: counts, layer times, and the unattributed remainder.
fn finish(result: &mut PassResult, led: &mut Ledger, tally: &Tally, t0: Instant) {
    result.wall_s = t0.elapsed().as_secs_f64();
    result.peak_rss_mb = peak_rss_mb();
    if !led.is_on() {
        return;
    }
    let events = tally.events.max(1) as f64;
    led.set_count("sim.events", tally.events as f64);
    led.set_count("sim.ns_per_event", tally.engine_s * 1e9 / events);
    led.set_count(
        "sim.events_per_request",
        tally.events as f64 / result.attempted.max(1) as f64,
    );
    led.set_count("sim.peak_queue_depth", tally.peak_queue as f64);
    led.set_count("net.peak_live_flows", tally.peak_live_flows as f64);
    led.set_count("core.peak_open_requests", tally.peak_open_requests as f64);
    led.set_count("core.submits", tally.submits as f64);
    led.set_count("core.retries", tally.retries as f64);
    led.set_count("core.recoveries", tally.recoveries as f64);
    led.set_count("par.epochs", tally.epochs as f64);
    led.set_count("par.remote_msgs", tally.remote_msgs as f64);
    let mut layers = led.layers();
    let claimed: f64 = layers.iter().map(|(_, s)| s).sum();
    layers.push((UNATTRIBUTED.to_string(), result.wall_s - claimed));
    result.layers = layers;
    result.counts = led.counts();
}

/// What a cell builder records about its set-up.
#[derive(Debug, Default)]
struct CellBuild {
    setup_s: f64,
    build_s: f64,
    admit_s: f64,
    services: u32,
    admitted: u64,
    refused: u64,
}

/// What a finished cell hands back to the reducer.
struct CellOutcome {
    completed: u64,
    dropped: u64,
    latencies: Vec<u64>,
    fingerprint: u64,
    primed: usize,
    events: u64,
    peak_queue: usize,
    peak_live_flows: u64,
    peak_open_requests: u64,
    profile: Vec<ProfileEntry>,
    finish_s: f64,
}

/// Balanced split of the request budget over cells.
fn cell_requests(requests: u64, cells: u32, k: u32) -> u64 {
    let cells = u64::from(cells);
    requests / cells + u64::from(u64::from(k) < requests % cells)
}

/// The per-cell client: [`OpenLoop`] over this cell's services, except
/// that on every [`REMOTE_EVERY_TICKS`]th tick one request in
/// [`REMOTE_EVERY_REQS`] crosses to a sibling cell through the
/// `CellPort`, one lookahead later. The port's promise always points at
/// the next tick that may send.
struct CellClient {
    order: Rc<Vec<ServiceId>>,
    sizes: SimRng,
    cell: u64,
    cells: u64,
    /// Services per cell: cell `j`'s `s`-th service is `j+1 + s*cells`
    /// by id-lane striping, so no cross-cell lookup is needed.
    dest_services: Rc<Vec<u64>>,
    next: u64,
    remote_seq: u64,
    remaining: u64,
    batch: u64,
    ticks_fired: u64,
}

impl CellClient {
    fn fire(mut self, w: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>) {
        let n = self.batch.min(self.remaining);
        let send_tick = self.ticks_fired.is_multiple_of(REMOTE_EVERY_TICKS);
        for _ in 0..n {
            let idx = self.next;
            let bytes = self.sizes.range_u64(REQUEST_BYTES);
            if send_tick && idx.is_multiple_of(REMOTE_EVERY_REQS) {
                let hop = 1 + self.remote_seq % (self.cells - 1);
                let to = ((self.cell + hop) % self.cells) as usize;
                let svc = ServiceId(to as u64 + 1 + (idx % self.dest_services[to]) * self.cells);
                self.remote_seq += 1;
                let lookahead = w.port.lookahead();
                w.port.send(
                    ctx.now(),
                    to,
                    lookahead,
                    "remote_request",
                    move |w: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>| submit(w, ctx, svc, bytes),
                );
            } else {
                submit(
                    w,
                    ctx,
                    self.order[(idx % self.order.len() as u64) as usize],
                    bytes,
                );
            }
            self.next += 1;
        }
        self.remaining -= n;
        self.ticks_fired += 1;
        if self.remaining == 0 {
            w.port.set_promise(SimTime::MAX);
        } else {
            let ticks = self.ticks_fired.div_ceil(REMOTE_EVERY_TICKS) * REMOTE_EVERY_TICKS;
            w.port
                .set_promise(T_READY + SimDuration::from_nanos(ticks * TICK.as_nanos()));
            ctx.schedule_in_as("client_arrival", TICK, move |w, ctx| self.fire(w, ctx));
        }
    }
}

/// Build cell `k`: its slice of the fleet (fleet-global host ids), its
/// salted seed, its services on the cell's id lane, and its client.
fn build_cell(
    k: u32,
    map: &ShardMap,
    spec: &PassSpec,
    shape: &Shape,
    out: &Mutex<Vec<CellBuild>>,
) -> Engine<SodaWorld> {
    let t0 = Instant::now();
    let mut led = Ledger::new(spec.traced);
    let range = map.range(soda_core::config::ShardId(k));
    let budget = cell_requests(shape.requests, shape.cells, k);
    let mut engine = led.span("core.build_s", || {
        let daemons: Vec<SodaDaemon> = range.clone().map(|i| daemon(i as u32 + 1)).collect();
        let mut engine = Engine::with_seed(SodaWorld::new(daemons), spec.seed ^ shard_salt(k));
        engine
            .state_mut()
            .configure_parallel_cell(k, shape.cells, ShardPlane::DEFAULT_LATENCY);
        engine.reserve_events(queue_hint(budget));
        engine
    });
    if spec.traced {
        engine.enable_profiler();
    }
    let n_services = range.len() as u32 * SERVICES_PER_HOST;
    let first = range.start as u32 * SERVICES_PER_HOST;
    let (services, refused) = admit_all(&mut engine, &mut led, first, n_services, shape.instances);
    let admitted = services.len() as u64;
    let dest_services = map
        .shards()
        .map(|s| map.range(s).len() as u64 * u64::from(SERVICES_PER_HOST))
        .collect();
    let client = CellClient {
        order: client_order(services, spec.seed ^ shard_salt(k)),
        sizes: SimRng::new(spec.seed ^ shard_salt(k) ^ SIZE_SALT),
        cell: u64::from(k),
        cells: u64::from(shape.cells),
        dest_services: Rc::new(dest_services),
        next: 0,
        remote_seq: 0,
        remaining: budget,
        batch: budget.div_ceil(TICKS).max(1),
        ticks_fired: 0,
    };
    if budget > 0 {
        engine.schedule_at_as("client_arrival", T_READY, move |w, ctx| client.fire(w, ctx));
        engine.state_mut().port.set_promise(T_READY);
    }
    let layers = led.layers();
    let layer = |name: &str| {
        layers
            .iter()
            .find(|(l, _)| l == name)
            .map_or(0.0, |(_, s)| *s)
    };
    let build = CellBuild {
        setup_s: t0.elapsed().as_secs_f64(),
        build_s: layer("core.build_s"),
        admit_s: layer("core.admit_s"),
        services: n_services,
        admitted,
        refused,
    };
    out.lock().expect("cell build log").push(build);
    engine
}

/// Reduce a drained cell to plain data; dropping the engine is part of
/// the cost.
fn finish_cell(engine: Engine<SodaWorld>) -> CellOutcome {
    let t0 = Instant::now();
    let w = engine.state();
    let mut out = CellOutcome {
        completed: w.completed.len() as u64,
        dropped: w.dropped,
        latencies: w
            .completed
            .iter()
            .map(|r| r.completed.saturating_since(r.issued).as_nanos())
            .collect(),
        fingerprint: fingerprint(&w.completed, w.dropped),
        primed: primed_by_ready(w),
        events: engine.events_executed(),
        peak_queue: engine.peak_events_pending(),
        peak_live_flows: w.peak_live_flows as u64,
        peak_open_requests: w.peak_open_requests,
        profile: engine.profile_report(),
        finish_s: 0.0,
    };
    drop(engine);
    out.finish_s = t0.elapsed().as_secs_f64();
    out
}

fn run_cells_pass(spec: &PassSpec, shape: &Shape) -> PassResult {
    let mut led = Ledger::new(spec.traced);
    let t0 = Instant::now();
    let map = ShardMap::new(shape.cells, shape.hosts as usize);
    let builds = Arc::new(Mutex::new(Vec::new()));
    let builders: Vec<_> = (0..shape.cells)
        .map(|k| {
            let (map, builds, spec, shape) = (map.clone(), Arc::clone(&builds), *spec, *shape);
            move |_cell: usize| build_cell(k, &map, &spec, &shape, &builds)
        })
        .collect();
    let (outcomes, stats) = run_cells_with(
        EngineKind::Serial,
        EpochPolicy::Adaptive,
        ShardPlane::DEFAULT_LATENCY,
        T_READY + DRAIN,
        builders,
        |_, engine| finish_cell(engine),
    );
    let cells_s = t0.elapsed().as_secs_f64();
    let builds = std::mem::take(&mut *builds.lock().expect("cell build log"));
    // Priming runs inside the epoch loop, so set-up is the builders.
    let setup_s: f64 = builds.iter().map(|b| b.setup_s).sum();
    let finish_s: f64 = outcomes.iter().map(|o| o.finish_s).sum();
    let run_s = cells_s - setup_s - finish_s;
    if spec.traced {
        led.add("core.build_s", builds.iter().map(|b| b.build_s).sum());
        led.add("core.admit_s", builds.iter().map(|b| b.admit_s).sum());
        led.count(
            "core.admissions",
            builds.iter().map(|b| b.admitted).sum::<u64>() as f64,
        );
        led.count(
            "core.admit_refused",
            builds.iter().map(|b| b.refused).sum::<u64>() as f64,
        );
        let mut merged: Vec<ProfileEntry> = Vec::new();
        for e in outcomes.iter().flat_map(|o| &o.profile) {
            match merged.iter_mut().find(|m| m.kind == e.kind) {
                Some(m) => {
                    m.count += e.count;
                    m.total_ns += e.total_ns;
                }
                None => merged.push(*e),
            }
        }
        led.engine_span(run_s, &merged, Phase::Requests);
        led.add("bench.check_s", finish_s);
    }
    let (mut result, tally) = led.span("bench.check_s", move || {
        let n_services: u32 = builds.iter().map(|b| b.services).sum();
        let sum = |f: fn(&CellOutcome) -> u64| outcomes.iter().map(f).sum::<u64>();
        let completed = sum(|o| o.completed);
        let submits = SUBMITS.with(Cell::get);
        let mut checks = common_checks(
            n_services,
            builds.iter().map(|b| b.admitted).sum::<u64>() as usize,
            outcomes.iter().map(|o| o.primed).sum(),
            completed,
            sum(|o| o.dropped),
            submits,
        );
        checks.push(Check::new(
            "cross-cell",
            stats.remote_msgs > 0,
            format!("{} requests crossed cells", stats.remote_msgs),
        ));
        let mut fp = FNV_OFFSET;
        for (k, o) in outcomes.iter().enumerate() {
            fp = fnv(fp, &(k as u32).to_le_bytes());
            fp = fnv(fp, &o.fingerprint.to_le_bytes());
        }
        let mut latencies: Vec<u64> = outcomes
            .iter()
            .flat_map(|o| &o.latencies)
            .copied()
            .collect();
        latencies.sort_unstable();
        let tally = Tally {
            events: sum(|o| o.events),
            engine_s: run_s,
            peak_queue: outcomes.iter().map(|o| o.peak_queue).max().unwrap_or(0),
            peak_live_flows: sum(|o| o.peak_live_flows),
            peak_open_requests: sum(|o| o.peak_open_requests),
            submits,
            retries: 0,
            recoveries: 0,
            epochs: stats.epochs,
            remote_msgs: stats.remote_msgs,
        };
        let result = PassResult {
            attempted: shape.requests,
            answered: completed,
            setup_s,
            run_s,
            wall_s: 0.0,
            peak_rss_mb: 0.0,
            p50_ms: quantile_ms(&latencies, 0.50),
            p99_ms: quantile_ms(&latencies, 0.99),
            samples: latencies.len() as u64,
            fingerprint: fp,
            checks,
            layers: Vec::new(),
            counts: Vec::new(),
        };
        (result, tally)
    });
    finish(&mut result, &mut led, &tally, t0);
    result
}
