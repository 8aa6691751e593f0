//! Observability-layer integration tests (DESIGN.md §3).
//!
//! The load-bearing property is the *observer effect*: enabling the
//! typed-event / span / metrics instrumentation must not change the
//! simulation in any way — same request trajectory, same engine event
//! count, same RNG state afterwards. The instrumentation only ever
//! *records* (retroactively, in the already-determined virtual
//! timeline); it never schedules events or draws randomness.
//!
//! Also covered here: the metrics registry's JSON snapshot round-trips
//! through `serde_json`, the drained timeline is well-formed and
//! serializable, and a property test drives arbitrary Master op
//! sequences and checks that every priming the Master begins ends in
//! exactly one `master.priming` span.

use proptest::prelude::*;
use soda::core::master::SodaMaster;
use soda::core::service::{ServiceId, ServiceSpec};
use soda::core::world::{attack_node, create_service_driven, revive_node, SodaWorld};
use soda::hostos::resources::ResourceVector;
use soda::hup::daemon::SodaDaemon;
use soda::hup::host::{HostId, HupHost};
use soda::net::pool::IpPool;
use soda::sim::{Engine, Labels, MetricValue, Obs, SimDuration, SimTime};
use soda::vmm::isolation::FaultKind;
use soda::vmm::rootfs::RootFsCatalog;
use soda::vmm::sysservices::StartupClass;
use soda::vmm::vsn::VsnState;
use soda::workload::httpgen::PoissonGenerator;

fn web_spec(instances: u32) -> ServiceSpec {
    ServiceSpec {
        name: "web".into(),
        image: RootFsCatalog::new().base_1_0(),
        required_services: vec!["network", "syslogd"],
        app_class: StartupClass::Light,
        instances,
        machine: ResourceVector::TABLE1_EXAMPLE,
        port: 8080,
    }
}

/// Nodes still `Priming` on any daemon. Every priming ends in a boot or
/// a removal, so once nothing is in flight this is zero.
fn priming_nodes(daemons: &[SodaDaemon]) -> usize {
    daemons
        .iter()
        .flat_map(|d| d.vsns())
        .filter(|v| matches!(v.state(), VsnState::Priming))
        .count()
}

/// Samples in the `master.priming` histogram of `obs`.
fn priming_spans(obs: &Obs) -> u64 {
    obs.with(|inner| {
        inner
            .registry
            .histogram("master", "priming", Labels::none())
            .map_or(0, |h| h.count())
    })
    .unwrap()
}

/// A scenario touching every instrumented path: admission + placement +
/// priming, Table 2 bootstraps, Poisson load through the switch, a
/// node crash plus revival. Returns the full request trajectory, the
/// engine's executed-event count, a probe of the RNG state after the
/// run, and the obs handle (when enabled).
fn scenario(seed: u64, obs_capacity: Option<usize>) -> (Vec<(u64, u64)>, u64, u64, Option<Obs>) {
    let (mut engine, obs) = scenario_engine(seed, obs_capacity);
    let traj: Vec<(u64, u64)> = engine
        .state()
        .completed
        .iter()
        .map(|r| (r.issued.as_nanos(), r.completed.as_nanos()))
        .collect();
    let events = engine.events_executed();
    let rng_probe = engine.rng_mut().next_u64();
    (traj, events, rng_probe, obs)
}

/// [`scenario`]'s run, returning the engine itself.
fn scenario_engine(seed: u64, obs_capacity: Option<usize>) -> (Engine<SodaWorld>, Option<Obs>) {
    let mut world = SodaWorld::testbed();
    let obs = obs_capacity.map(|c| world.enable_obs(c));
    let mut engine = Engine::with_seed(world, seed);
    let svc = create_service_driven(&mut engine, web_spec(3), "webco").unwrap();
    engine.run_until(SimTime::from_secs(60));
    let t0 = engine.now();
    PoissonGenerator {
        service: svc,
        dataset_bytes: 30_000,
        rate_rps: 25.0,
        start: t0,
        end: t0 + SimDuration::from_secs(20),
    }
    .start(&mut engine);
    engine.schedule_at(
        t0 + SimDuration::from_secs(5),
        move |w: &mut SodaWorld, ctx| {
            if let Some(node) = w.service_record(svc).and_then(|r| r.nodes.first().copied()) {
                attack_node(w, ctx, svc, node.vsn, FaultKind::Crash);
                let _ = revive_node(w, ctx, svc, node.vsn);
            }
        },
    );
    engine.run_until(t0 + SimDuration::from_secs(60));
    (engine, obs)
}

#[test]
fn observer_effect_same_trajectory_and_rng_state() {
    let (traj_off, events_off, rng_off, _) = scenario(2003, None);
    let (traj_on, events_on, rng_on, obs) = scenario(2003, Some(8192));
    assert!(!traj_off.is_empty(), "scenario must serve requests");
    assert_eq!(
        traj_on, traj_off,
        "obs must not perturb the request trajectory"
    );
    assert_eq!(events_on, events_off, "obs must not schedule engine events");
    assert_eq!(rng_on, rng_off, "obs must not draw randomness");
    // And the enabled run actually observed something.
    let obs = obs.unwrap();
    let timeline = obs.drain_events().unwrap();
    assert!(
        timeline.events.len() > 50,
        "rich scenario yields a rich timeline"
    );
    let kinds: std::collections::BTreeSet<&str> =
        timeline.events.iter().map(|e| e.event.kind()).collect();
    for expected in [
        "admission_decision",
        "placement_decision",
        "boot_phase_entered",
        "boot_phase_completed",
        "switch_created",
        "request_dispatched",
        "request_completed",
        "vsn_crash",
    ] {
        assert!(kinds.contains(expected), "missing {expected} in {kinds:?}");
    }
    // The log is recording-ordered; retroactively replayed bootstrap
    // windows from different nodes may interleave in wall-clock terms,
    // so the virtual-time view is obtained by sorting on (time, seq).
    let mut sorted = timeline.events.clone();
    sorted.sort_by_key(|e| (e.time, e.seq));
    assert_eq!(sorted[0].event.kind(), "admission_decision");
    assert_eq!(sorted[0].time, SimTime::ZERO);
    // In the sorted view every boot phase is entered before it
    // completes.
    let mut open: std::collections::HashSet<(u64, &str)> = std::collections::HashSet::new();
    for e in &sorted {
        match e.event {
            soda::sim::Event::BootPhaseEntered { vsn, phase, .. } => {
                assert!(open.insert((vsn, phase)), "double enter {vsn}/{phase}");
            }
            soda::sim::Event::BootPhaseCompleted { vsn, phase, .. } => {
                assert!(
                    open.remove(&(vsn, phase)),
                    "complete without enter {vsn}/{phase}"
                );
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "unfinished boot phases: {open:?}");
}

#[test]
fn disabled_obs_observes_nothing() {
    let obs = Obs::disabled();
    assert!(!obs.is_enabled());
    assert!(obs.snapshot().is_none());
    assert!(obs.drain_events().is_none());
    assert!(obs.with(|_| ()).is_none());
}

#[test]
fn request_lifecycle_spans_cover_queue_service_response() {
    let (engine, obs) = scenario_engine(7, Some(4096));
    let obs = obs.unwrap();
    let world = engine.state();
    let count = |scope: &'static str, op: &'static str| {
        obs.merged_histogram(scope, op).map_or(0, |h| h.count())
    };
    for op in ["queue", "guest_service", "response"] {
        assert!(count("request", op) > 0, "no {op} spans recorded");
    }
    // One response span per served request; queue and guest_service
    // are recorded together as a request enters its CPU stage.
    assert_eq!(count("request", "response"), world.completed.len() as u64);
    assert_eq!(count("request", "queue"), count("request", "guest_service"));
    // Master pipeline and daemon bootstrap phases are span-covered: one
    // admission and one switch for the one service, one priming per
    // node the Master placed (the revival re-primes and opens none).
    assert_eq!(world.creations.len(), 1);
    let placed = world.creations[0].reply.nodes.len() as u64;
    assert_eq!(count("master", "admission"), 1);
    assert_eq!(count("master", "priming"), placed);
    assert_eq!(count("master", "switch_creation"), 1);
    for phase in [
        "customize",
        "mount",
        "kernel_boot",
        "services_start",
        "app_start",
    ] {
        assert!(count("daemon", phase) > 0, "no daemon/{phase} spans");
    }
    assert_eq!(
        priming_nodes(&world.daemons),
        0,
        "no node may stay priming after the run"
    );
    obs.with(|inner| {
        // Span durations feed per-operation latency histograms.
        let h = inner
            .registry
            .histogram("request", "response", Labels::two("service", 1, "vsn", 1))
            .or_else(|| {
                inner
                    .registry
                    .histogram("request", "response", Labels::two("service", 1, "vsn", 2))
            })
            .expect("response latency histogram exists");
        assert!(h.count() > 0);
        assert!(h.mean() > 0.0, "response latency must be positive");
    })
    .unwrap();
}

#[test]
fn registry_snapshot_roundtrips_through_json() {
    let (_, _, _, obs) = scenario(11, Some(4096));
    let obs = obs.unwrap();
    let snap = obs.snapshot().unwrap();
    let text = serde_json::to_string_pretty(&snap).unwrap();
    let parsed = serde_json::from_str(&text).unwrap();
    assert_eq!(
        serde_json::to_value(&snap),
        parsed,
        "snapshot JSON must round-trip"
    );
    // Labeled samples survive with their labels intact.
    let dispatched = snap
        .find("switch.dispatched", &[("service", 1), ("vsn", 1)])
        .or_else(|| snap.find("switch.dispatched", &[("service", 1), ("vsn", 2)]))
        .expect("per-backend dispatch counter present");
    assert!(text.contains("switch.dispatched"));
    assert!(dispatched.labels.iter().any(|(k, _)| k == "service"));
}

#[test]
fn timeline_serializes_with_kind_and_severity() {
    let (_, _, _, obs) = scenario(13, Some(2048));
    let timeline = obs.unwrap().drain_events().unwrap();
    let text = serde_json::to_string_pretty(&timeline).unwrap();
    let parsed = serde_json::from_str(&text).unwrap();
    assert_eq!(
        serde_json::to_value(&timeline),
        parsed,
        "timeline JSON must round-trip"
    );
    assert!(text.contains("\"kind\": \"request_dispatched\""));
    assert!(text.contains("\"severity\": \"INFO\""));
}

// ---------------------------------------------------------------------
// Property: every priming the Master begins ends in one span.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    Create { instances: u32 },
    CreateFailFirst { instances: u32 },
    Resize { which: usize, new_instances: u32 },
    Teardown { which: usize },
    CrashNode { which: usize },
    Migrate { which: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..5).prop_map(|instances| Op::Create { instances }),
        (1u32..5).prop_map(|instances| Op::CreateFailFirst { instances }),
        (0usize..8, 1u32..6).prop_map(|(which, new_instances)| Op::Resize {
            which,
            new_instances
        }),
        (0usize..8).prop_map(|which| Op::Teardown { which }),
        (0usize..8).prop_map(|which| Op::CrashNode { which }),
        (0usize..8).prop_map(|which| Op::Migrate { which }),
    ]
}

fn testbed() -> Vec<SodaDaemon> {
    vec![
        SodaDaemon::new(HupHost::seattle(
            HostId(1),
            IpPool::new("10.0.0.0".parse().unwrap(), 16),
        )),
        SodaDaemon::new(HupHost::tacoma(
            HostId(2),
            IpPool::new("10.0.1.0".parse().unwrap(), 16),
        )),
        SodaDaemon::new(HupHost::seattle(
            HostId(3),
            IpPool::new("10.0.2.0".parse().unwrap(), 16),
        )),
    ]
}

fn prop_spec(n: u32, i: usize) -> ServiceSpec {
    ServiceSpec {
        name: format!("svc{i}"),
        ..web_spec(n)
    }
}

proptest! {
    #[test]
    fn master_ops_leave_no_node_priming(ops in proptest::collection::vec(op_strategy(), 1..32)) {
        let mut master = SodaMaster::new();
        master.set_obs(Obs::enabled(1 << 14));
        let mut daemons = testbed();
        let mut live: Vec<ServiceId> = Vec::new();
        // Primings the Master began, counted from what each call hands
        // back: one node per reply node, ticket or migration.
        let mut begun = 0u64;
        let now = SimTime::ZERO;
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Create { instances } => {
                    if let Ok(reply) =
                        master.create_service_now(prop_spec(instances, i), "asp", &mut daemons, now)
                    {
                        begun += reply.nodes.len() as u64;
                        live.push(reply.service);
                    }
                }
                Op::CreateFailFirst { instances } => {
                    // The first node's priming fails: the Master scrubs
                    // it while it is still priming, the rest boot.
                    if let Ok(outcome) =
                        master.admit(prop_spec(instances, i), "asp", &mut daemons, now)
                    {
                        begun += outcome.tickets.len() as u64;
                        let svc = outcome.service;
                        let mut tickets = outcome.tickets.into_iter();
                        if let Some((_, failed)) = tickets.next() {
                            master
                                .remove_node(svc, failed.vsn, &mut daemons, now)
                                .expect("placed node is removable");
                        }
                        let mut running = false;
                        for (_, ticket) in tickets {
                            running = master
                                .node_ready(svc, ticket.vsn, &mut daemons, now, SimDuration::ZERO)
                                .expect("placed node becomes ready")
                                .is_some();
                        }
                        if running {
                            live.push(svc);
                        }
                    }
                }
                Op::Resize { which, new_instances } => {
                    if let Some(&svc) = live.get(which % live.len().max(1)) {
                        if let Ok(outcome) = master.resize(svc, new_instances, &mut daemons, now) {
                            begun += outcome.tickets.len() as u64;
                            // Drive every freshly placed node to ready so
                            // its priming span closes (the driven layer
                            // does this via scheduled callbacks).
                            for (_, ticket) in outcome.tickets {
                                master
                                    .node_ready(svc, ticket.vsn, &mut daemons, now, SimDuration::ZERO)
                                    .expect("placed node becomes ready");
                            }
                        }
                    }
                }
                Op::Teardown { which } => {
                    if !live.is_empty() {
                        let svc = live.remove(which % live.len());
                        master.teardown(svc, &mut daemons).expect("live teardown succeeds");
                    }
                }
                Op::CrashNode { which } => {
                    if let Some(&svc) = live.get(which % live.len().max(1)) {
                        let node = master.service(svc).and_then(|r| r.nodes.first().copied());
                        if let Some(node) = node {
                            if let Some(d) = daemons.iter_mut().find(|d| d.host.id == node.host) {
                                if d.vsn(node.vsn).is_some_and(|v| v.is_running()) {
                                    d.crash_vsn(node.vsn, now).expect("running node crashes");
                                    master.node_crashed(svc, node.vsn);
                                }
                            }
                        }
                    }
                }
                Op::Migrate { which } => {
                    if let Some(&svc) = live.get(which % live.len().max(1)) {
                        let node = master.service(svc).and_then(|r| r.nodes.first().copied());
                        if let Some(node) = node {
                            let target = daemons
                                .iter()
                                .map(|d| d.host.id)
                                .find(|&h| h != node.host);
                            if let Some(target) = target {
                                if let Ok(mig) =
                                    master.migrate(svc, node.vsn, target, &mut daemons, now)
                                {
                                    begun += 1;
                                    master
                                        .complete_migration(&mig, &mut daemons, now)
                                        .expect("migration completes");
                                }
                            }
                        }
                    }
                }
            }
            // The invariant under test: after every completed API call,
            // no node is left priming, and every priming the Master
            // began closed into exactly one `master.priming` span.
            prop_assert_eq!(priming_nodes(&daemons), 0, "node left priming after op {}", i);
            prop_assert_eq!(
                priming_spans(master.obs()),
                begun,
                "master.priming spans after op {}", i
            );
        }
    }
}

/// The same scenario with causal tracing (1-in-`sample_one_in`
/// deterministic head sampling) and the engine self-profiler switched
/// on — the two observability layers added on top of events, spans and
/// metrics. Returns the trajectory, event count, RNG probe, the obs
/// handle, and the profiler's per-kind cost table.
fn scenario_traced(
    seed: u64,
    sample_one_in: u64,
) -> (Vec<(u64, u64)>, u64, u64, Obs, Vec<soda::sim::ProfileEntry>) {
    let mut world = SodaWorld::testbed();
    let obs = world.enable_obs(8192);
    obs.enable_tracing(seed ^ 0x50DA, sample_one_in, 1 << 12);
    let mut engine = Engine::with_seed(world, seed);
    engine.enable_profiler();
    let svc = create_service_driven(&mut engine, web_spec(3), "webco").unwrap();
    engine.run_until(SimTime::from_secs(60));
    let t0 = engine.now();
    PoissonGenerator {
        service: svc,
        dataset_bytes: 30_000,
        rate_rps: 25.0,
        start: t0,
        end: t0 + SimDuration::from_secs(20),
    }
    .start(&mut engine);
    engine.schedule_at(
        t0 + SimDuration::from_secs(5),
        move |w: &mut SodaWorld, ctx| {
            if let Some(node) = w.service_record(svc).and_then(|r| r.nodes.first().copied()) {
                attack_node(w, ctx, svc, node.vsn, FaultKind::Crash);
                let _ = revive_node(w, ctx, svc, node.vsn);
            }
        },
    );
    engine.run_until(t0 + SimDuration::from_secs(60));
    let traj: Vec<(u64, u64)> = engine
        .state()
        .completed
        .iter()
        .map(|r| (r.issued.as_nanos(), r.completed.as_nanos()))
        .collect();
    let events = engine.events_executed();
    let profile = engine.profile_report();
    let rng_probe = engine.rng_mut().next_u64();
    (traj, events, rng_probe, obs, profile)
}

/// Tracing and self-profiling are the newest observability layers and
/// ride the hottest paths (request issue, switch routing, NIC
/// completion, every engine dispatch). Switching both on must leave the
/// run bit-identical to running fully dark: the sampler is a pure hash,
/// the profiler only reads the wall clock around dispatch, and neither
/// schedules events or draws simulation randomness.
#[test]
fn tracing_and_profiling_are_observer_transparent() {
    let (traj_dark, events_dark, rng_dark, _) = scenario(31, None);
    let (traj_lit, events_lit, rng_lit, obs, profile) = scenario_traced(31, 2);
    assert!(!traj_dark.is_empty(), "scenario must serve requests");
    assert_eq!(
        traj_lit, traj_dark,
        "tracing + profiling must not perturb the request trajectory"
    );
    assert_eq!(
        events_lit, events_dark,
        "tracing + profiling must not schedule engine events"
    );
    assert_eq!(
        rng_lit, rng_dark,
        "tracing + profiling must not draw randomness"
    );
    // The traced run really traced: 1-in-2 sampling keeps some request
    // keys and declines others, deterministically.
    obs.with(|inner| {
        assert!(!inner.tracer.is_empty(), "sampler must keep some traces");
        assert!(
            inner.tracer.unsampled() > 0,
            "1-in-2 sampling must decline some keys"
        );
    })
    .unwrap();
    // And the profiler really profiled: every dispatched event is
    // attributed to exactly one kind, so the per-kind counts sum to the
    // engine's executed-event count.
    let attributed: u64 = profile.iter().map(|e| e.count).sum();
    assert_eq!(
        attributed, events_lit,
        "profiler must attribute every dispatched event"
    );
    for kind in ["client_arrival", "cpu_done", "nic_pump", "response_depart"] {
        assert!(
            profile.iter().any(|e| e.kind == kind && e.count > 0),
            "missing hot event kind {kind} in {profile:?}"
        );
    }
}

/// The event ring's drop accounting is exact: sequence numbers are
/// assigned at push, so the last retained sequence number pins the
/// total ever recorded, which must equal retained + dropped.
#[test]
fn event_log_overflow_accounting_is_exact() {
    let (_, _, _, obs) = scenario(17, Some(64));
    let obs = obs.unwrap();
    let drained = obs.drain_events().unwrap();
    assert_eq!(
        drained.events.len(),
        64,
        "ring retains exactly its capacity"
    );
    assert!(
        drained.dropped > 0,
        "rich scenario overflows a 64-slot ring"
    );
    let last_seq = drained.events.last().unwrap().seq;
    assert_eq!(
        last_seq + 1,
        drained.dropped + drained.events.len() as u64,
        "every recorded event is either retained or counted as dropped"
    );
    // What survives is the most recent window, still in record order.
    let seqs: Vec<u64> = drained.events.iter().map(|e| e.seq).collect();
    assert!(
        seqs.windows(2).all(|w| w[1] == w[0] + 1),
        "retained window must be contiguous"
    );
}

/// Under chaos — node crashes mid-load, revival, and a flood on the
/// switch host — every sampled trace still resolves: requests severed
/// by the crash close their root at the drop instant instead of
/// leaking an open span, and every span inside a finished trace is
/// closed. For request traces the phases stay contiguous, so they sum
/// exactly to the root's duration even when that root ended in a drop.
#[test]
fn trace_spans_balance_under_chaos() {
    use soda::core::world::ddos_switch_host;

    let mut world = SodaWorld::testbed();
    let obs = world.enable_obs(8192);
    // Keep every key: the point is the crash/drop paths, not sampling.
    obs.enable_tracing(0xC4A05, 1, 1 << 14);
    let mut engine = Engine::with_seed(world, 909);
    let svc = create_service_driven(&mut engine, web_spec(3), "webco").unwrap();
    engine.run_until(SimTime::from_secs(60));
    let t0 = engine.now();
    PoissonGenerator {
        service: svc,
        dataset_bytes: 60_000,
        rate_rps: 60.0,
        start: t0,
        end: t0 + SimDuration::from_secs(15),
    }
    .start(&mut engine);
    // Crash a node mid-load (cancelling its in-flight responses), then
    // revive it; pile a flood onto the switch host for good measure.
    for (i, at) in [3u64, 7, 11].into_iter().enumerate() {
        engine.schedule_at(
            t0 + SimDuration::from_secs(at),
            move |w: &mut SodaWorld, ctx| {
                let node = w
                    .service_record(svc)
                    .and_then(|r| r.nodes.get(i % 2).copied());
                if let Some(node) = node {
                    attack_node(w, ctx, svc, node.vsn, FaultKind::Crash);
                    let _ = revive_node(w, ctx, svc, node.vsn);
                }
                ddos_switch_host(w, ctx, svc, 6, 2_000_000);
            },
        );
    }
    // Run far past the load window so nothing is legitimately in flight.
    engine.run_until(t0 + SimDuration::from_secs(120));
    let w = engine.state();
    assert!(w.dropped > 0, "the crashes must sever some requests");
    assert!(!w.completed.is_empty(), "the service must still serve");
    obs.with(|inner| {
        assert!(inner.tracer.len() > 10, "traces were kept");
        let mut request_tracks = 0;
        for rec in inner.tracer.traces() {
            assert!(
                rec.is_finished(),
                "trace {}/{} (key {}) left its root open",
                rec.track,
                rec.id.0,
                rec.key
            );
            for (i, span) in rec.spans.iter().enumerate() {
                assert!(
                    span.end.is_some(),
                    "span {i} ({}) of trace {} never closed",
                    span.name,
                    rec.id.0
                );
            }
            if rec.track == "request" {
                request_tracks += 1;
                let root = rec.root();
                let total = root.end.unwrap().saturating_since(root.start).as_nanos();
                let sum: u64 = rec
                    .phases()
                    .iter()
                    .map(|s| s.end.unwrap().saturating_since(s.start).as_nanos())
                    .sum();
                assert!(
                    sum <= total,
                    "phases overrun the root on trace {}",
                    rec.id.0
                );
            }
        }
        assert!(request_tracks > 0, "request traces present");
    })
    .unwrap();
    // The aggregate spans close under chaos too: no node is left
    // priming, and each node the Master placed closed one priming span
    // (revivals re-prime and open none).
    assert_eq!(priming_nodes(&w.daemons), 0, "no node may stay priming");
    assert_eq!(w.creations.len(), 1);
    assert_eq!(priming_spans(&obs), w.creations[0].reply.nodes.len() as u64);
}

/// The generation-stamped NIC wakeup protocol drops superseded pump
/// events on arrival and counts the drops in an interned metric. The
/// counter is pure observation: the same seed produces the same count
/// across runs, and running dark (obs off) — where the drops still
/// happen but nothing is counted — leaves the request trajectory
/// bit-identical.
#[test]
fn stale_nic_wakeup_counter_is_observer_transparent() {
    use soda::core::world::ddos_switch_host;

    let run = |obs: bool| -> (Vec<(u64, u64)>, u64, u64) {
        let mut world = SodaWorld::testbed();
        if obs {
            world.enable_obs(1024);
        }
        let mut engine = Engine::with_seed(world, 1303);
        let svc = create_service_driven(&mut engine, web_spec(3), "webco").unwrap();
        engine.run_until(SimTime::from_secs(60));
        let t0 = engine.now();
        // Overlapping response flows: every flow that lands on a busy
        // NIC moves the next completion and stales the armed wakeup.
        PoissonGenerator {
            service: svc,
            dataset_bytes: 200_000,
            rate_rps: 120.0,
            start: t0,
            end: t0 + SimDuration::from_secs(10),
        }
        .start(&mut engine);
        // And a burst of flood flows added back-to-back at one instant —
        // each add re-arms the pump, staling the previous wakeup.
        engine.schedule_at(
            t0 + SimDuration::from_secs(2),
            move |w: &mut SodaWorld, ctx| {
                ddos_switch_host(w, ctx, svc, 10, 5_000_000);
            },
        );
        engine.run_until(t0 + SimDuration::from_secs(60));
        let w = engine.state();
        let traj: Vec<(u64, u64)> = w
            .completed
            .iter()
            .map(|r| (r.issued.as_nanos(), r.completed.as_nanos()))
            .collect();
        (
            traj,
            engine.events_executed(),
            engine.state().stale_nic_wakeups(),
        )
    };

    let (traj_a, events_a, stale_a) = run(true);
    let (traj_b, events_b, stale_b) = run(true);
    let (traj_dark, events_dark, stale_dark) = run(false);
    assert!(!traj_a.is_empty(), "scenario must serve requests");
    assert!(stale_a > 0, "contended NICs must shed stale wakeups");
    assert_eq!(stale_a, stale_b, "the stale count is deterministic");
    assert_eq!(traj_a, traj_b, "same seed, same trajectory");
    assert_eq!(events_a, events_b);
    assert_eq!(
        traj_a, traj_dark,
        "counting stale wakeups must not perturb the trajectory"
    );
    assert_eq!(events_a, events_dark, "same engine events dark or lit");
    assert_eq!(stale_dark, 0, "obs off counts nothing");
}

/// The observer effect holds through a full Master failover: crashing
/// the control plane and replaying the journal with instrumentation on
/// must not perturb the trajectory, the engine event count, or the RNG
/// state — and the enabled run records the whole failover arc (typed
/// events plus the `master_failovers` counter).
#[test]
fn observer_effect_holds_through_master_failover() {
    fn failover_scenario(
        seed: u64,
        obs_capacity: Option<usize>,
    ) -> (Vec<(u64, u64)>, u64, u64, Option<Obs>) {
        use soda::core::recovery::{self, RecoveryConfig};
        use soda::core::world::apply_fault;
        use soda::sim::FaultSpec;

        let mut world = SodaWorld::testbed();
        let obs = obs_capacity.map(|c| world.enable_obs(c));
        let mut engine = Engine::with_seed(world, seed);
        let svc = create_service_driven(&mut engine, web_spec(3), "webco").unwrap();
        engine.run_until(SimTime::from_secs(60));
        recovery::start_self_healing(
            &mut engine,
            RecoveryConfig::default(),
            SimTime::from_secs(180),
        );
        let t0 = engine.now();
        PoissonGenerator {
            service: svc,
            dataset_bytes: 30_000,
            rate_rps: 25.0,
            start: t0,
            end: t0 + SimDuration::from_secs(40),
        }
        .start(&mut engine);
        engine.schedule_at(t0 + SimDuration::from_secs(10), |w: &mut SodaWorld, ctx| {
            apply_fault(w, ctx, FaultSpec::MasterCrash);
        });
        engine.run_until(t0 + SimDuration::from_secs(90));
        assert!(!engine.state().master_is_down(), "standby took over");
        assert_eq!(engine.state().failover.records.len(), 1);
        let traj: Vec<(u64, u64)> = engine
            .state()
            .completed
            .iter()
            .map(|r| (r.issued.as_nanos(), r.completed.as_nanos()))
            .collect();
        let events = engine.events_executed();
        let rng_probe = engine.rng_mut().next_u64();
        (traj, events, rng_probe, obs)
    }

    let (traj_off, events_off, rng_off, _) = failover_scenario(4007, None);
    let (traj_on, events_on, rng_on, obs) = failover_scenario(4007, Some(1 << 14));
    assert!(!traj_off.is_empty(), "scenario must serve requests");
    assert_eq!(
        traj_on, traj_off,
        "obs must not perturb the trajectory through a failover"
    );
    assert_eq!(events_on, events_off, "obs must not schedule engine events");
    assert_eq!(rng_on, rng_off, "obs must not draw randomness");

    let obs = obs.unwrap();
    obs.with(|inner| {
        assert_eq!(
            inner
                .registry
                .counter("world", "master_failovers", Labels::none()),
            Some(1),
            "takeover increments the failover counter"
        );
    });
    let timeline = obs.drain_events().unwrap();
    let kinds: std::collections::BTreeSet<&str> =
        timeline.events.iter().map(|e| e.event.kind()).collect();
    for expected in ["master_down", "journal_replayed", "master_recovered"] {
        assert!(kinds.contains(expected), "missing {expected} in {kinds:?}");
    }
    // The arc is ordered: down strictly before replay, replay no later
    // than the recovered mark.
    let at = |kind: &str| {
        timeline
            .events
            .iter()
            .find(|e| e.event.kind() == kind)
            .map(|e| (e.time, e.seq))
            .unwrap()
    };
    assert!(at("master_down") < at("journal_replayed"));
    assert!(at("journal_replayed") <= at("master_recovered"));
}

/// `(labels, count)` of every `request.<op>` histogram in a snapshot.
fn request_span_counts(obs: &Obs, op: &str) -> Vec<(Vec<(String, u64)>, u64)> {
    let name = format!("request.{op}");
    obs.snapshot()
        .unwrap()
        .samples
        .into_iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            MetricValue::Histogram { count, .. } => (s.labels, count),
            other => panic!("{name} is not a histogram: {other:?}"),
        })
        .collect()
}

/// The per-VSN request-span handles record into the right histograms:
/// one `request.response` sample per completed request, summed over
/// every `{service, vsn}`, and one `request.queue` per
/// `request.guest_service` on every VSN (the two are recorded together
/// when a request enters its CPU stage).
#[test]
fn interned_request_spans_count_every_request() {
    let (traj, _, _, obs) = scenario(7, Some(4096));
    let obs = obs.unwrap();
    let responses = request_span_counts(&obs, "response");
    assert!(responses.len() > 1, "several backends served requests");
    let total: u64 = responses.iter().map(|(_, n)| n).sum();
    assert_eq!(total, traj.len() as u64, "one response span per request");
    let queue = request_span_counts(&obs, "queue");
    assert!(!queue.is_empty());
    assert_eq!(queue, request_span_counts(&obs, "guest_service"));
    for (labels, _) in queue.iter().chain(&responses) {
        let keys: Vec<&str> = labels.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["service", "vsn"]);
    }
}

/// Re-enabling observability mid-run swaps the registry under the
/// world's cached request-span handles. Later requests must land in
/// the new registry and the old one must stop growing: a stale handle
/// would index the new registry's slot table (a panic or a record into
/// the wrong metric) or keep feeding the old one.
#[test]
fn enable_obs_twice_moves_request_spans_to_the_new_registry() {
    let mut world = SodaWorld::testbed();
    let first = world.enable_obs(4096);
    let mut engine = Engine::with_seed(world, 7);
    let svc = create_service_driven(&mut engine, web_spec(3), "webco").unwrap();
    engine.run_until(SimTime::from_secs(60));
    let t0 = engine.now();
    PoissonGenerator {
        service: svc,
        dataset_bytes: 30_000,
        rate_rps: 25.0,
        start: t0,
        end: t0 + SimDuration::from_secs(20),
    }
    .start(&mut engine);
    engine.run_until(t0 + SimDuration::from_secs(10));
    let served_before = engine.state().completed.len() as u64;
    assert!(served_before > 0, "requests served before the switch");

    let second = engine.state_mut().enable_obs(4096);
    let frozen = [
        request_span_counts(&first, "queue"),
        request_span_counts(&first, "guest_service"),
        request_span_counts(&first, "response"),
    ];
    engine.run_until(t0 + SimDuration::from_secs(60));
    let served = engine.state().completed.len() as u64;
    assert!(served > served_before, "requests served after the switch");

    let after = [
        request_span_counts(&first, "queue"),
        request_span_counts(&first, "guest_service"),
        request_span_counts(&first, "response"),
    ];
    assert_eq!(after, frozen, "the old registry must stop growing");
    let sum = |counts: &[(Vec<(String, u64)>, u64)]| counts.iter().map(|(_, n)| n).sum::<u64>();
    assert_eq!(sum(&frozen[2]), served_before);
    assert_eq!(
        sum(&request_span_counts(&second, "response")),
        served - served_before,
        "every later response lands in the new registry"
    );
    assert!(sum(&request_span_counts(&second, "queue")) > 0);
}

/// Re-enabling observability mid-load must drop the world's cached
/// trace refs along with its metric handles: a ref indexes the tracer
/// that issued it, so a stale `TraceId(k)` would resolve to the new
/// tracer's k-th trace — appending a second `response_transfer` to
/// another request's tree and closing its root early.
#[test]
fn enable_obs_twice_drops_stale_trace_refs() {
    let mut world = SodaWorld::testbed();
    let first = world.enable_obs(4096);
    let mut engine = Engine::with_seed(world, 7);
    let svc = create_service_driven(&mut engine, web_spec(3), "webco").unwrap();
    engine.run_until(SimTime::from_secs(60));
    let t0 = engine.now();
    // Megabyte responses keep requests in flight well past the switch.
    PoissonGenerator {
        service: svc,
        dataset_bytes: 1_000_000,
        rate_rps: 20.0,
        start: t0,
        end: t0 + SimDuration::from_secs(10),
    }
    .start(&mut engine);
    // Both tracers keep every key and number their traces from zero.
    first.enable_tracing(0x7ACE, 1, 1 << 12);
    engine.run_until(t0 + SimDuration::from_millis(300));
    let switch = engine.now();
    let second = engine.state_mut().enable_obs(4096);
    second.enable_tracing(0x7ACE, 1, 1 << 12);
    engine.run_until(t0 + SimDuration::from_secs(60));
    let straddling = engine
        .state()
        .completed
        .iter()
        .filter(|r| r.issued < switch && r.completed > switch)
        .count();
    assert!(straddling > 0, "requests must be in flight at the switch");
    second
        .with(|inner| {
            assert!(inner.tracer.len() > 10, "the new tracer kept traces");
            for rec in inner.tracer.traces() {
                let root = rec.root();
                let mut names = std::collections::BTreeSet::new();
                for phase in rec.phases() {
                    assert!(
                        names.insert(phase.name),
                        "trace {} has phase {} twice",
                        rec.id.0,
                        phase.name
                    );
                }
                for span in &rec.spans[1..] {
                    assert!(
                        span.start >= root.start,
                        "span {} of trace {} starts before its root",
                        span.name,
                        rec.id.0
                    );
                }
            }
        })
        .unwrap();
}

/// A priming that straddles `enable_obs` is still measured: its start
/// lives on the VSN, not in the observability domain, so the node's
/// `master.priming` span closes into the new registry when it boots.
#[test]
fn priming_across_enable_obs_is_measured() {
    let mut world = SodaWorld::testbed();
    let first = world.enable_obs(4096);
    let mut engine = Engine::with_seed(world, 7);
    create_service_driven(&mut engine, web_spec(3), "webco").unwrap();
    // Switch domains while the image downloads are still in flight.
    engine.run_until(SimTime::from_secs(1));
    let running = |w: &SodaWorld| {
        w.daemons
            .iter()
            .flat_map(|d| d.vsns())
            .filter(|v| v.is_running())
            .count() as u64
    };
    let booted_before = running(engine.state());
    assert!(priming_nodes(&engine.state().daemons) > 0, "nodes priming");
    let second = engine.state_mut().enable_obs(4096);
    engine.run_until(SimTime::from_secs(60));
    let booted_after = running(engine.state()) - booted_before;
    assert!(booted_after > 0, "nodes booted after the switch");
    assert_eq!(priming_nodes(&engine.state().daemons), 0);
    assert_eq!(priming_spans(&first), booted_before);
    assert_eq!(
        priming_spans(&second),
        booted_after,
        "every node that booted after the switch closes its priming span"
    );
}
