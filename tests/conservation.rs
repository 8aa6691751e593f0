//! Request conservation across the whole pipeline: every submitted
//! request either completes or is counted as dropped — none vanish in
//! the switch, the CPU stage, the shaper, or the NIC — across a grid of
//! seeds, loads and perturbations (crashes mid-flight, floods); and no
//! response leaves the shaper of a crashed node or a partitioned host.

use proptest::prelude::*;
use soda::core::service::ServiceSpec;
use soda::core::world::{
    apply_fault, attack_node, create_service_driven, ddos_switch_host, repair_host, submit_request,
    submit_request_direct, submit_request_with_callback, teardown_service, SodaWorld,
};
use soda::hostos::resources::ResourceVector;
use soda::hup::daemon::daemon_for_mut;
use soda::hup::host::HostId;
use soda::sim::{Engine, FaultSpec, SimDuration, SimTime};
use soda::vmm::isolation::FaultKind;
use soda::vmm::rootfs::RootFsCatalog;
use soda::vmm::sysservices::StartupClass;
use soda::vmm::vsn::VsnId;
use soda::workload::httpgen::PoissonGenerator;

fn web_spec(n: u32) -> ServiceSpec {
    ServiceSpec {
        name: "web".into(),
        image: RootFsCatalog::new().base_1_0(),
        required_services: vec!["network", "syslogd"],
        app_class: StartupClass::Light,
        instances: n,
        machine: ResourceVector::TABLE1_EXAMPLE,
        port: 8080,
    }
}

#[test]
fn conservation_under_clean_load() {
    for seed in [1u64, 7, 42, 1234] {
        let mut engine = Engine::with_seed(SodaWorld::testbed(), seed);
        let svc = create_service_driven(&mut engine, web_spec(3), "a").unwrap();
        engine.run_until(SimTime::from_secs(120));
        let t0 = engine.now();
        let rate = 10.0 + (seed % 4) as f64 * 15.0;
        PoissonGenerator {
            service: svc,
            dataset_bytes: 10_000 + (seed % 5) * 20_000,
            rate_rps: rate,
            start: t0,
            end: t0 + SimDuration::from_secs(60),
        }
        .start(&mut engine);
        engine.run_until(t0 + SimDuration::from_secs(600));
        let w = engine.state();
        let served: u64 = w.switch_for(svc).unwrap().served_counts().iter().sum();
        assert_eq!(w.completed.len() as u64, served, "seed {seed}");
        assert_eq!(w.dropped, 0, "seed {seed}: clean run drops nothing");
        // No backend still believes something is outstanding.
        for b in w.switch_for(svc).unwrap().backends() {
            assert_eq!(b.outstanding, 0, "seed {seed}");
        }
    }
}

#[test]
fn conservation_under_crash_and_flood() {
    for seed in [3u64, 9] {
        let mut engine = Engine::with_seed(SodaWorld::testbed(), seed);
        let svc = create_service_driven(&mut engine, web_spec(3), "a").unwrap();
        engine.run_until(SimTime::from_secs(120));
        let t0 = engine.now();
        // Count every submission explicitly via callbacks.
        let submitted = 400u64;
        for i in 0..submitted {
            engine.schedule_at(
                t0 + SimDuration::from_millis(25 * i),
                move |w: &mut SodaWorld, ctx| {
                    submit_request_with_callback(w, ctx, svc, 30_000, None);
                },
            );
        }
        // Mid-run: crash the seattle node and flood the switch host.
        let vsn = engine.state().service_record(svc).unwrap().nodes[0].vsn;
        engine.schedule_at(
            t0 + SimDuration::from_secs(4),
            move |w: &mut SodaWorld, ctx| {
                attack_node(w, ctx, svc, vsn, FaultKind::Crash);
                ddos_switch_host(w, ctx, svc, 5, 5_000_000);
            },
        );
        engine.run_until(t0 + SimDuration::from_secs(900));
        let w = engine.state();
        assert_eq!(
            w.completed.len() as u64 + w.dropped,
            submitted,
            "seed {seed}: completed {} + dropped {} != {submitted}",
            w.completed.len(),
            w.dropped
        );
        for b in w.switch_for(svc).unwrap().backends() {
            assert_eq!(b.outstanding, 0, "seed {seed}: in-flight must drain");
        }
    }
}

#[test]
fn callbacks_fire_exactly_once_per_request() {
    let mut engine = Engine::with_seed(SodaWorld::testbed(), 5);
    let svc = create_service_driven(&mut engine, web_spec(1), "a").unwrap();
    engine.run_until(SimTime::from_secs(120));
    let t0 = engine.now();
    // A shared counter via the world's trace is awkward; count through a
    // static-free trick: schedule follow-up submissions from callbacks
    // and verify the chain length.
    const CHAIN: u64 = 25;
    fn chain(
        w: &mut SodaWorld,
        ctx: &mut soda::sim::Ctx<SodaWorld>,
        svc: soda::core::service::ServiceId,
        left: u64,
    ) {
        if left == 0 {
            return;
        }
        submit_request_with_callback(
            w,
            ctx,
            svc,
            5_000,
            Some(Box::new(move |w, ctx, outcome| {
                assert!(outcome.is_some(), "healthy service must serve");
                chain(w, ctx, svc, left - 1);
            })),
        );
    }
    engine.schedule_at(t0, move |w: &mut SodaWorld, ctx| chain(w, ctx, svc, CHAIN));
    engine.run_until(t0 + SimDuration::from_secs(300));
    assert_eq!(engine.state().completed.len() as u64, CHAIN);
    // And one plain request still works alongside.
    let t1 = engine.now();
    engine.schedule_at(t1, move |w: &mut SodaWorld, ctx| {
        submit_request(w, ctx, svc, 1_000)
    });
    engine.run_until(t1 + SimDuration::from_secs(30));
    assert_eq!(engine.state().completed.len() as u64, CHAIN + 1);
}

#[test]
fn dropped_request_callback_gets_none() {
    let mut engine = Engine::with_seed(SodaWorld::testbed(), 6);
    let svc = create_service_driven(&mut engine, web_spec(1), "a").unwrap();
    engine.run_until(SimTime::from_secs(120));
    let vsn = engine.state().service_record(svc).unwrap().nodes[0].vsn;
    let t0 = engine.now();
    engine.schedule_at(t0, move |w: &mut SodaWorld, ctx| {
        attack_node(w, ctx, svc, vsn, FaultKind::Crash);
        submit_request_with_callback(
            w,
            ctx,
            svc,
            1_000,
            Some(Box::new(|w, _ctx, outcome| {
                assert!(outcome.is_none(), "crashed service must report the drop");
                // Mark observation by bumping a counter we can read.
                w.dropped += 100; // sentinel on top of the real drop count
            })),
        );
    });
    engine.run_until(t0 + SimDuration::from_secs(30));
    let w = engine.state();
    assert!(
        w.dropped >= 101,
        "callback ran with None: dropped={}",
        w.dropped
    );
    assert!(w.completed.is_empty());
}

/// One fault of [`fault_stops_every_response_it_should`]'s plan,
/// aimed at the node with index `node` (or at that node's host).
#[derive(Clone, Copy, Debug)]
enum PlannedFault {
    VsnCrash,
    HostCrash,
    HostRepair,
    /// A link partition of this many milliseconds.
    Partition(u64),
}

fn planned_fault() -> impl Strategy<Value = PlannedFault> {
    prop_oneof![
        Just(PlannedFault::VsnCrash),
        Just(PlannedFault::HostCrash),
        Just(PlannedFault::HostRepair),
        (100u64..8_000).prop_map(PlannedFault::Partition),
    ]
}

proptest! {
    /// Random interleavings of requests, slow shapers, crashes,
    /// partitions and repairs. Every request exits exactly once; no
    /// response completes if its node was gone, or its host
    /// partitioned, when the response left the shaper; and once the
    /// hosts are repaired, a fresh service serves from both of them.
    #[test]
    fn fault_stops_every_response_it_should(
        requests in proptest::collection::vec((0u64..12_000, 5_000u64..80_000), 1..60),
        faults in proptest::collection::vec((0u64..12_000, 0usize..2, planned_fault()), 0..6),
        quarter_mbps in (1u32..12, 1u32..12),
    ) {
        let mut world = SodaWorld::testbed();
        let obs = world.enable_obs(1 << 12);
        // Trace every request: its `response_transfer` span starts when
        // the response left the shaper.
        obs.enable_tracing(0x11FE, 1, 1 << 12);
        let mut engine = Engine::with_seed(world, 17);
        let svc = create_service_driven(&mut engine, web_spec(3), "a").unwrap();
        engine.run_until(SimTime::from_secs(120));
        let placed = &engine.state().service_record(svc).unwrap().nodes;
        prop_assert_eq!(placed.len(), 2);
        let nodes = [0, 1].map(|i| (placed[i].vsn, placed[i].host));
        prop_assert!(nodes[0].1 != nodes[1].1, "one node per host");
        let t0 = engine.now();
        // Faults land at odd nanoseconds so none ties with a departure.
        let at = |ms: u64| t0 + SimDuration::from_millis(ms) + SimDuration::from_nanos(333);
        let rates = [quarter_mbps.0, quarter_mbps.1];
        engine.schedule_at(t0, move |w: &mut SodaWorld, ctx| {
            for ((vsn, host), quarters) in nodes.iter().zip(rates) {
                let d = daemon_for_mut(&mut w.daemons, *host).unwrap();
                let ip = d.vsn(*vsn).unwrap().ip.unwrap();
                d.host.shaper.configure(
                    ip.as_u32(),
                    f64::from(quarters) / 4.0,
                    SimDuration::ZERO,
                    ctx.now(),
                );
            }
        });
        for &(ms, dataset) in &requests {
            engine.schedule_at(
                t0 + SimDuration::from_millis(ms),
                move |w: &mut SodaWorld, ctx| submit_request(w, ctx, svc, dataset),
            );
        }
        // When each node stops serving: its own crash or its host's.
        let mut dead_from = [SimTime::MAX; 2];
        let mut partitions: Vec<(HostId, SimTime, SimTime)> = Vec::new();
        for &(ms, node, fault) in &faults {
            let (vsn, host) = nodes[node];
            let t = at(ms);
            let spec = match fault {
                PlannedFault::VsnCrash => {
                    dead_from[node] = dead_from[node].min(t);
                    FaultSpec::VsnCrash { vsn: vsn.0 }
                }
                PlannedFault::HostCrash => {
                    for (i, n) in nodes.iter().enumerate() {
                        if n.1 == host {
                            dead_from[i] = dead_from[i].min(t);
                        }
                    }
                    FaultSpec::HostCrash { host: u64::from(host.0) }
                }
                PlannedFault::HostRepair => FaultSpec::HostRepair { host: u64::from(host.0) },
                PlannedFault::Partition(len) => {
                    let duration = SimDuration::from_millis(len);
                    partitions.push((host, t, t + duration));
                    FaultSpec::LinkPartition { host: u64::from(host.0), duration }
                }
            };
            engine.schedule_at(t, move |w: &mut SodaWorld, ctx| apply_fault(w, ctx, spec));
        }
        engine.run_until(t0 + SimDuration::from_secs(600));

        let w = engine.state();
        prop_assert_eq!(w.completed.len() as u64 + w.dropped, requests.len() as u64);
        prop_assert_eq!(w.staged_requests(), 0);
        prop_assert_eq!(w.open_requests(), 0);
        let departed: std::collections::BTreeMap<u64, SimTime> = obs
            .with(|inner| {
                inner
                    .tracer
                    .traces()
                    .iter()
                    .filter(|rec| rec.track == "request")
                    .filter_map(|rec| {
                        let span = rec.spans.iter().find(|s| s.name == "response_transfer")?;
                        Some((rec.key, span.start))
                    })
                    .collect()
            })
            .unwrap();
        for r in &w.completed {
            let node = nodes.iter().position(|n| n.0 == r.vsn).unwrap();
            let host = nodes[node].1;
            let left = departed[&r.request.0];
            prop_assert!(left < dead_from[node], "{:?} left a dead node at {left}", r.request);
            prop_assert!(
                !partitions.iter().any(|&(h, from, to)| h == host && from <= left && left < to),
                "{:?} left partitioned host {host:?} at {left}",
                r.request
            );
        }

        // Repair both hosts and rebuild the service: each host serves again.
        let t1 = engine.now();
        engine.schedule_at(t1, move |w: &mut SodaWorld, ctx| {
            for (_, host) in nodes {
                repair_host(w, host);
            }
            teardown_service(w, svc, ctx.now()).unwrap();
        });
        engine.run_until(t1 + SimDuration::from_secs(1));
        let fresh = create_service_driven(&mut engine, web_spec(3), "a").unwrap();
        engine.run_until(t1 + SimDuration::from_secs(120));
        let fresh_nodes: Vec<(VsnId, HostId)> = engine
            .state()
            .service_record(fresh)
            .unwrap()
            .nodes
            .iter()
            .map(|n| (n.vsn, n.host))
            .collect();
        let mut hosts: Vec<HostId> = fresh_nodes.iter().map(|n| n.1).collect();
        hosts.sort();
        prop_assert_eq!(hosts, vec![HostId(1), HostId(2)]);
        let served_before = engine.state().completed.len();
        let t2 = engine.now();
        engine.schedule_at(t2, move |w: &mut SodaWorld, ctx| {
            for (vsn, _) in &fresh_nodes {
                submit_request_direct(w, ctx, fresh, *vsn, 10_000);
            }
        });
        engine.run_until(t2 + SimDuration::from_secs(60));
        let w = engine.state();
        prop_assert_eq!(w.completed.len(), served_before + 2, "dropped {}", w.dropped);
    }
}
