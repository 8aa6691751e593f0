//! Request conservation across the whole pipeline: every submitted
//! request either completes or is counted as dropped — none vanish in
//! the switch, the CPU stage, the shaper, or the NIC — across a grid of
//! seeds, loads and perturbations (crashes mid-flight, floods).

use soda::core::service::ServiceSpec;
use soda::core::world::{
    attack_node, create_service_driven, ddos_switch_host, submit_request,
    submit_request_with_callback, SodaWorld,
};
use soda::hostos::resources::ResourceVector;
use soda::sim::{Engine, SimDuration, SimTime};
use soda::vmm::isolation::FaultKind;
use soda::vmm::rootfs::RootFsCatalog;
use soda::vmm::sysservices::StartupClass;
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
