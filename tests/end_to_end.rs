//! Cross-crate integration: the full service lifecycle on the composed
//! world — creation (download + bootstrap), serving, resizing, crash and
//! revival, teardown — with resource-conservation invariants checked at
//! every step.

use soda::core::service::{ServiceSpec, ServiceState};
use soda::core::world::{
    attack_node, create_service_driven, revive_node, submit_request, SodaWorld,
};
use soda::hostos::resources::ResourceVector;
use soda::sim::{Engine, SimDuration, SimTime};
use soda::vmm::isolation::FaultKind;
use soda::vmm::rootfs::RootFsCatalog;
use soda::vmm::sysservices::StartupClass;

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

/// Sum of (available + reserved) across hosts must equal total capacity
/// at any instant.
fn assert_conservation(world: &SodaWorld) {
    for d in &world.daemons {
        let cap = d.host.capacity();
        let sum = d.host.ledger.available() + d.host.ledger.reserved();
        assert_eq!(sum, cap, "ledger conservation on {}", d.host.name);
    }
}

#[test]
fn full_lifecycle() {
    let mut engine = Engine::with_seed(SodaWorld::testbed(), 1);
    let baseline: Vec<ResourceVector> = engine
        .state()
        .daemons
        .iter()
        .map(|d| d.report_resources())
        .collect();

    // --- Create <3, M>.
    let svc = create_service_driven(&mut engine, web_spec(3), "webco").unwrap();
    engine.run_until(SimTime::from_secs(120));
    assert_eq!(engine.state().creations.len(), 1);
    assert_conservation(engine.state());
    {
        let w = engine.state();
        let rec = w.service_record(svc).unwrap();
        assert_eq!(rec.state, ServiceState::Running);
        assert_eq!(rec.placed_capacity(), 3);
        // The inflated reservation: 3 × (768 CPU, 256 mem, 1024 disk, 15 bw).
        let expect = ResourceVector::TABLE1_EXAMPLE.inflate_for_slowdown(1.5) * 3;
        let reserved: ResourceVector = w.daemons.iter().fold(ResourceVector::ZERO, |acc, d| {
            acc + d.host.ledger.reserved()
        });
        assert_eq!(reserved, expect);
    }

    // --- Serve.
    let t0 = engine.now();
    for i in 0..50u64 {
        engine.schedule_at(
            t0 + SimDuration::from_millis(50 * i),
            move |w: &mut SodaWorld, ctx| {
                submit_request(w, ctx, svc, 20_000);
            },
        );
    }
    engine.run_until(t0 + SimDuration::from_secs(60));
    assert_eq!(engine.state().completed.len(), 50);
    assert_eq!(engine.state().dropped, 0);

    // --- Resize down to 1.
    {
        let now = engine.now();
        let w = engine.state_mut();
        let (master, daemons) = w.master_and_daemons(w.shard_of_service(svc));
        master.resize(svc, 1, daemons, now).unwrap();
    }
    assert_conservation(engine.state());
    assert_eq!(
        engine
            .state()
            .service_record(svc)
            .unwrap()
            .placed_capacity(),
        1
    );
    assert_eq!(
        engine
            .state()
            .switch_for(svc)
            .unwrap()
            .config()
            .total_capacity(),
        1
    );

    // --- Crash and revive the surviving node.
    let vsn = engine.state().service_record(svc).unwrap().nodes[0].vsn;
    engine.schedule_in(SimDuration::from_secs(1), move |w: &mut SodaWorld, ctx| {
        let blast = attack_node(w, ctx, svc, vsn, FaultKind::Crash);
        assert!(blast.service_down && !blast.host_down);
        revive_node(w, ctx, svc, vsn).unwrap();
    });
    engine.run_until(engine.now() + SimDuration::from_secs(60));
    let before = engine.state().completed.len();
    let t1 = engine.now();
    engine.schedule_at(t1, move |w: &mut SodaWorld, ctx| {
        submit_request(w, ctx, svc, 20_000);
    });
    engine.run_until(t1 + SimDuration::from_secs(30));
    assert_eq!(
        engine.state().completed.len(),
        before + 1,
        "revived node serves"
    );

    // --- Teardown restores the baseline exactly.
    {
        let w = engine.state_mut();
        let (master, daemons) = w.master_and_daemons(w.shard_of_service(svc));
        master.teardown(svc, daemons).unwrap();
    }
    let after: Vec<ResourceVector> = engine
        .state()
        .daemons
        .iter()
        .map(|d| d.report_resources())
        .collect();
    assert_eq!(after, baseline, "teardown must release everything");
    assert_conservation(engine.state());
    for d in &engine.state().daemons {
        assert_eq!(d.vsn_count(), 0);
        assert!(d.host.processes.is_empty(), "no leaked processes");
        assert_eq!(d.host.bridge.mappings(), 0, "no leaked bridge entries");
    }
}

#[test]
fn many_services_fill_and_drain() {
    // Admit single-instance services until rejection; tear all down;
    // the HUP must return to its pristine state.
    let mut engine = Engine::with_seed(SodaWorld::testbed(), 2);
    let baseline: Vec<ResourceVector> = engine
        .state()
        .daemons
        .iter()
        .map(|d| d.report_resources())
        .collect();
    let mut created = Vec::new();
    while let Ok(svc) = create_service_driven(&mut engine, web_spec(1), "asp") {
        created.push(svc);
        assert!(created.len() < 64, "admission must eventually reject");
    }
    assert!(
        created.len() >= 4,
        "the testbed holds several instances: {}",
        created.len()
    );
    engine.run_until(SimTime::from_secs(600));
    assert_eq!(
        engine.state().creations.len(),
        created.len(),
        "all bootstraps finish"
    );
    assert_conservation(engine.state());
    {
        let w = engine.state_mut();
        for &svc in &created {
            let (master, daemons) = w.master_and_daemons(w.shard_of_service(svc));
            master.teardown(svc, daemons).unwrap();
        }
    }
    let after: Vec<ResourceVector> = engine
        .state()
        .daemons
        .iter()
        .map(|d| d.report_resources())
        .collect();
    assert_eq!(after, baseline);
}

#[test]
fn billing_tracks_lifetime_and_capacity() {
    let mut engine = Engine::with_seed(SodaWorld::testbed(), 3);
    let svc = create_service_driven(&mut engine, web_spec(2), "payer").unwrap();
    engine.run_until(SimTime::from_secs(60));
    let created_at = engine.state().creations[0].at;
    // An hour later the meter shows 2 instances × elapsed.
    let later = created_at + SimDuration::from_secs(3600);
    engine.run_until(later);
    let usage = engine.state().agent.usage(svc, later);
    assert!((usage - 2.0 * 3600.0).abs() < 1.0, "usage {usage}");
}
