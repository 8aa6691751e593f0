//! The §5 attack-isolation scenario: a web content service and a
//! deliberately vulnerable *honeypot* service share HUP host *seattle*.
//! The honeypot's ghttpd is constantly exploited and crashed; the web
//! content service is not affected (Figure 3's side-by-side guests).
//!
//! Run with: `cargo run --example honeypot`

use soda::core::service::ServiceSpec;
use soda::core::world::{create_service_driven, SodaWorld};
use soda::hostos::resources::ResourceVector;
use soda::sim::{Engine, SimDuration, SimTime};
use soda::vmm::rootfs::RootFsCatalog;
use soda::vmm::sysservices::StartupClass;
use soda::workload::attack::AttackCampaign;
use soda::workload::httpgen::PoissonGenerator;

fn main() {
    let mut engine = Engine::with_seed(SodaWorld::testbed(), 2003);
    let m = ResourceVector::TABLE1_EXAMPLE;

    // Web content service: <3, M> → 2M on seattle + 1M on tacoma.
    let web = create_service_driven(
        &mut engine,
        ServiceSpec {
            name: "Web".into(),
            image: RootFsCatalog::new().base_1_0(),
            required_services: vec!["network", "syslogd"],
            app_class: StartupClass::Light,
            instances: 3,
            machine: m,
            port: 8080,
        },
        "webco",
    )
    .expect("web admitted");

    // Honeypot: one node, lands on seattle next to the web node.
    let honeypot = create_service_driven(
        &mut engine,
        ServiceSpec {
            name: "Honeypot".into(),
            image: RootFsCatalog::new().tomsrtbt(),
            required_services: vec!["network"],
            app_class: StartupClass::Light,
            instances: 1,
            machine: m,
            port: 80,
        },
        "seclab",
    )
    .expect("honeypot admitted");

    engine.run_until(SimTime::from_secs(120));
    assert_eq!(engine.state().creations.len(), 2);

    // Figure 3: both guests greet with the SODA banner, and each guest's
    // `ps -ef` shows only its own processes.
    {
        let world = engine.state();
        let hp_node = world.service_record(honeypot).unwrap().nodes[0];
        let web_node = world.service_record(web).unwrap().nodes[0];
        let daemon = world
            .daemons
            .iter()
            .find(|d| d.host.id == hp_node.host)
            .unwrap();
        for (label, vsn) in [("web", web_node.vsn), ("honeypot", hp_node.vsn)] {
            if let Some(guest) = daemon.vsn(vsn).and_then(|v| v.guest()) {
                println!("--- {label} console ---");
                println!("{}", guest.login_banner());
                println!("# ps -ef");
                for cmd in guest.ps(&daemon.host.processes) {
                    println!("  {cmd}");
                }
            }
        }
    }

    // Clients hammer the web service while the honeypot is attacked and
    // crashed once a minute (and re-primed in between).
    let t0 = engine.now();
    let hp_vsn = engine.state().service_record(honeypot).unwrap().nodes[0].vsn;
    PoissonGenerator {
        service: web,
        dataset_bytes: 50_000,
        rate_rps: 20.0,
        start: t0,
        end: t0 + SimDuration::from_secs(300),
    }
    .start(&mut engine);
    AttackCampaign {
        service: honeypot,
        vsn: hp_vsn,
        period: SimDuration::from_secs(60),
        start: t0 + SimDuration::from_secs(5),
        end: t0 + SimDuration::from_secs(300),
        revive: true,
    }
    .start(&mut engine);
    engine.run_until(t0 + SimDuration::from_secs(400));

    let world = engine.state();
    let hp_rec = world.service_record(honeypot).unwrap();
    let daemon = world
        .daemons
        .iter()
        .find(|d| d.host.id == hp_rec.nodes[0].host)
        .unwrap();
    println!(
        "\nhoneypot crash count: {}",
        daemon.vsn(hp_vsn).unwrap().crash_count
    );
    let sw = world.switch_for(web).unwrap();
    println!(
        "web requests served: {:?} (dropped: {})",
        sw.served_counts(),
        world.dropped
    );
    println!(
        "web mean response times: {:?} s — unaffected by the attacks",
        sw.mean_responses()
            .iter()
            .map(|r| format!("{r:.4}"))
            .collect::<Vec<_>>()
    );
}
