//! Quickstart: bring up the paper's testbed, create a web content
//! service with requirement `<3, M>`, and serve some requests.
//!
//! Run with: `cargo run --example quickstart`

use soda::core::service::ServiceSpec;
use soda::core::world::{create_service_driven, submit_request, SodaWorld};
use soda::hostos::resources::ResourceVector;
use soda::sim::{Engine, SimDuration, SimTime};
use soda::vmm::rootfs::RootFsCatalog;
use soda::vmm::sysservices::StartupClass;

fn main() {
    // The paper's two HUP hosts (seattle + tacoma) on a 100 Mbps LAN,
    // with the observability layer switched on: every entity records
    // typed events, virtual-time spans and labeled metrics into the
    // shared `Obs` handle.
    let mut world = SodaWorld::testbed();
    let obs = world.enable_obs(4096);
    let mut engine = Engine::new(world);

    // Table 1's machine configuration M.
    let m = ResourceVector::TABLE1_EXAMPLE;
    println!("machine configuration M: {m}");

    // SODA_service_creation: name, image location, <n, M>.
    let spec = ServiceSpec {
        name: "web".into(),
        image: RootFsCatalog::new().base_1_0(),
        required_services: vec!["network", "syslogd"],
        app_class: StartupClass::Light,
        instances: 3,
        machine: m,
        port: 8080,
    };
    let service = create_service_driven(&mut engine, spec, "webco").expect("admission succeeds");
    println!("service admitted as {service}");

    // The SODA Daemons download the image and bootstrap the nodes.
    engine.run_until(SimTime::from_secs(120));
    let created = engine.state().creations[0].clone();
    println!(
        "service created in {} (download + bootstrap of the slowest node)",
        created.reply.creation_time
    );
    for n in &created.reply.nodes {
        println!(
            "  virtual service node at {}:{} capacity {}M",
            n.ip, n.port, n.capacity
        );
    }

    // The switch's service configuration file (Table 3 format).
    let cfg = engine
        .state()
        .switch_for(service)
        .unwrap()
        .config()
        .to_string();
    println!("service configuration file:\n{cfg}");

    // Serve 30 requests of 50 kB through the switch.
    let t0 = engine.now();
    for i in 0..30u64 {
        engine.schedule_at(
            t0 + SimDuration::from_millis(100 * i),
            move |w: &mut SodaWorld, ctx| {
                submit_request(w, ctx, service, 50_000);
            },
        );
    }
    engine.run_until(t0 + SimDuration::from_secs(60));

    let world = engine.state();
    let sw = world.switch_for(service).unwrap();
    println!(
        "requests served per node (weighted round-robin 2:1): {:?}",
        sw.served_counts()
    );
    println!(
        "mean response time per node: {:?} s",
        sw.mean_responses()
            .iter()
            .map(|r| format!("{r:.4}"))
            .collect::<Vec<_>>()
    );
    println!(
        "ASP invoice so far: {:.4} units",
        world.agent.invoice("webco", engine.now())
    );

    // Dump the observability timeline: every typed event the run
    // recorded (admission, placement, Table 2 boot phases, per-request
    // switching), in virtual-time order.
    let timeline = obs.drain_events().expect("obs is enabled");
    println!("\n-- timeline ({} events) --", timeline.events.len());
    for e in timeline.events.iter().take(12) {
        println!("{e}");
    }
    if timeline.events.len() > 12 {
        println!("... {} more", timeline.events.len() - 12);
    }

    // And the metrics registry as JSON: counters/gauges/histograms
    // labeled by service/vsn/host — the same snapshot the exp_*
    // binaries write to results/<exp>.json.
    let snapshot = obs.snapshot().expect("obs is enabled");
    println!("\n-- metrics snapshot (JSON) --");
    println!(
        "{}",
        serde_json::to_string_pretty(&snapshot).expect("snapshot serializes")
    );
    println!("\n-- timeline (JSON, first 3 events) --");
    let head = soda::sim::DrainedEvents {
        events: timeline.events.iter().take(3).copied().collect(),
        dropped: timeline.dropped,
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&head).expect("timeline serializes")
    );
}
