//! The paper's motivating example (§1): "a bioinformatics institute
//! wishes to provide a genome matching service to the research
//! community, without using its limited IT resources. It can make a
//! service creation call to a HUP, and the entire image of the genome
//! matching service will be downloaded to and bootstrapped in the HUP."
//!
//! This example walks the full ASP lifecycle: registration, creation of
//! a custom (large, database-backed) image, serving load, resizing up
//! when demand grows, resizing down, teardown — and the bill.
//!
//! Run with: `cargo run --example genome_service`

use soda::core::api::Credential;
use soda::core::service::ServiceSpec;
use soda::core::world::{create_service_driven, SodaWorld};
use soda::hostos::resources::ResourceVector;
use soda::sim::{Engine, SimDuration, SimTime};
use soda::vmm::rootfs::RootFsCatalog;
use soda::vmm::sysservices::StartupClass;
use soda::workload::httpgen::PoissonGenerator;

fn main() {
    let mut engine = Engine::with_seed(SodaWorld::testbed(), 7);

    // Contract setup: the institute registers with the SODA Agent.
    engine
        .state_mut()
        .agent
        .register_asp("biolab", "genome-key");
    let cred = Credential {
        asp: "biolab".into(),
        key: "genome-key".into(),
    };
    engine
        .state_mut()
        .agent
        .authenticate(&cred)
        .expect("registered ASP");
    println!("ASP 'biolab' authenticated by the SODA Agent");

    // The genome matching service: a custom image bundling the matcher
    // and a sequence database, needing sshd (for staff administration,
    // "as if the service were hosted locally") and mysqld.
    let catalog = RootFsCatalog::new();
    let image = catalog.custom(
        "genome_match_fs_1.2",
        30_000_000,  // system part
        150_000_000, // sequence database
        &[
            "init", "syslogd", "network", "sshd", "mysqld", "httpd", "random", "crond",
        ],
        false,
    );
    let spec = ServiceSpec {
        name: "genome-match".into(),
        image,
        required_services: vec!["network", "syslogd", "sshd", "mysqld"],
        app_class: StartupClass::Heavy,
        instances: 1,
        machine: ResourceVector::TABLE1_EXAMPLE,
        port: 9000,
    };
    let service = create_service_driven(&mut engine, spec, "biolab").expect("admitted");
    engine.run_until(SimTime::from_secs(180));
    let created = &engine.state().creations[0];
    println!(
        "genome service created in {} (180 MB image download + tailored bootstrap)",
        created.reply.creation_time
    );

    // Research community load at <1, M>.
    let t0 = engine.now();
    PoissonGenerator {
        service,
        dataset_bytes: 120_000,
        rate_rps: 4.0,
        start: t0,
        end: t0 + SimDuration::from_secs(600),
    }
    .start(&mut engine);
    engine.run_until(t0 + SimDuration::from_secs(300));
    let mean_1m = engine.state().switch_for(service).unwrap().mean_responses()[0];
    println!("mean response at <1, M>: {mean_1m:.4}s");

    // Demand grows: SODA_service_resizing to <3, M>.
    {
        let now = engine.now();
        let world = engine.state_mut();
        let (master, daemons) = world.master_and_daemons(world.shard_of_service(service));
        let outcome = master.resize(service, 3, daemons, now).expect("resize ok");
        // Any freshly placed nodes boot instantly in this example (the
        // image is already cached at the HUP after the first download).
        for (_, ticket) in &outcome.tickets {
            master
                .node_ready(service, ticket.vsn, daemons, now, SimDuration::ZERO)
                .expect("node up");
        }
        world.agent.billing_resize(service, 3, now);
        println!(
            "resized to <3, M>: {} node(s) widened in place, {} new node(s) placed",
            outcome.resized.len(),
            outcome.tickets.len()
        );
    }
    println!(
        "config file now:\n{}",
        engine.state().switch_for(service).unwrap().config()
    );

    engine.run_until(engine.now() + SimDuration::from_secs(300));
    let world = engine.state();
    let sw = world.switch_for(service).unwrap();
    println!("served per node after resize: {:?}", sw.served_counts());

    // Wind down: teardown and the final invoice.
    let now = engine.now();
    let world = engine.state_mut();
    let (master, daemons) = world.master_and_daemons(world.shard_of_service(service));
    master.teardown(service, daemons).expect("teardown");
    world.agent.billing_stop(service, now);
    println!(
        "service torn down; biolab owes {:.4} units for {:.0} instance-seconds",
        world.agent.invoice("biolab", now),
        world.agent.usage(service, now)
    );
}
