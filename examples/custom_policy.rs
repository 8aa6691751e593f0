//! Replacing the request-switching policy (§3.4): "the service provider
//! can replace the default request switching policy with a
//! service-specific policy" — and §5's closing note: "even if the
//! service-specific policy is ill-behaving, it will not affect other
//! services hosted in the HUP."
//!
//! This example runs the same workload under four policies, then
//! installs an ill-behaved policy on one service and shows a co-hosted
//! service is untouched.
//!
//! Run with: `cargo run --example custom_policy`

use soda::core::policy::{BackendView, IllBehaved, LeastConnections, RandomPolicy, SwitchPolicy};
use soda::core::service::ServiceSpec;
use soda::core::world::{create_service_driven, SodaWorld};
use soda::hostos::resources::ResourceVector;
use soda::sim::{Engine, SimDuration, SimTime};
use soda::vmm::rootfs::RootFsCatalog;
use soda::vmm::sysservices::StartupClass;
use soda::workload::httpgen::PacedGenerator;

/// A service-specific policy an ASP might write: prefer the big node
/// until its queue builds, then spill to the small one.
struct SpillOver {
    threshold: u32,
}

impl SwitchPolicy for SpillOver {
    fn pick(&mut self, backends: &[BackendView]) -> Option<usize> {
        let primary = backends
            .iter()
            .enumerate()
            .filter(|(_, b)| b.healthy)
            .max_by_key(|(_, b)| b.capacity)?;
        if primary.1.outstanding < self.threshold {
            return Some(primary.0);
        }
        backends
            .iter()
            .enumerate()
            .filter(|(_, b)| b.healthy)
            .min_by_key(|(_, b)| b.outstanding)
            .map(|(i, _)| i)
    }

    fn name(&self) -> &'static str {
        "asp-spillover"
    }
}

fn run_policy(policy: Option<Box<dyn SwitchPolicy>>) -> (String, Vec<u64>, Vec<f64>) {
    let mut engine = Engine::with_seed(SodaWorld::testbed(), 99);
    let spec = ServiceSpec {
        name: "web".into(),
        image: RootFsCatalog::new().base_1_0(),
        required_services: vec!["network", "syslogd"],
        app_class: StartupClass::Light,
        instances: 3,
        machine: ResourceVector::TABLE1_EXAMPLE,
        port: 8080,
    };
    let svc = create_service_driven(&mut engine, spec, "webco").unwrap();
    engine.run_until(SimTime::from_secs(120));
    if let Some(p) = policy {
        engine
            .state_mut()
            .switch_mut_for(svc)
            .unwrap()
            .replace_policy(p);
    }
    let name = engine
        .state()
        .switch_for(svc)
        .unwrap()
        .policy_name()
        .to_string();
    let t0 = engine.now();
    PacedGenerator {
        service: svc,
        dataset_bytes: 100_000,
        rate_rps: 20.0,
        start: t0,
        end: t0 + SimDuration::from_secs(60),
    }
    .start(&mut engine);
    engine.run_until(t0 + SimDuration::from_secs(120));
    let sw = engine.state().switch_for(svc).unwrap();
    (name, sw.served_counts(), sw.mean_responses())
}

fn main() {
    println!(
        "{:<22} {:>14} {:>24}",
        "policy", "served (2M,1M)", "mean response (s)"
    );
    for policy in [
        None,
        Some(Box::new(LeastConnections::new()) as Box<dyn SwitchPolicy>),
        Some(Box::new(RandomPolicy::new(5))),
        Some(Box::new(SpillOver { threshold: 4 })),
    ] {
        let (name, served, means) = run_policy(policy);
        println!(
            "{:<22} {:>14} {:>24}",
            name,
            format!("{served:?}"),
            format!(
                "{:?}",
                means.iter().map(|m| format!("{m:.4}")).collect::<Vec<_>>()
            )
        );
    }

    // The ill-behaved policy: all requests to one node, ignoring health.
    // Its own service suffers; the co-hosted one is isolated.
    let mut engine = Engine::with_seed(SodaWorld::testbed(), 7);
    let mk = |name: &str, port| ServiceSpec {
        name: name.into(),
        image: RootFsCatalog::new().base_1_0(),
        required_services: vec!["network", "syslogd"],
        app_class: StartupClass::Light,
        instances: 2,
        machine: ResourceVector::TABLE1_EXAMPLE,
        port,
    };
    let victim = create_service_driven(&mut engine, mk("victim", 8080), "a").unwrap();
    let bystander = create_service_driven(&mut engine, mk("bystander", 8081), "b").unwrap();
    engine.run_until(SimTime::from_secs(120));
    engine
        .state_mut()
        .switch_mut_for(victim)
        .unwrap()
        .replace_policy(Box::new(IllBehaved::new()));
    let t0 = engine.now();
    for svc in [victim, bystander] {
        PacedGenerator {
            service: svc,
            dataset_bytes: 100_000,
            rate_rps: 15.0,
            start: t0,
            end: t0 + SimDuration::from_secs(60),
        }
        .start(&mut engine);
    }
    engine.run_until(t0 + SimDuration::from_secs(200));
    let w = engine.state();
    let v = w.switch_for(victim).unwrap();
    let b = w.switch_for(bystander).unwrap();
    println!("\nill-behaved policy on 'victim':");
    println!(
        "  victim    served {:?} mean {:?}",
        v.served_counts(),
        v.mean_responses()
    );
    println!(
        "  bystander served {:?} mean {:?}",
        b.served_counts(),
        b.mean_responses()
    );
    println!("  (the bystander's balance and latency are unaffected)");
}
