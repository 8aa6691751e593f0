//! X-DDOS — §3.5 limitation 2: "if a service is DDoS-attacked, its
//! service switch will be inundated with requests, affecting other
//! virtual service nodes in the same HUP host and therefore violating
//! the service isolation."
//!
//! Two co-hosted services on *seattle*; the victim's switch host is
//! flooded; the bystander's response times degrade even though it was
//! never attacked.

use serde::Serialize;
use soda_core::config::ShardId;
use soda_core::placement::FirstFit;
use soda_core::service::ServiceSpec;
use soda_core::world::{create_service_driven, SodaWorld};
use soda_hostos::resources::ResourceVector;
use soda_sim::{Engine, SimDuration, SimTime};
use soda_vmm::rootfs::RootFsCatalog;
use soda_vmm::sysservices::StartupClass;
use soda_workload::attack::DdosFlood;
use soda_workload::httpgen::PoissonGenerator;

/// Result of the DDoS isolation-violation experiment.
#[derive(Clone, Debug, Serialize)]
pub struct DdosResult {
    /// Bystander mean response time before the flood, seconds.
    pub baseline_secs: f64,
    /// Bystander mean response time during the flood, seconds.
    pub flooded_secs: f64,
}

impl DdosResult {
    /// Degradation factor.
    pub fn degradation(&self) -> f64 {
        if self.baseline_secs == 0.0 {
            return f64::INFINITY;
        }
        self.flooded_secs / self.baseline_secs
    }
}

/// Run: `quiet_secs` of baseline, then `flood_secs` under flood.
pub fn run(quiet_secs: u64, flood_secs: u64, seed: u64) -> DdosResult {
    let mut engine = Engine::with_seed(SodaWorld::testbed(), seed);
    // First-fit packs both services onto seattle.
    engine
        .state_mut()
        .master_of_mut(ShardId(0))
        .set_placement(Box::new(FirstFit));
    let spec = |name: &str, port| ServiceSpec {
        name: name.into(),
        image: RootFsCatalog::new().base_1_0(),
        required_services: vec!["network", "syslogd"],
        app_class: StartupClass::Light,
        instances: 1,
        machine: ResourceVector::TABLE1_EXAMPLE,
        port,
    };
    let victim = create_service_driven(&mut engine, spec("victim", 8080), "a").expect("admitted");
    let bystander =
        create_service_driven(&mut engine, spec("bystander", 8081), "b").expect("admitted");
    engine.run_until(SimTime::from_secs(120));
    assert_eq!(engine.state().creations.len(), 2);
    // Both must share seattle for the violation to manifest.
    {
        let w = engine.state();
        let hv = w.service_record(victim).expect("exists").nodes[0].host;
        let hb = w.service_record(bystander).expect("exists").nodes[0].host;
        assert_eq!(hv, hb, "first-fit must co-host the services");
    }

    // Continuous bystander load throughout.
    let t0 = engine.now();
    let total = quiet_secs + flood_secs;
    PoissonGenerator {
        service: bystander,
        dataset_bytes: 100_000,
        rate_rps: 10.0,
        start: t0,
        end: t0 + SimDuration::from_secs(total),
    }
    .start(&mut engine);
    // Quiet phase.
    engine.run_until(t0 + SimDuration::from_secs(quiet_secs));
    let flood_start = engine.now();
    let baseline = {
        let w = engine.state();
        let vsn = w.service_record(bystander).expect("exists").nodes[0].vsn;
        w.mean_response(vsn, SimTime::ZERO)
    };
    // Flood phase: waves of elephant flows at the victim's switch host.
    DdosFlood {
        service: victim,
        flows_per_wave: 10,
        bytes_each: 20_000_000,
        period: SimDuration::from_secs(5),
        start: flood_start,
        end: flood_start + SimDuration::from_secs(flood_secs),
    }
    .start(&mut engine);
    engine.run_until(flood_start + SimDuration::from_secs(flood_secs + 300));
    let flooded = {
        let w = engine.state();
        let vsn = w.service_record(bystander).expect("exists").nodes[0].vsn;
        w.mean_response(vsn, flood_start)
    };
    DdosResult {
        baseline_secs: baseline,
        flooded_secs: flooded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_violates_isolation() {
        let r = run(60, 60, 21);
        assert!(r.baseline_secs > 0.0);
        assert!(
            r.degradation() > 2.0,
            "bystander must degrade: baseline {} flooded {}",
            r.baseline_secs,
            r.flooded_secs
        );
    }
}
