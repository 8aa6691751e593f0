//! §5 "Attack isolation" — the honeypot is constantly attacked and
//! crashed; the co-hosted web content service is not affected. The
//! counterfactual (honeypot running directly on the host OS) shows the
//! blast radius SODA prevents.

use serde::Serialize;
use soda_core::service::ServiceSpec;
use soda_core::world::{create_service_driven, SodaWorld};
use soda_hostos::resources::ResourceVector;
use soda_sim::{Availability, Engine, SimDuration, SimTime};
use soda_vmm::isolation::ExecutionMode;
use soda_vmm::rootfs::RootFsCatalog;
use soda_vmm::sysservices::StartupClass;
use soda_workload::attack::AttackCampaign;
use soda_workload::httpgen::PoissonGenerator;

/// Result of one isolation run.
#[derive(Clone, Debug, Serialize)]
pub struct IsolationResult {
    /// Honeypot execution mode label.
    pub honeypot_mode: &'static str,
    /// Times the honeypot guest crashed.
    pub honeypot_crashes: u32,
    /// Web requests completed during the campaign.
    pub web_completed: u64,
    /// Web requests offered (completed + dropped).
    pub web_offered: u64,
    /// Web mean response time during the campaign, seconds.
    pub web_mean_secs: f64,
    /// Did the web node co-hosted on seattle crash?
    pub web_cohosted_crashed: bool,
    /// Honeypot uptime fraction over the campaign (sampled at 1 s).
    pub honeypot_availability: f64,
    /// Co-hosted web node uptime fraction over the campaign.
    pub web_cohosted_availability: f64,
}

/// Run the experiment with the honeypot in the given execution mode.
pub fn run(guest_isolated: bool, secs: u64, seed: u64) -> IsolationResult {
    let mut engine = Engine::with_seed(SodaWorld::testbed(), seed);
    let m = ResourceVector::TABLE1_EXAMPLE;
    let web = create_service_driven(
        &mut engine,
        ServiceSpec {
            name: "web".into(),
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
    let honeypot = create_service_driven(
        &mut engine,
        ServiceSpec {
            name: "honeypot".into(),
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

    let hp_vsn = engine
        .state()
        .service_record(honeypot)
        .expect("exists")
        .nodes[0]
        .vsn;
    if !guest_isolated {
        engine
            .state_mut()
            .set_execution_mode(honeypot, hp_vsn, ExecutionMode::HostDirect);
    }

    let t0 = engine.now();
    PoissonGenerator {
        service: web,
        dataset_bytes: 50_000,
        rate_rps: 20.0,
        start: t0,
        end: t0 + SimDuration::from_secs(secs),
    }
    .start(&mut engine);
    AttackCampaign {
        service: honeypot,
        vsn: hp_vsn,
        period: SimDuration::from_secs(30),
        start: t0 + SimDuration::from_secs(2),
        end: t0 + SimDuration::from_secs(secs),
        revive: guest_isolated, // host-direct compromise is not revived
    }
    .start(&mut engine);

    // Drive the campaign in 1 s steps, sampling both nodes' liveness
    // into availability trackers.
    let hp_host0 = engine
        .state()
        .service_record(honeypot)
        .expect("exists")
        .nodes[0]
        .host;
    let web_cohosted_vsn = engine
        .state()
        .service_record(web)
        .expect("exists")
        .nodes
        .iter()
        .find(|n| n.host == hp_host0)
        .expect("co-hosted")
        .vsn;
    let mut hp_avail = Availability::starting(t0, true);
    let mut web_avail = Availability::starting(t0, true);
    let end = t0 + SimDuration::from_secs(secs);
    let mut t = t0;
    while t < end {
        t += SimDuration::from_secs(1);
        engine.run_until(t);
        let w = engine.state();
        let d = w
            .daemons
            .iter()
            .find(|d| d.host.id == hp_host0)
            .expect("host");
        hp_avail.set(t, d.vsn(hp_vsn).map(|v| v.is_running()).unwrap_or(false));
        web_avail.set(
            t,
            d.vsn(web_cohosted_vsn)
                .map(|v| v.is_running())
                .unwrap_or(false),
        );
    }
    let honeypot_availability = hp_avail.uptime_fraction(end);
    let web_cohosted_availability = web_avail.uptime_fraction(end);
    engine.run_until(t0 + SimDuration::from_secs(secs + 120));

    let world = engine.state();
    let hp_rec = world.service_record(honeypot).expect("exists");
    let hp_host = hp_rec.nodes[0].host;
    let hp_daemon = world
        .daemons
        .iter()
        .find(|d| d.host.id == hp_host)
        .expect("host");
    let web_rec = world.service_record(web).expect("exists");
    let web_cohosted = web_rec
        .nodes
        .iter()
        .find(|n| n.host == hp_host)
        .expect("co-hosted");
    let web_daemon = world
        .daemons
        .iter()
        .find(|d| d.host.id == hp_host)
        .expect("host");
    let web_crashed = web_daemon
        .vsn(web_cohosted.vsn)
        .map(|v| v.crash_count > 0)
        .unwrap_or(true);

    let sw = world.switch_for(web).expect("switch");
    let completed: u64 = sw.served_counts().iter().sum();
    let mean = {
        let ms = sw.mean_responses();
        let served = sw.served_counts();
        let total: f64 = ms.iter().zip(&served).map(|(m, &n)| m * n as f64).sum();
        if completed == 0 {
            0.0
        } else {
            total / completed as f64
        }
    };
    IsolationResult {
        honeypot_mode: if guest_isolated {
            "guest-isolated (SODA)"
        } else {
            "host-direct"
        },
        honeypot_crashes: hp_daemon.vsn(hp_vsn).map(|v| v.crash_count).unwrap_or(0),
        web_completed: completed,
        web_offered: completed + world.dropped,
        web_mean_secs: mean,
        web_cohosted_crashed: web_crashed,
        honeypot_availability,
        web_cohosted_availability,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soda_isolates_the_attack() {
        let r = run(true, 120, 3);
        assert!(
            r.honeypot_crashes >= 3,
            "attacked repeatedly: {}",
            r.honeypot_crashes
        );
        assert!(!r.web_cohosted_crashed, "web node must survive");
        // No web request is lost to the attacks.
        assert_eq!(r.web_completed, r.web_offered, "no drops");
        assert!(r.web_mean_secs > 0.0 && r.web_mean_secs < 1.0);
        // The honeypot spends real time down (crash → re-prime cycles);
        // the co-hosted web node never does.
        assert!(
            r.honeypot_availability < 0.95,
            "{}",
            r.honeypot_availability
        );
        assert!(r.honeypot_availability > 0.5, "re-priming brings it back");
        assert!(
            r.web_cohosted_availability > 0.999,
            "{}",
            r.web_cohosted_availability
        );
    }

    #[test]
    fn host_direct_counterfactual_takes_web_down() {
        let r = run(false, 120, 3);
        assert!(
            r.web_cohosted_crashed,
            "host compromise kills co-hosted web node"
        );
        // Offered exceeds completed: requests routed to the dead node
        // after the first crash are lost until WRR health-outs it —
        // and the service runs degraded on tacoma alone.
        assert!(r.honeypot_crashes >= 1);
        // The co-hosted web node is down for most of the campaign.
        assert!(
            r.web_cohosted_availability < 0.1,
            "{}",
            r.web_cohosted_availability
        );
    }
}
