//! X-HOST — whole-host failure and self-healing failover (an
//! extension: the paper explicitly scopes SODA as *jailing* faults, not
//! surviving them; this shows what the architecture's pieces —
//! heartbeats, daemon reports, placement, priming, switch health — buy when
//! composed into a recovery loop).
//!
//! Scenario: a three-host HUP runs the web service on two nodes. The
//! host carrying the big node loses power mid-experiment — and nobody
//! tells the Master. Its heartbeat monitor notices the silence, drains
//! the dead backends, re-places the lost capacity on the spare host,
//! re-fetches the image, bootstraps, and the service returns to full
//! capacity. Requests routed to the dead node during the detection
//! window are honestly counted as dropped.

use serde::Serialize;
use soda_core::config::ShardId;
use soda_core::recovery::{self, RecoveryConfig};
use soda_core::service::ServiceSpec;
use soda_core::world::{crash_host, create_service_driven, SodaWorld};
use soda_hostos::resources::ResourceVector;
use soda_hup::daemon::SodaDaemon;
use soda_hup::host::{HostId, HupHost};
use soda_net::pool::IpPool;
use soda_sim::{Engine, SimDuration, SimTime};
use soda_vmm::rootfs::RootFsCatalog;
use soda_vmm::sysservices::StartupClass;
use soda_workload::httpgen::PoissonGenerator;

/// Result of the failover run.
#[derive(Clone, Debug, Serialize)]
pub struct FailoverResult {
    /// Nodes downed by the host failure.
    pub nodes_downed: usize,
    /// Seconds from the crash to the heartbeat monitor declaring the
    /// host down.
    pub detection_secs: f64,
    /// Seconds from failure to full capacity restored.
    pub recovery_secs: f64,
    /// Requests dropped across the whole run.
    pub dropped: u64,
    /// Requests completed across the whole run.
    pub completed: u64,
    /// Capacity (machine instances) after recovery.
    pub final_capacity: u32,
    /// Mean response before the failure, seconds.
    pub mean_before: f64,
    /// Mean response during the degraded window, seconds.
    pub mean_degraded: f64,
}

/// Run the scenario.
pub fn run(seed: u64) -> FailoverResult {
    // Two seattles carry the service (worst-fit puts 2M on host 1 and
    // 1M on host 2); the smaller tacoma is the idle spare that the
    // failover lands on.
    let daemons: Vec<SodaDaemon> = vec![
        SodaDaemon::new(HupHost::seattle(
            HostId(1),
            IpPool::new("10.0.1.0".parse().expect("valid"), 8),
        )),
        SodaDaemon::new(HupHost::seattle(
            HostId(2),
            IpPool::new("10.0.2.0".parse().expect("valid"), 8),
        )),
        SodaDaemon::new(HupHost::tacoma(
            HostId(3),
            IpPool::new("10.0.3.0".parse().expect("valid"), 8),
        )),
    ];
    let mut engine = Engine::with_seed(SodaWorld::new(daemons), seed);
    let spec = ServiceSpec {
        name: "web".into(),
        image: RootFsCatalog::new().base_1_0(),
        required_services: vec!["network", "syslogd"],
        app_class: StartupClass::Light,
        instances: 3,
        machine: ResourceVector::TABLE1_EXAMPLE,
        port: 8080,
    };
    let svc = create_service_driven(&mut engine, spec, "webco").expect("admitted");
    engine.run_until(SimTime::from_secs(120));
    assert_eq!(engine.state().creations.len(), 1, "creation finishes");

    // Arm the self-healing loop: detection and recovery from here on
    // are the Master's own doing, not the experiment script's.
    let t0 = engine.now();
    let total_secs = 240u64;
    let horizon = t0 + SimDuration::from_secs(total_secs + 120);
    recovery::start_self_healing(&mut engine, RecoveryConfig::default(), horizon);

    // Continuous load for the whole run.
    PoissonGenerator {
        service: svc,
        dataset_bytes: 30_000,
        rate_rps: 20.0,
        start: t0,
        end: t0 + SimDuration::from_secs(total_secs),
    }
    .start(&mut engine);

    // Let it serve for 60 s, then pull the plug on the host with the
    // largest node. No master notification, no scripted failover.
    let fail_at = t0 + SimDuration::from_secs(60);
    let victim_host = engine.state().service_record(svc).expect("exists").nodes[0].host;
    engine.schedule_at(fail_at, move |w: &mut SodaWorld, ctx| {
        crash_host(w, ctx, victim_host);
    });
    engine.run_until(horizon);

    let w = engine.state();
    let rec = w.service_record(svc).expect("exists");
    let stats = &w.recovery_of(ShardId(0)).stats;
    let detection_secs = stats
        .detections
        .first()
        .map(|&(_, at)| at.saturating_since(fail_at).as_secs_f64())
        .unwrap_or(f64::INFINITY);
    // Full capacity is restored when the replacement finishes booting.
    let recovery_done = rec
        .nodes
        .iter()
        .filter_map(|n| {
            let d = w.daemons.iter().find(|d| d.host.id == n.host)?;
            d.vsn(n.vsn)?.running_since
        })
        .max()
        .unwrap_or(fail_at);
    let mean_before = {
        let recs: Vec<f64> = w
            .completed
            .iter()
            .filter(|r| r.issued < fail_at)
            .map(|r| r.response_time().as_secs_f64())
            .collect();
        recs.iter().sum::<f64>() / recs.len().max(1) as f64
    };
    let mean_degraded = {
        let recs: Vec<f64> = w
            .completed
            .iter()
            .filter(|r| r.issued >= fail_at && r.issued < recovery_done)
            .map(|r| r.response_time().as_secs_f64())
            .collect();
        recs.iter().sum::<f64>() / recs.len().max(1) as f64
    };
    FailoverResult {
        nodes_downed: 1,
        detection_secs,
        recovery_secs: recovery_done.saturating_since(fail_at).as_secs_f64(),
        dropped: w.dropped,
        completed: w.completed.len() as u64,
        final_capacity: rec.placed_capacity(),
        mean_before,
        mean_degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_restores_full_capacity() {
        let r = run(17);
        assert_eq!(r.final_capacity, 3, "capacity restored");
        // Detection = heartbeat timeout (3.5 s) rounded up to the next
        // 1 s heartbeat tick.
        assert!(
            (3.0..6.0).contains(&r.detection_secs),
            "{}",
            r.detection_secs
        );
        // Recovery = detection + image download (~2.4 s) + bootstrap
        // (~2.5 s).
        assert!(
            (4.0..30.0).contains(&r.recovery_secs),
            "{}",
            r.recovery_secs
        );
        // Requests routed to the dead node before detection are real
        // drops now — but the window is a few seconds at 20 rps.
        assert!(r.dropped > 0, "detection window must cost something");
        assert!(r.dropped < 500, "{}", r.dropped);
        assert!(r.completed > 1000);
        assert!(r.mean_before > 0.0);
        assert!(r.mean_degraded > 0.0);
    }
}
