//! X-RSZ — `SODA_service_resizing` (§3.4/§4.1): latency and correctness
//! of growing and shrinking a service, and the effect on load balance.

use serde::Serialize;
use soda_core::config::ShardId;
use soda_core::service::ServiceSpec;
use soda_core::world::SodaWorld;
use soda_hostos::resources::ResourceVector;
use soda_sim::{Engine, SimDuration, SimTime};
use soda_vmm::rootfs::RootFsCatalog;
use soda_vmm::sysservices::StartupClass;

/// One resize step's record.
#[derive(Clone, Debug, Serialize)]
pub struct ResizeStep {
    /// Requested `n_new`.
    pub target_instances: u32,
    /// Capacity after the step.
    pub placed_after: u32,
    /// Nodes after the step.
    pub nodes_after: usize,
    /// Nodes widened/narrowed in place.
    pub in_place: usize,
    /// Nodes removed.
    pub removed: usize,
    /// Nodes freshly placed (each pays a bootstrap).
    pub added: usize,
    /// Bootstrap seconds paid for added nodes (0 for pure in-place).
    pub added_bootstrap_secs: f64,
}

/// Walk a service through a resize schedule, returning one record per
/// step.
pub fn run(schedule: &[u32], seed: u64) -> Vec<ResizeStep> {
    let mut engine = Engine::with_seed(SodaWorld::testbed(), seed);
    let spec = ServiceSpec {
        name: "web".into(),
        image: RootFsCatalog::new().base_1_0(),
        required_services: vec!["network", "syslogd"],
        app_class: StartupClass::Light,
        instances: schedule.first().copied().unwrap_or(1),
        machine: ResourceVector::TABLE1_EXAMPLE,
        port: 8080,
    };
    let (master, daemons) = engine.state_mut().master_and_daemons(ShardId(0));
    let reply = master
        .create_service_now(spec, "webco", daemons, SimTime::ZERO)
        .expect("admitted");
    let svc = reply.service;
    let mut out = Vec::new();
    for (i, &target) in schedule.iter().enumerate().skip(1) {
        let now = SimTime::from_secs(60 * i as u64);
        let world = engine.state_mut();
        let (master, daemons) = world.master_and_daemons(world.shard_of_service(svc));
        let outcome = master.resize(svc, target, daemons, now).expect("resize ok");
        // Finish any freshly placed nodes immediately (image cached).
        let mut bootstrap_secs = 0.0f64;
        for (_, ticket) in &outcome.tickets {
            bootstrap_secs = bootstrap_secs.max(ticket.timing.total().as_secs_f64());
            master
                .node_ready(svc, ticket.vsn, daemons, now, SimDuration::ZERO)
                .expect("node ready");
        }
        let rec = world.service_record(svc).expect("exists");
        out.push(ResizeStep {
            target_instances: target,
            placed_after: rec.placed_capacity(),
            nodes_after: rec.nodes.len(),
            in_place: outcome.resized.len(),
            removed: outcome.removed.len(),
            added: outcome.tickets.len(),
            added_bootstrap_secs: bootstrap_secs,
        });
        // Invariant: the switch's config file always matches.
        let total = world
            .switch_for(svc)
            .expect("switch")
            .config()
            .total_capacity();
        assert_eq!(total, rec.placed_capacity(), "config file tracks capacity");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_shrink_cycle_is_exact() {
        let steps = run(&[1, 3, 5, 2, 1], 1);
        let placed: Vec<u32> = steps.iter().map(|s| s.placed_after).collect();
        assert_eq!(placed, vec![3, 5, 2, 1]);
        // Growing to 3 fits in place on seattle (headroom 2 more).
        assert_eq!(steps[0].added, 0);
        assert!(steps[0].in_place > 0);
        assert_eq!(steps[0].added_bootstrap_secs, 0.0);
        // Growing to 5 exceeds seattle: a new node is placed (bootstrap
        // paid).
        assert!(steps[1].added > 0);
        assert!(steps[1].added_bootstrap_secs > 1.0);
        // Shrinking to 2 removes and/or narrows.
        assert!(steps[2].removed + steps[2].in_place > 0);
    }

    #[test]
    fn in_place_resize_is_instant() {
        let steps = run(&[2, 3, 2], 2);
        for s in &steps {
            if s.added == 0 {
                assert_eq!(s.added_bootstrap_secs, 0.0, "in-place pays no bootstrap");
            }
        }
    }
}
