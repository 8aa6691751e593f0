//! Property test: arbitrary interleavings of the SODA API (create,
//! resize, migrate, teardown, crash) never violate the platform
//! invariants — ledger conservation, config-file/capacity agreement,
//! no leaked IPs/processes/bridge entries after everything is torn down
//! — a call that fails leaves every daemon and record as it found them,
//! and the Master's persistent admission index places exactly what a
//! fresh worst-fit placement over the live roster would. A sharded
//! property checks the same placement rule for driven creations that
//! spill out of their home cell.

use proptest::prelude::*;
use soda::core::config::ShardId;
use soda::core::journal::{Journal, JournalOp};
use soda::core::master::SodaMaster;
use soda::core::placement::{NodePlan, PlacementPolicy, WorstFit};
use soda::core::service::{ServiceId, ServiceRecord, ServiceSpec, ServiceState};
use soda::core::shard::ControlPlaneKind;
use soda::core::world::{create_service_driven, SodaWorld};
use soda::hostos::resources::ResourceVector;
use soda::hup::daemon::SodaDaemon;
use soda::hup::host::{HostId, HupHost};
use soda::net::pool::IpPool;
use soda::sim::{Engine, SimTime};
use soda::vmm::rootfs::RootFsCatalog;
use soda::vmm::sysservices::StartupClass;

#[derive(Clone, Debug)]
enum Op {
    Create { instances: u32 },
    Resize { which: usize, new_instances: u32 },
    Teardown { which: usize },
    CrashNode { which: usize },
    Migrate { which: usize, target: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..5).prop_map(|instances| Op::Create { instances }),
        (0usize..8, 1u32..6).prop_map(|(which, new_instances)| Op::Resize {
            which,
            new_instances
        }),
        (0usize..8).prop_map(|which| Op::Teardown { which }),
        (0usize..8).prop_map(|which| Op::CrashNode { which }),
        (0usize..8, 1u32..5).prop_map(|(which, target)| Op::Migrate { which, target }),
    ]
}

fn testbed() -> Vec<SodaDaemon> {
    vec![
        SodaDaemon::new(HupHost::seattle(
            HostId(1),
            IpPool::new("10.0.0.0".parse().unwrap(), 16),
        )),
        SodaDaemon::new(HupHost::tacoma(
            HostId(2),
            IpPool::new("10.0.1.0".parse().unwrap(), 16),
        )),
        SodaDaemon::new(HupHost::seattle(
            HostId(3),
            IpPool::new("10.0.2.0".parse().unwrap(), 16),
        )),
        // One address: a second node here fails inside `begin_priming`,
        // after the rest of its plan has begun.
        SodaDaemon::new(HupHost::seattle(
            HostId(4),
            IpPool::new("10.0.3.0".parse().unwrap(), 1),
        )),
    ]
}

/// Every daemon's availability and VSN set, plus every service record —
/// what a failed call must leave exactly as it found it.
fn platform_state(master: &SodaMaster, daemons: &[SodaDaemon]) -> String {
    let hosts: Vec<(ResourceVector, Vec<u64>)> = daemons
        .iter()
        .map(|d| (d.report_resources(), d.vsns().map(|v| v.id.0).collect()))
        .collect();
    let records: Vec<_> = master.services().collect();
    format!("{hosts:?} {records:?}")
}

fn spec(n: u32, i: usize) -> ServiceSpec {
    ServiceSpec {
        name: format!("svc{i}"),
        image: RootFsCatalog::new().base_1_0(),
        required_services: vec!["network", "syslogd"],
        app_class: StartupClass::Light,
        instances: n,
        machine: ResourceVector::TABLE1_EXAMPLE,
        port: 8080,
    }
}

/// Six mixed hosts, seattle and tacoma alternating: a two-cell plane
/// gives each cell a seattle, a tacoma and one more.
fn mixed_fleet() -> Vec<SodaDaemon> {
    (1..=6u32)
        .map(|i| {
            let pool = IpPool::new(format!("10.1.{i}.0").parse().unwrap(), 16);
            SodaDaemon::new(if i % 2 == 1 {
                HupHost::seattle(HostId(i), pool)
            } else {
                HupHost::tacoma(HostId(i), pool)
            })
        })
        .collect()
}

fn check_invariants(master: &SodaMaster, daemons: &[SodaDaemon], live: &[ServiceId]) {
    // Ledger conservation per host.
    for d in daemons {
        let cap = d.host.ledger.capacity();
        assert_eq!(d.host.ledger.available() + d.host.ledger.reserved(), cap);
    }
    // Config files agree with records for every live service.
    for &svc in live {
        let rec = master.service(svc).expect("live service exists");
        if rec.state == ServiceState::Running {
            if let Some(sw) = master.switch(svc) {
                assert_eq!(
                    sw.config().total_capacity(),
                    rec.placed_capacity(),
                    "{svc}: config/capacity drift"
                );
                assert_eq!(sw.config().len(), rec.nodes.len());
                // The switch's incremental view cache and aggregates
                // must survive a from-scratch recompute after every
                // master op (resize/upgrade/migrate/teardown).
                sw.assert_cache_coherent();
            }
        }
    }
    // IP pool accounting: in-use addresses equal bridge mappings.
    for d in daemons {
        assert_eq!(
            d.host.ip_pool.in_use() as usize,
            d.host.bridge.mappings(),
            "{}: pool/bridge drift",
            d.host.name
        );
    }
}

proptest! {
    #[test]
    fn master_survives_arbitrary_op_sequences(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let mut master = SodaMaster::new();
        let mut daemons = testbed();
        let baseline: Vec<ResourceVector> =
            daemons.iter().map(|d| d.report_resources()).collect();
        let mut live: Vec<ServiceId> = Vec::new();
        let now = SimTime::ZERO;
        for (i, op) in ops.into_iter().enumerate() {
            let before = platform_state(&master, &daemons);
            match op {
                Op::Create { instances } => {
                    let spec = spec(instances, i);
                    let m_infl = master.inflated_machine(&spec.machine);
                    let roster: Vec<(HostId, ResourceVector)> = daemons
                        .iter()
                        .map(|d| (d.host.id, d.report_resources()))
                        .collect();
                    match master.create_service_now(spec, "asp", &mut daemons, now) {
                        Ok(reply) => {
                            let placed: Vec<NodePlan> = master
                                .service(reply.service)
                                .expect("created")
                                .nodes
                                .iter()
                                .map(|n| NodePlan { host: n.host, instances: n.capacity })
                                .collect();
                            prop_assert_eq!(Some(placed), WorstFit.place(instances, &m_infl, &roster));
                            live.push(reply.service);
                        }
                        Err(_) => prop_assert_eq!(&platform_state(&master, &daemons), &before),
                    }
                }
                Op::Resize { which, new_instances } => {
                    if let Some(&svc) = live.get(which % live.len().max(1)) {
                        if master.resize(svc, new_instances, &mut daemons, now).is_err() {
                            prop_assert_eq!(&platform_state(&master, &daemons), &before);
                        }
                    }
                }
                Op::Migrate { which, target } => {
                    if let Some(&svc) = live.get(which % live.len().max(1)) {
                        let node = master.service(svc).and_then(|r| r.nodes.first().copied());
                        if let Some(node) = node {
                            match master.migrate(svc, node.vsn, HostId(target), &mut daemons, now) {
                                Ok(mig) => master
                                    .complete_migration(&mig, &mut daemons, now)
                                    .expect("migration completes"),
                                Err(_) => prop_assert_eq!(&platform_state(&master, &daemons), &before),
                            }
                        }
                    }
                }
                Op::Teardown { which } => {
                    if !live.is_empty() {
                        let svc = live.remove(which % live.len());
                        master.teardown(svc, &mut daemons).expect("live teardown succeeds");
                    }
                }
                Op::CrashNode { which } => {
                    if let Some(&svc) = live.get(which % live.len().max(1)) {
                        let node = master.service(svc).and_then(|r| r.nodes.first().copied());
                        if let Some(node) = node {
                            if let Some(d) =
                                daemons.iter_mut().find(|d| d.host.id == node.host)
                            {
                                if d.vsn(node.vsn).is_some_and(|v| v.is_running()) {
                                    d.crash_vsn(node.vsn, SimTime::ZERO).expect("running node crashes");
                                    master.node_crashed(svc, node.vsn);
                                }
                            }
                        }
                    }
                }
            }
            check_invariants(&master, &daemons, &live);
        }
        // Drain: tear everything down; the HUP returns to pristine.
        for svc in live {
            master.teardown(svc, &mut daemons).expect("final teardown");
        }
        let after: Vec<ResourceVector> =
            daemons.iter().map(|d| d.report_resources()).collect();
        prop_assert_eq!(after, baseline);
        for d in &daemons {
            prop_assert_eq!(d.vsn_count(), 0);
            prop_assert!(d.host.processes.is_empty());
            prop_assert_eq!(d.host.bridge.mappings(), 0);
            prop_assert_eq!(d.host.ip_pool.in_use(), 0);
        }
    }

    /// Inline compaction is a pure optimisation: for any op sequence,
    /// replaying a journal that compacts aggressively (every 4 entries)
    /// must rebuild state identical — fingerprint, id counters, epoch —
    /// to replaying the full uncompacted stream, after every single
    /// append, not just at the end.
    #[test]
    fn journal_compaction_equivalence(ops in proptest::collection::vec(op_strategy(), 1..48)) {
        let mut master = SodaMaster::new();
        let mut daemons = testbed();
        let genesis = master.snapshot(1);
        let mut compacted = Journal::new(genesis.clone(), 4);
        let mut full = Journal::new(genesis, usize::MAX);
        let mut live: Vec<ServiceId> = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            let now = SimTime::from_secs(i as u64);
            // (op kind, touched service, post-transition record)
            let entry: Option<(JournalOp, ServiceId, Option<ServiceRecord>)> = match op {
                Op::Create { instances } => master
                    .create_service_now(spec(instances, i), "asp", &mut daemons, now)
                    .ok()
                    .map(|reply| {
                        live.push(reply.service);
                        let rec = master.service(reply.service).expect("admitted");
                        (JournalOp::Admission, reply.service, Some(rec.clone()))
                    }),
                Op::Resize { which, new_instances } => {
                    live.get(which % live.len().max(1)).copied().and_then(|svc| {
                        master.resize(svc, new_instances, &mut daemons, now).ok().map(|_| {
                            let rec = master.service(svc).expect("resized");
                            (JournalOp::Resize, svc, Some(rec.clone()))
                        })
                    })
                }
                Op::Teardown { which } => {
                    if live.is_empty() {
                        None
                    } else {
                        let svc = live.remove(which % live.len());
                        master.teardown(svc, &mut daemons).expect("live teardown succeeds");
                        Some((JournalOp::Teardown, svc, None))
                    }
                }
                // Migrations are driven outside the journaled API.
                Op::Migrate { .. } => None,
                Op::CrashNode { which } => {
                    live.get(which % live.len().max(1)).copied().and_then(|svc| {
                        let node = master.service(svc).and_then(|r| r.nodes.first().copied())?;
                        let d = daemons.iter_mut().find(|d| d.host.id == node.host)?;
                        if !d.vsn(node.vsn).is_some_and(|v| v.is_running()) {
                            return None;
                        }
                        d.crash_vsn(node.vsn, now).expect("running node crashes");
                        master.node_crashed(svc, node.vsn);
                        let rec = master.service(svc).expect("record survives crash");
                        Some((JournalOp::Recovery, svc, Some(rec.clone())))
                    })
                }
            };
            // Counters ride every entry, exactly as the world journals them.
            let snap = master.snapshot(compacted.epoch());
            let counters = (snap.next_service, snap.next_vsn);
            if let Some((op, svc, rec)) = entry {
                compacted.append(now, op, svc, None, rec.clone(), counters);
                full.append(now, op, svc, None, rec, counters);
            }
            // A takeover mid-stream must not break the equivalence either.
            if i % 13 == 12 {
                compacted.bump_epoch(now, counters);
                full.bump_epoch(now, counters);
            }
            let a = compacted.rebuild();
            let b = full.rebuild();
            prop_assert_eq!(a.fingerprint(), b.fingerprint(), "divergence after op {}", i);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(compacted.epoch(), full.epoch());
            prop_assert_eq!((a.next_service, a.next_vsn), (b.next_service, b.next_vsn));
        }
        prop_assert_eq!(full.checkpoints_taken(), 0, "the oracle stream never compacts");
        prop_assert_eq!(compacted.appended_total(), full.appended_total());
        if compacted.appended_total() >= 4 {
            prop_assert!(compacted.checkpoints_taken() > 0, "compaction actually fired");
        }
    }

    /// Driven creations under a two-cell control plane land exactly
    /// where worst-fit over the home cell's live roster puts them or,
    /// when the home cell has no plan, where worst-fit over the whole
    /// fleet does; a creation fails only when neither roster has a plan.
    /// A spill reserves slices on the peer cell's hosts, so this holds
    /// only if the peer's next admission sees them.
    #[test]
    fn sharded_creations_place_like_worst_fit(sizes in proptest::collection::vec(1u32..8, 1..24)) {
        let mut world = SodaWorld::new(mixed_fleet());
        world.configure_shards(ControlPlaneKind::Sharded(2));
        let mut engine = Engine::new(world);
        for (i, n) in sizes.into_iter().enumerate() {
            // Home cells are dealt round-robin.
            let world = engine.state();
            let home = world.cell_range(ShardId(i as u32 % 2));
            let m_infl = world.master_of(ShardId(0)).inflated_machine(&ResourceVector::TABLE1_EXAMPLE);
            let roster: Vec<(HostId, ResourceVector)> = world
                .daemons
                .iter()
                .map(|d| (d.host.id, d.report_resources()))
                .collect();
            let expected = WorstFit
                .place(n, &m_infl, &roster[home])
                .or_else(|| WorstFit.place(n, &m_infl, &roster));
            match create_service_driven(&mut engine, spec(n, i), "asp") {
                Ok(svc) => {
                    let placed: Vec<NodePlan> = engine
                        .state()
                        .service_record(svc)
                        .expect("created")
                        .nodes
                        .iter()
                        .map(|n| NodePlan { host: n.host, instances: n.capacity })
                        .collect();
                    prop_assert_eq!(Some(placed), expected, "creation {}", i);
                }
                Err(e) => prop_assert!(expected.is_none(), "creation {} failed: {:?}", i, e),
            }
        }
    }
}
