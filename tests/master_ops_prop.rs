//! Property test: arbitrary interleavings of the SODA API (create,
//! resize, teardown, crash, revive-prime) never violate the platform
//! invariants — ledger conservation, config-file/capacity agreement,
//! no leaked IPs/processes/bridge entries after everything is torn down
//! — and the Master's persistent admission index places exactly what a
//! fresh worst-fit placement over the live roster would.

use proptest::prelude::*;
use soda::core::journal::{Journal, JournalOp, ServiceSnapshot};
use soda::core::master::SodaMaster;
use soda::core::placement::{NodePlan, PlacementPolicy, WorstFit};
use soda::core::service::{ServiceId, ServiceSpec, ServiceState};
use soda::hostos::resources::ResourceVector;
use soda::hup::daemon::SodaDaemon;
use soda::hup::host::{HostId, HupHost};
use soda::net::pool::IpPool;
use soda::sim::SimTime;
use soda::vmm::rootfs::RootFsCatalog;
use soda::vmm::sysservices::StartupClass;

#[derive(Clone, Debug)]
enum Op {
    Create { instances: u32 },
    Resize { which: usize, new_instances: u32 },
    Teardown { which: usize },
    CrashNode { which: usize },
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
    ]
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
            match op {
                Op::Create { instances } => {
                    let spec = spec(instances, i);
                    let m_infl = master.inflated_machine(&spec.machine);
                    let roster: Vec<(HostId, ResourceVector)> = daemons
                        .iter()
                        .map(|d| (d.host.id, d.report_resources()))
                        .collect();
                    if let Ok(reply) = master.create_service_now(spec, "asp", &mut daemons, now) {
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
                }
                Op::Resize { which, new_instances } => {
                    if let Some(&svc) = live.get(which % live.len().max(1)) {
                        let _ = master.resize(svc, new_instances, &mut daemons, now);
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
            let entry: Option<(JournalOp, ServiceId, Option<ServiceSnapshot>)> = match op {
                Op::Create { instances } => master
                    .create_service_now(spec(instances, i), "asp", &mut daemons, now)
                    .ok()
                    .map(|reply| {
                        live.push(reply.service);
                        let rec = master.service(reply.service).expect("admitted");
                        (JournalOp::Admission, reply.service, Some(ServiceSnapshot::capture(rec)))
                    }),
                Op::Resize { which, new_instances } => {
                    live.get(which % live.len().max(1)).copied().and_then(|svc| {
                        master.resize(svc, new_instances, &mut daemons, now).ok().map(|_| {
                            let rec = master.service(svc).expect("resized");
                            (JournalOp::Resize, svc, Some(ServiceSnapshot::capture(rec)))
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
                        Some((JournalOp::Recovery, svc, Some(ServiceSnapshot::capture(rec))))
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
}
