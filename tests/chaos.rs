//! Chaos integration: the deterministic fault engine and the
//! self-healing control loop, exercised across crate boundaries.
//!
//! Covers the acceptance criterion (same `(seed, FaultPlan)` → an
//! identical run, event log included) plus the nasty edges: a host
//! dying while its node is still priming, both replicas failing,
//! failure landing mid-resize, and a flapping heartbeat that must be
//! rolled back rather than acted on twice.

use soda::core::config::ShardId;
use soda::core::error::SodaError;
use soda::core::journal::WorldSnapshot;
use soda::core::recovery::{self, RecoveryConfig};
use soda::core::service::{ServiceSpec, ServiceState};
use soda::core::world::{
    apply_fault, crash_host, create_service_driven, resize_service_driven, SodaWorld,
};
use soda::hostos::resources::ResourceVector;
use soda::hup::daemon::SodaDaemon;
use soda::hup::host::{HostId, HupHost};
use soda::net::pool::IpPool;
use soda::sim::{Engine, FaultSpec, SimDuration, SimTime};
use soda::vmm::rootfs::RootFsCatalog;
use soda::vmm::sysservices::StartupClass;
use soda::workload::httpgen::PoissonGenerator;
use soda_bench::experiments::chaos_soak;

fn web_spec(n: u32) -> ServiceSpec {
    ServiceSpec {
        name: "web".into(),
        image: RootFsCatalog::new().base_1_0(),
        required_services: vec!["network", "syslogd"],
        app_class: StartupClass::Light,
        instances: n,
        machine: ResourceVector::TABLE1_EXAMPLE,
        port: 8080,
    }
}

/// `n` seattle-class hosts, optionally followed by a tacoma spare.
fn hup(seattles: u32, tacoma_spare: bool) -> Vec<SodaDaemon> {
    let mut daemons: Vec<SodaDaemon> = (1..=seattles)
        .map(|i| {
            SodaDaemon::new(HupHost::seattle(
                HostId(i),
                IpPool::new(format!("10.0.{i}.0").parse().expect("valid"), 8),
            ))
        })
        .collect();
    if tacoma_spare {
        let id = seattles + 1;
        daemons.push(SodaDaemon::new(HupHost::tacoma(
            HostId(id),
            IpPool::new(format!("10.0.{id}.0").parse().expect("valid"), 8),
        )));
    }
    daemons
}

/// Every placed node is running on a live host, none sits on `dead`.
fn assert_recovered_off_host(world: &SodaWorld, service: soda::core::ServiceId, dead: HostId) {
    let rec = world.service_record(service).expect("record exists");
    for n in &rec.nodes {
        assert_ne!(n.host, dead, "node still placed on the dead host");
        let d = world
            .daemons
            .iter()
            .find(|d| d.host.id == n.host)
            .expect("host exists");
        assert!(!d.is_failed(), "node placed on a failed host");
        assert!(
            d.vsn(n.vsn).is_some_and(|v| v.is_running()),
            "placed node {:?} not running",
            n.vsn
        );
    }
}

/// Acceptance: the whole chaos soak — fault plan, workload, heartbeat
/// loss draws, backoff jitter — replays bit-identically from the seed,
/// down to the fingerprint of the rendered event log.
#[test]
fn chaos_soak_is_deterministic() {
    let a = chaos_soak::run(11);
    let b = chaos_soak::run(11);
    assert_eq!(a, b, "same (seed, plan) must yield an identical run");
    assert!(a.faults_injected > 0);
    assert_eq!(a.invariant_violations, 0);
    // A different seed must actually change the trajectory.
    let c = chaos_soak::run(12);
    assert_ne!(
        a.event_fingerprint, c.event_fingerprint,
        "different seeds should not collide"
    );
}

/// Four placement cells run the soak — fault plan, heartbeat loss
/// draws, backoff jitter and all — keeping the routing invariant and
/// serving throughout.
#[test]
fn four_cell_soak_holds_invariants() {
    use soda::core::shard::ControlPlaneKind;
    let (four, _) = chaos_soak::run_with_kind(11, ControlPlaneKind::Sharded(4));
    assert_eq!(four.shards, 4);
    assert_eq!(four.invariant_violations, 0);
    assert!(four.completed > 1000, "four cells keep serving");
}

/// Differential gate at the chaos tier, storage axis: the dense arena
/// data plane runs the soak — host crashes churning slots through
/// free/reuse, scrubs, re-placements — bit-identically to the
/// ordered-map oracle. Chaos is the hard case for the arenas: a clean
/// run only ever grows the tables, while the fault plan exercises
/// generation bumps and freelist reuse under live traffic.
#[test]
fn arena_soak_matches_map_oracle() {
    use soda::core::WorldStorageKind;
    let (arena, _) = chaos_soak::run_with_storage(11, WorldStorageKind::Arena);
    let (map, _) = chaos_soak::run_with_storage(11, WorldStorageKind::Map);
    assert_eq!(
        arena, map,
        "the arena soak must match the map oracle field for field"
    );
    assert!(arena.faults_injected > 0);
    assert_eq!(arena.invariant_violations, 0);
}

/// A host dies while its node is still downloading the service image.
/// The creation must still complete (on replacement capacity) and the
/// service must end at full strength with nothing on the dead host.
#[test]
fn host_death_during_priming_still_converges() {
    let mut engine = Engine::with_seed(SodaWorld::new(hup(2, true)), 5);
    engine.state_mut().enable_obs(1 << 14);
    recovery::start_self_healing(
        &mut engine,
        RecoveryConfig::default(),
        SimTime::from_secs(200),
    );
    let svc = create_service_driven(&mut engine, web_spec(3), "webco").expect("admitted");
    let victim = engine.state().service_record(svc).expect("exists").nodes[0].host;
    // Mid-download: the image transfer takes a couple of seconds.
    engine.schedule_at(SimTime::from_millis(1200), move |w: &mut SodaWorld, ctx| {
        crash_host(w, ctx, victim);
    });
    engine.run_until(SimTime::from_secs(200));

    let w = engine.state_mut();
    assert_eq!(w.creations.len(), 1, "creation completes despite the crash");
    let rec = w.service_record(svc).expect("exists");
    assert_eq!(rec.placed_capacity(), 3, "full capacity restored");
    assert_eq!(rec.state, ServiceState::Running);
    assert!(
        !w.recovery_of(ShardId(0)).stats.recoveries.is_empty(),
        "an episode closed"
    );
    assert_recovered_off_host(w, svc, victim);
    assert_eq!(recovery::check_invariants(w), 0);
}

/// A link partition *shorter than the heartbeat timeout* severs a
/// node's image download mid-flight. The host is never declared down,
/// so no host-level detection will ever clean the node up: severing the
/// download must itself fail the node's priming so the creation still
/// completes and the lost capacity is re-placed (regression: the node
/// used to stay stuck in `Priming` forever).
#[test]
fn short_partition_during_priming_still_converges() {
    let mut engine = Engine::with_seed(SodaWorld::new(hup(2, true)), 7);
    engine.state_mut().enable_obs(1 << 14);
    recovery::start_self_healing(
        &mut engine,
        RecoveryConfig::default(),
        SimTime::from_secs(200),
    );
    let svc = create_service_driven(&mut engine, web_spec(3), "webco").expect("admitted");
    let victim = engine.state().service_record(svc).expect("exists").nodes[0].host;
    // Partition for 2 s — below the 3.5 s heartbeat timeout — while the
    // image transfer (a couple of seconds) is still in flight.
    engine.schedule_at(SimTime::from_millis(1200), move |w: &mut SodaWorld, ctx| {
        apply_fault(
            w,
            ctx,
            soda::sim::FaultSpec::LinkPartition {
                host: u64::from(victim.0),
                duration: SimDuration::from_secs(2),
            },
        );
    });
    engine.run_until(SimTime::from_secs(200));

    let w = engine.state_mut();
    assert_eq!(
        w.creations.len(),
        1,
        "creation completes despite the severed download"
    );
    let rec = w.service_record(svc).expect("exists");
    assert_eq!(rec.placed_capacity(), 3, "full capacity restored");
    assert_eq!(rec.state, ServiceState::Running);
    assert_eq!(w.master_for(svc).healthy_capacity(svc), 3);
    assert_eq!(recovery::check_invariants(w), 0);
}

/// Both hosts carrying the service fail a few seconds apart. The
/// control loop must re-place every lost node on the survivors.
#[test]
fn double_failure_of_both_replicas_recovers() {
    let mut engine = Engine::with_seed(SodaWorld::new(hup(3, true)), 9);
    engine.state_mut().enable_obs(1 << 14);
    recovery::start_self_healing(
        &mut engine,
        RecoveryConfig::default(),
        SimTime::from_secs(300),
    );
    let svc = create_service_driven(&mut engine, web_spec(3), "webco").expect("admitted");
    engine.run_until(SimTime::from_secs(30));
    let nodes = &engine.state().service_record(svc).expect("exists").nodes;
    let hosts: Vec<HostId> = {
        let mut hs: Vec<HostId> = nodes.iter().map(|n| n.host).collect();
        hs.dedup();
        hs
    };
    assert!(hosts.len() >= 2, "service spread over two hosts");
    let (h1, h2) = (hosts[0], hosts[1]);
    engine.schedule_at(SimTime::from_secs(40), move |w: &mut SodaWorld, ctx| {
        crash_host(w, ctx, h1);
    });
    // The second failure lands while the first recovery is in flight.
    engine.schedule_at(SimTime::from_secs(47), move |w: &mut SodaWorld, ctx| {
        crash_host(w, ctx, h2);
    });
    engine.run_until(SimTime::from_secs(300));

    let w = engine.state_mut();
    let rec = w.service_record(svc).expect("exists");
    assert_eq!(rec.placed_capacity(), 3, "all lost capacity re-placed");
    assert_eq!(w.master_for(svc).healthy_capacity(svc), 3);
    assert!(
        w.recovery_of(ShardId(0)).stats.recoveries.len() >= 2,
        "both episodes closed"
    );
    assert_recovered_off_host(w, svc, h1);
    assert_recovered_off_host(w, svc, h2);
    assert_eq!(recovery::check_invariants(w), 0);
}

/// A host fails while a resize is still priming its new node. Both the
/// lost capacity and the resize target must be honoured in the end.
#[test]
fn failure_during_resize_in_flight_converges() {
    let mut engine = Engine::with_seed(SodaWorld::new(hup(3, true)), 3);
    engine.state_mut().enable_obs(1 << 14);
    recovery::start_self_healing(
        &mut engine,
        RecoveryConfig::default(),
        SimTime::from_secs(300),
    );
    let svc = create_service_driven(&mut engine, web_spec(2), "webco").expect("admitted");
    engine.run_until(SimTime::from_secs(100));
    assert_eq!(engine.state().creations.len(), 1);

    // 2 → 8: in-place widening absorbs 4, the remaining 2 go to a
    // fresh node on a host not yet carrying the service.
    resize_service_driven(&mut engine, svc, 8).expect("resize admitted");
    // The new node is the one not yet running; its host is the victim.
    let victim = {
        let w = engine.state();
        w.service_record(svc)
            .expect("exists")
            .nodes
            .iter()
            .find(|n| {
                let d = w
                    .daemons
                    .iter()
                    .find(|d| d.host.id == n.host)
                    .expect("host");
                !d.vsn(n.vsn).is_some_and(|v| v.is_running())
            })
            .map(|n| n.host)
    };
    let now = engine.now();
    if let Some(victim) = victim {
        // Kill the host while the resize download is in flight.
        engine.schedule_at(now + SimDuration::from_millis(600), move |w, ctx| {
            crash_host(w, ctx, victim);
        });
        engine.run_until(SimTime::from_secs(300));

        let w = engine.state_mut();
        let rec = w.service_record(svc).expect("exists");
        assert_eq!(
            rec.placed_capacity(),
            8,
            "resize target met after the crash"
        );
        assert_eq!(rec.state, ServiceState::Running, "resize settles");
        assert_eq!(w.master_for(svc).healthy_capacity(svc), 8);
        assert_recovered_off_host(w, svc, victim);
        assert_eq!(recovery::check_invariants(w), 0);
    } else {
        panic!("resize to 8 should have placed a new node");
    }
}

/// A flapping host: partitions long enough to be declared down, then
/// comes back before a replacement lands. The loop must roll back the
/// declaration (false alarm), re-admit the backends, and never leak an
/// episode — twice in a row.
#[test]
fn heartbeat_flapping_rolls_back_cleanly() {
    let mut engine = Engine::with_seed(SodaWorld::testbed(), 21);
    engine.state_mut().enable_obs(1 << 14);
    recovery::start_self_healing(
        &mut engine,
        RecoveryConfig::default(),
        SimTime::from_secs(300),
    );
    let svc = create_service_driven(&mut engine, web_spec(3), "webco").expect("admitted");
    engine.run_until(SimTime::from_secs(120));
    assert_eq!(engine.state().master_for(svc).healthy_capacity(svc), 3);

    for start in [120u64, 140u64] {
        // Partition seattle for 8 s: past the 3.5 s heartbeat timeout,
        // but healed before any replacement can land (the spare tacoma
        // cannot fit the lost two-instance node, so placement retries).
        engine
            .state_mut()
            .control
            .partition(1, SimTime::from_secs(start + 8));
        engine.run_until(SimTime::from_secs(start + 20));
        let w = engine.state_mut();
        assert_eq!(
            w.master_for(svc).healthy_capacity(svc),
            3,
            "capacity restored after the flap at t={start}"
        );
        assert_eq!(
            w.recovery_of(ShardId(0)).open_episodes(),
            0,
            "no episode leaked"
        );
        assert_eq!(recovery::check_invariants(w), 0);
    }
    let w = engine.state();
    assert!(
        w.recovery_of(ShardId(0)).stats.false_alarms >= 2,
        "each flap is rolled back as a false alarm: {:?}",
        w.recovery_of(ShardId(0)).stats
    );
    assert!(w.recovery_of(ShardId(0)).stats.detections.len() >= 2);
    assert_eq!(
        w.recovery_of(ShardId(0)).stats.recoveries.len(),
        0,
        "no replacement should have completed"
    );
    // The original placement survives intact.
    let rec = w.service_record(svc).expect("exists");
    assert_eq!(rec.placed_capacity(), 3);
    for n in &rec.nodes {
        let d = w
            .daemons
            .iter()
            .find(|d| d.host.id == n.host)
            .expect("host");
        assert!(d.vsn(n.vsn).is_some_and(|v| v.is_running()));
    }
}

/// FNV-1a over the rendered event log — the same fingerprint the soak
/// experiments gate on.
fn drain_fingerprint(world: &mut SodaWorld) -> u64 {
    let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
    if let Some(drained) = world.obs.drain_events() {
        for ev in &drained.events {
            for b in ev.to_string().bytes() {
                fp ^= u64::from(b);
                fp = fp.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    fp
}

/// The Master dies while a recovery episode is mid-flight — a host was
/// crashed, detection fired, and the replacement's image download is on
/// the wire. The crash wipes the episode table; the standby must
/// rebuild from checkpoint ⊕ journal, re-detect whatever is still
/// broken under the new epoch, and converge to full capacity with
/// nothing placed on the dead host — bit-identically across replays.
#[test]
fn master_crash_during_active_recovery_converges() {
    fn scenario(seed: u64) -> (u64, usize, u64, u64) {
        let mut engine = Engine::with_seed(SodaWorld::new(hup(3, true)), seed);
        engine.state_mut().enable_obs(1 << 15);
        recovery::start_self_healing(
            &mut engine,
            RecoveryConfig::default(),
            SimTime::from_secs(300),
        );
        let svc = create_service_driven(&mut engine, web_spec(3), "webco").expect("admitted");
        engine.run_until(SimTime::from_secs(49));
        assert_eq!(engine.state().creations.len(), 1, "creation finished");
        let victim = engine.state().service_record(svc).expect("exists").nodes[0].host;
        engine.schedule_at(SimTime::from_secs(50), move |w: &mut SodaWorld, ctx| {
            crash_host(w, ctx, victim);
        });
        // Detection lands ~53.5–54.5 s and opens an episode; the
        // replacement is still priming when the Master dies at 56.
        engine.schedule_at(SimTime::from_secs(56), |w: &mut SodaWorld, ctx| {
            assert!(
                w.recovery_of(ShardId(0)).open_episodes() > 0,
                "episode must be in flight"
            );
            assert!(
                w.journal_of(ShardId(0)).replay_len() > 0,
                "journal has a tail to replay"
            );
            apply_fault(w, ctx, FaultSpec::MasterCrash);
        });
        engine.run_until(SimTime::from_secs(300));
        let w = engine.state_mut();
        assert!(!w.master_is_down(), "standby took over");
        assert_eq!(w.failover.records.len(), 1, "exactly one takeover");
        let rec = w.failover.records[0];
        assert!(rec.replayed > 0, "takeover replayed the journal tail");
        assert_eq!(rec.epoch, 2, "epoch bumped exactly once");
        let svc_rec = w.service_record(svc).expect("record survived the crash");
        assert_eq!(svc_rec.placed_capacity(), 3, "full capacity restored");
        assert_recovered_off_host(w, svc, victim);
        assert_eq!(
            recovery::check_invariants(w),
            0,
            "never routed to a dead VSN"
        );
        (
            drain_fingerprint(w),
            rec.replayed,
            w.journal_of(ShardId(0)).epoch(),
            w.recovery_of(ShardId(0)).stats.retries,
        )
    }
    let a = scenario(11);
    let b = scenario(11);
    assert_eq!(a, b, "same seed must replay bit-identically");
}

/// The Master dies while admissions keep arriving. Every attempt during
/// the outage must be refused loudly (`MasterUnavailable`), never
/// silently queued against a dead control plane; once the standby takes
/// over, the whole backlog re-admits and every creation completes. The
/// data plane serves throughout — switches survive the crash.
#[test]
fn master_crash_with_admission_backlog() {
    fn scenario(seed: u64) -> (u64, usize, u64) {
        let mut engine = Engine::with_seed(SodaWorld::new(hup(4, false)), seed);
        engine.state_mut().enable_obs(1 << 15);
        recovery::start_self_healing(
            &mut engine,
            RecoveryConfig::default(),
            SimTime::from_secs(240),
        );
        let web = create_service_driven(&mut engine, web_spec(2), "webco").expect("admitted");
        // A slow standby (8 s watchdog) so the outage spans several
        // admission attempts.
        engine.state_mut().failover.detection_delay = SimDuration::from_secs(8);
        PoissonGenerator {
            service: web,
            dataset_bytes: 30_000,
            rate_rps: 10.0,
            start: SimTime::from_secs(20),
            end: SimTime::from_secs(120),
        }
        .start(&mut engine);
        engine.schedule_at(SimTime::from_secs(40), |w: &mut SodaWorld, ctx| {
            apply_fault(w, ctx, FaultSpec::MasterCrash);
        });
        // Control plane down 40 → ~48.05 s; three tenants knock.
        let mut backlog = Vec::new();
        for (t, asp) in [(41u64, "aco"), (43, "bco"), (45, "cco")] {
            engine.run_until(SimTime::from_secs(t));
            assert!(engine.state().master_is_down(), "still down at t={t}");
            match create_service_driven(&mut engine, web_spec(1), asp) {
                Err(SodaError::MasterUnavailable) => backlog.push(asp),
                other => panic!("expected MasterUnavailable at t={t}, got {other:?}"),
            }
        }
        engine.run_until(SimTime::from_secs(60));
        assert!(!engine.state().master_is_down(), "standby took over");
        let admitted: Vec<_> = backlog
            .into_iter()
            .map(|asp| create_service_driven(&mut engine, web_spec(1), asp).expect("retry admits"))
            .collect();
        assert_eq!(admitted.len(), 3, "whole backlog re-admitted");
        engine.run_until(SimTime::from_secs(240));
        let w = engine.state_mut();
        for svc in &admitted {
            assert!(
                w.creations.iter().any(|c| c.reply.service == *svc),
                "backlog creation {svc:?} completed"
            );
        }
        assert_eq!(w.failover.records.len(), 1, "exactly one takeover");
        assert!(
            !w.completed.is_empty(),
            "data plane served across the outage"
        );
        assert_eq!(recovery::check_invariants(w), 0);
        (drain_fingerprint(w), w.completed.len(), w.dropped)
    }
    let a = scenario(7);
    let b = scenario(7);
    assert_eq!(a, b, "same seed must replay bit-identically");
}

/// A second Master crash lands inside the first takeover's watchdog
/// window. The stale takeover must abort (generation guard) and the
/// clock restart from the second crash — exactly one takeover record,
/// latency honestly measured from the *original* outage, and the world
/// still converges.
#[test]
fn double_master_crash_before_standby_finishes_replay() {
    fn scenario(seed: u64) -> (u64, u64, u64) {
        let mut engine = Engine::with_seed(SodaWorld::new(hup(3, true)), seed);
        engine.state_mut().enable_obs(1 << 15);
        recovery::start_self_healing(
            &mut engine,
            RecoveryConfig::default(),
            SimTime::from_secs(240),
        );
        let svc = create_service_driven(&mut engine, web_spec(3), "webco").expect("admitted");
        engine.run_until(SimTime::from_secs(30));
        // First crash at 40 → watchdog fires ~42.05. The second crash
        // at 41 is inside that window.
        engine.schedule_at(SimTime::from_secs(40), |w: &mut SodaWorld, ctx| {
            apply_fault(w, ctx, FaultSpec::MasterCrash);
        });
        engine.schedule_at(SimTime::from_secs(41), |w: &mut SodaWorld, ctx| {
            assert!(w.master_is_down(), "first outage still in effect");
            apply_fault(w, ctx, FaultSpec::MasterCrash);
        });
        engine.run_until(SimTime::from_secs(240));
        let w = engine.state_mut();
        assert_eq!(
            w.failover.records.len(),
            1,
            "stale takeover aborted; exactly one completes"
        );
        let rec = w.failover.records[0];
        assert_eq!(
            rec.crashed_at,
            SimTime::from_secs(40),
            "latency measured from the original outage"
        );
        assert!(
            rec.recovered_at >= SimTime::from_secs(43),
            "takeover clock restarted by the second crash: {:?}",
            rec.recovered_at
        );
        assert_eq!(rec.epoch, 2, "one epoch bump for the whole double-crash");
        assert!(!w.master_is_down());
        assert_eq!(
            w.service_record(svc)
                .expect("record survived")
                .placed_capacity(),
            3
        );
        assert_eq!(recovery::check_invariants(w), 0);
        (
            drain_fingerprint(w),
            rec.recovered_at.as_nanos(),
            w.journal_of(ShardId(0)).epoch(),
        )
    }
    let a = scenario(13);
    let b = scenario(13);
    assert_eq!(a, b, "same seed must replay bit-identically");
}

/// Tier-1: a checkpoint taken mid-soak, rendered to text, parsed back
/// and restored into the world continues fingerprint-identically to the
/// run that never snapshotted — the snapshot is a faithful,
/// serializable image of the control plane (jitter RNG state included:
/// a host dies *after* the restore point and every detection/backoff
/// draw must be unperturbed).
#[test]
fn snapshot_roundtrip_continues_fingerprint_identically() {
    fn scenario(seed: u64, roundtrip: bool) -> (u64, usize, u64) {
        let mut engine = Engine::with_seed(SodaWorld::new(hup(3, true)), seed);
        engine.state_mut().enable_obs(1 << 15);
        recovery::start_self_healing(
            &mut engine,
            RecoveryConfig::default(),
            SimTime::from_secs(200),
        );
        let svc = create_service_driven(&mut engine, web_spec(3), "webco").expect("admitted");
        PoissonGenerator {
            service: svc,
            dataset_bytes: 30_000,
            rate_rps: 12.0,
            start: SimTime::from_secs(10),
            end: SimTime::from_secs(150),
        }
        .start(&mut engine);
        engine.run_until(SimTime::from_secs(100));
        if roundtrip {
            let snap = engine.state().snapshot_world(engine.now());
            let text = snap.render();
            let parsed = WorldSnapshot::parse(&text).expect("snapshot text parses back");
            assert_eq!(parsed, snap, "render → parse is lossless");
            assert_eq!(parsed.fingerprint(), snap.fingerprint());
            engine.state_mut().restore_world(&parsed);
        }
        engine.run_until(SimTime::from_secs(109));
        let victim = engine.state().service_record(svc).expect("exists").nodes[0].host;
        engine.schedule_at(SimTime::from_secs(110), move |w: &mut SodaWorld, ctx| {
            crash_host(w, ctx, victim);
        });
        engine.run_until(SimTime::from_secs(200));
        let w = engine.state_mut();
        assert_recovered_off_host(w, svc, victim);
        assert_eq!(recovery::check_invariants(w), 0);
        (drain_fingerprint(w), w.completed.len(), w.dropped)
    }
    let plain = scenario(21, false);
    let snapped = scenario(21, true);
    assert_eq!(snapped, plain, "round-trip must not perturb the run");
}

/// Snapshot → restore taken while an impairment window is ACTIVE —
/// mid-partition or mid-`SlowHost` — must also continue
/// fingerprint-identically: the snapshot captures control-plane state,
/// and restoring it must not cancel, double-apply, or time-shift the
/// in-flight fault windows.
#[test]
fn snapshot_mid_impairment_continues_fingerprint_identically() {
    fn scenario(seed: u64, fault: FaultSpec, roundtrip: bool) -> (u64, usize, u64) {
        let mut engine = Engine::with_seed(SodaWorld::new(hup(3, true)), seed);
        engine.state_mut().enable_obs(1 << 15);
        recovery::start_self_healing(
            &mut engine,
            RecoveryConfig::default(),
            SimTime::from_secs(200),
        );
        let svc = create_service_driven(&mut engine, web_spec(3), "webco").expect("admitted");
        PoissonGenerator {
            service: svc,
            dataset_bytes: 30_000,
            rate_rps: 12.0,
            start: SimTime::from_secs(10),
            end: SimTime::from_secs(150),
        }
        .start(&mut engine);
        // Impairment opens at t=95 s and stays open through t=125 s;
        // the snapshot lands at t=100 s, squarely inside the window.
        engine.schedule_at(SimTime::from_secs(95), move |w: &mut SodaWorld, ctx| {
            apply_fault(w, ctx, fault);
        });
        engine.run_until(SimTime::from_secs(100));
        if roundtrip {
            let snap = engine.state().snapshot_world(engine.now());
            let text = snap.render();
            let parsed = WorldSnapshot::parse(&text).expect("snapshot text parses back");
            assert_eq!(parsed, snap, "render → parse is lossless");
            engine.state_mut().restore_world(&parsed);
        }
        engine.run_until(SimTime::from_secs(200));
        let w = engine.state_mut();
        assert_eq!(recovery::check_invariants(w), 0);
        (drain_fingerprint(w), w.completed.len(), w.dropped)
    }
    let partition = FaultSpec::LinkPartition {
        host: 1,
        duration: SimDuration::from_secs(30),
    };
    let plain = scenario(33, partition, false);
    let snapped = scenario(33, partition, true);
    assert_eq!(
        snapped, plain,
        "snapshot mid-partition must not perturb the run"
    );

    let slow = FaultSpec::SlowHost {
        host: 1,
        factor: 4.0,
        duration: SimDuration::from_secs(30),
    };
    let plain = scenario(34, slow, false);
    let snapped = scenario(34, slow, true);
    assert_eq!(
        snapped, plain,
        "snapshot mid-SlowHost must not perturb the run"
    );
}

/// The parallel engine under chaos: per-cell fault plans, heartbeat
/// draws, self-healing episodes and invariant sweeps must replay the
/// serial oracle bit-identically on real threads — the epoch barriers
/// see recovery traffic and mass cancellations, not just the steady
/// state.
#[test]
fn parallel_engine_replays_serial_on_a_chaos_seed() {
    use soda::sim::EngineKind;
    use soda_bench::experiments::parallel::{self, ParallelConfig};

    let cfg = ParallelConfig {
        hosts: 8,
        requests: 20_000,
        seed: 1303,
        cells: 4,
        obs: true,
        chaos: true,
        ..ParallelConfig::default()
    };
    let serial = parallel::run(&cfg);
    assert!(serial.completed > 1000, "the fleet keeps serving");
    for n in [2, 4] {
        let par = parallel::run(&ParallelConfig {
            engine: EngineKind::Parallel(n),
            ..cfg
        });
        assert_eq!(
            par.trajectory_fingerprint, serial.trajectory_fingerprint,
            "Parallel({n}) chaos trajectory diverged from serial"
        );
        assert_eq!(
            par.event_fingerprint, serial.event_fingerprint,
            "Parallel({n}) chaos event log diverged from serial"
        );
        assert_eq!(par.events, serial.events);
    }
}
