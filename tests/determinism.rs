//! Whole-system determinism: identical seeds reproduce the entire
//! trajectory bit-for-bit (the property that makes every regenerated
//! table and figure reproducible), and different seeds genuinely
//! diverge.

use soda::core::service::ServiceSpec;
use soda::core::shard::ControlPlaneKind;
use soda::core::world::SodaWorld;
use soda::hostos::resources::ResourceVector;
use soda::sim::{Engine, SimDuration, SimTime};
use soda::vmm::rootfs::RootFsCatalog;
use soda::vmm::sysservices::StartupClass;
use soda::workload::httpgen::PoissonGenerator;
use soda_bench::experiments::scale::{self, ScaleConfig};

fn trajectory(seed: u64) -> Vec<(u64, u64)> {
    let mut engine = Engine::with_seed(SodaWorld::testbed(), seed);
    let spec = ServiceSpec {
        name: "web".into(),
        image: RootFsCatalog::new().base_1_0(),
        required_services: vec!["network", "syslogd"],
        app_class: StartupClass::Light,
        instances: 3,
        machine: ResourceVector::TABLE1_EXAMPLE,
        port: 8080,
    };
    let svc = soda::core::world::create_service_driven(&mut engine, spec, "webco").unwrap();
    engine.run_until(SimTime::from_secs(60));
    let t0 = engine.now();
    PoissonGenerator {
        service: svc,
        dataset_bytes: 30_000,
        rate_rps: 25.0,
        start: t0,
        end: t0 + SimDuration::from_secs(30),
    }
    .start(&mut engine);
    engine.run_until(t0 + SimDuration::from_secs(90));
    engine
        .state()
        .completed
        .iter()
        .map(|r| (r.issued.as_nanos(), r.completed.as_nanos()))
        .collect()
}

#[test]
fn same_seed_same_world() {
    let a = trajectory(42);
    let b = trajectory(42);
    assert!(!a.is_empty());
    assert_eq!(a, b, "identical seeds must replay identically");
}

#[test]
fn different_seeds_diverge() {
    let a = trajectory(42);
    let c = trajectory(43);
    assert_ne!(a, c, "different seeds must differ");
}

/// The utility-scale X-SCALE run is as deterministic as the two-host
/// testbed: same seed, same fingerprints — and observability, which
/// rides the hot paths (switch routing, completion accounting), must
/// observe without perturbing the trajectory.
#[test]
fn scale_run_is_deterministic_and_obs_transparent() {
    let cfg = ScaleConfig {
        hosts: 100,
        requests: 100_000,
        seed: 1303,
        obs: true,
        ..ScaleConfig::default()
    };
    let a = scale::run(&cfg);
    let b = scale::run(&cfg);
    assert_eq!(a.completed + a.dropped, cfg.requests);
    assert_eq!(
        a.trajectory_fingerprint, b.trajectory_fingerprint,
        "identical seeds must replay identically at 100 hosts"
    );
    assert_eq!(
        a.event_fingerprint, b.event_fingerprint,
        "the event log must replay identically too"
    );
    assert_eq!(a.events, b.events);

    let dark = scale::run(&ScaleConfig { obs: false, ..cfg });
    assert_eq!(
        dark.trajectory_fingerprint, a.trajectory_fingerprint,
        "turning observability on must not move the trajectory"
    );
    assert_eq!(dark.events, a.events);
    assert_eq!(dark.event_fingerprint, 0, "obs off records nothing");
}

/// The single-cell control plane is pinned: the utility-scale
/// 100-host / 100k-request run, the chaos soak (with and without Master
/// crashes) and the Master-failover drill reproduce fixed trajectory
/// and event-log fingerprints, as does the same scale run and soak on
/// four cells. Any change to what the control plane decides, or in
/// which order, moves one of them.
#[test]
fn control_plane_runs_match_pinned_fingerprints() {
    use soda_bench::experiments::{chaos_soak, master_failover};

    let cfg = ScaleConfig {
        hosts: 100,
        requests: 100_000,
        seed: 1303,
        obs: true,
        ..ScaleConfig::default()
    };
    let one = scale::run(&cfg);
    assert_eq!(one.shards, 1);
    assert_eq!(one.trajectory_fingerprint, 0x754c_ac35_766d_6201);
    assert_eq!(one.event_fingerprint, 0x7c01_bb00_95cf_8397);
    assert_eq!(one.events, 316_000);
    assert_eq!(one.shard_spills, 0, "a single cell never spills");
    assert_eq!(one.shard_msgs_sent, 0, "a single cell never messages");

    let four = scale::run(&ScaleConfig {
        kind: ControlPlaneKind::Sharded(4),
        ..cfg
    });
    assert_eq!(four.trajectory_fingerprint, 0x1072_c6d4_cfd4_2e31);
    assert_eq!(four.event_fingerprint, 0xc8df_dbbd_c8c6_4ba7);

    let soak = chaos_soak::run(11);
    assert_eq!(soak.event_fingerprint, 0x989e_1554_7c1d_c81f);
    assert_eq!(soak.completed, 5765);
    assert_eq!(soak.dropped, 26);
    let (crashing, _) = chaos_soak::run_with_faults(11, 2);
    assert_eq!(crashing.event_fingerprint, 0xf06d_c95d_e153_d0a1);
    let (four_soak, _) = chaos_soak::run_with_kind(11, ControlPlaneKind::Sharded(4));
    assert_eq!(four_soak.event_fingerprint, 0x617d_79c2_b7cd_986a);

    assert_eq!(
        master_failover::run(11).event_fingerprint,
        0x7a6f_3397_3bee_62dc
    );
}

/// The xl tier's shape — two instances per service on a 16-cell
/// sharded control plane — shrunk to a debug-build size and pinned:
/// trajectory and event-log fingerprints and the event count. The
/// values were produced by the X-SCALE harness before it became the
/// one-cell run of the cell-partitioned harness.
#[test]
fn xl_shape_matches_pinned_fingerprints() {
    let r = scale::run(&ScaleConfig {
        hosts: 32,
        requests: 20_000,
        seed: 1303,
        obs: true,
        instances: 2,
        kind: ControlPlaneKind::Sharded(16),
        ..ScaleConfig::default()
    });
    assert_eq!(r.shards, 16);
    assert_eq!(r.vsns, 2 * r.services);
    assert_eq!(r.trajectory_fingerprint, 0xb90f_6372_492f_469d);
    assert_eq!(r.event_fingerprint, 0x8434_41b2_b37d_1c82);
    assert_eq!(r.events, 70_960);
}

/// A sharded plane with four cells keeps the conservation law on the
/// utility-scale run: every service admits, every instance places,
/// every request completes or is counted dropped.
#[test]
fn four_cells_conserve_at_scale() {
    use soda_bench::experiments::scale::SERVICES_PER_HOST;

    let cfg = ScaleConfig {
        hosts: 100,
        requests: 100_000,
        seed: 1303,
        kind: ControlPlaneKind::Sharded(4),
        ..ScaleConfig::default()
    };
    let four = scale::run(&cfg);
    assert_eq!(four.shards, 4);
    assert_eq!(
        four.services,
        100 * SERVICES_PER_HOST,
        "every service admits"
    );
    assert_eq!(four.vsns, 4 * four.services, "every instance places");
    assert_eq!(
        four.completed + four.dropped,
        cfg.requests,
        "conservation holds under four cells"
    );
}

#[test]
fn engine_event_count_is_reproducible() {
    let count = |seed| {
        let mut engine = Engine::with_seed(SodaWorld::testbed(), seed);
        let spec = ServiceSpec {
            name: "web".into(),
            image: RootFsCatalog::new().tomsrtbt(),
            required_services: vec!["network"],
            app_class: StartupClass::Light,
            instances: 1,
            machine: ResourceVector::TABLE1_EXAMPLE,
            port: 80,
        };
        soda::core::world::create_service_driven(&mut engine, spec, "a").unwrap();
        engine.run_until(SimTime::from_secs(60));
        engine.events_executed()
    };
    assert_eq!(count(7), count(7));
}

/// The parallel engine's differential gate at utility scale: the
/// conservative epoch-synchronized runner must replay the serial
/// oracle bit-for-bit on the 100-host / 100k-request run — trajectory
/// fingerprint, event-log fingerprint and event count — for every
/// thread count, including `Parallel(1)`. The merge order at the epoch
/// barriers, not thread scheduling, decides every cross-cell tie, so
/// divergence at any n is a bug, not noise.
#[test]
fn parallel_engine_replays_the_serial_oracle_at_scale() {
    use soda::sim::EngineKind;

    let cfg = ScaleConfig {
        hosts: 100,
        requests: 100_000,
        seed: 1303,
        cells: 8,
        obs: true,
        ..ScaleConfig::default()
    };
    let serial = scale::run(&cfg);
    assert_eq!(serial.completed + serial.dropped, cfg.requests);
    assert!(serial.remote_msgs > 0, "cross-cell traffic must flow");
    for n in [1, 2, 4, 8] {
        let par = scale::run(&ScaleConfig {
            engine: EngineKind::Parallel(n),
            ..cfg
        });
        assert_eq!(
            par.trajectory_fingerprint, serial.trajectory_fingerprint,
            "Parallel({n}) must walk the serial oracle's exact trajectory"
        );
        assert_eq!(
            par.event_fingerprint, serial.event_fingerprint,
            "Parallel({n}) must write the serial oracle's exact event log"
        );
        assert_eq!(par.events, serial.events);
        assert_eq!(par.remote_msgs, serial.remote_msgs);
        assert_eq!(par.epochs, serial.epochs);
    }
}
