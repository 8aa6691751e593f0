//! Robustness of the control-plane checkpoint parser: a truncated or
//! byte-mutated rendering of a live `WorldSnapshot` must be rejected
//! with `None` (or, for a mutation that still spells a valid snapshot,
//! parse to one that round-trips) — never a panic.

use std::sync::OnceLock;

use proptest::prelude::*;
use soda::core::journal::WorldSnapshot;
use soda::core::recovery::{self, RecoveryConfig};
use soda::core::service::ServiceSpec;
use soda::core::world::{crash_host, create_service_driven, SodaWorld};
use soda::hostos::resources::ResourceVector;
use soda::hup::daemon::SodaDaemon;
use soda::hup::host::{HostId, HupHost};
use soda::net::pool::IpPool;
use soda::sim::{Engine, SimTime};
use soda::vmm::rootfs::RootFsCatalog;
use soda::vmm::sysservices::StartupClass;

/// Replacement bytes for mutations: JSON structure, number and literal
/// characters, plus a few that are never valid outside a string.
const ALPHABET: &[u8] = b"{}[]:,\"\\-+.0123456789eEtrufalsn xZ\x00\x7f";

/// The rendering of a live 3-host world after one host crashed and its
/// node was re-placed: the snapshot carries a service record, heartbeat
/// beliefs (one host down), the jitter RNG state and recovery stats.
fn live_snapshot() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let daemons = (1..=3)
            .map(|i| {
                SodaDaemon::new(HupHost::seattle(
                    HostId(i),
                    IpPool::new(format!("10.0.{i}.0").parse().expect("valid"), 8),
                ))
            })
            .collect();
        let mut engine = Engine::with_seed(SodaWorld::new(daemons), 5);
        recovery::start_self_healing(
            &mut engine,
            RecoveryConfig::default(),
            SimTime::from_secs(90),
        );
        let spec = ServiceSpec {
            name: "web".into(),
            image: RootFsCatalog::new().base_1_0(),
            required_services: vec!["network", "syslogd"],
            app_class: StartupClass::Light,
            instances: 2,
            machine: ResourceVector::TABLE1_EXAMPLE,
            port: 8080,
        };
        let svc = create_service_driven(&mut engine, spec, "webco").expect("admitted");
        engine.run_until(SimTime::from_secs(40));
        let victim = engine.state().service_record(svc).expect("exists").nodes[0].host;
        engine.schedule_at(SimTime::from_secs(41), move |w: &mut SodaWorld, ctx| {
            crash_host(w, ctx, victim);
        });
        engine.run_until(SimTime::from_secs(60));
        let snap = engine.state().snapshot_world(engine.now());
        let text = snap.render();
        assert_eq!(
            WorldSnapshot::parse(&text),
            Some(snap),
            "the intact text parses"
        );
        assert!(
            text.is_ascii(),
            "substitutions below keep the text valid UTF-8"
        );
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn truncated_or_mutated_snapshots_never_panic(
        cut in any::<usize>(),
        edits in proptest::collection::vec((any::<usize>(), 0..ALPHABET.len()), 1..5),
    ) {
        let text = live_snapshot();
        let prefix = &text[..cut % text.len()];
        prop_assert!(
            WorldSnapshot::parse(prefix).is_none(),
            "a {}-byte prefix of {} must be rejected",
            prefix.len(),
            text.len()
        );

        let mut bytes = text.as_bytes().to_vec();
        for (pos, sym) in edits {
            let pos = pos % bytes.len();
            bytes[pos] = ALPHABET[sym];
        }
        let mutated = String::from_utf8(bytes).expect("ASCII substitutions stay UTF-8");
        if let Some(snap) = WorldSnapshot::parse(&mutated) {
            prop_assert_eq!(WorldSnapshot::parse(&snap.render()), Some(snap));
        }
    }
}
