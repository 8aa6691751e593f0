//! The whole request data path must be allocation-free once warm:
//! switch routing, the CPU stage, the shaper, the NIC flow and its
//! completion. Its events (`cpu_done`, `response_depart`, `nic_pump`)
//! are queued inline, a dispatched request's fields sit in a reused
//! slab, and in-flight flows live in per-host vectors that keep their
//! capacity. Counted with the shared thread-local allocator in
//! `tests/common`, observability off.

mod common;

use common::allocations_here;
use soda::core::service::{ServiceId, ServiceSpec};
use soda::core::world::{create_service_driven, submit_request, SodaWorld};
use soda::hostos::resources::ResourceVector;
use soda::hup::daemon::SodaDaemon;
use soda::hup::host::{HostId, HupHost};
use soda::net::pool::IpPool;
use soda::sim::{Engine, SimDuration, SimTime};
use soda::vmm::rootfs::RootFsCatalog;
use soda::vmm::sysservices::StartupClass;

const SERVICES: u32 = 4;
const WAVES: u64 = 100;
const PER_WAVE: u64 = 100;
const WAVE_GAP: SimDuration = SimDuration::from_millis(20);

fn world() -> SodaWorld {
    let daemons = (1..=4u32)
        .map(|i| {
            let pool = IpPool::new(format!("10.0.{i}.0").parse().unwrap(), 16);
            SodaDaemon::new(HupHost::seattle(HostId(i), pool))
        })
        .collect();
    SodaWorld::new(daemons)
}

fn web_spec() -> ServiceSpec {
    ServiceSpec {
        name: "web".into(),
        image: RootFsCatalog::new().base_1_0(),
        required_services: vec!["network", "syslogd"],
        app_class: StartupClass::Light,
        instances: 2,
        machine: ResourceVector::TABLE1_EXAMPLE,
        port: 8080,
    }
}

/// Queue `WAVES` waves of `PER_WAVE` requests from `start`, spread
/// round-robin over every service.
///
/// The timer wheel files an event by the digits of its absolute time,
/// relative to the time of its last pop. A no-op event 1 ms before
/// `start` is popped first, so two phases whose starts agree in the low
/// 42 bits file every event into the same wheel slots.
fn queue_phase(engine: &mut Engine<SodaWorld>, services: &[ServiceId], start: SimTime) {
    let anchor = SimTime::from_nanos(start.as_nanos() - 1_000_000);
    engine.schedule_at(anchor, |_: &mut SodaWorld, _| {});
    engine.run_until(anchor);
    for wave in 0..WAVES {
        let services = services.to_vec();
        let at = start + SimDuration::from_nanos(WAVE_GAP.as_nanos() * wave);
        engine.schedule_at(at, move |w: &mut SodaWorld, ctx| {
            for i in 0..PER_WAVE {
                let svc = services[(i % services.len() as u64) as usize];
                submit_request(w, ctx, svc, 8_192 + 512 * (i % 7));
            }
        });
    }
}

#[test]
fn warm_request_path_never_allocates() {
    let mut engine = Engine::with_seed(world(), 5);
    let services: Vec<ServiceId> = (0..SERVICES)
        .map(|_| create_service_driven(&mut engine, web_spec(), "asp").unwrap())
        .collect();
    engine.run_until(SimTime::from_secs(120));
    assert_eq!(engine.state().creations.len(), SERVICES as usize);
    assert!(!engine.state().obs.is_enabled());

    // Warm-up: the same load, one wheel revolution (2^42 ns, the span
    // of the wheel's seven 64-slot levels) earlier. It routes requests
    // to every service (each service's first request sets up its
    // backends' per-VSN state) and sizes every reused buffer: the
    // engine's pending buffer, the wheel slots, the staging slab, the
    // per-host flow vectors and the NIC scratch pool.
    let warm = SimTime::from_secs(200);
    queue_phase(&mut engine, &services, warm);
    engine.run_to_completion();
    let warm_requests = WAVES * PER_WAVE;
    assert_eq!(engine.state().completed.len() as u64, warm_requests);
    engine.state_mut().completed.clear();

    let measured = SimTime::from_nanos(warm.as_nanos() + (1 << 42));
    queue_phase(&mut engine, &services, measured);
    let before = allocations_here();
    engine.run_to_completion();
    let after = allocations_here();

    let w = engine.state();
    assert_eq!(w.completed.len() as u64, WAVES * PER_WAVE);
    assert_eq!(w.dropped, 0);
    assert_eq!(
        after - before,
        0,
        "the warm request path must not allocate (got {} allocations over {} requests)",
        after - before,
        WAVES * PER_WAVE
    );
}
