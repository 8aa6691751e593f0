//! The switch's per-request hot path must be allocation-free once warm:
//! `route()` hands the policy an incrementally maintained view cache
//! (no per-request `Vec<BackendView>`), and `complete()`'s accounting
//! (EWMA + Welford summary) is plain arithmetic. Counted with the shared
//! thread-local allocator in `tests/common`.

mod common;

use common::allocations_here;
use soda::core::service::ServiceId;
use soda::core::switch::ServiceSwitch;
use soda::sim::{Obs, SimDuration, SimTime};
use soda::vmm::vsn::VsnId;

fn wide_switch(backends: u32) -> ServiceSwitch {
    let mut sw = ServiceSwitch::new(ServiceId(1), VsnId(1));
    for i in 0..backends {
        let ip = format!("10.0.{}.{}", i / 250, i % 250 + 1);
        sw.add_backend(
            VsnId(u64::from(i) + 1),
            ip.parse().expect("valid"),
            8080,
            1 + i % 4,
        );
    }
    sw
}

#[test]
fn warm_switch_hot_paths_never_allocate() {
    // --- route + complete under load -------------------------------
    let mut sw = wide_switch(64);
    // Warm up: the default WRR policy sizes its weight vector on first
    // pick; everything after that must be steady-state.
    for _ in 0..8 {
        let i = sw.route(SimTime::ZERO).expect("healthy");
        let vsn = sw.backends()[i].vsn;
        sw.complete(vsn, SimDuration::from_millis(3), SimTime::ZERO);
    }
    let before = allocations_here();
    for _ in 0..10_000u32 {
        let i = sw.route(SimTime::ZERO).expect("healthy");
        let vsn = sw.backends()[i].vsn;
        sw.complete(vsn, SimDuration::from_millis(3), SimTime::ZERO);
    }
    let after = allocations_here();
    assert_eq!(
        after - before,
        0,
        "route+complete must not allocate once warm (got {} allocations over 10k requests)",
        after - before
    );
    sw.assert_cache_coherent();

    // --- drop + abort paths ----------------------------------------
    let mut sw = wide_switch(8);
    let i = sw.route(SimTime::ZERO).expect("healthy");
    let vsn = sw.backends()[i].vsn;
    sw.abort(vsn, SimTime::ZERO);
    // Take every backend down so route() exercises the drop branch.
    for v in 1..=8u64 {
        sw.set_health(VsnId(v), false);
    }
    assert_eq!(sw.route(SimTime::ZERO), None);
    let before = allocations_here();
    for _ in 0..10_000u32 {
        assert_eq!(sw.route(SimTime::ZERO), None);
        sw.abort(VsnId(3), SimTime::ZERO); // saturates at zero, still alloc-free
    }
    let after = allocations_here();
    assert_eq!(after - before, 0, "drop/abort paths must not allocate");
    sw.assert_cache_coherent();
}

/// With observability ON the hot path stays allocation-free once each
/// bucket it records into has been touched: the event ring reuses its
/// slots past capacity, the per-backend metric labels are interned to
/// [`soda::sim::MetricHandle`]s on first record, and a sparse histogram
/// only grows when a value lands in a bucket it has not held before.
/// Steady-state counter/gauge/histogram writes are plain indexed
/// arithmetic — no `MetricId` rebuilding, no map lookups, no string
/// work.
#[test]
fn warm_switch_hot_paths_never_allocate_with_obs_on() {
    let obs = Obs::enabled(256);
    let mut sw = wide_switch(64);
    sw.set_obs(obs.clone());
    // Warm up: first route/complete per backend interns its handles, and
    // 512 round trips (2 events each) push the ring past its 256-slot
    // capacity into steady-state eviction.
    for _ in 0..512 {
        let i = sw.route(SimTime::ZERO).expect("healthy");
        let vsn = sw.backends()[i].vsn;
        sw.complete(vsn, SimDuration::from_millis(3), SimTime::ZERO);
    }
    let before = allocations_here();
    for _ in 0..10_000u32 {
        let i = sw.route(SimTime::ZERO).expect("healthy");
        let vsn = sw.backends()[i].vsn;
        sw.complete(vsn, SimDuration::from_millis(3), SimTime::ZERO);
    }
    let after = allocations_here();
    assert_eq!(
        after - before,
        0,
        "route+complete with obs on must not allocate once warm (got {} allocations over 10k requests)",
        after - before
    );
    sw.assert_cache_coherent();
    // The metrics really were recorded through the handles.
    let snap = obs.snapshot().expect("enabled");
    assert!(snap.samples.iter().any(|s| s.name.contains("served")));
}
