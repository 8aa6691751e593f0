//! The disabled observability path must be a branch-only no-op: no
//! heap allocation, ever. The allocation counter is thread-local
//! (`tests/common`), so tests in this binary may run in parallel.

mod common;

use common::allocations_here;
use soda::sim::{Event, Histogram, Labels, MetricKind, Obs, SimTime};

#[test]
fn disabled_obs_path_never_allocates() {
    let obs = Obs::disabled();
    let now = SimTime::from_secs(1);
    let labels = Labels::two("service", 1, "vsn", 2);
    // Warm everything up once (lazy statics, formatting machinery in
    // the surrounding harness) before counting.
    obs.record(now, Event::HostFailure { host: 1 });
    let before = allocations_here();
    for i in 0..1_000u64 {
        obs.record(now, Event::RequestDispatched { service: 1, vsn: i });
        obs.record(
            now,
            Event::AdmissionDecision {
                service: i,
                accepted: true,
                instances: 3,
            },
        );
        obs.record(
            now,
            Event::BootPhaseEntered {
                vsn: i,
                host: 1,
                phase: "customize",
            },
        );
        obs.counter_add("switch", "served", labels, 1);
        obs.gauge_set("switch", "outstanding", labels, 4.0);
        obs.histogram_record("switch", "response_time", labels, 1_000_000);
        obs.span_record("master", "priming", Labels::none(), SimTime::ZERO, now);
        obs.span_record("daemon", "mount", labels, SimTime::ZERO, now);
        assert!(!obs.is_enabled());
        assert!(obs.snapshot().is_none());
    }
    let after = allocations_here();
    assert_eq!(
        after - before,
        0,
        "disabled obs must not allocate (got {} allocations over 10k calls)",
        after - before
    );
}

/// The disabled causal tracer is a branch-only no-op too: begin/child/
/// close calls through a disabled domain (or an enabled domain whose
/// tracer was never switched on) must not touch the heap.
#[test]
fn disabled_tracing_path_never_allocates() {
    let dark = Obs::disabled();
    let lit = Obs::enabled(64); // obs on, tracing NOT enabled
    let now = SimTime::from_secs(3);
    // Warm-up.
    dark.trace_begin("request", "request", 0, now);
    lit.trace_begin("request", "request", 0, now);
    let before = allocations_here();
    for key in 0..1_000u64 {
        let t = dark.trace_begin("request", "request", key, now);
        assert!(t.is_none());
        let c = dark.trace_child(t, "route", now, now);
        dark.trace_close(c, now);
        // An enabled obs domain with tracing off takes the same no-op
        // path: Tracer::disabled() declines every key without counting
        // or storing anything.
        let t = lit.trace_begin("request", "request", key, now);
        assert!(t.is_none());
        let o = lit.trace_open_child(t, "queue", now);
        lit.trace_close(o, now);
    }
    let after = allocations_here();
    assert_eq!(
        after - before,
        0,
        "disabled tracing must not allocate (got {} allocations)",
        after - before
    );
}

/// The disabled engine self-profiler never allocates on the dispatch
/// path: `Profiler::observe` with profiling off is one branch, and even
/// the enabled profiler reuses its per-kind slots once every event
/// kind has been seen.
#[test]
fn profiler_paths_never_allocate_once_warm() {
    use soda::sim::Profiler;
    use std::time::Duration;

    let mut off = Profiler::disabled();
    let mut on = Profiler::enabled();
    let kinds = ["nic_pump", "cpu_done", "client_arrival", "response_depart"];
    // Warm the enabled profiler: one slot per kind.
    for k in kinds {
        on.observe(k, Duration::from_nanos(1));
    }
    let before = allocations_here();
    for i in 0..1_000usize {
        let k = kinds[i % kinds.len()];
        let d = Duration::from_nanos(i as u64);
        off.observe(k, d);
        on.observe(k, d);
    }
    let after = allocations_here();
    assert_eq!(
        after - before,
        0,
        "profiler dispatch hook must not allocate (got {} allocations)",
        after - before
    );
}

#[test]
fn enabled_event_recording_reuses_ring_slots_once_warm() {
    // Sanity check on the enabled path: Event variants are Copy and the
    // ring buffer reuses its slots, so a warm, at-capacity log records
    // without fresh allocations either.
    let obs = Obs::enabled(64);
    let now = SimTime::from_secs(2);
    // Fill past capacity so the ring is warm and evicting.
    for i in 0..128u64 {
        obs.record(now, Event::RequestCompleted { service: 1, vsn: i });
    }
    let before = allocations_here();
    for i in 0..1_000u64 {
        obs.record(now, Event::RequestCompleted { service: 1, vsn: i });
    }
    let after = allocations_here();
    assert_eq!(
        after - before,
        0,
        "warm event log must reuse its ring slots"
    );
}

/// An empty histogram allocates nothing: the sparse bucket list grows
/// on the first record, so the thousands of per-backend histograms a
/// fleet interns cost nothing until they hold a sample.
#[test]
fn empty_histogram_never_allocates() {
    let before = allocations_here();
    let hs: [Histogram; 64] = std::array::from_fn(|_| Histogram::new());
    let merged = hs.iter().fold(Histogram::new(), |mut acc, h| {
        acc.merge(h);
        acc
    });
    let after = allocations_here();
    assert_eq!(merged.count(), 0);
    assert_eq!(
        after - before,
        0,
        "Histogram::new() must not allocate (got {} allocations)",
        after - before
    );
}

/// A retroactive span recorded through an interned histogram handle
/// allocates nothing once the bucket it lands in has been touched: the
/// histogram only bumps a count.
#[test]
fn warm_span_record_h_never_allocates() {
    let obs = Obs::enabled(64);
    let labels = Labels::two("service", 1, "vsn", 2);
    let h = obs
        .intern("request", "queue", labels, MetricKind::Histogram)
        .expect("enabled");
    let start = SimTime::from_secs(1);
    let end = SimTime::from_nanos(start.as_nanos() + 2_500_000);
    // Warm-up: the first record creates the one bucket every later
    // record lands in.
    obs.span_record_h(h, start, end);
    let before = allocations_here();
    for _ in 0..1_000 {
        obs.span_record_h(h, start, end);
    }
    let after = allocations_here();
    assert_eq!(
        after - before,
        0,
        "warm span_record_h must not allocate (got {} allocations)",
        after - before
    );
    let snap = obs.snapshot().unwrap();
    assert!(snap.samples.iter().any(|s| s.name == "request.queue"
        && matches!(
            s.value,
            soda::sim::MetricValue::Histogram { count: 1_001, .. }
        )));
    let count = obs
        .with(|i| {
            i.registry
                .histogram("request", "queue", labels)
                .map(|h| h.count())
        })
        .unwrap();
    assert_eq!(count, Some(1_001));
}

/// Interned counters and gauges are one word each in the registry's
/// scalar array: writing through their handles never allocates.
#[test]
fn interned_scalar_writes_never_allocate() {
    let obs = Obs::enabled(64);
    let labels = Labels::two("service", 1, "vsn", 2);
    let served = obs
        .intern("switch", "served", labels, MetricKind::Counter)
        .expect("enabled");
    let outstanding = obs
        .intern("switch", "outstanding", labels, MetricKind::Gauge)
        .expect("enabled");
    let before = allocations_here();
    for i in 0..1_000u64 {
        obs.counter_add_h(served, 1);
        obs.gauge_set_h(outstanding, i as f64);
    }
    let after = allocations_here();
    assert_eq!(
        after - before,
        0,
        "interned counter/gauge writes must not allocate (got {} allocations)",
        after - before
    );
    let (count, gauge) = obs
        .with(|i| {
            (
                i.registry.counter("switch", "served", labels),
                i.registry.gauge("switch", "outstanding", labels),
            )
        })
        .unwrap();
    assert_eq!((count, gauge), (Some(1_000), Some(999.0)));
}
