//! Figure 4 — per-node mean response time of the web content service
//! under weighted-round-robin 2:1 switching, across six dataset sizes.
//!
//! The paper's observations to reproduce: "the requests served by the
//! node in seattle is approximately twice as many as those served by the
//! node in tacoma. More importantly, the request response time achieved
//! by the two nodes are approximately the same."

use serde::Serialize;
use soda_core::service::{ServiceId, ServiceSpec};
use soda_core::world::{create_service_driven, SodaWorld};
use soda_hostos::resources::ResourceVector;
use soda_sim::{Engine, SimDuration, SimTime};
use soda_vmm::rootfs::RootFsCatalog;
use soda_vmm::sysservices::StartupClass;
use soda_workload::datasets::DatasetPoint;
use soda_workload::httpgen::{ClosedLoopGenerator, PoissonGenerator};

/// One sweep point's result.
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Dataset size, bytes.
    pub dataset_bytes: u64,
    /// Offered rate, requests/second.
    pub rate_rps: f64,
    /// Requests served by the seattle node (capacity 2M).
    pub seattle_served: u64,
    /// Requests served by the tacoma node (capacity 1M).
    pub tacoma_served: u64,
    /// Mean response time at the seattle node, seconds.
    pub seattle_mean_secs: f64,
    /// Mean response time at the tacoma node, seconds.
    pub tacoma_mean_secs: f64,
}

impl Row {
    /// served ratio seattle/tacoma (paper: ≈ 2).
    pub fn served_ratio(&self) -> f64 {
        self.seattle_served as f64 / self.tacoma_served.max(1) as f64
    }

    /// response-time ratio seattle/tacoma (paper: ≈ 1).
    pub fn response_ratio(&self) -> f64 {
        if self.tacoma_mean_secs == 0.0 {
            return f64::INFINITY;
        }
        self.seattle_mean_secs / self.tacoma_mean_secs
    }
}

/// Build the standard web service world and return (engine, service,
/// the two backend VSN ids in (seattle, tacoma) order).
pub fn web_world(seed: u64) -> (Engine<SodaWorld>, ServiceId) {
    let mut engine = Engine::with_seed(SodaWorld::testbed(), seed);
    // §4.2: the traffic shaper was still being implemented when the §5
    // client experiments ran; replicate that condition.
    engine.state_mut().shaping_enforced = false;
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
    assert_eq!(engine.state().creations.len(), 1, "creation must finish");
    (engine, svc)
}

/// Reduce a finished world to the figure's per-node row.
fn row_from(world: &SodaWorld, svc: ServiceId, point: &DatasetPoint) -> Row {
    let nodes = &world.service_record(svc).expect("exists").nodes;
    let (seattle_vsn, tacoma_vsn) = (nodes[0].vsn, nodes[1].vsn);
    let sw = world.switch_for(svc).expect("switch");
    let i_s = sw.index_of(seattle_vsn).expect("backend");
    let i_t = sw.index_of(tacoma_vsn).expect("backend");
    Row {
        dataset_bytes: point.dataset_bytes,
        rate_rps: point.rate_rps,
        seattle_served: sw.served_counts()[i_s],
        tacoma_served: sw.served_counts()[i_t],
        seattle_mean_secs: sw.mean_responses()[i_s],
        tacoma_mean_secs: sw.mean_responses()[i_t],
    }
}

/// Run one sweep point for `measure_secs` of load.
pub fn run_point(point: &DatasetPoint, measure_secs: u64, seed: u64) -> Row {
    let (mut engine, svc) = web_world(seed);
    let t0 = engine.now() + SimDuration::from_secs(5);
    PoissonGenerator {
        service: svc,
        dataset_bytes: point.dataset_bytes,
        rate_rps: point.rate_rps,
        start: t0,
        end: t0 + SimDuration::from_secs(measure_secs),
    }
    .start(&mut engine);
    engine.run_until(t0 + SimDuration::from_secs(measure_secs + 120));
    row_from(engine.state(), svc, point)
}

/// Everything a traced sweep point yields beyond the figure's row.
pub struct TracedPoint {
    /// The figure row (identical to an untraced run's — tracing must be
    /// observer-transparent).
    pub row: Row,
    /// Chrome trace-event JSON (load in Perfetto / `chrome://tracing`).
    pub chrome_trace: serde::Value,
    /// Per-trace critical-path breakdown (see `Tracer::critical_paths_value`).
    pub critical_paths: serde::Value,
    /// Sampled traces kept.
    pub traces_kept: usize,
    /// `(request key, measured response time ns)` for every completed
    /// request, so critical paths join back to measured times.
    pub completed: Vec<(u64, u64)>,
    /// The run's full metric snapshot (per-backend response-time
    /// histograms, dispatch/drop counters) — the file `soda-cli obs`
    /// digests.
    pub snapshot: soda_sim::RegistrySnapshot,
}

/// [`run_point`] with observability and causal tracing on: the same
/// deterministic trajectory, plus a head-sampled (1-in-`sample_one_in`,
/// salted by `seed`) set of end-to-end request traces exported as
/// Chrome trace-event JSON and critical-path breakdowns.
pub fn run_point_traced(
    point: &DatasetPoint,
    measure_secs: u64,
    seed: u64,
    sample_one_in: u64,
) -> TracedPoint {
    let mut engine = Engine::with_seed(SodaWorld::testbed(), seed);
    engine.state_mut().shaping_enforced = false;
    engine.state_mut().enable_obs(1 << 16);
    // Salt from the seed: the same run always samples the same keys,
    // different seeds sample different ones.
    engine
        .state_mut()
        .obs
        .enable_tracing(seed ^ 0x50DA_50DA, sample_one_in, 1 << 16);
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
    assert_eq!(engine.state().creations.len(), 1, "creation must finish");
    let t0 = engine.now() + SimDuration::from_secs(5);
    PoissonGenerator {
        service: svc,
        dataset_bytes: point.dataset_bytes,
        rate_rps: point.rate_rps,
        start: t0,
        end: t0 + SimDuration::from_secs(measure_secs),
    }
    .start(&mut engine);
    engine.run_until(t0 + SimDuration::from_secs(measure_secs + 120));
    let world = engine.state();
    TracedPoint {
        row: row_from(world, svc, point),
        chrome_trace: world.obs.chrome_trace().expect("obs enabled"),
        critical_paths: world.obs.critical_paths().expect("obs enabled"),
        traces_kept: world.obs.with(|inner| inner.tracer.len()).unwrap_or(0),
        completed: world
            .completed
            .iter()
            .map(|r| (r.request.0, r.response_time().as_nanos()))
            .collect(),
        snapshot: world.obs.snapshot().expect("obs enabled"),
    }
}

/// Run the full sweep.
pub fn run(sweep: &[DatasetPoint], measure_secs: u64, seed: u64) -> Vec<Row> {
    sweep
        .iter()
        .map(|p| run_point(p, measure_secs, seed))
        .collect()
}

/// The same measurement under *closed-loop* (siege-faithful) clients:
/// `clients` virtual users, think time tuned so the offered rate
/// approximates the open-loop point. The paper's generator was siege,
/// so this variant is the methodological cross-check: the 2:1 split and
/// response-time equality must hold under both arrival disciplines.
pub fn run_point_closed(point: &DatasetPoint, clients: u32, measure_secs: u64, seed: u64) -> Row {
    let (mut engine, svc) = web_world(seed);
    let t0 = engine.now() + SimDuration::from_secs(5);
    // rate ≈ clients / (think + response); response ≪ think at these
    // loads, so think ≈ clients / rate.
    let think = SimDuration::from_secs_f64(clients as f64 / point.rate_rps);
    ClosedLoopGenerator {
        service: svc,
        dataset_bytes: point.dataset_bytes,
        clients,
        mean_think: think,
        start: t0,
        end: t0 + SimDuration::from_secs(measure_secs),
    }
    .start(&mut engine);
    engine.run_until(t0 + SimDuration::from_secs(measure_secs + 120));
    row_from(engine.state(), svc, point)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_workload::datasets::FIG4_SWEEP;

    #[test]
    fn figure4_shape_holds() {
        // Shorter measurement window in tests; the bin uses a longer one.
        let rows = run(&FIG4_SWEEP[..3], 60, 1);
        for r in &rows {
            // ≈2× served.
            let ratio = r.served_ratio();
            assert!(
                (1.7..2.3).contains(&ratio),
                "{}B served ratio {ratio}",
                r.dataset_bytes
            );
            // ≈ equal response times (within 35%).
            let rr = r.response_ratio();
            assert!(
                (0.65..1.55).contains(&rr),
                "{}B response ratio {rr}",
                r.dataset_bytes
            );
            assert!(r.seattle_mean_secs > 0.0);
        }
        // Response time grows with dataset size.
        assert!(rows[2].seattle_mean_secs > rows[0].seattle_mean_secs);
    }

    /// Acceptance for the tracing tentpole: a traced run walks the same
    /// trajectory as an untraced one, its export is shaped like Chrome
    /// trace-event JSON, and every sampled request's critical-path
    /// phases sum exactly to that request's measured response time.
    #[test]
    fn traced_point_is_transparent_and_critical_paths_sum() {
        let plain = run_point(&FIG4_SWEEP[0], 30, 3);
        let traced = run_point_traced(&FIG4_SWEEP[0], 30, 3, 4);
        assert_eq!(plain.seattle_served, traced.row.seattle_served);
        assert_eq!(plain.tacoma_served, traced.row.tacoma_served);
        assert_eq!(plain.seattle_mean_secs, traced.row.seattle_mean_secs);
        assert_eq!(plain.tacoma_mean_secs, traced.row.tacoma_mean_secs);
        assert!(traced.traces_kept > 0, "1-in-4 sampling must keep traces");

        // Chrome trace-event shape: complete events with ts/dur, µs.
        let serde::Value::Array(events) = traced
            .chrome_trace
            .get("traceEvents")
            .expect("traceEvents key")
        else {
            panic!("traceEvents must be an array");
        };
        assert!(!events.is_empty());
        for e in events {
            assert_eq!(e.get("ph").and_then(serde::Value::as_str), Some("X"));
            assert!(e.get("ts").is_some() && e.get("dur").is_some());
            assert!(e.get("tid").is_some() && e.get("name").is_some());
        }

        // Critical paths tile the trace and equal the measured times.
        let by_key: std::collections::HashMap<u64, u64> =
            traced.completed.iter().copied().collect();
        let serde::Value::Array(paths) = &traced.critical_paths else {
            panic!("critical paths must be an array");
        };
        let mut matched = 0u64;
        for p in paths {
            if p.get("track").and_then(serde::Value::as_str) != Some("request") {
                continue;
            }
            let key = p.get("key").and_then(serde::Value::as_u64).expect("key");
            let total = p
                .get("total_ns")
                .and_then(serde::Value::as_u64)
                .expect("total_ns");
            let serde::Value::Array(phases) = p.get("phases").expect("phases") else {
                panic!("phases must be an array");
            };
            let sum: u64 = phases
                .iter()
                .map(|ph| ph.get("dur_ns").and_then(serde::Value::as_u64).unwrap_or(0))
                .sum();
            assert_eq!(sum, total, "phases must tile the request trace");
            if let Some(&rt) = by_key.get(&key) {
                assert_eq!(total, rt, "critical path != measured response time");
                matched += 1;
            }
        }
        assert!(matched > 10, "only {matched} sampled requests verified");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_point(&FIG4_SWEEP[0], 20, 5);
        let b = run_point(&FIG4_SWEEP[0], 20, 5);
        assert_eq!(a.seattle_served, b.seattle_served);
        assert_eq!(a.seattle_mean_secs, b.seattle_mean_secs);
    }

    #[test]
    fn closed_loop_reproduces_the_shape() {
        // siege-style clients: same 2:1 split and near-equal response
        // times as the open-loop measurement.
        let r = run_point_closed(&FIG4_SWEEP[1], 12, 60, 2);
        assert!(
            (1.7..2.3).contains(&r.served_ratio()),
            "{}",
            r.served_ratio()
        );
        assert!(
            (0.6..1.6).contains(&r.response_ratio()),
            "{}",
            r.response_ratio()
        );
        assert!(r.seattle_served + r.tacoma_served > 500, "enough samples");
    }
}
