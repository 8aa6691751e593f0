//! Figure 6 — application-level slowdown: mean request response time in
//! three scenarios, across dataset sizes:
//!
//! 1. in one virtual service node, with service switch;
//! 2. directly on the host OS, with service switch;
//! 3. directly on the host OS, without service switch.
//!
//! The paper's observations: (1) > (2) > (3); "the slow-down factor is
//! much lower than the one indicated in Table 4; and it remains
//! approximately the same under different dataset sizes."

use serde::Serialize;
use soda_core::service::{ServiceId, ServiceSpec};
use soda_core::world::{create_service_driven, submit_request, submit_request_direct, SodaWorld};
use soda_hostos::resources::ResourceVector;
use soda_sim::{Engine, SimDuration, SimTime};
use soda_vmm::isolation::ExecutionMode;
use soda_vmm::rootfs::RootFsCatalog;
use soda_vmm::sysservices::StartupClass;
use soda_vmm::vsn::VsnId;
use soda_workload::datasets::DatasetPoint;

/// The three scenarios.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Scenario {
    /// VSN + switch (SODA's normal path).
    VsnWithSwitch,
    /// Host OS + switch.
    HostWithSwitch,
    /// Host OS, direct.
    HostDirect,
}

impl Scenario {
    /// All three in the paper's order.
    pub const ALL: [Scenario; 3] = [
        Scenario::VsnWithSwitch,
        Scenario::HostWithSwitch,
        Scenario::HostDirect,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::VsnWithSwitch => "vsn+switch",
            Scenario::HostWithSwitch => "host+switch",
            Scenario::HostDirect => "host-direct",
        }
    }
}

/// One (scenario, dataset size) cell.
#[derive(Clone, Debug, Serialize)]
pub struct Cell {
    /// Scenario.
    pub scenario: Scenario,
    /// Dataset size, bytes.
    pub dataset_bytes: u64,
    /// Mean response time, seconds.
    pub mean_secs: f64,
}

fn one_node_world(seed: u64) -> (Engine<SodaWorld>, ServiceId, VsnId) {
    let mut engine = Engine::with_seed(SodaWorld::testbed(), seed);
    // As in Figure 4: the prototype's shaper was not yet deployed.
    engine.state_mut().shaping_enforced = false;
    let spec = ServiceSpec {
        name: "web".into(),
        image: RootFsCatalog::new().base_1_0(),
        required_services: vec!["network", "syslogd"],
        app_class: StartupClass::Light,
        instances: 1,
        machine: ResourceVector::TABLE1_EXAMPLE,
        port: 8080,
    };
    let svc = create_service_driven(&mut engine, spec, "webco").expect("admitted");
    engine.run_until(SimTime::from_secs(120));
    assert_eq!(engine.state().creations.len(), 1);
    let vsn = engine.state().service_record(svc).expect("exists").nodes[0].vsn;
    (engine, svc, vsn)
}

/// Measure one scenario at one dataset size: `n_requests` paced
/// arrivals at the sweep point's rate, no other load ("in all three
/// scenarios, there is no other service load in the system").
pub fn run_cell(scenario: Scenario, point: &DatasetPoint, n_requests: u64, seed: u64) -> Cell {
    let (mut engine, svc, vsn) = one_node_world(seed);
    match scenario {
        Scenario::VsnWithSwitch => {}
        Scenario::HostWithSwitch | Scenario::HostDirect => {
            engine
                .state_mut()
                .set_execution_mode(svc, vsn, ExecutionMode::HostDirect);
        }
    }
    let t0 = engine.now() + SimDuration::from_secs(1);
    let gap = SimDuration::from_secs_f64(1.0 / point.rate_rps);
    let dataset = point.dataset_bytes;
    for i in 0..n_requests {
        let at = t0 + gap * i;
        match scenario {
            Scenario::HostDirect => {
                engine.schedule_at(at, move |w: &mut SodaWorld, ctx| {
                    submit_request_direct(w, ctx, svc, vsn, dataset);
                });
            }
            _ => {
                engine.schedule_at(at, move |w: &mut SodaWorld, ctx| {
                    submit_request(w, ctx, svc, dataset);
                });
            }
        }
    }
    engine.run_until(t0 + gap * n_requests + SimDuration::from_secs(120));
    let world = engine.state();
    assert_eq!(
        world.completed.len() as u64,
        n_requests,
        "dropped {}",
        world.dropped
    );
    let mean = world.mean_response(vsn, SimTime::ZERO);
    Cell {
        scenario,
        dataset_bytes: point.dataset_bytes,
        mean_secs: mean,
    }
}

/// Run the full grid.
pub fn run(sweep: &[DatasetPoint], n_requests: u64, seed: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    for p in sweep {
        for s in Scenario::ALL {
            out.push(run_cell(s, p, n_requests, seed));
        }
    }
    out
}

/// Slowdown factors (scenario 1 / scenario 3) per dataset size.
pub fn slowdown_factors(cells: &[Cell]) -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    let sizes: Vec<u64> = {
        let mut s: Vec<u64> = cells.iter().map(|c| c.dataset_bytes).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    for size in sizes {
        let get = |sc: Scenario| {
            cells
                .iter()
                .find(|c| c.scenario == sc && c.dataset_bytes == size)
                .map(|c| c.mean_secs)
        };
        if let (Some(vsn), Some(direct)) = (get(Scenario::VsnWithSwitch), get(Scenario::HostDirect))
        {
            if direct > 0.0 {
                out.push((size, vsn / direct));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_workload::datasets::FIG6_SWEEP;

    #[test]
    fn ordering_and_modest_flat_slowdown() {
        let cells = run(&FIG6_SWEEP[..3], 40, 11);
        for size in [10_000u64, 50_000, 100_000] {
            let get = |sc: Scenario| {
                cells
                    .iter()
                    .find(|c| c.scenario == sc && c.dataset_bytes == size)
                    .unwrap()
                    .mean_secs
            };
            let c1 = get(Scenario::VsnWithSwitch);
            let c2 = get(Scenario::HostWithSwitch);
            let c3 = get(Scenario::HostDirect);
            assert!(c1 > c2, "{size}: vsn {c1} !> host+switch {c2}");
            assert!(c2 > c3, "{size}: host+switch {c2} !> direct {c3}");
        }
        let factors = slowdown_factors(&cells);
        for (size, f) in &factors {
            // Far below Table 4's ~22×, and above 1.
            assert!(*f > 1.0 && *f < 2.0, "{size}: factor {f}");
        }
        // Approximately constant across sizes: max/min < 1.5.
        let fs: Vec<f64> = factors.iter().map(|&(_, f)| f).collect();
        let max = fs.iter().cloned().fold(f64::MIN, f64::max);
        let min = fs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 1.6, "factors vary too much: {fs:?}");
    }
}
