//! X-SHARD — shard-count scaling sweep and the sharded-plane gate.
//!
//! * **Gate** ([`gate`]) — the CI mode. On the 100-host scale point and
//!   on the chaos soak, the one-cell plane must reproduce pinned
//!   fingerprints and counts exactly, and `Sharded(n)` for n > 1 must keep the conservation laws: every
//!   service admitted, every request completed or counted dropped,
//!   zero routing-invariant violations.
//! * **Sweep** ([`sweep`]) — the scaling-curve mode. Runs the
//!   1,000-host / 1M-request workload across shard counts and a
//!   10,000-host point, so the per-shard-count throughput trajectory
//!   lands in `results/BENCH_exp_shard.json`.

use serde::Serialize;
use soda_core::shard::ControlPlaneKind;
use soda_sim::QueueKind;

use crate::experiments::chaos_soak;
use crate::experiments::scale::{self, ScaleConfig, ScaleResult};
use crate::SweepRunner;

/// One differential comparison in the gate report.
#[derive(Clone, Debug, Serialize)]
pub struct GateCheck {
    /// What was compared (e.g. `"scale n=1 trajectory"`).
    pub name: String,
    /// Whether the check held.
    pub passed: bool,
    /// Human-readable detail (fingerprints, counts).
    pub detail: String,
}

/// The gate's full report: every check, plus the runs it compared.
#[derive(Clone, Debug, Serialize)]
pub struct GateReport {
    /// Shard count exercised on the n > 1 side.
    pub shards: u32,
    /// Every comparison made, in order.
    pub checks: Vec<GateCheck>,
    /// The scale grid points (sharded-1, sharded-n).
    pub scale_points: Vec<ScaleResult>,
    /// True iff every check passed.
    pub passed: bool,
}

fn check(checks: &mut Vec<GateCheck>, name: &str, passed: bool, detail: String) {
    checks.push(GateCheck {
        name: name.to_string(),
        passed,
        detail,
    });
}

/// Run the gate with `n` cells on the sharded side (at least 2); the
/// one-cell side is checked against the pinned reference values.
pub fn gate(n: u32) -> GateReport {
    let n = n.max(2);
    let mut checks = Vec::new();

    // The utility-scale grid point, observability on so the event-log
    // fingerprint participates. The pinned values are the ones
    // `tests/determinism.rs` holds the same runs to.
    let cfg = ScaleConfig {
        hosts: 100,
        requests: 100_000,
        seed: 1303,
        obs: true,
        queue: QueueKind::Wheel,
        ..ScaleConfig::default()
    };
    let one = scale::run(&cfg);
    let many = scale::run(&ScaleConfig {
        kind: ControlPlaneKind::Sharded(n),
        ..cfg
    });

    let (trajectory, events_fp, events) = (0x754c_ac35_766d_6201, 0x7c01_bb00_95cf_8397, 316_000);
    check(
        &mut checks,
        "scale n=1 trajectory fingerprint",
        one.trajectory_fingerprint == trajectory,
        format!(
            "pinned {trajectory:#018x} vs sharded-1 {:#018x}",
            one.trajectory_fingerprint
        ),
    );
    check(
        &mut checks,
        "scale n=1 event fingerprint",
        one.event_fingerprint == events_fp,
        format!(
            "pinned {events_fp:#018x} vs sharded-1 {:#018x}",
            one.event_fingerprint
        ),
    );
    check(
        &mut checks,
        "scale n=1 event count",
        one.events == events,
        format!("pinned {events} vs sharded-1 {}", one.events),
    );
    check(
        &mut checks,
        &format!("scale n={n} admission totals"),
        many.services == one.services && many.vsns == one.vsns,
        format!(
            "services {} vs {}, vsns {} vs {}",
            one.services, many.services, one.vsns, many.vsns
        ),
    );
    check(
        &mut checks,
        &format!("scale n={n} request conservation"),
        many.completed + many.dropped == cfg.requests,
        format!(
            "completed {} + dropped {} vs submitted {}",
            many.completed, many.dropped, cfg.requests
        ),
    );

    // Chaos tier: the soak's fault plan, heartbeat draws and backoff
    // jitter on one cell, then the invariants on several.
    let one_soak = chaos_soak::run(11);
    let (many_soak, _) = chaos_soak::run_with_kind(11, ControlPlaneKind::Sharded(n.min(4)));
    let (soak_fp, completed, dropped) = (0x989e_1554_7c1d_c81f, 5765, 26);
    check(
        &mut checks,
        "soak n=1 event fingerprint",
        one_soak.event_fingerprint == soak_fp,
        format!(
            "pinned {soak_fp:#018x} vs sharded-1 {:#018x}",
            one_soak.event_fingerprint
        ),
    );
    check(
        &mut checks,
        "soak n=1 request accounting",
        one_soak.completed == completed && one_soak.dropped == dropped,
        format!(
            "completed {completed}/{} dropped {dropped}/{}",
            one_soak.completed, one_soak.dropped
        ),
    );
    check(
        &mut checks,
        &format!("soak n={} routing invariant", n.min(4)),
        many_soak.invariant_violations == 0,
        format!("{} violations", many_soak.invariant_violations),
    );
    check(
        &mut checks,
        &format!("soak n={} keeps serving", n.min(4)),
        many_soak.completed > 1000,
        format!("{} completed", many_soak.completed),
    );

    let passed = checks.iter().all(|c| c.passed);
    GateReport {
        shards: n,
        checks,
        scale_points: vec![one, many],
        passed,
    }
}

/// The sweep grid: shard counts over the 1,000-host / 1M-request
/// workload, plus a 10,000-host point at the largest count.
pub fn sweep_grid(hosts: u32, requests: u64, shard_counts: &[u32]) -> Vec<ScaleConfig> {
    shard_counts
        .iter()
        .map(|&n| ScaleConfig {
            hosts,
            requests,
            seed: 1303,
            kind: ControlPlaneKind::Sharded(n),
            ..ScaleConfig::default()
        })
        .collect()
}

/// Run a sweep grid, fanning points across cores (each point is an
/// independent single-threaded simulation, so per-point results are
/// identical to a serial sweep's).
pub fn sweep(grid: Vec<ScaleConfig>) -> Vec<ScaleResult> {
    SweepRunner::from_env()
        .run(grid, |cfg| scale::run(&cfg))
        .results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_on_the_pinned_seed() {
        let report = gate(4);
        let failed: Vec<&GateCheck> = report.checks.iter().filter(|c| !c.passed).collect();
        assert!(report.passed, "failed checks: {failed:?}");
        assert_eq!(report.scale_points.len(), 2);
        assert_eq!(report.scale_points[1].shards, 4);
    }

    #[test]
    fn sweep_grid_labels_shard_counts() {
        let grid = sweep_grid(8, 1_000, &[1, 2, 4]);
        assert_eq!(grid.len(), 3);
        assert_eq!(grid[0].kind, ControlPlaneKind::Sharded(1));
        assert_eq!(grid[1].kind, ControlPlaneKind::Sharded(2));
        assert_eq!(grid[2].kind, ControlPlaneKind::Sharded(4));
    }
}
