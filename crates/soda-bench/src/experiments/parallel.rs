//! X-PARALLEL — the conservative epoch-synchronized parallel DES over
//! placement cells, and its serial-oracle differential gate.
//!
//! The runs themselves are X-SCALE runs ([`scale::run`]) with
//! `cells > 1`: each cell is a complete `SodaWorld` over its slice of
//! the host roster, and cross-cell client requests travel through the
//! epoch barriers of [`soda_sim::par`]. This module holds what is
//! specific to the parallel engine:
//!
//! * [`gate`] — `Parallel(n)` for ANY `n` must replay `Serial`
//!   bit-identically at the same cell count (the merge order, not thread
//!   arrival order, decides every cross-cell tie), and the one-cell
//!   serial run must reproduce its pinned fingerprints. Wired into
//!   tier 1 and CI.
//! * [`speedup_grid`] — the committed scaling curves' sweep points.

use serde::Serialize;
use soda_sim::EngineKind;

use crate::experiments::scale::{self, ScaleConfig, ScaleResult};
use crate::experiments::shard::{check, GateCheck};

/// The gate's full report.
#[derive(Clone, Debug, Serialize)]
pub struct ParallelGateReport {
    /// Threads exercised on the parallel side.
    pub threads: u32,
    /// Cells the world was split into.
    pub cells: u32,
    /// Every comparison made, in order.
    pub checks: Vec<GateCheck>,
    /// The runs compared (serial oracle, parallel-1, parallel-n).
    pub points: Vec<ScaleResult>,
    /// True iff every check passed.
    pub passed: bool,
}

/// Run the differential gate with `threads` workers on the parallel
/// side (`Parallel(1)` is always exercised too; `Serial` is the
/// oracle, and the one-cell serial run is compared against X-SCALE).
pub fn gate(threads: u32) -> ParallelGateReport {
    let threads = threads.max(2);
    let cells = 4;
    let mut checks = Vec::new();

    // Tier 0: one cell, serial — the plain X-SCALE run — reproduces
    // its pinned fingerprints and event count.
    let base = ScaleConfig {
        hosts: 8,
        requests: 20_000,
        seed: 1303,
        obs: true,
        ..ScaleConfig::default()
    };
    let solo = scale::run(&base);
    let (trajectory, events_fp, events) = (0xc7bf_cba8_6165_2421, 0xb12b_691e_bbb0_a721, 70_480);
    check(
        &mut checks,
        "cells=1 serial reproduces the pinned X-SCALE run",
        solo.trajectory_fingerprint == trajectory
            && solo.event_fingerprint == events_fp
            && solo.events == events,
        format!(
            "trajectory {trajectory:#018x} vs {:#018x}, events {events_fp:#018x} vs {:#018x}, count {events} vs {}",
            solo.trajectory_fingerprint, solo.event_fingerprint, solo.events
        ),
    );

    // Tier 1: multi-cell, serial oracle vs Parallel(1) and Parallel(n).
    let multi = ScaleConfig { cells, ..base };
    let serial = scale::run(&multi);
    let mut points = vec![solo];
    for n in [1, threads] {
        let par = scale::run(&ScaleConfig {
            engine: EngineKind::Parallel(n),
            ..multi
        });
        check(
            &mut checks,
            &format!("parallel({n}) trajectory ≡ serial, cells={cells}"),
            par.trajectory_fingerprint == serial.trajectory_fingerprint,
            format!(
                "serial {:#018x} vs parallel-{n} {:#018x}",
                serial.trajectory_fingerprint, par.trajectory_fingerprint
            ),
        );
        check(
            &mut checks,
            &format!("parallel({n}) event log ≡ serial, cells={cells}"),
            par.event_fingerprint == serial.event_fingerprint,
            format!(
                "serial {:#018x} vs parallel-{n} {:#018x}",
                serial.event_fingerprint, par.event_fingerprint
            ),
        );
        check(
            &mut checks,
            &format!("parallel({n}) event count ≡ serial, cells={cells}"),
            par.events == serial.events,
            format!("serial {} vs parallel-{n} {}", serial.events, par.events),
        );
        check(
            &mut checks,
            &format!("parallel({n}) conservation"),
            par.completed + par.dropped == multi.requests,
            format!(
                "completed {} + dropped {} vs submitted {}",
                par.completed, par.dropped, multi.requests
            ),
        );
        points.push(par);
    }
    check(
        &mut checks,
        "cross-cell traffic actually flowed",
        serial.remote_msgs > 0,
        format!("{} remote msgs", serial.remote_msgs),
    );
    points.insert(1, serial.clone());

    // Tier 2: the profiler must account for every event per cell and
    // stay trajectory-transparent under the parallel engine.
    let profiled = scale::run(&ScaleConfig {
        profile: true,
        engine: EngineKind::Parallel(threads),
        ..multi
    });
    let accounted = profiled
        .cell_outcomes
        .iter()
        .all(|o| o.profile.iter().map(|e| e.count).sum::<u64>() == o.events);
    check(
        &mut checks,
        "profiler buckets every event in every cell",
        accounted,
        profiled
            .cell_outcomes
            .iter()
            .map(|o| {
                format!(
                    "cell {}: {}/{}",
                    o.cell,
                    o.profile.iter().map(|e| e.count).sum::<u64>(),
                    o.events
                )
            })
            .collect::<Vec<_>>()
            .join(", "),
    );
    check(
        &mut checks,
        "profiler is trajectory-transparent in parallel mode",
        profiled.trajectory_fingerprint == serial.trajectory_fingerprint
            && profiled.event_fingerprint == serial.event_fingerprint,
        format!(
            "plain {:#018x} vs profiled {:#018x}",
            serial.trajectory_fingerprint, profiled.trajectory_fingerprint
        ),
    );

    // Tier 3: a chaos seed — fault plans, heartbeats, self-healing and
    // invariant sweeps per cell — must replay identically too.
    let chaos = ScaleConfig {
        chaos: true,
        ..multi
    };
    let chaos_serial = scale::run(&chaos);
    let chaos_par = scale::run(&ScaleConfig {
        engine: EngineKind::Parallel(threads),
        ..chaos
    });
    check(
        &mut checks,
        "chaos seed: parallel ≡ serial",
        chaos_par.trajectory_fingerprint == chaos_serial.trajectory_fingerprint
            && chaos_par.event_fingerprint == chaos_serial.event_fingerprint
            && chaos_par.events == chaos_serial.events,
        format!(
            "trajectory {:#018x} vs {:#018x}, events {} vs {}",
            chaos_serial.trajectory_fingerprint,
            chaos_par.trajectory_fingerprint,
            chaos_serial.events,
            chaos_par.events
        ),
    );
    check(
        &mut checks,
        "chaos seed keeps serving",
        chaos_serial.completed > 1000,
        format!("{} completed", chaos_serial.completed),
    );

    // Tier 4: a skewed split (cell 0 carries ~90% of the requests), so
    // per-cell epoch bounds differ widely between cells.
    let skew = ScaleConfig {
        skew: true,
        ..multi
    };
    let skew_serial = scale::run(&skew);
    let skew_par = scale::run(&ScaleConfig {
        engine: EngineKind::Parallel(threads),
        ..skew
    });
    check(
        &mut checks,
        "skewed split: parallel ≡ serial",
        skew_par.trajectory_fingerprint == skew_serial.trajectory_fingerprint
            && skew_par.event_fingerprint == skew_serial.event_fingerprint
            && skew_par.events == skew_serial.events,
        format!(
            "trajectory {:#018x} vs {:#018x}, events {} vs {}",
            skew_serial.trajectory_fingerprint,
            skew_par.trajectory_fingerprint,
            skew_serial.events,
            skew_par.events
        ),
    );
    check(
        &mut checks,
        "skewed split conserves requests",
        skew_par.completed + skew_par.dropped == multi.requests,
        format!(
            "completed {} + dropped {} vs submitted {}",
            skew_par.completed, skew_par.dropped, multi.requests
        ),
    );

    let passed = checks.iter().all(|c| c.passed);
    ParallelGateReport {
        threads,
        cells,
        checks,
        points,
        passed,
    }
}

/// The speedup grid: a fixed workload at a fixed cell count, swept
/// over execution modes (serial, then 1/2/…/max threads).
pub fn speedup_grid(hosts: u32, requests: u64, cells: u32, threads: &[u32]) -> Vec<ScaleConfig> {
    let base = ScaleConfig {
        hosts,
        requests,
        seed: 1303,
        cells,
        engine: EngineKind::Serial,
        ..ScaleConfig::default()
    };
    let mut grid = vec![base];
    grid.extend(threads.iter().map(|&n| ScaleConfig {
        engine: EngineKind::Parallel(n),
        ..base
    }));
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::scale::{cell_requests, SERVICES_PER_HOST};

    /// The one-cell serial run replays the X-SCALE run the separate
    /// pre-merge harness produced for this point: its trajectory and
    /// event fingerprints and event count are pinned.
    #[test]
    fn one_cell_serial_replays_the_scale_run() {
        let par = scale::run(&ScaleConfig {
            hosts: 3,
            requests: 1_000,
            seed: 9,
            obs: true,
            ..ScaleConfig::default()
        });
        assert_eq!(par.trajectory_fingerprint, 0xe57c_87a3_9e42_8ada);
        assert_eq!(par.event_fingerprint, 0xa4e5_e472_5787_848b);
        assert_eq!(par.events, 4_135);
        assert_eq!(par.epochs, 1, "a solo cell drains in one epoch");
    }

    #[test]
    fn parallel_threads_replay_the_serial_oracle() {
        let cfg = ScaleConfig {
            hosts: 4,
            requests: 2_000,
            seed: 23,
            cells: 4,
            obs: true,
            ..ScaleConfig::default()
        };
        let serial = scale::run(&cfg);
        assert!(serial.remote_msgs > 0, "cross-cell traffic flowed");
        for n in [1, 2, 4] {
            let par = scale::run(&ScaleConfig {
                engine: EngineKind::Parallel(n),
                ..cfg
            });
            assert_eq!(
                par.trajectory_fingerprint, serial.trajectory_fingerprint,
                "Parallel({n}) trajectory diverged"
            );
            assert_eq!(
                par.event_fingerprint, serial.event_fingerprint,
                "Parallel({n}) event log diverged"
            );
            assert_eq!(par.events, serial.events);
            assert_eq!(par.remote_msgs, serial.remote_msgs);
        }
    }

    #[test]
    fn requests_are_conserved_across_cells() {
        let r = scale::run(&ScaleConfig {
            hosts: 4,
            requests: 2_000,
            seed: 23,
            cells: 2,
            engine: EngineKind::Parallel(2),
            ..ScaleConfig::default()
        });
        assert_eq!(r.completed + r.dropped, 2_000);
        assert_eq!(r.services, 4 * SERVICES_PER_HOST);
        assert_eq!(r.dropped, 0, "unsaturated fleet drops nothing");
        let sent: u64 = r.cell_outcomes.iter().map(|o| o.remote_sent).sum();
        assert_eq!(sent, r.remote_msgs, "every sent message was delivered");
    }

    #[test]
    fn gate_passes_on_the_pinned_seed() {
        let report = gate(4);
        let failed: Vec<&GateCheck> = report.checks.iter().filter(|c| !c.passed).collect();
        assert!(report.passed, "failed checks: {failed:?}");
        assert_eq!(report.cells, 4);
        assert!(report.points.len() >= 4);
    }

    #[test]
    fn speedup_grid_sweeps_modes() {
        let grid = speedup_grid(8, 1_000, 8, &[1, 4]);
        assert_eq!(grid.len(), 3);
        assert_eq!(grid[0].engine, EngineKind::Serial);
        assert_eq!(grid[1].engine, EngineKind::Parallel(1));
        assert_eq!(grid[2].engine, EngineKind::Parallel(4));
        assert!(grid.iter().all(|c| c.cells == 8));
    }

    #[test]
    fn cell_request_split_is_balanced_and_total() {
        for (req, cells) in [(10u64, 3u32), (7, 7), (1_000_003, 8)] {
            let total: u64 = (0..cells)
                .map(|k| cell_requests(req, cells, k, false))
                .sum();
            assert_eq!(total, req);
            let mn = (0..cells)
                .map(|k| cell_requests(req, cells, k, false))
                .min()
                .unwrap();
            let mx = (0..cells)
                .map(|k| cell_requests(req, cells, k, false))
                .max()
                .unwrap();
            assert!(mx - mn <= 1);
        }
    }

    #[test]
    fn skewed_split_is_total_and_heavy_on_cell_zero() {
        for (req, cells) in [(10_000u64, 4u32), (1_000_003, 8), (17, 3)] {
            let total: u64 = (0..cells).map(|k| cell_requests(req, cells, k, true)).sum();
            assert_eq!(total, req);
            let heavy = cell_requests(req, cells, 0, true);
            let light_max = (1..cells)
                .map(|k| cell_requests(req, cells, k, true))
                .max()
                .unwrap();
            assert!(heavy >= light_max, "cell 0 carries the straggler load");
        }
        // One cell: skew degenerates to the balanced split.
        assert_eq!(cell_requests(100, 1, 0, true), 100);
    }

    #[test]
    fn skewed_cells_replay_the_serial_oracle() {
        let skewed = ScaleConfig {
            hosts: 4,
            requests: 4_000,
            seed: 23,
            cells: 4,
            skew: true,
            obs: true,
            ..ScaleConfig::default()
        };
        let serial = scale::run(&skewed);
        let par = scale::run(&ScaleConfig {
            engine: EngineKind::Parallel(4),
            ..skewed
        });
        assert_eq!(
            par.trajectory_fingerprint, serial.trajectory_fingerprint,
            "parallel diverged from the serial oracle"
        );
        assert_eq!(par.event_fingerprint, serial.event_fingerprint);
        assert_eq!(par.events, serial.events);
        assert_eq!(par.epochs, serial.epochs);
        assert_eq!(serial.completed + serial.dropped, skewed.requests);
        assert_eq!(par.barrier_wait_by_worker.len(), 4);
    }
}
