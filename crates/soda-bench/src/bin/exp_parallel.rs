//! Extension X-PARALLEL: epoch-synchronized parallel DES speedup sweep
//! + serial-oracle differential gate.
//!
//! Usage:
//!   `exp_parallel`            — full sweep: the 1,000-host × 1M-request
//!                               workload at 8 cells under serial and
//!                               1/2/4/8 threads (the speedup curve),
//!                               plus a 10,000-host cell×thread grid.
//!   `exp_parallel gate [T]`   — CI differential gate: `Parallel(1)` and
//!                               `Parallel(T)` (default 4) must replay
//!                               the serial oracle bit-identically
//!                               (trajectory + event fingerprints) on a
//!                               compact multi-cell point, a chaos seed
//!                               and a skewed split (cell 0 carries 90%
//!                               of the load), the one-cell serial run
//!                               must reproduce its pinned X-SCALE
//!                               fingerprints, and the profiler must
//!                               bucket every event.
//!                               Exits non-zero on any failed check.
//!   `exp_parallel HOSTS REQUESTS CELLS [T...]` — custom sweep over the
//!                               given thread counts (default {1,2,4,8}).
//!
//! Every point is an X-SCALE run (`scale::run`) with `cells > 1`. Points
//! run one after another (each point is itself multi-threaded, unlike
//! the across-run `SweepRunner` fan-out), so each point's heap peak is
//! read at the end of its own run. All points land in
//! `results/exp_parallel.json` and the aggregate trajectory in
//! `results/BENCH_exp_parallel.json`.

use soda_bench::experiments::parallel;
use soda_bench::experiments::scale::{self, ScaleConfig, ScaleResult};
use soda_bench::{BenchRecord, Table};

/// Exact heap accounting for the bench records (see
/// `soda_bench::memtrack`); the parallel engine's hot path is epoch
/// batches, so two relaxed atomics per allocation are noise here.
#[global_allocator]
static GLOBAL: soda_bench::memtrack::TrackingAllocator = soda_bench::memtrack::TrackingAllocator;

fn print_points(results: &[ScaleResult]) {
    let mut t = Table::new(
        "X-PARALLEL — epoch-synchronized speedup",
        &[
            "hosts",
            "requests",
            "cells",
            "engine",
            "epochs",
            "msgs",
            "barrier s",
            "wall s",
            "ev/s",
            "speedup",
            "traj",
        ],
    );
    // Speedup is relative to the serial point of the same (hosts,
    // cells, requests) workload, where one exists in the result set.
    let serial_wall = |r: &ScaleResult| {
        results
            .iter()
            .find(|s| {
                s.engine == "serial"
                    && s.hosts == r.hosts
                    && s.cells == r.cells
                    && s.requests == r.requests
            })
            .map(|s| s.wall_secs)
    };
    for r in results {
        let speedup = serial_wall(r)
            .map(|w| format!("{:.2}x", w / r.wall_secs.max(1e-9)))
            .unwrap_or_else(|| "-".to_string());
        t.row(soda_bench::cells![
            r.hosts,
            r.requests,
            r.cells,
            r.engine,
            r.epochs,
            r.remote_msgs,
            format!("{:.2}", r.barrier_wait_secs),
            format!("{:.2}", r.wall_secs),
            format!("{:.0}", r.events_per_sec),
            speedup,
            format!("{:#018x}", r.trajectory_fingerprint),
        ]);
    }
    t.print();
}

fn run_grid(grid: Vec<ScaleConfig>) -> Vec<ScaleResult> {
    grid.iter()
        .map(|cfg| {
            let r = scale::run(cfg);
            println!(
                "  {} cells={} {}: {:.2}s wall, {} epochs, {} remote msgs",
                r.hosts, r.cells, r.engine, r.wall_secs, r.epochs, r.remote_msgs
            );
            r
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    println!("== X-PARALLEL — conservative parallel DES vs the serial oracle ==");

    if args.first().map(String::as_str) == Some("gate") {
        let t: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);
        let report = parallel::gate(t);
        for c in &report.checks {
            println!(
                "{} {} — {}",
                if c.passed { "PASS" } else { "FAIL" },
                c.name,
                c.detail
            );
        }
        print_points(&report.points);
        soda_bench::emit_json("exp_parallel", &report);
        soda_bench::emit_bench(&BenchRecord::from_scale("exp_parallel", &report.points));
        if !report.passed {
            eprintln!("FAIL: parallel engine diverged from the serial oracle");
            std::process::exit(1);
        }
        println!("gate passed: parallel-1 and parallel-{t} replay the serial oracle bit-for-bit");
        return;
    }

    let results: Vec<ScaleResult> = match (
        args.first().and_then(|s| s.parse::<u32>().ok()),
        args.get(1).and_then(|s| s.parse::<u64>().ok()),
        args.get(2).and_then(|s| s.parse::<u32>().ok()),
    ) {
        (Some(hosts), Some(requests), Some(cells)) => {
            let threads: Vec<u32> = if args.len() > 3 {
                args[3..].iter().filter_map(|s| s.parse().ok()).collect()
            } else {
                vec![1, 2, 4, 8]
            };
            run_grid(parallel::speedup_grid(hosts, requests, cells, &threads))
        }
        _ => {
            // The ROADMAP workload: 1k hosts / 1M requests (~3.1 s
            // serial before this PR), 8 cells, the full thread curve —
            // then a 10k-host point at two cell widths to show the
            // partition's effect at scale.
            let mut results = run_grid(parallel::speedup_grid(1_000, 1_000_000, 8, &[1, 2, 4, 8]));
            for cells in [4, 16] {
                results.extend(run_grid(parallel::speedup_grid(
                    10_000,
                    1_000_000,
                    cells,
                    &[8],
                )));
            }
            results
        }
    };
    print_points(&results);
    soda_bench::emit_json("exp_parallel", &results);
    soda_bench::emit_bench(&BenchRecord::from_scale("exp_parallel", &results));
}
