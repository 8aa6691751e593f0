//! Extension X-SCALE: hot-path throughput sweep.
//!
//! Usage:
//!   `exp_scale`                       — full 3×3 grid
//!                                       (hosts ∈ {10,100,1000} × requests ∈ {10k,100k,1M}),
//!                                       grid points fanned out across cores
//!                                       via [`soda_bench::SweepRunner`]
//!   `exp_scale HOSTS REQUESTS`        — one grid point
//!   `exp_scale HOSTS REQUESTS BUDGET` — one grid point with a wall-clock
//!                                       budget in seconds; exits non-zero
//!                                       if the point runs over (CI gate).
//!   `exp_scale profile [HOSTS REQUESTS]` — one grid point with the engine
//!                                       self-profiler on; prints the
//!                                       per-event-kind wall-clock cost
//!                                       table.
//!   `exp_scale xl [WALL_S] [MEM_GB]`  — the utility-scale tier: 100,000
//!                                       hosts × 1M VSNs × 10M requests on
//!                                       a 16-cell control plane. Gates on
//!                                       BOTH wall clock and peak heap, and
//!                                       on its pinned trajectory
//!                                       fingerprint and event count; exits
//!                                       non-zero if any of them fails.
//!   `exp_scale xl-smoke [WALL_S] [MEM_GB]` — the CI-sized xl rehearsal:
//!                                       10,000 hosts × 100k VSNs × 1M
//!                                       requests, same shape and gates
//!                                       (its own pin).
//!
//! All points are written to `results/exp_scale.json`, and the run's
//! aggregate throughput trajectory to `results/BENCH_exp_scale.json`
//! (`exp_scale_xl` / `exp_scale_xl_smoke` for the xl tiers, so the
//! committed baselines never mix). Each point is one
//! [`scale::run`] with one cell — a single-threaded simulation;
//! parallelism lives only across points, so the per-point fingerprints
//! are identical to a serial sweep's.

use soda_bench::experiments::scale::{self, ScaleConfig, ScaleResult};
use soda_bench::{BenchRecord, SweepRunner, Table};
use soda_core::shard::ControlPlaneKind;

/// Exact heap accounting for the memory gates and the bench record (see
/// `soda_bench::memtrack`).
#[global_allocator]
static GLOBAL: soda_bench::memtrack::TrackingAllocator = soda_bench::memtrack::TrackingAllocator;

fn print_point(r: &ScaleResult) {
    println!(
        "{:>6} hosts {:>8} req | {:>7} vsns | {:>9.2} s wall | {:>11.0} ev/s | peak q {:>8} | heap {:>8.1} MB | traj {:#018x}",
        r.hosts,
        r.requests,
        r.vsns,
        r.wall_secs,
        r.events_per_sec,
        r.peak_queue_depth,
        r.peak_heap_bytes as f64 / 1e6,
        r.trajectory_fingerprint,
    );
}

fn print_profile(r: &ScaleResult) {
    let mut t = Table::new(
        "engine self-profile — wall-clock cost per event kind",
        &["kind", "count", "total ms", "mean µs", "max µs"],
    );
    for e in &r.cell_outcomes[0].profile {
        t.row(soda_bench::cells![
            e.kind,
            e.count,
            format!("{:.2}", e.total_ns as f64 / 1e6),
            format!("{:.2}", e.mean_ns / 1e3),
            format!("{:.2}", e.max_ns as f64 / 1e3),
        ]);
    }
    t.print();
}

/// One xl-tier point with wall AND memory gates, plus its pinned
/// `(trajectory fingerprint, event count)`. The workload shape is the
/// scale run's (5 services/host, deterministic 10 ms driver); only
/// `instances` drops to 2 so the VSN count is exactly 10 × hosts.
fn run_xl(tier: &str, hosts: u32, requests: u64, pin: (u64, u64), budgets: (f64, f64)) {
    let (wall_budget, mem_budget_gb) = budgets;
    let cfg = ScaleConfig {
        hosts,
        requests,
        instances: 2,
        kind: ControlPlaneKind::Sharded(16),
        ..ScaleConfig::default()
    };
    println!(
        "xl tier `{tier}`: {hosts} hosts, {} VSNs, {requests} requests, sharded-16, arena storage",
        cfg.instances * hosts * scale::SERVICES_PER_HOST,
    );
    let r = scale::run(&cfg);
    print_point(&r);
    println!(
        "heap peak {:.2} GB ({} bytes, {} bytes/host) | completed {} dropped {}",
        r.peak_heap_bytes as f64 / 1e9,
        r.peak_heap_bytes,
        r.peak_heap_bytes / u64::from(hosts),
        r.completed,
        r.dropped,
    );
    let name = format!("exp_scale_{}", tier.replace('-', "_"));
    soda_bench::emit_json(&name, &r);
    soda_bench::emit_bench(&BenchRecord::from_scale(&name, std::slice::from_ref(&r)));
    let mut failed = false;
    if (r.trajectory_fingerprint, r.events) != pin {
        eprintln!(
            "FAIL: xl point walked trajectory {:#018x} in {} events (pinned {:#018x} in {})",
            r.trajectory_fingerprint, r.events, pin.0, pin.1
        );
        failed = true;
    }
    if r.wall_secs > wall_budget {
        eprintln!(
            "FAIL: xl point took {:.2} s (budget {wall_budget:.2} s)",
            r.wall_secs
        );
        failed = true;
    }
    let mem_budget = (mem_budget_gb * 1e9) as u64;
    if r.peak_heap_bytes > mem_budget {
        eprintln!(
            "FAIL: xl point peaked at {:.2} GB heap (budget {mem_budget_gb:.2} GB)",
            r.peak_heap_bytes as f64 / 1e9
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "pinned trajectory held; within budgets: {:.2} s <= {wall_budget:.2} s, {:.2} GB <= {mem_budget_gb:.2} GB",
        r.wall_secs,
        r.peak_heap_bytes as f64 / 1e9
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    println!("== X-SCALE — hot-path throughput sweep ==");
    match args.first().map(String::as_str) {
        Some("profile") => {
            let cfg = ScaleConfig {
                hosts: args.get(1).and_then(|s| s.parse().ok()).unwrap_or(10),
                requests: args.get(2).and_then(|s| s.parse().ok()).unwrap_or(100_000),
                profile: true,
                ..ScaleConfig::default()
            };
            let r = scale::run(&cfg);
            print_point(&r);
            print_profile(&r);
            soda_bench::emit_json("exp_scale_profile", &r);
            return;
        }
        Some("xl") => {
            let wall = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(600.0);
            let mem = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16.0);
            let pin = (0xfcba_7a49_3776_231d, 33_010_000);
            run_xl("xl", 100_000, 10_000_000, pin, (wall, mem));
            return;
        }
        Some("xl-smoke") => {
            let wall = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(120.0);
            let mem = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4.0);
            let pin = (0x47b4_afa5_00f0_dbd9, 3_310_000);
            run_xl("xl-smoke", 10_000, 1_000_000, pin, (wall, mem));
            return;
        }
        _ => {}
    }
    let results: Vec<ScaleResult>;
    let budget_secs: Option<f64> = args.get(2).and_then(|s| s.parse().ok());
    match (
        args.first().and_then(|s| s.parse::<u32>().ok()),
        args.get(1).and_then(|s| s.parse::<u64>().ok()),
    ) {
        (Some(hosts), Some(requests)) => {
            results = vec![scale::run(&ScaleConfig {
                hosts,
                requests,
                ..ScaleConfig::default()
            })];
        }
        _ => {
            let grid: Vec<ScaleConfig> = [10u32, 100, 1000]
                .iter()
                .flat_map(|&hosts| {
                    [10_000u64, 100_000, 1_000_000]
                        .iter()
                        .map(move |&requests| ScaleConfig {
                            hosts,
                            requests,
                            ..ScaleConfig::default()
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            let runner = SweepRunner::from_env();
            println!("fanning 9 grid points over {} thread(s)", runner.threads());
            let sweep = runner.run(grid, |cfg| scale::run(&cfg));
            println!(
                "sweep wall {:.2} s vs serial est {:.2} s — speedup {:.2}x",
                sweep.wall_secs,
                sweep.serial_estimate_secs(),
                sweep.speedup_vs_serial()
            );
            results = sweep.results;
            for r in &results {
                print_point(r);
            }
        }
    }
    if results.len() == 1 {
        print_point(&results[0]);
    }
    soda_bench::emit_json("exp_scale", &results);
    soda_bench::emit_bench(&BenchRecord::from_scale("exp_scale", &results));
    if let Some(budget) = budget_secs {
        let worst = results.iter().map(|r| r.wall_secs).fold(0.0f64, f64::max);
        if worst > budget {
            eprintln!("FAIL: slowest point took {worst:.2} s (budget {budget:.2} s)");
            std::process::exit(1);
        }
        println!("within budget: {worst:.2} s <= {budget:.2} s");
    }
}
