//! Extension X-SHARD: shard-count scaling sweep + sharded-plane gate.
//!
//! Usage:
//!   `exp_shard`            — full sweep: 1,000 hosts × 1M requests at
//!                            n ∈ {1, 2, 4, 8}, plus a 10,000-host point
//!                            at n ∈ {1, 8}; points fanned across cores.
//!   `exp_shard gate [N]`   — CI gate: `Sharded(1)` must reproduce the
//!                            pinned trajectory + event fingerprints on
//!                            the 100-host scale point and the chaos
//!                            soak, and `Sharded(N)` (default 4) must
//!                            conserve admissions and requests with zero
//!                            invariant violations. Exits non-zero on
//!                            any failed check.
//!   `exp_shard HOSTS REQUESTS [N...]` — custom sweep over the given
//!                            shard counts (default {1, 2, 4, 8}).
//!
//! All points land in `results/exp_shard.json` and the aggregate
//! throughput trajectory in `results/BENCH_exp_shard.json`.

use soda_bench::experiments::scale::ScaleResult;
use soda_bench::experiments::shard;
use soda_bench::{BenchRecord, Table};

/// Exact heap accounting for the bench record (see
/// `soda_bench::memtrack`).
#[global_allocator]
static GLOBAL: soda_bench::memtrack::TrackingAllocator = soda_bench::memtrack::TrackingAllocator;

fn print_points(results: &[ScaleResult]) {
    let mut t = Table::new(
        "X-SHARD — per-shard-count scaling",
        &[
            "hosts", "requests", "plane", "spills", "msgs", "wall s", "ev/s", "traj",
        ],
    );
    for r in results {
        t.row(soda_bench::cells![
            r.hosts,
            r.requests,
            r.control_plane,
            r.shard_spills,
            r.shard_msgs_sent,
            format!("{:.2}", r.wall_secs),
            format!("{:.0}", r.events_per_sec),
            format!("{:#018x}", r.trajectory_fingerprint),
        ]);
    }
    t.print();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    println!("== X-SHARD — sharded control plane ==");

    if args.first().map(String::as_str) == Some("gate") {
        let n: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);
        let report = shard::gate(n);
        for c in &report.checks {
            println!(
                "{} {} — {}",
                if c.passed { "PASS" } else { "FAIL" },
                c.name,
                c.detail
            );
        }
        print_points(&report.scale_points);
        soda_bench::emit_json("exp_shard", &report);
        soda_bench::emit_bench(&BenchRecord::from_scale("exp_shard", &report.scale_points));
        if !report.passed {
            eprintln!("FAIL: sharded control plane gate");
            std::process::exit(1);
        }
        println!("gate passed: sharded-1 matches its pins, sharded-{n} conserves");
        return;
    }

    let results: Vec<ScaleResult> = match (
        args.first().and_then(|s| s.parse::<u32>().ok()),
        args.get(1).and_then(|s| s.parse::<u64>().ok()),
    ) {
        (Some(hosts), Some(requests)) => {
            let counts: Vec<u32> = if args.len() > 2 {
                args[2..].iter().filter_map(|s| s.parse().ok()).collect()
            } else {
                vec![1, 2, 4, 8]
            };
            shard::sweep(shard::sweep_grid(hosts, requests, &counts))
        }
        _ => {
            let mut grid = shard::sweep_grid(1_000, 1_000_000, &[1, 2, 4, 8]);
            grid.extend(shard::sweep_grid(10_000, 1_000_000, &[1, 8]));
            let runner = soda_bench::SweepRunner::from_env();
            println!(
                "fanning {} sweep points over {} thread(s)",
                grid.len(),
                runner.threads()
            );
            shard::sweep(grid)
        }
    };
    print_points(&results);
    soda_bench::emit_json("exp_shard", &results);
    soda_bench::emit_bench(&BenchRecord::from_scale("exp_shard", &results));
}
