//! Extension X-LINK: fan-in stress on one processor-sharing NIC.
//!
//! Usage:
//!   `exp_link_stress`                — default 200k flow arrivals
//!   `exp_link_stress FLOWS`          — custom arrival count
//!   `exp_link_stress FLOWS BUDGET`   — with a wall-clock budget in
//!                                      seconds; exits non-zero if the
//!                                      indexed run overruns (CI gate).
//!
//! Always runs the virtual-time indexed link; pass a third argument
//! `oracle` to also replay the schedule on the O(n) oracle and print
//! the speedup (the fingerprints must match — that's asserted).
//!
//! The result is written to `results/exp_link_stress.json`, plus the
//! standardized trajectory record `results/BENCH_exp_link_stress.json`.

use soda_bench::experiments::link_stress::{self, StressConfig, StressResult};
use soda_bench::BenchRecord;

/// Exact heap accounting for the bench record (see
/// `soda_bench::memtrack`).
#[global_allocator]
static GLOBAL: soda_bench::memtrack::TrackingAllocator = soda_bench::memtrack::TrackingAllocator;

fn print_result(tag: &str, r: &StressResult) {
    println!(
        "{tag:>8}: {:>8} flows | {:>8} done {:>7} cancelled | peak {:>7} active | {:>8.2} sim s | {:>7.3} wall s | {:>11.0} ev/s | fp {:#018x}",
        r.flows,
        r.completions,
        r.cancellations,
        r.peak_active,
        r.sim_secs,
        r.wall_secs,
        r.events_per_sec,
        r.fingerprint,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flows: u64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(200_000);
    let budget_secs: Option<f64> = args.get(1).and_then(|s| s.parse().ok());
    let with_oracle = args.iter().any(|a| a == "oracle");
    println!("== X-LINK — fan-in stress on one processor-sharing NIC ==");
    let cfg = StressConfig {
        flows,
        ..StressConfig::default()
    };
    let indexed = link_stress::run(&cfg);
    print_result("indexed", &indexed);
    if with_oracle {
        let slow = link_stress::run_oracle(&cfg);
        print_result("oracle", &slow);
        assert_eq!(
            indexed.fingerprint, slow.fingerprint,
            "indexed and oracle must replay identical completion sequences"
        );
        println!(
            "speedup {:.1}x (identical fingerprints)",
            slow.wall_secs / indexed.wall_secs.max(1e-9)
        );
    }
    soda_bench::emit_json("exp_link_stress", &indexed);
    // The link has no admission path: peak active flows stands in for
    // queue depth, and nothing is ever "open" at a switch.
    soda_bench::emit_bench(&BenchRecord {
        experiment: "exp_link_stress".to_string(),
        wall_secs: indexed.wall_secs,
        sim_secs: indexed.sim_secs,
        events: indexed.events,
        events_per_sec: indexed.events_per_sec,
        requests: indexed.flows,
        requests_per_sec: indexed.flows as f64 / indexed.wall_secs.max(1e-9),
        peak_queue_depth: indexed.peak_active,
        peak_live_flows: indexed.peak_active,
        threads: 1,
        peak_heap_bytes: soda_bench::memtrack::peak_bytes(),
        ..BenchRecord::default()
    });
    if let Some(budget) = budget_secs {
        if indexed.wall_secs > budget {
            eprintln!(
                "FAIL: stress run took {:.3} s (budget {budget:.2} s)",
                indexed.wall_secs
            );
            std::process::exit(1);
        }
        println!("within budget: {:.3} s <= {budget:.2} s", indexed.wall_secs);
    }
}
