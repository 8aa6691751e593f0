//! Extension X-CHAOS: randomized fault-plan soak with self-healing.
//!
//! Usage: `exp_chaos_soak [--master-faults N] [seed ...]` (default
//! seed 42). `--master-faults N` folds `N` Master-crash faults into
//! each seed's plan, exercising journaled warm-standby failover under
//! the same converging-soak gate. With several
//! seeds the soaks fan out across cores via [`soda_bench::SweepRunner`] —
//! each soak is an independent single-threaded simulation, so per-seed
//! results are identical to serial runs. Exits non-zero if any seed's
//! routing invariant (never route to a known-dead VSN) was violated, so
//! CI can gate on it.

use soda_bench::experiments::chaos_soak::{self, ChaosSoakResult};
use soda_bench::{BenchRecord, SweepRunner};

/// Exact heap accounting for the bench record (see
/// `soda_bench::memtrack`).
#[global_allocator]
static GLOBAL: soda_bench::memtrack::TrackingAllocator = soda_bench::memtrack::TrackingAllocator;

fn print_result(r: &ChaosSoakResult) {
    println!("== X-CHAOS — fault-plan soak (seed {}) ==", r.seed);
    println!("faults injected             : {}", r.faults_injected);
    println!(
        "host-down detections        : {} (mean {:.2} s, max {:.2} s after crash)",
        r.detections, r.mean_detection_secs, r.max_detection_secs
    );
    println!(
        "recoveries completed        : {} (mean {:.2} s, max {:.2} s after detection)",
        r.recoveries, r.mean_recovery_secs, r.max_recovery_secs
    );
    println!(
        "requests completed / dropped: {} / {}",
        r.completed, r.dropped
    );
    println!("time at degraded capacity   : {:.1} s", r.degraded_secs);
    println!(
        "degradations / sheds        : {} / {}",
        r.degradations, r.sheds
    );
    println!(
        "false alarms / retries      : {} / {}",
        r.false_alarms, r.retries
    );
    println!("invariant violations        : {}", r.invariant_violations);
    if r.master_crashes > 0 {
        println!(
            "master crashes / failovers  : {} / {} (mean {:.2} s, max {:.2} s to takeover)",
            r.master_crashes, r.master_failovers, r.mean_failover_secs, r.max_failover_secs
        );
        println!(
            "journal                     : {} entries appended, longest replay {}",
            r.journal_appended, r.max_journal_replay
        );
    }
    println!(
        "response time (ms)          : p50 {:.2} / p99 {:.2} / p999 {:.2} / max {:.2} over {}",
        r.latency.p50_ms, r.latency.p99_ms, r.latency.p999_ms, r.latency.max_ms, r.latency.count
    );
    println!(
        "event-log fingerprint       : {:#018x}",
        r.event_fingerprint
    );
}

fn main() {
    let mut master_faults: u32 = 0;
    let mut seeds: Vec<u64> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--master-faults" {
            master_faults = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--master-faults takes a count");
        } else if let Ok(s) = a.parse() {
            seeds.push(s);
        }
    }
    if seeds.is_empty() {
        seeds.push(42);
    }
    let wall_start = std::time::Instant::now();
    let results: Vec<ChaosSoakResult> = if seeds.len() == 1 {
        vec![chaos_soak::run_with_faults(seeds[0], master_faults).0]
    } else {
        let runner = SweepRunner::from_env();
        println!(
            "fanning {} soak seeds over {} thread(s)",
            seeds.len(),
            runner.threads()
        );
        let sweep = runner.run(seeds, move |s| {
            chaos_soak::run_with_faults(s, master_faults).0
        });
        println!(
            "sweep wall {:.2} s vs serial est {:.2} s — speedup {:.2}x",
            sweep.wall_secs,
            sweep.serial_estimate_secs(),
            sweep.speedup_vs_serial()
        );
        sweep.results
    };
    let wall_secs = wall_start.elapsed().as_secs_f64();
    for r in &results {
        print_result(r);
    }
    // Aggregate trajectory: counts sum, peaks max, one wall for the
    // whole (possibly parallel) region.
    let events: u64 = results.iter().map(|r| r.events).sum();
    let requests: u64 = results.iter().map(|r| r.completed + r.dropped).sum();
    soda_bench::emit_bench(&BenchRecord {
        experiment: "exp_chaos_soak".to_string(),
        wall_secs,
        sim_secs: results.iter().map(|r| r.sim_secs).sum(),
        events,
        events_per_sec: events as f64 / wall_secs.max(1e-9),
        requests,
        requests_per_sec: requests as f64 / wall_secs.max(1e-9),
        peak_queue_depth: results
            .iter()
            .map(|r| r.peak_queue_depth as u64)
            .max()
            .unwrap_or(0),
        peak_live_flows: results.iter().map(|r| r.peak_live_flows).max().unwrap_or(0),
        peak_open_requests: results
            .iter()
            .map(|r| r.peak_open_requests)
            .max()
            .unwrap_or(0),
        master_failovers: results.iter().map(|r| r.master_failovers as u64).sum(),
        mean_failover_secs: {
            let n: usize = results.iter().map(|r| r.master_failovers).sum();
            if n == 0 {
                0.0
            } else {
                results
                    .iter()
                    .map(|r| r.mean_failover_secs * r.master_failovers as f64)
                    .sum::<f64>()
                    / n as f64
            }
        },
        max_journal_replay: results
            .iter()
            .map(|r| r.max_journal_replay)
            .max()
            .unwrap_or(0),
        threads: 1,
        peak_heap_bytes: soda_bench::memtrack::peak_bytes(),
        ..BenchRecord::default()
    });
    // Single-seed runs keep the original object-shaped JSON; multi-seed
    // runs emit an array.
    if results.len() == 1 {
        soda_bench::emit_json("exp_chaos_soak", &results[0]);
    } else {
        soda_bench::emit_json("exp_chaos_soak", &results);
    }
    let violations: u64 = results.iter().map(|r| r.invariant_violations).sum();
    if violations > 0 {
        eprintln!("FAIL: switch routed to a known-dead VSN");
        std::process::exit(1);
    }
    // A crashed Master must always be replaced: a standby that never
    // takes over leaves the control plane dead for the rest of the run.
    if results
        .iter()
        .any(|r| r.master_crashes > 0 && r.master_failovers == 0)
    {
        eprintln!("FAIL: master crashed but no standby takeover completed");
        std::process::exit(1);
    }
}
