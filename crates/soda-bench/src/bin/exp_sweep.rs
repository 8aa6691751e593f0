//! Extension X-SWEEP: parallel deterministic seed sweep.
//!
//! Usage: `exp_sweep [EXP] [N_SEEDS] [BASE_SEED] [BUDGET_SECS]`
//!
//! * `EXP`         — `chaos` (default) or `scale`; the experiment each
//!   seed runs.
//! * `N_SEEDS`     — sweep width (default 4), seeds `BASE..BASE+N`.
//! * `BASE_SEED`   — first seed (default 1).
//! * `BUDGET_SECS` — optional wall-clock budget for the parallel sweep;
//!   exits non-zero when exceeded (CI gate).
//!
//! The sweep fans `(seed × experiment)` simulations across cores via
//! [`soda_bench::SweepRunner`]; each run is single-threaded and owns its
//! world, so parallel results must be bit-identical to serial ones. The
//! binary proves it: after the parallel sweep it re-runs the first
//! (pinned) seed serially on the calling thread and exits non-zero if
//! any fingerprint differs. Results — per-seed fingerprints, wall
//! clocks, and the parallel-vs-serial speedup — land in
//! `results/exp_sweep.json`.

use serde::Serialize;
use soda_bench::experiments::chaos_soak::{self, LatencyDigest};
use soda_bench::experiments::scale::{self, ScaleConfig};
use soda_bench::{BenchRecord, SweepRunner};
use soda_sim::Histogram;

/// Exact heap accounting for the bench record (see
/// `soda_bench::memtrack`).
#[global_allocator]
static GLOBAL: soda_bench::memtrack::TrackingAllocator = soda_bench::memtrack::TrackingAllocator;

/// One seed's run, reduced to what the sweep report needs.
#[derive(Clone, Debug, Serialize)]
struct SeedRun {
    /// Seed this run derives from.
    seed: u64,
    /// Determinism witness: the experiment's event-log fingerprint for
    /// `chaos`, the trajectory fingerprint for `scale`.
    fingerprint: u64,
    /// Worker wall-clock for this seed, seconds.
    wall_secs: f64,
    /// Requests completed.
    completed: u64,
    /// Requests dropped.
    dropped: u64,
    /// Engine events executed.
    events: u64,
    /// Virtual time simulated, seconds.
    sim_secs: f64,
    /// Event-queue high-water mark.
    peak_queue_depth: u64,
    /// High-water mark of concurrently active NIC flows.
    peak_live_flows: u64,
    /// High-water mark of in-flight requests.
    peak_open_requests: u64,
}

/// Pinned-seed parallel-vs-serial comparison.
#[derive(Clone, Debug, Serialize)]
struct PinnedCheck {
    /// The seed re-run serially (the sweep's first).
    seed: u64,
    /// Fingerprint from the parallel sweep.
    parallel_fingerprint: u64,
    /// Fingerprint from the serial re-run.
    serial_fingerprint: u64,
    /// Whether the two match bit for bit.
    identical: bool,
}

/// The merged sweep report written to `results/exp_sweep.json`.
#[derive(Clone, Debug, Serialize)]
struct SweepReport {
    /// Experiment swept (`"chaos"` / `"scale"`).
    experiment: String,
    /// Worker threads the parallel sweep used.
    threads: usize,
    /// Per-seed runs, in seed order.
    runs: Vec<SeedRun>,
    /// Wall seconds for the parallel region.
    parallel_wall_secs: f64,
    /// Sum of per-seed walls: what a serial sweep would cost.
    serial_estimate_secs: f64,
    /// `serial_estimate_secs / parallel_wall_secs`.
    speedup: f64,
    /// Client-visible latency folded across every seed's merged
    /// `switch.response_time` histogram (`None` when the swept
    /// experiment records no latency — `scale` runs with obs off).
    latency: Option<LatencyDigest>,
    /// Pinned-seed bit-identity proof.
    pinned: PinnedCheck,
}

fn run_one(experiment: &str, seed: u64) -> (SeedRun, Option<Histogram>) {
    match experiment {
        "scale" => {
            let r = scale::run(&ScaleConfig {
                hosts: 10,
                requests: 50_000,
                seed,
                ..ScaleConfig::default()
            });
            let run = SeedRun {
                seed,
                fingerprint: r.trajectory_fingerprint,
                wall_secs: r.wall_secs,
                completed: r.completed,
                dropped: r.dropped,
                events: r.events,
                sim_secs: r.sim_secs,
                peak_queue_depth: r.peak_queue_depth as u64,
                peak_live_flows: r.peak_live_flows,
                peak_open_requests: r.peak_open_requests,
            };
            (run, None)
        }
        _ => {
            let wall = std::time::Instant::now();
            let (r, hist) = chaos_soak::run_with_latency(seed);
            let run = SeedRun {
                seed,
                fingerprint: r.event_fingerprint,
                wall_secs: wall.elapsed().as_secs_f64(),
                completed: r.completed,
                dropped: r.dropped,
                events: r.events,
                sim_secs: r.sim_secs,
                peak_queue_depth: r.peak_queue_depth as u64,
                peak_live_flows: r.peak_live_flows,
                peak_open_requests: r.peak_open_requests,
            };
            (run, hist)
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiment = match args.first().map(String::as_str) {
        Some("scale") => "scale".to_string(),
        _ => "chaos".to_string(),
    };
    let n_seeds: u64 = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4);
    let base_seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    let budget_secs: Option<f64> = args.get(3).and_then(|s| s.parse().ok());
    let seeds: Vec<u64> = (base_seed..base_seed + n_seeds).collect();

    println!("== X-SWEEP — parallel deterministic seed sweep ==");
    let runner = SweepRunner::from_env();
    println!(
        "experiment {experiment}, seeds {}..{}, {} thread(s)",
        base_seed,
        base_seed + n_seeds - 1,
        runner.threads()
    );
    let exp = experiment.clone();
    let sweep = runner.run(seeds.clone(), move |seed| run_one(&exp, seed));
    // Per-seed latency folds across seeds via Histogram::merge — the
    // log-bucketed histograms add bucket-wise, so the merged digest is
    // exactly what one big serial run over all seeds would have seen.
    let (mut runs, hists): (Vec<SeedRun>, Vec<Option<Histogram>>) =
        sweep.results.into_iter().unzip();
    let latency: Option<LatencyDigest> = {
        let mut merged: Option<Histogram> = None;
        for h in hists.into_iter().flatten() {
            match &mut merged {
                Some(m) => m.merge(&h),
                None => merged = Some(h),
            }
        }
        merged.as_ref().map(LatencyDigest::from_nanos)
    };
    // The runner times each job on its worker; use those walls (not the
    // in-result ones) so chaos and scale are measured the same way.
    for (run, &secs) in runs.iter_mut().zip(&sweep.job_secs) {
        run.wall_secs = secs;
    }
    for r in &runs {
        println!(
            "seed {:>4} | fp {:#018x} | {:>7.2} s | completed {:>7} | dropped {:>5}",
            r.seed, r.fingerprint, r.wall_secs, r.completed, r.dropped
        );
    }
    // Determinism proof: re-run the pinned first seed serially, on this
    // thread, and require a bit-identical fingerprint. Its wall clock
    // doubles as an uncontended cost sample for the serial estimate.
    let pinned_seed = seeds[0];
    let serial_start = std::time::Instant::now();
    let (serial, _) = run_one(&experiment, pinned_seed);
    let serial_pinned_secs = serial_start.elapsed().as_secs_f64();

    // Serial estimate: scale the pinned seed's *uncontended* wall by the
    // seeds' relative sizes as measured inside the sweep. Summing the
    // in-sweep walls directly would overstate serial cost whenever the
    // workers contend for cores (each job's wall then includes time spent
    // descheduled), which flatters the speedup — on an oversubscribed
    // machine, absurdly so.
    let in_sweep_total: f64 = sweep.job_secs.iter().sum();
    let serial_estimate_secs = if sweep.job_secs[0] > 0.0 {
        serial_pinned_secs * (in_sweep_total / sweep.job_secs[0])
    } else {
        in_sweep_total
    };
    let speedup = if sweep.wall_secs > 0.0 && serial_estimate_secs > 0.0 {
        serial_estimate_secs / sweep.wall_secs
    } else {
        1.0
    };
    println!(
        "sweep wall {:.2} s vs serial est {:.2} s — speedup {:.2}x",
        sweep.wall_secs, serial_estimate_secs, speedup
    );

    let pinned = PinnedCheck {
        seed: pinned_seed,
        parallel_fingerprint: runs[0].fingerprint,
        serial_fingerprint: serial.fingerprint,
        identical: runs[0].fingerprint == serial.fingerprint,
    };
    println!(
        "pinned seed {}: parallel {:#018x} vs serial {:#018x} — {}",
        pinned.seed,
        pinned.parallel_fingerprint,
        pinned.serial_fingerprint,
        if pinned.identical {
            "identical"
        } else {
            "MISMATCH"
        }
    );

    if let Some(l) = &latency {
        println!(
            "merged latency over {} responses: p50 {:.2} ms / p99 {:.2} ms / p999 {:.2} ms",
            l.count, l.p50_ms, l.p99_ms, l.p999_ms
        );
    }

    let report = SweepReport {
        experiment: experiment.clone(),
        threads: sweep.threads,
        runs: runs.clone(),
        parallel_wall_secs: sweep.wall_secs,
        serial_estimate_secs,
        speedup,
        latency,
        pinned: pinned.clone(),
    };
    soda_bench::emit_json("exp_sweep", &report);
    let events: u64 = runs.iter().map(|r| r.events).sum();
    let requests: u64 = runs.iter().map(|r| r.completed + r.dropped).sum();
    soda_bench::emit_bench(&BenchRecord {
        experiment: "exp_sweep".to_string(),
        wall_secs: sweep.wall_secs,
        sim_secs: runs.iter().map(|r| r.sim_secs).sum(),
        events,
        events_per_sec: events as f64 / sweep.wall_secs.max(1e-9),
        requests,
        requests_per_sec: requests as f64 / sweep.wall_secs.max(1e-9),
        peak_queue_depth: runs.iter().map(|r| r.peak_queue_depth).max().unwrap_or(0),
        peak_live_flows: runs.iter().map(|r| r.peak_live_flows).max().unwrap_or(0),
        peak_open_requests: runs.iter().map(|r| r.peak_open_requests).max().unwrap_or(0),
        threads: 1,
        peak_heap_bytes: soda_bench::memtrack::peak_bytes(),
        ..BenchRecord::default()
    });

    if !pinned.identical {
        eprintln!("FAIL: parallel sweep diverged from serial on the pinned seed");
        std::process::exit(1);
    }
    if let Some(budget) = budget_secs {
        if sweep.wall_secs > budget {
            eprintln!(
                "FAIL: parallel sweep took {:.2} s (budget {budget:.2} s)",
                sweep.wall_secs
            );
            std::process::exit(1);
        }
        println!("within budget: {:.2} s <= {budget:.2} s", sweep.wall_secs);
    }
}
