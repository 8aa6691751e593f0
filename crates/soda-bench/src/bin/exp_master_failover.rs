//! Extension X-FAILOVER: Master crash with in-flight placements,
//! warm-standby recovery via checkpoint ⊕ journal replay.
//!
//! Usage: `exp_master_failover [seed]` (default seed 11). The scenario
//! runs twice from the same seed and the two event logs must be
//! bit-identical; exits non-zero if any gate fails (no takeover,
//! routing-invariant violation, drop-accounting leak, or divergent
//! replay), so CI can gate on it.

use soda_bench::experiments::master_failover::{self, MasterFailoverResult};
use soda_bench::BenchRecord;

/// Exact heap accounting for the bench record (see
/// `soda_bench::memtrack`).
#[global_allocator]
static GLOBAL: soda_bench::memtrack::TrackingAllocator = soda_bench::memtrack::TrackingAllocator;

fn print_result(r: &MasterFailoverResult) {
    println!(
        "== X-FAILOVER — master crash + journaled takeover (seed {}) ==",
        r.seed
    );
    println!(
        "master crashed / recovered  : {:.2} s / {:.2} s ({:.2} s to takeover)",
        r.crashed_at_secs, r.recovered_at_secs, r.failover_secs
    );
    println!(
        "journal replay              : {} entries over checkpoint seq {} ({} appended, {} compactions)",
        r.replayed, r.checkpoint_seq, r.journal_appended, r.checkpoints_taken
    );
    println!(
        "reconciliation              : {} restored, {} adopted, {} scrubbed, {} duplicates, {} orphaned boots",
        r.restored, r.adopted, r.scrubbed, r.duplicates, r.orphaned_boots
    );
    println!("master epoch after takeover : {}", r.epoch);
    println!(
        "admissions while down       : {} refused, retry ok = {}",
        r.refused_while_down, r.requeued_admission_ok
    );
    println!("orphaned creation completed : {}", r.late_creation_done);
    println!(
        "requests issued / done / dropped: {} / {} / {}",
        r.issued, r.completed, r.dropped
    );
    println!("invariant violations        : {}", r.invariant_violations);
    println!(
        "event-log fingerprint       : {:#018x}",
        r.event_fingerprint
    );
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);
    let wall_start = std::time::Instant::now();
    let r = master_failover::run(seed);
    let replay = master_failover::run(seed);
    let wall_secs = wall_start.elapsed().as_secs_f64();
    print_result(&r);

    soda_bench::emit_bench(&BenchRecord {
        experiment: "exp_master_failover".to_string(),
        wall_secs,
        sim_secs: r.sim_secs + replay.sim_secs,
        events: r.events + replay.events,
        events_per_sec: (r.events + replay.events) as f64 / wall_secs.max(1e-9),
        requests: r.issued + replay.issued,
        requests_per_sec: (r.issued + replay.issued) as f64 / wall_secs.max(1e-9),
        master_failovers: (r.failovers + replay.failovers) as u64,
        mean_failover_secs: (r.failover_secs + replay.failover_secs) / 2.0,
        max_journal_replay: r.replayed.max(replay.replayed) as u64,
        threads: 1,
        peak_heap_bytes: soda_bench::memtrack::peak_bytes(),
        ..BenchRecord::default()
    });
    soda_bench::emit_json("exp_master_failover", &r);

    let mut failed = false;
    if r.failovers != 1 {
        eprintln!("FAIL: expected exactly one takeover, saw {}", r.failovers);
        failed = true;
    }
    if r.invariant_violations > 0 {
        eprintln!("FAIL: switch routed to a known-dead VSN");
        failed = true;
    }
    if r.issued != r.completed + r.dropped {
        eprintln!(
            "FAIL: drop accounting leaks ({} issued vs {} completed + {} dropped)",
            r.issued, r.completed, r.dropped
        );
        failed = true;
    }
    if r.event_fingerprint != replay.event_fingerprint {
        eprintln!(
            "FAIL: replay diverged ({:#018x} vs {:#018x})",
            r.event_fingerprint, replay.event_fingerprint
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("\nall gates passed: takeover, routing invariant, conservation, bit-identical replay");
}
