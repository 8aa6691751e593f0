//! X-CHAOS — randomized fault-plan soak against a multi-service HUP.
//!
//! A four-host HUP runs two services of different priorities under
//! continuous load while a seeded [`FaultPlan`] injects host crashes
//! (with paired repairs), priming failures, slow hosts, link loss and
//! partitions. The self-healing loop (heartbeats → detection → bounded
//! retries → degradation) is the only thing keeping the services up —
//! nothing in this experiment calls a repair function directly.
//!
//! The whole run is reproducible from `(seed)`: the fault plan, the
//! workload, the heartbeat loss draws and the backoff jitter all flow
//! from seeded RNGs, and the result embeds a fingerprint of the full
//! event log so two runs can be compared exactly.

use serde::Serialize;
use soda_core::config::ShardId;
use soda_core::recovery::{self, RecoveryConfig, RecoveryStats};
use soda_core::service::ServiceSpec;
use soda_core::shard::ControlPlaneKind;
use soda_core::world::{apply_fault, create_service_driven, SodaWorld};
use soda_hostos::resources::ResourceVector;
use soda_hup::daemon::SodaDaemon;
use soda_hup::host::{HostId, HupHost};
use soda_net::pool::IpPool;
use soda_sim::{ChaosProfile, Engine, FaultPlan, FaultSpec, SimDuration, SimTime};
use soda_vmm::rootfs::RootFsCatalog;
use soda_vmm::sysservices::StartupClass;
use soda_workload::httpgen::PoissonGenerator;

/// Client-visible latency distribution for one run: every per-backend
/// `switch.response_time` histogram merged into a single digest. The
/// quantiles come from the log-bucketed [`soda_sim::Histogram`], so
/// they are bucket floors (deterministic, seed-reproducible) — never
/// wall-clock-dependent.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct LatencyDigest {
    /// Responses recorded.
    pub count: u64,
    /// Mean response time, milliseconds.
    pub mean_ms: f64,
    /// Median, milliseconds.
    pub p50_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// 99.9th percentile, milliseconds.
    pub p999_ms: f64,
    /// Largest recorded bucket, milliseconds.
    pub max_ms: f64,
}

impl LatencyDigest {
    /// Reduce a nanosecond-valued histogram to the digest.
    pub fn from_nanos(h: &soda_sim::Histogram) -> Self {
        let ms = |ns: u64| ns as f64 / 1e6;
        LatencyDigest {
            count: h.count(),
            mean_ms: h.mean() / 1e6,
            p50_ms: ms(h.quantile(0.5)),
            p99_ms: ms(h.quantile(0.99)),
            p999_ms: ms(h.quantile(0.999)),
            max_ms: ms(h.quantile(1.0)),
        }
    }
}

/// Result of one chaos soak run.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ChaosSoakResult {
    /// The seed the run (fault plan, workload, jitter) derives from.
    pub seed: u64,
    /// Faults in the generated plan.
    pub faults_injected: usize,
    /// Host-down declarations made by the heartbeat monitor.
    pub detections: usize,
    /// Mean crash → detection latency, seconds (matched host crashes
    /// only).
    pub mean_detection_secs: f64,
    /// Worst crash → detection latency, seconds.
    pub max_detection_secs: f64,
    /// Capacity-restoration episodes completed.
    pub recoveries: usize,
    /// Mean detection → restored latency, seconds.
    pub mean_recovery_secs: f64,
    /// Worst detection → restored latency, seconds.
    pub max_recovery_secs: f64,
    /// Client requests completed.
    pub completed: u64,
    /// Client requests dropped (dead backends, partitions, crashes).
    pub dropped: u64,
    /// Total service-time spent at degraded capacity, seconds.
    pub degraded_secs: f64,
    /// Episodes that exhausted their backoff budget.
    pub degradations: u64,
    /// Lower-priority services shed to reclaim capacity.
    pub sheds: u64,
    /// Down declarations rolled back by a later heartbeat.
    pub false_alarms: u64,
    /// Placement retries scheduled.
    pub retries: u64,
    /// Routing-invariant violations (must be zero).
    pub invariant_violations: u64,
    /// MasterCrash faults in the plan.
    pub master_crashes: usize,
    /// Warm-standby takeovers completed.
    pub master_failovers: usize,
    /// Mean master crash → takeover-complete latency, seconds.
    pub mean_failover_secs: f64,
    /// Worst master crash → takeover-complete latency, seconds.
    pub max_failover_secs: f64,
    /// Longest journal replay a takeover performed (entries).
    pub max_journal_replay: u64,
    /// Journal entries appended over the whole soak (all cells).
    pub journal_appended: u64,
    /// Control plane the run used (`"sharded-N"`).
    pub control_plane: String,
    /// Placement cells in the control plane.
    pub shards: u32,
    /// Placements (admission or recovery) re-placed over the whole
    /// fleet after their home cell was full.
    pub shard_spills: u64,
    /// Inter-shard messages sent.
    pub shard_msgs_sent: u64,
    /// Inter-shard messages dropped because the destination's journal
    /// epoch moved while they were in flight.
    pub shard_msgs_stale: u64,
    /// Engine events executed over the whole soak.
    pub events: u64,
    /// Virtual time simulated, seconds.
    pub sim_secs: f64,
    /// Event-queue high-water mark.
    pub peak_queue_depth: usize,
    /// High-water mark of concurrently active NIC flows fleet-wide.
    pub peak_live_flows: u64,
    /// High-water mark of in-flight (admitted, unanswered) requests.
    pub peak_open_requests: u64,
    /// Merged `switch.response_time` distribution across all backends.
    pub latency: LatencyDigest,
    /// FNV-1a hash over the rendered event log — two runs with the same
    /// seed must produce the same fingerprint.
    pub event_fingerprint: u64,
}

fn spec(name: &str, instances: u32) -> ServiceSpec {
    ServiceSpec {
        name: name.into(),
        image: RootFsCatalog::new().base_1_0(),
        required_services: vec!["network", "syslogd"],
        app_class: StartupClass::Light,
        instances,
        machine: ResourceVector::TABLE1_EXAMPLE,
        port: 8080,
    }
}

/// Run the soak: ~5 minutes of virtual time, faults between t=60 s and
/// t=270 s, metrics drained after the dust settles.
pub fn run(seed: u64) -> ChaosSoakResult {
    run_with_latency(seed).0
}

/// [`run`], additionally returning the merged raw response-time
/// histogram (nanosecond values) so sweep callers can fold latency
/// across seeds with [`soda_sim::Histogram::merge`] before digesting.
pub fn run_with_latency(seed: u64) -> (ChaosSoakResult, Option<soda_sim::Histogram>) {
    run_with_faults(seed, 0)
}

/// [`run_with_latency`] with `master_crashes` MasterCrash faults folded
/// into the plan (the `--master-faults` path of `exp_chaos_soak`).
pub fn run_with_faults(
    seed: u64,
    master_crashes: u32,
) -> (ChaosSoakResult, Option<soda_sim::Histogram>) {
    run_full(seed, master_crashes, ControlPlaneKind::default())
}

/// The soak under an explicit number of placement cells (the
/// `exp_shard` path). No MasterCrash faults: the warm-standby drill is
/// cell-0 scoped.
pub fn run_with_kind(
    seed: u64,
    kind: ControlPlaneKind,
) -> (ChaosSoakResult, Option<soda_sim::Histogram>) {
    run_full(seed, 0, kind)
}

fn run_full(
    seed: u64,
    master_crashes: u32,
    kind: ControlPlaneKind,
) -> (ChaosSoakResult, Option<soda_sim::Histogram>) {
    // Three seattles plus a tacoma spare: enough headroom that most
    // recoveries succeed, little enough that degradation is reachable.
    let daemons: Vec<SodaDaemon> = (1u32..=3)
        .map(|i| {
            SodaDaemon::new(HupHost::seattle(
                HostId(i),
                IpPool::new(format!("10.0.{i}.0").parse().expect("valid"), 8),
            ))
        })
        .chain(std::iter::once(SodaDaemon::new(HupHost::tacoma(
            HostId(4),
            IpPool::new("10.0.4.0".parse().expect("valid"), 8),
        ))))
        .collect();
    let mut engine = Engine::with_seed(SodaWorld::new(daemons), seed);
    engine.state_mut().configure_shards(kind);
    // Capacity hint: heartbeats, the two Poisson generators and the fault
    // plan keep the pending-event population in the low thousands; reserve
    // once so the soak never re-allocates queue storage mid-run.
    engine.reserve_events(16 * 1024);
    engine.state_mut().enable_obs(1 << 16);

    let web = create_service_driven(&mut engine, spec("web", 3), "webco").expect("admitted");
    let batch = create_service_driven(&mut engine, spec("batch", 2), "batchco").expect("admitted");
    engine.run_until(SimTime::from_secs(30));
    assert_eq!(engine.state().creations.len(), 2, "both creations finish");

    let horizon = SimTime::from_secs(400);
    recovery::start_self_healing(&mut engine, RecoveryConfig::default(), horizon);
    engine
        .state_mut()
        .recovery_for_mut(web)
        .set_priority(web, 10);
    engine
        .state_mut()
        .recovery_for_mut(batch)
        .set_priority(batch, 0);

    // Continuous load on both services.
    PoissonGenerator {
        service: web,
        dataset_bytes: 30_000,
        rate_rps: 15.0,
        start: SimTime::from_secs(30),
        end: SimTime::from_secs(330),
    }
    .start(&mut engine);
    PoissonGenerator {
        service: batch,
        dataset_bytes: 60_000,
        rate_rps: 4.0,
        start: SimTime::from_secs(30),
        end: SimTime::from_secs(330),
    }
    .start(&mut engine);

    // The randomized fault plan, replayed through the engine.
    let profile = ChaosProfile {
        hosts: vec![1, 2, 3, 4],
        start: SimTime::from_secs(60),
        end: SimTime::from_secs(270),
        mean_gap: SimDuration::from_secs(20),
        mean_repair: SimDuration::from_secs(40),
        domains: Vec::new(),
        master_crashes,
    };
    let plan = FaultPlan::randomized(seed, &profile);
    let faults_injected = plan.len();
    plan.schedule(&mut engine, apply_fault);

    // Periodic routing-invariant sweep.
    engine.schedule_periodic(
        SimTime::from_secs(35),
        SimDuration::from_secs(5),
        horizon,
        |w: &mut SodaWorld, _ctx| {
            recovery::check_invariants(w);
            true
        },
    );

    engine.run_until(horizon);

    let crash_times: Vec<(u64, SimTime)> = plan
        .injections()
        .iter()
        .filter_map(|inj| match inj.fault {
            FaultSpec::HostCrash { host } => Some((host, inj.at)),
            _ => None,
        })
        .collect();
    let master_crash_count = plan
        .injections()
        .iter()
        .filter(|inj| matches!(inj.fault, FaultSpec::MasterCrash))
        .count();
    let events = engine.events_executed();
    let peak_queue_depth = engine.peak_events_pending();
    let sim_secs = engine.now().as_secs_f64();
    let w = engine.state_mut();
    let latency_hist = w.obs.merged_histogram("switch", "response_time");
    let latency = latency_hist
        .as_ref()
        .map(LatencyDigest::from_nanos)
        .unwrap_or_default();
    // Aggregate self-healing stats across every cell.
    let mut stats = RecoveryStats::default();
    let mut journal_appended = 0u64;
    let mut degraded = soda_sim::SimDuration::ZERO;
    for k in 0..w.shard_count() {
        let shard = ShardId(k);
        journal_appended += w.journal_of(shard).appended_total();
        let mgr = w.recovery_of(shard);
        degraded += mgr.degraded_time(horizon);
        let cell = &mgr.stats;
        stats.detections.extend(cell.detections.iter().copied());
        stats.recoveries.extend(cell.recoveries.iter().copied());
        stats.retries += cell.retries;
        stats.degradations += cell.degradations;
        stats.sheds += cell.sheds;
        stats.false_alarms += cell.false_alarms;
        stats.invariant_violations += cell.invariant_violations;
    }
    // Crash → detection latency: each detection matched to the latest
    // crash of that host at or before it.
    let detection_lat: Vec<f64> = stats
        .detections
        .iter()
        .filter_map(|&(host, at)| {
            crash_times
                .iter()
                .filter(|&&(h, t)| h == host && t <= at)
                .map(|&(_, t)| at.saturating_since(t).as_secs_f64())
                .reduce(f64::min)
        })
        .collect();
    let recovery_lat: Vec<f64> = stats
        .recoveries
        .iter()
        .map(|(_, d)| d.as_secs_f64())
        .collect();
    let failover_lat: Vec<f64> = w
        .failover
        .records
        .iter()
        .map(|r| r.recovered_at.saturating_since(r.crashed_at).as_secs_f64())
        .collect();
    let master_failovers = w.failover.records.len();
    let max_journal_replay = w
        .failover
        .records
        .iter()
        .map(|r| r.replayed as u64)
        .max()
        .unwrap_or(0);
    // (empty-slice guard: an empty f64 sum is -0.0, which would leak a
    // negative zero into the report)
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let max = |v: &[f64]| v.iter().copied().fold(0.0f64, f64::max);

    let fp = crate::fingerprint::event_log(w);

    let result = ChaosSoakResult {
        seed,
        faults_injected,
        detections: stats.detections.len(),
        mean_detection_secs: mean(&detection_lat),
        max_detection_secs: max(&detection_lat),
        recoveries: stats.recoveries.len(),
        mean_recovery_secs: mean(&recovery_lat),
        max_recovery_secs: max(&recovery_lat),
        completed: w.completed.len() as u64,
        dropped: w.dropped,
        degraded_secs: degraded.as_secs_f64(),
        degradations: stats.degradations,
        sheds: stats.sheds,
        false_alarms: stats.false_alarms,
        retries: stats.retries,
        invariant_violations: stats.invariant_violations,
        master_crashes: master_crash_count,
        master_failovers,
        mean_failover_secs: mean(&failover_lat),
        max_failover_secs: max(&failover_lat),
        max_journal_replay,
        journal_appended,
        control_plane: kind.label(),
        shards: w.shard_count(),
        shard_spills: w.shards.spills,
        shard_msgs_sent: w.shards.msgs_sent,
        shard_msgs_stale: w.shards.msgs_stale,
        events,
        sim_secs,
        peak_queue_depth,
        peak_live_flows: w.peak_live_flows as u64,
        peak_open_requests: w.peak_open_requests,
        latency,
        event_fingerprint: fp,
    };
    (result, latency_hist)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four cells under chaos: routing invariants hold in every cell,
    /// the service keeps serving, and cross-shard messages flow when a
    /// spilled placement's host dies.
    #[test]
    fn sharded_four_cell_soak_keeps_invariants() {
        let (r, _) = run_with_kind(7, ControlPlaneKind::Sharded(4));
        assert_eq!(r.shards, 4);
        assert_eq!(r.invariant_violations, 0, "never route to a known-dead VSN");
        assert!(r.completed > 1000, "service keeps serving: {}", r.completed);
        assert_eq!(r.latency.count, r.completed);
        assert!(r.shard_spills >= 1, "tight cells force a fleet spill");
        assert!(
            r.shard_msgs_sent >= 1,
            "a spilled node's death crosses shards"
        );
    }

    #[test]
    fn soak_survives_and_keeps_routing_invariant() {
        let r = run(7);
        assert!(r.faults_injected > 0, "plan must contain faults");
        assert!(r.completed > 1000, "service keeps serving: {}", r.completed);
        assert_eq!(r.invariant_violations, 0, "never route to a known-dead VSN");
        assert_eq!(
            r.latency.count, r.completed,
            "every completion lands in the merged latency digest"
        );
        assert!(r.latency.p50_ms <= r.latency.p99_ms);
        assert!(r.latency.p99_ms <= r.latency.p999_ms);
        assert!(r.latency.p999_ms <= r.latency.max_ms);
        assert!(r.events > 0);
        assert!(r.peak_queue_depth > 0);
        assert!(r.peak_open_requests > 0, "requests were in flight");
    }
}
