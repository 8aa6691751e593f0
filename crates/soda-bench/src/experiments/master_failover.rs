//! X-FAILOVER — Master crash with in-flight placements, warm-standby
//! recovery via checkpoint ⊕ journal replay.
//!
//! The scenario stacks the nastiest control-plane interleaving the
//! design must survive: a resize is mid-flight (image downloads on the
//! wire), a host has just been crashed (a recovery episode is active),
//! and *then* the Master process dies. While it is down, the data
//! plane keeps serving, an admission attempt is honestly refused, and
//! node boots that land find nobody listening. The warm standby
//! rebuilds from the journal, reconciles against daemon re-registration
//! (adopting survivors, scrubbing the dead into fresh epoch-stamped
//! episodes, re-driving the orphaned boots), and the refused admission
//! is retried successfully after takeover.
//!
//! Gates (all driver-checked, CI-enforced):
//! - exactly one takeover completes, with a non-empty journal replay;
//! - zero routed-to-dead-VSN violations across the whole run;
//! - drop accounting conserved: every issued request is either
//!   completed or counted dropped once the run quiesces;
//! - the full event log is bit-identical when the run repeats from the
//!   same seed.

use serde::Serialize;
use soda_core::config::ShardId;
use soda_core::recovery::{self, RecoveryConfig};
use soda_core::service::ServiceSpec;
use soda_core::world::{apply_fault, create_service_driven, resize_service_driven, SodaWorld};
use soda_hostos::resources::ResourceVector;
use soda_hup::daemon::SodaDaemon;
use soda_hup::host::{HostId, HupHost};
use soda_net::pool::IpPool;
use soda_sim::{Engine, FaultPlan, FaultSpec, SimDuration, SimTime};
use soda_vmm::rootfs::RootFsCatalog;
use soda_vmm::sysservices::StartupClass;
use soda_workload::httpgen::PoissonGenerator;

/// Result of one failover run.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct MasterFailoverResult {
    /// The seed everything derives from.
    pub seed: u64,
    /// When the Master was crashed, seconds.
    pub crashed_at_secs: f64,
    /// When the standby finished takeover, seconds.
    pub recovered_at_secs: f64,
    /// Crash → takeover-complete latency, seconds.
    pub failover_secs: f64,
    /// Takeovers completed (the gate requires exactly 1).
    pub failovers: usize,
    /// Journal entries replayed on top of the checkpoint.
    pub replayed: usize,
    /// Checkpoint sequence the replay started from.
    pub checkpoint_seq: u64,
    /// Service records rebuilt from the journal.
    pub restored: usize,
    /// Running nodes adopted as-is at reconciliation.
    pub adopted: usize,
    /// Dead nodes scrubbed into fresh epoch-stamped episodes.
    pub scrubbed: usize,
    /// Daemon-side VSNs unknown to the rebuilt state, torn down.
    pub duplicates: usize,
    /// Boots buffered during the outage and re-driven at takeover.
    pub orphaned_boots: usize,
    /// Master epoch after takeover (starts at 1, so this is ≥ 2).
    pub epoch: u64,
    /// Whether the creation admitted just before the crash completed
    /// after takeover (its boots were orphaned, then re-driven).
    pub late_creation_done: bool,
    /// Admission attempts refused while the Master was down.
    pub refused_while_down: usize,
    /// Whether the refused admission succeeded on retry after takeover.
    pub requeued_admission_ok: bool,
    /// Journal entries appended over the run.
    pub journal_appended: u64,
    /// Compactions taken by the journal.
    pub checkpoints_taken: u64,
    /// Client requests completed.
    pub completed: u64,
    /// Client requests dropped (dead backends during the episode).
    pub dropped: u64,
    /// Requests issued by the generator.
    pub issued: u64,
    /// Routing-invariant violations (must be zero).
    pub invariant_violations: u64,
    /// Engine events executed.
    pub events: u64,
    /// Virtual time simulated, seconds.
    pub sim_secs: f64,
    /// FNV-1a fingerprint over the rendered event log.
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

/// Run the scenario once.
pub fn run(seed: u64) -> MasterFailoverResult {
    let daemons: Vec<SodaDaemon> = (1u32..=4)
        .map(|i| {
            SodaDaemon::new(HupHost::seattle(
                HostId(i),
                IpPool::new(format!("10.1.{i}.0").parse().expect("valid"), 8),
            ))
        })
        .collect();
    let mut engine = Engine::with_seed(SodaWorld::new(daemons), seed);
    engine.reserve_events(8 * 1024);
    engine.state_mut().enable_obs(1 << 16);

    let horizon = SimTime::from_secs(180);
    let web = create_service_driven(&mut engine, spec("web", 3), "webco").expect("admitted");
    let batch = create_service_driven(&mut engine, spec("batch", 2), "batchco").expect("admitted");
    engine.run_until(SimTime::from_secs(30));
    assert_eq!(engine.state().creations.len(), 2, "both creations finish");

    recovery::start_self_healing(&mut engine, RecoveryConfig::default(), horizon);
    engine
        .state_mut()
        .recovery_for_mut(web)
        .set_priority(web, 10);
    engine
        .state_mut()
        .recovery_for_mut(batch)
        .set_priority(batch, 0);

    PoissonGenerator {
        service: web,
        dataset_bytes: 30_000,
        rate_rps: 15.0,
        start: SimTime::from_secs(30),
        end: SimTime::from_secs(150),
    }
    .start(&mut engine);

    // A deliberately slow standby (10 s watchdog) so the outage spans
    // the in-flight resize boots — they must land while nobody is
    // listening and be re-driven at takeover.
    engine.state_mut().failover.detection_delay = SimDuration::from_secs(10);

    // t=60: crash host 2 — a recovery episode will be mid-flight.
    // t=61.5: crash the Master while that episode (and the resize
    // below) are in the air.
    let plan = FaultPlan::new()
        .inject(SimTime::from_secs(60), FaultSpec::HostCrash { host: 2 })
        .inject(
            SimTime::from_secs(60) + SimDuration::from_millis(1_500),
            FaultSpec::MasterCrash,
        );
    plan.schedule(&mut engine, apply_fault);

    // t=61.4: crash one running web VSN on a surviving host, after the
    // last heartbeat round before the Master dies — the crash goes
    // unreported, so only takeover reconciliation can scrub it.
    engine.schedule_at_as(
        "late_vsn_crash",
        SimTime::from_secs(61) + SimDuration::from_millis(400),
        move |w: &mut SodaWorld, ctx| {
            let victim = w.service_record(web).and_then(|rec| {
                rec.nodes
                    .iter()
                    .find(|n| n.host != HostId(2))
                    .map(|n| n.vsn.0)
            });
            if let Some(vsn) = victim {
                apply_fault(w, ctx, FaultSpec::VsnCrash { vsn });
            }
        },
    );

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

    // t=55: resize web 3 → 5 (an in-place widening — the Resize journal
    // entry must survive replay).
    engine.run_until(SimTime::from_secs(55));
    resize_service_driven(&mut engine, web, 5).expect("resize admitted");

    // t=59: admit a late service. Its image downloads are still on the
    // wire when the Master dies; the boots land during the outage, are
    // buffered as orphans, and complete the creation at takeover.
    engine.run_until(SimTime::from_secs(59));
    let late = create_service_driven(&mut engine, spec("late", 2), "latec").expect("admitted");

    // t=62: the Master is dead (crashed at 61.5, takeover ≥ 2 s away).
    // An admission attempt must be refused — honest unavailability, not
    // a silent queue.
    engine.run_until(SimTime::from_secs(62));
    let mut refused_while_down = 0;
    assert!(
        engine.state().master_is_down(),
        "master must still be down at t=62"
    );
    if create_service_driven(&mut engine, spec("spare", 1), "sparec").is_err() {
        refused_while_down += 1;
    }

    // t=80: the standby has taken over; the refused admission retries.
    engine.run_until(SimTime::from_secs(80));
    let requeued_admission_ok =
        create_service_driven(&mut engine, spec("spare", 1), "sparec").is_ok();

    engine.run_until(horizon);

    let events = engine.events_executed();
    let sim_secs = engine.now().as_secs_f64();
    let w = engine.state_mut();
    let issued = w.completed.len() as u64 + w.dropped;
    let late_creation_done = w.creations.iter().any(|c| c.reply.service == late);
    let rec = w
        .failover
        .records
        .first()
        .copied()
        .expect("takeover completed");

    let fp = crate::fingerprint::event_log(w);

    MasterFailoverResult {
        seed,
        crashed_at_secs: rec.crashed_at.as_secs_f64(),
        recovered_at_secs: rec.recovered_at.as_secs_f64(),
        failover_secs: rec
            .recovered_at
            .saturating_since(rec.crashed_at)
            .as_secs_f64(),
        failovers: w.failover.records.len(),
        replayed: rec.replayed,
        checkpoint_seq: rec.checkpoint_seq,
        restored: rec.restored,
        adopted: rec.adopted,
        scrubbed: rec.scrubbed,
        duplicates: rec.duplicates,
        orphaned_boots: rec.orphaned_boots,
        epoch: rec.epoch,
        late_creation_done,
        refused_while_down,
        requeued_admission_ok,
        journal_appended: w.journal_of(ShardId(0)).appended_total(),
        checkpoints_taken: w.journal_of(ShardId(0)).checkpoints_taken(),
        completed: w.completed.len() as u64,
        dropped: w.dropped,
        issued,
        invariant_violations: w.recovery_of(ShardId(0)).stats.invariant_violations,
        events,
        sim_secs,
        event_fingerprint: fp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_recovers_and_replays_bit_identically() {
        let a = run(11);
        assert_eq!(a.failovers, 1, "exactly one takeover");
        assert!(a.replayed > 0, "takeover replayed the journal tail");
        assert!(a.epoch >= 2, "epoch bumped at takeover");
        assert_eq!(a.invariant_violations, 0, "never route to a dead VSN");
        assert_eq!(a.refused_while_down, 1, "admission refused while down");
        assert!(a.requeued_admission_ok, "admission succeeds after takeover");
        assert!(a.orphaned_boots > 0, "late boots landed during the outage");
        assert!(
            a.late_creation_done,
            "orphaned creation completes at takeover"
        );
        assert!(
            a.scrubbed > 0,
            "host-2 casualties scrubbed at reconciliation"
        );
        assert_eq!(
            a.issued,
            a.completed + a.dropped,
            "drop accounting conserves"
        );
        let b = run(11);
        assert_eq!(
            a.event_fingerprint, b.event_fingerprint,
            "same seed must replay bit-identically"
        );
        assert_eq!(a, b, "the whole result is seed-deterministic");
    }
}
