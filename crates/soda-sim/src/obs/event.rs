//! Typed observability events.
//!
//! Every significant state transition in the SODA entities maps to one
//! [`Event`] variant carrying the raw numeric ids of the entities
//! involved (`soda-sim` sits below the crates that define the newtyped
//! `ServiceId`/`VsnId`/`HostId`, so events carry their inner `u64`s).
//! Variants are `Copy` and hold only integers and `&'static str`s, so
//! recording an event never allocates — the [`EventLog`] ring buffer
//! is the only storage, and it reuses its slots once warm.

use std::collections::VecDeque;
use std::fmt;

use crate::time::SimTime;

/// How alarming an event is. Ordered: `Debug < Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// High-volume signals (per-request, per-tick samples).
    Debug,
    /// Normal control-plane transitions.
    Info,
    /// Degraded but expected behavior (rejections, drops).
    Warn,
    /// Faults (crashes, host failures).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Debug => "DEBUG",
            Severity::Info => "INFO",
            Severity::Warn => "WARN",
            Severity::Error => "ERROR",
        })
    }
}

/// A typed, allocation-free observability event.
///
/// Ids are the raw `u64`/`u32` values inside the entity newtypes; `0`
/// means "not applicable" (e.g. the service id of a rejected admission
/// that never got one).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// The Master accepted or rejected a `<n, M>` creation request.
    AdmissionDecision {
        service: u64,
        accepted: bool,
        instances: u32,
    },
    /// The Master chose hosts for a service's nodes.
    PlacementDecision { service: u64, nodes: u32 },
    /// A VSN entered a Table 2 bootstrap phase.
    BootPhaseEntered {
        vsn: u64,
        host: u64,
        phase: &'static str,
    },
    /// A VSN completed a Table 2 bootstrap phase.
    BootPhaseCompleted {
        vsn: u64,
        host: u64,
        phase: &'static str,
    },
    /// The Master built a service switch over `backends` ready nodes.
    SwitchCreated { service: u64, backends: u32 },
    /// The switch routed a request to a backend.
    RequestDispatched { service: u64, vsn: u64 },
    /// A backend finished serving a request.
    RequestCompleted { service: u64, vsn: u64 },
    /// A request was dropped or aborted (no healthy backend, crash).
    RequestFailed { service: u64, vsn: u64 },
    /// One step of a resize: `action` is `"grow"`, `"shrink"`,
    /// `"inflate"` or `"deflate"`.
    ResizeStep {
        service: u64,
        vsn: u64,
        action: &'static str,
    },
    /// A virtual service node crashed.
    VsnCrash { vsn: u64, host: u64 },
    /// A HUP host failed wholesale.
    HostFailure { host: u64 },
    /// The traffic shaper refused a client (zero-rate bucket).
    ShaperDrop { host: u64, ip: u32 },
    /// One scheduler allocation sample: `share` is the CPU fraction
    /// granted to `uid` this tick.
    SchedulerShareSample { host: u64, uid: u32, share: f64 },
    /// A Master control-plane operation (`op`) failed unexpectedly —
    /// e.g. a node-ready callback for a service torn down mid-creation.
    MasterOpFailed {
        service: u64,
        vsn: u64,
        op: &'static str,
    },
    /// The recovery manager missed a host's heartbeat past the timeout.
    HeartbeatMissed { host: u64 },
    /// The recovery manager declared a host down (drain + re-place
    /// follow).
    HostDown { host: u64 },
    /// Heartbeats resumed from a host previously declared down.
    HostUp { host: u64 },
    /// A backend was drained (health off) from its service switch.
    BackendDrained { service: u64, vsn: u64 },
    /// One recovery placement attempt for a service's lost capacity.
    RecoveryAttempt { service: u64, attempt: u32 },
    /// Recovery placed a replacement node; priming begins.
    RecoveryPlaced { service: u64, vsn: u64, host: u64 },
    /// A failed recovery attempt scheduled a retry after backoff.
    RecoveryRetry {
        service: u64,
        attempt: u32,
        delay_ms: u64,
    },
    /// A replacement node booted; lost capacity is back in rotation.
    RecoveryCompleted {
        service: u64,
        vsn: u64,
        latency_ms: u64,
    },
    /// Recovery gave up for now: the service runs at reduced capacity.
    ServiceDegraded { service: u64, capacity: u32 },
    /// Graceful degradation shed capacity from a lower-priority victim
    /// service to make room for `service`.
    ServiceShed { service: u64, victim: u64 },
    /// An in-flight priming (image download / bootstrap) failed.
    PrimingFailed { service: u64, vsn: u64, host: u64 },
    /// The fault engine injected a fault (`kind` from
    /// `FaultSpec::kind`; `host`/`vsn` are 0 when not applicable).
    FaultInjected {
        kind: &'static str,
        host: u64,
        vsn: u64,
    },
    /// The host's links partitioned: nothing in or out.
    LinkPartitioned { host: u64 },
    /// The host's links healed.
    LinkRestored { host: u64 },
    /// The Master process crashed; `epoch` is the epoch that just died.
    MasterDown { epoch: u64 },
    /// A warm-standby Master finished taking over as `epoch`.
    MasterRecovered { epoch: u64, replayed: u64 },
    /// The standby replayed the journal: `entries` applied on top of a
    /// checkpoint taken at `checkpoint_seq` (0 = genesis).
    JournalReplayed {
        epoch: u64,
        entries: u64,
        checkpoint_seq: u64,
    },
    /// A placement cell was full, so the creation spilled to hosts
    /// owned by other cells (`from` is the service's home shard).
    ShardSpill { service: u64, from: u32 },
    /// An inter-shard control message was delivered after its simulated
    /// transit latency.
    ShardMsgDelivered {
        from: u32,
        to: u32,
        kind: &'static str,
    },
    /// An inter-shard message arrived stamped with a stale epoch (the
    /// destination cell failed over in flight) and was discarded.
    ShardMsgStale {
        to: u32,
        epoch: u64,
        kind: &'static str,
    },
}

impl Event {
    /// The event's severity under the taxonomy in DESIGN.md §3.
    pub fn severity(&self) -> Severity {
        match self {
            Event::AdmissionDecision {
                accepted: false, ..
            } => Severity::Warn,
            Event::RequestFailed { .. } | Event::ShaperDrop { .. } => Severity::Warn,
            Event::HeartbeatMissed { .. }
            | Event::BackendDrained { .. }
            | Event::RecoveryRetry { .. }
            | Event::ServiceDegraded { .. }
            | Event::ServiceShed { .. }
            | Event::FaultInjected { .. }
            | Event::LinkPartitioned { .. }
            | Event::ShardSpill { .. }
            | Event::ShardMsgStale { .. } => Severity::Warn,
            Event::VsnCrash { .. } | Event::HostFailure { .. } | Event::MasterOpFailed { .. } => {
                Severity::Error
            }
            Event::HostDown { .. } | Event::PrimingFailed { .. } | Event::MasterDown { .. } => {
                Severity::Error
            }
            Event::RequestDispatched { .. }
            | Event::RequestCompleted { .. }
            | Event::SchedulerShareSample { .. }
            | Event::ShardMsgDelivered { .. } => Severity::Debug,
            _ => Severity::Info,
        }
    }

    /// Short stable name of the variant, for filtering and counting.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::AdmissionDecision { .. } => "admission_decision",
            Event::PlacementDecision { .. } => "placement_decision",
            Event::BootPhaseEntered { .. } => "boot_phase_entered",
            Event::BootPhaseCompleted { .. } => "boot_phase_completed",
            Event::SwitchCreated { .. } => "switch_created",
            Event::RequestDispatched { .. } => "request_dispatched",
            Event::RequestCompleted { .. } => "request_completed",
            Event::RequestFailed { .. } => "request_failed",
            Event::ResizeStep { .. } => "resize_step",
            Event::VsnCrash { .. } => "vsn_crash",
            Event::HostFailure { .. } => "host_failure",
            Event::ShaperDrop { .. } => "shaper_drop",
            Event::SchedulerShareSample { .. } => "scheduler_share_sample",
            Event::MasterOpFailed { .. } => "master_op_failed",
            Event::HeartbeatMissed { .. } => "heartbeat_missed",
            Event::HostDown { .. } => "host_down",
            Event::HostUp { .. } => "host_up",
            Event::BackendDrained { .. } => "backend_drained",
            Event::RecoveryAttempt { .. } => "recovery_attempt",
            Event::RecoveryPlaced { .. } => "recovery_placed",
            Event::RecoveryRetry { .. } => "recovery_retry",
            Event::RecoveryCompleted { .. } => "recovery_completed",
            Event::ServiceDegraded { .. } => "service_degraded",
            Event::ServiceShed { .. } => "service_shed",
            Event::PrimingFailed { .. } => "priming_failed",
            Event::FaultInjected { .. } => "fault_injected",
            Event::LinkPartitioned { .. } => "link_partitioned",
            Event::LinkRestored { .. } => "link_restored",
            Event::MasterDown { .. } => "master_down",
            Event::MasterRecovered { .. } => "master_recovered",
            Event::JournalReplayed { .. } => "journal_replayed",
            Event::ShardSpill { .. } => "shard_spill",
            Event::ShardMsgDelivered { .. } => "shard_msg_delivered",
            Event::ShardMsgStale { .. } => "shard_msg_stale",
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Event::AdmissionDecision {
                service,
                accepted,
                instances,
            } => write!(
                f,
                "admission service={service} instances={instances} -> {}",
                if accepted { "accept" } else { "reject" }
            ),
            Event::PlacementDecision { service, nodes } => {
                write!(f, "placement service={service} nodes={nodes}")
            }
            Event::BootPhaseEntered { vsn, host, phase } => {
                write!(f, "boot-phase-enter vsn={vsn} host={host} phase={phase}")
            }
            Event::BootPhaseCompleted { vsn, host, phase } => {
                write!(f, "boot-phase-done vsn={vsn} host={host} phase={phase}")
            }
            Event::SwitchCreated { service, backends } => {
                write!(f, "switch-created service={service} backends={backends}")
            }
            Event::RequestDispatched { service, vsn } => {
                write!(f, "request-dispatched service={service} vsn={vsn}")
            }
            Event::RequestCompleted { service, vsn } => {
                write!(f, "request-completed service={service} vsn={vsn}")
            }
            Event::RequestFailed { service, vsn } => {
                write!(f, "request-failed service={service} vsn={vsn}")
            }
            Event::ResizeStep {
                service,
                vsn,
                action,
            } => {
                write!(f, "resize-step service={service} vsn={vsn} action={action}")
            }
            Event::VsnCrash { vsn, host } => write!(f, "vsn-crash vsn={vsn} host={host}"),
            Event::HostFailure { host } => write!(f, "host-failure host={host}"),
            Event::ShaperDrop { host, ip } => write!(f, "shaper-drop host={host} ip={ip:#010x}"),
            Event::SchedulerShareSample { host, uid, share } => {
                write!(f, "sched-share host={host} uid={uid} share={share:.3}")
            }
            Event::MasterOpFailed { service, vsn, op } => {
                write!(f, "master-op-failed op={op} service={service} vsn={vsn}")
            }
            Event::HeartbeatMissed { host } => write!(f, "heartbeat-missed host={host}"),
            Event::HostDown { host } => write!(f, "host-down host={host}"),
            Event::HostUp { host } => write!(f, "host-up host={host}"),
            Event::BackendDrained { service, vsn } => {
                write!(f, "backend-drained service={service} vsn={vsn}")
            }
            Event::RecoveryAttempt { service, attempt } => {
                write!(f, "recovery-attempt service={service} attempt={attempt}")
            }
            Event::RecoveryPlaced { service, vsn, host } => {
                write!(f, "recovery-placed service={service} vsn={vsn} host={host}")
            }
            Event::RecoveryRetry {
                service,
                attempt,
                delay_ms,
            } => write!(
                f,
                "recovery-retry service={service} attempt={attempt} delay={delay_ms}ms"
            ),
            Event::RecoveryCompleted {
                service,
                vsn,
                latency_ms,
            } => write!(
                f,
                "recovery-completed service={service} vsn={vsn} latency={latency_ms}ms"
            ),
            Event::ServiceDegraded { service, capacity } => {
                write!(f, "service-degraded service={service} capacity={capacity}")
            }
            Event::ServiceShed { service, victim } => {
                write!(f, "service-shed service={service} victim={victim}")
            }
            Event::PrimingFailed { service, vsn, host } => {
                write!(f, "priming-failed service={service} vsn={vsn} host={host}")
            }
            Event::FaultInjected { kind, host, vsn } => {
                write!(f, "fault-injected kind={kind} host={host} vsn={vsn}")
            }
            Event::LinkPartitioned { host } => write!(f, "link-partitioned host={host}"),
            Event::LinkRestored { host } => write!(f, "link-restored host={host}"),
            Event::MasterDown { epoch } => write!(f, "master-down epoch={epoch}"),
            Event::MasterRecovered { epoch, replayed } => {
                write!(f, "master-recovered epoch={epoch} replayed={replayed}")
            }
            Event::JournalReplayed {
                epoch,
                entries,
                checkpoint_seq,
            } => write!(
                f,
                "journal-replayed epoch={epoch} entries={entries} checkpoint={checkpoint_seq}"
            ),
            Event::ShardSpill { service, from } => {
                write!(f, "shard-spill service={service} from={from}")
            }
            Event::ShardMsgDelivered { from, to, kind } => {
                write!(f, "shard-msg from={from} to={to} kind={kind}")
            }
            Event::ShardMsgStale { to, epoch, kind } => {
                write!(f, "shard-msg-stale to={to} epoch={epoch} kind={kind}")
            }
        }
    }
}

/// An [`Event`] with its virtual timestamp and a global sequence number
/// (ties at the same instant keep recording order).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimedEvent {
    pub time: SimTime,
    pub seq: u64,
    pub event: Event,
}

impl fmt::Display for TimedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {:5} {}",
            self.time,
            self.event.severity(),
            self.event
        )
    }
}

/// Bounded ring buffer of typed events. It evicts oldest-first, but the
/// evicted count is surfaced whenever the log is drained or formatted
/// instead of being silently discarded.
#[derive(Debug)]
pub struct EventLog {
    buf: VecDeque<TimedEvent>,
    capacity: usize,
    dropped: u64,
    seq: u64,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new(4096)
    }
}

impl EventLog {
    /// A log retaining the most recent `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        EventLog {
            buf: VecDeque::with_capacity(capacity.clamp(1, 4096)),
            capacity: capacity.max(1),
            dropped: 0,
            seq: 0,
        }
    }

    /// Appends an event, evicting the oldest at capacity.
    pub fn push(&mut self, time: SimTime, event: Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TimedEvent {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.buf.iter()
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted by the capacity bound so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Takes all retained events, pairing them with the evicted count
    /// so lossy windows are visible to whoever formats the timeline.
    pub fn drain(&mut self) -> DrainedEvents {
        let events: Vec<TimedEvent> = self.buf.drain(..).collect();
        let dropped = self.dropped;
        self.dropped = 0;
        DrainedEvents { events, dropped }
    }
}

/// The result of [`EventLog::drain`]: the retained timeline plus how
/// many older events were evicted before the drain.
#[derive(Clone, Debug, Default)]
pub struct DrainedEvents {
    pub events: Vec<TimedEvent>,
    pub dropped: u64,
}

impl fmt::Display for DrainedEvents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dropped > 0 {
            writeln!(
                f,
                "... {} earlier event(s) dropped by capacity bound ...",
                self.dropped
            )?;
        }
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

impl serde::Serialize for Event {
    fn to_json_value(&self) -> serde::Value {
        use serde::Value;
        let mut fields: Vec<(String, Value)> = vec![
            ("kind".into(), Value::String(self.kind().into())),
            (
                "severity".into(),
                Value::String(self.severity().to_string()),
            ),
        ];
        let mut put = |name: &str, v: Value| fields.push((name.into(), v));
        match *self {
            Event::AdmissionDecision {
                service,
                accepted,
                instances,
            } => {
                put("service", Value::U64(service));
                put("accepted", Value::Bool(accepted));
                put("instances", Value::U64(u64::from(instances)));
            }
            Event::PlacementDecision { service, nodes } => {
                put("service", Value::U64(service));
                put("nodes", Value::U64(u64::from(nodes)));
            }
            Event::BootPhaseEntered { vsn, host, phase }
            | Event::BootPhaseCompleted { vsn, host, phase } => {
                put("vsn", Value::U64(vsn));
                put("host", Value::U64(host));
                put("phase", Value::String(phase.into()));
            }
            Event::SwitchCreated { service, backends } => {
                put("service", Value::U64(service));
                put("backends", Value::U64(u64::from(backends)));
            }
            Event::RequestDispatched { service, vsn }
            | Event::RequestCompleted { service, vsn }
            | Event::RequestFailed { service, vsn } => {
                put("service", Value::U64(service));
                put("vsn", Value::U64(vsn));
            }
            Event::ResizeStep {
                service,
                vsn,
                action,
            } => {
                put("service", Value::U64(service));
                put("vsn", Value::U64(vsn));
                put("action", Value::String(action.into()));
            }
            Event::VsnCrash { vsn, host } => {
                put("vsn", Value::U64(vsn));
                put("host", Value::U64(host));
            }
            Event::HostFailure { host } => put("host", Value::U64(host)),
            Event::ShaperDrop { host, ip } => {
                put("host", Value::U64(host));
                put("ip", Value::U64(u64::from(ip)));
            }
            Event::SchedulerShareSample { host, uid, share } => {
                put("host", Value::U64(host));
                put("uid", Value::U64(u64::from(uid)));
                put("share", Value::F64(share));
            }
            Event::MasterOpFailed { service, vsn, op } => {
                put("service", Value::U64(service));
                put("vsn", Value::U64(vsn));
                put("op", Value::String(op.into()));
            }
            Event::HeartbeatMissed { host }
            | Event::HostDown { host }
            | Event::HostUp { host }
            | Event::LinkPartitioned { host }
            | Event::LinkRestored { host } => put("host", Value::U64(host)),
            Event::BackendDrained { service, vsn } => {
                put("service", Value::U64(service));
                put("vsn", Value::U64(vsn));
            }
            Event::RecoveryAttempt { service, attempt } => {
                put("service", Value::U64(service));
                put("attempt", Value::U64(u64::from(attempt)));
            }
            Event::RecoveryPlaced { service, vsn, host } => {
                put("service", Value::U64(service));
                put("vsn", Value::U64(vsn));
                put("host", Value::U64(host));
            }
            Event::RecoveryRetry {
                service,
                attempt,
                delay_ms,
            } => {
                put("service", Value::U64(service));
                put("attempt", Value::U64(u64::from(attempt)));
                put("delay_ms", Value::U64(delay_ms));
            }
            Event::RecoveryCompleted {
                service,
                vsn,
                latency_ms,
            } => {
                put("service", Value::U64(service));
                put("vsn", Value::U64(vsn));
                put("latency_ms", Value::U64(latency_ms));
            }
            Event::ServiceDegraded { service, capacity } => {
                put("service", Value::U64(service));
                put("capacity", Value::U64(u64::from(capacity)));
            }
            Event::ServiceShed { service, victim } => {
                put("service", Value::U64(service));
                put("victim", Value::U64(victim));
            }
            Event::PrimingFailed { service, vsn, host } => {
                put("service", Value::U64(service));
                put("vsn", Value::U64(vsn));
                put("host", Value::U64(host));
            }
            Event::FaultInjected { kind, host, vsn } => {
                put("fault", Value::String(kind.into()));
                put("host", Value::U64(host));
                put("vsn", Value::U64(vsn));
            }
            Event::MasterDown { epoch } => put("epoch", Value::U64(epoch)),
            Event::MasterRecovered { epoch, replayed } => {
                put("epoch", Value::U64(epoch));
                put("replayed", Value::U64(replayed));
            }
            Event::JournalReplayed {
                epoch,
                entries,
                checkpoint_seq,
            } => {
                put("epoch", Value::U64(epoch));
                put("entries", Value::U64(entries));
                put("checkpoint_seq", Value::U64(checkpoint_seq));
            }
            Event::ShardSpill { service, from } => {
                put("service", Value::U64(service));
                put("from", Value::U64(u64::from(from)));
            }
            Event::ShardMsgDelivered { from, to, kind } => {
                put("from", Value::U64(u64::from(from)));
                put("to", Value::U64(u64::from(to)));
                put("msg", Value::String(kind.into()));
            }
            Event::ShardMsgStale { to, epoch, kind } => {
                put("to", Value::U64(u64::from(to)));
                put("epoch", Value::U64(epoch));
                put("msg", Value::String(kind.into()));
            }
        }
        Value::Object(fields)
    }
}

impl serde::Serialize for TimedEvent {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("time_ns".into(), serde::Value::U64(self.time.as_nanos())),
            ("seq".into(), serde::Value::U64(self.seq)),
            ("event".into(), self.event.to_json_value()),
        ])
    }
}

impl serde::Serialize for DrainedEvents {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("dropped".into(), serde::Value::U64(self.dropped)),
            ("events".into(), self.events.to_json_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_taxonomy() {
        assert_eq!(
            Event::AdmissionDecision {
                service: 0,
                accepted: false,
                instances: 4
            }
            .severity(),
            Severity::Warn
        );
        assert_eq!(
            Event::AdmissionDecision {
                service: 1,
                accepted: true,
                instances: 4
            }
            .severity(),
            Severity::Info
        );
        assert_eq!(Event::HostFailure { host: 1 }.severity(), Severity::Error);
        assert_eq!(
            Event::RequestDispatched { service: 1, vsn: 2 }.severity(),
            Severity::Debug
        );
        assert!(Severity::Debug < Severity::Error);
    }

    #[test]
    fn ring_buffer_drops_oldest_and_reports() {
        let mut log = EventLog::new(2);
        for host in 0..5u64 {
            log.push(SimTime::from_secs(host), Event::HostFailure { host });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        let drained = log.drain();
        assert_eq!(drained.dropped, 3);
        assert_eq!(drained.events.len(), 2);
        assert!(drained.to_string().contains("3 earlier event(s) dropped"));
        // Drain resets both the buffer and the dropped count.
        assert_eq!(log.drain().dropped, 0);
    }

    #[test]
    fn sequence_numbers_break_time_ties() {
        let mut log = EventLog::new(8);
        log.push(SimTime::ZERO, Event::HostFailure { host: 1 });
        log.push(SimTime::ZERO, Event::HostFailure { host: 2 });
        let seqs: Vec<u64> = log.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn display_includes_severity() {
        let mut log = EventLog::new(4);
        log.push(
            SimTime::from_secs(3),
            Event::ShaperDrop {
                host: 1,
                ip: 0x0a000001,
            },
        );
        let text = log.drain().to_string();
        assert!(text.contains("WARN"), "{text}");
        assert!(text.contains("shaper-drop"), "{text}");
    }
}
