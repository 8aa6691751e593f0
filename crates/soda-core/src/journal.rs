//! Write-ahead journal and compacted checkpoints for the Master.
//!
//! The SODA Master is a single stateful control point: admissions,
//! placements, priming progress, resizes and recovery episodes all live
//! in its memory. To make the control plane crashable (a
//! `FaultSpec::MasterCrash` wipes that memory mid-flight) a warm
//! standby must be able to rebuild *authoritative* state without
//! trusting the corpse. This module is that durability layer:
//!
//! * [`JournalEntry`] — one appended record per Master state
//!   transition. Each entry is typed by [`JournalOp`] and carries a
//!   clone of the touched service's post-transition [`ServiceRecord`],
//!   so replay is last-writer-wins per service and never has to re-run
//!   placement logic (which would need the crashed master's RNG).
//! * [`Journal`] — the append log plus a periodically *compacted
//!   checkpoint*: once `checkpoint_every` entries accumulate, the
//!   journal moves their records into its base [`MasterSnapshot`] and
//!   truncates. `rebuild()` = checkpoint ⊕ tail, always O(live
//!   services + tail).
//! * [`MasterSnapshot`] / [`WorldSnapshot`] — the Master's records and
//!   counters, plus (in `WorldSnapshot`) the cell's
//!   [`RecoveryManager`] itself, raw RNG state included, so a restored
//!   run continues bit-identically.
//!
//! The journal and the checkpoints hold the live types; nothing here is
//! text until [`WorldSnapshot::render`]. Each state type owns its text
//! form: a `Serialize` impl and a `from_value` parser side by side
//! (`ServiceRecord` in `service.rs`, `RecoveryManager` in
//! `recovery.rs`), built on the value-tree helpers below.
//!
//! What the journal deliberately does NOT contain: switch routing
//! tables (the data-plane switches survive a Master crash and are
//! transplanted, not replayed) and daemon-side VSN state (the standby
//! reconciles against live daemon re-registration instead — reality
//! wins over the log when they disagree).

use std::fmt;

use serde::{Serialize, Value};
use soda_sim::{fnv1a, SimTime, FNV_OFFSET};

use crate::recovery::RecoveryManager;
use crate::service::{ServiceId, ServiceRecord};

/// Epoch-stamped recovery-episode id: `(master_epoch, seq)`.
///
/// A resurrected Master starts a fresh epoch, so an episode opened
/// after failover can never collide with — or be mistaken for a
/// continuation of — one opened by the crashed Master, even though both
/// count seq from their own stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EpisodeId {
    /// Master epoch that opened the episode.
    pub epoch: u64,
    /// Per-epoch sequence number.
    pub seq: u64,
}

impl fmt::Display for EpisodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}.{}", self.epoch, self.seq)
    }
}

// ---------------------------------------------------------------------
// Value-tree helpers (the vendored serde shim has no Deserialize; each
// state type builds and parses its own tree with these).
// ---------------------------------------------------------------------

/// An object value with `fields` in render order.
pub(crate) fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.map(|(k, v)| (k.to_string(), v)).into())
}

/// An array value of `items`, each rendered by its own `Serialize`
/// (a tuple renders as an array).
pub(crate) fn array<T: Serialize>(items: impl Iterator<Item = T>) -> Value {
    Value::Array(items.map(|t| t.to_json_value()).collect())
}

pub(crate) fn get_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key)?.as_u64()
}

fn get_f64(v: &Value, key: &str) -> Option<f64> {
    v.get(key)?.as_f64()
}

pub(crate) fn get_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key)?.as_str()
}

pub(crate) fn get_bool(v: &Value, key: &str) -> Option<bool> {
    match v.get(key)? {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

pub(crate) fn get_arr<'a>(v: &'a Value, key: &str) -> Option<&'a [Value]> {
    match v.get(key)? {
        Value::Array(items) => Some(items),
        _ => None,
    }
}

/// `null` (or absent) → `None`; otherwise the value must be a u64.
pub(crate) fn get_opt_u64(v: &Value, key: &str) -> Option<Option<u64>> {
    match v.get(key) {
        None | Some(Value::Null) => Some(None),
        Some(x) => x.as_u64().map(Some),
    }
}

/// Parses an array of `N`-element unsigned tuples, e.g. `[[a, b], ...]`.
pub(crate) fn tuples<const N: usize>(v: &Value, key: &str) -> Option<Vec<[u64; N]>> {
    get_arr(v, key)?
        .iter()
        .map(|t| {
            let mut out = [0u64; N];
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = t.index(i)?.as_u64()?;
            }
            Some(out)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Master / recovery / world snapshots
// ---------------------------------------------------------------------

/// Checkpointed control-plane state: everything a standby Master needs
/// that is not recoverable from live daemons (host availability is NOT
/// here — placement reads the daemons' reports, so reality always wins
/// over a stale log).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct MasterSnapshot {
    /// Master epoch the snapshot belongs to.
    pub epoch: u64,
    /// Next service-id counter.
    pub next_service: u64,
    /// Next VSN-id counter.
    pub next_vsn: u64,
    /// Guest-OS slow-down inflation factor.
    pub slowdown_inflation: f64,
    /// Placement-policy name (`"worst_fit"`, ...).
    pub placement: String,
    /// Live service records, sorted by id.
    pub services: Vec<ServiceRecord>,
}

impl MasterSnapshot {
    /// Parses a snapshot out of a value tree.
    pub fn from_value(v: &Value) -> Option<Self> {
        Some(MasterSnapshot {
            epoch: get_u64(v, "epoch")?,
            next_service: get_u64(v, "next_service")?,
            next_vsn: get_u64(v, "next_vsn")?,
            slowdown_inflation: get_f64(v, "slowdown_inflation")?,
            placement: get_str(v, "placement")?.to_string(),
            services: get_arr(v, "services")?
                .iter()
                .map(ServiceRecord::from_value)
                .collect::<Option<Vec<_>>>()?,
        })
    }

    /// Stable hash of the rendered snapshot.
    pub fn fingerprint(&self) -> u64 {
        let text = serde_json::to_string(self).expect("snapshot renders");
        fnv1a(FNV_OFFSET, text.as_bytes())
    }
}

/// The control plane's durable state at an instant: Master + recovery
/// manager. Render with [`WorldSnapshot::render`], parse back with
/// [`WorldSnapshot::parse`]; restoring the parsed snapshot into the
/// same world must continue fingerprint-identically (tier-1 test).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct WorldSnapshot {
    /// Capture instant (ns).
    pub at_ns: u64,
    /// Master control state.
    pub master: MasterSnapshot,
    /// The cell's recovery manager.
    pub recovery: RecoveryManager,
}

impl WorldSnapshot {
    /// Renders compact JSON.
    pub fn render(&self) -> String {
        serde_json::to_string(self).expect("snapshot renders")
    }

    /// Parses a rendered snapshot.
    pub fn parse(text: &str) -> Option<Self> {
        Self::from_value(&serde_json::from_str(text).ok()?)
    }

    /// Parses a snapshot out of a value tree.
    pub fn from_value(v: &Value) -> Option<Self> {
        Some(WorldSnapshot {
            at_ns: get_u64(v, "at_ns")?,
            master: MasterSnapshot::from_value(v.get("master")?)?,
            recovery: RecoveryManager::from_value(v.get("recovery")?)?,
        })
    }

    /// Stable hash of the rendered snapshot.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(FNV_OFFSET, self.render().as_bytes())
    }
}

// ---------------------------------------------------------------------
// The journal proper
// ---------------------------------------------------------------------

/// What kind of Master transition an entry records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalOp {
    /// A service was admitted and its nodes placed.
    Admission,
    /// Priming progress: a node finished booting (or the switch came
    /// up and the service went Running).
    Priming,
    /// A resize changed node count or capacities.
    Resize,
    /// A recovery action mutated the record (scrub, replacement,
    /// re-prime commit).
    Recovery,
    /// The service was torn down.
    Teardown,
    /// A recovery episode was opened (no record mutation).
    EpisodeOpen,
    /// A recovery episode was closed (no record mutation).
    EpisodeClose,
    /// A standby took over as a new epoch (no record mutation).
    EpochBump,
}

impl JournalOp {
    /// True when replay should apply the carried record.
    fn mutates_record(self) -> bool {
        !matches!(
            self,
            JournalOp::EpisodeOpen | JournalOp::EpisodeClose | JournalOp::EpochBump
        )
    }
}

/// One appended journal record.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEntry {
    /// Monotonic sequence number (never reset by compaction).
    pub seq: u64,
    /// Append instant (ns).
    pub at_ns: u64,
    /// Transition kind.
    pub op: JournalOp,
    /// Touched service (raw id; 0 for epoch bumps).
    pub service: u64,
    /// Episode id for episode entries.
    pub episode: Option<EpisodeId>,
    /// Post-transition record; `None` means the record is gone.
    pub record: Option<ServiceRecord>,
    /// Master id counters after the transition (replay restores the
    /// latest pair so a standby never re-issues a used id).
    pub next_service: u64,
    /// See `next_service`.
    pub next_vsn: u64,
}

/// Replays a journal tail onto a snapshot: last-writer-wins per
/// service, counters from the newest entry. `snap.services` stays
/// sorted by id (the `MasterSnapshot` invariant), so each record lands
/// by binary search and a tombstone removes at most one slot. The
/// entries are consumed: their records move into the snapshot.
fn apply_entries(snap: &mut MasterSnapshot, entries: impl IntoIterator<Item = JournalEntry>) {
    for entry in entries {
        snap.next_service = entry.next_service;
        snap.next_vsn = entry.next_vsn;
        if !entry.op.mutates_record() {
            continue;
        }
        let slot = snap
            .services
            .binary_search_by_key(&entry.service, |s| s.id.0);
        match (entry.record, slot) {
            (Some(rec), Ok(at)) => snap.services[at] = rec,
            (Some(rec), Err(at)) => snap.services.insert(at, rec),
            (None, Ok(at)) => {
                snap.services.remove(at);
            }
            (None, Err(_)) => {}
        }
    }
}

/// Append-only journal with compacted checkpoints.
#[derive(Clone, Debug)]
pub struct Journal {
    epoch: u64,
    next_seq: u64,
    checkpoint: MasterSnapshot,
    checkpoint_seq: u64,
    entries: Vec<JournalEntry>,
    checkpoint_every: usize,
    appended_total: u64,
    checkpoints_taken: u64,
}

impl Journal {
    /// A journal whose genesis checkpoint is `initial` (capture the
    /// Master at world construction), compacting every
    /// `checkpoint_every` entries.
    pub fn new(initial: MasterSnapshot, checkpoint_every: usize) -> Self {
        Journal {
            epoch: initial.epoch,
            next_seq: 1,
            checkpoint: initial,
            checkpoint_seq: 0,
            entries: Vec::new(),
            checkpoint_every: checkpoint_every.max(1),
            appended_total: 0,
            checkpoints_taken: 0,
        }
    }

    /// Current master epoch (survives crashes — the journal is the
    /// durable medium).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the epoch at standby takeover and journals the bump.
    pub fn bump_epoch(&mut self, now: SimTime, counters: (u64, u64)) -> u64 {
        self.epoch += 1;
        self.append(
            now,
            JournalOp::EpochBump,
            ServiceId(0),
            None,
            None,
            counters,
        );
        self.epoch
    }

    /// Appends one transition. `record` is the post-transition record
    /// (`None` = the record no longer exists); `counters` is the
    /// Master's `(next_service, next_vsn)` after the transition.
    pub fn append(
        &mut self,
        now: SimTime,
        op: JournalOp,
        service: ServiceId,
        episode: Option<EpisodeId>,
        record: Option<ServiceRecord>,
        counters: (u64, u64),
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.appended_total += 1;
        self.entries.push(JournalEntry {
            seq,
            at_ns: now.as_nanos(),
            op,
            service: service.0,
            episode,
            record,
            next_service: counters.0,
            next_vsn: counters.1,
        });
        if self.entries.len() >= self.checkpoint_every {
            self.compact();
        }
        seq
    }

    /// Folds the tail into the checkpoint and truncates. The fold is
    /// in place and moves each entry's record rather than copying it —
    /// compaction cost is O(tail × log services), not O(services):
    /// cloning the whole checkpoint here made every 64th journal append
    /// pay for the entire control plane, which summed quadratic over a
    /// 500k-service creation wave.
    pub fn compact(&mut self) {
        if self.entries.is_empty() {
            return;
        }
        let seq = self
            .entries
            .last()
            .map(|e| e.seq)
            .unwrap_or(self.checkpoint_seq);
        self.checkpoint.epoch = self.epoch;
        apply_entries(&mut self.checkpoint, self.entries.drain(..));
        self.checkpoint_seq = seq;
        self.checkpoints_taken += 1;
    }

    /// Checkpoint ⊕ tail: the authoritative Master state per the log.
    /// Last-writer-wins per service; counters come from the newest
    /// entry.
    pub fn rebuild(&self) -> MasterSnapshot {
        let mut snap = self.checkpoint.clone();
        snap.epoch = self.epoch;
        apply_entries(&mut snap, self.entries.iter().cloned());
        snap
    }

    /// Entries a standby must replay on top of the checkpoint.
    pub fn replay_len(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Sequence number the checkpoint covers through (0 = genesis).
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }

    /// Total entries ever appended.
    pub fn appended_total(&self) -> u64 {
        self.appended_total
    }

    /// Compactions performed.
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints_taken
    }

    /// The uncompacted tail (newest last).
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{PlacedNode, ServiceSpec, ServiceState};
    use soda_hostos::resources::ResourceVector;
    use soda_hup::host::HostId;
    use soda_vmm::rootfs::RootFsCatalog;
    use soda_vmm::sysservices::StartupClass;
    use soda_vmm::vsn::VsnId;

    fn record(id: u64, ready: usize) -> ServiceRecord {
        ServiceRecord {
            id: ServiceId(id),
            spec: ServiceSpec {
                name: format!("svc{id}"),
                image: RootFsCatalog::new().base_1_0(),
                required_services: vec!["network", "httpd"],
                app_class: StartupClass::Light,
                instances: 2,
                machine: ResourceVector {
                    cpu_mhz: 500,
                    mem_mb: 256,
                    disk_mb: 1000,
                    bw_mbps: 10,
                },
                port: 8080,
            },
            asp: "asp-a".to_string(),
            state: ServiceState::Running,
            nodes: vec![
                PlacedNode {
                    host: HostId(1),
                    vsn: VsnId(10 * id),
                    capacity: 3,
                },
                PlacedNode {
                    host: HostId(2),
                    vsn: VsnId(10 * id + 1),
                    capacity: 2,
                },
            ],
            nodes_ready: ready,
        }
    }

    fn base_snapshot() -> MasterSnapshot {
        MasterSnapshot {
            epoch: 1,
            next_service: 1,
            next_vsn: 1,
            slowdown_inflation: 1.25,
            placement: "worst_fit".to_string(),
            services: Vec::new(),
        }
    }

    #[test]
    fn rebuild_is_last_writer_wins_per_service() {
        let mut j = Journal::new(base_snapshot(), 1000);
        let t = SimTime::from_secs(1);
        let mut early = record(1, 0);
        early.state = ServiceState::Creating;
        j.append(
            t,
            JournalOp::Admission,
            ServiceId(1),
            None,
            Some(early),
            (2, 3),
        );
        let late = record(1, 2);
        j.append(
            t,
            JournalOp::Priming,
            ServiceId(1),
            None,
            Some(late.clone()),
            (2, 3),
        );
        j.append(
            t,
            JournalOp::Admission,
            ServiceId(2),
            None,
            Some(record(2, 1)),
            (3, 5),
        );
        let snap = j.rebuild();
        assert_eq!(snap.services.len(), 2);
        assert_eq!(snap.services[0], late);
        assert_eq!((snap.next_service, snap.next_vsn), (3, 5));
    }

    #[test]
    fn compaction_preserves_rebuild_and_truncates() {
        let mut full = Journal::new(base_snapshot(), 1000);
        let mut compacting = Journal::new(base_snapshot(), 3);
        let t = SimTime::from_secs(2);
        for id in 1..=7u64 {
            let rec = record(id, 1);
            full.append(
                t,
                JournalOp::Admission,
                ServiceId(id),
                None,
                Some(rec.clone()),
                (id + 1, id * 2),
            );
            compacting.append(
                t,
                JournalOp::Admission,
                ServiceId(id),
                None,
                Some(rec),
                (id + 1, id * 2),
            );
        }
        // A tombstone flows through compaction too.
        full.append(t, JournalOp::Teardown, ServiceId(3), None, None, (8, 14));
        compacting.append(t, JournalOp::Teardown, ServiceId(3), None, None, (8, 14));
        assert!(compacting.checkpoints_taken() > 0);
        assert!(compacting.replay_len() < full.replay_len());
        assert_eq!(compacting.rebuild(), full.rebuild());
        assert_eq!(compacting.appended_total(), full.appended_total());
    }

    #[test]
    fn episode_entries_do_not_touch_records() {
        let mut j = Journal::new(base_snapshot(), 1000);
        let t = SimTime::from_secs(3);
        j.append(
            t,
            JournalOp::Admission,
            ServiceId(1),
            None,
            Some(record(1, 2)),
            (2, 3),
        );
        let id = EpisodeId { epoch: 1, seq: 4 };
        j.append(
            t,
            JournalOp::EpisodeOpen,
            ServiceId(1),
            Some(id),
            None,
            (2, 3),
        );
        j.append(
            t,
            JournalOp::EpisodeClose,
            ServiceId(1),
            Some(id),
            None,
            (2, 3),
        );
        assert_eq!(j.rebuild().services.len(), 1);
    }

    /// The recovery half is given as text: it must parse, and the whole
    /// snapshot must render back to the same bytes and parse again.
    #[test]
    fn world_snapshot_round_trips_through_text() {
        let recovery_text = concat!(
            r#"{"enabled":true,"episode_epoch":2,"next_seq":6,"#,
            r#""rng":[1,18446744073709551615,3,3735928559],"#,
            r#""hosts":[{"host":1,"last_heartbeat_ns":55,"up":true}],"#,
            r#""episodes":[{"epoch":1,"seq":5,"service":4,"capacity":3,"lost_at_ns":99,"#,
            r#""dead_vsn":40,"origin_host":null,"attempt":2,"replacement":null,"#,
            r#""try_reprime":false,"shed_done":true,"degraded":true,"parked_until_ns":1000}],"#,
            r#""degraded_since":[[4,77]],"degraded_total":[[4,11]],"#,
            r#""priorities":[[4,4294967306],[5,4294967293]],"#,
            r#""stats":{"detections":[[1,88]],"recoveries":[[1,2,3]],"retries":2,"#,
            r#""degradations":1,"sheds":1,"false_alarms":0,"invariant_violations":0}}"#,
        );
        let recovery = RecoveryManager::from_value(&serde_json::from_str(recovery_text).unwrap())
            .expect("recovery text parses");
        assert_eq!(serde_json::to_string(&recovery).unwrap(), recovery_text);
        let ws = WorldSnapshot {
            at_ns: 123_456_789,
            master: MasterSnapshot {
                epoch: 2,
                next_service: 9,
                next_vsn: 31,
                slowdown_inflation: 1.3,
                placement: "worst_fit".to_string(),
                services: vec![record(4, 2)],
            },
            recovery,
        };
        let text = ws.render();
        let back = WorldSnapshot::parse(&text).expect("parses");
        assert_eq!(ws, back);
        assert_eq!(back.render(), text);
        assert_eq!(ws.fingerprint(), back.fingerprint());
    }
}
