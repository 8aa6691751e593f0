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
//!   transition. Each entry is typed by [`JournalOp`] and carries the
//!   post-transition [`ServiceSnapshot`] of the touched service, so
//!   replay is last-writer-wins per service and never has to re-run
//!   placement logic (which would need the crashed master's RNG).
//! * [`Journal`] — the append log plus a periodically *compacted
//!   checkpoint*: once `checkpoint_every` entries accumulate, the
//!   journal folds them into its base [`MasterSnapshot`] and truncates.
//!   `rebuild()` = checkpoint ⊕ tail, always O(live services + tail).
//! * [`MasterSnapshot`] / [`WorldSnapshot`] — serde round-trippable
//!   (render → parse → restore) and fingerprint-stable control-plane
//!   state; `WorldSnapshot` adds the recovery manager (including its
//!   raw RNG state) so a restored run continues bit-identically.
//!
//! What the journal deliberately does NOT contain: switch routing
//! tables (the data-plane switches survive a Master crash and are
//! transplanted, not replayed) and daemon-side VSN state (the standby
//! reconciles against live daemon re-registration instead — reality
//! wins over the log when they disagree).

use std::fmt;

use serde::{Serialize, Value};
use soda_sim::SimTime;
use soda_vmm::rootfs::RootFsImage;
use soda_vmm::sysservices::{ServiceCatalog, StartupClass, SystemServiceId};

use crate::service::{PlacedNode, ServiceId, ServiceRecord, ServiceSpec, ServiceState};

use soda_hostos::resources::ResourceVector;
use soda_hup::host::HostId;
use soda_vmm::vsn::VsnId;

/// FNV-1a over a rendered snapshot/journal — the same hash the event
/// log fingerprints use, so "fingerprint-stable" means one thing
/// everywhere in the repo.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

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

impl Serialize for EpisodeId {
    fn to_json_value(&self) -> Value {
        Value::Array(vec![Value::U64(self.epoch), Value::U64(self.seq)])
    }
}

// ---------------------------------------------------------------------
// Value-tree parsing helpers (the vendored serde shim has no
// Deserialize; snapshots parse their own trees).
// ---------------------------------------------------------------------

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key)?.as_u64()
}

fn get_f64(v: &Value, key: &str) -> Option<f64> {
    v.get(key)?.as_f64()
}

fn get_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key)?.as_str()
}

fn get_bool(v: &Value, key: &str) -> Option<bool> {
    match v.get(key)? {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn get_arr<'a>(v: &'a Value, key: &str) -> Option<&'a [Value]> {
    match v.get(key)? {
        Value::Array(items) => Some(items),
        _ => None,
    }
}

/// `null` (or absent) → `None`; otherwise the value must be a u64.
fn get_opt_u64(v: &Value, key: &str) -> Option<Option<u64>> {
    match v.get(key) {
        None | Some(Value::Null) => Some(None),
        Some(x) => x.as_u64().map(Some),
    }
}

/// Parses an array of `[a, b]` pairs.
fn pairs(v: &Value, key: &str) -> Option<Vec<(u64, u64)>> {
    get_arr(v, key)?
        .iter()
        .map(|p| Some((p.index(0)?.as_u64()?, p.index(1)?.as_u64()?)))
        .collect()
}

// ---------------------------------------------------------------------
// Service snapshots
// ---------------------------------------------------------------------

/// One placed node inside a [`ServiceSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct NodeSnapshot {
    /// Host id the node was placed on.
    pub host: u64,
    /// The node's VSN id.
    pub vsn: u64,
    /// Capacity units assigned to the node.
    pub capacity: u32,
}

fn state_str(state: ServiceState) -> &'static str {
    match state {
        ServiceState::Creating => "creating",
        ServiceState::Running => "running",
        ServiceState::Resizing => "resizing",
        ServiceState::TornDown => "torn_down",
    }
}

fn state_from_str(s: &str) -> Option<ServiceState> {
    Some(match s {
        "creating" => ServiceState::Creating,
        "running" => ServiceState::Running,
        "resizing" => ServiceState::Resizing,
        "torn_down" => ServiceState::TornDown,
        _ => return None,
    })
}

fn class_str(class: StartupClass) -> &'static str {
    match class {
        StartupClass::Trivial => "trivial",
        StartupClass::Light => "light",
        StartupClass::Heavy => "heavy",
    }
}

fn class_from_str(s: &str) -> Option<StartupClass> {
    Some(match s {
        "trivial" => StartupClass::Trivial,
        "light" => StartupClass::Light,
        "heavy" => StartupClass::Heavy,
        _ => return None,
    })
}

/// A full, self-contained snapshot of one [`ServiceRecord`] — enough to
/// rebuild the record (spec included) on a standby Master that shares
/// nothing with the crashed one but this journal.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ServiceSnapshot {
    /// Service id (raw).
    pub id: u64,
    /// The ASP that owns the service.
    pub asp: String,
    /// Lifecycle state as a string (`"creating"`, `"running"`, ...).
    pub state: String,
    /// Spec: service name.
    pub name: String,
    /// Spec: root filesystem image name.
    pub image_name: String,
    /// Spec: image system-part bytes.
    pub image_system_bytes: u64,
    /// Spec: image data-part bytes.
    pub image_data_bytes: u64,
    /// Spec: installed system-service catalog ids.
    pub image_installed: Vec<u64>,
    /// Spec: pristine image (not tailorable).
    pub image_pristine: bool,
    /// Spec: required system services by catalog name.
    pub required_services: Vec<String>,
    /// Spec: startup weight class.
    pub app_class: String,
    /// Spec: requested instance count.
    pub instances: u32,
    /// Spec machine vector.
    pub cpu_mhz: u32,
    /// Spec machine vector.
    pub mem_mb: u32,
    /// Spec machine vector.
    pub disk_mb: u32,
    /// Spec machine vector.
    pub bw_mbps: u32,
    /// Spec: service port.
    pub port: u16,
    /// Placed nodes in record order.
    pub nodes: Vec<NodeSnapshot>,
    /// How many nodes have finished priming.
    pub nodes_ready: u64,
}

impl ServiceSnapshot {
    /// Captures a live record.
    pub fn capture(rec: &ServiceRecord) -> Self {
        ServiceSnapshot {
            id: rec.id.0,
            asp: rec.asp.clone(),
            state: state_str(rec.state).to_string(),
            name: rec.spec.name.clone(),
            image_name: rec.spec.image.name.clone(),
            image_system_bytes: rec.spec.image.system_bytes,
            image_data_bytes: rec.spec.image.data_bytes,
            image_installed: rec
                .spec
                .image
                .installed
                .iter()
                .map(|id| u64::from(id.0))
                .collect(),
            image_pristine: rec.spec.image.pristine,
            required_services: rec
                .spec
                .required_services
                .iter()
                .map(|s| s.to_string())
                .collect(),
            app_class: class_str(rec.spec.app_class).to_string(),
            instances: rec.spec.instances,
            cpu_mhz: rec.spec.machine.cpu_mhz,
            mem_mb: rec.spec.machine.mem_mb,
            disk_mb: rec.spec.machine.disk_mb,
            bw_mbps: rec.spec.machine.bw_mbps,
            port: rec.spec.port,
            nodes: rec
                .nodes
                .iter()
                .map(|n| NodeSnapshot {
                    host: u64::from(n.host.0),
                    vsn: n.vsn.0,
                    capacity: n.capacity,
                })
                .collect(),
            nodes_ready: rec.nodes_ready as u64,
        }
    }

    /// Rebuilds the record. Required-service names are resolved against
    /// the standard catalog (the only source of `&'static str` names);
    /// unknown names are dropped rather than invented.
    pub fn restore(&self) -> Option<ServiceRecord> {
        let catalog = ServiceCatalog::standard();
        let required: Vec<&'static str> = self
            .required_services
            .iter()
            .filter_map(|want| catalog.names().find(|n| n == want))
            .collect();
        let spec = ServiceSpec {
            name: self.name.clone(),
            image: RootFsImage {
                name: self.image_name.clone(),
                system_bytes: self.image_system_bytes,
                data_bytes: self.image_data_bytes,
                installed: self
                    .image_installed
                    .iter()
                    .map(|&id| SystemServiceId(id as u16))
                    .collect(),
                pristine: self.image_pristine,
            },
            required_services: required,
            app_class: class_from_str(&self.app_class)?,
            instances: self.instances,
            machine: ResourceVector {
                cpu_mhz: self.cpu_mhz,
                mem_mb: self.mem_mb,
                disk_mb: self.disk_mb,
                bw_mbps: self.bw_mbps,
            },
            port: self.port,
        };
        Some(ServiceRecord {
            id: ServiceId(self.id),
            spec,
            asp: self.asp.clone(),
            state: state_from_str(&self.state)?,
            nodes: self
                .nodes
                .iter()
                .map(|n| PlacedNode {
                    host: HostId(n.host as u32),
                    vsn: VsnId(n.vsn),
                    capacity: n.capacity,
                })
                .collect(),
            nodes_ready: self.nodes_ready as usize,
        })
    }

    /// Parses a snapshot out of a rendered-and-reparsed value tree.
    pub fn from_value(v: &Value) -> Option<Self> {
        Some(ServiceSnapshot {
            id: get_u64(v, "id")?,
            asp: get_str(v, "asp")?.to_string(),
            state: get_str(v, "state")?.to_string(),
            name: get_str(v, "name")?.to_string(),
            image_name: get_str(v, "image_name")?.to_string(),
            image_system_bytes: get_u64(v, "image_system_bytes")?,
            image_data_bytes: get_u64(v, "image_data_bytes")?,
            image_installed: get_arr(v, "image_installed")?
                .iter()
                .map(Value::as_u64)
                .collect::<Option<Vec<_>>>()?,
            image_pristine: get_bool(v, "image_pristine")?,
            required_services: get_arr(v, "required_services")?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?,
            app_class: get_str(v, "app_class")?.to_string(),
            instances: get_u64(v, "instances")? as u32,
            cpu_mhz: get_u64(v, "cpu_mhz")? as u32,
            mem_mb: get_u64(v, "mem_mb")? as u32,
            disk_mb: get_u64(v, "disk_mb")? as u32,
            bw_mbps: get_u64(v, "bw_mbps")? as u32,
            port: get_u64(v, "port")? as u16,
            nodes: get_arr(v, "nodes")?
                .iter()
                .map(|n| {
                    Some(NodeSnapshot {
                        host: get_u64(n, "host")?,
                        vsn: get_u64(n, "vsn")?,
                        capacity: get_u64(n, "capacity")? as u32,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
            nodes_ready: get_u64(v, "nodes_ready")?,
        })
    }
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
    pub services: Vec<ServiceSnapshot>,
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
                .map(ServiceSnapshot::from_value)
                .collect::<Option<Vec<_>>>()?,
        })
    }

    /// Stable hash of the rendered snapshot.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&serde_json::to_string(self).expect("snapshot renders"))
    }
}

/// One tracked host inside a [`RecoverySnapshot`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct HostSnapshot {
    /// Host id.
    pub host: u64,
    /// Last heartbeat instant (ns).
    pub last_heartbeat_ns: u64,
    /// Believed up (vs declared down).
    pub up: bool,
}

/// One in-flight recovery episode inside a [`RecoverySnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct EpisodeSnapshot {
    /// Epoch half of the episode id.
    pub epoch: u64,
    /// Sequence half of the episode id.
    pub seq: u64,
    /// Service being recovered.
    pub service: u64,
    /// Capacity units being replaced.
    pub capacity: u32,
    /// When the node was lost (ns).
    pub lost_at_ns: u64,
    /// Dead VSN not yet scrubbed from the record.
    pub dead_vsn: Option<u64>,
    /// Host the node died on.
    pub origin_host: Option<u64>,
    /// Placement attempts so far.
    pub attempt: u32,
    /// Replacement VSN once placed.
    pub replacement: Option<u64>,
    /// Re-prime in place is still worth trying.
    pub try_reprime: bool,
    /// A shed was already performed for this episode.
    pub shed_done: bool,
    /// The service was marked degraded by this episode.
    pub degraded: bool,
    /// Parked until this instant (ns), if parked.
    pub parked_until_ns: Option<u64>,
}

impl EpisodeSnapshot {
    fn from_value(v: &Value) -> Option<Self> {
        Some(EpisodeSnapshot {
            epoch: get_u64(v, "epoch")?,
            seq: get_u64(v, "seq")?,
            service: get_u64(v, "service")?,
            capacity: get_u64(v, "capacity")? as u32,
            lost_at_ns: get_u64(v, "lost_at_ns")?,
            dead_vsn: get_opt_u64(v, "dead_vsn")?,
            origin_host: get_opt_u64(v, "origin_host")?,
            attempt: get_u64(v, "attempt")? as u32,
            replacement: get_opt_u64(v, "replacement")?,
            try_reprime: get_bool(v, "try_reprime")?,
            shed_done: get_bool(v, "shed_done")?,
            degraded: get_bool(v, "degraded")?,
            parked_until_ns: get_opt_u64(v, "parked_until_ns")?,
        })
    }
}

/// Recovery-manager bookkeeping: detections and recoveries keyed by
/// epoch-stamped episode id, plus plain counters.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct StatsSnapshot {
    /// `(host, detected_at_ns)` per down declaration.
    pub detections: Vec<(u64, u64)>,
    /// `(epoch, seq, time_to_recover_ns)` per completed episode.
    pub recoveries: Vec<(u64, u64, u64)>,
    /// Scheduled placement retries.
    pub retries: u64,
    /// Episodes that degraded their service.
    pub degradations: u64,
    /// Lower-priority services shed.
    pub sheds: u64,
    /// Hosts that flapped back before being declared down.
    pub false_alarms: u64,
    /// Routed-to-dead-VSN invariant hits.
    pub invariant_violations: u64,
}

impl StatsSnapshot {
    fn from_value(v: &Value) -> Option<Self> {
        let triples = |key: &str| -> Option<Vec<(u64, u64, u64)>> {
            get_arr(v, key)?
                .iter()
                .map(|t| {
                    Some((
                        t.index(0)?.as_u64()?,
                        t.index(1)?.as_u64()?,
                        t.index(2)?.as_u64()?,
                    ))
                })
                .collect()
        };
        Some(StatsSnapshot {
            detections: pairs(v, "detections")?,
            recoveries: triples("recoveries")?,
            retries: get_u64(v, "retries")?,
            degradations: get_u64(v, "degradations")?,
            sheds: get_u64(v, "sheds")?,
            false_alarms: get_u64(v, "false_alarms")?,
            invariant_violations: get_u64(v, "invariant_violations")?,
        })
    }
}

/// Full recovery-manager state, including the raw RNG words — jittered
/// retry delays draw from this stream, so a restored run must resume it
/// exactly or diverge from the uncheckpointed trajectory.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct RecoverySnapshot {
    /// Self-healing armed.
    pub enabled: bool,
    /// Epoch stamped onto newly opened episodes.
    pub episode_epoch: u64,
    /// Next per-epoch episode sequence number.
    pub next_seq: u64,
    /// xoshiro256** state words.
    pub rng: [u64; 4],
    /// Tracked hosts.
    pub hosts: Vec<HostSnapshot>,
    /// In-flight episodes.
    pub episodes: Vec<EpisodeSnapshot>,
    /// `(service, since_ns)` for currently degraded services.
    pub degraded_since: Vec<(u64, u64)>,
    /// `(service, total_ns)` accumulated degraded time.
    pub degraded_total: Vec<(u64, u64)>,
    /// `(service, priority+2^32)` — priorities are small signed ints,
    /// biased so the pair fits the unsigned pair encoding.
    pub priorities: Vec<(u64, u64)>,
    /// Accounting.
    pub stats: StatsSnapshot,
}

/// Bias for encoding signed priorities in unsigned pairs.
pub const PRIORITY_BIAS: u64 = 1 << 32;

impl RecoverySnapshot {
    /// Parses a snapshot out of a value tree.
    pub fn from_value(v: &Value) -> Option<Self> {
        let rng_arr = get_arr(v, "rng")?;
        if rng_arr.len() != 4 {
            return None;
        }
        let mut rng = [0u64; 4];
        for (slot, word) in rng.iter_mut().zip(rng_arr) {
            *slot = word.as_u64()?;
        }
        Some(RecoverySnapshot {
            enabled: get_bool(v, "enabled")?,
            episode_epoch: get_u64(v, "episode_epoch")?,
            next_seq: get_u64(v, "next_seq")?,
            rng,
            hosts: get_arr(v, "hosts")?
                .iter()
                .map(|h| {
                    Some(HostSnapshot {
                        host: get_u64(h, "host")?,
                        last_heartbeat_ns: get_u64(h, "last_heartbeat_ns")?,
                        up: get_bool(h, "up")?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
            episodes: get_arr(v, "episodes")?
                .iter()
                .map(EpisodeSnapshot::from_value)
                .collect::<Option<Vec<_>>>()?,
            degraded_since: pairs(v, "degraded_since")?,
            degraded_total: pairs(v, "degraded_total")?,
            priorities: pairs(v, "priorities")?,
            stats: StatsSnapshot::from_value(v.get("stats")?)?,
        })
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
    /// Recovery-manager state.
    pub recovery: RecoverySnapshot,
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
            recovery: RecoverySnapshot::from_value(v.get("recovery")?)?,
        })
    }

    /// Stable hash of the rendered snapshot.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&self.render())
    }
}

// ---------------------------------------------------------------------
// The journal proper
// ---------------------------------------------------------------------

/// What kind of Master transition an entry records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
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
    /// Stable name for rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            JournalOp::Admission => "admission",
            JournalOp::Priming => "priming",
            JournalOp::Resize => "resize",
            JournalOp::Recovery => "recovery",
            JournalOp::Teardown => "teardown",
            JournalOp::EpisodeOpen => "episode_open",
            JournalOp::EpisodeClose => "episode_close",
            JournalOp::EpochBump => "epoch_bump",
        }
    }

    /// True when replay should apply the carried record.
    fn mutates_record(self) -> bool {
        !matches!(
            self,
            JournalOp::EpisodeOpen | JournalOp::EpisodeClose | JournalOp::EpochBump
        )
    }
}

/// One appended journal record.
#[derive(Clone, Debug, PartialEq, Serialize)]
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
    pub record: Option<ServiceSnapshot>,
    /// Master id counters after the transition (replay restores the
    /// latest pair so a standby never re-issues a used id).
    pub next_service: u64,
    /// See `next_service`.
    pub next_vsn: u64,
}

/// Replays a journal tail onto a snapshot: last-writer-wins per
/// service, counters from the newest entry. `snap.services` stays
/// sorted by id (the `MasterSnapshot` invariant), so each record lands
/// by binary search and a tombstone removes at most one slot.
fn apply_entries(snap: &mut MasterSnapshot, entries: &[JournalEntry]) {
    for entry in entries {
        snap.next_service = entry.next_service;
        snap.next_vsn = entry.next_vsn;
        if !entry.op.mutates_record() {
            continue;
        }
        match &entry.record {
            Some(rec) => match snap.services.binary_search_by_key(&entry.service, |s| s.id) {
                Ok(at) => snap.services[at] = rec.clone(),
                Err(at) => snap.services.insert(at, rec.clone()),
            },
            None => {
                if let Ok(at) = snap.services.binary_search_by_key(&entry.service, |s| s.id) {
                    snap.services.remove(at);
                }
            }
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

    /// Appends one transition. `record` is the post-transition snapshot
    /// (`None` = the record no longer exists); `counters` is the
    /// Master's `(next_service, next_vsn)` after the transition.
    pub fn append(
        &mut self,
        now: SimTime,
        op: JournalOp,
        service: ServiceId,
        episode: Option<EpisodeId>,
        record: Option<ServiceSnapshot>,
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
    /// in place — compaction cost is O(tail × log services), not
    /// O(services): cloning the whole checkpoint here made every 64th
    /// journal append pay for the entire control plane, which summed
    /// quadratic over a 500k-service creation wave.
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
        apply_entries(&mut self.checkpoint, &self.entries);
        self.checkpoint_seq = seq;
        self.entries.clear();
        self.checkpoints_taken += 1;
    }

    /// Checkpoint ⊕ tail: the authoritative Master state per the log.
    /// Last-writer-wins per service; counters come from the newest
    /// entry.
    pub fn rebuild(&self) -> MasterSnapshot {
        let mut snap = self.checkpoint.clone();
        snap.epoch = self.epoch;
        apply_entries(&mut snap, &self.entries);
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

impl Serialize for Journal {
    fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("epoch".to_string(), Value::U64(self.epoch)),
            (
                "checkpoint_seq".to_string(),
                Value::U64(self.checkpoint_seq),
            ),
            ("checkpoint".to_string(), self.checkpoint.to_json_value()),
            ("entries".to_string(), self.entries.to_json_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_vmm::rootfs::RootFsCatalog;

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
    fn service_snapshot_survives_render_parse_restore() {
        let rec = record(7, 2);
        let snap = ServiceSnapshot::capture(&rec);
        let text = serde_json::to_string(&snap).unwrap();
        let back = ServiceSnapshot::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(snap, back);
        let restored = back.restore().unwrap();
        assert_eq!(restored.id, rec.id);
        assert_eq!(restored.state, rec.state);
        assert_eq!(restored.nodes, rec.nodes);
        assert_eq!(restored.nodes_ready, rec.nodes_ready);
        assert_eq!(restored.spec.name, rec.spec.name);
        assert_eq!(restored.spec.required_services, rec.spec.required_services);
        assert_eq!(restored.spec.machine, rec.spec.machine);
        assert_eq!(restored.spec.image.installed, rec.spec.image.installed);
    }

    #[test]
    fn rebuild_is_last_writer_wins_per_service() {
        let mut j = Journal::new(base_snapshot(), 1000);
        let t = SimTime::from_secs(1);
        let mut early = ServiceSnapshot::capture(&record(1, 0));
        early.state = "creating".to_string();
        j.append(
            t,
            JournalOp::Admission,
            ServiceId(1),
            None,
            Some(early),
            (2, 3),
        );
        let late = ServiceSnapshot::capture(&record(1, 2));
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
            Some(ServiceSnapshot::capture(&record(2, 1))),
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
            let rec = ServiceSnapshot::capture(&record(id, 1));
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
            Some(ServiceSnapshot::capture(&record(1, 2))),
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

    #[test]
    fn world_snapshot_round_trips_through_text() {
        let ws = WorldSnapshot {
            at_ns: 123_456_789,
            master: MasterSnapshot {
                epoch: 2,
                next_service: 9,
                next_vsn: 31,
                slowdown_inflation: 1.3,
                placement: "worst_fit".to_string(),
                services: vec![ServiceSnapshot::capture(&record(4, 2))],
            },
            recovery: RecoverySnapshot {
                enabled: true,
                episode_epoch: 2,
                next_seq: 6,
                rng: [1, u64::MAX, 3, 0xdead_beef],
                hosts: vec![HostSnapshot {
                    host: 1,
                    last_heartbeat_ns: 55,
                    up: true,
                }],
                episodes: vec![EpisodeSnapshot {
                    epoch: 1,
                    seq: 5,
                    service: 4,
                    capacity: 3,
                    lost_at_ns: 99,
                    dead_vsn: Some(40),
                    origin_host: None,
                    attempt: 2,
                    replacement: None,
                    try_reprime: false,
                    shed_done: true,
                    degraded: true,
                    parked_until_ns: Some(1_000),
                }],
                degraded_since: vec![(4, 77)],
                degraded_total: vec![(4, 11)],
                priorities: vec![(4, PRIORITY_BIAS + 10), (5, PRIORITY_BIAS - 3)],
                stats: StatsSnapshot {
                    detections: vec![(1, 88)],
                    recoveries: vec![],
                    retries: 2,
                    degradations: 1,
                    sheds: 1,
                    false_alarms: 0,
                    invariant_violations: 0,
                },
            },
        };
        let text = ws.render();
        let back = WorldSnapshot::parse(&text).expect("parses");
        assert_eq!(ws, back);
        assert_eq!(ws.fingerprint(), back.fingerprint());
    }
}
