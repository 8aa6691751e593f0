//! The composed simulation world.
//!
//! `SodaWorld` wires every substrate into one event-driven system: the
//! SODA Agent and Master, one SODA Daemon per HUP host, a
//! processor-sharing NIC per host, the per-VSN traffic shapers, and the
//! request pipeline the paper's client experiments exercise:
//!
//! ```text
//! client ──lan──▶ service switch ──▶ backend VSN
//!                                     │ CPU stage (FIFO, slice-rate,
//!                                     │            guest slowdown)
//!                                     │ traffic shaper (token bucket)
//!                                     ▼
//!                               host NIC (processor sharing) ──▶ client
//! ```
//!
//! Figures 4 and 6 are measurements of this pipeline; the DDoS and
//! attack-isolation experiments perturb it.

use std::collections::HashMap;

use soda_hup::daemon::{PrimingTicket, SodaDaemon};
use soda_hup::host::HostId;
use soda_net::control::ControlPlane;
use soda_net::http::HttpModel;
use soda_net::link::{FlowId, LinkSpec, ProcessorSharingLink};
use soda_sim::{
    CellPort, CellWorld, Ctx, Engine, Event, FaultSpec, HotEvent, HotEvents, Labels, MetricHandle,
    MetricKind, Obs, SimDuration, SimTime, TraceRef,
};
use soda_vmm::intercept::{InterceptCostModel, SlowdownFactors};
use soda_vmm::isolation::{Blast, ExecutionMode, FaultKind};
use soda_vmm::vsn::{VsnId, VsnState};

use crate::agent::SodaAgent;
use crate::api::CreationReply;
use crate::arena::{DenseId, IdMap, RequestTable};
use crate::config::ShardId;
use crate::error::SodaError;
use crate::inflight::InflightTable;
use crate::journal::{EpisodeId, Journal, JournalOp, WorldSnapshot};
use crate::master::SodaMaster;
use crate::recovery::{self, RecoveryConfig, RecoveryManager};
use crate::service::{ServiceId, ServiceRecord, ServiceSpec};
use crate::shard::{ControlPlaneKind, ShardPlane};
use crate::switch::ServiceSwitch;

/// Per-request CPU work: fixed parsing/handling plus per-byte content
/// work (checksums, copies), in cycles.
const REQUEST_BASE_CYCLES: u64 = 2_500_000;
const REQUEST_CYCLES_PER_BYTE: f64 = 2.0;

/// Switch forwarding work per request, cycles (runs inside the switch's
/// own VSN, so it pays the guest slowdown too).
const SWITCH_FORWARD_CYCLES: u64 = 600_000;

/// How a node executes — VSN (SODA) or directly on the host OS (the
/// Figure 6 baselines).
#[derive(Clone, Copy, Debug)]
struct NodeRuntime {
    host: HostId,
    ip: soda_net::addr::Ipv4Addr,
    /// Effective host CPU rate in Hz (clock × micro-architectural
    /// efficiency). The CPU scheduler is work-conserving, so a node
    /// whose co-tenants are idle serves requests at full host speed —
    /// the condition of the Figure 4/6 experiments.
    host_hz: f64,
    mode: ExecutionMode,
    slowdown: SlowdownFactors,
    cpu_busy_until: SimTime,
}

/// Identifier of one client request within a world.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl DenseId for RequestId {
    fn dense(self) -> u64 {
        self.0
    }
    fn from_dense(d: u64) -> Self {
        RequestId(d)
    }
}

/// Callback fired when a request finishes. `None` means the request was
/// dropped (no healthy backend / node crashed mid-flight) — closed-loop
/// clients use it to avoid deadlocking on a lost request.
pub type RequestCallback =
    Box<dyn FnOnce(&mut SodaWorld, &mut Ctx<SodaWorld>, Option<&RequestRecord>)>;

/// Why a flow is on a NIC.
enum FlowPurpose {
    /// A response travelling back to a client.
    Response {
        service: ServiceId,
        vsn: VsnId,
        /// Did this request pass through the service switch (and thus
        /// hold an outstanding slot there)? Direct-dispatch requests
        /// (the Figure 6 baselines) bypass the switch entirely.
        routed: bool,
        issued: SimTime,
        /// When the backend's CPU stage finished (the response span —
        /// shaper wait + NIC transfer — starts here).
        cpu_done: SimTime,
        /// When the shaper released the response onto the NIC (the
        /// `response_transfer` trace phase starts here).
        departed: SimTime,
        dataset: u64,
        request: RequestId,
    },
    /// A service image arriving at a daemon; bootstrap follows.
    Download {
        service: ServiceId,
        vsn: VsnId,
        bootstrap: SimDuration,
        started: SimTime,
    },
    /// DDoS garbage (no completion action).
    Flood,
}

/// Wakeup bookkeeping for one host NIC. Every scheduled pump event
/// carries the generation current at arming time; any mutation that
/// moves the NIC's next completion bumps the generation, so superseded
/// wakeups identify themselves on arrival and are dropped in O(1)
/// instead of re-walking the link (see DESIGN.md §10).
#[derive(Clone, Copy, Debug, Default)]
struct NicArm {
    /// Current wakeup generation; only an event stamped with this value
    /// is allowed to pump.
    gen: u64,
    /// The completion time the live wakeup (if any) is armed for. Lets
    /// re-arming skip scheduling when the target time is unchanged —
    /// the common case when a pump completes flows and the next
    /// completion was already known.
    armed_for: Option<SimTime>,
}

/// A dispatched request between dispatch and its response flow: what
/// its `CpuDone` and `ResponseDepart` events need, kept in
/// `SodaWorld::staged` so the events carry only the request's id.
#[derive(Clone, Copy, Debug)]
struct StagedRequest {
    service: ServiceId,
    vsn: VsnId,
    host: HostId,
    ip: soda_net::addr::Ipv4Addr,
    /// Holds an outstanding slot at the service switch (see
    /// `FlowPurpose::Response::routed`).
    routed: bool,
    issued: SimTime,
    /// When the backend's CPU stage finishes.
    cpu_done: SimTime,
    dataset: u64,
    /// Response size on the wire (HTTP framing × network slowdown).
    wire_bytes: u64,
}

/// The request path's events, stored inline in the engine queue (one
/// 16-byte value instead of a boxed closure each; see DESIGN.md §9).
/// Every other event of the world is a closure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataEvent {
    /// A request's CPU stage on its backend finished: gate the response
    /// through the shaper.
    CpuDone(RequestId),
    /// The shaper released a request's response: put it on the NIC.
    ResponseDepart(RequestId),
    /// A host NIC's armed wakeup, stamped with the arming generation.
    NicPump {
        /// The NIC's host.
        host: HostId,
        /// The wakeup generation current at arming time.
        gen: u64,
    },
}

impl HotEvents for SodaWorld {
    type Hot = DataEvent;
}

impl HotEvent<SodaWorld> for DataEvent {
    fn kind(&self) -> &'static str {
        match self {
            DataEvent::CpuDone(_) => "cpu_done",
            DataEvent::ResponseDepart(_) => "response_depart",
            DataEvent::NicPump { .. } => "nic_pump",
        }
    }

    fn fire(self, world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>) {
        match self {
            DataEvent::CpuDone(request) => cpu_done(world, ctx, request),
            DataEvent::ResponseDepart(request) => response_depart(world, ctx, request),
            DataEvent::NicPump { host, gen } => pump_nic_event(world, ctx, host, gen),
        }
    }
}

/// One finished client request — the raw material of Figures 4 and 6.
#[derive(Clone, Copy, Debug)]
pub struct RequestRecord {
    /// The request (doubles as the causal-trace key on the `request`
    /// track, so sampled traces join back to their records exactly).
    pub request: RequestId,
    /// The service.
    pub service: ServiceId,
    /// The backend node that served it.
    pub vsn: VsnId,
    /// Client issue time.
    pub issued: SimTime,
    /// Response fully delivered.
    pub completed: SimTime,
    /// Dataset (response body) size.
    pub dataset: u64,
}

impl RequestRecord {
    /// The measured response time.
    pub fn response_time(&self) -> SimDuration {
        self.completed.saturating_since(self.issued)
    }
}

/// A service creation completed (recorded for the driver to inspect).
#[derive(Clone, Debug)]
pub struct CreationRecord {
    /// The reply the Agent would send to the ASP.
    pub reply: CreationReply,
    /// When the service went Running.
    pub at: SimTime,
}

/// How many journal entries accumulate before an inline compacted
/// checkpoint is taken (bounds standby replay length).
pub(crate) const JOURNAL_CHECKPOINT_EVERY: usize = 64;

/// One completed Master failover, recorded for drivers and benches.
#[derive(Clone, Copy, Debug)]
pub struct FailoverRecord {
    /// When the Master process died (first crash of the outage).
    pub crashed_at: SimTime,
    /// When the standby finished replay and reconciliation.
    pub recovered_at: SimTime,
    /// The Master epoch after takeover.
    pub epoch: u64,
    /// Journal entries replayed on top of the checkpoint.
    pub replayed: usize,
    /// Sequence number of the checkpoint replay started from.
    pub checkpoint_seq: u64,
    /// Service records rebuilt from checkpoint ⊕ journal.
    pub restored: usize,
    /// Running nodes adopted as-is from daemon re-registration.
    pub adopted: usize,
    /// Dead nodes scrubbed into fresh (epoch-stamped) episodes.
    pub scrubbed: usize,
    /// Daemon-side VSNs unknown to the rebuilt state, torn down.
    pub duplicates: usize,
    /// Node boots that landed while the Master was down and were
    /// re-driven at takeover.
    pub orphaned_boots: usize,
}

/// Control-plane failover state: whether the Master is currently dead,
/// the standby's timing knobs, and the ledger of past failovers.
#[derive(Debug)]
pub struct FailoverState {
    /// True between a `MasterCrash` fault and standby takeover. While
    /// down, control-plane API calls fail and nothing is journaled; the
    /// data plane (switches, NICs, shapers, daemons) keeps running.
    pub down: bool,
    /// When the current outage started.
    pub crashed_at: Option<SimTime>,
    /// Generation guard for the pending takeover event: a second crash
    /// while down kills the standby mid-replay, restarts its clock and
    /// invalidates the earlier takeover (stale-wakeup pattern).
    takeover_gen: u64,
    /// Boots that completed while the Master was down, re-driven in
    /// arrival order at takeover.
    orphaned_boots: Vec<(ServiceId, VsnId, SimTime)>,
    /// Completed failovers.
    pub records: Vec<FailoverRecord>,
    /// Standby watchdog: how long until the crash is detected.
    pub detection_delay: SimDuration,
    /// Fixed cost for the standby to load the checkpoint.
    pub checkpoint_load: SimDuration,
    /// Replay cost per journal entry on top of the checkpoint.
    pub per_entry_replay: SimDuration,
}

impl Default for FailoverState {
    fn default() -> Self {
        FailoverState {
            down: false,
            crashed_at: None,
            takeover_gen: 0,
            orphaned_boots: Vec::new(),
            records: Vec::new(),
            detection_delay: SimDuration::from_millis(2_000),
            checkpoint_load: SimDuration::from_millis(50),
            per_entry_replay: SimDuration::from_micros(200),
        }
    }
}

/// The composed world. All SODA entities plus the network fabric.
pub struct SodaWorld {
    /// The ASP-facing agent.
    pub agent: SodaAgent,
    /// One daemon per HUP host.
    pub daemons: Vec<SodaDaemon>,
    /// Per-host NIC links (100 Mbps LAN ports).
    pub nics: IdMap<HostId, ProcessorSharingLink>,
    /// HTTP sizing model.
    pub http: HttpModel,
    /// Syscall interception model (drives the measured slowdown).
    pub intercept: InterceptCostModel,
    /// Completed client requests.
    pub completed: Vec<RequestRecord>,
    /// Completed service creations.
    pub creations: Vec<CreationRecord>,
    /// Requests that were dropped (no healthy backend).
    pub dropped: u64,
    /// Whether the outbound traffic shaper gates responses. The 2003
    /// prototype's shaper was still being implemented (§4.2), so the §5
    /// client experiments ran without it; set this to `false` to
    /// replicate that condition. Defaults to `true` (full SODA).
    pub shaping_enforced: bool,
    /// Observability handle shared by every entity in the world
    /// (disabled unless [`SodaWorld::enable_obs`] is called).
    pub obs: Obs,
    /// Master-crash / warm-standby failover state.
    pub failover: FailoverState,
    /// Per-host link impairment windows (partitions, loss) that gate
    /// heartbeats and sever in-flight responses during chaos runs.
    pub control: ControlPlane,
    /// The control plane: every placement cell's Master, write-ahead
    /// journal and self-healing state, the host→cell map, and
    /// inter-shard message counters. Defaults to one cell owning the
    /// whole fleet; [`SodaWorld::configure_shards`] re-partitions.
    pub shards: ShardPlane,
    /// Cross-cell endpoint for epoch-synchronized parallel runs
    /// ([`soda_sim::par`]): when this world is one cell of a
    /// multi-cell run, event handlers ship work to sibling cells
    /// through the port and the epoch barrier delivers it. Defaults to
    /// a solo port (single cell, never sends), which is inert in
    /// ordinary serial worlds. See
    /// [`SodaWorld::configure_parallel_cell`].
    pub port: CellPort<SodaWorld>,
    node_runtimes: IdMap<VsnId, NodeRuntime>,
    /// In-flight flows, per host in flow order for deterministic
    /// iteration: faults that sever many flows at once must cancel them
    /// in a reproducible order or the event log diverges across runs of
    /// the same seed. Node crashes cancel in O(flows-on-host), not
    /// O(all-inflight) — see DESIGN.md §8.
    inflight: InflightTable<FlowPurpose>,
    /// Host → position in `daemons`, built once at construction (hosts
    /// never join or leave a world). Keeps the per-request shaper-admit
    /// path O(1) instead of scanning the daemon list.
    daemon_slots: IdMap<HostId, usize>,
    next_request: u64,
    callbacks: RequestTable<RequestId, RequestCallback>,
    /// Dispatched requests awaiting their response flow, from dispatch
    /// to `ResponseDepart` (or to the drop that ends them).
    staged: RequestTable<RequestId, StagedRequest>,
    /// Per-host NIC wakeup generations (stale-event elimination).
    nic_arms: IdMap<HostId, NicArm>,
    /// Pool of drained-completion scratch buffers. A pool rather than a
    /// single buffer because a completion callback can start new flows
    /// and re-enter `pump_nic` while an outer pump still owns its
    /// buffer; steady-state depth is the maximum pump nesting, so the
    /// warm path never allocates.
    nic_scratch: Vec<Vec<(FlowId, SimTime)>>,
    /// Interned counter of dropped stale NIC wakeups (lazily interned on
    /// first drop so the obs-on hot path stays zero-alloc).
    stale_wakeup_h: Option<MetricHandle>,
    /// Interned counter of completed Master failovers (lazy, like
    /// `stale_wakeup_h`).
    master_failovers_h: Option<MetricHandle>,
    /// Transient CPU slowdown per host (the `SlowHost` fault): the
    /// factor and when it expires. Overlapping windows merge to the
    /// strongest factor and the latest expiry, and an expiry callback
    /// only clears the entry once its stored until-time has passed — so
    /// an earlier window ending cannot cancel a later one's slowdown.
    host_slow: IdMap<HostId, (f64, SimTime)>,
    /// Armed one-shot priming failures per host: the next `n` image
    /// downloads completing on the host fail instead of booting.
    armed_priming_failures: IdMap<HostId, u32>,
    /// Root trace refs of sampled in-flight requests (entries exist only
    /// while tracing is on and the request was sampled; removed at
    /// delivery or drop, so this never outgrows the in-flight set).
    request_traces: RequestTable<RequestId, TraceRef>,
    /// Root trace refs of sampled in-flight service creations.
    creation_traces: IdMap<ServiceId, TraceRef>,
    /// Open `priming` spans of sampled creations, keyed by node.
    priming_traces: IdMap<VsnId, TraceRef>,
    /// High-water mark of concurrent NIC flows across all hosts. Plain
    /// unconditional bookkeeping: tracked whether or not obs is on, so
    /// the bench trajectory never depends on observability settings.
    pub peak_live_flows: usize,
    /// Requests submitted but not yet delivered or dropped.
    open_requests: u64,
    /// High-water mark of `open_requests`.
    pub peak_open_requests: u64,
    /// Interned gauges for the backpressure signals (lazy, like
    /// `stale_wakeup_h`).
    live_flows_h: Option<MetricHandle>,
    open_requests_h: Option<MetricHandle>,
    /// Interned `request.{queue,guest_service,response}` span
    /// histograms per VSN, indexed by [`RequestPhase`]. Each handle is
    /// interned on its phase's first record (like `stale_wakeup_h`), so
    /// the registry holds exactly the metrics a string-keyed write
    /// would have created, and a request costs no registry key walk.
    request_span_h: IdMap<VsnId, [Option<MetricHandle>; 3]>,
}

/// The per-request lifecycle spans recorded under `request.<op>` with
/// `{service, vsn}` labels.
#[derive(Clone, Copy, Debug)]
enum RequestPhase {
    Queue,
    GuestService,
    Response,
}

impl RequestPhase {
    fn op(self) -> &'static str {
        match self {
            RequestPhase::Queue => "queue",
            RequestPhase::GuestService => "guest_service",
            RequestPhase::Response => "response",
        }
    }
}

impl CellWorld for SodaWorld {
    fn port(&mut self) -> &mut CellPort<SodaWorld> {
        &mut self.port
    }
}

impl SodaWorld {
    /// A world over the given hosts' daemons, with a 100 Mbps NIC each.
    pub fn new(daemons: Vec<SodaDaemon>) -> Self {
        let mut nics = IdMap::new();
        let mut daemon_slots = IdMap::new();
        for (i, d) in daemons.iter().enumerate() {
            nics.insert(
                d.host.id,
                ProcessorSharingLink::new(LinkSpec::lan_100mbps()),
            );
            daemon_slots.insert(d.host.id, i);
        }
        let shards = ShardPlane::new(
            ControlPlaneKind::default(),
            ShardPlane::DEFAULT_LATENCY,
            daemons.len(),
        );
        SodaWorld {
            agent: SodaAgent::new(1.0),
            daemons,
            nics,
            http: HttpModel::new(),
            intercept: InterceptCostModel::new(),
            completed: Vec::new(),
            creations: Vec::new(),
            dropped: 0,
            shaping_enforced: true,
            obs: Obs::disabled(),
            failover: FailoverState::default(),
            control: ControlPlane::new(),
            shards,
            port: CellPort::default(),
            node_runtimes: IdMap::new(),
            inflight: InflightTable::new(),
            daemon_slots,
            next_request: 1,
            callbacks: RequestTable::new(),
            staged: RequestTable::new(),
            nic_arms: IdMap::new(),
            nic_scratch: Vec::new(),
            stale_wakeup_h: None,
            master_failovers_h: None,
            host_slow: IdMap::new(),
            armed_priming_failures: IdMap::new(),
            request_traces: RequestTable::new(),
            creation_traces: IdMap::new(),
            priming_traces: IdMap::new(),
            peak_live_flows: 0,
            open_requests: 0,
            peak_open_requests: 0,
            live_flows_h: None,
            open_requests_h: None,
            request_span_h: IdMap::new(),
        }
    }

    /// The paper's testbed: *seattle* and *tacoma* on one LAN.
    pub fn testbed() -> Self {
        use soda_hup::host::HupHost;
        use soda_net::pool::IpPool;
        let daemons = vec![
            SodaDaemon::new(HupHost::seattle(
                HostId(1),
                IpPool::new("128.10.9.120".parse().expect("valid"), 8),
            )),
            SodaDaemon::new(HupHost::tacoma(
                HostId(2),
                IpPool::new("128.10.9.128".parse().expect("valid"), 8),
            )),
        ];
        SodaWorld::new(daemons)
    }

    /// Switch on structured observability for the whole world: one
    /// shared handle (ring buffer of `capacity` events, metrics
    /// registry, tracer) is propagated to the Master, every switch,
    /// every daemon and every traffic shaper. Call any time; entities
    /// created later (new switches) inherit it. A second call starts a
    /// fresh domain: metric handles and trace refs cached from the old
    /// one are dropped, and spans still open (a priming in flight)
    /// close into the new one. Recording never schedules engine
    /// events or draws randomness, so enabling it cannot perturb a
    /// simulation's trajectory.
    pub fn enable_obs(&mut self, capacity: usize) -> Obs {
        let obs = Obs::enabled(capacity);
        for d in &mut self.daemons {
            d.set_obs(obs.clone());
        }
        self.obs = obs.clone();
        for cell in &mut self.shards.cells {
            cell.master.set_obs(obs.clone());
        }
        // Any previously interned handle points into the old registry,
        // and any trace ref into the old tracer.
        self.stale_wakeup_h = None;
        self.master_failovers_h = None;
        self.live_flows_h = None;
        self.open_requests_h = None;
        self.request_span_h.clear();
        self.request_traces = RequestTable::new();
        self.creation_traces.clear();
        self.priming_traces.clear();
        obs
    }

    /// Switch the control plane to `kind`, partitioning the host roster
    /// into balanced contiguous cells. Must run before any service is
    /// created: every cell Master starts from an empty genesis
    /// checkpoint on its own id lane. With one cell the fresh cell is
    /// identical to the one [`SodaWorld::new`] built.
    pub fn configure_shards(&mut self, kind: ControlPlaneKind) {
        self.configure_shards_with(kind, ShardPlane::DEFAULT_LATENCY);
    }

    /// [`SodaWorld::configure_shards`] with an explicit one-way
    /// inter-shard message latency.
    pub fn configure_shards_with(&mut self, kind: ControlPlaneKind, latency: SimDuration) {
        assert!(
            self.creations.is_empty() && self.services_all().next().is_none(),
            "configure_shards must run before any service is created"
        );
        self.shards = ShardPlane::new(kind, latency, self.daemons.len());
        if self.obs.is_enabled() {
            for cell in &mut self.shards.cells {
                cell.master.set_obs(self.obs.clone());
            }
        }
    }

    /// Configure this world as cell `cell` of a `cells`-cell
    /// epoch-synchronized parallel run ([`soda_sim::par`]). Each cell
    /// world holds only its own slice of the host roster; this call
    /// wires the cross-cell port and stripes the Master's id lanes so
    /// service/VSN ids stay globally unique across cell worlds (cell
    /// `k` allocates `{k+1, k+1+cells, ...}` — the same striping the
    /// sharded control plane uses, so ids agree between a `cells`-cell
    /// parallel run and a `Sharded(cells)` single-world run). Must run
    /// before any service is created, for the same reason
    /// [`SodaWorld::configure_shards`] must.
    pub fn configure_parallel_cell(&mut self, cell: u32, cells: u32, lookahead: SimDuration) {
        self.port
            .configure(cell as usize, cells.max(1) as usize, lookahead);
        if cells <= 1 {
            return;
        }
        assert!(
            self.creations.is_empty() && self.services_all().next().is_none(),
            "configure_parallel_cell must run before any service is created"
        );
        self.shards.cells[0].stripe(cell, cells);
        // This cell only ever sees ids on its own lane, so the
        // VSN/Service-keyed arenas stripe `(id - base) / cells` into
        // dense slots instead of leaving `cells - 1` of every `cells`
        // slots forever empty.
        let stride = cells as u64;
        self.node_runtimes.set_stride(stride);
        self.creation_traces.set_stride(stride);
        self.priming_traces.set_stride(stride);
        self.request_span_h.set_stride(stride);
    }

    /// Number of placement cells.
    pub fn shard_count(&self) -> u32 {
        self.shards.map.count()
    }

    /// Home shard of a service id. Ids are lane-striped — cell `k` of
    /// `n` allocates `{k+1, k+1+n, ...}` — so the home cell is recovered
    /// arithmetically, with no lookup traffic between cells.
    pub fn shard_of_service(&self, service: ServiceId) -> ShardId {
        let n = self.shard_count() as u64;
        if n <= 1 || service.0 == 0 {
            return ShardId(0);
        }
        ShardId(((service.0 - 1) % n) as u32)
    }

    /// Home shard of a VSN id (same lane striping as services).
    pub fn shard_of_vsn(&self, vsn: VsnId) -> ShardId {
        let n = self.shard_count() as u64;
        if n <= 1 || vsn.0 == 0 {
            return ShardId(0);
        }
        ShardId(((vsn.0 - 1) % n) as u32)
    }

    /// The cell owning a host (by roster position).
    pub fn shard_of_host(&self, host: HostId) -> ShardId {
        match self.daemon_slots.get(&host) {
            Some(&slot) => self.shards.map.shard_of_index(slot),
            None => ShardId(0),
        }
    }

    /// The roster index range a cell owns.
    pub fn cell_range(&self, shard: ShardId) -> std::ops::Range<usize> {
        self.shards.map.range(shard)
    }

    /// The Master of cell `shard`.
    pub fn master_of(&self, shard: ShardId) -> &SodaMaster {
        &self.shards.cells[shard.0 as usize].master
    }

    /// Mutable access to cell `shard`'s Master.
    pub fn master_of_mut(&mut self, shard: ShardId) -> &mut SodaMaster {
        &mut self.shards.cells[shard.0 as usize].master
    }

    /// Cell `shard`'s Master together with the fleet's daemons, as one
    /// split borrow: every Master operation places on, primes on or
    /// releases from the daemons it is handed.
    pub fn master_and_daemons(&mut self, shard: ShardId) -> (&mut SodaMaster, &mut [SodaDaemon]) {
        (
            &mut self.shards.cells[shard.0 as usize].master,
            &mut self.daemons,
        )
    }

    /// Drop every cell Master's incremental admission index. Called
    /// wherever host availability changes without going through a
    /// Master — host failure/repair, direct daemon teardowns — so the
    /// next admission on any cell rebuilds from live reports.
    pub fn invalidate_admission_indexes(&mut self) {
        for cell in &mut self.shards.cells {
            cell.master.invalidate_admission_index();
        }
    }

    /// The Master owning `service`'s record.
    pub fn master_for(&self, service: ServiceId) -> &SodaMaster {
        self.master_of(self.shard_of_service(service))
    }

    /// Mutable access to the Master owning `service`'s record.
    pub fn master_for_mut(&mut self, service: ServiceId) -> &mut SodaMaster {
        self.master_of_mut(self.shard_of_service(service))
    }

    /// Cell `shard`'s journal.
    pub fn journal_of(&self, shard: ShardId) -> &Journal {
        &self.shards.cells[shard.0 as usize].journal
    }

    /// Mutable access to cell `shard`'s journal.
    pub fn journal_of_mut(&mut self, shard: ShardId) -> &mut Journal {
        &mut self.shards.cells[shard.0 as usize].journal
    }

    /// Cell `shard`'s recovery manager.
    pub fn recovery_of(&self, shard: ShardId) -> &RecoveryManager {
        &self.shards.cells[shard.0 as usize].recovery
    }

    /// Mutable access to cell `shard`'s recovery manager.
    pub fn recovery_of_mut(&mut self, shard: ShardId) -> &mut RecoveryManager {
        &mut self.shards.cells[shard.0 as usize].recovery
    }

    /// Cell `shard`'s recovery tunables.
    pub(crate) fn recovery_cfg_of(&self, shard: ShardId) -> &RecoveryConfig {
        &self.shards.cells[shard.0 as usize].recovery_cfg
    }

    /// The recovery manager owning `service`'s episodes.
    pub fn recovery_for_mut(&mut self, service: ServiceId) -> &mut RecoveryManager {
        self.recovery_of_mut(self.shard_of_service(service))
    }

    /// `service`'s record, wherever it is homed.
    pub fn service_record(&self, service: ServiceId) -> Option<&ServiceRecord> {
        self.master_for(service).service(service)
    }

    /// `service`'s switch, wherever it is homed.
    pub fn switch_for(&self, service: ServiceId) -> Option<&ServiceSwitch> {
        self.master_for(service).switch(service)
    }

    /// Mutable access to `service`'s switch.
    pub fn switch_mut_for(&mut self, service: ServiceId) -> Option<&mut ServiceSwitch> {
        self.master_for_mut(service).switch_mut(service)
    }

    /// Every service record across every cell, in shard order (shard 0
    /// first).
    pub fn services_all(&self) -> impl Iterator<Item = &ServiceRecord> + '_ {
        self.shards.cells.iter().flat_map(|c| c.master.services())
    }

    /// Pick the home cell for the next service creation (round-robin).
    /// With one cell the cursor never moves and this is always shard 0.
    pub(crate) fn pick_home_shard(&mut self) -> ShardId {
        let n = self.shard_count();
        if n <= 1 {
            return ShardId(0);
        }
        let s = ShardId(self.shards.next_home % n);
        self.shards.next_home = (self.shards.next_home + 1) % n;
        s
    }

    /// Refresh the backpressure gauges and their high-water marks:
    /// concurrent NIC flows across all hosts and submitted-but-unfinished
    /// requests. The peaks are plain fields (always tracked); the gauges
    /// are lazily interned and only touched when obs is on.
    fn note_backpressure(&mut self) {
        let flows = self.inflight.len();
        self.peak_live_flows = self.peak_live_flows.max(flows);
        self.peak_open_requests = self.peak_open_requests.max(self.open_requests);
        if !self.obs.is_enabled() {
            return;
        }
        if self.live_flows_h.is_none() {
            self.live_flows_h =
                self.obs
                    .intern("world", "live_flows", Labels::none(), MetricKind::Gauge);
            self.open_requests_h =
                self.obs
                    .intern("world", "open_requests", Labels::none(), MetricKind::Gauge);
        }
        if let Some(h) = self.live_flows_h {
            self.obs.gauge_set_h(h, flows as f64);
        }
        if let Some(h) = self.open_requests_h {
            self.obs.gauge_set_h(h, self.open_requests as f64);
        }
    }

    /// How many stale NIC wakeups have been dropped (0 when obs is off
    /// or none were dropped). Stale drops are pure event-queue hygiene:
    /// counting them must never perturb the trajectory.
    pub fn stale_nic_wakeups(&self) -> u64 {
        self.obs
            .with(|inner| {
                inner
                    .registry
                    .counter("world", "nic_stale_wakeups", Labels::none())
            })
            .flatten()
            .unwrap_or(0)
    }

    /// True while the Master process is dead and the standby has not
    /// yet taken over. The data plane keeps running; control-plane API
    /// calls fail with [`SodaError::MasterUnavailable`].
    pub fn master_is_down(&self) -> bool {
        self.failover.down
    }

    /// Journal one state transition of `service` with a clone of its
    /// post-transition record (replay is last-writer-wins per service).
    /// No-ops while the Master is down: a dead process writes nothing.
    pub(crate) fn journal_op(&mut self, now: SimTime, op: JournalOp, service: ServiceId) {
        let shard = self.shard_of_service(service);
        if shard.0 == 0 && self.failover.down {
            return;
        }
        let master = self.master_of(shard);
        let record = master.service(service).cloned();
        let counters = master.id_counters();
        self.journal_of_mut(shard)
            .append(now, op, service, None, record, counters);
    }

    /// Journal a recovery-episode lifecycle edge (open/close/cancel).
    /// Carries no record snapshot — episode edges never mutate records.
    pub(crate) fn journal_episode(
        &mut self,
        now: SimTime,
        op: JournalOp,
        service: ServiceId,
        id: EpisodeId,
    ) {
        let shard = self.shard_of_service(service);
        if shard.0 == 0 && self.failover.down {
            return;
        }
        let counters = self.master_of(shard).id_counters();
        self.journal_of_mut(shard)
            .append(now, op, service, Some(id), None, counters);
    }

    /// Capture the control-plane state as a render/parse round-trippable
    /// snapshot: Master records and id counters at the journal's
    /// current epoch, plus a clone of the recovery manager (its exact
    /// RNG position included). Cell-0 scoped: under `Sharded(n>1)` this
    /// captures cell 0 only (each cell's durability story is its own
    /// journal).
    pub fn snapshot_world(&self, now: SimTime) -> WorldSnapshot {
        let cell = &self.shards.cells[0];
        WorldSnapshot {
            at_ns: now.as_nanos(),
            master: cell.master.snapshot(cell.journal.epoch()),
            recovery: cell.recovery.clone(),
        }
    }

    /// Restore cell 0's control-plane state from a snapshot, making it
    /// the new journal genesis. Data-plane state (daemons, NICs,
    /// in-flight flows) is untouched: a restore models a standby picking
    /// up from durable state against live hardware, and a restored world
    /// must continue fingerprint-identically to one that never restored.
    pub fn restore_world(&mut self, snap: &WorldSnapshot) {
        let cell = &mut self.shards.cells[0];
        cell.master.restore_control(&snap.master);
        cell.recovery = snap.recovery.clone();
        cell.journal = Journal::new(snap.master.clone(), JOURNAL_CHECKPOINT_EVERY);
    }

    pub(crate) fn daemon_mut(&mut self, host: HostId) -> &mut SodaDaemon {
        let slot = *self.daemon_slots.get(&host).expect("host exists");
        &mut self.daemons[slot]
    }

    #[cfg(test)]
    fn daemon(&self, host: HostId) -> &SodaDaemon {
        self.daemons
            .iter()
            .find(|d| d.host.id == host)
            .expect("host exists")
    }

    /// Register runtime state for a node once it is running. `mode`
    /// selects VSN execution (measured slowdown from the interception
    /// model) or host-direct (no slowdown). Returns `false` (and records
    /// a failure event) when the service, node, or its address is gone —
    /// a chaos run can legitimately race a fault into this window.
    pub(crate) fn install_runtime(
        &mut self,
        service: ServiceId,
        vsn: VsnId,
        mode: ExecutionMode,
    ) -> bool {
        let placed = match self.service_record(service).and_then(|r| r.node(vsn)) {
            Some(p) => *p,
            None => return false,
        };
        let Some(d) = soda_hup::daemon::daemon_for(&self.daemons, placed.host) else {
            return false;
        };
        let Some(ip) = d.vsn(vsn).and_then(|v| v.ip) else {
            return false;
        };
        let host_hz = d.host.profile.cpu.freq_hz() as f64 * d.host.profile.cpu_efficiency;
        let slowdown = match mode {
            ExecutionMode::GuestIsolated => SlowdownFactors::measured_web(&self.intercept),
            ExecutionMode::HostDirect => SlowdownFactors::NONE,
        };
        self.node_runtimes.insert(
            vsn,
            NodeRuntime {
                host: placed.host,
                ip,
                host_hz,
                mode,
                slowdown,
                cpu_busy_until: SimTime::ZERO,
            },
        );
        true
    }

    /// Force a node to host-direct execution (the Figure 6 baselines).
    pub fn set_execution_mode(&mut self, service: ServiceId, vsn: VsnId, mode: ExecutionMode) {
        let _ = self.install_runtime(service, vsn, mode);
    }

    /// Forget a node's runtime (it can no longer serve requests).
    pub(crate) fn remove_runtime(&mut self, vsn: VsnId) {
        self.node_runtimes.remove(&vsn);
    }

    /// Drop runtimes whose node no longer appears in any service record
    /// (e.g. after a shed tears a victim service down).
    pub(crate) fn prune_runtimes(&mut self) {
        let keep: std::collections::HashSet<VsnId> = self
            .services_all()
            .flat_map(|r| r.nodes.iter().map(|n| n.vsn))
            .collect();
        self.node_runtimes.retain(|v, _| keep.contains(&v));
    }

    /// CPU service time for one request of `dataset` bytes on `vsn`.
    /// Work-conserving: with co-tenants idle (the measured condition),
    /// the node runs at full host speed; the reserved slice is a floor,
    /// not a ceiling.
    fn cpu_time(&self, vsn: VsnId, dataset: u64) -> SimDuration {
        let rt = &self.node_runtimes[&vsn];
        let cycles = REQUEST_BASE_CYCLES + (dataset as f64 * REQUEST_CYCLES_PER_BYTE) as u64;
        let base = SimDuration::from_secs_f64(cycles as f64 / rt.host_hz);
        let slow = self.host_slow.get(&rt.host).map_or(1.0, |&(f, _)| f);
        rt.slowdown.inflate_cpu(base).mul_f64(slow)
    }

    /// Records one `request.<phase>` span of `vsn` through its interned
    /// handle (no-op when observability is off).
    #[inline]
    fn record_request_span(
        &mut self,
        service: ServiceId,
        vsn: VsnId,
        phase: RequestPhase,
        start: SimTime,
        end: SimTime,
    ) {
        if !self.obs.is_enabled() {
            return;
        }
        let slot = &mut self.request_span_h.entry(vsn).or_insert([None; 3])[phase as usize];
        let h = match *slot {
            Some(h) => h,
            None => {
                let labels = Labels::two("service", service.0, "vsn", vsn.0);
                let Some(h) = self
                    .obs
                    .intern("request", phase.op(), labels, MetricKind::Histogram)
                else {
                    return;
                };
                *slot = Some(h);
                h
            }
        };
        self.obs.span_record_h(h, start, end);
    }

    /// Response-time records for one backend, after a warm-up cutoff.
    pub fn records_for(&self, vsn: VsnId, after: SimTime) -> Vec<&RequestRecord> {
        self.completed
            .iter()
            .filter(|r| r.vsn == vsn && r.issued >= after)
            .collect()
    }

    /// Mean response time (seconds) for one backend after `after`.
    pub fn mean_response(&self, vsn: VsnId, after: SimTime) -> f64 {
        let recs = self.records_for(vsn, after);
        if recs.is_empty() {
            return 0.0;
        }
        recs.iter()
            .map(|r| r.response_time().as_secs_f64())
            .sum::<f64>()
            / recs.len() as f64
    }
}

// ---------------------------------------------------------------------
// Engine-driven operations. These are free functions over the engine so
// event closures can re-enter them.
// ---------------------------------------------------------------------

/// The scheduled half of the NIC pump: runs at a completion time armed
/// by [`rearm_nic`], carrying the generation current when it was armed.
/// A stale generation means the NIC's schedule moved after this event
/// was queued (new flow arrived, earlier pump already handled the
/// completion) — the event drops itself in O(1), touching nothing but a
/// metrics counter, instead of re-walking the link.
fn pump_nic_event(world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>, host: HostId, gen: u64) {
    let live = world.nic_arms.get(&host).map_or(0, |a| a.gen);
    if live != gen {
        if world.stale_wakeup_h.is_none() {
            world.stale_wakeup_h = world.obs.intern(
                "world",
                "nic_stale_wakeups",
                Labels::none(),
                MetricKind::Counter,
            );
        }
        if let Some(h) = world.stale_wakeup_h {
            world.obs.counter_add_h(h, 1);
        }
        return;
    }
    if let Some(arm) = world.nic_arms.get_mut(&host) {
        arm.armed_for = None;
    }
    pump_nic(world, ctx, host);
}

/// Re-arm the wakeup for `host`'s next flow completion, bumping the
/// generation so any wakeup armed earlier is dead on arrival. Arming is
/// skipped when a live wakeup already targets the same instant — the
/// common case when a pump drains one completion and the following
/// completion time was already armed.
fn rearm_nic(world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>, host: HostId) {
    let next = world.nics[&host].next_completion();
    let arm = world.nic_arms.entry(host).or_default();
    match next {
        Some(t) => {
            if arm.armed_for == Some(t) {
                return;
            }
            arm.gen += 1;
            arm.armed_for = Some(t);
            let gen = arm.gen;
            ctx.schedule_hot_at(t, DataEvent::NicPump { host, gen });
        }
        None => {
            // Idle link: invalidate whatever wakeup may be in flight.
            if arm.armed_for.take().is_some() {
                arm.gen += 1;
            }
        }
    }
}

/// Kick the NIC of `host`: advance the fluid state, finalise any flows
/// that completed, and re-arm a wakeup for the next completion.
fn pump_nic(world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>, host: HostId) {
    let now = ctx.now();
    let latency = {
        let nic = world.nics.get_mut(&host).expect("nic exists");
        nic.advance(now);
        nic.spec().latency
    };
    // Completion callbacks can start flows and re-enter this function,
    // so the scratch buffer comes from a pool rather than a single slot.
    let mut completed = world.nic_scratch.pop().unwrap_or_default();
    world
        .nics
        .get_mut(&host)
        .expect("nic exists")
        .drain_completed_into(&mut completed);
    for (flow, finish) in completed.drain(..) {
        let Some(purpose) = world.inflight.remove(host, flow) else {
            continue;
        };
        match purpose {
            FlowPurpose::Response {
                service,
                vsn,
                routed,
                issued,
                cpu_done,
                departed,
                dataset,
                request,
            } => {
                let delivered = finish + latency;
                let record = RequestRecord {
                    request,
                    service,
                    vsn,
                    issued,
                    completed: delivered,
                    dataset,
                };
                world.completed.push(record);
                world.record_request_span(
                    service,
                    vsn,
                    RequestPhase::Response,
                    cpu_done,
                    delivered,
                );
                if let Some(tr) = world.request_traces.remove(&request) {
                    world
                        .obs
                        .trace_child(Some(tr), "response_transfer", departed, delivered);
                    world.obs.trace_close(Some(tr), delivered);
                }
                world.open_requests = world.open_requests.saturating_sub(1);
                if routed {
                    if let Some(sw) = world.switch_mut_for(service) {
                        sw.complete(vsn, delivered.saturating_since(issued), delivered);
                    }
                }
                if let Some(cb) = world.callbacks.remove(&request) {
                    cb(world, ctx, Some(&record));
                }
            }
            FlowPurpose::Download {
                service,
                vsn,
                bootstrap,
                started,
            } => {
                // An armed priming fault corrupts the image as it lands:
                // the boot never starts and the node is scrubbed.
                let armed = world
                    .armed_priming_failures
                    .get(&host)
                    .copied()
                    .unwrap_or(0);
                if armed > 0 {
                    world.armed_priming_failures.insert(host, armed - 1);
                    fail_priming(world, ctx, service, vsn, host);
                } else {
                    // Image is on local disk; bootstrap now runs.
                    let now = ctx.now();
                    let ptr = world.priming_traces.get(&vsn).copied();
                    world.obs.trace_child(ptr, "image_download", started, now);
                    world
                        .obs
                        .trace_child(ptr, "bootstrap", now, now + bootstrap);
                    ctx.schedule_in_as("node_boot", bootstrap, move |w: &mut SodaWorld, ctx| {
                        finish_node_boot(w, ctx, service, vsn, started);
                    });
                }
            }
            FlowPurpose::Flood => {}
        }
    }
    world.nic_scratch.push(completed);
    world.note_backpressure();
    rearm_nic(world, ctx, host);
}

/// Put a flow on a host NIC and arm the pump.
fn start_flow(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    host: HostId,
    bytes: u64,
    purpose: FlowPurpose,
) {
    let now = ctx.now();
    let flow = world
        .nics
        .get_mut(&host)
        .expect("nic exists")
        .add_flow(bytes, now);
    // Only response flows are tagged with their VSN: a node crash
    // cancels its responses, while downloads and floods die with their
    // host. A response leaves through its node's own host NIC, which is
    // what lets a node crash drain just that host's flows.
    let vsn_tag = match &purpose {
        FlowPurpose::Response { vsn, .. } => Some(*vsn),
        FlowPurpose::Download { .. } | FlowPurpose::Flood => None,
    };
    debug_assert!(
        vsn_tag.is_none_or(|v| world.node_runtimes.get(&v).is_none_or(|rt| rt.host == host)),
        "response flow of {vsn_tag:?} started off its node's host {host:?}"
    );
    world.inflight.insert(host, flow, vsn_tag, purpose);
    world.note_backpressure();
    // Zero-byte flows complete instantly; pump right away. Otherwise arm
    // at the (possibly moved) next completion.
    pump_nic(world, ctx, host);
}

fn finish_node_boot(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    service: ServiceId,
    vsn: VsnId,
    started: SimTime,
) {
    let now = ctx.now();
    // The Master is dead: nobody is listening for node-ready. Buffer
    // the boot (priming trace stays open) and re-drive it at takeover.
    // Only shard 0's Master participates in failover drills; a foreign
    // cell's boots are never blocked by shard 0 being down.
    if world.failover.down && world.shard_of_service(service).0 == 0 {
        world.failover.orphaned_boots.push((service, vsn, started));
        return;
    }
    let elapsed = now.saturating_since(started);
    if let Some(p) = world.priming_traces.remove(&vsn) {
        world.obs.trace_close(Some(p), now);
    }
    let (master, daemons) = world.master_and_daemons(world.shard_of_service(service));
    match master.node_ready(service, vsn, daemons, now, elapsed) {
        Ok(Some(reply)) => complete_creation_record(world, now, service, reply),
        // Joined a running service's switch: it serves from now on.
        Ok(None) if world.switch_for(service).is_some() => {
            let _ = world.install_runtime(service, vsn, ExecutionMode::GuestIsolated);
        }
        Ok(None) => {}
        Err(_) => {
            recovery::on_priming_failed(world, ctx, service, vsn, 0);
            return;
        }
    }
    world.journal_op(now, JournalOp::Priming, service);
    recovery::on_node_boot(world, ctx, service, vsn);
}

/// Finalise a completed creation: install every node's runtime, start
/// billing, and record the reply for the driver.
pub(crate) fn complete_creation_record(
    world: &mut SodaWorld,
    now: SimTime,
    service: ServiceId,
    reply: CreationReply,
) {
    let Some(rec) = world.service_record(service) else {
        return;
    };
    let nodes: Vec<VsnId> = rec.nodes.iter().map(|n| n.vsn).collect();
    let asp = rec.asp.clone();
    let capacity = rec.placed_capacity();
    for n in nodes {
        let _ = world.install_runtime(service, n, ExecutionMode::GuestIsolated);
    }
    if let Some(tr) = world.creation_traces.remove(&service) {
        world.obs.trace_close(Some(tr), now);
    }
    world.agent.billing_start(service, &asp, capacity, now);
    world.creations.push(CreationRecord { reply, at: now });
}

/// Begin an engine-driven service creation: admission now, then per-node
/// image download (a flow on the node's host NIC) followed by the
/// bootstrap stages. Completion is visible in `world.creations`.
pub fn create_service_driven(
    engine: &mut Engine<SodaWorld>,
    spec: ServiceSpec,
    asp: &str,
) -> Result<ServiceId, SodaError> {
    let now = engine.now();
    let world = engine.state_mut();
    let home = world.pick_home_shard();
    // Failover drills target shard 0's Master; other cells stay up.
    if world.failover.down && home.0 == 0 {
        return Err(SodaError::MasterUnavailable);
    }
    // On a sharded plane the home cell places first; a full home cell
    // spills: its Master re-places over the whole fleet.
    let cell = (world.shard_count() > 1).then(|| world.cell_range(home));
    let (master, daemons) = world.master_and_daemons(home);
    let (outcome, spilled) = master.admit_spilling(spec, asp, daemons, cell, now)?;
    let service = outcome.service;
    if spilled {
        // The spill reserved slices on peer cells' hosts behind their
        // Masters' backs.
        world.invalidate_admission_indexes();
        world.shards.spills += 1;
        world.obs.record(
            now,
            Event::ShardSpill {
                service: service.0,
                from: home.0,
            },
        );
    }
    world.journal_op(now, JournalOp::Admission, service);
    // Admission and placement both resolved synchronously inside
    // `Master::admit`, so a sampled creation trace records them as
    // zero-width phases at `now`; each node then gets an open `priming`
    // phase closed when its bootstrap finishes (or its priming fails).
    let trace = world
        .obs
        .trace_begin("creation", "creation", service.0, now);
    if let Some(tr) = trace {
        world.obs.trace_child(Some(tr), "admission", now, now);
        world.obs.trace_child(Some(tr), "placement", now, now);
        world.creation_traces.insert(service, tr);
    }
    for (_, ticket) in &outcome.tickets {
        if let Some(p) = world.obs.trace_open_child(trace, "priming", now) {
            world.priming_traces.insert(ticket.vsn, p);
        }
    }
    // A spilled creation pays one inter-shard reservation round trip
    // before its priming can start on foreign hosts.
    let start_at = if spilled {
        now + world.shards.latency + world.shards.latency
    } else {
        now
    };
    for (host, ticket) in outcome.tickets {
        engine.schedule_at_as("start_download", start_at, move |w: &mut SodaWorld, ctx| {
            start_download(w, ctx, host, service, &ticket);
        });
    }
    Ok(service)
}

/// Drive a resize through the engine. In-place widenings and removals
/// from [`SodaMaster::resize`] take effect immediately; freshly placed
/// nodes pay their image download and bootstrap exactly like creation,
/// so a fault can land while the resize is still in flight.
pub fn resize_service_driven(
    engine: &mut Engine<SodaWorld>,
    service: ServiceId,
    new_instances: u32,
) -> Result<(), SodaError> {
    let now = engine.now();
    let world = engine.state_mut();
    if world.failover.down && world.shard_of_service(service).0 == 0 {
        return Err(SodaError::MasterUnavailable);
    }
    // Resizes place fleet-wide: the service may already be spilled.
    let (master, daemons) = world.master_and_daemons(world.shard_of_service(service));
    let outcome = master.resize(service, new_instances, daemons, now);
    // A spilled service's slices may sit on other cells' hosts.
    world.invalidate_admission_indexes();
    let outcome = outcome?;
    world.journal_op(now, JournalOp::Resize, service);
    // Shrinks may have removed nodes the data plane still references.
    world.prune_runtimes();
    for (host, ticket) in outcome.tickets {
        engine.schedule_at_as("start_download", now, move |w: &mut SodaWorld, ctx| {
            start_download(w, ctx, host, service, &ticket);
        });
    }
    Ok(())
}

/// Tear a service down through its home cell's Master: every node
/// released, wherever in the fleet it was placed, then every cell's
/// admission index dropped (a spilled service held slices on peer
/// cells' hosts), the teardown journaled and the dead runtimes pruned.
pub fn teardown_service(
    world: &mut SodaWorld,
    service: ServiceId,
    now: SimTime,
) -> Result<(), SodaError> {
    let home = world.shard_of_service(service);
    if world.failover.down && home.0 == 0 {
        return Err(SodaError::MasterUnavailable);
    }
    let (master, daemons) = world.master_and_daemons(home);
    master.teardown(service, daemons)?;
    world.invalidate_admission_indexes();
    world.journal_op(now, JournalOp::Teardown, service);
    world.prune_runtimes();
    Ok(())
}

/// Submit one client request to a service through its switch. The
/// response is recorded in `world.completed` when fully delivered.
pub fn submit_request(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    service: ServiceId,
    dataset: u64,
) {
    submit_request_with_callback(world, ctx, service, dataset, None);
}

/// Like [`submit_request`], but fires `callback` when the response is
/// delivered (`Some(record)`) or the request is lost (`None`). This is
/// the hook closed-loop (siege-style) clients use.
pub fn submit_request_with_callback(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    service: ServiceId,
    dataset: u64,
    callback: Option<RequestCallback>,
) {
    let issued = ctx.now();
    let request = RequestId(world.next_request);
    world.next_request += 1;
    if let Some(tr) = world
        .obs
        .trace_begin("request", "request", request.0, issued)
    {
        world.request_traces.insert(request, tr);
    }
    world.open_requests += 1;
    world.note_backpressure();
    if let Some(cb) = callback {
        world.callbacks.insert(request, cb);
    }
    // Client → switch hop.
    let lan_latency = SimDuration::from_micros(200);
    // Switch routes.
    let Some(sw) = world.switch_mut_for(service) else {
        drop_request(world, ctx, request);
        return;
    };
    let Some(idx) = sw.route(issued) else {
        drop_request(world, ctx, request);
        return;
    };
    let vsn = sw.backends()[idx].vsn;
    let colocated = sw.colocated_on;
    // Switch forwarding cost (runs in the switch's VSN: pays slowdown).
    let switch_rt = world.node_runtimes.get(&colocated);
    let switch_cycles_time = match switch_rt {
        Some(rt) => {
            let base = SimDuration::from_secs_f64(SWITCH_FORWARD_CYCLES as f64 / rt.host_hz);
            rt.slowdown.inflate_cpu(base)
        }
        None => SimDuration::from_micros(100),
    };
    let forward = lan_latency + switch_cycles_time + lan_latency;
    dispatch_to_backend(
        world, ctx, service, vsn, true, issued, forward, dataset, request,
    );
}

/// Submit one request directly to a node, bypassing the switch (the
/// Figure 6 scenario (3) baseline).
pub fn submit_request_direct(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    service: ServiceId,
    vsn: VsnId,
    dataset: u64,
) {
    let issued = ctx.now();
    let request = RequestId(world.next_request);
    world.next_request += 1;
    if let Some(tr) = world
        .obs
        .trace_begin("request", "request", request.0, issued)
    {
        world.request_traces.insert(request, tr);
    }
    world.open_requests += 1;
    world.note_backpressure();
    let forward = SimDuration::from_micros(200); // client → server, one hop
    dispatch_to_backend(
        world, ctx, service, vsn, false, issued, forward, dataset, request,
    );
}

/// Count a drop and fire the request's callback with `None`. Also the
/// single place a lost request's trace root is closed (at the drop
/// instant — its phases then legitimately do not span a full response).
fn drop_request(world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>, request: RequestId) {
    world.staged.remove(&request);
    world.dropped += 1;
    world.open_requests = world.open_requests.saturating_sub(1);
    if let Some(tr) = world.request_traces.remove(&request) {
        world.obs.trace_close(Some(tr), ctx.now());
    }
    if let Some(cb) = world.callbacks.remove(&request) {
        cb(world, ctx, None);
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatch_to_backend(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    service: ServiceId,
    vsn: VsnId,
    routed: bool,
    issued: SimTime,
    forward: SimDuration,
    dataset: u64,
    request: RequestId,
) {
    let now = ctx.now();
    let reachable = world
        .node_runtimes
        .get(&vsn)
        .is_some_and(|rt| !world.control.is_partitioned(u64::from(rt.host.0), now));
    if !reachable {
        // Node crashed, never installed, or unreachable: request lost.
        if routed {
            if let Some(sw) = world.switch_mut_for(service) {
                sw.abort(vsn, now);
            }
        }
        world.obs.record(
            now,
            Event::RequestFailed {
                service: service.0,
                vsn: vsn.0,
            },
        );
        drop_request(world, ctx, request);
        return;
    }
    let cpu_time = world.cpu_time(vsn, dataset);
    let rt = world.node_runtimes.get_mut(&vsn).expect("checked");
    let arrive = now + forward;
    let start = arrive.max(rt.cpu_busy_until);
    let done_cpu = start + cpu_time;
    rt.cpu_busy_until = done_cpu;
    let host = rt.host;
    let ip = rt.ip;
    let net_slow = rt.slowdown.network;
    if world.obs.is_enabled() {
        // The per-request lifecycle is fully determined here (the CPU
        // stage is FIFO), so the queue and service spans are recorded up
        // front rather than via extra engine events.
        world.record_request_span(service, vsn, RequestPhase::Queue, arrive, start);
        world.record_request_span(service, vsn, RequestPhase::GuestService, start, done_cpu);
        // Same for a sampled trace: the first three critical-path phases
        // (route spans switch forwarding, queue the CPU wait, service
        // the CPU stage) are contiguous from issue to CPU completion.
        let tr = world.request_traces.get(&request).copied();
        world.obs.trace_child(tr, "route", issued, arrive);
        world.obs.trace_child(tr, "queue", arrive, start);
        world.obs.trace_child(tr, "guest_service", start, done_cpu);
    }
    let wire_bytes = (world.http.response_bytes(dataset) as f64 * net_slow) as u64;
    world.staged.insert(
        request,
        StagedRequest {
            service,
            vsn,
            host,
            ip,
            routed,
            issued,
            cpu_done: done_cpu,
            dataset,
            wire_bytes,
        },
    );
    ctx.schedule_hot_at(done_cpu, DataEvent::CpuDone(request));
}

/// A request's CPU stage finished: the shaper gates its response's
/// entry onto the NIC.
fn cpu_done(world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>, request: RequestId) {
    let now = ctx.now();
    let st = *world.staged.get(&request).expect("staged at dispatch");
    // The node may have died (or its link partitioned) while the
    // request was in its CPU stage: the response is lost, and the drop
    // is counted rather than silently vanishing.
    if !world.node_runtimes.contains_key(&st.vsn)
        || world.control.is_partitioned(u64::from(st.host.0), now)
    {
        if st.routed {
            if let Some(sw) = world.switch_mut_for(st.service) {
                sw.abort(st.vsn, now);
            }
        }
        world.obs.record(
            now,
            Event::RequestFailed {
                service: st.service.0,
                vsn: st.vsn.0,
            },
        );
        drop_request(world, ctx, request);
        return;
    }
    // Shaper gates the response's entry onto the NIC (unless the world
    // replicates the pre-shaper 2003 prototype).
    let depart = if world.shaping_enforced {
        world
            .daemon_mut(st.host)
            .host
            .shaper
            .admit(st.ip.as_u32(), st.wire_bytes, now)
    } else {
        now
    };
    if depart == SimTime::MAX {
        // Zero-rate shaping: response never leaves.
        if st.routed {
            if let Some(sw) = world.switch_mut_for(st.service) {
                sw.abort(st.vsn, now);
            }
        }
        drop_request(world, ctx, request);
        return;
    }
    let tr = world.request_traces.get(&request).copied();
    world
        .obs
        .trace_child(tr, "shaper_wait", st.cpu_done, depart);
    ctx.schedule_hot_at(depart, DataEvent::ResponseDepart(request));
}

/// The shaper released a request's response: it leaves its staging
/// entry and becomes a flow on its host's NIC.
fn response_depart(world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>, request: RequestId) {
    let st = world.staged.remove(&request).expect("staged at dispatch");
    start_flow(
        world,
        ctx,
        st.host,
        st.wire_bytes,
        FlowPurpose::Response {
            service: st.service,
            vsn: st.vsn,
            routed: st.routed,
            issued: st.issued,
            cpu_done: st.cpu_done,
            departed: ctx.now(),
            dataset: st.dataset,
            request,
        },
    );
}

/// Launch a remote attack against a node of `service`. The blast radius
/// follows the node's execution mode (§2.1's ghttpd scenario).
pub fn attack_node(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    service: ServiceId,
    vsn: VsnId,
    fault: FaultKind,
) -> Blast {
    let Some(rt) = world.node_runtimes.get(&vsn) else {
        return Blast::of(ExecutionMode::GuestIsolated, fault);
    };
    let mode = rt.mode;
    let host = rt.host;
    let blast = Blast::of(mode, fault);
    if blast.service_down {
        crash_one(world, ctx, service, vsn);
    }
    if blast.cohosted_down {
        // Host-level compromise: every node on the host falls.
        let victims: Vec<(ServiceId, VsnId)> = world
            .services_all()
            .flat_map(|rec| {
                rec.nodes
                    .iter()
                    .filter(|n| n.host == host && n.vsn != vsn)
                    .map(move |n| (rec.id, n.vsn))
            })
            .collect();
        for (svc, victim) in victims {
            crash_one(world, ctx, svc, victim);
        }
    }
    blast
}

fn crash_one(world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>, service: ServiceId, vsn: VsnId) {
    let now = ctx.now();
    let Some(rec) = world.service_record(service) else {
        return;
    };
    let Some(host) = rec.node(vsn).map(|n| n.host) else {
        return;
    };
    let _ = world.daemon_mut(host).crash_vsn(vsn, now);
    world.master_for_mut(service).node_crashed(service, vsn);
    world.node_runtimes.remove(&vsn);
    drop_inflight_on_vsn(world, ctx, host, vsn);
}

/// Cancel a set of in-flight flows, accounting honestly for what they
/// carried: responses count as dropped requests (callback fired with
/// `None`, switch slot released, `RequestFailed` recorded); downloads
/// fail the node's priming outright — the node is scrubbed and the
/// recovery loop (when armed) re-places the lost capacity, so a severed
/// download can never leave a node stuck in `Priming`; floods just
/// vanish.
fn cancel_flows(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    victims: Vec<((HostId, FlowId), FlowPurpose)>,
) {
    let now = ctx.now();
    for ((host, _), purpose) in victims {
        match purpose {
            FlowPurpose::Response {
                service,
                vsn,
                routed,
                request,
                ..
            } => {
                if routed {
                    if let Some(sw) = world.switch_mut_for(service) {
                        sw.abort(vsn, now);
                    }
                }
                world.obs.record(
                    now,
                    Event::RequestFailed {
                        service: service.0,
                        vsn: vsn.0,
                    },
                );
                drop_request(world, ctx, request);
            }
            FlowPurpose::Download { service, vsn, .. } => {
                fail_priming(world, ctx, service, vsn, host);
            }
            FlowPurpose::Flood => {}
        }
    }
}

/// Sever every in-flight flow on a host (the host crashed or its link
/// was partitioned). The NIC's fluid state keeps draining the bytes;
/// only the completion action is cancelled.
pub(crate) fn drop_inflight_on_host(world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>, host: HostId) {
    let victims = world.inflight.drain_host(host);
    cancel_flows(world, ctx, victims);
}

/// Sever in-flight responses originating from one VSN on `host`, the
/// node's host (its responses leave through that NIC only).
/// O(flows-on-host); cancellation order is ascending `(host, flow)`,
/// the order a full scan of every in-flight flow produces.
pub(crate) fn drop_inflight_on_vsn(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    host: HostId,
    vsn: VsnId,
) {
    let victims = world.inflight.drain_vsn(host, vsn);
    cancel_flows(world, ctx, victims);
}

/// Begin an image download for a freshly placed node: a flow on the
/// target host's NIC, bootstrap scheduled when it lands.
pub(crate) fn start_download(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    target: HostId,
    service: ServiceId,
    ticket: &PrimingTicket,
) {
    let bootstrap = ticket.timing.total();
    let bytes = world.http.download_bytes(ticket.download_bytes);
    let vsn = ticket.vsn;
    let started = ctx.now();
    start_flow(
        world,
        ctx,
        target,
        bytes,
        FlowPurpose::Download {
            service,
            vsn,
            bootstrap,
            started,
        },
    );
}

/// A node's priming failed mid-flight (corrupted image, repository
/// error): scrub it from its service and let the recovery loop restore
/// the lost capacity.
fn fail_priming(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    service: ServiceId,
    vsn: VsnId,
    host: HostId,
) {
    let now = ctx.now();
    world.obs.record(
        now,
        Event::PrimingFailed {
            service: service.0,
            vsn: vsn.0,
            host: u64::from(host.0),
        },
    );
    if let Some(p) = world.priming_traces.remove(&vsn) {
        world.obs.trace_close(Some(p), now);
    }
    if let Some(capacity) = scrub_node(world, service, vsn, now) {
        world.journal_op(now, JournalOp::Recovery, service);
        recovery::on_priming_failed(world, ctx, service, vsn, capacity);
    }
}

/// Scrub `vsn` from `service` through its home Master
/// ([`SodaMaster::remove_node`]), drop every cell's admission index
/// (the slice may sit on any cell's host) and, when the removal lets a
/// mid-creation service complete with its survivors, finish that
/// creation. Returns the node's capacity, or `None` for an unknown
/// service or node.
pub(crate) fn scrub_node(
    world: &mut SodaWorld,
    service: ServiceId,
    vsn: VsnId,
    now: SimTime,
) -> Option<u32> {
    let (master, daemons) = world.master_and_daemons(world.shard_of_service(service));
    let removed = master.remove_node(service, vsn, daemons, now);
    world.invalidate_admission_indexes();
    let (capacity, reply) = removed?;
    if let Some(reply) = reply {
        complete_creation_record(world, now, service, reply);
    }
    Some(capacity)
}

/// Fail-stop crash of a whole host with honest accounting: the daemon
/// dies (every VSN on it crashes), in-flight work is dropped and
/// counted — but the Master is NOT told. Detection is the self-healing
/// loop's job; without it the switch keeps routing to the dead backends
/// and those requests count as dropped.
pub fn crash_host(world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>, host: HostId) {
    let now = ctx.now();
    match soda_hup::daemon::daemon_for_mut(&mut world.daemons, host) {
        Some(d) if !d.is_failed() => {
            let _ = d.fail_host(now);
        }
        _ => return,
    }
    world.invalidate_admission_indexes();
    let dead: Vec<VsnId> = world
        .node_runtimes
        .iter()
        .filter(|(_, rt)| rt.host == host)
        .map(|(v, _)| v)
        .collect();
    for v in &dead {
        world.node_runtimes.remove(v);
    }
    drop_inflight_on_host(world, ctx, host);
}

/// Bring a crashed host back (rebooted, empty). Its capacity is
/// placeable again; VSNs that died with it stay dead until torn down.
pub fn repair_host(world: &mut SodaWorld, host: HostId) {
    if let Some(d) = soda_hup::daemon::daemon_for_mut(&mut world.daemons, host) {
        d.repair_host();
        world.invalidate_admission_indexes();
    }
}

/// Fail-stop crash of the Master process (the `MasterCrash` fault):
/// every record it held in memory is gone, the self-healing loop dies
/// with it, and nothing is journaled until takeover. The per-service
/// switches are colocated but separate data-plane processes — they
/// keep routing (stale) — and the daemons keep serving and priming. A
/// warm standby detects the silence and takes over by rebuilding from
/// the journal's checkpoint ⊕ tail, then reconciling against live
/// daemon reality.
pub fn crash_master(world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>) {
    let now = ctx.now();
    let cell = &mut world.shards.cells[0];
    world.obs.record(
        now,
        Event::MasterDown {
            epoch: cell.journal.epoch(),
        },
    );
    if !world.failover.down {
        world.failover.down = true;
        world.failover.crashed_at = Some(now);
        cell.master.crash_control();
        cell.recovery.crash();
    }
    // A crash while already down kills the standby mid-replay: restart
    // the detection + replay clock and invalidate the pending takeover.
    world.failover.takeover_gen += 1;
    let gen = world.failover.takeover_gen;
    let delay = world.failover.detection_delay
        + world.failover.checkpoint_load
        + world.failover.per_entry_replay * cell.journal.replay_len();
    ctx.schedule_in_as("master_takeover", delay, move |w: &mut SodaWorld, ctx| {
        if w.failover.takeover_gen != gen || !w.failover.down {
            return;
        }
        master_takeover(w, ctx);
    });
}

/// Warm-standby takeover: rebuild the control plane from the journal,
/// bump the Master epoch, re-arm self-healing, and reconcile the
/// rebuilt picture against what the daemons actually hold.
/// One daemon's re-registration report: `None` when the host is dead.
type ReRegistration = Option<Vec<(VsnId, VsnState)>>;

fn master_takeover(world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>) {
    let now = ctx.now();
    let cell = &mut world.shards.cells[0];
    let replayed = cell.journal.replay_len() as usize;
    let checkpoint_seq = cell.journal.checkpoint_seq();
    let rebuilt = cell.journal.rebuild();
    let restored = cell.master.restore_control(&rebuilt);
    let epoch = cell.journal.bump_epoch(now, cell.master.id_counters());
    world.failover.down = false;
    world.obs.record(
        now,
        Event::JournalReplayed {
            epoch,
            entries: replayed as u64,
            checkpoint_seq,
        },
    );

    // Every daemon re-registers its VSNs; the journal's picture is a
    // lower bound on reality and is corrected against the reports.
    // Failed hosts answer nothing — the re-armed heartbeat loop will
    // declare them down through the normal detection path.
    // Under a sharded plane only cell 0's hosts re-register with the
    // recovering shard-0 Master (each cell owns its own roster).
    let daemons = &world.daemons[world.shards.map.range(ShardId(0))];
    let reports: Vec<(HostId, ReRegistration)> = daemons
        .iter()
        .map(|d| (d.host.id, d.re_register()))
        .collect();
    let hosts: Vec<HostId> = reports.iter().map(|(h, _)| *h).collect();
    let cell = &mut world.shards.cells[0];
    cell.recovery
        .rearm(cell.recovery_cfg.seed, epoch, now, &hosts);

    // vsn → (service, capacity) over every cell's records: a foreign
    // service spilled onto a shard-0 host must not be torn down as a
    // duplicate just because shard 0's own journal never heard of it.
    let known: HashMap<VsnId, (ServiceId, u32)> = world
        .services_all()
        .flat_map(|rec| rec.nodes.iter().map(move |n| (n.vsn, (rec.id, n.capacity))))
        .collect();
    let mut adopted = 0usize;
    let mut scrubbed = 0usize;
    let mut duplicates = 0usize;
    for (host, report) in &reports {
        let Some(vsns) = report else { continue };
        for &(vsn, state) in vsns {
            match known.get(&vsn) {
                Some(&(svc, cap)) => match state {
                    // Journaled and actually running: adopt as-is (its
                    // switch kept routing through the outage).
                    VsnState::Running => adopted += 1,
                    // In-flight priming finishes via the (buffered)
                    // boot path below.
                    VsnState::Allocated | VsnState::Priming => {}
                    // Journaled but dead: scrub it into a fresh
                    // epoch-stamped recovery episode.
                    VsnState::Crashed => {
                        recovery::handle_node_down(world, ctx, svc, vsn, cap, *host, false);
                        scrubbed += 1;
                    }
                    VsnState::TornDown => {}
                },
                // The daemon holds a VSN the rebuilt state does not
                // know — a duplicate or leaked placement. Tear it down.
                None => {
                    let _ = world.daemon_mut(*host).teardown_vsn(vsn);
                    world.invalidate_admission_indexes();
                    world.remove_runtime(vsn);
                    drop_inflight_on_vsn(world, ctx, *host, vsn);
                    duplicates += 1;
                }
            }
        }
    }

    // Boots that landed while the Master was down, re-driven in arrival
    // order. Their records were rebuilt from the journal, so the normal
    // node-ready path completes them (elapsed honestly spans the outage).
    let orphans = std::mem::take(&mut world.failover.orphaned_boots);
    let orphaned_boots = orphans.len();
    for (svc, vsn, started) in orphans {
        finish_node_boot(world, ctx, svc, vsn, started);
    }

    world.obs.record(
        now,
        Event::MasterRecovered {
            epoch,
            replayed: replayed as u64,
        },
    );
    if world.obs.is_enabled() {
        if world.master_failovers_h.is_none() {
            world.master_failovers_h = world.obs.intern(
                "world",
                "master_failovers",
                Labels::none(),
                MetricKind::Counter,
            );
        }
        if let Some(h) = world.master_failovers_h {
            world.obs.counter_add_h(h, 1);
        }
    }
    let crashed_at = world.failover.crashed_at.take().unwrap_or(now);
    world.failover.records.push(FailoverRecord {
        crashed_at,
        recovered_at: now,
        epoch,
        replayed,
        checkpoint_seq,
        restored,
        adopted,
        scrubbed,
        duplicates,
        orphaned_boots,
    });
}

/// Apply one injected fault to the world — the bridge a
/// [`soda_sim::FaultPlan`] is scheduled through:
/// `plan.schedule(&mut engine, apply_fault)`.
pub fn apply_fault(world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>, fault: FaultSpec) {
    let now = ctx.now();
    world.obs.record(
        now,
        Event::FaultInjected {
            kind: fault.kind(),
            host: fault.host().unwrap_or(0),
            vsn: fault.vsn().unwrap_or(0),
        },
    );
    match fault {
        FaultSpec::HostCrash { host } => crash_host(world, ctx, HostId(host as u32)),
        FaultSpec::HostRepair { host } => repair_host(world, HostId(host as u32)),
        FaultSpec::VsnCrash { vsn } => {
            let vsn = VsnId(vsn);
            let owner = world
                .services_all()
                .find_map(|rec| rec.node(vsn).map(|n| (rec.id, n.host)));
            if let Some((_, host)) = owner {
                // The VSN dies but the Master is not told — the next
                // heartbeat carries the bad news.
                let _ = world.daemon_mut(host).crash_vsn(vsn, now);
                world.node_runtimes.remove(&vsn);
                drop_inflight_on_vsn(world, ctx, host, vsn);
            }
        }
        FaultSpec::PrimingFailure { host } => {
            *world
                .armed_priming_failures
                .entry(HostId(host as u32))
                .or_insert(0) += 1;
        }
        FaultSpec::SlowHost {
            host,
            factor,
            duration,
        } => {
            let h = HostId(host as u32);
            let until = now + duration;
            let entry = world.host_slow.entry(h).or_insert((1.0, until));
            entry.0 = entry.0.max(factor.max(1.0));
            entry.1 = entry.1.max(until);
            ctx.schedule_in_as("fault_expiry", duration, move |w: &mut SodaWorld, ctx| {
                if w.host_slow.get(&h).is_some_and(|&(_, t)| ctx.now() >= t) {
                    w.host_slow.remove(&h);
                }
            });
        }
        FaultSpec::LinkLoss {
            host,
            loss,
            duration,
        } => {
            world.control.set_loss(host, loss, now + duration);
        }
        FaultSpec::MasterCrash => crash_master(world, ctx),
        FaultSpec::LinkPartition { host, duration } => {
            world.control.partition(host, now + duration);
            world.obs.record(now, Event::LinkPartitioned { host });
            drop_inflight_on_host(world, ctx, HostId(host as u32));
            ctx.schedule_in_as("fault_expiry", duration, move |w: &mut SodaWorld, ctx| {
                w.obs.record(ctx.now(), Event::LinkRestored { host });
            });
        }
    }
}

/// Revive a crashed node: re-prime from the daemon's blueprint, then
/// bring it back into the switch rotation.
pub fn revive_node(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    service: ServiceId,
    vsn: VsnId,
) -> Result<(), SodaError> {
    let rec = world
        .service_record(service)
        .ok_or(SodaError::UnknownService(service))?;
    let host = rec.node(vsn).ok_or(SodaError::UnknownVsn(vsn))?.host;
    let timing = world.daemon_mut(host).begin_repriming(vsn)?;
    ctx.schedule_in_as("reprime", timing.total(), move |w: &mut SodaWorld, ctx| {
        let now = ctx.now();
        if reprime_landed(w, service, vsn, host, now) {
            w.journal_op(now, JournalOp::Recovery, service);
        }
    });
    Ok(())
}

/// A re-prime in place finished: boot the node on `host`, mark it
/// healthy in its switch again and install its runtime. `false` when
/// the boot failed (the host died underneath it).
pub(crate) fn reprime_landed(
    world: &mut SodaWorld,
    service: ServiceId,
    vsn: VsnId,
    host: HostId,
    now: SimTime,
) -> bool {
    let booted = soda_hup::daemon::daemon_for_mut(&mut world.daemons, host)
        .is_some_and(|d| d.complete_priming(vsn, now).is_ok());
    if booted {
        world.master_for_mut(service).node_recovered(service, vsn);
        let _ = world.install_runtime(service, vsn, ExecutionMode::GuestIsolated);
    }
    booted
}

/// Start a DDoS flood against the host carrying `service`'s switch:
/// `flows` concurrent elephant flows of `bytes_each`. They share the
/// victim host's NIC with every co-hosted node — the §3.5 isolation
/// violation.
pub fn ddos_switch_host(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    service: ServiceId,
    flows: u32,
    bytes_each: u64,
) -> Option<HostId> {
    let sw = world.switch_for(service)?;
    let colo = sw.colocated_on;
    let host = world.service_record(service)?.node(colo)?.host;
    for _ in 0..flows {
        start_flow(world, ctx, host, bytes_each, FlowPurpose::Flood);
    }
    Some(host)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_hostos::resources::ResourceVector;
    use soda_vmm::rootfs::RootFsCatalog;
    use soda_vmm::sysservices::StartupClass;

    fn web_spec(n: u32) -> ServiceSpec {
        ServiceSpec {
            name: "web".into(),
            image: RootFsCatalog::new().base_1_0(),
            required_services: vec!["network", "syslogd"],
            app_class: StartupClass::Light,
            instances: n,
            machine: ResourceVector::TABLE1_EXAMPLE,
            port: 8080,
        }
    }

    fn engine_with_web(n: u32) -> (Engine<SodaWorld>, ServiceId) {
        let mut engine = Engine::new(SodaWorld::testbed());
        let svc = create_service_driven(&mut engine, web_spec(n), "webco").unwrap();
        engine.run_until(SimTime::from_secs(120));
        assert_eq!(engine.state().creations.len(), 1, "creation must complete");
        (engine, svc)
    }

    /// A creation that spills out of a full home cell reserves slices on
    /// a peer cell's hosts; the peer's next admission must see them.
    #[test]
    fn spilled_admission_refreshes_peer_cells_indexes() {
        use soda_hup::host::HupHost;
        use soda_net::pool::IpPool;
        let daemons = (1..=4u32)
            .map(|i| {
                let pool = IpPool::new(format!("10.0.{i}.0").parse().unwrap(), 16);
                SodaDaemon::new(if i % 2 == 1 {
                    HupHost::seattle(HostId(i), pool)
                } else {
                    HupHost::tacoma(HostId(i), pool)
                })
            })
            .collect();
        let mut world = SodaWorld::new(daemons);
        world.configure_shards(ControlPlaneKind::Sharded(2));
        let mut engine = Engine::new(world);
        let mut create = |n| create_service_driven(&mut engine, web_spec(n), "asp").unwrap();
        create(1); // home cell 0
        create(1); // home cell 1
        create(7); // home cell 0, spills onto cell 1
        let last = create(1); // home cell 1
        assert_eq!(engine.state().shards.spills, 1);
        let rec = engine.state().service_record(last).unwrap();
        assert_eq!(rec.nodes.len(), 1);
        assert_eq!(rec.nodes[0].host, HostId(4));
    }

    /// Tearing a spilled service down frees slices on a peer cell's
    /// hosts; that peer's next admissions must place over the freed
    /// roster, as `WorstFit` over its live daemons would.
    #[test]
    fn spilled_teardown_refreshes_peer_cells_indexes() {
        use crate::placement::{PlacementPolicy, WorstFit};
        use soda_hup::host::HupHost;
        use soda_net::pool::IpPool;
        let daemons = (1..=4u32)
            .map(|i| {
                let pool = IpPool::new(format!("10.0.{i}.0").parse().unwrap(), 16);
                SodaDaemon::new(if i % 2 == 1 {
                    HupHost::seattle(HostId(i), pool)
                } else {
                    HupHost::tacoma(HostId(i), pool)
                })
            })
            .collect();
        let mut world = SodaWorld::new(daemons);
        world.configure_shards(ControlPlaneKind::Sharded(2));
        let mut engine = Engine::new(world);
        let create = |engine: &mut Engine<SodaWorld>, n| {
            create_service_driven(engine, web_spec(n), "asp").unwrap()
        };
        create(&mut engine, 1); // home cell 0
        create(&mut engine, 1); // home cell 1
        let spilled = create(&mut engine, 7); // home cell 0, spills onto cell 1
        create(&mut engine, 1); // home cell 1
        assert_eq!(engine.state().shards.spills, 1);
        let now = engine.now();
        teardown_service(engine.state_mut(), spilled, now).unwrap();
        create(&mut engine, 1); // home cell 0
        let w = engine.state();
        // The next creation is homed in cell 1: it must land where
        // worst-fit over cell 1's live roster puts it.
        let cell = w.cell_range(ShardId(1));
        let m = w
            .master_of(ShardId(1))
            .inflated_machine(&web_spec(1).machine);
        let roster: Vec<_> = w.daemons[cell]
            .iter()
            .map(|d| (d.host.id, d.report_resources()))
            .collect();
        let want = WorstFit.place(1, &m, &roster).expect("room in cell 1")[0].host;
        let last = create(&mut engine, 1);
        let rec = engine.state().service_record(last).unwrap();
        assert_eq!(engine.state().shard_of_service(last), ShardId(1));
        assert_eq!(rec.nodes.len(), 1);
        assert_eq!(rec.nodes[0].host, want);
    }

    #[test]
    fn driven_creation_downloads_then_boots() {
        let (engine, svc) = engine_with_web(3);
        let w = engine.state();
        let created = &w.creations[0];
        assert_eq!(created.reply.service, svc);
        assert_eq!(created.reply.nodes.len(), 2);
        // Download of 29.3 MB at ~100 Mbps ≈ 2.4 s, plus bootstrap
        // seconds: creation lands in a plausible band.
        let t = created.at.as_secs_f64();
        assert!((3.0..30.0).contains(&t), "created at {t}s");
        // Billing started at the capacity.
        assert!(w.agent.usage(svc, SimTime::from_secs(120)) > 0.0);
    }

    #[test]
    fn requests_flow_end_to_end() {
        let (mut engine, svc) = engine_with_web(3);
        let t0 = engine.now();
        for i in 0..30u64 {
            engine.schedule_at(
                t0 + SimDuration::from_millis(100 * i),
                move |w: &mut SodaWorld, ctx| {
                    submit_request(w, ctx, svc, 50_000);
                },
            );
        }
        engine.run_until(SimTime::from_secs(300));
        let w = engine.state();
        assert_eq!(w.completed.len(), 30, "dropped {}", w.dropped);
        for r in &w.completed {
            let rt = r.response_time().as_secs_f64();
            assert!(rt > 0.0 && rt < 5.0, "response time {rt}");
        }
        // WRR 2:1 split.
        let sw = w.switch_for(svc).unwrap();
        let counts = sw.served_counts();
        assert_eq!(counts.iter().sum::<u64>(), 30);
        assert_eq!(counts[0], 20);
        assert_eq!(counts[1], 10);
    }

    /// Every way a dispatched request ends removes its staging entry:
    /// delivery, a zero-rate shaper that never lets its response leave,
    /// and its node dying during the CPU stage. A leaked entry would pin
    /// the slab's ring base and grow it with every later request.
    #[test]
    fn every_request_exit_clears_its_staging_entry() {
        let (mut engine, svc) = engine_with_web(3);
        let rec = engine.state().service_record(svc).unwrap();
        let nodes = [rec.nodes[0].vsn, rec.nodes[1].vsn];
        let t0 = engine.now() + SimDuration::from_secs(1);
        engine.schedule_at(t0, move |w: &mut SodaWorld, ctx| {
            for _ in 0..12 {
                submit_request(w, ctx, svc, 50_000);
            }
            assert_eq!(w.staged.len(), 12);
            // Node 0's responses can never leave its host.
            let rt = w.node_runtimes[&nodes[0]];
            w.daemon_mut(rt.host).host.shaper.configure(
                rt.ip.as_u32(),
                0.0,
                SimDuration::ZERO,
                ctx.now(),
            );
        });
        engine.schedule_at(
            t0 + SimDuration::from_millis(10),
            move |w: &mut SodaWorld, ctx| {
                apply_fault(w, ctx, FaultSpec::VsnCrash { vsn: nodes[1].0 });
            },
        );
        engine.run_until(t0 + SimDuration::from_secs(60));
        let w = engine.state();
        let served = w.switch_for(svc).unwrap().served_counts();
        // Node 1's first response lands; its later requests die in the
        // CPU stage with the node.
        assert_eq!(served, vec![0, 1]);
        assert_eq!(w.completed.len(), 1);
        assert_eq!(w.dropped, 11);
        assert!(w.staged.is_empty());
        assert_eq!(w.open_requests, 0);
    }

    /// The request path's events ride the queue inline at no more than
    /// the size of a boxed closure entry (a larger payload grows every
    /// queued event), under the kind tags the profiler and perfbench's
    /// layer ledger file them by.
    #[test]
    fn data_events_are_inline_under_their_kind_tags() {
        use soda_sim::{EventFn, Payload};
        assert!(
            std::mem::size_of::<Payload<SodaWorld>>()
                <= std::mem::size_of::<(&'static str, EventFn<SodaWorld>)>()
        );
        let kinds = [
            DataEvent::CpuDone(RequestId(1)),
            DataEvent::ResponseDepart(RequestId(1)),
            DataEvent::NicPump {
                host: HostId(1),
                gen: 1,
            },
        ]
        .map(|ev| Payload::<SodaWorld>::Hot(ev).kind());
        assert_eq!(kinds, ["cpu_done", "response_depart", "nic_pump"]);
    }

    #[test]
    fn guest_mode_is_slower_than_host_direct() {
        let (mut engine, svc) = engine_with_web(1);
        let vsn = engine.state().service_record(svc).unwrap().nodes[0].vsn;
        // One request in guest mode.
        engine.schedule_in(SimDuration::from_secs(1), move |w: &mut SodaWorld, ctx| {
            submit_request_direct(w, ctx, svc, vsn, 100_000);
        });
        engine.run_until(engine.now() + SimDuration::from_secs(60));
        let guest_rt = engine.state().completed[0].response_time();
        // Same request in host-direct mode.
        engine
            .state_mut()
            .set_execution_mode(svc, vsn, ExecutionMode::HostDirect);
        engine.schedule_in(SimDuration::from_secs(1), move |w: &mut SodaWorld, ctx| {
            submit_request_direct(w, ctx, svc, vsn, 100_000);
        });
        engine.run_until(engine.now() + SimDuration::from_secs(60));
        let host_rt = engine.state().completed[1].response_time();
        assert!(guest_rt > host_rt, "guest {guest_rt} !> host {host_rt}");
        // But modest: well under 2× (Figure 6's claim).
        let factor = guest_rt.as_secs_f64() / host_rt.as_secs_f64();
        assert!(factor < 2.0, "slowdown factor {factor}");
    }

    #[test]
    fn attack_on_guest_isolated_node_spares_cohosted() {
        let mut engine = Engine::new(SodaWorld::testbed());
        let web = create_service_driven(&mut engine, web_spec(3), "webco").unwrap();
        let hp_spec = ServiceSpec {
            name: "honeypot".into(),
            image: RootFsCatalog::new().tomsrtbt(),
            required_services: vec!["network"],
            app_class: StartupClass::Light,
            instances: 1,
            machine: ResourceVector::TABLE1_EXAMPLE,
            port: 80,
        };
        let hp = create_service_driven(&mut engine, hp_spec, "seclab").unwrap();
        engine.run_until(SimTime::from_secs(120));
        assert_eq!(engine.state().creations.len(), 2);
        let hp_vsn = engine.state().service_record(hp).unwrap().nodes[0].vsn;
        // Attack the honeypot.
        engine.schedule_in(SimDuration::from_secs(1), move |w: &mut SodaWorld, ctx| {
            let blast = attack_node(w, ctx, hp, hp_vsn, FaultKind::RootCompromise);
            assert!(blast.service_down);
            assert!(!blast.cohosted_down);
        });
        // Web requests still succeed afterwards.
        let t = engine.now() + SimDuration::from_secs(2);
        for i in 0..10u64 {
            engine.schedule_at(
                t + SimDuration::from_millis(200 * i),
                move |w: &mut SodaWorld, ctx| {
                    submit_request(w, ctx, web, 10_000);
                },
            );
        }
        engine.run_until(engine.now() + SimDuration::from_secs(120));
        let w = engine.state();
        assert_eq!(
            w.completed.len(),
            10,
            "web unaffected; dropped {}",
            w.dropped
        );
        // The honeypot node is crashed.
        let hp_rec = w.service_record(hp).unwrap();
        let d = w.daemon(hp_rec.nodes[0].host);
        assert_eq!(d.vsn(hp_vsn).unwrap().crash_count, 1);
    }

    #[test]
    fn host_direct_attack_takes_down_cohosted() {
        let mut engine = Engine::new(SodaWorld::testbed());
        let web = create_service_driven(&mut engine, web_spec(3), "webco").unwrap();
        let hp_spec = ServiceSpec {
            name: "honeypot".into(),
            image: RootFsCatalog::new().tomsrtbt(),
            required_services: vec!["network"],
            app_class: StartupClass::Light,
            instances: 1,
            machine: ResourceVector::TABLE1_EXAMPLE,
            port: 80,
        };
        let hp = create_service_driven(&mut engine, hp_spec, "seclab").unwrap();
        engine.run_until(SimTime::from_secs(120));
        let hp_vsn = engine.state().service_record(hp).unwrap().nodes[0].vsn;
        // The counterfactual: honeypot runs directly on the host OS.
        engine
            .state_mut()
            .set_execution_mode(hp, hp_vsn, ExecutionMode::HostDirect);
        engine.schedule_in(SimDuration::from_secs(1), move |w: &mut SodaWorld, ctx| {
            let blast = attack_node(w, ctx, hp, hp_vsn, FaultKind::RootCompromise);
            assert!(blast.cohosted_down);
        });
        engine.run_until(engine.now() + SimDuration::from_secs(5));
        // The web node sharing seattle crashed with it.
        let w = engine.state();
        let web_rec = w.service_record(web).unwrap();
        let seattle_node = web_rec.nodes.iter().find(|n| n.host == HostId(1)).unwrap();
        let d = w.daemon(HostId(1));
        assert_eq!(d.vsn(seattle_node.vsn).unwrap().crash_count, 1);
    }

    #[test]
    fn revive_restores_service() {
        let (mut engine, svc) = engine_with_web(1);
        let vsn = engine.state().service_record(svc).unwrap().nodes[0].vsn;
        engine.schedule_in(SimDuration::from_secs(1), move |w: &mut SodaWorld, ctx| {
            attack_node(w, ctx, svc, vsn, FaultKind::Crash);
            revive_node(w, ctx, svc, vsn).unwrap();
        });
        engine.run_until(engine.now() + SimDuration::from_secs(60));
        let t = engine.now();
        engine.schedule_in(SimDuration::from_secs(1), move |w: &mut SodaWorld, ctx| {
            submit_request(w, ctx, svc, 10_000);
        });
        engine.run_until(t + SimDuration::from_secs(60));
        assert_eq!(
            engine.state().completed.len(),
            1,
            "revived node serves again"
        );
    }

    #[test]
    fn ddos_degrades_cohosted_service() {
        // Two services on seattle; flood the web switch's host and watch
        // the *other* service's response times degrade. First-fit
        // placement packs both onto seattle.
        let mut engine = Engine::new(SodaWorld::testbed());
        engine
            .state_mut()
            .master_of_mut(ShardId(0))
            .set_placement(Box::new(crate::placement::FirstFit));
        let web = create_service_driven(&mut engine, web_spec(2), "webco").unwrap();
        let other = create_service_driven(
            &mut engine,
            ServiceSpec {
                name: "other".into(),
                ..web_spec(1)
            },
            "otherco",
        )
        .unwrap();
        engine.run_until(SimTime::from_secs(120));
        assert_eq!(engine.state().creations.len(), 2);
        // Baseline response time for `other`.
        let t0 = engine.now();
        engine.schedule_at(t0, move |w: &mut SodaWorld, ctx| {
            submit_request(w, ctx, other, 200_000);
        });
        engine.run_until(t0 + SimDuration::from_secs(60));
        let baseline = engine.state().completed.last().unwrap().response_time();
        // Flood, then repeat the request.
        let t1 = engine.now();
        engine.schedule_at(t1, move |w: &mut SodaWorld, ctx| {
            ddos_switch_host(w, ctx, web, 20, 50_000_000).unwrap();
            submit_request(w, ctx, other, 200_000);
        });
        engine.run_until(t1 + SimDuration::from_secs(600));
        let under_attack = engine.state().completed.last().unwrap().response_time();
        assert!(
            under_attack > baseline * 2,
            "DDoS must violate isolation: {under_attack} vs {baseline}"
        );
    }
}
