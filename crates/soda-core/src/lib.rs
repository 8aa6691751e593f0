//! # soda-core
//!
//! The SODA architecture itself (Jiang & Xu, HPDC'03): the middleware
//! entities that turn a pool of HUP hosts into a Service-On-Demand
//! hosting utility.
//!
//! * [`api`] — the SODA API: `SODA_service_creation`,
//!   `SODA_service_teardown`, `SODA_service_resizing` (§4.1).
//! * [`agent`] — the **SODA Agent**: ASP authentication and billing, the
//!   interface between ASPs and the HUP (§3.1).
//! * [`master`] — the **SODA Master**: admission control, slice
//!   placement, priming coordination, switch creation, resizing (§3.2).
//! * [`placement`] — algorithms mapping `<n, M>` to host slices.
//! * [`config`] — the service configuration file (Table 3 format).
//! * [`policy`] — request-switching policies: weighted round-robin
//!   (default) and replaceable alternatives (§3.4).
//! * [`switch`] — the per-service **service switch**.
//! * [`service`] — service specs, ids and records.
//! * [`billing`] — usage metering behind the Agent.
//! * [`world`] — the composed simulation world: engine state wiring
//!   hosts, daemons, master, switches and the LAN into one request
//!   pipeline (what Figures 4 and 6 measure).
//! * [`federation`] — the §3.5 wide-area extension: multiple local HUPs
//!   federated behind their Agents.

pub mod agent;
pub mod api;
pub mod arena;
pub mod billing;
pub mod config;
pub mod error;
pub mod federation;
pub mod inflight;
pub mod journal;
pub mod master;
pub mod monitoring;
pub mod partition;
pub mod placement;
pub mod policy;
pub mod recovery;
pub mod service;
pub mod shard;
pub mod switch;
pub mod world;

pub use agent::SodaAgent;
pub use api::{CreationReply, CreationRequest, ResizeRequest, TeardownRequest};
pub use arena::{DenseId, IdMap, RequestTable};
pub use config::{ConfigDirective, ServiceConfigFile, ShardId, ShardMap};
pub use error::SodaError;
pub use journal::{EpisodeId, Journal, JournalEntry, JournalOp, MasterSnapshot, WorldSnapshot};
pub use master::SodaMaster;
pub use placement::{BestFit, FirstFit, NodePlan, PlacementPolicy, WorstFit};
pub use policy::{
    BackendView, LeastConnections, RandomPolicy, RoundRobin, SwitchPolicy, WeightedRoundRobin,
};
pub use recovery::{
    check_invariants, heartbeat_tick, start_self_healing, RecoveryConfig, RecoveryManager,
    RecoveryStats,
};
pub use service::{ServiceId, ServiceRecord, ServiceSpec, ServiceState};
pub use shard::{shard_salt, ControlPlaneKind, ShardCell, ShardMsg, ShardPlane};
pub use switch::ServiceSwitch;
pub use world::{
    apply_fault, attack_node, crash_host, create_service_driven, ddos_switch_host, repair_host,
    resize_service_driven, revive_node, submit_request, submit_request_direct,
    submit_request_with_callback, CreationRecord, RequestCallback, RequestId, RequestRecord,
    SodaWorld,
};
