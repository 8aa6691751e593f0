//! # soda-net
//!
//! Network model for the SODA reproduction.
//!
//! The paper's testbed is a flat 100 Mbps departmental LAN. Each virtual
//! service node gets its own IP address from a per-host pool; a
//! **bridging module** in the host OS forwards frames between VSNs and
//! the wire (§3.3). The paper notes **proxying** as the fallback when IP
//! addresses are scarce (footnote 3); it is not modelled, and an
//! exhausted pool refuses the node instead. Service images are
//! downloaded over HTTP/1.1, and download time "grows linearly with the
//! size of the service image" (§4.3).
//!
//! The model is *flow-level*: a transfer is a byte count sharing link
//! bandwidth with the other active transfers (processor sharing), plus a
//! propagation latency. Packet-level detail would add nothing to the
//! measured quantities (mean response time, download duration).
//!
//! * [`addr`] — IPv4 addresses and subnets.
//! * [`pool`] — disjoint per-host IP pools, allocation/release.
//! * [`link`] — processor-sharing link and the fixed-rate point-to-point
//!   link used for WAN federation.
//! * [`bridge`] — the host's learning bridge with its UML↔IP map.
//! * [`http`] — HTTP/1.1 request/response and image-download sizing.
//! * [`control`] — per-host partition/loss windows gating control-plane
//!   messages (heartbeats) during chaos runs.

pub mod addr;
pub mod bridge;
pub mod control;
pub mod http;
pub mod link;
pub mod pool;

pub use addr::{Ipv4Addr, Subnet};
pub use bridge::Bridge;
pub use control::ControlPlane;
pub use http::{HttpExchange, HttpModel};
pub use link::{FlowId, LinkSpec, ProcessorSharingLink};
pub use pool::{IpPool, PoolError};
