//! # soda-hup
//!
//! The Hosting Utility Platform substrate: physical HUP hosts and the
//! per-host **SODA Daemon**.
//!
//! "A SODA Daemon is running in each HUP host as a host OS process. It
//! reports resource availability to the SODA Master. And it performs
//! *service priming*, i.e. the creation of a virtual service node, at the
//! command of the SODA Master." (§3.3)
//!
//! * [`host`] — a HUP host: hardware profile, resource ledger, memory
//!   manager, traffic shaper, bridge, IP pool, process table, CPU
//!   scheduler. Presets for the paper's testbed (*seattle*, *tacoma*).
//! * [`daemon`] — the SODA Daemon: slice reservation, IP assignment,
//!   image download sizing, VSN creation/boot/crash/teardown/resize,
//!   and the per-host resource report the Master places from.

pub mod daemon;
pub mod host;

pub use daemon::{daemon_for, daemon_for_mut, PrimingError, PrimingTicket, SodaDaemon};
pub use host::{HostId, HupHost};
