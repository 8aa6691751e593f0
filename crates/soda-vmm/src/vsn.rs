//! The virtual service node state machine.
//!
//! "Each virtual machine is called a virtual service node, which is
//! physically a 'slice' of a HUP host. Each node runs a guest OS on top
//! of the host OS; while service S runs on top of the guest OS.
//! Moreover, an IP address is assigned to each virtual service node so
//! that it can communicate like a physical server." (§2.1)
//!
//! Lifecycle:
//!
//! ```text
//! Allocated ──start_priming──▶ Priming ──booted──▶ Running
//!     │                           │                   │
//!     └────────teardown───────────┴──────┬────────────┤
//!                                        ▼            ▼
//!                                    TornDown ◀── Crashed
//!                                        (crashed nodes can be torn
//!                                         down or re-primed)
//! ```

use std::fmt;

use soda_hostos::process::Uid;
use soda_net::addr::Ipv4Addr;
use soda_sim::SimTime;

use crate::guest::GuestOs;

/// Identifier of a virtual service node, unique across the HUP.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VsnId(pub u64);

impl fmt::Display for VsnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vsn-{}", self.0)
    }
}

/// Lifecycle states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VsnState {
    /// Slice reserved; nothing downloaded or booted yet.
    Allocated,
    /// Image download + bootstrap in progress.
    Priming,
    /// Guest OS and application up, serving.
    Running,
    /// The guest crashed (fault or successful attack). The slice is
    /// still reserved; the host and co-hosted nodes are unaffected.
    Crashed,
    /// Resources released; terminal.
    TornDown,
}

/// Invalid lifecycle transitions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VsnError {
    /// The node.
    pub vsn: VsnId,
    /// What was attempted.
    pub attempted: &'static str,
    /// The state it was in.
    pub state: VsnState,
}

impl fmt::Display for VsnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: cannot {} from state {:?}",
            self.vsn, self.attempted, self.state
        )
    }
}

impl std::error::Error for VsnError {}

/// A virtual service node.
#[derive(Clone, Debug)]
pub struct VirtualServiceNode {
    /// Node id.
    pub id: VsnId,
    /// Host-side uid of every process in this node.
    pub uid: Uid,
    /// The node's IP address (assigned during priming).
    pub ip: Option<Ipv4Addr>,
    /// Relative capacity in machine instances `M` (Table 3's "Capacity"
    /// column; ≥ 1).
    pub capacity: u32,
    /// Reservation id in the host ledger.
    pub reservation: u64,
    /// Current state.
    state: VsnState,
    /// The booted guest (present in Running/Crashed).
    guest: Option<GuestOs>,
    /// When the Master began priming the node: the start of its
    /// `master.priming` span, set by the Daemon for a fresh priming
    /// (never for a re-prime) and cleared when priming ends.
    pub priming_since: Option<SimTime>,
    /// When the node entered Running (for billing).
    pub running_since: Option<SimTime>,
    /// Crash counter (the honeypot's is large).
    pub crash_count: u32,
}

impl VirtualServiceNode {
    /// A freshly allocated node.
    pub fn allocated(id: VsnId, uid: Uid, capacity: u32, reservation: u64) -> Self {
        VirtualServiceNode {
            id,
            uid,
            ip: None,
            capacity: capacity.max(1),
            reservation,
            state: VsnState::Allocated,
            guest: None,
            priming_since: None,
            running_since: None,
            crash_count: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> &VsnState {
        &self.state
    }

    /// The booted guest, if any.
    pub fn guest(&self) -> Option<&GuestOs> {
        self.guest.as_ref()
    }

    /// True iff the node can serve requests.
    pub fn is_running(&self) -> bool {
        self.state == VsnState::Running
    }

    fn err(&self, attempted: &'static str) -> VsnError {
        VsnError {
            vsn: self.id,
            attempted,
            state: self.state,
        }
    }

    /// Begin priming (download + bootstrap). Allowed from Allocated, and
    /// from Crashed (re-priming a crashed node — how the honeypot is
    /// revived between attacks).
    pub fn start_priming(&mut self) -> Result<(), VsnError> {
        match self.state {
            VsnState::Allocated | VsnState::Crashed => {
                self.state = VsnState::Priming;
                self.guest = None;
                self.running_since = None;
                Ok(())
            }
            _ => Err(self.err("start_priming")),
        }
    }

    /// Complete priming: the guest has booted, the IP is assigned.
    pub fn booted(&mut self, guest: GuestOs, ip: Ipv4Addr, now: SimTime) -> Result<(), VsnError> {
        match self.state {
            VsnState::Priming => {
                self.state = VsnState::Running;
                self.guest = Some(guest);
                self.ip = Some(ip);
                self.priming_since = None;
                self.running_since = Some(now);
                Ok(())
            }
            _ => Err(self.err("booted")),
        }
    }

    /// The guest crashed (fault or successful attack). Only valid while
    /// running — the isolation property is that *this* is the entire
    /// blast radius.
    pub fn crash(&mut self) -> Result<(), VsnError> {
        match self.state {
            VsnState::Running => {
                self.state = VsnState::Crashed;
                self.crash_count += 1;
                self.running_since = None;
                Ok(())
            }
            _ => Err(self.err("crash")),
        }
    }

    /// Tear the node down, releasing it. Valid from any non-terminal
    /// state.
    pub fn teardown(&mut self) -> Result<(), VsnError> {
        match self.state {
            VsnState::TornDown => Err(self.err("teardown")),
            _ => {
                self.state = VsnState::TornDown;
                self.guest = None;
                self.priming_since = None;
                self.running_since = None;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_hostos::process::Uid;
    use std::collections::BTreeSet;

    fn node() -> VirtualServiceNode {
        VirtualServiceNode::allocated(VsnId(1), Uid(100), 2, 77)
    }

    fn guest() -> GuestOs {
        GuestOs::boot("Web", Uid(100), BTreeSet::new())
    }

    fn ip() -> Ipv4Addr {
        "128.10.9.125".parse().unwrap()
    }

    #[test]
    fn happy_path_lifecycle() {
        let mut n = node();
        assert_eq!(*n.state(), VsnState::Allocated);
        assert!(!n.is_running());
        n.start_priming().unwrap();
        assert_eq!(*n.state(), VsnState::Priming);
        n.booted(guest(), ip(), SimTime::from_secs(3)).unwrap();
        assert!(n.is_running());
        assert_eq!(n.ip, Some(ip()));
        assert_eq!(n.running_since, Some(SimTime::from_secs(3)));
        assert!(n.guest().is_some());
        n.teardown().unwrap();
        assert_eq!(*n.state(), VsnState::TornDown);
        assert!(n.guest().is_none());
    }

    #[test]
    fn crash_and_reprime() {
        let mut n = node();
        n.start_priming().unwrap();
        n.booted(guest(), ip(), SimTime::ZERO).unwrap();
        n.crash().unwrap();
        assert_eq!(*n.state(), VsnState::Crashed);
        assert_eq!(n.crash_count, 1);
        assert!(n.running_since.is_none());
        // The honeypot cycle: crash, re-prime, crash again.
        n.start_priming().unwrap();
        n.booted(guest(), ip(), SimTime::from_secs(10)).unwrap();
        n.crash().unwrap();
        assert_eq!(n.crash_count, 2);
    }

    #[test]
    fn invalid_transitions_rejected() {
        let mut n = node();
        // Cannot boot before priming.
        let e = n.booted(guest(), ip(), SimTime::ZERO).unwrap_err();
        assert_eq!(e.attempted, "booted");
        assert_eq!(e.state, VsnState::Allocated);
        // Cannot crash a node that is not running.
        assert!(n.crash().is_err());
        // Cannot prime while priming.
        n.start_priming().unwrap();
        assert!(n.start_priming().is_err());
        // Teardown is terminal.
        n.teardown().unwrap();
        assert!(n.teardown().is_err());
        assert!(n.start_priming().is_err());
        assert!(n.crash().is_err());
    }

    #[test]
    fn capacity_clamped_to_one() {
        let n = VirtualServiceNode::allocated(VsnId(2), Uid(1), 0, 1);
        assert_eq!(n.capacity, 1);
    }

    #[test]
    fn error_display() {
        let mut n = node();
        let e = n.crash().unwrap_err();
        assert!(e.to_string().contains("vsn-1"));
        assert!(e.to_string().contains("crash"));
    }
}
