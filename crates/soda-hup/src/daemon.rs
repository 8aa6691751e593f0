//! The SODA Daemon.
//!
//! §3.3: "Upon receiving the command to create a virtual service node,
//! the SODA Daemon will contact the underlying host OS and make resource
//! reservations for the virtual service node. After reserving a 'slice'
//! of the HUP host, the SODA Daemon will download the service image from
//! the location specified by the ASP, and bootstrap the virtual service
//! node (first the guest OS, then the service). … During the
//! bootstrapping, the SODA Daemon will also assign an IP address to the
//! virtual service node … and notify the bridging module … of the new
//! 'UML-IP' mapping."
//!
//! The Daemon here is synchronous-with-durations: `begin_priming`
//! performs all host-OS bookkeeping immediately and returns a
//! [`PrimingTicket`] carrying the download size and the bootstrap stage
//! timings; the simulation driver (the SODA Master's world) schedules
//! those durations on the event engine and then calls
//! `complete_priming`. "Once the service is started, the SODA Daemon
//! will *not* interfere with the interactions between the virtual
//! service node and the host OS."

use std::collections::BTreeMap;
use std::fmt;

use soda_hostos::process::Uid;
use soda_hostos::resources::{ResourceError, ResourceVector};
use soda_net::addr::Ipv4Addr;
use soda_net::bridge::PortTag;
use soda_net::pool::PoolError;
use soda_sim::{Event, Labels, Obs, SimDuration, SimTime};
use soda_vmm::bootstrap::{BootstrapModel, BootstrapTiming};
use soda_vmm::guest::GuestOs;
use soda_vmm::rootfs::RootFsImage;
use soda_vmm::sysservices::{StartupClass, SystemServiceId};
use soda_vmm::vsn::VsnState;
use soda_vmm::vsn::{VirtualServiceNode, VsnError, VsnId};

use crate::host::{HostId, HupHost};

/// Shaper burst window granted to each VSN.
const SHAPER_BURST: SimDuration = SimDuration::from_millis(100);

/// Why priming (or another daemon operation) failed.
#[derive(Debug)]
pub enum PrimingError {
    /// Slice reservation failed.
    Resources(ResourceError),
    /// No IP address available in the pool.
    Pool(PoolError),
    /// VSN state machine rejected the transition.
    Vsn(VsnError),
    /// Unknown VSN id.
    UnknownVsn(VsnId),
    /// A VSN with this id already exists on this host.
    DuplicateVsn(VsnId),
    /// The host is failed: nothing can prime or boot on it.
    HostDown(HostId),
    /// The VSN reached boot with no IP assigned (its priming was
    /// interrupted before address assignment).
    NoAddress(VsnId),
}

impl fmt::Display for PrimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrimingError::Resources(e) => write!(f, "resource reservation failed: {e}"),
            PrimingError::Pool(e) => write!(f, "IP assignment failed: {e}"),
            PrimingError::Vsn(e) => write!(f, "VSN transition failed: {e}"),
            PrimingError::UnknownVsn(id) => write!(f, "unknown VSN {id}"),
            PrimingError::DuplicateVsn(id) => write!(f, "duplicate VSN {id}"),
            PrimingError::HostDown(id) => write!(f, "host {id} is down"),
            PrimingError::NoAddress(id) => write!(f, "VSN {id} has no IP address"),
        }
    }
}

impl std::error::Error for PrimingError {}

impl From<ResourceError> for PrimingError {
    fn from(e: ResourceError) -> Self {
        PrimingError::Resources(e)
    }
}

impl From<PoolError> for PrimingError {
    fn from(e: PoolError) -> Self {
        PrimingError::Pool(e)
    }
}

impl From<VsnError> for PrimingError {
    fn from(e: VsnError) -> Self {
        PrimingError::Vsn(e)
    }
}

/// What `begin_priming` hands back for the driver to schedule.
#[derive(Clone, Debug)]
pub struct PrimingTicket {
    /// The node being primed.
    pub vsn: VsnId,
    /// The node's assigned address (already bridged).
    pub ip: Ipv4Addr,
    /// Bytes to download from the ASP's image repository.
    pub download_bytes: u64,
    /// Bootstrap stage timings (applied after the download completes).
    pub timing: BootstrapTiming,
}

/// Blueprint kept per VSN so a crashed node can be re-primed.
#[derive(Clone, Debug)]
struct Blueprint {
    hostname: String,
    app_command: String,
    kept_services: std::collections::BTreeSet<SystemServiceId>,
    timing: BootstrapTiming,
}

/// The per-host SODA Daemon.
pub struct SodaDaemon {
    /// The host this daemon manages.
    pub host: HupHost,
    model: BootstrapModel,
    vsns: BTreeMap<VsnId, VirtualServiceNode>,
    blueprints: BTreeMap<VsnId, Blueprint>,
    obs: Obs,
}

impl SodaDaemon {
    /// A daemon managing `host` with the default bootstrap calibration.
    pub fn new(host: HupHost) -> Self {
        SodaDaemon {
            host,
            model: BootstrapModel::new(),
            vsns: BTreeMap::new(),
            blueprints: BTreeMap::new(),
            obs: Obs::disabled(),
        }
    }

    /// Attach an observability handle. Propagates to the host's traffic
    /// shaper so its drop events carry this host's id.
    pub fn set_obs(&mut self, obs: Obs) {
        self.host
            .shaper
            .set_obs(obs.clone(), u64::from(self.host.id.0));
        self.obs = obs;
    }

    /// This host's id as an event/metric label.
    fn host_label(&self) -> u64 {
        u64::from(self.host.id.0)
    }

    /// Resource availability, as reported to the SODA Master.
    pub fn report_resources(&self) -> ResourceVector {
        self.host.available()
    }

    /// Whole-host failure: the host loses power; every VSN on it crashes
    /// at once. Returns the ids of the nodes that went down.
    pub fn fail_host(&mut self, now: SimTime) -> Vec<VsnId> {
        self.host.fail();
        let mut downed = Vec::new();
        for vsn in self.vsns.values_mut() {
            if vsn.is_running() && vsn.crash().is_ok() {
                downed.push(vsn.id);
            }
        }
        let host = u64::from(self.host.id.0);
        self.obs.record(now, Event::HostFailure { host });
        for vsn in &downed {
            self.obs.record(now, Event::VsnCrash { vsn: vsn.0, host });
        }
        self.obs
            .counter_add("daemon", "host_failures", Labels::one("host", host), 1);
        downed
    }

    /// Repair the host after a failure (power restored, ledger intact).
    pub fn repair_host(&mut self) {
        self.host.repair();
    }

    /// Is the host down?
    pub fn is_failed(&self) -> bool {
        self.host.failed
    }

    /// The daemon's periodic liveness report: `false` (and nothing
    /// appended) when the host is down (a dead daemon sends nothing),
    /// otherwise `true` with the ids of the VSNs currently Running
    /// appended to the caller's `running` buffer, sorted. Whether the
    /// report actually reaches the Master is the network's business, not
    /// the daemon's.
    pub fn heartbeat_into(&self, running: &mut Vec<VsnId>) -> bool {
        if self.host.failed {
            return false;
        }
        running.extend(self.vsns.values().filter(|v| v.is_running()).map(|v| v.id));
        true
    }

    /// Does this host hold a VSN in `Crashed`? Only such a node can be a
    /// node-level failure behind a heartbeat that omits it.
    pub fn has_crashed_vsn(&self) -> bool {
        self.vsns
            .values()
            .any(|v| matches!(v.state(), VsnState::Crashed))
    }

    /// The re-registration handshake a warm-standby Master performs
    /// after taking over. Unlike [`SodaDaemon::heartbeat_into`] (running ids
    /// only), the daemon reports *every* VSN it still holds together
    /// with its lifecycle state, so the standby can adopt running
    /// nodes, leave in-flight primings to finish, and scrub crashed
    /// ones. A failed host cannot answer — `None`, exactly like a
    /// missed heartbeat.
    pub fn re_register(&self) -> Option<Vec<(VsnId, VsnState)>> {
        if self.host.failed {
            return None;
        }
        Some(
            self.vsns
                .values()
                .filter(|v| !matches!(v.state(), VsnState::TornDown))
                .map(|v| (v.id, *v.state()))
                .collect(),
        )
    }

    /// The bootstrap model in use.
    pub fn bootstrap_model(&self) -> &BootstrapModel {
        &self.model
    }

    /// Host-side uid a VSN's processes bear.
    pub fn uid_of(vsn: VsnId) -> Uid {
        Uid(1000 + vsn.0 as u32)
    }

    /// Reserve a slice, assign an IP, configure isolation mechanisms and
    /// compute the bootstrap plan for a new VSN. All bookkeeping is
    /// rolled back on failure. The node's `priming_since` is `now`, the
    /// start of the Master's `master.priming` span.
    #[allow(clippy::too_many_arguments)]
    pub fn begin_priming(
        &mut self,
        vsn_id: VsnId,
        capacity_m: u32,
        slice: ResourceVector,
        image: &RootFsImage,
        required_services: &[&str],
        app_class: StartupClass,
        service_name: &str,
        now: SimTime,
    ) -> Result<PrimingTicket, PrimingError> {
        if self.vsns.contains_key(&vsn_id) {
            return Err(PrimingError::DuplicateVsn(vsn_id));
        }
        if self.host.failed {
            return Err(PrimingError::Resources(ResourceError::Insufficient {
                requested: slice,
                available: ResourceVector::ZERO,
            }));
        }
        let reservation = self.host.ledger.reserve(slice)?;
        let ip = match self.host.ip_pool.allocate() {
            Ok(ip) => ip,
            Err(e) => {
                let _ = self.host.ledger.release(reservation);
                return Err(e.into());
            }
        };
        // Bridge mapping: the pool guarantees uniqueness, so this cannot
        // conflict.
        self.host
            .bridge
            .map(ip, PortTag(vsn_id.0))
            .expect("pool-allocated address cannot already be bridged");
        let uid = Self::uid_of(vsn_id);
        self.host.mem.register(uid, slice.mem_mb);
        self.host
            .shaper
            .configure(ip.as_u32(), slice.bw_mbps as f64, SHAPER_BURST, now);

        let (tailored, timing) =
            self.model
                .timing(&self.host.profile, image, required_services, app_class);

        let mut vsn = VirtualServiceNode::allocated(vsn_id, uid, capacity_m, reservation);
        vsn.ip = Some(ip);
        vsn.start_priming()
            .expect("allocated -> priming is always legal");
        vsn.priming_since = Some(now);
        self.vsns.insert(vsn_id, vsn);
        self.blueprints.insert(
            vsn_id,
            Blueprint {
                hostname: service_name.to_string(),
                app_command: format!("{service_name}d"),
                kept_services: tailored.kept,
                timing,
            },
        );
        Ok(PrimingTicket {
            vsn: vsn_id,
            ip,
            download_bytes: image.total_bytes(),
            timing,
        })
    }

    /// Finish priming: boot the guest, spawn its processes, mark the
    /// node Running. Returns the node's IP (what the Daemon reports back
    /// to the Master).
    ///
    /// The Table 2 bootstrap stages are replayed into the observability
    /// layer retroactively — reconstructed backwards from `now` using the
    /// blueprint's timing — so instrumentation adds no engine events and
    /// the deterministic event order is untouched.
    pub fn complete_priming(
        &mut self,
        vsn_id: VsnId,
        now: SimTime,
    ) -> Result<Ipv4Addr, PrimingError> {
        if self.host.failed {
            return Err(PrimingError::HostDown(self.host.id));
        }
        let vsn = self
            .vsns
            .get_mut(&vsn_id)
            .ok_or(PrimingError::UnknownVsn(vsn_id))?;
        let bp = self
            .blueprints
            .get(&vsn_id)
            .ok_or(PrimingError::UnknownVsn(vsn_id))?;
        let uid = vsn.uid;
        let ip = vsn.ip.ok_or(PrimingError::NoAddress(vsn_id))?;
        let guest = GuestOs::boot(bp.hostname.clone(), uid, bp.kept_services.clone());
        guest.spawn_initial_processes(&mut self.host.processes, self.model.catalog().services());
        self.host.processes.spawn(uid, bp.app_command.clone());
        let timing = bp.timing;
        vsn.booted(guest, ip, now)?;
        self.replay_boot_phases(vsn_id, timing, now);
        Ok(ip)
    }

    /// Record the five bootstrap phases as timed events and
    /// `daemon.<phase>` spans, ending at `now` (when the boot finished).
    fn replay_boot_phases(&self, vsn_id: VsnId, timing: BootstrapTiming, now: SimTime) {
        if !self.obs.is_enabled() {
            return;
        }
        let host = self.host_label();
        // Walk the phase windows forward from when the boot began so the
        // events appear in execution order.
        let mut t = now - timing.total();
        for (phase, dur) in timing.phases() {
            let end = t + dur;
            self.obs.record(
                t,
                Event::BootPhaseEntered {
                    vsn: vsn_id.0,
                    host,
                    phase,
                },
            );
            self.obs.record(
                end,
                Event::BootPhaseCompleted {
                    vsn: vsn_id.0,
                    host,
                    phase,
                },
            );
            self.obs
                .span_record("daemon", phase, Labels::one("host", host), t, end);
            t = end;
        }
        self.obs
            .counter_add("daemon", "boots", Labels::one("host", host), 1);
    }

    /// Crash a running VSN (fault or successful attack): its processes
    /// die, its state flips to Crashed. The host OS, the other VSNs,
    /// their reservations and their traffic are untouched — this method
    /// deliberately has no access to anything but the one node.
    pub fn crash_vsn(&mut self, vsn_id: VsnId, now: SimTime) -> Result<(), PrimingError> {
        let vsn = self
            .vsns
            .get_mut(&vsn_id)
            .ok_or(PrimingError::UnknownVsn(vsn_id))?;
        vsn.crash()?;
        self.host.processes.kill_uid(vsn.uid);
        let host = u64::from(self.host.id.0);
        self.obs.record(
            now,
            Event::VsnCrash {
                vsn: vsn_id.0,
                host,
            },
        );
        self.obs
            .counter_add("daemon", "vsn_crashes", Labels::one("host", host), 1);
        Ok(())
    }

    /// Re-prime a crashed VSN from its stored blueprint (the image is
    /// already on local disk, so there is no download). Returns the
    /// bootstrap timing to schedule. A re-prime opens no
    /// `master.priming` span: `priming_since` stays `None`.
    pub fn begin_repriming(&mut self, vsn_id: VsnId) -> Result<BootstrapTiming, PrimingError> {
        if self.host.failed {
            return Err(PrimingError::HostDown(self.host.id));
        }
        let vsn = self
            .vsns
            .get_mut(&vsn_id)
            .ok_or(PrimingError::UnknownVsn(vsn_id))?;
        vsn.start_priming()?;
        let bp = self
            .blueprints
            .get(&vsn_id)
            .ok_or(PrimingError::UnknownVsn(vsn_id))?;
        Ok(bp.timing)
    }

    /// Tear a VSN down: kill its processes and release every resource
    /// the Daemon acquired for it.
    pub fn teardown_vsn(&mut self, vsn_id: VsnId) -> Result<(), PrimingError> {
        let vsn = self
            .vsns
            .get_mut(&vsn_id)
            .ok_or(PrimingError::UnknownVsn(vsn_id))?;
        vsn.teardown()?;
        let uid = vsn.uid;
        let reservation = vsn.reservation;
        let ip = vsn.ip;
        self.host.processes.kill_uid(uid);
        self.host.mem.unregister(uid);
        let _ = self.host.ledger.release(reservation);
        if let Some(ip) = ip {
            let _ = self.host.bridge.unmap(ip);
            let _ = self.host.ip_pool.release(ip);
            self.host.shaper.remove(ip.as_u32());
        }
        self.vsns.remove(&vsn_id);
        self.blueprints.remove(&vsn_id);
        Ok(())
    }

    /// Resize a VSN's slice in place (service resizing, §3.4): adjust
    /// ledger, memory cap and bandwidth share. Fails without side
    /// effects if the host lacks headroom.
    pub fn resize_vsn(
        &mut self,
        vsn_id: VsnId,
        new_capacity_m: u32,
        new_slice: ResourceVector,
        now: SimTime,
    ) -> Result<(), PrimingError> {
        let vsn = self
            .vsns
            .get_mut(&vsn_id)
            .ok_or(PrimingError::UnknownVsn(vsn_id))?;
        self.host.ledger.resize(vsn.reservation, new_slice)?;
        vsn.capacity = new_capacity_m.max(1);
        self.host.mem.register(vsn.uid, new_slice.mem_mb);
        if let Some(ip) = vsn.ip {
            self.host
                .shaper
                .configure(ip.as_u32(), new_slice.bw_mbps as f64, SHAPER_BURST, now);
        }
        Ok(())
    }

    /// Look up a VSN.
    pub fn vsn(&self, id: VsnId) -> Option<&VirtualServiceNode> {
        self.vsns.get(&id)
    }

    /// Mutable VSN access.
    pub fn vsn_mut(&mut self, id: VsnId) -> Option<&mut VirtualServiceNode> {
        self.vsns.get_mut(&id)
    }

    /// All VSNs on this host.
    pub fn vsns(&self) -> impl Iterator<Item = &VirtualServiceNode> {
        self.vsns.values()
    }

    /// Number of VSNs (any state) on this host.
    pub fn vsn_count(&self) -> usize {
        self.vsns.len()
    }
}

/// Locate the daemon managing `host` in a roster.
///
/// Rosters are assembled in ascending host-id order at world
/// construction and never reordered afterwards, so the common case is
/// one binary search over 100k hosts instead of a linear sweep per
/// node operation. An `Ok` probe is always a genuine hit (the probe
/// compared equal); only a miss can be spurious on an out-of-order
/// roster, so a miss falls back to the sweep.
pub fn daemon_for(daemons: &[SodaDaemon], host: HostId) -> Option<&SodaDaemon> {
    match daemons.binary_search_by_key(&host, |d| d.host.id) {
        Ok(i) => Some(&daemons[i]),
        Err(_) => daemons.iter().find(|d| d.host.id == host),
    }
}

/// [`daemon_for`], mutably.
pub fn daemon_for_mut(daemons: &mut [SodaDaemon], host: HostId) -> Option<&mut SodaDaemon> {
    match daemons.binary_search_by_key(&host, |d| d.host.id) {
        Ok(i) => Some(&mut daemons[i]),
        Err(_) => daemons.iter_mut().find(|d| d.host.id == host),
    }
}

impl fmt::Debug for SodaDaemon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SodaDaemon")
            .field("host", &self.host.name)
            .field("vsns", &self.vsns.len())
            .field("available", &self.report_resources())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostId;
    use soda_net::pool::IpPool;
    use soda_vmm::rootfs::RootFsCatalog;

    fn daemon() -> SodaDaemon {
        let pool = IpPool::new("128.10.9.125".parse().unwrap(), 4);
        SodaDaemon::new(HupHost::seattle(HostId(1), pool))
    }

    fn slice() -> ResourceVector {
        ResourceVector::TABLE1_EXAMPLE.inflate_for_slowdown(1.5)
    }

    fn prime(d: &mut SodaDaemon, id: u64) -> PrimingTicket {
        let img = RootFsCatalog::new().base_1_0();
        d.begin_priming(
            VsnId(id),
            1,
            slice(),
            &img,
            &["network", "syslogd"],
            StartupClass::Light,
            "web",
            SimTime::ZERO,
        )
        .unwrap()
    }

    #[test]
    fn priming_reserves_everything() {
        let mut d = daemon();
        let before = d.report_resources();
        let ticket = prime(&mut d, 1);
        assert_eq!(ticket.ip.to_string(), "128.10.9.125");
        assert_eq!(ticket.download_bytes, 29_300_000);
        assert!(ticket.timing.total() > SimDuration::from_secs(1));
        // Ledger charged, bridge mapped, shaper configured, memory capped.
        assert_eq!(d.report_resources(), before - slice());
        assert!(d.host.bridge.lookup(ticket.ip).is_some());
        assert!(d.host.shaper.is_shaped(ticket.ip.as_u32()));
        assert_eq!(
            d.host.mem.cap_of(SodaDaemon::uid_of(VsnId(1))),
            Some(slice().mem_mb)
        );
        assert_eq!(d.vsn(VsnId(1)).unwrap().state(), &VsnState::Priming);
        assert_eq!(d.vsn(VsnId(1)).unwrap().priming_since, Some(SimTime::ZERO));
    }

    #[test]
    fn complete_priming_boots_guest_and_processes() {
        let mut d = daemon();
        let t = prime(&mut d, 1);
        let ip = d.complete_priming(VsnId(1), SimTime::from_secs(5)).unwrap();
        assert_eq!(ip, t.ip);
        let vsn = d.vsn(VsnId(1)).unwrap();
        assert!(vsn.is_running());
        assert_eq!(vsn.priming_since, None);
        assert_eq!(vsn.running_since, Some(SimTime::from_secs(5)));
        // Guest kernel threads + services + the app daemon.
        let uid = SodaDaemon::uid_of(VsnId(1));
        let procs: Vec<_> = d.host.processes.ps_uid(uid).collect();
        assert!(procs.iter().any(|p| p.command == "webd"));
        assert!(procs.iter().any(|p| p.command == "[kswapd]"));
        assert!(procs.len() >= 5);
    }

    #[test]
    fn duplicate_vsn_rejected() {
        let mut d = daemon();
        prime(&mut d, 1);
        let img = RootFsCatalog::new().base_1_0();
        let err = d
            .begin_priming(
                VsnId(1),
                1,
                slice(),
                &img,
                &["network"],
                StartupClass::Light,
                "x",
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, PrimingError::DuplicateVsn(VsnId(1))));
    }

    #[test]
    fn failed_reservation_rolls_back() {
        let mut d = daemon();
        let huge = ResourceVector::new(999_999, 999_999, 999_999, 999_999);
        let img = RootFsCatalog::new().base_1_0();
        let before_free_ips = d.host.ip_pool.free();
        let err = d
            .begin_priming(
                VsnId(9),
                1,
                huge,
                &img,
                &["network"],
                StartupClass::Light,
                "x",
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, PrimingError::Resources(_)));
        assert_eq!(d.host.ip_pool.free(), before_free_ips);
        assert_eq!(d.vsn_count(), 0);
    }

    #[test]
    fn ip_exhaustion_rolls_back_reservation() {
        let mut d = daemon();
        // Exhaust the 4-address pool with slices tiny enough that the
        // ledger never runs out first.
        let img0 = RootFsCatalog::new().base_1_0();
        for i in 1..=4 {
            d.begin_priming(
                VsnId(i),
                1,
                ResourceVector::new(10, 10, 10, 1),
                &img0,
                &["network"],
                StartupClass::Light,
                "web",
                SimTime::ZERO,
            )
            .unwrap();
        }
        let img = RootFsCatalog::new().tomsrtbt();
        let reserved_before = d.host.ledger.reserved();
        let err = d
            .begin_priming(
                VsnId(5),
                1,
                ResourceVector::new(10, 10, 10, 1),
                &img,
                &["network"],
                StartupClass::Light,
                "x",
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, PrimingError::Pool(PoolError::Exhausted)));
        assert_eq!(d.host.ledger.reserved(), reserved_before);
    }

    #[test]
    fn crash_kills_only_that_vsns_processes() {
        let mut d = daemon();
        prime(&mut d, 1);
        prime(&mut d, 2);
        d.complete_priming(VsnId(1), SimTime::ZERO).unwrap();
        d.complete_priming(VsnId(2), SimTime::ZERO).unwrap();
        let uid1 = SodaDaemon::uid_of(VsnId(1));
        let uid2 = SodaDaemon::uid_of(VsnId(2));
        let n2_before = d.host.processes.count_uid(uid2);
        d.crash_vsn(VsnId(1), SimTime::ZERO).unwrap();
        // VSN 1 dead, VSN 2 untouched: attack isolation.
        assert_eq!(d.host.processes.count_uid(uid1), 0);
        assert_eq!(d.host.processes.count_uid(uid2), n2_before);
        assert_eq!(d.vsn(VsnId(1)).unwrap().state(), &VsnState::Crashed);
        assert!(d.vsn(VsnId(2)).unwrap().is_running());
        // Resources remain reserved for the crashed node.
        assert_eq!(d.host.ledger.reservation_count(), 2);
    }

    #[test]
    fn reprime_crashed_vsn() {
        let mut d = daemon();
        prime(&mut d, 1);
        d.complete_priming(VsnId(1), SimTime::ZERO).unwrap();
        d.crash_vsn(VsnId(1), SimTime::ZERO).unwrap();
        let timing = d.begin_repriming(VsnId(1)).unwrap();
        assert!(timing.total() > SimDuration::ZERO);
        // A re-prime is not a Master priming: no span start.
        assert_eq!(d.vsn(VsnId(1)).unwrap().priming_since, None);
        d.complete_priming(VsnId(1), SimTime::from_secs(60))
            .unwrap();
        assert!(d.vsn(VsnId(1)).unwrap().is_running());
        assert_eq!(d.vsn(VsnId(1)).unwrap().crash_count, 1);
    }

    #[test]
    fn teardown_releases_everything() {
        let mut d = daemon();
        let before = d.report_resources();
        let free_ips = d.host.ip_pool.free();
        let t = prime(&mut d, 1);
        d.complete_priming(VsnId(1), SimTime::ZERO).unwrap();
        d.teardown_vsn(VsnId(1)).unwrap();
        assert_eq!(d.report_resources(), before);
        assert_eq!(d.host.ip_pool.free(), free_ips);
        assert!(d.host.bridge.lookup(t.ip).is_none());
        assert!(!d.host.shaper.is_shaped(t.ip.as_u32()));
        assert_eq!(d.host.processes.count_uid(SodaDaemon::uid_of(VsnId(1))), 0);
        assert_eq!(d.vsn_count(), 0);
        // Tearing down again is an error.
        assert!(matches!(
            d.teardown_vsn(VsnId(1)),
            Err(PrimingError::UnknownVsn(_))
        ));
    }

    #[test]
    fn resize_adjusts_ledger_and_caps() {
        let mut d = daemon();
        prime(&mut d, 1);
        d.complete_priming(VsnId(1), SimTime::ZERO).unwrap();
        let doubled = slice() * 2;
        d.resize_vsn(VsnId(1), 2, doubled, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(d.vsn(VsnId(1)).unwrap().capacity, 2);
        assert_eq!(
            d.host.mem.cap_of(SodaDaemon::uid_of(VsnId(1))),
            Some(doubled.mem_mb)
        );
        assert_eq!(d.host.ledger.reserved(), doubled);
        // Oversized resize fails atomically.
        let huge = slice() * 100;
        assert!(d
            .resize_vsn(VsnId(1), 100, huge, SimTime::from_secs(2))
            .is_err());
        assert_eq!(d.vsn(VsnId(1)).unwrap().capacity, 2);
        assert_eq!(d.host.ledger.reserved(), doubled);
    }

    #[test]
    fn unknown_vsn_operations_fail() {
        let mut d = daemon();
        assert!(matches!(
            d.crash_vsn(VsnId(9), SimTime::ZERO),
            Err(PrimingError::UnknownVsn(_))
        ));
        assert!(matches!(
            d.complete_priming(VsnId(9), SimTime::ZERO),
            Err(PrimingError::UnknownVsn(_))
        ));
        assert!(matches!(
            d.begin_repriming(VsnId(9)),
            Err(PrimingError::UnknownVsn(_))
        ));
        assert!(d.vsn(VsnId(9)).is_none());
    }
}
