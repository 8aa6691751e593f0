//! The SODA Master.
//!
//! "SODA Master is a middleware-level entity coordinating the service
//! creation activities across the HUP. More specifically, SODA Master
//! determines the set of virtual service nodes for each service creation
//! request and coordinates the service priming process." (§2.2)
//!
//! The Master here is written *sans-IO* with respect to time: methods
//! perform all state changes immediately and return
//! [`PrimingTicket`]s whose durations the simulation driver schedules;
//! [`SodaMaster::node_ready`] is called back when a node's download +
//! bootstrap completes. `create_service_now` wraps the full cycle for
//! callers that don't need the temporal detail (unit tests, quickstart).

use std::collections::BTreeMap;

use soda_hostos::resources::ResourceVector;
use soda_hup::daemon::{PrimingTicket, SodaDaemon};
use soda_hup::host::HostId;
use soda_net::addr::Ipv4Addr;
use soda_sim::{Event, Labels, Obs, SimDuration, SimTime};
use soda_vmm::intercept::SlowdownFactors;
use soda_vmm::vsn::VsnId;

use crate::api::{CreationReply, NodeInfo};
use crate::error::SodaError;
use crate::journal::{MasterSnapshot, ServiceSnapshot};
use crate::placement::{BestFit, FirstFit, HeadroomIndex, NodePlan, PlacementPolicy, WorstFit};
use crate::service::{PlacedNode, ServiceId, ServiceRecord, ServiceSpec, ServiceState};
use crate::switch::ServiceSwitch;

/// What admission hands back: the new service id plus one priming ticket
/// per placed node, for the driver to schedule.
#[derive(Debug)]
pub struct AdmissionOutcome {
    /// The admitted service.
    pub service: ServiceId,
    /// `(host, ticket)` per node.
    pub tickets: Vec<(HostId, PrimingTicket)>,
}

/// Outcome of a resize: nodes whose capacity changed in place, plus
/// tickets for any newly added nodes.
#[derive(Debug)]
pub struct ResizeOutcome {
    /// Nodes resized in place as `(vsn, new_capacity)`.
    pub resized: Vec<(VsnId, u32)>,
    /// Nodes removed.
    pub removed: Vec<VsnId>,
    /// Newly placed nodes, still priming.
    pub tickets: Vec<(HostId, PrimingTicket)>,
}

/// What a migration needs from the caller before completion: ship the
/// checkpoint, wait out the replacement's bootstrap.
#[derive(Debug)]
pub struct MigrationOutcome {
    /// The service being migrated.
    pub service: ServiceId,
    /// The node being replaced.
    pub old_vsn: VsnId,
    /// The replacement node (priming on `target`).
    pub new_vsn: VsnId,
    /// Destination host.
    pub target: HostId,
    /// The replacement's priming ticket.
    pub ticket: PrimingTicket,
    /// Bytes of guest memory image to ship source → target.
    pub checkpoint_bytes: u64,
}

/// The nodes a plan began and their priming tickets, in plan order.
type BegunPlan = (Vec<PlacedNode>, Vec<(HostId, PrimingTicket)>);

/// `(host id, availability)` for each daemon, in roster order — what
/// placement reads.
fn roster(daemons: &[SodaDaemon]) -> Vec<(HostId, ResourceVector)> {
    daemons
        .iter()
        .map(|d| (d.host.id, d.report_resources()))
        .collect()
}

/// The HUP-wide coordinator.
pub struct SodaMaster {
    /// The admission index: a [`HeadroomIndex`] kept alive *between*
    /// admissions, so the admission hot path is O(plan log H) instead
    /// of rebuilding an O(H) roster snapshot per service (the dominant
    /// cost at 100k hosts × 500k admissions). Its positions are roster
    /// positions, so cached placement is decision-for-decision the
    /// uncached policy's.
    ///
    /// Coherence contract: the index is only reused while nothing
    /// outside `admit` has changed any host's availability. Every Master
    /// method that reserves, releases or resizes a slice drops it, and
    /// the world drops every Master's index on host failure/repair and
    /// on direct daemon teardowns
    /// ([`SodaMaster::invalidate_admission_index`]). Debug builds
    /// re-verify it against the live roster on every cached admission,
    /// so the test suite enforces the contract.
    admission_index: Option<HeadroomIndex>,
    placement: Box<dyn PlacementPolicy>,
    /// Slow-down inflation applied to `M` at admission (footnote 2;
    /// default 1.5).
    pub slowdown_inflation: f64,
    services: BTreeMap<ServiceId, ServiceRecord>,
    switches: BTreeMap<ServiceId, ServiceSwitch>,
    next_service: u64,
    next_vsn: u64,
    /// First id this Master may issue (its shard lane's residue).
    id_base: u64,
    /// Distance between consecutive ids this Master issues. A sharded
    /// control plane gives cell `k` of `n` the lane `base = k + 1`,
    /// `stride = n`, so ids are globally unique without coordination
    /// and `(id - 1) % n` recovers the owning shard. A one-cell plane
    /// keeps the default `base = stride = 1`.
    id_stride: u64,
    obs: Obs,
}

impl Default for SodaMaster {
    fn default() -> Self {
        Self::new()
    }
}

impl SodaMaster {
    /// A Master with the default worst-fit (load-spreading) placement
    /// and the paper's conservative 1.5× inflation.
    pub fn new() -> Self {
        SodaMaster {
            admission_index: None,
            placement: Box::new(WorstFit),
            slowdown_inflation: SlowdownFactors::CONSERVATIVE.cpu,
            services: BTreeMap::new(),
            switches: BTreeMap::new(),
            next_service: 1,
            next_vsn: 1,
            id_base: 1,
            id_stride: 1,
            obs: Obs::disabled(),
        }
    }

    /// Attach an observability handle. Existing switches pick it up too,
    /// so `set_obs` can be called after services are already running.
    pub fn set_obs(&mut self, obs: Obs) {
        for sw in self.switches.values_mut() {
            sw.set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// The Master's observability handle (disabled unless
    /// [`SodaMaster::set_obs`] was given an enabled one).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Replace the placement policy (the placement ablation experiment).
    pub fn set_placement(&mut self, p: Box<dyn PlacementPolicy>) {
        self.admission_index = None;
        self.placement = p;
    }

    /// Drop the incremental admission index. Must be called by any code
    /// that changes a host's availability behind the Master's back (host
    /// failure/repair, direct daemon teardowns); the next admission
    /// rebuilds from live daemon reports.
    pub fn invalidate_admission_index(&mut self) {
        self.admission_index = None;
    }

    /// The placement policy's name.
    pub fn placement_name(&self) -> &'static str {
        self.placement.name()
    }

    /// `(next_service, next_vsn)` — journaled with every entry so a
    /// standby rebuilt from the log never re-issues a used id.
    pub(crate) fn id_counters(&self) -> (u64, u64) {
        (self.next_service, self.next_vsn)
    }

    /// Confine this Master to the id lane `base + k*stride` (`base >=
    /// 1`, `stride >= 1`). Must be set before the Master issues any id;
    /// calling it later would orphan already-issued ids, so it resets
    /// the counters to the lane start.
    pub fn set_id_lane(&mut self, base: u64, stride: u64) {
        self.id_base = base.max(1);
        self.id_stride = stride.max(1);
        self.next_service = self.id_base;
        self.next_vsn = self.id_base;
    }

    /// Capture the Master's durable control state (service records,
    /// id counters, placement name) under `epoch`. Switch routing
    /// tables are deliberately absent: the switches survive a Master
    /// crash as separate processes. Host availability is never the
    /// Master's to keep — placement reads the daemons it is handed.
    pub fn snapshot(&self, epoch: u64) -> MasterSnapshot {
        MasterSnapshot {
            epoch,
            next_service: self.next_service,
            next_vsn: self.next_vsn,
            slowdown_inflation: self.slowdown_inflation,
            placement: self.placement.name().to_string(),
            services: self
                .services
                .values()
                .map(ServiceSnapshot::capture)
                .collect(),
        }
    }

    /// Fail-stop crash of the Master process: every record it held in
    /// memory is gone. The per-service switches are colocated but
    /// separate data-plane processes — they keep routing and are later
    /// transplanted into the standby, so they are NOT touched here.
    pub(crate) fn crash_control(&mut self) {
        self.services.clear();
        self.admission_index = None;
        self.next_service = self.id_base;
        self.next_vsn = self.id_base;
    }

    /// Standby rebuild from checkpoint ⊕ journal replay: install the
    /// replayed records and counters over whatever the crash left.
    /// Returns how many records were restored.
    pub(crate) fn restore_control(&mut self, snap: &MasterSnapshot) -> usize {
        self.services.clear();
        self.admission_index = None;
        let mut restored = 0;
        for s in &snap.services {
            if let Some(rec) = s.restore() {
                self.services.insert(rec.id, rec);
                restored += 1;
            }
        }
        self.next_service = snap.next_service.max(self.id_base);
        self.next_vsn = snap.next_vsn.max(self.id_base);
        self.slowdown_inflation = snap.slowdown_inflation;
        match snap.placement.as_str() {
            "first-fit" => self.placement = Box::new(FirstFit),
            "best-fit" => self.placement = Box::new(BestFit),
            "worst-fit" => self.placement = Box::new(WorstFit),
            _ => {}
        }
        restored
    }

    /// The per-instance slice actually reserved: `M` with CPU and
    /// bandwidth inflated for the guest-OS slow-down.
    pub fn inflated_machine(&self, m: &ResourceVector) -> ResourceVector {
        m.inflate_for_slowdown(self.slowdown_inflation)
    }

    /// Admission + placement + begin priming on every chosen daemon. An
    /// admission counts as accepted — service id drawn, decision and
    /// placement recorded — only once every node has begun priming; a
    /// plan that fails in priming is a rejection like any other.
    pub fn admit(
        &mut self,
        spec: ServiceSpec,
        asp: &str,
        daemons: &mut [SodaDaemon],
        now: SimTime,
    ) -> Result<AdmissionOutcome, SodaError> {
        if spec.instances == 0 {
            self.record_rejection(0, now);
            return Err(SodaError::BadRequest(
                "instance count n must be positive".into(),
            ));
        }
        let m_infl = self.inflated_machine(&spec.machine);
        let Some(plan) = self.place_for_admission(spec.instances, &m_infl, daemons) else {
            // Rejection: the index (if any) was consumed mid-placement.
            self.admission_index = None;
            self.record_rejection(spec.instances, now);
            let available = daemons
                .iter()
                .fold(ResourceVector::ZERO, |acc, d| acc + d.report_resources());
            return Err(SodaError::AdmissionRejected {
                requested: m_infl * spec.instances,
                available,
            });
        };
        let begun = Self::begin_plan(
            &mut self.next_vsn,
            self.id_stride,
            &plan,
            &spec,
            &m_infl,
            daemons,
            now,
        );
        let (nodes, tickets) = match begun {
            Ok(begun) => begun,
            Err(e) => {
                // The index debited the whole plan.
                self.admission_index = None;
                self.record_rejection(spec.instances, now);
                return Err(e);
            }
        };
        let service = ServiceId(self.next_service);
        self.next_service += self.id_stride;
        if self.obs.is_enabled() {
            self.obs.record(
                now,
                Event::AdmissionDecision {
                    service: service.0,
                    accepted: true,
                    instances: spec.instances,
                },
            );
            self.obs.record(
                now,
                Event::PlacementDecision {
                    service: service.0,
                    nodes: plan.len() as u32,
                },
            );
            self.obs
                .counter_add("master", "admission_accepted", Labels::none(), 1);
            // Admission + placement happen atomically in virtual time; a
            // zero-width span still counts the operation in the
            // `master.admission` histogram.
            self.obs.span_record(
                "master",
                "admission",
                Labels::one("service", service.0),
                now,
                now,
            );
        }
        self.services.insert(
            service,
            ServiceRecord {
                id: service,
                spec,
                asp: asp.to_string(),
                state: ServiceState::Creating,
                nodes,
                nodes_ready: 0,
            },
        );
        Ok(AdmissionOutcome { service, tickets })
    }

    /// Records one refused admission: its decision event (no service id
    /// was drawn for it) and the `master.admission_rejected` counter.
    fn record_rejection(&self, instances: u32, now: SimTime) {
        self.obs.record(
            now,
            Event::AdmissionDecision {
                service: 0,
                accepted: false,
                instances,
            },
        );
        self.obs
            .counter_add("master", "admission_rejected", Labels::none(), 1);
    }

    /// Begins a node's life on every host of `plan`: draws each node's
    /// VSN id from the lane `next_vsn`/`stride` and begins its priming
    /// with a slice of `m_infl` per instance. Returns the placed nodes
    /// and their tickets in plan order. On error every node this call
    /// began is torn down again, so a failed plan leaves no slice,
    /// address or VSN behind; the ids it drew stay drawn.
    fn begin_plan(
        next_vsn: &mut u64,
        stride: u64,
        plan: &[NodePlan],
        spec: &ServiceSpec,
        m_infl: &ResourceVector,
        daemons: &mut [SodaDaemon],
        now: SimTime,
    ) -> Result<BegunPlan, SodaError> {
        let mut nodes: Vec<PlacedNode> = Vec::with_capacity(plan.len());
        let mut tickets = Vec::with_capacity(plan.len());
        for p in plan {
            let vsn = VsnId(*next_vsn);
            *next_vsn += stride;
            let begun = soda_hup::daemon::daemon_for_mut(daemons, p.host)
                .expect("plans only name reported hosts")
                .begin_priming(
                    vsn,
                    p.instances,
                    *m_infl * p.instances,
                    &spec.image,
                    &spec.required_services,
                    spec.app_class,
                    &spec.name,
                    now,
                );
            match begun {
                Ok(ticket) => {
                    nodes.push(PlacedNode {
                        host: p.host,
                        vsn,
                        capacity: p.instances,
                    });
                    tickets.push((p.host, ticket));
                }
                Err(e) => {
                    for n in &nodes {
                        if let Some(d) = soda_hup::daemon::daemon_for_mut(daemons, n.host) {
                            let _ = d.teardown_vsn(n.vsn);
                        }
                    }
                    return Err(e.into());
                }
            }
        }
        Ok((nodes, tickets))
    }

    /// Place `n` instances of `m_infl` for admission. Headroom policies
    /// (worst/best-fit) are served from the persistent admission index,
    /// rebuilt from the roster when it does not describe `daemons`; other
    /// policies place over a fresh roster snapshot. `None` means the
    /// demand cannot be placed.
    fn place_for_admission(
        &mut self,
        n: u32,
        m_infl: &ResourceVector,
        daemons: &[SodaDaemon],
    ) -> Option<Vec<NodePlan>> {
        let Some(prefer_most) = self.placement.headroom_preference() else {
            return self.placement.place(n, m_infl, &roster(daemons));
        };
        if !self.admission_index_reusable(m_infl, daemons) {
            self.admission_index = Some(HeadroomIndex::new(*m_infl, roster(daemons)));
        }
        #[cfg(debug_assertions)]
        self.assert_admission_index_coherent(daemons);
        self.admission_index
            .as_mut()
            .expect("reused or rebuilt above")
            .place(n, prefer_most)
    }

    /// Cheap O(1) test that the cached index still describes `daemons`:
    /// same machine slice and same roster shape. Content freshness is the
    /// invalidation contract's job
    /// ([`SodaMaster::invalidate_admission_index`]), not this check's.
    fn admission_index_reusable(&self, m_infl: &ResourceVector, daemons: &[SodaDaemon]) -> bool {
        self.admission_index.as_ref().is_some_and(|c| {
            c.m == *m_infl
                && c.avail.len() == daemons.len()
                && c.avail.first().map(|&(h, _)| h) == daemons.first().map(|d| d.host.id)
                && c.avail.last().map(|&(h, _)| h) == daemons.last().map(|d| d.host.id)
        })
    }

    /// Debug-build coherence check: the cached mirror must equal the
    /// live roster entry for entry — an availability change that
    /// bypassed [`SodaMaster::invalidate_admission_index`] trips this on
    /// the next admission, so the whole debug test suite enforces the
    /// invalidation contract.
    #[cfg(debug_assertions)]
    fn assert_admission_index_coherent(&self, daemons: &[SodaDaemon]) {
        let c = self.admission_index.as_ref().expect("cache present");
        assert_eq!(c.avail.len(), daemons.len());
        for (i, d) in daemons.iter().enumerate() {
            assert_eq!(c.avail[i].0, d.host.id, "roster misaligned at position {i}");
            assert_eq!(
                c.avail[i].1,
                d.report_resources(),
                "admission index stale for host {:?} — an availability mutation bypassed \
                 invalidate_admission_index",
                d.host.id
            );
            let k = c.avail[i].1.instances_of(&c.m);
            assert_eq!(
                c.index.contains(&(k, i)),
                k > 0,
                "headroom index entry wrong for position {i}"
            );
        }
    }

    /// Boots `vsn` on its Daemon and closes the node's `master.priming`
    /// span. A re-primed node carries no `priming_since` and records
    /// nothing.
    fn complete_priming(
        obs: &Obs,
        daemon: &mut SodaDaemon,
        vsn: VsnId,
        now: SimTime,
    ) -> Result<Ipv4Addr, SodaError> {
        let since = daemon.vsn(vsn).and_then(|v| v.priming_since);
        let ip = daemon.complete_priming(vsn, now)?;
        if let Some(since) = since {
            obs.span_record("master", "priming", Labels::none(), since, now);
        }
        Ok(ip)
    }

    /// Called when one node's download + bootstrap has completed. A node
    /// of a service that already has a switch (resize growth, a
    /// recovery replacement) joins it and the service goes Running.
    /// Otherwise the node counts toward creation: when the last one
    /// reports, the Master creates the service switch and the service
    /// goes Running; the returned reply is what the Agent sends to the
    /// ASP. A failure is recorded as `MasterOpFailed` under the op the
    /// boot stood for, `node_ready` or `resize_node_ready`.
    pub fn node_ready(
        &mut self,
        service: ServiceId,
        vsn: VsnId,
        daemons: &mut [SodaDaemon],
        now: SimTime,
        creation_time: SimDuration,
    ) -> Result<Option<CreationReply>, SodaError> {
        let joins = self.switches.contains_key(&service);
        let booted = self.boot_node(service, vsn, daemons, now, creation_time);
        if booted.is_err() {
            self.obs.record(
                now,
                Event::MasterOpFailed {
                    service: service.0,
                    vsn: vsn.0,
                    op: if joins {
                        "resize_node_ready"
                    } else {
                        "node_ready"
                    },
                },
            );
        }
        booted
    }

    /// The boot itself; [`SodaMaster::node_ready`] records its failure.
    fn boot_node(
        &mut self,
        service: ServiceId,
        vsn: VsnId,
        daemons: &mut [SodaDaemon],
        now: SimTime,
        creation_time: SimDuration,
    ) -> Result<Option<CreationReply>, SodaError> {
        let rec = self
            .services
            .get_mut(&service)
            .ok_or(SodaError::UnknownService(service))?;
        let placed = *rec.node(vsn).ok_or(SodaError::UnknownVsn(vsn))?;
        let daemon = soda_hup::daemon::daemon_for_mut(daemons, placed.host)
            .ok_or(SodaError::UnknownVsn(vsn))?;
        let ip = Self::complete_priming(&self.obs, daemon, vsn, now)?;
        if let Some(sw) = self.switches.get_mut(&service) {
            rec.state = ServiceState::Running;
            sw.add_backend(vsn, ip, rec.spec.port, placed.capacity);
            return Ok(None);
        }
        rec.nodes_ready += 1;
        if rec.nodes_ready < rec.nodes.len() {
            return Ok(None);
        }
        self.finish_creation(service, daemons, now, creation_time)
            .map(Some)
    }

    /// All surviving nodes are up: build the switch (colocated in the
    /// first node) and mark the service Running. Nodes whose daemon or
    /// IP cannot be resolved (a host died in the creation window) are
    /// skipped with a `MasterOpFailed` event instead of panicking.
    fn finish_creation(
        &mut self,
        service: ServiceId,
        daemons: &[SodaDaemon],
        now: SimTime,
        creation_time: SimDuration,
    ) -> Result<CreationReply, SodaError> {
        let rec = self
            .services
            .get_mut(&service)
            .ok_or(SodaError::UnknownService(service))?;
        let port = rec.spec.port;
        let mut infos = Vec::with_capacity(rec.nodes.len());
        let mut backends = Vec::with_capacity(rec.nodes.len());
        for n in &rec.nodes {
            let resolved = soda_hup::daemon::daemon_for(daemons, n.host)
                .and_then(|d| d.vsn(n.vsn))
                .and_then(|v| v.ip);
            let Some(ip) = resolved else {
                self.obs.record(
                    now,
                    Event::MasterOpFailed {
                        service: service.0,
                        vsn: n.vsn.0,
                        op: "switch_backend",
                    },
                );
                continue;
            };
            backends.push((n.vsn, ip, n.capacity));
            infos.push(NodeInfo {
                ip,
                port,
                capacity: n.capacity,
            });
        }
        let Some(&switch_endpoint) = infos.first() else {
            return Err(SodaError::InvalidState {
                service,
                attempted: "switch_creation",
            });
        };
        rec.state = ServiceState::Running;
        let first = backends[0].0;
        let mut switch = ServiceSwitch::new(service, first);
        switch.set_obs(self.obs.clone());
        for (vsn, ip, capacity) in backends {
            switch.add_backend(vsn, ip, port, capacity);
        }
        if self.obs.is_enabled() {
            self.obs.record(
                now,
                Event::SwitchCreated {
                    service: service.0,
                    backends: switch.backends().len() as u32,
                },
            );
            // The switch materializes as soon as the last node reports —
            // a zero-width `master.switch_creation` span counts it.
            self.obs.span_record(
                "master",
                "switch_creation",
                Labels::one("service", service.0),
                now,
                now,
            );
        }
        self.switches.insert(service, switch);
        Ok(CreationReply {
            service,
            nodes: infos,
            switch_endpoint,
            creation_time,
        })
    }

    /// Full creation with zero simulated latency — for tests, examples
    /// and callers that only need the end state. The reported
    /// `creation_time` is the slowest node's bootstrap total (download
    /// excluded: no link is involved here).
    pub fn create_service_now(
        &mut self,
        spec: ServiceSpec,
        asp: &str,
        daemons: &mut [SodaDaemon],
        now: SimTime,
    ) -> Result<CreationReply, SodaError> {
        let outcome = self.admit(spec, asp, daemons, now)?;
        let worst = outcome
            .tickets
            .iter()
            .map(|(_, t)| t.timing.total())
            .max()
            .unwrap_or(SimDuration::ZERO);
        let mut reply = None;
        for (_, ticket) in &outcome.tickets {
            reply = self.node_ready(outcome.service, ticket.vsn, daemons, now, worst)?;
        }
        Ok(reply.expect("last node_ready yields the reply"))
    }

    /// Tear a service down: every node released, the switch destroyed.
    pub fn teardown(
        &mut self,
        service: ServiceId,
        daemons: &mut [SodaDaemon],
    ) -> Result<(), SodaError> {
        self.admission_index = None;
        let rec = self
            .services
            .get_mut(&service)
            .ok_or(SodaError::UnknownService(service))?;
        if rec.state == ServiceState::TornDown {
            return Err(SodaError::InvalidState {
                service,
                attempted: "teardown",
            });
        }
        for n in rec.nodes.clone() {
            if let Some(d) = soda_hup::daemon::daemon_for_mut(daemons, n.host) {
                let _ = d.teardown_vsn(n.vsn);
            }
        }
        rec.state = ServiceState::TornDown;
        rec.nodes.clear();
        self.switches.remove(&service);
        Ok(())
    }

    /// Resize to `<n_new, M>` (§3.4): "the SODA Master will either
    /// adjust the resources in the current virtual service nodes, or
    /// add/remove virtual service node(s). In either case, the service
    /// configuration file will be updated."
    ///
    /// Strategy: shrink removes capacity node-by-node from the end
    /// (tearing down emptied nodes); growth first tries to widen
    /// existing nodes in place, then places new nodes for the remainder.
    pub fn resize(
        &mut self,
        service: ServiceId,
        new_instances: u32,
        daemons: &mut [SodaDaemon],
        now: SimTime,
    ) -> Result<ResizeOutcome, SodaError> {
        self.admission_index = None;
        if new_instances == 0 {
            return Err(SodaError::BadRequest("n_new must be positive".into()));
        }
        let rec = self
            .services
            .get(&service)
            .ok_or(SodaError::UnknownService(service))?;
        if rec.state != ServiceState::Running {
            return Err(SodaError::InvalidState {
                service,
                attempted: "resize",
            });
        }
        let current = rec.placed_capacity();
        let m_infl = self.inflated_machine(&rec.spec.machine);
        let mut outcome = ResizeOutcome {
            resized: Vec::new(),
            removed: Vec::new(),
            tickets: Vec::new(),
        };
        if new_instances == current {
            return Ok(outcome);
        }

        if new_instances < current {
            let mut to_shed = current - new_instances;
            let rec = self.services.get_mut(&service).expect("checked");
            let mut keep = Vec::new();
            // Shed from the last-placed node backwards: drop whole nodes
            // while they fit in the deficit, then narrow one node.
            for mut n in rec.nodes.clone().into_iter().rev() {
                if to_shed >= n.capacity {
                    to_shed -= n.capacity;
                    if let Some(d) = soda_hup::daemon::daemon_for_mut(daemons, n.host) {
                        d.teardown_vsn(n.vsn)?;
                    }
                    outcome.removed.push(n.vsn);
                    continue;
                }
                if to_shed > 0 {
                    let new_cap = n.capacity - to_shed;
                    to_shed = 0;
                    if let Some(d) = soda_hup::daemon::daemon_for_mut(daemons, n.host) {
                        d.resize_vsn(n.vsn, new_cap, m_infl * new_cap, now)?;
                    }
                    n.capacity = new_cap;
                    outcome.resized.push((n.vsn, new_cap));
                }
                keep.push(n);
            }
            keep.reverse();
            rec.nodes = keep;
            // Update the switch + config file.
            if let Some(sw) = self.switches.get_mut(&service) {
                for &vsn in &outcome.removed {
                    sw.remove_backend(vsn);
                }
                for &(vsn, cap) in &outcome.resized {
                    sw.set_capacity(vsn, cap);
                }
            }
            for &vsn in &outcome.removed {
                self.record_step(now, service, vsn, "shrink");
            }
            for &(vsn, _) in &outcome.resized {
                self.record_step(now, service, vsn, "deflate");
            }
            return Ok(outcome);
        }

        // Growth: widen existing nodes where the host has headroom, then
        // place fresh nodes for any remainder. Any failure rolls the
        // in-place growth back, so a failed resize changes nothing.
        let rec = &self.services[&service];
        let mut to_add = new_instances - current;
        let mut begun = Ok((Vec::new(), Vec::new()));
        for n in &rec.nodes {
            if to_add == 0 {
                break;
            }
            let Some(d) = soda_hup::daemon::daemon_for_mut(daemons, n.host) else {
                continue;
            };
            let headroom = d.report_resources().instances_of(&m_infl);
            if headroom == 0 {
                continue;
            }
            let grow_by = headroom.min(to_add);
            let new_cap = n.capacity + grow_by;
            if let Err(e) = d.resize_vsn(n.vsn, new_cap, m_infl * new_cap, now) {
                begun = Err(e.into());
                break;
            }
            to_add -= grow_by;
            outcome.resized.push((n.vsn, new_cap));
        }
        if begun.is_ok() && to_add > 0 {
            let mut hosts = roster(daemons);
            hosts.retain(|(id, _)| rec.nodes.iter().all(|n| n.host != *id));
            begun = match self.placement.place(to_add, &m_infl, &hosts) {
                Some(plan) => Self::begin_plan(
                    &mut self.next_vsn,
                    self.id_stride,
                    &plan,
                    &rec.spec,
                    &m_infl,
                    daemons,
                    now,
                ),
                None => Err(SodaError::AdmissionRejected {
                    requested: m_infl * to_add,
                    available: hosts
                        .iter()
                        .fold(ResourceVector::ZERO, |acc, &(_, a)| acc + a),
                }),
            };
        }
        let (nodes, tickets) = match begun {
            Ok(begun) => begun,
            Err(e) => {
                for &(vsn, _) in &outcome.resized {
                    let n = rec.node(vsn).expect("widened above");
                    if let Some(d) = soda_hup::daemon::daemon_for_mut(daemons, n.host) {
                        let _ = d.resize_vsn(vsn, n.capacity, m_infl * n.capacity, now);
                    }
                }
                return Err(e);
            }
        };
        for n in &nodes {
            self.record_step(now, service, n.vsn, "grow");
        }
        let rec = self.services.get_mut(&service).expect("checked");
        if to_add > 0 {
            rec.nodes.extend(nodes);
            rec.state = ServiceState::Resizing;
        }
        outcome.tickets = tickets;
        // Apply in-place growth to the switch immediately.
        for n in &mut rec.nodes {
            if let Some(&(_, cap)) = outcome.resized.iter().find(|&&(v, _)| v == n.vsn) {
                n.capacity = cap;
            }
        }
        if let Some(sw) = self.switches.get_mut(&service) {
            for &(vsn, cap) in &outcome.resized {
                sw.set_capacity(vsn, cap);
            }
        }
        for &(vsn, _) in &outcome.resized {
            self.record_step(now, service, vsn, "inflate");
        }
        Ok(outcome)
    }

    /// Migrate one node to another host (make-before-break): prime a
    /// replacement node on `target`, transfer the checkpoint, cut the
    /// switch over, then release the old slice. The old node keeps
    /// serving until the replacement is up, so a healthy migration drops
    /// nothing.
    ///
    /// Returns the replacement ticket plus the checkpoint size; the
    /// caller accounts `checkpoint_bytes / LAN` of transfer time before
    /// calling [`SodaMaster::complete_migration`].
    pub fn migrate(
        &mut self,
        service: ServiceId,
        vsn: VsnId,
        target: HostId,
        daemons: &mut [SodaDaemon],
        now: SimTime,
    ) -> Result<MigrationOutcome, SodaError> {
        self.admission_index = None;
        let rec = self
            .services
            .get(&service)
            .ok_or(SodaError::UnknownService(service))?;
        if rec.state != ServiceState::Running {
            return Err(SodaError::InvalidState {
                service,
                attempted: "migrate",
            });
        }
        let placed = *rec.node(vsn).ok_or(SodaError::UnknownVsn(vsn))?;
        if placed.host == target {
            return Err(SodaError::BadRequest("target equals source host".into()));
        }
        if rec.nodes.iter().any(|n| n.host == target) {
            return Err(SodaError::BadRequest(
                "service already has a node on the target host".into(),
            ));
        }
        if soda_hup::daemon::daemon_for(daemons, target).is_none() {
            return Err(SodaError::BadRequest(format!("unknown host {target}")));
        }
        let m_infl = self.inflated_machine(&rec.spec.machine);
        let plan = [NodePlan {
            host: target,
            instances: placed.capacity,
        }];
        let (_, mut tickets) = Self::begin_plan(
            &mut self.next_vsn,
            self.id_stride,
            &plan,
            &rec.spec,
            &m_infl,
            daemons,
            now,
        )?;
        let (_, ticket) = tickets.pop().expect("one-node plan");
        // The checkpoint is the guest's memory image (its `mem=` cap).
        let checkpoint_bytes = u64::from((m_infl * placed.capacity).mem_mb) * 1_000_000;
        Ok(MigrationOutcome {
            service,
            old_vsn: vsn,
            new_vsn: ticket.vsn,
            target,
            ticket,
            checkpoint_bytes,
        })
    }

    /// Finish a migration: bring the replacement up, cut the switch
    /// over, tear the old node down.
    pub fn complete_migration(
        &mut self,
        outcome: &MigrationOutcome,
        daemons: &mut [SodaDaemon],
        now: SimTime,
    ) -> Result<(), SodaError> {
        self.admission_index = None;
        let service = outcome.service;
        let rec = self
            .services
            .get_mut(&service)
            .ok_or(SodaError::UnknownService(service))?;
        let old = *rec
            .node(outcome.old_vsn)
            .ok_or(SodaError::UnknownVsn(outcome.old_vsn))?;
        let target_daemon = soda_hup::daemon::daemon_for_mut(daemons, outcome.target)
            .ok_or(SodaError::UnknownVsn(outcome.new_vsn))?;
        let new_ip = Self::complete_priming(&self.obs, target_daemon, outcome.new_vsn, now)?;
        // Switch cut-over.
        let port = rec.spec.port;
        if let Some(sw) = self.switches.get_mut(&service) {
            sw.add_backend(outcome.new_vsn, new_ip, port, old.capacity);
            sw.remove_backend(outcome.old_vsn);
        }
        // Record update + old slice release.
        if let Some(n) = rec.nodes.iter_mut().find(|n| n.vsn == outcome.old_vsn) {
            n.vsn = outcome.new_vsn;
            n.host = outcome.target;
        }
        if let Some(d) = soda_hup::daemon::daemon_for_mut(daemons, old.host) {
            d.teardown_vsn(outcome.old_vsn)?;
        }
        Ok(())
    }

    /// A whole host failed: mark every affected backend down. Returns
    /// the affected `(service, vsn, capacity)` triples so the driver can
    /// decide what to recover. (The Daemons' `fail_host` is called by
    /// the driver; this is the Master-side bookkeeping.)
    pub fn host_failed(&mut self, host: HostId) -> Vec<(ServiceId, VsnId, u32)> {
        let affected: Vec<(ServiceId, VsnId, u32)> = self
            .services
            .values()
            .filter(|rec| rec.state != ServiceState::TornDown)
            .flat_map(|rec| {
                rec.nodes
                    .iter()
                    .filter(|n| n.host == host)
                    .map(move |n| (rec.id, n.vsn, n.capacity))
            })
            .collect();
        for &(svc, vsn, _) in &affected {
            if let Some(sw) = self.switches.get_mut(&svc) {
                sw.set_health(vsn, false);
            }
        }
        affected
    }

    /// A node crashed: mark it down in the switch (the service record
    /// keeps the node; a re-prime can bring it back).
    pub fn node_crashed(&mut self, service: ServiceId, vsn: VsnId) {
        if let Some(sw) = self.switches.get_mut(&service) {
            sw.set_health(vsn, false);
        }
    }

    /// A crashed node recovered.
    pub fn node_recovered(&mut self, service: ServiceId, vsn: VsnId) {
        if let Some(sw) = self.switches.get_mut(&service) {
            sw.set_health(vsn, true);
        }
    }

    /// Capacity currently healthy in the service's switch (machine
    /// instances actually in rotation). Zero before the switch exists.
    pub fn healthy_capacity(&self, service: ServiceId) -> u32 {
        self.switches
            .get(&service)
            .map_or(0, |sw| sw.healthy_capacity())
    }

    /// Place `capacity` replacement instances for `service` on a host
    /// that does not already carry it, and begin priming there. This
    /// does not touch any existing node: the dead node stays in the record (and drained in the
    /// switch) until the caller commits via [`SodaMaster::remove_node`],
    /// so a false-positive detection can still be rolled back. The new
    /// node joins the switch via [`SodaMaster::node_ready`].
    pub fn place_recovery_node(
        &mut self,
        service: ServiceId,
        capacity: u32,
        avoid: &[HostId],
        daemons: &mut [SodaDaemon],
        now: SimTime,
    ) -> Result<(HostId, PrimingTicket), SodaError> {
        self.admission_index = None;
        if capacity == 0 {
            return Err(SodaError::BadRequest("capacity must be positive".into()));
        }
        let rec = self
            .services
            .get(&service)
            .ok_or(SodaError::UnknownService(service))?;
        if rec.state == ServiceState::TornDown {
            return Err(SodaError::InvalidState {
                service,
                attempted: "recovery_placement",
            });
        }
        let m_infl = self.inflated_machine(&rec.spec.machine);
        let was_running = rec.state == ServiceState::Running;
        // Prefer a host not already carrying the service (fault
        // diversity); when the platform has no such slice, co-locating
        // on a live carrying host still restores capacity.
        let colocated: Vec<(HostId, ResourceVector)> = daemons
            .iter()
            .filter(|d| !d.is_failed() && !avoid.contains(&d.host.id))
            .map(|d| (d.host.id, d.report_resources()))
            .collect();
        let spread: Vec<(HostId, ResourceVector)> = colocated
            .iter()
            .copied()
            .filter(|(id, _)| rec.nodes.iter().all(|n| n.host != *id))
            .collect();
        let plan = self
            .placement
            .place(capacity, &m_infl, &spread)
            .filter(|p| p.len() == 1)
            .or_else(|| {
                self.placement
                    .place(capacity, &m_infl, &colocated)
                    .filter(|p| p.len() == 1)
            })
            .ok_or_else(|| {
                let available = colocated
                    .iter()
                    .fold(ResourceVector::ZERO, |acc, &(_, a)| acc + a);
                SodaError::AdmissionRejected {
                    requested: m_infl * capacity,
                    available,
                }
            })?;
        let (nodes, mut tickets) = Self::begin_plan(
            &mut self.next_vsn,
            self.id_stride,
            &plan,
            &rec.spec,
            &m_infl,
            daemons,
            now,
        )?;
        let rec = self.services.get_mut(&service).expect("checked");
        rec.nodes.extend(nodes);
        if was_running {
            rec.state = ServiceState::Resizing; // back to Running at node_ready
        }
        let (target, ticket) = tickets.pop().expect("one-node plan");
        self.record_step(now, service, ticket.vsn, "grow");
        Ok((target, ticket))
    }

    /// Records one `ResizeStep` (`action` on `service`'s node `vsn`).
    fn record_step(&self, now: SimTime, service: ServiceId, vsn: VsnId, action: &'static str) {
        self.obs.record(
            now,
            Event::ResizeStep {
                service: service.0,
                vsn: vsn.0,
                action,
            },
        );
    }

    /// Scrub a node from its service: out of the record, out of the
    /// switch, torn down on its daemon when the host still lives. If the
    /// removal leaves a mid-creation service with every remaining node
    /// already booted, the creation completes with the survivors (the
    /// reply's `creation_time` is zero — the real duration is unknown to
    /// the Master on this path). Removing the last node of a Creating
    /// service tears the service down. Returns the node's capacity and
    /// the completion reply, or `None` for an unknown service/node.
    pub fn remove_node(
        &mut self,
        service: ServiceId,
        vsn: VsnId,
        daemons: &mut [SodaDaemon],
        now: SimTime,
    ) -> Option<(u32, Option<CreationReply>)> {
        self.admission_index = None;
        let rec = self.services.get_mut(&service)?;
        let pos = rec.nodes.iter().position(|n| n.vsn == vsn)?;
        let node = rec.nodes.remove(pos);
        let creating = rec.state == ServiceState::Creating;
        let completable = creating && !rec.nodes.is_empty() && rec.nodes_ready >= rec.nodes.len();
        if creating && rec.nodes.is_empty() {
            rec.state = ServiceState::TornDown;
        }
        if let Some(sw) = self.switches.get_mut(&service) {
            sw.remove_backend(vsn);
        }
        if let Some(d) = soda_hup::daemon::daemon_for_mut(daemons, node.host) {
            // Close the priming span if the node never booted; teardown
            // releases the slice when the host survives.
            if let Some(since) = d.vsn_mut(vsn).and_then(|v| v.priming_since.take()) {
                self.obs
                    .span_record("master", "priming", Labels::none(), since, now);
            }
            if !d.is_failed() {
                let _ = d.teardown_vsn(vsn);
            }
        }
        let reply = if completable {
            self.finish_creation(service, daemons, now, SimDuration::ZERO)
                .ok()
        } else {
            None
        };
        Some((node.capacity, reply))
    }

    /// The service record.
    pub fn service(&self, id: ServiceId) -> Option<&ServiceRecord> {
        self.services.get(&id)
    }

    /// The service's switch.
    pub fn switch(&self, id: ServiceId) -> Option<&ServiceSwitch> {
        self.switches.get(&id)
    }

    /// Mutable switch access (routing mutates policy state).
    pub fn switch_mut(&mut self, id: ServiceId) -> Option<&mut ServiceSwitch> {
        self.switches.get_mut(&id)
    }

    /// All hosted services.
    pub fn services(&self) -> impl Iterator<Item = &ServiceRecord> {
        self.services.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_net::pool::IpPool;
    use soda_vmm::rootfs::RootFsCatalog;
    use soda_vmm::sysservices::StartupClass;

    use soda_hup::host::HupHost;

    fn testbed() -> Vec<SodaDaemon> {
        vec![
            SodaDaemon::new(HupHost::seattle(
                HostId(1),
                IpPool::new("128.10.9.120".parse().unwrap(), 8),
            )),
            SodaDaemon::new(HupHost::tacoma(
                HostId(2),
                IpPool::new("128.10.9.128".parse().unwrap(), 8),
            )),
        ]
    }

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

    #[test]
    fn create_service_reproduces_figure2_layout() {
        let mut master = SodaMaster::new();
        let mut daemons = testbed();
        let reply = master
            .create_service_now(web_spec(3), "webco", &mut daemons, SimTime::ZERO)
            .unwrap();
        // <3, M> → 2M on seattle, 1M on tacoma (Figure 2 / Table 3).
        assert_eq!(reply.nodes.len(), 2);
        assert_eq!(reply.nodes[0].capacity, 2);
        assert_eq!(reply.nodes[1].capacity, 1);
        let rec = master.service(reply.service).unwrap();
        assert_eq!(rec.state, ServiceState::Running);
        assert_eq!(rec.nodes[0].host, HostId(1));
        assert_eq!(rec.nodes[1].host, HostId(2));
        // The switch's config file has the Table 3 shape.
        let sw = master.switch(reply.service).unwrap();
        let cfg = sw.config().to_string();
        assert!(cfg.contains("8080 2"), "{cfg}");
        assert!(cfg.contains("8080 1"), "{cfg}");
        assert_eq!(sw.config().total_capacity(), 3);
        assert!(reply.creation_time > SimDuration::from_secs(1));
    }

    #[test]
    fn admission_inflates_by_slowdown_factor() {
        let master = SodaMaster::new();
        let m = ResourceVector::TABLE1_EXAMPLE;
        let infl = master.inflated_machine(&m);
        assert_eq!(infl.cpu_mhz, 768); // 512 × 1.5
        assert_eq!(infl.bw_mbps, 15);
        assert_eq!(infl.mem_mb, m.mem_mb);
    }

    #[test]
    fn admission_rejects_oversized_requests() {
        let mut master = SodaMaster::new();
        let mut daemons = testbed();
        let err = master
            .create_service_now(web_spec(50), "webco", &mut daemons, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, SodaError::AdmissionRejected { .. }));
        // Nothing leaked.
        assert_eq!(daemons[0].vsn_count(), 0);
        assert_eq!(daemons[1].vsn_count(), 0);
    }

    #[test]
    fn zero_instances_is_a_bad_request() {
        let mut master = SodaMaster::new();
        let mut daemons = testbed();
        let err = master
            .create_service_now(web_spec(0), "webco", &mut daemons, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, SodaError::BadRequest(_)));
    }

    #[test]
    fn failed_admission_releases_the_nodes_it_began() {
        let mut master = SodaMaster::new();
        // tacoma has a single address, so a second node there fails
        // priming after seattle's node has already begun.
        let mut daemons = one_ip_tacoma();
        master
            .create_service_now(web_spec(3), "webco", &mut daemons, SimTime::ZERO)
            .unwrap();
        let before = daemon_state(&daemons);
        let err = master
            .admit(web_spec(2), "webco", &mut daemons, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, SodaError::Priming(_)), "{err:?}");
        assert_eq!(daemon_state(&daemons), before);
    }

    /// The daemons' availability and VSN sets, for before/after checks.
    fn daemon_state(daemons: &[SodaDaemon]) -> Vec<(ResourceVector, Vec<VsnId>)> {
        daemons
            .iter()
            .map(|d| (d.report_resources(), d.vsns().map(|v| v.id).collect()))
            .collect()
    }

    /// seattle with 8 addresses, tacoma with a single one.
    fn one_ip_tacoma() -> Vec<SodaDaemon> {
        let mut daemons = testbed();
        daemons[1] = SodaDaemon::new(HupHost::tacoma(
            HostId(2),
            IpPool::new("128.10.9.128".parse().unwrap(), 1),
        ));
        daemons
    }

    #[test]
    fn admission_failing_in_priming_counts_as_rejected() {
        let obs = Obs::enabled(64);
        let mut master = SodaMaster::new();
        master.set_obs(obs.clone());
        let mut daemons = one_ip_tacoma();
        master
            .create_service_now(web_spec(3), "webco", &mut daemons, SimTime::ZERO)
            .unwrap();
        let err = master
            .admit(web_spec(2), "webco", &mut daemons, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, SodaError::Priming(_)), "{err:?}");
        let counter = |name: &'static str| {
            obs.with(|i| i.registry.counter("master", name, Labels::none()))
                .flatten()
                .unwrap_or(0)
        };
        assert_eq!(counter("admission_accepted"), 1);
        assert_eq!(counter("admission_rejected"), 1);
        // The failed admission drew no service id.
        let next = master
            .admit(web_spec(1), "webco", &mut daemons, SimTime::ZERO)
            .unwrap();
        assert_eq!(next.service, ServiceId(2));
    }

    #[test]
    fn resize_failing_in_priming_rolls_back_in_place_growth() {
        let mut master = SodaMaster::new();
        let mut daemons = one_ip_tacoma();
        let t = SimTime::ZERO;
        let first = master
            .create_service_now(web_spec(1), "webco", &mut daemons, t)
            .unwrap()
            .service;
        master
            .create_service_now(web_spec(2), "webco", &mut daemons, t)
            .unwrap();
        let before = daemon_state(&daemons);
        let nodes = master.service(first).unwrap().nodes.clone();
        let config = master.switch(first).unwrap().config().clone();
        let err = master.resize(first, 3, &mut daemons, t).unwrap_err();
        assert!(matches!(err, SodaError::Priming(_)), "{err:?}");
        assert_eq!(daemon_state(&daemons), before);
        assert_eq!(master.service(first).unwrap().nodes, nodes);
        assert_eq!(master.switch(first).unwrap().config(), &config);
    }

    #[test]
    fn teardown_releases_all_hosts() {
        let mut master = SodaMaster::new();
        let mut daemons = testbed();
        let before: Vec<_> = daemons.iter().map(|d| d.report_resources()).collect();
        let reply = master
            .create_service_now(web_spec(3), "webco", &mut daemons, SimTime::ZERO)
            .unwrap();
        master.teardown(reply.service, &mut daemons).unwrap();
        let after: Vec<_> = daemons.iter().map(|d| d.report_resources()).collect();
        assert_eq!(before, after);
        assert!(master.switch(reply.service).is_none());
        assert_eq!(
            master.service(reply.service).unwrap().state,
            ServiceState::TornDown
        );
        // Double teardown rejected.
        assert!(matches!(
            master.teardown(reply.service, &mut daemons),
            Err(SodaError::InvalidState { .. })
        ));
    }

    #[test]
    fn resize_shrink_in_place_and_remove_nodes() {
        let mut master = SodaMaster::new();
        let mut daemons = testbed();
        let reply = master
            .create_service_now(web_spec(3), "webco", &mut daemons, SimTime::ZERO)
            .unwrap();
        // 3 → 2: drops the tacoma node entirely (capacity 1, shed from
        // the end).
        let out = master
            .resize(reply.service, 2, &mut daemons, SimTime::from_secs(10))
            .unwrap();
        assert_eq!(out.removed.len(), 1);
        assert!(out.tickets.is_empty());
        let rec = master.service(reply.service).unwrap();
        assert_eq!(rec.placed_capacity(), 2);
        assert_eq!(rec.nodes.len(), 1);
        let seattle_vsn = rec.nodes[0].vsn;
        assert_eq!(
            master
                .switch(reply.service)
                .unwrap()
                .config()
                .total_capacity(),
            2
        );
        assert_eq!(daemons[1].vsn_count(), 0, "tacoma node torn down");
        // 2 → 1: in-place shrink of the seattle node.
        let out = master
            .resize(reply.service, 1, &mut daemons, SimTime::from_secs(20))
            .unwrap();
        assert_eq!(out.removed.len(), 0);
        assert_eq!(out.resized, vec![(seattle_vsn, 1)]);
        assert_eq!(master.service(reply.service).unwrap().placed_capacity(), 1);
    }

    #[test]
    fn resize_grow_in_place() {
        let mut master = SodaMaster::new();
        let mut daemons = testbed();
        let reply = master
            .create_service_now(web_spec(2), "webco", &mut daemons, SimTime::ZERO)
            .unwrap();
        let rec_nodes = master.service(reply.service).unwrap().nodes.clone();
        let out = master
            .resize(reply.service, 3, &mut daemons, SimTime::from_secs(5))
            .unwrap();
        // Growth fits in place (seattle has headroom): no new tickets.
        assert!(out.tickets.is_empty());
        assert!(!out.resized.is_empty());
        assert_eq!(master.service(reply.service).unwrap().placed_capacity(), 3);
        assert_eq!(
            master
                .switch(reply.service)
                .unwrap()
                .config()
                .total_capacity(),
            3
        );
        // The original node ids survive.
        for n in &master.service(reply.service).unwrap().nodes {
            assert!(rec_nodes.iter().any(|o| o.vsn == n.vsn));
        }
    }

    #[test]
    fn resize_noop_and_errors() {
        let mut master = SodaMaster::new();
        let mut daemons = testbed();
        let reply = master
            .create_service_now(web_spec(2), "webco", &mut daemons, SimTime::ZERO)
            .unwrap();
        let out = master
            .resize(reply.service, 2, &mut daemons, SimTime::ZERO)
            .unwrap();
        assert!(out.resized.is_empty() && out.removed.is_empty() && out.tickets.is_empty());
        assert!(matches!(
            master.resize(reply.service, 0, &mut daemons, SimTime::ZERO),
            Err(SodaError::BadRequest(_))
        ));
        assert!(matches!(
            master.resize(ServiceId(999), 1, &mut daemons, SimTime::ZERO),
            Err(SodaError::UnknownService(_))
        ));
        // Oversized growth is rejected and rolls back.
        let before = master.service(reply.service).unwrap().placed_capacity();
        assert!(master
            .resize(reply.service, 60, &mut daemons, SimTime::ZERO)
            .is_err());
        assert_eq!(
            master.service(reply.service).unwrap().placed_capacity(),
            before
        );
    }

    #[test]
    fn crash_marks_switch_unhealthy() {
        let mut master = SodaMaster::new();
        let mut daemons = testbed();
        let reply = master
            .create_service_now(web_spec(3), "webco", &mut daemons, SimTime::ZERO)
            .unwrap();
        let vsn = master.service(reply.service).unwrap().nodes[0].vsn;
        master.node_crashed(reply.service, vsn);
        let sw = master.switch_mut(reply.service).unwrap();
        // All traffic now flows to the healthy tacoma node.
        for _ in 0..10 {
            let i = sw.route(SimTime::ZERO).unwrap();
            let picked = sw.backends()[i].vsn;
            assert_ne!(picked, vsn);
            sw.complete(picked, SimDuration::from_millis(1), SimTime::ZERO);
        }
        master.node_recovered(reply.service, vsn);
        let sw = master.switch_mut(reply.service).unwrap();
        let mut saw_recovered = false;
        for _ in 0..10 {
            let i = sw.route(SimTime::ZERO).unwrap();
            let picked = sw.backends()[i].vsn;
            if picked == vsn {
                saw_recovered = true;
            }
            sw.complete(picked, SimDuration::from_millis(1), SimTime::ZERO);
        }
        assert!(saw_recovered);
    }

    #[test]
    fn migration_moves_node_and_preserves_capacity() {
        let mut master = SodaMaster::new();
        let mut daemons = testbed();
        // One node on seattle.
        let reply = master
            .create_service_now(web_spec(1), "webco", &mut daemons, SimTime::ZERO)
            .unwrap();
        let svc = reply.service;
        let old_vsn = master.service(svc).unwrap().nodes[0].vsn;
        let src = master.service(svc).unwrap().nodes[0].host;
        assert_eq!(src, HostId(1));
        let src_before = daemons[0].report_resources();
        // Migrate to tacoma.
        let out = master
            .migrate(svc, old_vsn, HostId(2), &mut daemons, SimTime::ZERO)
            .unwrap();
        assert_eq!(out.checkpoint_bytes, 256_000_000);
        // Old node still serving while the replacement primes
        // (make-before-break).
        assert!(daemons[0].vsn(old_vsn).unwrap().is_running());
        master
            .complete_migration(&out, &mut daemons, SimTime::from_secs(30))
            .unwrap();
        let rec = master.service(svc).unwrap();
        assert_eq!(rec.nodes.len(), 1);
        assert_eq!(rec.nodes[0].host, HostId(2));
        assert_eq!(rec.nodes[0].vsn, out.new_vsn);
        assert_eq!(rec.placed_capacity(), 1);
        // Source slice released; destination charged.
        assert_eq!(
            daemons[0].report_resources(),
            src_before + master.inflated_machine(&rec.spec.machine)
        );
        assert_eq!(daemons[0].vsn_count(), 0);
        assert_eq!(daemons[1].vsn_count(), 1);
        // The switch routes to the new node.
        let sw = master.switch_mut(svc).unwrap();
        let i = sw.route(SimTime::ZERO).unwrap();
        assert_eq!(sw.backends()[i].vsn, out.new_vsn);
        sw.complete(out.new_vsn, SimDuration::from_millis(1), SimTime::ZERO);
    }

    #[test]
    fn migration_error_paths() {
        let mut master = SodaMaster::new();
        let mut daemons = testbed();
        let reply = master
            .create_service_now(web_spec(3), "webco", &mut daemons, SimTime::ZERO)
            .unwrap();
        let svc = reply.service;
        let vsn = master.service(svc).unwrap().nodes[0].vsn;
        // Target == source.
        assert!(matches!(
            master.migrate(svc, vsn, HostId(1), &mut daemons, SimTime::ZERO),
            Err(SodaError::BadRequest(_))
        ));
        // Target already hosts a node of this service.
        assert!(matches!(
            master.migrate(svc, vsn, HostId(2), &mut daemons, SimTime::ZERO),
            Err(SodaError::BadRequest(_))
        ));
        // Unknown service / node.
        assert!(master
            .migrate(ServiceId(99), vsn, HostId(2), &mut daemons, SimTime::ZERO)
            .is_err());
        assert!(master
            .migrate(svc, VsnId(999), HostId(2), &mut daemons, SimTime::ZERO)
            .is_err());
    }

    #[test]
    fn two_services_share_the_hup() {
        // The §5 testbed: web content (2 nodes) + honeypot (1 node on
        // seattle) coexist.
        let mut master = SodaMaster::new();
        let mut daemons = testbed();
        let web = master
            .create_service_now(web_spec(3), "webco", &mut daemons, SimTime::ZERO)
            .unwrap();
        let honeypot_spec = ServiceSpec {
            name: "honeypot".into(),
            image: RootFsCatalog::new().tomsrtbt(),
            required_services: vec!["network"],
            app_class: StartupClass::Light,
            instances: 1,
            machine: ResourceVector::TABLE1_EXAMPLE,
            port: 80,
        };
        let hp = master
            .create_service_now(honeypot_spec, "seclab", &mut daemons, SimTime::ZERO)
            .unwrap();
        assert_ne!(web.service, hp.service);
        assert_eq!(master.services().count(), 2);
        let total_vsns: usize = daemons.iter().map(|d| d.vsn_count()).sum();
        assert_eq!(total_vsns, 3);
    }

    /// A `master.priming` span runs from when the Master began priming
    /// a node to its boot, or to its removal mid-priming; a re-prime
    /// opens none.
    #[test]
    fn priming_span_runs_from_begin_to_boot_or_removal() {
        let obs = Obs::enabled(64);
        let mut master = SodaMaster::new();
        master.set_obs(obs.clone());
        let mut daemons = testbed();
        let t = SimTime::from_secs;
        let outcome = master
            .admit(web_spec(3), "webco", &mut daemons, t(10))
            .unwrap();
        let svc = outcome.service;
        let [(_, a), (_, b)] = &outcome.tickets[..] else {
            panic!("web_spec(3) places two nodes");
        };
        master
            .node_ready(svc, a.vsn, &mut daemons, t(70), SimDuration::ZERO)
            .unwrap();
        master.remove_node(svc, b.vsn, &mut daemons, t(40)).unwrap();
        // Crash and re-prime the booted node, then scrub it mid-priming.
        let host = master.service(svc).unwrap().nodes[0].host;
        let d = soda_hup::daemon::daemon_for_mut(&mut daemons, host).unwrap();
        d.crash_vsn(a.vsn, t(80)).unwrap();
        d.begin_repriming(a.vsn).unwrap();
        master.remove_node(svc, a.vsn, &mut daemons, t(90)).unwrap();
        let (count, mean) = obs
            .with(|i| {
                let h = i.registry.histogram("master", "priming", Labels::none());
                h.map(|h| (h.count(), h.mean()))
            })
            .flatten()
            .unwrap();
        assert_eq!(
            count, 2,
            "one span per Master priming, none for the re-prime"
        );
        assert_eq!(mean, 45e9, "spans of 60 s and 30 s");
    }
}
