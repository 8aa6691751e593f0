//! The service switch.
//!
//! "Co-located in one of the virtual service nodes of S, the service
//! switch will accept and direct each client request to one of the
//! virtual service nodes." (§3.4) The switch owns the service
//! configuration file, the (replaceable) switching policy, and the
//! per-backend runtime the experiments measure: requests served per node
//! and per-node mean response time — exactly Figure 4's two panels.
//!
//! ## Hot-path discipline
//!
//! [`ServiceSwitch::route`] runs once per client request, so it must not
//! allocate: the policy is handed a *view cache* (`views`) that mirrors
//! the backend runtimes and is updated incrementally by every mutating
//! operation, never rebuilt. Fleet-level aggregates (healthy capacity,
//! total outstanding/served) are likewise maintained incrementally so
//! the Master's capacity queries are O(1) instead of a per-call scan.
//! [`ServiceSwitch::assert_cache_coherent`] recomputes everything from
//! scratch and is cross-checked by the differential oracle tests.
//!
//! Completion accounting is keyed by [`VsnId`], not by backend index:
//! indices shift when [`ServiceSwitch::remove_backend`] fires while
//! requests are still in flight, and a stale index would debit the
//! wrong backend. A completion or abort for a VSN that has already left
//! the rotation is a no-op.

use soda_net::addr::Ipv4Addr;
use soda_sim::{Event, Labels, MetricHandle, MetricKind, Obs, SimDuration, SimTime, Summary};
use soda_vmm::vsn::VsnId;

use crate::config::ServiceConfigFile;
use crate::policy::{BackendView, SwitchPolicy, WeightedRoundRobin};
use crate::service::ServiceId;

/// Per-backend runtime state inside the switch.
#[derive(Debug)]
pub struct BackendRuntime {
    /// The node this backend is.
    pub vsn: VsnId,
    /// Backend address.
    pub ip: Ipv4Addr,
    /// Backend port.
    pub port: u16,
    /// Relative capacity (machine instances).
    pub capacity: u32,
    /// Healthy (node running)?
    pub healthy: bool,
    /// Requests in flight.
    pub outstanding: u32,
    /// Requests completed.
    pub served: u64,
    /// EWMA of response time, seconds.
    pub ewma_response: f64,
    /// Full response-time summary.
    pub response_stats: Summary,
}

impl BackendRuntime {
    fn view(&self) -> BackendView {
        BackendView {
            capacity: self.capacity,
            healthy: self.healthy,
            outstanding: self.outstanding,
            ewma_response: self.ewma_response,
        }
    }
}

/// Interned `switch.*` metric handles for one backend, filled lazily on
/// first record (so a metric still only appears once it is first written,
/// exactly as with string-keyed recording) and hit directly afterwards —
/// the per-request hot path pays a slot-table index instead of a
/// `BTreeMap` walk over `(scope, name, labels)` keys.
#[derive(Clone, Copy, Debug, Default)]
struct BackendHandles {
    dispatched: Option<MetricHandle>,
    served: Option<MetricHandle>,
    aborted: Option<MetricHandle>,
    outstanding: Option<MetricHandle>,
    response_time: Option<MetricHandle>,
}

/// The per-service request switch.
pub struct ServiceSwitch {
    /// The service this switch fronts.
    pub service: ServiceId,
    /// The VSN the switch is colocated in (it shares that node's fate —
    /// the DDoS extension experiment exploits this).
    pub colocated_on: VsnId,
    config: ServiceConfigFile,
    policy: Box<dyn SwitchPolicy>,
    backends: Vec<BackendRuntime>,
    /// Per-request view of `backends`, maintained in lockstep so
    /// `route()` never rebuilds (or allocates) it.
    views: Vec<BackendView>,
    /// Sorted `(vsn, index into backends)` pairs: every VSN-keyed
    /// operation (complete, abort, health/capacity flips) binary-searches
    /// here instead of scanning `backends` linearly — the difference
    /// between O(log n) and O(n) per completion once wide services exist.
    by_vsn: Vec<(VsnId, u32)>,
    /// Sum of `capacity` over healthy backends, maintained incrementally.
    healthy_capacity: u32,
    /// Sum of `outstanding` over all backends, maintained incrementally.
    total_outstanding: u32,
    /// High-water mark of `total_outstanding` — the switch's worst-case
    /// queue depth, reported by the bench trajectory. Tracked
    /// unconditionally so it never depends on observability settings.
    peak_outstanding: u32,
    /// Sum of `served` over all backends, maintained incrementally.
    total_served: u64,
    dropped: u64,
    ewma_alpha: f64,
    obs: Obs,
    /// Per-backend interned metric handles, in lockstep with `backends`.
    handles: Vec<BackendHandles>,
    /// Interned handle for the service-level `switch.dropped` counter.
    dropped_h: Option<MetricHandle>,
    /// Interned handle for the service-level `switch.queue_depth` gauge
    /// (total outstanding across backends — the autoscaler's signal).
    queue_depth_h: Option<MetricHandle>,
}

impl ServiceSwitch {
    /// A switch with the default weighted-round-robin policy.
    pub fn new(service: ServiceId, colocated_on: VsnId) -> Self {
        ServiceSwitch {
            service,
            colocated_on,
            config: ServiceConfigFile::new(),
            policy: Box::new(WeightedRoundRobin::new()),
            backends: Vec::new(),
            views: Vec::new(),
            by_vsn: Vec::new(),
            healthy_capacity: 0,
            total_outstanding: 0,
            peak_outstanding: 0,
            total_served: 0,
            dropped: 0,
            ewma_alpha: 0.2,
            obs: Obs::disabled(),
            handles: Vec::new(),
            dropped_h: None,
            queue_depth_h: None,
        }
    }

    /// Attach an observability handle; request lifecycle events and
    /// `switch.*` metrics are recorded through it. Cached metric handles
    /// are dropped: they index the previous handle's registry.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
        self.handles = vec![BackendHandles::default(); self.backends.len()];
        self.dropped_h = None;
        self.queue_depth_h = None;
    }

    /// Track the `total_outstanding` high-water mark and, when obs is
    /// on, refresh the `switch.queue_depth` gauge. Called after every
    /// mutation of the outstanding count.
    #[inline]
    fn note_queue_depth(&mut self) {
        self.peak_outstanding = self.peak_outstanding.max(self.total_outstanding);
        if !self.obs.is_enabled() {
            return;
        }
        let service = self.service.0;
        let h = Self::handle(
            &self.obs,
            &mut self.queue_depth_h,
            "queue_depth",
            || Labels::none().with("service", service),
            MetricKind::Gauge,
        );
        self.obs.gauge_set_h(h, f64::from(self.total_outstanding));
    }

    /// Returns the cached handle in `slot`, interning `switch.<name>` on
    /// first use; `labels` is only built then. Callers only reach this
    /// with observability enabled.
    #[inline]
    fn handle(
        obs: &Obs,
        slot: &mut Option<MetricHandle>,
        name: &'static str,
        labels: impl FnOnce() -> Labels,
        kind: MetricKind,
    ) -> MetricHandle {
        match *slot {
            Some(h) => h,
            None => {
                let h = obs
                    .intern("switch", name, labels(), kind)
                    .expect("interning requires enabled obs");
                *slot = Some(h);
                h
            }
        }
    }

    /// Builds the `{service, vsn}` metric labels of backend `idx` (only
    /// run when a handle is first interned).
    fn labels(&self, idx: usize) -> impl Fn() -> Labels + Copy {
        let (service, vsn) = (self.service.0, self.backends[idx].vsn.0);
        move || Labels::two("service", service, "vsn", vsn)
    }

    /// Replace the switching policy with a service-specific one (§3.4).
    pub fn replace_policy(&mut self, policy: Box<dyn SwitchPolicy>) {
        self.policy = policy;
    }

    /// The current policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The configuration file (as the Master maintains it).
    pub fn config(&self) -> &ServiceConfigFile {
        &self.config
    }

    /// Add a backend node (Master, at creation or growth-resize).
    pub fn add_backend(&mut self, vsn: VsnId, ip: Ipv4Addr, port: u16, capacity: u32) {
        self.config.add_backend(ip, port, capacity);
        let b = BackendRuntime {
            vsn,
            ip,
            port,
            capacity,
            healthy: true,
            outstanding: 0,
            served: 0,
            ewma_response: 0.0,
            response_stats: Summary::new(),
        };
        self.views.push(b.view());
        self.healthy_capacity += capacity;
        self.backends.push(b);
        self.handles.push(BackendHandles::default());
        let idx = (self.backends.len() - 1) as u32;
        let at = self.by_vsn.partition_point(|&(v, _)| v < vsn);
        self.by_vsn.insert(at, (vsn, idx));
    }

    /// Remove a backend node (shrink-resize / teardown). Returns whether
    /// it existed. In-flight requests on the removed backend leave with
    /// it; their later completions/aborts become no-ops.
    pub fn remove_backend(&mut self, vsn: VsnId) -> bool {
        let Some(pos) = self.index_of(vsn) else {
            return false;
        };
        let b = self.backends.remove(pos);
        self.views.remove(pos);
        self.handles.remove(pos);
        let at = self
            .by_vsn
            .binary_search_by_key(&vsn, |&(v, _)| v)
            .expect("index_of found it");
        self.by_vsn.remove(at);
        // Everything past the removed slot shifted down by one.
        for e in &mut self.by_vsn {
            if e.1 as usize > pos {
                e.1 -= 1;
            }
        }
        if b.healthy {
            self.healthy_capacity -= b.capacity;
        }
        self.total_outstanding -= b.outstanding;
        self.total_served -= b.served;
        self.config.remove_backend(b.ip);
        true
    }

    /// Change a backend's relative capacity (in-place resize); the
    /// config file is updated to match (§3.4: "in either case, the
    /// service configuration file will be updated by the SODA Master").
    pub fn set_capacity(&mut self, vsn: VsnId, capacity: u32) -> bool {
        let Some(i) = self.index_of(vsn) else {
            return false;
        };
        let b = &mut self.backends[i];
        if b.healthy {
            self.healthy_capacity = self.healthy_capacity - b.capacity + capacity;
        }
        b.capacity = capacity;
        self.views[i].capacity = capacity;
        let ip = b.ip;
        self.config.set_capacity(ip, capacity);
        true
    }

    /// Mark a backend up/down (node crash / revival).
    pub fn set_health(&mut self, vsn: VsnId, healthy: bool) -> bool {
        let Some(i) = self.index_of(vsn) else {
            return false;
        };
        let b = &mut self.backends[i];
        if b.healthy != healthy {
            if healthy {
                self.healthy_capacity += b.capacity;
            } else {
                self.healthy_capacity -= b.capacity;
            }
        }
        b.healthy = healthy;
        self.views[i].healthy = healthy;
        true
    }

    /// Route one request: the policy picks a backend, the switch counts
    /// it in flight. Returns the backend index, or `None` (counted as a
    /// drop) when the policy yields nothing. Allocation-free: the policy
    /// reads the incrementally maintained view cache.
    pub fn route(&mut self, now: SimTime) -> Option<usize> {
        match self.policy.pick(&self.views) {
            Some(i) if i < self.backends.len() => {
                self.backends[i].outstanding += 1;
                self.views[i].outstanding += 1;
                self.total_outstanding += 1;
                self.note_queue_depth();
                if self.obs.is_enabled() {
                    let labels = self.labels(i);
                    self.obs.record(
                        now,
                        Event::RequestDispatched {
                            service: self.service.0,
                            vsn: self.backends[i].vsn.0,
                        },
                    );
                    let h = &mut self.handles[i];
                    let dispatched = Self::handle(
                        &self.obs,
                        &mut h.dispatched,
                        "dispatched",
                        labels,
                        MetricKind::Counter,
                    );
                    let outstanding = Self::handle(
                        &self.obs,
                        &mut h.outstanding,
                        "outstanding",
                        labels,
                        MetricKind::Gauge,
                    );
                    self.obs.counter_add_h(dispatched, 1);
                    self.obs
                        .gauge_set_h(outstanding, f64::from(self.backends[i].outstanding));
                }
                Some(i)
            }
            _ => {
                self.dropped += 1;
                if self.obs.is_enabled() {
                    self.obs.record(
                        now,
                        Event::RequestFailed {
                            service: self.service.0,
                            vsn: 0,
                        },
                    );
                    let service = self.service.0;
                    let dropped = Self::handle(
                        &self.obs,
                        &mut self.dropped_h,
                        "dropped",
                        || Labels::one("service", service),
                        MetricKind::Counter,
                    );
                    self.obs.counter_add_h(dropped, 1);
                }
                None
            }
        }
    }

    /// Record a completed request on the backend serving `vsn` with the
    /// observed response time. A no-op when the backend has since left
    /// the rotation (`remove_backend` raced the response).
    pub fn complete(&mut self, vsn: VsnId, response_time: SimDuration, now: SimTime) {
        let Some(idx) = self.index_of(vsn) else {
            return;
        };
        let b = &mut self.backends[idx];
        if b.outstanding > 0 {
            b.outstanding -= 1;
            self.total_outstanding -= 1;
        }
        b.served += 1;
        self.total_served += 1;
        let rt = response_time.as_secs_f64();
        b.ewma_response = if b.served == 1 {
            rt
        } else {
            (1.0 - self.ewma_alpha) * b.ewma_response + self.ewma_alpha * rt
        };
        b.response_stats.record(rt);
        self.views[idx].outstanding = b.outstanding;
        self.views[idx].ewma_response = b.ewma_response;
        self.note_queue_depth();
        if self.obs.is_enabled() {
            let labels = self.labels(idx);
            let outstanding_now = self.backends[idx].outstanding;
            self.obs.record(
                now,
                Event::RequestCompleted {
                    service: self.service.0,
                    vsn: self.backends[idx].vsn.0,
                },
            );
            let h = &mut self.handles[idx];
            let served = Self::handle(
                &self.obs,
                &mut h.served,
                "served",
                labels,
                MetricKind::Counter,
            );
            let outstanding = Self::handle(
                &self.obs,
                &mut h.outstanding,
                "outstanding",
                labels,
                MetricKind::Gauge,
            );
            let response = Self::handle(
                &self.obs,
                &mut h.response_time,
                "response_time",
                labels,
                MetricKind::Histogram,
            );
            self.obs.counter_add_h(served, 1);
            self.obs
                .gauge_set_h(outstanding, f64::from(outstanding_now));
            self.obs
                .histogram_record_h(response, response_time.as_nanos());
        }
    }

    /// A failed request (backend crashed mid-flight): decrement
    /// in-flight without recording a completion. A no-op when the
    /// backend has since been removed.
    pub fn abort(&mut self, vsn: VsnId, now: SimTime) {
        let Some(idx) = self.index_of(vsn) else {
            return;
        };
        let b = &mut self.backends[idx];
        if b.outstanding > 0 {
            b.outstanding -= 1;
            self.total_outstanding -= 1;
        }
        self.views[idx].outstanding = b.outstanding;
        self.note_queue_depth();
        if self.obs.is_enabled() {
            let labels = self.labels(idx);
            let outstanding_now = self.backends[idx].outstanding;
            self.obs.record(
                now,
                Event::RequestFailed {
                    service: self.service.0,
                    vsn: self.backends[idx].vsn.0,
                },
            );
            let h = &mut self.handles[idx];
            let aborted = Self::handle(
                &self.obs,
                &mut h.aborted,
                "aborted",
                labels,
                MetricKind::Counter,
            );
            let outstanding = Self::handle(
                &self.obs,
                &mut h.outstanding,
                "outstanding",
                labels,
                MetricKind::Gauge,
            );
            self.obs.counter_add_h(aborted, 1);
            self.obs
                .gauge_set_h(outstanding, f64::from(outstanding_now));
        }
    }

    /// Backend runtime states.
    pub fn backends(&self) -> &[BackendRuntime] {
        &self.backends
    }

    /// Backend index by VSN. O(log n) over the sorted VSN index.
    pub fn index_of(&self, vsn: VsnId) -> Option<usize> {
        let at = self.by_vsn.binary_search_by_key(&vsn, |&(v, _)| v).ok()?;
        Some(self.by_vsn[at].1 as usize)
    }

    /// Requests dropped (no backend available).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Capacity (machine instances) currently healthy and in rotation.
    /// O(1): maintained incrementally by every backend mutation.
    pub fn healthy_capacity(&self) -> u32 {
        self.healthy_capacity
    }

    /// Requests currently in flight across all backends. O(1).
    pub fn total_outstanding(&self) -> u32 {
        self.total_outstanding
    }

    /// High-water mark of [`ServiceSwitch::total_outstanding`] over the
    /// switch's lifetime.
    pub fn peak_outstanding(&self) -> u32 {
        self.peak_outstanding
    }

    /// Requests completed across all backends. O(1).
    pub fn total_served(&self) -> u64 {
        self.total_served
    }

    /// Requests served per backend.
    pub fn served_counts(&self) -> Vec<u64> {
        self.backends.iter().map(|b| b.served).collect()
    }

    /// Mean response time per backend, seconds.
    pub fn mean_responses(&self) -> Vec<f64> {
        self.backends
            .iter()
            .map(|b| b.response_stats.mean())
            .collect()
    }

    /// Recompute the view cache and aggregates from scratch and panic on
    /// any divergence from the incrementally maintained state. This is
    /// the oracle the differential tests drive after every random op.
    #[doc(hidden)]
    pub fn assert_cache_coherent(&self) {
        assert_eq!(self.views.len(), self.backends.len(), "view cache length");
        for (i, b) in self.backends.iter().enumerate() {
            assert_eq!(self.views[i], b.view(), "view cache drift at {i}");
        }
        let healthy: u32 = self
            .backends
            .iter()
            .filter(|b| b.healthy)
            .map(|b| b.capacity)
            .sum();
        assert_eq!(self.healthy_capacity, healthy, "healthy_capacity drift");
        let outstanding: u32 = self.backends.iter().map(|b| b.outstanding).sum();
        assert_eq!(self.total_outstanding, outstanding, "outstanding drift");
        let served: u64 = self.backends.iter().map(|b| b.served).sum();
        assert_eq!(self.total_served, served, "served drift");
        let mut expect: Vec<(VsnId, u32)> = self
            .backends
            .iter()
            .enumerate()
            .map(|(i, b)| (b.vsn, i as u32))
            .collect();
        expect.sort_unstable_by_key(|&(v, _)| v);
        assert_eq!(self.by_vsn, expect, "by_vsn index drift");
    }
}

impl std::fmt::Debug for ServiceSwitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceSwitch")
            .field("service", &self.service)
            .field("policy", &self.policy.name())
            .field("backends", &self.backends.len())
            .field("dropped", &self.dropped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{IllBehaved, LeastConnections};

    fn switch_2_1() -> ServiceSwitch {
        let mut s = ServiceSwitch::new(ServiceId(1), VsnId(10));
        s.add_backend(VsnId(10), "128.10.9.125".parse().unwrap(), 8080, 2);
        s.add_backend(VsnId(11), "128.10.9.126".parse().unwrap(), 8080, 1);
        s
    }

    /// Route and return the chosen backend's VSN.
    fn route_vsn(s: &mut ServiceSwitch) -> Option<VsnId> {
        let i = s.route(SimTime::ZERO)?;
        Some(s.backends()[i].vsn)
    }

    #[test]
    fn default_policy_is_wrr_and_config_matches_table3() {
        let s = switch_2_1();
        assert_eq!(s.policy_name(), "weighted-round-robin");
        assert_eq!(
            s.config().to_string(),
            "BackEnd 128.10.9.125 8080 2\nBackEnd 128.10.9.126 8080 1\n"
        );
    }

    #[test]
    fn routing_respects_2_to_1() {
        let mut s = switch_2_1();
        for _ in 0..300 {
            let v = route_vsn(&mut s).unwrap();
            s.complete(v, SimDuration::from_millis(10), SimTime::ZERO);
        }
        assert_eq!(s.served_counts(), vec![200, 100]);
        assert_eq!(s.total_served(), 300);
        assert_eq!(s.dropped(), 0);
        s.assert_cache_coherent();
    }

    #[test]
    fn outstanding_and_completion_accounting() {
        let mut s = switch_2_1();
        let a = route_vsn(&mut s).unwrap();
        let b = route_vsn(&mut s).unwrap();
        assert_eq!(s.total_outstanding(), 2);
        s.complete(a, SimDuration::from_millis(100), SimTime::ZERO);
        s.abort(b, SimTime::ZERO);
        assert_eq!(s.total_outstanding(), 0);
        let total_served: u64 = s.served_counts().iter().sum();
        assert_eq!(total_served, 1, "aborts are not completions");
        s.assert_cache_coherent();
    }

    #[test]
    fn response_stats_accumulate() {
        let mut s = switch_2_1();
        for ms in [10u64, 20, 30] {
            let i = s.index_of(VsnId(10)).unwrap();
            s.backends()[i].view(); // no-op, exercise view
            s.route(SimTime::ZERO);
            s.complete(VsnId(10), SimDuration::from_millis(ms), SimTime::ZERO);
        }
        let means = s.mean_responses();
        assert!((means[0] - 0.020).abs() < 1e-9);
        assert!(s.backends()[0].ewma_response > 0.0);
    }

    #[test]
    fn health_routing() {
        let mut s = switch_2_1();
        s.set_health(VsnId(10), false);
        assert_eq!(s.healthy_capacity(), 1);
        for _ in 0..10 {
            let v = route_vsn(&mut s).unwrap();
            assert_eq!(v, VsnId(11));
            s.complete(v, SimDuration::from_millis(1), SimTime::ZERO);
        }
        s.set_health(VsnId(11), false);
        assert_eq!(s.healthy_capacity(), 0);
        assert_eq!(s.route(SimTime::ZERO), None);
        assert_eq!(s.dropped(), 1);
        assert!(!s.set_health(VsnId(99), true));
        s.assert_cache_coherent();
    }

    #[test]
    fn resize_updates_config_and_routing() {
        let mut s = switch_2_1();
        assert!(s.set_capacity(VsnId(11), 2));
        assert!(s.config().to_string().contains("128.10.9.126 8080 2"));
        assert_eq!(s.healthy_capacity(), 4);
        for _ in 0..100 {
            let v = route_vsn(&mut s).unwrap();
            s.complete(v, SimDuration::from_millis(1), SimTime::ZERO);
        }
        assert_eq!(s.served_counts(), vec![50, 50]);
        // Remove a node entirely.
        assert!(s.remove_backend(VsnId(10)));
        assert!(!s.remove_backend(VsnId(10)));
        assert_eq!(s.config().len(), 1);
        assert_eq!(s.healthy_capacity(), 2);
        assert_eq!(s.route(SimTime::ZERO), Some(0));
        s.assert_cache_coherent();
    }

    #[test]
    fn policy_replacement() {
        let mut s = switch_2_1();
        s.replace_policy(Box::new(LeastConnections::new()));
        assert_eq!(s.policy_name(), "least-connections");
        // An ill-behaved replacement still routes (to backend 0 always).
        s.replace_policy(Box::new(IllBehaved::new()));
        s.set_health(VsnId(10), false);
        let i = s.route(SimTime::ZERO).unwrap();
        assert_eq!(i, 0, "ill-behaved policy dumps on the dead node");
    }

    #[test]
    fn out_of_range_policy_pick_counts_as_drop() {
        struct Broken;
        impl crate::policy::SwitchPolicy for Broken {
            fn pick(&mut self, _b: &[BackendView]) -> Option<usize> {
                Some(999)
            }
            fn name(&self) -> &'static str {
                "broken"
            }
        }
        let mut s = switch_2_1();
        s.replace_policy(Box::new(Broken));
        assert_eq!(s.route(SimTime::ZERO), None);
        assert_eq!(s.dropped(), 1);
    }

    // --- coverage gaps: the corners the scale refactor must not bend ---

    #[test]
    fn abort_on_last_outstanding_request_reaches_zero_and_stays_there() {
        let mut s = switch_2_1();
        let v = route_vsn(&mut s).unwrap();
        assert_eq!(s.total_outstanding(), 1);
        s.abort(v, SimTime::ZERO);
        assert_eq!(s.total_outstanding(), 0);
        // A duplicate abort for the same request must not underflow.
        s.abort(v, SimTime::ZERO);
        assert_eq!(s.total_outstanding(), 0);
        assert_eq!(s.backends()[s.index_of(v).unwrap()].outstanding, 0);
        s.assert_cache_coherent();
    }

    #[test]
    fn remove_backend_with_requests_outstanding_keeps_books_straight() {
        let mut s = switch_2_1();
        // Load both backends.
        let mut picked = Vec::new();
        for _ in 0..3 {
            picked.push(route_vsn(&mut s).unwrap());
        }
        assert_eq!(s.total_outstanding(), 3);
        // Remove the heavy backend while its requests are in flight: its
        // outstanding count leaves the aggregates with it.
        let gone = VsnId(10);
        let in_flight_on_gone = picked.iter().filter(|&&v| v == gone).count() as u32;
        assert!(s.remove_backend(gone));
        assert_eq!(s.total_outstanding(), 3 - in_flight_on_gone);
        s.assert_cache_coherent();
        // The survivor still routes.
        assert!(route_vsn(&mut s).is_some());
    }

    #[test]
    fn complete_after_remove_is_a_no_op() {
        // Regression: with index-keyed accounting, completing a request
        // routed to a removed backend debited whichever backend shifted
        // into its slot. Keyed by VsnId it must be a no-op.
        let mut s = switch_2_1();
        let v10 = route_vsn(&mut s).unwrap();
        assert_eq!(v10, VsnId(10), "WRR 2:1 opens on the heavy backend");
        let before_served = s.total_served();
        assert!(s.remove_backend(VsnId(10)));
        let survivor_outstanding = s.backends()[0].outstanding;
        s.complete(VsnId(10), SimDuration::from_millis(5), SimTime::ZERO);
        s.abort(VsnId(10), SimTime::ZERO);
        assert_eq!(s.total_served(), before_served, "no phantom completion");
        assert_eq!(
            s.backends()[0].outstanding,
            survivor_outstanding,
            "survivor must not be debited for the removed backend's request"
        );
        s.assert_cache_coherent();
    }

    #[test]
    fn set_capacity_zero_takes_backend_out_of_wrr_rotation() {
        let mut s = switch_2_1();
        assert!(s.set_capacity(VsnId(10), 0));
        assert_eq!(s.healthy_capacity(), 1);
        for _ in 0..10 {
            let v = route_vsn(&mut s).unwrap();
            assert_eq!(v, VsnId(11), "zero-capacity backend gets no traffic");
            s.complete(v, SimDuration::from_millis(1), SimTime::ZERO);
        }
        // Both at zero: nothing routes, drops count.
        assert!(s.set_capacity(VsnId(11), 0));
        assert_eq!(s.route(SimTime::ZERO), None);
        assert_eq!(s.dropped(), 1);
        s.assert_cache_coherent();
    }

    #[test]
    fn policy_replacement_mid_flight_preserves_outstanding_accounting() {
        let mut s = switch_2_1();
        let a = route_vsn(&mut s).unwrap();
        let b = route_vsn(&mut s).unwrap();
        assert_eq!(s.total_outstanding(), 2);
        // Swap the policy while both requests are in flight.
        s.replace_policy(Box::new(LeastConnections::new()));
        // In-flight work completes against the same books.
        s.complete(a, SimDuration::from_millis(2), SimTime::ZERO);
        s.complete(b, SimDuration::from_millis(2), SimTime::ZERO);
        assert_eq!(s.total_outstanding(), 0);
        assert_eq!(s.total_served(), 2);
        // And the new policy routes with the view cache intact.
        assert!(route_vsn(&mut s).is_some());
        s.assert_cache_coherent();
    }
}
