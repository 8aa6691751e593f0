//! Flow-level link models.
//!
//! [`ProcessorSharingLink`] models the shared 100 Mbps LAN: every active
//! transfer receives an equal share of the link bandwidth, recomputed
//! whenever a flow starts or finishes (the standard fluid approximation
//! of TCP fair sharing on a LAN). [`LinkSpec`] also serves as a simple
//! uncontended calculator — the §4.3 observation that "downloading time
//! grows linearly with the size of the service image" falls straight out
//! of it.
//!
//! # Virtual-time accounting
//!
//! The link is defined on an **integer work grid**: one work unit is the
//! work the link performs in one nanosecond per bit-per-second of
//! capacity, so a flow of `b` bytes needs exactly `b · 8 · 10⁹` units
//! and a link of `C` bps delivers `C` units per nanosecond, split evenly
//! over the `n` active flows. Because every active flow drains at the
//! same rate, the link only tracks one cumulative counter `vwork` — the
//! work each active flow has received since the current busy epoch began
//! — and a flow arriving with `w` units of demand simply finishes when
//! `vwork` crosses its *finish threshold* `vwork + w`. Active flows live
//! in an ordered index keyed by `(threshold, flow id)`:
//!
//! * [`add_flow`](ProcessorSharingLink::add_flow) / [`cancel`](ProcessorSharingLink::cancel)
//!   are O(log n) index updates;
//! * [`next_completion`](ProcessorSharingLink::next_completion) is O(1)
//!   off the minimum threshold;
//! * [`advance`](ProcessorSharingLink::advance) pays O(log n) per
//!   *completion*, not per active flow — under fan-in contention (image
//!   download storms, DDoS floods) the old per-flow scan was the last
//!   O(n) hot path in the simulator.
//!
//! All arithmetic is exact integer math (`u128` intermediates), which is
//! what lets `tests` drive this index and the O(n) scan preserved in
//! [`oracle`] over randomized schedules and require bit-identical
//! `(FlowId, SimTime)` completion sequences — the same differential
//! standard the event-queue and placement oracles set.
//!
//! Two grid choices are load-bearing (see DESIGN.md §10):
//!
//! * completion boundaries round **up** to a whole nanosecond (and at
//!   least 1 ns), so an event-driven owner can never be told to wake at
//!   the current instant while bytes remain;
//! * a partial advance between boundaries credits `⌊C·Δt/n⌋` units —
//!   strictly less than the minimum remaining demand — so no flow can
//!   silently hit zero outside a completion boundary.

use std::collections::{BTreeSet, HashMap};

use soda_sim::{SimDuration, SimTime};

/// Work units per byte: bytes × 8 bits × 10⁹ (the per-nanosecond scale).
const WORK_PER_BYTE: u128 = 8 * 1_000_000_000;

/// Static link characteristics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// Capacity in bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation latency.
    pub latency: SimDuration,
}

impl LinkSpec {
    /// Construct; panics on a non-positive bandwidth.
    pub fn new(bandwidth_bps: f64, latency: SimDuration) -> Self {
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        LinkSpec {
            bandwidth_bps,
            latency,
        }
    }

    /// The testbed's 100 Mbps departmental LAN (~0.2 ms latency).
    pub fn lan_100mbps() -> Self {
        LinkSpec::new(100e6, SimDuration::from_micros(200))
    }

    /// A wide-area link for the federation extension (default 10 Mbps,
    /// 40 ms one-way).
    pub fn wan(bandwidth_mbps: f64, latency: SimDuration) -> Self {
        LinkSpec::new(bandwidth_mbps * 1e6, latency)
    }

    /// The capacity on the integer work grid: whole bits per second,
    /// rounded to nearest (every modelled link is a whole number anyway).
    fn grid_bps(&self) -> u64 {
        (self.bandwidth_bps.round() as u64).max(1)
    }

    /// Serialisation time for `bytes` at full link rate.
    pub fn serialization_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps)
    }

    /// Uncontended one-way transfer time: latency + serialisation.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.latency + self.serialization_time(bytes)
    }
}

/// Identifier of an active flow on a [`ProcessorSharingLink`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// Residual time until `remaining` work units drain with `n` flows
/// sharing `bps`, rounded **up** to a whole nanosecond (and at least
/// 1 ns). Rounding up is load-bearing: rounding down would let
/// `next_completion` return the current instant while the flow still has
/// a sliver of work left, and an event-driven caller would re-arm at the
/// same timestamp forever.
fn finish_delta(remaining: u128, n: u128, bps: u64) -> SimDuration {
    let ns = remaining.saturating_mul(n).div_ceil(u128::from(bps)).max(1);
    SimDuration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
}

/// Work units each of `n` flows receives over `horizon_ns`, rounded
/// down. When the horizon sits strictly inside a completion boundary
/// this is strictly less than the minimum remaining demand, so partial
/// advances can never complete a flow.
fn drained_work(bps: u64, horizon_ns: u64, n: u128) -> u128 {
    (u128::from(bps) * u128::from(horizon_ns)) / n
}

/// A link whose capacity is shared equally among active flows
/// (processor-sharing fluid model), on the virtual-time index described
/// in the module docs.
///
/// ```
/// use soda_net::link::{LinkSpec, ProcessorSharingLink};
/// use soda_sim::{SimDuration, SimTime};
/// // 8 Mbps = 1 MB/s. Two simultaneous 1 MB flows share the link and
/// // both finish at t = 2 s.
/// let mut link = ProcessorSharingLink::new(LinkSpec::new(8e6, SimDuration::ZERO));
/// link.add_flow(1_000_000, SimTime::ZERO);
/// link.add_flow(1_000_000, SimTime::ZERO);
/// link.advance(SimTime::from_secs(10));
/// let done = link.take_completed();
/// assert_eq!(done.len(), 2);
/// assert!(done.iter().all(|&(_, t)| t == SimTime::from_secs(2)));
/// ```
///
/// Driving pattern: the owner calls [`add_flow`](Self::add_flow) when a
/// transfer starts, schedules an engine event at
/// [`next_completion`](Self::next_completion), and in that event calls
/// [`advance`](Self::advance) then drains
/// [`drain_completed_into`](Self::drain_completed_into). Adding a flow
/// changes every flow's rate, so the owner re-arms after each add;
/// `SodaWorld` generation-stamps those wakeups so the superseded ones
/// are dropped on arrival instead of re-walking the link.
#[derive(Clone, Debug)]
pub struct ProcessorSharingLink {
    spec: LinkSpec,
    /// Capacity on the work grid (whole bits per second).
    bps: u64,
    /// Cumulative work each active flow has received since its epoch
    /// began. Reset to zero whenever the link drains idle, so the
    /// counter stays small over arbitrarily long simulations.
    vwork: u128,
    /// Active flows, ordered by `(finish threshold, flow id)`. Ids are
    /// issued in arrival order, so equal thresholds complete FIFO.
    active: BTreeSet<(u128, u64)>,
    /// Flow id → finish threshold, for O(log n) cancellation.
    thresholds: HashMap<u64, u128>,
    completed: Vec<(FlowId, SimTime)>,
    last_update: SimTime,
    next_id: u64,
}

impl ProcessorSharingLink {
    /// An idle link.
    pub fn new(spec: LinkSpec) -> Self {
        ProcessorSharingLink {
            bps: spec.grid_bps(),
            spec,
            vwork: 0,
            active: BTreeSet::new(),
            thresholds: HashMap::new(),
            completed: Vec::new(),
            last_update: SimTime::ZERO,
            next_id: 1,
        }
    }

    /// The link's static characteristics.
    pub fn spec(&self) -> LinkSpec {
        self.spec
    }

    /// Advance the fluid state to `now`, moving any flows that finish on
    /// the way into the completed list (with their finish times on the
    /// nanosecond grid). Cost: O(log n) per completion, O(1) otherwise.
    pub fn advance(&mut self, now: SimTime) {
        while let Some(&(t_min, _)) = self.active.first() {
            if self.last_update >= now {
                break;
            }
            let n = self.active.len() as u128;
            let remaining = t_min - self.vwork;
            let finish = self.last_update + finish_delta(remaining, n, self.bps);
            if finish <= now {
                // The minimum-threshold flows (ties complete together,
                // FIFO by id) drain exactly `remaining` units each; so
                // does everyone else, via the shared counter.
                self.vwork = t_min;
                while let Some(&(t, id)) = self.active.first() {
                    if t != t_min {
                        break;
                    }
                    self.active.pop_first();
                    self.thresholds.remove(&id);
                    self.completed.push((FlowId(id), finish));
                }
                self.last_update = finish;
                if self.active.is_empty() {
                    // Epoch reset: an idle link forgets its history, so
                    // `vwork` stays bounded by one busy period.
                    self.vwork = 0;
                }
            } else {
                let horizon = now.saturating_since(self.last_update).as_nanos();
                self.vwork += drained_work(self.bps, horizon, n);
                self.last_update = now;
            }
        }
        if self.last_update < now {
            self.last_update = now;
        }
    }

    /// Start a transfer of `bytes` at `now`. Zero-byte flows complete
    /// immediately.
    pub fn add_flow(&mut self, bytes: u64, now: SimTime) -> FlowId {
        self.advance(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        if bytes == 0 {
            self.completed.push((id, now));
        } else {
            let threshold = self.vwork + u128::from(bytes) * WORK_PER_BYTE;
            self.active.insert((threshold, id.0));
            self.thresholds.insert(id.0, threshold);
        }
        id
    }

    /// Abort an active flow (e.g. the requester crashed). Returns true if
    /// the flow was active.
    pub fn cancel(&mut self, id: FlowId, now: SimTime) -> bool {
        self.advance(now);
        match self.thresholds.remove(&id.0) {
            Some(threshold) => {
                self.active.remove(&(threshold, id.0));
                if self.active.is_empty() {
                    self.vwork = 0;
                }
                true
            }
            None => false,
        }
    }

    /// The absolute time the earliest active flow will finish if no new
    /// flows arrive. `None` when idle. O(1).
    pub fn next_completion(&self) -> Option<SimTime> {
        let &(t_min, _) = self.active.first()?;
        let n = self.active.len() as u128;
        Some(self.last_update + finish_delta(t_min - self.vwork, n, self.bps))
    }

    /// Drain flows that have finished (exact finish times attached) into
    /// `out`, appending in completion order and leaving the internal
    /// buffer empty but with its capacity intact — the warm path
    /// allocates nothing. The *delivery* time at the receiver is
    /// finish + `spec.latency`.
    pub fn drain_completed_into(&mut self, out: &mut Vec<(FlowId, SimTime)>) {
        out.append(&mut self.completed);
    }

    /// Like [`drain_completed_into`](Self::drain_completed_into), but
    /// allocates a fresh `Vec` per call. Convenient for tests and
    /// one-shot calculators; the event-driven hot path uses the draining
    /// form with a reused buffer.
    pub fn take_completed(&mut self) -> Vec<(FlowId, SimTime)> {
        std::mem::take(&mut self.completed)
    }

    /// True if completed flows are waiting to be drained.
    pub fn has_completed(&self) -> bool {
        !self.completed.is_empty()
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.active.len()
    }

    /// The cumulative per-flow work counter (test hook: epoch resets).
    #[cfg(test)]
    fn virtual_work(&self) -> u128 {
        self.vwork
    }
}

/// The pre-index implementation: per-flow residual work and an O(n) scan
/// per completion boundary (`advance` is O(k·n) for k completions, and
/// every mutation pays a full-scan `advance`). Preserved as the
/// **differential oracle** for [`ProcessorSharingLink`]: it computes on
/// the same integer work grid with the same `finish_delta` /
/// `drained_work` arithmetic, so the proptests can require bit-exact
/// `(FlowId, SimTime)` agreement rather than chasing f64 ulps — the
/// precedent the event-queue and placement oracles set.
pub mod oracle {
    use super::{drained_work, finish_delta, FlowId, LinkSpec, WORK_PER_BYTE};
    use soda_sim::SimTime;

    #[derive(Clone, Debug)]
    struct Flow {
        id: FlowId,
        remaining: u128,
    }

    /// A processor-sharing link on the naive per-flow representation.
    #[derive(Clone, Debug)]
    pub struct ProcessorSharingLink {
        spec: LinkSpec,
        bps: u64,
        flows: Vec<Flow>,
        completed: Vec<(FlowId, SimTime)>,
        last_update: SimTime,
        next_id: u64,
    }

    impl ProcessorSharingLink {
        /// An idle link.
        pub fn new(spec: LinkSpec) -> Self {
            ProcessorSharingLink {
                bps: spec.grid_bps(),
                spec,
                flows: Vec::new(),
                completed: Vec::new(),
                last_update: SimTime::ZERO,
                next_id: 1,
            }
        }

        /// The link's static characteristics.
        pub fn spec(&self) -> LinkSpec {
            self.spec
        }

        /// Minimum residual work across active flows.
        fn min_remaining(&self) -> u128 {
            self.flows.iter().map(|f| f.remaining).min().unwrap_or(0)
        }

        /// Advance the fluid state to `now`, walking every active flow
        /// per completion boundary.
        pub fn advance(&mut self, now: SimTime) {
            while !self.flows.is_empty() && self.last_update < now {
                let n = self.flows.len() as u128;
                let r_min = self.min_remaining();
                let finish = self.last_update + finish_delta(r_min, n, self.bps);
                if finish <= now {
                    // Every flow drains exactly the minimum residual; the
                    // minimum flows hit zero and complete, FIFO in
                    // arrival (vector) order.
                    let completed = &mut self.completed;
                    self.flows.retain_mut(|f| {
                        f.remaining -= r_min;
                        if f.remaining == 0 {
                            completed.push((f.id, finish));
                            false
                        } else {
                            true
                        }
                    });
                    self.last_update = finish;
                } else {
                    let horizon = now.saturating_since(self.last_update).as_nanos();
                    let drained = drained_work(self.bps, horizon, n);
                    for f in &mut self.flows {
                        f.remaining -= drained;
                    }
                    self.last_update = now;
                }
            }
            if self.last_update < now {
                self.last_update = now;
            }
        }

        /// Start a transfer of `bytes` at `now`.
        pub fn add_flow(&mut self, bytes: u64, now: SimTime) -> FlowId {
            self.advance(now);
            let id = FlowId(self.next_id);
            self.next_id += 1;
            if bytes == 0 {
                self.completed.push((id, now));
            } else {
                self.flows.push(Flow {
                    id,
                    remaining: u128::from(bytes) * WORK_PER_BYTE,
                });
            }
            id
        }

        /// Abort an active flow. Returns true if the flow was active.
        pub fn cancel(&mut self, id: FlowId, now: SimTime) -> bool {
            self.advance(now);
            let before = self.flows.len();
            self.flows.retain(|f| f.id != id);
            self.flows.len() != before
        }

        /// The absolute time the earliest active flow will finish if no
        /// new flows arrive. `None` when idle.
        pub fn next_completion(&self) -> Option<SimTime> {
            if self.flows.is_empty() {
                return None;
            }
            let n = self.flows.len() as u128;
            Some(self.last_update + finish_delta(self.min_remaining(), n, self.bps))
        }

        /// Drain flows that have finished.
        pub fn take_completed(&mut self) -> Vec<(FlowId, SimTime)> {
            std::mem::take(&mut self.completed)
        }

        /// Number of active flows.
        pub fn active_flows(&self) -> usize {
            self.flows.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mbps(m: f64) -> LinkSpec {
        LinkSpec::new(m * 1e6, SimDuration::ZERO)
    }

    #[test]
    fn uncontended_transfer_is_linear_in_size() {
        let lan = LinkSpec::lan_100mbps();
        // 100 Mbps = 12.5 MB/s: 125 MB takes 10 s + latency.
        let t = lan.transfer_time(125_000_000);
        assert!((t.as_secs_f64() - 10.0002).abs() < 1e-6, "{t}");
        // Linearity: doubling size doubles serialisation exactly.
        let a = lan.serialization_time(10_000_000).as_nanos();
        let b = lan.serialization_time(20_000_000).as_nanos();
        assert_eq!(b, 2 * a);
    }

    #[test]
    fn single_flow_runs_at_full_rate() {
        let mut l = ProcessorSharingLink::new(mbps(8.0)); // 1 MB/s
        let id = l.add_flow(1_000_000, SimTime::ZERO);
        assert_eq!(l.next_completion(), Some(SimTime::from_secs(1)));
        l.advance(SimTime::from_secs(2));
        let done = l.take_completed();
        assert_eq!(done, vec![(id, SimTime::from_secs(1))]);
        assert_eq!(l.active_flows(), 0);
    }

    #[test]
    fn two_flows_share_evenly() {
        let mut l = ProcessorSharingLink::new(mbps(8.0)); // 1 MB/s
        let a = l.add_flow(1_000_000, SimTime::ZERO);
        let b = l.add_flow(1_000_000, SimTime::ZERO);
        // Equal flows at half rate each: both finish at t=2 s.
        l.advance(SimTime::from_secs(3));
        let done = l.take_completed();
        assert_eq!(done.len(), 2);
        for (id, t) in done {
            assert!(id == a || id == b);
            assert_eq!(t, SimTime::from_secs(2));
        }
    }

    #[test]
    fn late_flow_slows_earlier_flow() {
        let mut l = ProcessorSharingLink::new(mbps(8.0)); // 1 MB/s
        let a = l.add_flow(1_000_000, SimTime::ZERO);
        // At t=0.5 s flow a has 0.5 MB left; a second flow arrives.
        let b = l.add_flow(1_000_000, SimTime::from_millis(500));
        // Now each runs at 0.5 MB/s: a needs 1 more second (t=1.5),
        // then b runs alone with 0.5 MB left at 1 MB/s → t=2.0.
        l.advance(SimTime::from_secs(3));
        let done = l.take_completed();
        assert_eq!(done[0], (a, SimTime::from_millis(1_500)));
        assert_eq!(done[1], (b, SimTime::from_secs(2)));
    }

    #[test]
    fn zero_byte_flow_completes_instantly() {
        let mut l = ProcessorSharingLink::new(mbps(1.0));
        let id = l.add_flow(0, SimTime::from_secs(5));
        assert!(l.has_completed());
        let done = l.take_completed();
        assert_eq!(done, vec![(id, SimTime::from_secs(5))]);
        assert!(!l.has_completed());
    }

    #[test]
    fn cancel_removes_flow_and_speeds_up_rest() {
        let mut l = ProcessorSharingLink::new(mbps(8.0)); // 1 MB/s
        let a = l.add_flow(1_000_000, SimTime::ZERO);
        let b = l.add_flow(1_000_000, SimTime::ZERO);
        assert!(l.cancel(a, SimTime::from_millis(500)));
        assert!(!l.cancel(a, SimTime::from_millis(500)));
        // b had 750 kB left at 0.5 s, now alone at 1 MB/s → 1.25 s.
        l.advance(SimTime::from_secs(2));
        let done = l.take_completed();
        assert_eq!(done, vec![(b, SimTime::from_millis(1_250))]);
    }

    #[test]
    fn advance_is_idempotent_at_same_time() {
        let mut l = ProcessorSharingLink::new(mbps(8.0));
        l.add_flow(1_000_000, SimTime::ZERO);
        l.advance(SimTime::from_millis(400));
        l.advance(SimTime::from_millis(400));
        assert_eq!(l.active_flows(), 1);
        assert_eq!(l.next_completion(), Some(SimTime::from_secs(1)));
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_panics() {
        LinkSpec::new(0.0, SimDuration::ZERO);
    }

    #[test]
    fn cancel_last_flow_then_next_completion_is_none() {
        let mut l = ProcessorSharingLink::new(mbps(8.0));
        let a = l.add_flow(500_000, SimTime::ZERO);
        assert!(l.next_completion().is_some());
        assert!(l.cancel(a, SimTime::from_millis(100)));
        assert_eq!(l.next_completion(), None);
        assert_eq!(l.active_flows(), 0);
        // The link is genuinely idle: a later flow runs at full rate.
        let b = l.add_flow(1_000_000, SimTime::from_secs(1));
        assert_eq!(l.next_completion(), Some(SimTime::from_secs(2)));
        l.advance(SimTime::from_secs(3));
        assert_eq!(l.take_completed(), vec![(b, SimTime::from_secs(2))]);
    }

    #[test]
    fn same_tick_completions_drain_in_fifo_order() {
        let mut l = ProcessorSharingLink::new(mbps(8.0));
        // Three identical flows arrive together: they share one finish
        // threshold and must complete at one boundary, in arrival order.
        let ids: Vec<FlowId> = (0..3).map(|_| l.add_flow(400_000, SimTime::ZERO)).collect();
        l.advance(SimTime::from_secs(10));
        let done = l.take_completed();
        assert_eq!(done.len(), 3);
        let t0 = done[0].1;
        assert!(done.iter().all(|&(_, t)| t == t0), "one shared tick");
        assert_eq!(
            done.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            ids,
            "FIFO within the tick"
        );
    }

    #[test]
    fn add_after_long_idle_resets_epoch() {
        let mut l = ProcessorSharingLink::new(mbps(8.0));
        l.add_flow(1_000_000, SimTime::ZERO);
        l.advance(SimTime::from_secs(5));
        assert_eq!(l.take_completed().len(), 1);
        assert_eq!(l.virtual_work(), 0, "idle link resets its work epoch");
        // Years of idle time later, a new flow starts a fresh epoch and
        // completes exactly one serialization time after its arrival.
        let idle_until = SimTime::from_secs(3_000_000_000); // ~95 years
        l.advance(idle_until);
        let b = l.add_flow(1_000_000, idle_until);
        assert_eq!(
            l.next_completion(),
            Some(idle_until + SimDuration::from_secs(1))
        );
        l.advance(idle_until + SimDuration::from_secs(2));
        assert_eq!(
            l.take_completed(),
            vec![(b, idle_until + SimDuration::from_secs(1))]
        );
        assert_eq!(l.virtual_work(), 0);
    }

    #[test]
    fn cancel_of_already_completed_id_is_false() {
        let mut l = ProcessorSharingLink::new(mbps(8.0));
        let a = l.add_flow(1_000, SimTime::ZERO);
        l.advance(SimTime::from_secs(1));
        assert_eq!(l.take_completed().len(), 1);
        assert!(!l.cancel(a, SimTime::from_secs(1)), "completed, not active");
        // Unknown ids are equally inert.
        assert!(!l.cancel(FlowId(999), SimTime::from_secs(1)));
    }

    #[test]
    fn drain_completed_into_reuses_buffer() {
        let mut l = ProcessorSharingLink::new(mbps(8.0));
        let a = l.add_flow(1_000, SimTime::ZERO);
        l.advance(SimTime::from_secs(1));
        let mut buf = Vec::new();
        l.drain_completed_into(&mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].0, a);
        assert!(!l.has_completed());
        buf.clear();
        l.drain_completed_into(&mut buf);
        assert!(buf.is_empty());
    }

    // -----------------------------------------------------------------
    // Differential schedule driver: the indexed link vs the O(n) oracle.
    // -----------------------------------------------------------------

    /// One step of a randomized schedule.
    #[derive(Clone, Debug)]
    enum Op {
        /// Start a flow of this many bytes (0 = instant completion).
        Add(u64),
        /// Cancel the k-th id issued so far (may already be done).
        Cancel(usize),
        /// Advance the clock by this many nanoseconds.
        Advance(u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Arms repeated to weight adds over cancels (the shim's
        // `prop_oneof!` picks arms uniformly).
        prop_oneof![
            (0u64..5_000_000).prop_map(Op::Add),
            (0u64..5_000_000).prop_map(Op::Add),
            (0u64..5_000_000).prop_map(Op::Add),
            (0usize..64).prop_map(Op::Cancel),
            // Horizons spanning sub-boundary creeps, mid-transfer jumps,
            // and epoch-resetting idles (≫ any completion time).
            (1u64..1_000).prop_map(Op::Advance),
            (1u64..1_000_000_000).prop_map(Op::Advance),
            (1u64..4_000_000_000_000).prop_map(Op::Advance),
        ]
    }

    /// Replay `ops` against both implementations, checking the observable
    /// state after every step and the full completion sequences at the
    /// end. Returns the indexed link's completion sequence.
    fn run_differential(spec: LinkSpec, ops: &[Op]) -> Vec<(FlowId, SimTime)> {
        let mut indexed = ProcessorSharingLink::new(spec);
        let mut naive = oracle::ProcessorSharingLink::new(spec);
        let mut now = SimTime::ZERO;
        let mut issued = Vec::new();
        let mut done_indexed = Vec::new();
        let mut done_naive = Vec::new();
        for op in ops {
            match *op {
                Op::Add(bytes) => {
                    let a = indexed.add_flow(bytes, now);
                    let b = naive.add_flow(bytes, now);
                    assert_eq!(a, b, "id streams must match");
                    issued.push(a);
                }
                Op::Cancel(k) => {
                    if !issued.is_empty() {
                        let id = issued[k % issued.len()];
                        assert_eq!(indexed.cancel(id, now), naive.cancel(id, now));
                    }
                }
                Op::Advance(dt) => {
                    now += SimDuration::from_nanos(dt);
                    indexed.advance(now);
                    naive.advance(now);
                }
            }
            assert_eq!(indexed.active_flows(), naive.active_flows());
            assert_eq!(indexed.next_completion(), naive.next_completion());
            indexed.drain_completed_into(&mut done_indexed);
            done_naive.extend(naive.take_completed());
        }
        // Run far past any possible completion.
        let horizon = now + SimDuration::from_secs(1_000_000);
        indexed.advance(horizon);
        naive.advance(horizon);
        indexed.drain_completed_into(&mut done_indexed);
        done_naive.extend(naive.take_completed());
        assert_eq!(indexed.active_flows(), 0);
        assert_eq!(naive.active_flows(), 0);
        assert_eq!(
            done_indexed, done_naive,
            "completion sequences must be identical on the ns grid"
        );
        done_indexed
    }

    proptest! {
        /// The virtual-time index and the O(n) oracle produce identical
        /// `(FlowId, SimTime)` completion sequences over randomized
        /// add/cancel/advance schedules, including boundary-straddling
        /// advances and epoch-resetting idles.
        #[test]
        fn prop_indexed_matches_oracle(
            ops in proptest::collection::vec(op_strategy(), 1..80)
        ) {
            run_differential(mbps(100.0), &ops);
        }

        /// Same differential on an odd (non-round) bandwidth, where the
        /// per-flow shares are maximally non-exact divisions.
        #[test]
        fn prop_indexed_matches_oracle_odd_bandwidth(
            ops in proptest::collection::vec(op_strategy(), 1..60)
        ) {
            run_differential(LinkSpec::new(9_999_991.0, SimDuration::ZERO), &ops);
        }

        /// Conservation: every flow added over a schedule of staggered
        /// arrivals eventually completes, exactly once.
        #[test]
        fn prop_all_flows_complete(
            flows in proptest::collection::vec(
                // (bytes, arrival gap in ns): gaps accumulate, so
                // arrivals are non-decreasing — `add_flow` advances the
                // clock monotonically, and a "past" arrival would
                // silently clamp to the link's own `last_update`.
                (1u64..5_000_000, 0u64..3_000_000_000),
                1..20,
            )
        ) {
            let mut l = ProcessorSharingLink::new(mbps(100.0));
            let mut expected = Vec::new();
            let mut at = SimTime::ZERO;
            for &(bytes, gap_ns) in &flows {
                at += SimDuration::from_nanos(gap_ns);
                expected.push(l.add_flow(bytes, at));
            }
            // Run far past any possible completion.
            l.advance(at + SimDuration::from_secs(100_000));
            let mut done = l.take_completed();
            prop_assert_eq!(done.len(), expected.len());
            done.sort_by_key(|&(id, _)| id);
            let mut ids: Vec<FlowId> = done.iter().map(|&(id, _)| id).collect();
            ids.sort();
            let mut exp = expected.clone();
            exp.sort();
            prop_assert_eq!(ids, exp);
            prop_assert_eq!(l.active_flows(), 0);
        }

        /// With simultaneous arrivals, completion order matches size
        /// order (processor sharing preserves it).
        #[test]
        fn prop_completion_order_matches_size(
            sizes in proptest::collection::vec(1u64..10_000_000, 2..10)
        ) {
            let mut l = ProcessorSharingLink::new(mbps(100.0));
            let ids: Vec<FlowId> =
                sizes.iter().map(|&b| l.add_flow(b, SimTime::ZERO)).collect();
            l.advance(SimTime::from_secs(100_000));
            let done = l.take_completed();
            // Map id -> finish time.
            for i in 0..sizes.len() {
                for j in 0..sizes.len() {
                    if sizes[i] < sizes[j] {
                        let ti = done.iter().find(|&&(id, _)| id == ids[i]).unwrap().1;
                        let tj = done.iter().find(|&&(id, _)| id == ids[j]).unwrap().1;
                        prop_assert!(ti <= tj);
                    }
                }
            }
        }
    }
}
