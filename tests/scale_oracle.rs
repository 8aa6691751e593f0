//! Differential oracle tests for the scale-out hot paths.
//!
//! Each indexed fast path is driven side-by-side with a deliberately
//! naive model of the behaviour it replaced, over randomized op
//! sequences, and must agree bit-for-bit:
//!
//! * `InflightTable` (host-major primary + VSN secondary index) vs a
//!   plain scan-everything map — same membership, same drain order;
//! * heap-indexed best/worst-fit placement vs the original O(n·H)
//!   linear scan — same hosts, same counts, same order;
//! * alloc-free switch routing (incremental view cache) vs a policy fed
//!   a freshly rebuilt view vector every request — same picks, and the
//!   incremental aggregates match a from-scratch recompute after every
//!   mutation (`assert_cache_coherent`).

use std::collections::BTreeMap;

use proptest::prelude::*;
use soda::core::arena::{IdMap, RequestTable};
use soda::core::inflight::InflightTable;
use soda::core::placement::{oracle, BestFit, PlacementPolicy, WorstFit};
use soda::core::policy::{BackendView, SwitchPolicy, WeightedRoundRobin};
use soda::core::service::ServiceId;
use soda::core::switch::ServiceSwitch;
use soda::hostos::resources::ResourceVector;
use soda::hup::host::HostId;
use soda::net::link::FlowId;
use soda::sim::{SimDuration, SimTime};
use soda::vmm::vsn::VsnId;

// ---------------------------------------------------------------------
// InflightTable vs naive scan-everything map
// ---------------------------------------------------------------------

/// The pre-index shape: one map, bulk removals by full scan.
#[derive(Default)]
struct NaiveInflight {
    flows: BTreeMap<(HostId, FlowId), (Option<VsnId>, u32)>,
}

impl NaiveInflight {
    fn insert(&mut self, host: HostId, flow: FlowId, vsn: Option<VsnId>, payload: u32) {
        self.flows.insert((host, flow), (vsn, payload));
    }
    fn remove(&mut self, host: HostId, flow: FlowId) -> Option<u32> {
        self.flows.remove(&(host, flow)).map(|(_, p)| p)
    }
    fn drain_host(&mut self, host: HostId) -> Vec<((HostId, FlowId), u32)> {
        let keys: Vec<_> = self
            .flows
            .keys()
            .filter(|(h, _)| *h == host)
            .copied()
            .collect();
        keys.into_iter()
            .map(|k| (k, self.flows.remove(&k).expect("enumerated").1))
            .collect()
    }
    fn drain_vsn(&mut self, vsn: VsnId) -> Vec<((HostId, FlowId), u32)> {
        let keys: Vec<_> = self
            .flows
            .iter()
            .filter(|(_, (v, _))| *v == Some(vsn))
            .map(|(k, _)| *k)
            .collect();
        keys.into_iter()
            .map(|k| (k, self.flows.remove(&k).expect("enumerated").1))
            .collect()
    }
}

proptest! {
    /// Random insert/remove/drain sequences: the indexed table and the
    /// naive map agree on every return value (payloads AND order) and
    /// on the final contents, and the VSN index never drifts.
    #[test]
    fn inflight_table_matches_naive_scans(
        ops in proptest::collection::vec(
            (0u8..4, 0u32..4, 0u64..12, 0u64..4), 0..120)
    ) {
        let mut fast: InflightTable<u32> = InflightTable::new();
        let mut naive = NaiveInflight::default();
        for (i, &(op, host, flow, vsn)) in ops.iter().enumerate() {
            let host = HostId(host);
            let flow = FlowId(flow);
            match op {
                0 => {
                    // Tag roughly half the flows with a VSN, like real
                    // response flows among downloads/floods.
                    let tag = (vsn > 0).then_some(VsnId(vsn));
                    let payload = i as u32;
                    fast.insert(host, flow, tag, payload);
                    naive.insert(host, flow, tag, payload);
                }
                1 => {
                    prop_assert_eq!(fast.remove(host, flow), naive.remove(host, flow));
                }
                2 => {
                    prop_assert_eq!(fast.drain_host(host), naive.drain_host(host));
                }
                _ => {
                    prop_assert_eq!(
                        fast.drain_vsn(VsnId(vsn)),
                        naive.drain_vsn(VsnId(vsn))
                    );
                }
            }
            fast.assert_coherent();
            prop_assert_eq!(fast.len(), naive.flows.len());
        }
        let fast_all: Vec<((HostId, FlowId), u32)> =
            fast.iter().map(|(k, p)| (k, *p)).collect();
        let naive_all: Vec<((HostId, FlowId), u32)> =
            naive.flows.iter().map(|(k, (_, p))| (*k, *p)).collect();
        prop_assert_eq!(fast_all, naive_all);
    }
}

// ---------------------------------------------------------------------
// Dense arena world storage vs a plain ordered map
// ---------------------------------------------------------------------

proptest! {
    /// Random world-shaped lifecycle interleavings — host add / crash /
    /// repair (insert, remove, re-insert of the *same* id, so freed
    /// slots get reused), VSN place / retag / scrub (insert, in-place
    /// mutate, remove), plus bulk `retain` sweeps like the recovery
    /// scrub — driven side-by-side through the `IdMap` slab and a plain
    /// `BTreeMap`. Every return value, every length, the `retain` visit
    /// order and the final ascending-order iteration must agree
    /// bit-for-bit.
    #[test]
    fn idmap_lifecycle_matches_map_oracle(
        stride in 1u64..4,
        lane in 0u64..4,
        ops in proptest::collection::vec((0u8..5, 0u64..14, 0u32..100), 0..160)
    ) {
        let lane = lane % stride;
        let mut arena: IdMap<VsnId, u32> = IdMap::new();
        arena.set_stride(stride);
        let mut map: BTreeMap<VsnId, u32> = BTreeMap::new();
        // Ids live in one allocation lane: congruent modulo `stride`,
        // exactly the shape PR 8's id-lane striping hands each cell.
        let id = |slot: u64| VsnId(lane + 1 + slot * stride);
        for &(op, slot, val) in &ops {
            let k = id(slot);
            match op {
                // place / repair (re-inserting a previously crashed id
                // reuses its freed slot)
                0 | 1 => {
                    prop_assert_eq!(arena.insert(k, val), map.insert(k, val));
                }
                // crash / scrub
                2 => {
                    prop_assert_eq!(arena.remove(&k), map.remove(&k));
                }
                // retag in place
                3 => {
                    let a = arena.get_mut(&k).map(|v| { *v += 1; *v });
                    let b = map.get_mut(&k).map(|v| { *v += 1; *v });
                    prop_assert_eq!(a, b);
                }
                // recovery sweep: drop every odd payload, and the
                // visit order itself must be ascending in both
                _ => {
                    let mut seen_a = Vec::new();
                    arena.retain(|k, v| { seen_a.push(k); *v % 2 == 0 });
                    let mut seen_m = Vec::new();
                    map.retain(|k, v| { seen_m.push(*k); *v % 2 == 0 });
                    prop_assert_eq!(seen_a, seen_m);
                }
            }
            prop_assert_eq!(arena.len(), map.len());
            prop_assert_eq!(arena.get(&k), map.get(&k));
        }
        let a: Vec<(VsnId, u32)> = arena.iter().map(|(k, v)| (k, *v)).collect();
        let m: Vec<(VsnId, u32)> = map.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(a, m);
    }

    /// Request open / complete / abort against the ring: ids are
    /// allocated monotonically (the world's `RequestId` counter), and
    /// completions/aborts land in random order, so the ring's
    /// leading-empty compaction is exercised hard. A plain `BTreeMap`
    /// must agree on every removal and lookup.
    #[test]
    fn request_table_window_matches_map_oracle(
        ops in proptest::collection::vec((0u8..3, 0usize..8), 1..200)
    ) {
        let mut arena: RequestTable<VsnId, u64> = RequestTable::new();
        let mut map: BTreeMap<VsnId, u64> = BTreeMap::new();
        let mut next = 1u64;
        let mut open: Vec<u64> = Vec::new();
        for &(op, pick) in &ops {
            match op {
                // open: the next monotonic id
                0 => {
                    let k = VsnId(next);
                    prop_assert_eq!(arena.insert(k, next * 7), map.insert(k, next * 7));
                    open.push(next);
                    next += 1;
                }
                // complete/abort: some open request, or a known-closed
                // id when none are open (both must return None)
                _ => {
                    let d = if open.is_empty() {
                        next.saturating_sub(1).max(1)
                    } else {
                        open.swap_remove(pick % open.len())
                    };
                    let k = VsnId(d);
                    prop_assert_eq!(arena.remove(&k), map.remove(&k));
                    prop_assert_eq!(arena.remove(&k), None, "double-complete");
                }
            }
            prop_assert_eq!(arena.len(), map.len());
            prop_assert_eq!(arena.is_empty(), map.is_empty());
        }
        for d in 1..next {
            let k = VsnId(d);
            prop_assert_eq!(arena.get(&k), map.get(&k));
        }
    }
}

// ---------------------------------------------------------------------
// Indexed placement vs the original linear scan
// ---------------------------------------------------------------------

proptest! {
    /// Worst-fit and best-fit over the ordered headroom index make the
    /// same decisions as the naive per-instance scan, across random
    /// fleets (including hosts with zero headroom and infeasible
    /// demands).
    #[test]
    fn heap_placement_matches_linear_scan(
        n in 0u32..20,
        hosts in proptest::collection::vec((0u32..8, 0u32..8, 0u32..8, 0u32..8), 0..10)
    ) {
        let m = ResourceVector::new(512, 256, 1024, 10);
        let host_list: Vec<(HostId, ResourceVector)> = hosts
            .iter()
            .enumerate()
            .map(|(i, &(a, b, c, d))| {
                (HostId(i as u32),
                 ResourceVector::new(512 * a, 256 * b, 1024 * c, 10 * d))
            })
            .collect();
        prop_assert_eq!(
            WorstFit.place(n, &m, &host_list),
            oracle::one_at_a_time_naive(n, &m, &host_list, true)
        );
        prop_assert_eq!(
            BestFit.place(n, &m, &host_list),
            oracle::one_at_a_time_naive(n, &m, &host_list, false)
        );
    }
}

// ---------------------------------------------------------------------
// Alloc-free switch routing vs naively rebuilt views
// ---------------------------------------------------------------------

/// Mirror of the switch's backend state, maintained the naive way: a
/// fresh `Vec<BackendView>` is materialised for every routing decision.
struct NaiveSwitch {
    backends: Vec<(VsnId, BackendView, u64)>, // (vsn, view, served)
    policy: WeightedRoundRobin,
    ewma_alpha: f64,
}

impl NaiveSwitch {
    fn route(&mut self) -> Option<usize> {
        let views: Vec<BackendView> = self.backends.iter().map(|&(_, v, _)| v).collect();
        let i = self.policy.pick(&views)?;
        if i < self.backends.len() {
            self.backends[i].1.outstanding += 1;
            Some(i)
        } else {
            None
        }
    }
    fn complete(&mut self, vsn: VsnId, rt_secs: f64) {
        if let Some((_, v, served)) = self.backends.iter_mut().find(|(b, _, _)| *b == vsn) {
            v.outstanding = v.outstanding.saturating_sub(1);
            *served += 1;
            v.ewma_response = if *served == 1 {
                rt_secs
            } else {
                (1.0 - self.ewma_alpha) * v.ewma_response + self.ewma_alpha * rt_secs
            };
        }
    }
    fn abort(&mut self, vsn: VsnId) {
        if let Some((_, v, _)) = self.backends.iter_mut().find(|(b, _, _)| *b == vsn) {
            v.outstanding = v.outstanding.saturating_sub(1);
        }
    }
}

proptest! {
    /// Random op sequences (route, complete, abort, add/remove backend,
    /// capacity and health flips): the cached-view switch and the
    /// rebuild-every-time mirror pick the same backends in the same
    /// order, and the switch's incremental aggregates survive a
    /// from-scratch recompute after every single op.
    #[test]
    fn switch_view_cache_matches_rebuilt_views(
        ops in proptest::collection::vec((0u8..7, 0u64..6, 0u32..5), 1..150)
    ) {
        let mut sw = ServiceSwitch::new(ServiceId(1), VsnId(1));
        let mut naive = NaiveSwitch {
            backends: Vec::new(),
            policy: WeightedRoundRobin::new(),
            ewma_alpha: 0.2,
        };
        let mut next_vsn = 1u64;
        for &(op, target, cap) in &ops {
            match op {
                // Three of the seven op codes route, so routing
                // dominates the sequence the way it dominates the sim.
                0..=2 => {
                    let got = sw.route(SimTime::ZERO);
                    let want = naive.route();
                    prop_assert_eq!(got, want, "divergent pick");
                    if let Some(i) = got {
                        // Complete or abort immediately with a varying
                        // response time so EWMA feedback stays in play.
                        let vsn = sw.backends()[i].vsn;
                        if target % 2 == 0 {
                            let ms = 1 + target;
                            sw.complete(vsn, SimDuration::from_millis(ms), SimTime::ZERO);
                            naive.complete(vsn, ms as f64 / 1e3);
                        } else {
                            sw.abort(vsn, SimTime::ZERO);
                            naive.abort(vsn);
                        }
                    }
                }
                3 => {
                    // Add a backend (bounded so removal arms can bite).
                    if sw.backends().len() < 6 {
                        let vsn = VsnId(next_vsn);
                        next_vsn += 1;
                        let ip: soda::net::addr::Ipv4Addr =
                            format!("10.0.0.{next_vsn}").parse().expect("valid");
                        sw.add_backend(vsn, ip, 8080, cap);
                        naive.backends.push((
                            vsn,
                            BackendView {
                                capacity: cap,
                                healthy: true,
                                outstanding: 0,
                                ewma_response: 0.0,
                            },
                            0,
                        ));
                    }
                }
                4 => {
                    let vsn = VsnId(target);
                    prop_assert_eq!(
                        sw.remove_backend(vsn),
                        {
                            let pos = naive.backends.iter().position(|(b, _, _)| *b == vsn);
                            if let Some(p) = pos { naive.backends.remove(p); }
                            pos.is_some()
                        }
                    );
                }
                5 => {
                    let vsn = VsnId(target);
                    sw.set_capacity(vsn, cap);
                    if let Some((_, v, _)) =
                        naive.backends.iter_mut().find(|(b, _, _)| *b == vsn)
                    {
                        v.capacity = cap;
                    }
                }
                _ => {
                    let vsn = VsnId(target);
                    let healthy = cap % 2 == 0;
                    sw.set_health(vsn, healthy);
                    if let Some((_, v, _)) =
                        naive.backends.iter_mut().find(|(b, _, _)| *b == vsn)
                    {
                        v.healthy = healthy;
                    }
                }
            }
            sw.assert_cache_coherent();
            // The healthy-capacity aggregate the Master's recovery loop
            // reads must equal the naive sum at every step.
            let naive_healthy: u32 = naive
                .backends
                .iter()
                .filter(|(_, v, _)| v.healthy)
                .map(|(_, v, _)| v.capacity)
                .sum();
            prop_assert_eq!(sw.healthy_capacity(), naive_healthy);
        }
    }
}
