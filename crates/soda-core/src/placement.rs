//! Slice placement — mapping `<n, M>` onto HUP hosts.
//!
//! §3.2: "The SODA Master maps the service resource requirement `<n, M>`
//! to `n'` (`n' ≤ n`) virtual service nodes. Our current implementation
//! assumes that (1) service S is fully replicated in each virtual
//! service node and (2) the minimum granularity of each virtual service
//! node is one machine instance M — the capacity of one virtual service
//! node is either one M or a multiple of M."
//!
//! A plan therefore assigns each chosen host at most one node, with an
//! integer number of instances; the node's slice is `instances × M`
//! (no resource aggregation, per footnote 2). Three classic policies are
//! provided; the Master defaults to [`WorstFit`] (spread for balance),
//! which reproduces the paper's Figure 2 layout — 2 M on *seattle*,
//! 1 M on *tacoma* for `<3, M>`.

use std::collections::{BTreeMap, BTreeSet};

use soda_hostos::resources::ResourceVector;
use soda_hup::host::HostId;

/// One planned node: `instances × M` on `host`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodePlan {
    /// Target host.
    pub host: HostId,
    /// Machine instances mapped to this node (≥ 1).
    pub instances: u32,
}

/// A placement algorithm.
pub trait PlacementPolicy: Send {
    /// Place `n` instances of (already slow-down-inflated) `m` on
    /// `hosts` (id + current availability, in roster order). Returns `None`
    /// if the demand cannot be fully placed — admission then fails.
    fn place(
        &self,
        n: u32,
        m: &ResourceVector,
        hosts: &[(HostId, ResourceVector)],
    ) -> Option<Vec<NodePlan>>;

    /// Policy name for experiment output.
    fn name(&self) -> &'static str;

    /// `Some(prefer_most)` when [`PlacementPolicy::place`] is exactly a
    /// headroom-index placement: `Some(true)` = most headroom first
    /// (worst-fit), `Some(false)` = least headroom first (best-fit). The
    /// Master then serves admissions from its persistent headroom
    /// index. `None` (the default) means the policy is not a headroom
    /// scan, and the Master calls `place` on the roster per admission.
    fn headroom_preference(&self) -> Option<bool> {
        None
    }
}

/// First-fit: walk hosts in id order, packing as many instances as fit
/// before moving on. Minimises the number of nodes (and hence switch
/// fan-out) but concentrates load.
#[derive(Clone, Copy, Debug, Default)]
pub struct FirstFit;

impl PlacementPolicy for FirstFit {
    fn place(
        &self,
        n: u32,
        m: &ResourceVector,
        hosts: &[(HostId, ResourceVector)],
    ) -> Option<Vec<NodePlan>> {
        let mut remaining = n;
        let mut plan = Vec::new();
        for &(host, avail) in hosts {
            if remaining == 0 {
                break;
            }
            let fit = avail.instances_of(m).min(remaining);
            if fit > 0 {
                plan.push(NodePlan {
                    host,
                    instances: fit,
                });
                remaining -= fit;
            }
        }
        (remaining == 0).then_some(plan)
    }

    fn name(&self) -> &'static str {
        "first-fit"
    }
}

/// Best-fit: place instances one at a time on the host with the *least*
/// remaining headroom that still fits. Preserves large holes for large
/// future requests.
#[derive(Clone, Copy, Debug, Default)]
pub struct BestFit;

/// Worst-fit: place instances one at a time on the host with the *most*
/// remaining headroom. Spreads load — the Master's default.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorstFit;

/// Best/worst-fit placement state: host availability by roster
/// position plus a headroom-ordered index over it, so placing one
/// instance costs O(log H) where a linear scan costs O(H).
///
/// `BestFit`/`WorstFit` build a fresh index per call; the Master keeps
/// one alive *between* admissions (dropping it whenever availability
/// changes behind its back), which makes the admission hot path
/// O(plan log H) instead of O(H) per service.
///
/// Tie-breaking is positional — the lowest roster position among
/// equal-headroom hosts wins, for both directions — and matches the
/// naive per-instance scan bit-for-bit (pinned by the differential
/// proptest below).
#[derive(Debug)]
pub(crate) struct HeadroomIndex {
    /// The (already inflated) machine slice headroom is counted in.
    pub(crate) m: ResourceVector,
    /// `(host id, availability)` by roster position.
    pub(crate) avail: Vec<(HostId, ResourceVector)>,
    /// `(whole instances of m, roster position)` for hosts with room.
    pub(crate) index: BTreeSet<(u32, usize)>,
}

impl HeadroomIndex {
    /// Index `avail` (roster order) by headroom in whole `m`s.
    pub(crate) fn new(m: ResourceVector, avail: Vec<(HostId, ResourceVector)>) -> Self {
        let index = avail
            .iter()
            .enumerate()
            .filter_map(|(i, &(_, a))| {
                let k = a.instances_of(&m);
                (k > 0).then_some((k, i))
            })
            .collect();
        HeadroomIndex { m, avail, index }
    }

    /// Place `n` instances one at a time on the host with the most
    /// (`prefer_most`) or least headroom, debiting the index as it
    /// goes. The plan lists hosts in roster order. `None` when the
    /// demand does not fit; the index is then partly consumed and must
    /// be dropped.
    pub(crate) fn place(&mut self, n: u32, prefer_most: bool) -> Option<Vec<NodePlan>> {
        let mut picks: BTreeMap<usize, u32> = BTreeMap::new();
        for _ in 0..n {
            let &(k, i) = if prefer_most {
                // Most headroom, lowest position on ties: the max
                // headroom is at the back of the index, but equal-
                // headroom entries sort by position, so take the
                // *first* entry at that key.
                let &(kmax, _) = self.index.last()?;
                self.index
                    .range((kmax, 0)..)
                    .next()
                    .expect("kmax came from the index")
            } else {
                // Least headroom, lowest position on ties: the front.
                self.index.first()?
            };
            self.index.remove(&(k, i));
            self.avail[i].1 -= self.m;
            *picks.entry(i).or_insert(0) += 1;
            let k_next = self.avail[i].1.instances_of(&self.m);
            if k_next > 0 {
                self.index.insert((k_next, i));
            }
        }
        Some(
            picks
                .into_iter()
                .map(|(i, instances)| NodePlan {
                    host: self.avail[i].0,
                    instances,
                })
                .collect(),
        )
    }
}

impl PlacementPolicy for BestFit {
    fn place(
        &self,
        n: u32,
        m: &ResourceVector,
        hosts: &[(HostId, ResourceVector)],
    ) -> Option<Vec<NodePlan>> {
        HeadroomIndex::new(*m, hosts.to_vec()).place(n, false)
    }

    fn name(&self) -> &'static str {
        "best-fit"
    }

    fn headroom_preference(&self) -> Option<bool> {
        Some(false)
    }
}

impl PlacementPolicy for WorstFit {
    fn place(
        &self,
        n: u32,
        m: &ResourceVector,
        hosts: &[(HostId, ResourceVector)],
    ) -> Option<Vec<NodePlan>> {
        HeadroomIndex::new(*m, hosts.to_vec()).place(n, true)
    }

    fn name(&self) -> &'static str {
        "worst-fit"
    }

    fn headroom_preference(&self) -> Option<bool> {
        Some(true)
    }
}

/// Naive reference implementation, kept as a differential-test oracle.
/// Not part of the API; exercised by this module's tests and by
/// `tests/scale_oracle.rs`.
#[doc(hidden)]
pub mod oracle {
    use super::{HostId, NodePlan, ResourceVector};

    /// The original O(n·H) linear-scan best/worst-fit that the
    /// headroom index behind `BestFit`/`WorstFit` must match
    /// decision-for-decision.
    pub fn one_at_a_time_naive(
        n: u32,
        m: &ResourceVector,
        hosts: &[(HostId, ResourceVector)],
        prefer_most_headroom: bool,
    ) -> Option<Vec<NodePlan>> {
        let mut avail: Vec<(HostId, ResourceVector)> = hosts.to_vec();
        let mut counts: Vec<u32> = vec![0; hosts.len()];
        for _ in 0..n {
            let mut best: Option<(usize, u32)> = None;
            for (i, &(_, a)) in avail.iter().enumerate() {
                let k = a.instances_of(m);
                if k == 0 {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((_, bk)) => {
                        if prefer_most_headroom {
                            k > bk
                        } else {
                            k < bk
                        }
                    }
                };
                if better {
                    best = Some((i, k));
                }
            }
            let (i, _) = best?;
            avail[i].1 -= *m;
            counts[i] += 1;
        }
        Some(
            hosts
                .iter()
                .zip(counts)
                .filter(|&(_, k)| k > 0)
                .map(|(&(host, _), instances)| NodePlan { host, instances })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn m() -> ResourceVector {
        ResourceVector::new(512, 256, 1024, 10)
    }

    /// seattle/tacoma-shaped availability: seattle fits 3 M, tacoma 2 M.
    fn testbed() -> Vec<(HostId, ResourceVector)> {
        vec![
            (HostId(1), ResourceVector::new(1800, 1500, 50_000, 80)),
            (HostId(2), ResourceVector::new(1100, 600, 30_000, 60)),
        ]
    }

    #[test]
    fn worst_fit_reproduces_figure2_layout() {
        // <3, M> over seattle+tacoma → 2 M on seattle, 1 M on tacoma.
        let plan = WorstFit.place(3, &m(), &testbed()).unwrap();
        assert_eq!(
            plan,
            vec![
                NodePlan {
                    host: HostId(1),
                    instances: 2
                },
                NodePlan {
                    host: HostId(2),
                    instances: 1
                },
            ]
        );
    }

    #[test]
    fn first_fit_packs_lowest_host() {
        let plan = FirstFit.place(3, &m(), &testbed()).unwrap();
        assert_eq!(
            plan,
            vec![NodePlan {
                host: HostId(1),
                instances: 3
            }]
        );
        let plan4 = FirstFit.place(4, &m(), &testbed()).unwrap();
        assert_eq!(
            plan4,
            vec![
                NodePlan {
                    host: HostId(1),
                    instances: 3
                },
                NodePlan {
                    host: HostId(2),
                    instances: 1
                },
            ]
        );
    }

    #[test]
    fn best_fit_fills_tightest_host_first() {
        let plan = BestFit.place(2, &m(), &testbed()).unwrap();
        assert_eq!(
            plan,
            vec![NodePlan {
                host: HostId(2),
                instances: 2
            }]
        );
    }

    #[test]
    fn all_policies_fail_cleanly_when_demand_exceeds_capacity() {
        for policy in [&FirstFit as &dyn PlacementPolicy, &BestFit, &WorstFit] {
            assert!(
                policy.place(6, &m(), &testbed()).is_none(),
                "{}",
                policy.name()
            );
            assert!(policy.place(1, &m(), &[]).is_none(), "{}", policy.name());
        }
    }

    #[test]
    fn zero_instances_yields_empty_plan() {
        // n = 0 is rejected upstream by the API, but the algorithms
        // degrade gracefully.
        let plan = WorstFit.place(0, &m(), &testbed()).unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn multidimensional_constraint_respected() {
        // A host with plenty of CPU but no bandwidth cannot take a node.
        let hosts = vec![
            (HostId(1), ResourceVector::new(10_000, 10_000, 100_000, 5)),
            (HostId(2), ResourceVector::new(600, 300, 2_000, 100)),
        ];
        let plan = WorstFit.place(1, &m(), &hosts).unwrap();
        assert_eq!(plan[0].host, HostId(2), "bandwidth-starved host skipped");
    }

    #[test]
    fn names() {
        assert_eq!(FirstFit.name(), "first-fit");
        assert_eq!(BestFit.name(), "best-fit");
        assert_eq!(WorstFit.name(), "worst-fit");
    }

    proptest! {
        /// Every successful plan (a) places exactly n instances, (b) has
        /// at most one node per host, and (c) never oversubscribes any
        /// host dimension.
        #[test]
        fn prop_plan_validity(
            n in 1u32..12,
            hosts in proptest::collection::vec((1u32..6, 1u32..6, 1u32..6, 1u32..6), 1..5),
            which in 0usize..3
        ) {
            let m = ResourceVector::new(512, 256, 1024, 10);
            let host_list: Vec<(HostId, ResourceVector)> = hosts
                .iter()
                .enumerate()
                .map(|(i, &(a, b, c, d))| {
                    (HostId(i as u32), ResourceVector::new(512 * a, 256 * b, 1024 * c, 10 * d))
                })
                .collect();
            let policy: &dyn PlacementPolicy = match which {
                0 => &FirstFit,
                1 => &BestFit,
                _ => &WorstFit,
            };
            if let Some(plan) = policy.place(n, &m, &host_list) {
                let total: u32 = plan.iter().map(|p| p.instances).sum();
                prop_assert_eq!(total, n);
                let mut seen = std::collections::HashSet::new();
                for node in &plan {
                    prop_assert!(node.instances >= 1);
                    prop_assert!(seen.insert(node.host), "host used twice");
                    let avail = host_list.iter().find(|&&(id, _)| id == node.host).unwrap().1;
                    prop_assert!(avail.covers(&(m * node.instances)),
                        "{:?} oversubscribed", node.host);
                }
            }
        }

        /// The three policies agree on feasibility (all succeed or all
        /// fail) for single-host pools.
        #[test]
        fn prop_single_host_feasibility(n in 1u32..10, k in 1u32..10) {
            let m = ResourceVector::new(512, 256, 1024, 10);
            let hosts = vec![(HostId(1), m * k)];
            let results: Vec<bool> = [&FirstFit as &dyn PlacementPolicy, &BestFit, &WorstFit]
                .iter()
                .map(|p| p.place(n, &m, &hosts).is_some())
                .collect();
            prop_assert!(results.iter().all(|&r| r == (n <= k)));
        }

        /// Differential oracle: the headroom index — fresh, and behind
        /// the `BestFit`/`WorstFit` policies — and the naive linear scan
        /// make identical decisions (same hosts, same instance counts,
        /// same order) for both fit directions, including ties,
        /// zero-fit hosts, infeasible demands and duplicated host ids.
        #[test]
        fn prop_indexed_matches_naive_scan(
            n in 0u32..20,
            hosts in proptest::collection::vec((0u32..8, 0u32..8, 0u32..8, 0u32..8), 0..11),
            prefer_most in any::<bool>(),
            duplicate_ids in any::<bool>()
        ) {
            let m = ResourceVector::new(512, 256, 1024, 10);
            let host_list: Vec<(HostId, ResourceVector)> = hosts
                .iter()
                .enumerate()
                .map(|(i, &(a, b, c, d))| {
                    // Duplicate ids (i/2) check that tie-breaking is
                    // positional, not id-based.
                    let id = if duplicate_ids { i / 2 } else { i };
                    (HostId(id as u32),
                     ResourceVector::new(512 * a, 256 * b, 1024 * c, 10 * d))
                })
                .collect();
            let naive = oracle::one_at_a_time_naive(n, &m, &host_list, prefer_most);
            let fast = HeadroomIndex::new(m, host_list.clone()).place(n, prefer_most);
            prop_assert_eq!(&fast, &naive);
            let policy: &dyn PlacementPolicy = if prefer_most { &WorstFit } else { &BestFit };
            prop_assert_eq!(policy.place(n, &m, &host_list), naive);
        }
    }
}
