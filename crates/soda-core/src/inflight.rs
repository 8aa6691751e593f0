//! In-flight flow table.
//!
//! Every flow on a host NIC, keyed `(HostId, FlowId)`, with the
//! payload saying what the flow carries. Mass cancellation (host crash,
//! partition, node crash) must fire in a deterministic ascending
//! `(HostId, FlowId)` order, or the event log diverges across runs of
//! the same seed.
//!
//! The table is one vector per host in an [`IdMap`], sorted by
//! `FlowId`. A NIC numbers its flows in arrival order, so an insert is
//! almost always a push at the tail, and a completion removes from a
//! vector that holds only that host's flows. Vectors are never freed
//! when they empty, so a warm table inserts and removes without
//! touching the heap. "Every flow on host H" is one vector.
//!
//! A node crash cancels only that node's response flows. A response
//! always leaves through its node's own host NIC, so the caller names
//! the host and [`InflightTable::drain_vsn`] filters that one vector;
//! no secondary VSN index is kept (see DESIGN.md §8 and
//! `tests/scale_oracle.rs` for the differential proof).

use soda_hup::host::HostId;
use soda_net::link::FlowId;
use soda_vmm::vsn::VsnId;

use crate::arena::IdMap;

/// One tracked flow: its id, the VSN tag a node crash matches, and the
/// payload.
type Flight<P> = (FlowId, Option<VsnId>, P);

/// In-flight flows, grouped by host for O(flows-on-host) cancellation.
/// `P` is the per-flow payload (the world's `FlowPurpose`).
#[derive(Debug, Clone)]
pub struct InflightTable<P> {
    /// Per-host flows in ascending `FlowId` order.
    hosts: IdMap<HostId, Vec<Flight<P>>>,
    /// Flows across all hosts.
    len: usize,
}

impl<P> Default for InflightTable<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> InflightTable<P> {
    /// An empty table.
    pub fn new() -> Self {
        InflightTable {
            hosts: IdMap::new(),
            len: 0,
        }
    }

    /// Number of in-flight flows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No flows in flight?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Track a flow (replacing the entry if `(host, flow)` is already
    /// tracked). `vsn` is `Some` only for flows a node crash should
    /// cancel (response flows); downloads and floods pass `None` and are
    /// reachable only through their host.
    pub fn insert(&mut self, host: HostId, flow: FlowId, vsn: Option<VsnId>, payload: P) {
        let flows = self.hosts.entry(host).or_default();
        if flows.last().is_none_or(|(last, _, _)| *last < flow) {
            flows.push((flow, vsn, payload));
            self.len += 1;
            return;
        }
        match flows.binary_search_by_key(&flow, |(f, _, _)| *f) {
            Ok(i) => flows[i] = (flow, vsn, payload),
            Err(i) => {
                flows.insert(i, (flow, vsn, payload));
                self.len += 1;
            }
        }
    }

    /// Remove one flow (normal completion), returning its payload.
    pub fn remove(&mut self, host: HostId, flow: FlowId) -> Option<P> {
        let flows = self.hosts.get_mut(&host)?;
        let i = flows.binary_search_by_key(&flow, |(f, _, _)| *f).ok()?;
        self.len -= 1;
        Some(flows.remove(i).2)
    }

    /// Remove and return every flow on `host`, in ascending `FlowId`
    /// order — the deterministic cancellation order.
    pub fn drain_host(&mut self, host: HostId) -> Vec<((HostId, FlowId), P)> {
        let Some(flows) = self.hosts.get_mut(&host) else {
            return Vec::new();
        };
        self.len -= flows.len();
        flows.drain(..).map(|(f, _, p)| ((host, f), p)).collect()
    }

    /// Remove and return every flow on `host` tagged with `vsn`, in
    /// ascending `FlowId` order. A node's response flows all leave
    /// through its own host, so `host` must be the node's host.
    /// O(flows-on-host).
    pub fn drain_vsn(&mut self, host: HostId, vsn: VsnId) -> Vec<((HostId, FlowId), P)> {
        let mut out = Vec::new();
        let Some(flows) = self.hosts.get_mut(&host) else {
            return out;
        };
        let mut i = 0;
        while i < flows.len() {
            if flows[i].1 == Some(vsn) {
                let (f, _, p) = flows.remove(i);
                out.push(((host, f), p));
            } else {
                i += 1;
            }
        }
        self.len -= out.len();
        out
    }

    /// Iterate all flows in ascending `(HostId, FlowId)` order.
    pub fn iter(&self) -> impl Iterator<Item = ((HostId, FlowId), &P)> {
        self.hosts
            .iter()
            .flat_map(|(h, flows)| flows.iter().map(move |(f, _, p)| ((h, *f), p)))
    }

    /// Verify that every host's flows are strictly ascending by `FlowId`
    /// and that the flow count matches, and panic on any divergence.
    /// Driven by the differential oracle tests.
    #[doc(hidden)]
    pub fn assert_coherent(&self) {
        let mut count = 0;
        for (host, flows) in self.hosts.iter() {
            assert!(
                flows.windows(2).all(|w| w[0].0 < w[1].0),
                "flows of {host:?} out of order"
            );
            count += flows.len();
        }
        assert_eq!(self.len, count, "flow count drift");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(n: u32) -> HostId {
        HostId(n)
    }

    #[test]
    fn drain_host_takes_only_that_host_in_order() {
        let mut t = InflightTable::new();
        t.insert(h(2), FlowId(5), None, "b5");
        t.insert(h(1), FlowId(9), Some(VsnId(1)), "a9");
        t.insert(h(2), FlowId(1), Some(VsnId(1)), "b1");
        t.insert(h(1), FlowId(3), None, "a3");
        let drained = t.drain_host(h(2));
        let keys: Vec<_> = drained.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![(h(2), FlowId(1)), (h(2), FlowId(5))]);
        assert_eq!(t.len(), 2);
        t.assert_coherent();
    }

    #[test]
    fn drain_vsn_takes_only_tagged_flows_in_order() {
        let mut t = InflightTable::new();
        t.insert(h(1), FlowId(9), Some(VsnId(7)), "a9");
        t.insert(h(1), FlowId(3), Some(VsnId(8)), "a3");
        t.insert(h(1), FlowId(4), None, "a4");
        t.insert(h(1), FlowId(2), Some(VsnId(7)), "a2");
        t.insert(h(2), FlowId(5), Some(VsnId(7)), "b5");
        let drained = t.drain_vsn(h(1), VsnId(7));
        let keys: Vec<_> = drained.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![(h(1), FlowId(2)), (h(1), FlowId(9))]);
        assert_eq!(t.drain_vsn(h(1), VsnId(7)), Vec::new());
        assert_eq!(t.len(), 3);
        let left: Vec<_> = t.iter().map(|(k, p)| (k, *p)).collect();
        assert_eq!(
            left,
            vec![
                ((h(1), FlowId(3)), "a3"),
                ((h(1), FlowId(4)), "a4"),
                ((h(2), FlowId(5)), "b5")
            ]
        );
        t.assert_coherent();
    }

    #[test]
    fn insert_replaces_and_remove_forgets() {
        let mut t = InflightTable::new();
        t.insert(h(1), FlowId(1), Some(VsnId(3)), 1);
        t.insert(h(1), FlowId(1), None, 2);
        assert_eq!(t.len(), 1);
        assert!(t.drain_vsn(h(1), VsnId(3)).is_empty());
        assert_eq!(t.remove(h(1), FlowId(1)), Some(2));
        assert_eq!(t.remove(h(1), FlowId(1)), None);
        assert_eq!(t.remove(h(4), FlowId(1)), None);
        assert!(t.is_empty());
        t.assert_coherent();
    }
}
