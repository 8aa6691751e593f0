//! Dense id-indexed arenas for the data-plane hot state.
//!
//! PRs 1–9 kept every per-host / per-VSN / per-request table in the
//! world as a `HashMap` or `BTreeMap`. Correct — the iteration guard
//! audits every site — but at the 100k-host / 1M-VSN / 10M-request
//! target the hashing and pointer-chasing on the route/complete path
//! dominate, and the key sets are *dense by construction*: hosts are
//! numbered `1..=N`, the Master allocates `ServiceId`/`VsnId` from
//! per-lane counters (PR 8's id-lane striping: cell `k` of `n` owns ids
//! `{k+1, k+1+n, ...}`), and `RequestId` is a per-world monotonic
//! counter. A dense id deserves a dense slot.
//!
//! Two containers exploit that:
//!
//! * [`IdMap`] — a slab keyed by any [`DenseId`]. Slot index is
//!   `(id - base) / stride`: `base` latches to the first id inserted
//!   (rebasing when a smaller in-lane id appears), `stride` is the
//!   id-lane width (1 for a single-world run, `cells` inside one parallel
//!   cell). Lookup is a bounds check and a vector index — zero hashing,
//!   zero tree descent.
//! * [`RequestTable`] — a ring for monotonically allocated ids
//!   (`RequestId`): insert always lands at the tail, remove pops
//!   leading empties, so the ring's footprint is the *open-request
//!   window*, not the total ids ever issued.
//!
//! `IdMap` iterates in ascending id order, exactly as a `BTreeMap` would,
//! so the iteration-guard contract holds by construction. A plain
//! `BTreeMap` is the reference the tests drive beside both containers
//! (`tests/scale_oracle.rs` and the unit tests below): every op stream,
//! including `retain`'s visit order, must match it.

use std::collections::VecDeque;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::Index;

use soda_hup::host::HostId;
use soda_vmm::vsn::VsnId;

use crate::service::ServiceId;

/// An id type that is dense within its allocation lane and therefore
/// usable as an arena slot index.
pub trait DenseId: Copy + Ord + Debug {
    /// The id as a slot-addressable integer.
    fn dense(self) -> u64;
    /// Rebuild the id from its integer (inverse of [`DenseId::dense`]).
    fn from_dense(d: u64) -> Self;
}

impl DenseId for HostId {
    fn dense(self) -> u64 {
        u64::from(self.0)
    }
    fn from_dense(d: u64) -> Self {
        HostId(u32::try_from(d).expect("host id fits u32"))
    }
}

impl DenseId for VsnId {
    fn dense(self) -> u64 {
        self.0
    }
    fn from_dense(d: u64) -> Self {
        VsnId(d)
    }
}

impl DenseId for ServiceId {
    fn dense(self) -> u64 {
        self.0
    }
    fn from_dense(d: u64) -> Self {
        ServiceId(d)
    }
}

/// Id-keyed dense slab.
///
/// The API mirrors the std map surface the world already uses (`get`,
/// `insert`, `remove`, `entry`, `retain`, `iter`, `Index<&K>`), so a
/// converted call site reads exactly as before. Iteration is ascending
/// id order.
#[derive(Debug, Clone)]
pub struct IdMap<K: DenseId, V> {
    /// Id-lane width: ids in this table are congruent modulo `stride`.
    stride: u64,
    /// Id of slot 0 (latched on first insert).
    base: Option<u64>,
    slots: Vec<Option<V>>,
    len: usize,
    _k: PhantomData<K>,
}

impl<K: DenseId, V> Default for IdMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: DenseId, V> IdMap<K, V> {
    /// An empty table, stride 1.
    pub fn new() -> Self {
        IdMap {
            stride: 1,
            base: None,
            slots: Vec::new(),
            len: 0,
            _k: PhantomData,
        }
    }

    /// Declare the id-lane width (`(id - base)` must be a multiple of
    /// `stride` for every id this table will see). Must be set before
    /// the first insert.
    pub fn set_stride(&mut self, stride: u64) {
        assert!(stride > 0, "stride must be positive");
        assert!(
            self.len == 0 && self.base.is_none(),
            "stride must be set before the table is populated"
        );
        self.stride = stride;
    }

    /// Remove every entry and release the slots. The stride is kept;
    /// the base is latched again by the next insert.
    pub fn clear(&mut self) {
        self.base = None;
        self.slots = Vec::new();
        self.len = 0;
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot index for `id` under the current base/stride, or `None`
    /// when the id lies below the base or off the lane. Stride 1 (every
    /// unsharded table) skips the division: this runs on every lookup.
    fn slot_of(&self, id: u64) -> Option<usize> {
        let base = self.base?;
        let off = id.checked_sub(base)?;
        if self.stride == 1 {
            return Some(off as usize);
        }
        if off % self.stride != 0 {
            return None;
        }
        Some((off / self.stride) as usize)
    }

    /// Shift the arena so `new_base` becomes slot 0 (an in-lane id
    /// below the current base appeared).
    fn rebase(&mut self, new_base: u64) {
        let base = self.base.expect("rebase with a latched base");
        let off = base - new_base;
        assert!(
            off.is_multiple_of(self.stride),
            "id lane violation: new base {new_base} not congruent to {base} mod {}",
            self.stride
        );
        let shift = (off / self.stride) as usize;
        let mut slots = Vec::with_capacity(self.slots.len() + shift);
        slots.resize_with(shift, || None);
        slots.append(&mut self.slots);
        self.slots = slots;
        self.base = Some(new_base);
    }

    /// Look up by id.
    pub fn get(&self, k: &K) -> Option<&V> {
        let slot = self.slot_of(k.dense())?;
        self.slots.get(slot)?.as_ref()
    }

    /// Mutable lookup by id.
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        let slot = self.slot_of(k.dense())?;
        self.slots.get_mut(slot)?.as_mut()
    }

    /// True when `k` is present.
    pub fn contains_key(&self, k: &K) -> bool {
        self.get(k).is_some()
    }

    /// Insert, returning the displaced value if the id was present.
    /// An off-lane id panics — lane discipline is an invariant, not a
    /// recoverable condition.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        let d = k.dense();
        match self.base {
            None => self.base = Some(d),
            Some(base) if d < base => self.rebase(d),
            Some(_) => {}
        }
        let base = self.base.expect("base latched");
        let off = d - base;
        assert!(
            off.is_multiple_of(self.stride),
            "id lane violation: {k:?} is off the stride-{} lane based at {base}",
            self.stride
        );
        let slot = (off / self.stride) as usize;
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, || None);
        }
        let old = self.slots[slot].replace(v);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove by id, returning the value if present.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        let slot = self.slot_of(k.dense())?;
        let v = self.slots.get_mut(slot)?.take()?;
        self.len -= 1;
        Some(v)
    }

    /// Keep only entries for which `f` returns true. Visits ascending
    /// id order.
    pub fn retain(&mut self, mut f: impl FnMut(K, &mut V) -> bool) {
        let base = self.base.unwrap_or(0);
        for (i, s) in self.slots.iter_mut().enumerate() {
            let keep = match s.as_mut() {
                Some(v) => f(K::from_dense(base + i as u64 * self.stride), v),
                None => continue,
            };
            if !keep {
                *s = None;
                self.len -= 1;
            }
        }
    }

    /// Iterate `(id, &value)` in ascending id order.
    pub fn iter(&self) -> IdMapIter<'_, K, V> {
        IdMapIter {
            base: self.base.unwrap_or(0),
            stride: self.stride,
            inner: self.slots.iter().enumerate(),
            _k: PhantomData,
        }
    }

    /// `entry`-style accessor mirroring the std map API subset the
    /// world uses (`or_insert`, `or_default`, `and_modify`).
    pub fn entry(&mut self, k: K) -> IdMapEntry<'_, K, V> {
        IdMapEntry {
            table: self,
            key: k,
        }
    }
}

impl<K: DenseId, V> Index<&K> for IdMap<K, V> {
    type Output = V;
    fn index(&self, k: &K) -> &V {
        self.get(k)
            .unwrap_or_else(|| panic!("no entry for id {k:?}"))
    }
}

/// Ascending-id iterator over an [`IdMap`].
pub struct IdMapIter<'a, K: DenseId, V> {
    /// Id of slot 0.
    base: u64,
    /// Id-lane width.
    stride: u64,
    /// Underlying slot walk.
    inner: std::iter::Enumerate<std::slice::Iter<'a, Option<V>>>,
    _k: PhantomData<K>,
}

impl<'a, K: DenseId, V> Iterator for IdMapIter<'a, K, V> {
    type Item = (K, &'a V);
    fn next(&mut self) -> Option<Self::Item> {
        for (i, s) in self.inner.by_ref() {
            if let Some(v) = s.as_ref() {
                return Some((K::from_dense(self.base + i as u64 * self.stride), v));
            }
        }
        None
    }
}

/// Entry accessor returned by [`IdMap::entry`].
pub struct IdMapEntry<'a, K: DenseId, V> {
    table: &'a mut IdMap<K, V>,
    key: K,
}

impl<'a, K: DenseId, V> IdMapEntry<'a, K, V> {
    /// Insert `default` when vacant; return the occupant either way.
    pub fn or_insert(self, default: V) -> &'a mut V {
        if !self.table.contains_key(&self.key) {
            self.table.insert(self.key, default);
        }
        self.table.get_mut(&self.key).expect("entry just ensured")
    }

    /// Insert `V::default()` when vacant; return the occupant.
    pub fn or_default(self) -> &'a mut V
    where
        V: Default,
    {
        self.or_insert(V::default())
    }

    /// Run `f` on the occupant when present, then return the entry for
    /// chaining.
    pub fn and_modify(self, f: impl FnOnce(&mut V)) -> Self {
        if let Some(v) = self.table.get_mut(&self.key) {
            f(v);
        }
        self
    }
}

/// Table for *monotonically allocated* ids (the world's `RequestId`
/// counter): a ring whose occupancy is the open-id window. Insert
/// always extends the tail; remove pops leading empties, so memory
/// tracks the number of ids simultaneously open, not the total ever
/// issued — the property that keeps 10M requests from pinning 10M
/// callback slots.
#[derive(Debug)]
pub struct RequestTable<K: DenseId, V> {
    /// Id of `ring[0]` (meaningful while the ring is non-empty).
    base: u64,
    ring: VecDeque<Option<V>>,
    len: usize,
    _k: PhantomData<K>,
}

impl<K: DenseId, V> Default for RequestTable<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: DenseId, V> RequestTable<K, V> {
    /// An empty table.
    pub fn new() -> Self {
        RequestTable {
            base: 0,
            ring: VecDeque::new(),
            len: 0,
            _k: PhantomData,
        }
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert under a monotonic id (never below an id already retired
    /// off the front of the ring).
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        let d = k.dense();
        if self.ring.is_empty() {
            self.base = d;
        }
        assert!(
            d >= self.base,
            "request ids are allocated monotonically; {k:?} is below base {}",
            self.base
        );
        let idx = (d - self.base) as usize;
        if idx >= self.ring.len() {
            // Monotonic allocation: the common case is exactly one tail
            // slot.
            for _ in self.ring.len()..=idx {
                self.ring.push_back(None);
            }
        }
        let old = self.ring[idx].replace(v);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Look up by id.
    pub fn get(&self, k: &K) -> Option<&V> {
        let idx = k.dense().checked_sub(self.base)? as usize;
        self.ring.get(idx)?.as_ref()
    }

    /// Remove by id, popping any leading empties so the window's base
    /// chases the oldest still-open id.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        let idx = k.dense().checked_sub(self.base)? as usize;
        let v = self.ring.get_mut(idx)?.take()?;
        self.len -= 1;
        while let Some(None) = self.ring.front() {
            self.ring.pop_front();
            self.base += 1;
        }
        if self.ring.is_empty() {
            self.base = 0;
        }
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn idmap_basic_ops_match_across_backends() {
        let mut m: IdMap<HostId, &'static str> = IdMap::new();
        let mut oracle: BTreeMap<HostId, &'static str> = BTreeMap::new();
        assert!(m.is_empty());
        for (k, v) in [(3, "c"), (1, "a"), (2, "b"), (2, "B")] {
            assert_eq!(m.insert(HostId(k), v), oracle.insert(HostId(k), v));
        }
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&HostId(2)), Some(&"B"));
        assert_eq!(m[&HostId(1)], "a");
        assert!(m.contains_key(&HostId(3)));
        assert!(!m.contains_key(&HostId(9)));
        for _ in 0..2 {
            assert_eq!(m.remove(&HostId(1)), oracle.remove(&HostId(1)));
        }
        let seen: Vec<(HostId, &str)> = m.iter().map(|(k, v)| (k, *v)).collect();
        let want: Vec<(HostId, &str)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(seen, want);
        assert_eq!(seen, vec![(HostId(2), "B"), (HostId(3), "c")]);
    }

    #[test]
    fn idmap_entry_mirrors_std() {
        let mut m: IdMap<ServiceId, usize> = IdMap::new();
        let mut oracle: BTreeMap<ServiceId, usize> = BTreeMap::new();
        *m.entry(ServiceId(5)).or_insert(0) += 1;
        *oracle.entry(ServiceId(5)).or_insert(0) += 1;
        m.entry(ServiceId(5)).and_modify(|n| *n += 1).or_insert(9);
        oracle
            .entry(ServiceId(5))
            .and_modify(|n| *n += 1)
            .or_insert(9);
        assert_eq!(m.get(&ServiceId(5)), Some(&2));
        assert_eq!(m.get(&ServiceId(5)), oracle.get(&ServiceId(5)));
        assert_eq!(*m.entry(ServiceId(6)).or_default(), 0);
    }

    #[test]
    fn idmap_retain_visits_ascending_and_drops() {
        let mut m: IdMap<VsnId, u32> = IdMap::new();
        for i in 1..=6 {
            m.insert(VsnId(i), i as u32 * 10);
        }
        let mut visited = Vec::new();
        m.retain(|k, v| {
            visited.push(k.0);
            *v % 20 == 0
        });
        assert_eq!(visited, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&VsnId(4)), Some(&40));
        assert_eq!(m.get(&VsnId(3)), None);
    }

    #[test]
    fn idmap_stride_lanes_map_to_dense_slots() {
        // Cell 2 of 4 owns ids {3, 7, 11, ...}.
        let mut m: IdMap<VsnId, &'static str> = IdMap::new();
        m.set_stride(4);
        m.insert(VsnId(7), "b");
        m.insert(VsnId(3), "a"); // rebases
        m.insert(VsnId(11), "c");
        assert_eq!(m.get(&VsnId(3)), Some(&"a"));
        assert_eq!(m.get(&VsnId(7)), Some(&"b"));
        assert_eq!(m.get(&VsnId(11)), Some(&"c"));
        // Off-lane gets miss instead of aliasing a neighbour's slot.
        assert_eq!(m.get(&VsnId(4)), None);
        assert_eq!(m.get(&VsnId(5)), None);
        let keys: Vec<u64> = m.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![3, 7, 11]);
    }

    #[test]
    #[should_panic(expected = "id lane violation")]
    fn idmap_off_lane_insert_panics() {
        let mut m: IdMap<VsnId, ()> = IdMap::new();
        m.set_stride(4);
        m.insert(VsnId(3), ());
        m.insert(VsnId(4), ());
    }

    #[test]
    fn request_table_window_tracks_open_span() {
        let mut t: RequestTable<VsnId, u64> = RequestTable::new();
        for i in 1..=100u64 {
            t.insert(VsnId(i), i * 2);
        }
        assert_eq!(t.len(), 100);
        // Complete all but the stragglers 50 and 100.
        for i in 1..=100u64 {
            if i != 50 && i != 100 {
                assert_eq!(t.remove(&VsnId(i)), Some(i * 2));
            }
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&VsnId(50)), Some(&100));
        assert_eq!(t.remove(&VsnId(50)), Some(100));
        assert_eq!(t.remove(&VsnId(50)), None);
        assert_eq!(t.remove(&VsnId(100)), Some(200));
        assert!(t.is_empty());
    }

    #[test]
    fn request_table_ring_footprint_is_the_open_window() {
        let mut t: RequestTable<VsnId, u64> = RequestTable::new();
        // Issue/complete in lock-step: the ring must never grow past
        // the open window (1 here), however many ids pass through.
        for i in 1..=10_000u64 {
            t.insert(VsnId(i), i);
            assert_eq!(t.remove(&VsnId(i)), Some(i));
            assert!(t.ring.len() <= 1, "ring grew to {}", t.ring.len());
        }
    }
}
