//! Stable priority event queue.
//!
//! The engine's queue orders events by `(time, sequence-number)`, so that two
//! events scheduled for the same instant fire in the order they were
//! scheduled. FIFO tie-breaking is what keeps the simulation deterministic.
//!
//! [`EventQueue`] is a hierarchical timer wheel: O(1) push, amortised O(1)
//! pop, no sift at any depth. At the X-SCALE queue depths (hundreds of
//! thousands pending) it replaces a heap's O(log n) per-event sift.
//!
//! The original `BinaryHeap` implementation survives as
//! [`oracle::EventQueue`], a reference the tests drive directly: the
//! proptests below run both over randomized push/pop/clear sequences and
//! require bit-identical streams. Nothing selects it at run time.
//!
//! # Wheel design (absolute digit addressing)
//!
//! The wheel keeps an origin `start` (the floor of virtual time as far as
//! the queue is concerned: the time of the last wheel pop). Timestamps are
//! read as base-64 digit strings; an event at time `t >= start` is filed at
//!
//! * level `l` = position of the highest base-64 digit where `t` differs
//!   from `start` (level 0 if `t == start`),
//! * slot `s` = that digit of `t` itself (absolute, not an offset).
//!
//! Seven levels of 64 slots cover any delta below 64^7 ns (~73 virtual
//! minutes); anything farther sits in a far-future overflow heap, and
//! anything scheduled *before* `start` (the engine never does this, but the
//! queue API permits it and the oracle accepts it) sits in a "past" heap
//! that always drains first. Invariants that make pops exact:
//!
//! 1. At every level `l >= 1`, an occupied slot's index is strictly greater
//!    than digit `l` of `start` — so everything at level `l` fires after
//!    everything at levels `< l`, and within a level lower slots fire first.
//! 2. A level-0 slot holds exactly one timestamp (all higher digits equal
//!    `start`'s), so FIFO inside a slot is a seq sort, done lazily at most
//!    once per slot drain.
//! 3. `start` only gains digits `>= 1` by cascading the covering slot down
//!    a level (or by jumping to the overflow minimum when the wheel is
//!    empty), so no stale coarse-level entry can tie with a level-0 entry.
//!
//! Popping "settles" first: cascade the lowest occupied slot of the lowest
//! non-empty level until level 0 is occupied, re-anchoring `start` to each
//! cascaded slot's window base. Each cascaded entry re-files at a strictly
//! lower level, so settling terminates.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Base-64 digits: 6 bits per wheel level.
const SLOT_BITS: usize = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Digit mask.
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Wheel levels; deltas below `64^LEVELS` ns (~73 min) stay in the wheel.
const LEVELS: usize = 7;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The original binary-heap event queue, kept as the differential
/// reference for the timer wheel.
pub mod oracle {
    use super::Entry;
    use crate::time::SimTime;
    use std::collections::BinaryHeap;

    /// A time-ordered queue of events with stable FIFO ordering at equal
    /// timestamps, backed by a `(time, seq)`-keyed binary heap.
    pub struct EventQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
        peak_len: usize,
    }

    impl<E> Default for EventQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> EventQueue<E> {
        /// An empty queue.
        pub fn new() -> Self {
            EventQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                peak_len: 0,
            }
        }

        /// An empty queue with pre-allocated capacity (avoids re-allocation
        /// in hot scheduling loops; see the perf-book guidance on `Vec`
        /// growth).
        pub fn with_capacity(cap: usize) -> Self {
            EventQueue {
                heap: BinaryHeap::with_capacity(cap),
                next_seq: 0,
                peak_len: 0,
            }
        }

        /// Reserve room for at least `additional` more events.
        pub fn reserve(&mut self, additional: usize) {
            self.heap.reserve(additional);
        }

        /// Push an event to fire at `time`. Events pushed for the same
        /// instant pop in push order.
        pub fn push(&mut self, time: SimTime, payload: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, payload });
            self.peak_len = self.peak_len.max(self.heap.len());
        }

        /// Remove and return the earliest event.
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|e| (e.time, e.payload))
        }

        /// The timestamp of the earliest event without removing it.
        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.time)
        }

        /// Number of pending events.
        pub fn len(&self) -> usize {
            self.heap.len()
        }

        /// True iff no events are pending.
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        /// High-water mark of pending events over the queue's lifetime —
        /// the memory-pressure figure the scale experiments report.
        pub fn peak_len(&self) -> usize {
            self.peak_len
        }

        /// Drop every pending event.
        pub fn clear(&mut self) {
            self.heap.clear();
        }
    }
}

/// One wheel bucket. `sorted` means the entries are already in seq order
/// (the common case: direct pushes carry monotone seqs); a cascade can file
/// an older entry behind a newer one, which flips the flag and defers a
/// seq sort to the slot's first pop.
struct Slot<E> {
    entries: VecDeque<Entry<E>>,
    sorted: bool,
}

impl<E> Slot<E> {
    fn new() -> Self {
        Slot {
            entries: VecDeque::new(),
            sorted: true,
        }
    }
}

/// A time-ordered queue of events with stable FIFO ordering at equal
/// timestamps: a hierarchical timer wheel (see the module docs for the
/// design).
pub struct EventQueue<E> {
    /// `LEVELS * SLOTS` buckets, flat; `slots[l * SLOTS + s]`.
    slots: Vec<Slot<E>>,
    /// Per-level occupancy bitmap: bit `s` set iff `slots[l][s]` is
    /// non-empty. Lowest occupied slot is one `trailing_zeros` away.
    occupied: [u64; LEVELS],
    /// Wheel origin in ns: the time of the last wheel pop (never moves
    /// backwards).
    start: u64,
    /// Events scheduled before `start`; always drain before the wheel.
    past: BinaryHeap<Entry<E>>,
    /// Events beyond the wheel horizon (delta >= 64^LEVELS ns).
    overflow: BinaryHeap<Entry<E>>,
    next_seq: u64,
    len: usize,
    peak_len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: (0..LEVELS * SLOTS).map(|_| Slot::new()).collect(),
            occupied: [0; LEVELS],
            start: 0,
            past: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            next_seq: 0,
            len: 0,
            peak_len: 0,
        }
    }

    /// An empty queue with room pre-paid for `cap` pending events (see
    /// [`EventQueue::reserve`]).
    pub fn with_capacity(cap: usize) -> Self {
        let mut w = Self::new();
        w.reserve(cap);
        w
    }

    /// Pre-pay first-use growth for `additional` pending events (a
    /// workload-size hint; see `Engine::reserve_events`). Slot
    /// buckets keep their capacity across drains, so this is a one-time
    /// cost: the hint is spread evenly over the buckets (uneven workloads
    /// still grow a few hot slots, but the bulk of the doubling-realloc
    /// churn is paid here, outside any measured phase) plus a share for
    /// the far-future heap.
    pub fn reserve(&mut self, additional: usize) {
        let per_slot = additional / (LEVELS * SLOTS);
        if per_slot > 0 {
            for slot in &mut self.slots {
                slot.entries.reserve(per_slot);
            }
        }
        self.overflow.reserve(additional / SLOTS);
    }

    /// Level for time `t` relative to `start`: position of the highest
    /// base-64 digit where they differ (`LEVELS`+ means overflow).
    #[inline]
    fn level_of(t: u64, start: u64) -> usize {
        let x = t ^ start;
        if x == 0 {
            0
        } else {
            (63 - x.leading_zeros()) as usize / SLOT_BITS
        }
    }

    /// File an entry with `time >= start` into a wheel slot or overflow.
    fn wheel_insert(&mut self, e: Entry<E>) {
        let t = e.time.as_nanos();
        debug_assert!(t >= self.start, "wheel_insert below origin");
        let lvl = Self::level_of(t, self.start);
        if lvl >= LEVELS {
            self.overflow.push(e);
            return;
        }
        let s = ((t >> (SLOT_BITS * lvl)) & SLOT_MASK) as usize;
        let slot = &mut self.slots[lvl * SLOTS + s];
        if let Some(back) = slot.entries.back() {
            if back.seq > e.seq {
                slot.sorted = false;
            }
        }
        slot.entries.push_back(e);
        self.occupied[lvl] |= 1 << s;
    }

    /// Push an event to fire at `time`. Events pushed for the same instant
    /// pop in push order.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let e = Entry { time, seq, payload };
        if time.as_nanos() < self.start {
            self.past.push(e);
        } else {
            self.wheel_insert(e);
        }
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
    }

    /// Cascade until level 0 is occupied (or the queue is empty). Callers
    /// must have drained the past heap first.
    fn settle(&mut self) {
        debug_assert!(self.past.is_empty());
        loop {
            let Some(lvl) = self.occupied.iter().position(|&bits| bits != 0) else {
                // Wheel empty: everything pending is far-future. Jump the
                // origin to the overflow minimum and migrate every event
                // now inside the horizon (the minimum itself lands at
                // level 0, so the next iteration terminates).
                let Some(head) = self.overflow.peek() else {
                    return;
                };
                self.start = head.time.as_nanos();
                while let Some(head) = self.overflow.peek() {
                    if Self::level_of(head.time.as_nanos(), self.start) >= LEVELS {
                        break;
                    }
                    let e = self.overflow.pop().expect("peeked above");
                    self.wheel_insert(e);
                }
                continue;
            };
            if lvl == 0 {
                return;
            }
            // Advance the origin to the base of the lowest occupied slot's
            // window, then cascade that slot down. Invariant 1 guarantees
            // the slot index exceeds `start`'s digit, so `start` only moves
            // forward; every re-filed entry lands at a level < lvl.
            let s = self.occupied[lvl].trailing_zeros() as usize;
            let span = SLOT_BITS * (lvl + 1);
            self.start = (self.start & !((1u64 << span) - 1)) | ((s as u64) << (SLOT_BITS * lvl));
            self.occupied[lvl] &= !(1 << s);
            let idx = lvl * SLOTS + s;
            let mut drained = std::mem::take(&mut self.slots[idx].entries);
            self.slots[idx].sorted = true;
            for e in drained.drain(..) {
                self.wheel_insert(e);
            }
            // Hand the buffer back so the slot reuses its capacity.
            self.slots[idx].entries = drained;
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // Past events precede everything in the wheel (time < start) and
        // must not move the origin backwards.
        if let Some(e) = self.past.pop() {
            self.len -= 1;
            return Some((e.time, e.payload));
        }
        if self.len == 0 {
            return None;
        }
        self.settle();
        let s = self.occupied[0].trailing_zeros() as usize;
        debug_assert!(s < SLOTS, "settle left level 0 empty");
        let slot = &mut self.slots[s];
        if !slot.sorted {
            slot.entries
                .make_contiguous()
                .sort_unstable_by_key(|e| e.seq);
            slot.sorted = true;
        }
        let e = slot.entries.pop_front().expect("occupied bit set");
        if slot.entries.is_empty() {
            self.occupied[0] &= !(1 << s);
        }
        debug_assert!(e.time.as_nanos() >= self.start);
        self.start = e.time.as_nanos();
        self.len -= 1;
        Some((e.time, e.payload))
    }

    /// The timestamp of the earliest event without removing it.
    ///
    /// Takes `&mut self` because the wheel may cascade coarse slots to
    /// locate its minimum; the observable state does not change.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if let Some(e) = self.past.peek() {
            return Some(e.time);
        }
        if self.len == 0 {
            return None;
        }
        self.settle();
        let s = self.occupied[0].trailing_zeros() as usize;
        // A level-0 slot holds a single timestamp (invariant 2), so the
        // front entry's time is the slot's time even before the seq sort.
        Some(
            self.slots[s]
                .entries
                .front()
                .expect("occupied bit set")
                .time,
        )
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of pending events over the queue's lifetime —
    /// the memory-pressure figure the scale experiments report.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Drop every pending event.
    pub fn clear(&mut self) {
        for lvl in 0..LEVELS {
            let mut bits = self.occupied[lvl];
            while bits != 0 {
                let s = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slot = &mut self.slots[lvl * SLOTS + s];
                slot.entries.clear();
                slot.sorted = true;
            }
            self.occupied[lvl] = 0;
        }
        self.past.clear();
        self.overflow.clear();
        self.len = 0;
        // `start` survives: the origin is a high-water mark of popped time,
        // and later pushes below it are handled by the past heap exactly as
        // the oracle handles them.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use proptest::prelude::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Run `$body` once on the wheel and once on the oracle heap, with
    /// `$q` bound to a fresh queue of each.
    macro_rules! on_both {
        ($q:ident => $body:block) => {{
            {
                let mut $q = EventQueue::new();
                $body
            }
            {
                let mut $q = oracle::EventQueue::new();
                $body
            }
        }};
    }

    #[test]
    fn pops_in_time_order() {
        on_both!(q => {
            q.push(t(30), "c");
            q.push(t(10), "a");
            q.push(t(20), "b");
            assert_eq!(q.pop(), Some((t(10), "a")));
            assert_eq!(q.pop(), Some((t(20), "b")));
            assert_eq!(q.pop(), Some((t(30), "c")));
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn equal_times_are_fifo() {
        on_both!(q => {
            for i in 0..100 {
                q.push(t(5), i);
            }
            for i in 0..100 {
                assert_eq!(q.pop(), Some((t(5), i)));
            }
        });
    }

    #[test]
    fn peak_len_is_a_high_water_mark() {
        on_both!(q => {
            assert_eq!(q.peak_len(), 0);
            q.push(t(1), 0);
            q.push(t(2), 0);
            q.pop();
            q.push(t(3), 0);
            assert_eq!(q.len(), 2);
            assert_eq!(q.peak_len(), 2, "peak holds after pops");
            q.push(t(4), 0);
            q.push(t(5), 0);
            assert_eq!(q.peak_len(), 4);
        });
    }

    #[test]
    fn peek_does_not_remove() {
        on_both!(q => {
            q.push(t(7), 0);
            assert_eq!(q.peek_time(), Some(t(7)));
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
        });
    }

    /// Same-tick FIFO must survive a cascade boundary: events scheduled for
    /// one instant from *different* wheel origins (some filed coarse, some
    /// filed at level 0 after cascades moved the origin closer) still pop
    /// in push order.
    #[test]
    fn same_tick_fifo_across_cascade_boundaries() {
        let mut q = EventQueue::new();
        let target = 3 * 64 * 64 + 17; // level 2 away from origin 0
        q.push(t(target), 0u64); // filed coarse
        q.push(t(target), 1); // same slot, still coarse
        q.push(t(5), 2); // near event to pop first
        assert_eq!(q.pop(), Some((t(5), 2)));
        // Origin is now 5; the target is still two cascades away. Push more
        // events for the same tick — they file coarse too, but with higher
        // seqs; after the cascade everything meets in one level-0 slot.
        q.push(t(target), 3);
        assert_eq!(q.pop(), Some((t(target), 0)));
        // Origin now sits exactly on `target`: a same-tick push lands at
        // level 0 directly, *behind* the cascaded survivors.
        q.push(t(target), 4);
        assert_eq!(q.pop(), Some((t(target), 1)));
        assert_eq!(q.pop(), Some((t(target), 3)));
        assert_eq!(q.pop(), Some((t(target), 4)));
        assert_eq!(q.pop(), None);
    }

    /// Events beyond the 64^7 ns wheel horizon start in the overflow heap
    /// and must migrate into the wheel — preserving order — once everything
    /// nearer has drained.
    #[test]
    fn far_future_events_migrate_from_overflow() {
        let mut q = EventQueue::new();
        let horizon = 64u64.pow(LEVELS as u32);
        q.push(t(horizon + 100), 0u64);
        q.push(t(horizon + 100), 1);
        q.push(t(horizon + 5), 2);
        q.push(t(3), 3);
        q.push(SimTime::MAX, 4); // sentinel stays far-future for a long time
        assert_eq!(q.pop(), Some((t(3), 3)));
        assert_eq!(q.peek_time(), Some(t(horizon + 5)));
        assert_eq!(q.pop(), Some((t(horizon + 5), 2)));
        assert_eq!(q.pop(), Some((t(horizon + 100), 0)));
        assert_eq!(q.pop(), Some((t(horizon + 100), 1)));
        assert_eq!(q.pop(), Some((SimTime::MAX, 4)));
        assert_eq!(q.pop(), None);
    }

    /// `clear()` in the middle of a cascade-heavy drain must empty the
    /// queue completely and leave it reusable (origin intact, later pushes
    /// still ordered — including pushes before the old origin).
    #[test]
    fn clear_mid_cascade_leaves_queue_reusable() {
        let mut q = EventQueue::new();
        for i in 0..500u64 {
            q.push(t(i * 4099), i); // spread across several levels
        }
        for _ in 0..123 {
            q.pop(); // force cascades, advance the origin
        }
        let origin = q.peek_time().unwrap();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        // Reuse: a push before the old origin and one after must both pop,
        // in time order, exactly like the oracle.
        q.push(origin + crate::time::SimDuration::from_nanos(10), 1000);
        q.push(t(0), 1001);
        assert_eq!(q.pop(), Some((t(0), 1001)));
        assert_eq!(
            q.pop(),
            Some((origin + crate::time::SimDuration::from_nanos(10), 1000))
        );
    }

    /// `peek_time` is stable: repeated peeks agree, peek equals the next
    /// pop's time, and interleaved far-future pushes don't perturb it.
    #[test]
    fn peek_time_is_stable() {
        let mut q = EventQueue::new();
        q.push(t(1_000_000), 0u64);
        q.push(t(64u64.pow(7) * 2), 1);
        let first = q.peek_time();
        assert_eq!(first, q.peek_time(), "peek must be idempotent");
        q.push(t(2_000_000), 2); // later than the minimum: no change
        assert_eq!(q.peek_time(), first);
        let (pt, _) = q.pop().unwrap();
        assert_eq!(Some(pt), first, "peek must equal the next pop");
        // An earlier push moves the peek (and lands in the past heap if
        // it's behind the origin).
        q.push(t(7), 3);
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(q.pop(), Some((t(7), 3)));
    }

    /// Exhaustive differential check on a fixed dense workload: every pop,
    /// peek and len must match the oracle heap exactly.
    #[test]
    fn wheel_matches_oracle_on_dense_churn() {
        let mut wheel = EventQueue::new();
        let mut heap = oracle::EventQueue::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..5_000u64 {
            let r = step();
            let time = match r % 4 {
                0 => r % 1_000,
                1 => r % 1_000_000,
                2 => r % (1 << 40),
                _ => r % (1 << 50), // beyond the wheel horizon
            };
            wheel.push(t(time), i);
            heap.push(t(time), i);
            if r % 3 == 0 {
                assert_eq!(wheel.pop(), heap.pop());
            }
            assert_eq!(wheel.peek_time(), heap.peek_time());
            assert_eq!(wheel.len(), heap.len());
        }
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
    }

    /// Map a raw random word to a timestamp drawn from mixed horizons:
    /// sub-microsecond ticks, mid-range, near the wheel horizon, beyond it,
    /// and the far-future sentinel.
    fn mixed_time(raw: u64) -> u64 {
        match raw % 7 {
            0 => raw % 64,
            1 => raw % 4_096,
            2 => raw % 1_000_000,
            3 => raw % (1u64 << 30),
            4 => raw % (1u64 << 42), // around the wheel horizon
            5 => raw % (1u64 << 55), // overflow territory
            _ => {
                if raw.is_multiple_of(31) {
                    u64::MAX
                } else {
                    raw % (1u64 << 45)
                }
            }
        }
    }

    proptest! {
        /// Differential oracle: the wheel and the heap agree on every pop,
        /// peek and len over randomized push/pop/clear sequences with mixed
        /// near/far horizons (including times behind already-popped time,
        /// which the public API permits).
        #[test]
        fn prop_wheel_matches_oracle(
            ops in proptest::collection::vec((0u64..10, any::<u64>()), 0..400)
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = oracle::EventQueue::new();
            let mut payload = 0u64;
            for &(op, raw) in &ops {
                match op {
                    0..=4 => {
                        let time = t(mixed_time(raw));
                        wheel.push(time, payload);
                        heap.push(time, payload);
                        payload += 1;
                    }
                    5..=7 => {
                        prop_assert_eq!(wheel.pop(), heap.pop());
                    }
                    8 => {
                        prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                    }
                    _ => {
                        if raw % 13 == 0 {
                            wheel.clear();
                            heap.clear();
                        } else {
                            prop_assert_eq!(wheel.pop(), heap.pop());
                        }
                    }
                }
                prop_assert_eq!(wheel.len(), heap.len());
                prop_assert_eq!(wheel.is_empty(), heap.is_empty());
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            }
            loop {
                let (w, h) = (wheel.pop(), heap.pop());
                prop_assert_eq!(&w, &h);
                if w.is_none() {
                    break;
                }
            }
        }

        /// Popping yields a non-decreasing time sequence, and FIFO order
        /// among entries with equal timestamps — on both implementations.
        #[test]
        fn prop_pop_order(times in proptest::collection::vec(0u64..50, 0..200)) {
            on_both!(q => {
                for (i, &ns) in times.iter().enumerate() {
                    q.push(t(ns), i as u64);
                }
                let mut last: Option<(SimTime, u64)> = None;
                while let Some((time, idx)) = q.pop() {
                    if let Some((lt, lidx)) = last {
                        prop_assert!(time >= lt);
                        if time == lt {
                            prop_assert!(idx > lidx, "FIFO violated at equal time");
                        }
                    }
                    last = Some((time, idx));
                }
            });
        }

        /// len tracks pushes and pops exactly — on both implementations.
        #[test]
        fn prop_len(times in proptest::collection::vec(0u64..1000, 0..100)) {
            on_both!(q => {
                for &ns in &times {
                    q.push(t(ns), 0u64);
                }
                prop_assert_eq!(q.len(), times.len());
                let mut popped = 0usize;
                while q.pop().is_some() {
                    popped += 1;
                }
                prop_assert_eq!(popped, times.len());
            });
        }
    }
}
