//! Virtual-time spans keyed by `(entity, operation)`.
//!
//! A span measures how much *virtual* time an operation took — from
//! `enter` at one engine event to `exit` at a later one (the Master's
//! priming of a VSN), or zero-width for operations that complete within
//! a single event (admission). Closing a span feeds the
//! `(entity, operation)` latency histogram in the metrics registry.
//!
//! The tracker counts enters and exits per key so tests can assert
//! balance: every operation that opened a span must eventually close
//! it, and nothing may exit a span it never entered.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// `(entity, operation)` — the identity of a span kind.
pub type SpanKey = (&'static str, &'static str);

/// An interned span kind: a direct index into [`SpanTracker`]'s stats
/// table. Hot-path recorders intern `(entity, operation)` once (see
/// [`crate::obs::Obs::span_kind`]) and then count through the handle,
/// skipping the per-record key walk and its string comparisons.
///
/// Kinds are only meaningful for the tracker that issued them; entries
/// are never removed, so a kind stays valid for the tracker's lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanKind(u32);

/// Enter/exit bookkeeping for one span kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Spans opened via `enter` (or recorded retroactively).
    pub entered: u64,
    /// Spans closed via `exit` (or recorded retroactively).
    pub exited: u64,
    /// Exits that found no matching open span.
    pub unmatched_exits: u64,
}

/// Tracks open spans and per-kind balance counts.
///
/// Each kind has one [`SpanStats`] entry in `stats`, addressed by its
/// [`SpanKind`]; `index` maps `(entity, operation)` to that kind for the
/// string-keyed calls and gives the stable reporting order.
#[derive(Debug, Default)]
pub struct SpanTracker {
    open: BTreeMap<(SpanKind, u64), SimTime>,
    index: BTreeMap<SpanKey, SpanKind>,
    stats: Vec<SpanStats>,
}

impl SpanTracker {
    /// Interns `(entity, op)`, creating its stats entry with zero counts
    /// if absent; [`SpanTracker::all_stats`] lists it from then on.
    pub fn intern(&mut self, entity: &'static str, op: &'static str) -> SpanKind {
        *self.index.entry((entity, op)).or_insert_with(|| {
            let kind = SpanKind(u32::try_from(self.stats.len()).expect("span kind overflow"));
            self.stats.push(SpanStats::default());
            kind
        })
    }

    /// Opens span `id` of kind `(entity, op)` at `now`. Re-entering an
    /// id that is already open restarts it (the old start is replaced
    /// and the duplicate counted as an unmatched exit would be — the
    /// balance numbers stay honest).
    pub fn enter(&mut self, entity: &'static str, op: &'static str, id: u64, now: SimTime) {
        let kind = self.intern(entity, op);
        let stats = &mut self.stats[kind.0 as usize];
        stats.entered += 1;
        if self.open.insert((kind, id), now).is_some() {
            // The prior open span can never be exited now.
            stats.unmatched_exits += 1;
        }
    }

    /// Closes span `id`, returning its virtual duration, or `None` (and
    /// an unmatched-exit count) if it was never opened.
    pub fn exit(
        &mut self,
        entity: &'static str,
        op: &'static str,
        id: u64,
        now: SimTime,
    ) -> Option<SimDuration> {
        let kind = self.intern(entity, op);
        let stats = &mut self.stats[kind.0 as usize];
        match self.open.remove(&(kind, id)) {
            Some(start) => {
                stats.exited += 1;
                Some(now.saturating_since(start))
            }
            None => {
                stats.unmatched_exits += 1;
                None
            }
        }
    }

    /// Books a retroactively-measured span as one enter + one exit.
    pub fn note_recorded(&mut self, entity: &'static str, op: &'static str) {
        let kind = self.intern(entity, op);
        self.note_recorded_kind(kind);
    }

    /// [`SpanTracker::note_recorded`] through an interned kind.
    #[inline]
    pub fn note_recorded_kind(&mut self, kind: SpanKind) {
        let stats = &mut self.stats[kind.0 as usize];
        stats.entered += 1;
        stats.exited += 1;
    }

    /// Number of spans currently open (all kinds).
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// `(entered, exited)` for one span kind.
    pub fn balance(&self, entity: &str, op: &str) -> (u64, u64) {
        let s = self.stats(entity, op);
        (s.entered, s.exited)
    }

    /// Full stats for one span kind.
    pub fn stats(&self, entity: &str, op: &str) -> SpanStats {
        self.index
            .get(&(entity, op))
            .map(|k| self.stats[k.0 as usize])
            .unwrap_or_default()
    }

    /// Every span kind seen, with its stats, in stable order.
    pub fn all_stats(&self) -> impl Iterator<Item = (SpanKey, SpanStats)> + '_ {
        self.index
            .iter()
            .map(|(key, k)| (*key, self.stats[k.0 as usize]))
    }

    /// True when every entered span has exited, with no unmatched exits
    /// anywhere — the property the Master proptest asserts.
    pub fn is_balanced(&self) -> bool {
        self.open.is_empty()
            && self
                .stats
                .iter()
                .all(|s| s.entered == s.exited && s.unmatched_exits == 0)
    }
}

impl fmt::Display for SpanTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (&(entity, op), &kind) in &self.index {
            let s = self.stats[kind.0 as usize];
            writeln!(
                f,
                "{entity}.{op}: entered={} exited={} unmatched={} open={}",
                s.entered,
                s.exited,
                s.unmatched_exits,
                self.open.keys().filter(|(k, _)| *k == kind).count(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_exit_measures_virtual_time() {
        let mut t = SpanTracker::default();
        t.enter("master", "priming", 5, SimTime::from_secs(10));
        assert_eq!(t.open_count(), 1);
        let d = t
            .exit("master", "priming", 5, SimTime::from_secs(70))
            .unwrap();
        assert_eq!(d, SimDuration::from_secs(60));
        assert!(t.is_balanced());
        assert_eq!(t.balance("master", "priming"), (1, 1));
    }

    #[test]
    fn unmatched_exit_is_counted_not_fed() {
        let mut t = SpanTracker::default();
        assert!(t.exit("master", "priming", 1, SimTime::ZERO).is_none());
        assert_eq!(t.stats("master", "priming").unmatched_exits, 1);
        assert!(!t.is_balanced());
    }

    #[test]
    fn concurrent_ids_are_independent() {
        let mut t = SpanTracker::default();
        t.enter("daemon", "boot", 1, SimTime::from_secs(1));
        t.enter("daemon", "boot", 2, SimTime::from_secs(2));
        let d1 = t.exit("daemon", "boot", 1, SimTime::from_secs(5)).unwrap();
        let d2 = t.exit("daemon", "boot", 2, SimTime::from_secs(5)).unwrap();
        assert_eq!(d1, SimDuration::from_secs(4));
        assert_eq!(d2, SimDuration::from_secs(3));
        assert!(t.is_balanced());
    }

    #[test]
    fn reenter_same_id_keeps_balance_honest() {
        let mut t = SpanTracker::default();
        t.enter("m", "op", 1, SimTime::from_secs(1));
        t.enter("m", "op", 1, SimTime::from_secs(2));
        t.exit("m", "op", 1, SimTime::from_secs(3));
        assert!(!t.is_balanced());
        assert_eq!(
            t.stats("m", "op"),
            SpanStats {
                entered: 2,
                exited: 1,
                unmatched_exits: 1
            }
        );
    }

    /// String-keyed enters/exits, retroactive records and interned
    /// records of one `(entity, op)` all land in its one stats entry.
    #[test]
    fn string_and_interned_records_share_one_entry() {
        use crate::obs::{Labels, MetricKind, Obs};
        let obs = Obs::enabled(16);
        let labels = Labels::one("vsn", 1);
        obs.span_enter("request", "queue", 1, SimTime::from_secs(1));
        obs.span_exit("request", "queue", 1, SimTime::from_secs(2));
        obs.span_record(
            "request",
            "queue",
            labels,
            SimTime::ZERO,
            SimTime::from_secs(1),
        );
        let kind = obs.span_kind("request", "queue").unwrap();
        assert_eq!(obs.span_kind("request", "queue"), Some(kind));
        let h = obs
            .intern("request", "queue", labels, MetricKind::Histogram)
            .unwrap();
        for _ in 0..3 {
            obs.span_record_h(kind, h, SimTime::ZERO, SimTime::from_secs(1));
        }
        obs.with(|i| {
            let t = &i.spans;
            assert_eq!(t.balance("request", "queue"), (5, 5));
            assert_eq!(
                t.all_stats().collect::<Vec<_>>(),
                vec![(("request", "queue"), t.stats("request", "queue"))]
            );
            assert!(t.is_balanced());
            assert_eq!(
                i.registry
                    .histogram("request", "queue", labels)
                    .unwrap()
                    .count(),
                4
            );
        });
        // An open span, then an unmatched exit, unbalance the same entry.
        obs.span_enter("request", "queue", 2, SimTime::from_secs(3));
        assert!(!obs.with(|i| i.spans.is_balanced()).unwrap());
        obs.span_exit("request", "queue", 2, SimTime::from_secs(4));
        assert!(obs.with(|i| i.spans.is_balanced()).unwrap());
        obs.span_exit("request", "queue", 9, SimTime::from_secs(4));
        let st = obs.with(|i| i.spans.stats("request", "queue")).unwrap();
        assert_eq!(
            st,
            SpanStats {
                entered: 6,
                exited: 6,
                unmatched_exits: 1
            }
        );
        assert!(!obs.with(|i| i.spans.is_balanced()).unwrap());
        assert_eq!(obs.with(|i| i.spans.all_stats().count()).unwrap(), 1);
    }
}
