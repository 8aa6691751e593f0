//! Central metrics registry: named counters, gauges and histograms
//! with small label sets.
//!
//! ## Naming convention
//!
//! A metric is identified by `(scope, name, labels)`:
//!
//! * `scope` — the owning entity: `"master"`, `"daemon"`, `"switch"`,
//!   `"agent"`, `"shaper"`, `"sched"`, `"world"`.
//! * `name` — a snake_case measure within the scope. Span latency
//!   histograms use the operation name (e.g. `master`/`priming`).
//! * `labels` — up to [`Labels::MAX`] `(&'static str, u64)` pairs with
//!   well-known keys `service`, `vsn`, `host`, `uid`, `ip`. Keys are
//!   static and values numeric, so building labels never allocates.
//!
//! Snapshots render names as `scope.name` and are serializable through
//! the (vendored) serde path for `results/<exp>.json` reports.

use std::collections::BTreeMap;
use std::fmt;

use crate::metrics::Histogram;

/// A small, allocation-free, ordered label set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Labels {
    pairs: [(&'static str, u64); Labels::MAX],
    len: u8,
}

impl Labels {
    /// Maximum number of label pairs a metric can carry.
    pub const MAX: usize = 3;

    /// The empty label set.
    pub const fn none() -> Self {
        Labels {
            pairs: [("", 0); Labels::MAX],
            len: 0,
        }
    }

    /// A single-label set.
    pub const fn one(key: &'static str, value: u64) -> Self {
        Labels {
            pairs: [(key, value), ("", 0), ("", 0)],
            len: 1,
        }
    }

    /// A two-label set.
    pub const fn two(k1: &'static str, v1: u64, k2: &'static str, v2: u64) -> Self {
        Labels {
            pairs: [(k1, v1), (k2, v2), ("", 0)],
            len: 2,
        }
    }

    /// A three-label set.
    pub const fn three(
        k1: &'static str,
        v1: u64,
        k2: &'static str,
        v2: u64,
        k3: &'static str,
        v3: u64,
    ) -> Self {
        Labels {
            pairs: [(k1, v1), (k2, v2), (k3, v3)],
            len: 3,
        }
    }

    /// Returns a copy with `key=value` appended.
    ///
    /// # Panics
    /// If the set already holds [`Labels::MAX`] pairs.
    pub fn with(mut self, key: &'static str, value: u64) -> Self {
        assert!(
            (self.len as usize) < Labels::MAX,
            "more than {} labels",
            Labels::MAX
        );
        self.pairs[self.len as usize] = (key, value);
        self.len += 1;
        self
    }

    /// The live pairs.
    pub fn pairs(&self) -> &[(&'static str, u64)] {
        &self.pairs[..self.len as usize]
    }

    /// Value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.pairs()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl fmt::Display for Labels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.pairs().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

/// Full identity of a metric in the registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    pub scope: &'static str,
    pub name: &'static str,
    pub labels: Labels,
}

impl fmt::Display for MetricId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}{}", self.scope, self.name, self.labels)
    }
}

/// The kind of metric an interned handle points at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// An interned metric identity: its kind in the top two bits and a
/// direct index into the registry's array for that kind (`scalars` for
/// counters and gauges, `hists` for histograms) below them. Hot-path
/// writers intern `(scope, name, labels)` once (at wiring time) and
/// record through the handle afterwards, skipping the per-record
/// `BTreeMap` walk and its string comparisons entirely.
///
/// Handles are only meaningful for the registry that issued them; metrics
/// are never removed, so a handle stays valid for the registry's lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricHandle(u32);

impl MetricHandle {
    const KIND_SHIFT: u32 = 30;
    const INDEX_MASK: u32 = (1 << Self::KIND_SHIFT) - 1;

    fn new(kind: MetricKind, index: usize) -> Self {
        let index = u32::try_from(index)
            .ok()
            .filter(|&i| i <= Self::INDEX_MASK)
            .expect("metric slot overflow");
        MetricHandle((kind as u32) << Self::KIND_SHIFT | index)
    }

    fn kind(self) -> MetricKind {
        match self.0 >> Self::KIND_SHIFT {
            0 => MetricKind::Counter,
            1 => MetricKind::Gauge,
            _ => MetricKind::Histogram,
        }
    }

    fn index(self) -> usize {
        (self.0 & Self::INDEX_MASK) as usize
    }

    /// The array index behind the handle, or a panic naming both kinds.
    #[inline]
    fn checked_index(self, wanted: MetricKind) -> usize {
        let kind = self.kind();
        assert!(
            kind == wanted,
            "handle is a {}, not a {}",
            kind.name(),
            wanted.name()
        );
        self.index()
    }
}

/// The central registry. Entities write through [`crate::obs::Obs`];
/// experiment harnesses read via accessors or [`MetricsRegistry::snapshot`].
///
/// Values are stored apart from identities. Counters and gauges are one
/// 8-byte word each in `scalars` (the count, or the gauge's
/// `f64::to_bits`); histograms live in `hists`. `index` is the only copy
/// of each `(scope, name, labels)` identity: it serves interning, the
/// string-keyed write and read paths, and stable snapshot ordering.
///
/// A `(scope, name, labels)` key must keep one metric kind for the whole
/// run — re-registering it as a different kind panics, since silently
/// resetting would corrupt longitudinal data.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    index: BTreeMap<MetricId, MetricHandle>,
    scalars: Vec<u64>,
    hists: Vec<Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a metric identity, creating the metric (zeroed) if absent,
    /// and returns its handle.
    ///
    /// # Panics
    /// If the identity already exists with a different kind.
    pub fn intern(
        &mut self,
        scope: &'static str,
        name: &'static str,
        labels: Labels,
        kind: MetricKind,
    ) -> MetricHandle {
        let id = MetricId {
            scope,
            name,
            labels,
        };
        let (scalars, hists) = (&mut self.scalars, &mut self.hists);
        let h = *self.index.entry(id).or_insert_with(|| match kind {
            MetricKind::Counter | MetricKind::Gauge => {
                // A zero word is both `0u64` and `0.0f64.to_bits()`.
                scalars.push(0);
                MetricHandle::new(kind, scalars.len() - 1)
            }
            MetricKind::Histogram => {
                hists.push(Histogram::new());
                MetricHandle::new(kind, hists.len() - 1)
            }
        });
        assert!(
            h.kind() == kind,
            "{scope}.{name} is a {}, not a {}",
            h.kind().name(),
            kind.name()
        );
        h
    }

    /// Adds `n` to the counter behind an interned handle.
    #[inline]
    pub fn counter_add_h(&mut self, h: MetricHandle, n: u64) {
        self.scalars[h.checked_index(MetricKind::Counter)] += n;
    }

    /// Sets the gauge behind an interned handle.
    #[inline]
    pub fn gauge_set_h(&mut self, h: MetricHandle, v: f64) {
        self.scalars[h.checked_index(MetricKind::Gauge)] = v.to_bits();
    }

    /// Records into the histogram behind an interned handle.
    #[inline]
    pub fn histogram_record_h(&mut self, h: MetricHandle, value: u64) {
        self.hists[h.checked_index(MetricKind::Histogram)].record(value);
    }

    /// Adds `n` to a counter, creating it at zero first.
    pub fn counter_add(&mut self, scope: &'static str, name: &'static str, labels: Labels, n: u64) {
        let h = self.intern(scope, name, labels, MetricKind::Counter);
        self.counter_add_h(h, n);
    }

    /// Sets a gauge to `v`, creating it if absent.
    pub fn gauge_set(&mut self, scope: &'static str, name: &'static str, labels: Labels, v: f64) {
        let h = self.intern(scope, name, labels, MetricKind::Gauge);
        self.gauge_set_h(h, v);
    }

    /// Records `value` into a histogram, creating it if absent.
    pub fn histogram_record(
        &mut self,
        scope: &'static str,
        name: &'static str,
        labels: Labels,
        value: u64,
    ) {
        let h = self.intern(scope, name, labels, MetricKind::Histogram);
        self.histogram_record_h(h, value);
    }

    /// Counter value (`None` if absent or a different kind).
    pub fn counter(&self, scope: &'static str, name: &'static str, labels: Labels) -> Option<u64> {
        let h = self.get(scope, name, labels, MetricKind::Counter)?;
        Some(self.scalars[h.index()])
    }

    /// Gauge value (`None` if absent or a different kind).
    pub fn gauge(&self, scope: &'static str, name: &'static str, labels: Labels) -> Option<f64> {
        let h = self.get(scope, name, labels, MetricKind::Gauge)?;
        Some(f64::from_bits(self.scalars[h.index()]))
    }

    /// Histogram (`None` if absent or a different kind).
    pub fn histogram(
        &self,
        scope: &'static str,
        name: &'static str,
        labels: Labels,
    ) -> Option<&Histogram> {
        let h = self.get(scope, name, labels, MetricKind::Histogram)?;
        Some(&self.hists[h.index()])
    }

    /// Merges a histogram across every label set it was recorded under —
    /// how `SweepRunner` aggregates per-backend (or per-seed) latency
    /// distributions into one digest. `None` if no histogram matches.
    pub fn merged_histogram(&self, scope: &'static str, name: &'static str) -> Option<Histogram> {
        let mut merged: Option<Histogram> = None;
        for h in self.family(scope, name, MetricKind::Histogram) {
            let hist = &self.hists[h.index()];
            match &mut merged {
                Some(acc) => acc.merge(hist),
                None => merged = Some(hist.clone()),
            }
        }
        merged
    }

    /// Sums a counter across every label set it was recorded under.
    pub fn counter_total(&self, scope: &'static str, name: &'static str) -> u64 {
        self.family(scope, name, MetricKind::Counter)
            .map(|h| self.scalars[h.index()])
            .sum()
    }

    /// Handles of every `(scope, name)` metric of `kind`, in label order:
    /// a range over the index, which sorts by scope, then name, then
    /// labels ([`Labels::none`] is the least label set).
    fn family(
        &self,
        scope: &'static str,
        name: &'static str,
        kind: MetricKind,
    ) -> impl Iterator<Item = MetricHandle> + '_ {
        let first = MetricId {
            scope,
            name,
            labels: Labels::none(),
        };
        self.index
            .range(first..)
            .take_while(move |(id, _)| id.scope == scope && id.name == name)
            .map(|(_, &h)| h)
            .filter(move |h| h.kind() == kind)
    }

    fn get(
        &self,
        scope: &'static str,
        name: &'static str,
        labels: Labels,
        kind: MetricKind,
    ) -> Option<MetricHandle> {
        let id = MetricId {
            scope,
            name,
            labels,
        };
        self.index.get(&id).copied().filter(|h| h.kind() == kind)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// A point-in-time, serializable copy of every metric, in stable
    /// (scope, name, labels) order (the index order, independent of
    /// interning order).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let samples = self
            .index
            .iter()
            .map(|(id, &h)| Sample {
                name: format!("{}.{}", id.scope, id.name),
                labels: id
                    .labels
                    .pairs()
                    .iter()
                    .map(|&(k, v)| (k.to_string(), v))
                    .collect(),
                value: match h.kind() {
                    MetricKind::Counter => MetricValue::Counter(self.scalars[h.index()]),
                    MetricKind::Gauge => {
                        MetricValue::Gauge(f64::from_bits(self.scalars[h.index()]))
                    }
                    MetricKind::Histogram => {
                        let h = &self.hists[h.index()];
                        MetricValue::Histogram {
                            count: h.count(),
                            mean: h.mean(),
                            p50: h.median(),
                            p99: h.p99(),
                            p999: h.quantile(0.999),
                            max: h.quantile(1.0),
                        }
                    }
                },
            })
            .collect();
        RegistrySnapshot { samples }
    }
}

/// One serialized metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// `scope.name`.
    pub name: String,
    pub labels: Vec<(String, u64)>,
    pub value: MetricValue,
}

/// A serialized metric value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    /// Histogram digest; `mean`/`p50`/`p99`/`p999`/`max` are in the
    /// recorded unit (nanoseconds for span latencies).
    Histogram {
        count: u64,
        mean: f64,
        p50: u64,
        p99: u64,
        p999: u64,
        max: u64,
    },
}

/// Serializable registry snapshot ([`MetricsRegistry::snapshot`]).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct RegistrySnapshot {
    pub samples: Vec<Sample>,
}

impl RegistrySnapshot {
    /// Finds a sample by rendered name and exact label values.
    pub fn find(&self, name: &str, labels: &[(&str, u64)]) -> Option<&Sample> {
        self.samples.iter().find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels)
                    .all(|((k1, v1), (k2, v2))| k1 == k2 && v1 == v2)
        })
    }
}

impl serde::Serialize for RegistrySnapshot {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Array(self.samples.iter().map(|s| s.to_json_value()).collect())
    }
}

impl serde::Serialize for Sample {
    fn to_json_value(&self) -> serde::Value {
        let mut fields = vec![
            ("name".to_string(), serde::Value::String(self.name.clone())),
            (
                "labels".to_string(),
                serde::Value::Object(
                    self.labels
                        .iter()
                        .map(|(k, v)| (k.clone(), serde::Value::U64(*v)))
                        .collect(),
                ),
            ),
        ];
        let (kind, value) = match &self.value {
            MetricValue::Counter(v) => ("counter", serde::Value::U64(*v)),
            MetricValue::Gauge(v) => ("gauge", serde::Value::F64(*v)),
            MetricValue::Histogram {
                count,
                mean,
                p50,
                p99,
                p999,
                max,
            } => (
                "histogram",
                serde::Value::Object(vec![
                    ("count".to_string(), serde::Value::U64(*count)),
                    ("mean".to_string(), serde::Value::F64(*mean)),
                    ("p50".to_string(), serde::Value::U64(*p50)),
                    ("p99".to_string(), serde::Value::U64(*p99)),
                    ("p999".to_string(), serde::Value::U64(*p999)),
                    ("max".to_string(), serde::Value::U64(*max)),
                ]),
            ),
        };
        fields.push((kind.to_string(), value));
        serde::Value::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_order_and_lookup() {
        let a = Labels::two("service", 1, "vsn", 2);
        let b = Labels::two("service", 1, "vsn", 3);
        assert!(a < b);
        assert_eq!(a.get("vsn"), Some(2));
        assert_eq!(a.get("host"), None);
        assert_eq!(a.len(), 2);
        assert_eq!(Labels::none().with("host", 9).get("host"), Some(9));
        assert_eq!(a.to_string(), "{service=1,vsn=2}");
    }

    #[test]
    #[should_panic(expected = "more than 3 labels")]
    fn labels_overflow_panics() {
        let _ = Labels::three("a", 1, "b", 2, "c", 3).with("d", 4);
    }

    #[test]
    fn same_name_different_labels_are_distinct() {
        let mut r = MetricsRegistry::new();
        r.counter_add("switch", "served", Labels::one("vsn", 1), 2);
        r.counter_add("switch", "served", Labels::one("vsn", 2), 5);
        assert_eq!(
            r.counter("switch", "served", Labels::one("vsn", 1)),
            Some(2)
        );
        assert_eq!(
            r.counter("switch", "served", Labels::one("vsn", 2)),
            Some(5)
        );
        assert_eq!(r.counter_total("switch", "served"), 7);
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_conflict_panics() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("x", "y", Labels::none(), 1.0);
        r.counter_add("x", "y", Labels::none(), 1);
    }

    #[test]
    fn interned_handles_alias_string_writes() {
        let mut r = MetricsRegistry::new();
        r.counter_add("switch", "served", Labels::one("vsn", 7), 2);
        let h = r.intern(
            "switch",
            "served",
            Labels::one("vsn", 7),
            MetricKind::Counter,
        );
        r.counter_add_h(h, 3);
        assert_eq!(
            r.counter("switch", "served", Labels::one("vsn", 7)),
            Some(5)
        );
        // Re-interning yields the same slot; no duplicate metric appears.
        let h2 = r.intern(
            "switch",
            "served",
            Labels::one("vsn", 7),
            MetricKind::Counter,
        );
        assert_eq!(h, h2);
        assert_eq!(r.len(), 1);

        let g = r.intern("switch", "outstanding", Labels::none(), MetricKind::Gauge);
        r.gauge_set_h(g, 4.5);
        assert_eq!(r.gauge("switch", "outstanding", Labels::none()), Some(4.5));

        let hist = r.intern("switch", "response", Labels::none(), MetricKind::Histogram);
        r.histogram_record_h(hist, 1_000);
        r.histogram_record_h(hist, 3_000);
        assert_eq!(
            r.histogram("switch", "response", Labels::none())
                .unwrap()
                .count(),
            2
        );
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn intern_kind_conflict_panics() {
        let mut r = MetricsRegistry::new();
        r.counter_add("x", "y", Labels::none(), 1);
        r.intern("x", "y", Labels::none(), MetricKind::Gauge);
    }

    /// The snapshot stays in (scope, name, labels) order even when metrics
    /// are interned out of order into later slots.
    #[test]
    fn snapshot_order_is_independent_of_interning_order() {
        let mut r = MetricsRegistry::new();
        let z = r.intern("zeta", "last", Labels::none(), MetricKind::Counter);
        let a = r.intern("alpha", "first", Labels::none(), MetricKind::Counter);
        r.counter_add_h(z, 1);
        r.counter_add_h(a, 2);
        let snap = r.snapshot();
        assert_eq!(snap.samples[0].name, "alpha.first");
        assert_eq!(snap.samples[1].name, "zeta.last");
    }

    #[test]
    fn snapshot_orders_and_digests() {
        let mut r = MetricsRegistry::new();
        r.histogram_record("master", "admission", Labels::none(), 1000);
        r.histogram_record("master", "admission", Labels::none(), 3000);
        r.counter_add("agent", "authenticated", Labels::none(), 1);
        let snap = r.snapshot();
        // BTreeMap order: agent before master.
        assert_eq!(snap.samples[0].name, "agent.authenticated");
        let s = snap.find("master.admission", &[]).unwrap();
        match &s.value {
            MetricValue::Histogram { count, .. } => assert_eq!(*count, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Point reads go through the index and agree with the snapshot for
    /// every metric, including label sets that differ only in a value.
    #[test]
    fn point_reads_agree_with_snapshot() {
        let mut r = MetricsRegistry::new();
        for vsn in [3u64, 1, 2] {
            let labels = Labels::two("service", 7, "vsn", vsn);
            r.counter_add("switch", "served", labels, vsn * 10);
            r.gauge_set("switch", "outstanding", labels, vsn as f64 / 2.0);
            for v in 0..vsn * 5 {
                r.histogram_record("switch", "response_time", labels, 1_000 + v * 997);
            }
        }
        let snap = r.snapshot();
        assert_eq!(snap.samples.len(), 9);
        for vsn in [1u64, 2, 3] {
            let labels = Labels::two("service", 7, "vsn", vsn);
            let key = [("service", 7), ("vsn", vsn)];
            let served = snap.find("switch.served", &key).unwrap();
            assert_eq!(
                MetricValue::Counter(r.counter("switch", "served", labels).unwrap()),
                served.value
            );
            let out = snap.find("switch.outstanding", &key).unwrap();
            assert_eq!(
                MetricValue::Gauge(r.gauge("switch", "outstanding", labels).unwrap()),
                out.value
            );
            let h = r.histogram("switch", "response_time", labels).unwrap();
            match &snap.find("switch.response_time", &key).unwrap().value {
                MetricValue::Histogram {
                    count, p50, max, ..
                } => {
                    assert_eq!(*count, h.count());
                    assert_eq!(*p50, h.median());
                    assert_eq!(*max, h.quantile(1.0));
                }
                other => panic!("unexpected {other:?}"),
            }
            // A read of the wrong kind, or of an absent label set, is `None`.
            assert_eq!(r.gauge("switch", "served", labels), None);
        }
        let absent = Labels::two("service", 7, "vsn", 4);
        assert_eq!(r.counter("switch", "served", absent), None);
        assert!(r.histogram("switch", "response_time", absent).is_none());
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut r = MetricsRegistry::new();
        r.counter_add("switch", "served", Labels::two("service", 1, "vsn", 2), 42);
        r.gauge_set("switch", "outstanding", Labels::one("vsn", 2), 1.5);
        r.histogram_record("daemon", "mount", Labels::one("host", 1), 2_500_000);
        let snap = r.snapshot();
        let text = serde_json::to_string_pretty(&snap).unwrap();
        let parsed = serde_json::from_str(&text).unwrap();
        assert_eq!(
            parsed,
            serde_json::to_value(&snap),
            "round trip via:\n{text}"
        );
        // Spot-check the rendered shape.
        let served = parsed.index(2).unwrap();
        assert_eq!(
            served.get("name").and_then(|v| v.as_str()),
            Some("switch.served")
        );
        assert_eq!(
            served
                .get("labels")
                .and_then(|l| l.get("service"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(served.get("counter").and_then(|v| v.as_u64()), Some(42));
    }

    #[test]
    #[should_panic(expected = "handle is a counter, not a histogram")]
    fn handle_of_wrong_kind_panics() {
        let mut r = MetricsRegistry::new();
        let h = r.intern("x", "y", Labels::none(), MetricKind::Counter);
        r.histogram_record_h(h, 1);
    }

    /// The kind travels in the handle's top bits: handles of different
    /// kinds never alias, even where their array indices coincide.
    #[test]
    fn handles_carry_their_kind() {
        let mut r = MetricsRegistry::new();
        let c = r.intern("x", "c", Labels::none(), MetricKind::Counter);
        let g = r.intern("x", "g", Labels::none(), MetricKind::Gauge);
        let h = r.intern("x", "h", Labels::none(), MetricKind::Histogram);
        assert_eq!(
            (c.kind(), g.kind(), h.kind()),
            (
                MetricKind::Counter,
                MetricKind::Gauge,
                MetricKind::Histogram
            )
        );
        // Counters and gauges share the scalar array; histograms start
        // their own at zero.
        assert_eq!((c.index(), g.index(), h.index()), (0, 1, 0));
        r.counter_add_h(c, 3);
        r.gauge_set_h(g, -2.5);
        r.histogram_record_h(h, 7);
        assert_eq!(r.counter("x", "c", Labels::none()), Some(3));
        assert_eq!(r.gauge("x", "g", Labels::none()), Some(-2.5));
        assert_eq!(r.histogram("x", "h", Labels::none()).unwrap().count(), 1);
    }

    /// The registry against a test-only reference: one `BTreeMap` from
    /// identity to value, the layout the registry had before values
    /// moved into per-kind arrays.
    mod reference {
        use super::*;
        use proptest::prelude::*;

        #[derive(Clone, Debug)]
        enum RefMetric {
            Counter(u64),
            Gauge(f64),
            Histogram(Histogram),
        }

        #[derive(Default)]
        struct RefRegistry {
            metrics: BTreeMap<MetricId, RefMetric>,
        }

        impl RefRegistry {
            fn intern(&mut self, id: MetricId, kind: MetricKind) -> &mut RefMetric {
                self.metrics.entry(id).or_insert_with(|| match kind {
                    MetricKind::Counter => RefMetric::Counter(0),
                    MetricKind::Gauge => RefMetric::Gauge(0.0),
                    MetricKind::Histogram => RefMetric::Histogram(Histogram::new()),
                })
            }

            fn write(&mut self, id: MetricId, kind: MetricKind, v: u64) {
                match self.intern(id, kind) {
                    RefMetric::Counter(c) => *c += v,
                    RefMetric::Gauge(g) => *g = gauge_value(v),
                    RefMetric::Histogram(h) => h.record(v),
                }
            }

            fn snapshot(&self) -> RegistrySnapshot {
                let samples = self
                    .metrics
                    .iter()
                    .map(|(id, m)| Sample {
                        name: format!("{}.{}", id.scope, id.name),
                        labels: id
                            .labels
                            .pairs()
                            .iter()
                            .map(|&(k, v)| (k.to_string(), v))
                            .collect(),
                        value: match m {
                            RefMetric::Counter(v) => MetricValue::Counter(*v),
                            RefMetric::Gauge(v) => MetricValue::Gauge(*v),
                            RefMetric::Histogram(h) => MetricValue::Histogram {
                                count: h.count(),
                                mean: h.mean(),
                                p50: h.median(),
                                p99: h.p99(),
                                p999: h.quantile(0.999),
                                max: h.quantile(1.0),
                            },
                        },
                    })
                    .collect();
                RegistrySnapshot { samples }
            }

            fn family<'a>(
                &'a self,
                scope: &'a str,
                name: &'a str,
            ) -> impl Iterator<Item = &'a RefMetric> {
                self.metrics
                    .iter()
                    .filter(move |(id, _)| id.scope == scope && id.name == name)
                    .map(|(_, m)| m)
            }
        }

        /// `(scope, name)` pool; the names share prefixes so the index
        /// ranges of neighbouring families abut.
        const NAMES: [(&str, &str); 5] = [
            ("switch", "served"),
            ("switch", "outstanding"),
            ("switch", "response_time"),
            ("switch", "mixed"),
            ("switchx", "served"),
        ];

        /// Overlapping label sets: shared keys, shared values, and one set
        /// built two ways.
        fn labels(i: usize) -> Labels {
            [
                Labels::none(),
                Labels::one("service", 1),
                Labels::none().with("service", 2),
                Labels::two("service", 1, "vsn", 1),
                Labels::two("service", 1, "vsn", 2),
                Labels::two("service", 2, "vsn", 1),
                Labels::three("service", 1, "vsn", 1, "host", 3),
                Labels::one("vsn", 1),
            ][i]
        }
        const LABEL_SETS: usize = 8;

        /// The fixed kind of an identity: `switch.mixed` holds all three
        /// kinds under different label sets, every other name one kind.
        fn kind_of(name: usize, label: usize) -> MetricKind {
            let k = if NAMES[name].1 == "mixed" {
                label
            } else {
                name
            };
            [
                MetricKind::Counter,
                MetricKind::Gauge,
                MetricKind::Histogram,
            ][k % 3]
        }

        fn gauge_value(v: u64) -> f64 {
            (v as f64) / 8.0 - 1_000.0
        }

        fn metric_id(name: usize, label: usize) -> MetricId {
            MetricId {
                scope: NAMES[name].0,
                name: NAMES[name].1,
                labels: labels(label),
            }
        }

        fn digest(h: &Histogram) -> (u64, u64, Vec<u64>) {
            let qs = [0.0, 0.5, 0.99, 0.999, 1.0].map(|q| h.quantile(q));
            (h.count(), h.mean().to_bits(), qs.to_vec())
        }

        /// One step: 0 = string-keyed write, 1 = intern then write through
        /// the handle, 2 = write through an earlier handle, 3 = intern
        /// only (a zeroed metric).
        fn ops() -> impl Strategy<Value = Vec<(u8, usize, usize, u64)>> {
            proptest::collection::vec(
                (0u8..4, 0..NAMES.len(), 0..LABEL_SETS, 0u64..5_000_000),
                0..120,
            )
        }

        proptest! {
            #[test]
            fn prop_registry_matches_reference_map(ops in ops()) {
                let mut reg = MetricsRegistry::new();
                let mut model = RefRegistry::default();
                let mut handles: Vec<(MetricId, MetricKind, MetricHandle)> = Vec::new();
                for (op, n, l, v) in ops {
                    let (id, kind) = (metric_id(n, l), kind_of(n, l));
                    let (id, kind, h) = match op {
                        0 => {
                            match kind {
                                MetricKind::Counter => {
                                    reg.counter_add(id.scope, id.name, id.labels, v)
                                }
                                MetricKind::Gauge => {
                                    reg.gauge_set(id.scope, id.name, id.labels, gauge_value(v))
                                }
                                MetricKind::Histogram => {
                                    reg.histogram_record(id.scope, id.name, id.labels, v)
                                }
                            }
                            model.write(id, kind, v);
                            continue;
                        }
                        2 if !handles.is_empty() => handles[v as usize % handles.len()],
                        _ => {
                            let h = reg.intern(id.scope, id.name, id.labels, kind);
                            handles.push((id, kind, h));
                            if op == 3 {
                                model.intern(id, kind);
                                continue;
                            }
                            (id, kind, h)
                        }
                    };
                    match kind {
                        MetricKind::Counter => reg.counter_add_h(h, v),
                        MetricKind::Gauge => reg.gauge_set_h(h, gauge_value(v)),
                        MetricKind::Histogram => reg.histogram_record_h(h, v),
                    }
                    model.write(id, kind, v);
                }

                prop_assert_eq!(reg.snapshot(), model.snapshot());
                prop_assert_eq!(reg.len(), model.metrics.len());
                for (n, &(scope, name)) in NAMES.iter().enumerate() {
                    for l in 0..LABEL_SETS {
                        let labels = labels(l);
                        let want = model.metrics.get(&metric_id(n, l));
                        prop_assert_eq!(
                            reg.counter(scope, name, labels),
                            match want { Some(RefMetric::Counter(c)) => Some(*c), _ => None }
                        );
                        prop_assert_eq!(
                            reg.gauge(scope, name, labels).map(f64::to_bits),
                            match want { Some(RefMetric::Gauge(g)) => Some(g.to_bits()), _ => None }
                        );
                        prop_assert_eq!(
                            reg.histogram(scope, name, labels).map(digest),
                            match want { Some(RefMetric::Histogram(h)) => Some(digest(h)), _ => None }
                        );
                    }
                    let mut merged: Option<Histogram> = None;
                    let mut total = 0;
                    for m in model.family(scope, name) {
                        match m {
                            RefMetric::Histogram(h) => match &mut merged {
                                Some(acc) => acc.merge(h),
                                None => merged = Some(h.clone()),
                            },
                            RefMetric::Counter(c) => total += c,
                            RefMetric::Gauge(_) => {}
                        }
                    }
                    prop_assert_eq!(
                        reg.merged_histogram(scope, name).as_ref().map(digest),
                        merged.as_ref().map(digest)
                    );
                    prop_assert_eq!(reg.counter_total(scope, name), total);
                }
            }
        }
    }
}
