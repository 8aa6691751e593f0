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

#[derive(Clone, Debug)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The kind of metric an interned handle points at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

/// An interned metric identity: a direct index into the registry's slot
/// table. Hot-path writers intern `(scope, name, labels)` once (at wiring
/// time) and record through the handle afterwards, skipping the per-record
/// `BTreeMap` walk and its string comparisons entirely.
///
/// Handles are only meaningful for the registry that issued them; slots are
/// never removed, so a handle stays valid for the registry's lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricHandle(u32);

/// The central registry. Entities write through [`crate::obs::Obs`];
/// experiment harnesses read via accessors or [`MetricsRegistry::snapshot`].
///
/// Storage is a flat slot table (`Vec`) addressed by [`MetricHandle`],
/// plus a `BTreeMap` index from [`MetricId`] to slot for interning, the
/// string-keyed write and read paths, and stable snapshot ordering.
///
/// A `(scope, name, labels)` key must keep one metric kind for the whole
/// run — re-registering it as a different kind panics, since silently
/// resetting would corrupt longitudinal data.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    index: BTreeMap<MetricId, u32>,
    slots: Vec<(MetricId, Metric)>,
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
        let slot = *self.index.entry(id).or_insert_with(|| {
            let metric = match kind {
                MetricKind::Counter => Metric::Counter(0),
                MetricKind::Gauge => Metric::Gauge(0.0),
                MetricKind::Histogram => Metric::Histogram(Histogram::new()),
            };
            let slot = u32::try_from(self.slots.len()).expect("metric slot overflow");
            self.slots.push((id, metric));
            slot
        });
        let existing = match &self.slots[slot as usize].1 {
            Metric::Counter(_) => MetricKind::Counter,
            Metric::Gauge(_) => MetricKind::Gauge,
            Metric::Histogram(_) => MetricKind::Histogram,
        };
        let wanted = match kind {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        };
        assert!(
            existing == kind,
            "{scope}.{name} is a {}, not a {wanted}",
            self.slots[slot as usize].1.kind()
        );
        MetricHandle(slot)
    }

    /// Adds `n` to the counter behind an interned handle.
    pub fn counter_add_h(&mut self, h: MetricHandle, n: u64) {
        match &mut self.slots[h.0 as usize].1 {
            Metric::Counter(v) => *v += n,
            other => panic!("handle is a {}, not a counter", other.kind()),
        }
    }

    /// Sets the gauge behind an interned handle.
    pub fn gauge_set_h(&mut self, h: MetricHandle, v: f64) {
        match &mut self.slots[h.0 as usize].1 {
            Metric::Gauge(g) => *g = v,
            other => panic!("handle is a {}, not a gauge", other.kind()),
        }
    }

    /// Records into the histogram behind an interned handle.
    pub fn histogram_record_h(&mut self, h: MetricHandle, value: u64) {
        match &mut self.slots[h.0 as usize].1 {
            Metric::Histogram(hist) => hist.record(value),
            other => panic!("handle is a {}, not a histogram", other.kind()),
        }
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
        match self.get(scope, name, labels)? {
            Metric::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value (`None` if absent or a different kind).
    pub fn gauge(&self, scope: &'static str, name: &'static str, labels: Labels) -> Option<f64> {
        match self.get(scope, name, labels)? {
            Metric::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram (`None` if absent or a different kind).
    pub fn histogram(
        &self,
        scope: &'static str,
        name: &'static str,
        labels: Labels,
    ) -> Option<&Histogram> {
        match self.get(scope, name, labels)? {
            Metric::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Merges a histogram across every label set it was recorded under —
    /// how `SweepRunner` aggregates per-backend (or per-seed) latency
    /// distributions into one digest. `None` if no histogram matches.
    pub fn merged_histogram(&self, scope: &str, name: &str) -> Option<Histogram> {
        let mut merged: Option<Histogram> = None;
        for (id, m) in &self.slots {
            if id.scope != scope || id.name != name {
                continue;
            }
            if let Metric::Histogram(h) = m {
                match &mut merged {
                    Some(acc) => acc.merge(h),
                    None => merged = Some(h.clone()),
                }
            }
        }
        merged
    }

    /// Sums a counter across every label set it was recorded under.
    pub fn counter_total(&self, scope: &str, name: &str) -> u64 {
        self.slots
            .iter()
            .filter(|(id, _)| id.scope == scope && id.name == name)
            .filter_map(|(_, m)| match m {
                Metric::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    fn get(&self, scope: &'static str, name: &'static str, labels: Labels) -> Option<&Metric> {
        let id = MetricId {
            scope,
            name,
            labels,
        };
        let &slot = self.index.get(&id)?;
        Some(&self.slots[slot as usize].1)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// A point-in-time, serializable copy of every metric, in stable
    /// (scope, name, labels) order (the index order, independent of
    /// interning order).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let samples = self
            .index
            .iter()
            .map(|(id, &slot)| (id, &self.slots[slot as usize].1))
            .map(|(id, m)| Sample {
                name: format!("{}.{}", id.scope, id.name),
                labels: id
                    .labels
                    .pairs()
                    .iter()
                    .map(|&(k, v)| (k.to_string(), v))
                    .collect(),
                value: match m {
                    Metric::Counter(v) => MetricValue::Counter(*v),
                    Metric::Gauge(v) => MetricValue::Gauge(*v),
                    Metric::Histogram(h) => MetricValue::Histogram {
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
}
