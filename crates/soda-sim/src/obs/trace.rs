//! Causal request tracing with deterministic head-sampling.
//!
//! Aggregate spans and histograms answer "what was the admission p99";
//! they cannot answer "where did *this* request spend its time". A
//! [`Tracer`] records per-entity causal trees: one [`TraceId`] per
//! sampled entity (a client request, a service creation), holding
//! [`TraceSpan`]s with parent links. Call sites thread a small `Copy`
//! [`TraceRef`] through the pipeline (closure captures, flow payloads),
//! so a span recorded on the far side of the NIC still hangs off the
//! right parent.
//!
//! ## Determinism and the observer effect
//!
//! The head-sampling decision is a pure hash of `(salt, key)` — the
//! simulation RNG is never consulted, no engine events are scheduled,
//! and recording touches nothing but the tracer's own storage. Tracing
//! on versus off therefore yields bit-identical trajectories (the
//! transparency gate in `tests/observability.rs`). Memory is bounded
//! two ways: unsampled keys store nothing, and once `max_traces`
//! records exist further keys are counted in [`Tracer::capped`] instead
//! of stored.
//!
//! ## Export
//!
//! [`Tracer::chrome_trace_value`] renders the Chrome trace-event JSON
//! format (`{"traceEvents": [{"ph": "X", ...}]}`), loadable in Perfetto
//! or `chrome://tracing`. [`Tracer::critical_paths_value`] emits a
//! per-trace breakdown of the root span into its direct children; for a
//! request trace the children are contiguous phases, so their durations
//! sum exactly to the measured response time.

use crate::fnv::{fnv1a, FNV_OFFSET};
use crate::time::SimTime;

/// Identity of one sampled trace (one request, one creation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identity of one span within its trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(pub u32);

/// A `(trace, span)` pair — the token call sites propagate through the
/// pipeline so later phases attach to the right parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRef {
    pub trace: TraceId,
    pub span: SpanId,
}

/// One node of a causal tree.
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// Phase name, e.g. `"route"`, `"guest_service"`, `"priming"`.
    pub name: &'static str,
    /// Parent span within the same trace; `None` for the root.
    pub parent: Option<SpanId>,
    pub start: SimTime,
    /// `None` while the span is still open (entity lost mid-flight or
    /// still in flight at drain time).
    pub end: Option<SimTime>,
}

/// One sampled causal tree. `spans[0]` is the root.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    pub id: TraceId,
    /// Category lane (`"request"`, `"creation"`) — the Chrome export's
    /// `cat` field.
    pub track: &'static str,
    /// The entity key the sampler hashed (request id, service id).
    pub key: u64,
    pub spans: Vec<TraceSpan>,
}

impl TraceRecord {
    /// The root span.
    pub fn root(&self) -> &TraceSpan {
        &self.spans[0]
    }

    /// True once the root span has closed.
    pub fn is_finished(&self) -> bool {
        self.spans[0].end.is_some()
    }

    /// Direct children of the root in start order — the critical-path
    /// phases of the entity.
    pub fn phases(&self) -> Vec<&TraceSpan> {
        let mut out: Vec<&TraceSpan> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(SpanId(0)))
            .collect();
        out.sort_by_key(|s| s.start);
        out
    }
}

/// Bounded causal-trace recorder. Disabled by default: every recording
/// call is then a branch and a return.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    /// Sampler salt — derive from the run seed so two runs of the same
    /// seed sample the same keys.
    salt: u64,
    /// Keep roughly one in this many keys (`<= 1` keeps every key).
    sample_one_in: u64,
    /// Hard cap on stored traces; excess sampled keys are counted in
    /// `capped`, not stored.
    max_traces: usize,
    traces: Vec<TraceRecord>,
    capped: u64,
    unsampled: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A recording tracer. `salt` seeds the (pure-hash) head sampler,
    /// `sample_one_in` keeps ~1/N of keys, `max_traces` bounds memory.
    pub fn enabled(salt: u64, sample_one_in: u64, max_traces: usize) -> Self {
        Tracer {
            enabled: true,
            salt,
            sample_one_in: sample_one_in.max(1),
            max_traces: max_traces.max(1),
            traces: Vec::new(),
            capped: 0,
            unsampled: 0,
        }
    }

    /// True if this tracer records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The deterministic head-sampling decision for `key`: a pure hash
    /// of `(salt, key)`, never the simulation RNG.
    #[inline]
    pub fn sampled(&self, key: u64) -> bool {
        if !self.enabled {
            return false;
        }
        if self.sample_one_in <= 1 {
            return true;
        }
        let h = fnv1a(
            fnv1a(FNV_OFFSET, &self.salt.to_le_bytes()),
            &key.to_le_bytes(),
        );
        h.is_multiple_of(self.sample_one_in)
    }

    /// Starts a trace for `key` if the sampler keeps it and the cap has
    /// room. Returns the root span's reference.
    pub fn begin(
        &mut self,
        track: &'static str,
        name: &'static str,
        key: u64,
        start: SimTime,
    ) -> Option<TraceRef> {
        if !self.sampled(key) {
            if self.enabled {
                self.unsampled += 1;
            }
            return None;
        }
        if self.traces.len() >= self.max_traces {
            self.capped += 1;
            return None;
        }
        let id = TraceId(self.traces.len() as u64);
        self.traces.push(TraceRecord {
            id,
            track,
            key,
            spans: vec![TraceSpan {
                name,
                parent: None,
                start,
                end: None,
            }],
        });
        Some(TraceRef {
            trace: id,
            span: SpanId(0),
        })
    }

    /// Records a completed child span under `parent`.
    pub fn child(
        &mut self,
        parent: TraceRef,
        name: &'static str,
        start: SimTime,
        end: SimTime,
    ) -> Option<TraceRef> {
        let r = self.open_child(parent, name, start)?;
        self.close(r, end);
        Some(r)
    }

    /// Opens a child span under `parent`; close it with [`Tracer::close`].
    pub fn open_child(
        &mut self,
        parent: TraceRef,
        name: &'static str,
        start: SimTime,
    ) -> Option<TraceRef> {
        let rec = self.traces.get_mut(parent.trace.0 as usize)?;
        let span = SpanId(rec.spans.len() as u32);
        rec.spans.push(TraceSpan {
            name,
            parent: Some(parent.span),
            start,
            end: None,
        });
        Some(TraceRef {
            trace: parent.trace,
            span,
        })
    }

    /// Closes a span (idempotent: the first close wins, so a drop path
    /// racing a completion cannot rewrite history).
    pub fn close(&mut self, r: TraceRef, end: SimTime) {
        if let Some(rec) = self.traces.get_mut(r.trace.0 as usize) {
            if let Some(span) = rec.spans.get_mut(r.span.0 as usize) {
                if span.end.is_none() {
                    span.end = Some(end.max(span.start));
                }
            }
        }
    }

    /// All stored traces.
    pub fn traces(&self) -> &[TraceRecord] {
        &self.traces
    }

    /// One stored trace.
    pub fn get(&self, id: TraceId) -> Option<&TraceRecord> {
        self.traces.get(id.0 as usize)
    }

    /// Number of stored traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Sampled keys dropped by the `max_traces` bound.
    pub fn capped(&self) -> u64 {
        self.capped
    }

    /// Keys the head sampler declined.
    pub fn unsampled(&self) -> u64 {
        self.unsampled
    }

    /// The stored traces in Chrome trace-event JSON form
    /// (Perfetto-loadable). Times are microseconds; every span is a
    /// complete (`"ph": "X"`) duration event; each trace gets its own
    /// `tid` row. Open spans render with zero duration and
    /// `"unfinished": true` in `args`.
    pub fn chrome_trace_value(&self) -> serde::Value {
        let mut events = Vec::new();
        for rec in &self.traces {
            for (i, span) in rec.spans.iter().enumerate() {
                let start_us = span.start.as_nanos() as f64 / 1_000.0;
                let dur_us = span
                    .end
                    .map(|e| e.saturating_since(span.start).as_nanos() as f64 / 1_000.0)
                    .unwrap_or(0.0);
                let mut args = vec![
                    ("trace".to_string(), serde::Value::U64(rec.id.0)),
                    ("key".to_string(), serde::Value::U64(rec.key)),
                    ("span".to_string(), serde::Value::U64(i as u64)),
                    (
                        "parent".to_string(),
                        match span.parent {
                            Some(p) => serde::Value::U64(u64::from(p.0)),
                            None => serde::Value::Null,
                        },
                    ),
                ];
                if span.end.is_none() {
                    args.push(("unfinished".to_string(), serde::Value::Bool(true)));
                }
                events.push(serde::Value::Object(vec![
                    (
                        "name".to_string(),
                        serde::Value::String(span.name.to_string()),
                    ),
                    (
                        "cat".to_string(),
                        serde::Value::String(rec.track.to_string()),
                    ),
                    ("ph".to_string(), serde::Value::String("X".to_string())),
                    ("ts".to_string(), serde::Value::F64(start_us)),
                    ("dur".to_string(), serde::Value::F64(dur_us)),
                    ("pid".to_string(), serde::Value::U64(1)),
                    ("tid".to_string(), serde::Value::U64(rec.id.0)),
                    ("args".to_string(), serde::Value::Object(args)),
                ]));
            }
        }
        serde::Value::Object(vec![
            ("traceEvents".to_string(), serde::Value::Array(events)),
            (
                "displayTimeUnit".to_string(),
                serde::Value::String("ms".to_string()),
            ),
        ])
    }

    /// Per-trace critical-path breakdown: for every *finished* trace,
    /// the root's direct children in start order with their durations.
    /// For request traces the phases are contiguous, so `phases[].dur_ns`
    /// sums exactly to `total_ns` — the measured response time.
    pub fn critical_paths_value(&self) -> serde::Value {
        let paths = self
            .traces
            .iter()
            .filter(|rec| rec.is_finished())
            .map(|rec| {
                let root = rec.root();
                let total = root
                    .end
                    .expect("finished")
                    .saturating_since(root.start)
                    .as_nanos();
                let phases = rec
                    .phases()
                    .iter()
                    .map(|s| {
                        serde::Value::Object(vec![
                            ("name".to_string(), serde::Value::String(s.name.to_string())),
                            (
                                "start_ns".to_string(),
                                serde::Value::U64(s.start.as_nanos()),
                            ),
                            (
                                "dur_ns".to_string(),
                                serde::Value::U64(
                                    s.end
                                        .map(|e| e.saturating_since(s.start).as_nanos())
                                        .unwrap_or(0),
                                ),
                            ),
                        ])
                    })
                    .collect();
                serde::Value::Object(vec![
                    ("trace".to_string(), serde::Value::U64(rec.id.0)),
                    (
                        "track".to_string(),
                        serde::Value::String(rec.track.to_string()),
                    ),
                    ("key".to_string(), serde::Value::U64(rec.key)),
                    (
                        "start_ns".to_string(),
                        serde::Value::U64(root.start.as_nanos()),
                    ),
                    ("total_ns".to_string(), serde::Value::U64(total)),
                    ("phases".to_string(), serde::Value::Array(phases)),
                ])
            })
            .collect();
        serde::Value::Array(paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert!(!t.sampled(1));
        assert!(t.begin("request", "request", 1, SimTime::ZERO).is_none());
        assert!(t.is_empty());
        assert_eq!(t.unsampled(), 0, "disabled is not 'unsampled'");
    }

    #[test]
    fn sampling_is_deterministic_and_salted() {
        let a = Tracer::enabled(7, 4, 1000);
        let b = Tracer::enabled(7, 4, 1000);
        let c = Tracer::enabled(8, 4, 1000);
        let keys: Vec<u64> = (0..1000).collect();
        let pick = |t: &Tracer| keys.iter().filter(|&&k| t.sampled(k)).count();
        let sa: Vec<bool> = keys.iter().map(|&k| a.sampled(k)).collect();
        let sb: Vec<bool> = keys.iter().map(|&k| b.sampled(k)).collect();
        let sc: Vec<bool> = keys.iter().map(|&k| c.sampled(k)).collect();
        assert_eq!(sa, sb, "same salt, same decisions");
        assert_ne!(sa, sc, "different salt, different decisions");
        // Roughly 1/4 of keys survive (loose band: hashing is not exact).
        let n = pick(&a);
        assert!((100..500).contains(&n), "sampled {n}/1000 at 1-in-4");
    }

    #[test]
    fn parent_links_and_phases() {
        let mut t = Tracer::enabled(1, 1, 16);
        let root = t
            .begin("request", "request", 42, SimTime::from_secs(1))
            .unwrap();
        let a = t
            .child(root, "route", SimTime::from_secs(1), SimTime::from_secs(2))
            .unwrap();
        // Grandchild hangs off `a`, not the root: not a phase.
        t.child(a, "hop", SimTime::from_secs(1), SimTime::from_secs(2))
            .unwrap();
        t.child(root, "serve", SimTime::from_secs(2), SimTime::from_secs(5))
            .unwrap();
        t.close(root, SimTime::from_secs(5));
        let rec = t.get(root.trace).unwrap();
        assert!(rec.is_finished());
        let phases = rec.phases();
        assert_eq!(
            phases.iter().map(|s| s.name).collect::<Vec<_>>(),
            vec!["route", "serve"]
        );
        let total: SimDuration = SimTime::from_secs(5).saturating_since(SimTime::from_secs(1));
        let sum: u64 = phases
            .iter()
            .map(|s| s.end.unwrap().saturating_since(s.start).as_nanos())
            .sum();
        assert_eq!(sum, total.as_nanos(), "contiguous phases sum to the root");
    }

    #[test]
    fn cap_bounds_memory_and_counts_overflow() {
        let mut t = Tracer::enabled(1, 1, 2);
        for k in 0..5 {
            t.begin("request", "request", k, SimTime::ZERO);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.capped(), 3);
    }

    #[test]
    fn close_is_idempotent() {
        let mut t = Tracer::enabled(1, 1, 4);
        let root = t.begin("request", "request", 1, SimTime::ZERO).unwrap();
        t.close(root, SimTime::from_secs(3));
        t.close(root, SimTime::from_secs(9));
        assert_eq!(
            t.get(root.trace).unwrap().root().end,
            Some(SimTime::from_secs(3))
        );
    }

    #[test]
    fn chrome_export_is_valid_json_with_x_events() {
        let mut t = Tracer::enabled(1, 1, 4);
        let root = t
            .begin("request", "request", 9, SimTime::from_millis(10))
            .unwrap();
        t.child(
            root,
            "route",
            SimTime::from_millis(10),
            SimTime::from_millis(12),
        );
        t.close(root, SimTime::from_millis(12));
        let text = serde_json::to_string_pretty(&t.chrome_trace_value()).unwrap();
        let parsed = serde_json::from_str(&text).expect("valid JSON");
        let events = parsed.get("traceEvents").expect("traceEvents key");
        let first = events.index(0).expect("at least one event");
        assert_eq!(first.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(first.get("pid").and_then(|v| v.as_u64()), Some(1));
        // 10 ms root start = 10_000 µs.
        assert_eq!(first.get("ts").and_then(|v| v.as_f64()), Some(10_000.0));
    }

    #[test]
    fn critical_paths_skip_unfinished_traces() {
        let mut t = Tracer::enabled(1, 1, 4);
        let done = t.begin("request", "request", 1, SimTime::ZERO).unwrap();
        t.child(done, "route", SimTime::ZERO, SimTime::from_secs(1));
        t.close(done, SimTime::from_secs(1));
        t.begin("request", "request", 2, SimTime::ZERO).unwrap(); // never closed
        let v = t.critical_paths_value();
        match &v {
            serde::Value::Array(items) => assert_eq!(items.len(), 1),
            other => panic!("expected array, got {other:?}"),
        }
        let total = v.index(0).unwrap().get("total_ns").unwrap().as_u64();
        assert_eq!(total, Some(1_000_000_000));
    }
}
