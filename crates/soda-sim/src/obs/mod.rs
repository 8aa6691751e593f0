//! Structured observability: typed events, a labeled metrics registry
//! whose latency histograms record virtual-time spans, and sampled
//! causal traces.
//!
//! This module is the machine-readable signal layer shared by every
//! SODA entity (the free-form string ring buffer it replaced was
//! removed once all callers migrated):
//!
//! * [`event`] — a typed [`Event`] enum (admission/placement decisions,
//!   boot phases, request lifecycle, resizes, crashes, host failures,
//!   shaper drops, scheduler share samples), each carrying entity ids
//!   and a [`Severity`], kept in a bounded [`EventLog`] that surfaces
//!   its `dropped` count when drained.
//! * [`registry`] — a central [`MetricsRegistry`] of named counters,
//!   gauges and histograms with small label sets (service, vsn, host),
//!   snapshotable and serializable for `results/<exp>.json` reports.
//!   A virtual-time span is one record of `end − start` into the
//!   `(entity, operation)` latency [`crate::Histogram`], made when the
//!   span closes by the call site that knows both instants
//!   ([`Obs::span_record`], [`Obs::span_record_h`]). An operation that
//!   spans engine events keeps its start on the entity it concerns (the
//!   Master's priming start lives on the VSN).
//! * [`trace`] — per-request/per-creation causal traces: a sampled
//!   [`Tracer`] builds parent-linked span trees whose contiguous
//!   phases reconstruct each request's critical path, exportable as
//!   Chrome trace-event JSON (Perfetto-loadable).
//!
//! ## The observer effect — and why there isn't one
//!
//! All entities record through a shared cheaply-clonable [`Obs`] handle.
//! When observability is disabled (the default), every recording call
//! is a **branch-only no-op**: the handle holds no buffer, performs no
//! allocation, draws no randomness, and schedules no engine events, so
//! the Fig 4/5/6 hot paths and the deterministic event order are
//! bit-for-bit unaffected. `tests/observability.rs` locks this in by
//! comparing full run trajectories and final RNG state with
//! observability on versus off, and counts heap allocations on the
//! disabled path.

pub mod event;
pub mod registry;
pub mod trace;

pub use event::{DrainedEvents, Event, EventLog, Severity, TimedEvent};
pub use registry::{
    Labels, MetricHandle, MetricId, MetricKind, MetricValue, MetricsRegistry, RegistrySnapshot,
    Sample,
};
pub use trace::{SpanId, TraceId, TraceRecord, TraceRef, TraceSpan, Tracer};

use crate::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// Everything one observability domain records: its event log,
/// metrics registry, and causal tracer. Obtain through [`Obs::with`].
#[derive(Debug, Default)]
pub struct ObsInner {
    pub events: EventLog,
    pub registry: MetricsRegistry,
    pub tracer: Tracer,
}

/// Shared handle to an observability domain.
///
/// Entities store a clone; all clones point at the same [`ObsInner`].
/// The disabled handle (via [`Obs::disabled`] or `Default`) holds
/// nothing at all — recording through it is one branch and a return.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    shared: Option<Rc<RefCell<ObsInner>>>,
}

impl Obs {
    /// A handle that records nothing (one branch per call).
    pub fn disabled() -> Self {
        Obs { shared: None }
    }

    /// A recording handle whose event log keeps the most recent
    /// `event_capacity` events.
    pub fn enabled(event_capacity: usize) -> Self {
        Obs {
            shared: Some(Rc::new(RefCell::new(ObsInner {
                events: EventLog::new(event_capacity),
                registry: MetricsRegistry::default(),
                tracer: Tracer::disabled(),
            }))),
        }
    }

    /// True if this handle records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Records a typed event (no-op when disabled).
    #[inline]
    pub fn record(&self, now: SimTime, event: Event) {
        let Some(shared) = &self.shared else { return };
        shared.borrow_mut().events.push(now, event);
    }

    /// Runs `f` against the inner state; `None` when disabled.
    pub fn with<R>(&self, f: impl FnOnce(&mut ObsInner) -> R) -> Option<R> {
        self.shared.as_ref().map(|s| f(&mut s.borrow_mut()))
    }

    /// Adds to a counter (no-op when disabled).
    #[inline]
    pub fn counter_add(&self, scope: &'static str, name: &'static str, labels: Labels, n: u64) {
        let Some(shared) = &self.shared else { return };
        shared
            .borrow_mut()
            .registry
            .counter_add(scope, name, labels, n);
    }

    /// Sets a gauge (no-op when disabled).
    #[inline]
    pub fn gauge_set(&self, scope: &'static str, name: &'static str, labels: Labels, v: f64) {
        let Some(shared) = &self.shared else { return };
        shared
            .borrow_mut()
            .registry
            .gauge_set(scope, name, labels, v);
    }

    /// Records a histogram observation (no-op when disabled).
    #[inline]
    pub fn histogram_record(
        &self,
        scope: &'static str,
        name: &'static str,
        labels: Labels,
        value: u64,
    ) {
        let Some(shared) = &self.shared else { return };
        shared
            .borrow_mut()
            .registry
            .histogram_record(scope, name, labels, value);
    }

    /// Interns a metric identity for handle-based recording; `None` when
    /// disabled. Hot-path writers call this once at wiring time and then
    /// record through [`Obs::counter_add_h`] & co., which index straight
    /// into the registry's value arrays.
    pub fn intern(
        &self,
        scope: &'static str,
        name: &'static str,
        labels: Labels,
        kind: MetricKind,
    ) -> Option<MetricHandle> {
        let shared = self.shared.as_ref()?;
        Some(
            shared
                .borrow_mut()
                .registry
                .intern(scope, name, labels, kind),
        )
    }

    /// Adds to an interned counter (no-op when disabled).
    #[inline]
    pub fn counter_add_h(&self, h: MetricHandle, n: u64) {
        let Some(shared) = &self.shared else { return };
        shared.borrow_mut().registry.counter_add_h(h, n);
    }

    /// Sets an interned gauge (no-op when disabled).
    #[inline]
    pub fn gauge_set_h(&self, h: MetricHandle, v: f64) {
        let Some(shared) = &self.shared else { return };
        shared.borrow_mut().registry.gauge_set_h(h, v);
    }

    /// Records into an interned histogram (no-op when disabled).
    #[inline]
    pub fn histogram_record_h(&self, h: MetricHandle, value: u64) {
        let Some(shared) = &self.shared else { return };
        shared.borrow_mut().registry.histogram_record_h(h, value);
    }

    /// Records a closed span: one `end − start` observation in the
    /// `(entity, op)` latency histogram (no-op when disabled). The
    /// caller that knows both instants records it — retroactively for
    /// phases that must not schedule extra engine events (the Daemon's
    /// Table 2 bootstrap).
    #[inline]
    pub fn span_record(
        &self,
        entity: &'static str,
        op: &'static str,
        labels: Labels,
        start: SimTime,
        end: SimTime,
    ) {
        self.histogram_record(entity, op, labels, end.saturating_since(start).as_nanos());
    }

    /// [`Obs::span_record`] through an interned histogram: the
    /// per-request path skips the key walk. `h` must come from this
    /// domain ([`Obs::intern`]).
    #[inline]
    pub fn span_record_h(&self, h: MetricHandle, start: SimTime, end: SimTime) {
        self.histogram_record_h(h, end.saturating_since(start).as_nanos());
    }

    /// Snapshot of every metric; `None` when disabled.
    pub fn snapshot(&self) -> Option<RegistrySnapshot> {
        self.with(|inner| inner.registry.snapshot())
    }

    /// All `(scope, name)` histograms merged across their label sets —
    /// e.g. every per-backend `switch.response_time` folded into one
    /// service-wide latency distribution. `None` when disabled or when
    /// no matching histogram was ever recorded.
    pub fn merged_histogram(
        &self,
        scope: &'static str,
        name: &'static str,
    ) -> Option<crate::metrics::Histogram> {
        self.with(|inner| inner.registry.merged_histogram(scope, name))
            .flatten()
    }

    /// Drains and returns the retained events plus the count of events
    /// evicted by the capacity bound; `None` when disabled.
    pub fn drain_events(&self) -> Option<DrainedEvents> {
        self.with(|inner| inner.events.drain())
    }

    /// Switches causal tracing on for this domain. `salt` seeds the
    /// deterministic head sampler (derive it from the run seed),
    /// `sample_one_in` keeps roughly 1/N of keys, `max_traces` bounds
    /// memory. Returns `false` (and does nothing) when the whole
    /// observability domain is disabled.
    pub fn enable_tracing(&self, salt: u64, sample_one_in: u64, max_traces: usize) -> bool {
        self.with(|inner| inner.tracer = Tracer::enabled(salt, sample_one_in, max_traces))
            .is_some()
    }

    /// Starts a trace for `key` if the sampler keeps it (no-op returning
    /// `None` when disabled).
    #[inline]
    pub fn trace_begin(
        &self,
        track: &'static str,
        name: &'static str,
        key: u64,
        now: SimTime,
    ) -> Option<TraceRef> {
        let Some(shared) = &self.shared else {
            return None;
        };
        shared.borrow_mut().tracer.begin(track, name, key, now)
    }

    /// Records a completed child span under `parent` (no-op when the
    /// parent was not sampled).
    #[inline]
    pub fn trace_child(
        &self,
        parent: Option<TraceRef>,
        name: &'static str,
        start: SimTime,
        end: SimTime,
    ) -> Option<TraceRef> {
        let parent = parent?;
        let shared = self.shared.as_ref()?;
        shared.borrow_mut().tracer.child(parent, name, start, end)
    }

    /// Opens a child span under `parent`; close with [`Obs::trace_close`].
    #[inline]
    pub fn trace_open_child(
        &self,
        parent: Option<TraceRef>,
        name: &'static str,
        start: SimTime,
    ) -> Option<TraceRef> {
        let parent = parent?;
        let shared = self.shared.as_ref()?;
        shared.borrow_mut().tracer.open_child(parent, name, start)
    }

    /// Closes a span (idempotent; no-op for unsampled refs).
    #[inline]
    pub fn trace_close(&self, r: Option<TraceRef>, end: SimTime) {
        let Some(r) = r else { return };
        let Some(shared) = &self.shared else { return };
        shared.borrow_mut().tracer.close(r, end);
    }

    /// The stored traces in Chrome trace-event JSON form; `None` when
    /// the domain is disabled.
    pub fn chrome_trace(&self) -> Option<serde::Value> {
        self.with(|inner| inner.tracer.chrome_trace_value())
    }

    /// Per-trace critical-path breakdown; `None` when disabled.
    pub fn critical_paths(&self) -> Option<serde::Value> {
        self.with(|inner| inner.tracer.critical_paths_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::disabled();
        obs.record(SimTime::ZERO, Event::HostFailure { host: 1 });
        obs.counter_add("x", "y", Labels::none(), 1);
        obs.span_record(
            "m",
            "op",
            Labels::none(),
            SimTime::ZERO,
            SimTime::from_secs(1),
        );
        assert!(!obs.is_enabled());
        assert!(obs.snapshot().is_none());
        assert!(obs.drain_events().is_none());
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::enabled(16);
        let clone = obs.clone();
        clone.record(SimTime::from_secs(1), Event::HostFailure { host: 7 });
        let drained = obs.drain_events().unwrap();
        assert_eq!(drained.events.len(), 1);
        assert_eq!(drained.dropped, 0);
    }

    #[test]
    fn span_record_feeds_latency_histogram() {
        let obs = Obs::enabled(16);
        obs.span_record(
            "master",
            "admission",
            Labels::none(),
            SimTime::from_secs(1),
            SimTime::from_secs(4),
        );
        let snap = obs.snapshot().unwrap();
        let s = snap
            .samples
            .iter()
            .find(|s| s.name == "master.admission")
            .expect("span histogram present");
        match &s.value {
            MetricValue::Histogram { count, mean, .. } => {
                assert_eq!(*count, 1);
                assert!((mean - 3e9).abs() < 3e9 * 0.05, "mean {mean} ~ 3e9");
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
