//! Request-trace recording and replay.
//!
//! Experiments that compare policies (the custom-policy example, the
//! placement ablation) need the *same* arrival sequence on both sides of
//! the comparison. A [`RequestTrace`] captures `(time, dataset)` pairs —
//! either synthesized or harvested from a completed run — and replays
//! them against any service on any engine.

use soda_core::service::ServiceId;
use soda_core::world::{submit_request, SodaWorld};
use soda_sim::{Engine, SimDuration, SimRng, SimTime, Zipf};

/// One traced arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Offset from the trace's origin.
    pub offset: SimDuration,
    /// Response body size requested.
    pub dataset_bytes: u64,
}

/// An ordered arrival trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequestTrace {
    entries: Vec<TraceEntry>,
}

impl RequestTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an arrival; offsets must be non-decreasing.
    pub fn push(&mut self, offset: SimDuration, dataset_bytes: u64) {
        assert!(
            self.entries.last().is_none_or(|e| offset >= e.offset),
            "trace offsets must be non-decreasing"
        );
        self.entries.push(TraceEntry {
            offset,
            dataset_bytes,
        });
    }

    /// The entries.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total span from first to last arrival.
    pub fn span(&self) -> SimDuration {
        match (self.entries.first(), self.entries.last()) {
            (Some(a), Some(b)) => b.offset - a.offset,
            _ => SimDuration::ZERO,
        }
    }

    /// Synthesize a Poisson trace with Zipf-popular document sizes: the
    /// web-content catalog has `docs` documents, document rank `k` has
    /// size `base_bytes × k` and Zipf(s) popularity (hot documents are
    /// small and requested often).
    pub fn synth_web(
        seed: u64,
        rate_rps: f64,
        duration: SimDuration,
        docs: usize,
        zipf_s: f64,
        base_bytes: u64,
    ) -> Self {
        assert!(rate_rps > 0.0);
        let mut rng = SimRng::new(seed);
        let zipf = Zipf::new(docs, zipf_s);
        let mut out = RequestTrace::new();
        let mut t = SimDuration::ZERO;
        loop {
            t += SimDuration::from_secs_f64(rng.exp(1.0 / rate_rps));
            if t >= duration {
                break;
            }
            let rank = zipf.sample(&mut rng) as u64;
            out.push(t, base_bytes * rank);
        }
        out
    }

    /// Harvest a trace from a completed run's records (arrival times and
    /// dataset sizes of every completed request, relative to the first).
    pub fn from_world(world: &SodaWorld, service: ServiceId) -> Self {
        let mut records: Vec<(SimTime, u64)> = world
            .completed
            .iter()
            .filter(|r| r.service == service)
            .map(|r| (r.issued, r.dataset))
            .collect();
        records.sort();
        let mut out = RequestTrace::new();
        if let Some(&(t0, _)) = records.first() {
            for (t, bytes) in records {
                out.push(t - t0, bytes);
            }
        }
        out
    }

    /// Replay the trace against `service`, with arrivals starting at
    /// `start`.
    pub fn replay(&self, engine: &mut Engine<SodaWorld>, service: ServiceId, start: SimTime) {
        for e in &self.entries {
            let dataset = e.dataset_bytes;
            engine.schedule_at(start + e.offset, move |w: &mut SodaWorld, ctx| {
                submit_request(w, ctx, service, dataset);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::httpgen::PoissonGenerator;
    use soda_core::service::ServiceSpec;
    use soda_core::world::create_service_driven;
    use soda_hostos::resources::ResourceVector;
    use soda_vmm::rootfs::RootFsCatalog;
    use soda_vmm::sysservices::StartupClass;

    fn web_engine(seed: u64) -> (Engine<SodaWorld>, ServiceId) {
        let mut engine = Engine::with_seed(SodaWorld::testbed(), seed);
        let spec = ServiceSpec {
            name: "web".into(),
            image: RootFsCatalog::new().base_1_0(),
            required_services: vec!["network", "syslogd"],
            app_class: StartupClass::Light,
            instances: 3,
            machine: ResourceVector::TABLE1_EXAMPLE,
            port: 8080,
        };
        let svc = create_service_driven(&mut engine, spec, "webco").unwrap();
        engine.run_until(SimTime::from_secs(120));
        (engine, svc)
    }

    #[test]
    fn synth_properties() {
        let t = RequestTrace::synth_web(1, 50.0, SimDuration::from_secs(20), 100, 1.0, 1000);
        // ~1000 arrivals expected.
        assert!((800..1200).contains(&t.len()), "{}", t.len());
        assert!(t.span() <= SimDuration::from_secs(20));
        // Offsets non-decreasing, sizes in catalog range.
        for w in t.entries().windows(2) {
            assert!(w[1].offset >= w[0].offset);
        }
        for e in t.entries() {
            assert!(e.dataset_bytes >= 1000 && e.dataset_bytes <= 100_000);
        }
        // Zipf: small (hot) documents dominate.
        let small = t
            .entries()
            .iter()
            .filter(|e| e.dataset_bytes <= 10_000)
            .count();
        assert!(small * 2 > t.len(), "{small}/{}", t.len());
        // Deterministic.
        let t2 = RequestTrace::synth_web(1, 50.0, SimDuration::from_secs(20), 100, 1.0, 1000);
        assert_eq!(t, t2);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn unordered_push_panics() {
        let mut t = RequestTrace::new();
        t.push(SimDuration::from_secs(2), 1);
        t.push(SimDuration::from_secs(1), 1);
    }

    #[test]
    fn replay_reproduces_served_counts() {
        let trace = RequestTrace::synth_web(7, 20.0, SimDuration::from_secs(10), 50, 0.8, 2000);
        let run = |seed| {
            let (mut engine, svc) = web_engine(seed);
            let t0 = engine.now();
            trace.replay(&mut engine, svc, t0);
            engine.run_until(t0 + SimDuration::from_secs(120));
            (
                engine.state().completed.len(),
                engine.state().switch_for(svc).unwrap().served_counts(),
            )
        };
        let (n1, counts1) = run(100);
        let (n2, counts2) = run(200); // different engine seed, same trace
        assert_eq!(n1, trace.len());
        assert_eq!(n1, n2, "same trace, same arrivals");
        assert_eq!(counts1, counts2, "switch decisions replay identically");
    }

    #[test]
    fn harvest_round_trip() {
        let (mut engine, svc) = web_engine(3);
        let t0 = engine.now();
        PoissonGenerator {
            service: svc,
            dataset_bytes: 10_000,
            rate_rps: 10.0,
            start: t0,
            end: t0 + SimDuration::from_secs(10),
        }
        .start(&mut engine);
        engine.run_until(t0 + SimDuration::from_secs(60));
        let harvested = RequestTrace::from_world(engine.state(), svc);
        assert_eq!(harvested.len(), engine.state().completed.len());
        assert!(!harvested.is_empty());
        assert_eq!(harvested.entries()[0].offset, SimDuration::ZERO);
        // Replaying the harvest yields the same number of completions.
        let (mut engine2, svc2) = web_engine(3);
        let t0 = engine2.now();
        harvested.replay(&mut engine2, svc2, t0);
        engine2.run_until(t0 + SimDuration::from_secs(120));
        assert_eq!(engine2.state().completed.len(), harvested.len());
    }

    #[test]
    fn from_world_unknown_service_is_empty() {
        let (engine, _) = web_engine(4);
        let t = RequestTrace::from_world(engine.state(), ServiceId(999));
        assert!(t.is_empty());
        assert_eq!(t.span(), SimDuration::ZERO);
    }
}
