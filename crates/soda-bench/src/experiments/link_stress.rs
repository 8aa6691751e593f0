//! X-LINK — fan-in stress on one processor-sharing NIC.
//!
//! The utility failure mode the virtual-time link exists for: thousands
//! of flows contending one host's NIC (image-download storms, DDoS
//! floods, §3.5's isolation violation). This experiment drives a single
//! `ProcessorSharingLink` with a Poisson arrival process of mixed-size
//! flows plus random cancellations, hopping event-to-event exactly like
//! `SodaWorld`'s NIC pump (advance to the earlier of next-arrival /
//! next-completion, drain into a reused buffer), and reports peak
//! active flows, completion/cancellation counts, wall time, and an
//! FNV-1a fingerprint of the full `(FlowId, finish)` completion
//! sequence.
//!
//! The fingerprint is the differential hook: `run_oracle` replays the
//! identical schedule against the preserved O(n) `link::oracle`, and
//! the in-module test requires bit-identical fingerprints — the same
//! completion sequence on the nanosecond grid — while the CI perf-smoke
//! job gates the indexed run's wall clock.

use serde::Serialize;
use soda_net::link::{oracle, FlowId, LinkSpec, ProcessorSharingLink};
use soda_sim::{fnv1a, SimDuration, SimRng, SimTime, FNV_OFFSET};

/// One stress run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct StressConfig {
    /// Flow arrivals to push through the link.
    pub flows: u64,
    /// RNG seed (arrivals, sizes, cancellations).
    pub seed: u64,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            flows: 200_000,
            seed: 1303,
        }
    }
}

/// Measurements from one stress run.
#[derive(Clone, Debug, Serialize)]
pub struct StressResult {
    /// Flow arrivals pushed through the link.
    pub flows: u64,
    /// Flows that ran to completion.
    pub completions: u64,
    /// Flows cancelled mid-transfer.
    pub cancellations: u64,
    /// High-water mark of concurrently active flows.
    pub peak_active: u64,
    /// Virtual time when the link finally drained.
    pub sim_secs: f64,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// Link events: arrivals + completions + cancellations.
    pub events: u64,
    /// Link events per wall-clock second.
    pub events_per_sec: f64,
    /// FNV-1a over the `(FlowId, finish_ns)` completion sequence.
    pub fingerprint: u64,
}

/// The deterministic schedule both implementations replay: exponential
/// inter-arrivals (mean 250 µs — far faster than the mean flow drains,
/// so contention builds), log-uniform-ish sizes from 4 kB to 4 MB, and
/// a 10% chance per arrival of cancelling the oldest live flow.
struct Schedule {
    rng: SimRng,
}

impl Schedule {
    fn new(seed: u64) -> Self {
        Schedule {
            rng: SimRng::new(seed),
        }
    }

    fn next_gap(&mut self) -> SimDuration {
        SimDuration::from_secs_f64(self.rng.exp(250e-6))
    }

    fn next_bytes(&mut self) -> u64 {
        // Three size decades, uniform within each: mice, mid, elephants.
        match self.rng.index(3) {
            0 => self.rng.range_u64(4_000..40_000),
            1 => self.rng.range_u64(40_000..400_000),
            _ => self.rng.range_u64(400_000..4_000_000),
        }
    }

    fn cancels(&mut self) -> bool {
        self.rng.bool(0.10)
    }
}

/// Generic driver over either link implementation (the two expose the
/// same inherent API; a tiny adapter trait keeps the schedule replay
/// byte-for-byte identical).
trait Link {
    fn advance(&mut self, now: SimTime);
    fn add_flow(&mut self, bytes: u64, now: SimTime) -> FlowId;
    fn cancel(&mut self, id: FlowId, now: SimTime) -> bool;
    fn next_completion(&self) -> Option<SimTime>;
    fn active_flows(&self) -> usize;
    fn drain_into(&mut self, out: &mut Vec<(FlowId, SimTime)>);
}

impl Link for ProcessorSharingLink {
    fn advance(&mut self, now: SimTime) {
        ProcessorSharingLink::advance(self, now)
    }
    fn add_flow(&mut self, bytes: u64, now: SimTime) -> FlowId {
        ProcessorSharingLink::add_flow(self, bytes, now)
    }
    fn cancel(&mut self, id: FlowId, now: SimTime) -> bool {
        ProcessorSharingLink::cancel(self, id, now)
    }
    fn next_completion(&self) -> Option<SimTime> {
        ProcessorSharingLink::next_completion(self)
    }
    fn active_flows(&self) -> usize {
        ProcessorSharingLink::active_flows(self)
    }
    fn drain_into(&mut self, out: &mut Vec<(FlowId, SimTime)>) {
        self.drain_completed_into(out);
    }
}

impl Link for oracle::ProcessorSharingLink {
    fn advance(&mut self, now: SimTime) {
        oracle::ProcessorSharingLink::advance(self, now)
    }
    fn add_flow(&mut self, bytes: u64, now: SimTime) -> FlowId {
        oracle::ProcessorSharingLink::add_flow(self, bytes, now)
    }
    fn cancel(&mut self, id: FlowId, now: SimTime) -> bool {
        oracle::ProcessorSharingLink::cancel(self, id, now)
    }
    fn next_completion(&self) -> Option<SimTime> {
        oracle::ProcessorSharingLink::next_completion(self)
    }
    fn active_flows(&self) -> usize {
        oracle::ProcessorSharingLink::active_flows(self)
    }
    fn drain_into(&mut self, out: &mut Vec<(FlowId, SimTime)>) {
        out.extend(self.take_completed());
    }
}

fn drive(link: &mut dyn Link, cfg: &StressConfig) -> StressResult {
    let wall_start = std::time::Instant::now();
    let mut sched = Schedule::new(cfg.seed);
    let mut now = SimTime::ZERO;
    let mut next_arrival = now + sched.next_gap();
    let mut arrived = 0u64;
    let mut completions = 0u64;
    let mut cancellations = 0u64;
    let mut peak_active = 0u64;
    let mut fp = FNV_OFFSET;
    // The oldest-first cancellation queue: ids enter at arrival; a
    // cancel pops until it finds one the link still considers active.
    let mut live: std::collections::VecDeque<FlowId> = std::collections::VecDeque::new();
    let mut drained: Vec<(FlowId, SimTime)> = Vec::new();

    loop {
        let next_completion = link.next_completion();
        // Event-driven hop: earlier of next arrival / next completion.
        let at_arrival = match (arrived < cfg.flows, next_completion) {
            (true, Some(c)) => next_arrival <= c,
            (true, None) => true,
            (false, Some(_)) => false,
            (false, None) => break,
        };
        if at_arrival {
            now = next_arrival;
            link.advance(now);
            let id = link.add_flow(sched.next_bytes(), now);
            live.push_back(id);
            arrived += 1;
            next_arrival = now + sched.next_gap();
            if sched.cancels() {
                while let Some(victim) = live.pop_front() {
                    if link.cancel(victim, now) {
                        cancellations += 1;
                        break;
                    }
                }
            }
        } else {
            now = next_completion.expect("checked");
            link.advance(now);
        }
        link.drain_into(&mut drained);
        for &(id, t) in &drained {
            fp = fnv1a(fp, &id.0.to_le_bytes());
            fp = fnv1a(fp, &t.as_nanos().to_le_bytes());
        }
        completions += drained.len() as u64;
        drained.clear();
        peak_active = peak_active.max(link.active_flows() as u64);
    }
    debug_assert_eq!(link.active_flows(), 0);

    let wall_secs = wall_start.elapsed().as_secs_f64();
    let events = arrived + completions + cancellations;
    StressResult {
        flows: cfg.flows,
        completions,
        cancellations,
        peak_active,
        sim_secs: now.as_secs_f64(),
        wall_secs,
        events,
        events_per_sec: events as f64 / wall_secs.max(1e-9),
        fingerprint: fp,
    }
}

/// Run the stress schedule against the virtual-time indexed link.
pub fn run(cfg: &StressConfig) -> StressResult {
    let mut link = ProcessorSharingLink::new(LinkSpec::lan_100mbps());
    drive(&mut link, cfg)
}

/// Replay the identical schedule against the preserved O(n) oracle.
pub fn run_oracle(cfg: &StressConfig) -> StressResult {
    let mut link = oracle::ProcessorSharingLink::new(LinkSpec::lan_100mbps());
    drive(&mut link, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole point of the experiment's fingerprint: the indexed link
    /// and the O(n) oracle replay the same contended schedule to the
    /// same completion sequence, bit for bit — and conservation holds
    /// (every arrival either completes or is cancelled).
    #[test]
    fn indexed_and_oracle_fingerprints_match() {
        let cfg = StressConfig {
            flows: 3_000,
            seed: 7,
        };
        let fast = run(&cfg);
        let slow = run_oracle(&cfg);
        assert_eq!(fast.fingerprint, slow.fingerprint);
        assert_eq!(fast.completions, slow.completions);
        assert_eq!(fast.cancellations, slow.cancellations);
        assert_eq!(fast.peak_active, slow.peak_active);
        assert_eq!(fast.sim_secs, slow.sim_secs);
        assert_eq!(fast.completions + fast.cancellations, cfg.flows);
        assert!(fast.peak_active > 100, "schedule must actually contend");
    }

    #[test]
    fn stress_run_is_deterministic() {
        let cfg = StressConfig {
            flows: 2_000,
            seed: 1303,
        };
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.peak_active, b.peak_active);
        let c = run(&StressConfig { seed: 1304, ..cfg });
        assert_ne!(a.fingerprint, c.fingerprint, "seeds must matter");
    }
}
