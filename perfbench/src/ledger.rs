//! The layer ledger: wall-clock spans and counts kept in memory for one
//! pass and written out when the pass ends.
//!
//! Spans are taken from the benchmark's side of each call into a layer
//! crate; per-event-kind handler time comes from the engine's own
//! self-profiler ([`soda_sim::Engine::enable_profiler`]). Nothing is
//! recorded inside the program. A ledger that is off records nothing and
//! reads no clock, so the untraced pass pays for none of this.

use soda_sim::ProfileEntry;
use std::collections::BTreeMap;
use std::time::Instant;

/// Layer times of the traced report, in table order. Together with
/// [`UNATTRIBUTED`] they add up to the traced pass's wall time.
pub const LAYERS: &[&str] = &[
    "core.build_s",
    "core.admit_s",
    "net.download_s",
    "hup.node_boot_s",
    "core.submit_s",
    "hostos.cpu_done_s",
    "net.flow_start_s",
    "net.nic_pump_s",
    "core.heartbeat_s",
    "core.recovery_s",
    "sim.dispatch_s",
    "bench.check_s",
];

/// The remainder of the traced wall time that no layer claims.
pub const UNATTRIBUTED: &str = "unattributed_s";

/// Counts of the traced report, in report order.
pub const COUNTS: &[&str] = &[
    "sim.events",
    "sim.ns_per_event",
    "sim.events_per_request",
    "sim.peak_queue_depth",
    "net.peak_live_flows",
    "core.peak_open_requests",
    "par.epochs",
    "par.remote_msgs",
    "core.admissions",
    "core.admit_refused",
    "hup.node_boots",
    "core.submits",
    "net.nic_pumps",
    "core.heartbeat_ticks",
    "core.retries",
    "core.recoveries",
];

/// Which part of a pass a profiler delta covers. Image downloads are NIC
/// flows too, so `nic_pump` handler time counts as download time while
/// the fleet is priming and as response transfer afterwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Set-up: admissions have been made and the fleet primes.
    Priming,
    /// Client requests flow (recovery and faults too, in `chaos-200`).
    Requests,
}

/// The layer an engine event kind's handler time belongs to. Time of a
/// kind no layer claims is left to [`UNATTRIBUTED`].
fn layer_of(kind: &str, phase: Phase) -> Option<&'static str> {
    Some(match kind {
        "nic_pump" if phase == Phase::Priming => "net.download_s",
        "start_download" => "net.download_s",
        "node_boot" => "hup.node_boot_s",
        "client_arrival" | "client_retry" | "remote_request" => "core.submit_s",
        "cpu_done" => "hostos.cpu_done_s",
        "response_depart" => "net.flow_start_s",
        "nic_pump" => "net.nic_pump_s",
        "periodic" => "core.heartbeat_s",
        "retry" | "fault" | "fault_expiry" | "reprime" | "master_takeover" => "core.recovery_s",
        "invariant_sweep" => "bench.check_s",
        _ => return None,
    })
}

/// Spans and counts of one pass.
#[derive(Debug)]
pub struct Ledger {
    on: bool,
    secs: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// A ledger that records (`on`) or ignores everything.
    pub fn new(on: bool) -> Self {
        Ledger {
            on,
            secs: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether this ledger records.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` and charge its wall time to `layer`.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.add(layer, t.elapsed().as_secs_f64());
        r
    }

    /// Charge `secs` to `layer`.
    pub fn add(&mut self, layer: &'static str, secs: f64) {
        if self.on {
            *self.secs.entry(layer).or_default() += secs;
        }
    }

    /// Add `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        if self.on {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// Set the count `name` to `n`.
    pub fn set_count(&mut self, name: &'static str, n: f64) {
        if self.on {
            self.counts.insert(name, n);
        }
    }

    /// Charge an engine-run span of `span_secs` whose handlers the
    /// profiler saw as `delta`: each kind's handler time goes to its
    /// layer, and the rest of the span (timer wheel, dispatch, epoch
    /// loop, barrier merge) to `sim.dispatch_s`.
    pub fn engine_span(&mut self, span_secs: f64, delta: &[ProfileEntry], phase: Phase) {
        let mut handlers = 0.0;
        for e in delta {
            let secs = e.total_ns as f64 / 1e9;
            handlers += secs;
            if let Some(layer) = layer_of(e.kind, phase) {
                self.add(layer, secs);
            }
            match (e.kind, phase) {
                ("node_boot", _) => self.count("hup.node_boots", e.count as f64),
                ("nic_pump", Phase::Requests) => self.count("net.nic_pumps", e.count as f64),
                ("periodic", _) => self.count("core.heartbeat_ticks", e.count as f64),
                _ => {}
            }
        }
        self.add("sim.dispatch_s", span_secs - handlers);
    }

    /// The recorded layer times, every entry of [`LAYERS`] present.
    pub fn layers(&self) -> Vec<(String, f64)> {
        LAYERS
            .iter()
            .map(|&l| (l.to_string(), self.secs.get(l).copied().unwrap_or(0.0)))
            .collect()
    }

    /// The recorded counts, every entry of [`COUNTS`] present.
    pub fn counts(&self) -> Vec<(String, f64)> {
        COUNTS
            .iter()
            .map(|&c| (c.to_string(), self.counts.get(c).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// Per-kind handler cost accrued between two cumulative profiler
/// reports (`before` may be empty).
pub fn profile_delta(before: &[ProfileEntry], after: &[ProfileEntry]) -> Vec<ProfileEntry> {
    after
        .iter()
        .map(|a| {
            let b = before.iter().find(|b| b.kind == a.kind);
            ProfileEntry {
                kind: a.kind,
                count: a.count - b.map_or(0, |b| b.count),
                total_ns: a.total_ns - b.map_or(0, |b| b.total_ns),
                mean_ns: 0.0,
                max_ns: 0,
            }
        })
        .filter(|e| e.count > 0)
        .collect()
}
