//! Pass records on the wire, their reduction to one run's metrics, and
//! the printed report: pass lines, the layer table, provenance, and the
//! closing JSON line.

use crate::ledger::{COUNTS, LAYERS, UNATTRIBUTED};
use crate::workload::{Check, PassResult};
use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// What one benchmark run reports.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Every check of every pass held.
    pub correct: bool,
    /// Client requests issued over all passes.
    pub attempted: u64,
    /// Client requests that failed over all passes.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Checks that span passes (determinism, observer transparency).
    pub checks: Vec<Check>,
}

/// The unit a metric is reported in.
pub fn unit_of(name: &str) -> &'static str {
    match name {
        "requests_per_s" => "1/s",
        "peak_rss_mb" | "obs.rss_mb" => "MB",
        "sim_p50_ms" | "sim_p99_ms" => "ms",
        "sim.ns_per_event" => "ns",
        "sim.events_per_request" => "events/req",
        n if n.ends_with("_s") => "s",
        _ => "count",
    }
}

/// Encode a pass as `key value` lines.
pub fn encode(p: &PassResult) -> String {
    let mut s = String::new();
    for (k, v) in [
        ("attempted", p.attempted.to_string()),
        ("answered", p.answered.to_string()),
        ("setup_s", p.setup_s.to_string()),
        ("run_s", p.run_s.to_string()),
        ("wall_s", p.wall_s.to_string()),
        ("peak_rss_mb", p.peak_rss_mb.to_string()),
        ("p50_ms", p.p50_ms.to_string()),
        ("p99_ms", p.p99_ms.to_string()),
        ("samples", p.samples.to_string()),
        ("fingerprint", p.fingerprint.to_string()),
    ] {
        let _ = writeln!(s, "{k} {v}");
    }
    for c in &p.checks {
        let _ = writeln!(s, "check {} {} {}", u8::from(c.ok), c.name, c.detail);
    }
    for (k, v) in &p.layers {
        let _ = writeln!(s, "layer {k} {v}");
    }
    for (k, v) in &p.counts {
        let _ = writeln!(s, "count {k} {v}");
    }
    s
}

/// Decode what [`encode`] wrote.
pub fn decode(text: &str) -> Result<PassResult, String> {
    fn num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("bad value for {key}: {v:?}"))
    }
    fn pair(rest: &str) -> Result<(String, f64), String> {
        let (k, v) = rest.split_once(' ').ok_or(format!("bad pair {rest:?}"))?;
        Ok((k.to_string(), num(k, v)?))
    }
    let mut p = PassResult::default();
    let mut seen = 0;
    for line in text.lines().filter(|l| !l.is_empty()) {
        let (key, rest) = line.split_once(' ').ok_or(format!("bad line {line:?}"))?;
        match key {
            "attempted" => p.attempted = num(key, rest)?,
            "answered" => p.answered = num(key, rest)?,
            "setup_s" => p.setup_s = num(key, rest)?,
            "run_s" => p.run_s = num(key, rest)?,
            "wall_s" => p.wall_s = num(key, rest)?,
            "peak_rss_mb" => p.peak_rss_mb = num(key, rest)?,
            "p50_ms" => p.p50_ms = num(key, rest)?,
            "p99_ms" => p.p99_ms = num(key, rest)?,
            "samples" => p.samples = num(key, rest)?,
            "fingerprint" => p.fingerprint = num(key, rest)?,
            "check" => {
                let mut parts = rest.splitn(3, ' ');
                let ok = parts.next() == Some("1");
                let name = parts.next().ok_or("check without a name")?;
                let detail = parts.next().unwrap_or("");
                p.checks.push(Check::new(name, ok, detail.to_string()));
                continue;
            }
            "layer" => {
                p.layers.push(pair(rest)?);
                continue;
            }
            "count" => {
                p.counts.push(pair(rest)?);
                continue;
            }
            _ => return Err(format!("unknown key {key:?}")),
        }
        seen += 1;
    }
    if seen != 10 {
        return Err(format!("expected 10 scalar fields, got {seen}"));
    }
    Ok(p)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn sim_signature(p: &PassResult) -> (u64, u64, u64, u64) {
    (
        p.fingerprint,
        p.p50_ms.to_bits(),
        p.p99_ms.to_bits(),
        p.samples,
    )
}

/// Check that every pass walked the same trajectory: same fingerprint
/// and bit-identical simulated latency figures.
fn same_trajectory(name: &str, passes: &[&PassResult]) -> Check {
    let first = passes.first().map(|p| sim_signature(p));
    let ok = passes.iter().all(|p| Some(sim_signature(p)) == first);
    let detail = passes
        .iter()
        .map(|p| format!("{:#018x}/{}/{}", p.fingerprint, p.p50_ms, p.p99_ms))
        .collect::<Vec<_>>()
        .join(" ");
    Check::new(name, ok && first.is_some(), detail)
}

/// Totals over passes: a failed check anywhere fails every request.
fn totals(passes: &[&PassResult], checks: &[Check]) -> (bool, u64, u64) {
    let correct =
        !passes.is_empty() && checks.iter().all(|c| c.ok) && passes.iter().all(|p| p.correct());
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed = if correct {
        passes.iter().map(|p| p.failed()).sum()
    } else {
        attempted
    };
    (correct, attempted, failed)
}

fn metric(name: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit_of(name),
        value,
    }
}

/// Reduce the untraced passes of one run to the end-to-end metrics:
/// medians of the host-time figures, and the simulated latency, which
/// every pass must agree on exactly.
pub fn summarize(passes: &[PassResult]) -> Summary {
    let refs: Vec<&PassResult> = passes.iter().collect();
    let checks = vec![same_trajectory("deterministic", &refs)];
    let (correct, attempted, failed) = totals(&refs, &checks);
    let med = |f: fn(&PassResult) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let first = passes.first().cloned().unwrap_or_default();
    let metrics = vec![
        metric(
            "requests_per_s",
            med(|p| p.attempted as f64 / p.run_s.max(1e-9)),
        ),
        metric("setup_s", med(|p| p.setup_s)),
        metric("peak_rss_mb", med(|p| p.peak_rss_mb)),
        metric("sim_p50_ms", first.p50_ms),
        metric("sim_p99_ms", first.p99_ms),
    ];
    Summary {
        correct,
        attempted,
        failed,
        metrics,
        checks,
    }
}

/// The passes of one traced run.
#[derive(Clone, Debug, Default)]
pub struct TraceRun {
    /// Passes with the ledger and self-profiler on.
    pub traced: Vec<PassResult>,
    /// The same passes untraced.
    pub plain: Vec<PassResult>,
    /// Untraced passes with observability off (`chaos-200` only).
    pub obs_off: Vec<PassResult>,
}

impl TraceRun {
    /// The traced pass of median wall time: its layer table is the one
    /// reported, so its layers add up to its own wall time.
    pub fn median_traced(&self) -> Option<&PassResult> {
        let mut v: Vec<&PassResult> = self.traced.iter().collect();
        v.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        v.get(v.len().saturating_sub(1) / 2).copied()
    }
}

/// Reduce a traced run to the per-layer metrics.
pub fn summarize_trace(run: &TraceRun) -> Summary {
    let all: Vec<&PassResult> = run
        .traced
        .iter()
        .chain(&run.plain)
        .chain(&run.obs_off)
        .collect();
    let checks = vec![same_trajectory("traced = untraced = obs-off", &all)];
    let (correct, attempted, failed) = totals(&all, &checks);
    let wall = |v: &[PassResult]| median(&v.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let rss = |v: &[PassResult]| median(&v.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>());
    let mut metrics = Vec::new();
    if let Some(p) = run.median_traced() {
        for name in LAYERS.iter().chain(&[UNATTRIBUTED]).chain(COUNTS) {
            let v = p
                .layers
                .iter()
                .chain(&p.counts)
                .find(|(k, _)| k == name)
                .map_or(0.0, |(_, v)| *v);
            metrics.push(metric(name, v));
        }
        metrics.push(metric("trace.wall_s", p.wall_s));
    }
    metrics.push(metric(
        "trace.overhead_s",
        wall(&run.traced) - wall(&run.plain),
    ));
    let (obs_cost, obs_rss) = if run.obs_off.is_empty() {
        (0.0, 0.0)
    } else {
        (
            wall(&run.plain) - wall(&run.obs_off),
            rss(&run.plain) - rss(&run.obs_off),
        )
    };
    metrics.push(metric("obs.cost_s", obs_cost));
    metrics.push(metric("obs.rss_mb", obs_rss));
    Summary {
        correct,
        attempted,
        failed,
        metrics,
        checks,
    }
}

/// A JSON number: finite values as Rust prints them (every digit kept),
/// anything else as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The closing line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn json_line(s: &Summary) -> String {
    let correct = s.correct && s.metrics.iter().all(|m| m.value.is_finite());
    let metrics = s
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        s.attempted, s.failed
    )
}

/// One human-readable line per pass.
pub fn pass_line(label: &str, p: &PassResult) -> String {
    let failed: Vec<String> = p
        .checks
        .iter()
        .filter(|c| !c.ok)
        .map(|c| format!("{} ({})", c.name, c.detail))
        .collect();
    format!(
        "{label}: setup {:.3} s, run {:.3} s ({:.0} req/s), wall {:.3} s, peak rss {:.1} MB, \
         sim p50 {} ms p99 {} ms over {} samples, answered {}/{}, fingerprint {:#018x}, checks {}",
        p.setup_s,
        p.run_s,
        p.attempted as f64 / p.run_s.max(1e-9),
        p.wall_s,
        p.peak_rss_mb,
        p.p50_ms,
        p.p99_ms,
        p.samples,
        p.answered,
        p.attempted,
        p.fingerprint,
        if failed.is_empty() {
            "ok".to_string()
        } else {
            format!("FAILED: {}", failed.join("; "))
        }
    )
}

/// The layer table of a traced pass: layer times, the unattributed
/// remainder, and their sum against the pass's wall time.
pub fn layer_table(p: &PassResult) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "  {:<22} {:>10} {:>7}", "layer", "seconds", "share");
    let wall = p.wall_s.max(1e-12);
    for (name, secs) in &p.layers {
        let _ = writeln!(s, "  {name:<22} {secs:>10.4} {:>6.1}%", 100.0 * secs / wall);
    }
    let sum: f64 = p.layers.iter().map(|(_, v)| v).sum();
    let _ = writeln!(
        s,
        "  {:<22} {sum:>10.4} (traced wall {:.4} s)",
        "sum", p.wall_s
    );
    for (name, v) in &p.counts {
        let _ = writeln!(s, "  {name:<22} {v:>10.1} {}", unit_of(name));
    }
    s
}

/// Where a result came from.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// Commit of the source tree, or `unknown` outside a git checkout.
    pub commit: String,
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// Build profile of the benchmark binary.
    pub profile: &'static str,
    /// The run's seed.
    pub seed: u64,
}

impl Provenance {
    /// Provenance of a run with `seed` started in the source tree's root.
    pub fn here(seed: u64) -> Self {
        Provenance {
            commit: head_commit().unwrap_or_else(|| "unknown".to_string()),
            parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            seed,
        }
    }
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "provenance: commit {} available_parallelism {} profile {} seed {}",
            self.commit, self.parallelism, self.profile, self.seed
        )
    }
}

/// The commit `.git/HEAD` in the working directory names, read without
/// leaving the directory.
fn head_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}
