//! Plain-text table rendering and JSON report emission for experiment
//! output.

use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

use serde::Serialize;

use crate::experiments::scale::ScaleResult;

/// A simple aligned-column table, rendered like the paper's tables.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row; panics if the arity differs from the headers.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(line, "{:<w$}  ", h, w = widths[i]);
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(line, "{:<w$}  ", cell, w = widths[i]);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Render to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Directory where experiment JSON reports land. Defaults to
/// `results/` under the current working directory; override with the
/// `SODA_RESULTS_DIR` environment variable.
pub fn results_dir() -> PathBuf {
    std::env::var_os("SODA_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Serialize `data` as pretty JSON into `results/<exp>.json` (see
/// [`results_dir`]), creating the directory if needed. Returns the path
/// written. Every `exp_*` binary funnels its rows — and, when
/// observability is enabled, its metrics snapshot — through here so
/// downstream tooling finds one file per experiment.
pub fn write_json<T: Serialize + ?Sized>(exp: &str, data: &T) -> io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{exp}.json"));
    let body = serde_json::to_string_pretty(data)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, body)?;
    Ok(path)
}

/// [`write_json`] plus a one-line confirmation on stdout; errors are
/// reported on stderr rather than unwinding, so a read-only working
/// directory never kills an experiment run.
pub fn emit_json<T: Serialize + ?Sized>(exp: &str, data: &T) {
    match write_json(exp, data) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {exp}.json: {e}"),
    }
}

/// One experiment's machine-readable performance trajectory point.
///
/// Every canonical perf run (`exp_scale`, `exp_shard`, `exp_parallel`,
/// `exp_link_stress`, `exp_sweep`, `exp_chaos_soak`,
/// `exp_master_failover`) reduces its results to this one schema and
/// writes it as `results/BENCH_<experiment>.json`, so a
/// release build's throughput can be tracked commit-over-commit by
/// tooling that never parses the experiment-specific report shapes.
/// Multi-point runs aggregate: walls and counts sum, rates divide the
/// sums, peaks take the max across points. Fields an experiment has no
/// notion of stay at their `Default` zero.
#[derive(Clone, Debug, Default, Serialize)]
pub struct BenchRecord {
    /// Experiment name, `exp_*` (also names the output file).
    pub experiment: String,
    /// Host wall-clock for the measured region, seconds.
    pub wall_secs: f64,
    /// Virtual time simulated, seconds.
    pub sim_secs: f64,
    /// Engine (or link) events executed.
    pub events: u64,
    /// `events / wall_secs`.
    pub events_per_sec: f64,
    /// Requests (or flows) pushed through the system.
    pub requests: u64,
    /// `requests / wall_secs`.
    pub requests_per_sec: f64,
    /// Event-queue high-water mark.
    pub peak_queue_depth: u64,
    /// High-water mark of concurrently active NIC/link flows.
    pub peak_live_flows: u64,
    /// High-water mark of in-flight (admitted, unanswered) requests.
    pub peak_open_requests: u64,
    /// Warm-standby Master takeovers completed (zero for experiments
    /// that never crash the control plane).
    pub master_failovers: u64,
    /// Mean master crash → takeover-complete latency, seconds (zero
    /// when no failovers happened).
    pub mean_failover_secs: f64,
    /// Longest journal replay a takeover performed, entries.
    pub max_journal_replay: u64,
    /// Worker threads driving the run (1 for serial experiments).
    pub threads: u32,
    /// Epoch barriers crossed by the parallel engine (0 for serial
    /// experiments).
    pub epochs: u64,
    /// Total wall-clock the workers spent parked at epoch barriers,
    /// seconds (0 for serial experiments).
    pub barrier_wait_secs: f64,
    /// Peak heap bytes live at once: the counting allocator's
    /// high-water mark (`memtrack::peak_bytes`; every binary that writes
    /// a record installs `memtrack::TrackingAllocator`).
    pub peak_heap_bytes: u64,
    /// `peak_heap_bytes / hosts` for the fleet of the point that set the
    /// peak — the per-host memory footprint the xl scale budget is
    /// written against (0 when the experiment has no host fleet).
    pub bytes_per_host: u64,
}

impl BenchRecord {
    /// The record of a sweep of X-SCALE runs, folded point by point.
    /// Each point carries the heap peak read when it ended, so the fold
    /// keeps the pair of the point that set the process peak.
    pub fn from_scale(experiment: &str, results: &[ScaleResult]) -> BenchRecord {
        let mut points = results.iter().map(|r| BenchRecord {
            experiment: experiment.to_string(),
            wall_secs: r.wall_secs,
            sim_secs: r.sim_secs,
            events: r.events,
            events_per_sec: r.events_per_sec,
            requests: r.requests,
            requests_per_sec: r.requests_per_sec,
            peak_queue_depth: r.peak_queue_depth as u64,
            peak_live_flows: r.peak_live_flows,
            peak_open_requests: r.peak_open_requests,
            threads: r.threads,
            epochs: r.epochs,
            barrier_wait_secs: r.barrier_wait_secs,
            peak_heap_bytes: r.peak_heap_bytes,
            bytes_per_host: r.peak_heap_bytes / u64::from(r.hosts.max(1)),
            ..BenchRecord::default()
        });
        let mut acc = points.next().expect("at least one point");
        for rec in points {
            acc.fold(&rec);
        }
        acc
    }

    /// Fold another point into this record: walls, counts and virtual
    /// time sum; peaks take the max; the rates are re-derived from the
    /// folded sums.
    pub fn fold(&mut self, other: &BenchRecord) {
        self.wall_secs += other.wall_secs;
        self.sim_secs += other.sim_secs;
        self.events += other.events;
        self.requests += other.requests;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.peak_live_flows = self.peak_live_flows.max(other.peak_live_flows);
        self.peak_open_requests = self.peak_open_requests.max(other.peak_open_requests);
        // Failover latency folds as a count-weighted mean.
        let folded = self.master_failovers + other.master_failovers;
        if folded > 0 {
            self.mean_failover_secs = (self.mean_failover_secs * self.master_failovers as f64
                + other.mean_failover_secs * other.master_failovers as f64)
                / folded as f64;
        }
        self.master_failovers = folded;
        self.max_journal_replay = self.max_journal_replay.max(other.max_journal_replay);
        // A folded record describes the widest concurrency of any of
        // its points; epochs and barrier idle time accumulate.
        self.threads = self.threads.max(other.threads);
        self.epochs += other.epochs;
        self.barrier_wait_secs += other.barrier_wait_secs;
        // Memory peaks don't sum across points of one process — the
        // folded record keeps the single worst point's pair, so
        // `bytes_per_host` stays consistent with the peak it came from.
        if other.peak_heap_bytes > self.peak_heap_bytes {
            self.peak_heap_bytes = other.peak_heap_bytes;
            self.bytes_per_host = other.bytes_per_host;
        }
        self.events_per_sec = self.events as f64 / self.wall_secs.max(1e-9);
        self.requests_per_sec = self.requests as f64 / self.wall_secs.max(1e-9);
    }
}

/// Serialize a [`BenchRecord`] into `results/BENCH_<experiment>.json`.
pub fn write_bench_json(record: &BenchRecord) -> io::Result<PathBuf> {
    write_json(&format!("BENCH_{}", record.experiment), record)
}

/// [`write_bench_json`] plus a one-line confirmation on stdout; errors
/// go to stderr without unwinding, mirroring [`emit_json`].
pub fn emit_bench(record: &BenchRecord) {
    match write_bench_json(record) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!(
            "warning: could not write BENCH_{}.json: {e}",
            record.experiment
        ),
    }
}

/// Shorthand for building a row of strings.
#[macro_export]
macro_rules! cells {
    ($($x:expr),* $(,)?) => {
        &[$(($x).to_string()),*][..]
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that point `SODA_RESULTS_DIR` somewhere
    /// (process-global env, parallel test runner).
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(cells!["short", 1]);
        t.row(cells!["a-much-longer-name", 123.45]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("a-much-longer-name  123.45"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(cells!["only-one"]);
    }

    #[test]
    fn bench_record_folds_sums_and_peaks() {
        let mut a = BenchRecord {
            experiment: "exp_unit".into(),
            wall_secs: 1.0,
            sim_secs: 100.0,
            events: 1_000,
            events_per_sec: 1_000.0,
            requests: 100,
            requests_per_sec: 100.0,
            peak_queue_depth: 10,
            peak_live_flows: 5,
            peak_open_requests: 7,
            master_failovers: 2,
            mean_failover_secs: 4.0,
            max_journal_replay: 10,
            threads: 1,
            ..BenchRecord::default()
        };
        let b = BenchRecord {
            wall_secs: 3.0,
            sim_secs: 300.0,
            events: 3_000,
            events_per_sec: 1_000.0,
            requests: 300,
            requests_per_sec: 100.0,
            peak_queue_depth: 4,
            peak_live_flows: 9,
            peak_open_requests: 2,
            master_failovers: 1,
            mean_failover_secs: 1.0,
            max_journal_replay: 30,
            ..a.clone()
        };
        a.fold(&b);
        assert_eq!(a.events, 4_000);
        assert_eq!(a.requests, 400);
        assert_eq!(a.peak_queue_depth, 10);
        assert_eq!(a.peak_live_flows, 9);
        assert_eq!(a.peak_open_requests, 7);
        assert!((a.events_per_sec - 1_000.0).abs() < 1e-9);
        assert!((a.requests_per_sec - 100.0).abs() < 1e-9);
    }

    /// The rates in a folded record are re-derived from the folded
    /// sums (`events / wall`, `requests / wall`), not averaged from the
    /// per-point rates — the distinction matters whenever points have
    /// unequal walls.
    #[test]
    fn bench_record_rederives_rates_from_folded_wall() {
        let mut a = BenchRecord {
            experiment: "exp_unit".into(),
            wall_secs: 1.0,
            sim_secs: 10.0,
            events: 10_000,
            events_per_sec: 10_000.0,
            requests: 1_000,
            requests_per_sec: 1_000.0,
            peak_queue_depth: 1,
            peak_live_flows: 1,
            peak_open_requests: 1,
            threads: 1,
            ..BenchRecord::default()
        };
        // Slow point: 9 s of wall for the same event count. A naive
        // rate average would say ~5,555 ev/s; the folded truth is
        // 20,000 events over 10 s = 2,000 ev/s.
        let b = BenchRecord {
            wall_secs: 9.0,
            events_per_sec: 10_000.0 / 9.0,
            requests_per_sec: 1_000.0 / 9.0,
            ..a.clone()
        };
        a.fold(&b);
        assert!((a.wall_secs - 10.0).abs() < 1e-12);
        assert_eq!(a.events, 20_000);
        assert_eq!(a.requests, 2_000);
        assert!((a.events_per_sec - 2_000.0).abs() < 1e-9);
        assert!((a.requests_per_sec - 200.0).abs() < 1e-9);
    }

    /// Failover fields merge correctly: the mean folds count-weighted,
    /// the replay depth takes the max, and a failover-free point leaves
    /// the other side's latency untouched.
    #[test]
    fn bench_record_folds_failover_fields() {
        let base = BenchRecord {
            experiment: "exp_unit".into(),
            wall_secs: 1.0,
            sim_secs: 1.0,
            events: 1,
            events_per_sec: 1.0,
            requests: 1,
            requests_per_sec: 1.0,
            peak_queue_depth: 1,
            peak_live_flows: 1,
            peak_open_requests: 1,
            threads: 1,
            ..BenchRecord::default()
        };
        // Count-weighted mean: 3 takeovers at 2 s + 1 takeover at 10 s
        // fold to (3·2 + 1·10) / 4 = 4 s.
        let mut a = BenchRecord {
            master_failovers: 3,
            mean_failover_secs: 2.0,
            max_journal_replay: 17,
            ..base.clone()
        };
        let b = BenchRecord {
            master_failovers: 1,
            mean_failover_secs: 10.0,
            max_journal_replay: 5,
            ..base.clone()
        };
        a.fold(&b);
        assert_eq!(a.master_failovers, 4);
        assert!((a.mean_failover_secs - 4.0).abs() < 1e-12);
        assert_eq!(a.max_journal_replay, 17, "replay depth takes the max");

        // Folding in a failover-free point must not dilute the mean.
        let mut c = BenchRecord {
            master_failovers: 2,
            mean_failover_secs: 6.0,
            max_journal_replay: 9,
            ..base.clone()
        };
        c.fold(&base);
        assert_eq!(c.master_failovers, 2);
        assert!((c.mean_failover_secs - 6.0).abs() < 1e-12);
        assert_eq!(c.max_journal_replay, 9);

        // Two failover-free records stay at zero (no 0/0 poisoning).
        let mut d = base.clone();
        d.fold(&base);
        assert_eq!(d.master_failovers, 0);
        assert_eq!(d.mean_failover_secs, 0.0);
    }

    /// Parallel-engine fields fold with their own semantics: `threads`
    /// is the widest point (a sweep mixing serial and 4-thread points
    /// is a 4-thread record), while `epochs` and barrier idle time
    /// accumulate like the other cost counters.
    #[test]
    fn bench_record_folds_parallel_fields() {
        let base = BenchRecord {
            experiment: "exp_unit".into(),
            wall_secs: 1.0,
            sim_secs: 1.0,
            events: 1,
            events_per_sec: 1.0,
            requests: 1,
            requests_per_sec: 1.0,
            peak_queue_depth: 1,
            peak_live_flows: 1,
            peak_open_requests: 1,
            threads: 1,
            ..BenchRecord::default()
        };
        let mut a = BenchRecord {
            threads: 4,
            epochs: 100,
            barrier_wait_secs: 0.25,
            ..base.clone()
        };
        let b = BenchRecord {
            threads: 2,
            epochs: 40,
            barrier_wait_secs: 0.5,
            ..base.clone()
        };
        a.fold(&b);
        assert_eq!(a.threads, 4, "threads take the max");
        assert_eq!(a.epochs, 140, "epochs sum");
        assert!((a.barrier_wait_secs - 0.75).abs() < 1e-12, "idle sums");

        // A serial point folded into a parallel record leaves the
        // concurrency fields alone.
        let mut c = BenchRecord {
            threads: 8,
            epochs: 7,
            barrier_wait_secs: 0.125,
            ..base.clone()
        };
        c.fold(&base);
        assert_eq!(c.threads, 8);
        assert_eq!(c.epochs, 7);
        assert!((c.barrier_wait_secs - 0.125).abs() < 1e-12);
    }

    /// Memory peaks fold as a *pair*: the folded record reports the
    /// single worst point's `(peak_heap_bytes, bytes_per_host)`, never a
    /// sum (points share one process) and never a mixed pair (a small
    /// fleet's bytes-per-host against a big fleet's peak would be
    /// nonsense).
    #[test]
    fn bench_record_folds_memory_as_the_worst_points_pair() {
        let base = BenchRecord {
            experiment: "exp_unit".into(),
            wall_secs: 1.0,
            sim_secs: 1.0,
            events: 1,
            events_per_sec: 1.0,
            requests: 1,
            requests_per_sec: 1.0,
            peak_queue_depth: 1,
            peak_live_flows: 1,
            peak_open_requests: 1,
            threads: 1,
            ..BenchRecord::default()
        };
        let mut a = BenchRecord {
            peak_heap_bytes: 1_000_000,
            bytes_per_host: 100,
            ..base.clone()
        };
        let b = BenchRecord {
            peak_heap_bytes: 5_000_000,
            bytes_per_host: 50,
            ..base.clone()
        };
        a.fold(&b);
        assert_eq!(a.peak_heap_bytes, 5_000_000, "peak takes the larger point");
        assert_eq!(a.bytes_per_host, 50, "per-host rides with its own peak");

        // A smaller point leaves the pair alone.
        let c = BenchRecord {
            peak_heap_bytes: 10,
            bytes_per_host: 9_999,
            ..base.clone()
        };
        a.fold(&c);
        assert_eq!(a.peak_heap_bytes, 5_000_000);
        assert_eq!(a.bytes_per_host, 50);

        // Memory-free points fold to zero, not garbage.
        let mut d = base.clone();
        d.fold(&base);
        assert_eq!(d.peak_heap_bytes, 0);
        assert_eq!(d.bytes_per_host, 0);
    }

    /// A sweep's record carries the heap pair of the point that set the
    /// peak: a 1,000-host point followed by a 10,000-host point with a
    /// larger peak folds to that peak over 10,000 hosts, not over the
    /// first point's 1,000.
    #[test]
    fn scale_sweep_record_divides_the_peak_by_its_own_fleet() {
        use crate::experiments::scale::{self, ScaleConfig};
        let mut small = scale::run(&ScaleConfig {
            hosts: 2,
            requests: 100,
            ..ScaleConfig::default()
        });
        small.hosts = 1_000;
        small.peak_heap_bytes = 70_000_000;
        let big = ScaleResult {
            hosts: 10_000,
            peak_heap_bytes: 700_000_000,
            ..small.clone()
        };
        let rec = BenchRecord::from_scale("exp_unit", &[small, big]);
        assert_eq!(rec.peak_heap_bytes, 700_000_000);
        assert_eq!(rec.bytes_per_host, 700_000_000 / 10_000);
    }

    #[test]
    fn bench_json_lands_under_bench_prefix() {
        let _guard = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("soda-bench-record-test");
        std::env::set_var("SODA_RESULTS_DIR", &dir);
        let rec = BenchRecord {
            experiment: "exp_unit".into(),
            wall_secs: 0.5,
            sim_secs: 10.0,
            events: 42,
            events_per_sec: 84.0,
            requests: 7,
            requests_per_sec: 14.0,
            peak_queue_depth: 3,
            peak_live_flows: 2,
            peak_open_requests: 1,
            threads: 1,
            ..BenchRecord::default()
        };
        let path = write_bench_json(&rec).unwrap();
        std::env::remove_var("SODA_RESULTS_DIR");
        assert_eq!(path, dir.join("BENCH_exp_unit.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"events_per_sec\""), "{body}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_json_emits_rows() {
        let _guard = ENV_LOCK.lock().unwrap();
        #[derive(Serialize)]
        struct Row {
            name: String,
            value: u64,
        }
        let dir = std::env::temp_dir().join("soda-report-test");
        std::env::set_var("SODA_RESULTS_DIR", &dir);
        let path = write_json(
            "unit_test",
            &[Row {
                name: "a".into(),
                value: 7,
            }],
        )
        .unwrap();
        std::env::remove_var("SODA_RESULTS_DIR");
        assert_eq!(path, dir.join("unit_test.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"value\": 7"), "{body}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
