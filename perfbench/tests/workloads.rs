//! The benchmark's own tests, on shrunken versions of all four
//! workloads: determinism per seed, layer sums, observer transparency,
//! and failure accounting.

use soda_perfbench::ledger::{COUNTS, LAYERS, UNATTRIBUTED};
use soda_perfbench::report::{self, TraceRun};
use soda_perfbench::workload::{run_pass, Check, PassResult, PassSpec, Scale, Workload};

fn small(workload: Workload, seed: u64) -> PassSpec {
    PassSpec::new(workload, seed, Scale::Small)
}

fn traced(workload: Workload, seed: u64) -> PassSpec {
    PassSpec {
        traced: true,
        ..small(workload, seed)
    }
}

fn sim(p: &PassResult) -> (u64, f64, f64, u64, u64) {
    (p.fingerprint, p.p50_ms, p.p99_ms, p.samples, p.answered)
}

#[test]
fn every_workload_is_deterministic_per_seed_and_correct() {
    for w in Workload::ALL {
        let a = run_pass(&small(w, 7));
        let b = run_pass(&small(w, 7));
        assert!(a.correct(), "{}: {:?}", w.name(), a.checks);
        assert_eq!(a.failed(), 0, "{}: no request fails", w.name());
        assert_eq!(sim(&a), sim(&b), "{}: same seed, same trajectory", w.name());
        assert_eq!(
            a.samples,
            a.attempted,
            "{}: one latency per request",
            w.name()
        );
        let c = run_pass(&small(w, 8));
        assert_ne!(
            a.fingerprint,
            c.fingerprint,
            "{}: the seed drives the inputs",
            w.name()
        );
    }
}

#[test]
fn layer_times_plus_unattributed_equal_the_traced_wall_time() {
    for w in Workload::ALL {
        let p = run_pass(&traced(w, 3));
        let names: Vec<&str> = p.layers.iter().map(|(n, _)| n.as_str()).collect();
        let expected: Vec<&str> = LAYERS.iter().chain(&[UNATTRIBUTED]).copied().collect();
        assert_eq!(names, expected, "{}: every layer reported", w.name());
        let counts: Vec<&str> = p.counts.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(counts, COUNTS, "{}: every count reported", w.name());
        let sum: f64 = p.layers.iter().map(|(_, s)| s).sum();
        assert!(
            (sum - p.wall_s).abs() < 1e-9,
            "{}: layers sum to {sum}, wall {}",
            w.name(),
            p.wall_s
        );
        let unattributed = p.layers.last().expect("unattributed").1;
        assert!(
            unattributed >= -1e-9,
            "{}: layers overlap, remainder {unattributed}",
            w.name()
        );
        assert!(p.layers.iter().all(|(_, s)| *s >= -1e-9));
    }
}

#[test]
fn tracing_and_observability_do_not_move_the_trajectory() {
    for w in Workload::ALL {
        let plain = run_pass(&small(w, 5));
        let t = run_pass(&traced(w, 5));
        assert_eq!(sim(&plain), sim(&t), "{}: traced = untraced", w.name());
        assert!(plain.layers.is_empty() && plain.counts.is_empty());
    }
    let on = run_pass(&small(Workload::Chaos200, 5));
    let off = run_pass(&PassSpec {
        obs: false,
        ..small(Workload::Chaos200, 5)
    });
    assert_eq!(sim(&on), sim(&off), "obs on = obs off");
}

#[test]
fn shrunken_workloads_exercise_their_layers() {
    let count = |p: &PassResult, name: &str| {
        p.counts
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let cells = run_pass(&traced(Workload::Cells8, 2));
    assert!(count(&cells, "par.epochs") > 0.0);
    assert!(count(&cells, "par.remote_msgs") > 0.0);
    let chaos = run_pass(&traced(Workload::Chaos200, 2));
    assert!(count(&chaos, "core.heartbeat_ticks") > 0.0);
    assert!(chaos.checks.iter().any(|c| c.name == "invariants" && c.ok));
    let steady = run_pass(&traced(Workload::Steady1k, 2));
    assert_eq!(count(&steady, "par.epochs"), 0.0);
    assert_eq!(count(&steady, "core.submits"), steady.attempted as f64);
}

#[test]
fn a_failed_check_fails_every_request_of_the_run() {
    let good = run_pass(&small(Workload::Steady1k, 1));
    let ok = report::summarize(&[good.clone(), good.clone()]);
    assert!(ok.correct);
    assert_eq!((ok.attempted, ok.failed), (2 * good.attempted, 0));

    let mut bad = good.clone();
    bad.checks
        .push(Check::new("conservation", false, "forced".into()));
    assert_eq!(bad.failed(), bad.attempted);
    let s = report::summarize(&[good.clone(), bad]);
    assert!(!s.correct);
    assert_eq!(s.failed, s.attempted);
    assert!(report::json_line(&s).starts_with("{\"correct\": false,"));

    // Two passes that disagree fail the cross-pass determinism check.
    let mut other = good.clone();
    other.fingerprint ^= 1;
    let s = report::summarize(&[good.clone(), other]);
    assert!(!s.correct);
    assert_eq!(s.failed, s.attempted);

    // So does a traced pass that walked another trajectory.
    let mut t = run_pass(&traced(Workload::Steady1k, 1));
    t.p99_ms += 1.0;
    let s = report::summarize_trace(&TraceRun {
        traced: vec![t],
        plain: vec![good],
        obs_off: Vec::new(),
    });
    assert!(!s.correct);
    assert_eq!(s.failed, s.attempted);
}

#[test]
fn passes_survive_the_wire_and_the_json_line_has_the_contract_keys() {
    let p = run_pass(&traced(Workload::Chaos200, 4));
    assert_eq!(report::decode(&report::encode(&p)), Ok(p.clone()));
    assert!(report::decode("attempted x\n").is_err());

    let s = report::summarize(std::slice::from_ref(&p));
    assert_eq!(listed(&s), benchmark_metrics("end_to_end"));
    assert!(s.metrics.iter().all(|m| m.value > 0.0), "{:?}", s.metrics);
    let line = report::json_line(&s);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(line.contains("\"requests_per_s\": {\"value\": "));
    assert!(line.ends_with("}}}"));

    let t = report::summarize_trace(&TraceRun {
        traced: vec![p.clone()],
        plain: vec![p],
        obs_off: Vec::new(),
    });
    assert_eq!(listed(&t), benchmark_metrics("per_layer"));
}

fn listed(s: &report::Summary) -> Vec<(String, String)> {
    s.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn benchmark_metrics(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let list = &json[json.find(&format!("\"{key}\"")).expect("metric list")..];
    let list = &list[..list.find(']').expect("end of the list")];
    let field = |obj: &str, name: &str| {
        let rest = &obj[obj.find(&format!("\"{name}\": \"")).expect(name) + name.len() + 5..];
        rest[..rest.find('"').expect("closing quote")].to_string()
    };
    list.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn median_handles_odd_and_even_counts() {
    assert_eq!(report::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(report::median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(report::median(&[]), 0.0);
}
