//! `soda-cli` — drive a simulated HUP from the command line.
//!
//! ```text
//! soda-cli demo
//! soda-cli simulate [--instances N] [--dataset BYTES] [--rate RPS]
//!                   [--secs S] [--policy wrr|rr|random|least-conn]
//!                   [--seed SEED] [--no-shaping]
//! soda-cli status   (creates a service, prints a monitoring snapshot)
//! soda-cli obs FILE [--top N]
//!                   (pretty-print an observability snapshot from a
//!                    results/<exp>.json: slowest histograms by p99,
//!                    quantiles incl. p999, drop counts)
//! soda-cli experiments
//! ```

use std::process::ExitCode;

use soda::core::monitoring;
use soda::core::policy::{LeastConnections, RandomPolicy, RoundRobin, SwitchPolicy};
use soda::core::service::ServiceSpec;
use soda::core::world::{create_service_driven, SodaWorld};
use soda::hostos::resources::ResourceVector;
use soda::sim::{Engine, SimDuration, SimTime};
use soda::vmm::rootfs::RootFsCatalog;
use soda::vmm::sysservices::StartupClass;
use soda::workload::httpgen::PoissonGenerator;

struct SimulateArgs {
    instances: u32,
    dataset: u64,
    rate: f64,
    secs: u64,
    policy: Option<String>,
    seed: u64,
    shaping: bool,
}

impl Default for SimulateArgs {
    fn default() -> Self {
        SimulateArgs {
            instances: 3,
            dataset: 50_000,
            rate: 20.0,
            secs: 60,
            policy: None,
            seed: 1,
            shaping: true,
        }
    }
}

fn parse_simulate(args: &[String]) -> Result<SimulateArgs, String> {
    let mut out = SimulateArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--instances" => {
                out.instances = value("--instances")?
                    .parse()
                    .map_err(|e| format!("--instances: {e}"))?
            }
            "--dataset" => {
                out.dataset = value("--dataset")?
                    .parse()
                    .map_err(|e| format!("--dataset: {e}"))?
            }
            "--rate" => {
                out.rate = value("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?
            }
            "--secs" => {
                out.secs = value("--secs")?
                    .parse()
                    .map_err(|e| format!("--secs: {e}"))?
            }
            "--policy" => out.policy = Some(value("--policy")?),
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--no-shaping" => out.shaping = false,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(out)
}

fn make_policy(name: &str, seed: u64) -> Result<Box<dyn SwitchPolicy>, String> {
    match name {
        "rr" => Ok(Box::new(RoundRobin::new())),
        "random" => Ok(Box::new(RandomPolicy::new(seed))),
        "least-conn" => Ok(Box::new(LeastConnections::new())),
        "wrr" => Err("wrr is the default; omit --policy".into()),
        other => Err(format!("unknown policy {other:?} (rr|random|least-conn)")),
    }
}

fn web_spec(instances: u32) -> ServiceSpec {
    ServiceSpec {
        name: "web".into(),
        image: RootFsCatalog::new().base_1_0(),
        required_services: vec!["network", "syslogd"],
        app_class: StartupClass::Light,
        instances,
        machine: ResourceVector::TABLE1_EXAMPLE,
        port: 8080,
    }
}

fn cmd_simulate(a: SimulateArgs) -> Result<(), String> {
    let mut engine = Engine::with_seed(SodaWorld::testbed(), a.seed);
    engine.state_mut().shaping_enforced = a.shaping;
    let svc = create_service_driven(&mut engine, web_spec(a.instances), "cli")
        .map_err(|e| format!("creation failed: {e}"))?;
    engine.run_until(SimTime::from_secs(180));
    if engine.state().creations.is_empty() {
        return Err("creation did not complete within 180 s".into());
    }
    let created = engine.state().creations[0].clone();
    println!(
        "created {} node(s) in {} (download + bootstrap)",
        created.reply.nodes.len(),
        created.reply.creation_time
    );
    if let Some(name) = &a.policy {
        let p = make_policy(name, a.seed)?;
        engine
            .state_mut()
            .switch_mut_for(svc)
            .ok_or("no switch")?
            .replace_policy(p);
    }
    let t0 = engine.now();
    PoissonGenerator {
        service: svc,
        dataset_bytes: a.dataset,
        rate_rps: a.rate,
        start: t0,
        end: t0 + SimDuration::from_secs(a.secs),
    }
    .start(&mut engine);
    engine.run_until(t0 + SimDuration::from_secs(a.secs + 300));
    let w = engine.state();
    let sw = w.switch_for(svc).ok_or("no switch")?;
    println!(
        "policy {} served {:?} requests (dropped {})",
        sw.policy_name(),
        sw.served_counts(),
        w.dropped
    );
    println!(
        "mean response per node: {:?} s",
        sw.mean_responses()
            .iter()
            .map(|m| format!("{m:.4}"))
            .collect::<Vec<_>>()
    );
    println!("invoice: {:.4} units", w.agent.invoice("cli", engine.now()));
    Ok(())
}

fn cmd_status() -> Result<(), String> {
    let mut engine = Engine::with_seed(SodaWorld::testbed(), 1);
    let svc = create_service_driven(&mut engine, web_spec(3), "cli")
        .map_err(|e| format!("creation failed: {e}"))?;
    engine.run_until(SimTime::from_secs(120));
    let w = engine.state();
    let status = monitoring::snapshot(w.master_for(svc), &w.daemons, svc, engine.now())
        .ok_or("snapshot failed")?;
    println!("service {} at t={}", status.service, status.taken_at);
    println!("healthy: {:.0}%", status.healthy_fraction * 100.0);
    for n in &status.nodes {
        println!(
            "  {} on {} ip {} cap {}M state {:?} procs {}",
            n.vsn,
            n.host,
            n.ip.map(|i| i.to_string()).unwrap_or_else(|| "-".into()),
            n.capacity,
            n.state,
            n.process_count
        );
    }
    Ok(())
}

/// One histogram pulled out of a results JSON, wherever it was nested.
struct HistEntry {
    name: String,
    labels: String,
    count: u64,
    mean_ns: f64,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    max_ns: u64,
}

/// Recursively collect metric samples and drop counters from any
/// results JSON shape — a bare registry snapshot array, an object with
/// an embedded `metrics` key, or an experiment report that carries
/// numeric `dropped`/`*_dropped` fields of its own.
fn collect_obs(
    value: &serde_json::Value,
    path: &str,
    hists: &mut Vec<HistEntry>,
    drops: &mut Vec<(String, u64)>,
) {
    use serde_json::Value;
    match value {
        Value::Object(fields) => {
            let name = value.get("name").and_then(Value::as_str);
            if let (Some(name), Some(h)) = (name, value.get("histogram")) {
                let labels = match value.get("labels") {
                    Some(Value::Object(ls)) if !ls.is_empty() => {
                        let parts: Vec<String> = ls
                            .iter()
                            .map(|(k, v)| format!("{k}={}", v.as_u64().unwrap_or(0)))
                            .collect();
                        format!("{{{}}}", parts.join(","))
                    }
                    _ => String::new(),
                };
                let g = |key: &str| h.get(key).and_then(Value::as_u64).unwrap_or(0);
                hists.push(HistEntry {
                    name: name.to_string(),
                    labels,
                    count: g("count"),
                    mean_ns: h.get("mean").and_then(Value::as_f64).unwrap_or(0.0),
                    p50_ns: g("p50"),
                    p99_ns: g("p99"),
                    p999_ns: g("p999"),
                    max_ns: g("max"),
                });
            }
            if let (Some(name), Some(v)) = (name, value.get("counter").and_then(Value::as_u64)) {
                if name.contains("drop") {
                    drops.push((name.to_string(), v));
                }
            }
            for (k, v) in fields {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                // Experiment reports carry their own drop tallies as
                // plain numeric fields (`dropped`, `events_dropped`, …).
                if k.contains("drop") {
                    if let Some(n) = v.as_u64() {
                        drops.push((sub.clone(), n));
                    }
                }
                collect_obs(v, &sub, hists, drops);
            }
        }
        Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                collect_obs(v, &format!("{path}[{i}]"), hists, drops);
            }
        }
        _ => {}
    }
}

fn cmd_obs(args: &[String]) -> Result<(), String> {
    let mut file: Option<&String> = None;
    let mut top: usize = 10;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--top" => {
                top = it
                    .next()
                    .ok_or("--top needs a value")?
                    .parse()
                    .map_err(|e| format!("--top: {e}"))?
            }
            _ if file.is_none() => file = Some(a),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let path = file.ok_or("obs needs a results JSON path (e.g. results/exp_chaos_soak.json)")?;
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let value: serde_json::Value =
        serde_json::from_str(&body).map_err(|e| format!("{path}: parse error: {e}"))?;

    let mut hists = Vec::new();
    let mut drops = Vec::new();
    collect_obs(&value, "", &mut hists, &mut drops);

    if hists.is_empty() && drops.is_empty() {
        println!("{path}: no histograms or drop counters found");
        return Ok(());
    }

    if !hists.is_empty() {
        hists.sort_by(|a, b| b.p99_ns.cmp(&a.p99_ns).then(a.name.cmp(&b.name)));
        println!(
            "== {path} — slowest {} histograms by p99 ==",
            top.min(hists.len())
        );
        println!(
            "{:<36} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "mean ms", "p50 ms", "p99 ms", "p999 ms", "max ms"
        );
        let ms = |ns: u64| ns as f64 / 1e6;
        for h in hists.iter().take(top) {
            println!(
                "{:<36} {:>9} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                format!("{}{}", h.name, h.labels),
                h.count,
                h.mean_ns / 1e6,
                ms(h.p50_ns),
                ms(h.p99_ns),
                ms(h.p999_ns),
                ms(h.max_ns),
            );
        }
    }

    if !drops.is_empty() {
        println!("\n== drop counts ==");
        for (name, n) in &drops {
            println!("{name:<48} {n}");
        }
    }
    Ok(())
}

fn cmd_demo() -> Result<(), String> {
    println!("== SODA demo: create → serve → snapshot ==");
    cmd_simulate(SimulateArgs::default())?;
    println!();
    cmd_status()
}

fn cmd_experiments() {
    println!("experiment binaries (run with `cargo run --release -p soda-bench --bin <name>`):");
    for (bin, what) in [
        ("exp_table2_bootstrap", "Table 2 — bootstrap times"),
        ("exp_table3_config", "Table 3 — service configuration file"),
        (
            "exp_table4_syscalls",
            "Table 4 — syscall slow-down (+ skas ablation)",
        ),
        ("exp_fig3_consoles", "Figure 3 — co-existing guest consoles"),
        ("exp_fig4_loadbalance", "Figure 4 — WRR 2:1 load balancing"),
        (
            "exp_fig5_cpu_isolation",
            "Figure 5 — CPU isolation (+ lottery ablation)",
        ),
        (
            "exp_fig6_slowdown",
            "Figure 6 — application-level slow-down",
        ),
        ("exp_download", "§4.3 — download linearity"),
        ("exp_attack_isolation", "§5 — attack isolation"),
        ("exp_ddos", "X-DDOS — switch flood isolation violation"),
        ("exp_resizing", "X-RSZ — service resizing"),
        ("exp_placement", "X-PLC — placement ablation"),
        ("exp_inflation", "X-INFL — slow-down inflation sweep"),
        ("exp_federation", "X-FED — wide-area federation"),
        ("exp_migration", "X-MIG — node migration"),
        ("exp_host_failure", "X-HOST — host failure + failover"),
        ("exp_usage_billing", "X-BILL — reservation vs usage billing"),
    ] {
        println!("  {bin:<24} {what}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => ("demo", &args[..]),
    };
    let result = match cmd {
        "demo" => cmd_demo(),
        "simulate" => parse_simulate(rest).and_then(cmd_simulate),
        "status" => cmd_status(),
        "obs" => cmd_obs(rest),
        "experiments" => {
            cmd_experiments();
            Ok(())
        }
        "--help" | "-h" | "help" => {
            println!(
                "usage: soda-cli [demo|simulate|status|obs|experiments]\n\
                 simulate flags: --instances N --dataset BYTES --rate RPS --secs S\n\
                 \t--policy rr|random|least-conn --seed SEED --no-shaping\n\
                 obs: soda-cli obs results/<exp>.json [--top N]"
            );
            Ok(())
        }
        other => Err(format!("unknown command {other:?} (try --help)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("soda-cli: {e}");
            ExitCode::FAILURE
        }
    }
}
