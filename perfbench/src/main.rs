//! Command line of the SODA benchmark.
//!
//! ```text
//! soda-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! soda-perfbench pass --workload NAME --seed N [--traced] [--obs-off]
//! ```
//!
//! The first form runs one workload for about `S` seconds and prints, as
//! its last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. It runs every pass in a child process of
//! its own (the second form), one at a time, because the peak RSS the
//! kernel reports is per process and only ever rises.

use soda_perfbench::report::{self, Provenance, Summary, TraceRun};
use soda_perfbench::workload::{run_pass, Check, PassResult, PassSpec, Scale, Workload};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: soda-perfbench --workload NAME --seed N --seconds S --trace 0|1\n       \
                     soda-perfbench pass --workload NAME --seed N [--traced] [--obs-off]\n\
                     workloads: steady-1k fleet-10k cells-8 chaos-200";

/// Untraced passes a run makes even when they overrun `--seconds`.
const MIN_PLAIN_PASSES: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PassKind {
    Plain,
    Traced,
    ObsOff,
}

impl PassKind {
    fn flags(self) -> &'static [&'static str] {
        match self {
            PassKind::Plain => &[],
            PassKind::Traced => &["--traced"],
            PassKind::ObsOff => &["--obs-off"],
        }
    }

    fn label(self) -> &'static str {
        match self {
            PassKind::Plain => "untraced",
            PassKind::Traced => "traced",
            PassKind::ObsOff => "obs-off",
        }
    }
}

struct Args {
    pass: bool,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    traced: bool,
    obs_off: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut first = argv.next();
    let pass = first.as_deref() == Some("pass");
    if pass {
        first = argv.next();
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut traced, mut obs_off) = (false, false);
    let mut next = first;
    while let Some(flag) = next {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value("--seed")?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                seconds = Some(value("--seconds")?.parse().map_err(|_| "bad --seconds")?)
            }
            "--trace" => match value("--trace")?.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
            },
            "--traced" if pass => traced = true,
            "--obs-off" if pass => obs_off = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        next = argv.next();
    }
    let (seconds, trace) = if pass {
        (0, false)
    } else {
        (
            seconds.ok_or("--seconds is required")?,
            trace.ok_or("--trace is required")?,
        )
    };
    Ok(Args {
        pass,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        traced,
        obs_off,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.pass {
        let mut spec = PassSpec::new(args.workload, args.seed, Scale::Full);
        spec.traced = args.traced;
        spec.obs = spec.obs && !args.obs_off;
        print!("{}", report::encode(&run_pass(&spec)));
        return ExitCode::SUCCESS;
    }
    drive(&args)
}

/// Run one pass in a child process; a child that fails or prints
/// garbage yields a pass whose every request failed.
fn child_pass(args: &Args, kind: PassKind) -> PassResult {
    let broken = |why: String| PassResult {
        attempted: args.workload.shape(Scale::Full).requests,
        checks: vec![Check::new("pass-completed", false, why)],
        ..PassResult::default()
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return broken(format!("cannot locate the benchmark binary: {e}")),
    };
    let out = Command::new(exe)
        .args(["pass", "--workload", args.workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .args(kind.flags())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    match out {
        Ok(out) if out.status.success() => {
            report::decode(&String::from_utf8_lossy(&out.stdout)).unwrap_or_else(broken)
        }
        Ok(out) => broken(format!("pass exited with {}", out.status)),
        Err(e) => broken(format!("cannot start a pass: {e}")),
    }
}

fn drive(args: &Args) -> ExitCode {
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let round: &[PassKind] = match (args.trace, args.workload.has_obs()) {
        (false, _) => &[PassKind::Plain],
        (true, false) => &[PassKind::Traced, PassKind::Plain],
        (true, true) => &[PassKind::Traced, PassKind::Plain, PassKind::ObsOff],
    };
    let min_rounds = if args.trace { 1 } else { MIN_PLAIN_PASSES };
    println!(
        "workload {} seed {} trace {} budget {} s",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    let mut run = TraceRun::default();
    let mut rounds = 0;
    'rounds: loop {
        let round_start = Instant::now();
        for &kind in round {
            let p = child_pass(args, kind);
            let n = run.traced.len() + run.plain.len() + run.obs_off.len() + 1;
            println!(
                "{}",
                report::pass_line(&format!("pass {n} {}", kind.label()), &p)
            );
            let broken = !p.correct();
            match kind {
                PassKind::Traced => run.traced.push(p),
                PassKind::Plain => run.plain.push(p),
                PassKind::ObsOff => run.obs_off.push(p),
            }
            if broken {
                break 'rounds;
            }
        }
        rounds += 1;
        if rounds >= min_rounds && start.elapsed() + round_start.elapsed() > budget {
            break;
        }
    }

    let provenance = Provenance::here(args.seed);
    println!("{provenance}");
    let summary: Summary = if args.trace {
        if let Some(p) = run.median_traced() {
            println!(
                "layer table: {} seed {} (median of {} traced passes)",
                args.workload.name(),
                args.seed,
                run.traced.len()
            );
            print!("{}", report::layer_table(p));
        }
        report::summarize_trace(&run)
    } else {
        report::summarize(&run.plain)
    };
    for c in &summary.checks {
        println!(
            "check {}: {} {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    for m in &summary.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report::json_line(&summary));
    ExitCode::SUCCESS
}
