//! `nsbench`: the nsigma benchmark. One run measures one workload for a
//! fixed time and prints its metrics as the last line of stdout:
//!
//! ```text
//! nsbench --workload <yield_mc|server_mix|server_yield>
//!         --seed <n> --seconds <s> --trace <0|1> [--repeat <N>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` the per-layer
//! metrics, timed by spans the benchmark records around its calls into
//! the program, plus the tracing overhead. `--repeat N` runs N fresh
//! processes on seeds `seed .. seed+N` and prints each metric's median
//! and quartiles. See README.md for the workloads and metrics.

mod analytic;
mod measure;
mod server;
mod setup;
mod trace;
mod yield_mc;

use measure::{host_cpus, median, Metrics};
use nsigma_core::{write_coefficients, NsigmaTimer, TimingSession};
use nsigma_netlist::generators::random_dag::Iscas85;
use server::Role;
use setup::{Seeds, State};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{ModeSplit, Trace, Tracer};

/// Untraced set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Where traced runs write their spans (inside the checkout).
const OUT_DIR: &str = ".bench_out";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    YieldMc,
    ServerMix,
    ServerYield,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::YieldMc,
        Workload::ServerMix,
        Workload::ServerYield,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::YieldMc => "yield_mc",
            Workload::ServerMix => "server_mix",
            Workload::ServerYield => "server_yield",
        }
    }

    /// The fixed tail percentile: p99 where a run completes well over
    /// 1000 ops, p90 where it completes a few hundred.
    fn tail(self) -> f64 {
        match self {
            Workload::ServerMix => 0.99,
            Workload::YieldMc | Workload::ServerYield => 0.90,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

const USAGE: &str = "usage: nsbench --workload <yield_mc|server_mix|server_yield> \
--seed <n> --seconds <s> --trace <0|1> [--repeat <N>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut repeat = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("option {flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or(format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&n) {
                    return Err("--repeat must be in 1..=100".into());
                }
                repeat = Some(n);
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        repeat,
    })
}

fn main() {
    let epoch = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nsbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(n) = args.repeat {
        std::process::exit(repeat(&args, n));
    }
    let out = run(&args, epoch);
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"host_cpus\":{},\"trace\":{},\"attempted\":{},\"failed\":{}}}",
        args.workload.name(),
        args.seed,
        host_cpus(),
        u8::from(args.trace),
        out.attempted,
        out.failed
    );
    println!("{}", out.result_line());
}

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl RunResult {
    fn result_line(&self) -> String {
        let mut correct = self.correct;
        let mut m = String::new();
        for (i, metric) in self.metrics.0.iter().enumerate() {
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                eprintln!("metric {} is not finite", metric.name);
                correct = false;
                0.0
            };
            let _ = write!(
                m,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                metric.name,
                metric.unit
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.attempted, self.failed
        )
    }
}

impl State {
    fn timer(&self) -> Arc<NsigmaTimer> {
        match self {
            State::Yield { timer, .. } => Arc::clone(timer),
            State::Server(rig) => Arc::clone(rig.handle.engine().timer()),
        }
    }
}

fn run(args: &Args, epoch: Instant) -> RunResult {
    let w = args.workload;
    let seeds = Seeds::new(args.seed);
    let mut tr = Tracer::new(args.trace, epoch, 0);
    let mut metrics = Metrics::default();
    let mut correct = true;

    // Set-up. Untraced: the whole set-up SETUP_REPS times, the first
    // timed from process start, each later one after dropping the last.
    // Traced: the set-up split into layers, then one plain set-up.
    let mut setup_s = Vec::new();
    let mut state = None;
    if args.trace {
        let (m, traced_timer) = setup::traced_setup(w, &seeds, &mut tr);
        metrics.extend(m);
        let s = setup::setup(w, &seeds);
        if write_coefficients(&traced_timer) != write_coefficients(&s.timer()) {
            eprintln!(
                "check failed: the step-by-step timer build does not match NsigmaTimer::build"
            );
            correct = false;
        }
        state = Some(s);
    } else {
        for rep in 0..SETUP_REPS {
            drop(state.take());
            let t0 = if rep == 0 { epoch } else { Instant::now() };
            state = Some(setup::setup(w, &seeds));
            setup_s.push(t0.elapsed().as_secs_f64());
        }
    }
    let mut state = state.expect("set-up ran");
    let timer = state.timer();

    // The measured window.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut rec, split) = match &mut state {
        State::Yield { session, .. } => {
            let out = yield_mc::run(session, seeds.ops, deadline, &mut tr, args.trace);
            correct &= out.correct;
            (out.rec, out.split)
        }
        State::Server(rig) => {
            let roles = if w == Workload::ServerMix {
                [Role::Mix, Role::Mix]
            } else {
                [Role::Yield, Role::Eco]
            };
            let out = server::run(rig, roles, seeds.ops, deadline, epoch, args.trace);
            correct &= out.correct;
            for t in out.spans {
                tr.absorb(t);
            }
            (out.rec, out.split)
        }
    };

    if args.trace {
        let (m, faithful) = layer_metrics(&state, &timer, &seeds, &mut tr, &split);
        metrics.extend(m);
        correct &= faithful;
        write_trace(w, args.seed, tr);
    } else {
        metrics.extend(rec.end_to_end(w.tail()));
        metrics.push("setup_s", median(&setup_s), "s");
        match measure::peak_rss_mib() {
            Some(mib) => metrics.push("peak_rss_mib", mib, "MiB"),
            None => correct = false,
        }
    }
    // Stop the daemon and wait for its threads before reporting.
    drop(state);
    RunResult {
        correct,
        attempted: rec.attempted,
        failed: rec.failed,
        metrics,
    }
}

/// Every per-layer metric: analytic and yield layers from probes on a
/// fresh c432, server layers from the workload's daemon or a probe
/// daemon. The flag is false if a probe stopped reproducing the program.
fn layer_metrics(
    state: &State,
    timer: &Arc<NsigmaTimer>,
    seeds: &Seeds,
    tr: &mut Tracer,
    split: &ModeSplit,
) -> (Metrics, bool) {
    let mut off = Tracer::new(false, Instant::now(), 0);
    let lib = nsigma_cells::CellLibrary::standard();
    let c432 = analytic::build_design(Iscas85::C432, &lib, seeds.design, &mut off);
    let mut m = Metrics::default();

    let (analytic, analytic_ok) = analytic::analytic_layers(timer, c432.clone(), seeds.ops, tr);
    m.extend(analytic);

    let session = TimingSession::new(Arc::clone(timer), c432, nsigma_core::MergeRule::Pessimistic)
        .expect("c432 compiles");
    let (yield_layers, yield_ok) = yield_mc::yield_layers(&session, seeds.ops, tr);
    m.extend(yield_layers);

    match state {
        State::Server(rig) => m.extend(server::server_layers(&rig.handle, seeds.ops, tr)),
        State::Yield { .. } => {
            let handle = server::probe_server(timer, Path::new(OUT_DIR));
            m.extend(server::server_layers(&handle, seeds.ops, tr));
            handle.shutdown();
        }
    }
    m.push("trace.overhead_pct", split.overhead_pct(), "%");
    (m, analytic_ok && yield_ok)
}

/// Writes the spans as NDJSON and prints the per-layer self-time table.
fn write_trace(w: Workload, seed: u64, tr: Tracer) {
    let trace = Trace { spans: tr.spans };
    eprint!("{}", trace.self_time_table());
    let path = Path::new(OUT_DIR).join(format!("trace-{}-{seed}.ndjson", w.name()));
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, trace.to_ndjson()));
    match written {
        Ok(()) => eprintln!("wrote {} spans to {}", trace.spans.len(), path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Runs `n` fresh processes of this benchmark on consecutive seeds and
/// prints each metric's median, quartiles and quartile spread.
fn repeat(args: &Args, n: usize) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("nsbench: cannot locate this executable: {e}");
            return 1;
        }
    };
    let mut by_metric: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut shares = Vec::new();
    let mut all_correct = true;
    for i in 0..n as u64 {
        let seed = args.seed + i;
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                args.workload.name(),
                "--seed",
                &seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        let parsed = out.ok().filter(|o| o.status.success()).and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            nsigma_server::json::parse(text.lines().last()?).ok()
        });
        let Some(v) = parsed else {
            eprintln!("nsbench: run with seed {seed} failed");
            return 1;
        };
        use nsigma_server::json::Value;
        all_correct &= v.get("correct").and_then(Value::as_bool) == Some(true);
        let attempted = v.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
        let failed = v.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        shares.push(failed / attempted.max(1.0));
        if let Some(Value::Obj(fields)) = v.get("metrics") {
            for (name, m) in fields {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = m
                    .get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                match by_metric.iter_mut().find(|e| &e.0 == name) {
                    Some(e) => e.2.push(value),
                    None => by_metric.push((name.clone(), unit, vec![value])),
                }
            }
        }
        eprintln!("run {}/{n} (seed {seed}) done", i + 1);
    }
    println!(
        "{:<36} {:>8} {:>14} {:>14} {:>14} {:>8}",
        "metric", "unit", "q1", "median", "q3", "iqr/med"
    );
    for (name, unit, values) in &by_metric {
        let (q1, med, q3) = measure::quartiles(values);
        println!(
            "{name:<36} {unit:>8} {q1:>14.4} {med:>14.4} {q3:>14.4} {:>8.4}",
            (q3 - q1) / med.abs()
        );
    }
    println!(
        "{} runs, correct in all: {all_correct}, failed share per run: {:?}",
        n, shares
    );
    0
}
