//! The `yield_mc` workload and the yield-layer probes.
//!
//! An op is one `yield_run` on c432 at `threads = nproc` drawing
//! [`TRIALS`] trials with a half-width target no run can reach, so every
//! op draws exactly its trials. A round is a plain-MC op then an
//! importance-sampled op; op seeds derive from the workload seed.

use crate::measure::{self, host_cpus, median, Metrics, OpRecord};
use crate::trace::{ModeSplit, Tracer};
use nsigma_cells::timing::evaluate_arc_pair;
use nsigma_cells::Cell;
use nsigma_core::TimingSession;
use nsigma_interconnect::rctree::RcTree;
use nsigma_mc::wire_sim::{sample_wire, WireGoldenMode};
use nsigma_mc::{find_critical_path, simulate_path_mc, Design, PathMcConfig};
use nsigma_netlist::{NetDriver, NetId};
use nsigma_process::{Technology, VariationModel};
use nsigma_stats::quantile::{QuantileSet, SigmaLevel};
use nsigma_stats::rng::CounterRng;
use nsigma_yield::{likelihood_ratio, YieldAnalysis, YieldConfig, YieldRun, DEFAULT_IS_SHIFT};
use std::hint::black_box;
use std::time::Instant;

/// Trials per op.
pub const TRIALS: usize = 8;
/// A half-width no run of [`TRIALS`] trials can reach.
const UNREACHABLE_CI: f64 = 1e-9;
/// Allowed relative gap between the pooled plain-MC quantiles and the
/// analytic quantiles at −2σ … +2σ (see README).
pub const MC_TOLERANCE: f64 = 0.08;

pub fn op_config(
    seed: u64,
    op: u64,
    importance: bool,
    threads: usize,
    trials: usize,
) -> YieldConfig {
    YieldConfig {
        ci_half_width: UNREACHABLE_CI,
        max_samples: trials,
        chunk: trials,
        threads,
        seed: measure::mix(seed, 0x7900 + op),
        importance: importance.then_some(DEFAULT_IS_SHIFT),
        ..YieldConfig::default()
    }
}

/// Per-op output checks: exact trial count, ordered interval inside
/// [0, 1], effective sample size in [1, samples], finite delays.
pub fn op_ok(run: &YieldRun, trials: usize) -> bool {
    let r = &run.report;
    let e = &r.estimate;
    r.samples == trials
        && run.delays().len() == trials
        && run.delays().iter().all(|d| d.is_finite() && *d > 0.0)
        && 0.0 <= e.ci_lo
        && e.ci_lo <= e.value
        && e.value <= e.ci_hi
        && e.ci_hi <= 1.0
        && (1.0..=trials as f64).contains(&r.ess)
}

pub struct YieldOutcome {
    pub rec: OpRecord,
    pub split: ModeSplit,
    pub correct: bool,
}

/// The closed loop plus the run-level checks.
pub fn run(
    session: &TimingSession,
    seed: u64,
    deadline: Instant,
    tr: &mut Tracer,
    traced: bool,
) -> YieldOutcome {
    let threads = host_cpus();
    let start = Instant::now();
    let mut rec = OpRecord::new(start);
    let mut split = ModeSplit::default();
    let mut pooled: Vec<f64> = Vec::new();
    let mut first: Vec<(YieldConfig, YieldRun)> = Vec::new();
    let mut analytic: Option<QuantileSet> = None;
    let mut op = 0u64;
    let mut round = 0usize;
    while Instant::now() < deadline {
        let mode = usize::from(traced && round % 2 == 1);
        tr.set_on(mode == 1);
        let t_round = Instant::now();
        for importance in [false, true] {
            let cfg = op_config(seed, op, importance, threads, TRIALS);
            op += 1;
            rec.attempted += 1;
            tr.next_op();
            let t = Instant::now();
            let out = tr.span("op", |tr| tr.span("yield.run", |_| session.yield_run(&cfg)));
            let us = t.elapsed().as_secs_f64() * 1e6;
            match out {
                Ok(run) if op_ok(&run, TRIALS) => {
                    rec.complete(us);
                    if !importance {
                        pooled.extend_from_slice(run.delays());
                        analytic.get_or_insert(run.report.analytic_quantiles);
                    }
                    if first.len() < 2 {
                        first.push((cfg, run));
                    }
                }
                _ => rec.failed += 1,
            }
        }
        split.add(mode, t_round.elapsed());
        round += 1;
    }
    tr.set_on(traced);
    rec.window = start.elapsed();

    // Thread invariance: the first plain and importance ops, re-run on
    // one thread, must give the same trial delays and weights bit for bit.
    let mut correct = true;
    for (cfg, run) in &first {
        let again = session.yield_run(&YieldConfig {
            threads: 1,
            ..cfg.clone()
        });
        let same = again.as_ref().is_ok_and(|a| {
            bits(a.delays()) == bits(run.delays()) && bits(a.weights()) == bits(run.weights())
        });
        if !same {
            eprintln!(
                "check failed: yield op with seed {} is not thread-invariant",
                cfg.seed
            );
            correct = false;
        }
    }
    // The pooled plain-MC distribution against the analytic quantiles.
    if let (Some(analytic), false) = (analytic, pooled.is_empty()) {
        let mc = QuantileSet::from_samples(&pooled);
        for lvl in [
            SigmaLevel::MinusTwo,
            SigmaLevel::MinusOne,
            SigmaLevel::Zero,
            SigmaLevel::PlusOne,
            SigmaLevel::PlusTwo,
        ] {
            let gap = (mc[lvl] - analytic[lvl]).abs() / analytic[lvl];
            if gap > MC_TOLERANCE {
                eprintln!(
                    "check failed: pooled MC {}σ quantile is {:.1} % off the analytic one ({} trials)",
                    lvl.n(),
                    gap * 100.0,
                    pooled.len()
                );
                correct = false;
            }
        }
    } else {
        correct = false;
    }
    YieldOutcome {
        rec,
        split,
        correct,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The golden per-trial physics laid out as the yield engine walks it,
/// rebuilt here from public calls so each layer can be timed on its own.
struct Prep<'a> {
    tech: &'a Technology,
    variation: VariationModel,
    input_slew: f64,
    shift: f64,
    cells: Vec<&'a Cell>,
    sigma_pd: Vec<f64>,
    sigma_pu: Vec<f64>,
    fallback_cap: Vec<f64>,
    trees: Vec<Option<&'a RcTree>>,
    loads: Vec<Vec<&'a Cell>>,
    scales: Vec<Vec<f64>>,
    po_nets: Vec<usize>,
}

impl<'a> Prep<'a> {
    fn new(design: &'a Design, cfg: &YieldConfig) -> Self {
        let tech = &design.tech;
        let mut p = Prep {
            tech,
            variation: VariationModel::new(tech),
            input_slew: cfg.input_slew,
            shift: cfg.shift(),
            cells: Vec::new(),
            sigma_pd: Vec::new(),
            sigma_pu: Vec::new(),
            fallback_cap: Vec::new(),
            trees: Vec::new(),
            loads: Vec::new(),
            scales: Vec::new(),
            po_nets: Vec::new(),
        };
        for gate in design.netlist.gates() {
            let cell = design.lib.cell(gate.cell);
            let (pd, pu) = cell.arc_stacks();
            p.cells.push(cell);
            p.sigma_pd.push(pd.effective_local_sigma(tech));
            p.sigma_pu.push(pu.effective_local_sigma(tech));
            p.fallback_cap.push(cell.output_parasitic(tech));
        }
        for idx in 0..design.netlist.num_nets() {
            let net = NetId::from_index(idx);
            let tree = design.parasitic(net).filter(|t| !t.sinks().is_empty());
            let sinks = tree.map_or(0, |t| t.sinks().len());
            p.trees.push(tree);
            p.loads.push(if tree.is_some() {
                design.load_cells(net)
            } else {
                Vec::new()
            });
            p.scales.push(match design.wire_golden_scale(net) {
                Some(sc) if tree.is_some() => sc.to_vec(),
                _ => vec![1.0; sinks],
            });
        }
        p.po_nets = design
            .netlist
            .outputs()
            .iter()
            .filter(|&&o| matches!(design.netlist.net(o).driver, NetDriver::Gate(_)))
            .map(|o| o.index())
            .collect();
        p
    }
}

/// The arguments of one cell-arc evaluation, kept for the timed replay.
type ArcArgs<'a> = (&'a Cell, f64, f64, f64, f64, f64);

/// One trial with the draws and every wire sample timed as spans; the
/// cell-arc arguments are collected for a separately timed replay.
fn traced_trial<'a>(
    prep: &Prep<'a>,
    csr: &nsigma_netlist::topo::NetlistCsr,
    rng: &mut CounterRng,
    arcs: &mut Vec<ArcArgs<'a>>,
    tr: &mut Tracer,
) -> (f64, f64) {
    let t0 = Instant::now();
    let (global, z) = prep.variation.sample_global_shifted(rng, prep.shift);
    let w = likelihood_ratio(z, prep.shift);
    let gates = prep.cells.len();
    let mut dloc = Vec::with_capacity(gates);
    let mut dloc_rise = Vec::with_capacity(gates);
    for gi in 0..gates {
        dloc.push(prep.variation.sample_local_vth(rng, prep.sigma_pd[gi]));
        dloc_rise.push(prep.variation.sample_local_vth(rng, prep.sigma_pu[gi]));
    }
    tr.record("process.draws", t0, Instant::now());

    let nets = prep.trees.len();
    let mut arrival = vec![0.0f64; nets];
    let mut slew = vec![prep.input_slew; nets];
    for &g in &csr.order {
        let gi = g.index();
        let net = csr.gate_output[gi] as usize;
        let cell = prep.cells[gi];
        let mut in_arrival = 0.0f64;
        let mut in_slew = prep.input_slew;
        for &i in csr.fanins(gi) {
            let a = arrival[i as usize];
            if a > in_arrival {
                in_arrival = a;
                in_slew = slew[i as usize];
            }
        }
        let (sink_lag, load_cap) = match prep.trees[net] {
            Some(tree) => {
                let t = Instant::now();
                let ws = sample_wire(
                    prep.tech,
                    &prep.variation,
                    tree,
                    cell,
                    &prep.loads[net],
                    in_slew,
                    &global,
                    dloc[gi],
                    rng,
                    WireGoldenMode::TwoPole,
                );
                tr.record("mc.wire_sample", t, Instant::now());
                let lag = ws
                    .delays
                    .iter()
                    .zip(&prep.scales[net])
                    .map(|(d, s)| d * s)
                    .fold(0.0f64, f64::max);
                (lag, ws.c_eff)
            }
            None => (0.0, prep.fallback_cap[gi]),
        };
        let args = (
            cell,
            in_slew,
            load_cap,
            global.dvth + dloc[gi],
            global.dvth + dloc_rise[gi],
            global.mobility,
        );
        arcs.push(args);
        let arc = evaluate_arc_pair(prep.tech, args.0, args.1, args.2, args.3, args.4, args.5);
        arrival[net] = in_arrival + arc.delay + sink_lag;
        slew[net] = (arc.output_slew + 2.0 * sink_lag).max(0.0);
    }
    let delay = prep
        .po_nets
        .iter()
        .map(|&o| arrival[o])
        .fold(0.0f64, f64::max);
    (delay, w)
}

/// Yield-layer metrics on a c432 session: the engine at one thread and
/// at `nproc` threads, and a per-layer split of the same trials, run
/// back to back in each of a few reps so the split and the engine see the
/// same machine state; each metric is the median over the reps. The flag
/// is false if the layer-by-layer trials do not reproduce the engine's
/// trials bit for bit.
pub fn yield_layers(session: &TimingSession, seed: u64, tr: &mut Tracer) -> (Metrics, bool) {
    const SPLIT_TRIALS: usize = 8;
    const REPS: usize = 9;
    let nproc = host_cpus();
    let design = session.design();
    let mut m = Metrics::default();

    let cfg = op_config(seed, 0x100, true, 1, SPLIT_TRIALS);
    let prep = Prep::new(design, &cfg);
    let csr = session.compiled().csr();
    let per_trial = |ns: u64| ns as f64 / 1e3 / SPLIT_TRIALS as f64;
    let (mut one, mut many) = (Vec::new(), Vec::new());
    let (mut draws, mut wire, mut arcs, mut rest) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut faithful = true;
    for _ in 0..REPS {
        let mut engine_1t = None;
        for threads in [1, nproc] {
            let cfg = YieldConfig {
                threads,
                ..cfg.clone()
            };
            tr.next_op();
            let t = Instant::now();
            let run = tr
                .span(
                    if threads == 1 {
                        "yield.engine_1t"
                    } else {
                        "yield.engine_nt"
                    },
                    |_| session.yield_run(&cfg),
                )
                .expect("probe yield config is valid");
            let us = t.elapsed().as_secs_f64() * 1e6 / SPLIT_TRIALS as f64;
            if threads == 1 {
                one.push(us);
                engine_1t = Some(run);
            } else {
                many.push(us);
            }
        }
        let engine_1t = engine_1t.expect("the 1-thread run ran");

        let (mut draws_ns, mut wire_ns, mut arc_ns) = (0u64, 0u64, 0u64);
        for trial in 0..SPLIT_TRIALS {
            tr.next_op();
            let first_span = tr.spans.len();
            let mut arc_args = Vec::with_capacity(prep.cells.len());
            let mut rng = CounterRng::new(cfg.seed, trial as u64);
            let (d, w) = tr.span("yield.trial_split", |tr| {
                traced_trial(&prep, csr, &mut rng, &mut arc_args, tr)
            });
            faithful &= d.to_bits() == engine_1t.delays()[trial].to_bits()
                && w.to_bits() == engine_1t.weights()[trial].to_bits();
            for s in &tr.spans[first_span..] {
                match s.name {
                    "process.draws" => draws_ns += s.dur_ns(),
                    "mc.wire_sample" => wire_ns += s.dur_ns(),
                    _ => {}
                }
            }
            let t = Instant::now();
            for a in &arc_args {
                black_box(evaluate_arc_pair(prep.tech, a.0, a.1, a.2, a.3, a.4, a.5));
            }
            let end = Instant::now();
            tr.record("cells.arc_eval", t, end);
            arc_ns += (end - t).as_nanos() as u64;
        }
        let (d, w, a) = (per_trial(draws_ns), per_trial(wire_ns), per_trial(arc_ns));
        rest.push(one[one.len() - 1] - d - w - a);
        draws.push(d);
        wire.push(w);
        arcs.push(a);
    }
    if !faithful {
        eprintln!(
            "check failed: the layer split does not reproduce the engine's trials bit for bit"
        );
    }
    m.push("process.draws_us_per_trial", median(&draws), "us");
    m.push("mc.wire_sample_us_per_trial", median(&wire), "us");
    m.push("cells.arc_eval_us_per_trial", median(&arcs), "us");
    m.push("yield.trial_us_1t", median(&one), "us");
    m.push("yield.propagate_tally_us_per_trial", median(&rest), "us");
    m.push(
        "yield.parallel_efficiency",
        median(&one) / (nproc as f64 * median(&many)),
        "ratio",
    );

    let path = find_critical_path(design).expect("c432 has a critical path");
    const PATH_TRIALS: usize = 64;
    let path_cfg = PathMcConfig {
        samples: PATH_TRIALS,
        seed: measure::mix(seed, 0x9A7),
        input_slew: cfg.input_slew,
    };
    let mut path_us = Vec::new();
    for _ in 0..REPS {
        tr.next_op();
        let t = Instant::now();
        tr.span("mc.path_mc", |_| {
            black_box(simulate_path_mc(design, &path, &path_cfg))
        });
        path_us.push(t.elapsed().as_secs_f64() * 1e6 / PATH_TRIALS as f64);
    }
    m.push("mc.path_trial_us", median(&path_us), "us");
    (m, faithful)
}
