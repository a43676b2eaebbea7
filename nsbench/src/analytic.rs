//! The analytic-layer probes: timed `TimingSession` calls on a fresh c432
//! and micro-probes of the per-stage model calls on the same design.
//!
//! A probe round is four ops: `resize_gate` (set the next gate of a
//! seeded order to another strength of its kind, up or down, or restore
//! the gate the previous round moved), `analyze_design`, `worst_paths(K)`
//! plus `analyze_path` on one ranked path, and `path_by_rank`.

use crate::measure::{self, median, Metrics};
use crate::trace::{Trace, Tracer};
use nsigma_cells::CellLibrary;
use nsigma_core::{MergeRule, NsigmaTimer, TimingSession};
use nsigma_mc::Design;
use nsigma_netlist::{GateId, NetDriver, NetId};
use nsigma_stats::quantile::QuantileSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Paths ranked per `worst_paths` op.
const K: usize = 4;
/// Strengths the standard library offers per kind.
const STRENGTHS: [u32; 4] = [1, 2, 4, 8];
/// Probe rounds per traced run.
const ROUNDS: usize = 200;

/// The strength of the gate's cell.
pub fn strength(design: &Design, gate: GateId) -> u32 {
    design.lib.cell(design.netlist.gate(gate).cell).strength()
}

/// The strengths other than the gate's own that its kind has in the
/// library.
pub fn other_strengths(design: &Design, gate: GateId) -> Vec<u32> {
    let cell = design.lib.cell(design.netlist.gate(gate).cell);
    STRENGTHS
        .into_iter()
        .filter(|&s| s != cell.strength() && design.lib.find_kind(cell.kind(), s).is_some())
        .collect()
}

/// A session and the resize cycle of the probe rounds.
struct DesignRig {
    session: TimingSession,
    /// Seeded visit order: each resizable gate with its initial strength
    /// and the other strengths of its kind.
    order: Vec<(GateId, u32, Vec<u32>)>,
    rounds: usize,
    recomputed: Vec<f64>,
}

impl DesignRig {
    fn new(timer: &Arc<NsigmaTimer>, design: Design, seed: u64) -> Self {
        let order = measure::permutation(design.netlist.num_gates(), seed)
            .into_iter()
            .map(GateId::from_index)
            .map(|g| (g, strength(&design, g), other_strengths(&design, g)))
            .filter(|(_, _, others)| !others.is_empty())
            .collect();
        let session = TimingSession::new(Arc::clone(timer), design, MergeRule::Pessimistic)
            .expect("generated designs use only calibrated cells");
        Self {
            session,
            order,
            rounds: 0,
            recomputed: Vec::new(),
        }
    }

    /// The next (gate, strength): even rounds move the next gate of the
    /// order to another strength (the next one on each pass over the
    /// order), odd rounds restore it.
    fn next_resize(&self) -> (GateId, u32) {
        let n = self.order.len();
        let visit = self.rounds / 2;
        let (gate, initial, others) = &self.order[visit % n];
        if self.rounds % 2 == 1 {
            return (*gate, *initial);
        }
        (*gate, others[(visit / n) % others.len()])
    }

    /// Runs one round with a span around every call; false if a call
    /// returned an error.
    fn round(&mut self, tr: &mut Tracer) -> bool {
        let i = self.rounds;
        let (gate, strength) = self.next_resize();
        self.rounds += 1;

        tr.next_op();
        let session = &mut self.session;
        let resized = tr.span("core.resize_gate", |_| session.resize_gate(gate, strength));
        self.recomputed
            .push(self.session.last_recompute_count() as f64);

        let session = &self.session;
        tr.next_op();
        tr.span("core.analyze_design", |_| {
            black_box(session.analyze_design())
        });

        tr.next_op();
        let mut paths = tr.span("core.worst_paths", |_| session.worst_paths(K));
        let analyzed = !paths.is_empty() && {
            let path = paths.swap_remove(i % paths.len());
            tr.span("core.analyze_path", |_| session.analyze_path(&path))
                .is_ok()
        };

        tr.next_op();
        let rank = (i / K + 1) % K;
        let by_rank = tr.span("core.path_by_rank", |_| session.path_by_rank(rank));
        resized.is_ok() && analyzed && by_rank.is_ok()
    }
}

pub fn same_bits(a: &QuantileSet, b: &QuantileSet) -> bool {
    a.as_array()
        .iter()
        .zip(b.as_array())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Analytic-layer metrics: [`ROUNDS`] traced probe rounds on a session
/// of `design`, then the per-stage model probes on its final state.
/// The flag is false if a call failed or a probe did not reproduce the
/// session's own cell quantiles.
pub fn analytic_layers(
    timer: &Arc<NsigmaTimer>,
    design: Design,
    seed: u64,
    tr: &mut Tracer,
) -> (Metrics, bool) {
    let mut rig = DesignRig::new(timer, design, seed);
    let first_span = tr.spans.len();
    let before = rig.session.cache_counters();
    let mut ok = true;
    for _ in 0..ROUNDS {
        ok &= rig.round(tr);
    }
    let after = rig.session.cache_counters();
    if !ok {
        eprintln!("check failed: a session call of the analytic probe rounds returned an error");
    }
    let trace = Trace {
        spans: tr.spans[first_span..].to_vec(),
    };

    let mut m = Metrics::default();
    for (metric, span) in [
        ("core.analyze_design_us", "core.analyze_design"),
        ("core.worst_paths_us", "core.worst_paths"),
        ("core.analyze_path_us", "core.analyze_path"),
        ("core.path_by_rank_us", "core.path_by_rank"),
        ("core.resize_gate_us", "core.resize_gate"),
    ] {
        m.push(metric, median(&trace.durations_us(span)), "us");
    }
    let recomputed = &rig.recomputed;
    m.push(
        "core.recomputed_gates",
        recomputed.iter().sum::<f64>() / recomputed.len().max(1) as f64,
        "count",
    );
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    m.push(
        "core.stage_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    let (probes, faithful) = model_probes(&rig.session, tr);
    m.extend(probes);
    (m, ok && faithful)
}

/// Times `f`, which makes `calls` calls, over several passes and returns
/// the median ns per call; each pass is recorded as one span.
fn per_call_ns(tr: &mut Tracer, name: &'static str, calls: usize, mut f: impl FnMut()) -> f64 {
    const PASSES: usize = 7;
    let mut per = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        tr.next_op();
        let t = Instant::now();
        f();
        let end = Instant::now();
        tr.record(name, t, end);
        per.push((end - t).as_nanos() as f64 / calls.max(1) as f64);
    }
    median(&per)
}

/// Stage lookup, cache-miss model evaluation, wire quantiles and merge,
/// each timed over the inputs the session's design actually produces.
/// The flag is false if the lookup or the evaluation does not reproduce
/// the cell quantiles the session reported for the same stages.
fn model_probes(session: &TimingSession, tr: &mut Tracer) -> (Metrics, bool) {
    let timer = session.timer();
    let design = session.design();
    // Stage keys: the (cell, slew, load) operating points of the ranked
    // paths' stages, with the cell quantiles the session returned.
    let mut keys: Vec<(u32, f64, f64, QuantileSet)> = Vec::new();
    for path in session.worst_paths(16) {
        let timing = session.analyze_path(&path).expect("ranked paths are valid");
        for st in timing.stages {
            let id = timer.cell_id(&st.cell).expect("calibrated cell");
            keys.push((id, st.input_slew, st.load, st.cell_quantiles));
        }
    }
    let mut out = vec![QuantileSet::default(); keys.len()];
    let lookup_ns = per_call_ns(tr, "core.stage_lookup", keys.len(), || {
        for (o, &(id, s, l, _)) in out.iter_mut().zip(&keys) {
            *o = timer.stage_cell_quantiles_id(black_box(id), s, l).0;
        }
    });
    let lookup_ok = keys.iter().zip(&out).all(|(k, q)| same_bits(&k.3, q));
    let model = timer.quantile_model();
    let eval_ns = per_call_ns(tr, "core.cell_quantile_eval", keys.len(), || {
        for (o, &(id, s, l, _)) in out.iter_mut().zip(&keys) {
            let cal = timer.calibration_by_id(black_box(id));
            let moments = cal.moments_at(s, l);
            *o = model.predict(&moments);
            black_box(cal.output_slew_at(s, l));
        }
    });
    let eval_ok = keys.iter().zip(&out).all(|(k, q)| same_bits(&k.3, q));
    if !(lookup_ok && eval_ok) {
        eprintln!("check failed: stage probe keys do not reproduce the session's cell quantiles");
    }

    // Wire quantiles for every sink of every wired net.
    let wire = timer.wire_model();
    let mut wire_args = Vec::new();
    for idx in 0..design.netlist.num_nets() {
        let net = NetId::from_index(idx);
        let (Some(tree), Some(driver)) = (design.parasitic(net), design.driver_cell(net)) else {
            continue;
        };
        let loads = design.load_cells(net);
        if loads.len() == tree.sinks().len() {
            for pos in 0..loads.len() {
                wire_args.push((tree, loads.clone(), driver, pos));
            }
        }
    }
    let driven = |n: NetId| matches!(design.netlist.net(n).driver, NetDriver::Gate(_));
    let merge_pairs: Vec<(QuantileSet, QuantileSet)> = design
        .netlist
        .gates()
        .iter()
        .filter_map(|gate| match gate.inputs[..] {
            [a, b, ..] if driven(a) && driven(b) => {
                Some((*session.arrival(a), *session.arrival(b)))
            }
            _ => None,
        })
        .collect();
    let wire_ns = per_call_ns(tr, "core.wire_quantile", wire_args.len(), || {
        for (tree, loads, driver, pos) in &wire_args {
            black_box(wire.net_quantiles(&design.tech, tree, loads, driver, *pos));
        }
    });
    let rule = MergeRule::Pessimistic;
    let merge_ns = per_call_ns(tr, "core.merge", merge_pairs.len(), || {
        for (a, b) in &merge_pairs {
            black_box(rule.merge(black_box(a), black_box(b)));
        }
    });

    let mut m = Metrics::default();
    m.push("core.stage_lookup_ns", lookup_ns, "ns");
    m.push("core.cell_quantile_eval_ns", eval_ns, "ns");
    m.push("core.wire_quantile_ns", wire_ns, "ns");
    m.push("core.merge_ns", merge_ns, "ns");
    (m, lookup_ok && eval_ok)
}

/// The in-process designs of `yield_mc` and the probes: ISCAS85
/// generator, technology mapping, complex-gate extraction, generated
/// parasitics.
pub fn build_design(
    bench: nsigma_netlist::generators::random_dag::Iscas85,
    lib: &CellLibrary,
    seed: u64,
    tr: &mut Tracer,
) -> Design {
    let netlist = tr.span("netlist.design_gen", |_| {
        let mapped = nsigma_netlist::map_to_cells(&bench.generate(), lib)
            .expect("ISCAS85 circuits map onto the standard library");
        nsigma_netlist::optimize::extract_complex_gates(&mapped, lib)
            .expect("the standard library has AOI/OAI cells")
            .netlist
    });
    tr.span("mc.parasitics", |_| {
        Design::with_generated_parasitics(
            nsigma_process::Technology::synthetic_28nm(),
            lib.clone(),
            netlist,
            seed,
        )
    })
}
