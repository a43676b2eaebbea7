//! Set-up of each workload, untraced (what `setup_s` times) and traced
//! (the same steps split into the setup layers).

use crate::analytic;
use crate::measure::{self, host_cpus, Metrics};
use crate::server::{self, ServerRig};
use crate::trace::{Trace, Tracer};
use crate::Workload;
use nsigma_cells::characterize::{characterize_cell_threads, CharacterizeConfig, MomentGrid};
use nsigma_cells::{Cell, CellLibrary};
use nsigma_core::sta::TimerConfig;
use nsigma_core::{
    CellQuantileModel, MergeRule, MomentCalibration, NsigmaTimer, TimingSession,
    WireVariabilityModel, C_REF, S_REF,
};
use nsigma_netlist::generators::random_dag::Iscas85;
use nsigma_process::Technology;
use nsigma_stats::rng::SeedStream;
use std::collections::HashMap;
use std::sync::Arc;

/// The timer's characterization seed and the designs' parasitic seed.
/// They are fixed, not drawn from `--seed`: on some other seeds the
/// program gives sigma ladders that are not increasing (see README), and
/// an op that fails on some seeds only cannot be counted the same way in
/// every run. `--seed` drives every op stream instead.
const TIMER_SEED: u64 = 21;
const DESIGN_SEED: u64 = 2;

/// The seeds of a run.
pub struct Seeds {
    pub timer: u64,
    pub design: u64,
    /// Root of the op streams: gate orders, ranks, yield and server seeds.
    pub ops: u64,
}

impl Seeds {
    pub fn new(seed: u64) -> Self {
        Self {
            timer: TIMER_SEED,
            design: DESIGN_SEED,
            ops: measure::mix(seed, 0x095),
        }
    }

    pub fn timer_config(&self) -> TimerConfig {
        TimerConfig::standard(self.timer)
    }
}

/// A workload's state after set-up: what the first op runs against.
pub enum State {
    Yield {
        timer: Arc<NsigmaTimer>,
        session: Box<TimingSession>,
    },
    Server(ServerRig),
}

fn build_timer(seeds: &Seeds) -> Arc<NsigmaTimer> {
    let tech = Technology::synthetic_28nm();
    Arc::new(
        NsigmaTimer::build(&tech, &CellLibrary::standard(), &seeds.timer_config())
            .expect("the standard library characterizes"),
    )
}

/// The untraced set-up of `workload`: a fresh timer, the designs, the
/// sessions or the daemon.
pub fn setup(workload: Workload, seeds: &Seeds) -> State {
    let mut off = Tracer::new(false, std::time::Instant::now(), 0);
    let lib = CellLibrary::standard();
    match workload {
        Workload::YieldMc => {
            let timer = build_timer(seeds);
            let design = analytic::build_design(Iscas85::C432, &lib, seeds.design, &mut off);
            let session = TimingSession::new(Arc::clone(&timer), design, MergeRule::Pessimistic)
                .expect("c432 compiles");
            State::Yield {
                timer,
                session: Box::new(session),
            }
        }
        Workload::ServerMix | Workload::ServerYield => State::Server(server::setup(
            seeds.timer_config(),
            seeds.design,
            workload == Workload::ServerMix,
        )),
    }
}

/// `NsigmaTimer::build`, step by step from the public calls it makes,
/// with a span around each step.
pub fn traced_timer(cfg: &TimerConfig, tr: &mut Tracer) -> NsigmaTimer {
    let tech = Technology::synthetic_28nm();
    let lib = CellLibrary::standard();
    let cells: Vec<&Cell> = lib.iter().map(|(_, c)| c).collect();
    let seeds = SeedStream::new(cfg.seed);
    let threads = host_cpus().min(cells.len());
    let grids: Vec<MomentGrid> = tr.span("cells.characterize", |_| {
        let mut grids: Vec<Option<MomentGrid>> = vec![None; cells.len()];
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (cells, seeds, tech) = (&cells, &seeds, &tech);
                    s.spawn(move || {
                        (t..cells.len())
                            .step_by(threads)
                            .map(|idx| {
                                let char_cfg = CharacterizeConfig::standard(
                                    cfg.char_samples,
                                    seeds.tagged_seed(idx as u64),
                                );
                                (
                                    idx,
                                    characterize_cell_threads(tech, cells[idx], &char_cfg, 1),
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for (idx, grid) in h.join().expect("characterization worker") {
                    grids[idx] = Some(grid);
                }
            }
        });
        grids
            .into_iter()
            .map(|g| g.expect("every cell characterized"))
            .collect()
    });
    let (calibrations, training) = tr.span("core.moment_fit", |_| {
        let mut calibrations = HashMap::new();
        let mut training = Vec::new();
        for (cell, grid) in cells.iter().zip(&grids) {
            training.extend(grid.iter().map(|p| (p.moments, p.quantiles)));
            calibrations.insert(
                cell.name().to_string(),
                MomentCalibration::fit(grid, S_REF, C_REF).expect("moment fit"),
            );
        }
        (calibrations, training)
    });
    let model = tr.span("core.quantile_fit", |_| {
        CellQuantileModel::fit(&training).expect("Table I fit")
    });
    let all: Vec<Cell> = cells.iter().map(|&c| c.clone()).collect();
    let wire = tr.span("core.wire_calibrate", |_| {
        WireVariabilityModel::calibrate_with_cells(&tech, &cfg.wire, &all).expect("wire fit")
    });
    tr.span("core.timer_assemble", |_| {
        NsigmaTimer::from_parts(tech.clone(), model, calibrations, wire, cfg.input_slew)
    })
}

/// The traced set-up: the timer build split into its steps, then the
/// workload's designs through generation, parasitics, lint and compile.
/// Returns the setup-layer metrics and the traced timer.
pub fn traced_setup(workload: Workload, seeds: &Seeds, tr: &mut Tracer) -> (Metrics, NsigmaTimer) {
    tr.next_op();
    let timer = traced_timer(&seeds.timer_config(), tr);
    let lib = CellLibrary::standard();
    let designs = match workload {
        Workload::YieldMc => {
            vec![analytic::build_design(
                Iscas85::C432,
                &lib,
                seeds.design,
                tr,
            )]
        }
        // What `register_design` does: mapping only, lint on the logic
        // and on the placed design; `server_mix` registers c432 twice,
        // the second time for its exhibit op.
        Workload::ServerMix | Workload::ServerYield => {
            let copies = if workload == Workload::ServerMix {
                2
            } else {
                1
            };
            (0..copies)
                .map(|_| {
                    let logic = tr.span("netlist.design_gen", |_| Iscas85::C432.generate());
                    tr.span("lint.logic", |_| nsigma_lint::lint_logic(&logic));
                    let netlist = tr.span("netlist.design_gen", |_| {
                        nsigma_netlist::map_to_cells(&logic, &lib).expect("c432 maps")
                    });
                    tr.span("mc.parasitics", |_| {
                        nsigma_mc::Design::with_generated_parasitics(
                            Technology::synthetic_28nm(),
                            lib.clone(),
                            netlist,
                            seeds.design,
                        )
                    })
                })
                .collect()
        }
    };
    for design in designs {
        tr.span("lint.design", |_| nsigma_lint::lint_design(&design, &timer));
        tr.span("core.compile", |_| {
            TimingSession::new(&timer, design, MergeRule::Pessimistic).expect("compiles")
        });
    }
    let trace = Trace {
        spans: tr.spans.clone(),
    };
    let ms = |name: &str| trace.total_ns(name) as f64 / 1e6;
    let mut m = Metrics::default();
    m.push("cells.characterize_s", ms("cells.characterize") / 1e3, "s");
    m.push("core.quantile_fit_ms", ms("core.quantile_fit"), "ms");
    m.push("core.wire_calibrate_ms", ms("core.wire_calibrate"), "ms");
    m.push("netlist.design_gen_ms", ms("netlist.design_gen"), "ms");
    m.push("mc.parasitics_ms", ms("mc.parasitics"), "ms");
    m.push("core.compile_ms", ms("core.compile"), "ms");
    m.push("lint.design_ms", ms("lint.design"), "ms");
    (m, timer)
}
