//! The `server_mix` and `server_yield` workloads and the server-layer
//! probes. The daemon runs in this process over TCP loopback with two
//! worker threads; each load connection is a closed loop on its own
//! thread.

use crate::analytic::{self, same_bits};
use crate::measure::{self, median, Metrics, OpRecord};
use crate::trace::{ModeSplit, Tracer};
use nsigma_cells::CellLibrary;
use nsigma_core::sta::TimerConfig;
use nsigma_core::{reference, MergeRule, NsigmaTimer, TimingSession, YieldCurve};
use nsigma_mc::Design;
use nsigma_netlist::generators::random_dag::Iscas85;
use nsigma_netlist::{map_to_cells, GateId};
use nsigma_server::json::{self, Value};
use nsigma_server::protocol::ok_response;
use nsigma_server::{parse_request, Client, Server, ServerConfig, ServerHandle};
use nsigma_stats::quantile::{QuantileSet, SigmaLevel};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads of the daemon, and load connections.
pub const WORKERS: usize = 2;
/// Name the workload design is registered under.
const DUT: &str = "dut";
/// Gates each connection resizes; the two sets are disjoint.
const OWN_GATES: usize = 64;
/// Trials per `yield_design` request in `server_yield`.
pub const YIELD_SAMPLES: usize = 16;
/// Paths compared with the oracle after the timed loop.
const CHECK_PATHS: usize = 4;
/// The exhibit of `server_mix`: a second copy of c432 with gate m478 (a
/// NOR2x4 at the fixed seeds) downsized to x1. Its worst path has a sigma
/// ladder that is not increasing (−3σ above −2σ), so a `quantile` at
/// σ = 4.5 on it answers `internal` every time, on inputs that do not
/// depend on `--seed`.
const EXHIBIT: &str = "exhibit";
const EXHIBIT_GATE: &str = "m478";

/// The workload's daemon plus the local state the oracle needs.
pub struct ServerRig {
    // Declared before `handle` so the connections close before the
    // daemon's shutdown joins their threads.
    clients: Vec<Client>,
    pub handle: ServerHandle,
    design_seed: u64,
}

/// Starts the daemon (building its timer from scratch), registers c432
/// (and, with `exhibit`, the exhibit copy) and opens the load
/// connections: everything before the first op.
pub fn setup(timer: TimerConfig, design_seed: u64, exhibit: bool) -> ServerRig {
    let handle = Server::start(ServerConfig {
        threads: WORKERS,
        timer,
        ..ServerConfig::default()
    })
    .expect("the daemon starts on an ephemeral loopback port");
    let port = handle.port();
    let mut clients: Vec<Client> = (0..WORKERS)
        .map(|_| Client::connect(("127.0.0.1", port)).expect("connect to the daemon"))
        .collect();
    clients[0]
        .request_ok(&format!(
            r#"{{"cmd":"register_design","name":"{DUT}","iscas":"c432","seed":{design_seed}}}"#
        ))
        .expect("c432 registers");
    if exhibit {
        clients[0]
            .request_ok(&format!(
                r#"{{"cmd":"register_design","name":"{EXHIBIT}","iscas":"c432","seed":{design_seed}}}"#
            ))
            .expect("the exhibit copy registers");
        clients[0]
            .request_ok(&format!(
                r#"{{"cmd":"eco_resize","design":"{EXHIBIT}","gate":"{EXHIBIT_GATE}","strength":1}}"#
            ))
            .expect("the exhibit gate resizes");
    }
    ServerRig {
        handle,
        clients,
        design_seed,
    }
}

/// The design exactly as `register_design` builds it (mapping without
/// complex-gate extraction), for gate names and the oracle.
pub fn local_design(seed: u64) -> Design {
    let lib = CellLibrary::standard();
    let netlist = map_to_cells(&Iscas85::C432.generate(), &lib).expect("c432 maps");
    Design::with_generated_parasitics(
        nsigma_process::Technology::synthetic_28nm(),
        lib,
        netlist,
        seed,
    )
}

/// A connection's own gates and the strength each was last set to.
struct OwnGates {
    gates: Vec<(String, GateId)>,
    initial: Vec<u32>,
    strength: Vec<u32>,
    next: usize,
}

impl OwnGates {
    fn new(design: &Design, picks: &[GateId]) -> Self {
        let gates: Vec<(String, GateId)> = picks
            .iter()
            .map(|&g| (design.netlist.gate(g).name.clone(), g))
            .collect();
        let initial: Vec<u32> = gates
            .iter()
            .map(|&(_, g)| design.lib.cell(design.netlist.gate(g).cell).strength())
            .collect();
        Self {
            gates,
            strength: initial.clone(),
            initial,
            next: 0,
        }
    }

    /// The next `eco_resize` line: even calls upsize the next own gate (to
    /// the next stronger sibling on each pass), odd calls restore it. See
    /// the README for why the workloads leave downsizes out.
    fn eco_line(&mut self, design: &Design) -> String {
        let n = self.gates.len();
        let visit = self.next / 2;
        let i = visit % n;
        let restore = self.next % 2 == 1;
        self.next += 1;
        let (name, g) = &self.gates[i];
        let s = if restore {
            self.initial[i]
        } else {
            let up = upsizes(design, *g);
            up[(visit / n) % up.len()]
        };
        self.strength[i] = s;
        format!(r#"{{"cmd":"eco_resize","design":"{DUT}","gate":"{name}","strength":{s}}}"#)
    }
}

/// The strengths above the gate's own that its kind has in the library.
fn upsizes(design: &Design, gate: GateId) -> Vec<u32> {
    let own = analytic::strength(design, gate);
    analytic::other_strengths(design, gate)
        .into_iter()
        .filter(|&s| s > own)
        .collect()
}

fn wp_line(design: &str, k: usize) -> String {
    format!(r#"{{"cmd":"worst_paths","design":"{design}","k":{k}}}"#)
}

fn quantile_line(design: &str, path: usize, sigma: f64) -> String {
    format!(r#"{{"cmd":"quantile","design":"{design}","path":{path},"sigma":{sigma}}}"#)
}

fn yield_line(design: &str, importance: bool, samples: usize, seed: u64) -> String {
    format!(
        r#"{{"cmd":"yield_design","design":"{design}","ci":1e-9,"importance":{importance},"samples":{samples},"seed":{seed}}}"#
    )
}

fn is_ok(reply: &str) -> bool {
    reply.starts_with(r#"{"ok":true"#)
}

/// A `yield_design` reply with exactly the requested trials, an ordered
/// interval inside [0, 1] and an effective sample size in [1, samples].
fn yield_reply_ok(reply: &str, samples: usize) -> bool {
    let Ok(v) = json::parse(reply) else {
        return false;
    };
    let num = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let (lo, y, hi, ess) = (num("ci_lo"), num("yield"), num("ci_hi"), num("ess"));
    v.get("ok").and_then(Value::as_bool) == Some(true)
        && num("samples") == samples as f64
        && 0.0 <= lo
        && lo <= y
        && y <= hi
        && hi <= 1.0
        && (1.0..=samples as f64).contains(&ess)
}

/// What one connection sends: the server_mix round, or one of the two
/// server_yield roles.
#[derive(Clone, Copy, PartialEq)]
pub enum Role {
    Mix,
    Yield,
    Eco,
}

/// Sends one request and records it; `check` sees the reply outside the
/// timed region.
fn send(
    client: &mut Client,
    line: &str,
    rec: &mut OpRecord,
    tr: &mut Tracer,
    check: impl FnOnce(&str) -> bool,
) {
    rec.attempted += 1;
    tr.next_op();
    let t = Instant::now();
    let reply = tr.span("op", |tr| {
        tr.span("server.roundtrip", |_| client.request_line(line))
    });
    let us = t.elapsed().as_secs_f64() * 1e6;
    match reply {
        Ok(r) if check(&r) => rec.complete(us),
        _ => rec.failed += 1,
    }
}

/// One connection's closed loop of whole rounds until `deadline`.
#[allow(clippy::too_many_arguments)]
fn connection(
    role: Role,
    client: &mut Client,
    own: &mut OwnGates,
    design: &Design,
    seed: u64,
    (start, deadline): (Instant, Instant),
    tr: &mut Tracer,
    traced: bool,
) -> (OpRecord, ModeSplit) {
    const BLOCK: usize = 4;
    let mut rec = OpRecord::new(start);
    let mut split = ModeSplit::default();
    let mut round = 0usize;
    while Instant::now() < deadline {
        let mode = usize::from(traced && (round / BLOCK) % 2 == 1);
        tr.set_on(mode == 1);
        let t = Instant::now();
        match role {
            Role::Mix => {
                for i in 0..10 {
                    // 80 % worst_paths, 10 % quantile, 10 % eco_resize.
                    let line = match i {
                        8 => quantile_line(DUT, 0, if round.is_multiple_of(2) { 3.0 } else { 4.5 }),
                        9 => own.eco_line(design),
                        _ => wp_line(DUT, 1),
                    };
                    send(client, &line, &mut rec, tr, is_ok);
                }
                // The exhibit op: fails every round while the fault lasts.
                send(client, &quantile_line(EXHIBIT, 0, 4.5), &mut rec, tr, is_ok);
            }
            Role::Yield => {
                for importance in [false, true] {
                    let s = measure::mix(seed, (2 * round + usize::from(importance)) as u64) >> 24;
                    let line = yield_line(DUT, importance, YIELD_SAMPLES, s);
                    send(client, &line, &mut rec, tr, |r| {
                        yield_reply_ok(r, YIELD_SAMPLES)
                    });
                }
            }
            Role::Eco => {
                // Three writers, then a reader. Each eco_resize normally
                // waits out a running yield_design, so the median op is a
                // lock wait even when a writer now and then gets in
                // between two yields.
                for _ in 0..3 {
                    let line = own.eco_line(design);
                    send(client, &line, &mut rec, tr, is_ok);
                }
                send(client, &wp_line(DUT, 1), &mut rec, tr, is_ok);
            }
        }
        split.add(mode, t.elapsed());
        round += 1;
    }
    tr.set_on(traced);
    rec.window = start.elapsed();
    (rec, split)
}

pub struct ServerOutcome {
    pub rec: OpRecord,
    pub split: ModeSplit,
    pub correct: bool,
    pub spans: Vec<Tracer>,
}

/// Runs both connections until `deadline`, then checks the final
/// `worst_paths` and `quantile` answers against the reference oracle on a
/// local copy with the same final gate strengths.
pub fn run(
    rig: &mut ServerRig,
    roles: [Role; 2],
    seed: u64,
    deadline: Instant,
    epoch: Instant,
    traced: bool,
) -> ServerOutcome {
    let design = local_design(rig.design_seed);
    let picks: Vec<GateId> =
        measure::permutation(design.netlist.num_gates(), measure::mix(seed, 0x6A7E))
            .into_iter()
            .map(GateId::from_index)
            .filter(|&g| !upsizes(&design, g).is_empty())
            .collect();
    let mut owns: Vec<OwnGates> = (0..2)
        .map(|c| OwnGates::new(&design, &picks[c * OWN_GATES..(c + 1) * OWN_GATES]))
        .collect();
    let start = Instant::now();
    let results: Vec<(OpRecord, ModeSplit, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .zip(owns.iter_mut())
            .zip(roles)
            .enumerate()
            .map(|(c, ((client, own), role))| {
                let design = &design;
                s.spawn(move || {
                    let mut tr = Tracer::new(traced, epoch, c as u32 + 1);
                    let seed = measure::mix(seed, 0xC0 + c as u64);
                    let (rec, split) = connection(
                        role,
                        client,
                        own,
                        design,
                        seed,
                        (start, deadline),
                        &mut tr,
                        traced,
                    );
                    (rec, split, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection thread"))
            .collect()
    });
    let window = start.elapsed();
    // Merged into the first connection's record, whose reserved capacity
    // holds both, so no third copy of the latencies is made.
    let mut rec: Option<OpRecord> = None;
    let mut split = ModeSplit::default();
    let mut spans = Vec::new();
    for (r, s, t) in results {
        match &mut rec {
            Some(rec) => rec.merge(r),
            None => rec = Some(r),
        }
        split.merge(&s);
        spans.push(t);
    }
    let mut rec = rec.expect("two connections ran");
    rec.window = window;

    let mut twin = design.clone();
    for own in &owns {
        for (&(_, g), &s) in own.gates.iter().zip(&own.strength) {
            let kind = twin.lib.cell(twin.netlist.gate(g).cell).kind();
            let cell = twin.lib.find_kind(kind, s).expect("strength exists");
            twin.replace_gate_cell(g, cell);
        }
    }
    let timer = Arc::clone(rig.handle.engine().timer());
    let correct = check_against_oracle(&mut rig.clients[0], &timer, twin);
    ServerOutcome {
        rec,
        split,
        correct,
        spans,
    }
}

fn quantiles_of(v: &Value) -> Option<QuantileSet> {
    let arr = v.as_arr()?;
    let vals: Vec<f64> = arr.iter().filter_map(Value::as_f64).collect();
    <[f64; 7]>::try_from(vals)
        .ok()
        .map(QuantileSet::from_values)
}

fn check_against_oracle(client: &mut Client, timer: &Arc<NsigmaTimer>, twin: Design) -> bool {
    let ranking = TimingSession::new(Arc::clone(timer), twin.clone(), MergeRule::Pessimistic)
        .expect("oracle session");
    let paths = ranking.worst_paths(CHECK_PATHS);
    let oracle: Vec<QuantileSet> = paths
        .iter()
        .map(|p| reference::analyze_path(timer, &twin, p).quantiles)
        .collect();
    let mut ok = true;
    let reply = client.request_ok(&wp_line(DUT, CHECK_PATHS));
    let got = reply
        .as_ref()
        .ok()
        .and_then(|v| v.get("paths")?.as_arr().map(<[Value]>::to_vec));
    match got {
        Some(got) if got.len() == paths.len() => {
            for ((g, p), q) in got.iter().zip(&paths).zip(&oracle) {
                let names: Vec<&str> = g
                    .get("gates")
                    .and_then(Value::as_arr)
                    .map(|a| a.iter().filter_map(Value::as_str).collect())
                    .unwrap_or_default();
                let want: Vec<&str> = p
                    .gates
                    .iter()
                    .map(|&id| twin.netlist.gate(id).name.as_str())
                    .collect();
                let qs = g.get("quantiles").and_then(quantiles_of);
                if names != want || !qs.is_some_and(|qs| same_bits(&qs, q)) {
                    ok = false;
                }
            }
        }
        _ => ok = false,
    }
    for (rank, q) in oracle.iter().enumerate() {
        for sigma in [3.0, 4.5] {
            let want = if sigma == 3.0 {
                q[SigmaLevel::PlusThree]
            } else {
                q[SigmaLevel::Zero] + YieldCurve::new(q).margin(0.0, sigma)
            };
            let got = client
                .request_ok(&quantile_line(DUT, rank, sigma))
                .ok()
                .and_then(|v| v.get("delay").and_then(Value::as_f64));
            if got.map(f64::to_bits) != Some(want.to_bits()) {
                ok = false;
            }
        }
    }
    if !ok {
        eprintln!("check failed: final worst_paths/quantile answers differ from the oracle");
    }
    ok
}

/// Starts a daemon for the server-layer probes of a workload that has
/// none, reloading `timer` through a coefficients file so no second
/// characterization runs.
pub fn probe_server(timer: &NsigmaTimer, dir: &std::path::Path) -> ServerHandle {
    std::fs::create_dir_all(dir).expect("create the output directory");
    let path = dir.join(format!("probe-coeff-{}.txt", std::process::id()));
    std::fs::write(&path, nsigma_core::write_coefficients(timer)).expect("write coefficients");
    let handle = Server::start(ServerConfig {
        threads: WORKERS,
        coeff_path: Some(path.clone()),
        ..ServerConfig::default()
    })
    .expect("probe daemon starts");
    let _ = std::fs::remove_file(&path);
    handle
}

/// Server-layer metrics, measured on an idle daemon against a design of
/// its own so the workload's design is left as the oracle expects.
pub fn server_layers(handle: &ServerHandle, seed: u64, tr: &mut Tracer) -> Metrics {
    const CALLS: usize = 200;
    const PROBE: &str = "probe";
    let port = handle.port();
    let engine = handle.engine();
    let mut a = Client::connect(("127.0.0.1", port)).expect("connect");
    let mut b = Client::connect(("127.0.0.1", port)).expect("connect");
    a.request_ok(&format!(
        r#"{{"cmd":"register_design","name":"{PROBE}","iscas":"c432","seed":{}}}"#,
        measure::mix(seed, 0x9B0) >> 24
    ))
    .expect("probe design registers");
    let wp = a.request_ok(&wp_line(PROBE, 1)).expect("worst_paths");
    let gate = wp
        .get("paths")
        .and_then(Value::as_arr)
        .and_then(|p| p.first()?.get("gates")?.as_arr()?.first()?.as_str())
        .expect("a worst path with gates")
        .to_string();
    let eco = |i: usize| {
        let s = if i.is_multiple_of(2) { 4 } else { 2 };
        format!(r#"{{"cmd":"eco_resize","design":"{PROBE}","gate":"{gate}","strength":{s}}}"#)
    };

    // Per endpoint: parse, execute, serialize in-process; the same line
    // over the socket for the round trip.
    let endpoints: [(&str, f64); 3] =
        [("worst_paths", 0.8), ("quantile", 0.1), ("eco_resize", 0.1)];
    let mut parse: [Vec<f64>; 3] = Default::default();
    let mut exec: [Vec<f64>; 3] = Default::default();
    let mut ser: [Vec<f64>; 3] = Default::default();
    let mut rt: [Vec<f64>; 3] = Default::default();
    for i in 0..CALLS {
        for e in 0..3 {
            let line = match e {
                0 => wp_line(PROBE, 1),
                1 => quantile_line(PROBE, 0, 3.0),
                _ => eco(2 * i),
            };
            tr.next_op();
            let t0 = Instant::now();
            let req = tr
                .span("server.parse", |_| parse_request(&line))
                .expect("valid request");
            let t1 = Instant::now();
            let payload = tr
                .span("server.execute", |_| engine.execute(req))
                .expect("request succeeds");
            let t2 = Instant::now();
            let text = tr.span("server.serialize", |_| ok_response(payload));
            let t3 = Instant::now();
            std::hint::black_box(text);
            parse[e].push((t1 - t0).as_secs_f64() * 1e6);
            exec[e].push((t2 - t1).as_secs_f64() * 1e6);
            ser[e].push((t3 - t2).as_secs_f64() * 1e6);
            let line = if e == 2 { eco(2 * i + 1) } else { line };
            let t = Instant::now();
            let reply = tr
                .span("server.roundtrip", |_| a.request_line(&line))
                .expect("round trip");
            rt[e].push(t.elapsed().as_secs_f64() * 1e6);
            assert!(is_ok(&reply), "probe request failed: {reply}");
        }
    }
    let med = |v: &[Vec<f64>; 3], e: usize| median(&v[e]);
    let mixed = |v: &[Vec<f64>; 3]| {
        endpoints
            .iter()
            .enumerate()
            .map(|(e, w)| w.1 * med(v, e))
            .sum::<f64>()
    };
    let mut m = Metrics::default();
    m.push("server.parse_us", mixed(&parse), "us");
    for (e, (name, _)) in endpoints.iter().enumerate() {
        m.push(format!("server.execute_us.{name}"), med(&exec, e), "us");
    }
    m.push("server.serialize_us", mixed(&ser), "us");
    m.push("server.roundtrip_us", mixed(&rt), "us");
    m.push(
        "server.transport_us",
        mixed(&rt) - mixed(&parse) - mixed(&exec) - mixed(&ser),
        "us",
    );

    // Lock wait: an eco_resize sent while a yield_design on the same
    // design holds its read lock, less the idle eco_resize round trip.
    const REPS: usize = 5;
    let mut under = Vec::new();
    for rep in 0..REPS {
        let line = yield_line(PROBE, rep % 2 == 1, YIELD_SAMPLES, rep as u64 + 1);
        let eco_line = eco(rep);
        std::thread::scope(|s| {
            let y = s.spawn(|| a.request_line(&line));
            // Give the yield request time to reach a worker and take the
            // design's read lock before the writer arrives.
            std::thread::sleep(Duration::from_millis(20));
            tr.next_op();
            let t = Instant::now();
            let reply = tr.span("server.lock_wait_roundtrip", |_| b.request_line(&eco_line));
            under.push(t.elapsed().as_secs_f64() * 1e6);
            assert!(
                reply.is_ok_and(|r| is_ok(&r)),
                "eco_resize under yield failed"
            );
            let y = y.join().expect("yield client thread");
            assert!(y.is_ok_and(|r| is_ok(&r)), "yield_design failed");
        });
    }
    m.push("server.lock_wait_us", median(&under) - med(&rt, 2), "us");

    let mut yield_ms = Vec::new();
    for rep in 0..3 {
        let req = parse_request(&yield_line(PROBE, rep % 2 == 1, YIELD_SAMPLES, 100 + rep))
            .expect("valid request");
        tr.next_op();
        let t = Instant::now();
        tr.span("server.yield_execute", |_| engine.execute(req))
            .expect("yield_design succeeds");
        yield_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.push("server.yield_execute_ms", median(&yield_ms), "ms");
    m
}
