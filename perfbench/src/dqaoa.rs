//! `dqaoa`: back-to-back `solve_dqaoa` runs on one metamaterial QUBO
//! through `QfwSession` → `QfwBackend` → Defw RPC → QPM → QRC →
//! `nwqsim/cpu`, with a pinned base seed.
//!
//! Per-evaluation latency is measured by replaying bound evaluations of
//! the workload's own sub-QUBO ansätze through the same frontend between
//! solves, from as many threads as a solve runs sub-solves.

use crate::report::Outcome;
use crate::stack::{self, mean};
use crate::stats::{self, median_time_us};
use crate::trace::{record_self_times, Tracer};
use crate::{Opts, SLOTS};
use qfw::{BackendSpec, ExecTask, QfwBackend, QfwConfig, QfwResult, QfwSession};
use qfw_circuit::{canonical_hash, text, ParamCircuit};
use qfw_dqaoa::{solve_dqaoa, DqaoaConfig, DqaoaOutcome, QaoaConfig};
use qfw_hpc::ClusterSpec;
use qfw_num::rng::Rng;
use qfw_optim::{tabu_search, TabuConfig};
use qfw_workloads::{qaoa_ansatz, Qubo};
use std::time::Instant;

/// Variables of the metamaterial QUBO and its coupling band.
const VARS: usize = 64;
const BAND: usize = 4;
/// Sub-QUBO size and concurrent sub-solves per iteration.
const SUBQSIZE: usize = 14;
const NSUBQ: usize = 2;
/// Shots per evaluation.
const SHOTS: usize = 512;
/// Outer iterations per solve.
const ITERATIONS: usize = 8;
/// Pinned seeds: DQAOA partitioning and the frontend's base seed.
const DQAOA_SEED: u64 = 0xD0A0A;
const BASE_SEED: u64 = 0x5EED;
/// Bound evaluations replayed after each solve (latency samples).
const REPLAYS_PER_SOLVE: usize = 16;
/// Evaluations per tail window: the tail rule reads p95 in each.
const TAIL_WINDOW: usize = 200;
/// Session set-ups timed per run; each takes milliseconds, so many are
/// cheap and steady the median.
const SETUPS: usize = 15;
/// Largest accepted (DQAOA best − tabu reference) / |reference|.
pub const GAP_BOUND: f64 = 0.05;

fn config() -> DqaoaConfig {
    DqaoaConfig {
        subqsize: SUBQSIZE,
        nsubq: NSUBQ,
        qaoa: QaoaConfig {
            layers: 1,
            shots: SHOTS,
            max_evals: 30,
            ..QaoaConfig::default()
        },
        seed: DQAOA_SEED,
        // Every solve runs all its iterations: with an early stop, how
        // fast an instance converges would set a solve's share of
        // per-iteration overhead, and the rate would vary with the seed.
        max_iterations: ITERATIONS,
        patience: ITERATIONS,
        ..DqaoaConfig::default()
    }
}

/// Replay inputs: the ansätze of two sub-QUBOs of the workload's QUBO
/// around a seeded incumbent, and seeded parameter vectors. The variable
/// subsets come from the pinned DQAOA seed, so every workload seed
/// replays circuits of the same size.
struct Replays {
    ansatze: Vec<ParamCircuit>,
    params: Vec<Vec<f64>>,
}

impl Replays {
    fn new(qubo: &Qubo, seed: u64) -> Replays {
        let mut rng = Rng::seed_from(seed ^ 0xA5A5);
        let incumbent: Vec<u8> = (0..VARS).map(|_| u8::from(rng.chance(0.5))).collect();
        let mut order: Vec<usize> = (0..VARS).collect();
        Rng::seed_from(DQAOA_SEED).shuffle(&mut order);
        let ansatze = order
            .chunks(SUBQSIZE)
            .take(NSUBQ)
            .map(|vars| qaoa_ansatz(&qubo.sub_qubo(vars, &incumbent), 1))
            .collect();
        let params = (0..64)
            .map(|_| {
                vec![
                    rng.uniform(0.0, std::f64::consts::PI),
                    rng.uniform(0.0, std::f64::consts::PI),
                ]
            })
            .collect();
        Replays { ansatze, params }
    }

    fn eval(&self, backend: &QfwBackend, j: usize) -> Result<(f64, QfwResult), String> {
        let (a, p) = (
            &self.ansatze[j % NSUBQ],
            &self.params[j % self.params.len()],
        );
        let t = Instant::now();
        let r = backend
            .execute_param_sync(a, p, SHOTS)
            .map_err(|e| e.to_string())?;
        let us = t.elapsed().as_secs_f64() * 1e6;
        check_counts(&r)?;
        Ok((us, r))
    }
}

fn check_counts(r: &QfwResult) -> Result<(), String> {
    let total: usize = r.counts.values().sum();
    if total == SHOTS {
        Ok(())
    } else {
        Err(format!(
            "evaluation counts sum to {total}, expected {SHOTS}"
        ))
    }
}

fn frontend(session: &QfwSession) -> QfwBackend {
    session
        .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
        .expect("nwqsim/cpu frontend")
        .with_base_seed(BASE_SEED)
}

/// One solve with its evaluation count.
struct Solve {
    wall_s: f64,
    evals: u64,
    outcome: DqaoaOutcome,
}

fn solve(session: &QfwSession, qubo: &Qubo) -> Result<Solve, String> {
    let backend = frontend(session);
    let before = session.total_stats().completed;
    let t = Instant::now();
    let outcome = solve_dqaoa(&backend, qubo, config()).map_err(|e| e.to_string())?;
    let wall_s = t.elapsed().as_secs_f64();
    Ok(Solve {
        wall_s,
        evals: session.total_stats().completed - before,
        outcome,
    })
}

/// Replays `n` evaluations from `threads` threads; returns latencies (µs)
/// and results.
fn replay(
    session: &QfwSession,
    replays: &Replays,
    n: usize,
    threads: usize,
    base: usize,
) -> Vec<Result<(f64, QfwResult), String>> {
    let backend = frontend(session);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let backend = &backend;
                scope.spawn(move || {
                    (0..n / threads)
                        .map(|i| replays.eval(backend, base + t + i * threads))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay thread"))
            .collect()
    })
}

pub fn run(opts: Opts) -> Outcome {
    let qubo = Qubo::metamaterial(VARS, BAND, opts.seed);
    let reference = tabu_search(
        VARS,
        |x| qubo.energy(x),
        TabuConfig {
            seed: opts.seed,
            ..TabuConfig::default()
        },
    )
    .energy;
    let replays = Replays::new(&qubo, opts.seed);
    let mut out = Outcome::default();
    out.note(format!("tabu reference energy {reference:.4}"));

    let (session, setup_s) = stack::timed_setups(
        if opts.trace { 1 } else { SETUPS },
        &mut out,
        |out| {
            let session = QfwSession::launch(
                &ClusterSpec::test(3),
                QfwConfig {
                    qfw_nodes: 2,
                    qrc_workers: SLOTS,
                    ..QfwConfig::default()
                },
            )
            .expect("session launch");
            // Warm-up: compile the replay skeletons' plans.
            for r in replay(&session, &replays, NSUBQ, 1, 0) {
                if let Err(e) = r {
                    out.check_failed(format!("warm-up: {e}"));
                }
            }
            session
        },
        QfwSession::teardown,
    );

    let secs = if opts.trace {
        opts.seconds * 0.5
    } else {
        opts.seconds
    };
    let (mut solves, mut latency_us, mut results) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < secs {
        match solve(&session, &qubo) {
            Ok(s) => solves.push(s),
            Err(e) => {
                out.failed += 1;
                out.check_failed(format!("solve: {e}"));
            }
        }
        for r in replay(
            &session,
            &replays,
            REPLAYS_PER_SOLVE,
            NSUBQ,
            latency_us.len(),
        ) {
            out.attempted += 1;
            match r {
                Ok((us, res)) => {
                    latency_us.push(us);
                    results.push(res);
                }
                Err(e) => {
                    out.failed += 1;
                    out.check_failed(e);
                }
            }
        }
    }
    check_solves(&solves, reference, &mut out);
    out.attempted += solves.iter().map(|s| s.evals).sum::<u64>();

    if solves.is_empty() || latency_us.is_empty() {
        out.check_failed("no solve or evaluation completed");
    } else if opts.trace {
        traced(
            &session,
            &replays,
            &solves,
            &results,
            &latency_us,
            opts,
            &mut out,
        );
    } else {
        let ms: Vec<f64> = latency_us.iter().map(|u| u / 1e3).collect();
        // Replays are collected solve after solve: their order is time order.
        let ordered: Vec<(f64, f64)> = ms.iter().enumerate().map(|(i, &v)| (i as f64, v)).collect();
        let t = stats::tail_by_windows(&ordered, TAIL_WINDOW);
        out.note(format!(
            "latency_tail_ms is the median over windows of {TAIL_WINDOW} evaluations of each \
             window's p{} ({} beyond); {} evaluations",
            t.percentile,
            t.beyond,
            ms.len()
        ));
        // Each solve is a round: its evaluations per second of its wall time.
        let rates: Vec<f64> = solves.iter().map(|s| s.evals as f64 / s.wall_s).collect();
        out.set("setup_s", setup_s);
        out.set("jobs_per_s", stats::median(&rates));
        out.set("latency_p50_ms", stats::median(&ms));
        out.set("latency_tail_ms", t.value);
    }
    session.teardown();
    out
}

/// Prints every solve, flags solves that differ from the first, and
/// checks the solution gap.
fn check_solves(solves: &[Solve], reference: f64, out: &mut Outcome) {
    let tts: Vec<f64> = solves.iter().map(|s| s.wall_s).collect();
    if let Some(first) = solves.first() {
        let key = |s: &Solve| {
            (
                s.outcome.iterations,
                s.evals,
                s.outcome.best_energy.to_bits(),
            )
        };
        let differing = solves.iter().filter(|s| key(s) != key(first)).count();
        for (i, s) in solves.iter().enumerate() {
            out.note(format!(
                "solve {i:>2}: {:.3} s, iterations {}, evals {}, best_energy {:.4}{}",
                s.wall_s,
                s.outcome.iterations,
                s.evals,
                s.outcome.best_energy,
                if key(s) != key(first) {
                    "  <- differs from solve 0"
                } else {
                    ""
                }
            ));
        }
        if differing > 0 {
            out.note(format!(
                "KNOWN DEFECT: {differing} of {} solves differ from solve 0 with identical inputs \
                 (concurrent sub-solves draw sampling seeds from one shared frontend counter)",
                solves.len()
            ));
        }
        let best = solves
            .iter()
            .map(|s| s.outcome.best_energy)
            .fold(f64::INFINITY, f64::min);
        let worst = solves
            .iter()
            .map(|s| s.outcome.best_energy)
            .fold(f64::NEG_INFINITY, f64::max);
        let gap = (worst - reference) / reference.abs();
        out.note(format!(
            "time_to_solution_s {:.6} s (median of {}); solution_gap {gap:.6} ratio \
             (worst solve {worst:.4}, best {best:.4}, reference {reference:.4}, bound {GAP_BOUND})",
            stats::median(&tts),
            solves.len()
        ));
        if gap > GAP_BOUND {
            out.check_failed(format!("solution_gap {gap:.4} above {GAP_BOUND}"));
        }
    }
}

fn traced(
    session: &QfwSession,
    replays: &Replays,
    solves: &[Solve],
    results: &[QfwResult],
    latency_us: &[f64],
    opts: Opts,
    out: &mut Outcome,
) {
    // Solver readings.
    let med = |f: &dyn Fn(&Solve) -> f64| stats::median(&solves.iter().map(f).collect::<Vec<_>>());
    out.set("dqaoa.evals", med(&|s| s.evals as f64));
    out.set("dqaoa.iterations", med(&|s| s.outcome.iterations as f64));
    out.set(
        "dqaoa.eval_ms",
        med(&|s| {
            s.outcome.trace.iter().map(|t| t.duration()).sum::<f64>() * 1e3 / s.evals.max(1) as f64
        }),
    );
    out.set(
        "dqaoa.concurrency",
        med(&|s| qfw_dqaoa::trace::max_concurrency(&s.outcome.trace) as f64),
    );
    // Classical time: wall time minus the evaluation critical path (the
    // slowest sub-solve of each iteration).
    out.set(
        "dqaoa.classical_ms",
        med(&|s| {
            let mut critical = vec![0.0f64; s.outcome.iterations];
            for t in &s.outcome.trace {
                critical[t.iteration] = critical[t.iteration].max(t.duration());
            }
            (s.wall_s - critical.iter().sum::<f64>()) * 1e3
        }),
    );

    // Stack readings over the replayed evaluations.
    let pairs: Vec<(usize, &QfwResult)> = results.iter().map(|r| (0, r)).collect();
    stack::profile_readings(&pairs, &[], out);
    let rpc: Vec<f64> = results
        .iter()
        .zip(latency_us)
        .map(|(r, us)| us - (r.profile.total_secs + r.profile.queue_secs) * 1e6)
        .collect();
    out.set("defw.rpc_us", stats::median(&rpc));

    // One evaluation at a time: an untraced one (for the tracing
    // overhead), then a traced one. The traced evaluation's round trip
    // splits by its own result profile: the QRC's slot wait and adapter
    // time, and inside that the engine's exec and sample time; the
    // serde_json work is replayed on the evaluation's own task and result.
    let backend = frontend(session);
    let spec = BackendSpec::of("nwqsim", "cpu");
    let mut untraced = Vec::new();
    let mut tr = Tracer::default();
    let mut roots = Vec::new();
    let mut bytes = 0usize;
    let t0 = Instant::now();
    let mut j = 0usize;
    while t0.elapsed().as_secs_f64() < opts.seconds * 0.5 {
        match replays.eval(&backend, j + 1) {
            Ok((us, _)) => untraced.push(us),
            Err(e) => out.check_failed(e),
        }
        let (a, p) = (
            &replays.ansatze[j % NSUBQ],
            &replays.params[j % replays.params.len()],
        );
        let (r, root) = tr.root("defw", "QfwBackend::execute_param_sync", j as u64, || {
            backend.execute_param_sync(a, p, SHOTS)
        });
        j += 1;
        roots.push(root);
        let r = match r.map_err(|e| e.to_string()) {
            Ok(r) => r,
            Err(e) => {
                out.check_failed(e);
                continue;
            }
        };
        if let Err(e) = check_counts(&r) {
            out.check_failed(e);
        }
        let task = ExecTask {
            circuit: text::dump_param_bound(a, p),
            shots: SHOTS,
            seed: 0,
            spec: spec.clone(),
        };
        tr.replay(root, "handler", "serde_json", || {
            let req = serde_json::to_vec(&task).expect("encode");
            let _: ExecTask = serde_json::from_slice(&req).expect("decode");
            let reply = serde_json::to_vec(&r).expect("encode");
            let _: QfwResult = serde_json::from_slice(&reply).expect("decode");
            bytes = req.len();
        });
        let prof = &r.profile;
        let qrc = tr.child(
            root,
            "qrc",
            "Qrc::execute",
            "qrc",
            ((prof.queue_secs + prof.total_secs) * 1e9) as u64,
        );
        tr.child(
            qrc,
            "engine",
            "nwqsim sweep plan",
            "adapter",
            ((prof.exec_secs + prof.sample_secs) * 1e9) as u64,
        );
    }
    record_self_times(&tr, out);
    let traced: Vec<f64> = roots.iter().map(|&r| tr.us(r)).collect();
    out.set("trace.overhead_us", mean(&traced) - mean(&untraced));
    out.set("defw.request_bytes", bytes as f64);
    out.spans_json = Some(tr.to_json());

    let payload = text::dump_param_bound(&replays.ansatze[0], &replays.params[0]);
    out.set(
        "circuit.parse_us",
        median_time_us(|| {
            std::hint::black_box(text::parse_param(&payload).is_ok());
        }),
    );
    out.set(
        "circuit.hash_us",
        median_time_us(|| {
            std::hint::black_box(canonical_hash(&payload));
        }),
    );
}
