//! `kernel-mix`: a closed loop of circuit jobs with `backend=auto`,
//! cycling the paper's Table 2 kernels and the brickwork, through
//! `SchedIngress` + `client::submit/wait`.

use crate::report::{Outcome, KERNELS};
use crate::stack::{self, mean, CircuitStack, Kernel, Sent, SHOTS};
use crate::stats::{self, median_time_us, ROUNDS};
use crate::trace::{record_self_times, Tracer};
use crate::Opts;
use qfw::selector::SelectorContext;
use qfw::{BackendSpec, ExecTask, Planner, QfwResult, ResultCache};
use qfw_circuit::{canonical_hash, text};
use qfw_defw::Connection;
use qfw_num::rng::Rng;
use qfw_obs::Obs;
use qfw_sched::ingress::IngressSubmitOutcome;
use qfw_sched::{JobEnvelope, JobStatus};
use std::collections::BTreeMap;
use std::time::Instant;

/// Warm-up passes over every kernel before timing: enough observed runs
/// for the planner's EWMA corrections to settle.
const WARM_ROUNDS: u64 = 3;

/// Jobs per tail window: the tail rule reads p95 in each.
const TAIL_WINDOW: usize = 200;

/// Stack set-ups timed per run; the median is reported.
const SETUPS: usize = 5;

/// Seed streams, so warm-up, load and replays never share a job seed.
const STREAM_WARM: u64 = 1 << 20;
const STREAM_TRACED: u64 = 2 << 20;
const STREAM_UNTRACED: u64 = 3 << 20;
const STREAM_ONE_OFF: u64 = 4 << 20;

/// Regret candidates predicted slower than this multiple of the fastest
/// measured time are not run.
const SKIP_PREDICTED_OVER: f64 = 100.0;

/// A completed job of the closed loop: kernel, scheduler id, result.
type Done = (usize, u64, QfwResult);

fn envelopes(kernels: &[Kernel]) -> Vec<JobEnvelope> {
    kernels
        .iter()
        .enumerate()
        .map(|(i, k)| {
            JobEnvelope::new(format!("tenant-{i}"), &k.circuit, SHOTS)
                .with_spec(BackendSpec::of("auto", ""))
        })
        .collect()
}

/// Runs one job and checks its counts.
fn one_job(
    conn: &Connection,
    kernels: &[Kernel],
    env: &JobEnvelope,
    k: usize,
) -> Result<(u64, QfwResult), String> {
    let (id, r) = stack::submit_wait(conn, env)?;
    stack::check_counts(&kernels[k].check, &r.counts, SHOTS)
        .map_err(|e| format!("{}: {e}", kernels[k].name))?;
    Ok((id, r))
}

fn warm_up(
    s: &CircuitStack,
    kernels: &[Kernel],
    envs: &[JobEnvelope],
    seed: u64,
    out: &mut Outcome,
) {
    let conn = s.ingress.connect();
    for round in 0..WARM_ROUNDS {
        for (k, base) in envs.iter().enumerate() {
            let env =
                base.clone()
                    .with_seed(stack::job_seed(seed, STREAM_WARM, round * 8 + k as u64));
            if let Err(e) = one_job(&conn, kernels, &env, k) {
                out.check_failed(format!("warm-up: {e}"));
            }
        }
    }
}

/// The closed loop: each client submits its next job only after the
/// previous one's counts arrive. Each pass of a client visits every
/// kernel once, in a seeded order of its own: with a fixed order the two
/// closed loops lock in phase, and whether their brickwork jobs overlap
/// would depend on the start.
fn drive(
    kernels: &[Kernel],
    envs: &[JobEnvelope],
    s: &CircuitStack,
    seed: u64,
    secs: f64,
) -> (Vec<Sent<Done>>, f64) {
    stack::closed_loop(s, secs, |conn, c, j| {
        let n = kernels.len() as u64;
        let mut order: Vec<usize> = (0..kernels.len()).collect();
        Rng::seed_from(stack::job_seed(seed, c as u64, j - j % n)).shuffle(&mut order);
        let k = order[(j % n) as usize];
        let env = envs[k]
            .clone()
            .with_seed(stack::job_seed(seed, c as u64, j));
        one_job(conn, kernels, &env, k).map(|(id, r)| (k, id, r))
    })
}

/// Completed jobs of a closed loop.
fn done(sent: &[Sent<Done>]) -> impl Iterator<Item = (&Sent<Done>, &Done)> {
    sent.iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|d| (r, d)))
}

fn per_kernel_latencies(sent: &[Sent<Done>], n: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); n];
    for (r, (k, _, _)) in done(sent) {
        out[*k].push(r.latency_ms);
    }
    out
}

pub fn run(opts: Opts) -> Outcome {
    let kernels = stack::kernel_mix(opts.seed);
    let envs = envelopes(&kernels);
    let mut out = Outcome::default();

    let mut rep = 0;
    let (s, setup_s) = stack::timed_setups(
        if opts.trace { 1 } else { SETUPS },
        &mut out,
        |out| {
            let s = CircuitStack::start(Obs::disabled());
            rep += 1;
            warm_up(&s, &kernels, &envs, opts.seed ^ rep, out);
            s
        },
        CircuitStack::shutdown,
    );

    if opts.trace {
        traced(&s, &kernels, &envs, opts, &mut out);
    } else {
        let (sent, elapsed_s) = drive(&kernels, &envs, &s, opts.seed, opts.seconds);
        stack::record_requests(&sent, &mut out);
        let lat = per_kernel_latencies(&sent, kernels.len());
        if lat.iter().any(Vec::is_empty) {
            out.check_failed("a kernel completed no job in the timed phase");
        } else {
            for (k, l) in lat.iter().enumerate() {
                out.note(format!(
                    "{:<8} jobs {:>4}  p50 {:>9.3} ms",
                    KERNELS[k],
                    l.len(),
                    stats::median(l)
                ));
            }
            // Per round: the geometric mean of per-kernel medians; the
            // median over rounds is reported.
            let samples: Vec<(f64, (usize, f64))> = done(&sent)
                .map(|(r, (k, _, _))| (r.done_s, (*k, r.latency_ms)))
                .collect();
            let rounds: Vec<f64> = stats::by_rounds(&samples, elapsed_s, ROUNDS)
                .iter()
                .filter_map(|round| {
                    let medians: Vec<f64> = (0..kernels.len())
                        .map(|k| {
                            round
                                .iter()
                                .filter(|(kk, _)| *kk == k)
                                .map(|(_, l)| *l)
                                .collect::<Vec<_>>()
                        })
                        .filter(|l| !l.is_empty())
                        .map(|l| stats::median(&l))
                        .collect();
                    (medians.len() == kernels.len()).then(|| stats::geomean(&medians))
                })
                .collect();
            out.set("latency_p50_ms", stats::median(&rounds));
            let samples: Vec<(f64, f64)> =
                done(&sent).map(|(r, _)| (r.done_s, r.latency_ms)).collect();
            let t = stats::tail_by_windows(&samples, TAIL_WINDOW);
            out.note(format!(
                "latency_tail_ms is the median over windows of {TAIL_WINDOW} jobs of each \
                 window's p{} ({} beyond); {} jobs",
                t.percentile,
                t.beyond,
                samples.len()
            ));
            out.set("latency_tail_ms", t.value);
        }
        out.set("setup_s", setup_s);
        let at: Vec<f64> = done(&sent).map(|(r, _)| r.done_s).collect();
        let rates = stats::rates_by_rounds(&at, elapsed_s, ROUNDS);
        out.note(format!("jobs_per_s per round: {rates:.1?}"));
        out.set("jobs_per_s", stats::median(&rates));
        note_picks(&sent, &mut out);
    }
    s.shutdown();
    out
}

/// Prints `planner.picks.*` per kernel: which engine `auto` chose.
/// Returns each kernel's most frequent pick.
fn note_picks(sent: &[Sent<Done>], out: &mut Outcome) -> Vec<String> {
    let mut picks: Vec<BTreeMap<String, usize>> = vec![BTreeMap::new(); KERNELS.len()];
    for (_, (k, _, r)) in done(sent) {
        let engine = r.metadata.get("auto_selected").cloned().unwrap_or_default();
        *picks[*k].entry(engine.replace('/', "-")).or_insert(0) += 1;
    }
    let mut top = Vec::new();
    for (k, p) in picks.iter().enumerate() {
        let list: Vec<String> = p
            .iter()
            .map(|(e, c)| format!("planner.picks.{e}={c}"))
            .collect();
        out.note(format!("{:<8} {}", KERNELS[k], list.join(" ")));
        top.push(
            p.iter()
                .max_by_key(|(_, c)| **c)
                .map(|(e, _)| e.clone())
                .unwrap_or_default(),
        );
    }
    top
}

fn traced(
    s: &CircuitStack,
    kernels: &[Kernel],
    envs: &[JobEnvelope],
    opts: Opts,
    out: &mut Outcome,
) {
    // Phase A: the workload's own load, untraced; the stack's own
    // readings (job timings, result profiles) give the layer numbers.
    let (sent, _) = drive(kernels, envs, s, opts.seed, opts.seconds * 0.5);
    stack::record_requests(&sent, out);
    layer_readings(s, kernels, envs, &sent, out);
    let top_picks = note_picks(&sent, out);

    // Phase B: one job at a time, each kernel's untraced job (for the
    // tracing overhead and the stack overhead) followed by a traced one.
    // The traced job's time splits by its own readings: the scheduler's
    // job timing inside the client's round trip, the QRC's slot wait and
    // adapter time inside that, and the engine's exec and sample time
    // inside that; the handler pieces are replayed on the job's own
    // envelope and result.
    let conn = s.ingress.connect();
    let mut untraced = vec![Vec::new(); kernels.len()];
    let mut tr = Tracer::default();
    let mut roots: Vec<(usize, usize)> = Vec::new();
    let t0 = Instant::now();
    let mut j = 0u64;
    while t0.elapsed().as_secs_f64() < opts.seconds * 0.5 || j < kernels.len() as u64 {
        let k = j as usize % kernels.len();
        let env = envs[k]
            .clone()
            .with_seed(stack::job_seed(opts.seed, STREAM_UNTRACED, j));
        let t = Instant::now();
        match one_job(&conn, kernels, &env, k) {
            Ok(_) => untraced[k].push(t.elapsed().as_secs_f64() * 1e6),
            Err(e) => out.check_failed(e),
        }
        let env = envs[k]
            .clone()
            .with_seed(stack::job_seed(opts.seed, STREAM_TRACED, j));
        let (r, root) = tr.root("defw", "client::submit+wait", j, || {
            one_job(&conn, kernels, &env, k)
        });
        j += 1;
        let (id, r) = match r {
            Ok(done) => done,
            Err(e) => {
                out.check_failed(format!("traced: {e}"));
                continue;
            }
        };
        roots.push((k, root));
        tr.replay(root, "handler", "serde_json", || codec_round_trip(&env, &r));
        tr.replay(root, "handler", "ResultCache::key", || {
            std::hint::black_box(ResultCache::key(
                &env.circuit,
                env.seed,
                env.shots,
                &env.spec,
            ));
        });
        let Some(timing) = s.sched.job_timing(id) else {
            out.check_failed(format!("traced {}: no job timing", kernels[k].name));
            continue;
        };
        let sched = tr.child(
            root,
            "sched",
            "Scheduler::job_timing",
            "scheduler",
            (timing.wait_us() + timing.service_us()) * 1000,
        );
        let p = &r.profile;
        let qrc = tr.child(
            sched,
            "qrc",
            "Qrc::execute",
            "qrc",
            ((p.queue_secs + p.total_secs) * 1e9) as u64,
        );
        tr.child(
            qrc,
            "engine",
            stack::engine_of(&r),
            "adapter",
            ((p.exec_secs + p.sample_secs) * 1e9) as u64,
        );
    }
    record_self_times(&tr, out);

    // Tracing overhead: traced minus untraced job latency, per kernel.
    let mut traced_us = vec![Vec::new(); kernels.len()];
    for &(k, root) in &roots {
        traced_us[k].push(tr.us(root));
    }
    let overhead: Vec<f64> = (0..kernels.len())
        .filter(|&k| !traced_us[k].is_empty() && !untraced[k].is_empty())
        .map(|k| stats::median(&traced_us[k]) - stats::median(&untraced[k]))
        .collect();
    out.set("trace.overhead_us", mean(&overhead));
    out.spans_json = Some(tr.to_json());

    one_off(s, kernels, &untraced, &top_picks, opts, out);
}

fn check(
    kernels: &[Kernel],
    k: usize,
    counts: &BTreeMap<String, usize>,
    at: &str,
    out: &mut Outcome,
) {
    if let Err(e) = stack::check_counts(&kernels[k].check, counts, SHOTS) {
        out.check_failed(format!("{} via {at}: {e}", kernels[k].name));
    }
}

/// The serde_json work one job costs the transport: request encode and
/// decode, submit reply and final poll reply encode and decode.
fn codec_round_trip(env: &JobEnvelope, result: &QfwResult) {
    let req = serde_json::to_vec(env).expect("encode");
    let _: JobEnvelope = serde_json::from_slice(&req).expect("decode");
    let accepted = serde_json::to_vec(&IngressSubmitOutcome::Accepted(1)).expect("encode");
    let _: IngressSubmitOutcome = serde_json::from_slice(&accepted).expect("decode");
    let done = serde_json::to_vec(&JobStatus::Done(result.clone())).expect("encode");
    let _: JobStatus = serde_json::from_slice(&done).expect("decode");
}

/// Layer readings from the stack itself over the load phase.
fn layer_readings(
    s: &CircuitStack,
    kernels: &[Kernel],
    envs: &[JobEnvelope],
    sent: &[Sent<Done>],
    out: &mut Outcome,
) {
    let bytes: Vec<f64> = envs
        .iter()
        .map(|e| serde_json::to_vec(e).expect("encode").len() as f64)
        .collect();
    let job_bytes: Vec<f64> = done(sent).map(|(_, (k, _, _))| bytes[*k]).collect();
    out.set("defw.request_bytes", mean(&job_bytes));
    let ids: Vec<u64> = done(sent).map(|(_, (_, id, _))| *id).collect();
    stack::stack_readings(s, &ids, out);
    let results: Vec<(usize, &QfwResult)> = done(sent).map(|(_, (k, _, r))| (*k, r)).collect();
    stack::profile_readings(&results, kernels, out);
}

/// Once per traced run: per-payload parse/hash/plan cost, the planner's
/// pick regret against every exact single-core candidate, and each
/// kernel run directly on its engine.
fn one_off(
    s: &CircuitStack,
    kernels: &[Kernel],
    untraced_us: &[Vec<f64>],
    top_picks: &[String],
    opts: Opts,
    out: &mut Outcome,
) {
    let (mut parse, mut hash, mut plan, mut fastest) = (Vec::new(), Vec::new(), Vec::new(), 0usize);
    let planner = Planner::default();
    let ctx = SelectorContext {
        free_cores: 1,
        cloud_available: false,
    };
    let mut job = 0u64;
    for (k, kernel) in kernels.iter().enumerate() {
        let payload = text::dump(&kernel.circuit);
        parse.push(median_time_us(|| {
            text::parse(&payload).expect("payload parses");
        }));
        hash.push(median_time_us(|| {
            std::hint::black_box(canonical_hash(&payload));
        }));
        plan.push(median_time_us(|| {
            std::hint::black_box(planner.plan(&kernel.circuit, SHOTS, ctx));
        }));

        // Regret: the `auto` job against each exact candidate, all
        // through Qrc::execute. Multi-rank candidates are left out: on a
        // host with few cores they only measure oversubscription.
        let mut time_spec = |spec: BackendSpec, out: &mut Outcome| -> f64 {
            let mut times = Vec::new();
            while times.len() < 3 {
                job += 1;
                let task = ExecTask {
                    circuit: payload.clone(),
                    shots: SHOTS,
                    seed: stack::job_seed(opts.seed, STREAM_ONE_OFF, job),
                    spec: spec.clone(),
                };
                let t = Instant::now();
                match s.qrc.execute(&task) {
                    Ok(r) => check(kernels, k, &r.counts, "regret candidate", out),
                    Err(e) => out.check_failed(format!("{} on {spec:?}: {e}", kernel.name)),
                }
                times.push(t.elapsed().as_secs_f64() * 1e3);
                if times[0] > 500.0 {
                    break;
                }
            }
            stats::median(&times)
        };
        let auto_ms = time_spec(BackendSpec::of("auto", ""), out);
        let mut best = (auto_ms, "auto".to_string());
        for cand in planner
            .plan(&kernel.circuit, SHOTS, ctx)
            .into_iter()
            .filter(|p| p.tier <= 1)
        {
            let name = format!("{}/{}", cand.rec.spec.backend, cand.rec.spec.subbackend);
            // A candidate predicted to be far slower than what was already
            // measured cannot be the fastest; running it would only cost
            // seconds (a dense 24-qubit state vector) and memory.
            if cand.cost * 1e3 > SKIP_PREDICTED_OVER * best.0 {
                out.note(format!(
                    "{:<8} candidate {name:<28} skipped: predicted {:.1} ms",
                    kernel.name,
                    cand.cost * 1e3
                ));
                continue;
            }
            let ms = time_spec(cand.rec.spec, out);
            out.note(format!(
                "{:<8} candidate {name:<28} {ms:>10.3} ms",
                kernel.name
            ));
            if ms < best.0 {
                best = (ms, name);
            }
        }
        let regret = auto_ms / best.0;
        out.set(format!("planner.pick_regret.{}", kernel.name), regret);
        out.note(format!(
            "{:<8} auto {auto_ms:.3} ms, fastest {} {:.3} ms: pick_regret {regret:.2}",
            kernel.name, best.1, best.0
        ));
        if regret <= 1.1 {
            fastest += 1;
        }

        // Direct engine baseline, single-threaded, no stack.
        let engine = match top_picks[k].as_str() {
            "aer-automatic" if kernel.circuit.gates().all(|g| g.is_clifford()) => "sim-stab",
            "aer-matrix_product_state" => "sim-mps",
            _ => "sim-sv",
        };
        job += 1;
        let seed = stack::job_seed(opts.seed, STREAM_ONE_OFF, job);
        let direct =
            median_time_us(|| stack::run_direct(engine, &kernel.circuit, SHOTS, seed)) / 1e3;
        out.set(format!("engine.direct_ms.{}", kernel.name), direct);
        if !untraced_us[k].is_empty() {
            let job_ms = stats::median(&untraced_us[k]) / 1e3;
            out.set(
                format!("stack.overhead_ms.{}", kernel.name),
                job_ms - direct,
            );
        }
    }
    out.set("circuit.parse_us", mean(&parse));
    out.set("circuit.hash_us", mean(&hash));
    out.set("planner.plan_us", mean(&plan));
    out.set(
        "planner.pick_fastest_frac",
        fastest as f64 / kernels.len() as f64,
    );
    for (k, kernel) in kernels.iter().enumerate() {
        out.note(format!(
            "{:<8} parse {:>9.1} us  hash {:>9.1} us  plan {:>7.1} us",
            kernel.name, parse[k], hash[k], plan[k]
        ));
    }
}
