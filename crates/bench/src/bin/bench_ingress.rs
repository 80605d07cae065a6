//! `bench_ingress` — pipelined ingress + content-addressed cache perf.
//!
//! Drives sustained mixed hot/cold traffic from many concurrent logical
//! clients through the full ingress stack — multiplexed connections →
//! bounded-queue admission → result cache → fair-share scheduler → engine
//! — and measures throughput and per-request latency at each hot ratio.
//! Two host-independent invariants are enforced in-process:
//!
//! 1. **Bitwise identity** — a result served from the cache must equal
//!    the cold execution's counts exactly.
//! 2. **Warm amortization** — the cache-hit submit path must be at least
//!    20x faster than cold submit-to-completion (the hit skips admission,
//!    queueing, and the engine entirely).
//!
//! ```text
//! bench_ingress [--smoke] [--out PATH] [--baseline PATH]
//!               [--min-throughput N] [--min-warm-speedup X]
//! ```
//!
//! * `--smoke` — CI sizes: one hot ratio, fewer jobs, a relaxed
//!   throughput bar (CI hosts are noisy; the full bar is 10k jobs/s).
//! * `--out` — output path (default `BENCH_ingress.json`).
//! * `--baseline` — a previous report; per-ratio throughput ratios are
//!   embedded under `speedups` for trend inspection.

use qfw::registry::BackendRegistry;
use qfw::{BackendSpec, DispatchPolicy, Qrc};
use qfw_bench::util::{arg_after, median, percentile};
use qfw_circuit::Circuit;
use qfw_hpc::slurm::{HetJob, HetJobSpec};
use qfw_hpc::{ClusterSpec, Dvm};
use qfw_obs::Obs;
use qfw_sched::ingress::{client, IngressSubmitOutcome, SchedIngress, SchedIngressConfig};
use qfw_sched::{JobEnvelope, JobStatus, SchedConfig, Scheduler};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const SEED: u64 = 4096;
const T: Duration = Duration::from_secs(60);

fn qrc(workers: usize) -> Arc<Qrc> {
    let cluster = ClusterSpec::test(3);
    let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).expect("hetjob"));
    let dvm = Arc::new(Dvm::new(&cluster));
    Arc::new(Qrc::new(
        BackendRegistry::standard(None),
        hetjob,
        dvm,
        1,
        workers,
        DispatchPolicy::RoundRobin,
    ))
}

fn ghz(n: usize) -> Circuit {
    let mut qc = Circuit::new(n);
    qc.h(0);
    for q in 0..n - 1 {
        qc.cx(q, q + 1);
    }
    qc.measure_all();
    qc
}

/// A dense brickwork circuit: `depth` layers of single-qubit rotations and
/// entangling CX ladders. Heavy enough that a cold execution is engine-bound
/// rather than poll-granularity-bound, so the warm/cold ratio measures the
/// cache, not the client's poll loop.
fn layered(n: usize, depth: usize) -> Circuit {
    let mut qc = Circuit::new(n);
    for layer in 0..depth {
        for q in 0..n {
            qc.h(q);
            qc.rz(q, 0.1 + 0.01 * (layer * n + q) as f64);
        }
        for q in (layer % 2..n - 1).step_by(2) {
            qc.cx(q, q + 1);
        }
    }
    qc.measure_all();
    qc
}

/// One hot-ratio sweep point.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct RatioEntry {
    /// Fraction of traffic aimed at the warmed hot set.
    hot_ratio: f64,
    /// Jobs driven at this ratio.
    jobs: usize,
    /// Wall-clock for the whole drive.
    elapsed_secs: f64,
    /// Typed submit outcomes per second.
    jobs_per_sec: f64,
    /// Median submit round-trip, microseconds.
    p50_us: u64,
    /// 99th-percentile submit round-trip, microseconds.
    p99_us: u64,
    /// Outcomes served from the result cache.
    cached: u64,
    /// Outcomes admitted into the scheduler.
    accepted: u64,
    /// Typed backpressure rejections (scheduler or transport queue full).
    overloaded: u64,
}

/// A throughput ratio against the baseline report.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct SpeedupEntry {
    key: String,
    baseline_jobs_per_sec: f64,
    jobs_per_sec: f64,
    /// `jobs_per_sec / baseline_jobs_per_sec` (>1 is faster).
    speedup: f64,
}

/// The full report written to `BENCH_ingress.json`.
#[derive(Debug, Serialize, Deserialize)]
struct IngressReport {
    suite: String,
    seed: u64,
    qubits: usize,
    shots: usize,
    /// Concurrent logical client connections.
    connections: usize,
    /// Distinct circuits in the warmed hot set.
    hot_set: usize,
    /// Median cold submit-to-completion, seconds.
    cold_secs: f64,
    /// Median warm (cache-hit) submit round-trip, seconds.
    warm_secs: f64,
    /// `cold_secs / warm_secs`.
    warm_speedup: f64,
    /// Whether cached counts equal cold counts exactly.
    bitwise_identical: bool,
    /// The hot/cold traffic sweep.
    ratios: Vec<RatioEntry>,
    /// Ratios against `--baseline`, when given.
    speedups: Vec<SpeedupEntry>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = arg_after(&args, "--out").unwrap_or_else(|| "BENCH_ingress.json".to_string());
    let baseline_path = arg_after(&args, "--baseline");
    let min_throughput: f64 = arg_after(&args, "--min-throughput")
        .map(|s| s.parse().expect("--min-throughput takes a number"))
        .unwrap_or(if smoke { 2_000.0 } else { 10_000.0 });
    let min_warm_speedup: f64 = arg_after(&args, "--min-warm-speedup")
        .map(|s| s.parse().expect("--min-warm-speedup takes a number"))
        .unwrap_or(20.0);

    let (qubits, shots, connections, hot_set, jobs_per_ratio, ratios): (
        usize,
        usize,
        usize,
        usize,
        usize,
        Vec<f64>,
    ) = if smoke {
        (14, 256, 4, 16, 6_000, vec![0.9])
    } else {
        (14, 256, 8, 64, 30_000, vec![0.5, 0.9, 0.99])
    };
    let depth = 24;

    let sched = Scheduler::start(
        qrc(2),
        Obs::disabled(),
        SchedConfig {
            max_queue_depth: 512,
            ..SchedConfig::default()
        },
    );
    let ingress = Arc::new(SchedIngress::start(
        sched.clone(),
        SchedIngressConfig::default(),
        Obs::disabled(),
    ));

    // ---- Hot set: warm the result cache and keep the cold counts. -----
    // Each hot envelope is a distinct (circuit, seed) pair; its first run
    // goes through the scheduler and its first poll of Done populates the
    // cache.
    let circuit = layered(qubits, depth);
    // Cold misses in the sweep use a light circuit so the drain between
    // ratios stays cheap; cache keys differ by seed, so every one misses.
    let miss_circuit = ghz(6);
    let spec = BackendSpec::of("nwqsim", "cpu");
    let hot: Vec<JobEnvelope> = (0..hot_set)
        .map(|i| {
            JobEnvelope::new(format!("tenant-{}", i % 4), &circuit, shots)
                .with_seed(SEED + i as u64)
                .with_spec(spec.clone())
        })
        .collect();
    let conn = ingress.connect();
    let mut cold_times = Vec::new();
    let mut cold_counts: Vec<BTreeMap<String, usize>> = Vec::new();
    for env in &hot {
        let t0 = Instant::now();
        let id = match client::submit(&conn, env, T).expect("warm submit") {
            IngressSubmitOutcome::Accepted(id) => id,
            other => panic!("hot-set warmup expected acceptance, got {other:?}"),
        };
        match client::wait(&conn, id, T).expect("warm wait") {
            JobStatus::Done(r) => {
                cold_times.push(t0.elapsed().as_secs_f64());
                cold_counts.push(r.counts);
            }
            other => panic!("hot-set warmup did not complete: {other:?}"),
        }
    }
    let cold_secs = median(&mut cold_times);

    // ---- Warm path: every hot envelope must now be a cache hit, with --
    // ---- counts bitwise identical to the cold execution.             --
    let mut warm_times = Vec::new();
    let mut bitwise_identical = true;
    for (env, cold) in hot.iter().zip(&cold_counts) {
        let t0 = Instant::now();
        match client::submit(&conn, env, T).expect("warm submit") {
            IngressSubmitOutcome::Cached(r) => {
                warm_times.push(t0.elapsed().as_secs_f64());
                if &r.counts != cold {
                    bitwise_identical = false;
                }
                assert_eq!(r.metadata.get("result_cached").map(String::as_str), Some("true"));
            }
            other => panic!("expected cache hit after warmup, got {other:?}"),
        }
    }
    let warm_secs = median(&mut warm_times);
    let warm_speedup = cold_secs / warm_secs;

    // ---- Hot/cold ratio sweep: sustained mixed traffic. ---------------
    // The sweep measures ingress throughput, not engine latency, so its
    // hot set is a light circuit (the cache hit path is payload-size
    // bound); phase A above already proved the heavy-circuit speedup.
    let sweep_hot: Vec<JobEnvelope> = (0..hot_set)
        .map(|i| {
            JobEnvelope::new(format!("tenant-{}", i % 4), &miss_circuit, shots)
                .with_seed(SEED + 1_000 + i as u64)
                .with_spec(spec.clone())
        })
        .collect();
    for env in &sweep_hot {
        let id = match client::submit(&conn, env, T).expect("sweep warmup submit") {
            IngressSubmitOutcome::Accepted(id) => id,
            other => panic!("sweep warmup expected acceptance, got {other:?}"),
        };
        match client::wait(&conn, id, T).expect("sweep warmup wait") {
            JobStatus::Done(_) => {}
            other => panic!("sweep warmup did not complete: {other:?}"),
        }
    }
    let mut ratio_entries = Vec::new();
    for &hot_ratio in &ratios {
        let hot_per_100 = (hot_ratio * 100.0).round() as usize;
        let cached = Arc::new(AtomicUsize::new(0));
        let accepted = Arc::new(AtomicUsize::new(0));
        let overloaded = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(connections + 1));
        let per_thread = jobs_per_ratio / connections;
        let handles: Vec<_> = (0..connections)
            .map(|t| {
                let conn = ingress.connect();
                let hot = sweep_hot.clone();
                let miss_circuit = miss_circuit.clone();
                let spec = spec.clone();
                let cached = Arc::clone(&cached);
                let accepted = Arc::clone(&accepted);
                let overloaded = Arc::clone(&overloaded);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let tenant = format!("tenant-{}", t % 4);
                    barrier.wait();
                    let mut lat_us = Vec::with_capacity(per_thread);
                    for i in 0..per_thread {
                        // Deterministic interleave: `hot_per_100` of every
                        // 100 jobs go to the warmed set.
                        let env = if i % 100 < hot_per_100 {
                            hot[(t * per_thread + i) % hot.len()].clone()
                        } else {
                            // A fresh (circuit, seed): guaranteed miss.
                            JobEnvelope::new(tenant.clone(), &miss_circuit, 32)
                                .with_seed(0xC0 << 56 | ((t * per_thread + i) as u64))
                                .with_spec(spec.clone())
                        };
                        let t0 = Instant::now();
                        match client::submit(&conn, &env, T).expect("sweep submit") {
                            IngressSubmitOutcome::Cached(_) => {
                                cached.fetch_add(1, Ordering::Relaxed);
                            }
                            IngressSubmitOutcome::Accepted(_) => {
                                accepted.fetch_add(1, Ordering::Relaxed);
                            }
                            IngressSubmitOutcome::Overloaded(_) => {
                                overloaded.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        lat_us.push(t0.elapsed().as_micros() as u64);
                    }
                    lat_us
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let mut lat_us: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep thread"))
            .collect();
        let elapsed_secs = t0.elapsed().as_secs_f64();
        lat_us.sort_unstable();
        let jobs = per_thread * connections;
        ratio_entries.push(RatioEntry {
            hot_ratio,
            jobs,
            elapsed_secs,
            jobs_per_sec: jobs as f64 / elapsed_secs,
            p50_us: percentile(&lat_us, 0.50),
            p99_us: percentile(&lat_us, 0.99),
            cached: cached.load(Ordering::Relaxed) as u64,
            accepted: accepted.load(Ordering::Relaxed) as u64,
            overloaded: overloaded.load(Ordering::Relaxed) as u64,
        });
        // Let the scheduler drain admitted cold jobs between ratios so one
        // sweep's backlog doesn't distort the next one's admissions.
        sched.drain(T);
    }

    let mut report = IngressReport {
        suite: if smoke { "smoke" } else { "full" }.to_string(),
        seed: SEED,
        qubits,
        shots,
        connections,
        hot_set,
        cold_secs,
        warm_secs,
        warm_speedup,
        bitwise_identical,
        ratios: ratio_entries,
        speedups: Vec::new(),
    };

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline: IngressReport =
            serde_json::from_str(&text).expect("baseline parses as an IngressReport");
        for entry in &report.ratios {
            if let Some(base) = baseline
                .ratios
                .iter()
                .find(|b| (b.hot_ratio - entry.hot_ratio).abs() < 1e-9)
            {
                if base.jobs_per_sec > 0.0 {
                    report.speedups.push(SpeedupEntry {
                        key: format!("throughput@{}", entry.hot_ratio),
                        baseline_jobs_per_sec: base.jobs_per_sec,
                        jobs_per_sec: entry.jobs_per_sec,
                        speedup: entry.jobs_per_sec / base.jobs_per_sec,
                    });
                }
            }
        }
    }

    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out_path, json).expect("write report");

    eprintln!(
        "[bench_ingress] cold {:.6}s, warm {:.9}s -> {:.0}x \
         (bitwise_identical={bitwise_identical})",
        report.cold_secs, report.warm_secs, report.warm_speedup
    );
    for r in &report.ratios {
        eprintln!(
            "[bench_ingress] hot={:>4}: {:>6} jobs in {:>7.3}s -> {:>9.0} jobs/s  \
             p50={}us p99={}us  (cached {}, accepted {}, overloaded {})",
            r.hot_ratio, r.jobs, r.elapsed_secs, r.jobs_per_sec, r.p50_us, r.p99_us,
            r.cached, r.accepted, r.overloaded
        );
    }
    for s in &report.speedups {
        eprintln!(
            "  vs baseline {:<18} {:>10.0}/s -> {:>10.0}/s  ({:.2}x)",
            s.key, s.baseline_jobs_per_sec, s.jobs_per_sec, s.speedup
        );
    }
    eprintln!("[bench_ingress] wrote {out_path}");

    let best = report
        .ratios
        .iter()
        .map(|r| r.jobs_per_sec)
        .fold(0.0f64, f64::max);

    ingress.ingress().stats(); // touch, so the transport is exercised end-to-end
    sched.shutdown();

    if !bitwise_identical {
        eprintln!("[bench_ingress] FAIL: cached counts diverged from cold execution");
        std::process::exit(1);
    }
    if report.warm_speedup < min_warm_speedup {
        eprintln!(
            "[bench_ingress] FAIL: warm speedup {:.1}x under the {min_warm_speedup:.0}x bar",
            report.warm_speedup
        );
        std::process::exit(1);
    }
    if best < min_throughput {
        eprintln!(
            "[bench_ingress] FAIL: best throughput {best:.0} jobs/s under the \
             {min_throughput:.0} jobs/s bar"
        );
        std::process::exit(1);
    }
}
