//! `bench_noise` — stochastic-trajectory noisy execution perf trajectory.
//!
//! Runs a noisy QAOA-14 (p=2) workload — the noise model derived from a
//! synthetic per-qubit calibration table, exactly as the cloud path
//! builds it — through the trajectory executor at 1, 4, and 8 workers.
//! Counts must be bitwise identical at every worker count (per-trajectory
//! seeding makes the thread count invisible); the speedup is pure
//! parallelism over independent trajectories.
//!
//! ```text
//! bench_noise [--smoke] [--out PATH] [--baseline PATH] [--min-speedup X]
//! ```
//!
//! * `--smoke` — CI sizes (QAOA-8, 64 trajectories); asserts bitwise
//!   identity only, no speedup bar (CI containers may be single-core).
//! * `--out` — output path (default `results/BENCH_noise.json`).
//! * `--baseline` — a previous report; ratios are embedded under
//!   `speedups` so CI can gate on regressions.
//! * `--min-speedup` — required 8-worker-vs-serial bar (default 3.0
//!   full, none in smoke). The process exits nonzero under the bar.

use qfw_bench::util::{arg_after, median};
use qfw_noise::{Calibration, NoiseModel};
use qfw_obs::Obs;
use qfw_sim_sv::run_trajectories;
use qfw_workloads::{qaoa_ansatz, Qubo};
use serde::{Deserialize, Serialize};
use std::time::Instant;

const SEED: u64 = 2025;

/// One worker-count measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct WorkerPoint {
    /// Trajectory worker threads.
    workers: usize,
    /// Median-of-rounds wall-clock seconds.
    secs: f64,
}

/// A computed ratio against the baseline file.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct SpeedupEntry {
    /// Key the ratio belongs to.
    key: String,
    /// Seconds in the baseline report.
    baseline_secs: f64,
    /// Seconds in this report.
    secs: f64,
    /// `baseline_secs / secs` (>1 is faster than baseline).
    speedup: f64,
}

/// The full report written to `results/BENCH_noise.json`.
#[derive(Debug, Serialize, Deserialize)]
struct NoiseReport {
    /// `full` or `smoke`.
    suite: String,
    /// Seed every stochastic component derives from.
    seed: u64,
    /// Register size.
    qubits: usize,
    /// QAOA depth `p`.
    layers: usize,
    /// Trajectory budget per execution.
    trajectories: usize,
    /// Shots per execution.
    shots: usize,
    /// Canonical wire form of the calibration-derived noise model.
    noise_model: String,
    /// Per-worker-count timings, ascending worker count.
    points: Vec<WorkerPoint>,
    /// Serial over widest-worker wall clock.
    speedup: f64,
    /// Whether every worker count produced bitwise-identical counts.
    bitwise_identical: bool,
    /// Ratios against `--baseline`, when given.
    speedups: Vec<SpeedupEntry>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = arg_after(&args, "--out").unwrap_or_else(|| "results/BENCH_noise.json".to_string());
    let baseline_path = arg_after(&args, "--baseline");
    let min_speedup: Option<f64> = arg_after(&args, "--min-speedup")
        .map(|s| s.parse().expect("--min-speedup takes a number"))
        .or(if smoke { None } else { Some(3.0) });

    let (n, layers, trajectories, shots) = if smoke {
        (8usize, 2usize, 64usize, 512usize)
    } else {
        (14, 2, 256, 4096)
    };
    let worker_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 8] };

    // The workload: a dense QAOA ansatz under a heterogeneous
    // calibration-derived model — depolarizing + thermal relaxation per
    // gate class per qubit, plus per-qubit readout confusion.
    let qubo = Qubo::random(n, 0.5, SEED);
    let template = qaoa_ansatz(&qubo, layers);
    let theta: Vec<f64> = (0..template.num_params())
        .map(|k| 0.2 + 0.1 * k as f64)
        .collect();
    let circuit = template.bind(&theta);
    let cal = Calibration::synthetic(n, SEED);
    let model = NoiseModel::from_calibration(&cal);
    let obs = Obs::disabled();

    let rounds = if smoke { 3 } else { 5 };
    eprintln!(
        "[bench_noise] qaoa{n} p={layers}, {trajectories} trajectories, \
         {shots} shots, workers {worker_counts:?}, median of {rounds}"
    );

    // Warmup burns the startup frequency boost off the first timed round.
    let baseline_counts =
        run_trajectories(&circuit, shots, SEED, &model, trajectories, 1, &obs);

    let mut points = Vec::new();
    let mut bitwise_identical = true;
    for &workers in worker_counts {
        let mut times = Vec::new();
        for _ in 0..rounds {
            let t0 = Instant::now();
            let counts =
                run_trajectories(&circuit, shots, SEED, &model, trajectories, workers, &obs);
            times.push(t0.elapsed().as_secs_f64());
            if counts != baseline_counts {
                bitwise_identical = false;
            }
        }
        let secs = median(&mut times);
        eprintln!("[bench_noise]   {workers} worker(s): {secs:.4}s");
        points.push(WorkerPoint { workers, secs });
    }

    let serial_secs = points.first().expect("at least one point").secs;
    let widest_secs = points.last().expect("at least one point").secs;
    let speedup = serial_secs / widest_secs;

    let mut report = NoiseReport {
        suite: if smoke { "smoke" } else { "full" }.to_string(),
        seed: SEED,
        qubits: n,
        layers,
        trajectories,
        shots,
        noise_model: model.to_text(),
        points: points.clone(),
        speedup,
        bitwise_identical,
        speedups: Vec::new(),
    };

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline: NoiseReport =
            serde_json::from_str(&text).expect("baseline parses as a NoiseReport");
        for point in &points {
            let Some(base) = baseline.points.iter().find(|b| b.workers == point.workers)
            else {
                continue;
            };
            if base.secs > 0.0 && point.secs > 0.0 {
                report.speedups.push(SpeedupEntry {
                    key: format!("workers_{}", point.workers),
                    baseline_secs: base.secs,
                    secs: point.secs,
                    speedup: base.secs / point.secs,
                });
            }
        }
    }

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out_path, json).expect("write report");
    eprintln!(
        "[bench_noise] serial {serial_secs:.4}s -> {} workers {widest_secs:.4}s = \
         {speedup:.2}x (bitwise_identical={bitwise_identical})",
        points.last().expect("non-empty").workers
    );
    for s in &report.speedups {
        eprintln!(
            "  vs baseline {:<12} {:>10.6}s -> {:>10.6}s  ({:.2}x)",
            s.key, s.baseline_secs, s.secs, s.speedup
        );
    }
    eprintln!("[bench_noise] wrote {out_path}");

    if !bitwise_identical {
        eprintln!("[bench_noise] FAIL: counts diverged across worker counts");
        std::process::exit(1);
    }
    if let Some(bar) = min_speedup {
        if speedup < bar {
            eprintln!("[bench_noise] FAIL: speedup {speedup:.2}x under the {bar:.2}x bar");
            std::process::exit(1);
        }
    }
}
