//! `bench_sweep` — compile-once/bind-many sweep engine perf trajectory.
//!
//! Runs a 32-point parameter sweep of a dense QAOA-14 (p=2) ansatz
//! through the full local session stack twice: once as 32 independent
//! per-binding submissions (the pre-sweep path: each point binds the
//! template and pays a scratch fuse-compile), and once as a single
//! `execute_sweep` (one compiled plan, 32 bindings). Counts must be
//! bitwise identical between the two paths — the speedup is pure
//! amortization, not a different computation.
//!
//! ```text
//! bench_sweep [--smoke] [--out PATH] [--baseline PATH] [--min-speedup X]
//! ```
//!
//! * `--smoke` — CI sizes (QAOA-8, 8 points) with a relaxed 1.5x bar.
//! * `--out` — output path (default `BENCH_sweep.json`).
//! * `--baseline` — a previous report; ratios are embedded under
//!   `speedups` so CI can gate on regressions.
//! * `--min-speedup` — override the required sweep-vs-per-binding bar
//!   (default 5.0 full / 1.5 smoke). The process exits nonzero when the
//!   measured speedup lands under the bar.

use qfw::{BackendSpec, QfwSession};
use qfw_bench::util::{arg_after, median};
use qfw_workloads::{qaoa_ansatz, Qubo};
use serde::{Deserialize, Serialize};
use std::time::Instant;

const SEED: u64 = 2025;

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

/// The full report written to `BENCH_sweep.json`.
#[derive(Debug, Serialize, Deserialize)]
struct SweepReport {
    /// `full` or `smoke`.
    suite: String,
    /// Seed every stochastic component derives from.
    seed: u64,
    /// Ansatz register size.
    qubits: usize,
    /// QAOA depth `p`.
    layers: usize,
    /// Sweep points.
    points: usize,
    /// Shots per point.
    shots: usize,
    /// Median-of-rounds wall-clock for the per-binding loop.
    per_binding_secs: f64,
    /// Median-of-rounds wall-clock for the single `execute_sweep`.
    sweep_secs: f64,
    /// `per_binding_secs / sweep_secs`.
    speedup: f64,
    /// Whether the two paths returned bitwise-identical counts.
    bitwise_identical: bool,
    /// Ratios against `--baseline`, when given.
    speedups: Vec<SpeedupEntry>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = arg_after(&args, "--out").unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let baseline_path = arg_after(&args, "--baseline");
    let min_speedup: f64 = arg_after(&args, "--min-speedup")
        .map(|s| s.parse().expect("--min-speedup takes a number"))
        .unwrap_or(if smoke { 1.5 } else { 5.0 });

    let (n, points, layers, shots) = if smoke { (8, 8, 2, 128) } else { (14, 32, 2, 128) };
    let qubo = Qubo::random(n, 0.5, SEED);
    let template = qaoa_ansatz(&qubo, layers);
    let bindings: Vec<Vec<f64>> = (0..points)
        .map(|i| {
            (0..template.num_params())
                .map(|k| 0.15 + 0.05 * i as f64 + 0.1 * k as f64)
                .collect()
        })
        .collect();

    let session = QfwSession::launch_local(2).expect("session");
    let spec = BackendSpec::of("nwqsim", "cpu");

    // Median-of-N for both paths, rounds interleaved so slow phases of a
    // noisy machine hit both paths alike, after an untimed warmup that
    // burns off any startup frequency boost (otherwise the path that
    // runs first banks the boost and the ratio wobbles run to run). The
    // sweep side gets more rounds: each costs ~1/5 of a per-binding
    // round, and its single-submission timing is noisier than the
    // 32-execution loop, which self-averages.
    let (pb_rounds, sweep_rounds) = (3, 7);
    eprintln!(
        "[bench_sweep] interleaved rounds ({points} points; \
         per-binding x{pb_rounds}, sweep x{sweep_rounds})"
    );
    let mut pb_times = Vec::new();
    let mut sweep_times = Vec::new();
    let mut solo_counts = Vec::new();
    let mut sweep_counts = Vec::new();
    {
        // Warmup: one throwaway per-binding round plus sweeps.
        let backend = session
            .backend_with_spec(spec.clone())
            .expect("backend")
            .with_base_seed(SEED);
        for b in &bindings {
            backend
                .execute_sync(&template.bind(b), shots)
                .expect("warmup execute");
        }
        backend
            .execute_sweep_sync(&template, &bindings, shots)
            .expect("warmup sweep");
    }
    for round in 0..sweep_rounds {
        if round < pb_rounds {
            // Per-binding baseline: each point binds the template locally
            // and submits the concrete circuit — a scratch fuse-compile
            // per point, exactly what a sweep looked like before the plan
            // existed.
            let backend = session
                .backend_with_spec(spec.clone())
                .expect("backend")
                .with_base_seed(SEED);
            let t0 = Instant::now();
            let counts: Vec<_> = bindings
                .iter()
                .map(|b| {
                    backend
                        .execute_sync(&template.bind(b), shots)
                        .expect("per-binding execute")
                        .counts
                })
                .collect();
            pb_times.push(t0.elapsed().as_secs_f64());
            solo_counts = counts;
        }

        // Sweep path: one submission, one compiled plan, all bindings.
        let backend = session
            .backend_with_spec(spec.clone())
            .expect("backend")
            .with_base_seed(SEED);
        let t0 = Instant::now();
        let results = backend
            .execute_sweep_sync(&template, &bindings, shots)
            .expect("execute_sweep");
        sweep_times.push(t0.elapsed().as_secs_f64());
        sweep_counts = results.into_iter().map(|r| r.counts).collect();
    }
    let per_binding_secs = median(&mut pb_times);
    let sweep_secs = median(&mut sweep_times);

    let bitwise_identical = solo_counts == sweep_counts;
    let speedup = per_binding_secs / sweep_secs;
    let mut report = SweepReport {
        suite: if smoke { "smoke" } else { "full" }.to_string(),
        seed: SEED,
        qubits: n,
        layers,
        points,
        shots,
        per_binding_secs,
        sweep_secs,
        speedup,
        bitwise_identical,
        speedups: Vec::new(),
    };

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline: SweepReport =
            serde_json::from_str(&text).expect("baseline parses as a SweepReport");
        for (key, base_secs, secs) in [
            ("per_binding", baseline.per_binding_secs, per_binding_secs),
            ("sweep", baseline.sweep_secs, sweep_secs),
        ] {
            if base_secs > 0.0 && secs > 0.0 {
                report.speedups.push(SpeedupEntry {
                    key: key.to_string(),
                    baseline_secs: base_secs,
                    secs,
                    speedup: base_secs / secs,
                });
            }
        }
    }

    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out_path, json).expect("write report");
    eprintln!(
        "[bench_sweep] {points}x qaoa{n} p={layers}: per-binding {:.4}s, \
         sweep {:.4}s -> {:.2}x (bitwise_identical={bitwise_identical})",
        per_binding_secs, sweep_secs, speedup
    );
    for s in &report.speedups {
        eprintln!(
            "  vs baseline {:<12} {:>10.6}s -> {:>10.6}s  ({:.2}x)",
            s.key, s.baseline_secs, s.secs, s.speedup
        );
    }
    eprintln!("[bench_sweep] wrote {out_path}");

    if !bitwise_identical {
        eprintln!("[bench_sweep] FAIL: sweep counts diverged from per-binding counts");
        std::process::exit(1);
    }
    if speedup < min_speedup {
        eprintln!("[bench_sweep] FAIL: speedup {speedup:.2}x under the {min_speedup:.2}x bar");
        std::process::exit(1);
    }
}
