//! `bench_dist` — the distributed state-vector process-scaling sweep.
//!
//! Reproduces the paper's TFIM strong-scaling experiment on simulated
//! ranks (1/2/4/8) and A/B-measures the communication-avoiding lazy
//! permutation router against the per-gate swap-routing baseline, with
//! exchange-count and byte-volume columns from the engine's comm
//! counters. Counts are checked bit-for-bit against the serial engine at
//! the same seed, so the sweep doubles as a determinism audit.
//!
//! ```text
//! bench_dist [--smoke|--short] [--out PATH]
//! ```
//!
//! * `--smoke` (alias `--short`) — CI sizes (TFIM-16 / QAOA-12).
//! * `--out` — output path (default `BENCH_dist.json`).
//!
//! Full mode runs TFIM-24 / QAOA-14 — the acceptance pair for the ≥2×
//! exchange and byte reductions recorded under `reductions`.

use qfw_bench::util::arg_after;
use qfw_circuit::{Circuit, Op};
use qfw_hpc::{Communicator, RankCtx};
use qfw_obs::Obs;
use qfw_sim_sv::dist::{run_distributed_with, DistStats, RouteStrategy};
use qfw_sim_sv::state::{canonical_split_bits, StateVector};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

const SEED: u64 = 7;

/// One cell of the rank sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct DistEntry {
    /// Workload label (`tfim24`, `qaoa14`, ...).
    workload: String,
    /// Register size.
    qubits: usize,
    /// Simulated rank count.
    ranks: usize,
    /// Routing strategy (`swaps` or `lazy`).
    strategy: String,
    /// Wall-clock seconds for the whole distributed run.
    secs: f64,
    /// Exchange operations summed over ranks.
    exchanges: u64,
    /// Point-to-point messages posted by exchanges, summed over ranks.
    messages: u64,
    /// Payload bytes moved by exchanges, summed over ranks.
    bytes: u64,
    /// Whether the counts matched the serial engine bit for bit.
    counts_match: bool,
}

/// Lazy-vs-swaps reduction at one (workload, ranks) point.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct ReductionEntry {
    workload: String,
    ranks: usize,
    /// `swaps.exchanges / lazy.exchanges`.
    exchange_ratio: f64,
    /// `swaps.bytes / lazy.bytes`.
    byte_ratio: f64,
}

/// The full report written to `BENCH_dist.json`.
#[derive(Debug, Serialize, Deserialize)]
struct DistReport {
    /// `full` or `smoke`.
    suite: String,
    seed: u64,
    shots: usize,
    entries: Vec<DistEntry>,
    reductions: Vec<ReductionEntry>,
}

fn run_world<R: Send + 'static>(
    ranks: usize,
    f: impl Fn(RankCtx) -> R + Send + Sync + 'static,
) -> Vec<R> {
    let f = Arc::new(f);
    let handles: Vec<_> = Communicator::test_world(ranks)
        .into_iter()
        .map(|ctx| {
            let f = Arc::clone(&f);
            thread::spawn(move || f(ctx))
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Serial reference counts via the canonical split-sampling scheme the
/// distributed engine replays (terminal measurements defer to sampling).
fn serial_counts(
    circuit: &Circuit,
    shots: usize,
    rank_bits: usize,
) -> BTreeMap<String, usize> {
    let mut sv = StateVector::zero(circuit.num_qubits());
    for op in circuit.ops() {
        if let Op::Gate(g) = op {
            sv.apply(g, true);
        }
    }
    sv.sample_counts_split(
        shots,
        SEED,
        canonical_split_bits(circuit.num_qubits(), rank_bits),
    )
}

fn workloads(smoke: bool) -> Vec<(String, Circuit)> {
    let (tfim_n, qaoa_n) = if smoke { (16, 12) } else { (24, 14) };
    let qubo = qfw_workloads::Qubo::random(qaoa_n, 0.5, SEED);
    let ansatz = qfw_workloads::qaoa_ansatz(&qubo, 2);
    let params: Vec<f64> = (0..ansatz.num_params())
        .map(|k| 0.3 + 0.1 * k as f64)
        .collect();
    vec![
        (format!("tfim{tfim_n}"), qfw_workloads::tfim(tfim_n)),
        (format!("qaoa{qaoa_n}"), ansatz.bind(&params)),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--short");
    let out_path = arg_after(&args, "--out").unwrap_or_else(|| "BENCH_dist.json".to_string());
    let shots = if smoke { 1024 } else { 4096 };

    let mut entries = Vec::new();
    let mut reductions = Vec::new();
    for (label, circuit) in workloads(smoke) {
        let n = circuit.num_qubits();
        let circuit = Arc::new(circuit);
        for ranks in [1usize, 2, 4, 8] {
            let rank_bits = ranks.trailing_zeros() as usize;
            eprintln!("[bench_dist] {label} serial reference at split 2^{rank_bits}");
            let reference = serial_counts(&circuit, shots, rank_bits);
            let mut per_strategy: Vec<(String, DistStats)> = Vec::new();
            for (name, route) in [
                ("swaps", RouteStrategy::Swaps),
                ("lazy", RouteStrategy::Lazy),
            ] {
                eprintln!("[bench_dist] {label} ranks={ranks} route={name}");
                let qc = Arc::clone(&circuit);
                let t0 = Instant::now();
                let results = run_world(ranks, move |mut ctx| {
                    run_distributed_with(&mut ctx, &qc, shots, SEED, route, &Obs::disabled())
                });
                let secs = t0.elapsed().as_secs_f64();
                let (outcome, stats) = results
                    .into_iter()
                    .next()
                    .unwrap()
                    .expect("rank 0 returns the outcome");
                let counts_match = outcome.counts == reference;
                entries.push(DistEntry {
                    workload: label.clone(),
                    qubits: n,
                    ranks,
                    strategy: name.to_string(),
                    secs,
                    exchanges: stats.exchanges,
                    messages: stats.messages,
                    bytes: stats.bytes,
                    counts_match,
                });
                if !counts_match {
                    eprintln!(
                        "[bench_dist] WARNING: {label} ranks={ranks} route={name} \
                         counts diverged from the serial engine"
                    );
                }
                per_strategy.push((name.to_string(), stats));
            }
            let swaps = &per_strategy[0].1;
            let lazy = &per_strategy[1].1;
            if lazy.exchanges > 0 && lazy.bytes > 0 {
                reductions.push(ReductionEntry {
                    workload: label.clone(),
                    ranks,
                    exchange_ratio: swaps.exchanges as f64 / lazy.exchanges as f64,
                    byte_ratio: swaps.bytes as f64 / lazy.bytes as f64,
                });
            }
        }
    }

    let report = DistReport {
        suite: if smoke { "smoke" } else { "full" }.to_string(),
        seed: SEED,
        shots,
        entries,
        reductions,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out_path, json).expect("write report");
    eprintln!("[bench_dist] wrote {out_path}");

    // Digest: the scaling table plus the headline reductions.
    eprintln!(
        "  {:<10} {:>5} {:>6} {:>10} {:>10} {:>14} {:>8} {:>6}",
        "workload", "ranks", "route", "secs", "exchanges", "bytes", "msgs", "ok"
    );
    for e in &report.entries {
        eprintln!(
            "  {:<10} {:>5} {:>6} {:>10.4} {:>10} {:>14} {:>8} {:>6}",
            e.workload, e.ranks, e.strategy, e.secs, e.exchanges, e.bytes, e.messages,
            if e.counts_match { "yes" } else { "NO" }
        );
    }
    for r in &report.reductions {
        let flag = if r.exchange_ratio >= 2.0 && r.byte_ratio >= 2.0 {
            ""
        } else {
            "  (< 2x!)"
        };
        eprintln!(
            "  {} @ {} ranks: {:.2}x fewer exchanges, {:.2}x fewer bytes{}",
            r.workload, r.ranks, r.exchange_ratio, r.byte_ratio, flag
        );
    }
}
