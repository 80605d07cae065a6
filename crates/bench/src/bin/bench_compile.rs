//! `bench_compile` — QASM3 front end + pass-manager performance.
//!
//! Exports three workload families to OpenQASM 3, parses them back, and
//! drives every O0-O3 pipeline over the resulting DAGs, reporting parse
//! time, compile time, and gate-count reduction per level:
//!
//! * **GHZ-16** — native export; already optimal, so the pipelines must
//!   not touch it (reduction 0, and O-level counts stay bitwise equal).
//! * **TFIM-16** — a 10-step Trotter quench; rotation merging and
//!   diagonal sinking nibble at it.
//! * **QAOA-14** — exported in the *stdgates-lowered* basis, where every
//!   `rzz` arrives as `cx; rz; cx`. O2's template recognizer must
//!   reassemble the interactions: the headline bar is a **>= 20%**
//!   pre-fusion gate-count reduction at O2 (typically ~55%).
//!
//! Semantics are enforced in-process: for every workload and level the
//! compiled circuit replays the uncompiled circuit's fixed-seed counts
//! bit for bit through the state-vector engine.
//!
//! ```text
//! bench_compile [--smoke] [--out PATH] [--baseline PATH]
//!               [--min-qaoa-reduction X]
//! ```

use qfw_bench::util::{arg_after, median};
use qfw_compile::{compile_dag, emit, lower_to_stdgates, parse, DagCircuit, OptLevel};
use qfw_obs::Obs;
use qfw_sim_sv::SvSimulator;
use qfw_workloads::{ghz, qaoa_ansatz, tfim, Qubo};
use serde::{Deserialize, Serialize};
use std::time::Instant;

const SEED: u64 = 0xC091;

/// One (workload, level) measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct CompileEntry {
    workload: String,
    opt: String,
    /// Gates in the parsed DAG before the pipeline.
    gates_before: usize,
    /// Gates after the pipeline.
    gates_after: usize,
    /// `1 - after/before`.
    reduction: f64,
    /// Ops eliminated across all passes.
    eliminated: usize,
    /// Ops rewritten in place across all passes.
    rewritten: usize,
    /// Median pipeline wall-clock, microseconds.
    compile_us: f64,
    /// Median `parse` wall-clock for the workload's QASM3 source,
    /// microseconds (same value on every level row).
    parse_us: f64,
    /// QASM3 source size fed to the parser, bytes.
    source_bytes: usize,
}

/// A compile-time ratio against the baseline report.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct SpeedupEntry {
    key: String,
    baseline_compile_us: f64,
    compile_us: f64,
    /// `baseline / current` (>1 is faster).
    speedup: f64,
}

/// The full report written to `BENCH_compile.json`.
#[derive(Debug, Serialize, Deserialize)]
struct CompileReport {
    suite: String,
    seed: u64,
    shots: usize,
    /// The headline number: O2 gate-count reduction on stdgates-lowered
    /// QAOA-14.
    qaoa14_o2_reduction: f64,
    /// Whether every (workload, level) replayed the uncompiled counts
    /// bitwise.
    bitwise_identical: bool,
    entries: Vec<CompileEntry>,
    speedups: Vec<SpeedupEntry>,
}

/// A workload prepared for the bench: its QASM3 source and the binding
/// that makes it concrete (empty for parameter-free programs).
struct Workload {
    name: &'static str,
    source: String,
    binding: Vec<f64>,
}

fn workloads() -> Vec<Workload> {
    let ghz16 = DagCircuit::from_circuit(&ghz(16));
    let tfim16 = DagCircuit::from_circuit(&tfim(16));
    // QAOA-14 exported through the stdgates lowering: rzz(a,b,t) leaves
    // as cx a,b; rz t b; cx a,b — the exact shape O2's template pass
    // must recover.
    let qubo = Qubo::random(14, 0.5, 7);
    let qaoa14 = lower_to_stdgates(&DagCircuit::from_param(&qaoa_ansatz(&qubo, 1)));
    let names = qfw_compile::default_param_names(qaoa14.num_params());
    vec![
        Workload {
            name: "ghz16",
            source: emit(&ghz16, &[]).expect("ghz emits"),
            binding: vec![],
        },
        Workload {
            name: "tfim16",
            source: emit(&tfim16, &[]).expect("tfim emits"),
            binding: vec![],
        },
        Workload {
            name: "qaoa14-stdgates",
            source: emit(&qaoa14, &names).expect("qaoa emits"),
            binding: vec![0.4, 0.7],
        },
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = arg_after(&args, "--out").unwrap_or_else(|| "BENCH_compile.json".to_string());
    let baseline_path = arg_after(&args, "--baseline");
    let min_qaoa_reduction: f64 = arg_after(&args, "--min-qaoa-reduction")
        .map(|s| s.parse().expect("--min-qaoa-reduction takes a number"))
        .unwrap_or(0.20);

    let (iters, shots) = if smoke { (5, 256) } else { (25, 2000) };
    let obs = Obs::disabled();

    let mut entries = Vec::new();
    let mut bitwise_identical = true;
    let mut qaoa14_o2_reduction = 0.0;

    for w in workloads() {
        // Parse timing (and the DAG every pipeline starts from).
        let mut parse_times = Vec::with_capacity(iters);
        let mut parsed = None;
        for _ in 0..iters {
            let t0 = Instant::now();
            let p = parse(&w.source).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            parse_times.push(t0.elapsed().as_secs_f64() * 1e6);
            parsed = Some(p);
        }
        let parsed = parsed.expect("at least one parse iteration");
        let parse_us = median(&mut parse_times);

        // Uncompiled reference counts at a fixed seed.
        let reference = parsed.dag.bind(&w.binding);
        let want = SvSimulator::plain().run(&reference, shots, SEED);

        for opt in OptLevel::ALL {
            let mut compile_times = Vec::with_capacity(iters);
            let mut result = None;
            for _ in 0..iters {
                let dag = parsed.dag.clone();
                let t0 = Instant::now();
                let r = compile_dag(dag, opt, &obs);
                compile_times.push(t0.elapsed().as_secs_f64() * 1e6);
                result = Some(r);
            }
            let result = result.expect("at least one compile iteration");
            let reduction = result.stats.reduction();
            if w.name == "qaoa14-stdgates" && opt == OptLevel::O2 {
                qaoa14_o2_reduction = reduction;
            }

            let got = SvSimulator::plain().run(&result.dag.bind(&w.binding), shots, SEED);
            if got.counts != want.counts {
                eprintln!("[bench_compile] {} at {opt}: counts diverged", w.name);
                bitwise_identical = false;
            }

            entries.push(CompileEntry {
                workload: w.name.to_string(),
                opt: opt.to_string(),
                gates_before: result.stats.gates_before,
                gates_after: result.stats.gates_after,
                reduction,
                eliminated: result.stats.eliminated,
                rewritten: result.stats.rewritten,
                compile_us: median(&mut compile_times),
                parse_us,
                source_bytes: w.source.len(),
            });
        }
    }

    let mut report = CompileReport {
        suite: if smoke { "smoke" } else { "full" }.to_string(),
        seed: SEED,
        shots,
        qaoa14_o2_reduction,
        bitwise_identical,
        entries,
        speedups: Vec::new(),
    };

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline: CompileReport =
            serde_json::from_str(&text).expect("baseline parses as a CompileReport");
        for entry in &report.entries {
            if let Some(base) = baseline
                .entries
                .iter()
                .find(|b| b.workload == entry.workload && b.opt == entry.opt)
            {
                if base.compile_us > 0.0 && entry.compile_us > 0.0 {
                    report.speedups.push(SpeedupEntry {
                        key: format!("{}@{}", entry.workload, entry.opt),
                        baseline_compile_us: base.compile_us,
                        compile_us: entry.compile_us,
                        speedup: base.compile_us / entry.compile_us,
                    });
                }
            }
        }
    }

    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out_path, json).expect("write report");

    for e in &report.entries {
        eprintln!(
            "[bench_compile] {:<16} {:<3} {:>5} -> {:>5} gates ({:>5.1}% off)  \
             compile {:>8.1}us  parse {:>8.1}us",
            e.workload,
            e.opt,
            e.gates_before,
            e.gates_after,
            100.0 * e.reduction,
            e.compile_us,
            e.parse_us
        );
    }
    for s in &report.speedups {
        eprintln!(
            "  vs baseline {:<22} {:>8.1}us -> {:>8.1}us  ({:.2}x)",
            s.key, s.baseline_compile_us, s.compile_us, s.speedup
        );
    }
    eprintln!(
        "[bench_compile] qaoa14 O2 reduction {:.1}% (bar {:.0}%), wrote {out_path}",
        100.0 * report.qaoa14_o2_reduction,
        100.0 * min_qaoa_reduction
    );

    if !bitwise_identical {
        eprintln!("[bench_compile] FAIL: a compiled circuit diverged from its source");
        std::process::exit(1);
    }
    if report.qaoa14_o2_reduction < min_qaoa_reduction {
        eprintln!(
            "[bench_compile] FAIL: O2 QAOA-14 reduction {:.1}% under the {:.0}% bar",
            100.0 * report.qaoa14_o2_reduction,
            100.0 * min_qaoa_reduction
        );
        std::process::exit(1);
    }
}
