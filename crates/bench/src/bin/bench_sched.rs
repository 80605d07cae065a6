//! `bench_sched` — scheduler throughput and tail-latency under load.
//!
//! Drives a closed-loop synthetic load through [`qfw_sched::Scheduler`]
//! at three offered-load levels (outstanding jobs ≈ 0.5×, 2×, and 8× the
//! worker pool) and writes throughput, wait-time percentiles, and
//! batching efficiency to JSON (`BENCH_sched.json` by default).
//!
//! ```text
//! bench_sched [--short] [--out PATH]
//! ```
//!
//! * `--short` — CI smoke sizes (fewer jobs per level).
//! * `--out` — output path (default `BENCH_sched.json`).
//!
//! Absolute numbers are machine-dependent; the interesting shapes are the
//! wait-time growth across load levels and the jobs-per-invocation ratio
//! once batching engages.

use qfw::registry::BackendRegistry;
use qfw::{BackendSpec, DispatchPolicy, Qrc};
use qfw_bench::util::{arg_after, percentile};
use qfw_hpc::slurm::{HetJob, HetJobSpec};
use qfw_hpc::{ClusterSpec, Dvm};
use qfw_obs::Obs;
use qfw_sched::{JobEnvelope, JobStatus, SchedConfig, Scheduler};
use qfw_workloads::ghz;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 4;

/// One offered-load cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct LevelEntry {
    /// Outstanding jobs maintained by the closed loop.
    outstanding: usize,
    /// Jobs completed in the cell.
    jobs: u64,
    /// Cell wall-clock, seconds.
    elapsed_secs: f64,
    /// Completed jobs per second.
    throughput_jps: f64,
    /// Median queue wait, µs.
    wait_us_p50: u64,
    /// 99th-percentile queue wait, µs.
    wait_us_p99: u64,
    /// Median service time, µs.
    service_us_p50: u64,
    /// Multi-job engine invocations in the cell.
    batches: u64,
    /// Engine invocations in the cell.
    invocations: u64,
    /// Jobs per engine invocation (batching efficiency; 1.0 = none).
    jobs_per_invocation: f64,
}

/// The report written to `--out`.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Report {
    /// Producing tool.
    tool: String,
    /// `short` or `full`.
    mode: String,
    /// Worker slots in the QRC pool.
    workers: usize,
    /// Per-level measurements.
    levels: Vec<LevelEntry>,
}

fn qrc() -> Arc<Qrc> {
    let cluster = ClusterSpec::test(3);
    let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
    let dvm = Arc::new(Dvm::new(&cluster));
    Arc::new(Qrc::new(
        BackendRegistry::standard(None),
        hetjob,
        dvm,
        1,
        WORKERS,
        DispatchPolicy::RoundRobin,
    ))
}

/// Runs one closed-loop cell: keep `outstanding` jobs in flight until
/// `total` complete.
fn run_level(outstanding: usize, total: u64) -> LevelEntry {
    let qrc = qrc();
    let sched = Scheduler::start(
        Arc::clone(&qrc),
        Obs::disabled(),
        SchedConfig {
            max_queue_depth: outstanding * 2 + 16,
            default_quota: outstanding * 2 + 16,
            max_batch: 8,
            ..SchedConfig::default()
        },
    );
    let spec = BackendSpec::of("nwqsim", "cpu");
    let circuit = ghz(10);
    let start = Instant::now();
    let mut inflight: VecDeque<u64> = VecDeque::new();
    let mut submitted = 0u64;
    let mut waits = Vec::with_capacity(total as usize);
    let mut services = Vec::with_capacity(total as usize);
    let mut completed = 0u64;
    while completed < total {
        while submitted < total && inflight.len() < outstanding {
            let env = JobEnvelope::new("load", &circuit, 128)
                .with_spec(spec.clone())
                .with_seed(submitted);
            match sched.submit(env) {
                Ok(id) => {
                    inflight.push_back(id);
                    submitted += 1;
                }
                Err(e) => panic!("closed loop overloaded its own queue: {e}"),
            }
        }
        let id = inflight.pop_front().expect("loop keeps jobs in flight");
        match sched.wait(id, Duration::from_secs(120)) {
            JobStatus::Done(_) => {
                completed += 1;
                let t = sched.job_timing(id).expect("completed job has timing");
                waits.push(t.wait_us());
                services.push(t.service_us());
            }
            other => panic!("job {id} ended as {other:?}"),
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = sched.stats();
    sched.shutdown();
    waits.sort_unstable();
    services.sort_unstable();
    let invocations = qrc.engine_invocations();
    LevelEntry {
        outstanding,
        jobs: completed,
        elapsed_secs: elapsed,
        throughput_jps: completed as f64 / elapsed.max(1e-9),
        wait_us_p50: percentile(&waits, 0.50),
        wait_us_p99: percentile(&waits, 0.99),
        service_us_p50: percentile(&services, 0.50),
        batches: stats.batches,
        invocations,
        jobs_per_invocation: completed as f64 / invocations.max(1) as f64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let short = args.iter().any(|a| a == "--short");
    let out = arg_after(&args, "--out").unwrap_or_else(|| "BENCH_sched.json".to_string());
    let total: u64 = if short { 64 } else { 400 };
    // ~0.5×, 2×, and 8× the pool.
    let levels: Vec<usize> = vec![2, 8, 32];

    let mut report = Report {
        tool: "bench_sched".into(),
        mode: if short { "short" } else { "full" }.into(),
        workers: WORKERS,
        levels: Vec::new(),
    };
    for outstanding in levels {
        let entry = run_level(outstanding, total);
        eprintln!(
            "outstanding={:>3}  {:>7.1} jobs/s  wait p50={:>7}us p99={:>7}us  {:.2} jobs/invocation",
            entry.outstanding,
            entry.throughput_jps,
            entry.wait_us_p50,
            entry.wait_us_p99,
            entry.jobs_per_invocation,
        );
        report.levels.push(entry);
    }
    let json = serde_json::to_string(&report).expect("serialize report");
    std::fs::write(&out, json).expect("write report");
    eprintln!("wrote {out}");
}
