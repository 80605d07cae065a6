//! `qfw-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kernel-mix|hot-ingress|dqaoa> --seed N --seconds S --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     compare PARENT.jsonl CHILD.jsonl
//! ```
//!
//! A run launches the real stack, drives one workload for `--seconds`,
//! checks every output, and prints one JSON result as its last stdout
//! line. With `--trace 0` the result holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics of a separate traced run.
//! The human-readable report and the run's provenance go to stderr; the
//! provenance and recorded spans are also written under `.bench_out/`.
//! The run exits non-zero when an output check fails.
//!
//! `compare` reads two files of result lines (one run per line) and
//! judges every metric of `BENCHMARK.json` by its bound.

mod dqaoa;
mod hot_ingress;
mod kernel_mix;
mod report;
mod stack;
mod stats;
mod trace;

use report::{Outcome, END_TO_END};
use std::process::{Command, ExitCode};

/// Client threads or connections driving load, in every workload.
pub const CLIENTS: usize = 2;

/// QRC worker slots, in every workload.
pub const SLOTS: usize = 2;

/// Run settings from the command line.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced per-layer run instead of the end-to-end run.
    pub trace: bool,
}

fn arg<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a valid value")),
    }
}

/// First line of a command's stdout, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let workload: String = arg(args, "--workload")?.ok_or("--workload is required")?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = Opts {
        seed: arg(args, "--seed")?.unwrap_or(1),
        seconds: arg::<f64>(args, "--seconds")?.unwrap_or(10.0).max(1.0),
        trace: arg::<u8>(args, "--trace")?.unwrap_or(0) == 1,
    };
    // Engines run on QRC slots and clients drive them; more of either
    // than cores oversubscribes the host and measures the OS scheduler.
    if CLIENTS > cores || SLOTS > cores {
        return Err(format!(
            "the benchmark runs {CLIENTS} client threads and {SLOTS} QRC slots, \
             but the host has {cores} cores"
        ));
    }

    let provenance = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{cores},\
         \"clients\":{CLIENTS},\"slots\":{SLOTS},\"rustc\":\"{}\",\"git_rev\":\"{}\"}}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "HEAD"]),
    );
    eprintln!("[perfbench] provenance {provenance}");

    let outcome: Outcome = match workload.as_str() {
        "kernel-mix" => kernel_mix::run(opts),
        "hot-ingress" => hot_ingress::run(opts),
        "dqaoa" => dqaoa::run(opts),
        other => return Err(format!("unknown workload {other}")),
    };

    for line in &outcome.notes {
        eprintln!("[perfbench] {line}");
    }
    eprintln!(
        "[perfbench] attempted {} failed {} failed_frac {:.6}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for failure in outcome.check_failures.iter().take(20) {
        eprintln!("[perfbench] CHECK FAILED: {failure}");
    }
    if outcome.check_failures.len() > 20 {
        eprintln!(
            "[perfbench] {} failed checks in all",
            outcome.check_failures.len()
        );
    }

    let listed: Vec<(String, &str)> = if opts.trace {
        report::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for (name, unit) in &listed {
        let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
        eprintln!("[perfbench] {workload:<12} {name:<32} {v:>14.6} {unit}");
    }

    let stem = format!(
        ".bench_out/{workload}-seed{}-trace{}",
        opts.seed,
        u8::from(opts.trace)
    );
    let written = std::fs::create_dir_all(".bench_out").and_then(|_| {
        std::fs::write(format!("{stem}.provenance.json"), &provenance)?;
        match &outcome.spans_json {
            Some(spans) => std::fs::write(format!("{stem}.spans.json"), spans),
            None => Ok(()),
        }
    });
    if let Err(e) = written {
        eprintln!("[perfbench] could not write {stem}.*: {e}");
    }

    println!("{}", outcome.result_line(&listed));
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `compare PARENT CHILD`: per-metric medians, spreads and the bound
/// verdict, reading bounds and directions from `BENCHMARK.json`.
fn compare(parent: &str, child: &str) -> Result<ExitCode, String> {
    use serde::Value;
    let load = |path: &str| -> Result<Vec<Value>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .filter(|l| l.starts_with('{'))
            .map(|l| serde_json::from_str(l).map_err(|e| format!("{path}: {e}")))
            .collect()
    };
    let spec: Value = serde_json::from_str(
        &std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?,
    )
    .map_err(|e| e.to_string())?;
    let (parent, child) = (load(parent)?, load(child)?);
    let values = |runs: &[Value], name: &str| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| match r.get("metrics")?.get(name)?.get("value")? {
                Value::Float(f) => Some(*f),
                Value::UInt(u) => Some(*u as f64),
                _ => None,
            })
            .collect()
    };
    let mut all_within = true;
    for key in ["end_to_end", "per_layer"] {
        let Some(Value::Seq(metrics)) = spec.get(key) else {
            continue;
        };
        for m in metrics {
            let (Some(Value::Str(name)), Some(Value::Str(better))) =
                (m.get("name"), m.get("better"))
            else {
                continue;
            };
            let better = stats::Better::parse(better).ok_or("bad `better`")?;
            let (p, c) = (values(&parent, name), values(&child, name));
            if p.len() < 2 || c.len() < 2 {
                continue;
            }
            let worse = stats::worsening(&p, &c, better);
            let verdict = match m.get("bound") {
                Some(Value::Float(bound)) => {
                    let ok = stats::within_bound(&p, &c, better, *bound);
                    all_within &= ok;
                    format!("bound {bound}: {}", if ok { "within" } else { "REGRESSED" })
                }
                _ => "no bound".into(),
            };
            println!(
                "{name:<32} parent {:>12.6} (spread {:.3})  child {:>12.6} (spread {:.3})  \
                 worse by {worse:+.3}  {verdict}",
                stats::median(&p),
                stats::spread_share(&p),
                stats::median(&c),
                stats::spread_share(&c),
            );
        }
    }
    Ok(if all_within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]),
        _ => run(&args),
    };
    result.unwrap_or_else(|reason| {
        eprintln!("[perfbench] error: {reason}");
        ExitCode::from(2)
    })
}
