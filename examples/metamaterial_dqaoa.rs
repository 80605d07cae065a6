//! Metamaterial optimization with DQAOA — the paper's flagship application
//! (Section 4.2): decompose a 30-variable layered-stack QUBO, solve the
//! sub-QUBOs concurrently through QFw, aggregate, iterate; then print the
//! Fig. 5-style execution timeline and compare local vs cloud behaviour.
//!
//! The whole run is recorded through `qfw-obs`: every DEFw RPC, QRC slot
//! acquisition, QPM dispatch, engine phase, and sub-QUBO solve lands in
//! one Chrome trace (open it at `chrome://tracing` or
//! <https://ui.perfetto.dev>). The output path comes from `QFW_TRACE`
//! (default `metamaterial_dqaoa.trace.json`).
//!
//! ```text
//! cargo run --release --example metamaterial_dqaoa
//! QFW_TRACE=/tmp/dqaoa.json cargo run --release --example metamaterial_dqaoa
//! ```

use qfw::{QfwConfig, QfwSession};
use qfw_cloud::CloudConfig;
use qfw_dqaoa::trace::{duration_cv, max_concurrency, render_timeline};
use qfw_dqaoa::{solve_dqaoa_traced, DecompPolicy, DqaoaConfig, QaoaConfig};
use qfw_hpc::ClusterSpec;
use qfw_noise::{Channel, NoiseModel, ReadoutError};
use qfw_obs::Obs;
use qfw_optim::{anneal, AnnealConfig};
use qfw_workloads::Qubo;
use std::time::Duration;

fn main() {
    // One observability handle spans the session and the DQAOA driver, so
    // RPC/QRC/engine spans interleave with the sub-solve spans they serve.
    let obs = Obs::wall();
    // A fast cloud model so the example finishes in seconds while keeping
    // the queueing/jitter *shape* of a real provider.
    let mut noise = NoiseModel::empty();
    noise
        .add_1q_all(Channel::depolarizing(0.001 / 4.0))
        .add_2q_all(Channel::depolarizing(0.001))
        .set_readout_all(ReadoutError::symmetric(0.005));
    let cloud = CloudConfig {
        net_latency: Duration::from_millis(5),
        net_jitter: Duration::from_millis(6),
        queue_delay: Duration::from_millis(15),
        queue_jitter: Duration::from_millis(35),
        gate_time: Duration::from_micros(5),
        job_overhead: Duration::from_millis(5),
        noise,
        seed: 0xC10D,
        // Default drifting calibration; the example does not exercise it.
        calibration: None,
    };
    let session = QfwSession::launch(
        &ClusterSpec::test(3),
        QfwConfig {
            qfw_nodes: 2,
            cloud: Some(cloud),
            obs: obs.clone(),
            ..QfwConfig::default()
        },
    )
    .expect("launch");

    // The 30-layer metamaterial stack QUBO (Table 2's DQAOA-30).
    let qubo = Qubo::metamaterial(30, 3, 2025);
    let reference = anneal(30, |x| qubo.energy(x), AnnealConfig::default());
    println!("classical annealing reference energy: {:.4}", reference.energy);

    let config = DqaoaConfig {
        subqsize: 12,
        nsubq: 3,
        policy: DecompPolicy::ImpactFactor,
        qaoa: QaoaConfig {
            layers: 1,
            shots: 512,
            max_evals: 20,
            seed: 9,
            wall_limit_secs: f64::INFINITY,
        },
        max_iterations: 5,
        patience: 2,
        local_refine: true,
        seed: 31,
    };

    for (name, properties) in [
        ("local NWQ-Sim", vec![("backend", "nwqsim"), ("subbackend", "cpu")]),
        ("IonQ cloud", vec![("backend", "ionq"), ("subbackend", "simulator")]),
    ] {
        let backend = session.backend(&properties).expect("backend");
        let out = solve_dqaoa_traced(&backend, &qubo, config, &obs).expect("dqaoa");
        println!("\n=== {name} ===");
        println!(
            "best energy {:.4} ({} iterations, {:.2}s total)",
            out.best_energy, out.iterations, out.wall_secs
        );
        println!(
            "solution quality vs annealer: {:.1}%",
            100.0 * (out.best_energy / reference.energy).clamp(0.0, 1.0)
        );
        println!("energy per iteration: {:?}", out.energy_per_iteration);
        println!("timeline (Fig. 5 style):");
        print!("{}", render_timeline(&out.trace, 48));
        println!(
            "max concurrency {}  duration CV {:.2}",
            max_concurrency(&out.trace),
            duration_cv(&out.trace)
        );
    }

    // Export the unified timeline: both backends' runs, with every DEFw /
    // QRC / QPM / engine span nested in one Chrome trace.
    let path = std::env::var("QFW_TRACE").unwrap_or_else(|_| "metamaterial_dqaoa.trace.json".into());
    std::fs::write(&path, obs.chrome_trace()).expect("write trace");
    println!(
        "\nwrote {} spans / {} instants to {path} (open in chrome://tracing)",
        obs.span_count(),
        obs.event_count()
    );
    println!("metrics snapshot:\n{}", obs.metrics_snapshot());
}
