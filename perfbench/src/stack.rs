//! The stack under test and the inputs shared by the circuit workloads:
//! stack construction (the same pool `bench_ingress` builds), the
//! circuit kernels, their output checks, and direct engine calls.

use crate::report::Outcome;
use crate::{stats, CLIENTS, SLOTS};
use qfw::registry::BackendRegistry;
use qfw::{DispatchPolicy, QfwResult, Qrc};
use qfw_circuit::Circuit;
use qfw_defw::Connection;
use qfw_hpc::slurm::{HetJob, HetJobSpec};
use qfw_hpc::{ClusterSpec, Dvm};
use qfw_obs::Obs;
use qfw_sched::ingress::{client, IngressSubmitOutcome, SchedIngress, SchedIngressConfig};
use qfw_sched::{JobEnvelope, JobStatus, SchedConfig, Scheduler};
use qfw_sim_mps::{MpsConfig, MpsSimulator};
use qfw_sim_stab::StabSimulator;
use qfw_sim_sv::{fusion, FusionLevel, SvConfig, SvSimulator};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shots per circuit job.
pub const SHOTS: usize = 1024;

/// Timeout for any single stack call; a reply slower than this is a
/// failure, never a hang.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(60);

/// A QRC pool of [`SLOTS`] slots over a small simulated cluster, as
/// `bench_ingress` builds it.
pub fn qrc() -> Arc<Qrc> {
    let cluster = ClusterSpec::test(3);
    let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).expect("hetjob"));
    let dvm = Arc::new(Dvm::new(&cluster));
    Arc::new(Qrc::new(
        BackendRegistry::standard(None),
        hetjob,
        dvm,
        1,
        SLOTS,
        DispatchPolicy::RoundRobin,
    ))
}

/// The circuit front door: QRC pool → scheduler → scheduler ingress.
pub struct CircuitStack {
    pub qrc: Arc<Qrc>,
    pub sched: Scheduler,
    pub ingress: SchedIngress,
    /// The ingress's observability handle: enabled, its `ingress.*_us`
    /// histograms time every request the ingress handles.
    pub obs: Obs,
}

impl CircuitStack {
    /// `Scheduler::start` + `SchedIngress::start` over a fresh pool, with
    /// `obs` on the ingress.
    pub fn start(obs: Obs) -> CircuitStack {
        let qrc = qrc();
        let sched = Scheduler::start(
            Arc::clone(&qrc),
            Obs::disabled(),
            SchedConfig {
                max_queue_depth: 512,
                ..SchedConfig::default()
            },
        );
        let ingress =
            SchedIngress::start(sched.clone(), SchedIngressConfig::default(), obs.clone());
        CircuitStack {
            qrc,
            sched,
            ingress,
            obs,
        }
    }

    /// Stops the transport, then the scheduler.
    pub fn shutdown(self) {
        self.ingress.shutdown();
        self.sched.shutdown();
    }
}

/// One request of a closed loop.
pub struct Sent<T> {
    /// Send offset from the phase start, s.
    pub sent_s: f64,
    /// Reply offset from the phase start, s.
    pub done_s: f64,
    /// Round trip, ms.
    pub latency_ms: f64,
    /// The request's checked outcome, or why it failed.
    pub outcome: Result<T, String>,
}

/// A closed loop of [`CLIENTS`] clients, each on its own ingress
/// connection, for `secs`: client `c` sends its `j`-th request,
/// `request(conn, c, j)`, only once the previous one has returned.
/// Returns every request and the phase length in s.
pub fn closed_loop<T: Send>(
    s: &CircuitStack,
    secs: f64,
    request: impl Fn(&Connection, usize, u64) -> Result<T, String> + Sync,
) -> (Vec<Sent<T>>, f64) {
    let start = Instant::now();
    let request = &request;
    let sent = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let conn = s.ingress.connect();
                    let mut sent = Vec::new();
                    let mut j = 0u64;
                    while start.elapsed().as_secs_f64() < secs {
                        let t0 = Instant::now();
                        let outcome = request(&conn, c, j);
                        let t1 = Instant::now();
                        j += 1;
                        sent.push(Sent {
                            sent_s: (t0 - start).as_secs_f64(),
                            done_s: (t1 - start).as_secs_f64(),
                            latency_ms: (t1 - t0).as_secs_f64() * 1e3,
                            outcome,
                        });
                    }
                    sent
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    (sent, start.elapsed().as_secs_f64())
}

/// Counts a closed loop's requests as attempted, and its failures as
/// failed requests and failed checks.
pub fn record_requests<T>(sent: &[Sent<T>], out: &mut Outcome) {
    out.attempted += sent.len() as u64;
    for e in sent.iter().filter_map(|r| r.outcome.as_ref().err()) {
        out.failed += 1;
        out.check_failed(e.clone());
    }
}

/// Readings the circuit stack keeps itself: transport and scheduler
/// refusals, result-cache hits, jobs per engine invocation, and the wait
/// and service times `Scheduler::job_timing` holds for the jobs `ids`.
pub fn stack_readings(s: &CircuitStack, ids: &[u64], out: &mut Outcome) {
    let ing = s.ingress.ingress().stats();
    out.set(
        "defw.refused_frac",
        ing.rejected as f64 / (ing.accepted + ing.rejected).max(1) as f64,
    );
    let cache = s.ingress.cache_stats();
    out.set(
        "sched.cache_hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    let st = s.sched.stats();
    out.set(
        "sched.refused_frac",
        st.rejected as f64 / st.submitted.max(1) as f64,
    );
    out.set(
        "sched.jobs_per_invocation",
        st.dispatched as f64 / s.qrc.engine_invocations().max(1) as f64,
    );
    let timings: Vec<_> = ids
        .iter()
        .filter_map(|&id| s.sched.job_timing(id))
        .collect();
    if !timings.is_empty() {
        let wait: Vec<f64> = timings.iter().map(|t| t.wait_us() as f64).collect();
        let service: Vec<f64> = timings.iter().map(|t| t.service_us() as f64).collect();
        let t = stats::tail(&wait);
        out.set("sched.wait_us.p50", stats::median(&wait));
        out.set("sched.wait_us.tail", t.value);
        out.note(format!(
            "sched.wait_us.tail is p{} over {} jobs",
            t.percentile, t.samples
        ));
        out.set("sched.service_us", stats::median(&service));
    }
}

/// Brickwork of `depth` layers of H + RZ on every qubit and a CX ladder
/// on alternating pairs (the `bench_ingress` circuit), with RZ angles
/// offset by the workload seed.
pub fn brickwork(n: usize, depth: usize, seed: u64) -> Circuit {
    let offset = (seed % 1000) as f64 * 1e-3;
    let mut qc = Circuit::new(n);
    for layer in 0..depth {
        for q in 0..n {
            qc.h(q);
            qc.rz(q, 0.1 + offset + 0.01 * (layer * n + q) as f64);
        }
        for q in (layer % 2..n - 1).step_by(2) {
            qc.cx(q, q + 1);
        }
    }
    qc.measure_all();
    qc
}

/// Qubits whose marginal the distribution checks compare.
pub const CHECK_QUBITS: usize = 4;

/// How a kernel's counts are checked.
pub enum Check {
    /// Total-variation distance of the whole distribution against these
    /// exact outcome probabilities (GHZ: two outcomes).
    Full(BTreeMap<String, f64>),
    /// TV distance of the marginal on qubits `0..CHECK_QUBITS` against
    /// the exact marginal.
    Marginal(Vec<f64>),
    /// HHL: post-select the ancilla (top bit) on 1 and compare the
    /// system register's distribution with `|x_i|^2` of the classical
    /// solution.
    HhlPost {
        system_qubits: usize,
        probs: Vec<f64>,
    },
}

/// Largest TV distance a job's counts may sit from the reference. At
/// 1024 shots the sampling error of a 16-outcome marginal is below 0.05
/// in expectation, and HHL keeps a few hundred post-selected shots.
pub fn tv_limit(check: &Check) -> f64 {
    match check {
        Check::Full(_) | Check::Marginal(_) => 0.15,
        Check::HhlPost { .. } => 0.25,
    }
}

/// One circuit kernel of the mix.
pub struct Kernel {
    pub name: &'static str,
    pub circuit: Circuit,
    pub check: Check,
}

/// Exact probabilities of the low `k` qubits of a circuit's final state.
fn exact_marginal(circuit: &Circuit, k: usize) -> Vec<f64> {
    let sv = SvSimulator::plain().statevector(circuit);
    let mask = (1usize << k) - 1;
    let mut out = vec![0.0; 1 << k];
    for (i, a) in sv.amps().iter().enumerate() {
        out[i & mask] += a.norm_sqr();
    }
    out
}

/// The paper's Table 2 kernels plus the brickwork, with references
/// computed before any timing.
pub fn kernel_mix(seed: u64) -> Vec<Kernel> {
    let ghz = qfw_workloads::ghz(24);
    let mut ghz_probs = BTreeMap::new();
    ghz_probs.insert("0".repeat(24), 0.5);
    ghz_probs.insert("1".repeat(24), 0.5);

    // TFIM: every step is one layer of commuting nearest-neighbour RZZ and
    // one layer of RX, so after 10 steps the low 4 qubits' backward light
    // cone ends at qubit 13. The 16-qubit instance holds that whole cone
    // with the same gates, so its exact low-qubit marginal is the 24-qubit
    // one.
    let tfim = qfw_workloads::tfim(24);
    let tfim_ref = exact_marginal(&qfw_workloads::tfim(16), CHECK_QUBITS);

    let ham = qfw_workloads::ham(18);
    let ham_ref = exact_marginal(&ham, CHECK_QUBITS);

    let (hhl, inst) = qfw_workloads::hhl_benchmark(9);
    let x = inst.classical_solution();
    let hhl_probs: Vec<f64> = x.iter().map(|a| a.norm_sqr()).collect();

    let brick = brickwork(16, 24, seed);
    let brick_ref = exact_marginal(&brick, CHECK_QUBITS);

    vec![
        Kernel {
            name: "ghz24",
            circuit: ghz,
            check: Check::Full(ghz_probs),
        },
        Kernel {
            name: "tfim24",
            circuit: tfim,
            check: Check::Marginal(tfim_ref),
        },
        Kernel {
            name: "ham18",
            circuit: ham,
            check: Check::Marginal(ham_ref),
        },
        Kernel {
            name: "hhl9",
            circuit: hhl,
            check: Check::HhlPost {
                system_qubits: inst.system_qubits(),
                probs: hhl_probs,
            },
        },
        Kernel {
            name: "brick16",
            circuit: brick,
            check: Check::Marginal(brick_ref),
        },
    ]
}

/// Total-variation distance between two distributions over `0..len`.
fn tv(p: &[f64], q: &[f64]) -> f64 {
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

/// Checks one job's counts: they must sum to `shots` and sit within
/// [`tv_limit`] of the reference. Returns the failure reason, if any.
pub fn check_counts(
    check: &Check,
    counts: &BTreeMap<String, usize>,
    shots: usize,
) -> Result<f64, String> {
    let total: usize = counts.values().sum();
    if total != shots {
        return Err(format!("counts sum to {total}, expected {shots}"));
    }
    let low_bits = |bits: &str, k: usize| {
        let tail = &bits[bits.len() - k..];
        usize::from_str_radix(tail, 2).expect("bitstrings are binary")
    };
    let dist = match check {
        Check::Full(probs) => {
            let mut d = 0.0;
            for (bits, p) in probs {
                let got = counts.get(bits).copied().unwrap_or(0) as f64 / shots as f64;
                d += (got - p).abs();
            }
            let outside: usize = counts
                .iter()
                .filter(|(b, _)| !probs.contains_key(*b))
                .map(|(_, c)| c)
                .sum();
            0.5 * (d + outside as f64 / shots as f64)
        }
        Check::Marginal(reference) => {
            let mut got = vec![0.0; reference.len()];
            for (bits, c) in counts {
                got[low_bits(bits, CHECK_QUBITS)] += *c as f64 / shots as f64;
            }
            tv(&got, reference)
        }
        Check::HhlPost {
            system_qubits,
            probs,
        } => {
            let mut got = vec![0.0; probs.len()];
            let mut kept = 0usize;
            for (bits, c) in counts.iter().filter(|(b, _)| b.starts_with('1')) {
                got[low_bits(bits, *system_qubits)] += *c as f64;
                kept += c;
            }
            if kept == 0 {
                return Err("no shot post-selected the HHL ancilla".into());
            }
            got.iter_mut().for_each(|g| *g /= kept as f64);
            tv(&got, probs)
        }
    };
    if dist > tv_limit(check) {
        Err(format!(
            "TV distance {dist:.3} above {:.2}",
            tv_limit(check)
        ))
    } else {
        Ok(dist)
    }
}

/// The engine that produced a result: aer's `method` metadata where the
/// adapter chose one, the adapter's fixed engine otherwise.
pub fn engine_of(r: &QfwResult) -> &'static str {
    let method = r
        .metadata
        .get("method")
        .map(String::as_str)
        .unwrap_or(&r.subbackend);
    match (r.backend.as_str(), method) {
        ("aer", "stabilizer") => "sim-stab",
        ("aer", "matrix_product_state") => "sim-mps",
        ("aer", _) | ("nwqsim", _) => "sim-sv",
        _ => "sim-tn",
    }
}

/// Runs a circuit directly on one engine, single-threaded, bypassing the
/// stack.
pub fn run_direct(engine: &str, circuit: &Circuit, shots: usize, seed: u64) {
    match engine {
        "sim-stab" => {
            StabSimulator
                .run(circuit, shots, seed)
                .expect("Clifford circuit");
        }
        "sim-mps" => {
            MpsSimulator::new(MpsConfig::default()).run(circuit, shots, seed);
        }
        _ => {
            SvSimulator::new(SvConfig::default()).run(circuit, shots, seed);
        }
    }
}

/// Submits through the ingress and polls until counts arrive: the
/// kernel-mix job path. Returns the scheduler job id and the result.
pub fn submit_wait(conn: &Connection, env: &JobEnvelope) -> Result<(u64, QfwResult), String> {
    match client::submit(conn, env, CALL_TIMEOUT) {
        Ok(IngressSubmitOutcome::Accepted(id)) => match client::wait(conn, id, CALL_TIMEOUT) {
            Ok(JobStatus::Done(r)) => Ok((id, r)),
            Ok(JobStatus::Failed(e)) => Err(format!("job failed: {e}")),
            Ok(other) => Err(format!("job ended without counts: {}", status_name(&other))),
            Err(e) => Err(format!("poll: {e:?}")),
        },
        Ok(IngressSubmitOutcome::Cached(_)) => Err("unexpected cache hit on a fresh seed".into()),
        Ok(IngressSubmitOutcome::Overloaded(info)) => Err(format!(
            "refused ({}): retry after {} ms",
            info.scope, info.retry_after_ms
        )),
        Err(e) => Err(format!("submit: {e:?}")),
    }
}

fn status_name(s: &JobStatus) -> &'static str {
    match s {
        JobStatus::Queued => "queued",
        JobStatus::Running => "running",
        JobStatus::Done(_) => "done",
        JobStatus::Failed(_) => "failed",
        JobStatus::Cancelled => "cancelled",
        JobStatus::Unknown => "unknown",
    }
}

/// Times `n` launches of a stack, each with its warm-up, and keeps the
/// last one running; the earlier ones are stopped, untimed. Returns it
/// with the median set-up time.
pub fn timed_setups<S>(
    n: usize,
    out: &mut Outcome,
    mut setup: impl FnMut(&mut Outcome) -> S,
    stop: impl Fn(S),
) -> (S, f64) {
    let mut times = Vec::with_capacity(n);
    let mut live = None;
    for _ in 0..n.max(1) {
        let t0 = Instant::now();
        let s = setup(out);
        times.push(t0.elapsed().as_secs_f64());
        if let Some(old) = live.replace(s) {
            stop(old);
        }
    }
    out.note(format!("setup_s per set-up: {times:?}"));
    (live.expect("at least one set-up"), stats::median(&times))
}

/// A well-mixed 64-bit seed for job `j` of stream `stream`.
pub fn job_seed(seed: u64, stream: u64, j: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(j);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mean of a sample (0 when empty: the layer was not exercised).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// QRC profile and engine readings over completed results.
pub fn profile_readings(results: &[(usize, &QfwResult)], kernels: &[Kernel], out: &mut Outcome) {
    let us = |f: fn(&QfwResult) -> f64| -> f64 {
        mean(&results.iter().map(|(_, r)| f(r) * 1e6).collect::<Vec<_>>())
    };
    out.set("qrc.slot_wait_us", us(|r| r.profile.queue_secs));
    out.set("qrc.marshal_us", us(|r| r.profile.marshal_secs));
    // The adapter's own time: its total (which starts after the slot is
    // held) minus unmarshal, gate application and sampling.
    out.set(
        "qrc.adapter_us",
        us(|r| {
            r.profile.total_secs
                - r.profile.marshal_secs
                - r.profile.exec_secs
                - r.profile.sample_secs
        }),
    );
    let planned: Vec<&&QfwResult> = results
        .iter()
        .map(|(_, r)| r)
        .filter(|r| r.metadata.contains_key("plan_cached"))
        .collect();
    if !planned.is_empty() {
        let hits = planned
            .iter()
            .filter(|r| r.metadata["plan_cached"] == "true")
            .count();
        out.set(
            "backend.plan_cache_hit_ratio",
            hits as f64 / planned.len() as f64,
        );
    }
    let mut max_bond = 0.0f64;
    let (mut sv_bytes, mut sv_exec, mut sv_gates) = (Vec::new(), 0.0, Vec::new());
    for engine in ["sim-sv", "sim-mps", "sim-stab"] {
        let mine: Vec<&(usize, &QfwResult)> = results
            .iter()
            .filter(|(_, r)| engine_of(r) == engine)
            .collect();
        let exec: Vec<f64> = mine
            .iter()
            .map(|(_, r)| r.profile.exec_secs * 1e3)
            .collect();
        let sample: Vec<f64> = mine
            .iter()
            .map(|(_, r)| r.profile.sample_secs * 1e3)
            .collect();
        out.set(format!("{engine}.exec_ms"), mean(&exec));
        // The stabilizer path reports sampling inside its exec time.
        if engine != "sim-stab" {
            out.set(format!("{engine}.sample_ms"), mean(&sample));
        }
        for (k, r) in &mine {
            if let Some(b) = r
                .metadata
                .get("max_bond")
                .and_then(|b| b.parse::<f64>().ok())
            {
                max_bond = max_bond.max(b);
            }
            if engine == "sim-sv" && !kernels.is_empty() {
                let c = &kernels[*k].circuit;
                let fused = fusion::fuse(c, FusionLevel::Full).num_gates() as f64;
                sv_gates.push(fused);
                sv_bytes.push(fused * (1u64 << c.num_qubits()) as f64 * 16.0 * 2.0);
                sv_exec += r.profile.exec_secs;
            }
        }
    }
    out.set("sim-mps.max_bond", max_bond);
    if !sv_gates.is_empty() {
        out.set("sim-sv.fused_gates", mean(&sv_gates));
        out.set("sim-sv.bytes_computed", mean(&sv_bytes));
        out.set(
            "sim-sv.computed_gb_per_s",
            sv_bytes.iter().sum::<f64>() / sv_exec / 1e9,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tfim_light_cone_reference_matches_the_full_width_marginal() {
        // The same argument at a width the dense engine handles quickly.
        let small = qfw_workloads::tfim::tfim_with(16, 5, 1.0, 0.5, 0.05);
        let wide = qfw_workloads::tfim::tfim_with(20, 5, 1.0, 0.5, 0.05);
        let a = exact_marginal(&small, CHECK_QUBITS);
        let b = exact_marginal(&wide, CHECK_QUBITS);
        assert!(
            tv(&a, &b) < 1e-9,
            "light-cone marginal differs: {}",
            tv(&a, &b)
        );
    }

    #[test]
    fn checks_reject_wrong_totals_and_wrong_distributions() {
        let mut probs = BTreeMap::new();
        probs.insert("00".to_string(), 0.5);
        probs.insert("11".to_string(), 0.5);
        let check = Check::Full(probs);
        let good: BTreeMap<String, usize> = [("00".to_string(), 500), ("11".to_string(), 524)]
            .into_iter()
            .collect();
        assert!(check_counts(&check, &good, 1024).is_ok());
        assert!(check_counts(&check, &good, 1000).is_err());
        let skewed: BTreeMap<String, usize> = [("00".to_string(), 1000), ("01".to_string(), 24)]
            .into_iter()
            .collect();
        assert!(check_counts(&check, &skewed, 1024).is_err());
    }
}
