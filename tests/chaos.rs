//! Chaos suite: deterministic fault injection across the three layers the
//! paper's stack spans — DEFw RPC, QRC worker slots, and the cloud
//! provider — proving the retry/backoff/failover machinery end to end,
//! plus the scheduler's front door (`SchedIngress`, a DEFw hub) under
//! poisoned requests, dropped replies and malformed payloads.
//!
//! Every scenario is driven by a seeded [`FaultPlan`], so each test (and
//! the run-twice determinism check at the bottom) replays byte-for-byte.

use qfw::qrc::{DispatchPolicy, Qrc};
use qfw::{BackendRegistry, BackendSpec, ExecTask, QfwError};
use qfw_chaos::{FaultPlan, FaultSpec, RetryPolicy};
use qfw_circuit::{text, Circuit};
use qfw_cloud::{CloudConfig, CloudProvider};
use qfw_defw::{Connection, Defw, MethodTable, RpcError};
use qfw_hpc::slurm::{HetJob, HetJobSpec};
use qfw_hpc::{ClusterSpec, Dvm};
use qfw_num::rng::Rng;
use qfw_obs::Obs;
use qfw_sched::{
    IngressSubmitOutcome, JobEnvelope, JobStatus, SchedConfig, SchedIngress, SchedIngressConfig,
    Scheduler,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

const CALL_TIMEOUT: Duration = Duration::from_millis(50);

fn echo_hub(plan: Arc<FaultPlan>) -> Defw {
    let hub = Defw::start_with_chaos(2, plan);
    hub.register(
        "qpm",
        MethodTable::new("qpm")
            .method("echo", |v: String| Ok(v))
            .build(),
    );
    hub
}

fn fast_policy(attempts: u32) -> RetryPolicy {
    RetryPolicy::new(
        Duration::from_millis(1),
        Duration::from_millis(5),
        attempts,
        Duration::from_secs(1),
    )
}

/// A dropped reply times the first attempt out; the retry lands.
#[test]
fn dropped_reply_is_healed_by_retry() {
    let plan = Arc::new(FaultPlan::seeded(101).inject("defw.drop_reply.qpm", FaultSpec::first(1)));
    let hub = echo_hub(Arc::clone(&plan));
    let out: String = hub
        .client()
        .call_with_retry("qpm", "echo", &"payload".to_string(), CALL_TIMEOUT, &fast_policy(4))
        .unwrap();
    assert_eq!(out, "payload");
    assert_eq!(plan.fired("defw.drop_reply.qpm"), 1);
    // Exactly one extra dispatch reached the service.
    assert_eq!(hub.service_stats("qpm").unwrap().calls, 2);
}

/// When every reply is dropped, retries exhaust and the error carries the
/// attempt count.
#[test]
fn exhausted_retries_surface_timeout_with_attempts() {
    let plan = Arc::new(FaultPlan::seeded(102).inject("defw.drop_reply.qpm", FaultSpec::always()));
    let hub = echo_hub(plan);
    let err = hub
        .client()
        .call_with_retry::<_, String>("qpm", "echo", &"x".to_string(), CALL_TIMEOUT, &fast_policy(3))
        .unwrap_err();
    match err {
        RpcError::Timeout { attempts, .. } => assert_eq!(attempts, 3),
        other => panic!("expected Timeout, got {other:?}"),
    }
}

fn ghz_task(n: usize, spec: BackendSpec) -> ExecTask {
    let mut qc = Circuit::new(n);
    qc.h(0);
    for q in 0..n - 1 {
        qc.cx(q, q + 1);
    }
    qc.measure_all();
    ExecTask {
        circuit: text::dump(&qc),
        shots: 100,
        seed: 5,
        spec,
    }
}

fn qrc_with(plan: Arc<FaultPlan>, cloud: Option<Arc<CloudProvider>>, workers: usize) -> Qrc {
    let cluster = ClusterSpec::test(3);
    let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
    let dvm = Arc::new(Dvm::new(&cluster));
    Qrc::new(
        BackendRegistry::standard(cloud),
        hetjob,
        dvm,
        1,
        workers,
        DispatchPolicy::RoundRobin,
    )
    .with_chaos(plan)
}

/// A dying worker slot requeues its task onto a survivor; the dead slot
/// stays out of rotation until revived.
#[test]
fn slot_death_requeues_and_completes() {
    let plan = Arc::new(FaultPlan::seeded(103).inject("qrc.slot_death", FaultSpec::first(2)));
    let qrc = qrc_with(plan, None, 4);
    let result = qrc
        .execute(&ghz_task(5, BackendSpec::of("nwqsim", "cpu")))
        .unwrap();
    assert_eq!(result.counts.values().sum::<usize>(), 100);
    assert_eq!(qrc.requeues(), 2, "task should have been requeued twice");
    assert_eq!(qrc.dead_slots(), 2);
    // Follow-up tasks keep flowing on the two survivors.
    for _ in 0..4 {
        qrc.execute(&ghz_task(4, BackendSpec::of("nwqsim", "cpu")))
            .unwrap();
    }
    assert_eq!(qrc.revive_slots(), 2);
    assert_eq!(qrc.dead_slots(), 0);
}

/// A 27-qubit nearest-neighbour circuit with strong entanglers: the
/// selector's primary choice is the cloud. With the provider crashing
/// every job, `auto` degrades to the next-ranked engine and records the
/// failover chain in the result metadata.
fn failover_task() -> ExecTask {
    let mut qc = Circuit::new(27);
    for q in 0..26 {
        qc.rzz(q, q + 1, 1.5);
    }
    qc.measure_all();
    ExecTask {
        circuit: text::dump(&qc),
        shots: 20,
        seed: 5,
        spec: BackendSpec::of("auto", ""),
    }
}

#[test]
fn cloud_failure_triggers_selector_failover() {
    let plan = Arc::new(FaultPlan::seeded(104).inject("cloud.job_fail", FaultSpec::always()));
    let provider = Arc::new(CloudProvider::start_with_chaos(
        CloudConfig::instant(),
        Arc::clone(&plan),
    ));
    let qrc = qrc_with(Arc::new(FaultPlan::disabled()), Some(provider), 2);
    let result = qrc.execute(&failover_task()).unwrap();
    assert_eq!(result.counts.values().sum::<usize>(), 20);
    assert_eq!(result.metadata["failover_chain"], "ionq/simulator");
    assert!(
        result.metadata["failover_errors"].contains("injected"),
        "errors: {}",
        result.metadata["failover_errors"]
    );
    assert_eq!(result.metadata["auto_selected"], "aer/matrix_product_state");
}

/// The whole point: the same seed injects the same faults and produces
/// the same resilience behaviour, byte for byte. CI runs this suite twice
/// and diffs the output; this test replays a composite scenario in-process.
#[test]
fn chaos_replays_identically_under_one_seed() {
    let transcript = |seed: u64| -> String {
        let mut lines = Vec::new();

        // DEFw: probabilistic reply drops healed by retries.
        let plan = Arc::new(
            FaultPlan::seeded(seed)
                .inject("defw.drop_reply.qpm", FaultSpec::with_probability(0.5).times(8)),
        );
        let hub = echo_hub(Arc::clone(&plan));
        let policy = fast_policy(6).with_seed(seed);
        for i in 0..10 {
            let out = hub.client().call_with_retry::<_, String>(
                "qpm",
                "echo",
                &format!("m{i}"),
                CALL_TIMEOUT,
                &policy,
            );
            lines.push(format!("call {i}: ok={}", out.is_ok()));
        }
        for rec in plan.injection_log() {
            lines.push(format!("defw fault {} at hit {}", rec.site, rec.hit));
        }

        // Cloud: failover metadata from a crashing provider.
        let cloud_plan =
            Arc::new(FaultPlan::seeded(seed).inject("cloud.job_fail", FaultSpec::always()));
        let provider = Arc::new(CloudProvider::start_with_chaos(
            CloudConfig::instant(),
            Arc::clone(&cloud_plan),
        ));
        let qrc = qrc_with(Arc::new(FaultPlan::disabled()), Some(provider), 2);
        let result = qrc.execute(&failover_task()).unwrap();
        lines.push(format!(
            "failover: {} -> {} (cloud faults: {})",
            result.metadata["failover_chain"],
            result.metadata["auto_selected"],
            cloud_plan.fired("cloud.job_fail"),
        ));
        for (bits, count) in &result.counts {
            lines.push(format!("counts[{bits}]={count}"));
        }
        lines.join("\n")
    };
    let first = transcript(2024);
    let second = transcript(2024);
    assert_eq!(first, second, "same seed must replay identically");
}

/// With all worker slots dead, dispatch reports a resource error instead
/// of hanging; revival restores service.
#[test]
fn dead_pool_errors_then_revives() {
    let plan = Arc::new(FaultPlan::seeded(105).inject("qrc.slot_death", FaultSpec::first(2)));
    let qrc = qrc_with(plan, None, 2);
    let err = qrc
        .execute(&ghz_task(4, BackendSpec::of("nwqsim", "cpu")))
        .unwrap_err();
    assert!(matches!(err, QfwError::Resources(_)), "{err:?}");
    assert_eq!(qrc.revive_slots(), 2);
    let result = qrc
        .execute(&ghz_task(4, BackendSpec::of("nwqsim", "cpu")))
        .unwrap();
    assert_eq!(result.counts.values().sum::<usize>(), 100);
}

// ---------------------------------------------------------------------------
// The front door under chaos.
// ---------------------------------------------------------------------------

fn valid_envelope(seed: u64) -> JobEnvelope {
    let mut qc = Circuit::new(4);
    qc.h(0)
        .rx(1, 0.3 * seed as f64)
        .cx(0, 2)
        .cx(1, 3)
        .measure_all();
    JobEnvelope::new("burst", &qc, 64)
        .with_spec(BackendSpec::of("nwqsim", "cpu"))
        .with_seed(seed)
}

/// One burst request: the valid job's seed (`None` for a malformed
/// payload), a transcript label, and the submit payload.
type Request = (Option<u64>, String, Vec<u8>);

/// Eight valid jobs and five malformed payloads, in a seeded order.
fn burst(seed: u64) -> Vec<Request> {
    let mut requests: Vec<Request> = (0..8)
        .map(|s| {
            let payload = serde_json::to_vec(&valid_envelope(s)).unwrap();
            (Some(s), format!("valid seed {s}"), payload)
        })
        .collect();
    requests.push((
        None,
        "malformed (not json)".into(),
        b"{\"tenant\": 7".to_vec(),
    ));
    for circuit in [
        "qfwasm 1\nqubits 3\ncx q0 q7\n",
        "qfwasm 1\nqubits 3\ncx q1 q1\n",
        "qfwasm 1\nqubits 1\nclbits 1\nmeasure q0 -> c5\n",
        "OPENQASM 3;\nqubit[2] q;\ncx q[0], q[9];\n",
    ] {
        let mut env = valid_envelope(0);
        env.circuit = circuit.to_string();
        let label = format!("malformed ({})", circuit.lines().last().unwrap());
        requests.push((None, label, serde_json::to_vec(&env).unwrap()));
    }
    Rng::seed_from(seed).shuffle(&mut requests);
    requests
}

/// One request through the front door, retried on injected faults: a
/// poisoned request never reached the handler, and a dropped reply
/// surfaces as a timeout. Any other outcome is final.
fn retried(
    conn: &Connection,
    method: &str,
    payload: Vec<u8>,
    log: &mut Vec<String>,
) -> Result<Vec<u8>, RpcError> {
    let payload = Arc::new(payload);
    for attempt in 1..=4 {
        let corr = conn.send_raw(method, Arc::clone(&payload))?;
        match conn.wait(corr, Duration::from_secs(1)) {
            Err(RpcError::Codec(msg)) if msg.contains("injected") => {
                log.push(format!("  {method}: poisoned on attempt {attempt}"));
            }
            Err(RpcError::Timeout { .. }) => {
                log.push(format!("  {method}: reply dropped on attempt {attempt}"));
            }
            reply => return reply,
        }
    }
    panic!("{method} never got through the injected faults");
}

/// The valid jobs' counts, by seed.
type CountsBySeed = BTreeMap<u64, BTreeMap<String, usize>>;

/// Sends `requests` one at a time through a fresh front door, drains the
/// scheduler, and polls every accepted job once. Returns the transcript,
/// the valid jobs' counts by seed, and the hub's (accepted, completed).
fn run_burst(
    chaos: Arc<FaultPlan>,
    requests: &[Request],
) -> (Vec<String>, CountsBySeed, (u64, u64)) {
    let qrc = Arc::new(qrc_with(Arc::new(FaultPlan::disabled()), None, 2));
    let sched = Scheduler::start(qrc, Obs::disabled(), SchedConfig::default());
    let config = SchedIngressConfig {
        chaos,
        ..SchedIngressConfig::default()
    };
    let ingress = SchedIngress::start(sched.clone(), config, Obs::disabled());
    let conn = ingress.connect();
    let mut log = Vec::new();
    let mut accepted = Vec::new();
    for (valid, label, payload) in requests {
        log.push(label.clone());
        let reply = retried(&conn, "submit", payload.clone(), &mut log);
        match reply.map(|bytes| serde_json::from_slice::<IngressSubmitOutcome>(&bytes).unwrap()) {
            Ok(IngressSubmitOutcome::Accepted(id)) => {
                log.push(format!("  accepted as job {id}"));
                accepted.push((*valid, id));
            }
            Err(RpcError::Handler(_) | RpcError::Codec(_)) if valid.is_none() => {
                log.push("  refused with a typed error".to_string());
            }
            other => panic!("{label}: unexpected {other:?}"),
        }
    }
    assert!(sched.drain(Duration::from_secs(60)), "the burst drains");
    let mut counts = BTreeMap::new();
    for (valid, id) in accepted {
        let reply = retried(&conn, "poll", serde_json::to_vec(&id).unwrap(), &mut log);
        match (
            valid,
            serde_json::from_slice::<JobStatus>(&reply.unwrap()).unwrap(),
        ) {
            (Some(seed), JobStatus::Done(r)) => {
                log.push(format!("job {id}: done, counts {:?}", r.counts));
                counts.insert(seed, r.counts);
            }
            (None, JobStatus::Failed(_)) => log.push(format!("job {id}: failed")),
            (_, status) => panic!("job {id} ended as {status:?}"),
        }
    }
    let stats = ingress.ingress().stats();
    ingress.shutdown();
    sched.shutdown();
    (log, counts, (stats.accepted, stats.completed))
}

/// A seeded burst mixing malformed payloads, poisoned requests and a
/// dropped reply into valid submits: every valid job completes with the
/// counts of a fault-free run, bit for bit; every request the hub
/// admitted was handled (no worker died with one in hand); and the
/// transcript — printed, so CI's run-twice diff covers it — replays.
#[test]
fn front_door_burst_survives_faults_and_malformed_payloads() {
    let faulty_plan = || {
        Arc::new(
            FaultPlan::seeded(106)
                .inject(
                    "defw.poison.sched-ingress",
                    FaultSpec::with_probability(0.25).times(5),
                )
                .inject(
                    "defw.drop_reply.sched-ingress",
                    FaultSpec::first(1).after(6),
                ),
        )
    };
    let requests = burst(106);
    let plan = faulty_plan();
    let (log, counts, (accepted, completed)) = run_burst(Arc::clone(&plan), &requests);
    assert!(plan.fired("defw.poison.sched-ingress") >= 1, "{log:#?}");
    assert_eq!(plan.fired("defw.drop_reply.sched-ingress"), 1, "{log:#?}");
    assert_eq!(accepted, completed, "an admitted request was never handled");

    let valid: Vec<Request> = requests.iter().filter(|r| r.0.is_some()).cloned().collect();
    let (_, clean, _) = run_burst(Arc::new(FaultPlan::disabled()), &valid);
    assert_eq!(counts.len(), 8, "{log:#?}");
    assert_eq!(counts, clean, "faults changed a valid job's counts");

    let (replay, _, _) = run_burst(faulty_plan(), &requests);
    assert_eq!(
        log, replay,
        "same seed must replay the same front-door transcript"
    );
    let mut transcript = log;
    transcript.extend(
        plan.injection_log()
            .iter()
            .map(|rec| format!("front-door fault {} at hit {}", rec.site, rec.hit)),
    );
    println!("{}", transcript.join("\n"));
}

// ---------------------------------------------------------------------------
// RetryPolicy property coverage.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// No single backoff ever exceeds the per-attempt cap.
    #[test]
    fn prop_backoff_bounded_by_cap(
        seed in 0u64..1_000_000,
        base_ms in 1u64..50,
        cap_ms in 1u64..200,
        attempts in 1u32..20,
    ) {
        let policy = RetryPolicy::new(
            Duration::from_millis(base_ms),
            Duration::from_millis(cap_ms),
            attempts,
            Duration::from_secs(10),
        )
        .with_seed(seed);
        let mut schedule = policy.schedule();
        while let Some(backoff) = schedule.next_backoff() {
            prop_assert!(backoff <= policy.cap, "{backoff:?} > cap {:?}", policy.cap);
        }
        prop_assert!(schedule.attempts() <= attempts.max(1));
    }

    /// The running total of granted sleep never exceeds the deadline
    /// budget, no matter the seed or shape of the policy.
    #[test]
    fn prop_total_sleep_within_deadline(
        seed in 0u64..1_000_000,
        base_ms in 1u64..50,
        cap_ms in 1u64..500,
        deadline_ms in 1u64..400,
    ) {
        let policy = RetryPolicy::new(
            Duration::from_millis(base_ms),
            Duration::from_millis(cap_ms),
            1000,
            Duration::from_millis(deadline_ms),
        )
        .with_seed(seed);
        let mut schedule = policy.schedule();
        let mut total = Duration::ZERO;
        while let Some(backoff) = schedule.next_backoff() {
            total += backoff;
            prop_assert!(
                total <= policy.deadline,
                "total {total:?} > deadline {:?}",
                policy.deadline
            );
        }
        prop_assert_eq!(total, schedule.total_sleep());
    }

    /// An enabled-but-empty fault plan is behaviourally identical to no
    /// chaos at all: every call succeeds and the service sees the same
    /// traffic, for any seed.
    #[test]
    fn prop_zero_fault_plan_is_transparent(seed in 0u64..1_000_000) {
        let run = |plan: Arc<FaultPlan>| -> (Vec<String>, u64, u64) {
            let hub = echo_hub(plan);
            let client = hub.client();
            let outputs = (0..5)
                .map(|i| {
                    client
                        .call::<_, String>("qpm", "echo", &format!("p{i}"), Duration::from_secs(5))
                        .unwrap()
                })
                .collect();
            let stats = hub.service_stats("qpm").unwrap();
            (outputs, stats.calls, stats.errors)
        };
        let chaotic = run(Arc::new(FaultPlan::seeded(seed)));
        let clean = run(Arc::new(FaultPlan::disabled()));
        prop_assert_eq!(chaotic, clean);
    }
}
