//! Chaos tour: inject seeded faults into every orchestration layer and
//! watch the resilience machinery absorb them — then replay the whole
//! scenario under the same seed and check it reproduces byte-for-byte.
//!
//! ```text
//! cargo run --release --example chaos_demo
//! ```

use qfw::qrc::{DispatchPolicy, Qrc};
use qfw::{BackendRegistry, BackendSpec, ExecTask};
use qfw_chaos::{FaultPlan, FaultSpec, RetryPolicy};
use qfw_circuit::{text, Circuit};
use qfw_cloud::{CloudConfig, CloudProvider};
use qfw_defw::{Defw, MethodTable};
use qfw_hpc::slurm::{HetJob, HetJobSpec};
use qfw_hpc::{ClusterSpec, Dvm};
use std::sync::Arc;
use std::time::Duration;

/// One full pass through the three layers; everything observable goes
/// into the transcript so two passes under one seed can be compared.
fn scenario(seed: u64) -> Vec<String> {
    let mut t = Vec::new();

    // --- 1. DEFw: the first two replies of "qpm" are swallowed; the
    //        client's RetryPolicy heals the call. ------------------------
    let plan = Arc::new(FaultPlan::seeded(seed).inject("defw.drop_reply.qpm", FaultSpec::first(2)));
    let hub = Defw::start_with_chaos(2, Arc::clone(&plan));
    hub.register(
        "qpm",
        MethodTable::new("qpm")
            .method("echo", |v: String| Ok(v))
            .build(),
    );
    let policy = RetryPolicy::new(
        Duration::from_millis(1),
        Duration::from_millis(10),
        5,
        Duration::from_secs(1),
    )
    .with_seed(seed);
    let out: String = hub
        .client()
        .call_with_retry("qpm", "echo", &"hello".to_string(), Duration::from_millis(50), &policy)
        .expect("retry heals the dropped replies");
    t.push(format!(
        "defw: echo -> {out:?} (replies dropped: {}, dispatches: {})",
        plan.fired("defw.drop_reply.qpm"),
        hub.service_stats("qpm").unwrap().calls,
    ));

    // --- 2. QRC: two worker slots die at dispatch; the task requeues
    //        onto a survivor and still completes. ------------------------
    let cluster = ClusterSpec::test(3);
    let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
    let dvm = Arc::new(Dvm::new(&cluster));
    let slot_plan = Arc::new(FaultPlan::seeded(seed).inject("qrc.slot_death", FaultSpec::first(2)));
    let qrc = Qrc::new(
        BackendRegistry::standard(None),
        Arc::clone(&hetjob),
        Arc::clone(&dvm),
        1,
        4,
        DispatchPolicy::RoundRobin,
    )
    .with_chaos(slot_plan);
    let mut ghz = Circuit::new(5);
    ghz.h(0);
    for q in 0..4 {
        ghz.cx(q, q + 1);
    }
    ghz.measure_all();
    let result = qrc
        .execute(&ExecTask {
            circuit: text::dump(&ghz),
            shots: 100,
            seed,
            spec: BackendSpec::of("nwqsim", "cpu"),
        })
        .expect("requeue rescues the task");
    t.push(format!(
        "qrc: {} shots back (slots killed: {}, requeues: {}, revived: {})",
        result.counts.values().sum::<usize>(),
        qrc.dead_slots(),
        qrc.requeues(),
        qrc.revive_slots(),
    ));

    // --- 3. Cloud: every provider job crashes; `auto` fails over down
    //        the selector's ranked list and records the chain. -----------
    let cloud_plan = Arc::new(FaultPlan::seeded(seed).inject("cloud.job_fail", FaultSpec::always()));
    let provider = Arc::new(CloudProvider::start_with_chaos(
        CloudConfig::instant(),
        Arc::clone(&cloud_plan),
    ));
    let qrc = Qrc::new(
        BackendRegistry::standard(Some(provider)),
        hetjob,
        dvm,
        1,
        2,
        DispatchPolicy::RoundRobin,
    );
    let mut wide = Circuit::new(27);
    for q in 0..26 {
        wide.rzz(q, q + 1, 1.5);
    }
    wide.measure_all();
    let result = qrc
        .execute(&ExecTask {
            circuit: text::dump(&wide),
            shots: 20,
            seed,
            spec: BackendSpec::of("auto", ""),
        })
        .expect("failover rescues the task");
    t.push(format!(
        "cloud: failed over {} -> {} after {} injected job failures ({})",
        result.metadata["failover_chain"],
        result.metadata["auto_selected"],
        cloud_plan.fired("cloud.job_fail"),
        result.metadata["failover_errors"],
    ));
    t
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2024u64);
    println!("chaos scenario, seed {seed}:");
    let first = scenario(seed);
    for line in &first {
        println!("  {line}");
    }
    let second = scenario(seed);
    assert_eq!(first, second, "same seed must replay identically");
    println!("replayed under seed {seed}: identical, byte for byte");
}
