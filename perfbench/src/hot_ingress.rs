//! `hot-ingress`: a closed loop of submits through `SchedIngress`, 90%
//! re-sending warmed (circuit, seed) pairs the result cache serves and
//! 10% fresh GHZ(6) misses the scheduler must queue.

use crate::report::Outcome;
use crate::stack::{self, mean, CircuitStack, Sent, CALL_TIMEOUT};
use crate::stats::{self, median_time_us, ROUNDS};
use crate::trace::{record_self_times, Tracer};
use crate::Opts;
use qfw::{BackendSpec, QfwResult, ResultCache};
use qfw_circuit::{canonical_hash, text};
use qfw_defw::Connection;
use qfw_obs::Obs;
use qfw_sched::ingress::{client, IngressSubmitOutcome};
use qfw_sched::{JobEnvelope, JobStatus};
use std::collections::BTreeMap;
use std::time::Instant;

/// Distinct warmed (circuit, seed) pairs.
const HOT_SET: usize = 64;
/// Shots of a hot job.
const HOT_SHOTS: usize = 256;
/// Shots of a miss.
const MISS_SHOTS: usize = 32;
/// Of every ten submits, this many re-send a warmed pair.
const HOT_PER_TEN: u64 = 9;

/// Stack set-ups timed per run; the median is reported.
const SETUPS: usize = 5;
/// Submits per tail window: the tail rule reads p95 in each.
const TAIL_WINDOW: usize = 200;

const STREAM_MISS: u64 = 5 << 20;
const STREAM_PICK: u64 = 6 << 20;

/// The warmed hot set and the miss template.
struct Inputs {
    hot: Vec<JobEnvelope>,
    cold_counts: Vec<BTreeMap<String, usize>>,
    miss: JobEnvelope,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let spec = BackendSpec::of("nwqsim", "cpu");
        let circuit = stack::brickwork(14, 24, seed);
        let hot = (0..HOT_SET)
            .map(|i| {
                JobEnvelope::new(format!("tenant-{}", i % 4), &circuit, HOT_SHOTS)
                    .with_seed(stack::job_seed(seed, 0, i as u64))
                    .with_spec(spec.clone())
            })
            .collect();
        let miss =
            JobEnvelope::new("tenant-miss", &qfw_workloads::ghz(6), MISS_SHOTS).with_spec(spec);
        Inputs {
            hot,
            cold_counts: Vec::new(),
            miss,
        }
    }

    /// The `j`-th request of stream `stream`: a hot pair or a fresh miss.
    fn request(&self, seed: u64, stream: u64, j: u64) -> (Option<usize>, JobEnvelope) {
        let r = stack::job_seed(seed, STREAM_PICK + stream, j);
        if j % 10 < HOT_PER_TEN {
            let i = (r % HOT_SET as u64) as usize;
            (Some(i), self.hot[i].clone())
        } else {
            (
                None,
                self.miss
                    .clone()
                    .with_seed(stack::job_seed(seed, STREAM_MISS + stream, j)),
            )
        }
    }
}

/// GHZ(6) counts: only all-zeros and all-ones, summing to the shots.
fn check_miss(counts: &BTreeMap<String, usize>) -> Result<(), String> {
    let total: usize = counts.values().sum();
    let stray = counts.keys().any(|b| b != "000000" && b != "111111");
    if total != MISS_SHOTS || stray {
        Err(format!("GHZ(6) miss counts wrong: {counts:?}"))
    } else {
        Ok(())
    }
}

/// Fills the hot set (cold runs, keeping their counts) and proves every
/// pair is now a cache hit with bitwise-equal counts.
fn warm_up(s: &CircuitStack, inputs: &mut Inputs, out: &mut Outcome) {
    let conn = s.ingress.connect();
    let mut cold = Vec::with_capacity(HOT_SET);
    for env in &inputs.hot {
        match stack::submit_wait(&conn, env) {
            Ok((_, r)) => cold.push(r.counts),
            Err(e) => {
                out.check_failed(format!("hot-set fill: {e}"));
                cold.push(BTreeMap::new());
            }
        }
    }
    inputs.cold_counts = cold;
    for (i, env) in inputs.hot.iter().enumerate() {
        if let Err(e) = submit_once(&conn, inputs, Some(i), env) {
            out.check_failed(format!("hot-set re-send: {e}"));
        }
    }
    let miss = inputs.miss.clone().with_seed(u64::MAX);
    match stack::submit_wait(&conn, &miss) {
        Ok((_, r)) => {
            if let Err(e) = check_miss(&r.counts) {
                out.check_failed(e);
            }
        }
        Err(e) => out.check_failed(format!("warm-up miss: {e}")),
    }
}

/// One submit and its check. Returns the scheduler id of an accepted miss.
fn submit_once(
    conn: &Connection,
    inputs: &Inputs,
    hot: Option<usize>,
    env: &JobEnvelope,
) -> Result<Option<u64>, String> {
    match (client::submit(conn, env, CALL_TIMEOUT), hot) {
        (Ok(IngressSubmitOutcome::Cached(r)), Some(i)) => {
            if r.counts == inputs.cold_counts[i] {
                Ok(None)
            } else {
                Err(format!("cache hit {i} differs from its cold counts"))
            }
        }
        (Ok(IngressSubmitOutcome::Accepted(id)), None) => Ok(Some(id)),
        (Ok(IngressSubmitOutcome::Accepted(_)), Some(i)) => {
            Err(format!("hot pair {i} missed the cache"))
        }
        (Ok(IngressSubmitOutcome::Cached(_)), None) => Err("a fresh seed hit the cache".into()),
        (Ok(IngressSubmitOutcome::Overloaded(info)), _) => Err(format!(
            "refused ({}): retry after {} ms",
            info.scope, info.retry_after_ms
        )),
        (Err(e), _) => Err(format!("submit: {e:?}")),
    }
}

/// The closed loop: each connection sends its next submit once the
/// previous reply is in. A request's outcome is the miss's scheduler id,
/// or `None` for a checked cache hit.
fn drive(s: &CircuitStack, inputs: &Inputs, seed: u64, secs: f64) -> (Vec<Sent<Option<u64>>>, f64) {
    stack::closed_loop(s, secs, |conn, c, j| {
        let (hot, env) = inputs.request(seed, c as u64, j);
        submit_once(conn, inputs, hot, &env)
    })
}

fn miss_ids(sent: &[Sent<Option<u64>>]) -> Vec<u64> {
    sent.iter()
        .filter_map(|r| r.outcome.as_ref().ok().copied().flatten())
        .collect()
}

/// Collects and checks the counts of every accepted miss (untimed).
fn collect_misses(s: &CircuitStack, ids: &[u64], out: &mut Outcome) -> Vec<QfwResult> {
    let conn = s.ingress.connect();
    let mut results = Vec::new();
    for &id in ids {
        match client::wait(&conn, id, CALL_TIMEOUT) {
            Ok(JobStatus::Done(r)) => {
                if let Err(e) = check_miss(&r.counts) {
                    out.check_failed(e);
                }
                results.push(r);
            }
            _ => out.check_failed(format!("miss {id} never completed")),
        }
    }
    results
}

pub fn run(opts: Opts) -> Outcome {
    let mut inputs = Inputs::new(opts.seed);
    let mut out = Outcome::default();

    let (s, setup_s) = stack::timed_setups(
        if opts.trace { 1 } else { SETUPS },
        &mut out,
        |out| {
            // The traced run reads each request's handler time from the
            // ingress's own histograms.
            let s = CircuitStack::start(if opts.trace {
                Obs::wall()
            } else {
                Obs::disabled()
            });
            warm_up(&s, &mut inputs, out);
            s
        },
        CircuitStack::shutdown,
    );

    let secs = if opts.trace {
        opts.seconds * 0.5
    } else {
        opts.seconds
    };
    let (sent, elapsed_s) = drive(&s, &inputs, opts.seed, secs);
    stack::record_requests(&sent, &mut out);
    let ids = miss_ids(&sent);

    if opts.trace {
        traced(&s, &inputs, &ids, opts, &mut out);
    } else {
        collect_misses(&s, &ids, &mut out);
        let sent_lat: Vec<(f64, f64)> = sent.iter().map(|r| (r.sent_s, r.latency_ms)).collect();
        let t = stats::tail_by_windows(&sent_lat, TAIL_WINDOW);
        out.note(format!(
            "{} submits ({} misses); latency_tail_ms is the median over windows of \
             {TAIL_WINDOW} submits of each window's p{} ({} beyond)",
            sent.len(),
            ids.len(),
            t.percentile,
            t.beyond
        ));
        out.set("setup_s", setup_s);
        let latency_ms: Vec<f64> = sent.iter().map(|r| r.latency_ms).collect();
        let done_at: Vec<f64> = sent
            .iter()
            .filter(|r| r.outcome.is_ok())
            .map(|r| r.done_s)
            .collect();
        let rates = stats::rates_by_rounds(&done_at, elapsed_s, ROUNDS);
        out.note(format!("jobs_per_s per round: {rates:.0?}"));
        out.set("jobs_per_s", stats::median(&rates));
        out.set("latency_p50_ms", stats::median(&latency_ms));
        out.set("latency_tail_ms", t.value);
    }
    s.shutdown();
    out
}

/// Encodes and decodes a submit's request and its reply.
fn codec_round_trip(inputs: &Inputs, hot: Option<usize>, env: &JobEnvelope) {
    let req = serde_json::to_vec(env).expect("encode");
    let _: JobEnvelope = serde_json::from_slice(&req).expect("decode");
    let reply = match hot {
        Some(i) => {
            let mut r = QfwResult::new("nwqsim", "cpu", HOT_SHOTS);
            r.counts = inputs.cold_counts[i].clone();
            IngressSubmitOutcome::Cached(r)
        }
        None => IngressSubmitOutcome::Accepted(1),
    };
    let bytes = serde_json::to_vec(&reply).expect("encode");
    let _: IngressSubmitOutcome = serde_json::from_slice(&bytes).expect("decode");
}

fn traced(s: &CircuitStack, inputs: &Inputs, miss_ids: &[u64], opts: Opts, out: &mut Outcome) {
    // Readings from the stack over the load phase.
    let hot_bytes = serde_json::to_vec(&inputs.hot[0]).expect("encode").len() as f64;
    let miss_bytes = serde_json::to_vec(&inputs.miss).expect("encode").len() as f64;
    let hot_share = HOT_PER_TEN as f64 / 10.0;
    let weigh = |hot: f64, miss: f64| hot_share * hot + (1.0 - hot_share) * miss;
    out.set("defw.request_bytes", weigh(hot_bytes, miss_bytes));
    stack::stack_readings(s, miss_ids, out);

    // One submit at a time: an untraced submit (for the tracing
    // overhead), then a traced one. The traced submit's round trip splits
    // by the ingress's own reading of its handler time (the one request
    // the `ingress.handle_us` histogram gained), with `ResultCache::key`
    // replayed on the same envelope inside it.
    let conn = s.ingress.connect();
    let handle_us = s.obs.histogram("ingress.handle_us");
    let mut untraced = Vec::new();
    let mut codec_us = Vec::new();
    let mut tr = Tracer::default();
    let mut roots = Vec::new();
    let t0 = Instant::now();
    let mut j = 0u64;
    while t0.elapsed().as_secs_f64() < opts.seconds * 0.5 {
        let (hot, env) = inputs.request(opts.seed, 100, j);
        let t = Instant::now();
        if let Err(e) = submit_once(&conn, inputs, hot, &env) {
            out.check_failed(format!("untraced twin: {e}"));
        }
        untraced.push(t.elapsed().as_secs_f64() * 1e6);
        let (hot, env) = inputs.request(opts.seed, 200, j);
        let (n0, sum0) = (handle_us.count(), handle_us.sum_us());
        let (r, root) = tr.root("defw", "client::submit", j, || {
            submit_once(&conn, inputs, hot, &env)
        });
        j += 1;
        roots.push(root);
        if let Err(e) = r {
            out.check_failed(format!("traced: {e}"));
        }
        if handle_us.count() != n0 + 1 {
            out.check_failed("the ingress did not time exactly one request per traced submit");
            continue;
        }
        let handler = tr.child(
            root,
            "handler",
            "ingress.handle",
            "ingress",
            (handle_us.sum_us() - sum0) * 1000,
        );
        tr.replay(handler, "handler", "ResultCache::key", || {
            std::hint::black_box(ResultCache::key(
                &env.circuit,
                env.seed,
                env.shots,
                &env.spec,
            ));
        });
        codec_us.push(median_time_us(|| codec_round_trip(inputs, hot, &env)));
    }
    record_self_times(&tr, out);
    out.set("defw.codec_us", stats::median(&codec_us));
    let traced: Vec<f64> = roots.iter().map(|&r| tr.us(r)).collect();
    out.set("trace.overhead_us", mean(&traced) - mean(&untraced));
    out.spans_json = Some(tr.to_json());

    let (hot_payload, miss_payload) = (&inputs.hot[0].circuit, &inputs.miss.circuit);
    let parse = |payload: &str| {
        median_time_us(|| {
            std::hint::black_box(text::parse(payload).is_ok());
        })
    };
    let hash = |payload: &str| {
        median_time_us(|| {
            std::hint::black_box(canonical_hash(payload));
        })
    };
    out.set(
        "circuit.parse_us",
        weigh(parse(hot_payload), parse(miss_payload)),
    );
    out.set(
        "circuit.hash_us",
        weigh(hash(hot_payload), hash(miss_payload)),
    );

    // The load phase's misses are polled only now, as in the timed run:
    // a poll puts the result in the cache, and thousands of them at once
    // would evict the hot set the traced submits must hit.
    let misses = collect_misses(s, miss_ids, out);
    let results: Vec<(usize, &QfwResult)> = misses.iter().map(|r| (0, r)).collect();
    stack::profile_readings(&results, &[], out);
}
