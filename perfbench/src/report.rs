//! Metric names, the run outcome, and the one-line JSON result.

use serde::Value;
use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// tracing off. `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Kernels of the kernel-mix workload, in the order `stack::kernel_mix` builds them.
pub const KERNELS: [&str; 5] = ["ghz24", "tfim24", "ham18", "hhl9", "brick16"];

/// Per-layer metrics `(name, unit)`, reported by every workload with
/// tracing on. A layer a workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("defw.request_bytes", "count"),
        ("defw.codec_us", "us"),
        ("defw.transport_us", "us"),
        ("defw.rpc_us", "us"),
        ("defw.refused_frac", "ratio"),
        ("handler.self_us", "us"),
        ("sched.cache_key_us", "us"),
        ("sched.cache_hit_ratio", "ratio"),
        ("sched.wait_us.p50", "us"),
        ("sched.wait_us.tail", "us"),
        ("sched.service_us", "us"),
        ("sched.refused_frac", "ratio"),
        ("sched.jobs_per_invocation", "count"),
        ("sched.self_us", "us"),
        ("circuit.parse_us", "us"),
        ("circuit.hash_us", "us"),
        ("qrc.slot_wait_us", "us"),
        ("qrc.marshal_us", "us"),
        ("qrc.adapter_us", "us"),
        ("qrc.self_us", "us"),
        ("planner.plan_us", "us"),
        ("planner.pick_fastest_frac", "ratio"),
        ("backend.plan_cache_hit_ratio", "ratio"),
        ("sim-sv.exec_ms", "ms"),
        ("sim-sv.sample_ms", "ms"),
        ("sim-sv.fused_gates", "count"),
        ("sim-sv.bytes_computed", "B"),
        ("sim-sv.computed_gb_per_s", "GB/s"),
        ("sim-mps.exec_ms", "ms"),
        ("sim-mps.sample_ms", "ms"),
        ("sim-mps.max_bond", "count"),
        ("sim-stab.exec_ms", "ms"),
        ("engine.self_us", "us"),
        ("dqaoa.evals", "count"),
        ("dqaoa.iterations", "count"),
        ("dqaoa.eval_ms", "ms"),
        ("dqaoa.concurrency", "count"),
        ("dqaoa.classical_ms", "ms"),
        ("trace.unattributed_frac", "ratio"),
        ("trace.negative_self_spans", "count"),
        ("trace.overhead_us", "us"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for k in KERNELS {
        out.push((format!("planner.pick_regret.{k}"), "ratio"));
        out.push((format!("engine.direct_ms.{k}"), "ms"));
        out.push((format!("stack.overhead_ms.{k}"), "ms"));
    }
    out
}

/// What one run produced.
#[derive(Default)]
pub struct Outcome {
    /// Requests attempted in the measured phase.
    pub attempted: u64,
    /// Of those, failed: errors, refusals, timeouts and bad outputs.
    pub failed: u64,
    /// Output checks that failed anywhere in the run (warm-up included).
    pub check_failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable report lines (stderr).
    pub notes: Vec<String>,
    /// Recorded spans as JSON (traced runs).
    pub spans_json: Option<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Adds a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed output check.
    pub fn check_failed(&mut self, what: impl Into<String>) {
        self.check_failures.push(what.into());
    }

    /// Whether every output check passed and no request failed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed`, and the listed
    /// metrics with their units. Metrics the workload did not set read 0.
    pub fn result_line(&self, listed: &[(String, &str)]) -> String {
        let metrics = listed
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                (
                    name.clone(),
                    Value::Map(vec![
                        ("value".into(), Value::Float(v)),
                        ("unit".into(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted.max(1))),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("result line serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Value::Seq(items)) => items
                    .iter()
                    .map(|m| match (m.get("name"), m.get("unit")) {
                        (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                        other => panic!("malformed metric {other:?}"),
                    })
                    .collect(),
                other => panic!("missing {key}: {other:?}"),
            }
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layer);
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.5);
        let listed: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        let line = o.result_line(&listed);
        assert!(line.starts_with(r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"#));
        assert!(line.contains(r#""setup_s":{"value":0.5,"unit":"s"}"#));
        assert!(line.contains(r#""latency_tail_ms":{"value":0.0,"unit":"ms"}"#));
        o.check_failed("bad counts");
        assert!(o.result_line(&listed).starts_with(r#"{"correct":false"#));
    }
}
