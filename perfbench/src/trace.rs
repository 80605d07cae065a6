//! In-memory span recorder for the traced run.
//!
//! A traced job is one root span, timed by the benchmark around its call
//! into the front door, and child spans nested under it. A child's
//! duration is a reading of the same job: the stack's own timing of it
//! (`Scheduler::job_timing`, the result profile, the ingress handle-time
//! histogram), or the benchmark's timing of a handler piece replayed on
//! the job's own envelope. Every span carries its name, layer, who
//! measured it, start, end, parent and a job id shared by every span of
//! one job. Spans stay in memory and are written out once, at the end of
//! the run.

use crate::report::Outcome;
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, Serialize)]
pub struct Span {
    /// Call or reading, e.g. `client::submit+wait` or `Scheduler::job_timing`.
    pub name: &'static str,
    /// Layer the span belongs to, e.g. `defw`.
    pub layer: &'static str,
    /// Who measured it: `benchmark` (timed around the call), `replay`
    /// (timed by the benchmark on the job's own inputs, after the job,
    /// as the median of several runs),
    /// or the stack layer whose reading gives the duration.
    pub source: &'static str,
    /// Job the span serves; shared by every span of one job.
    pub job: u64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's epoch. A child span from a reading
    /// starts at its parent's start: readings give durations, not offsets
    /// on the benchmark's clock.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects the spans of one traced phase.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Times `f` as the root span of job `job` and returns its result
    /// with the span index.
    pub fn root<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            layer,
            source: "benchmark",
            job,
            parent: None,
            start_ns: start,
            end_ns: end,
        });
        (out, self.spans.len() - 1)
    }

    /// Records a child of `parent` lasting `ns`, as measured by `source`,
    /// and returns its index.
    pub fn child(
        &mut self,
        parent: usize,
        layer: &'static str,
        name: &'static str,
        source: &'static str,
        ns: u64,
    ) -> usize {
        let (job, start) = (self.spans[parent].job, self.spans[parent].start_ns);
        self.spans.push(Span {
            name,
            layer,
            source,
            job,
            parent: Some(parent),
            start_ns: start,
            end_ns: start + ns,
        });
        self.spans.len() - 1
    }

    /// Times `f` on the benchmark's clock and records it as a `replay`
    /// child of `parent`. The median of several runs is kept, so that a
    /// preemption of the benchmark's own thread is not read as the
    /// layer's time.
    pub fn replay(
        &mut self,
        parent: usize,
        layer: &'static str,
        name: &'static str,
        f: impl FnMut(),
    ) {
        let ns = crate::stats::median_time_us(f) * 1e3;
        self.child(parent, layer, name, "replay", ns as u64);
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span duration in µs.
    pub fn us(&self, id: usize) -> f64 {
        self.spans[id].duration_ns() as f64 / 1e3
    }

    /// Each span's self time in ns: its duration minus the durations of
    /// its direct children. Negative when the children's readings add up
    /// to more than the parent's.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.duration_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration_ns() as i64;
            }
        }
        own
    }

    /// The spans as JSON, for writing out at the end of the run.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.spans).expect("spans serialize")
    }
}

/// How the traced jobs' time splits over the layers.
#[derive(Debug, PartialEq)]
pub struct Attribution {
    /// Total self time per layer, ns (negative self times included).
    pub by_layer: BTreeMap<&'static str, i64>,
    /// Total duration of the root spans, ns: the traced jobs end to end.
    pub root_ns: u64,
    /// Root spans (traced jobs).
    pub jobs: usize,
    /// Spans whose children's readings exceed their own duration.
    pub negative_spans: usize,
    /// Share of the root time no layer can be given: the excess of the
    /// children's readings over their parents', summed over spans whose
    /// self time is negative, over `root_ns`.
    pub unattributed_frac: f64,
}

/// Splits the traced jobs' root time over the layers by self time.
pub fn attribute(tr: &Tracer) -> Attribution {
    let own = tr.self_ns();
    let mut by_layer = BTreeMap::new();
    let (mut negative_spans, mut negative_ns) = (0usize, 0i64);
    for (s, &ns) in tr.spans.iter().zip(&own) {
        *by_layer.entry(s.layer).or_insert(0) += ns;
        if ns < 0 {
            negative_spans += 1;
            negative_ns -= ns;
        }
    }
    let roots = tr.spans.iter().filter(|s| s.parent.is_none());
    let root_ns: u64 = roots.clone().map(Span::duration_ns).sum();
    Attribution {
        by_layer,
        root_ns,
        jobs: roots.count(),
        negative_spans,
        unattributed_frac: negative_ns as f64 / root_ns.max(1) as f64,
    }
}

/// Records each layer's self time per traced job, the unattributed share
/// and the negative-span count, and prints each layer's share.
pub fn record_self_times(tr: &Tracer, out: &mut Outcome) {
    let a = attribute(tr);
    let per_job = |layer: &str| {
        a.by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e3 / a.jobs.max(1) as f64
    };
    out.set("defw.transport_us", per_job("defw"));
    out.set("handler.self_us", per_job("handler"));
    out.set("sched.self_us", per_job("sched"));
    out.set("qrc.self_us", per_job("qrc"));
    out.set("engine.self_us", per_job("engine"));
    out.set("trace.unattributed_frac", a.unattributed_frac);
    out.set("trace.negative_self_spans", a.negative_spans as f64);
    let shares: Vec<String> = a
        .by_layer
        .iter()
        .map(|(layer, ns)| format!("{layer} {:.1}%", 100.0 * *ns as f64 / a.root_ns as f64))
        .collect();
    out.note(format!(
        "{} traced jobs, {:.3} ms each; self time by layer: {}; unattributed {:.2}% \
         ({} spans with negative self time)",
        a.jobs,
        a.root_ns as f64 / 1e6 / a.jobs.max(1) as f64,
        shares.join(", "),
        100.0 * a.unattributed_frac,
        a.negative_spans
    ));
    for (key, name) in [
        ("defw.codec_us", "serde_json"),
        ("sched.cache_key_us", "ResultCache::key"),
    ] {
        let us: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        if !us.is_empty() {
            out.set(key, crate::stats::median(&us));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: Vec<(&'static str, Option<usize>, u64)>) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: spans
                .into_iter()
                .map(|(layer, parent, ns)| Span {
                    name: "t",
                    layer,
                    source: "test",
                    job: 1,
                    parent,
                    start_ns: 0,
                    end_ns: ns,
                })
                .collect(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = tracer_with(vec![
            ("defw", None, 100),
            ("handler", Some(0), 10),
            ("sched", Some(0), 60),
            ("qrc", Some(2), 40),
            ("engine", Some(3), 30),
        ]);
        let a = attribute(&t);
        assert_eq!(a.by_layer["defw"], 30);
        assert_eq!(a.by_layer["handler"], 10);
        assert_eq!(a.by_layer["sched"], 20);
        assert_eq!(a.by_layer["qrc"], 10);
        assert_eq!(a.by_layer["engine"], 30);
        // Self times add up to the root: nothing is unattributed.
        assert_eq!(a.by_layer.values().sum::<i64>(), 100);
        assert_eq!((a.root_ns, a.jobs, a.negative_spans), (100, 1, 0));
        assert_eq!(a.unattributed_frac, 0.0);
    }

    #[test]
    fn readings_that_do_not_nest_are_unattributed() {
        // Two jobs of 100 ns. In the second, the qrc reading (70) exceeds
        // the scheduler's (60): 10 ns no layer can be given.
        let t = tracer_with(vec![
            ("defw", None, 100),
            ("sched", Some(0), 60),
            ("defw", None, 100),
            ("sched", Some(2), 60),
            ("qrc", Some(3), 70),
        ]);
        let a = attribute(&t);
        assert_eq!(a.negative_spans, 1);
        assert_eq!(a.by_layer["sched"], 60 - 10);
        assert_eq!((a.root_ns, a.jobs), (200, 2));
        assert!((a.unattributed_frac - 10.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn children_start_at_their_parent_and_share_its_job() {
        let mut t = Tracer::default();
        let ((), root) = t.root("defw", "root", 7, || {});
        let c = t.child(root, "sched", "reading", "scheduler", 5);
        let s = &t.spans()[c];
        assert_eq!((s.job, s.parent, s.source), (7, Some(root), "scheduler"));
        assert_eq!(s.start_ns, t.spans()[root].start_ns);
        assert_eq!(s.duration_ns(), 5);
    }
}
