//! Backend-QPM adapters: one per engine, all conforming to the same
//! QPM-API so "the application code remains unchanged when swapping
//! backends" (Section 4.1).
//!
//! Every adapter follows the four integration obligations the paper lists:
//! (1) accept the standardized circuit description (`qfwasm` text in
//! [`ExecTask`]), (2) configure engine-specific runtime parameters from
//! [`BackendSpec::extra`], (3) launch execution — serially, rayon-threaded,
//! or via DVM ranks — and (4) marshal results into [`QfwResult`].

pub mod aer;
pub mod ionq;
pub mod nwqsim;
pub mod qtensor;
pub mod tnqvm;

use crate::error::QfwError;
use crate::result::QfwResult;
use crate::spec::{BackendSpec, ExecTask, SweepTask};
use qfw_circuit::{text, Circuit, ParamCircuit};
use qfw_hpc::slurm::HetJob;
use qfw_hpc::{Allocation, Dvm};
use qfw_obs::Obs;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Execution-side context handed to adapters: the DVM for rank spawning,
/// the `hetgroup-1` lease broker for cores, and the observability handle
/// engine phases report into.
pub struct ExecContext<'a> {
    /// The PRTE-like DVM spanning the worker group.
    pub dvm: &'a Dvm,
    /// The heterogeneous job owning the worker nodes.
    pub hetjob: &'a HetJob,
    /// Index of the worker group (`hetgroup-1` in the standard layout).
    pub group: usize,
    /// Observability handle (disabled by default).
    pub obs: &'a Obs,
}

impl ExecContext<'_> {
    /// Leases `n` cores, waiting (bounded) for earlier tasks to release
    /// theirs — this is what throttles DQAOA's concurrent sub-QUBO solves
    /// to the physically available width.
    pub fn lease_cores(&self, n: usize) -> Result<Allocation, QfwError> {
        let deadline = Instant::now() + Duration::from_secs(300);
        loop {
            match self.hetjob.allocate_cores(self.group, n) {
                Ok(alloc) => return Ok(alloc),
                Err(e) => {
                    if Instant::now() > deadline {
                        return Err(QfwError::Resources(e.to_string()));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }
}

/// The QPM-API every backend implements.
pub trait BackendQpm: Send + Sync {
    /// Canonical backend name.
    fn name(&self) -> &'static str;

    /// Supported sub-backends (first entry is the default).
    fn subbackends(&self) -> &'static [&'static str];

    /// Executes one task.
    fn execute(&self, task: &ExecTask, ctx: &ExecContext<'_>) -> Result<QfwResult, QfwError>;

    /// Executes a compile-once/bind-many sweep: one skeleton, many
    /// bindings, results in point order.
    ///
    /// The default implementation materializes each point as a concrete
    /// `qfwasm-param` task (skeleton + `bind` line) and runs it through
    /// [`execute`](Self::execute), so every backend supports sweeps out of
    /// the box; engines with a native compile-once path override this.
    fn execute_sweep(
        &self,
        task: &SweepTask,
        ctx: &ExecContext<'_>,
    ) -> Result<Vec<QfwResult>, QfwError> {
        sweep_via_execute(self, task, ctx)
    }

    /// Resolves the effective sub-backend, validating against the supported
    /// list.
    fn resolve_subbackend(&self, spec: &BackendSpec) -> Result<&'static str, QfwError> {
        if spec.subbackend.is_empty() {
            return Ok(self.subbackends()[0]);
        }
        self.subbackends()
            .iter()
            .find(|&&s| s == spec.subbackend)
            .copied()
            .ok_or_else(|| QfwError::UnknownSubBackend {
                backend: self.name().to_string(),
                subbackend: spec.subbackend.clone(),
            })
    }
}

/// Unmarshals the wire-format circuit, timing the step for the profile.
///
/// Accepts both concrete `qfwasm` text and bound `qfwasm-param` text (a
/// skeleton with a `bind` line) — the latter is bound into a concrete
/// circuit here, so every adapter transparently accepts parameterized
/// tasks even without a native compile-once path.
pub fn unmarshal_circuit(task: &ExecTask) -> Result<(Circuit, f64), QfwError> {
    let start = Instant::now();
    let circuit = if text::is_param_text(&task.circuit) {
        let (template, bound) =
            text::parse_param(&task.circuit).map_err(|e| QfwError::Marshal(e.to_string()))?;
        let params = bound.ok_or_else(|| {
            QfwError::Marshal(
                "parameterized task carries no 'bind' line; submit bound \
                 parameters or use the sweep path"
                    .into(),
            )
        })?;
        template.bind(&params)
    } else {
        text::parse(&task.circuit).map_err(|e| QfwError::Marshal(e.to_string()))?
    };
    Ok((circuit, start.elapsed().as_secs_f64()))
}

/// Unmarshals a `qfwasm-param` skeleton (bound or not), timing the step.
pub fn unmarshal_param(circuit: &str) -> Result<(ParamCircuit, Option<Vec<f64>>, f64), QfwError> {
    let start = Instant::now();
    let (template, bound) =
        text::parse_param(circuit).map_err(|e| QfwError::Marshal(e.to_string()))?;
    Ok((template, bound, start.elapsed().as_secs_f64()))
}

/// Materializes one sweep point as bound `qfwasm-param` text: the skeleton
/// plus a `bind` line carrying the point's parameters.
pub fn materialize_point(skeleton: &str, params: &[f64]) -> String {
    let mut out = text::param_skeleton_text(skeleton);
    out.push_str("bind");
    for v in params {
        write!(out, " {v:e}").unwrap();
    }
    out.push('\n');
    out
}

/// The generic sweep path: each point becomes one bound task through the
/// backend's own [`BackendQpm::execute`]. Shared by the trait default and
/// by native implementations falling back (e.g. for noisy or distributed
/// configurations).
pub fn sweep_via_execute<B: BackendQpm + ?Sized>(
    backend: &B,
    task: &SweepTask,
    ctx: &ExecContext<'_>,
) -> Result<Vec<QfwResult>, QfwError> {
    if !text::is_param_text(&task.circuit) {
        return Err(QfwError::Marshal(
            "sweep task circuit is not in the qfwasm-param wire format".into(),
        ));
    }
    task.points
        .iter()
        .map(|point| {
            backend.execute(
                &ExecTask {
                    circuit: materialize_point(&task.circuit, &point.params),
                    shots: point.shots,
                    seed: point.seed,
                    spec: task.spec.clone(),
                },
                ctx,
            )
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use qfw_hpc::slurm::HetJobSpec;
    use qfw_hpc::ClusterSpec;

    /// A self-contained (cluster, hetjob, dvm) bundle for adapter tests.
    pub struct TestRig {
        pub hetjob: HetJob,
        pub dvm: Dvm,
        pub obs: Obs,
    }

    impl TestRig {
        pub fn new(nodes: usize) -> TestRig {
            let cluster = ClusterSpec::test(nodes + 1);
            let hetjob = HetJob::submit(&cluster, &HetJobSpec::qfw_standard(nodes)).unwrap();
            let dvm = Dvm::new(&cluster);
            TestRig {
                hetjob,
                dvm,
                obs: Obs::disabled(),
            }
        }

        pub fn ctx(&self) -> ExecContext<'_> {
            ExecContext {
                dvm: &self.dvm,
                hetjob: &self.hetjob,
                group: 1,
                obs: &self.obs,
            }
        }
    }

    /// A measured GHZ circuit in wire format.
    pub fn ghz_task(n: usize, shots: usize, spec: BackendSpec) -> ExecTask {
        let mut qc = Circuit::new(n);
        qc.h(0);
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        qc.measure_all();
        ExecTask {
            circuit: qfw_circuit::text::dump(&qc),
            shots,
            seed: 1234,
            spec,
        }
    }
}
