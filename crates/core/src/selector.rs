//! Automated workload-driven backend selection — the paper's stated future
//! work ("future extensions will target ... automated workload-driven
//! backend selection").
//!
//! This module holds the vocabulary shared by the calibrated cost-model
//! planner ([`crate::planner::Planner::plan`], the single entry point) and
//! its callers: the resource [`SelectorContext`] a ranking is made for and
//! the [`Recommendation`] each ranked candidate carries. Every admissible
//! engine gets a predicted wall-clock from the circuit's
//! [`StructureReport`](qfw_circuit::analysis::StructureReport) features,
//! and candidates are ranked by predicted cost within result-quality
//! tiers. The outcomes reproduce the paper's empirical findings:
//!
//! * Clifford circuits → the stabilizer fast path (`aer/automatic`).
//! * Structured, nearest-neighbour, low-bond circuits (TFIM-like) → MPS
//!   (`aer/matrix_product_state`) — Fig. 3c.
//! * Highly entangled or long-range circuits (GHZ/HAM/HHL-like) → the
//!   state-vector engine, distributed when the register is large —
//!   Figs. 3a/3b/3d.
//! * Beyond every exact engine → the cloud provider when configured, else
//!   best-effort truncating MPS with an honest rationale.

use crate::spec::BackendSpec;

/// Resource context the selector weighs: how many cores the session can
/// offer a single task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelectorContext {
    /// Free cores available for one task.
    pub free_cores: usize,
    /// Whether the cloud path is configured.
    pub cloud_available: bool,
}

impl Default for SelectorContext {
    fn default() -> Self {
        SelectorContext {
            free_cores: 8,
            cloud_available: false,
        }
    }
}

/// A scored recommendation.
#[derive(Clone, Debug, PartialEq)]
pub struct Recommendation {
    /// The backend/sub-backend to use.
    pub spec: BackendSpec,
    /// Human-readable rationale (logged by callers).
    pub rationale: String,
}
