//! A generic Cross-Entropy (CE) optimization framework.
//!
//! §3 of the paper presents the CE method in Rubinstein's generic form
//! (Figure 2): repeatedly (1) draw `N` samples from a parameterised
//! distribution family `f(·; v)`, (2) keep the `ρ`-elite by the
//! performance function `S`, and (3) move the parameters `v` toward the
//! maximum-likelihood estimate over the elite, optionally smoothed
//! (Eq. 13). The MaTCH heuristic in `match-core` is an instance of this
//! framework, and so is the balanced graph bipartition (Rubinstein 2002)
//! that the recursive-bisection baseline runs.
//!
//! * [`stochmatrix`] — row-stochastic matrices, the parameter object of
//!   assignment-type problems (tasks × resources), with entropy and
//!   degeneracy measures (paper Figure 3).
//! * [`model`] — the [`CeModel`] trait: sample, elite-update, smoothing,
//!   degeneracy.
//! * [`models`] — permutation (GenPerm), independent-assignment and
//!   Bernoulli-vector model families.
//! * [`batch`] — the flat-buffer sampling and chunk-scoring contracts
//!   behind the fused parallel pipeline.
//! * [`driver`] — the iterative optimizer (Figure 2 / Figure 5 skeleton)
//!   with elite selection, smoothing, stability-based stopping and full
//!   per-iteration telemetry, behind two entry points:
//!   [`minimize_controlled`] for any [`CeModel`] and
//!   [`minimize_flat_with`] for the fused flat pipeline.
//! * [`problems`] — balanced graph bipartition over the Bernoulli model.
//!
//! ## Elite-selection convention
//!
//! The paper's Step 4–5 (Figure 5) sorts performances "from the largest
//! to the smallest" and sets `γ_k = s_{⌊ρN⌋}`, inheriting notation from
//! the *maximization* form of the CE tutorial while MaTCH *minimizes*
//! makespan. We implement the standard minimization reading: the elite
//! set is the `⌊ρN⌋` *best* (lowest-cost) samples and `γ_k` is the worst
//! cost inside the elite, i.e. the sample `ρ`-quantile. This matches
//! Eq. 10/11, where the indicator counts samples with `S(X) ≤ γ`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod driver;
pub mod model;
pub mod models;
pub mod problems;
pub mod stochmatrix;

pub use batch::{FlatBatch, FlatEvaluator, FlatSampler, RowEval};
pub use driver::{
    minimize_controlled, minimize_flat_with, select_elites, CeConfig, CeOutcome, CeTelemetry,
    EliteSelection, IterStats, StopReason,
};
pub use model::CeModel;
pub use models::assignment::AssignmentModel;
pub use models::bernoulli::BernoulliModel;
pub use models::permutation::PermutationModel;
pub use stochmatrix::StochasticMatrix;
