//! Concrete CE model families.
//!
//! * [`permutation`] — stochastic-matrix model over bijective assignments
//!   sampled by the paper's GenPerm procedure (Figure 4).
//! * [`assignment`] — stochastic-matrix model with independent rows
//!   (duplicates allowed); the "naive way" §4 describes before
//!   introducing GenPerm, retained for the many-to-one generalisation
//!   and as an ablation.
//! * [`bernoulli`] — independent Bernoulli vector, the classic CE model
//!   for graph bipartition.

pub mod assignment;
pub mod bernoulli;
pub mod permutation;
