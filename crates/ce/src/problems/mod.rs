//! The CE literature's graph problems that the mapping system still runs.
//!
//! The paper grounds the CE method in Rubinstein's work on "maximal cut
//! and bipartition problems" (the paper's reference 23). Balanced
//! bipartition stays because the recursive-bisection baseline
//! (`match-baselines`) splits task graphs with it.

pub mod bipartition;
