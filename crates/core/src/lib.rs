//! `match-core` — the MaTCH heuristic and the heterogeneous mapping
//! problem it solves.
//!
//! This crate is the paper's primary contribution:
//!
//! * [`problem`] — [`MappingInstance`]: a TIG/platform pair flattened
//!   into dense cost tables (`W^t`, `w_s`, `C^{t,a}`, `c_{s,b}`).
//! * [`mapping`] — [`Mapping`]: a task→resource assignment vector.
//! * [`cost`] — the execution-time model: Eq. 1 (per-resource time) and
//!   Eq. 2 (application makespan), plus O(degree) incremental deltas for
//!   move/swap neighbourhoods with the makespan kept in a max tree (used
//!   by the local-search baselines and incremental re-mapping).
//! * [`matcher`] — [`Matcher`]: the MaTCH algorithm of Figure 5 — CE over
//!   the GenPerm permutation model with smoothed updates (Eq. 13) and the
//!   μ-stability stopping rule (Eq. 12); sample evaluation is fanned out
//!   through `match-par`.
//! * [`mapper`] — the [`Mapper`] trait every heuristic in the workspace
//!   implements (MaTCH, FastMap-GA, the baselines), so the harness can
//!   treat them uniformly.
//!
//! The paper restricts experiments to `|V_t| = |V_r|` with bijective
//! mappings; [`Matcher::run_many_to_one`] provides the "few simple
//! modifications" generalisation over the independent-row assignment
//! model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcheval;
pub mod capacity;
pub mod control;
pub mod cost;
pub mod islands;
pub mod mapper;
pub mod mapping;
pub mod matcher;
pub mod multilevel_config;
pub mod problem;
pub mod quality;
pub mod remap;

pub use batcheval::{build_plan, PlanEvaluator};
pub use capacity::CapacityModel;
pub use control::{StopFlag, StopToken};
pub use cost::{
    apply_move_delta, apply_swap_delta, exec_per_resource, exec_per_resource_into, exec_time,
    exec_time_with, CostModel, IncrementalCost,
};
pub use islands::{IslandConfig, IslandMatcher};
pub use mapper::{record_run_end, record_run_start, Mapper, MapperOutcome};
pub use mapping::Mapping;
pub use match_eval::EvalBackend;
pub use matcher::{MatchConfig, MatchOutcome, Matcher, SamplerMode};
pub use multilevel_config::MultilevelConfig;
pub use problem::MappingInstance;
pub use quality::{analyze, bijective_lower_bound, lower_bound, MappingQuality};
pub use remap::{remap, remap_incremental, RemapConfig, RemapOutcome, RemapStrategy};
