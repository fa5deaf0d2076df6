//! Task-interaction and resource graphs for the MaTCH reproduction.
//!
//! The paper's §2 models a data-parallel application (overset-grid CFD)
//! as an undirected **Task Interaction Graph** `G_t = (V_t, E_t)` whose
//! node weights are computation amounts (grid points) and whose edge
//! weights are communication volumes (overlapping grid points), and the
//! platform as an undirected **resource graph** `G_r = (V_r, E_r)` whose
//! node weights are processing costs per unit of computation and whose
//! edge weights are communication costs per unit between resources.
//!
//! * [`graph`] — the shared weighted-undirected-graph container.
//! * [`tig`] — [`TaskGraph`]: TIG semantics and validation.
//! * [`resource`] — [`ResourceGraph`]: link-cost closure (all-pairs
//!   effective communication costs via Dijkstra when the platform graph
//!   is not complete).
//! * [`gen`] — synthetic workload generators, including the paper's §5.2
//!   family (weight ranges 1–10 / 50–100 for the TIG, 1–5 / 10–20 for
//!   the platform; mixed-density edges) and an overset-grid CFD
//!   abstraction (Figure 1).
//! * [`algo`] — BFS, connected components, degree statistics.
//! * [`io`] — DOT export and a plain-text instance format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod gen;
pub mod graph;
pub mod io;
pub mod metrics;
pub mod resource;
pub mod tig;

pub use graph::{Graph, GraphError};
pub use resource::ResourceGraph;
pub use tig::TaskGraph;

/// A matched pair of workload and platform, the unit every mapper
/// consumes. The paper always generates these together with `|V_t| =
/// |V_r|`, but the pair itself does not require equal sizes (the
/// many-to-one generalisation relaxes it).
#[derive(Debug, Clone)]
pub struct InstancePair {
    /// The application: tasks and their interactions.
    pub tig: TaskGraph,
    /// The platform: resources and their links.
    pub resources: ResourceGraph,
}

impl InstancePair {
    /// True when tasks and resources are equinumerous, the regime of all
    /// experiments in the paper (bijective mappings).
    pub fn is_square(&self) -> bool {
        self.tig.len() == self.resources.len()
    }
}
