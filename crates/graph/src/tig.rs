//! Task Interaction Graphs (TIGs).
//!
//! §2: each vertex is one overset grid with computational weight `W^t`
//! ("the number of grid points it contains"); each edge `(v_i, v_j)`
//! carries a communication weight `C^{i,j}` ("the number of grid points
//! that overlap"). Mapping cost (Eq. 1) multiplies these by the resource
//! graph's per-unit costs.

use crate::graph::{Graph, GraphError};

/// A task interaction graph: computation on nodes, communication volume
/// on edges. Wraps [`Graph`] with TIG-specific accessors and validation
/// (strictly positive computation weights — a task with zero work is not
/// a task).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    graph: Graph,
}

impl TaskGraph {
    /// Wrap a graph as a TIG. Every node weight must be strictly
    /// positive. Edge weights may be zero: a zero-volume interaction
    /// contributes nothing to Eq. 1, which makes it a useful
    /// cost-preserving instrument for the metamorphic test harness.
    /// (Negative and non-finite weights are already rejected by
    /// [`Graph::add_edge`].)
    pub fn new(graph: Graph) -> Result<Self, GraphError> {
        for u in 0..graph.node_count() {
            let w = graph.node_weight(u);
            if w <= 0.0 {
                return Err(GraphError::InvalidWeight(w));
            }
        }
        Ok(TaskGraph { graph })
    }

    /// Number of tasks `|V_t|`.
    pub fn len(&self) -> usize {
        self.graph.node_count()
    }

    /// True when there are no tasks.
    pub fn is_empty(&self) -> bool {
        self.graph.node_count() == 0
    }

    /// Computation weight `W^t` of task `t`.
    pub fn computation(&self, t: usize) -> f64 {
        self.graph.node_weight(t)
    }

    /// Communication volume `C^{t,a}` between tasks `t` and `a`, zero
    /// when they do not interact.
    pub fn comm_volume(&self, t: usize, a: usize) -> f64 {
        self.graph.edge_weight(t, a).unwrap_or(0.0)
    }

    /// Interacting neighbors of task `t` with their volumes.
    pub fn interactions(&self, t: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.graph.neighbors(t)
    }

    /// All interactions as canonical `(t, a, volume)` triples.
    pub fn all_interactions(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.graph.edges()
    }

    /// Total computation `Σ_t W^t`.
    pub fn total_computation(&self) -> f64 {
        self.graph.total_node_weight()
    }

    /// Total communication volume `Σ_(t,a) C^{t,a}`.
    pub fn total_comm_volume(&self) -> f64 {
        self.graph.total_edge_weight()
    }

    /// Computation-to-communication ratio, the knob §5.2 varies across
    /// its five synthetic graphs. `INFINITY` for independent tasks.
    pub fn comp_comm_ratio(&self) -> f64 {
        let comm = self.total_comm_volume();
        if comm == 0.0 {
            f64::INFINITY
        } else {
            self.total_computation() / comm
        }
    }

    /// Access the underlying graph (read-only).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> TaskGraph {
        let mut g = Graph::from_node_weights(vec![2.0, 4.0, 6.0]).unwrap();
        g.add_edge(0, 1, 50.0).unwrap();
        g.add_edge(1, 2, 100.0).unwrap();
        TaskGraph::new(g).unwrap()
    }

    #[test]
    fn accessors() {
        let t = path3();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.computation(1), 4.0);
        assert_eq!(t.comm_volume(0, 1), 50.0);
        assert_eq!(t.comm_volume(0, 2), 0.0);
        assert_eq!(t.total_computation(), 12.0);
        assert_eq!(t.total_comm_volume(), 150.0);
        assert_eq!(t.interactions(1).count(), 2);
    }

    #[test]
    fn ratio() {
        let t = path3();
        assert!((t.comp_comm_ratio() - 12.0 / 150.0).abs() < 1e-12);
        let lone = TaskGraph::new(Graph::from_node_weights(vec![1.0]).unwrap()).unwrap();
        assert_eq!(lone.comp_comm_ratio(), f64::INFINITY);
    }

    #[test]
    fn rejects_zero_computation() {
        let g = Graph::from_node_weights(vec![0.0]).unwrap();
        assert!(TaskGraph::new(g).is_err());
    }

    #[test]
    fn accepts_zero_volume_edge() {
        // A zero-volume interaction is inert in Eq. 1; the verification
        // harness inserts such edges as a cost-preserving transform.
        let mut g = Graph::from_node_weights(vec![1.0, 1.0]).unwrap();
        g.add_edge(0, 1, 0.0).unwrap();
        let t = TaskGraph::new(g).unwrap();
        assert_eq!(t.comm_volume(0, 1), 0.0);
        assert_eq!(t.total_comm_volume(), 0.0);
    }

    #[test]
    fn empty_tig_is_valid() {
        let t = TaskGraph::new(Graph::new()).unwrap();
        assert!(t.is_empty());
    }
}
