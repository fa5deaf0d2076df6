//! The shared weighted undirected graph container.
//!
//! Both the TIG and the resource graph are "weighted undirected graphs"
//! in the paper's formulation — node weights and edge weights are plain
//! non-negative reals whose *meaning* differs per wrapper ([`crate::tig`],
//! [`crate::resource`]). This module provides the common storage:
//! adjacency lists for traversal plus a canonical edge list for
//! generators and I/O.

/// Errors from graph construction.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An endpoint index was `>= node_count`.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The number of nodes in the graph.
        len: usize,
    },
    /// Self-loops are not allowed (a task does not communicate with
    /// itself; a resource has zero-cost local communication implicitly).
    SelfLoop(usize),
    /// The edge already exists.
    DuplicateEdge(usize, usize),
    /// A weight was negative, NaN or infinite.
    InvalidWeight(f64),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, len } => {
                write!(f, "node {node} out of range (graph has {len} nodes)")
            }
            GraphError::SelfLoop(u) => write!(f, "self-loop at node {u}"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge ({u}, {v})"),
            GraphError::InvalidWeight(w) => write!(f, "invalid weight {w}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected graph with `f64` node and edge weights.
///
/// Node indices are dense `0..node_count`. Edges are stored once in
/// canonical `(min, max)` order plus twice in adjacency lists.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Graph {
    node_weights: Vec<f64>,
    /// `adj[u]` lists `(v, weight)` pairs.
    adj: Vec<Vec<(u32, f64)>>,
    /// Canonical edge list, `u < v`.
    edges: Vec<(u32, u32, f64)>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// A graph with `n` nodes of weight `w` and no edges.
    pub fn with_uniform_nodes(n: usize, w: f64) -> Self {
        Graph {
            node_weights: vec![w; n],
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
        }
    }

    /// A graph whose node weights are given; no edges.
    pub fn from_node_weights(weights: Vec<f64>) -> Result<Self, GraphError> {
        for &w in &weights {
            check_weight(w)?;
        }
        let n = weights.len();
        Ok(Graph {
            node_weights: weights,
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
        })
    }

    /// Append a node with weight `w`; returns its index.
    pub fn add_node(&mut self, w: f64) -> Result<usize, GraphError> {
        check_weight(w)?;
        self.node_weights.push(w);
        self.adj.push(Vec::new());
        Ok(self.node_weights.len() - 1)
    }

    /// Add the undirected edge `(u, v)` with weight `w`.
    pub fn add_edge(&mut self, u: usize, v: usize, w: f64) -> Result<(), GraphError> {
        let n = self.node_weights.len();
        if u >= n {
            return Err(GraphError::NodeOutOfRange { node: u, len: n });
        }
        if v >= n {
            return Err(GraphError::NodeOutOfRange { node: v, len: n });
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        check_weight(w)?;
        if self.has_edge(u, v) {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a as u32, b as u32, w));
        self.adj[u].push((v as u32, w));
        self.adj[v].push((u as u32, w));
        Ok(())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_weights.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Weight of node `u`.
    pub fn node_weight(&self, u: usize) -> f64 {
        self.node_weights[u]
    }

    /// All node weights.
    pub fn node_weights(&self) -> &[f64] {
        &self.node_weights
    }

    /// Overwrite the weight of node `u`.
    pub fn set_node_weight(&mut self, u: usize, w: f64) -> Result<(), GraphError> {
        check_weight(w)?;
        self.node_weights[u] = w;
        Ok(())
    }

    /// Neighbors of `u` as `(neighbor, edge weight)` pairs, in insertion
    /// order.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.adj[u].iter().map(|&(v, w)| (v as usize, w))
    }

    /// Degree of node `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// True when the edge `(u, v)` exists (order-insensitive).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        // Scan the shorter adjacency list.
        let (a, b) = if self.adj[u].len() <= self.adj[v].len() {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a].iter().any(|&(x, _)| x as usize == b)
    }

    /// Weight of the edge `(u, v)`, if present.
    pub fn edge_weight(&self, u: usize, v: usize) -> Option<f64> {
        self.adj[u]
            .iter()
            .find(|&&(x, _)| x as usize == v)
            .map(|&(_, w)| w)
    }

    /// Canonical `(u, v, weight)` edge triples with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.edges
            .iter()
            .map(|&(u, v, w)| (u as usize, v as usize, w))
    }

    /// Sum of all node weights.
    pub fn total_node_weight(&self) -> f64 {
        self.node_weights.iter().sum()
    }

    /// Sum of all edge weights.
    pub fn total_edge_weight(&self) -> f64 {
        self.edges.iter().map(|&(_, _, w)| w).sum()
    }
}

fn check_weight(w: f64) -> Result<(), GraphError> {
    if !w.is_finite() || w < 0.0 {
        Err(GraphError::InvalidWeight(w))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::from_node_weights(vec![1.0, 2.0, 3.0]).unwrap();
        g.add_edge(0, 1, 10.0).unwrap();
        g.add_edge(1, 2, 20.0).unwrap();
        g.add_edge(2, 0, 30.0).unwrap();
        g
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.total_node_weight(), 0.0);
    }

    #[test]
    fn build_and_query() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.node_weight(1), 2.0);
        assert_eq!(g.degree(0), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert_eq!(g.edge_weight(2, 0), Some(30.0));
        assert_eq!(g.edge_weight(0, 2), Some(30.0));
        assert_eq!(g.total_node_weight(), 6.0);
        assert_eq!(g.total_edge_weight(), 60.0);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let g = triangle();
        for u in 0..3 {
            for (v, w) in g.neighbors(u) {
                assert_eq!(g.edge_weight(v, u), Some(w));
            }
        }
    }

    #[test]
    fn edges_canonical_order() {
        let g = triangle();
        for (u, v, _) in g.edges() {
            assert!(u < v);
        }
        assert_eq!(g.edges().count(), 3);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::with_uniform_nodes(2, 1.0);
        assert_eq!(g.add_edge(1, 1, 5.0), Err(GraphError::SelfLoop(1)));
    }

    #[test]
    fn rejects_duplicate_edge_either_order() {
        let mut g = Graph::with_uniform_nodes(2, 1.0);
        g.add_edge(0, 1, 5.0).unwrap();
        assert_eq!(g.add_edge(0, 1, 6.0), Err(GraphError::DuplicateEdge(0, 1)));
        assert_eq!(g.add_edge(1, 0, 6.0), Err(GraphError::DuplicateEdge(1, 0)));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g = Graph::with_uniform_nodes(2, 1.0);
        assert!(matches!(
            g.add_edge(0, 5, 1.0),
            Err(GraphError::NodeOutOfRange { node: 5, len: 2 })
        ));
    }

    #[test]
    fn rejects_bad_weights() {
        let mut g = Graph::with_uniform_nodes(2, 1.0);
        assert!(matches!(
            g.add_edge(0, 1, -1.0),
            Err(GraphError::InvalidWeight(_))
        ));
        assert!(matches!(
            g.add_edge(0, 1, f64::NAN),
            Err(GraphError::InvalidWeight(_))
        ));
        assert!(matches!(
            g.add_node(f64::INFINITY),
            Err(GraphError::InvalidWeight(_))
        ));
        assert!(Graph::from_node_weights(vec![1.0, -2.0]).is_err());
    }

    #[test]
    fn set_node_weight_works() {
        let mut g = triangle();
        g.set_node_weight(0, 9.0).unwrap();
        assert_eq!(g.node_weight(0), 9.0);
        assert!(g.set_node_weight(0, f64::NAN).is_err());
    }

    #[test]
    fn clone_is_equal_and_independent() {
        let g = triangle();
        let mut h = g.clone();
        assert_eq!(g, h);
        h.set_node_weight(0, 9.0).unwrap();
        h.add_node(4.0).unwrap();
        assert_ne!(g, h);
        assert_eq!(
            g,
            triangle(),
            "editing the clone must not touch the original"
        );
    }
}
