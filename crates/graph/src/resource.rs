//! Resource (system) graphs.
//!
//! §2: each resource `r_i` has a processing weight `w_i` — "its
//! processing cost per unit of computation" — and each link `(r_i, r_j)`
//! a link weight `c_{i,j}` — "the cost per unit of communication". The
//! cost model (Eq. 1) charges `C^{t,a} × c_{s,b}` for every interacting
//! task pair split across resources `s ≠ b`.
//!
//! The paper's generated platforms are complete graphs, so `c_{s,b}` is
//! always a direct link weight. For generality this type also supports
//! sparse platforms: effective inter-resource costs are closed under
//! shortest path (Dijkstra over link weights), the natural model for a
//! routed interconnect. Unreachable pairs get `+∞` cost, which any
//! sensible mapper will avoid.

use crate::graph::{Graph, GraphError};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// A heterogeneous platform with per-unit processing and communication
/// costs, plus the precomputed all-pairs effective link-cost matrix.
///
/// The matrix is built once, here, and shared read-only from then on:
/// cloning the platform, flattening it into a mapping instance and every
/// instance rebuilt around it bump a reference count instead of copying
/// `n²` floats.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceGraph {
    graph: Graph,
    /// Row-major `n × n` effective communication costs; `[s][s] = 0`.
    link_costs: Arc<[f64]>,
}

impl ResourceGraph {
    /// Wrap a platform graph. Processing weights must be strictly
    /// positive (a zero-cost processor would absorb every task and make
    /// Eq. 1 degenerate); link weights must be strictly positive.
    pub fn new(graph: Graph) -> Result<Self, GraphError> {
        for u in 0..graph.node_count() {
            let w = graph.node_weight(u);
            if w <= 0.0 {
                return Err(GraphError::InvalidWeight(w));
            }
        }
        for (_, _, w) in graph.edges() {
            if w <= 0.0 {
                return Err(GraphError::InvalidWeight(w));
            }
        }
        let link_costs = all_pairs_shortest(&graph);
        Ok(ResourceGraph { graph, link_costs })
    }

    /// Number of resources `|V_r|`.
    pub fn len(&self) -> usize {
        self.graph.node_count()
    }

    /// True when the platform has no resources.
    pub fn is_empty(&self) -> bool {
        self.graph.node_count() == 0
    }

    /// Processing cost per unit of computation, `w_s`.
    pub fn processing_cost(&self, s: usize) -> f64 {
        self.graph.node_weight(s)
    }

    /// Effective communication cost per unit between resources `s` and
    /// `b`: `0` when `s == b`, the direct link weight when adjacent, the
    /// shortest-path cost otherwise (`+∞` if disconnected).
    pub fn link_cost(&self, s: usize, b: usize) -> f64 {
        self.link_costs[s * self.len() + b]
    }

    /// The full link-cost matrix, row-major, as its shared handle:
    /// holders clone the handle to keep the matrix alive without copying
    /// it.
    pub fn link_cost_matrix(&self) -> &Arc<[f64]> {
        &self.link_costs
    }

    /// True when every resource can reach every other.
    pub fn is_fully_connected(&self) -> bool {
        self.link_costs.iter().all(|c| c.is_finite())
    }

    /// Access the underlying graph (read-only).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

/// Dijkstra from every source over positive link weights.
///
/// The matrix is written in place inside its final shared allocation:
/// collecting an exact-length iterator allocates the `Arc` once, where
/// `Arc::from(Vec)` would copy and briefly hold the matrix twice. Rows
/// are independent, so platforms of [`parallel_threshold`] rows or more
/// fill them in parallel with the same bits; only those ask how many
/// threads the machine has.
///
/// [`parallel_threshold`]: match_par::parallel_threshold
fn all_pairs_shortest(g: &Graph) -> Arc<[f64]> {
    let n = g.node_count();
    let mut shared: Arc<[f64]> = std::iter::repeat_n(f64::INFINITY, n * n).collect();
    let out = Arc::get_mut(&mut shared).expect("a fresh Arc has one owner");
    let threads = if n < match_par::parallel_threshold() {
        1
    } else {
        match_par::default_threads()
    };
    match_par::parallel_fill_rows(
        out,
        &mut vec![(); n],
        n,
        threads,
        BinaryHeap::new,
        |heap, src, row, _| shortest_row(g, src, row, heap),
    );
    shared
}

/// A heap entry of [`shortest_row`]: a tentative distance to `node`.
#[derive(PartialEq)]
struct Entry {
    dist: f64,
    node: usize,
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on dist (weights are finite positive; total order ok).
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
    }
}

/// Dijkstra from `src` into `row` (all `+∞` on entry). `heap` is empty
/// on entry and on return, so one allocation serves many rows.
fn shortest_row(g: &Graph, src: usize, row: &mut [f64], heap: &mut BinaryHeap<Entry>) {
    row[src] = 0.0;
    heap.push(Entry {
        dist: 0.0,
        node: src,
    });
    while let Some(Entry { dist, node }) = heap.pop() {
        if dist > row[node] {
            continue;
        }
        for (v, w) in g.neighbors(node) {
            let nd = dist + w;
            if nd < row[v] {
                row[v] = nd;
                heap.push(Entry { dist: nd, node: v });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete3() -> ResourceGraph {
        let mut g = Graph::from_node_weights(vec![1.0, 2.0, 5.0]).unwrap();
        g.add_edge(0, 1, 10.0).unwrap();
        g.add_edge(1, 2, 15.0).unwrap();
        g.add_edge(0, 2, 20.0).unwrap();
        ResourceGraph::new(g).unwrap()
    }

    #[test]
    fn complete_platform_uses_direct_links() {
        let r = complete3();
        assert_eq!(r.len(), 3);
        assert_eq!(r.processing_cost(2), 5.0);
        assert_eq!(r.link_cost(0, 0), 0.0);
        assert_eq!(r.link_cost(0, 1), 10.0);
        assert_eq!(r.link_cost(1, 0), 10.0);
        assert_eq!(r.link_cost(0, 2), 20.0);
        assert!(r.is_fully_connected());
    }

    #[test]
    fn sparse_platform_routes_via_shortest_path() {
        // Path 0 -10- 1 -15- 2: effective cost 0<->2 is 25.
        let mut g = Graph::from_node_weights(vec![1.0, 1.0, 1.0]).unwrap();
        g.add_edge(0, 1, 10.0).unwrap();
        g.add_edge(1, 2, 15.0).unwrap();
        let r = ResourceGraph::new(g).unwrap();
        assert_eq!(r.link_cost(0, 2), 25.0);
        assert_eq!(r.link_cost(2, 0), 25.0);
        assert!(r.is_fully_connected());
    }

    #[test]
    fn shortcut_beats_direct_link() {
        // Direct 0-2 edge costs 100, but 0-1-2 costs 25: closure takes 25.
        let mut g = Graph::from_node_weights(vec![1.0, 1.0, 1.0]).unwrap();
        g.add_edge(0, 1, 10.0).unwrap();
        g.add_edge(1, 2, 15.0).unwrap();
        g.add_edge(0, 2, 100.0).unwrap();
        let r = ResourceGraph::new(g).unwrap();
        assert_eq!(r.link_cost(0, 2), 25.0);
    }

    #[test]
    fn disconnected_pairs_are_infinite() {
        let g = Graph::from_node_weights(vec![1.0, 1.0]).unwrap();
        let r = ResourceGraph::new(g).unwrap();
        assert!(r.link_cost(0, 1).is_infinite());
        assert!(!r.is_fully_connected());
        assert_eq!(r.link_cost(0, 0), 0.0);
    }

    #[test]
    fn rejects_nonpositive_weights() {
        let g = Graph::from_node_weights(vec![1.0, 0.0]);
        // 0.0 passes Graph's check but not ResourceGraph's.
        assert!(ResourceGraph::new(g.unwrap()).is_err());

        let mut g = Graph::from_node_weights(vec![1.0, 1.0]).unwrap();
        g.add_edge(0, 1, 0.0).unwrap();
        assert!(ResourceGraph::new(g).is_err());
    }

    #[test]
    fn clones_share_the_matrix() {
        let r = complete3();
        let c = r.clone();
        assert!(Arc::ptr_eq(r.link_cost_matrix(), c.link_cost_matrix()));
    }

    #[test]
    fn matrix_is_symmetric() {
        let r = complete3();
        for s in 0..3 {
            for b in 0..3 {
                assert_eq!(r.link_cost(s, b), r.link_cost(b, s));
            }
        }
    }

    /// The closure one source at a time, by O(n²) array Dijkstra: each
    /// distance is the least `d[u] + w` over settled neighbours `u`, the
    /// same sums the heap-based rows take.
    fn serial_closure(g: &Graph) -> Vec<f64> {
        let n = g.node_count();
        let mut out = vec![f64::INFINITY; n * n];
        for src in 0..n {
            let row = &mut out[src * n..(src + 1) * n];
            let mut settled = vec![false; n];
            row[src] = 0.0;
            while let Some(u) = (0..n)
                .filter(|&u| !settled[u] && row[u].is_finite())
                .min_by(|&a, &b| row[a].total_cmp(&row[b]))
            {
                settled[u] = true;
                for (v, w) in g.neighbors(u) {
                    row[v] = row[v].min(row[u] + w);
                }
            }
        }
        out
    }

    /// A ring of `n` resources with seeded chords and fractional link
    /// weights; with `split`, the ring is cut into two unreachable
    /// halves.
    fn sparse_platform(n: usize, split: bool) -> Graph {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        let mut g = Graph::from_node_weights(vec![1.0; n]).unwrap();
        let half = n / 2;
        let side = |u: usize| split && u >= half;
        for u in 0..n {
            let v = (u + 1) % n;
            if side(u) == side(v) {
                g.add_edge(u, v, rng.random_range(0.1..5.0)).unwrap();
            }
        }
        for _ in 0..n {
            let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
            if u != v && side(u) == side(v) && !g.has_edge(u, v) {
                g.add_edge(u, v, rng.random_range(0.1..5.0)).unwrap();
            }
        }
        g
    }

    #[test]
    fn parallel_closure_matches_a_serial_one_bit_for_bit() {
        for split in [false, true] {
            let g = sparse_platform(200, split);
            let want = serial_closure(&g);
            let r = ResourceGraph::new(g).unwrap();
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(r.link_cost_matrix()), bits(&want), "split={split}");
            assert_eq!(r.is_fully_connected(), !split);
        }
    }

    #[test]
    fn triangle_inequality_holds_after_closure() {
        let r = complete3();
        for a in 0..3 {
            for b in 0..3 {
                for c in 0..3 {
                    assert!(r.link_cost(a, c) <= r.link_cost(a, b) + r.link_cost(b, c) + 1e-12);
                }
            }
        }
    }
}
