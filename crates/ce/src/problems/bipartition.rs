//! Balanced graph bipartition via CE (Rubinstein 2002).
//!
//! Split the nodes into two halves of (near-)equal *node weight* while
//! minimising the edge weight crossing the cut — the partitioning view
//! of the mapping problem that [9, 20] in the paper's related work
//! pursue. The CE formulation penalises imbalance in the objective.

use crate::driver::{minimize_controlled, CeConfig, CeOutcome};
use crate::models::bernoulli::BernoulliModel;
use match_graph::Graph;
use match_telemetry::NullRecorder;
use rand::rngs::StdRng;

/// Total weight of edges crossing the cut defined by `side` (`true` = in
/// `S`).
pub fn cut_weight(g: &Graph, side: &[bool]) -> f64 {
    assert_eq!(side.len(), g.node_count(), "side vector length mismatch");
    g.edges()
        .filter(|&(u, v, _)| side[u] != side[v])
        .map(|(_, _, w)| w)
        .sum()
}

/// Node-weight imbalance of a bipartition: `|W(S) − W(V∖S)|`.
pub fn imbalance(g: &Graph, side: &[bool]) -> f64 {
    assert_eq!(side.len(), g.node_count(), "side vector length mismatch");
    let mut s = 0.0;
    let mut t = 0.0;
    #[allow(clippy::needless_range_loop)] // u indexes both `side` and the graph
    for u in 0..g.node_count() {
        if side[u] {
            s += g.node_weight(u);
        } else {
            t += g.node_weight(u);
        }
    }
    (s - t).abs()
}

/// Result of a bipartition run.
#[derive(Debug, Clone)]
pub struct BipartitionResult {
    /// Side assignment of the best partition found.
    pub side: Vec<bool>,
    /// Cut weight of that partition.
    pub cut: f64,
    /// Node-weight imbalance of that partition.
    pub imbalance: f64,
    /// The raw CE outcome (penalised objective).
    pub outcome: CeOutcome<Vec<bool>>,
}

/// Minimise `cut + penalty × imbalance` with CE.
pub fn bipartition(
    g: &Graph,
    penalty: f64,
    sample_size: usize,
    rng: &mut StdRng,
) -> BipartitionResult {
    let n = g.node_count();
    let mut model = BernoulliModel::uniform(n);
    let mut cfg = CeConfig::with_sample_size(sample_size.max(2));
    // Cut weights are small integers, so the elite threshold ties for
    // several iterations during genuine progress; a wider gamma window
    // avoids stopping on those coarse plateaus.
    cfg.gamma_window = 15;
    let outcome = minimize_controlled(
        &mut model,
        &cfg,
        rng,
        |samples: &[Vec<bool>], _| {
            samples
                .iter()
                .map(|s| cut_weight(g, s) + penalty * imbalance(g, s))
                .collect()
        },
        |_, _| {},
        &mut NullRecorder,
        &|| false,
    );
    let side = outcome.best_sample.clone();
    BipartitionResult {
        cut: cut_weight(g, &side),
        imbalance: imbalance(g, &side),
        side,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_graph::gen::classic::grid2d_graph;
    use rand::SeedableRng;

    #[test]
    fn cut_weight_basics() {
        let mut g = Graph::with_uniform_nodes(3, 1.0);
        g.add_edge(0, 1, 2.0).unwrap();
        g.add_edge(1, 2, 3.0).unwrap();
        assert_eq!(cut_weight(&g, &[true, false, true]), 5.0);
        assert_eq!(cut_weight(&g, &[true, true, true]), 0.0);
        assert_eq!(cut_weight(&g, &[false, true, true]), 2.0);
    }

    #[test]
    fn imbalance_basics() {
        let mut g = Graph::from_node_weights(vec![1.0, 2.0, 3.0]).unwrap();
        g.add_edge(0, 1, 1.0).unwrap();
        assert_eq!(imbalance(&g, &[true, true, false]), 0.0);
        assert_eq!(imbalance(&g, &[true, false, false]), 4.0);
    }

    #[test]
    fn two_cliques_with_bridge_split_at_the_bridge() {
        // Two unit-weight triangles joined by a light bridge: the optimal
        // balanced partition cuts only the bridge.
        let mut g = Graph::with_uniform_nodes(6, 1.0);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.add_edge(u, v, 10.0).unwrap();
        }
        g.add_edge(2, 3, 1.0).unwrap(); // the bridge
        let mut rng = StdRng::seed_from_u64(101);
        let r = bipartition(&g, 100.0, 150, &mut rng);
        assert_eq!(r.cut, 1.0, "should cut only the bridge");
        assert_eq!(r.imbalance, 0.0);
        let side0 = r.side[0];
        assert!(r.side[1] == side0 && r.side[2] == side0);
        assert!(r.side[3] != side0 && r.side[4] != side0 && r.side[5] != side0);
    }

    #[test]
    fn grid_partition_is_balanced() {
        let g = grid2d_graph(4, 4, 1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(102);
        let r = bipartition(&g, 50.0, 200, &mut rng);
        assert_eq!(r.imbalance, 0.0, "16 unit nodes must split 8/8");
        // Optimal cut of a 4×4 grid split into two 2×4 halves is 4.
        assert!(r.cut <= 6.0, "cut {} too large", r.cut);
    }

    #[test]
    fn zero_penalty_ignores_balance() {
        // Without penalty the all-one-side partition (cut 0) is optimal.
        let mut g = Graph::with_uniform_nodes(4, 1.0);
        g.add_edge(0, 1, 5.0).unwrap();
        g.add_edge(2, 3, 5.0).unwrap();
        let mut rng = StdRng::seed_from_u64(103);
        let r = bipartition(&g, 0.0, 100, &mut rng);
        assert_eq!(r.cut, 0.0);
    }
}
