//! The FastMap hierarchical scheme (the paper's reference \[16\],
//! reconstructed).
//!
//! §5 describes FastMap as "a hierarchical mapping strategy using a
//! clustering and distribution technique, in which a GA is used to map
//! the tasks". The pipeline implemented here:
//!
//! 1. **Cluster** the TIG into `|V_r|` clusters by heavy-edge
//!    agglomerative merging (largest communication volume first, with a
//!    balance cap so no cluster exceeds ~2× the average computation
//!    weight) — co-locating chatty tasks so their volume disappears
//!    from the cost (Eq. 1 charges nothing intra-resource).
//! 2. **Coarsen**: build the cluster-level TIG (cluster computation =
//!    summed `W^t`; cluster-pair volume = summed cross volumes).
//! 3. **Map** the (now square) cluster graph with an inner
//!    [`Mapper`] — the GA by default, matching the FastMap-GA of the
//!    paper; MaTCH slots in equally well.
//! 4. **Expand** the cluster mapping back to tasks.
//!
//! On square instances clustering is skipped (every task is its own
//! cluster). The scheme's value shows on many-to-one instances, where
//! flat per-task search spaces dwarf the clustered one.

use match_core::{exec_time, Mapper, MapperOutcome, Mapping, MappingInstance};
use match_graph::graph::Graph;
use match_graph::{InstancePair, ResourceGraph, TaskGraph};
use rand::rngs::StdRng;
use std::time::Instant;

/// Disjoint-set forest for agglomerative clustering.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Cluster the TIG into at most `k` groups; returns `cluster[task]`
/// with dense ids `0..actual_k`.
///
/// Heavy-edge agglomeration: process interactions by descending volume,
/// merging endpoint clusters while (a) more than `k` clusters remain
/// and (b) the merged computation weight stays within `balance_cap ×`
/// the ideal per-cluster weight.
pub fn cluster_tig(tig: &TaskGraph, k: usize, balance_cap: f64) -> Vec<usize> {
    let n = tig.len();
    let k = k.max(1);
    if n == 0 {
        return Vec::new();
    }
    let mut dsu = Dsu::new(n);
    let mut weight: Vec<f64> = (0..n).map(|t| tig.computation(t)).collect();
    let ideal = weight.iter().sum::<f64>() / k as f64;
    let cap = balance_cap.max(1.0) * ideal;
    let mut clusters = n;

    let mut edges: Vec<(usize, usize, f64)> = tig.all_interactions().collect();
    edges.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));

    for (u, v, _) in edges {
        if clusters <= k {
            break;
        }
        let (ru, rv) = (dsu.find(u), dsu.find(v));
        if ru == rv {
            continue;
        }
        if weight[ru] + weight[rv] > cap {
            continue;
        }
        let merged = weight[ru] + weight[rv];
        dsu.union(ru, rv);
        let root = dsu.find(ru);
        weight[root] = merged;
        clusters -= 1;
    }
    // Balance-cap refusals can leave more than k clusters; force-merge
    // the lightest roots until the count fits (they must map somewhere).
    while clusters > k {
        let mut roots: Vec<(usize, f64)> = (0..n)
            .filter(|&t| dsu.find(t) == t)
            .map(|t| (t, weight[t]))
            .collect();
        roots.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let (a, _) = roots[0];
        let (b, _) = roots[1];
        let merged = weight[a] + weight[b];
        dsu.union(a, b);
        let root = dsu.find(a);
        weight[root] = merged;
        clusters -= 1;
    }

    // Dense ids.
    let mut id_of_root = std::collections::HashMap::new();
    let mut out = vec![0usize; n];
    #[allow(clippy::needless_range_loop)] // t indexes `out` and the DSU together
    for t in 0..n {
        let root = dsu.find(t);
        let next = id_of_root.len();
        let id = *id_of_root.entry(root).or_insert(next);
        out[t] = id;
    }
    out
}

/// Build the cluster-level TIG from a clustering with `k` dense ids.
pub fn coarsen_tig(tig: &TaskGraph, cluster: &[usize], k: usize) -> TaskGraph {
    let mut weights = vec![0.0f64; k];
    for (t, &c) in cluster.iter().enumerate() {
        weights[c] += tig.computation(t);
    }
    // Zero-weight clusters cannot exist (every cluster has ≥1 task),
    // but guard against rounding by flooring at a tiny epsilon.
    let mut g = Graph::from_node_weights(weights.into_iter().map(|w| w.max(1e-9)).collect())
        .expect("positive weights");
    let mut volumes = std::collections::HashMap::new();
    for (u, v, c) in tig.all_interactions() {
        let (cu, cv) = (cluster[u], cluster[v]);
        if cu != cv {
            let key = if cu < cv { (cu, cv) } else { (cv, cu) };
            *volumes.entry(key).or_insert(0.0) += c;
        }
    }
    for ((u, v), c) in volumes {
        g.add_edge(u, v, c).expect("fresh edge");
    }
    TaskGraph::new(g).expect("valid coarse TIG")
}

/// The FastMap hierarchical scheme: cluster → coarsen → inner-map →
/// expand.
pub struct FastMapScheme<M: Mapper> {
    inner: M,
    /// Balance cap multiplier for clustering (≥ 1; default 2).
    pub balance_cap: f64,
}

impl<M: Mapper> FastMapScheme<M> {
    /// Wrap an inner mapper (the paper used its GA).
    pub fn new(inner: M) -> Self {
        FastMapScheme {
            inner,
            balance_cap: 2.0,
        }
    }

    /// Access the inner mapper.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: Mapper> Mapper for FastMapScheme<M> {
    fn name(&self) -> &str {
        "FastMap-hier"
    }

    fn map(&self, inst: &MappingInstance, rng: &mut StdRng) -> MapperOutcome {
        let start = Instant::now();
        let n = inst.n_tasks();
        let r = inst.n_resources();

        // Reconstruct graph views from the flattened instance.
        let mut tg = Graph::from_node_weights((0..n).map(|t| inst.computation(t)).collect())
            .expect("positive weights");
        for t in 0..n {
            for (a, c) in inst.interactions(t) {
                if t < a {
                    tg.add_edge(t, a, c).expect("fresh edge");
                }
            }
        }
        let tig = TaskGraph::new(tg).expect("valid TIG");

        let cluster = cluster_tig(&tig, r, self.balance_cap);
        let k = cluster.iter().copied().max().map_or(0, |m| m + 1);

        // Coarse platform: keep all resources (k ≤ r always holds).
        let mut rg = Graph::from_node_weights((0..r).map(|s| inst.processing_cost(s)).collect())
            .expect("positive weights");
        for s in 0..r {
            for b in (s + 1)..r {
                let c = inst.link_cost(s, b);
                if c.is_finite() && c > 0.0 {
                    rg.add_edge(s, b, c).expect("fresh edge");
                }
            }
        }
        let platform = ResourceGraph::new(rg).expect("valid platform");

        let coarse_tig = coarsen_tig(&tig, &cluster, k);
        let coarse_inst = MappingInstance::from_pair(&InstancePair {
            tig: coarse_tig,
            resources: platform,
        });

        let coarse_out = self.inner.map(&coarse_inst, rng);
        // Expand: task → its cluster's resource.
        let assign: Vec<usize> = cluster
            .iter()
            .map(|&c| coarse_out.mapping.resource_of(c))
            .collect();
        let cost = exec_time(inst, &assign);
        MapperOutcome {
            mapping: Mapping::new(assign),
            cost,
            evaluations: coarse_out.evaluations,
            iterations: coarse_out.iterations,
            elapsed: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::RandomSearch;
    use match_ga::{FastMapGa, GaConfig};
    use match_graph::gen::paper::PaperFamilyConfig;
    use rand::SeedableRng;

    fn many_to_one_instance(tasks: usize, resources: usize, seed: u64) -> MappingInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let tig = PaperFamilyConfig::new(tasks).generate_tig(&mut rng);
        let platform = PaperFamilyConfig::new(resources).generate_platform(&mut rng);
        MappingInstance::from_pair(&InstancePair {
            tig,
            resources: platform,
        })
    }

    fn tig(n: usize, seed: u64) -> TaskGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        PaperFamilyConfig::new(n).generate_tig(&mut rng)
    }

    #[test]
    fn clustering_produces_dense_ids_within_k() {
        let t = tig(20, 1);
        for k in [1, 3, 7, 20, 30] {
            let c = cluster_tig(&t, k, 2.0);
            assert_eq!(c.len(), 20);
            let max = c.iter().copied().max().unwrap();
            assert!(max < k.min(20), "k={k}: max id {max}");
            // Dense: every id 0..=max appears.
            for id in 0..=max {
                assert!(c.contains(&id), "k={k}: id {id} missing");
            }
        }
    }

    #[test]
    fn coarsening_conserves_weight_and_volume() {
        let t = tig(15, 2);
        let c = cluster_tig(&t, 4, 2.0);
        let k = c.iter().copied().max().unwrap() + 1;
        let coarse = coarsen_tig(&t, &c, k);
        assert!((coarse.total_computation() - t.total_computation()).abs() < 1e-9);
        // Cross-cluster volume ≤ total volume (intra disappears).
        assert!(coarse.total_comm_volume() <= t.total_comm_volume() + 1e-9);
    }

    #[test]
    fn heavy_edges_merge_first() {
        // A path with one dominant edge: with k = n-1 clusters exactly
        // that edge's endpoints must share a cluster.
        let mut g = Graph::from_node_weights(vec![1.0; 4]).unwrap();
        g.add_edge(0, 1, 5.0).unwrap();
        g.add_edge(1, 2, 100.0).unwrap();
        g.add_edge(2, 3, 5.0).unwrap();
        let t = TaskGraph::new(g).unwrap();
        let c = cluster_tig(&t, 3, 10.0);
        assert_eq!(c[1], c[2], "heaviest edge not merged: {c:?}");
        assert_ne!(c[0], c[3]);
    }

    #[test]
    fn scheme_maps_many_to_one_validly() {
        let inst = many_to_one_instance(24, 6, 3);
        let scheme = FastMapScheme::new(FastMapGa::new(GaConfig {
            population: 40,
            generations: 60,
            ..GaConfig::paper_default()
        }));
        let out = scheme.map(&inst, &mut StdRng::seed_from_u64(4));
        assert!(out.mapping.validate(&inst).is_ok());
        assert!(out.mapping.as_slice().iter().all(|&s| s < 6));
        assert_eq!(out.cost, exec_time(&inst, out.mapping.as_slice()));
    }

    #[test]
    fn clustering_beats_flat_random_on_many_to_one() {
        let inst = many_to_one_instance(30, 5, 5);
        let scheme = FastMapScheme::new(RandomSearch::new(2000));
        let flat = RandomSearch::new(2000);
        let hier = scheme.map(&inst, &mut StdRng::seed_from_u64(6));
        let base = flat.map(&inst, &mut StdRng::seed_from_u64(6));
        assert!(
            hier.cost < base.cost,
            "hierarchical {} vs flat {}",
            hier.cost,
            base.cost
        );
    }

    #[test]
    fn square_instance_reduces_to_inner_mapper_space() {
        // With |V_t| = |V_r| the balance cap keeps tasks separate, so
        // the coarse problem has one task per cluster.
        let mut rng = StdRng::seed_from_u64(7);
        let pair = PaperFamilyConfig::new(8).generate(&mut rng);
        let inst = MappingInstance::from_pair(&pair);
        let scheme = FastMapScheme::new(RandomSearch::new(500));
        let out = scheme.map(&inst, &mut rng);
        assert!(out.mapping.validate(&inst).is_ok());
    }
}
