//! The mapping problem instance: dense cost tables extracted from a
//! TIG/platform pair.
//!
//! The cost model (Eq. 1) is evaluated tens of thousands of times per CE
//! iteration, so the graph structures are flattened once into cache-
//! friendly arrays: task computation weights, a CSR adjacency of
//! interaction volumes, resource processing costs and the full link-cost
//! matrix.
//!
//! The link-cost matrix is platform data and the one `n²` table, so it
//! is shared, never copied: an instance holds the [`ResourceGraph`]'s
//! matrix behind an [`Arc`], and [`MappingInstance::with_tasks`] builds a
//! new task half around an unchanged platform (re-map epochs, task-only
//! coarse levels).

use match_graph::{InstancePair, ResourceGraph, TaskGraph};
use std::sync::Arc;

/// A flattened mapping-problem instance.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingInstance {
    /// `W^t` per task.
    task_comp: Vec<f64>,
    /// CSR offsets into `adj_targets` / `adj_volumes`, length `n_tasks + 1`.
    adj_offsets: Vec<u32>,
    /// Neighbour task ids, grouped per task.
    adj_targets: Vec<u32>,
    /// `C^{t,a}` per adjacency entry.
    adj_volumes: Vec<f64>,
    /// `w_s` per resource.
    proc_cost: Vec<f64>,
    /// `c_{s,b}` row-major, `n_resources²` entries, shared read-only.
    link_cost: Arc<[f64]>,
}

impl MappingInstance {
    /// Flatten a TIG/platform pair. The link-cost matrix is shared with
    /// `resources`, not copied.
    pub fn new(tig: &TaskGraph, resources: &ResourceGraph) -> Self {
        let n = tig.len();
        let mut adj_offsets = Vec::with_capacity(n + 1);
        let mut adj_targets = Vec::new();
        let mut adj_volumes = Vec::new();
        adj_offsets.push(0u32);
        for t in 0..n {
            for (a, c) in tig.interactions(t) {
                adj_targets.push(a as u32);
                adj_volumes.push(c);
            }
            adj_offsets.push(adj_targets.len() as u32);
        }
        MappingInstance {
            task_comp: (0..n).map(|t| tig.computation(t)).collect(),
            adj_offsets,
            adj_targets,
            adj_volumes,
            proc_cost: (0..resources.len())
                .map(|s| resources.processing_cost(s))
                .collect(),
            link_cost: Arc::clone(resources.link_cost_matrix()),
        }
    }

    /// Flatten an [`InstancePair`].
    pub fn from_pair(pair: &InstancePair) -> Self {
        MappingInstance::new(&pair.tig, &pair.resources)
    }

    /// Assemble an instance directly from flattened parts.
    ///
    /// The multilevel driver builds lockstep coarse levels with this
    /// constructor: a coarse platform's link costs are derived from the
    /// parent level's already-routed matrix, so going back through
    /// [`ResourceGraph`] (which re-runs the all-pairs shortest-path
    /// closure) would be both wasted work and wrong — the coarse matrix
    /// is not a metric closure of any graph. The instance takes over the
    /// caller's `link_cost` handle; the matrix is not copied. To keep an
    /// existing platform, use [`with_tasks`](Self::with_tasks).
    ///
    /// `edges` are canonical undirected interactions `(u, v, volume)`
    /// with `u != v`; parallel entries must already be collapsed.
    /// Panics on malformed input (out-of-range endpoints, non-positive
    /// weights where the graph layer would reject them, or a link
    /// matrix that is not `n_resources²` row-major).
    pub fn from_parts(
        task_comp: Vec<f64>,
        edges: &[(u32, u32, f64)],
        proc_cost: Vec<f64>,
        link_cost: Arc<[f64]>,
    ) -> Self {
        let n_r = proc_cost.len();
        assert!(n_r > 0, "need at least one resource");
        assert_eq!(
            link_cost.len(),
            n_r * n_r,
            "link matrix must be n_resources x n_resources row-major"
        );
        assert!(
            proc_cost.iter().all(|&w| w.is_finite() && w > 0.0),
            "resource processing costs must be finite and positive"
        );
        assert!(
            link_cost.iter().all(|&c| !c.is_nan() && c >= 0.0),
            "link costs must be non-negative"
        );
        Self::assemble(task_comp, edges, proc_cost, link_cost)
    }

    /// A new task half on `self`'s platform: the same processing costs
    /// and the same shared link-cost matrix, with `task_comp` and
    /// `edges` taking the roles they have in [`from_parts`](Self::from_parts).
    ///
    /// Only the task half is validated, with `from_parts`'s checks and
    /// messages. The platform was validated when `self` was built and
    /// cannot change behind the shared handle, so it is not scanned
    /// again — which is what makes a re-map epoch or a task-only coarse
    /// level cost `O(n + |E|)` instead of `O(n²)`.
    pub fn with_tasks(&self, task_comp: Vec<f64>, edges: &[(u32, u32, f64)]) -> Self {
        Self::assemble(
            task_comp,
            edges,
            self.proc_cost.clone(),
            Arc::clone(&self.link_cost),
        )
    }

    /// Validate the task half and lay it out as CSR next to an already
    /// validated platform.
    fn assemble(
        task_comp: Vec<f64>,
        edges: &[(u32, u32, f64)],
        proc_cost: Vec<f64>,
        link_cost: Arc<[f64]>,
    ) -> Self {
        let n = task_comp.len();
        assert!(n > 0, "need at least one task");
        assert!(
            task_comp.iter().all(|&w| w.is_finite() && w > 0.0),
            "task computation weights must be finite and positive"
        );
        let mut degree = vec![0u32; n];
        for &(u, v, w) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n && u != v,
                "interaction endpoints must be distinct in-range tasks"
            );
            assert!(
                w.is_finite() && w >= 0.0,
                "interaction volumes must be finite and non-negative"
            );
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut adj_offsets = Vec::with_capacity(n + 1);
        adj_offsets.push(0u32);
        for t in 0..n {
            adj_offsets.push(adj_offsets[t] + degree[t]);
        }
        let total = adj_offsets[n] as usize;
        let mut cursor: Vec<u32> = adj_offsets[..n].to_vec();
        let mut adj_targets = vec![0u32; total];
        let mut adj_volumes = vec![0.0f64; total];
        for &(u, v, w) in edges {
            let cu = cursor[u as usize] as usize;
            adj_targets[cu] = v;
            adj_volumes[cu] = w;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize] as usize;
            adj_targets[cv] = u;
            adj_volumes[cv] = w;
            cursor[v as usize] += 1;
        }
        MappingInstance {
            task_comp,
            adj_offsets,
            adj_targets,
            adj_volumes,
            proc_cost,
            link_cost,
        }
    }

    /// Number of tasks `|V_t|`.
    pub fn n_tasks(&self) -> usize {
        self.task_comp.len()
    }

    /// Number of resources `|V_r|`.
    pub fn n_resources(&self) -> usize {
        self.proc_cost.len()
    }

    /// True when `|V_t| = |V_r|` (the paper's experimental regime).
    pub fn is_square(&self) -> bool {
        self.n_tasks() == self.n_resources()
    }

    /// `W^t`.
    pub fn computation(&self, t: usize) -> f64 {
        self.task_comp[t]
    }

    /// `w_s`.
    pub fn processing_cost(&self, s: usize) -> f64 {
        self.proc_cost[s]
    }

    /// `c_{s,b}` (0 on the diagonal).
    pub fn link_cost(&self, s: usize, b: usize) -> f64 {
        self.link_cost[s * self.n_resources() + b]
    }

    /// The row-major `c_{s,b}` matrix as its shared handle. Holders
    /// clone the handle, never the matrix.
    pub fn link_cost_matrix(&self) -> &Arc<[f64]> {
        &self.link_cost
    }

    /// Interactions of task `t` as `(neighbour, volume)` pairs.
    pub fn interactions(&self, t: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.adj_offsets[t] as usize;
        let hi = self.adj_offsets[t + 1] as usize;
        self.adj_targets[lo..hi]
            .iter()
            .zip(&self.adj_volumes[lo..hi])
            .map(|(&a, &c)| (a as usize, c))
    }

    /// Interaction degree of task `t`.
    pub fn degree(&self, t: usize) -> usize {
        (self.adj_offsets[t + 1] - self.adj_offsets[t]) as usize
    }

    /// Total number of directed adjacency entries (`2|E_t|`).
    pub fn adjacency_len(&self) -> usize {
        self.adj_targets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_graph::gen::InstanceGenerator;
    use match_graph::graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub(crate) fn tiny_instance() -> MappingInstance {
        // TIG: 0-1 (volume 10), 1-2 (volume 20); W = [1, 2, 3].
        let mut tg = Graph::from_node_weights(vec![1.0, 2.0, 3.0]).unwrap();
        tg.add_edge(0, 1, 10.0).unwrap();
        tg.add_edge(1, 2, 20.0).unwrap();
        let tig = TaskGraph::new(tg).unwrap();
        // Platform: complete K3; w = [1, 2, 4]; links all cost 5 except
        // (0,2) which costs 7.
        let mut rg = Graph::from_node_weights(vec![1.0, 2.0, 4.0]).unwrap();
        rg.add_edge(0, 1, 5.0).unwrap();
        rg.add_edge(1, 2, 5.0).unwrap();
        rg.add_edge(0, 2, 7.0).unwrap();
        let resources = ResourceGraph::new(rg).unwrap();
        MappingInstance::new(&tig, &resources)
    }

    #[test]
    fn flattening_preserves_structure() {
        let inst = tiny_instance();
        assert_eq!(inst.n_tasks(), 3);
        assert_eq!(inst.n_resources(), 3);
        assert!(inst.is_square());
        assert_eq!(inst.computation(2), 3.0);
        assert_eq!(inst.processing_cost(2), 4.0);
        assert_eq!(inst.link_cost(0, 2), 7.0);
        assert_eq!(inst.link_cost(1, 1), 0.0);
        assert_eq!(inst.degree(1), 2);
        assert_eq!(inst.adjacency_len(), 4);
        let n1: Vec<(usize, f64)> = inst.interactions(1).collect();
        assert!(n1.contains(&(0, 10.0)));
        assert!(n1.contains(&(2, 20.0)));
        assert_eq!(inst.interactions(0).collect::<Vec<_>>(), vec![(1, 10.0)]);
    }

    #[test]
    fn from_pair_matches_new() {
        let mut rng = StdRng::seed_from_u64(7);
        let pair = InstanceGenerator::paper_family(12).generate(&mut rng);
        let a = MappingInstance::from_pair(&pair);
        let b = MappingInstance::new(&pair.tig, &pair.resources);
        assert_eq!(a, b);
        assert_eq!(a.n_tasks(), 12);
    }

    #[test]
    fn from_parts_matches_graph_flattening() {
        let mut rng = StdRng::seed_from_u64(11);
        let pair = InstanceGenerator::paper_family(10).generate(&mut rng);
        let via_graphs = MappingInstance::from_pair(&pair);
        let edges: Vec<(u32, u32, f64)> = pair
            .tig
            .graph()
            .edges()
            .map(|(u, v, w)| (u as u32, v as u32, w))
            .collect();
        let rebuilt = MappingInstance::from_parts(
            (0..pair.tig.len())
                .map(|t| pair.tig.computation(t))
                .collect(),
            &edges,
            (0..pair.resources.len())
                .map(|s| pair.resources.processing_cost(s))
                .collect(),
            pair.resources.link_cost_matrix()[..].into(),
        );
        assert_eq!(rebuilt.n_tasks(), via_graphs.n_tasks());
        assert_eq!(rebuilt.n_resources(), via_graphs.n_resources());
        for t in 0..rebuilt.n_tasks() {
            assert_eq!(rebuilt.computation(t), via_graphs.computation(t));
            let mut a: Vec<_> = rebuilt.interactions(t).collect();
            let mut b: Vec<_> = via_graphs.interactions(t).collect();
            a.sort_by_key(|x| x.0);
            b.sort_by_key(|x| x.0);
            assert_eq!(a, b, "task {t} adjacency differs");
        }
        for s in 0..rebuilt.n_resources() {
            assert_eq!(rebuilt.processing_cost(s), via_graphs.processing_cost(s));
            for b in 0..rebuilt.n_resources() {
                assert_eq!(rebuilt.link_cost(s, b), via_graphs.link_cost(s, b));
            }
        }
    }

    #[test]
    #[should_panic(expected = "link matrix must be")]
    fn from_parts_rejects_misshapen_link_matrix() {
        MappingInstance::from_parts(vec![1.0, 2.0], &[], vec![1.0, 1.0], vec![0.0; 3].into());
    }

    #[test]
    #[should_panic(expected = "distinct in-range tasks")]
    fn from_parts_rejects_self_loops() {
        MappingInstance::from_parts(vec![1.0, 2.0], &[(1, 1, 5.0)], vec![1.0], vec![0.0].into());
    }

    /// `pair`'s task half in the form `from_parts` and `with_tasks` take.
    fn task_parts(pair: &InstancePair) -> (Vec<f64>, Vec<(u32, u32, f64)>) {
        let comp = (0..pair.tig.len())
            .map(|t| pair.tig.computation(t))
            .collect();
        let edges = pair
            .tig
            .graph()
            .edges()
            .map(|(u, v, w)| (u as u32, v as u32, w))
            .collect();
        (comp, edges)
    }

    /// Equal as values, through every accessor, down to the bits.
    fn assert_bit_identical(a: &MappingInstance, b: &MappingInstance) {
        assert_eq!(a, b);
        assert_eq!(a.n_tasks(), b.n_tasks());
        assert_eq!(a.n_resources(), b.n_resources());
        assert_eq!(a.is_square(), b.is_square());
        assert_eq!(a.adjacency_len(), b.adjacency_len());
        for t in 0..a.n_tasks() {
            assert_eq!(a.computation(t).to_bits(), b.computation(t).to_bits());
            assert_eq!(a.degree(t), b.degree(t));
            let bits = |i: &MappingInstance| -> Vec<(usize, u64)> {
                i.interactions(t).map(|(x, c)| (x, c.to_bits())).collect()
            };
            assert_eq!(bits(a), bits(b), "task {t} adjacency differs");
        }
        for s in 0..a.n_resources() {
            assert_eq!(
                a.processing_cost(s).to_bits(),
                b.processing_cost(s).to_bits()
            );
            for r in 0..a.n_resources() {
                assert_eq!(a.link_cost(s, r).to_bits(), b.link_cost(s, r).to_bits());
            }
        }
    }

    #[test]
    fn with_tasks_matches_from_parts() {
        let pair = InstanceGenerator::paper_family(14).generate(&mut StdRng::seed_from_u64(21));
        let base = MappingInstance::from_pair(&pair);
        // A task half unlike the base's: new weights, every third edge.
        let (comp, edges) = task_parts(&pair);
        let comp: Vec<f64> = comp.iter().map(|w| w * 0.75 + 0.125).collect();
        let edges: Vec<(u32, u32, f64)> = edges.into_iter().step_by(3).collect();
        let shared = base.with_tasks(comp.clone(), &edges);
        let copied = MappingInstance::from_parts(
            comp,
            &edges,
            (0..base.n_resources())
                .map(|s| base.processing_cost(s))
                .collect(),
            pair.resources.link_cost_matrix()[..].into(),
        );
        assert_bit_identical(&shared, &copied);
        // The base's own task half gives back the base.
        let (comp, edges) = task_parts(&pair);
        assert_bit_identical(&base.with_tasks(comp, &edges), &base);
    }

    #[test]
    fn instances_share_the_platform_matrix() {
        let pair = InstanceGenerator::paper_family(9).generate(&mut StdRng::seed_from_u64(22));
        let inst = MappingInstance::from_pair(&pair);
        let platform = pair.resources.link_cost_matrix();
        assert!(Arc::ptr_eq(inst.link_cost_matrix(), platform));
        assert!(Arc::ptr_eq(inst.clone().link_cost_matrix(), platform));
        let (comp, edges) = task_parts(&pair);
        let epoch = inst.with_tasks(comp.clone(), &edges[..edges.len() / 2]);
        assert!(Arc::ptr_eq(epoch.link_cost_matrix(), platform));
        // `from_parts` owns the matrix it was handed.
        let proc_cost = (0..9).map(|s| inst.processing_cost(s)).collect();
        let owned = MappingInstance::from_parts(comp, &edges, proc_cost, platform[..].into());
        assert!(!Arc::ptr_eq(owned.link_cost_matrix(), platform));
    }

    /// The message a constructor panics with.
    fn panic_message(build: impl FnOnce() -> MappingInstance) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build))
            .expect_err("the constructor must reject its input");
        payload
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("a text panic payload")
    }

    #[test]
    fn with_tasks_rejects_tasks_like_from_parts() {
        let base = tiny_instance();
        let proc_cost: Vec<f64> = (0..3).map(|s| base.processing_cost(s)).collect();
        let link: Arc<[f64]> = base.link_cost_matrix()[..].into();
        let weight = "task computation weights must be finite and positive";
        let endpoints = "interaction endpoints must be distinct in-range tasks";
        let cases = [
            (weight, vec![1.0, 0.0, 3.0], vec![(0u32, 1u32, 1.0f64)]),
            (
                endpoints,
                vec![1.0, 2.0, 3.0],
                vec![(0, 1, 1.0), (2, 2, 4.0)],
            ),
            (endpoints, vec![1.0, 2.0, 3.0], vec![(1, 3, 4.0)]),
        ];
        for (want, comp, edges) in cases {
            let shared = panic_message(|| base.with_tasks(comp.clone(), &edges));
            let copied = panic_message(|| {
                MappingInstance::from_parts(comp.clone(), &edges, proc_cost.clone(), link.clone())
            });
            assert_eq!(shared, want);
            assert_eq!(copied, want);
        }
    }

    #[test]
    fn adjacency_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(8);
        let pair = InstanceGenerator::paper_family(15).generate(&mut rng);
        let inst = MappingInstance::from_pair(&pair);
        for t in 0..15 {
            for (a, c) in inst.interactions(t) {
                assert!(
                    inst.interactions(a).any(|(b, c2)| b == t && c2 == c),
                    "asymmetric adjacency {t} <-> {a}"
                );
            }
        }
    }
}
