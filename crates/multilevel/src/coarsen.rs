//! Iterated heavy-edge coarsening of a mapping instance.
//!
//! Each step matches task pairs along the heaviest interaction edges
//! (ties broken by vertex id, so the matching is a pure function of the
//! instance), merges matched pairs, sums their computation weights, and
//! collapses parallel edges by summing volumes. Intra-pair edges vanish
//! from the coarse graph — their weight is *absorbed*: any mapping
//! keeps a merged pair co-located, so Eq. 1 charges nothing for that
//! communication, which is exactly why heavy edges are the right ones
//! to hide first.
//!
//! On square instances the platform is coarsened in lockstep (resource
//! pairs matched along the *cheapest* links, the dual of heavy-edge:
//! close resources act as one), so every level stays square and the
//! paper's bijective GenPerm machinery applies unchanged at the
//! coarsest level. On rectangular instances only tasks are coarsened
//! and the coarse solve falls back to the many-to-one model; every such
//! level keeps its parent's platform, link-cost matrix shared.
//!
//! Both matchings force exactly `⌊n/2⌋` merges per step (leftover free
//! vertices are paired in index order), so the vertex count halves
//! every level and the hierarchy has `O(log n)` depth regardless of the
//! edge structure.

use match_core::MappingInstance;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One coarsening step: the coarse instance plus the maps projecting
/// the *parent* level's vertices onto it.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    /// The coarse instance.
    pub inst: MappingInstance,
    /// Coarse task id of each parent-level task.
    pub task_parent: Vec<u32>,
    /// Coarse resource id of each parent-level resource; `None` when
    /// the platform was carried through unchanged (rectangular path).
    pub res_parent: Option<Vec<u32>>,
    /// Total interaction volume that became intra-cluster at this step.
    /// Conservation invariant: coarse total edge weight + absorbed
    /// equals the parent's total edge weight.
    pub absorbed_comm: f64,
}

/// The coarsening hierarchy. `levels[0]`'s parent is the input
/// instance; `levels.last()` is the coarsest level.
#[derive(Debug, Clone, Default)]
pub struct Hierarchy {
    /// Coarse levels, finest first.
    pub levels: Vec<CoarseLevel>,
}

impl Hierarchy {
    /// Number of coarse levels (0 when the input was already at or
    /// below the coarsen target).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The coarsest instance — the input itself for an empty hierarchy.
    pub fn coarsest<'a>(&'a self, fine: &'a MappingInstance) -> &'a MappingInstance {
        self.levels.last().map(|l| &l.inst).unwrap_or(fine)
    }
}

/// Coarsen `inst` until at most `target` tasks remain. Square inputs
/// are coarsened in lockstep (every level square); rectangular inputs
/// coarsen tasks only.
pub fn coarsen(inst: &MappingInstance, target: usize) -> Hierarchy {
    let lockstep = inst.is_square();
    let mut levels: Vec<CoarseLevel> = Vec::new();
    loop {
        let next = {
            let parent = levels.last().map(|l| &l.inst).unwrap_or(inst);
            if parent.n_tasks() <= target.max(2) {
                break;
            }
            coarsen_step(parent, lockstep)
        };
        levels.push(next);
    }
    Hierarchy { levels }
}

/// One coarsening step of `parent`.
pub fn coarsen_step(parent: &MappingInstance, lockstep: bool) -> CoarseLevel {
    let n = parent.n_tasks();
    let forced = n / 2;
    let task_mate = heavy_edge_mates(parent, forced);
    let (task_parent, task_members) = clusters(&task_mate);
    let n_coarse = task_members.len();

    let task_comp: Vec<f64> = task_members
        .iter()
        .map(|&(a, b)| {
            parent.computation(a as usize) + b.map_or(0.0, |b| parent.computation(b as usize))
        })
        .collect();

    // Collapse parallel edges; BTreeMap keeps accumulation order (and
    // therefore float sums) deterministic.
    let mut acc: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    let mut absorbed = 0.0;
    for t in 0..n {
        for (a, c) in parent.interactions(t) {
            if a <= t {
                continue;
            }
            let (cu, cv) = (task_parent[t], task_parent[a]);
            if cu == cv {
                absorbed += c;
            } else {
                *acc.entry((cu.min(cv), cu.max(cv))).or_insert(0.0) += c;
            }
        }
    }
    let edges: Vec<(u32, u32, f64)> = acc.into_iter().map(|((u, v), w)| (u, v, w)).collect();

    if lockstep {
        let r = parent.n_resources();
        debug_assert_eq!(r, n, "lockstep coarsening needs a square parent");
        let res_mate = min_link_mates(parent, forced);
        let (res_parent, res_members) = clusters(&res_mate);
        debug_assert_eq!(res_members.len(), n_coarse);
        let proc_cost: Vec<f64> = res_members
            .iter()
            .map(|&(a, b)| match b {
                Some(b) => {
                    (parent.processing_cost(a as usize) + parent.processing_cost(b as usize)) / 2.0
                }
                None => parent.processing_cost(a as usize),
            })
            .collect();
        let rc = res_members.len();
        // Filled in place: the matrix is allocated once, already shared.
        let mut link: Arc<[f64]> = std::iter::repeat_n(0.0, rc * rc).collect();
        let cells = Arc::get_mut(&mut link).expect("a fresh Arc has one owner");
        for s in 0..rc {
            for b in 0..rc {
                if s == b {
                    continue;
                }
                let mut sum = 0.0;
                let mut cnt = 0.0;
                for x in member_iter(res_members[s]) {
                    for y in member_iter(res_members[b]) {
                        sum += parent.link_cost(x, y);
                        cnt += 1.0;
                    }
                }
                cells[s * rc + b] = sum / cnt;
            }
        }
        CoarseLevel {
            inst: MappingInstance::from_parts(task_comp, &edges, proc_cost, link),
            task_parent,
            res_parent: Some(res_parent),
            absorbed_comm: absorbed,
        }
    } else {
        CoarseLevel {
            inst: parent.with_tasks(task_comp, &edges),
            task_parent,
            res_parent: None,
            absorbed_comm: absorbed,
        }
    }
}

fn member_iter((a, b): (u32, Option<u32>)) -> impl Iterator<Item = usize> {
    std::iter::once(a as usize).chain(b.map(|b| b as usize))
}

/// Greedy heavy-edge matching forced to exactly `forced` merges:
/// canonical edges sorted by weight descending (ties by endpoint ids),
/// then leftover free vertices paired in index order until the quota is
/// met. Returns `mate[v]` (`== v` for singletons).
fn heavy_edge_mates(parent: &MappingInstance, forced: usize) -> Vec<u32> {
    let n = parent.n_tasks();
    let mut edges: Vec<(f64, u32, u32)> = Vec::with_capacity(parent.adjacency_len() / 2);
    for t in 0..n {
        for (a, c) in parent.interactions(t) {
            if a > t {
                edges.push((c, t as u32, a as u32));
            }
        }
    }
    edges.sort_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));
    greedy_mates(n, forced, edges.iter().map(|&(_, u, v)| (u, v)))
}

/// Matching over the platform: every resource nominates its cheapest
/// link partner, nominations are taken cheapest-first, and the same
/// forced-quota fallback applies. Merging resources joined by cheap
/// links loses the least routing information: the coarse mean link cost
/// stays close to every member pair's true cost.
fn min_link_mates(parent: &MappingInstance, forced: usize) -> Vec<u32> {
    let r = parent.n_resources();
    let mut cand: Vec<(f64, u32, u32)> = Vec::with_capacity(r);
    for s in 0..r {
        let mut best = f64::INFINITY;
        let mut best_b = usize::MAX;
        for b in 0..r {
            if b != s {
                let c = parent.link_cost(s, b);
                if c < best {
                    best = c;
                    best_b = b;
                }
            }
        }
        if best_b != usize::MAX {
            cand.push((best, s as u32, best_b as u32));
        }
    }
    cand.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));
    greedy_mates(r, forced, cand.iter().map(|&(_, u, v)| (u, v)))
}

fn greedy_mates(n: usize, forced: usize, pairs: impl Iterator<Item = (u32, u32)>) -> Vec<u32> {
    let mut mate: Vec<u32> = (0..n as u32).collect();
    let mut merges = 0usize;
    for (u, v) in pairs {
        if merges == forced {
            break;
        }
        let (u, v) = (u as usize, v as usize);
        if u != v && mate[u] == u as u32 && mate[v] == v as u32 {
            mate[u] = v as u32;
            mate[v] = u as u32;
            merges += 1;
        }
    }
    if merges < forced {
        let free: Vec<usize> = (0..n).filter(|&v| mate[v] == v as u32).collect();
        for pair in free.chunks(2) {
            if merges == forced {
                break;
            }
            if let [u, v] = *pair {
                mate[u] = v as u32;
                mate[v] = u as u32;
                merges += 1;
            }
        }
    }
    debug_assert_eq!(merges, forced, "forced matching quota not met");
    mate
}

/// Number coarse clusters in first-encounter order. Returns the
/// parent→coarse map and, per coarse id, its members `(low, Some(high))`
/// or `(v, None)` for singletons.
fn clusters(mate: &[u32]) -> (Vec<u32>, Vec<(u32, Option<u32>)>) {
    let n = mate.len();
    let mut parent_map = vec![u32::MAX; n];
    let mut members: Vec<(u32, Option<u32>)> = Vec::new();
    for v in 0..n {
        if parent_map[v] != u32::MAX {
            continue;
        }
        let id = members.len() as u32;
        let m = mate[v] as usize;
        parent_map[v] = id;
        if m != v {
            parent_map[m] = id;
            members.push((v as u32, Some(m as u32)));
        } else {
            members.push((v as u32, None));
        }
    }
    (parent_map, members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_graph::gen::InstanceGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paper_inst(n: usize, seed: u64) -> MappingInstance {
        MappingInstance::from_pair(
            &InstanceGenerator::paper_family(n).generate(&mut StdRng::seed_from_u64(seed)),
        )
    }

    fn total_edge_weight(inst: &MappingInstance) -> f64 {
        let mut sum = 0.0;
        for t in 0..inst.n_tasks() {
            for (a, c) in inst.interactions(t) {
                if a > t {
                    sum += c;
                }
            }
        }
        sum
    }

    fn total_comp(inst: &MappingInstance) -> f64 {
        (0..inst.n_tasks()).map(|t| inst.computation(t)).sum()
    }

    #[test]
    fn one_step_halves_and_conserves_mass() {
        let inst = paper_inst(20, 3);
        let level = coarsen_step(&inst, true);
        assert_eq!(level.inst.n_tasks(), 10);
        assert_eq!(level.inst.n_resources(), 10);
        let fine_w = total_edge_weight(&inst);
        let coarse_w = total_edge_weight(&level.inst);
        assert!(
            (coarse_w + level.absorbed_comm - fine_w).abs() < 1e-9 * fine_w.max(1.0),
            "edge mass not conserved: {coarse_w} + {} != {fine_w}",
            level.absorbed_comm
        );
        assert!(
            (total_comp(&level.inst) - total_comp(&inst)).abs() < 1e-9 * total_comp(&inst),
            "computation mass not conserved"
        );
    }

    #[test]
    fn odd_size_leaves_one_singleton_per_side() {
        let inst = paper_inst(9, 4);
        let level = coarsen_step(&inst, true);
        assert_eq!(level.inst.n_tasks(), 5);
        assert_eq!(level.inst.n_resources(), 5);
        let singles = level
            .task_parent
            .iter()
            .fold(vec![0usize; 5], |mut acc, &c| {
                acc[c as usize] += 1;
                acc
            });
        assert_eq!(singles.iter().filter(|&&s| s == 1).count(), 1);
        assert_eq!(singles.iter().filter(|&&s| s == 2).count(), 4);
    }

    #[test]
    fn hierarchy_reaches_target_and_stays_square() {
        let inst = paper_inst(50, 5);
        let h = coarsen(&inst, 12);
        assert!(h.depth() >= 2);
        assert!(h.coarsest(&inst).n_tasks() <= 12);
        for level in &h.levels {
            assert!(level.inst.is_square());
            assert!(level.res_parent.is_some());
        }
        // Strictly decreasing level sizes.
        let mut prev = inst.n_tasks();
        for level in &h.levels {
            assert!(level.inst.n_tasks() < prev);
            prev = level.inst.n_tasks();
        }
    }

    #[test]
    fn coarsening_is_deterministic() {
        let inst = paper_inst(30, 6);
        let a = coarsen(&inst, 8);
        let b = coarsen(&inst, 8);
        assert_eq!(a.depth(), b.depth());
        for (x, y) in a.levels.iter().zip(&b.levels) {
            assert_eq!(x.inst, y.inst);
            assert_eq!(x.task_parent, y.task_parent);
            assert_eq!(x.res_parent, y.res_parent);
            assert_eq!(x.absorbed_comm.to_bits(), y.absorbed_comm.to_bits());
        }
    }

    #[test]
    fn rectangular_coarsening_keeps_platform() {
        let pair = InstanceGenerator::paper_family(16).generate(&mut StdRng::seed_from_u64(7));
        let tig = pair.tig;
        let small = InstanceGenerator::paper_family(5)
            .generate(&mut StdRng::seed_from_u64(8))
            .resources;
        let inst = MappingInstance::new(&tig, &small);
        let h = coarsen(&inst, 8);
        assert!(h.depth() >= 1);
        let mut parent = &inst;
        for level in &h.levels {
            assert_eq!(level.inst.n_resources(), 5);
            assert!(level.res_parent.is_none());
            // Every level shares its parent's matrix instead of a copy.
            assert!(Arc::ptr_eq(
                level.inst.link_cost_matrix(),
                parent.link_cost_matrix()
            ));
            parent = &level.inst;
        }
        let c = h.coarsest(&inst);
        assert!(c.n_tasks() <= 8);
        for s in 0..5 {
            assert_eq!(c.processing_cost(s), inst.processing_cost(s));
            for b in 0..5 {
                assert_eq!(c.link_cost(s, b), inst.link_cost(s, b));
            }
        }
    }
}
