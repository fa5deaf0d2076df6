//! The execution-time cost model (paper Eq. 1 and Eq. 2).
//!
//! For a mapping `M`, resource `s` spends
//!
//! ```text
//! Exec_s = Σ_{t: M(t)=s} W^t·w_s                         (processing)
//!        + Σ_{t: M(t)=s} Σ_{a ∈ N(t), M(a)=b ≠ s} C^{t,a}·c_{s,b}   (communication)
//! ```
//!
//! and the application execution time is `Exec = max_s Exec_s`. Tasks
//! co-located with a neighbour exchange data for free (`b = s` terms are
//! skipped), which is exactly why mapping quality matters.
//!
//! [`IncrementalCost`] maintains the per-resource loads under task moves
//! and swaps with an O(degree) delta per operation — the delta evaluation
//! that makes the local-search baselines (hill climbing, simulated
//! annealing) competitive in evaluation count with MaTCH. A max
//! tournament tree over the loads keeps Eq. 2 current:
//! [`IncrementalCost::cost`] reads its root in O(1), and a peek costs the
//! delta plus a max over the touched resources (the moved tasks'
//! resources and their neighbours'). Only when the busiest resource
//! itself is touched does it take the max over all n loads, and that max
//! runs over eight independent lanes, not one serial fold. Because Eq. 2
//! is a max, an operation that touches no busiest resource cannot lower
//! it; [`IncrementalCost::touches_max`] names the tasks whose operations
//! can, so local search peeks only those.
//!
//! Every Eq. 2 here, [`exec_time`] included, goes through that one
//! lane max, `makespan`, which returns the serial `fold(0.0, f64::max)`'s
//! bits (its comment gives the argument).

use crate::problem::MappingInstance;

/// Per-resource execution times (Eq. 1) written into `loads`
/// (resized/overwritten).
pub fn exec_per_resource_into(inst: &MappingInstance, assign: &[usize], loads: &mut Vec<f64>) {
    debug_assert_eq!(assign.len(), inst.n_tasks());
    loads.clear();
    loads.resize(inst.n_resources(), 0.0);
    for (t, &s) in assign.iter().enumerate() {
        loads[s] += task_load(inst, assign, t);
    }
}

/// What task `t` adds to its resource's Eq. 1 load under `assign`: its
/// processing term plus its communication with every neighbour placed
/// elsewhere, summed in adjacency order. [`exec_per_resource_into`]
/// adds these to zeroed loads in task order, so on a bijection a
/// resource's fresh load is exactly `0.0 + task_load` of the task on it.
pub(crate) fn task_load(inst: &MappingInstance, assign: &[usize], t: usize) -> f64 {
    let s = assign[t];
    let mut acc = inst.computation(t) * inst.processing_cost(s);
    for (a, c) in inst.interactions(t) {
        let b = assign[a];
        if b != s {
            acc += c * inst.link_cost(s, b);
        }
    }
    acc
}

/// Per-resource execution times (Eq. 1), freshly allocated.
pub fn exec_per_resource(inst: &MappingInstance, assign: &[usize]) -> Vec<f64> {
    let mut loads = Vec::new();
    exec_per_resource_into(inst, assign, &mut loads);
    loads
}

/// Application execution time (Eq. 2): the busiest resource's time.
///
/// Returns `0.0` for an empty instance.
///
/// ```
/// use match_core::{exec_time, MappingInstance};
/// use match_graph::gen::InstanceGenerator;
/// use rand::{SeedableRng, rngs::StdRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let pair = InstanceGenerator::paper_family(6).generate(&mut rng);
/// let inst = MappingInstance::from_pair(&pair);
/// // Identity mapping: task t runs on resource t.
/// let et = exec_time(&inst, &[0, 1, 2, 3, 4, 5]);
/// assert!(et > 0.0);
/// // Co-locating everything removes all communication cost.
/// let colocated = exec_time(&inst, &[0; 6]);
/// assert!(colocated < et);
/// ```
pub fn exec_time(inst: &MappingInstance, assign: &[usize]) -> f64 {
    debug_assert_eq!(assign.len(), inst.n_tasks());
    // One pass without materialising the load vector would double-count
    // communication bookkeeping; with n ≤ a few hundred the vector is
    // cheap and keeps the code identical to Eq. 1.
    makespan(&exec_per_resource(inst, assign))
}

/// [`exec_time`] writing the Eq. 1 loads into a caller-owned scratch
/// vector instead of allocating one per call. Hot recomputation loops —
/// the verify oracle re-scoring thousands of samples, delta-update
/// cross-checks — call this with one reused buffer.
pub fn exec_time_with(inst: &MappingInstance, assign: &[usize], scratch: &mut Vec<f64>) -> f64 {
    exec_per_resource_into(inst, assign, scratch);
    makespan(scratch)
}

/// Eq. 2 over precomputed Eq. 1 loads: the largest, or `+0.0` if none is
/// positive. NaN entries are skipped.
///
/// Eight independent lane maxima, met at the end, instead of one serial
/// `f64::max` chain, so the compiler can pack the lanes into vector
/// registers. Each step keeps `x` only when `x > acc`, so the result is
/// the largest positive load, or the `+0.0` floor. That value does not
/// depend on the order the loads are visited in: two positive doubles
/// that compare equal have the same bits, a NaN never compares greater
/// (it is skipped, as `f64::max` skips it), and no lane ever leaves
/// `+0.0` for `-0.0`. So it returns `fold(0.0, f64::max)`'s bits whenever
/// some load is positive, and always on the loads Eq. 1 and its deltas
/// produce, none of which is `-0.0`.
pub(crate) fn makespan(loads: &[f64]) -> f64 {
    const W: usize = 8;
    let keep_greater = |acc: f64, x: f64| if x > acc { x } else { acc };
    let mut lanes = [0.0f64; W];
    let mut chunks = loads.chunks_exact(W);
    for chunk in &mut chunks {
        for (acc, &x) in lanes.iter_mut().zip(chunk) {
            *acc = keep_greater(*acc, x);
        }
    }
    let tail = chunks
        .remainder()
        .iter()
        .fold(0.0, |m, &x| keep_greater(m, x));
    lanes.iter().fold(tail, |m, &x| keep_greater(m, x))
}

/// A borrowed view bundling an instance with its cost functions — the
/// objective object handed to CE, the GA and the baselines.
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    inst: &'a MappingInstance,
}

impl<'a> CostModel<'a> {
    /// Wrap an instance.
    pub fn new(inst: &'a MappingInstance) -> Self {
        CostModel { inst }
    }

    /// The instance.
    pub fn instance(&self) -> &'a MappingInstance {
        self.inst
    }

    /// Eq. 2 for `assign`.
    pub fn evaluate(&self, assign: &[usize]) -> f64 {
        exec_time(self.inst, assign)
    }

    /// Eq. 1 for `assign`.
    pub fn per_resource(&self, assign: &[usize]) -> Vec<f64> {
        exec_per_resource(self.inst, assign)
    }
}

/// Delta-update `loads` (Eq. 1 per-resource times) for moving task `t`
/// to resource `new_r`, in O(degree(t)).
///
/// `assign` and `loads` must be consistent on entry (`loads` equal to
/// [`exec_per_resource`] of `assign`); on return `assign[t] == new_r`
/// and `loads` is consistent again. This is the flat-buffer form of
/// [`IncrementalCost::apply_move`], shared by the local-search
/// baselines and the batched GA mutation path, where the assignment
/// and load vectors live in caller-owned reused buffers.
pub fn apply_move_delta(
    inst: &MappingInstance,
    assign: &mut [usize],
    loads: &mut [f64],
    t: usize,
    new_r: usize,
) {
    let old_r = assign[t];
    if old_r == new_r {
        return;
    }
    // Processing term.
    loads[old_r] -= inst.computation(t) * inst.processing_cost(old_r);
    loads[new_r] += inst.computation(t) * inst.processing_cost(new_r);
    // Communication terms: t's own, and each neighbour's toward t.
    for (a, c) in inst.interactions(t) {
        let b = assign[a];
        // t paid c·link(old_r, b) if split; now pays c·link(new_r, b).
        if b != old_r {
            loads[old_r] -= c * inst.link_cost(old_r, b);
        }
        if b != new_r {
            loads[new_r] += c * inst.link_cost(new_r, b);
        }
        // Neighbour a paid c·link(b, old_r) if split; symmetric update.
        if b != old_r {
            loads[b] -= c * inst.link_cost(b, old_r);
        }
        if b != new_r {
            loads[b] += c * inst.link_cost(b, new_r);
        }
    }
    assign[t] = new_r;
}

/// Delta-update `loads` for swapping the resources of tasks `t1` and
/// `t2` (keeps bijectivity), in O(degree(t1) + degree(t2)).
///
/// Flat-buffer form of [`IncrementalCost::apply_swap`]; see
/// [`apply_move_delta`] for the buffer contract.
pub fn apply_swap_delta(
    inst: &MappingInstance,
    assign: &mut [usize],
    loads: &mut [f64],
    t1: usize,
    t2: usize,
) {
    let r1 = assign[t1];
    let r2 = assign[t2];
    // Two sequential moves are correct because every load update reads
    // the *current* assignment.
    apply_move_delta(inst, assign, loads, t1, r2);
    apply_move_delta(inst, assign, loads, t2, r1);
}

/// Incrementally maintained per-resource loads under task moves.
///
/// Beside the loads it keeps a max tournament tree over them, so Eq. 2
/// is the root. A peek saves the bits of the loads its delta touches,
/// applies the delta, takes the max of the root and the touched loads,
/// and writes the saved bits back, so it leaves the state exactly as it
/// found it and returns bit for bit what the matching `apply_*` would
/// leave in [`cost`](Self::cost), whatever the weights. Every cost it
/// returns is bit-equal to folding `loads` with `f64::max` from `0.0`.
#[derive(Debug, Clone)]
pub struct IncrementalCost<'a> {
    inst: &'a MappingInstance,
    assign: Vec<usize>,
    loads: Vec<f64>,
    /// Max tournament tree: leaf `s` at `width + s`, node `i` holds the
    /// max of nodes `2i` and `2i + 1`, padding leaves hold `-∞`. Leaves
    /// equal `loads` bit for bit between operations.
    tree: Vec<f64>,
    /// A resource whose load equals the root.
    max_at: usize,
    /// Reused by every peek: each resource its delta touches, with the
    /// load it held before the delta.
    saved: Vec<(usize, f64)>,
}

/// Two instances are equal when their loads and assignments are; the
/// tree and the argmax are caches derived from the loads.
impl PartialEq for IncrementalCost<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.inst == other.inst && self.assign == other.assign && self.loads == other.loads
    }
}

impl<'a> IncrementalCost<'a> {
    /// Initialise from an assignment.
    pub fn new(inst: &'a MappingInstance, assign: Vec<usize>) -> Self {
        let loads = exec_per_resource(inst, &assign);
        let width = loads.len().next_power_of_two();
        let mut tree = vec![f64::NEG_INFINITY; 2 * width];
        tree[width..width + loads.len()].copy_from_slice(&loads);
        for i in (1..width).rev() {
            tree[i] = tree[2 * i].max(tree[2 * i + 1]);
        }
        let mut inc = IncrementalCost {
            inst,
            assign,
            loads,
            tree,
            max_at: 0,
            saved: Vec::new(),
        };
        inc.max_at = inc.argmax();
        inc
    }

    /// Current assignment.
    pub fn assign(&self) -> &[usize] {
        &self.assign
    }

    /// Current per-resource loads (Eq. 1).
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Current makespan (Eq. 2), read from the root in O(1).
    pub fn cost(&self) -> f64 {
        let c = self.tree[1].max(0.0);
        debug_assert_eq!(c.to_bits(), makespan(&self.loads).to_bits());
        c
    }

    /// Move task `t` to `new_r`, updating loads in O(degree(t)).
    pub fn apply_move(&mut self, t: usize, new_r: usize) {
        let old_r = self.assign[t];
        apply_move_delta(self.inst, &mut self.assign, &mut self.loads, t, new_r);
        self.resync(&[t], [old_r, new_r]);
    }

    /// Swap the resources of tasks `t1` and `t2` (keeps bijectivity).
    pub fn apply_swap(&mut self, t1: usize, t2: usize) {
        let (r1, r2) = (self.assign[t1], self.assign[t2]);
        apply_swap_delta(self.inst, &mut self.assign, &mut self.loads, t1, t2);
        self.resync(&[t1, t2], [r1, r2]);
    }

    /// Cost after hypothetically moving `t` to `new_r` (state unchanged).
    pub fn peek_move(&mut self, t: usize, new_r: usize) -> f64 {
        let old_r = self.assign[t];
        self.save_touched(&[t], [old_r, new_r]);
        apply_move_delta(self.inst, &mut self.assign, &mut self.loads, t, new_r);
        let c = self.touched_cost();
        self.assign[t] = old_r;
        self.restore_touched();
        c
    }

    /// Cost after hypothetically swapping `t1` and `t2` (state unchanged).
    pub fn peek_swap(&mut self, t1: usize, t2: usize) -> f64 {
        let (r1, r2) = (self.assign[t1], self.assign[t2]);
        self.save_touched(&[t1, t2], [r1, r2]);
        apply_swap_delta(self.inst, &mut self.assign, &mut self.loads, t1, t2);
        let c = self.touched_cost();
        self.assign[t1] = r1;
        self.assign[t2] = r2;
        self.restore_touched();
        c
    }

    /// Whether an operation on `t` can lower Eq. 2 at all: `t`'s
    /// resource, or a TIG neighbour's, is a busiest one (its load is the
    /// maximum load).
    ///
    /// A swap writes only the two ends' loads and the loads of the
    /// swapped tasks' neighbours' resources. When neither task passes
    /// this test the busiest loads keep their bits, so the peek is at
    /// least [`cost`](Self::cost). A move of a task that fails it writes
    /// at most its target among the busiest resources, and only adds
    /// non-negative terms there, so it cannot lower Eq. 2 either. (The
    /// one exception is `0·∞`: a zero-volume interaction across an
    /// unreachable pair adds NaN, which Eq. 2's max skips.)
    pub fn touches_max(&self, t: usize) -> bool {
        self.on_max(self.assign[t])
            || self
                .inst
                .interactions(t)
                .any(|(a, _)| self.on_max(self.assign[a]))
    }

    /// Every task [`touches_max`](Self::touches_max) holds for, in
    /// ascending id, written into `out`: the tasks on a busiest resource
    /// and their TIG neighbours. A swap scan from a task that fails the
    /// test needs to peek only these partners. O(n) plus the output.
    pub fn max_touching_tasks(&self, out: &mut Vec<usize>) {
        out.clear();
        for (t, &s) in self.assign.iter().enumerate() {
            if self.on_max(s) {
                out.push(t);
                out.extend(self.inst.interactions(t).map(|(a, _)| a));
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Whether resource `s` is a busiest one.
    fn on_max(&self, s: usize) -> bool {
        self.loads[s] == self.tree[1]
    }

    /// Save the loads a delta that moves `tasks` between the resources
    /// `ends` will touch, before it runs.
    fn save_touched(&mut self, tasks: &[usize], ends: [usize; 2]) {
        let (saved, loads) = (&mut self.saved, &self.loads);
        saved.clear();
        for_each_touched(self.inst, &self.assign, tasks, ends, |s| {
            saved.push((s, loads[s]));
        });
    }

    /// Write the saved loads back. A resource saved twice holds the same
    /// bits in both entries, so the order does not matter.
    fn restore_touched(&mut self) {
        for &(s, load) in &self.saved {
            self.loads[s] = load;
        }
    }

    /// Eq. 2 of `loads` after a delta over the saved resources, while
    /// the tree still holds the loads from before it. Untouched loads
    /// are at most the root, so the max is the root widened by the
    /// touched loads — unless the root's own resource was touched, in
    /// which case only the max over every load knows what replaced it.
    fn touched_cost(&self) -> f64 {
        let mut c = self.tree[1];
        let mut argmax_touched = false;
        for &(s, _) in &self.saved {
            argmax_touched |= s == self.max_at;
            c = c.max(self.loads[s]);
        }
        let c = if argmax_touched {
            makespan(&self.loads)
        } else {
            c.max(0.0)
        };
        debug_assert_eq!(c.to_bits(), makespan(&self.loads).to_bits());
        c
    }

    /// Bring the tree back in line with `loads` after a delta that moved
    /// `tasks` between the resources `ends`: each touched leaf whose bits
    /// changed is rewritten, and its ancestors re-maxed up to the first
    /// one that keeps its bits.
    fn resync(&mut self, tasks: &[usize], ends: [usize; 2]) {
        let width = self.tree.len() / 2;
        let (tree, loads) = (&mut self.tree, &self.loads);
        for_each_touched(self.inst, &self.assign, tasks, ends, |s| {
            let mut i = width + s;
            if tree[i].to_bits() == loads[s].to_bits() {
                return;
            }
            tree[i] = loads[s];
            while i > 1 {
                i /= 2;
                let m = tree[2 * i].max(tree[2 * i + 1]);
                if m.to_bits() == tree[i].to_bits() {
                    break;
                }
                tree[i] = m;
            }
        });
        if self.tree[width + self.max_at].to_bits() != self.tree[1].to_bits() {
            self.max_at = self.argmax();
        }
    }

    /// The leaf the root's value comes from, found by descending through
    /// the child that holds the parent's bits (the left one on ties).
    fn argmax(&self) -> usize {
        let width = self.tree.len() / 2;
        let mut i = 1;
        while i < width {
            i = 2 * i + usize::from(self.tree[2 * i].to_bits() != self.tree[i].to_bits());
        }
        i - width
    }
}

/// Call `f` on every resource a delta that moved `tasks` between the
/// resources `ends` touches: the two ends, and the resources of the
/// tasks' TIG neighbours. Only the moved tasks change resource, and only
/// between the ends, so `assign` may be read before or after the delta.
pub(crate) fn for_each_touched(
    inst: &MappingInstance,
    assign: &[usize],
    tasks: &[usize],
    ends: [usize; 2],
    mut f: impl FnMut(usize),
) {
    f(ends[0]);
    f(ends[1]);
    for &t in tasks {
        for (a, _) in inst.interactions(t) {
            f(assign[a]);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::problem::MappingInstance;
    use match_graph::gen::InstanceGenerator;
    use match_graph::graph::Graph;
    use match_graph::{ResourceGraph, TaskGraph};
    use match_rngutil::perm::random_permutation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + b.abs())
    }

    /// The 3-task / 3-resource instance from problem.rs, rebuilt here.
    fn tiny() -> MappingInstance {
        let mut tg = Graph::from_node_weights(vec![1.0, 2.0, 3.0]).unwrap();
        tg.add_edge(0, 1, 10.0).unwrap();
        tg.add_edge(1, 2, 20.0).unwrap();
        let tig = TaskGraph::new(tg).unwrap();
        let mut rg = Graph::from_node_weights(vec![1.0, 2.0, 4.0]).unwrap();
        rg.add_edge(0, 1, 5.0).unwrap();
        rg.add_edge(1, 2, 5.0).unwrap();
        rg.add_edge(0, 2, 7.0).unwrap();
        let resources = ResourceGraph::new(rg).unwrap();
        MappingInstance::new(&tig, &resources)
    }

    #[test]
    fn hand_computed_identity_mapping() {
        // M = identity: task t on resource t.
        // Exec_0 = W0·w0 + C01·c01           = 1·1 + 10·5          = 51
        // Exec_1 = W1·w1 + C01·c01 + C12·c12 = 2·2 + 10·5 + 20·5   = 154
        // Exec_2 = W2·w2 + C12·c12           = 3·4 + 20·5          = 112
        let inst = tiny();
        let loads = exec_per_resource(&inst, &[0, 1, 2]);
        assert_eq!(loads, vec![51.0, 154.0, 112.0]);
        assert_eq!(exec_time(&inst, &[0, 1, 2]), 154.0);
    }

    #[test]
    fn colocated_tasks_skip_communication() {
        // All tasks on resource 0: pure processing, w0 = 1.
        // Exec_0 = (1 + 2 + 3)·1 = 6.
        let inst = tiny();
        let loads = exec_per_resource(&inst, &[0, 0, 0]);
        assert_eq!(loads, vec![6.0, 0.0, 0.0]);
        assert_eq!(exec_time(&inst, &[0, 0, 0]), 6.0);
    }

    #[test]
    fn hand_computed_permuted_mapping() {
        // M = [2, 0, 1]: task0→r2, task1→r0, task2→r1.
        // Exec_2 = W0·w2 + C01·c20 = 1·4 + 10·7            = 74
        // Exec_0 = W1·w0 + C01·c02 + C12·c01 = 2·1 + 70 + 100 = 172
        // Exec_1 = W2·w1 + C12·c10 = 3·2 + 20·5            = 106
        let inst = tiny();
        let loads = exec_per_resource(&inst, &[2, 0, 1]);
        assert_eq!(loads, vec![172.0, 106.0, 74.0]);
        assert_eq!(exec_time(&inst, &[2, 0, 1]), 172.0);
    }

    #[test]
    fn cost_model_wrapper_agrees() {
        let inst = tiny();
        let cm = CostModel::new(&inst);
        assert_eq!(cm.evaluate(&[0, 1, 2]), 154.0);
        assert_eq!(cm.per_resource(&[0, 0, 0]), vec![6.0, 0.0, 0.0]);
    }

    /// Every length 0–70 covers each remainder of the eight lanes, with
    /// the values a max must treat with care mixed in: the lane max must
    /// return the serial fold's bits when some entry is positive and
    /// `+0.0` otherwise.
    #[test]
    fn makespan_matches_the_serial_fold() {
        let special = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            -3.5,
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        let mut rng = StdRng::seed_from_u64(0x9e37_79b9);
        for len in 0..=70 {
            for trial in 0..24 {
                // A third of the vectors hold no positive entry.
                let positive = trial % 3 != 0;
                let mut loads: Vec<f64> = (0..len)
                    .map(|_| {
                        let x = if rng.random_range(0..4) == 0 {
                            special[rng.random_range(0..special.len())]
                        } else {
                            rng.random_range(-50.0..50.0)
                        };
                        if !positive && x > 0.0 {
                            -x
                        } else {
                            x
                        }
                    })
                    .collect();
                // Put a single largest value at every position in turn.
                if positive && len > 0 && trial % 2 == 0 {
                    loads[trial % len] = 1e300;
                }
                let want = if loads.iter().any(|&x| x > 0.0) {
                    loads.iter().copied().fold(0.0, f64::max)
                } else {
                    0.0
                };
                assert_eq!(
                    makespan(&loads).to_bits(),
                    want.to_bits(),
                    "len {len}, trial {trial}, loads {loads:?}"
                );
            }
        }
        for loads in [
            vec![f64::NAN; 40],
            vec![-0.0; 33],
            vec![f64::NEG_INFINITY; 17],
            vec![-1.0, f64::NAN, -0.0, f64::NEG_INFINITY, -2.0],
        ] {
            assert_eq!(makespan(&loads).to_bits(), 0.0f64.to_bits(), "{loads:?}");
        }
    }

    #[test]
    fn exec_time_with_reuses_scratch_and_matches() {
        let inst = tiny();
        let mut scratch = Vec::new();
        for assign in [[0usize, 1, 2], [2, 0, 1], [0, 0, 0]] {
            let got = exec_time_with(&inst, &assign, &mut scratch);
            assert_eq!(got.to_bits(), exec_time(&inst, &assign).to_bits());
            assert_eq!(scratch, exec_per_resource(&inst, &assign));
        }
    }

    #[test]
    fn incremental_move_matches_full_recompute() {
        let mut rng = StdRng::seed_from_u64(11);
        let pair = InstanceGenerator::paper_family(14).generate(&mut rng);
        let inst = MappingInstance::from_pair(&pair);
        let start = random_permutation(14, &mut rng);
        let mut inc = IncrementalCost::new(&inst, start);
        for _ in 0..300 {
            let t = rng.random_range(0..14);
            let r = rng.random_range(0..14);
            inc.apply_move(t, r);
            let want = exec_per_resource(&inst, inc.assign());
            for (s, (&got, &w)) in inc.loads().iter().zip(&want).enumerate() {
                assert!(close(got, w, 1e-9), "resource {s}: {got} vs {w}");
            }
            assert!(close(inc.cost(), exec_time(&inst, inc.assign()), 1e-9));
        }
    }

    #[test]
    fn incremental_swap_matches_full_recompute() {
        let mut rng = StdRng::seed_from_u64(12);
        let pair = InstanceGenerator::paper_family(12).generate(&mut rng);
        let inst = MappingInstance::from_pair(&pair);
        let start = random_permutation(12, &mut rng);
        let mut inc = IncrementalCost::new(&inst, start);
        for _ in 0..300 {
            let a = rng.random_range(0..12);
            let b = rng.random_range(0..12);
            inc.apply_swap(a, b);
            assert!(
                close(inc.cost(), exec_time(&inst, inc.assign()), 1e-9),
                "after swap {a} <-> {b}"
            );
            // Swaps preserve bijectivity.
            assert!(match_rngutil::perm::is_permutation(inc.assign()));
        }
    }

    #[test]
    fn peek_leaves_state_unchanged() {
        let mut rng = StdRng::seed_from_u64(13);
        let pair = InstanceGenerator::paper_family(10).generate(&mut rng);
        let inst = MappingInstance::from_pair(&pair);
        let start = random_permutation(10, &mut rng);
        let mut inc = IncrementalCost::new(&inst, start.clone());
        let before_cost = inc.cost();
        let peeked = inc.peek_move(3, 7);
        assert_eq!(inc.assign(), &start[..]);
        assert!(close(inc.cost(), before_cost, 1e-12));
        // And the peeked value is what applying would give.
        let mut applied = IncrementalCost::new(&inst, start.clone());
        applied.apply_move(3, 7);
        assert!(close(peeked, applied.cost(), 1e-9));

        let peeked = inc.peek_swap(2, 8);
        assert_eq!(inc.assign(), &start[..]);
        let mut applied = IncrementalCost::new(&inst, start);
        applied.apply_swap(2, 8);
        assert!(close(peeked, applied.cost(), 1e-9));
    }

    /// A random TIG on a complete platform, all weights fractional, so
    /// deltas round.
    pub(crate) fn uneven(n: usize, m: usize, rng: &mut StdRng) -> MappingInstance {
        let mut tg = Graph::new();
        for _ in 0..n {
            tg.add_node(rng.random_range(0.1..10.0)).unwrap();
        }
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.random::<f64>() < 0.3 {
                    tg.add_edge(u, v, rng.random_range(0.1..8.0)).unwrap();
                }
            }
        }
        let mut rg = Graph::new();
        for _ in 0..m {
            rg.add_node(rng.random_range(0.5..4.0)).unwrap();
        }
        for s in 0..m {
            for b in (s + 1)..m {
                rg.add_edge(s, b, rng.random_range(0.2..3.0)).unwrap();
            }
        }
        MappingInstance::new(
            &TaskGraph::new(tg).unwrap(),
            &ResourceGraph::new(rg).unwrap(),
        )
    }

    #[test]
    fn peeks_leave_the_loads_bit_identical() {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(14);
        let inst = uneven(16, 16, &mut rng);
        let mut inc = IncrementalCost::new(&inst, random_permutation(16, &mut rng));
        let before = bits(inc.loads());
        for _ in 0..400 {
            let (t, u, r) = (
                rng.random_range(0..16),
                rng.random_range(0..16),
                rng.random_range(0..16),
            );
            inc.peek_swap(t, u);
            assert_eq!(bits(inc.loads()), before, "after peek_swap({t}, {u})");
            inc.peek_move(t, r);
            assert_eq!(bits(inc.loads()), before, "after peek_move({t}, {r})");
        }
    }

    /// The rule local search prunes by: an operation whose tasks all
    /// fail `touches_max` never peeks below the current cost, and
    /// `max_touching_tasks` lists exactly the tasks that pass.
    #[test]
    fn operations_away_from_the_busiest_resources_cannot_lower_eq2() {
        let mut rng = StdRng::seed_from_u64(15);
        for (n, m) in [(12, 12), (20, 20), (18, 5)] {
            let inst = uneven(n, m, &mut rng);
            let start = if n == m {
                random_permutation(n, &mut rng)
            } else {
                (0..n).map(|_| rng.random_range(0..m)).collect()
            };
            let mut inc = IncrementalCost::new(&inst, start);
            let mut touching = Vec::new();
            for step in 0..30 {
                let cost = inc.cost();
                inc.max_touching_tasks(&mut touching);
                let want: Vec<usize> = (0..n).filter(|&t| inc.touches_max(t)).collect();
                assert_eq!(touching, want, "step {step}");
                assert!(!touching.is_empty());
                let away: Vec<usize> = (0..n).filter(|t| !touching.contains(t)).collect();
                for &t in &away {
                    for &u in &away {
                        assert!(inc.peek_swap(t, u) >= cost, "swap({t}, {u})");
                    }
                    for r in 0..m {
                        assert!(inc.peek_move(t, r) >= cost, "move({t}, {r})");
                    }
                }
                if n == m {
                    inc.apply_swap(rng.random_range(0..n), rng.random_range(0..n));
                } else {
                    inc.apply_move(rng.random_range(0..n), rng.random_range(0..m));
                }
            }
        }
    }

    #[test]
    fn move_to_same_resource_is_noop() {
        let inst = tiny();
        let mut inc = IncrementalCost::new(&inst, vec![0, 1, 2]);
        let before = inc.clone();
        inc.apply_move(1, 1);
        assert_eq!(inc, before);
    }

    #[test]
    fn empty_instance_costs_zero() {
        let tig = TaskGraph::new(Graph::new()).unwrap();
        let res = ResourceGraph::new(Graph::new()).unwrap();
        let inst = MappingInstance::new(&tig, &res);
        assert_eq!(exec_time(&inst, &[]), 0.0);
    }

    #[test]
    fn makespan_is_max_not_sum() {
        let inst = tiny();
        let loads = exec_per_resource(&inst, &[0, 1, 2]);
        let sum: f64 = loads.iter().sum();
        assert!(exec_time(&inst, &[0, 1, 2]) < sum);
        assert_eq!(
            exec_time(&inst, &[0, 1, 2]),
            loads.iter().copied().fold(0.0, f64::max)
        );
    }
}
