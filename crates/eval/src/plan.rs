//! The precomputed structure-of-arrays evaluation plan.

use std::sync::Arc;

/// Cap on `n_tasks · n_resources` above which the `W^t·w_s` processing
/// table is not materialised (4M entries = 32 MiB). Past the cap the
/// kernels multiply `W^t · w_s` on the fly — the exact same product
/// bits, so the cutover is invisible to results.
const PROC_TAB_MAX_ENTRIES: usize = 1 << 22;

/// Everything Eq. 1 / Eq. 2 needs, flattened once per solve into
/// contiguous arrays shared across every iteration's batches:
///
/// * `proc_tab[t·n_r + s] = W^t · w_s` — the processing term as one
///   gather instead of a multiply (dropped above a size cap);
/// * the CSR neighbour/volume arrays (`adj_offsets` / `adj_targets` /
///   `adj_volumes`);
/// * the row-major `c_{s,b}` link matrix, shared with the instance it
///   came from rather than copied.
///
/// Built from raw slices so both `match-core` (which sits *above*
/// `match-ce` in the dependency graph) and the solvers below it can
/// construct one without a cyclic dependency.
#[derive(Debug, Clone, PartialEq)]
pub struct InstancePlan {
    n_tasks: usize,
    n_resources: usize,
    task_comp: Vec<f64>,
    proc_cost: Vec<f64>,
    proc_tab: Option<Vec<f64>>,
    adj_offsets: Vec<u32>,
    adj_targets: Vec<u32>,
    adj_volumes: Vec<f64>,
    link: Arc<[f64]>,
    /// Whether every diagonal entry of `link` is exactly `+0.0`. When
    /// true the lane kernel drops the co-location mask entirely: the
    /// gathered `c_{s,s}` itself supplies the bit-neutral `+0.0` term.
    /// Coarse multilevel matrices can carry non-zero diagonals, so this
    /// is probed at build time rather than assumed.
    diag_zero: bool,
}

impl InstancePlan {
    /// Build a plan from flattened instance parts.
    ///
    /// `adj_offsets` is the usual CSR offset array (`n_tasks + 1`
    /// entries); `link` is `n_resources²` row-major, a handle the plan
    /// shares with its caller (it is only ever read). Computation
    /// weights and processing costs must be positive and finite,
    /// volumes and link costs non-negative — the same invariants
    /// `match_core::MappingInstance` enforces, re-asserted here because
    /// the `+0.0`-masking bit-exactness argument depends on them.
    pub fn new(
        task_comp: Vec<f64>,
        adj_offsets: Vec<u32>,
        adj_targets: Vec<u32>,
        adj_volumes: Vec<f64>,
        proc_cost: Vec<f64>,
        link: Arc<[f64]>,
    ) -> Self {
        let n_tasks = task_comp.len();
        let n_resources = proc_cost.len();
        assert_eq!(adj_offsets.len(), n_tasks + 1, "CSR offsets length");
        assert_eq!(
            adj_offsets.first().copied().unwrap_or(0),
            0,
            "CSR offsets must start at 0"
        );
        assert_eq!(
            *adj_offsets.last().expect("offsets non-empty") as usize,
            adj_targets.len(),
            "CSR offsets must cover the target array"
        );
        assert!(
            adj_offsets.windows(2).all(|w| w[0] <= w[1]),
            "CSR offsets must be monotone"
        );
        assert_eq!(adj_targets.len(), adj_volumes.len(), "CSR arrays length");
        assert!(
            adj_targets.iter().all(|&a| (a as usize) < n_tasks),
            "CSR targets in range"
        );
        assert_eq!(link.len(), n_resources * n_resources, "link matrix shape");
        assert!(
            task_comp.iter().all(|&w| w.is_finite() && w > 0.0),
            "task computation weights must be finite and positive"
        );
        assert!(
            proc_cost.iter().all(|&w| w.is_finite() && w > 0.0),
            "resource processing costs must be finite and positive"
        );
        assert!(
            adj_volumes.iter().all(|&c| c.is_finite() && c >= 0.0),
            "interaction volumes must be finite and non-negative"
        );
        assert!(
            link.iter().all(|&c| !c.is_nan() && c >= 0.0),
            "link costs must be non-negative"
        );
        let diag_zero =
            (0..n_resources).all(|s| link[s * n_resources + s].to_bits() == 0.0f64.to_bits());
        let proc_tab = (n_tasks * n_resources <= PROC_TAB_MAX_ENTRIES
            && n_tasks > 0
            && n_resources > 0)
            .then(|| {
                let mut tab = Vec::with_capacity(n_tasks * n_resources);
                for &w in &task_comp {
                    tab.extend(proc_cost.iter().map(|&p| w * p));
                }
                tab
            });
        InstancePlan {
            n_tasks,
            n_resources,
            task_comp,
            proc_cost,
            proc_tab,
            adj_offsets,
            adj_targets,
            adj_volumes,
            link,
            diag_zero,
        }
    }

    /// Number of tasks (the row width of every batch).
    pub fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Number of resources (the per-row width of a loads output).
    pub fn n_resources(&self) -> usize {
        self.n_resources
    }

    /// Whether the link diagonal is all-`+0.0` (mask-free fast path).
    pub fn diag_zero(&self) -> bool {
        self.diag_zero
    }

    /// Whether the `W^t·w_s` table was materialised (false above the
    /// size cap).
    pub fn has_proc_tab(&self) -> bool {
        self.proc_tab.is_some()
    }

    /// `W^t · w_s` for task `t` on resource `s`, via the table when
    /// present. Identical bits either way: one IEEE-754 multiply.
    #[inline(always)]
    pub(crate) fn proc_term(&self, t: usize, s: usize) -> f64 {
        match &self.proc_tab {
            Some(tab) => tab[t * self.n_resources + s],
            None => self.task_comp[t] * self.proc_cost[s],
        }
    }

    /// CSR range of task `t`.
    #[inline(always)]
    pub(crate) fn csr_range(&self, t: usize) -> std::ops::Range<usize> {
        self.adj_offsets[t] as usize..self.adj_offsets[t + 1] as usize
    }

    #[inline(always)]
    pub(crate) fn csr_target(&self, k: usize) -> usize {
        self.adj_targets[k] as usize
    }

    #[inline(always)]
    pub(crate) fn csr_volume(&self, k: usize) -> f64 {
        self.adj_volumes[k]
    }

    #[inline(always)]
    pub(crate) fn link_cost(&self, s: usize, b: usize) -> f64 {
        self.link[s * self.n_resources + b]
    }

    /// The raw CSR arrays `(offsets, targets, volumes)`, for kernels
    /// that walk a task's whole adjacency as one slice pass.
    #[inline(always)]
    pub(crate) fn csr_parts(&self) -> (&[u32], &[u32], &[f64]) {
        (&self.adj_offsets, &self.adj_targets, &self.adj_volumes)
    }

    /// The flat row-major link matrix, for kernels that gather with
    /// precomputed `s·n_r` row bases.
    #[inline(always)]
    pub(crate) fn link_flat(&self) -> &[f64] {
        &self.link
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3_plan(link: Vec<f64>) -> InstancePlan {
        // Tasks 0-1-2 in a path; W = [1, 2, 3]; w = [1, 2, 4].
        InstancePlan::new(
            vec![1.0, 2.0, 3.0],
            vec![0, 1, 3, 4],
            vec![1, 0, 2, 1],
            vec![10.0, 10.0, 20.0, 20.0],
            vec![1.0, 2.0, 4.0],
            link.into(),
        )
    }

    fn zero_diag_link() -> Vec<f64> {
        vec![0.0, 5.0, 7.0, 5.0, 0.0, 5.0, 7.0, 5.0, 0.0]
    }

    #[test]
    fn probes_the_link_diagonal() {
        assert!(path3_plan(zero_diag_link()).diag_zero());
        let mut coarse = zero_diag_link();
        coarse[4] = 2.5; // c_{1,1} — an intra-cluster coarse link cost
        assert!(!path3_plan(coarse).diag_zero());
    }

    #[test]
    fn negative_zero_diagonal_is_not_bit_zero() {
        // -0.0 gathered into an accumulator of +0.0 would flip the sign
        // bit; the probe must therefore compare bits, not values.
        let mut link = zero_diag_link();
        link[0] = -0.0;
        assert!(!path3_plan(link).diag_zero());
    }

    #[test]
    fn proc_tab_holds_exact_products() {
        let plan = path3_plan(zero_diag_link());
        assert!(plan.has_proc_tab());
        for t in 0..3 {
            for s in 0..3 {
                let want: f64 = [1.0, 2.0, 3.0][t] * [1.0, 2.0, 4.0][s];
                assert_eq!(plan.proc_term(t, s).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "CSR offsets must cover")]
    fn rejects_truncated_csr() {
        InstancePlan::new(
            vec![1.0, 2.0],
            vec![0, 1, 3],
            vec![1, 0],
            vec![1.0, 1.0],
            vec![1.0],
            vec![0.0].into(),
        );
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_zero_computation_weight() {
        // The +0.0-mask bit-exactness argument needs strictly positive
        // processing terms; the constructor must hold the line.
        InstancePlan::new(
            vec![0.0],
            vec![0, 0],
            vec![],
            vec![],
            vec![1.0],
            vec![0.0].into(),
        );
    }
}
