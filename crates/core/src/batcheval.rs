//! Bridge between [`MappingInstance`] and the `match-eval` batch
//! kernels: build a structure-of-arrays [`InstancePlan`] once per solve
//! and score whole chunks of flat sample rows through it.
//!
//! `match-eval` sits below `match-ce` in the dependency graph and
//! speaks raw slices; this module owns the one place the instance's
//! cost tables are flattened into a plan, and implements the CE
//! driver's [`FlatEvaluator`] contract on top of it. Both backends are
//! bit-identical to [`exec_time`](crate::cost::exec_time) (see the
//! `match-eval` crate docs for the argument), so plugging the plan into
//! a solver changes throughput, never trajectories.

use crate::problem::MappingInstance;
use match_ce::batch::FlatEvaluator;
use match_eval::{EvalBackend, EvalScratch, InstancePlan};
use std::sync::Arc;

/// Flatten an instance's cost tables into an [`InstancePlan`]. The plan
/// shares the instance's link-cost matrix; only the task-sized arrays
/// are copied.
///
/// Processing-table precomputation and the link-diagonal probe happen
/// inside `InstancePlan::new`; graph-layer instances always carry an
/// all-`+0.0` diagonal, so they get the mask-free lane kernel, while
/// coarse multilevel matrices (non-zero diagonals) get the masked one.
pub fn build_plan(inst: &MappingInstance) -> InstancePlan {
    let n_t = inst.n_tasks();
    let n_r = inst.n_resources();
    let task_comp: Vec<f64> = (0..n_t).map(|t| inst.computation(t)).collect();
    let proc_cost: Vec<f64> = (0..n_r).map(|s| inst.processing_cost(s)).collect();
    let mut offsets = Vec::with_capacity(n_t + 1);
    offsets.push(0u32);
    let mut targets = Vec::with_capacity(inst.adjacency_len());
    let mut volumes = Vec::with_capacity(inst.adjacency_len());
    for t in 0..n_t {
        for (a, c) in inst.interactions(t) {
            targets.push(a as u32);
            volumes.push(c);
        }
        offsets.push(targets.len() as u32);
    }
    InstancePlan::new(
        task_comp,
        offsets,
        targets,
        volumes,
        proc_cost,
        Arc::clone(inst.link_cost_matrix()),
    )
}

/// A [`FlatEvaluator`] scoring sample rows against one instance's plan
/// with a chosen [`EvalBackend`] — what the CE matcher and FastMap-GA
/// hand to their batched pipelines.
#[derive(Debug, Clone)]
pub struct PlanEvaluator {
    plan: InstancePlan,
    backend: EvalBackend,
}

impl PlanEvaluator {
    /// Build the plan for `inst` and pin the backend (`Auto` resolves
    /// per chunk on batch width).
    pub fn new(inst: &MappingInstance, backend: EvalBackend) -> Self {
        PlanEvaluator {
            plan: build_plan(inst),
            backend,
        }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &InstancePlan {
        &self.plan
    }

    /// The configured backend.
    pub fn backend(&self) -> EvalBackend {
        self.backend
    }
}

impl FlatEvaluator for PlanEvaluator {
    type Scratch = EvalScratch;

    fn new_scratch(&self) -> EvalScratch {
        self.plan.new_scratch()
    }

    fn evaluate_rows(&self, rows: &[usize], costs: &mut [f64], scratch: &mut EvalScratch) {
        self.plan
            .eval_batch(self.backend, rows, costs, None, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{exec_per_resource, exec_time};
    use match_graph::gen::InstanceGenerator;
    use match_rngutil::perm::random_permutation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn instance(n: usize, seed: u64) -> MappingInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        MappingInstance::from_pair(&InstanceGenerator::paper_family(n).generate(&mut rng))
    }

    #[test]
    fn plan_reproduces_cost_model_bitwise() {
        for (n, seed) in [(6usize, 31u64), (17, 32), (40, 33)] {
            let inst = instance(n, seed);
            let plan = build_plan(&inst);
            assert!(plan.diag_zero(), "graph-layer link diagonals are +0.0");
            let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
            let mut loads = vec![0.0; n];
            for _ in 0..20 {
                let assign = random_permutation(n, &mut rng);
                let got = plan.eval_row(&assign, &mut loads);
                assert_eq!(got.to_bits(), exec_time(&inst, &assign).to_bits());
                let want = exec_per_resource(&inst, &assign);
                for (a, b) in loads.iter().zip(&want) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn plan_shares_the_instance_matrix() {
        let inst = instance(12, 36);
        let handles = Arc::strong_count(inst.link_cost_matrix());
        let plan = build_plan(&inst);
        assert_eq!(Arc::strong_count(inst.link_cost_matrix()), handles + 1);
        drop(plan);
        assert_eq!(Arc::strong_count(inst.link_cost_matrix()), handles);
    }

    #[test]
    fn evaluator_scores_batches_like_exec_time() {
        let n = 24;
        let inst = instance(n, 34);
        let mut rng = StdRng::seed_from_u64(35);
        let n_rows = 21; // two lane groups + a tail
        let rows: Vec<usize> = (0..n_rows * n).map(|_| rng.random_range(0..n)).collect();
        for backend in [EvalBackend::Auto, EvalBackend::Scalar, EvalBackend::Simd] {
            let eval = PlanEvaluator::new(&inst, backend);
            let mut scratch = eval.new_scratch();
            let mut costs = vec![0.0; n_rows];
            eval.evaluate_rows(&rows, &mut costs, &mut scratch);
            for (r, &c) in costs.iter().enumerate() {
                let want = exec_time(&inst, &rows[r * n..(r + 1) * n]);
                assert_eq!(c.to_bits(), want.to_bits(), "backend {backend} row {r}");
            }
        }
    }
}
