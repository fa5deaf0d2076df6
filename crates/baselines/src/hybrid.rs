//! CE + local-search hybrid: MaTCH followed by a hill-climb polish.
//!
//! The reproduction's Table 3 run found that MaTCH's CE plateau sits
//! ~1% above the best known mapping on small instances: once the
//! stochastic matrix concentrates, row-independent sampling almost
//! never proposes the *coordinated* pairwise swaps that close the last
//! gap. A cheap steepest-descent polish over the swap neighbourhood —
//! using the O(degree) incremental deltas — fixes exactly that failure
//! mode. This is the standard memetic refinement; the paper does not
//! include it, so it lives with the baselines as an extension.

use crate::hillclimb::HillClimber;
use match_core::{exec_time, Mapper, MapperOutcome, Mapping, MappingInstance, Matcher, StopToken};
use match_telemetry::{NullRecorder, Recorder};
use rand::rngs::StdRng;
use std::time::Instant;

/// MaTCH, then steepest-descent swap polish from the CE result.
#[derive(Debug, Clone, Default)]
pub struct PolishedMatcher {
    /// The CE stage.
    pub matcher: Matcher,
    /// Evaluation budget of the polish stage.
    pub polish_budget: u64,
}

impl PolishedMatcher {
    /// Hybrid with the given CE solver and polish budget.
    pub fn new(matcher: Matcher, polish_budget: u64) -> Self {
        PolishedMatcher {
            matcher,
            polish_budget: polish_budget.max(1),
        }
    }
}

impl Mapper for PolishedMatcher {
    fn name(&self) -> &str {
        "MaTCH+polish"
    }

    fn map(&self, inst: &MappingInstance, rng: &mut StdRng) -> MapperOutcome {
        self.map_controlled(inst, rng, &mut NullRecorder, &StopToken::never())
    }

    /// Cancellation override: the stop token is threaded into the CE
    /// stage (polled per iteration) and, if it has fired by the time CE
    /// returns, the polish stage is skipped entirely — the CE result is
    /// already valid and the deadline has passed. The polish stage is
    /// [`HillClimber`]'s descent, which polls it between scans.
    fn map_controlled(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        _recorder: &mut dyn Recorder,
        stop: &StopToken,
    ) -> MapperOutcome {
        let start = Instant::now();
        let ce = self
            .matcher
            .run_controlled(inst, rng, &mut NullRecorder, stop);
        if stop.should_stop() {
            let outcome = ce.into_mapper_outcome();
            return MapperOutcome {
                elapsed: start.elapsed(),
                ..outcome
            };
        }
        let ce = ce.into_mapper_outcome();
        let budget = if self.polish_budget == 1 {
            // Default: one full swap-neighbourhood scan per task pair,
            // a few times over.
            (inst.n_tasks() * inst.n_tasks() * 10) as u64
        } else {
            self.polish_budget
        };
        let (assign, cost, polish_evals) =
            HillClimber::descend(inst, ce.mapping.as_slice().to_vec(), budget, stop);
        debug_assert!(cost <= ce.cost + 1e-9, "polish must not regress");
        MapperOutcome {
            // The Eq. 2 of the mapping returned, not the descent's
            // carried value.
            cost: exec_time(inst, &assign),
            mapping: Mapping::new(assign),
            evaluations: ce.evaluations + polish_evals,
            iterations: ce.iterations,
            elapsed: start.elapsed(),
        }
    }
}

/// Random-restart hill climbing wrapped as the polish stage's sibling:
/// convenience constructor so ablations can compare "CE then polish"
/// against "polish-budget spent on pure hill climbing".
pub fn pure_hillclimb_with_equal_budget(budget: u64) -> HillClimber {
    HillClimber::new(8, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_core::IncrementalCost;
    use match_graph::gen::InstanceGenerator;
    use rand::SeedableRng;

    fn instance(n: usize, seed: u64) -> MappingInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        MappingInstance::from_pair(&InstanceGenerator::paper_family(n).generate(&mut rng))
    }

    #[test]
    fn polish_never_regresses_ce_result() {
        let inst = instance(10, 1);
        for seed in 0..5 {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let plain = Matcher::default().run(&inst, &mut rng_a);
            let hybrid = PolishedMatcher::default().map(&inst, &mut rng_b);
            assert!(
                hybrid.cost <= plain.cost + 1e-9,
                "seed {seed}: hybrid {} vs plain {}",
                hybrid.cost,
                plain.cost
            );
            assert!(hybrid.mapping.is_permutation());
            assert_eq!(hybrid.cost, exec_time(&inst, hybrid.mapping.as_slice()));
        }
    }

    #[test]
    fn polished_result_is_swap_local_optimum() {
        let inst = instance(8, 2);
        let out = PolishedMatcher::default().map(&inst, &mut StdRng::seed_from_u64(3));
        let mut inc = IncrementalCost::new(&inst, out.mapping.as_slice().to_vec());
        let cost = inc.cost();
        for a in 0..8 {
            for b in (a + 1)..8 {
                assert!(inc.peek_swap(a, b) >= cost - 1e-9);
            }
        }
    }

    #[test]
    fn explicit_budget_respected() {
        let inst = instance(12, 4);
        let m = PolishedMatcher::new(Matcher::default(), 50);
        let plain_evals = Matcher::default()
            .run(&inst, &mut StdRng::seed_from_u64(5))
            .evaluations;
        let out = m.map(&inst, &mut StdRng::seed_from_u64(5));
        assert!(out.evaluations <= plain_evals + 55);
    }

    #[test]
    fn tripped_stop_token_skips_polish() {
        use match_core::StopFlag;
        let inst = instance(10, 1);
        let flag = StopFlag::new();
        flag.trip();
        let out = PolishedMatcher::default().map_controlled(
            &inst,
            &mut StdRng::seed_from_u64(2),
            &mut NullRecorder,
            &StopToken::with_flag(flag),
        );
        // The CE stage cancels after one iteration and the polish stage
        // is skipped, so the result is exactly the truncated CE result.
        assert_eq!(out.iterations, 1);
        assert!(out.mapping.is_permutation());
        assert_eq!(out.cost, exec_time(&inst, out.mapping.as_slice()));
    }

    #[test]
    fn never_token_matches_plain_run() {
        let inst = instance(9, 6);
        let m = PolishedMatcher::default();
        let plain = m.map(&inst, &mut StdRng::seed_from_u64(7));
        let controlled = m.map_controlled(
            &inst,
            &mut StdRng::seed_from_u64(7),
            &mut NullRecorder,
            &StopToken::never(),
        );
        assert_eq!(plain.mapping, controlled.mapping);
        assert_eq!(plain.cost, controlled.cost);
    }

    #[test]
    fn deterministic() {
        let inst = instance(9, 6);
        let m = PolishedMatcher::default();
        let a = m.map(&inst, &mut StdRng::seed_from_u64(7));
        let b = m.map(&inst, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.cost, b.cost);
    }
}
