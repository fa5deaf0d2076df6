//! Property-based tests for the CE driver and models.

use match_ce::driver::{minimize_controlled, CeConfig, CeOutcome};
use match_ce::model::CeModel;
use match_ce::models::bernoulli::BernoulliModel;
use match_ce::models::permutation::PermutationModel;
use match_telemetry::NullRecorder;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-sample `score` through `minimize_controlled`, untraced and never
/// cancelled.
fn run_scored(
    model: &mut BernoulliModel,
    config: &CeConfig,
    rng: &mut StdRng,
    score: impl Fn(&Vec<bool>) -> f64,
) -> CeOutcome<Vec<bool>> {
    minimize_controlled(
        model,
        config,
        rng,
        |samples, _| samples.iter().map(&score).collect(),
        |_, _| {},
        &mut NullRecorder,
        &|| false,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the objective, the reported best cost is the minimum the
    /// driver ever evaluated — cross-checked by re-evaluating the best
    /// sample.
    #[test]
    fn best_cost_matches_best_sample(seed in any::<u64>(), dims in 2usize..10) {
        let mut model = BernoulliModel::uniform(dims);
        let cfg = CeConfig::with_sample_size(30);
        let mut rng = StdRng::seed_from_u64(seed);
        // A deterministic but arbitrary objective.
        let score = |s: &Vec<bool>| {
            s.iter().enumerate().map(|(i, &b)| if b { (i * i + 1) as f64 } else { 0.7 * i as f64 }).sum()
        };
        let out = run_scored(&mut model, &cfg, &mut rng, score);
        prop_assert!((out.best_cost - score(&out.best_sample)).abs() < 1e-9);
        // Telemetry best curve ends at the reported best.
        let curve = out.telemetry.best_curve();
        prop_assert!((curve.last().unwrap() - out.best_cost).abs() < 1e-9);
    }

    /// The driver stops within max_iters and reports consistent counts.
    #[test]
    fn iteration_accounting(seed in any::<u64>(), n in 4usize..40, iters in 1usize..20) {
        let mut model = BernoulliModel::uniform(6);
        let mut cfg = CeConfig::with_sample_size(n);
        cfg.max_iters = iters;
        let mut rng = StdRng::seed_from_u64(seed);
        let out = run_scored(&mut model, &cfg, &mut rng, |s: &Vec<bool>| {
            s.iter().filter(|&&b| b).count() as f64
        });
        prop_assert!(out.iterations >= 1 && out.iterations <= iters);
        prop_assert_eq!(out.evaluations, (out.iterations * n) as u64);
        prop_assert_eq!(out.telemetry.iters.len(), out.iterations);
    }

    /// Elite updates never break row-stochasticity of the permutation
    /// model under any zeta, even after many iterations.
    #[test]
    fn long_run_keeps_matrix_stochastic(seed in any::<u64>(), zeta in 0.05f64..=1.0) {
        let n = 6;
        let mut model = PermutationModel::uniform(n);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..30 {
            let elites: Vec<Vec<usize>> = (0..4)
                .map(|_| model.sample(&mut rng))
                .collect();
            model.update_from_elites(&elites, zeta);
        }
        for i in 0..n {
            let sum: f64 = model.matrix().row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-6, "row {} sums {}", i, sum);
        }
        // Entropy never exceeds the uniform bound.
        prop_assert!(model.entropy() <= (n as f64).ln() + 1e-9);
    }

    /// Degenerate models sample their row-argmax permutation.
    #[test]
    fn degenerate_permutation_model_is_deterministic(seed in any::<u64>()) {
        let n = 5;
        let target = match_rngutil::random_permutation(n, &mut StdRng::seed_from_u64(seed));
        let mut data = vec![0.0; n * n];
        for (i, &j) in target.iter().enumerate() {
            data[i * n + j] = 1.0;
        }
        let model = PermutationModel::from_matrix(
            match_ce::StochasticMatrix::from_rows(n, n, data),
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFF);
        for _ in 0..5 {
            prop_assert_eq!(model.sample(&mut rng), target.clone());
        }
        prop_assert_eq!(model.matrix().mode_assignment(), target);
    }
}
