//! Independent Bernoulli-vector model.
//!
//! The classic CE family for cut problems (Rubinstein 2002, the
//! paper's reference 23): a candidate solution is a 0/1 vector assigning
//! each graph node to one of two sides, parameterised by per-coordinate
//! probabilities `p_i = P(x_i = 1)`. Used by the benchmark COPs in
//! [`crate::problems`] to validate the driver independently of the
//! mapping problem.

use crate::model::CeModel;
use rand::rngs::StdRng;
use rand::Rng;

/// CE model over `{0,1}^n` with independent coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct BernoulliModel {
    probs: Vec<f64>,
}

impl BernoulliModel {
    /// The maximum-entropy model: every `p_i = 1/2`.
    pub fn uniform(n: usize) -> Self {
        BernoulliModel {
            probs: vec![0.5; n],
        }
    }

    /// Build from explicit probabilities (each clamped to `[0, 1]`).
    pub fn from_probs(probs: Vec<f64>) -> Self {
        BernoulliModel {
            probs: probs.into_iter().map(|p| p.clamp(0.0, 1.0)).collect(),
        }
    }

    /// Coordinate probabilities.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Dimension `n`.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True for the empty model.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }
}

impl CeModel for BernoulliModel {
    type Sample = Vec<bool>;

    fn sample(&self, rng: &mut StdRng) -> Vec<bool> {
        self.probs
            .iter()
            .map(|&p| rng.random::<f64>() < p)
            .collect()
    }

    fn update_from_elites(&mut self, elites: &[Vec<bool>], zeta: f64) {
        if elites.is_empty() {
            return;
        }
        let m = elites.len() as f64;
        for (i, p) in self.probs.iter_mut().enumerate() {
            let freq = elites.iter().filter(|e| e[i]).count() as f64 / m;
            *p = zeta * freq + (1.0 - zeta) * *p;
        }
    }

    fn is_degenerate(&self, tol: f64) -> bool {
        self.probs.iter().all(|&p| p <= tol || p >= 1.0 - tol)
    }

    fn entropy(&self) -> f64 {
        let h = |p: f64| {
            if p <= 0.0 || p >= 1.0 {
                0.0
            } else {
                -p * p.ln() - (1.0 - p) * (1.0 - p).ln()
            }
        };
        if self.probs.is_empty() {
            0.0
        } else {
            self.probs.iter().map(|&p| h(p)).sum::<f64>() / self.probs.len() as f64
        }
    }

    fn stability_signature(&self) -> Vec<f64> {
        self.probs.iter().map(|&p| p.max(1.0 - p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sample_respects_probabilities() {
        let m = BernoulliModel::from_probs(vec![0.0, 1.0, 0.5]);
        let mut rng = StdRng::seed_from_u64(71);
        let mut ones = [0usize; 3];
        let n = 20_000;
        for _ in 0..n {
            let s = m.sample(&mut rng);
            for (i, &b) in s.iter().enumerate() {
                if b {
                    ones[i] += 1;
                }
            }
        }
        assert_eq!(ones[0], 0);
        assert_eq!(ones[1], n);
        let f = ones[2] as f64 / n as f64;
        assert!((f - 0.5).abs() < 0.02);
    }

    #[test]
    fn update_counts_frequencies() {
        let mut m = BernoulliModel::uniform(2);
        let elites = vec![
            vec![true, false],
            vec![true, false],
            vec![true, true],
            vec![false, false],
        ];
        m.update_from_elites(&elites, 1.0);
        assert!((m.probs()[0] - 0.75).abs() < 1e-12);
        assert!((m.probs()[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn smoothing_blends() {
        let mut m = BernoulliModel::uniform(1);
        m.update_from_elites(&[vec![true]], 0.3);
        assert!((m.probs()[0] - (0.3 + 0.7 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn degeneracy_within_tolerance() {
        let m = BernoulliModel::from_probs(vec![0.999, 0.001]);
        assert!(m.is_degenerate(0.01));
        assert!(!m.is_degenerate(1e-6));
    }

    #[test]
    fn entropy_bounds() {
        assert!((BernoulliModel::uniform(5).entropy() - (2.0f64).ln()).abs() < 1e-12);
        assert_eq!(BernoulliModel::from_probs(vec![0.0, 1.0]).entropy(), 0.0);
        assert_eq!(BernoulliModel::from_probs(vec![]).entropy(), 0.0);
    }

    #[test]
    fn clamping_out_of_range_probs() {
        let m = BernoulliModel::from_probs(vec![-0.5, 1.7]);
        assert_eq!(m.probs(), &[0.0, 1.0]);
    }
}
