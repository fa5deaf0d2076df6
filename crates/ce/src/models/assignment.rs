//! Independent-row assignment model.
//!
//! "The most naive way to generate the random vector X … is to
//! independently draw X₁, …, X_{|V_r|−1} according to fixed distributions"
//! (§4). Rows are sampled independently from the stochastic matrix, so
//! duplicates are allowed. The paper discards such samples for the
//! bijective case (GenPerm instead); this model remains the right family
//! for the *many-to-one* generalisation (`|V_t| > |V_r|`) and serves as
//! the ablation arm that quantifies how much GenPerm buys.

use crate::batch::{FlatBatch, FlatSampler};
use crate::model::CeModel;
use crate::stochmatrix::StochasticMatrix;
use match_rngutil::alias::AliasTable;
use match_rngutil::roulette::roulette_pick;
use rand::rngs::StdRng;
use rand::Rng;

/// Per-batch sampling tables for [`AssignmentModel`]: one alias table per
/// row. Rows are independent, so a draw is `rows` O(1) alias picks with
/// no rejection at all.
#[derive(Debug, Clone)]
pub struct AssignmentTables {
    rows: Vec<AliasTable>,
}

/// CE model over `rows`-long vectors with entries in `0..cols`, each row
/// drawn independently from its distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentModel {
    matrix: StochasticMatrix,
}

impl AssignmentModel {
    /// Uniform model: every task equally likely on every resource.
    pub fn uniform(rows: usize, cols: usize) -> Self {
        AssignmentModel {
            matrix: StochasticMatrix::uniform(rows, cols),
        }
    }

    /// Wrap an existing stochastic matrix.
    pub fn from_matrix(matrix: StochasticMatrix) -> Self {
        AssignmentModel { matrix }
    }

    /// The underlying stochastic matrix.
    pub fn matrix(&self) -> &StochasticMatrix {
        &self.matrix
    }

    /// Number of rows (tasks).
    pub fn rows(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of columns (resources).
    pub fn cols(&self) -> usize {
        self.matrix.cols()
    }

    /// Sample into a caller-provided buffer.
    pub fn sample_into(&self, rng: &mut StdRng, out: &mut Vec<usize>) {
        out.clear();
        for i in 0..self.rows() {
            let j = roulette_pick(self.matrix.row(i), rng)
                .expect("stochastic rows always have positive mass");
            out.push(j);
        }
    }
}

impl CeModel for AssignmentModel {
    type Sample = Vec<usize>;

    fn sample(&self, rng: &mut StdRng) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.rows());
        self.sample_into(rng, &mut out);
        out
    }

    fn update_from_elites(&mut self, elites: &[Vec<usize>], zeta: f64) {
        if elites.is_empty() {
            return;
        }
        let (rows, cols) = (self.rows(), self.cols());
        let mut counts = vec![0.0f64; rows * cols];
        for e in elites {
            debug_assert_eq!(e.len(), rows);
            for (i, &j) in e.iter().enumerate() {
                counts[i * cols + j] += 1.0;
            }
        }
        let q = StochasticMatrix::from_rows(rows, cols, counts);
        self.matrix.smooth_toward(&q, zeta);
    }

    fn is_degenerate(&self, tol: f64) -> bool {
        self.matrix.is_degenerate(tol)
    }

    fn entropy(&self) -> f64 {
        self.matrix.mean_entropy()
    }

    fn stability_signature(&self) -> Vec<f64> {
        (0..self.rows()).map(|i| self.matrix.row_max(i).1).collect()
    }
}

impl FlatSampler for AssignmentModel {
    type Tables = AssignmentTables;
    type Scratch = ();

    fn width(&self) -> usize {
        self.rows()
    }

    fn new_tables(&self) -> AssignmentTables {
        AssignmentTables {
            rows: vec![AliasTable::empty(); self.rows()],
        }
    }

    fn fill_tables(&self, tables: &mut AssignmentTables) {
        tables.rows.resize_with(self.rows(), AliasTable::empty);
        for (i, table) in tables.rows.iter_mut().enumerate() {
            let ok = table.rebuild(self.matrix.row(i));
            assert!(ok, "stochastic rows always have positive mass");
        }
    }

    fn new_scratch(&self) {}

    fn sample_flat<R: Rng + ?Sized>(
        &self,
        tables: &AssignmentTables,
        _scratch: &mut (),
        rng: &mut R,
        out: &mut [usize],
    ) {
        debug_assert_eq!(out.len(), self.rows());
        debug_assert_eq!(tables.rows.len(), self.rows());
        for (slot, table) in out.iter_mut().zip(&tables.rows) {
            *slot = table.sample(rng);
        }
    }

    fn update_from_flat(&mut self, batch: &FlatBatch<'_>, elites: &[usize], zeta: f64) {
        if elites.is_empty() {
            return;
        }
        let (rows, cols) = (self.rows(), self.cols());
        debug_assert_eq!(batch.width(), rows);
        let mut counts = vec![0.0f64; rows * cols];
        for &e in elites {
            for (i, &j) in batch.row(e).iter().enumerate() {
                counts[i * cols + j] += 1.0;
            }
        }
        let q = StochasticMatrix::from_rows(rows, cols, counts);
        self.matrix.smooth_toward(&q, zeta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sample_shape_and_range() {
        let m = AssignmentModel::uniform(6, 4);
        let mut rng = StdRng::seed_from_u64(61);
        for _ in 0..50 {
            let s = m.sample(&mut rng);
            assert_eq!(s.len(), 6);
            assert!(s.iter().all(|&j| j < 4));
        }
    }

    #[test]
    fn rectangular_many_to_one_allowed() {
        // More tasks than resources: duplicates must occur.
        let m = AssignmentModel::uniform(10, 2);
        let mut rng = StdRng::seed_from_u64(62);
        let s = m.sample(&mut rng);
        assert_eq!(s.len(), 10);
        // Pigeonhole: at least one duplicate.
        let unique: std::collections::HashSet<_> = s.iter().collect();
        assert!(unique.len() <= 2);
    }

    #[test]
    fn update_matches_frequencies() {
        let mut m = AssignmentModel::uniform(2, 3);
        let elites = vec![vec![0, 2], vec![0, 2], vec![1, 2], vec![0, 0]];
        m.update_from_elites(&elites, 1.0);
        assert!((m.matrix().get(0, 0) - 0.75).abs() < 1e-12);
        assert!((m.matrix().get(0, 1) - 0.25).abs() < 1e-12);
        assert!((m.matrix().get(1, 2) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mode_is_rowwise_argmax() {
        let data = vec![0.1, 0.8, 0.1, 0.6, 0.2, 0.2];
        let m = AssignmentModel::from_matrix(StochasticMatrix::from_rows(2, 3, data));
        assert_eq!(m.matrix().mode_assignment(), vec![1, 0]);
    }

    #[test]
    fn degenerate_model_samples_mode() {
        let data = vec![0.0, 1.0, 1.0, 0.0];
        let m = AssignmentModel::from_matrix(StochasticMatrix::from_rows(2, 2, data));
        let mut rng = StdRng::seed_from_u64(63);
        for _ in 0..20 {
            assert_eq!(m.sample(&mut rng), vec![1, 0]);
        }
        assert!(m.is_degenerate(1e-9));
    }

    #[test]
    fn empty_elites_noop() {
        let mut m = AssignmentModel::uniform(2, 2);
        let before = m.clone();
        m.update_from_elites(&[], 0.4);
        m.update_from_flat(&FlatBatch::new(2, &[]), &[], 0.4);
        assert_eq!(m, before);
    }

    #[test]
    fn flat_sample_shape_and_range() {
        let m = AssignmentModel::uniform(6, 4);
        let mut tables = m.new_tables();
        m.fill_tables(&mut tables);
        let mut rng = StdRng::seed_from_u64(64);
        let mut out = vec![0usize; 6];
        for _ in 0..50 {
            m.sample_flat(&tables, &mut (), &mut rng, &mut out);
            assert!(out.iter().all(|&j| j < 4));
        }
    }

    #[test]
    fn flat_degenerate_model_samples_mode() {
        let data = vec![0.0, 1.0, 1.0, 0.0];
        let m = AssignmentModel::from_matrix(StochasticMatrix::from_rows(2, 2, data));
        let mut tables = m.new_tables();
        m.fill_tables(&mut tables);
        let mut rng = StdRng::seed_from_u64(65);
        let mut out = vec![0usize; 2];
        for _ in 0..20 {
            m.sample_flat(&tables, &mut (), &mut rng, &mut out);
            assert_eq!(out, vec![1, 0]);
        }
    }

    #[test]
    fn flat_update_matches_vec_update() {
        let elites = [vec![0usize, 2], vec![0, 2], vec![1, 2], vec![0, 0]];
        let mut by_vec = AssignmentModel::uniform(2, 3);
        by_vec.update_from_elites(elites.as_ref(), 0.6);
        let mut flat_data = Vec::new();
        for e in &elites {
            flat_data.extend_from_slice(e);
        }
        let mut by_flat = AssignmentModel::uniform(2, 3);
        by_flat.update_from_flat(&FlatBatch::new(2, &flat_data), &[0, 1, 2, 3], 0.6);
        assert_eq!(by_vec, by_flat);
    }
}
