//! The GenPerm permutation model (paper Figure 4).
//!
//! `χ̃` — unrestricted row-by-row sampling — "contains a lot of
//! undesirable mappings, since we are interested in assigning an unique
//! resource for each task" (§4). GenPerm repairs this at sampling time:
//!
//! 1. draw a random visit order `π` over the tasks (rows);
//! 2. allocate task `π_i` a resource by spinning the roulette wheel over
//!    its row of the stochastic matrix, *restricted to columns not yet
//!    taken*;
//! 3. zero the chosen column for the remaining rows (implicitly: restrict
//!    the wheel) and renormalise.
//!
//! The update rule is unchanged (Eq. 11): column frequencies over the
//! elite samples.
//!
//! Two sampling paths draw the identical distribution:
//!
//! * [`PermutationModel::sample_into`] — the literal Figure-4 roulette,
//!   O(n²) per draw. This is the historical RNG stream.
//! * [`FlatSampler::sample_flat`] — one [`AliasTable`] per row, built
//!   once per batch, drawn O(1) with *rejection* on already-used
//!   columns. Rejecting used columns and renormalising over the rest are
//!   the same conditional distribution, so every accepted draw is an
//!   exact restricted-roulette draw; after a bounded number of
//!   rejections (degenerate rows concentrate their mass on used columns)
//!   the row falls back to the exact restricted roulette. Expected cost
//!   per permutation is O(n log n) instead of O(n²).

use crate::batch::{FlatBatch, FlatSampler};
use crate::model::CeModel;
use crate::stochmatrix::StochasticMatrix;
use match_rngutil::alias::AliasTable;
use match_rngutil::roulette::roulette_pick;
use rand::rngs::StdRng;
use rand::Rng;

/// Reusable per-draw scratch for GenPerm: the random visit order, the
/// used-column marks, and the restricted-row weight buffer. One draw
/// allocates nothing once the scratch has warmed up.
#[derive(Debug, Clone, Default)]
pub struct GenPermScratch {
    order: Vec<usize>,
    used: Vec<bool>,
    weights: Vec<f64>,
}

impl GenPermScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        GenPermScratch::default()
    }
}

/// Per-batch sampling tables: one alias table per stochastic-matrix row.
/// Rows without positive mass (cannot occur for a valid stochastic
/// matrix, but tolerated) hold an empty table and always take the
/// roulette fallback.
#[derive(Debug, Clone)]
pub struct GenPermTables {
    rows: Vec<AliasTable>,
}

/// CE model over permutations of `0..n` parameterised by an `n × n`
/// stochastic matrix; samples via GenPerm.
#[derive(Debug, Clone, PartialEq)]
pub struct PermutationModel {
    matrix: StochasticMatrix,
}

impl PermutationModel {
    /// The uniform model over permutations of `0..n`.
    pub fn uniform(n: usize) -> Self {
        PermutationModel {
            matrix: StochasticMatrix::uniform(n, n),
        }
    }

    /// Wrap an existing (square) stochastic matrix.
    pub fn from_matrix(matrix: StochasticMatrix) -> Self {
        assert_eq!(
            matrix.rows(),
            matrix.cols(),
            "permutation model must be square"
        );
        PermutationModel { matrix }
    }

    /// The underlying stochastic matrix.
    pub fn matrix(&self) -> &StochasticMatrix {
        &self.matrix
    }

    /// Problem size `n`.
    pub fn len(&self) -> usize {
        self.matrix.rows()
    }

    /// True for the trivial size-0 model.
    pub fn is_empty(&self) -> bool {
        self.matrix.rows() == 0
    }

    /// One GenPerm draw (Figure 4) via restricted roulette, reusing
    /// caller-provided [`GenPermScratch`]; `out` receives the
    /// permutation. This is the historical sampler: its RNG stream is
    /// bit-compatible with every release since the seed.
    pub fn sample_into(
        &self,
        rng: &mut StdRng,
        scratch: &mut GenPermScratch,
        out: &mut Vec<usize>,
    ) {
        let n = self.len();
        out.clear();
        out.resize(n, 0);
        scratch.used.clear();
        scratch.used.resize(n, false);

        // Step 1: random task visit order.
        scratch.order.clear();
        scratch.order.extend(0..n);
        match_rngutil::perm::shuffle(&mut scratch.order, rng);

        for visited in 0..n {
            let row = scratch.order[visited];
            let pick = Self::restricted_roulette(
                self.matrix.row(row),
                &scratch.used,
                &mut scratch.weights,
                n - visited,
                rng,
            );
            scratch.used[pick] = true;
            out[row] = pick;
        }
    }

    /// Restrict `row` to unused columns (zeroing the column of P in the
    /// paper's phrasing; renormalisation is implicit in the wheel) and
    /// spin. When all remaining probability mass sits on used columns
    /// (degenerate rows agreeing on one resource), fall back to a
    /// uniform choice among the unused, keeping the sample a valid
    /// permutation.
    fn restricted_roulette<R: Rng + ?Sized>(
        row: &[f64],
        used: &[bool],
        weights: &mut Vec<f64>,
        remaining: usize,
        rng: &mut R,
    ) -> usize {
        weights.clear();
        weights.extend(
            row.iter()
                .enumerate()
                .map(|(j, &p)| if used[j] { 0.0 } else { p }),
        );
        match roulette_pick(weights, rng) {
            Some(j) => j,
            None => {
                let mut k = rng.random_range(0..remaining);
                (0..row.len())
                    .find(|&j| {
                        if used[j] {
                            false
                        } else if k == 0 {
                            true
                        } else {
                            k -= 1;
                            false
                        }
                    })
                    .expect("an unused column exists")
            }
        }
    }
}

impl CeModel for PermutationModel {
    type Sample = Vec<usize>;

    fn sample(&self, rng: &mut StdRng) -> Vec<usize> {
        let mut scratch = GenPermScratch::new();
        let mut out = Vec::new();
        self.sample_into(rng, &mut scratch, &mut out);
        out
    }

    fn update_from_elites(&mut self, elites: &[Vec<usize>], zeta: f64) {
        if elites.is_empty() {
            return;
        }
        let n = self.len();
        let mut counts = vec![0.0f64; n * n];
        for e in elites {
            debug_assert_eq!(e.len(), n);
            for (i, &j) in e.iter().enumerate() {
                counts[i * n + j] += 1.0;
            }
        }
        let q = StochasticMatrix::from_rows(n, n, counts);
        self.matrix.smooth_toward(&q, zeta);
    }

    fn is_degenerate(&self, tol: f64) -> bool {
        self.matrix.is_degenerate(tol)
    }

    fn entropy(&self) -> f64 {
        self.matrix.mean_entropy()
    }

    fn stability_signature(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.matrix.row_max(i).1).collect()
    }
}

impl FlatSampler for PermutationModel {
    type Tables = GenPermTables;
    type Scratch = GenPermScratch;

    fn width(&self) -> usize {
        self.len()
    }

    fn new_tables(&self) -> GenPermTables {
        GenPermTables {
            rows: vec![AliasTable::empty(); self.len()],
        }
    }

    fn fill_tables(&self, tables: &mut GenPermTables) {
        tables.rows.resize_with(self.len(), AliasTable::empty);
        for (i, table) in tables.rows.iter_mut().enumerate() {
            // A failed rebuild (no positive mass) leaves the table empty;
            // sample_flat then always takes the roulette fallback.
            table.rebuild(self.matrix.row(i));
        }
    }

    fn new_scratch(&self) -> GenPermScratch {
        GenPermScratch::new()
    }

    fn sample_flat<R: Rng + ?Sized>(
        &self,
        tables: &GenPermTables,
        scratch: &mut GenPermScratch,
        rng: &mut R,
        out: &mut [usize],
    ) {
        let n = self.len();
        debug_assert_eq!(out.len(), n);
        debug_assert_eq!(tables.rows.len(), n);
        scratch.used.clear();
        scratch.used.resize(n, false);
        scratch.order.clear();
        scratch.order.extend(0..n);
        match_rngutil::perm::shuffle(&mut scratch.order, rng);

        for visited in 0..n {
            let row = scratch.order[visited];
            let remaining = n - visited;
            let table = &tables.rows[row];
            let mut pick = None;
            if !table.is_empty() {
                // Rejection over the full-row alias table: conditioning
                // the row distribution on "column unused" IS the
                // restricted-roulette distribution, so any accepted draw
                // is exact. The spin budget scales with the expected
                // n / remaining tries of a near-uniform row; exceeding it
                // (mass concentrated on used columns) costs nothing but
                // the fallback below — the fallback is exact too, so the
                // bound only trades constant factors, never correctness.
                let budget = 4 * (n / remaining) + 8;
                for _ in 0..budget {
                    let j = table.sample(rng);
                    if !scratch.used[j] {
                        pick = Some(j);
                        break;
                    }
                }
            }
            let pick = match pick {
                Some(j) => j,
                None => Self::restricted_roulette(
                    self.matrix.row(row),
                    &scratch.used,
                    &mut scratch.weights,
                    remaining,
                    rng,
                ),
            };
            scratch.used[pick] = true;
            out[row] = pick;
        }
    }

    fn update_from_flat(&mut self, batch: &FlatBatch<'_>, elites: &[usize], zeta: f64) {
        if elites.is_empty() {
            return;
        }
        let n = self.len();
        debug_assert_eq!(batch.width(), n);
        let mut counts = vec![0.0f64; n * n];
        for &e in elites {
            for (i, &j) in batch.row(e).iter().enumerate() {
                counts[i * n + j] += 1.0;
            }
        }
        let q = StochasticMatrix::from_rows(n, n, counts);
        self.matrix.smooth_toward(&q, zeta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_rngutil::perm::is_permutation;
    use rand::SeedableRng;

    #[test]
    fn samples_are_permutations() {
        let model = PermutationModel::uniform(10);
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..50 {
            let s = model.sample(&mut rng);
            assert!(is_permutation(&s), "{s:?}");
        }
    }

    #[test]
    fn flat_samples_are_permutations() {
        let model = PermutationModel::uniform(10);
        let mut tables = model.new_tables();
        model.fill_tables(&mut tables);
        let mut scratch = model.new_scratch();
        let mut rng = StdRng::seed_from_u64(51);
        let mut out = vec![0usize; 10];
        for _ in 0..50 {
            model.sample_flat(&tables, &mut scratch, &mut rng, &mut out);
            assert!(is_permutation(&out), "{out:?}");
        }
    }

    #[test]
    fn flat_sampling_is_deterministic_per_seed_and_scratch_free() {
        // Scratch must carry no state between draws: interleaving draws
        // through one scratch equals fresh-scratch draws, seed by seed.
        let model = PermutationModel::uniform(8);
        let mut tables = model.new_tables();
        model.fill_tables(&mut tables);
        let mut shared = model.new_scratch();
        let mut a = vec![0usize; 8];
        let mut b = vec![0usize; 8];
        for seed in 0..20u64 {
            model.sample_flat(
                &tables,
                &mut shared,
                &mut StdRng::seed_from_u64(seed),
                &mut a,
            );
            let mut fresh = model.new_scratch();
            model.sample_flat(
                &tables,
                &mut fresh,
                &mut StdRng::seed_from_u64(seed),
                &mut b,
            );
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn uniform_model_samples_uniform_first_coordinate() {
        let model = PermutationModel::uniform(5);
        let mut rng = StdRng::seed_from_u64(52);
        let mut counts = [0usize; 5];
        let trials = 50_000;
        for _ in 0..trials {
            counts[model.sample(&mut rng)[0]] += 1;
        }
        for &c in &counts {
            let f = c as f64 / trials as f64;
            assert!((f - 0.2).abs() < 0.02, "frequency {f}");
        }
    }

    #[test]
    fn degenerate_matrix_samples_its_permutation() {
        // Identity-permutation degenerate matrix.
        let n = 6;
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        let model = PermutationModel::from_matrix(StochasticMatrix::from_rows(n, n, data));
        let mut rng = StdRng::seed_from_u64(53);
        for _ in 0..20 {
            assert_eq!(model.sample(&mut rng), (0..n).collect::<Vec<_>>());
        }
        assert!(model.is_degenerate(1e-9));
        assert_eq!(model.matrix().mode_assignment(), (0..n).collect::<Vec<_>>());
        // The alias path agrees.
        let mut tables = model.new_tables();
        model.fill_tables(&mut tables);
        let mut scratch = model.new_scratch();
        let mut out = vec![0usize; n];
        for _ in 0..20 {
            model.sample_flat(&tables, &mut scratch, &mut rng, &mut out);
            assert_eq!(out, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn conflicting_degenerate_rows_still_yield_permutations() {
        // Both rows put all mass on column 0: GenPerm's fallback must
        // still return a permutation — on both sampling paths.
        let data = vec![1.0, 0.0, 1.0, 0.0];
        let model = PermutationModel::from_matrix(StochasticMatrix::from_rows(2, 2, data));
        let mut rng = StdRng::seed_from_u64(54);
        for _ in 0..50 {
            let s = model.sample(&mut rng);
            assert!(is_permutation(&s), "{s:?}");
        }
        let mut tables = model.new_tables();
        model.fill_tables(&mut tables);
        let mut scratch = model.new_scratch();
        let mut out = vec![0usize; 2];
        for _ in 0..50 {
            model.sample_flat(&tables, &mut scratch, &mut rng, &mut out);
            assert!(is_permutation(&out), "{out:?}");
        }
    }

    #[test]
    fn update_moves_mass_toward_elites() {
        let mut model = PermutationModel::uniform(3);
        // Elite consensus: identity permutation.
        let elites = vec![vec![0, 1, 2], vec![0, 1, 2], vec![0, 2, 1]];
        model.update_from_elites(&elites, 1.0);
        // Row 0 always mapped to 0 → probability 1.
        assert!((model.matrix().get(0, 0) - 1.0).abs() < 1e-12);
        // Row 1: 2/3 on column 1, 1/3 on column 2.
        assert!((model.matrix().get(1, 1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((model.matrix().get(1, 2) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn flat_update_matches_vec_update() {
        let elites = [vec![0usize, 1, 2], vec![0, 1, 2], vec![0, 2, 1]];
        let mut by_vec = PermutationModel::uniform(3);
        by_vec.update_from_elites(elites.as_ref(), 0.3);
        // Same elites through the flat path (indices deliberately out of
        // storage order to check they are read by index, not position).
        let mut flat_data = Vec::new();
        for e in elites.iter().rev() {
            flat_data.extend_from_slice(e);
        }
        let mut by_flat = PermutationModel::uniform(3);
        by_flat.update_from_flat(&FlatBatch::new(3, &flat_data), &[2, 1, 0], 0.3);
        assert_eq!(by_vec, by_flat);
    }

    #[test]
    fn smoothed_update_blends() {
        let mut model = PermutationModel::uniform(2);
        let elites = vec![vec![0, 1]];
        model.update_from_elites(&elites, 0.3);
        // p00 = 0.3·1 + 0.7·0.5 = 0.65
        assert!((model.matrix().get(0, 0) - 0.65).abs() < 1e-12);
    }

    #[test]
    fn empty_elites_is_noop() {
        let mut model = PermutationModel::uniform(3);
        let before = model.clone();
        model.update_from_elites(&[], 0.5);
        model.update_from_flat(&FlatBatch::new(3, &[]), &[], 0.5);
        assert_eq!(model, before);
    }

    #[test]
    fn repeated_updates_converge_to_degenerate() {
        let mut model = PermutationModel::uniform(4);
        let elite = vec![vec![2, 0, 3, 1]];
        for _ in 0..200 {
            model.update_from_elites(&elite, 0.3);
        }
        assert!(model.is_degenerate(1e-6));
        assert_eq!(model.matrix().mode_assignment(), vec![2, 0, 3, 1]);
        assert!(model.entropy() < 1e-4);
    }

    #[test]
    fn stability_signature_tracks_row_maxima() {
        let model = PermutationModel::uniform(3);
        let sig = model.stability_signature();
        assert_eq!(sig.len(), 3);
        for v in sig {
            assert!((v - 1.0 / 3.0).abs() < 1e-12);
        }
    }
}
