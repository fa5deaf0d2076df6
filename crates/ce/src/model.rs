//! The [`CeModel`] trait: a parameterised distribution family that the CE
//! driver can sample from and fit to elite samples.

use rand::rngs::StdRng;

/// A distribution family `f(·; v)` over candidate solutions.
///
/// One CE iteration (Figure 2 / Figure 5) calls [`CeModel::sample`] `N`
/// times, selects the elite by cost, and calls
/// [`CeModel::update_from_elites`] with smoothing parameter `ζ`
/// (Eq. 13; `ζ = 1` is the coarse update of Eq. 11).
pub trait CeModel {
    /// One candidate solution.
    type Sample;

    /// Draw one sample from the current parameters.
    ///
    /// The concrete [`StdRng`] (rather than a generic `R: Rng`) keeps the
    /// trait object-safe and lets the driver hand per-worker RNGs to
    /// parallel samplers.
    fn sample(&self, rng: &mut StdRng) -> Self::Sample;

    /// Draw `count` samples into `out` (cleared first), reusing its
    /// allocation across batches.
    ///
    /// The model parameters are frozen for a whole CE iteration, so a
    /// batch is `count` i.i.d. draws; the default simply repeats
    /// [`CeModel::sample`] and therefore consumes the identical RNG
    /// stream. Models with batch-amortisable preprocessing may override
    /// this — flat-buffer samplers get the stronger
    /// [`crate::batch::FlatSampler`] contract instead, which is what the
    /// fused parallel pipeline drives.
    fn sample_batch(&self, rng: &mut StdRng, count: usize, out: &mut Vec<Self::Sample>) {
        out.clear();
        out.reserve(count);
        for _ in 0..count {
            out.push(self.sample(rng));
        }
    }

    /// Fit the parameters to the elite samples (maximum-likelihood count
    /// estimate, Eq. 10/11), then blend with the previous parameters:
    /// `v ← ζ·v̂ + (1 − ζ)·v`.
    ///
    /// Implementations must tolerate an empty elite slice (no-op).
    fn update_from_elites(&mut self, elites: &[Self::Sample], zeta: f64);

    /// True when the distribution has (numerically) collapsed onto a
    /// single sample — the paper's degenerate stochastic matrix.
    fn is_degenerate(&self, tol: f64) -> bool;

    /// A scalar diagnostic of remaining randomness (e.g. mean row
    /// entropy); used for telemetry only.
    fn entropy(&self) -> f64;

    /// The per-row maxima `μ^i` tracked by the paper's stopping rule
    /// (Eq. 12). Models without a row structure may return a singleton.
    fn stability_signature(&self) -> Vec<f64>;
}
