//! The iterative CE optimizer (paper Figures 2 and 5, generic form).
//!
//! Per iteration: draw `N` samples from the model, evaluate them, keep
//! the `⌊ρN⌋`-elite (plus ties at the threshold `γ`), update the model
//! parameters with smoothing `ζ` (Eq. 11 + Eq. 13), and stop when the
//! per-row maxima `μ^i` have been stable for `c` consecutive iterations
//! (Eq. 12) or the model has degenerated.
//!
//! Two drivers run this loop and differ only in how a batch is drawn
//! and scored: [`minimize_controlled`] samples every [`CeModel`] on the
//! driver thread and hands the batch to a caller-supplied evaluator;
//! [`minimize_flat_with`] fuses sampling and scoring of [`FlatSampler`]
//! rows inside `match-par` workers. Everything after the batch is scored
//! — the incumbent, the update, telemetry and the stopping rules — is one
//! private helper both call. An observer hook receives the model after
//! each update, which is how Figure 3's matrix snapshots are collected.

use crate::batch::{FlatBatch, FlatEvaluator, FlatSampler};
use crate::model::CeModel;
use match_telemetry::{Event, IterEvent, PoolEvent, Recorder, Span, SpanEvent};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Tunables of the CE loop. Defaults follow the paper where it commits
/// to a value: `ρ = 0.1` (within its 0.01–0.1 band), `ζ = 0.3`, `c = 5`.
/// `sample_size` has no universal default — MaTCH uses `N = 2|V_r|²` —
/// so it is a required field here.
#[derive(Debug, Clone, PartialEq)]
pub struct CeConfig {
    /// Elite fraction `ρ` ("focus parameter", §4).
    pub rho: f64,
    /// Samples per iteration `N`.
    pub sample_size: usize,
    /// Smoothing factor `ζ` of Eq. 13 (`1.0` = coarse update).
    pub zeta: f64,
    /// Hard iteration cap (safety net; the paper relies on Eq. 12 only).
    pub max_iters: usize,
    /// Consecutive-stability window `c` of Eq. 12.
    pub stability_window: usize,
    /// Tolerance for "equal" row maxima in Eq. 12. With smoothing the
    /// maxima converge asymptotically rather than exactly, so exact
    /// float equality would never trigger; the paper's integer-count
    /// updates make equality meaningful there.
    pub stability_tol: f64,
    /// Stop as soon as the model is degenerate within this tolerance.
    pub degeneracy_tol: f64,
    /// Consecutive-stability window for the elite threshold `γ` —
    /// Figure 2's stopping rule (`γ̂_i = γ̂_{i−1} = … = γ̂_{i−k}`).
    /// `0` disables the rule. With smoothing, the per-row maxima of
    /// Eq. 12 converge only asymptotically, so in practice this rule is
    /// the one that fires once the sampled population has collapsed onto
    /// a single cost plateau.
    pub gamma_window: usize,
    /// Relative tolerance for "equal" γ values.
    pub gamma_tol: f64,
}

impl CeConfig {
    /// Paper-style defaults with the given per-iteration sample count.
    pub fn with_sample_size(sample_size: usize) -> Self {
        CeConfig {
            rho: 0.1,
            sample_size,
            zeta: 0.3,
            max_iters: 1000,
            stability_window: 5,
            stability_tol: 1e-4,
            degeneracy_tol: 1e-6,
            gamma_window: 5,
            gamma_tol: 1e-12,
        }
    }

    /// Panic with a clear message on nonsensical settings.
    pub fn validate(&self) {
        assert!(self.rho > 0.0 && self.rho <= 1.0, "rho must be in (0, 1]");
        assert!(self.sample_size >= 1, "need at least one sample");
        assert!((0.0..=1.0).contains(&self.zeta), "zeta must be in [0, 1]");
        assert!(self.max_iters >= 1, "need at least one iteration");
        assert!(self.stability_window >= 1, "stability window >= 1");
    }
}

/// Why the loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Row maxima stable for `c` iterations (Eq. 12).
    MuStable,
    /// Elite threshold `γ` stable for `k` iterations (Figure 2 step 4).
    GammaStable,
    /// The model collapsed to a (near-)degenerate distribution.
    Degenerate,
    /// Iteration cap reached.
    MaxIters,
    /// The caller's stop predicate fired (deadline or external
    /// cancellation); the outcome holds the best sample found so far.
    Cancelled,
}

/// Telemetry of one iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterStats {
    /// Iteration index (0-based).
    pub iter: usize,
    /// Elite threshold `γ_k` (worst cost admitted to the elite).
    pub gamma: f64,
    /// Best sampled cost this iteration.
    pub best: f64,
    /// Mean sampled cost this iteration.
    pub mean: f64,
    /// Worst sampled cost this iteration.
    pub worst: f64,
    /// Number of elite samples (≥ `⌊ρN⌋`, ties included).
    pub elite_count: usize,
    /// Model entropy after the update.
    pub entropy: f64,
}

/// Full run telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CeTelemetry {
    /// One record per iteration, in order.
    pub iters: Vec<IterStats>,
}

impl CeTelemetry {
    /// Best cost seen per iteration (running minimum of `best`).
    pub fn best_curve(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        self.iters
            .iter()
            .map(|s| {
                best = best.min(s.best);
                best
            })
            .collect()
    }
}

/// Result of a CE run.
#[derive(Debug, Clone)]
pub struct CeOutcome<S> {
    /// The best sample ever evaluated.
    pub best_sample: S,
    /// Its cost.
    pub best_cost: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Total objective evaluations (`iterations × N`).
    pub evaluations: u64,
    /// Why the loop stopped.
    pub stop_reason: StopReason,
    /// Per-iteration statistics.
    pub telemetry: CeTelemetry,
}

/// Minimise over samples of `model` with a batch evaluator (which may
/// fan out in parallel), a per-iteration observer called after each
/// model update with `(iteration, &model)`, live telemetry, and
/// cooperative cancellation.
///
/// Telemetry: per-iteration [`IterEvent`]s (γ, best, mean, elite size,
/// wall time) and `sample`/`evaluate`/`update` spans go to `recorder`.
/// The evaluator receives the recorder so it can attach its own events
/// (e.g. `match-par` chunk timings) to the same stream. With a disabled
/// recorder, event construction and clock reads are skipped.
///
/// Cancellation: `should_stop` is polled once per iteration, after the
/// incumbent update, so at least one iteration always completes and the
/// outcome always holds a valid best sample. When it fires the loop
/// exits with [`StopReason::Cancelled`]. The predicate is a plain
/// closure rather than a token type so this crate stays independent of
/// `match-core` (which depends on it); callers thread
/// `StopToken::should_stop` through here. Polling consumes no
/// randomness, so an uncancelled run follows the same RNG trajectory
/// whatever the predicate.
#[allow(clippy::too_many_arguments)]
pub fn minimize_controlled<M, E, O>(
    model: &mut M,
    config: &CeConfig,
    rng: &mut StdRng,
    mut evaluate: E,
    mut observe: O,
    recorder: &mut dyn Recorder,
    should_stop: &dyn Fn() -> bool,
) -> CeOutcome<M::Sample>
where
    M: CeModel,
    M::Sample: Clone,
    E: FnMut(&[M::Sample], &mut dyn Recorder) -> Vec<f64>,
    O: FnMut(usize, &M),
{
    let mut run = Tracker::new(config);
    let traced = recorder.enabled();
    let n = config.sample_size;
    let mut samples: Vec<M::Sample> = Vec::with_capacity(n);

    for iter in 0..config.max_iters {
        let iter_start = traced.then(Instant::now);

        // Step 3 (Fig. 5): draw the sample batch (buffer reused across
        // iterations; the default `sample_batch` keeps the historical
        // per-sample RNG stream bit-identical).
        let span = traced.then(|| Span::start("sample", iter as u64));
        model.sample_batch(rng, n, &mut samples);
        if let Some(span) = span {
            span.finish(recorder);
        }
        let span = traced.then(|| Span::start("evaluate", iter as u64));
        let costs = evaluate(&samples, recorder);
        if let Some(span) = span {
            span.finish(recorder);
        }
        assert_eq!(
            costs.len(),
            samples.len(),
            "evaluator returned wrong length"
        );
        run.count_evaluations(n, recorder);

        let stop = run.step(
            iter,
            model,
            &costs,
            |i| samples[i].clone(),
            |model, elites| {
                let elites: Vec<M::Sample> = elites.iter().map(|&i| samples[i].clone()).collect();
                model.update_from_elites(&elites, config.zeta);
            },
            &mut observe,
            recorder,
            iter_start,
            should_stop,
        );
        if let Some(reason) = stop {
            return run.finish(reason);
        }
    }
    run.finish(StopReason::MaxIters)
}

/// What both drivers carry across iterations: the incumbent, the
/// evaluation count, per-iteration telemetry and the state of the
/// stopping rules.
struct Tracker<'c, S> {
    config: &'c CeConfig,
    elite_target: usize,
    best_sample: Option<S>,
    best_cost: f64,
    telemetry: CeTelemetry,
    evaluations: u64,
    prev_signature: Option<Vec<f64>>,
    stable_iters: usize,
    prev_gamma: Option<f64>,
    gamma_stable: usize,
}

impl<'c, S> Tracker<'c, S> {
    fn new(config: &'c CeConfig) -> Self {
        config.validate();
        Tracker {
            config,
            elite_target: ((config.rho * config.sample_size as f64).floor() as usize).max(1),
            best_sample: None,
            best_cost: f64::INFINITY,
            telemetry: CeTelemetry::default(),
            evaluations: 0,
            prev_signature: None,
            stable_iters: 0,
            prev_gamma: None,
            gamma_stable: 0,
        }
    }

    /// Count one scored batch of `n` samples.
    fn count_evaluations(&mut self, n: usize, recorder: &mut dyn Recorder) {
        self.evaluations += n as u64;
        if recorder.enabled() {
            recorder.record(Event::Counter {
                name: "evaluations".into(),
                value: n as u64,
            });
        }
    }

    /// Everything after a batch is scored: select the elite, capture the
    /// incumbent (`sample(i)` copies sample `i` out of the batch), apply
    /// `update` to the elite indices, record telemetry, and apply the
    /// stopping rules. Returns why the loop must stop, if it must.
    #[allow(clippy::too_many_arguments)]
    fn step<M: CeModel>(
        &mut self,
        iter: usize,
        model: &mut M,
        costs: &[f64],
        sample: impl Fn(usize) -> S,
        update: impl FnOnce(&mut M, &[usize]),
        observe: &mut impl FnMut(usize, &M),
        recorder: &mut dyn Recorder,
        iter_start: Option<Instant>,
        should_stop: &dyn Fn() -> bool,
    ) -> Option<StopReason> {
        let config = self.config;
        let traced = recorder.enabled();
        let n = costs.len();

        // Steps 4–5: the ρ-quantile threshold γ and the elite set, in
        // O(N) expected instead of a full sort.
        let selection = select_elites(costs, self.elite_target);
        let gamma = selection.gamma;
        let elite_count = selection.elites.len();

        // Track the incumbent.
        let first = selection.best;
        // `<` alone would never capture a sample when every cost is +∞
        // (all-infeasible iterations of penalised formulations).
        if self.best_sample.is_none() || costs[first] < self.best_cost {
            self.best_cost = costs[first];
            self.best_sample = Some(sample(first));
        }

        // Step 6: ML update + smoothing.
        let span = traced.then(|| Span::start("update", iter as u64));
        update(model, &selection.elites);
        if let Some(span) = span {
            span.finish(recorder);
        }
        observe(iter, model);

        let mean = costs.iter().sum::<f64>() / n as f64;
        self.telemetry.iters.push(IterStats {
            iter,
            gamma,
            best: costs[first],
            mean,
            worst: selection.worst,
            elite_count,
            entropy: model.entropy(),
        });
        if let Some(start) = iter_start {
            recorder.record(Event::Iter(IterEvent {
                iter: iter as u64,
                best: costs[first],
                mean,
                gamma: Some(gamma),
                elite_size: elite_count as u64,
                wall_ns: start.elapsed().as_nanos() as u64,
            }));
        }

        // Step 8: μ-stability (Eq. 12), plus degeneracy early-out.
        let signature = model.stability_signature();
        if let Some(prev) = &self.prev_signature {
            let stable = prev
                .iter()
                .zip(&signature)
                .all(|(a, b)| (a - b).abs() <= config.stability_tol);
            self.stable_iters = if stable { self.stable_iters + 1 } else { 0 };
        }
        self.prev_signature = Some(signature);
        if self.stable_iters >= config.stability_window {
            return Some(StopReason::MuStable);
        }
        // Figure 2's γ-stability rule.
        if config.gamma_window > 0 {
            if let Some(pg) = self.prev_gamma {
                let equal = if pg.is_finite() && gamma.is_finite() {
                    (pg - gamma).abs() <= config.gamma_tol * (1.0 + pg.abs())
                } else {
                    pg == gamma
                };
                self.gamma_stable = if equal { self.gamma_stable + 1 } else { 0 };
            }
            self.prev_gamma = Some(gamma);
            if self.gamma_stable >= config.gamma_window {
                return Some(StopReason::GammaStable);
            }
        }
        if model.is_degenerate(config.degeneracy_tol) {
            return Some(StopReason::Degenerate);
        }
        // Cooperative cancellation, polled last so the incumbent from
        // this iteration is already captured.
        if should_stop() {
            return Some(StopReason::Cancelled);
        }
        None
    }

    fn finish(self, stop_reason: StopReason) -> CeOutcome<S> {
        CeOutcome {
            best_sample: self.best_sample.expect("at least one iteration ran"),
            best_cost: self.best_cost,
            iterations: self.telemetry.iters.len(),
            evaluations: self.evaluations,
            stop_reason,
            telemetry: self.telemetry,
        }
    }
}

/// The elite set of one iteration, by index into the cost slice.
#[derive(Debug, Clone, PartialEq)]
pub struct EliteSelection {
    /// Elite threshold `γ` — the `⌊ρN⌋`-th smallest cost.
    pub gamma: f64,
    /// Indices with cost `≤ γ` (the indicator of Eq. 11), sorted by
    /// `(cost, index)` — the exact order a stable full sort would give.
    pub elites: Vec<usize>,
    /// Index of the best sample (smallest cost; smallest index on ties).
    pub best: usize,
    /// Worst sampled cost (telemetry).
    pub worst: f64,
}

/// Select the `⌊ρN⌋`-elite plus ties at `γ` in O(N) expected time.
///
/// A quickselect ([`slice::select_nth_unstable_by`]) finds the
/// `elite_target`-th smallest cost — that is `γ` — and a linear sweep
/// admits every sample with `cost ≤ γ`, matching the `S ≤ γ` indicator
/// of Eq. 11 (ties included). Only the elite set (≈ `ρN` entries) is then
/// sorted, so the returned order — and hence the floating-point summation
/// order of the model update and the incumbent choice — is bit-identical
/// to the full stable sort this replaces.
pub fn select_elites(costs: &[f64], elite_target: usize) -> EliteSelection {
    let n = costs.len();
    assert!(
        (1..=n).contains(&elite_target),
        "elite target must be in 1..=N"
    );
    let mut idx: Vec<usize> = (0..n).collect();
    let (_, &mut kth, _) =
        idx.select_nth_unstable_by(elite_target - 1, |&a, &b| costs[a].total_cmp(&costs[b]));
    let gamma = costs[kth];
    let mut elites: Vec<usize> = (0..n).filter(|&i| costs[i] <= gamma).collect();
    elites.sort_unstable_by(|&a, &b| costs[a].total_cmp(&costs[b]).then(a.cmp(&b)));
    let best = *elites.first().expect("gamma itself is admitted");
    let worst = costs
        .iter()
        .copied()
        .max_by(f64::total_cmp)
        .expect("n >= 1");
    EliteSelection {
        gamma,
        elites,
        best,
        worst,
    }
}

/// The fused parallel CE loop for [`FlatSampler`] models: per iteration,
/// the `N`-sample batch is split into `match-par` row chunks and each
/// worker **draws its rows, then scores the whole chunk** in one
/// [`FlatEvaluator::evaluate_rows`] call, writing into one flat
/// `N × width` buffer — no per-sample allocation, no sample-then-evaluate
/// barrier, and a chunk-sized batch for `match-core`'s SIMD-style
/// kernel to amortise its transpose and lane buffers over. A per-row
/// closure plugs in through [`RowEval`](crate::batch::RowEval).
///
/// Determinism: the driver RNG is consumed exactly once per iteration
/// (one `u64` → the iteration seed); sample `i` draws from its own
/// counter-based `match_rngutil::SplitMix64::stream(iter_seed, i)` —
/// two mixes to set up instead of a full `StdRng` key expansion per
/// sample. Evaluation is pure and chunk boundaries only regroup the
/// evaluator's batches, so results are identical for every `threads`
/// value and chunking — though the stream differs from
/// [`minimize_controlled`]'s.
///
/// When `recorder` is enabled, the fused region still reports separate
/// `sample` / `evaluate` spans: workers accumulate per-phase nanoseconds
/// and the region's wall clock is split proportionally (table builds
/// count as sampling). Per-chunk [`PoolEvent`]s expose dispatch balance.
#[allow(clippy::too_many_arguments)]
pub fn minimize_flat_with<M, E, O>(
    model: &mut M,
    config: &CeConfig,
    rng: &mut StdRng,
    threads: usize,
    evaluator: &E,
    mut observe: O,
    recorder: &mut dyn Recorder,
    should_stop: &dyn Fn() -> bool,
) -> CeOutcome<Vec<usize>>
where
    M: FlatSampler,
    E: FlatEvaluator,
    O: FnMut(usize, &M),
{
    let mut run = Tracker::new(config);
    let traced = recorder.enabled();
    let n = config.sample_size;
    let width = model.width();

    let mut tables = model.new_tables();
    let mut data = vec![0usize; n * width];
    let mut costs = vec![0.0f64; n];

    for iter in 0..config.max_iters {
        let iter_start = traced.then(Instant::now);

        // One driver-RNG draw per iteration; everything below is a pure
        // function of (model, iter_seed), independent of thread count.
        let iter_seed: u64 = rng.random();

        let region_start = traced.then(Instant::now);
        model.fill_tables(&mut tables);
        let prep_ns = region_start.map_or(0, |t| t.elapsed().as_nanos() as u64);

        let sample_ns = AtomicU64::new(0);
        let eval_ns = AtomicU64::new(0);
        let tables_ref = &tables;
        let timings = match_par::parallel_fill_rows_chunked(
            &mut data,
            &mut costs,
            width,
            threads,
            || (model.new_scratch(), evaluator.new_scratch()),
            |(scratch, eval_scratch), base, chunk_data, chunk_costs| {
                // Draw every row of the chunk, then score the chunk in
                // one batch call. Sample i's RNG stream depends only on
                // its global index, and evaluation is pure, so chunk
                // boundaries cannot show in the results.
                let t0 = traced.then(Instant::now);
                let mut rest: &mut [usize] = chunk_data;
                for k in 0..chunk_costs.len() {
                    let (row, tail) = rest.split_at_mut(width);
                    rest = tail;
                    let mut srng = match_rngutil::SplitMix64::stream(iter_seed, (base + k) as u64);
                    model.sample_flat(tables_ref, scratch, &mut srng, row);
                }
                let t1 = traced.then(Instant::now);
                evaluator.evaluate_rows(chunk_data, chunk_costs, eval_scratch);
                if let (Some(t0), Some(t1)) = (t0, t1) {
                    let t2 = Instant::now();
                    sample_ns.fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
                    eval_ns.fetch_add((t2 - t1).as_nanos() as u64, Ordering::Relaxed);
                }
            },
        );
        run.count_evaluations(n, recorder);

        if let Some(start) = region_start {
            // Split the fused region's wall clock between the two logical
            // phases in proportion to the workers' accumulated time, so
            // phase budgets in `matchctl report` stay comparable with the
            // sequential pipeline. Table builds count as sampling.
            let wall = start.elapsed().as_nanos() as u64;
            let s = prep_ns + sample_ns.load(Ordering::Relaxed);
            let e = eval_ns.load(Ordering::Relaxed);
            let total = s + e;
            let sample_share = if total == 0 {
                wall
            } else {
                (wall as u128 * s as u128 / total as u128) as u64
            };
            recorder.record(Event::Span(SpanEvent {
                name: "sample".into(),
                iter: iter as u64,
                wall_ns: sample_share,
            }));
            recorder.record(Event::Span(SpanEvent {
                name: "evaluate".into(),
                iter: iter as u64,
                wall_ns: wall - sample_share,
            }));
            for t in &timings {
                recorder.record(Event::Pool(PoolEvent {
                    iter: iter as u64,
                    chunk: t.chunk,
                    len: t.len,
                    wall_ns: t.wall_ns,
                }));
            }
        }

        // The ML update reads the elite rows straight off the flat batch.
        let stop = run.step(
            iter,
            model,
            &costs,
            |i| data[i * width..(i + 1) * width].to_vec(),
            |model, elites| {
                model.update_from_flat(&FlatBatch::new(width, &data), elites, config.zeta)
            },
            &mut observe,
            recorder,
            iter_start,
            should_stop,
        );
        if let Some(reason) = stop {
            return run.finish(reason);
        }
    }
    run.finish(StopReason::MaxIters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::RowEval;
    use crate::models::bernoulli::BernoulliModel;
    use crate::models::permutation::PermutationModel;
    use match_telemetry::NullRecorder;
    use rand::SeedableRng;

    /// Per-sample `score` through [`minimize_controlled`], untraced and
    /// never cancelled.
    fn run_scored<M>(
        model: &mut M,
        config: &CeConfig,
        rng: &mut StdRng,
        mut score: impl FnMut(&M::Sample) -> f64,
    ) -> CeOutcome<M::Sample>
    where
        M: CeModel,
        M::Sample: Clone,
    {
        minimize_controlled(
            model,
            config,
            rng,
            |samples, _| samples.iter().map(&mut score).collect(),
            |_, _| {},
            &mut NullRecorder,
            &|| false,
        )
    }

    /// Per-row `score` through [`minimize_flat_with`], never cancelled.
    fn run_rows<M: FlatSampler>(
        model: &mut M,
        config: &CeConfig,
        rng: &mut StdRng,
        threads: usize,
        score: impl Fn(&[usize]) -> f64 + Sync,
        recorder: &mut dyn Recorder,
    ) -> CeOutcome<Vec<usize>> {
        minimize_flat_with(
            model,
            config,
            rng,
            threads,
            &RowEval(score),
            |_, _| {},
            recorder,
            &|| false,
        )
    }

    /// Cost: number of coordinates that differ from a hidden target.
    fn hamming_cost(target: &[bool]) -> impl Fn(&Vec<bool>) -> f64 + '_ {
        move |s: &Vec<bool>| s.iter().zip(target).filter(|(a, b)| a != b).count() as f64
    }

    #[test]
    fn recovers_hidden_bit_vector() {
        let target = vec![true, false, true, true, false, false, true, false];
        let mut model = BernoulliModel::uniform(target.len());
        let cfg = CeConfig::with_sample_size(100);
        let mut rng = StdRng::seed_from_u64(81);
        let out = run_scored(&mut model, &cfg, &mut rng, hamming_cost(&target));
        assert_eq!(out.best_cost, 0.0);
        assert_eq!(out.best_sample, target);
        assert!(out.iterations < 100);
        assert_eq!(
            out.evaluations,
            out.iterations as u64 * cfg.sample_size as u64
        );
    }

    #[test]
    fn recovers_hidden_permutation() {
        let target = vec![3usize, 1, 4, 0, 2, 5];
        let mut model = PermutationModel::uniform(target.len());
        let cfg = CeConfig::with_sample_size(200);
        let mut rng = StdRng::seed_from_u64(82);
        let out = run_scored(&mut model, &cfg, &mut rng, |s: &Vec<usize>| {
            s.iter().zip(&target).filter(|(a, b)| a != b).count() as f64
        });
        assert_eq!(out.best_cost, 0.0);
        assert_eq!(out.best_sample, target);
    }

    #[test]
    fn gamma_is_monotone_trending_down() {
        // On a smooth problem the elite threshold should improve overall.
        let target = vec![true; 12];
        let mut model = BernoulliModel::uniform(12);
        let cfg = CeConfig::with_sample_size(80);
        let mut rng = StdRng::seed_from_u64(83);
        let out = run_scored(&mut model, &cfg, &mut rng, hamming_cost(&target));
        let first = out.telemetry.iters.first().unwrap().gamma;
        let last = out.telemetry.iters.last().unwrap().gamma;
        assert!(last <= first);
    }

    #[test]
    fn best_curve_is_nonincreasing() {
        let target = vec![
            true, false, true, false, true, false, true, false, true, false,
        ];
        let mut model = BernoulliModel::uniform(10);
        let cfg = CeConfig::with_sample_size(50);
        let mut rng = StdRng::seed_from_u64(84);
        let out = run_scored(&mut model, &cfg, &mut rng, hamming_cost(&target));
        let curve = out.telemetry.best_curve();
        for w in curve.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn observer_sees_every_iteration() {
        let mut model = BernoulliModel::uniform(4);
        let cfg = CeConfig::with_sample_size(30);
        let mut rng = StdRng::seed_from_u64(85);
        let mut seen = Vec::new();
        let out = minimize_controlled(
            &mut model,
            &cfg,
            &mut rng,
            |samples, _| {
                samples
                    .iter()
                    .map(|s| s.iter().filter(|&&b| b).count() as f64)
                    .collect()
            },
            |iter, _m| seen.push(iter),
            &mut NullRecorder,
            &|| false,
        );
        assert_eq!(seen.len(), out.iterations);
        assert_eq!(seen, (0..out.iterations).collect::<Vec<_>>());
    }

    #[test]
    fn max_iters_respected() {
        let mut model = BernoulliModel::uniform(64);
        let mut cfg = CeConfig::with_sample_size(10);
        cfg.max_iters = 3;
        // Random objective: no convergence possible.
        let mut rng = StdRng::seed_from_u64(86);
        let mut flip = 0.0;
        let out = run_scored(&mut model, &cfg, &mut rng, |_s| {
            flip += 1.0;
            (flip * 7919.0) % 97.0
        });
        assert_eq!(out.iterations, 3);
        assert_eq!(out.stop_reason, StopReason::MaxIters);
    }

    #[test]
    fn stops_on_degeneracy_with_coarse_update() {
        // zeta = 1 and a constant elite: model collapses instantly.
        let mut model = BernoulliModel::uniform(6);
        let mut cfg = CeConfig::with_sample_size(40);
        cfg.zeta = 1.0;
        cfg.stability_window = 50; // keep μ-rule out of the way
        let target = vec![true; 6];
        let mut rng = StdRng::seed_from_u64(87);
        let out = run_scored(&mut model, &cfg, &mut rng, hamming_cost(&target));
        assert!(matches!(
            out.stop_reason,
            StopReason::Degenerate | StopReason::MuStable
        ));
        assert!(out.iterations < 50);
    }

    #[test]
    fn handles_infinite_costs() {
        // Infeasible samples score +inf; the driver must still pick the
        // finite ones as elites.
        let mut model = BernoulliModel::uniform(5);
        let cfg = CeConfig::with_sample_size(60);
        let mut rng = StdRng::seed_from_u64(88);
        let out = run_scored(&mut model, &cfg, &mut rng, |s: &Vec<bool>| {
            let ones = s.iter().filter(|&&b| b).count();
            if ones == 0 {
                f64::INFINITY
            } else {
                ones as f64
            }
        });
        assert_eq!(out.best_cost, 1.0);
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn invalid_config_panics() {
        let mut model = BernoulliModel::uniform(2);
        let mut cfg = CeConfig::with_sample_size(10);
        cfg.rho = 0.0;
        let mut rng = StdRng::seed_from_u64(89);
        run_scored(&mut model, &cfg, &mut rng, |_| 0.0);
    }

    #[test]
    #[should_panic(expected = "zeta must be in [0, 1]")]
    fn invalid_zeta_panics() {
        let mut model = BernoulliModel::uniform(2);
        let mut cfg = CeConfig::with_sample_size(10);
        cfg.zeta = 1.5;
        run_scored(&mut model, &cfg, &mut StdRng::seed_from_u64(89), |_| 0.0);
    }

    #[test]
    #[should_panic(expected = "need at least one sample")]
    fn zero_samples_panics() {
        let mut model = BernoulliModel::uniform(2);
        let cfg = CeConfig::with_sample_size(0);
        run_scored(&mut model, &cfg, &mut StdRng::seed_from_u64(89), |_| 0.0);
    }

    #[test]
    #[should_panic(expected = "need at least one iteration")]
    fn zero_iterations_panics() {
        let mut model = BernoulliModel::uniform(2);
        let mut cfg = CeConfig::with_sample_size(10);
        cfg.max_iters = 0;
        run_scored(&mut model, &cfg, &mut StdRng::seed_from_u64(89), |_| 0.0);
    }

    #[test]
    fn cancellation_fires_after_one_iteration() {
        // A hostile predicate that is always true still lets one
        // iteration run, so the outcome has a valid incumbent.
        let mut model = BernoulliModel::uniform(16);
        let cfg = CeConfig::with_sample_size(20);
        let mut rng = StdRng::seed_from_u64(91);
        let out = minimize_controlled(
            &mut model,
            &cfg,
            &mut rng,
            |samples, _r| {
                samples
                    .iter()
                    .map(|s| s.iter().filter(|&&b| b).count() as f64)
                    .collect()
            },
            |_, _| {},
            &mut NullRecorder,
            &|| true,
        );
        assert_eq!(out.iterations, 1);
        assert_eq!(out.stop_reason, StopReason::Cancelled);
        assert!(out.best_cost.is_finite());
    }

    #[test]
    fn never_firing_predicate_changes_nothing() {
        // Same seed, with a constant and with a polled, never-firing
        // stop predicate: identical trajectories, because polling
        // consumes no RNG.
        let target = vec![true, false, true, true, false, false, true, false];
        let cfg = CeConfig::with_sample_size(100);
        let mut m1 = BernoulliModel::uniform(target.len());
        let plain = run_scored(
            &mut m1,
            &cfg,
            &mut StdRng::seed_from_u64(81),
            hamming_cost(&target),
        );
        let mut m2 = BernoulliModel::uniform(target.len());
        let cost = hamming_cost(&target);
        let polls = std::cell::Cell::new(0usize);
        let controlled = minimize_controlled(
            &mut m2,
            &cfg,
            &mut StdRng::seed_from_u64(81),
            |samples, _r| samples.iter().map(&cost).collect(),
            |_, _| {},
            &mut NullRecorder,
            &|| {
                polls.set(polls.get() + 1);
                false
            },
        );
        assert_eq!(plain.best_sample, controlled.best_sample);
        assert_eq!(plain.best_cost, controlled.best_cost);
        assert_eq!(plain.iterations, controlled.iterations);
        assert_eq!(plain.stop_reason, controlled.stop_reason);
        // Polled once per iteration that no stopping rule ended.
        let ended_by_rule = usize::from(controlled.stop_reason != StopReason::MaxIters);
        assert_eq!(polls.get(), controlled.iterations - ended_by_rule);
    }

    #[test]
    fn elite_count_at_least_target_with_ties() {
        let mut model = BernoulliModel::uniform(3);
        let cfg = CeConfig::with_sample_size(50);
        let mut rng = StdRng::seed_from_u64(90);
        // Constant objective: every sample ties at γ, so all are elite.
        let out = run_scored(&mut model, &cfg, &mut rng, |_| 1.0);
        assert!(out.telemetry.iters[0].elite_count == 50);
    }

    /// The sorted reference implementation `select_elites` replaced.
    fn select_elites_by_sort(costs: &[f64], elite_target: usize) -> EliteSelection {
        let n = costs.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            costs[a]
                .partial_cmp(&costs[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let gamma = costs[order[elite_target - 1]];
        let elites: Vec<usize> = order
            .iter()
            .copied()
            .take_while(|&i| costs[i] <= gamma)
            .collect();
        EliteSelection {
            gamma,
            best: order[0],
            worst: costs[order[n - 1]],
            elites,
        }
    }

    #[test]
    fn select_elites_matches_sorted_reference() {
        // Pseudo-random and adversarially tie-heavy cost vectors.
        let mut rng = StdRng::seed_from_u64(92);
        for case in 0..200 {
            let n: usize = 1 + (case % 37);
            let costs: Vec<f64> = (0..n)
                .map(|_| {
                    use rand::Rng;
                    match rng.random_range(0..4u32) {
                        // Heavy ties: few distinct plateau levels.
                        0 => rng.random_range(0..3u32) as f64,
                        1 => f64::INFINITY,
                        _ => rng.random::<f64>(),
                    }
                })
                .collect();
            for target in [1, n.div_ceil(10).max(1), n] {
                let fast = select_elites(&costs, target);
                let slow = select_elites_by_sort(&costs, target);
                assert_eq!(fast, slow, "n={n} target={target} costs={costs:?}");
            }
        }
    }

    #[test]
    fn select_elites_admits_ties_beyond_target() {
        let costs = [2.0, 1.0, 1.0, 1.0, 3.0];
        let sel = select_elites(&costs, 2);
        assert_eq!(sel.gamma, 1.0);
        assert_eq!(sel.elites, vec![1, 2, 3]);
        assert_eq!(sel.best, 1);
        assert_eq!(sel.worst, 3.0);
    }

    #[test]
    fn select_elites_all_infinite() {
        let costs = [f64::INFINITY; 4];
        let sel = select_elites(&costs, 1);
        assert_eq!(sel.gamma, f64::INFINITY);
        assert_eq!(sel.elites, vec![0, 1, 2, 3]);
        assert_eq!(sel.best, 0);
    }

    #[test]
    fn flat_recovers_hidden_permutation() {
        let target = vec![3usize, 1, 4, 0, 2, 5];
        let cost = |s: &[usize]| s.iter().zip(&target).filter(|(a, b)| a != b).count() as f64;
        let mut model = PermutationModel::uniform(target.len());
        let cfg = CeConfig::with_sample_size(200);
        let mut rng = StdRng::seed_from_u64(82);
        let out = run_rows(&mut model, &cfg, &mut rng, 1, cost, &mut NullRecorder);
        assert_eq!(out.best_cost, 0.0);
        assert_eq!(out.best_sample, target);
    }

    #[test]
    fn flat_outcome_is_thread_count_invariant() {
        let target = vec![2usize, 0, 3, 1, 4];
        let run = |threads: usize| {
            let mut model = PermutationModel::uniform(target.len());
            let cfg = CeConfig::with_sample_size(120);
            let mut rng = StdRng::seed_from_u64(93);
            run_rows(
                &mut model,
                &cfg,
                &mut rng,
                threads,
                |s: &[usize]| s.iter().zip(&target).filter(|(a, b)| a != b).count() as f64,
                &mut NullRecorder,
            )
        };
        let one = run(1);
        for threads in [2, 4, 8] {
            let other = run(threads);
            assert_eq!(one.best_sample, other.best_sample, "threads={threads}");
            assert_eq!(one.best_cost, other.best_cost, "threads={threads}");
            assert_eq!(one.iterations, other.iterations, "threads={threads}");
            assert_eq!(one.telemetry, other.telemetry, "threads={threads}");
        }
    }

    #[test]
    fn flat_with_batch_evaluator_matches_per_row_closure() {
        use crate::batch::FlatEvaluator;

        // A chunk-level evaluator computing the same pure cost as the
        // closure must reproduce the per-row pipeline's trajectory
        // exactly, for every thread count.
        struct SumDistance(Vec<usize>);
        impl FlatEvaluator for SumDistance {
            type Scratch = ();
            fn new_scratch(&self) -> Self::Scratch {}
            fn evaluate_rows(&self, rows: &[usize], costs: &mut [f64], _s: &mut Self::Scratch) {
                let width = self.0.len();
                for (row, cost) in rows.chunks_exact(width).zip(costs.iter_mut()) {
                    *cost = row.iter().zip(&self.0).filter(|(a, b)| a != b).count() as f64;
                }
            }
        }

        let target = vec![2usize, 0, 3, 1, 4];
        let cfg = CeConfig::with_sample_size(120);
        let mut model = PermutationModel::uniform(target.len());
        let per_row = run_rows(
            &mut model,
            &cfg,
            &mut StdRng::seed_from_u64(93),
            1,
            |s: &[usize]| s.iter().zip(&target).filter(|(a, b)| a != b).count() as f64,
            &mut NullRecorder,
        );
        for threads in [1, 2, 8] {
            let mut model = PermutationModel::uniform(target.len());
            let batched = minimize_flat_with(
                &mut model,
                &cfg,
                &mut StdRng::seed_from_u64(93),
                threads,
                &SumDistance(target.clone()),
                |_, _| {},
                &mut NullRecorder,
                &|| false,
            );
            assert_eq!(
                per_row.best_sample, batched.best_sample,
                "threads={threads}"
            );
            assert_eq!(per_row.best_cost, batched.best_cost, "threads={threads}");
            assert_eq!(per_row.iterations, batched.iterations, "threads={threads}");
            assert_eq!(per_row.telemetry, batched.telemetry, "threads={threads}");
        }
    }

    #[test]
    fn flat_emits_sample_and_evaluate_spans() {
        use match_telemetry::MemoryRecorder;
        let mut model = PermutationModel::uniform(4);
        let mut cfg = CeConfig::with_sample_size(40);
        cfg.max_iters = 3;
        let mut rng = StdRng::seed_from_u64(94);
        let mut recorder = MemoryRecorder::default();
        run_rows(
            &mut model,
            &cfg,
            &mut rng,
            2,
            |s: &[usize]| s[0] as f64,
            &mut recorder,
        );
        let mut sample_spans = 0;
        let mut eval_spans = 0;
        let mut update_spans = 0;
        for ev in recorder.events() {
            if let Event::Span(s) = ev {
                match s.name.as_ref() {
                    "sample" => sample_spans += 1,
                    "evaluate" => eval_spans += 1,
                    "update" => update_spans += 1,
                    _ => {}
                }
            }
        }
        assert!(sample_spans >= 1);
        assert_eq!(sample_spans, eval_spans);
        assert_eq!(sample_spans, update_spans);
    }
}
