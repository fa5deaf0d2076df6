//! Incremental re-mapping for dynamic workloads.
//!
//! When tasks arrive and depart over time, re-solving every epoch from
//! scratch throws away the previous epoch's mapping — both its search
//! effort and its placement (every moved task pays a migration). This
//! module re-maps *incrementally*:
//!
//! 1. **Warm-started CE** (optional): the stochastic matrix is seeded
//!    from the prior mapping (a delta matrix blended toward uniform by
//!    `α`, through the same [`Matcher::run_warm_controlled`] seam the
//!    serve warm store uses), so CE skips most of its burn-in.
//! 2. **Delta refinement on the changed subgraph**: FM-style swap
//!    passes restricted to the event-touched tasks (and whatever the
//!    caller adds — typically their TIG neighbours), scored by
//!    [`IncrementalCost`] peeks. Each costs an O(degree) delta plus a
//!    max over the resources the swap touches; only a swap that touches
//!    the busiest resource takes the max over all n loads, in eight
//!    independent lanes (see [`crate::cost`]). A task that touches
//!    no busiest resource ([`IncrementalCost::touches_max`]) peeks only
//!    the partners that do, plus — with `μ > 0` — the at most two that
//!    undo a migration: every other swap leaves Eq. 2's maximum in place
//!    and cannot lower the migration count, so it cannot win. A pass
//!    thus picks exactly the swaps a scan over every partner would, in
//!    far fewer peeks; only a task on or beside a busiest resource scans
//!    all `n − 1` partners.
//!
//! The reported cost is a fresh Eq. 2, bit-equal to [`exec_time`] of the
//! returned mapping, without a second Eq. 1 pass over the instance.
//! [`IncrementalCost::new`] computed every load freshly; a peek writes
//! its saved bits back, so only an applied swap changes a load, and a
//! swap writes exactly its two ends and the resources of the swapped
//! tasks' TIG neighbours. A resource outside those sets holds the same
//! task, beside neighbours on the same resources, as when it was
//! computed, so its fresh load has the bits it still holds. Each
//! resource inside them is recomputed as Eq. 1 computes it: `0.0` plus
//! the one task on it (a bijection), through the same per-task sum
//! [`exec_per_resource_into`](crate::cost::exec_per_resource_into) uses.
//! The max over the result is the one [`exec_time`] takes.
//!
//! The objective carries a migration-cost term `μ · |{t : x_t ≠
//! prior_t}|`: refinement accepts a swap only when Eq. 2 *plus* the
//! migration charge improves, and the outcome reports the two terms
//! separately so callers can see quality and churn independently.
//!
//! Contracts the verify harness pins:
//! * no prior (or an invalid one) falls back to a cold solve that is
//!   bit-identical to [`Matcher::run_controlled`] with the same seed;
//! * an empty `changed` set under [`RemapStrategy::RefineOnly`] returns
//!   the prior mapping unchanged, with `cost` bit-equal to a fresh
//!   Eq. 2 evaluation and zero migrations;
//! * `total == cost + migration_cost` by construction;
//! * refinement polls the [`StopToken`] once per changed task, and a
//!   fired token returns the mapping as it stands, with the same fresh
//!   Eq. 2 cost and exact migration ledger as a finished pass.

use crate::control::StopToken;
use crate::cost::{exec_time, for_each_touched, makespan, task_load, IncrementalCost};
use crate::mapping::Mapping;
use crate::matcher::{MatchConfig, Matcher};
use crate::problem::MappingInstance;
use match_ce::stochmatrix::StochasticMatrix;
use match_rngutil::perm::invert_permutation;
use match_telemetry::{NullRecorder, Recorder, Span};
use rand::rngs::StdRng;
use std::time::{Duration, Instant};

/// How the incremental pass searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RemapStrategy {
    /// Keep the prior mapping and run only delta refinement on the
    /// changed subgraph — the fast path for large `n`, where a fresh CE
    /// solve (even warm) pays the full `2n²` sampling bill.
    #[default]
    RefineOnly,
    /// Warm-started CE seeded from the prior mapping, then delta
    /// refinement. Better quality on heavily-perturbed instances; costs
    /// CE iterations.
    WarmCe,
}

/// Tunables for [`remap_incremental`].
#[derive(Debug, Clone)]
pub struct RemapConfig {
    /// CE configuration used by [`RemapStrategy::WarmCe`] and by the
    /// cold fallback.
    pub match_config: MatchConfig,
    /// Search strategy.
    pub strategy: RemapStrategy,
    /// Warm-seed blend for [`RemapStrategy::WarmCe`]: the CE matrix
    /// starts at `α·delta(prior) + (1−α)·uniform`.
    pub alpha: f64,
    /// Migration cost per moved task (`μ`).
    pub mu: f64,
    /// Refinement passes over the changed set.
    pub refine_passes: usize,
}

impl Default for RemapConfig {
    fn default() -> Self {
        RemapConfig {
            match_config: MatchConfig::default(),
            strategy: RemapStrategy::default(),
            alpha: 0.5,
            mu: 0.0,
            refine_passes: 2,
        }
    }
}

/// Everything an incremental re-map produces.
#[derive(Debug, Clone)]
pub struct RemapOutcome {
    /// The new mapping.
    pub mapping: Mapping,
    /// Its Eq. 2 execution time (freshly recomputed, oracle-grade).
    pub cost: f64,
    /// `|{t : mapping_t ≠ prior_t}|` — tasks that must migrate.
    pub migrated: usize,
    /// `μ · migrated`, reported separately from `cost`.
    pub migration_cost: f64,
    /// `cost + migration_cost` — the objective the search minimised.
    pub total: f64,
    /// Whether the prior mapping actually seeded the search.
    pub warm: bool,
    /// CE iterations executed (0 for pure refinement).
    pub iterations: usize,
    /// Objective evaluations, including refinement peeks.
    pub evaluations: u64,
    /// Wall-clock re-mapping time.
    pub elapsed: Duration,
}

/// Incrementally re-map `inst`, starting from `prior` where possible.
///
/// `changed` names the tasks whose neighbourhood the event batch
/// touched; refinement swaps are restricted to them. Out-of-range ids
/// are ignored and duplicates are collapsed. `prior` must be a valid
/// permutation of `inst`'s tasks to be used; anything else (including
/// `None`) takes the cold-solve fallback, bit-identical to
/// [`Matcher::run_controlled`] under the same seed.
pub fn remap_incremental(
    inst: &MappingInstance,
    prior: Option<&[usize]>,
    changed: &[usize],
    cfg: &RemapConfig,
    rng: &mut StdRng,
    recorder: &mut dyn Recorder,
    stop: &StopToken,
) -> RemapOutcome {
    assert!(
        inst.is_square(),
        "incremental re-mapping needs |V_t| = |V_r|"
    );
    assert!(cfg.mu >= 0.0, "mu must be non-negative");
    let start = Instant::now();
    let n = inst.n_tasks();
    let span = Span::start("remap", 0);

    let valid_prior = prior.filter(|p| p.len() == n && match_rngutil::perm::is_permutation(p));

    let outcome = match valid_prior {
        None => {
            // Cold fallback: the exact cold-path CE trajectory.
            let matcher = Matcher::new(cfg.match_config.clone());
            let (out, _) = matcher.run_warm_controlled(inst, rng, recorder, stop, None, 0.0);
            let migrated = match prior {
                Some(p) => (0..n)
                    .filter(|&t| p.get(t) != Some(&out.mapping.as_slice()[t]))
                    .count(),
                None => 0,
            };
            let migration_cost = cfg.mu * migrated as f64;
            RemapOutcome {
                cost: out.cost,
                total: out.cost + migration_cost,
                migrated,
                migration_cost,
                warm: false,
                iterations: out.iterations,
                evaluations: out.evaluations,
                elapsed: Duration::ZERO,
                mapping: out.mapping,
            }
        }
        Some(p) => {
            let mut evaluations: u64 = 0;
            let mut iterations = 0usize;
            let mut warm = true;
            let start_assign = match cfg.strategy {
                RemapStrategy::WarmCe => {
                    let delta = delta_matrix(p, n);
                    let matcher = Matcher::new(cfg.match_config.clone());
                    let (out, _) = matcher.run_warm_controlled(
                        inst,
                        rng,
                        recorder,
                        stop,
                        Some(&delta),
                        cfg.alpha,
                    );
                    warm = cfg.alpha > 0.0;
                    iterations = out.iterations;
                    evaluations = out.evaluations;
                    out.mapping.as_slice().to_vec()
                }
                RemapStrategy::RefineOnly => p.to_vec(),
            };

            let mut changed_set: Vec<usize> = changed.iter().copied().filter(|&t| t < n).collect();
            changed_set.sort_unstable();
            changed_set.dedup();

            let refine = Span::start("refine-delta", 0);
            let mut inc = IncrementalCost::new(inst, start_assign);
            let mut moved: Vec<bool> = (0..n).map(|t| inc.assign()[t] != p[t]).collect();
            let mut moved_count = moved.iter().filter(|&&m| m).count();
            // The state's Eq. 2 + μ·moved, bit for bit: a partner that
            // touches no busiest resource and undoes no migration totals
            // at least this, so the strict `<` below would reject it.
            let mut cur_total = inc.cost() + cfg.mu * moved_count as f64;
            // The partners that undo a migration: the task on `p[t]`, and
            // the task whose prior is `t`'s resource.
            let mut task_on = invert_permutation(inc.assign());
            let prior_task = invert_permutation(p);
            let all_tasks: Vec<usize> = (0..n).collect();
            let mut touching = Vec::new();
            inc.max_touching_tasks(&mut touching);
            // Every resource an applied swap wrote: the closing Eq. 2
            // recomputes only these.
            let mut dirty = Vec::new();
            let mut partners = Vec::new();
            'passes: for _pass in 0..cfg.refine_passes {
                let mut improved = false;
                for &t in &changed_set {
                    // One poll per task's scan: a deadline or a drain
                    // lands within one task's scan.
                    if stop.should_stop() {
                        break 'passes;
                    }
                    // Ascending ids either way, so the first strict
                    // minimum is the full scan's.
                    let scan: &[usize] = if inc.touches_max(t) {
                        &all_tasks
                    } else {
                        partners.clear();
                        partners.extend_from_slice(&touching);
                        if cfg.mu > 0.0 {
                            partners.push(task_on[p[t]]);
                            partners.push(prior_task[inc.assign()[t]]);
                            partners.sort_unstable();
                            partners.dedup();
                        }
                        &partners
                    };
                    let mut best: Option<(usize, f64, usize)> = None;
                    for &u in scan {
                        if u == t {
                            continue;
                        }
                        let new_cost = inc.peek_swap(t, u);
                        evaluations += 1;
                        let after = usize::from(inc.assign()[u] != p[t])
                            + usize::from(inc.assign()[t] != p[u]);
                        let before = usize::from(moved[t]) + usize::from(moved[u]);
                        let new_moved = moved_count + after - before;
                        let new_total = new_cost + cfg.mu * new_moved as f64;
                        if new_total < best.map_or(cur_total, |(_, bt, _)| bt) {
                            best = Some((u, new_total, new_moved));
                        }
                    }
                    if let Some((u, _, new_moved)) = best {
                        inc.apply_swap(t, u);
                        let ends = [inc.assign()[t], inc.assign()[u]];
                        for_each_touched(inst, inc.assign(), &[t, u], ends, |s| dirty.push(s));
                        for w in [t, u] {
                            task_on[inc.assign()[w]] = w;
                            moved[w] = inc.assign()[w] != p[w];
                        }
                        moved_count = new_moved;
                        cur_total = inc.cost() + cfg.mu * moved_count as f64;
                        inc.max_touching_tasks(&mut touching);
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
            refine.finish(recorder);

            let assign = inc.assign().to_vec();
            // Fresh Eq. 2: the incremental loads drift by rounding, but
            // the reported cost must satisfy the independent-oracle check
            // bit for bit. A load no applied swap wrote still holds the
            // bits `IncrementalCost::new`'s fresh Eq. 1 gave it, and each
            // written one is recomputed the way Eq. 1 computes it.
            dirty.sort_unstable();
            dirty.dedup();
            let mut loads = inc.loads().to_vec();
            for &s in &dirty {
                loads[s] = 0.0 + task_load(inst, &assign, task_on[s]);
            }
            let cost = makespan(&loads);
            debug_assert_eq!(cost.to_bits(), exec_time(inst, &assign).to_bits());
            let migrated = (0..n).filter(|&t| assign[t] != p[t]).count();
            let migration_cost = cfg.mu * migrated as f64;
            RemapOutcome {
                mapping: Mapping::new(assign),
                cost,
                migrated,
                migration_cost,
                total: cost + migration_cost,
                warm,
                iterations,
                evaluations,
                elapsed: Duration::ZERO,
            }
        }
    };

    span.finish(recorder);
    RemapOutcome {
        elapsed: start.elapsed(),
        ..outcome
    }
}

/// [`remap_incremental`] without telemetry or cancellation.
pub fn remap(
    inst: &MappingInstance,
    prior: Option<&[usize]>,
    changed: &[usize],
    cfg: &RemapConfig,
    rng: &mut StdRng,
) -> RemapOutcome {
    remap_incremental(
        inst,
        prior,
        changed,
        cfg,
        rng,
        &mut NullRecorder,
        &StopToken::never(),
    )
}

/// A stochastic matrix concentrated on `prior`: row `t` puts all mass
/// on `prior[t]`. Blended toward uniform by `α` inside
/// [`Matcher::run_warm_controlled`], this is the "remember where every
/// task sat" warm seed.
fn delta_matrix(prior: &[usize], n: usize) -> StochasticMatrix {
    let mut data = vec![0.0f64; n * n];
    for (t, &s) in prior.iter().enumerate() {
        data[t * n + s] = 1.0;
    }
    StochasticMatrix::from_rows(n, n, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::StopFlag;
    use crate::cost::{apply_swap_delta, exec_per_resource};
    use crate::matcher::SamplerMode;
    use match_graph::gen::InstanceGenerator;
    use match_rngutil::perm::random_permutation;
    use match_telemetry::{Event, MemoryRecorder};
    use rand::{Rng, SeedableRng};

    fn instance(n: usize, seed: u64) -> MappingInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        MappingInstance::from_pair(&InstanceGenerator::paper_family(n).generate(&mut rng))
    }

    fn quick_config() -> RemapConfig {
        RemapConfig {
            match_config: MatchConfig {
                threads: 1,
                max_iters: 30,
                ..MatchConfig::default()
            },
            ..RemapConfig::default()
        }
    }

    #[test]
    fn no_prior_matches_cold_solve_exactly() {
        let inst = instance(8, 1);
        let cfg = quick_config();
        let cold = Matcher::new(cfg.match_config.clone()).run(&inst, &mut StdRng::seed_from_u64(2));
        let out = remap(&inst, None, &[], &cfg, &mut StdRng::seed_from_u64(2));
        assert_eq!(out.mapping, cold.mapping);
        assert_eq!(out.cost.to_bits(), cold.cost.to_bits());
        assert_eq!(out.iterations, cold.iterations);
        assert_eq!(out.evaluations, cold.evaluations);
        assert!(!out.warm);
        assert_eq!(out.migrated, 0);
        assert_eq!(out.total.to_bits(), out.cost.to_bits());
    }

    #[test]
    fn invalid_prior_takes_cold_path() {
        let inst = instance(8, 3);
        let cfg = quick_config();
        let bad = vec![0usize; 8]; // not a permutation
        let out = remap(
            &inst,
            Some(&bad),
            &[0, 1],
            &cfg,
            &mut StdRng::seed_from_u64(4),
        );
        assert!(!out.warm);
        assert!(out.mapping.is_permutation());
    }

    #[test]
    fn empty_changed_set_keeps_prior_bit_identical() {
        let inst = instance(9, 5);
        let cfg = RemapConfig {
            strategy: RemapStrategy::RefineOnly,
            ..quick_config()
        };
        let prior: Vec<usize> = (0..9).rev().collect();
        let out = remap(
            &inst,
            Some(&prior),
            &[],
            &cfg,
            &mut StdRng::seed_from_u64(6),
        );
        assert_eq!(out.mapping.as_slice(), &prior[..]);
        assert_eq!(out.cost.to_bits(), exec_time(&inst, &prior).to_bits());
        assert_eq!(out.migrated, 0);
        assert_eq!(out.evaluations, 0);
        assert!(out.warm);
    }

    #[test]
    fn refinement_never_worsens_the_total_objective() {
        let inst = instance(10, 7);
        for mu in [0.0, 10.0, 1000.0] {
            let cfg = RemapConfig {
                strategy: RemapStrategy::RefineOnly,
                mu,
                ..quick_config()
            };
            let prior: Vec<usize> = (0..10).collect();
            let changed: Vec<usize> = (0..10).collect();
            let out = remap(
                &inst,
                Some(&prior),
                &changed,
                &cfg,
                &mut StdRng::seed_from_u64(8),
            );
            let prior_total = exec_time(&inst, &prior);
            assert!(out.mapping.is_permutation());
            assert!(
                out.total <= prior_total,
                "mu={mu}: total {} worse than staying put {prior_total}",
                out.total
            );
            assert_eq!(
                out.total.to_bits(),
                (out.cost + out.migration_cost).to_bits()
            );
            assert_eq!(
                out.migration_cost.to_bits(),
                (mu * out.migrated as f64).to_bits()
            );
        }
    }

    #[test]
    fn huge_mu_pins_the_prior() {
        // With an enormous migration charge no swap can pay for itself.
        let inst = instance(10, 9);
        let cfg = RemapConfig {
            strategy: RemapStrategy::RefineOnly,
            mu: 1e12,
            ..quick_config()
        };
        let prior: Vec<usize> = (0..10).rev().collect();
        let changed: Vec<usize> = (0..10).collect();
        let out = remap(
            &inst,
            Some(&prior),
            &changed,
            &cfg,
            &mut StdRng::seed_from_u64(10),
        );
        assert_eq!(out.mapping.as_slice(), &prior[..]);
        assert_eq!(out.migrated, 0);
    }

    #[test]
    fn warm_ce_emits_remap_and_refine_spans() {
        let inst = instance(8, 11);
        let cfg = RemapConfig {
            strategy: RemapStrategy::WarmCe,
            match_config: MatchConfig {
                threads: 1,
                max_iters: 10,
                sampler: SamplerMode::Batched,
                ..MatchConfig::default()
            },
            ..RemapConfig::default()
        };
        let prior: Vec<usize> = (0..8).collect();
        let mut rec = MemoryRecorder::new();
        let out = remap_incremental(
            &inst,
            Some(&prior),
            &[0, 1, 2],
            &cfg,
            &mut StdRng::seed_from_u64(12),
            &mut rec,
            &StopToken::never(),
        );
        assert!(out.warm);
        assert!(out.iterations >= 1);
        let spans: Vec<String> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Span(s) => Some(s.name.to_string()),
                _ => None,
            })
            .collect();
        assert!(spans.iter().any(|s| s == "remap"), "spans: {spans:?}");
        assert!(
            spans.iter().any(|s| s == "refine-delta"),
            "spans: {spans:?}"
        );
    }

    #[test]
    fn changed_ids_out_of_range_are_ignored() {
        let inst = instance(6, 13);
        let cfg = RemapConfig {
            strategy: RemapStrategy::RefineOnly,
            ..quick_config()
        };
        let prior: Vec<usize> = (0..6).collect();
        let out = remap(
            &inst,
            Some(&prior),
            &[99, 5, 5, 0],
            &cfg,
            &mut StdRng::seed_from_u64(14),
        );
        assert!(out.mapping.is_permutation());
    }

    #[test]
    fn tripped_stop_returns_the_prior_unrefined() {
        let inst = instance(10, 15);
        let cfg = RemapConfig {
            strategy: RemapStrategy::RefineOnly,
            ..quick_config()
        };
        let prior: Vec<usize> = (0..10).rev().collect();
        let changed: Vec<usize> = (0..10).collect();
        let free = remap(
            &inst,
            Some(&prior),
            &changed,
            &cfg,
            &mut StdRng::seed_from_u64(16),
        );
        assert!(free.evaluations > 0);

        let flag = StopFlag::new();
        flag.trip();
        let out = remap_incremental(
            &inst,
            Some(&prior),
            &changed,
            &cfg,
            &mut StdRng::seed_from_u64(16),
            &mut NullRecorder,
            &StopToken::with_flag(flag),
        );
        assert_eq!(out.mapping.as_slice(), &prior[..]);
        assert_eq!(out.cost.to_bits(), exec_time(&inst, &prior).to_bits());
        assert_eq!(out.total.to_bits(), out.cost.to_bits());
        assert_eq!(out.migrated, 0);
        assert_eq!(out.evaluations, 0);
    }

    /// The closing Eq. 2 recomputes only the loads applied swaps wrote.
    /// On fractional weights the incremental loads drift by rounding, so
    /// a written load it failed to recompute shows in the cost's bits
    /// whenever it is the busiest.
    #[test]
    fn reported_cost_is_a_fresh_eq2_of_the_mapping() {
        let mut rng = StdRng::seed_from_u64(23);
        for n in [6, 10, 16, 24] {
            for _ in 0..8 {
                let inst = crate::cost::tests::uneven(n, n, &mut rng);
                let prior = random_permutation(n, &mut rng);
                let changed: Vec<usize> = (0..n).filter(|_| rng.random::<bool>()).collect();
                for mu in [0.0, 0.5] {
                    let cfg = RemapConfig {
                        strategy: RemapStrategy::RefineOnly,
                        mu,
                        ..quick_config()
                    };
                    let out = remap(&inst, Some(&prior), &changed, &cfg, &mut rng);
                    assert_eq!(
                        out.cost.to_bits(),
                        exec_time(&inst, out.mapping.as_slice()).to_bits(),
                        "n={n} mu={mu}"
                    );
                }
            }
        }
    }

    /// The refine loop as it was before [`IncrementalCost`] tracked the
    /// makespan: flat loads, each peek a swap applied and reverted with
    /// Eq. 2 read as a linear fold. Returns the mapping and its peeks.
    fn refine_by_fold(
        inst: &MappingInstance,
        prior: &[usize],
        changed: &[usize],
        cfg: &RemapConfig,
    ) -> (Vec<usize>, u64) {
        let fold = |loads: &[f64]| loads.iter().copied().fold(0.0, f64::max);
        let n = inst.n_tasks();
        let mut assign = prior.to_vec();
        let mut loads = exec_per_resource(inst, &assign);
        let mut moved = vec![false; n];
        let mut moved_count = 0usize;
        let mut cur_total = fold(&loads) + cfg.mu * moved_count as f64;
        let mut evaluations = 0u64;
        for _pass in 0..cfg.refine_passes {
            let mut improved = false;
            for &t in changed {
                let mut best: Option<(usize, f64, usize)> = None;
                for u in 0..n {
                    if u == t {
                        continue;
                    }
                    apply_swap_delta(inst, &mut assign, &mut loads, t, u);
                    let new_cost = fold(&loads);
                    apply_swap_delta(inst, &mut assign, &mut loads, t, u);
                    evaluations += 1;
                    let after =
                        usize::from(assign[u] != prior[t]) + usize::from(assign[t] != prior[u]);
                    let before = usize::from(moved[t]) + usize::from(moved[u]);
                    let new_moved = moved_count + after - before;
                    let new_total = new_cost + cfg.mu * new_moved as f64;
                    if new_total < best.map_or(cur_total, |(_, bt, _)| bt) {
                        best = Some((u, new_total, new_moved));
                    }
                }
                if let Some((u, new_total, new_moved)) = best {
                    apply_swap_delta(inst, &mut assign, &mut loads, t, u);
                    moved[t] = assign[t] != prior[t];
                    moved[u] = assign[u] != prior[u];
                    moved_count = new_moved;
                    cur_total = new_total;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        (assign, evaluations)
    }

    #[test]
    fn refinement_matches_the_linear_fold_loop_bit_for_bit() {
        let n = 320;
        let mut rng = StdRng::seed_from_u64(17);
        let inst =
            MappingInstance::from_pair(&InstanceGenerator::large_family(n).generate(&mut rng));
        let prior = random_permutation(n, &mut rng);
        // A few event sites and their TIG neighbours, as a workload
        // would report them.
        let mut changed = Vec::new();
        for _ in 0..6 {
            let t = rng.random_range(0..n);
            changed.push(t);
            changed.extend(inst.interactions(t).map(|(a, _)| a));
        }
        changed.sort_unstable();
        changed.dedup();
        for mu in [0.0, 0.5] {
            let cfg = RemapConfig {
                strategy: RemapStrategy::RefineOnly,
                mu,
                ..quick_config()
            };
            let (want, want_evals) = refine_by_fold(&inst, &prior, &changed, &cfg);
            let out = remap(
                &inst,
                Some(&prior),
                &changed,
                &cfg,
                &mut StdRng::seed_from_u64(18),
            );
            assert_eq!(out.mapping.as_slice(), &want[..], "mu={mu}");
            assert_eq!(
                out.cost.to_bits(),
                exec_time(&inst, &want).to_bits(),
                "mu={mu}"
            );
            // The fold loop peeks every partner; refinement skips the
            // ones that cannot win.
            assert!(out.evaluations <= want_evals, "mu={mu}");
            assert_ne!(want, prior, "mu={mu}: refinement should move tasks");
        }
    }
}
