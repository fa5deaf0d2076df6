//! Island-parallel MaTCH — the paper's future work, realised.
//!
//! The conclusion sketches "extending MaTCH into a fully distributed
//! implementation using agent based scheduling" to attack the CE
//! method's main weakness, its mapping time. This module implements the
//! shared-memory analogue: `k` *islands* each run an independent MaTCH
//! instance (own stochastic matrix, own RNG stream) on one thread;
//! every `migration_interval` iterations the islands exchange their
//! best mappings and inject the global incumbent into each island's
//! elite pool, coupling the searches the way migrating agents would.
//!
//! Each round runs the islands on scoped threads and joins them at a
//! barrier, where the coordinating thread migrates the incumbent;
//! determinism is preserved because migration happens at fixed
//! iteration boundaries, not wall-clock times.

use crate::cost::exec_time;
use crate::mapper::{record_run_end, record_run_start, Mapper, MapperOutcome};
use crate::mapping::Mapping;
use crate::matcher::MatchConfig;
use crate::problem::MappingInstance;
use match_ce::batch::{FlatBatch, FlatSampler};
use match_ce::driver::select_elites;
use match_ce::model::CeModel;
use match_ce::models::permutation::PermutationModel;
use match_rngutil::seed::derive_seed;
use match_telemetry::{Event, IterEvent, MemoryRecorder, NullRecorder, Recorder, Span, SpanEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the island solver.
#[derive(Debug, Clone, PartialEq)]
pub struct IslandConfig {
    /// Number of islands (each gets one thread).
    pub islands: usize,
    /// CE iterations between migrations (the barrier period).
    pub migration_interval: usize,
    /// Per-island MaTCH parameters. The per-island sample size defaults
    /// to `2|V|²/islands`, keeping the *total* per-iteration budget
    /// equal to sequential MaTCH's.
    pub base: MatchConfig,
}

impl Default for IslandConfig {
    fn default() -> Self {
        IslandConfig {
            islands: match_par::default_threads().clamp(2, 8),
            migration_interval: 5,
            base: MatchConfig {
                threads: 1, // islands are the parallelism
                ..MatchConfig::default()
            },
        }
    }
}

/// The island-parallel MaTCH solver.
#[derive(Debug, Clone, Default)]
pub struct IslandMatcher {
    config: IslandConfig,
}

/// One island's working state.
struct Island {
    model: PermutationModel,
    rng: StdRng,
    best: Option<(Vec<usize>, f64)>,
    stable: usize,
    prev_gamma: Option<f64>,
    done: bool,
    iterations: usize,
    evaluations: u64,
}

impl IslandMatcher {
    /// Build with a configuration.
    pub fn new(config: IslandConfig) -> Self {
        assert!(config.islands >= 1, "need at least one island");
        assert!(config.migration_interval >= 1, "migration interval >= 1");
        IslandMatcher { config }
    }

    /// The configuration.
    pub fn config(&self) -> &IslandConfig {
        &self.config
    }

    /// Run on a square instance. The caller's RNG seeds the island
    /// streams, so results are deterministic per seed (and per island
    /// count).
    pub fn run(&self, inst: &MappingInstance, rng: &mut StdRng) -> MapperOutcome {
        self.run_traced(inst, rng, &mut NullRecorder)
    }

    /// [`IslandMatcher::run`] with live telemetry. Islands advance in
    /// parallel, so events are recorded at the round barriers on the
    /// coordinating thread: one `round` span per parallel phase, one
    /// `migrate` span per migration, and one per-round `iter` event
    /// (`elite_size` reports the number of still-active islands).
    /// Each island additionally records into its own [`MemoryRecorder`]
    /// while its thread runs — an `island-<i>` span per round it
    /// advanced — and those buffers are drained into the caller's
    /// recorder at the migration barrier in island order, so the merged
    /// stream is deterministic and per-island load imbalance shows up
    /// in the report's phase breakdown.
    pub fn run_traced(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        recorder: &mut dyn Recorder,
    ) -> MapperOutcome {
        self.config.base.validate();
        assert!(self.config.islands >= 1, "need at least one island");
        assert!(
            self.config.migration_interval >= 1,
            "migration interval >= 1"
        );
        assert!(inst.is_square(), "island MaTCH needs |V_t| = |V_r|");
        record_run_start(recorder, "MaTCH-islands", inst);
        let start = std::time::Instant::now();
        let n = inst.n_tasks();
        let k = self.config.islands;
        let total_n = self.config.base.effective_sample_size(n);
        let per_island_n = (total_n / k).max(4);
        let rho = self.config.base.rho;
        let zeta = self.config.base.zeta;
        let elite_target = ((rho * per_island_n as f64).floor() as usize).max(1);
        let max_rounds = self
            .config
            .base
            .max_iters
            .div_ceil(self.config.migration_interval);
        let master: u64 = rng.random();

        let mut islands: Vec<Island> = (0..k)
            .map(|i| Island {
                model: PermutationModel::uniform(n),
                rng: StdRng::seed_from_u64(derive_seed(master, i as u64)),
                best: None,
                stable: 0,
                prev_gamma: None,
                done: false,
                iterations: 0,
                evaluations: 0,
            })
            .collect();

        let gamma_window = self.config.base.gamma_window.max(1);
        let gamma_tol = self.config.base.gamma_tol;
        let degeneracy_tol = self.config.base.degeneracy_tol;
        let interval = self.config.migration_interval;
        // One private recorder per island: threads record concurrently
        // without sharing the caller's sink, and the barrier merges the
        // buffers in island order so the trace stays deterministic.
        let mut island_recs: Vec<MemoryRecorder> = (0..k).map(|_| MemoryRecorder::new()).collect();

        for round in 0..max_rounds {
            let traced = recorder.enabled();
            let round_start = traced.then(std::time::Instant::now);
            let round_span = traced.then(|| Span::start("round", round as u64));
            // Parallel phase: each island advances `interval` iterations,
            // drawing its batch through the allocation-free flat pipeline
            // (alias tables rebuilt once per iteration, one reused
            // `per_island_n × n` buffer) and selecting elites in O(N).
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(k);
                for (i, (island, rec)) in islands.iter_mut().zip(island_recs.iter_mut()).enumerate()
                {
                    handles.push(scope.spawn(move || {
                        if island.done {
                            return;
                        }
                        let island_start = traced.then(std::time::Instant::now);
                        let mut tables = island.model.new_tables();
                        let mut scratch = island.model.new_scratch();
                        let mut data = vec![0usize; per_island_n * n];
                        let mut costs = vec![0.0f64; per_island_n];
                        let mut round_evals = 0u64;
                        for _ in 0..interval {
                            island.model.fill_tables(&mut tables);
                            for i in 0..per_island_n {
                                let row = &mut data[i * n..(i + 1) * n];
                                island.model.sample_flat(
                                    &tables,
                                    &mut scratch,
                                    &mut island.rng,
                                    row,
                                );
                                costs[i] = exec_time(inst, row);
                            }
                            island.evaluations += per_island_n as u64;
                            round_evals += per_island_n as u64;
                            island.iterations += 1;

                            let selection = select_elites(&costs, elite_target);
                            let gamma = selection.gamma;
                            let first = selection.best;
                            if island.best.as_ref().is_none_or(|&(_, c)| costs[first] < c) {
                                island.best =
                                    Some((data[first * n..(first + 1) * n].to_vec(), costs[first]));
                            }
                            island.model.update_from_flat(
                                &FlatBatch::new(n, &data),
                                &selection.elites,
                                zeta,
                            );

                            // Per-island γ-stability stopping.
                            if let Some(pg) = island.prev_gamma {
                                if (pg - gamma).abs() <= gamma_tol * (1.0 + pg.abs()) {
                                    island.stable += 1;
                                } else {
                                    island.stable = 0;
                                }
                            }
                            island.prev_gamma = Some(gamma);
                            if island.stable >= gamma_window
                                || island.model.is_degenerate(degeneracy_tol)
                            {
                                island.done = true;
                                break;
                            }
                        }
                        if let Some(t0) = island_start {
                            rec.record(Event::Span(SpanEvent {
                                name: format!("island-{i}").into(),
                                iter: round as u64,
                                wall_ns: t0.elapsed().as_nanos() as u64,
                            }));
                        }
                        if traced && round_evals > 0 {
                            // Merged at the barrier like the spans, so a
                            // live metrics bridge sees island evaluations
                            // as they complete each round.
                            rec.record(Event::Counter {
                                name: "island.evaluations".into(),
                                value: round_evals,
                            });
                        }
                    }));
                }
                for h in handles {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                }
            });
            if let Some(span) = round_span {
                span.finish(recorder);
            }
            // Merge the islands' private event buffers, in island order.
            if traced {
                for rec in island_recs.iter_mut() {
                    for event in std::mem::take(rec).into_events() {
                        recorder.record(event);
                    }
                }
            }

            // Migration barrier: broadcast the global incumbent into
            // every island's matrix (as a single-elite smoothed update —
            // the "migrant" reinforces its mapping's entries).
            let migrate_span = traced.then(|| Span::start("migrate", round as u64));
            let global_best = islands
                .iter()
                .filter_map(|i| i.best.clone())
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            if let Some((assign, _)) = &global_best {
                for island in islands.iter_mut() {
                    if !island.done {
                        island
                            .model
                            .update_from_elites(std::slice::from_ref(assign), zeta * 0.5);
                    }
                }
                if traced {
                    recorder.record(Event::Counter {
                        name: "migrations".into(),
                        value: 1,
                    });
                }
            }
            if let Some(span) = migrate_span {
                span.finish(recorder);
            }
            if traced {
                let bests: Vec<f64> = islands
                    .iter()
                    .filter_map(|i| i.best.as_ref().map(|b| b.1))
                    .collect();
                let best = global_best.as_ref().map(|b| b.1).unwrap_or(f64::INFINITY);
                let mean = if bests.is_empty() {
                    best
                } else {
                    bests.iter().sum::<f64>() / bests.len() as f64
                };
                let active = islands.iter().filter(|i| !i.done).count();
                recorder.record(Event::Iter(IterEvent {
                    iter: round as u64,
                    best,
                    mean,
                    gamma: None,
                    elite_size: active as u64,
                    wall_ns: round_start.map_or(0, |t| t.elapsed().as_nanos() as u64),
                }));
            }
            if islands.iter().all(|i| i.done) {
                break;
            }
        }

        let (assign, cost) = islands
            .iter()
            .filter_map(|i| i.best.clone())
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("at least one island produced a sample");
        let outcome = MapperOutcome {
            mapping: Mapping::new(assign),
            cost,
            evaluations: islands.iter().map(|i| i.evaluations).sum(),
            iterations: islands.iter().map(|i| i.iterations).max().unwrap_or(0),
            elapsed: start.elapsed(),
        };
        record_run_end(recorder, &outcome);
        outcome
    }
}

impl Mapper for IslandMatcher {
    fn name(&self) -> &str {
        "MaTCH-islands"
    }

    fn map(&self, inst: &MappingInstance, rng: &mut StdRng) -> MapperOutcome {
        self.run(inst, rng)
    }

    fn map_traced(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        recorder: &mut dyn Recorder,
    ) -> MapperOutcome {
        self.run_traced(inst, rng, recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_graph::gen::InstanceGenerator;

    fn instance(n: usize, seed: u64) -> MappingInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        MappingInstance::from_pair(&InstanceGenerator::paper_family(n).generate(&mut rng))
    }

    #[test]
    #[should_panic(expected = "need at least one island")]
    fn zero_islands_panics() {
        IslandMatcher::new(IslandConfig {
            islands: 0,
            ..IslandConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "rho must be in (0, 1]")]
    fn invalid_base_config_panics() {
        let inst = instance(6, 50);
        let mut cfg = IslandConfig::default();
        cfg.base.rho = 0.0;
        // Construction only checks island shape; the CE settings are
        // validated at the solve entry point.
        let m = IslandMatcher { config: cfg };
        m.run(&inst, &mut StdRng::seed_from_u64(51));
    }

    #[test]
    fn produces_valid_mapping() {
        let inst = instance(12, 1);
        let out = IslandMatcher::default().run(&inst, &mut StdRng::seed_from_u64(2));
        assert!(out.mapping.is_permutation());
        assert_eq!(out.cost, exec_time(&inst, out.mapping.as_slice()));
        assert!(out.evaluations > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = instance(10, 3);
        let m = IslandMatcher::new(IslandConfig {
            islands: 3,
            ..IslandConfig::default()
        });
        let a = m.run(&inst, &mut StdRng::seed_from_u64(4));
        let b = m.run(&inst, &mut StdRng::seed_from_u64(4));
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn quality_comparable_to_sequential_matcher() {
        let inst = instance(12, 5);
        let seq = crate::Matcher::default().run(&inst, &mut StdRng::seed_from_u64(6));
        let isl = IslandMatcher::default().run(&inst, &mut StdRng::seed_from_u64(6));
        // Islands split the same total budget; allow a modest gap either way.
        assert!(
            isl.cost <= 1.15 * seq.cost,
            "islands {} vs sequential {}",
            isl.cost,
            seq.cost
        );
    }

    #[test]
    fn single_island_reduces_to_plain_ce() {
        let inst = instance(8, 7);
        let m = IslandMatcher::new(IslandConfig {
            islands: 1,
            migration_interval: 3,
            ..IslandConfig::default()
        });
        let out = m.run(&inst, &mut StdRng::seed_from_u64(8));
        assert!(out.mapping.is_permutation());
        assert!(out.cost.is_finite());
    }

    #[test]
    fn respects_total_budget_split() {
        let inst = instance(10, 9);
        let cfg = IslandConfig {
            islands: 4,
            migration_interval: 2,
            base: MatchConfig {
                max_iters: 8,
                ..MatchConfig::default()
            },
        };
        let out = IslandMatcher::new(cfg).run(&inst, &mut StdRng::seed_from_u64(10));
        // 4 islands × ≤8 iterations × (200/4) samples = ≤1600 evals.
        assert!(out.evaluations <= 1600, "evals {}", out.evaluations);
        assert!(out.iterations <= 8);
    }

    #[test]
    fn loose_gamma_tol_stops_islands_sooner() {
        // `base.gamma_tol` is the islands' γ-stability tolerance: a loose
        // one counts nearby γ values as equal, so every island stops
        // after fewer evaluations than at the default.
        let inst = instance(10, 17);
        let run = |gamma_tol: f64| {
            let cfg = IslandConfig {
                islands: 2,
                base: MatchConfig {
                    gamma_tol,
                    threads: 1,
                    ..MatchConfig::default()
                },
                ..IslandConfig::default()
            };
            IslandMatcher::new(cfg).run(&inst, &mut StdRng::seed_from_u64(18))
        };
        let strict = run(MatchConfig::default().gamma_tol);
        let loose = run(1.0);
        assert!(
            loose.evaluations < strict.evaluations,
            "loose {} vs default {}",
            loose.evaluations,
            strict.evaluations
        );
    }

    #[test]
    fn trace_merges_per_island_spans() {
        let inst = instance(10, 13);
        let m = IslandMatcher::new(IslandConfig {
            islands: 2,
            ..IslandConfig::default()
        });
        let mut rec = MemoryRecorder::new();
        let out = m.run_traced(&inst, &mut StdRng::seed_from_u64(14), &mut rec);
        assert!(out.mapping.is_permutation());
        // Every island that advanced recorded one span per round into
        // its private buffer; the barrier merged them into ours.
        assert!(rec.span_total_ns("island-0") > 0);
        assert!(rec.span_total_ns("island-1") > 0);
    }

    #[test]
    fn tracing_does_not_perturb_search() {
        let inst = instance(10, 15);
        let m = IslandMatcher::new(IslandConfig {
            islands: 3,
            ..IslandConfig::default()
        });
        let plain = m.run(&inst, &mut StdRng::seed_from_u64(16));
        let mut rec = MemoryRecorder::new();
        let traced = m.run_traced(&inst, &mut StdRng::seed_from_u64(16), &mut rec);
        assert_eq!(plain.mapping, traced.mapping);
        assert_eq!(plain.cost, traced.cost);
    }

    #[test]
    fn mapper_trait() {
        let inst = instance(8, 11);
        let m = IslandMatcher::default();
        assert_eq!(m.name(), "MaTCH-islands");
        let out = m.map(&inst, &mut StdRng::seed_from_u64(12));
        assert!(out.mapping.is_permutation());
    }
}
