//! Hill climbing over the swap / move neighbourhood.
//!
//! Steepest-descent local search using the O(degree) incremental deltas
//! of [`match_core::IncrementalCost`]: on square instances the
//! neighbourhood is all task-pair swaps (preserving bijectivity); on
//! rectangular instances it is all single-task moves. Optional random
//! restarts escape local optima within an evaluation budget.

use match_core::{
    exec_time, record_run_end, record_run_start, IncrementalCost, Mapper, MapperOutcome, Mapping,
    MappingInstance, StopToken,
};
use match_rngutil::perm::random_permutation;
use match_telemetry::{Event, IterEvent, NullRecorder, Recorder};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Instant;

/// Steepest-descent hill climber with random restarts.
#[derive(Debug, Clone)]
pub struct HillClimber {
    /// Random restarts (1 = single descent).
    pub restarts: usize,
    /// Evaluation budget across all restarts; the climber stops mid-
    /// descent when exhausted.
    pub max_evaluations: u64,
}

impl Default for HillClimber {
    fn default() -> Self {
        HillClimber {
            restarts: 5,
            max_evaluations: 2_000_000,
        }
    }
}

impl HillClimber {
    /// A climber with the given restart count and evaluation budget.
    pub fn new(restarts: usize, max_evaluations: u64) -> Self {
        let climber = HillClimber {
            restarts,
            max_evaluations,
        };
        climber.validate();
        climber
    }

    /// Panic with a clear message on nonsensical settings. Called at the
    /// top of [`Mapper::map`].
    pub fn validate(&self) {
        assert!(self.restarts >= 1, "need at least one descent");
        assert!(
            self.max_evaluations >= 1,
            "need a positive evaluation budget"
        );
    }

    /// One full steepest descent from `start`, within `budget`
    /// evaluations. Returns the local optimum, its cost as the deltas
    /// carried it (what the search compares; it can differ from a fresh
    /// Eq. 2 by rounding) and the evaluations spent.
    ///
    /// Each scan peeks only the operations that can lower Eq. 2
    /// ([`IncrementalCost::touches_max`]): a swap needs one end that
    /// touches a busiest resource, a move a task that does. Every other
    /// peek would be at least the current cost, so the scan still picks
    /// the full neighbourhood's first strict minimum.
    pub(crate) fn descend(
        inst: &MappingInstance,
        start: Vec<usize>,
        budget: u64,
        stop: &StopToken,
    ) -> (Vec<usize>, f64, u64) {
        let n = inst.n_tasks();
        let r = inst.n_resources();
        let square = inst.is_square();
        let mut inc = IncrementalCost::new(inst, start);
        let mut evals: u64 = 1;
        let all_tasks: Vec<usize> = (0..n).collect();
        let mut touching = Vec::new();
        loop {
            // Polled once per neighbourhood scan, so cancellation lands
            // between scans with the state consistent.
            if stop.should_stop() {
                break;
            }
            let current = inc.cost();
            let mut best_delta_cost = current;
            let mut best_op: Option<(usize, usize)> = None;
            if square {
                inc.max_touching_tasks(&mut touching);
                'outer_swap: for a in 0..n {
                    let partners = if inc.touches_max(a) {
                        &all_tasks[a + 1..]
                    } else {
                        &touching[touching.partition_point(|&b| b <= a)..]
                    };
                    for &b in partners {
                        if evals >= budget {
                            break 'outer_swap;
                        }
                        evals += 1;
                        let c = inc.peek_swap(a, b);
                        if c < best_delta_cost {
                            best_delta_cost = c;
                            best_op = Some((a, b));
                        }
                    }
                }
            } else {
                'outer_move: for t in 0..n {
                    if !inc.touches_max(t) {
                        continue;
                    }
                    for s in 0..r {
                        if s == inc.assign()[t] {
                            continue;
                        }
                        if evals >= budget {
                            break 'outer_move;
                        }
                        evals += 1;
                        let c = inc.peek_move(t, s);
                        if c < best_delta_cost {
                            best_delta_cost = c;
                            best_op = Some((t, s));
                        }
                    }
                }
            }
            match best_op {
                Some((a, b)) if best_delta_cost < current => {
                    if square {
                        inc.apply_swap(a, b);
                    } else {
                        inc.apply_move(a, b);
                    }
                }
                _ => break, // local optimum or budget exhausted
            }
            if evals >= budget {
                break;
            }
        }
        let cost = inc.cost();
        (inc.assign().to_vec(), cost, evals)
    }
}

impl Mapper for HillClimber {
    fn name(&self) -> &str {
        "HillClimb"
    }

    fn map(&self, inst: &MappingInstance, rng: &mut StdRng) -> MapperOutcome {
        self.map_traced(inst, rng, &mut NullRecorder)
    }

    /// Telemetry override: one `iter` event per restart (running best,
    /// the restart's local-optimum cost as `mean`, wall time of the
    /// descent) plus an `evaluations` counter per descent.
    fn map_traced(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        recorder: &mut dyn Recorder,
    ) -> MapperOutcome {
        self.map_controlled(inst, rng, recorder, &StopToken::never())
    }

    /// Cancellation override: the stop token is polled between restarts
    /// and between neighbourhood scans inside a descent. The first
    /// descent always returns a valid assignment even when the token is
    /// already tripped at entry.
    fn map_controlled(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        recorder: &mut dyn Recorder,
        stop: &StopToken,
    ) -> MapperOutcome {
        self.validate();
        record_run_start(recorder, "HillClimb", inst);
        let traced = recorder.enabled();
        let start_t = Instant::now();
        let n = inst.n_tasks();
        let r = inst.n_resources();
        let mut best: Option<Vec<usize>> = None;
        let mut best_cost = f64::INFINITY;
        let mut total_evals: u64 = 0;
        let mut descents = 0usize;
        for restart in 0..self.restarts {
            if total_evals >= self.max_evaluations {
                break;
            }
            if descents > 0 && stop.should_stop() {
                break;
            }
            let descent_start = traced.then(Instant::now);
            let start: Vec<usize> = if inst.is_square() {
                random_permutation(n, rng)
            } else {
                (0..n).map(|_| rng.random_range(0..r)).collect()
            };
            let (assign, cost, evals) =
                HillClimber::descend(inst, start, self.max_evaluations - total_evals, stop);
            total_evals += evals;
            descents += 1;
            if cost < best_cost {
                best_cost = cost;
                best = Some(assign);
            }
            if let Some(descent_start) = descent_start {
                recorder.record(Event::Counter {
                    name: "evaluations".into(),
                    value: evals,
                });
                recorder.record(Event::Iter(IterEvent {
                    iter: restart as u64,
                    best: best_cost,
                    mean: cost,
                    gamma: None,
                    elite_size: 0,
                    wall_ns: descent_start.elapsed().as_nanos() as u64,
                }));
            }
        }
        let best = best.expect("at least one descent");
        let outcome = MapperOutcome {
            // The Eq. 2 of the mapping returned, not the carried value.
            cost: exec_time(inst, &best),
            mapping: Mapping::new(best),
            evaluations: total_evals,
            iterations: descents,
            elapsed: start_t.elapsed(),
        };
        record_run_end(recorder, &outcome);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_graph::gen::paper::PaperFamilyConfig;
    use match_graph::gen::InstanceGenerator;
    use match_graph::InstancePair;
    use rand::SeedableRng;

    fn instance(n: usize, seed: u64) -> MappingInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        MappingInstance::from_pair(&InstanceGenerator::paper_family(n).generate(&mut rng))
    }

    #[test]
    fn reaches_local_optimum() {
        let inst = instance(10, 1);
        let out = HillClimber::new(1, 1_000_000).map(&inst, &mut StdRng::seed_from_u64(2));
        assert!(out.mapping.is_permutation());
        // Verify local optimality: no single swap improves.
        let mut inc = IncrementalCost::new(&inst, out.mapping.as_slice().to_vec());
        let cost = inc.cost();
        for a in 0..10 {
            for b in (a + 1)..10 {
                assert!(
                    inc.peek_swap(a, b) >= cost - 1e-9,
                    "swap ({a},{b}) improves a 'local optimum'"
                );
            }
        }
    }

    #[test]
    fn cost_reported_matches_mapping() {
        let inst = instance(12, 3);
        let out = HillClimber::default().map(&inst, &mut StdRng::seed_from_u64(4));
        assert_eq!(
            out.cost.to_bits(),
            exec_time(&inst, out.mapping.as_slice()).to_bits()
        );
    }

    #[test]
    fn restarts_never_hurt() {
        let inst = instance(12, 5);
        let one = HillClimber::new(1, 10_000_000).map(&inst, &mut StdRng::seed_from_u64(6));
        let five = HillClimber::new(5, 10_000_000).map(&inst, &mut StdRng::seed_from_u64(6));
        assert!(five.cost <= one.cost);
    }

    #[test]
    fn budget_respected() {
        let inst = instance(15, 7);
        let out = HillClimber::new(10, 500).map(&inst, &mut StdRng::seed_from_u64(8));
        assert!(out.evaluations <= 505, "evaluations {}", out.evaluations);
        assert!(out.mapping.is_permutation());
    }

    #[test]
    #[should_panic(expected = "need at least one descent")]
    fn zero_restarts_panics() {
        HillClimber::new(0, 1000);
    }

    #[test]
    #[should_panic(expected = "need a positive evaluation budget")]
    fn zero_budget_panics() {
        let inst = instance(4, 70);
        let climber = HillClimber {
            restarts: 1,
            max_evaluations: 0,
        };
        climber.map(&inst, &mut StdRng::seed_from_u64(71));
    }

    #[test]
    fn tripped_stop_token_stops_after_first_descent_scan() {
        use match_core::StopFlag;
        let inst = instance(10, 1);
        let flag = StopFlag::new();
        flag.trip();
        let out = HillClimber::default().map_controlled(
            &inst,
            &mut StdRng::seed_from_u64(2),
            &mut NullRecorder,
            &StopToken::with_flag(flag),
        );
        assert_eq!(out.iterations, 1, "only the first restart runs");
        assert!(out.mapping.is_permutation());
        assert_eq!(
            out.cost.to_bits(),
            exec_time(&inst, out.mapping.as_slice()).to_bits()
        );
    }

    #[test]
    fn never_token_matches_plain_run() {
        let inst = instance(10, 1);
        let plain = HillClimber::default().map(&inst, &mut StdRng::seed_from_u64(2));
        let controlled = HillClimber::default().map_controlled(
            &inst,
            &mut StdRng::seed_from_u64(2),
            &mut NullRecorder,
            &StopToken::never(),
        );
        assert_eq!(plain.mapping, controlled.mapping);
        assert_eq!(plain.cost, controlled.cost);
        assert_eq!(plain.evaluations, controlled.evaluations);
    }

    #[test]
    fn rectangular_move_neighbourhood() {
        let mut rng = StdRng::seed_from_u64(9);
        let tig = PaperFamilyConfig::new(8).generate_tig(&mut rng);
        let resources = PaperFamilyConfig::new(3).generate_platform(&mut rng);
        let inst = MappingInstance::from_pair(&InstancePair { tig, resources });
        let out = HillClimber::new(2, 100_000).map(&inst, &mut rng);
        assert!(out.mapping.validate(&inst).is_ok());
        assert!(out.mapping.as_slice().iter().all(|&s| s < 3));
    }
}
