//! Simulated annealing over the swap / move neighbourhood.
//!
//! Metropolis acceptance with geometric cooling. The initial temperature
//! is calibrated from the instance itself (mean absolute delta of random
//! moves) so one configuration works across the paper's size sweep.

use match_core::{
    exec_time, record_run_end, record_run_start, IncrementalCost, Mapper, MapperOutcome, Mapping,
    MappingInstance, StopToken,
};
use match_rngutil::perm::random_permutation;
use match_telemetry::{Event, IterEvent, Recorder};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Instant;

/// Simulated-annealing mapper.
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    /// Total proposed moves.
    pub iterations: u64,
    /// Geometric cooling factor per step (e.g. `0.9995`).
    pub cooling: f64,
    /// Initial acceptance probability target for an average uphill move
    /// (calibrates the starting temperature).
    pub initial_acceptance: f64,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            iterations: 200_000,
            cooling: 0.99995,
            initial_acceptance: 0.8,
        }
    }
}

impl SimulatedAnnealing {
    /// An annealer with the given move budget and cooling factor.
    pub fn new(iterations: u64, cooling: f64) -> Self {
        assert!(iterations >= 1, "need at least one move");
        assert!(
            (0.0..1.0).contains(&cooling) || cooling == 1.0,
            "cooling in (0,1]"
        );
        SimulatedAnnealing {
            iterations,
            cooling,
            ..SimulatedAnnealing::default()
        }
    }

    /// Panic with a clear message on nonsensical settings. Called at the
    /// top of [`Mapper::map`].
    pub fn validate(&self) {
        assert!(self.iterations >= 1, "need at least one move");
        assert!(
            self.cooling > 0.0 && self.cooling <= 1.0,
            "cooling in (0,1]"
        );
        assert!(
            self.initial_acceptance > 0.0 && self.initial_acceptance <= 1.0,
            "initial acceptance in (0,1]"
        );
    }

    /// Calibrate T₀ so an average uphill move is accepted with
    /// probability `initial_acceptance`.
    fn initial_temperature(
        &self,
        inc: &mut IncrementalCost<'_>,
        square: bool,
        n: usize,
        r: usize,
        rng: &mut StdRng,
    ) -> f64 {
        let mut sum = 0.0;
        let mut count = 0u32;
        let current = inc.cost();
        for _ in 0..64.min(n * n) {
            let c = if square && n >= 2 {
                let a = rng.random_range(0..n);
                let mut b = rng.random_range(0..n);
                while b == a {
                    b = rng.random_range(0..n);
                }
                inc.peek_swap(a, b)
            } else if n >= 1 && r >= 2 {
                let t = rng.random_range(0..n);
                let s = rng.random_range(0..r);
                inc.peek_move(t, s)
            } else {
                current
            };
            let delta = c - current;
            if delta > 0.0 {
                sum += delta;
                count += 1;
            }
        }
        if count == 0 {
            return 1.0;
        }
        let mean_uphill = sum / count as f64;
        // exp(-Δ/T₀) = p  ⇒  T₀ = Δ / ln(1/p)
        mean_uphill / (1.0 / self.initial_acceptance).ln().max(1e-9)
    }
}

impl Mapper for SimulatedAnnealing {
    fn name(&self) -> &str {
        "SimAnneal"
    }

    fn map(&self, inst: &MappingInstance, rng: &mut StdRng) -> MapperOutcome {
        self.map_traced(inst, rng, &mut match_telemetry::NullRecorder)
    }

    /// Telemetry override: one `iter` event per temperature epoch (a
    /// fixed fraction of the move budget), with `gamma` carrying the
    /// current temperature and `elite_size` the moves accepted in the
    /// epoch.
    fn map_traced(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        recorder: &mut dyn Recorder,
    ) -> MapperOutcome {
        self.map_controlled(inst, rng, recorder, &StopToken::never())
    }

    /// Cancellation override: the stop token is polled every 1024 moves
    /// (an `Instant::now()` per move would dominate the move itself), so
    /// a fired deadline returns the best-so-far permutation within a
    /// thousand moves. `iterations` reports the moves actually proposed.
    fn map_controlled(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        recorder: &mut dyn Recorder,
        stop: &StopToken,
    ) -> MapperOutcome {
        self.validate();
        record_run_start(recorder, "SimAnneal", inst);
        let traced = recorder.enabled();
        let start_t = Instant::now();
        let n = inst.n_tasks();
        let r = inst.n_resources();
        let square = inst.is_square();
        let start: Vec<usize> = if square {
            random_permutation(n, rng)
        } else {
            (0..n).map(|_| rng.random_range(0..r)).collect()
        };
        let mut inc = IncrementalCost::new(inst, start.clone());
        let mut best = start;
        let mut best_cost = inc.cost();
        let mut evals: u64 = 1;

        if n < 2 || (!square && r < 2) {
            let outcome = MapperOutcome {
                mapping: Mapping::new(best),
                cost: best_cost,
                evaluations: evals,
                iterations: 0,
                elapsed: start_t.elapsed(),
            };
            record_run_end(recorder, &outcome);
            return outcome;
        }

        let mut temp = self.initial_temperature(&mut inc, square, n, r, rng);
        evals += 64.min((n * n) as u64);

        // A temperature epoch: enough moves that per-epoch events stay
        // cheap even for multi-million-move budgets, capped at 256
        // epochs per run.
        let epoch_len = (self.iterations / 256).max(1);
        let mut epoch: u64 = 0;
        let mut epoch_accepted: u64 = 0;
        let mut epoch_start = traced.then(Instant::now);

        let mut steps_run: u64 = 0;
        for step in 0..self.iterations {
            let current = inc.cost();
            let candidate_cost;
            let op: (usize, usize);
            if square {
                let a = rng.random_range(0..n);
                let mut b = rng.random_range(0..n);
                while b == a {
                    b = rng.random_range(0..n);
                }
                candidate_cost = inc.peek_swap(a, b);
                op = (a, b);
            } else {
                let t = rng.random_range(0..n);
                let s = rng.random_range(0..r);
                candidate_cost = inc.peek_move(t, s);
                op = (t, s);
            }
            evals += 1;
            let delta = candidate_cost - current;
            let accept =
                delta <= 0.0 || (temp > 0.0 && rng.random::<f64>() < (-delta / temp).exp());
            if accept {
                if square {
                    inc.apply_swap(op.0, op.1);
                } else {
                    inc.apply_move(op.0, op.1);
                }
                if candidate_cost < best_cost {
                    best_cost = candidate_cost;
                    best = inc.assign().to_vec();
                }
                epoch_accepted += 1;
            }
            temp *= self.cooling;

            if traced && (step + 1) % epoch_len == 0 {
                recorder.record(Event::Counter {
                    name: "accepted_moves".into(),
                    value: epoch_accepted,
                });
                recorder.record(Event::Iter(IterEvent {
                    iter: epoch,
                    best: best_cost,
                    mean: inc.cost(),
                    gamma: Some(temp),
                    elite_size: epoch_accepted,
                    wall_ns: epoch_start.map_or(0, |t| t.elapsed().as_nanos() as u64),
                }));
                epoch += 1;
                epoch_accepted = 0;
                epoch_start = Some(Instant::now());
            }
            steps_run = step + 1;
            if steps_run.is_multiple_of(1024) && stop.should_stop() {
                break;
            }
        }

        let outcome = MapperOutcome {
            // The Eq. 2 of the mapping returned: `best_cost` is a peek,
            // carried through every delta since the start.
            cost: exec_time(inst, &best),
            mapping: Mapping::new(best),
            evaluations: evals,
            iterations: steps_run as usize,
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
    fn produces_valid_permutation() {
        let inst = instance(10, 1);
        let sa = SimulatedAnnealing::new(20_000, 0.9995);
        let out = sa.map(&inst, &mut StdRng::seed_from_u64(2));
        assert!(out.mapping.is_permutation());
        assert_eq!(
            out.cost.to_bits(),
            exec_time(&inst, out.mapping.as_slice()).to_bits()
        );
    }

    #[test]
    fn improves_over_initial_state() {
        let inst = instance(12, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let initial = exec_time(&inst, &random_permutation(12, &mut rng));
        let sa = SimulatedAnnealing::new(50_000, 0.9998);
        let out = sa.map(&inst, &mut StdRng::seed_from_u64(4));
        assert!(out.cost <= initial, "SA {} vs initial {initial}", out.cost);
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = instance(8, 5);
        let sa = SimulatedAnnealing::new(10_000, 0.999);
        let a = sa.map(&inst, &mut StdRng::seed_from_u64(6));
        let b = sa.map(&inst, &mut StdRng::seed_from_u64(6));
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn rectangular_instances_supported() {
        let mut rng = StdRng::seed_from_u64(7);
        let tig = PaperFamilyConfig::new(9).generate_tig(&mut rng);
        let resources = PaperFamilyConfig::new(3).generate_platform(&mut rng);
        let inst = MappingInstance::from_pair(&InstancePair { tig, resources });
        let sa = SimulatedAnnealing::new(20_000, 0.9995);
        let out = sa.map(&inst, &mut rng);
        assert!(out.mapping.validate(&inst).is_ok());
    }

    #[test]
    #[should_panic(expected = "need at least one move")]
    fn zero_iterations_panics() {
        SimulatedAnnealing::new(0, 0.999);
    }

    #[test]
    #[should_panic(expected = "cooling in (0,1]")]
    fn invalid_cooling_panics() {
        let inst = instance(4, 60);
        let sa = SimulatedAnnealing {
            cooling: 0.0,
            ..SimulatedAnnealing::default()
        };
        sa.map(&inst, &mut StdRng::seed_from_u64(61));
    }

    #[test]
    #[should_panic(expected = "initial acceptance in (0,1]")]
    fn invalid_acceptance_panics() {
        let inst = instance(4, 60);
        let sa = SimulatedAnnealing {
            initial_acceptance: 2.0,
            ..SimulatedAnnealing::default()
        };
        sa.map(&inst, &mut StdRng::seed_from_u64(61));
    }

    #[test]
    fn tripped_stop_token_truncates_the_move_budget() {
        use match_core::StopFlag;
        use match_telemetry::NullRecorder;
        let inst = instance(10, 1);
        let sa = SimulatedAnnealing::new(100_000, 0.9995);
        let flag = StopFlag::new();
        flag.trip();
        let out = sa.map_controlled(
            &inst,
            &mut StdRng::seed_from_u64(2),
            &mut NullRecorder,
            &StopToken::with_flag(flag),
        );
        assert_eq!(out.iterations, 1024, "stops at the first poll point");
        assert!(out.mapping.is_permutation());
        assert_eq!(
            out.cost.to_bits(),
            exec_time(&inst, out.mapping.as_slice()).to_bits()
        );
    }

    #[test]
    fn never_token_matches_plain_run() {
        use match_telemetry::NullRecorder;
        let inst = instance(8, 5);
        let sa = SimulatedAnnealing::new(10_000, 0.999);
        let plain = sa.map(&inst, &mut StdRng::seed_from_u64(6));
        let controlled = sa.map_controlled(
            &inst,
            &mut StdRng::seed_from_u64(6),
            &mut NullRecorder,
            &StopToken::never(),
        );
        assert_eq!(plain.mapping, controlled.mapping);
        assert_eq!(plain.cost, controlled.cost);
        assert_eq!(plain.iterations, controlled.iterations);
    }

    #[test]
    fn single_task_instance_survives() {
        let inst = instance(1, 8);
        let out = SimulatedAnnealing::default().map(&inst, &mut StdRng::seed_from_u64(9));
        assert_eq!(out.mapping.as_slice(), &[0]);
    }
}
