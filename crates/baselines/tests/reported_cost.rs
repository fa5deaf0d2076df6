//! Local search reports the Eq. 2 of the mapping it returns, bit for bit.
//!
//! Hill climbing and simulated annealing search on costs carried through
//! thousands of O(degree) deltas. On fractional weights those drift from
//! a fresh Eq. 2 by rounding, so the reported cost must be recomputed
//! from the returned mapping, never read off the carried state.

use match_baselines::{HillClimber, PolishedMatcher, SimulatedAnnealing};
use match_core::{exec_time, Mapper, MappingInstance, MatchConfig, Matcher};
use match_graph::graph::Graph;
use match_graph::{ResourceGraph, TaskGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random TIG on a complete platform, every weight fractional, so
/// deltas round.
fn fractional(n: usize, seed: u64) -> MappingInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tg = Graph::new();
    for _ in 0..n {
        tg.add_node(rng.random_range(0.1..10.0)).unwrap();
    }
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random::<f64>() < 0.3 {
                tg.add_edge(u, v, rng.random_range(0.1..8.0)).unwrap();
            }
        }
    }
    let mut rg = Graph::new();
    for _ in 0..n {
        rg.add_node(rng.random_range(0.5..4.0)).unwrap();
    }
    for s in 0..n {
        for b in (s + 1)..n {
            rg.add_edge(s, b, rng.random_range(0.2..3.0)).unwrap();
        }
    }
    MappingInstance::new(
        &TaskGraph::new(tg).unwrap(),
        &ResourceGraph::new(rg).unwrap(),
    )
}

fn assert_reports_fresh_eq2(mapper: &dyn Mapper) {
    for n in [16, 32] {
        for seed in 1..=5 {
            let inst = fractional(n, seed);
            let out = mapper.map(&inst, &mut StdRng::seed_from_u64(100 + seed));
            assert_eq!(
                out.cost.to_bits(),
                exec_time(&inst, out.mapping.as_slice()).to_bits(),
                "{}: n={n} seed={seed}",
                mapper.name()
            );
        }
    }
}

#[test]
fn hill_climbing_reports_the_eq2_of_its_mapping() {
    assert_reports_fresh_eq2(&HillClimber::new(2, 200_000));
}

#[test]
fn annealing_reports_the_eq2_of_its_mapping() {
    assert_reports_fresh_eq2(&SimulatedAnnealing::new(20_000, 0.9995));
}

#[test]
fn polish_reports_the_eq2_of_its_mapping() {
    let matcher = Matcher::new(MatchConfig {
        threads: 1,
        max_iters: 10,
        ..MatchConfig::default()
    });
    assert_reports_fresh_eq2(&PolishedMatcher::new(matcher, 1));
}
