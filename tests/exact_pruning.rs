//! Exact bottleneck pruning: Eq. 2 is a max, so re-mapping and hill
//! climbing peek only the operations that can lower it. Each test runs
//! the solver beside a test-local scan over *every* operation, through
//! the same `IncrementalCost` peeks, and requires the same choices.

use matchkit::baselines::HillClimber;
use matchkit::core::{
    exec_time, remap, IncrementalCost, Mapper, MappingInstance, MultilevelConfig, RemapConfig,
    RemapStrategy,
};
use matchkit::graph::gen::{InstanceGenerator, OversetConfig, PaperFamilyConfig};
use matchkit::graph::{Graph, InstancePair, ResourceGraph, TaskGraph};
use matchkit::multilevel::MultilevelMapper;
use matchkit::rngutil::perm::random_permutation;
use matchkit::sim::DynamicWorkload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Re-map refinement peeking every partner of every changed task.
/// Returns the mapping, its migrated count and the peeks taken.
fn remap_full_scan(
    inst: &MappingInstance,
    prior: &[usize],
    changed: &[usize],
    mu: f64,
    passes: usize,
) -> (Vec<usize>, usize, u64) {
    let n = inst.n_tasks();
    let mut changed: Vec<usize> = changed.iter().copied().filter(|&t| t < n).collect();
    changed.sort_unstable();
    changed.dedup();
    let mut inc = IncrementalCost::new(inst, prior.to_vec());
    let mut moved = vec![false; n];
    let mut moved_count = 0usize;
    let mut evaluations = 0u64;
    for _ in 0..passes {
        let mut improved = false;
        for &t in &changed {
            let cur_total = inc.cost() + mu * moved_count as f64;
            let mut best: Option<(usize, f64, usize)> = None;
            for u in 0..n {
                if u == t {
                    continue;
                }
                let new_cost = inc.peek_swap(t, u);
                evaluations += 1;
                let after = usize::from(inc.assign()[u] != prior[t])
                    + usize::from(inc.assign()[t] != prior[u]);
                let before = usize::from(moved[t]) + usize::from(moved[u]);
                let new_moved = moved_count + after - before;
                let new_total = new_cost + mu * new_moved as f64;
                if new_total < best.map_or(cur_total, |(_, bt, _)| bt) {
                    best = Some((u, new_total, new_moved));
                }
            }
            if let Some((u, _, new_moved)) = best {
                inc.apply_swap(t, u);
                moved[t] = inc.assign()[t] != prior[t];
                moved[u] = inc.assign()[u] != prior[u];
                moved_count = new_moved;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    (inc.assign().to_vec(), moved_count, evaluations)
}

/// Run the pruned RefineOnly re-map and the full scan from `prior`,
/// require the same mapping, cost bits and migrations with no more
/// peeks, and return the mapping.
fn assert_remap_matches_full_scan(
    inst: &MappingInstance,
    prior: &[usize],
    changed: &[usize],
    mu: f64,
    passes: usize,
    label: &str,
) -> Vec<usize> {
    let cfg = RemapConfig {
        strategy: RemapStrategy::RefineOnly,
        mu,
        refine_passes: passes,
        ..RemapConfig::default()
    };
    let out = remap(
        inst,
        Some(prior),
        changed,
        &cfg,
        &mut StdRng::seed_from_u64(0),
    );
    let (want, migrated, evaluations) = remap_full_scan(inst, prior, changed, mu, passes);
    assert_eq!(out.mapping.as_slice(), &want[..], "{label}: mapping");
    assert_eq!(
        out.cost.to_bits(),
        exec_time(inst, &want).to_bits(),
        "{label}: cost"
    );
    assert_eq!(out.migrated, migrated, "{label}: migrated");
    assert!(
        out.evaluations <= evaluations,
        "{label}: {} peeks against the full scan's {evaluations}",
        out.evaluations
    );
    want
}

/// The dynamic bench's n = 256 chain: its instance, prior, event stream
/// and μ = 0.5 mapping carried from epoch to epoch.
#[test]
fn remap_matches_the_full_scan_on_the_dynamic_bench_epochs() {
    let n = 256;
    let base = MappingInstance::from_pair(
        &InstanceGenerator::large_family(n).generate(&mut StdRng::seed_from_u64(40)),
    );
    let ml = MultilevelMapper::new(MultilevelConfig::default());
    let mut prior = ml
        .map(&base, &mut StdRng::seed_from_u64(71))
        .mapping
        .as_slice()
        .to_vec();
    let mut workload = DynamicWorkload::new(&base);
    let mut event_rng = StdRng::seed_from_u64(50 + n as u64);
    for epoch in 1..=5 {
        let events = workload.generate_events(8, &mut event_rng);
        let changed = workload.apply(&events);
        let inst = workload.instance();
        assert_remap_matches_full_scan(&inst, &prior, &changed, 0.0, 2, &format!("epoch {epoch}"));
        prior = assert_remap_matches_full_scan(
            &inst,
            &prior,
            &changed,
            0.5,
            2,
            &format!("epoch {epoch}"),
        );
    }
}

/// Overset CFD instances carry fractional weights, so loads round.
#[test]
fn remap_matches_the_full_scan_on_overset_instances() {
    for (i, n) in [8, 12, 24, 48].into_iter().cycle().take(40).enumerate() {
        let mut rng = StdRng::seed_from_u64(900 + i as u64);
        let inst =
            MappingInstance::from_pair(&InstanceGenerator::overset_cfd(n).generate(&mut rng));
        let prior = random_permutation(n, &mut rng);
        let changed: Vec<usize> = (0..n).filter(|_| rng.random::<f64>() < 0.5).collect();
        for mu in [0.0, 0.3, 0.5, 7.0] {
            assert_remap_matches_full_scan(
                &inst,
                &prior,
                &changed,
                mu,
                3,
                &format!("instance {i} (n = {n}), mu = {mu}"),
            );
        }
    }
}

/// A platform whose last resource has no links: every pair through it
/// costs `+∞`, and loads on it go infinite (and NaN once a delta takes
/// an infinite term back out).
#[test]
fn remap_matches_the_full_scan_with_an_unreachable_resource() {
    let n = 12;
    let mut rng = StdRng::seed_from_u64(5);
    let mut tig = Graph::new();
    for _ in 0..n {
        tig.add_node(rng.random_range(1.0..5.0)).unwrap();
    }
    // Task 0 interacts with no one, so it can sit on the isolated
    // resource at a finite cost.
    for u in 1..n {
        for v in (u + 1)..n {
            if rng.random::<f64>() < 0.3 {
                tig.add_edge(u, v, rng.random_range(0.5..4.0)).unwrap();
            }
        }
    }
    let mut plat = Graph::new();
    for _ in 0..n {
        plat.add_node(rng.random_range(0.5..2.0)).unwrap();
    }
    for s in 0..n - 1 {
        for b in (s + 1)..n - 1 {
            plat.add_edge(s, b, rng.random_range(0.5..3.0)).unwrap();
        }
    }
    let resources = ResourceGraph::new(plat).unwrap();
    assert!(!resources.is_fully_connected());
    let inst = MappingInstance::new(&TaskGraph::new(tig).unwrap(), &resources);
    let all: Vec<usize> = (0..n).collect();
    let mut moved_any = false;
    for seed in 0..6 {
        let mut prior = random_permutation(n, &mut StdRng::seed_from_u64(seed));
        if seed % 2 == 0 {
            // Start finite: the lone task on the isolated resource.
            let on_isolated = prior.iter().position(|&s| s == n - 1).unwrap();
            prior.swap(0, on_isolated);
        }
        for mu in [0.0, 0.5] {
            let got = assert_remap_matches_full_scan(
                &inst,
                &prior,
                &all,
                mu,
                3,
                &format!("seed {seed}, mu = {mu}"),
            );
            moved_any |= got != prior;
        }
    }
    assert!(moved_any, "no re-map moved a task");
}

/// Steepest descent over every swap (square) or every move
/// (rectangular) within `budget` evaluations: the climber's scan before
/// pruning.
fn descend_full_scan(
    inst: &MappingInstance,
    start: Vec<usize>,
    budget: u64,
) -> (Vec<usize>, f64, u64) {
    let (n, r) = (inst.n_tasks(), inst.n_resources());
    let mut inc = IncrementalCost::new(inst, start);
    let mut evals = 1u64;
    loop {
        let current = inc.cost();
        let mut best = current;
        let mut best_op = None;
        'scan: for a in 0..n {
            let ops: Vec<usize> = if inst.is_square() {
                ((a + 1)..n).collect()
            } else {
                (0..r).filter(|&s| s != inc.assign()[a]).collect()
            };
            for b in ops {
                if evals >= budget {
                    break 'scan;
                }
                evals += 1;
                let c = if inst.is_square() {
                    inc.peek_swap(a, b)
                } else {
                    inc.peek_move(a, b)
                };
                if c < best {
                    best = c;
                    best_op = Some((a, b));
                }
            }
        }
        match best_op {
            Some((a, b)) if inst.is_square() => inc.apply_swap(a, b),
            Some((a, b)) => inc.apply_move(a, b),
            None => break,
        }
        if evals >= budget {
            break;
        }
    }
    let cost = inc.cost();
    (inc.assign().to_vec(), cost, evals)
}

/// [`HillClimber`]'s restart loop over [`descend_full_scan`]: the same
/// start draws, budget split and strict-`<` choice of the best descent.
/// Returns the mapping, its cost and the evaluations spent.
fn climb_full_scan(
    inst: &MappingInstance,
    restarts: usize,
    budget: u64,
    rng: &mut StdRng,
) -> (Vec<usize>, f64, u64) {
    let (n, r) = (inst.n_tasks(), inst.n_resources());
    let mut best = (Vec::new(), f64::INFINITY);
    let mut total = 0u64;
    for _ in 0..restarts {
        if total >= budget {
            break;
        }
        let start = if inst.is_square() {
            random_permutation(n, rng)
        } else {
            (0..n).map(|_| rng.random_range(0..r)).collect()
        };
        let (assign, cost, evals) = descend_full_scan(inst, start, budget - total);
        total += evals;
        if cost < best.1 {
            best = (assign, cost);
        }
    }
    (best.0, best.1, total)
}

/// Square and rectangular, paper and overset: where the budget never
/// binds the full scan, the climber lands on the same mapping and cost
/// bits; where it binds, the climber's cost is no higher.
#[test]
fn hill_climbing_matches_the_full_scan() {
    let rect = |tig: TaskGraph, m: usize, rng: &mut StdRng| {
        let resources = PaperFamilyConfig::new(m).generate_platform(rng);
        MappingInstance::from_pair(&InstancePair { tig, resources })
    };
    let mut cases: Vec<(String, MappingInstance)> = Vec::new();
    for (seed, n) in [(1, 10), (2, 20), (3, 40)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let pair = InstanceGenerator::paper_family(n).generate(&mut rng);
        cases.push((format!("paper n = {n}"), MappingInstance::from_pair(&pair)));
    }
    for (seed, n) in [(4, 12), (5, 24)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let pair = InstanceGenerator::overset_cfd(n).generate(&mut rng);
        cases.push((
            format!("overset n = {n}"),
            MappingInstance::from_pair(&pair),
        ));
    }
    let mut rng = StdRng::seed_from_u64(6);
    let tig = PaperFamilyConfig::new(24).generate_tig(&mut rng);
    cases.push(("paper 24 x 6".into(), rect(tig, 6, &mut rng)));
    let tig = OversetConfig::new(24).generate_domain(&mut rng).tig;
    cases.push(("overset 24 x 6".into(), rect(tig, 6, &mut rng)));

    let (mut free, mut bound) = (0, 0);
    for (label, inst) in &cases {
        for (restarts, budget) in [(3, 10_000_000), (3, 2_000), (1, 300)] {
            let seed = 70 + restarts as u64;
            let (want, want_cost, spent) =
                climb_full_scan(inst, restarts, budget, &mut StdRng::seed_from_u64(seed));
            let got =
                HillClimber::new(restarts, budget).map(inst, &mut StdRng::seed_from_u64(seed));
            let label = format!("{label}, budget {budget}");
            if spent < budget {
                free += 1;
                assert_eq!(got.mapping.as_slice(), &want[..], "{label}: mapping");
                assert_eq!(got.cost.to_bits(), want_cost.to_bits(), "{label}: cost");
                assert!(got.evaluations <= spent, "{label}: evaluations");
            } else {
                bound += 1;
                assert!(got.cost <= want_cost, "{label}: {} > {want_cost}", got.cost);
            }
        }
    }
    assert!(free > 0 && bound > 0, "{free} free and {bound} bound runs");
}
