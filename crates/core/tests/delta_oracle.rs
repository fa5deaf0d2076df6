//! Property tests pinning the incremental delta-cost path to the fresh
//! Eq. 1 oracle.
//!
//! The batched GA, hill climber, and simulated annealer all maintain
//! per-resource `loads` through [`apply_move_delta`] / [`apply_swap_delta`]
//! instead of re-evaluating `exec_per_resource` from scratch. These tests
//! drive long random move/swap sequences over random *heterogeneous*
//! instances — uneven processing costs, vanishingly small interaction
//! weights (the zero-weight limit), and neighbours co-located on one
//! resource — and check the drifted loads against a fresh evaluation
//! after every step.
//!
//! [`IncrementalCost`] reads Eq. 2 from a max tree instead of folding the
//! loads. The last tests pin every cost it returns, bit for bit, to the
//! fold over a plain `loads` vector driven through the same sequence.

use match_core::{
    apply_move_delta, apply_swap_delta, exec_per_resource, IncrementalCost, MappingInstance,
};
use match_graph::{Graph, ResourceGraph, TaskGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random heterogeneous instance: `n` tasks with a random interaction
/// topology, `m` resources on a complete platform with uneven costs.
/// Task/resource counts need not match — the delta path has no
/// squareness requirement.
fn random_instance(rng: &mut StdRng) -> MappingInstance {
    let n = rng.random_range(2..10usize);
    let m = rng.random_range(1..6usize);
    let mut tig = Graph::new();
    for _ in 0..n {
        tig.add_node(rng.random_range(0.1..10.0)).unwrap();
    }
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random::<f64>() < 0.4 {
                // TIG edges must be strictly positive, so the zero-weight
                // limit is probed with a weight 12 orders of magnitude
                // below the computation weights.
                let w = if rng.random::<f64>() < 0.25 {
                    1e-12
                } else {
                    rng.random_range(0.1..8.0)
                };
                tig.add_edge(u, v, w).unwrap();
            }
        }
    }
    let mut plat = Graph::new();
    for _ in 0..m {
        plat.add_node(rng.random_range(0.5..4.0)).unwrap();
    }
    for s in 0..m {
        for b in (s + 1)..m {
            plat.add_edge(s, b, rng.random_range(0.2..3.0)).unwrap();
        }
    }
    MappingInstance::new(
        &TaskGraph::new(tig).unwrap(),
        &ResourceGraph::new(plat).unwrap(),
    )
}

/// Element-wise comparison of drifted loads against a fresh evaluation.
fn assert_loads_match(inst: &MappingInstance, assign: &[usize], loads: &[f64], step: usize) {
    let fresh = exec_per_resource(inst, assign);
    assert_eq!(loads.len(), fresh.len());
    for (r, (&got, &want)) in loads.iter().zip(fresh.iter()).enumerate() {
        assert!(
            (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
            "resource {r} drifted after step {step}: incremental {got} vs fresh {want}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random move sequences keep `loads` within 1e-9 of the oracle,
    /// including no-op moves (task already on the target resource).
    #[test]
    fn moves_track_fresh_evaluation(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = random_instance(&mut rng);
        let (n, m) = (inst.n_tasks(), inst.n_resources());
        let mut assign: Vec<usize> = (0..n).map(|_| rng.random_range(0..m)).collect();
        let mut loads = exec_per_resource(&inst, &assign);
        for step in 0..60 {
            let t = rng.random_range(0..n);
            let r = rng.random_range(0..m);
            apply_move_delta(&inst, &mut assign, &mut loads, t, r);
            prop_assert_eq!(assign[t], r);
            assert_loads_match(&inst, &assign, &loads, step);
        }
    }

    /// Random interleaved move/swap sequences stay consistent. Starting
    /// from an all-on-one-resource assignment maximises co-located
    /// neighbours, the case where the communication term cancels.
    #[test]
    fn swaps_and_moves_track_fresh_evaluation(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = random_instance(&mut rng);
        let (n, m) = (inst.n_tasks(), inst.n_resources());
        let mut assign: Vec<usize> = vec![rng.random_range(0..m); n];
        let mut loads = exec_per_resource(&inst, &assign);
        for step in 0..60 {
            if rng.random::<f64>() < 0.5 {
                // Swap two tasks' resources — t1 == t2 must be a no-op.
                let t1 = rng.random_range(0..n);
                let t2 = rng.random_range(0..n);
                apply_swap_delta(&inst, &mut assign, &mut loads, t1, t2);
            } else {
                let t = rng.random_range(0..n);
                let r = rng.random_range(0..m);
                apply_move_delta(&inst, &mut assign, &mut loads, t, r);
            }
            assert_loads_match(&inst, &assign, &loads, step);
        }
    }

    /// A swap is exactly the composition of its two moves: both orders
    /// land on the same assignment and the same loads.
    #[test]
    fn swap_equals_two_moves(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = random_instance(&mut rng);
        let (n, m) = (inst.n_tasks(), inst.n_resources());
        let assign0: Vec<usize> = (0..n).map(|_| rng.random_range(0..m)).collect();
        let t1 = rng.random_range(0..n);
        let t2 = rng.random_range(0..n);

        let mut a = assign0.clone();
        let mut la = exec_per_resource(&inst, &a);
        apply_swap_delta(&inst, &mut a, &mut la, t1, t2);

        let mut b = assign0.clone();
        let mut lb = exec_per_resource(&inst, &b);
        let (r1, r2) = (b[t1], b[t2]);
        apply_move_delta(&inst, &mut b, &mut lb, t1, r2);
        apply_move_delta(&inst, &mut b, &mut lb, t2, r1);

        prop_assert_eq!(&a, &b);
        for (x, y) in la.iter().zip(lb.iter()) {
            prop_assert!((x - y).abs() <= 1e-9 * (1.0 + y.abs()));
        }
        assert_loads_match(&inst, &a, &la, 0);
    }
}

/// Eq. 2 as a linear fold over the loads: the oracle for
/// [`IncrementalCost`].
fn fold(loads: &[f64]) -> f64 {
    loads.iter().copied().fold(0.0, f64::max)
}

/// `n` tasks with a random interaction topology on `m` resources of a
/// complete platform. With `tied`, every weight is 1, so loads tie
/// across resources and stay exact integers; otherwise weights are
/// uneven and the loads drift by rounding.
fn tracked_instance(rng: &mut StdRng, n: usize, m: usize, tied: bool) -> MappingInstance {
    let weight = |rng: &mut StdRng, lo: f64, hi: f64| {
        if tied {
            1.0
        } else {
            rng.random_range(lo..hi)
        }
    };
    let mut tig = Graph::new();
    for _ in 0..n {
        tig.add_node(weight(rng, 0.1, 10.0)).unwrap();
    }
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random::<f64>() < 0.3 {
                let w = weight(rng, 0.1, 8.0);
                tig.add_edge(u, v, w).unwrap();
            }
        }
    }
    let mut plat = Graph::new();
    for _ in 0..m {
        plat.add_node(weight(rng, 0.5, 4.0)).unwrap();
    }
    for s in 0..m {
        for b in (s + 1)..m {
            let w = weight(rng, 0.2, 3.0);
            plat.add_edge(s, b, w).unwrap();
        }
    }
    MappingInstance::new(
        &TaskGraph::new(tig).unwrap(),
        &ResourceGraph::new(plat).unwrap(),
    )
}

/// Drive `steps` random moves, swaps and peeks through an
/// [`IncrementalCost`] and through plain `assign`/`loads` vectors, and
/// require every cost, load and assignment to agree bit for bit.
fn check_against_fold(inst: &MappingInstance, rng: &mut StdRng, steps: usize) {
    let (n, m) = (inst.n_tasks(), inst.n_resources());
    let mut assign: Vec<usize> = if n == m {
        match_rngutil::perm::random_permutation(n, rng)
    } else {
        (0..n).map(|_| rng.random_range(0..m)).collect()
    };
    let mut loads = exec_per_resource(inst, &assign);
    let mut inc = IncrementalCost::new(inst, assign.clone());
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for step in 0..steps {
        let (t1, t2) = (rng.random_range(0..n), rng.random_range(0..n));
        let r = rng.random_range(0..m);
        let roll = rng.random::<f64>();
        // A peek is the delta's fold, and then the saved state again.
        if roll < 0.4 {
            let got = inc.peek_swap(t1, t2);
            let (mut a, mut l) = (assign.clone(), loads.clone());
            apply_swap_delta(inst, &mut a, &mut l, t1, t2);
            let want = fold(&l);
            assert_eq!(got.to_bits(), want.to_bits(), "peek_swap at step {step}");
        } else if roll < 0.7 {
            let got = inc.peek_move(t1, r);
            let (mut a, mut l) = (assign.clone(), loads.clone());
            apply_move_delta(inst, &mut a, &mut l, t1, r);
            let want = fold(&l);
            assert_eq!(got.to_bits(), want.to_bits(), "peek_move at step {step}");
        } else if roll < 0.85 {
            inc.apply_swap(t1, t2);
            apply_swap_delta(inst, &mut assign, &mut loads, t1, t2);
        } else {
            inc.apply_move(t1, r);
            apply_move_delta(inst, &mut assign, &mut loads, t1, r);
        }
        assert_eq!(inc.assign(), &assign[..], "assignment at step {step}");
        assert_eq!(bits(inc.loads()), bits(&loads), "loads at step {step}");
        assert_eq!(
            inc.cost().to_bits(),
            fold(&loads).to_bits(),
            "cost at step {step}"
        );
    }
}

/// Fixed shapes the random ones may miss: one task, one resource,
/// resource counts on and off a power of two, square and rectangular,
/// each with tied and with uneven weights.
#[test]
fn incremental_cost_matches_the_fold_on_edge_shapes() {
    for (n, m) in [
        (1, 1),
        (1, 5),
        (6, 1),
        (7, 7),
        (8, 8),
        (9, 9),
        (12, 5),
        (33, 33),
    ] {
        for tied in [true, false] {
            for seed in 0..4 {
                let mut rng = StdRng::seed_from_u64(seed);
                let inst = tracked_instance(&mut rng, n, m, tied);
                check_against_fold(&inst, &mut rng, 300);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes and weights: every cost the tree returns is the
    /// fold's, bit for bit, through long mixed sequences.
    #[test]
    fn incremental_cost_matches_the_fold(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1..40usize);
        let m = if rng.random::<f64>() < 0.5 { n } else { rng.random_range(1..40usize) };
        let tied = rng.random::<f64>() < 0.3;
        let inst = tracked_instance(&mut rng, n, m, tied);
        check_against_fold(&inst, &mut rng, 400);
    }
}
