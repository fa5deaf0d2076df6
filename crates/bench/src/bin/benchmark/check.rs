//! Correctness checks applied to every output the workloads produce.
//! A failed check counts against `failed` and makes the run exit
//! non-zero.

use match_core::{exec_time, Mapping, MappingInstance, RemapOutcome};

/// A mapping must be valid for its instance, and its reported cost must
/// be bit-equal to a fresh Eq. 2 evaluation.
pub fn mapping(inst: &MappingInstance, assign: &[usize], reported_cost: f64) -> Result<(), String> {
    Mapping::new(assign.to_vec())
        .validate(inst)
        .map_err(|e| format!("invalid mapping: {e}"))?;
    let oracle = exec_time(inst, assign);
    if reported_cost.to_bits() != oracle.to_bits() {
        return Err(format!(
            "reported cost {reported_cost:e} is not exec_time {oracle:e}"
        ));
    }
    Ok(())
}

/// Tasks whose resource differs between two mappings.
pub fn hamming(a: &[usize], b: &[usize]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len())
}

/// An incremental re-map must pass [`mapping`], ledger its migrations
/// exactly (`migrated` is the Hamming distance to the prior and
/// `migration_cost = μ·migrated`), and report `total = cost +
/// migration_cost`.
pub fn remap(
    inst: &MappingInstance,
    prior: &[usize],
    mu: f64,
    out: &RemapOutcome,
) -> Result<(), String> {
    let assign = out.mapping.as_slice();
    mapping(inst, assign, out.cost)?;
    let moved = hamming(prior, assign);
    if out.migrated != moved {
        return Err(format!(
            "migrated {} but the mapping moved {moved} tasks",
            out.migrated
        ));
    }
    if out.migration_cost.to_bits() != (mu * moved as f64).to_bits() {
        return Err(format!(
            "migration cost {} is not mu x moved = {}",
            out.migration_cost,
            mu * moved as f64
        ));
    }
    if out.total.to_bits() != (out.cost + out.migration_cost).to_bits() {
        return Err(format!(
            "total {} is not cost + migration cost {}",
            out.total,
            out.cost + out.migration_cost
        ));
    }
    Ok(())
}

/// A cached reply must be identical to the answer the cache was primed
/// with: the same mapping and the same cost bits.
pub fn cached(
    primed: &[usize],
    primed_cost: f64,
    assign: &[usize],
    cost: f64,
) -> Result<(), String> {
    if primed != assign || primed_cost.to_bits() != cost.to_bits() {
        return Err("cached reply differs from the primed answer".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_core::RemapConfig;
    use match_graph::gen::InstanceGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance(n: usize) -> MappingInstance {
        MappingInstance::from_pair(
            &InstanceGenerator::paper_family(n).generate(&mut StdRng::seed_from_u64(3)),
        )
    }

    #[test]
    fn accepts_a_valid_mapping_with_its_exact_cost() {
        let inst = instance(6);
        let assign = vec![2, 0, 1, 5, 4, 3];
        assert_eq!(mapping(&inst, &assign, exec_time(&inst, &assign)), Ok(()));
    }

    #[test]
    fn rejects_a_corrupted_mapping() {
        let inst = instance(6);
        let mut assign = vec![2, 0, 1, 5, 4, 3];
        let cost = exec_time(&inst, &assign);
        assign[1] = 2; // two tasks on resource 2: not a bijection
        assert!(mapping(&inst, &assign, cost).is_err());
        assert!(mapping(&inst, &[0, 1, 2, 3, 4, 9], cost).is_err());
        assert!(mapping(&inst, &[0, 1, 2], cost).is_err());
    }

    #[test]
    fn rejects_a_cost_one_ulp_off() {
        let inst = instance(6);
        let assign = vec![2, 0, 1, 5, 4, 3];
        let cost = exec_time(&inst, &assign);
        let up = f64::from_bits(cost.to_bits() + 1);
        let down = f64::from_bits(cost.to_bits() - 1);
        assert!(mapping(&inst, &assign, up).is_err());
        assert!(mapping(&inst, &assign, down).is_err());
    }

    #[test]
    fn remap_ledger_is_checked() {
        let inst = instance(8);
        let prior: Vec<usize> = (0..8).rev().collect();
        let cfg = RemapConfig {
            mu: 0.5,
            ..RemapConfig::default()
        };
        let out = match_core::remap(
            &inst,
            Some(&prior),
            &[0, 1, 2, 3],
            &cfg,
            &mut StdRng::seed_from_u64(4),
        );
        assert_eq!(remap(&inst, &prior, 0.5, &out), Ok(()));
        let mut wrong = out.clone();
        wrong.migrated += 1;
        assert!(remap(&inst, &prior, 0.5, &wrong).is_err());
        let mut wrong = out.clone();
        wrong.total = f64::from_bits(out.total.to_bits() + 1);
        assert!(remap(&inst, &prior, 0.5, &wrong).is_err());
    }

    #[test]
    fn cached_reply_must_match_primed_bits() {
        let primed = [1, 0, 2];
        assert_eq!(cached(&primed, 3.5, &[1, 0, 2], 3.5), Ok(()));
        assert!(cached(&primed, 3.5, &[0, 1, 2], 3.5).is_err());
        let up = f64::from_bits(3.5f64.to_bits() + 1);
        assert!(cached(&primed, 3.5, &[1, 0, 2], up).is_err());
    }

    #[test]
    fn hamming_counts_moves_and_length_mismatch() {
        assert_eq!(hamming(&[0, 1, 2], &[0, 2, 1]), 2);
        assert_eq!(hamming(&[0, 1], &[0, 1, 2]), 1);
        assert_eq!(hamming(&[], &[]), 0);
    }
}
