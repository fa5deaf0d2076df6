//! Metamorphic checks for incremental re-mapping ([`match_core::remap`](mod@match_core::remap)):
//! the contracts the module documents, asserted over every square
//! corpus instance instead of merely stated.
//!
//! * **Empty event batch** — re-mapping with nothing changed must be
//!   bit-identical to not re-mapping at all: the prior mapping comes
//!   back untouched, zero migrations, and `cost` equals a fresh Eq. 2
//!   evaluation of the prior bit for bit.
//! * **μ = 0 cold parity** — with no prior and no migration charge, the
//!   re-mapper *is* the cold solver: mapping and cost must match
//!   [`Matcher::run`] under the same seed bit for bit.
//! * **Migration accounting** — `migrated` is the Hamming distance from
//!   the prior, `migration_cost` is exactly `μ·migrated` (μ a power of
//!   two, so the product is exact), and `total` is exactly their sum.
//!
//! Reported under [`Pillar::Metamorphic`] as `dynamic/*` checks. RNG
//! streams 0x31–0x34 are reserved here (0x21–0x28 belong to
//! `metamorphic`, 1–19 to `differential`).

use crate::corpus::CorpusInstance;
use crate::report::{CheckResult, Pillar};
use match_core::{
    exec_time, remap_incremental, MatchConfig, Matcher, RemapConfig, RemapStrategy, SamplerMode,
    StopToken,
};
use match_rngutil::rng_from;
use match_telemetry::NullRecorder;

/// Migration weight for the accounting check. A power of two, so
/// `μ · migrated` is exact for every integer migration count.
pub const ACCOUNTING_MU: f64 = 0.5;

/// The CE configuration every dynamic check shares: single-threaded
/// sequential sampling with a short iteration budget, so the cold
/// trajectories being compared are cheap and platform-stable.
fn check_config() -> MatchConfig {
    MatchConfig {
        threads: 1,
        sampler: SamplerMode::Sequential,
        max_iters: 30,
        ..MatchConfig::default()
    }
}

/// A prior mapping for `c`: a short cold CE solve on its own stream.
fn prior_for(c: &CorpusInstance) -> Vec<usize> {
    let inst = c.instance();
    let out = Matcher::new(check_config()).run(&inst, &mut rng_from(c.seed, 0x31));
    out.mapping.as_slice().to_vec()
}

fn summarize(name: &str, failures: Vec<String>) -> CheckResult {
    if failures.is_empty() {
        CheckResult::pass(Pillar::Metamorphic, name)
    } else {
        CheckResult::fail(Pillar::Metamorphic, name, failures.join("\n"))
    }
}

/// An empty event batch under [`RemapStrategy::RefineOnly`] must be
/// bit-identical to not re-mapping: prior returned unchanged, zero
/// migrations and evaluations, `cost` bit-equal to a fresh Eq. 2
/// evaluation of the prior.
fn empty_batch_identity(corpus: &[CorpusInstance]) -> CheckResult {
    let mut failures = Vec::new();
    for c in corpus.iter().filter(|c| c.is_square()) {
        let inst = c.instance();
        let prior = prior_for(c);
        let cfg = RemapConfig {
            match_config: check_config(),
            strategy: RemapStrategy::RefineOnly,
            // A non-zero μ must not matter when nothing moves.
            mu: 2.0,
            ..RemapConfig::default()
        };
        let out = remap_incremental(
            &inst,
            Some(&prior),
            &[],
            &cfg,
            &mut rng_from(c.seed, 0x32),
            &mut NullRecorder,
            &StopToken::never(),
        );
        let fresh = exec_time(&inst, &prior);
        if out.mapping.as_slice() != prior.as_slice() {
            failures.push(format!(
                "{}: empty batch rewrote the mapping ({:?} -> {:?})",
                c.name,
                prior,
                out.mapping.as_slice()
            ));
        } else if out.migrated != 0
            || out.migration_cost != 0.0
            || out.evaluations != 0
            || !out.warm
        {
            failures.push(format!(
                "{}: empty batch did work ({} migrated, {} evaluations, warm {})",
                c.name, out.migrated, out.evaluations, out.warm
            ));
        } else if out.cost.to_bits() != fresh.to_bits() || out.total.to_bits() != fresh.to_bits() {
            failures.push(format!(
                "{}: empty-batch cost {} != fresh Eq. 2 evaluation {}",
                c.name, out.cost, fresh
            ));
        }
    }
    summarize("dynamic/empty-batch-identity", failures)
}

/// With no prior and μ = 0 the re-mapper must *be* the cold solver:
/// same seed, bit-identical mapping and cost to [`Matcher::run`].
fn mu_zero_cold_parity(corpus: &[CorpusInstance]) -> CheckResult {
    let mut failures = Vec::new();
    for c in corpus.iter().filter(|c| c.is_square()) {
        let inst = c.instance();
        let cfg = RemapConfig {
            match_config: check_config(),
            mu: 0.0,
            ..RemapConfig::default()
        };
        let out = remap_incremental(
            &inst,
            None,
            &[],
            &cfg,
            &mut rng_from(c.seed, 0x33),
            &mut NullRecorder,
            &StopToken::never(),
        );
        let cold = Matcher::new(check_config()).run(&inst, &mut rng_from(c.seed, 0x33));
        if out.warm {
            failures.push(format!("{}: cold fallback claims warm", c.name));
        } else if out.mapping.as_slice() != cold.mapping.as_slice()
            || out.cost.to_bits() != cold.cost.to_bits()
        {
            failures.push(format!(
                "{}: cold fallback diverged from Matcher::run (cost {} vs {})",
                c.name, out.cost, cold.cost
            ));
        } else if out.migration_cost != 0.0 || out.total.to_bits() != out.cost.to_bits() {
            failures.push(format!(
                "{}: μ=0 re-map charged migrations (cost {}, total {})",
                c.name, out.cost, out.total
            ));
        }
    }
    summarize("dynamic/mu-zero-cold-parity", failures)
}

/// The migration ledger must balance exactly: `migrated` is the Hamming
/// distance from the prior, `migration_cost = μ·migrated` bit-exactly
/// (μ a power of two), and `total = cost + migration_cost` bit-exactly.
fn migration_accounting(corpus: &[CorpusInstance]) -> CheckResult {
    let mut failures = Vec::new();
    for c in corpus.iter().filter(|c| c.is_square()) {
        let inst = c.instance();
        let prior = prior_for(c);
        let cfg = RemapConfig {
            match_config: check_config(),
            strategy: RemapStrategy::RefineOnly,
            mu: ACCOUNTING_MU,
            ..RemapConfig::default()
        };
        // Refine over the whole task set so swaps actually happen.
        let changed: Vec<usize> = (0..inst.n_tasks()).collect();
        let out = remap_incremental(
            &inst,
            Some(&prior),
            &changed,
            &cfg,
            &mut rng_from(c.seed, 0x34),
            &mut NullRecorder,
            &StopToken::never(),
        );
        let hamming = out
            .mapping
            .as_slice()
            .iter()
            .zip(&prior)
            .filter(|(a, b)| a != b)
            .count();
        if out.migrated != hamming {
            failures.push(format!(
                "{}: migrated {} != Hamming distance {}",
                c.name, out.migrated, hamming
            ));
        } else if out.migration_cost.to_bits() != (ACCOUNTING_MU * hamming as f64).to_bits() {
            failures.push(format!(
                "{}: migration_cost {} != μ·migrated {}",
                c.name,
                out.migration_cost,
                ACCOUNTING_MU * hamming as f64
            ));
        } else if out.total.to_bits() != (out.cost + out.migration_cost).to_bits() {
            failures.push(format!(
                "{}: total {} != cost {} + migration_cost {}",
                c.name, out.total, out.cost, out.migration_cost
            ));
        } else if out.cost.to_bits() != exec_time(&inst, out.mapping.as_slice()).to_bits() {
            failures.push(format!(
                "{}: reported cost {} is not a fresh Eq. 2 evaluation",
                c.name, out.cost
            ));
        }
    }
    summarize("dynamic/migration-accounting", failures)
}

/// Run every dynamic re-mapping check over the corpus.
pub fn run_checks(corpus: &[CorpusInstance]) -> Vec<CheckResult> {
    vec![
        empty_batch_identity(corpus),
        mu_zero_cold_parity(corpus),
        migration_accounting(corpus),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{build, CorpusKind};

    #[test]
    fn smoke_corpus_passes_every_dynamic_check() {
        let corpus = build(CorpusKind::Smoke, 2005);
        let checks = run_checks(&corpus);
        assert_eq!(checks.len(), 3);
        for check in &checks {
            assert!(check.passed, "{}: {}", check.name, check.details);
            assert!(check.name.starts_with("dynamic/"), "{}", check.name);
            assert_eq!(check.pillar, Pillar::Metamorphic);
        }
    }

    #[test]
    fn accounting_mu_is_a_power_of_two() {
        // The bit-exactness claim in `migration_accounting` relies on
        // μ·k being exact for integer k; a power of two guarantees it.
        assert_eq!(ACCOUNTING_MU.log2().fract(), 0.0);
    }
}
