//! Differential checks: the same instance and seed pushed through
//! pairs of solver implementations whose documented relationship the
//! harness then asserts — bit-identity for the Sequential sampler
//! across thread counts, thread-count invariance for the Batched
//! pipeline, quality parity between the two streams, and agreement of
//! every reported cost with the independent Eq. 1/Eq. 2 oracle.

use crate::corpus::CorpusInstance;
use crate::oracle::{approx_eq, evaluator_disagreement, oracle_makespan, ORACLE_REL_TOL};
use crate::report::{CheckResult, Pillar};
use crate::shrink::shrink_instance;
use match_ce::StochasticMatrix;
use match_core::{
    exec_time, exec_time_with, EvalBackend, IslandConfig, IslandMatcher, Mapper, MapperOutcome,
    MappingInstance, MatchConfig, Matcher, MultilevelConfig, SamplerMode, StopToken,
};
use match_ga::{FastMapGa, GaConfig};
use match_multilevel::MultilevelMapper;
use match_rngutil::rng_from;
use match_telemetry::NullRecorder;

/// Thread counts every thread-invariance check sweeps.
const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

/// Batched and sequential pipelines draw different RNG streams, so
/// their final costs differ — but on the corpus's small instances both
/// converge near the optimum. This is the maximum tolerated ratio of
/// the worse to the better cost.
const PARITY_FACTOR: f64 = 1.5;

/// Trials per instance when hunting evaluator-vs-oracle disagreements.
const ORACLE_TRIALS: usize = 48;

fn ce_config(sampler: SamplerMode, threads: usize) -> MatchConfig {
    MatchConfig {
        threads,
        sampler,
        max_iters: 60,
        ..MatchConfig::default()
    }
}

fn ga_config(sampler: SamplerMode, threads: usize) -> GaConfig {
    GaConfig {
        population: 48,
        generations: 30,
        threads,
        sampler,
        ..GaConfig::paper_default()
    }
}

/// Everything that must be identical between two runs claimed to be
/// bit-equal: the mapping, the exact cost bits, and the loop counters.
#[derive(PartialEq, Debug)]
struct RunSignature {
    mapping: Vec<usize>,
    cost_bits: u64,
    iterations: usize,
    evaluations: u64,
}

impl RunSignature {
    fn of(out: &MapperOutcome) -> RunSignature {
        RunSignature {
            mapping: out.mapping.as_slice().to_vec(),
            cost_bits: out.cost.to_bits(),
            iterations: out.iterations,
            evaluations: out.evaluations,
        }
    }
}

/// The invariants every solver outcome must satisfy regardless of
/// which algorithm produced it: a valid assignment (a permutation on
/// square instances), a reported cost that *is* the evaluator's cost
/// for the mapping (no stale best), and evaluator agreement with the
/// independent oracle.
fn check_outcome_invariants(
    inst: &MappingInstance,
    out: &MapperOutcome,
    expect_permutation: bool,
) -> Result<(), String> {
    out.mapping
        .validate(inst)
        .map_err(|e| format!("invalid mapping: {e:?}"))?;
    if expect_permutation && !out.mapping.is_permutation() {
        return Err(format!(
            "square instance but mapping is not a permutation: {:?}",
            out.mapping.as_slice()
        ));
    }
    let recomputed = exec_time(inst, out.mapping.as_slice());
    if out.cost.to_bits() != recomputed.to_bits() {
        return Err(format!(
            "reported cost {} != evaluator recomputation {}",
            out.cost, recomputed
        ));
    }
    let oracle = oracle_makespan(inst, out.mapping.as_slice());
    if !approx_eq(out.cost, oracle, ORACLE_REL_TOL) {
        return Err(format!(
            "reported cost {} disagrees with Eq. 1/Eq. 2 oracle {}",
            out.cost, oracle
        ));
    }
    Ok(())
}

/// Collapse per-instance failure strings into one `CheckResult`.
fn summarize(pillar: Pillar, name: &str, failures: Vec<String>) -> CheckResult {
    if failures.is_empty() {
        CheckResult::pass(pillar, name)
    } else {
        CheckResult::fail(pillar, name, failures.join("\n"))
    }
}

/// A thread-invariance sweep for one square-instance solver family:
/// `run(threads)` must produce the same `RunSignature` for every entry
/// of [`THREAD_SWEEP`], and the outcome must satisfy the shared
/// invariants.
fn thread_invariance<F>(corpus: &[CorpusInstance], name: &str, mut run: F) -> CheckResult
where
    F: FnMut(&CorpusInstance, usize) -> MapperOutcome,
{
    let mut failures = Vec::new();
    for c in corpus.iter().filter(|c| c.is_square()) {
        let inst = c.instance();
        let baseline = run(c, THREAD_SWEEP[0]);
        if let Err(e) = check_outcome_invariants(&inst, &baseline, true) {
            failures.push(format!("{}: {e}", c.name));
            continue;
        }
        let want = RunSignature::of(&baseline);
        for &threads in &THREAD_SWEEP[1..] {
            let got = RunSignature::of(&run(c, threads));
            if got != want {
                failures.push(format!(
                    "{}: threads={threads} diverged from threads={} \
                     (cost {} vs {}, iterations {} vs {})",
                    c.name,
                    THREAD_SWEEP[0],
                    f64::from_bits(got.cost_bits),
                    f64::from_bits(want.cost_bits),
                    got.iterations,
                    want.iterations,
                ));
            }
        }
    }
    summarize(Pillar::Differential, name, failures)
}

fn ce_run(c: &CorpusInstance, sampler: SamplerMode, threads: usize, stream: u64) -> MapperOutcome {
    let mut rng = rng_from(c.seed, stream);
    Matcher::new(ce_config(sampler, threads))
        .run(&c.instance(), &mut rng)
        .into_mapper_outcome()
}

fn ga_run(c: &CorpusInstance, sampler: SamplerMode, threads: usize, stream: u64) -> MapperOutcome {
    let mut rng = rng_from(c.seed, stream);
    FastMapGa::new(ga_config(sampler, threads))
        .run(&c.instance(), &mut rng)
        .outcome
}

/// Quality parity between two streams of the same algorithm: neither
/// side may be worse than [`PARITY_FACTOR`] times the other.
fn parity_check<F, G>(
    corpus: &[CorpusInstance],
    name: &str,
    mut left: F,
    mut right: G,
) -> CheckResult
where
    F: FnMut(&CorpusInstance) -> f64,
    G: FnMut(&CorpusInstance) -> f64,
{
    let mut failures = Vec::new();
    for c in corpus.iter().filter(|c| c.is_square()) {
        let (a, b) = (left(c), right(c));
        let (worse, better) = if a > b { (a, b) } else { (b, a) };
        // NaN costs must fail the band, so compare via partial_cmp.
        let within = matches!(
            worse.partial_cmp(&(better * PARITY_FACTOR)),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        );
        if !within {
            failures.push(format!(
                "{}: costs {a} vs {b} exceed the {PARITY_FACTOR}x parity band",
                c.name
            ));
        }
    }
    summarize(Pillar::Differential, name, failures)
}

/// A determinism + invariants check for solvers without a documented
/// cross-implementation twin: two runs from the same seed must agree
/// bit-for-bit and satisfy the shared invariants.
fn determinism_check<F>(
    corpus: &[CorpusInstance],
    name: &str,
    expect_permutation: bool,
    mut run: F,
) -> CheckResult
where
    F: FnMut(&CorpusInstance) -> Option<MapperOutcome>,
{
    let mut failures = Vec::new();
    for c in corpus {
        let Some(first) = run(c) else { continue };
        let inst = c.instance();
        if let Err(e) = check_outcome_invariants(&inst, &first, expect_permutation) {
            failures.push(format!("{}: {e}", c.name));
            continue;
        }
        let second = run(c).expect("run filter must be deterministic");
        if RunSignature::of(&first) != RunSignature::of(&second) {
            failures.push(format!(
                "{}: two runs from the same seed diverged ({} vs {})",
                c.name, first.cost, second.cost
            ));
        }
    }
    summarize(Pillar::Differential, name, failures)
}

/// The evaluator-vs-oracle sweep. On disagreement the instance is
/// shrunk to a minimal witness before reporting.
fn oracle_agreement(corpus: &[CorpusInstance]) -> CheckResult {
    let mut failures = Vec::new();
    // The sweep recomputes Eq. 2 for thousands of sampled mappings, so
    // reuse one load buffer across all of them via `exec_time_with`
    // (the subject is a `&dyn Fn`, hence the `RefCell`).
    let scratch = std::cell::RefCell::new(Vec::new());
    let subject =
        |i: &MappingInstance, m: &[usize]| exec_time_with(i, m, &mut scratch.borrow_mut());
    for c in corpus {
        let inst = c.instance();
        if evaluator_disagreement(&inst, &subject, ORACLE_TRIALS, c.seed).is_some() {
            // Reproduce on progressively smaller instances.
            let fails = |tig: &match_graph::TaskGraph, res: &match_graph::ResourceGraph| {
                let small = MappingInstance::new(tig, res);
                evaluator_disagreement(&small, &subject, ORACLE_TRIALS, c.seed)
            };
            let detail = match shrink_instance(&c.tig, &c.resources, &fails) {
                Some(witness) => witness.render(),
                None => "disagreement did not reproduce under the shrinker".to_string(),
            };
            failures.push(format!(
                "{}: evaluator disagrees with oracle\n{detail}",
                c.name
            ));
        }
    }
    summarize(Pillar::Differential, "evaluator/oracle-agreement", failures)
}

/// Satellite: many-to-one coverage. Every instance runs through
/// [`Matcher::run_many_to_one`]'s assignment model — on square
/// instances too, where the result need not be a bijection (the model
/// allows duplicates), so the shared `Mapping::validate` bijection rule
/// does not apply. What must hold everywhere: in-range targets, a
/// reported cost that is the evaluator's cost bit-for-bit (the same
/// `exec_time` the permutation path uses), oracle agreement, and seeded
/// determinism.
fn many_to_one(corpus: &[CorpusInstance]) -> CheckResult {
    let mut failures = Vec::new();
    let mut rectangular = 0usize;
    for c in corpus {
        let inst = c.instance();
        let run = |stream: u64| {
            let mut rng = rng_from(c.seed, stream);
            Matcher::new(ce_config(SamplerMode::Sequential, 1))
                .run_many_to_one(&inst, &mut rng)
                .into_mapper_outcome()
        };
        let out = run(11);
        if !c.is_square() {
            rectangular += 1;
        }
        let assign = out.mapping.as_slice();
        if assign.len() != inst.n_tasks() || assign.iter().any(|&s| s >= inst.n_resources()) {
            failures.push(format!("{}: assignment out of range: {assign:?}", c.name));
            continue;
        }
        let recomputed = exec_time(&inst, assign);
        if out.cost.to_bits() != recomputed.to_bits() {
            failures.push(format!(
                "{}: reported cost {} != evaluator recomputation {}",
                c.name, out.cost, recomputed
            ));
            continue;
        }
        let oracle = oracle_makespan(&inst, assign);
        if !approx_eq(out.cost, oracle, ORACLE_REL_TOL) {
            failures.push(format!(
                "{}: cost {} disagrees with Eq. 1/Eq. 2 oracle {}",
                c.name, out.cost, oracle
            ));
            continue;
        }
        if RunSignature::of(&out) != RunSignature::of(&run(11)) {
            failures.push(format!(
                "{}: many-to-one run is not seed-deterministic",
                c.name
            ));
        }
    }
    if rectangular == 0 {
        failures.push("corpus contains no rectangular instance".to_string());
    }
    summarize(Pillar::Differential, "many-to-one/invariants", failures)
}

/// Forcing the Simd evaluation backend on every corpus instance must
/// reproduce the Scalar backend bit-for-bit — same mapping, same cost
/// bits, same loop counters — through every pipeline that dispatches on
/// [`EvalBackend`]: the batched CE sampler, the batched GA fitness
/// fan-out, and the multilevel coarse solve. Lanes group independent
/// samples and never reassociate the terms of one sample, so any
/// divergence here is a kernel bug, not FP noise.
fn backend_bit_equality(corpus: &[CorpusInstance]) -> CheckResult {
    let mut failures = Vec::new();
    let ce = |c: &CorpusInstance, backend| {
        let cfg = MatchConfig {
            backend,
            ..ce_config(SamplerMode::Batched, 2)
        };
        let mut rng = rng_from(c.seed, 15);
        Matcher::new(cfg)
            .run(&c.instance(), &mut rng)
            .into_mapper_outcome()
    };
    let ga = |c: &CorpusInstance, backend| {
        let cfg = GaConfig {
            backend,
            ..ga_config(SamplerMode::Batched, 2)
        };
        let mut rng = rng_from(c.seed, 16);
        FastMapGa::new(cfg).run(&c.instance(), &mut rng).outcome
    };
    let ml = |c: &CorpusInstance, backend| {
        let cfg = MultilevelConfig {
            backend,
            ..ml_config(2)
        };
        let mut rng = rng_from(c.seed, 17);
        MultilevelMapper::new(cfg).map(&c.instance(), &mut rng)
    };
    for c in corpus {
        // Multilevel accepts every instance; the flat batched pipelines
        // are permutation solvers and need square ones.
        let mut pairs = vec![(
            "multilevel",
            ml(c, EvalBackend::Scalar),
            ml(c, EvalBackend::Simd),
        )];
        if c.is_square() {
            pairs.push((
                "ce-batched",
                ce(c, EvalBackend::Scalar),
                ce(c, EvalBackend::Simd),
            ));
            pairs.push((
                "ga-batched",
                ga(c, EvalBackend::Scalar),
                ga(c, EvalBackend::Simd),
            ));
        }
        for (algo, scalar, simd) in pairs {
            if RunSignature::of(&simd) != RunSignature::of(&scalar) {
                failures.push(format!(
                    "{}: {algo} Simd diverged from Scalar (cost {} vs {})",
                    c.name, simd.cost, scalar.cost
                ));
            }
        }
    }
    summarize(
        Pillar::Differential,
        "backend/simd-vs-scalar-bit-equality",
        failures,
    )
}

/// Run every differential check over the corpus.
pub fn run_checks(corpus: &[CorpusInstance]) -> Vec<CheckResult> {
    let mut checks = Vec::new();

    checks.push(thread_invariance(
        corpus,
        "ce-sequential/thread-invariance",
        |c, threads| ce_run(c, SamplerMode::Sequential, threads, 1),
    ));
    checks.push(thread_invariance(
        corpus,
        "ce-batched/thread-invariance",
        |c, threads| ce_run(c, SamplerMode::Batched, threads, 2),
    ));
    checks.push(parity_check(
        corpus,
        "ce/batched-vs-sequential-parity",
        |c| ce_run(c, SamplerMode::Sequential, 1, 3).cost,
        |c| ce_run(c, SamplerMode::Batched, 2, 3).cost,
    ));

    checks.push(thread_invariance(
        corpus,
        "ga-sequential/thread-invariance",
        |c, threads| ga_run(c, SamplerMode::Sequential, threads, 4),
    ));
    checks.push(thread_invariance(
        corpus,
        "ga-batched/thread-invariance",
        |c, threads| ga_run(c, SamplerMode::Batched, threads, 5),
    ));
    checks.push(parity_check(
        corpus,
        "ga/batched-vs-sequential-parity",
        |c| ga_run(c, SamplerMode::Sequential, 1, 6).cost,
        |c| ga_run(c, SamplerMode::Batched, 2, 6).cost,
    ));

    // The §4 naive penalised ablation wastes samples on non-bijective
    // draws, so it only reliably finds permutations on tiny instances;
    // restrict to n <= 6 with the sample budget the ablation arm uses.
    checks.push(determinism_check(
        corpus,
        "naive-penalized/determinism-and-invariants",
        true,
        |c| {
            (c.is_square() && c.tig.len() <= 6).then(|| {
                let cfg = MatchConfig {
                    sample_size: Some(400),
                    ..ce_config(SamplerMode::Sequential, 1)
                };
                let mut rng = rng_from(c.seed, 8);
                Matcher::new(cfg)
                    .run_naive_penalized(&c.instance(), &mut rng)
                    .into_mapper_outcome()
            })
        },
    ));

    checks.push(determinism_check(
        corpus,
        "islands/determinism-and-invariants",
        true,
        |c| {
            c.is_square().then(|| {
                let cfg = IslandConfig {
                    islands: 2,
                    migration_interval: 3,
                    base: ce_config(SamplerMode::Sequential, 1),
                };
                let mut rng = rng_from(c.seed, 9);
                IslandMatcher::new(cfg).run(&c.instance(), &mut rng)
            })
        },
    ));

    // The multilevel driver on the regular (paper-scale) corpus: the
    // hierarchy degenerates to a single solve-and-refine at these sizes,
    // which is exactly the regime where its cost must match the flat
    // solvers' invariants.
    checks.push(determinism_check(
        corpus,
        "multilevel/determinism-and-invariants-square",
        true,
        |c| {
            c.is_square().then(|| {
                let mut rng = rng_from(c.seed, 12);
                MultilevelMapper::new(ml_config(1)).map(&c.instance(), &mut rng)
            })
        },
    ));
    checks.push(determinism_check(
        corpus,
        "multilevel/determinism-and-invariants-rect",
        false,
        |c| {
            (!c.is_square()).then(|| {
                let mut rng = rng_from(c.seed, 13);
                MultilevelMapper::new(ml_config(1)).map(&c.instance(), &mut rng)
            })
        },
    ));

    checks.push(backend_bit_equality(corpus));
    checks.push(many_to_one(corpus));
    checks.push(oracle_agreement(corpus));
    checks.extend(run_warm_checks(corpus));
    checks
}

/// Warm solve under the batched pipeline: seed the stochastic matrix
/// from `prior` mixed at `alpha`, return the outcome plus the converged
/// matrix.
fn warm_run(
    c: &CorpusInstance,
    threads: usize,
    stream: u64,
    prior: Option<&StochasticMatrix>,
    alpha: f64,
) -> (MapperOutcome, StochasticMatrix) {
    let mut rng = rng_from(c.seed, stream);
    let (outcome, converged) = Matcher::new(ce_config(SamplerMode::Batched, threads))
        .run_warm_controlled(
            &c.instance(),
            &mut rng,
            &mut NullRecorder,
            &StopToken::never(),
            prior,
            alpha,
        );
    (outcome.into_mapper_outcome(), converged)
}

/// The quality band a warm start may cost relative to cold: a prior can
/// steer early sampling, never the verdict. 1.05 rather than a tighter
/// band because the topology corpus entries (grid/torus/fattree/
/// dragonfly) have strongly anisotropic `c_{s,b}` matrices, where a
/// prior converged under a different seed legitimately steers CE into a
/// neighbouring basin a few percent off the cold optimum — the same
/// bound the dynamic re-mapping benchmark gates on.
const WARM_COST_FACTOR: f64 = 1.05;

/// Satellite: the warm-start seam. Three properties per square
/// instance, each against the same cold batched baseline:
///
/// 1. **α = 0 bit-identity** — a warm call with a *real* converged
///    prior but `α = 0` must reproduce the cold run exactly (mapping,
///    cost bits, loop counters): the seam may not perturb the RNG
///    stream or the seed matrix.
/// 2. **Quality parity + oracle** — an `α = 0.5` warm start from a
///    prior converged under a different seed must still satisfy every
///    shared outcome invariant (valid permutation, Eq. 1/Eq. 2 oracle
///    agreement) and land within `WARM_COST_FACTOR` (1.05×) of the
///    cold cost: priors can never degrade answers silently.
/// 3. **Thread invariance** — the warm run's `RunSignature` must be
///    identical across `THREAD_SWEEP` (1, 2 and 8 threads), like every other batched
///    pipeline.
pub fn run_warm_checks(corpus: &[CorpusInstance]) -> Vec<CheckResult> {
    let mut identity_failures = Vec::new();
    let mut quality_failures = Vec::new();
    let mut thread_failures = Vec::new();
    for c in corpus.iter().filter(|c| c.is_square()) {
        let inst = c.instance();
        // Cold baseline and the prior it converged to.
        let (cold, prior) = warm_run(c, 1, 18, None, 0.0);
        if let Err(e) = check_outcome_invariants(&inst, &cold, true) {
            identity_failures.push(format!("{}: cold baseline: {e}", c.name));
            continue;
        }
        // 1. α = 0 with a real prior supplied: bit-identical to cold.
        let (alpha0, _) = warm_run(c, 1, 18, Some(&prior), 0.0);
        if RunSignature::of(&alpha0) != RunSignature::of(&cold) {
            identity_failures.push(format!(
                "{}: alpha=0 warm run diverged from cold (cost {} vs {}, iterations {} vs {})",
                c.name, alpha0.cost, cold.cost, alpha0.iterations, cold.iterations
            ));
        }
        // 2. α > 0 from a different-seed prior: invariants + parity.
        let (_, other_prior) = warm_run(c, 1, 19, None, 0.0);
        let (warm, _) = warm_run(c, 1, 18, Some(&other_prior), 0.5);
        if let Err(e) = check_outcome_invariants(&inst, &warm, true) {
            quality_failures.push(format!("{}: {e}", c.name));
        } else if warm.cost > cold.cost * WARM_COST_FACTOR {
            quality_failures.push(format!(
                "{}: warm cost {} exceeds {WARM_COST_FACTOR}x cold cost {}",
                c.name, warm.cost, cold.cost
            ));
        }
        // 3. Warm thread invariance at fixed prior and α.
        let want = RunSignature::of(&warm);
        for &threads in &THREAD_SWEEP[1..] {
            let got = RunSignature::of(&warm_run(c, threads, 18, Some(&other_prior), 0.5).0);
            if got != want {
                thread_failures.push(format!(
                    "{}: warm threads={threads} diverged from threads={} \
                     (cost {} vs {}, iterations {} vs {})",
                    c.name,
                    THREAD_SWEEP[0],
                    f64::from_bits(got.cost_bits),
                    f64::from_bits(want.cost_bits),
                    got.iterations,
                    want.iterations,
                ));
            }
        }
    }
    vec![
        summarize(
            Pillar::Differential,
            "ce-warm/alpha0-bit-identity",
            identity_failures,
        ),
        summarize(
            Pillar::Differential,
            "ce-warm/quality-parity-and-oracle",
            quality_failures,
        ),
        summarize(
            Pillar::Differential,
            "ce-warm/thread-invariance",
            thread_failures,
        ),
    ]
}

/// Multilevel configuration the differential checks share. The coarsen
/// target is lowered from the paper-scale default (48) to keep the
/// coarse CE solve affordable on the debug builds the smoke corpus runs
/// under; correctness checks do not care where coarsening stops.
fn ml_config(threads: usize) -> MultilevelConfig {
    MultilevelConfig {
        coarsen_target: 24,
        threads,
        ..MultilevelConfig::default()
    }
}

/// Satellite: the multilevel driver at the scales the flat `2n²`
/// samplers cannot reach. Each instance is built once (the dense link
/// matrix at n = 4096 is ~134 MB — rebuilding it per thread count would
/// dominate the check), then swept for `THREAD_SWEEP` bit-identity
/// and the shared validity/recomputation/oracle invariants.
pub fn run_large_checks(large: &[CorpusInstance]) -> Vec<CheckResult> {
    let mut failures = Vec::new();
    for c in large {
        let inst = c.instance();
        let run = |threads: usize| {
            let mut rng = rng_from(c.seed, 14);
            MultilevelMapper::new(ml_config(threads)).map(&inst, &mut rng)
        };
        let baseline = run(THREAD_SWEEP[0]);
        if let Err(e) = check_outcome_invariants(&inst, &baseline, c.is_square()) {
            failures.push(format!("{}: {e}", c.name));
            continue;
        }
        let want = RunSignature::of(&baseline);
        for &threads in &THREAD_SWEEP[1..] {
            let got = RunSignature::of(&run(threads));
            if got != want {
                failures.push(format!(
                    "{}: threads={threads} diverged from threads={} \
                     (cost {} vs {}, iterations {} vs {})",
                    c.name,
                    THREAD_SWEEP[0],
                    f64::from_bits(got.cost_bits),
                    f64::from_bits(want.cost_bits),
                    got.iterations,
                    want.iterations,
                ));
            }
        }
    }
    vec![summarize(
        Pillar::Differential,
        "multilevel/large-n-thread-invariance",
        failures,
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{build, build_large, CorpusKind};

    #[test]
    fn smoke_large_corpus_passes_multilevel_checks() {
        let large = build_large(CorpusKind::Smoke, 2005);
        let checks = run_large_checks(&large);
        assert_eq!(checks.len(), 1);
        for check in &checks {
            assert!(check.passed, "{}: {}", check.name, check.details);
        }
    }

    #[test]
    fn smoke_corpus_passes_every_differential_check() {
        let corpus = build(CorpusKind::Smoke, 2005);
        let checks = run_checks(&corpus);
        assert!(checks.len() >= 9, "expected the full check battery");
        for check in &checks {
            assert!(check.passed, "{}: {}", check.name, check.details);
        }
    }

    #[test]
    fn invariant_checker_rejects_a_stale_cost() {
        let corpus = build(CorpusKind::Smoke, 2005);
        let c = corpus.iter().find(|c| c.is_square()).unwrap();
        let inst = c.instance();
        let mut out = ce_run(c, SamplerMode::Sequential, 1, 99);
        out.cost += 1.0; // no longer the evaluator's cost for the mapping
        let err = check_outcome_invariants(&inst, &out, true).unwrap_err();
        assert!(err.contains("recomputation"), "{err}");
    }

    #[test]
    fn parity_check_flags_a_gap() {
        let corpus = build(CorpusKind::Smoke, 2005);
        let check = parity_check(&corpus, "synthetic/parity", |_| 1.0, |_| 10.0);
        assert!(!check.passed);
        assert!(check.details.contains("parity band"));
    }
}
