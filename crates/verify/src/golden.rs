//! Golden-trajectory regression: committed fixtures pin the exact
//! per-iteration best-cost sequence (captured through
//! [`match_telemetry::MemoryRecorder`], or from the outcome's telemetry
//! for entry points that take no recorder) of representative solver
//! configurations on fixed instances. Any change to an RNG stream,
//! sampling order, or update rule shows up as a trajectory diff — the
//! check renders the first divergence instead of a bare "mismatch".
//!
//! Costs are stored as raw IEEE-754 bit patterns (hex) with a decimal
//! rendering alongside for humans; the bits are authoritative, so the
//! comparison is exact and platform-independent. After an *intentional*
//! stream change, regenerate with `matchctl verify --update-golden`.

use crate::report::{CheckResult, Pillar};
use match_core::{
    CapacityModel, EvalBackend, Mapper, MappingInstance, MatchConfig, Matcher, MultilevelConfig,
    SamplerMode, StopToken,
};
use match_ga::{FastMapGa, GaConfig};
use match_graph::gen::paper::PaperFamilyConfig;
use match_graph::gen::topology::{TopologyConfig, TopologyKind};
use match_graph::InstancePair;
use match_multilevel::MultilevelMapper;
use match_rngutil::{derive_seed_str, rng_from};
use match_telemetry::MemoryRecorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Master seed the fixture instance and run streams derive from.
/// Deliberately unrelated to the CLI's `--seed`: fixtures must stay
/// byte-stable whatever corpus seed a run uses.
const FIXTURE_MASTER: u64 = 0x4d61_5443;

/// Tasks (= resources) in the fixture instance.
const FIXTURE_N: usize = 8;

/// Which solver configuration a fixture pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Solver {
    CeSequential,
    CeBatched,
    GaSequential,
    GaBatched,
    Multilevel,
    /// `Matcher::run_many_to_one` (independent rows, `|V_t| ≠ |V_r|`).
    ManyToOne(SamplerMode),
    /// `Matcher::run_naive_penalized` (independent rows, `∞` for
    /// non-bijections).
    NaivePenalized(SamplerMode),
    /// `Matcher::run_capacitated_controlled` at `γ = 1`, traced.
    Capacitated(SamplerMode),
}

/// Which instance family a fixture solves over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// The shared paper-family instance.
    Paper,
    /// A rectangular paper-family instance: 12 tasks on 4 resources.
    Rectangular,
    /// A topology-aware platform (hop-distance link costs).
    Topology(TopologyKind),
}

/// One committed fixture: a named solver configuration on a fixed
/// instance.
#[derive(Debug, Clone, Copy)]
pub struct FixtureSpec {
    /// Fixture (and file stem) name.
    pub name: &'static str,
    solver: Solver,
    family: Family,
}

/// The committed fixtures: both sampling pipelines of both iterative
/// solver families and the multilevel driver's coarsen–solve–refine
/// trajectory on the paper-family instance, the batched CE trajectory
/// on each of the four topology-aware platforms, and both sampling
/// pipelines of the many-to-one, naive-penalised and capacitated CE
/// objectives.
pub const FIXTURES: [FixtureSpec; 15] = [
    FixtureSpec {
        name: "ce-sequential-n8",
        solver: Solver::CeSequential,
        family: Family::Paper,
    },
    FixtureSpec {
        name: "ce-batched-n8",
        solver: Solver::CeBatched,
        family: Family::Paper,
    },
    FixtureSpec {
        name: "ga-sequential-n8",
        solver: Solver::GaSequential,
        family: Family::Paper,
    },
    FixtureSpec {
        name: "ga-batched-n8",
        solver: Solver::GaBatched,
        family: Family::Paper,
    },
    FixtureSpec {
        name: "multilevel-n8",
        solver: Solver::Multilevel,
        family: Family::Paper,
    },
    FixtureSpec {
        name: "grid-n8",
        solver: Solver::CeBatched,
        family: Family::Topology(TopologyKind::Grid),
    },
    FixtureSpec {
        name: "torus-n8",
        solver: Solver::CeBatched,
        family: Family::Topology(TopologyKind::Torus),
    },
    FixtureSpec {
        name: "fattree-n8",
        solver: Solver::CeBatched,
        family: Family::Topology(TopologyKind::FatTree),
    },
    FixtureSpec {
        name: "dragonfly-n8",
        solver: Solver::CeBatched,
        family: Family::Topology(TopologyKind::Dragonfly),
    },
    FixtureSpec {
        name: "many-to-one-sequential-12x4",
        solver: Solver::ManyToOne(SamplerMode::Sequential),
        family: Family::Rectangular,
    },
    FixtureSpec {
        name: "many-to-one-batched-12x4",
        solver: Solver::ManyToOne(SamplerMode::Batched),
        family: Family::Rectangular,
    },
    FixtureSpec {
        name: "naive-sequential-n8",
        solver: Solver::NaivePenalized(SamplerMode::Sequential),
        family: Family::Paper,
    },
    FixtureSpec {
        name: "naive-batched-n8",
        solver: Solver::NaivePenalized(SamplerMode::Batched),
        family: Family::Paper,
    },
    FixtureSpec {
        name: "capacitated-sequential-grid-n8",
        solver: Solver::Capacitated(SamplerMode::Sequential),
        family: Family::Topology(TopologyKind::Grid),
    },
    FixtureSpec {
        name: "capacitated-batched-grid-n8",
        solver: Solver::Capacitated(SamplerMode::Batched),
        family: Family::Topology(TopologyKind::Grid),
    },
];

/// What a fixture pins: the final mapping plus the raw per-iteration
/// best sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Best mapping at the end of the run.
    pub mapping: Vec<usize>,
    /// Its cost.
    pub final_cost: f64,
    /// Best cost of each iteration, in emission order (not the running
    /// minimum).
    pub iter_bests: Vec<f64>,
}

fn fixture_instance(family: Family) -> MappingInstance {
    match family {
        Family::Paper => {
            let gen_seed = derive_seed_str(FIXTURE_MASTER, "gen/paper-n8");
            let mut rng = StdRng::seed_from_u64(gen_seed);
            let pair = PaperFamilyConfig::new(FIXTURE_N).generate(&mut rng);
            MappingInstance::from_pair(&pair)
        }
        Family::Rectangular => {
            let gen_seed = derive_seed_str(FIXTURE_MASTER, "gen/paper-12x4");
            let mut rng = StdRng::seed_from_u64(gen_seed);
            let tig = PaperFamilyConfig::new(12).generate_tig(&mut rng);
            let resources = PaperFamilyConfig::new(4).generate_platform(&mut rng);
            MappingInstance::from_pair(&InstancePair { tig, resources })
        }
        Family::Topology(kind) => {
            let gen_seed =
                derive_seed_str(FIXTURE_MASTER, &format!("gen/{}-n{FIXTURE_N}", kind.name()));
            let mut rng = StdRng::seed_from_u64(gen_seed);
            let pair = TopologyConfig::new(kind, FIXTURE_N).generate(&mut rng);
            MappingInstance::from_pair(&pair)
        }
    }
}

/// The capacities a capacitated fixture solves under: the topology's own
/// [`TopologyConfig::generate_caps`] spec at penalty weight `γ = 1`.
fn fixture_caps(family: Family) -> CapacityModel {
    let Family::Topology(kind) = family else {
        panic!("capacitated fixtures need a topology family");
    };
    let caps_seed = derive_seed_str(
        FIXTURE_MASTER,
        &format!("caps/{}-n{FIXTURE_N}", kind.name()),
    );
    let spec =
        TopologyConfig::new(kind, FIXTURE_N).generate_caps(&mut StdRng::seed_from_u64(caps_seed));
    CapacityModel::from_spec(&spec, 1.0)
}

/// Re-run a fixture's solver and capture its trajectory through a
/// [`MemoryRecorder`] (or, for entry points that take no recorder, from
/// the outcome's per-iteration telemetry).
pub fn capture(spec: &FixtureSpec) -> Trajectory {
    capture_with_backend(spec, EvalBackend::default())
}

/// [`capture`] with the evaluation backend forced. Backends are
/// bit-exact, so every fixture must reproduce the *same* committed
/// trajectory whichever backend runs it — that claim is checked by
/// [`run_checks`], not just asserted.
pub fn capture_with_backend(spec: &FixtureSpec, backend: EvalBackend) -> Trajectory {
    let inst = fixture_instance(spec.family);
    let run_seed = derive_seed_str(FIXTURE_MASTER, &format!("run/{}", spec.name));
    let mut rng = rng_from(run_seed, 0);
    let mut recorder = MemoryRecorder::new();
    let ce_config = |sampler: SamplerMode| MatchConfig {
        threads: 2,
        sampler,
        backend,
        max_iters: 40,
        ..MatchConfig::default()
    };
    let (mapping, final_cost) = match spec.solver {
        Solver::CeSequential | Solver::CeBatched => {
            let sampler = if spec.solver == Solver::CeSequential {
                SamplerMode::Sequential
            } else {
                SamplerMode::Batched
            };
            let out = Matcher::new(ce_config(sampler)).run_traced(&inst, &mut rng, &mut recorder);
            (out.mapping.as_slice().to_vec(), out.cost)
        }
        Solver::ManyToOne(sampler) => {
            let out = Matcher::new(ce_config(sampler)).run_many_to_one(&inst, &mut rng);
            return untraced_trajectory(out);
        }
        Solver::NaivePenalized(sampler) => {
            let out = Matcher::new(ce_config(sampler)).run_naive_penalized(&inst, &mut rng);
            return untraced_trajectory(out);
        }
        Solver::Capacitated(sampler) => {
            let caps = fixture_caps(spec.family);
            let out = Matcher::new(ce_config(sampler)).run_capacitated_controlled(
                &inst,
                &caps,
                &mut rng,
                &mut recorder,
                &StopToken::never(),
            );
            (out.mapping.as_slice().to_vec(), out.cost)
        }
        Solver::GaSequential | Solver::GaBatched => {
            let (sampler, threads) = if spec.solver == Solver::GaSequential {
                (SamplerMode::Sequential, 1)
            } else {
                (SamplerMode::Batched, 2)
            };
            let cfg = GaConfig {
                population: 40,
                generations: 25,
                threads,
                sampler,
                backend,
                ..GaConfig::paper_default()
            };
            let out = FastMapGa::new(cfg).run_traced(&inst, &mut rng, &mut recorder);
            (out.outcome.mapping.as_slice().to_vec(), out.outcome.cost)
        }
        Solver::Multilevel => {
            // A low coarsen target forces a real hierarchy even at the
            // fixture's n = 8, so the trajectory pins the coarsening
            // and per-level refinement streams, not just the coarse CE.
            let cfg = MultilevelConfig {
                coarsen_target: 4,
                refine_passes: 2,
                refine_candidates: 4,
                threads: 2,
                backend,
            };
            let out = MultilevelMapper::new(cfg).map_traced(&inst, &mut rng, &mut recorder);
            (out.mapping.as_slice().to_vec(), out.cost)
        }
    };
    Trajectory {
        mapping,
        final_cost,
        iter_bests: recorder.iter_bests(),
    }
}

/// The trajectory of a MaTCH entry point that takes no recorder: the
/// per-iteration bests come from [`match_core::MatchOutcome::telemetry`],
/// which carries the same values a recorder's iteration events would.
fn untraced_trajectory(out: match_core::MatchOutcome) -> Trajectory {
    Trajectory {
        mapping: out.mapping.as_slice().to_vec(),
        final_cost: out.cost,
        iter_bests: out.telemetry.iters.iter().map(|s| s.best).collect(),
    }
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Serialise a trajectory to the fixture text format.
pub fn to_text(name: &str, traj: &Trajectory) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# match-verify golden trajectory; regenerate with `matchctl verify --update-golden`"
    );
    let _ = writeln!(out, "fixture {name}");
    let _ = writeln!(
        out,
        "mapping {}",
        traj.mapping
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(out, "final {} {}", hex(traj.final_cost), traj.final_cost);
    for (i, best) in traj.iter_bests.iter().enumerate() {
        let _ = writeln!(out, "iter {i} {} {}", hex(*best), best);
    }
    out
}

/// Parse the fixture text format; hex bit patterns are authoritative,
/// the trailing decimal is ignored.
pub fn from_text(input: &str) -> Result<Trajectory, String> {
    let mut mapping = None;
    let mut final_cost = None;
    let mut iter_bests = Vec::new();
    let parse_bits = |tok: &str| -> Result<f64, String> {
        u64::from_str_radix(tok, 16)
            .map(f64::from_bits)
            .map_err(|e| format!("bad f64 bit pattern `{tok}`: {e}"))
    };
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let err = |msg: &str| format!("line {}: {msg}", lineno + 1);
        match tokens.next() {
            Some("fixture") => {}
            Some("mapping") => {
                mapping = Some(
                    tokens
                        .map(|t| t.parse::<usize>().map_err(|e| err(&e.to_string())))
                        .collect::<Result<Vec<_>, _>>()?,
                );
            }
            Some("final") => {
                let bits = tokens.next().ok_or_else(|| err("missing final bits"))?;
                final_cost = Some(parse_bits(bits)?);
            }
            Some("iter") => {
                let idx: usize = tokens
                    .next()
                    .ok_or_else(|| err("missing iter index"))?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| err(&e.to_string()))?;
                if idx != iter_bests.len() {
                    return Err(err(&format!(
                        "iter index {idx} out of order (expected {})",
                        iter_bests.len()
                    )));
                }
                let bits = tokens.next().ok_or_else(|| err("missing iter bits"))?;
                iter_bests.push(parse_bits(bits)?);
            }
            Some(other) => return Err(err(&format!("unknown record `{other}`"))),
            None => {}
        }
    }
    Ok(Trajectory {
        mapping: mapping.ok_or("fixture has no mapping record")?,
        final_cost: final_cost.ok_or("fixture has no final record")?,
        iter_bests,
    })
}

/// Render a trajectory diff the way `matchctl report` renders curves:
/// aligned rows, a `!` marker on the first divergence, and two rows of
/// context on either side.
fn render_diff(want: &Trajectory, got: &Trajectory) -> String {
    let mut out = String::new();
    if want.mapping != got.mapping {
        let _ = writeln!(
            out,
            "  mapping: expected {:?}, got {:?}",
            want.mapping, got.mapping
        );
    }
    if want.final_cost.to_bits() != got.final_cost.to_bits() {
        let _ = writeln!(
            out,
            "  final:   expected {} ({}), got {} ({})",
            want.final_cost,
            hex(want.final_cost),
            got.final_cost,
            hex(got.final_cost)
        );
    }
    let len = want.iter_bests.len().max(got.iter_bests.len());
    let first_div = (0..len).find(|&i| {
        want.iter_bests.get(i).map(|v| v.to_bits()) != got.iter_bests.get(i).map(|v| v.to_bits())
    });
    if let Some(d) = first_div {
        let _ = writeln!(
            out,
            "  trajectories diverge at iter {d} ({} expected iters, {} got):",
            want.iter_bests.len(),
            got.iter_bests.len()
        );
        let lo = d.saturating_sub(2);
        let hi = (d + 3).min(len);
        for i in lo..hi {
            let fmt = |v: Option<&f64>| match v {
                Some(v) => format!("{v} ({})", hex(*v)),
                None => "<absent>".to_string(),
            };
            let marker = if i == d { "!" } else { " " };
            let _ = writeln!(
                out,
                "  {marker} iter {i:>3}: expected {}, got {}",
                fmt(want.iter_bests.get(i)),
                fmt(got.iter_bests.get(i))
            );
        }
    }
    out
}

/// Where the committed fixtures live: `crates/verify/fixtures` when
/// running from the workspace root, otherwise the crate's own
/// `fixtures/` directory (tests, odd working directories).
pub fn default_fixture_dir() -> PathBuf {
    let from_root = Path::new("crates/verify/fixtures");
    if from_root.is_dir() {
        return from_root.to_path_buf();
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// Regenerate every fixture file under `dir`.
pub fn update_fixtures(dir: &Path) -> std::io::Result<Vec<String>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for spec in &FIXTURES {
        let path = dir.join(format!("{}.trace", spec.name));
        std::fs::write(&path, to_text(spec.name, &capture(spec)))?;
        written.push(path.display().to_string());
    }
    Ok(written)
}

/// Run the golden-trajectory checks against the fixtures under `dir`.
pub fn run_checks(dir: &Path) -> Vec<CheckResult> {
    FIXTURES
        .iter()
        .map(|spec| {
            let name = format!("golden/{}", spec.name);
            let path = dir.join(format!("{}.trace", spec.name));
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    return CheckResult::fail(
                        Pillar::Golden,
                        name,
                        format!(
                            "cannot read fixture {}: {e}\n  (run `matchctl verify --update-golden` to create it)",
                            path.display()
                        ),
                    )
                }
            };
            let want = match from_text(&text) {
                Ok(t) => t,
                Err(e) => {
                    return CheckResult::fail(
                        Pillar::Golden,
                        name,
                        format!("fixture {} is corrupt: {e}", path.display()),
                    )
                }
            };
            let bitwise_eq = |a: &Trajectory, b: &Trajectory| {
                a == b
                    && a.final_cost.to_bits() == b.final_cost.to_bits()
                    && a.iter_bests.len() == b.iter_bests.len()
                    && a.iter_bests
                        .iter()
                        .zip(&b.iter_bests)
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            };
            let got = capture(spec);
            if !bitwise_eq(&want, &got) {
                return CheckResult::fail(
                    Pillar::Golden,
                    name,
                    format!(
                        "trajectory drifted from {}:\n{}  if the stream change is intentional, \
                         regenerate with `matchctl verify --update-golden`",
                        path.display(),
                        render_diff(&want, &got)
                    ),
                );
            }
            // The same fixture re-run with the Simd backend forced must
            // land on the identical committed trajectory: backend choice
            // is throughput-only, never a stream change.
            let simd = capture_with_backend(spec, EvalBackend::Simd);
            if !bitwise_eq(&want, &simd) {
                return CheckResult::fail(
                    Pillar::Golden,
                    name,
                    format!(
                        "Simd backend diverged from the committed trajectory {} \
                         (the default backend reproduced it, so this is an eval-kernel bug, \
                         not a stream change):\n{}",
                        path.display(),
                        render_diff(&want, &simd)
                    ),
                );
            }
            CheckResult::pass(Pillar::Golden, name)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_roundtrips_bit_exactly() {
        let traj = Trajectory {
            mapping: vec![3, 0, 2, 1],
            final_cost: 0.1 + 0.2, // not representable tidily: bits matter
            iter_bests: vec![7.5, std::f64::consts::PI, 7.5],
        };
        let text = to_text("roundtrip", &traj);
        let back = from_text(&text).unwrap();
        assert_eq!(back.mapping, traj.mapping);
        assert_eq!(back.final_cost.to_bits(), traj.final_cost.to_bits());
        assert_eq!(back.iter_bests.len(), traj.iter_bests.len());
        for (a, b) in back.iter_bests.iter().zip(&traj.iter_bests) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn capture_is_deterministic_per_spec() {
        for spec in &FIXTURES[..2] {
            let a = capture(spec);
            let b = capture(spec);
            assert_eq!(a, b, "capture of {} must be reproducible", spec.name);
            assert!(
                !a.iter_bests.is_empty(),
                "{} recorded no iterations",
                spec.name
            );
            assert_eq!(a.final_cost.to_bits(), b.final_cost.to_bits());
        }
    }

    #[test]
    fn diff_pinpoints_first_divergence() {
        let want = Trajectory {
            mapping: vec![0, 1],
            final_cost: 1.0,
            iter_bests: vec![5.0, 4.0, 3.0, 2.0],
        };
        let mut got = want.clone();
        got.iter_bests[2] = 3.5;
        let diff = render_diff(&want, &got);
        assert!(diff.contains("diverge at iter 2"), "{diff}");
        assert!(diff.contains("! iter   2"), "{diff}");
    }

    #[test]
    fn committed_fixtures_match_current_streams() {
        // The same assertion `matchctl verify` makes, run as a plain
        // test so `cargo test` alone catches trajectory drift.
        let dir = default_fixture_dir();
        for check in run_checks(&dir) {
            assert!(check.passed, "{}: {}", check.name, check.details);
        }
    }

    #[test]
    fn corrupt_fixture_is_reported_not_panicked() {
        let dir = std::env::temp_dir().join("match-verify-golden-corrupt-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ce-sequential-n8.trace"), "garbage record\n").unwrap();
        let checks = run_checks(&dir);
        assert!(checks.iter().all(|c| !c.passed));
        assert!(checks[0].details.contains("corrupt") || checks[0].details.contains("unknown"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
