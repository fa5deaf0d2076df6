//! The `matchctl` subcommands.

use std::fmt::Write as _;

use crate::args::{Args, CliError};
use crate::mapping_io::{mapping_from_text, mapping_to_text};
use match_baselines::{
    FastMapScheme, GreedyMapper, HillClimber, PolishedMatcher, RandomSearch, RecursiveBisection,
    RoundRobin, SimulatedAnnealing,
};
use match_core::{
    analyze, bijective_lower_bound, CapacityModel, EvalBackend, IslandMatcher, Mapper,
    MapperOutcome, MappingInstance, MatchConfig, Matcher, MultilevelConfig, RemapConfig,
    SamplerMode,
};
use match_ga::{FastMapGa, GaConfig};
use match_graph::gen::large::LargeFamilyConfig;
use match_graph::gen::overset::OversetConfig;
use match_graph::gen::paper::PaperFamilyConfig;
use match_graph::gen::topology::{CapacitySpec, TopologyConfig, TopologyKind};
use match_graph::io::{from_text, to_dot, to_text};
use match_graph::{ResourceGraph, TaskGraph};
use match_multilevel::MultilevelMapper;
use match_serve::{Client, RemapRequest, Request, Response, ServeConfig, Server, SolveRequest};
use match_sim::{run_dynamic, DynamicConfig, SimConfig, SimMode, Simulator};
use match_telemetry::json::{push_f64, push_str};
use match_telemetry::{read_trace_file, JsonlRecorder, NullRecorder, TraceSummary};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The supported subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Generate an instance pair to text files.
    Gen,
    /// Print instance statistics.
    Info,
    /// Solve an instance with a chosen heuristic.
    Solve,
    /// Execute a mapping in the discrete-event simulator.
    Simulate,
    /// Summarise a JSONL solver trace.
    Report,
    /// Export an instance to Graphviz DOT.
    Dot,
    /// Run the mapping-service daemon.
    Serve,
    /// Run the consistent-hashing router over several daemons.
    Router,
    /// Submit work to a running daemon.
    Submit,
    /// Fetch one Prometheus metrics snapshot from a daemon.
    Metrics,
    /// Poll a daemon's metrics and render a live dashboard.
    Top,
    /// Run the differential/metamorphic/golden-trajectory harness.
    Verify,
    /// Print usage.
    Help,
}

impl Command {
    fn from_name(name: &str) -> Result<Command, CliError> {
        match name {
            "gen" => Ok(Command::Gen),
            "info" => Ok(Command::Info),
            "solve" => Ok(Command::Solve),
            "simulate" | "sim" => Ok(Command::Simulate),
            "report" => Ok(Command::Report),
            "dot" => Ok(Command::Dot),
            "serve" => Ok(Command::Serve),
            "router" => Ok(Command::Router),
            "submit" => Ok(Command::Submit),
            "metrics" => Ok(Command::Metrics),
            "top" => Ok(Command::Top),
            "verify" => Ok(Command::Verify),
            "help" | "--help" | "-h" => Ok(Command::Help),
            other => Err(CliError::UnknownCommand(other.to_string())),
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
matchctl — task mapping on heterogeneous platforms (MaTCH reproduction)

USAGE:
  matchctl gen      --size N [--family paper|overset|large
                    |grid|torus|fattree|dragonfly] [--seed S]
                    [--out-tig FILE] [--out-platform FILE] [--out-caps FILE]
  matchctl info     --tig FILE --platform FILE
  matchctl solve    --tig FILE --platform FILE [--algo ALGO] [--seed S] [--out FILE]
                    [--threads N] [--sampler auto|sequential|batched]
                    [--backend auto|scalar|simd]
                    [--coarsen-target N] [--refine-passes N]
                    [--caps FILE] [--cap-gamma G]
                    [--trace FILE.jsonl]
  matchctl simulate --tig FILE --platform FILE --mapping FILE
                    [--rounds N] [--blocking | --link] [--trace FILE.jsonl]
  matchctl simulate --tig FILE --platform FILE --dynamic
                    [--epochs N] [--events N] [--mu M] [--seed S]
                    [--trace FILE.jsonl]
  matchctl report   TRACE.jsonl [--gantt] [--request ID]
  matchctl report   --diff A.jsonl B.jsonl   (side-by-side comparison)
  matchctl dot      --tig FILE (or --platform FILE)
  matchctl serve    [--addr HOST:PORT] [--workers N] [--io-threads N]
                    [--queue-cap N] [--cache-cap N] [--trace FILE.jsonl]
                    [--addr-file FILE] [--metrics-addr HOST:PORT]
                    [--metrics-addr-file FILE] [--shard LABEL]
                    [--warm-alpha A] [--warm-store FILE] [--warm-cap N]
                    [--solver-threads N] [--drain-deadline-ms MS]
  matchctl router   --backends ADDR1,ADDR2,... [--addr HOST:PORT]
                    [--addr-file FILE] [--health-interval-ms MS]
  matchctl submit   [--addr HOST:PORT] --tig FILE --platform FILE
                    [--algo ALGO] [--seed S] [--deadline-ms MS] [--id ID]
                    [--backend auto|scalar|simd]
                    [--count N] [--concurrency C] [--trace-out FILE.jsonl]
                    [--remap-prior FILE [--mu N]]
  matchctl submit   [--addr HOST:PORT] --batch FILE   (lines: TIG PLATFORM
                    [ALGO [SEED [DEADLINE_MS]]])
  matchctl submit   [--addr HOST:PORT] --stats | --shutdown
  matchctl metrics  [--addr HOST:PORT | --http HOST:PORT]
  matchctl top      [--addr HOST:PORT] [--interval-ms MS] [--count N]
                    [--no-clear]
  matchctl verify   [--corpus smoke|ci|full] [--seed S] [--fixtures DIR]
                    [--update-golden]
  matchctl help

ALGO: match (default) | multilevel | islands | polish | ga | fastmap
      | bisect | greedy | hill | sa | random | roundrobin
      (--solver is accepted as an alias for --algo; so are the solver
       names fastmap-ga for ga and hillclimb for hill; --threads,
       --sampler and --backend apply to match and ga; --threads,
       --backend, --coarsen-target and --refine-passes apply to
       multilevel, which scales past n ≈ 50 by
       coarsening to paper scale, solving with batched CE and refining
       back up — use `gen --family large` for sparse large-n instances;
       submit also accepts match-batched | match-sequential | ga-batched
       | ga-sequential to pin the CE or GA generation pipeline
       daemon-side)

--trace streams per-iteration telemetry (JSONL, one event per line);
feed the file to `matchctl report` for a convergence summary.

`serve --warm-alpha A` (0 < A <= 1) warm-starts CE-family solves from a
persisted stochastic-matrix store keyed by graph *structure* (weights
quantized), seeding P = A*prior + (1-A)*uniform; --warm-store persists
the store across restarts (flushed and fsynced on drain). `router`
consistent-hashes each instance across the backends (bounded remap on
membership change, health-checked). `submit --count N --concurrency C`
expands the request into N jobs (seed base+i) pipelined over C
connections and prints throughput and latency percentiles; --trace-out
appends one JSONL record per response.

`gen --family grid|torus|fattree|dragonfly` builds a topology-aware
platform whose link costs grow monotonically with hop distance;
--out-caps also writes per-resource memory/bandwidth capacities, which
`solve --caps FILE --cap-gamma G` folds into the Eq. 1 objective as a
soft penalty (γ = 0 is bit-neutral; CE solver only). `simulate
--dynamic` streams task arrival/departure events and re-maps
incrementally after every batch (warm-started from the previous epoch,
refinement restricted to the changed subgraph); --mu weighs the
migration-cost term μ·|moved|. `submit --remap-prior FILE` sends one
`remap` request carrying the prior mapping so the daemon re-maps
incrementally instead of solving cold.

`metrics` prints one Prometheus text-format snapshot (over the JSONL
protocol by default, or scraped from the HTTP side port with --http);
`top` polls the same snapshot and renders queue/cache/latency series
with per-frame deltas (--count 0 polls until interrupted). A service
trace recorded with `serve --trace` carries per-request spans named
req:ID#SEQ:stage; `report --request ID` correlates them.
";

/// Run a parsed command line; returns the text to print.
pub fn run(args: &Args) -> Result<String, CliError> {
    match Command::from_name(&args.command)? {
        Command::Help => Ok(USAGE.to_string()),
        Command::Gen => cmd_gen(args),
        Command::Info => cmd_info(args),
        Command::Solve => cmd_solve(args),
        Command::Simulate => cmd_simulate(args),
        Command::Report => cmd_report(args),
        Command::Dot => cmd_dot(args),
        Command::Serve => cmd_serve(args),
        Command::Router => cmd_router(args),
        Command::Submit => cmd_submit(args),
        Command::Metrics => cmd_metrics(args),
        Command::Top => cmd_top(args),
        Command::Verify => cmd_verify(args),
    }
}

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("reading {path}: {e}")))
}

fn write(path: &str, content: &str) -> Result<(), CliError> {
    std::fs::write(path, content).map_err(|e| CliError::Io(format!("writing {path}: {e}")))
}

fn load_instance(args: &Args) -> Result<MappingInstance, CliError> {
    let tig_text = read(args.required("tig")?)?;
    let platform_text = read(args.required("platform")?)?;
    let tig = TaskGraph::new(
        from_text(&tig_text).map_err(|e| CliError::Io(format!("parsing TIG: {e}")))?,
    )
    .map_err(|e| CliError::Io(format!("invalid TIG: {e}")))?;
    let platform = ResourceGraph::new(
        from_text(&platform_text).map_err(|e| CliError::Io(format!("parsing platform: {e}")))?,
    )
    .map_err(|e| CliError::Io(format!("invalid platform: {e}")))?;
    Ok(MappingInstance::new(&tig, &platform))
}

fn cmd_gen(args: &Args) -> Result<String, CliError> {
    let size: usize = args.parse_or("size", 0)?;
    if size == 0 {
        return Err(CliError::MissingOption("size".into()));
    }
    let seed: u64 = args.parse_or("seed", 2005)?;
    let family = args.get_or("family", "paper");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut caps_note = String::new();
    let pair = match family {
        "paper" => PaperFamilyConfig::new(size).generate(&mut rng),
        "overset" => OversetConfig::new(size).generate(&mut rng),
        "large" => LargeFamilyConfig::new(size).generate(&mut rng),
        other => match TopologyKind::from_name(other) {
            Some(kind) => {
                let cfg = TopologyConfig::new(kind, size);
                let pair = cfg.generate(&mut rng);
                if let Some(path) = args.options.get("out-caps") {
                    write(path, &cfg.generate_caps(&mut rng).to_text())?;
                    caps_note = format!(", capacities -> {path}");
                }
                pair
            }
            None => return Err(CliError::BadValue("family".into(), other.into())),
        },
    };
    if args.options.contains_key("out-caps") && caps_note.is_empty() {
        // Capacities are a property of the topology families only.
        return Err(CliError::BadValue("out-caps".into(), family.into()));
    }
    let out_tig = args.get_or("out-tig", "tig.txt");
    let out_platform = args.get_or("out-platform", "platform.txt");
    write(out_tig, &to_text(pair.tig.graph()))?;
    write(out_platform, &to_text(pair.resources.graph()))?;
    Ok(format!(
        "generated {family} instance: {size} tasks -> {out_tig}, {size} resources -> {out_platform} (seed {seed}){caps_note}\n"
    ))
}

fn cmd_info(args: &Args) -> Result<String, CliError> {
    let inst = load_instance(args)?;
    let mut out = String::new();
    out.push_str(&format!(
        "tasks: {}   resources: {}   square: {}\n",
        inst.n_tasks(),
        inst.n_resources(),
        inst.is_square()
    ));
    let total_comp: f64 = (0..inst.n_tasks()).map(|t| inst.computation(t)).sum();
    let interactions = inst.adjacency_len() / 2;
    out.push_str(&format!(
        "total computation: {total_comp}   interactions: {interactions}\n"
    ));
    let tig_text = read(args.required("tig")?)?;
    if let Ok(g) = from_text(&tig_text) {
        let s = match_graph::metrics::summarize(&g);
        out.push_str(&format!(
            "TIG: diameter {}  density {:.3}  degrees {}..{} (mean {:.2})  components {}\n",
            s.diameter, s.density, s.min_degree, s.max_degree, s.mean_degree, s.components
        ));
    }
    out.push_str(&format!(
        "lower bound on ET (any mapping): {:.2}\n",
        match_core::lower_bound(&inst)
    ));
    if inst.is_square() {
        out.push_str(&format!(
            "lower bound on ET (bijective): {:.2}\n",
            bijective_lower_bound(&inst)
        ));
    }
    Ok(out)
}

/// The `--sampler auto|sequential|batched` option (CE solvers only).
fn sampler_mode(args: &Args) -> Result<SamplerMode, CliError> {
    Ok(match args.options.get("sampler").map(String::as_str) {
        None | Some("auto") => SamplerMode::Auto,
        Some("sequential") => SamplerMode::Sequential,
        Some("batched") => SamplerMode::Batched,
        Some(other) => return Err(CliError::BadValue("sampler".into(), other.into())),
    })
}

/// The `--backend auto|scalar|simd` option (batched pipelines only;
/// both kernels are bit-identical, so this is a throughput knob).
fn backend_mode(args: &Args) -> Result<EvalBackend, CliError> {
    match args.options.get("backend") {
        None => Ok(EvalBackend::Auto),
        Some(name) => EvalBackend::parse(name)
            .ok_or_else(|| CliError::BadValue("backend".into(), name.clone())),
    }
}

fn build_mapper(
    name: &str,
    threads: Option<usize>,
    sampler: SamplerMode,
    backend: EvalBackend,
    multilevel: MultilevelConfig,
) -> Result<Box<dyn Mapper>, CliError> {
    Ok(match name {
        "multilevel" => Box::new(MultilevelMapper::new(multilevel)),
        "match" => Box::new(Matcher::new(MatchConfig {
            threads: threads.unwrap_or_else(match_par::default_threads),
            sampler,
            backend,
            ..MatchConfig::default()
        })),
        "islands" => Box::new(IslandMatcher::default()),
        // The GA honours the same --threads/--sampler pair as `match`:
        // Auto resolves to the batched pipeline when threads > 1 and the
        // instance reaches SamplerMode::AUTO_BATCH_MIN_TASKS, and
        // `--sampler sequential` pins the historical per-individual loop
        // (bit-exact with pre-batching releases).
        "ga" | "fastmap-ga" => Box::new(FastMapGa::new(GaConfig {
            threads: threads.unwrap_or_else(match_par::default_threads),
            sampler,
            backend,
            ..GaConfig::paper_default()
        })),
        "greedy" => Box::new(GreedyMapper),
        "hill" | "hillclimb" => Box::new(HillClimber::default()),
        "sa" => Box::new(SimulatedAnnealing::default()),
        "random" => Box::new(RandomSearch::new(100_000)),
        "roundrobin" => Box::new(RoundRobin),
        "polish" => Box::new(PolishedMatcher::default()),
        "bisect" => Box::new(RecursiveBisection::default()),
        "fastmap" => Box::new(FastMapScheme::new(
            FastMapGa::new(GaConfig::paper_default()),
        )),
        other => return Err(CliError::BadValue("algo".into(), other.into())),
    })
}

/// The `--coarsen-target/--refine-passes` pair (multilevel solver only);
/// `--threads` is shared with the CE/GA solvers and reused here.
fn multilevel_config(
    args: &Args,
    threads: Option<usize>,
    backend: EvalBackend,
) -> Result<MultilevelConfig, CliError> {
    let defaults = MultilevelConfig::default();
    let coarsen_target: usize = args.parse_or("coarsen-target", defaults.coarsen_target)?;
    if coarsen_target < 2 {
        return Err(CliError::BadValue(
            "coarsen-target".into(),
            coarsen_target.to_string(),
        ));
    }
    Ok(MultilevelConfig {
        coarsen_target,
        refine_passes: args.parse_or("refine-passes", defaults.refine_passes)?,
        threads: threads.unwrap_or(defaults.threads),
        refine_candidates: defaults.refine_candidates,
        backend,
    })
}

/// The `--trace FILE` option; a bare `--trace` switch is an error.
fn trace_path(args: &Args) -> Result<Option<&str>, CliError> {
    match args.options.get("trace") {
        Some(p) => Ok(Some(p.as_str())),
        None if args.has_switch("trace") => Err(CliError::MissingOption("trace FILE".into())),
        None => Ok(None),
    }
}

fn cmd_solve(args: &Args) -> Result<String, CliError> {
    let inst = load_instance(args)?;
    // --solver is an alias for --algo (and wins when both are given).
    let algo = args
        .options
        .get("solver")
        .map(String::as_str)
        .unwrap_or_else(|| args.get_or("algo", "match"));
    let seed: u64 = args.parse_or("seed", 1)?;
    let threads = match args.options.get("threads") {
        Some(_) => {
            let t: usize = args.parse_or("threads", 1)?;
            if t == 0 {
                return Err(CliError::BadValue("threads".into(), "0".into()));
            }
            Some(t)
        }
        None => None,
    };
    let backend = backend_mode(args)?;
    // --caps FILE folds per-resource memory/bandwidth capacities into
    // the objective as a soft penalty weighted by --cap-gamma (γ = 0 is
    // bit-neutral). The capacitated objective lives on the CE solver.
    let caps = match args.options.get("caps") {
        None => None,
        Some(path) => {
            if algo != "match" {
                return Err(CliError::BadValue("caps".into(), algo.into()));
            }
            let gamma: f64 = args.parse_or("cap-gamma", 1.0)?;
            // γ = ∞ turns the zero overflow of a fitting sample into NaN.
            if !(gamma.is_finite() && gamma >= 0.0) {
                let raw = args.get_or("cap-gamma", "");
                return Err(CliError::BadValue("cap-gamma".into(), raw.into()));
            }
            let spec = CapacitySpec::from_text(&read(path)?)
                .map_err(|e| CliError::Io(format!("parsing {path}: {e}")))?;
            Some(CapacityModel::from_spec(&spec, gamma))
        }
    };
    let mapper = build_mapper(
        algo,
        threads,
        sampler_mode(args)?,
        backend,
        multilevel_config(args, threads, backend)?,
    )?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace_note = String::new();
    let out = if let Some(model) = &caps {
        let matcher = Matcher::new(MatchConfig {
            threads: threads.unwrap_or_else(match_par::default_threads),
            sampler: sampler_mode(args)?,
            backend,
            ..MatchConfig::default()
        });
        let o = match trace_path(args)? {
            Some(path) => {
                let mut rec = JsonlRecorder::create(std::path::Path::new(path))
                    .map_err(|e| CliError::Io(format!("creating {path}: {e}")))?;
                let o = matcher.run_capacitated_controlled(
                    &inst,
                    model,
                    &mut rng,
                    &mut rec,
                    &match_core::StopToken::never(),
                );
                let lines = rec.lines();
                rec.finish()
                    .map_err(|e| CliError::Io(format!("writing {path}: {e}")))?;
                trace_note = format!("trace: {lines} events -> {path}\n");
                o
            }
            None => matcher.run_capacitated(&inst, model, &mut rng),
        };
        MapperOutcome {
            mapping: o.mapping,
            cost: o.cost,
            evaluations: o.evaluations,
            iterations: o.iterations,
            elapsed: o.elapsed,
        }
    } else {
        match trace_path(args)? {
            Some(path) => {
                let mut rec = JsonlRecorder::create(std::path::Path::new(path))
                    .map_err(|e| CliError::Io(format!("creating {path}: {e}")))?;
                let out = mapper.map_traced(&inst, &mut rng, &mut rec);
                let lines = rec.lines();
                rec.finish()
                    .map_err(|e| CliError::Io(format!("writing {path}: {e}")))?;
                trace_note = format!("trace: {lines} events -> {path}\n");
                out
            }
            None => mapper.map(&inst, &mut rng),
        }
    };
    out.mapping
        .validate(&inst)
        .map_err(|e| CliError::Io(format!("{algo} produced an invalid mapping: {e}")))?;
    let q = analyze(&inst, out.mapping.as_slice());
    let mut text = format!(
        "{}: ET = {:.2} units, MT = {:.3}s, {} evaluations, {} iterations\n\
         load imbalance: {:.3}   bottleneck comm fraction: {:.1}%\n",
        mapper.name(),
        out.cost,
        out.elapsed.as_secs_f64(),
        out.evaluations,
        out.iterations,
        q.imbalance,
        100.0 * q.comm_fraction_bottleneck,
    );
    if inst.is_square() {
        let lb = bijective_lower_bound(&inst);
        if lb > 0.0 {
            text.push_str(&format!(
                "optimality gap vs lower bound: {:.2}x\n",
                out.cost / lb
            ));
        }
    }
    if let Some(path) = args.options.get("out") {
        write(path, &mapping_to_text(&out.mapping))?;
        text.push_str(&format!("mapping written to {path}\n"));
    }
    text.push_str(&trace_note);
    Ok(text)
}

fn cmd_simulate(args: &Args) -> Result<String, CliError> {
    let inst = load_instance(args)?;
    if args.has_switch("dynamic") {
        return simulate_dynamic(args, &inst);
    }
    let mapping = mapping_from_text(&read(args.required("mapping")?)?).map_err(CliError::Io)?;
    mapping
        .validate(&inst)
        .map_err(|e| CliError::Io(format!("mapping does not fit the instance: {e}")))?;
    let rounds: usize = args.parse_or("rounds", 1)?;
    let mode = if args.has_switch("link") {
        SimMode::LinkContention
    } else if args.has_switch("blocking") {
        SimMode::BlockingReceives
    } else {
        SimMode::PaperSerial
    };
    let sim = Simulator::new(
        &inst,
        SimConfig {
            rounds,
            mode,
            trace: false,
        },
    );
    let mut trace_note = String::new();
    let rep = match trace_path(args)? {
        Some(path) => {
            let mut rec = JsonlRecorder::create(std::path::Path::new(path))
                .map_err(|e| CliError::Io(format!("creating {path}: {e}")))?;
            let rep = sim.run_traced(&mapping, &mut rec);
            let lines = rec.lines();
            rec.finish()
                .map_err(|e| CliError::Io(format!("writing {path}: {e}")))?;
            trace_note = format!("trace: {lines} events -> {path}\n");
            rep
        }
        None => sim.run_traced(&mapping, &mut NullRecorder),
    };
    let mut text = format!(
        "simulated {rounds} round(s), mode {mode:?}\nmakespan: {:.2} units   events: {} (peak queue {})\n",
        rep.makespan, rep.events, rep.peak_queue_depth
    );
    text.push_str(&format!(
        "mean utilisation: {:.1}%\n",
        100.0 * rep.mean_utilization()
    ));
    for (s, b) in rep.busy.iter().enumerate() {
        text.push_str(&format!("  resource {s}: busy {b:.2}\n"));
    }
    text.push_str(&trace_note);
    Ok(text)
}

/// `simulate --dynamic`: stream task arrival/departure events over the
/// instance and re-map incrementally after each batch, warm-starting
/// from the previous epoch's mapping with refinement restricted to the
/// changed subgraph. `--mu` weighs the migration-cost term μ·|moved|.
fn simulate_dynamic(args: &Args, inst: &MappingInstance) -> Result<String, CliError> {
    let epochs: usize = args.parse_or("epochs", 5)?;
    if epochs == 0 {
        return Err(CliError::BadValue("epochs".into(), "0".into()));
    }
    let events: usize = args.parse_or("events", 3)?;
    let mu: f64 = args.parse_or("mu", 0.0)?;
    if !mu.is_finite() || mu < 0.0 {
        return Err(CliError::BadValue("mu".into(), mu.to_string()));
    }
    let seed: u64 = args.parse_or("seed", 1)?;
    let cfg = DynamicConfig {
        epochs,
        events_per_epoch: events,
        remap: RemapConfig {
            mu,
            ..RemapConfig::default()
        },
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace_note = String::new();
    let rep = match trace_path(args)? {
        Some(path) => {
            let mut rec = JsonlRecorder::create(std::path::Path::new(path))
                .map_err(|e| CliError::Io(format!("creating {path}: {e}")))?;
            let rep = run_dynamic(inst, &cfg, &mut rng, &mut rec);
            let lines = rec.lines();
            rec.finish()
                .map_err(|e| CliError::Io(format!("writing {path}: {e}")))?;
            trace_note = format!("trace: {lines} events -> {path}\n");
            rep
        }
        None => run_dynamic(inst, &cfg, &mut rng, &mut NullRecorder),
    };
    let mut text = format!(
        "dynamic workload: {} tasks, {epochs} epoch(s), {events} event(s)/epoch, mu = {mu}\n",
        inst.n_tasks()
    );
    for ep in &rep.epochs {
        let o = &ep.outcome;
        text.push_str(&format!(
            "  epoch {}: {} events, {} tasks changed, {} active | ET {:.2} + migration {:.2} \
             = {:.2} ({} moved, {}, {} evaluations)\n",
            ep.epoch,
            ep.events,
            ep.changed,
            ep.active,
            o.cost,
            o.migration_cost,
            o.total,
            o.migrated,
            if o.warm { "warm" } else { "cold" },
            o.evaluations,
        ));
    }
    text.push_str(&format!("total migrations: {}\n", rep.total_migrations()));
    text.push_str(&trace_note);
    Ok(text)
}

/// Read a JSONL trace and summarise it, with path context on errors.
fn load_summary(path: &str) -> Result<TraceSummary, CliError> {
    let events = read_trace_file(std::path::Path::new(path))
        .map_err(|e| CliError::Io(format!("reading {path}: {e}")))?;
    if events.is_empty() {
        return Err(CliError::Io(format!("{path}: trace contains no events")));
    }
    Ok(TraceSummary::from_events(&events))
}

fn cmd_report(args: &Args) -> Result<String, CliError> {
    // `--diff A.jsonl B.jsonl` renders two traces side by side; the
    // first file is the option value, the second the next positional.
    if args.has_switch("diff") {
        return Err(CliError::MissingOption("diff A.jsonl B.jsonl".into()));
    }
    if let Some(a_path) = args.options.get("diff") {
        let b_path = args
            .positionals
            .first()
            .map(String::as_str)
            .ok_or_else(|| CliError::MissingOption("second trace for --diff".into()))?;
        let a = load_summary(a_path)?;
        let b = load_summary(b_path)?;
        return Ok(match_telemetry::render_diff(&a, a_path, &b, b_path));
    }
    // Path comes as a positional (`matchctl report out.jsonl`) or via
    // `--trace` for symmetry with solve/simulate.
    let path = match args.positionals.first().map(String::as_str) {
        Some(p) => p,
        None => trace_path(args)?
            .ok_or_else(|| CliError::MissingOption("trace file argument".into()))?,
    };
    let events = read_trace_file(std::path::Path::new(path))
        .map_err(|e| CliError::Io(format!("reading {path}: {e}")))?;
    if events.is_empty() {
        return Err(CliError::Io(format!("{path}: trace contains no events")));
    }
    if args.has_switch("request") {
        return Err(CliError::MissingOption("request ID".into()));
    }
    if let Some(wanted) = args.options.get("request") {
        return render_request_report(path, &events, wanted);
    }
    let mut text = TraceSummary::from_events(&events).render();
    if args.has_switch("gantt") {
        match match_viz::trace_gantt(&events, 72, "\nschedule timeline (█ busy, ▒ idle):") {
            Some(chart) => text.push_str(&chart),
            None => text.push_str("\n(no schedule spans in this trace — run `matchctl simulate --trace` to record one)\n"),
        }
    }
    Ok(text)
}

/// `report --request ID`: correlate the per-request spans that
/// `match-serve --trace` records as `req:ID#SEQ:stage`. `ID` may be
/// the full trace id (`alpha#0`) or just the job id (`alpha`).
fn render_request_report(
    path: &str,
    events: &[match_telemetry::Event],
    wanted: &str,
) -> Result<String, CliError> {
    let mut by_tid: std::collections::BTreeMap<String, Vec<(String, u64)>> = Default::default();
    for e in events {
        if let match_telemetry::Event::Span(s) = e {
            if let Some(rest) = s.name.strip_prefix("req:") {
                if let Some((tid, stage)) = rest.rsplit_once(':') {
                    by_tid
                        .entry(tid.to_string())
                        .or_default()
                        .push((stage.to_string(), s.wall_ns));
                }
            }
        }
    }
    if by_tid.is_empty() {
        return Err(CliError::Io(format!(
            "{path}: no request-scoped spans (req:ID#SEQ:stage) — record a \
             service trace with `matchctl serve --trace FILE.jsonl`"
        )));
    }
    let hits: Vec<(&String, &Vec<(String, u64)>)> = by_tid
        .iter()
        .filter(|(tid, _)| *tid == wanted || tid.starts_with(&format!("{wanted}#")))
        .collect();
    if hits.is_empty() {
        let known: Vec<&str> = by_tid.keys().take(8).map(String::as_str).collect();
        return Err(CliError::Io(format!(
            "{path}: no request matches {wanted:?}; trace ids include {}",
            known.join(", ")
        )));
    }
    let mut out = format!("requests matching {wanted:?} in {path}:\n");
    for (tid, stages) in hits {
        let total: u64 = stages.iter().map(|(_, ns)| *ns).sum();
        out.push_str(&format!("  {tid}  (total {:.3}ms)\n", total as f64 / 1e6));
        for (stage, ns) in stages {
            out.push_str(&format!("    {stage:<12} {:>10.3}ms\n", *ns as f64 / 1e6));
        }
    }
    Ok(out)
}

fn cmd_dot(args: &Args) -> Result<String, CliError> {
    if let Some(path) = args.options.get("tig") {
        let g = from_text(&read(path)?).map_err(|e| CliError::Io(format!("parsing: {e}")))?;
        Ok(to_dot(&g, "tig"))
    } else if let Some(path) = args.options.get("platform") {
        let g = from_text(&read(path)?).map_err(|e| CliError::Io(format!("parsing: {e}")))?;
        Ok(to_dot(&g, "platform"))
    } else {
        Err(CliError::MissingOption("tig (or platform)".into()))
    }
}

fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let defaults = ServeConfig::default();
    let warm_alpha: f64 = args.parse_or("warm-alpha", defaults.warm_alpha)?;
    if !(0.0..=1.0).contains(&warm_alpha) {
        return Err(CliError::BadValue(
            "warm-alpha".into(),
            warm_alpha.to_string(),
        ));
    }
    let solver_threads = match args.options.get("solver-threads") {
        Some(_) => {
            let t: usize = args.parse_or("solver-threads", 1)?;
            if t == 0 {
                return Err(CliError::BadValue("solver-threads".into(), "0".into()));
            }
            Some(t)
        }
        None => None,
    };
    let drain_deadline = match args.options.get("drain-deadline-ms") {
        Some(_) => Some(std::time::Duration::from_millis(
            args.parse_or("drain-deadline-ms", 0)?,
        )),
        None => None,
    };
    let config = ServeConfig {
        addr: args.get_or("addr", &defaults.addr).to_string(),
        workers: args.parse_or("workers", defaults.workers)?,
        io_threads: args.parse_or("io-threads", defaults.io_threads)?,
        queue_cap: args.parse_or("queue-cap", defaults.queue_cap)?,
        cache_cap: args.parse_or("cache-cap", defaults.cache_cap)?,
        trace: trace_path(args)?.map(std::path::PathBuf::from),
        metrics_addr: args.options.get("metrics-addr").cloned(),
        shard: args.get_or("shard", &defaults.shard).to_string(),
        warm_alpha,
        warm_store: args.options.get("warm-store").map(std::path::PathBuf::from),
        warm_cap: args.parse_or("warm-cap", defaults.warm_cap)?,
        solver_threads,
        drain_deadline,
    };
    let trace_file = config.trace.clone();
    let handle = Server::start(config.clone())
        .map_err(|e| CliError::Io(format!("starting server on {}: {e}", config.addr)))?;
    let addr = handle.local_addr();
    // `:0` binds an ephemeral port; scripts discover it via --addr-file.
    if let Some(path) = args.options.get("addr-file") {
        write(path, &format!("{addr}\n"))?;
    }
    if let Some(path) = args.options.get("metrics-addr-file") {
        match handle.metrics_addr() {
            Some(maddr) => write(path, &format!("{maddr}\n"))?,
            None => {
                return Err(CliError::MissingOption(
                    "metrics-addr (required by --metrics-addr-file)".into(),
                ))
            }
        }
    }
    // Announce readiness on stdout immediately: `run` only prints its
    // return value, and the daemon blocks here until a client sends
    // `shutdown`.
    let metrics_note = match handle.metrics_addr() {
        Some(maddr) => format!(", metrics on http://{maddr}/metrics"),
        None => String::new(),
    };
    let warm_note = if config.warm_alpha > 0.0 {
        format!(", warm starts at alpha {}", config.warm_alpha)
    } else {
        String::new()
    };
    println!(
        "match-serve listening on {addr} (shard {}, {} workers, {} io threads, queue cap {}, \
         cache cap {}{warm_note}{metrics_note})",
        config.shard, config.workers, config.io_threads, config.queue_cap, config.cache_cap
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let summary = handle
        .wait()
        .map_err(|e| CliError::Io(format!("shutting down: {e}")))?;
    let s = &summary.stats;
    let mut text = format!(
        "match-serve stopped after {:.1}s: {} jobs ({} cache hits, {} misses, {} warm hits), \
         {} rejected, {} cancelled\n",
        summary.wall.as_secs_f64(),
        s.jobs,
        s.cache_hits,
        s.cache_misses,
        summary.warm_hits,
        s.rejected,
        s.cancelled,
    );
    if let (Some(lines), Some(path)) = (summary.trace_lines, trace_file) {
        text.push_str(&format!("trace: {lines} events -> {}\n", path.display()));
    }
    Ok(text)
}

fn cmd_router(args: &Args) -> Result<String, CliError> {
    let defaults = match_serve::RouterConfig::default();
    let backends: Vec<String> = args
        .required("backends")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if backends.is_empty() {
        return Err(CliError::MissingOption("backends".into()));
    }
    let config = match_serve::RouterConfig {
        addr: args.get_or("addr", &defaults.addr).to_string(),
        backends,
        health_interval: std::time::Duration::from_millis(
            args.parse_or("health-interval-ms", 500)?,
        ),
    };
    let n_backends = config.backends.len();
    let handle = match_serve::Router::start(config.clone())
        .map_err(|e| CliError::Io(format!("starting router on {}: {e}", config.addr)))?;
    let addr = handle.local_addr();
    if let Some(path) = args.options.get("addr-file") {
        write(path, &format!("{addr}\n"))?;
    }
    let up = handle.healthy().iter().filter(|&&h| h).count();
    println!(
        "matchctl router listening on {addr} ({up}/{n_backends} backends healthy: {})",
        config.backends.join(", ")
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let summary = handle
        .wait()
        .map_err(|e| CliError::Io(format!("shutting down router: {e}")))?;
    Ok(format!(
        "router stopped after {:.1}s: {} solves routed, {} errors\n",
        summary.wall.as_secs_f64(),
        summary.routed,
        summary.errors,
    ))
}

/// Render one daemon response as user-facing text.
fn format_response(resp: &Response) -> String {
    match resp {
        Response::Solved(r) => {
            let mut flags = String::new();
            if r.cached {
                flags.push_str(" [cached]");
            }
            if r.cancelled {
                flags.push_str(" [cancelled]");
            }
            if r.warm {
                flags.push_str(&format!(" [warm, saved {} iters]", r.iterations_saved));
            }
            if r.migrated_tasks > 0 {
                flags.push_str(&format!(" [migrated {}]", r.migrated_tasks));
            }
            let mapping = r
                .mapping
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(" ");
            format!(
                "{}: {} ET = {:.2} units (seed {}, backend {}, {} evaluations, wait {:.1}ms, \
                 solve {:.1}ms){flags}\n  mapping: {mapping}\n",
                r.id,
                r.algo,
                r.cost,
                r.seed,
                r.backend,
                r.evaluations,
                r.queue_wait_ns as f64 / 1e6,
                r.solve_ns as f64 / 1e6,
            )
        }
        Response::Rejected {
            id,
            queue_depth,
            queue_cap,
        } => format!("{id}: rejected — queue full ({queue_depth}/{queue_cap})\n"),
        Response::Error { id, error } if id.is_empty() => format!("error: {error}\n"),
        Response::Error { id, error } => format!("{id}: error — {error}\n"),
        Response::Stats(s) => format!(
            "jobs: {} (cache {} hits / {} misses)   rejected: {}   cancelled: {}\n\
             queue: {}/{}   workers: {}\n",
            s.jobs,
            s.cache_hits,
            s.cache_misses,
            s.rejected,
            s.cancelled,
            s.queue_depth,
            s.queue_cap,
            s.workers,
        ),
        Response::Metrics { text } => text.clone(),
        Response::Bye => "server acknowledged shutdown\n".to_string(),
    }
}

/// Build the solve requests for `matchctl submit`: either one from
/// `--tig/--platform`, or one per line of `--batch FILE`.
fn submit_requests(args: &Args) -> Result<Vec<SolveRequest>, CliError> {
    let default_algo = args
        .options
        .get("solver")
        .map(String::as_str)
        .unwrap_or_else(|| args.get_or("algo", "match"));
    let default_seed: u64 = args.parse_or("seed", 1)?;
    let deadline_ms: Option<u64> = match args.options.get("deadline-ms") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| CliError::BadValue("deadline-ms".into(), v.clone()))?,
        ),
    };
    // Validate client-side so a typo fails before anything is sent; the
    // daemon re-validates at admission.
    let backend: Option<String> = match args.options.get("backend") {
        None => None,
        Some(name) => {
            EvalBackend::parse(name)
                .ok_or_else(|| CliError::BadValue("backend".into(), name.clone()))?;
            Some(name.clone())
        }
    };
    if let Some(batch) = args.options.get("batch") {
        let mut reqs = Vec::new();
        for (lineno, line) in read(batch)?.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() < 2 {
                return Err(CliError::Io(format!(
                    "{batch}:{}: expected `TIG PLATFORM [ALGO [SEED [DEADLINE_MS]]]`",
                    lineno + 1
                )));
            }
            let parse_u64 = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| CliError::Io(format!("{batch}:{}: bad number {v:?}", lineno + 1)))
            };
            reqs.push(SolveRequest {
                id: format!("job-{}", reqs.len()),
                algo: fields.get(2).unwrap_or(&default_algo).to_string(),
                seed: match fields.get(3) {
                    Some(v) => parse_u64(v)?,
                    None => default_seed,
                },
                deadline_ms: match fields.get(4) {
                    Some(v) => Some(parse_u64(v)?),
                    None => deadline_ms,
                },
                backend: backend.clone(),
                tig: read(fields[0])?,
                platform: read(fields[1])?,
            });
        }
        if reqs.is_empty() {
            return Err(CliError::Io(format!("{batch}: no requests in batch file")));
        }
        Ok(reqs)
    } else {
        Ok(vec![SolveRequest {
            id: args.get_or("id", "job-0").to_string(),
            algo: default_algo.to_string(),
            seed: default_seed,
            deadline_ms,
            backend,
            tig: read(args.required("tig")?)?,
            platform: read(args.required("platform")?)?,
        }])
    }
}

/// The id a daemon response carries, for submission-order sorting.
fn response_id(resp: &Response) -> &str {
    match resp {
        Response::Solved(s) => s.id.as_str(),
        Response::Rejected { id, .. } | Response::Error { id, .. } => id.as_str(),
        _ => "",
    }
}

/// One JSONL record per response for `submit --trace-out`.
fn response_trace_line(resp: &Response) -> String {
    let mut s = String::from("{\"id\":");
    match resp {
        Response::Solved(r) => {
            push_str(&mut s, &r.id);
            s.push_str(",\"algo\":");
            push_str(&mut s, &r.algo);
            let _ = write!(s, ",\"seed\":{},\"cost\":", r.seed);
            push_f64(&mut s, r.cost);
            let _ = write!(
                s,
                ",\"cached\":{},\"warm\":{},\"iterations\":{},\"iterations_saved\":{},\
                 \"evaluations\":{},\"queue_wait_ns\":{},\"solve_ns\":{}}}",
                r.cached,
                r.warm,
                r.iterations,
                r.iterations_saved,
                r.evaluations,
                r.queue_wait_ns,
                r.solve_ns,
            );
        }
        Response::Rejected { id, .. } => {
            push_str(&mut s, id);
            s.push_str(",\"rejected\":true}");
        }
        Response::Error { id, error } => {
            push_str(&mut s, id);
            s.push_str(",\"error\":");
            push_str(&mut s, error);
            s.push('}');
        }
        _ => return "{}".to_string(),
    }
    s
}

/// Pipeline `reqs` over `concurrency` connections (round-robin), each
/// sending its share up front and then draining the replies.
fn submit_concurrent(
    addr: &str,
    reqs: &[SolveRequest],
    concurrency: usize,
) -> Result<Vec<Response>, CliError> {
    let lanes = concurrency.min(reqs.len()).max(1);
    let chunks: Vec<Vec<SolveRequest>> = (0..lanes)
        .map(|lane| {
            reqs.iter()
                .skip(lane)
                .step_by(lanes)
                .cloned()
                .collect::<Vec<_>>()
        })
        .collect();
    let workers: Vec<_> = chunks
        .into_iter()
        .map(|chunk| {
            let addr = addr.to_string();
            std::thread::spawn(move || -> std::io::Result<Vec<Response>> {
                let mut client = Client::connect(&addr)?;
                for req in &chunk {
                    client.send(&Request::Solve(req.clone()))?;
                }
                (0..chunk.len()).map(|_| client.recv()).collect()
            })
        })
        .collect();
    let mut resps = Vec::with_capacity(reqs.len());
    for worker in workers {
        let lane = worker
            .join()
            .map_err(|_| CliError::Io("submit worker panicked".into()))?
            .map_err(|e| CliError::Io(format!("talking to {addr}: {e}")))?;
        resps.extend(lane);
    }
    Ok(resps)
}

fn cmd_submit(args: &Args) -> Result<String, CliError> {
    let addr = args.get_or("addr", "127.0.0.1:7117");
    let mut client =
        Client::connect(addr).map_err(|e| CliError::Io(format!("connecting to {addr}: {e}")))?;
    let net = |e: std::io::Error| CliError::Io(format!("talking to {addr}: {e}"));
    let mut out = String::new();
    let solving = args.options.contains_key("tig") || args.options.contains_key("batch");
    if let Some(prior_path) = args.options.get("remap-prior") {
        // One incremental re-map: wrap the single solve request with the
        // prior mapping and the migration weight μ.
        let mut base = submit_requests(args)?;
        if base.len() != 1 {
            return Err(CliError::BadValue(
                "remap-prior".into(),
                "re-mapping takes a single --tig/--platform request".into(),
            ));
        }
        let prior = mapping_from_text(&read(prior_path)?).map_err(CliError::Io)?;
        let mu: u64 = args.parse_or("mu", 0)?;
        let resp = client
            .call(&Request::Remap(RemapRequest {
                solve: base.pop().expect("one request"),
                prior: prior.as_slice().to_vec(),
                mu,
            }))
            .map_err(net)?;
        out.push_str(&format_response(&resp));
    } else if solving {
        let count: u64 = args.parse_or("count", 1)?;
        let concurrency: usize = args.parse_or("concurrency", 1)?;
        if count == 0 {
            return Err(CliError::BadValue("count".into(), "0".into()));
        }
        if concurrency == 0 {
            return Err(CliError::BadValue("concurrency".into(), "0".into()));
        }
        let base = submit_requests(args)?;
        // --count N cycles the base request(s) with distinct seeds and
        // suffixed ids, so every job is real solver work.
        let reqs: Vec<SolveRequest> = if count > 1 {
            (0..count)
                .map(|i| {
                    let template = &base[(i % base.len() as u64) as usize];
                    let mut req = template.clone();
                    req.id = format!("{}-{i}", template.id);
                    req.seed = template.seed.wrapping_add(i);
                    req
                })
                .collect()
        } else {
            base
        };
        let started = std::time::Instant::now();
        let mut resps = if concurrency > 1 {
            submit_concurrent(addr, &reqs, concurrency)?
        } else {
            // Pipeline on the single connection: send everything, then
            // drain the same number of responses.
            for req in &reqs {
                client.send(&Request::Solve(req.clone())).map_err(net)?;
            }
            (0..reqs.len())
                .map(|_| client.recv().map_err(net))
                .collect::<Result<Vec<_>, _>>()?
        };
        let wall = started.elapsed();
        // The daemon replies out of completion order, so re-sort by
        // submission order for stable output.
        let order: std::collections::HashMap<&str, usize> = reqs
            .iter()
            .enumerate()
            .map(|(i, r)| (r.id.as_str(), i))
            .collect();
        resps.sort_by_key(|r| order.get(response_id(r)).copied().unwrap_or(usize::MAX));
        if let Some(path) = args.options.get("trace-out") {
            let lines: String = resps
                .iter()
                .map(|r| response_trace_line(r) + "\n")
                .collect();
            write(path, &lines)?;
        }
        // Per-response lines stay readable for small batches; large
        // batches report in aggregate only.
        if resps.len() <= 16 {
            for resp in &resps {
                out.push_str(&format_response(resp));
            }
        }
        if count > 1 || concurrency > 1 {
            let mut solved = 0u64;
            let mut rejected = 0u64;
            let mut errors = 0u64;
            let mut warm = 0u64;
            let mut cached = 0u64;
            let mut solve_ns: Vec<u64> = Vec::new();
            for resp in &resps {
                match resp {
                    Response::Solved(r) => {
                        solved += 1;
                        if r.warm {
                            warm += 1;
                        }
                        if r.cached {
                            cached += 1;
                        }
                        solve_ns.push(r.solve_ns);
                    }
                    Response::Rejected { .. } => rejected += 1,
                    _ => errors += 1,
                }
            }
            solve_ns.sort_unstable();
            let pct = |p: f64| -> f64 {
                if solve_ns.is_empty() {
                    return 0.0;
                }
                let idx = ((solve_ns.len() - 1) as f64 * p).round() as usize;
                solve_ns[idx] as f64 / 1e6
            };
            out.push_str(&format!(
                "{} requests over {} connection(s) in {:.2}s ({:.1} req/s): \
                 {solved} solved ({cached} cached, {warm} warm), {rejected} rejected, \
                 {errors} errors\nsolve latency: p50 {:.2}ms  p99 {:.2}ms\n",
                resps.len(),
                concurrency,
                wall.as_secs_f64(),
                resps.len() as f64 / wall.as_secs_f64().max(1e-9),
                pct(0.5),
                pct(0.99),
            ));
        }
    }
    if args.has_switch("stats") {
        out.push_str(&format_response(&client.stats().map_err(net)?));
    }
    if args.has_switch("shutdown") {
        out.push_str(&format_response(&client.shutdown().map_err(net)?));
    }
    if out.is_empty() {
        return Err(CliError::MissingOption(
            "tig/--batch (or --stats / --shutdown)".into(),
        ));
    }
    Ok(out)
}

/// One Prometheus snapshot: over the JSONL protocol (`--addr`, the
/// default), or scraped from the HTTP side port (`--http HOST:PORT`)
/// exactly as an external collector would.
fn cmd_metrics(args: &Args) -> Result<String, CliError> {
    if let Some(http_addr) = args.options.get("http") {
        return match_serve::http_get(http_addr, "/metrics")
            .map_err(|e| CliError::Io(format!("scraping http://{http_addr}/metrics: {e}")));
    }
    let addr = args.get_or("addr", "127.0.0.1:7117");
    let mut client =
        Client::connect(addr).map_err(|e| CliError::Io(format!("connecting to {addr}: {e}")))?;
    match client
        .metrics()
        .map_err(|e| CliError::Io(format!("talking to {addr}: {e}")))?
    {
        Response::Metrics { text } => Ok(text),
        other => Err(CliError::Io(format!(
            "unexpected reply to metrics request: {}",
            format_response(&other).trim_end()
        ))),
    }
}

/// Parse Prometheus text exposition into `series -> value`, keyed by
/// `name{labels}` exactly as rendered (comments and blanks skipped).
fn parse_exposition(text: &str) -> std::collections::BTreeMap<String, f64> {
    let mut series = std::collections::BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Label values never contain spaces (our renderer escapes
        // nothing that introduces one), so the value is the last field.
        if let Some((key, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.parse::<f64>() {
                series.insert(key.to_string(), v);
            }
        }
    }
    series
}

/// Split `name{...,quantile="Q"}` into the series without the quantile
/// label and `Q`; `None` for non-quantile series. The renderer always
/// appends `quantile` after the user labels, so it is the last label.
fn split_quantile(series: &str) -> Option<(String, String)> {
    let i = series.find("quantile=\"")?;
    let q = series[i + 10..].split('"').next()?.to_string();
    let mut base = series[..i].to_string();
    if base.ends_with(',') {
        base.pop();
        base.push('}');
    } else if base.ends_with('{') {
        base.pop();
    }
    Some((base, q))
}

/// Render one `top` frame: gauges, latency summaries, counters (with
/// per-frame deltas once a previous frame exists).
fn render_top_frame(
    addr: &str,
    frame: u64,
    interval_ms: u64,
    cur: &std::collections::BTreeMap<String, f64>,
    prev: Option<&std::collections::BTreeMap<String, f64>>,
) -> String {
    let mut gauges: Vec<(&str, f64)> = Vec::new();
    let mut counters: Vec<(&str, f64)> = Vec::new();
    // base series -> [(quantile, value)]
    let mut latency: std::collections::BTreeMap<String, Vec<(String, f64)>> = Default::default();
    for (key, &v) in cur {
        if let Some((base, q)) = split_quantile(key) {
            latency.entry(base).or_default().push((q, v));
        } else if key.contains("_total") {
            counters.push((key, v));
        } else if !key.contains("_sum") && !key.contains("_count") {
            gauges.push((key, v));
        }
    }
    let mut out = format!("match-serve top — {addr} (frame {frame}, every {interval_ms}ms)\n");
    if !gauges.is_empty() {
        out.push_str("  gauges:\n");
        for (key, v) in gauges {
            out.push_str(&format!("    {key:<44} {v:>12}\n"));
        }
    }
    if !latency.is_empty() {
        out.push_str("  latency (ms):\n");
        for (base, qs) in &latency {
            // `name{labels}` -> `name_count{labels}` for the sample count.
            let count_key = match base.find('{') {
                Some(i) => format!("{}_count{}", &base[..i], &base[i..]),
                None => format!("{base}_count"),
            };
            let n = cur.get(&count_key).copied().unwrap_or(0.0);
            let fmt = |q: &str| {
                qs.iter()
                    .find(|(quant, _)| quant == q)
                    .map(|(_, v)| format!("{:.3}", v / 1e6))
                    .unwrap_or_else(|| "-".into())
            };
            out.push_str(&format!(
                "    {base:<44} p50 {} / p90 {} / p99 {}  (n={n})\n",
                fmt("0.5"),
                fmt("0.9"),
                fmt("0.99"),
            ));
        }
    }
    if !counters.is_empty() {
        out.push_str("  counters (total, Δ/frame):\n");
        for (key, v) in counters {
            match prev.and_then(|p| p.get(key)) {
                Some(old) => out.push_str(&format!("    {key:<44} {v:>12} {:>+8}\n", v - old)),
                None => out.push_str(&format!("    {key:<44} {v:>12}\n")),
            }
        }
    }
    out
}

/// Poll a daemon's metrics snapshot and render frames until `--count`
/// frames are shown (0 = until interrupted or the daemon goes away).
/// All frames but the last print directly (preceded by a clear-screen
/// escape unless `--no-clear`); the last is returned like any command.
fn cmd_top(args: &Args) -> Result<String, CliError> {
    let addr = args.get_or("addr", "127.0.0.1:7117");
    let interval_ms: u64 = args.parse_or("interval-ms", 1000)?;
    let count: u64 = args.parse_or("count", 0)?;
    let clear = !args.has_switch("no-clear");
    let mut client =
        Client::connect(addr).map_err(|e| CliError::Io(format!("connecting to {addr}: {e}")))?;
    let net = |e: std::io::Error| CliError::Io(format!("talking to {addr}: {e}"));
    let mut prev: Option<std::collections::BTreeMap<String, f64>> = None;
    let mut frame = 0u64;
    loop {
        frame += 1;
        let text = match client.metrics().map_err(net)? {
            Response::Metrics { text } => text,
            other => {
                return Err(CliError::Io(format!(
                    "unexpected reply to metrics request: {}",
                    format_response(&other).trim_end()
                )))
            }
        };
        let cur = parse_exposition(&text);
        let rendered = render_top_frame(addr, frame, interval_ms, &cur, prev.as_ref());
        if count != 0 && frame >= count {
            return Ok(rendered);
        }
        if clear {
            print!("\x1b[2J\x1b[H");
        }
        print!("{rendered}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        prev = Some(cur);
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

fn cmd_verify(args: &Args) -> Result<String, CliError> {
    let corpus_name = args.get_or("corpus", "ci");
    let corpus = match_verify::CorpusKind::from_name(corpus_name)
        .ok_or_else(|| CliError::BadValue("corpus".to_string(), corpus_name.to_string()))?;
    let opts = match_verify::VerifyOptions {
        corpus,
        fixtures_dir: args.options.get("fixtures").map(std::path::PathBuf::from),
        update_golden: args.has_switch("update-golden"),
        master_seed: args.parse_or("seed", match_verify::DEFAULT_MASTER_SEED)?,
    };
    let report = match_verify::run_verify(&opts);
    let text = report.render();
    if report.passed() {
        Ok(text)
    } else {
        // The report *is* the error message; the binary exits nonzero.
        Err(CliError::Io(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "matchctl-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_tokens(tokens: &[&str]) -> Result<String, CliError> {
        run(&Args::parse(tokens.iter().copied()).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        let s = run_tokens(&["help"]).unwrap();
        assert!(s.contains("matchctl"));
        assert!(s.contains("solve"));
    }

    #[test]
    fn unknown_command_rejected() {
        let a = Args::parse(["frobnicate"]).unwrap();
        assert!(matches!(run(&a), Err(CliError::UnknownCommand(_))));
    }

    #[test]
    fn full_pipeline_gen_info_solve_simulate() {
        let dir = tmpdir();
        let tig = dir.join("tig.txt");
        let platform = dir.join("platform.txt");
        let mapping = dir.join("mapping.txt");
        let tig_s = tig.to_str().unwrap();
        let plat_s = platform.to_str().unwrap();
        let map_s = mapping.to_str().unwrap();

        let s = run_tokens(&[
            "gen",
            "--size",
            "8",
            "--seed",
            "3",
            "--out-tig",
            tig_s,
            "--out-platform",
            plat_s,
        ])
        .unwrap();
        assert!(s.contains("generated"));

        let s = run_tokens(&["info", "--tig", tig_s, "--platform", plat_s]).unwrap();
        assert!(s.contains("tasks: 8"));
        assert!(s.contains("lower bound"));

        let s = run_tokens(&[
            "solve",
            "--tig",
            tig_s,
            "--platform",
            plat_s,
            "--algo",
            "greedy",
            "--out",
            map_s,
        ])
        .unwrap();
        assert!(s.contains("Greedy: ET ="));
        assert!(s.contains("mapping written"));

        let s = run_tokens(&[
            "simulate",
            "--tig",
            tig_s,
            "--platform",
            plat_s,
            "--mapping",
            map_s,
            "--rounds",
            "3",
        ])
        .unwrap();
        assert!(s.contains("makespan"));
        assert!(s.contains("resource 7"));

        let s = run_tokens(&["dot", "--tig", tig_s]).unwrap();
        assert!(s.starts_with("graph tig {"));

        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn solve_with_matcher_on_generated_instance() {
        let dir = tmpdir();
        let tig = dir.join("t.txt");
        let plat = dir.join("p.txt");
        run_tokens(&[
            "gen",
            "--size",
            "6",
            "--out-tig",
            tig.to_str().unwrap(),
            "--out-platform",
            plat.to_str().unwrap(),
        ])
        .unwrap();
        let s = run_tokens(&[
            "solve",
            "--tig",
            tig.to_str().unwrap(),
            "--platform",
            plat.to_str().unwrap(),
            "--algo",
            "match",
            "--seed",
            "5",
        ])
        .unwrap();
        assert!(s.contains("MaTCH: ET ="));
        assert!(s.contains("optimality gap"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn multilevel_solve_on_large_family_instance() {
        let dir = tmpdir();
        let tig = dir.join("t.txt");
        let plat = dir.join("p.txt");
        let tig_s = tig.to_str().unwrap();
        let plat_s = plat.to_str().unwrap();
        let s = run_tokens(&[
            "gen",
            "--size",
            "96",
            "--family",
            "large",
            "--seed",
            "2",
            "--out-tig",
            tig_s,
            "--out-platform",
            plat_s,
        ])
        .unwrap();
        assert!(s.contains("generated large instance"), "{s}");
        let s = run_tokens(&[
            "solve",
            "--tig",
            tig_s,
            "--platform",
            plat_s,
            "--algo",
            "multilevel",
            "--seed",
            "5",
            "--coarsen-target",
            "24",
            "--refine-passes",
            "3",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(s.contains("multilevel: ET ="), "{s}");
        assert!(s.contains("optimality gap"), "{s}");
        let bad = run_tokens(&[
            "solve",
            "--tig",
            tig_s,
            "--platform",
            plat_s,
            "--algo",
            "multilevel",
            "--coarsen-target",
            "1",
        ]);
        assert!(matches!(bad, Err(CliError::BadValue(_, _))));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn solve_sampler_and_threads_flags() {
        let dir = tmpdir();
        let tig = dir.join("t.txt");
        let plat = dir.join("p.txt");
        let tig_s = tig.to_str().unwrap();
        let plat_s = plat.to_str().unwrap();
        run_tokens(&[
            "gen",
            "--size",
            "6",
            "--out-tig",
            tig_s,
            "--out-platform",
            plat_s,
        ])
        .unwrap();
        for sampler in ["auto", "sequential", "batched"] {
            let s = run_tokens(&[
                "solve",
                "--tig",
                tig_s,
                "--platform",
                plat_s,
                "--seed",
                "5",
                "--threads",
                "2",
                "--sampler",
                sampler,
            ])
            .unwrap();
            assert!(s.contains("MaTCH: ET ="), "sampler {sampler}");
        }
        let bad = run_tokens(&[
            "solve",
            "--tig",
            tig_s,
            "--platform",
            plat_s,
            "--sampler",
            "psychic",
        ]);
        assert!(bad.is_err(), "unknown sampler must be refused");
        let zero = run_tokens(&[
            "solve",
            "--tig",
            tig_s,
            "--platform",
            plat_s,
            "--threads",
            "0",
        ]);
        assert!(zero.is_err(), "zero threads must be refused");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn solve_backend_flag_is_bit_neutral() {
        let dir = tmpdir();
        let tig = dir.join("t.txt");
        let plat = dir.join("p.txt");
        let tig_s = tig.to_str().unwrap();
        let plat_s = plat.to_str().unwrap();
        run_tokens(&[
            "gen",
            "--size",
            "12",
            "--out-tig",
            tig_s,
            "--out-platform",
            plat_s,
        ])
        .unwrap();
        // Same batched run under all three backends: the kernels are
        // bit-identical, so everything but the wall clock (the `MT`
        // field) must not change at all.
        let solve = |algo: &str, backend: &str| {
            let s = run_tokens(&[
                "solve",
                "--tig",
                tig_s,
                "--platform",
                plat_s,
                "--seed",
                "5",
                "--threads",
                "2",
                "--sampler",
                "batched",
                "--algo",
                algo,
                "--backend",
                backend,
            ])
            .unwrap();
            let first = s.lines().next().unwrap();
            let (head, tail) = first.split_once(", MT = ").unwrap();
            let timeless = tail.split_once(", ").unwrap().1;
            format!("{head}, {timeless}")
        };
        for algo in ["match", "ga", "multilevel"] {
            let auto = solve(algo, "auto");
            assert_eq!(auto, solve(algo, "scalar"), "{algo}");
            assert_eq!(auto, solve(algo, "simd"), "{algo}");
        }
        let bad = run_tokens(&[
            "solve",
            "--tig",
            tig_s,
            "--platform",
            plat_s,
            "--backend",
            "avx512",
        ]);
        assert!(bad.is_err(), "unknown backend must be refused");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn ga_sampler_flags_and_diff_report() {
        use match_telemetry::Event;
        let dir = tmpdir();
        let tig = dir.join("t.txt");
        let plat = dir.join("p.txt");
        let seq_trace = dir.join("seq.jsonl");
        let bat_trace = dir.join("bat.jsonl");
        let tig_s = tig.to_str().unwrap();
        let plat_s = plat.to_str().unwrap();
        let seq_s = seq_trace.to_str().unwrap();
        let bat_s = bat_trace.to_str().unwrap();
        run_tokens(&[
            "gen",
            "--size",
            "6",
            "--out-tig",
            tig_s,
            "--out-platform",
            plat_s,
        ])
        .unwrap();
        // The GA accepts the same --threads/--sampler pair as `match`.
        for (sampler, threads, trace) in [("sequential", "1", seq_s), ("batched", "2", bat_s)] {
            let s = run_tokens(&[
                "solve",
                "--tig",
                tig_s,
                "--platform",
                plat_s,
                "--algo",
                "ga",
                "--seed",
                "3",
                "--sampler",
                sampler,
                "--threads",
                threads,
                "--trace",
                trace,
            ])
            .unwrap();
            assert!(s.contains("FastMap-GA: ET ="), "sampler {sampler}: {s}");
        }
        // The batched trace carries the delta-mutation counters.
        let events = read_trace_file(&bat_trace).unwrap();
        let has_counter = |name: &str| {
            events
                .iter()
                .any(|e| matches!(e, Event::Counter { name: n, .. } if n == name))
        };
        assert!(has_counter("full_evaluations"));
        assert!(has_counter("delta_swaps"));

        let diff = run_tokens(&["report", "--diff", seq_s, bat_s]).unwrap();
        assert!(diff.contains("A = "), "{diff}");
        assert!(diff.contains("final best"), "{diff}");
        assert!(diff.contains("convergence B"), "{diff}");
        assert!(diff.contains("phase budgets"), "{diff}");
        // --diff without a second trace is refused, as is a bare switch.
        assert!(run_tokens(&["report", "--diff", seq_s]).is_err());
        assert!(run_tokens(&["report", seq_s, "--diff"]).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn solve_trace_and_report_roundtrip_all_solvers() {
        use match_telemetry::Event;
        let dir = tmpdir();
        let tig = dir.join("t.txt");
        let plat = dir.join("p.txt");
        let tig_s = tig.to_str().unwrap();
        let plat_s = plat.to_str().unwrap();
        run_tokens(&[
            "gen",
            "--size",
            "6",
            "--out-tig",
            tig_s,
            "--out-platform",
            plat_s,
        ])
        .unwrap();
        for solver in ["match", "fastmap-ga", "sa", "hillclimb", "islands"] {
            let trace = dir.join(format!("{solver}.jsonl"));
            let trace_s = trace.to_str().unwrap();
            let s = run_tokens(&[
                "solve",
                "--tig",
                tig_s,
                "--platform",
                plat_s,
                "--solver",
                solver,
                "--seed",
                "3",
                "--trace",
                trace_s,
            ])
            .unwrap();
            assert!(s.contains("trace:"), "{solver}: {s}");
            // Every line parses and at least one per-iteration record
            // exists between run_start and run_end.
            let events = read_trace_file(&trace).unwrap();
            assert!(
                matches!(events.first(), Some(Event::RunStart { .. })),
                "{solver} trace must open with run_start"
            );
            assert!(
                matches!(events.last(), Some(Event::RunEnd { .. })),
                "{solver} trace must close with run_end"
            );
            assert!(
                events.iter().any(|e| matches!(e, Event::Iter(_))),
                "{solver} trace has no iter events"
            );
            let report = run_tokens(&["report", trace_s]).unwrap();
            assert!(report.contains("iterations"), "{solver}: {report}");
            assert!(report.contains("best cost"), "{solver}: {report}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn traced_solve_matches_untraced_solve() {
        let dir = tmpdir();
        let tig = dir.join("t.txt");
        let plat = dir.join("p.txt");
        let trace = dir.join("out.jsonl");
        let tig_s = tig.to_str().unwrap();
        let plat_s = plat.to_str().unwrap();
        run_tokens(&[
            "gen",
            "--size",
            "6",
            "--out-tig",
            tig_s,
            "--out-platform",
            plat_s,
        ])
        .unwrap();
        let plain = run_tokens(&[
            "solve",
            "--tig",
            tig_s,
            "--platform",
            plat_s,
            "--algo",
            "sa",
            "--seed",
            "9",
        ])
        .unwrap();
        let traced = run_tokens(&[
            "solve",
            "--tig",
            tig_s,
            "--platform",
            plat_s,
            "--algo",
            "sa",
            "--seed",
            "9",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        // Identical ET (the wall-clock MT field legitimately differs):
        // tracing must not perturb the RNG stream.
        let et = |s: &str| s.split(" units").next().unwrap().to_string();
        assert_eq!(et(&plain), et(&traced));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn simulate_trace_and_report() {
        let dir = tmpdir();
        let tig = dir.join("t.txt");
        let plat = dir.join("p.txt");
        let map = dir.join("m.txt");
        let trace = dir.join("sim.jsonl");
        let tig_s = tig.to_str().unwrap();
        let plat_s = plat.to_str().unwrap();
        run_tokens(&[
            "gen",
            "--size",
            "8",
            "--out-tig",
            tig_s,
            "--out-platform",
            plat_s,
        ])
        .unwrap();
        run_tokens(&[
            "solve",
            "--tig",
            tig_s,
            "--platform",
            plat_s,
            "--algo",
            "greedy",
            "--out",
            map.to_str().unwrap(),
        ])
        .unwrap();
        let s = run_tokens(&[
            "simulate",
            "--tig",
            tig_s,
            "--platform",
            plat_s,
            "--mapping",
            map.to_str().unwrap(),
            "--rounds",
            "40",
            "--blocking",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        assert!(s.contains("peak queue"));
        assert!(s.contains("trace:"));
        let report = run_tokens(&["report", trace.to_str().unwrap()]).unwrap();
        assert!(report.contains("sim_items"));
        let with_gantt = run_tokens(&["report", trace.to_str().unwrap(), "--gantt"]).unwrap();
        assert!(with_gantt.contains("schedule timeline"), "{with_gantt}");
        assert!(with_gantt.contains('█'), "{with_gantt}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn report_rejects_garbage() {
        let dir = tmpdir();
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "not json\n").unwrap();
        let r = run_tokens(&["report", bad.to_str().unwrap()]);
        assert!(matches!(r, Err(CliError::Io(_))));
        let r = run_tokens(&["report"]);
        assert!(matches!(r, Err(CliError::MissingOption(_))));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn bad_algo_reported() {
        let dir = tmpdir();
        let tig = dir.join("t.txt");
        let plat = dir.join("p.txt");
        run_tokens(&[
            "gen",
            "--size",
            "4",
            "--out-tig",
            tig.to_str().unwrap(),
            "--out-platform",
            plat.to_str().unwrap(),
        ])
        .unwrap();
        let r = run_tokens(&[
            "solve",
            "--tig",
            tig.to_str().unwrap(),
            "--platform",
            plat.to_str().unwrap(),
            "--algo",
            "quantum",
        ]);
        assert!(matches!(r, Err(CliError::BadValue(_, _))));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_files_reported() {
        let r = run_tokens(&[
            "info",
            "--tig",
            "/nonexistent/a",
            "--platform",
            "/nonexistent/b",
        ]);
        assert!(matches!(r, Err(CliError::Io(_))));
    }

    #[test]
    fn serve_submit_roundtrip() {
        let dir = tmpdir();
        let tig = dir.join("t.txt");
        let plat = dir.join("p.txt");
        let addr_file = dir.join("addr.txt");
        let trace = dir.join("serve.jsonl");
        let tig_s = tig.to_str().unwrap().to_string();
        let plat_s = plat.to_str().unwrap().to_string();
        run_tokens(&[
            "gen",
            "--size",
            "6",
            "--out-tig",
            &tig_s,
            "--out-platform",
            &plat_s,
        ])
        .unwrap();

        let addr_file_s = addr_file.to_str().unwrap().to_string();
        let trace_s = trace.to_str().unwrap().to_string();
        let server = std::thread::spawn(move || {
            run_tokens(&[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--addr-file",
                &addr_file_s,
                "--trace",
                &trace_s,
            ])
        });
        // The daemon writes its ephemeral address before accepting.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&addr_file) {
                let s = s.trim().to_string();
                if !s.is_empty() {
                    break s;
                }
            }
            assert!(std::time::Instant::now() < deadline, "daemon never came up");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let s = run_tokens(&[
            "submit",
            "--addr",
            &addr,
            "--tig",
            &tig_s,
            "--platform",
            &plat_s,
            "--algo",
            "greedy",
            "--seed",
            "4",
            "--id",
            "first",
        ])
        .unwrap();
        assert!(s.contains("first: Greedy ET ="), "{s}");
        assert!(s.contains("mapping:"), "{s}");
        assert!(!s.contains("[cached]"), "{s}");

        // Identical resubmission is served from the result cache.
        let s = run_tokens(&[
            "submit",
            "--addr",
            &addr,
            "--tig",
            &tig_s,
            "--platform",
            &plat_s,
            "--algo",
            "greedy",
            "--seed",
            "4",
            "--id",
            "again",
            "--stats",
        ])
        .unwrap();
        assert!(s.contains("again: Greedy ET ="), "{s}");
        assert!(s.contains("[cached]"), "{s}");
        assert!(s.contains("cache 1 hits"), "{s}");

        // Batch file: two solvers over the same instance, then shutdown.
        let batch = dir.join("batch.txt");
        std::fs::write(
            &batch,
            format!("# two cells\n{tig_s} {plat_s} sa 7\n{tig_s} {plat_s} hill 7\n"),
        )
        .unwrap();
        let s = run_tokens(&[
            "submit",
            "--addr",
            &addr,
            "--batch",
            batch.to_str().unwrap(),
        ])
        .unwrap();
        assert!(s.contains("job-0: SimAnneal ET ="), "{s}");
        assert!(s.contains("job-1: HillClimb ET ="), "{s}");

        let s = run_tokens(&["submit", "--addr", &addr, "--shutdown"]).unwrap();
        assert!(s.contains("acknowledged shutdown"), "{s}");

        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("match-serve stopped"), "{summary}");
        assert!(summary.contains("4 jobs"), "{summary}");
        assert!(summary.contains("1 cache hits"), "{summary}");
        assert!(summary.contains("trace:"), "{summary}");

        // The service trace summarises like any solver trace.
        let report = run_tokens(&["report", trace.to_str().unwrap()]).unwrap();
        assert!(report.contains("match-serve"), "{report}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn exposition_parser_handles_labels_and_quantiles() {
        let text = "# HELP match_serve_jobs_total jobs\n\
                    # TYPE match_serve_jobs_total counter\n\
                    match_serve_jobs_total 3\n\
                    match_serve_queue_depth 0\n\
                    match_serve_solve_latency_ns{algo=\"hill\",quantile=\"0.5\"} 1000000\n\
                    match_serve_solve_latency_ns{algo=\"hill\",quantile=\"0.99\"} 2000000\n\
                    match_serve_solve_latency_ns_sum{algo=\"hill\"} 3000000\n\
                    match_serve_solve_latency_ns_count{algo=\"hill\"} 3\n";
        let series = parse_exposition(text);
        assert_eq!(series["match_serve_jobs_total"], 3.0);
        assert_eq!(series["match_serve_queue_depth"], 0.0);
        assert_eq!(
            split_quantile("match_serve_solve_latency_ns{algo=\"hill\",quantile=\"0.5\"}"),
            Some((
                "match_serve_solve_latency_ns{algo=\"hill\"}".to_string(),
                "0.5".to_string()
            ))
        );
        assert_eq!(
            split_quantile("queue_wait_ns{quantile=\"0.99\"}"),
            Some(("queue_wait_ns".to_string(), "0.99".to_string()))
        );
        assert_eq!(split_quantile("match_serve_jobs_total"), None);

        let frame = render_top_frame("x:1", 1, 500, &series, None);
        assert!(frame.contains("gauges:"), "{frame}");
        assert!(frame.contains("match_serve_queue_depth"), "{frame}");
        assert!(frame.contains("latency (ms):"), "{frame}");
        assert!(
            frame.contains("p50 1.000 / p90 - / p99 2.000  (n=3)"),
            "{frame}"
        );
        assert!(frame.contains("counters"), "{frame}");
        // Second frame against the first carries counter deltas.
        let mut later = series.clone();
        *later.get_mut("match_serve_jobs_total").unwrap() = 5.0;
        let frame = render_top_frame("x:1", 2, 500, &later, Some(&series));
        assert!(frame.contains("+2"), "{frame}");
    }

    #[test]
    fn metrics_top_and_request_report_against_live_daemon() {
        let dir = tmpdir();
        let tig = dir.join("t.txt");
        let plat = dir.join("p.txt");
        let addr_file = dir.join("addr.txt");
        let maddr_file = dir.join("maddr.txt");
        let trace = dir.join("serve.jsonl");
        let tig_s = tig.to_str().unwrap().to_string();
        let plat_s = plat.to_str().unwrap().to_string();
        run_tokens(&[
            "gen",
            "--size",
            "6",
            "--out-tig",
            &tig_s,
            "--out-platform",
            &plat_s,
        ])
        .unwrap();

        let addr_file_s = addr_file.to_str().unwrap().to_string();
        let maddr_file_s = maddr_file.to_str().unwrap().to_string();
        let trace_s = trace.to_str().unwrap().to_string();
        let trace_for_server = trace_s.clone();
        let server = std::thread::spawn(move || {
            run_tokens(&[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--addr-file",
                &addr_file_s,
                "--metrics-addr",
                "127.0.0.1:0",
                "--metrics-addr-file",
                &maddr_file_s,
                "--trace",
                &trace_for_server,
            ])
        });
        let wait_for = |path: &std::path::Path| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            loop {
                if let Ok(s) = std::fs::read_to_string(path) {
                    let s = s.trim().to_string();
                    if !s.is_empty() {
                        break s;
                    }
                }
                assert!(std::time::Instant::now() < deadline, "daemon never came up");
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        };
        let addr = wait_for(&addr_file);
        let maddr = wait_for(&maddr_file);

        run_tokens(&[
            "submit",
            "--addr",
            &addr,
            "--tig",
            &tig_s,
            "--platform",
            &plat_s,
            "--algo",
            "greedy",
            "--id",
            "alpha",
        ])
        .unwrap();

        // JSONL-protocol snapshot and HTTP scrape agree on the job count.
        let text = run_tokens(&["metrics", "--addr", &addr]).unwrap();
        assert!(
            text.contains("# TYPE match_serve_jobs_total counter"),
            "{text}"
        );
        assert!(
            text.contains("match_serve_jobs_total{shard=\"0\"} 1"),
            "{text}"
        );
        assert!(text.contains("match_serve_solve_latency_ns"), "{text}");
        let scraped = run_tokens(&["metrics", "--http", &maddr]).unwrap();
        assert!(
            scraped.contains("match_serve_jobs_total{shard=\"0\"} 1"),
            "{scraped}"
        );

        // One-frame top returns a dashboard with all three sections.
        let frame = run_tokens(&["top", "--addr", &addr, "--count", "1"]).unwrap();
        assert!(frame.contains("match-serve top"), "{frame}");
        assert!(frame.contains("match_serve_queue_depth"), "{frame}");
        assert!(frame.contains("match_serve_jobs_total"), "{frame}");
        // Two frames with a short interval exercise the delta path.
        let frame = run_tokens(&[
            "top",
            "--addr",
            &addr,
            "--count",
            "2",
            "--interval-ms",
            "10",
            "--no-clear",
        ])
        .unwrap();
        assert!(frame.contains("frame 2"), "{frame}");

        run_tokens(&["submit", "--addr", &addr, "--shutdown"]).unwrap();
        server.join().unwrap().unwrap();

        // The service trace correlates per-request spans by trace id.
        let report = run_tokens(&["report", &trace_s, "--request", "alpha"]).unwrap();
        assert!(report.contains("alpha#"), "{report}");
        assert!(report.contains("queue_wait"), "{report}");
        assert!(report.contains("solve"), "{report}");
        // Unknown ids fail with a hint; a bare switch is refused.
        assert!(run_tokens(&["report", &trace_s, "--request", "nope"]).is_err());
        assert!(run_tokens(&["report", &trace_s, "--request"]).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn submit_batches_concurrently_and_writes_a_trace() {
        // An id that needs escaping: a quote, a backslash, non-BMP text.
        const ID: &str = "burst\"\\😀";
        let dir = tmpdir();
        let tig = dir.join("t.txt");
        let plat = dir.join("p.txt");
        let addr_file = dir.join("addr.txt");
        let trace_out = dir.join("requests.jsonl");
        let tig_s = tig.to_str().unwrap().to_string();
        let plat_s = plat.to_str().unwrap().to_string();
        run_tokens(&[
            "gen",
            "--size",
            "6",
            "--out-tig",
            &tig_s,
            "--out-platform",
            &plat_s,
        ])
        .unwrap();

        let addr_file_s = addr_file.to_str().unwrap().to_string();
        let server = std::thread::spawn(move || {
            run_tokens(&[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--addr-file",
                &addr_file_s,
            ])
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&addr_file) {
                let s = s.trim().to_string();
                if !s.is_empty() {
                    break s;
                }
            }
            assert!(std::time::Instant::now() < deadline, "daemon never came up");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let out = run_tokens(&[
            "submit",
            "--addr",
            &addr,
            "--tig",
            &tig_s,
            "--platform",
            &plat_s,
            "--algo",
            "greedy",
            "--id",
            ID,
            "--count",
            "4",
            "--concurrency",
            "2",
            "--trace-out",
            trace_out.to_str().unwrap(),
        ])
        .unwrap();
        // Small batch: per-response lines plus the aggregate summary.
        assert!(out.contains(&format!("{ID}-0")), "{out}");
        assert!(out.contains(&format!("{ID}-3")), "{out}");
        assert!(out.contains("4 requests over 2 connection(s)"), "{out}");
        assert!(out.contains("4 solved"), "{out}");
        assert!(out.contains("p50"), "{out}");
        // The replay trace has one JSONL record per request, in
        // submission order, each a JSON object the shared parser reads
        // back with the id intact.
        let trace = std::fs::read_to_string(&trace_out).unwrap();
        let lines: Vec<&str> = trace.lines().collect();
        assert_eq!(lines.len(), 4, "{trace}");
        for (i, line) in lines.iter().enumerate() {
            let record = match_telemetry::json::parse_object(line).expect(line);
            assert_eq!(record.string("id").unwrap(), format!("{ID}-{i}"), "{trace}");
            assert_eq!(record.string("algo").unwrap(), "Greedy", "{trace}");
            assert!(record.f64("cost").unwrap().is_finite(), "{trace}");
            assert!(record.u64("solve_ns").is_ok(), "{trace}");
        }
        // Distinct seeds per expanded request: nothing was cache-served.
        assert!(out.contains("0 cached"), "{out}");

        run_tokens(&["submit", "--addr", &addr, "--shutdown"]).unwrap();
        server.join().unwrap().unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn submit_without_work_is_an_error() {
        let a = Args::parse(["submit", "--addr", "127.0.0.1:1"]).unwrap();
        // Connection refused (nothing listening) or missing-option —
        // either way it must not hang or panic.
        assert!(run(&a).is_err());
    }

    #[test]
    fn overset_family_generates() {
        let dir = tmpdir();
        let tig = dir.join("t.txt");
        let plat = dir.join("p.txt");
        let s = run_tokens(&[
            "gen",
            "--size",
            "7",
            "--family",
            "overset",
            "--out-tig",
            tig.to_str().unwrap(),
            "--out-platform",
            plat.to_str().unwrap(),
        ])
        .unwrap();
        assert!(s.contains("overset"));
        let s = run_tokens(&[
            "info",
            "--tig",
            tig.to_str().unwrap(),
            "--platform",
            plat.to_str().unwrap(),
        ])
        .unwrap();
        assert!(s.contains("tasks: 7"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn verify_smoke_corpus_passes_and_renders_report() {
        let dir = tmpdir().join("verify-fixtures");
        let fix = dir.to_str().unwrap();
        // First pass writes the golden fixtures into a scratch dir…
        let s = run_tokens(&[
            "verify",
            "--corpus",
            "smoke",
            "--fixtures",
            fix,
            "--update-golden",
        ])
        .unwrap();
        assert!(s.contains("fixtures rewritten"), "{s}");
        // …then the same corpus verifies clean against them.
        let s = run_tokens(&["verify", "--corpus", "smoke", "--fixtures", fix]).unwrap();
        assert!(s.contains("all checks passed"), "{s}");
        assert!(s.contains("differential"), "{s}");
        assert!(s.contains("metamorphic"), "{s}");
        assert!(s.contains("golden-trajectory"), "{s}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn verify_rejects_an_unknown_corpus() {
        assert!(matches!(
            run_tokens(&["verify", "--corpus", "bogus"]),
            Err(CliError::BadValue(_, _))
        ));
    }

    #[test]
    fn verify_missing_fixtures_fail_with_regeneration_hint() {
        let dir = tmpdir().join("no-fixtures-here");
        let err = run_tokens(&[
            "verify",
            "--corpus",
            "smoke",
            "--fixtures",
            dir.to_str().unwrap(),
        ])
        .unwrap_err();
        let CliError::Io(report) = err else {
            panic!("expected the report as the error payload");
        };
        assert!(report.contains("FAILED"), "{report}");
        assert!(report.contains("--update-golden"), "{report}");
    }

    #[test]
    fn topology_families_gen_and_solve_roundtrip() {
        let dir = tmpdir();
        for family in ["grid", "torus", "fattree", "dragonfly"] {
            let tig = dir.join(format!("{family}-t.txt"));
            let plat = dir.join(format!("{family}-p.txt"));
            let caps = dir.join(format!("{family}-caps.txt"));
            let s = run_tokens(&[
                "gen",
                "--size",
                "9",
                "--family",
                family,
                "--seed",
                "11",
                "--out-tig",
                tig.to_str().unwrap(),
                "--out-platform",
                plat.to_str().unwrap(),
                "--out-caps",
                caps.to_str().unwrap(),
            ])
            .unwrap();
            assert!(s.contains(family), "{s}");
            assert!(s.contains("capacities"), "{s}");
            // The capacity sidecar parses back.
            let spec = CapacitySpec::from_text(&std::fs::read_to_string(&caps).unwrap()).unwrap();
            assert_eq!(spec.mem_capacity.len(), 9);
            // The default CE solve round-trips on the generated pair.
            let s = run_tokens(&[
                "solve",
                "--tig",
                tig.to_str().unwrap(),
                "--platform",
                plat.to_str().unwrap(),
                "--seed",
                "3",
            ])
            .unwrap();
            assert!(s.contains("ET ="), "{family}: {s}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn capacitated_solve_is_bit_neutral_at_gamma_zero() {
        let dir = tmpdir();
        let tig = dir.join("t.txt");
        let plat = dir.join("p.txt");
        let caps = dir.join("caps.txt");
        let tig_s = tig.to_str().unwrap();
        let plat_s = plat.to_str().unwrap();
        let caps_s = caps.to_str().unwrap();
        run_tokens(&[
            "gen",
            "--size",
            "8",
            "--family",
            "grid",
            "--out-tig",
            tig_s,
            "--out-platform",
            plat_s,
            "--out-caps",
            caps_s,
        ])
        .unwrap();
        let et = |extra: &[&str]| {
            let mut argv = vec!["solve", "--tig", tig_s, "--platform", plat_s, "--seed", "5"];
            argv.extend_from_slice(extra);
            let s = run_tokens(&argv).unwrap();
            s.split(" units").next().unwrap().to_string()
        };
        // γ = 0 keeps the sampled objective bit-identical to the plain
        // Eq. 2 run; γ > 0 still produces a valid solve.
        assert_eq!(et(&[]), et(&["--caps", caps_s, "--cap-gamma", "0"]));
        assert!(run_tokens(&[
            "solve",
            "--tig",
            tig_s,
            "--platform",
            plat_s,
            "--caps",
            caps_s,
            "--cap-gamma",
            "2.5",
        ])
        .unwrap()
        .contains("ET ="));
        // Capacities only make sense for the CE solver…
        assert!(matches!(
            run_tokens(&[
                "solve",
                "--tig",
                tig_s,
                "--platform",
                plat_s,
                "--algo",
                "greedy",
                "--caps",
                caps_s,
            ]),
            Err(CliError::BadValue(_, _))
        ));
        // γ must be a finite, non-negative weight; anything else is a
        // named error before the solve starts, not a panic inside it.
        for bad in ["inf", "nan", "-1"] {
            let r = run_tokens(&[
                "solve",
                "--tig",
                tig_s,
                "--platform",
                plat_s,
                "--caps",
                caps_s,
                "--cap-gamma",
                bad,
            ]);
            assert!(
                matches!(&r, Err(CliError::BadValue(o, v)) if o == "cap-gamma" && v == bad),
                "--cap-gamma {bad}: {r:?}"
            );
        }
        // …and the sidecar only for topology families.
        assert!(matches!(
            run_tokens(&["gen", "--size", "6", "--out-caps", caps_s]),
            Err(CliError::BadValue(_, _))
        ));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn dynamic_simulate_reports_epochs_and_migrations() {
        let dir = tmpdir();
        let tig = dir.join("t.txt");
        let plat = dir.join("p.txt");
        let trace = dir.join("dyn.jsonl");
        let tig_s = tig.to_str().unwrap();
        let plat_s = plat.to_str().unwrap();
        run_tokens(&[
            "gen",
            "--size",
            "12",
            "--out-tig",
            tig_s,
            "--out-platform",
            plat_s,
        ])
        .unwrap();
        let s = run_tokens(&[
            "simulate",
            "--tig",
            tig_s,
            "--platform",
            plat_s,
            "--dynamic",
            "--epochs",
            "3",
            "--events",
            "2",
            "--mu",
            "0.5",
            "--seed",
            "7",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        assert!(s.contains("dynamic workload: 12 tasks"), "{s}");
        assert!(s.contains("epoch 0:"), "{s}");
        assert!(s.contains("epoch 2:"), "{s}");
        assert!(s.contains("cold"), "{s}");
        assert!(s.contains("warm"), "{s}");
        assert!(s.contains("total migrations:"), "{s}");
        assert!(s.contains("trace:"), "{s}");
        assert!(std::fs::metadata(&trace).unwrap().len() > 0);
        // Identical seeds replay identically (wall-clock aside).
        let rerun = |_: ()| {
            run_tokens(&[
                "simulate",
                "--tig",
                tig_s,
                "--platform",
                plat_s,
                "--dynamic",
                "--epochs",
                "3",
                "--events",
                "2",
                "--mu",
                "0.5",
                "--seed",
                "7",
            ])
            .unwrap()
        };
        assert_eq!(rerun(()), rerun(()));
        // μ must be a finite non-negative number.
        assert!(run_tokens(&[
            "simulate",
            "--tig",
            tig_s,
            "--platform",
            plat_s,
            "--dynamic",
            "--mu",
            "-1",
        ])
        .is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn submit_remap_against_live_daemon() {
        let dir = tmpdir();
        let tig = dir.join("t.txt");
        let plat = dir.join("p.txt");
        let map = dir.join("m.txt");
        let addr_file = dir.join("addr.txt");
        let tig_s = tig.to_str().unwrap().to_string();
        let plat_s = plat.to_str().unwrap().to_string();
        run_tokens(&[
            "gen",
            "--size",
            "8",
            "--out-tig",
            &tig_s,
            "--out-platform",
            &plat_s,
        ])
        .unwrap();
        // A cold local CE solve provides the prior mapping file.
        run_tokens(&[
            "solve",
            "--tig",
            &tig_s,
            "--platform",
            &plat_s,
            "--seed",
            "4",
            "--out",
            map.to_str().unwrap(),
        ])
        .unwrap();

        let addr_file_s = addr_file.to_str().unwrap().to_string();
        let server = std::thread::spawn(move || {
            run_tokens(&[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--addr-file",
                &addr_file_s,
            ])
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&addr_file) {
                let s = s.trim().to_string();
                if !s.is_empty() {
                    break s;
                }
            }
            assert!(std::time::Instant::now() < deadline, "daemon never came up");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let s = run_tokens(&[
            "submit",
            "--addr",
            &addr,
            "--tig",
            &tig_s,
            "--platform",
            &plat_s,
            "--algo",
            "match",
            "--seed",
            "9",
            "--id",
            "re",
            "--remap-prior",
            map.to_str().unwrap(),
            "--mu",
            "1",
        ])
        .unwrap();
        assert!(s.contains("re: MaTCH ET ="), "{s}");
        assert!(s.contains("[warm"), "{s}");
        // Non-CE algorithms are refused daemon-side.
        let s = run_tokens(&[
            "submit",
            "--addr",
            &addr,
            "--tig",
            &tig_s,
            "--platform",
            &plat_s,
            "--algo",
            "hill",
            "--remap-prior",
            map.to_str().unwrap(),
        ])
        .unwrap();
        assert!(s.contains("CE-family"), "{s}");

        run_tokens(&["submit", "--addr", &addr, "--shutdown"]).unwrap();
        server.join().unwrap().unwrap();
        std::fs::remove_dir_all(dir).ok();
    }
}
