//! In-process solver workloads: `ce-paper` and `large-remap`. Each
//! operation is one call into a solver's public entry point, timed from
//! outside; a traced pass hands the solver a [`LayerRecorder`] so its own
//! phase events become spans.
//!
//! A run fixes its operation list (what the seed draws is described at
//! [`FIXED_SEED`]) and runs it in several passes. An operation's latency
//! is its fastest pass: the benchmark host slows down by up to a third in
//! bursts lasting from milliseconds to seconds, and a burst rarely covers
//! the same operation in every pass. Every pass must reproduce the first
//! pass's mapping and cost bit for bit.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use match_core::{
    bijective_lower_bound, remap_incremental, Mapper, MappingInstance, MatchConfig, Matcher,
    MultilevelConfig, RemapConfig, RemapStrategy, SamplerMode, StopToken,
};
use match_graph::io::from_text;
use match_graph::{ResourceGraph, TaskGraph};
use match_multilevel::{CoarseSolver, MultilevelMapper};
use match_rngutil::derive_seed;
use match_sim::{DynamicWorkload, TaskEvent};
use match_telemetry::{NullRecorder, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{self, Family, InstanceText, FIXED_SEED};
use crate::stats::{geomean, median};
use crate::trace::{LayerRecorder, SpanId, SpanLog};
use crate::{check, Report, Sizes};

/// Untraced passes of `ce-paper` over its solves, per lane.
const CE_PASSES: usize = 4;

/// `ce-paper` lanes: one per core of the two-core benchmark host. The
/// host's cores slow down independently, one by up to 60% for tens of
/// seconds, and a single thread tends to stay on one core for a whole
/// run; two lanes give every solve and every set-up a run on each core.
const CE_LANES: usize = 2;

/// Untraced passes of `large-remap` over its epochs, which take about
/// 1.6 s each.
const REMAP_PASSES: usize = 3;

/// Arrival/departure events per re-mapping epoch.
const EVENTS_PER_EPOCH: usize = 8;

/// Migration charge per moved task; a power of two, so `μ·moved` is
/// exact and the ledger check can compare bits.
const MU: f64 = 0.5;

/// Seconds of repeated set-up after which no further repetitions are
/// added, and the most repetitions made.
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUP_REPS: usize = 200;

/// Quantile reported as `latency_ms_tail` by the solver workloads.
const TAIL_Q: f64 = 0.9;

/// Wall time of `f` in seconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Parse, close and flatten every instance: the set-up a user of the
/// library pays before the first solve. Returns the instances and the
/// seconds spent in parsing, the platform closure (`ResourceGraph::new`,
/// all-pairs shortest paths) and flattening (`MappingInstance::new`).
pub fn build(texts: &[InstanceText]) -> Result<(Vec<MappingInstance>, [f64; 3]), String> {
    let mut layer = [0.0; 3];
    let mut out = Vec::with_capacity(texts.len());
    for text in texts {
        let (s, graphs) = timed(|| -> Result<_, String> {
            let tig = from_text(&text.tig).map_err(|e| format!("tig: {e}"))?;
            let tig = TaskGraph::new(tig).map_err(|e| format!("tig: {e}"))?;
            let platform = from_text(&text.platform).map_err(|e| format!("platform: {e}"))?;
            Ok((tig, platform))
        });
        let (tig, platform) = graphs?;
        layer[0] += s;
        let (s, platform) = timed(|| ResourceGraph::new(platform));
        let platform = platform.map_err(|e| format!("platform: {e}"))?;
        layer[1] += s;
        let (s, inst) = timed(|| MappingInstance::new(&tig, &platform));
        layer[2] += s;
        out.push(inst);
    }
    Ok((out, layer))
}

/// [`build`] at least `reps` times, and again while all builds so far
/// took under [`SETUP_BUDGET_S`], so that a build of a millisecond still
/// gets enough samples for its median to repeat. Each repetition builds
/// on `lanes` threads at once and keeps the fastest (see [`CE_LANES`]).
/// Records the per-layer medians; returns the last instances and the
/// median build time.
pub fn build_repeatedly(
    texts: &[InstanceText],
    reps: usize,
    lanes: usize,
    report: &mut Report,
) -> Result<(Vec<MappingInstance>, f64), String> {
    let mut totals: Vec<f64> = Vec::new();
    let mut layers = Vec::new();
    let mut kept = Vec::new();
    while totals.len() < reps.max(1)
        || (totals.iter().sum::<f64>() < SETUP_BUDGET_S && totals.len() < MAX_SETUP_REPS)
    {
        drop(std::mem::take(&mut kept));
        let (s, built) = thread::scope(|scope| {
            let lanes: Vec<_> = (0..lanes.max(1))
                .map(|_| scope.spawn(|| timed(|| build(texts))))
                .collect();
            lanes
                .into_iter()
                .map(|lane| lane.join().expect("set-up lane panicked"))
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("at least one lane")
        });
        let (insts, layer) = built?;
        totals.push(s);
        layers.push(layer);
        kept = insts;
    }
    record_layers(report, &layers);
    Ok((kept, median(&totals)))
}

/// The median seconds per set-up of parsing, closure and flattening.
fn record_layers(report: &mut Report, layers: &[[f64; 3]]) {
    for (i, name) in ["graph.parse_s", "graph.closure_s", "core.instance_s"]
        .into_iter()
        .enumerate()
    {
        report.set(
            name,
            median(&layers.iter().map(|l| l[i]).collect::<Vec<_>>()),
        );
    }
}

/// The in-process set-up: parse, close and flatten the instances;
/// `setup_s` is the median of [`build_repeatedly`].
fn setup(
    texts: &[InstanceText],
    reps: usize,
    lanes: usize,
    report: &mut Report,
) -> Result<Vec<MappingInstance>, String> {
    let (insts, seconds) = build_repeatedly(texts, reps, lanes, report)?;
    report.set("setup_s", seconds);
    Ok(insts)
}

/// One completed operation.
#[derive(Debug, Clone, Default)]
struct Op {
    /// Wall time of the operation.
    ms: f64,
    /// Eq. 2 cost over the instance's bijective lower bound.
    ratio: f64,
    /// Reported cost, compared bit for bit across passes.
    cost: f64,
    /// Fingerprint of the mapping, compared across passes.
    mapping: u64,
    /// Solver iterations (CE iterations or refinement passes).
    iterations: u64,
    /// Objective evaluations.
    evaluations: u64,
    /// Tasks in the changed set handed to re-mapping.
    changed: u64,
    /// Tasks the re-map moved.
    migrated: u64,
}

/// FNV-1a over a mapping.
fn fingerprint(assign: &[usize]) -> u64 {
    assign.iter().fold(0xcbf2_9ce4_8422_2325, |h, &r| {
        (h ^ r as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Fixed parameters of one solver workload.
struct Spec {
    /// Name of the operation span.
    op_span: &'static str,
    /// Name of the solver's `Iter` events.
    iter_name: &'static str,
    /// Untraced passes over the operation list, per lane.
    passes: usize,
    /// Threads that each make all the untraced passes at the same time.
    lanes: usize,
}

impl Spec {
    /// Operations per pass for a run of `seconds`: sized so that the
    /// passes take about that long on the benchmark host.
    fn ops_for(&self, seconds: f64, op_seconds: f64) -> usize {
        ((seconds / (self.passes as f64 * op_seconds)).round() as usize).max(1)
    }
}

/// Run the operation list in passes and record the run's metrics.
///
/// Untraced: `spec.lanes` threads each make `spec.passes` passes at the
/// same time; each operation's latency is its fastest run, and the
/// end-to-end metrics are taken over operations. Traced: one untraced
/// pass, then one traced pass, both on this thread, which give the layer
/// shares and, against the untraced pass, the tracing overhead; the
/// traced pass is returned for the workload's own counters.
fn measure(
    spec: &Spec,
    ops: usize,
    log: &mut SpanLog,
    report: &mut Report,
    op: impl Fn(usize, &mut SpanLog) -> Result<Op, String> + Sync,
) -> Option<Traced> {
    let traced = log.enabled();
    // Every run as (pass, operation, outcome), in the order one lane
    // made them, lane after lane.
    let passes = |n: usize, log: &mut SpanLog, traced_pass: Option<usize>| {
        let mut off = SpanLog::disabled();
        let mut runs = Vec::with_capacity(n * ops);
        for pass in 0..n {
            let log = if traced_pass == Some(pass) {
                &mut *log
            } else {
                &mut off
            };
            for i in 0..ops {
                runs.push((pass, i, op(i, log)));
            }
        }
        runs
    };
    let runs = if traced {
        passes(2, log, Some(1))
    } else {
        thread::scope(|s| {
            let lanes: Vec<_> = (0..spec.lanes.max(1))
                .map(|_| s.spawn(|| passes(spec.passes, &mut SpanLog::disabled(), None)))
                .collect();
            lanes
                .into_iter()
                .flat_map(|lane| lane.join().expect("benchmark lane panicked"))
                .collect()
        })
    };
    let mut first: Vec<Option<Op>> = vec![None; ops];
    let mut best = vec![f64::INFINITY; ops];
    let mut last: Vec<Option<Op>> = vec![None; ops];
    for (pass, i, done) in runs {
        let done = done.and_then(|o| match &first[i] {
            Some(f) if f.cost.to_bits() != o.cost.to_bits() || f.mapping != o.mapping => Err(
                format!("operation {i} gave a different answer in pass {pass}"),
            ),
            _ => Ok(o),
        });
        if let Some(o) = report.outcome(done) {
            best[i] = best[i].min(o.ms);
            first[i].get_or_insert_with(|| o.clone());
            last[i] = Some(o);
        }
    }
    if !traced {
        let ms: Vec<f64> = best.into_iter().filter(|m| m.is_finite()).collect();
        report.end_to_end(&ms, TAIL_Q);
        let ratios: Vec<f64> = first.iter().flatten().map(|o| o.ratio).collect();
        report.set("et_vs_lb", geomean(&ratios));
        return None;
    }
    let paired: Vec<(f64, f64)> = first
        .iter()
        .zip(&last)
        .filter_map(|(a, b)| Some((a.as_ref()?.ms, b.as_ref()?.ms)))
        .collect();
    let plain: f64 = paired.iter().map(|p| p.0).sum();
    let with_trace: f64 = paired.iter().map(|p| p.1).sum();
    report.set("trace.overhead", with_trace / plain - 1.0);
    report.shares(log, spec.op_span);
    Some(Traced {
        ops: last.into_iter().flatten().collect(),
        totals: log.layer_totals(),
    })
}

/// The traced pass of a solver workload, for its own per-layer counters.
struct Traced {
    ops: Vec<Op>,
    totals: BTreeMap<String, (u64, u64)>,
}

impl Traced {
    /// Mean of a per-operation count.
    fn per_op(&self, f: fn(&Op) -> u64) -> f64 {
        self.ops.iter().map(f).sum::<u64>() as f64 / self.ops.len().max(1) as f64
    }

    /// `count` over the self time of `layer`, per second (0 if the layer
    /// never ran).
    fn per_second_of(&self, count: f64, layer: &str) -> f64 {
        match self.totals.get(layer).map_or(0, |t| t.0) {
            0 => 0.0,
            ns => count / (ns as f64 / 1e9),
        }
    }
}

/// Time operation `op` as a span: `prepare` runs first and may record
/// its own child spans, then the solver call, which gets a
/// [`LayerRecorder`] under the operation span when traced. Returns the
/// seconds taken and both results.
fn solve_op<P, T>(
    spec: &Spec,
    op: u64,
    log: &mut SpanLog,
    prepare: impl FnOnce(&mut SpanLog, SpanId) -> P,
    call: impl FnOnce(&P, &mut dyn Recorder) -> T,
) -> (f64, P, T) {
    let span = log.open(None, op, spec.op_span);
    let (s, (prepared, out)) = timed(|| {
        let prepared = prepare(log, span);
        let out = if log.enabled() {
            let mut rec = LayerRecorder::new(log, op, span, spec.iter_name);
            let out = call(&prepared, &mut rec);
            rec.finish();
            out
        } else {
            call(&prepared, &mut NullRecorder)
        };
        (prepared, out)
    });
    log.close(span);
    (s, prepared, out)
}

/// `ce-paper`: one flat MaTCH solve per operation, each on its own
/// paper-family instance (batched sampler, one thread).
pub fn ce_paper(
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    log: &mut SpanLog,
    report: &mut Report,
) -> Result<(), String> {
    let spec = Spec {
        op_span: "ce.solve",
        iter_name: "ce.iteration",
        passes: CE_PASSES,
        lanes: CE_LANES,
    };
    let ops = spec.ops_for(seconds, sizes.ce_op_s);
    let texts: Vec<InstanceText> = (0..ops)
        .map(|i| inputs::instance(seed, "ce-paper", i, Family::Paper, sizes.ce_n))
        .collect();
    let insts = setup(&texts, sizes.setup_reps, CE_LANES, report)?;
    let lbs: Vec<f64> = insts.iter().map(bijective_lower_bound).collect();
    let matcher = Matcher::new(single_thread_ce());
    let traced = measure(&spec, ops, log, report, |i, log| {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, i as u64));
        let (s, (), out) = solve_op(
            &spec,
            i as u64,
            log,
            |_, _| (),
            |(), rec| matcher.run_traced(&insts[i], &mut rng, rec),
        );
        check::mapping(&insts[i], out.mapping.as_slice(), out.cost)?;
        Ok(Op {
            ms: s * 1e3,
            ratio: out.cost / lbs[i],
            cost: out.cost,
            mapping: fingerprint(out.mapping.as_slice()),
            iterations: out.iterations as u64,
            evaluations: out.evaluations,
            ..Op::default()
        })
    });
    if let Some(t) = traced {
        let rows = t.per_op(|o| o.evaluations) * t.ops.len() as f64;
        report.set("ce.iterations", t.per_op(|o| o.iterations));
        report.set("ce.samples", t.per_op(|o| o.evaluations));
        report.set("ce.sample_rows_per_s", t.per_second_of(rows, "ce.sample"));
        report.set("eval.rows_per_s", t.per_second_of(rows, "eval.evaluate"));
    }
    Ok(())
}

/// The multilevel solver as `matchctl` and the daemon build it
/// (`MultilevelConfig::default()`, CE coarse solver with the batched
/// sampler), on one thread: the two workers of the two-core benchmark
/// host would otherwise compete with the timer for a core.
fn multilevel() -> MultilevelMapper {
    MultilevelMapper::new(MultilevelConfig {
        threads: 1,
        ..MultilevelConfig::default()
    })
    .with_coarse_solver(CoarseSolver::Ce(single_thread_ce()))
}

/// The paper's CE on one thread with the batched sampler.
pub fn single_thread_ce() -> MatchConfig {
    MatchConfig {
        threads: 1,
        sampler: SamplerMode::Batched,
        ..MatchConfig::default()
    }
}

/// `large-remap`: one incremental re-mapping epoch per operation, on one
/// instance large enough that both its build and an epoch cost more than
/// a cold multilevel solve. The set-up builds the instance and solves it
/// cold for the prior, as a daemon's set-up includes its priming solves;
/// it repeats [`Sizes::setup_reps`] times with the same solver seed, and
/// a traced run traces the cold solves for the multilevel layer's
/// metrics. Each epoch applies its own batch of task departures to the
/// solved instance, rebuilds the instance, and re-maps the changed
/// subgraph from the prior with `RemapConfig::default()` (RefineOnly, two
/// refinement passes), then undoes its batch.
///
/// Epochs do not chain. Along a chain, epochs split about evenly between
/// one refinement pass (the first found no move) and two, so a chain's
/// median jumps between the two; the first epoch after a cold solve runs
/// both passes.
pub fn large_remap(
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    log: &mut SpanLog,
    report: &mut Report,
) -> Result<(), String> {
    let text = inputs::instance(FIXED_SEED, "large-remap", 0, Family::Large, sizes.remap_n);
    let spec = Spec {
        op_span: "remap.epoch",
        iter_name: "remap.iteration",
        passes: REMAP_PASSES,
        // One n = 4096 instance and its rebuilds in memory at a time.
        lanes: 1,
    };
    let ops = spec.ops_for(seconds, sizes.remap_op_s);
    let cold = Spec {
        op_span: "multilevel.solve",
        iter_name: "multilevel.refine_pass",
        passes: 1,
        lanes: 1,
    };
    let mapper = multilevel();
    let mut setups = Vec::new();
    let mut layers = Vec::new();
    let mut solves = Vec::new();
    let mut kept: Option<(MappingInstance, Vec<usize>)> = None;
    for k in 0..sizes.setup_reps.max(1) {
        // One n = 4096 instance in memory at a time.
        let first = kept.take().map(|(_, prior)| prior);
        let (build_s, built) = timed(|| build(std::slice::from_ref(&text)));
        let (mut insts, layer) = built?;
        let inst = insts.remove(0);
        let mut rng = inputs::rng(FIXED_SEED, "large-remap/prior");
        // Operation ids after the epochs' own.
        let (solve_s, (), out) = solve_op(
            &cold,
            (ops + k) as u64,
            log,
            |_, _| (),
            |(), rec| mapper.map_traced(&inst, &mut rng, rec),
        );
        let prior = out.mapping.as_slice().to_vec();
        report.outcome(
            check::mapping(&inst, &prior, out.cost).and_then(|()| match first {
                Some(f) if f != prior => Err("cold solves differ between set-ups".to_string()),
                _ => Ok(()),
            }),
        );
        setups.push(build_s + solve_s);
        layers.push(layer);
        solves.push((solve_s, out.iterations as f64, out.evaluations as f64));
        kept = Some((inst, prior));
    }
    let (base, prior) = kept.expect("at least one set-up");
    record_layers(report, &layers);
    report.set("setup_s", median(&setups));
    let solve_s = median(&solves.iter().map(|s| s.0).collect::<Vec<_>>());
    if log.enabled() {
        let per_solve = |x: f64| x / solves.len() as f64;
        let levels = log
            .layer_totals()
            .get("multilevel.refine")
            .map_or(0, |t| t.1);
        report.set(
            "multilevel.refine_passes",
            per_solve(solves.iter().map(|s| s.1).sum()),
        );
        report.set(
            "multilevel.evaluations",
            per_solve(solves.iter().map(|s| s.2).sum()),
        );
        report.set("multilevel.levels", per_solve(levels as f64));
    }
    let cfg = RemapConfig {
        strategy: RemapStrategy::RefineOnly,
        mu: MU,
        ..RemapConfig::default()
    };
    // One lane: the lock is never contended.
    let workload = Mutex::new(DynamicWorkload::new(&base));
    let order = inputs::order(seed, "large-remap/order", ops);
    let traced = measure(&spec, ops, log, report, |i, log| {
        let mut workload = workload.lock().expect("workload lock");
        let job = order[i];
        let events = workload.generate_events(
            EVENTS_PER_EPOCH,
            &mut inputs::rng(FIXED_SEED, &format!("large-remap/events/{job}")),
        );
        let mut rng = StdRng::seed_from_u64(derive_seed(FIXED_SEED, job as u64));
        let op = i as u64;
        let prepare = |log: &mut SpanLog, span| {
            let changed = log.time(Some(span), op, "remap.apply", || workload.apply(&events));
            let inst = log.time(Some(span), op, "remap.instance", || workload.instance());
            (changed, inst)
        };
        let (s, (changed, inst), out) =
            solve_op(&spec, op, log, prepare, |(changed, inst), rec| {
                let never = StopToken::never();
                remap_incremental(inst, Some(&prior), changed, &cfg, &mut rng, rec, &never)
            });
        workload.apply(&undo(&events));
        check::remap(&inst, &prior, MU, &out)?;
        Ok(Op {
            ms: s * 1e3,
            ratio: out.cost / bijective_lower_bound(&inst),
            cost: out.cost,
            mapping: fingerprint(out.mapping.as_slice()),
            iterations: out.iterations as u64,
            evaluations: out.evaluations,
            changed: changed.len() as u64,
            migrated: out.migrated as u64,
        })
    });
    if let Some(t) = traced {
        report.set("remap.evaluations_per_epoch", t.per_op(|o| o.evaluations));
        report.set("remap.changed_per_epoch", t.per_op(|o| o.changed));
        report.set("remap.migrated_per_epoch", t.per_op(|o| o.migrated));
        let epoch_ms = median(&t.ops.iter().map(|o| o.ms).collect::<Vec<_>>());
        report.set("remap.epoch_over_solve", epoch_ms / 1e3 / solve_s);
    }
    Ok(())
}

/// The batch that reverts `events`.
fn undo(events: &[TaskEvent]) -> Vec<TaskEvent> {
    events
        .iter()
        .map(|&e| match e {
            TaskEvent::Arrive(t) => TaskEvent::Depart(t),
            TaskEvent::Depart(t) => TaskEvent::Arrive(t),
        })
        .collect()
}
