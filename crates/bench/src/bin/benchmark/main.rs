//! The repository benchmark: one command, four seeded workloads, every
//! end-to-end metric (or, traced, every per-layer metric) printed as
//! `name value unit`, then one JSON summary as the last line.
//!
//! ```text
//! cargo run --release -p match-bench --bin benchmark -- \
//!     --workload ce-paper --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Every output is checked (see `check.rs`); any failure makes the
//! summary report `"correct": false` and the process exit 1. Bad
//! arguments exit 2 without a summary. With `--trace 1` the spans of the
//! traced phase are written to `benchmark/` under the target directory.

mod check;
mod inputs;
mod serve;
mod solve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use trace::SpanLog;

/// End-to-end metrics, printed by every workload when untraced.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("et_vs_lb", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload when traced. A layer a
/// workload does not run reads 0. Busy time is a share of the summed
/// operation wall time of the traced phase.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.parse_s", "s"),
    ("graph.closure_s", "s"),
    ("core.instance_s", "s"),
    ("ce.iterations", "count"),
    ("ce.samples", "count"),
    ("ce.sample_share", "share"),
    ("ce.select_share", "share"),
    ("ce.update_share", "share"),
    ("ce.sample_rows_per_s", "1/s"),
    ("eval.evaluate_share", "share"),
    ("eval.rows_per_s", "1/s"),
    ("multilevel.coarsen_share", "share"),
    ("multilevel.coarse_solve_share", "share"),
    ("multilevel.refine_share", "share"),
    ("multilevel.refine_passes", "count"),
    ("multilevel.evaluations", "count"),
    ("multilevel.levels", "count"),
    ("remap.apply_share", "share"),
    ("remap.instance_share", "share"),
    ("remap.refine_share", "share"),
    ("remap.call_share", "share"),
    ("remap.evaluations_per_epoch", "count"),
    ("remap.changed_per_epoch", "count"),
    ("remap.migrated_per_epoch", "count"),
    ("remap.epoch_over_solve", "ratio"),
    ("serve.front_share", "share"),
    ("serve.queue_share", "share"),
    ("serve.worker_share", "share"),
    ("serve.codec_share_of_front", "share"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.warm_hit_ratio", "ratio"),
    ("serve.max_rate_rps", "1/s"),
    ("loadgen.lateness_share", "share"),
    ("loadgen.late_ratio", "ratio"),
    ("loadgen.achieved_ratio", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "share"),
    ("trace.spans", "count"),
];

/// Busy-time shares: metric name, the operation span whose summed wall
/// time is the whole, and the span names whose self time it sums.
const SHARES: &[(&str, &str, &[&str])] = &[
    ("ce.sample_share", "ce.solve", &["ce.sample"]),
    ("ce.select_share", "ce.solve", &["ce.iteration"]),
    ("ce.update_share", "ce.solve", &["ce.update"]),
    ("eval.evaluate_share", "ce.solve", &["eval.evaluate"]),
    (
        "multilevel.coarsen_share",
        "multilevel.solve",
        &["multilevel.coarsen"],
    ),
    (
        "multilevel.coarse_solve_share",
        "multilevel.solve",
        &["multilevel.coarse_solve"],
    ),
    (
        "multilevel.refine_share",
        "multilevel.solve",
        &["multilevel.refine", "multilevel.refine_pass"],
    ),
    ("remap.apply_share", "remap.epoch", &["remap.apply"]),
    ("remap.instance_share", "remap.epoch", &["remap.instance"]),
    ("remap.refine_share", "remap.epoch", &["remap.refine"]),
    ("remap.call_share", "remap.epoch", &["remap.call"]),
    ("serve.queue_share", "serve.request", &["serve.queue"]),
    ("serve.worker_share", "serve.request", &["serve.worker"]),
    (
        "loadgen.lateness_share",
        "serve.request",
        &["loadgen.lateness"],
    ),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["ce-paper", "large-remap", "serve-hot", "serve-mixed"];

/// Input sizes and load levels of every workload. Operation counts scale
/// with `--seconds` through the per-operation time estimates, which are
/// measured on the benchmark host.
pub struct Sizes {
    /// Least number of set-up samples per run: in-process builds (with
    /// `large-remap`'s cold solve), or daemon start-and-prime cycles
    /// (median reported).
    pub setup_reps: usize,
    /// `ce-paper` instance size.
    pub ce_n: usize,
    /// `ce-paper` seconds per solve.
    pub ce_op_s: f64,
    /// `large-remap` instance size.
    pub remap_n: usize,
    /// `large-remap` seconds per epoch.
    pub remap_op_s: f64,
    /// Sizes the cache-hit templates of both served workloads cycle
    /// through.
    pub hot_sizes: &'static [usize],
    /// `serve-hot` templates.
    pub hot_templates: usize,
    /// `serve-hot` seeds per template.
    pub hot_seeds: usize,
    /// `serve-hot` offered rate, requests per second.
    pub hot_rps: f64,
    /// `serve-hot` traced run: ladder rates. The first is the offered
    /// rate: a first step at 2000 rps read a p99 of 23–47 ms, the same
    /// step after two lower ones 3–4 ms.
    pub ladder_rps: &'static [f64],
    /// `serve-hot` traced run: seconds per ladder step.
    pub ladder_step_s: f64,
    /// `serve-mixed` primed cache-hit templates.
    pub mixed_hit_templates: usize,
    /// `serve-mixed` known templates (warm-store reads and re-maps).
    pub mixed_known_templates: usize,
    /// Size of every `serve-mixed` request that reaches a solver.
    pub mixed_n: usize,
    /// `serve-mixed` offered rate, requests per second.
    pub mixed_rps: f64,
}

impl Sizes {
    /// What the benchmark runs.
    pub const FULL: Sizes = Sizes {
        setup_reps: 3,
        ce_n: 16,
        ce_op_s: 0.03,
        remap_n: 4096,
        remap_op_s: 1.6,
        hot_sizes: &[12, 16, 20, 24],
        hot_templates: 16,
        hot_seeds: 4,
        hot_rps: 500.0,
        ladder_rps: &[500.0, 1000.0, 2000.0, 4000.0, 8000.0],
        ladder_step_s: 2.0,
        mixed_hit_templates: 8,
        mixed_known_templates: 3,
        mixed_n: 16,
        mixed_rps: 20.0,
    };

    /// Toy sizes for the unit tests.
    #[cfg(test)]
    pub const TOY: Sizes = Sizes {
        setup_reps: 2,
        ce_n: 6,
        ce_op_s: 0.1,
        remap_n: 16,
        remap_op_s: 0.1,
        hot_sizes: &[5, 6],
        hot_templates: 2,
        hot_seeds: 2,
        hot_rps: 200.0,
        ladder_rps: &[100.0, 200.0],
        ladder_step_s: 0.2,
        mixed_hit_templates: 2,
        mixed_known_templates: 2,
        mixed_n: 6,
        mixed_rps: 100.0,
    };
}

/// Where traces and the warm store go: `benchmark/` under the cargo
/// target directory (`CARGO_TARGET_DIR`, else the workspace's `target/`).
pub fn out_dir() -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target")),
        PathBuf::from,
    );
    let dir = target.join("benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// What one run measured and how many of its outputs were wrong.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Count one checked output; returns its value when it passed.
    pub fn outcome<T>(&mut self, checked: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match checked {
            Ok(v) => Some(v),
            Err(why) => {
                self.fail(why);
                None
            }
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    /// Latency median and tail; says on stderr when the tail quantile
    /// has fewer than ten samples beyond it.
    pub fn end_to_end(&mut self, latency_ms: &[f64], tail_q: f64) {
        let n = latency_ms.len();
        if !stats::tail_supported(n, tail_q) {
            eprintln!(
                "note: p{} of {n} samples has only {} beyond it",
                tail_q * 100.0,
                stats::samples_beyond(n, tail_q)
            );
        }
        self.set("latency_ms_p50", stats::median(latency_ms));
        self.set("latency_ms_tail", stats::percentile(latency_ms, tail_q));
    }

    /// Busy-time shares of a traced phase, each of the summed wall time
    /// of its operation spans (0 where the workload has none). The
    /// workload's main operation spans are named `op`; their own self
    /// time is the unattributed share.
    pub fn shares(&mut self, log: &SpanLog, op: &str) {
        let totals = log.layer_totals();
        let share = |root: &str, names: &[&str]| {
            names
                .iter()
                .map(|n| totals.get(*n).map_or(0, |t| t.0))
                .sum::<u64>() as f64
                / log.total_ns(root).max(1) as f64
        };
        for &(metric, root, names) in SHARES {
            self.set(metric, share(root, names));
        }
        self.set("trace.unattributed_share", share(op, &[op]));
        self.set("trace.spans", log.spans().len() as f64);
    }

    /// The `name value unit` lines and the JSON summary line.
    fn render(&mut self, traced: bool) -> String {
        let names = if traced { PER_LAYER } else { END_TO_END };
        let mut lines = String::new();
        let mut json = String::new();
        for &(name, unit) in names {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                // A layer this workload does not run.
                _ if traced => 0.0,
                _ => {
                    self.fail(format!("metric {name} was not measured"));
                    0.0
                }
            };
            let _ = writeln!(lines, "{name} {value} {unit}");
            let sep = if json.is_empty() { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let _ = write!(
            lines,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        lines
    }
}

/// Run one workload; errors that stop it early are reported as failures.
fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    log: &mut SpanLog,
    report: &mut Report,
) {
    let ran = match workload {
        "ce-paper" => solve::ce_paper(seed, seconds, sizes, log, report),
        "large-remap" => solve::large_remap(seed, seconds, sizes, log, report),
        "serve-hot" => serve::serve_hot(seed, seconds, sizes, log, report),
        "serve-mixed" => serve::serve_mixed(seed, seconds, sizes, log, report),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = ran {
        report.outcome::<()>(Err(e));
    }
    report.set("peak_rss_mb", peak_rss_mb());
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w} (known: {})",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(w.clone());
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let mut log = if args.trace {
        SpanLog::new()
    } else {
        SpanLog::disabled()
    };
    let mut report = Report::default();
    run(
        &args.workload,
        args.seed,
        args.seconds,
        &Sizes::FULL,
        &mut log,
        &mut report,
    );
    if args.trace {
        let written = out_dir().and_then(|dir| {
            let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
            log.write_jsonl(&path)
                .map_err(|e| format!("trace {}: {e}", path.display()))?;
            Ok(path)
        });
        match written {
            Ok(path) => eprintln!("wrote {} spans to {}", log.spans().len(), path.display()),
            Err(e) => {
                report.outcome::<()>(Err(e));
            }
        }
    }
    let out = report.render(args.trace);
    for why in &report.failures {
        eprintln!("FAILED: {why}");
    }
    println!("{out}");
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`.
    fn benchmark_metrics(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"').expect("string value") + 1;
            rest[open..open + rest[open..].find('"').expect("closing quote")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(benchmark_metrics("end_to_end"), own(END_TO_END));
        assert_eq!(benchmark_metrics("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = args("--workload serve-hot --seed 9 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-hot", 9, 3.0, true)
        );
        assert!(args("--seed 1").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload ce-paper --trace 2").is_err());
        assert!(args("--workload ce-paper --seconds 0").is_err());
        assert!(args("--workload ce-paper --frobnicate 1").is_err());
        assert!(args("--workload ce-paper --seed").is_err());
    }

    /// A toy-size pass of every workload, plain and traced, is correct
    /// and prints every metric `BENCHMARK.json` names.
    #[test]
    fn toy_pass_of_every_workload_prints_every_metric() {
        for workload in WORKLOADS {
            for traced in [false, true] {
                let mut log = if traced {
                    SpanLog::new()
                } else {
                    SpanLog::disabled()
                };
                let mut report = Report::default();
                run(workload, 5, 0.4, &Sizes::TOY, &mut log, &mut report);
                let out = report.render(traced);
                assert_eq!(
                    report.failed, 0,
                    "{workload} traced={traced}: {:?}",
                    report.failures
                );
                let section = if traced { "per_layer" } else { "end_to_end" };
                for (name, unit) in benchmark_metrics(section) {
                    assert!(
                        out.lines().any(|l| l.starts_with(&format!("{name} "))
                            && l.ends_with(&format!(" {unit}"))),
                        "{workload} traced={traced} did not print {name}:\n{out}"
                    );
                }
                let last = out.lines().last().expect("summary line");
                assert!(
                    last.starts_with("{\"correct\": true, \"attempted\": "),
                    "{last}"
                );
                if traced {
                    assert!(!log.spans().is_empty(), "{workload} recorded no spans");
                }
            }
        }
    }
}
