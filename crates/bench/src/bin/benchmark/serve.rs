//! Served workloads: `serve-hot` and `serve-mixed`, driven against an
//! in-process `match-serve` daemon over loopback TCP.
//!
//! The load generator is open-loop: arrivals follow a Poisson schedule
//! drawn from the seed, one thread writes each request at its due time
//! and another reads replies, both on one connection. Latency is timed
//! from the due time, so a stalled writer shows up as latency; the
//! generator also reports how late it ran. A request unanswered one
//! second after its phase ends is a miss.
//!
//! A run sends one request list in one or more passes, each at arrival
//! times drawn afresh. Each pass starts a fresh daemon and primes it (one
//! set-up sample), so every pass sees the same daemon state and must
//! return the same answers. A request's latency is the median of its
//! replays: the host slows down in bursts, and a request's latency also
//! depends on what arrived just before it; a median over three contexts
//! ignores one odd replay either way. `serve-mixed` makes one pass of
//! three times as many requests instead (see [`serve_mixed`]), and starts
//! and primes extra daemons for its set-up samples.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use match_core::{bijective_lower_bound, MappingInstance, Matcher};
use match_rngutil::derive_seed_str;
use match_serve::{
    encode_request_line, encode_response_line, job_key, parse_request, parse_response,
    RemapRequest, Request, Response, ServeConfig, Server, ServerHandle, SolveRequest,
    SolveResponse,
};
use match_stats::mean;
use rand::rngs::StdRng;
use rand::Rng;

use crate::inputs::{self, Family, InstanceText, FIXED_SEED};
use crate::solve::{build, build_repeatedly, single_thread_ce, timed};
use crate::stats::{geomean, median, percentile};
use crate::trace::SpanLog;
use crate::{check, Report, Sizes};

/// Passes of an untraced `serve-hot` run, each on a freshly primed
/// daemon.
const HOT_PASSES: usize = 3;

/// Solver every request names: CE with the batched sampler, the
/// warm-startable family.
const ALGO: &str = "match-batched";

/// Placeholder the request id is spliced over on every send.
const ID_MARK: &str = "@ID@";

/// Ladder pass condition: p99 at or under this, nothing failed, nothing
/// missed.
const LADDER_P99_MS: f64 = 20.0;

/// Migration charge on `remap` requests.
const REMAP_MU: u64 = 1;

/// `serve-mixed` request kinds per block of 20 requests: 8 cache hits,
/// 7 fresh-seed solves of known templates, 2 never-seen structures and
/// 3 re-maps (40/35/10/15%).
const MIX: [usize; 4] = [8, 7, 2, 3];

/// What a request is, and so how its reply is checked.
#[derive(Debug, Clone)]
enum Kind {
    /// Primed combo `i`: must come from the cache with the primed answer.
    Hit(usize),
    /// A solve that misses the cache.
    Solve,
    /// A re-map from this prior.
    Remap(Vec<usize>),
}

/// A request ready to send: its wire line around the id.
#[derive(Debug, Clone)]
struct Payload {
    prefix: String,
    suffix: String,
    kind: Kind,
    /// Index of the request's instance in the bench-side instance list.
    inst: usize,
    seed: u64,
}

impl Payload {
    fn new(req: &Request, kind: Kind, inst: usize, seed: u64) -> Self {
        let line = encode_request_line(req);
        let at = line.find(ID_MARK).expect("request id placeholder");
        Payload {
            prefix: line[..at].to_string(),
            suffix: line[at + ID_MARK.len()..].to_string(),
            kind,
            inst,
            seed,
        }
    }

    fn solve(text: &InstanceText, kind: Kind, inst: usize, seed: u64) -> Self {
        Payload::new(&Request::Solve(solve_request(text, seed)), kind, inst, seed)
    }

    fn write_line(&self, id: usize, buf: &mut String) {
        buf.clear();
        buf.push_str(&self.prefix);
        let _ = write!(buf, "r{id}");
        buf.push_str(&self.suffix);
    }
}

fn solve_request(text: &InstanceText, seed: u64) -> SolveRequest {
    SolveRequest {
        id: ID_MARK.to_string(),
        algo: ALGO.to_string(),
        seed,
        deadline_ms: None,
        backend: None,
        tig: text.tig.clone(),
        platform: text.platform.clone(),
    }
}

/// Per-request seed for `label`.
fn derive(seed: u64, label: &str, i: usize) -> u64 {
    derive_seed_str(seed, &format!("{label}/{i}"))
}

/// One scheduled arrival.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    due: Duration,
    payload: usize,
}

/// Poisson arrivals at `rate` over `span`, each picking a payload.
fn schedule(
    seed: u64,
    label: &str,
    rate: f64,
    span: Duration,
    mut pick: impl FnMut(&mut StdRng) -> usize,
) -> Vec<Arrival> {
    let due = inputs::poisson_schedule(
        &mut inputs::rng(seed, &format!("{label}/arrivals")),
        (rate * span.as_secs_f64()).round() as usize,
        span,
    );
    let mut rng = inputs::rng(seed, &format!("{label}/mix"));
    due.into_iter()
        .map(|due| Arrival {
            due,
            payload: pick(&mut rng),
        })
        .collect()
}

/// What happened to one request.
struct Record {
    due: Instant,
    sent: Option<Instant>,
    reply: Option<(Instant, Response)>,
}

/// Send `plan` open-loop over one connection and collect the replies,
/// matched to requests by id. A request with no reply by the end of the
/// phase plus one second has `reply: None`.
fn drive(
    addr: SocketAddr,
    plan: &[Arrival],
    payloads: &[Payload],
    span: Duration,
) -> Result<Vec<Record>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let read_half = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    read_half
        .set_read_timeout(Some(Duration::from_millis(20)))
        .map_err(|e| format!("read timeout: {e}"))?;
    let start = Instant::now() + Duration::from_millis(5);
    let give_up = start + span + Duration::from_secs(1);
    let n = plan.len();
    let (sent, replies) = thread::scope(|s| {
        let writer = s.spawn(move || {
            let mut stream = stream;
            let mut sent = vec![None; n];
            let mut buf = String::new();
            for (i, a) in plan.iter().enumerate() {
                let due = start + a.due;
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                payloads[a.payload].write_line(i, &mut buf);
                let at = Instant::now();
                if stream.write_all(buf.as_bytes()).is_err() {
                    break;
                }
                sent[i] = Some(at);
            }
            (sent, stream)
        });
        let reader = s.spawn(move || {
            let mut replies: Vec<Option<(Instant, Response)>> = (0..n).map(|_| None).collect();
            let mut got = 0;
            let mut reader = BufReader::new(read_half);
            let mut line = String::new();
            while got < n && Instant::now() < give_up {
                match reader.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => {
                        let at = Instant::now();
                        let slot = parse_response(line.trim()).ok().and_then(|resp| {
                            let i = reply_id(&resp)?.strip_prefix('r')?.parse::<usize>().ok()?;
                            (i < n).then_some((i, resp))
                        });
                        if let Some((i, resp)) = slot {
                            if replies[i].is_none() {
                                got += 1;
                            }
                            replies[i] = Some((at, resp));
                        }
                        line.clear();
                    }
                    // A timeout keeps any partial line in `line`.
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                    Err(_) => break,
                }
            }
            replies
        });
        let (sent, stream) = writer.join().expect("load-generator writer panicked");
        let replies = reader.join().expect("load-generator reader panicked");
        drop(stream);
        (sent, replies)
    });
    Ok(plan
        .iter()
        .zip(sent)
        .zip(replies)
        .map(|((a, sent), reply)| Record {
            due: start + a.due,
            sent,
            reply,
        })
        .collect())
}

fn reply_id(resp: &Response) -> Option<&str> {
    match resp {
        Response::Solved(r) => Some(&r.id),
        Response::Rejected { id, .. } | Response::Error { id, .. } => Some(id),
        _ => None,
    }
}

/// Send every payload at once and wait for all replies, in payload
/// order.
fn call_all(addr: SocketAddr, payloads: &[Payload]) -> Result<Vec<SolveResponse>, String> {
    let plan: Vec<Arrival> = (0..payloads.len())
        .map(|payload| Arrival {
            due: Duration::ZERO,
            payload,
        })
        .collect();
    drive(addr, &plan, payloads, Duration::from_secs(120))?
        .into_iter()
        .enumerate()
        .map(|(i, r)| match r.reply {
            Some((_, Response::Solved(s))) if !s.cancelled => Ok(s),
            Some((_, other)) => Err(format!("request {i}: unexpected reply {other:?}")),
            None => Err(format!("request {i}: no reply")),
        })
        .collect()
}

/// One correctly answered request.
#[derive(Debug, Clone)]
struct Sample {
    latency_ms: f64,
    late_ms: f64,
    front_ms: f64,
    ratio: f64,
    cached: bool,
    warm: bool,
    solve: bool,
    /// The answer, compared across passes.
    mapping: Vec<usize>,
    cost: f64,
}

/// What answers are checked against: the bench-side instances, their
/// lower bounds, and the primed answers.
struct Fixture {
    insts: Vec<MappingInstance>,
    lbs: Vec<f64>,
    primed: Vec<SolveResponse>,
}

impl Fixture {
    fn check(&self, payload: &Payload, r: &Record) -> Result<Sample, String> {
        let (at, resp) = r
            .reply
            .as_ref()
            .ok_or("no reply by the end of the phase + 1 s")?;
        let sent = r.sent.ok_or("never sent")?;
        let s = match resp {
            Response::Solved(s) if !s.cancelled => s,
            other => return Err(format!("unexpected reply {other:?}")),
        };
        let inst = &self.insts[payload.inst];
        match &payload.kind {
            Kind::Hit(combo) => {
                if !s.cached {
                    return Err("primed request missed the cache".to_string());
                }
                let p = &self.primed[*combo];
                check::cached(&p.mapping, p.cost, &s.mapping, s.cost)?;
            }
            Kind::Solve => check::mapping(inst, &s.mapping, s.cost)?,
            Kind::Remap(prior) => {
                check::mapping(inst, &s.mapping, s.cost)?;
                let moved = check::hamming(prior, &s.mapping) as u64;
                if s.migrated_tasks != moved {
                    return Err(format!(
                        "remap reports {} migrated, the mapping moved {moved}",
                        s.migrated_tasks
                    ));
                }
            }
        }
        let rtt_ns = at.saturating_duration_since(sent).as_nanos() as f64;
        Ok(Sample {
            latency_ms: at.saturating_duration_since(r.due).as_secs_f64() * 1e3,
            late_ms: sent.saturating_duration_since(r.due).as_secs_f64() * 1e3,
            front_ms: (rtt_ns - (s.queue_wait_ns + s.solve_ns) as f64).max(0.0) / 1e6,
            ratio: s.cost / self.lbs[payload.inst],
            cached: s.cached,
            warm: s.warm,
            solve: matches!(payload.kind, Kind::Solve),
            mapping: s.mapping.clone(),
            cost: s.cost,
        })
    }
}

/// Lay each answered request out as spans: the request from its due
/// time to its reply, the generator's lateness, and the daemon's queue
/// wait and worker time. The daemon reports those two as durations
/// only; they are placed in the middle of the round trip, which keeps
/// their lengths, and so every self time, exact.
fn record_spans(log: &mut SpanLog, records: &[Record]) {
    for (i, r) in records.iter().enumerate() {
        let (Some(sent), Some((at, Response::Solved(s)))) = (r.sent, &r.reply) else {
            continue;
        };
        let (due, sent, at) = (log.ns_at(r.due), log.ns_at(sent), log.ns_at(*at));
        let op = i as u64;
        let root = log.push(None, op, "serve.request", due, at);
        log.push(Some(root), op, "loadgen.lateness", due, sent);
        let daemon = s.queue_wait_ns + s.solve_ns;
        let q0 = sent + (at - sent).saturating_sub(daemon) / 2;
        log.push(Some(root), op, "serve.queue", q0, q0 + s.queue_wait_ns);
        log.push(
            Some(root),
            op,
            "serve.worker",
            q0 + s.queue_wait_ns,
            q0 + daemon,
        );
    }
}

/// Mean over `payloads` of the summed median per-call time, in
/// microseconds, of the daemon's public front-end calls: request decode,
/// instance parse and closure, cache key, and reply encode.
fn codec_us(payloads: &[&Payload], reply: &SolveResponse) -> Result<f64, String> {
    const REPS: usize = 15;
    let mut per_payload = Vec::new();
    let mut line = String::new();
    for p in payloads {
        p.write_line(0, &mut line);
        let mut calls: [Vec<f64>; 4] = Default::default();
        for _ in 0..REPS {
            let (s, req) = timed(|| parse_request(line.trim_end()));
            calls[0].push(s);
            let req = match req.map_err(|e| e.to_string())? {
                Request::Solve(r) => r,
                Request::Remap(r) => r.solve,
                other => return Err(format!("payload decoded as {other:?}")),
            };
            let text = InstanceText {
                tig: req.tig,
                platform: req.platform,
            };
            let (s, built) = timed(|| build(std::slice::from_ref(&text)));
            calls[1].push(s);
            let inst = built?.0.remove(0);
            let (s, _) = timed(|| std::hint::black_box(job_key(&inst, ALGO, p.seed)));
            calls[2].push(s);
            let (s, _) = timed(|| encode_response_line(&Response::Solved(reply.clone())));
            calls[3].push(s);
        }
        per_payload.push(calls.iter().map(|c| median(c)).sum::<f64>());
    }
    Ok(mean(&per_payload) * 1e6)
}

/// A running daemon, and the warm-store file to remove when it stops.
struct Daemon {
    handle: ServerHandle,
    warm_store: Option<PathBuf>,
}

impl Daemon {
    fn start(cfg: &ServeConfig, pass: usize) -> Result<Daemon, String> {
        let mut cfg = cfg.clone();
        if cfg.warm_alpha > 0.0 {
            let path = crate::out_dir()?.join(format!("warm-{}-{pass}.bin", std::process::id()));
            let _ = std::fs::remove_file(&path);
            cfg.warm_store = Some(path);
        }
        let handle = Server::start(cfg.clone()).map_err(|e| format!("daemon start: {e}"))?;
        Ok(Daemon {
            handle,
            warm_store: cfg.warm_store,
        })
    }

    fn stop(self) -> Result<(), String> {
        let stopped = self
            .handle
            .shutdown()
            .map_err(|e| format!("daemon shutdown: {e}"));
        if let Some(path) = self.warm_store {
            let _ = std::fs::remove_file(path);
        }
        stopped.map(drop)
    }
}

fn config(warm_alpha: f64) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        // The load generator's one connection needs one poll loop; an
        // idle second loop would only wake every millisecond.
        io_threads: 1,
        // Deep enough that admission never refuses the planned load: a
        // refusal counts as a failed request.
        queue_cap: 4096,
        cache_cap: 4096,
        warm_alpha,
        // One solver thread per worker: deterministic answers, and the
        // two workers share the host's two cores with the front-end.
        solver_threads: Some(1),
        ..ServeConfig::default()
    }
}

/// One served workload: the daemon's configuration, what primes it, and
/// the arrivals of each pass.
struct Served {
    cfg: ServeConfig,
    prime: Vec<Payload>,
    payloads: Vec<Payload>,
    /// One plan per untraced pass (see [`plans`]); a traced run sends
    /// the first twice.
    plans: Vec<Vec<Arrival>>,
    span: Duration,
    /// Quantile reported as `latency_ms_tail`.
    tail_q: f64,
    /// Least number of daemon start-and-prime cycles (`setup_s` samples).
    setup_reps: usize,
}

/// The plans of a run: the requests `payload_of` lists, in that order in
/// every pass, at arrival times drawn afresh for each pass.
fn plans(
    seed: u64,
    label: &str,
    payload_of: &[usize],
    span: Duration,
    passes: usize,
) -> Vec<Vec<Arrival>> {
    (0..passes)
        .map(|pass| {
            let due = inputs::poisson_schedule(
                &mut inputs::rng(seed, &format!("{label}/arrivals/{pass}")),
                payload_of.len(),
                span,
            );
            due.into_iter()
                .zip(payload_of)
                .map(|(due, &payload)| Arrival { due, payload })
                .collect()
        })
        .collect()
}

/// Run the passes and record the metrics. Untraced: one pass per plan,
/// end-to-end metrics over each request's median replay. Traced: an
/// untraced pass, then a traced one on the same plan for the per-layer
/// metrics; `extra` then runs against the traced pass's daemon.
fn run(
    w: &Served,
    insts: Vec<MappingInstance>,
    log: &mut SpanLog,
    report: &mut Report,
    mut extra: impl FnMut(SocketAddr, &Fixture, &[Sample], &mut Report) -> Result<(), String>,
) -> Result<(), String> {
    let traced = log.enabled();
    let passes = if traced { 2 } else { w.plans.len() };
    let mut fixture = Fixture {
        lbs: insts.iter().map(bijective_lower_bound).collect(),
        insts,
        primed: Vec::new(),
    };
    let mut setups = Vec::new();
    if !traced {
        // Start-and-prime cycles beyond the passes, so that `setup_s` is
        // a median of at least `setup_reps` samples.
        for cycle in passes..w.setup_reps {
            let t = Instant::now();
            let daemon = Daemon::start(&w.cfg, cycle)?;
            let primed = call_all(daemon.handle.local_addr(), &w.prime);
            setups.push(t.elapsed().as_secs_f64());
            daemon.stop()?;
            check_primed(&mut fixture, &w.prime, primed?, report);
        }
    }
    let mut runs: Vec<Vec<Option<Sample>>> = Vec::new();
    for pass in 0..passes {
        let t = Instant::now();
        let daemon = Daemon::start(&w.cfg, pass)?;
        let primed = call_all(daemon.handle.local_addr(), &w.prime);
        setups.push(t.elapsed().as_secs_f64());
        let measured = primed.and_then(|primed| {
            check_primed(&mut fixture, &w.prime, primed, report);
            let plan = &w.plans[if traced { 0 } else { pass }];
            let records = drive(daemon.handle.local_addr(), plan, &w.payloads, w.span)?;
            if traced && pass == 1 {
                record_spans(log, &records);
            }
            let samples = check_pass(&fixture, w, plan, &records, runs.first(), report);
            if traced && pass == 1 {
                let ok: Vec<Sample> = samples.iter().flatten().cloned().collect();
                extra(daemon.handle.local_addr(), &fixture, &ok, report)?;
            }
            Ok(samples)
        });
        daemon.stop()?;
        runs.push(measured?);
    }
    if !traced {
        report.set("setup_s", median(&setups));
        let typical: Vec<f64> = (0..w.plans[0].len())
            .filter_map(|i| {
                let replays: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r[i].as_ref())
                    .map(|s| s.latency_ms)
                    .collect();
                (!replays.is_empty()).then(|| median(&replays))
            })
            .collect();
        report.end_to_end(&typical, w.tail_q);
        let ratios: Vec<f64> = runs[0].iter().flatten().map(|s| s.ratio).collect();
        report.set("et_vs_lb", geomean(&ratios));
        return Ok(());
    }
    let p50 = |r: &[Option<Sample>]| {
        median(&r.iter().flatten().map(|s| s.latency_ms).collect::<Vec<_>>())
    };
    report.set("trace.overhead", p50(&runs[1]) / p50(&runs[0]) - 1.0);
    let samples: Vec<Sample> = runs[1].iter().flatten().cloned().collect();
    record_traced(report, log, &samples, w.plans[0].len());
    Ok(())
}

/// Check one pass's priming answers against the bench-side instances
/// and, after the first pass, against the first pass's answers.
fn check_primed(
    fixture: &mut Fixture,
    prime: &[Payload],
    primed: Vec<SolveResponse>,
    report: &mut Report,
) {
    let first = fixture.primed.is_empty();
    for (i, (p, r)) in prime.iter().zip(&primed).enumerate() {
        let repeated = first
            || (fixture.primed[i].mapping == r.mapping
                && fixture.primed[i].cost.to_bits() == r.cost.to_bits());
        report.outcome(
            check::mapping(&fixture.insts[p.inst], &r.mapping, r.cost).and_then(|()| {
                repeated
                    .then_some(())
                    .ok_or_else(|| "priming answers differ between passes".to_string())
            }),
        );
    }
    if first {
        fixture.primed = primed;
    }
}

/// Check every request of a pass; after the first pass, each answer must
/// also equal the first pass's.
fn check_pass(
    fixture: &Fixture,
    w: &Served,
    plan: &[Arrival],
    records: &[Record],
    first: Option<&Vec<Option<Sample>>>,
    report: &mut Report,
) -> Vec<Option<Sample>> {
    plan.iter()
        .zip(records)
        .enumerate()
        .map(|(i, (a, r))| {
            let checked = fixture.check(&w.payloads[a.payload], r).and_then(|s| {
                match first.and_then(|f| f[i].as_ref()) {
                    Some(f) if f.mapping != s.mapping || f.cost.to_bits() != s.cost.to_bits() => {
                        Err(format!(
                            "request {i} answered differently than in the first pass"
                        ))
                    }
                    _ => Ok(s),
                }
            });
            report.outcome(checked)
        })
        .collect()
}

/// Per-layer metrics of the traced pass.
fn record_traced(report: &mut Report, log: &SpanLog, samples: &[Sample], offered: usize) {
    let wall_ns = log.total_ns("serve.request");
    report.shares(log, "serve.request");
    let front_ns = log.layer_totals().get("serve.request").map_or(0, |t| t.0);
    report.set("serve.front_share", front_ns as f64 / wall_ns.max(1) as f64);
    let n = samples.len().max(1) as f64;
    let count = |f: fn(&Sample) -> bool| samples.iter().filter(|s| f(s)).count() as f64;
    report.set("serve.cache_hit_ratio", count(|s| s.cached) / n);
    let solves = count(|s| s.solve);
    if solves > 0.0 {
        report.set(
            "serve.warm_hit_ratio",
            count(|s| s.solve && s.warm) / solves,
        );
    }
    report.set("loadgen.late_ratio", count(|s| s.late_ms >= 1.0) / n);
    report.set(
        "loadgen.achieved_ratio",
        samples.len() as f64 / offered.max(1) as f64,
    );
}

/// Offline cost of the front-end calls as a share of the median
/// front-end time of the traced pass.
fn record_codec(
    report: &mut Report,
    payloads: &[&Payload],
    fixture: &Fixture,
    samples: &[Sample],
) -> Result<(), String> {
    let codec = codec_us(payloads, &fixture.primed[0])?;
    let front_us = median(&samples.iter().map(|s| s.front_ms).collect::<Vec<_>>()) * 1e3;
    report.set("serve.codec_share_of_front", codec / front_us);
    Ok(())
}

/// `serve-hot`: cache-hit reads only. Every (template, seed) combo is
/// primed; the requests resubmit combos picked uniformly at random.
pub fn serve_hot(
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    log: &mut SpanLog,
    report: &mut Report,
) -> Result<(), String> {
    let texts: Vec<InstanceText> = (0..sizes.hot_templates)
        .map(|i| {
            let n = sizes.hot_sizes[i % sizes.hot_sizes.len()];
            inputs::instance(FIXED_SEED, "serve-hot/template", i, Family::Paper, n)
        })
        .collect();
    let payloads: Vec<Payload> = (0..sizes.hot_templates * sizes.hot_seeds)
        .map(|c| {
            let t = c % sizes.hot_templates;
            Payload::solve(
                &texts[t],
                Kind::Hit(c),
                t,
                derive(seed, "serve-hot/seed", c),
            )
        })
        .collect();
    let span = Duration::from_secs_f64(seconds / HOT_PASSES as f64);
    let count = (sizes.hot_rps * span.as_secs_f64()).round() as usize;
    let mut rng = inputs::rng(seed, "serve-hot/picks");
    let picks: Vec<usize> = (0..count)
        .map(|_| rng.random_range(0..payloads.len()))
        .collect();
    // The daemon parses every payload; the bench-side copies, parsed
    // here, time those calls and check the answers.
    let (insts, _) = build_repeatedly(&texts, sizes.setup_reps, 1, report)?;
    let w = Served {
        cfg: config(0.0),
        prime: payloads.clone(),
        payloads,
        plans: plans(seed, "serve-hot", &picks, span, HOT_PASSES),
        span,
        tail_q: 0.99,
        setup_reps: sizes.setup_reps,
    };
    run(&w, insts, log, report, |addr, fixture, samples, report| {
        let all: Vec<&Payload> = w.payloads.iter().collect();
        record_codec(report, &all, fixture, samples)?;
        let max_rate = ladder(seed, addr, &w.payloads, fixture, sizes, report)?;
        report.set("serve.max_rate_rps", max_rate);
        Ok(())
    })
}

/// Step the offered rate up the ladder and return the highest rate whose
/// step had p99 ≤ 20 ms with every request answered correctly within
/// the step plus one second; stop at the first step that fails.
/// Overload is what the ladder looks for, so a slow or missing reply
/// only ends the climb; a wrong answer still counts against the run.
fn ladder(
    seed: u64,
    addr: SocketAddr,
    payloads: &[Payload],
    fixture: &Fixture,
    sizes: &Sizes,
    report: &mut Report,
) -> Result<f64, String> {
    let combos = payloads.len();
    let span = Duration::from_secs_f64(sizes.ladder_step_s);
    let mut best = 0.0;
    for &rate in sizes.ladder_rps {
        let label = format!("serve-hot/ladder/{rate}");
        let plan = schedule(seed, &label, rate, span, |rng| rng.random_range(0..combos));
        let records = drive(addr, &plan, payloads, span)?;
        let mut ms = Vec::new();
        let mut passed = true;
        for (a, r) in plan.iter().zip(&records) {
            match fixture.check(&payloads[a.payload], r) {
                Ok(s) => ms.push(s.latency_ms),
                Err(e) => {
                    passed = false;
                    if let Some((_, Response::Solved(_))) = &r.reply {
                        report.outcome::<()>(Err(format!("ladder at {rate} rps: {e}")));
                    }
                }
            }
        }
        if !passed || percentile(&ms, 0.99) > LADDER_P99_MS {
            break;
        }
        best = rate;
    }
    Ok(best)
}

/// `serve-mixed`: reads beside writes (see [`MIX`]). Cache hits on
/// primed combos; fresh-seed solves of known templates, which read the
/// warm store; solves of never-seen structures, which solve cold and
/// write both the cache and the warm store; and `remap` requests of a
/// known template from a good earlier placement. Every request that
/// reaches a solver has the same size, `mixed_n`.
///
/// The hit rate puts the median among the fastest solves, where the
/// latency distribution is steep. A run sends its whole request list
/// once, three times as many distinct requests as three replayed passes
/// would: over ten seeds that held the tail's spread to 2–3% against 6%.
/// The list itself is fixed (see [`FIXED_SEED`]); the seed draws the
/// order the requests arrive in and their arrival times.
pub fn serve_mixed(
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    log: &mut SpanLog,
    report: &mut Report,
) -> Result<(), String> {
    let hits = sizes.mixed_hit_templates;
    let known = sizes.mixed_known_templates;
    let mut texts: Vec<InstanceText> = (0..hits)
        .map(|i| {
            let n = sizes.hot_sizes[i % sizes.hot_sizes.len()];
            inputs::instance(FIXED_SEED, "serve-mixed/hit", i, Family::Paper, n)
        })
        .collect();
    texts.extend((0..known).map(|i| {
        inputs::instance(
            FIXED_SEED,
            "serve-mixed/known",
            i,
            Family::Paper,
            sizes.mixed_n,
        )
    }));
    let templates = texts.len();
    let prime: Vec<Payload> = (0..templates)
        .map(|t| {
            let kind = if t < hits { Kind::Hit(t) } else { Kind::Solve };
            Payload::solve(
                &texts[t],
                kind,
                t,
                derive(FIXED_SEED, "serve-mixed/prime-seed", t),
            )
        })
        .collect();
    let (mut insts, _) = build_repeatedly(&texts, sizes.setup_reps, 1, report)?;
    // A re-map starts from the client's current placement: here, a MaTCH
    // mapping of the template under another seed, solved in-process.
    let matcher = Matcher::new(single_thread_ce());
    let placements: Vec<Vec<usize>> = (hits..templates)
        .map(|t| {
            let mut rng = inputs::rng(FIXED_SEED, &format!("serve-mixed/placement/{t}"));
            matcher.run(&insts[t], &mut rng).mapping.as_slice().to_vec()
        })
        .collect();
    let span = Duration::from_secs_f64(seconds);
    let count = (sizes.mixed_rps * span.as_secs_f64()).round() as usize;
    let block: Vec<usize> = (0..MIX.len())
        .flat_map(|k| std::iter::repeat_n(k, MIX[k]))
        .collect();
    // Requests of each kind so far: hits and known templates are taken
    // in rotation.
    let mut taken = [0usize; 4];
    let mut payloads = Vec::with_capacity(count);
    for i in 0..count {
        let kind = block[i % block.len()];
        let turn = taken[kind];
        taken[kind] += 1;
        let s = derive(FIXED_SEED, "serve-mixed/seed", i);
        let known_template = hits + turn % known;
        payloads.push(match kind {
            0 => prime[turn % hits].clone(),
            1 => Payload::solve(&texts[known_template], Kind::Solve, known_template, s),
            2 => {
                let t = texts.len();
                texts.push(inputs::instance(
                    FIXED_SEED,
                    "serve-mixed/new",
                    t,
                    Family::Paper,
                    sizes.mixed_n,
                ));
                Payload::solve(&texts[t], Kind::Solve, t, s)
            }
            _ => {
                let prior = placements[known_template - hits].clone();
                let req = Request::Remap(RemapRequest {
                    solve: solve_request(&texts[known_template], s),
                    prior: prior.clone(),
                    mu: REMAP_MU,
                });
                Payload::new(&req, Kind::Remap(prior), known_template, s)
            }
        });
    }
    insts.extend(build(&texts[templates..])?.0);
    let order = inputs::order(seed, "serve-mixed/order", count);
    let w = Served {
        cfg: config(0.5),
        prime,
        payloads,
        plans: plans(seed, "serve-mixed", &order, span, 1),
        span,
        tail_q: 0.9,
        setup_reps: sizes.setup_reps,
    };
    run(&w, insts, log, report, |_, fixture, samples, report| {
        let sampled: Vec<&Payload> = w
            .payloads
            .iter()
            .step_by((w.payloads.len() / 32).max(1))
            .collect();
        record_codec(report, &sampled, fixture, samples)
    })
}
