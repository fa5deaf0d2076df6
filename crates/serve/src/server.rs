//! The daemon: non-blocking I/O front-end, solver worker pool, and the
//! warm-start seam.
//!
//! ## Thread structure
//!
//! ```text
//!   I/O threads (few) ── poll every client socket ──► parse line → admit job
//!     │      ▲                                             │
//!     │      └── per-connection mpsc ◄── responses ────────┤
//!     │                                                    ▼
//!     │                                  bounded JobQueue (admission control)
//!     │                                                    │
//!     └── thread 0 also accepts            worker pool (N threads)
//!                                            pop → solve → reply
//! ```
//!
//! Admission happens on an I/O thread: parse the instance, validate the
//! algorithm, then [`JobQueue::try_push`]. A full queue is answered
//! immediately with the protocol's `rejected` backpressure response —
//! the connection never blocks on a busy solver pool. Responses travel
//! back through a per-connection mpsc channel drained by the owning I/O
//! thread, so a worker finishing job 3 can reply before job 1 is done
//! (clients match on `id`). Thousands of idle connections cost buffer
//! space, not parked threads — see the crate's `io` module.
//!
//! ## Warm starts
//!
//! With [`ServeConfig::warm_alpha`] > 0, CE-family solves on square
//! instances run through [`Matcher::run_warm_controlled`]: the daemon
//! looks up the instance's *structure hash* (weights quantized/excluded,
//! so near-duplicate graphs hit) in a [`WarmStore`], seeds the CE
//! stochastic matrix as `α·P_prior + (1 − α)·uniform` on a hit, and
//! persists the converged matrix after every *cold* solve. Warm hits
//! report `warm:true` and `iterations_saved` against the stored cold
//! baseline; the baseline entry is never overwritten by a warm solve, so
//! savings stay measured against a true cold start.
//!
//! ## Shutdown
//!
//! A `shutdown` request (or [`ServerHandle::request_shutdown`]) flips
//! the shutdown flag and closes the queue. Closing the queue refuses new
//! admissions but lets workers drain everything already queued — with
//! [`ServeConfig::drain_deadline`] set, a watchdog trips the drain
//! [`StopFlag`] when the drain overruns, cancelling in-flight solves
//! cooperatively instead of blocking shutdown on a slow solve. The warm
//! store is flushed **and fsynced** before the daemon exits.
//!
//! ## Telemetry
//!
//! With a trace path configured the daemon records service-level events
//! through `match-telemetry`: a `queue_wait` and `solve` span plus one
//! `iter` event per job (`iter` = job sequence number), `cache_hit` /
//! `cache_miss` / `rejected` / `cancelled` / `warm_hit` /
//! `iterations_saved` counters, and a `queue_depth` gauge sample at
//! every admission, plus request-scoped `req:{trace_id}:…` spans keyed
//! by the `trace_id` echoed in each solve response.
//!
//! ## Metrics
//!
//! Independent of tracing, every daemon carries a live `match-metrics`
//! registry. All `match_serve_*` series carry a `shard` label
//! ([`ServeConfig::shard`], default `"0"`) so a router can scrape many
//! backends into one dashboard without series collisions. Snapshots are
//! served two ways: the JSONL `{"op":"metrics"}` command and, when
//! [`ServeConfig::metrics_addr`] is set, an HTTP `GET /metrics` side
//! port in Prometheus text format.

use std::fs::File;
use std::io::{self, BufWriter};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use match_core::{
    remap_incremental, EvalBackend, MappingInstance, Matcher, RemapConfig, RemapStrategy, StopFlag,
    StopToken,
};
use match_graph::io::from_text;
use match_graph::{ResourceGraph, TaskGraph};
use match_metrics::{Counter, Gauge, LatencyHistogram, Metrics, MetricsRecorder};
use match_telemetry::{Event, IterEvent, JsonlRecorder, Recorder, SpanEvent};
use match_warmstore::{WarmEntry, WarmStore};

use crate::cache::{CachedResult, LruCache};
use crate::hash::{job_key, structure_hash};
use crate::http;
use crate::io as serve_io;
use crate::protocol::{
    parse_request, RemapRequest, Request, Response, SolveRequest, SolveResponse, StatsResponse,
};
use crate::queue::{JobQueue, PushError};
use crate::solvers;

/// Daemon configuration; see `matchctl serve` for the CLI surface.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7117` (`:0` picks an ephemeral port).
    pub addr: String,
    /// Solver worker threads.
    pub workers: usize,
    /// Connection I/O threads multiplexing all client sockets.
    pub io_threads: usize,
    /// Job queue capacity — the admission-control bound.
    pub queue_cap: usize,
    /// LRU result-cache capacity in entries (0 disables caching).
    pub cache_cap: usize,
    /// Optional JSONL trace file for service telemetry.
    pub trace: Option<PathBuf>,
    /// Optional HTTP side port serving `GET /metrics` Prometheus
    /// scrapes, e.g. `127.0.0.1:9117` (`:0` picks an ephemeral port).
    /// The JSONL `{"op":"metrics"}` command works regardless.
    pub metrics_addr: Option<String>,
    /// Value of the `shard` label on every `match_serve_*` metric
    /// series — set per backend in a sharded deployment.
    pub shard: String,
    /// Warm-start mixing weight `α` in `α·P_prior + (1 − α)·uniform`.
    /// `0` (the default) disables warm starts entirely; the cold path
    /// is then bit-identical to previous releases.
    pub warm_alpha: f64,
    /// Warm-store log path. `None` with `warm_alpha > 0` keeps priors
    /// in memory only (lost at exit).
    pub warm_store: Option<PathBuf>,
    /// Warm-store capacity in entries (LRU beyond this).
    pub warm_cap: usize,
    /// Per-solve thread cap for CE-family solves — lets co-located
    /// shards split one host's cores instead of oversubscribing it.
    /// `None` keeps each solver's own default.
    pub solver_threads: Option<usize>,
    /// Bound on the shutdown drain: when draining queued work takes
    /// longer than this, in-flight solves are cancelled cooperatively
    /// (they still answer, marked `cancelled`). `None` drains without
    /// a bound, as previous releases did.
    pub drain_deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7117".to_string(),
            workers: match_par::default_threads(),
            io_threads: 2,
            queue_cap: 16,
            cache_cap: 256,
            trace: None,
            metrics_addr: None,
            shard: "0".to_string(),
            warm_alpha: 0.0,
            warm_store: None,
            warm_cap: 512,
            solver_threads: None,
            drain_deadline: None,
        }
    }
}

/// Final service counters returned when the daemon exits.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Counter snapshot at shutdown.
    pub stats: StatsResponse,
    /// Daemon lifetime.
    pub wall: Duration,
    /// Trace lines written, when tracing was enabled.
    pub trace_lines: Option<u64>,
    /// Warm-start hits served, when warm starts were enabled.
    pub warm_hits: u64,
}

/// Remap-specific parameters carried alongside a solve job.
struct RemapParams {
    /// The prior task→resource assignment to re-map from.
    prior: Vec<usize>,
    /// Migration-cost weight μ.
    mu: u64,
}

/// One admitted unit of work.
struct Job {
    seq: u64,
    id: String,
    algo: String,
    seed: u64,
    deadline: Option<Duration>,
    backend: EvalBackend,
    inst: MappingInstance,
    key: u64,
    /// Structure hash for the warm store — `Some` only for CE-family
    /// solves on square instances with warm starts enabled.
    skey: Option<u64>,
    /// `Some` for `remap` requests: the prior mapping to warm-start from
    /// and the migration weight. Remap jobs bypass the result cache —
    /// the cache key does not cover the prior.
    remap: Option<RemapParams>,
    enqueued: Instant,
    resp: mpsc::Sender<Response>,
}

/// Trace sink shared across worker and connection threads.
struct TraceSink {
    rec: Mutex<Option<JsonlRecorder<BufWriter<File>>>>,
}

impl TraceSink {
    fn disabled() -> Self {
        TraceSink {
            rec: Mutex::new(None),
        }
    }

    fn create(path: &Path) -> io::Result<Self> {
        Ok(TraceSink {
            rec: Mutex::new(Some(JsonlRecorder::create(path)?)),
        })
    }

    fn record(&self, event: Event) {
        if let Some(rec) = self.rec.lock().expect("trace sink poisoned").as_mut() {
            rec.record(event);
        }
    }

    /// Flush and close the sink; returns lines written (None if disabled).
    fn finish(&self) -> io::Result<Option<u64>> {
        match self.rec.lock().expect("trace sink poisoned").take() {
            Some(rec) => {
                let lines = rec.lines();
                rec.finish()?;
                Ok(Some(lines))
            }
            None => Ok(None),
        }
    }
}

/// Lock-free service counters.
#[derive(Default)]
struct Counters {
    jobs: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
    evaluations: AtomicU64,
    warm_hits: AtomicU64,
}

/// Handles into the live [`Metrics`] registry, resolved once at
/// startup so the request path never takes the registration lock.
/// Per-algorithm latency histograms are the exception: they are keyed
/// by request content, so workers resolve them per job (one short
/// mutex hold against a full solve).
struct ServeMetrics {
    req_solve: Counter,
    req_remap: Counter,
    req_stats: Counter,
    req_metrics: Counter,
    req_shutdown: Counter,
    jobs: Counter,
    rejected: Counter,
    cancelled: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    warm_hits: Counter,
    warm_iterations_saved: Counter,
    queue_depth: Gauge,
    in_flight: Gauge,
    queue_wait: LatencyHistogram,
}

impl ServeMetrics {
    fn new(metrics: &Metrics, shard: &str) -> Self {
        let labelled = |name: &'static str| metrics.counter_with(name, &[("shard", shard)]);
        let req = |op: &str| {
            metrics.counter_with(
                "match_serve_requests_total",
                &[("op", op), ("shard", shard)],
            )
        };
        ServeMetrics {
            req_solve: req("solve"),
            req_remap: req("remap"),
            req_stats: req("stats"),
            req_metrics: req("metrics"),
            req_shutdown: req("shutdown"),
            jobs: labelled("match_serve_jobs_total"),
            rejected: labelled("match_serve_rejected_total"),
            cancelled: labelled("match_serve_cancelled_total"),
            cache_hits: labelled("match_serve_cache_hits_total"),
            cache_misses: labelled("match_serve_cache_misses_total"),
            cache_evictions: labelled("match_serve_cache_evictions_total"),
            warm_hits: labelled("match_serve_warm_hits_total"),
            warm_iterations_saved: labelled("match_serve_warm_iterations_saved_total"),
            queue_depth: metrics.gauge_with("match_serve_queue_depth", &[("shard", shard)]),
            in_flight: metrics.gauge_with("match_serve_in_flight", &[("shard", shard)]),
            queue_wait: metrics.histogram_with("match_serve_queue_wait_ns", &[("shard", shard)]),
        }
    }
}

/// State shared by every thread in the daemon.
struct Ctx {
    queue: JobQueue<Job>,
    cache: Mutex<LruCache>,
    counters: Counters,
    best: Mutex<f64>,
    sink: TraceSink,
    metrics: Metrics,
    sm: ServeMetrics,
    shutdown: AtomicBool,
    seq: AtomicU64,
    workers: usize,
    shard: String,
    warm: Option<WarmStore>,
    warm_alpha: f64,
    solver_threads: Option<usize>,
    drain_flag: StopFlag,
}

impl Ctx {
    fn stats_snapshot(&self) -> StatsResponse {
        StatsResponse {
            jobs: self.counters.jobs.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.counters.cache_misses.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
            queue_depth: self.queue.len() as u64,
            queue_cap: self.queue.capacity() as u64,
            workers: self.workers as u64,
        }
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }
}

/// Parse the embedded instance text into a [`MappingInstance`].
pub(crate) fn parse_instance(tig: &str, platform: &str) -> Result<MappingInstance, String> {
    let tig = from_text(tig)
        .map_err(|e| format!("tig: {e}"))
        .and_then(|g| TaskGraph::new(g).map_err(|e| format!("tig: {e}")))?;
    let platform = from_text(platform)
        .map_err(|e| format!("platform: {e}"))
        .and_then(|g| ResourceGraph::new(g).map_err(|e| format!("platform: {e}")))?;
    Ok(MappingInstance::new(&tig, &platform))
}

/// The mapping-service daemon.
pub struct Server;

impl Server {
    /// Bind, spawn the worker pool and I/O threads, and return a handle.
    pub fn start(config: ServeConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let sink = match &config.trace {
            Some(path) => TraceSink::create(path)?,
            None => TraceSink::disabled(),
        };
        sink.record(Event::RunStart {
            solver: "match-serve".into(),
            tasks: 0,
            resources: 0,
        });

        let metrics = Metrics::new();
        let sm = ServeMetrics::new(&metrics, &config.shard);
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };

        let warm = if config.warm_alpha > 0.0 {
            Some(match &config.warm_store {
                Some(path) => WarmStore::open(path, config.warm_cap.max(1))?,
                None => WarmStore::in_memory(config.warm_cap.max(1)),
            })
        } else {
            None
        };

        let workers = config.workers.max(1);
        let ctx = Arc::new(Ctx {
            queue: JobQueue::new(config.queue_cap.max(1)),
            cache: Mutex::new(LruCache::new(config.cache_cap)),
            counters: Counters::default(),
            best: Mutex::new(f64::INFINITY),
            sink,
            metrics,
            sm,
            shutdown: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            workers,
            shard: config.shard.clone(),
            warm,
            warm_alpha: config.warm_alpha,
            solver_threads: config.solver_threads,
            drain_flag: StopFlag::new(),
        });

        let scrape_thread = metrics_listener.map(|listener| {
            let metrics = ctx.metrics.clone();
            let ctx = Arc::clone(&ctx);
            thread::spawn(move || {
                http::serve_scrapes(listener, metrics, move || {
                    ctx.shutdown.load(Ordering::SeqCst)
                })
            })
        });

        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|_| {
                let ctx = Arc::clone(&ctx);
                thread::spawn(move || {
                    while let Some(job) = ctx.queue.pop() {
                        ctx.sm.queue_depth.set(ctx.queue.len() as i64);
                        ctx.sm.in_flight.inc();
                        process_job(job, &ctx);
                        ctx.sm.in_flight.dec();
                    }
                })
            })
            .collect();

        let io_exit = Arc::new(AtomicBool::new(false));
        let dispatch: serve_io::Dispatch = {
            let ctx = Arc::clone(&ctx);
            Arc::new(move |line, tx| handle_request_line(line, &ctx, tx))
        };
        let io_threads = serve_io::spawn(
            listener,
            config.io_threads.max(1),
            Arc::clone(&io_exit),
            dispatch,
        );

        Ok(ServerHandle {
            ctx,
            local_addr,
            metrics_addr,
            started: Instant::now(),
            drain_deadline: config.drain_deadline,
            worker_handles,
            io_threads,
            io_exit,
            scrape_thread,
        })
    }
}

/// Owner's view of a running daemon.
pub struct ServerHandle {
    ctx: Arc<Ctx>,
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    started: Instant,
    drain_deadline: Option<Duration>,
    worker_handles: Vec<JoinHandle<()>>,
    io_threads: Vec<JoinHandle<()>>,
    io_exit: Arc<AtomicBool>,
    scrape_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound HTTP `/metrics` side-port address, when configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// A clone of the daemon's live metrics handle (always enabled).
    pub fn metrics(&self) -> Metrics {
        self.ctx.metrics.clone()
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> StatsResponse {
        self.ctx.stats_snapshot()
    }

    /// Warm-start hits served so far.
    pub fn warm_hits(&self) -> u64 {
        self.ctx.counters.warm_hits.load(Ordering::Relaxed)
    }

    /// Whether shutdown has been requested (by a client or the owner).
    pub fn shutdown_requested(&self) -> bool {
        self.ctx.shutdown.load(Ordering::SeqCst)
    }

    /// Ask the daemon to stop: no new admissions, drain queued work.
    pub fn request_shutdown(&self) {
        self.ctx.request_shutdown();
    }

    /// Block until a client requests shutdown, then drain and exit.
    pub fn wait(self) -> io::Result<ServeSummary> {
        while !self.ctx.shutdown.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(20));
        }
        self.finish()
    }

    /// Request shutdown, drain in-flight work, and exit.
    pub fn shutdown(self) -> io::Result<ServeSummary> {
        self.ctx.request_shutdown();
        self.finish()
    }

    fn finish(mut self) -> io::Result<ServeSummary> {
        // Bound the drain: if joining the workers overruns the deadline,
        // trip the shared drain flag — every in-flight and queued job's
        // stop token carries it, so solves cancel cooperatively and
        // still answer their clients (marked `cancelled`).
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let watchdog = self.drain_deadline.map(|deadline| {
            let flag = self.ctx.drain_flag.clone();
            thread::spawn(move || {
                if done_rx.recv_timeout(deadline).is_err() {
                    flag.trip();
                }
            })
        });
        // Workers first: they drain the closed queue, completing (and
        // answering) everything admitted before shutdown.
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        let _ = done_tx.send(());
        if let Some(watchdog) = watchdog {
            let _ = watchdog.join();
        }
        // All responses are now sitting in per-connection channels; the
        // I/O threads flush them on their way out.
        self.io_exit.store(true, Ordering::SeqCst);
        for handle in self.io_threads.drain(..) {
            let _ = handle.join();
        }
        if let Some(scrape) = self.scrape_thread.take() {
            let _ = scrape.join();
        }
        // Durability point: everything learned this run is on disk
        // before the process can exit.
        if let Some(warm) = &self.ctx.warm {
            warm.flush()?;
        }
        let stats = self.ctx.stats_snapshot();
        let wall = self.started.elapsed();
        let best = *self.ctx.best.lock().expect("best poisoned");
        self.ctx.sink.record(Event::RunEnd {
            best: if best.is_finite() { best } else { 0.0 },
            iterations: stats.jobs,
            evaluations: self.ctx.counters.evaluations.load(Ordering::Relaxed),
            wall_ns: wall.as_nanos() as u64,
        });
        let trace_lines = self.ctx.sink.finish()?;
        Ok(ServeSummary {
            stats,
            wall,
            trace_lines,
            warm_hits: self.ctx.counters.warm_hits.load(Ordering::Relaxed),
        })
    }
}

/// Dispatch one parsed request line from an I/O thread. Control ops
/// answer inline; solves go through admission control. Never blocks on
/// solver work.
fn handle_request_line(line: &str, ctx: &Arc<Ctx>, tx: &mpsc::Sender<Response>) {
    match parse_request(line) {
        Err(e) => {
            let _ = tx.send(Response::Error {
                id: String::new(),
                error: e.to_string(),
            });
        }
        Ok(Request::Stats) => {
            ctx.sm.req_stats.inc();
            let _ = tx.send(Response::Stats(ctx.stats_snapshot()));
        }
        Ok(Request::Metrics) => {
            ctx.sm.req_metrics.inc();
            let _ = tx.send(Response::Metrics {
                text: ctx.metrics.snapshot().to_prometheus(),
            });
        }
        Ok(Request::Shutdown) => {
            ctx.sm.req_shutdown.inc();
            let _ = tx.send(Response::Bye);
            ctx.request_shutdown();
            // The connection stays open: later solves on it get a
            // clean "shutting down" error instead of a hangup.
        }
        Ok(Request::Solve(req)) => {
            ctx.sm.req_solve.inc();
            admit(req, None, ctx, tx)
        }
        Ok(Request::Remap(RemapRequest { solve, prior, mu })) => {
            ctx.sm.req_remap.inc();
            admit(solve, Some(RemapParams { prior, mu }), ctx, tx)
        }
    }
}

/// Validate a solve or remap request and push it through admission
/// control.
fn admit(req: SolveRequest, remap: Option<RemapParams>, ctx: &Ctx, tx: &mpsc::Sender<Response>) {
    let reject = |error: String| {
        let _ = tx.send(Response::Error {
            id: req.id.clone(),
            error,
        });
    };
    if solvers::build_mapper(&req.algo).is_none() {
        reject(format!(
            "unknown algorithm `{}` (known: {})",
            req.algo,
            solvers::known_algos_list()
        ));
        return;
    }
    if remap.is_some() && !solvers::ce_family(&req.algo) {
        reject(format!(
            "op `remap` needs a CE-family algorithm, got `{}`",
            req.algo
        ));
        return;
    }
    let backend = match req.backend.as_deref() {
        None => EvalBackend::Auto,
        Some(name) => match EvalBackend::parse(name) {
            Some(b) => b,
            None => {
                reject(format!(
                    "unknown backend `{name}` (known: auto, scalar, simd)"
                ));
                return;
            }
        },
    };
    let inst = match parse_instance(&req.tig, &req.platform) {
        Ok(inst) => inst,
        Err(e) => {
            reject(e);
            return;
        }
    };
    if solvers::requires_square(&req.algo) && !inst.is_square() {
        reject(format!(
            "algorithm `{}` needs a square instance, got {} tasks on {} resources",
            req.algo,
            inst.n_tasks(),
            inst.n_resources()
        ));
        return;
    }
    if let Some(rm) = &remap {
        if rm.prior.len() != inst.n_tasks() {
            reject(format!(
                "prior mapping has {} entries, instance has {} tasks",
                rm.prior.len(),
                inst.n_tasks()
            ));
            return;
        }
    }
    let key = job_key(&inst, &req.algo, req.seed);
    // Remap jobs warm-start from the request's prior, not the store.
    let skey = (remap.is_none()
        && ctx.warm.is_some()
        && solvers::ce_family(&req.algo)
        && inst.is_square())
    .then(|| structure_hash(&inst));
    let job = Job {
        seq: ctx.seq.fetch_add(1, Ordering::Relaxed),
        id: req.id.clone(),
        algo: req.algo.clone(),
        seed: req.seed,
        deadline: req.deadline_ms.map(Duration::from_millis),
        backend,
        inst,
        key,
        skey,
        remap,
        enqueued: Instant::now(),
        resp: tx.clone(),
    };
    match ctx.queue.try_push(job) {
        Ok(depth) => {
            ctx.sm.queue_depth.set(depth as i64);
            ctx.sink.record(Event::Sample {
                name: "queue_depth".into(),
                value: depth as u64,
            });
        }
        Err(PushError::Full(depth)) => {
            ctx.counters.rejected.fetch_add(1, Ordering::Relaxed);
            ctx.sm.rejected.inc();
            ctx.sink.record(Event::Counter {
                name: "rejected".into(),
                value: 1,
            });
            let _ = tx.send(Response::Rejected {
                id: req.id.clone(),
                queue_depth: depth as u64,
                queue_cap: ctx.queue.capacity() as u64,
            });
        }
        Err(PushError::Closed) => reject("shutting down".to_string()),
    }
}

/// What one solve produced, however it ran.
struct Solved {
    algo: String,
    cost: f64,
    iterations: u64,
    evaluations: u64,
    mapping: Vec<usize>,
    warm: bool,
    iterations_saved: u64,
}

/// Solve one admitted job on a worker thread.
fn process_job(job: Job, ctx: &Ctx) {
    if job.remap.is_some() {
        return process_remap(job, ctx);
    }
    let queue_wait_ns = job.enqueued.elapsed().as_nanos() as u64;
    let solve_start = Instant::now();
    let trace_id = format!("{}#{}", job.id, job.seq);
    ctx.sm.queue_wait.record(queue_wait_ns);
    let latency = ctx.metrics.histogram_with(
        "match_serve_solve_latency_ns",
        &[("algo", &job.algo), ("shard", &ctx.shard)],
    );

    // Cache first: a hit answers in microseconds with a byte-identical
    // mapping (every registered solver is deterministic in the seed).
    let hit = ctx.cache.lock().expect("cache poisoned").get(job.key);
    if let Some(hit) = hit {
        let solve_ns = solve_start.elapsed().as_nanos() as u64;
        ctx.counters.jobs.fetch_add(1, Ordering::Relaxed);
        ctx.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        ctx.sm.jobs.inc();
        ctx.sm.cache_hits.inc();
        latency.record(solve_ns);
        record_job_events(
            ctx,
            &trace_id,
            job.seq,
            queue_wait_ns,
            solve_ns,
            hit.cost,
            "cache_hit",
        );
        let _ = job.resp.send(Response::Solved(SolveResponse {
            id: job.id,
            trace_id,
            algo: hit.algo,
            seed: job.seed,
            backend: job.backend.as_str().to_string(),
            cost: hit.cost,
            cached: true,
            cancelled: false,
            warm: false,
            iterations_saved: 0,
            evaluations: 0,
            iterations: 0,
            queue_wait_ns,
            solve_ns,
            migrated_tasks: 0,
            mapping: hit.mapping,
        }));
        return;
    }

    // Deadline and drain cancellation share one token: whichever fires
    // first stops the solve cooperatively.
    let stop = {
        let base = StopToken::with_flag(ctx.drain_flag.clone());
        match job.deadline {
            Some(d) => base.and_deadline(job.enqueued + d),
            None => base,
        }
    };
    let mut rng = StdRng::seed_from_u64(job.seed);
    // Bridge solver telemetry (iterations, evaluations, full-vs-delta
    // counters) into the live registry. The recorder seam guarantees
    // the RNG stream is identical with or without a listener, so cached
    // and fresh results stay byte-identical.
    let mut solver_metrics =
        MetricsRecorder::with_backend(&ctx.metrics, &job.algo, job.backend.as_str());

    let solved: Result<Solved, String> = match (job.skey, &ctx.warm) {
        (Some(skey), Some(store)) => {
            // Warm-start seam: CE-family solve through the Matcher's
            // warm API, seeded from the structure-keyed prior when one
            // exists.
            let cfg = solvers::match_config_for(&job.algo, job.backend, ctx.solver_threads)
                .expect("skey is only set for CE-family algos");
            let matcher = Matcher::new(cfg);
            let prior = store.get(skey);
            let alpha = ctx.warm_alpha;
            let n = job.inst.n_tasks();
            let warm = matches!(&prior, Some(e) if e.n == n);
            let run = catch_unwind(AssertUnwindSafe(|| {
                matcher.run_warm_controlled(
                    &job.inst,
                    &mut rng,
                    &mut solver_metrics,
                    &stop,
                    prior.as_ref().map(|e| &e.matrix),
                    alpha,
                )
            }));
            match run {
                Ok((out, converged)) => {
                    let iterations = out.iterations as u64;
                    let iterations_saved = if warm {
                        prior
                            .as_ref()
                            .map_or(0, |e| e.cold_iterations.saturating_sub(iterations))
                    } else {
                        0
                    };
                    // Persist only cold, complete solves: the stored
                    // baseline stays a true cold start, so later warm
                    // hits measure real savings — and truncated runs
                    // never poison the prior.
                    if !warm && !stop.should_stop() {
                        let _ = store.put(
                            skey,
                            WarmEntry {
                                n,
                                cold_iterations: iterations,
                                cost: out.cost,
                                matrix: converged,
                            },
                        );
                    }
                    Ok(Solved {
                        algo: "MaTCH".to_string(),
                        cost: out.cost,
                        iterations,
                        evaluations: out.evaluations,
                        mapping: out.mapping.as_slice().to_vec(),
                        warm,
                        iterations_saved,
                    })
                }
                Err(payload) => Err(panic_message(payload)),
            }
        }
        _ => {
            let Some(mapper) =
                solvers::build_mapper_with(&job.algo, job.backend, ctx.solver_threads)
            else {
                // Unreachable: admission validated the name. Answer anyway.
                let _ = job.resp.send(Response::Error {
                    id: job.id,
                    error: format!("unknown algorithm `{}`", job.algo),
                });
                return;
            };
            let run = catch_unwind(AssertUnwindSafe(|| {
                mapper.map_controlled(&job.inst, &mut rng, &mut solver_metrics, &stop)
            }));
            match run {
                Ok(outcome) => Ok(Solved {
                    algo: mapper.name().to_string(),
                    cost: outcome.cost,
                    iterations: outcome.iterations as u64,
                    evaluations: outcome.evaluations,
                    mapping: outcome.mapping.as_slice().to_vec(),
                    warm: false,
                    iterations_saved: 0,
                }),
                Err(payload) => Err(panic_message(payload)),
            }
        }
    };
    let solved = match solved {
        Ok(solved) => solved,
        Err(msg) => {
            // A solver panic must not kill the worker thread; surface it
            // as a protocol error instead.
            let _ = job.resp.send(Response::Error {
                id: job.id,
                error: format!("solver panicked: {msg}"),
            });
            return;
        }
    };
    let solve_ns = solve_start.elapsed().as_nanos() as u64;
    // Over-approximation: a solve finishing naturally just past its
    // deadline is reported cancelled. That only skips a cache insert,
    // never corrupts a result.
    let cancelled = stop.should_stop();

    ctx.counters.jobs.fetch_add(1, Ordering::Relaxed);
    ctx.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
    ctx.counters
        .evaluations
        .fetch_add(solved.evaluations, Ordering::Relaxed);
    ctx.sm.jobs.inc();
    ctx.sm.cache_misses.inc();
    latency.record(solve_ns);
    if solved.warm {
        ctx.counters.warm_hits.fetch_add(1, Ordering::Relaxed);
        ctx.sm.warm_hits.inc();
        ctx.sm.warm_iterations_saved.add(solved.iterations_saved);
        ctx.sink.record(Event::Counter {
            name: "warm_hit".into(),
            value: 1,
        });
        ctx.sink.record(Event::Counter {
            name: "iterations_saved".into(),
            value: solved.iterations_saved,
        });
    }
    if cancelled {
        ctx.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        ctx.sm.cancelled.inc();
        ctx.sink.record(Event::Counter {
            name: "cancelled".into(),
            value: 1,
        });
    } else {
        // Deadline-truncated results depend on wall-clock timing and
        // would leak nondeterminism into the cache — skip them.
        let evicted = ctx.cache.lock().expect("cache poisoned").put(
            job.key,
            CachedResult {
                mapping: solved.mapping.clone(),
                cost: solved.cost,
                algo: solved.algo.clone(),
            },
        );
        if evicted {
            ctx.sm.cache_evictions.inc();
        }
    }
    {
        let mut best = ctx.best.lock().expect("best poisoned");
        if solved.cost < *best {
            *best = solved.cost;
        }
    }
    record_job_events(
        ctx,
        &trace_id,
        job.seq,
        queue_wait_ns,
        solve_ns,
        solved.cost,
        "cache_miss",
    );
    let _ = job.resp.send(Response::Solved(SolveResponse {
        id: job.id,
        trace_id,
        algo: solved.algo,
        seed: job.seed,
        backend: job.backend.as_str().to_string(),
        cost: solved.cost,
        cached: false,
        cancelled,
        warm: solved.warm,
        iterations_saved: solved.iterations_saved,
        evaluations: solved.evaluations,
        iterations: solved.iterations,
        queue_wait_ns,
        solve_ns,
        migrated_tasks: 0,
        mapping: solved.mapping,
    }));
}

/// Incrementally re-map one admitted `remap` job on a worker thread.
///
/// The prior comes from the request (not the warm store) and the result
/// never enters the cache — the cache key does not cover the prior, and
/// two remaps of the same instance from different priors legitimately
/// differ. Solver telemetry lands in `match_solver_*` series carrying an
/// extra `op="remap"` label so dashboards can split re-maps from solves.
fn process_remap(job: Job, ctx: &Ctx) {
    let queue_wait_ns = job.enqueued.elapsed().as_nanos() as u64;
    let solve_start = Instant::now();
    let trace_id = format!("{}#{}", job.id, job.seq);
    ctx.sm.queue_wait.record(queue_wait_ns);
    let latency = ctx.metrics.histogram_with(
        "match_serve_solve_latency_ns",
        &[("algo", &job.algo), ("shard", &ctx.shard)],
    );
    let rm = job
        .remap
        .as_ref()
        .expect("process_remap needs remap params");

    let stop = {
        let base = StopToken::with_flag(ctx.drain_flag.clone());
        match job.deadline {
            Some(d) => base.and_deadline(job.enqueued + d),
            None => base,
        }
    };
    let mut rng = StdRng::seed_from_u64(job.seed);
    let mut solver_metrics =
        MetricsRecorder::with_op(&ctx.metrics, &job.algo, job.backend.as_str(), "remap");
    let cfg = RemapConfig {
        match_config: solvers::match_config_for(&job.algo, job.backend, ctx.solver_threads)
            .expect("admission restricts remap to CE-family algos"),
        strategy: RemapStrategy::WarmCe,
        mu: rm.mu as f64,
        ..RemapConfig::default()
    };
    // The wire carries no change-list, so refine over every task; the
    // CE warm start already concentrates probability near the prior.
    let changed: Vec<usize> = (0..job.inst.n_tasks()).collect();
    let run = catch_unwind(AssertUnwindSafe(|| {
        remap_incremental(
            &job.inst,
            Some(&rm.prior),
            &changed,
            &cfg,
            &mut rng,
            &mut solver_metrics,
            &stop,
        )
    }));
    let outcome = match run {
        Ok(outcome) => outcome,
        Err(payload) => {
            let _ = job.resp.send(Response::Error {
                id: job.id,
                error: format!("solver panicked: {}", panic_message(payload)),
            });
            return;
        }
    };
    let solve_ns = solve_start.elapsed().as_nanos() as u64;
    let cancelled = stop.should_stop();

    ctx.counters.jobs.fetch_add(1, Ordering::Relaxed);
    ctx.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
    ctx.counters
        .evaluations
        .fetch_add(outcome.evaluations, Ordering::Relaxed);
    ctx.sm.jobs.inc();
    ctx.sm.cache_misses.inc();
    latency.record(solve_ns);
    if cancelled {
        ctx.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        ctx.sm.cancelled.inc();
        ctx.sink.record(Event::Counter {
            name: "cancelled".into(),
            value: 1,
        });
    }
    {
        let mut best = ctx.best.lock().expect("best poisoned");
        if outcome.cost < *best {
            *best = outcome.cost;
        }
    }
    record_job_events(
        ctx,
        &trace_id,
        job.seq,
        queue_wait_ns,
        solve_ns,
        outcome.cost,
        "remap",
    );
    let _ = job.resp.send(Response::Solved(SolveResponse {
        id: job.id,
        trace_id,
        algo: "MaTCH".to_string(),
        seed: job.seed,
        backend: job.backend.as_str().to_string(),
        cost: outcome.cost,
        cached: false,
        cancelled,
        warm: outcome.warm,
        iterations_saved: 0,
        evaluations: outcome.evaluations,
        iterations: outcome.iterations as u64,
        queue_wait_ns,
        solve_ns,
        migrated_tasks: outcome.migrated as u64,
        mapping: outcome.mapping.as_slice().to_vec(),
    }));
}

/// Best-effort text from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string())
}

/// Service-level telemetry for one completed job.
///
/// Aggregate spans (`queue_wait`, `solve`) feed `matchctl report`'s
/// per-phase totals; the request-scoped `req:{trace_id}:…` twins let
/// `matchctl report --request` pull one request's timeline back out of
/// a shared trace file.
#[allow(clippy::too_many_arguments)]
fn record_job_events(
    ctx: &Ctx,
    trace_id: &str,
    seq: u64,
    queue_wait_ns: u64,
    solve_ns: u64,
    cost: f64,
    counter: &'static str,
) {
    ctx.sink.record(Event::Span(SpanEvent {
        name: "queue_wait".into(),
        iter: seq,
        wall_ns: queue_wait_ns,
    }));
    ctx.sink.record(Event::Span(SpanEvent {
        name: "solve".into(),
        iter: seq,
        wall_ns: solve_ns,
    }));
    ctx.sink.record(Event::Span(SpanEvent {
        name: format!("req:{trace_id}:queue_wait").into(),
        iter: seq,
        wall_ns: queue_wait_ns,
    }));
    ctx.sink.record(Event::Span(SpanEvent {
        name: format!("req:{trace_id}:solve").into(),
        iter: seq,
        wall_ns: solve_ns,
    }));
    ctx.sink.record(Event::Iter(IterEvent {
        iter: seq,
        best: cost,
        mean: cost,
        gamma: None,
        elite_size: 0,
        wall_ns: solve_ns,
    }));
    ctx.sink.record(Event::Counter {
        name: counter.into(),
        value: 1,
    });
}
