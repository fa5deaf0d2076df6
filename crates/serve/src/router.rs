//! `matchctl router` — a consistent-hashing front door over N serve
//! backends.
//!
//! The router speaks the same JSONL protocol as the daemon, so clients
//! do not know it is there. Every solve is keyed by the canonical
//! [`instance_hash`] and routed through a
//! [`SlotRing`] to one backend; repeated submissions of the same
//! instance therefore land on the same shard, where its result cache
//! and warm-start store live. Control operations fan out:
//!
//! - `stats` queries every healthy backend and merges the counters,
//! - `metrics` concatenates the backends' Prometheus snapshots (the
//!   per-backend `shard` label keeps the series distinct),
//! - `shutdown` forwards to every backend, answers `bye`, and stops
//!   the router itself.
//!
//! A health thread probes each configured backend on a fixed interval.
//! A backend that stops accepting connections leaves the ring — moving
//! only its own slots, per the [`SlotRing`] bound — and rejoins when it
//! answers again, so a restarted shard reclaims exactly one fair share.
//!
//! Forwarding is synchronous per client connection (one request, one
//! reply); clients that want concurrency open several connections, as
//! `matchctl submit --concurrency` does. Each client thread keeps one
//! lazily-opened connection per backend, so steady-state routing adds
//! one socket hop and no connection setup.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::client::Client;
use crate::hash::instance_hash;
use crate::protocol::{
    encode_response_line, parse_request, RemapRequest, Request, Response, StatsResponse, NOT_UTF8,
};
use crate::server::parse_instance;
use crate::shard::SlotRing;

/// Router configuration; see `matchctl router` for the CLI surface.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (`:0` picks an ephemeral port).
    pub addr: String,
    /// Backend daemon addresses, e.g. `127.0.0.1:7117`.
    pub backends: Vec<String>,
    /// Health-probe interval.
    pub health_interval: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:7207".to_string(),
            backends: Vec::new(),
            health_interval: Duration::from_millis(500),
        }
    }
}

/// Final router counters returned at shutdown.
#[derive(Debug, Clone)]
pub struct RouterSummary {
    /// Solve requests forwarded to a backend.
    pub routed: u64,
    /// Requests answered with a router-level error (no healthy backend,
    /// backend failure, parse error).
    pub errors: u64,
    /// Router lifetime.
    pub wall: Duration,
}

/// Ring membership under one lock: the health vector and the ring must
/// change together or routing could pick a dead backend forever.
struct Membership {
    healthy: Vec<bool>,
    /// `None` while no backend is healthy.
    ring: Option<SlotRing<SocketAddr>>,
}

struct Shared {
    backends: Vec<SocketAddr>,
    membership: Mutex<Membership>,
    shutdown: AtomicBool,
    routed: AtomicU64,
    errors: AtomicU64,
}

impl Shared {
    /// Route a key to a healthy backend, if any.
    fn route(&self, key: u64) -> Option<SocketAddr> {
        let m = self.membership.lock().expect("membership poisoned");
        m.ring.as_ref().map(|r| *r.route(key))
    }

    fn healthy_addrs(&self) -> Vec<SocketAddr> {
        let m = self.membership.lock().expect("membership poisoned");
        self.backends
            .iter()
            .zip(&m.healthy)
            .filter(|(_, &h)| h)
            .map(|(&a, _)| a)
            .collect()
    }

    /// Record a probe (or forwarding) result for one backend, adjusting
    /// ring membership when its health flips.
    fn set_health(&self, addr: SocketAddr, up: bool) {
        let Some(idx) = self.backends.iter().position(|&a| a == addr) else {
            return;
        };
        let mut m = self.membership.lock().expect("membership poisoned");
        if m.healthy[idx] == up {
            return;
        }
        m.healthy[idx] = up;
        if up {
            match &mut m.ring {
                Some(ring) => {
                    ring.join(addr);
                }
                None => m.ring = Some(SlotRing::new(addr)),
            }
        } else if let Some(ring) = &mut m.ring {
            match ring.members().iter().position(|&a| a == addr) {
                Some(pos) if ring.len() > 1 => {
                    ring.leave(pos);
                }
                Some(_) => m.ring = None,
                None => {}
            }
        }
    }
}

/// The routing front door.
pub struct Router;

impl Router {
    /// Bind, probe the configured backends once, and start routing.
    pub fn start(config: RouterConfig) -> io::Result<RouterHandle> {
        if config.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let mut backends = Vec::with_capacity(config.backends.len());
        for spec in &config.backends {
            let addr = spec.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("backend `{spec}` resolves to no address"),
                )
            })?;
            backends.push(addr);
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shared = Arc::new(Shared {
            backends: backends.clone(),
            membership: Mutex::new(Membership {
                healthy: vec![false; backends.len()],
                ring: None,
            }),
            shutdown: AtomicBool::new(false),
            routed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        });
        // Synchronous first probe so the ring is populated before the
        // first request can arrive.
        for &addr in &backends {
            shared.set_health(addr, probe(addr));
        }

        let clients: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let health = {
            let shared = Arc::clone(&shared);
            let interval = config.health_interval;
            thread::spawn(move || health_loop(&shared, interval))
        };
        let accept = {
            let shared = Arc::clone(&shared);
            let clients = Arc::clone(&clients);
            thread::spawn(move || accept_loop(listener, &shared, &clients))
        };

        Ok(RouterHandle {
            shared,
            local_addr,
            started: Instant::now(),
            accept: Some(accept),
            health: Some(health),
            clients,
        })
    }
}

/// Owner's view of a running router.
pub struct RouterHandle {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    started: Instant,
    accept: Option<JoinHandle<()>>,
    health: Option<JoinHandle<()>>,
    clients: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl RouterHandle {
    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Per-backend health, in configuration order.
    pub fn healthy(&self) -> Vec<bool> {
        self.shared
            .membership
            .lock()
            .expect("membership poisoned")
            .healthy
            .clone()
    }

    /// Whether shutdown has been requested (by a client or the owner).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Ask the router to stop accepting and wind down.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Block until a client requests shutdown, then exit.
    pub fn wait(self) -> io::Result<RouterSummary> {
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(20));
        }
        self.finish()
    }

    /// Request shutdown and exit. Does **not** stop the backends —
    /// send a protocol `shutdown` through the router for that.
    pub fn shutdown(self) -> io::Result<RouterSummary> {
        self.request_shutdown();
        self.finish()
    }

    fn finish(mut self) -> io::Result<RouterSummary> {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(health) = self.health.take() {
            let _ = health.join();
        }
        let handles: Vec<_> = {
            let mut clients = self.clients.lock().expect("clients poisoned");
            clients.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
        Ok(RouterSummary {
            routed: self.shared.routed.load(Ordering::Relaxed),
            errors: self.shared.errors.load(Ordering::Relaxed),
            wall: self.started.elapsed(),
        })
    }
}

/// One connection attempt decides liveness; the serve daemon accepts
/// instantly even when its workers are saturated.
fn probe(addr: SocketAddr) -> bool {
    TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_ok()
}

fn health_loop(shared: &Shared, interval: Duration) {
    let tick = Duration::from_millis(50);
    while !shared.shutdown.load(Ordering::SeqCst) {
        for &addr in &shared.backends {
            shared.set_health(addr, probe(addr));
        }
        // Sleep in short ticks so shutdown is prompt.
        let mut slept = Duration::ZERO;
        while slept < interval && !shared.shutdown.load(Ordering::SeqCst) {
            thread::sleep(tick);
            slept += tick;
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: &Arc<Shared>,
    clients: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                let handle = thread::spawn(move || client_loop(stream, &shared));
                clients.lock().expect("clients poisoned").push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// A lazily-opened forwarding connection to one backend.
struct BackendConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl BackendConn {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(BackendConn { stream, reader })
    }

    /// Forward one raw request line and read the single reply line.
    fn round_trip(&mut self, line: &str) -> io::Result<String> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        let mut reply = String::new();
        loop {
            reply.clear();
            if self.reader.read_line(&mut reply)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "backend closed the connection",
                ));
            }
            if !reply.trim().is_empty() {
                return Ok(reply.trim().to_string());
            }
        }
    }
}

fn client_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut conns: HashMap<SocketAddr, BackendConn> = HashMap::new();
    let mut buf = Vec::new();

    let send = |writer: &mut TcpStream, resp: &Response| {
        writer
            .write_all(encode_response_line(resp).as_bytes())
            .and_then(|()| writer.flush())
            .is_ok()
    };
    let send_error = |writer: &mut TcpStream, shared: &Shared, id: String, error: String| {
        shared.errors.fetch_add(1, Ordering::Relaxed);
        send(writer, &Response::Error { id, error })
    };

    loop {
        // A read that times out mid-line leaves its bytes in `buf`; the
        // next read appends the rest of the line.
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) if buf.is_empty() => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let text = std::str::from_utf8(&buf).map(|t| t.trim().to_string());
        buf.clear();
        let Ok(raw) = text else {
            if !send_error(&mut writer, shared, String::new(), NOT_UTF8.to_string()) {
                return;
            }
            continue;
        };
        if raw.is_empty() {
            continue;
        }
        match parse_request(&raw) {
            Err(e) => {
                if !send_error(&mut writer, shared, String::new(), e.to_string()) {
                    return;
                }
            }
            Ok(Request::Stats) => {
                let merged = merge_stats(&shared.healthy_addrs());
                if !send(&mut writer, &Response::Stats(merged)) {
                    return;
                }
            }
            Ok(Request::Metrics) => {
                let text = concat_metrics(&shared.healthy_addrs());
                if !send(&mut writer, &Response::Metrics { text }) {
                    return;
                }
            }
            Ok(Request::Shutdown) => {
                for addr in shared.healthy_addrs() {
                    if let Ok(mut client) = Client::connect(addr) {
                        let _ = client.shutdown();
                    }
                }
                let _ = send(&mut writer, &Response::Bye);
                shared.shutdown.store(true, Ordering::SeqCst);
                return;
            }
            // Remaps route exactly like solves — by instance hash — so a
            // re-map lands on the shard that warm-started the original.
            Ok(Request::Solve(req)) | Ok(Request::Remap(RemapRequest { solve: req, .. })) => {
                let key = match parse_instance(&req.tig, &req.platform) {
                    Ok(inst) => instance_hash(&inst),
                    Err(e) => {
                        if !send_error(&mut writer, shared, req.id, e) {
                            return;
                        }
                        continue;
                    }
                };
                let Some(addr) = shared.route(key) else {
                    if !send_error(
                        &mut writer,
                        shared,
                        req.id,
                        "no healthy backends".to_string(),
                    ) {
                        return;
                    }
                    continue;
                };
                // One retry through a fresh connection covers a backend
                // that restarted between health probes.
                let reply = forward(&mut conns, addr, &raw).or_else(|_| {
                    conns.remove(&addr);
                    forward(&mut conns, addr, &raw)
                });
                match reply {
                    Ok(reply) => {
                        shared.routed.fetch_add(1, Ordering::Relaxed);
                        if writer
                            .write_all(reply.as_bytes())
                            .and_then(|()| writer.write_all(b"\n"))
                            .and_then(|()| writer.flush())
                            .is_err()
                        {
                            return;
                        }
                    }
                    Err(e) => {
                        conns.remove(&addr);
                        shared.set_health(addr, false);
                        if !send_error(
                            &mut writer,
                            shared,
                            req.id,
                            format!("backend {addr} failed: {e}"),
                        ) {
                            return;
                        }
                    }
                }
            }
        }
    }
}

fn forward(
    conns: &mut HashMap<SocketAddr, BackendConn>,
    addr: SocketAddr,
    raw: &str,
) -> io::Result<String> {
    let conn = match conns.entry(addr) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(e) => e.insert(BackendConn::connect(addr)?),
    };
    conn.round_trip(raw)
}

/// Fan `stats` out to every healthy backend and merge the counters.
/// Unreachable backends contribute nothing (the next health probe will
/// drop them from the ring).
fn merge_stats(addrs: &[SocketAddr]) -> StatsResponse {
    let mut total = StatsResponse {
        jobs: 0,
        cache_hits: 0,
        cache_misses: 0,
        rejected: 0,
        cancelled: 0,
        queue_depth: 0,
        queue_cap: 0,
        workers: 0,
    };
    for &addr in addrs {
        let Ok(mut client) = Client::connect(addr) else {
            continue;
        };
        if let Ok(Response::Stats(s)) = client.stats() {
            total.jobs += s.jobs;
            total.cache_hits += s.cache_hits;
            total.cache_misses += s.cache_misses;
            total.rejected += s.rejected;
            total.cancelled += s.cancelled;
            total.queue_depth += s.queue_depth;
            total.queue_cap += s.queue_cap;
            total.workers += s.workers;
        }
    }
    total
}

/// Concatenate the backends' Prometheus snapshots. The per-backend
/// `shard` label keeps every series distinct, so the only redundancy is
/// repeated `# TYPE` comment lines.
fn concat_metrics(addrs: &[SocketAddr]) -> String {
    let mut out = String::new();
    for &addr in addrs {
        let Ok(mut client) = Client::connect(addr) else {
            continue;
        };
        if let Ok(Response::Metrics { text }) = client.metrics() {
            out.push_str(&text);
        }
    }
    out
}
