//! End-to-end daemon tests over a real TCP socket: concurrency across
//! solver kinds, result-cache hits, admission-control backpressure,
//! deadline cancellation, drain-on-shutdown, and trace reporting.

use match_serve::{
    Client, RemapRequest, Request, Response, ServeConfig, Server, ServerHandle, SolveRequest,
};

/// The paper-family instance for `(n, seed)`, in wire (text) format.
fn instance_text(n: usize, seed: u64) -> (String, String) {
    use match_graph::gen::paper::PaperFamilyConfig;
    use match_graph::io::to_text;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let pair = PaperFamilyConfig::new(n).generate(&mut rng);
    (to_text(pair.tig.graph()), to_text(pair.resources.graph()))
}

fn start(workers: usize, queue_cap: usize, cache_cap: usize) -> ServerHandle {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_cap,
        cache_cap,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

fn solve(id: &str, algo: &str, seed: u64, tig: &str, platform: &str) -> Request {
    Request::Solve(SolveRequest {
        id: id.to_string(),
        algo: algo.to_string(),
        seed,
        deadline_ms: None,
        backend: None,
        tig: tig.to_string(),
        platform: platform.to_string(),
    })
}

fn expect_solved(resp: Response) -> match_serve::SolveResponse {
    match resp {
        Response::Solved(r) => r,
        other => panic!("expected Solved, got {other:?}"),
    }
}

#[test]
fn concurrent_requests_across_solver_kinds() {
    let handle = start(4, 64, 64);
    let addr = handle.local_addr();
    let (tig, platform) = instance_text(8, 1);

    // 8 concurrent clients across 4 solver kinds, distinct seeds.
    let algos = ["greedy", "hill", "sa", "roundrobin"];
    let threads: Vec<_> = (0..8)
        .map(|i| {
            let algo = algos[i % algos.len()].to_string();
            let (tig, platform) = (tig.clone(), platform.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let id = format!("c{i}");
                let resp = client
                    .call(&solve(&id, &algo, 100 + i as u64, &tig, &platform))
                    .expect("call");
                let r = expect_solved(resp);
                assert_eq!(r.id, id);
                assert_eq!(r.mapping.len(), 8);
                assert!(r.cost.is_finite() && r.cost > 0.0);
                r
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    let stats = handle.stats();
    assert_eq!(stats.jobs, 8);
    assert_eq!(stats.rejected, 0);
    let summary = handle.shutdown().expect("shutdown");
    assert_eq!(summary.stats.jobs, 8);
}

#[test]
fn backend_choice_is_bit_neutral_and_cache_agnostic() {
    // The evaluation backends are bit-exact, so the daemon keys its
    // result cache on (instance, algo, seed) only: a `simd` solve and a
    // `scalar` resubmission of the same job must return the identical
    // mapping, with the second one served from the cache.
    let handle = start(2, 16, 16);
    let (tig, platform) = instance_text(16, 3);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let with_backend = |id: &str, backend: Option<&str>| {
        Request::Solve(SolveRequest {
            id: id.to_string(),
            algo: "match".to_string(),
            seed: 11,
            deadline_ms: None,
            backend: backend.map(str::to_string),
            tig: tig.clone(),
            platform: platform.clone(),
        })
    };

    let simd = expect_solved(client.call(&with_backend("s", Some("simd"))).expect("simd"));
    assert!(!simd.cached);
    assert_eq!(simd.backend, "simd", "response must echo the backend");

    let scalar = expect_solved(
        client
            .call(&with_backend("c", Some("scalar")))
            .expect("scalar"),
    );
    assert!(scalar.cached, "cache key must ignore the backend");
    assert_eq!(
        scalar.backend, "scalar",
        "hit echoes the *requested* backend"
    );
    assert_eq!(scalar.mapping, simd.mapping);
    assert_eq!(scalar.cost.to_bits(), simd.cost.to_bits());

    let auto = expect_solved(client.call(&with_backend("a", None)).expect("auto"));
    assert!(auto.cached);
    assert_eq!(auto.backend, "auto", "omitted backend defaults to auto");
    assert_eq!(auto.mapping, simd.mapping);

    // Unknown backends are rejected at admission, before any solver work.
    match client
        .call(&with_backend("bad", Some("avx512")))
        .expect("bad")
    {
        Response::Error { id, error } => {
            assert_eq!(id, "bad");
            assert!(error.contains("unknown backend"), "{error}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    handle.shutdown().expect("shutdown");
}

#[test]
fn cache_hit_returns_byte_identical_mapping() {
    let handle = start(2, 16, 16);
    let (tig, platform) = instance_text(7, 2);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let first = expect_solved(
        client
            .call(&solve("a", "hill", 9, &tig, &platform))
            .expect("first"),
    );
    assert!(!first.cached);
    let second = expect_solved(
        client
            .call(&solve("b", "hill", 9, &tig, &platform))
            .expect("second"),
    );
    assert!(second.cached, "identical resubmission must hit the cache");
    assert_eq!(second.mapping, first.mapping, "cache must echo the mapping");
    assert_eq!(second.cost, first.cost);
    assert_eq!(second.evaluations, 0, "a hit does no solver work");

    // A different seed is a different job: miss, possibly different map.
    let third = expect_solved(
        client
            .call(&solve("c", "hill", 10, &tig, &platform))
            .expect("third"),
    );
    assert!(!third.cached);

    let stats = handle.stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 2));
    handle.shutdown().expect("shutdown");
}

#[test]
fn per_seed_determinism_without_cache() {
    // cache_cap = 0 disables the cache, so both runs actually solve.
    let handle = start(2, 16, 0);
    let (tig, platform) = instance_text(7, 3);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let a = expect_solved(
        client
            .call(&solve("a", "sa", 42, &tig, &platform))
            .expect("a"),
    );
    let b = expect_solved(
        client
            .call(&solve("b", "sa", 42, &tig, &platform))
            .expect("b"),
    );
    assert!(!a.cached && !b.cached);
    assert_eq!(a.mapping, b.mapping, "same seed, same mapping");
    assert_eq!(a.cost, b.cost);
    let c = expect_solved(
        client
            .call(&solve("c", "sa", 43, &tig, &platform))
            .expect("c"),
    );
    assert!(!c.cached);
    // (Different seeds may legitimately coincide in the optimum; only
    // check the cost is still a valid finite objective.)
    assert!(c.cost.is_finite());
    handle.shutdown().expect("shutdown");
}

#[test]
fn backpressure_rejects_when_queue_full() {
    // One worker, queue of one: a slow blocker occupies the worker, a
    // second job fills the queue, the rest must be rejected.
    let handle = start(1, 1, 0);
    let (tig, platform) = instance_text(10, 4);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // Pipeline the blocker plus a burst without reading responses.
    let n_burst = 8;
    for i in 0..=n_burst {
        client
            .send(&solve(&format!("j{i}"), "sa", i, &tig, &platform))
            .expect("send");
    }
    let mut solved = 0;
    let mut rejected = 0;
    for _ in 0..=n_burst {
        match client.recv().expect("recv") {
            Response::Solved(_) => solved += 1,
            Response::Rejected {
                queue_depth,
                queue_cap,
                ..
            } => {
                assert_eq!(queue_cap, 1);
                assert!(queue_depth >= 1);
                rejected += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(rejected >= 1, "burst past the queue bound must see 429s");
    assert!(solved >= 1, "admitted work still completes");
    assert_eq!(solved + rejected, n_burst + 1);
    let stats = handle.stats();
    assert_eq!(stats.rejected, rejected);
    handle.shutdown().expect("shutdown");
}

#[test]
fn deadline_cancellation_returns_partial_result() {
    let handle = start(1, 4, 16);
    let (tig, platform) = instance_text(10, 5);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let req = Request::Solve(SolveRequest {
        id: "dl".into(),
        algo: "sa".into(),
        seed: 6,
        deadline_ms: Some(0), // already expired at dequeue
        backend: None,
        tig: tig.clone(),
        platform: platform.clone(),
    });
    let r = expect_solved(client.call(&req).expect("call"));
    assert!(r.cancelled, "an expired deadline must be reported");
    assert_eq!(r.mapping.len(), 10, "best-so-far mapping still returned");
    assert!(r.cost.is_finite());

    // Cancelled results are not cached: resubmitting solves again.
    let r2 = expect_solved(client.call(&req).expect("recall"));
    assert!(!r2.cached);
    let stats = handle.stats();
    assert_eq!(stats.cancelled, 2);
    assert_eq!(stats.cache_hits, 0);
    handle.shutdown().expect("shutdown");
}

#[test]
fn shutdown_drains_admitted_work() {
    let handle = start(2, 16, 0);
    let (tig, platform) = instance_text(9, 6);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let n = 6;
    for i in 0..n {
        client
            .send(&solve(&format!("d{i}"), "sa", i, &tig, &platform))
            .expect("send");
    }
    // Request shutdown immediately: everything admitted must still be
    // answered before the daemon exits.
    client.send(&Request::Shutdown).expect("send shutdown");
    let mut solved = 0;
    let mut bye = false;
    for _ in 0..=n {
        match client.recv().expect("recv during drain") {
            Response::Solved(r) => {
                assert!(!r.mapping.is_empty());
                solved += 1;
            }
            Response::Bye => bye = true,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(bye, "shutdown must be acknowledged");
    assert_eq!(solved, n, "every admitted job is drained");
    let summary = handle.wait().expect("wait");
    assert_eq!(summary.stats.jobs, n);
}

#[test]
fn bad_requests_get_protocol_errors_not_hangups() {
    let handle = start(1, 4, 4);
    let (tig, platform) = instance_text(6, 7);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // Unknown algorithm.
    let resp = client
        .call(&solve("x", "quantum", 1, &tig, &platform))
        .expect("call");
    match resp {
        Response::Error { id, error } => {
            assert_eq!(id, "x");
            assert!(error.contains("unknown algorithm"), "{error}");
            assert!(error.contains("greedy"), "lists known algos: {error}");
        }
        other => panic!("expected Error, got {other:?}"),
    }

    // Unparseable instance.
    let resp = client
        .call(&solve("y", "greedy", 1, "not a graph", &platform))
        .expect("call");
    assert!(matches!(resp, Response::Error { .. }));

    // Rectangular instance for a permutation solver.
    let (tig10, _) = instance_text(10, 8);
    let resp = client
        .call(&solve("z", "match", 1, &tig10, &platform))
        .expect("call");
    match resp {
        Response::Error { error, .. } => assert!(error.contains("square"), "{error}"),
        other => panic!("expected Error, got {other:?}"),
    }

    // The connection is still usable afterwards.
    let r = expect_solved(
        client
            .call(&solve("ok", "greedy", 1, &tig, &platform))
            .expect("call"),
    );
    assert_eq!(r.id, "ok");
    handle.shutdown().expect("shutdown");
}

#[test]
fn malformed_jsonl_line_gets_an_error_and_keeps_the_connection() {
    use match_serve::{encode_request_line, parse_response};
    use std::io::{BufRead, BufReader, Write};

    let handle = start(1, 4, 4);
    let (tig, platform) = instance_text(6, 11);

    // Talk to the daemon over a raw socket so we can violate the
    // protocol: the first line is not JSON at all.
    let stream = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer
        .write_all(b"this is not a protocol line{{{\n")
        .expect("write garbage");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read error reply");
    match parse_response(line.trim()).expect("error reply parses") {
        Response::Error { id, error } => {
            assert_eq!(id, "", "no request id is attributable to garbage");
            assert!(!error.is_empty());
        }
        other => panic!("expected Error, got {other:?}"),
    }

    // The same connection must still serve a well-formed request.
    // encode_request_line is newline-terminated, ready for the wire.
    let req = solve("after-garbage", "greedy", 1, &tig, &platform);
    let wire = encode_request_line(&req);
    assert!(wire.ends_with('\n'), "line encoder must frame the request");
    writer.write_all(wire.as_bytes()).expect("write valid");
    line.clear();
    reader.read_line(&mut line).expect("read solve reply");
    let r = expect_solved(parse_response(line.trim()).expect("reply parses"));
    assert_eq!(r.id, "after-garbage");
    assert_eq!(r.mapping.len(), 6);
    handle.shutdown().expect("shutdown");
}

#[test]
fn deadline_fires_mid_solve_and_result_is_not_cached() {
    // One worker, a long-running GA job (paper config: population 500,
    // 1000 generations — far beyond the deadline), and a deadline that
    // expires after the solve has started: the daemon must return the
    // best-so-far mapping, flag it cancelled, and *not* cache it.
    let handle = start(1, 4, 16);
    let (tig, platform) = instance_text(12, 12);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let req = Request::Solve(SolveRequest {
        id: "mid".into(),
        algo: "ga".into(),
        seed: 3,
        deadline_ms: Some(10),
        backend: None,
        tig: tig.clone(),
        platform: platform.clone(),
    });
    let r = expect_solved(client.call(&req).expect("call"));
    assert!(r.cancelled, "deadline must truncate the GA run");
    assert!(
        r.evaluations > 0,
        "the solve started before the deadline fired"
    );
    assert!(
        r.iterations < 1000,
        "a cancelled run cannot have finished all generations"
    );
    assert_eq!(r.mapping.len(), 12, "best-so-far mapping still returned");
    assert!(r.cost.is_finite());

    // Resubmission must miss the cache (cancelled results are partial).
    let r2 = expect_solved(client.call(&req).expect("recall"));
    assert!(!r2.cached);
    assert!(r2.cancelled);
    let stats = handle.stats();
    assert_eq!(stats.cancelled, 2);
    assert_eq!((stats.cache_hits, stats.cache_misses), (0, 2));
    handle.shutdown().expect("shutdown");
}

#[test]
fn cache_eviction_follows_lru_order() {
    // cache_cap = 2 and three distinct jobs A, B, C (same instance and
    // algorithm, different seeds). Refreshing A before inserting C must
    // evict B, not A.
    let handle = start(1, 8, 2);
    let (tig, platform) = instance_text(6, 13);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let mut submit = |id: &str, seed: u64| {
        expect_solved(
            client
                .call(&solve(id, "greedy", seed, &tig, &platform))
                .expect("call"),
        )
    };

    assert!(!submit("a1", 1).cached); // miss: cache {A}
    assert!(!submit("b1", 2).cached); // miss: cache {A, B}
    assert!(submit("a2", 1).cached); // hit, refreshes A: B is now LRU
    assert!(!submit("c1", 3).cached); // miss, evicts B: cache {A, C}
    assert!(submit("a3", 1).cached, "A must have survived the eviction");
    assert!(
        !submit("b2", 2).cached,
        "B was the least recently used entry and must have been evicted"
    );

    let stats = handle.stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (2, 4));
    assert_eq!(stats.jobs, 6);
    handle.shutdown().expect("shutdown");
}

/// Pull the value of an unlabelled series out of exposition text, or
/// the sum over all label sets when the name is labelled.
fn series_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let base = series.split('{').next().unwrap_or(series);
            (base == name && !series.contains("quantile=")).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

#[test]
fn metrics_op_reports_live_series() {
    let handle = start(2, 8, 8);
    let (tig, platform) = instance_text(7, 21);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // Two distinct solves plus one repeat: 3 jobs, 1 hit, 2 misses.
    for (id, seed) in [("m1", 1u64), ("m2", 2), ("m3", 1)] {
        expect_solved(
            client
                .call(&solve(id, "hill", seed, &tig, &platform))
                .expect("call"),
        );
    }
    // The worker marks the job not-in-flight just *after* sending the
    // response, so poll until the gauge settles instead of racing it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let text = loop {
        let text = match client.metrics().expect("metrics op") {
            Response::Metrics { text } => text,
            other => panic!("expected Metrics, got {other:?}"),
        };
        if series_value(&text, "match_serve_in_flight") == 0.0 {
            break text;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "in_flight never settled:\n{text}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };

    assert_eq!(series_value(&text, "match_serve_jobs_total"), 3.0, "{text}");
    assert_eq!(series_value(&text, "match_serve_cache_hits_total"), 1.0);
    assert_eq!(series_value(&text, "match_serve_cache_misses_total"), 2.0);
    assert!(series_value(&text, "match_serve_requests_total") >= 4.0);
    assert_eq!(series_value(&text, "match_serve_queue_wait_ns_count"), 3.0);
    // Per-algo latency summary: count matches jobs, p50 <= p99.
    assert!(
        text.contains("match_serve_solve_latency_ns{algo=\"hill\",shard=\"0\",quantile=\"0.5\"}"),
        "{text}"
    );
    assert_eq!(
        series_value(&text, "match_serve_solve_latency_ns_count"),
        3.0
    );
    // Solver-side series bridged through the recorder seam.
    assert!(
        series_value(&text, "match_solver_evaluations_total") > 0.0,
        "bridged solver evaluations missing:\n{text}"
    );
    handle.shutdown().expect("shutdown");
}

#[test]
fn multilevel_solve_carries_trace_id_and_labelled_series() {
    // n = 64 exceeds the default coarsen target (48), so the daemon-side
    // multilevel solver actually coarsens, solves coarse, and refines.
    let handle = start(2, 8, 8);
    let (tig, platform) = instance_text(64, 31);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let r = expect_solved(
        client
            .call(&solve("ml", "multilevel", 5, &tig, &platform))
            .expect("call"),
    );
    assert_eq!(r.algo, "multilevel");
    assert!(r.trace_id.starts_with("ml#"), "{}", r.trace_id);
    assert!(r.cost.is_finite() && r.cost > 0.0);
    assert!(r.evaluations > 0);
    // Square instance: the mapping must be a permutation.
    let mut seen = [false; 64];
    for &s in &r.mapping {
        assert!(!seen[s], "duplicate resource {s} in multilevel mapping");
        seen[s] = true;
    }
    // The telemetry→metrics bridge labels solver series by algo.
    let text = match client.metrics().expect("metrics op") {
        Response::Metrics { text } => text,
        other => panic!("expected Metrics, got {other:?}"),
    };
    assert!(
        text.contains("match_solver_iterations_total{algo=\"multilevel\",backend=\"auto\"}"),
        "{text}"
    );
    assert!(
        text.contains("match_solver_evaluations_total{algo=\"multilevel\",backend=\"auto\"}"),
        "{text}"
    );
    assert!(series_value(&text, "match_solver_evaluations_total") > 0.0);
    handle.shutdown().expect("shutdown");
}

#[test]
fn remap_op_reports_migrations_and_labelled_series() {
    let handle = start(2, 8, 8);
    let (tig, platform) = instance_text(12, 51);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // Cold solve first: its mapping becomes the remap's prior.
    let base = expect_solved(
        client
            .call(&solve("base", "match", 5, &tig, &platform))
            .expect("base solve"),
    );
    assert!(!base.cached && base.mapping.len() == 12);
    assert_eq!(base.migrated_tasks, 0, "plain solves carry no prior");

    // Mutate the instance — bump one task's computation weight — and
    // submit a remap carrying the prior mapping.
    let mutated = tig
        .lines()
        .map(|l| {
            if l.starts_with("node 0 ") {
                "node 0 99".to_string()
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    assert_ne!(mutated, tig, "the mutation must change the instance");
    let remap = |id: &str, algo: &str, prior: Vec<usize>| {
        Request::Remap(RemapRequest {
            solve: SolveRequest {
                id: id.to_string(),
                algo: algo.to_string(),
                seed: 6,
                deadline_ms: None,
                backend: None,
                tig: mutated.clone(),
                platform: platform.clone(),
            },
            prior,
            mu: 1,
        })
    };
    let r = expect_solved(
        client
            .call(&remap("re", "match", base.mapping.clone()))
            .expect("remap"),
    );
    assert_eq!(r.id, "re");
    assert!(r.warm, "a valid prior must warm-start the re-map");
    assert!(!r.cached, "remap results never enter the cache");
    assert!(r.cost.is_finite() && r.cost > 0.0);
    // The mapping stays a permutation and migrated_tasks is exactly the
    // Hamming distance from the submitted prior.
    let mut seen = [false; 12];
    for &s in &r.mapping {
        assert!(!seen[s], "duplicate resource {s} in remap mapping");
        seen[s] = true;
    }
    let moved = r
        .mapping
        .iter()
        .zip(&base.mapping)
        .filter(|(a, b)| a != b)
        .count();
    assert_eq!(r.migrated_tasks as usize, moved);

    // Solver series split out by op="remap"; the request counter too.
    let text = match client.metrics().expect("metrics") {
        Response::Metrics { text } => text,
        other => panic!("expected Metrics, got {other:?}"),
    };
    assert!(
        text.contains(
            "match_solver_iterations_total{algo=\"match\",backend=\"auto\",op=\"remap\"}"
        ),
        "{text}"
    );
    assert!(
        text.contains(
            "match_solver_evaluations_total{algo=\"match\",backend=\"auto\",op=\"remap\"}"
        ),
        "{text}"
    );
    assert!(
        text.contains("match_serve_requests_total{op=\"remap\",shard=\"0\"} 1"),
        "{text}"
    );

    // Remap is CE-family only, and the prior must match the instance.
    match client
        .call(&remap("bad-algo", "hill", base.mapping.clone()))
        .expect("bad algo")
    {
        Response::Error { id, error } => {
            assert_eq!(id, "bad-algo");
            assert!(error.contains("CE-family"), "{error}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    match client
        .call(&remap("bad-prior", "match", vec![0, 1, 2]))
        .expect("bad prior")
    {
        Response::Error { id, error } => {
            assert_eq!(id, "bad-prior");
            assert!(error.contains("3 entries"), "{error}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    handle.shutdown().expect("shutdown");
}

#[test]
fn http_side_port_serves_prometheus_scrape() {
    let handle = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_cap: 8,
        cache_cap: 8,
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    })
    .expect("start");
    let metrics_addr = handle.metrics_addr().expect("side port bound");
    let (tig, platform) = instance_text(6, 22);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    expect_solved(
        client
            .call(&solve("h1", "greedy", 1, &tig, &platform))
            .expect("call"),
    );

    let body = match_serve::http_get(&metrics_addr.to_string(), "/metrics").expect("scrape");
    assert!(
        body.contains("# TYPE match_serve_jobs_total counter"),
        "{body}"
    );
    assert_eq!(series_value(&body, "match_serve_jobs_total"), 1.0);
    assert!(body
        .contains("match_serve_solve_latency_ns{algo=\"greedy\",shard=\"0\",quantile=\"0.99\"}"));

    // Scrapes are repeatable and consistent with the JSONL view.
    let again = match_serve::http_get(&metrics_addr.to_string(), "/metrics").expect("rescrape");
    assert_eq!(
        series_value(&again, "match_serve_jobs_total"),
        1.0,
        "scraping must not perturb counters"
    );
    match client.metrics().expect("metrics op") {
        Response::Metrics { text } => {
            assert_eq!(
                series_value(&text, "match_serve_jobs_total"),
                series_value(&again, "match_serve_jobs_total")
            );
        }
        other => panic!("expected Metrics, got {other:?}"),
    }

    // Unknown routes are refused without wedging the scrape thread.
    assert!(match_serve::http_get(&metrics_addr.to_string(), "/nope").is_err());
    let after = match_serve::http_get(&metrics_addr.to_string(), "/metrics").expect("survives");
    assert!(!after.is_empty());
    handle.shutdown().expect("shutdown");
}

#[test]
fn trace_ids_name_request_scoped_spans() {
    use match_telemetry::{read_trace_file, Event};
    let dir = std::env::temp_dir().join(format!(
        "match-serve-traceid-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let trace = dir.join("serve.jsonl");
    let handle = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 8,
        cache_cap: 8,
        trace: Some(trace.clone()),
        ..ServeConfig::default()
    })
    .expect("start");
    let (tig, platform) = instance_text(6, 23);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let r1 = expect_solved(
        client
            .call(&solve("alpha", "greedy", 1, &tig, &platform))
            .expect("a"),
    );
    let r2 = expect_solved(
        client
            .call(&solve("beta", "greedy", 2, &tig, &platform))
            .expect("b"),
    );
    assert!(r1.trace_id.starts_with("alpha#"), "{}", r1.trace_id);
    assert!(r2.trace_id.starts_with("beta#"), "{}", r2.trace_id);
    assert_ne!(r1.trace_id, r2.trace_id);
    handle.shutdown().expect("shutdown");

    // Each response's trace_id names exactly its own span pair.
    let events = read_trace_file(&trace).expect("trace parses");
    for tid in [&r1.trace_id, &r2.trace_id] {
        let spans: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span(s) if s.name.starts_with(&format!("req:{tid}:")) => {
                    Some(s.name.to_string())
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            spans,
            vec![format!("req:{tid}:queue_wait"), format!("req:{tid}:solve")],
            "request {tid} must own one queue_wait + one solve span"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn trace_run_summarises() {
    use match_telemetry::{read_trace_file, Event, TraceSummary};
    let dir = std::env::temp_dir().join(format!(
        "match-serve-e2e-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let trace = dir.join("serve.jsonl");
    let handle = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_cap: 8,
        cache_cap: 8,
        trace: Some(trace.clone()),
        ..ServeConfig::default()
    })
    .expect("start");
    let (tig, platform) = instance_text(7, 9);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for (i, algo) in ["greedy", "hill", "greedy"].iter().enumerate() {
        // The third request repeats the first: one cache hit in trace.
        let r = expect_solved(
            client
                .call(&solve(&format!("t{i}"), algo, 5, &tig, &platform))
                .expect("call"),
        );
        assert_eq!(r.cached, i == 2);
    }
    let summary = handle.shutdown().expect("shutdown");
    assert!(summary.trace_lines.unwrap() > 0);

    let events = read_trace_file(&trace).expect("trace parses");
    assert!(matches!(
        events.first(),
        Some(Event::RunStart { solver, .. }) if solver == "match-serve"
    ));
    assert!(matches!(events.last(), Some(Event::RunEnd { .. })));
    let hits = events
        .iter()
        .filter(|e| matches!(e, Event::Counter { name, .. } if name == "cache_hit"))
        .count();
    assert_eq!(hits, 1);
    let rendered = TraceSummary::from_events(&events).render();
    assert!(rendered.contains("match-serve"), "{rendered}");
    std::fs::remove_dir_all(dir).ok();
}

/// The paper-family instance for `(n, seed)`, as text plus the parsed
/// [`match_core::MappingInstance`] (for client-side ring routing).
fn instance_with_text(n: usize, seed: u64) -> (String, String, match_core::MappingInstance) {
    use match_graph::gen::paper::PaperFamilyConfig;
    use match_graph::io::to_text;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let pair = PaperFamilyConfig::new(n).generate(&mut rng);
    let inst = match_core::MappingInstance::new(&pair.tig, &pair.resources);
    (
        to_text(pair.tig.graph()),
        to_text(pair.resources.graph()),
        inst,
    )
}

#[test]
fn warm_repeat_saves_iterations_and_is_reported() {
    let handle = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        warm_alpha: 0.5,
        ..ServeConfig::default()
    })
    .expect("start");
    let (tig, platform) = instance_text(16, 41);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // Same structure, different seed: a result-cache miss (the job key
    // includes the seed) but a warm-store hit (the structure hash does
    // not), so the second solve starts from the first one's prior.
    let cold = expect_solved(
        client
            .call(&solve("cold", "match-batched", 1, &tig, &platform))
            .expect("cold"),
    );
    assert!(!cold.cached && !cold.warm);
    assert_eq!(cold.iterations_saved, 0);

    let warm = expect_solved(
        client
            .call(&solve("warm", "match-batched", 2, &tig, &platform))
            .expect("warm"),
    );
    assert!(!warm.cached, "different seed must miss the result cache");
    assert!(warm.warm, "same structure must hit the warm store");
    assert!(
        warm.iterations < cold.iterations,
        "warm start must converge in fewer CE iterations ({} vs {})",
        warm.iterations,
        cold.iterations
    );
    assert_eq!(warm.iterations_saved, cold.iterations - warm.iterations);
    // Quality parity: warm may not degrade the objective materially.
    assert!(
        warm.cost <= cold.cost * 1.02,
        "warm cost {} vs cold {}",
        warm.cost,
        cold.cost
    );

    // The warm hit shows up on the shard-labelled metrics surface.
    let text = match client.metrics().expect("metrics") {
        Response::Metrics { text } => text,
        other => panic!("expected Metrics, got {other:?}"),
    };
    assert!(
        text.contains("match_serve_warm_hits_total{shard=\"0\"} 1"),
        "{text}"
    );
    assert!(
        series_value(&text, "match_serve_warm_iterations_saved_total") >= 1.0,
        "{text}"
    );
    let summary = handle.shutdown().expect("shutdown");
    assert_eq!(summary.warm_hits, 1);
}

#[test]
fn first_warm_path_solve_is_bit_identical_to_cold_daemon() {
    // With no prior in the store the warm path seeds the CE matrix with
    // the exact uniform cold start, so a warm-enabled daemon's first
    // solve must be bit-identical to a warm-disabled daemon's.
    let warm_handle = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        warm_alpha: 0.5,
        ..ServeConfig::default()
    })
    .expect("start warm");
    let cold_handle = start(1, 8, 8);
    let (tig, platform) = instance_text(12, 42);
    let mut warm_client = Client::connect(warm_handle.local_addr()).expect("connect");
    let mut cold_client = Client::connect(cold_handle.local_addr()).expect("connect");

    let a = expect_solved(
        warm_client
            .call(&solve("a", "match-batched", 7, &tig, &platform))
            .expect("warm daemon"),
    );
    let b = expect_solved(
        cold_client
            .call(&solve("b", "match-batched", 7, &tig, &platform))
            .expect("cold daemon"),
    );
    assert!(!a.warm, "an empty store cannot produce a warm hit");
    assert_eq!(a.mapping, b.mapping, "warm seam must not perturb the RNG");
    assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.evaluations, b.evaluations);
    warm_handle.shutdown().expect("shutdown warm");
    cold_handle.shutdown().expect("shutdown cold");
}

#[test]
fn warm_store_survives_daemon_restart() {
    let dir = std::env::temp_dir().join(format!(
        "match-serve-warm-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let store = dir.join("warm.log");
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        warm_alpha: 0.5,
        warm_store: Some(store.clone()),
        ..ServeConfig::default()
    };
    let (tig, platform) = instance_text(16, 43);

    // First daemon: one cold solve, then a drain that must flush and
    // fsync the store.
    let handle = Server::start(config.clone()).expect("start 1");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let cold = expect_solved(
        client
            .call(&solve("c", "match-batched", 1, &tig, &platform))
            .expect("cold"),
    );
    assert!(!cold.warm);
    handle.shutdown().expect("shutdown 1");
    assert!(store.exists(), "shutdown must have persisted the log");

    // Second daemon on the same log: the prior is already there.
    let handle = Server::start(config).expect("start 2");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let warm = expect_solved(
        client
            .call(&solve("w", "match-batched", 2, &tig, &platform))
            .expect("warm"),
    );
    assert!(warm.warm, "restarted daemon must warm-start from disk");
    assert!(warm.iterations < cold.iterations);
    handle.shutdown().expect("shutdown 2");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn drain_deadline_bounds_shutdown_of_a_long_job() {
    let handle = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 4,
        cache_cap: 0,
        drain_deadline: Some(std::time::Duration::from_millis(50)),
        ..ServeConfig::default()
    })
    .expect("start");
    let (tig, platform) = instance_text(12, 44);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    // A paper-config GA run takes far longer than the drain bound.
    client
        .send(&solve("long", "ga", 3, &tig, &platform))
        .expect("send");
    // Let the worker pick the job up before shutting down.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let reader = std::thread::spawn(move || client.recv().expect("drained response"));
    let begun = std::time::Instant::now();
    handle.shutdown().expect("shutdown");
    assert!(
        begun.elapsed() < std::time::Duration::from_secs(10),
        "drain deadline must bound shutdown"
    );
    let r = expect_solved(reader.join().expect("reader"));
    assert!(r.cancelled, "the overrunning job is cancelled, not lost");
    assert_eq!(r.mapping.len(), 12, "best-so-far mapping still returned");
}

#[test]
fn shard_pool_routes_consistently_and_aggregates() {
    use match_serve::{instance_hash, ShardPool};
    let pool = ShardPool::start(
        2,
        &ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .expect("pool");
    assert_eq!(pool.len(), 2);

    let mut per_shard = [0u64; 2];
    for seed in 0..6u64 {
        let (tig, platform, inst) = instance_with_text(6, 100 + seed);
        let key = instance_hash(&inst);
        let addr = pool.route_addr(key);
        let shard = (0..2).find(|&i| pool.addr(i) == addr).expect("pool addr");
        per_shard[shard] += 1;
        // Routing is a pure function of the key: re-route agrees.
        assert_eq!(pool.route_addr(key), addr);
        let mut client = Client::connect(addr).expect("connect shard");
        let r = expect_solved(
            client
                .call(&solve(&format!("s{seed}"), "greedy", 1, &tig, &platform))
                .expect("call"),
        );
        assert_eq!(r.mapping.len(), 6);
        // The same instance re-submitted to the same shard hits its cache.
        let again = expect_solved(
            client
                .call(&solve(&format!("r{seed}"), "greedy", 1, &tig, &platform))
                .expect("recall"),
        );
        assert!(again.cached, "instance affinity must keep the cache hot");
    }
    let stats = pool.stats();
    assert_eq!(stats.jobs, 12);
    assert_eq!(stats.cache_hits, 6);
    assert_eq!(stats.workers, 2);

    // Each shard carries its own metrics label.
    for i in 0..2 {
        let mut client = Client::connect(pool.addr(i)).expect("connect");
        let text = match client.metrics().expect("metrics") {
            Response::Metrics { text } => text,
            other => panic!("expected Metrics, got {other:?}"),
        };
        assert!(
            text.contains(&format!("match_serve_jobs_total{{shard=\"{i}\"}}")),
            "shard {i}: {text}"
        );
    }
    let summaries = pool.shutdown().expect("shutdown");
    assert_eq!(summaries.len(), 2);
    assert_eq!(summaries.iter().map(|s| s.stats.jobs).sum::<u64>(), 12);
    assert_eq!(per_shard[0] + per_shard[1], 6);
}

#[test]
fn router_forwards_merges_and_survives_a_backend_death() {
    use match_serve::{Router, RouterConfig};
    let backend_a = start(1, 8, 8);
    let backend_b = start(1, 8, 8);
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends: vec![
            backend_a.local_addr().to_string(),
            backend_b.local_addr().to_string(),
        ],
        health_interval: std::time::Duration::from_millis(100),
    })
    .expect("router");
    assert_eq!(router.healthy(), vec![true, true]);

    let mut client = Client::connect(router.local_addr()).expect("connect router");
    for seed in 0..4u64 {
        let (tig, platform) = instance_text(6, 200 + seed);
        let r = expect_solved(
            client
                .call(&solve(&format!("v{seed}"), "greedy", 1, &tig, &platform))
                .expect("via router"),
        );
        assert_eq!(r.mapping.len(), 6);
    }
    // stats through the router merges both backends' counters.
    match client.stats().expect("stats") {
        Response::Stats(s) => {
            assert_eq!(s.jobs, 4);
            assert_eq!(s.workers, 2);
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    // metrics through the router carries both shard labels.
    match client.metrics().expect("metrics") {
        Response::Metrics { text } => {
            assert!(text.contains("shard=\"0\""), "{text}");
        }
        other => panic!("expected Metrics, got {other:?}"),
    }

    // Kill one backend out from under the router: after a health tick
    // every request lands on the survivor.
    backend_b.shutdown().expect("kill backend b");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while router.healthy()[1] {
        assert!(
            std::time::Instant::now() < deadline,
            "health probe never noticed the dead backend"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    for seed in 0..4u64 {
        let (tig, platform) = instance_text(6, 300 + seed);
        let r = expect_solved(
            client
                .call(&solve(&format!("f{seed}"), "greedy", 1, &tig, &platform))
                .expect("failover"),
        );
        assert_eq!(r.mapping.len(), 6);
    }

    // Shutdown through the router reaches the surviving backend.
    match client.shutdown().expect("shutdown") {
        Response::Bye => {}
        other => panic!("expected Bye, got {other:?}"),
    }
    let summary = router.shutdown().expect("router shutdown");
    assert!(summary.routed >= 8);
    backend_a.wait().expect("backend a drained");
}

#[test]
fn routed_cache_hits_do_not_wait_for_delayed_acks() {
    use match_serve::{Router, RouterConfig};
    use std::time::{Duration, Instant};
    let backend = start(1, 8, 8);
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends: vec![backend.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("router");
    let mut client = Client::connect(router.local_addr()).expect("connect router");
    let (tig, platform) = instance_text(8, 17);
    let req = solve("hot", "greedy", 1, &tig, &platform);
    assert!(!expect_solved(client.call(&req).expect("prime")).cached);

    // A line split over two writes waits out the peer's delayed ACK
    // (40 ms or more on Linux) on each hop; a cache hit should not.
    let mut rtts: Vec<Duration> = (0..20)
        .map(|_| {
            let sent = Instant::now();
            let r = expect_solved(client.call(&req).expect("hit"));
            assert!(r.cached);
            sent.elapsed()
        })
        .collect();
    rtts.sort();
    assert!(rtts[10] < Duration::from_millis(20), "{rtts:?}");
    router.shutdown().expect("router shutdown");
    backend.shutdown().expect("backend shutdown");
}

/// Write `bytes` to `addr` in `piece`-byte writes, half-close, and
/// collect every reply line until the peer closes.
fn replies_to(addr: std::net::SocketAddr, bytes: &[u8], piece: usize) -> Vec<Response> {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    for chunk in bytes.chunks(piece) {
        stream.write_all(chunk).expect("write");
    }
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|line| match_serve::parse_response(&line.expect("read")).expect("reply parses"))
        .collect()
}

/// A line that is not UTF-8, then a valid one.
const NOT_UTF8_PROBE: &[u8] = b"\xff\xfe bad\n{\"op\":\"stats\"}\n";

/// A ~1 MB `stats` request, padded with a field the daemon ignores.
fn megabyte_stats_line() -> Vec<u8> {
    format!("{{\"op\":\"stats\",\"pad\":\"{}\"}}\n", "x".repeat(1 << 20)).into_bytes()
}

fn assert_error_then_stats(replies: &[Response]) {
    assert_eq!(replies.len(), 2, "{replies:?}");
    match &replies[0] {
        Response::Error { id, error } => {
            assert_eq!(id, "");
            assert!(error.contains("UTF-8"), "{error}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    assert!(matches!(replies[1], Response::Stats(_)), "{replies:?}");
}

#[test]
fn non_utf8_line_gets_an_error_and_the_next_line_an_answer() {
    let handle = start(1, 4, 4);
    assert_error_then_stats(&replies_to(handle.local_addr(), NOT_UTF8_PROBE, 4096));
    handle.shutdown().expect("shutdown");
}

#[test]
fn megabyte_line_in_small_writes_is_answered_once() {
    let handle = start(1, 4, 4);
    let replies = replies_to(handle.local_addr(), &megabyte_stats_line(), 4096);
    assert_eq!(replies.len(), 1, "{replies:?}");
    assert!(matches!(replies[0], Response::Stats(_)), "{replies:?}");
    handle.shutdown().expect("shutdown");
}

#[test]
fn router_answers_non_utf8_and_megabyte_lines() {
    use match_serve::{Router, RouterConfig};
    let backend = start(1, 4, 4);
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends: vec![backend.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("router");
    assert_error_then_stats(&replies_to(router.local_addr(), NOT_UTF8_PROBE, 4096));
    let replies = replies_to(router.local_addr(), &megabyte_stats_line(), 4096);
    assert_eq!(replies.len(), 1, "{replies:?}");
    assert!(matches!(replies[0], Response::Stats(_)), "{replies:?}");
    router.shutdown().expect("router shutdown");
    backend.shutdown().expect("backend shutdown");
}

#[test]
fn solver_threads_caps_cold_ce_solves() {
    use match_core::{Mapper, MatchConfig, Matcher};
    use rand::SeedableRng;
    // With no warm store, a `match` solve must still run on the
    // configured thread count: `SamplerMode::Auto` picks its pipeline by
    // thread count at n >= 32, so the answer is the single-threaded
    // matcher's.
    let (tig, platform) = instance_text(32, 5);
    let local = {
        let inst = match_core::MappingInstance::new(
            &match_graph::TaskGraph::new(match_graph::io::from_text(&tig).unwrap()).unwrap(),
            &match_graph::ResourceGraph::new(match_graph::io::from_text(&platform).unwrap())
                .unwrap(),
        );
        // Solve locally while the daemon solves: both take a while in
        // a debug build.
        std::thread::spawn(move || {
            Matcher::new(MatchConfig {
                threads: 1,
                ..MatchConfig::default()
            })
            .map(&inst, &mut rand::rngs::StdRng::seed_from_u64(9))
        })
    };
    let handle = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        solver_threads: Some(1),
        ..ServeConfig::default()
    })
    .expect("start");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let served = expect_solved(
        client
            .call(&solve("t1", "match", 9, &tig, &platform))
            .expect("solve"),
    );
    handle.shutdown().expect("shutdown");
    let local = local.join().expect("local solve");
    assert_eq!(served.mapping, local.mapping.as_slice());
    assert_eq!(served.cost.to_bits(), local.cost.to_bits());
}
