//! The JSONL-over-TCP wire protocol.
//!
//! One request per line, one response per line. Requests and responses
//! are flat JSON objects (the only nesting is the `"mapping"` array of
//! resource indices in a solve response). They are written and read with
//! [`match_telemetry::json`], the codec the solver traces use: this
//! module only maps message types onto its writers, parser and getters,
//! and decode failures are its [`ParseError`]. Responses carry the
//! request `id`, so clients may pipeline requests on one connection and
//! match replies out of order.
//!
//! ## Requests
//!
//! ```json
//! {"op":"solve","id":"job-1","algo":"match","seed":7,"deadline_ms":500,
//!  "tig":"# matchkit instance v1\n...","platform":"..."}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! `tig` and `platform` embed the plain-text instance format of
//! `match-graph` (`graph n` / `node i w` / `edge u v w` lines) as JSON
//! strings. `deadline_ms` is optional; when present the solver is
//! cancelled cooperatively once the deadline (measured from admission)
//! expires, and the best-so-far mapping is returned with
//! `"cancelled":true`.
//!
//! ## Responses
//!
//! ```json
//! {"status":"ok","id":"job-1","trace_id":"job-1#0","algo":"MaTCH","seed":7,"cost":41.25,
//!  "cached":false,"cancelled":false,"warm":true,"iterations_saved":37,
//!  "evaluations":20000,"iterations":100,
//!  "queue_wait_ns":1200,"solve_ns":150000000,"mapping":[0,2,1]}
//! {"status":"rejected","id":"job-2","error":"queue full","queue_depth":8,"queue_cap":8}
//! {"status":"error","id":"job-3","error":"unknown algorithm `zen`"}
//! {"status":"stats","jobs":5,"cache_hits":2,"cache_misses":3,"rejected":1,
//!  "cancelled":0,"queue_depth":0,"queue_cap":8,"workers":4}
//! {"status":"metrics","text":"# TYPE match_serve_jobs_total counter\n..."}
//! {"status":"bye"}
//! ```
//!
//! `trace_id` is the daemon-assigned request identity (`{id}#{seq}`):
//! it names the `req:{trace_id}:queue_wait` / `req:{trace_id}:solve`
//! spans in the service trace, so `matchctl report --request` can
//! correlate one response with its trace events. The `metrics` response
//! carries a full Prometheus text exposition snapshot — the same bytes
//! the HTTP `/metrics` side port serves.
//!
//! `rejected` is the admission-control backpressure signal (the HTTP
//! analogue would be 429): the queue was at capacity, and the payload
//! reports the observed depth and the cap so clients can back off
//! proportionally.

use std::fmt::Write as _;

use match_telemetry::json::{parse_object, push_f64, push_str, Object, ParseError};

/// The error a request line that is not UTF-8 is answered with (its id
/// is unreadable, so the reply carries `id: ""`).
pub(crate) const NOT_UTF8: &str = "request line is not valid UTF-8";

/// A solve request: one instance, one algorithm, one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// Client-chosen identifier echoed back in the response.
    pub id: String,
    /// Registered algorithm name (`match`, `ga`, `sa`, `hill`, `polish`,
    /// `greedy`, `random`, `roundrobin`, …).
    pub algo: String,
    /// RNG seed; identical instance + algo + seed is deterministic and
    /// therefore cacheable.
    pub seed: u64,
    /// Optional cooperative deadline in milliseconds from admission.
    pub deadline_ms: Option<u64>,
    /// Optional evaluation backend (`auto` | `scalar` | `simd`) for the
    /// batched pipelines; absent means `auto`. Backends are bit-exact,
    /// so this never changes the returned mapping — or the cache key.
    pub backend: Option<String>,
    /// Task-interaction graph in `match-graph` plain-text form.
    pub tig: String,
    /// Resource graph in `match-graph` plain-text form.
    pub platform: String,
}

/// An incremental re-mapping request: a solve plus a prior mapping to
/// warm-start from and a migration-cost weight μ.
#[derive(Debug, Clone, PartialEq)]
pub struct RemapRequest {
    /// The embedded solve fields (id, algo, seed, deadline, backend,
    /// instance text). Only CE-family algorithms accept `remap`.
    pub solve: SolveRequest,
    /// The prior task→resource assignment to re-map from.
    pub prior: Vec<usize>,
    /// Migration-cost weight: the refined objective is
    /// `ET + μ·(tasks moved off their prior resource)`. Integer on the
    /// wire (the protocol's numbers are `u64`).
    pub mu: u64,
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Solve one instance.
    Solve(SolveRequest),
    /// Incrementally re-map an instance from a prior mapping.
    Remap(RemapRequest),
    /// Report service counters.
    Stats,
    /// Dump the live metrics registry in Prometheus text format.
    Metrics,
    /// Begin graceful shutdown: stop admitting, drain in-flight work.
    Shutdown,
}

/// A completed solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResponse {
    /// Echo of the request id.
    pub id: String,
    /// Daemon-assigned request identity (`{id}#{seq}`), the key for
    /// correlating this solve with its spans in a service trace.
    pub trace_id: String,
    /// The solver's display name (`Mapper::name`).
    pub algo: String,
    /// Echo of the request seed.
    pub seed: u64,
    /// The evaluation backend the solve ran under (`auto` | `scalar` |
    /// `simd`; a cache hit echoes the *requesting* backend — backends
    /// are bit-exact, so cached results are backend-agnostic).
    pub backend: String,
    /// Execution time of the returned mapping (ET, Eq. 2).
    pub cost: f64,
    /// Whether the result came from the LRU cache.
    pub cached: bool,
    /// Whether the solve was truncated by its deadline.
    pub cancelled: bool,
    /// Whether the solve was warm-started from a stored prior
    /// (structure-hash hit in the warm store with `α > 0`).
    pub warm: bool,
    /// CE iterations saved versus the stored cold baseline for this
    /// structure (0 when not warm, or when the warm solve was slower).
    pub iterations_saved: u64,
    /// Objective evaluations performed (0 on a cache hit).
    pub evaluations: u64,
    /// Solver iterations executed (0 on a cache hit).
    pub iterations: u64,
    /// Nanoseconds the job waited in the queue.
    pub queue_wait_ns: u64,
    /// Nanoseconds spent solving (cache lookup time on a hit).
    pub solve_ns: u64,
    /// Tasks assigned to a different resource than the request's prior
    /// mapping (always 0 for plain `solve` requests, which carry no
    /// prior).
    pub migrated_tasks: u64,
    /// Task→resource assignment.
    pub mapping: Vec<usize>,
}

/// Service counters returned by a `stats` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsResponse {
    /// Jobs completed (cache hits included).
    pub jobs: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses (full solves).
    pub cache_misses: u64,
    /// Admissions rejected by backpressure.
    pub rejected: u64,
    /// Solves truncated by their deadline.
    pub cancelled: u64,
    /// Queue depth at the time of the request.
    pub queue_depth: u64,
    /// Configured queue capacity.
    pub queue_cap: u64,
    /// Configured worker count.
    pub workers: u64,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A finished solve (fresh, cached, or deadline-truncated).
    Solved(SolveResponse),
    /// Backpressure: the job queue was full at admission.
    Rejected {
        /// Echo of the request id.
        id: String,
        /// Queue depth observed at rejection.
        queue_depth: u64,
        /// Configured queue capacity.
        queue_cap: u64,
    },
    /// The request could not be processed (parse failure, unknown
    /// algorithm, malformed instance, shutdown in progress, …).
    Error {
        /// Echo of the request id ("" when the id itself was unreadable).
        id: String,
        /// Human-readable reason.
        error: String,
    },
    /// Service counters.
    Stats(StatsResponse),
    /// A Prometheus text exposition snapshot of the live metrics.
    Metrics {
        /// The rendered exposition text (may be empty).
        text: String,
    },
    /// Acknowledgement of a shutdown request.
    Bye,
}

/// Append `[i,j,…]`.
fn push_indices(out: &mut String, xs: &[usize]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{x}");
    }
    out.push(']');
}

fn push_solve_fields(s: &mut String, op: &str, r: &SolveRequest) {
    let _ = write!(s, "{{\"op\":\"{op}\",\"id\":");
    push_str(s, &r.id);
    s.push_str(",\"algo\":");
    push_str(s, &r.algo);
    let _ = write!(s, ",\"seed\":{}", r.seed);
    if let Some(d) = r.deadline_ms {
        let _ = write!(s, ",\"deadline_ms\":{d}");
    }
    if let Some(b) = &r.backend {
        s.push_str(",\"backend\":");
        push_str(s, b);
    }
    s.push_str(",\"tig\":");
    push_str(s, &r.tig);
    s.push_str(",\"platform\":");
    push_str(s, &r.platform);
}

/// Encode a request as a single JSON line (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    let mut s = String::with_capacity(128);
    match req {
        Request::Solve(r) => {
            push_solve_fields(&mut s, "solve", r);
            s.push('}');
        }
        Request::Remap(r) => {
            push_solve_fields(&mut s, "remap", &r.solve);
            let _ = write!(s, ",\"mu\":{},\"prior\":", r.mu);
            push_indices(&mut s, &r.prior);
            s.push('}');
        }
        Request::Stats => s.push_str("{\"op\":\"stats\"}"),
        Request::Metrics => s.push_str("{\"op\":\"metrics\"}"),
        Request::Shutdown => s.push_str("{\"op\":\"shutdown\"}"),
    }
    s
}

/// Encode a request as a newline-terminated wire line, ready to write
/// to a socket as-is. Prefer this over [`encode_request`] when framing:
/// the bare encoder's missing `\n` was an easy way to hang both peers
/// on a read.
pub fn encode_request_line(req: &Request) -> String {
    let mut s = encode_request(req);
    s.push('\n');
    s
}

/// Encode a response as a newline-terminated wire line; the response
/// counterpart of [`encode_request_line`].
pub fn encode_response_line(resp: &Response) -> String {
    let mut s = encode_response(resp);
    s.push('\n');
    s
}

/// Encode a response as a single JSON line (no trailing newline).
pub fn encode_response(resp: &Response) -> String {
    let mut s = String::with_capacity(128);
    match resp {
        Response::Solved(r) => {
            s.push_str("{\"status\":\"ok\",\"id\":");
            push_str(&mut s, &r.id);
            s.push_str(",\"trace_id\":");
            push_str(&mut s, &r.trace_id);
            s.push_str(",\"algo\":");
            push_str(&mut s, &r.algo);
            let _ = write!(s, ",\"seed\":{}", r.seed);
            s.push_str(",\"backend\":");
            push_str(&mut s, &r.backend);
            s.push_str(",\"cost\":");
            push_f64(&mut s, r.cost);
            let _ = write!(
                s,
                ",\"cached\":{},\"cancelled\":{},\"warm\":{},\"iterations_saved\":{},\
                 \"evaluations\":{},\"iterations\":{},\
                 \"queue_wait_ns\":{},\"solve_ns\":{},\"migrated_tasks\":{},\"mapping\":",
                r.cached,
                r.cancelled,
                r.warm,
                r.iterations_saved,
                r.evaluations,
                r.iterations,
                r.queue_wait_ns,
                r.solve_ns,
                r.migrated_tasks
            );
            push_indices(&mut s, &r.mapping);
            s.push('}');
        }
        Response::Rejected {
            id,
            queue_depth,
            queue_cap,
        } => {
            s.push_str("{\"status\":\"rejected\",\"id\":");
            push_str(&mut s, id);
            let _ = write!(
                s,
                ",\"error\":\"queue full\",\"queue_depth\":{queue_depth},\"queue_cap\":{queue_cap}}}"
            );
        }
        Response::Error { id, error } => {
            s.push_str("{\"status\":\"error\",\"id\":");
            push_str(&mut s, id);
            s.push_str(",\"error\":");
            push_str(&mut s, error);
            s.push('}');
        }
        Response::Stats(st) => {
            let _ = write!(
                s,
                "{{\"status\":\"stats\",\"jobs\":{},\"cache_hits\":{},\"cache_misses\":{},\
                 \"rejected\":{},\"cancelled\":{},\"queue_depth\":{},\"queue_cap\":{},\
                 \"workers\":{}}}",
                st.jobs,
                st.cache_hits,
                st.cache_misses,
                st.rejected,
                st.cancelled,
                st.queue_depth,
                st.queue_cap,
                st.workers
            );
        }
        Response::Metrics { text } => {
            s.push_str("{\"status\":\"metrics\",\"text\":");
            push_str(&mut s, text);
            s.push('}');
        }
        Response::Bye => s.push_str("{\"status\":\"bye\"}"),
    }
    s
}

fn parse_solve_fields(obj: &Object) -> Result<SolveRequest, ParseError> {
    Ok(SolveRequest {
        id: obj.string("id")?,
        algo: obj.string("algo")?,
        seed: obj.u64("seed")?,
        deadline_ms: obj.opt_u64("deadline_ms")?,
        backend: obj.opt_string("backend")?,
        tig: obj.string("tig")?,
        platform: obj.string("platform")?,
    })
}

/// Decode one client→server line.
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    let obj = parse_object(line)?;
    match obj.string("op")?.as_str() {
        "solve" => Ok(Request::Solve(parse_solve_fields(&obj)?)),
        "remap" => Ok(Request::Remap(RemapRequest {
            solve: parse_solve_fields(&obj)?,
            prior: obj.indices("prior")?,
            mu: obj.opt_u64("mu")?.unwrap_or(0),
        })),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ParseError::UnknownTag(other.to_string())),
    }
}

/// Decode one server→client line. Fields added after the first wire
/// format (`warm`, `iterations_saved`, `migrated_tasks`) are optional
/// and default to `false`/0, so a new client can read an old server.
pub fn parse_response(line: &str) -> Result<Response, ParseError> {
    let obj = parse_object(line)?;
    match obj.string("status")?.as_str() {
        "ok" => Ok(Response::Solved(SolveResponse {
            id: obj.string("id")?,
            trace_id: obj.string("trace_id")?,
            algo: obj.string("algo")?,
            seed: obj.u64("seed")?,
            backend: obj.string("backend")?,
            cost: obj.f64("cost")?,
            cached: obj.bool("cached")?,
            cancelled: obj.bool("cancelled")?,
            warm: obj.opt_bool("warm")?.unwrap_or(false),
            iterations_saved: obj.opt_u64("iterations_saved")?.unwrap_or(0),
            evaluations: obj.u64("evaluations")?,
            iterations: obj.u64("iterations")?,
            queue_wait_ns: obj.u64("queue_wait_ns")?,
            solve_ns: obj.u64("solve_ns")?,
            migrated_tasks: obj.opt_u64("migrated_tasks")?.unwrap_or(0),
            mapping: obj.indices("mapping")?,
        })),
        "rejected" => Ok(Response::Rejected {
            id: obj.string("id")?,
            queue_depth: obj.u64("queue_depth")?,
            queue_cap: obj.u64("queue_cap")?,
        }),
        "error" => Ok(Response::Error {
            id: obj.string("id")?,
            error: obj.string("error")?,
        }),
        "stats" => Ok(Response::Stats(StatsResponse {
            jobs: obj.u64("jobs")?,
            cache_hits: obj.u64("cache_hits")?,
            cache_misses: obj.u64("cache_misses")?,
            rejected: obj.u64("rejected")?,
            cancelled: obj.u64("cancelled")?,
            queue_depth: obj.u64("queue_depth")?,
            queue_cap: obj.u64("queue_cap")?,
            workers: obj.u64("workers")?,
        })),
        "metrics" => Ok(Response::Metrics {
            text: obj.string("text")?,
        }),
        "bye" => Ok(Response::Bye),
        other => Err(ParseError::UnknownTag(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let line = encode_request(&req);
        let back = parse_request(&line).expect("request round-trip");
        assert_eq!(req, back, "line was: {line}");
    }

    fn roundtrip_response(resp: Response) {
        let line = encode_response(&resp);
        let back = parse_response(&line).expect("response round-trip");
        assert_eq!(resp, back, "line was: {line}");
    }

    #[test]
    fn requests_round_trip() {
        roundtrip_request(Request::Solve(SolveRequest {
            id: "job-1".into(),
            algo: "match".into(),
            seed: 7,
            deadline_ms: Some(500),
            backend: Some("simd".into()),
            tig: "# matchkit instance v1\ngraph 2\nedge 0 1 3.5\n".into(),
            platform: "# matchkit instance v1\ngraph 2\nnode 0 2\nnode 1 1\n".into(),
        }));
        roundtrip_request(Request::Solve(SolveRequest {
            id: "quoted \"id\" with\nnewline".into(),
            algo: "sa".into(),
            seed: u64::MAX,
            deadline_ms: None,
            backend: None,
            tig: String::new(),
            platform: String::new(),
        }));
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn remap_requests_round_trip() {
        roundtrip_request(Request::Remap(RemapRequest {
            solve: SolveRequest {
                id: "job-9".into(),
                algo: "match".into(),
                seed: 11,
                deadline_ms: Some(250),
                backend: Some("auto".into()),
                tig: "# matchkit instance v1\ngraph 2\nedge 0 1 3.5\n".into(),
                platform: "# matchkit instance v1\ngraph 2\nnode 0 2\nnode 1 1\n".into(),
            },
            prior: vec![1, 0],
            mu: 5,
        }));
        // `mu` is optional on the wire and defaults to 0.
        let line = "{\"op\":\"remap\",\"id\":\"a\",\"algo\":\"match\",\"seed\":1,\
                    \"tig\":\"\",\"platform\":\"\",\"prior\":[0,1]}";
        match parse_request(line).unwrap() {
            Request::Remap(r) => {
                assert_eq!(r.mu, 0);
                assert_eq!(r.prior, vec![0, 1]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A remap without a prior is malformed.
        assert!(parse_request(
            "{\"op\":\"remap\",\"id\":\"a\",\"algo\":\"match\",\"seed\":1,\
             \"tig\":\"\",\"platform\":\"\"}"
        )
        .is_err());
    }

    #[test]
    fn line_encoders_terminate_with_exactly_one_newline() {
        for req in [
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
            Request::Solve(SolveRequest {
                id: "x".into(),
                algo: "match".into(),
                seed: 1,
                deadline_ms: None,
                backend: None,
                tig: "a\nb".into(),
                platform: "c".into(),
            }),
        ] {
            let line = encode_request_line(&req);
            assert!(line.ends_with('\n'), "missing newline: {line:?}");
            assert_eq!(
                line.matches('\n').count(),
                1,
                "embedded newline must stay escaped: {line:?}"
            );
            assert_eq!(line.trim_end_matches('\n'), encode_request(&req));
            assert_eq!(parse_request(line.trim()).unwrap(), req);
        }
        let line = encode_response_line(&Response::Bye);
        assert_eq!(line, "{\"status\":\"bye\"}\n");
        assert_eq!(parse_response(line.trim()).unwrap(), Response::Bye);
    }

    #[test]
    fn responses_round_trip() {
        roundtrip_response(Response::Solved(SolveResponse {
            id: "job-1".into(),
            trace_id: "job-1#0".into(),
            algo: "MaTCH".into(),
            seed: 7,
            backend: "simd".into(),
            cost: 41.25,
            cached: false,
            cancelled: true,
            warm: true,
            iterations_saved: 37,
            evaluations: 20_000,
            iterations: 100,
            queue_wait_ns: 1_200,
            solve_ns: 150_000_000,
            migrated_tasks: 2,
            mapping: vec![0, 2, 1],
        }));
        roundtrip_response(Response::Solved(SolveResponse {
            id: "empty".into(),
            trace_id: "empty#42".into(),
            algo: "greedy".into(),
            seed: 0,
            backend: "auto".into(),
            cost: 0.0,
            cached: true,
            cancelled: false,
            warm: false,
            iterations_saved: 0,
            evaluations: 0,
            iterations: 0,
            queue_wait_ns: 0,
            solve_ns: 0,
            migrated_tasks: 0,
            mapping: vec![],
        }));
        roundtrip_response(Response::Rejected {
            id: "job-2".into(),
            queue_depth: 8,
            queue_cap: 8,
        });
        roundtrip_response(Response::Error {
            id: "job-3".into(),
            error: "unknown algorithm `zen`".into(),
        });
        roundtrip_response(Response::Stats(StatsResponse {
            jobs: 5,
            cache_hits: 2,
            cache_misses: 3,
            rejected: 1,
            cancelled: 0,
            queue_depth: 0,
            queue_cap: 8,
            workers: 4,
        }));
        roundtrip_response(Response::Metrics {
            text: "# TYPE match_serve_jobs_total counter\nmatch_serve_jobs_total 5\n".into(),
        });
        roundtrip_response(Response::Bye);
    }

    #[test]
    fn non_finite_cost_round_trips() {
        let line = encode_response(&Response::Solved(SolveResponse {
            id: "inf".into(),
            trace_id: "inf#1".into(),
            algo: "random".into(),
            seed: 1,
            backend: "scalar".into(),
            cost: f64::INFINITY,
            cached: false,
            cancelled: false,
            warm: false,
            iterations_saved: 0,
            evaluations: 1,
            iterations: 1,
            queue_wait_ns: 1,
            solve_ns: 1,
            migrated_tasks: 0,
            mapping: vec![0],
        }));
        match parse_response(&line).unwrap() {
            Response::Solved(r) => assert!(r.cost.is_infinite()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn v1_response_without_warm_fields_still_parses() {
        // Old servers don't emit `warm`/`iterations_saved`; a new
        // client must default them instead of erroring.
        let line = "{\"status\":\"ok\",\"id\":\"a\",\"trace_id\":\"a#0\",\"algo\":\"m\",\
                    \"seed\":1,\"backend\":\"auto\",\"cost\":1,\"cached\":false,\
                    \"cancelled\":false,\"evaluations\":1,\"iterations\":1,\
                    \"queue_wait_ns\":1,\"solve_ns\":1,\"mapping\":[0]}";
        match parse_response(line).unwrap() {
            Response::Solved(r) => {
                assert!(!r.warm);
                assert_eq!(r.iterations_saved, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wire_lines_are_single_line() {
        // The framing invariant: embedded newlines must be escaped.
        let line = encode_request(&Request::Solve(SolveRequest {
            id: "x".into(),
            algo: "match".into(),
            seed: 1,
            deadline_ms: None,
            backend: None,
            tig: "line1\nline2\n".into(),
            platform: "p\n".into(),
        }));
        assert!(!line.contains('\n'), "encoded request spans lines: {line}");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_request("").is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"op\":\"warp\"}").is_err(), "unknown op");
        assert!(
            parse_request("{\"op\":\"solve\"}").is_err(),
            "missing fields"
        );
        assert!(
            parse_request("{\"op\":\"stats\"} trailing").is_err(),
            "trailing data"
        );
        assert!(parse_response("{\"status\":\"weird\"}").is_err());
        assert!(
            parse_response(
                "{\"status\":\"ok\",\"id\":\"a\",\"trace_id\":\"a#0\",\"algo\":\"m\",\"seed\":1,\
                 \"backend\":\"auto\",\"cost\":1,\"cached\":false,\"cancelled\":false,\"evaluations\":1,\"iterations\":1,\
                 \"queue_wait_ns\":1,\"solve_ns\":1,\"mapping\":[1,-2]}"
            )
            .is_err(),
            "negative mapping element"
        );
    }

    #[test]
    fn exact_u64_seed_round_trip() {
        // Seeds above 2^53 would be corrupted by an f64 detour.
        let req = Request::Solve(SolveRequest {
            id: "big".into(),
            algo: "match".into(),
            seed: (1u64 << 62) + 12345,
            deadline_ms: None,
            backend: None,
            tig: String::new(),
            platform: String::new(),
        });
        assert_eq!(parse_request(&encode_request(&req)).unwrap(), req);
    }
}
