//! The workspace's JSON lines, byte for byte: one pinned line per
//! request, response and trace-event kind, and a seeded mutation sweep
//! showing that no corrupted line panics a decoder and that every line a
//! decoder accepts re-encodes to the same value.

use match_serve::{
    encode_request, encode_response, parse_request, parse_response, RemapRequest, Request,
    Response, SolveRequest, SolveResponse, StatsResponse,
};
use match_telemetry::{parse_line, to_json, Event, IterEvent, PoolEvent, SpanEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Text that exercises every escaping rule: quote, backslash, the named
/// control escapes, a bare control character, non-ASCII and non-BMP.
const AWKWARD: &str = "q\"b\\n\nr\rt\tc\u{1}é😀";

fn requests() -> Vec<Request> {
    vec![
        Request::Solve(SolveRequest {
            id: AWKWARD.into(),
            algo: "match".into(),
            seed: u64::MAX,
            deadline_ms: Some(500),
            backend: Some("simd".into()),
            tig: "# matchkit instance v1\ngraph 2\nedge 0 1 3.5\n".into(),
            platform: "# matchkit instance v1\ngraph 2\nnode 0 2\nnode 1 1\n".into(),
        }),
        Request::Remap(RemapRequest {
            solve: SolveRequest {
                id: "job-9".into(),
                algo: "match-batched".into(),
                seed: 11,
                deadline_ms: None,
                backend: None,
                tig: "graph 3\n".into(),
                platform: "graph 3\n".into(),
            },
            prior: vec![2, 0, 1],
            mu: 5,
        }),
        Request::Stats,
        Request::Metrics,
        Request::Shutdown,
    ]
}

fn solved(id: &str, cost: f64) -> Response {
    Response::Solved(SolveResponse {
        id: id.into(),
        trace_id: format!("{id}#3"),
        algo: "MaTCH".into(),
        seed: 7,
        backend: "auto".into(),
        cost,
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
    })
}

fn responses() -> Vec<Response> {
    vec![
        solved(AWKWARD, 41.25),
        solved("inf", f64::INFINITY),
        Response::Rejected {
            id: "job-2".into(),
            queue_depth: 8,
            queue_cap: 8,
        },
        Response::Error {
            id: String::new(),
            error: format!("unknown algorithm `{AWKWARD}`"),
        },
        Response::Stats(StatsResponse {
            jobs: 5,
            cache_hits: 2,
            cache_misses: 3,
            rejected: 1,
            cancelled: 0,
            queue_depth: 0,
            queue_cap: 8,
            workers: 4,
        }),
        Response::Metrics {
            text: "# TYPE match_serve_jobs_total counter\nmatch_serve_jobs_total{shard=\"0\"} 5\n"
                .into(),
        },
        Response::Bye,
    ]
}

fn events() -> Vec<Event> {
    vec![
        Event::RunStart {
            solver: AWKWARD.to_string().into(),
            tasks: 64,
            resources: 8,
        },
        Event::Iter(IterEvent {
            iter: 3,
            best: 0.1,
            mean: f64::NEG_INFINITY,
            gamma: Some(1e-7),
            elite_size: 10,
            wall_ns: 123_456,
        }),
        Event::Iter(IterEvent {
            iter: 4,
            best: -0.0,
            mean: 1e21,
            gamma: None,
            elite_size: 0,
            wall_ns: 0,
        }),
        Event::Span(SpanEvent {
            name: "req:a#0:solve".into(),
            iter: 7,
            wall_ns: 999,
        }),
        Event::Pool(PoolEvent {
            iter: 1,
            chunk: 2,
            len: 128,
            wall_ns: 5_000,
        }),
        Event::Counter {
            name: "evaluations".into(),
            value: u64::MAX,
        },
        Event::Sample {
            name: "queue_depth".into(),
            value: 17,
        },
        Event::RunEnd {
            best: f64::NAN,
            iterations: 100,
            evaluations: 100_000,
            wall_ns: 42,
        },
    ]
}

const PINNED_REQUESTS: [&str; 5] = [
    r##"{"op":"solve","id":"q\"b\\n\nr\rt\tc\u0001é😀","algo":"match","seed":18446744073709551615,"deadline_ms":500,"backend":"simd","tig":"# matchkit instance v1\ngraph 2\nedge 0 1 3.5\n","platform":"# matchkit instance v1\ngraph 2\nnode 0 2\nnode 1 1\n"}"##,
    r##"{"op":"remap","id":"job-9","algo":"match-batched","seed":11,"tig":"graph 3\n","platform":"graph 3\n","mu":5,"prior":[2,0,1]}"##,
    r##"{"op":"stats"}"##,
    r##"{"op":"metrics"}"##,
    r##"{"op":"shutdown"}"##,
];

const PINNED_RESPONSES: [&str; 7] = [
    r##"{"status":"ok","id":"q\"b\\n\nr\rt\tc\u0001é😀","trace_id":"q\"b\\n\nr\rt\tc\u0001é😀#3","algo":"MaTCH","seed":7,"backend":"auto","cost":41.25,"cached":false,"cancelled":true,"warm":true,"iterations_saved":37,"evaluations":20000,"iterations":100,"queue_wait_ns":1200,"solve_ns":150000000,"migrated_tasks":2,"mapping":[0,2,1]}"##,
    r##"{"status":"ok","id":"inf","trace_id":"inf#3","algo":"MaTCH","seed":7,"backend":"auto","cost":"inf","cached":false,"cancelled":true,"warm":true,"iterations_saved":37,"evaluations":20000,"iterations":100,"queue_wait_ns":1200,"solve_ns":150000000,"migrated_tasks":2,"mapping":[0,2,1]}"##,
    r##"{"status":"rejected","id":"job-2","error":"queue full","queue_depth":8,"queue_cap":8}"##,
    r##"{"status":"error","id":"","error":"unknown algorithm `q\"b\\n\nr\rt\tc\u0001é😀`"}"##,
    r##"{"status":"stats","jobs":5,"cache_hits":2,"cache_misses":3,"rejected":1,"cancelled":0,"queue_depth":0,"queue_cap":8,"workers":4}"##,
    r##"{"status":"metrics","text":"# TYPE match_serve_jobs_total counter\nmatch_serve_jobs_total{shard=\"0\"} 5\n"}"##,
    r##"{"status":"bye"}"##,
];

const PINNED_EVENTS: [&str; 8] = [
    r##"{"ev":"run_start","solver":"q\"b\\n\nr\rt\tc\u0001é😀","tasks":64,"resources":8}"##,
    r##"{"ev":"iter","iter":3,"best":0.1,"mean":"-inf","gamma":0.0000001,"elite_size":10,"wall_ns":123456}"##,
    r##"{"ev":"iter","iter":4,"best":-0,"mean":1000000000000000000000,"gamma":null,"elite_size":0,"wall_ns":0}"##,
    r##"{"ev":"span","name":"req:a#0:solve","iter":7,"wall_ns":999}"##,
    r##"{"ev":"pool","iter":1,"chunk":2,"len":128,"wall_ns":5000}"##,
    r##"{"ev":"counter","name":"evaluations","value":18446744073709551615}"##,
    r##"{"ev":"sample","name":"queue_depth","value":17}"##,
    r##"{"ev":"run_end","best":"nan","iterations":100,"evaluations":100000,"wall_ns":42}"##,
];

#[test]
fn encoded_lines_are_pinned() {
    let lines: Vec<String> = requests().iter().map(encode_request).collect();
    assert_eq!(lines, PINNED_REQUESTS);
    let lines: Vec<String> = responses().iter().map(encode_response).collect();
    assert_eq!(lines, PINNED_RESPONSES);
    let lines: Vec<String> = events().iter().map(to_json).collect();
    assert_eq!(lines, PINNED_EVENTS);
}

/// Replacement characters for the sweep: JSON punctuation, the first
/// characters of numbers and keywords, `u` (as in `\u`), a two-byte and a
/// four-byte character, and a raw newline.
const SUBSTITUTES: [&str; 17] = [
    "\"", "\\", "{", "}", "[", "]", ",", ":", "-", "0", "n", "t", "f", "u", "é", "😀", "\n",
];

/// Every truncation at a char boundary, every single-char deletion and
/// every single-char substitution of `line`.
fn mutations(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (at, c) in line.char_indices() {
        let (head, tail) = (&line[..at], &line[at + c.len_utf8()..]);
        out.push(head.to_string());
        out.push(format!("{head}{tail}"));
        out.extend(SUBSTITUTES.iter().map(|s| format!("{head}{s}{tail}")));
    }
    out
}

/// Seeded text drawn from an alphabet heavy in characters that need
/// escaping.
fn random_text(rng: &mut StdRng) -> String {
    const ALPHABET: [&str; 10] = ["a", "Z", "7", " ", "\"", "\\", "\n", "\u{1}", "é", "😀"];
    (0..rng.random_range(0..6usize))
        .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
        .collect()
}

fn random_f64(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..5u32) {
        0 => f64::INFINITY,
        1 => f64::NAN,
        2 => -0.0,
        3 => f64::from_bits(rng.random::<u64>() >> 2),
        _ => rng.random::<f64>() * 1e3,
    }
}

fn random_request(rng: &mut StdRng) -> Request {
    let solve = SolveRequest {
        id: random_text(rng),
        algo: random_text(rng),
        seed: rng.random::<u64>(),
        deadline_ms: rng.random_bool(0.5).then(|| rng.random_range(0..1000u64)),
        backend: rng.random_bool(0.5).then(|| random_text(rng)),
        tig: random_text(rng),
        platform: random_text(rng),
    };
    if rng.random_bool(0.5) {
        Request::Solve(solve)
    } else {
        Request::Remap(RemapRequest {
            solve,
            prior: (0..rng.random_range(0..4usize))
                .map(|_| rng.random_range(0..100usize))
                .collect(),
            mu: rng.random::<u64>(),
        })
    }
}

fn random_response(rng: &mut StdRng) -> Response {
    match rng.random_range(0..3u32) {
        0 => {
            let mut resp = solved(&random_text(rng), random_f64(rng));
            if let Response::Solved(r) = &mut resp {
                r.seed = rng.random::<u64>();
                r.cached = rng.random_bool(0.5);
            }
            resp
        }
        1 => Response::Error {
            id: random_text(rng),
            error: random_text(rng),
        },
        _ => Response::Metrics {
            text: random_text(rng),
        },
    }
}

fn random_event(rng: &mut StdRng) -> Event {
    if rng.random_bool(0.5) {
        Event::Iter(IterEvent {
            iter: rng.random::<u64>(),
            best: random_f64(rng),
            mean: random_f64(rng),
            gamma: rng.random_bool(0.5).then(|| random_f64(rng)),
            elite_size: rng.random_range(0..100u64),
            wall_ns: rng.random::<u64>(),
        })
    } else {
        Event::RunStart {
            solver: random_text(rng).into(),
            tasks: rng.random::<u64>(),
            resources: rng.random_range(0..100u64),
        }
    }
}

/// A float's bit pattern, leaving 0.0 in its place.
fn take_bits(v: &mut f64) -> Option<u64> {
    Some(std::mem::replace(v, 0.0).to_bits())
}

/// A response with its float replaced by its bit pattern, so that
/// equality compares floats by bits.
fn response_by_bits(mut resp: Response) -> (Response, Option<u64>) {
    let bits = match &mut resp {
        Response::Solved(r) => take_bits(&mut r.cost),
        _ => None,
    };
    (resp, bits)
}

/// An event with its floats replaced by their bit patterns.
fn event_by_bits(mut event: Event) -> (Event, Vec<Option<u64>>) {
    let bits = match &mut event {
        Event::Iter(it) => vec![
            take_bits(&mut it.best),
            take_bits(&mut it.mean),
            it.gamma.as_mut().and_then(take_bits),
        ],
        Event::RunEnd { best, .. } => vec![take_bits(best)],
        _ => Vec::new(),
    };
    (event, bits)
}

#[test]
fn mutated_lines_never_panic_and_accepted_ones_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x15c0de);
    let mut requests = requests();
    let mut responses = responses();
    let mut events = events();
    for _ in 0..6 {
        requests.push(random_request(&mut rng));
        responses.push(random_response(&mut rng));
        events.push(random_event(&mut rng));
    }

    let (mut tried, mut accepted) = (0usize, 0usize);
    for line in requests.iter().map(encode_request) {
        for variant in mutations(&line) {
            tried += 1;
            if let Ok(req) = parse_request(&variant) {
                accepted += 1;
                let again = encode_request(&req);
                assert_eq!(parse_request(&again), Ok(req), "variant {variant:?}");
            }
        }
    }
    for line in responses.iter().map(encode_response) {
        for variant in mutations(&line) {
            tried += 1;
            if let Ok(resp) = parse_response(&variant) {
                accepted += 1;
                let again = parse_response(&encode_response(&resp)).expect("re-encoded");
                assert_eq!(
                    response_by_bits(again),
                    response_by_bits(resp),
                    "variant {variant:?}"
                );
            }
        }
    }
    for line in events.iter().map(to_json) {
        for variant in mutations(&line) {
            tried += 1;
            if let Ok(event) = parse_line(&variant) {
                accepted += 1;
                let again = parse_line(&to_json(&event)).expect("re-encoded");
                assert_eq!(
                    event_by_bits(again),
                    event_by_bits(event),
                    "variant {variant:?}"
                );
            }
        }
    }
    // The sweep is only meaningful if it exercises both outcomes.
    assert!(accepted > 0 && accepted < tried, "{accepted} of {tried}");
}
