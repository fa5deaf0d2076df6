//! `match-serve` — a long-running mapping service.
//!
//! Turns the workspace's one-shot solvers into a daemon: clients submit
//! mapping instances over a JSONL-over-TCP protocol, a bounded job
//! queue applies admission control with explicit backpressure, a worker
//! pool dispatches to any registered [`match_core::Mapper`], and an LRU
//! cache keyed by a canonical instance hash answers repeated requests
//! in microseconds. Per-request deadlines cancel solves cooperatively
//! via [`match_core::StopToken`]; shutdown drains in-flight work before
//! exiting.
//!
//! The crate follows the workspace's zero-external-dependency
//! discipline: `std::net` sockets, `std::sync` primitives, and
//! hand-rolled JSON framing in the style of `match-telemetry`.
//!
//! ```no_run
//! use match_serve::{Client, Request, Server, ServeConfig, SolveRequest};
//!
//! let handle = Server::start(ServeConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServeConfig::default()
//! })?;
//! let mut client = Client::connect(handle.local_addr())?;
//! let resp = client.call(&Request::Solve(SolveRequest {
//!     id: "job-1".into(),
//!     algo: "match".into(),
//!     seed: 7,
//!     deadline_ms: None,
//!     backend: None,
//!     tig: std::fs::read_to_string("app.tig")?,
//!     platform: std::fs::read_to_string("cluster.res")?,
//! }))?;
//! println!("{resp:?}");
//! handle.shutdown()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod hash;
pub mod http;
mod io;
pub mod protocol;
pub mod queue;
pub mod router;
pub mod server;
pub mod shard;
pub mod solvers;

pub use cache::{CachedResult, LruCache};
pub use client::Client;
pub use hash::{instance_hash, job_key, structure_hash};
pub use http::http_get;
pub use protocol::{
    encode_request, encode_request_line, encode_response, encode_response_line, parse_request,
    parse_response, RemapRequest, Request, Response, SolveRequest, SolveResponse, StatsResponse,
};
pub use queue::{JobQueue, PushError};
pub use router::{Router, RouterConfig, RouterHandle};
pub use server::{ServeConfig, ServeSummary, Server, ServerHandle};
pub use shard::{ShardPool, SlotRing, SLOTS};
