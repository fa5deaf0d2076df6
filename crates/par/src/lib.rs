//! A small data-parallel substrate for the MaTCH reproduction.
//!
//! MaTCH evaluates `N = 2|V_r|²` sampled mappings per iteration — for the
//! paper's largest configuration that is 5 000 objective evaluations per
//! iteration, each O(|V| + |E|), repeated over hundreds of iterations.
//! The evaluations are embarrassingly parallel, so the `Matcher` (and the
//! GA's population evaluation) fan them out through this crate.
//!
//! All of it is fork/join over one host's cores on `std::thread::scope`,
//! so closures may borrow from the caller's stack (the MaTCH sampler
//! borrows the instance's cost tables). One core,
//! [`parallel_fill_rows_chunked`], splits a caller-owned row buffer into
//! one contiguous chunk per worker; [`parallel_fill_rows`],
//! [`parallel_map`] and [`parallel_map_timed`] are views of it.
//!
//! Results are deterministic (outputs land at their input's index)
//! though execution order is not, and a worker's panic reaches the
//! caller with its own payload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod scope_map;

pub use scope_map::{
    parallel_fill_rows, parallel_fill_rows_chunked, parallel_map, parallel_map_timed,
    parallel_threshold, ChunkTiming,
};

/// Number of worker threads to use by default: the machine's available
/// parallelism, capped at 16 (the experiment harness saturates memory
/// bandwidth well before that).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}
