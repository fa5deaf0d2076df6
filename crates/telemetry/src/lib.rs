//! Unified solver telemetry for the matchkit workspace.
//!
//! Every mapper in the workspace — the CE matcher, FastMap-GA, simulated
//! annealing, hill climbing, the island matcher, and the discrete-event
//! simulator — emits the same typed [`Event`] stream through a
//! [`Recorder`]. Sinks decide what happens to the stream:
//!
//! * [`NullRecorder`] — discards everything; the compiled-out fast path.
//! * [`MemoryRecorder`] — buffers events and maintains aggregate views
//!   (counters, span totals, latency histograms) for in-process analysis.
//! * [`JsonlRecorder`] — streams one JSON object per line to any
//!   [`std::io::Write`], the interchange format behind
//!   `matchctl solve --trace` and `matchctl report`.
//!
//! The crate is deliberately zero-dependency: JSON encoding and the flat
//! line parser are hand-rolled in [`json`], so pulling telemetry into a
//! solver crate adds no build weight and no feature unification pressure.
//! That module is the workspace's one JSON codec: the `match-serve` wire
//! protocol and the other JSONL writers use it too.
//!
//! # Cost model
//!
//! Instrumentation call sites are expected to be unconditional — solvers
//! always call [`Recorder::record`]. The cost discipline lives in the
//! sink: `NullRecorder::enabled()` returns `false` and its `record` is an
//! empty inlineable body, so the per-iteration price of a disabled trace
//! is one virtual call (or nothing at all when the call site is
//! monomorphized). Call sites that would do real work just to *build* an
//! event (e.g. reading the clock, computing a mean) should gate that work
//! on [`Recorder::enabled`].

pub mod event;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod report;

pub use event::{Event, IterEvent, PoolEvent, Span, SpanEvent, SIM_SPAN_TIME_SCALE};
pub use hist::{Histogram, LinearHistogram};
pub use json::{parse_line, to_json, ParseError};
pub use recorder::{JsonlRecorder, MemoryRecorder, NullRecorder, Recorder};
pub use report::{render_diff, TraceSummary};

/// Read a full JSONL trace from a reader, one event per line.
///
/// Blank lines are skipped; any malformed line aborts with a
/// [`ParseError`] naming the offending line number.
pub fn read_trace<R: std::io::BufRead>(reader: R) -> Result<Vec<Event>, ParseError> {
    let mut events = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| ParseError::Io(format!("line {}: {e}", lineno + 1)))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        events.push(parse_line(trimmed).map_err(|e| e.at_line(lineno + 1))?);
    }
    Ok(events)
}

/// Read a JSONL trace from a file path.
pub fn read_trace_file(path: &std::path::Path) -> Result<Vec<Event>, ParseError> {
    let file = std::fs::File::open(path)
        .map_err(|e| ParseError::Io(format!("{}: {e}", path.display())))?;
    read_trace(std::io::BufReader::new(file))
}
