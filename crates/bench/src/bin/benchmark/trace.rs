//! In-memory span log for traced runs.
//!
//! Every span has an id, a parent, the operation (solve, epoch or
//! request) it belongs to, a layer name, and start/end times in
//! nanoseconds since the log was created. Spans come from two places:
//! the benchmark's own timers around calls into each layer, and
//! [`LayerRecorder`], a `match_telemetry::Recorder` handed to the solver
//! drivers that turns the duration-only events they already emit into
//! positioned spans. Nothing inside the crates under test changes.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

use match_telemetry::{Event, Recorder};

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// Placeholder id returned by a disabled log.
pub const NO_SPAN: SpanId = usize::MAX;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Enclosing span, `None` for an operation root.
    pub parent: Option<SpanId>,
    /// The solve, epoch or request this span belongs to.
    pub op: u64,
    /// Layer name, e.g. `ce.sample`.
    pub name: Cow<'static, str>,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of one traced run, kept in memory and written at exit.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log that records spans.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// A log that records nothing, for untraced runs.
    pub fn disabled() -> Self {
        SpanLog {
            enabled: false,
            ..SpanLog::new()
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds from the log's epoch to `t` (0 if `t` is earlier).
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Nanoseconds since the log's epoch.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// Record a finished span.
    pub fn push(
        &mut self,
        parent: Option<SpanId>,
        op: u64,
        name: impl Into<Cow<'static, str>>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        self.spans.push(Span {
            parent,
            op,
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Start a span now; [`SpanLog::close`] ends it.
    pub fn open(
        &mut self,
        parent: Option<SpanId>,
        op: u64,
        name: impl Into<Cow<'static, str>>,
    ) -> SpanId {
        let now = self.now_ns();
        self.push(parent, op, name, now, now)
    }

    /// End a span opened with [`SpanLog::open`].
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = now.max(span.start_ns);
        }
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        parent: Option<SpanId>,
        op: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(parent, op, name);
        let out = f();
        self.close(id);
        out
    }

    /// All spans in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of it that its
    /// children's intervals cover (overlapping children count once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for (s, e) in kids {
                    let s = s.max(reach);
                    let e = e.min(span.end_ns);
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
                span.dur() - covered
            })
            .collect()
    }

    /// Summed duration of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .sum()
    }

    /// Total self time and span count per layer name.
    pub fn layer_totals(&self) -> BTreeMap<String, (u64, u64)> {
        let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let entry = totals.entry(span.name.to_string()).or_default();
            entry.0 += own;
            entry.1 += 1;
        }
        totals
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// The layer a solver telemetry span belongs to.
fn layer_of(event_name: &str) -> Cow<'static, str> {
    match event_name {
        "sample" => "ce.sample".into(),
        "evaluate" => "eval.evaluate".into(),
        "update" => "ce.update".into(),
        "coarsen" => "multilevel.coarsen".into(),
        "remap" => "remap.call".into(),
        "refine-delta" => "remap.refine".into(),
        s if s.starts_with("solve@L") => "multilevel.coarse_solve".into(),
        s if s.starts_with("refine@L") => "multilevel.refine".into(),
        other => Cow::Owned(other.to_string()),
    }
}

/// A bench-owned [`Recorder`] that turns a solver's duration-only
/// events into spans under one operation span.
///
/// Events carry a wall time but no start, and a solver records each one
/// just after the interval it covers ends, so a span is placed at
/// `[arrival − wall, arrival]`. The one exception is the fused
/// sample-and-evaluate region of the batched CE driver, which reports the
/// region split in two back-to-back events: `sample` is placed directly
/// before `evaluate`, both ending where the region ended.
///
/// Parents are recovered from containment: a span recorded earlier whose
/// midpoint falls inside a later span becomes that span's child (an
/// iteration adopts its phases, a refinement level its passes); spans
/// nobody adopts hang off the operation span when the recorder finishes.
pub struct LayerRecorder<'a> {
    log: &'a mut SpanLog,
    op: u64,
    parent: SpanId,
    iter_name: &'static str,
    pending: Vec<SpanId>,
    sample: Option<(u64, u64)>,
}

impl<'a> LayerRecorder<'a> {
    /// Record under operation span `parent`; solver `Iter` events become
    /// spans named `iter_name`.
    pub fn new(log: &'a mut SpanLog, op: u64, parent: SpanId, iter_name: &'static str) -> Self {
        LayerRecorder {
            log,
            op,
            parent,
            iter_name,
            pending: Vec::new(),
            sample: None,
        }
    }

    fn place(&mut self, name: Cow<'static, str>, start_ns: u64, end_ns: u64) {
        let id = self.log.push(None, self.op, name, start_ns, end_ns);
        let spans = &mut self.log.spans;
        self.pending.retain(|&p| {
            let child = &mut spans[p];
            let mid = child.start_ns + child.dur() / 2;
            if mid >= start_ns {
                child.parent = Some(id);
                false
            } else {
                true
            }
        });
        self.pending.push(id);
    }

    /// Hang every unadopted span off the operation span.
    pub fn finish(self) {
        for p in self.pending {
            self.log.spans[p].parent = Some(self.parent);
        }
    }
}

impl Recorder for LayerRecorder<'_> {
    fn enabled(&self) -> bool {
        self.log.enabled()
    }

    fn record(&mut self, event: Event) {
        let now = self.log.now_ns();
        match event {
            Event::Span(s) if s.name == "sample" => self.sample = Some((now, s.wall_ns)),
            Event::Span(s) if s.name == "evaluate" => {
                let (end, sample_ns) = self.sample.take().unwrap_or((now, 0));
                let split = end.saturating_sub(s.wall_ns);
                self.place("ce.sample".into(), split.saturating_sub(sample_ns), split);
                self.place("eval.evaluate".into(), split, end);
            }
            Event::Span(s) => self.place(layer_of(&s.name), now.saturating_sub(s.wall_ns), now),
            Event::Iter(it) => {
                self.place(self.iter_name.into(), now.saturating_sub(it.wall_ns), now)
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_telemetry::{IterEvent, SpanEvent};

    #[test]
    fn self_time_of_nested_spans() {
        let mut log = SpanLog::new();
        let root = log.push(None, 0, "op", 0, 100);
        let a = log.push(Some(root), 0, "a", 10, 40);
        log.push(Some(a), 0, "a1", 15, 25);
        log.push(Some(a), 0, "a2", 20, 30); // overlaps a1: counted once
        log.push(Some(root), 0, "b", 50, 120); // runs past root: clipped
        let own = log.self_times();
        assert_eq!(own, vec![100 - 30 - 50, 30 - 15, 10, 10, 70]);
        let totals = log.layer_totals();
        assert_eq!(totals["op"], (20, 1));
        assert_eq!(totals["a"], (15, 1));
        // Self times of a tree with disjoint children sum to the root.
        let mut log = SpanLog::new();
        let root = log.push(None, 0, "op", 0, 100);
        let a = log.push(Some(root), 0, "x", 0, 60);
        log.push(Some(a), 0, "y", 10, 50);
        log.push(Some(root), 0, "x", 60, 90);
        assert_eq!(log.self_times().iter().sum::<u64>(), 100);
        assert_eq!(log.layer_totals()["x"], (20 + 30, 2));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::disabled();
        assert_eq!(log.open(None, 0, "op"), NO_SPAN);
        log.close(NO_SPAN);
        assert_eq!(log.time(None, 0, "x", || 7), 7);
        assert!(log.spans().is_empty());
    }

    fn span(name: &'static str, wall_ns: u64) -> Event {
        Event::Span(SpanEvent {
            name: name.into(),
            iter: 0,
            wall_ns,
        })
    }

    fn iter(wall_ns: u64) -> Event {
        Event::Iter(IterEvent {
            iter: 0,
            best: 1.0,
            mean: 1.0,
            gamma: None,
            elite_size: 0,
            wall_ns,
        })
    }

    #[test]
    fn recorder_nests_phases_under_iterations() {
        let mut log = SpanLog::new();
        let op = log.push(None, 3, "ce.solve", 0, 0);
        let start = log.now_ns();
        {
            let mut rec = LayerRecorder::new(&mut log, 3, op, "ce.iteration");
            std::thread::sleep(std::time::Duration::from_millis(3));
            let elapsed = |log: &SpanLog| log.now_ns() - start;
            // A fused region of 2 ms split 3:1, then a short update,
            // then the iteration event covering all of it.
            rec.record(span("sample", 1_500_000));
            rec.record(span("evaluate", 500_000));
            std::thread::sleep(std::time::Duration::from_millis(1));
            rec.record(span("update", 1_000));
            rec.record(Event::Counter {
                name: "evaluations".into(),
                value: 10,
            });
            let wall = elapsed(rec.log);
            rec.record(iter(wall));
            rec.record(span("refine-delta", 10));
            rec.finish();
        }
        log.close(op);
        let names: Vec<&str> = log.spans().iter().map(|s| s.name.as_ref()).collect();
        assert_eq!(
            names,
            [
                "ce.solve",
                "ce.sample",
                "eval.evaluate",
                "ce.update",
                "ce.iteration",
                "remap.refine"
            ]
        );
        let parents: Vec<Option<SpanId>> = log.spans().iter().map(|s| s.parent).collect();
        assert_eq!(
            parents,
            [None, Some(4), Some(4), Some(4), Some(op), Some(op)]
        );
        let s = &log.spans()[1];
        let e = &log.spans()[2];
        assert_eq!(s.end_ns, e.start_ns, "sample sits right before evaluate");
        assert_eq!(s.end_ns - s.start_ns, 1_500_000);
        assert_eq!(e.end_ns - e.start_ns, 500_000);
        // The iteration's self time is what its phases leave uncovered.
        let own = log.self_times();
        let it = &log.spans()[4];
        assert_eq!(own[4], it.end_ns - it.start_ns - 2_000_000 - 1_000);
    }

    #[test]
    fn recorder_keeps_earlier_siblings_apart() {
        let mut log = SpanLog::new();
        let op = log.push(None, 0, "multilevel.solve", 0, 0);
        {
            let ms = std::time::Duration::from_millis(1);
            let mut rec = LayerRecorder::new(&mut log, 0, op, "multilevel.refine_pass");
            rec.record(span("coarsen", 1_000));
            std::thread::sleep(ms);
            rec.record(span("solve@L2", 500_000));
            // A refinement level: two passes of at least 1 ms each, then
            // the level's own span covering both.
            let level_start = rec.log.now_ns();
            for _ in 0..2 {
                std::thread::sleep(ms);
                rec.record(iter(1_000_000));
            }
            let level_ns = rec.log.now_ns() - level_start;
            rec.record(span("refine@L1", level_ns));
            rec.finish();
        }
        let got: Vec<(&str, Option<SpanId>)> = log
            .spans()
            .iter()
            .map(|s| (s.name.as_ref(), s.parent))
            .collect();
        assert_eq!(
            got,
            [
                ("multilevel.solve", None),
                ("multilevel.coarsen", Some(op)),
                ("multilevel.coarse_solve", Some(op)),
                ("multilevel.refine_pass", Some(5)),
                ("multilevel.refine_pass", Some(5)),
                ("multilevel.refine", Some(op)),
            ]
        );
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let path = crate::out_dir()
            .expect("output directory")
            .join(format!("test-trace-{}.jsonl", std::process::id()));
        let mut log = SpanLog::new();
        let root = log.push(None, 1, "op", 0, 9);
        log.push(Some(root), 1, "child", 2, 5);
        log.write_jsonl(&path).expect("write trace");
        let text = std::fs::read_to_string(&path).expect("read trace");
        std::fs::remove_file(&path).expect("remove trace");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                r#"{"id":0,"parent":null,"op":1,"name":"op","start_ns":0,"end_ns":9}"#,
                r#"{"id":1,"parent":0,"op":1,"name":"child","start_ns":2,"end_ns":5}"#,
            ]
        );
    }
}
