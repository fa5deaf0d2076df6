//! Prometheus text exposition (version 0.0.4) rendering for
//! [`Snapshot`].
//!
//! Counters render as `counter`, gauges as `gauge`, and latency
//! histograms as `summary` series — `name{quantile="0.5"}` /
//! `"0.9"` / `"0.99"` plus `name_sum` and `name_count` — because the
//! registry's log-2 buckets answer quantile queries directly and a
//! summary ships p50/p99 to a dashboard without client-side
//! `histogram_quantile` gymnastics.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::registry::{MetricKey, Snapshot};

/// The quantiles every histogram series exports.
pub const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

/// Escape a label value per the exposition format: backslash, double
/// quote and newline must be escaped inside the quotes.
fn push_label_value(out: &mut String, value: &str) {
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
}

/// Render `name{a="x",b="y",extra}` with an optional extra label pair
/// appended (used for `quantile="..."`).
fn push_series(out: &mut String, key: &MetricKey, suffix: &str, extra: Option<(&str, &str)>) {
    out.push_str(&key.name);
    out.push_str(suffix);
    if key.labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in &key.labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        push_label_value(out, v);
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        push_label_value(out, v);
        out.push('"');
    }
    out.push('}');
}

/// Emit a `# TYPE` header once per metric name.
fn push_type(out: &mut String, seen: &mut BTreeSet<String>, name: &str, kind: &str) {
    if seen.insert(name.to_string()) {
        let _ = writeln!(out, "# TYPE {name} {kind}");
    }
}

impl Snapshot {
    /// Render every series in Prometheus text exposition format.
    ///
    /// Series appear in deterministic (sorted) order; each metric name
    /// gets one `# TYPE` line. Histograms render as summaries with
    /// p50/p90/p99 `quantile` labels plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen = BTreeSet::new();
        for (key, value) in &self.counters {
            push_type(&mut out, &mut seen, &key.name, "counter");
            push_series(&mut out, key, "", None);
            let _ = writeln!(out, " {value}");
        }
        for (key, value) in &self.gauges {
            push_type(&mut out, &mut seen, &key.name, "gauge");
            push_series(&mut out, key, "", None);
            let _ = writeln!(out, " {value}");
        }
        for (key, hist) in &self.histograms {
            push_type(&mut out, &mut seen, &key.name, "summary");
            for (q, label) in QUANTILES {
                push_series(&mut out, key, "", Some(("quantile", label)));
                let _ = writeln!(out, " {}", hist.quantile(q));
            }
            push_series(&mut out, key, "_sum", None);
            let _ = writeln!(out, " {}", hist.sum());
            push_series(&mut out, key, "_count", None);
            let _ = writeln!(out, " {}", hist.count());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::Metrics;

    #[test]
    fn renders_counters_gauges_and_summaries() {
        let m = Metrics::new();
        m.counter("jobs_total").add(7);
        m.counter_with("requests_total", &[("op", "solve")]).add(3);
        m.gauge("queue_depth").set(2);
        let h = m.histogram_with("solve_latency_ns", &[("algo", "ce")]);
        for v in [100u64, 200, 400, 800] {
            h.record(v);
        }
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("# TYPE jobs_total counter\n"), "{text}");
        assert!(text.contains("jobs_total 7\n"));
        assert!(text.contains("requests_total{op=\"solve\"} 3\n"));
        assert!(text.contains("# TYPE queue_depth gauge\n"));
        assert!(text.contains("queue_depth 2\n"));
        assert!(text.contains("# TYPE solve_latency_ns summary\n"));
        assert!(text.contains("solve_latency_ns{algo=\"ce\",quantile=\"0.5\"}"));
        assert!(text.contains("solve_latency_ns{algo=\"ce\",quantile=\"0.99\"}"));
        assert!(text.contains("solve_latency_ns_sum{algo=\"ce\"} 1500\n"));
        assert!(text.contains("solve_latency_ns_count{algo=\"ce\"} 4\n"));
        // Every line is either a comment or "series value".
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.rsplit_once(' ').is_some(),
                "bad line: {line}"
            );
        }
    }

    #[test]
    fn type_header_emitted_once_per_name() {
        let m = Metrics::new();
        m.counter_with("req", &[("op", "a")]).inc();
        m.counter_with("req", &[("op", "b")]).inc();
        let text = m.snapshot().to_prometheus();
        assert_eq!(text.matches("# TYPE req counter").count(), 1);
    }

    #[test]
    fn label_values_are_escaped() {
        let m = Metrics::new();
        m.counter_with("c", &[("path", "a\"b\\c\nd")]).inc();
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("c{path=\"a\\\"b\\\\c\\nd\"} 1\n"), "{text}");
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(Metrics::new().snapshot().to_prometheus(), "");
        assert_eq!(Metrics::null().snapshot().to_prometheus(), "");
    }
}
