//! Bench-history bookkeeping: fold the per-run `BENCH_*.json` artefacts
//! into an append-only `BENCH_history.jsonl`, one labelled line per
//! artefact, so CI (and local runs) accumulate a trend file instead of
//! overwriting a snapshot.
//!
//! Each appended line is a single JSON object:
//!
//! ```json
//! {"label":"<sha or --label>","source":"BENCH_sampling.json","bench":{...}}
//! ```
//!
//! where `bench` is the artefact compacted onto one line. The file
//! stays `jq`-friendly: `jq -s 'map(.bench.matcher_mt.speedup)'`.

use match_telemetry::json::push_str;

/// Compact a JSON document onto one line: drop all whitespace that sits
/// outside string literals. Content inside strings (including escaped
/// quotes) is preserved byte-for-byte.
pub fn compact_json(pretty: &str) -> String {
    let mut out = String::with_capacity(pretty.len());
    let mut in_string = false;
    let mut escaped = false;
    for c in pretty.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
            out.push(c);
        } else if !c.is_whitespace() {
            out.push(c);
        }
    }
    out
}

/// Build one history line (no trailing newline) for a bench artefact.
///
/// `source` is the artefact's file name, `label` identifies the run
/// (commit SHA in CI, `local` otherwise), and `body` is the artefact's
/// JSON text, compacted before embedding.
pub fn history_line(label: &str, source: &str, body: &str) -> String {
    let mut line = String::from("{\"label\":");
    push_str(&mut line, label);
    line.push_str(",\"source\":");
    push_str(&mut line, source);
    line.push_str(",\"bench\":");
    line.push_str(&compact_json(body));
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_strips_layout_but_not_string_content() {
        let pretty = "{\n  \"bench\": \"sampling\",\n  \"note\": \"two  spaces \\\" and } brace\",\n  \"n\": [1, 2]\n}\n";
        assert_eq!(
            compact_json(pretty),
            "{\"bench\":\"sampling\",\"note\":\"two  spaces \\\" and } brace\",\"n\":[1,2]}"
        );
    }

    #[test]
    fn history_line_embeds_label_source_and_compact_body() {
        let line = history_line("abc123", "BENCH_ga.json", "{\n \"a\": 1\n}\n");
        assert_eq!(
            line,
            "{\"label\":\"abc123\",\"source\":\"BENCH_ga.json\",\"bench\":{\"a\":1}}"
        );
        assert!(!line.contains('\n'), "history lines must stay one line");
    }

    #[test]
    fn labels_with_quotes_are_escaped() {
        let line = history_line("a\"b", "f.json", "{}");
        assert!(line.contains("a\\\"b"));
    }
}
