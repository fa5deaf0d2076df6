//! The workspace's one JSON codec: flat objects, one per line.
//!
//! Every line the workspace writes is a flat JSON object built with
//! [`push_str`] and [`push_f64`]: trace events here ([`to_json`]), the
//! `match-serve` wire protocol, `matchctl submit --trace-out` records and
//! bench history lines. Every line it reads goes through
//! [`parse_object`] and the typed getters on [`Object`]. Values are
//! strings, numbers (kept as raw text, so every `u64` is exact),
//! `true`/`false`, `null`, and arrays of non-negative integers; nothing
//! nests deeper. That keeps the crate dependency-free while producing
//! lines any standard JSON tool can consume.
//!
//! Trace events carry an `"ev"` tag field and decode with
//! [`parse_line`]. Non-finite floats have no JSON number representation;
//! they are encoded as the strings `"inf"`, `"-inf"`, and `"nan"` and
//! decoded back to the corresponding `f64` values.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{Event, IterEvent, PoolEvent, SpanEvent};

/// Errors produced when decoding a JSON line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The line is not a flat JSON object of the expected shape.
    Syntax(String),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field is present but has the wrong type.
    BadType(&'static str),
    /// The tag field (`"ev"`, `"op"`, `"status"`) names no known message.
    UnknownTag(String),
    /// An I/O failure while reading the lines.
    Io(String),
}

impl ParseError {
    /// Attach a 1-based line number for multi-line error reports.
    pub fn at_line(self, lineno: usize) -> ParseError {
        match self {
            ParseError::Syntax(m) => ParseError::Syntax(format!("line {lineno}: {m}")),
            ParseError::Io(m) => ParseError::Io(format!("line {lineno}: {m}")),
            other => ParseError::Syntax(format!("line {lineno}: {other}")),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Syntax(m) => write!(f, "JSON syntax error: {m}"),
            ParseError::MissingField(name) => write!(f, "missing field `{name}`"),
            ParseError::BadType(name) => write!(f, "field `{name}` has the wrong type"),
            ParseError::UnknownTag(tag) => write!(f, "unknown message type `{tag}`"),
            ParseError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Append `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v` as a JSON number, or as the string `"inf"`, `"-inf"` or
/// `"nan"` when it is not finite.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("\"nan\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// Encode one event as a single-line JSON object (no trailing newline).
pub fn to_json(event: &Event) -> String {
    let mut s = String::with_capacity(96);
    s.push_str("{\"ev\":\"");
    s.push_str(event.tag());
    s.push('"');
    match event {
        Event::RunStart {
            solver,
            tasks,
            resources,
        } => {
            s.push_str(",\"solver\":");
            push_str(&mut s, solver);
            let _ = write!(s, ",\"tasks\":{tasks},\"resources\":{resources}");
        }
        Event::Iter(IterEvent {
            iter,
            best,
            mean,
            gamma,
            elite_size,
            wall_ns,
        }) => {
            let _ = write!(s, ",\"iter\":{iter},\"best\":");
            push_f64(&mut s, *best);
            s.push_str(",\"mean\":");
            push_f64(&mut s, *mean);
            s.push_str(",\"gamma\":");
            match gamma {
                Some(g) => push_f64(&mut s, *g),
                None => s.push_str("null"),
            }
            let _ = write!(s, ",\"elite_size\":{elite_size},\"wall_ns\":{wall_ns}");
        }
        Event::Span(SpanEvent {
            name,
            iter,
            wall_ns,
        }) => {
            s.push_str(",\"name\":");
            push_str(&mut s, name);
            let _ = write!(s, ",\"iter\":{iter},\"wall_ns\":{wall_ns}");
        }
        Event::Pool(PoolEvent {
            iter,
            chunk,
            len,
            wall_ns,
        }) => {
            let _ = write!(
                s,
                ",\"iter\":{iter},\"chunk\":{chunk},\"len\":{len},\"wall_ns\":{wall_ns}"
            );
        }
        Event::Counter { name, value } => {
            s.push_str(",\"name\":");
            push_str(&mut s, name);
            let _ = write!(s, ",\"value\":{value}");
        }
        Event::Sample { name, value } => {
            s.push_str(",\"name\":");
            push_str(&mut s, name);
            let _ = write!(s, ",\"value\":{value}");
        }
        Event::RunEnd {
            best,
            iterations,
            evaluations,
            wall_ns,
        } => {
            s.push_str(",\"best\":");
            push_f64(&mut s, *best);
            let _ = write!(
                s,
                ",\"iterations\":{iterations},\"evaluations\":{evaluations},\"wall_ns\":{wall_ns}"
            );
        }
    }
    s.push('}');
    s
}

/// A decoded flat JSON value.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Str(String),
    /// Numbers keep their raw text so integer fields round-trip exactly.
    Num(String),
    Bool(bool),
    /// An array of non-negative integers (a mapping vector).
    Arr(Vec<usize>),
    Null,
}

struct Scanner<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn err(&self, msg: &str) -> ParseError {
        ParseError::Syntax(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self
            .bytes()
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.bytes().get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes().get(self.pos).copied()
    }

    fn keyword(&mut self, word: &str) -> Result<(), ParseError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so the run before either of them is
            // whole UTF-8 and copies in one go.
            let Some(run) = self.bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.src.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes()[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = *self
                .bytes()
                .get(self.pos)
                .ok_or_else(|| self.err("unterminated escape"))?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => self.unicode_escape()?,
                _ => return Err(self.err("unknown escape")),
            });
        }
    }

    /// The character of a `\u` escape, its `\u` already consumed. A
    /// UTF-16 high surrogate must be followed by an escaped low one.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            let low = if self.bytes()[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                self.hex4()?
            } else {
                0
            };
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("unpaired surrogate in \\u escape"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| self.err("invalid \\u code point"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))
    }

    /// The raw text of a number whose first byte (`-` or a digit) is at
    /// the cursor.
    fn number(&mut self) -> &'a str {
        let start = self.pos;
        self.pos += 1;
        while self
            .bytes()
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        &self.src[start..self.pos]
    }

    /// An array of non-negative integers, its `[` at the cursor.
    fn indices(&mut self) -> Result<Vec<usize>, ParseError> {
        self.pos += 1;
        let mut arr = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(arr);
        }
        loop {
            if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(self.err("expected integer array element"));
            }
            let raw = self.number();
            arr.push(
                raw.parse()
                    .map_err(|_| self.err("non-integer array element"))?,
            );
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(arr);
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn value(&mut self) -> Result<Val, ParseError> {
        match self.peek() {
            Some(b'"') => Ok(Val::Str(self.string()?)),
            Some(b'n') => self.keyword("null").map(|()| Val::Null),
            Some(b't') => self.keyword("true").map(|()| Val::Bool(true)),
            Some(b'f') => self.keyword("false").map(|()| Val::Bool(false)),
            Some(b'[') => self.indices().map(Val::Arr),
            Some(b) if b == b'-' || b.is_ascii_digit() => Ok(Val::Num(self.number().to_string())),
            _ => Err(self.err("expected string, number, bool, array, or null")),
        }
    }

    fn object(&mut self) -> Result<BTreeMap<String, Val>, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                let key = self.string()?;
                self.expect(b':')?;
                let value = self.value()?;
                map.insert(key, value);
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err("expected `,` or `}`")),
                }
            }
        }
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(self.err("trailing data after object"));
        }
        Ok(map)
    }
}

/// One decoded flat JSON object, read through typed getters. A required
/// getter fails with [`ParseError::MissingField`] when the field is
/// absent; an optional one reads an absent or `null` field as `None`.
/// Either fails with [`ParseError::BadType`] on a value of another type.
#[derive(Debug)]
pub struct Object(BTreeMap<String, Val>);

/// Decode one line holding a flat JSON object. A field that appears
/// twice keeps its last value.
pub fn parse_object(line: &str) -> Result<Object, ParseError> {
    Scanner { src: line, pos: 0 }.object().map(Object)
}

impl Object {
    fn get(&self, field: &'static str) -> Result<&Val, ParseError> {
        self.0.get(field).ok_or(ParseError::MissingField(field))
    }

    /// Read an optional field with the required getter `read`.
    fn optional<T>(
        &self,
        field: &'static str,
        read: fn(&Self, &'static str) -> Result<T, ParseError>,
    ) -> Result<Option<T>, ParseError> {
        match self.0.get(field) {
            None | Some(Val::Null) => Ok(None),
            Some(_) => read(self, field).map(Some),
        }
    }

    /// A required string field.
    pub fn string(&self, field: &'static str) -> Result<String, ParseError> {
        match self.get(field)? {
            Val::Str(s) => Ok(s.clone()),
            _ => Err(ParseError::BadType(field)),
        }
    }

    /// An optional string field.
    pub fn opt_string(&self, field: &'static str) -> Result<Option<String>, ParseError> {
        self.optional(field, Self::string)
    }

    /// A required unsigned integer field, exact over the whole `u64` range.
    pub fn u64(&self, field: &'static str) -> Result<u64, ParseError> {
        match self.get(field)? {
            Val::Num(raw) => raw.parse().map_err(|_| ParseError::BadType(field)),
            _ => Err(ParseError::BadType(field)),
        }
    }

    /// An optional unsigned integer field.
    pub fn opt_u64(&self, field: &'static str) -> Result<Option<u64>, ParseError> {
        self.optional(field, Self::u64)
    }

    /// A required float field: a number, or one of the strings `"inf"`,
    /// `"-inf"`, `"nan"` that [`push_f64`] writes.
    pub fn f64(&self, field: &'static str) -> Result<f64, ParseError> {
        match self.get(field)? {
            Val::Num(raw) => raw.parse().map_err(|_| ParseError::BadType(field)),
            Val::Str(s) if s == "inf" => Ok(f64::INFINITY),
            Val::Str(s) if s == "-inf" => Ok(f64::NEG_INFINITY),
            Val::Str(s) if s == "nan" => Ok(f64::NAN),
            _ => Err(ParseError::BadType(field)),
        }
    }

    /// An optional float field.
    pub fn opt_f64(&self, field: &'static str) -> Result<Option<f64>, ParseError> {
        self.optional(field, Self::f64)
    }

    /// A required boolean field.
    pub fn bool(&self, field: &'static str) -> Result<bool, ParseError> {
        match self.get(field)? {
            Val::Bool(b) => Ok(*b),
            _ => Err(ParseError::BadType(field)),
        }
    }

    /// An optional boolean field.
    pub fn opt_bool(&self, field: &'static str) -> Result<Option<bool>, ParseError> {
        self.optional(field, Self::bool)
    }

    /// A required array of non-negative integers.
    pub fn indices(&self, field: &'static str) -> Result<Vec<usize>, ParseError> {
        match self.get(field)? {
            Val::Arr(a) => Ok(a.clone()),
            _ => Err(ParseError::BadType(field)),
        }
    }
}

/// Decode one trace line back into an [`Event`].
pub fn parse_line(line: &str) -> Result<Event, ParseError> {
    let obj = parse_object(line)?;
    match obj.string("ev")?.as_str() {
        "run_start" => Ok(Event::RunStart {
            solver: Cow::Owned(obj.string("solver")?),
            tasks: obj.u64("tasks")?,
            resources: obj.u64("resources")?,
        }),
        "iter" => Ok(Event::Iter(IterEvent {
            iter: obj.u64("iter")?,
            best: obj.f64("best")?,
            mean: obj.f64("mean")?,
            gamma: obj.opt_f64("gamma")?,
            elite_size: obj.u64("elite_size")?,
            wall_ns: obj.u64("wall_ns")?,
        })),
        "span" => Ok(Event::Span(SpanEvent {
            name: Cow::Owned(obj.string("name")?),
            iter: obj.u64("iter")?,
            wall_ns: obj.u64("wall_ns")?,
        })),
        "pool" => Ok(Event::Pool(PoolEvent {
            iter: obj.u64("iter")?,
            chunk: obj.u64("chunk")?,
            len: obj.u64("len")?,
            wall_ns: obj.u64("wall_ns")?,
        })),
        "counter" => Ok(Event::Counter {
            name: Cow::Owned(obj.string("name")?),
            value: obj.u64("value")?,
        }),
        "sample" => Ok(Event::Sample {
            name: Cow::Owned(obj.string("name")?),
            value: obj.u64("value")?,
        }),
        "run_end" => Ok(Event::RunEnd {
            best: obj.f64("best")?,
            iterations: obj.u64("iterations")?,
            evaluations: obj.u64("evaluations")?,
            wall_ns: obj.u64("wall_ns")?,
        }),
        other => Err(ParseError::UnknownTag(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(event: Event) {
        let line = to_json(&event);
        let back = parse_line(&line).expect("round-trip parse");
        match (&event, &back) {
            // NaN != NaN, compare the encoding instead.
            (Event::Iter(a), Event::Iter(b)) if a.best.is_nan() => {
                assert!(b.best.is_nan());
            }
            _ => assert_eq!(event, back, "line was: {line}"),
        }
    }

    #[test]
    fn all_variants_round_trip() {
        roundtrip(Event::RunStart {
            solver: "match-ce".into(),
            tasks: 64,
            resources: 8,
        });
        roundtrip(Event::Iter(IterEvent {
            iter: 3,
            best: 12.5,
            mean: 19.75,
            gamma: Some(14.0),
            elite_size: 10,
            wall_ns: 123_456,
        }));
        roundtrip(Event::Iter(IterEvent {
            iter: 0,
            best: 0.1,
            mean: 0.2,
            gamma: None,
            elite_size: 0,
            wall_ns: 1,
        }));
        roundtrip(Event::Span(SpanEvent {
            name: "evaluate".into(),
            iter: 7,
            wall_ns: 999,
        }));
        roundtrip(Event::Pool(PoolEvent {
            iter: 1,
            chunk: 2,
            len: 128,
            wall_ns: 5_000,
        }));
        roundtrip(Event::Counter {
            name: "evaluations".into(),
            value: 4096,
        });
        roundtrip(Event::Sample {
            name: "queue_depth".into(),
            value: 17,
        });
        roundtrip(Event::RunEnd {
            best: 41.0,
            iterations: 100,
            evaluations: 100_000,
            wall_ns: u64::MAX,
        });
    }

    #[test]
    fn non_finite_floats_round_trip() {
        roundtrip(Event::RunEnd {
            best: f64::INFINITY,
            iterations: 1,
            evaluations: 1,
            wall_ns: 1,
        });
        roundtrip(Event::RunEnd {
            best: f64::NEG_INFINITY,
            iterations: 1,
            evaluations: 1,
            wall_ns: 1,
        });
        roundtrip(Event::Iter(IterEvent {
            iter: 0,
            best: f64::NAN,
            mean: 0.0,
            gamma: None,
            elite_size: 0,
            wall_ns: 0,
        }));
    }

    #[test]
    fn strings_with_specials_round_trip() {
        roundtrip(Event::Counter {
            name: Cow::Owned("we\"ird\\name\nwith\tctrl\u{1}".to_string()),
            value: 1,
        });
        roundtrip(Event::RunStart {
            solver: Cow::Owned("sølvér-ünïcode".to_string()),
            tasks: 1,
            resources: 1,
        });
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_line("").is_err());
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{\"ev\":\"iter\"}").is_err(), "missing fields");
        assert!(parse_line("{\"ev\":\"nope\"}").is_err(), "unknown tag");
        assert!(
            parse_line("{\"ev\":\"counter\",\"name\":3,\"value\":1}").is_err(),
            "bad type"
        );
        assert!(
            parse_line("{\"ev\":\"counter\",\"name\":\"x\",\"value\":1} extra").is_err(),
            "trailing data"
        );
    }

    #[test]
    fn surrogate_pair_escape_decodes_to_one_char() {
        let obj = parse_object(r#"{"id":"a\ud83d\ude00b"}"#).unwrap();
        assert_eq!(obj.string("id").unwrap(), "a😀b");
    }

    #[test]
    fn lone_surrogate_escape_is_a_syntax_error() {
        for line in [
            r#"{"id":"\ud83d"}"#,
            r#"{"id":"\ud83dx"}"#,
            r#"{"id":"\ud83d\u0041"}"#,
            r#"{"id":"\ude00"}"#,
        ] {
            assert!(
                matches!(parse_object(line), Err(ParseError::Syntax(_))),
                "{line}"
            );
        }
    }

    #[test]
    fn reversed_surrogate_pair_is_a_syntax_error() {
        let line = r#"{"id":"\ude00\ud83d"}"#;
        assert!(matches!(parse_object(line), Err(ParseError::Syntax(_))));
    }

    #[test]
    fn ignored_fields_may_hold_any_flat_value() {
        let line = r#"{"ev":"counter","name":"x","value":1,"on":true,"at":[0,2],"no":null}"#;
        assert_eq!(
            parse_line(line).unwrap(),
            Event::Counter {
                name: "x".into(),
                value: 1
            }
        );
    }

    #[test]
    fn exact_u64_round_trip() {
        // Values above 2^53 would be corrupted by an f64 detour.
        let event = Event::Counter {
            name: "big".into(),
            value: (1u64 << 62) + 12345,
        };
        let line = to_json(&event);
        assert_eq!(parse_line(&line).unwrap(), event);
    }
}
