//! Minimal hand-rolled JSON for checkpoint rows (`results/*.ckpt.jsonl`)
//! and watchdog black-box dumps (`results/blackbox_*.json`).
//!
//! The workspace has no serialization dependency, so the sweep runner
//! writes and re-reads its own JSON with one reader. Checkpoint rows are
//! *flat* single-line objects (strings, numbers, booleans) read by
//! [`parse_flat`]; a line that is not one (e.g. a torn write from a killed
//! process) comes back `None` — skipped, never fatal, so a crashed sweep
//! can always resume. Black-box dumps are *nested* documents (arrays of
//! per-VC objects, a wait-cycle witness, …) read by [`parse_value`], which
//! post-mortem tooling and the schema tests use to read a dump back.

use std::collections::BTreeMap;

/// Escapes a string for inclusion in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Builder for one flat JSON object, rendered on a single line.
///
/// Field order is exactly insertion order, so two runs that record the same
/// datapoint produce byte-identical rows — which is what lets CI diff a
/// resumed sweep against an uninterrupted one.
#[derive(Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    pub fn new() -> JsonObj {
        JsonObj { buf: String::new() }
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push_str(", ");
        }
    }

    /// Adds a string field (escaped).
    #[must_use]
    pub fn str_field(mut self, key: &str, val: &str) -> Self {
        self.sep();
        self.buf
            .push_str(&format!("\"{}\": \"{}\"", escape(key), escape(val)));
        self
    }

    /// Adds a numeric/boolean field rendered exactly as `val` displays.
    /// The caller is responsible for `val` being valid bare JSON (integer,
    /// `{:.N}` float, `true`/`false`).
    #[must_use]
    pub fn raw_field(mut self, key: &str, val: &str) -> Self {
        self.sep();
        self.buf.push_str(&format!("\"{}\": {val}", escape(key)));
        self
    }

    /// Adds an integer field.
    #[must_use]
    pub fn u64_field(self, key: &str, val: u64) -> Self {
        self.raw_field(key, &val.to_string())
    }

    /// Adds a float field with a fixed number of decimals (stable across
    /// runs — never uses the shortest-roundtrip formatter).
    #[must_use]
    pub fn f64_field(self, key: &str, val: f64, decimals: usize) -> Self {
        self.raw_field(key, &format!("{val:.decimals$}"))
    }

    /// Renders the object as one line (no trailing newline).
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Parses one flat JSON object line into a key → value map: strings come
/// back unescaped, numbers and literals as their source text (so `0.0600`
/// stays `"0.0600"` and integers above 2^53 stay exact). Returns `None` on
/// anything that is not a JSON object of scalars — nested objects/arrays,
/// torn lines, garbage. This is [`parse_value`]'s parser, walking the one
/// object without building a tree.
pub fn parse_flat(line: &str) -> Option<BTreeMap<String, String>> {
    let mut p = Parser::new(line);
    let mut map = BTreeMap::new();
    p.object(0, |key, v| {
        map.insert(key, v.into_text()?);
        Some(())
    })?;
    p.at_end().then_some(map)
}

/// A parsed JSON value, for reading *nested* documents (the watchdog
/// black-box dumps, bench reports). Checkpoint rows use [`parse_flat`].
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// A number as its source text; [`JsonValue::as_f64`] and
    /// [`JsonValue::as_u64`] read it.
    Num(String),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object member lookup; `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value as an unsigned integer: exact when written as one, else a
    /// non-negative whole float.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => n.parse().ok().or_else(|| {
                let f = self.as_f64()?;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                (f >= 0.0 && f.fract() == 0.0).then_some(f as u64)
            }),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// A scalar as a flat row holds it; `None` for arrays and objects.
    fn into_text(self) -> Option<String> {
        match self {
            JsonValue::Null => Some("null".to_string()),
            JsonValue::Bool(b) => Some(b.to_string()),
            JsonValue::Num(s) | JsonValue::Str(s) => Some(s),
            JsonValue::Arr(_) | JsonValue::Obj(_) => None,
        }
    }
}

/// Nesting cap for [`parse_value`]: deep enough for any dump this
/// workspace writes (depth 3), shallow enough that a corrupt file cannot
/// recurse the parser off the stack.
const MAX_DEPTH: u32 = 64;

/// Parses a complete JSON document (nested objects and arrays allowed)
/// into a [`JsonValue`]. Returns `None` on malformed or truncated input —
/// never panicking on a torn dump.
pub fn parse_value(text: &str) -> Option<JsonValue> {
    let mut p = Parser::new(text);
    let v = p.value(0)?;
    p.at_end().then_some(v)
}

/// The one JSON reader behind [`parse_flat`] and [`parse_value`].
struct Parser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
}

impl Parser<'_> {
    fn new(text: &str) -> Parser<'_> {
        Parser {
            chars: text.chars().peekable(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(c) if c.is_whitespace()) {
            self.chars.next();
        }
    }

    /// Skips whitespace, then consumes `expect` or fails.
    fn eat(&mut self, expect: char) -> Option<()> {
        self.skip_ws();
        (self.chars.next()? == expect).then_some(())
    }

    /// True when only whitespace is left: anything else is trailing garbage.
    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.chars.peek().is_none()
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Option<JsonValue> {
        for expect in word.chars() {
            if self.chars.next()? != expect {
                return None;
            }
        }
        Some(v)
    }

    /// Scans a string starting at the opening quote; same escape set the
    /// writer produces.
    fn string(&mut self) -> Option<String> {
        if self.chars.next()? != '"' {
            return None;
        }
        let mut out = String::new();
        loop {
            match self.chars.next()? {
                '"' => return Some(out),
                '\\' => match self.chars.next()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            code = code * 16 + self.chars.next()?.to_digit(16)?;
                        }
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                c => out.push(c),
            }
        }
    }

    /// A number, kept as its source text once it reads as one.
    fn number(&mut self) -> Option<JsonValue> {
        let mut tok = String::new();
        while let Some(&c) = self.chars.peek() {
            if !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')) {
                break;
            }
            tok.push(c);
            self.chars.next();
        }
        tok.parse::<f64>().ok().map(|_| JsonValue::Num(tok))
    }

    /// Walks one object, handing every member to `member` in order.
    fn object(
        &mut self,
        depth: u32,
        mut member: impl FnMut(String, JsonValue) -> Option<()>,
    ) -> Option<()> {
        self.eat('{')?;
        self.skip_ws();
        if self.chars.peek() == Some(&'}') {
            self.chars.next();
            return Some(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(':')?;
            member(key, self.value(depth + 1)?)?;
            self.skip_ws();
            match self.chars.next()? {
                '}' => return Some(()),
                ',' => {}
                _ => return None,
            }
        }
    }

    fn value(&mut self, depth: u32) -> Option<JsonValue> {
        if depth > MAX_DEPTH {
            return None;
        }
        self.skip_ws();
        match *self.chars.peek()? {
            'n' => self.literal("null", JsonValue::Null),
            't' => self.literal("true", JsonValue::Bool(true)),
            'f' => self.literal("false", JsonValue::Bool(false)),
            '"' => self.string().map(JsonValue::Str),
            '[' => {
                self.chars.next();
                let mut items = Vec::new();
                self.skip_ws();
                if self.chars.peek() == Some(&']') {
                    self.chars.next();
                    return Some(JsonValue::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.chars.next()? {
                        ']' => return Some(JsonValue::Arr(items)),
                        ',' => {}
                        _ => return None,
                    }
                }
            }
            '{' => {
                let mut map = BTreeMap::new();
                self.object(depth, |key, v| {
                    map.insert(key, v);
                    Some(())
                })?;
                Some(JsonValue::Obj(map))
            }
            _ => self.number(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_flat_object() {
        let line = JsonObj::new()
            .str_field("key", "abc123")
            .str_field("scheme", "SEEC")
            .f64_field("rate", 0.06, 4)
            .u64_field("cycles", 30_000)
            .raw_field("ok", "true")
            .finish();
        let map = parse_flat(&line).expect("must parse");
        assert_eq!(map["key"], "abc123");
        assert_eq!(map["scheme"], "SEEC");
        assert_eq!(map["rate"], "0.0600");
        assert_eq!(map["cycles"], "30000");
        assert_eq!(map["ok"], "true");
    }

    #[test]
    fn escapes_survive_the_roundtrip() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let line = JsonObj::new().str_field("msg", nasty).finish();
        let map = parse_flat(&line).expect("must parse");
        assert_eq!(map["msg"], nasty);
    }

    #[test]
    fn torn_and_nested_lines_are_rejected_not_fatal() {
        assert!(parse_flat("").is_none());
        assert!(parse_flat("{\"a\": 1").is_none()); // torn write
        assert!(parse_flat("{\"a\": {\"b\": 1}}").is_none()); // nested
        assert!(parse_flat("not json at all").is_none());
        assert!(parse_flat("{\"a\"}").is_none());
    }

    #[test]
    fn flat_parser_refuses_lines_that_are_not_json() {
        for line in [
            r#"{"rate": NaN}"#,
            r#"{"a": 1 "b": 2}"#,
            r#"{"a": 1,}"#,
            r#"{, "a": 1}"#,
            r#"{"ok": tru}"#,
            r#"{"a": 1,, "b": 2}"#,
        ] {
            assert!(parse_flat(line).is_none(), "{line}");
        }
        assert_eq!(
            parse_flat(r#"{"ok": true, "v": null}"#).unwrap()["v"],
            "null"
        );
    }

    #[test]
    fn numbers_keep_their_source_text() {
        let line = r#"{"seed": 18446744073709551615, "odd": 9007199254740993, "r": 0.0600}"#;
        let row = parse_flat(line).unwrap();
        assert_eq!(row["odd"], "9007199254740993");
        let v = parse_value(line).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("odd").unwrap().as_u64(), Some(9_007_199_254_740_993));
        assert_eq!(v.get("r").unwrap().as_f64(), Some(0.06));
        assert_eq!(v.get("r").unwrap().as_u64(), None);
    }

    #[test]
    fn nested_parser_reads_objects_arrays_and_scalars() {
        let doc = r#"{
            "schema": "noc-blackbox-v1",
            "cycle": 4096,
            "ratio": -1.5e2,
            "config": {"cols": 4, "rows": 4},
            "occupancy": [
                {"node": 0, "routed": false, "head_wait_since": null},
                {"node": 1, "routed": true, "head_wait_since": 37}
            ],
            "wait_cycle": null,
            "empty_arr": [],
            "empty_obj": {}
        }"#;
        let v = parse_value(doc).expect("must parse");
        assert_eq!(v.get("schema").unwrap().as_str(), Some("noc-blackbox-v1"));
        assert_eq!(v.get("cycle").unwrap().as_u64(), Some(4096));
        assert_eq!(v.get("ratio").unwrap().as_f64(), Some(-150.0));
        assert_eq!(v.get("ratio").unwrap().as_u64(), None, "negative");
        let cfg = v.get("config").unwrap();
        assert_eq!(cfg.get("cols").unwrap().as_u64(), Some(4));
        let occ = v.get("occupancy").unwrap().as_array().unwrap();
        assert_eq!(occ.len(), 2);
        assert_eq!(occ[0].get("routed"), Some(&JsonValue::Bool(false)));
        assert!(occ[0].get("head_wait_since").unwrap().is_null());
        assert_eq!(occ[1].get("head_wait_since").unwrap().as_u64(), Some(37));
        assert!(v.get("wait_cycle").unwrap().is_null());
        assert_eq!(v.get("empty_arr").unwrap().as_array(), Some(&[][..]));
        assert_eq!(v.get("empty_obj"), Some(&JsonValue::Obj(BTreeMap::new())));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn nested_parser_rejects_torn_and_malformed_documents() {
        assert!(parse_value("").is_none());
        assert!(parse_value("{\"a\": [1, 2").is_none()); // torn mid-array
        assert!(parse_value("{\"a\": 1} trailing").is_none());
        assert!(parse_value("{\"a\" 1}").is_none()); // missing colon
        assert!(parse_value("[1 2]").is_none()); // missing comma
        assert!(parse_value("{\"a\": nul}").is_none());
        // Recursion bomb: deeper than MAX_DEPTH must fail, not overflow.
        let bomb = "[".repeat(1000) + &"]".repeat(1000);
        assert!(parse_value(&bomb).is_none());
    }

    #[test]
    fn nested_parser_roundtrips_flat_writer_output() {
        let line = JsonObj::new()
            .str_field("msg", "a\"b\\c\nd")
            .u64_field("n", 42)
            .raw_field("flag", "true")
            .finish();
        let v = parse_value(&line).expect("writer output must parse");
        assert_eq!(v.get("msg").unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("flag"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn identical_inputs_render_identical_lines() {
        let mk = || {
            JsonObj::new()
                .str_field("k", "v")
                .f64_field("x", 1.0 / 3.0, 6)
                .finish()
        };
        assert_eq!(mk(), mk());
    }
}
