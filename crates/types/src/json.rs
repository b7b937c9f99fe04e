//! Minimal JSON reader, and the workspace's one canonical JSON writer.
//!
//! The workspace has no registry access, so it cannot pull `serde_json`;
//! this module implements just enough of RFC 8259 to read back what the
//! workspace itself writes: the canonical `RunStats` JSON emitted by
//! `mcgpu_sim::stats` through [`CanonicalWriter`] and the JSONL records of
//! the sweep run journal.
//! Numbers keep their source text (see [`JsonValue::Number`]) so a
//! parse → re-emit round trip is byte-exact — the property the resumable
//! sweep journal's "replayed cells are byte-identical" guarantee rests on.
//!
//! # Example
//! ```
//! use mcgpu_types::json::{parse, JsonValue};
//!
//! let v = parse(r#"{"cycles": 42, "label": "SAC", "ok": true}"#).unwrap();
//! assert_eq!(v.get("cycles").and_then(JsonValue::as_u64), Some(42));
//! assert_eq!(v.get("label").and_then(JsonValue::as_str), Some("SAC"));
//! ```

use crate::error::ParseError;

/// A parsed JSON value.
///
/// Object members keep their source order (the canonical formats this
/// module reads are order-sensitive), and numbers keep their exact source
/// text so nothing is lost to binary/decimal conversion.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text (use [`JsonValue::as_u64`] /
    /// [`JsonValue::as_f64`] to interpret it).
    Number(String),
    /// A string, with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, members in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member `key` of an object (`None` for other variants or a missing
    /// key).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is an unsigned integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse a complete JSON document.
///
/// # Errors
/// [`ParseError`] with a byte offset when the input is not valid JSON or
/// has trailing non-whitespace.
pub fn parse(input: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// Escape `s` as the *contents* of a JSON string literal (no surrounding
/// quotes). The inverse of the unescaping [`parse`] performs, used to embed
/// multi-line canonical documents inside single-line JSONL records.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Incremental writer for the workspace's canonical JSON form: fixed key
/// order (caller-controlled), 2-space indentation, floats in Rust's
/// shortest-roundtrip `{:?}` form, strings escaped through
/// [`escape_into`]. Byte equality of two documents written this way is
/// exactly bit equality of what was written — the property the golden
/// snapshots, the observability reports, the sweep journal, and the
/// figure-regression reports all rest on.
///
/// # Example
/// ```
/// use mcgpu_types::json::CanonicalWriter;
///
/// let mut w = CanonicalWriter::new();
/// w.open();
/// w.str_field("name", "SAC");
/// w.f64_field("speedup", 1.25);
/// w.close();
/// assert_eq!(w.finish(), "{\n  \"name\": \"SAC\",\n  \"speedup\": 1.25\n}\n");
/// ```
#[derive(Debug, Default)]
pub struct CanonicalWriter {
    out: String,
    indent: usize,
    has_member: Vec<bool>,
}

impl CanonicalWriter {
    /// An empty writer.
    pub fn new() -> Self {
        CanonicalWriter::default()
    }

    fn member_separator(&mut self) {
        if let Some(has) = self.has_member.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
        if !self.out.is_empty() {
            self.out.push('\n');
        }
    }

    fn newline_key(&mut self, key: &str) {
        self.member_separator();
        self.out.push_str(&"  ".repeat(self.indent));
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\": ");
    }

    /// Open an object (`{`). Pair with [`CanonicalWriter::close`].
    pub fn open(&mut self) {
        self.out.push('{');
        self.indent += 1;
        self.has_member.push(false);
    }

    /// Close the innermost object (`}`).
    pub fn close(&mut self) {
        self.indent -= 1;
        self.has_member.pop();
        self.out.push('\n');
        self.out.push_str(&"  ".repeat(self.indent));
        self.out.push('}');
    }

    /// `"key": "value"` with escaping.
    pub fn str_field(&mut self, key: &str, v: &str) {
        self.newline_key(key);
        self.out.push('"');
        escape_into(v, &mut self.out);
        self.out.push('"');
    }

    /// `"key": 42`.
    pub fn u64_field(&mut self, key: &str, v: u64) {
        self.newline_key(key);
        self.out.push_str(&v.to_string());
    }

    /// `"key": 1.25` in shortest-roundtrip form (`{:?}`), so the value
    /// parses back bit-identically.
    pub fn f64_field(&mut self, key: &str, v: f64) {
        self.newline_key(key);
        self.out.push_str(&format!("{v:?}"));
    }

    /// `"key": true`.
    pub fn bool_field(&mut self, key: &str, v: bool) {
        self.newline_key(key);
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// `"key": { ... }` with the members written by `body`.
    pub fn object_field(&mut self, key: &str, body: impl FnOnce(&mut Self)) {
        self.newline_key(key);
        self.open();
        body(self);
        self.close();
    }

    /// `"key": [ ... ]` with `len` elements, each written by
    /// `item(writer, index)` — typically an [`CanonicalWriter::open`] /
    /// [`CanonicalWriter::close`] pair for an object element.
    pub fn array_field(&mut self, key: &str, len: usize, mut item: impl FnMut(&mut Self, usize)) {
        self.newline_key(key);
        if len == 0 {
            self.out.push_str("[]");
            return;
        }
        self.out.push('[');
        self.indent += 1;
        self.has_member.push(false);
        for i in 0..len {
            self.member_separator();
            self.out.push_str(&"  ".repeat(self.indent));
            item(self, i);
        }
        self.indent -= 1;
        self.has_member.pop();
        self.out.push('\n');
        self.out.push_str(&"  ".repeat(self.indent));
        self.out.push(']');
    }

    /// `"key": [a, b, ...]` on one line, each element written by `item`.
    fn inline_array<T>(&mut self, key: &str, vs: &[T], mut item: impl FnMut(&mut String, &T)) {
        self.newline_key(key);
        self.out.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            item(&mut self.out, v);
        }
        self.out.push(']');
    }

    /// `"key": [1, 2, ...]` on one line (for short integer vectors).
    pub fn u64_array_field(&mut self, key: &str, vs: &[u64]) {
        self.inline_array(key, vs, |out, v| out.push_str(&v.to_string()));
    }

    /// `"key": [1.5, 2.5, ...]` on one line (for short numeric vectors).
    pub fn f64_array_field(&mut self, key: &str, vs: &[f64]) {
        self.inline_array(key, vs, |out, v| out.push_str(&format!("{v:?}")));
    }

    /// `"key": ["a", "b", ...]` on one line (for short string vectors).
    pub fn str_array_field(&mut self, key: &str, vs: &[&str]) {
        self.inline_array(key, vs, |out, v| {
            out.push('"');
            escape_into(v, out);
            out.push('"');
        });
    }

    /// Terminate the document with a trailing newline and return it.
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &str) -> ParseError {
        ParseError::new(format!("{reason} (at byte {})", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our writers;
                            // reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid; copy the raw bytes of the char).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("slice on char boundaries"),
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ASCII")
            .to_string();
        if text.parse::<f64>().is_err() {
            return Err(self.err("malformed number"));
        }
        Ok(JsonValue::Number(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" 42 ").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": false}], "c": "x"}"#).unwrap();
        let arr = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
    }

    #[test]
    fn numbers_keep_source_text() {
        // 2^63 + 1 does not fit f64 exactly; the text survives parsing.
        let v = parse("9223372036854775809").unwrap();
        assert_eq!(v, JsonValue::Number("9223372036854775809".into()));
        assert_eq!(v.as_u64(), Some(9223372036854775809));
    }

    #[test]
    fn escape_round_trips() {
        let original = "line1\nline2\t\"quoted\" \\slash\u{1}";
        let mut escaped = String::new();
        escape_into(original, &mut escaped);
        let parsed = parse(&format!("\"{escaped}\"")).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("true false").is_err());
        // A truncated journal line (the crash-safety case) is an error, not
        // a partial value.
        assert!(parse(r#"{"outcome": "ok", "stats": "{\"cy"#).is_err());
    }

    #[test]
    fn object_lookup_preserves_first_match_and_order(// canonical writers never duplicate keys; first wins by construction
    ) {
        let v = parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_u64), Some(1));
    }
}
