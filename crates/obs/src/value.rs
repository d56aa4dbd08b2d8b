//! A minimal JSON *parser*, the read-side complement of [`crate::json`]
//! (which only serializes).
//!
//! The workspace deliberately avoids `serde_json`; campaign specs,
//! checkpoint manifests and benchmark result lines are small
//! machine-written documents, so a recursive-descent parser over a
//! [`Value`] tree is all that is needed. Numbers are held as `f64`
//! (every numeric field the workspace round-trips is well inside the
//! exact-integer range of a double); objects preserve key order so error
//! messages can point at the offending field.
//!
//! It is the workspace's one JSON parser: campaign specs and manifests,
//! and the benchmark's per-workload result lines, all read through it.

use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (`None` on missing key or non-object).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (rejects `2.5` and `-1`). Numbers parse through `f64`, so
    /// an integer literal at or above 2⁵³ may already have been rounded;
    /// those are refused rather than read as the integer they rounded to.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT_INTEGER_LIMIT => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes this value back to compact JSON text, matching the
    /// conventions of the write-side serializer in [`crate::json`]
    /// (compact separators, `{}`-formatted numbers, non-finite numbers as
    /// `null`). Together with [`parse`] this lets a subobject of a parsed
    /// document be lifted out and compared or re-written without a
    /// schema.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_json_string(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, key);
                    out.push(':');
                    value.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a JSON string literal (same escaping rules as the
/// serializer in [`crate::json`]).
pub fn write_json_string(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse failure: what was wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document; trailing whitespace is allowed,
/// trailing content is an error.
///
/// Arrays and objects may nest at most 128 levels deep; deeper input is
/// an error rather than a stack overflow of the recursive descent.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing content after JSON document"));
    }
    Ok(value)
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// documents it reads (campaign specs, manifests, request bodies) nest a
/// handful of levels.
const MAX_DEPTH: usize = 128;

/// 2⁵³, the first integer a rounded literal can land on (`2⁵³ + 1`
/// parses as `2⁵³`), so [`Value::as_u64`] reads only integers below it.
const EXACT_INTEGER_LIMIT: f64 = 9_007_199_254_740_992.0;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
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
            Err(self.error(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!(
                "arrays and objects nested deeper than {MAX_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for the
                            // machine-written documents this parser reads;
                            // map lone surrogates to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid; copy the full sequence).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .peek()
                        .is_some_and(|b| b & 0xc0 == 0x80 && self.pos > start)
                    {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
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
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.error("malformed number"))
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-2.5e1").unwrap(), Value::Num(-25.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn escapes_and_unicode() {
        assert_eq!(
            parse(r#""a\"b\\c\ndA""#).unwrap(),
            Value::Str("a\"b\\c\ndA".into())
        );
        assert_eq!(parse("\"Δρ\"").unwrap(), Value::Str("Δρ".into()));
    }

    #[test]
    fn arrays_and_objects() {
        let v = parse(r#"{"axes": {"nodes": [4, 8]}, "reps": 3}"#).unwrap();
        assert_eq!(v.get("reps").and_then(Value::as_u64), Some(3));
        let nodes = v.get("axes").and_then(|a| a.get("nodes")).unwrap();
        assert_eq!(nodes.as_arr().unwrap(), &[Value::Num(4.0), Value::Num(8.0)]);
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Obj(vec![]));
    }

    #[test]
    fn integer_accessor_is_exact() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        // 2⁵³ − 1 is the largest integer read; from 2⁵³ on, a literal
        // may have been rounded.
        assert_eq!(
            parse("9007199254740991").unwrap().as_u64(),
            Some(9_007_199_254_740_991)
        );
        for past in ["9007199254740992", "9007199254740993", "1e300"] {
            assert_eq!(parse(past).unwrap().as_u64(), None, "{past}");
        }
    }

    #[test]
    fn boolean_accessor() {
        assert_eq!(parse("true").unwrap().as_bool(), Some(true));
        assert_eq!(parse("1").unwrap().as_bool(), None);
    }

    #[test]
    fn errors_carry_offsets() {
        assert!(parse("").is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("nul").is_err());
        let e = parse("true false").unwrap_err();
        assert!(e.message.contains("trailing"));
        assert_eq!(e.offset, 5);
    }

    #[test]
    fn nesting_is_capped() {
        let deep = "[".repeat(100_000);
        let e = parse(&deep).unwrap_err();
        assert!(e.message.contains("128"), "{e}");
        assert_eq!(e.offset, MAX_DEPTH);
        let deep_objects = "{\"a\":".repeat(100_000);
        assert!(parse(&deep_objects).is_err());
        // Exactly at the limit still parses.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041""#).unwrap(), Value::Str("A".into()));
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u-041""#).is_err());
        assert!(parse(r#""\u 041""#).is_err());
        assert!(parse(r#""\u004""#).is_err());
    }

    #[test]
    fn value_writer_round_trips_through_parse() {
        // parse → to_json → parse is the identity; and for documents
        // already in compact form, parse → to_json reproduces the bytes.
        let compact = r#"{"name":"smoke","p":[1,2.5,null,true],"nested":{"a":"x\"y"},"e":[]}"#;
        let v = parse(compact).unwrap();
        assert_eq!(v.to_json(), compact);
        assert_eq!(parse(&v.to_json()).unwrap(), v);
        // Spacing normalizes away; values survive.
        let spaced = parse("{ \"a\" : [ 1 , 2 ] }").unwrap();
        assert_eq!(spaced.to_json(), "{\"a\":[1,2]}");
        // Non-finite numbers serialize as null, matching crate::json.
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        assert_eq!(Value::Str("a\nb".into()).to_json(), "\"a\\nb\"");
    }

    #[test]
    fn round_trips_obs_json_output() {
        // The serializer in `crate::json` and this parser must agree: what
        // one writes, the other reads (resume and trace replay depend on
        // this).
        #[derive(serde::Serialize)]
        struct Rec {
            point: u64,
            mean: f64,
            params: Vec<(String, f64)>,
        }
        let line = crate::json::to_string(&Rec {
            point: 3,
            mean: 12.5,
            params: vec![("nodes".into(), 8.0)],
        })
        .unwrap();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("point").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("mean").and_then(Value::as_f64), Some(12.5));
    }
}
