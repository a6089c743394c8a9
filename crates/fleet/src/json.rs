//! Minimal JSON reading/writing for the fleet protocol and results store.
//!
//! The repo hand-rolls its machine-readable output. The fleet subsystem
//! additionally needs to *read* JSON back — worker protocol messages, stored
//! cell results, manifests — so this module carries a small self-contained
//! parser and writer.
//!
//! Numbers are kept as their raw source text ([`Value::Num`]) and converted
//! on demand: floats written with Rust's shortest-roundtrip formatting
//! (`{:?}`) parse back to the bit-identical `f64`, and `u64` counters larger
//! than 2^53 never lose precision by being squeezed through a double. That
//! property is what lets a resumed, re-merged sweep reproduce the
//! single-process tables bit for bit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep insertion order irrelevant by
/// using a sorted map; duplicate keys keep the last occurrence.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token text (lossless for u64 and f64).
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
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

    /// The number as `u64`, if this is an integer token in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse::<u64>().ok(),
            _ => None,
        }
    }

    /// The number as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// The number as `f64` (exact round-trip for values written by
    /// [`fmt_f64`]); accepts the `"NaN"`/`"inf"`/`"-inf"` string escapes.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse::<f64>().ok(),
            Value::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// The bool payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes the value back to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(raw) => out.push_str(raw),
            Value::Str(s) => out.push_str(&escape(s)),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escape(k));
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Builds a [`Value::Obj`] from key/value pairs.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A string value.
pub fn str(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// An unsigned-integer value (lossless at any magnitude).
pub fn num_u64(v: u64) -> Value {
    Value::Num(v.to_string())
}

/// A float value via shortest-roundtrip formatting; non-finite values
/// become the string escapes [`Value::as_f64`] understands.
pub fn num_f64(v: f64) -> Value {
    if v.is_nan() {
        Value::Str("NaN".to_string())
    } else if v.is_infinite() {
        Value::Str(if v > 0.0 { "inf" } else { "-inf" }.to_string())
    } else {
        Value::Num(fmt_f64(v))
    }
}

/// An array of floats.
pub fn arr_f64(vs: &[f64]) -> Value {
    Value::Arr(vs.iter().map(|&v| num_f64(v)).collect())
}

/// An array of unsigned integers.
pub fn arr_u64(vs: &[u64]) -> Value {
    Value::Arr(vs.iter().map(|&v| num_u64(v)).collect())
}

/// Reads a float array back.
pub fn read_arr_f64(v: &Value) -> Result<Vec<f64>, ParseError> {
    v.as_arr()
        .ok_or_else(|| ParseError::shape("expected float array"))?
        .iter()
        .map(|item| {
            item.as_f64()
                .ok_or_else(|| ParseError::shape("expected float"))
        })
        .collect()
}

/// Reads an unsigned-integer array back.
pub fn read_arr_u64(v: &Value) -> Result<Vec<u64>, ParseError> {
    v.as_arr()
        .ok_or_else(|| ParseError::shape("expected integer array"))?
        .iter()
        .map(|item| {
            item.as_u64()
                .ok_or_else(|| ParseError::shape("expected integer"))
        })
        .collect()
}

/// Shortest-roundtrip float text: parsing it back yields the identical
/// IEEE-754 double.
pub fn fmt_f64(v: f64) -> String {
    let s = format!("{v:?}");
    debug_assert_eq!(s.parse::<f64>().ok(), Some(v), "roundtrip {s}");
    s
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Why a JSON document failed to parse.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// Human description.
    pub message: String,
    /// Byte offset where the problem was noticed (0 for shape errors
    /// raised by typed readers).
    pub offset: usize,
}

impl ParseError {
    fn shape(message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: 0,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[', "expected '['")?;
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected string")?;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our own
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii slice")
            .to_string();
        if raw.parse::<f64>().is_err() {
            return Err(self.err("malformed number"));
        }
        Ok(Value::Num(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_documents() {
        let doc = r#"{"a":[1,2.5,"x"],"b":{"c":true,"d":null},"e":"q\"\n"}"#;
        let v = parse(doc).expect("parses");
        assert_eq!(parse(&v.render()).expect("reparses"), v);
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")),
            Some(&Value::Bool(true))
        );
        assert_eq!(v.get("e").and_then(Value::as_str), Some("q\"\n"));
    }

    #[test]
    fn floats_roundtrip_bit_identically() {
        for v in [
            0.30639789443366944_f64,
            1.485567709700262,
            -1.0e-300,
            123456789.000000001,
            f64::MIN_POSITIVE,
        ] {
            let text = num_f64(v).render();
            let back = parse(&text).expect("number").as_f64().expect("f64");
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
    }

    #[test]
    fn non_finite_floats_use_string_escapes() {
        assert!(parse(&num_f64(f64::NAN).render())
            .unwrap()
            .as_f64()
            .unwrap()
            .is_nan());
        assert_eq!(
            parse(&num_f64(f64::INFINITY).render()).unwrap().as_f64(),
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn u64_counters_do_not_lose_precision() {
        let big = u64::MAX - 3;
        let v = parse(&num_u64(big).render()).expect("number");
        assert_eq!(v.as_u64(), Some(big));
    }

    #[test]
    fn malformed_documents_error_with_offsets() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "nulL", "1 2", ""] {
            let err = parse(bad).expect_err(bad);
            assert!(!err.to_string().is_empty());
        }
    }
}
