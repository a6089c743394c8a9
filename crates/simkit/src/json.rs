//! The workspace's one JSON layer: a small self-contained writer and
//! parser.
//!
//! Every machine-readable artifact goes through it: the experiment JSON
//! files `repro --json` writes, the fleet's worker protocol, and its
//! results store (cell files, manifests).
//!
//! Objects keep their keys in insertion order: [`render`](Value::render)
//! writes them in the order they were built, and [`parse`] keeps the
//! order they appear in the document, so parse → render is byte-stable.
//! Numbers are kept as their raw source text ([`Value::Num`]) and converted
//! on demand: floats written with Rust's shortest-roundtrip formatting
//! (`{:?}`) parse back to the bit-identical `f64`, and `u64` counters larger
//! than 2^53 never lose precision by being squeezed through a double. That
//! property is what lets a resumed, re-merged sweep reproduce the
//! single-process tables bit for bit.
//!
//! ```
//! use simkit::json::{self, Value};
//!
//! let v = json::parse(r#"{"b":[1,2],"a":"x"}"#).expect("parses");
//! assert_eq!(v.render(), r#"{"b":[1,2],"a":"x"}"#);
//! assert_eq!(v.req::<Vec<u64>>("b"), Ok(vec![1, 2]));
//! assert_eq!(v.req::<&str>("a"), Ok("x"));
//! assert!(v.req::<u64>("a").is_err());
//! ```

use std::fmt::Write as _;

/// A parsed JSON value.
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
    /// An object, keys in insertion order. [`parse`] keeps one entry per
    /// key: a duplicate key keeps its first position and its last value.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required object field converted to `T`; the error names the key
    /// and what was expected.
    pub fn req<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<T, String> {
        let v = self.get(key).ok_or_else(|| format!("missing '{key}'"))?;
        T::from_json(v).ok_or_else(|| format!("'{key}' is not {}", T::EXPECTED))
    }

    /// Serializes the value to compact JSON text.
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
            Value::Str(s) => write_str(out, s),
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
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// A type [`Value::req`] can read a field as.
pub trait FromJson<'a>: Sized {
    /// What the value must be, for the error message.
    const EXPECTED: &'static str;

    /// The converted value, or `None` when `v` has the wrong shape.
    fn from_json(v: &'a Value) -> Option<Self>;
}

impl<'a> FromJson<'a> for &'a Value {
    const EXPECTED: &'static str = "a value";
    fn from_json(v: &'a Value) -> Option<Self> {
        Some(v)
    }
}

impl<'a> FromJson<'a> for &'a [Value] {
    const EXPECTED: &'static str = "an array";
    fn from_json(v: &'a Value) -> Option<Self> {
        match v {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl<'a> FromJson<'a> for &'a str {
    const EXPECTED: &'static str = "a string";
    fn from_json(v: &'a Value) -> Option<Self> {
        match v {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl FromJson<'_> for String {
    const EXPECTED: &'static str = "a string";
    fn from_json(v: &Value) -> Option<Self> {
        <&str>::from_json(v).map(str::to_string)
    }
}

/// Any integer token in range (lossless at any magnitude).
impl FromJson<'_> for u64 {
    const EXPECTED: &'static str = "an unsigned integer";
    fn from_json(v: &Value) -> Option<Self> {
        match v {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

impl FromJson<'_> for usize {
    const EXPECTED: &'static str = "an unsigned integer";
    fn from_json(v: &Value) -> Option<Self> {
        u64::from_json(v).and_then(|n| n.try_into().ok())
    }
}

impl FromJson<'_> for u32 {
    const EXPECTED: &'static str = "an unsigned 32-bit integer";
    fn from_json(v: &Value) -> Option<Self> {
        u64::from_json(v).and_then(|n| n.try_into().ok())
    }
}

/// Exact round-trip for values written by [`num_f64`], including its
/// `"NaN"`/`"inf"`/`"-inf"` string escapes.
impl FromJson<'_> for f64 {
    const EXPECTED: &'static str = "a number";
    fn from_json(v: &Value) -> Option<Self> {
        match v {
            Value::Num(raw) => raw.parse().ok(),
            Value::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }
}

impl<'a, T: FromJson<'a>> FromJson<'a> for Vec<T> {
    const EXPECTED: &'static str = "an array of the expected items";
    fn from_json(v: &'a Value) -> Option<Self> {
        <&[Value]>::from_json(v)?.iter().map(T::from_json).collect()
    }
}

/// Builds a [`Value::Obj`] from key/value pairs, in the given order.
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

/// A float value via shortest-roundtrip formatting (parsing the text back
/// yields the identical IEEE-754 double); non-finite values become the
/// string escapes its `f64` reader understands.
pub fn num_f64(v: f64) -> Value {
    if v.is_nan() {
        Value::Str("NaN".to_string())
    } else if v.is_infinite() {
        Value::Str(if v > 0.0 { "inf" } else { "-inf" }.to_string())
    } else {
        let s = format!("{v:?}");
        debug_assert_eq!(s.parse::<f64>().ok(), Some(v), "roundtrip {s}");
        Value::Num(s)
    }
}

/// An array of strings.
pub fn arr_str(vs: &[String]) -> Value {
    Value::Arr(vs.iter().map(str).collect())
}

/// An array of floats.
pub fn arr_f64(vs: &[f64]) -> Value {
    Value::Arr(vs.iter().map(|&v| num_f64(v)).collect())
}

/// An array of unsigned integers.
pub fn arr_u64(vs: &[u64]) -> Value {
    Value::Arr(vs.iter().map(|&v| num_u64(v)).collect())
}

/// Writes `s` as a quoted JSON string literal: quotes, backslashes and
/// control characters escaped, everything else verbatim.
fn write_str(out: &mut String, s: &str) {
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

/// Why a JSON document failed to parse.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// Human description.
    pub message: String,
    /// Byte offset where the problem was noticed.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
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
        if self.text[self.pos..].starts_with(lit) {
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
        let mut fields: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value()?;
            match fields.iter_mut().find(|(k, _)| *k == key) {
                Some(field) => field.1 = val,
                None => fields.push((key, val)),
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
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
                            let code = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
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
                    // A run of plain characters up to the next quote or
                    // escape. Both are ASCII, so the run ends on a char
                    // boundary of the (valid UTF-8) input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
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
        let raw = &self.text[start..self.pos];
        if raw.parse::<f64>().is_err() {
            return Err(self.err("malformed number"));
        }
        Ok(Value::Num(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_documents() {
        for doc in [
            r#"{"a":[1,2.5,"x"],"b":{"c":true,"d":null},"e":"q\"\n"}"#,
            // Insertion order survives parse -> render.
            r#"{"zeta":1,"alpha":{"y":[],"b":"\u0001"},"mid":-2.5e-3}"#,
        ] {
            let v = parse(doc).expect("parses");
            assert_eq!(v.render(), doc);
            assert_eq!(parse(&v.render()).expect("reparses"), v);
        }
        let v = parse(r#"{"a":[1,2.5,"x"],"b":{"c":true,"d":null},"e":"q\"\n"}"#).unwrap();
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")),
            Some(&Value::Bool(true))
        );
        assert_eq!(v.req::<&str>("e"), Ok("q\"\n"));
        // A duplicate key keeps its first position and its last value.
        let dup = parse(r#"{"k":1,"j":2,"k":3}"#).expect("parses");
        assert_eq!(dup.req::<u64>("k"), Ok(3));
        assert_eq!(dup.render(), r#"{"k":3,"j":2}"#);
    }

    #[test]
    fn typed_fields_read_and_name_their_errors() {
        let v = parse(r#"{"n":7,"big":4294967296,"f":[0.5,"inf"],"rows":[[1],[2,3]]}"#).unwrap();
        assert_eq!(v.req::<u32>("n"), Ok(7));
        assert_eq!(v.req::<usize>("n"), Ok(7));
        assert_eq!(v.req::<u64>("big"), Ok(1 << 32));
        assert_eq!(v.req::<Vec<f64>>("f"), Ok(vec![0.5, f64::INFINITY]));
        assert_eq!(
            v.req::<Vec<Vec<u64>>>("rows"),
            Ok(vec![vec![1], vec![2, 3]])
        );
        assert_eq!(v.req::<&[Value]>("rows").map(<[Value]>::len), Ok(2));
        assert!(v.req::<u32>("big").unwrap_err().contains("'big'"));
        assert!(v.req::<String>("n").unwrap_err().contains("string"));
        assert!(v.req::<Vec<u64>>("f").is_err());
        assert_eq!(v.req::<u64>("gone"), Err("missing 'gone'".to_string()));
    }

    /// Renders `v` and reads the text back as a `T`.
    fn reread<T: for<'a> FromJson<'a>>(v: &Value) -> Option<T> {
        T::from_json(&parse(&v.render()).expect("parses"))
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
            let back: f64 = reread(&num_f64(v)).expect("f64");
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?}");
        }
    }

    #[test]
    fn non_finite_floats_use_string_escapes() {
        assert!(reread::<f64>(&num_f64(f64::NAN)).expect("NaN").is_nan());
        assert_eq!(reread(&num_f64(f64::INFINITY)), Some(f64::INFINITY));
    }

    #[test]
    fn u64_counters_do_not_lose_precision() {
        let big = u64::MAX - 3;
        assert_eq!(reread(&num_u64(big)), Some(big));
    }

    #[test]
    fn malformed_documents_error_with_offsets() {
        for bad in [
            "{",
            "[1,",
            "\"abc",
            "{\"a\" 1}",
            "nulL",
            "1 2",
            "",
            "\"\\u12\"",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(!err.to_string().is_empty());
        }
    }
}
