//! Minimal JSON tree, writer and parser.
//!
//! The workspace has no serialization dependency (the build environment
//! has no registry access), so the telemetry layer carries its own tiny
//! JSON implementation: enough to write JSONL event streams and to read them
//! back for `repro report`. The writer emits one canonical form (no
//! superfluous whitespace, integers without a fractional part); the
//! parser accepts any standard JSON document.
//!
//! # Example
//! ```
//! use grel_telemetry::json::Json;
//! let v = Json::Obj(vec![
//!     ("event".into(), Json::from("campaign.done")),
//!     ("injections".into(), Json::from(2000u64)),
//! ]);
//! let line = v.to_string();
//! assert_eq!(line, r#"{"event":"campaign.done","injections":2000}"#);
//! let back = Json::parse(&line).unwrap();
//! assert_eq!(back.get("injections").and_then(Json::as_u64), Some(2000));
//! ```

use std::fmt;

/// A JSON value. Objects preserve insertion order (JSONL lines stay
/// human-readable and diff-stable).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key/value list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the byte offset of the first
    /// syntax error, including trailing garbage after the document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
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
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n as f64)
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

fn write_num(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the least-surprising stand-in.
        return f.write_str("null");
    }
    // 2^53: the largest range where f64 holds integers exactly.
    if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        write!(f, "{}", n as i64)
    } else {
        write!(f, "{n}")
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write_num(f, *n),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A JSON syntax error with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("non-ascii \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                self.pos += 2;
                                let lo = self.hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at this byte.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    if start + len > self.bytes.len() {
                        return Err(self.err("truncated UTF-8 sequence"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
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
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Json) {
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v, "roundtrip of {text}");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(Json::Null);
        roundtrip(Json::Bool(true));
        roundtrip(Json::Bool(false));
        roundtrip(Json::Num(0.0));
        roundtrip(Json::Num(-17.0));
        roundtrip(Json::Num(3.25));
        roundtrip(Json::Str("plain".into()));
        roundtrip(Json::Str("esc \"quote\" \\ \n\t\u{1}中".into()));
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(Json::Arr(vec![Json::Num(1.0), Json::Str("x".into())]));
        roundtrip(Json::Obj(vec![
            ("a".into(), Json::Null),
            ("b".into(), Json::Arr(vec![])),
            ("c".into(), Json::Obj(vec![("n".into(), Json::Num(2.0))])),
        ]));
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(2000.0).to_string(), "2000");
        assert_eq!(Json::Num(-3.0).to_string(), "-3");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn parser_accepts_standard_json() {
        let v =
            Json::parse(" { \"k\" : [ 1 , true , null , \"\\u0041\\ud83d\\ude00\" ] } ").unwrap();
        let arr = v.get("k").unwrap();
        match arr {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::Num(1.0));
                assert_eq!(items[3], Json::Str("A😀".into()));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"s":"x","n":4,"f":1.5}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("f").and_then(Json::as_u64), None);
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("missing"), None);
        let a = Json::Arr(vec![Json::Num(1.0)]);
        assert_eq!(a.as_arr().map(<[Json]>::len), Some(1));
        assert_eq!(Json::Null.as_arr(), None);
    }

    #[test]
    fn control_characters_escape_and_round_trip() {
        // Every C0 control plus the two mandatory escapes: the writer
        // must emit legal JSON and the parser must read back the exact
        // original string. Workload names and event fields are
        // user-influenced, so the event stream has to survive them.
        let mut nasty = String::from("tab\there\nline\rret\x08back\x0cfeed quote\"slash\\");
        for b in 0x00u8..0x20 {
            nasty.push(b as char);
        }
        let doc = Json::Obj(vec![("s".into(), Json::from(nasty.as_str()))]);
        let text = doc.to_string();
        // The serialized form contains no raw control bytes at all.
        assert!(
            text.bytes().all(|b| b >= 0x20),
            "raw control byte leaked into {text:?}"
        );
        let back = Json::parse(&text).expect("escaped string parses");
        assert_eq!(back.get("s").and_then(Json::as_str), Some(nasty.as_str()));
    }

    #[test]
    fn named_escapes_use_short_forms() {
        let text = Json::from("a\"b\\c\nd\re\tf").to_string();
        assert_eq!(text, r#""a\"b\\c\nd\re\tf""#);
        // Unnamed controls fall back to \u00XX.
        assert_eq!(Json::from("\x01").to_string(), r#""\u0001""#);
        assert_eq!(Json::from("\x1f").to_string(), r#""\u001f""#);
    }
}
