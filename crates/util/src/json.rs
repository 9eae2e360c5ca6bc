//! Minimal in-house JSON support: a [`Value`] tree, a compact encoder, and
//! a recursive-descent parser.
//!
//! The workspace is hermetic (zero external crates), so the telemetry
//! plane's JSONL sinks and the `trace_report` summarizer carry their own
//! JSON layer. The encoder always produces valid, compact JSON; the parser
//! accepts any standard JSON document (objects, arrays, strings with
//! escapes, numbers, booleans, null) and reports the byte offset of the
//! first error.
//!
//! # Example
//!
//! ```
//! use manet_util::json::Value;
//!
//! let v = Value::Obj(vec![
//!     ("kind".into(), Value::from("link_up")),
//!     ("t".into(), Value::from(1.25)),
//! ]);
//! let text = v.to_string();
//! assert_eq!(text, r#"{"kind":"link_up","t":1.25}"#);
//! let back = Value::parse(&text).unwrap();
//! assert_eq!(back.get("t").and_then(Value::as_f64), Some(1.25));
//! ```

use std::fmt;

/// A JSON document node.
///
/// Objects preserve insertion order (they are association lists, not maps),
/// which keeps encoded telemetry lines stable and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as an ordered `(key, value)` list.
    Obj(Vec<(String, Value)>),
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::Num(x as f64)
    }
}

impl From<usize> for Value {
    fn from(x: usize) -> Self {
        Value::Num(x as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl Value {
    /// Member lookup on an object (`None` for other node types or a
    /// missing key; first match wins on duplicate keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document from `text` (surrounding whitespace
    /// allowed, trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] carrying the byte offset and a static
    /// description of the first problem found.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
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

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(x) => write_num(f, *x),
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
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

/// Writes `x` as [`Value::Num`] encodes it: an integral value below 2⁵³ in
/// magnitude as an integer, any other finite value by `f64`'s `Display`,
/// and NaN or an infinity as `null` (JSON has neither, and `null` keeps
/// the document parsable). Encoders that write JSON text directly, such
/// as the telemetry plane's trace lines, number through this so their
/// bytes match the [`Value`] encoder's.
///
/// # Errors
///
/// Propagates the writer's error (none for a `String`).
pub fn write_num<W: fmt::Write>(w: &mut W, x: f64) -> fmt::Result {
    if !x.is_finite() {
        return w.write_str("null");
    }
    if x.fract() != 0.0 || x.abs() >= 2f64.powi(53) {
        return write!(w, "{x}");
    }
    // Integral and exact in an i64: its decimal digits, written here
    // rather than through `i64`'s formatter (the hot case of trace lines).
    let int = x as i64;
    let mut n = int.unsigned_abs();
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if int < 0 {
        w.write_char('-')?;
    }
    w.write_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"))
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
            c => f.write_char(c)?,
        }
    }
    f.write_str("\"")
}

use std::fmt::Write as _;

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Static description of the failure.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
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

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, text: &'static str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect a \uXXXX low half.
                                self.eat(b'\\', "expected low surrogate")?;
                                self.eat(b'u', "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape character")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>().map(Value::Num).map_err(|_| JsonError {
            offset: start,
            message: "invalid number",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_documents() {
        let v = Value::Obj(vec![
            ("type".into(), Value::from("event")),
            ("t".into(), Value::from(1.25)),
            ("count".into(), Value::from(42u64)),
            (
                "flags".into(),
                Value::Arr(vec![Value::Bool(true), Value::Null]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn integers_encode_without_decimal_point() {
        assert_eq!(Value::from(3u64).to_string(), "3");
        assert_eq!(Value::Num(-7.0).to_string(), "-7");
        assert_eq!(Value::from(2.5).to_string(), "2.5");
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
        for (x, text) in [
            (0.0, "0"),
            (-0.0, "0"),
            (9_007_199_254_740_991.0, "9007199254740991"),
            (-9_007_199_254_740_991.0, "-9007199254740991"),
            (9_007_199_254_740_992.0, "9007199254740992"),
            (u64::MAX as f64, "18446744073709552000"),
            (1e21, "1000000000000000000000"),
            (0.1 + 0.2, "0.30000000000000004"),
            (-2.5e-7, "-0.00000025"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(Value::Num(x).to_string(), text, "{x:e}");
            let mut direct = String::new();
            write_num(&mut direct, x).unwrap();
            assert_eq!(direct, text, "{x:e}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line\nbreak \"quoted\" back\\slash\ttab \u{1}ctl";
        let text = Value::from(s).to_string();
        assert_eq!(Value::parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Value::parse(r#""é😀""#).unwrap().as_str(), Some("é😀"));
    }

    #[test]
    fn accessors() {
        let v = Value::parse(r#"{"a": 3, "b": "x", "c": [1, 2], "d": true}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("a").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(
            v.get("c").and_then(Value::as_array).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.get("d").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("a"), None);
        assert_eq!(Value::from(1.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn numbers_parse_in_all_forms() {
        for (text, expect) in [
            ("0", 0.0),
            ("-12", -12.0),
            ("3.5", 3.5),
            ("1e3", 1000.0),
            ("2.5E-2", 0.025),
            ("-0.125", -0.125),
        ] {
            assert_eq!(Value::parse(text).unwrap().as_f64(), Some(expect), "{text}");
        }
    }

    #[test]
    fn errors_carry_offsets() {
        let e = Value::parse("{\"a\": }").unwrap_err();
        assert_eq!(e.offset, 6);
        assert!(e.to_string().contains("byte 6"));
        assert!(Value::parse("").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{\"a\":1,}").is_err());
        assert!(Value::parse("\"unterminated").is_err());
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("truth").is_err());
        assert!(Value::parse(r#""\q""#).is_err());
        assert!(Value::parse(r#""\ud800x""#).is_err());
    }

    #[test]
    fn nested_and_empty_containers() {
        let v = Value::parse(r#"{"a": {}, "b": [[], [1]], "c": null}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Value::Obj(vec![])));
        assert_eq!(
            v.get("b").and_then(Value::as_array).unwrap()[1],
            Value::Arr(vec![Value::Num(1.0)])
        );
        assert_eq!(v.get("c"), Some(&Value::Null));
    }
}
