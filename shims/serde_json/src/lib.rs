//! Offline stand-in for `serde_json`, built on the vendored `serde`
//! shim's [`Value`] tree. Supports rendering (`to_string`,
//! `to_string_pretty`), lowering (`to_value`), and parsing back into a
//! [`Value`] (`from_str`) — enough for the workspace's JSON reports and
//! round-trip tests.

use serde::Serialize;
pub use serde::Value;
use std::fmt::Write as _;

/// JSON rendering/parsing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}
impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

/// Lowers any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_json_value()
}

/// Renders compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    render(&value.to_json_value(), None, 0, &mut out);
    Ok(out)
}

/// Renders human-readable JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    render(&value.to_json_value(), Some(2), 0, &mut out);
    Ok(out)
}

fn render(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(f) => {
            if f.is_finite() {
                // `{:?}` is Rust's shortest round-trip float form and
                // always keeps a decimal point or exponent, so the
                // value re-parses as F64 (not U64).
                let _ = write!(out, "{f:?}");
            } else {
                out.push_str("null");
            }
        }
        Value::String(s) => render_string(s, out),
        Value::Array(items) => render_seq(
            items.iter(),
            items.len(),
            indent,
            depth,
            out,
            ('[', ']'),
            |item, d, o| render(item, indent, d, o),
        ),
        Value::Object(fields) => render_seq(
            fields.iter(),
            fields.len(),
            indent,
            depth,
            out,
            ('{', '}'),
            |(k, val), d, o| {
                render_string(k, o);
                o.push(':');
                if indent.is_some() {
                    o.push(' ');
                }
                render(val, indent, d, o);
            },
        ),
    }
}

fn render_seq<T>(
    items: impl Iterator<Item = T>,
    len: usize,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
    brackets: (char, char),
    mut each: impl FnMut(T, usize, &mut String),
) {
    out.push(brackets.0);
    if len == 0 {
        out.push(brackets.1);
        return;
    }
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * (depth + 1)));
        }
        each(item, depth + 1, out);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(step * depth));
    }
    out.push(brackets.1);
}

fn render_string(s: &str, out: &mut String) {
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

/// Deepest array/object nesting [`from_str`] accepts: the recursion
/// limit real `serde_json` uses. The parser recurses once per level, so
/// without a cap a hostile input like 50,000 `[` overflows the stack
/// and aborts the process instead of returning `Err`.
pub const RECURSION_LIMIT: usize = 128;

/// Parses JSON text into a [`Value`] tree. Nesting deeper than
/// [`RECURSION_LIMIT`] is an error.
pub fn from_str(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing input at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    /// Parse one array or object one level deeper, refusing to go past
    /// [`RECURSION_LIMIT`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == RECURSION_LIMIT {
            return Err(Error(format!(
                "recursion limit exceeded at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(Error(format!("bad escape {other:?}"))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error("invalid utf-8".into()))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(Error("unterminated string".into())),
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|e| Error(format!("bad number `{text}`: {e}")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|e| Error(format!("bad number `{text}`: {e}")))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|e| Error(format!("bad number `{text}`: {e}")))
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error(format!(
                        "expected ',' or ']', found {:?}",
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(Error(format!(
                        "expected ',' or '}}', found {:?}",
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::U64(u64::MAX),
            Value::I64(-42),
            Value::F64(3.5),
            Value::F64(1e300),
            Value::String("a \"b\"\nc\\".into()),
        ] {
            let text = to_string(&v).unwrap();
            assert_eq!(from_str(&text).unwrap(), v, "via {text}");
        }
    }

    #[test]
    fn round_trip_nested_pretty() {
        let v = Value::Object(vec![
            (
                "a".into(),
                Value::Array(vec![Value::U64(1), Value::F64(2.0)]),
            ),
            ("b".into(), Value::Object(vec![("c".into(), Value::Null)])),
            ("empty".into(), Value::Array(vec![])),
        ]);
        let text = to_string_pretty(&v).unwrap();
        assert_eq!(from_str(&text).unwrap(), v);
    }

    #[test]
    fn nesting_is_capped_at_the_recursion_limit() {
        let deepest = "[".repeat(RECURSION_LIMIT) + &"]".repeat(RECURSION_LIMIT);
        assert!(from_str(&deepest).is_ok());
        let nested = |n: usize| "{\"a\":".repeat(n) + "1" + &"}".repeat(n);
        assert!(from_str(&nested(RECURSION_LIMIT)).is_ok());
        assert!(from_str(&nested(RECURSION_LIMIT + 1)).is_err());
        let over = "[".repeat(RECURSION_LIMIT + 1) + &"]".repeat(RECURSION_LIMIT + 1);
        assert!(from_str(&over).is_err());
        assert!(from_str(&"[".repeat(100_000)).is_err(), "no stack overflow");
    }
}
