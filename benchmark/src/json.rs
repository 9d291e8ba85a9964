//! A minimal JSON value: just enough to write result records and read
//! them (and `BENCHMARK.json`) back. The container has no crates.io
//! access, so there is no `serde` to lean on.

use std::fmt::Write as _;

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always finite).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// A message with the byte offset of the first malformed construct.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(value)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
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

    /// The entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// Serializes on one line (no trailing newline).
    ///
    /// # Panics
    ///
    /// Panics on a non-finite number: JSON cannot carry one, and a
    /// non-finite metric is a harness bug.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(v) => {
                assert!(v.is_finite(), "JSON cannot carry {v}");
                // Rust prints the shortest digits that round-trip.
                let _ = write!(out, "{v}");
            }
            Value::Str(s) => write_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Shorthand for building objects: `obj([("a", 1.0.into()), …])`.
pub fn obj<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting bound: result files are three levels deep; anything deeper is
/// not ours, and unbounded recursion on a hostile file would overflow the
/// stack.
const MAX_DEPTH: usize = 32;

struct Parser<'t> {
    bytes: &'t [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end")),
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Obj(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.error("expected `:`"));
                    }
                    entries.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Value::Obj(entries));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected `,` or `}`"));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Value::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected `,` or `]`"));
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("number characters are ASCII");
                match text.parse::<f64>() {
                    Ok(v) if v.is_finite() => Ok(Value::Num(v)),
                    _ => {
                        self.pos = start;
                        Err(self.error("expected a value"))
                    }
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| self.error("invalid UTF-8"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.bytes.get(self.pos) {
                        Some(b'"') => b'"',
                        Some(b'\\') => b'\\',
                        Some(b'/') => b'/',
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(b'r') => b'\r',
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(hex.encode_utf8(&mut buf).as_bytes());
                            self.pos += 5;
                            continue;
                        }
                        _ => return Err(self.error("bad escape")),
                    };
                    out.push(escaped);
                    self.pos += 1;
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_result_record() {
        let record = obj([
            ("correct", true.into()),
            ("attempted", 12.0.into()),
            (
                "metrics",
                obj([(
                    "op_ms_p50",
                    obj([("value", 1.203_456_789_012_3.into()), ("unit", "ms".into())]),
                )]),
            ),
            ("note", "a \"quoted\"\nline".into()),
            ("list", Value::Arr(vec![Value::Null, 1e-7.into()])),
        ]);
        let line = record.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(Value::parse(&line).unwrap(), record);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "nul",
            "1 2",
            "\"open",
            "{\"a\": nan}",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} must not parse");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Value::parse(&deep).is_err());
    }
}
