#![warn(missing_docs)]

//! Offline shim for `serde_json`: the [`Value`] tree, its compact and
//! pretty printers and its parser. Covers the subset this workspace
//! uses — `to_string`, `to_string_pretty` and `from_str`, all at
//! [`Value`] type: every JSON document in the workspace is built as a
//! `Value` by hand, so there is no trait-and-derive layer.
//! Non-finite numbers print as `null` (upstream errors instead; callers
//! here never hit that path with metrics data).

/// A dynamically typed JSON tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number (all numbers are `f64`, as in JSON itself).
    Num(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object; insertion-ordered.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The entries of an object, if this is one.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The elements of an array, if this is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
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

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Look up a field of an object by name.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// A JSON parse error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Result alias matching upstream's signature shapes.
pub type Result<T> = std::result::Result<T, Error>;

/// Print as compact JSON text (never fails; `Result` is upstream's
/// signature).
pub fn to_string(value: &Value) -> Result<String> {
    let mut out = String::new();
    write_value(value, &mut out, None, 0);
    Ok(out)
}

/// Print as human-indented JSON text (two-space indent).
pub fn to_string_pretty(value: &Value) -> Result<String> {
    let mut out = String::new();
    write_value(value, &mut out, Some(2), 0);
    Ok(out)
}

/// Parse JSON text.
pub fn from_str(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

// ------------------------------------------------------------ printing

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_number(*n, out),
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        // shortest f64 text that parses back exactly
        out.push_str(&format!("{n}"));
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

// ------------------------------------------------------------- parsing

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(Error(format!("bad array at byte {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.parse_value()?;
                    entries.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(entries));
                        }
                        _ => return Err(Error(format!("bad object at byte {}", self.pos))),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(Error(format!("unexpected character at byte {}", self.pos))),
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
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
            .map_err(|_| Error("invalid utf-8 in number".into()))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| Error(format!("invalid number `{text}` at byte {start}")))
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err(Error("unterminated string".into()));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = rest
                        .get(1)
                        .copied()
                        .ok_or_else(|| Error("unterminated escape".into()))?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error("bad \\u escape".into()))?;
                            let mut code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            self.pos += 4;
                            // surrogate pair
                            if (0xd800..0xdc00).contains(&code) {
                                if self.bytes.get(self.pos..self.pos + 2) == Some(&b"\\u"[..]) {
                                    let hex2 = self
                                        .bytes
                                        .get(self.pos + 2..self.pos + 6)
                                        .and_then(|h| std::str::from_utf8(h).ok())
                                        .ok_or_else(|| Error("bad surrogate pair".into()))?;
                                    let low = u32::from_str_radix(hex2, 16)
                                        .map_err(|_| Error("bad surrogate pair".into()))?;
                                    self.pos += 6;
                                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                } else {
                                    return Err(Error("lone surrogate".into()));
                                }
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("invalid \\u codepoint".into()))?,
                            );
                        }
                        other => return Err(Error(format!("bad escape `\\{}`", other as char))),
                    }
                }
                _ => {
                    // consume one UTF-8 scalar
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| Error("invalid utf-8 in string".into()))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrips_through_text() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("a\"b\\c\nd".into())),
            (
                "xs".into(),
                Value::Array(vec![Value::Num(1.0), Value::Num(-2.5)]),
            ),
            ("ok".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
            ("empty".into(), Value::Array(vec![])),
        ]);
        let text = to_string(&v).unwrap();
        assert_eq!(from_str(&text).unwrap(), v);

        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(from_str(&pretty).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_parse() {
        let s = from_str(r#""é😀x""#).unwrap();
        assert_eq!(s, Value::Str("é😀x".into()));
    }

    #[test]
    fn float_precision_survives() {
        let x = 0.1f64 + 0.2f64;
        let text = to_string(&Value::Num(x)).unwrap();
        assert_eq!(from_str(&text).unwrap(), Value::Num(x));
    }
}
