//! Offline stand-in for `serde_json`.
//!
//! Serializes the serde shim's [`Value`] tree to genuine JSON text (readable
//! by any JSON tool) and parses JSON text back. Floating-point output uses
//! Rust's shortest-round-trip formatting, so `f32`/`f64` survive a
//! serialize → parse cycle bit-for-bit (the determinism tests rely on it).

use serde::{Deserialize, Serialize};
pub use serde::Value;
use std::fmt;

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error::new(e.to_string())
    }
}

/// Serialize to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0)?;
    Ok(out)
}

/// Serialize to human-indented JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0)?;
    Ok(out)
}

/// Serialize to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Parse JSON text into a value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at offset {}", p.pos)));
    }
    Ok(T::from_value(&v)?)
}

/// Parse JSON bytes into a value.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

// ---------------------------------------------------------------- writer

fn write_value(
    v: &Value,
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => write_f64(*x, out)?,
        Value::Str(s) => write_escaped(s, out),
        Value::Seq(items) => write_seq(items, out, indent, depth, |item, out| {
            write_value(item, out, indent, depth + 1)
        })?,
        // The array of widened floats a `Vec<f32>` has always printed as.
        Value::F32s(xs) => write_seq(xs, out, indent, depth, |x, out| write_f64(*x as f64, out))?,
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, depth + 1)?;
            }
            if !entries.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push('}');
        }
    }
    Ok(())
}

fn write_f64(x: f64, out: &mut String) -> Result<(), Error> {
    if !x.is_finite() {
        return Err(Error::new("JSON cannot represent NaN or infinity"));
    }
    // Shortest round-trip representation; integral floats still get a ".0"
    // so they re-parse as floats, matching real serde_json.
    let s = x.to_string();
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
    Ok(())
}

fn write_seq<T>(
    items: &[T],
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    mut write_item: impl FnMut(&T, &mut String) -> Result<(), Error>,
) -> Result<(), Error> {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline_indent(out, indent, depth + 1);
        write_item(item, out)?;
    }
    if !items.is_empty() {
        newline_indent(out, indent, depth);
    }
    out.push(']');
    Ok(())
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

// ---------------------------------------------------------------- parser

/// Arrays and objects may nest this deep, as in upstream serde_json: the
/// parser recurses per level, so hostile input must not pick the depth.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::new("unexpected end of JSON input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        let got = self.peek()?;
        if got != b {
            return Err(Error::new(format!(
                "expected `{}` at offset {}, found `{}`",
                b as char, self.pos, got as char
            )));
        }
        self.pos += 1;
        Ok(())
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => self.parse_string().map(Value::Str),
            b'[' => self.nested(Self::parse_array),
            b'{' => self.nested(Self::parse_object),
            b'-' | b'0'..=b'9' => self.parse_number(),
            b => Err(Error::new(format!("unexpected byte `{}` at {}", b as char, self.pos))),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!("recursion limit exceeded at offset {}", self.pos)));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::new(format!("invalid literal at offset {}", self.pos)))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::new("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
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
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u code point"))?,
                            );
                        }
                        c => {
                            return Err(Error::new(format!("unknown escape `\\{}`", c as char)))
                        }
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the full character.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    self.pos = start + width;
                    let chunk = self
                        .bytes
                        .get(start..start + width)
                        .ok_or_else(|| Error::new("truncated UTF-8 sequence"))?;
                    out.push_str(
                        std::str::from_utf8(chunk)
                            .map_err(|_| Error::new("invalid UTF-8 in string"))?,
                    );
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                b => return Err(Error::new(format!("expected `,` or `]`, found `{}`", b as char))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                b => return Err(Error::new(format!("expected `,` or `}}`, found `{}`", b as char))),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        let x: u32 = from_str("42").unwrap();
        assert_eq!(x, 42);
    }

    #[test]
    fn f32_bits_survive_json() {
        for bits in [0x3f80_0001u32, 0x0000_0001, 0x7f7f_ffff, 0xbf99_999a, 0x3355_5555] {
            let x = f32::from_bits(bits);
            let json = to_string(&x).unwrap();
            let back: f32 = from_str(&json).unwrap();
            assert_eq!(back.to_bits(), bits, "json was {json}");
        }
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "line\n\"quoted\"\tπ".to_string();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn vectors_and_tuples() {
        let v = vec![(1u32, -0.5f32), (2, 0.25)];
        let json = to_string(&v).unwrap();
        let back: Vec<(u32, f32)> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    /// A `Vec<f32>` is one packed node in the tree and, in text, the array
    /// of widened floats it was when it was a `Seq` of `F64` — compact and
    /// indented, empty or not — so no tracked result file moves. Text never
    /// parses back into the packed node.
    #[test]
    fn a_vec_of_f32_prints_as_the_sequence_of_numbers_it_used_to_be() {
        struct Row(Vec<f32>, Vec<f32>);
        impl Serialize for Row {
            fn to_value(&self) -> Value {
                let field = |k: &str, v: &Vec<f32>| (k.to_string(), v.to_value());
                Value::Map(vec![field("loss", &self.0), field("none", &self.1)])
            }
        }
        let row = Row(vec![0.1, -0.0, 2.0], vec![]);
        let Value::Map(fields) = row.to_value() else { panic!("not a map") };
        assert!(fields.iter().all(|(_, v)| matches!(v, Value::F32s(_))));
        let widened = |xs: &[f32]| Value::Seq(xs.iter().map(|&x| Value::F64(x as f64)).collect());
        let old = Value::Map(vec![
            ("loss".to_string(), widened(&row.0)),
            ("none".to_string(), widened(&row.1)),
        ]);
        let text = to_string(&row).unwrap();
        assert_eq!(text, r#"{"loss":[0.10000000149011612,-0.0,2.0],"none":[]}"#);
        assert_eq!(text, to_string(&old).unwrap());
        let extremes = [f32::from_bits(1), f32::MAX, f32::MIN_POSITIVE];
        assert_eq!(to_string(&extremes).unwrap(), to_string(&widened(&extremes)).unwrap());
        assert_eq!(to_string_pretty(&row).unwrap(), to_string_pretty(&old).unwrap());
        assert_eq!(from_str::<Value>(&text).unwrap(), old);
        assert_eq!(from_str::<Vec<f32>>("[0.5,2,-1]").unwrap(), vec![0.5, 2.0, -1.0]);
        assert!(to_string(&vec![f32::NAN]).is_err(), "as for a NaN among `F64`s");
    }

    #[test]
    fn nesting_is_bounded_like_upstream() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&nest(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        // Deep enough to overflow the stack if the parser recursed into it.
        assert!(from_str::<Value>(&"[".repeat(200_000)).is_err());
        assert!(from_str::<Value>(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn pretty_output_is_reparseable() {
        let v = vec![vec![1u32, 2], vec![3]];
        let json = to_string_pretty(&v).unwrap();
        assert!(json.contains('\n'));
        let back: Vec<Vec<u32>> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }
}
