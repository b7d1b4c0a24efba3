//! Offline shim for the subset of `serde_json` used by this workspace:
//! [`to_string`], [`to_string_pretty`], [`from_str`] and the re-exported
//! [`Value`] tree, whose `Display` impl is the JSON writer. Text output is
//! deterministic (object keys keep insertion order) and finite floats round-trip
//! bit-exactly.

pub use serde::Value;

use serde::{Deserialize, Serialize};

/// Serialization/deserialization error.
pub type Error = serde::Error;

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_string())
}

/// Serializes `value` as human-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(format!("{:#}", value.to_value()))
}

/// Parses JSON text into any [`Deserialize`] type.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value(text)?;
    T::from_value(&value)
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Rebuilds a typed value from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::custom(format!("JSON parse error at byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn parse(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => Ok(Value::String(self.parse_string()?)),
            b'[' => self.parse_array(),
            b'{' => self.parse_object(),
            _ => self.parse_number(),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the workspace's data.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    self.pos = start + width;
                    let chunk = self
                        .bytes
                        .get(start..start + width)
                        .ok_or_else(|| self.err("truncated UTF-8"))?;
                    out.push_str(
                        std::str::from_utf8(chunk).map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err(&format!("invalid number `{text}`")))
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

fn utf8_width(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_value(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.parse()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact() {
        let v = Value::Object(vec![
            ("a".to_string(), Value::Number(1.5)),
            (
                "b".to_string(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("c".to_string(), Value::String("x\"y\n".to_string())),
        ]);
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for x in [
            0.1,
            1.0 / 3.0,
            1e-300,
            123456789.123456,
            -0.25,
            2.0f64.powi(60),
        ] {
            let text = to_string(&x).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{x} -> {text} -> {back}");
        }
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Value::Object(vec![
            (
                "nested".to_string(),
                Value::Object(vec![("k".to_string(), Value::Number(3.0))]),
            ),
            (
                "list".to_string(),
                Value::Array(vec![Value::Number(1.0), Value::Number(2.0)]),
            ),
        ]);
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains('\n'));
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn large_u64_values_roundtrip_exactly() {
        for v in [u64::MAX, (1u64 << 53) + 1, 9_007_199_254_740_993, 0, 42] {
            let text = to_string(&v).unwrap();
            let back: u64 = from_str(&text).unwrap();
            assert_eq!(v, back, "{v} -> {text} -> {back}");
        }
        for v in [i64::MIN, -(1i64 << 53) - 1, i64::MAX] {
            let text = to_string(&v).unwrap();
            let back: i64 = from_str(&text).unwrap();
            assert_eq!(v, back, "{v} -> {text} -> {back}");
        }
    }

    #[test]
    fn negative_zero_keeps_its_sign_bit() {
        let text = to_string(&-0.0f64).unwrap();
        let back: f64 = from_str(&text).unwrap();
        assert_eq!(
            (-0.0f64).to_bits(),
            back.to_bits(),
            "-0.0 -> {text} -> {back}"
        );
    }

    #[test]
    fn writer_output_bytes_are_pinned() {
        // The exact bytes every snapshot and WAL anchor depends on: the integral fast
        // path and its `1e15` / `-0.0` edges, 64-bit integers carried as numbers and as
        // strings, non-finite numbers, control-character escapes and numeric map keys.
        let keyed: std::collections::BTreeMap<i64, bool> =
            [(-3, true), (7, false)].into_iter().collect();
        let tree = Value::Object(vec![
            (
                "zero".into(),
                Value::Array(vec![Value::Number(0.0), Value::Number(-0.0)]),
            ),
            (
                "big".into(),
                Value::Array(vec![
                    Value::Number(1e15),
                    Value::Number(-1e15),
                    Value::Number(999_999_999_999_999.0),
                    Value::Number(1e16),
                    Value::Number(-7.0),
                ]),
            ),
            ("u64".into(), to_value(&u64::MAX).unwrap()),
            ("u64_as_f64".into(), Value::Number(u64::MAX as f64)),
            (
                "u64_2p53_plus_1".into(),
                to_value(&((1u64 << 53) + 1)).unwrap(),
            ),
            (
                "frac".into(),
                Value::Array(vec![
                    Value::Number(0.1),
                    Value::Number(-2.5e-300),
                    Value::Number(f64::NAN),
                    Value::Number(f64::NEG_INFINITY),
                ]),
            ),
            (
                "\u{1f}key\"\\".into(),
                Value::Object(vec![
                    ("\n\t\r\u{0}".into(), Value::Bool(true)),
                    ("".into(), Value::Null),
                ]),
            ),
            (
                "empty".into(),
                Value::Array(vec![Value::Array(vec![]), Value::Object(vec![])]),
            ),
            ("keyed".into(), to_value(&keyed).unwrap()),
            ("text".into(), Value::String("héllo → 世界 \u{7f}".into())),
        ]);
        let expected = concat!(
            r#"{"zero":[0,-0.0],"#,
            r#""big":[1000000000000000.0,-1000000000000000.0,999999999999999,1e16,-7],"#,
            r#""u64":1.8446744073709552e19,"u64_as_f64":1.8446744073709552e19,"#,
            r#""u64_2p53_plus_1":"9007199254740993","#,
            r#""frac":[0.1,-2.5e-300,null,null],"#,
            r#""\u001fkey\"\\":{"\n\t\r\u0000":true,"":null},"#,
            r#""empty":[[],{}],"keyed":{"-3":true,"7":false},"#,
            "\"text\":\"héllo → 世界 \u{7f}\"}",
        );
        assert_eq!(to_string(&tree).unwrap(), expected);
        assert_eq!(tree.to_string(), expected, "Display renders the same bytes");
        let small = Value::Object(vec![
            (
                "a".into(),
                Value::Array(vec![Value::Number(-0.0), Value::Array(vec![])]),
            ),
            ("b".into(), Value::Object(vec![])),
        ]);
        assert_eq!(
            to_string_pretty(&small).unwrap(),
            "{\n  \"a\": [\n    -0.0,\n    []\n  ],\n  \"b\": {}\n}"
        );
    }

    #[test]
    fn unicode_strings_survive() {
        let v = Value::String("héllo → 世界".to_string());
        let back: Value = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("12 34").is_err());
    }
}
