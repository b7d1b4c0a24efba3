//! The in-memory JSON tree shared by the serde/serde_json shims, and its JSON writer.

use core::fmt::{self, Write};

/// A JSON value.
///
/// Objects preserve insertion order (they are a `Vec` of pairs), which keeps
/// serialized snapshots byte-stable across identical program states.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (carried as `f64`; integers are exact up to 2^53).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a `Number`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, if this is a `String`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an `Array`.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an `Object`.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Looks up `key` in an `Object` (linear scan; objects here are small).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(o) => o.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// `true` if this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Renders a value used as a map key into the JSON object-key string.
pub(crate) fn key_string(v: &Value) -> String {
    match v {
        Value::String(s) => s.clone(),
        Value::Number(n) => {
            let mut key = String::new();
            write_f64(&mut key, *n).expect("writing to a String cannot fail");
            key
        }
        Value::Bool(b) => b.to_string(),
        other => panic!("unsupported map key {other:?}"),
    }
}

/// Writes an `f64` so that parsing the text recovers the exact same bits (for finite
/// values). Non-finite values are not representable in JSON and are rendered as `null`
/// by the writer.
fn write_f64<W: Write>(out: &mut W, n: f64) -> fmt::Result {
    if n == n.trunc() && n.abs() < 1e15 && !(n == 0.0 && n.is_sign_negative()) {
        // Integral values print without a fraction, like serde_json.
        write!(out, "{}", n as i64)
    } else {
        // `{:?}` is Rust's shortest-roundtrip float formatting.
        write!(out, "{n:?}")
    }
}

impl fmt::Display for Value {
    /// Compact JSON text; the alternate form (`{:#}`) indents by two spaces, like
    /// `serde_json`'s own `Value`. Object keys keep insertion order, so equal trees
    /// print equal bytes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let indent = if f.alternate() { Some(2) } else { None };
        write_value(self, f, indent, 0)
    }
}

fn write_escaped<W: Write>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    // Copy each run of bytes that needs no escape in one write.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.write_str(&s[run..i])?;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

fn newline_indent<W: Write>(out: &mut W, indent: Option<usize>, depth: usize) -> fmt::Result {
    if let Some(w) = indent {
        out.write_char('\n')?;
        for _ in 0..w * depth {
            out.write_char(' ')?;
        }
    }
    Ok(())
}

fn write_value<W: Write>(
    v: &Value,
    out: &mut W,
    indent: Option<usize>,
    depth: usize,
) -> fmt::Result {
    match v {
        Value::Null => out.write_str("null"),
        Value::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
        Value::Number(n) if n.is_finite() => write_f64(out, *n),
        // JSON has no Inf/NaN; mirror serde_json and write null.
        Value::Number(_) => out.write_str("null"),
        Value::String(s) => write_escaped(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                return out.write_str("[]");
            }
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                newline_indent(out, indent, depth + 1)?;
                write_value(item, out, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth)?;
            out.write_char(']')
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                return out.write_str("{}");
            }
            out.write_char('{')?;
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                newline_indent(out, indent, depth + 1)?;
                write_escaped(k, out)?;
                out.write_str(if indent.is_some() { ": " } else { ":" })?;
                write_value(val, out, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth)?;
            out.write_char('}')
        }
    }
}
