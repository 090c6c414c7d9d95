//! Offline, deterministic subset of the
//! [serde_json](https://docs.rs/serde_json) API.
//!
//! Backed by the vendored `serde` stub's [`Value`] data model. Typed
//! values serialize to text; text parses only to a [`Value`] tree
//! ([`from_str`]), never back into a typed value. Two properties matter
//! to the golden-snapshot suite and are guaranteed here:
//!
//! * **Byte-stable output.** Object keys keep insertion order and
//!   floats render via Rust's shortest-round-trip formatter (with a
//!   `.0` suffix forced onto integral values), so equal `Value` trees
//!   always produce identical text.
//! * **Lossless round-trips.** `from_str::<Value>(&to_string(v)) == v`
//!   for every tree the workspace produces: integers stay integers,
//!   floats re-parse to the same bits, `u128` travels as a decimal
//!   string.
//!
//! Non-finite floats are rejected at serialization time (JSON has no
//! representation for them), and the parser refuses input nested deeper
//! than 128 arrays and objects; both match real serde_json's behaviour.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

use serde::Serialize;
pub use serde::{Error, Value};

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Serializes to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    emit(&value.to_value(), None, 0, &mut out)?;
    Ok(out)
}

/// Serializes to human-readable JSON text (two-space indent, trailing
/// newline — the artifact format under `results/`).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    emit(&value.to_value(), Some(2), 0, &mut out)?;
    out.push('\n');
    Ok(out)
}

/// Parses JSON text into a [`Value`] tree. The type parameter is, in
/// practice, `Value` itself; it exists so `from_str::<Value>(..)` and
/// `let v: Value = from_str(..)` read as they do with real serde_json.
pub fn from_str<T: From<Value>>(text: &str) -> Result<T, Error> {
    parse_value(text).map(T::from)
}

/// Deepest nesting of arrays and objects [`from_str`] accepts, as in real
/// serde_json; deeper input is an error rather than a stack overflow.
const MAX_DEPTH: usize = 128;

fn emit(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => {
            if !x.is_finite() {
                return Err(Error::msg(format!("non-finite float {x} has no JSON form")));
            }
            let s = format!("{x}");
            out.push_str(&s);
            // Keep the float-ness visible so the value re-parses as F64.
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Value::Str(s) => emit_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                emit(item, indent, depth + 1, out)?;
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                emit_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                emit(item, indent, depth + 1, out)?;
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn emit_string(s: &str, out: &mut String) {
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

/// Recursive-descent JSON parser over the full input.
fn parse_value(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_at(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::msg(format!("trailing data at byte {pos}")));
    }
    Ok(v)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), Error> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(Error::msg(format!(
            "expected {:?} at byte {pos}",
            b as char,
            pos = *pos
        )))
    }
}

/// Parses one value starting at `*pos`, inside `depth` enclosing arrays
/// and objects.
fn parse_at(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err(Error::msg("unexpected end of input"));
    };
    if matches!(b, b'[' | b'{') && depth == MAX_DEPTH {
        return Err(Error::msg(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )));
    }
    match b {
        b'n' => parse_lit(bytes, pos, "null", Value::Null),
        b't' => parse_lit(bytes, pos, "true", Value::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", Value::Bool(false)),
        b'"' => parse_string(bytes, pos).map(Value::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_at(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error::msg(format!("bad array at byte {pos}", pos = *pos))),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect(bytes, pos, b':')?;
                let value = parse_at(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(pairs));
                    }
                    _ => return Err(Error::msg(format!("bad object at byte {pos}", pos = *pos))),
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        other => Err(Error::msg(format!(
            "unexpected byte {:?} at {pos}",
            other as char,
            pos = *pos
        ))),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(Error::msg(format!("bad literal at byte {pos}", pos = *pos)))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::msg(format!(
            "expected string at byte {pos}",
            pos = *pos
        )));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(Error::msg("unterminated string"));
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(Error::msg("unterminated escape"));
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| Error::msg("bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::msg("bad \\u escape"))?;
                        *pos += 4;
                        out.push(
                            char::from_u32(code).ok_or_else(|| Error::msg("bad \\u code point"))?,
                        );
                    }
                    other => {
                        return Err(Error::msg(format!("bad escape \\{}", other as char)));
                    }
                }
            }
            _ => {
                // Re-synchronize on UTF-8 boundaries: push the whole char.
                let start = *pos - 1;
                let s = std::str::from_utf8(&bytes[start..])
                    .map_err(|_| Error::msg("invalid UTF-8 in string"))?;
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos = start + c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    let mut is_float = false;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number");
    if is_float {
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::msg(format!("bad number {text:?}")))
    } else if text.starts_with('-') {
        text.parse::<i64>()
            .map(Value::I64)
            .map_err(|_| Error::msg(format!("bad number {text:?}")))
    } else {
        text.parse::<u64>()
            .map(Value::U64)
            .map_err(|_| Error::msg(format!("bad number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::Object(vec![
            ("name".into(), Value::Str("fig09 \"quoted\"\n".into())),
            ("count".into(), Value::U64(18446744073709551615)),
            ("delta".into(), Value::I64(-42)),
            ("ratio".into(), Value::F64(0.1)),
            ("whole".into(), Value::F64(2.0)),
            ("flag".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
            (
                "rows".into(),
                Value::Array(vec![Value::U64(1), Value::F64(1.5)]),
            ),
            ("empty".into(), Value::Array(vec![])),
        ])
    }

    #[test]
    fn round_trip_is_lossless() {
        let v = sample();
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
        let pretty = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn output_is_stable() {
        let a = to_string_pretty(&sample()).unwrap();
        let b = to_string_pretty(&sample()).unwrap();
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn integral_floats_stay_floats() {
        let text = to_string(&Value::F64(2.0)).unwrap();
        assert_eq!(text, "2.0");
        assert_eq!(from_str::<Value>(&text).unwrap(), Value::F64(2.0));
    }

    #[test]
    fn shortest_float_repr_reparses_exactly() {
        for &x in &[0.1, 1.0 / 3.0, 6.02e23, 5e-324, f64::MAX] {
            let text = to_string(&Value::F64(x)).unwrap();
            match from_str::<Value>(&text).unwrap() {
                Value::F64(y) => assert_eq!(x.to_bits(), y.to_bits(), "{text}"),
                other => panic!("{text} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn non_finite_floats_are_rejected() {
        assert!(to_string(&Value::F64(f64::NAN)).is_err());
        assert!(to_string(&Value::F64(f64::INFINITY)).is_err());
    }

    #[test]
    fn parse_errors_name_the_byte() {
        let err = from_str::<Value>("{\"a\": 1,}").unwrap_err();
        assert!(err.to_string().contains("byte"), "{err}");
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("1 trailing").is_err());
    }

    #[test]
    fn typed_values_serialize_to_the_same_text_as_their_tree() {
        let v: Vec<(u64, f64)> = vec![(1, 0.5), (2, 1.5)];
        let text = to_string(&v).unwrap();
        assert_eq!(text, "[[1,0.5],[2,1.5]]");
        let tree: Value = from_str(&text).unwrap();
        assert_eq!(tree, to_value(&v));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let mut v: Value = from_str(&nested(MAX_DEPTH)).unwrap();
        for _ in 1..MAX_DEPTH {
            v = v[0].clone();
        }
        assert_eq!(v, Value::Array(vec![]));
        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(
            err.to_string().contains(&format!("byte {MAX_DEPTH}")),
            "{err}"
        );
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(from_str::<Value>(&objects).is_err());
        // Deep enough to overflow the stack of a parser with no limit.
        let err = from_str::<Value>(&"[".repeat(100_000)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper"), "{err}");
    }
}
