//! The in-memory data model shared by the `serde` and `serde_json`
//! stubs.

use std::fmt;

/// A JSON-shaped value tree.
///
/// Objects keep **insertion order** (a `Vec` of pairs, like
/// `serde_json`'s `preserve_order` feature): rendering the same data
/// twice yields byte-identical text, which the golden-snapshot suite
/// depends on.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer (non-negative integers parse as [`Value::U64`]).
    I64(i64),
    /// A floating-point number (always rendered with `.` or exponent).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects; `None` on anything else.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// As f64, accepting any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(x) => Some(*x),
            Value::U64(n) => Some(*n as f64),
            Value::I64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// As u64 (only for non-negative integer values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(n) => Some(*n),
            Value::I64(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// As string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// As bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// Object member lookup; yields [`Value::Null`] when absent, like
    /// real `serde_json`.
    fn index(&self, key: &str) -> &Value {
        const NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        const NULL: Value = Value::Null;
        match self {
            Value::Array(items) => items.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

/// Serialization or JSON parse error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// An error carrying `message`.
    pub fn msg(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_lookup_preserves_first_match() {
        let v = Value::Object(vec![
            ("a".into(), Value::U64(1)),
            ("b".into(), Value::Bool(true)),
        ]);
        assert_eq!(v.get("a"), Some(&Value::U64(1)));
        assert_eq!(v["b"], Value::Bool(true));
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn index_arrays() {
        let v = Value::Array(vec![Value::U64(7)]);
        assert_eq!(v[0], Value::U64(7));
        assert_eq!(v[9], Value::Null);
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::U64(3).as_f64(), Some(3.0));
        assert_eq!(Value::I64(-3).as_u64(), None);
        assert_eq!(Value::F64(1.5).as_u64(), None);
    }
}
