//! Offline, deterministic subset of the [serde](https://docs.rs/serde)
//! API: the serializing half only.
//!
//! The build environment for this workspace has no access to crates.io,
//! so this vendored stub provides the surface the workspace uses:
//!
//! * the [`Serialize`] trait, reduced from serde's visitor architecture
//!   to a single in-memory data model ([`Value`], re-exported by the
//!   companion `serde_json` stub);
//! * `#[derive(Serialize)]` via the vendored `serde_derive` proc-macro
//!   for named-field structs, newtype structs, and unit-variant enums;
//! * impls for the primitives, `String`, `Option<T>`, `Vec<T>`, and
//!   tuples the workspace's report types contain. `u128` serializes as
//!   a decimal string so histogram sums survive JSON exactly.
//!
//! Nothing in the workspace rebuilds a typed value from JSON, so the
//! stub has no deserializing trait or derive: `serde_json::from_str`
//! parses text into a [`Value`] tree and readers index into that.
//!
//! Object keys keep insertion order (like `serde_json`'s
//! `preserve_order` feature), which is what makes rendered artifacts
//! byte-stable.

#![forbid(unsafe_code)]

pub use serde_derive::Serialize;

mod value;

pub use value::{Error, Value};

/// A type that can convert itself into the [`Value`] data model.
///
/// Collapsed from serde's `Serializer` visitor pair to one method; the
/// derive macro generates field-by-field implementations.
pub trait Serialize {
    /// Converts `self` to a [`Value`] tree.
    fn to_value(&self) -> Value;
}

macro_rules! ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
    )*};
}

ser_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
    )*};
}

ser_signed!(i8, i16, i32, i64, isize);

impl Serialize for u128 {
    /// Decimal string: JSON numbers cannot hold a u128 losslessly.
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

macro_rules! tuple_serde {
    ($(($($t:ident . $idx:tt),+));+ $(;)?) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
    )+};
}

tuple_serde! {
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_map_onto_value_variants() {
        assert_eq!(42u64.to_value(), Value::U64(42));
        assert_eq!((-7i64).to_value(), Value::I64(-7));
        assert_eq!(1.5f64.to_value(), Value::F64(1.5));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("hi".to_value(), Value::Str("hi".into()));
        let big: u128 = u128::MAX - 3;
        assert_eq!(big.to_value(), Value::Str(big.to_string()));
    }

    #[test]
    fn containers_map_onto_arrays_and_null() {
        assert_eq!(
            vec![1u64, 2].to_value(),
            Value::Array(vec![Value::U64(1), Value::U64(2)])
        );
        assert_eq!(None::<u64>.to_value(), Value::Null);
        assert_eq!(Some(3u64).to_value(), Value::U64(3));
        assert_eq!(
            (3u64, 2.5f64).to_value(),
            Value::Array(vec![Value::U64(3), Value::F64(2.5)])
        );
    }
}
