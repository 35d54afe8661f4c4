//! Offline stand-in for `serde`.
//!
//! The build container has no access to crates.io, so the workspace patches
//! `serde` to this shim (see `[patch.crates-io]` in the root manifest). It
//! implements the subset of the serde surface this repository actually uses:
//! `#[derive(Serialize, Deserialize)]` on plain structs and enums, driven
//! through a small JSON-like [`Value`] data model instead of serde's
//! visitor architecture. `serde_json` (also shimmed) renders [`Value`] to
//! real JSON text and parses it back, so on-disk artifacts remain valid
//! JSON readable by ordinary tools.

mod value;

pub use value::{DeError, Value};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Types that can convert themselves into a [`Value`] tree.
pub trait Serialize {
    /// Convert `self` to a [`Value`].
    fn to_value(&self) -> Value;

    /// Convert a slice of `Self` — what `Vec<Self>`, `[Self]` and
    /// `[Self; N]` serialize through: one node per element, unless the
    /// element type has a packed node (the `Hash::hash_slice` pattern; only
    /// `f32` overrides it, with [`Value::F32s`]).
    fn slice_to_value(items: &[Self]) -> Value
    where
        Self: Sized,
    {
        Value::Seq(items.iter().map(Serialize::to_value).collect())
    }
}

/// Types that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstruct `Self` from a [`Value`].
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// Reconstruct a `Vec<Self>`: the inverse of
    /// [`Serialize::slice_to_value`].
    fn vec_from_value(v: &Value) -> Result<Vec<Self>, DeError> {
        match v {
            Value::Seq(items) => items.iter().map(Self::from_value).collect(),
            other => Err(DeError::unexpected("sequence", other)),
        }
    }
}

macro_rules! ser_de_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::new(concat!("integer out of range for ", stringify!($t)))),
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::new(concat!("integer out of range for ", stringify!($t)))),
                    other => Err(DeError::unexpected(stringify!($t), other)),
                }
            }
        }
    )*};
}

ser_de_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_de_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::new(concat!("integer out of range for ", stringify!($t)))),
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::new(concat!("integer out of range for ", stringify!($t)))),
                    other => Err(DeError::unexpected(stringify!($t), other)),
                }
            }
        }
    )*};
}

ser_de_int!(i8, i16, i32, i64, isize);

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        // f32 -> f64 is exact, so the JSON round trip is bit-preserving.
        Value::F64(*self as f64)
    }

    /// One node for the whole buffer, every bit pattern kept as it is.
    fn slice_to_value(items: &[f32]) -> Value {
        Value::F32s(items.to_vec())
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        // Like real serde_json: parse as f64, narrow. The f64 is the exact
        // widened f32, so the narrowing conversion restores the input bits.
        f64::from_value(v).map(|x| x as f32)
    }

    /// The packed node, or the sequence of numbers JSON text parses into.
    fn vec_from_value(v: &Value) -> Result<Vec<f32>, DeError> {
        match v {
            Value::F32s(xs) => Ok(xs.clone()),
            Value::Seq(items) => items.iter().map(f32::from_value).collect(),
            other => Err(DeError::unexpected("sequence", other)),
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::F64(x) => Ok(*x),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            other => Err(DeError::unexpected("f64", other)),
        }
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::unexpected("bool", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::unexpected("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(DeError::unexpected("char", other)),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        T::slice_to_value(self)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::vec_from_value(v)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        T::slice_to_value(self)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        T::slice_to_value(self)
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

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

macro_rules! ser_de_tuple {
    ($(($($n:tt $t:ident),+)),*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Seq(items) => {
                        let expect = [$($n, )+].len();
                        if items.len() != expect {
                            return Err(DeError::new("tuple arity mismatch"));
                        }
                        Ok(($($t::from_value(&items[$n])?,)+))
                    }
                    other => Err(DeError::unexpected("tuple (sequence)", other)),
                }
            }
        }
    )*};
}

ser_de_tuple!(
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
    (0 A, 1 B, 2 C, 3 D, 4 E),
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
);

impl<K: Serialize + std::fmt::Display, V: Serialize, S> Serialize
    for std::collections::HashMap<K, V, S>
{
    fn to_value(&self) -> Value {
        // Deterministic output: sort by rendered key.
        let mut entries: Vec<(String, Value)> =
            self.iter().map(|(k, v)| (k.to_string(), v.to_value())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}

impl<K: Serialize + std::fmt::Display, V: Serialize> Serialize
    for std::collections::BTreeMap<K, V>
{
    fn to_value(&self) -> Value {
        Value::Map(self.iter().map(|(k, v)| (k.to_string(), v.to_value())).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_widening_is_lossless() {
        for bits in [0x3f80_0001u32, 0x0000_0001, 0x7f7f_ffff, 0xbf99_999a] {
            let x = f32::from_bits(bits);
            let v = x.to_value();
            let back = f32::from_value(&v).unwrap();
            assert_eq!(back.to_bits(), bits);
        }
    }

    #[test]
    fn option_roundtrip() {
        let some: Option<u32> = Some(7);
        let none: Option<u32> = None;
        assert_eq!(Option::<u32>::from_value(&some.to_value()).unwrap(), Some(7));
        assert_eq!(Option::<u32>::from_value(&none.to_value()).unwrap(), None);
    }

    #[test]
    fn tuple_roundtrip() {
        let t = (1u32, -2i64, 0.5f64);
        let v = t.to_value();
        let back: (u32, i64, f64) = Deserialize::from_value(&v).unwrap();
        assert_eq!(back, t);
    }
}
