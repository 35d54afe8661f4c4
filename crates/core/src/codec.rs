//! Binary rendering of the serde shim's [`Value`] tree: the payload codec
//! of the checkpoint file ([`crate::store`]).
//!
//! The `#[derive(Serialize, Deserialize)]` on the checkpoint types stays
//! the only schema. This module knows nothing about `JobCheckpoint`; it
//! writes whatever tree the derive produces, one tag byte per node, every
//! integer little-endian and fixed-width:
//!
//! ```text
//! 0 Null                      5 F64   f64 bits as u64
//! 1 Bool(false)               6 Str   len u64 | UTF-8 bytes
//! 2 Bool(true)                7 Seq   count u64 | count values
//! 3 U64   u64                 8 Map   count u64 | count × (Str body, value)
//! 4 I64   i64                 9 F32s  count u64 | count × f32 bits as u32
//! ```
//!
//! Tags map to the tree's node kinds one to one. `F32s` is the node the
//! shim makes of a `Vec<f32>` (parameters, optimizer velocity, every EST's
//! BatchNorm tensors): raw `u32` bit patterns, 4 bytes per element, copied
//! each way — NaN payloads, `-0.0`, subnormals and infinities included, and
//! an empty buffer is a count of zero. A sequence of anything else, `f64`
//! included, is a `Seq`.
//!
//! The decoder treats its input as hostile: every length is checked against
//! the bytes that remain *before* anything is allocated for it (a value
//! takes at least one byte, a packed float four), nesting is limited to
//! [`MAX_DEPTH`], and every failure is an `InvalidData` error, never a
//! panic. Memory is therefore bounded by `size_of::<Value>()` × file length.

use serde::Value;
use std::io;

/// Deepest nesting the decoder follows. A `JobCheckpoint` tree is 9 deep
/// (checkpoint → contexts → context → implicit → layers → tensors → tensor
/// → shape → dim); the bound only exists so a crafted file cannot overflow
/// the stack.
pub(crate) const MAX_DEPTH: usize = 32;

const NULL: u8 = 0;
const FALSE: u8 = 1;
const TRUE: u8 = 2;
const U64: u8 = 3;
const I64: u8 = 4;
const F64: u8 = 5;
const STR: u8 = 6;
const SEQ: u8 = 7;
const MAP: u8 = 8;
const F32S: u8 = 9;

fn put_len(n: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&(n as u64).to_le_bytes());
}

/// Append a length-prefixed string (a `Str` node without its tag).
pub(crate) fn put_str(s: &str, out: &mut Vec<u8>) {
    put_len(s.len(), out);
    out.extend_from_slice(s.as_bytes());
}

/// Append the encoding of `v`.
pub(crate) fn put_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(NULL),
        Value::Bool(b) => out.push(if *b { TRUE } else { FALSE }),
        Value::U64(n) => {
            out.push(U64);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::I64(n) => {
            out.push(I64);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(F64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(STR);
            put_str(s, out);
        }
        Value::Seq(items) => {
            out.push(SEQ);
            put_len(items.len(), out);
            for item in items {
                put_value(item, out);
            }
        }
        Value::F32s(xs) => {
            out.push(F32S);
            put_len(xs.len(), out);
            let start = out.len();
            out.resize(start + xs.len() * 4, 0);
            for (raw, x) in out[start..].chunks_exact_mut(4).zip(xs) {
                raw.copy_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        Value::Map(entries) => {
            out.push(MAP);
            put_len(entries.len(), out);
            for (key, item) in entries {
                put_str(key, out);
                put_value(item, out);
            }
        }
    }
}

/// An `InvalidData` error: what every malformed input turns into.
pub(crate) fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Bounds-checked cursor over untrusted bytes.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len()
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.bytes.len() {
            return Err(invalid(format!("truncated: need {n} bytes, {} remain", self.bytes.len())));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u64(&mut self) -> io::Result<u64> {
        let raw = self.take(8)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("take(8) returns 8 bytes")))
    }

    /// A count of items that each occupy at least `min_item_bytes`: rejected
    /// here, before any allocation, if the remaining bytes cannot hold it.
    fn len(&mut self, min_item_bytes: usize) -> io::Result<usize> {
        let n = self.u64()?;
        if n > (self.bytes.len() / min_item_bytes) as u64 {
            return Err(invalid(format!(
                "length {n} exceeds the {} bytes that remain",
                self.bytes.len()
            )));
        }
        Ok(n as usize)
    }

    /// A length-prefixed string (a `Str` node without its tag).
    pub(crate) fn str(&mut self) -> io::Result<String> {
        let n = self.len(1)?;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|e| invalid(format!("string is not UTF-8: {e}")))
    }

    /// One encoded value.
    pub(crate) fn value(&mut self) -> io::Result<Value> {
        self.value_at(0)
    }

    fn value_at(&mut self, depth: usize) -> io::Result<Value> {
        if depth > MAX_DEPTH {
            return Err(invalid(format!("nesting deeper than {MAX_DEPTH}")));
        }
        Ok(match self.take(1)?[0] {
            NULL => Value::Null,
            FALSE => Value::Bool(false),
            TRUE => Value::Bool(true),
            U64 => Value::U64(self.u64()?),
            I64 => Value::I64(self.u64()? as i64),
            F64 => Value::F64(f64::from_bits(self.u64()?)),
            STR => Value::Str(self.str()?),
            SEQ => {
                let n = self.len(1)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value_at(depth + 1)?);
                }
                Value::Seq(items)
            }
            MAP => {
                // An entry is at least an empty key (8) and a one-byte value.
                let n = self.len(9)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push((self.str()?, self.value_at(depth + 1)?));
                }
                Value::Map(entries)
            }
            F32S => {
                let n = self.len(4)?;
                let raw = self.take(n * 4)?;
                let floats = raw.chunks_exact(4).map(|c| {
                    f32::from_bits(u32::from_le_bytes(c.try_into().expect("chunks_exact(4)")))
                });
                Value::F32s(floats.collect())
            }
            tag => return Err(invalid(format!("unknown tag {tag}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde::{Deserialize, Serialize};

    fn roundtrip(v: &Value) -> Value {
        let mut out = Vec::new();
        put_value(v, &mut out);
        let mut r = Reader::new(&out);
        let back = r.value().expect("decodes");
        assert_eq!(r.remaining(), 0);
        back
    }

    #[test]
    fn every_node_kind_round_trips() {
        let v = Value::Map(vec![
            ("null".into(), Value::Null),
            ("bools".into(), Value::Seq(vec![Value::Bool(true), Value::Bool(false)])),
            ("u".into(), Value::U64(u64::MAX)),
            ("i".into(), Value::I64(i64::MIN)),
            ("wide".into(), Value::F64(0.1)),
            ("s".into(), Value::Str("héllo".into())),
            ("empty".into(), Value::Seq(vec![])),
            ("mixed".into(), Value::Seq(vec![Value::F64(1.5), Value::U64(2)])),
            ("packed".into(), Value::F32s(vec![1.5, -0.0])),
            ("none".into(), Value::F32s(vec![])),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    /// Bit patterns `==` and a decimal rendering lose: quiet and signalling
    /// NaNs with payloads, both zeros, the extreme subnormals, both
    /// infinities.
    const SPECIAL_BITS: [u32; 10] = [
        0x7fc0_0001,
        0xffc1_2345,
        0x7f80_0001,
        0x8000_0000,
        0x0000_0000,
        0x0000_0001,
        0x807f_ffff,
        0x7f80_0000,
        0xff80_0000,
        0x7f7f_ffff,
    ];

    /// `Vec<f32>` → `Value` → bytes → `Value` → `Vec<f32>`, as bit patterns.
    fn f32s_through_the_file(bits: &[u32]) -> Vec<u32> {
        let xs: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let v = xs.to_value();
        assert!(matches!(v, Value::F32s(_)), "a Vec<f32> is one node");
        let mut out = Vec::new();
        put_value(&v, &mut out);
        assert_eq!((out[0], out.len()), (F32S, 1 + 8 + 4 * bits.len()));
        let mut r = Reader::new(&out);
        let back = Vec::<f32>::from_value(&r.value().expect("decodes")).expect("is a Vec<f32>");
        assert_eq!(r.remaining(), 0);
        back.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn special_values_and_the_empty_buffer_cross_bit_for_bit() {
        assert_eq!(f32s_through_the_file(&SPECIAL_BITS), SPECIAL_BITS);
        assert_eq!(f32s_through_the_file(&[]), [0u32; 0]);
    }

    proptest! {
        #[test]
        fn any_f32_buffer_crosses_bit_for_bit(
            random in prop::collection::vec(any::<u32>(), 0..48usize),
            at in 0..48usize,
        ) {
            let mut bits = random;
            bits.insert(at.min(bits.len()), SPECIAL_BITS[at % SPECIAL_BITS.len()]);
            prop_assert_eq!(f32s_through_the_file(&bits), bits);
        }

        /// Values that are exactly `f32`s included — the sequences v3's
        /// encoder probed for and packed.
        #[test]
        fn a_vec_of_f64_is_never_packed(
            narrow in prop::collection::vec(any::<f32>(), 0..16usize),
            wide in prop::collection::vec(any::<f64>(), 0..4usize),
        ) {
            let xs: Vec<f64> = narrow.iter().map(|&x| x as f64).chain(wide).collect();
            let v = xs.to_value();
            prop_assert!(matches!(v, Value::Seq(_)));
            let mut out = Vec::new();
            put_value(&v, &mut out);
            prop_assert_eq!((out[0], out.len()), (SEQ, 1 + 8 + 9 * xs.len()));
            let back = Vec::<f64>::from_value(&Reader::new(&out).value().unwrap()).unwrap();
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&back), bits(&xs));
        }
    }

    #[test]
    fn a_lying_packed_length_is_rejected_before_allocation() {
        let mut good = Vec::new();
        put_value(&Value::F32s(vec![1.0, 2.0, 3.0]), &mut good);
        for lie in [4u64, u64::MAX, u64::MAX / 4 + 1, 1 << 40] {
            let mut bytes = good.clone();
            bytes[1..9].copy_from_slice(&lie.to_le_bytes());
            let err = Reader::new(&bytes).value().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "count 3 -> {lie}");
        }
    }

    #[test]
    fn nesting_is_followed_to_the_bound_and_no_further() {
        let nested = |depth: usize| {
            let mut out = Vec::new();
            for _ in 0..depth {
                out.push(SEQ);
                put_len(1, &mut out);
            }
            out.push(NULL);
            out
        };
        assert!(Reader::new(&nested(MAX_DEPTH)).value().is_ok());
        let err = Reader::new(&nested(MAX_DEPTH + 1)).value().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
