//! A Fast-CDR-like plain binary format (Fig. 18 comparator).
//!
//! OMG CDR as implemented by eProsima Fast-CDR: little-endian scalars at
//! natural alignment, `u32` length-prefixed strings and sequences, `u32`
//! union discriminants, everything written and read strictly sequentially.
//! Encoding is nearly memcpy-speed; decoding *materializes an owned object*
//! (as `Cdr::deserialize` fills a C++ struct), which is why its read cost
//! grows with field count while fastbuf's does not — the crossover the
//! paper's Fig. 18 shows around 7 information elements.

use crate::value::{FieldType, Schema, StructSchema, Value};
use crate::WireFormat;
use neutrino_common::{Error, Result};

/// The CDR-like codec.
#[derive(Debug, Default, Clone, Copy)]
pub struct CdrLike;

const NAME: &str = "fast-cdr";

impl CdrLike {
    /// Creates the codec.
    pub fn new() -> Self {
        CdrLike
    }
}

fn err(detail: impl Into<String>) -> Error {
    Error::codec(NAME, detail.into())
}

/// Scalar width in bytes (CDR has no sub-byte packing; constrained ints use
/// the smallest natural width that fits the range, as an IDL author would
/// declare).
fn width(ty: &FieldType) -> Option<usize> {
    match ty {
        FieldType::Bool => Some(1),
        FieldType::UInt { bits } => Some(usize::from(*bits) / 8),
        FieldType::Int => Some(8),
        FieldType::Enum { .. } => Some(4),
        FieldType::Constrained { lo, hi } => {
            let range = (*hi as i128 - *lo as i128) as u128;
            Some(match range {
                0..=0xFF => 1,
                0x100..=0xFFFF => 2,
                0x1_0000..=0xFFFF_FFFF => 4,
                _ => 8,
            })
        }
        _ => None,
    }
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn align(&mut self, to: usize) {
        while !self.buf.len().is_multiple_of(to) {
            self.buf.push(0);
        }
    }

    fn put_u32(&mut self, v: u32) {
        self.align(4);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_scalar(&mut self, ty: &FieldType, value: &Value, w: usize) -> Result<()> {
        let raw: u64 = match (ty, value) {
            (FieldType::Bool, Value::Bool(b)) => u64::from(*b),
            (FieldType::UInt { .. }, Value::U64(x)) => *x,
            (FieldType::Int, Value::I64(x)) => *x as u64,
            (FieldType::Enum { .. }, Value::U64(x)) => *x,
            (FieldType::Constrained { lo, .. }, v) => {
                let x = crate::value::integer_carrier(v)
                    .ok_or_else(|| err("constrained field is not an integer"))?;
                (x as i128 - *lo as i128) as u64
            }
            (ty, v) => return Err(err(format!("scalar mismatch: {ty:?} vs {v:?}"))),
        };
        self.align(w);
        self.buf.extend_from_slice(&raw.to_le_bytes()[..w]);
        Ok(())
    }

    fn encode(&mut self, ty: &FieldType, value: &Value) -> Result<()> {
        match (ty, value) {
            (FieldType::Bytes { .. }, Value::Bytes(bs)) => {
                self.put_u32(bs.len() as u32);
                self.buf.extend_from_slice(bs);
                Ok(())
            }
            (FieldType::Utf8 { .. }, Value::Str(s)) => {
                self.put_u32(s.len() as u32);
                self.buf.extend_from_slice(s.as_bytes());
                Ok(())
            }
            (FieldType::BitString { .. }, Value::Bits(bits)) => {
                self.put_u32(bits.len() as u32);
                let mut packed = vec![0u8; bits.len().div_ceil(8)];
                for (i, &b) in bits.iter().enumerate() {
                    if b {
                        packed[i / 8] |= 0x80 >> (i % 8);
                    }
                }
                self.buf.extend_from_slice(&packed);
                Ok(())
            }
            (FieldType::Struct(schema), v) => self.encode_struct(schema, v),
            (FieldType::List { elem, .. }, Value::List(items)) => {
                self.put_u32(items.len() as u32);
                for item in items {
                    self.encode(elem, item)?;
                }
                Ok(())
            }
            (FieldType::Choice(variants), Value::Choice { index, value }) => {
                if *index as usize >= variants.len() {
                    return Err(err(format!("choice index {index} out of range")));
                }
                self.put_u32(*index);
                self.encode(&variants[*index as usize].ty, value)
            }
            (FieldType::Optional(inner), Value::Optional(opt)) => {
                self.buf.push(u8::from(opt.is_some()));
                if let Some(v) = opt {
                    self.encode(inner, v)?;
                }
                Ok(())
            }
            (ty, v) => match width(ty) {
                Some(w) => self.put_scalar(ty, v, w),
                None => Err(err(format!("type mismatch: {ty:?} vs {v:?}"))),
            },
        }
    }

    fn encode_struct(&mut self, schema: &StructSchema, value: &Value) -> Result<()> {
        let fields = value
            .as_struct()
            .ok_or_else(|| err(format!("expected struct for {}", schema.name)))?;
        if fields.len() != schema.fields.len() {
            return Err(err(format!("struct {} arity mismatch", schema.name)));
        }
        for (def, val) in schema.fields.iter().zip(fields) {
            self.encode(&def.ty, val)?;
        }
        Ok(())
    }
}

struct CdrReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> CdrReader<'a> {
    fn align(&mut self, to: usize) {
        self.pos = self.pos.div_ceil(to) * to;
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| err(format!("truncated at byte {}", self.pos)))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn get_u32(&mut self) -> Result<u32> {
        self.align(4);
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn get_scalar(&mut self, ty: &FieldType, w: usize) -> Result<Value> {
        self.align(w);
        let b = self.take(w)?;
        let mut le = [0u8; 8];
        le[..w].copy_from_slice(b);
        let raw = u64::from_le_bytes(le);
        Ok(match ty {
            FieldType::Bool => Value::Bool(raw != 0),
            FieldType::UInt { .. } => Value::U64(raw),
            FieldType::Int => Value::I64(raw as i64),
            FieldType::Enum { .. } => Value::U64(raw),
            FieldType::Constrained { lo, .. } => {
                let v = *lo as i128 + raw as i128;
                if *lo >= 0 {
                    Value::U64(v as u64)
                } else {
                    Value::I64(v as i64)
                }
            }
            ty => return Err(err(format!("{ty:?} is not a scalar"))),
        })
    }

    fn decode(&mut self, ty: &FieldType) -> Result<Value> {
        match ty {
            FieldType::Bytes { .. } => {
                let len = self.get_u32()? as usize;
                Ok(Value::Bytes(self.take(len)?.to_vec()))
            }
            FieldType::Utf8 { .. } => {
                let len = self.get_u32()? as usize;
                let bytes = self.take(len)?;
                Ok(Value::Str(
                    std::str::from_utf8(bytes)
                        .map_err(|_| err("invalid UTF-8"))?
                        .to_owned(),
                ))
            }
            FieldType::BitString { .. } => {
                let nbits = self.get_u32()? as usize;
                let packed = self.take(nbits.div_ceil(8))?;
                Ok(Value::Bits(
                    (0..nbits)
                        .map(|i| packed[i / 8] & (0x80 >> (i % 8)) != 0)
                        .collect(),
                ))
            }
            FieldType::Struct(schema) => self.decode_struct(schema),
            FieldType::List { elem, .. } => {
                let count = self.get_u32()? as usize;
                // The count is the sender's word: reserve from the input
                // left, two bytes per 32-byte `Value` at most.
                let mut items = Vec::with_capacity(count.min((self.buf.len() - self.pos) / 2));
                for _ in 0..count {
                    items.push(self.decode(elem)?);
                }
                Ok(Value::List(items))
            }
            FieldType::Choice(variants) => {
                let index = self.get_u32()?;
                let var = variants
                    .get(index as usize)
                    .ok_or_else(|| err(format!("choice index {index} out of range")))?;
                Ok(Value::Choice {
                    index,
                    value: Box::new(self.decode(&var.ty)?),
                })
            }
            FieldType::Optional(inner) => {
                let present = self.take(1)?[0] != 0;
                if present {
                    Ok(Value::Optional(Some(Box::new(self.decode(inner)?))))
                } else {
                    Ok(Value::Optional(None))
                }
            }
            ty => {
                let w = width(ty).ok_or_else(|| err(format!("unhandled type {ty:?}")))?;
                self.get_scalar(ty, w)
            }
        }
    }

    fn decode_struct(&mut self, schema: &StructSchema) -> Result<Value> {
        let mut fields = Vec::with_capacity(schema.fields.len());
        for def in &schema.fields {
            fields.push(self.decode(&def.ty)?);
        }
        Ok(Value::Struct(fields))
    }
}

impl WireFormat for CdrLike {
    fn name(&self) -> &'static str {
        NAME
    }

    fn encode(&self, schema: &Schema, value: &Value, out: &mut Vec<u8>) -> Result<()> {
        out.clear();
        let mut w = Writer {
            buf: std::mem::take(out),
        };
        w.encode_struct(schema, value)?;
        *out = w.buf;
        Ok(())
    }

    fn decode(&self, schema: &Schema, bytes: &[u8]) -> Result<Value> {
        let mut r = CdrReader { buf: bytes, pos: 0 };
        r.decode_struct(schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Variant;
    use std::sync::Arc;

    fn round_trip(schema: &Schema, value: &Value) -> Vec<u8> {
        let codec = CdrLike::new();
        let mut buf = Vec::new();
        codec.encode(schema, value, &mut buf).unwrap();
        let back = codec.decode(schema, &buf).unwrap();
        assert_eq!(&back, value);
        buf
    }

    #[test]
    fn scalars_align_naturally() {
        let schema = StructSchema::builder("S")
            .field("a", FieldType::UInt { bits: 8 })
            .field("b", FieldType::UInt { bits: 32 })
            .build();
        let buf = round_trip(
            &schema,
            &Value::Struct(vec![Value::U64(7), Value::U64(0x1234_5678)]),
        );
        // 1 byte + 3 pad + 4 bytes.
        assert_eq!(buf.len(), 8);
    }

    #[test]
    fn full_message_round_trips() {
        let inner = Arc::new(
            StructSchema::builder("Inner")
                .field("x", FieldType::Constrained { lo: -5, hi: 300 })
                .build(),
        );
        let schema = StructSchema::builder("M")
            .field("flag", FieldType::Bool)
            .field("name", FieldType::Utf8 { max: None })
            .field("blob", FieldType::Bytes { max: Some(64) })
            .field("bits", FieldType::BitString { max_bits: None })
            .field(
                "list",
                FieldType::List {
                    elem: Box::new(FieldType::Struct(inner.clone())),
                    max: None,
                },
            )
            .field(
                "opt",
                FieldType::Optional(Box::new(FieldType::UInt { bits: 16 })),
            )
            .field(
                "ch",
                FieldType::Choice(vec![
                    Variant {
                        name: "a".into(),
                        ty: FieldType::UInt { bits: 64 },
                    },
                    Variant {
                        name: "b".into(),
                        ty: FieldType::Struct(inner),
                    },
                ]),
            )
            .build();
        let v = Value::Struct(vec![
            Value::Bool(true),
            Value::Str("edge-node".into()),
            Value::Bytes(vec![1, 2, 3]),
            Value::Bits(vec![true, true, false, true]),
            Value::List(vec![
                Value::Struct(vec![Value::I64(-5)]),
                Value::Struct(vec![Value::I64(300)]),
            ]),
            Value::some(Value::U64(99)),
            Value::choice(0, Value::U64(1 << 40)),
        ]);
        round_trip(&schema, &v);
    }

    #[test]
    fn truncation_is_an_error() {
        let schema = StructSchema::builder("S")
            .field("s", FieldType::Utf8 { max: None })
            .build();
        let codec = CdrLike::new();
        let mut buf = Vec::new();
        codec
            .encode(
                &schema,
                &Value::Struct(vec![Value::Str("hello world".into())]),
                &mut buf,
            )
            .unwrap();
        for cut in 0..buf.len() {
            assert!(codec.decode(&schema, &buf[..cut]).is_err());
        }
    }

    #[test]
    fn cdr_smaller_than_fastbuf_for_flat_messages() {
        let schema = StructSchema::builder("S")
            .field("a", FieldType::UInt { bits: 32 })
            .field("b", FieldType::UInt { bits: 32 })
            .build();
        let v = Value::Struct(vec![Value::U64(1), Value::U64(2)]);
        let mut cdr = Vec::new();
        let mut fb = Vec::new();
        CdrLike::new().encode(&schema, &v, &mut cdr).unwrap();
        crate::fastbuf::Fastbuf::standard()
            .encode(&schema, &v, &mut fb)
            .unwrap();
        assert!(cdr.len() < fb.len());
    }
}
