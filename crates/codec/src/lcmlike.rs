//! An LCM-like format (Fig. 18 comparator).
//!
//! Lightweight Communications and Marshalling serializes fields in fixed
//! order, big-endian, with an 8-byte type fingerprint in front of every
//! message. It is very fast for small flat messages, but — as the paper
//! notes in §4.1/§4.4 — it cannot express the unions cellular control
//! messages use widely, so [`WireFormat::supports`] returns `false` for any
//! schema containing a [`FieldType::Choice`]. It also has no constrained
//! integer types, so constrained fields are carried at full 8-byte width
//! (one reason its messages are bigger than PER's).

use crate::value::{FieldType, Schema, StructSchema, Value};
use crate::WireFormat;
use neutrino_common::{Error, Result};

/// The LCM-like codec.
#[derive(Debug, Default, Clone, Copy)]
pub struct LcmLike;

const NAME: &str = "lcm";

impl LcmLike {
    /// Creates the codec.
    pub fn new() -> Self {
        LcmLike
    }
}

fn err(detail: impl Into<String>) -> Error {
    Error::codec(NAME, detail.into())
}

/// FNV-1a over a canonical rendering of the schema — stands in for LCM's
/// type fingerprint.
pub fn fingerprint(schema: &StructSchema) -> u64 {
    fn fold(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn fold_ty(h: &mut u64, ty: &FieldType) {
        match ty {
            FieldType::Bool => fold(h, b"bool"),
            FieldType::UInt { bits } => fold(h, format!("u{bits}").as_bytes()),
            FieldType::Int => fold(h, b"int"),
            FieldType::Constrained { lo, hi } => {
                fold(h, format!("c{lo}:{hi}").as_bytes());
            }
            FieldType::Enum { variants } => fold(h, format!("e{variants}").as_bytes()),
            FieldType::Bytes { .. } => fold(h, b"bytes"),
            FieldType::Utf8 { .. } => fold(h, b"str"),
            FieldType::BitString { .. } => fold(h, b"bits"),
            FieldType::Struct(s) => {
                fold(h, s.name.as_bytes());
                for f in &s.fields {
                    fold(h, f.name.as_bytes());
                    fold_ty(h, &f.ty);
                }
            }
            FieldType::List { elem, .. } => {
                fold(h, b"list");
                fold_ty(h, elem);
            }
            FieldType::Choice(vs) => {
                fold(h, b"choice");
                for v in vs {
                    fold(h, v.name.as_bytes());
                    fold_ty(h, &v.ty);
                }
            }
            FieldType::Optional(inner) => {
                fold(h, b"opt");
                fold_ty(h, inner);
            }
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fold(&mut h, schema.name.as_bytes());
    for f in &schema.fields {
        fold(&mut h, f.name.as_bytes());
        fold_ty(&mut h, &f.ty);
    }
    h
}

fn encode_field(ty: &FieldType, value: &Value, out: &mut Vec<u8>) -> Result<()> {
    match (ty, value) {
        (FieldType::Bool, Value::Bool(b)) => {
            out.push(u8::from(*b));
            Ok(())
        }
        (FieldType::UInt { bits }, Value::U64(x)) => {
            let w = usize::from(*bits) / 8;
            out.extend_from_slice(&x.to_be_bytes()[8 - w..]);
            Ok(())
        }
        (FieldType::Int, Value::I64(x)) => {
            out.extend_from_slice(&x.to_be_bytes());
            Ok(())
        }
        (FieldType::Constrained { .. }, v) => {
            let x = crate::value::integer_carrier(v)
                .ok_or_else(|| err("constrained field is not an integer"))?;
            // LCM has no range types: full-width int64.
            out.extend_from_slice(&x.to_be_bytes());
            Ok(())
        }
        (FieldType::Enum { .. }, Value::U64(x)) => {
            out.extend_from_slice(&(*x as u32).to_be_bytes());
            Ok(())
        }
        (FieldType::Bytes { .. }, Value::Bytes(bs)) => {
            out.extend_from_slice(&(bs.len() as u32).to_be_bytes());
            out.extend_from_slice(bs);
            Ok(())
        }
        (FieldType::Utf8 { .. }, Value::Str(s)) => {
            out.extend_from_slice(&(s.len() as u32).to_be_bytes());
            out.extend_from_slice(s.as_bytes());
            Ok(())
        }
        (FieldType::BitString { .. }, Value::Bits(bits)) => {
            out.extend_from_slice(&(bits.len() as u32).to_be_bytes());
            let mut packed = vec![0u8; bits.len().div_ceil(8)];
            for (i, &b) in bits.iter().enumerate() {
                if b {
                    packed[i / 8] |= 0x80 >> (i % 8);
                }
            }
            out.extend_from_slice(&packed);
            Ok(())
        }
        (FieldType::Struct(schema), v) => encode_struct_body(schema, v, out),
        (FieldType::List { elem, .. }, Value::List(items)) => {
            out.extend_from_slice(&(items.len() as u32).to_be_bytes());
            for item in items {
                encode_field(elem, item, out)?;
            }
            Ok(())
        }
        (FieldType::Choice(_), _) => Err(err("LCM cannot express unions")),
        (FieldType::Optional(inner), Value::Optional(opt)) => {
            out.push(u8::from(opt.is_some()));
            if let Some(v) = opt {
                encode_field(inner, v, out)?;
            }
            Ok(())
        }
        (ty, v) => Err(err(format!("type mismatch: {ty:?} vs {v:?}"))),
    }
}

fn encode_struct_body(schema: &StructSchema, value: &Value, out: &mut Vec<u8>) -> Result<()> {
    let fields = value
        .as_struct()
        .ok_or_else(|| err(format!("expected struct for {}", schema.name)))?;
    if fields.len() != schema.fields.len() {
        return Err(err(format!("struct {} arity mismatch", schema.name)));
    }
    for (def, val) in schema.fields.iter().zip(fields) {
        encode_field(&def.ty, val, out)?;
    }
    Ok(())
}

struct LcmReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> LcmReader<'a> {
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
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn decode(&mut self, ty: &FieldType) -> Result<Value> {
        match ty {
            FieldType::Bool => Ok(Value::Bool(self.take(1)?[0] != 0)),
            FieldType::UInt { bits } => {
                let w = usize::from(*bits) / 8;
                let b = self.take(w)?;
                let mut be = [0u8; 8];
                be[8 - w..].copy_from_slice(b);
                Ok(Value::U64(u64::from_be_bytes(be)))
            }
            FieldType::Int => {
                let b = self.take(8)?;
                Ok(Value::I64(i64::from_be_bytes(b.try_into().expect("8"))))
            }
            FieldType::Constrained { lo, .. } => {
                let b = self.take(8)?;
                let x = i64::from_be_bytes(b.try_into().expect("8"));
                if *lo >= 0 {
                    Ok(Value::U64(x as u64))
                } else {
                    Ok(Value::I64(x))
                }
            }
            FieldType::Enum { .. } => Ok(Value::U64(u64::from(self.get_u32()?))),
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
            FieldType::Struct(schema) => self.decode_struct_body(schema),
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
            FieldType::Choice(_) => Err(err("LCM cannot express unions")),
            FieldType::Optional(inner) => {
                let present = self.take(1)?[0] != 0;
                if present {
                    Ok(Value::Optional(Some(Box::new(self.decode(inner)?))))
                } else {
                    Ok(Value::Optional(None))
                }
            }
        }
    }

    fn decode_struct_body(&mut self, schema: &StructSchema) -> Result<Value> {
        let mut fields = Vec::with_capacity(schema.fields.len());
        for def in &schema.fields {
            fields.push(self.decode(&def.ty)?);
        }
        Ok(Value::Struct(fields))
    }
}

impl WireFormat for LcmLike {
    fn name(&self) -> &'static str {
        NAME
    }

    fn encode(&self, schema: &Schema, value: &Value, out: &mut Vec<u8>) -> Result<()> {
        out.clear();
        out.extend_from_slice(&fingerprint(schema).to_be_bytes());
        encode_struct_body(schema, value, out)
    }

    fn decode(&self, schema: &Schema, bytes: &[u8]) -> Result<Value> {
        let mut r = LcmReader { buf: bytes, pos: 0 };
        let fp = r.take(8)?;
        if fp != fingerprint(schema).to_be_bytes() {
            return Err(err("fingerprint mismatch"));
        }
        r.decode_struct_body(schema)
    }

    fn supports(&self, schema: &Schema) -> bool {
        !schema.contains_choice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Variant;

    #[test]
    fn round_trips_flat_message() {
        let schema = StructSchema::builder("Pose")
            .field("ts", FieldType::UInt { bits: 64 })
            .field("x", FieldType::Int)
            .field("name", FieldType::Utf8 { max: None })
            .build();
        let v = Value::Struct(vec![
            Value::U64(1234567),
            Value::I64(-42),
            Value::Str("sensor".into()),
        ]);
        let codec = LcmLike::new();
        let mut buf = Vec::new();
        codec.encode(&schema, &v, &mut buf).unwrap();
        assert_eq!(codec.decode(&schema, &buf).unwrap(), v);
    }

    #[test]
    fn fingerprint_detects_schema_mismatch() {
        let s1 = StructSchema::builder("A")
            .field("x", FieldType::UInt { bits: 32 })
            .build();
        let s2 = StructSchema::builder("B")
            .field("x", FieldType::UInt { bits: 32 })
            .build();
        let codec = LcmLike::new();
        let mut buf = Vec::new();
        codec
            .encode(&s1, &Value::Struct(vec![Value::U64(1)]), &mut buf)
            .unwrap();
        assert!(codec.decode(&s2, &buf).is_err());
        assert!(codec.decode(&s1, &buf).is_ok());
    }

    #[test]
    fn unions_are_unsupported() {
        let schema = StructSchema::builder("U")
            .field(
                "c",
                FieldType::Choice(vec![Variant {
                    name: "a".into(),
                    ty: FieldType::Bool,
                }]),
            )
            .build();
        let codec = LcmLike::new();
        assert!(!codec.supports(&schema));
        let mut buf = Vec::new();
        assert!(codec
            .encode(
                &schema,
                &Value::Struct(vec![Value::choice(0, Value::Bool(true))]),
                &mut buf
            )
            .is_err());
    }

    #[test]
    fn constrained_fields_cost_full_width() {
        // PER packs a 0..=15 range into 4 bits; LCM spends 8 bytes.
        let schema = StructSchema::builder("C")
            .field("x", FieldType::Constrained { lo: 0, hi: 15 })
            .build();
        let v = Value::Struct(vec![Value::U64(9)]);
        let codec = LcmLike::new();
        let mut lcm = Vec::new();
        codec.encode(&schema, &v, &mut lcm).unwrap();
        let mut per = Vec::new();
        crate::per::Asn1Per::new()
            .encode(&schema, &v, &mut per)
            .unwrap();
        assert_eq!(lcm.len(), 8 + 8);
        assert_eq!(per.len(), 1);
        assert_eq!(codec.decode(&schema, &lcm).unwrap(), v);
    }

    #[test]
    fn truncation_is_an_error() {
        let schema = StructSchema::builder("S")
            .field("x", FieldType::UInt { bits: 64 })
            .build();
        let codec = LcmLike::new();
        let mut buf = Vec::new();
        codec
            .encode(&schema, &Value::Struct(vec![Value::U64(5)]), &mut buf)
            .unwrap();
        for cut in 0..buf.len() {
            assert!(codec.decode(&schema, &buf[..cut]).is_err());
        }
    }
}
