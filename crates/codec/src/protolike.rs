//! A Protocol-Buffers-like format (Fig. 18 comparator).
//!
//! Tag/wire-type varint framing: scalars as varints (zigzag for signed),
//! everything else length-delimited. Like protobuf, absent optional fields
//! are simply omitted and the decoder dispatches on field numbers, which
//! costs a branch per tag and allocation per nested message — the overheads
//! that leave protobuf behind FlatBuffers in the paper's Fig. 18.

use crate::value::{FieldType, Schema, StructSchema, Value};
use crate::WireFormat;
use neutrino_common::{Error, Result};

/// The protobuf-like codec.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProtoLike;

const NAME: &str = "protobuf";

/// Wire type 0: varint.
const WT_VARINT: u64 = 0;
/// Wire type 2: length-delimited.
const WT_LEN: u64 = 2;

impl ProtoLike {
    /// Creates the codec.
    pub fn new() -> Self {
        ProtoLike
    }
}

fn err(detail: impl Into<String>) -> Error {
    Error::codec(NAME, detail.into())
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_tag(out: &mut Vec<u8>, field_no: u64, wire_type: u64) {
    put_varint(out, (field_no << 3) | wire_type);
}

/// True when the field encodes as a bare varint.
fn is_varint(ty: &FieldType) -> bool {
    matches!(
        ty,
        FieldType::Bool
            | FieldType::UInt { .. }
            | FieldType::Int
            | FieldType::Constrained { .. }
            | FieldType::Enum { .. }
    )
}

fn encode_varint_value(ty: &FieldType, value: &Value, out: &mut Vec<u8>) -> Result<()> {
    match (ty, value) {
        (FieldType::Bool, Value::Bool(b)) => put_varint(out, u64::from(*b)),
        (FieldType::UInt { .. }, Value::U64(x)) => put_varint(out, *x),
        (FieldType::Int, Value::I64(x)) => put_varint(out, zigzag(*x)),
        (FieldType::Constrained { lo, .. }, v) => {
            let x = crate::value::integer_carrier(v)
                .ok_or_else(|| err("constrained field is not an integer"))?;
            if *lo >= 0 {
                put_varint(out, x as u64);
            } else {
                put_varint(out, zigzag(x));
            }
        }
        (FieldType::Enum { .. }, Value::U64(x)) => put_varint(out, *x),
        (ty, v) => return Err(err(format!("varint mismatch: {ty:?} vs {v:?}"))),
    }
    Ok(())
}

fn encode_len_delimited(
    ty: &FieldType,
    value: &Value,
    scratch: &mut Vec<u8>,
    out: &mut Vec<u8>,
) -> Result<()> {
    scratch.clear();
    match (ty, value) {
        (FieldType::Bytes { .. }, Value::Bytes(bs)) => scratch.extend_from_slice(bs),
        (FieldType::Utf8 { .. }, Value::Str(s)) => scratch.extend_from_slice(s.as_bytes()),
        (FieldType::BitString { .. }, Value::Bits(bits)) => {
            put_varint(scratch, bits.len() as u64);
            let mut packed = vec![0u8; bits.len().div_ceil(8)];
            for (i, &b) in bits.iter().enumerate() {
                if b {
                    packed[i / 8] |= 0x80 >> (i % 8);
                }
            }
            scratch.extend_from_slice(&packed);
        }
        (FieldType::Struct(schema), v) => {
            let mut inner = Vec::new();
            encode_message(schema, v, &mut inner)?;
            scratch.extend_from_slice(&inner);
        }
        (FieldType::List { elem, .. }, Value::List(items)) => {
            put_varint(scratch, items.len() as u64);
            let mut inner_scratch = Vec::new();
            for item in items {
                if is_varint(elem) {
                    encode_varint_value(elem, item, scratch)?;
                } else {
                    let mut tmp = Vec::new();
                    encode_len_delimited(elem, item, &mut inner_scratch, &mut tmp)?;
                    scratch.extend_from_slice(&tmp);
                }
            }
        }
        (FieldType::Choice(variants), Value::Choice { index, value }) => {
            if *index as usize >= variants.len() {
                return Err(err(format!("choice index {index} out of range")));
            }
            put_varint(scratch, u64::from(*index));
            let var = &variants[*index as usize];
            if is_varint(&var.ty) {
                encode_varint_value(&var.ty, value, scratch)?;
            } else {
                let mut inner_scratch = Vec::new();
                let mut tmp = Vec::new();
                encode_len_delimited(&var.ty, value, &mut inner_scratch, &mut tmp)?;
                scratch.extend_from_slice(&tmp);
            }
        }
        (ty, v) => return Err(err(format!("length-delimited mismatch: {ty:?} vs {v:?}"))),
    }
    put_varint(out, scratch.len() as u64);
    out.extend_from_slice(scratch);
    Ok(())
}

fn encode_message(schema: &StructSchema, value: &Value, out: &mut Vec<u8>) -> Result<()> {
    let fields = value
        .as_struct()
        .ok_or_else(|| err(format!("expected struct for {}", schema.name)))?;
    if fields.len() != schema.fields.len() {
        return Err(err(format!("struct {} arity mismatch", schema.name)));
    }
    let mut scratch = Vec::new();
    for (i, (def, val)) in schema.fields.iter().zip(fields).enumerate() {
        let field_no = (i + 1) as u64;
        let (ty, val) = match (&def.ty, val) {
            (FieldType::Optional(inner), Value::Optional(opt)) => match opt {
                None => continue, // omitted, like proto3 optional
                Some(v) => (inner.as_ref(), v.as_ref()),
            },
            (ty, v) => (ty, v),
        };
        if is_varint(ty) {
            put_tag(out, field_no, WT_VARINT);
            encode_varint_value(ty, val, out)?;
        } else {
            put_tag(out, field_no, WT_LEN);
            encode_len_delimited(ty, val, &mut scratch, out)?;
        }
    }
    Ok(())
}

struct ProtoReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ProtoReader<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn get_varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = *self
                .buf
                .get(self.pos)
                .ok_or_else(|| err("truncated varint"))?;
            self.pos += 1;
            if shift >= 64 {
                return Err(err("varint too long"));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| err("truncated bytes"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn decode_varint_value(&mut self, ty: &FieldType) -> Result<Value> {
        let raw = self.get_varint()?;
        Ok(match ty {
            FieldType::Bool => Value::Bool(raw != 0),
            FieldType::UInt { .. } | FieldType::Enum { .. } => Value::U64(raw),
            FieldType::Int => Value::I64(unzigzag(raw)),
            FieldType::Constrained { lo, .. } => {
                if *lo >= 0 {
                    Value::U64(raw)
                } else {
                    Value::I64(unzigzag(raw))
                }
            }
            ty => return Err(err(format!("{ty:?} is not a varint type"))),
        })
    }

    fn decode_len_delimited(&mut self, ty: &FieldType) -> Result<Value> {
        let len = self.get_varint()? as usize;
        let body = self.take(len)?;
        let mut r = ProtoReader { buf: body, pos: 0 };
        match ty {
            FieldType::Bytes { .. } => Ok(Value::Bytes(body.to_vec())),
            FieldType::Utf8 { .. } => Ok(Value::Str(
                std::str::from_utf8(body)
                    .map_err(|_| err("invalid UTF-8"))?
                    .to_owned(),
            )),
            FieldType::BitString { .. } => {
                let nbits = r.get_varint()? as usize;
                let packed = r.take(nbits.div_ceil(8))?;
                Ok(Value::Bits(
                    (0..nbits)
                        .map(|i| packed[i / 8] & (0x80 >> (i % 8)) != 0)
                        .collect(),
                ))
            }
            FieldType::Struct(schema) => decode_message(schema, body),
            FieldType::List { elem, .. } => {
                let count = r.get_varint()? as usize;
                // The count is the sender's word: reserve from the input
                // left, two bytes per 32-byte `Value` at most.
                let mut items = Vec::with_capacity(count.min((r.buf.len() - r.pos) / 2));
                for _ in 0..count {
                    if is_varint(elem) {
                        items.push(r.decode_varint_value(elem)?);
                    } else {
                        items.push(r.decode_len_delimited(elem)?);
                    }
                }
                Ok(Value::List(items))
            }
            FieldType::Choice(variants) => {
                let index = r.get_varint()? as u32;
                let var = variants
                    .get(index as usize)
                    .ok_or_else(|| err(format!("choice index {index} out of range")))?;
                let inner = if is_varint(&var.ty) {
                    r.decode_varint_value(&var.ty)?
                } else {
                    r.decode_len_delimited(&var.ty)?
                };
                Ok(Value::Choice {
                    index,
                    value: Box::new(inner),
                })
            }
            ty => Err(err(format!("{ty:?} is not length-delimited"))),
        }
    }
}

fn decode_message(schema: &StructSchema, bytes: &[u8]) -> Result<Value> {
    let mut r = ProtoReader { buf: bytes, pos: 0 };
    let mut fields: Vec<Option<Value>> = vec![None; schema.fields.len()];
    while !r.at_end() {
        let tag = r.get_varint()?;
        let field_no = (tag >> 3) as usize;
        let wire_type = tag & 0x7;
        if field_no == 0 || field_no > schema.fields.len() {
            return Err(err(format!("unknown field number {field_no}")));
        }
        let def = &schema.fields[field_no - 1];
        let ty = match &def.ty {
            FieldType::Optional(inner) => inner.as_ref(),
            ty => ty,
        };
        let value = match wire_type {
            WT_VARINT => r.decode_varint_value(ty)?,
            WT_LEN => r.decode_len_delimited(ty)?,
            other => return Err(err(format!("unsupported wire type {other}"))),
        };
        fields[field_no - 1] = Some(value);
    }
    let mut out = Vec::with_capacity(schema.fields.len());
    for (def, slot) in schema.fields.iter().zip(fields) {
        match (&def.ty, slot) {
            (FieldType::Optional(_), Some(v)) => out.push(Value::Optional(Some(Box::new(v)))),
            (FieldType::Optional(_), None) => out.push(Value::Optional(None)),
            (_, Some(v)) => out.push(v),
            (_, None) => {
                return Err(err(format!(
                    "required field {}.{} missing",
                    schema.name, def.name
                )))
            }
        }
    }
    Ok(Value::Struct(out))
}

impl WireFormat for ProtoLike {
    fn name(&self) -> &'static str {
        NAME
    }

    fn encode(&self, schema: &Schema, value: &Value, out: &mut Vec<u8>) -> Result<()> {
        out.clear();
        encode_message(schema, value, out)
    }

    fn decode(&self, schema: &Schema, bytes: &[u8]) -> Result<Value> {
        decode_message(schema, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Variant;
    use std::sync::Arc;

    fn round_trip(schema: &Schema, value: &Value) -> Vec<u8> {
        let codec = ProtoLike::new();
        let mut buf = Vec::new();
        codec.encode(schema, value, &mut buf).unwrap();
        let back = codec.decode(schema, &buf).unwrap();
        assert_eq!(&back, value);
        buf
    }

    #[test]
    fn varint_encoding_is_compact_for_small_values() {
        let schema = StructSchema::builder("S")
            .field("x", FieldType::UInt { bits: 64 })
            .build();
        let buf = round_trip(&schema, &Value::Struct(vec![Value::U64(5)]));
        assert_eq!(buf.len(), 2); // tag + single varint byte
    }

    #[test]
    fn zigzag_round_trips_negatives() {
        assert_eq!(unzigzag(zigzag(-1)), -1);
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
        assert_eq!(unzigzag(zigzag(i64::MAX)), i64::MAX);
        let schema = StructSchema::builder("S")
            .field("x", FieldType::Int)
            .build();
        round_trip(&schema, &Value::Struct(vec![Value::I64(-123456)]));
    }

    #[test]
    fn omitted_optionals_round_trip() {
        let schema = StructSchema::builder("S")
            .field(
                "a",
                FieldType::Optional(Box::new(FieldType::UInt { bits: 32 })),
            )
            .field("b", FieldType::UInt { bits: 32 })
            .build();
        let absent = Value::Struct(vec![Value::none(), Value::U64(7)]);
        let buf = round_trip(&schema, &absent);
        // Only field 2 encoded: tag + varint.
        assert_eq!(buf.len(), 2);
        round_trip(
            &schema,
            &Value::Struct(vec![Value::some(Value::U64(1)), Value::U64(7)]),
        );
    }

    #[test]
    fn nested_and_repeated_round_trip() {
        let inner = Arc::new(
            StructSchema::builder("Inner")
                .field("id", FieldType::UInt { bits: 32 })
                .field("label", FieldType::Utf8 { max: None })
                .build(),
        );
        let schema = StructSchema::builder("Outer")
            .field(
                "items",
                FieldType::List {
                    elem: Box::new(FieldType::Struct(inner)),
                    max: None,
                },
            )
            .field(
                "nums",
                FieldType::List {
                    elem: Box::new(FieldType::UInt { bits: 32 }),
                    max: None,
                },
            )
            .build();
        let v = Value::Struct(vec![
            Value::List(vec![
                Value::Struct(vec![Value::U64(1), Value::Str("a".into())]),
                Value::Struct(vec![Value::U64(2), Value::Str("b".into())]),
            ]),
            Value::List(vec![Value::U64(100), Value::U64(200), Value::U64(300)]),
        ]);
        round_trip(&schema, &v);
    }

    #[test]
    fn choices_round_trip() {
        let schema = StructSchema::builder("C")
            .field(
                "id",
                FieldType::Choice(vec![
                    Variant {
                        name: "tmsi".into(),
                        ty: FieldType::UInt { bits: 32 },
                    },
                    Variant {
                        name: "imsi".into(),
                        ty: FieldType::Utf8 { max: None },
                    },
                ]),
            )
            .build();
        round_trip(
            &schema,
            &Value::Struct(vec![Value::choice(0, Value::U64(77))]),
        );
        round_trip(
            &schema,
            &Value::Struct(vec![Value::choice(1, Value::Str("imsi-string".into()))]),
        );
    }

    #[test]
    fn truncation_and_garbage_are_errors() {
        let schema = StructSchema::builder("S")
            .field("s", FieldType::Utf8 { max: None })
            .build();
        let codec = ProtoLike::new();
        let mut buf = Vec::new();
        codec
            .encode(
                &schema,
                &Value::Struct(vec![Value::Str("payload".into())]),
                &mut buf,
            )
            .unwrap();
        for cut in 1..buf.len() {
            assert!(codec.decode(&schema, &buf[..cut]).is_err());
        }
        assert!(codec.decode(&schema, &[0xFF; 16]).is_err());
    }
}
