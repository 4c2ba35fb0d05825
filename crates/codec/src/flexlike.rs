//! A FlexBuffers-like self-describing format (Fig. 18 comparator).
//!
//! FlexBuffers is FlatBuffers' schemaless sibling: every value carries its
//! own type information, so no schema is needed to read a buffer, at the
//! cost of per-value type dispatch and larger output. This implementation
//! stores a type byte before each value with varint lengths — decoding is
//! driven entirely by the buffer (the schema is only consulted afterwards
//! for validation), which is why it trails the schema'd codecs in Fig. 18.

use crate::value::{Schema, Value};
use crate::WireFormat;
use neutrino_common::{Error, Result};

/// The FlexBuffers-like codec.
#[derive(Debug, Default, Clone, Copy)]
pub struct FlexLike;

const NAME: &str = "flexbuf";

const T_BOOL_FALSE: u8 = 0x01;
const T_BOOL_TRUE: u8 = 0x02;
const T_U64: u8 = 0x03;
const T_I64: u8 = 0x04;
const T_BYTES: u8 = 0x05;
const T_STR: u8 = 0x06;
const T_BITS: u8 = 0x07;
const T_STRUCT: u8 = 0x08;
const T_LIST: u8 = 0x09;
const T_CHOICE: u8 = 0x0A;
const T_NONE: u8 = 0x0B;
const T_SOME: u8 = 0x0C;

impl FlexLike {
    /// Creates the codec.
    pub fn new() -> Self {
        FlexLike
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

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Bool(false) => out.push(T_BOOL_FALSE),
        Value::Bool(true) => out.push(T_BOOL_TRUE),
        Value::U64(x) => {
            out.push(T_U64);
            put_varint(out, *x);
        }
        Value::I64(x) => {
            out.push(T_I64);
            put_varint(out, zigzag(*x));
        }
        Value::Bytes(bs) => {
            out.push(T_BYTES);
            put_varint(out, bs.len() as u64);
            out.extend_from_slice(bs);
        }
        Value::Str(s) => {
            out.push(T_STR);
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bits(bits) => {
            out.push(T_BITS);
            put_varint(out, bits.len() as u64);
            let mut packed = vec![0u8; bits.len().div_ceil(8)];
            for (i, &b) in bits.iter().enumerate() {
                if b {
                    packed[i / 8] |= 0x80 >> (i % 8);
                }
            }
            out.extend_from_slice(&packed);
        }
        Value::Struct(fields) => {
            out.push(T_STRUCT);
            put_varint(out, fields.len() as u64);
            for f in fields {
                encode_value(f, out);
            }
        }
        Value::List(items) => {
            out.push(T_LIST);
            put_varint(out, items.len() as u64);
            for it in items {
                encode_value(it, out);
            }
        }
        Value::Choice { index, value } => {
            out.push(T_CHOICE);
            put_varint(out, u64::from(*index));
            encode_value(value, out);
        }
        Value::Optional(None) => out.push(T_NONE),
        Value::Optional(Some(inner)) => {
            out.push(T_SOME);
            encode_value(inner, out);
        }
    }
}

struct FlexReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FlexReader<'a> {
    fn byte(&mut self) -> Result<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| err("truncated buffer"))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
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

    /// Room to reserve for `count` values: the count is the sender's word,
    /// so no more than the input left, two bytes per 32-byte `Value`.
    fn reserve(&self, count: usize) -> usize {
        count.min((self.buf.len() - self.pos) / 2)
    }

    fn decode_value(&mut self) -> Result<Value> {
        match self.byte()? {
            T_BOOL_FALSE => Ok(Value::Bool(false)),
            T_BOOL_TRUE => Ok(Value::Bool(true)),
            T_U64 => Ok(Value::U64(self.varint()?)),
            T_I64 => Ok(Value::I64(unzigzag(self.varint()?))),
            T_BYTES => {
                let len = self.varint()? as usize;
                Ok(Value::Bytes(self.take(len)?.to_vec()))
            }
            T_STR => {
                let len = self.varint()? as usize;
                let bytes = self.take(len)?;
                Ok(Value::Str(
                    std::str::from_utf8(bytes)
                        .map_err(|_| err("invalid UTF-8"))?
                        .to_owned(),
                ))
            }
            T_BITS => {
                let nbits = self.varint()? as usize;
                let packed = self.take(nbits.div_ceil(8))?;
                Ok(Value::Bits(
                    (0..nbits)
                        .map(|i| packed[i / 8] & (0x80 >> (i % 8)) != 0)
                        .collect(),
                ))
            }
            T_STRUCT => {
                let n = self.varint()? as usize;
                let mut fields = Vec::with_capacity(self.reserve(n));
                for _ in 0..n {
                    fields.push(self.decode_value()?);
                }
                Ok(Value::Struct(fields))
            }
            T_LIST => {
                let n = self.varint()? as usize;
                let mut items = Vec::with_capacity(self.reserve(n));
                for _ in 0..n {
                    items.push(self.decode_value()?);
                }
                Ok(Value::List(items))
            }
            T_CHOICE => {
                let index = self.varint()? as u32;
                Ok(Value::Choice {
                    index,
                    value: Box::new(self.decode_value()?),
                })
            }
            T_NONE => Ok(Value::Optional(None)),
            T_SOME => Ok(Value::Optional(Some(Box::new(self.decode_value()?)))),
            other => Err(err(format!("unknown type tag {other:#x}"))),
        }
    }
}

impl WireFormat for FlexLike {
    fn name(&self) -> &'static str {
        NAME
    }

    fn encode(&self, schema: &Schema, value: &Value, out: &mut Vec<u8>) -> Result<()> {
        // Self-describing: validate against the schema, then ignore it.
        schema
            .validate(value)
            .map_err(|e| err(format!("schema validation failed: {e}")))?;
        out.clear();
        encode_value(value, out);
        Ok(())
    }

    fn decode(&self, _schema: &Schema, bytes: &[u8]) -> Result<Value> {
        let mut r = FlexReader { buf: bytes, pos: 0 };
        let v = r.decode_value()?;
        if r.pos != bytes.len() {
            return Err(err(format!("{} trailing bytes", bytes.len() - r.pos)));
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{FieldType, StructSchema};

    fn schema() -> Schema {
        StructSchema::builder("S")
            .field("b", FieldType::Bool)
            .field("u", FieldType::UInt { bits: 64 })
            .field("i", FieldType::Int)
            .field("s", FieldType::Utf8 { max: None })
            .field(
                "opt",
                FieldType::Optional(Box::new(FieldType::UInt { bits: 8 })),
            )
            .field(
                "list",
                FieldType::List {
                    elem: Box::new(FieldType::UInt { bits: 64 }),
                    max: None,
                },
            )
            .build()
    }

    #[test]
    fn round_trips_without_schema_knowledge() {
        let schema = schema();
        let v = Value::Struct(vec![
            Value::Bool(true),
            Value::U64(123456789),
            Value::I64(-777),
            Value::Str("schemaless".into()),
            Value::some(Value::U64(3)),
            Value::List(vec![Value::U64(1), Value::U64(2)]),
        ]);
        let codec = FlexLike::new();
        let mut buf = Vec::new();
        codec.encode(&schema, &v, &mut buf).unwrap();
        // Decoding needs no schema: pass an empty one.
        let empty = StructSchema::builder("ignored").build();
        assert_eq!(codec.decode(&empty, &buf).unwrap(), v);
    }

    #[test]
    fn encode_validates_against_schema() {
        let schema = StructSchema::builder("S")
            .field("x", FieldType::UInt { bits: 8 })
            .build();
        let codec = FlexLike::new();
        let mut buf = Vec::new();
        assert!(codec
            .encode(&schema, &Value::Struct(vec![Value::U64(300)]), &mut buf)
            .is_err());
    }

    #[test]
    fn type_bytes_make_it_larger_than_proto() {
        let schema = StructSchema::builder("S")
            .field("a", FieldType::UInt { bits: 32 })
            .field("b", FieldType::UInt { bits: 32 })
            .field("c", FieldType::UInt { bits: 32 })
            .build();
        let v = Value::Struct(vec![Value::U64(1), Value::U64(2), Value::U64(3)]);
        let codec = FlexLike::new();
        let mut flex = Vec::new();
        codec.encode(&schema, &v, &mut flex).unwrap();
        let mut proto = Vec::new();
        crate::protolike::ProtoLike::new()
            .encode(&schema, &v, &mut proto)
            .unwrap();
        assert!(flex.len() > proto.len());
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let schema = StructSchema::builder("S")
            .field("b", FieldType::Bool)
            .build();
        let codec = FlexLike::new();
        let mut buf = Vec::new();
        codec
            .encode(&schema, &Value::Struct(vec![Value::Bool(true)]), &mut buf)
            .unwrap();
        buf.push(0x00);
        assert!(codec.decode(&schema, &buf).is_err());
    }

    #[test]
    fn truncation_is_an_error() {
        let schema = StructSchema::builder("S")
            .field("s", FieldType::Utf8 { max: None })
            .build();
        let codec = FlexLike::new();
        let mut buf = Vec::new();
        codec
            .encode(
                &schema,
                &Value::Struct(vec![Value::Str("0123456789".into())]),
                &mut buf,
            )
            .unwrap();
        for cut in 0..buf.len() {
            assert!(codec.decode(&schema, &buf[..cut]).is_err());
        }
    }
}
