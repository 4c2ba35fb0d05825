//! A FlexBuffers-like self-describing format (Fig. 18 comparator).
//!
//! FlexBuffers is FlatBuffers' schemaless sibling: every value carries its
//! own type information, at the cost of per-value type dispatch and larger
//! output. This implementation stores a type byte before each value with
//! varint lengths. The writer refuses a value outside its field's bounds, as
//! a schema'd builder would; the reader checks every type byte against the
//! field it is asked for — the dispatch that leaves it behind the schema'd
//! codecs in Fig. 18.

use crate::bits::{pack_bits, put_varint, read_varint, unpack_bits, unzigzag, zigzag};
use crate::schema::{FieldType, Schema, StructSchema};
use crate::sink::{fresh, FieldSink, FieldSource};
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

/// Refuses an integer outside `ty`'s range; `signed` says which carrier the
/// value came in, as the type byte will.
fn check_int(ty: &FieldType, v: i128, signed: bool) -> Result<()> {
    let fits = match *ty {
        FieldType::UInt { bits } if !signed => bits >= 64 || v < 1i128 << bits,
        FieldType::Enum { variants } if !signed => v < i128::from(variants),
        FieldType::Int if signed => true,
        FieldType::Constrained { lo, hi } => (i128::from(lo)..=i128::from(hi)).contains(&v),
        _ => return Err(err(format!("an integer in a field of type {ty:?}"))),
    };
    if fits {
        Ok(())
    } else {
        Err(err(format!("{v} is outside {ty:?}")))
    }
}

/// Refuses a string, octet string, bit string or list longer than `ty`
/// allows.
fn check_len(ty: &FieldType, len: usize) -> Result<()> {
    let max = match *ty {
        FieldType::Bytes { max } | FieldType::Utf8 { max } | FieldType::List { max, .. } => max,
        FieldType::BitString { max_bits } => max_bits,
        _ => return Err(err(format!("a length in a field of type {ty:?}"))),
    };
    match max {
        Some(max) if len > max as usize => Err(err(format!("length {len} exceeds {max}"))),
        _ => Ok(()),
    }
}

/// Writes each value where it stands, behind its type byte.
struct Sink<'a>(&'a mut Vec<u8>);

impl Sink<'_> {
    fn counted(&mut self, tag: u8, n: usize) {
        self.0.push(tag);
        put_varint(self.0, n as u64);
    }
}

impl FieldSink for Sink<'_> {
    fn begin_struct(&mut self, schema: &StructSchema) -> Result<()> {
        self.counted(T_STRUCT, schema.fields.len());
        Ok(())
    }
    fn presence(&mut self, _: bool) -> Result<()> {
        Ok(())
    }
    fn optional(&mut self, _: &FieldType, present: bool) -> Result<()> {
        self.0.push(if present { T_SOME } else { T_NONE });
        Ok(())
    }
    fn end_struct(&mut self) -> Result<()> {
        Ok(())
    }
    fn bool(&mut self, v: bool) -> Result<()> {
        self.0.push(if v { T_BOOL_TRUE } else { T_BOOL_FALSE });
        Ok(())
    }
    fn uint(&mut self, ty: &FieldType, v: u64) -> Result<()> {
        check_int(ty, i128::from(v), false)?;
        self.0.push(T_U64);
        put_varint(self.0, v);
        Ok(())
    }
    fn int(&mut self, ty: &FieldType, v: i64) -> Result<()> {
        check_int(ty, i128::from(v), true)?;
        self.0.push(T_I64);
        put_varint(self.0, zigzag(v));
        Ok(())
    }
    fn bytes(&mut self, ty: &FieldType, v: &[u8]) -> Result<()> {
        check_len(ty, v.len())?;
        self.counted(T_BYTES, v.len());
        self.0.extend_from_slice(v);
        Ok(())
    }
    fn str(&mut self, ty: &FieldType, v: &str) -> Result<()> {
        check_len(ty, v.len())?;
        self.counted(T_STR, v.len());
        self.0.extend_from_slice(v.as_bytes());
        Ok(())
    }
    fn bits(&mut self, ty: &FieldType, v: &[bool]) -> Result<()> {
        check_len(ty, v.len())?;
        self.counted(T_BITS, v.len());
        pack_bits(v, self.0);
        Ok(())
    }
    fn begin_list(&mut self, ty: &FieldType, len: usize) -> Result<()> {
        check_len(ty, len)?;
        self.counted(T_LIST, len);
        Ok(())
    }
    fn end_list(&mut self) -> Result<()> {
        Ok(())
    }
    fn choice(&mut self, ty: &FieldType, index: u32) -> Result<()> {
        ty.variant(index)?;
        self.counted(T_CHOICE, index as usize);
        Ok(())
    }
}

/// Reads each value where it stands, refusing one whose type byte is not
/// what the field asks for.
struct Source<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Source<'a> {
    fn byte(&mut self) -> Result<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| err("truncated buffer"))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64> {
        read_varint(self.buf, &mut self.pos).map_err(err)
    }

    /// The count after the type byte `tag`, which must be the next byte.
    fn counted(&mut self, tag: u8) -> Result<usize> {
        match self.byte()? {
            t if t == tag => Ok(self.varint()? as usize),
            t => Err(err(format!("type byte {t:#x} where {tag:#x} is expected"))),
        }
    }

    fn blob(&mut self, tag: u8) -> Result<&'a [u8]> {
        let len = self.counted(tag)?;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| err("truncated bytes"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
}

impl FieldSource for Source<'_> {
    fn begin_struct(&mut self, schema: &StructSchema) -> Result<()> {
        let n = self.counted(T_STRUCT)?;
        if n != schema.fields.len() {
            return Err(err(format!(
                "{n} fields where {} has {}",
                schema.name,
                schema.fields.len()
            )));
        }
        Ok(())
    }
    fn presence(&mut self) -> Result<bool> {
        Ok(true)
    }
    fn optional(&mut self, _: &FieldType, _: bool) -> Result<bool> {
        match self.byte()? {
            T_NONE => Ok(false),
            T_SOME => Ok(true),
            t => Err(err(format!(
                "type byte {t:#x} where an optional is expected"
            ))),
        }
    }
    fn end_struct(&mut self) -> Result<()> {
        Ok(())
    }
    fn bool(&mut self) -> Result<bool> {
        match self.byte()? {
            T_BOOL_FALSE => Ok(false),
            T_BOOL_TRUE => Ok(true),
            t => Err(err(format!("type byte {t:#x} where a bool is expected"))),
        }
    }
    fn uint(&mut self, _: &FieldType) -> Result<u64> {
        match self.byte()? {
            T_U64 => self.varint(),
            t => Err(err(format!(
                "type byte {t:#x} where an unsigned integer is expected"
            ))),
        }
    }
    fn int(&mut self, _: &FieldType) -> Result<i64> {
        match self.byte()? {
            T_I64 => Ok(unzigzag(self.varint()?)),
            T_U64 => i64::try_from(self.varint()?).map_err(|_| err("integer out of range")),
            t => Err(err(format!(
                "type byte {t:#x} where an integer is expected"
            ))),
        }
    }
    fn bytes(&mut self, _: &FieldType) -> Result<&[u8]> {
        self.blob(T_BYTES)
    }
    fn str(&mut self, _: &FieldType) -> Result<&str> {
        std::str::from_utf8(self.blob(T_STR)?).map_err(|_| err("invalid UTF-8"))
    }
    fn bits(&mut self, _: &FieldType) -> Result<Vec<bool>> {
        let nbits = self.counted(T_BITS)?;
        let packed = self
            .buf
            .get(self.pos..)
            .filter(|rest| rest.len() >= nbits.div_ceil(8))
            .ok_or_else(|| err("truncated bytes"))?;
        self.pos += nbits.div_ceil(8);
        Ok(unpack_bits(nbits, packed))
    }
    fn begin_list(&mut self, _: &FieldType) -> Result<usize> {
        self.counted(T_LIST)
    }
    fn end_list(&mut self) -> Result<()> {
        Ok(())
    }
    fn choice(&mut self, ty: &FieldType) -> Result<u32> {
        let index = self.counted(T_CHOICE)?;
        u32::try_from(index)
            .ok()
            .filter(|&index| ty.variant(index).is_ok())
            .ok_or_else(|| err(format!("choice index {index} out of range")))
    }
}

impl WireFormat for FlexLike {
    fn name(&self) -> &'static str {
        NAME
    }

    fn encode_with(
        &self,
        _: &Schema,
        out: &mut Vec<u8>,
        put: &mut dyn FnMut(&mut dyn FieldSink) -> Result<()>,
    ) -> Result<()> {
        fresh(out, |out| put(&mut Sink(out)))
    }

    fn decode_with(
        &self,
        _: &Schema,
        bytes: &[u8],
        take: &mut dyn FnMut(&mut dyn FieldSource) -> Result<()>,
    ) -> Result<()> {
        let mut src = Source { buf: bytes, pos: 0 };
        take(&mut src)?;
        match bytes.len() - src.pos {
            0 => Ok(()),
            trailing => Err(err(format!("{trailing} trailing bytes"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{decode, encode, some, Tree};

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
    fn round_trips_and_checks_every_type_tag() {
        let schema = schema();
        let v = Tree::Struct(vec![
            Tree::Bool(true),
            Tree::U64(123456789),
            Tree::I64(-777),
            Tree::Str("self-describing".into()),
            some(Tree::U64(3)),
            Tree::List(vec![Tree::U64(1), Tree::U64(2)]),
        ]);
        let mut buf = Vec::new();
        encode(&FlexLike, &schema, &v, &mut buf).unwrap();
        assert_eq!(decode(&FlexLike, &schema, &buf).unwrap(), v);
        // The image names its own types: read as another arity or with a
        // string where the bool is, it is refused.
        let empty = StructSchema::builder("S").build();
        assert!(decode(&FlexLike, &empty, &buf).is_err());
        let mut fields = schema.fields.clone();
        fields[0].ty = FieldType::Utf8 { max: None };
        let retyped = StructSchema {
            name: "S".into(),
            fields,
        };
        assert!(decode(&FlexLike, &retyped, &buf).is_err());
    }

    #[test]
    fn encode_validates_against_schema() {
        let schema = StructSchema::builder("S")
            .field("x", FieldType::UInt { bits: 8 })
            .build();
        let codec = FlexLike::new();
        let mut buf = Vec::new();
        assert!(encode(
            &codec,
            &schema,
            &Tree::Struct(vec![Tree::U64(300)]),
            &mut buf
        )
        .is_err());
        assert!(buf.is_empty(), "a refused message leaves no image");
        let bounded = StructSchema::builder("S")
            .field("s", FieldType::Utf8 { max: Some(4) })
            .build();
        let long = Tree::Struct(vec![Tree::Str("too long".into())]);
        assert!(encode(&codec, &bounded, &long, &mut buf).is_err());
    }

    #[test]
    fn type_bytes_make_it_larger_than_proto() {
        let schema = StructSchema::builder("S")
            .field("a", FieldType::UInt { bits: 32 })
            .field("b", FieldType::UInt { bits: 32 })
            .field("c", FieldType::UInt { bits: 32 })
            .build();
        let v = Tree::Struct(vec![Tree::U64(1), Tree::U64(2), Tree::U64(3)]);
        let codec = FlexLike::new();
        let mut flex = Vec::new();
        encode(&codec, &schema, &v, &mut flex).unwrap();
        let mut proto = Vec::new();
        encode(&crate::protolike::ProtoLike::new(), &schema, &v, &mut proto).unwrap();
        assert!(flex.len() > proto.len());
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let schema = StructSchema::builder("S")
            .field("b", FieldType::Bool)
            .build();
        let codec = FlexLike::new();
        let mut buf = Vec::new();
        encode(
            &codec,
            &schema,
            &Tree::Struct(vec![Tree::Bool(true)]),
            &mut buf,
        )
        .unwrap();
        buf.push(0x00);
        assert!(decode(&codec, &schema, &buf).is_err());
    }

    #[test]
    fn truncation_is_an_error() {
        let schema = StructSchema::builder("S")
            .field("s", FieldType::Utf8 { max: None })
            .build();
        let codec = FlexLike::new();
        let mut buf = Vec::new();
        encode(
            &codec,
            &schema,
            &Tree::Struct(vec![Tree::Str("0123456789".into())]),
            &mut buf,
        )
        .unwrap();
        for cut in 0..buf.len() {
            assert!(decode(&codec, &schema, &buf[..cut]).is_err());
        }
    }
}
