//! A Fast-CDR-like plain binary format (Fig. 18 comparator).
//!
//! OMG CDR as implemented by eProsima Fast-CDR: little-endian scalars at
//! natural alignment, `u32` length-prefixed strings and sequences, `u32`
//! union discriminants, everything written and read strictly sequentially.
//! Encoding is nearly memcpy-speed; decoding *materializes an owned object*
//! (as `Cdr::deserialize` fills a C++ struct), which is why its read cost
//! grows with field count while fastbuf's does not — the crossover the
//! paper's Fig. 18 shows around 7 information elements.

use crate::bits::{pack_bits, unpack_bits};
use crate::schema::{FieldType, Schema, StructSchema};
use crate::sink::{fresh, FieldSink, FieldSource};
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
fn width(ty: &FieldType) -> Result<usize> {
    Ok(match ty {
        FieldType::Bool => 1,
        FieldType::UInt { bits } => usize::from(*bits) / 8,
        FieldType::Int => 8,
        FieldType::Enum { .. } => 4,
        FieldType::Constrained { lo, hi } => match (*hi as i128 - *lo as i128) as u128 {
            0..=0xFF => 1,
            0x100..=0xFFFF => 2,
            0x1_0000..=0xFFFF_FFFF => 4,
            _ => 8,
        },
        ty => return Err(err(format!("{ty:?} is not a scalar"))),
    })
}

/// CDR writes each value where it stands: nothing is open, nothing to close.
struct Sink<'a>(&'a mut Vec<u8>);

impl Sink<'_> {
    fn align(&mut self, to: usize) {
        let aligned = self.0.len().next_multiple_of(to);
        self.0.resize(aligned, 0);
    }

    fn put_u32(&mut self, v: u32) {
        self.align(4);
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// A scalar of `ty`'s width at its natural alignment; a constrained
    /// integer travels as its offset from the lower bound.
    fn scalar(&mut self, ty: &FieldType, v: i128) -> Result<()> {
        let w = width(ty)?;
        let raw = match ty {
            FieldType::Constrained { lo, .. } => v - i128::from(*lo),
            _ => v,
        } as u64;
        self.align(w);
        self.0.extend_from_slice(&raw.to_le_bytes()[..w]);
        Ok(())
    }
}

impl FieldSink for Sink<'_> {
    fn begin_struct(&mut self, _: &StructSchema) -> Result<()> {
        Ok(())
    }
    fn presence(&mut self, _: bool) -> Result<()> {
        Ok(())
    }
    fn optional(&mut self, _: &FieldType, present: bool) -> Result<()> {
        self.0.push(u8::from(present));
        Ok(())
    }
    fn end_struct(&mut self) -> Result<()> {
        Ok(())
    }
    fn bool(&mut self, v: bool) -> Result<()> {
        self.0.push(u8::from(v));
        Ok(())
    }
    fn uint(&mut self, ty: &FieldType, v: u64) -> Result<()> {
        self.scalar(ty, i128::from(v))
    }
    fn int(&mut self, ty: &FieldType, v: i64) -> Result<()> {
        self.scalar(ty, i128::from(v))
    }
    fn bytes(&mut self, _: &FieldType, v: &[u8]) -> Result<()> {
        self.put_u32(v.len() as u32);
        self.0.extend_from_slice(v);
        Ok(())
    }
    fn str(&mut self, ty: &FieldType, v: &str) -> Result<()> {
        self.bytes(ty, v.as_bytes())
    }
    fn bits(&mut self, _: &FieldType, v: &[bool]) -> Result<()> {
        self.put_u32(v.len() as u32);
        pack_bits(v, self.0);
        Ok(())
    }
    fn begin_list(&mut self, _: &FieldType, len: usize) -> Result<()> {
        self.put_u32(len as u32);
        Ok(())
    }
    fn end_list(&mut self) -> Result<()> {
        Ok(())
    }
    fn choice(&mut self, ty: &FieldType, index: u32) -> Result<()> {
        ty.variant(index)?;
        self.put_u32(index);
        Ok(())
    }
}

/// The reader mirrors the writer value for value.
struct Source<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Source<'a> {
    fn align(&mut self, to: usize) {
        self.pos = self.pos.next_multiple_of(to);
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

    fn count(&mut self) -> Result<usize> {
        Ok(self.get_u32()? as usize)
    }

    fn scalar(&mut self, ty: &FieldType) -> Result<i128> {
        let w = width(ty)?;
        self.align(w);
        let mut le = [0u8; 8];
        le[..w].copy_from_slice(self.take(w)?);
        let raw = i128::from(u64::from_le_bytes(le));
        Ok(match ty {
            FieldType::Constrained { lo, .. } => i128::from(*lo) + raw,
            _ => raw,
        })
    }
}

impl FieldSource for Source<'_> {
    fn begin_struct(&mut self, _: &StructSchema) -> Result<()> {
        Ok(())
    }
    fn presence(&mut self) -> Result<bool> {
        Ok(true)
    }
    fn optional(&mut self, _: &FieldType, _: bool) -> Result<bool> {
        Ok(self.take(1)?[0] != 0)
    }
    fn end_struct(&mut self) -> Result<()> {
        Ok(())
    }
    fn bool(&mut self) -> Result<bool> {
        Ok(self.take(1)?[0] != 0)
    }
    fn uint(&mut self, ty: &FieldType) -> Result<u64> {
        Ok(self.scalar(ty)? as u64)
    }
    fn int(&mut self, ty: &FieldType) -> Result<i64> {
        Ok(self.scalar(ty)? as i64)
    }
    fn bytes(&mut self, _: &FieldType) -> Result<&[u8]> {
        let len = self.count()?;
        self.take(len)
    }
    fn str(&mut self, ty: &FieldType) -> Result<&str> {
        std::str::from_utf8(self.bytes(ty)?).map_err(|_| err("invalid UTF-8"))
    }
    fn bits(&mut self, _: &FieldType) -> Result<Vec<bool>> {
        let nbits = self.count()?;
        Ok(unpack_bits(nbits, self.take(nbits.div_ceil(8))?))
    }
    fn begin_list(&mut self, _: &FieldType) -> Result<usize> {
        self.count()
    }
    fn end_list(&mut self) -> Result<()> {
        Ok(())
    }
    fn choice(&mut self, ty: &FieldType) -> Result<u32> {
        let index = self.get_u32()?;
        ty.variant(index)
            .map_err(|_| err(format!("choice index {index} out of range")))?;
        Ok(index)
    }
}

impl WireFormat for CdrLike {
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
        take(&mut Source { buf: bytes, pos: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Variant;
    use crate::tree::{choice, decode, encode, some, Tree};
    use std::sync::Arc;

    fn round_trip(schema: &Schema, value: &Tree) -> Vec<u8> {
        let mut buf = Vec::new();
        encode(&CdrLike, schema, value, &mut buf).unwrap();
        assert_eq!(&decode(&CdrLike, schema, &buf).unwrap(), value);
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
            &Tree::Struct(vec![Tree::U64(7), Tree::U64(0x1234_5678)]),
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
        let v = Tree::Struct(vec![
            Tree::Bool(true),
            Tree::Str("edge-node".into()),
            Tree::Bytes(vec![1, 2, 3]),
            Tree::Bits(vec![true, true, false, true]),
            Tree::List(vec![
                Tree::Struct(vec![Tree::I64(-5)]),
                Tree::Struct(vec![Tree::I64(300)]),
            ]),
            some(Tree::U64(99)),
            choice(0, Tree::U64(1 << 40)),
        ]);
        round_trip(&schema, &v);
    }

    #[test]
    fn truncation_is_an_error() {
        let schema = StructSchema::builder("S")
            .field("s", FieldType::Utf8 { max: None })
            .build();
        let buf = round_trip(
            &schema,
            &Tree::Struct(vec![Tree::Str("hello world".into())]),
        );
        for cut in 0..buf.len() {
            assert!(decode(&CdrLike, &schema, &buf[..cut]).is_err());
        }
    }

    #[test]
    fn cdr_smaller_than_fastbuf_for_flat_messages() {
        let schema = StructSchema::builder("S")
            .field("a", FieldType::UInt { bits: 32 })
            .field("b", FieldType::UInt { bits: 32 })
            .build();
        let v = Tree::Struct(vec![Tree::U64(1), Tree::U64(2)]);
        let mut cdr = Vec::new();
        let mut fb = Vec::new();
        encode(&CdrLike, &schema, &v, &mut cdr).unwrap();
        encode(&crate::fastbuf::Fastbuf::standard(), &schema, &v, &mut fb).unwrap();
        assert!(cdr.len() < fb.len());
    }
}
