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

use crate::bits::{pack_bits, unpack_bits};
use crate::schema::{FieldType, Schema, StructSchema};
use crate::sink::{fresh, FieldSink, FieldSource};
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

fn no_unions() -> Error {
    err("LCM cannot express unions")
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

/// Big-endian width of an integer field: its natural width, LCM's `int32`
/// for an enumeration, and a full `int64` for anything ranged.
fn width(ty: &FieldType) -> Result<usize> {
    match ty {
        FieldType::UInt { bits } => Ok(usize::from(*bits) / 8),
        FieldType::Int | FieldType::Constrained { .. } => Ok(8),
        FieldType::Enum { .. } => Ok(4),
        ty => Err(err(format!("an integer in a field of type {ty:?}"))),
    }
}

/// LCM writes each value where it stands, the fingerprint first: nothing is
/// open, nothing to close.
struct Sink<'a>(&'a mut Vec<u8>);

impl Sink<'_> {
    fn put_u32(&mut self, n: usize) {
        self.0.extend_from_slice(&(n as u32).to_be_bytes());
    }
}

impl FieldSink for Sink<'_> {
    fn begin_struct(&mut self, schema: &StructSchema) -> Result<()> {
        // Every nested struct follows the root's fingerprint.
        if self.0.is_empty() {
            self.0.extend_from_slice(&fingerprint(schema).to_be_bytes());
        }
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
        let w = width(ty)?;
        self.0.extend_from_slice(&v.to_be_bytes()[8 - w..]);
        Ok(())
    }
    fn int(&mut self, ty: &FieldType, v: i64) -> Result<()> {
        self.uint(ty, v as u64)
    }
    fn bytes(&mut self, _: &FieldType, v: &[u8]) -> Result<()> {
        self.put_u32(v.len());
        self.0.extend_from_slice(v);
        Ok(())
    }
    fn str(&mut self, ty: &FieldType, v: &str) -> Result<()> {
        self.bytes(ty, v.as_bytes())
    }
    fn bits(&mut self, _: &FieldType, v: &[bool]) -> Result<()> {
        self.put_u32(v.len());
        pack_bits(v, self.0);
        Ok(())
    }
    fn begin_list(&mut self, _: &FieldType, len: usize) -> Result<()> {
        self.put_u32(len);
        Ok(())
    }
    fn end_list(&mut self) -> Result<()> {
        Ok(())
    }
    fn choice(&mut self, _: &FieldType, _: u32) -> Result<()> {
        Err(no_unions())
    }
}

/// The reader mirrors the writer value for value, checking the root's
/// fingerprint against the schema it is asked to read.
struct Source<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Source<'a> {
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

    /// The next `n` ≤ 8 bytes as a big-endian integer.
    fn big_endian(&mut self, n: usize) -> Result<u64> {
        Ok(self
            .take(n)?
            .iter()
            .fold(0, |v, &b| (v << 8) | u64::from(b)))
    }

    fn count(&mut self) -> Result<usize> {
        Ok(self.big_endian(4)? as usize)
    }
}

impl FieldSource for Source<'_> {
    fn begin_struct(&mut self, schema: &StructSchema) -> Result<()> {
        if self.pos == 0 && self.big_endian(8)? != fingerprint(schema) {
            return Err(err("fingerprint mismatch"));
        }
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
        self.big_endian(width(ty)?)
    }
    fn int(&mut self, ty: &FieldType) -> Result<i64> {
        Ok(self.uint(ty)? as i64)
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
    fn choice(&mut self, _: &FieldType) -> Result<u32> {
        Err(no_unions())
    }
}

impl WireFormat for LcmLike {
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

    fn supports(&self, schema: &Schema) -> bool {
        !schema.contains_choice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Variant;
    use crate::tree::{choice, decode, encode, Tree};

    #[test]
    fn round_trips_flat_message() {
        let schema = StructSchema::builder("Pose")
            .field("ts", FieldType::UInt { bits: 64 })
            .field("x", FieldType::Int)
            .field("name", FieldType::Utf8 { max: None })
            .build();
        let v = Tree::Struct(vec![
            Tree::U64(1234567),
            Tree::I64(-42),
            Tree::Str("sensor".into()),
        ]);
        let codec = LcmLike::new();
        let mut buf = Vec::new();
        encode(&codec, &schema, &v, &mut buf).unwrap();
        assert_eq!(decode(&codec, &schema, &buf).unwrap(), v);
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
        encode(&codec, &s1, &Tree::Struct(vec![Tree::U64(1)]), &mut buf).unwrap();
        assert!(decode(&codec, &s2, &buf).is_err());
        assert!(decode(&codec, &s1, &buf).is_ok());
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
        assert!(encode(
            &codec,
            &schema,
            &Tree::Struct(vec![choice(0, Tree::Bool(true))]),
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
        let v = Tree::Struct(vec![Tree::U64(9)]);
        let codec = LcmLike::new();
        let mut lcm = Vec::new();
        encode(&codec, &schema, &v, &mut lcm).unwrap();
        let mut per = Vec::new();
        encode(&crate::per::Asn1Per::new(), &schema, &v, &mut per).unwrap();
        assert_eq!(lcm.len(), 8 + 8);
        assert_eq!(per.len(), 1);
        assert_eq!(decode(&codec, &schema, &lcm).unwrap(), v);
    }

    #[test]
    fn truncation_is_an_error() {
        let schema = StructSchema::builder("S")
            .field("x", FieldType::UInt { bits: 64 })
            .build();
        let codec = LcmLike::new();
        let mut buf = Vec::new();
        encode(&codec, &schema, &Tree::Struct(vec![Tree::U64(5)]), &mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(decode(&codec, &schema, &buf[..cut]).is_err());
        }
    }
}
