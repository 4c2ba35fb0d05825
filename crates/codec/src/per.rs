//! An aligned ASN.1 Packed Encoding Rules (PER) subset — the baseline
//! serializer of existing cellular networks (§3.2).
//!
//! The subset keeps exactly the properties the paper identifies as ASN.1's
//! cost drivers:
//!
//! * **bit-level packing** — booleans are one bit, constrained integers use
//!   `ceil(log2(range))` bits, structs start with a presence preamble of one
//!   bit per OPTIONAL field;
//! * **sequential traversal** — no field can be located without decoding
//!   every preceding bit;
//! * **decode-time allocation** — decoding materializes an owned tree,
//!   allocating for every struct, string, and list (as asn1c-generated code
//!   allocates per information element);
//! * **length determinants** — unbounded strings/lists carry the standard
//!   1-or-2-octet aligned determinant; bounded ones use a constrained count.
//!
//! In exchange PER produces the smallest messages of all codecs here, which
//! is why Fig. 20 shows ASN.1 as the size floor.

use crate::bits::{bits_for_range, BitReader, BitWriter};
use crate::sink::{FieldSink, FieldSource};
use crate::value::{put_value, take_value, FieldType, Schema, StructSchema, Value};
use crate::WireFormat;
use neutrino_common::{Error, Result};

/// The ASN.1 aligned-PER codec.
#[derive(Debug, Default, Clone, Copy)]
pub struct Asn1Per;

const NAME: &str = "asn1-per";

impl Asn1Per {
    /// Creates the codec.
    pub fn new() -> Self {
        Asn1Per
    }
}

impl WireFormat for Asn1Per {
    fn name(&self) -> &'static str {
        NAME
    }

    fn encode(&self, schema: &Schema, value: &Value, out: &mut Vec<u8>) -> Result<()> {
        write(out, |sink| put_value(schema, value, sink))
    }

    fn decode(&self, schema: &Schema, bytes: &[u8]) -> Result<Value> {
        take_value(schema, &mut Source(BitReader::new(bytes)))
    }

    fn encode_with(
        &self,
        _: &Schema,
        out: &mut Vec<u8>,
        put: &mut dyn FnMut(&mut dyn FieldSink) -> Result<()>,
    ) -> Result<()> {
        write(out, |sink| put(sink))
    }

    fn decode_with(
        &self,
        _: &Schema,
        bytes: &[u8],
        take: &mut dyn FnMut(&mut dyn FieldSource) -> Result<()>,
    ) -> Result<()> {
        take(&mut Source(BitReader::new(bytes)))
    }
}

/// Runs `put` over a sink appending to the emptied `out`, which stays empty
/// if `put` fails.
fn write(out: &mut Vec<u8>, put: impl FnOnce(&mut Sink<'_>) -> Result<()>) -> Result<()> {
    out.clear();
    let written = put(&mut Sink(BitWriter::new(out)));
    if written.is_err() {
        out.clear();
    }
    written
}

fn err(detail: impl Into<String>) -> Error {
    Error::codec(NAME, detail.into())
}

fn mismatch(what: &str, ty: &FieldType) -> Error {
    err(format!("{what} in a field of type {ty:?}"))
}

/// PER streams bits in field order: nothing is open, nothing to close. The
/// one thing it needs ahead of a struct's fields is its presence preamble,
/// which is what the `presence` calls write.
struct Sink<'a>(BitWriter<'a>);

impl FieldSink for Sink<'_> {
    fn begin_struct(&mut self, _: &StructSchema) -> Result<()> {
        Ok(())
    }

    fn presence(&mut self, present: bool) -> Result<()> {
        self.0.write_bit(present);
        Ok(())
    }

    fn optional(&mut self, _: &FieldType, _: bool) -> Result<()> {
        Ok(())
    }

    fn end_struct(&mut self) -> Result<()> {
        Ok(())
    }

    fn bool(&mut self, v: bool) -> Result<()> {
        self.0.write_bit(v);
        Ok(())
    }

    fn uint(&mut self, ty: &FieldType, v: u64) -> Result<()> {
        match ty {
            // Full-range 64-bit fields: aligned fixed octets (constrained
            // whole numbers cannot span more than an i64 range).
            FieldType::UInt { bits: 64 } => {
                self.0.align();
                self.0.write_bytes(&v.to_be_bytes());
                Ok(())
            }
            _ => self.int(
                ty,
                i64::try_from(v).map_err(|_| err(format!("value {v} too wide")))?,
            ),
        }
    }

    fn int(&mut self, ty: &FieldType, v: i64) -> Result<()> {
        let w = &mut self.0;
        match ty {
            FieldType::UInt { bits } => encode_constrained(0, max_for_bits(*bits), v, w),
            FieldType::Enum { variants } => encode_constrained(0, i64::from(*variants) - 1, v, w),
            FieldType::Constrained { lo, hi } => encode_constrained(*lo, *hi, v, w),
            // Unconstrained INTEGER: aligned, 1-octet length, minimal
            // two's-complement octets.
            FieldType::Int => {
                w.align();
                let be = v.to_be_bytes();
                let octets = &be[sign_extension_octets(&be)..];
                w.write_bytes(&[octets.len() as u8]);
                w.write_bytes(octets);
                Ok(())
            }
            ty => Err(mismatch("an integer", ty)),
        }
    }

    fn bytes(&mut self, ty: &FieldType, v: &[u8]) -> Result<()> {
        let FieldType::Bytes { max } = ty else {
            return Err(mismatch("an octet string", ty));
        };
        encode_length(v.len(), *max, &mut self.0)?;
        self.0.align();
        self.0.write_bytes(v);
        Ok(())
    }

    fn str(&mut self, ty: &FieldType, v: &str) -> Result<()> {
        let FieldType::Utf8 { max } = ty else {
            return Err(mismatch("a string", ty));
        };
        encode_length(v.len(), *max, &mut self.0)?;
        self.0.align();
        self.0.write_bytes(v.as_bytes());
        Ok(())
    }

    fn bits(&mut self, ty: &FieldType, v: &[bool]) -> Result<()> {
        let FieldType::BitString { max_bits } = ty else {
            return Err(mismatch("a bit string", ty));
        };
        encode_length(v.len(), *max_bits, &mut self.0)?;
        for &b in v {
            self.0.write_bit(b);
        }
        Ok(())
    }

    fn begin_list(&mut self, ty: &FieldType, len: usize) -> Result<()> {
        let FieldType::List { max, .. } = ty else {
            return Err(mismatch("a list", ty));
        };
        encode_length(len, *max, &mut self.0)
    }

    fn end_list(&mut self) -> Result<()> {
        Ok(())
    }

    fn choice(&mut self, ty: &FieldType, index: u32) -> Result<()> {
        let FieldType::Choice(variants) = ty else {
            return Err(mismatch("a choice", ty));
        };
        encode_constrained(0, variants.len() as i64 - 1, i64::from(index), &mut self.0)
    }
}

/// The decoder mirrors the encoder call for call; the presence bits of a
/// struct's preamble are handed back to the caller, who holds them until
/// each optional field's turn.
struct Source<'a>(BitReader<'a>);

impl<'a> Source<'a> {
    fn octets(&mut self, max: Option<u32>) -> Result<&'a [u8]> {
        let len = decode_length(max, &mut self.0)?;
        self.0.align();
        self.0.read_bytes(len)
    }
}

impl FieldSource for Source<'_> {
    fn begin_struct(&mut self, _: &StructSchema) -> Result<()> {
        Ok(())
    }

    fn presence(&mut self) -> Result<bool> {
        self.0.read_bit()
    }

    fn optional(&mut self, _: &FieldType, announced: bool) -> Result<bool> {
        Ok(announced)
    }

    fn end_struct(&mut self) -> Result<()> {
        Ok(())
    }

    fn bool(&mut self) -> Result<bool> {
        self.0.read_bit()
    }

    fn uint(&mut self, ty: &FieldType) -> Result<u64> {
        match ty {
            FieldType::UInt { bits: 64 } => {
                self.0.align();
                Ok(big_endian(self.0.read_bytes(8)?))
            }
            _ => Ok(self.int(ty)? as u64),
        }
    }

    fn int(&mut self, ty: &FieldType) -> Result<i64> {
        let r = &mut self.0;
        match ty {
            FieldType::UInt { bits } => decode_constrained(0, max_for_bits(*bits), r),
            FieldType::Enum { variants } => decode_constrained(0, i64::from(*variants) - 1, r),
            FieldType::Constrained { lo, hi } => decode_constrained(*lo, *hi, r),
            FieldType::Int => {
                r.align();
                let len = r.read_bytes(1)?[0] as usize;
                if len == 0 || len > 8 {
                    return Err(err(format!("bad INTEGER length {len}")));
                }
                let octets = r.read_bytes(len)?;
                let mut v: i64 = if octets[0] & 0x80 != 0 { -1 } else { 0 };
                for &b in octets {
                    v = (v << 8) | i64::from(b);
                }
                Ok(v)
            }
            ty => Err(mismatch("an integer", ty)),
        }
    }

    fn bytes(&mut self, ty: &FieldType) -> Result<&[u8]> {
        match ty {
            FieldType::Bytes { max } => self.octets(*max),
            ty => Err(mismatch("an octet string", ty)),
        }
    }

    fn str(&mut self, ty: &FieldType) -> Result<&str> {
        let FieldType::Utf8 { max } = ty else {
            return Err(mismatch("a string", ty));
        };
        std::str::from_utf8(self.octets(*max)?).map_err(|_| err("invalid UTF-8 in string field"))
    }

    fn bits(&mut self, ty: &FieldType) -> Result<Vec<bool>> {
        let FieldType::BitString { max_bits } = ty else {
            return Err(mismatch("a bit string", ty));
        };
        let len = decode_length(*max_bits, &mut self.0)?;
        // Reserved only once the input is seen to hold that many bits.
        let mut bits = Vec::with_capacity(len.min(self.0.remaining_bits()));
        for _ in 0..len {
            bits.push(self.0.read_bit()?);
        }
        Ok(bits)
    }

    fn begin_list(&mut self, ty: &FieldType) -> Result<usize> {
        match ty {
            FieldType::List { max, .. } => decode_length(*max, &mut self.0),
            ty => Err(mismatch("a list", ty)),
        }
    }

    fn end_list(&mut self) -> Result<()> {
        Ok(())
    }

    fn choice(&mut self, ty: &FieldType) -> Result<u32> {
        let FieldType::Choice(variants) = ty else {
            return Err(mismatch("a choice", ty));
        };
        let index = decode_constrained(0, variants.len() as i64 - 1, &mut self.0)?;
        if index as usize >= variants.len() {
            return Err(err(format!("choice index {index} out of range")));
        }
        Ok(index as u32)
    }
}

fn big_endian(octets: &[u8]) -> u64 {
    octets.iter().fold(0, |v, &b| (v << 8) | u64::from(b))
}

/// Encodes a constrained whole number per aligned PER:
/// * ranges representable in ≤16 bits are written as an unaligned bit field;
/// * wider ranges are byte-aligned and written in the minimal number of
///   whole octets for the range.
fn encode_constrained(lo: i64, hi: i64, x: i64, w: &mut BitWriter<'_>) -> Result<()> {
    if x < lo || x > hi {
        return Err(err(format!("value {x} outside [{lo}, {hi}]")));
    }
    let range = (hi as i128 - lo as i128) as u128;
    if range == 0 {
        return Ok(()); // single-valued: encodes in zero bits
    }
    let offset = (x as i128 - lo as i128) as u128;
    let bits = bits_for_range_u128(range);
    if bits <= 16 {
        w.write_bits(offset as u64, bits);
    } else {
        w.align();
        let octets = bits.div_ceil(8) as usize;
        let be = (offset as u64).to_be_bytes();
        w.write_bytes(&be[8 - octets..]);
    }
    Ok(())
}

fn decode_constrained(lo: i64, hi: i64, r: &mut BitReader<'_>) -> Result<i64> {
    let range = (hi as i128 - lo as i128) as u128;
    if range == 0 {
        return Ok(lo);
    }
    let bits = bits_for_range_u128(range);
    let offset = if bits <= 16 {
        r.read_bits(bits)?
    } else {
        r.align();
        big_endian(r.read_bytes(bits.div_ceil(8) as usize)?)
    };
    let val = lo as i128 + offset as i128;
    if val > hi as i128 {
        return Err(err(format!("decoded offset {offset} exceeds range")));
    }
    Ok(val as i64)
}

fn bits_for_range_u128(range: u128) -> u8 {
    if range <= u64::MAX as u128 {
        bits_for_range(range as u64)
    } else {
        // range == 2^64..2^65-1 can only arise from [i64::MIN, i64::MAX].
        64
    }
}

/// Encodes a length: a constrained count when a max is known and fits 64K,
/// otherwise the standard aligned general length determinant (1 octet for
/// < 128, 2 octets `10xxxxxx xxxxxxxx` for < 16384).
fn encode_length(len: usize, max: Option<u32>, w: &mut BitWriter<'_>) -> Result<()> {
    match max {
        Some(m) if m < 65_536 => {
            if len > m as usize {
                return Err(err(format!("length {len} exceeds bound {m}")));
            }
            encode_constrained(0, i64::from(m), len as i64, w)
        }
        _ => {
            w.align();
            if len < 128 {
                w.write_bytes(&[len as u8]);
                Ok(())
            } else if len < 16_384 {
                let v = 0x8000u16 | len as u16;
                w.write_bytes(&v.to_be_bytes());
                Ok(())
            } else {
                Err(err(format!(
                    "length {len} needs fragmentation (unsupported)"
                )))
            }
        }
    }
}

fn decode_length(max: Option<u32>, r: &mut BitReader<'_>) -> Result<usize> {
    match max {
        Some(m) if m < 65_536 => Ok(decode_constrained(0, i64::from(m), r)? as usize),
        _ => {
            r.align();
            let first = r.read_bytes(1)?[0];
            if first & 0x80 == 0 {
                Ok(first as usize)
            } else if first & 0xC0 == 0x80 {
                let second = r.read_bytes(1)?[0];
                Ok(((usize::from(first) & 0x3F) << 8) | usize::from(second))
            } else {
                Err(err("fragmented length determinant (unsupported)"))
            }
        }
    }
}

fn max_for_bits(bits: u8) -> i64 {
    match bits {
        // 64-bit fields take the raw-octet path in the sink and the source.
        63.. => i64::MAX,
        other => (1i64 << other) - 1,
    }
}

/// How many leading octets of a big-endian i64 are pure sign extension.
fn sign_extension_octets(be: &[u8; 8]) -> usize {
    let mut start = 0;
    while start < 7 {
        let (cur, next) = (be[start], be[start + 1]);
        if (cur == 0x00 && next & 0x80 == 0) || (cur == 0xFF && next & 0x80 != 0) {
            start += 1;
        } else {
            break;
        }
    }
    start
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{StructSchema, Variant};
    use std::sync::Arc;

    fn round_trip(schema: &Schema, value: &Value) -> Vec<u8> {
        let codec = Asn1Per::new();
        let mut buf = Vec::new();
        codec.encode(schema, value, &mut buf).unwrap();
        let back = codec.decode(schema, &buf).unwrap();
        assert_eq!(&back, value, "round trip mismatch");
        buf
    }

    #[test]
    fn booleans_pack_into_bits() {
        let schema = StructSchema::builder("Flags")
            .field("a", FieldType::Bool)
            .field("b", FieldType::Bool)
            .field("c", FieldType::Bool)
            .build();
        let v = Value::Struct(vec![
            Value::Bool(true),
            Value::Bool(false),
            Value::Bool(true),
        ]);
        let buf = round_trip(&schema, &v);
        assert_eq!(buf.len(), 1, "three bools must fit one octet");
    }

    #[test]
    fn constrained_int_uses_minimal_bits() {
        // range 0..=7 → 3 bits; two of them + 2 bools = 8 bits exactly.
        let schema = StructSchema::builder("Small")
            .field("x", FieldType::Constrained { lo: 0, hi: 7 })
            .field("y", FieldType::Constrained { lo: 0, hi: 7 })
            .field("f1", FieldType::Bool)
            .field("f2", FieldType::Bool)
            .build();
        let v = Value::Struct(vec![
            Value::U64(5),
            Value::U64(2),
            Value::Bool(true),
            Value::Bool(false),
        ]);
        let buf = round_trip(&schema, &v);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn negative_constrained_round_trips() {
        let schema = StructSchema::builder("Neg")
            .field("t", FieldType::Constrained { lo: -100, hi: 100 })
            .build();
        for x in [-100i64, -1, 0, 57, 100] {
            let v = Value::Struct(vec![if x >= 0 {
                Value::U64(x as u64)
            } else {
                Value::I64(x)
            }]);
            let codec = Asn1Per::new();
            let mut buf = Vec::new();
            codec.encode(&schema, &v, &mut buf).unwrap();
            let back = codec.decode(&schema, &buf).unwrap();
            let got = back.as_struct().unwrap()[0].clone();
            let got_i = crate::value::integer_carrier(&got).unwrap();
            assert_eq!(got_i, x);
        }
    }

    #[test]
    fn wide_constrained_aligns_to_octets() {
        let schema = StructSchema::builder("Wide")
            .field("flag", FieldType::Bool)
            .field(
                "teid",
                FieldType::Constrained {
                    lo: 0,
                    hi: 0xFFFF_FFFF,
                },
            )
            .build();
        let v = Value::Struct(vec![Value::Bool(true), Value::U64(0xDEAD_BEEF)]);
        let buf = round_trip(&schema, &v);
        // 1 bit flag, align (7 bits pad), 4 octets TEID.
        assert_eq!(buf.len(), 5);
    }

    #[test]
    fn unconstrained_int_minimal_octets() {
        let schema = StructSchema::builder("I")
            .field("x", FieldType::Int)
            .build();
        for (x, expect_len) in [
            (0i64, 1usize),
            (127, 1),
            (128, 2),
            (-1, 1),
            (-129, 2),
            (i64::MAX, 8),
            (i64::MIN, 8),
        ] {
            let v = Value::Struct(vec![Value::I64(x)]);
            let codec = Asn1Per::new();
            let mut buf = Vec::new();
            codec.encode(&schema, &v, &mut buf).unwrap();
            assert_eq!(buf.len(), 1 + expect_len, "for {x}");
            assert_eq!(codec.decode(&schema, &buf).unwrap(), v);
        }
    }

    #[test]
    fn optional_preamble_bits() {
        let schema = StructSchema::builder("Opt")
            .field(
                "a",
                FieldType::Optional(Box::new(FieldType::UInt { bits: 8 })),
            )
            .field(
                "b",
                FieldType::Optional(Box::new(FieldType::UInt { bits: 8 })),
            )
            .build();
        let both_absent = Value::Struct(vec![Value::none(), Value::none()]);
        let buf = round_trip(&schema, &both_absent);
        assert_eq!(buf.len(), 1, "two preamble bits only");
        let one_present = Value::Struct(vec![Value::some(Value::U64(200)), Value::none()]);
        round_trip(&schema, &one_present);
    }

    #[test]
    fn strings_and_bytes_round_trip() {
        let schema = StructSchema::builder("S")
            .field("name", FieldType::Utf8 { max: Some(64) })
            .field("blob", FieldType::Bytes { max: None })
            .build();
        let v = Value::Struct(vec![
            Value::Str("tracking-area-42".into()),
            Value::Bytes((0..200).map(|i| i as u8).collect()),
        ]);
        round_trip(&schema, &v);
    }

    #[test]
    fn long_unbounded_length_uses_two_octets() {
        let schema = StructSchema::builder("B")
            .field("blob", FieldType::Bytes { max: None })
            .build();
        let v = Value::Struct(vec![Value::Bytes(vec![7u8; 1000])]);
        let buf = round_trip(&schema, &v);
        assert_eq!(buf.len(), 2 + 1000);
    }

    #[test]
    fn bounded_length_rejected_when_exceeded() {
        let schema = StructSchema::builder("B")
            .field("blob", FieldType::Bytes { max: Some(4) })
            .build();
        let v = Value::Struct(vec![Value::Bytes(vec![0u8; 5])]);
        let codec = Asn1Per::new();
        let mut buf = Vec::new();
        assert!(codec.encode(&schema, &v, &mut buf).is_err());
    }

    #[test]
    fn bit_string_round_trips() {
        let schema = StructSchema::builder("BS")
            .field("mask", FieldType::BitString { max_bits: Some(40) })
            .build();
        let bits: Vec<bool> = (0..27).map(|i| i % 3 == 0).collect();
        let v = Value::Struct(vec![Value::Bits(bits)]);
        round_trip(&schema, &v);
    }

    #[test]
    fn nested_struct_and_list() {
        let inner = Arc::new(
            StructSchema::builder("Bearer")
                .field("id", FieldType::Constrained { lo: 0, hi: 15 })
                .field("qci", FieldType::Constrained { lo: 1, hi: 9 })
                .build(),
        );
        let schema = StructSchema::builder("Session")
            .field(
                "bearers",
                FieldType::List {
                    elem: Box::new(FieldType::Struct(inner)),
                    max: Some(11),
                },
            )
            .build();
        let v = Value::Struct(vec![Value::List(vec![
            Value::Struct(vec![Value::U64(5), Value::U64(9)]),
            Value::Struct(vec![Value::U64(6), Value::U64(1)]),
        ])]);
        round_trip(&schema, &v);
    }

    #[test]
    fn choice_round_trips() {
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
                        ty: FieldType::Utf8 { max: Some(15) },
                    },
                ]),
            )
            .build();
        round_trip(
            &schema,
            &Value::Struct(vec![Value::choice(0, Value::U64(0xABCD_1234))]),
        );
        round_trip(
            &schema,
            &Value::Struct(vec![Value::choice(1, Value::Str("001010123456789".into()))]),
        );
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let schema = StructSchema::builder("S")
            .field("x", FieldType::UInt { bits: 32 })
            .field("name", FieldType::Utf8 { max: None })
            .build();
        let v = Value::Struct(vec![Value::U64(7), Value::Str("hello".into())]);
        let codec = Asn1Per::new();
        let mut buf = Vec::new();
        codec.encode(&schema, &v, &mut buf).unwrap();
        for cut in 0..buf.len() {
            let _ = codec.decode(&schema, &buf[..cut]); // must not panic
        }
    }

    #[test]
    fn traverse_matches_checksum_of_decode() {
        let schema = StructSchema::builder("S")
            .field("x", FieldType::UInt { bits: 16 })
            .field("s", FieldType::Utf8 { max: Some(8) })
            .build();
        let v = Value::Struct(vec![Value::U64(999), Value::Str("abc".into())]);
        let codec = Asn1Per::new();
        let mut buf = Vec::new();
        codec.encode(&schema, &v, &mut buf).unwrap();
        let t = codec.traverse(&schema, &buf).unwrap();
        assert_eq!(t, crate::checksum_value(&v));
    }
}
