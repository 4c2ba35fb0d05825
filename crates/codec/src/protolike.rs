//! A Protocol-Buffers-like format (Fig. 18 comparator).
//!
//! Tag/wire-type varint framing: scalars as varints (zigzag for signed),
//! everything else length-delimited. Like protobuf, absent optional fields
//! are simply omitted; the encoder backpatches each length prefix when its
//! message, list or union closes, and the decoder matches each tag against
//! the field it expects next — field-number order, the only order the
//! encoder writes. A tag per field and a length per nested value are the
//! overheads that leave protobuf behind FlatBuffers in the paper's Fig. 18.

use crate::bits::{pack_bits, put_varint, read_varint, unpack_bits, unzigzag, zigzag};
use crate::schema::{FieldType, Schema, StructSchema};
use crate::sink::{fresh, FieldSink, FieldSource};
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

fn no_optional_element() -> Error {
    err("an optional outside a message has no encoding")
}

/// True when the integer field travels zigzag-encoded.
fn signed(ty: &FieldType) -> bool {
    matches!(ty, FieldType::Int) || matches!(ty, FieldType::Constrained { lo, .. } if *lo < 0)
}

/// A length-delimited value under construction or being read: a message,
/// a list (its count, then its elements) or a union (its index, then its
/// payload, which closes it).
#[derive(Clone, Copy)]
enum Open {
    /// A message whose next field is number `field`.
    Message { body: usize, field: u64 },
    /// A list.
    List { body: usize },
    /// A union.
    Choice { body: usize },
}

impl Open {
    /// Where the body starts (writing) or ends (reading).
    fn body(self) -> usize {
        match self {
            Open::Message { body, .. } | Open::List { body } | Open::Choice { body } => body,
        }
    }
}

/// Writes each value in place, behind its tag when it is a message field;
/// a length-delimited value's prefix is inserted in front of its body once
/// the body is complete.
struct Sink<'a> {
    out: &'a mut Vec<u8>,
    open: Vec<Open>,
}

impl Sink<'_> {
    /// What precedes a value: its tag, when it is the next field of the
    /// innermost message; nothing in a list or a union.
    fn lead(&mut self, wire_type: u64) -> Result<()> {
        match self.open.last_mut() {
            Some(Open::Message { field, .. }) => {
                put_varint(self.out, (*field << 3) | wire_type);
                *field += 1;
                Ok(())
            }
            Some(_) => Ok(()),
            None => Err(err("a value outside the root message")),
        }
    }

    /// Inserts the length of the body that starts at `body` in front of it.
    fn prefix(&mut self, body: usize) {
        let end = self.out.len();
        put_varint(self.out, (end - body) as u64);
        let prefix = self.out.len() - end;
        self.out[body..].rotate_right(prefix);
    }

    /// A value just finished: a union closes with its payload.
    fn done(&mut self) {
        while let Some(&Open::Choice { body }) = self.open.last() {
            self.open.pop();
            self.prefix(body);
        }
    }

    fn varint(&mut self, raw: u64) -> Result<()> {
        self.lead(WT_VARINT)?;
        put_varint(self.out, raw);
        self.done();
        Ok(())
    }

    /// Opens a length-delimited value whose body the next calls write.
    fn open(&mut self, open: impl FnOnce(usize) -> Open) -> Result<()> {
        self.lead(WT_LEN)?;
        let body = self.out.len();
        self.open.push(open(body));
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        let open = self
            .open
            .pop()
            .ok_or_else(|| err("close without a matching open"))?;
        self.prefix(open.body());
        self.done();
        Ok(())
    }
}

impl FieldSink for Sink<'_> {
    fn begin_struct(&mut self, _: &StructSchema) -> Result<()> {
        if self.open.is_empty() {
            // The root message is the image: no tag, no length.
            self.open.push(Open::Message { body: 0, field: 1 });
            return Ok(());
        }
        self.open(|body| Open::Message { body, field: 1 })
    }
    fn presence(&mut self, _: bool) -> Result<()> {
        Ok(())
    }
    fn optional(&mut self, _: &FieldType, present: bool) -> Result<()> {
        let Some(Open::Message { field, .. }) = self.open.last_mut() else {
            return Err(no_optional_element());
        };
        if !present {
            // Omitted: the field's number goes unused.
            *field += 1;
        }
        Ok(())
    }
    fn end_struct(&mut self) -> Result<()> {
        if self.open.len() == 1 {
            self.open.clear();
            return Ok(());
        }
        self.close()
    }
    fn bool(&mut self, v: bool) -> Result<()> {
        self.varint(u64::from(v))
    }
    fn uint(&mut self, ty: &FieldType, v: u64) -> Result<()> {
        self.varint(if signed(ty) { zigzag(v as i64) } else { v })
    }
    fn int(&mut self, ty: &FieldType, v: i64) -> Result<()> {
        self.uint(ty, v as u64)
    }
    fn bytes(&mut self, _: &FieldType, v: &[u8]) -> Result<()> {
        self.lead(WT_LEN)?;
        put_varint(self.out, v.len() as u64);
        self.out.extend_from_slice(v);
        self.done();
        Ok(())
    }
    fn str(&mut self, ty: &FieldType, v: &str) -> Result<()> {
        self.bytes(ty, v.as_bytes())
    }
    fn bits(&mut self, _: &FieldType, v: &[bool]) -> Result<()> {
        self.open(|body| Open::List { body })?;
        put_varint(self.out, v.len() as u64);
        pack_bits(v, self.out);
        self.close()
    }
    fn begin_list(&mut self, _: &FieldType, len: usize) -> Result<()> {
        self.open(|body| Open::List { body })?;
        put_varint(self.out, len as u64);
        Ok(())
    }
    fn end_list(&mut self) -> Result<()> {
        self.close()
    }
    fn choice(&mut self, ty: &FieldType, index: u32) -> Result<()> {
        ty.variant(index)?;
        self.open(|body| Open::Choice { body })?;
        put_varint(self.out, u64::from(index));
        Ok(())
    }
}

/// Reads each value in place, checking its tag when it is a message field;
/// every read stays inside the innermost open value's body.
struct Source<'a> {
    buf: &'a [u8],
    pos: usize,
    open: Vec<Open>,
}

impl<'a> Source<'a> {
    /// Where the innermost open body ends.
    fn limit(&self) -> usize {
        self.open.last().map_or(self.buf.len(), |open| open.body())
    }

    fn varint(&mut self) -> Result<u64> {
        let limit = self.limit();
        read_varint(&self.buf[..limit], &mut self.pos).map_err(err)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.limit())
            .ok_or_else(|| err("truncated bytes"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads the tag of the innermost message's next field, which must be
    /// there with `wire_type`; nothing in a list or a union.
    fn lead(&mut self, wire_type: u64) -> Result<()> {
        let Some(&Open::Message { field, .. }) = self.open.last() else {
            return Ok(());
        };
        if self.pos >= self.limit() {
            return Err(err(format!("required field {field} missing")));
        }
        let tag = self.varint()?;
        if tag != (field << 3) | wire_type {
            return Err(err(format!("tag {tag:#x} where field {field} is expected")));
        }
        if let Some(Open::Message { field, .. }) = self.open.last_mut() {
            *field += 1;
        }
        Ok(())
    }

    /// A value just finished: a union closes with its payload.
    fn done(&mut self) -> Result<()> {
        while let Some(&Open::Choice { .. }) = self.open.last() {
            self.close()?;
        }
        Ok(())
    }

    fn varint_value(&mut self) -> Result<u64> {
        self.lead(WT_VARINT)?;
        let raw = self.varint()?;
        self.done()?;
        Ok(raw)
    }

    /// The next length-delimited value's body, left unopened.
    fn blob(&mut self) -> Result<&'a [u8]> {
        self.lead(WT_LEN)?;
        let len = self.varint()? as usize;
        let body = self.take(len)?;
        self.done()?;
        Ok(body)
    }

    /// Opens the next length-delimited value, whose body the next reads stay in.
    fn open(&mut self, open: impl FnOnce(usize) -> Open) -> Result<()> {
        self.lead(WT_LEN)?;
        let len = self.varint()? as usize;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.limit())
            .ok_or_else(|| err("truncated bytes"))?;
        self.open.push(open(end));
        Ok(())
    }

    /// Closes the innermost open value, whose body must be read to its end.
    fn close(&mut self) -> Result<()> {
        let open = self
            .open
            .pop()
            .ok_or_else(|| err("close without a matching open"))?;
        if self.pos != open.body() {
            return Err(err(format!("{} unread bytes", open.body() - self.pos)));
        }
        Ok(())
    }
}

impl FieldSource for Source<'_> {
    fn begin_struct(&mut self, _: &StructSchema) -> Result<()> {
        if self.open.is_empty() {
            self.open.push(Open::Message {
                body: self.buf.len(),
                field: 1,
            });
            return Ok(());
        }
        self.open(|body| Open::Message { body, field: 1 })
    }
    fn presence(&mut self) -> Result<bool> {
        Ok(true)
    }
    fn optional(&mut self, _: &FieldType, _: bool) -> Result<bool> {
        let Some(&Open::Message { body, field }) = self.open.last() else {
            return Err(no_optional_element());
        };
        let mut at = self.pos;
        let present =
            at < body && read_varint(&self.buf[..body], &mut at).map_err(err)? >> 3 == field;
        if !present {
            if let Some(Open::Message { field, .. }) = self.open.last_mut() {
                *field += 1;
            }
        }
        Ok(present)
    }
    fn end_struct(&mut self) -> Result<()> {
        self.close()?;
        self.done()
    }
    fn bool(&mut self) -> Result<bool> {
        Ok(self.varint_value()? != 0)
    }
    fn uint(&mut self, ty: &FieldType) -> Result<u64> {
        let raw = self.varint_value()?;
        Ok(if signed(ty) {
            unzigzag(raw) as u64
        } else {
            raw
        })
    }
    fn int(&mut self, ty: &FieldType) -> Result<i64> {
        Ok(self.uint(ty)? as i64)
    }
    fn bytes(&mut self, _: &FieldType) -> Result<&[u8]> {
        self.blob()
    }
    fn str(&mut self, _: &FieldType) -> Result<&str> {
        std::str::from_utf8(self.blob()?).map_err(|_| err("invalid UTF-8"))
    }
    fn bits(&mut self, _: &FieldType) -> Result<Vec<bool>> {
        let body = self.blob()?;
        let mut at = 0;
        let nbits = read_varint(body, &mut at).map_err(err)? as usize;
        let packed = body
            .get(at..)
            .filter(|packed| packed.len() >= nbits.div_ceil(8))
            .ok_or_else(|| err("truncated bytes"))?;
        Ok(unpack_bits(nbits, packed))
    }
    fn begin_list(&mut self, _: &FieldType) -> Result<usize> {
        self.open(|body| Open::List { body })?;
        Ok(self.varint()? as usize)
    }
    fn end_list(&mut self) -> Result<()> {
        self.close()?;
        self.done()
    }
    fn choice(&mut self, ty: &FieldType) -> Result<u32> {
        self.open(|body| Open::Choice { body })?;
        let index = self.varint()?;
        u32::try_from(index)
            .ok()
            .filter(|&index| ty.variant(index).is_ok())
            .ok_or_else(|| err(format!("choice index {index} out of range")))
    }
}

impl WireFormat for ProtoLike {
    fn name(&self) -> &'static str {
        NAME
    }

    fn encode_with(
        &self,
        _: &Schema,
        out: &mut Vec<u8>,
        put: &mut dyn FnMut(&mut dyn FieldSink) -> Result<()>,
    ) -> Result<()> {
        fresh(out, |out| {
            put(&mut Sink {
                out,
                open: Vec::new(),
            })
        })
    }

    fn decode_with(
        &self,
        _: &Schema,
        bytes: &[u8],
        take: &mut dyn FnMut(&mut dyn FieldSource) -> Result<()>,
    ) -> Result<()> {
        take(&mut Source {
            buf: bytes,
            pos: 0,
            open: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Variant;
    use crate::tree::{choice, decode, encode, none, some, Tree};
    use std::sync::Arc;

    fn round_trip(schema: &Schema, value: &Tree) -> Vec<u8> {
        let codec = ProtoLike::new();
        let mut buf = Vec::new();
        encode(&codec, schema, value, &mut buf).unwrap();
        let back = decode(&codec, schema, &buf).unwrap();
        assert_eq!(&back, value);
        buf
    }

    #[test]
    fn varint_encoding_is_compact_for_small_values() {
        let schema = StructSchema::builder("S")
            .field("x", FieldType::UInt { bits: 64 })
            .build();
        let buf = round_trip(&schema, &Tree::Struct(vec![Tree::U64(5)]));
        assert_eq!(buf.len(), 2); // tag + single varint byte
    }

    #[test]
    fn zigzag_round_trips_negatives() {
        let schema = StructSchema::builder("S")
            .field("x", FieldType::Int)
            .build();
        round_trip(&schema, &Tree::Struct(vec![Tree::I64(-123456)]));
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
        let absent = Tree::Struct(vec![none(), Tree::U64(7)]);
        let buf = round_trip(&schema, &absent);
        // Only field 2 encoded: tag + varint.
        assert_eq!(buf.len(), 2);
        round_trip(
            &schema,
            &Tree::Struct(vec![some(Tree::U64(1)), Tree::U64(7)]),
        );
    }

    #[test]
    fn fields_are_read_in_field_number_order() {
        let schema = StructSchema::builder("S")
            .field("a", FieldType::UInt { bits: 32 })
            .field("b", FieldType::UInt { bits: 32 })
            .build();
        let in_order = [0x08, 1, 0x10, 7];
        assert_eq!(
            decode(&ProtoLike, &schema, &in_order).unwrap(),
            Tree::Struct(vec![Tree::U64(1), Tree::U64(7)])
        );
        assert!(decode(&ProtoLike, &schema, &[0x10, 7, 0x08, 1]).is_err());
        assert!(decode(&ProtoLike, &schema, &[0x08, 1, 0x08, 1, 0x10, 7]).is_err());
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
        let v = Tree::Struct(vec![
            Tree::List(vec![
                Tree::Struct(vec![Tree::U64(1), Tree::Str("a".into())]),
                Tree::Struct(vec![Tree::U64(2), Tree::Str("b".into())]),
            ]),
            Tree::List(vec![Tree::U64(100), Tree::U64(200), Tree::U64(300)]),
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
        round_trip(&schema, &Tree::Struct(vec![choice(0, Tree::U64(77))]));
        round_trip(
            &schema,
            &Tree::Struct(vec![choice(1, Tree::Str("imsi-string".into()))]),
        );
    }

    #[test]
    fn truncation_and_garbage_are_errors() {
        let schema = StructSchema::builder("S")
            .field("s", FieldType::Utf8 { max: None })
            .build();
        let codec = ProtoLike::new();
        let mut buf = Vec::new();
        encode(
            &codec,
            &schema,
            &Tree::Struct(vec![Tree::Str("payload".into())]),
            &mut buf,
        )
        .unwrap();
        for cut in 1..buf.len() {
            assert!(decode(&codec, &schema, &buf[..cut]).is_err());
        }
        assert!(decode(&codec, &schema, &[0xFF; 16]).is_err());
    }
}
