//! The field sink / source contract: how a typed message streams into a
//! wire image and back out without a [`Value`](crate::value::Value) tree in
//! between.
//!
//! A wire type's generated `put` walks its own fields in schema order and
//! hands each one to a [`FieldSink`]; its `take` asks a [`FieldSource`] for
//! them in the same order. The codecs that run on the live path — PER and
//! both fastbufs — implement the pair directly over the image
//! ([`WireFormat::encode_with`](crate::WireFormat::encode_with) /
//! [`decode_with`](crate::WireFormat::decode_with)); the comparison codecs
//! keep the `Value` model and reach it through
//! [`ValueSink`](crate::value::ValueSink) /
//! [`ValueSource`](crate::value::ValueSource).
//!
//! # Call order
//!
//! ```text
//! struct := begin_struct(schema) presence* field* end_struct
//! field  := value | optional(inner, present) [value]   -- value iff present
//! value  := bool | uint | int | bytes | str | bits | struct | list | choice
//! list   := begin_list(ty, n) elem{n} end_list
//! elem   := value | presence optional(inner, present) [value]
//! choice := choice(ty, index) value
//! ```
//!
//! The writer of a struct — the type's own `put`, at the root as anywhere
//! else — calls `begin_struct`, then `presence` once per OPTIONAL field in
//! schema order, then the fields. The presence pass exists for PER, whose
//! SEQUENCE preamble carries every presence bit before the first field;
//! every other sink ignores it and learns presence from `optional`, at the
//! field's own position. Every leaf call names the field's [`FieldType`]:
//! PER reads the constraint off it, fastbuf the slot width.

use crate::value::{FieldType, StructSchema};
use neutrino_common::Result;

/// What a list reader reserves before the first element arrives: no wire
/// type declares a longer list, and a forged count reserves no more.
pub const LIST_RESERVE: usize = 16;

/// Struct → image: receives a message field by field.
pub trait FieldSink {
    /// Opens a struct; its `presence` calls and fields follow.
    fn begin_struct(&mut self, schema: &StructSchema) -> Result<()>;
    /// Whether the next OPTIONAL field (in a struct's preamble) or the
    /// OPTIONAL element about to be written is present.
    fn presence(&mut self, present: bool) -> Result<()>;
    /// At the position of an OPTIONAL field or element whose content type
    /// is `inner`: the value follows iff `present`.
    fn optional(&mut self, inner: &FieldType, present: bool) -> Result<()>;
    /// Closes the innermost open struct.
    fn end_struct(&mut self) -> Result<()>;
    /// A `Bool`.
    fn bool(&mut self, v: bool) -> Result<()>;
    /// A `UInt`, `Enum` or non-negative `Constrained`.
    fn uint(&mut self, ty: &FieldType, v: u64) -> Result<()>;
    /// An `Int` or `Constrained`.
    fn int(&mut self, ty: &FieldType, v: i64) -> Result<()>;
    /// A `Bytes`.
    fn bytes(&mut self, ty: &FieldType, v: &[u8]) -> Result<()>;
    /// A `Utf8`.
    fn str(&mut self, ty: &FieldType, v: &str) -> Result<()>;
    /// A `BitString`.
    fn bits(&mut self, ty: &FieldType, v: &[bool]) -> Result<()>;
    /// Opens a `List` of `len` elements.
    fn begin_list(&mut self, ty: &FieldType, len: usize) -> Result<()>;
    /// Closes the innermost open list.
    fn end_list(&mut self) -> Result<()>;
    /// A `Choice` of variant `index`; the variant's value follows.
    fn choice(&mut self, ty: &FieldType, index: u32) -> Result<()>;
}

/// Image → struct: hands a message out field by field, in the order a
/// [`FieldSink`] received it.
pub trait FieldSource {
    /// Opens a struct.
    fn begin_struct(&mut self, schema: &StructSchema) -> Result<()>;
    /// The preamble's (or the coming OPTIONAL element's) presence bit, for
    /// the one codec that has it there; `true` from every other source.
    fn presence(&mut self) -> Result<bool>;
    /// At the position of an OPTIONAL field or element: whether the value
    /// follows. `announced` is what [`presence`](Self::presence) said.
    fn optional(&mut self, inner: &FieldType, announced: bool) -> Result<bool>;
    /// Closes the innermost open struct.
    fn end_struct(&mut self) -> Result<()>;
    /// A `Bool`.
    fn bool(&mut self) -> Result<bool>;
    /// A `UInt`, `Enum` or non-negative `Constrained`.
    fn uint(&mut self, ty: &FieldType) -> Result<u64>;
    /// An `Int` or `Constrained`.
    fn int(&mut self, ty: &FieldType) -> Result<i64>;
    /// A `Bytes`, borrowed from the image.
    fn bytes(&mut self, ty: &FieldType) -> Result<&[u8]>;
    /// A `Utf8`, validated and borrowed from the image.
    fn str(&mut self, ty: &FieldType) -> Result<&str>;
    /// A `BitString`.
    fn bits(&mut self, ty: &FieldType) -> Result<Vec<bool>>;
    /// Opens a `List` and returns its element count. The count is bounded
    /// by what the codec can check cheaply, not by what the image holds:
    /// reserve [`LIST_RESERVE`] at most.
    fn begin_list(&mut self, ty: &FieldType) -> Result<usize>;
    /// Closes the innermost open list.
    fn end_list(&mut self) -> Result<()>;
    /// A `Choice`: the index of the variant whose value follows, checked
    /// against the type's variant list.
    fn choice(&mut self, ty: &FieldType) -> Result<u32>;
}
