//! A FlatBuffers-like zero-copy format ("fastbuf") and the paper's
//! **svtable** optimization (§4.4).
//!
//! # Layout
//!
//! Little-endian throughout. A message is:
//!
//! ```text
//! [u32 root]            absolute offset of the root table
//! ...child data...      strings, vectors, sub-tables (written first)
//! [vtable][table]       per table: vtable then the table itself
//! ```
//!
//! A *table* starts with an `i32` soffset back to its vtable, followed by
//! field slots. A *vtable* is `u16 vtable_size, u16 table_size,
//! u16 slot_offset × n` where a zero slot offset means "field absent" —
//! exactly FlatBuffers' scheme, and the metadata the paper measures against
//! ASN.1's length-value encoding in Fig. 20. Scalars live inline in the
//! table at their natural alignment; strings, byte blobs, vectors and
//! sub-tables live out-of-line behind `u32` offsets.
//!
//! # Unions and the svtable
//!
//! Like FlatBuffers, a union (our [`FieldType::Choice`]) occupies two slots:
//! a `u8` tag and a `u32` offset. Standard FlatBuffers requires union
//! members to be *tables*, so a union whose payload is one scalar must wrap
//! it in a single-field table — costing a 6-byte vtable, 2 bytes of
//! alignment padding, and a 4-byte soffset. The paper's svtable replaces the
//! wrapper with a 2-byte marker followed directly by the payload:
//!
//! * single **scalar** payload: 16 bytes → 6 bytes (**−10**, the paper's
//!   number);
//! * single **variable-length** payload: the wrapper *and* its extra `u32`
//!   indirection disappear (**−14**).
//!
//! [`Fastbuf::standard`] and [`Fastbuf::optimized`] select the two modes;
//! both read paths are supported by the decoder of the mode that wrote them.
//!
//! # Access path
//!
//! [`WireFormat::traverse`] for fastbuf does **no allocation**: it walks the
//! encoded buffer through vtable offsets (the "direct access to inner fields
//! via pointers" property of §4.4). Full [`WireFormat::decode`] into an
//! owned tree exists for round-trip testing and interop.
//!
//! # One writer, one reader
//!
//! The codec is a field sink and a field source ([`crate::sink`]). A typed
//! message streams into and out of the image through them
//! ([`WireFormat::encode_with`] / [`WireFormat::decode_with`]); `encode` /
//! `decode` drive the same two from a [`Value`] by schema, and `traverse`
//! is the source's walk with a checksum fold in place of a builder.

use crate::sink::{FieldSink, FieldSource};
use crate::value::{put_value, take_value, FieldType, Schema, StructSchema, Value};
use crate::WireFormat;
use neutrino_common::{Error, Result};
use std::cell::Cell;

const NAME_STD: &str = "fastbuf";
const NAME_OPT: &str = "fastbuf-opt";

/// Marker tag that introduces an svtable-encoded scalar union payload.
const SVTABLE_SCALAR: u16 = 0xFB01;
/// Marker tag that introduces an svtable-encoded variable-length payload.
const SVTABLE_VARLEN: u16 = 0xFB02;

/// The fastbuf codec. Construct via [`Fastbuf::standard`] or
/// [`Fastbuf::optimized`].
#[derive(Debug, Clone, Copy)]
pub struct Fastbuf {
    svtable: bool,
}

impl Fastbuf {
    /// Standard FlatBuffers-like layout (unions wrap single fields in
    /// tables).
    pub const fn standard() -> Self {
        Fastbuf { svtable: false }
    }

    /// With the paper's svtable optimization for single-field unions.
    pub const fn optimized() -> Self {
        Fastbuf { svtable: true }
    }
}

fn err(detail: impl Into<String>) -> Error {
    Error::codec("fastbuf", detail.into())
}

/// True when a union variant payload is a "single field" eligible for the
/// svtable optimization (a scalar or one variable-length value — not a
/// composite that genuinely needs a table).
fn is_single_field(ty: &FieldType) -> bool {
    !matches!(
        ty,
        FieldType::Struct(_)
            | FieldType::List { .. }
            | FieldType::Choice(_)
            | FieldType::Optional(_)
    )
}

/// Scalar slot size in bytes, or `None` if the type is stored out-of-line.
fn scalar_size(ty: &FieldType) -> Option<usize> {
    match ty {
        FieldType::Bool => Some(1),
        // A power of two for any width, so a slot aligns with a mask.
        FieldType::UInt { bits } => Some(usize::from(*bits).div_ceil(8).next_power_of_two()),
        FieldType::Int => Some(8),
        FieldType::Constrained { lo, hi } => {
            let range = (*hi as i128 - *lo as i128) as u128;
            Some(match range {
                0..=0xFF => 1,
                0x100..=0xFFFF => 2,
                0x1_0000..=0xFFFF_FFFF => 4,
                _ => 8,
            })
        }
        FieldType::Enum { .. } => Some(4),
        _ => None,
    }
}

/// Number of vtable slots a schema field occupies (unions take two).
fn slot_count(ty: &FieldType) -> usize {
    match ty {
        FieldType::Choice(_) => 2,
        FieldType::Optional(inner) => slot_count(inner),
        _ => 1,
    }
}

/// The raw little-endian carrier of an integer scalar (range-offset for
/// constrained integers). `v` is the value's two's-complement carrier.
fn scalar_raw(ty: &FieldType, v: u64) -> Result<u64> {
    match ty {
        FieldType::UInt { .. } | FieldType::Int | FieldType::Enum { .. } => Ok(v),
        FieldType::Constrained { lo, .. } => Ok(v.wrapping_sub(*lo as u64)),
        ty => Err(err(format!("an integer in a field of type {ty:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// The sink keeps the builder's frame discipline: a table's children are
/// written out of line as they arrive and leave one pending slot each on a
/// shared stack; `end_struct` lays the table out, writes vtable and body
/// after them and truncates the stack back, so nested tables cost no
/// allocation.
struct Sink<'a> {
    buf: &'a mut Vec<u8>,
    svtable: bool,
    /// What is being written; [`Open::Root`] outside the root table.
    open: Open,
    scratch: Scratch,
    /// Where the root table went.
    root: u32,
}

/// Encoder and decoder stacks recycled across messages: they reach
/// steady-state capacity after the first few messages and never allocate
/// again on the hot path.
#[derive(Default)]
struct Scratch {
    /// Pending slots of every open table.
    slots: Vec<Slot>,
    /// Element offsets of every open composite vector.
    offsets: Vec<u32>,
    /// What the value being written is nested in, innermost last.
    outer: Vec<Open>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = const {
        Cell::new(Scratch {
            slots: Vec::new(),
            offsets: Vec::new(),
            outer: Vec::new(),
        })
    };
    /// The decoder's stack of what it has open, recycled the same way.
    static READING: Cell<Vec<Reading>> = const { Cell::new(Vec::new()) };
}

/// What one vtable slot of a table under construction will hold: `size`
/// bytes of `raw` at `size` alignment in the table body, or nothing.
#[derive(Clone, Copy)]
struct Slot {
    raw: u64,
    size: u8,
}

impl Slot {
    const ABSENT: Slot = Slot { raw: 0, size: 0 };

    fn offset(at: u32) -> Slot {
        Slot {
            raw: u64::from(at),
            size: 4,
        }
    }

    fn union_tag(tag: u8) -> Slot {
        Slot {
            raw: u64::from(tag),
            size: 1,
        }
    }
}

/// Rounds `off` up to `size`, a power of two.
fn align_up(off: usize, size: usize) -> usize {
    (off + size - 1) & !(size - 1)
}

/// What the sink is in the middle of writing.
#[derive(Clone, Copy)]
enum Open {
    /// Nothing yet: the next table is the root.
    Root,
    /// A table; its slots start at `frame` on the slot stack.
    Table { frame: usize },
    /// A vector of scalars whose header sits at `at`; elements go inline.
    Scalars { at: usize },
    /// A vector of composites; its offsets start at `frame` on the stack.
    Offsets { frame: usize },
    /// A union slot pair awaiting the payload of the variant tagged `tag`.
    Union { tag: u8 },
}

impl Sink<'_> {
    fn pos(&self) -> usize {
        self.buf.len()
    }

    fn align(&mut self, to: usize) {
        let aligned = align_up(self.buf.len(), to);
        self.buf.resize(aligned, 0);
    }

    fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_raw(&mut self, raw: u64, size: usize) {
        self.buf.extend_from_slice(&raw.to_le_bytes()[..size]);
    }

    /// An out-of-line value now sits at `at`: hands its offset to whatever
    /// holds it.
    fn placed(&mut self, at: usize) -> Result<()> {
        let at = at as u32;
        match self.open {
            Open::Table { .. } => self.scratch.slots.push(Slot::offset(at)),
            Open::Offsets { .. } => self.scratch.offsets.push(at),
            Open::Union { tag } => self.close_union(tag, at)?,
            Open::Scalars { .. } => return Err(err("composite in a scalar vector")),
            Open::Root => self.root = at,
        }
        Ok(())
    }

    /// The union's payload sits at `at`: fills the tag and value slots of
    /// the table the union is a field of.
    fn close_union(&mut self, tag: u8, at: u32) -> Result<()> {
        self.close()?;
        self.scratch.slots.push(Slot::union_tag(tag));
        self.scratch.slots.push(Slot::offset(at));
        Ok(())
    }

    /// Starts writing `inner`, nested in what was being written.
    fn nest(&mut self, inner: Open) {
        self.scratch
            .outer
            .push(std::mem::replace(&mut self.open, inner));
    }

    /// Back to what the value just finished was nested in.
    fn close(&mut self) -> Result<Open> {
        let outer = self.scratch.outer.pop();
        outer
            .map(|outer| std::mem::replace(&mut self.open, outer))
            .ok_or_else(|| err("close without a matching open"))
    }

    fn scalar(&mut self, raw: u64, size: usize) -> Result<()> {
        match self.open {
            Open::Table { .. } => self.scratch.slots.push(Slot {
                raw,
                size: size as u8,
            }),
            Open::Scalars { .. } => self.put_raw(raw, size),
            Open::Union { tag } => {
                let at = if self.svtable {
                    // svtable: 2-byte marker, payload follows directly.
                    self.align(2);
                    let at = self.pos();
                    self.put_u16(SVTABLE_SCALAR);
                    self.put_raw(raw, size);
                    at
                } else {
                    self.wrapper_table(raw, size)
                };
                self.close_union(tag, at as u32)?;
            }
            _ => return Err(err("scalar outside a table, vector or union")),
        }
        Ok(())
    }

    /// A `[u32 len][body]` value: octets, a string, or packed bits (`len`
    /// counts what the type counts, `body` appends the octets).
    fn varlen(&mut self, len: usize, body: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        if let Open::Union { tag } = self.open {
            let at = if self.svtable {
                // Payload inline after the marker: no u32 indirection.
                self.align(2);
                let at = self.pos();
                self.put_u16(SVTABLE_VARLEN);
                self.put_u32(len as u32);
                body(self.buf);
                at
            } else {
                self.align(4);
                let blob = self.pos();
                self.put_u32(len as u32);
                body(self.buf);
                self.wrapper_table(blob as u64, 4)
            };
            return self.close_union(tag, at as u32);
        }
        self.align(4);
        let at = self.pos();
        self.put_u32(len as u32);
        body(self.buf);
        self.placed(at)
    }

    /// Standard FlatBuffers: a union's single field is wrapped in a
    /// one-field table (soffset + slot) with its own vtable — the overhead
    /// the paper's optimization removes. Returns the table's position.
    fn wrapper_table(&mut self, payload: u64, size: usize) -> usize {
        // vtable: one slot at offset 4 (right after the soffset).
        self.align(4);
        let vtable_pos = self.pos();
        self.put_u16(6);
        self.put_u16(4 + size as u16);
        self.put_u16(4);
        self.align(size.max(4));
        let table_pos = self.pos();
        self.put_u32((table_pos - vtable_pos) as u32);
        self.put_raw(payload, size);
        table_pos
    }
}

impl FieldSink for Sink<'_> {
    fn begin_struct(&mut self, _: &StructSchema) -> Result<()> {
        let frame = self.scratch.slots.len();
        self.nest(Open::Table { frame });
        Ok(())
    }

    fn presence(&mut self, _: bool) -> Result<()> {
        Ok(())
    }

    fn optional(&mut self, inner: &FieldType, present: bool) -> Result<()> {
        let Open::Table { .. } = self.open else {
            return Err(err("optional outside a table"));
        };
        if !present {
            for _ in 0..slot_count(inner) {
                self.scratch.slots.push(Slot::ABSENT);
            }
        }
        Ok(())
    }

    /// Writes the table (vtable first, then the body) after the children
    /// already out of line.
    fn end_struct(&mut self) -> Result<()> {
        let Open::Table { frame } = self.close()? else {
            return Err(err("end of a table that is not open"));
        };
        let buf = &mut *self.buf;
        let slots = &self.scratch.slots[frame..];
        // The vtable is 4-aligned so the table that follows lands on its
        // own alignment without depending on buffer position parity. The
        // body is the soffset (4 bytes) then the slots at natural alignment:
        // one pass lays it out and fills the vtable (absent entries stay 0).
        let vtable_pos = align_up(buf.len(), 4);
        let vtable_size = 4 + 2 * slots.len();
        buf.resize(vtable_pos + vtable_size, 0);
        let mut table_size = 4usize;
        let mut max_align = 4usize;
        for (entry, slot) in buf[vtable_pos + 4..].chunks_exact_mut(2).zip(slots) {
            let size = usize::from(slot.size);
            if size != 0 {
                table_size = align_up(table_size, size);
                entry.copy_from_slice(&(table_size as u16).to_le_bytes());
                table_size += size;
                max_align = max_align.max(size);
            }
        }
        if table_size.max(vtable_size) > u16::MAX as usize {
            return Err(err("table exceeds 64KiB"));
        }
        buf[vtable_pos..vtable_pos + 2].copy_from_slice(&(vtable_size as u16).to_le_bytes());
        buf[vtable_pos + 2..vtable_pos + 4].copy_from_slice(&(table_size as u16).to_le_bytes());

        // The body, aligned to its widest scalar (≥4 for the soffset) — the
        // padding FlatBuffers pays and PER does not.
        let table_pos = align_up(buf.len(), max_align);
        buf.resize(table_pos + table_size, 0);
        let body = &mut buf[table_pos..];
        body[..4].copy_from_slice(&((table_pos - vtable_pos) as u32).to_le_bytes());
        let mut off = 4usize;
        for slot in slots {
            let size = usize::from(slot.size);
            if size != 0 {
                off = align_up(off, size);
                body[off..off + size].copy_from_slice(&slot.raw.to_le_bytes()[..size]);
                off += size;
            }
        }
        self.scratch.slots.truncate(frame);
        self.placed(table_pos)
    }

    fn bool(&mut self, v: bool) -> Result<()> {
        self.scalar(u64::from(v), 1)
    }

    fn uint(&mut self, ty: &FieldType, v: u64) -> Result<()> {
        let size = scalar_size(ty).ok_or_else(|| err(format!("{ty:?} is not a scalar")))?;
        self.scalar(scalar_raw(ty, v)?, size)
    }

    fn int(&mut self, ty: &FieldType, v: i64) -> Result<()> {
        self.uint(ty, v as u64)
    }

    fn bytes(&mut self, _: &FieldType, v: &[u8]) -> Result<()> {
        self.varlen(v.len(), |buf| buf.extend_from_slice(v))
    }

    fn str(&mut self, ty: &FieldType, v: &str) -> Result<()> {
        self.bytes(ty, v.as_bytes())
    }

    fn bits(&mut self, _: &FieldType, v: &[bool]) -> Result<()> {
        self.varlen(v.len(), |buf| {
            let start = buf.len();
            buf.resize(start + v.len().div_ceil(8), 0);
            for (i, _) in v.iter().enumerate().filter(|(_, &b)| b) {
                buf[start + i / 8] |= 0x80 >> (i % 8);
            }
        })
    }

    /// Scalar elements are packed inline after the count; composite
    /// elements are written first and the vector stores `u32` offsets.
    fn begin_list(&mut self, ty: &FieldType, len: usize) -> Result<()> {
        let elem = ty.list_elem()?;
        if scalar_size(elem).is_some() {
            self.align(4);
            let at = self.pos();
            self.put_u32(len as u32);
            self.nest(Open::Scalars { at });
        } else {
            let frame = self.scratch.offsets.len();
            self.nest(Open::Offsets { frame });
        }
        Ok(())
    }

    fn end_list(&mut self) -> Result<()> {
        match self.close()? {
            Open::Scalars { at } => self.placed(at),
            Open::Offsets { frame } => {
                self.align(4);
                let at = self.pos();
                self.put_u32((self.scratch.offsets.len() - frame) as u32);
                for off in self.scratch.offsets.drain(frame..) {
                    self.buf.extend_from_slice(&off.to_le_bytes());
                }
                self.placed(at)
            }
            _ => Err(err("end of a vector that is not open")),
        }
    }

    fn choice(&mut self, ty: &FieldType, index: u32) -> Result<()> {
        let variant = ty.variant(index)?;
        if !is_single_field(variant) && !matches!(variant, FieldType::Struct(_)) {
            return Err(err(format!(
                "union variant {variant:?} must be struct or single field"
            )));
        }
        let Open::Table { .. } = self.open else {
            return Err(err("union outside a table"));
        };
        let tag = u8::try_from(index + 1).map_err(|_| err("union tag does not fit a byte"))?;
        self.nest(Open::Union { tag });
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Decoding / zero-copy access
// ---------------------------------------------------------------------------

/// A zero-copy view of an encoded fastbuf table. This is the hot-path access
/// API: field reads are bounds-checked offset jumps, no allocation.
#[derive(Debug, Clone, Copy)]
pub struct FbTable<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Position and declared size of the vtable, read once.
    vt: usize,
    vt_size: usize,
}

impl<'a> FbTable<'a> {
    /// Interprets `buf` as a complete fastbuf message and returns the root
    /// table view.
    pub fn root(buf: &'a [u8]) -> Result<FbTable<'a>> {
        FbTable::at(buf, root_offset(buf)?)
    }

    /// The table whose body starts at `pos`.
    fn at(buf: &'a [u8], pos: usize) -> Result<FbTable<'a>> {
        let soffset = read_u32(buf, pos)? as i32;
        let vt = pos as i64 - i64::from(soffset);
        if vt < 0 || vt as usize >= buf.len() {
            return Err(err("vtable offset out of bounds"));
        }
        let vt = vt as usize;
        let vt_size = read_u16(buf, vt)? as usize;
        Ok(FbTable {
            buf,
            pos,
            vt,
            vt_size,
        })
    }

    /// Absolute buffer position of vtable slot `slot`'s content, or `None`
    /// when the field is absent.
    pub fn slot(&self, slot: usize) -> Result<Option<usize>> {
        let entry_pos = 4 + 2 * slot;
        if entry_pos + 2 > self.vt_size {
            return Ok(None);
        }
        let off = read_u16(self.buf, self.vt + entry_pos)? as usize;
        if off == 0 {
            return Ok(None);
        }
        Ok(Some(self.pos + off))
    }

    /// Reads a scalar slot as its raw (range-offset for constrained) value.
    pub fn scalar(&self, slot: usize, size: usize) -> Result<Option<u64>> {
        match self.slot(slot)? {
            None => Ok(None),
            Some(at) => Ok(Some(read_raw(self.buf, at, size)?)),
        }
    }

    /// Follows an offset slot to an absolute position.
    pub fn offset(&self, slot: usize) -> Result<Option<usize>> {
        match self.slot(slot)? {
            None => Ok(None),
            Some(at) => Ok(Some(read_u32(self.buf, at)? as usize)),
        }
    }
}

/// Where the message's leading word says the root table is.
fn root_offset(buf: &[u8]) -> Result<usize> {
    let root = read_u32(buf, 0)? as usize;
    if root < 4 || root >= buf.len() {
        return Err(err(format!("root offset {root} out of bounds")));
    }
    Ok(root)
}

fn get(buf: &[u8], at: usize, n: usize) -> Result<&[u8]> {
    at.checked_add(n)
        .and_then(|end| buf.get(at..end))
        .ok_or_else(|| err(format!("read of {n} bytes at {at} out of bounds")))
}

fn read_u16(buf: &[u8], at: usize) -> Result<u16> {
    let b = get(buf, at, 2)?;
    Ok(u16::from_le_bytes([b[0], b[1]]))
}

fn read_u32(buf: &[u8], at: usize) -> Result<u32> {
    let b = get(buf, at, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// A little-endian scalar of a slot width: 1, 2, 4 or 8 bytes.
fn read_raw(buf: &[u8], at: usize, size: usize) -> Result<u64> {
    match size {
        1 => Ok(u64::from(get(buf, at, 1)?[0])),
        2 => Ok(u64::from(read_u16(buf, at)?)),
        4 => Ok(u64::from(read_u32(buf, at)?)),
        8 => {
            let b = get(buf, at, 8)?;
            Ok(u64::from_le_bytes([
                b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
            ]))
        }
        _ => Err(err(format!("scalar of {size} bytes"))),
    }
}

/// The decoder mirrors the sink: what it is in the middle of reading says
/// where the next value is — the next slot of a table, the next element of
/// a vector, or a union's payload.
struct Source<'a> {
    buf: &'a [u8],
    svtable: bool,
    reading: Reading,
    /// What `reading` is nested in, innermost last.
    outer: Vec<Reading>,
}

/// What the source is in the middle of reading (positions only, so the
/// stack can be recycled across images).
#[derive(Clone, Copy)]
enum Reading {
    /// Nothing yet: the next struct is the root table.
    Root,
    /// A table, next to read its vtable slot `slot`.
    Table {
        pos: usize,
        vt: usize,
        vt_size: usize,
        slot: usize,
    },
    /// A vector whose next element (a scalar, or a `u32` offset) is at `next`.
    Vector { next: usize },
    /// A union whose payload is at `at`.
    Union { at: usize },
}

impl<'a> Source<'a> {
    /// Sets `inner` as what is being read, inside what was. A union is not
    /// kept: its payload is the one value read inside it.
    fn nest(&mut self, inner: Reading) {
        match std::mem::replace(&mut self.reading, inner) {
            Reading::Union { .. } => {}
            outer => self.outer.push(outer),
        }
    }

    /// Back to what the struct, vector or union payload just read was in.
    fn close(&mut self) -> Result<()> {
        self.reading = self
            .outer
            .pop()
            .ok_or_else(|| err("close without a matching open"))?;
        Ok(())
    }

    /// The position of the open table's next vtable slot, advancing past
    /// it; `None` when the field is absent.
    fn next_slot(&mut self) -> Result<Option<usize>> {
        let buf = self.buf;
        match &mut self.reading {
            &mut Reading::Table {
                pos,
                vt,
                vt_size,
                ref mut slot,
            } => {
                *slot += 1;
                FbTable {
                    buf,
                    pos,
                    vt,
                    vt_size,
                }
                .slot(*slot - 1)
            }
            _ => Err(err("field outside a table")),
        }
    }

    fn required(at: Option<usize>) -> Result<usize> {
        at.ok_or_else(|| err("required field absent"))
    }

    /// The raw value of the next scalar of `size` bytes.
    fn scalar(&mut self, size: usize) -> Result<u64> {
        let at = match &mut self.reading {
            Reading::Table { .. } => Self::required(self.next_slot()?)?,
            Reading::Vector { next } => {
                *next += size;
                *next - size
            }
            &mut Reading::Union { at } => {
                self.close()?;
                if self.svtable {
                    match read_u16(self.buf, at)? {
                        SVTABLE_SCALAR => at + 2,
                        other => return Err(err(format!("bad svtable marker {other:#x}"))),
                    }
                } else {
                    // Wrapper table with one field at slot 0.
                    FbTable::at(self.buf, at)?
                        .slot(0)?
                        .ok_or_else(|| err("union wrapper missing payload"))?
                }
            }
            Reading::Root => return Err(err("scalar outside a table, vector or union")),
        };
        read_raw(self.buf, at, size)
    }

    /// The position of the next out-of-line value: a table body or the
    /// count word of a blob or vector.
    fn outline(&mut self, varlen: bool) -> Result<usize> {
        match &mut self.reading {
            Reading::Table { .. } => {
                let at = Self::required(self.next_slot()?)?;
                Ok(read_u32(self.buf, at)? as usize)
            }
            Reading::Vector { next } => {
                *next += 4;
                Ok(read_u32(self.buf, *next - 4)? as usize)
            }
            &mut Reading::Union { at } if !varlen => {
                // A composite variant is a genuine table either way; the
                // caller opens it in the union's place.
                Ok(at)
            }
            &mut Reading::Union { at } => {
                self.close()?;
                if self.svtable {
                    match read_u16(self.buf, at)? {
                        SVTABLE_VARLEN => Ok(at + 2),
                        other => Err(err(format!("bad svtable marker {other:#x}"))),
                    }
                } else {
                    FbTable::at(self.buf, at)?
                        .offset(0)?
                        .ok_or_else(|| err("union wrapper missing payload"))
                }
            }
            Reading::Root => root_offset(self.buf),
        }
    }

    /// The count word and body position of the next blob.
    fn varlen(&mut self) -> Result<(usize, usize)> {
        let at = self.outline(true)?;
        Ok((read_u32(self.buf, at)? as usize, at + 4))
    }

    /// The next octet string or string, as it lies in the image.
    fn blob(&mut self) -> Result<&'a [u8]> {
        let (len, at) = self.varlen()?;
        get(self.buf, at, len)
    }

    /// The next bit string: its bit count and the octets packing them.
    fn packed_bits(&mut self) -> Result<(usize, &'a [u8])> {
        let (len, at) = self.varlen()?;
        Ok((len, get(self.buf, at, len.div_ceil(8))?))
    }
}

impl FieldSource for Source<'_> {
    fn begin_struct(&mut self, _: &StructSchema) -> Result<()> {
        let at = self.outline(false)?;
        let FbTable {
            pos, vt, vt_size, ..
        } = FbTable::at(self.buf, at)?;
        self.nest(Reading::Table {
            pos,
            vt,
            vt_size,
            slot: 0,
        });
        Ok(())
    }

    fn presence(&mut self) -> Result<bool> {
        Ok(true)
    }

    fn optional(&mut self, inner: &FieldType, _: bool) -> Result<bool> {
        let &mut Reading::Table {
            pos,
            vt,
            vt_size,
            ref mut slot,
        } = &mut self.reading
        else {
            return Err(err("optional outside a table"));
        };
        let table = FbTable {
            buf: self.buf,
            pos,
            vt,
            vt_size,
        };
        let slots = slot_count(inner);
        let mut present = 0;
        for s in *slot..*slot + slots {
            present += usize::from(table.slot(s)?.is_some());
        }
        if present == 0 {
            // Absent: step over its slots.
            *slot += slots;
            Ok(false)
        } else if present == slots {
            Ok(true)
        } else {
            Err(err("union tag/payload slots inconsistent"))
        }
    }

    fn end_struct(&mut self) -> Result<()> {
        self.close()
    }

    fn bool(&mut self) -> Result<bool> {
        Ok(self.scalar(1)? != 0)
    }

    fn uint(&mut self, ty: &FieldType) -> Result<u64> {
        let size = scalar_size(ty).ok_or_else(|| err(format!("{ty:?} is not a scalar")))?;
        let raw = self.scalar(size)?;
        Ok(match ty {
            FieldType::Constrained { lo, .. } => raw.wrapping_add(*lo as u64),
            _ => raw,
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
        let (len, packed) = self.packed_bits()?;
        Ok((0..len)
            .map(|i| packed[i / 8] & (0x80 >> (i % 8)) != 0)
            .collect())
    }

    fn begin_list(&mut self, ty: &FieldType) -> Result<usize> {
        let elem = ty.list_elem()?;
        let at = self.outline(false)?;
        let count = read_u32(self.buf, at)? as usize;
        // A corrupted count must not drive allocation: the elements cannot
        // occupy more bytes than the buffer holds.
        let elem_bytes = scalar_size(elem).unwrap_or(4);
        if count.saturating_mul(elem_bytes) > self.buf.len() {
            return Err(err(format!("vector count {count} exceeds buffer")));
        }
        self.nest(Reading::Vector { next: at + 4 });
        Ok(count)
    }

    fn end_list(&mut self) -> Result<()> {
        self.close()
    }

    fn choice(&mut self, ty: &FieldType) -> Result<u32> {
        let tag = self.next_slot()?;
        let payload = self.next_slot()?;
        let (Some(tag), Some(payload)) = (tag, payload) else {
            return Err(err("union tag/payload slots inconsistent"));
        };
        let index = (read_raw(self.buf, tag, 1)? as u32)
            .checked_sub(1)
            .ok_or_else(|| err("union tag/payload slots inconsistent"))?;
        ty.variant(index)
            .map_err(|_| err(format!("union tag {index} out of range")))?;
        let at = read_u32(self.buf, payload)? as usize;
        self.nest(Reading::Union { at });
        Ok(index)
    }
}

/// The checksum fold of [`crate::checksum_value`].
fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(27)
}

/// The zero-copy traversal: the same walk `take` drives, folding each
/// field into the checksum where it lies instead of building anything.
impl Source<'_> {
    fn checksum_struct(&mut self, schema: &StructSchema) -> Result<u64> {
        self.begin_struct(schema)?;
        let mut h = 7u64;
        for def in &schema.fields {
            h = mix(h, self.checksum_field(&def.ty)?);
        }
        self.end_struct()?;
        Ok(h)
    }

    fn checksum_field(&mut self, ty: &FieldType) -> Result<u64> {
        let bytes = |tag, bytes: &[u8]| bytes.iter().fold(tag, |h, &b| mix(h, u64::from(b)));
        Ok(match ty {
            FieldType::Bool => mix(1, u64::from(self.bool()?)),
            FieldType::Constrained { lo, .. } if *lo < 0 => mix(3, self.uint(ty)?),
            FieldType::UInt { .. } | FieldType::Enum { .. } | FieldType::Constrained { .. } => {
                mix(2, self.uint(ty)?)
            }
            FieldType::Int => mix(3, self.uint(ty)?),
            FieldType::Bytes { .. } => bytes(4, self.blob()?),
            FieldType::Utf8 { .. } => bytes(5, self.blob()?),
            FieldType::BitString { .. } => {
                let (len, packed) = self.packed_bits()?;
                (0..len).fold(6, |h, i| {
                    mix(h, u64::from(packed[i / 8] & (0x80 >> (i % 8)) != 0))
                })
            }
            FieldType::Struct(schema) => self.checksum_struct(schema)?,
            FieldType::List { elem, .. } => {
                let mut h = 8u64;
                for _ in 0..self.begin_list(ty)? {
                    h = mix(h, self.checksum_field(elem)?);
                }
                self.end_list()?;
                h
            }
            FieldType::Choice(_) => {
                let index = self.choice(ty)?;
                mix(
                    mix(9, u64::from(index)),
                    self.checksum_field(ty.variant(index)?)?,
                )
            }
            FieldType::Optional(inner) => {
                if self.optional(inner, true)? {
                    mix(11, self.checksum_field(inner)?)
                } else {
                    10
                }
            }
        })
    }
}

impl WireFormat for Fastbuf {
    fn name(&self) -> &'static str {
        if self.svtable {
            NAME_OPT
        } else {
            NAME_STD
        }
    }

    fn encode(&self, schema: &Schema, value: &Value, out: &mut Vec<u8>) -> Result<()> {
        self.with_sink(out, |sink| put_value(schema, value, sink))
    }

    fn decode(&self, schema: &Schema, bytes: &[u8]) -> Result<Value> {
        self.with_source(bytes, |src| take_value(schema, src))
    }

    fn encode_with(
        &self,
        _: &Schema,
        out: &mut Vec<u8>,
        put: &mut dyn FnMut(&mut dyn FieldSink) -> Result<()>,
    ) -> Result<()> {
        self.with_sink(out, |sink| put(sink))
    }

    fn decode_with(
        &self,
        _: &Schema,
        bytes: &[u8],
        take: &mut dyn FnMut(&mut dyn FieldSource) -> Result<()>,
    ) -> Result<()> {
        self.with_source(bytes, |src| take(src))
    }

    fn traverse(&self, schema: &Schema, bytes: &[u8]) -> Result<u64> {
        self.with_source(bytes, |src| src.checksum_struct(schema))
    }
}

impl Fastbuf {
    /// Runs `put` over a sink building the message in the emptied `out`
    /// (left empty if `put` fails), its stacks this thread's recycled ones.
    fn with_sink(
        &self,
        out: &mut Vec<u8>,
        put: impl FnOnce(&mut Sink<'_>) -> Result<()>,
    ) -> Result<()> {
        out.clear();
        out.reserve(256);
        out.extend_from_slice(&[0; 4]); // root placeholder
        let mut scratch = SCRATCH.with(Cell::take);
        scratch.slots.clear();
        scratch.offsets.clear();
        scratch.outer.clear();
        let mut sink = Sink {
            buf: out,
            svtable: self.svtable,
            open: Open::Root,
            scratch,
            root: 0,
        };
        let written = put(&mut sink);
        let root = sink.root;
        SCRATCH.with(|s| s.set(sink.scratch));
        match written {
            Ok(()) => out[..4].copy_from_slice(&root.to_le_bytes()),
            Err(_) => out.clear(),
        }
        written
    }

    /// Runs `f` over a source on `bytes`, its stack this thread's recycled one.
    fn with_source<R>(&self, bytes: &[u8], f: impl FnOnce(&mut Source<'_>) -> R) -> R {
        let mut outer = READING.with(Cell::take);
        outer.clear();
        let mut src = Source {
            buf: bytes,
            svtable: self.svtable,
            reading: Reading::Root,
            outer,
        };
        let out = f(&mut src);
        READING.with(|s| s.set(src.outer));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{FieldDef, Variant};
    use std::sync::Arc;

    fn round_trip(codec: &Fastbuf, schema: &Schema, value: &Value) -> Vec<u8> {
        let mut buf = Vec::new();
        codec.encode(schema, value, &mut buf).unwrap();
        let back = codec.decode(schema, &buf).unwrap();
        assert_eq!(&back, value, "round trip mismatch ({})", codec.name());
        buf
    }

    fn both() -> [Fastbuf; 2] {
        [Fastbuf::standard(), Fastbuf::optimized()]
    }

    fn scalar_schema() -> Schema {
        StructSchema::builder("Scalars")
            .field("b", FieldType::Bool)
            .field("u8", FieldType::UInt { bits: 8 })
            .field("u16", FieldType::UInt { bits: 16 })
            .field("u32", FieldType::UInt { bits: 32 })
            .field("u64", FieldType::UInt { bits: 64 })
            .field("i", FieldType::Int)
            .field("e", FieldType::Enum { variants: 5 })
            .field("c", FieldType::Constrained { lo: -50, hi: 1000 })
            .build()
    }

    fn scalar_value() -> Value {
        Value::Struct(vec![
            Value::Bool(true),
            Value::U64(200),
            Value::U64(60_000),
            Value::U64(4_000_000_000),
            Value::U64(1 << 60),
            Value::I64(-12345),
            Value::U64(4),
            Value::I64(-7),
        ])
    }

    #[test]
    fn scalars_round_trip_both_modes() {
        for codec in both() {
            round_trip(&codec, &scalar_schema(), &scalar_value());
        }
    }

    #[test]
    fn strings_vectors_and_nested_tables() {
        let inner = Arc::new(
            StructSchema::builder("Bearer")
                .field("id", FieldType::UInt { bits: 8 })
                .field("name", FieldType::Utf8 { max: None })
                .build(),
        );
        let schema = StructSchema::builder("Msg")
            .field("blob", FieldType::Bytes { max: None })
            .field(
                "ids",
                FieldType::List {
                    elem: Box::new(FieldType::UInt { bits: 32 }),
                    max: None,
                },
            )
            .field(
                "bearers",
                FieldType::List {
                    elem: Box::new(FieldType::Struct(inner.clone())),
                    max: None,
                },
            )
            .field("nested", FieldType::Struct(inner))
            .build();
        let v = Value::Struct(vec![
            Value::Bytes(vec![1, 2, 3, 4, 5]),
            Value::List(vec![Value::U64(10), Value::U64(20), Value::U64(30)]),
            Value::List(vec![
                Value::Struct(vec![Value::U64(1), Value::Str("default".into())]),
                Value::Struct(vec![Value::U64(2), Value::Str("voice".into())]),
            ]),
            Value::Struct(vec![Value::U64(9), Value::Str("video".into())]),
        ]);
        for codec in both() {
            round_trip(&codec, &schema, &v);
        }
    }

    #[test]
    fn optional_fields_absent_and_present() {
        let schema = StructSchema::builder("Opt")
            .field(
                "a",
                FieldType::Optional(Box::new(FieldType::UInt { bits: 32 })),
            )
            .field(
                "s",
                FieldType::Optional(Box::new(FieldType::Utf8 { max: None })),
            )
            .field("req", FieldType::Bool)
            .build();
        for codec in both() {
            round_trip(
                &codec,
                &schema,
                &Value::Struct(vec![Value::none(), Value::none(), Value::Bool(true)]),
            );
            round_trip(
                &codec,
                &schema,
                &Value::Struct(vec![
                    Value::some(Value::U64(7)),
                    Value::some(Value::Str("hi".into())),
                    Value::Bool(false),
                ]),
            );
        }
    }

    fn union_schema() -> Schema {
        StructSchema::builder("WithUnion")
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
                    Variant {
                        name: "ctx".into(),
                        ty: FieldType::Struct(Arc::new(StructSchema {
                            name: "Ctx".into(),
                            fields: vec![
                                FieldDef {
                                    name: "a".into(),
                                    ty: FieldType::UInt { bits: 16 },
                                },
                                FieldDef {
                                    name: "b".into(),
                                    ty: FieldType::UInt { bits: 16 },
                                },
                            ],
                        })),
                    },
                ]),
            )
            .build()
    }

    #[test]
    fn unions_round_trip_all_variant_kinds() {
        let schema = union_schema();
        let cases = [
            Value::Struct(vec![Value::choice(0, Value::U64(0xAABB_CCDD))]),
            Value::Struct(vec![Value::choice(1, Value::Str("001010123456789".into()))]),
            Value::Struct(vec![Value::choice(
                2,
                Value::Struct(vec![Value::U64(1), Value::U64(2)]),
            )]),
        ];
        for codec in both() {
            for v in &cases {
                round_trip(&codec, &schema, v);
            }
        }
    }

    /// Builds a schema with `n` scalar-union fields and the matching value.
    fn n_union_message(n: usize, varlen: bool) -> (Schema, Value) {
        let mut b = StructSchema::builder("NUnions");
        for i in 0..n {
            b = b.field(
                format!("u{i}"),
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
            );
        }
        let fields = (0..n)
            .map(|_| {
                if varlen {
                    Value::choice(1, Value::Str("001010123456".into()))
                } else {
                    Value::choice(0, Value::U64(0xAABB_CCDD))
                }
            })
            .collect();
        (b.build(), Value::Struct(fields))
    }

    fn size_delta(n: usize, varlen: bool) -> usize {
        let (schema, v) = n_union_message(n, varlen);
        let mut std_buf = Vec::new();
        let mut opt_buf = Vec::new();
        Fastbuf::standard()
            .encode(&schema, &v, &mut std_buf)
            .unwrap();
        Fastbuf::optimized()
            .encode(&schema, &v, &mut opt_buf)
            .unwrap();
        std_buf.len() - opt_buf.len()
    }

    #[test]
    fn svtable_saves_ten_bytes_per_scalar_union() {
        // The paper's −10 B is the per-union metadata reduction; a single
        // message can absorb up to 2 bytes in alignment-padding parity, so
        // assert the exact marginal saving across growing union counts and
        // a ≥8 B absolute saving on one union.
        let marginal = size_delta(3, false) - size_delta(1, false);
        assert_eq!(marginal, 20, "2 extra scalar unions must save 2×10 bytes");
        assert!(size_delta(1, false) >= 8);
    }

    #[test]
    fn svtable_saves_fourteen_bytes_per_varlen_union() {
        let marginal = size_delta(3, true) - size_delta(1, true);
        assert_eq!(marginal, 28, "2 extra varlen unions must save 2×14 bytes");
        assert!(size_delta(1, true) >= 12);
    }

    #[test]
    fn struct_variant_unions_cost_the_same_in_both_modes() {
        let schema = union_schema();
        let v = Value::Struct(vec![Value::choice(
            2,
            Value::Struct(vec![Value::U64(1), Value::U64(2)]),
        )]);
        let mut std_buf = Vec::new();
        let mut opt_buf = Vec::new();
        Fastbuf::standard()
            .encode(&schema, &v, &mut std_buf)
            .unwrap();
        Fastbuf::optimized()
            .encode(&schema, &v, &mut opt_buf)
            .unwrap();
        assert_eq!(std_buf.len(), opt_buf.len());
    }

    #[test]
    fn traverse_matches_decode_checksum() {
        let inner = Arc::new(
            StructSchema::builder("Inner")
                .field("x", FieldType::Constrained { lo: 0, hi: 300 })
                .field("bits", FieldType::BitString { max_bits: None })
                .build(),
        );
        let schema = StructSchema::builder("T")
            .field("u", FieldType::UInt { bits: 32 })
            .field("s", FieldType::Utf8 { max: None })
            .field(
                "opt",
                FieldType::Optional(Box::new(FieldType::UInt { bits: 16 })),
            )
            .field("inner", FieldType::Struct(inner))
            .field(
                "ch",
                FieldType::Choice(vec![
                    Variant {
                        name: "n".into(),
                        ty: FieldType::UInt { bits: 64 },
                    },
                    Variant {
                        name: "s".into(),
                        ty: FieldType::Bytes { max: None },
                    },
                ]),
            )
            .build();
        let v = Value::Struct(vec![
            Value::U64(1234),
            Value::Str("tracking".into()),
            Value::none(),
            Value::Struct(vec![
                Value::U64(250),
                Value::Bits(vec![true, false, true, true, false]),
            ]),
            Value::choice(1, Value::Bytes(vec![9, 8, 7])),
        ]);
        for codec in both() {
            let mut buf = Vec::new();
            codec.encode(&schema, &v, &mut buf).unwrap();
            let via_decode = crate::checksum_value(&codec.decode(&schema, &buf).unwrap());
            let via_traverse = codec.traverse(&schema, &buf).unwrap();
            assert_eq!(via_decode, via_traverse, "mode {}", codec.name());
            assert_eq!(via_decode, crate::checksum_value(&v));
        }
    }

    #[test]
    fn corrupt_buffers_error_instead_of_panicking() {
        let schema = scalar_schema();
        let v = scalar_value();
        let codec = Fastbuf::standard();
        let mut buf = Vec::new();
        codec.encode(&schema, &v, &mut buf).unwrap();
        for cut in 0..buf.len() {
            let _ = codec.decode(&schema, &buf[..cut]);
            let _ = codec.traverse(&schema, &buf[..cut]);
        }
        // Flip bytes too.
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0xFF;
            let _ = codec.decode(&schema, &bad);
        }
    }

    #[test]
    fn fastbuf_is_larger_than_per_on_the_same_message() {
        // Fig. 20's premise: FB trades size for speed.
        let schema = scalar_schema();
        let v = scalar_value();
        let mut fb = Vec::new();
        let mut per = Vec::new();
        Fastbuf::standard().encode(&schema, &v, &mut fb).unwrap();
        crate::per::Asn1Per::new()
            .encode(&schema, &v, &mut per)
            .unwrap();
        assert!(
            fb.len() > per.len(),
            "fastbuf {} must exceed per {}",
            fb.len(),
            per.len()
        );
    }

    #[test]
    fn zero_copy_view_reads_fields_directly() {
        let schema = StructSchema::builder("V")
            .field("a", FieldType::UInt { bits: 32 })
            .field("b", FieldType::UInt { bits: 8 })
            .build();
        let v = Value::Struct(vec![Value::U64(0xCAFE_F00D), Value::U64(42)]);
        let codec = Fastbuf::standard();
        let mut buf = Vec::new();
        codec.encode(&schema, &v, &mut buf).unwrap();
        let table = FbTable::root(&buf).unwrap();
        assert_eq!(table.scalar(0, 4).unwrap(), Some(0xCAFE_F00D));
        assert_eq!(table.scalar(1, 1).unwrap(), Some(42));
        assert_eq!(table.slot(5).unwrap(), None, "absent slot reads as None");
    }
}
