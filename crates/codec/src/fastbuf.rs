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

use crate::value::{FieldType, Schema, StructSchema, Value, Variant};
use crate::WireFormat;
use neutrino_common::{Error, Result};

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
        FieldType::UInt { bits } => Some(usize::from(*bits) / 8),
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

/// The raw little-endian carrier of a scalar (range-offset for constrained
/// integers).
fn scalar_raw(ty: &FieldType, value: &Value) -> Result<u64> {
    match (ty, value) {
        (FieldType::Bool, Value::Bool(b)) => Ok(u64::from(*b)),
        (FieldType::UInt { .. }, Value::U64(x)) => Ok(*x),
        (FieldType::Int, Value::I64(x)) => Ok(*x as u64),
        (FieldType::Enum { .. }, Value::U64(x)) => Ok(*x),
        (FieldType::Constrained { lo, .. }, v) => {
            let x = crate::value::integer_carrier(v)
                .ok_or_else(|| err("constrained field is not an integer"))?;
            Ok((x as i128 - *lo as i128) as u64)
        }
        (ty, v) => Err(err(format!("scalar mismatch: {ty:?} vs {v:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

struct Builder {
    buf: Vec<u8>,
    svtable: bool,
    /// Reusable slot scratch shared by nested tables (frame discipline:
    /// each `write_table` call appends its slots, then truncates back).
    slots: Vec<PendingKind>,
    /// Reusable offset scratch for composite vectors.
    vec_offsets: Vec<u32>,
}

thread_local! {
    /// Encoder scratch recycled across messages: the slot stack and vector
    /// offset stack reach steady-state capacity after the first few encodes
    /// and never allocate again on the hot path.
    static SCRATCH: std::cell::Cell<(Vec<PendingKind>, Vec<u32>)> =
        const { std::cell::Cell::new((Vec::new(), Vec::new())) };
}

/// What one vtable slot of a table under construction will hold.
#[derive(Clone, Copy)]
enum PendingKind {
    Absent,
    Scalar { raw: u64, size: u8 },
    Offset(u32),
    UnionTag(u8),
}

impl Builder {
    fn pos(&self) -> usize {
        self.buf.len()
    }

    fn align(&mut self, to: usize) {
        while !self.buf.len().is_multiple_of(to) {
            self.buf.push(0);
        }
    }

    fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    fn put_raw(&mut self, raw: u64, size: usize) {
        let le = raw.to_le_bytes();
        self.buf.extend_from_slice(&le[..size]);
    }

    fn put_scalar(&mut self, ty: &FieldType, value: &Value, size: usize) -> Result<()> {
        let raw = scalar_raw(ty, value)?;
        self.put_raw(raw, size);
        Ok(())
    }

    /// Writes a `[u32 len][bytes]` blob and returns its absolute offset.
    fn write_blob(&mut self, data: &[u8]) -> usize {
        self.align(4);
        let at = self.pos();
        self.put_u32(data.len() as u32);
        self.buf.extend_from_slice(data);
        at
    }

    /// Writes a variable-length value out-of-line, returning its offset.
    fn write_varlen(&mut self, ty: &FieldType, value: &Value) -> Result<usize> {
        match (ty, value) {
            (FieldType::Bytes { .. }, Value::Bytes(bs)) => Ok(self.write_blob(bs)),
            (FieldType::Utf8 { .. }, Value::Str(s)) => Ok(self.write_blob(s.as_bytes())),
            (FieldType::BitString { .. }, Value::Bits(bits)) => {
                let mut packed = vec![0u8; bits.len().div_ceil(8)];
                for (i, &b) in bits.iter().enumerate() {
                    if b {
                        packed[i / 8] |= 0x80 >> (i % 8);
                    }
                }
                self.align(4);
                let at = self.pos();
                self.put_u32(bits.len() as u32);
                self.buf.extend_from_slice(&packed);
                Ok(at)
            }
            (ty, v) => Err(err(format!("varlen mismatch: {ty:?} vs {v:?}"))),
        }
    }

    /// Writes a vector out-of-line and returns its offset. Scalar elements
    /// are packed inline; composite elements are written first and the
    /// vector stores `u32` offsets.
    fn write_list(&mut self, elem: &FieldType, items: &[Value]) -> Result<usize> {
        if let Some(size) = scalar_size(elem) {
            self.align(4);
            let at = self.pos();
            self.put_u32(items.len() as u32);
            for item in items {
                self.put_scalar(elem, item, size)?;
            }
            Ok(at)
        } else {
            let frame = self.vec_offsets.len();
            for item in items {
                let off = self.write_outline(elem, item)? as u32;
                self.vec_offsets.push(off);
            }
            self.align(4);
            let at = self.pos();
            self.put_u32(items.len() as u32);
            for i in frame..self.vec_offsets.len() {
                let off = self.vec_offsets[i];
                self.put_u32(off);
            }
            self.vec_offsets.truncate(frame);
            Ok(at)
        }
    }

    /// Writes any out-of-line value (blob, vector, or table) and returns its
    /// absolute offset.
    fn write_outline(&mut self, ty: &FieldType, value: &Value) -> Result<usize> {
        match ty {
            FieldType::Bytes { .. } | FieldType::Utf8 { .. } | FieldType::BitString { .. } => {
                self.write_varlen(ty, value)
            }
            FieldType::Struct(schema) => self.write_table(schema, value),
            FieldType::List { elem, .. } => match value {
                Value::List(items) => self.write_list(elem, items),
                v => Err(err(format!("expected list, got {v:?}"))),
            },
            ty => Err(err(format!("type {ty:?} is not out-of-line"))),
        }
    }

    /// Writes a union payload and returns the offset the value slot stores.
    fn write_union_payload(&mut self, variant: &Variant, value: &Value) -> Result<usize> {
        if is_single_field(&variant.ty) {
            if self.svtable {
                // svtable: 2-byte marker, payload follows directly.
                if let Some(size) = scalar_size(&variant.ty) {
                    self.align(2);
                    let at = self.pos();
                    self.put_u16(SVTABLE_SCALAR);
                    self.put_scalar(&variant.ty, value, size)?;
                    Ok(at)
                } else {
                    self.align(2);
                    let at = self.pos();
                    self.put_u16(SVTABLE_VARLEN);
                    // Payload written inline (no u32 indirection): len+bytes.
                    match (&variant.ty, value) {
                        (FieldType::Bytes { .. }, Value::Bytes(bs)) => {
                            self.put_u32(bs.len() as u32);
                            self.buf.extend_from_slice(bs);
                        }
                        (FieldType::Utf8 { .. }, Value::Str(s)) => {
                            self.put_u32(s.len() as u32);
                            self.buf.extend_from_slice(s.as_bytes());
                        }
                        (FieldType::BitString { .. }, Value::Bits(bits)) => {
                            let mut packed = vec![0u8; bits.len().div_ceil(8)];
                            for (i, &b) in bits.iter().enumerate() {
                                if b {
                                    packed[i / 8] |= 0x80 >> (i % 8);
                                }
                            }
                            self.put_u32(bits.len() as u32);
                            self.buf.extend_from_slice(&packed);
                        }
                        (ty, v) => {
                            return Err(err(format!("svtable varlen mismatch: {ty:?} vs {v:?}")))
                        }
                    }
                    Ok(at)
                }
            } else {
                // Standard FlatBuffers: wrap the single field in a one-field
                // table (soffset + slot) with its own vtable — the overhead
                // the paper's optimization removes. Written directly, without
                // materializing a wrapper schema.
                let (payload, payload_size) = match scalar_size(&variant.ty) {
                    Some(size) => (scalar_raw(&variant.ty, value)?, size),
                    None => {
                        let off = self.write_varlen(&variant.ty, value)?;
                        (off as u64, 4)
                    }
                };
                // vtable: one slot at offset 4 (right after the soffset).
                self.align(4);
                let vtable_pos = self.pos();
                self.put_u16(6);
                self.put_u16(4 + payload_size as u16);
                self.put_u16(4);
                self.align(payload_size.max(4));
                let table_pos = self.pos();
                let soffset = (table_pos - vtable_pos) as i32;
                self.buf.extend_from_slice(&soffset.to_le_bytes());
                self.put_raw(payload, payload_size);
                Ok(table_pos)
            }
        } else {
            // Composite payload: a genuine table either way.
            match &variant.ty {
                FieldType::Struct(schema) => self.write_table(schema, value),
                ty => Err(err(format!(
                    "union variant {ty:?} must be struct or single field"
                ))),
            }
        }
    }

    /// Writes a table (vtable first, then the table body) and returns the
    /// absolute offset of the table body.
    fn write_table(&mut self, schema: &StructSchema, value: &Value) -> Result<usize> {
        let fields = value
            .as_struct()
            .ok_or_else(|| err(format!("expected struct for {}", schema.name)))?;
        if fields.len() != schema.fields.len() {
            return Err(err(format!("struct {} arity mismatch", schema.name)));
        }

        // Pass 1: write out-of-line children; scalars cannot be written yet
        // (they live in the table body), so record what each slot will hold.
        // Slots live on the builder's shared scratch stack (frame
        // discipline) so nested tables cost no allocation.
        let frame = self.slots.len();

        for (def, val) in schema.fields.iter().zip(fields) {
            let (ty, val): (&FieldType, Option<&Value>) = match (&def.ty, val) {
                (FieldType::Optional(inner), Value::Optional(opt)) => {
                    (inner.as_ref(), opt.as_deref())
                }
                (ty, v) => (ty, Some(v)),
            };
            match val {
                None => {
                    for _ in 0..slot_count(ty) {
                        self.slots.push(PendingKind::Absent);
                    }
                }
                Some(v) => match ty {
                    FieldType::Choice(variants) => {
                        let (index, inner) = match v {
                            Value::Choice { index, value } => (*index, value.as_ref()),
                            v => return Err(err(format!("expected choice, got {v:?}"))),
                        };
                        let variant = variants
                            .get(index as usize)
                            .ok_or_else(|| err(format!("choice index {index} out of range")))?;
                        let off = self.write_union_payload(variant, inner)?;
                        self.slots.push(PendingKind::UnionTag(index as u8 + 1));
                        self.slots.push(PendingKind::Offset(off as u32));
                    }
                    ty if scalar_size(ty).is_some() => {
                        let kind = PendingKind::Scalar {
                            raw: scalar_raw(ty, v)?,
                            size: scalar_size(ty).expect("checked") as u8,
                        };
                        self.slots.push(kind);
                    }
                    ty => {
                        let off = self.write_outline(ty, v)?;
                        self.slots.push(PendingKind::Offset(off as u32));
                    }
                },
            }
        }
        // Pass 2: lay out the table body — soffset (4 bytes) then slots at
        // natural alignment. Slot offsets are derivable from the slot kinds,
        // so no second scratch vector is needed.
        let nslots = self.slots.len() - frame;
        let mut table_off = 4usize;
        let mut max_align = 4usize;
        for i in frame..self.slots.len() {
            match self.slots[i] {
                PendingKind::Absent => {}
                PendingKind::Scalar { size, .. } => {
                    let size = size as usize;
                    table_off = table_off.div_ceil(size) * size;
                    table_off += size;
                    max_align = max_align.max(size);
                }
                PendingKind::Offset(_) => {
                    table_off = table_off.div_ceil(4) * 4;
                    table_off += 4;
                }
                PendingKind::UnionTag(_) => {
                    table_off += 1;
                }
            }
        }
        let table_size = table_off;
        if table_size > u16::MAX as usize {
            self.slots.truncate(frame);
            return Err(err(format!("table {} exceeds 64KiB", schema.name)));
        }

        // Write the vtable (4-aligned so the following table lands on its
        // own alignment without depending on buffer position parity).
        self.align(4);
        let vtable_pos = self.pos();
        self.put_u16((4 + 2 * nslots) as u16);
        self.put_u16(table_size as u16);
        let mut off = 4usize;
        for i in frame..self.slots.len() {
            match self.slots[i] {
                PendingKind::Absent => self.put_u16(0),
                PendingKind::Scalar { size, .. } => {
                    let size = size as usize;
                    off = off.div_ceil(size) * size;
                    self.put_u16(off as u16);
                    off += size;
                }
                PendingKind::Offset(_) => {
                    off = off.div_ceil(4) * 4;
                    self.put_u16(off as u16);
                    off += 4;
                }
                PendingKind::UnionTag(_) => {
                    self.put_u16(off as u16);
                    off += 1;
                }
            }
        }

        // Write the table body, aligned to its widest scalar (≥4 for the
        // soffset) — the padding FlatBuffers pays and PER does not.
        self.align(max_align);
        let table_pos = self.pos();
        let soffset = (table_pos - vtable_pos) as i32;
        self.buf.extend_from_slice(&soffset.to_le_bytes());
        let mut cursor = 4usize;
        for i in frame..self.slots.len() {
            match self.slots[i] {
                PendingKind::Absent => {}
                PendingKind::Scalar { raw, size } => {
                    let size = size as usize;
                    let target = cursor.div_ceil(size) * size;
                    while cursor < target {
                        self.buf.push(0);
                        cursor += 1;
                    }
                    self.put_raw(raw, size);
                    cursor += size;
                }
                PendingKind::Offset(off) => {
                    let target = cursor.div_ceil(4) * 4;
                    while cursor < target {
                        self.buf.push(0);
                        cursor += 1;
                    }
                    self.put_u32(off);
                    cursor += 4;
                }
                PendingKind::UnionTag(tag) => {
                    self.buf.push(tag);
                    cursor += 1;
                }
            }
        }
        while cursor < table_size {
            self.buf.push(0);
            cursor += 1;
        }
        self.slots.truncate(frame);
        Ok(table_pos)
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
}

impl<'a> FbTable<'a> {
    /// Interprets `buf` as a complete fastbuf message and returns the root
    /// table view.
    pub fn root(buf: &'a [u8]) -> Result<FbTable<'a>> {
        let root = read_u32(buf, 0)? as usize;
        if root < 4 || root >= buf.len() {
            return Err(err(format!("root offset {root} out of bounds")));
        }
        Ok(FbTable { buf, pos: root })
    }

    fn vtable(&self) -> Result<usize> {
        let soffset = read_i32(self.buf, self.pos)?;
        let vt = self.pos as i64 - i64::from(soffset);
        if vt < 0 || vt as usize >= self.buf.len() {
            return Err(err("vtable offset out of bounds"));
        }
        Ok(vt as usize)
    }

    /// Absolute buffer position of vtable slot `slot`'s content, or `None`
    /// when the field is absent.
    pub fn slot(&self, slot: usize) -> Result<Option<usize>> {
        let vt = self.vtable()?;
        let vt_size = read_u16(self.buf, vt)? as usize;
        let entry_pos = 4 + 2 * slot;
        if entry_pos + 2 > vt_size {
            return Ok(None);
        }
        let off = read_u16(self.buf, vt + entry_pos)? as usize;
        if off == 0 {
            return Ok(None);
        }
        Ok(Some(self.pos + off))
    }

    /// Reads a scalar slot as its raw (range-offset for constrained) value.
    pub fn scalar(&self, slot: usize, size: usize) -> Result<Option<u64>> {
        match self.slot(slot)? {
            None => Ok(None),
            Some(at) => {
                let bytes = get(self.buf, at, size)?;
                let mut le = [0u8; 8];
                le[..size].copy_from_slice(bytes);
                Ok(Some(u64::from_le_bytes(le)))
            }
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

fn get(buf: &[u8], at: usize, n: usize) -> Result<&[u8]> {
    buf.get(at..at + n)
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

fn read_i32(buf: &[u8], at: usize) -> Result<i32> {
    Ok(read_u32(buf, at)? as i32)
}

struct Reader<'a> {
    buf: &'a [u8],
    svtable: bool,
}

impl<'a> Reader<'a> {
    fn scalar_to_value(&self, ty: &FieldType, raw: u64, size: usize) -> Result<Value> {
        Ok(match ty {
            FieldType::Bool => Value::Bool(raw != 0),
            FieldType::UInt { .. } => Value::U64(raw),
            FieldType::Int => Value::I64(sign_extend(raw, size)),
            FieldType::Enum { .. } => Value::U64(raw),
            FieldType::Constrained { lo, .. } => {
                let v = *lo as i128 + raw as i128;
                if *lo >= 0 {
                    Value::U64(v as u64)
                } else {
                    Value::I64(v as i64)
                }
            }
            ty => return Err(err(format!("{ty:?} is not a scalar"))),
        })
    }

    fn read_varlen(&self, ty: &FieldType, at: usize) -> Result<Value> {
        let len = read_u32(self.buf, at)? as usize;
        match ty {
            FieldType::Bytes { .. } => Ok(Value::Bytes(get(self.buf, at + 4, len)?.to_vec())),
            FieldType::Utf8 { .. } => {
                let bytes = get(self.buf, at + 4, len)?;
                Ok(Value::Str(
                    std::str::from_utf8(bytes)
                        .map_err(|_| err("invalid UTF-8"))?
                        .to_owned(),
                ))
            }
            FieldType::BitString { .. } => {
                let packed = get(self.buf, at + 4, len.div_ceil(8))?;
                let bits = (0..len)
                    .map(|i| packed[i / 8] & (0x80 >> (i % 8)) != 0)
                    .collect();
                Ok(Value::Bits(bits))
            }
            ty => Err(err(format!("{ty:?} is not variable-length"))),
        }
    }

    fn read_outline(&self, ty: &FieldType, at: usize) -> Result<Value> {
        match ty {
            FieldType::Bytes { .. } | FieldType::Utf8 { .. } | FieldType::BitString { .. } => {
                self.read_varlen(ty, at)
            }
            FieldType::Struct(schema) => self.read_table(
                schema,
                FbTable {
                    buf: self.buf,
                    pos: at,
                },
            ),
            FieldType::List { elem, .. } => {
                let count = read_u32(self.buf, at)? as usize;
                // A corrupted count must not drive allocation: the elements
                // cannot occupy more bytes than the buffer holds.
                let elem_bytes = scalar_size(elem).unwrap_or(4);
                if count.saturating_mul(elem_bytes) > self.buf.len() {
                    return Err(err(format!("vector count {count} exceeds buffer")));
                }
                let mut items = Vec::with_capacity(count);
                if let Some(size) = scalar_size(elem) {
                    for i in 0..count {
                        let bytes = get(self.buf, at + 4 + i * size, size)?;
                        let mut le = [0u8; 8];
                        le[..size].copy_from_slice(bytes);
                        items.push(self.scalar_to_value(elem, u64::from_le_bytes(le), size)?);
                    }
                } else {
                    for i in 0..count {
                        let off = read_u32(self.buf, at + 4 + i * 4)? as usize;
                        items.push(self.read_outline(elem, off)?);
                    }
                }
                Ok(Value::List(items))
            }
            ty => Err(err(format!("{ty:?} is not out-of-line"))),
        }
    }

    fn read_union_payload(&self, variant: &Variant, at: usize) -> Result<Value> {
        if is_single_field(&variant.ty) {
            if self.svtable {
                let marker = read_u16(self.buf, at)?;
                match marker {
                    SVTABLE_SCALAR => {
                        let size = scalar_size(&variant.ty)
                            .ok_or_else(|| err("svtable scalar marker on varlen payload"))?;
                        let bytes = get(self.buf, at + 2, size)?;
                        let mut le = [0u8; 8];
                        le[..size].copy_from_slice(bytes);
                        self.scalar_to_value(&variant.ty, u64::from_le_bytes(le), size)
                    }
                    SVTABLE_VARLEN => self.read_varlen(&variant.ty, at + 2),
                    other => Err(err(format!("bad svtable marker {other:#x}"))),
                }
            } else {
                // Wrapper table with one field at slot 0.
                let table = FbTable {
                    buf: self.buf,
                    pos: at,
                };
                if let Some(size) = scalar_size(&variant.ty) {
                    let raw = table
                        .scalar(0, size)?
                        .ok_or_else(|| err("union wrapper missing payload"))?;
                    self.scalar_to_value(&variant.ty, raw, size)
                } else {
                    let off = table
                        .offset(0)?
                        .ok_or_else(|| err("union wrapper missing payload"))?;
                    self.read_varlen(&variant.ty, off)
                }
            }
        } else {
            match &variant.ty {
                FieldType::Struct(schema) => self.read_table(
                    schema,
                    FbTable {
                        buf: self.buf,
                        pos: at,
                    },
                ),
                ty => Err(err(format!("union variant {ty:?} unsupported"))),
            }
        }
    }

    fn read_table(&self, schema: &StructSchema, table: FbTable<'a>) -> Result<Value> {
        let mut fields = Vec::with_capacity(schema.fields.len());
        let mut slot = 0usize;
        for def in &schema.fields {
            let (ty, optional) = match &def.ty {
                FieldType::Optional(inner) => (inner.as_ref(), true),
                ty => (ty, false),
            };
            let value = match ty {
                FieldType::Choice(variants) => {
                    let tag = table.scalar(slot, 1)?;
                    let payload = table.offset(slot + 1)?;
                    slot += 2;
                    match (tag, payload) {
                        (Some(tag), Some(at)) if tag > 0 => {
                            let index = (tag - 1) as u32;
                            let variant = variants
                                .get(index as usize)
                                .ok_or_else(|| err(format!("union tag {index} out of range")))?;
                            Some(Value::Choice {
                                index,
                                value: Box::new(self.read_union_payload(variant, at)?),
                            })
                        }
                        (None, None) => None,
                        _ => return Err(err("union tag/payload slots inconsistent")),
                    }
                }
                ty if scalar_size(ty).is_some() => {
                    let size = scalar_size(ty).expect("checked");
                    let s = slot;
                    slot += 1;
                    match table.scalar(s, size)? {
                        Some(raw) => Some(self.scalar_to_value(ty, raw, size)?),
                        None => None,
                    }
                }
                ty => {
                    let s = slot;
                    slot += 1;
                    match table.offset(s)? {
                        Some(at) => Some(self.read_outline(ty, at)?),
                        None => None,
                    }
                }
            };
            match (optional, value) {
                (true, Some(v)) => fields.push(Value::Optional(Some(Box::new(v)))),
                (true, None) => fields.push(Value::Optional(None)),
                (false, Some(v)) => fields.push(v),
                (false, None) => {
                    return Err(err(format!(
                        "required field {}.{} absent",
                        schema.name, def.name
                    )))
                }
            }
        }
        Ok(Value::Struct(fields))
    }

    // -- zero-copy traversal (no allocation) --------------------------------

    fn mix(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(27)
    }

    fn checksum_scalar(&self, ty: &FieldType, raw: u64, size: usize) -> Result<u64> {
        Ok(match ty {
            FieldType::Bool => Self::mix(1, u64::from(raw != 0)),
            FieldType::UInt { .. } | FieldType::Enum { .. } => Self::mix(2, raw),
            FieldType::Int => Self::mix(3, sign_extend(raw, size) as u64),
            FieldType::Constrained { lo, .. } => {
                let v = *lo as i128 + raw as i128;
                if *lo >= 0 {
                    Self::mix(2, v as u64)
                } else {
                    Self::mix(3, v as i64 as u64)
                }
            }
            ty => return Err(err(format!("{ty:?} is not a scalar"))),
        })
    }

    fn checksum_varlen(&self, ty: &FieldType, at: usize) -> Result<u64> {
        let len = read_u32(self.buf, at)? as usize;
        match ty {
            FieldType::Bytes { .. } => {
                let bytes = get(self.buf, at + 4, len)?;
                let mut h = 4u64;
                for &b in bytes {
                    h = Self::mix(h, u64::from(b));
                }
                Ok(h)
            }
            FieldType::Utf8 { .. } => {
                let bytes = get(self.buf, at + 4, len)?;
                let mut h = 5u64;
                for &b in bytes {
                    h = Self::mix(h, u64::from(b));
                }
                Ok(h)
            }
            FieldType::BitString { .. } => {
                let packed = get(self.buf, at + 4, len.div_ceil(8))?;
                let mut h = 6u64;
                for i in 0..len {
                    h = Self::mix(h, u64::from(packed[i / 8] & (0x80 >> (i % 8)) != 0));
                }
                Ok(h)
            }
            ty => Err(err(format!("{ty:?} is not variable-length"))),
        }
    }

    fn checksum_outline(&self, ty: &FieldType, at: usize) -> Result<u64> {
        match ty {
            FieldType::Bytes { .. } | FieldType::Utf8 { .. } | FieldType::BitString { .. } => {
                self.checksum_varlen(ty, at)
            }
            FieldType::Struct(schema) => self.checksum_table(
                schema,
                FbTable {
                    buf: self.buf,
                    pos: at,
                },
            ),
            FieldType::List { elem, .. } => {
                let count = read_u32(self.buf, at)? as usize;
                let mut h = 8u64;
                if let Some(size) = scalar_size(elem) {
                    for i in 0..count {
                        let bytes = get(self.buf, at + 4 + i * size, size)?;
                        let mut le = [0u8; 8];
                        le[..size].copy_from_slice(bytes);
                        h = Self::mix(h, self.checksum_scalar(elem, u64::from_le_bytes(le), size)?);
                    }
                } else {
                    for i in 0..count {
                        let off = read_u32(self.buf, at + 4 + i * 4)? as usize;
                        h = Self::mix(h, self.checksum_outline(elem, off)?);
                    }
                }
                Ok(h)
            }
            ty => Err(err(format!("{ty:?} is not out-of-line"))),
        }
    }

    fn checksum_union_payload(&self, variant: &Variant, at: usize) -> Result<u64> {
        if is_single_field(&variant.ty) {
            if self.svtable {
                let marker = read_u16(self.buf, at)?;
                match marker {
                    SVTABLE_SCALAR => {
                        let size = scalar_size(&variant.ty)
                            .ok_or_else(|| err("svtable scalar marker on varlen payload"))?;
                        let bytes = get(self.buf, at + 2, size)?;
                        let mut le = [0u8; 8];
                        le[..size].copy_from_slice(bytes);
                        self.checksum_scalar(&variant.ty, u64::from_le_bytes(le), size)
                    }
                    SVTABLE_VARLEN => self.checksum_varlen(&variant.ty, at + 2),
                    other => Err(err(format!("bad svtable marker {other:#x}"))),
                }
            } else {
                let table = FbTable {
                    buf: self.buf,
                    pos: at,
                };
                if let Some(size) = scalar_size(&variant.ty) {
                    let raw = table
                        .scalar(0, size)?
                        .ok_or_else(|| err("union wrapper missing payload"))?;
                    self.checksum_scalar(&variant.ty, raw, size)
                } else {
                    let off = table
                        .offset(0)?
                        .ok_or_else(|| err("union wrapper missing payload"))?;
                    self.checksum_varlen(&variant.ty, off)
                }
            }
        } else {
            match &variant.ty {
                FieldType::Struct(schema) => self.checksum_table(
                    schema,
                    FbTable {
                        buf: self.buf,
                        pos: at,
                    },
                ),
                ty => Err(err(format!("union variant {ty:?} unsupported"))),
            }
        }
    }

    fn checksum_table(&self, schema: &StructSchema, table: FbTable<'a>) -> Result<u64> {
        let mut h = 7u64;
        let mut slot = 0usize;
        for def in &schema.fields {
            let (ty, optional) = match &def.ty {
                FieldType::Optional(inner) => (inner.as_ref(), true),
                ty => (ty, false),
            };
            let field_hash: Option<u64> = match ty {
                FieldType::Choice(variants) => {
                    let tag = table.scalar(slot, 1)?;
                    let payload = table.offset(slot + 1)?;
                    slot += 2;
                    match (tag, payload) {
                        (Some(tag), Some(at)) if tag > 0 => {
                            let index = (tag - 1) as u32;
                            let variant = variants
                                .get(index as usize)
                                .ok_or_else(|| err(format!("union tag {index} out of range")))?;
                            Some(Self::mix(
                                Self::mix(9, u64::from(index)),
                                self.checksum_union_payload(variant, at)?,
                            ))
                        }
                        (None, None) => None,
                        _ => return Err(err("union tag/payload slots inconsistent")),
                    }
                }
                ty if scalar_size(ty).is_some() => {
                    let size = scalar_size(ty).expect("checked");
                    let s = slot;
                    slot += 1;
                    match table.scalar(s, size)? {
                        Some(raw) => Some(self.checksum_scalar(ty, raw, size)?),
                        None => None,
                    }
                }
                ty => {
                    let s = slot;
                    slot += 1;
                    match table.offset(s)? {
                        Some(at) => Some(self.checksum_outline(ty, at)?),
                        None => None,
                    }
                }
            };
            let fh = match (optional, field_hash) {
                (true, Some(v)) => Self::mix(11, v),
                (true, None) => 10,
                (false, Some(v)) => v,
                (false, None) => {
                    return Err(err(format!(
                        "required field {}.{} absent",
                        schema.name, def.name
                    )))
                }
            };
            h = Self::mix(h, fh);
        }
        Ok(h)
    }
}

fn sign_extend(raw: u64, size: usize) -> i64 {
    if size >= 8 {
        return raw as i64;
    }
    let shift = 64 - size * 8;
    ((raw << shift) as i64) >> shift
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
        out.clear();
        let (slots, vec_offsets) = SCRATCH.with(std::cell::Cell::take);
        let mut b = Builder {
            buf: std::mem::take(out),
            svtable: self.svtable,
            slots,
            vec_offsets,
        };
        b.buf.reserve(256);
        b.put_u32(0); // root placeholder
        let root = b.write_table(schema, value);
        if let Ok(root) = root {
            b.patch_u32(0, root as u32);
        }
        let Builder {
            buf,
            mut slots,
            mut vec_offsets,
            ..
        } = b;
        *out = buf;
        // Frame discipline leaves both scratches empty on success; clear
        // defensively on error so pooled capacity never carries stale state.
        slots.clear();
        vec_offsets.clear();
        SCRATCH.with(|s| s.set((slots, vec_offsets)));
        if root.is_err() {
            out.clear();
        }
        root.map(|_| ())
    }

    fn decode(&self, schema: &Schema, bytes: &[u8]) -> Result<Value> {
        let reader = Reader {
            buf: bytes,
            svtable: self.svtable,
        };
        let root = FbTable::root(bytes)?;
        reader.read_table(schema, root)
    }

    fn traverse(&self, schema: &Schema, bytes: &[u8]) -> Result<u64> {
        let reader = Reader {
            buf: bytes,
            svtable: self.svtable,
        };
        let root = FbTable::root(bytes)?;
        reader.checksum_table(schema, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::FieldDef;
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
