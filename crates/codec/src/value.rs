//! The reflection model every codec speaks.
//!
//! Real cellular stacks generate per-message encoders from ASN.1 modules;
//! here a [`Schema`] plays the role of the compiled ASN.1 module and a
//! [`Value`] is one concrete message. Message structs in `neutrino-messages`
//! convert to/from `Value`, and each wire format encodes `(Schema, Value)`
//! pairs. This keeps the seven codecs comparable: they all serialize exactly
//! the same logical content.
//!
//! The codecs on the live path are field sinks and sources
//! ([`crate::sink`]); this module is also where the two models meet.
//! [`put_value`] / [`take_value`] drive a sink or a source from a `Value` by
//! schema — that is all `encode(schema, value)` / `decode` are for those
//! codecs — and [`ValueSink`] / [`ValueSource`] let a typed message's
//! `put` / `take` build and read a tree, which is how the comparison codecs
//! (and `to_value` / `from_value`) are reached.

use crate::sink::{FieldSink, FieldSource, LIST_RESERVE};
use neutrino_common::{Error, Result};
use std::fmt;
use std::sync::Arc;

/// The type of one field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldType {
    /// Boolean.
    Bool,
    /// Unsigned integer with a natural width of 8, 16, 32 or 64 bits.
    UInt {
        /// Natural width in bits (8, 16, 32 or 64).
        bits: u8,
    },
    /// Signed integer (64-bit carrier).
    Int,
    /// Integer constrained to `lo..=hi` — PER encodes these in
    /// `ceil(log2(hi-lo+1))` bits, which is where its size advantage
    /// comes from.
    Constrained {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Enumeration with `variants` alternatives (encoded like
    /// `Constrained { lo: 0, hi: variants-1 }`).
    Enum {
        /// Number of alternatives.
        variants: u32,
    },
    /// Octet string, optionally bounded.
    Bytes {
        /// Maximum length, if bounded.
        max: Option<u32>,
    },
    /// UTF-8 string, optionally bounded (byte length).
    Utf8 {
        /// Maximum byte length, if bounded.
        max: Option<u32>,
    },
    /// Bit string, optionally bounded (bit length). ASN.1 has these
    /// natively; FlatBuffers does not (the paper lists a native bit-string
    /// type as a further possible optimization).
    BitString {
        /// Maximum bit length, if bounded.
        max_bits: Option<u32>,
    },
    /// A nested structure (ASN.1 SEQUENCE / FlatBuffers table).
    Struct(Arc<StructSchema>),
    /// Homogeneous list (ASN.1 SEQUENCE OF / FlatBuffers vector).
    List {
        /// Element type.
        elem: Box<FieldType>,
        /// Maximum element count, if bounded.
        max: Option<u32>,
    },
    /// Tagged union (ASN.1 CHOICE / FlatBuffers union). The paper's svtable
    /// optimization targets choices whose variants are single fields.
    Choice(Vec<Variant>),
    /// Present-or-absent wrapper (ASN.1 OPTIONAL).
    Optional(Box<FieldType>),
}

impl FieldType {
    /// The content type of an `Optional`.
    pub fn optional_inner(&self) -> Result<&FieldType> {
        match self {
            FieldType::Optional(inner) => Ok(inner),
            ty => Err(Error::schema(format!("{ty:?} is not optional"))),
        }
    }

    /// The element type of a `List`.
    pub fn list_elem(&self) -> Result<&FieldType> {
        match self {
            FieldType::List { elem, .. } => Ok(elem),
            ty => Err(Error::schema(format!("{ty:?} is not a list"))),
        }
    }

    /// The payload type of variant `index` of a `Choice`.
    pub fn variant(&self, index: u32) -> Result<&FieldType> {
        match self {
            FieldType::Choice(variants) => variants
                .get(index as usize)
                .map(|v| &v.ty)
                .ok_or_else(|| Error::schema(format!("choice index {index} out of range"))),
            ty => Err(Error::schema(format!("{ty:?} is not a choice"))),
        }
    }
}

/// One alternative of a [`FieldType::Choice`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    /// Variant name.
    pub name: String,
    /// Payload type.
    pub ty: FieldType,
}

/// One named field of a [`StructSchema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name (for diagnostics; codecs are positional).
    pub name: String,
    /// Field type.
    pub ty: FieldType,
}

/// An ordered, named collection of fields — the message layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructSchema {
    /// Type name.
    pub name: String,
    /// Ordered fields.
    pub fields: Vec<FieldDef>,
}

/// A complete message schema (a root struct).
pub type Schema = StructSchema;

impl StructSchema {
    /// Starts a schema builder.
    pub fn builder(name: impl Into<String>) -> SchemaBuilder {
        SchemaBuilder {
            name: name.into(),
            fields: Vec::new(),
        }
    }

    /// Number of top-level fields.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Total number of leaf fields, recursively (used to label Fig. 18's
    /// x-axis "number of information elements").
    pub fn leaf_count(&self) -> usize {
        fn leaves(ty: &FieldType) -> usize {
            match ty {
                FieldType::Struct(s) => s.leaf_count(),
                FieldType::List { elem, .. } => leaves(elem),
                FieldType::Choice(vs) => vs.iter().map(|v| leaves(&v.ty)).max().unwrap_or(1),
                FieldType::Optional(inner) => leaves(inner),
                _ => 1,
            }
        }
        self.fields.iter().map(|f| leaves(&f.ty)).sum()
    }

    /// Checks that `value` structurally conforms to this schema.
    pub fn validate(&self, value: &Value) -> Result<()> {
        validate_type(&FieldType::Struct(Arc::new(self.clone())), value)
            .map_err(|e| Error::schema(format!("{}: {e}", self.name)))
    }

    /// True if any (possibly nested) field is a [`FieldType::Choice`].
    pub fn contains_choice(&self) -> bool {
        fn has_choice(ty: &FieldType) -> bool {
            match ty {
                FieldType::Choice(_) => true,
                FieldType::Struct(s) => s.contains_choice(),
                FieldType::List { elem, .. } => has_choice(elem),
                FieldType::Optional(inner) => has_choice(inner),
                _ => false,
            }
        }
        self.fields.iter().any(|f| has_choice(&f.ty))
    }
}

/// Fluent builder for schemas.
#[derive(Debug)]
pub struct SchemaBuilder {
    name: String,
    fields: Vec<FieldDef>,
}

impl SchemaBuilder {
    /// Appends a field.
    pub fn field(mut self, name: impl Into<String>, ty: FieldType) -> Self {
        self.fields.push(FieldDef {
            name: name.into(),
            ty,
        });
        self
    }

    /// Finishes the schema.
    pub fn build(self) -> StructSchema {
        StructSchema {
            name: self.name,
            fields: self.fields,
        }
    }
}

/// One concrete message (or sub-message) conforming to a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Boolean.
    Bool(bool),
    /// Unsigned integer (also carries `UInt`, `Enum` and non-negative
    /// `Constrained` content).
    U64(u64),
    /// Signed integer (carries `Int` and negative `Constrained` content).
    I64(i64),
    /// Octet string.
    Bytes(Vec<u8>),
    /// UTF-8 string.
    Str(String),
    /// Bit string.
    Bits(Vec<bool>),
    /// Struct fields, positionally matching the schema.
    Struct(Vec<Value>),
    /// List elements.
    List(Vec<Value>),
    /// Chosen union variant.
    Choice {
        /// Index of the chosen variant.
        index: u32,
        /// Payload.
        value: Box<Value>,
    },
    /// Present-or-absent field.
    Optional(Option<Box<Value>>),
}

impl Value {
    /// Convenience constructor for a present optional.
    pub fn some(v: Value) -> Value {
        Value::Optional(Some(Box::new(v)))
    }

    /// Convenience constructor for an absent optional.
    pub fn none() -> Value {
        Value::Optional(None)
    }

    /// Convenience constructor for a choice.
    pub fn choice(index: u32, v: Value) -> Value {
        Value::Choice {
            index,
            value: Box::new(v),
        }
    }

    /// Extracts a `u64`, unwrapping through `Optional`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(x) => Some(*x),
            Value::I64(x) if *x >= 0 => Some(*x as u64),
            Value::Optional(Some(inner)) => inner.as_u64(),
            _ => None,
        }
    }

    /// Extracts struct fields.
    pub fn as_struct(&self) -> Option<&[Value]> {
        match self {
            Value::Struct(fs) => Some(fs),
            _ => None,
        }
    }
}

/// Reads the constrained-integer carrier for a value (`U64` or `I64`).
pub(crate) fn integer_carrier(value: &Value) -> Option<i64> {
    match value {
        Value::U64(x) => i64::try_from(*x).ok(),
        Value::I64(x) => Some(*x),
        _ => None,
    }
}

fn mismatch(ty: &FieldType, value: &Value) -> Error {
    Error::schema(format!("type mismatch: schema {ty:?} vs value {value:?}"))
}

// ---------------------------------------------------------------------------
// The generic `Value` driver: a tree into a sink, a source into a tree
// ---------------------------------------------------------------------------

/// Streams `value` into `sink` as the struct `schema` describes — what
/// `encode(schema, value)` is for a codec that is a [`FieldSink`]. Generic
/// so a codec driving its own sink pays no virtual call per field.
pub fn put_value<S: FieldSink + ?Sized>(
    schema: &StructSchema,
    value: &Value,
    sink: &mut S,
) -> Result<()> {
    let fields = value
        .as_struct()
        .filter(|fields| fields.len() == schema.fields.len())
        .ok_or_else(|| Error::schema(format!("{}: not a struct of its arity", schema.name)))?;
    sink.begin_struct(schema)?;
    for (def, val) in schema.fields.iter().zip(fields) {
        if let FieldType::Optional(_) = def.ty {
            match val {
                Value::Optional(opt) => sink.presence(opt.is_some())?,
                v => return Err(mismatch(&def.ty, v)),
            }
        }
    }
    for (def, val) in schema.fields.iter().zip(fields) {
        match (&def.ty, val) {
            // Announced in the preamble above.
            (FieldType::Optional(inner), Value::Optional(opt)) => put_optional(inner, opt, sink)?,
            (ty, v) => put_field(ty, v, sink)?,
        }
    }
    sink.end_struct()
}

fn put_optional<S: FieldSink + ?Sized>(
    inner: &FieldType,
    opt: &Option<Box<Value>>,
    sink: &mut S,
) -> Result<()> {
    sink.optional(inner, opt.is_some())?;
    match opt {
        Some(v) => put_field(inner, v, sink),
        None => Ok(()),
    }
}

fn put_field<S: FieldSink + ?Sized>(ty: &FieldType, value: &Value, sink: &mut S) -> Result<()> {
    match (ty, value) {
        (FieldType::Bool, Value::Bool(b)) => sink.bool(*b),
        (FieldType::UInt { .. } | FieldType::Enum { .. }, Value::U64(x)) => sink.uint(ty, *x),
        (FieldType::Int, Value::I64(x)) => sink.int(ty, *x),
        (FieldType::Constrained { .. }, v) => {
            sink.int(ty, integer_carrier(v).ok_or_else(|| mismatch(ty, v))?)
        }
        (FieldType::Bytes { .. }, Value::Bytes(bs)) => sink.bytes(ty, bs),
        (FieldType::Utf8 { .. }, Value::Str(s)) => sink.str(ty, s),
        (FieldType::BitString { .. }, Value::Bits(bits)) => sink.bits(ty, bits),
        (FieldType::Struct(schema), v) => put_value(schema, v, sink),
        (FieldType::List { elem, .. }, Value::List(items)) => {
            sink.begin_list(ty, items.len())?;
            for item in items {
                put_field(elem, item, sink)?;
            }
            sink.end_list()
        }
        (FieldType::Choice(_), Value::Choice { index, value }) => {
            let variant = ty.variant(*index)?;
            sink.choice(ty, *index)?;
            put_field(variant, value, sink)
        }
        // Outside a struct's field list (a list element): no preamble
        // announced it, so it brings its own presence bit.
        (FieldType::Optional(inner), Value::Optional(opt)) => {
            sink.presence(opt.is_some())?;
            put_optional(inner, opt, sink)
        }
        (ty, v) => Err(mismatch(ty, v)),
    }
}

/// Reads the struct `schema` describes out of `src` into an owned tree —
/// what `decode(schema, bytes)` is for a codec that is a [`FieldSource`].
pub fn take_value<S: FieldSource + ?Sized>(schema: &StructSchema, src: &mut S) -> Result<Value> {
    src.begin_struct(schema)?;
    let announced = schema
        .fields
        .iter()
        .filter(|def| matches!(def.ty, FieldType::Optional(_)))
        .map(|_| src.presence())
        .collect::<Result<Vec<bool>>>()?;
    let mut announced = announced.into_iter();
    let mut fields = Vec::with_capacity(schema.fields.len());
    for def in &schema.fields {
        fields.push(match &def.ty {
            FieldType::Optional(inner) => {
                take_optional(inner, announced.next().unwrap_or(true), src)?
            }
            ty => take_field(ty, src)?,
        });
    }
    src.end_struct()?;
    Ok(Value::Struct(fields))
}

fn take_optional<S: FieldSource + ?Sized>(
    inner: &FieldType,
    announced: bool,
    src: &mut S,
) -> Result<Value> {
    Ok(if src.optional(inner, announced)? {
        Value::some(take_field(inner, src)?)
    } else {
        Value::none()
    })
}

fn take_field<S: FieldSource + ?Sized>(ty: &FieldType, src: &mut S) -> Result<Value> {
    Ok(match ty {
        FieldType::Bool => Value::Bool(src.bool()?),
        FieldType::UInt { .. } | FieldType::Enum { .. } => Value::U64(src.uint(ty)?),
        FieldType::Int => Value::I64(src.int(ty)?),
        FieldType::Constrained { lo, .. } if *lo >= 0 => Value::U64(src.uint(ty)?),
        FieldType::Constrained { .. } => Value::I64(src.int(ty)?),
        FieldType::Bytes { .. } => Value::Bytes(src.bytes(ty)?.to_vec()),
        FieldType::Utf8 { .. } => Value::Str(src.str(ty)?.to_owned()),
        FieldType::BitString { .. } => Value::Bits(src.bits(ty)?),
        FieldType::Struct(schema) => take_value(schema, src)?,
        FieldType::List { elem, .. } => {
            let len = src.begin_list(ty)?;
            let mut items = Vec::with_capacity(len.min(LIST_RESERVE));
            for _ in 0..len {
                items.push(take_field(elem, src)?);
            }
            src.end_list()?;
            Value::List(items)
        }
        FieldType::Choice(_) => {
            let index = src.choice(ty)?;
            Value::choice(index, take_field(ty.variant(index)?, src)?)
        }
        FieldType::Optional(inner) => {
            let announced = src.presence()?;
            take_optional(inner, announced, src)?
        }
    })
}

// ---------------------------------------------------------------------------
// `Value` as a sink and a source
// ---------------------------------------------------------------------------

/// A [`FieldSink`] that builds the [`Value`] tree of what it is given.
#[derive(Debug, Default)]
pub struct ValueSink {
    open: Vec<Open>,
    done: Option<Value>,
}

#[derive(Debug)]
enum Open {
    /// A struct or list collecting its members.
    Members { list: bool, members: Vec<Value> },
    /// The next value is a present optional's content.
    Some,
    /// The next value is this variant's payload.
    Variant(u32),
}

impl ValueSink {
    /// The finished tree: the one root value the sink was given.
    pub fn finish(self) -> Result<Value> {
        self.done
            .filter(|_| self.open.is_empty())
            .ok_or_else(|| Error::schema("value sink closed before its root value was"))
    }

    /// Hands a finished value to whatever is waiting for one.
    fn value(&mut self, mut v: Value) -> Result<()> {
        loop {
            match self.open.last_mut() {
                Some(Open::Members { members, .. }) => members.push(v),
                Some(Open::Some) => {
                    self.open.pop();
                    v = Value::some(v);
                    continue;
                }
                Some(&mut Open::Variant(index)) => {
                    self.open.pop();
                    v = Value::choice(index, v);
                    continue;
                }
                None => self.done = Some(v),
            }
            return Ok(());
        }
    }

    fn close(&mut self, list: bool) -> Result<()> {
        match self.open.pop() {
            Some(Open::Members { list: l, members }) if l == list => self.value(if list {
                Value::List(members)
            } else {
                Value::Struct(members)
            }),
            _ => Err(Error::schema("value sink: close without a matching open")),
        }
    }
}

impl FieldSink for ValueSink {
    fn begin_struct(&mut self, schema: &StructSchema) -> Result<()> {
        self.open.push(Open::Members {
            list: false,
            members: Vec::with_capacity(schema.fields.len()),
        });
        Ok(())
    }
    fn presence(&mut self, _: bool) -> Result<()> {
        Ok(())
    }
    fn optional(&mut self, _: &FieldType, present: bool) -> Result<()> {
        if present {
            self.open.push(Open::Some);
            Ok(())
        } else {
            self.value(Value::none())
        }
    }
    fn end_struct(&mut self) -> Result<()> {
        self.close(false)
    }
    fn bool(&mut self, v: bool) -> Result<()> {
        self.value(Value::Bool(v))
    }
    fn uint(&mut self, _: &FieldType, v: u64) -> Result<()> {
        self.value(Value::U64(v))
    }
    fn int(&mut self, _: &FieldType, v: i64) -> Result<()> {
        self.value(Value::I64(v))
    }
    fn bytes(&mut self, _: &FieldType, v: &[u8]) -> Result<()> {
        self.value(Value::Bytes(v.to_vec()))
    }
    fn str(&mut self, _: &FieldType, v: &str) -> Result<()> {
        self.value(Value::Str(v.to_owned()))
    }
    fn bits(&mut self, _: &FieldType, v: &[bool]) -> Result<()> {
        self.value(Value::Bits(v.to_vec()))
    }
    fn begin_list(&mut self, _: &FieldType, len: usize) -> Result<()> {
        self.open.push(Open::Members {
            list: true,
            members: Vec::with_capacity(len),
        });
        Ok(())
    }
    fn end_list(&mut self) -> Result<()> {
        self.close(true)
    }
    fn choice(&mut self, _: &FieldType, index: u32) -> Result<()> {
        self.open.push(Open::Variant(index));
        Ok(())
    }
}

/// A [`FieldSource`] that reads a [`Value`] tree. A value of the wrong
/// shape where one is asked for is a schema `Err`.
#[derive(Debug)]
pub struct ValueSource<'v> {
    /// The members of every open struct and list, innermost last.
    open: Vec<std::slice::Iter<'v, Value>>,
    /// The value the next call reads, when it is not the next member: the
    /// root, an optional's content, a choice's payload.
    next: Option<&'v Value>,
}

impl<'v> ValueSource<'v> {
    /// A source over the root value `root`.
    pub fn new(root: &'v Value) -> Self {
        ValueSource {
            open: Vec::new(),
            next: Some(root),
        }
    }

    fn value(&mut self) -> Result<&'v Value> {
        self.next
            .take()
            .or_else(|| self.open.last_mut()?.next())
            .ok_or_else(|| Error::schema("no value left where one is expected"))
    }

    fn close(&mut self) -> Result<()> {
        self.open
            .pop()
            .map(|_| ())
            .ok_or_else(|| Error::schema("close without a matching open"))
    }
}

fn shape(expected: &str, got: &Value) -> Error {
    Error::schema(format!("expected {expected}, got {got:?}"))
}

impl FieldSource for ValueSource<'_> {
    fn begin_struct(&mut self, schema: &StructSchema) -> Result<()> {
        match self.value()? {
            Value::Struct(fs) if fs.len() == schema.fields.len() => {
                self.open.push(fs.iter());
                Ok(())
            }
            Value::Struct(fs) => Err(Error::schema(format!(
                "{}: expected {} fields, got {}",
                schema.name,
                schema.fields.len(),
                fs.len()
            ))),
            _ => Err(Error::schema(format!("{}: not a struct", schema.name))),
        }
    }
    fn presence(&mut self) -> Result<bool> {
        Ok(true)
    }
    fn optional(&mut self, _: &FieldType, _: bool) -> Result<bool> {
        match self.value()? {
            Value::Optional(opt) => {
                self.next = opt.as_deref();
                Ok(opt.is_some())
            }
            v => Err(shape("an optional", v)),
        }
    }
    fn end_struct(&mut self) -> Result<()> {
        self.close()
    }
    fn bool(&mut self) -> Result<bool> {
        match self.value()? {
            Value::Bool(b) => Ok(*b),
            v => Err(shape("a bool", v)),
        }
    }
    fn uint(&mut self, _: &FieldType) -> Result<u64> {
        match self.value()? {
            Value::U64(x) => Ok(*x),
            v => Err(shape("an unsigned integer", v)),
        }
    }
    fn int(&mut self, _: &FieldType) -> Result<i64> {
        let v = self.value()?;
        integer_carrier(v).ok_or_else(|| shape("an integer", v))
    }
    fn bytes(&mut self, _: &FieldType) -> Result<&[u8]> {
        match self.value()? {
            Value::Bytes(bs) => Ok(bs),
            v => Err(shape("an octet string", v)),
        }
    }
    fn str(&mut self, _: &FieldType) -> Result<&str> {
        match self.value()? {
            Value::Str(s) => Ok(s),
            v => Err(shape("a string", v)),
        }
    }
    fn bits(&mut self, _: &FieldType) -> Result<Vec<bool>> {
        match self.value()? {
            Value::Bits(bits) => Ok(bits.clone()),
            v => Err(shape("a bit string", v)),
        }
    }
    fn begin_list(&mut self, _: &FieldType) -> Result<usize> {
        match self.value()? {
            Value::List(items) => {
                self.open.push(items.iter());
                Ok(items.len())
            }
            v => Err(shape("a list", v)),
        }
    }
    fn end_list(&mut self) -> Result<()> {
        self.close()
    }
    fn choice(&mut self, ty: &FieldType) -> Result<u32> {
        match self.value()? {
            Value::Choice { index, value } => {
                ty.variant(*index)?;
                self.next = Some(value);
                Ok(*index)
            }
            v => Err(shape("a choice", v)),
        }
    }
}

fn validate_type(ty: &FieldType, value: &Value) -> Result<(), String> {
    match (ty, value) {
        (FieldType::Bool, Value::Bool(_)) => Ok(()),
        (FieldType::UInt { bits }, Value::U64(x)) => {
            if *bits < 64 && *x >= 1u64 << bits {
                Err(format!("u{bits} out of range: {x}"))
            } else {
                Ok(())
            }
        }
        (FieldType::Int, Value::I64(_)) => Ok(()),
        (FieldType::Constrained { lo, hi }, v) => {
            let x = integer_carrier(v).ok_or("constrained field is not an integer")?;
            if x < *lo || x > *hi {
                Err(format!("constrained int {x} outside [{lo}, {hi}]"))
            } else {
                Ok(())
            }
        }
        (FieldType::Enum { variants }, Value::U64(x)) => {
            if *x >= u64::from(*variants) {
                Err(format!("enum value {x} >= {variants}"))
            } else {
                Ok(())
            }
        }
        (FieldType::Bytes { max }, Value::Bytes(bs)) => check_len(bs.len(), *max, "bytes"),
        (FieldType::Utf8 { max }, Value::Str(s)) => check_len(s.len(), *max, "string"),
        (FieldType::BitString { max_bits }, Value::Bits(bits)) => {
            check_len(bits.len(), *max_bits, "bit string")
        }
        (FieldType::Struct(schema), Value::Struct(fields)) => {
            if schema.fields.len() != fields.len() {
                return Err(format!(
                    "struct {} expects {} fields, got {}",
                    schema.name,
                    schema.fields.len(),
                    fields.len()
                ));
            }
            for (def, val) in schema.fields.iter().zip(fields) {
                validate_type(&def.ty, val).map_err(|e| format!("{}: {e}", def.name))?;
            }
            Ok(())
        }
        (FieldType::List { elem, max }, Value::List(items)) => {
            check_len(items.len(), *max, "list")?;
            for (i, item) in items.iter().enumerate() {
                validate_type(elem, item).map_err(|e| format!("[{i}]: {e}"))?;
            }
            Ok(())
        }
        (FieldType::Choice(variants), Value::Choice { index, value }) => {
            let var = variants
                .get(*index as usize)
                .ok_or_else(|| format!("choice index {index} out of range"))?;
            validate_type(&var.ty, value).map_err(|e| format!("{}: {e}", var.name))
        }
        (FieldType::Optional(inner), Value::Optional(opt)) => match opt {
            None => Ok(()),
            Some(v) => validate_type(inner, v),
        },
        (ty, v) => Err(format!("type mismatch: schema {ty:?} vs value {v:?}")),
    }
}

fn check_len(len: usize, max: Option<u32>, what: &str) -> Result<(), String> {
    match max {
        Some(m) if len > m as usize => Err(format!("{what} length {len} exceeds max {m}")),
        _ => Ok(()),
    }
}

impl fmt::Display for StructSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({} fields)", self.name, self.fields.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> Schema {
        StructSchema::builder("Test")
            .field("flag", FieldType::Bool)
            .field("id", FieldType::UInt { bits: 32 })
            .field("kind", FieldType::Enum { variants: 4 })
            .field("tac", FieldType::Constrained { lo: 0, hi: 65_535 })
            .field("name", FieldType::Utf8 { max: Some(32) })
            .field(
                "opt",
                FieldType::Optional(Box::new(FieldType::UInt { bits: 16 })),
            )
            .build()
    }

    fn sample_value() -> Value {
        Value::Struct(vec![
            Value::Bool(true),
            Value::U64(77),
            Value::U64(2),
            Value::U64(1234),
            Value::Str("cell-17".into()),
            Value::some(Value::U64(9)),
        ])
    }

    #[test]
    fn validate_accepts_conforming_value() {
        sample_schema().validate(&sample_value()).unwrap();
    }

    #[test]
    fn validate_rejects_wrong_arity() {
        let v = Value::Struct(vec![Value::Bool(true)]);
        assert!(sample_schema().validate(&v).is_err());
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut v = sample_value();
        if let Value::Struct(fields) = &mut v {
            fields[3] = Value::U64(100_000); // over tac max
        }
        assert!(sample_schema().validate(&v).is_err());
    }

    #[test]
    fn validate_rejects_uint_overflow() {
        let schema = StructSchema::builder("S")
            .field("b", FieldType::UInt { bits: 8 })
            .build();
        assert!(schema
            .validate(&Value::Struct(vec![Value::U64(256)]))
            .is_err());
        schema
            .validate(&Value::Struct(vec![Value::U64(255)]))
            .unwrap();
    }

    #[test]
    fn validate_rejects_overlong_string() {
        let mut v = sample_value();
        if let Value::Struct(fields) = &mut v {
            fields[4] = Value::Str("x".repeat(100));
        }
        assert!(sample_schema().validate(&v).is_err());
    }

    #[test]
    fn validate_choice_bounds() {
        let schema = StructSchema::builder("C")
            .field(
                "c",
                FieldType::Choice(vec![
                    Variant {
                        name: "a".into(),
                        ty: FieldType::Bool,
                    },
                    Variant {
                        name: "b".into(),
                        ty: FieldType::UInt { bits: 8 },
                    },
                ]),
            )
            .build();
        schema
            .validate(&Value::Struct(vec![Value::choice(1, Value::U64(3))]))
            .unwrap();
        assert!(schema
            .validate(&Value::Struct(vec![Value::choice(5, Value::Bool(true))]))
            .is_err());
        assert!(schema
            .validate(&Value::Struct(vec![Value::choice(0, Value::U64(3))]))
            .is_err());
    }

    #[test]
    fn leaf_count_recurses() {
        let inner = Arc::new(
            StructSchema::builder("Inner")
                .field("a", FieldType::Bool)
                .field("b", FieldType::Bool)
                .build(),
        );
        let schema = StructSchema::builder("Outer")
            .field("x", FieldType::UInt { bits: 8 })
            .field("nested", FieldType::Struct(inner))
            .build();
        assert_eq!(schema.leaf_count(), 3);
    }

    #[test]
    fn contains_choice_detects_nesting() {
        assert!(!sample_schema().contains_choice());
        let inner = Arc::new(
            StructSchema::builder("Inner")
                .field(
                    "c",
                    FieldType::Choice(vec![Variant {
                        name: "v".into(),
                        ty: FieldType::Bool,
                    }]),
                )
                .build(),
        );
        let schema = StructSchema::builder("Outer")
            .field("nested", FieldType::Struct(inner))
            .build();
        assert!(schema.contains_choice());
    }

    #[test]
    fn as_u64_unwraps_optionals() {
        assert_eq!(Value::some(Value::U64(7)).as_u64(), Some(7));
        assert_eq!(Value::none().as_u64(), None);
        assert_eq!(Value::I64(-1).as_u64(), None);
    }
}
