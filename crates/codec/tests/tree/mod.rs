//! A test-only message tree: any value a schema describes, streamed into a
//! codec's field sink and read back out of its source by schema. It drives
//! schemas no wire type declares — the codecs' own tests and the property
//! tests over random schemas — through the one encoder and decoder each
//! codec has.

use neutrino_codec::schema::{FieldType, StructSchema};
use neutrino_codec::sink::{FieldSink, FieldSource};
use neutrino_codec::WireFormat;
use neutrino_common::{Error, Result};

/// One value of a schema'd field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tree {
    /// A `Bool`.
    Bool(bool),
    /// A `UInt`, `Enum` or `Constrained` with a non-negative lower bound.
    U64(u64),
    /// An `Int` or `Constrained` with a negative lower bound.
    I64(i64),
    /// A `Bytes`.
    Bytes(Vec<u8>),
    /// A `Utf8`.
    Str(String),
    /// A `BitString`.
    Bits(Vec<bool>),
    /// A `Struct`'s fields in schema order.
    Struct(Vec<Tree>),
    /// A `List`'s elements.
    List(Vec<Tree>),
    /// A `Choice`: the variant index and its payload.
    Choice(u32, Box<Tree>),
    /// An `Optional`.
    Optional(Option<Box<Tree>>),
}

/// A present optional.
pub fn some(v: Tree) -> Tree {
    Tree::Optional(Some(Box::new(v)))
}

/// An absent optional.
pub fn none() -> Tree {
    Tree::Optional(None)
}

/// Variant `index` of a choice, carrying `v`.
pub fn choice(index: u32, v: Tree) -> Tree {
    Tree::Choice(index, Box::new(v))
}

/// Encodes the struct `tree` as `schema` through `codec`.
pub fn encode(
    codec: &dyn WireFormat,
    schema: &StructSchema,
    tree: &Tree,
    out: &mut Vec<u8>,
) -> Result<()> {
    codec.encode_with(schema, out, &mut |sink| put(schema, tree, sink))
}

/// Decodes a struct of `schema` through `codec`.
pub fn decode(codec: &dyn WireFormat, schema: &StructSchema, bytes: &[u8]) -> Result<Tree> {
    let mut tree = None;
    codec.decode_with(schema, bytes, &mut |src| {
        tree = Some(take(schema, src)?);
        Ok(())
    })?;
    tree.ok_or_else(|| Error::schema("nothing decoded"))
}

fn shape(ty: &FieldType) -> Error {
    Error::schema(format!("tree does not have the shape of {ty:?}"))
}

/// Streams the struct `tree` into `sink` in the sink call order.
fn put(schema: &StructSchema, tree: &Tree, sink: &mut dyn FieldSink) -> Result<()> {
    let Tree::Struct(fields) = tree else {
        return Err(Error::schema(format!("{}: not a struct", schema.name)));
    };
    sink.begin_struct(schema)?;
    for field in fields {
        if let Tree::Optional(opt) = field {
            sink.presence(opt.is_some())?;
        }
    }
    for (def, field) in schema.fields.iter().zip(fields) {
        put_field(&def.ty, field, sink)?;
    }
    sink.end_struct()
}

fn put_field(ty: &FieldType, v: &Tree, sink: &mut dyn FieldSink) -> Result<()> {
    match (ty, v) {
        (FieldType::Optional(inner), Tree::Optional(opt)) => {
            sink.optional(inner, opt.is_some())?;
            match opt {
                Some(v) => put_field(inner, v, sink),
                None => Ok(()),
            }
        }
        (FieldType::Struct(schema), v) => put(schema, v, sink),
        (FieldType::List { elem, .. }, Tree::List(items)) => {
            sink.begin_list(ty, items.len())?;
            for item in items {
                // An optional element brings its own presence bit.
                if let Tree::Optional(opt) = item {
                    sink.presence(opt.is_some())?;
                }
                put_field(elem, item, sink)?;
            }
            sink.end_list()
        }
        (FieldType::Choice(_), Tree::Choice(index, v)) => {
            sink.choice(ty, *index)?;
            put_field(ty.variant(*index)?, v, sink)
        }
        (_, Tree::Bool(b)) => sink.bool(*b),
        (_, Tree::U64(x)) => sink.uint(ty, *x),
        (_, Tree::I64(x)) => sink.int(ty, *x),
        (_, Tree::Bytes(bs)) => sink.bytes(ty, bs),
        (_, Tree::Str(s)) => sink.str(ty, s),
        (_, Tree::Bits(bits)) => sink.bits(ty, bits),
        (ty, _) => Err(shape(ty)),
    }
}

/// Reads a struct of `schema` out of `src`, in the order [`put`] wrote it.
fn take(schema: &StructSchema, src: &mut dyn FieldSource) -> Result<Tree> {
    src.begin_struct(schema)?;
    let mut announced = Vec::new();
    for def in &schema.fields {
        if let FieldType::Optional(_) = def.ty {
            announced.push(src.presence()?);
        }
    }
    let mut announced = announced.into_iter();
    let mut fields = Vec::with_capacity(schema.fields.len());
    for def in &schema.fields {
        fields.push(match &def.ty {
            FieldType::Optional(inner) => {
                let announced = announced.next().ok_or_else(|| shape(&def.ty))?;
                take_optional(inner, announced, src)?
            }
            ty => take_field(ty, src)?,
        });
    }
    src.end_struct()?;
    Ok(Tree::Struct(fields))
}

fn take_optional(inner: &FieldType, announced: bool, src: &mut dyn FieldSource) -> Result<Tree> {
    Ok(if src.optional(inner, announced)? {
        some(take_field(inner, src)?)
    } else {
        none()
    })
}

fn take_field(ty: &FieldType, src: &mut dyn FieldSource) -> Result<Tree> {
    Ok(match ty {
        FieldType::Bool => Tree::Bool(src.bool()?),
        FieldType::UInt { .. } | FieldType::Enum { .. } => Tree::U64(src.uint(ty)?),
        FieldType::Constrained { lo, .. } if *lo >= 0 => Tree::U64(src.uint(ty)?),
        FieldType::Int | FieldType::Constrained { .. } => Tree::I64(src.int(ty)?),
        FieldType::Bytes { .. } => Tree::Bytes(src.bytes(ty)?.to_vec()),
        FieldType::Utf8 { .. } => Tree::Str(src.str(ty)?.to_owned()),
        FieldType::BitString { .. } => Tree::Bits(src.bits(ty)?),
        FieldType::Struct(schema) => take(schema, src)?,
        FieldType::List { elem, .. } => {
            let len = src.begin_list(ty)?;
            let mut items = Vec::new();
            for _ in 0..len {
                items.push(match &**elem {
                    FieldType::Optional(inner) => {
                        let announced = src.presence()?;
                        take_optional(inner, announced, src)?
                    }
                    elem => take_field(elem, src)?,
                });
            }
            src.end_list()?;
            Tree::List(items)
        }
        FieldType::Choice(_) => {
            let index = src.choice(ty)?;
            choice(index, take_field(ty.variant(index)?, src)?)
        }
        FieldType::Optional(_) => return Err(shape(ty)),
    })
}
