//! The schema model every codec speaks.
//!
//! Real cellular stacks generate per-message encoders from ASN.1 modules;
//! here a [`Schema`] plays the role of the compiled ASN.1 module. A message
//! type streams its fields into a codec's [`FieldSink`](crate::sink::FieldSink)
//! in schema order and reads them back from its
//! [`FieldSource`](crate::sink::FieldSource), each call naming the field's
//! [`FieldType`]. This keeps the seven codecs comparable: they all serialize
//! exactly the same logical content.

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

impl fmt::Display for StructSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({} fields)", self.name, self.fields.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let flat = StructSchema::builder("Flat")
            .field("flag", FieldType::Bool)
            .field("opt", FieldType::Optional(Box::new(FieldType::Int)))
            .build();
        assert!(!flat.contains_choice());
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
}
