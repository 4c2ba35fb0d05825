//! Property-based codec tests: for random schemas and conforming values,
//! every codec must (a) round-trip losslessly, (b) encode deterministically,
//! and (c) reject truncated or bit-flipped input without panicking.
//!
//! The generated schema language is the subset the message model uses
//! (which is also what fastbuf supports): union variants are single fields
//! or structs; list elements are scalars, blobs, strings or structs;
//! optionals do not nest.

mod tree;

use neutrino_codec::schema::{FieldDef, FieldType, Schema, StructSchema, Variant};
use neutrino_codec::CodecKind;
use proptest::prelude::*;
use std::sync::Arc;
use tree::{choice, decode, encode, none, some, Tree};

/// A generated field: its type plus a strategy-ready concrete value.
#[derive(Debug, Clone)]
struct GenField {
    ty: FieldType,
    value: Tree,
}

fn scalar_field() -> BoxedStrategy<GenField> {
    prop_oneof![
        any::<bool>().prop_map(|b| GenField {
            ty: FieldType::Bool,
            value: Tree::Bool(b),
        }),
        (
            prop_oneof![Just(8u8), Just(16), Just(32), Just(64)],
            any::<u64>()
        )
            .prop_map(|(bits, raw)| {
                let max = if bits == 64 {
                    i64::MAX as u64
                } else {
                    (1u64 << bits) - 1
                };
                GenField {
                    ty: FieldType::UInt { bits },
                    value: Tree::U64(raw % (max + 1)),
                }
            }),
        any::<i64>().prop_map(|x| GenField {
            ty: FieldType::Int,
            value: Tree::I64(x),
        }),
        // Non-negative constrained range: carried as U64.
        (0i64..1000, 0i64..100_000, any::<u64>()).prop_map(|(lo, span, raw)| {
            let hi = lo + span;
            let x = lo + (raw % (span as u64 + 1)) as i64;
            GenField {
                ty: FieldType::Constrained { lo, hi },
                value: Tree::U64(x as u64),
            }
        }),
        // Negative-spanning constrained range: carried as I64.
        (-1000i64..0, 0i64..5000, any::<u64>()).prop_map(|(lo, span, raw)| {
            let hi = lo + span;
            let x = lo + (raw % (span as u64 + 1)) as i64;
            GenField {
                ty: FieldType::Constrained { lo, hi },
                value: Tree::I64(x),
            }
        }),
        (1u32..200, any::<u64>()).prop_map(|(variants, raw)| GenField {
            ty: FieldType::Enum { variants },
            value: Tree::U64(raw % u64::from(variants)),
        }),
    ]
    .boxed()
}

fn blob_field() -> BoxedStrategy<GenField> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..200).prop_map(|bs| GenField {
            ty: FieldType::Bytes { max: None },
            value: Tree::Bytes(bs),
        }),
        (proptest::collection::vec(any::<u8>(), 0..40), 40u32..64).prop_map(|(bs, max)| {
            GenField {
                ty: FieldType::Bytes { max: Some(max) },
                value: Tree::Bytes(bs),
            }
        }),
        "[a-zA-Z0-9 /._-]{0,48}".prop_map(|s| GenField {
            ty: FieldType::Utf8 { max: None },
            value: Tree::Str(s),
        }),
        proptest::collection::vec(any::<bool>(), 0..64).prop_map(|bits| GenField {
            ty: FieldType::BitString { max_bits: Some(64) },
            value: Tree::Bits(bits),
        }),
    ]
    .boxed()
}

fn leaf_field() -> BoxedStrategy<GenField> {
    prop_oneof![scalar_field(), blob_field()].boxed()
}

/// A struct schema named `name` over the generated fields, and its value.
fn gen_struct(name: &str, fields: Vec<GenField>) -> (Schema, Tree) {
    let schema = StructSchema {
        name: name.into(),
        fields: fields
            .iter()
            .enumerate()
            .map(|(i, f)| FieldDef {
                name: format!("f{i}"),
                ty: f.ty.clone(),
            })
            .collect(),
    };
    let value = Tree::Struct(fields.into_iter().map(|f| f.value).collect());
    (schema, value)
}

fn struct_field(depth: u32) -> BoxedStrategy<GenField> {
    proptest::collection::vec(field(depth), 1..5)
        .prop_map(|fields| {
            let (schema, value) = gen_struct("Gen", fields);
            GenField {
                ty: FieldType::Struct(Arc::new(schema)),
                value,
            }
        })
        .boxed()
}

fn field(depth: u32) -> BoxedStrategy<GenField> {
    if depth == 0 {
        return leaf_field();
    }
    prop_oneof![
        4 => leaf_field(),
        1 => struct_field(depth - 1),
        // Lists of scalars or structs.
        1 => (proptest::collection::vec(scalar_field(), 0..1), 0usize..6).prop_flat_map(
            move |(elem_proto, len)| {
                let proto = elem_proto.into_iter().next();
                match proto {
                    None => Just(GenField {
                        ty: FieldType::List {
                            elem: Box::new(FieldType::Bool),
                            max: Some(16),
                        },
                        value: Tree::List(vec![]),
                    })
                    .boxed(),
                    Some(proto) => {
                        let ty = proto.ty.clone();
                        proptest::collection::vec(value_for(ty.clone()), len..=len)
                            .prop_map(move |items| GenField {
                                ty: FieldType::List {
                                    elem: Box::new(ty.clone()),
                                    max: Some(16),
                                },
                                value: Tree::List(items),
                            })
                            .boxed()
                    }
                }
            }
        ),
        // Optionals around leaves.
        1 => (leaf_field(), any::<bool>()).prop_map(|(inner, present)| GenField {
            ty: FieldType::Optional(Box::new(inner.ty)),
            value: if present { some(inner.value) } else { none() },
        }),
        // Unions of single fields (the svtable shape) and structs.
        1 => (proptest::collection::vec(leaf_field(), 1..4), any::<proptest::sample::Index>())
            .prop_map(|(variants, pick)| {
                let idx = pick.index(variants.len());
                let ty = FieldType::Choice(
                    variants
                        .iter()
                        .enumerate()
                        .map(|(i, v)| Variant {
                            name: format!("v{i}"),
                            ty: v.ty.clone(),
                        })
                        .collect(),
                );
                GenField {
                    ty,
                    value: choice(idx as u32, variants[idx].value.clone()),
                }
            }),
    ]
    .boxed()
}

/// A strategy producing another value of the same type (for list elements).
fn value_for(ty: FieldType) -> BoxedStrategy<Tree> {
    match ty {
        FieldType::Bool => any::<bool>().prop_map(Tree::Bool).boxed(),
        FieldType::UInt { bits } => any::<u64>()
            .prop_map(move |raw| {
                let max = if bits == 64 {
                    i64::MAX as u64
                } else {
                    (1u64 << bits) - 1
                };
                Tree::U64(raw % (max + 1))
            })
            .boxed(),
        FieldType::Int => any::<i64>().prop_map(Tree::I64).boxed(),
        FieldType::Constrained { lo, hi } => any::<u64>()
            .prop_map(move |raw| {
                let span = (hi - lo) as u64;
                let x = lo + (raw % (span + 1)) as i64;
                if lo >= 0 {
                    Tree::U64(x as u64)
                } else {
                    Tree::I64(x)
                }
            })
            .boxed(),
        FieldType::Enum { variants } => any::<u64>()
            .prop_map(move |raw| Tree::U64(raw % u64::from(variants)))
            .boxed(),
        other => panic!("value_for only handles scalars, got {other:?}"),
    }
}

fn root() -> BoxedStrategy<(Schema, Tree)> {
    proptest::collection::vec(field(2), 1..8)
        .prop_map(|fields| gen_struct("Root", fields))
        .boxed()
}

/// The codecs that can express `schema`.
fn supporting(schema: &Schema) -> impl Iterator<Item = CodecKind> + '_ {
    CodecKind::ALL
        .into_iter()
        .filter(|kind| kind.codec().supports(schema))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_codecs_round_trip((schema, value) in root()) {
        for kind in supporting(&schema) {
            let codec = kind.codec();
            let mut buf = Vec::new();
            encode(codec, &schema, &value, &mut buf).unwrap();
            let back = decode(codec, &schema, &buf).unwrap();
            prop_assert_eq!(&back, &value, "codec {}", kind.name());
        }
    }

    #[test]
    fn encoding_is_deterministic((schema, value) in root()) {
        for kind in supporting(&schema) {
            let codec = kind.codec();
            let mut a = Vec::new();
            let mut b = Vec::new();
            encode(codec, &schema, &value, &mut a).unwrap();
            encode(codec, &schema, &value, &mut b).unwrap();
            prop_assert_eq!(&a, &b, "codec {}", kind.name());
        }
    }

    #[test]
    fn per_is_never_larger_than_fastbuf((schema, value) in root()) {
        let mut per = Vec::new();
        let mut fb = Vec::new();
        encode(CodecKind::Asn1Per.codec(), &schema, &value, &mut per).unwrap();
        encode(CodecKind::Fastbuf.codec(), &schema, &value, &mut fb).unwrap();
        prop_assert!(per.len() <= fb.len(), "PER {} vs fastbuf {}", per.len(), fb.len());
    }

    #[test]
    fn truncation_never_panics((schema, value) in root(), cut_frac in 0.0f64..1.0) {
        for kind in supporting(&schema) {
            let codec = kind.codec();
            let mut buf = Vec::new();
            encode(codec, &schema, &value, &mut buf).unwrap();
            let cut = ((buf.len() as f64) * cut_frac) as usize;
            let _ = decode(codec, &schema, &buf[..cut]);
        }
    }

    #[test]
    fn bit_flips_never_panic((schema, value) in root(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        for kind in supporting(&schema) {
            let codec = kind.codec();
            let mut buf = Vec::new();
            encode(codec, &schema, &value, &mut buf).unwrap();
            if buf.is_empty() {
                continue;
            }
            let pos = ((buf.len() as f64) * pos_frac) as usize % buf.len();
            buf[pos] ^= 1 << bit;
            let _ = decode(codec, &schema, &buf);
        }
    }
}
