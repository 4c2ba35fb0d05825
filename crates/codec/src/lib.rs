//! Serialization engines for cellular control messages.
//!
//! The paper's §3.2/§4.4 argue that ASN.1 PER — the serialization mandated
//! for S1AP/NGAP — is a latency bottleneck, and replace it with an optimized
//! FlatBuffers scheme. This crate reproduces that entire comparison surface
//! from scratch:
//!
//! * [`per`] — an aligned ASN.1 Packed Encoding Rules subset. Bit-level
//!   packing, optional-field preambles, length determinants, and decode-time
//!   allocation: the exact cost drivers the paper attributes to ASN.1.
//! * [`fastbuf`] — a FlatBuffers-like format: tables with vtables, offset
//!   based zero-copy field access, no decode-time allocation. Includes the
//!   paper's **svtable** optimization (§4.4) that strips the wrapper table
//!   FlatBuffers requires around single-field union members (−10 bytes per
//!   scalar union, −14 bytes per variable-length union).
//! * [`cdr`] — a Fast-CDR-like plain aligned binary format (fast sequential
//!   codec, used as a Fig. 18 comparator).
//! * [`lcmlike`] — an LCM-like format (fingerprint header, big-endian fixed
//!   order; cannot express unions — mirroring the expressiveness gap the
//!   paper reports).
//! * [`protolike`] — a Protocol-Buffers-like tag/varint format.
//! * [`flexlike`] — a FlexBuffers-like self-describing format.
//!
//! All codecs speak the same [`value::Schema`]/[`value::Value`] reflection
//! model, so the experiment harness can run any message through any codec.
//! PER and the two fastbufs — the codecs the live path runs — are at bottom
//! a field [`sink`] and source: a typed message streams straight into and
//! out of the image ([`WireFormat::encode_with`] / [`WireFormat::decode_with`]),
//! and their `encode(schema, value)` / `decode` drive that same sink and
//! source from a `Value` by schema, so each has one encoder and one decoder.
//!
//! # Benchmark semantics
//!
//! The paper measures "encoding + decoding" with each library's *native*
//! usage: for ASN.1/CDR/LCM/protobuf, decoding materializes an owned object
//! (copies + allocations); for FlatBuffers, "decoding" is direct field
//! access into the encoded buffer. [`WireFormat::traverse`] exposes exactly
//! that native read path (it folds every field into a checksum), and the
//! Fig. 18/19 harnesses measure `encode + traverse`.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod bits;
pub mod calibrate;
pub mod cdr;
pub mod fastbuf;
pub mod flexlike;
pub mod lcmlike;
pub mod per;
pub mod protolike;
pub mod scratch;
pub mod sink;
pub mod value;

use neutrino_common::Result;
use sink::{FieldSink, FieldSource};
use value::{Schema, Value, ValueSink, ValueSource};

/// A serialization scheme for control messages.
///
/// Implementations must be pure: the same `(schema, value)` must always
/// produce the same bytes, and `decode(encode(v)) == v` for every value the
/// codec can express.
///
/// ```
/// use neutrino_codec::value::{FieldType, StructSchema, Value};
/// use neutrino_codec::{CodecKind, WireFormat};
///
/// let schema = StructSchema::builder("Demo")
///     .field("tac", FieldType::Constrained { lo: 0, hi: 65_535 })
///     .field("name", FieldType::Utf8 { max: Some(16) })
///     .build();
/// let value = Value::Struct(vec![Value::U64(1234), Value::Str("cell".into())]);
///
/// for kind in CodecKind::ALL {
///     let codec = kind.codec();
///     if !codec.supports(&schema) { continue; }
///     let mut wire = Vec::new();
///     codec.encode(&schema, &value, &mut wire).unwrap();
///     assert_eq!(codec.decode(&schema, &wire).unwrap(), value);
/// }
/// ```
pub trait WireFormat: Send + Sync {
    /// Short stable name (used in experiment output and error messages).
    fn name(&self) -> &'static str;

    /// Encodes `value` (which must conform to `schema`) into `out`.
    /// `out` is cleared first.
    fn encode(&self, schema: &Schema, value: &Value, out: &mut Vec<u8>) -> Result<()>;

    /// Fully decodes `bytes` into an owned [`Value`] tree.
    fn decode(&self, schema: &Schema, bytes: &[u8]) -> Result<Value>;

    /// Encodes the message `put` streams, field by field, into `out`
    /// (cleared first). `put` follows the [`sink`] call order for `schema`.
    ///
    /// The default builds the `Value` tree and [`encode`](Self::encode)s it;
    /// a codec that is a sink overrides this and builds no tree.
    fn encode_with(
        &self,
        schema: &Schema,
        out: &mut Vec<u8>,
        put: &mut dyn FnMut(&mut dyn FieldSink) -> Result<()>,
    ) -> Result<()> {
        let mut tree = ValueSink::default();
        put(&mut tree)?;
        self.encode(schema, &tree.finish()?, out)
    }

    /// Hands `take` a source over the message in `bytes`, to read field by
    /// field in the [`sink`] call order for `schema`.
    ///
    /// The default [`decode`](Self::decode)s the `Value` tree and reads
    /// that; a codec that is a source overrides this and builds no tree.
    fn decode_with(
        &self,
        schema: &Schema,
        bytes: &[u8],
        take: &mut dyn FnMut(&mut dyn FieldSource) -> Result<()>,
    ) -> Result<()> {
        take(&mut ValueSource::new(&self.decode(schema, bytes)?))
    }

    /// Reads every field of the message once through the codec's *native*
    /// access path and folds it into a checksum.
    ///
    /// For sequential formats this necessarily performs a full decode
    /// (including allocation, as their real libraries do); for
    /// [`fastbuf`], this is direct offset access with no allocation.
    fn traverse(&self, schema: &Schema, bytes: &[u8]) -> Result<u64> {
        Ok(checksum_value(&self.decode(schema, bytes)?))
    }

    /// True when the codec can express every construct in `schema`.
    ///
    /// Mirrors the paper's expressiveness comparison (e.g. LCM cannot encode
    /// the unions cellular control messages use widely).
    fn supports(&self, schema: &Schema) -> bool {
        let _ = schema;
        true
    }
}

/// Enumerates the codecs for sweep-style experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// ASN.1 aligned PER subset — the cellular baseline.
    Asn1Per,
    /// FlatBuffers-like, standard layout.
    Fastbuf,
    /// FlatBuffers-like with the paper's svtable union optimization.
    FastbufOptimized,
    /// Fast-CDR-like plain aligned binary.
    Cdr,
    /// LCM-like fingerprinted big-endian format.
    Lcm,
    /// Protocol-Buffers-like varint/tag format.
    Proto,
    /// FlexBuffers-like self-describing format.
    Flex,
}

impl CodecKind {
    /// Every codec, in the order the figures list them.
    pub const ALL: [CodecKind; 7] = [
        CodecKind::Asn1Per,
        CodecKind::Fastbuf,
        CodecKind::FastbufOptimized,
        CodecKind::Cdr,
        CodecKind::Lcm,
        CodecKind::Proto,
        CodecKind::Flex,
    ];

    /// The codec itself. Every codec is stateless, so one shared instance
    /// per kind serves all callers and naming a codec costs nothing.
    pub fn codec(self) -> &'static dyn WireFormat {
        static FASTBUF: fastbuf::Fastbuf = fastbuf::Fastbuf::standard();
        static FASTBUF_OPTIMIZED: fastbuf::Fastbuf = fastbuf::Fastbuf::optimized();
        match self {
            CodecKind::Asn1Per => &per::Asn1Per,
            CodecKind::Fastbuf => &FASTBUF,
            CodecKind::FastbufOptimized => &FASTBUF_OPTIMIZED,
            CodecKind::Cdr => &cdr::CdrLike,
            CodecKind::Lcm => &lcmlike::LcmLike,
            CodecKind::Proto => &protolike::ProtoLike,
            CodecKind::Flex => &flexlike::FlexLike,
        }
    }

    /// A boxed copy of the codec — one heap allocation per call. Kept only
    /// because `benchmark/src/probes.rs` links it; use [`codec`](Self::codec).
    pub fn instance(self) -> Box<dyn WireFormat> {
        match self {
            CodecKind::Asn1Per => Box::new(per::Asn1Per::new()),
            CodecKind::Fastbuf => Box::new(fastbuf::Fastbuf::standard()),
            CodecKind::FastbufOptimized => Box::new(fastbuf::Fastbuf::optimized()),
            CodecKind::Cdr => Box::new(cdr::CdrLike::new()),
            CodecKind::Lcm => Box::new(lcmlike::LcmLike::new()),
            CodecKind::Proto => Box::new(protolike::ProtoLike::new()),
            CodecKind::Flex => Box::new(flexlike::FlexLike::new()),
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            CodecKind::Asn1Per => "asn1-per",
            CodecKind::Fastbuf => "fastbuf",
            CodecKind::FastbufOptimized => "fastbuf-opt",
            CodecKind::Cdr => "fast-cdr",
            CodecKind::Lcm => "lcm",
            CodecKind::Proto => "protobuf",
            CodecKind::Flex => "flexbuf",
        }
    }
}

impl std::fmt::Display for CodecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Folds a fully-decoded value into the checksum used by
/// [`WireFormat::traverse`]. Public so codec implementations and tests agree
/// on the exact folding.
pub fn checksum_value(v: &Value) -> u64 {
    fn mix(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(27)
    }
    match v {
        Value::Bool(b) => mix(1, u64::from(*b)),
        Value::U64(x) => mix(2, *x),
        Value::I64(x) => mix(3, *x as u64),
        Value::Bytes(bs) => {
            let mut h = 4u64;
            for &b in bs {
                h = mix(h, u64::from(b));
            }
            h
        }
        Value::Str(s) => {
            let mut h = 5u64;
            for &b in s.as_bytes() {
                h = mix(h, u64::from(b));
            }
            h
        }
        Value::Bits(bits) => {
            let mut h = 6u64;
            for &b in bits {
                h = mix(h, u64::from(b));
            }
            h
        }
        Value::Struct(fields) => {
            let mut h = 7u64;
            for f in fields {
                h = mix(h, checksum_value(f));
            }
            h
        }
        Value::List(items) => {
            let mut h = 8u64;
            for it in items {
                h = mix(h, checksum_value(it));
            }
            h
        }
        Value::Choice { index, value } => mix(mix(9, u64::from(*index)), checksum_value(value)),
        Value::Optional(opt) => match opt {
            None => 10,
            Some(inner) => mix(11, checksum_value(inner)),
        },
    }
}
