//! Serialization engines for cellular control messages.
//!
//! The paper's §3.2/§4.4 argue that ASN.1 PER — the serialization mandated
//! for S1AP/NGAP — is a latency bottleneck, and replace it with an optimized
//! FlatBuffers scheme. This crate reproduces that entire comparison surface
//! from scratch:
//!
//! * [`per`] — an aligned ASN.1 Packed Encoding Rules subset. Bit-level
//!   packing, optional-field preambles, length determinants and sequential
//!   decoding: the cost drivers the paper attributes to ASN.1.
//! * [`fastbuf`] — a FlatBuffers-like format: tables with vtables, offset
//!   based zero-copy field access whose reader allocates nothing. Includes the
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
//! Every codec is a field [`sink`] and source over the [`schema`] model: a
//! typed message streams straight into the image and back out
//! ([`WireFormat::encode_with`] / [`WireFormat::decode_with`]), so each codec
//! has one encoder and one decoder, and the experiment harness can run any
//! message through any codec.
//!
//! # Benchmark semantics
//!
//! The Fig. 18/19 harnesses time what the system runs: encode, then decode
//! into the owned typed message ([`calibrate::measure`]). For the sequential
//! formats that decode walks the whole image; for fastbuf it is the same
//! bounds-checked offset walk a zero-copy read takes, plus the copies the
//! owned message needs.

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
pub mod schema;
pub mod scratch;
pub mod sink;

// The test-only message tree names this crate the way its integration
// tests do.
#[cfg(test)]
extern crate self as neutrino_codec;
#[cfg(test)]
#[path = "../tests/tree/mod.rs"]
pub mod tree;

use neutrino_common::Result;
use schema::Schema;
use sink::{FieldSink, FieldSource};

/// A serialization scheme for control messages.
///
/// Implementations must be pure: the same field stream must always produce
/// the same bytes, and the source over them must hand back the stream that
/// went in, for every message the codec can express.
///
/// ```
/// use neutrino_codec::schema::{FieldType, StructSchema};
/// use neutrino_codec::CodecKind;
///
/// let schema = StructSchema::builder("Demo")
///     .field("tac", FieldType::Constrained { lo: 0, hi: 65_535 })
///     .field("name", FieldType::Utf8 { max: Some(16) })
///     .build();
/// let (tac, name) = (&schema.fields[0].ty, &schema.fields[1].ty);
///
/// for kind in CodecKind::ALL {
///     let codec = kind.codec();
///     let mut wire = Vec::new();
///     codec
///         .encode_with(&schema, &mut wire, &mut |sink| {
///             sink.begin_struct(&schema)?;
///             sink.uint(tac, 1234)?;
///             sink.str(name, "cell")?;
///             sink.end_struct()
///         })
///         .unwrap();
///     codec
///         .decode_with(&schema, &wire, &mut |src| {
///             src.begin_struct(&schema)?;
///             assert_eq!(src.uint(tac)?, 1234);
///             assert_eq!(src.str(name)?, "cell");
///             src.end_struct()
///         })
///         .unwrap();
/// }
/// ```
pub trait WireFormat: Send + Sync {
    /// Short stable name (used in experiment output and error messages).
    fn name(&self) -> &'static str;

    /// Encodes the message `put` streams, field by field, into `out`
    /// (cleared first, and left empty if `put` or the codec refuses).
    /// `put` follows the [`sink`] call order for `schema`.
    fn encode_with(
        &self,
        schema: &Schema,
        out: &mut Vec<u8>,
        put: &mut dyn FnMut(&mut dyn FieldSink) -> Result<()>,
    ) -> Result<()>;

    /// Hands `take` a source over the message in `bytes`, to read field by
    /// field in the [`sink`] call order for `schema`.
    fn decode_with(
        &self,
        schema: &Schema,
        bytes: &[u8],
        take: &mut dyn FnMut(&mut dyn FieldSource) -> Result<()>,
    ) -> Result<()>;

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
