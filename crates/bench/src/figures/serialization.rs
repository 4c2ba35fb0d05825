//! Figures 18, 19, 20: serialization comparison.
//!
//! Fig. 18 sweeps a custom message over a growing number of information
//! elements and reports each codec's encode+decode speedup over ASN.1.
//! Figs. 19/20 measure the five real S1AP messages (times and encoded
//! sizes) for ASN.1, FlatBuffers, and Optimized FlatBuffers.
//!
//! Two ASN.1 series appear wherever times are reported: `asn1-raw` is this
//! repository's clean-room PER codec measured as-is; `asn1c-emulated`
//! applies [`ASN1C_RUNTIME_FACTOR`] to model the asn1c-generated runtime
//! the paper's baselines actually link (see `neutrino-messages::costs`).

use neutrino_codec::calibrate::{measure, CalibrationOptions, MsgCost};
use neutrino_codec::schema::{FieldType, Schema, StructSchema};
use neutrino_codec::sink::{FieldSink, FieldSource};
use neutrino_codec::{CodecKind, WireFormat};
use neutrino_common::Result;
use neutrino_messages::costs::ASN1C_RUNTIME_FACTOR;
use neutrino_messages::{ControlMessage, MessageKind};
use serde::Serialize;

/// One information element of the synthetic Fig. 18 message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ie {
    /// A `UInt` or `Constrained` element.
    Int(u64),
    /// A `Bool` element.
    Flag(bool),
    /// A `Bytes` element.
    Octets(Vec<u8>),
}

/// A synthetic control message with `n` information elements: a realistic
/// mix of constrained integers, a flag, and a short octet string every few
/// elements (cellular IEs are mostly small ints with occasional containers).
pub fn synthetic_message(n: usize) -> (Schema, Vec<Ie>) {
    let mut b = StructSchema::builder(format!("Custom{n}"));
    let mut ies = Vec::with_capacity(n);
    for i in 0..n {
        let (ty, ie) = match i % 5 {
            0 => (
                FieldType::UInt { bits: 32 },
                Ie::Int(0xDEAD_0000 + i as u64),
            ),
            1 => (
                FieldType::Constrained { lo: 0, hi: 16_383 },
                Ie::Int((i as u64 * 37) % 16_384),
            ),
            2 => (FieldType::Bool, Ie::Flag(i % 2 == 0)),
            3 => (
                FieldType::UInt { bits: 16 },
                Ie::Int((i as u64 * 101) % 65_536),
            ),
            _ => (
                FieldType::Bytes { max: Some(32) },
                Ie::Octets(vec![i as u8; 8]),
            ),
        };
        b = b.field(format!("f{i}"), ty);
        ies.push(ie);
    }
    (b.build(), ies)
}

/// Streams the synthetic message `ies` into `sink` as `schema` lays it out.
pub fn put_synthetic(schema: &Schema, ies: &[Ie], sink: &mut dyn FieldSink) -> Result<()> {
    sink.begin_struct(schema)?;
    for (def, ie) in schema.fields.iter().zip(ies) {
        match ie {
            Ie::Int(x) => sink.uint(&def.ty, *x)?,
            Ie::Flag(b) => sink.bool(*b)?,
            Ie::Octets(bs) => sink.bytes(&def.ty, bs)?,
        }
    }
    sink.end_struct()
}

/// Reads a synthetic message laid out as `schema` out of `src` into its
/// owned elements.
pub fn take_synthetic(schema: &Schema, src: &mut dyn FieldSource) -> Result<Vec<Ie>> {
    src.begin_struct(schema)?;
    let ies = schema
        .fields
        .iter()
        .map(|def| {
            Ok(match def.ty {
                FieldType::Bool => Ie::Flag(src.bool()?),
                FieldType::Bytes { .. } => Ie::Octets(src.bytes(&def.ty)?.to_vec()),
                ref ty => Ie::Int(src.uint(ty)?),
            })
        })
        .collect::<Result<_>>()?;
    src.end_struct()?;
    Ok(ies)
}

/// Encode + decode of the synthetic message under `codec`.
fn measure_synthetic(codec: &dyn WireFormat, schema: &Schema, ies: &[Ie]) -> MsgCost {
    let put = |sink: &mut dyn FieldSink| put_synthetic(schema, ies, sink);
    let take = |src: &mut dyn FieldSource| take_synthetic(schema, src);
    measure(codec, schema, put, take, opts()).unwrap()
}

/// One Fig. 18 point.
#[derive(Debug, Clone, Serialize)]
pub struct SpeedupPoint {
    /// Number of information elements.
    pub elements: usize,
    /// Codec name.
    pub codec: String,
    /// Encode+access time (ns) of this codec.
    pub total_ns: u64,
    /// Speedup of this codec over raw ASN.1 (our clean-room PER).
    pub speedup_vs_asn1_raw: f64,
    /// Speedup over the asn1c-emulated baseline (the paper's y-axis).
    pub speedup_vs_asn1c: f64,
}

/// Measurement options for the figure harness.
fn opts() -> CalibrationOptions {
    CalibrationOptions {
        iters_per_batch: 1_200,
        batches: 7,
        warmup_iters: 400,
    }
}

fn total_ns(c: &MsgCost) -> u64 {
    c.total().as_nanos()
}

/// Fig. 18: encode+decode speedup over ASN.1 for 1–35 elements.
pub fn fig18(element_counts: &[usize]) -> Vec<SpeedupPoint> {
    let mut out = Vec::new();
    for &n in element_counts {
        let (schema, ies) = synthetic_message(n);
        let asn1_raw = total_ns(&measure_synthetic(
            CodecKind::Asn1Per.codec(),
            &schema,
            &ies,
        ));
        let asn1c = asn1_raw as f64 * ASN1C_RUNTIME_FACTOR;
        for kind in [
            CodecKind::Fastbuf,
            CodecKind::Cdr,
            CodecKind::Lcm,
            CodecKind::Proto,
            CodecKind::Flex,
        ] {
            let codec = kind.codec();
            if !codec.supports(&schema) {
                continue;
            }
            let t = total_ns(&measure_synthetic(codec, &schema, &ies));
            out.push(SpeedupPoint {
                elements: n,
                codec: kind.name().to_string(),
                total_ns: t,
                speedup_vs_asn1_raw: asn1_raw as f64 / t as f64,
                speedup_vs_asn1c: asn1c / t as f64,
            });
        }
    }
    out
}

/// Default Fig. 18 x-axis.
pub fn fig18_elements() -> Vec<usize> {
    vec![1, 3, 5, 7, 10, 15, 20, 25, 30, 35]
}

/// The five real messages Figs. 19/20 benchmark.
pub fn fig19_messages() -> Vec<MessageKind> {
    vec![
        MessageKind::InitialContextSetupRequest,
        MessageKind::InitialContextSetupResponse,
        MessageKind::ERabSetupRequest,
        MessageKind::ERabSetupResponse,
        MessageKind::InitialUeMessage,
    ]
}

/// One Fig. 19/20 row.
#[derive(Debug, Clone, Serialize)]
pub struct MessageCodecRow {
    /// The S1AP message.
    pub message: String,
    /// Codec name (`asn1c-emulated` rows share ASN.1's size).
    pub codec: String,
    /// Encode+access time in ns.
    pub total_ns: u64,
    /// Encoded size in bytes.
    pub wire_bytes: usize,
}

/// Figs. 19/20: per-message times and sizes for ASN.1 (raw and emulated),
/// FlatBuffers, and Optimized FlatBuffers.
pub fn fig19_20() -> Vec<MessageCodecRow> {
    let mut out = Vec::new();
    for kind in fig19_messages() {
        let schema = kind.schema();
        let msg = kind.sample(3);
        for codec_kind in [
            CodecKind::Asn1Per,
            CodecKind::Fastbuf,
            CodecKind::FastbufOptimized,
        ] {
            let codec = codec_kind.codec();
            let take = |s: &mut dyn FieldSource| ControlMessage::take(kind, s);
            let c = measure(codec, &schema, |s| msg.put(s), take, opts()).unwrap();
            out.push(MessageCodecRow {
                message: kind.name().to_string(),
                codec: codec_kind.name().to_string(),
                total_ns: total_ns(&c),
                wire_bytes: c.wire_bytes,
            });
            if codec_kind == CodecKind::Asn1Per {
                out.push(MessageCodecRow {
                    message: kind.name().to_string(),
                    codec: "asn1c-emulated".to_string(),
                    total_ns: (total_ns(&c) as f64 * ASN1C_RUNTIME_FACTOR) as u64,
                    wire_bytes: c.wire_bytes,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_schema_scales() {
        for n in [1, 35] {
            let (schema, ies) = synthetic_message(n);
            assert_eq!((schema.field_count(), ies.len()), (n, n));
        }
    }

    #[test]
    fn synthetic_messages_round_trip_all_codecs() {
        for n in [1, 7, 25] {
            let (schema, ies) = synthetic_message(n);
            for kind in CodecKind::ALL {
                let codec = kind.codec();
                if !codec.supports(&schema) {
                    continue;
                }
                let mut buf = Vec::new();
                codec
                    .encode_with(&schema, &mut buf, &mut |s| put_synthetic(&schema, &ies, s))
                    .unwrap();
                codec
                    .decode_with(&schema, &buf, &mut |s| {
                        assert_eq!(take_synthetic(&schema, s)?, ies, "{kind} n={n}");
                        Ok(())
                    })
                    .unwrap();
            }
        }
    }

    #[test]
    fn real_messages_are_ie_rich() {
        // §6.7.4: the authors' messages all have ≥8 data elements. Ours
        // carry ≥7 payload leaves — their count includes the per-message
        // S1AP header IEs (message type, criticality, transaction id) that
        // we do not model as payload.
        let fewest = fig19_messages().iter().map(|k| k.schema().leaf_count()).min();
        assert!(fewest >= Some(7), "{fewest:?}");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "timing ratios need optimized code; run with --release"
    )]
    fn fig18_fastbuf_wins_at_scale() {
        let points = fig18(&[3, 25]);
        let fb25 = points
            .iter()
            .find(|p| p.codec == "fastbuf" && p.elements == 25)
            .unwrap();
        // The paper's claim is against the asn1c runtime its baselines run:
        // 1.6–19.2× over the sweep. Raw clean-room PER may match fastbuf.
        assert!(
            (1.6..=19.2).contains(&fb25.speedup_vs_asn1c),
            "fastbuf over asn1c-emulated PER at 25 elements: {:.2} (raw {:.2})",
            fb25.speedup_vs_asn1c,
            fb25.speedup_vs_asn1_raw
        );
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "timing ratios need optimized code; run with --release"
    )]
    fn fig20_per_is_smallest_fbo_saves_over_fb() {
        let rows = fig19_20();
        for kind in fig19_messages() {
            let size = |codec: &str| {
                rows.iter()
                    .find(|r| r.message == kind.name() && r.codec == codec)
                    .unwrap()
                    .wire_bytes
            };
            assert!(size("asn1-per") < size("fastbuf"), "{kind}");
            assert!(size("fastbuf-opt") <= size("fastbuf"), "{kind}");
        }
    }
}
