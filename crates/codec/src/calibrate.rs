//! Codec cost calibration.
//!
//! The discrete-event simulator charges CPU time for every message a node
//! serializes or parses. Those charges come from a cost table (see `neutrino-messages::costs`) produced by
//! actually running this crate's codecs on the concrete control messages —
//! so the *relative* performance of Neutrino vs. the ASN.1 baselines in the
//! PCT figures is grounded in real measured work, not in assumed constants.
//!
//! [`measure`] runs what the framing runs per message — encode, then decode
//! into the owned typed message — in a tight loop with warm-up and reports
//! the median of several batches; median over batches is robust against
//! scheduler noise.
//! `neutrino-messages` bakes in a table measured once on the development
//! machine (documented there) so simulations stay deterministic; callers can
//! recalibrate at startup with [`measure`] when absolute local numbers
//! matter.

use crate::schema::Schema;
use crate::sink::{FieldSink, FieldSource};
use crate::WireFormat;
use neutrino_common::time::Duration;
use neutrino_common::Result;

/// Measured per-message costs for one `(codec, message)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgCost {
    /// Time to encode the message once.
    pub encode: Duration,
    /// Time to decode the message once into its owned typed form.
    pub access: Duration,
    /// Encoded size in bytes.
    pub wire_bytes: usize,
}

impl MsgCost {
    /// Builds a cost entry from raw nanosecond figures (used for the baked-in
    /// defaults).
    pub const fn from_nanos(encode_ns: u64, access_ns: u64, wire_bytes: usize) -> Self {
        MsgCost {
            encode: Duration::from_nanos(encode_ns),
            access: Duration::from_nanos(access_ns),
            wire_bytes,
        }
    }

    /// Total encode + decode cost.
    pub fn total(&self) -> Duration {
        self.encode + self.access
    }
}

/// Options controlling a calibration run.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationOptions {
    /// Iterations per timed batch.
    pub iters_per_batch: u32,
    /// Number of timed batches; the median batch is reported.
    pub batches: u32,
    /// Warm-up iterations before timing.
    pub warmup_iters: u32,
}

impl Default for CalibrationOptions {
    fn default() -> Self {
        CalibrationOptions {
            iters_per_batch: 2_000,
            batches: 9,
            warmup_iters: 1_000,
        }
    }
}

/// Measures `codec` on the message `put` streams: encoding it, and decoding
/// the image back into the owned message `take` builds (and drops), exactly
/// as the framing does.
pub fn measure<T>(
    codec: &dyn WireFormat,
    schema: &Schema,
    mut put: impl FnMut(&mut dyn FieldSink) -> Result<()>,
    mut take: impl FnMut(&mut dyn FieldSource) -> Result<T>,
    opts: CalibrationOptions,
) -> Result<MsgCost> {
    let mut encode = |buf: &mut Vec<u8>| codec.encode_with(schema, buf, &mut put);
    let mut decode = |bytes: &[u8]| {
        codec.decode_with(schema, bytes, &mut |src| {
            std::hint::black_box(take(src)?);
            Ok(())
        })
    };
    // Reusing the buffer mirrors how the CPF reuses serialization arenas;
    // allocation of the output buffer is not what the paper compares.
    let mut buf = Vec::with_capacity(1024);
    encode(&mut buf)?;
    let wire_bytes = buf.len();

    // Warm-up: touch both paths so caches/branch predictors settle.
    for _ in 0..opts.warmup_iters {
        encode(&mut buf)?;
        decode(&buf)?;
    }
    Ok(MsgCost {
        encode: median_batch_ns(opts, || encode(&mut buf))?,
        access: median_batch_ns(opts, || decode(&buf))?,
        wire_bytes,
    })
}

fn median_batch_ns(
    opts: CalibrationOptions,
    mut op: impl FnMut() -> Result<()>,
) -> Result<Duration> {
    let mut per_op: Vec<u64> = Vec::with_capacity(opts.batches as usize);
    for _ in 0..opts.batches {
        #[expect(clippy::disallowed_types, reason = "offline calibration times host CPU work")]
        let start = std::time::Instant::now();
        for _ in 0..opts.iters_per_batch {
            op()?;
        }
        let elapsed = start.elapsed().as_nanos() as u64;
        per_op.push(elapsed / u64::from(opts.iters_per_batch).max(1));
    }
    per_op.sort_unstable();
    Ok(Duration::from_nanos(per_op[per_op.len() / 2]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{FieldType, StructSchema};
    use crate::tree::{decode, encode, Tree};
    use crate::CodecKind;

    #[test]
    fn measure_reports_positive_costs() {
        let schema = StructSchema::builder("Cal")
            .field("a", FieldType::UInt { bits: 32 })
            .field("b", FieldType::Utf8 { max: Some(32) })
            .field("c", FieldType::Constrained { lo: 0, hi: 4095 })
            .build();
        let [a, b, c] = [0, 1, 2].map(|i| &schema.fields[i].ty);
        let tree = Tree::Struct(vec![
            Tree::U64(77),
            Tree::Str("calibration".into()),
            Tree::U64(2048),
        ]);
        let opts = CalibrationOptions {
            iters_per_batch: 50,
            batches: 3,
            warmup_iters: 10,
        };
        for kind in CodecKind::ALL {
            let codec = kind.codec();
            let put = |sink: &mut dyn FieldSink| {
                sink.begin_struct(&schema)?;
                sink.uint(a, 77)?;
                sink.str(b, "calibration")?;
                sink.uint(c, 2048)?;
                sink.end_struct()
            };
            let take = |src: &mut dyn FieldSource| {
                src.begin_struct(&schema)?;
                let fields = (src.uint(a)?, src.str(b)?.to_owned(), src.uint(c)?);
                src.end_struct()?;
                Ok(fields)
            };
            let cost = measure(codec, &schema, put, take, opts).unwrap();
            assert!(cost.encode.as_nanos() > 0, "{kind}: encode cost zero");
            assert!(cost.access.as_nanos() > 0, "{kind}: decode cost zero");
            let mut image = Vec::new();
            encode(codec, &schema, &tree, &mut image).unwrap();
            assert_eq!(cost.wire_bytes, image.len(), "{kind}");
            assert_eq!(decode(codec, &schema, &image).unwrap(), tree, "{kind}");
        }
    }

    #[test]
    fn from_nanos_round_trips() {
        let c = MsgCost::from_nanos(100, 250, 64);
        assert_eq!(c.encode.as_nanos(), 100);
        assert_eq!(c.access.as_nanos(), 250);
        assert_eq!(c.total().as_nanos(), 350);
        assert_eq!(c.wire_bytes, 64);
    }
}
