//! Codec cost calibration.
//!
//! The discrete-event simulator charges CPU time for every message a node
//! serializes or parses. Those charges come from a cost table (see `neutrino-messages::costs`) produced by
//! actually running this crate's codecs on the concrete control messages —
//! so the *relative* performance of Neutrino vs. the ASN.1 baselines in the
//! PCT figures is grounded in real measured work, not in assumed constants.
//!
//! [`measure`] runs `encode` and `traverse` (the native read path, see the
//! crate docs) in a tight loop with warm-up and reports the median of
//! several batches — median over batches is robust against scheduler noise.
//! `neutrino-messages` bakes in a table measured once on the development
//! machine (documented there) so simulations stay deterministic; callers can
//! recalibrate at startup with [`measure`] when absolute local numbers
//! matter.

use crate::value::{Schema, Value};
use crate::WireFormat;
use neutrino_common::time::Duration;
use neutrino_common::Result;

/// Measured per-message costs for one `(codec, message)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgCost {
    /// Time to encode the message once.
    pub encode: Duration,
    /// Time to read every field once through the codec's native path.
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

    /// Total encode + access cost.
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

/// Measures encode and native-access costs of `codec` on `(schema, value)`.
pub fn measure(
    codec: &dyn WireFormat,
    schema: &Schema,
    value: &Value,
    opts: CalibrationOptions,
) -> Result<MsgCost> {
    let mut buf = Vec::with_capacity(1024);
    codec.encode(schema, value, &mut buf)?;
    let wire_bytes = buf.len();

    // Warm-up: touch both paths so caches/branch predictors settle.
    let mut sink = 0u64;
    for _ in 0..opts.warmup_iters {
        codec.encode(schema, value, &mut buf)?;
        sink ^= codec.traverse(schema, &buf)?;
    }

    // Reusing the buffer mirrors how the CPF reuses serialization arenas;
    // allocation of the output buffer is not what the paper compares.
    let encode = median_batch_ns(opts, || codec.encode(schema, value, &mut buf))?;

    codec.encode(schema, value, &mut buf)?;
    let encoded = buf.clone();
    let access = median_batch_ns(opts, || {
        sink ^= codec.traverse(schema, &encoded)?;
        Ok(())
    })?;

    // Keep `sink` alive so the traversals cannot be optimized away.
    std::hint::black_box(sink);

    Ok(MsgCost {
        encode,
        access,
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
    use crate::value::{FieldType, StructSchema};
    use crate::CodecKind;

    fn sample() -> (Schema, Value) {
        let schema = StructSchema::builder("Cal")
            .field("a", FieldType::UInt { bits: 32 })
            .field("b", FieldType::Utf8 { max: Some(32) })
            .field("c", FieldType::Constrained { lo: 0, hi: 4095 })
            .build();
        let value = Value::Struct(vec![
            Value::U64(77),
            Value::Str("calibration".into()),
            Value::U64(2048),
        ]);
        (schema, value)
    }

    #[test]
    fn measure_reports_positive_costs() {
        let (schema, value) = sample();
        let opts = CalibrationOptions {
            iters_per_batch: 50,
            batches: 3,
            warmup_iters: 10,
        };
        for kind in [CodecKind::Asn1Per, CodecKind::FastbufOptimized] {
            let codec = kind.codec();
            let cost = measure(codec, &schema, &value, opts).unwrap();
            assert!(cost.encode.as_nanos() > 0, "{kind}: encode cost zero");
            assert!(cost.access.as_nanos() > 0, "{kind}: access cost zero");
            assert!(cost.wire_bytes > 0);
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
