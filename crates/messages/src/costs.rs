//! Per-message serialization cost table.
//!
//! The discrete-event simulator charges CPU for each message a node encodes
//! or parses; those charges come from this table. [`CostTable::measure_for`]
//! produces a table by running the real codecs of `neutrino-codec` on the
//! sample messages; [`CostTable::baked`] returns constants produced by
//! exactly that measurement on the development machine (regenerate with
//! `cargo test -p neutrino-messages --release regen_baked_cost_table --
//! --ignored --nocapture` and paste the output over `BAKED`).
//!
//! Baked constants keep simulations deterministic and machine-independent;
//! what the PCT figures depend on is the *ratio* between ASN.1-PER and
//! optimized-fastbuf costs, which the baked table preserves from a real
//! measurement.

use crate::control::MessageKind;
use neutrino_codec::calibrate::{measure, CalibrationOptions, MsgCost};
use neutrino_codec::CodecKind;
use neutrino_common::{Error, Result};
use std::sync::OnceLock;

/// Emulation factor for the asn1c runtime the paper's baselines actually run.
///
/// The paper's ASN.1 numbers come from asn1c-generated code (the compiler
/// OpenAirInterface uses, §5), whose runtime dispatches every IE through
/// `asn_TYPE_descriptor_t` function-pointer tables, constraint-checks via
/// callbacks, and heap-allocates each decoded member — overheads our
/// clean-room direct-match PER codec deliberately does not have. Simulated
/// ASN.1 CPU costs are therefore `measured PER cost × ASN1C_RUNTIME_FACTOR`.
///
/// The factor is calibrated against the paper's own report: Fig. 19 shows up
/// to a 5.9× encode+decode advantage for FlatBuffers over ASN.1 on
/// InitialContextSetupRequest; our raw measured PER/fastbuf-opt ratio on the
/// same message is ≈1.5×, giving a factor of 4.0. Raw (unscaled) numbers are
/// what the Fig. 18/19 benchmark binaries report for our own codecs; the
/// scaled series is labeled "asn1c-emulated" wherever it appears.
pub const ASN1C_RUNTIME_FACTOR: f64 = 4.0;

/// One table cell: the measured cost and what the simulator charges for it.
#[derive(Debug, Clone, Copy)]
struct Entry {
    raw: MsgCost,
    sim: MsgCost,
}

/// Maps `(codec, message kind)` to measured costs: a dense table indexed by
/// the two enums' discriminants, so the per-message lookups on the
/// simulator's hot path are one bounds-checked load.
#[derive(Debug, Clone)]
pub struct CostTable {
    cells: Vec<Option<Entry>>,
    len: usize,
}

impl Default for CostTable {
    fn default() -> Self {
        CostTable {
            cells: vec![None; CodecKind::ALL.len() * MessageKind::ALL.len()],
            len: 0,
        }
    }
}

fn cell(codec: CodecKind, kind: MessageKind) -> usize {
    codec as usize * MessageKind::ALL.len() + kind as usize
}

impl CostTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an entry. The simulator's charge is derived here, once:
    /// [`ASN1C_RUNTIME_FACTOR`] applied to ASN.1 PER entries to model the
    /// asn1c runtime the paper's baselines run.
    pub fn insert(&mut self, codec: CodecKind, kind: MessageKind, cost: MsgCost) {
        let sim = if codec == CodecKind::Asn1Per {
            MsgCost {
                encode: cost.encode.mul_f64(ASN1C_RUNTIME_FACTOR),
                access: cost.access.mul_f64(ASN1C_RUNTIME_FACTOR),
                wire_bytes: cost.wire_bytes,
            }
        } else {
            cost
        };
        if self.cells[cell(codec, kind)]
            .replace(Entry { raw: cost, sim })
            .is_none()
        {
            self.len += 1;
        }
    }

    /// Looks up an entry.
    pub fn get(&self, codec: CodecKind, kind: MessageKind) -> Option<MsgCost> {
        self.cells[cell(codec, kind)].map(|e| e.raw)
    }

    /// Looks up an entry, erroring with context when missing.
    pub fn cost(&self, codec: CodecKind, kind: MessageKind) -> Result<MsgCost> {
        self.get(codec, kind)
            .ok_or_else(|| Error::config(format!("no calibrated cost for {codec}/{kind}")))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Measures a fresh table for the given codecs over every message kind,
    /// using each kind's [`sample`](MessageKind::sample).
    pub fn measure_for(codecs: &[CodecKind], opts: CalibrationOptions) -> Result<CostTable> {
        let mut table = CostTable::new();
        for &codec_kind in codecs {
            let codec = codec_kind.codec();
            for &kind in MessageKind::ALL {
                let schema = kind.schema();
                if !codec.supports(&schema) {
                    continue;
                }
                let value = kind.sample(1).to_value();
                let cost = measure(codec, &schema, &value, opts)?;
                table.insert(codec_kind, kind, cost);
            }
        }
        Ok(table)
    }

    /// The cost the *simulator* charges for a message: the measured cost
    /// with the asn1c emulation factor pre-applied (see [`CostTable::insert`]).
    pub fn sim_cost(&self, codec: CodecKind, kind: MessageKind) -> Result<MsgCost> {
        self.cells[cell(codec, kind)]
            .map(|e| e.sim)
            .ok_or_else(|| Error::config(format!("no calibrated cost for {codec}/{kind}")))
    }

    /// The baked-in table measured on the development machine (see module
    /// docs). Covers the codecs the system configurations use: ASN.1 PER
    /// (existing EPC / DPCM / SkyCore) and fastbuf standard + optimized
    /// (Neutrino).
    pub fn baked() -> &'static CostTable {
        static TABLE: OnceLock<CostTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut t = CostTable::new();
            for row in BAKED {
                t.insert(
                    row.codec,
                    row.kind,
                    MsgCost::from_nanos(row.encode_ns, row.access_ns, row.wire_bytes),
                );
            }
            t
        })
    }
}

/// Baked serialization costs of a [`UeState`](crate::state::UeState)
/// checkpoint, per codec — what replicas pay to apply a sync and what the
/// sync occupies on the wire. Regenerate together with `BAKED` (the
/// generator prints these too).
pub fn state_sync_cost(codec: CodecKind) -> MsgCost {
    // Measured by `regen_state_sync_costs` (release mode, dev machine);
    // the ASN.1 entry carries the asn1c runtime factor like `sim_cost`.
    match codec {
        CodecKind::Asn1Per => MsgCost::from_nanos(
            (632.0 * ASN1C_RUNTIME_FACTOR) as u64,
            (1078.0 * ASN1C_RUNTIME_FACTOR) as u64,
            127,
        ),
        CodecKind::Fastbuf => MsgCost::from_nanos(642, 552, 320),
        _ => MsgCost::from_nanos(644, 558, 320),
    }
}

struct BakedRow {
    codec: CodecKind,
    kind: MessageKind,
    encode_ns: u64,
    access_ns: u64,
    wire_bytes: usize,
}

const fn row(
    codec: CodecKind,
    kind: MessageKind,
    encode_ns: u64,
    access_ns: u64,
    wire_bytes: usize,
) -> BakedRow {
    BakedRow {
        codec,
        kind,
        encode_ns,
        access_ns,
        wire_bytes,
    }
}

// Generated by `regen_baked_cost_table` (see module docs). Units: ns, ns,
// bytes. Measured in release mode on the development machine (median of 9
// batches x 2000 iterations per message).
#[rustfmt::skip]
const BAKED: &[BakedRow] = &{
    use CodecKind::{Asn1Per as PER, Fastbuf as FB, FastbufOptimized as FBO};
    use MessageKind as K;
    [
    row(PER, K::AttachRequest,                  260,   468, 51),
    row(PER, K::AttachAccept,                   305,   567, 74),
    row(PER, K::AttachComplete,                  59,   112, 13),
    row(PER, K::ServiceRequest,                  70,   136, 7),
    row(PER, K::ServiceAccept,                   53,   144, 3),
    row(PER, K::TauRequest,                     101,   198, 10),
    row(PER, K::TauAccept,                      171,   347, 12),
    row(PER, K::DetachRequest,                   47,    94, 5),
    row(PER, K::DetachAccept,                    34,    70, 1),
    row(PER, K::AuthenticationRequest,          123,   183, 34),
    row(PER, K::AuthenticationResponse,          51,    96, 9),
    row(PER, K::SecurityModeCommand,             99,   238, 7),
    row(PER, K::SecurityModeComplete,            23,    65, 1),
    row(PER, K::InitialUeMessage,               247,   508, 92),
    row(PER, K::InitialContextSetupRequest,     546,   835, 129),
    row(PER, K::InitialContextSetupResponse,    232,   422, 28),
    row(PER, K::ERabSetupRequest,               198,   350, 19),
    row(PER, K::ERabSetupResponse,              171,   279, 18),
    row(PER, K::UplinkNasTransport,             207,   351, 44),
    row(PER, K::DownlinkNasTransport,            95,   189, 48),
    row(PER, K::HandoverRequired,               309,   538, 142),
    row(PER, K::HandoverRequest,                436,   695, 187),
    row(PER, K::HandoverRequestAck,             211,   410, 98),
    row(PER, K::HandoverCommand,                123,   275, 89),
    row(PER, K::HandoverNotify,                 172,   276, 19),
    row(PER, K::UeContextReleaseCommand,         54,   121, 6),
    row(PER, K::UeContextReleaseComplete,        47,    92, 7),
    row(PER, K::Paging,                         215,   402, 17),
    row(FB,  K::AttachRequest,                  223,   238, 116),
    row(FB,  K::AttachAccept,                   249,   294, 172),
    row(FB,  K::AttachComplete,                  61,    46, 36),
    row(FB,  K::ServiceRequest,                  84,    58, 28),
    row(FB,  K::ServiceAccept,                   87,    40, 28),
    row(FB,  K::TauRequest,                     125,    90, 52),
    row(FB,  K::TauAccept,                      168,   142, 80),
    row(FB,  K::DetachRequest,                   65,    42, 21),
    row(FB,  K::DetachAccept,                    53,    26, 17),
    row(FB,  K::AuthenticationRequest,           83,    77, 72),
    row(FB,  K::AuthenticationResponse,          50,    28, 32),
    row(FB,  K::SecurityModeCommand,            121,    97, 36),
    row(FB,  K::SecurityModeComplete,            47,    15, 16),
    row(FB,  K::InitialUeMessage,               220,   292, 196),
    row(FB,  K::InitialContextSetupRequest,     465,   490, 280),
    row(FB,  K::InitialContextSetupResponse,    218,   198, 116),
    row(FB,  K::ERabSetupRequest,               187,   176, 80),
    row(FB,  K::ERabSetupResponse,              157,   128, 76),
    row(FB,  K::UplinkNasTransport,             184,   184, 112),
    row(FB,  K::DownlinkNasTransport,            78,   106, 76),
    row(FB,  K::HandoverRequired,               231,   381, 220),
    row(FB,  K::HandoverRequest,                303,   461, 300),
    row(FB,  K::HandoverRequestAck,             162,   254, 164),
    row(FB,  K::HandoverCommand,                 87,   189, 120),
    row(FB,  K::HandoverNotify,                 169,   145, 76),
    row(FB,  K::UeContextReleaseCommand,         84,    68, 48),
    row(FB,  K::UeContextReleaseComplete,        64,    43, 24),
    row(FB,  K::Paging,                         184,   173, 101),
    row(FBO, K::AttachRequest,                  223,   238, 116),
    row(FBO, K::AttachAccept,                   256,   302, 172),
    row(FBO, K::AttachComplete,                  60,    44, 36),
    row(FBO, K::ServiceRequest,                  84,    58, 28),
    row(FBO, K::ServiceAccept,                   84,    40, 28),
    row(FBO, K::TauRequest,                     121,    93, 52),
    row(FBO, K::TauAccept,                      168,   137, 80),
    row(FBO, K::DetachRequest,                   63,    42, 21),
    row(FBO, K::DetachAccept,                    55,    26, 17),
    row(FBO, K::AuthenticationRequest,           83,    77, 72),
    row(FBO, K::AuthenticationResponse,          50,    28, 32),
    row(FBO, K::SecurityModeCommand,            125,    96, 36),
    row(FBO, K::SecurityModeComplete,            46,    16, 16),
    row(FBO, K::InitialUeMessage,               204,   286, 184),
    row(FBO, K::InitialContextSetupRequest,     459,   491, 280),
    row(FBO, K::InitialContextSetupResponse,    221,   197, 116),
    row(FBO, K::ERabSetupRequest,               187,   181, 80),
    row(FBO, K::ERabSetupResponse,              158,   134, 76),
    row(FBO, K::UplinkNasTransport,             183,   184, 112),
    row(FBO, K::DownlinkNasTransport,            83,   107, 76),
    row(FBO, K::HandoverRequired,               224,   386, 220),
    row(FBO, K::HandoverRequest,                298,   462, 300),
    row(FBO, K::HandoverRequestAck,             159,   253, 164),
    row(FBO, K::HandoverCommand,                 87,   189, 120),
    row(FBO, K::HandoverNotify,                 173,   144, 76),
    row(FBO, K::UeContextReleaseCommand,         81,    61, 40),
    row(FBO, K::UeContextReleaseComplete,        65,    43, 24),
    row(FBO, K::Paging,                         176,   163, 93),
    ]
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baked_table_covers_all_kinds_for_sim_codecs() {
        let t = CostTable::baked();
        for &kind in MessageKind::ALL {
            for codec in [
                CodecKind::Asn1Per,
                CodecKind::Fastbuf,
                CodecKind::FastbufOptimized,
            ] {
                assert!(
                    t.get(codec, kind).is_some(),
                    "missing baked cost for {codec}/{kind}"
                );
            }
        }
    }

    #[test]
    fn sim_cost_scales_per_entries_only() {
        let t = CostTable::baked();
        assert_eq!(t.len(), BAKED.len());
        for &kind in MessageKind::ALL {
            let raw = t.cost(CodecKind::Asn1Per, kind).unwrap();
            let sim = t.sim_cost(CodecKind::Asn1Per, kind).unwrap();
            assert_eq!(sim.encode, raw.encode.mul_f64(ASN1C_RUNTIME_FACTOR));
            assert_eq!(sim.access, raw.access.mul_f64(ASN1C_RUNTIME_FACTOR));
            assert_eq!(sim.wire_bytes, raw.wire_bytes);
            let raw = t.cost(CodecKind::FastbufOptimized, kind).unwrap();
            let sim = t.sim_cost(CodecKind::FastbufOptimized, kind).unwrap();
            assert_eq!((sim.encode, sim.access), (raw.encode, raw.access));
        }
        assert!(t.sim_cost(CodecKind::Cdr, MessageKind::Paging).is_err());
    }

    #[test]
    fn baked_asn1_is_slower_than_fastbuf_everywhere() {
        // The premise of §4.4, at the simulator's charge (asn1c-emulated):
        // regenerate the table if this ever fails. Raw clean-room PER may
        // tie fastbuf on tiny byte-dominated messages, which is fine.
        let t = CostTable::baked();
        for &kind in MessageKind::ALL {
            let per = t.sim_cost(CodecKind::Asn1Per, kind).unwrap();
            let fbo = t.sim_cost(CodecKind::FastbufOptimized, kind).unwrap();
            assert!(
                per.total() > fbo.total(),
                "{kind}: ASN.1 {:?} must exceed fastbuf-opt {:?}",
                per.total(),
                fbo.total()
            );
            assert!(
                per.wire_bytes <= fbo.wire_bytes,
                "{kind}: PER must not be larger on the wire"
            );
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "codec speed ratios only hold with optimizations; run with --release"
    )]
    fn measured_table_matches_baked_shape() {
        // A quick live measurement must agree with the baked table on the
        // key *ordering* (not absolute values): PER slower than fastbuf-opt.
        // Host noise only ever adds time, so each cell is its fastest batch
        // of thirty, and the thirty are spread over as many passes of the
        // whole table: a preemption, a cold cache after one, or a slow
        // stretch of the host moves a median of three back-to-back batches
        // (the flake this replaced), but not the minimum of batches it
        // missed.
        let opts = CalibrationOptions {
            iters_per_batch: 60,
            batches: 1,
            warmup_iters: 20,
        };
        let codecs = [CodecKind::Asn1Per, CodecKind::FastbufOptimized];
        let tables: Vec<CostTable> = (0..30)
            .map(|_| CostTable::measure_for(&codecs, opts).unwrap())
            .collect();
        let fastest = |codec, kind| {
            tables
                .iter()
                .map(|t: &CostTable| t.cost(codec, kind).unwrap().total())
                .min()
                .unwrap()
        };
        let mut per_faster = 0;
        let mut checked = 0;
        for &kind in MessageKind::ALL {
            checked += 1;
            if fastest(CodecKind::Asn1Per, kind) <= fastest(CodecKind::FastbufOptimized, kind) {
                per_faster += 1;
            }
        }
        // Allow a little scheduler noise on tiny messages, but the trend
        // must be unmistakable.
        assert!(
            per_faster * 5 <= checked,
            "PER out-performed fastbuf-opt on {per_faster}/{checked} kinds"
        );
    }

    /// Regenerates the `BAKED` table. Run with:
    /// `cargo test -p neutrino-messages --release regen_baked_cost_table -- --ignored --nocapture`
    #[test]
    #[ignore = "generator, run manually to refresh BAKED"]
    fn regen_baked_cost_table() {
        let opts = CalibrationOptions::default();
        let codecs = [
            (CodecKind::Asn1Per, "PER"),
            (CodecKind::Fastbuf, "FB "),
            (CodecKind::FastbufOptimized, "FBO"),
        ];
        for (codec, label) in codecs {
            let t = CostTable::measure_for(&[codec], opts).unwrap();
            for &kind in MessageKind::ALL {
                if let Some(c) = t.get(codec, kind) {
                    println!(
                        "    row({label}, K::{:<28} {:>6}, {:>5}, {}),",
                        format!("{},", kind.name()),
                        c.encode.as_nanos(),
                        c.access.as_nanos(),
                        c.wire_bytes
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod state_cost_tests {
    use super::*;
    use crate::state::UeState;
    use crate::wire::Wire;

    /// Prints measured UeState costs; paste into `state_sync_cost`.
    #[test]
    #[ignore = "generator, run manually"]
    fn regen_state_sync_costs() {
        let opts = CalibrationOptions::default();
        for codec in [
            CodecKind::Asn1Per,
            CodecKind::Fastbuf,
            CodecKind::FastbufOptimized,
        ] {
            let inst = codec.codec();
            let schema = UeState::schema();
            let value = UeState::sample(1).to_value();
            let c = measure(inst, &schema, &value, opts).unwrap();
            println!(
                "{codec}: encode={} access={} bytes={}",
                c.encode.as_nanos(),
                c.access.as_nanos(),
                c.wire_bytes
            );
        }
    }
}
