//! The replicated UE state and its wire form.
//!
//! §4.2: "This CPF is responsible for updating and storing the UE state
//! (which includes the BS ID, data plane endpoint identifiers, and user
//! tracking area)." [`UeState`] is that record; it is what the primary CPF
//! checkpoints to its backups after every procedure, and what a backup must
//! hold (or reconstruct by replay) before it may serve the UE.

use crate::ies::Tai;
use crate::wire::{list_of, optional, wire_struct, WireField};
use neutrino_codec::schema::{FieldType, SchemaBuilder};
use neutrino_codec::sink::{FieldSink, FieldSource};
use neutrino_common::clock::ClockTick;
use neutrino_common::{BsId, ProcedureId, Result, SessionId, UeId, UpfId};

/// Version of a UE state snapshot: which procedure produced it and the
/// logical clock of that procedure's last message.
///
/// Orders totally per UE: procedures are sequential, and within a procedure
/// the clock increases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateVersion {
    /// The procedure whose completion produced this snapshot.
    pub procedure: ProcedureId,
    /// Logical clock of the last message of that procedure.
    pub clock: ClockTick,
}

impl StateVersion {
    /// The version before any procedure ran.
    pub const INITIAL: StateVersion = StateVersion {
        procedure: ProcedureId(0),
        clock: ClockTick(0),
    };
}

/// An id or a clock streams as the integer it wraps.
macro_rules! id_wire_field {
    ($($t:ty),+) => {$(
        impl WireField for $t {
            fn put_field(&self, ty: &FieldType, sink: &mut dyn FieldSink) -> Result<()> {
                sink.uint(ty, self.raw())
            }

            fn take_field(ty: &FieldType, src: &mut dyn FieldSource, _: bool) -> Result<Self> {
                Ok(Self(src.uint(ty)?))
            }
        }
    )+};
}
id_wire_field!(UeId, BsId, UpfId, SessionId, ProcedureId, ClockTick);

/// A version is flattened into its struct: a field `f` declared with one
/// type is two wire fields of that type, `f_procedure` and `f_clock`.
impl WireField for StateVersion {
    const SPAN: usize = 2;

    fn declare(schema: SchemaBuilder, name: &str, ty: FieldType) -> SchemaBuilder {
        schema
            .field(format!("{name}_procedure"), ty.clone())
            .field(format!("{name}_clock"), ty)
    }

    fn put_field(&self, ty: &FieldType, sink: &mut dyn FieldSink) -> Result<()> {
        self.procedure.put_field(ty, sink)?;
        self.clock.put_field(ty, sink)
    }

    fn take_field(ty: &FieldType, src: &mut dyn FieldSource, _: bool) -> Result<Self> {
        Ok(StateVersion {
            procedure: ProcedureId::take_field(ty, src, true)?,
            clock: ClockTick::take_field(ty, src, true)?,
        })
    }
}

wire_struct! {
    /// One established bearer in the UE's session.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct BearerContext {
        /// E-RAB id.
        pub erab_id: u8 = FieldType::Constrained { lo: 0, hi: 15 },
        /// QoS class.
        pub qci: u8 = FieldType::Constrained { lo: 1, hi: 9 },
        /// Uplink GTP TEID (on the UPF).
        pub teid_uplink: u32 = FieldType::UInt { bits: 32 },
        /// Downlink GTP TEID (on the BS).
        pub teid_downlink: u32 = FieldType::UInt { bits: 32 },
    }
    fn sample(seed) {
        BearerContext {
            erab_id: (seed % 16) as u8,
            qci: 1 + (seed % 9) as u8,
            teid_uplink: (seed & 0xFFFF_FFFF) as u32,
            teid_downlink: ((seed >> 8) & 0xFFFF_FFFF) as u32,
        }
    }
}

wire_struct! {
    /// The complete per-UE control state a CPF maintains and replicates.
    #[derive(Debug, Clone, PartialEq)]
    pub struct UeState {
        /// Network-internal UE id (equal-valued with the S1AP id, §4.3 fn. 15).
        pub ue: UeId = FieldType::UInt { bits: 64 },
        /// Current M-TMSI.
        pub tmsi: u32 = FieldType::UInt { bits: 32 },
        /// Whether the UE is attached.
        pub attached: bool = FieldType::Bool,
        /// Whether the UE is in connected (vs idle) RRC state.
        pub connected: bool = FieldType::Bool,
        /// Serving base station.
        pub serving_bs: BsId = FieldType::UInt { bits: 64 },
        /// Serving UPF.
        pub serving_upf: UpfId = FieldType::UInt { bits: 64 },
        /// Data session on the UPF, when established.
        pub session: Option<SessionId> = optional(FieldType::UInt { bits: 64 }),
        /// Current tracking area.
        pub tai: Tai = Tai::field_type(),
        /// Tracking-area list granted to the UE — must match the UE's copy
        /// (§3.1's consistency example).
        pub tai_list: Vec<Tai> = list_of(Tai::field_type(), 16),
        /// Established bearers.
        pub bearers: Vec<BearerContext> = list_of(BearerContext::field_type(), 16),
        /// Security key material.
        pub security_key: Vec<u8> = FieldType::Bytes { max: Some(64) },
        /// Version of this snapshot: `version_procedure`, `version_clock`.
        pub version: StateVersion = FieldType::UInt { bits: 64 },
    }
    fn sample(seed) {
        UeState {
            ue: UeId::new(seed),
            tmsi: (seed & 0xFFFF_FFFF) as u32,
            attached: true,
            connected: seed.is_multiple_of(2),
            serving_bs: BsId::new(seed % 64),
            serving_upf: UpfId::new(seed % 8),
            session: Some(SessionId::new(seed.wrapping_mul(3))),
            tai: Tai::sample(seed),
            tai_list: (0..3).map(|i| Tai::sample(seed + i)).collect(),
            bearers: (0..2).map(|i| BearerContext::sample(seed + i)).collect(),
            security_key: (0..32).map(|i| (seed as u8).wrapping_add(i)).collect(),
            version: StateVersion {
                procedure: ProcedureId::new(seed % 100 + 1),
                clock: ClockTick(seed % 1000 + 1),
            },
        }
    }
}

impl UeState {
    /// A fresh state for a UE that has just started its first attach.
    pub fn new(ue: UeId, serving_bs: BsId, serving_upf: UpfId, tai: Tai) -> Self {
        UeState {
            ue,
            tmsi: (ue.raw() & 0xFFFF_FFFF) as u32,
            attached: false,
            connected: false,
            serving_bs,
            serving_upf,
            session: None,
            tai,
            tai_list: vec![tai],
            bearers: Vec::new(),
            security_key: Vec::new(),
            version: StateVersion::INITIAL,
        }
    }

    /// Bumps the version after a procedure completes.
    pub fn commit(&mut self, procedure: ProcedureId, clock: ClockTick) {
        self.version = StateVersion { procedure, clock };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::testutil::round_trip_all_codecs;
    use crate::wire::Wire;

    #[test]
    fn ue_state_round_trips() {
        round_trip_all_codecs(&UeState::sample(2)); // connected
        round_trip_all_codecs(&UeState::sample(3)); // idle
    }

    #[test]
    fn versions_order_by_procedure_then_clock() {
        let a = StateVersion {
            procedure: ProcedureId::new(1),
            clock: ClockTick(10),
        };
        let b = StateVersion {
            procedure: ProcedureId::new(1),
            clock: ClockTick(11),
        };
        let c = StateVersion {
            procedure: ProcedureId::new(2),
            clock: ClockTick(5),
        };
        assert!(a < b);
        assert!(b < c);
        assert!(StateVersion::INITIAL < a);
    }

    #[test]
    fn commit_advances_version() {
        let mut s = UeState::new(UeId::new(1), BsId::new(2), UpfId::new(3), Tai::sample(0));
        assert_eq!(s.version, StateVersion::INITIAL);
        s.commit(ProcedureId::FIRST, ClockTick(4));
        assert_eq!(s.version.procedure, ProcedureId::FIRST);
        assert_eq!(s.version.clock, ClockTick(4));
    }

    #[test]
    fn fresh_state_is_unattached() {
        let s = UeState::new(UeId::new(9), BsId::new(1), UpfId::new(1), Tai::sample(1));
        assert!(!s.attached);
        assert!(!s.connected);
        assert!(s.session.is_none());
        assert!(s.bearers.is_empty());
    }
}
