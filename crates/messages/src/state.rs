//! The replicated UE state and its wire form.
//!
//! §4.2: "This CPF is responsible for updating and storing the UE state
//! (which includes the BS ID, data plane endpoint identifiers, and user
//! tracking area)." [`UeState`] is that record; it is what the primary CPF
//! checkpoints to its backups after every procedure, and what a backup must
//! hold (or reconstruct by replay) before it may serve the UE.

use crate::ies::Tai;
use crate::wire::{fields, list_of, optional, wire_struct, Wire, WireField};
use neutrino_codec::value::{FieldType, Schema, StructSchema, Value};
use neutrino_common::clock::ClockTick;
use neutrino_common::{BsId, ProcedureId, Result, SessionId, UeId, UpfId};
use std::sync::{Arc, OnceLock};

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

/// The complete per-UE control state a CPF maintains and replicates.
#[derive(Debug, Clone, PartialEq)]
pub struct UeState {
    /// Network-internal UE id (equal-valued with the S1AP id, §4.3 fn. 15).
    pub ue: UeId,
    /// Current M-TMSI.
    pub tmsi: u32,
    /// Whether the UE is attached.
    pub attached: bool,
    /// Whether the UE is in connected (vs idle) RRC state.
    pub connected: bool,
    /// Serving base station.
    pub serving_bs: BsId,
    /// Serving UPF.
    pub serving_upf: UpfId,
    /// Data session on the UPF, when established.
    pub session: Option<SessionId>,
    /// Current tracking area.
    pub tai: Tai,
    /// Tracking-area list granted to the UE — must match the UE's copy
    /// (§3.1's consistency example).
    pub tai_list: Vec<Tai>,
    /// Established bearers.
    pub bearers: Vec<BearerContext>,
    /// Security key material.
    pub security_key: Vec<u8>,
    /// Version of this snapshot.
    pub version: StateVersion,
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

impl Wire for UeState {
    fn schema() -> Arc<Schema> {
        static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
        SCHEMA
            .get_or_init(|| {
                Arc::new(
                    StructSchema::builder("UeState")
                        .field("ue", FieldType::UInt { bits: 64 })
                        .field("tmsi", FieldType::UInt { bits: 32 })
                        .field("attached", FieldType::Bool)
                        .field("connected", FieldType::Bool)
                        .field("serving_bs", FieldType::UInt { bits: 64 })
                        .field("serving_upf", FieldType::UInt { bits: 64 })
                        .field("session", optional(FieldType::UInt { bits: 64 }))
                        .field("tai", Tai::field_type())
                        .field("tai_list", list_of(Tai::field_type(), 16))
                        .field("bearers", list_of(BearerContext::field_type(), 16))
                        .field("security_key", FieldType::Bytes { max: Some(64) })
                        .field("version_procedure", FieldType::UInt { bits: 64 })
                        .field("version_clock", FieldType::UInt { bits: 64 })
                        .build(),
                )
            })
            .clone()
    }

    fn to_value(&self) -> Value {
        Value::Struct(vec![
            self.ue.raw().to_field(),
            self.tmsi.to_field(),
            self.attached.to_field(),
            self.connected.to_field(),
            self.serving_bs.raw().to_field(),
            self.serving_upf.raw().to_field(),
            self.session.map(SessionId::raw).to_field(),
            self.tai.to_field(),
            self.tai_list.to_field(),
            self.bearers.to_field(),
            self.security_key.to_field(),
            self.version.procedure.raw().to_field(),
            self.version.clock.raw().to_field(),
        ])
    }

    fn from_value(v: &Value) -> Result<Self> {
        const M: &str = "UeState";
        let f: &[Value; 13] = fields(v, M)?;
        Ok(UeState {
            ue: UeId::new(u64::from_field(&f[0], M, "ue")?),
            tmsi: u32::from_field(&f[1], M, "tmsi")?,
            attached: bool::from_field(&f[2], M, "attached")?,
            connected: bool::from_field(&f[3], M, "connected")?,
            serving_bs: BsId::new(u64::from_field(&f[4], M, "serving_bs")?),
            serving_upf: UpfId::new(u64::from_field(&f[5], M, "serving_upf")?),
            session: Option::<u64>::from_field(&f[6], M, "session")?.map(SessionId::new),
            tai: Tai::from_field(&f[7], M, "tai")?,
            tai_list: Vec::from_field(&f[8], M, "tai_list")?,
            bearers: Vec::from_field(&f[9], M, "bearers")?,
            security_key: Vec::from_field(&f[10], M, "security_key")?,
            version: StateVersion {
                procedure: ProcedureId::new(u64::from_field(&f[11], M, "version_procedure")?),
                clock: ClockTick(u64::from_field(&f[12], M, "version_clock")?),
            },
        })
    }

    fn sample(seed: u64) -> Self {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::testutil::round_trip_all_codecs;

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
