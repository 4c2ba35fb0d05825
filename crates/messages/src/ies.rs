//! Common information elements (IEs) shared by NAS and S1AP messages.
//!
//! Field layouts follow TS 36.413 / TS 24.301 closely enough that the
//! serialization benchmarks exercise the same structure the paper measured:
//! nested SEQUENCEs, small constrained integers, octet strings for
//! transport containers, and CHOICEs for UE identities.

use crate::wire::{optional, wire_struct, WireField};
use neutrino_codec::schema::{FieldType, Variant};
use neutrino_codec::sink::{FieldSink, FieldSource};
use neutrino_common::{Error, Result};

wire_struct! {
    /// Tracking Area Identity: PLMN (3 octets worth) + 16-bit TAC.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct Tai {
        /// Packed MCC/MNC (3 octets of BCD in real networks; carried as u32).
        pub plmn: u32 = FieldType::Constrained { lo: 0, hi: 0xFF_FFFF },
        /// Tracking area code.
        pub tac: u16 = FieldType::UInt { bits: 16 },
    }
    fn sample(seed) {
        Tai {
            plmn: 0x13_00_14, // mcc 310 / mnc 410 style packing
            tac: (seed % 0xFFFF) as u16,
        }
    }
}

wire_struct! {
    /// E-UTRAN Cell Global Identifier: PLMN + 28-bit cell id.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct Cgi {
        /// Packed MCC/MNC.
        pub plmn: u32 = FieldType::Constrained { lo: 0, hi: 0xFF_FFFF },
        /// 28-bit cell identity (eNB id + cell within eNB).
        pub cell_id: u32 = FieldType::Constrained { lo: 0, hi: 0x0FFF_FFFF },
    }
    fn sample(seed) {
        Cgi {
            plmn: 0x13_00_14,
            cell_id: (seed.wrapping_mul(2654435761) % 0x0FFF_FFFF) as u32,
        }
    }
}

/// UE identity CHOICE: S-TMSI (the common case) or IMSI digits — the union
/// shape the svtable optimization targets.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum UeIdentity {
    /// Temporary identity: MME code + M-TMSI.
    STmsi(u32),
    /// Permanent identity as a decimal digit string.
    Imsi(String),
}

impl UeIdentity {
    /// The CHOICE field type.
    pub fn field_type() -> FieldType {
        FieldType::Choice(vec![
            Variant {
                name: "s_tmsi".into(),
                ty: FieldType::UInt { bits: 32 },
            },
            Variant {
                name: "imsi".into(),
                ty: FieldType::Utf8 { max: Some(15) },
            },
        ])
    }
}

impl WireField for UeIdentity {
    fn put_field(&self, ty: &FieldType, sink: &mut dyn FieldSink) -> Result<()> {
        match self {
            UeIdentity::STmsi(t) => {
                sink.choice(ty, 0)?;
                t.put_field(ty.variant(0)?, sink)
            }
            UeIdentity::Imsi(s) => {
                sink.choice(ty, 1)?;
                s.put_field(ty.variant(1)?, sink)
            }
        }
    }

    fn take_field(ty: &FieldType, src: &mut dyn FieldSource, _: bool) -> Result<Self> {
        match src.choice(ty)? {
            0 => u32::take_field(ty.variant(0)?, src, true).map(UeIdentity::STmsi),
            1 => String::take_field(ty.variant(1)?, src, true).map(UeIdentity::Imsi),
            other => Err(Error::schema(format!("no identity variant {other}"))),
        }
    }
}

wire_struct! {
    /// An E-RAB (bearer) requested for setup.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ErabToSetup {
        /// E-RAB id (0..=15).
        pub erab_id: u8 = FieldType::Constrained { lo: 0, hi: 15 },
        /// QoS class identifier (1..=9).
        pub qci: u8 = FieldType::Constrained { lo: 1, hi: 9 },
        /// Allocation/retention priority (1..=15).
        pub arp: u8 = FieldType::Constrained { lo: 1, hi: 15 },
        /// Transport layer address of the UPF endpoint (4 or 16 octets).
        pub transport_address: Vec<u8> = FieldType::Bytes { max: Some(16) },
        /// GTP tunnel endpoint id on the UPF.
        pub gtp_teid: u32 = FieldType::UInt { bits: 32 },
        /// Piggy-backed NAS PDU, when present.
        pub nas_pdu: Option<Vec<u8>> = optional(FieldType::Bytes { max: None }),
    }
    fn sample(seed) {
        ErabToSetup {
            erab_id: (seed % 16) as u8,
            qci: 1 + (seed % 9) as u8,
            arp: 1 + (seed % 15) as u8,
            transport_address: vec![10, 0, (seed >> 8) as u8, seed as u8],
            gtp_teid: (seed.wrapping_mul(0x9E3779B9) & 0xFFFF_FFFF) as u32,
            nas_pdu: if seed.is_multiple_of(2) {
                Some(vec![0x27; 46]) // typical piggy-backed activate-default-bearer
            } else {
                None
            },
        }
    }
}

wire_struct! {
    /// An E-RAB successfully set up (response list item).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ErabSetupItem {
        /// E-RAB id.
        pub erab_id: u8 = FieldType::Constrained { lo: 0, hi: 15 },
        /// Transport layer address of the eNB endpoint.
        pub transport_address: Vec<u8> = FieldType::Bytes { max: Some(16) },
        /// GTP tunnel endpoint id on the eNB.
        pub gtp_teid: u32 = FieldType::UInt { bits: 32 },
    }
    fn sample(seed) {
        ErabSetupItem {
            erab_id: (seed % 16) as u8,
            transport_address: vec![10, 1, (seed >> 8) as u8, seed as u8],
            gtp_teid: (seed.wrapping_mul(0x85EB_CA6B) & 0xFFFF_FFFF) as u32,
        }
    }
}

wire_struct! {
    /// An E-RAB that failed to set up.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ErabFailedItem {
        /// E-RAB id.
        pub erab_id: u8 = FieldType::Constrained { lo: 0, hi: 15 },
        /// Failure cause code.
        pub cause: u8 = FieldType::Enum { variants: 16 },
    }
    fn sample(seed) {
        ErabFailedItem {
            erab_id: (seed % 16) as u8,
            cause: (seed % 16) as u8,
        }
    }
}

wire_struct! {
    /// UE aggregate maximum bit rate (downlink + uplink, bits/s).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct UeAmbr {
        /// Downlink AMBR.
        pub downlink: u64 = FieldType::UInt { bits: 64 },
        /// Uplink AMBR.
        pub uplink: u64 = FieldType::UInt { bits: 64 },
    }
    fn sample(_seed) {
        UeAmbr {
            downlink: 1_000_000_000,
            uplink: 500_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::testutil::round_trip_all_codecs;
    use crate::wire::Wire;

    #[test]
    fn tai_round_trips() {
        round_trip_all_codecs(&Tai::sample(7));
    }

    #[test]
    fn cgi_round_trips() {
        round_trip_all_codecs(&Cgi::sample(12345));
    }

    #[test]
    fn erab_to_setup_round_trips_with_and_without_pdu() {
        round_trip_all_codecs(&ErabToSetup::sample(2)); // even seed → pdu present
        round_trip_all_codecs(&ErabToSetup::sample(3)); // odd seed → absent
    }

    #[test]
    fn erab_setup_item_round_trips() {
        round_trip_all_codecs(&ErabSetupItem::sample(99));
    }

    #[test]
    fn erab_failed_item_round_trips() {
        round_trip_all_codecs(&ErabFailedItem::sample(5));
    }

    #[test]
    fn ue_ambr_round_trips() {
        round_trip_all_codecs(&UeAmbr::sample(0));
    }

    #[test]
    fn ue_identity_choice_values() {
        use neutrino_codec::schema::StructSchema;
        use neutrino_codec::CodecKind;
        let ty = UeIdentity::field_type();
        let schema = StructSchema::builder("Id").field("id", ty.clone()).build();
        for id in [
            UeIdentity::STmsi(0xDEAD_BEEF),
            UeIdentity::Imsi("310410123456789".into()),
        ] {
            for kind in CodecKind::ALL.into_iter().filter(|k| *k != CodecKind::Lcm) {
                let codec = kind.codec();
                let mut image = Vec::new();
                codec
                    .encode_with(&schema, &mut image, &mut |sink| {
                        sink.begin_struct(&schema)?;
                        id.put_field(&ty, sink)?;
                        sink.end_struct()
                    })
                    .unwrap();
                codec
                    .decode_with(&schema, &image, &mut |src| {
                        src.begin_struct(&schema)?;
                        assert_eq!(UeIdentity::take_field(&ty, src, true)?, id, "{kind}");
                        src.end_struct()
                    })
                    .unwrap();
            }
        }
    }
}
