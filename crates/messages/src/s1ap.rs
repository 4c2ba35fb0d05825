//! S1AP (TS 36.413) messages: the BS ↔ CPF dialogue.
//!
//! Includes the five messages Figs. 19–20 benchmark — `InitialUeMessage`,
//! `InitialContextSetupRequest`/`Response`, `ERabSetupRequest`/`Response` —
//! plus the handover family, NAS transport, context release, and paging.

use crate::ies::{Cgi, ErabFailedItem, ErabSetupItem, ErabToSetup, Tai, UeAmbr, UeIdentity};
use crate::wire::{in_field, list_of, optional, wire_struct, WireField};
use neutrino_codec::sink::{FieldSink, FieldSource};
use neutrino_codec::value::{FieldType, StructSchema, Variant};
use neutrino_common::{Error, Result};
use std::sync::Arc;

wire_struct! {
    /// S1AP Initial UE Message (BS → CPF): carries the first NAS PDU of a UE and
    /// the identity CHOICE the svtable optimization targets.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct InitialUeMessage {
        /// eNB-side UE S1AP id.
        pub enb_ue_id: u32 = FieldType::Constrained { lo: 0, hi: 0xFF_FFFF },
        /// Opaque NAS PDU (e.g. an encoded Attach Request).
        pub nas_pdu: Vec<u8> = FieldType::Bytes { max: None },
        /// Tracking area of the originating cell.
        pub tai: Tai = Tai::field_type(),
        /// Cell global identity of the originating cell.
        pub cgi: Cgi = Cgi::field_type(),
        /// RRC establishment cause.
        pub rrc_cause: u8 = FieldType::Enum { variants: 8 },
        /// UE identity (S-TMSI or IMSI) — a CHOICE of single fields.
        pub ue_identity: UeIdentity = UeIdentity::field_type(),
    }
    fn sample(seed) {
        InitialUeMessage {
            enb_ue_id: (seed % 0xFF_FFFF) as u32,
            nas_pdu: vec![0x41; 60], // encoded attach request
            tai: Tai::sample(seed),
            cgi: Cgi::sample(seed),
            rrc_cause: 3, // mo-Data
            ue_identity: if seed.is_multiple_of(2) {
                UeIdentity::STmsi((seed & 0xFFFF_FFFF) as u32)
            } else {
                UeIdentity::Imsi(format!("31041{:010}", seed % 10_000_000_000))
            },
        }
    }
}

wire_struct! {
    /// S1AP Initial Context Setup Request (CPF → BS): installs the UE context
    /// and bearers on the base station.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct InitialContextSetupRequest {
        /// MME-side UE S1AP id.
        pub mme_ue_id: u32 = FieldType::UInt { bits: 32 },
        /// eNB-side UE S1AP id.
        pub enb_ue_id: u32 = FieldType::Constrained { lo: 0, hi: 0xFF_FFFF },
        /// Aggregate maximum bit rate.
        pub ue_ambr: UeAmbr = UeAmbr::field_type(),
        /// Bearers to establish.
        pub erabs: Vec<ErabToSetup> = list_of(ErabToSetup::field_type(), 16),
        /// KeNB security key (32 octets).
        pub security_key: Vec<u8> = FieldType::Bytes { max: Some(32) },
        /// UE security capability bit flags.
        pub ue_security_capabilities: Vec<bool> = FieldType::BitString { max_bits: Some(32) },
        /// Handover restriction list, when roaming constraints apply.
        pub handover_restriction: Option<Vec<u8>> = optional(FieldType::Bytes { max: None }),
    }
    fn sample(seed) {
        InitialContextSetupRequest {
            mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
            enb_ue_id: (seed % 0xFF_FFFF) as u32,
            ue_ambr: UeAmbr::sample(seed),
            erabs: (0..2).map(|i| ErabToSetup::sample(seed + i)).collect(),
            security_key: (0..32).map(|i| (seed as u8).wrapping_add(i)).collect(),
            ue_security_capabilities: (0..16).map(|i| (seed >> i) & 1 == 1).collect(),
            handover_restriction: None,
        }
    }
}

wire_struct! {
    /// S1AP Initial Context Setup Response (BS → CPF).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct InitialContextSetupResponse {
        /// MME-side UE S1AP id.
        pub mme_ue_id: u32 = FieldType::UInt { bits: 32 },
        /// eNB-side UE S1AP id.
        pub enb_ue_id: u32 = FieldType::Constrained { lo: 0, hi: 0xFF_FFFF },
        /// Bearers successfully established.
        pub erabs_setup: Vec<ErabSetupItem> = list_of(ErabSetupItem::field_type(), 16),
        /// Bearers that failed, when any.
        pub erabs_failed: Option<Vec<ErabFailedItem>> =
            optional(list_of(ErabFailedItem::field_type(), 16)),
    }
    fn sample(seed) {
        InitialContextSetupResponse {
            mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
            enb_ue_id: (seed % 0xFF_FFFF) as u32,
            erabs_setup: (0..2).map(|i| ErabSetupItem::sample(seed + i)).collect(),
            erabs_failed: if seed.is_multiple_of(5) {
                Some(vec![ErabFailedItem::sample(seed)])
            } else {
                None
            },
        }
    }
}

wire_struct! {
    /// S1AP E-RAB Setup Request (CPF → BS): adds bearers to an existing context.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ERabSetupRequest {
        /// MME-side UE S1AP id.
        pub mme_ue_id: u32 = FieldType::UInt { bits: 32 },
        /// eNB-side UE S1AP id.
        pub enb_ue_id: u32 = FieldType::Constrained { lo: 0, hi: 0xFF_FFFF },
        /// Updated AMBR, when it changes.
        pub ue_ambr: Option<UeAmbr> = optional(UeAmbr::field_type()),
        /// Bearers to add.
        pub erabs: Vec<ErabToSetup> = list_of(ErabToSetup::field_type(), 16),
    }
    fn sample(seed) {
        ERabSetupRequest {
            mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
            enb_ue_id: (seed % 0xFF_FFFF) as u32,
            ue_ambr: if seed.is_multiple_of(2) {
                Some(UeAmbr::sample(seed))
            } else {
                None
            },
            erabs: vec![ErabToSetup::sample(seed)],
        }
    }
}

wire_struct! {
    /// S1AP E-RAB Setup Response (BS → CPF).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ERabSetupResponse {
        /// MME-side UE S1AP id.
        pub mme_ue_id: u32 = FieldType::UInt { bits: 32 },
        /// eNB-side UE S1AP id.
        pub enb_ue_id: u32 = FieldType::Constrained { lo: 0, hi: 0xFF_FFFF },
        /// Bearers established.
        pub erabs_setup: Vec<ErabSetupItem> = list_of(ErabSetupItem::field_type(), 16),
        /// Bearers that failed, when any.
        pub erabs_failed: Option<Vec<ErabFailedItem>> =
            optional(list_of(ErabFailedItem::field_type(), 16)),
    }
    fn sample(seed) {
        ERabSetupResponse {
            mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
            enb_ue_id: (seed % 0xFF_FFFF) as u32,
            erabs_setup: vec![ErabSetupItem::sample(seed)],
            erabs_failed: None,
        }
    }
}

wire_struct! {
    /// S1AP Uplink NAS Transport (BS → CPF).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct UplinkNasTransport {
        /// MME-side UE S1AP id.
        pub mme_ue_id: u32 = FieldType::UInt { bits: 32 },
        /// eNB-side UE S1AP id.
        pub enb_ue_id: u32 = FieldType::Constrained { lo: 0, hi: 0xFF_FFFF },
        /// Opaque NAS PDU.
        pub nas_pdu: Vec<u8> = FieldType::Bytes { max: None },
        /// Current TAI.
        pub tai: Tai = Tai::field_type(),
        /// Current CGI.
        pub cgi: Cgi = Cgi::field_type(),
    }
    fn sample(seed) {
        UplinkNasTransport {
            mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
            enb_ue_id: (seed % 0xFF_FFFF) as u32,
            nas_pdu: vec![0x62; 24],
            tai: Tai::sample(seed),
            cgi: Cgi::sample(seed),
        }
    }
}

wire_struct! {
    /// S1AP Downlink NAS Transport (CPF → BS).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DownlinkNasTransport {
        /// MME-side UE S1AP id.
        pub mme_ue_id: u32 = FieldType::UInt { bits: 32 },
        /// eNB-side UE S1AP id.
        pub enb_ue_id: u32 = FieldType::Constrained { lo: 0, hi: 0xFF_FFFF },
        /// Opaque NAS PDU.
        pub nas_pdu: Vec<u8> = FieldType::Bytes { max: None },
    }
    fn sample(seed) {
        DownlinkNasTransport {
            mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
            enb_ue_id: (seed % 0xFF_FFFF) as u32,
            nas_pdu: vec![0x55; 40],
        }
    }
}

wire_struct! {
    /// S1AP Handover Required (source BS → CPF): the BS asks to move the UE.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct HandoverRequired {
        /// MME-side UE S1AP id.
        pub mme_ue_id: u32 = FieldType::UInt { bits: 32 },
        /// eNB-side UE S1AP id.
        pub enb_ue_id: u32 = FieldType::Constrained { lo: 0, hi: 0xFF_FFFF },
        /// Handover type (intra-LTE, etc.).
        pub handover_type: u8 = FieldType::Enum { variants: 5 },
        /// Cause.
        pub cause: u8 = FieldType::Enum { variants: 64 },
        /// Target cell.
        pub target_cgi: Cgi = Cgi::field_type(),
        /// Target tracking area.
        pub target_tai: Tai = Tai::field_type(),
        /// Transparent source→target RRC container.
        pub src_to_tgt_container: Vec<u8> = FieldType::Bytes { max: None },
    }
    fn sample(seed) {
        HandoverRequired {
            mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
            enb_ue_id: (seed % 0xFF_FFFF) as u32,
            handover_type: 0,
            cause: 2, // handover-desirable-for-radio-reasons
            target_cgi: Cgi::sample(seed + 1),
            target_tai: Tai::sample(seed + 1),
            src_to_tgt_container: vec![0x9A; 120],
        }
    }
}

wire_struct! {
    /// S1AP Handover Request (CPF → target BS).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct HandoverRequest {
        /// New MME-side UE S1AP id at the target.
        pub mme_ue_id: u32 = FieldType::UInt { bits: 32 },
        /// Handover type.
        pub handover_type: u8 = FieldType::Enum { variants: 5 },
        /// Cause.
        pub cause: u8 = FieldType::Enum { variants: 64 },
        /// AMBR to enforce.
        pub ue_ambr: UeAmbr = UeAmbr::field_type(),
        /// Bearers to establish at the target.
        pub erabs: Vec<ErabToSetup> = list_of(ErabToSetup::field_type(), 16),
        /// Security context (KeNB*).
        pub security_context: Vec<u8> = FieldType::Bytes { max: Some(64) },
        /// Transparent source→target RRC container.
        pub src_to_tgt_container: Vec<u8> = FieldType::Bytes { max: None },
    }
    fn sample(seed) {
        HandoverRequest {
            mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
            handover_type: 0,
            cause: 2,
            ue_ambr: UeAmbr::sample(seed),
            erabs: vec![ErabToSetup::sample(seed)],
            security_context: (0..32).map(|i| (seed as u8).wrapping_mul(i)).collect(),
            src_to_tgt_container: vec![0x9A; 120],
        }
    }
}

wire_struct! {
    /// S1AP Handover Request Acknowledge (target BS → CPF).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct HandoverRequestAck {
        /// MME-side UE S1AP id.
        pub mme_ue_id: u32 = FieldType::UInt { bits: 32 },
        /// New eNB-side UE S1AP id at the target.
        pub enb_ue_id: u32 = FieldType::Constrained { lo: 0, hi: 0xFF_FFFF },
        /// Bearers admitted at the target.
        pub erabs_admitted: Vec<ErabSetupItem> = list_of(ErabSetupItem::field_type(), 16),
        /// Transparent target→source RRC container.
        pub tgt_to_src_container: Vec<u8> = FieldType::Bytes { max: None },
    }
    fn sample(seed) {
        HandoverRequestAck {
            mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
            enb_ue_id: ((seed + 7) % 0xFF_FFFF) as u32,
            erabs_admitted: vec![ErabSetupItem::sample(seed)],
            tgt_to_src_container: vec![0xA9; 80],
        }
    }
}

wire_struct! {
    /// S1AP Handover Command (CPF → source BS).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct HandoverCommand {
        /// MME-side UE S1AP id.
        pub mme_ue_id: u32 = FieldType::UInt { bits: 32 },
        /// eNB-side UE S1AP id at the source.
        pub enb_ue_id: u32 = FieldType::Constrained { lo: 0, hi: 0xFF_FFFF },
        /// Handover type.
        pub handover_type: u8 = FieldType::Enum { variants: 5 },
        /// Transparent target→source RRC container.
        pub tgt_to_src_container: Vec<u8> = FieldType::Bytes { max: None },
    }
    fn sample(seed) {
        HandoverCommand {
            mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
            enb_ue_id: (seed % 0xFF_FFFF) as u32,
            handover_type: 0,
            tgt_to_src_container: vec![0xA9; 80],
        }
    }
}

wire_struct! {
    /// S1AP Handover Notify (target BS → CPF): the UE has arrived.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct HandoverNotify {
        /// MME-side UE S1AP id.
        pub mme_ue_id: u32 = FieldType::UInt { bits: 32 },
        /// eNB-side UE S1AP id at the target.
        pub enb_ue_id: u32 = FieldType::Constrained { lo: 0, hi: 0xFF_FFFF },
        /// New TAI.
        pub tai: Tai = Tai::field_type(),
        /// New CGI.
        pub cgi: Cgi = Cgi::field_type(),
    }
    fn sample(seed) {
        HandoverNotify {
            mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
            enb_ue_id: ((seed + 7) % 0xFF_FFFF) as u32,
            tai: Tai::sample(seed + 1),
            cgi: Cgi::sample(seed + 1),
        }
    }
}

wire_struct! {
    /// S1AP UE Context Release Command (CPF → BS). The UE-ids IE is a CHOICE in
    /// the real protocol (id-pair or MME id alone) — another svtable target.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct UeContextReleaseCommand {
        /// Either the MME id alone or both ids.
        pub ue_ids: ReleaseIds = ReleaseIds::field_type(),
        /// Cause.
        pub cause: u8 = FieldType::Enum { variants: 64 },
    }
    fn sample(seed) {
        UeContextReleaseCommand {
            ue_ids: if seed.is_multiple_of(2) {
                ReleaseIds::Pair {
                    mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
                    enb_ue_id: (seed % 0xFF_FFFF) as u32,
                }
            } else {
                ReleaseIds::MmeOnly((seed & 0xFFFF_FFFF) as u32)
            },
            cause: 20, // release-due-to-eutran-generated-reason
        }
    }
}

/// The UE-ids CHOICE of [`UeContextReleaseCommand`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReleaseIds {
    /// MME-side id only.
    MmeOnly(u32),
    /// Both MME- and eNB-side ids.
    Pair {
        /// MME-side UE S1AP id.
        mme_ue_id: u32,
        /// eNB-side UE S1AP id.
        enb_ue_id: u32,
    },
}

impl ReleaseIds {
    /// The CHOICE field type.
    pub fn field_type() -> FieldType {
        let pair = StructSchema::builder("UeIdPair")
            .field("mme_ue_id", FieldType::UInt { bits: 32 })
            .field(
                "enb_ue_id",
                FieldType::Constrained {
                    lo: 0,
                    hi: 0xFF_FFFF,
                },
            )
            .build();
        FieldType::Choice(vec![
            Variant {
                name: "mme_only".into(),
                ty: FieldType::UInt { bits: 32 },
            },
            Variant {
                name: "pair".into(),
                ty: FieldType::Struct(Arc::new(pair)),
            },
        ])
    }
}

/// The `pair` variant's inline struct, out of the CHOICE type.
fn pair_schema(ty: &FieldType) -> Result<&StructSchema> {
    match ty.variant(1)? {
        FieldType::Struct(pair) if pair.fields.len() == 2 => Ok(pair),
        ty => Err(Error::schema(format!("{ty:?} is not the id pair"))),
    }
}

impl WireField for ReleaseIds {
    fn put_field(&self, ty: &FieldType, sink: &mut dyn FieldSink) -> Result<()> {
        match self {
            ReleaseIds::MmeOnly(id) => {
                sink.choice(ty, 0)?;
                id.put_field(ty.variant(0)?, sink)
            }
            ReleaseIds::Pair {
                mme_ue_id,
                enb_ue_id,
            } => {
                let pair = pair_schema(ty)?;
                sink.choice(ty, 1)?;
                sink.begin_struct(pair)?;
                mme_ue_id.put_field(&pair.fields[0].ty, sink)?;
                enb_ue_id.put_field(&pair.fields[1].ty, sink)?;
                sink.end_struct()
            }
        }
    }

    fn take_field(ty: &FieldType, src: &mut dyn FieldSource, _: bool) -> Result<Self> {
        match src.choice(ty)? {
            0 => u32::take_field(ty.variant(0)?, src, true)
                .map(ReleaseIds::MmeOnly)
                .map_err(|e| in_field(e, "ReleaseIds", "mme_only")),
            1 => {
                let pair = pair_schema(ty)?;
                src.begin_struct(pair)?;
                let mme_ue_id = u32::take_field(&pair.fields[0].ty, src, true)
                    .map_err(|e| in_field(e, &pair.name, "mme_ue_id"))?;
                let enb_ue_id = u32::take_field(&pair.fields[1].ty, src, true)
                    .map_err(|e| in_field(e, &pair.name, "enb_ue_id"))?;
                src.end_struct()?;
                Ok(ReleaseIds::Pair {
                    mme_ue_id,
                    enb_ue_id,
                })
            }
            other => Err(Error::schema(format!("no release-id variant {other}"))),
        }
    }
}

wire_struct! {
    /// S1AP UE Context Release Complete (BS → CPF).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct UeContextReleaseComplete {
        /// MME-side UE S1AP id.
        pub mme_ue_id: u32 = FieldType::UInt { bits: 32 },
        /// eNB-side UE S1AP id.
        pub enb_ue_id: u32 = FieldType::Constrained { lo: 0, hi: 0xFF_FFFF },
    }
    fn sample(seed) {
        UeContextReleaseComplete {
            mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
            enb_ue_id: (seed % 0xFF_FFFF) as u32,
        }
    }
}

wire_struct! {
    /// S1AP Paging (CPF → BS): wake an idle UE for downlink traffic.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Paging {
        /// Paging identity (S-TMSI or IMSI) — a CHOICE.
        pub ue_paging_id: UeIdentity = UeIdentity::field_type(),
        /// Tracking areas to page in.
        pub tai_list: Vec<Tai> = list_of(Tai::field_type(), 16),
        /// Paging DRX cycle, when specified.
        pub drx: Option<u8> = optional(FieldType::Constrained { lo: 0, hi: 3 }),
    }
    fn sample(seed) {
        Paging {
            ue_paging_id: UeIdentity::STmsi((seed & 0xFFFF_FFFF) as u32),
            tai_list: (0..2).map(|i| Tai::sample(seed + i)).collect(),
            drx: Some((seed % 4) as u8),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::testutil::round_trip_all_codecs;
    use crate::wire::Wire;

    #[test]
    fn fig19_messages_round_trip_all_codecs() {
        // The exact message set Figs. 19/20 benchmark.
        round_trip_all_codecs(&InitialContextSetupRequest::sample(11));
        round_trip_all_codecs(&InitialContextSetupResponse::sample(12));
        round_trip_all_codecs(&ERabSetupRequest::sample(13));
        round_trip_all_codecs(&ERabSetupResponse::sample(14));
        round_trip_all_codecs(&InitialUeMessage::sample(15));
        round_trip_all_codecs(&InitialUeMessage::sample(16)); // both identity variants
    }

    #[test]
    fn handover_family_round_trips() {
        round_trip_all_codecs(&HandoverRequired::sample(21));
        round_trip_all_codecs(&HandoverRequest::sample(22));
        round_trip_all_codecs(&HandoverRequestAck::sample(23));
        round_trip_all_codecs(&HandoverCommand::sample(24));
        round_trip_all_codecs(&HandoverNotify::sample(25));
    }

    #[test]
    fn transport_and_release_round_trip() {
        round_trip_all_codecs(&UplinkNasTransport::sample(31));
        round_trip_all_codecs(&DownlinkNasTransport::sample(32));
        round_trip_all_codecs(&UeContextReleaseCommand::sample(33)); // mme-only
        round_trip_all_codecs(&UeContextReleaseCommand::sample(34)); // pair
        round_trip_all_codecs(&UeContextReleaseComplete::sample(35));
        round_trip_all_codecs(&Paging::sample(36));
    }

    #[test]
    fn fig19_messages_have_at_least_eight_ies() {
        // §6.7.4: "all cellular control messages we tested contained a
        // minimum of 8 data elements".
        assert!(InitialContextSetupRequest::schema().leaf_count() >= 8);
        assert!(InitialUeMessage::schema().leaf_count() >= 8);
        assert!(ERabSetupRequest::schema().leaf_count() >= 8);
    }

    #[test]
    fn optimized_fastbuf_is_smaller_than_standard_on_union_messages() {
        use neutrino_codec::fastbuf::Fastbuf;
        let msg = InitialUeMessage::sample(100); // s-tmsi variant
        let mut std_buf = Vec::new();
        let mut opt_buf = Vec::new();
        msg.encode(&Fastbuf::standard(), &mut std_buf).unwrap();
        msg.encode(&Fastbuf::optimized(), &mut opt_buf).unwrap();
        assert!(
            opt_buf.len() < std_buf.len(),
            "optimized {} must be smaller than standard {}",
            opt_buf.len(),
            std_buf.len()
        );
    }

    #[test]
    fn per_is_smallest_on_fig19_messages() {
        use neutrino_codec::CodecKind;
        let msg = InitialContextSetupRequest::sample(5);
        let schema = InitialContextSetupRequest::schema();
        let v = msg.to_value();
        let mut per_len = 0usize;
        let mut others = Vec::new();
        for kind in CodecKind::ALL {
            let codec = kind.codec();
            if !codec.supports(&schema) {
                continue;
            }
            let mut buf = Vec::new();
            codec.encode(&schema, &v, &mut buf).unwrap();
            if kind == CodecKind::Asn1Per {
                per_len = buf.len();
            } else {
                others.push((kind, buf.len()));
            }
        }
        for (kind, len) in others {
            assert!(
                per_len <= len,
                "PER ({per_len}) must not exceed {kind} ({len})"
            );
        }
    }
}
