//! S1AP (TS 36.413) messages: the BS ↔ CPF dialogue.
//!
//! Includes the five messages Figs. 19–20 benchmark — `InitialUeMessage`,
//! `InitialContextSetupRequest`/`Response`, `ERabSetupRequest`/`Response` —
//! plus the handover family, NAS transport, context release, and paging.

use crate::ies::{
    list_from_value, list_to_value, Cgi, ErabFailedItem, ErabSetupItem, ErabToSetup, Tai, UeAmbr,
    UeIdentity,
};
use crate::wire::{
    field_err, fields, get_bytes, get_opt, get_u32, get_u8, list_of, optional, Wire,
};
use neutrino_codec::value::{FieldType, Schema, StructSchema, Value};
use neutrino_common::Result;
use std::sync::{Arc, OnceLock};

/// S1AP Initial UE Message (BS → CPF): carries the first NAS PDU of a UE and
/// the identity CHOICE the svtable optimization targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitialUeMessage {
    /// eNB-side UE S1AP id.
    pub enb_ue_id: u32,
    /// Opaque NAS PDU (e.g. an encoded Attach Request).
    pub nas_pdu: Vec<u8>,
    /// Tracking area of the originating cell.
    pub tai: Tai,
    /// Cell global identity of the originating cell.
    pub cgi: Cgi,
    /// RRC establishment cause.
    pub rrc_cause: u8,
    /// UE identity (S-TMSI or IMSI) — a CHOICE of single fields.
    pub ue_identity: UeIdentity,
}

impl Wire for InitialUeMessage {
    fn schema() -> Arc<Schema> {
        static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
        SCHEMA
            .get_or_init(|| {
                Arc::new(
                    StructSchema::builder("InitialUeMessage")
                        .field(
                            "enb_ue_id",
                            FieldType::Constrained {
                                lo: 0,
                                hi: 0xFF_FFFF,
                            },
                        )
                        .field("nas_pdu", FieldType::Bytes { max: None })
                        .field("tai", Tai::field_type())
                        .field("cgi", Cgi::field_type())
                        .field("rrc_cause", FieldType::Enum { variants: 8 })
                        .field("ue_identity", UeIdentity::field_type())
                        .build(),
                )
            })
            .clone()
    }

    fn to_value(&self) -> Value {
        Value::Struct(vec![
            Value::U64(u64::from(self.enb_ue_id)),
            Value::Bytes(self.nas_pdu.clone()),
            self.tai.to_value(),
            self.cgi.to_value(),
            Value::U64(u64::from(self.rrc_cause)),
            self.ue_identity.to_value(),
        ])
    }

    fn from_value(v: &Value) -> Result<Self> {
        const M: &str = "InitialUeMessage";
        let f = fields(v, M, 6)?;
        Ok(InitialUeMessage {
            enb_ue_id: get_u32(&f[0], M, "enb_ue_id")?,
            nas_pdu: get_bytes(&f[1], M, "nas_pdu")?.to_vec(),
            tai: Tai::from_value(&f[2])?,
            cgi: Cgi::from_value(&f[3])?,
            rrc_cause: get_u8(&f[4], M, "rrc_cause")?,
            ue_identity: UeIdentity::from_value(&f[5])?,
        })
    }

    fn sample(seed: u64) -> Self {
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

/// S1AP Initial Context Setup Request (CPF → BS): installs the UE context
/// and bearers on the base station.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitialContextSetupRequest {
    /// MME-side UE S1AP id.
    pub mme_ue_id: u32,
    /// eNB-side UE S1AP id.
    pub enb_ue_id: u32,
    /// Aggregate maximum bit rate.
    pub ue_ambr: UeAmbr,
    /// Bearers to establish.
    pub erabs: Vec<ErabToSetup>,
    /// KeNB security key (32 octets).
    pub security_key: Vec<u8>,
    /// UE security capability bit flags.
    pub ue_security_capabilities: Vec<bool>,
    /// Handover restriction list, when roaming constraints apply.
    pub handover_restriction: Option<Vec<u8>>,
}

impl Wire for InitialContextSetupRequest {
    fn schema() -> Arc<Schema> {
        static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
        SCHEMA
            .get_or_init(|| {
                Arc::new(
                    StructSchema::builder("InitialContextSetupRequest")
                        .field("mme_ue_id", FieldType::UInt { bits: 32 })
                        .field(
                            "enb_ue_id",
                            FieldType::Constrained {
                                lo: 0,
                                hi: 0xFF_FFFF,
                            },
                        )
                        .field("ue_ambr", FieldType::Struct(UeAmbr::schema()))
                        .field(
                            "erabs",
                            list_of(FieldType::Struct(ErabToSetup::schema()), 16),
                        )
                        .field("security_key", FieldType::Bytes { max: Some(32) })
                        .field(
                            "ue_security_capabilities",
                            FieldType::BitString { max_bits: Some(32) },
                        )
                        .field(
                            "handover_restriction",
                            optional(FieldType::Bytes { max: None }),
                        )
                        .build(),
                )
            })
            .clone()
    }

    fn to_value(&self) -> Value {
        Value::Struct(vec![
            Value::U64(u64::from(self.mme_ue_id)),
            Value::U64(u64::from(self.enb_ue_id)),
            self.ue_ambr.to_value(),
            list_to_value(&self.erabs),
            Value::Bytes(self.security_key.clone()),
            Value::Bits(self.ue_security_capabilities.clone()),
            match &self.handover_restriction {
                Some(b) => Value::some(Value::Bytes(b.clone())),
                None => Value::none(),
            },
        ])
    }

    fn from_value(v: &Value) -> Result<Self> {
        const M: &str = "InitialContextSetupRequest";
        let f = fields(v, M, 7)?;
        Ok(InitialContextSetupRequest {
            mme_ue_id: get_u32(&f[0], M, "mme_ue_id")?,
            enb_ue_id: get_u32(&f[1], M, "enb_ue_id")?,
            ue_ambr: UeAmbr::from_value(&f[2])?,
            erabs: list_from_value(&f[3], M, "erabs")?,
            security_key: get_bytes(&f[4], M, "security_key")?.to_vec(),
            ue_security_capabilities: crate::wire::get_bits(&f[5], M, "ue_security_capabilities")?
                .to_vec(),
            handover_restriction: get_opt(&f[6], M, "handover_restriction")?
                .map(|x| get_bytes(x, M, "handover_restriction").map(<[u8]>::to_vec))
                .transpose()?,
        })
    }

    fn sample(seed: u64) -> Self {
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

/// S1AP Initial Context Setup Response (BS → CPF).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitialContextSetupResponse {
    /// MME-side UE S1AP id.
    pub mme_ue_id: u32,
    /// eNB-side UE S1AP id.
    pub enb_ue_id: u32,
    /// Bearers successfully established.
    pub erabs_setup: Vec<ErabSetupItem>,
    /// Bearers that failed, when any.
    pub erabs_failed: Option<Vec<ErabFailedItem>>,
}

impl Wire for InitialContextSetupResponse {
    fn schema() -> Arc<Schema> {
        static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
        SCHEMA
            .get_or_init(|| {
                Arc::new(
                    StructSchema::builder("InitialContextSetupResponse")
                        .field("mme_ue_id", FieldType::UInt { bits: 32 })
                        .field(
                            "enb_ue_id",
                            FieldType::Constrained {
                                lo: 0,
                                hi: 0xFF_FFFF,
                            },
                        )
                        .field(
                            "erabs_setup",
                            list_of(FieldType::Struct(ErabSetupItem::schema()), 16),
                        )
                        .field(
                            "erabs_failed",
                            optional(list_of(FieldType::Struct(ErabFailedItem::schema()), 16)),
                        )
                        .build(),
                )
            })
            .clone()
    }

    fn to_value(&self) -> Value {
        Value::Struct(vec![
            Value::U64(u64::from(self.mme_ue_id)),
            Value::U64(u64::from(self.enb_ue_id)),
            list_to_value(&self.erabs_setup),
            match &self.erabs_failed {
                Some(items) => Value::some(list_to_value(items)),
                None => Value::none(),
            },
        ])
    }

    fn from_value(v: &Value) -> Result<Self> {
        const M: &str = "InitialContextSetupResponse";
        let f = fields(v, M, 4)?;
        Ok(InitialContextSetupResponse {
            mme_ue_id: get_u32(&f[0], M, "mme_ue_id")?,
            enb_ue_id: get_u32(&f[1], M, "enb_ue_id")?,
            erabs_setup: list_from_value(&f[2], M, "erabs_setup")?,
            erabs_failed: get_opt(&f[3], M, "erabs_failed")?
                .map(|x| list_from_value(x, M, "erabs_failed"))
                .transpose()?,
        })
    }

    fn sample(seed: u64) -> Self {
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

/// S1AP E-RAB Setup Request (CPF → BS): adds bearers to an existing context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ERabSetupRequest {
    /// MME-side UE S1AP id.
    pub mme_ue_id: u32,
    /// eNB-side UE S1AP id.
    pub enb_ue_id: u32,
    /// Updated AMBR, when it changes.
    pub ue_ambr: Option<UeAmbr>,
    /// Bearers to add.
    pub erabs: Vec<ErabToSetup>,
}

impl Wire for ERabSetupRequest {
    fn schema() -> Arc<Schema> {
        static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
        SCHEMA
            .get_or_init(|| {
                Arc::new(
                    StructSchema::builder("ERabSetupRequest")
                        .field("mme_ue_id", FieldType::UInt { bits: 32 })
                        .field(
                            "enb_ue_id",
                            FieldType::Constrained {
                                lo: 0,
                                hi: 0xFF_FFFF,
                            },
                        )
                        .field("ue_ambr", optional(FieldType::Struct(UeAmbr::schema())))
                        .field(
                            "erabs",
                            list_of(FieldType::Struct(ErabToSetup::schema()), 16),
                        )
                        .build(),
                )
            })
            .clone()
    }

    fn to_value(&self) -> Value {
        Value::Struct(vec![
            Value::U64(u64::from(self.mme_ue_id)),
            Value::U64(u64::from(self.enb_ue_id)),
            match &self.ue_ambr {
                Some(a) => Value::some(a.to_value()),
                None => Value::none(),
            },
            list_to_value(&self.erabs),
        ])
    }

    fn from_value(v: &Value) -> Result<Self> {
        const M: &str = "ERabSetupRequest";
        let f = fields(v, M, 4)?;
        Ok(ERabSetupRequest {
            mme_ue_id: get_u32(&f[0], M, "mme_ue_id")?,
            enb_ue_id: get_u32(&f[1], M, "enb_ue_id")?,
            ue_ambr: get_opt(&f[2], M, "ue_ambr")?
                .map(UeAmbr::from_value)
                .transpose()?,
            erabs: list_from_value(&f[3], M, "erabs")?,
        })
    }

    fn sample(seed: u64) -> Self {
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

/// S1AP E-RAB Setup Response (BS → CPF).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ERabSetupResponse {
    /// MME-side UE S1AP id.
    pub mme_ue_id: u32,
    /// eNB-side UE S1AP id.
    pub enb_ue_id: u32,
    /// Bearers established.
    pub erabs_setup: Vec<ErabSetupItem>,
    /// Bearers that failed, when any.
    pub erabs_failed: Option<Vec<ErabFailedItem>>,
}

impl Wire for ERabSetupResponse {
    fn schema() -> Arc<Schema> {
        static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
        SCHEMA
            .get_or_init(|| {
                Arc::new(
                    StructSchema::builder("ERabSetupResponse")
                        .field("mme_ue_id", FieldType::UInt { bits: 32 })
                        .field(
                            "enb_ue_id",
                            FieldType::Constrained {
                                lo: 0,
                                hi: 0xFF_FFFF,
                            },
                        )
                        .field(
                            "erabs_setup",
                            list_of(FieldType::Struct(ErabSetupItem::schema()), 16),
                        )
                        .field(
                            "erabs_failed",
                            optional(list_of(FieldType::Struct(ErabFailedItem::schema()), 16)),
                        )
                        .build(),
                )
            })
            .clone()
    }

    fn to_value(&self) -> Value {
        Value::Struct(vec![
            Value::U64(u64::from(self.mme_ue_id)),
            Value::U64(u64::from(self.enb_ue_id)),
            list_to_value(&self.erabs_setup),
            match &self.erabs_failed {
                Some(items) => Value::some(list_to_value(items)),
                None => Value::none(),
            },
        ])
    }

    fn from_value(v: &Value) -> Result<Self> {
        const M: &str = "ERabSetupResponse";
        let f = fields(v, M, 4)?;
        Ok(ERabSetupResponse {
            mme_ue_id: get_u32(&f[0], M, "mme_ue_id")?,
            enb_ue_id: get_u32(&f[1], M, "enb_ue_id")?,
            erabs_setup: list_from_value(&f[2], M, "erabs_setup")?,
            erabs_failed: get_opt(&f[3], M, "erabs_failed")?
                .map(|x| list_from_value(x, M, "erabs_failed"))
                .transpose()?,
        })
    }

    fn sample(seed: u64) -> Self {
        ERabSetupResponse {
            mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
            enb_ue_id: (seed % 0xFF_FFFF) as u32,
            erabs_setup: vec![ErabSetupItem::sample(seed)],
            erabs_failed: None,
        }
    }
}

/// S1AP Uplink NAS Transport (BS → CPF).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UplinkNasTransport {
    /// MME-side UE S1AP id.
    pub mme_ue_id: u32,
    /// eNB-side UE S1AP id.
    pub enb_ue_id: u32,
    /// Opaque NAS PDU.
    pub nas_pdu: Vec<u8>,
    /// Current TAI.
    pub tai: Tai,
    /// Current CGI.
    pub cgi: Cgi,
}

impl Wire for UplinkNasTransport {
    fn schema() -> Arc<Schema> {
        static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
        SCHEMA
            .get_or_init(|| {
                Arc::new(
                    StructSchema::builder("UplinkNasTransport")
                        .field("mme_ue_id", FieldType::UInt { bits: 32 })
                        .field(
                            "enb_ue_id",
                            FieldType::Constrained {
                                lo: 0,
                                hi: 0xFF_FFFF,
                            },
                        )
                        .field("nas_pdu", FieldType::Bytes { max: None })
                        .field("tai", Tai::field_type())
                        .field("cgi", Cgi::field_type())
                        .build(),
                )
            })
            .clone()
    }

    fn to_value(&self) -> Value {
        Value::Struct(vec![
            Value::U64(u64::from(self.mme_ue_id)),
            Value::U64(u64::from(self.enb_ue_id)),
            Value::Bytes(self.nas_pdu.clone()),
            self.tai.to_value(),
            self.cgi.to_value(),
        ])
    }

    fn from_value(v: &Value) -> Result<Self> {
        const M: &str = "UplinkNasTransport";
        let f = fields(v, M, 5)?;
        Ok(UplinkNasTransport {
            mme_ue_id: get_u32(&f[0], M, "mme_ue_id")?,
            enb_ue_id: get_u32(&f[1], M, "enb_ue_id")?,
            nas_pdu: get_bytes(&f[2], M, "nas_pdu")?.to_vec(),
            tai: Tai::from_value(&f[3])?,
            cgi: Cgi::from_value(&f[4])?,
        })
    }

    fn sample(seed: u64) -> Self {
        UplinkNasTransport {
            mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
            enb_ue_id: (seed % 0xFF_FFFF) as u32,
            nas_pdu: vec![0x62; 24],
            tai: Tai::sample(seed),
            cgi: Cgi::sample(seed),
        }
    }
}

/// S1AP Downlink NAS Transport (CPF → BS).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DownlinkNasTransport {
    /// MME-side UE S1AP id.
    pub mme_ue_id: u32,
    /// eNB-side UE S1AP id.
    pub enb_ue_id: u32,
    /// Opaque NAS PDU.
    pub nas_pdu: Vec<u8>,
}

impl Wire for DownlinkNasTransport {
    fn schema() -> Arc<Schema> {
        static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
        SCHEMA
            .get_or_init(|| {
                Arc::new(
                    StructSchema::builder("DownlinkNasTransport")
                        .field("mme_ue_id", FieldType::UInt { bits: 32 })
                        .field(
                            "enb_ue_id",
                            FieldType::Constrained {
                                lo: 0,
                                hi: 0xFF_FFFF,
                            },
                        )
                        .field("nas_pdu", FieldType::Bytes { max: None })
                        .build(),
                )
            })
            .clone()
    }

    fn to_value(&self) -> Value {
        Value::Struct(vec![
            Value::U64(u64::from(self.mme_ue_id)),
            Value::U64(u64::from(self.enb_ue_id)),
            Value::Bytes(self.nas_pdu.clone()),
        ])
    }

    fn from_value(v: &Value) -> Result<Self> {
        const M: &str = "DownlinkNasTransport";
        let f = fields(v, M, 3)?;
        Ok(DownlinkNasTransport {
            mme_ue_id: get_u32(&f[0], M, "mme_ue_id")?,
            enb_ue_id: get_u32(&f[1], M, "enb_ue_id")?,
            nas_pdu: get_bytes(&f[2], M, "nas_pdu")?.to_vec(),
        })
    }

    fn sample(seed: u64) -> Self {
        DownlinkNasTransport {
            mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
            enb_ue_id: (seed % 0xFF_FFFF) as u32,
            nas_pdu: vec![0x55; 40],
        }
    }
}

/// S1AP Handover Required (source BS → CPF): the BS asks to move the UE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandoverRequired {
    /// MME-side UE S1AP id.
    pub mme_ue_id: u32,
    /// eNB-side UE S1AP id.
    pub enb_ue_id: u32,
    /// Handover type (intra-LTE, etc.).
    pub handover_type: u8,
    /// Cause.
    pub cause: u8,
    /// Target cell.
    pub target_cgi: Cgi,
    /// Target tracking area.
    pub target_tai: Tai,
    /// Transparent source→target RRC container.
    pub src_to_tgt_container: Vec<u8>,
}

impl Wire for HandoverRequired {
    fn schema() -> Arc<Schema> {
        static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
        SCHEMA
            .get_or_init(|| {
                Arc::new(
                    StructSchema::builder("HandoverRequired")
                        .field("mme_ue_id", FieldType::UInt { bits: 32 })
                        .field(
                            "enb_ue_id",
                            FieldType::Constrained {
                                lo: 0,
                                hi: 0xFF_FFFF,
                            },
                        )
                        .field("handover_type", FieldType::Enum { variants: 5 })
                        .field("cause", FieldType::Enum { variants: 64 })
                        .field("target_cgi", Cgi::field_type())
                        .field("target_tai", Tai::field_type())
                        .field("src_to_tgt_container", FieldType::Bytes { max: None })
                        .build(),
                )
            })
            .clone()
    }

    fn to_value(&self) -> Value {
        Value::Struct(vec![
            Value::U64(u64::from(self.mme_ue_id)),
            Value::U64(u64::from(self.enb_ue_id)),
            Value::U64(u64::from(self.handover_type)),
            Value::U64(u64::from(self.cause)),
            self.target_cgi.to_value(),
            self.target_tai.to_value(),
            Value::Bytes(self.src_to_tgt_container.clone()),
        ])
    }

    fn from_value(v: &Value) -> Result<Self> {
        const M: &str = "HandoverRequired";
        let f = fields(v, M, 7)?;
        Ok(HandoverRequired {
            mme_ue_id: get_u32(&f[0], M, "mme_ue_id")?,
            enb_ue_id: get_u32(&f[1], M, "enb_ue_id")?,
            handover_type: get_u8(&f[2], M, "handover_type")?,
            cause: get_u8(&f[3], M, "cause")?,
            target_cgi: Cgi::from_value(&f[4])?,
            target_tai: Tai::from_value(&f[5])?,
            src_to_tgt_container: get_bytes(&f[6], M, "src_to_tgt_container")?.to_vec(),
        })
    }

    fn sample(seed: u64) -> Self {
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

/// S1AP Handover Request (CPF → target BS).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandoverRequest {
    /// New MME-side UE S1AP id at the target.
    pub mme_ue_id: u32,
    /// Handover type.
    pub handover_type: u8,
    /// Cause.
    pub cause: u8,
    /// AMBR to enforce.
    pub ue_ambr: UeAmbr,
    /// Bearers to establish at the target.
    pub erabs: Vec<ErabToSetup>,
    /// Security context (KeNB*).
    pub security_context: Vec<u8>,
    /// Transparent source→target RRC container.
    pub src_to_tgt_container: Vec<u8>,
}

impl Wire for HandoverRequest {
    fn schema() -> Arc<Schema> {
        static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
        SCHEMA
            .get_or_init(|| {
                Arc::new(
                    StructSchema::builder("HandoverRequest")
                        .field("mme_ue_id", FieldType::UInt { bits: 32 })
                        .field("handover_type", FieldType::Enum { variants: 5 })
                        .field("cause", FieldType::Enum { variants: 64 })
                        .field("ue_ambr", FieldType::Struct(UeAmbr::schema()))
                        .field(
                            "erabs",
                            list_of(FieldType::Struct(ErabToSetup::schema()), 16),
                        )
                        .field("security_context", FieldType::Bytes { max: Some(64) })
                        .field("src_to_tgt_container", FieldType::Bytes { max: None })
                        .build(),
                )
            })
            .clone()
    }

    fn to_value(&self) -> Value {
        Value::Struct(vec![
            Value::U64(u64::from(self.mme_ue_id)),
            Value::U64(u64::from(self.handover_type)),
            Value::U64(u64::from(self.cause)),
            self.ue_ambr.to_value(),
            list_to_value(&self.erabs),
            Value::Bytes(self.security_context.clone()),
            Value::Bytes(self.src_to_tgt_container.clone()),
        ])
    }

    fn from_value(v: &Value) -> Result<Self> {
        const M: &str = "HandoverRequest";
        let f = fields(v, M, 7)?;
        Ok(HandoverRequest {
            mme_ue_id: get_u32(&f[0], M, "mme_ue_id")?,
            handover_type: get_u8(&f[1], M, "handover_type")?,
            cause: get_u8(&f[2], M, "cause")?,
            ue_ambr: UeAmbr::from_value(&f[3])?,
            erabs: list_from_value(&f[4], M, "erabs")?,
            security_context: get_bytes(&f[5], M, "security_context")?.to_vec(),
            src_to_tgt_container: get_bytes(&f[6], M, "src_to_tgt_container")?.to_vec(),
        })
    }

    fn sample(seed: u64) -> Self {
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

/// S1AP Handover Request Acknowledge (target BS → CPF).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandoverRequestAck {
    /// MME-side UE S1AP id.
    pub mme_ue_id: u32,
    /// New eNB-side UE S1AP id at the target.
    pub enb_ue_id: u32,
    /// Bearers admitted at the target.
    pub erabs_admitted: Vec<ErabSetupItem>,
    /// Transparent target→source RRC container.
    pub tgt_to_src_container: Vec<u8>,
}

impl Wire for HandoverRequestAck {
    fn schema() -> Arc<Schema> {
        static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
        SCHEMA
            .get_or_init(|| {
                Arc::new(
                    StructSchema::builder("HandoverRequestAck")
                        .field("mme_ue_id", FieldType::UInt { bits: 32 })
                        .field(
                            "enb_ue_id",
                            FieldType::Constrained {
                                lo: 0,
                                hi: 0xFF_FFFF,
                            },
                        )
                        .field(
                            "erabs_admitted",
                            list_of(FieldType::Struct(ErabSetupItem::schema()), 16),
                        )
                        .field("tgt_to_src_container", FieldType::Bytes { max: None })
                        .build(),
                )
            })
            .clone()
    }

    fn to_value(&self) -> Value {
        Value::Struct(vec![
            Value::U64(u64::from(self.mme_ue_id)),
            Value::U64(u64::from(self.enb_ue_id)),
            list_to_value(&self.erabs_admitted),
            Value::Bytes(self.tgt_to_src_container.clone()),
        ])
    }

    fn from_value(v: &Value) -> Result<Self> {
        const M: &str = "HandoverRequestAck";
        let f = fields(v, M, 4)?;
        Ok(HandoverRequestAck {
            mme_ue_id: get_u32(&f[0], M, "mme_ue_id")?,
            enb_ue_id: get_u32(&f[1], M, "enb_ue_id")?,
            erabs_admitted: list_from_value(&f[2], M, "erabs_admitted")?,
            tgt_to_src_container: get_bytes(&f[3], M, "tgt_to_src_container")?.to_vec(),
        })
    }

    fn sample(seed: u64) -> Self {
        HandoverRequestAck {
            mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
            enb_ue_id: ((seed + 7) % 0xFF_FFFF) as u32,
            erabs_admitted: vec![ErabSetupItem::sample(seed)],
            tgt_to_src_container: vec![0xA9; 80],
        }
    }
}

/// S1AP Handover Command (CPF → source BS).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandoverCommand {
    /// MME-side UE S1AP id.
    pub mme_ue_id: u32,
    /// eNB-side UE S1AP id at the source.
    pub enb_ue_id: u32,
    /// Handover type.
    pub handover_type: u8,
    /// Transparent target→source RRC container.
    pub tgt_to_src_container: Vec<u8>,
}

impl Wire for HandoverCommand {
    fn schema() -> Arc<Schema> {
        static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
        SCHEMA
            .get_or_init(|| {
                Arc::new(
                    StructSchema::builder("HandoverCommand")
                        .field("mme_ue_id", FieldType::UInt { bits: 32 })
                        .field(
                            "enb_ue_id",
                            FieldType::Constrained {
                                lo: 0,
                                hi: 0xFF_FFFF,
                            },
                        )
                        .field("handover_type", FieldType::Enum { variants: 5 })
                        .field("tgt_to_src_container", FieldType::Bytes { max: None })
                        .build(),
                )
            })
            .clone()
    }

    fn to_value(&self) -> Value {
        Value::Struct(vec![
            Value::U64(u64::from(self.mme_ue_id)),
            Value::U64(u64::from(self.enb_ue_id)),
            Value::U64(u64::from(self.handover_type)),
            Value::Bytes(self.tgt_to_src_container.clone()),
        ])
    }

    fn from_value(v: &Value) -> Result<Self> {
        const M: &str = "HandoverCommand";
        let f = fields(v, M, 4)?;
        Ok(HandoverCommand {
            mme_ue_id: get_u32(&f[0], M, "mme_ue_id")?,
            enb_ue_id: get_u32(&f[1], M, "enb_ue_id")?,
            handover_type: get_u8(&f[2], M, "handover_type")?,
            tgt_to_src_container: get_bytes(&f[3], M, "tgt_to_src_container")?.to_vec(),
        })
    }

    fn sample(seed: u64) -> Self {
        HandoverCommand {
            mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
            enb_ue_id: (seed % 0xFF_FFFF) as u32,
            handover_type: 0,
            tgt_to_src_container: vec![0xA9; 80],
        }
    }
}

/// S1AP Handover Notify (target BS → CPF): the UE has arrived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandoverNotify {
    /// MME-side UE S1AP id.
    pub mme_ue_id: u32,
    /// eNB-side UE S1AP id at the target.
    pub enb_ue_id: u32,
    /// New TAI.
    pub tai: Tai,
    /// New CGI.
    pub cgi: Cgi,
}

impl Wire for HandoverNotify {
    fn schema() -> Arc<Schema> {
        static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
        SCHEMA
            .get_or_init(|| {
                Arc::new(
                    StructSchema::builder("HandoverNotify")
                        .field("mme_ue_id", FieldType::UInt { bits: 32 })
                        .field(
                            "enb_ue_id",
                            FieldType::Constrained {
                                lo: 0,
                                hi: 0xFF_FFFF,
                            },
                        )
                        .field("tai", Tai::field_type())
                        .field("cgi", Cgi::field_type())
                        .build(),
                )
            })
            .clone()
    }

    fn to_value(&self) -> Value {
        Value::Struct(vec![
            Value::U64(u64::from(self.mme_ue_id)),
            Value::U64(u64::from(self.enb_ue_id)),
            self.tai.to_value(),
            self.cgi.to_value(),
        ])
    }

    fn from_value(v: &Value) -> Result<Self> {
        const M: &str = "HandoverNotify";
        let f = fields(v, M, 4)?;
        Ok(HandoverNotify {
            mme_ue_id: get_u32(&f[0], M, "mme_ue_id")?,
            enb_ue_id: get_u32(&f[1], M, "enb_ue_id")?,
            tai: Tai::from_value(&f[2])?,
            cgi: Cgi::from_value(&f[3])?,
        })
    }

    fn sample(seed: u64) -> Self {
        HandoverNotify {
            mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
            enb_ue_id: ((seed + 7) % 0xFF_FFFF) as u32,
            tai: Tai::sample(seed + 1),
            cgi: Cgi::sample(seed + 1),
        }
    }
}

/// S1AP UE Context Release Command (CPF → BS). The UE-ids IE is a CHOICE in
/// the real protocol (id-pair or MME id alone) — another svtable target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UeContextReleaseCommand {
    /// Either the MME id alone or both ids.
    pub ue_ids: ReleaseIds,
    /// Cause.
    pub cause: u8,
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

impl UeContextReleaseCommand {
    fn ids_field_type() -> FieldType {
        static PAIR: OnceLock<Arc<StructSchema>> = OnceLock::new();
        let pair = PAIR
            .get_or_init(|| {
                Arc::new(
                    StructSchema::builder("UeIdPair")
                        .field("mme_ue_id", FieldType::UInt { bits: 32 })
                        .field(
                            "enb_ue_id",
                            FieldType::Constrained {
                                lo: 0,
                                hi: 0xFF_FFFF,
                            },
                        )
                        .build(),
                )
            })
            .clone();
        FieldType::Choice(vec![
            neutrino_codec::value::Variant {
                name: "mme_only".into(),
                ty: FieldType::UInt { bits: 32 },
            },
            neutrino_codec::value::Variant {
                name: "pair".into(),
                ty: FieldType::Struct(pair),
            },
        ])
    }
}

impl Wire for UeContextReleaseCommand {
    fn schema() -> Arc<Schema> {
        static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
        SCHEMA
            .get_or_init(|| {
                Arc::new(
                    StructSchema::builder("UeContextReleaseCommand")
                        .field("ue_ids", Self::ids_field_type())
                        .field("cause", FieldType::Enum { variants: 64 })
                        .build(),
                )
            })
            .clone()
    }

    fn to_value(&self) -> Value {
        let ids = match &self.ue_ids {
            ReleaseIds::MmeOnly(id) => Value::choice(0, Value::U64(u64::from(*id))),
            ReleaseIds::Pair {
                mme_ue_id,
                enb_ue_id,
            } => Value::choice(
                1,
                Value::Struct(vec![
                    Value::U64(u64::from(*mme_ue_id)),
                    Value::U64(u64::from(*enb_ue_id)),
                ]),
            ),
        };
        Value::Struct(vec![ids, Value::U64(u64::from(self.cause))])
    }

    fn from_value(v: &Value) -> Result<Self> {
        const M: &str = "UeContextReleaseCommand";
        let f = fields(v, M, 2)?;
        let ue_ids = match &f[0] {
            Value::Choice { index: 0, value } => {
                ReleaseIds::MmeOnly(get_u32(value, M, "mme_only")?)
            }
            Value::Choice { index: 1, value } => {
                let p = fields(value, M, 2)?;
                ReleaseIds::Pair {
                    mme_ue_id: get_u32(&p[0], M, "mme_ue_id")?,
                    enb_ue_id: get_u32(&p[1], M, "enb_ue_id")?,
                }
            }
            _ => return Err(field_err(M, "ue_ids")),
        };
        Ok(UeContextReleaseCommand {
            ue_ids,
            cause: get_u8(&f[1], M, "cause")?,
        })
    }

    fn sample(seed: u64) -> Self {
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

/// S1AP UE Context Release Complete (BS → CPF).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UeContextReleaseComplete {
    /// MME-side UE S1AP id.
    pub mme_ue_id: u32,
    /// eNB-side UE S1AP id.
    pub enb_ue_id: u32,
}

impl Wire for UeContextReleaseComplete {
    fn schema() -> Arc<Schema> {
        static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
        SCHEMA
            .get_or_init(|| {
                Arc::new(
                    StructSchema::builder("UeContextReleaseComplete")
                        .field("mme_ue_id", FieldType::UInt { bits: 32 })
                        .field(
                            "enb_ue_id",
                            FieldType::Constrained {
                                lo: 0,
                                hi: 0xFF_FFFF,
                            },
                        )
                        .build(),
                )
            })
            .clone()
    }

    fn to_value(&self) -> Value {
        Value::Struct(vec![
            Value::U64(u64::from(self.mme_ue_id)),
            Value::U64(u64::from(self.enb_ue_id)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self> {
        const M: &str = "UeContextReleaseComplete";
        let f = fields(v, M, 2)?;
        Ok(UeContextReleaseComplete {
            mme_ue_id: get_u32(&f[0], M, "mme_ue_id")?,
            enb_ue_id: get_u32(&f[1], M, "enb_ue_id")?,
        })
    }

    fn sample(seed: u64) -> Self {
        UeContextReleaseComplete {
            mme_ue_id: (seed & 0xFFFF_FFFF) as u32,
            enb_ue_id: (seed % 0xFF_FFFF) as u32,
        }
    }
}

/// S1AP Paging (CPF → BS): wake an idle UE for downlink traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Paging {
    /// Paging identity (S-TMSI or IMSI) — a CHOICE.
    pub ue_paging_id: UeIdentity,
    /// Tracking areas to page in.
    pub tai_list: Vec<Tai>,
    /// Paging DRX cycle, when specified.
    pub drx: Option<u8>,
}

impl Wire for Paging {
    fn schema() -> Arc<Schema> {
        static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
        SCHEMA
            .get_or_init(|| {
                Arc::new(
                    StructSchema::builder("Paging")
                        .field("ue_paging_id", UeIdentity::field_type())
                        .field("tai_list", list_of(Tai::field_type(), 16))
                        .field("drx", optional(FieldType::Constrained { lo: 0, hi: 3 }))
                        .build(),
                )
            })
            .clone()
    }

    fn to_value(&self) -> Value {
        Value::Struct(vec![
            self.ue_paging_id.to_value(),
            list_to_value(&self.tai_list),
            match self.drx {
                Some(d) => Value::some(Value::U64(u64::from(d))),
                None => Value::none(),
            },
        ])
    }

    fn from_value(v: &Value) -> Result<Self> {
        const M: &str = "Paging";
        let f = fields(v, M, 3)?;
        Ok(Paging {
            ue_paging_id: UeIdentity::from_value(&f[0])?,
            tai_list: list_from_value(&f[1], M, "tai_list")?,
            drx: get_opt(&f[2], M, "drx")?
                .map(|x| get_u8(x, M, "drx"))
                .transpose()?,
        })
    }

    fn sample(seed: u64) -> Self {
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
