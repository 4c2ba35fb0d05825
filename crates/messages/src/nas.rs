//! NAS (Non-Access-Stratum, TS 24.301) messages: the UE ↔ CPF dialogue.
//!
//! These are the payloads a base station relays opaquely; the CPF decodes
//! them to run attach / service-request / tracking-area-update / detach
//! procedure state machines.

use crate::ies::Tai;
use crate::wire::{list_of, optional, wire_struct};
use neutrino_codec::value::FieldType;

wire_struct! {
    /// NAS Attach Request (UE → CPF). Starts the initial-attach procedure.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct AttachRequest {
        /// EPS attach type (1 = EPS attach, 2 = combined, 3 = emergency).
        pub attach_type: u8 = FieldType::Constrained { lo: 1, hi: 7 },
        /// NAS key-set identifier.
        pub nas_ksi: u8 = FieldType::Constrained { lo: 0, hi: 7 },
        /// Old M-TMSI if the UE had one (re-attach / returning UE).
        pub old_tmsi: Option<u32> = optional(FieldType::UInt { bits: 32 }),
        /// IMSI digits when no valid TMSI exists (first attach).
        pub imsi: Option<String> = optional(FieldType::Utf8 { max: Some(15) }),
        /// UE network capability bit flags.
        pub ue_network_capability: Vec<bool> = FieldType::BitString { max_bits: Some(64) },
        /// Piggy-backed ESM message (PDN connectivity request).
        pub esm_container: Vec<u8> = FieldType::Bytes { max: None },
        /// Last visited TAI, when known.
        pub last_visited_tai: Option<Tai> = optional(Tai::field_type()),
    }
    fn sample(seed) {
        AttachRequest {
            attach_type: 1,
            nas_ksi: (seed % 7) as u8,
            old_tmsi: if seed.is_multiple_of(3) {
                None
            } else {
                Some((seed & 0xFFFF_FFFF) as u32)
            },
            imsi: if seed.is_multiple_of(3) {
                Some(format!("31041{:010}", seed % 10_000_000_000))
            } else {
                None
            },
            ue_network_capability: (0..32).map(|i| (seed >> (i % 48)) & 1 == 1).collect(),
            esm_container: vec![0x52; 34], // PDN connectivity request
            last_visited_tai: Some(Tai::sample(seed)),
        }
    }
}

wire_struct! {
    /// NAS Attach Accept (CPF → UE).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct AttachAccept {
        /// EPS attach result.
        pub attach_result: u8 = FieldType::Constrained { lo: 1, hi: 7 },
        /// T3412 periodic-TAU timer value.
        pub t3412: u8 = FieldType::UInt { bits: 8 },
        /// The tracking-area list the UE may roam without updates — the state
        /// whose UE/core consistency §3.1 is about.
        pub tai_list: Vec<Tai> = list_of(Tai::field_type(), 16),
        /// Newly assigned M-TMSI.
        pub tmsi: u32 = FieldType::UInt { bits: 32 },
        /// Piggy-backed ESM message (activate default bearer request).
        pub esm_container: Vec<u8> = FieldType::Bytes { max: None },
    }
    fn sample(seed) {
        AttachAccept {
            attach_result: 1,
            t3412: 54,
            tai_list: (0..3).map(|i| Tai::sample(seed + i)).collect(),
            tmsi: (seed.wrapping_mul(0xC2B2_AE35) & 0xFFFF_FFFF) as u32,
            esm_container: vec![0x27; 52], // activate default EPS bearer
        }
    }
}

wire_struct! {
    /// NAS Attach Complete (UE → CPF). Ends the initial-attach procedure.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct AttachComplete {
        /// Confirmed M-TMSI.
        pub tmsi: u32 = FieldType::UInt { bits: 32 },
        /// Piggy-backed ESM accept.
        pub esm_container: Vec<u8> = FieldType::Bytes { max: None },
    }
    fn sample(seed) {
        AttachComplete {
            tmsi: (seed & 0xFFFF_FFFF) as u32,
            esm_container: vec![0x21; 8],
        }
    }
}

wire_struct! {
    /// NAS Service Request (UE → CPF): idle→connected transition to restore
    /// data bearers — the most frequent control procedure in the traces.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ServiceRequest {
        /// M-TMSI identifying the UE.
        pub tmsi: u32 = FieldType::UInt { bits: 32 },
        /// Key-set id and sequence number.
        pub ksi_seq: u8 = FieldType::UInt { bits: 8 },
        /// Short message authentication code.
        pub mac: u16 = FieldType::UInt { bits: 16 },
    }
    fn sample(seed) {
        ServiceRequest {
            tmsi: (seed & 0xFFFF_FFFF) as u32,
            ksi_seq: (seed % 128) as u8,
            mac: (seed.wrapping_mul(31) & 0xFFFF) as u16,
        }
    }
}

wire_struct! {
    /// NAS Service Accept (CPF → UE).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ServiceAccept {
        /// EPS bearer context status bitmap.
        pub bearer_status: Vec<bool> = FieldType::BitString { max_bits: Some(16) },
    }
    fn sample(seed) {
        ServiceAccept {
            bearer_status: (0..16).map(|i| (seed >> i) & 1 == 1).collect(),
        }
    }
}

wire_struct! {
    /// NAS Tracking Area Update Request (UE → CPF), sent on mobility across
    /// tracking areas.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TauRequest {
        /// Current M-TMSI.
        pub tmsi: u32 = FieldType::UInt { bits: 32 },
        /// Update type (TA updating / combined / periodic).
        pub update_type: u8 = FieldType::Constrained { lo: 0, hi: 7 },
        /// Last visited TAI.
        pub old_tai: Tai = Tai::field_type(),
    }
    fn sample(seed) {
        TauRequest {
            tmsi: (seed & 0xFFFF_FFFF) as u32,
            update_type: 0,
            old_tai: Tai::sample(seed),
        }
    }
}

wire_struct! {
    /// NAS Tracking Area Update Accept (CPF → UE).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TauAccept {
        /// Update result.
        pub result: u8 = FieldType::Constrained { lo: 0, hi: 7 },
        /// New tracking-area list.
        pub tai_list: Vec<Tai> = list_of(Tai::field_type(), 16),
        /// New M-TMSI if reallocated.
        pub new_tmsi: Option<u32> = optional(FieldType::UInt { bits: 32 }),
    }
    fn sample(seed) {
        TauAccept {
            result: 0,
            tai_list: (0..2).map(|i| Tai::sample(seed + i)).collect(),
            new_tmsi: if seed.is_multiple_of(2) {
                Some((seed >> 1) as u32)
            } else {
                None
            },
        }
    }
}

wire_struct! {
    /// NAS Detach Request (UE → CPF).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct DetachRequest {
        /// M-TMSI.
        pub tmsi: u32 = FieldType::UInt { bits: 32 },
        /// Detach type (EPS / combined / switch-off).
        pub detach_type: u8 = FieldType::Constrained { lo: 1, hi: 7 },
    }
    fn sample(seed) {
        DetachRequest {
            tmsi: (seed & 0xFFFF_FFFF) as u32,
            detach_type: 1,
        }
    }
}

wire_struct! {
    /// NAS Detach Accept (CPF → UE).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct DetachAccept {
        /// Spare half-octet carried by the real message.
        pub spare: u8 = FieldType::Constrained { lo: 0, hi: 15 },
    }
    fn sample(_seed) {
        DetachAccept { spare: 0 }
    }
}

wire_struct! {
    /// NAS Authentication Request (CPF → UE): EPS-AKA challenge.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct AuthenticationRequest {
        /// NAS key-set identifier for the new context.
        pub nas_ksi: u8 = FieldType::Constrained { lo: 0, hi: 7 },
        /// Random challenge (16 octets).
        pub rand: Vec<u8> = FieldType::Bytes { max: Some(16) },
        /// Authentication token (16 octets).
        pub autn: Vec<u8> = FieldType::Bytes { max: Some(16) },
    }
    fn sample(seed) {
        AuthenticationRequest {
            nas_ksi: (seed % 7) as u8,
            rand: (0..16)
                .map(|i| (seed as u8).wrapping_mul(7).wrapping_add(i))
                .collect(),
            autn: (0..16)
                .map(|i| (seed as u8).wrapping_mul(13).wrapping_add(i))
                .collect(),
        }
    }
}

wire_struct! {
    /// NAS Authentication Response (UE → CPF).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct AuthenticationResponse {
        /// Authentication response parameter (RES, 4–16 octets).
        pub res: Vec<u8> = FieldType::Bytes { max: Some(16) },
    }
    fn sample(seed) {
        AuthenticationResponse {
            res: (0..8)
                .map(|i| (seed as u8).wrapping_mul(31).wrapping_add(i))
                .collect(),
        }
    }
}

wire_struct! {
    /// NAS Security Mode Command (CPF → UE): selects ciphering/integrity
    /// algorithms and replays the UE's capabilities.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SecurityModeCommand {
        /// Selected NAS security algorithms (EEA/EIA nibbles).
        pub selected_algorithms: u8 = FieldType::UInt { bits: 8 },
        /// NAS key-set identifier.
        pub nas_ksi: u8 = FieldType::Constrained { lo: 0, hi: 7 },
        /// Replayed UE security capabilities (integrity-protected echo).
        pub replayed_capabilities: Vec<bool> = FieldType::BitString { max_bits: Some(64) },
    }
    fn sample(seed) {
        SecurityModeCommand {
            selected_algorithms: 0x12, // EEA1/EIA2
            nas_ksi: (seed % 7) as u8,
            replayed_capabilities: (0..32).map(|i| (seed >> (i % 48)) & 1 == 1).collect(),
        }
    }
}

wire_struct! {
    /// NAS Security Mode Complete (UE → CPF).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SecurityModeComplete {
        /// IMEISV, when requested.
        pub imeisv: Option<String> = optional(FieldType::Utf8 { max: Some(16) }),
    }
    fn sample(seed) {
        SecurityModeComplete {
            imeisv: if seed.is_multiple_of(2) {
                Some(format!("35{:014}", seed % 100_000_000_000_000))
            } else {
                None
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::testutil::round_trip_all_codecs;
    use crate::wire::Wire;

    #[test]
    fn attach_request_round_trips() {
        round_trip_all_codecs(&AttachRequest::sample(0)); // imsi path
        round_trip_all_codecs(&AttachRequest::sample(1)); // tmsi path
    }

    #[test]
    fn attach_accept_round_trips() {
        round_trip_all_codecs(&AttachAccept::sample(42));
    }

    #[test]
    fn attach_complete_round_trips() {
        round_trip_all_codecs(&AttachComplete::sample(42));
    }

    #[test]
    fn service_request_round_trips() {
        round_trip_all_codecs(&ServiceRequest::sample(777));
    }

    #[test]
    fn service_accept_round_trips() {
        round_trip_all_codecs(&ServiceAccept::sample(0b1010_1100));
    }

    #[test]
    fn tau_messages_round_trip() {
        round_trip_all_codecs(&TauRequest::sample(9));
        round_trip_all_codecs(&TauAccept::sample(8)); // with new tmsi
        round_trip_all_codecs(&TauAccept::sample(9)); // without
    }

    #[test]
    fn detach_messages_round_trip() {
        round_trip_all_codecs(&DetachRequest::sample(4));
        round_trip_all_codecs(&DetachAccept::sample(0));
    }

    #[test]
    fn authentication_and_security_mode_round_trip() {
        round_trip_all_codecs(&AuthenticationRequest::sample(3));
        round_trip_all_codecs(&AuthenticationResponse::sample(3));
        round_trip_all_codecs(&SecurityModeCommand::sample(3));
        round_trip_all_codecs(&SecurityModeComplete::sample(2)); // imeisv present
        round_trip_all_codecs(&SecurityModeComplete::sample(3)); // absent
    }

    #[test]
    fn service_request_is_tiny_in_per() {
        // The real NAS service request is 4 bytes; ours lands close.
        let msg = ServiceRequest::sample(1);
        let codec = neutrino_codec::per::Asn1Per::new();
        let mut buf = Vec::new();
        msg.encode(&codec, &mut buf).unwrap();
        assert!(
            buf.len() <= 8,
            "PER service request was {} bytes",
            buf.len()
        );
    }
}
