//! The unified control-message type the control plane routes.
//!
//! [`ControlMessage`] sums every NAS and S1AP message; [`MessageKind`] is its
//! fieldless mirror used as a key in cost tables and procedure templates;
//! [`Envelope`] is the routable unit: message + UE id + procedure id + the
//! logical clock the CTA stamps (§4.2.3).

use crate::nas::*;
use crate::payload::Payload;
use crate::procedures::ProcedureKind;
use crate::s1ap::*;
use crate::wire::Wire;
use neutrino_codec::schema::Schema;
use neutrino_codec::sink::{FieldSink, FieldSource};
use neutrino_codec::WireFormat;
use neutrino_common::clock::ClockTick;
use neutrino_common::{BsId, CtaId, ProcedureId, Result, UeId};
use std::sync::Arc;

/// Message travel direction relative to the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// UE/BS → CTA → CPF.
    Uplink,
    /// CPF → CTA → BS/UE.
    Downlink,
}

macro_rules! control_messages {
    ($( $variant:ident ),+ $(,)?) => {
        /// Any control message exchanged between UE/BS and the control plane.
        #[derive(Debug, Clone, PartialEq)]
        pub enum ControlMessage {
            $(
                #[doc = concat!("See [`", stringify!($variant), "`].")]
                $variant($variant),
            )+
        }

        /// Fieldless mirror of [`ControlMessage`]; keys cost tables and
        /// procedure templates.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum MessageKind {
            $(
                #[doc = concat!("Kind of [`", stringify!($variant), "`].")]
                $variant,
            )+
        }

        impl MessageKind {
            /// Every message kind.
            pub const ALL: &'static [MessageKind] = &[
                $(MessageKind::$variant,)+
            ];

            /// Stable display name.
            pub fn name(self) -> &'static str {
                match self {
                    $(MessageKind::$variant => stringify!($variant),)+
                }
            }

            /// The schema of this message kind.
            pub fn schema(self) -> Arc<Schema> {
                match self {
                    $(MessageKind::$variant => <$variant as Wire>::schema(),)+
                }
            }

            /// A realistic sample of this message kind.
            pub fn sample(self, seed: u64) -> ControlMessage {
                match self {
                    $(MessageKind::$variant =>
                        ControlMessage::$variant(<$variant as Wire>::sample(seed)),)+
                }
            }

        }

        impl ControlMessage {
            /// The kind of this message.
            pub fn kind(&self) -> MessageKind {
                match self {
                    $(ControlMessage::$variant(_) => MessageKind::$variant,)+
                }
            }

            /// Streams the message into `sink` ([`Wire::put`]).
            pub fn put(&self, sink: &mut dyn FieldSink) -> Result<()> {
                match self {
                    $(ControlMessage::$variant(m) => m.put(sink),)+
                }
            }

            /// Reads a message of known `kind` out of `src` ([`Wire::take`]).
            pub fn take(kind: MessageKind, src: &mut dyn FieldSource) -> Result<Self> {
                match kind {
                    $(MessageKind::$variant =>
                        <$variant as Wire>::take(src).map(ControlMessage::$variant),)+
                }
            }

            /// Encodes the message through a codec: its fields stream into
            /// the codec's image, no value tree in between.
            pub fn encode(&self, codec: &dyn WireFormat, out: &mut Vec<u8>) -> Result<()> {
                match self {
                    $(ControlMessage::$variant(m) => m.encode(codec, out),)+
                }
            }

            /// Decodes a message of known `kind` through a codec.
            pub fn decode(
                kind: MessageKind,
                codec: &dyn WireFormat,
                bytes: &[u8],
            ) -> Result<Self> {
                match kind {
                    $(MessageKind::$variant =>
                        <$variant as Wire>::decode(codec, bytes).map(ControlMessage::$variant),)+
                }
            }
        }
    };
}

control_messages!(
    // NAS
    AttachRequest,
    AttachAccept,
    AttachComplete,
    ServiceRequest,
    ServiceAccept,
    TauRequest,
    TauAccept,
    DetachRequest,
    DetachAccept,
    AuthenticationRequest,
    AuthenticationResponse,
    SecurityModeCommand,
    SecurityModeComplete,
    // S1AP
    InitialUeMessage,
    InitialContextSetupRequest,
    InitialContextSetupResponse,
    ERabSetupRequest,
    ERabSetupResponse,
    UplinkNasTransport,
    DownlinkNasTransport,
    HandoverRequired,
    HandoverRequest,
    HandoverRequestAck,
    HandoverCommand,
    HandoverNotify,
    UeContextReleaseCommand,
    UeContextReleaseComplete,
    Paging,
);

impl std::fmt::Display for MessageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A routable control message: the payload plus the identifiers the CTA and
/// CPF use to route, log, and replay it.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The UE this message concerns.
    pub ue: UeId,
    /// Which procedure run it belongs to (unique per UE).
    pub procedure: ProcedureId,
    /// The kind of procedure this message is part of.
    pub proc_kind: ProcedureKind,
    /// The base station the UE is (or was last) attached through — uplink
    /// provenance and downlink routing target.
    pub bs: BsId,
    /// The CTA the message was routed through (stamped by the CTA alongside
    /// the logical clock); responses return via the same CTA.
    pub via_cta: Option<CtaId>,
    /// Logical clock stamped by the CTA on first receipt; `ClockTick::ZERO`
    /// until stamped.
    pub clock: ClockTick,
    /// Travel direction.
    pub direction: Direction,
    /// True when this is the last message of its procedure — the CPF uses it
    /// to trigger the per-procedure state checkpoint (§4.2.2) and the CTA to
    /// delimit the log (§4.2.3).
    pub end_of_procedure: bool,
    /// The message itself: built, a sample recipe, or as received.
    /// Immutable once made; a built or received body is shared — the CTA's
    /// log, the forwarded copy and every replay hold the same allocation —
    /// and a recipe has none to share.
    pub msg: Payload,
}

impl Envelope {
    /// Creates an unstamped uplink envelope. `msg` is a [`ControlMessage`]
    /// or a [`Payload`] (e.g. [`Payload::sample`]).
    pub fn uplink(
        ue: UeId,
        procedure: ProcedureId,
        proc_kind: ProcedureKind,
        msg: impl Into<Payload>,
    ) -> Self {
        Envelope {
            ue,
            procedure,
            proc_kind,
            bs: BsId::new(0),
            via_cta: None,
            clock: ClockTick::ZERO,
            direction: Direction::Uplink,
            end_of_procedure: false,
            msg: msg.into(),
        }
    }

    /// Creates a downlink envelope; `msg` as for [`uplink`](Self::uplink).
    pub fn downlink(
        ue: UeId,
        procedure: ProcedureId,
        proc_kind: ProcedureKind,
        msg: impl Into<Payload>,
    ) -> Self {
        Envelope {
            ue,
            procedure,
            proc_kind,
            bs: BsId::new(0),
            via_cta: None,
            clock: ClockTick::ZERO,
            direction: Direction::Downlink,
            end_of_procedure: false,
            msg: msg.into(),
        }
    }

    /// Sets the base station.
    pub fn from_bs(mut self, bs: BsId) -> Self {
        self.bs = bs;
        self
    }

    /// Marks this envelope as the last message of its procedure.
    pub fn ending_procedure(mut self) -> Self {
        self.end_of_procedure = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutrino_codec::CodecKind;

    #[test]
    fn all_kinds_have_distinct_names_and_schemas() {
        let mut names = std::collections::BTreeSet::new();
        for kind in MessageKind::ALL {
            assert!(names.insert(kind.name()), "duplicate name {kind}");
            assert!(!kind.schema().fields.is_empty());
        }
        assert_eq!(MessageKind::ALL.len(), 28);
    }

    #[test]
    fn kind_round_trips_through_sample() {
        for kind in MessageKind::ALL {
            let msg = kind.sample(42);
            assert_eq!(msg.kind(), *kind);
        }
    }

    #[test]
    fn every_kind_encodes_and_decodes_through_per_and_fastbuf() {
        for kind in MessageKind::ALL {
            for codec_kind in [
                CodecKind::Asn1Per,
                CodecKind::Fastbuf,
                CodecKind::FastbufOptimized,
            ] {
                let codec = codec_kind.codec();
                let msg = kind.sample(7);
                let mut buf = Vec::new();
                msg.encode(codec, &mut buf)
                    .unwrap_or_else(|e| panic!("{kind}/{codec_kind}: encode: {e}"));
                let back = ControlMessage::decode(*kind, codec, &buf)
                    .unwrap_or_else(|e| panic!("{kind}/{codec_kind}: decode: {e}"));
                assert_eq!(back, msg, "{kind}/{codec_kind}");
            }
        }
    }

    #[test]
    fn envelope_builders_set_direction_and_eop() {
        let e = Envelope::uplink(
            UeId::new(1),
            ProcedureId::FIRST,
            crate::procedures::ProcedureKind::ServiceRequest,
            MessageKind::ServiceRequest.sample(1),
        );
        assert_eq!(e.direction, Direction::Uplink);
        assert!(!e.end_of_procedure);
        let e = e.ending_procedure();
        assert!(e.end_of_procedure);
        let d = Envelope::downlink(
            UeId::new(1),
            ProcedureId::FIRST,
            crate::procedures::ProcedureKind::ServiceRequest,
            MessageKind::ServiceAccept.sample(1),
        );
        assert_eq!(d.direction, Direction::Downlink);
    }
}
