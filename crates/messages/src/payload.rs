//! [`Payload`]: the control message an [`Envelope`](crate::Envelope)
//! carries, either decoded or still in the bytes it arrived as.
//!
//! Everything that *builds* a message (the simulator, `uepop`, the CPF's
//! downlinks) holds it decoded. A frame received from a transport holds the
//! wire image and parses it only when somebody reads a field: the CTA, which
//! stamps, logs and routes on the envelope header alone (§4.2.3), never
//! does, and re-framing under the codec the bytes arrived in copies them
//! out verbatim (§4.4: nothing is parsed that is not needed). The CPF is
//! where the parse — and the discovery that the bytes were malformed —
//! happens.

use crate::control::{ControlMessage, MessageKind};
use neutrino_codec::CodecKind;
use neutrino_common::Result;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An immutable, cheaply cloned control-message payload. Clones share one
/// allocation — the CTA's log, the forwarded copy and every replay hold the
/// same decoded message or the same wire image.
///
/// `PartialEq` and `Debug` see through to the decoded message (decoding a
/// wire image if they must), so a payload that crossed a transport compares
/// and prints exactly like the one that was sent.
#[derive(Clone)]
pub struct Payload(Arc<Repr>);

// One enum rather than `kind` + `Option<wire>` beside an inline message:
// the wire variant fits inside the space the message variant needs anyway,
// so a decoded payload's heap block is that of an `Arc<ControlMessage>`.
enum Repr {
    Decoded(ControlMessage),
    Wire(WireImage),
}

struct WireImage {
    kind: MessageKind,
    codec: CodecKind,
    bytes: Box<[u8]>,
    /// Filled by the first successful [`Payload::get`].
    decoded: OnceLock<Box<ControlMessage>>,
}

impl WireImage {
    fn get(&self) -> Result<&ControlMessage> {
        if let Some(msg) = self.decoded.get() {
            return Ok(msg);
        }
        let msg = ControlMessage::decode(self.kind, self.codec.codec(), &self.bytes)?;
        Ok(self.decoded.get_or_init(|| Box::new(msg)))
    }
}

impl Payload {
    /// Wraps a received wire image: `bytes` are `kind` encoded under
    /// `codec`. Copies the bytes; runs no codec and validates nothing.
    pub fn from_wire(kind: MessageKind, codec: CodecKind, bytes: &[u8]) -> Self {
        Payload(Arc::new(Repr::Wire(WireImage {
            kind,
            codec,
            bytes: bytes.into(),
            decoded: OnceLock::new(),
        })))
    }

    /// The kind of the message. Never decodes.
    #[inline]
    pub fn kind(&self) -> MessageKind {
        match &*self.0 {
            Repr::Decoded(msg) => msg.kind(),
            Repr::Wire(wire) => wire.kind,
        }
    }

    /// The decoded message. A wire image is parsed on the first call and
    /// the result kept; malformed bytes are an error on every call.
    #[inline]
    pub fn get(&self) -> Result<&ControlMessage> {
        match &*self.0 {
            Repr::Decoded(msg) => Ok(msg),
            Repr::Wire(wire) => wire.get(),
        }
    }

    /// The held wire bytes, if this payload arrived encoded under `codec`.
    pub fn wire(&self, codec: CodecKind) -> Option<&[u8]> {
        match self.image() {
            Some((_, held, bytes)) if held == codec => Some(bytes),
            _ => None,
        }
    }

    /// True when [`get`](Self::get) will not run a codec: the payload was
    /// built decoded, or its wire image has already been parsed.
    pub fn is_materialised(&self) -> bool {
        match &*self.0 {
            Repr::Decoded(_) => true,
            Repr::Wire(wire) => wire.decoded.get().is_some(),
        }
    }

    /// The undecoded image, if this payload holds one.
    fn image(&self) -> Option<(MessageKind, CodecKind, &[u8])> {
        match &*self.0 {
            Repr::Decoded(_) => None,
            Repr::Wire(wire) => Some((wire.kind, wire.codec, &wire.bytes)),
        }
    }

    /// True when both payloads share one allocation.
    pub fn ptr_eq(a: &Payload, b: &Payload) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl From<ControlMessage> for Payload {
    fn from(msg: ControlMessage) -> Self {
        Payload(Arc::new(Repr::Decoded(msg)))
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        match (self.get(), other.get()) {
            (Ok(a), Ok(b)) => a == b,
            // Only wire images fail to decode: equal when the same image.
            (Err(_), Err(_)) => self.image() == other.image(),
            _ => false,
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.get() {
            Ok(msg) => msg.fmt(f),
            Err(e) => write!(f, "Undecodable({}: {e})", self.kind()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::Envelope;
    use crate::sysmsg::SysMsg;
    use std::mem::size_of;

    fn wire_of(msg: &ControlMessage, codec: CodecKind) -> Payload {
        let mut bytes = Vec::new();
        msg.encode(codec.codec(), &mut bytes).unwrap();
        Payload::from_wire(msg.kind(), codec, &bytes)
    }

    /// The simulator only ever holds decoded payloads; it must not pay for
    /// the wire variant in envelope size or in per-message heap.
    #[test]
    fn decoded_payload_costs_no_more_than_an_arc_of_the_message() {
        assert_eq!(size_of::<Payload>(), size_of::<usize>());
        assert_eq!(size_of::<Envelope>(), 64);
        assert_eq!(size_of::<SysMsg>(), 64);
        // Heap block of a decoded payload: the two `Arc` counters plus
        // `Repr`, against the two counters plus the bare message.
        assert!(
            size_of::<Repr>() <= size_of::<ControlMessage>() + 8,
            "Repr is {} bytes, ControlMessage {}",
            size_of::<Repr>(),
            size_of::<ControlMessage>()
        );
    }

    #[test]
    fn wire_payload_decodes_once_and_only_on_demand() {
        let msg = MessageKind::AttachRequest.sample(5);
        let p = wire_of(&msg, CodecKind::Asn1Per);
        assert_eq!(p.kind(), MessageKind::AttachRequest);
        assert!(p.wire(CodecKind::Asn1Per).is_some());
        assert!(p.wire(CodecKind::FastbufOptimized).is_none());
        assert!(!p.is_materialised(), "kind() and wire() must not decode");
        let first: *const ControlMessage = p.get().unwrap();
        assert_eq!(p.get().unwrap(), &msg);
        assert!(std::ptr::eq(first, p.get().unwrap()), "decoded once");
        assert!(p.is_materialised());
        assert!(p.clone().is_materialised(), "clones share the cell");
    }

    #[test]
    fn eq_and_debug_are_transparent_over_the_decoded_message() {
        let msg = MessageKind::ServiceRequest.sample(9);
        let decoded = Payload::from(msg.clone());
        assert!(decoded.is_materialised() && decoded.wire(CodecKind::Asn1Per).is_none());
        for codec in [CodecKind::Asn1Per, CodecKind::FastbufOptimized] {
            let wire = wire_of(&msg, codec);
            assert_eq!(wire, decoded);
            assert_eq!(format!("{wire:?}"), format!("{msg:?}"));
        }
        assert_ne!(
            decoded,
            Payload::from(MessageKind::ServiceRequest.sample(10))
        );
    }

    #[test]
    fn malformed_wire_is_an_error_not_a_panic() {
        let bad = Payload::from_wire(MessageKind::AttachRequest, CodecKind::Asn1Per, &[]);
        assert!(bad.get().is_err());
        assert!(bad.get().is_err(), "and stays one");
        assert!(!bad.is_materialised());
        assert!(format!("{bad:?}").starts_with("Undecodable(AttachRequest: codec error (asn1-per)"));
        assert_eq!(bad, bad.clone());
        assert_ne!(
            bad,
            Payload::from_wire(MessageKind::AttachRequest, CodecKind::Fastbuf, &[])
        );
        assert_ne!(bad, Payload::from(MessageKind::AttachRequest.sample(1)));
    }
}
