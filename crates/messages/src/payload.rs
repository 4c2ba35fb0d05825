//! [`Payload`]: the control message an [`Envelope`](crate::Envelope)
//! carries — built, as a sample recipe, or still in the bytes it arrived as.
//!
//! A message built from a [`ControlMessage`] (every test, the live pump's
//! UE side) holds it decoded. The simulator's own builders — `uepop`'s
//! uplinks and the CPF's downlinks — only ever send `kind.sample(seed)`, a
//! pure function of `(kind, seed)`, and nothing on the simulator path reads
//! a field of most of them: the CTA and the costing key on `kind()`, and
//! the CPF reads fields of three kinds. So they hold the recipe inline,
//! no heap block, and the tree is built only by whoever reads it (§4.4:
//! nothing is parsed — here, built — that is not needed). A frame received
//! from a transport holds the wire image and parses it only when somebody
//! reads a field: the CTA, which stamps, logs and routes on the envelope
//! header alone (§4.2.3), never does, and re-framing under the codec the
//! bytes arrived in copies them out verbatim. The CPF is where the parse —
//! and the discovery that the bytes were malformed — happens.

use crate::control::{ControlMessage, MessageKind};
use neutrino_codec::CodecKind;
use neutrino_common::Result;
use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An immutable, cheaply cloned control-message payload. Clones of a built
/// or received body share one allocation — the CTA's log, the forwarded
/// copy and every replay hold the same decoded message or the same wire
/// image; a sample body is two words copied.
///
/// `PartialEq` and `Debug` see through to the message (building a sample or
/// decoding a wire image if they must), so a payload that crossed a
/// transport, or was sent as a recipe, compares and prints exactly like the
/// built one.
#[derive(Clone)]
pub struct Payload(Body);

// Three bodies, two words: the recipe's `kind` byte leaves room for the
// other two variants' tags, and their pointer sits beside it.
#[derive(Clone)]
enum Body {
    Decoded(Arc<ControlMessage>),
    Wire(Arc<WireImage>),
    /// `kind.sample(seed)`, not yet built. No cache cell: the only reader on
    /// the simulator path reads it once, and a cell would put back the heap
    /// block (and the cold free) this body exists to avoid.
    Sample {
        kind: MessageKind,
        seed: u64,
    },
}

struct WireImage {
    kind: MessageKind,
    codec: CodecKind,
    bytes: Box<[u8]>,
    /// Filled by the first successful [`Payload::get`]. Boxed so that an
    /// image nobody reads — the CTA's log is full of them — stays small.
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
        Payload(Body::Wire(Arc::new(WireImage {
            kind,
            codec,
            bytes: bytes.into(),
            decoded: OnceLock::new(),
        })))
    }

    /// The message `kind.sample(seed)`, held as that recipe: no allocation,
    /// and [`get`](Self::get) builds it afresh on each call.
    pub fn sample(kind: MessageKind, seed: u64) -> Self {
        Payload(Body::Sample { kind, seed })
    }

    /// The kind of the message. Never decodes or builds.
    #[inline]
    pub fn kind(&self) -> MessageKind {
        match &self.0 {
            Body::Decoded(msg) => msg.kind(),
            Body::Wire(wire) => wire.kind,
            Body::Sample { kind, .. } => *kind,
        }
    }

    /// The message. Borrowed from a decoded body, or from a wire image,
    /// which is parsed on the first call and the result kept (malformed
    /// bytes are an error on every call); a sample is built and handed
    /// over.
    pub fn get(&self) -> Result<Cow<'_, ControlMessage>> {
        match &self.0 {
            Body::Decoded(msg) => Ok(Cow::Borrowed(msg)),
            Body::Wire(wire) => wire.get().map(Cow::Borrowed),
            Body::Sample { kind, seed } => Ok(Cow::Owned(kind.sample(*seed))),
        }
    }

    /// Parses a wire body and keeps the result, so that no later
    /// [`get`](Self::get) can fail or run a codec. A decoded or sample body
    /// has nothing to parse and is not touched.
    pub fn parse(&self) -> Result<()> {
        match &self.0 {
            Body::Wire(wire) => wire.get().map(drop),
            Body::Decoded(_) | Body::Sample { .. } => Ok(()),
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
    /// built decoded or as a sample, or its wire image has been parsed.
    pub fn is_materialised(&self) -> bool {
        match &self.0 {
            Body::Decoded(_) | Body::Sample { .. } => true,
            Body::Wire(wire) => wire.decoded.get().is_some(),
        }
    }

    /// The undecoded image, if this payload holds one.
    fn image(&self) -> Option<(MessageKind, CodecKind, &[u8])> {
        match &self.0 {
            Body::Wire(wire) => Some((wire.kind, wire.codec, &wire.bytes)),
            Body::Decoded(_) | Body::Sample { .. } => None,
        }
    }

    /// True when both payloads share one allocation. A sample body has
    /// none, so it shares with nothing.
    pub fn ptr_eq(a: &Payload, b: &Payload) -> bool {
        match (&a.0, &b.0) {
            (Body::Decoded(a), Body::Decoded(b)) => Arc::ptr_eq(a, b),
            (Body::Wire(a), Body::Wire(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl From<ControlMessage> for Payload {
    fn from(msg: ControlMessage) -> Self {
        Payload(Body::Decoded(Arc::new(msg)))
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

    /// The recipe costs a second word beside the pointer of the other two
    /// bodies; a decoded body's heap block stays that of an
    /// `Arc<ControlMessage>` — the wire variant adds nothing to it.
    #[test]
    fn a_payload_is_two_words_and_a_decoded_one_an_arc_of_the_message() {
        assert_eq!(size_of::<Payload>(), 2 * size_of::<usize>());
        assert_eq!(size_of::<Envelope>(), 72);
        assert_eq!(size_of::<SysMsg>(), 72);
        let decoded = Payload::from(MessageKind::ServiceRequest.sample(1));
        let Body::Decoded(msg) = &decoded.0 else {
            panic!("a built message is held decoded");
        };
        assert_eq!(std::mem::size_of_val(&**msg), size_of::<ControlMessage>());
    }

    #[test]
    fn wire_payload_decodes_once_and_only_on_demand() {
        let msg = MessageKind::AttachRequest.sample(5);
        let p = wire_of(&msg, CodecKind::Asn1Per);
        assert_eq!(p.kind(), MessageKind::AttachRequest);
        assert!(p.wire(CodecKind::Asn1Per).is_some());
        assert!(p.wire(CodecKind::FastbufOptimized).is_none());
        assert!(!p.is_materialised(), "kind() and wire() must not decode");
        let first: *const ControlMessage = &*p.get().unwrap();
        assert_eq!(*p.get().unwrap(), msg);
        assert!(std::ptr::eq(first, &*p.get().unwrap()), "decoded once");
        assert!(p.is_materialised());
        assert!(p.clone().is_materialised(), "clones share the cell");
    }

    #[test]
    fn parse_materialises_a_wire_body_and_touches_no_other() {
        let msg = MessageKind::TauRequest.sample(3);
        let p = wire_of(&msg, CodecKind::FastbufOptimized);
        p.parse().unwrap();
        assert!(p.is_materialised());
        assert!(matches!(p.get().unwrap(), Cow::Borrowed(_)));
        let sample = Payload::sample(MessageKind::TauRequest, 3);
        sample.parse().unwrap();
        assert_eq!(sample, p);
        let bad = Payload::from_wire(MessageKind::TauRequest, CodecKind::Asn1Per, &[]);
        assert!(bad.parse().is_err() && bad.parse().is_err());
    }

    /// A recipe is the message it names, under every comparison and
    /// rendering, for every kind — and reading it is the only build.
    #[test]
    fn a_sample_body_is_the_built_body() {
        for &kind in MessageKind::ALL {
            for seed in (0..=3).chain([1_000_000]) {
                let built = Payload::from(kind.sample(seed));
                let sample = Payload::sample(kind, seed);
                assert_eq!(sample, built, "{kind}/{seed}");
                assert_eq!(built, sample, "{kind}/{seed}");
                assert_eq!(format!("{sample:?}"), format!("{built:?}"));
                assert_eq!(sample.kind(), kind);
                assert!(sample.is_materialised());
                assert!(sample.wire(CodecKind::Asn1Per).is_none());
                assert!(matches!(sample.get().unwrap(), Cow::Owned(_)));
                assert!(!Payload::ptr_eq(&sample, &sample.clone()));
            }
        }
        assert_ne!(
            Payload::sample(MessageKind::ServiceRequest, 9),
            Payload::sample(MessageKind::ServiceRequest, 10)
        );
    }

    #[test]
    fn eq_and_debug_are_transparent_over_the_decoded_message() {
        let msg = MessageKind::ServiceRequest.sample(9);
        let decoded = Payload::from(msg.clone());
        assert!(decoded.is_materialised() && decoded.wire(CodecKind::Asn1Per).is_none());
        for codec in [CodecKind::Asn1Per, CodecKind::FastbufOptimized] {
            let wire = wire_of(&msg, codec);
            assert_eq!(wire, decoded);
            assert_eq!(wire, Payload::sample(MessageKind::ServiceRequest, 9));
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
        assert_ne!(bad, Payload::sample(MessageKind::AttachRequest, 1));
    }
}
