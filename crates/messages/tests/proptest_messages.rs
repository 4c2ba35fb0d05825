//! Property-based tests over the message model: every message kind, with
//! randomized sample seeds, must survive every codec and keep its schema
//! contract.

use neutrino_codec::sink::FieldSink;
use neutrino_codec::CodecKind;
use neutrino_common::clock::ClockTick;
use neutrino_common::{BsId, ProcedureId, Result as WireResult, SessionId, UeId, UpfId};
use neutrino_messages::ies::Tai;
use neutrino_messages::nas::AttachRequest;
use neutrino_messages::s1ap::Paging;
use neutrino_messages::state::{BearerContext, StateVersion, UeState};
use neutrino_messages::{ControlMessage, MessageKind, Snapshot, Wire};
use proptest::collection::vec;
use proptest::prelude::*;

fn any_kind() -> impl Strategy<Value = MessageKind> {
    proptest::sample::select(MessageKind::ALL.to_vec())
}

/// An id, clock or counter: zero as often as anything else, since zero is
/// where a reader that took "absent" for "default" would go wrong.
fn id() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), any::<u64>()]
}

fn any_tai() -> impl Strategy<Value = Tai> {
    (0u32..=0xFF_FFFF, any::<u16>()).prop_map(|(plmn, tac)| Tai { plmn, tac })
}

/// Any state the schema admits, not only `sample`'s: empty and full lists,
/// an absent session, an empty key.
fn any_state() -> impl Strategy<Value = UeState> {
    let bearer = (0u8..=15, 1u8..=9, any::<u32>(), any::<u32>()).prop_map(
        |(erab_id, qci, teid_uplink, teid_downlink)| BearerContext {
            erab_id,
            qci,
            teid_uplink,
            teid_downlink,
        },
    );
    (
        (id(), any::<u32>(), any::<bool>(), any::<bool>(), id()),
        (
            id(),
            proptest::option::of(id()),
            any_tai(),
            vec(any_tai(), 0..=16),
        ),
        (vec(bearer, 0..=16), vec(any::<u8>(), 0..=64), id(), id()),
    )
        .prop_map(
            |(
                (ue, tmsi, attached, connected, bs),
                (upf, session, tai, tai_list),
                (bearers, security_key, procedure, clock),
            )| UeState {
                ue: UeId::new(ue),
                tmsi,
                attached,
                connected,
                serving_bs: BsId::new(bs),
                serving_upf: UpfId::new(upf),
                session: session.map(SessionId::new),
                tai,
                tai_list,
                bearers,
                security_key,
                version: StateVersion {
                    procedure: ProcedureId::new(procedure),
                    clock: ClockTick(clock),
                },
            },
        )
}

const LIVE_CODECS: [CodecKind; 3] = [
    CodecKind::Asn1Per,
    CodecKind::Fastbuf,
    CodecKind::FastbufOptimized,
];

/// A `Tai` whose 16-bit `tac` carries 70 000, streamed by hand.
fn put_wide_tai(sink: &mut dyn FieldSink) -> WireResult<()> {
    let tai = Tai::layout();
    sink.begin_struct(tai)?;
    sink.uint(&tai.fields[0].ty, 1)?;
    sink.uint(&tai.fields[1].ty, 70_000)?;
    sink.end_struct()
}

/// `take` refuses, with an error naming the message and the field, a value
/// outside the field's Rust type and a string that is not UTF-8.
#[test]
fn take_names_the_message_and_field_it_refuses() {
    // `tac` is a `u16` declared 16 bits wide; protobuf stores it as a varint,
    // so its image can hand back more.
    let proto = CodecKind::Proto.codec();
    let mut image = Vec::new();
    proto
        .encode_with(Tai::layout(), &mut image, &mut put_wide_tai)
        .unwrap();
    let err = Tai::decode(proto, &image).unwrap_err().to_string();
    assert!(err.contains("Tai") && err.contains("`tac`"), "{err}");
    // Nested, the outer message is named too.
    let paging = Paging::layout();
    let f = &paging.fields;
    proto
        .encode_with(paging, &mut image, &mut |sink| {
            sink.begin_struct(paging)?;
            sink.presence(false)?;
            sink.choice(&f[0].ty, 0)?;
            sink.uint(f[0].ty.variant(0)?, 5)?;
            sink.begin_list(&f[1].ty, 1)?;
            put_wide_tai(sink)?;
            sink.end_list()?;
            sink.optional(f[2].ty.optional_inner()?, false)?;
            sink.end_struct()
        })
        .unwrap();
    let err = Paging::decode(proto, &image).unwrap_err().to_string();
    assert!(
        err.contains("Paging") && err.contains("Tai") && err.contains("`tac`"),
        "{err}"
    );

    // An attach request's IMSI, defaced in the image under each live codec.
    let msg = AttachRequest::sample(0);
    let imsi = msg.imsi.clone().expect("seed 0 attaches by IMSI");
    for codec in LIVE_CODECS {
        let mut image = Vec::new();
        msg.encode(codec.codec(), &mut image).unwrap();
        let at = image
            .windows(imsi.len())
            .position(|w| w == imsi.as_bytes())
            .expect("the digits are in the image as they are");
        image[at] = 0xFF;
        let err = AttachRequest::decode(codec.codec(), &image)
            .unwrap_err()
            .to_string();
        assert!(err.contains("UTF-8"), "{codec}: {err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Samples of every kind round-trip through every supporting codec
    /// (flexbuf's writer refuses a value outside its field's bounds).
    #[test]
    fn all_kinds_round_trip_for_any_seed(kind in any_kind(), seed in any::<u64>()) {
        let msg = kind.sample(seed);
        let schema = kind.schema();
        for codec_kind in CodecKind::ALL {
            let codec = codec_kind.codec();
            if !codec.supports(&schema) {
                continue;
            }
            let mut buf = Vec::new();
            msg.encode(codec, &mut buf).unwrap();
            let back = ControlMessage::decode(kind, codec, &buf).unwrap();
            prop_assert_eq!(&back, &msg, "{} via {}", kind, codec_kind);
        }
    }

    /// Every kind — exhaustively, not sampled — survives
    /// encode→decode→re-encode with *byte-identical* output through PER
    /// and both fastbuf flavors. Equality of the decoded message (above)
    /// is weaker: an encoder could emit different-but-decodable bytes per
    /// call (unstable field order, redundant presence bits) and still pass,
    /// which would break the simulator's byte-reproducibility story.
    #[test]
    fn every_kind_reencodes_byte_identically(seed in any::<u64>()) {
        for &kind in MessageKind::ALL {
            let msg = kind.sample(seed);
            let schema = kind.schema();
            for codec_kind in [CodecKind::Asn1Per, CodecKind::Fastbuf, CodecKind::FastbufOptimized] {
                let codec = codec_kind.codec();
                if !codec.supports(&schema) {
                    continue;
                }
                let mut first = Vec::new();
                msg.encode(codec, &mut first).unwrap();
                let back = ControlMessage::decode(kind, codec, &first).unwrap();
                prop_assert_eq!(&back, &msg, "{} via {} decode", kind, codec_kind);
                let mut second = Vec::new();
                back.encode(codec, &mut second).unwrap();
                prop_assert_eq!(
                    &first,
                    &second,
                    "{} via {}: re-encode must be byte-identical",
                    kind,
                    codec_kind
                );
            }
        }
    }

    /// PER stays the smallest encoding for every message and seed.
    #[test]
    fn per_is_size_floor(kind in any_kind(), seed in any::<u64>()) {
        let msg = kind.sample(seed);
        let mut per_buf = Vec::new();
        msg.encode(CodecKind::Asn1Per.codec(), &mut per_buf).unwrap();
        for codec_kind in [CodecKind::Fastbuf, CodecKind::FastbufOptimized, CodecKind::Flex] {
            let mut buf = Vec::new();
            msg.encode(codec_kind.codec(), &mut buf).unwrap();
            prop_assert!(
                per_buf.len() <= buf.len(),
                "{}: PER {} > {} {}",
                kind,
                per_buf.len(),
                codec_kind,
                buf.len()
            );
        }
    }

    /// The svtable optimization never grows a message.
    #[test]
    fn svtable_never_grows(kind in any_kind(), seed in any::<u64>()) {
        let msg = kind.sample(seed);
        let mut std_buf = Vec::new();
        let mut opt_buf = Vec::new();
        msg.encode(CodecKind::Fastbuf.codec(), &mut std_buf).unwrap();
        msg.encode(CodecKind::FastbufOptimized.codec(), &mut opt_buf).unwrap();
        prop_assert!(opt_buf.len() <= std_buf.len(), "{kind}");
    }

    /// UE state snapshots round-trip for arbitrary seeds (the replication
    /// payload must never lose information).
    #[test]
    fn ue_state_round_trips(seed in any::<u64>()) {
        let state = UeState::sample(seed);
        for codec_kind in [CodecKind::Asn1Per, CodecKind::FastbufOptimized] {
            let codec = codec_kind.codec();
            let mut buf = Vec::new();
            state.encode(codec, &mut buf).unwrap();
            prop_assert_eq!(UeState::decode(codec, &buf).unwrap(), state.clone());
        }
    }

    /// What a replica reads off a snapshot's wire image without parsing it
    /// is what the full parse says, for any state, and the image a decoded
    /// snapshot goes out as is the state's plain encoding.
    #[test]
    fn snapshot_header_agrees_with_the_full_decode(state in any_state()) {
        let mut image = Vec::new();
        state.encode(Snapshot::CODEC.codec(), &mut image).unwrap();
        let received = Snapshot::from_wire(&image).unwrap();
        prop_assert_eq!(received.ue(), state.ue);
        prop_assert_eq!(received.version(), state.version);
        prop_assert!(!received.is_materialised());
        prop_assert_eq!(received.get().unwrap(), &state);
        let built = Snapshot::from(state);
        prop_assert_eq!(built.wire().unwrap(), &image[..]);
        prop_assert_eq!(built, received);
    }
}
