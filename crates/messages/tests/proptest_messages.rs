//! Property-based tests over the message model: every message kind, with
//! randomized sample seeds, must survive every codec and keep its schema
//! contract.

use neutrino_codec::value::Value;
use neutrino_codec::CodecKind;
use neutrino_common::clock::ClockTick;
use neutrino_common::{BsId, ProcedureId, SessionId, UeId, UpfId};
use neutrino_messages::ies::{Cgi, ErabFailedItem, ErabSetupItem, ErabToSetup, Tai, UeAmbr};
use neutrino_messages::nas::AttachRequest;
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

/// Every malformed variant of the well-formed struct value `good`: the last
/// field dropped, one appended, each field in turn replaced by a value of
/// another shape, and a non-struct.
fn malformed_trees(good: &Value) -> Vec<(String, Value)> {
    let fields = good.as_struct().expect("messages are structs");
    let other_shape = |v: &Value| match v {
        Value::Bool(_) => Value::U64(0),
        _ => Value::Bool(true),
    };
    let mut out = vec![
        (
            "last field dropped".into(),
            Value::Struct(fields[..fields.len() - 1].to_vec()),
        ),
        (
            "one field appended".into(),
            Value::Struct([fields, &[Value::U64(0)]].concat()),
        ),
        ("not a struct".into(), Value::U64(0)),
    ];
    for i in 0..fields.len() {
        let mut mutated = fields.to_vec();
        mutated[i] = other_shape(&fields[i]);
        out.push((format!("field {i} reshaped"), Value::Struct(mutated)));
    }
    out
}

/// `parse` accepts `good` and turns every malformed variant of it into an
/// error that names the message.
fn rejects_malformed<T>(
    name: &str,
    good: &Value,
    parse: impl Fn(&Value) -> neutrino_common::Result<T>,
) -> Result<(), TestCaseError> {
    prop_assert!(parse(good).is_ok(), "{}: well-formed tree", name);
    for (what, bad) in malformed_trees(good) {
        let err = parse(&bad).err().map(|e| e.to_string());
        prop_assert!(
            err.as_deref().is_some_and(|e| e.contains(name)),
            "{}, {}: got {:?}",
            name,
            what,
            err
        );
    }
    Ok(())
}

const LIVE_CODECS: [CodecKind; 3] = [
    CodecKind::Asn1Per,
    CodecKind::Fastbuf,
    CodecKind::FastbufOptimized,
];

/// The streamed path is the value path: under every live codec `put`'s
/// image is the image of `to_value` encoded by schema, and `take` of it is
/// `from_value` of it decoded by schema (and the message that went in).
fn streams_as_its_value<T: Wire + PartialEq + std::fmt::Debug>(
    msg: &T,
) -> Result<(), TestCaseError> {
    let schema = T::schema();
    for kind in LIVE_CODECS {
        let codec = kind.codec();
        let (mut streamed, mut by_value) = (Vec::new(), Vec::new());
        msg.encode(codec, &mut streamed).unwrap();
        codec
            .encode(&schema, &msg.to_value(), &mut by_value)
            .unwrap();
        prop_assert_eq!(&streamed, &by_value, "{} image via {}", schema.name, kind);
        let taken = T::decode(codec, &streamed).unwrap();
        let parsed = T::from_value(&codec.decode(&schema, &streamed).unwrap()).unwrap();
        prop_assert_eq!(&taken, &parsed, "{} via {}", schema.name, kind);
        prop_assert_eq!(&taken, msg, "{} via {}", schema.name, kind);
    }
    Ok(())
}

/// What `from_value` refused, `take` refuses — off a tree or off an image —
/// with an error naming the message and the field: a value outside the
/// field's Rust type, and a string that is not UTF-8.
#[test]
fn take_names_the_message_and_field_it_refuses() {
    // `tac` is a `u16` declared 16 bits wide; a codec that stores it wider
    // (or a hand-built tree) can still hand back more.
    let wide = Value::Struct(vec![Value::U64(1), Value::U64(70_000)]);
    let err = Tai::from_value(&wide).unwrap_err().to_string();
    assert!(err.contains("Tai") && err.contains("`tac`"), "{err}");
    // Nested, the outer message is named too.
    let mut paging = MessageKind::Paging.sample(1).to_value();
    let Value::Struct(fields) = &mut paging else {
        panic!("messages are structs")
    };
    let at = fields
        .iter()
        .position(|f| matches!(f, Value::List(_)))
        .expect("paging carries a TAI list");
    fields[at] = Value::List(vec![wide]);
    let err = MessageKind::Paging
        .from_value(&paging)
        .unwrap_err()
        .to_string();
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

    /// Every wire type — the 28 kinds, the replicated state over the whole
    /// of what its schema admits, and the shared IEs — streams as its value.
    #[test]
    fn put_and_take_are_the_value_path(seed in any::<u64>(), state in any_state()) {
        for &kind in MessageKind::ALL {
            let msg = kind.sample(seed);
            let schema = kind.schema();
            for codec_kind in LIVE_CODECS {
                let codec = codec_kind.codec();
                let (mut streamed, mut by_value) = (Vec::new(), Vec::new());
                msg.encode(codec, &mut streamed).unwrap();
                codec.encode(&schema, &msg.to_value(), &mut by_value).unwrap();
                prop_assert_eq!(&streamed, &by_value, "{} image via {}", kind, codec_kind);
                let taken = ControlMessage::decode(kind, codec, &streamed).unwrap();
                let parsed = kind.from_value(&codec.decode(&schema, &streamed).unwrap()).unwrap();
                prop_assert_eq!(&taken, &parsed, "{} via {}", kind, codec_kind);
                prop_assert_eq!(&taken, &msg, "{} via {}", kind, codec_kind);
            }
        }
        streams_as_its_value(&state)?;
        for bearer in &state.bearers {
            streams_as_its_value(bearer)?;
        }
        streams_as_its_value(&state.tai)?;
        streams_as_its_value(&Cgi::sample(seed))?;
        streams_as_its_value(&ErabToSetup::sample(seed))?;
        streams_as_its_value(&ErabSetupItem::sample(seed))?;
        streams_as_its_value(&ErabFailedItem::sample(seed))?;
        streams_as_its_value(&UeAmbr::sample(seed))?;
    }

    /// Samples of every kind validate against their schema and round-trip
    /// through every supporting codec.
    #[test]
    fn all_kinds_round_trip_for_any_seed(kind in any_kind(), seed in any::<u64>()) {
        let msg = kind.sample(seed);
        let schema = kind.schema();
        schema.validate(&msg.to_value()).unwrap();
        for codec_kind in CodecKind::ALL {
            let codec = codec_kind.codec();
            if !codec.supports(&schema) {
                continue;
            }
            let mut buf = Vec::new();
            msg.encode(codec, &mut buf).unwrap();
            let back = ControlMessage::decode(kind, codec, &buf).unwrap();
            prop_assert_eq!(&back, &msg, "{} via {}", kind, codec_kind);
            // Traverse agrees with the canonical checksum.
            prop_assert_eq!(
                codec.traverse(&schema, &buf).unwrap(),
                neutrino_codec::checksum_value(&msg.to_value()),
                "{} traverse via {}",
                kind,
                codec_kind
            );
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
        let schema = kind.schema();
        let per = CodecKind::Asn1Per.codec();
        let mut per_buf = Vec::new();
        per.encode(&schema, &msg.to_value(), &mut per_buf).unwrap();
        for codec_kind in [CodecKind::Fastbuf, CodecKind::FastbufOptimized, CodecKind::Flex] {
            let codec = codec_kind.codec();
            let mut buf = Vec::new();
            codec.encode(&schema, &msg.to_value(), &mut buf).unwrap();
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
        let schema = kind.schema();
        let mut std_buf = Vec::new();
        let mut opt_buf = Vec::new();
        CodecKind::Fastbuf.codec().encode(&schema, &msg.to_value(), &mut std_buf).unwrap();
        CodecKind::FastbufOptimized.codec().encode(&schema, &msg.to_value(), &mut opt_buf).unwrap();
        prop_assert!(opt_buf.len() <= std_buf.len(), "{kind}");
    }

    /// A `Value` tree that does not have the message's shape is an error
    /// naming the message — never a panic — for every kind and for the
    /// replicated UE state; the well-formed tree parses.
    #[test]
    fn from_value_rejects_malformed_trees(seed in any::<u64>()) {
        for &kind in MessageKind::ALL {
            let good = kind.sample(seed).to_value();
            rejects_malformed(kind.name(), &good, |v| kind.from_value(v))?;
        }
        rejects_malformed("UeState", &UeState::sample(seed).to_value(), UeState::from_value)?;
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
