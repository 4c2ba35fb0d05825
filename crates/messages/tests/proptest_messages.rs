//! Property-based tests over the message model: every message kind, with
//! randomized sample seeds, must survive every codec and keep its schema
//! contract.

use neutrino_codec::value::Value;
use neutrino_codec::CodecKind;
use neutrino_common::clock::ClockTick;
use neutrino_common::{BsId, ProcedureId, SessionId, UeId, UpfId};
use neutrino_messages::ies::Tai;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

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
