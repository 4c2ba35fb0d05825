//! Exhaustive framing coverage: every [`SysMsg`] variant round-trips.
//!
//! The point of this test is the `match` in [`variant_index`]: it has **no
//! wildcard arm**, so adding a `SysMsg` variant without extending this file
//! is a *compile error*, exactly as it is in `encode_sysmsg`'s own
//! wildcard-free `match`. The two tests below then hold the rest of the
//! wire contract on the real bytes — every variant decodes back to itself
//! (so no decode arm is missing and encoder and decoder agree), and the
//! tags are distinct and contiguous `1..=N`. This file is the whole check:
//! a half-added frame tag (the PR 4 "tag 17" class) cannot land.

use neutrino_common::clock::ClockTick;
use neutrino_common::{BsId, CpfId, CtaId, ProcedureId, SessionId, UeId, UpfId};
use neutrino_messages::control::{Envelope, MessageKind};
use neutrino_messages::procedures::ProcedureKind;
use neutrino_messages::state::UeState;
use neutrino_messages::sysmsg::{
    AdmissionClass, MarkOutdated, Replay, S11Request, S11Response, SessionOp, StateSync, SyncAck,
    SyncPurpose, SysMsg,
};
use neutrino_messages::Wire;
use neutrino_net::{decode_sysmsg, encode_sysmsg};
use neutrino_codec::CodecKind;

/// Number of `SysMsg` variants the samples below must cover.
const VARIANT_COUNT: usize = 18;

/// Maps each variant to a dense index. Exhaustive **by construction**: no
/// wildcard arm, so a new variant fails to compile here until a sample (and
/// framing support) exists for it.
fn variant_index(msg: &SysMsg) -> usize {
    match msg {
        SysMsg::Control(_) => 0,
        SysMsg::StateSync(_) => 1,
        SysMsg::SyncAck(_) => 2,
        SysMsg::MarkOutdated(_) => 3,
        SysMsg::Replay(_) => 4,
        SysMsg::FetchState { .. } => 5,
        SysMsg::FetchStateResp { .. } => 6,
        SysMsg::S11(_) => 7,
        SysMsg::S11Resp(_) => 8,
        SysMsg::AskReAttach { .. } => 9,
        SysMsg::MigrationAck { .. } => 10,
        SysMsg::RelayReAttach { .. } => 11,
        SysMsg::DownlinkData { .. } => 12,
        SysMsg::DdnRequest { .. } => 13,
        SysMsg::CpfFailure { .. } => 14,
        SysMsg::ResyncRequest { .. } => 15,
        SysMsg::ResyncBehind { .. } => 16,
        SysMsg::Reject { .. } => 17,
    }
}

fn sample_envelope() -> Envelope {
    let mut e = Envelope::uplink(
        UeId::new(42),
        ProcedureId::new(3),
        ProcedureKind::ServiceRequest,
        MessageKind::ServiceRequest.sample(42),
    )
    .from_bs(BsId::new(7));
    e.via_cta = Some(CtaId::new(1));
    e.clock = ClockTick(99);
    e
}

/// One sample per variant, in declaration order.
fn samples() -> Vec<SysMsg> {
    let state = std::sync::Arc::new(UeState::sample(11));
    vec![
        SysMsg::Control(sample_envelope()),
        SysMsg::StateSync(StateSync {
            ue: UeId::new(11),
            primary: CpfId::new(1),
            cta: CtaId::new(0),
            state: state.clone(),
            procedure: ProcedureId::new(5),
            end_clock: ClockTick(77),
            purpose: SyncPurpose::Checkpoint,
        }),
        SysMsg::SyncAck(SyncAck {
            ue: UeId::new(11),
            replica: CpfId::new(9),
            procedure: ProcedureId::new(5),
            end_clock: ClockTick(77),
        }),
        SysMsg::MarkOutdated(MarkOutdated {
            ue: UeId::new(11),
            clock: ClockTick(80),
            up_to_date: vec![CpfId::new(1), CpfId::new(2)],
        }),
        SysMsg::Replay(Replay { ue: UeId::new(42), messages: vec![sample_envelope()] }),
        SysMsg::FetchState { ue: UeId::new(11), requester: CpfId::new(2) },
        SysMsg::FetchStateResp { ue: UeId::new(11), state: Some(state) },
        SysMsg::S11(S11Request {
            ue: UeId::new(1),
            cpf: CpfId::new(2),
            op: SessionOp::Create,
            session: Some(SessionId::new(5)),
        }),
        SysMsg::S11Resp(S11Response {
            ue: UeId::new(1),
            op: SessionOp::Delete,
            upf: UpfId::new(3),
            session: None,
            ok: true,
        }),
        SysMsg::AskReAttach { ue: UeId::new(4) },
        SysMsg::MigrationAck { ue: UeId::new(4) },
        SysMsg::RelayReAttach { ue: UeId::new(4), bs: BsId::new(2) },
        SysMsg::DownlinkData { ue: UeId::new(4) },
        SysMsg::DdnRequest { ue: UeId::new(4), upf: UpfId::new(1) },
        SysMsg::CpfFailure { cpf: CpfId::new(3) },
        SysMsg::ResyncRequest { ue: UeId::new(4), procedure: ProcedureId::new(7), cta: CtaId::new(1) },
        SysMsg::ResyncBehind { ue: UeId::new(4), have: ProcedureId::new(2), cpf: CpfId::new(3) },
        SysMsg::Reject { ue: UeId::new(4), class: AdmissionClass::Attach, retry_after_ms: 250 },
    ]
}

#[test]
fn every_variant_round_trips_in_every_codec() {
    let samples = samples();
    // The sample list covers each variant exactly once, in order.
    let indices: Vec<usize> = samples.iter().map(variant_index).collect();
    assert_eq!(
        indices,
        (0..VARIANT_COUNT).collect::<Vec<_>>(),
        "samples() must cover every SysMsg variant exactly once, in declaration order"
    );
    for codec in [CodecKind::Asn1Per, CodecKind::FastbufOptimized] {
        for msg in &samples {
            let mut frame = Vec::new();
            encode_sysmsg(msg, codec, &mut frame).unwrap_or_else(|e| {
                panic!("encode failed for {} under {codec}: {e:?}", msg.label())
            });
            let back = decode_sysmsg(&frame, codec).unwrap_or_else(|e| {
                panic!("decode failed for {} under {codec}: {e:?}", msg.label())
            });
            assert_eq!(&back, msg, "round-trip mismatch for {} under {codec}", msg.label());
        }
    }
}

#[test]
fn frame_tags_are_distinct_across_variants() {
    let samples = samples();
    let mut tags: Vec<u8> = Vec::new();
    for msg in &samples {
        let mut frame = Vec::new();
        encode_sysmsg(msg, CodecKind::FastbufOptimized, &mut frame).unwrap();
        tags.push(frame[0]);
    }
    let mut sorted = tags.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), VARIANT_COUNT, "duplicate frame tag across variants: {tags:?}");
    // Gap-free 1..=N.
    assert_eq!(sorted, (1..=VARIANT_COUNT as u8).collect::<Vec<_>>(), "tags must be contiguous 1..=N");
}
