//! The frame-image identity contract: one pinned digest over the frames of
//! a sample set that covers every `SysMsg` variant and every field shape,
//! under every codec the live path runs, and over what `decode_sysmsg` makes
//! of each frame cut short or edited.
//!
//! `framing_exhaustive.rs` proves that decode inverts encode; a change that
//! reorders two same-typed fields, widens a count or reads a presence byte
//! differently passes it while altering the bytes on the wire or what a
//! malformed frame decodes to. This test does not: any such change moves
//! `PINNED_DIGEST`, and a sample added or lost moves `PINNED_FRAMES`. It is
//! to frames what `messages/tests/wire_image_pin.rs` is to message images.

use neutrino_codec::CodecKind;
use neutrino_common::clock::ClockTick;
use neutrino_common::{BsId, CpfId, CtaId, ProcedureId, SessionId, UeId, UpfId};
use neutrino_messages::control::{Envelope, MessageKind};
use neutrino_messages::procedures::ProcedureKind;
use neutrino_messages::state::UeState;
use neutrino_messages::sysmsg::{
    AdmissionClass, MarkOutdated, Replay, S11Request, S11Response, SessionOp, StateSync, SyncAck,
    SyncPurpose, SysMsg,
};
use neutrino_messages::{Snapshot, Wire};
use neutrino_net::{decode_sysmsg, encode_sysmsg};

/// Digest of every frame, every truncation's outcome and every byte edit's
/// decoded `Debug`. Recorded on the tree whose `framing.rs` still paired a
/// hand-written decode arm with each encode arm.
const PINNED_DIGEST: u64 = 0xcd39_75c8_0c82_7295;

/// Frames folded: every sample under every live codec.
const PINNED_FRAMES: usize = 708;

const CODECS: [CodecKind; 3] = [
    CodecKind::Asn1Per,
    CodecKind::Fastbuf,
    CodecKind::FastbufOptimized,
];

/// What a byte under test is set to, in turn.
const EDITS: [u8; 6] = [0, 1, 2, 3, 4, 0xFF];

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One envelope per (message kind, procedure kind) pair, cycling through
/// every combination of `via_cta`, direction and `end_of_procedure`.
fn envelopes() -> Vec<Envelope> {
    let mut out = Vec::new();
    for (k, &kind) in MessageKind::ALL.iter().enumerate() {
        for (p, &proc_kind) in ProcedureKind::ALL.iter().enumerate() {
            let i = (k * ProcedureKind::ALL.len() + p) as u64;
            let (ue, procedure) = (UeId::new(i * 7 + 1), ProcedureId::new(i + 2));
            let msg = kind.sample(i);
            let mut env = if i & 2 == 0 {
                Envelope::uplink(ue, procedure, proc_kind, msg)
            } else {
                Envelope::downlink(ue, procedure, proc_kind, msg)
            };
            env = env.from_bs(BsId::new(i % 5));
            env.clock = ClockTick(i * 3);
            if i & 1 == 1 {
                env.via_cta = Some(CtaId::new(i % 3));
            }
            if i & 4 == 4 {
                env = env.ending_procedure();
            }
            out.push(env);
        }
    }
    out
}

/// Every variant other than `Control`, and within each every shape a field
/// can take: both purposes, empty and full lists, an absent and a present
/// option, every session op, every admission class.
fn others(sent: &[Envelope]) -> Vec<SysMsg> {
    let state = Snapshot::from(UeState::sample(11));
    let mut out = Vec::new();
    for purpose in [SyncPurpose::Checkpoint, SyncPurpose::Migration] {
        out.push(SysMsg::StateSync(StateSync {
            ue: UeId::new(11),
            primary: CpfId::new(1),
            cta: CtaId::new(2),
            state: state.clone(),
            procedure: ProcedureId::new(5),
            end_clock: ClockTick(77),
            purpose,
        }));
    }
    out.push(SysMsg::SyncAck(SyncAck {
        ue: UeId::new(11),
        replica: CpfId::new(9),
        procedure: ProcedureId::new(5),
        end_clock: ClockTick(77),
    }));
    for up_to_date in [vec![], vec![CpfId::new(1), CpfId::new(2), CpfId::new(4)]] {
        out.push(SysMsg::MarkOutdated(MarkOutdated {
            ue: UeId::new(11),
            clock: ClockTick(80),
            up_to_date,
        }));
    }
    for messages in [vec![], sent[..3].to_vec()] {
        out.push(SysMsg::Replay(Replay {
            ue: UeId::new(42),
            messages,
        }));
    }
    out.push(SysMsg::FetchState {
        ue: UeId::new(11),
        requester: CpfId::new(3),
    });
    for state in [Some(state), None] {
        out.push(SysMsg::FetchStateResp {
            ue: UeId::new(11),
            state,
        });
    }
    for op in [SessionOp::Create, SessionOp::Modify, SessionOp::Delete] {
        for session in [Some(SessionId::new(6)), None] {
            out.push(SysMsg::S11(S11Request {
                ue: UeId::new(1),
                cpf: CpfId::new(2),
                op,
                session,
            }));
            for ok in [true, false] {
                out.push(SysMsg::S11Resp(S11Response {
                    ue: UeId::new(1),
                    op,
                    upf: UpfId::new(3),
                    session,
                    ok,
                }));
            }
        }
    }
    out.extend([
        SysMsg::AskReAttach { ue: UeId::new(4) },
        SysMsg::MigrationAck { ue: UeId::new(5) },
        SysMsg::RelayReAttach {
            ue: UeId::new(6),
            bs: BsId::new(2),
        },
        SysMsg::DownlinkData { ue: UeId::new(7) },
        SysMsg::DdnRequest {
            ue: UeId::new(8),
            upf: UpfId::new(1),
        },
        SysMsg::CpfFailure { cpf: CpfId::new(3) },
        SysMsg::ResyncRequest {
            ue: UeId::new(9),
            procedure: ProcedureId::new(7),
            cta: CtaId::new(1),
        },
        SysMsg::ResyncBehind {
            ue: UeId::new(10),
            have: ProcedureId::new(2),
            cpf: CpfId::new(3),
        },
    ]);
    for &class in AdmissionClass::ALL {
        out.push(SysMsg::Reject {
            ue: UeId::new(12),
            class,
            retry_after_ms: 250 + class.raw() as u64,
        });
    }
    out
}

/// The decoded frame's `Debug`, or `Err`.
fn outcome(frame: &[u8], codec: CodecKind) -> String {
    match decode_sysmsg(frame, codec) {
        Ok(msg) => format!("{msg:?}"),
        Err(_) => "Err".to_owned(),
    }
}

#[test]
fn every_frame_and_every_decode_outcome_matches_the_pin() {
    let sent = envelopes();
    let others = others(&sent);
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    let mut frames = 0;
    for codec in CODECS {
        let controls = sent.iter().cloned().map(SysMsg::Control);
        for (i, msg) in controls.chain(others.iter().cloned()).enumerate() {
            let mut frame = Vec::new();
            encode_sysmsg(&msg, codec, &mut frame)
                .unwrap_or_else(|e| panic!("{} under {codec}: {e}", msg.label()));
            fnv.bytes(&frame);
            frames += 1;
            let cuts: Vec<u8> = (0..frame.len())
                .map(|cut| u8::from(decode_sysmsg(&frame[..cut], codec).is_ok()))
                .collect();
            fnv.bytes(&cuts);
            if i < sent.len() {
                continue;
            }
            for at in 0..frame.len() {
                for value in EDITS {
                    let mut edited = frame.clone();
                    edited[at] = value;
                    fnv.bytes(outcome(&edited, codec).as_bytes());
                }
            }
        }
    }
    assert_eq!(
        (fnv.0, frames),
        (PINNED_DIGEST, PINNED_FRAMES),
        "frame image changed: got digest {:#018x}, {} frames",
        fnv.0,
        frames
    );
}
