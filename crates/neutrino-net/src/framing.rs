//! Wire framing for [`SysMsg`] over byte transports.
//!
//! Layout: a 1-byte message tag, fixed-width header fields, then the
//! payload. Control-message payloads are encoded with the *system's* codec
//! (the serialization under evaluation); state snapshots travel under
//! [`Snapshot::CODEC`] regardless. Length-prefixed throughout so frames
//! survive stream transports.
//!
//! Decoding reads a control envelope's fixed header and keeps its payload
//! block as a wire-backed [`Payload`] without running the codec; encoding
//! such a payload under the codec it arrived in copies the block back out.
//! A forwarder therefore pays a header read and a memcpy per hop, the codec
//! runs once where a message is built and once where it is read, and a
//! corrupt payload is found by its reader, not here. A state snapshot is
//! carried the same way: its block becomes a wire-backed [`Snapshot`] after
//! a look at the UE id inside it, and goes out as the image the snapshot
//! holds — received, or encoded once for all the frames it goes into.
//!
//! Encoding writes into a caller-supplied `Vec<u8>` so transports can
//! recycle frame buffers ([`neutrino_codec::scratch`]); interior payload
//! temporaries come from the same pool, and the codecs the live path runs
//! stream the message's fields into the buffer they are handed (PER's bit
//! writer appends to it; fastbuf's slot stacks are per-thread), so the
//! steady-state encode path is allocation-free
//! (`tests/framing_exhaustive.rs::the_second_encode_into_one_buffer_allocates_nothing`).

use bytes::{Buf, BufMut};
use neutrino_codec::{scratch, CodecKind};
use neutrino_common::clock::ClockTick;
use neutrino_common::{BsId, CpfId, CtaId, Error, ProcedureId, Result, SessionId, UeId, UpfId};
use neutrino_messages::control::{Direction, Envelope, MessageKind};
use neutrino_messages::procedures::ProcedureKind;
use neutrino_messages::sysmsg::{
    AdmissionClass, MarkOutdated, Replay, S11Request, S11Response, SessionOp, StateSync, SyncAck,
    SyncPurpose, SysMsg,
};
use neutrino_messages::{Payload, Snapshot};

const TAG_CONTROL: u8 = 1;
const TAG_STATE_SYNC: u8 = 2;
const TAG_SYNC_ACK: u8 = 3;
const TAG_MARK_OUTDATED: u8 = 4;
const TAG_REPLAY: u8 = 5;
const TAG_FETCH_STATE: u8 = 6;
const TAG_FETCH_RESP: u8 = 7;
const TAG_S11: u8 = 8;
const TAG_S11_RESP: u8 = 9;
const TAG_ASK_RE_ATTACH: u8 = 10;
const TAG_MIGRATION_ACK: u8 = 11;
const TAG_RELAY_RE_ATTACH: u8 = 12;
const TAG_CPF_FAILURE: u8 = 13;
const TAG_DOWNLINK_DATA: u8 = 14;
const TAG_DDN: u8 = 15;
const TAG_RESYNC_REQUEST: u8 = 16;
const TAG_RESYNC_BEHIND: u8 = 17;
const TAG_REJECT: u8 = 18;

fn err(detail: impl Into<String>) -> Error {
    Error::codec("framing", detail.into())
}

// The on-wire code of a kind is its declaration index: `ALL` lists the
// variants in declaration order (`wire_codes_are_declaration_indices`).
fn kind_code(kind: MessageKind) -> u16 {
    kind as u16
}

fn kind_from_code(code: u16) -> Result<MessageKind> {
    MessageKind::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| err(format!("bad message kind code {code}")))
}

fn proc_kind_code(kind: ProcedureKind) -> u8 {
    kind as u8
}

fn proc_kind_from_code(code: u8) -> Result<ProcedureKind> {
    ProcedureKind::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| err(format!("bad procedure kind code {code}")))
}

fn put_block(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.put_u32(bytes.len() as u32);
    buf.put_slice(bytes);
}

fn get_block<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8]> {
    if buf.remaining() < 4 {
        return Err(err("truncated block length"));
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(err("truncated block body"));
    }
    let (head, tail) = buf.split_at(len);
    *buf = tail;
    Ok(head)
}

/// The shortest framed envelope: its fixed header (no `via_cta`) and an
/// empty payload block's length.
const MIN_ENVELOPE_LEN: usize = 8 + 8 + 1 + 8 + 1 + 8 + 1 + 1 + 2 + 4;

fn put_envelope(env: &Envelope, codec: CodecKind, buf: &mut Vec<u8>) -> Result<()> {
    buf.put_u64(env.ue.raw());
    buf.put_u64(env.procedure.raw());
    buf.put_u8(proc_kind_code(env.proc_kind));
    buf.put_u64(env.bs.raw());
    match env.via_cta {
        Some(c) => {
            buf.put_u8(1);
            buf.put_u64(c.raw());
        }
        None => buf.put_u8(0),
    }
    buf.put_u64(env.clock.raw());
    buf.put_u8(match env.direction {
        Direction::Uplink => 0,
        Direction::Downlink => 1,
    });
    buf.put_u8(u8::from(env.end_of_procedure));
    buf.put_u16(kind_code(env.msg.kind()));
    // Bytes received under the outgoing codec go out as they came in; only
    // a payload built here, or received under another codec, is encoded —
    // a sample body through the tree it names, built for this encode.
    match env.msg.wire(codec) {
        Some(bytes) => {
            put_block(buf, bytes);
            Ok(())
        }
        None => scratch::with_buf(|payload| {
            env.msg.get()?.encode(codec.codec(), payload)?;
            put_block(buf, payload);
            Ok(())
        }),
    }
}

fn take_u64(buf: &mut &[u8]) -> Result<u64> {
    need(buf, 8)?;
    Ok(buf.get_u64())
}

fn take_u16(buf: &mut &[u8]) -> Result<u16> {
    need(buf, 2)?;
    Ok(buf.get_u16())
}

fn take_u8(buf: &mut &[u8]) -> Result<u8> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

/// Reads the fixed header and keeps the payload block as received: no codec
/// runs here, so a corrupt payload surfaces where it is first read (the CPF).
fn get_envelope(buf: &mut &[u8], codec: CodecKind) -> Result<Envelope> {
    let ue = UeId::new(take_u64(buf)?);
    let procedure = ProcedureId::new(take_u64(buf)?);
    let proc_kind = proc_kind_from_code(take_u8(buf)?)?;
    let bs = BsId::new(take_u64(buf)?);
    let via_cta = if take_u8(buf)? == 1 {
        Some(CtaId::new(take_u64(buf)?))
    } else {
        None
    };
    let clock = ClockTick(take_u64(buf)?);
    let direction = match take_u8(buf)? {
        0 => Direction::Uplink,
        1 => Direction::Downlink,
        other => return Err(err(format!("bad direction {other}"))),
    };
    let end_of_procedure = take_u8(buf)? == 1;
    let kind = kind_from_code(take_u16(buf)?)?;
    let payload = get_block(buf)?;
    Ok(Envelope {
        ue,
        procedure,
        proc_kind,
        bs,
        via_cta,
        clock,
        direction,
        end_of_procedure,
        msg: Payload::from_wire(kind, codec, payload),
    })
}

fn put_state(state: &Snapshot, buf: &mut Vec<u8>) -> Result<()> {
    put_block(buf, state.wire()?);
    Ok(())
}

/// Keeps the snapshot block as received. `ue` is the frame header's: a
/// receiver stores under the image's id and answers to the header's, so a
/// frame whose two disagree is malformed.
fn get_state(buf: &mut &[u8], ue: UeId) -> Result<Snapshot> {
    let state = Snapshot::from_wire(get_block(buf)?)?;
    if state.ue() != ue {
        return Err(err(format!(
            "snapshot of {} in a frame for {ue}",
            state.ue()
        )));
    }
    Ok(state)
}

/// Encodes a [`SysMsg`] as a self-contained frame into `buf`.
///
/// `buf` is cleared first so callers can recycle one buffer across frames
/// (e.g. via [`scratch::with_buf`]); on error its contents are unspecified.
pub fn encode_sysmsg(msg: &SysMsg, codec: CodecKind, buf: &mut Vec<u8>) -> Result<()> {
    buf.clear();
    buf.reserve(64);
    match msg {
        SysMsg::Control(env) => {
            buf.put_u8(TAG_CONTROL);
            put_envelope(env, codec, buf)?;
        }
        SysMsg::StateSync(s) => {
            buf.put_u8(TAG_STATE_SYNC);
            buf.put_u64(s.ue.raw());
            buf.put_u64(s.primary.raw());
            buf.put_u64(s.cta.raw());
            buf.put_u64(s.procedure.raw());
            buf.put_u64(s.end_clock.raw());
            buf.put_u8(match s.purpose {
                SyncPurpose::Checkpoint => 0,
                SyncPurpose::Migration => 1,
            });
            put_state(&s.state, buf)?;
        }
        SysMsg::SyncAck(a) => {
            buf.put_u8(TAG_SYNC_ACK);
            buf.put_u64(a.ue.raw());
            buf.put_u64(a.replica.raw());
            buf.put_u64(a.procedure.raw());
            buf.put_u64(a.end_clock.raw());
        }
        SysMsg::MarkOutdated(m) => {
            buf.put_u8(TAG_MARK_OUTDATED);
            buf.put_u64(m.ue.raw());
            buf.put_u64(m.clock.raw());
            buf.put_u16(m.up_to_date.len() as u16);
            for c in &m.up_to_date {
                buf.put_u64(c.raw());
            }
        }
        SysMsg::Replay(r) => {
            buf.put_u8(TAG_REPLAY);
            buf.put_u64(r.ue.raw());
            buf.put_u32(r.messages.len() as u32);
            for env in &r.messages {
                put_envelope(env, codec, buf)?;
            }
        }
        SysMsg::FetchState { ue, requester } => {
            buf.put_u8(TAG_FETCH_STATE);
            buf.put_u64(ue.raw());
            buf.put_u64(requester.raw());
        }
        SysMsg::FetchStateResp { ue, state } => {
            buf.put_u8(TAG_FETCH_RESP);
            buf.put_u64(ue.raw());
            match state {
                Some(s) => {
                    buf.put_u8(1);
                    put_state(s, buf)?;
                }
                None => buf.put_u8(0),
            }
        }
        SysMsg::S11(r) => {
            buf.put_u8(TAG_S11);
            buf.put_u64(r.ue.raw());
            buf.put_u64(r.cpf.raw());
            buf.put_u8(session_op_code(r.op));
            put_opt_u64(buf, r.session.map(|s| s.raw()));
        }
        SysMsg::S11Resp(r) => {
            buf.put_u8(TAG_S11_RESP);
            buf.put_u64(r.ue.raw());
            buf.put_u8(session_op_code(r.op));
            buf.put_u64(r.upf.raw());
            put_opt_u64(buf, r.session.map(|s| s.raw()));
            buf.put_u8(u8::from(r.ok));
        }
        SysMsg::AskReAttach { ue } => {
            buf.put_u8(TAG_ASK_RE_ATTACH);
            buf.put_u64(ue.raw());
        }
        SysMsg::MigrationAck { ue } => {
            buf.put_u8(TAG_MIGRATION_ACK);
            buf.put_u64(ue.raw());
        }
        SysMsg::RelayReAttach { ue, bs } => {
            buf.put_u8(TAG_RELAY_RE_ATTACH);
            buf.put_u64(ue.raw());
            buf.put_u64(bs.raw());
        }
        SysMsg::CpfFailure { cpf } => {
            buf.put_u8(TAG_CPF_FAILURE);
            buf.put_u64(cpf.raw());
        }
        SysMsg::DownlinkData { ue } => {
            buf.put_u8(TAG_DOWNLINK_DATA);
            buf.put_u64(ue.raw());
        }
        SysMsg::DdnRequest { ue, upf } => {
            buf.put_u8(TAG_DDN);
            buf.put_u64(ue.raw());
            buf.put_u64(upf.raw());
        }
        SysMsg::ResyncRequest { ue, procedure, cta } => {
            buf.put_u8(TAG_RESYNC_REQUEST);
            buf.put_u64(ue.raw());
            buf.put_u64(procedure.raw());
            buf.put_u64(cta.raw());
        }
        SysMsg::ResyncBehind { ue, have, cpf } => {
            buf.put_u8(TAG_RESYNC_BEHIND);
            buf.put_u64(ue.raw());
            buf.put_u64(have.raw());
            buf.put_u64(cpf.raw());
        }
        SysMsg::Reject {
            ue,
            class,
            retry_after_ms,
        } => {
            buf.put_u8(TAG_REJECT);
            buf.put_u64(ue.raw());
            buf.put_u8(class.raw());
            buf.put_u64(*retry_after_ms);
        }
    }
    Ok(())
}

fn session_op_code(op: SessionOp) -> u8 {
    match op {
        SessionOp::Create => 0,
        SessionOp::Modify => 1,
        SessionOp::Delete => 2,
    }
}

fn session_op_from(code: u8) -> Result<SessionOp> {
    Ok(match code {
        0 => SessionOp::Create,
        1 => SessionOp::Modify,
        2 => SessionOp::Delete,
        other => return Err(err(format!("bad session op {other}"))),
    })
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            buf.put_u8(1);
            buf.put_u64(x);
        }
        None => buf.put_u8(0),
    }
}

fn get_opt_u64(buf: &mut &[u8]) -> Result<Option<u64>> {
    if buf.remaining() < 1 {
        return Err(err("truncated option"));
    }
    if buf.get_u8() == 1 {
        if buf.remaining() < 8 {
            return Err(err("truncated option body"));
        }
        Ok(Some(buf.get_u64()))
    } else {
        Ok(None)
    }
}

fn need(buf: &&[u8], n: usize) -> Result<()> {
    if buf.remaining() < n {
        Err(err("truncated frame"))
    } else {
        Ok(())
    }
}

/// Decodes a frame produced by [`encode_sysmsg`] with the same codec.
/// Control payloads (in `Control` and `Replay`) and state snapshots (in
/// `StateSync` and `FetchStateResp`) are carried over unparsed: `Ok` vouches
/// for the frame structure, not for their bytes.
pub fn decode_sysmsg(frame: &[u8], codec: CodecKind) -> Result<SysMsg> {
    let mut buf = frame;
    need(&buf, 1)?;
    let tag = buf.get_u8();
    let msg = match tag {
        TAG_CONTROL => SysMsg::Control(get_envelope(&mut buf, codec)?),
        TAG_STATE_SYNC => {
            need(&buf, 8 * 5 + 1)?;
            let ue = UeId::new(buf.get_u64());
            let primary = CpfId::new(buf.get_u64());
            let cta = CtaId::new(buf.get_u64());
            let procedure = ProcedureId::new(buf.get_u64());
            let end_clock = ClockTick(buf.get_u64());
            let purpose = match buf.get_u8() {
                0 => SyncPurpose::Checkpoint,
                1 => SyncPurpose::Migration,
                other => return Err(err(format!("bad purpose {other}"))),
            };
            let state = get_state(&mut buf, ue)?;
            SysMsg::StateSync(StateSync {
                ue,
                primary,
                cta,
                state,
                procedure,
                end_clock,
                purpose,
            })
        }
        TAG_SYNC_ACK => {
            need(&buf, 8 * 4)?;
            SysMsg::SyncAck(SyncAck {
                ue: UeId::new(buf.get_u64()),
                replica: CpfId::new(buf.get_u64()),
                procedure: ProcedureId::new(buf.get_u64()),
                end_clock: ClockTick(buf.get_u64()),
            })
        }
        TAG_MARK_OUTDATED => {
            need(&buf, 8 * 2 + 2)?;
            let ue = UeId::new(buf.get_u64());
            let clock = ClockTick(buf.get_u64());
            let n = buf.get_u16() as usize;
            need(&buf, 8 * n)?;
            let up_to_date = (0..n).map(|_| CpfId::new(buf.get_u64())).collect();
            SysMsg::MarkOutdated(MarkOutdated {
                ue,
                clock,
                up_to_date,
            })
        }
        TAG_REPLAY => {
            need(&buf, 8 + 4)?;
            let ue = UeId::new(buf.get_u64());
            let n = buf.get_u32() as usize;
            // The count is the sender's word; reserve no more envelopes
            // than the rest of the frame can hold.
            let mut messages = Vec::with_capacity(n.min(buf.remaining() / MIN_ENVELOPE_LEN));
            for _ in 0..n {
                messages.push(get_envelope(&mut buf, codec)?);
            }
            SysMsg::Replay(Replay { ue, messages })
        }
        TAG_FETCH_STATE => {
            need(&buf, 16)?;
            SysMsg::FetchState {
                ue: UeId::new(buf.get_u64()),
                requester: CpfId::new(buf.get_u64()),
            }
        }
        TAG_FETCH_RESP => {
            need(&buf, 9)?;
            let ue = UeId::new(buf.get_u64());
            let state = if buf.get_u8() == 1 {
                Some(get_state(&mut buf, ue)?)
            } else {
                None
            };
            SysMsg::FetchStateResp { ue, state }
        }
        TAG_S11 => {
            need(&buf, 17)?;
            let ue = UeId::new(buf.get_u64());
            let cpf = CpfId::new(buf.get_u64());
            let op = session_op_from(buf.get_u8())?;
            let session = get_opt_u64(&mut buf)?.map(SessionId::new);
            SysMsg::S11(S11Request {
                ue,
                cpf,
                op,
                session,
            })
        }
        TAG_S11_RESP => {
            need(&buf, 17)?;
            let ue = UeId::new(buf.get_u64());
            let op = session_op_from(buf.get_u8())?;
            let upf = UpfId::new(buf.get_u64());
            let session = get_opt_u64(&mut buf)?.map(SessionId::new);
            need(&buf, 1)?;
            let ok = buf.get_u8() == 1;
            SysMsg::S11Resp(S11Response {
                ue,
                op,
                upf,
                session,
                ok,
            })
        }
        TAG_ASK_RE_ATTACH => {
            need(&buf, 8)?;
            SysMsg::AskReAttach {
                ue: UeId::new(buf.get_u64()),
            }
        }
        TAG_MIGRATION_ACK => {
            need(&buf, 8)?;
            SysMsg::MigrationAck {
                ue: UeId::new(buf.get_u64()),
            }
        }
        TAG_RELAY_RE_ATTACH => {
            need(&buf, 16)?;
            SysMsg::RelayReAttach {
                ue: UeId::new(buf.get_u64()),
                bs: BsId::new(buf.get_u64()),
            }
        }
        TAG_CPF_FAILURE => {
            need(&buf, 8)?;
            SysMsg::CpfFailure {
                cpf: CpfId::new(buf.get_u64()),
            }
        }
        TAG_DOWNLINK_DATA => {
            need(&buf, 8)?;
            SysMsg::DownlinkData {
                ue: UeId::new(buf.get_u64()),
            }
        }
        TAG_DDN => {
            need(&buf, 16)?;
            SysMsg::DdnRequest {
                ue: UeId::new(buf.get_u64()),
                upf: UpfId::new(buf.get_u64()),
            }
        }
        TAG_RESYNC_REQUEST => {
            need(&buf, 24)?;
            SysMsg::ResyncRequest {
                ue: UeId::new(buf.get_u64()),
                procedure: ProcedureId::new(buf.get_u64()),
                cta: CtaId::new(buf.get_u64()),
            }
        }
        TAG_RESYNC_BEHIND => {
            need(&buf, 24)?;
            SysMsg::ResyncBehind {
                ue: UeId::new(buf.get_u64()),
                have: ProcedureId::new(buf.get_u64()),
                cpf: CpfId::new(buf.get_u64()),
            }
        }
        TAG_REJECT => {
            need(&buf, 17)?;
            let ue = UeId::new(buf.get_u64());
            let raw = buf.get_u8();
            let class = AdmissionClass::from_raw(raw)
                .ok_or_else(|| err(format!("bad admission class {raw}")))?;
            SysMsg::Reject {
                ue,
                class,
                retry_after_ms: buf.get_u64(),
            }
        }
        other => return Err(err(format!("unknown frame tag {other}"))),
    };
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutrino_messages::state::UeState;
    use neutrino_messages::Wire;

    fn encode(msg: &SysMsg, codec: CodecKind) -> Result<Vec<u8>> {
        let mut frame = Vec::new();
        encode_sysmsg(msg, codec, &mut frame)?;
        Ok(frame)
    }

    fn round_trip(msg: SysMsg, codec: CodecKind) {
        let frame = encode(&msg, codec).unwrap();
        let back = decode_sysmsg(&frame, codec).unwrap();
        assert_eq!(back, msg, "codec {codec}");

        // A recycled dirty buffer must produce the identical frame.
        let mut reused = vec![0xFF; 32];
        encode_sysmsg(&msg, codec, &mut reused).unwrap();
        assert_eq!(reused, frame, "recycled buffer must be cleared first");
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

    #[test]
    fn wire_codes_are_declaration_indices() {
        // `kind_code`/`proc_kind_code` cast the discriminant and the decode
        // side indexes `ALL`: the two agree only while `ALL` is in
        // declaration order.
        for (i, kind) in MessageKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i, "{kind}");
            assert_eq!(kind_from_code(kind_code(*kind)).unwrap(), *kind);
        }
        for (i, kind) in ProcedureKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i, "{kind}");
            assert_eq!(proc_kind_from_code(proc_kind_code(*kind)).unwrap(), *kind);
        }
    }

    #[test]
    fn control_frames_round_trip_in_both_codecs() {
        for codec in [CodecKind::Asn1Per, CodecKind::FastbufOptimized] {
            round_trip(SysMsg::Control(sample_envelope()), codec);
            round_trip(
                SysMsg::Control(
                    Envelope::downlink(
                        UeId::new(2),
                        ProcedureId::new(1),
                        ProcedureKind::InitialAttach,
                        MessageKind::InitialContextSetupRequest.sample(2),
                    )
                    .ending_procedure(),
                ),
                codec,
            );
        }
    }

    #[test]
    fn replication_frames_round_trip() {
        let state = Snapshot::from(UeState::sample(11));
        round_trip(
            SysMsg::StateSync(StateSync {
                ue: UeId::new(11),
                primary: CpfId::new(1),
                cta: CtaId::new(0),
                state: state.clone(),
                procedure: ProcedureId::new(5),
                end_clock: ClockTick(77),
                purpose: SyncPurpose::Checkpoint,
            }),
            CodecKind::FastbufOptimized,
        );
        round_trip(
            SysMsg::SyncAck(SyncAck {
                ue: UeId::new(11),
                replica: CpfId::new(9),
                procedure: ProcedureId::new(5),
                end_clock: ClockTick(77),
            }),
            CodecKind::FastbufOptimized,
        );
        round_trip(
            SysMsg::MarkOutdated(MarkOutdated {
                ue: UeId::new(11),
                clock: ClockTick(80),
                up_to_date: vec![CpfId::new(1), CpfId::new(2)],
            }),
            CodecKind::FastbufOptimized,
        );
        round_trip(
            SysMsg::FetchStateResp {
                ue: UeId::new(11),
                state: Some(state),
            },
            CodecKind::FastbufOptimized,
        );
        round_trip(
            SysMsg::FetchStateResp {
                ue: UeId::new(11),
                state: None,
            },
            CodecKind::FastbufOptimized,
        );
    }

    fn sample_sync(state: &Snapshot) -> SysMsg {
        SysMsg::StateSync(StateSync {
            ue: state.ue(),
            primary: CpfId::new(1),
            cta: CtaId::new(0),
            state: state.clone(),
            procedure: ProcedureId::new(5),
            end_clock: ClockTick(77),
            purpose: SyncPurpose::Checkpoint,
        })
    }

    #[test]
    fn a_checkpoint_is_encoded_once_for_all_its_frames() {
        let codec = CodecKind::Asn1Per;
        let state = Snapshot::from(UeState::sample(11));
        let (first, second) = (sample_sync(&state), sample_sync(&state));
        assert!(!state.is_encoded());
        let frame = encode(&first, codec).unwrap();
        assert!(
            state.is_encoded(),
            "the first frame leaves the image behind"
        );
        assert_eq!(encode(&second, codec).unwrap(), frame);
        // The receiver keeps the block as it came and can pass it on — to
        // a peer that fetches the state, say — without ever parsing it.
        let SysMsg::StateSync(got) = decode_sysmsg(&frame, codec).unwrap() else {
            panic!("not a state sync");
        };
        assert_eq!(
            (got.state.ue(), got.state.version()),
            (state.ue(), state.version())
        );
        assert_eq!(encode(&sample_sync(&got.state), codec).unwrap(), frame);
        assert!(!got.state.is_materialised());
        assert_eq!(got.state, state);
    }

    #[test]
    fn state_frames_whose_header_names_another_ue_are_rejected() {
        let codec = CodecKind::FastbufOptimized;
        let state = Snapshot::from(UeState::sample(11));
        let fetched = SysMsg::FetchStateResp {
            ue: UeId::new(11),
            state: Some(state.clone()),
        };
        for msg in [sample_sync(&state), fetched] {
            let mut frame = encode(&msg, codec).unwrap();
            assert_eq!(frame[1..9], 11u64.to_be_bytes(), "the header's UE id");
            frame[8] = 12;
            let e = decode_sysmsg(&frame, codec).unwrap_err();
            assert!(e.to_string().contains("snapshot of ue-11"), "{e}");
        }
    }

    #[test]
    fn replay_frames_round_trip() {
        round_trip(
            SysMsg::Replay(Replay {
                ue: UeId::new(42),
                messages: vec![sample_envelope(), sample_envelope()],
            }),
            CodecKind::Asn1Per,
        );
    }

    #[test]
    fn s11_and_misc_frames_round_trip() {
        for op in [SessionOp::Create, SessionOp::Modify, SessionOp::Delete] {
            round_trip(
                SysMsg::S11(S11Request {
                    ue: UeId::new(1),
                    cpf: CpfId::new(2),
                    op,
                    session: Some(SessionId::new(5)),
                }),
                CodecKind::FastbufOptimized,
            );
            round_trip(
                SysMsg::S11Resp(S11Response {
                    ue: UeId::new(1),
                    op,
                    upf: UpfId::new(3),
                    session: None,
                    ok: op != SessionOp::Modify,
                }),
                CodecKind::FastbufOptimized,
            );
        }
        round_trip(SysMsg::AskReAttach { ue: UeId::new(4) }, CodecKind::Asn1Per);
        round_trip(
            SysMsg::MigrationAck { ue: UeId::new(4) },
            CodecKind::Asn1Per,
        );
        round_trip(
            SysMsg::RelayReAttach {
                ue: UeId::new(4),
                bs: BsId::new(2),
            },
            CodecKind::Asn1Per,
        );
        round_trip(
            SysMsg::CpfFailure { cpf: CpfId::new(3) },
            CodecKind::Asn1Per,
        );
        round_trip(
            SysMsg::ResyncRequest {
                ue: UeId::new(4),
                procedure: ProcedureId::new(7),
                cta: CtaId::new(1),
            },
            CodecKind::Asn1Per,
        );
        round_trip(
            SysMsg::ResyncBehind {
                ue: UeId::new(4),
                have: ProcedureId::new(2),
                cpf: CpfId::new(3),
            },
            CodecKind::Asn1Per,
        );
        for class in AdmissionClass::ALL {
            round_trip(
                SysMsg::Reject {
                    ue: UeId::new(4),
                    class: *class,
                    retry_after_ms: 250,
                },
                CodecKind::Asn1Per,
            );
        }
    }

    #[test]
    fn reject_with_bad_class_errors() {
        let mut frame = encode(
            &SysMsg::Reject {
                ue: UeId::new(4),
                class: AdmissionClass::Attach,
                retry_after_ms: 100,
            },
            CodecKind::FastbufOptimized,
        )
        .unwrap();
        frame[9] = 200;
        assert!(decode_sysmsg(&frame, CodecKind::FastbufOptimized).is_err());
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        let frame = encode(
            &SysMsg::Control(sample_envelope()),
            CodecKind::FastbufOptimized,
        )
        .unwrap();
        for cut in 0..frame.len() {
            assert!(
                decode_sysmsg(&frame[..cut], CodecKind::FastbufOptimized).is_err(),
                "cut at {cut} must error"
            );
        }
    }

    #[test]
    fn codec_mismatch_is_detected_or_rejected() {
        let frame = encode(
            &SysMsg::Control(sample_envelope()),
            CodecKind::FastbufOptimized,
        )
        .unwrap();
        // Decoding fastbuf bytes as PER must not panic; it may error or
        // produce a different message, never UB.
        let _ = decode_sysmsg(&frame, CodecKind::Asn1Per);
    }
}
