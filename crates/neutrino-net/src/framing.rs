//! Wire framing for [`SysMsg`] over byte transports.
//!
//! Layout: a 1-byte message tag, then the variant's fields in wire order.
//! Both are stated once, in the `frames!` table at the end of this file (and,
//! for the structs a frame carries, in `fields!`): `encode_sysmsg` and
//! `decode_sysmsg` are generated from it, so encoder and decoder cannot
//! disagree on a layout; how each field travels is its type's `Field` impl.
//! Control-message payloads are encoded with the *system's* codec (the
//! serialization under evaluation); state snapshots travel under
//! [`Snapshot::CODEC`] regardless. Both are length-prefixed blocks, so
//! frames survive stream transports.
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

fn err(detail: impl Into<String>) -> Error {
    Error::codec("framing", detail.into())
}

/// One wire shape: how a value goes into a frame and comes back out of one.
/// `codec` is the system's; only a control payload uses it.
///
/// The leaf shapes (integers, ids, enums, `bool`, `Option`) are always
/// inlined: a frame is a run of them, and with plain `#[inline]` hints a
/// forwarded `Control` frame's decode and re-encode took ≈ 3 ns (4 %) more
/// on a 2-core Xeon.
trait Field: Sized {
    fn put(&self, buf: &mut Vec<u8>, codec: CodecKind) -> Result<()>;
    fn take(buf: &mut &[u8], codec: CodecKind) -> Result<Self>;
}

macro_rules! big_endian {
    ($($int:ty),+) => {$(
        impl Field for $int {
            #[inline(always)]
            fn put(&self, buf: &mut Vec<u8>, _: CodecKind) -> Result<()> {
                buf.extend_from_slice(&self.to_be_bytes());
                Ok(())
            }

            #[inline(always)]
            fn take(buf: &mut &[u8], _: CodecKind) -> Result<Self> {
                let (head, rest) = buf.split_first_chunk().ok_or_else(|| err("truncated frame"))?;
                *buf = rest;
                Ok(<$int>::from_be_bytes(*head))
            }
        }
    )+};
}

big_endian!(u8, u16, u32, u64);

macro_rules! u64_newtype {
    ($($ty:ident),+) => {$(
        impl Field for $ty {
            #[inline(always)]
            fn put(&self, buf: &mut Vec<u8>, codec: CodecKind) -> Result<()> {
                self.0.put(buf, codec)
            }

            #[inline(always)]
            fn take(buf: &mut &[u8], codec: CodecKind) -> Result<Self> {
                u64::take(buf, codec).map($ty)
            }
        }
    )+};
}

u64_newtype! { UeId, CpfId, CtaId, BsId, UpfId, SessionId, ProcedureId, ClockTick }

/// An enum travels as its declaration index and is read back by indexing
/// its variants in declaration order (`wire_codes_are_declaration_indices`).
macro_rules! declaration_index {
    ($($ty:ident as $int:ty, $what:literal: $variants:expr;)+) => {$(
        impl Field for $ty {
            #[inline(always)]
            fn put(&self, buf: &mut Vec<u8>, codec: CodecKind) -> Result<()> {
                (*self as $int).put(buf, codec)
            }

            #[inline(always)]
            fn take(buf: &mut &[u8], codec: CodecKind) -> Result<Self> {
                let code = <$int>::take(buf, codec)?;
                $variants
                    .get(usize::from(code))
                    .copied()
                    .ok_or_else(|| err(format!(concat!("bad ", $what, " {}"), code)))
            }
        }
    )+};
}

declaration_index! {
    MessageKind as u16, "message kind code": MessageKind::ALL;
    ProcedureKind as u8, "procedure kind code": ProcedureKind::ALL;
    AdmissionClass as u8, "admission class": AdmissionClass::ALL;
    Direction as u8, "direction": [Direction::Uplink, Direction::Downlink];
    SyncPurpose as u8, "purpose": [SyncPurpose::Checkpoint, SyncPurpose::Migration];
    SessionOp as u8, "session op": [SessionOp::Create, SessionOp::Modify, SessionOp::Delete];
}

/// A byte, of which only `1` reads as true.
impl Field for bool {
    #[inline(always)]
    fn put(&self, buf: &mut Vec<u8>, codec: CodecKind) -> Result<()> {
        u8::from(*self).put(buf, codec)
    }

    #[inline(always)]
    fn take(buf: &mut &[u8], codec: CodecKind) -> Result<Self> {
        Ok(u8::take(buf, codec)? == 1)
    }
}

/// Presence as a `bool`, then the value if there is one.
impl<T: Field> Field for Option<T> {
    #[inline(always)]
    fn put(&self, buf: &mut Vec<u8>, codec: CodecKind) -> Result<()> {
        self.is_some().put(buf, codec)?;
        self.as_ref().map_or(Ok(()), |value| value.put(buf, codec))
    }

    #[inline(always)]
    fn take(buf: &mut &[u8], codec: CodecKind) -> Result<Self> {
        if bool::take(buf, codec)? {
            T::take(buf, codec).map(Some)
        } else {
            Ok(None)
        }
    }
}

/// A list behind its count. The count is the sender's word, so a decode
/// reserves no more memory than the rest of the frame takes.
macro_rules! counted {
    ($($elem:ty: $count:ty),+) => {$(
        impl Field for Vec<$elem> {
            fn put(&self, buf: &mut Vec<u8>, codec: CodecKind) -> Result<()> {
                (self.len() as $count).put(buf, codec)?;
                self.iter().try_for_each(|elem| elem.put(buf, codec))
            }

            fn take(buf: &mut &[u8], codec: CodecKind) -> Result<Self> {
                let count = <$count>::take(buf, codec)? as usize;
                let mut list = Vec::with_capacity(count.min(buf.len() / size_of::<$elem>()));
                for _ in 0..count {
                    list.push(<$elem>::take(buf, codec)?);
                }
                Ok(list)
            }
        }
    )+};
}

counted!(CpfId: u16, Envelope: u32);

fn put_block(buf: &mut Vec<u8>, block: &[u8], codec: CodecKind) -> Result<()> {
    (block.len() as u32).put(buf, codec)?;
    buf.extend_from_slice(block);
    Ok(())
}

fn take_block<'a>(buf: &mut &'a [u8], codec: CodecKind) -> Result<&'a [u8]> {
    let len = u32::take(buf, codec)? as usize;
    let (block, rest) = buf
        .split_at_checked(len)
        .ok_or_else(|| err("truncated block body"))?;
    *buf = rest;
    Ok(block)
}

/// The message's kind, then its image as a block.
impl Field for Payload {
    fn put(&self, buf: &mut Vec<u8>, codec: CodecKind) -> Result<()> {
        self.kind().put(buf, codec)?;
        // Bytes received under the outgoing codec go out as they came in;
        // only a payload built here, or received under another codec, is
        // encoded — a sample body through the tree it names, built for this
        // encode.
        match self.wire(codec) {
            Some(bytes) => put_block(buf, bytes, codec),
            None => scratch::with_buf(|image| {
                self.get()?.encode(codec.codec(), image)?;
                put_block(buf, image, codec)
            }),
        }
    }

    /// Keeps the block as received: no codec runs here, so a corrupt
    /// payload surfaces where it is first read (the CPF).
    fn take(buf: &mut &[u8], codec: CodecKind) -> Result<Self> {
        let kind = MessageKind::take(buf, codec)?;
        Ok(Payload::from_wire(kind, codec, take_block(buf, codec)?))
    }
}

/// The image under [`Snapshot::CODEC`] as a block, kept as received.
impl Field for Snapshot {
    fn put(&self, buf: &mut Vec<u8>, codec: CodecKind) -> Result<()> {
        put_block(buf, self.wire()?, codec)
    }

    fn take(buf: &mut &[u8], codec: CodecKind) -> Result<Self> {
        Snapshot::from_wire(take_block(buf, codec)?)
    }
}

/// A struct a frame carries: its fields in wire order.
macro_rules! fields {
    ($($ty:ident { $($field:ident),+ })+) => {$(
        impl Field for $ty {
            fn put(&self, buf: &mut Vec<u8>, codec: CodecKind) -> Result<()> {
                $(self.$field.put(buf, codec)?;)+
                Ok(())
            }

            fn take(buf: &mut &[u8], codec: CodecKind) -> Result<Self> {
                Ok($ty { $($field: Field::take(buf, codec)?),+ })
            }
        }
    )+};
}

fields! {
    Envelope { ue, procedure, proc_kind, bs, via_cta, clock, direction, end_of_procedure, msg }
    // Not declaration order: the snapshot block goes last.
    StateSync { ue, primary, cta, procedure, end_clock, purpose, state }
    SyncAck { ue, replica, procedure, end_clock }
    MarkOutdated { ue, clock, up_to_date }
    Replay { ue, messages }
    S11Request { ue, cpf, op, session }
    S11Response { ue, op, upf, session, ok }
}

/// A receiver stores a snapshot under the image's UE id and answers to the
/// frame header's, so a frame whose two disagree is malformed.
fn owner_is(ue: UeId, state: Option<&Snapshot>) -> Result<()> {
    match state {
        Some(state) if state.ue() != ue => Err(err(format!(
            "snapshot of {} in a frame for {ue}",
            state.ue()
        ))),
        _ => Ok(()),
    }
}

/// Generates `encode_sysmsg` and `decode_sysmsg` from one row per variant:
/// its tag, its fields in wire order — the one struct it wraps, `(x)`, or
/// its own, `{ .. }` — and a check the decoded frame must pass.
macro_rules! frames {
    (@put $buf:ident, $codec:ident, ($x:ident)) => {
        $x.put($buf, $codec)
    };
    (@put $buf:ident, $codec:ident, { $($field:ident),+ }) => {{
        $($field.put($buf, $codec)?;)+
        Ok(())
    }};
    (@take $buf:ident, $codec:ident, $variant:ident ($x:ident)) => {
        SysMsg::$variant(Field::take($buf, $codec)?)
    };
    (@take $buf:ident, $codec:ident, $variant:ident { $($field:ident),+ }) => {
        SysMsg::$variant { $($field: Field::take($buf, $codec)?),+ }
    };
    ($($tag:literal $variant:ident $fields:tt $(if $check:expr)?;)+) => {
        /// Encodes a [`SysMsg`] as a self-contained frame into `buf`.
        ///
        /// `buf` is cleared first so callers can recycle one buffer across
        /// frames (e.g. via [`scratch::with_buf`]); on error its contents
        /// are unspecified.
        pub fn encode_sysmsg(msg: &SysMsg, codec: CodecKind, buf: &mut Vec<u8>) -> Result<()> {
            buf.clear();
            buf.reserve(64);
            match msg {
                $(SysMsg::$variant $fields => {
                    buf.push($tag);
                    frames!(@put buf, codec, $fields)
                })+
            }
        }

        /// Decodes a frame produced by [`encode_sysmsg`] with the same
        /// codec. Control payloads (in `Control` and `Replay`) and state
        /// snapshots (in `StateSync` and `FetchStateResp`) are carried over
        /// unparsed: `Ok` vouches for the frame structure, not for their
        /// bytes.
        pub fn decode_sysmsg(frame: &[u8], codec: CodecKind) -> Result<SysMsg> {
            let buf = &mut &frame[..];
            Ok(match u8::take(buf, codec)? {
                $($tag => {
                    let msg = frames!(@take buf, codec, $variant $fields);
                    $(if let SysMsg::$variant $fields = &msg {
                        $check?;
                    })?
                    msg
                })+
                other => return Err(err(format!("unknown frame tag {other}"))),
            })
        }
    };
}

frames! {
    1 Control(x);
    2 StateSync(x) if owner_is(x.ue, Some(&x.state));
    3 SyncAck(x);
    4 MarkOutdated(x);
    5 Replay(x);
    6 FetchState { ue, requester };
    7 FetchStateResp { ue, state } if owner_is(*ue, state.as_ref());
    8 S11(x);
    9 S11Resp(x);
    10 AskReAttach { ue };
    11 MigrationAck { ue };
    12 RelayReAttach { ue, bs };
    13 CpfFailure { cpf };
    14 DownlinkData { ue };
    15 DdnRequest { ue, upf };
    16 ResyncRequest { ue, procedure, cta };
    17 ResyncBehind { ue, have, cpf };
    18 Reject { ue, class, retry_after_ms };
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

    /// `value` put into a frame and taken back out of it.
    fn through_a_frame<T: Field>(value: &T) -> T {
        let mut buf = Vec::new();
        value.put(&mut buf, CodecKind::Asn1Per).unwrap();
        T::take(&mut &buf[..], CodecKind::Asn1Per).unwrap()
    }

    #[test]
    fn wire_codes_are_declaration_indices() {
        // An enum's `Field` impl casts the discriminant and the decode side
        // indexes the variants: the two agree only while the list it
        // indexes is in declaration order.
        for (i, kind) in MessageKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i, "{kind}");
            assert_eq!(through_a_frame(kind), *kind);
        }
        for (i, kind) in ProcedureKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i, "{kind}");
            assert_eq!(through_a_frame(kind), *kind);
        }
        for class in AdmissionClass::ALL {
            assert_eq!(through_a_frame(class), *class);
        }
        for direction in [Direction::Uplink, Direction::Downlink] {
            assert_eq!(through_a_frame(&direction), direction);
        }
        for purpose in [SyncPurpose::Checkpoint, SyncPurpose::Migration] {
            assert_eq!(through_a_frame(&purpose), purpose);
        }
        for op in [SessionOp::Create, SessionOp::Modify, SessionOp::Delete] {
            assert_eq!(through_a_frame(&op), op);
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
