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
//!
//! The last two tests hold the other half of the contract: a `Control`
//! payload crosses `decode_sysmsg` → `encode_sysmsg` as the bytes it
//! arrived in, unparsed, for every message kind under every codec; and
//! because of that a corrupt payload reaches the CPF, which must count it
//! and carry on. A state snapshot is held to the same two: a `StateSync` or
//! `FetchStateResp` block crosses unparsed, and every corruption of such a
//! frame is either refused by the framing or stored and found out — counted,
//! the UE asked to re-attach — by the replica that takes the UE over.
//!
//! A sample body (`Payload::sample`, the simulator's recipe) frames to the
//! very bytes its built message does, so every wire pin speaks for both.
//! And `decode_sysmsg` holds on bytes nobody framed: an `Ok` or a codec
//! error, never a panic, never an allocation sized by a forged count.

use neutrino_common::clock::ClockTick;
use neutrino_common::rng::splitmix64;
use neutrino_common::time::Instant;
use neutrino_common::Error;
use neutrino_common::{BsId, CpfId, CtaId, ProcedureId, SessionId, UeId, UpfId};
use neutrino_cpf::{CpfConfig, CpfCore};
use neutrino_cta::{CtaConfig, CtaCore};
use neutrino_geo::RingStack;
use neutrino_messages::control::{ControlMessage, Envelope, MessageKind};
use neutrino_messages::flow::{Effect, NodeAddr};
use neutrino_messages::procedures::ProcedureKind;
use neutrino_messages::state::UeState;
use neutrino_messages::sysmsg::{
    AdmissionClass, MarkOutdated, Replay, S11Request, S11Response, SessionOp, StateSync, SyncAck,
    SyncPurpose, SysMsg,
};
use neutrino_messages::{Payload, Snapshot, Wire};
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
    let state = Snapshot::from(UeState::sample(11));
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

fn frame(msg: &SysMsg, codec: CodecKind) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_sysmsg(msg, codec, &mut frame)
        .unwrap_or_else(|e| panic!("encode failed for {} under {codec}: {e:?}", msg.label()));
    frame
}

fn control(msg: SysMsg) -> Envelope {
    match msg {
        SysMsg::Control(env) => env,
        other => panic!("expected a control frame, got {}", other.label()),
    }
}

#[test]
fn control_payloads_pass_through_unparsed_for_every_kind_and_codec() {
    for &kind in MessageKind::ALL {
        let codecs: Vec<CodecKind> = CodecKind::ALL
            .into_iter()
            .filter(|c| c.codec().supports(&kind.schema()))
            .collect();
        assert!(codecs.len() >= 2, "{kind}: need two codecs to cross-encode");
        let sent = Envelope::uplink(
            UeId::new(42),
            ProcedureId::new(3),
            ProcedureKind::ServiceRequest,
            kind.sample(42),
        );
        for (i, &codec) in codecs.iter().enumerate() {
            let original = frame(&SysMsg::Control(sent.clone()), codec);
            // (i) A forwarder's decode → encode is the identity on bytes and
            // never runs the codec.
            let hop = control(decode_sysmsg(&original, codec).unwrap());
            assert_eq!(hop.msg.kind(), kind);
            let forwarded = frame(&SysMsg::Control(hop.clone()), codec);
            assert_eq!(
                forwarded, original,
                "{kind}/{codec}: pass-through changed bytes"
            );
            assert!(
                !hop.msg.is_materialised(),
                "{kind}/{codec}: a hop parsed the payload"
            );
            // (iii) Leaving under another codec than it arrived in is a real
            // encode, identical to encoding the original message.
            let other = codecs[(i + 1) % codecs.len()];
            let crossed = frame(&SysMsg::Control(hop.clone()), other);
            assert_eq!(
                crossed,
                frame(&SysMsg::Control(sent.clone()), other),
                "{kind}/{codec}→{other}"
            );
            assert_eq!(control(decode_sysmsg(&crossed, other).unwrap()), sent);
            // (ii) The reader gets the message that was sent.
            assert_eq!(
                hop.msg.get().unwrap(),
                sent.msg.get().unwrap(),
                "{kind}/{codec}"
            );
        }
    }
}

#[test]
fn corrupt_payload_bytes_are_counted_at_the_cpf_never_panicked_on() {
    let cpfs: Vec<CpfId> = (0..5).map(CpfId::new).collect();
    let ring = RingStack::new(&cpfs, &[], 2);
    let kind = ProcedureKind::InitialAttach;
    // A procedure start, so the CPF acts on it with no prior state.
    let msg = kind.template().steps[0].kind.sample(42);
    let uplink = SysMsg::Control(Envelope::uplink(
        UeId::new(42),
        ProcedureId::new(1),
        kind,
        msg.clone(),
    ));
    for codec in [CodecKind::Asn1Per, CodecKind::FastbufOptimized] {
        let mut cta = CtaCore::new(CtaConfig::neutrino(CtaId::new(0), codec), ring.clone());
        let mut cpf: Vec<CpfCore> = cpfs
            .iter()
            .map(|&id| CpfCore::new(CpfConfig::neutrino(id, ring.clone(), vec![UpfId::new(0)])))
            .collect();
        let clean = frame(&uplink, codec);
        let mut payload = Vec::new();
        msg.encode(codec.codec(), &mut payload).unwrap();
        let payload_at = clean.len() - payload.len();
        assert_eq!(
            clean[payload_at..],
            payload[..],
            "the payload block ends the frame"
        );

        let mut frames = 0u64;
        for at in payload_at..clean.len() {
            for mask in [0xFF, 0x80, 0x01] {
                let mut corrupt = clean.clone();
                corrupt[at] ^= mask;
                // The header is intact: framing and the CTA let it through.
                let received = decode_sysmsg(&corrupt, codec).unwrap();
                let mut outs = cta.handle(received, Instant::from_micros(frames));
                let Some(Effect::Send(NodeAddr::Cpf(to), msg)) = outs.pop().map(Effect::from)
                else {
                    panic!("{codec}: byte {at}: the CTA did not forward");
                };
                // It forwards what it received, corruption included.
                let SysMsg::Control(fwd) = &msg else {
                    panic!("{codec}: byte {at}: forwarded a {}", msg.label());
                };
                assert_eq!(fwd.msg.wire(codec), Some(&corrupt[payload_at..]));
                let reframed = frame(&msg, codec);
                cpf[to.raw() as usize].handle(decode_sysmsg(&reframed, codec).unwrap());
                frames += 1;
            }
        }
        let (processed, malformed) = cpf.iter().fold((0, 0), |(p, m), c| {
            (
                p + c.metrics().processed,
                m + c.metrics().malformed_payloads,
            )
        });
        assert_eq!(
            processed + malformed,
            frames,
            "{codec}: a frame went uncounted"
        );
        assert!(malformed > 0, "{codec}: no corruption was ever detected");
        assert_eq!(cta.metrics().unexpected_msgs, 0);
    }
}

/// The snapshot a replication frame carries.
fn snapshot_of(msg: &SysMsg) -> &Snapshot {
    match msg {
        SysMsg::StateSync(sync) => &sync.state,
        SysMsg::FetchStateResp {
            state: Some(state), ..
        } => state,
        other => panic!("expected a frame with a snapshot, got {}", other.label()),
    }
}

#[test]
fn snapshots_pass_through_unparsed() {
    let samples = samples();
    for codec in [CodecKind::Asn1Per, CodecKind::FastbufOptimized] {
        for sent in [&samples[1], &samples[6]] {
            let original = frame(sent, codec);
            let hop = decode_sysmsg(&original, codec).unwrap();
            assert_eq!(frame(&hop, codec), original, "{}/{codec}", sent.label());
            let held = snapshot_of(&hop);
            assert!(
                !held.is_materialised(),
                "{}/{codec}: a hop parsed it",
                sent.label()
            );
            assert_eq!(held.version(), snapshot_of(sent).version());
            assert_eq!(held.get().unwrap(), snapshot_of(sent).get().unwrap());
        }
    }
}

/// The largest single allocation this thread asked for since the last
/// `take()`, and how many it has made. A decoder that sizes a buffer from a
/// length it read off the wire shows up in the first as a request far beyond
/// the frame it was given; an encoder that does not write into the buffer it
/// was handed shows up in the second.
mod largest_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static LARGEST: Cell<usize> = const { Cell::new(0) };
        static COUNT: Cell<u64> = const { Cell::new(0) };
    }

    fn record(size: usize) {
        LARGEST.with(|l| l.set(l.get().max(size)));
        COUNT.with(|c| c.set(c.get() + 1));
    }

    pub struct Recording;

    // SAFETY: every call is passed through to `System` unchanged; the only
    // addition is a write to a const-initialised, destructor-free
    // thread-local, which neither allocates nor re-enters the allocator.
    unsafe impl GlobalAlloc for Recording {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            // SAFETY: `layout` is the caller's, forwarded as is.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System.alloc` with this `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            record(new_size);
            // SAFETY: `ptr` came from `System.alloc` with this `layout`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    pub fn take() -> usize {
        LARGEST.with(|l| l.replace(0))
    }

    /// Allocations and reallocations this thread has made so far.
    pub fn count() -> u64 {
        COUNT.with(Cell::get)
    }
}

#[global_allocator]
static ALLOCATOR: largest_alloc::Recording = largest_alloc::Recording;

/// `framing`'s promise that the steady-state encode path allocates nothing:
/// once the buffer, the payload scratch and the codec's own stacks have
/// grown to the message, encoding it again — the bare payload, and the
/// frame around it — asks the allocator for nothing, under each codec the
/// live path runs. The message is one that arrived (decoded from an image),
/// so this is a CPF re-encoding what it parsed, not a held image going
/// back out.
#[test]
fn the_second_encode_into_one_buffer_allocates_nothing() {
    let sent = MessageKind::InitialContextSetupRequest.sample(6);
    for codec in [
        CodecKind::Asn1Per,
        CodecKind::Fastbuf,
        CodecKind::FastbufOptimized,
    ] {
        let mut image = Vec::new();
        sent.encode(codec.codec(), &mut image).unwrap();
        let msg = ControlMessage::decode(sent.kind(), codec.codec(), &image).unwrap();
        let framed = SysMsg::Control(Envelope::downlink(
            UeId::new(6),
            ProcedureId::new(1),
            ProcedureKind::InitialAttach,
            msg.clone(),
        ));

        let (mut payload, mut frame) = (Vec::new(), Vec::new());
        msg.encode(codec.codec(), &mut payload).unwrap();
        encode_sysmsg(&framed, codec, &mut frame).unwrap();
        let before = largest_alloc::count();
        msg.encode(codec.codec(), &mut payload).unwrap();
        encode_sysmsg(&framed, codec, &mut frame).unwrap();
        assert_eq!(
            largest_alloc::count() - before,
            0,
            "{codec}: the second encode allocated"
        );
        assert_eq!(payload, image);
        assert_eq!(decode_sysmsg(&frame, codec).unwrap(), framed);
    }
}

#[test]
fn corrupt_snapshot_frames_are_refused_or_found_out_at_takeover() {
    let cpfs: Vec<CpfId> = (0..5).map(CpfId::new).collect();
    let ring = RingStack::new(&cpfs, &[], 2);
    let codec = CodecKind::FastbufOptimized;
    let samples = samples();
    for clean_msg in [&samples[1], &samples[6]] {
        let clean = frame(clean_msg, codec);
        for cut in 0..clean.len() {
            assert!(
                decode_sysmsg(&clean[..cut], codec).is_err(),
                "{}: cut at {cut} must error",
                clean_msg.label()
            );
        }

        let (mut refused, mut served, mut found_out) = (0u64, 0u64, 0u64);
        largest_alloc::take();
        for at in 0..clean.len() {
            for mask in [0xFF, 0x80, 0x01] {
                let mut corrupt = clean.clone();
                corrupt[at] ^= mask;
                let Ok(received) = decode_sysmsg(&corrupt, codec) else {
                    refused += 1;
                    continue;
                };
                // A replica stores whatever the framing let through...
                let mut replica = CpfCore::new(CpfConfig::neutrino(
                    cpfs[2],
                    ring.clone(),
                    vec![UpfId::new(0)],
                ));
                replica.handle(received);
                // ...and reads it when the UE's next procedure lands on it.
                let held: Vec<(UeId, bool)> = replica
                    .store()
                    .iter()
                    .map(|(ue, rec)| (*ue, rec.state.get().is_ok()))
                    .collect();
                for (ue, parses) in held {
                    let kind = ProcedureKind::ServiceRequest;
                    let uplink = Envelope::uplink(
                        ue,
                        ProcedureId::new(9),
                        kind,
                        MessageKind::ServiceRequest.sample(1),
                    );
                    let outs = replica.handle(SysMsg::Control(uplink));
                    let m = replica.metrics();
                    if parses {
                        assert_eq!((m.malformed_snapshots, m.re_attach_asked), (0, 0));
                        served += 1;
                    } else {
                        assert_eq!((m.malformed_snapshots, m.re_attach_asked), (1, 1));
                        let effects: Vec<Effect> = outs.into_iter().map(Effect::from).collect();
                        assert!(
                            matches!(
                                effects[..],
                                [Effect::Send(NodeAddr::Cta(_), SysMsg::RelayReAttach { .. })]
                            ),
                            "byte {at}: {effects:?}"
                        );
                        found_out += 1;
                    }
                }
            }
        }
        let largest = largest_alloc::take();
        assert!(
            largest <= 64 * clean.len(),
            "{}: a {largest}-byte allocation from a {}-byte frame",
            clean_msg.label(),
            clean.len()
        );
        assert!(
            refused > 0 && served > 0 && found_out > 0,
            "{}: refused {refused}, served {served}, found out {found_out}",
            clean_msg.label()
        );
    }
}

/// What one decode may ask for in a single request — the budget
/// `messages/tests/hostile_bytes.rs` holds every wire type's `take` to.
fn allowance(input: usize) -> usize {
    4096 + 16 * input
}

/// Decodes `frame` under `codec`: it must come back `Ok` or with a codec
/// error (the framing's own, or the snapshot header's), and ask for no more
/// than `allowance` in any one request.
fn decode_holds(frame: &[u8], codec: CodecKind, what: &str) {
    largest_alloc::take();
    let outcome = decode_sysmsg(frame, codec);
    let largest = largest_alloc::take();
    assert!(
        largest <= allowance(frame.len()),
        "{what}/{codec}: a {largest}-byte request from a {}-byte frame",
        frame.len()
    );
    assert!(
        matches!(outcome, Ok(_) | Err(Error::Codec { .. })),
        "{what}/{codec}: {outcome:?}"
    );
}

/// `len` bytes of a noise stream keyed by `seed`.
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = splitmix64(state);
            state as u8
        })
        .collect()
}

/// A `Replay` header that promises four billion envelopes and carries none
/// is refused without reserving room for them: the count is bounded by
/// what the rest of the frame could hold.
#[test]
fn a_forged_replay_count_reserves_nothing() {
    let mut frame = frame(
        &SysMsg::Replay(Replay {
            ue: UeId::new(42),
            messages: Vec::new(),
        }),
        CodecKind::FastbufOptimized,
    );
    assert_eq!(frame.len(), 13, "tag, UE id, count");
    frame[9..13].copy_from_slice(&u32::MAX.to_be_bytes());
    for codec in [CodecKind::Asn1Per, CodecKind::FastbufOptimized] {
        largest_alloc::take();
        assert!(decode_sysmsg(&frame, codec).is_err());
        let largest = largest_alloc::take();
        assert!(
            largest <= allowance(frame.len()),
            "{codec}: a {largest}-byte request"
        );
    }
}

/// Arbitrary bytes up to 512, and the same bytes behind every real tag.
#[test]
fn decode_of_arbitrary_bytes_is_ok_or_a_codec_error() {
    for case in 0..256u64 {
        let mut bytes = noise(case, (splitmix64(!case) % 513) as usize);
        for codec in [CodecKind::Asn1Per, CodecKind::FastbufOptimized] {
            decode_holds(&bytes, codec, "noise");
            if let Some(tag) = bytes.first_mut() {
                *tag = (case % VARIANT_COUNT as u64) as u8 + 1;
                decode_holds(&bytes, codec, "noise behind a tag");
            }
        }
    }
}

/// A real frame of every tag with 1..=24 bytes of noise written over it
/// somewhere: pure noise rarely gets past a header, this does.
#[test]
fn decode_of_a_defaced_frame_is_ok_or_a_codec_error() {
    for codec in [CodecKind::Asn1Per, CodecKind::FastbufOptimized] {
        for msg in samples() {
            let clean = frame(&msg, codec);
            for case in 0..64u64 {
                let key = splitmix64(case ^ (variant_index(&msg) as u64) << 32);
                let at = (key % clean.len() as u64) as usize;
                let mut defaced = clean.clone();
                let over = noise(key, 1 + (key >> 40) as usize % 24);
                for (byte, noise) in defaced[at..].iter_mut().zip(&over) {
                    *byte = *noise;
                }
                decode_holds(&defaced, codec, msg.label());
            }
        }
    }
}

/// A sample body frames to exactly the bytes of the message it names, for
/// every kind under every codec the live path runs — alone and inside a
/// `Replay` — and decodes back equal to it.
#[test]
fn a_sample_body_frames_as_the_built_body() {
    for &kind in MessageKind::ALL {
        for seed in (0..=3).chain([1_000_000]) {
            let envelope = |msg: Payload| {
                Envelope::uplink(
                    UeId::new(seed),
                    ProcedureId::new(3),
                    ProcedureKind::ServiceRequest,
                    msg,
                )
            };
            let built = envelope(kind.sample(seed).into());
            let sample = envelope(Payload::sample(kind, seed));
            for codec in [
                CodecKind::Asn1Per,
                CodecKind::Fastbuf,
                CodecKind::FastbufOptimized,
            ] {
                let replay = |env: &Envelope| {
                    SysMsg::Replay(Replay {
                        ue: env.ue,
                        messages: vec![env.clone(), env.clone()],
                    })
                };
                let image = frame(&SysMsg::Control(sample.clone()), codec);
                assert_eq!(
                    image,
                    frame(&SysMsg::Control(built.clone()), codec),
                    "{kind}/{seed}/{codec}"
                );
                assert_eq!(
                    frame(&replay(&sample), codec),
                    frame(&replay(&built), codec)
                );
                assert_eq!(control(decode_sysmsg(&image, codec).unwrap()), sample);
            }
        }
    }
}
