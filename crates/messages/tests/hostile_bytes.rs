//! `take` on bytes nobody encoded, and what a parse costs.
//!
//! The framing hands a CPF whatever payload block a frame carried, so every
//! wire type's `take` must hold on arbitrary input under each codec the
//! live path runs: an `Ok` or a named `Err`, never a panic, and never an
//! allocation sized by a count or a length read off the wire. The four
//! comparison codecs' decoders are held to the same for every message kind
//! they can express. The test binary's allocator records what each parse
//! asked for, which is also how the last tests hold `Payload::get` to allocating exactly the message it
//! returns — no tree in between — and a sample body to allocating nothing.

use neutrino_codec::CodecKind;
use neutrino_common::Error;
use neutrino_messages::state::{BearerContext, UeState};
use neutrino_messages::{ControlMessage, MessageKind, Payload, Wire};
use proptest::collection::vec;
use proptest::prelude::*;

/// What this thread has asked the allocator for: how many requests, how
/// many bytes in all, and the largest since `take_largest()`.
mod recording {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static COUNT: Cell<u64> = const { Cell::new(0) };
        static BYTES: Cell<u64> = const { Cell::new(0) };
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    fn record(size: usize) {
        COUNT.with(|c| c.set(c.get() + 1));
        BYTES.with(|b| b.set(b.get() + size as u64));
        LARGEST.with(|l| l.set(l.get().max(size)));
    }

    pub struct Recording;

    // SAFETY: every call is passed through to `System` unchanged; the only
    // addition is a write to const-initialised, destructor-free
    // thread-locals, which neither allocates nor re-enters the allocator.
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

    /// (requests, bytes) so far.
    pub fn spent() -> (u64, u64) {
        (COUNT.with(Cell::get), BYTES.with(Cell::get))
    }

    pub fn take_largest() -> usize {
        LARGEST.with(|l| l.replace(0))
    }
}

#[global_allocator]
static ALLOCATOR: recording::Recording = recording::Recording;

const LIVE_CODECS: [CodecKind; 3] = [
    CodecKind::Asn1Per,
    CodecKind::Fastbuf,
    CodecKind::FastbufOptimized,
];

/// The comparison codecs of Figs. 18–20: the live path never runs them, but
/// their decoders meet bytes from the same hands.
const COMPARISON_CODECS: [CodecKind; 4] = [
    CodecKind::Cdr,
    CodecKind::Lcm,
    CodecKind::Proto,
    CodecKind::Flex,
];

/// What one parse may ask for in a single request: a list's first reserve
/// (16 elements of the widest element type) and an error's text fit under
/// the constant; past that it is a small multiple of what the input holds
/// (a bit string unpacks to a `bool` per bit).
fn allowance(input: usize) -> usize {
    4096 + 16 * input
}

/// Holds one parse of `input` bytes under `codec` to the contract: it asked
/// for no more than `allowance` in any one request, and came back `Ok` or
/// with an error that says which codec or message refused it.
fn holds(
    what: &str,
    codec: CodecKind,
    input: usize,
    outcome: Result<(), Error>,
) -> Result<(), TestCaseError> {
    let largest = recording::take_largest();
    prop_assert!(
        largest <= allowance(input),
        "{} via {}: a {}-byte request from {} bytes of input",
        what,
        codec,
        largest,
        input
    );
    // A codec's refusal names the codec, a type's the message.
    let named = match &outcome {
        Ok(()) | Err(Error::Codec { .. }) => true,
        Err(Error::Schema(detail)) => detail.contains(what),
        Err(_) => false,
    };
    prop_assert!(named, "{} via {}: unnamed {:?}", what, codec, outcome);
    Ok(())
}

/// Decodes `bytes` as every message kind `codec` can express.
fn decode_every_kind(bytes: &[u8], codec: CodecKind) -> Result<(), TestCaseError> {
    for &kind in MessageKind::ALL {
        if !codec.codec().supports(&kind.schema()) {
            continue;
        }
        recording::take_largest();
        let outcome = ControlMessage::decode(kind, codec.codec(), bytes).map(drop);
        holds(kind.name(), codec, bytes.len(), outcome)?;
    }
    Ok(())
}

/// Parses `bytes` as every wire type under `codec`.
fn take_everything(bytes: &[u8], codec: CodecKind) -> Result<(), TestCaseError> {
    decode_every_kind(bytes, codec)?;
    holds("UeState", codec, bytes.len(), take::<UeState>(bytes, codec))?;
    holds(
        "BearerContext",
        codec,
        bytes.len(),
        take::<BearerContext>(bytes, codec),
    )
}

/// `T::take` straight off the codec's source over `bytes`.
fn take<T: Wire>(bytes: &[u8], codec: CodecKind) -> Result<(), Error> {
    codec
        .codec()
        .decode_with(T::layout(), bytes, &mut |src| T::take(src).map(drop))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes, as every type under every live codec.
    #[test]
    fn take_of_arbitrary_bytes_is_ok_or_a_named_error(bytes in vec(any::<u8>(), 0..=512)) {
        for codec in LIVE_CODECS {
            take_everything(&bytes, codec)?;
        }
    }

    /// Arbitrary bytes written over part of a real image, read as every
    /// type: pure noise rarely gets past a fastbuf root offset, this does.
    #[test]
    fn take_of_a_defaced_image_is_ok_or_a_named_error(
        kind in proptest::sample::select(MessageKind::ALL.to_vec()),
        seed in any::<u64>(),
        at in any::<proptest::sample::Index>(),
        noise in vec(any::<u8>(), 1..=24),
    ) {
        for codec in LIVE_CODECS {
            let mut image = Vec::new();
            kind.sample(seed).encode(codec.codec(), &mut image).unwrap();
            let at = at.index(image.len());
            for (byte, noise) in image[at..].iter_mut().zip(&noise) {
                *byte = *noise;
            }
            take_everything(&image, codec)?;
        }
    }

    /// Arbitrary bytes, as every kind under every comparison codec.
    #[test]
    fn comparison_decode_of_arbitrary_bytes_is_ok_or_a_named_error(
        bytes in vec(any::<u8>(), 0..=512),
    ) {
        for codec in COMPARISON_CODECS {
            decode_every_kind(&bytes, codec)?;
        }
    }

    /// Arbitrary bytes written over part of a real image under a comparison
    /// codec (LCM cannot encode a union, so it sits out those kinds).
    #[test]
    fn comparison_decode_of_a_defaced_image_is_ok_or_a_named_error(
        kind in proptest::sample::select(MessageKind::ALL.to_vec()),
        seed in any::<u64>(),
        at in any::<proptest::sample::Index>(),
        noise in vec(any::<u8>(), 1..=24),
    ) {
        for codec in COMPARISON_CODECS {
            if !codec.codec().supports(&kind.schema()) {
                continue;
            }
            let mut image = Vec::new();
            kind.sample(seed).encode(codec.codec(), &mut image).unwrap();
            // A protobuf image of nothing but absent options is empty.
            let at = at.index(image.len().max(1));
            for (byte, noise) in image[at..].iter_mut().zip(&noise) {
                *byte = *noise;
            }
            decode_every_kind(&image, codec)?;
        }
    }
}

/// `Payload::get` on a received image builds the message and nothing else:
/// the allocator sees exactly the requests — as many, as large — that
/// boxing a clone of the finished message makes.
#[test]
fn reading_a_wire_payload_allocates_exactly_the_message() {
    // Seed 5: both bearer lists present, so the message owns the most.
    let msg = MessageKind::InitialContextSetupResponse.sample(5);
    for codec in LIVE_CODECS {
        let mut image = Vec::new();
        msg.encode(codec.codec(), &mut image).unwrap();
        // Once for the codec's own per-thread stacks.
        Payload::from_wire(msg.kind(), codec, &image).get().unwrap();

        let received = Payload::from_wire(msg.kind(), codec, &image);
        let before = recording::spent();
        assert_eq!(*received.get().unwrap(), msg);
        let (after, _kept) = (recording::spent(), Box::new(msg.clone()));
        let owned = recording::spent();
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (owned.0 - after.0, owned.1 - after.1),
            "{codec}: (requests, bytes) of the parse against those of the message"
        );
    }
}

/// A sample body is a recipe in two words: making and cloning it asks the
/// allocator for nothing, where a built body is the one `Arc` block of the
/// message (two counters and the message, no box around it).
#[test]
fn a_sample_body_allocates_nothing_and_a_built_one_one_block() {
    let kind = MessageKind::InitialContextSetupResponse;
    let msg = kind.sample(5);
    let before = recording::spent();
    let sample = Payload::sample(kind, 5);
    let copy = sample.clone();
    assert_eq!(recording::spent(), before, "a recipe allocated");
    let built = Payload::from(msg);
    let after = recording::spent();
    let block = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<ControlMessage>();
    assert_eq!((after.0 - before.0, after.1 - before.1), (1, block as u64));
    assert_eq!(copy, built);
}
