//! The wire-image identity contract: one pinned digest over the encoded
//! bytes of every message under every codec, and over every schema.
//!
//! The round-trip tests only prove that decode inverts encode; a change
//! that reorders two same-typed fields, renames a schema (LCM fingerprints
//! it) or narrows a constraint passes them all while altering the bytes on
//! the wire. This test does not: any change to a layout, a schema name or
//! order, a `FieldType`, a sample or a codec moves `PINNED_DIGEST`, and a
//! codec that stops supporting a schema moves `PINNED_PAIRS`.

use neutrino_codec::value::{Schema, Value};
use neutrino_codec::CodecKind;
use neutrino_common::rng::splitmix64;
use neutrino_messages::ies::{Cgi, ErabFailedItem, ErabSetupItem, ErabToSetup, Tai, UeAmbr};
use neutrino_messages::state::{BearerContext, UeState};
use neutrino_messages::{MessageKind, Wire};

/// Digest of every (type, codec, seed) image and every schema. Recorded on
/// the tree that still had one hand-written `impl Wire` per type.
const PINNED_DIGEST: u64 = 0xafee_acd0_47b5_5992;

/// Number of (wire type, codec) pairs whose codec supports the schema.
const PINNED_PAIRS: usize = 249;

const SEEDS: std::ops::RangeInclusive<u64> = 0..=3;

struct Fold {
    digest: u64,
    pairs: usize,
}

impl Fold {
    fn bytes(&mut self, bytes: &[u8]) {
        self.digest = splitmix64(self.digest ^ bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.digest = splitmix64(self.digest ^ u64::from_le_bytes(word));
        }
    }

    /// Folds the schema's shape, then the image of `value(seed)` under every
    /// codec that supports the schema.
    fn wire_type(&mut self, schema: &Schema, value: impl Fn(u64) -> Value) {
        self.bytes(format!("{schema:?}").as_bytes());
        for kind in CodecKind::ALL {
            let codec = kind.codec();
            if !codec.supports(schema) {
                continue;
            }
            self.pairs += 1;
            for seed in SEEDS {
                let mut buf = Vec::new();
                codec
                    .encode(schema, &value(seed), &mut buf)
                    .unwrap_or_else(|e| panic!("{} via {kind}: {e}", schema.name));
                self.bytes(&buf);
            }
        }
    }

    fn wire<T: Wire>(&mut self) {
        self.wire_type(&T::schema(), |seed| T::sample(seed).to_value());
    }
}

#[test]
fn every_wire_image_and_schema_matches_the_pin() {
    let mut fold = Fold {
        digest: 0,
        pairs: 0,
    };
    for &kind in MessageKind::ALL {
        fold.wire_type(&kind.schema(), |seed| kind.sample(seed).to_value());
    }
    fold.wire::<UeState>();
    fold.wire::<BearerContext>();
    fold.wire::<Tai>();
    fold.wire::<Cgi>();
    fold.wire::<ErabToSetup>();
    fold.wire::<ErabSetupItem>();
    fold.wire::<ErabFailedItem>();
    fold.wire::<UeAmbr>();
    assert_eq!(
        (fold.digest, fold.pairs),
        (PINNED_DIGEST, PINNED_PAIRS),
        "wire image changed: got digest {:#018x}, {} pairs",
        fold.digest,
        fold.pairs
    );
}
