//! [`Snapshot`]: one version of a UE's replicated state, either decoded or
//! still in the bytes it arrived as.
//!
//! The CPF that *builds* a version (attach, every mutation) holds it decoded
//! and encodes it at most once, however many backups the checkpoint goes to.
//! A replica that receives a checkpoint keeps the wire image and reads only
//! the two things it needs to store it — whose state it is and which version
//! — straight out of the image (§4.4: nothing is parsed that is not needed).
//! The full parse, and the discovery that the bytes were malformed, happens
//! where the state is first *read*: at a replica that takes the UE over.

use crate::state::{StateVersion, UeState};
use crate::wire::Wire;
use neutrino_codec::fastbuf::FbTable;
use neutrino_codec::{scratch, CodecKind};
use neutrino_common::clock::ClockTick;
use neutrino_common::{Error, ProcedureId, Result, UeId};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An immutable-until-written, cheaply cloned UE state snapshot. Clones
/// share one allocation — the primary's store record, every backup's copy
/// of a checkpoint and the replica stores that adopt it hold the same
/// decoded state or the same wire image.
///
/// `PartialEq` and `Debug` see through to the decoded state (decoding a
/// wire image if they must), so a snapshot that crossed a transport
/// compares and prints exactly like the one that was sent.
#[derive(Clone)]
pub struct Snapshot(Arc<Repr>);

// One enum behind one pointer: the wire variant fits inside the space the
// decoded variant needs anyway, so a decoded snapshot's heap block is that
// of an `Arc` of the bare state plus the image cell. (A `Payload` has a
// third, inline body, so it holds its two shared ones as separate `Arc`s.)
enum Repr {
    Decoded {
        state: UeState,
        /// Filled by the first [`Snapshot::wire`]; emptied by a write.
        image: OnceLock<Box<[u8]>>,
    },
    Wire(WireImage),
}

struct WireImage {
    ue: UeId,
    version: StateVersion,
    bytes: Box<[u8]>,
    /// Filled by the first successful [`Snapshot::get`].
    decoded: OnceLock<Box<UeState>>,
}

// Vtable slots of the three header fields in `UeState`'s schema
// (`header_slots_match_the_schema` holds them to it).
const SLOT_UE: usize = 0;
const SLOT_VERSION_PROCEDURE: usize = 11;
const SLOT_VERSION_CLOCK: usize = 12;

fn header_u64(table: &FbTable<'_>, slot: usize, field: &str) -> Result<u64> {
    table
        .scalar(slot, 8)?
        .ok_or_else(|| Error::codec("fastbuf", format!("UeState: field `{field}` absent")))
}

impl Snapshot {
    /// The codec snapshots travel in, whatever the system's control codec:
    /// replication is Neutrino-internal and not part of the ASN.1
    /// comparison surface.
    pub const CODEC: CodecKind = CodecKind::FastbufOptimized;

    /// Wraps a received wire image. Reads `ue` and `version` out of it
    /// (bounds-checked, no allocation) and copies the bytes; everything
    /// else is validated by the first [`get`](Self::get).
    pub fn from_wire(bytes: &[u8]) -> Result<Self> {
        let table = FbTable::root(bytes)?;
        let ue = UeId::new(header_u64(&table, SLOT_UE, "ue")?);
        let version = StateVersion {
            procedure: ProcedureId::new(header_u64(
                &table,
                SLOT_VERSION_PROCEDURE,
                "version_procedure",
            )?),
            clock: ClockTick(header_u64(&table, SLOT_VERSION_CLOCK, "version_clock")?),
        };
        Ok(Snapshot(Arc::new(Repr::Wire(WireImage {
            ue,
            version,
            bytes: bytes.into(),
            decoded: OnceLock::new(),
        }))))
    }

    /// Whose state this is. Never decodes.
    #[inline]
    pub fn ue(&self) -> UeId {
        match &*self.0 {
            Repr::Decoded { state, .. } => state.ue,
            Repr::Wire(wire) => wire.ue,
        }
    }

    /// Which version of it. Never decodes.
    #[inline]
    pub fn version(&self) -> StateVersion {
        match &*self.0 {
            Repr::Decoded { state, .. } => state.version,
            Repr::Wire(wire) => wire.version,
        }
    }

    /// The decoded state. A wire image is parsed on the first call and the
    /// result kept; malformed bytes are an error on every call.
    #[inline]
    pub fn get(&self) -> Result<&UeState> {
        match &*self.0 {
            Repr::Decoded { state, .. } => Ok(state),
            Repr::Wire(wire) => wire.get(),
        }
    }

    /// The wire image under [`Snapshot::CODEC`]: the bytes received, or the
    /// decoded state encoded on the first call and kept until it is written.
    pub fn wire(&self) -> Result<&[u8]> {
        match &*self.0 {
            Repr::Wire(wire) => Ok(&wire.bytes),
            Repr::Decoded { state, image } => {
                if let Some(bytes) = image.get() {
                    return Ok(bytes);
                }
                let bytes = scratch::with_buf(|buf| {
                    state.encode(Self::CODEC.codec(), buf)?;
                    Ok::<Box<[u8]>, Error>(buf.as_slice().into())
                })?;
                Ok(image.get_or_init(|| bytes))
            }
        }
    }

    /// Write access, copy-on-write as [`Arc::make_mut`]: a snapshot someone
    /// else still holds is copied first, and so is one held as a wire image
    /// (an error if that does not decode). The state is about to change, so
    /// a cached image goes.
    pub fn make_mut(&mut self) -> Result<&mut UeState> {
        if !matches!(Arc::get_mut(&mut self.0), Some(Repr::Decoded { .. })) {
            *self = Snapshot::from(self.get()?.clone());
        }
        match Arc::get_mut(&mut self.0) {
            Some(Repr::Decoded { state, image }) => {
                image.take();
                Ok(state)
            }
            _ => unreachable!("the snapshot was just made unique and decoded"),
        }
    }

    /// True when [`get`](Self::get) will not run a codec: the snapshot was
    /// built decoded, or its wire image has already been parsed.
    pub fn is_materialised(&self) -> bool {
        match &*self.0 {
            Repr::Decoded { .. } => true,
            Repr::Wire(wire) => wire.decoded.get().is_some(),
        }
    }

    /// True when [`wire`](Self::wire) will not run a codec: the snapshot
    /// arrived as bytes, or has been encoded since it was last written.
    pub fn is_encoded(&self) -> bool {
        match &*self.0 {
            Repr::Decoded { image, .. } => image.get().is_some(),
            Repr::Wire(_) => true,
        }
    }

    /// True when both snapshots share one allocation.
    pub fn ptr_eq(a: &Snapshot, b: &Snapshot) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl WireImage {
    fn get(&self) -> Result<&UeState> {
        if let Some(state) = self.decoded.get() {
            return Ok(state);
        }
        let state = UeState::decode(Snapshot::CODEC.codec(), &self.bytes)?;
        Ok(self.decoded.get_or_init(|| Box::new(state)))
    }
}

impl From<UeState> for Snapshot {
    fn from(state: UeState) -> Self {
        Snapshot(Arc::new(Repr::Decoded {
            state,
            image: OnceLock::new(),
        }))
    }
}

impl PartialEq for Snapshot {
    fn eq(&self, other: &Self) -> bool {
        match (self.get(), other.get()) {
            (Ok(a), Ok(b)) => a == b,
            // Only wire images fail to decode: equal when the same image.
            (Err(_), Err(_)) => self.wire().ok() == other.wire().ok(),
            _ => false,
        }
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.get() {
            Ok(state) => state.fmt(f),
            Err(e) => write!(f, "Undecodable(UeState of {}: {e})", self.ue()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    fn image_of(state: &UeState) -> Vec<u8> {
        let mut bytes = Vec::new();
        state.encode(Snapshot::CODEC.codec(), &mut bytes).unwrap();
        bytes
    }

    fn wire_of(state: &UeState) -> Snapshot {
        Snapshot::from_wire(&image_of(state)).unwrap()
    }

    /// The simulator only ever holds decoded snapshots and never asks for
    /// their image: it must pay one pointer per holder and, per version,
    /// the state plus the one empty cell.
    #[test]
    fn decoded_snapshot_costs_no_more_than_an_arc_of_the_state() {
        assert_eq!(size_of::<Snapshot>(), size_of::<usize>());
        assert_eq!(size_of::<Option<Snapshot>>(), size_of::<usize>());
        assert!(
            size_of::<Repr>() <= size_of::<UeState>() + size_of::<OnceLock<Box<[u8]>>>(),
            "Repr is {} bytes, UeState {}",
            size_of::<Repr>(),
            size_of::<UeState>()
        );
        let decoded = Snapshot::from(UeState::sample(3));
        assert!(decoded.is_materialised() && !decoded.is_encoded());
    }

    #[test]
    fn header_slots_match_the_schema() {
        let schema = UeState::schema();
        let slot_of = |name: &str| schema.fields.iter().position(|f| f.name == name);
        // One vtable slot per field: `UeState` has no union before them.
        assert_eq!(slot_of("ue"), Some(SLOT_UE));
        assert_eq!(slot_of("version_procedure"), Some(SLOT_VERSION_PROCEDURE));
        assert_eq!(slot_of("version_clock"), Some(SLOT_VERSION_CLOCK));
    }

    #[test]
    fn wire_snapshot_decodes_once_and_only_on_demand() {
        let state = UeState::sample(5);
        let image = image_of(&state);
        let s = Snapshot::from_wire(&image).unwrap();
        assert_eq!(s.ue(), state.ue);
        assert_eq!(s.version(), state.version);
        assert_eq!(s.wire().unwrap(), &image[..]);
        assert!(s.is_encoded());
        assert!(
            !s.is_materialised(),
            "ue(), version() and wire() must not decode"
        );
        let first: *const UeState = s.get().unwrap();
        assert_eq!(s.get().unwrap(), &state);
        assert!(std::ptr::eq(first, s.get().unwrap()), "decoded once");
        assert!(s.is_materialised());
        assert!(s.clone().is_materialised(), "clones share the cell");
    }

    #[test]
    fn decoded_snapshot_encodes_once_and_only_on_demand() {
        let state = UeState::sample(6);
        let s = Snapshot::from(state.clone());
        let shared = s.clone();
        assert!(!s.is_encoded());
        let first: *const [u8] = s.wire().unwrap();
        assert_eq!(s.wire().unwrap(), &image_of(&state)[..]);
        assert!(
            std::ptr::eq(first, shared.wire().unwrap()),
            "clones share the image"
        );
        assert!(s.is_encoded() && shared.is_encoded());
    }

    #[test]
    fn make_mut_on_a_shared_snapshot_copies_and_drops_the_cached_image() {
        let original = UeState::sample(7);
        let mut mine = Snapshot::from(original.clone());
        let checkpoint = mine.clone();
        checkpoint.wire().unwrap();
        assert!(mine.is_encoded());

        // Shared: the write goes to a copy and the checkpoint keeps both
        // its state and its image.
        mine.make_mut().unwrap().connected = !original.connected;
        assert!(!Snapshot::ptr_eq(&mine, &checkpoint));
        assert!(!mine.is_encoded(), "the image described the old state");
        assert_eq!(checkpoint.get().unwrap(), &original);
        assert!(checkpoint.is_encoded());

        // Unique: written in place, and an image cached since is dropped.
        mine.wire().unwrap();
        let before: *const UeState = mine.get().unwrap();
        mine.make_mut().unwrap().tmsi = 99;
        assert!(std::ptr::eq(before, mine.get().unwrap()));
        assert!(!mine.is_encoded());
        assert_eq!(
            Snapshot::from_wire(mine.wire().unwrap()).unwrap(),
            mine,
            "and the next image is of the new state"
        );

        // Wire-only: decoded first, the received image left behind.
        let mut taken_over = wire_of(&original);
        taken_over.make_mut().unwrap().tmsi = 7;
        assert!(taken_over.is_materialised() && !taken_over.is_encoded());
        assert_eq!(taken_over.get().unwrap().tmsi, 7);
    }

    #[test]
    fn eq_and_debug_are_transparent() {
        let state = UeState::sample(9);
        let decoded = Snapshot::from(state.clone());
        let wire = wire_of(&state);
        assert_eq!(wire, decoded);
        assert_eq!(format!("{wire:?}"), format!("{state:?}"));
        assert_eq!(format!("{decoded:?}"), format!("{:?}", Arc::new(state)));
        assert!(!decoded.is_encoded(), "comparing encodes nothing");
        assert_ne!(decoded, Snapshot::from(UeState::sample(10)));
    }

    #[test]
    fn malformed_wire_is_an_error_not_a_panic() {
        assert!(Snapshot::from_wire(&[]).is_err(), "no header to read");
        // A well-formed header over a body that does not parse: the
        // tracking-area list's offset points outside the image.
        let image = image_of(&UeState::sample(4));
        let mut bad_image = image.clone();
        let tai_list_slot = FbTable::root(&image).unwrap().slot(8).unwrap().unwrap();
        bad_image[tai_list_slot..tai_list_slot + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut bad = Snapshot::from_wire(&bad_image).unwrap();
        assert_eq!(bad.ue(), UeId::new(4));
        assert!(bad.get().is_err());
        assert!(bad.get().is_err(), "and stays one");
        assert!(bad.make_mut().is_err());
        assert!(!bad.is_materialised());
        assert_eq!(bad.wire().unwrap(), &bad_image[..], "still forwardable");
        assert!(
            format!("{bad:?}").starts_with("Undecodable(UeState of ue-4: codec error (fastbuf)")
        );
        assert_eq!(bad, bad.clone());
        assert_eq!(bad, Snapshot::from_wire(&bad_image).unwrap());
        assert_ne!(bad, Snapshot::from_wire(&image).unwrap());
        assert_ne!(bad, Snapshot::from(UeState::sample(4)));
    }
}
