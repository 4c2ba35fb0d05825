//! [`UeMap`]: the per-UE state table every role keys by UE id.
//!
//! PAPER.md §4.2.3/§4.3 has the CTA route and log by a hash of the UE id
//! and the CPF keep one state record per UE. This is that table: O(1)
//! lookups through a fixed hash, so a 40 000-UE attach burst costs the same
//! per message as a 4 000-UE steady run.
//!
//! Two properties keep it inside the determinism contract:
//!
//! * the hash is seedless (the splitmix64 finalizer), so the layout is a
//!   function of the operations applied — identical across runs, processes
//!   and `--jobs` counts;
//! * the layout is never observable anyway: the only keyed iteration is
//!   [`UeMap::iter_sorted`] (ascending [`UeId`]), and the only unkeyed one is
//!   [`UeMap::values_mut`], for updates that do not depend on order.

use crate::ids::UeId;
use crate::rng::splitmix64;
use std::fmt;

/// UE id → value.
///
/// Values live densely in a slab of fixed-size chunks; a linear-probing
/// index of packed `(hash tag, slab slot)` words finds them. A lookup reads
/// 4-byte index words from the UE's home until one's tag matches, then that
/// word's slab entry. At 40 000 UEs the index is 256 KiB, and a run holds
/// at least six such tables.
pub struct UeMap<V> {
    /// Open-addressed index, empty or a power of two long, at most ¾ full.
    /// `0` marks a free position; an occupied one holds
    /// `tag << 24 | slot + 1`, and its home position is `hash & mask`, so
    /// moving a word needs its slab entry's [`UeId`].
    index: Vec<u32>,
    /// The entries, in no meaningful order (`remove` swaps the last one into
    /// the hole): slot `s` is entry `s % CHUNK` of chunk `s / CHUNK`. Every
    /// chunk is allocated once, at `CHUNK` entries, all but the last are
    /// full, and an emptied last one is freed, so the slab never copies
    /// itself and wastes at most one partial chunk.
    chunks: Vec<Vec<Item<V>>>,
}

/// One slab entry.
type Item<V> = (UeId, V);

/// Slab entries per chunk: a power of two, so a slot splits into chunk and
/// entry by a shift and a mask.
const CHUNK: usize = 256;

/// Bits of an index word that hold `slot + 1`; the hash tag fills the rest.
const SLOT_BITS: u32 = 24;

/// The `slot + 1` part of an index word.
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;

/// The UE id's hash: its low bits pick the home position, its top byte is
/// the tag.
#[inline]
fn hash_of(ue: UeId) -> u64 {
    splitmix64(ue.raw())
}

/// The top byte of `hash`, placed where an index word holds it.
#[inline]
fn tag_bits(hash: u64) -> u32 {
    ((hash >> 56) as u32) << SLOT_BITS
}

/// The index word of `slot` under `tag` (from [`tag_bits`]): `slot + 1`
/// fills the low 24 bits. That is the map's capacity, slots up to
/// 2^24 − 2 (16.7 M UEs), checked like a `Vec`'s: past it a word would
/// corrupt its tag.
#[inline]
fn pack(tag: u32, slot: usize) -> u32 {
    assert!(slot < SLOT_MASK as usize, "UeMap capacity overflow");
    tag | (slot as u32 + 1)
}

/// The slab slot an occupied index word points at.
#[inline]
fn slot_of(word: u32) -> usize {
    ((word & SLOT_MASK) - 1) as usize
}

/// Writes `word` into the first free position at or after `hash`'s home.
#[inline]
fn place(index: &mut [u32], hash: u64, word: u32) {
    let mask = index.len() - 1;
    let mut pos = hash as usize & mask;
    while index[pos] != 0 {
        pos = (pos + 1) & mask;
    }
    index[pos] = word;
}

impl<V> Default for UeMap<V> {
    fn default() -> Self {
        UeMap {
            index: Vec::new(),
            chunks: Vec::new(),
        }
    }
}

/// A clone's chunks are allocated at full capacity too, so it grows without
/// reallocating one.
impl<V: Clone> Clone for UeMap<V> {
    fn clone(&self) -> Self {
        let chunks = self.chunks.iter().map(|c| {
            let mut copy = Vec::with_capacity(CHUNK);
            copy.extend_from_slice(c);
            copy
        });
        UeMap {
            index: self.index.clone(),
            chunks: chunks.collect(),
        }
    }
}

impl<V> UeMap<V> {
    /// An empty map (allocates nothing until the first insert).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of UEs held.
    pub fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len())
    }

    /// True when no UE is held.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The entry in slab slot `slot`.
    #[inline]
    fn at(&self, slot: usize) -> &Item<V> {
        &self.chunks[slot / CHUNK][slot % CHUNK]
    }

    /// The entry in slab slot `slot`, for writing.
    #[inline]
    fn at_mut(&mut self, slot: usize) -> &mut Item<V> {
        &mut self.chunks[slot / CHUNK][slot % CHUNK]
    }

    /// `(index position, slab slot)` of `ue`, whose hash is `hash`, probing
    /// from its home; a word's slab entry is read only when its tag matches.
    fn find(&self, ue: UeId, hash: u64) -> Option<(usize, usize)> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let tag = tag_bits(hash);
        let mut pos = hash as usize & mask;
        loop {
            let word = self.index[pos];
            if word == 0 {
                return None;
            }
            if word & !SLOT_MASK == tag && self.at(slot_of(word)).0 == ue {
                return Some((pos, slot_of(word)));
            }
            pos = (pos + 1) & mask;
        }
    }

    /// The value held for `ue`.
    pub fn get(&self, ue: UeId) -> Option<&V> {
        let (_, slot) = self.find(ue, hash_of(ue))?;
        Some(&self.at(slot).1)
    }

    /// The value held for `ue`, for writing.
    pub fn get_mut(&mut self, ue: UeId) -> Option<&mut V> {
        let (_, slot) = self.find(ue, hash_of(ue))?;
        Some(&mut self.at_mut(slot).1)
    }

    /// Whether a value is held for `ue`.
    pub fn contains_key(&self, ue: UeId) -> bool {
        self.find(ue, hash_of(ue)).is_some()
    }

    /// `ue`'s place in the map, occupied or not, found with one probe.
    pub fn entry(&mut self, ue: UeId) -> Entry<'_, V> {
        let hash = hash_of(ue);
        match self.find(ue, hash) {
            Some((_, slot)) => Entry::Occupied(&mut self.at_mut(slot).1),
            None => Entry::Vacant(VacantEntry {
                map: self,
                ue,
                hash,
            }),
        }
    }

    /// Stores `value` for `ue`, returning what it replaced.
    pub fn insert(&mut self, ue: UeId, value: V) -> Option<V> {
        match self.entry(ue) {
            Entry::Occupied(held) => Some(std::mem::replace(held, value)),
            Entry::Vacant(vacant) => {
                vacant.insert(value);
                None
            }
        }
    }

    /// Removes and returns `ue`'s value.
    pub fn remove(&mut self, ue: UeId) -> Option<V> {
        let (pos, slot) = self.find(ue, hash_of(ue))?;
        self.unlink(pos);
        let last_chunk = self.chunks.last_mut()?;
        let last = last_chunk.pop()?;
        if last_chunk.is_empty() {
            self.chunks.pop();
        }
        let moved_from = self.len();
        if slot == moved_from {
            return Some(last.1);
        }
        // The former last entry now lives in `slot`: repoint its word.
        let hash = hash_of(last.0);
        let (_, value) = std::mem::replace(self.at_mut(slot), last);
        let old = pack(tag_bits(hash), moved_from);
        let mask = self.index.len() - 1;
        let mut pos = hash as usize & mask;
        while self.index[pos] != old {
            debug_assert_ne!(self.index[pos], 0, "moved entry's word is unreachable");
            pos = (pos + 1) & mask;
        }
        self.index[pos] = pack(tag_bits(hash), slot);
        Some(value)
    }

    /// Frees index position `hole`, shifting back every later word of the
    /// probe run that would otherwise become unreachable from its home.
    fn unlink(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut pos = (hole + 1) & mask;
        while self.index[pos] != 0 {
            let home = hash_of(self.at(slot_of(self.index[pos])).0) as usize & mask;
            // Distances are cyclic: the word may move iff the hole lies
            // between its home and where it sits now.
            if (pos.wrapping_sub(home) & mask) >= (pos.wrapping_sub(hole) & mask) {
                self.index[hole] = self.index[pos];
                hole = pos;
            }
            pos = (pos + 1) & mask;
        }
        self.index[hole] = 0;
    }

    /// Doubles the index and re-places a word for every slab entry, in slot
    /// order, from the entry's [`UeId`].
    fn grow(&mut self) {
        let mut index = vec![0u32; (self.index.len() * 2).max(8)];
        for (slot, (ue, _)) in self.chunks.iter().flatten().enumerate() {
            let hash = hash_of(*ue);
            place(&mut index, hash, pack(tag_bits(hash), slot));
        }
        self.index = index;
    }

    /// Every entry in ascending [`UeId`] order — the only keyed iteration,
    /// so no caller can come to depend on the layout. Costs one sort of the
    /// entry references per call: for audits and scans, not per message.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (&UeId, &V)> {
        let mut view: Vec<&Item<V>> = self.chunks.iter().flatten().collect();
        view.sort_unstable_by_key(|entry| entry.0);
        view.into_iter().map(|entry| (&entry.0, &entry.1))
    }

    /// Every value, for writing, in no particular order: only for updates
    /// whose result does not depend on the order they are applied in.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.chunks.iter_mut().flatten().map(|entry| &mut entry.1)
    }
}

impl<V: fmt::Debug> fmt::Debug for UeMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter_sorted()).finish()
    }
}

/// What [`UeMap::entry`] found.
pub enum Entry<'a, V> {
    /// The UE's value.
    Occupied(&'a mut V),
    /// The UE holds nothing yet.
    Vacant(VacantEntry<'a, V>),
}

/// A UE's still-empty place in a [`UeMap`].
pub struct VacantEntry<'a, V> {
    map: &'a mut UeMap<V>,
    ue: UeId,
    hash: u64,
}

impl<'a, V> Entry<'a, V> {
    /// The held value, or `make()` stored and handed back.
    pub fn or_insert_with(self, make: impl FnOnce() -> V) -> &'a mut V {
        match self {
            Entry::Occupied(held) => held,
            Entry::Vacant(vacant) => vacant.insert(make()),
        }
    }

    /// The held value, or a default one stored and handed back.
    pub fn or_default(self) -> &'a mut V
    where
        V: Default,
    {
        self.or_insert_with(V::default)
    }
}

impl<'a, V> VacantEntry<'a, V> {
    /// Stores `value` for the UE and hands it back.
    pub fn insert(self, value: V) -> &'a mut V {
        let VacantEntry { map, ue, hash } = self;
        let slot = map.len();
        if (slot + 1) * 4 > map.index.len() * 3 {
            map.grow();
        }
        place(&mut map.index, hash, pack(tag_bits(hash), slot));
        if slot % CHUNK == 0 {
            map.chunks.push(Vec::with_capacity(CHUNK));
        }
        let last = &mut map.chunks[slot / CHUNK];
        last.push((ue, value));
        &mut last[slot % CHUNK].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::splitmix64_next;

    #[test]
    fn insert_get_remove() {
        let mut m = UeMap::new();
        assert!(m.get(UeId::new(1)).is_none());
        assert_eq!(m.insert(UeId::new(1), "a"), None);
        assert_eq!(m.insert(UeId::new(1), "b"), Some("a"));
        assert_eq!(m.get(UeId::new(1)), Some(&"b"));
        assert!(m.contains_key(UeId::new(1)));
        assert_eq!(m.remove(UeId::new(1)), Some("b"));
        assert_eq!(m.remove(UeId::new(1)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn removal_keeps_colliding_entries_reachable() {
        // Far more entries than the smallest index has homes: every probe
        // run is shared, and each removal must leave the rest findable.
        let mut m = UeMap::new();
        for i in 0..6u64 {
            m.insert(UeId::new(i), i);
        }
        for gone in 0..6u64 {
            assert_eq!(m.remove(UeId::new(gone)), Some(gone));
            for kept in gone + 1..6 {
                assert_eq!(m.get(UeId::new(kept)), Some(&kept), "after removing {gone}");
            }
        }
    }

    #[test]
    fn entry_fills_once() {
        let mut m: UeMap<u32> = UeMap::new();
        *m.entry(UeId::new(9)).or_default() += 1;
        *m.entry(UeId::new(9)).or_default() += 1;
        assert_eq!(m.get(UeId::new(9)), Some(&2));
        assert_eq!(m.len(), 1);
    }

    /// The sorted view, as a model's iteration.
    fn sorted<V: Clone>(m: &UeMap<V>) -> Vec<(UeId, V)> {
        m.iter_sorted().map(|(&ue, v)| (ue, v.clone())).collect()
    }

    #[test]
    fn chunks_fill_then_free_as_the_map_drains() {
        // Past three chunks, then removed in a seeded order down to empty:
        // the swap into each hole crosses chunk boundaries, and every chunk
        // is allocated once at full capacity and freed once it empties.
        let n = 3 * CHUNK + CHUNK / 2;
        let ues: Vec<UeId> = (0..n as u64).map(|i| UeId::new(splitmix64(i))).collect();
        let mut m = UeMap::new();
        let mut model = std::collections::BTreeMap::new();
        let check_chunks = |m: &UeMap<usize>| {
            assert_eq!(m.chunks.len(), m.len().div_ceil(CHUNK));
            assert!(m.chunks.iter().all(|c| c.capacity() == CHUNK));
        };
        for (i, &ue) in ues.iter().enumerate() {
            m.insert(ue, i);
            model.insert(ue, i);
            check_chunks(&m);
            if m.len() % CHUNK == 0 {
                assert_eq!(sorted(&m), model.clone().into_iter().collect::<Vec<_>>());
            }
        }
        let mut order = ues;
        let mut state = 7;
        for i in (1..order.len()).rev() {
            state = splitmix64(state);
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        for (k, &gone) in order.iter().enumerate() {
            assert_eq!(m.remove(gone), model.remove(&gone));
            for kept in &order[k + 1..] {
                assert_eq!(m.get(*kept), model.get(kept), "after removing {k} UEs");
            }
            check_chunks(&m);
            if m.len() % CHUNK == 0 {
                assert_eq!(sorted(&m), model.clone().into_iter().collect::<Vec<_>>());
            }
        }
        assert!(m.is_empty() && m.chunks.is_empty());
    }

    #[test]
    fn a_clone_grows_into_its_partial_chunk() {
        let mut m = UeMap::new();
        for i in 0..CHUNK as u64 + 5 {
            m.insert(UeId::new(i), i);
        }
        let mut copy = m.clone();
        let partial = copy.chunks[1].as_ptr();
        for i in CHUNK as u64 + 5..2 * CHUNK as u64 {
            copy.insert(UeId::new(i), i);
        }
        assert_eq!(copy.chunks[1].as_ptr(), partial, "the partial chunk moved");
        assert!(copy.chunks.iter().all(|c| c.capacity() == CHUNK));
        assert_eq!(sorted(&copy)[..m.len()], sorted(&m)[..]);
    }

    /// The UE whose hash is `hash`: splitmix64's finalizer undone step by
    /// step, so a test can choose the tag and home it collides on.
    fn ue_with_hash(hash: u64) -> UeId {
        fn unshift(y: u64, by: u32) -> u64 {
            (0..64 / by).fold(y, |x, _| y ^ (x >> by))
        }
        fn inverse(odd: u64) -> u64 {
            // Newton's iteration doubles the correct low bits: 3 → 96.
            (0..5).fold(odd, |x, _| {
                x.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(x)))
            })
        }
        let mut x = unshift(hash, 31);
        x = unshift(x.wrapping_mul(inverse(0x94D0_49BB_1331_11EB)), 27);
        x = unshift(x.wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9)), 30);
        let ue = UeId::new(x.wrapping_sub(0x9E37_79B9_7F4A_7C15));
        assert_eq!(hash_of(ue), hash, "the inverse is exact");
        ue
    }

    type Model = std::collections::BTreeMap<UeId, u64>;

    /// `m` holds what `model` holds, through the index (when `full`) as well
    /// as by count, and keeps one word per entry and one chunk per `CHUNK`.
    fn check_against(m: &UeMap<u64>, model: &Model, full: bool) {
        assert_eq!(m.len(), model.len());
        assert_eq!(m.index.iter().filter(|&&w| w != 0).count(), model.len());
        assert_eq!(m.chunks.len(), m.len().div_ceil(CHUNK));
        if full {
            assert_eq!(
                sorted(m),
                model.iter().map(|(&u, &v)| (u, v)).collect::<Vec<_>>()
            );
            assert!(model.iter().all(|(&ue, v)| m.get(ue) == Some(v)));
        }
    }

    /// `ops` seeded operations on UEs of `pool`, each applied to `m` and to
    /// `model` alike: `inserts` in ten are inserts, most of the rest removes.
    fn run_mixed(
        m: &mut UeMap<u64>,
        model: &mut Model,
        pool: &[UeId],
        state: &mut u64,
        ops: u64,
        inserts: u64,
    ) {
        for step in 0..ops {
            let ue = pool[(splitmix64_next(state) % pool.len() as u64) as usize];
            match splitmix64_next(state) % 10 {
                r if r < inserts => assert_eq!(m.insert(ue, step), model.insert(ue, step)),
                9 => assert_eq!(m.get(ue), model.get(&ue)),
                _ => assert_eq!(m.remove(ue), model.remove(&ue)),
            }
            check_against(
                m,
                model,
                step.is_multiple_of(64) || m.len().is_multiple_of(CHUNK),
            );
        }
    }

    #[test]
    fn matches_a_btreemap_when_tags_and_homes_collide() {
        // Three UEs in four share one tag and one of three homes at every
        // index size up to 4 096 (low 12 hash bits 0, 1 or all ones, the
        // last wrapping past the index's end): every lookup compares the
        // slab entry's id, and `unlink` and the repoint walk long shared
        // runs. The fourth is any UE. The map fills past two chunks, drains
        // to empty in a seeded order, and fills again.
        let mut state = 51;
        let pool: Vec<UeId> = (0..800)
            .map(|i| {
                let mid = splitmix64_next(&mut state) >> 20 << 12;
                match i % 4 {
                    3 => UeId::new(mid),
                    home => ue_with_hash(0xA5 << 56 | mid | [0, 1, 0xFFF][home]),
                }
            })
            .collect();
        let (mut m, mut model) = (UeMap::new(), Model::new());
        run_mixed(&mut m, &mut model, &pool, &mut state, 2_000, 7);
        assert!(m.len() > 2 * CHUNK, "filled past two chunks: {}", m.len());
        let mut order: Vec<UeId> = model.keys().copied().collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (splitmix64_next(&mut state) % (i as u64 + 1)) as usize);
        }
        for ue in order {
            assert_eq!(m.remove(ue), model.remove(&ue));
            check_against(&m, &model, m.len().is_multiple_of(32));
        }
        assert!(m.is_empty() && m.chunks.is_empty());
        run_mixed(&mut m, &mut model, &pool, &mut state, 1_500, 6);
    }

    #[test]
    fn the_index_holds_four_bytes_per_position() {
        let mut m = UeMap::new();
        for i in 0..1_000 {
            m.insert(UeId::new(i), ());
        }
        assert_eq!(m.index.len(), 2_048, "at most ¾ full");
        assert_eq!(std::mem::size_of_val(m.index.as_slice()), 4 * 2_048);
    }

    #[test]
    #[should_panic(expected = "UeMap capacity overflow")]
    fn a_slot_past_the_capacity_is_refused() {
        let last = (1 << SLOT_BITS) - 2;
        assert_eq!(slot_of(pack(tag_bits(u64::MAX), last)), last);
        pack(0, last + 1);
    }

    #[test]
    fn debug_prints_in_ue_order() {
        let mut m = UeMap::new();
        m.insert(UeId::new(2), 'b');
        m.insert(UeId::new(1), 'a');
        assert_eq!(format!("{m:?}"), "{ue-1: 'a', ue-2: 'b'}");
    }
}
