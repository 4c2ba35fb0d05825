//! Hierarchical calendar-queue (timing-wheel) event scheduler.
//!
//! Replaces the engine's `BinaryHeap` event queue. Dispatch order is
//! *identical* to a min-heap ordered by [`SchedKey`] — the `(at, seq)`
//! pair — so every golden snapshot and corpus replay stays byte-identical.
//! The win is constant-time scheduling for near-future events (the common
//! case: link delays and service times of a few microseconds) instead of
//! `O(log n)` sift costs, and level-0/1 bucket buffers that are recycled,
//! so the steady state allocates nothing per event. A level-2/3 bucket
//! frees its storage as it cascades, so a far timer wave is never held
//! twice.
//!
//! # Layout
//!
//! Virtual time is quantized into 256 ns *ticks* (`at >> TICK_SHIFT`).
//! Four levels of 256 slots each cover deltas of up to 2^32 ticks
//! (~18 minutes of simulated time) from the cursor:
//!
//! | level | covers deltas of     | slot width   |
//! |-------|----------------------|--------------|
//! | 0     | < 2^8  ticks         | 1 tick       |
//! | 1     | < 2^16 ticks         | 2^8 ticks    |
//! | 2     | < 2^24 ticks         | 2^16 ticks   |
//! | 3     | < 2^32 ticks         | 2^24 ticks   |
//!
//! Events beyond the top span live in a `far` min-heap and are admitted
//! into the wheels once the cursor gets close enough. Events landing at or
//! before the cursor's tick (zero-delay self-sends, same-instant
//! insertions while a tick is being drained) go to a `spill` min-heap.
//!
//! # Determinism argument
//!
//! - An event is placed by its *delta* from the cursor at insertion time;
//!   the cursor never decreases, so a level-`l` slot only ever holds
//!   events of a single slot-window per rotation.
//! - `advance` jumps the cursor to the minimum "next due boundary" across
//!   all levels (bitmap scan). Because the jump target is the global
//!   minimum, the cursor never passes an occupied slot without draining
//!   it, and higher-level slots cascade exactly when the cursor enters
//!   their tick block (highest level first, so re-placed events land
//!   strictly below).
//! - Every bucket holds its events in the order they were placed: a
//!   push appends, and a cascade re-places a bucket in that order. Direct
//!   pushes mostly arrive in key order, so an activated level-0 slot —
//!   exactly one tick's events — is usually ascending already; it is
//!   sorted only when it is not, then handed out smallest first, while
//!   pops always compare against the spill heap's minimum. Since `seq` is
//!   unique, the order is a total order — identical to the reference heap.
//!
//! [`ReferenceHeap`] is the binary-heap scheduler the wheel replaced, kept
//! as the executable ordering specification: equivalence tests and the
//! `crates/bench` microbench drive both off the same [`SchedKey`].

use neutrino_common::time::Instant;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// THE scheduler ordering: ascending `(at, seq)`, lexicographic via the
/// derived `Ord`. `seq` is assigned at scheduling time and unique, so the
/// order is total and ties at the same instant dispatch in scheduling
/// order on every run. Both [`Wheel`] and [`ReferenceHeap`] (and nothing
/// else) define dispatch order from this single derive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SchedKey {
    /// Virtual time the event is due.
    pub at: Instant,
    /// Scheduling sequence number (tie-breaker; unique per simulation).
    pub seq: u64,
}

/// Heap entry inverting [`SchedKey`]'s ascending order so `BinaryHeap`'s
/// max-heap pops the smallest key first. The only ordering inversion in
/// the scheduler; it delegates straight to the `SchedKey` derive.
struct Min<T>(SchedKey, T);

impl<T> PartialEq for Min<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<T> Eq for Min<T> {}
impl<T> PartialOrd for Min<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Min<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.cmp(&self.0)
    }
}

/// Nanoseconds per tick, as a shift: 256 ns.
const TICK_SHIFT: u32 = 8;
/// Slot-index bits per level: 256 slots.
const LEVEL_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels.
const LEVELS: usize = 4;
/// Ticks covered by all levels together (deltas beyond this go to `far`).
const SPAN_TICKS: u64 = 1 << (LEVEL_BITS * LEVELS as u32);
/// Events a level-2/3 cascade re-places between two returns of its
/// bucket's storage.
const DRAIN_STEP: usize = 4096;

/// One wheel level: 256 buckets plus an occupancy bitmap for skip-scans.
struct Level<T> {
    slots: Vec<Vec<(SchedKey, T)>>,
    occupied: [u64; SLOTS / 64],
}

impl<T> Level<T> {
    fn new() -> Self {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; SLOTS / 64],
        }
    }

    #[inline]
    fn is_set(&self, slot: usize) -> bool {
        self.occupied[slot >> 6] & (1 << (slot & 63)) != 0
    }

    #[inline]
    fn set(&mut self, slot: usize) {
        self.occupied[slot >> 6] |= 1 << (slot & 63);
    }

    #[inline]
    fn clear(&mut self, slot: usize) {
        self.occupied[slot >> 6] &= !(1 << (slot & 63));
    }

    /// Smallest occupied slot index `>= from`, if any.
    fn first_set_at_or_after(&self, from: usize) -> Option<usize> {
        let mut w = from >> 6;
        let mut word = self.occupied[w] & (!0u64 << (from & 63));
        loop {
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= SLOTS / 64 {
                return None;
            }
            word = self.occupied[w];
        }
    }
}

/// The hierarchical timing-wheel scheduler. See the module docs for the
/// layout and the determinism argument.
pub struct Wheel<T> {
    /// Current tick: every event at a tick `< cursor` has been dispatched
    /// or moved to `current`/`spill`; wheel slots only hold ticks
    /// `> cursor` (the cursor's own tick is drained on arrival).
    cursor: u64,
    levels: Vec<Level<T>>,
    /// The activated tick's events, smallest key last so `pop` takes it
    /// from the back. Swapped wholesale with level-0 buckets so buffers
    /// recycle.
    current: Vec<(SchedKey, T)>,
    /// Events due at or before the cursor's tick: zero-delay sends and
    /// insertions landing mid-drain. Always dispatch-comparable against
    /// `current` by full key.
    spill: BinaryHeap<Min<T>>,
    /// Events beyond the top-level span; admitted as the cursor approaches.
    far: BinaryHeap<Min<T>>,
    /// Events currently resident in level slots.
    in_wheels: usize,
    len: usize,
    max_depth: usize,
}

impl<T> Default for Wheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Wheel<T> {
    /// An empty scheduler with the cursor at tick zero.
    pub fn new() -> Self {
        Wheel {
            cursor: 0,
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            current: Vec::new(),
            spill: BinaryHeap::new(),
            far: BinaryHeap::new(),
            in_wheels: 0,
            len: 0,
            max_depth: 0,
        }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Peak number of simultaneously scheduled events.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Schedules an event.
    #[inline(always)]
    pub fn push(&mut self, key: SchedKey, item: T) {
        self.len += 1;
        if self.len > self.max_depth {
            self.max_depth = self.len;
        }
        self.place(key, item);
    }

    /// Removes and returns the smallest-keyed event.
    pub fn pop(&mut self) -> Option<(SchedKey, T)> {
        self.pop_due(Instant::FAR_FUTURE)
    }

    /// Removes and returns the smallest-keyed event if it is due at or
    /// before `deadline`; a later head stays where it is.
    pub fn pop_due(&mut self, deadline: Instant) -> Option<(SchedKey, T)> {
        self.ensure_front();
        let (head, take_spill) = match (self.current.last(), self.spill.peek()) {
            (Some(c), Some(s)) if s.0 < c.0 => (s.0, true),
            (Some(c), _) => (c.0, false),
            (None, Some(s)) => (s.0, true),
            (None, None) => return None,
        };
        if head.at > deadline {
            return None;
        }
        self.len -= 1;
        if take_spill {
            self.spill.pop().map(|Min(k, v)| (k, v))
        } else {
            self.current.pop()
        }
    }

    /// Key of the earliest scheduled event without advancing anything —
    /// a read-only scan for harnesses that probe between `run_until`
    /// segments. Each level's earliest event lives in its cyclically-first
    /// occupied slot (successive slot windows are disjoint and
    /// increasing), so one slot per level is scanned.
    pub fn min_key(&self) -> Option<SchedKey> {
        let mut best: Option<SchedKey> = None;
        let mut fold = |k: SchedKey| {
            if best.is_none_or(|b| k < b) {
                best = Some(k);
            }
        };
        if let Some((k, _)) = self.current.last() {
            fold(*k);
        }
        if let Some(Min(k, _)) = self.spill.peek() {
            fold(*k);
        }
        if let Some(Min(k, _)) = self.far.peek() {
            fold(*k);
        }
        for l in 0..LEVELS {
            if let Some((boundary, wrapped)) = self.next_candidate(l) {
                let shift = LEVEL_BITS * l as u32;
                let slot = ((boundary >> shift) & (SLOTS as u64 - 1)) as usize;
                for (k, _) in &self.levels[l].slots[slot] {
                    fold(*k);
                }
                if !wrapped {
                    // Every event in this slot's window precedes anything a
                    // higher level can hold (see next_candidate).
                    break;
                }
            }
        }
        best
    }

    /// Routes an event to its home: spill (due now or past), a wheel level
    /// picked by delta, or the far heap. Shared by `push`, cascades, and
    /// far admission; does not touch `len`/`max_depth`. A hint, not
    /// `always`: forced into the cascade and admission loops as well, it
    /// cost `sim_steady` ≈ 3 %.
    #[inline]
    fn place(&mut self, key: SchedKey, item: T) {
        let k = key.at.as_nanos() >> TICK_SHIFT;
        if k <= self.cursor {
            self.spill.push(Min(key, item));
            return;
        }
        let delta = k - self.cursor;
        if delta >= SPAN_TICKS {
            self.far.push(Min(key, item));
            return;
        }
        // delta >= 1 here: level = highest set bit / LEVEL_BITS.
        let level = ((63 - delta.leading_zeros()) / LEVEL_BITS) as usize;
        let slot = ((k >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let lv = &mut self.levels[level];
        lv.slots[slot].push((key, item));
        lv.set(slot);
        self.in_wheels += 1;
    }

    /// Makes the next event poppable from `current`/`spill` if any exists.
    fn ensure_front(&mut self) {
        if self.current.is_empty() && self.spill.is_empty() && self.len > 0 {
            self.advance();
        }
    }

    /// Next due boundary tick for a level: the cyclically-first occupied
    /// slot after the cursor's position, mapped to the tick where its
    /// events become due (for level 0 that is the events' exact tick;
    /// wrapped slots are due one rotation later). The boolean is `true`
    /// for a wrapped candidate.
    ///
    /// A **non-wrapped** candidate at level `l` dominates every candidate
    /// at levels above `l`: it lies inside the cursor's current level-`l`
    /// rotation, while a higher level's earliest possible candidate starts
    /// at the *next* level-(`l`+1) slot boundary — exactly where this
    /// rotation ends. Scans over levels in ascending order may therefore
    /// stop at the first non-wrapped hit.
    fn next_candidate(&self, l: usize) -> Option<(u64, bool)> {
        let lv = &self.levels[l];
        let shift = LEVEL_BITS * l as u32;
        let pos = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as usize;
        let rotation = 1u64 << (shift + LEVEL_BITS);
        let base = self.cursor & !(rotation - 1);
        if pos + 1 < SLOTS {
            if let Some(s) = lv.first_set_at_or_after(pos + 1) {
                return Some((base + ((s as u64) << shift), false));
            }
        }
        if let Some(s) = lv.first_set_at_or_after(0) {
            if s <= pos {
                return Some((base + rotation + ((s as u64) << shift), true));
            }
        }
        None
    }

    /// Re-places a level slot's events relative to the new cursor in the
    /// order they were placed (the bucket is reversed in place, then
    /// drained from the back), so each receiving bucket keeps placement
    /// order. Re-placed events land strictly below `level` (or in spill
    /// when due exactly now). A level-1 bucket keeps its capacity for the
    /// next rotation, 16.8 ms later. A level-2 or level-3 bucket, next used
    /// a rotation (4.3 s or 18 min) later, gives its storage back every
    /// `DRAIN_STEP` events, so the buckets it fills grow into memory it
    /// frees, and it keeps none.
    fn cascade(&mut self, level: usize, slot: usize) {
        if !self.levels[level].is_set(slot) {
            return;
        }
        self.levels[level].clear(slot);
        let mut drained = std::mem::take(&mut self.levels[level].slots[slot]);
        self.in_wheels -= drained.len();
        drained.reverse();
        while let Some((key, item)) = drained.pop() {
            self.place(key, item);
            if level > 1 && drained.len().is_multiple_of(DRAIN_STEP) {
                drained.shrink_to_fit();
            }
        }
        if level == 1 {
            self.levels[level].slots[slot] = drained;
        }
    }

    /// Advances the cursor to the next non-empty tick and activates it.
    /// Precondition: `current` and `spill` empty, `len > 0`.
    fn advance(&mut self) {
        debug_assert!(self.current.is_empty() && self.spill.is_empty());
        loop {
            self.admit_far();
            let mut best: Option<u64> = None;
            for l in 0..LEVELS {
                if let Some((n, wrapped)) = self.next_candidate(l) {
                    if best.is_none_or(|b| n < b) {
                        best = Some(n);
                    }
                    if !wrapped {
                        // Dominates all higher levels (see next_candidate).
                        break;
                    }
                }
            }
            let Some(boundary) = best else {
                // Wheels empty. If far events remain, jump close enough to
                // admit the earliest and retry; otherwise nothing is left.
                let Some(Min(k, _)) = self.far.peek() else {
                    return;
                };
                debug_assert_eq!(self.in_wheels, 0);
                self.cursor = (k.at.as_nanos() >> TICK_SHIFT) - (SPAN_TICKS - 1);
                continue;
            };
            // Never jump past a far event's admission point: it could be
            // due before the wheels' next boundary once admitted. Strictly
            // before only — on equality the boundary path must run so the
            // occupied slot cascades/activates (a bare cursor move would
            // leave the slot's digit equal to the cursor's and
            // `next_candidate` would misread it as wrapped); the far event's
            // delta is then SPAN_TICKS - 1, admitted on the next iteration.
            if let Some(Min(k, _)) = self.far.peek() {
                let admit_at = (k.at.as_nanos() >> TICK_SHIFT) - (SPAN_TICKS - 1);
                if admit_at < boundary {
                    self.cursor = admit_at;
                    continue;
                }
            }
            self.cursor = boundary;
            // Entering new tick blocks: cascade every level whose block
            // starts here, highest first so events land strictly below.
            for l in (1..LEVELS).rev() {
                let block = 1u64 << (LEVEL_BITS * l as u32);
                if boundary & (block - 1) == 0 {
                    let slot = ((boundary >> (LEVEL_BITS * l as u32)) & (SLOTS as u64 - 1)) as usize;
                    self.cascade(l, slot);
                }
            }
            // Activate the level-0 slot at the boundary: every entry in it
            // carries exactly this tick (see module docs), so the whole
            // bucket becomes `current`. It is in placement order, which is
            // usually key order; sort it only when it is not, then reverse
            // it for back-pops.
            let s0 = (boundary & (SLOTS as u64 - 1)) as usize;
            if self.levels[0].is_set(s0) {
                self.levels[0].clear(s0);
                std::mem::swap(&mut self.levels[0].slots[s0], &mut self.current);
                self.in_wheels -= self.current.len();
                if !self.current.is_sorted_by_key(|e| e.0) {
                    self.current.sort_unstable_by_key(|e| e.0);
                }
                self.current.reverse();
            }
            if !self.current.is_empty() || !self.spill.is_empty() {
                return;
            }
        }
    }

    /// Moves far events whose delta has shrunk below the top span into the
    /// wheels.
    fn admit_far(&mut self) {
        loop {
            let Some(head) = self.far.peek_mut() else {
                break;
            };
            let tick = head.0.at.as_nanos() >> TICK_SHIFT;
            debug_assert!(tick > self.cursor, "far event behind the cursor");
            if tick - self.cursor >= SPAN_TICKS {
                break;
            }
            let Min(key, item) = PeekMut::pop(head);
            self.place(key, item);
        }
    }
}

/// The binary-heap scheduler the wheel replaced, kept as the executable
/// ordering specification. Order-equivalence tests and the bench-crate
/// microbench run identical schedules through both; dispatch order must
/// match event-for-event.
pub struct ReferenceHeap<T> {
    heap: BinaryHeap<Min<T>>,
    max_depth: usize,
}

impl<T> Default for ReferenceHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ReferenceHeap<T> {
    /// An empty reference scheduler.
    pub fn new() -> Self {
        ReferenceHeap {
            heap: BinaryHeap::new(),
            max_depth: 0,
        }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Peak number of simultaneously scheduled events.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Schedules an event.
    pub fn push(&mut self, key: SchedKey, item: T) {
        self.heap.push(Min(key, item));
        if self.heap.len() > self.max_depth {
            self.max_depth = self.heap.len();
        }
    }

    /// Key of the next event to dispatch.
    pub fn peek_key(&self) -> Option<SchedKey> {
        self.heap.peek().map(|m| m.0)
    }

    /// Removes and returns the smallest-keyed event.
    pub fn pop(&mut self) -> Option<(SchedKey, T)> {
        self.heap.pop().map(|Min(k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(at_ns: u64, seq: u64) -> SchedKey {
        SchedKey {
            at: Instant::from_nanos(at_ns),
            seq,
        }
    }

    /// Drains both schedulers fed the same pushes; orders must match.
    fn assert_equivalent(schedule: &[(u64, u64)]) {
        let mut wheel = Wheel::new();
        let mut heap = ReferenceHeap::new();
        for &(at, seq) in schedule {
            wheel.push(key(at, seq), seq);
            heap.push(key(at, seq), seq);
        }
        loop {
            let w = wheel.pop();
            let h = heap.pop();
            assert_eq!(w, h, "wheel diverged from reference heap");
            if w.is_none() {
                break;
            }
        }
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn dispatches_in_key_order() {
        assert_equivalent(&[(500, 0), (100, 1), (300, 2), (100, 3), (0, 4)]);
    }

    #[test]
    fn same_instant_ties_break_by_seq() {
        assert_equivalent(&[(1000, 5), (1000, 1), (1000, 3), (1000, 0)]);
    }

    #[test]
    fn far_future_events_cross_the_overflow_level() {
        // Beyond SPAN_TICKS << TICK_SHIFT = 2^40 ns (~18 min).
        assert_equivalent(&[
            (1 << 41, 0),
            (100, 1),
            ((1 << 41) + 7, 2),
            (1 << 45, 3),
            (u64::MAX >> 1, 4),
        ]);
    }

    #[test]
    fn far_admission_point_on_slot_boundary_still_cascades() {
        // Regression: a far event whose admission tick equals the next due
        // boundary. The clamp must not short-circuit past the boundary path,
        // or the occupied slot (digit == cursor pos) is misread as wrapped
        // and its events defer a full rotation behind later-keyed ones.
        // Tick 1000 lives in level-1 slot 3 (boundary tick 768); the far
        // event's admission point is exactly 768 + 2^32 - 1 - (2^32 - 1).
        let tick = |t: u64| t << TICK_SHIFT;
        assert_equivalent(&[
            (tick(1000), 0),
            (tick(40000), 1),
            (tick(768 + SPAN_TICKS - 1), 2),
        ]);
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut wheel = Wheel::new();
        let mut heap = ReferenceHeap::new();
        // Simple deterministic mixed workload: pop one, push two at times
        // derived from the popped event (exercises mid-drain insertion).
        let mut seq = 0u64;
        for _ in 0..4 {
            wheel.push(key(seq * 777, seq), seq);
            heap.push(key(seq * 777, seq), seq);
            seq += 1;
        }
        let mut popped = 0;
        while popped < 200 {
            let w = wheel.pop();
            let h = heap.pop();
            assert_eq!(w.map(|(k, _)| k), h.map(|(k, _)| k));
            let Some((k, _)) = w else { break };
            popped += 1;
            if popped < 60 {
                // zero-delay same-instant re-send + a short hop
                for bump in [0u64, 300, 65_536 * 256] {
                    let nk = key(k.at.as_nanos() + bump, seq);
                    wheel.push(nk, seq);
                    heap.push(nk, seq);
                    seq += 1;
                }
            }
        }
        loop {
            let w = wheel.pop();
            let h = heap.pop();
            assert_eq!(w.map(|(k, _)| k), h.map(|(k, _)| k));
            if w.is_none() {
                break;
            }
        }
    }

    #[test]
    fn a_far_cascade_keeps_no_capacity() {
        // An attach-burst shape: 12 000 near events, each of which arms a
        // timer 2 s (level 2) and one 120 s (level 3) after it fires. The
        // pop order stays the reference heap's, and a level-2/3 bucket
        // holds capacity only while its slot is occupied.
        let near = 12_000u64;
        let mut wheel = Wheel::new();
        let mut heap = ReferenceHeap::new();
        for seq in 0..near {
            wheel.push(key(seq * 7_919, seq), seq);
            heap.push(key(seq * 7_919, seq), seq);
        }
        let mut seq = near;
        let mut popped = 0;
        while let Some((k, item)) = wheel.pop() {
            assert_eq!(
                heap.pop(),
                Some((k, item)),
                "wheel diverged from reference heap"
            );
            if item < near {
                for after in [2_000_000_000, 120_000_000_000] {
                    wheel.push(key(k.at.as_nanos() + after, seq), seq);
                    heap.push(key(k.at.as_nanos() + after, seq), seq);
                    seq += 1;
                }
            }
            popped += 1;
            if popped % 500 == 0 || wheel.is_empty() {
                for (l, lv) in wheel.levels.iter().enumerate().skip(2) {
                    for (s, bucket) in lv.slots.iter().enumerate() {
                        assert!(
                            lv.is_set(s) || bucket.capacity() == 0,
                            "level {l} slot {s} kept {} entries of capacity",
                            bucket.capacity()
                        );
                    }
                }
            }
        }
        assert_eq!((popped, heap.pop()), (3 * near, None));
    }

    #[test]
    fn a_cascade_keeps_placement_order() {
        // Three events (two sharing an instant) in a level-1, a level-2 and
        // a level-3 slot, pushed in key order from cursor 0. A marker at
        // every block start their tick cascades through is due exactly on
        // the boundary, so it lands in spill and stops `advance` right
        // after that cascade: the buckets it filled are inspected before
        // anything activates them.
        let mut schedule = Vec::new();
        for t in [1_000u64, 3 << 16 | 1_000, 2 << 24 | 70_000] {
            for shift in [24, 16, 8] {
                let start = t >> shift << shift;
                if start > 0 && !schedule.contains(&start) {
                    schedule.push(start);
                }
            }
            schedule.extend([t, t, t + 1]);
        }
        schedule.sort_unstable();
        let mut wheel = Wheel::new();
        let mut heap = ReferenceHeap::new();
        for (seq, &t) in (0u64..).zip(&schedule) {
            wheel.push(key(t << TICK_SHIFT, seq), seq);
            heap.push(key(t << TICK_SHIFT, seq), seq);
        }
        while let Some(popped) = wheel.pop() {
            assert_eq!(
                Some(popped),
                heap.pop(),
                "wheel diverged from reference heap"
            );
            for (l, lv) in wheel.levels.iter().enumerate() {
                for (s, bucket) in lv.slots.iter().enumerate() {
                    assert!(
                        bucket.is_sorted_by_key(|e| e.0),
                        "level {l} slot {s} out of placement order after {:?}",
                        popped.0
                    );
                }
            }
        }
        assert_eq!(heap.pop(), None);
    }

    #[test]
    fn min_key_is_read_only_and_correct() {
        let mut wheel = Wheel::new();
        assert_eq!(wheel.min_key(), None);
        for &(at, seq) in &[(1u64 << 41, 0u64), (90_000, 1), (70_000_000, 2), (256, 3)] {
            wheel.push(key(at, seq), seq);
        }
        // Before any pop has advanced the cursor.
        assert_eq!(wheel.min_key(), Some(key(256, 3)));
        let (k, _) = wheel.pop().unwrap();
        assert_eq!(k, key(256, 3));
        assert_eq!(wheel.min_key(), Some(key(90_000, 1)));
        assert_eq!(wheel.len(), 3);
    }

    #[test]
    fn pseudo_random_schedules_match_reference() {
        // splitmix64-driven schedules over several magnitude bands,
        // including duplicates of the same instant.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for band in [1_000u64, 300_000, 50_000_000, 1 << 42] {
            let mut schedule = Vec::new();
            for seq in 0..500u64 {
                let at = next() % band;
                schedule.push((at, seq));
                if seq % 7 == 0 {
                    schedule.push((at, seq + 10_000)); // same-instant tie
                }
            }
            assert_equivalent(&schedule);
        }
    }

    #[test]
    fn max_depth_tracks_peak() {
        let mut wheel = Wheel::new();
        for i in 0..10 {
            wheel.push(key(i * 100, i), i);
        }
        for _ in 0..5 {
            wheel.pop();
        }
        for i in 10..13 {
            wheel.push(key(i * 100, i), i);
        }
        assert_eq!(wheel.max_depth(), 10);
        assert_eq!(wheel.len(), 8);
    }
}
