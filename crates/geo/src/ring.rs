//! Consistent hash rings over CPFs, and the two-level ring stack of §4.3.
//!
//! "Each CTA implements two consistent hash rings; (i) level-1 hash ring
//! consists of all the CPFs in the level-1 region and (ii) level-2 hash ring
//! includes all the CPFs in the level-2 region [not included in the level-1
//! ring]. When CTA receives a control message from the UE, it extracts a
//! unique user ID and hashes it to the level-1 ring to determine the primary
//! CPF. When a control procedure completes, the primary CPF replicates the
//! user state on N consecutive replicas on a level-2 ring."

use neutrino_common::rng::splitmix64;
use neutrino_common::{CpfId, UeId};

/// Virtual nodes per CPF — smooths load across the ring.
const VNODES: u64 = 64;

/// The ring points a CPF's virtual nodes sit on.
fn vnode_points(cpf: CpfId) -> impl Iterator<Item = u64> {
    (0..VNODES).map(move |v| splitmix64(cpf.raw().wrapping_mul(0x100_0000) ^ v))
}

/// A consistent hash ring of CPFs with virtual nodes: one flat table, walked
/// clockwise from a binary search.
#[derive(Debug, Clone, Default)]
pub struct ConsistentRing {
    /// Virtual nodes sorted by `(point, cpf)`. Two CPFs hashing to one point
    /// both keep their entry: the lower id owns the point, and removing it
    /// exposes the other.
    points: Vec<(u64, CpfId)>,
    /// Distinct members, sorted.
    members: Vec<CpfId>,
}

impl ConsistentRing {
    /// An empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// A ring of `members` (duplicates ignored), sorted once.
    pub fn from_members(members: impl IntoIterator<Item = CpfId>) -> Self {
        let mut members: Vec<CpfId> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        let mut points = Vec::with_capacity(members.len() * VNODES as usize);
        for &cpf in &members {
            points.extend(vnode_points(cpf).map(|p| (p, cpf)));
        }
        points.sort_unstable();
        ConsistentRing { points, members }
    }

    /// Adds a CPF (no-op if present).
    pub fn add(&mut self, cpf: CpfId) {
        self.place(cpf, vnode_points(cpf));
    }

    /// Puts `cpf` on the ring at `at` unless it is already a member.
    fn place(&mut self, cpf: CpfId, at: impl Iterator<Item = u64>) {
        let Err(slot) = self.members.binary_search(&cpf) else {
            return;
        };
        self.members.insert(slot, cpf);
        for point in at {
            let entry = (point, cpf);
            let slot = self.points.partition_point(|p| *p < entry);
            self.points.insert(slot, entry);
        }
    }

    /// Removes a CPF (e.g. on failure) so lookups stop landing on it.
    pub fn remove(&mut self, cpf: CpfId) {
        self.members.retain(|m| *m != cpf);
        self.points.retain(|(_, m)| *m != cpf);
    }

    /// Members currently on the ring.
    pub fn members(&self) -> &[CpfId] {
        &self.members
    }

    /// True when no CPF is on the ring.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The CPF owning `ue` (first point clockwise of the key's hash).
    pub fn primary(&self, ue: UeId) -> Option<CpfId> {
        self.successors(ue, 1).next()
    }

    /// The owner of `ue` on a ring of `members`, found in one pass over
    /// their points without building the ring: the owner's point is the one
    /// the shortest clockwise distance from the key.
    pub fn primary_among(members: impl IntoIterator<Item = CpfId>, ue: UeId) -> Option<CpfId> {
        let key = splitmix64(ue.raw());
        members
            .into_iter()
            .flat_map(|cpf| vnode_points(cpf).map(move |p| (p, cpf)))
            .min_by_key(|&(point, cpf)| (point.wrapping_sub(key), cpf))
            .map(|(_, cpf)| cpf)
    }

    /// The first `n` *distinct* CPFs clockwise of the key — the paper's
    /// "N consecutive replicas on a level-2 ring".
    pub fn successors(&self, ue: UeId, n: usize) -> Successors<'_> {
        let key = splitmix64(ue.raw());
        let (before, from) = self
            .points
            .split_at(self.points.partition_point(|p| p.0 < key));
        Successors {
            from,
            before,
            walked: 0,
            left: n.min(self.members.len()),
        }
    }
}

/// The clockwise walk [`ConsistentRing::successors`] returns. It keeps no
/// set of the CPFs it has yielded: a point's CPF is new when none of the
/// points walked before it carries the same one, and with N ≪ members the
/// walk is a handful of points long.
#[derive(Debug, Clone)]
pub struct Successors<'a> {
    /// The points at or clockwise of the key, then the wrap-around.
    from: &'a [(u64, CpfId)],
    before: &'a [(u64, CpfId)],
    /// Points of `from ++ before` already visited.
    walked: usize,
    /// Distinct CPFs still to yield (never more than the ring has left).
    left: usize,
}

impl Successors<'_> {
    fn cpf_at(&self, step: usize) -> CpfId {
        match self.from.get(step) {
            Some(point) => point.1,
            None => self.before[step - self.from.len()].1,
        }
    }
}

impl Iterator for Successors<'_> {
    type Item = CpfId;

    fn next(&mut self) -> Option<CpfId> {
        if self.left == 0 {
            return None;
        }
        // `left` never exceeds the members not yet yielded, so the walk
        // finds a new one before it runs out of points.
        loop {
            let step = self.walked;
            self.walked += 1;
            let cpf = self.cpf_at(step);
            if (0..step).all(|earlier| self.cpf_at(earlier) != cpf) {
                self.left -= 1;
                return Some(cpf);
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Successors<'_> {}

/// The two rings a CTA holds (§4.3), plus replica selection.
#[derive(Debug, Clone)]
pub struct RingStack {
    /// CPFs of this CTA's level-1 region: primary selection.
    pub level1: ConsistentRing,
    /// CPFs of the level-2 region *excluding* level-1 members: backup
    /// replica selection.
    pub level2: ConsistentRing,
    /// Number of backup replicas N.
    pub replicas: usize,
}

impl RingStack {
    /// Builds the stack from the CPFs of the local level-1 region and the
    /// CPFs of the rest of the level-2 region.
    pub fn new(level1_cpfs: &[CpfId], level2_other_cpfs: &[CpfId], replicas: usize) -> Self {
        // §4.3: the level-2 ring excludes CPFs already on the level-1 ring,
        // so backups always land in *other* level-1 regions.
        let others = level2_other_cpfs
            .iter()
            .copied()
            .filter(|c| !level1_cpfs.contains(c));
        RingStack {
            level1: ConsistentRing::from_members(level1_cpfs.iter().copied()),
            level2: ConsistentRing::from_members(others),
            replicas,
        }
    }

    /// Primary CPF for a UE.
    pub fn primary(&self, ue: UeId) -> Option<CpfId> {
        self.level1.primary(ue)
    }

    /// Backup CPFs for a UE: N consecutive members of the level-2 ring.
    /// Falls back to the level-1 members after the primary when the level-2
    /// ring is empty (single-region deployments).
    pub fn backups(&self, ue: UeId) -> impl ExactSizeIterator<Item = CpfId> + '_ {
        // A level-1 walk starts on the primary: ask for one more and skip it.
        let (ring, primary) = if self.level2.is_empty() {
            (&self.level1, 1)
        } else {
            (&self.level2, 0)
        };
        ring.successors(ue, self.replicas + primary).skip(primary)
    }

    /// Handles a CPF failure: removes it from whichever ring holds it.
    pub fn remove(&mut self, cpf: CpfId) {
        self.level1.remove(cpf);
        self.level2.remove(cpf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpfs(range: std::ops::Range<u64>) -> Vec<CpfId> {
        range.map(CpfId::new).collect()
    }

    #[test]
    fn primary_is_stable() {
        let mut ring = ConsistentRing::new();
        for c in cpfs(0..5) {
            ring.add(c);
        }
        for ue in 0..100 {
            let a = ring.primary(UeId::new(ue));
            let b = ring.primary(UeId::new(ue));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn load_spreads_across_members() {
        let mut ring = ConsistentRing::new();
        for c in cpfs(0..5) {
            ring.add(c);
        }
        let mut counts = [0usize; 5];
        for ue in 0..10_000 {
            let p = ring.primary(UeId::new(ue)).unwrap();
            counts[p.raw() as usize] += 1;
        }
        for (cpf, n) in counts.into_iter().enumerate() {
            assert!(
                (1_000..4_000).contains(&n),
                "cpf-{cpf} got {n}/10000 — too skewed"
            );
        }
    }

    #[test]
    fn removal_only_moves_the_failed_members_keys() {
        let mut ring = ConsistentRing::new();
        for c in cpfs(0..5) {
            ring.add(c);
        }
        let before: Vec<_> = (0..2_000)
            .map(|ue| ring.primary(UeId::new(ue)).unwrap())
            .collect();
        let failed = CpfId::new(2);
        ring.remove(failed);
        let mut moved_from_alive = 0;
        for (ue, &was) in before.iter().enumerate() {
            let now = ring.primary(UeId::new(ue as u64)).unwrap();
            assert_ne!(now, failed, "keys must leave the failed CPF");
            if was != failed && now != was {
                moved_from_alive += 1;
            }
        }
        assert_eq!(
            moved_from_alive, 0,
            "consistent hashing must not move keys whose owner is alive"
        );
    }

    #[test]
    fn successors_are_distinct_and_capped() {
        let mut ring = ConsistentRing::new();
        for c in cpfs(0..4) {
            ring.add(c);
        }
        for ue in 0..100 {
            let succ: Vec<_> = ring.successors(UeId::new(ue), 3).collect();
            assert_eq!(succ.len(), 3);
            let set: std::collections::BTreeSet<_> = succ.iter().collect();
            assert_eq!(set.len(), 3);
        }
        // Asking for more than membership yields all members.
        assert_eq!(ring.successors(UeId::new(1), 10).count(), 4);
    }

    #[test]
    fn zero_successors_is_empty() {
        let mut ring = ConsistentRing::new();
        for c in cpfs(0..4) {
            ring.add(c);
        }
        assert_eq!(ring.successors(UeId::new(1), 0).next(), None);
    }

    #[test]
    fn empty_ring_returns_none() {
        let ring = ConsistentRing::new();
        assert_eq!(ring.primary(UeId::new(1)), None);
        assert_eq!(ring.successors(UeId::new(1), 3).next(), None);
    }

    #[test]
    fn ring_stack_backups_exclude_level1() {
        let l1 = cpfs(0..5);
        let l2: Vec<_> = cpfs(0..20); // overlapping input — stack must filter
        let stack = RingStack::new(&l1, &l2, 2);
        for ue in 0..500 {
            let ue = UeId::new(ue);
            let primary = stack.primary(ue).unwrap();
            assert!(l1.contains(&primary));
            let backups: Vec<_> = stack.backups(ue).collect();
            assert_eq!(backups.len(), 2);
            for b in &backups {
                assert!(!l1.contains(b), "backup {b} must be outside level-1");
                assert_ne!(*b, primary);
            }
        }
    }

    #[test]
    fn single_region_falls_back_to_level1_backups() {
        let l1 = cpfs(0..5);
        let stack = RingStack::new(&l1, &[], 2);
        for ue in 0..200 {
            let ue = UeId::new(ue);
            let primary = stack.primary(ue).unwrap();
            let backups: Vec<_> = stack.backups(ue).collect();
            assert_eq!(backups.len(), 2);
            assert!(!backups.contains(&primary));
        }
    }

    #[test]
    fn stack_survives_cpf_failure() {
        let l1 = cpfs(0..3);
        let l2 = cpfs(3..12);
        let mut stack = RingStack::new(&l1, &l2, 2);
        let ue = UeId::new(42);
        let p0 = stack.primary(ue).unwrap();
        stack.remove(p0);
        let p1 = stack.primary(ue).unwrap();
        assert_ne!(p0, p1);
        assert!(l1.contains(&p1));
    }

    /// Two CPFs on one point both keep their vnode: the lower id owns it,
    /// and the other takes over when — and only while — the owner is gone.
    #[test]
    fn a_vnode_collision_loses_no_point() {
        let (low, high, elsewhere) = (CpfId::new(1), CpfId::new(2), CpfId::new(3));
        let mut ring = ConsistentRing::new();
        // Added in the order in which an overwriting map would drop `low`.
        ring.place(low, [u64::MAX / 2].into_iter());
        ring.place(high, [u64::MAX / 2].into_iter());
        ring.place(elsewhere, [u64::MAX].into_iter());
        let on_shared_point = (0..)
            .map(UeId::new)
            .find(|ue| splitmix64(ue.raw()) <= u64::MAX / 2)
            .unwrap();
        assert_eq!(ring.primary(on_shared_point), Some(low));
        let all: Vec<_> = ring.successors(on_shared_point, 3).collect();
        assert_eq!(all, [low, high, elsewhere]);
        ring.remove(low);
        assert_eq!(ring.primary(on_shared_point), Some(high));
        ring.place(low, [u64::MAX / 2].into_iter());
        assert_eq!(ring.primary(on_shared_point), Some(low));
        ring.remove(high);
        assert_eq!(ring.primary(on_shared_point), Some(low));
    }
}
