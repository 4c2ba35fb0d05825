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
use std::collections::BTreeMap;

/// Virtual nodes per CPF — smooths load across the ring.
const DEFAULT_VNODES: u32 = 64;

/// A consistent hash ring of CPFs with virtual nodes.
#[derive(Debug, Clone, Default)]
pub struct ConsistentRing {
    /// point → CPF, ordered around the ring.
    points: BTreeMap<u64, CpfId>,
    /// Distinct members.
    members: Vec<CpfId>,
    vnodes: u32,
}

impl ConsistentRing {
    /// An empty ring with the default virtual-node count.
    pub fn new() -> Self {
        Self::with_vnodes(DEFAULT_VNODES)
    }

    /// An empty ring with an explicit virtual-node count.
    pub fn with_vnodes(vnodes: u32) -> Self {
        ConsistentRing {
            points: BTreeMap::new(),
            members: Vec::new(),
            vnodes: vnodes.max(1),
        }
    }

    /// Adds a CPF (no-op if present).
    pub fn add(&mut self, cpf: CpfId) {
        if self.members.contains(&cpf) {
            return;
        }
        self.members.push(cpf);
        self.members.sort_unstable();
        for v in 0..self.vnodes {
            let point = splitmix64(cpf.raw().wrapping_mul(0x100_0000) ^ u64::from(v));
            self.points.insert(point, cpf);
        }
    }

    /// Removes a CPF (e.g. on failure) so lookups stop landing on it.
    pub fn remove(&mut self, cpf: CpfId) {
        self.members.retain(|m| *m != cpf);
        self.points.retain(|_, m| *m != cpf);
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
        let key = splitmix64(ue.raw());
        self.points
            .range(key..)
            .next()
            .or_else(|| self.points.iter().next())
            .map(|(_, cpf)| *cpf)
    }

    /// The first `n` *distinct* CPFs clockwise of the key — the paper's
    /// "N consecutive replicas on a level-2 ring".
    pub fn successors(&self, ue: UeId, n: usize) -> Vec<CpfId> {
        if n == 0 {
            return Vec::new();
        }
        let key = splitmix64(ue.raw());
        let mut out = Vec::with_capacity(n);
        for (_, cpf) in self.points.range(key..).chain(self.points.range(..key)) {
            if !out.contains(cpf) {
                out.push(*cpf);
                if out.len() == n {
                    break;
                }
            }
        }
        out
    }
}

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
        let mut level1 = ConsistentRing::new();
        for &c in level1_cpfs {
            level1.add(c);
        }
        let mut level2 = ConsistentRing::new();
        for &c in level2_other_cpfs {
            // §4.3: the level-2 ring excludes CPFs already on the level-1
            // ring, so backups always land in *other* level-1 regions.
            if !level1_cpfs.contains(&c) {
                level2.add(c);
            }
        }
        RingStack {
            level1,
            level2,
            replicas,
        }
    }

    /// Primary CPF for a UE.
    pub fn primary(&self, ue: UeId) -> Option<CpfId> {
        self.level1.primary(ue)
    }

    /// Backup CPFs for a UE: N consecutive members of the level-2 ring.
    /// Falls back to other level-1 members when the level-2 ring is empty
    /// (single-region deployments), never including the primary.
    pub fn backups(&self, ue: UeId) -> Vec<CpfId> {
        if !self.level2.is_empty() {
            return self.level2.successors(ue, self.replicas);
        }
        let primary = self.primary(ue);
        self.level1
            .successors(ue, self.replicas + 1)
            .into_iter()
            .filter(|c| Some(*c) != primary)
            .take(self.replicas)
            .collect()
    }

    /// Handles a CPF failure: removes it from whichever ring holds it.
    pub fn remove(&mut self, cpf: CpfId) {
        self.level1.remove(cpf);
        self.level2.remove(cpf);
    }
}

/// An n-level generalization of [`RingStack`] — the paper's footnote 14
/// ("one can potentially implement more than 2 consistent hash rings,
/// however, there are tradeoffs. We leave this exploration for future
/// work"). Level 0 picks the primary; each further level covers a 4×
/// larger area and hosts replicas progressively farther away, trading
/// replication latency (farther backups are slower to sync) against
/// handover coverage (a UE can move farther and still find its state).
#[derive(Debug, Clone)]
pub struct MultiRing {
    /// `levels[0]` is the local pool; `levels[k]` holds the CPFs of the
    /// level-(k+1) area *excluding* every lower level's members.
    levels: Vec<ConsistentRing>,
    /// Replicas placed per non-local level.
    replicas_per_level: usize,
}

impl MultiRing {
    /// Builds the stack from per-level CPF sets (lower levels' members are
    /// filtered out of higher levels automatically).
    pub fn new(level_cpfs: &[Vec<CpfId>], replicas_per_level: usize) -> Self {
        let mut seen: Vec<CpfId> = Vec::new();
        let mut levels = Vec::with_capacity(level_cpfs.len());
        for cpfs in level_cpfs {
            let mut ring = ConsistentRing::new();
            for &c in cpfs {
                if !seen.contains(&c) {
                    ring.add(c);
                    seen.push(c);
                }
            }
            levels.push(ring);
        }
        MultiRing {
            levels,
            replicas_per_level,
        }
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The primary CPF (level 0).
    pub fn primary(&self, ue: UeId) -> Option<CpfId> {
        self.levels.first().and_then(|r| r.primary(ue))
    }

    /// Backups across every non-local level: `replicas_per_level` from each,
    /// nearest level first.
    pub fn backups(&self, ue: UeId) -> Vec<CpfId> {
        let mut out = Vec::new();
        for ring in self.levels.iter().skip(1) {
            out.extend(ring.successors(ue, self.replicas_per_level));
        }
        out
    }

    /// The level whose ring holds `cpf` (placement distance), if any.
    pub fn level_of(&self, cpf: CpfId) -> Option<usize> {
        self.levels.iter().position(|r| r.members().contains(&cpf))
    }

    /// Removes a failed CPF from every level.
    pub fn remove(&mut self, cpf: CpfId) {
        for ring in &mut self.levels {
            ring.remove(cpf);
        }
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
        let mut counts = std::collections::HashMap::new();
        for ue in 0..10_000 {
            let p = ring.primary(UeId::new(ue)).unwrap();
            *counts.entry(p).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 5);
        for (&cpf, &n) in &counts {
            assert!(
                (1_000..4_000).contains(&n),
                "{cpf} got {n}/10000 — too skewed"
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
            let succ = ring.successors(UeId::new(ue), 3);
            assert_eq!(succ.len(), 3);
            let set: std::collections::HashSet<_> = succ.iter().collect();
            assert_eq!(set.len(), 3);
        }
        // Asking for more than membership yields all members.
        let succ = ring.successors(UeId::new(1), 10);
        assert_eq!(succ.len(), 4);
    }

    #[test]
    fn zero_successors_is_empty() {
        let mut ring = ConsistentRing::new();
        for c in cpfs(0..4) {
            ring.add(c);
        }
        assert!(ring.successors(UeId::new(1), 0).is_empty());
    }

    #[test]
    fn empty_ring_returns_none() {
        let ring = ConsistentRing::new();
        assert_eq!(ring.primary(UeId::new(1)), None);
        assert!(ring.successors(UeId::new(1), 3).is_empty());
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
            let backups = stack.backups(ue);
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
            let backups = stack.backups(ue);
            assert_eq!(backups.len(), 2);
            assert!(!backups.contains(&primary));
        }
    }

    #[test]
    fn multi_ring_places_replicas_per_level() {
        let levels = vec![
            cpfs(0..5),   // local pool
            cpfs(5..20),  // level-2 area
            cpfs(20..80), // level-3 area
        ];
        let ring = MultiRing::new(&levels, 2);
        assert_eq!(ring.depth(), 3);
        for ue in 0..200 {
            let ue = UeId::new(ue);
            let primary = ring.primary(ue).unwrap();
            assert!(levels[0].contains(&primary));
            let backups = ring.backups(ue);
            assert_eq!(backups.len(), 4, "2 per non-local level");
            assert!(levels[1].contains(&backups[0]));
            assert!(levels[1].contains(&backups[1]));
            assert!(levels[2].contains(&backups[2]));
            assert!(levels[2].contains(&backups[3]));
        }
    }

    #[test]
    fn multi_ring_levels_filter_duplicates() {
        // Overlapping inputs: higher levels must exclude lower members.
        let ring = MultiRing::new(&[cpfs(0..5), cpfs(0..20)], 1);
        for ue in 0..100 {
            for b in ring.backups(UeId::new(ue)) {
                assert!(b.raw() >= 5, "backup {b} leaked from level 0");
            }
        }
        assert_eq!(ring.level_of(CpfId::new(3)), Some(0));
        assert_eq!(ring.level_of(CpfId::new(12)), Some(1));
        assert_eq!(ring.level_of(CpfId::new(99)), None);
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
}
