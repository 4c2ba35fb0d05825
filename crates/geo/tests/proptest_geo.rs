//! Property-based tests of the geo substrate: consistent-hashing invariants
//! and geohash structure over random inputs.

use neutrino_common::rng::splitmix64;
use neutrino_common::{CpfId, UeId};
use neutrino_geo::{ConsistentRing, GeoHash, RingStack};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The ring as it was before the flat table: a point → CPF map filled one
/// `insert` at a time.
#[derive(Default)]
struct MapRing(BTreeMap<u64, CpfId>);

impl MapRing {
    fn add(&mut self, cpf: CpfId) {
        if !self.0.values().any(|m| *m == cpf) {
            for v in 0..64u64 {
                self.0
                    .insert(splitmix64(cpf.raw().wrapping_mul(0x100_0000) ^ v), cpf);
            }
        }
    }

    fn remove(&mut self, cpf: CpfId) {
        self.0.retain(|_, m| *m != cpf);
    }

    fn successors(&self, ue: UeId, n: usize) -> Vec<CpfId> {
        let key = splitmix64(ue.raw());
        let mut out = Vec::new();
        for (_, cpf) in self.0.range(key..).chain(self.0.range(..key)) {
            if out.len() < n && !out.contains(cpf) {
                out.push(*cpf);
            }
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Removing any member never remaps a key whose owner is still alive.
    #[test]
    fn minimal_disruption(members in proptest::collection::hash_set(0u64..500, 2..12),
                          victim_pick in any::<proptest::sample::Index>(),
                          keys in proptest::collection::vec(any::<u64>(), 1..100)) {
        let members: Vec<CpfId> = members.into_iter().map(CpfId::new).collect();
        let mut ring = ConsistentRing::new();
        for &m in &members {
            ring.add(m);
        }
        let victim = members[victim_pick.index(members.len())];
        let before: Vec<_> = keys.iter().map(|&k| ring.primary(UeId::new(k)).unwrap()).collect();
        ring.remove(victim);
        for (&k, &was) in keys.iter().zip(&before) {
            let now = ring.primary(UeId::new(k)).unwrap();
            prop_assert_ne!(now, victim);
            if was != victim {
                prop_assert_eq!(now, was, "key {} moved although its owner lived", k);
            }
        }
    }

    /// Successor lists are distinct, ordered deterministically, and capped
    /// by membership.
    #[test]
    fn successors_invariants(members in proptest::collection::hash_set(0u64..500, 1..10),
                             key in any::<u64>(),
                             n in 0usize..12) {
        let mut ring = ConsistentRing::new();
        for &m in &members {
            ring.add(CpfId::new(m));
        }
        let succ: Vec<_> = ring.successors(UeId::new(key), n).collect();
        prop_assert_eq!(ring.successors(UeId::new(key), n).len(), succ.len(), "exact size");
        prop_assert_eq!(succ.len(), n.min(members.len()));
        let set: std::collections::BTreeSet<_> = succ.iter().collect();
        prop_assert_eq!(set.len(), succ.len(), "successors must be distinct");
        if n >= 1 {
            prop_assert_eq!(ring.primary(UeId::new(key)), Some(succ[0]));
        }
    }

    /// Any add / remove sequence — re-adds and removals of absent ids
    /// included — leaves the flat table placing every key where the map did.
    #[test]
    fn flat_table_matches_the_map(ops in proptest::collection::vec((any::<bool>(), 0u64..12), 2..40),
                                  keys in proptest::collection::vec(any::<u64>(), 1..40),
                                  n in 0usize..14) {
        let mut ring = ConsistentRing::new();
        let mut map = MapRing::default();
        for (add, id) in ops {
            let cpf = CpfId::new(id);
            if add {
                ring.add(cpf);
                map.add(cpf);
            } else {
                ring.remove(cpf);
                map.remove(cpf);
            }
            for &k in &keys {
                let ue = UeId::new(k);
                let want = map.successors(ue, n);
                prop_assert_eq!(ring.primary(ue), map.successors(ue, 1).first().copied());
                prop_assert_eq!(ring.successors(ue, n).collect::<Vec<_>>(), want);
            }
        }
    }

    /// One bulk build, the same members added one by one in any order, and
    /// the build-free owner scan all agree.
    #[test]
    fn bulk_build_matches_incremental(members in proptest::collection::vec(0u64..500, 2..12),
                                      keys in proptest::collection::vec(any::<u64>(), 1..60),
                                      n in 0usize..14) {
        let members: Vec<CpfId> = members.into_iter().map(CpfId::new).collect();
        let bulk = ConsistentRing::from_members(members.iter().copied());
        let mut forward = ConsistentRing::new();
        let mut backward = ConsistentRing::new();
        for (&a, &b) in members.iter().zip(members.iter().rev()) {
            forward.add(a);
            backward.add(b);
        }
        prop_assert_eq!(bulk.members(), forward.members());
        for &k in &keys {
            let ue = UeId::new(k);
            let want: Vec<_> = bulk.successors(ue, n).collect();
            prop_assert_eq!(forward.successors(ue, n).collect::<Vec<_>>(), want.clone());
            prop_assert_eq!(backward.successors(ue, n).collect::<Vec<_>>(), want);
            prop_assert_eq!(ConsistentRing::primary_among(members.iter().copied(), ue), bulk.primary(ue));
        }
    }

    /// A ring stack's backups never include the primary and never include
    /// level-1 members while a level-2 ring exists.
    #[test]
    fn stack_placement(l1 in proptest::collection::hash_set(0u64..50, 1..6),
                       l2 in proptest::collection::hash_set(50u64..200, 0..12),
                       replicas in 0usize..4,
                       key in any::<u64>()) {
        let l1: Vec<CpfId> = l1.into_iter().map(CpfId::new).collect();
        let l2v: Vec<CpfId> = l2.into_iter().map(CpfId::new).collect();
        let stack = RingStack::new(&l1, &l2v, replicas);
        let ue = UeId::new(key);
        let primary = stack.primary(ue).unwrap();
        prop_assert!(l1.contains(&primary));
        let backups: Vec<_> = stack.backups(ue).collect();
        prop_assert!(backups.len() <= replicas);
        for b in &backups {
            prop_assert_ne!(*b, primary);
            if !l2v.is_empty() {
                prop_assert!(!l1.contains(b), "backup {} must be in level 2", b);
            }
        }
    }

    /// Geohash parent/child and containment laws.
    #[test]
    fn geohash_laws(lon in -179.9f64..179.9, lat in -89.9f64..89.9, len in 1u8..20) {
        let h = GeoHash::encode(lon, lat, len);
        prop_assert_eq!(h.len(), len);
        // Encode is idempotent on the cell center.
        let (clon, clat) = h.center();
        prop_assert_eq!(GeoHash::encode(clon, clat, len), h);
        // parent contains child; child(c).parent() round-trips.
        if let Some(p) = h.parent() {
            prop_assert!(p.contains(&h));
            prop_assert!(!h.contains(&p));
        }
        for c in 0..4 {
            if len < GeoHash::MAX_LEN {
                let child = h.child(c);
                prop_assert_eq!(child.parent(), Some(h));
                prop_assert!(h.contains(&child));
            }
        }
    }
}
