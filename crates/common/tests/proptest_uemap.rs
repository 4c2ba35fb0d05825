//! Property-based tests of `UeMap` against a `BTreeMap<UeId, V>` model:
//! random operation sequences leave the same contents, the sorted view is
//! the model's own iteration, and insertion order never shows.

use neutrino_common::uemap::Entry;
use neutrino_common::{UeId, UeMap};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert {
        ue: u64,
        value: u32,
    },
    Remove {
        ue: u64,
    },
    /// `entry`: bump the held value, or store `value`.
    Entry {
        ue: u64,
        value: u32,
    },
    GetMut {
        ue: u64,
        value: u32,
    },
    BumpAll,
}

/// Ids from a small dense pool (collisions, reuse after removal) and from
/// the whole `u64` range (the hash must not rely on small keys).
fn ue() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => 0u64..48,
        1 => any::<u64>(),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (ue(), any::<u32>()).prop_map(|(ue, value)| Op::Insert { ue, value }),
        3 => ue().prop_map(|ue| Op::Remove { ue }),
        2 => (ue(), any::<u32>()).prop_map(|(ue, value)| Op::Entry { ue, value }),
        2 => (ue(), any::<u32>()).prop_map(|(ue, value)| Op::GetMut { ue, value }),
        1 => Just(Op::BumpAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn agrees_with_a_btreemap_model(ops in proptest::collection::vec(op(), 1..400)) {
        let mut map: UeMap<u32> = UeMap::new();
        let mut model: BTreeMap<UeId, u32> = BTreeMap::new();
        for o in &ops {
            match *o {
                Op::Insert { ue, value } => {
                    let ue = UeId::new(ue);
                    prop_assert_eq!(map.insert(ue, value), model.insert(ue, value));
                }
                Op::Remove { ue } => {
                    let ue = UeId::new(ue);
                    prop_assert_eq!(map.remove(ue), model.remove(&ue));
                }
                Op::Entry { ue, value } => {
                    let ue = UeId::new(ue);
                    match map.entry(ue) {
                        Entry::Occupied(held) => *held = held.wrapping_add(1),
                        Entry::Vacant(vacant) => {
                            prop_assert_eq!(*vacant.insert(value), value);
                        }
                    }
                    model
                        .entry(ue)
                        .and_modify(|held| *held = held.wrapping_add(1))
                        .or_insert(value);
                }
                Op::GetMut { ue, value } => {
                    let ue = UeId::new(ue);
                    if let Some(held) = map.get_mut(ue) {
                        *held = value;
                    }
                    if let Some(held) = model.get_mut(&ue) {
                        *held = value;
                    }
                }
                Op::BumpAll => {
                    map.values_mut().for_each(|v| *v = v.wrapping_add(7));
                    model.values_mut().for_each(|v| *v = v.wrapping_add(7));
                }
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
        }
        // Same contents, and the sorted view is the model's iteration.
        prop_assert_eq!(
            map.iter_sorted().collect::<Vec<_>>(),
            model.iter().collect::<Vec<_>>()
        );
        for ue in (0..48).map(UeId::new) {
            prop_assert_eq!(map.get(ue), model.get(&ue));
            prop_assert_eq!(map.contains_key(ue), model.contains_key(&ue));
        }
    }

    #[test]
    fn insertion_order_never_shows(
        ues in proptest::collection::hash_set(ue(), 0..200),
        rotate in any::<proptest::sample::Index>(),
    ) {
        let forward: Vec<u64> = ues.into_iter().collect();
        let mut other = forward.clone();
        other.reverse();
        let by = rotate.index(other.len().max(1));
        other.rotate_left(by);
        let fill = |order: &[u64]| {
            let mut map = UeMap::new();
            for &ue in order {
                map.insert(UeId::new(ue), ue ^ 0x5a);
            }
            map
        };
        let (a, b) = (fill(&forward), fill(&other));
        prop_assert_eq!(
            a.iter_sorted().collect::<Vec<_>>(),
            b.iter_sorted().collect::<Vec<_>>()
        );
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
