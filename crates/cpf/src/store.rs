//! The per-CPF UE state store.

use neutrino_common::clock::ClockTick;
use neutrino_common::uemap::Entry;
use neutrino_common::{mutant, UeId, UeMap};
use neutrino_messages::Snapshot;

/// Whether a stored UE state may serve traffic (§4.2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// Safe to serve.
    UpToDate,
    /// Marked outdated by the CTA; serving would violate Read-your-Writes.
    /// The payload is the clock at/below which incoming state syncs must be
    /// ignored ("used to ignore the reception of outdated state").
    Outdated(ClockTick),
}

/// One UE's entry in a CPF's store.
#[derive(Debug, Clone)]
pub struct UeRecord {
    /// The replicated state. Shared with the checkpoints sent from it and
    /// the replica stores that adopted them: mutate only through
    /// [`Snapshot::make_mut`], which copies if (and only if) someone else
    /// still holds this version. At a replica it is the image the
    /// checkpoint arrived as, unread until the replica serves the UE.
    pub state: Snapshot,
    /// Whether it may serve traffic.
    pub freshness: Freshness,
}

/// Makes `state` the up-to-date record behind `entry`.
fn install(entry: Entry<'_, UeRecord>, state: Snapshot) -> &mut UeRecord {
    let fresh = UeRecord {
        state,
        freshness: Freshness::UpToDate,
    };
    match entry {
        Entry::Occupied(rec) => {
            *rec = fresh;
            rec
        }
        Entry::Vacant(slot) => slot.insert(fresh),
    }
}

/// The store: UE id → record.
#[derive(Debug, Default)]
pub struct StateStore {
    records: UeMap<UeRecord>,
    /// The planted mutant, from [`CpfConfig::mutant`](crate::CpfConfig::mutant).
    #[cfg(feature = "test-support")]
    pub(crate) mutant: Option<neutrino_common::Mutant>,
}

impl StateStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of UEs held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no UE is held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Read access.
    pub fn get(&self, ue: UeId) -> Option<&UeRecord> {
        self.records.get(ue)
    }

    /// Read-only iteration over every held record, in ascending [`UeId`]
    /// order — the order the audit and the `check` oracles report in.
    pub fn iter(&self) -> impl Iterator<Item = (&UeId, &UeRecord)> {
        self.records.iter_sorted()
    }

    /// Write access.
    pub fn get_mut(&mut self, ue: UeId) -> Option<&mut UeRecord> {
        self.records.get_mut(ue)
    }

    /// Installs fresh state (attach, promotion, or accepted sync) and hands
    /// back the record it now lives in.
    pub fn put(&mut self, state: Snapshot) -> &mut UeRecord {
        install(self.records.entry(state.ue()), state)
    }

    /// Applies an incoming state sync: adopted unless the record was marked
    /// outdated at a clock at/after the sync's (stale checkpoint from a dead
    /// primary). Returns whether the sync was adopted.
    pub fn apply_sync(&mut self, state: Snapshot, end_clock: ClockTick) -> bool {
        let entry = self.records.entry(state.ue());
        if let Entry::Occupied(rec) = &entry {
            if let Freshness::Outdated(at) = rec.freshness {
                if mutant!(self.mutant, AdoptBelowOutdatedMark => false; end_clock <= at) {
                    return false; // §4.2.4: ignore outdated state
                }
            }
            // Never regress to an older version.
            if mutant!(self.mutant, NoVersionGuard => false; state.version() < rec.state.version())
            {
                return false;
            }
        }
        install(entry, state);
        true
    }

    /// Marks a UE outdated (§4.2.4 step 1b). No-op if the CPF holds nothing
    /// for the UE (it then simply has no state, which is equally unservable).
    pub fn mark_outdated(&mut self, ue: UeId, clock: ClockTick) {
        if let Some(rec) = self.records.get_mut(ue) {
            rec.freshness = Freshness::Outdated(clock);
        }
    }

    /// Removes a UE (detach).
    pub fn remove(&mut self, ue: UeId) -> Option<UeRecord> {
        self.records.remove(ue)
    }

    /// True when the CPF may serve this UE's traffic.
    pub fn servable(&self, ue: UeId) -> bool {
        matches!(
            self.records.get(ue),
            Some(UeRecord {
                freshness: Freshness::UpToDate,
                ..
            })
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutrino_common::{BsId, ProcedureId, UpfId};
    use neutrino_messages::ies::Tai;
    use neutrino_messages::state::{StateVersion, UeState};
    use neutrino_messages::Wire;

    fn state(ue: u64, proc: u64, clock: u64) -> Snapshot {
        let mut s = UeState::new(UeId::new(ue), BsId::new(0), UpfId::new(0), Tai::sample(0));
        s.version = StateVersion {
            procedure: ProcedureId::new(proc),
            clock: ClockTick(clock),
        };
        Snapshot::from(s)
    }

    #[test]
    fn put_makes_servable() {
        let mut store = StateStore::new();
        assert!(!store.servable(UeId::new(1)));
        store.put(state(1, 1, 5));
        assert!(store.servable(UeId::new(1)));
    }

    #[test]
    fn outdated_blocks_serving_and_stale_syncs() {
        let mut store = StateStore::new();
        store.put(state(1, 1, 5));
        store.mark_outdated(UeId::new(1), ClockTick(10));
        assert!(!store.servable(UeId::new(1)));
        // A sync at or below the outdated clock is ignored...
        assert!(!store.apply_sync(state(1, 2, 10), ClockTick(10)));
        assert!(!store.servable(UeId::new(1)));
        // ...a later one is adopted and restores freshness.
        assert!(store.apply_sync(state(1, 2, 11), ClockTick(11)));
        assert!(store.servable(UeId::new(1)));
    }

    #[test]
    fn syncs_never_regress_versions() {
        let mut store = StateStore::new();
        store.put(state(1, 5, 50));
        assert!(!store.apply_sync(state(1, 3, 30), ClockTick(30)));
        assert_eq!(
            store.get(UeId::new(1)).unwrap().state.version().procedure,
            ProcedureId::new(5)
        );
    }

    #[test]
    fn remove_forgets() {
        let mut store = StateStore::new();
        store.put(state(1, 1, 1));
        assert!(store.remove(UeId::new(1)).is_some());
        assert!(!store.servable(UeId::new(1)));
        assert!(store.is_empty());
    }

    #[test]
    fn mark_outdated_without_state_is_noop() {
        let mut store = StateStore::new();
        store.mark_outdated(UeId::new(9), ClockTick(1));
        assert!(store.get(UeId::new(9)).is_none());
    }
}
