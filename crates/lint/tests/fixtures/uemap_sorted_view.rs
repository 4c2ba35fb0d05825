// Fixture: per-UE state in a `UeMap` is walked through `iter_sorted()` (and
// the order-free `values_mut()`) and is clean; the raw `.iter()` on the
// `HashMap` field (line 19) still fires.
use neutrino_common::{UeId, UeMap};
use std::collections::HashMap;
pub struct Role {
    ues: UeMap<u32>,
    by_name: HashMap<String, u32>,
}
impl Role {
    pub fn audit(&self) -> Vec<(UeId, u32)> {
        self.ues.iter_sorted().map(|(ue, v)| (*ue, *v)).collect()
    }
    pub fn reset(&mut self) {
        self.ues.values_mut().for_each(|v| *v = 0);
    }
    pub fn names(&self) -> Vec<&String> {
        self.by_name
            .iter()
            .map(|(name, _)| name)
            .collect()
    }
}
