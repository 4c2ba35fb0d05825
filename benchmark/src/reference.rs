//! The reference chunk: a fixed millisecond of work, owned by the benchmark
//! and independent of the repository's code, timed before every repeat to
//! tell how fast the host is running right then.
//!
//! This host is shared, and for minutes at a time the same binary runs
//! 15-30 % slower as a whole; no statistic over the repeats of one run can
//! see that. The slow stretches leave a register-only loop unmoved and slow
//! ordered-map churn with small heap allocations by the share they slow the
//! measured workloads (README, *Steadiness*, has the numbers), so that is the
//! reference, and the `*_ref_*` end-to-end metrics are host time scaled by
//! the speed it shows.

use crate::stats;
use crate::workload::splitmix64;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The unit: at speed 1.0 one chunk takes this long. A time "at reference
/// speed" is what the stopwatch would read on a host where it does.
const NOMINAL_CHUNK_S: f64 = 0.001;

const CHUNKS_PER_SAMPLE: usize = 25;
const ENTRIES: usize = 20_000;
const OPS_PER_CHUNK: usize = 2_000;
const KEY_SPACE: u64 = 1_000_000_007;

pub struct Reference {
    map: BTreeMap<u64, Box<[u64; 4]>>,
    /// The keys now in `map`, so that a uniformly random one can be removed:
    /// the map's shape then stays statistically the same for ever.
    keys: Vec<u64>,
    rng: u64,
}

impl Reference {
    pub fn new() -> Self {
        let mut r = Reference {
            map: BTreeMap::new(),
            keys: Vec::with_capacity(ENTRIES),
            rng: 0xC0FFEE,
        };
        while r.keys.len() < ENTRIES {
            let k = r.fresh_key();
            r.map.insert(k, Box::new([k; 4]));
            r.keys.push(k);
        }
        r
    }

    fn fresh_key(&mut self) -> u64 {
        loop {
            let k = splitmix64(&mut self.rng) % KEY_SPACE;
            if !self.map.contains_key(&k) {
                return k;
            }
        }
    }

    /// The host's speed right now: nominal chunk time over the median of
    /// [`CHUNKS_PER_SAMPLE`] chunks, each replacing [`OPS_PER_CHUNK`] random
    /// entries. Call it right before the work whose speed it stands for.
    pub fn speed(&mut self) -> f64 {
        let mut chunk_s = [0.0; CHUNKS_PER_SAMPLE];
        for slot in &mut chunk_s {
            let start = Instant::now();
            let mut sum = 0u64;
            for _ in 0..OPS_PER_CHUNK {
                let i = (splitmix64(&mut self.rng) % ENTRIES as u64) as usize;
                if let Some(old) = self.map.remove(&self.keys[i]) {
                    sum = sum.wrapping_add(old[1]);
                }
                let k = self.fresh_key();
                self.map.insert(k, Box::new([k; 4]));
                self.keys[i] = k;
            }
            black_box(sum);
            *slot = start.elapsed().as_secs_f64();
        }
        NOMINAL_CHUNK_S / stats::median(&chunk_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference must do the same work at every call: its map keeps its
    /// size and the key list keeps naming exactly the map's keys.
    #[test]
    fn sampling_leaves_the_map_statistically_unchanged() {
        let mut r = Reference::new();
        for _ in 0..3 {
            assert!(r.speed() > 0.0);
        }
        assert_eq!(r.map.len(), ENTRIES);
        assert!(r.keys.iter().all(|k| r.map.contains_key(k)));
        // Removal is uniform over the keys, so the smallest key does not
        // creep upwards as it would under pop-the-minimum churn.
        let min = *r.map.keys().next().expect("non-empty");
        assert!(min < KEY_SPACE / 100, "smallest key {min}");
    }
}
