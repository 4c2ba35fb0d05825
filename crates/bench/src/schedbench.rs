//! Scheduler microbench drivers: calendar-queue wheel vs. binary-heap
//! reference on a shared deterministic workload.
//!
//! `benchmark/` times these drivers for its
//! `netsim.{wheel,heap}_ns_per_op.*` metrics, so both columns come from
//! the identical push/pop schedule.

use neutrino_common::rng::splitmix64_next;
use neutrino_common::time::Instant;
use neutrino_netsim::{ReferenceHeap, SchedKey, Wheel};

/// An engine-like delay mix, matching what the figure workloads schedule:
/// mostly sub-millisecond hops, some ACK/paging timers in the tens-of-ms
/// band, a few zero-delay self-sends, and a 1% tail of seconds-scale
/// timers (log-pruning scans). Correctness for pathological far-future
/// delays is covered by the order-equivalence proptest, not timed here.
fn next_delay(rng: &mut u64) -> u64 {
    match splitmix64_next(rng) % 100 {
        0..=4 => 0,                                            // same-instant self-send
        5..=91 => splitmix64_next(rng) % 2_000_000,            // < 2 ms hop
        92..=98 => splitmix64_next(rng) % 200_000_000,         // < 200 ms timer
        _ => 1_000_000_000 + splitmix64_next(rng) % (1 << 39), // seconds-scale timer
    }
}

/// Drives `total` push+pop pairs with `pending` keys resident, like the
/// engine does: every pop schedules a successor. Returns a checksum so
/// the work cannot be optimized away.
pub fn drive_wheel(total: u64, pending: u64) -> u64 {
    let mut w: Wheel<u64> = Wheel::new();
    let mut rng = 0x5EED_u64;
    let mut seq = 0u64;
    for _ in 0..pending {
        let at = Instant::from_nanos(next_delay(&mut rng));
        w.push(SchedKey { at, seq }, seq);
        seq += 1;
    }
    let mut sum = 0u64;
    for _ in 0..total {
        let (key, v) = w.pop().expect("pending keys resident");
        sum = sum.wrapping_add(key.at.as_nanos()).wrapping_add(v);
        let at = Instant::from_nanos(key.at.as_nanos() + next_delay(&mut rng));
        w.push(SchedKey { at, seq }, seq);
        seq += 1;
    }
    sum
}

/// The same workload through the binary-heap reference implementation.
pub fn drive_heap(total: u64, pending: u64) -> u64 {
    let mut h: ReferenceHeap<u64> = ReferenceHeap::new();
    let mut rng = 0x5EED_u64;
    let mut seq = 0u64;
    for _ in 0..pending {
        let at = Instant::from_nanos(next_delay(&mut rng));
        h.push(SchedKey { at, seq }, seq);
        seq += 1;
    }
    let mut sum = 0u64;
    for _ in 0..total {
        let (key, v) = h.pop().expect("pending keys resident");
        sum = sum.wrapping_add(key.at.as_nanos()).wrapping_add(v);
        let at = Instant::from_nanos(key.at.as_nanos() + next_delay(&mut rng));
        h.push(SchedKey { at, seq }, seq);
        seq += 1;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_and_heap_checksums_agree() {
        for pending in [1, 64, 4096] {
            assert_eq!(drive_wheel(20_000, pending), drive_heap(20_000, pending));
        }
    }
}
