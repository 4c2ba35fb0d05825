//! Per-node service statistics.

use neutrino_common::time::Duration;
use serde::{Deserialize, Serialize};

/// Counters the engine maintains for every node.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NodeStats {
    /// Messages fully serviced.
    pub processed: u64,
    /// Messages dropped because the node was down.
    pub dropped_down: u64,
    /// Messages discarded from the queue by a crash.
    pub dropped_crash: u64,
    /// Total time messages spent waiting in the queue (not being serviced).
    pub total_wait: Duration,
    /// Total busy time across all cores.
    pub busy: Duration,
    /// Largest queue depth observed.
    pub max_queue_depth: usize,
    /// Timers fired.
    pub timers: u64,
}

impl NodeStats {
    /// Mean queueing delay per processed message.
    pub fn mean_wait(&self) -> Duration {
        self.total_wait
            .as_nanos()
            .checked_div(self.processed)
            .map(Duration::from_nanos)
            .unwrap_or(Duration::ZERO)
    }
}

/// Engine-level counters: how much work the simulator itself did, as
/// opposed to what happens inside the simulated time line. All of them are
/// deterministic except `allocs`, which depends on the host allocator;
/// none is a host time — a caller that wants events/s times `run_until`
/// itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events popped from the queue since the simulation was created.
    pub events_processed: u64,
    /// Transmissions dropped by the fault layer's loss probability.
    pub dropped_loss: u64,
    /// Transmissions dropped inside a partition window.
    pub dropped_partition: u64,
    /// Extra copies delivered by the fault layer's duplication draw.
    pub duplicated: u64,
    /// Transmissions held back by the fault layer's reorder draw.
    pub reordered: u64,
    /// Deliveries addressed to a node id that was never registered. Always
    /// zero in a correctly wired cluster — nonzero means misrouting.
    pub dropped_unroutable: u64,
    /// Largest per-node queue depth observed anywhere in the simulation —
    /// the quantity the overload-control `bounded-queue` invariant caps.
    pub max_queue_depth: usize,
    /// Peak number of simultaneously scheduled events in the calendar
    /// queue (scheduler pressure, distinct from per-node backlog above).
    pub max_sched_depth: u64,
    /// Heap allocations observed during `run_until`,
    /// when the running binary installs a counting allocator that reports
    /// into [`crate::alloc_count`]; 0 otherwise.
    pub allocs: u64,
    /// Message bodies the engine holds right now: scheduled deliveries,
    /// queued and in-service messages. 0 once a run has drained; anything
    /// else after a drain is a leaked slot.
    pub in_flight: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_wait_handles_empty() {
        let s = NodeStats::default();
        assert_eq!(s.mean_wait(), Duration::ZERO);
    }

    #[test]
    fn mean_wait_divides() {
        let s = NodeStats {
            processed: 4,
            total_wait: Duration::from_micros(40),
            ..NodeStats::default()
        };
        assert_eq!(s.mean_wait(), Duration::from_micros(10));
    }
}
