//! Process-wide allocation counter hook for the allocs-per-event metric.
//!
//! This crate forbids `unsafe`, so the counting `GlobalAlloc` wrapper
//! lives with whichever binary measures (today
//! `benchmark/src/alloc_meter.rs`); it reports every allocation here. The
//! engine samples the counter around its dispatch loop (two relaxed loads
//! per `run_until` call) and surfaces the delta as
//! [`crate::SimStats::allocs`]. Without a counting allocator installed
//! the counter stays at zero and the metric reads 0.
//!
//! The counter never feeds simulated state — it is observability-only.

use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Records `n` heap allocations. Called by a counting global allocator.
#[inline]
pub fn record(n: u64) {
    ALLOCS.fetch_add(n, Ordering::Relaxed);
}

/// Current process-wide allocation count (monotonic; callers diff it).
#[inline]
pub fn current() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
