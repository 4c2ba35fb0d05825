//! The counting global allocator behind `sim.allocs_per_event` and
//! `pump.allocs_per_msg`: the one module of this package with `unsafe`.
//!
//! It forwards every call to the system allocator. While counting is on
//! (traced runs only) each allocation is also reported to
//! `neutrino_netsim::alloc_count`, the counter the engine already samples
//! around `run_until`. With counting off the cost is one relaxed load per
//! allocation, the same on every commit measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

// A statistic switch: it publishes no other data, so `Relaxed` suffices.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// Turns allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far (monotonic; callers take differences).
pub fn count() -> u64 {
    neutrino_netsim::alloc_count::current()
}

struct CountingAlloc;

#[inline]
fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        neutrino_netsim::alloc_count::record(1);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` touches only two atomics and
// never allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    // Forwarded so zeroed allocations keep the system allocator's `calloc`
    // path rather than the trait's allocate-then-memset default.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // this `layout`, and this allocator only ever hands out `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that moves is a fresh allocation as far as pressure
        // goes; count it like one, as `crates/bench` does.
        note();
        // SAFETY: as for `dealloc`, plus the caller's guarantee that
        // `new_size` is non-zero and does not overflow `isize`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
