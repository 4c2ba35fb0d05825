//! The live heap of a 4 000-UE attach burst whose UEs each leave their
//! 120 s retry timers pending after they complete (the Fig. 9 storm of
//! `sim_burst`, a tenth the size).
//!
//! Two pins on the heap the run's own thread holds, counted by a recording
//! allocator from the requested sizes, so they read the same on any host:
//!
//! * the peak live bytes per UE, which grows if the level-3 cascade of the
//!   stale timers holds the wave twice (the drained bucket kept beside the
//!   level-2 buckets it fills), if a per-UE table doubles instead of
//!   growing by chunks, or if its index words widen past 4 bytes;
//! * the live bytes once the last stale timer has fired are no higher than
//!   before the cascade: buckets above wheel level 1 keep no capacity.
//!
//! The counts are per thread, so nothing else the harness runs disturbs them.

use neutrino_common::time::{Duration, Instant};
use neutrino_common::UeId;
use neutrino_core::experiment::{advance, build, finish, ExperimentSpec};
use neutrino_core::uepop::Arrival;
use neutrino_core::{SystemConfig, Workload};
use neutrino_messages::procedures::ProcedureKind;

/// Live bytes this thread holds, and the most it has held.
mod live_heap {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static LIVE: Cell<i64> = const { Cell::new(0) };
        static PEAK: Cell<i64> = const { Cell::new(0) };
    }

    fn grow(by: i64) {
        LIVE.with(|l| {
            let now = l.get() + by;
            l.set(now);
            PEAK.with(|p| p.set(p.get().max(now)));
        });
    }

    pub struct Recording;

    // SAFETY: every call is passed through to `System` unchanged; the only
    // addition is a write to two const-initialised, destructor-free
    // thread-locals, which neither allocates nor re-enters the allocator.
    unsafe impl GlobalAlloc for Recording {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            grow(layout.size() as i64);
            // SAFETY: `layout` is the caller's, forwarded as is.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            grow(-(layout.size() as i64));
            // SAFETY: `ptr` came from `System.alloc` with this `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            grow(new_size as i64 - layout.size() as i64);
            // SAFETY: `ptr` came from `System.alloc` with this `layout`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// Bytes this thread holds now.
    pub fn live() -> i64 {
        LIVE.with(Cell::get)
    }

    /// The most this thread has held since the last `reset_peak`.
    pub fn peak() -> i64 {
        PEAK.with(Cell::get)
    }

    pub fn reset_peak() {
        PEAK.with(|p| p.set(live()));
    }
}

#[global_allocator]
static ALLOCATOR: live_heap::Recording = live_heap::Recording;

const UES: u64 = 4_000;

/// Peak live bytes per UE over the run, as measured with chunked per-UE
/// tables indexed by 4-byte words and a far cascade that frees what it
/// drains. 8-byte index words read 1 537 (+3.3 %) and doubling tables with
/// a cascade that keeps its buckets 1 700, both outside the 2 % band.
const PEAK_BYTES_PER_UE: i64 = 1_488;

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn a_burst_holds_each_pending_timer_once() {
    let base = live_heap::live();
    live_heap::reset_peak();
    // `trafficgen::bursty_attach`'s shape: UE `i` attaches at
    // `start + i·window/N`.
    let step = Duration::from_millis(100).as_nanos() / UES;
    let burst = (0..UES).map(move |i| Arrival {
        at: Instant::from_millis(10) + Duration::from_nanos(i * step),
        ue: UeId::new(1 + i),
        kind: ProcedureKind::InitialAttach,
    });
    let mut spec = ExperimentSpec::new(SystemConfig::neutrino(), Workload::new(burst));
    spec.uecfg.retry_timeout = Duration::from_secs(120);
    spec.horizon = Duration::from_secs(122);
    let mut cluster = build(spec);
    // The retry timers, due ≈ 120.0–120.4 s, sit in the level-3 slot that
    // cascades at 27 · 2^32 ns ≈ 115.96 s.
    advance(&mut cluster, Instant::from_secs(115));
    let before = live_heap::live() - base;
    advance(&mut cluster, Instant::from_secs(121));
    let after = live_heap::live() - base;
    let per_ue = (live_heap::peak() - base) / UES as i64;
    let results = finish(cluster, None);
    assert_eq!(results.completed, UES, "every UE attached");
    assert_eq!(results.retransmissions, 0, "every retry timer went stale");
    assert!(
        (per_ue - PEAK_BYTES_PER_UE).abs() * 50 <= PEAK_BYTES_PER_UE,
        "peak live heap {per_ue} B per UE, pinned at {PEAK_BYTES_PER_UE} ± 2 %"
    );
    assert!(
        after <= before,
        "the stale timers' cascade left {} B behind ({before} B live before it, {after} B after)",
        after - before
    );
}
