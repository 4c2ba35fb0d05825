//! Thread-local recycled byte buffers for the encode/framing hot path.
//!
//! Every control message that crosses a wire needs a temporary `Vec<u8>`:
//! the envelope payload inside a frame, the state snapshot inside a
//! `StateSync`, the frame itself on a transport that only needs to borrow
//! it. Allocating those per message is the kind of steady-state churn the
//! paper's DPDK pipeline avoids by design; this module gives the same
//! effect in safe Rust with a small per-thread pool of retained buffers.
//!
//! Usage is scoped so buffers cannot leak out with stale contents:
//!
//! ```
//! let frame_len = neutrino_codec::scratch::with_buf(|buf| {
//!     buf.extend_from_slice(b"frame bytes");
//!     buf.len()
//! });
//! assert_eq!(frame_len, 11);
//! ```
//!
//! The closure receives an empty (cleared, capacity-retaining) buffer and
//! may return anything *derived* from it, but not the buffer itself. Nested
//! calls get distinct buffers, so an encoder that needs a payload scratch
//! inside a frame scratch composes naturally. Pool residency is bounded:
//! at most `MAX_POOLED` (8) buffers per thread, and buffers that grew beyond
//! `MAX_RETAINED_CAP` are dropped rather than hoarded.

use std::cell::RefCell;

/// Maximum buffers retained per thread.
const MAX_POOLED: usize = 8;

/// A buffer that grew beyond this many bytes is freed, not pooled, so one
/// pathological message cannot pin large capacity forever.
const MAX_RETAINED_CAP: usize = 1 << 16;

thread_local! {
    static POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a cleared scratch buffer drawn from the thread-local pool,
/// returning the buffer to the pool afterwards (unless `f` panics, in which
/// case the buffer is simply dropped — the pool never holds a poisoned
/// state).
pub fn with_buf<R>(f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    let mut buf = POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_default();
    buf.clear();
    let out = f(&mut buf);
    if buf.capacity() <= MAX_RETAINED_CAP {
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < MAX_POOLED {
                pool.push(buf);
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_arrives_empty_and_capacity_is_reused() {
        let cap = with_buf(|b| {
            b.extend_from_slice(&[1, 2, 3, 4]);
            b.capacity()
        });
        assert!(cap >= 4);
        with_buf(|b| {
            assert!(b.is_empty(), "stale contents must be cleared");
            assert!(b.capacity() >= 4, "capacity must be recycled");
        });
    }

    #[test]
    fn nested_calls_get_distinct_buffers() {
        with_buf(|outer| {
            outer.push(0xAA);
            with_buf(|inner| {
                assert!(inner.is_empty());
                inner.push(0xBB);
            });
            assert_eq!(outer.as_slice(), &[0xAA], "inner call must not alias");
        });
    }

    #[test]
    fn oversized_buffers_are_not_hoarded() {
        with_buf(|b| b.reserve(MAX_RETAINED_CAP + 1));
        // The pool must still hand out working buffers afterwards.
        with_buf(|b| {
            b.push(1);
            assert_eq!(b.len(), 1);
        });
    }
}
