//! Order-equivalence property: the calendar-queue wheel dispatches in
//! exactly the `(at, seq)` order of the binary-heap reference, over
//! arbitrary interleavings of pushes and pops.
//!
//! This is the wheel's whole contract — the engine swapped its
//! `BinaryHeap` for `Wheel` on the promise that no golden, corpus
//! replay, or `--jobs` identity could observe the difference. The
//! generators deliberately stress the wheel's internal regimes: exact
//! ties in `at` (broken by `seq`), zero-delay self-sends landing on the
//! cursor tick (the spill path), sub-tick timestamps, far-future delays
//! beyond the wheel span (the `far` overflow heap plus re-admission
//! clamping), and pushes issued *after* pops have advanced the cursor.

use neutrino_common::time::Instant;
use neutrino_netsim::{ReferenceHeap, SchedKey, Wheel};
use proptest::prelude::*;

/// A delay drawn from every regime the wheel treats differently.
fn delay_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),                          // same-instant self-send
        1u64..256,                           // sub-tick (one 256 ns tick)
        256u64..2_000_000,                   // near-future hop
        2_000_000u64..200_000_000,           // timer band
        200_000_000u64..(1u64 << 41),        // around the wheel span (2^40 ns)
        (1u64 << 41)..(1u64 << 50),          // deep overflow territory
        // Far delays whose admission tick (event tick minus span-1) lands
        // exactly on a slot-block boundary: the admit clamp must yield to
        // the boundary cascade on equality, not jump past it.
        (1u64..1 << 16).prop_map(|k| ((k << 8) + ((1u64 << 32) - 1)) << 8),
    ]
}

/// One scripted scheduler operation: push an event `delay` ns after the
/// key of the most recent pop (engine-style successor scheduling), or
/// pop the minimum.
#[derive(Clone, Debug)]
enum Op {
    Push { delay: u64 },
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => delay_strategy().prop_map(|delay| Op::Push { delay }),
        2 => Just(Op::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Replaying an arbitrary op script through the wheel and the
    /// reference heap yields identical pop sequences, identical
    /// `min_key` answers before every op, and identical
    /// residual drain order at the end.
    #[test]
    fn wheel_matches_reference_heap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut wheel: Wheel<u64> = Wheel::new();
        let mut heap: ReferenceHeap<u64> = ReferenceHeap::new();
        let mut seq = 0u64;
        let mut base = 0u64; // at-nanos of the latest pop (cursor proxy)
        for op in &ops {
            prop_assert_eq!(wheel.min_key(), heap.peek_key());
            match *op {
                Op::Push { delay } => {
                    let key = SchedKey {
                        at: Instant::from_nanos(base.saturating_add(delay)),
                        seq,
                    };
                    wheel.push(key, seq);
                    heap.push(key, seq);
                    seq += 1;
                }
                Op::Pop => {
                    let got = wheel.pop();
                    let want = heap.pop();
                    prop_assert_eq!(got, want);
                    if let Some((k, _)) = got {
                        base = k.at.as_nanos();
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        // Drain what remains: the full residual orders must agree too.
        while let Some(want) = heap.pop() {
            prop_assert_eq!(wheel.pop(), Some(want));
        }
        prop_assert!(wheel.is_empty());
    }

    /// Ties in `at` are broken strictly by `seq`, in both directions of
    /// insertion order, including many-way ties on one instant.
    #[test]
    fn ties_dispatch_in_seq_order(
        at_us in proptest::collection::vec(0u64..50, 2..40),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let mut keys: Vec<SchedKey> = at_us
            .iter()
            .enumerate()
            .map(|(i, &us)| SchedKey { at: Instant::from_micros(us), seq: i as u64 })
            .collect();
        // Deterministic Fisher-Yates on a splitmix stream so insertion
        // order is decoupled from dispatch order.
        let mut state = shuffle_seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in (1..keys.len()).rev() {
            keys.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let mut wheel: Wheel<u64> = Wheel::new();
        for k in &keys {
            wheel.push(*k, k.seq);
        }
        let mut sorted = keys.clone();
        sorted.sort();
        for want in sorted {
            let (k, v) = wheel.pop().expect("len matches pushes");
            prop_assert_eq!(k, want);
            prop_assert_eq!(v, want.seq);
        }
        prop_assert!(wheel.is_empty());
    }
}

/// One scripted operation for the deadline pop: push as in [`Op`], or
/// `pop_due` at a deadline `offset` ns after (or, with `behind`, before)
/// the key of the most recent pop.
#[derive(Clone, Debug)]
enum DueOp {
    Push { delay: u64 },
    PopDue { offset: u64, behind: bool },
}

fn due_op_strategy() -> impl Strategy<Value = DueOp> {
    prop_oneof![
        3 => delay_strategy().prop_map(|delay| DueOp::Push { delay }),
        3 => (delay_strategy(), any::<bool>())
            .prop_map(|(offset, behind)| DueOp::PopDue { offset, behind }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `pop_due` at an arbitrary deadline pops a due head with the
    /// reference heap's key, and on a head past the deadline returns
    /// `None` and removes nothing: the two schedulers agree on every later
    /// pop and on the residual drain.
    #[test]
    fn pop_due_matches_reference_heap(ops in proptest::collection::vec(due_op_strategy(), 1..200)) {
        let mut wheel: Wheel<u64> = Wheel::new();
        let mut heap: ReferenceHeap<u64> = ReferenceHeap::new();
        let mut seq = 0u64;
        let mut base = 0u64;
        for op in &ops {
            match *op {
                DueOp::Push { delay } => {
                    let key = SchedKey {
                        at: Instant::from_nanos(base.saturating_add(delay)),
                        seq,
                    };
                    wheel.push(key, seq);
                    heap.push(key, seq);
                    seq += 1;
                }
                DueOp::PopDue { offset, behind } => {
                    let deadline = if behind {
                        base.saturating_sub(offset)
                    } else {
                        base.saturating_add(offset)
                    };
                    let deadline = Instant::from_nanos(deadline);
                    let got = wheel.pop_due(deadline);
                    if heap.peek_key().is_some_and(|k| k.at <= deadline) {
                        let want = heap.pop();
                        prop_assert_eq!(got, want);
                    } else {
                        prop_assert_eq!(got, None);
                    }
                    if let Some((k, _)) = got {
                        base = k.at.as_nanos();
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.min_key(), heap.peek_key());
        }
        while let Some(want) = heap.pop() {
            prop_assert_eq!(wheel.pop(), Some(want));
        }
        prop_assert!(wheel.is_empty());
    }
}

/// Runs a ring through the wheel and the reference heap side by side and
/// demands the same pop sequence. `tokens` events start on one instant;
/// each one popped is re-sent one hop later, alternately 3 µs (a direct
/// level-0 push) and 100 µs (through a level-1 cascade), so a tick holds
/// all `tokens` events, filled in key order — the shape of the engine's
/// bare rings, whose activations need no sort. With `jitter`, each re-send
/// adds a sub-tick offset that varies with token and hop, so ticks fill
/// out of key order and activation must sort them. Every fourth token also
/// echoes itself with zero delay every third hop (a spill push while its
/// tick drains), and every eighth re-send arms a 2 s and a 120 s timer
/// (level 2 and level 3), which cascade down past the ring's ticks.
fn assert_ring_matches_reference(tokens: u64, hops: u64, jitter: bool) {
    const ECHO: u64 = 1 << 32;
    const TIMER: u64 = 1 << 33;
    let mut wheel: Wheel<(u64, u64)> = Wheel::new();
    let mut heap: ReferenceHeap<(u64, u64)> = ReferenceHeap::new();
    let mut seq = 0u64;
    // Pushes due this step, as `(at, (token, hop))`, fed to both schedulers.
    let mut sends: Vec<(u64, (u64, u64))> = (0..tokens).map(|t| (1_000, (t, 0))).collect();
    let mut pops = 0u64;
    loop {
        for &(at, item) in &sends {
            let key = SchedKey {
                at: Instant::from_nanos(at),
                seq,
            };
            wheel.push(key, item);
            heap.push(key, item);
            seq += 1;
        }
        sends.clear();
        let Some(want) = heap.pop() else { break };
        assert_eq!(
            wheel.pop(),
            Some(want),
            "ring of {tokens} (jitter {jitter}) diverged at pop {pops}"
        );
        pops += 1;
        let (key, (token, hop)) = want;
        let at = key.at.as_nanos();
        if token >= ECHO || hop == hops {
            continue;
        }
        let mut delay = if hop % 2 == 0 { 3_000 } else { 100_000 };
        if jitter {
            delay += (token * 37 + hop * 101) % 200;
        }
        sends.push((at + delay, (token, hop + 1)));
        if token % 4 == 0 && hop % 3 == 0 {
            sends.push((at, (ECHO | token, hop)));
        }
        if (token + hop) % 8 == 0 {
            sends.push((at + 2_000_000_000, (TIMER | token, hop)));
            sends.push((at + 120_000_000_000, (TIMER | token, hop)));
        }
    }
    assert!(wheel.is_empty());
    assert!(pops > tokens * hops, "the ring ran {pops} pops");
}

/// Ring-shaped schedules, in key order and jittered out of it, with ticks
/// of ≤ 20 and of > 20 events (the two regimes of the slice sort that
/// activation falls back on), match the reference heap.
#[test]
fn ring_schedules_match_reference_heap() {
    for tokens in [16, 128] {
        for jitter in [false, true] {
            assert_ring_matches_reference(tokens, 120, jitter);
        }
    }
}
