//! Engine trace pin: one fixed mixed schedule on `Sim<u64>`, folded into a
//! single FNV-1a hash.
//!
//! Every delivery-tap call `(at, from, to, msg)` and every handled timer
//! `(node, at, id)` goes into the hash, in the order the engine produces
//! them. The schedule exercises each event kind at its edges: injections
//! from [`NodeId::EXTERNAL`], jittered and occasionally duplicated links, a
//! 4-core node completing jobs out of submission order, timers whose ids
//! are at and above 2^32 (up to `u64::MAX`), and one crash mid-run. A
//! change to how the engine stores, orders or decodes an event moves the
//! hash; the figure goldens pin the same property only through the whole
//! protocol stack.

use neutrino_common::time::{Duration, Instant};
use neutrino_netsim::{
    FaultSpec, LinkSpec, Links, Node, NodeEvent, NodeId, Outbox, Sim, SimConfig,
};
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What the run saw, shared by the tap and the nodes.
struct Trace {
    fnv: Fnv,
    deliveries: u64,
    timers: u64,
    big_timers: u64,
}

type Shared = Rc<RefCell<Trace>>;

const NODES: u64 = 6;
/// The node with four cores.
const WIDE: u64 = 2;
/// The node that crashes mid-run.
const VICTIM: u64 = 4;

/// Forwards a message while its low byte (a hop budget) lasts, and arms a
/// timer on some of them; a fired timer with a small id starts a new
/// message whose budget (3) is too small to arm another, so the run ends.
struct Hop {
    me: u64,
    trace: Shared,
}

impl Node<u64> for Hop {
    fn service_time(&self, msg: &u64) -> Duration {
        Duration::from_nanos(300 + (msg >> 8) % 7 * 450)
    }

    fn handle(&mut self, event: NodeEvent<u64>, out: &mut Outbox<u64>) {
        match event {
            NodeEvent::Message { from, msg } => {
                let hops = msg & 0xff;
                let body = msg >> 8;
                if hops > 0 {
                    let next = (self.me + 1 + body % (NODES - 1)) % NODES;
                    out.send(
                        NodeId::new(next),
                        (body.wrapping_mul(7) + 3) << 8 | (hops - 1),
                    );
                }
                if from == NodeId::EXTERNAL || (body % 5 == 0 && hops > 3) {
                    let id = match body % 3 {
                        0 => u64::MAX,
                        1 => (1 << 32) + body,
                        _ => body % 4,
                    };
                    out.set_timer(Duration::from_micros(3 + body % 40), id);
                }
            }
            NodeEvent::Timer { id } => {
                let mut t = self.trace.borrow_mut();
                t.fnv.word(0x7469_6d65);
                t.fnv.word(self.me);
                t.fnv.word(out.now().as_nanos());
                t.fnv.word(id);
                t.timers += 1;
                if id >= 1 << 32 {
                    t.big_timers += 1;
                }
                drop(t);
                if id < 4 {
                    out.send(NodeId::new((self.me + id + 1) % NODES), (id + 11) << 8 | 3);
                }
            }
        }
    }

    fn cores(&self) -> usize {
        if self.me == WIDE {
            4
        } else {
            1
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

fn run() -> Trace {
    let trace: Shared = Rc::new(RefCell::new(Trace {
        fnv: Fnv::new(),
        deliveries: 0,
        timers: 0,
        big_timers: 0,
    }));
    let mut links = Links::with_default(LinkSpec {
        latency: Duration::from_micros(2),
        jitter: Duration::from_nanos(1_700),
    });
    links.set_seed(0x5eed);
    links.set_fault_default(FaultSpec {
        duplicate: 0.05,
        reorder_window: Duration::from_micros(4),
        ..FaultSpec::NONE
    });
    let mut sim = Sim::with_config(
        links,
        SimConfig {
            max_events: 100_000,
        },
    );
    for me in 0..NODES {
        sim.add_node(
            NodeId::new(me),
            Box::new(Hop {
                me,
                trace: Rc::clone(&trace),
            }),
        );
    }
    let tap_trace = Rc::clone(&trace);
    sim.set_delivery_tap(Box::new(move |at, from, to, msg| {
        let mut t = tap_trace.borrow_mut();
        t.fnv.word(at.as_nanos());
        t.fnv.word(from.raw());
        t.fnv.word(to.raw());
        t.fnv.word(*msg);
        t.deliveries += 1;
    }));
    for i in 0..48u64 {
        let at = Instant::ZERO + Duration::from_nanos(i * 1_250 + i % 3 * 97);
        sim.inject_at(at, NodeId::new(i % NODES), (i + 1) << 8 | (4 + i % 9));
    }
    sim.crash_at(
        Instant::ZERO + Duration::from_micros(37),
        NodeId::new(VICTIM),
    );
    sim.run_to_completion();
    let victim = sim
        .stats(NodeId::new(VICTIM))
        .map(|s| (s.dropped_crash, s.dropped_down));
    assert!(
        matches!(victim, Some((c, d)) if c > 0 && d > 0),
        "the crash must cut work in flight and drop later arrivals: {victim:?}"
    );
    let stats = sim.sim_stats();
    assert!(stats.duplicated > 0, "the schedule duplicates no message");
    assert!(stats.dropped_unroutable == 0);
    drop(sim);
    match Rc::try_unwrap(trace) {
        Ok(t) => t.into_inner(),
        Err(_) => panic!("the trace outlives the sim"),
    }
}

#[test]
fn mixed_schedule_matches_the_pinned_trace_hash() {
    let t = run();
    assert!(t.deliveries > 200, "{} deliveries", t.deliveries);
    assert!(t.timers > 20, "{} timers", t.timers);
    assert!(
        t.big_timers > 5,
        "{} timers with ids at or above 2^32",
        t.big_timers
    );
    assert_eq!(
        (t.deliveries, t.timers, t.fnv.0),
        (355, 70, 0xebab_5313_b432_d3ef),
        "the engine's trace moved"
    );
}
