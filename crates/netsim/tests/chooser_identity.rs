//! Identity-chooser property: `run_until` with an installed
//! [`IdentityChooser`] dispatches random multi-region topologies in exactly
//! the `(at, seq)` order of an uninstrumented run — observed through per-node
//! arrival logs (sender, payload, virtual time), the final clock and every
//! deterministic `SimStats` field. This is the instrumentation layer's
//! whole contract: goldens and corpus pins must not be able to observe
//! the chosen order.
//!
//! The generators stress tie-breaking: equal-time ties, zero-delay
//! self-sends, timers, and crash barriers mixed into every run. A final
//! deterministic test drives a *non*-identity chooser through an
//! equal-time tie and asserts the delivery order actually changes —
//! proving the mechanism can express a reordering at all (a chooser that
//! was silently never consulted would pass the identity property
//! vacuously).

use neutrino_common::time::{Duration, Instant};
use neutrino_netsim::{
    Chooser, Enabled, IdentityChooser, LinkSpec, Links, Node, NodeEvent, NodeId, Outbox, Sim,
    SimStats,
};
use proptest::prelude::*;
use std::any::Any;
use std::cell::Cell;
use std::rc::Rc;

/// Splitmix step used to derandomize per-hop routing decisions.
fn mix(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Logs every arrival and forwards along a deterministic pseudo-random
/// walk, with timer detours on even-TTL hops so non-delivery events
/// interleave with deliveries.
struct Walker {
    all: Vec<NodeId>,
    service: Duration,
    timer_delay: Duration,
    log: Vec<(NodeId, u64, Instant)>,
    pending: Vec<u64>,
}

const TTL_SHIFT: u32 = 48;

impl Node<u64> for Walker {
    fn service_time(&self, _msg: &u64) -> Duration {
        self.service
    }

    fn handle(&mut self, event: NodeEvent<u64>, out: &mut Outbox<u64>) {
        match event {
            NodeEvent::Message { from, msg } => {
                self.log.push((from, msg, out.now()));
                let ttl = msg >> TTL_SHIFT;
                if ttl == 0 {
                    return;
                }
                let state = mix(msg);
                let next = ((ttl - 1) << TTL_SHIFT) | (state & ((1 << TTL_SHIFT) - 1));
                if ttl.is_multiple_of(2) {
                    self.pending.push(next);
                    out.set_timer(self.timer_delay, next);
                } else {
                    let to = self.all[(state % self.all.len() as u64) as usize];
                    out.send(to, next);
                }
            }
            NodeEvent::Timer { id } => {
                if let Some(pos) = self.pending.iter().position(|&m| m == id) {
                    self.pending.swap_remove(pos);
                    let state = mix(id);
                    let to = self.all[(state % self.all.len() as u64) as usize];
                    out.send(to, id);
                }
            }
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// A generated topology plus its workload schedule.
#[derive(Clone, Debug)]
struct Scenario {
    region_sizes: Vec<usize>,
    intra_us: Vec<u64>,
    cross_us: u64,
    service_ns: u64,
    timer_us: u64,
    injections: Vec<(u64, usize, u64, u64)>,
    fault: Option<(usize, u64)>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        (
            proptest::collection::vec(1usize..4, 2..5),
            proptest::collection::vec(1u64..80, 4usize),
            100u64..600,
        ),
        (1u64..5_000, 1u64..400),
        proptest::collection::vec((0u64..2_000, 0usize..64, 1u64..24, any::<u64>()), 1..8),
        proptest::option::of((0usize..64, 100u64..3_000)),
    )
        .prop_map(
            |((region_sizes, intra_us, cross_us), (service_ns, timer_us), injections, fault)| {
                Scenario {
                    region_sizes,
                    intra_us,
                    cross_us,
                    service_ns,
                    timer_us,
                    injections,
                    fault,
                }
            },
        )
}

fn node_ids(region_sizes: &[usize]) -> Vec<(NodeId, usize)> {
    let mut out = Vec::new();
    for (r, &size) in region_sizes.iter().enumerate() {
        for i in 0..size {
            out.push((NodeId::new(1 + r as u64 * 1000 + i as u64), r));
        }
    }
    out
}

fn build(sc: &Scenario) -> (Sim<u64>, Vec<NodeId>) {
    let ids = node_ids(&sc.region_sizes);
    let mut links = Links::with_default(LinkSpec::fixed(Duration::from_micros(sc.cross_us)));
    for (a, ra) in &ids {
        for (b, rb) in &ids {
            if a != b && ra == rb {
                links.set(
                    *a,
                    *b,
                    LinkSpec::fixed(Duration::from_micros(sc.intra_us[*ra])),
                );
            }
        }
    }
    let mut sim = Sim::new(links);
    let all: Vec<NodeId> = ids.iter().map(|(id, _)| *id).collect();
    for (id, _) in &ids {
        sim.add_node(
            *id,
            Box::new(Walker {
                all: all.clone(),
                service: Duration::from_nanos(sc.service_ns),
                timer_delay: Duration::from_micros(sc.timer_us),
                log: Vec::new(),
                pending: Vec::new(),
            }),
        );
    }
    for &(at_us, node, ttl, seed) in &sc.injections {
        let to = all[node % all.len()];
        let msg = (ttl << TTL_SHIFT) | (seed & ((1 << TTL_SHIFT) - 1));
        sim.inject_at(Instant::from_micros(at_us), to, msg);
    }
    if let Some((node, crash_us)) = sc.fault {
        sim.crash_at(Instant::from_micros(crash_us), all[node % all.len()]);
    }
    (sim, all)
}

type Observables = (Vec<Vec<(NodeId, u64, Instant)>>, Instant, SimStats);

/// Arrival logs, clock and every `SimStats` field but two: `allocs` counts
/// the host allocator's work, not the simulation's, and `max_sched_depth`
/// counts the wheel alone, which a staged tick has left. (Two same-tick
/// deliveries to two nodes, the first fanning out three sends: the plain
/// order peaks at 4 scheduled events, the staged one at 3.)
#[expect(clippy::unwrap_used, reason = "a test helper: `build` added every node")]
fn observe(sim: &mut Sim<u64>, all: &[NodeId]) -> Observables {
    let logs = all
        .iter()
        .map(|&id| sim.node_as::<Walker>(id).unwrap().log.clone())
        .collect();
    let stats = SimStats {
        allocs: 0,
        max_sched_depth: 0,
        ..sim.sim_stats()
    };
    (logs, sim.now(), stats)
}

/// Runs through the plain sequential loop.
fn run_plain(sc: &Scenario) -> Observables {
    let (mut sim, all) = build(sc);
    sim.run_to_completion();
    observe(&mut sim, &all)
}

/// Runs through the chosen-mode loop with the identity chooser, pausing
/// at an arbitrary mid-run deadline to also cover resume behaviour.
fn run_chosen(sc: &Scenario) -> Observables {
    let (mut sim, all) = build(sc);
    sim.set_chooser(Box::new(IdentityChooser));
    sim.run_until(Instant::from_micros(900));
    sim.run_until(Instant::FAR_FUTURE);
    observe(&mut sim, &all)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random multi-region topologies observe byte-identical behaviour
    /// with and without an installed `IdentityChooser`.
    #[test]
    fn identity_chooser_matches_sequential(sc in scenario_strategy()) {
        prop_assert_eq!(run_plain(&sc), run_chosen(&sc));
    }
}

/// A chooser that always picks the *last* enabled delivery, recording how
/// often it was actually consulted.
struct ReverseChooser {
    consulted: Rc<Cell<usize>>,
}

impl Chooser<u64> for ReverseChooser {
    fn choose(&mut self, _barrier: bool, enabled: &[Enabled<'_, u64>]) -> usize {
        self.consulted.set(self.consulted.get() + 1);
        enabled.len() - 1
    }
}

/// Two messages injected at the same tick to the same node: the reverse
/// chooser must be consulted and must flip the arrival order relative to
/// the sequential engine — the mechanism demonstrably expresses a
/// reordering (and only reorders; the delivered *set* is unchanged).
#[test]
fn reverse_chooser_flips_an_equal_time_tie() {
    let sc = Scenario {
        region_sizes: vec![2],
        intra_us: vec![10, 10, 10, 10],
        cross_us: 100,
        service_ns: 100,
        timer_us: 50,
        injections: vec![(500, 0, 1, 7), (500, 0, 1, 9)],
        fault: None,
    };
    let (mut sim, all) = build(&sc);
    let consulted = Rc::new(Cell::new(0));
    sim.set_chooser(Box::new(ReverseChooser { consulted: Rc::clone(&consulted) }));
    sim.run_to_completion();
    let chosen = observe(&mut sim, &all);
    let plain = run_plain(&sc);
    assert!(consulted.get() > 0, "tie never reached the chooser");
    assert_ne!(
        plain.0, chosen.0,
        "reverse chooser did not change any delivery order"
    );
    // Same multiset of arrivals per node, just reordered.
    let canon = |logs: &[Vec<(NodeId, u64, Instant)>]| {
        logs.iter()
            .map(|l| {
                let mut l: Vec<_> = l.iter().map(|&(f, m, _)| (f, m)).collect();
                l.sort_unstable();
                l
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(canon(&plain.0), canon(&chosen.0));
    assert_eq!(
        plain.2.events_processed, chosen.2.events_processed,
        "event count must not change"
    );
}
