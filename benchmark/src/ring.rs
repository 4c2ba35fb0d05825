//! `engine_ring`: message rings on the bare engine, no protocol on top, so
//! `netsim`'s scheduler and dispatch loop do all the work. One shallow ring
//! and one deep one, either side of the recorded wheel-versus-heap
//! crossover.

use crate::trace::Tracer;
use crate::workload::{Clock, Repeat, Workload};
use neutrino_common::time::{Duration, Instant};
use neutrino_netsim::{LinkSpec, Links, Node, NodeEvent, NodeId, Outbox, Sim};
use std::time::Instant as HostInstant;

/// Forwards every message to the next node of the ring after a 500 ns
/// service time, and folds what it saw into an order-sensitive checksum.
struct RingHop {
    next: NodeId,
    handled: u64,
    order_sum: u64,
}

impl Node<u64> for RingHop {
    fn service_time(&self, _msg: &u64) -> Duration {
        Duration::from_nanos(500)
    }

    fn handle(&mut self, event: NodeEvent<u64>, out: &mut Outbox<u64>) {
        if let NodeEvent::Message { msg, .. } = event {
            self.handled += 1;
            self.order_sum = self.order_sum.wrapping_mul(31).wrapping_add(msg);
            out.send(self.next, msg);
        }
    }

    fn cores(&self) -> usize {
        1
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// One ring's shape and the outputs it must produce.
#[derive(Clone, Copy)]
pub struct RingSpec {
    pub span: &'static str,
    pub nodes: u64,
    pub balls: u64,
    pub horizon: Duration,
    /// Messages handled and the delivery-order checksum (per-node checksums
    /// summed, so rotating the ring leaves it unchanged). `None` skips the
    /// check, for the shortened probe rings.
    pub expect: Option<(u64, u64)>,
}

pub const SHALLOW: RingSpec = RingSpec {
    span: "netsim.ring_shallow",
    nodes: 8,
    balls: 64,
    horizon: Duration::from_millis(300),
    expect: Some((4_800_000, 0x7769_091f_dbe8_8800)),
};

pub const DEEP: RingSpec = RingSpec {
    span: "netsim.ring_deep",
    nodes: 64,
    balls: 4096,
    horizon: Duration::from_millis(20),
    expect: Some((2_560_000, 0xfa02_dbd1_a5b9_8000)),
};

/// What one ring run produced.
struct RingRun {
    events: u64,
    handled: u64,
    order_sum: u64,
    max_sched_depth: u64,
    allocs: u64,
    wall_s: f64,
}

/// Builds the ring, injects ball `b` at node `(b + seed) % nodes` at time
/// zero, and runs it to the horizon.
fn run_ring(spec: &RingSpec, seed: u64, clock: &mut Clock) -> RingRun {
    let start = HostInstant::now();
    let group = clock.open(spec.span);
    let (mut sim, _) = clock.step("netsim.ring_build", || {
        let mut sim = Sim::new(Links::with_default(LinkSpec::fixed(Duration::from_micros(
            2,
        ))));
        for i in 0..spec.nodes {
            sim.add_node(
                NodeId::new(i),
                Box::new(RingHop {
                    next: NodeId::new((i + 1) % spec.nodes),
                    handled: 0,
                    order_sum: 0,
                }),
            );
        }
        for b in 0..spec.balls {
            sim.inject_at(Instant::ZERO, NodeId::new((b + seed) % spec.nodes), b);
        }
        sim
    });
    clock.step("netsim.run", || sim.run_until(Instant::ZERO + spec.horizon));
    let (mut run, _) = clock.step("netsim.ring_drop", || {
        let stats = sim.sim_stats();
        let (mut handled, mut order_sum) = (0u64, 0u64);
        for i in 0..spec.nodes {
            let hop = sim.node_as::<RingHop>(NodeId::new(i)).expect("ring node");
            handled += hop.handled;
            order_sum = order_sum.wrapping_add(hop.order_sum);
        }
        drop(sim);
        RingRun {
            events: stats.events_processed,
            handled,
            order_sum,
            max_sched_depth: stats.max_sched_depth,
            allocs: stats.allocs,
            wall_s: 0.0,
        }
    });
    clock.close(group);
    run.wall_s = start.elapsed().as_secs_f64();
    run
}

pub struct RingWorkload {
    rings: Vec<RingSpec>,
    seed: u64,
}

impl RingWorkload {
    pub fn new(seed: u64) -> Self {
        RingWorkload {
            rings: vec![SHALLOW, DEEP],
            seed,
        }
    }

    /// The same two rings at a tenth of the horizon, outputs unchecked: the
    /// unit-cost probe other workloads' traced runs use.
    pub fn probe(seed: u64) -> Self {
        let short = |r: RingSpec| RingSpec {
            horizon: Duration::from_nanos(r.horizon.as_nanos() / 10),
            expect: None,
            ..r
        };
        RingWorkload {
            rings: vec![short(SHALLOW), short(DEEP)],
            seed,
        }
    }
}

impl Workload for RingWorkload {
    fn run(&mut self, tracer: Option<&mut Tracer>) -> Result<Repeat, String> {
        let start = HostInstant::now();
        let mut repeat = Repeat::default();
        let mut clock = Clock::new(tracer);
        let root = clock.open("repeat");
        for spec in &self.rings {
            let run = run_ring(spec, self.seed, &mut clock);
            if let Some(expect) = spec.expect {
                if (run.handled, run.order_sum) != expect {
                    return Err(format!(
                        "{}: handled {} messages with order checksum {:#x}, expected {} and {:#x}",
                        spec.span, run.handled, run.order_sum, expect.0, expect.1
                    ));
                }
            }
            repeat.events += run.events;
            // A lap is one message's full circuit of its ring.
            repeat.procs += run.handled / spec.nodes;
            repeat.attempted += run.handled;
            repeat.digest = repeat
                .digest
                .wrapping_mul(31)
                .wrapping_add(run.events ^ run.order_sum);
            let l = &mut repeat.layers;
            let ns_per_event = run.wall_s * 1e9 / run.events as f64;
            if spec.nodes == SHALLOW.nodes {
                l.set("netsim.ring_shallow_ns_per_event", ns_per_event);
            } else {
                l.set("netsim.ring_deep_ns_per_event", ns_per_event);
            }
            l.add("netsim.run_s", run.wall_s);
            l.add("netsim.events", run.events as f64);
            l.add("sim.allocs", run.allocs as f64);
            l.max("netsim.max_sched_depth", run.max_sched_depth as f64);
        }
        clock.close(root);
        repeat.wall_s = start.elapsed().as_secs_f64();
        Ok(repeat)
    }
}
