//! Raw engine throughput: events/sec through the netsim hot path with no
//! protocol logic on top. This isolates the discrete-event core (slab node
//! table, recycled outboxes, heap pops) from the Neutrino state machines,
//! so engine-level regressions show up undiluted.
//!
//! Run with `cargo bench -p neutrino-bench --bench engine`. The repro
//! binary's `--bench-out` flag reports the equivalent number for real
//! figure cells (protocol logic included).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neutrino_common::time::{Duration, Instant};
use neutrino_netsim::{LinkSpec, Links, Node, NodeEvent, NodeId, Outbox, Sim};

/// Forwards every message to the next node in the ring, charging a small
/// service time — the engine's per-event cost dominates.
struct RingHop {
    next: NodeId,
    cores: usize,
}

impl Node<u64> for RingHop {
    fn service_time(&self, _msg: &u64) -> Duration {
        Duration::from_nanos(500)
    }

    fn handle(&mut self, event: NodeEvent<u64>, out: &mut Outbox<u64>) {
        if let NodeEvent::Message { msg, .. } = event {
            out.send(self.next, msg);
        }
    }

    fn cores(&self) -> usize {
        self.cores
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Builds an N-node ring carrying `balls` messages and runs it for the
/// virtual horizon; returns events processed.
fn run_ring(nodes: u64, balls: u64, cores: usize, horizon: Duration) -> u64 {
    let links = Links::with_default(LinkSpec::fixed(Duration::from_micros(2)));
    let mut sim = Sim::new(links);
    for i in 0..nodes {
        let next = NodeId::new((i + 1) % nodes);
        sim.add_node(NodeId::new(i), Box::new(RingHop { next, cores }));
    }
    for b in 0..balls {
        sim.inject_at(Instant::ZERO, NodeId::new(b % nodes), b);
    }
    sim.run_until(Instant::ZERO + horizon);
    sim.events_processed()
}

fn engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    for &(nodes, balls, cores) in &[(8u64, 64u64, 1usize), (8, 64, 4), (64, 512, 1)] {
        let id = BenchmarkId::new("ring", format!("{nodes}n-{balls}b-{cores}c"));
        group.bench_function(id, |b| {
            b.iter(|| {
                let events = run_ring(nodes, balls, cores, Duration::from_millis(50));
                assert!(events > 0);
                events
            })
        });
    }
    // Print an absolute events/sec figure once, outside the timing loop:
    // the criterion stub reports per-iteration time, this reports rate.
    let start = std::time::Instant::now();
    let events = run_ring(8, 64, 1, Duration::from_millis(200));
    let secs = start.elapsed().as_secs_f64();
    eprintln!(
        "engine ring 8n-64b-1c: {events} events in {secs:.3}s = {:.0} events/sec",
        events as f64 / secs
    );
    group.finish();
}

criterion_group!(benches, engine_throughput);
criterion_main!(benches);
