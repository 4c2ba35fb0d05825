//! Property-based tests of the discrete-event engine: conservation, queue
//! discipline, and work accounting over random workloads.

use neutrino_common::time::{Duration, Instant};
use neutrino_netsim::{LinkSpec, Links, Node, NodeEvent, NodeId, Outbox, Sim};
use proptest::prelude::*;
use std::any::Any;

/// Records everything it processes.
struct Sink {
    service_us: u64,
    cores: usize,
    seen: Vec<(u64, Instant)>,
}

impl Node<u64> for Sink {
    fn service_time(&self, _msg: &u64) -> Duration {
        Duration::from_micros(self.service_us)
    }
    fn handle(&mut self, event: NodeEvent<u64>, out: &mut Outbox<u64>) {
        if let NodeEvent::Message { msg, .. } = event {
            self.seen.push((msg, out.now()));
        }
    }
    fn cores(&self) -> usize {
        self.cores
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Forwards every message to a fixed peer until its hop budget runs out,
/// recording `(msg, at)` in arrival order.
struct Relay {
    peer: NodeId,
    service: Duration,
    hops_left: u64,
    seen: Vec<(u64, Instant)>,
}

impl Node<u64> for Relay {
    fn service_time(&self, _msg: &u64) -> Duration {
        self.service
    }
    fn handle(&mut self, event: NodeEvent<u64>, out: &mut Outbox<u64>) {
        if let NodeEvent::Message { msg, .. } = event {
            self.seen.push((msg, out.now()));
            if self.hops_left > 0 {
                self.hops_left -= 1;
                out.send(self.peer, msg + 1);
            }
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every injected message is processed exactly once, in FIFO order for
    /// a single-core node, and the makespan matches total work.
    #[test]
    fn conservation_and_fifo(
        arrivals in proptest::collection::vec(0u64..1_000, 1..60),
        service_us in 1u64..50,
    ) {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let node = NodeId::new(1);
        sim.add_node(node, Box::new(Sink { service_us, cores: 1, seen: Vec::new() }));
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        for (i, &at) in sorted.iter().enumerate() {
            sim.inject_at(Instant::from_micros(at), node, i as u64);
        }
        let end = sim.run_to_completion();
        let stats = sim.stats(node).unwrap().clone();
        prop_assert_eq!(stats.processed, sorted.len() as u64);
        // Single core: completion no earlier than total work, no later than
        // last arrival + total work.
        let total_work = service_us * sorted.len() as u64;
        prop_assert!(end.as_nanos() >= Duration::from_micros(total_work).as_nanos());
        let bound = sorted.last().unwrap() + total_work;
        prop_assert!(end <= Instant::from_micros(bound));
        prop_assert_eq!(stats.busy, Duration::from_micros(total_work));
        // FIFO: messages complete in injection order (ties broken by seq).
        let sink = sim.node_as::<Sink>(node).unwrap();
        let ids: Vec<u64> = sink.seen.iter().map(|(m, _)| *m).collect();
        let mut expect: Vec<u64> = (0..sorted.len() as u64).collect();
        expect.sort_by_key(|&i| (sorted[i as usize], i));
        prop_assert_eq!(ids, expect);
    }

    /// More cores never increase the makespan; `cores >= n` pins it to
    /// last-arrival + service.
    #[test]
    fn multicore_speedup(
        n in 1usize..40,
        service_us in 1u64..40,
        spacing_us in 0u64..10,
    ) {
        let run = |cores: usize| {
            let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
            let mut sim = Sim::new(links);
            let node = NodeId::new(1);
            sim.add_node(node, Box::new(Sink { service_us, cores, seen: Vec::new() }));
            for i in 0..n {
                sim.inject_at(Instant::from_micros(i as u64 * spacing_us), node, i as u64);
            }
            sim.run_to_completion()
        };
        let one = run(1);
        let many = run(4);
        let all = run(n.max(1));
        prop_assert!(many <= one);
        prop_assert!(all <= many);
        let last_arrival = (n as u64 - 1) * spacing_us;
        prop_assert_eq!(
            all,
            Instant::from_micros(last_arrival + service_us)
                .max(Instant::from_micros((n as u64 - 1) * spacing_us + service_us))
        );
    }

    /// Crashing a node mid-run loses exactly the queued + in-flight work;
    /// dropped + processed accounts for every injection.
    #[test]
    fn crash_accounting(
        n in 1u64..50,
        service_us in 5u64..50,
        crash_at_us in 0u64..2_000,
    ) {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let node = NodeId::new(1);
        sim.add_node(node, Box::new(Sink { service_us, cores: 1, seen: Vec::new() }));
        for i in 0..n {
            sim.inject_at(Instant::from_micros(i * 10), node, i);
        }
        sim.crash_at(Instant::from_micros(crash_at_us), node);
        sim.run_to_completion();
        let stats = sim.stats(node).unwrap();
        prop_assert_eq!(
            stats.processed + stats.dropped_crash + stats.dropped_down,
            n,
            "every message is either processed or accounted as dropped"
        );
    }

    /// Pausing at arbitrary deadlines and skipping idle stretches with
    /// `next_event_at` — how the check harness drives the engine between
    /// oracle passes — dispatches the same event stream as one
    /// uninterrupted run.
    #[test]
    fn segmented_runs_match_one_shot(
        step_us in 1u64..2_000,
        latency_us in 1u64..600,
        service_us in 0u64..20,
        hops in 1u64..40,
    ) {
        let (a, b) = (NodeId::new(1), NodeId::new(1000));
        let build = || {
            let links = Links::with_default(LinkSpec::fixed(Duration::from_micros(latency_us)));
            let mut sim = Sim::new(links);
            for (id, peer) in [(a, b), (b, a)] {
                sim.add_node(id, Box::new(Relay {
                    peer,
                    service: Duration::from_micros(service_us),
                    hops_left: hops,
                    seen: Vec::new(),
                }));
            }
            sim.inject_at(Instant::ZERO, a, 0);
            sim
        };
        let mut one_shot = build();
        one_shot.run_to_completion();
        let mut segmented = build();
        let step = Duration::from_micros(step_us);
        let mut deadline = Instant::ZERO + step;
        loop {
            segmented.run_until(deadline);
            let Some(next) = segmented.next_event_at() else { break };
            prop_assert!(next > deadline, "run_until left a due event pending");
            deadline = next.max(deadline + step);
        }
        prop_assert_eq!(one_shot.now(), segmented.now());
        prop_assert_eq!(one_shot.events_processed(), segmented.events_processed());
        for id in [a, b] {
            prop_assert_eq!(
                &one_shot.node_as::<Relay>(id).unwrap().seen,
                &segmented.node_as::<Relay>(id).unwrap().seen
            );
        }
    }
}
