//! Property-based tests of the link fault layer: a retrying protocol
//! converges under any random fault plan (loss, duplication, bounded
//! reorder, timed partitions), the drained engine holds no message body,
//! and the same plan + seed replays byte-identically.

use neutrino_common::time::{Duration, Instant};
use neutrino_netsim::{FaultSpec, LinkSpec, Links, Node, NodeEvent, NodeId, Outbox, Sim};
use proptest::prelude::*;
use std::any::Any;
use std::collections::BTreeSet;

const ACK_BIT: u64 = 1 << 32;
const START: u64 = u64::MAX;
const RETRY_TIMER: u64 = 0;

/// Sends requests `0..total` to `server`, retransmitting unACKed ones on a
/// fixed timer until every request is ACKed (then goes quiet, so the sim
/// drains). Duplicated ACKs are idempotent.
struct Client {
    server: NodeId,
    total: u64,
    retry: Duration,
    acked: BTreeSet<u64>,
    acked_at: Vec<(u64, Instant)>,
    sends: u64,
}

impl Node<u64> for Client {
    fn service_time(&self, _msg: &u64) -> Duration {
        Duration::from_micros(1)
    }
    fn handle(&mut self, event: NodeEvent<u64>, out: &mut Outbox<u64>) {
        match event {
            NodeEvent::Message { msg, .. } if msg == START => {
                self.resend_missing(out);
            }
            NodeEvent::Message { msg, .. } => {
                let req = msg & !ACK_BIT;
                if self.acked.insert(req) {
                    self.acked_at.push((req, out.now()));
                }
            }
            NodeEvent::Timer { id: RETRY_TIMER } => self.resend_missing(out),
            _ => {}
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

impl Client {
    fn resend_missing(&mut self, out: &mut Outbox<u64>) {
        let mut pending = false;
        for i in 0..self.total {
            if !self.acked.contains(&i) {
                out.send(self.server, i);
                self.sends += 1;
                pending = true;
            }
        }
        if pending {
            out.set_timer(self.retry, RETRY_TIMER);
        }
    }
}

/// ACKs every copy of every request it sees (the client dedups).
struct Server {
    log: Vec<(u64, Instant)>,
}

impl Node<u64> for Server {
    fn service_time(&self, _msg: &u64) -> Duration {
        Duration::from_micros(1)
    }
    fn handle(&mut self, event: NodeEvent<u64>, out: &mut Outbox<u64>) {
        if let NodeEvent::Message { from, msg } = event {
            self.log.push((msg, out.now()));
            out.send(from, msg | ACK_BIT);
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// A randomly drawn fault plan for one client–server pair.
#[derive(Debug, Clone)]
struct Plan {
    seed: u64,
    total: u64,
    loss: f64,
    duplicate: f64,
    reorder: f64,
    reorder_window_us: u64,
    // Partition window `[from, from + len)` in microseconds; `len == 0`
    // means no partition.
    partition_from_us: u64,
    partition_len_us: u64,
}

fn plan() -> impl Strategy<Value = Plan> {
    (
        (any::<u64>(), 1u64..24),
        (0.0f64..0.4, 0.0f64..0.3, 0.0f64..0.4, 0u64..500),
        (0u64..30_000, 0u64..50_000),
    )
        .prop_map(
            |(
                (seed, total),
                (loss, duplicate, reorder, reorder_window_us),
                (partition_from_us, partition_len_us),
            )| Plan {
                seed,
                total,
                loss,
                duplicate,
                reorder,
                reorder_window_us,
                partition_from_us,
                partition_len_us,
            },
        )
}

/// Everything observable about one run, for replay comparison.
#[derive(Debug, PartialEq)]
struct Trace {
    end: Instant,
    acked_at: Vec<(u64, Instant)>,
    client_sends: u64,
    server_log: Vec<(u64, Instant)>,
    events_processed: u64,
    dropped_loss: u64,
    dropped_partition: u64,
    duplicated: u64,
    reordered: u64,
    in_flight: u64,
}

#[expect(clippy::unwrap_used, reason = "a test helper: both nodes were added above")]
fn run(plan: &Plan) -> Trace {
    let client_id = NodeId::new(1);
    let server_id = NodeId::new(2);
    let mut links = Links::with_default(LinkSpec {
        latency: Duration::from_micros(50),
        jitter: Duration::from_micros(20),
    });
    links.set_seed(plan.seed);
    links.set_fault_default(FaultSpec {
        loss: plan.loss,
        duplicate: plan.duplicate,
        reorder: plan.reorder,
        reorder_window: Duration::from_micros(plan.reorder_window_us),
    });
    if plan.partition_len_us > 0 {
        links.add_partition(
            client_id,
            server_id,
            Instant::from_micros(plan.partition_from_us),
            Instant::from_micros(plan.partition_from_us + plan.partition_len_us),
        );
    }
    let mut sim = Sim::new(links);
    sim.add_node(
        client_id,
        Box::new(Client {
            server: server_id,
            total: plan.total,
            retry: Duration::from_millis(10),
            acked: BTreeSet::new(),
            acked_at: Vec::new(),
            sends: 0,
        }),
    );
    sim.add_node(server_id, Box::new(Server { log: Vec::new() }));
    sim.inject_at(Instant::ZERO, client_id, START);
    let end = sim.run_to_completion();
    let stats = sim.sim_stats();
    let server_log = sim.node_as::<Server>(server_id).unwrap().log.clone();
    let client = sim.node_as::<Client>(client_id).unwrap();
    Trace {
        end,
        acked_at: client.acked_at.clone(),
        client_sends: client.sends,
        server_log,
        events_processed: stats.events_processed,
        dropped_loss: stats.dropped_loss,
        dropped_partition: stats.dropped_partition,
        duplicated: stats.duplicated,
        reordered: stats.reordered,
        in_flight: stats.in_flight,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under any fault plan the retrying client converges: every request is
    /// ACKed, the server saw each request at least once, and partitions
    /// (which always end) only delay — never prevent — convergence.
    #[test]
    fn retrying_protocol_converges_under_any_fault_plan(p in plan()) {
        let trace = run(&p);
        prop_assert_eq!(trace.acked_at.len() as u64, p.total, "every request ACKed");
        let distinct: BTreeSet<u64> = trace.server_log.iter().map(|(m, _)| *m).collect();
        prop_assert_eq!(distinct.len() as u64, p.total, "server saw every request");
        // Retries mean the client never sends fewer datagrams than requests.
        prop_assert!(trace.client_sends >= p.total);
        // Every body was delivered or discarded, and each freed its slot.
        prop_assert_eq!(trace.in_flight, 0, "drained run holds no message body");
        // Fault accounting only moves when the plan can produce that fault.
        if p.loss == 0.0 {
            prop_assert_eq!(trace.dropped_loss, 0);
        }
        if p.partition_len_us == 0 {
            prop_assert_eq!(trace.dropped_partition, 0);
        }
    }

    /// The same plan (seed included) replays byte-identically: traces,
    /// stats, and virtual end time all match across runs.
    #[test]
    fn same_seed_fault_plan_replays_identically(p in plan()) {
        let first = run(&p);
        let second = run(&p);
        prop_assert_eq!(first, second, "same plan + seed must replay identically");
    }
}
