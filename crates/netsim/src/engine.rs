//! The discrete-event engine.
//!
//! Each node is a multi-core FIFO queueing server running a [`Node`] state
//! machine. One dispatch loop pops events of four kinds: `Deliver`
//! enqueues a message at its destination, `JobComplete` runs the node's
//! handler at service completion (charging the declared service time),
//! `Timer` runs zero-cost internal work, and `Crash` takes a node down for
//! good. [`Sim::run_until`] pops them in the wheel's `(at, seq)` order,
//! one `pop_due` per event.
//!
//! A message body is stored once while in flight: a slab holds it from the
//! send to its handler, and scheduled events and node queues carry a 4-byte
//! handle into that slab beside 4-byte node ids, so a wheel entry is 32
//! bytes and a queued message 16. A job in service is only its pending
//! `JobComplete`, which carries the sender and the handle itself.
//!
//! Determinism: the event queue orders by `(time, sequence)` where the
//! sequence is assigned at scheduling time, so ties break identically on
//! every run.

use crate::links::{Delivery, Links};
use crate::stats::{NodeStats, SimStats};
use crate::wheel::{SchedKey, Wheel};
use neutrino_common::time::{Duration, Instant};
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;

/// Identifies a node inside a simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u64);

impl NodeId {
    /// Sender id used for externally injected traffic.
    pub const EXTERNAL: NodeId = NodeId(u64::MAX);

    /// Wraps a raw id.
    pub const fn new(raw: u64) -> Self {
        NodeId(raw)
    }

    /// The raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == NodeId::EXTERNAL {
            write!(f, "node-external")
        } else {
            write!(f, "node-{}", self.0)
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// What a node is asked to handle.
#[derive(Debug)]
pub enum NodeEvent<M> {
    /// A message finished service (the node now reacts to it).
    Message {
        /// The sending node.
        from: NodeId,
        /// The message.
        msg: M,
    },
    /// A timer set earlier fired.
    Timer {
        /// The id passed to [`Outbox::set_timer`].
        id: u64,
    },
}

/// The only way a node affects the world: messages out and timers.
pub struct Outbox<M> {
    now: Instant,
    sends: Vec<(NodeId, M)>,
    timers: Vec<(Duration, u64)>,
}

impl<M> Outbox<M> {
    fn new(now: Instant) -> Self {
        Outbox {
            now,
            sends: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// Re-arms the scratch outbox: buffers are kept (already drained by
    /// `flush_outbox`), only the clock is reset.
    fn rearm(&mut self, now: Instant) {
        debug_assert!(self.sends.is_empty() && self.timers.is_empty());
        self.now = now;
    }

    /// The current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Sends a message; it leaves the node immediately and arrives after the
    /// link delay.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Arms a timer that fires after `delay` with the given id.
    pub fn set_timer(&mut self, delay: Duration, id: u64) {
        self.timers.push((delay, id));
    }
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox::new(Instant::ZERO)
    }
}

/// A delivery witness: `tap(at, from, to, &msg)` runs for every message
/// actually enqueued at an up node (after loss/partition/down filtering,
/// before service); `at` is the arrival instant. See
/// [`Sim::set_delivery_tap`].
pub type DeliveryTap<M> = Box<dyn FnMut(Instant, NodeId, NodeId, &M)>;

/// A protocol state machine living at one node.
pub trait Node<M>: Any {
    /// Service time charged for a message *before* [`Node::handle`] runs —
    /// the CPU the node burns parsing, processing, and building responses.
    /// Zero means the message is pure bookkeeping.
    fn service_time(&self, msg: &M) -> Duration;

    /// Reacts to an event. All effects go through the outbox.
    fn handle(&mut self, event: NodeEvent<M>, out: &mut Outbox<M>);

    /// Number of cores serving this node's queue. Read once, at
    /// [`Sim::add_node`], so it must be a constant of the node.
    fn cores(&self) -> usize {
        1
    }

    /// Downcast support (retrieving results after a run).
    fn as_any(&mut self) -> &mut dyn Any;
}

/// Handle of a message body held in [`Bodies`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MsgId(u32);

/// Every message body in flight, from the send (`flush_outbox`,
/// `inject_at`) to the `JobComplete` that moves it into its handler (or
/// frees it, when the node crashed during service). Events and node queues
/// carry a [`MsgId`], so a wheel entry is the same 32 bytes for any `M` and
/// a body is never copied on the way.
/// Freed slots are reused LIFO, so the steady state allocates nothing.
struct Bodies<M> {
    slots: Vec<Option<M>>,
    free: Vec<u32>,
}

impl<M> Bodies<M> {
    fn new() -> Self {
        Bodies {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, msg: M) -> MsgId {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(msg);
                MsgId(i)
            }
            None => {
                // The cast cannot truncate in practice: 2^32 bodies in
                // flight would take hundreds of GB.
                self.slots.push(Some(msg));
                MsgId((self.slots.len() - 1) as u32)
            }
        }
    }

    /// The body of `id`. `None` is an engine bug (a handle used after its
    /// body moved out); callers drop the event.
    fn get(&self, id: MsgId) -> Option<&M> {
        let body = self.slots.get(id.0 as usize).and_then(Option::as_ref);
        debug_assert!(body.is_some(), "in-flight message {id:?} has no body");
        body
    }

    /// Moves the body of `id` out and frees its slot. `None` as for `get`.
    fn take(&mut self, id: MsgId) -> Option<M> {
        let body = self.slots.get_mut(id.0 as usize).and_then(Option::take);
        debug_assert!(body.is_some(), "in-flight message {id:?} has no body");
        if body.is_some() {
            self.free.push(id.0);
        }
        body
    }

    /// Bodies held right now.
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// A [`NodeId`] as events and queues carry it. A registered id is below
/// `MAX_DENSE_ID`, so it fits; [`NodeId::EXTERNAL`] and every id that can
/// never be registered map to `u32::MAX`, which no slot answers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Id32(u32);

impl Id32 {
    const EXTERNAL: Id32 = Id32(u32::MAX);

    #[inline]
    fn of(id: NodeId) -> Self {
        if id.raw() < MAX_DENSE_ID {
            Id32(id.raw() as u32)
        } else {
            Id32::EXTERNAL
        }
    }

    /// The id back. Only a sender is read back, and a sender is a
    /// registered node or [`NodeId::EXTERNAL`].
    #[inline]
    fn id(self) -> NodeId {
        if self.0 == u32::MAX {
            NodeId::EXTERNAL
        } else {
            NodeId::new(u64::from(self.0))
        }
    }
}

/// What a scheduled event does, as the scheduling sites build it and
/// `dispatch` reads it. The wheel stores it packed, as an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Deliver { to: Id32, from: Id32, msg: MsgId },
    JobComplete { node: Id32, from: Id32, msg: MsgId },
    Timer { node: Id32, id: u64 },
    Crash { node: Id32 },
}

/// A scheduled event as the wheel stores it: two words, so a wheel entry is
/// 32 bytes. `head` is the kind's tag above the node the event concerns (a
/// `Deliver`'s destination); `arg` is `from << 32 | msg` for a message, the
/// id for a `Timer` and 0 for a `Crash`. It is packed once where it is
/// scheduled and decoded once in `dispatch`: a 16-byte enum handed between
/// them is built by narrower stores and then reloaded whole, and that
/// reload waits for the stores to retire instead of forwarding from them.
#[derive(Clone, Copy)]
struct Event {
    head: u64,
    arg: u64,
}

impl Event {
    const DELIVER: u64 = 0;
    const JOB_COMPLETE: u64 = 1;
    const TIMER: u64 = 2;
    const CRASH: u64 = 3;

    #[inline(always)]
    fn pack(kind: EventKind) -> Event {
        let message = |from: Id32, msg: MsgId| u64::from(from.0) << 32 | u64::from(msg.0);
        let (tag, node, arg) = match kind {
            EventKind::Deliver { to, from, msg } => (Self::DELIVER, to, message(from, msg)),
            EventKind::JobComplete { node, from, msg } => {
                (Self::JOB_COMPLETE, node, message(from, msg))
            }
            EventKind::Timer { node, id } => (Self::TIMER, node, id),
            EventKind::Crash { node } => (Self::CRASH, node, 0),
        };
        Event {
            head: tag << 32 | u64::from(node.0),
            arg,
        }
    }

    /// The kind back; each cast takes a 32-bit half `pack` wrote.
    #[inline(always)]
    fn kind(self) -> EventKind {
        let node = Id32(self.head as u32);
        let (from, msg) = (Id32((self.arg >> 32) as u32), MsgId(self.arg as u32));
        match self.head >> 32 {
            Self::DELIVER => EventKind::Deliver {
                to: node,
                from,
                msg,
            },
            Self::JOB_COMPLETE => EventKind::JobComplete { node, from, msg },
            Self::TIMER => EventKind::Timer { node, id: self.arg },
            _ => EventKind::Crash { node },
        }
    }
}

/// A queued message: sender, body, enqueue time (16 bytes).
type Queued = (Id32, MsgId, Instant);

struct NodeEntry<M> {
    id: NodeId,
    node: Box<dyn Node<M>>,
    /// `node.cores()`, read once at registration.
    cores: usize,
    queue: VecDeque<Queued>,
    busy_cores: usize,
    /// `false` from the node's crash on: a crashed node stays down, so this
    /// alone marks a `JobComplete` or `Timer` scheduled before it as stale.
    up: bool,
    stats: NodeStats,
}

impl<M> NodeEntry<M> {
    /// The next queued message, if the node is up and a core is free.
    fn next_job(&mut self) -> Option<Queued> {
        if self.up && self.busy_cores < self.cores {
            self.queue.pop_front()
        } else {
            None
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Hard cap on processed events (guards against runaway loops).
    pub max_events: u64,
}

impl SimConfig {
    /// Events the cap allows per microsecond of simulated horizon. Real
    /// workloads in this repo stay under ~2 events/µs even at the highest
    /// figure rates, so 64 only trips on genuine feedback loops.
    const EVENTS_PER_US: u64 = 64;
    /// Fixed allowance so short horizons still permit startup chatter.
    const SLACK_EVENTS: u64 = 4_000_000;

    /// Derives the runaway-loop cap from the experiment's time horizon
    /// instead of one hard-wired constant.
    pub fn for_horizon(horizon: Duration) -> Self {
        let us = horizon.as_nanos() / 1_000;
        SimConfig {
            max_events: us
                .saturating_mul(Self::EVENTS_PER_US)
                .saturating_add(Self::SLACK_EVENTS),
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_events: 2_000_000_000,
        }
    }
}

/// Raw node ids the dense index will allocate slots for. The id bands in
/// use (UE PoP 0, CTAs 1000+, CPFs 100_000+, UPFs 200_000+) stay far
/// below this; it only guards against accidentally indexing by a huge id.
const MAX_DENSE_ID: u64 = 1 << 24;

/// Slot sentinel meaning "no node registered at this raw id".
const NO_SLOT: u32 = u32::MAX;

/// Packs `kind` and schedules it at `at` under the next sequence number. It
/// takes the two fields it touches rather than the `Sim`, so `flush_outbox`
/// can call it while draining the scratch outbox in place. Inlined, with
/// the wheel's `push`, so the two words go from registers into the bucket.
#[inline(always)]
fn schedule(queue: &mut Wheel<Event>, seq: &mut u64, at: Instant, kind: EventKind) {
    queue.push(SchedKey { at, seq: *seq }, Event::pack(kind));
    *seq += 1;
}

/// The simulator.
pub struct Sim<M> {
    now: Instant,
    seq: u64,
    link_seq: u64,
    /// The calendar-queue scheduler; dispatch order is ascending
    /// [`SchedKey`] — see [`crate::wheel`] for the ordering definition.
    queue: Wheel<Event>,
    /// Bodies of the messages `queue` and the node queues refer to.
    bodies: Bodies<M>,
    /// Dense node slab; slots are assigned in `add_node` order.
    nodes: Vec<NodeEntry<M>>,
    /// Sparse raw-id → slot map (`NO_SLOT` = absent). Node ids are banded,
    /// not sequential, so a direct `Vec` index needs this indirection.
    slots: Vec<u32>,
    links: Links,
    config: SimConfig,
    /// The counters the engine keeps itself; [`Sim::sim_stats`] adds the
    /// depths and the slab size it reads off the structures.
    stats: SimStats,
    /// The outbox every `handle` call borrows; `flush_outbox` drains its
    /// buffers in place, so they are reused across calls.
    scratch: Outbox<M>,
    /// Optional delivery witness (every checked case installs one to hold
    /// the flow contract): called for every message actually enqueued at an
    /// up node, after fault filtering and before service. `None` on figure
    /// runs, so the hot path pays exactly one branch.
    tap: Option<DeliveryTap<M>>,
}

impl<M: Clone + 'static> Sim<M> {
    /// Creates a simulator over the given link table.
    pub fn new(links: Links) -> Self {
        Self::with_config(links, SimConfig::default())
    }

    /// Creates a simulator with explicit config.
    pub fn with_config(links: Links, config: SimConfig) -> Self {
        Sim {
            now: Instant::ZERO,
            seq: 0,
            link_seq: 0,
            queue: Wheel::new(),
            bodies: Bodies::new(),
            nodes: Vec::new(),
            slots: Vec::new(),
            links,
            config,
            stats: SimStats::default(),
            scratch: Outbox::default(),
            tap: None,
        }
    }

    /// Installs a delivery witness: `tap(at, from, to, &msg)` runs for
    /// every message actually enqueued at an up node (after
    /// loss/partition/down filtering, before service), `at` being its
    /// arrival instant. Every checked case installs one to record the
    /// protocol-flow edges it witnesses; figure runs never do.
    pub fn set_delivery_tap(&mut self, tap: DeliveryTap<M>) {
        self.tap = Some(tap);
    }

    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.stats.events_processed
    }

    /// Engine-level counters for this simulation so far.
    pub fn sim_stats(&self) -> SimStats {
        SimStats {
            max_queue_depth: self
                .nodes
                .iter()
                .map(|n| n.stats.max_queue_depth)
                .max()
                .unwrap_or(0),
            max_sched_depth: self.queue.max_depth() as u64,
            in_flight: self.bodies.len() as u64,
            ..self.stats
        }
    }

    /// Slot of `id` in the dense slab, if registered.
    #[inline]
    fn slot(&self, id: Id32) -> Option<usize> {
        match self.slots.get(id.0 as usize) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    /// Registers a node. Panics on duplicate ids.
    pub fn add_node(&mut self, id: NodeId, node: Box<dyn Node<M>>) {
        let raw = id.raw();
        assert!(
            raw < MAX_DENSE_ID,
            "node id {id} outside the dense-index range"
        );
        if self.slots.len() <= raw as usize {
            self.slots.resize(raw as usize + 1, NO_SLOT);
        }
        assert!(self.slots[raw as usize] == NO_SLOT, "duplicate node id {id}");
        self.slots[raw as usize] = self.nodes.len() as u32;
        self.nodes.push(NodeEntry {
            id,
            cores: node.cores(),
            node,
            queue: VecDeque::new(),
            busy_cores: 0,
            up: true,
            stats: NodeStats::default(),
        });
    }

    /// Mutable access to the links table (topology changes mid-run).
    pub fn links_mut(&mut self) -> &mut Links {
        &mut self.links
    }

    fn push(&mut self, at: Instant, kind: EventKind) {
        schedule(&mut self.queue, &mut self.seq, at, kind);
    }

    /// Injects a message from outside the simulated network, arriving at
    /// `to` at absolute time `at` (no link delay applied).
    pub fn inject_at(&mut self, at: Instant, to: NodeId, msg: M) {
        let msg = self.bodies.insert(msg);
        self.push(
            at,
            EventKind::Deliver {
                to: Id32::of(to),
                from: Id32::EXTERNAL,
                msg,
            },
        );
    }

    /// Schedules a crash of `node` at `at`: its queue and in-flight work are
    /// discarded, and the node stays down for the rest of the run, dropping
    /// every later arrival, completion and timer. Same-instant events run
    /// in scheduling order, so a crash scheduled before the run starts
    /// precedes every event the run schedules for `at`: the node loses a
    /// delivery arriving at exactly `at`, and everything after it.
    pub fn crash_at(&mut self, at: Instant, node: NodeId) {
        let node = Id32::of(node);
        self.push(at, EventKind::Crash { node });
    }

    /// Whether a node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.slot(Id32::of(node))
            .map(|s| self.nodes[s].up)
            .unwrap_or(false)
    }

    /// Statistics of a node.
    pub fn stats(&self, node: NodeId) -> Option<&NodeStats> {
        self.slot(Id32::of(node)).map(|s| &self.nodes[s].stats)
    }

    /// Downcasts a node to retrieve results after (or during) a run.
    pub fn node_as<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        let slot = self.slot(Id32::of(id))?;
        self.nodes[slot].node.as_any().downcast_mut::<T>()
    }

    /// Drains the scratch outbox into the event queue in place, leaving its
    /// buffers empty for reuse. Every send consults the fault layer: the
    /// link sequence advances exactly once per send (fault draws use salted
    /// hashes of the same sequence), so a fault-free run schedules the
    /// identical event stream the pre-fault-layer engine did. A lost or
    /// partitioned send never enters the body slab; a duplicate is cloned
    /// into a slot of its own.
    fn flush_outbox(&mut self, from: NodeId) {
        let out = &mut self.scratch;
        let now = out.now;
        let node = Id32::of(from);
        for (to, msg) in out.sends.drain(..) {
            let sequence = self.link_seq;
            self.link_seq += 1;
            match self.links.plan_delivery(from, to, sequence, now) {
                Delivery::Lost => self.stats.dropped_loss += 1,
                Delivery::Partitioned => self.stats.dropped_partition += 1,
                Delivery::Deliver {
                    delay,
                    duplicate,
                    reordered,
                } => {
                    if reordered {
                        self.stats.reordered += 1;
                    }
                    let (to, from) = (Id32::of(to), node);
                    if let Some(dup_delay) = duplicate {
                        self.stats.duplicated += 1;
                        let msg = self.bodies.insert(msg.clone());
                        schedule(
                            &mut self.queue,
                            &mut self.seq,
                            now + dup_delay,
                            EventKind::Deliver { to, from, msg },
                        );
                    }
                    let msg = self.bodies.insert(msg);
                    schedule(
                        &mut self.queue,
                        &mut self.seq,
                        now + delay,
                        EventKind::Deliver { to, from, msg },
                    );
                }
            }
        }
        for (delay, id) in out.timers.drain(..) {
            schedule(
                &mut self.queue,
                &mut self.seq,
                now + delay,
                EventKind::Timer { node, id },
            );
        }
    }

    /// Runs `entry.node.handle(event)` against the scratch outbox and
    /// flushes the effects. `slot` must be valid.
    fn handle_at(&mut self, slot: usize, event: NodeEvent<M>) {
        self.scratch.rearm(self.now);
        let entry = &mut self.nodes[slot];
        entry.node.handle(event, &mut self.scratch);
        let id = entry.id;
        self.flush_outbox(id);
    }

    /// Starts service of queued messages while the node has a free core;
    /// each completion carries the sender and the handle. The body stays
    /// in the slab: `service_time` borrows it there.
    fn try_start_jobs(&mut self, slot: usize) {
        let entry = &mut self.nodes[slot];
        let node = Id32::of(entry.id);
        while let Some((from, msg, enq)) = entry.next_job() {
            let Some(body) = self.bodies.get(msg) else {
                continue;
            };
            let st = entry.node.service_time(body);
            entry.busy_cores += 1;
            entry.stats.total_wait += self.now.saturating_since(enq);
            entry.stats.busy += st;
            schedule(
                &mut self.queue,
                &mut self.seq,
                self.now + st,
                EventKind::JobComplete { node, from, msg },
            );
        }
    }

    /// Dispatches one already-popped event at `self.now`.
    #[inline(always)]
    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Deliver { to, from, msg } => {
                let slot = match self.slot(to) {
                    Some(s) => s,
                    None => {
                        // Unknown destination: count it — a misrouted
                        // message vanishing silently is undebuggable.
                        self.stats.dropped_unroutable += 1;
                        self.bodies.take(msg);
                        return;
                    }
                };
                if !self.nodes[slot].up {
                    self.nodes[slot].stats.dropped_down += 1;
                    self.bodies.take(msg);
                    return;
                }
                if let Some(tap) = self.tap.as_mut() {
                    if let Some(body) = self.bodies.get(msg) {
                        tap(self.now, from.id(), self.nodes[slot].id, body);
                    }
                }
                let entry = &mut self.nodes[slot];
                entry.queue.push_back((from, msg, self.now));
                let depth = entry.queue.len();
                if depth > entry.stats.max_queue_depth {
                    entry.stats.max_queue_depth = depth;
                }
                self.try_start_jobs(slot);
            }
            EventKind::JobComplete { node, from, msg } => {
                // The one move of the body: out of the slab, into the
                // handler, or freed if the job cannot complete.
                let body = self.bodies.take(msg);
                let slot = match self.slot(node) {
                    Some(s) => s,
                    // A completion for a node that was never registered is
                    // just as misrouted as an unknown-destination Deliver:
                    // count it instead of vanishing silently.
                    None => {
                        self.stats.dropped_unroutable += 1;
                        return;
                    }
                };
                let entry = &mut self.nodes[slot];
                if !entry.up {
                    return; // stale: node crashed since this job began
                }
                entry.busy_cores -= 1;
                entry.stats.processed += 1;
                if let Some(msg) = body {
                    let from = from.id();
                    self.handle_at(slot, NodeEvent::Message { from, msg });
                }
                self.try_start_jobs(slot);
            }
            EventKind::Timer { node, id } => {
                let slot = match self.slot(node) {
                    Some(s) => s,
                    // Same unroutable accounting as Deliver/JobComplete.
                    None => {
                        self.stats.dropped_unroutable += 1;
                        return;
                    }
                };
                let entry = &mut self.nodes[slot];
                if !entry.up {
                    return;
                }
                entry.stats.timers += 1;
                // Every other kind ends with no job it could start, and a
                // timer touches neither the queue nor the cores.
                self.handle_at(slot, NodeEvent::Timer { id });
            }
            EventKind::Crash { node } => {
                if let Some(slot) = self.slot(node) {
                    let entry = &mut self.nodes[slot];
                    entry.up = false;
                    // The in-service bodies are freed by their completions,
                    // which find the node down.
                    entry.stats.dropped_crash += (entry.queue.len() + entry.busy_cores) as u64;
                    for (_, msg, _) in entry.queue.drain(..) {
                        self.bodies.take(msg);
                    }
                    entry.busy_cores = 0;
                }
            }
        }
    }

    /// Diagnostic panic when the event budget trips: reports where the
    /// simulation was and which node was drowning.
    fn panic_event_budget(&self) -> ! {
        let busiest = self
            .nodes
            .iter()
            .max_by_key(|e| e.queue.len())
            .map(|e| format!("{} with {} queued messages", e.id, e.queue.len()))
            .unwrap_or_else(|| "no nodes registered".to_string());
        panic!(
            "event budget of {} exhausted at virtual time {:.3}ms \
             ({} events in the heap; deepest backlog: {}) — \
             runaway feedback loop, or raise SimConfig::max_events",
            self.config.max_events,
            self.now.as_millis_f64(),
            self.queue.len(),
            busiest,
        );
    }

    /// Runs until the event queue drains or `deadline` passes, in the
    /// wheel's `(at, seq)` order. Returns the time of the last processed
    /// event.
    ///
    /// The runaway-loop event budget is enforced at dispatch-slice
    /// boundaries rather than per event; slices are truncated so the check
    /// trips at exactly the event a per-event check would have caught
    /// (same panic, same reported virtual time).
    pub fn run_until(&mut self, deadline: Instant) -> Instant {
        /// Events dispatched between budget checks.
        const SLICE: u64 = 1024;
        let alloc_start = crate::alloc_count::current();
        let mut slice_left = 0u64;
        loop {
            if slice_left == 0 {
                if self.stats.events_processed > self.config.max_events {
                    // Symmetric with the normal exit below: the sample must
                    // land before unwinding, or `SimStats::allocs` silently
                    // under-reports on budget-truncated runs.
                    self.stats.allocs += crate::alloc_count::current().wrapping_sub(alloc_start);
                    self.panic_event_budget();
                }
                // Truncate so the next boundary lands exactly on the first
                // event past the budget. The subtraction is safe (the check
                // above guarantees events_processed <= max_events); the +1
                // must saturate for max_events == u64::MAX.
                slice_left = SLICE
                    .min((self.config.max_events - self.stats.events_processed).saturating_add(1));
            }
            let Some((key, event)) = self.queue.pop_due(deadline) else {
                break;
            };
            self.stats.events_processed += 1;
            slice_left -= 1;
            debug_assert!(key.at >= self.now, "time went backwards");
            self.now = key.at;
            self.dispatch(event.kind());
        }
        self.stats.allocs += crate::alloc_count::current().wrapping_sub(alloc_start);
        self.now
    }

    /// Runs until the queue is fully drained.
    pub fn run_to_completion(&mut self) -> Instant {
        self.run_until(Instant::FAR_FUTURE)
    }

    /// Time of the next scheduled event, if any. A checking harness that
    /// pauses the run at fixed invariant intervals uses this to skip over
    /// stretches of empty virtual time (long drain tails, sparse periodic
    /// timers) without perturbing the event stream: between two events the
    /// cluster state cannot change, so a skipped pause would have observed
    /// exactly what the previous one did.
    pub fn next_event_at(&self) -> Option<Instant> {
        self.queue.min_key().map(|k| k.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::LinkSpec;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Echoes every message back to its sender after a fixed service time.
    struct Echo {
        service: Duration,
        seen: Vec<u64>,
    }

    impl Node<u64> for Echo {
        fn service_time(&self, _msg: &u64) -> Duration {
            self.service
        }
        fn handle(&mut self, event: NodeEvent<u64>, out: &mut Outbox<u64>) {
            if let NodeEvent::Message { from, msg } = event {
                self.seen.push(msg);
                if from != NodeId::EXTERNAL {
                    out.send(from, msg + 1000);
                }
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_node_sim(service: Duration, latency: Duration) -> (Sim<u64>, NodeId, NodeId) {
        let links = Links::with_default(LinkSpec::fixed(latency));
        let mut sim = Sim::new(links);
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        sim.add_node(
            a,
            Box::new(Kicker {
                peer: b,
                count: 3,
                replies: Vec::new(),
            }),
        );
        sim.add_node(
            b,
            Box::new(Echo {
                service,
                seen: Vec::new(),
            }),
        );
        (sim, a, b)
    }

    /// Replies to an external kick by pinging its peer `count` times.
    struct Kicker {
        peer: NodeId,
        count: u64,
        replies: Vec<(u64, Instant)>,
    }

    impl Node<u64> for Kicker {
        fn service_time(&self, _msg: &u64) -> Duration {
            Duration::ZERO
        }
        fn handle(&mut self, event: NodeEvent<u64>, out: &mut Outbox<u64>) {
            if let NodeEvent::Message { from, msg } = event {
                if from == NodeId::EXTERNAL {
                    for i in 0..self.count {
                        out.send(self.peer, i);
                    }
                } else {
                    self.replies.push((msg, out.now()));
                }
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn request_response_round_trip_timing() {
        let links = Links::with_default(LinkSpec::fixed(Duration::from_micros(50)));
        let mut sim = Sim::new(links);
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        sim.add_node(
            a,
            Box::new(Kicker {
                peer: b,
                count: 1,
                replies: Vec::new(),
            }),
        );
        sim.add_node(
            b,
            Box::new(Echo {
                service: Duration::from_micros(10),
                seen: Vec::new(),
            }),
        );
        sim.inject_at(Instant::ZERO, a, 0);
        sim.run_to_completion();
        let kicker = sim.node_as::<Kicker>(a).unwrap();
        // 50µs there + 10µs service + 50µs back = 110µs.
        assert_eq!(kicker.replies, vec![(1000, Instant::from_micros(110))]);
    }

    #[test]
    fn fifo_single_core_queueing() {
        // 3 simultaneous messages, 10µs service: completions at 10/20/30µs.
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let b = NodeId::new(2);
        sim.add_node(
            b,
            Box::new(Echo {
                service: Duration::from_micros(10),
                seen: Vec::new(),
            }),
        );
        for i in 0..3 {
            sim.inject_at(Instant::ZERO, b, i);
        }
        let end = sim.run_to_completion();
        assert_eq!(end, Instant::from_micros(30));
        let stats = sim.stats(b).unwrap();
        assert_eq!(stats.processed, 3);
        // Waits: 0 + 10 + 20 = 30µs.
        assert_eq!(stats.total_wait, Duration::from_micros(30));
        // msg0 starts service on arrival, so only msg1+msg2 ever queue.
        assert_eq!(stats.max_queue_depth, 2);
        let echo = sim.node_as::<Echo>(b).unwrap();
        assert_eq!(echo.seen, vec![0, 1, 2], "FIFO order preserved");
    }

    /// Echo with two cores.
    struct Echo2(Echo);
    impl Node<u64> for Echo2 {
        fn service_time(&self, msg: &u64) -> Duration {
            self.0.service_time(msg)
        }
        fn handle(&mut self, event: NodeEvent<u64>, out: &mut Outbox<u64>) {
            self.0.handle(event, out)
        }
        fn cores(&self) -> usize {
            2
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn multicore_halves_completion_time() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let b = NodeId::new(2);
        sim.add_node(
            b,
            Box::new(Echo2(Echo {
                service: Duration::from_micros(10),
                seen: Vec::new(),
            })),
        );
        for i in 0..4 {
            sim.inject_at(Instant::ZERO, b, i);
        }
        let end = sim.run_to_completion();
        assert_eq!(end, Instant::from_micros(20), "4 jobs on 2 cores at 10µs");
    }

    #[test]
    fn crash_drops_queue_and_in_flight_work() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let b = NodeId::new(2);
        sim.add_node(
            b,
            Box::new(Echo {
                service: Duration::from_micros(100),
                seen: Vec::new(),
            }),
        );
        for i in 0..5 {
            sim.inject_at(Instant::ZERO, b, i);
        }
        // Crash mid-service of the first job.
        sim.crash_at(Instant::from_micros(50), b);
        // A message arriving while down is dropped.
        sim.inject_at(Instant::from_micros(60), b, 100);
        sim.run_to_completion();
        let stats = sim.stats(b).unwrap();
        assert_eq!(stats.processed, 0, "nothing completed before the crash");
        assert_eq!(stats.dropped_crash, 5);
        assert_eq!(stats.dropped_down, 1);
        let echo = sim.node_as::<Echo>(b).unwrap();
        assert!(
            echo.seen.is_empty(),
            "the completion due after the crash is stale"
        );
    }

    /// The tie rule a crash point rests on: a crash scheduled before the
    /// run wins the same-instant tie, so a delivery arriving at exactly
    /// the crash instant is dropped as down and never reaches the tap,
    /// while the tap reports each earlier delivery at its arrival instant.
    #[test]
    fn a_crash_scheduled_before_the_run_wins_the_same_instant_tie() {
        let (mut sim, a, b) = two_node_sim(Duration::ZERO, Duration::from_micros(10));
        let seen: Rc<RefCell<Vec<(Instant, u64)>>> = Rc::default();
        let sink = Rc::clone(&seen);
        sim.set_delivery_tap(Box::new(move |at, _, to, msg| {
            if to == b {
                sink.borrow_mut().push((at, *msg));
            }
        }));
        // Each kick makes `a` ping `b` three times over the 10 µs link: the
        // first batch reaches `b` at 10 µs, the second at the crash instant.
        sim.inject_at(Instant::ZERO, a, 0);
        sim.inject_at(Instant::from_micros(20), a, 0);
        sim.crash_at(Instant::from_micros(30), b);
        sim.run_to_completion();
        let at = Instant::from_micros(10);
        assert_eq!(*seen.borrow(), [(at, 0), (at, 1), (at, 2)]);
        let stats = sim.stats(b).unwrap();
        assert_eq!((stats.processed, stats.dropped_down), (3, 3));
    }

    /// Arms a 100 µs timer on every message and counts the ones that fire.
    struct Alarm {
        fired: u64,
    }

    impl Node<u64> for Alarm {
        fn service_time(&self, _msg: &u64) -> Duration {
            Duration::ZERO
        }
        fn handle(&mut self, event: NodeEvent<u64>, out: &mut Outbox<u64>) {
            match event {
                NodeEvent::Message { .. } => out.set_timer(Duration::from_micros(100), 0),
                NodeEvent::Timer { .. } => self.fired += 1,
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Pin: a crashed node stays down, so `up` alone marks the timer it
    /// armed before the crash as stale.
    #[test]
    fn crashed_node_never_fires_an_earlier_timer() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let b = NodeId::new(2);
        sim.add_node(b, Box::new(Alarm { fired: 0 }));
        sim.inject_at(Instant::ZERO, b, 0);
        sim.crash_at(Instant::from_micros(50), b);
        sim.run_to_completion();
        assert_eq!(sim.stats(b).unwrap().timers, 0);
        assert_eq!(sim.node_as::<Alarm>(b).unwrap().fired, 0);
        assert!(!sim.is_up(b));
    }

    #[test]
    fn link_latency_delays_delivery() {
        let (mut sim, a, _b) = two_node_sim(Duration::ZERO, Duration::from_millis(1));
        sim.inject_at(Instant::ZERO, a, 0);
        sim.run_to_completion();
        // 3 pings: out at t=0, arrive 1ms, replies arrive 2ms.
        assert_eq!(sim.now(), Instant::from_millis(2));
        let kicker = sim.node_as::<Kicker>(a).unwrap();
        assert_eq!(kicker.replies.len(), 3);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let (mut sim, _a, b) =
                two_node_sim(Duration::from_micros(13), Duration::from_micros(97));
            for i in 0..50 {
                sim.inject_at(Instant::from_micros(i * 7), b, i);
            }
            sim.run_to_completion();
            (
                sim.now(),
                sim.events_processed(),
                sim.stats(b).unwrap().total_wait,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn duplicate_node_panics() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim: Sim<u64> = Sim::new(links);
        sim.add_node(
            NodeId::new(1),
            Box::new(Echo {
                service: Duration::ZERO,
                seen: Vec::new(),
            }),
        );
        sim.add_node(
            NodeId::new(1),
            Box::new(Echo {
                service: Duration::ZERO,
                seen: Vec::new(),
            }),
        );
    }

    /// Echo whose service time is the message value in microseconds.
    struct VarEcho {
        cores: usize,
        seen: Vec<u64>,
    }

    impl Node<u64> for VarEcho {
        fn service_time(&self, msg: &u64) -> Duration {
            Duration::from_micros(*msg)
        }
        fn handle(&mut self, event: NodeEvent<u64>, _out: &mut Outbox<u64>) {
            if let NodeEvent::Message { msg, .. } = event {
                self.seen.push(msg);
            }
        }
        fn cores(&self) -> usize {
            self.cores
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn multicore_jobs_complete_out_of_submission_order() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let b = NodeId::new(2);
        sim.add_node(b, Box::new(VarEcho { cores: 2, seen: Vec::new() }));
        // Job 0 takes 100µs, job 1 takes 10µs: both start at t=0 on separate
        // cores, and the later-submitted job finishes first.
        sim.inject_at(Instant::ZERO, b, 100);
        sim.inject_at(Instant::ZERO, b, 10);
        sim.run_to_completion();
        let echo = sim.node_as::<VarEcho>(b).unwrap();
        assert_eq!(echo.seen, vec![10, 100], "completion order, not FIFO");
    }

    /// Pin: the queue statistics against hand-computed values. A delivery
    /// to an idle node records a depth of 1 and no wait. `serve` injects
    /// `(µs, service µs)` arrivals and returns the stats and the handler's
    /// order.
    #[test]
    fn queue_stats_match_hand_computed_values() {
        let serve = |cores: usize, arrivals: &[(u64, u64)]| {
            let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
            let mut sim = Sim::new(links);
            let b = NodeId::new(2);
            sim.add_node(
                b,
                Box::new(VarEcho {
                    cores,
                    seen: Vec::new(),
                }),
            );
            for &(at, service) in arrivals {
                sim.inject_at(Instant::from_micros(at), b, service);
            }
            sim.run_to_completion();
            let s = sim.stats(b).unwrap();
            let got = (s.max_queue_depth, s.total_wait, s.busy, s.processed);
            (got, sim.node_as::<VarEcho>(b).unwrap().seen.clone())
        };
        let us = Duration::from_micros;
        // One delivery to an idle node never waits.
        assert_eq!(serve(1, &[(0, 7)]), ((1, us(0), us(7), 1), vec![7]));
        // Two same-instant deliveries behind a busy core queue 2 deep and
        // are served FIFO: they wait 10 − 1 and 20 − 1 µs.
        assert_eq!(
            serve(1, &[(0, 10), (1, 10), (1, 10)]),
            ((2, us(28), us(30), 3), vec![10, 10, 10])
        );
        // A backlog on two cores: 30 and 10 start at once; 20 starts at 10
        // µs, 5 and 1 at 30 µs, when both cores free up in the order the
        // jobs started.
        assert_eq!(
            serve(2, &[(0, 30), (0, 10), (0, 20), (0, 5), (0, 1)]),
            ((3, us(70), us(66), 5), vec![10, 30, 20, 1, 5])
        );
    }

    #[test]
    fn horizon_derived_budget_scales_with_horizon() {
        let short = SimConfig::for_horizon(Duration::from_millis(1));
        let long = SimConfig::for_horizon(Duration::from_secs(10));
        assert!(short.max_events < long.max_events);
        // 1ms horizon: 1000µs * 64 + slack.
        assert_eq!(short.max_events, 1000 * 64 + 4_000_000);
        // Degenerate horizons still leave room for startup work.
        assert!(SimConfig::for_horizon(Duration::ZERO).max_events >= 4_000_000);
    }

    #[test]
    #[should_panic(expected = "event budget")]
    fn event_budget_panic_is_descriptive() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::with_config(links, SimConfig { max_events: 4 });
        let b = NodeId::new(2);
        sim.add_node(
            b,
            Box::new(Echo {
                service: Duration::from_micros(10),
                seen: Vec::new(),
            }),
        );
        for i in 0..10 {
            sim.inject_at(Instant::ZERO, b, i);
        }
        sim.run_to_completion();
    }

    /// Runs `sim` to completion and returns the event-budget panic's
    /// message.
    fn budget_panic(sim: &mut Sim<u64>) -> String {
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_to_completion();
        }));
        *panicked
            .expect_err("budget must trip")
            .downcast::<String>()
            .expect("panic payload is a formatted string")
    }

    /// The budget check runs once per dispatch slice, but slices are
    /// truncated so it still trips at exactly the event a per-event check
    /// catches: events_processed stops at `max_events + 1`, never rounded
    /// up to a slice boundary. Uses a budget that is neither a multiple of
    /// the slice size nor smaller than one slice. Event 1501 is a
    /// completion whose handler runs.
    #[test]
    fn budget_trips_at_exactly_the_per_event_boundary() {
        let max_events = 1500u64;
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::with_config(links, SimConfig { max_events });
        let b = NodeId::new(2);
        sim.add_node(
            b,
            Box::new(Echo {
                service: Duration::from_micros(1),
                seen: Vec::new(),
            }),
        );
        for i in 0..2_000u64 {
            sim.inject_at(Instant::from_micros(i), b, i);
        }
        let msg = budget_panic(&mut sim);
        assert!(msg.contains("event budget of 1500 exhausted"), "{msg}");
        assert_eq!(
            sim.events_processed(),
            max_events + 1,
            "slice truncation must stop at the first over-budget event"
        );
        let echo = sim.node_as::<Echo>(b).unwrap();
        assert_eq!(echo.seen, (0..750).collect::<Vec<_>>());
    }

    /// `max_events: u64::MAX` is the natural "disable the budget" value;
    /// the slice-size computation must not overflow on it (debug panic /
    /// release wrap to a zero-sized slice).
    #[test]
    fn unbounded_event_budget_does_not_overflow_slice_math() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::with_config(
            links,
            SimConfig {
                max_events: u64::MAX,
            },
        );
        let b = NodeId::new(2);
        sim.add_node(
            b,
            Box::new(Echo {
                service: Duration::from_micros(1),
                seen: Vec::new(),
            }),
        );
        for i in 0..10u64 {
            sim.inject_at(Instant::from_micros(i), b, i);
        }
        sim.run_to_completion();
        let echo = sim.node_as::<Echo>(b).unwrap();
        assert_eq!(echo.seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn unroutable_deliveries_are_counted() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let a = NodeId::new(1);
        let ghost = NodeId::new(99);
        sim.add_node(
            a,
            Box::new(Kicker {
                peer: ghost, // pings a node that was never registered
                count: 3,
                replies: Vec::new(),
            }),
        );
        sim.inject_at(Instant::ZERO, a, 0);
        sim.run_to_completion();
        assert_eq!(sim.sim_stats().dropped_unroutable, 3);
    }

    /// Pin: a `JobComplete` for a node that was never registered is
    /// misrouted exactly like an unknown-destination `Deliver` and must
    /// hit the same counter instead of vanishing silently.
    #[test]
    fn unroutable_job_completions_are_counted() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim: Sim<u64> = Sim::new(links);
        let msg = sim.bodies.insert(7);
        sim.push(
            Instant::from_micros(1),
            EventKind::JobComplete {
                node: Id32::of(NodeId::new(99)),
                from: Id32::EXTERNAL,
                msg,
            },
        );
        sim.run_to_completion();
        assert_eq!(sim.sim_stats().dropped_unroutable, 1);
        assert_eq!(sim.sim_stats().in_flight, 0, "the dropped body is freed");
    }

    /// Pin: same accounting for a `Timer` aimed at an unknown node.
    #[test]
    fn unroutable_timers_are_counted() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim: Sim<u64> = Sim::new(links);
        sim.push(
            Instant::from_micros(1),
            EventKind::Timer {
                node: Id32::of(NodeId::new(99)),
                id: 0,
            },
        );
        sim.run_to_completion();
        assert_eq!(sim.sim_stats().dropped_unroutable, 1);
    }

    /// Reports one fake heap allocation per handled message, exercising
    /// the [`crate::alloc_count`] sampling in `run_until`.
    struct Alloky;

    impl Node<u64> for Alloky {
        fn service_time(&self, _msg: &u64) -> Duration {
            Duration::from_micros(1)
        }
        fn handle(&mut self, event: NodeEvent<u64>, _out: &mut Outbox<u64>) {
            if let NodeEvent::Message { .. } = event {
                crate::alloc_count::record(1);
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Pin: the budget-panic exit must take the same allocation sample the
    /// normal exit takes, or `SimStats::allocs` silently reads zero for
    /// exactly the truncated runs whose panic message people debug with.
    #[test]
    fn budget_panic_exit_still_accumulates_allocs() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::with_config(links, SimConfig { max_events: 6 });
        let b = NodeId::new(2);
        sim.add_node(b, Box::new(Alloky));
        for i in 0..20u64 {
            sim.inject_at(Instant::from_micros(i), b, i);
        }
        budget_panic(&mut sim);
        assert!(
            sim.sim_stats().allocs >= 1,
            "allocations recorded before the budget panic must survive it"
        );
    }

    /// Every path that discards a message frees its body: a crash's queued
    /// work at once, its in-service work at the stale completion, a delivery
    /// to a down node and one to an unregistered id.
    #[test]
    fn every_discard_path_frees_its_body() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let b = NodeId::new(2);
        sim.add_node(
            b,
            Box::new(Echo {
                service: Duration::from_micros(1),
                seen: Vec::new(),
            }),
        );
        // At t=0 the first message enters service, four queue behind it,
        // then the crash (scheduled after them) discards all five: the four
        // queued bodies at once, the one in service when its completion
        // finds the node down at 1 µs.
        for i in 0..5 {
            sim.inject_at(Instant::ZERO, b, i);
        }
        sim.crash_at(Instant::ZERO, b);
        sim.inject_at(Instant::from_micros(5), b, 100); // b is down
        sim.inject_at(Instant::from_micros(5), NodeId::new(99), 101); // unregistered
        assert_eq!(sim.sim_stats().in_flight, 7);

        sim.run_until(Instant::ZERO);
        assert_eq!(sim.stats(b).unwrap().dropped_crash, 5);
        assert_eq!(
            sim.sim_stats().in_flight,
            3,
            "the crash freed its four queued"
        );
        sim.run_until(Instant::from_micros(1));
        assert_eq!(
            sim.sim_stats().in_flight,
            2,
            "the stale completion freed its body"
        );

        sim.run_to_completion();
        assert_eq!(sim.stats(b).unwrap().dropped_down, 1);
        assert_eq!(sim.sim_stats().dropped_unroutable, 1);
        assert_eq!(sim.sim_stats().in_flight, 0, "both drops freed theirs");
    }

    /// Pin: a scheduled event carries a handle and 4-byte node ids, never a
    /// body, so a wheel entry is 32 bytes whatever the message type; node
    /// queues hold 16-byte tuples.
    #[test]
    fn scheduled_and_queued_entries_carry_no_body() {
        use std::mem::size_of;
        assert_eq!(size_of::<Event>(), 16);
        assert_eq!(size_of::<(SchedKey, Event)>(), 32);
        assert_eq!(size_of::<Queued>(), 16);
    }

    #[test]
    fn events_round_trip_through_two_words() {
        let top = Id32((1 << 24) - 1);
        let msg = MsgId(u32::MAX - 1);
        let mut kinds = Vec::new();
        for (a, b) in [
            (top, Id32::EXTERNAL),
            (Id32::EXTERNAL, top),
            (Id32(0), Id32(0)),
        ] {
            for m in [msg, MsgId(0)] {
                kinds.push(EventKind::Deliver {
                    to: a,
                    from: b,
                    msg: m,
                });
                kinds.push(EventKind::JobComplete {
                    node: a,
                    from: b,
                    msg: m,
                });
            }
        }
        for node in [top, Id32(0), Id32::EXTERNAL] {
            for id in [0, 1 << 32, u64::MAX, u64::from(u32::MAX)] {
                kinds.push(EventKind::Timer { node, id });
            }
            kinds.push(EventKind::Crash { node });
        }
        for kind in kinds {
            assert_eq!(Event::pack(kind).kind(), kind);
        }
    }

    #[test]
    fn routable_traffic_never_touches_the_unroutable_counter() {
        let (mut sim, a, _b) = two_node_sim(Duration::from_micros(5), Duration::from_micros(20));
        sim.inject_at(Instant::ZERO, a, 0);
        sim.run_to_completion();
        let stats = sim.sim_stats();
        debug_assert_eq!(stats.dropped_unroutable, 0);
        assert_eq!(stats.dropped_unroutable, 0);
    }

    #[test]
    fn total_loss_blackholes_the_link() {
        let (mut sim, a, b) = two_node_sim(Duration::ZERO, Duration::from_micros(10));
        sim.links_mut().set_fault_default(crate::links::FaultSpec {
            loss: 1.0,
            ..crate::links::FaultSpec::NONE
        });
        sim.inject_at(Instant::ZERO, a, 0);
        sim.run_to_completion();
        let echo = sim.node_as::<Echo>(b).unwrap();
        assert!(echo.seen.is_empty(), "every ping was lost");
        assert_eq!(sim.sim_stats().dropped_loss, 3);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let (mut sim, a, b) = two_node_sim(Duration::ZERO, Duration::from_micros(10));
        sim.links_mut().set_fault_default(crate::links::FaultSpec {
            duplicate: 1.0,
            ..crate::links::FaultSpec::NONE
        });
        sim.inject_at(Instant::ZERO, a, 0);
        sim.run_to_completion();
        let stats = sim.sim_stats();
        // 3 pings and their 6 echoes, each duplicated once.
        assert_eq!(stats.duplicated, 9);
        let echo = sim.node_as::<Echo>(b).unwrap();
        assert_eq!(echo.seen.len(), 6, "each of 3 pings arrived twice");
        assert_eq!(sim.node_as::<Kicker>(a).unwrap().replies.len(), 12);
    }

    #[test]
    fn partition_window_drops_then_heals() {
        let (mut sim, a, b) = two_node_sim(Duration::ZERO, Duration::ZERO);
        // Kicker sends its pings at t=0; partition covers that instant.
        sim.links_mut()
            .add_partition(a, b, Instant::ZERO, Instant::from_micros(1));
        sim.inject_at(Instant::ZERO, a, 0);
        // A second kick after the window: traffic flows again.
        sim.inject_at(Instant::from_micros(5), a, 0);
        sim.run_to_completion();
        let stats = sim.sim_stats();
        assert_eq!(stats.dropped_partition, 3);
        let echo = sim.node_as::<Echo>(b).unwrap();
        assert_eq!(echo.seen.len(), 3, "only the post-heal pings arrived");
    }

    #[test]
    fn faulty_runs_replay_identically() {
        let run = || {
            let (mut sim, a, b) =
                two_node_sim(Duration::from_micros(13), Duration::from_micros(97));
            sim.links_mut().set_seed(7);
            sim.links_mut().set_fault_default(crate::links::FaultSpec {
                loss: 0.2,
                duplicate: 0.2,
                reorder: 0.3,
                reorder_window: Duration::from_micros(200),
            });
            for i in 0..50 {
                sim.inject_at(Instant::from_micros(i * 7), a, i);
            }
            sim.run_to_completion();
            let stats = sim.sim_stats();
            (
                sim.now(),
                sim.events_processed(),
                stats.dropped_loss,
                stats.duplicated,
                stats.reordered,
                sim.node_as::<Echo>(b).unwrap().seen.clone(),
            )
        };
        let first = run();
        assert!(
            first.2 > 0 && first.3 > 0 && first.4 > 0,
            "faults actually fired: {first:?}"
        );
        assert_eq!(first, run());
    }

    #[test]
    fn sim_stats_tracks_events_and_depths() {
        let (mut sim, _a, b) = two_node_sim(Duration::from_micros(5), Duration::from_micros(20));
        for i in 0..100 {
            sim.inject_at(Instant::from_micros(i), b, i);
        }
        sim.run_to_completion();
        let stats = sim.sim_stats();
        assert_eq!(stats.events_processed, sim.events_processed());
        assert!(stats.events_processed > 100);
        // All 100 injections are scheduled up front; arriving 1 µs apart
        // against a 5 µs service time, they back up behind the single core.
        assert!(stats.max_sched_depth >= 100);
        assert!(stats.max_queue_depth > 1);
        assert_eq!(stats.max_queue_depth, sim.stats(b).unwrap().max_queue_depth);
        assert_eq!(stats.dropped_unroutable, 0);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let b = NodeId::new(2);
        sim.add_node(
            b,
            Box::new(Echo {
                service: Duration::from_micros(10),
                seen: Vec::new(),
            }),
        );
        for i in 0..10 {
            sim.inject_at(Instant::from_micros(i * 100), b, i);
        }
        sim.run_until(Instant::from_micros(450));
        let stats = sim.stats(b).unwrap();
        assert_eq!(stats.processed, 5);
        sim.run_to_completion();
        assert_eq!(sim.stats(b).unwrap().processed, 10);
    }
}
