//! A deterministic discrete-event network simulator.
//!
//! This crate is the substitute for the paper's two-server DPDK testbed
//! (§6.1). It models exactly what the procedure-completion-time experiments
//! depend on:
//!
//! * **per-node service queues** — every node is a multi-core FIFO server;
//!   each message charges a service time the node declares (in our system,
//!   the calibrated serialization + state-update cost), which is what makes
//!   saturation knees appear at the right arrival rates;
//! * **links** — point-to-point propagation delays with optional
//!   deterministic jitter;
//! * **failure injection** — a crash drops a node's queue and in-flight
//!   work and keeps it down, as §6.4's failed CPF stays down;
//! * **timers** — zero-cost internal events (log pruning scans, ACK
//!   timeouts).
//!
//! One dispatch loop ([`Sim::run_until`]) runs those four event kinds in
//! the scheduler's `(time, seq)` order.
//!
//! The engine is generic over the message type `M`, carries no cellular
//! logic, and is fully deterministic: same nodes + same schedule + same seed
//! → identical event trace.
//!
//! Protocol state machines implement [`Node`] and communicate only through
//! the [`Outbox`] handed to them — the sans-IO idiom: the same state
//! machines run under the real-time driver in `neutrino-net`.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod alloc_count;
pub mod engine;
pub mod links;
pub mod stats;
pub mod wheel;

pub use engine::{DeliveryTap, Node, NodeEvent, NodeId, Outbox, Sim, SimConfig};
pub use links::{Delivery, FaultSpec, LinkSpec, Links};
pub use stats::{NodeStats, SimStats};
pub use wheel::{ReferenceHeap, SchedKey, Wheel};
