//! Choice-point interposition for bounded exhaustive interleaving checks.
//!
//! The engine has one dispatch loop and two orders it can pop in. With a
//! [`Chooser`] installed ([`Sim::set_chooser`](crate::Sim::set_chooser)),
//! `run_until` runs that loop in the chosen order: whenever **two or more
//! deliveries are simultaneously enabled at the same tick**, it asks the
//! chooser which one to dispatch first. The [`IdentityChooser`] always picks
//! the first (lowest-sequence) delivery, which reproduces the plain
//! `(at, seq)` order exactly — so instrumented runs with the identity
//! chooser are byte-identical to uninstrumented ones and no golden or
//! corpus pin can observe the instrumentation.
//!
//! A model checker (see `crates/check`, `mcheck`) drives this with a
//! scripted chooser to enumerate delivery interleavings of a small
//! configuration; the engine only supplies the mechanism (which orders are
//! *schedulable*), never the search policy (which orders are *worth
//! exploring*).

use crate::engine::NodeId;

/// One delivery the engine could dispatch next at the current tick.
///
/// Entries are presented in push order, so index 0 is always the delivery
/// the plain `(at, seq)` order would run first.
#[derive(Debug)]
pub struct Enabled<'a, M> {
    /// Sending node ([`NodeId::EXTERNAL`] for injected messages).
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Borrowed message payload, so a policy can key on content (e.g.
    /// per-UE FIFO streams) without the engine knowing the protocol.
    pub msg: &'a M,
}

/// Picks which of several simultaneously-enabled deliveries runs next.
pub trait Chooser<M> {
    /// Returns an index into `enabled`. Called only when
    /// `enabled.len() >= 2`; an out-of-range index panics the run.
    ///
    /// `barrier` is true when a non-delivery event (timer, job completion
    /// or crash) is also staged at this tick. Orders across such a barrier
    /// do **not** commute (delivering before vs. after a crash differs),
    /// so independence-based pruning must be disabled here.
    fn choose(&mut self, barrier: bool, enabled: &[Enabled<'_, M>]) -> usize;
}

/// The chooser that reproduces the plain order exactly: always the first
/// enabled delivery, i.e. the event the wheel would pop.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdentityChooser;

impl<M> Chooser<M> for IdentityChooser {
    fn choose(&mut self, _barrier: bool, _enabled: &[Enabled<'_, M>]) -> usize {
        0
    }
}
