//! Choice-point interposition for bounded exhaustive interleaving checks.
//!
//! The engine has one dispatch loop and two orders it can pop in.
//! [`Sim::run_until_chosen`](crate::Sim::run_until_chosen) runs that loop in
//! the chosen order: whenever **two or more deliveries are simultaneously
//! enabled at the same tick**, it asks a [`Chooser`] which one to dispatch
//! first. The [`IdentityChooser`] always picks the lowest sequence number,
//! which reproduces `run_until`'s `(at, seq)` order exactly — so
//! instrumented runs with the identity chooser are byte-identical to
//! `run_until` and no golden or corpus pin can observe the instrumentation.
//!
//! A model checker (see `crates/check`, `mcheck`) drives this with a
//! scripted chooser to enumerate delivery interleavings of a small
//! configuration; the engine only supplies the mechanism (which orders are
//! *schedulable*), never the search policy (which orders are *worth
//! exploring*).

use crate::engine::NodeId;
use neutrino_common::time::Instant;

/// One delivery the engine could dispatch next at the current tick.
///
/// Entries are presented in ascending `seq` order, so index 0 is always
/// the delivery `run_until` would run first.
#[derive(Debug)]
pub struct Enabled<'a, M> {
    /// Push sequence (`run_until`'s tie-break within a tick).
    pub seq: u64,
    /// Sending node ([`NodeId::EXTERNAL`] for injected messages).
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Borrowed message payload, so a policy can key on content (e.g.
    /// per-UE FIFO streams) without the engine knowing the protocol.
    pub msg: &'a M,
}

/// Context handed to a [`Chooser`] at each choice point.
#[derive(Debug, Clone, Copy)]
pub struct ChoiceCtx {
    /// The tick every enabled delivery is scheduled at.
    pub now: Instant,
    /// Deliveries dispatched so far in the chosen order (the depth coordinate
    /// a bounded search counts against).
    pub deliveries: u64,
    /// Order-canonical hash of the dispatch history so far — see
    /// [`crate::Sim::choice_state_hash`] for what it does and does not
    /// distinguish.
    pub state_hash: u64,
    /// True when a non-delivery event (timer, job completion or crash) is
    /// also staged at this tick. Orders across such a barrier
    /// do **not** commute (delivering before vs. after a crash differs),
    /// so independence-based pruning must be disabled here.
    pub barrier: bool,
}

/// Picks which of several simultaneously-enabled deliveries runs next.
pub trait Chooser<M> {
    /// Returns an index into `enabled`. Called only when
    /// `enabled.len() >= 2`; an out-of-range index panics the run.
    fn choose(&mut self, ctx: &ChoiceCtx, enabled: &[Enabled<'_, M>]) -> usize;
}

/// The chooser that reproduces `run_until` exactly: always the
/// lowest-`seq` enabled delivery, i.e. the event `run_until` would pop.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdentityChooser;

impl<M> Chooser<M> for IdentityChooser {
    fn choose(&mut self, _ctx: &ChoiceCtx, _enabled: &[Enabled<'_, M>]) -> usize {
        0
    }
}

/// Per-engine bookkeeping for the chosen order, lazily created on the
/// first `run_until_chosen` call and persisting across pause/resume calls.
#[derive(Default)]
pub(crate) struct ChoiceState {
    /// Per-slot dispatch-history hash chains. Each dispatched event is
    /// folded into its *target* node's chain, so the chain encodes that
    /// node's event order while saying nothing about how events at
    /// different nodes interleaved.
    pub(crate) chains: Vec<u64>,
    /// Deliveries dispatched in the chosen order.
    pub(crate) deliveries: u64,
}
