//! Pluggable in-run invariant oracles.
//!
//! `neutrino_core::audit` checks cross-node consistency once, at
//! hand-picked instants. This module generalizes it into an [`Invariant`]
//! trait [`run`](crate::run) evaluates at *configurable sim-time
//! intervals*: each invariant inspects the paused cluster read-only (never
//! injecting events, so the deterministic event schedule is unperturbed)
//! and reports violations as structured traces. The catalog of
//! implementations is [`invariants`](crate::invariants).

use neutrino_common::time::Instant;
use neutrino_common::UeId;
use neutrino_core::Cluster;

/// One observed invariant violation: a structured trace entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The invariant that fired (its stable catalog name).
    pub invariant: &'static str,
    /// Virtual time of the oracle pass that observed it.
    pub at: Instant,
    /// The UE concerned, when the violation is per-UE.
    pub ue: Option<UeId>,
    /// Human-readable specifics.
    pub detail: String,
}

/// What an invariant sees at each oracle pass: the paused cluster plus the
/// pass's position in the run. All inspection must be read-only — the
/// engine's event stream continues from exactly this state.
pub struct OracleCtx<'a> {
    /// The paused cluster.
    pub cluster: &'a mut Cluster,
    /// Virtual time of this pass.
    pub now: Instant,
    /// True on the last pass, after the horizon: end-of-run-only checks
    /// (e.g. "no procedure left in flight") gate on this.
    pub final_pass: bool,
}

/// A pluggable, possibly stateful invariant checked at sim-time intervals.
///
/// Implementations may keep cross-pass state (watermarks, counters); a
/// fresh instance is created per run, and passes arrive in increasing
/// virtual-time order.
pub trait Invariant {
    /// Stable catalog name (used in violation traces and scenario specs).
    fn name(&self) -> &'static str;

    /// Inspects the paused cluster; returns this pass's violations.
    fn check(&mut self, ctx: &mut OracleCtx<'_>) -> Vec<Violation>;
}
