//! Pluggable in-run invariant oracles.
//!
//! `neutrino_core::audit` checks cross-node consistency once, at
//! hand-picked instants. This module generalizes it into an [`Invariant`]
//! trait [`run`](crate::run) evaluates at *configurable sim-time
//! intervals*: each invariant inspects the paused cluster read-only (never
//! injecting events, so the deterministic event schedule is unperturbed)
//! and reports what it found. The runner stamps each [`Finding`] with the
//! invariant's catalog name and the pass time. The catalog of
//! implementations is [`invariants`](crate::invariants).

use neutrino_common::time::Instant;
use neutrino_common::UeId;
use neutrino_core::Cluster;

/// What an invariant found wrong at one pass; the runner stamps it into a
/// [`ViolationRecord`](crate::run::ViolationRecord).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The UE concerned, when the finding is per-UE.
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
    /// Inspects the paused cluster; returns this pass's findings.
    fn check(&mut self, ctx: &mut OracleCtx<'_>) -> Vec<Finding>;
}
