//! Shared foundation types for the Neutrino reproduction.
//!
//! This crate holds everything that more than one subsystem needs and that
//! carries no protocol logic of its own:
//!
//! * [`ids`] — strongly-typed identifiers for every entity in the cellular
//!   core (UEs, base stations, CTAs, CPFs, UPFs, sessions, procedures).
//! * [`time`] — a virtual time representation shared by the discrete-event
//!   simulator and the protocol state machines (sans-IO cores never read a
//!   wall clock; time is always handed to them).
//! * [`clock`] — the logical clock the CTA stamps onto every control message
//!   (§4.2.3 of the paper).
//! * [`error`] — the common error type.
//! * [`rng`] — deterministic random sampling (exponential, Poisson, Zipf,
//!   bounded Pareto) built on `rand` primitives.
//! * [`stats`] — streaming statistics and percentile summaries used by the
//!   experiment harness.
//! * [`uemap`] — [`UeMap`], the O(1) per-UE state table every role uses.
//! * [`mutant`](mod@mutant) — the [`mutant!`] site macro, and (`test-support` only) the
//!   protocol mutants it plants.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod clock;
pub mod error;
pub mod ids;
pub mod mutant;
pub mod rng;
pub mod stats;
pub mod time;
pub mod uemap;

pub use clock::LogicalClock;
pub use error::{Error, Result};
pub use ids::{
    BearerId, BsId, CpfId, CtaId, Imsi, ProcedureId, RegionId, SessionId, Tmsi, UeId, UpfId,
};
#[cfg(feature = "test-support")]
pub use mutant::Mutant;
pub use time::{Duration, Instant};
pub use uemap::UeMap;
