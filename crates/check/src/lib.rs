//! `neutrino-check`: the deterministic simulation-testing harness.
//!
//! The netsim engine is already a deterministic discrete-event simulator:
//! one seed fixes the entire event stream, faults included. This crate
//! turns that property into a FoundationDB-style checking loop:
//!
//! * [`scenario`] — a DSL of named chaos families (topology + traffic +
//!   fault grids) that expand, per seed, into self-contained serializable
//!   [`CasePlan`]s.
//! * [`oracle`] — the [`Invariant`](oracle::Invariant) trait an in-run
//!   oracle pass calls, and the finding it reports.
//! * [`invariants`] — the invariant catalog, one table row per invariant:
//!   the consistency audit in oracle form plus liveness, retry, checkpoint
//!   and overload-containment properties.
//! * [`run`] — executes a plan with in-run oracle passes at configurable
//!   sim-time intervals, pausing only at instants where events actually
//!   occurred (so long drain tails cost nothing) and never perturbing the
//!   event schedule. Produces a byte-stable [`CheckReport`].
//! * [`flowcov`] — the protocol-flow contract every checked case holds, and
//!   the coverage report a sweep merges from the edges its cases witnessed.
//! * [`shrink`](mod@shrink) — minimizes a failing plan (drop partitions and crashes,
//!   zero fault rates, shorten the horizon, fewer UEs) while it keeps
//!   failing.
//! * [`corpus`] — pinned regression cases under `crates/check/corpus/`:
//!   shrunk plans that must replay clean and byte-identically on a healthy
//!   tree.
//!
//! The `explore` binary drives thousands of seeds per scenario over the
//! bench crate's parallel sweep runner; results are input-ordered, so the
//! outcome is byte-identical for any `--jobs`.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod corpus;
pub mod flowcov;
pub mod invariants;
pub mod oracle;
pub mod run;
pub mod scenario;
pub mod shrink;

pub use corpus::CorpusCase;
pub use invariants::CATALOG;
pub use run::{run_case, CheckReport, Fingerprint, ViolationRecord};
pub use scenario::{CasePlan, Scenario};
pub use shrink::{shrink, ShrinkOutcome};
