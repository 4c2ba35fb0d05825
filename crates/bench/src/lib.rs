//! The experiment harness: one module per paper figure.
//!
//! Every public `figN` function regenerates the corresponding figure's data
//! series and returns it as structured rows; the `repro` binary renders them
//! as text tables and optionally JSON. The mapping from figure to module is
//! indexed in DESIGN.md; paper-vs-measured numbers live in EXPERIMENTS.md.
//!
//! Absolute latencies are not expected to match the authors' testbed — the
//! substrate here is a calibrated simulator (see DESIGN.md §3) — but the
//! *shape* of every figure (which system wins, by what factor, where the
//! saturation knees fall) is the reproduction target.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod figures;
pub mod render;
pub mod schedbench;
pub mod sweep;

pub use figures::*;
