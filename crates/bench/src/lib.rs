//! The experiment harness: one module per paper figure.
//!
//! Every public `figN` function enumerates the corresponding figure's grid
//! of independent experiment cells ([`sweep::Cell`]) without running it;
//! the `repro` binary runs each grid with [`sweep::run_cells`] at its
//! `--jobs` worker count and renders the rows as text tables and
//! optionally JSON. The mapping from figure to module is
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
