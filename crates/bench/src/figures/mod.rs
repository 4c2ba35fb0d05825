//! One module per group of figures.

pub mod ablation;
pub mod appsfig;
pub mod burst;
pub mod failure;
pub mod handover;
pub mod logsize;
pub mod overload;
pub mod pct;
pub mod serialization;

use neutrino_common::stats::Summary;
use serde::Serialize;

/// One point of a PCT-vs-rate figure.
#[derive(Debug, Clone, Serialize)]
pub struct PctPoint {
    /// The x-axis value (procedures/second or active users).
    pub x: u64,
    /// System name.
    pub system: String,
    /// PCT distribution summary (milliseconds).
    pub summary: Summary,
}

/// Shared experiment sizing. `quick` keeps unit tests and smoke runs
/// affordable; the full profile regenerates the paper's series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Small: for tests and smoke runs.
    Quick,
    /// Full: the paper's x-axes.
    Full,
}

impl Profile {
    /// Measurement duration per cell.
    pub fn duration_ms(self) -> u64 {
        match self {
            Profile::Quick => 300,
            Profile::Full => 1_500,
        }
    }

    /// Scales a rate list down in quick mode.
    pub fn rates(self, full: &[u64]) -> Vec<u64> {
        match self {
            Profile::Quick => vec![full[0], full[full.len() / 2]],
            Profile::Full => full.to_vec(),
        }
    }
}
