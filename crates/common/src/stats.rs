//! Statistics collection for the experiment harness.
//!
//! [`Percentiles`] is an exact percentile summary that keeps every sample.
//! The paper reports box plots (median, quartiles, whiskers) of procedure
//! completion times; runs here produce at most a few million samples, so
//! exact collection is affordable and avoids sketch error in the figures.

use serde::{Deserialize, Serialize};

use crate::time::Duration;

/// Exact percentile summary over all pushed samples.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

/// The box-plot shaped summary the paper's figures report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
    /// Mean.
    pub mean: f64,
}

impl Percentiles {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Adds a virtual-time duration, recorded in milliseconds (the unit all
    /// PCT figures use).
    pub fn push_duration_ms(&mut self, d: Duration) {
        self.push(d.as_millis_f64());
    }

    /// Number of samples collected.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank method.
    /// Returns `NaN` when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((q.clamp(0.0, 1.0)) * n as f64).ceil() as usize;
        self.samples[rank.saturating_sub(1).min(n - 1)]
    }

    /// Median shortcut.
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Produces the full box-plot summary.
    pub fn summary(&mut self) -> Summary {
        if self.samples.is_empty() {
            return Summary {
                count: 0,
                min: f64::NAN,
                p25: f64::NAN,
                p50: f64::NAN,
                p75: f64::NAN,
                p95: f64::NAN,
                p99: f64::NAN,
                max: f64::NAN,
                mean: f64::NAN,
            };
        }
        self.ensure_sorted();
        let mean = self.samples.iter().sum::<f64>() / self.samples.len() as f64;
        Summary {
            count: self.count(),
            min: self.samples[0],
            p25: self.quantile(0.25),
            p50: self.quantile(0.50),
            p75: self.quantile(0.75),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: *self.samples.last().expect("non-empty"),
            mean,
        }
    }

    /// Merges another collector's samples into this one.
    pub fn merge(&mut self, other: &Percentiles) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

impl Summary {
    /// Formats the summary as the row layout used by the `repro` harness.
    pub fn row(&self) -> String {
        format!(
            "n={:<8} min={:<10.4} p25={:<10.4} p50={:<10.4} p75={:<10.4} p95={:<10.4} p99={:<10.4} max={:<10.4}",
            self.count, self.min, self.p25, self.p50, self.p75, self.p95, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut p = Percentiles::new();
        for x in 1..=100 {
            p.push(x as f64);
        }
        assert_eq!(p.quantile(0.5), 50.0);
        assert_eq!(p.quantile(0.95), 95.0);
        assert_eq!(p.quantile(0.0), 1.0);
        assert_eq!(p.quantile(1.0), 100.0);
    }

    #[test]
    fn percentiles_empty_is_nan() {
        let mut p = Percentiles::new();
        assert!(p.median().is_nan());
        assert_eq!(p.summary().count, 0);
    }

    #[test]
    fn percentiles_merge() {
        let mut a = Percentiles::new();
        let mut b = Percentiles::new();
        for x in 1..=50 {
            a.push(x as f64);
        }
        for x in 51..=100 {
            b.push(x as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.median(), 50.0);
    }

    #[test]
    fn push_duration_records_millis() {
        let mut p = Percentiles::new();
        p.push_duration_ms(Duration::from_micros(1500));
        assert!((p.median() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn summary_is_ordered() {
        let mut p = Percentiles::new();
        let mut rng_state = 12345u64;
        for _ in 0..1000 {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            p.push((rng_state >> 20) as f64);
        }
        let s = p.summary();
        assert!(s.min <= s.p25 && s.p25 <= s.p50);
        assert!(s.p50 <= s.p75 && s.p75 <= s.p95);
        assert!(s.p95 <= s.p99 && s.p99 <= s.max);
    }
}
