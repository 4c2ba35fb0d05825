//! Order statistics over small sample sets: the median and quartiles every
//! timed metric is reported as, and the tail-percentile rule.

/// Median, quartiles and sample count of one metric's repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty, which is how a layer a workload never enters reads.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so spreads computed here agree
/// with the ones the acceptance check computes.
pub fn quartiles(values: &[f64]) -> Quartiles {
    let v = sorted(values);
    let n = v.len();
    let at = |k: usize| -> f64 {
        if n < 2 {
            return v.first().copied().unwrap_or(0.0);
        }
        // Position k(n+1)/4, 1-based, clamped like the reference does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Quartiles {
        median: median(values),
        q1: at(1),
        q3: at(3),
        n,
    }
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it, capped at p99; `None` below twenty samples, where not
/// even the median has ten on each side.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    if n < 20 {
        return None;
    }
    Some((1.0 - 10.0 / n as f64).min(0.99))
}

/// Nearest-rank percentile `q` (0..=1) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.saturating_sub(1).min(v.len() - 1)]
}

/// The tail a latency distribution supports: p99 when at least ten samples
/// lie beyond it, otherwise the highest percentile that has ten beyond it,
/// otherwise the median. Returns `(value, percentile used)`.
pub fn supported_tail(values: &[f64]) -> (f64, f64) {
    let q = highest_supported_percentile(values.len()).unwrap_or(0.5);
    (percentile(values, q), q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let q = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 4.0, 12.0));
        // Two samples extrapolate past the ends: [0.75, 1.5, 2.25].
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.q3), (0.75, 2.25));
        assert!((quartiles(&v).spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(1_000_000), Some(0.99));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_tail(&v), (90.0, 0.9));
        assert_eq!(supported_tail(&v[..5]), (3.0, 0.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }
}
