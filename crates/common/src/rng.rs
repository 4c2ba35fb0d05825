//! Deterministic random sampling used by the traffic generator and the
//! simulator.
//!
//! The approved dependency set includes `rand` but not `rand_distr`, so the
//! distributions the evaluation needs — exponential inter-arrivals for
//! uniform(-rate) Poisson traffic and Zipf popularity for UE activity skew —
//! are implemented here from `rand` primitives by inversion.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// splitmix64's stream increment (the 64-bit golden ratio).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: a stateless bijective mixer. Seedless, so
/// whatever is keyed on it (`UeMap`'s layout, the UE backoff jitter, link
/// fault draws, the choice-state hash) is the same in every run and
/// process. The one definition in the workspace.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut x = x.wrapping_add(GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The next draw of a splitmix64 stream whose state is `state`: advances
/// the state by one increment and returns [`splitmix64`] of the old one.
#[inline]
pub fn splitmix64_next(state: &mut u64) -> u64 {
    let out = splitmix64(*state);
    *state = state.wrapping_add(GAMMA);
    out
}

/// Creates the workspace's standard deterministic RNG from a seed.
///
/// All experiments accept a seed and derive every random stream from it, so
/// any figure in EXPERIMENTS.md can be regenerated bit-for-bit.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives an independent child RNG from a parent seed and a stream label.
///
/// Used to give each simulated entity (UE population, failure injector, link
/// jitter) its own stream so adding events to one stream does not perturb
/// another — a standard variance-reduction practice in simulation.
pub fn substream(seed: u64, label: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(seed ^ h)
}

/// Samples an exponential variate with the given rate (events per unit time).
///
/// Inversion method: `-ln(U)/rate`. Returns `f64::INFINITY` for a zero rate.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    if rate <= 0.0 {
        return f64::INFINITY;
    }
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

/// A Zipf sampler over ranks `1..=n` with exponent `s`, used to skew per-UE
/// activity (a few chatty devices, many quiet ones).
///
/// Precomputes the CDF once (O(n) memory) and samples by binary search
/// (O(log n) per draw) — the populations here are ≤ a few million, which fits
/// comfortably.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `s ≥ 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if there is only the degenerate single rank.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `0..n` (0-based; rank 0 is the most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0f64..1.0);
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(7);
        let mut b = seeded(7);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn substreams_differ() {
        let mut a = substream(7, "arrivals");
        let mut b = substream(7, "failures");
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = seeded(1);
        let rate = 4.0;
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut rng, rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn exponential_zero_rate_is_infinite() {
        let mut rng = seeded(1);
        assert!(exponential(&mut rng, 0.0).is_infinite());
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = seeded(4);
        let z = Zipf::new(1000, 1.0);
        let mut count0 = 0;
        let mut count500 = 0;
        for _ in 0..50_000 {
            match z.sample(&mut rng) {
                0 => count0 += 1,
                500 => count500 += 1,
                _ => {}
            }
        }
        assert!(
            count0 > count500 * 10,
            "rank 0: {count0}, rank 500: {count500}"
        );
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let mut rng = seeded(5);
        let z = Zipf::new(10, 0.0);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((c as f64 - 10_000.0).abs() < 1_000.0, "count {c}");
        }
    }
}
