//! What every workload has in common: one timed repeat and its yield.

use crate::trace::Tracer;
use std::collections::BTreeMap;

/// The splitmix64 generator: every seeded choice the benchmark makes.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The first UE id of every pool: a different seed puts the UEs elsewhere
/// on the hash ring.
pub fn first_ue(seed: u64) -> u64 {
    (seed % 4_096) * 1_000_003
}

/// Per-layer values of one traced repeat, by metric (or ingredient) name.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Adds `v` to `key` (cells of one repeat accumulate).
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }

    /// Raises `key` to at least `v`.
    pub fn max(&mut self, key: &'static str, v: f64) {
        let e = self.0.entry(key).or_insert(v);
        *e = e.max(v);
    }

    pub fn set(&mut self, key: &'static str, v: f64) {
        self.0.insert(key, v);
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }

    pub fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    /// The value of `key`; 0 for a layer the workload never entered.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `num / den`, or 0 when the denominator is 0.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.get(den);
        if d == 0.0 {
            0.0
        } else {
            self.get(num) / d
        }
    }
}

/// Times the steps of a repeat; when tracing, every step is also a span.
pub struct Clock<'a> {
    tracer: Option<&'a mut Tracer>,
}

impl<'a> Clock<'a> {
    pub fn new(tracer: Option<&'a mut Tracer>) -> Self {
        Clock { tracer }
    }

    /// Runs `f` as the step `name`; returns its result and its seconds.
    pub fn step<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.open(name);
        let start = std::time::Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.close(span);
        (out, secs)
    }

    /// Opens a span that groups steps (a no-op unless tracing).
    pub fn open(&mut self, name: &'static str) -> Option<u32> {
        self.tracer.as_mut().map(|t| t.open(name, None))
    }

    pub fn close(&mut self, span: Option<u32>) {
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
            t.close(id);
        }
    }
}

/// The yield of one repeat.
#[derive(Debug, Default, Clone)]
pub struct Repeat {
    /// Host seconds for the whole repeat.
    pub wall_s: f64,
    /// Engine events (simulator path) or message deliveries (live path).
    pub events: u64,
    /// Procedures completed (`engine_ring`: laps of a message round its ring).
    pub procs: u64,
    /// Operations started and operations that failed.
    pub attempted: u64,
    pub failed: u64,
    /// Digest of every deterministic output; equal across repeats.
    pub digest: u64,
    pub layers: Layers,
}

/// One benchmark workload, set up for one seed.
pub trait Workload {
    /// Runs one repeat; with a tracer, records spans and per-layer values.
    /// `Err` names the output check that failed.
    fn run(&mut self, tracer: Option<&mut Tracer>) -> Result<Repeat, String>;

    /// The untimed repeat that ends set-up.
    fn warm_up(&mut self) -> Result<Repeat, String> {
        self.run(None)
    }
}
