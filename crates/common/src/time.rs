//! Virtual time for the sans-IO protocol cores and the discrete-event engine.
//!
//! Protocol state machines never read a wall clock. Every entry point takes a
//! `now: Instant` handed in by the driver — either the simulator's virtual
//! clock or a real-time driver's monotonic clock mapped to the same type.
//! Nanosecond resolution in a `u64` covers ~584 years of simulated time.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in virtual time, in nanoseconds since the start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Instant(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Duration(u64);

impl Instant {
    /// The origin of the simulation clock.
    pub const ZERO: Instant = Instant(0);

    /// A time later than any event a simulation will schedule; used as a
    /// sentinel for "never".
    pub const FAR_FUTURE: Instant = Instant(u64::MAX);

    /// Constructs an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Instant(ns)
    }

    /// Constructs an instant from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Instant(us * 1_000)
    }

    /// Constructs an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Instant(ms * 1_000_000)
    }

    /// Constructs an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Instant(s * 1_000_000_000)
    }

    /// Raw nanoseconds since the origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time since the origin expressed in (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time since the origin expressed in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: Instant) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition; `None` if the result would overflow.
    pub fn checked_add(self, d: Duration) -> Option<Instant> {
        self.0.checked_add(d.0).map(Instant)
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Constructs a span from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Constructs a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Constructs a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Constructs a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Constructs a span from fractional seconds, saturating at zero for
    /// negative inputs.
    pub fn from_secs_f64(s: f64) -> Self {
        Duration((s.max(0.0) * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in (possibly fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The span in (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Scales the span by a floating point factor (clamped at zero).
    pub fn mul_f64(self, k: f64) -> Duration {
        Duration((self.0 as f64 * k.max(0.0)).round() as u64)
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, d: Duration) -> Instant {
        Instant(self.0 + d.0)
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, d: Duration) -> Instant {
        Instant(self.0 - d.0)
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, other: Instant) -> Duration {
        Duration(self.0 - other.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, other: Duration) -> Duration {
        Duration(self.0 + other.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, other: Duration) {
        self.0 += other.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, other: Duration) -> Duration {
        Duration(self.0 - other.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, other: Duration) {
        self.0 -= other.0;
    }
}

impl std::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<std::time::Duration> for Duration {
    fn from(d: std::time::Duration) -> Self {
        Duration(d.as_nanos().min(u64::MAX as u128) as u64)
    }
}

impl From<Duration> for std::time::Duration {
    fn from(d: Duration) -> Self {
        std::time::Duration::from_nanos(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_round_trips() {
        let t0 = Instant::from_millis(5);
        let t1 = t0 + Duration::from_micros(250);
        assert_eq!((t1 - t0).as_micros_f64(), 250.0);
        assert_eq!(t1.as_nanos(), 5_250_000);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = Instant::from_secs(1);
        let late = Instant::from_secs(2);
        assert_eq!(early.saturating_since(late), Duration::ZERO);
        assert_eq!(late.saturating_since(early), Duration::from_secs(1));
    }

    #[test]
    fn conversions_match_units() {
        assert_eq!(Duration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(Duration::from_secs_f64(0.5), Duration::from_millis(500));
    }

    #[test]
    fn std_duration_round_trip() {
        let d = Duration::from_micros(123);
        let s: std::time::Duration = d.into();
        assert_eq!(Duration::from(s), d);
    }

    #[test]
    fn debug_picks_sensible_unit() {
        assert_eq!(format!("{:?}", Duration::from_nanos(12)), "12ns");
        assert_eq!(format!("{:?}", Duration::from_micros(12)), "12.000us");
        assert_eq!(format!("{:?}", Duration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{:?}", Duration::from_secs(12)), "12.000s");
    }

    #[test]
    fn duration_sum() {
        let total: Duration = (1..=4).map(Duration::from_micros).sum();
        assert_eq!(total, Duration::from_micros(10));
    }
}
