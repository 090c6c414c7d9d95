//! Simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration in simulated nanoseconds.
///
/// Durations are plain integers rather than a newtype so that timing
/// formulas (e.g. the paper's Eq. 1) read naturally.
pub type Nanos = u64;

/// An absolute point in simulated time, in nanoseconds since the start of
/// the simulation.
///
/// `SimTime` is a newtype over `u64` ([C-NEWTYPE]) so that absolute times
/// and durations cannot be confused: adding two `SimTime`s is a compile
/// error, while `SimTime + Nanos` yields a `SimTime`.
///
/// # Example
///
/// ```
/// use triplea_sim::SimTime;
///
/// let t = SimTime::from_us(2) + 500;
/// assert_eq!(t.as_nanos(), 2_500);
/// assert_eq!(t - SimTime::ZERO, 2_500);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; useful as an "never" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since the simulation origin.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This instant expressed in (fractional) milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This instant expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Nanoseconds elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> Nanos {
        self.0.saturating_sub(earlier.0)
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Add<Nanos> for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, rhs: Nanos) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<Nanos> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Nanos;

    /// Elapsed nanoseconds between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> Nanos {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimTime::from_us(1).as_nanos(), 1_000);
        assert_eq!(SimTime::from_ms(1).as_nanos(), 1_000_000);
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_us(10);
        let u = t + 250;
        assert_eq!(u - t, 250);
        assert_eq!(u.saturating_since(t), 250);
        assert_eq!(t.saturating_since(u), 0);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_nanos(7).to_string(), "7ns");
        assert_eq!(SimTime::from_us(2).to_string(), "2.000us");
        assert_eq!(SimTime::from_ms(3).to_string(), "3.000ms");
        assert_eq!(SimTime::from_secs(4).to_string(), "4.000s");
    }

    #[test]
    fn float_views() {
        let t = SimTime::from_nanos(1_500);
        assert!((t.as_us_f64() - 1.5).abs() < 1e-12);
    }
}
