use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A point on the simulation clock, in nanoseconds since scenario start.
///
/// A newtype (rather than a bare `u64`) so virtual times cannot be mixed up
/// with byte counts or wall-clock nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The scenario start.
    pub(crate) const ZERO: SimTime = SimTime(0);

    /// From raw nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds.
    pub(crate) const fn as_ns(self) -> u64 {
        self.0
    }

    /// As floating-point seconds.
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The later of two times.
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos() as u64)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_nanos() as u64;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
impl SimTime {
    /// From milliseconds.
    pub(crate) const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// From seconds.
    pub(crate) fn from_secs_f64(secs: f64) -> Self {
        SimTime((secs * 1e9) as u64)
    }

    /// Saturating difference as a [`Duration`].
    pub(crate) fn since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(SimTime::ZERO.as_ns(), 0);
        assert_eq!(SimTime::from_ms(5).as_ns(), 5_000_000);
        assert_eq!(SimTime::from_ns(7).as_ns(), 7);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ms(10) + Duration::from_millis(5);
        assert_eq!(t.as_ns(), 15_000_000);
        let mut u = SimTime::ZERO;
        u += Duration::from_nanos(3);
        assert_eq!(u.as_ns(), 3);
        assert_eq!(t - SimTime::from_ms(10), Duration::from_millis(5));
        // Saturating subtraction.
        assert_eq!(SimTime::ZERO - t, Duration::ZERO);
        assert_eq!(t.since(SimTime::from_ms(100)), Duration::ZERO);
    }

    #[test]
    fn ordering_and_max() {
        let a = SimTime::from_ms(1);
        let b = SimTime::from_ms(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_ms(1500).to_string(), "1.500000s");
    }
}
