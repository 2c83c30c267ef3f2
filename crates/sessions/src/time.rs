//! Virtual time for the simulation.
//!
//! Every component of the reproduction runs on simulated time so that
//! experiments are deterministic and a simulated week costs wall-clock
//! seconds. Resolution is one millisecond.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (milliseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from milliseconds since the epoch.
    pub fn from_millis(ms: u64) -> SimTime {
        SimTime(ms)
    }

    /// Creates a time from seconds since the epoch.
    pub fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1000)
    }

    /// Creates a time from hours since the epoch.
    pub fn from_hours(h: u64) -> SimTime {
        SimTime::from_secs(h * 3600)
    }

    /// Milliseconds since the epoch.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Elapsed time since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;

    /// Advances by `ms` milliseconds.
    fn add(self, ms: u64) -> SimTime {
        SimTime(self.0.saturating_add(ms))
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, ms: u64) {
        self.0 = self.0.saturating_add(ms);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;

    /// Milliseconds between two times, saturating at zero.
    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for SimTime {
    /// Renders as `d+hh:mm:ss.mmm`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0 % 1000;
        let s = (self.0 / 1000) % 60;
        let m = (self.0 / 60_000) % 60;
        let h = (self.0 / 3_600_000) % 24;
        let d = self.0 / 86_400_000;
        write!(f, "{d}+{h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_hours(1), SimTime::from_secs(3600));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        assert_eq!((t + 500).as_millis(), 10_500);
        assert_eq!(t - SimTime::from_secs(4), 6000);
        // Saturating subtraction.
        assert_eq!(SimTime::from_secs(1) - SimTime::from_secs(5), 0);
        let mut u = SimTime::ZERO;
        u += 250;
        assert_eq!(u.as_millis(), 250);
    }

    #[test]
    fn since_saturates() {
        assert_eq!(SimTime::from_secs(2).since(SimTime::from_secs(1)), 1000);
        assert_eq!(SimTime::from_secs(1).since(SimTime::from_secs(2)), 0);
    }

    #[test]
    fn display_format() {
        let t = SimTime::from_hours(48) + 3 * 3_600_000 + 4 * 60_000 + 5 * 1000 + 6;
        assert_eq!(t.to_string(), "2+03:04:05.006");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert_eq!(SimTime::ZERO, SimTime::from_millis(0));
    }
}
