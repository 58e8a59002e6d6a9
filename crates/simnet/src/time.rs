//! Virtual time for the discrete-event simulation.
//!
//! The simulator measures time in integer nanoseconds since the start of the
//! run. Two newtypes keep instants and durations statically distinct:
//! [`Time`] (a point on the virtual clock) and [`Dur`] (a span).
//!
//! ```
//! use simnet::time::{Time, Dur};
//! let t = Time::ZERO + Dur::millis(2);
//! assert_eq!(t - Time::ZERO, Dur::micros(2_000));
//! ```

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);
    /// A time later than any reachable simulation instant.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time `secs` seconds after simulation start.
    pub fn from_secs(secs: u64) -> Time {
        Time(secs * 1_000_000_000)
    }

    /// Creates a time `ms` milliseconds after simulation start.
    pub fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// Whole nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the later of two instants.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    ///
    /// Use this only where `earlier > self` is a *legitimate* state —
    /// backlog math against a busy-until clock that may sit in the
    /// future (switch-port buffers, disk queues, timer deadlines that
    /// already passed). Where "earlier really is earlier" is an engine
    /// invariant — delivery latency, catch-up duration, any
    /// latency-recording site — use [`Time::since`], which refuses to
    /// mask a clock inversion as a zero-length sample.
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// Duration elapsed since `earlier`, debug-asserting that `earlier`
    /// is not in the future. A violation means virtual time ran
    /// backwards between two causally ordered points — an engine
    /// ordering bug that `saturating_since` would silently clamp to a
    /// zero-length latency sample. Release builds saturate.
    #[track_caller]
    pub fn since(self, earlier: Time) -> Dur {
        debug_assert!(
            self >= earlier,
            "clock inversion: now {self:?} is before `earlier` {earlier:?}"
        );
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// The empty span.
    pub const ZERO: Dur = Dur(0);

    /// A span of `n` nanoseconds.
    pub const fn nanos(n: u64) -> Dur {
        Dur(n)
    }

    /// A span of `n` microseconds.
    pub const fn micros(n: u64) -> Dur {
        Dur(n * 1_000)
    }

    /// A span of `n` milliseconds.
    pub const fn millis(n: u64) -> Dur {
        Dur(n * 1_000_000)
    }

    /// A span of `n` seconds.
    pub const fn secs(n: u64) -> Dur {
        Dur(n * 1_000_000_000)
    }

    /// A span from fractional seconds (rounds to whole nanoseconds).
    pub fn from_secs_f64(secs: f64) -> Dur {
        Dur((secs * 1e9).round() as u64)
    }

    /// Whole nanoseconds in this span.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds in this span.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional seconds in this span.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction of two spans.
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    fn sub(self, rhs: Time) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0 as f64 / 1e3)
        }
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = Time::from_secs(1) + Dur::millis(500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert_eq!(t - Time::from_secs(1), Dur::millis(500));
    }

    #[test]
    fn dur_constructors_agree() {
        assert_eq!(Dur::secs(1), Dur::millis(1000));
        assert_eq!(Dur::millis(1), Dur::micros(1000));
        assert_eq!(Dur::micros(1), Dur::nanos(1000));
    }

    #[test]
    fn dur_scaling() {
        assert_eq!(Dur::micros(3) * 4, Dur::micros(12));
        assert_eq!(Dur::micros(12) / 4, Dur::micros(3));
    }

    #[test]
    fn max_and_saturation() {
        assert_eq!(Time::from_secs(2).max(Time::from_secs(3)), Time::from_secs(3));
        assert_eq!(Time::from_secs(1).saturating_since(Time::from_secs(2)), Dur::ZERO);
        assert_eq!(Dur::micros(1).saturating_sub(Dur::micros(2)), Dur::ZERO);
    }

    #[test]
    fn since_measures_ordered_spans() {
        let t0 = Time::from_millis(3);
        let t1 = Time::from_millis(5);
        assert_eq!(t1.since(t0), Dur::millis(2));
        assert_eq!(t1.since(t1), Dur::ZERO);
    }

    /// Regression (PR 5): latency-recording sites used to clamp clock
    /// inversions to zero via `saturating_since`, hiding engine
    /// ordering bugs inside plausible-looking histograms. `since` must
    /// refuse the inversion loudly in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "clock inversion")]
    fn since_panics_on_clock_inversion_in_debug() {
        let _ = Time::from_secs(1).since(Time::from_secs(2));
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(Dur::from_secs_f64(0.000001), Dur::micros(1));
        assert_eq!(Dur::from_secs_f64(1.5), Dur::millis(1500));
    }
}
