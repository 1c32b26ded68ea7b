//! Integer simulated time.
//!
//! All simulated time is kept in whole nanoseconds. A `u64` of nanoseconds
//! covers ~584 years of simulated time, far beyond any experiment in the
//! paper (which simulates hours), while making comparisons and event
//! ordering exact — there is no floating-point rounding anywhere on the
//! simulation's critical path.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds per second, as the base of all conversions.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An instant on the simulated clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Instant `secs` seconds after the epoch.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_nanos(secs))
    }

    /// Seconds since the epoch, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction producing a duration.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// A duration of whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// A duration of whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// A duration of whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// A duration of `secs` seconds, rounding to the nearest nanosecond.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_nanos(secs))
    }

    /// This duration in seconds, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// This duration in whole milliseconds (truncating).
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiply by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

#[inline]
fn secs_to_nanos(secs: f64) -> u64 {
    assert!(
        secs.is_finite() && secs >= 0.0,
        "simulated time must be finite and non-negative, got {secs}"
    );
    crate::round_u64(secs * NANOS_PER_SEC as f64)
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("simulated clock overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("simulated clock underflow"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("negative simulated duration"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_conversions_round_trip() {
        let d = SimDuration::from_secs(3);
        assert_eq!(d.0, 3 * NANOS_PER_SEC);
        assert_eq!(d.as_secs_f64(), 3.0);
        assert_eq!(SimDuration::from_secs_f64(3.0), d);
    }

    #[test]
    fn millis_and_micros() {
        assert_eq!(SimDuration::from_millis(8).0, 8_000_000);
        assert_eq!(SimDuration::from_micros(5).0, 5_000);
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(10);
        let u = t + SimDuration::from_millis(500);
        assert_eq!((u - t).as_millis(), 500);
        assert_eq!(u - SimDuration::from_millis(500), t);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime(100);
        let b = SimTime(200);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration(100));
        assert_eq!(a.checked_since(b), None);
    }

    #[test]
    fn fractional_seconds_round_to_nanos() {
        let d = SimDuration::from_secs_f64(0.0083333333);
        assert_eq!(d.0, 8_333_333);
    }

    #[test]
    fn from_secs_f64_rounds_like_f64_round() {
        let reference = |secs: f64| (secs * NANOS_PER_SEC as f64).round() as u64;
        // 2⁶⁴ ns is about 1.8e10 s: from there on the count saturates.
        for secs in [
            -0.0,
            0.0,
            0.5e-9,
            1.5e-9,
            4503599.6270496,
            1.8446744073709552e10,
            1e300,
        ] {
            assert_eq!(
                SimDuration::from_secs_f64(secs).0,
                reference(secs),
                "{secs:e} s"
            );
        }
        assert_eq!(SimDuration::from_secs_f64(1e300), SimDuration::MAX);
        let mut rng = crate::SimRng::new(0x5ec5);
        for _ in 0..100_000 {
            let secs = rng.f64() * 2f64.powi(rng.index(60) as i32 - 30);
            assert_eq!(
                SimTime::from_secs_f64(secs).0,
                reference(secs),
                "{secs:e} s"
            );
        }
    }

    #[test]
    #[should_panic(expected = "negative simulated duration")]
    fn time_subtraction_panics_when_negative() {
        let _ = SimTime(5) - SimTime(10);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10) * 3;
        assert_eq!(d.as_millis(), 30);
        assert_eq!((d / 3).as_millis(), 10);
        assert_eq!(
            SimDuration::from_millis(7).saturating_mul(u64::MAX),
            SimDuration::MAX
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }
}
