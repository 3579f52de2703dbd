//! Typed time and energy units used throughout the workspace.
//!
//! The simulator keeps two representations of time:
//!
//! * [`Ns`] — a floating-point nanosecond quantity for analytic model
//!   arithmetic (latency sums, rates).
//! * [`Ps`] — an integer picosecond timestamp for the scheduler and the
//!   timing verifier, where exact ordering matters.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A duration (or latency) in nanoseconds.
///
/// ```
/// use elp2im_dram::units::Ns;
/// let cycle = Ns(49.0) + Ns(35.0);
/// assert_eq!(cycle, Ns(84.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Ns(pub f64);

impl Ns {
    /// Zero duration.
    pub const ZERO: Ns = Ns(0.0);

    /// Returns the raw nanosecond count.
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Converts to integer picoseconds (rounding to nearest).
    ///
    /// # Panics
    ///
    /// Panics if the duration is negative or not finite.
    pub fn to_ps(self) -> Ps {
        assert!(self.0.is_finite() && self.0 >= 0.0, "cannot convert {self} to picoseconds");
        Ps((self.0 * 1000.0).round() as u64)
    }

    /// Converts to seconds.
    pub fn as_secs(self) -> f64 {
        self.0 * 1e-9
    }
}

impl Add for Ns {
    type Output = Ns;
    fn add(self, rhs: Ns) -> Ns {
        Ns(self.0 + rhs.0)
    }
}

impl AddAssign for Ns {
    fn add_assign(&mut self, rhs: Ns) {
        self.0 += rhs.0;
    }
}

impl Sub for Ns {
    type Output = Ns;
    fn sub(self, rhs: Ns) -> Ns {
        Ns(self.0 - rhs.0)
    }
}

impl Mul<f64> for Ns {
    type Output = Ns;
    fn mul(self, rhs: f64) -> Ns {
        Ns(self.0 * rhs)
    }
}

impl Div<Ns> for Ns {
    type Output = f64;
    fn div(self, rhs: Ns) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Ns {
    fn sum<I: Iterator<Item = Ns>>(iter: I) -> Ns {
        Ns(iter.map(|n| n.0).sum())
    }
}

impl fmt::Display for Ns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} ns", self.0)
    }
}

/// An absolute timestamp (or exact duration) in integer picoseconds.
///
/// Used by the scheduler and the timing verifier so that event ordering
/// is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ps(pub u64);

impl Ps {
    /// Time zero.
    pub const ZERO: Ps = Ps(0);

    /// Converts back to floating-point nanoseconds.
    pub fn to_ns(self) -> Ns {
        Ns(self.0 as f64 / 1000.0)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Ps) -> Ps {
        Ps(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Ps {
    type Output = Ps;
    fn add(self, rhs: Ps) -> Ps {
        Ps(self.0 + rhs.0)
    }
}

impl AddAssign for Ps {
    fn add_assign(&mut self, rhs: Ps) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for Ps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ps", self.0)
    }
}

/// An energy quantity in picojoules.
///
/// ```
/// use elp2im_dram::units::Picojoules;
/// let e = Picojoules(100.0) + Picojoules(20.0);
/// assert_eq!(e.as_f64(), 120.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Picojoules(pub f64);

impl Picojoules {
    /// Zero energy.
    pub const ZERO: Picojoules = Picojoules(0.0);

    /// Returns the raw picojoule count.
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Converts to nanojoules.
    pub fn as_nanojoules(self) -> f64 {
        self.0 / 1000.0
    }

    /// Average power in milliwatts over the given duration.
    ///
    /// # Panics
    ///
    /// Panics if `over` is zero.
    pub fn power_mw(self, over: Ns) -> f64 {
        assert!(over.0 > 0.0, "cannot compute power over a zero duration");
        // pJ / ns = mW
        self.0 / over.0
    }
}

impl Add for Picojoules {
    type Output = Picojoules;
    fn add(self, rhs: Picojoules) -> Picojoules {
        Picojoules(self.0 + rhs.0)
    }
}

impl AddAssign for Picojoules {
    fn add_assign(&mut self, rhs: Picojoules) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Picojoules {
    type Output = Picojoules;
    fn mul(self, rhs: f64) -> Picojoules {
        Picojoules(self.0 * rhs)
    }
}

impl Sum for Picojoules {
    fn sum<I: Iterator<Item = Picojoules>>(iter: I) -> Picojoules {
        Picojoules(iter.map(|e| e.0).sum())
    }
}

impl fmt::Display for Picojoules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} pJ", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_arithmetic() {
        assert_eq!(Ns(1.5) + Ns(2.5), Ns(4.0));
        assert_eq!(Ns(5.0) - Ns(2.0), Ns(3.0));
        assert_eq!(Ns(5.0) * 2.0, Ns(10.0));
        assert!((Ns(10.0) / Ns(4.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ns_sum() {
        let total: Ns = [Ns(1.0), Ns(2.0), Ns(3.0)].into_iter().sum();
        assert_eq!(total, Ns(6.0));
    }

    #[test]
    fn ns_to_ps_roundtrip() {
        let ns = Ns(48.75);
        assert_eq!(ns.to_ps(), Ps(48750));
        assert!((ns.to_ps().to_ns().as_f64() - 48.75).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "picoseconds")]
    fn negative_ns_to_ps_panics() {
        let _ = Ns(-1.0).to_ps();
    }

    #[test]
    fn ps_ordering_is_exact() {
        assert!(Ps(1) < Ps(2));
        assert_eq!(Ps(3) + Ps(4), Ps(7));
        assert_eq!(Ps(3).saturating_sub(Ps(5)), Ps::ZERO);
    }

    #[test]
    fn picojoules_power() {
        // 100 pJ over 50 ns = 2 mW
        assert!((Picojoules(100.0).power_mw(Ns(50.0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Ns(48.75)), "48.75 ns");
        assert_eq!(format!("{}", Ps(10)), "10 ps");
        assert_eq!(format!("{}", Picojoules(1.25)), "1.2 pJ");
    }
}
