//! The [`Time`] numeric abstraction.
//!
//! Every schedulability test in the companion `fpga-rt-analysis` crate is a
//! chain of `+ − × ÷`, comparisons and a handful of floors over task timing
//! parameters. Making the tests generic over a small numeric trait buys two
//! things:
//!
//! 1. **Speed** for Monte-Carlo sweeps (`f64`).
//! 2. **Exactness** for knife-edge verdicts ([`crate::Rat64`]): the paper's
//!    Table 1 GN2 verdict is decided by a comparison that holds with *exact
//!    equality* (`69/25` on both sides); `f64` can only observe that the
//!    rounded sides coincide, not prove the equality.
//!
//! The trait is sealed against misuse only by convention; implementing it for
//! your own type is supported (e.g. a fixed-point microsecond type), as long
//! as the documented laws hold.

use core::fmt::{Debug, Display};
use core::ops::{Add, Div, Mul, Neg, Sub};

/// Numeric values used for execution times, deadlines and periods.
///
/// # Laws
///
/// Implementations must form an ordered field on the values actually used
/// (validated positive task parameters and quantities derived from them):
///
/// * `ZERO` and `ONE` are additive and multiplicative identities, and
///   `Default` is `ZERO`.
/// * `PartialOrd` is a total order on all values produced by the model
///   (the `f64` instance never produces NaN from validated inputs).
/// * [`Time::floor_i64`] returns the largest integer ≤ the value.
/// * [`Time::ratio`] returns exactly `num/den` when the type can represent
///   it, and the nearest representable value otherwise.
pub trait Time:
    Copy
    + Clone
    + PartialOrd
    + PartialEq
    + Debug
    + Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + Default
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Exact conversion from a small unsigned integer (areas, column counts).
    fn from_u32(v: u32) -> Self;

    /// Exact conversion from a signed integer.
    fn from_i64(v: i64) -> Self;

    /// Largest integer less than or equal to `self`.
    ///
    /// Used for the `Ni = ⌊(Dk − Di)/Ti⌋ + 1` job-count computation of the
    /// GN1 test, which may legitimately be negative before the `+ 1`.
    fn floor_i64(self) -> i64;

    /// Lossy conversion to `f64` for reporting and plotting.
    fn to_f64(self) -> f64;

    /// The value `num/den`. `den` must be non-zero.
    fn ratio(num: i64, den: i64) -> Self;

    /// `true` when the value is finite and well-formed (always true for
    /// exact types; excludes NaN/∞ for floating point).
    fn is_valid(self) -> bool;

    /// `self + rhs`, or `None` when the type cannot represent it (never for
    /// `f64`), so that the analysis kernel returns exact overflow as a value.
    #[inline]
    fn checked_add(self, rhs: Self) -> Option<Self> {
        Some(self + rhs)
    }

    /// `self − rhs`; see [`Time::checked_add`].
    #[inline]
    fn checked_sub(self, rhs: Self) -> Option<Self> {
        Some(self - rhs)
    }

    /// `self × rhs`; see [`Time::checked_add`].
    #[inline]
    fn checked_mul(self, rhs: Self) -> Option<Self> {
        Some(self * rhs)
    }

    /// `self ÷ rhs`; see [`Time::checked_add`].
    #[inline]
    fn checked_div(self, rhs: Self) -> Option<Self> {
        Some(self / rhs)
    }

    /// The smaller of two values.
    #[inline]
    fn min_t(self, other: Self) -> Self {
        if other < self {
            other
        } else {
            self
        }
    }

    /// The larger of two values.
    #[inline]
    fn max_t(self, other: Self) -> Self {
        if other > self {
            other
        } else {
            self
        }
    }

    /// Clamp below at zero: `max(self, 0)`.
    #[inline]
    fn max_zero(self) -> Self {
        self.max_t(Self::ZERO)
    }

    /// `true` when strictly positive.
    ///
    /// Named with a `_t` suffix to avoid shadowing by inherent methods on
    /// primitive numeric types.
    #[inline]
    fn is_positive_t(self) -> bool {
        self > Self::ZERO
    }
}

impl Time for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline]
    fn from_u32(v: u32) -> Self {
        f64::from(v)
    }

    #[inline]
    fn from_i64(v: i64) -> Self {
        v as f64
    }

    #[inline]
    fn floor_i64(self) -> i64 {
        self.floor() as i64
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline]
    fn ratio(num: i64, den: i64) -> Self {
        assert!(den != 0, "Time::ratio with zero denominator");
        num as f64 / den as f64
    }

    #[inline]
    fn is_valid(self) -> bool {
        self.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_identities() {
        assert_eq!(<f64 as Time>::ZERO + 1.5, 1.5);
        assert_eq!(<f64 as Time>::ONE * 2.5, 2.5);
    }

    #[test]
    fn f64_floor_handles_negatives() {
        assert_eq!((-0.2f64).floor_i64(), -1);
        assert_eq!((0.0f64).floor_i64(), 0);
        assert_eq!((2.999f64).floor_i64(), 2);
        assert_eq!((3.0f64).floor_i64(), 3);
        assert_eq!((-3.0f64).floor_i64(), -3);
    }

    #[test]
    fn f64_ratio() {
        assert_eq!(f64::ratio(126, 100), 1.26);
        assert_eq!(f64::ratio(-1, 4), -0.25);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn f64_ratio_zero_den_panics() {
        let _ = f64::ratio(1, 0);
    }

    #[test]
    fn min_max_helpers() {
        assert_eq!(1.0f64.min_t(2.0), 1.0);
        assert_eq!(1.0f64.max_t(2.0), 2.0);
        assert_eq!((-1.0f64).max_zero(), 0.0);
        assert_eq!(1.0f64.max_zero(), 1.0);
        assert!(Time::is_positive_t(0.5f64));
        assert!(!Time::is_positive_t(0.0f64));
    }

    #[test]
    fn f64_checked_ops_never_fail() {
        assert_eq!(Time::checked_add(1.5f64, 2.0), Some(3.5));
        assert_eq!(Time::checked_sub(1.5f64, 2.0), Some(-0.5));
        assert_eq!(Time::checked_mul(1.5f64, 2.0), Some(3.0));
        assert_eq!(Time::checked_div(1.5f64, 2.0), Some(0.75));
        assert_eq!(Time::checked_mul(f64::MAX, 2.0), Some(f64::INFINITY));
    }

    #[test]
    fn f64_validity() {
        assert!(1.0f64.is_valid());
        assert!(!f64::NAN.is_valid());
        assert!(!f64::INFINITY.is_valid());
    }
}
