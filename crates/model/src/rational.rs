//! Exact rational arithmetic on a normalized `i64/i64` representation.
//!
//! [`Rat64`] implements the [`crate::Time`] trait so that every
//! schedulability test can run in *exact* arithmetic. This is not a luxury:
//! the GN2 test of the paper compares
//! `Σ Ai·min(βλk(i), 1)` against `(Abnd − Amin)(1 − λk) + Amin`, and for the
//! paper's Table 1 the two sides are **equal** (both `69/25` at
//! `λ = C2/T2`), so the verdict rests entirely on whether the comparison is
//! strict. Floating point cannot distinguish "exactly equal" from "equal
//! after rounding"; only exact arithmetic proves which side of the knife
//! edge the taskset sits on.
//!
//! All intermediate products are computed in `i128` and renormalized, so any
//! value whose reduced form fits in `i64/i64` is handled without loss.
//! The [`Time::checked_add`] family returns `None` when the *reduced* form
//! does not fit; the analysis kernel computes with it, so exact-mode
//! overflow reaches its callers as a value. The `+ − × ÷` operators panic
//! with a descriptive message instead, for code where overflow is a
//! programming error.

use crate::error::ModelError;
use crate::time::Time;
use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, Div, Mul, Neg, Sub};
use serde::{Deserialize, Serialize};

/// An exact rational number `num/den` with `den > 0` and `gcd(|num|, den) = 1`.
///
/// ```
/// use fpga_rt_model::{Rat64, Time};
/// let c = Rat64::new(126, 100).unwrap(); // 1.26 exactly
/// let t = Rat64::from_int(7);
/// assert_eq!((c / t).to_string(), "9/50");
/// assert_eq!(Rat64::ratio(126, 100), c);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(try_from = "RawRat", into = "RawRat")]
pub struct Rat64 {
    num: i64,
    den: i64,
}

/// Serde wire format for [`Rat64`]; deserialization re-normalizes and
/// re-validates so malformed input cannot break the invariants.
#[derive(Serialize, Deserialize)]
struct RawRat {
    num: i64,
    den: i64,
}

impl TryFrom<RawRat> for Rat64 {
    type Error = ModelError;
    fn try_from(raw: RawRat) -> Result<Self, ModelError> {
        Rat64::new(raw.num, raw.den)
    }
}

impl From<Rat64> for RawRat {
    fn from(r: Rat64) -> Self {
        RawRat { num: r.num, den: r.den }
    }
}

#[inline]
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rat64 {
    /// The value zero.
    pub const ZERO: Rat64 = Rat64 { num: 0, den: 1 };
    /// The value one.
    pub const ONE: Rat64 = Rat64 { num: 1, den: 1 };
    /// Denominator cap for converting `f64` task parameters to exact
    /// rationals with [`Rat64::approx_f64`], shared by every exact mode
    /// that starts from `f64` input (the admission controller's exact tier
    /// and the CLI's `--exact` flags).
    pub const TASK_MAX_DENOMINATOR: u32 = 1_000_000;

    /// Construct `num/den`, normalizing sign and common factors.
    ///
    /// Returns [`ModelError::ZeroDenominator`] when `den == 0`.
    pub fn new(num: i64, den: i64) -> Result<Self, ModelError> {
        if den == 0 {
            return Err(ModelError::ZeroDenominator);
        }
        Self::normalize(num as i128, den as i128, "new")
    }

    /// Construct from an integer.
    #[inline]
    pub const fn from_int(v: i64) -> Self {
        Rat64 { num: v, den: 1 }
    }

    /// The numerator of the reduced form (sign-carrying).
    #[inline]
    pub const fn numer(self) -> i64 {
        self.num
    }

    /// The denominator of the reduced form (always positive).
    #[inline]
    pub const fn denom(self) -> i64 {
        self.den
    }

    fn normalize(mut num: i128, mut den: i128, op: &'static str) -> Result<Self, ModelError> {
        debug_assert!(den != 0);
        if den < 0 {
            num = -num;
            den = -den;
        }
        if num == 0 {
            return Ok(Rat64::ZERO);
        }
        let g = gcd_u128(num.unsigned_abs(), den as u128) as i128;
        num /= g;
        den /= g;
        let num = i64::try_from(num).map_err(|_| ModelError::RationalOverflow { op })?;
        let den = i64::try_from(den).map_err(|_| ModelError::RationalOverflow { op })?;
        Ok(Rat64 { num, den })
    }

    /// The multiplicative inverse. Panics on zero.
    pub fn recip(self) -> Self {
        assert!(self.num != 0, "Rat64::recip of zero");
        Self::normalize(self.den as i128, self.num as i128, "recip")
            .expect("recip cannot overflow a normalized value")
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        Rat64 { num: self.num.abs(), den: self.den }
    }

    /// `⌊self⌋` as an exact integer.
    #[inline]
    pub fn floor(self) -> i64 {
        self.num.div_euclid(self.den)
    }

    /// `⌈self⌉` as an exact integer.
    #[inline]
    pub fn ceil(self) -> i64 {
        -(-self.num).div_euclid(self.den)
    }

    /// `true` when the value is an integer.
    #[inline]
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Best rational approximation of `v` with denominator at most
    /// `max_den`, via continued fractions.
    ///
    /// Useful for converting generator-produced `f64` parameters into exact
    /// values: `Rat64::approx_f64(1.26, 1_000) == Rat64::new(63, 50)`.
    ///
    /// Returns [`ModelError::InexactConversion`] for NaN or infinite input.
    pub fn approx_f64(v: f64, max_den: u32) -> Result<Self, ModelError> {
        if !v.is_finite() {
            return Err(ModelError::InexactConversion { value: v });
        }
        let max_den = i64::from(max_den.max(1));
        let neg = v < 0.0;
        let mut x = v.abs();
        // Convergents p/q of the continued fraction expansion of |v|.
        let (mut p0, mut q0, mut p1, mut q1) = (0i64, 1i64, 1i64, 0i64);
        for _ in 0..64 {
            let a = x.floor();
            if a > i64::MAX as f64 {
                return Err(ModelError::InexactConversion { value: v });
            }
            let a = a as i64;
            let p2 = match a.checked_mul(p1).and_then(|t| t.checked_add(p0)) {
                Some(p) => p,
                None => break,
            };
            let q2 = match a.checked_mul(q1).and_then(|t| t.checked_add(q0)) {
                Some(q) => q,
                None => break,
            };
            if q2 > max_den {
                break;
            }
            p0 = p1;
            q0 = q1;
            p1 = p2;
            q1 = q2;
            let frac = x - a as f64;
            if frac < 1e-12 {
                break;
            }
            x = 1.0 / frac;
        }
        if q1 == 0 {
            return Err(ModelError::InexactConversion { value: v });
        }
        let num = if neg { -p1 } else { p1 };
        Rat64::new(num, q1)
    }
}

impl PartialOrd for Rat64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat64 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Denominators are positive, so cross-multiplication preserves order;
        // i64×i64 always fits in i128.
        let lhs = self.num as i128 * other.den as i128;
        let rhs = other.num as i128 * self.den as i128;
        lhs.cmp(&rhs)
    }
}

macro_rules! panicking_op {
    ($trait:ident, $method:ident, $checked:ident, $sym:literal) => {
        impl $trait for Rat64 {
            type Output = Rat64;
            #[inline]
            fn $method(self, rhs: Rat64) -> Rat64 {
                self.$checked(rhs)
                    .unwrap_or_else(|| panic!("Rat64 overflow: {self} {} {rhs}", $sym))
            }
        }
    };
}

panicking_op!(Add, add, checked_add, "+");
panicking_op!(Sub, sub, checked_sub, "-");
panicking_op!(Mul, mul, checked_mul, "*");
panicking_op!(Div, div, checked_div, "/");

impl Neg for Rat64 {
    type Output = Rat64;
    #[inline]
    fn neg(self) -> Rat64 {
        Rat64 { num: -self.num, den: self.den }
    }
}

impl fmt::Display for Rat64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rat64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rat64({self})")
    }
}

impl From<i64> for Rat64 {
    fn from(v: i64) -> Self {
        Rat64::from_int(v)
    }
}

impl From<u32> for Rat64 {
    fn from(v: u32) -> Self {
        Rat64::from_int(i64::from(v))
    }
}

impl Default for Rat64 {
    fn default() -> Self {
        Rat64::ZERO
    }
}

impl Time for Rat64 {
    const ZERO: Self = Rat64::ZERO;
    const ONE: Self = Rat64::ONE;

    #[inline]
    fn from_u32(v: u32) -> Self {
        Rat64::from_int(i64::from(v))
    }

    #[inline]
    fn from_i64(v: i64) -> Self {
        Rat64::from_int(v)
    }

    #[inline]
    fn floor_i64(self) -> i64 {
        self.floor()
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    #[inline]
    fn ratio(num: i64, den: i64) -> Self {
        Rat64::new(num, den).expect("Time::ratio with zero denominator")
    }

    #[inline]
    fn is_valid(self) -> bool {
        self.den > 0
    }

    /// `None` when the reduced result overflows `i64/i64`.
    fn checked_add(self, rhs: Self) -> Option<Self> {
        let num = self.num as i128 * rhs.den as i128 + rhs.num as i128 * self.den as i128;
        let den = self.den as i128 * rhs.den as i128;
        Self::normalize(num, den, "add").ok()
    }

    fn checked_sub(self, rhs: Self) -> Option<Self> {
        self.checked_add(Rat64 { num: -rhs.num, den: rhs.den })
    }

    fn checked_mul(self, rhs: Self) -> Option<Self> {
        let num = self.num as i128 * rhs.num as i128;
        let den = self.den as i128 * rhs.den as i128;
        Self::normalize(num, den, "mul").ok()
    }

    /// `None` on division by zero or overflow.
    fn checked_div(self, rhs: Self) -> Option<Self> {
        if rhs.num == 0 {
            return None;
        }
        let num = self.num as i128 * rhs.den as i128;
        let den = self.den as i128 * rhs.num as i128;
        Self::normalize(num, den, "div").ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rat64 {
        Rat64::new(n, d).unwrap()
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, -7), Rat64::ZERO);
        assert_eq!(r(0, 5).denom(), 1);
    }

    #[test]
    fn zero_denominator_rejected() {
        assert_eq!(Rat64::new(1, 0), Err(ModelError::ZeroDenominator));
    }

    #[test]
    fn basic_arithmetic() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
        assert_eq!(-r(1, 2), r(-1, 2));
    }

    #[test]
    fn ordering_is_exact() {
        assert!(r(1, 3) < r(34, 100));
        assert!(r(1, 3) > r(33, 100));
        assert_eq!(r(69, 25).cmp(&r(276, 100)), Ordering::Equal);
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(r(7, 2).floor(), 3);
        assert_eq!(r(7, 2).ceil(), 4);
        assert_eq!(r(-7, 2).floor(), -4);
        assert_eq!(r(-7, 2).ceil(), -3);
        assert_eq!(r(6, 2).floor(), 3);
        assert_eq!(r(6, 2).ceil(), 3);
        assert_eq!(r(-1, 5).floor(), -1);
        assert_eq!(Rat64::ZERO.floor(), 0);
    }

    #[test]
    fn recip_and_abs() {
        assert_eq!(r(-3, 4).recip(), r(-4, 3));
        assert_eq!(r(-3, 4).abs(), r(3, 4));
    }

    #[test]
    #[should_panic(expected = "recip of zero")]
    fn recip_zero_panics() {
        let _ = Rat64::ZERO.recip();
    }

    #[test]
    fn overflow_is_detected() {
        let big = Rat64::from_int(i64::MAX);
        assert!(big.checked_mul(big).is_none());
        assert_eq!(r(1, 2).checked_add(r(1, 3)), Some(r(5, 6)));
        assert!(big.checked_add(Rat64::ONE).is_none());
        // But i128 intermediates rescue reducible cases.
        let half_of_big = r(i64::MAX, 2);
        assert_eq!(half_of_big.checked_mul(r(2, i64::MAX)), Some(Rat64::ONE));
    }

    #[test]
    #[should_panic(expected = "Rat64 overflow")]
    fn overflowing_operator_panics() {
        let big = Rat64::from_int(i64::MAX);
        let _ = big * big;
    }

    #[test]
    fn display_forms() {
        assert_eq!(r(4, 2).to_string(), "2");
        assert_eq!(r(-1, 3).to_string(), "-1/3");
        assert_eq!(format!("{:?}", r(1, 3)), "Rat64(1/3)");
    }

    #[test]
    fn time_trait_instance() {
        assert_eq!(<Rat64 as Time>::ratio(126, 100), r(63, 50));
        assert_eq!(r(-1, 5).floor_i64(), -1);
        assert_eq!(r(63, 50).to_f64(), 1.26);
        assert_eq!(Rat64::from_u32(7), r(7, 1));
        assert!(r(1, 3).is_valid());
        assert_eq!(r(1, 3).max_zero(), r(1, 3));
        assert_eq!(r(-1, 3).max_zero(), Rat64::ZERO);
    }

    #[test]
    fn approx_f64_finds_small_denominators() {
        assert_eq!(Rat64::approx_f64(1.26, 1000).unwrap(), r(63, 50));
        assert_eq!(Rat64::approx_f64(0.95, 1000).unwrap(), r(19, 20));
        assert_eq!(Rat64::approx_f64(-0.25, 1000).unwrap(), r(-1, 4));
        assert_eq!(Rat64::approx_f64(3.0, 10).unwrap(), r(3, 1));
        assert_eq!(Rat64::approx_f64(0.0, 10).unwrap(), Rat64::ZERO);
        // 1/3 is not representable in binary; the approximation recovers it.
        assert_eq!(Rat64::approx_f64(1.0 / 3.0, 100).unwrap(), r(1, 3));
    }

    #[test]
    fn approx_f64_rejects_non_finite() {
        assert!(Rat64::approx_f64(f64::NAN, 10).is_err());
        assert!(Rat64::approx_f64(f64::INFINITY, 10).is_err());
    }

    #[test]
    fn serde_round_trip_and_validation() {
        let v = r(-63, 50);
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(serde_json::from_str::<Rat64>(&json).unwrap(), v);
        // Non-normalized wire form is normalized on ingest.
        let v: Rat64 = serde_json::from_str(r#"{"num":2,"den":-4}"#).unwrap();
        assert_eq!(v, r(-1, 2));
        // Zero denominator is rejected.
        assert!(serde_json::from_str::<Rat64>(r#"{"num":1,"den":0}"#).is_err());
    }
}
