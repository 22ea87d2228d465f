//! Signed fixed-point arithmetic.
//!
//! DStress runs its vertex programs inside Boolean circuits, which means
//! every quantity in the systemic-risk models (reserves, debts, pro-rating
//! fractions, valuations) is a fixed-point number of a known bit width.
//! [`Fixed`] is the plaintext mirror of that representation: a signed
//! 64-bit raw value with [`FRAC_BITS`] fractional bits.  The plaintext
//! reference implementations of Eisenberg–Noe and Elliott–Golub–Jackson use
//! it so that the MPC results can be compared bit-for-bit against the
//! reference (the rounding behaviour is identical by construction).

use crate::error::MathError;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Number of fractional bits in a [`Fixed`].
pub const FRAC_BITS: u32 = 20;

/// The scaling factor `2^FRAC_BITS`.
pub const SCALE: i64 = 1 << FRAC_BITS;

/// A signed fixed-point number with [`FRAC_BITS`] fractional bits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fixed {
    raw: i64,
}

impl Fixed {
    /// Zero.
    pub const ZERO: Fixed = Fixed { raw: 0 };
    /// One.
    pub const ONE: Fixed = Fixed { raw: SCALE };
    /// The largest representable value.
    pub const MAX: Fixed = Fixed { raw: i64::MAX };
    /// The smallest representable value.
    pub const MIN: Fixed = Fixed { raw: i64::MIN };

    /// Creates a value from its raw underlying representation.
    pub const fn from_raw(raw: i64) -> Self {
        Fixed { raw }
    }

    /// Returns the raw underlying representation.
    pub const fn raw(&self) -> i64 {
        self.raw
    }

    /// Creates a value from an integer.
    pub const fn from_int(v: i64) -> Self {
        Fixed { raw: v * SCALE }
    }

    /// Creates a value from an `f64`, rounding to the nearest representable
    /// value.
    pub fn from_f64(v: f64) -> Self {
        Fixed {
            raw: (v * SCALE as f64).round() as i64,
        }
    }

    /// Converts to `f64`.
    pub fn to_f64(&self) -> f64 {
        self.raw as f64 / SCALE as f64
    }

    /// Truncates to the integer part (rounding towards zero).
    pub const fn trunc(&self) -> i64 {
        self.raw / SCALE
    }

    /// Returns `true` if the value is negative.
    pub const fn is_negative(&self) -> bool {
        self.raw < 0
    }

    /// Returns `true` if the value is zero.
    pub const fn is_zero(&self) -> bool {
        self.raw == 0
    }

    /// Absolute value (saturating at [`Fixed::MAX`] for `MIN`).
    pub const fn abs(&self) -> Fixed {
        Fixed {
            raw: self.raw.saturating_abs(),
        }
    }

    /// Returns the smaller of two values.
    pub fn min(self, other: Fixed) -> Fixed {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two values.
    pub fn max(self, other: Fixed) -> Fixed {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Clamps the value into `[lo, hi]`.
    pub fn clamp(self, lo: Fixed, hi: Fixed) -> Fixed {
        self.max(lo).min(hi)
    }

    /// Checked addition.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::FixedOverflow`] on overflow.
    pub fn checked_add(self, rhs: Fixed) -> Result<Fixed, MathError> {
        self.raw
            .checked_add(rhs.raw)
            .map(Fixed::from_raw)
            .ok_or(MathError::FixedOverflow { op: "add" })
    }

    /// Checked subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::FixedOverflow`] on overflow.
    pub fn checked_sub(self, rhs: Fixed) -> Result<Fixed, MathError> {
        self.raw
            .checked_sub(rhs.raw)
            .map(Fixed::from_raw)
            .ok_or(MathError::FixedOverflow { op: "sub" })
    }

    /// Checked multiplication (full-precision intermediate, truncated).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::FixedOverflow`] if the result does not fit.
    pub fn checked_mul(self, rhs: Fixed) -> Result<Fixed, MathError> {
        let wide = ((self.raw as i128) * (rhs.raw as i128)) >> FRAC_BITS;
        i64::try_from(wide)
            .map(Fixed::from_raw)
            .map_err(|_| MathError::FixedOverflow { op: "mul" })
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Fixed) -> Fixed {
        Fixed {
            raw: self.raw.saturating_add(rhs.raw),
        }
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Fixed) -> Fixed {
        Fixed {
            raw: self.raw.saturating_sub(rhs.raw),
        }
    }

    /// Saturating multiplication.
    pub fn saturating_mul(self, rhs: Fixed) -> Fixed {
        let wide = ((self.raw as i128) * (rhs.raw as i128)) >> FRAC_BITS;
        Fixed {
            raw: wide.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
        }
    }
}

impl Add for Fixed {
    type Output = Fixed;
    fn add(self, rhs: Fixed) -> Fixed {
        Fixed {
            raw: self.raw + rhs.raw,
        }
    }
}

impl AddAssign for Fixed {
    fn add_assign(&mut self, rhs: Fixed) {
        self.raw += rhs.raw;
    }
}

impl Sub for Fixed {
    type Output = Fixed;
    fn sub(self, rhs: Fixed) -> Fixed {
        Fixed {
            raw: self.raw - rhs.raw,
        }
    }
}

impl SubAssign for Fixed {
    fn sub_assign(&mut self, rhs: Fixed) {
        self.raw -= rhs.raw;
    }
}

impl Mul for Fixed {
    type Output = Fixed;
    fn mul(self, rhs: Fixed) -> Fixed {
        Fixed {
            raw: ((self.raw as i128 * rhs.raw as i128) >> FRAC_BITS) as i64,
        }
    }
}

impl Div for Fixed {
    type Output = Fixed;
    fn div(self, rhs: Fixed) -> Fixed {
        assert!(rhs.raw != 0, "fixed-point division by zero");
        Fixed {
            raw: (((self.raw as i128) << FRAC_BITS) / rhs.raw as i128) as i64,
        }
    }
}

impl Neg for Fixed {
    type Output = Fixed;
    fn neg(self) -> Fixed {
        Fixed { raw: -self.raw }
    }
}

impl fmt::Debug for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fixed({})", self.to_f64())
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.to_f64())
    }
}

impl From<i64> for Fixed {
    fn from(v: i64) -> Self {
        Fixed::from_int(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn int_roundtrip() {
        for v in [-100i64, -1, 0, 1, 42, 1_000_000] {
            assert_eq!(Fixed::from_int(v).trunc(), v);
        }
    }

    #[test]
    fn f64_roundtrip_is_close() {
        for v in [-3.25f64, 0.0, 0.5, 1.0 / 3.0, 12345.678] {
            let fx = Fixed::from_f64(v);
            assert!((fx.to_f64() - v).abs() < 1e-5, "value {v}");
        }
    }

    #[test]
    fn arithmetic_identities() {
        let a = Fixed::from_f64(3.5);
        let b = Fixed::from_f64(1.25);
        assert_eq!((a + b).to_f64(), 4.75);
        assert_eq!((a - b).to_f64(), 2.25);
        assert_eq!((a * b).to_f64(), 4.375);
        assert!(((a / b).to_f64() - 2.8).abs() < 1e-5);
        assert_eq!((-a).to_f64(), -3.5);
    }

    #[test]
    fn mul_by_one_and_zero() {
        let a = Fixed::from_f64(7.75);
        assert_eq!(a * Fixed::ONE, a);
        assert_eq!(a * Fixed::ZERO, Fixed::ZERO);
    }

    #[test]
    fn comparison_and_minmax() {
        let a = Fixed::from_f64(1.0);
        let b = Fixed::from_f64(2.0);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Fixed::from_f64(5.0).clamp(a, b), b);
        assert_eq!(Fixed::from_f64(-5.0).clamp(a, b), a);
        assert_eq!(Fixed::from_f64(1.5).clamp(a, b), Fixed::from_f64(1.5));
    }

    #[test]
    fn checked_ops_detect_overflow() {
        assert!(Fixed::MAX.checked_add(Fixed::ONE).is_err());
        assert!(Fixed::MIN.checked_sub(Fixed::ONE).is_err());
        assert!(Fixed::MAX.checked_mul(Fixed::from_int(2)).is_err());
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Fixed::MAX.saturating_add(Fixed::ONE), Fixed::MAX);
        assert_eq!(Fixed::MIN.saturating_sub(Fixed::ONE), Fixed::MIN);
        assert_eq!(Fixed::MAX.saturating_mul(Fixed::from_int(3)), Fixed::MAX);
        assert_eq!(
            Fixed::from_int(2).saturating_mul(Fixed::from_int(3)),
            Fixed::from_int(6)
        );
    }

    #[test]
    fn abs_and_negative() {
        assert_eq!(Fixed::from_int(-5).abs(), Fixed::from_int(5));
        assert!(Fixed::from_int(-5).is_negative());
        assert!(!Fixed::ZERO.is_negative());
        assert!(Fixed::ZERO.is_zero());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Fixed::from_f64(1.5)), "1.500000");
        assert!(format!("{:?}", Fixed::from_f64(1.5)).contains("1.5"));
    }

    proptest! {
        #[test]
        fn prop_add_sub_roundtrip(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
            let fa = Fixed::from_int(a);
            let fb = Fixed::from_int(b);
            prop_assert_eq!(fa + fb - fb, fa);
        }

        #[test]
        fn prop_mul_matches_f64(a in -10_000.0f64..10_000.0, b in -10_000.0f64..10_000.0) {
            let product = (Fixed::from_f64(a) * Fixed::from_f64(b)).to_f64();
            let expected = a * b;
            // Fixed-point truncation error is bounded by roughly |a|+|b| ulps.
            prop_assert!((product - expected).abs() < 0.1, "{product} vs {expected}");
        }

        #[test]
        fn prop_div_mul_roundtrip(a in -100_000.0f64..100_000.0, b in 0.01f64..1000.0) {
            let fa = Fixed::from_f64(a);
            let fb = Fixed::from_f64(b);
            let back = (fa / fb) * fb;
            prop_assert!((back.to_f64() - a).abs() < 0.01, "{} vs {a}", back.to_f64());
        }

        #[test]
        fn prop_ordering_matches_f64(a in -1000.0f64..1000.0, b in -1000.0f64..1000.0) {
            prop_assume!((a - b).abs() > 1e-4);
            prop_assert_eq!(Fixed::from_f64(a) < Fixed::from_f64(b), a < b);
        }
    }
}
