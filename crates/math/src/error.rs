//! Error type shared by the arithmetic modules.

use core::fmt;

/// Errors produced by the arithmetic substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MathError {
    /// A value was not strictly smaller than the modulus it was used with.
    ValueOutOfRange {
        /// Human-readable description of the offending operation.
        context: &'static str,
    },
    /// The modulus supplied to a Montgomery context was even or zero.
    InvalidModulus,
    /// A modular inverse was requested for a non-invertible element.
    NotInvertible,
    /// A hex string could not be parsed into a [`crate::U256`].
    InvalidHex,
    /// A fixed-point operation overflowed its underlying representation.
    FixedOverflow {
        /// The operation that overflowed.
        op: &'static str,
    },
}

impl fmt::Display for MathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MathError::ValueOutOfRange { context } => {
                write!(f, "value out of range: {context}")
            }
            MathError::InvalidModulus => write!(f, "modulus must be odd and non-zero"),
            MathError::NotInvertible => write!(f, "element is not invertible"),
            MathError::InvalidHex => write!(f, "invalid hexadecimal string"),
            MathError::FixedOverflow { op } => write!(f, "fixed-point overflow in {op}"),
        }
    }
}

impl std::error::Error for MathError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MathError::ValueOutOfRange { context: "encrypt" };
        assert!(e.to_string().contains("encrypt"));
        assert!(MathError::InvalidModulus.to_string().contains("odd"));
        assert!(MathError::NotInvertible.to_string().contains("invertible"));
        assert!(MathError::InvalidHex.to_string().contains("hex"));
        assert!(MathError::FixedOverflow { op: "mul" }
            .to_string()
            .contains("mul"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(MathError::InvalidModulus, MathError::InvalidModulus);
        assert_ne!(MathError::InvalidModulus, MathError::InvalidHex);
    }
}
