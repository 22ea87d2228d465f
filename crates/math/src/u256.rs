//! Fixed-width 256-bit unsigned integers.
//!
//! [`U256`] is stored as four little-endian 64-bit limbs and never
//! allocates.  It provides exactly the operations the rest of the
//! reproduction needs: carry-propagating addition and subtraction,
//! widening multiplication, comparisons, shifts, bit access and
//! hex/decimal conversion.  Modular arithmetic lives in [`crate::field`].

// Limb arithmetic reads clearest with explicit indices; iterator forms of
// the carry/borrow loops obscure the lockstep access to both operands.
#![allow(clippy::needless_range_loop)]

use crate::error::MathError;
use core::cmp::Ordering;
use core::fmt;

/// Number of 64-bit limbs in a [`U256`].
pub const LIMBS: usize = 4;

/// A 256-bit unsigned integer stored as little-endian 64-bit limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256 {
    limbs: [u64; LIMBS],
}

impl U256 {
    /// The value zero.
    pub const ZERO: U256 = U256 { limbs: [0; LIMBS] };
    /// The value one.
    pub const ONE: U256 = U256 {
        limbs: [1, 0, 0, 0],
    };
    /// The maximum representable value (2^256 - 1).
    pub const MAX: U256 = U256 {
        limbs: [u64::MAX; LIMBS],
    };

    /// Creates a value from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; LIMBS]) -> Self {
        U256 { limbs }
    }

    /// Returns the little-endian limbs.
    pub const fn limbs(&self) -> [u64; LIMBS] {
        self.limbs
    }

    /// Creates a value from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        U256 {
            limbs: [v, 0, 0, 0],
        }
    }

    /// Creates a value from a `u128`.
    pub const fn from_u128(v: u128) -> Self {
        U256 {
            limbs: [v as u64, (v >> 64) as u64, 0, 0],
        }
    }

    /// Returns the low 64 bits.
    pub const fn as_u64(&self) -> u64 {
        self.limbs[0]
    }

    /// Returns the low 128 bits.
    pub const fn as_u128(&self) -> u128 {
        (self.limbs[0] as u128) | ((self.limbs[1] as u128) << 64)
    }

    /// Returns `true` if the value fits in 64 bits.
    pub const fn fits_u64(&self) -> bool {
        self.limbs[1] == 0 && self.limbs[2] == 0 && self.limbs[3] == 0
    }

    /// Returns `true` if the value is zero.
    pub const fn is_zero(&self) -> bool {
        self.limbs[0] == 0 && self.limbs[1] == 0 && self.limbs[2] == 0 && self.limbs[3] == 0
    }

    /// Returns `true` if the value is odd.
    pub const fn is_odd(&self) -> bool {
        self.limbs[0] & 1 == 1
    }

    /// Returns the number of significant bits (0 for zero).
    pub fn bits(&self) -> u32 {
        for i in (0..LIMBS).rev() {
            if self.limbs[i] != 0 {
                return (i as u32) * 64 + (64 - self.limbs[i].leading_zeros());
            }
        }
        0
    }

    /// Returns bit `i` (little-endian numbering).
    ///
    /// Bits at positions >= 256 are reported as zero.
    pub fn bit(&self, i: u32) -> bool {
        if i >= 256 {
            return false;
        }
        (self.limbs[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Adds `rhs`, returning the wrapped sum and the carry-out.
    pub fn overflowing_add(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; LIMBS];
        let mut carry = 0u64;
        for i in 0..LIMBS {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        (U256 { limbs: out }, carry != 0)
    }

    /// Adds `rhs`, wrapping on overflow.
    pub fn wrapping_add(&self, rhs: &U256) -> U256 {
        self.overflowing_add(rhs).0
    }

    /// Adds `rhs`, returning `None` on overflow.
    pub fn checked_add(&self, rhs: &U256) -> Option<U256> {
        let (v, overflow) = self.overflowing_add(rhs);
        if overflow {
            None
        } else {
            Some(v)
        }
    }

    /// Subtracts `rhs`, returning the wrapped difference and the borrow-out.
    pub fn overflowing_sub(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; LIMBS];
        let mut borrow = 0u64;
        for i in 0..LIMBS {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (U256 { limbs: out }, borrow != 0)
    }

    /// Subtracts `rhs`, wrapping on underflow.
    pub fn wrapping_sub(&self, rhs: &U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Subtracts `rhs`, returning `None` on underflow.
    pub fn checked_sub(&self, rhs: &U256) -> Option<U256> {
        let (v, borrow) = self.overflowing_sub(rhs);
        if borrow {
            None
        } else {
            Some(v)
        }
    }

    /// Full widening multiplication: returns (low, high) 256-bit halves of
    /// the 512-bit product.
    pub fn mul_wide(&self, rhs: &U256) -> (U256, U256) {
        let mut out = [0u64; 2 * LIMBS];
        for i in 0..LIMBS {
            let mut carry = 0u128;
            for j in 0..LIMBS {
                let acc =
                    out[i + j] as u128 + (self.limbs[i] as u128) * (rhs.limbs[j] as u128) + carry;
                out[i + j] = acc as u64;
                carry = acc >> 64;
            }
            out[i + LIMBS] = carry as u64;
        }
        (
            U256 {
                limbs: [out[0], out[1], out[2], out[3]],
            },
            U256 {
                limbs: [out[4], out[5], out[6], out[7]],
            },
        )
    }

    /// Multiplies by `rhs`, returning `None` if the product does not fit.
    pub fn checked_mul(&self, rhs: &U256) -> Option<U256> {
        let (lo, hi) = self.mul_wide(rhs);
        if hi.is_zero() {
            Some(lo)
        } else {
            None
        }
    }

    /// Multiplies by `rhs`, wrapping modulo 2^256.
    pub fn wrapping_mul(&self, rhs: &U256) -> U256 {
        self.mul_wide(rhs).0
    }

    /// Shifts left by `n` bits (n < 256), shifting in zeros.
    pub fn shl(&self, n: u32) -> U256 {
        if n == 0 {
            return *self;
        }
        if n >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut out = [0u64; LIMBS];
        for i in (limb_shift..LIMBS).rev() {
            let mut v = self.limbs[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                v |= self.limbs[i - limb_shift - 1] >> (64 - bit_shift);
            }
            out[i] = v;
        }
        U256 { limbs: out }
    }

    /// Shifts right by `n` bits (n < 256), shifting in zeros.
    pub fn shr(&self, n: u32) -> U256 {
        if n == 0 {
            return *self;
        }
        if n >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut out = [0u64; LIMBS];
        for i in 0..(LIMBS - limb_shift) {
            let mut v = self.limbs[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < LIMBS {
                v |= self.limbs[i + limb_shift + 1] << (64 - bit_shift);
            }
            out[i] = v;
        }
        U256 { limbs: out }
    }

    /// Bitwise XOR.
    pub fn bitxor(&self, rhs: &U256) -> U256 {
        let mut out = [0u64; LIMBS];
        for i in 0..LIMBS {
            out[i] = self.limbs[i] ^ rhs.limbs[i];
        }
        U256 { limbs: out }
    }

    /// Bitwise AND.
    pub fn bitand(&self, rhs: &U256) -> U256 {
        let mut out = [0u64; LIMBS];
        for i in 0..LIMBS {
            out[i] = self.limbs[i] & rhs.limbs[i];
        }
        U256 { limbs: out }
    }

    /// Bitwise OR.
    pub fn bitor(&self, rhs: &U256) -> U256 {
        let mut out = [0u64; LIMBS];
        for i in 0..LIMBS {
            out[i] = self.limbs[i] | rhs.limbs[i];
        }
        U256 { limbs: out }
    }

    /// Computes `self mod rhs` by binary long division, one shift and
    /// conditional subtraction per bit of `self`.
    ///
    /// Besides parameter generation and field conversion
    /// (`FpCtx::to_elem_reduced`), it runs on every exponent of the hot
    /// paths: `FixedBasePow::pow` and `CombPow::recode` in
    /// `dstress-crypto`, and the transfer protocol's
    /// `homomorphic_add_signed` and `decrypt_bits`.  It is cheap there
    /// only because those exponents already lie below the group order
    /// and take the `self < rhs` early return; an unreduced 256-bit value
    /// pays up to 256 division steps.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn rem(&self, rhs: &U256) -> U256 {
        assert!(!rhs.is_zero(), "division by zero");
        if self < rhs {
            return *self;
        }
        let mut remainder = U256::ZERO;
        let bits = self.bits();
        for i in (0..bits).rev() {
            remainder = remainder.shl(1);
            if self.bit(i) {
                remainder = remainder.wrapping_add(&U256::ONE);
            }
            if &remainder >= rhs {
                remainder = remainder.wrapping_sub(rhs);
            }
        }
        remainder
    }

    /// Parses a big-endian hexadecimal string (with or without `0x` prefix).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidHex`] if the string is empty, longer than
    /// 64 hex digits, or contains non-hex characters.
    pub fn from_hex(s: &str) -> Result<U256, MathError> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        let s = s.trim();
        if s.is_empty() || s.len() > 64 {
            return Err(MathError::InvalidHex);
        }
        let mut value = U256::ZERO;
        for ch in s.chars() {
            let digit = ch.to_digit(16).ok_or(MathError::InvalidHex)? as u64;
            value = value.shl(4).bitor(&U256::from_u64(digit));
        }
        Ok(value)
    }

    /// Formats the value as a lowercase big-endian hexadecimal string
    /// without leading zeros (zero formats as `"0"`).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        let mut started = false;
        for i in (0..LIMBS).rev() {
            if started {
                s.push_str(&format!("{:016x}", self.limbs[i]));
            } else if self.limbs[i] != 0 {
                s.push_str(&format!("{:x}", self.limbs[i]));
                started = true;
            }
        }
        s
    }

    /// Serialises to 32 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..LIMBS {
            out[(LIMBS - 1 - i) * 8..(LIMBS - i) * 8].copy_from_slice(&self.limbs[i].to_be_bytes());
        }
        out
    }

    /// Deserialises from 32 big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> U256 {
        let mut limbs = [0u64; LIMBS];
        for i in 0..LIMBS {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[(LIMBS - 1 - i) * 8..(LIMBS - i) * 8]);
            limbs[i] = u64::from_be_bytes(chunk);
        }
        U256 { limbs }
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..LIMBS).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{})", self.to_hex())
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        U256::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constants() {
        assert!(U256::ZERO.is_zero());
        assert!(!U256::ONE.is_zero());
        assert_eq!(U256::ONE.as_u64(), 1);
        assert_eq!(U256::MAX.bits(), 256);
    }

    #[test]
    fn add_sub_roundtrip_small() {
        let a = U256::from_u64(12345);
        let b = U256::from_u64(67890);
        let sum = a.wrapping_add(&b);
        assert_eq!(sum.as_u64(), 80235);
        assert_eq!(sum.wrapping_sub(&b), a);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = U256::from_limbs([u64::MAX, 0, 0, 0]);
        let b = U256::ONE;
        let sum = a.wrapping_add(&b);
        assert_eq!(sum, U256::from_limbs([0, 1, 0, 0]));
    }

    #[test]
    fn overflow_is_reported() {
        let (_, carry) = U256::MAX.overflowing_add(&U256::ONE);
        assert!(carry);
        assert_eq!(U256::MAX.checked_add(&U256::ONE), None);
        let (_, borrow) = U256::ZERO.overflowing_sub(&U256::ONE);
        assert!(borrow);
        assert_eq!(U256::ZERO.checked_sub(&U256::ONE), None);
    }

    #[test]
    fn mul_wide_matches_u128() {
        let a = U256::from_u64(u64::MAX);
        let b = U256::from_u64(u64::MAX);
        let (lo, hi) = a.mul_wide(&b);
        assert!(hi.is_zero());
        assert_eq!(lo.as_u128(), (u64::MAX as u128) * (u64::MAX as u128));
    }

    #[test]
    fn mul_wide_high_half() {
        // (2^192) * (2^192) = 2^384 => low half zero, high half = 2^128.
        let a = U256::ONE.shl(192);
        let (lo, hi) = a.mul_wide(&a);
        assert!(lo.is_zero());
        assert_eq!(hi, U256::ONE.shl(128));
    }

    #[test]
    fn shifts() {
        let one = U256::ONE;
        assert_eq!(one.shl(255).bits(), 256);
        assert_eq!(one.shl(255).shr(255), one);
        assert_eq!(one.shl(256), U256::ZERO);
        assert_eq!(one.shr(1), U256::ZERO);
        let v = U256::from_u128(0x1234_5678_9abc_def0_1122_3344_5566_7788);
        assert_eq!(v.shl(64).shr(64), v);
    }

    #[test]
    fn bit_access() {
        let v = U256::from_u64(0b1010);
        assert!(!v.bit(0));
        assert!(v.bit(1));
        assert!(!v.bit(2));
        assert!(v.bit(3));
        assert!(!v.bit(300));
    }

    #[test]
    fn rem_large_values() {
        let a = U256::MAX;
        let b = U256::from_u64(0xffff_ffff);
        let r = a.rem(&b);
        // 2^256 - 1 mod (2^32 - 1) == 0 because 2^32 ≡ 1 (mod 2^32-1).
        assert!(r.is_zero());
    }

    #[test]
    fn rem_returns_reduced_values_early_and_divides_the_rest() {
        // q = 2^255 - 19.
        let q = U256::MAX.shr(1).wrapping_sub(&U256::from_u64(18));
        assert_eq!(q.bits(), 255);
        // Below the modulus: the early return, the value unchanged.
        let below = q.wrapping_sub(&U256::ONE);
        assert_eq!(below.rem(&q), below);
        assert_eq!(U256::from_u64(5).rem(&q), U256::from_u64(5));
        // The modulus itself: zero.
        assert_eq!(q.rem(&q), U256::ZERO);
        // Full width: 2^256 - 1 = 2·q + 37.
        assert_eq!(U256::MAX.rem(&q), U256::from_u64(37));
    }

    #[test]
    fn hex_roundtrip() {
        let v = U256::from_hex("0xdeadbeefcafebabe1234567890abcdef").unwrap();
        assert_eq!(U256::from_hex(&v.to_hex()).unwrap(), v);
        assert_eq!(U256::from_hex("0").unwrap(), U256::ZERO);
        assert!(U256::from_hex("").is_err());
        assert!(U256::from_hex("zz").is_err());
        assert!(U256::from_hex(&"f".repeat(65)).is_err());
        assert_eq!(U256::from_hex(&"f".repeat(64)).unwrap(), U256::MAX);
    }

    #[test]
    fn byte_roundtrip() {
        let v = U256::from_hex("0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20")
            .unwrap();
        assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
        assert_eq!(v.to_be_bytes()[0], 0x01);
        assert_eq!(v.to_be_bytes()[31], 0x20);
    }

    #[test]
    fn ordering() {
        let a = U256::from_limbs([0, 0, 0, 1]);
        let b = U256::from_limbs([u64::MAX, u64::MAX, u64::MAX, 0]);
        assert!(a > b);
        assert!(b < a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn display_and_debug() {
        let v = U256::from_u64(255);
        assert_eq!(format!("{v}"), "0xff");
        assert!(format!("{v:?}").contains("ff"));
    }

    fn arb_u256() -> impl Strategy<Value = U256> {
        prop::array::uniform4(any::<u64>()).prop_map(U256::from_limbs)
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in arb_u256(), b in arb_u256()) {
            prop_assert_eq!(a.wrapping_add(&b), b.wrapping_add(&a));
        }

        #[test]
        fn prop_add_sub_inverse(a in arb_u256(), b in arb_u256()) {
            prop_assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
        }

        #[test]
        fn prop_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let (lo, hi) = U256::from_u64(a).mul_wide(&U256::from_u64(b));
            prop_assert!(hi.is_zero());
            prop_assert_eq!(lo.as_u128(), (a as u128) * (b as u128));
        }

        #[test]
        fn prop_mul_commutative(a in arb_u256(), b in arb_u256()) {
            prop_assert_eq!(a.mul_wide(&b), b.mul_wide(&a));
        }

        #[test]
        fn prop_shift_roundtrip(a in arb_u256(), n in 0u32..255) {
            // Shifting left then right loses only the bits that overflowed.
            let masked = a.shl(n).shr(n);
            let expect = a.shl(n).shr(n);
            prop_assert_eq!(masked, expect);
            // Low bits are preserved when no overflow occurs.
            if a.bits() + n <= 256 {
                prop_assert_eq!(a.shl(n).shr(n), a);
            }
        }

        #[test]
        fn prop_rem_matches_u128(a in any::<u128>(), b in any::<u64>()) {
            prop_assume!(b != 0);
            let r = U256::from_u128(a).rem(&U256::from_u64(b));
            prop_assert_eq!(r.as_u128(), a % u128::from(b));
        }

        #[test]
        fn prop_hex_roundtrip(a in arb_u256()) {
            prop_assert_eq!(U256::from_hex(&a.to_hex()).unwrap(), a);
        }

        #[test]
        fn prop_bytes_roundtrip(a in arb_u256()) {
            prop_assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
        }

        #[test]
        fn prop_xor_involution(a in arb_u256(), b in arb_u256()) {
            prop_assert_eq!(a.bitxor(&b).bitxor(&b), a);
        }
    }
}
