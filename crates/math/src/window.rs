//! Scalar decomposition for windowed exponentiation.
//!
//! Fixed-base and multi-exponentiation kernels both consume an exponent as a
//! sequence of small digits rather than as raw bits. This module provides the
//! decomposition used by `dstress-crypto::kernels`: [`radix_digits`], plain
//! base-`2^w` digits, least-significant first, every digit in `[0, 2^w)` —
//! what the windowed fixed-base tables and the Straus/Pippenger
//! multi-exponentiations walk. (Signed forms such as NAF halve a table only
//! where inversion is cheap; in the Schnorr subgroups of `Z_p^*` used here an
//! inversion costs a full exponentiation.)

use crate::u256::{LIMBS, U256};

/// Maximum supported window width in bits.
///
/// Table sizes stop being practical long before a digit outgrows the `u64`
/// digit type below, so the decomposition panics beyond this.
pub const MAX_WINDOW_BITS: u32 = 16;

/// Decomposes `e` into base-`2^w` digits, least-significant digit first.
///
/// The output always contains `ceil(256 / w)` digits (trailing zeros are kept)
/// so fixed-base tables can be indexed positionally without tracking the
/// exponent's bit length. Each digit is `< 2^w`.
///
/// # Panics
///
/// Panics if `window_bits` is zero or exceeds [`MAX_WINDOW_BITS`].
pub fn radix_digits(e: &U256, window_bits: u32) -> Vec<u64> {
    assert!(
        (1..=MAX_WINDOW_BITS).contains(&window_bits),
        "window width {window_bits} out of range 1..={MAX_WINDOW_BITS}"
    );
    let mask = if window_bits == 64 {
        u64::MAX
    } else {
        (1u64 << window_bits) - 1
    };
    let total_bits = 64 * LIMBS as u32;
    let digits = total_bits.div_ceil(window_bits);
    let mut out = Vec::with_capacity(digits as usize);
    for i in 0..digits {
        let lo_bit = i * window_bits;
        // A digit can straddle a limb boundary; assemble it bit by bit only
        // when it does, otherwise take the aligned fast path.
        let limb = (lo_bit / 64) as usize;
        let shift = lo_bit % 64;
        let mut digit = e.limbs()[limb] >> shift;
        if shift + window_bits > 64 && limb + 1 < LIMBS {
            digit |= e.limbs()[limb + 1] << (64 - shift);
        }
        out.push(digit & mask);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{DetRng, SplitMix64};
    use proptest::prelude::*;

    /// Reconstructs the value encoded by base-`2^w` digits, wrapping mod
    /// `2^256`: the inverse of [`radix_digits`].
    fn radix_reconstruct(digits: &[u64], window_bits: u32) -> U256 {
        let mut acc = U256::ZERO;
        for &d in digits.iter().rev() {
            for _ in 0..window_bits {
                acc = acc.wrapping_add(&acc);
            }
            acc = acc.wrapping_add(&U256::from_u64(d));
        }
        acc
    }

    fn random_u256(rng: &mut SplitMix64) -> U256 {
        let mut limbs = [0u64; LIMBS];
        for l in &mut limbs {
            *l = rng.next_u64();
        }
        U256::from_limbs(limbs)
    }

    #[test]
    fn radix_digits_of_zero_are_all_zero() {
        for w in [1u32, 3, 4, 8, 13, 16] {
            let digits = radix_digits(&U256::ZERO, w);
            assert_eq!(digits.len() as u32, 256u32.div_ceil(w));
            assert!(digits.iter().all(|&d| d == 0));
        }
    }

    #[test]
    fn radix_digits_respect_the_window_bound() {
        let mut rng = SplitMix64::new(0x5eed_0001);
        for _ in 0..50 {
            let e = random_u256(&mut rng);
            for w in [1u32, 2, 4, 5, 8, 12, 16] {
                for &d in &radix_digits(&e, w) {
                    assert!(d < (1u64 << w));
                }
            }
        }
    }

    #[test]
    fn radix_roundtrip_on_random_values() {
        let mut rng = SplitMix64::new(0x5eed_0002);
        for _ in 0..100 {
            let e = random_u256(&mut rng);
            for w in [1u32, 3, 4, 6, 8, 11, 16] {
                let digits = radix_digits(&e, w);
                assert_eq!(radix_reconstruct(&digits, w), e, "w={w}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_radix_roundtrip(a in any::<u64>(),
                                b in any::<u64>(),
                                w in 1u32..=16) {
            let e = U256::from_limbs([a, b, a ^ b, a.wrapping_mul(b)]);
            let digits = radix_digits(&e, w);
            prop_assert_eq!(radix_reconstruct(&digits, w), e);
        }
    }
}
