//! The distributed noise-generation circuit.
//!
//! In the paper, the aggregation block draws the Laplace noise *inside*
//! MPC, using the circuit construction of Dwork et al. \[23\], so that no
//! single node ever learns the noise value.  Our runtime accounts for that
//! circuit's cost (it is one of the five MPC microbenchmarks in Figures 3
//! and 4) by building a concrete noising circuit and, in the engine,
//! executing it under GMW in the same MPC as the aggregation circuit, its
//! aggregate inputs wired to the aggregation's outputs
//! ([`crate::engine::release_circuit`]).  The noised word stays shared:
//! the released value is still a host-side Laplace draw (`DESIGN.md`
//! row 2).
//!
//! The construction used here converts jointly-contributed uniform random
//! bits into a *discrete two-sided geometric* sample — the discretised
//! Laplace distribution that DStress's own transfer protocol uses — by
//! computing the difference of two "count the leading ones" geometric
//! samples at a configurable resolution, scaling the result, and adding it
//! to the aggregate.  The statistical fine-structure differs slightly from
//! Dwork et al.'s original construction (documented in `DESIGN.md`), but
//! the input layout is the same.  Its cost is that of the builder gadgets
//! it is made of: for `R` random bits per word and an `A`-bit aggregate,
//! two parallel-prefix leading-ones counts
//! ([`CircuitBuilder::leading_ones`], (R/2)·log₂ R AND gates at depth
//! ⌈log₂ R⌉ each, side by side) feed one subtraction and one addition of
//! `A − 1` AND gates each, which pipeline.  So the circuit has
//! R·log₂ R + 2·(A − 1) AND gates at depth ⌈log₂ R⌉ + A − 1: 446 AND at
//! depth 37 for `A = 32`, `R = 64`.

use dstress_circuit::builder::CircuitBuilder;
use dstress_circuit::Circuit;

/// Uniform random bits per leading-ones count of the noising circuit the
/// engine runs: `noising_circuit(aggregate_bits, NOISE_RANDOM_BITS, 0)`.
pub const NOISE_RANDOM_BITS: u32 = 64;

/// Builds a noising circuit.
///
/// Inputs: `aggregate_bits` wires carrying the (shared) aggregate value,
/// followed by `2 · random_bits` wires of jointly-contributed uniform
/// randomness.  Output: `aggregate_bits` wires carrying the noised
/// aggregate (wrapping addition).
///
/// The noise magnitude is `(G1 − G2) · 2^scale_shift`, where `G1` and `G2`
/// are the run lengths of leading ones in each half of the random input —
/// geometrically distributed with parameter ½.
pub fn noising_circuit(aggregate_bits: u32, random_bits: u32, scale_shift: u32) -> Circuit {
    let mut b = CircuitBuilder::new();
    let aggregate = b.input_word(aggregate_bits);
    let r1 = b.input_word(random_bits);
    let r2 = b.input_word(random_bits);

    // Each run length of leading ones is a geometric sample.
    let g1 = b.leading_ones(&r1);
    let g2 = b.leading_ones(&r2);

    // Sign-extend the difference into the aggregate width, scale and add.
    let g1_wide = b.zero_extend(&g1, aggregate_bits);
    let g2_wide = b.zero_extend(&g2, aggregate_bits);
    let diff = b.sub(&g1_wide, &g2_wide);
    let scaled = b.shl_const(&diff, scale_shift);
    let noised = b.add(&aggregate, &scaled);
    b.output_word(&noised);
    b.build().expect("builder circuits are well formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstress_circuit::builder::{decode_word, decode_word_signed, encode_word};
    use dstress_circuit::{evaluate, CircuitStats};

    fn run(aggregate: u64, r1: u64, r2: u64, agg_bits: u32, rand_bits: u32, shift: u32) -> u64 {
        let c = noising_circuit(agg_bits, rand_bits, shift);
        let mut inputs = encode_word(aggregate, agg_bits);
        inputs.extend(encode_word(r1, rand_bits));
        inputs.extend(encode_word(r2, rand_bits));
        decode_word(&evaluate(&c, &inputs).unwrap())
    }

    #[test]
    fn zero_noise_when_runs_are_equal() {
        // Both random words start with the same number of leading ones
        // (counted from the LSB end of the word as laid out), so the noise
        // cancels.
        assert_eq!(run(1000, 0b0111, 0b0111, 16, 4, 0), 1000);
        assert_eq!(run(1000, 0, 0, 16, 4, 3), 1000);
    }

    #[test]
    fn noise_is_signed_difference_of_runs() {
        // r1 has 3 leading ones, r2 has 1: noise = +2.
        assert_eq!(run(500, 0b0111, 0b0001, 16, 4, 0), 502);
        // Reversed: noise = -2 (wrapping at 16 bits).
        assert_eq!(run(500, 0b0001, 0b0111, 16, 4, 0), 498);
        // Scaling multiplies the noise by 2^shift.
        assert_eq!(run(500, 0b0111, 0b0001, 16, 4, 3), 516);
    }

    #[test]
    fn noise_sign_handles_wraparound() {
        let c = noising_circuit(8, 4, 0);
        let mut inputs = encode_word(0, 8);
        inputs.extend(encode_word(0b0001, 4));
        inputs.extend(encode_word(0b1111, 4));
        let out = evaluate(&c, &inputs).unwrap();
        assert_eq!(decode_word_signed(&out), -3);
    }

    /// The circuit's function in native arithmetic:
    /// `(a + ((lo(r1) − lo(r2)) << s)) mod 2^A`, `lo` the leading-ones
    /// count from the least significant bit.
    fn native(aggregate: u64, r1: u64, r2: u64, agg_bits: u32, rand_bits: u32, shift: u32) -> u64 {
        let lo = |r: u64| i128::from((!r).trailing_zeros().min(rand_bits));
        let noised = i128::from(aggregate) + ((lo(r1) - lo(r2)) << shift);
        (noised.rem_euclid(1i128 << agg_bits)) as u64
    }

    #[test]
    fn equals_native_exhaustively_at_small_widths() {
        for agg_bits in 1..=6u32 {
            // The count must fit the aggregate width.
            let rand_widths = (0..=4u32).filter(|&r| 32 - r.leading_zeros() <= agg_bits.max(1));
            for rand_bits in rand_widths {
                for shift in [0, 3] {
                    let c = noising_circuit(agg_bits, rand_bits, shift);
                    for a in 0..1u64 << agg_bits {
                        for r1 in 0..1u64 << rand_bits {
                            for r2 in 0..1u64 << rand_bits {
                                let mut inputs = encode_word(a, agg_bits);
                                inputs.extend(encode_word(r1, rand_bits));
                                inputs.extend(encode_word(r2, rand_bits));
                                assert_eq!(
                                    decode_word(&evaluate(&c, &inputs).unwrap()),
                                    native(a, r1, r2, agg_bits, rand_bits, shift),
                                    "a {a}, r1 {r1:#b}, r2 {r2:#b} at A {agg_bits}, \
                                     R {rand_bits}, shift {shift}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn equals_native_on_every_run_length_of_64_random_bits() {
        let run_of = |j: u32| u64::MAX.checked_shr(64 - j).unwrap_or(0);
        for shift in [0, 3] {
            for j in 0..=64 {
                for k in [0, 1, 7, 63, 64, j] {
                    let (r1, r2) = (run_of(j), run_of(k));
                    for a in [0, 1000, (1 << 32) - 1] {
                        assert_eq!(
                            run(a, r1, r2, 32, 64, shift),
                            native(a, r1, r2, 32, 64, shift),
                            "a {a}, runs {j} and {k}, shift {shift}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn circuit_size_scales_with_random_bits() {
        let small = CircuitStats::of(&noising_circuit(32, 16, 0));
        let large = CircuitStats::of(&noising_circuit(32, 64, 0));
        assert!(large.and_gates > 2 * small.and_gates);
        assert!(small.and_gates > 0);
        assert_eq!(small.outputs, 32);
        assert_eq!(small.inputs, 32 + 2 * 16);
    }

    #[test]
    fn costs_two_parallel_prefix_counts_and_two_adders() {
        for (agg_bits, and_gates, depth) in [(16, 414, 21), (24, 430, 29), (32, 446, 37)] {
            let stats = CircuitStats::of(&noising_circuit(agg_bits, 64, 0));
            assert_eq!((stats.and_gates, stats.and_depth), (and_gates, depth));
            assert_eq!(stats.outputs, agg_bits as usize);
            assert_eq!(stats.inputs, agg_bits as usize + 2 * 64);
        }
    }
}
