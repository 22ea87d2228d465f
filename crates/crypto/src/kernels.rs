//! Fast exponentiation kernels for the transfer hot path.
//!
//! The transfer protocol's cost is dominated by exponentiations whose bases
//! are *fixed* across many uses — above all the group generator — plus
//! exponential-ElGamal decryptions whose per-receiver ciphertexts all
//! share one ephemeral component. Three kernels exploit that structure:
//!
//! * [`FixedBasePow`] — a windowed fixed-base table: one-off precomputation
//!   of `base^(d·2^(w·i))` for every window `i` and digit `d`, after which a
//!   full exponentiation is one table lookup and multiply per nonzero digit,
//!   with **zero** squarings. Window width `w` trades memory
//!   (`(2^w − 1)·⌈|q|/w⌉` elements) against speed (`⌈|q|/w⌉` multiplies per
//!   exponentiation).
//! * [`CombPow`] — a Lim–Lee comb table for a base that lives only as long
//!   as one transfer step (a certificate key met by the `k + 1` senders'
//!   ephemerals, an adjusted `c1` met by the receiver's `L` secrets, a
//!   registered key met by every neighbor key that re-randomises it): 2 KB
//!   and 272 multiplies to build, then one squaring and one multiply per
//!   column, for several exponents in lock-step.
//! * [`multi_pow`] — simultaneous multi-exponentiation `∏ bᵢ^eᵢ`: Straus's
//!   interleaved method for small batches (shared squaring chain), switching
//!   to Pippenger's bucket method for large ones.
//!
//! Every kernel is pinned bit-identical to the square-and-multiply path by
//! proptests (exponents in the order-`q` subgroup wrap mod `q`, exactly as
//! [`Group::pow`] documents), so swapping a kernel into the protocol cannot
//! change any released value.

use crate::group::{Group, GroupElem};
use dstress_math::field::{FpCtx, FpElem};
use dstress_math::u256::LIMBS;
use dstress_math::window::radix_digits;
use dstress_math::U256;
use std::sync::Arc;

/// Widest supported fixed-base window (2^12 − 1 entries per window).
pub const MAX_FIXED_BASE_WINDOW: u32 = 12;

/// A windowed fixed-base exponentiation table for one group element.
///
/// For window width `w`, `windows[i][d − 1]` holds `base^(d · 2^(w·i))`;
/// an exponentiation reduces the exponent mod `q`, splits it into base-`2^w`
/// digits and multiplies one table entry per nonzero digit.
#[derive(Clone, Debug)]
pub struct FixedBasePow {
    window_bits: u32,
    q: U256,
    ctx: Arc<FpCtx>,
    windows: Vec<Vec<FpElem>>,
}

impl FixedBasePow {
    /// Builds the table for `base` (assumed to lie in the order-`q`
    /// subgroup, as every protocol element does).
    ///
    /// # Panics
    ///
    /// Panics if `window_bits` is zero or exceeds
    /// [`MAX_FIXED_BASE_WINDOW`].
    pub fn new(group: &Group, base: GroupElem, window_bits: u32) -> Self {
        Self::from_parts(group.p_ctx_arc(), group.q(), base.0, window_bits)
    }

    /// Internal constructor shared with [`Group`]'s lazily built generator
    /// table (which cannot pass a `&Group` while constructing itself).
    pub(crate) fn from_parts(ctx: Arc<FpCtx>, q: U256, base: FpElem, window_bits: u32) -> Self {
        assert!(
            (1..=MAX_FIXED_BASE_WINDOW).contains(&window_bits),
            "window width {window_bits} out of range 1..={MAX_FIXED_BASE_WINDOW}"
        );
        let num_windows = q.bits().max(1).div_ceil(window_bits) as usize;
        let entries_per_window = (1usize << window_bits) - 1;
        let mut windows = Vec::with_capacity(num_windows);
        let mut window_base = base;
        for i in 0..num_windows {
            let mut entries = Vec::with_capacity(entries_per_window);
            let mut acc = window_base;
            for d in 0..entries_per_window {
                entries.push(acc);
                if d + 1 < entries_per_window {
                    acc = ctx.mul(acc, window_base);
                }
            }
            windows.push(entries);
            if i + 1 < num_windows {
                for _ in 0..window_bits {
                    window_base = ctx.mul(window_base, window_base);
                }
            }
        }
        FixedBasePow {
            window_bits,
            q,
            ctx,
            windows,
        }
    }

    /// The window width in bits.
    pub fn window_bits(&self) -> u32 {
        self.window_bits
    }

    /// Computes `base^e`. The exponent wraps mod `q`, matching
    /// [`Group::pow`] on order-`q` bases bit for bit.
    ///
    /// Digits are extracted from the limbs on the fly (the same base-`2^w`
    /// split as [`radix_digits`], which the construction uses and the
    /// proptests pin) so the hot path performs no allocation.
    pub fn pow(&self, e: &U256) -> GroupElem {
        let e = e.rem(&self.q);
        let limbs = e.limbs();
        let w = self.window_bits;
        let mask = (1u64 << w) - 1;
        let mut acc = self.ctx.one();
        for (i, window) in self.windows.iter().enumerate() {
            let bit = i as u32 * w;
            let limb = (bit / 64) as usize;
            if limb >= LIMBS {
                break;
            }
            let shift = bit % 64;
            let mut d = limbs[limb] >> shift;
            if shift + w > 64 && limb + 1 < LIMBS {
                d |= limbs[limb + 1] << (64 - shift);
            }
            d &= mask;
            if d != 0 {
                acc = self.ctx.mul(acc, window[d as usize - 1]);
            }
        }
        GroupElem(acc)
    }

    /// Approximate memory footprint: one 32-byte element per table entry.
    pub fn memory_bytes(&self) -> usize {
        self.windows.iter().map(Vec::len).sum::<usize>() * 32
    }
}

/// Teeth of the [`CombPow`] comb.  With `a = ⌈|q|/h⌉` columns a table costs
/// `(h − 1)·a` squarings + `2^h − 1 − h` multiplies to build and each
/// exponentiation under `a` squarings + `a` multiplies, against ≈ 255 + 128
/// for the binary ladder of [`Group::pow`].  On the 256-bit group, for one
/// certificate key serving the `k + 1 = 8` senders of a block:
/// `h = 4`: 203 + 8·128 = 1 227; `h = 6`: 272 + 8·86 = 960; `h = 7`:
/// 342 + 8·74 = 934 but a 4 KB table, and measured no faster — 6 it is
/// (ladder: 3 064).
const COMB_TEETH: u32 = 6;

/// Most columns a comb can have: `⌈256/h⌉`.
const COMB_MAX_COLUMNS: usize = (64 * LIMBS).div_ceil(COMB_TEETH as usize);

/// An exponent recoded for [`CombPow`]: column `j` holds the bits
/// `j, a + j, …, (h − 1)·a + j` of `e mod q` as one `h`-bit digit.  Only
/// meaningful for tables of the [`Group`] that recoded it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CombDigits([u8; COMB_MAX_COLUMNS]);

/// A Lim–Lee comb table for one group element: `table[u] = ∏ base^(2^(i·a))`
/// over the set bits `i` of `u` (`table[0]` is the identity, so evaluation
/// never branches on a digit).
#[derive(Clone, Debug)]
pub struct CombPow<'g> {
    ctx: &'g FpCtx,
    columns: usize,
    table: [FpElem; 1 << COMB_TEETH],
}

impl<'g> CombPow<'g> {
    fn columns(group: &Group) -> usize {
        group.q().bits().div_ceil(COMB_TEETH) as usize
    }

    /// Builds the table for `base` (assumed to lie in the order-`q`
    /// subgroup, as every protocol element does).
    pub fn new(group: &'g Group, base: GroupElem) -> Self {
        let ctx = group.p_ctx();
        let columns = Self::columns(group);
        let mut table = [ctx.one(); 1 << COMB_TEETH];
        let mut tooth = base.0;
        for i in 0..COMB_TEETH as usize {
            if i > 0 {
                for _ in 0..columns {
                    tooth = ctx.mul(tooth, tooth);
                }
            }
            table[1 << i] = tooth;
            for low in 1..1 << i {
                table[(1 << i) | low] = ctx.mul(tooth, table[low]);
            }
        }
        CombPow {
            ctx,
            columns,
            table,
        }
    }

    /// Recodes `e` once for any number of tables of `group`.  The exponent
    /// wraps mod `q`, matching [`Group::pow`] on order-`q` bases bit for
    /// bit; no allocation (the smaller group just uses fewer columns).
    pub fn recode(group: &Group, e: &U256) -> CombDigits {
        let e = e.rem(&group.q());
        let columns = Self::columns(group);
        let mut digits = [0u8; COMB_MAX_COLUMNS];
        for (j, digit) in digits.iter_mut().enumerate().take(columns) {
            for i in 0..COMB_TEETH {
                *digit |= (e.bit(i * columns as u32 + j as u32) as u8) << i;
            }
        }
        CombDigits(digits)
    }

    /// Computes `base^e` for one recoded exponent.
    pub fn pow(&self, digits: &CombDigits) -> GroupElem {
        let mut out = [GroupElem(self.ctx.one())];
        self.pow_many(std::slice::from_ref(digits), &mut out);
        out[0]
    }

    /// Computes `out[i] = base^(e_i)` for every recoded exponent, walking
    /// the columns once with all accumulators in lock-step: the chains are
    /// independent, so their latency-bound multiplies overlap in the CPU.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn pow_many(&self, digits: &[CombDigits], out: &mut [GroupElem]) {
        assert_eq!(
            digits.len(),
            out.len(),
            "pow_many needs one slot per exponent"
        );
        // The top column seeds the accumulators (|q| ≥ 2, so there is one).
        let top = self.columns - 1;
        for (acc, d) in out.iter_mut().zip(digits) {
            acc.0 = self.table[d.0[top] as usize];
        }
        for j in (0..top).rev() {
            for (acc, d) in out.iter_mut().zip(digits) {
                let squared = self.ctx.mul(acc.0, acc.0);
                acc.0 = self.ctx.mul(squared, self.table[d.0[j] as usize]);
            }
        }
    }
}

/// Computes `∏ bases[i]^exponents[i]` with a single shared squaring chain.
///
/// Uses Straus's interleaved method (per-base radix-16 tables) for fewer
/// than 32 bases and Pippenger's bucket method beyond that. Exponents are
/// **not** reduced, so the result equals the naive product of
/// [`Group::pow`] calls for arbitrary bases and exponents.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn multi_pow(group: &Group, bases: &[GroupElem], exponents: &[U256]) -> GroupElem {
    assert_eq!(
        bases.len(),
        exponents.len(),
        "multi_pow needs one exponent per base"
    );
    if bases.is_empty() {
        return group.identity();
    }
    if bases.len() < 32 {
        straus(group, bases, exponents)
    } else {
        pippenger(group, bases, exponents)
    }
}

/// Straus interleaved multi-exponentiation with 4-bit windows.
fn straus(group: &Group, bases: &[GroupElem], exponents: &[U256]) -> GroupElem {
    const W: u32 = 4;
    let ctx = group.p_ctx();
    let tables: Vec<Vec<FpElem>> = bases
        .iter()
        .map(|b| {
            let mut entries = Vec::with_capacity(15);
            let mut acc = b.0;
            for d in 0..15 {
                entries.push(acc);
                if d + 1 < 15 {
                    acc = ctx.mul(acc, b.0);
                }
            }
            entries
        })
        .collect();
    let digit_rows: Vec<Vec<u64>> = exponents.iter().map(|e| radix_digits(e, W)).collect();
    let top = match highest_nonzero_digit(&digit_rows) {
        Some(top) => top,
        None => return group.identity(),
    };
    let mut acc = ctx.one();
    for i in (0..=top).rev() {
        if i != top {
            for _ in 0..W {
                acc = ctx.mul(acc, acc);
            }
        }
        for (row, table) in digit_rows.iter().zip(&tables) {
            let d = row[i];
            if d != 0 {
                acc = ctx.mul(acc, table[d as usize - 1]);
            }
        }
    }
    GroupElem(acc)
}

/// Pippenger bucket multi-exponentiation; window width grows with the
/// batch size.
fn pippenger(group: &Group, bases: &[GroupElem], exponents: &[U256]) -> GroupElem {
    let w: u32 = if bases.len() < 256 { 6 } else { 8 };
    let ctx = group.p_ctx();
    let digit_rows: Vec<Vec<u64>> = exponents.iter().map(|e| radix_digits(e, w)).collect();
    let top = match highest_nonzero_digit(&digit_rows) {
        Some(top) => top,
        None => return group.identity(),
    };
    let buckets_len = (1usize << w) - 1;
    let mut acc = ctx.one();
    for i in (0..=top).rev() {
        if i != top {
            for _ in 0..w {
                acc = ctx.mul(acc, acc);
            }
        }
        let mut buckets: Vec<Option<FpElem>> = vec![None; buckets_len];
        for (row, base) in digit_rows.iter().zip(bases) {
            let d = row[i] as usize;
            if d != 0 {
                buckets[d - 1] = Some(match buckets[d - 1] {
                    Some(cur) => ctx.mul(cur, base.0),
                    None => base.0,
                });
            }
        }
        // Suffix-sum the buckets: ∑ d·bucket[d] via two multiplies per
        // occupied bucket.
        let mut running: Option<FpElem> = None;
        let mut sum: Option<FpElem> = None;
        for bucket in buckets.iter().rev() {
            if let Some(b) = bucket {
                running = Some(match running {
                    Some(r) => ctx.mul(r, *b),
                    None => *b,
                });
            }
            if let Some(r) = running {
                sum = Some(match sum {
                    Some(s) => ctx.mul(s, r),
                    None => r,
                });
            }
        }
        if let Some(s) = sum {
            acc = ctx.mul(acc, s);
        }
    }
    GroupElem(acc)
}

/// Index of the highest digit position that is nonzero in any row.
fn highest_nonzero_digit(rows: &[Vec<u64>]) -> Option<usize> {
    rows.iter()
        .filter_map(|row| row.iter().rposition(|&d| d != 0))
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupKind;
    use dstress_math::rng::Xoshiro256;
    use proptest::prelude::*;

    fn groups() -> [Group; 2] {
        [Group::sim64(), Group::prod256()]
    }

    #[test]
    fn fixed_base_matches_square_and_multiply() {
        for group in groups() {
            let mut rng = Xoshiro256::new(0xFB);
            for w in [1u32, 4, 6, 8] {
                let base = group.generator_pow(&group.random_nonzero_exponent(&mut rng));
                let table = FixedBasePow::new(&group, base, w);
                for _ in 0..8 {
                    let e = group.random_exponent(&mut rng);
                    assert_eq!(
                        table.pow(&e),
                        group.pow(base, &e),
                        "{:?} w={w}",
                        group.kind()
                    );
                }
                // Edge exponents.
                assert_eq!(table.pow(&U256::ZERO), group.identity());
                assert_eq!(table.pow(&U256::ONE), base);
                assert_eq!(table.pow(&group.q()), group.identity());
            }
        }
    }

    #[test]
    fn fixed_base_wraps_exponents_mod_q() {
        let group = Group::sim64();
        let table = FixedBasePow::new(&group, group.generator(), 8);
        let e = U256::from_u64(12345);
        let wrapped = group.add_exponents(&e, &group.q()); // == e mod q
        assert_eq!(table.pow(&e), table.pow(&wrapped));
        let big = group.q().wrapping_add(&e);
        assert_eq!(table.pow(&big), group.generator_pow(&e));
    }

    #[test]
    fn fixed_base_memory_scales_with_window() {
        let group = Group::prod256();
        let w4 = FixedBasePow::new(&group, group.generator(), 4);
        let w8 = FixedBasePow::new(&group, group.generator(), 8);
        assert_eq!(w4.memory_bytes(), 64 * 15 * 32); // ⌈256/4⌉ windows × 15 entries
        assert_eq!(w8.memory_bytes(), 32 * 255 * 32);
        assert!(w8.memory_bytes() > w4.memory_bytes());
        assert_eq!(w4.window_bits(), 4);
    }

    #[test]
    fn comb_matches_square_and_multiply_on_edge_cases() {
        for group in groups() {
            let mut rng = Xoshiro256::new(0xC0B);
            let q = group.q();
            let edges = [
                U256::ZERO,
                U256::ONE,
                q.wrapping_sub(&U256::ONE),
                q,
                q.wrapping_add(&U256::ONE),
                U256::MAX,
            ];
            let random = group.generator_pow(&group.random_nonzero_exponent(&mut rng));
            for base in [group.identity(), group.generator(), random] {
                let table = CombPow::new(&group, base);
                for e in &edges {
                    assert_eq!(
                        table.pow(&CombPow::recode(&group, e)),
                        group.pow(base, e),
                        "{:?} e={e:?}",
                        group.kind()
                    );
                }
                // Exponents wrap mod q, as they do for `FixedBasePow`.
                assert_eq!(
                    CombPow::recode(&group, &q),
                    CombPow::recode(&group, &U256::ZERO)
                );
            }
        }
    }

    #[test]
    fn comb_build_and_recode_use_the_documented_shape() {
        // 2^6 table slots (identity + 63 products) and ⌈|q|/6⌉ columns: 43
        // on the 256-bit group, 11 on the simulation group.
        let prod = Group::prod256();
        let table = CombPow::new(&prod, prod.generator());
        assert_eq!((table.table.len(), table.columns), (64, 43));
        assert_eq!(std::mem::size_of_val(&table.table), 2048);
        let sim = Group::sim64();
        assert_eq!(CombPow::new(&sim, sim.generator()).columns, 11);
        let digits = CombPow::recode(&sim, &U256::MAX);
        assert!(digits.0[11..].iter().all(|&d| d == 0));
    }

    #[test]
    fn multi_pow_matches_naive_product() {
        for group in groups() {
            let mut rng = Xoshiro256::new(0x3117);
            for n in [0usize, 1, 2, 7, 31, 40, 64] {
                let bases: Vec<GroupElem> = (0..n)
                    .map(|_| group.generator_pow(&group.random_nonzero_exponent(&mut rng)))
                    .collect();
                let exps: Vec<U256> = (0..n).map(|_| group.random_exponent(&mut rng)).collect();
                let fast = multi_pow(&group, &bases, &exps);
                let naive = bases
                    .iter()
                    .zip(&exps)
                    .fold(group.identity(), |acc, (b, e)| {
                        group.mul(acc, group.pow(*b, e))
                    });
                assert_eq!(fast, naive, "{:?} n={n}", group.kind());
            }
        }
    }

    #[test]
    fn multi_pow_handles_zero_exponents() {
        let group = Group::sim64();
        let mut rng = Xoshiro256::new(4);
        let bases: Vec<GroupElem> = (0..5)
            .map(|_| group.generator_pow(&group.random_nonzero_exponent(&mut rng)))
            .collect();
        let exps = vec![U256::ZERO; 5];
        assert_eq!(multi_pow(&group, &bases, &exps), group.identity());
        // Mixed zero / nonzero.
        let mut exps = vec![U256::ZERO; 5];
        exps[2] = U256::from_u64(9);
        assert_eq!(
            multi_pow(&group, &bases, &exps),
            group.pow(bases[2], &U256::from_u64(9))
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_fixed_base_equals_naive(seed in any::<u64>(), w in 1u32..=10) {
            for kind in [GroupKind::Sim64, GroupKind::Prod256] {
                let group = Group::new(kind);
                let mut rng = Xoshiro256::new(seed);
                let base = group.generator_pow(&group.random_nonzero_exponent(&mut rng));
                let table = FixedBasePow::new(&group, base, w);
                let e = group.random_exponent(&mut rng);
                prop_assert_eq!(table.pow(&e), group.pow(base, &e));
            }
        }

        #[test]
        fn prop_comb_equals_naive_in_every_lane(seed in any::<u64>()) {
            for kind in [GroupKind::Sim64, GroupKind::Prod256] {
                let group = Group::new(kind);
                let mut rng = Xoshiro256::new(seed);
                let base = group.generator_pow(&group.random_exponent(&mut rng));
                let table = CombPow::new(&group, base);
                for lanes in [1usize, 2, 3, 8] {
                    let exps: Vec<U256> =
                        (0..lanes).map(|_| group.random_exponent(&mut rng)).collect();
                    let digits: Vec<CombDigits> =
                        exps.iter().map(|e| CombPow::recode(&group, e)).collect();
                    // Stale slot contents must not leak into the result.
                    let mut out = vec![base; lanes];
                    table.pow_many(&digits, &mut out);
                    for ((e, d), got) in exps.iter().zip(&digits).zip(&out) {
                        prop_assert_eq!(*got, group.pow(base, e));
                        prop_assert_eq!(table.pow(d), *got);
                    }
                }
            }
        }

        #[test]
        fn prop_multi_pow_equals_naive(seed in any::<u64>(), n in 1usize..48) {
            for kind in [GroupKind::Sim64, GroupKind::Prod256] {
                let group = Group::new(kind);
                let mut rng = Xoshiro256::new(seed);
                let bases: Vec<GroupElem> = (0..n)
                    .map(|_| group.generator_pow(&group.random_nonzero_exponent(&mut rng)))
                    .collect();
                let exps: Vec<U256> = (0..n).map(|_| group.random_exponent(&mut rng)).collect();
                let naive = bases.iter().zip(&exps).fold(group.identity(), |acc, (b, e)| {
                    group.mul(acc, group.pow(*b, e))
                });
                prop_assert_eq!(multi_pow(&group, &bases, &exps), naive);
            }
        }
    }
}
