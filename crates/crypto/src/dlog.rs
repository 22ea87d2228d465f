//! Discrete-logarithm recovery for exponential ElGamal.
//!
//! Exponential ElGamal encrypts `g^m`; after decryption the recipient holds
//! the group element `g^m` and must recover `m`.  This is only feasible
//! when `m` lies in a small known range.  The paper notes (§3, Appendix B)
//! that the prototype pre-computes a lookup table of `g^c` for all
//! candidate values `c`, and that the table size bounds how much geometric
//! noise can be added before decryption fails (the failure probability
//! `P_fail`).
//!
//! Two mechanisms are provided:
//!
//! * [`DlogTable`] — the prototype's lookup table, keyed on a truncated
//!   64-bit *fingerprint* of each group element (16 bytes per entry instead
//!   of a full element plus exponent). Hits are verified against the full
//!   element by re-encoding the candidate through the generator's
//!   fixed-base table, so fingerprint collisions can never produce a wrong
//!   answer; build-time collisions fall back to an exact side map.
//! * [`baby_step_giant_step`] / [`baby_step_giant_step_signed`] — O(√R)
//!   searches over unsigned and signed ranges. A table built with
//!   [`DlogTable::with_search_range`] uses the signed search as a fallback
//!   when a lookup misses, widening the usable plaintext range far past
//!   what the table itself stores.

use crate::error::CryptoError;
use crate::group::{Group, GroupElem};
use dstress_math::U256;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Truncated fingerprint of a canonical group element: its low 64 bits.
///
/// For the 64-bit simulation group this is the *whole* element, so
/// collisions cannot occur at all; for the 256-bit group collisions are
/// birthday-rare and handled by verification plus the overflow map.
fn fingerprint(canonical: &U256) -> u64 {
    canonical.as_u64()
}

/// A precomputed table mapping `g^m ↦ m` for `m` in a small window.
///
/// The window is `[0, max]` for [`DlogTable::new`] and `[-max, max]` for
/// [`DlogTable::new_signed`]; the signed variant is what the message
/// transfer protocol uses, because the even geometric noise added to the
/// forwarded bit-sums can be negative (Appendix B sizes this window as
/// `N_l` entries).
#[derive(Clone, Debug)]
pub struct DlogTable {
    /// fingerprint(g^m) ↦ m for every window exponent (first writer wins).
    table: HashMap<u64, i64>,
    /// Exact-keyed entries whose fingerprint collided at build time.
    overflow: HashMap<U256, i64>,
    max: u64,
    signed: bool,
    /// Magnitude bound for the BSGS fallback search, when enabled.
    search_range: Option<u64>,
}

impl DlogTable {
    /// Builds a table covering exponents `0..=max`.
    pub fn new(group: &Group, max: u64) -> Self {
        Self::build(group, max, false)
    }

    /// Builds a table covering exponents `-max ..= max` (so `2·max + 1`
    /// entries).
    pub fn new_signed(group: &Group, max: u64) -> Self {
        Self::build(group, max, true)
    }

    fn build(group: &Group, max: u64, signed: bool) -> Self {
        let entries = if signed {
            2 * max as usize + 1
        } else {
            max as usize + 1
        };
        let mut this = DlogTable {
            table: HashMap::with_capacity(entries),
            overflow: HashMap::new(),
            max,
            signed,
            search_range: None,
        };
        let g = group.generator();
        let mut acc = group.identity();
        for m in 0..=max {
            this.insert(group.elem_to_int(acc), m as i64);
            acc = group.mul(acc, g);
        }
        if signed {
            let g_inv = group.inv(g).expect("generator is invertible");
            let mut acc = g_inv;
            for m in 1..=max {
                this.insert(group.elem_to_int(acc), -(m as i64));
                acc = group.mul(acc, g_inv);
            }
        }
        this
    }

    fn insert(&mut self, canonical: U256, m: i64) {
        let fp = fingerprint(&canonical);
        match self.table.entry(fp) {
            Entry::Vacant(slot) => {
                slot.insert(m);
            }
            Entry::Occupied(_) => {
                self.overflow.insert(canonical, m);
            }
        }
    }

    /// Enables a baby-step/giant-step fallback over `[-range, range]` for
    /// lookups that miss the table.
    pub fn with_search_range(mut self, range: u64) -> Self {
        self.search_range = Some(range);
        self
    }

    /// Number of entries in the table (the paper's `N_l`).
    pub fn entries(&self) -> usize {
        self.table.len() + self.overflow.len()
    }

    /// Looks up the discrete log of `elem` as a non-negative value.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::DlogOutOfRange`] when the exponent is not in
    /// the covered range — the event the paper calls a decryption failure —
    /// or when the recovered exponent is negative.
    pub fn lookup(&self, group: &Group, elem: GroupElem) -> Result<u64, CryptoError> {
        match self.lookup_signed(group, elem) {
            Ok(v) if v >= 0 => Ok(v as u64),
            _ => Err(CryptoError::DlogOutOfRange { searched: self.max }),
        }
    }

    /// Looks up the discrete log of `elem`, allowing negative exponents
    /// when the table was built with [`DlogTable::new_signed`].
    ///
    /// A fingerprint hit is confirmed by re-encoding the candidate exponent
    /// (`g^m`, one fixed-base exponentiation) and comparing full elements;
    /// an unconfirmed hit falls through to the exact overflow map and then
    /// to the BSGS fallback, if one was configured.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::DlogOutOfRange`] when the exponent is not in
    /// the covered range.
    pub fn lookup_signed(&self, group: &Group, elem: GroupElem) -> Result<i64, CryptoError> {
        let canonical = group.elem_to_int(elem);
        if let Some(&m) = self.table.get(&fingerprint(&canonical)) {
            if encode_signed(group, m) == elem {
                return Ok(m);
            }
        }
        if let Some(&m) = self.overflow.get(&canonical) {
            return Ok(m);
        }
        if let Some(range) = self.search_range {
            return baby_step_giant_step_signed(group, elem, range)
                .map_err(|_| CryptoError::DlogOutOfRange { searched: range });
        }
        Err(CryptoError::DlogOutOfRange { searched: self.max })
    }

    /// The inclusive window of exponents [`Self::lookup_signed`] can
    /// recover: the table window, widened by the BSGS fallback range when
    /// one was configured.
    ///
    /// This is the contract the static analyzer checks released values
    /// against: a release whose certified interval leaves this window can
    /// produce the paper's "decryption failure" even with zero noise.
    pub fn recovery_window(&self) -> (i64, i64) {
        let lo = if self.signed { -(self.max as i64) } else { 0 };
        let hi = self.max as i64;
        match self.search_range {
            // The BSGS fallback searches [-range, range] regardless of
            // the table's own signedness.
            Some(range) => ((-(range as i64)).min(lo), (range as i64).max(hi)),
            None => (lo, hi),
        }
    }

    /// Approximate memory footprint of the table in bytes, as used by the
    /// Appendix B sizing argument: 16 bytes per fingerprinted entry (a
    /// 64-bit fingerprint plus a 64-bit exponent) plus a full element key
    /// for each overflow entry.
    pub fn memory_bytes(&self, group: &Group) -> usize {
        self.table.len() * 16 + self.overflow.len() * (group.element_bytes() + 8)
    }
}

/// Encodes a signed exponent as a group element: `g^m` for `m ≥ 0`,
/// `g^(q − |m|)` (the inverse) otherwise.
fn encode_signed(group: &Group, m: i64) -> GroupElem {
    if m >= 0 {
        group.generator_pow(&U256::from_u64(m as u64))
    } else {
        let e = group.q().wrapping_sub(&U256::from_u64(m.unsigned_abs()));
        group.generator_pow(&e)
    }
}

/// Recovers `m` such that `g^m == elem` for `m ∈ [0, bound)` using
/// baby-step/giant-step in O(√bound) time and memory.
///
/// The baby-step table is fingerprint-keyed like [`DlogTable`]; candidate
/// matches are verified against the full element before being returned.
///
/// # Errors
///
/// Returns [`CryptoError::DlogOutOfRange`] if no such `m` exists in range.
pub fn baby_step_giant_step(
    group: &Group,
    elem: GroupElem,
    bound: u64,
) -> Result<u64, CryptoError> {
    if bound == 0 {
        return Err(CryptoError::DlogOutOfRange { searched: 0 });
    }
    let m = (bound as f64).sqrt().ceil() as u64;
    // Baby steps: g^j for j in [0, m), fingerprinted; exact keys catch the
    // (birthday-rare) build collisions.
    let mut baby: HashMap<u64, u64> = HashMap::with_capacity(m as usize);
    let mut baby_overflow: HashMap<U256, u64> = HashMap::new();
    let g = group.generator();
    let mut acc = group.identity();
    for j in 0..m {
        let canonical = group.elem_to_int(acc);
        match baby.entry(fingerprint(&canonical)) {
            Entry::Vacant(slot) => {
                slot.insert(j);
            }
            Entry::Occupied(_) => {
                baby_overflow.entry(canonical).or_insert(j);
            }
        }
        acc = group.mul(acc, g);
    }
    // Giant steps: elem * (g^{-m})^i.
    let g_m = group.pow(g, &U256::from_u64(m));
    let g_m_inv = group.inv(g_m)?;
    let mut gamma = elem;
    for i in 0..m {
        let canonical = group.elem_to_int(gamma);
        let mut candidates = [None, None];
        candidates[0] = baby.get(&fingerprint(&canonical)).copied();
        candidates[1] = baby_overflow.get(&canonical).copied();
        for j in candidates.into_iter().flatten() {
            let result = i * m + j;
            // Confirm through the generator table: a fingerprint collision
            // in the baby map must not fabricate an answer.
            if result < bound && group.generator_pow(&U256::from_u64(result)) == elem {
                return Ok(result);
            }
        }
        gamma = group.mul(gamma, g_m_inv);
    }
    Err(CryptoError::DlogOutOfRange { searched: bound })
}

/// Recovers `m` such that `g^m == elem` for `m ∈ [-max, max]`.
///
/// Shifts the problem into the unsigned range by searching
/// `elem · g^max ∈ [0, 2·max]` and subtracting the shift — the standard
/// trick for the signed windows the transfer protocol decrypts over.
///
/// # Errors
///
/// Returns [`CryptoError::DlogOutOfRange`] (with `searched == max`) if no
/// such `m` exists in the window.
pub fn baby_step_giant_step_signed(
    group: &Group,
    elem: GroupElem,
    max: u64,
) -> Result<i64, CryptoError> {
    let shift = group.generator_pow(&U256::from_u64(max));
    let shifted = group.mul(elem, shift);
    match baby_step_giant_step(group, shifted, 2 * max + 1) {
        Ok(v) => Ok(v as i64 - max as i64),
        Err(_) => Err(CryptoError::DlogOutOfRange { searched: max }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_window_matches_construction() {
        let group = Group::sim64();
        assert_eq!(DlogTable::new(&group, 50).recovery_window(), (0, 50));
        assert_eq!(
            DlogTable::new_signed(&group, 50).recovery_window(),
            (-50, 50)
        );
        assert_eq!(
            DlogTable::new(&group, 50)
                .with_search_range(80)
                .recovery_window(),
            (-80, 80)
        );
        assert_eq!(
            DlogTable::new_signed(&group, 100)
                .with_search_range(80)
                .recovery_window(),
            (-100, 100)
        );
    }

    #[test]
    fn table_recovers_all_entries() {
        let group = Group::sim64();
        let table = DlogTable::new(&group, 200);
        assert_eq!(table.entries(), 201);
        for m in [0u64, 1, 2, 50, 199, 200] {
            assert_eq!(table.lookup(&group, group.encode_exponent(m)).unwrap(), m);
        }
    }

    #[test]
    fn table_rejects_out_of_range() {
        let group = Group::sim64();
        let table = DlogTable::new(&group, 10);
        let err = table.lookup(&group, group.encode_exponent(11)).unwrap_err();
        assert_eq!(err, CryptoError::DlogOutOfRange { searched: 10 });
    }

    #[test]
    fn signed_table_recovers_negative_exponents() {
        let group = Group::sim64();
        let table = DlogTable::new_signed(&group, 50);
        assert_eq!(table.entries(), 101);
        for m in [-50i64, -7, -1, 0, 1, 13, 50] {
            let elem = if m >= 0 {
                group.encode_exponent(m as u64)
            } else {
                group
                    .inv(group.encode_exponent((-m) as u64))
                    .expect("group elements are invertible")
            };
            assert_eq!(table.lookup_signed(&group, elem).unwrap(), m);
        }
        // Unsigned lookup rejects negative exponents.
        let neg = group.inv(group.encode_exponent(3)).unwrap();
        assert!(table.lookup(&group, neg).is_err());
        // Out of range either way.
        assert!(table
            .lookup_signed(&group, group.encode_exponent(51))
            .is_err());
    }

    #[test]
    fn tables_work_on_the_prod_group() {
        let group = Group::prod256();
        let table = DlogTable::new_signed(&group, 40);
        for m in [-40i64, -3, 0, 17, 40] {
            let elem = if m >= 0 {
                group.encode_exponent(m as u64)
            } else {
                group.inv(group.encode_exponent((-m) as u64)).unwrap()
            };
            assert_eq!(table.lookup_signed(&group, elem).unwrap(), m);
        }
        assert!(table
            .lookup_signed(&group, group.encode_exponent(41))
            .is_err());
    }

    #[test]
    fn table_memory_estimate() {
        let group = Group::sim64();
        let table = DlogTable::new(&group, 100);
        assert_eq!(table.memory_bytes(&group), 101 * 16);
    }

    #[test]
    fn fingerprint_table_is_smaller_than_full_key_table() {
        // The fingerprint encoding stores 16 bytes per entry regardless of
        // the element width; the old full-key layout needed 40 on prod256.
        let group = Group::prod256();
        let table = DlogTable::new(&group, 100);
        assert_eq!(table.memory_bytes(&group), 101 * 16);
        assert!(table.memory_bytes(&group) < 101 * (group.element_bytes() + 8));
    }

    #[test]
    fn search_range_fallback_widens_the_window() {
        let group = Group::sim64();
        let table = DlogTable::new_signed(&group, 10).with_search_range(50_000);
        // Inside the table: served by the fingerprint map.
        assert_eq!(
            table
                .lookup_signed(&group, group.encode_exponent(7))
                .unwrap(),
            7
        );
        // Outside the table but inside the search range: BSGS fallback.
        assert_eq!(
            table
                .lookup_signed(&group, group.encode_exponent(40_000))
                .unwrap(),
            40_000
        );
        let neg = group.inv(group.encode_exponent(12_345)).unwrap();
        assert_eq!(table.lookup_signed(&group, neg).unwrap(), -12_345);
        // Outside both: the error reports the searched range.
        let err = table
            .lookup_signed(&group, group.encode_exponent(60_000))
            .unwrap_err();
        assert_eq!(err, CryptoError::DlogOutOfRange { searched: 50_000 });
    }

    #[test]
    fn bsgs_recovers_values() {
        let group = Group::sim64();
        for m in [0u64, 1, 17, 999, 12345, 65535] {
            let elem = group.encode_exponent(m);
            assert_eq!(baby_step_giant_step(&group, elem, 70_000).unwrap(), m);
        }
    }

    #[test]
    fn bsgs_rejects_out_of_range() {
        let group = Group::sim64();
        let elem = group.encode_exponent(1000);
        assert!(baby_step_giant_step(&group, elem, 100).is_err());
        assert!(baby_step_giant_step(&group, elem, 0).is_err());
    }

    #[test]
    fn signed_bsgs_covers_both_signs() {
        for group in [Group::sim64(), Group::prod256()] {
            for m in [-500i64, -33, -1, 0, 1, 212, 500] {
                let elem = if m >= 0 {
                    group.encode_exponent(m as u64)
                } else {
                    group.inv(group.encode_exponent((-m) as u64)).unwrap()
                };
                assert_eq!(baby_step_giant_step_signed(&group, elem, 500).unwrap(), m);
            }
        }
    }

    #[test]
    fn signed_bsgs_rejection_matches_the_table_error() {
        let group = Group::sim64();
        let elem = group.encode_exponent(600);
        let table = DlogTable::new_signed(&group, 500);
        let table_err = table.lookup_signed(&group, elem).unwrap_err();
        let bsgs_err = baby_step_giant_step_signed(&group, elem, 500).unwrap_err();
        assert_eq!(table_err, bsgs_err);
        assert_eq!(bsgs_err, CryptoError::DlogOutOfRange { searched: 500 });
        // Negative out-of-range rejects identically.
        let neg = group.inv(group.encode_exponent(501)).unwrap();
        assert_eq!(
            baby_step_giant_step_signed(&group, neg, 500).unwrap_err(),
            CryptoError::DlogOutOfRange { searched: 500 }
        );
    }

    #[test]
    fn bsgs_matches_table_on_prod_group() {
        let group = Group::prod256();
        let table = DlogTable::new(&group, 64);
        for m in [0u64, 3, 31, 64] {
            let elem = group.encode_exponent(m);
            assert_eq!(
                table.lookup(&group, elem).unwrap(),
                baby_step_giant_step(&group, elem, 65).unwrap()
            );
        }
    }
}
