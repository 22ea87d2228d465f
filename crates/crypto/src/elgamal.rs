//! ElGamal and exponential ElGamal encryption.
//!
//! DStress needs an encryption scheme with two unusual properties (§3 of
//! the paper): an *additive homomorphism* and a way to *re-randomise public
//! keys*.  Exponential ElGamal provides both:
//!
//! * Encrypting `g^m` instead of `m` turns ElGamal's multiplicative
//!   homomorphism into an additive one — the product of two ciphertexts
//!   decrypts to the sum of the plaintexts.
//! * A public key `h = g^x` can be re-randomised to `h^r = g^{xr}` without
//!   knowledge of `x`; a ciphertext produced under the re-randomised key is
//!   decryptable with the original secret key after its ephemeral component
//!   is raised to the same `r` (the *adjust* step of the transfer protocol).
//!
//! The module also implements the multi-recipient optimisation of
//! Kurosawa \[44\] used by the prototype (§5.1): when a sender encrypts the
//! `L` bits of a sub-share to the same recipient, a single ephemeral key is
//! reused across all `L` bits, at the cost of the recipient providing `L`
//! distinct public keys.

use crate::error::CryptoError;
use crate::group::{Group, GroupElem};
use dstress_math::rng::DetRng;
use dstress_math::U256;

/// An ElGamal secret key: an exponent `x ∈ Z_q`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SecretKey(pub(crate) U256);

/// An ElGamal public key: the group element `h = g^x`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PublicKey(pub(crate) GroupElem);

/// A secret/public key pair.
#[derive(Clone, Copy, Debug)]
pub struct KeyPair {
    /// The secret exponent.
    pub secret: SecretKey,
    /// The public element `g^x`.
    pub public: PublicKey,
}

/// An ElGamal ciphertext `(c1, c2) = (g^y, m · h^y)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ciphertext {
    /// The ephemeral component `g^y`.
    pub c1: GroupElem,
    /// The masked message `m · h^y`.
    pub c2: GroupElem,
}

impl SecretKey {
    /// Returns the raw exponent (used only by the trusted-party setup,
    /// which never leaves the local node in the real deployment).
    pub fn exponent(&self) -> U256 {
        self.0
    }
}

impl PublicKey {
    /// Returns the underlying group element.
    pub fn element(&self) -> GroupElem {
        self.0
    }

    /// Constructs a public key from a raw group element (e.g. one read
    /// from a block certificate).
    pub fn from_element(e: GroupElem) -> Self {
        PublicKey(e)
    }
}

impl KeyPair {
    /// Generates a fresh key pair.
    pub fn generate(group: &Group, rng: &mut dyn DetRng) -> Self {
        let x = group.random_nonzero_exponent(rng);
        let h = group.generator_pow(&x);
        KeyPair {
            secret: SecretKey(x),
            public: PublicKey(h),
        }
    }
}

/// Number of bytes on the wire for a ciphertext in the given group
/// (two group elements).
pub fn ciphertext_bytes(group: &Group) -> usize {
    2 * group.element_bytes()
}

/// Encrypts a group element under `pk`.
pub fn encrypt(
    group: &Group,
    pk: &PublicKey,
    message: GroupElem,
    rng: &mut dyn DetRng,
) -> Ciphertext {
    let y = group.random_nonzero_exponent(rng);
    encrypt_with_ephemeral(group, pk, message, &y)
}

/// Encrypts a group element under `pk` using a caller-supplied ephemeral
/// exponent (the multi-recipient optimisation reuses one ephemeral across
/// several encryptions).
pub fn encrypt_with_ephemeral(
    group: &Group,
    pk: &PublicKey,
    message: GroupElem,
    ephemeral: &U256,
) -> Ciphertext {
    let c1 = group.generator_pow(ephemeral);
    let shared = group.pow(pk.0, ephemeral);
    let c2 = group.mul(message, shared);
    Ciphertext { c1, c2 }
}

/// Decrypts a ciphertext with the matching secret key, returning the
/// encrypted group element.
///
/// # Errors
///
/// Returns [`CryptoError::MalformedCiphertext`] if the ciphertext contains
/// a non-invertible component.
pub fn decrypt(group: &Group, sk: &SecretKey, ct: &Ciphertext) -> Result<GroupElem, CryptoError> {
    let shared = group.pow(ct.c1, &sk.0);
    let shared_inv = group.inv(shared)?;
    Ok(group.mul(ct.c2, shared_inv))
}

/// Encrypts the small non-negative integer `m` as `g^m` (exponential
/// ElGamal).  The result supports [`homomorphic_add`].
pub fn encrypt_exponent(group: &Group, pk: &PublicKey, m: u64, rng: &mut dyn DetRng) -> Ciphertext {
    encrypt(group, pk, group.encode_exponent(m), rng)
}

/// Homomorphically adds two exponential-ElGamal ciphertexts: the result
/// decrypts to `g^{m1 + m2}`.
pub fn homomorphic_add(group: &Group, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
    Ciphertext {
        c1: group.mul(a.c1, b.c1),
        c2: group.mul(a.c2, b.c2),
    }
}

/// Re-randomises a public key: `h ↦ h^r`.
///
/// The neighbor key `r` is chosen by the *vertex owner* during setup; the
/// members of the neighbouring block only ever see the re-randomised key,
/// so they cannot recognise the key's owner (§3.4).
pub fn rerandomize_public_key(group: &Group, pk: &PublicKey, r: &U256) -> PublicKey {
    PublicKey(group.pow(pk.0, r))
}

/// Adjusts a ciphertext that was produced under a re-randomised key
/// `h^r` so that it decrypts under the *original* secret key: the
/// ephemeral component is raised to `r` (§3).
pub fn adjust_ciphertext(group: &Group, ct: &Ciphertext, r: &U256) -> Ciphertext {
    Ciphertext {
        c1: group.pow(ct.c1, r),
        c2: ct.c2,
    }
}

/// Encrypts each bit of `bits` to the corresponding public key in `pks`,
/// reusing a single ephemeral key across all of them (Kurosawa
/// multi-recipient optimisation, §5.1 of the paper).
///
/// # Errors
///
/// Returns [`CryptoError::ShareCountMismatch`] if `bits` and `pks` have
/// different lengths.
pub fn encrypt_bits_multi_recipient(
    group: &Group,
    pks: &[PublicKey],
    bits: &[bool],
    rng: &mut dyn DetRng,
) -> Result<Vec<Ciphertext>, CryptoError> {
    if pks.len() != bits.len() {
        return Err(CryptoError::ShareCountMismatch {
            expected: pks.len(),
            actual: bits.len(),
        });
    }
    let ephemeral = group.random_nonzero_exponent(rng);
    Ok(bits
        .iter()
        .zip(pks.iter())
        .map(|(&bit, pk)| {
            encrypt_with_ephemeral(group, pk, group.encode_exponent(bit as u64), &ephemeral)
        })
        .collect())
}

/// The same multi-recipient encryption as [`encrypt_bits_multi_recipient`]
/// with a caller-supplied ephemeral, computing the shared component
/// `c1 = g^y` **once** instead of once per bit.
///
/// Bit-identical to the per-bit path (each ciphertext's values are the same
/// group elements); the transfer protocol uses this to avoid `L − 1`
/// redundant generator exponentiations per sub-share.
///
/// # Errors
///
/// Returns [`CryptoError::ShareCountMismatch`] if `bits` and `pks` have
/// different lengths.
pub fn encrypt_bits_shared_c1(
    group: &Group,
    pks: &[PublicKey],
    bits: &[bool],
    ephemeral: &U256,
) -> Result<Vec<Ciphertext>, CryptoError> {
    if pks.len() != bits.len() {
        return Err(CryptoError::ShareCountMismatch {
            expected: pks.len(),
            actual: bits.len(),
        });
    }
    let c1 = group.generator_pow(ephemeral);
    Ok(bits
        .iter()
        .zip(pks.iter())
        .map(|(&bit, pk)| {
            let shared = group.pow(pk.0, ephemeral);
            Ciphertext {
                c1,
                c2: group.mul(group.encode_exponent(bit as u64), shared),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlog::DlogTable;
    use dstress_math::rng::{DetRng, SplitMix64, Xoshiro256};
    use proptest::prelude::*;

    fn setup() -> (Group, KeyPair, Xoshiro256) {
        let group = Group::sim64();
        let mut rng = Xoshiro256::new(0xE16A);
        let kp = KeyPair::generate(&group, &mut rng);
        (group, kp, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (group, kp, mut rng) = setup();
        for m in [0u64, 1, 7, 255, 4096] {
            let msg = group.encode_exponent(m);
            let ct = encrypt(&group, &kp.public, msg, &mut rng);
            assert_eq!(decrypt(&group, &kp.secret, &ct).unwrap(), msg);
        }
    }

    #[test]
    fn encrypt_is_randomised() {
        let (group, kp, mut rng) = setup();
        let msg = group.encode_exponent(42);
        let c1 = encrypt(&group, &kp.public, msg, &mut rng);
        let c2 = encrypt(&group, &kp.public, msg, &mut rng);
        assert_ne!(c1, c2, "two encryptions of the same message must differ");
    }

    #[test]
    fn wrong_key_fails_to_decrypt() {
        let (group, kp, mut rng) = setup();
        let other = KeyPair::generate(&group, &mut rng);
        let msg = group.encode_exponent(9);
        let ct = encrypt(&group, &kp.public, msg, &mut rng);
        assert_ne!(decrypt(&group, &other.secret, &ct).unwrap(), msg);
    }

    #[test]
    fn additive_homomorphism() {
        let (group, kp, mut rng) = setup();
        let table = DlogTable::new(&group, 1000);
        let ca = encrypt_exponent(&group, &kp.public, 123, &mut rng);
        let cb = encrypt_exponent(&group, &kp.public, 456, &mut rng);
        let sum = homomorphic_add(&group, &ca, &cb);
        let decrypted = decrypt(&group, &kp.secret, &sum).unwrap();
        assert_eq!(table.lookup(&group, decrypted).unwrap(), 579);
    }

    #[test]
    fn key_rerandomisation_roundtrip() {
        let (group, kp, mut rng) = setup();
        let r = group.random_nonzero_exponent(&mut rng);
        let randomized = rerandomize_public_key(&group, &kp.public, &r);
        assert_ne!(randomized.element(), kp.public.element());

        let msg = group.encode_exponent(77);
        let ct = encrypt(&group, &randomized, msg, &mut rng);
        // Without adjustment the original key cannot decrypt.
        assert_ne!(decrypt(&group, &kp.secret, &ct).unwrap(), msg);
        // After adjusting the ephemeral component it can.
        let adjusted = adjust_ciphertext(&group, &ct, &r);
        assert_eq!(decrypt(&group, &kp.secret, &adjusted).unwrap(), msg);
    }

    #[test]
    fn adjustment_commutes_with_homomorphic_add() {
        // The transfer protocol aggregates ciphertexts *before* vertex j
        // adjusts them; the result must equal adjusting first and adding
        // afterwards.
        let (group, kp, mut rng) = setup();
        let r = group.random_nonzero_exponent(&mut rng);
        let randomized = rerandomize_public_key(&group, &kp.public, &r);
        let table = DlogTable::new(&group, 100);

        // Same ephemeral reuse pattern as the real protocol is not needed
        // here; independent ephemerals also work.
        let ca = encrypt_exponent(&group, &randomized, 5, &mut rng);
        let cb = encrypt_exponent(&group, &randomized, 11, &mut rng);
        let aggregated_then_adjusted =
            adjust_ciphertext(&group, &homomorphic_add(&group, &ca, &cb), &r);
        let adjusted_then_aggregated = homomorphic_add(
            &group,
            &adjust_ciphertext(&group, &ca, &r),
            &adjust_ciphertext(&group, &cb, &r),
        );
        let da = decrypt(&group, &kp.secret, &aggregated_then_adjusted).unwrap();
        let db = decrypt(&group, &kp.secret, &adjusted_then_aggregated).unwrap();
        assert_eq!(table.lookup(&group, da).unwrap(), 16);
        assert_eq!(table.lookup(&group, db).unwrap(), 16);
    }

    #[test]
    fn multi_recipient_encryption() {
        let (group, _, mut rng) = setup();
        let table = DlogTable::new(&group, 2);
        let keys: Vec<KeyPair> = (0..12)
            .map(|_| KeyPair::generate(&group, &mut rng))
            .collect();
        let pks: Vec<PublicKey> = keys.iter().map(|k| k.public).collect();
        let bits: Vec<bool> = (0..12).map(|i| i % 3 == 0).collect();
        let cts = encrypt_bits_multi_recipient(&group, &pks, &bits, &mut rng).unwrap();
        assert_eq!(cts.len(), 12);
        // All ciphertexts share the ephemeral component.
        assert!(cts.iter().all(|c| c.c1 == cts[0].c1));
        for ((ct, key), &bit) in cts.iter().zip(keys.iter()).zip(bits.iter()) {
            let m = decrypt(&group, &key.secret, ct).unwrap();
            assert_eq!(table.lookup(&group, m).unwrap(), bit as u64);
        }
    }

    #[test]
    fn shared_c1_encryption_matches_per_bit_path() {
        let (group, _, mut rng) = setup();
        let keys: Vec<KeyPair> = (0..8)
            .map(|_| KeyPair::generate(&group, &mut rng))
            .collect();
        let pks: Vec<PublicKey> = keys.iter().map(|k| k.public).collect();
        let bits: Vec<bool> = (0..8).map(|i| i % 2 == 1).collect();
        let mut rng_a = Xoshiro256::new(77);
        let mut rng_b = rng_a.clone();
        let per_bit = encrypt_bits_multi_recipient(&group, &pks, &bits, &mut rng_a).unwrap();
        let ephemeral = group.random_nonzero_exponent(&mut rng_b);
        let shared = encrypt_bits_shared_c1(&group, &pks, &bits, &ephemeral).unwrap();
        assert_eq!(per_bit, shared, "both paths must be bit-identical");
        // Both consumed the same single RNG draw.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn multi_recipient_length_mismatch() {
        let (group, kp, mut rng) = setup();
        let err = encrypt_bits_multi_recipient(&group, &[kp.public], &[true, false], &mut rng)
            .unwrap_err();
        assert!(matches!(err, CryptoError::ShareCountMismatch { .. }));
    }

    #[test]
    fn works_on_prod256_group() {
        let group = Group::prod256();
        let mut rng = SplitMix64::new(9);
        let kp = KeyPair::generate(&group, &mut rng);
        let msg = group.encode_exponent(321);
        let ct = encrypt(&group, &kp.public, msg, &mut rng);
        assert_eq!(decrypt(&group, &kp.secret, &ct).unwrap(), msg);
        assert_eq!(ciphertext_bytes(&group), 64);
        assert_eq!(ciphertext_bytes(&Group::sim64()), 16);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_roundtrip(seed in any::<u64>(), m in 0u64..10_000) {
            let group = Group::sim64();
            let mut rng = Xoshiro256::new(seed);
            let kp = KeyPair::generate(&group, &mut rng);
            let msg = group.encode_exponent(m);
            let ct = encrypt(&group, &kp.public, msg, &mut rng);
            prop_assert_eq!(decrypt(&group, &kp.secret, &ct).unwrap(), msg);
        }

        #[test]
        fn prop_homomorphism(seed in any::<u64>(), a in 0u64..500, b in 0u64..500) {
            let group = Group::sim64();
            let mut rng = Xoshiro256::new(seed);
            let kp = KeyPair::generate(&group, &mut rng);
            let ca = encrypt_exponent(&group, &kp.public, a, &mut rng);
            let cb = encrypt_exponent(&group, &kp.public, b, &mut rng);
            let sum = homomorphic_add(&group, &ca, &cb);
            let expected = group.encode_exponent(a + b);
            prop_assert_eq!(decrypt(&group, &kp.secret, &sum).unwrap(), expected);
        }

        #[test]
        fn prop_rerandomisation(seed in any::<u64>(), m in 0u64..1000) {
            let group = Group::sim64();
            let mut rng = Xoshiro256::new(seed);
            let kp = KeyPair::generate(&group, &mut rng);
            let r = group.random_nonzero_exponent(&mut rng);
            let pk_r = rerandomize_public_key(&group, &kp.public, &r);
            let msg = group.encode_exponent(m);
            let ct = encrypt(&group, &pk_r, msg, &mut rng);
            let adjusted = adjust_ciphertext(&group, &ct, &r);
            prop_assert_eq!(decrypt(&group, &kp.secret, &adjusted).unwrap(), msg);
        }
    }
}
