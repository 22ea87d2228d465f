//! Cryptographic primitives for the DStress reproduction.
//!
//! The original prototype used OpenSSL ElGamal over the secp384r1 curve;
//! this crate provides an equivalent, self-contained implementation over a
//! safe-prime Schnorr group (see `DESIGN.md` for the substitution
//! argument).  It exposes exactly the primitives the DStress protocol
//! needs:
//!
//! * [`group`] — group parameter sets: a 256-bit group for the crypto
//!   micro-benchmarks and a fast 64-bit *simulation* group for the large
//!   end-to-end runs.
//! * [`elgamal`] — ElGamal and *exponential* ElGamal with the two unusual
//!   properties DStress relies on (§3 of the paper): an additive
//!   homomorphism and public-key re-randomisation, plus the Kurosawa
//!   multi-recipient optimisation used by the prototype (§5.1).
//! * [`dlog`] — fingerprint-keyed lookup tables and signed
//!   baby-step/giant-step discrete-log recovery for decrypting
//!   exponential-ElGamal ciphertexts that carry small sums.
//! * [`kernels`] — fast exponentiation kernels: windowed fixed-base
//!   tables, short-lived comb tables evaluated for several exponents in
//!   lock-step, and Straus/Pippenger multi-exponentiation, pinned
//!   bit-identical to the naive square-and-multiply path.
//! * [`sharing`] — XOR secret sharing, sub-share splitting and bit
//!   decomposition: the `⊕`-sharing substrate used by the blocks and the
//!   message transfer protocol.
//!
//! ## Example
//!
//! ```
//! use dstress_crypto::elgamal::{decrypt, encrypt, homomorphic_add};
//! use dstress_crypto::{Group, KeyPair};
//! use dstress_math::rng::Xoshiro256;
//!
//! let group = Group::sim64();
//! let mut rng = Xoshiro256::new(7);
//! let kp = KeyPair::generate(&group, &mut rng);
//!
//! // Exponential ElGamal is additively homomorphic.
//! let ca = encrypt(&group, &kp.public, group.encode_exponent(21), &mut rng);
//! let cb = encrypt(&group, &kp.public, group.encode_exponent(21), &mut rng);
//! let sum = homomorphic_add(&group, &ca, &cb);
//! assert_eq!(
//!     decrypt(&group, &kp.secret, &sum).unwrap(),
//!     group.encode_exponent(42),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dlog;
pub mod elgamal;
pub mod error;
pub mod group;
pub mod kernels;
pub mod sharing;

pub use dlog::DlogTable;
pub use elgamal::{Ciphertext, KeyPair, PublicKey, SecretKey};
pub use error::CryptoError;
pub use group::{Group, GroupElem, GroupKind};
pub use kernels::{multi_pow, CombDigits, CombPow, FixedBasePow};
pub use sharing::{split_xor, xor_reconstruct, BitMessage};
