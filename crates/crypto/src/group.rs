//! Safe-prime Schnorr groups for ElGamal.
//!
//! DStress needs a cyclic group of prime order `q` with generator `g` in
//! which the decisional Diffie–Hellman problem is assumed hard.  The
//! original prototype used the NIST P-384 elliptic curve; we use the
//! order-`q` subgroup of `Z_p^*` for a safe prime `p = 2q + 1` (quadratic
//! residues), which supports every operation the protocol needs —
//! exponentiation, the additive homomorphism of exponential ElGamal and
//! public-key re-randomisation — with arithmetic we implement ourselves.
//!
//! Two parameter sets are provided: [`GroupKind::Prod256`], a 256-bit group
//! used by the cryptographic micro-benchmarks, and [`GroupKind::Sim64`], a
//! 64-bit group used by the large end-to-end simulations where wall-clock
//! time matters more than cryptographic strength (the protocol logic is
//! identical; only the constants shrink).

use crate::error::CryptoError;
use crate::kernels::FixedBasePow;
use dstress_math::field::{FpCtx, FpElem};
use dstress_math::prime::verify_group_parameters;
use dstress_math::rng::DetRng;
use dstress_math::U256;
use std::sync::{Arc, OnceLock};

/// Window width of the lazily built generator table; 8 bits keeps the
/// table at `⌈|q|/8⌉ × 255` elements (≈ 255 KiB for the 256-bit group)
/// while cutting a generator exponentiation to one multiply per byte of
/// the exponent.
pub(crate) const GENERATOR_WINDOW_BITS: u32 = 8;

/// Pre-defined group parameter sets.
///
/// Both sets were generated with
/// `cargo run -p dstress-math --example gen_group_params` (deterministic
/// safe-prime search, seed `0xD57E55`) and are verified by tests via
/// [`dstress_math::prime::verify_group_parameters`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GroupKind {
    /// 256-bit safe-prime group: the "production strength" parameter set.
    Prod256,
    /// 64-bit safe-prime group: fast parameters for large simulations.
    Sim64,
}

/// Hex constants for the 256-bit group.
const PROD256_P: &str = "86245b7eedfbd049a95b6d87011df329a4b1a963749d303c1644f5a0d5f871d3";
const PROD256_Q: &str = "43122dbf76fde824d4adb6c3808ef994d258d4b1ba4e981e0b227ad06afc38e9";
const PROD256_G: &str = "4f5b929f8e241afaa948afaa55e8c6aa94614b6a2b3ffb41a7a19ec1afeb172a";

/// Hex constants for the 64-bit simulation group.
const SIM64_P: &str = "eb6a55e00d142ed7";
const SIM64_Q: &str = "75b52af0068a176b";
const SIM64_G: &str = "9c1e83fca7e405bf";

/// An element of the ElGamal group (a quadratic residue mod `p`).
///
/// Elements are stored in Montgomery form; they are only meaningful
/// relative to the [`Group`] that produced them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GroupElem(pub(crate) FpElem);

/// A safe-prime Schnorr group together with its arithmetic contexts.
///
/// The struct is cheaply cloneable (the contexts are shared through
/// [`Arc`]s) so every simulated node can hold its own handle.
#[derive(Clone, Debug)]
pub struct Group {
    kind: GroupKind,
    p: U256,
    q: U256,
    generator: GroupElem,
    p_ctx: Arc<FpCtx>,
    q_ctx: Arc<FpCtx>,
    /// Windowed table for [`Group::generator_pow`], built on first use and
    /// shared by every clone of the group handle.
    gen_table: Arc<OnceLock<FixedBasePow>>,
}

impl Group {
    /// Instantiates one of the pre-defined groups.
    ///
    /// # Panics
    ///
    /// Panics only if the embedded constants are corrupt (checked by tests).
    pub fn new(kind: GroupKind) -> Self {
        let (p_hex, q_hex, g_hex) = match kind {
            GroupKind::Prod256 => (PROD256_P, PROD256_Q, PROD256_G),
            GroupKind::Sim64 => (SIM64_P, SIM64_Q, SIM64_G),
        };
        let p = U256::from_hex(p_hex).expect("embedded prime constant is valid hex");
        let q = U256::from_hex(q_hex).expect("embedded order constant is valid hex");
        let g = U256::from_hex(g_hex).expect("embedded generator constant is valid hex");
        Self::from_parameters(kind, p, q, g).expect("embedded group constants are consistent")
    }

    /// The 256-bit parameter set.
    pub fn prod256() -> Self {
        Self::new(GroupKind::Prod256)
    }

    /// The 64-bit simulation parameter set.
    pub fn sim64() -> Self {
        Self::new(GroupKind::Sim64)
    }

    /// Builds a group from explicit parameters after validating them.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Math`] if the parameters are not a consistent
    /// safe-prime group.
    pub fn from_parameters(
        kind: GroupKind,
        p: U256,
        q: U256,
        generator: U256,
    ) -> Result<Self, CryptoError> {
        if !verify_group_parameters(&p, &q, &generator) {
            return Err(CryptoError::Math(dstress_math::MathError::InvalidModulus));
        }
        let p_ctx = Arc::new(FpCtx::new(p)?);
        let q_ctx = Arc::new(FpCtx::new(q)?);
        let generator = GroupElem(p_ctx.to_elem(generator)?);
        Ok(Group {
            kind,
            p,
            q,
            generator,
            p_ctx,
            q_ctx,
            gen_table: Arc::new(OnceLock::new()),
        })
    }

    /// Which parameter set this group uses.
    pub fn kind(&self) -> GroupKind {
        self.kind
    }

    /// The group modulus `p`.
    pub fn p(&self) -> U256 {
        self.p
    }

    /// The subgroup order `q`.
    pub fn q(&self) -> U256 {
        self.q
    }

    /// The generator `g` of the order-`q` subgroup.
    pub fn generator(&self) -> GroupElem {
        self.generator
    }

    /// The group identity element.
    pub fn identity(&self) -> GroupElem {
        GroupElem(self.p_ctx.one())
    }

    /// Size in bytes of a serialised group element.
    ///
    /// This is what the traffic accounting uses: 8 bytes for the simulation
    /// group and 32 bytes for the 256-bit group.  (The paper's prototype
    /// used 48-byte secp384r1 coordinates; the cost model in `dstress-core`
    /// can scale to that element size when projecting paper-scale numbers.)
    pub fn element_bytes(&self) -> usize {
        match self.kind {
            GroupKind::Prod256 => 32,
            GroupKind::Sim64 => 8,
        }
    }

    /// Group operation (multiplication mod `p`).
    pub fn mul(&self, a: GroupElem, b: GroupElem) -> GroupElem {
        GroupElem(self.p_ctx.mul(a.0, b.0))
    }

    /// Group inverse.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedCiphertext`] for the zero element,
    /// which is not a member of the group.
    pub fn inv(&self, a: GroupElem) -> Result<GroupElem, CryptoError> {
        self.p_ctx
            .inv(a.0)
            .map(GroupElem)
            .map_err(|_| CryptoError::MalformedCiphertext)
    }

    /// Exponentiation `a^e` where `e` is an exponent in `Z_q` (given as an
    /// integer; values larger than `q` simply wrap, as exponents live mod `q`).
    pub fn pow(&self, a: GroupElem, e: &U256) -> GroupElem {
        GroupElem(self.p_ctx.pow(a.0, e))
    }

    /// `g^e` for the group generator, served from a windowed fixed-base
    /// table (built lazily on first use). Bit-identical to
    /// `pow(generator(), e)` — the kernel-equivalence proptests pin this.
    pub fn generator_pow(&self, e: &U256) -> GroupElem {
        self.generator_table().pow(e)
    }

    /// The shared fixed-base table for the generator.
    pub fn generator_table(&self) -> &FixedBasePow {
        self.gen_table.get_or_init(|| {
            FixedBasePow::from_parts(
                Arc::clone(&self.p_ctx),
                self.q,
                self.generator.0,
                GENERATOR_WINDOW_BITS,
            )
        })
    }

    /// Encodes a small non-negative integer `m` as the group element `g^m`
    /// (the exponential-ElGamal message encoding).
    pub fn encode_exponent(&self, m: u64) -> GroupElem {
        self.generator_pow(&U256::from_u64(m))
    }

    /// Samples a uniformly random exponent in `Z_q`.
    pub fn random_exponent(&self, rng: &mut dyn DetRng) -> U256 {
        dstress_math::field::random_below(rng, &self.q)
    }

    /// Samples a uniformly random *non-zero* exponent in `Z_q`.
    pub fn random_nonzero_exponent(&self, rng: &mut dyn DetRng) -> U256 {
        loop {
            let e = self.random_exponent(rng);
            if !e.is_zero() {
                return e;
            }
        }
    }

    /// Converts a group element to its canonical integer representation
    /// (used for serialisation and for discrete-log table keys).
    pub fn elem_to_int(&self, a: GroupElem) -> U256 {
        self.p_ctx.to_int(a.0)
    }

    /// Parses a canonical integer back into a group element.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Math`] if the value is not in `[0, p)`.
    pub fn elem_from_int(&self, v: U256) -> Result<GroupElem, CryptoError> {
        Ok(GroupElem(self.p_ctx.to_elem(v)?))
    }

    /// Group-arithmetic context (`Z_p`), used by the exponentiation kernels.
    pub(crate) fn p_ctx(&self) -> &FpCtx {
        &self.p_ctx
    }

    /// Shared handle to the group-arithmetic context.
    pub(crate) fn p_ctx_arc(&self) -> Arc<FpCtx> {
        Arc::clone(&self.p_ctx)
    }

    /// Adds two exponents modulo `q`.
    pub fn add_exponents(&self, a: &U256, b: &U256) -> U256 {
        let ea = self.q_ctx.to_elem_reduced(*a);
        let eb = self.q_ctx.to_elem_reduced(*b);
        self.q_ctx.to_int(self.q_ctx.add(ea, eb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstress_math::rng::SplitMix64;
    use dstress_math::U256;

    #[test]
    fn embedded_parameters_are_valid() {
        for kind in [GroupKind::Sim64, GroupKind::Prod256] {
            let g = Group::new(kind);
            assert_eq!(g.kind(), kind);
            assert!(verify_group_parameters(
                &g.p(),
                &g.q(),
                &g.elem_to_int(g.generator())
            ));
        }
    }

    #[test]
    fn generator_has_order_q() {
        let g = Group::sim64();
        assert_eq!(g.pow(g.generator(), &g.q()), g.identity());
        assert_ne!(g.generator(), g.identity());
    }

    #[test]
    fn element_bytes() {
        assert_eq!(Group::sim64().element_bytes(), 8);
        assert_eq!(Group::prod256().element_bytes(), 32);
    }

    #[test]
    fn pow_addition_law() {
        let g = Group::sim64();
        let mut rng = SplitMix64::new(1);
        let a = g.random_exponent(&mut rng);
        let b = g.random_exponent(&mut rng);
        let lhs = g.mul(g.generator_pow(&a), g.generator_pow(&b));
        let rhs = g.generator_pow(&g.add_exponents(&a, &b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pow_multiplication_law() {
        let g = Group::prod256();
        let mut rng = SplitMix64::new(2);
        let a = g.random_exponent(&mut rng);
        let b = g.random_exponent(&mut rng);
        let lhs = g.pow(g.generator_pow(&a), &b);
        let rhs = g.pow(g.generator_pow(&b), &a);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn inverse_cancels() {
        let g = Group::sim64();
        let mut rng = SplitMix64::new(3);
        let x = g.generator_pow(&g.random_nonzero_exponent(&mut rng));
        let inv = g.inv(x).unwrap();
        assert_eq!(g.mul(x, inv), g.identity());
    }

    #[test]
    fn elem_int_roundtrip() {
        let g = Group::prod256();
        let mut rng = SplitMix64::new(4);
        let x = g.generator_pow(&g.random_exponent(&mut rng));
        assert_eq!(g.elem_from_int(g.elem_to_int(x)).unwrap(), x);
    }

    #[test]
    fn elem_from_int_rejects_out_of_range() {
        let g = Group::sim64();
        assert!(g.elem_from_int(g.p()).is_err());
    }

    #[test]
    fn from_parameters_rejects_garbage() {
        let err = Group::from_parameters(
            GroupKind::Sim64,
            U256::from_u64(15),
            U256::from_u64(7),
            U256::from_u64(2),
        );
        assert!(err.is_err());
    }

    #[test]
    fn encode_exponent_is_homomorphic() {
        let g = Group::sim64();
        assert_eq!(
            g.mul(g.encode_exponent(3), g.encode_exponent(4)),
            g.encode_exponent(7)
        );
        assert_eq!(g.encode_exponent(0), g.identity());
    }

    #[test]
    fn generator_pow_table_matches_plain_pow() {
        for kind in [GroupKind::Sim64, GroupKind::Prod256] {
            let g = Group::new(kind);
            let mut rng = SplitMix64::new(6);
            for _ in 0..20 {
                let e = g.random_exponent(&mut rng);
                assert_eq!(g.generator_pow(&e), g.pow(g.generator(), &e), "{kind:?}");
            }
            assert_eq!(g.generator_pow(&U256::ZERO), g.identity());
            // Clones share the same lazily built table.
            let clone = g.clone();
            assert_eq!(
                clone.generator_table().memory_bytes(),
                g.generator_table().memory_bytes()
            );
        }
    }

    #[test]
    fn random_exponent_below_q() {
        let g = Group::sim64();
        let mut rng = SplitMix64::new(5);
        for _ in 0..50 {
            assert!(g.random_exponent(&mut rng) < g.q());
            assert!(!g.random_nonzero_exponent(&mut rng).is_zero());
        }
    }
}
