//! Systemic-risk case study for the DStress reproduction (§4 of the paper).
//!
//! The paper's motivating application is measuring *systemic risk* in a
//! financial network whose edges (interbank debts and equity
//! cross-holdings) are too sensitive to pool in one place.  This crate
//! provides everything that case study needs:
//!
//! * [`network`] — the financial-network data model: banks with balance
//!   sheets, directed exposures (debts and cross-holdings) attached to
//!   graph edges.
//! * [`generator`] — synthetic network generators following the empirical
//!   structure the paper's Appendix C relies on (core–periphery à la
//!   Cocco et al.), balance-sheet synthesis under a leverage bound, and
//!   shock scenarios.
//! * [`eisenberg_noe`] — the Eisenberg–Noe clearing model (§4.2): a
//!   classic fixpoint solver, a plaintext vertex program, and the Boolean
//!   circuit encoding executed by the DStress runtime.
//! * [`elliott_golub_jackson`] — the Elliott–Golub–Jackson
//!   cross-holdings model (§4.3) in the same three forms.
//! * [`metrics`] — the Total Dollar Shortfall metric and the sensitivity
//!   bounds of §4.4 (`1/r` for EN, `2/r` for EGJ).
//! * [`contagion`] — the Appendix C experiments: a 50-bank two-tier
//!   network, absorbed-shock and cascade scenarios, and the empirical
//!   iteration-count analysis behind the `I = log₂ N` rule.
//!
//! ## Example
//!
//! ```
//! use dstress_finance::eisenberg_noe::clearing_vector;
//! use dstress_finance::{core_periphery, GeneratorConfig};
//! use dstress_math::rng::Xoshiro256;
//!
//! // A small core–periphery interbank network with no shock applied:
//! // the clearing vector exists and no bank is in shortfall.
//! let mut rng = Xoshiro256::new(3);
//! let net = core_periphery(&GeneratorConfig::small(8, 3), &mut rng);
//! let report = clearing_vector(&net, net.bank_count() as u32);
//! assert_eq!(report.per_bank.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contagion;
pub mod eisenberg_noe;
pub mod elliott_golub_jackson;
pub mod generator;
pub mod metrics;
pub mod network;

pub use eisenberg_noe::{EisenbergNoeProgram, EisenbergNoeSecure};
pub use elliott_golub_jackson::{ElliottGolubJacksonProgram, ElliottGolubJacksonSecure};
pub use generator::{core_periphery, GeneratorConfig};
pub use metrics::{sensitivity_bound_egj, sensitivity_bound_en, CircuitParams};
pub use network::{Bank, Exposure, FinancialNetwork};

#[cfg(test)]
mod native {
    //! Test support: the finance circuits at their default 16-bit,
    //! 5-fraction encoding, run on plain words so tests can hold them to
    //! native fixed-point arithmetic.

    use dstress_circuit::builder::{decode_word, encode_word};
    use dstress_circuit::{evaluate, Circuit};
    use dstress_math::rng::{DetRng, Xoshiro256};

    /// Word width of `CircuitParams::default_params()`.
    pub const W: u32 = 16;
    /// Fractional bits of `CircuitParams::default_params()`.
    pub const F: u32 = 5;
    /// All ones at width `W`.
    pub const MASK: u64 = (1 << W) - 1;
    /// One, in fixed point.
    pub const ONE: u64 = 1 << F;

    /// A random word of random magnitude: zero, tiny and full-width values
    /// all come up.
    pub fn random_word(rng: &mut Xoshiro256) -> u64 {
        let bits = rng.next_below(W as u64 + 1);
        rng.next_u64() & ((1 << bits) - 1)
    }

    /// Evaluates `circuit` on `W`-bit input words and returns its output
    /// words.
    pub fn run_words(circuit: &Circuit, words: &[u64]) -> Vec<u64> {
        let inputs: Vec<bool> = words.iter().flat_map(|&v| encode_word(v, W)).collect();
        let outputs = evaluate(circuit, &inputs).unwrap();
        outputs.chunks(W as usize).map(decode_word).collect()
    }
}
