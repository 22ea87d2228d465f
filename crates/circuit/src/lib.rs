//! Boolean circuits for the DStress MPC runtime.
//!
//! DStress executes every vertex-program step inside a small multi-party
//! computation; the GMW protocol it uses (and that we reproduce in
//! `dstress-mpc`) evaluates *Boolean circuits*.  This crate provides:
//!
//! * [`ir`] — the circuit intermediate representation: a flat list of
//!   XOR / AND / NOT / constant gates over single-bit wires, each gate
//!   stored in 8 bytes (`u32` wire ids from the builder to the GMW
//!   parties, below 2³¹).
//! * [`builder`] — a gadget library for constructing circuits: adders,
//!   subtractors, comparators, multiplexers, multipliers and a capped
//!   fixed-point ratio, over two's-complement words of configurable
//!   width.  These are the building blocks of the Eisenberg–Noe and
//!   Elliott–Golub–Jackson update circuits in `dstress-finance`.
//! * [`eval`] — a plaintext evaluator, used both as the correctness
//!   reference for the MPC engine and to execute the "ideal functionality"
//!   in tests.
//! * [`stats`] — gate-count and depth statistics.  GMW's communication and
//!   round costs are driven by the number of AND gates and the AND depth,
//!   so these statistics are what the cost model in `dstress-core`
//!   consumes.
//! * [`layers`] — the depth layering pass: AND gates partitioned into
//!   independent rounds, free gates scheduled into the gaps.  This is what
//!   lets the GMW engine batch a whole layer of OTs into one message
//!   exchange per party pair, making round counts scale with circuit
//!   depth instead of AND-gate count.
//! * [`gadgets`] — the word-level gadget trace the builder records, which
//!   lets the static analyzer in `dstress-analyze` reason about adders
//!   and multipliers as arithmetic instead of bit soup.
//! * [`spec`] — analysis specifications: declared input ranges, privacy
//!   taints, release windows and sensitivity models, consumed by
//!   `dstress-analyze` to certify circuits before anything runs.
//!
//! ## Example
//!
//! ```
//! use dstress_circuit::builder::{decode_word, encode_word};
//! use dstress_circuit::{evaluate, CircuitBuilder};
//!
//! // An 8-bit ripple-carry adder, evaluated in the clear.
//! let mut builder = CircuitBuilder::new();
//! let a = builder.input_word(8);
//! let b = builder.input_word(8);
//! let sum = builder.add(&a, &b);
//! builder.output_word(&sum);
//! let circuit = builder.build().unwrap();
//!
//! let mut inputs = encode_word(19, 8);
//! inputs.extend(encode_word(23, 8));
//! assert_eq!(decode_word(&evaluate(&circuit, &inputs).unwrap()), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod eval;
pub mod gadgets;
pub mod ir;
pub mod layers;
pub mod spec;
pub mod stats;

pub use builder::{CircuitBuilder, Word};
pub use eval::{evaluate, evaluate_wires};
pub use gadgets::{GadgetEvent, GadgetKind};
pub use ir::{Circuit, CircuitError, Gate, WireId};
pub use layers::{evaluate_layered, CircuitLayers};
pub use spec::{
    CircuitSpec, FlowPolicy, Interval, ProgramInputRef, ProgramSpec, RangePremise, ReleaseSpec,
    SensitivityModel, Taint, WordSpec,
};
pub use stats::CircuitStats;
