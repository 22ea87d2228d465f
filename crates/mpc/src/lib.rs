//! N-party secure computation (GMW) for the DStress reproduction.
//!
//! DStress evaluates every vertex-program step inside a *small* multi-party
//! computation among the `k + 1` members of a block, using the GMW
//! protocol \[34\] over Boolean circuits (the paper's prototype used the
//! Wysteria runtime on top of the Choi et al. GMW implementation).  This
//! crate reproduces that machinery:
//!
//! * [`ot`] — 1-out-of-4 oblivious transfer, the only communication
//!   primitive GMW needs.  Two providers are included: a real
//!   public-key OT built on our ElGamal (used by the crypto-level tests
//!   and microbenchmarks) and a *simulated OT-extension* provider that
//!   delivers the same values while accounting for the amortised cost of
//!   IKNP-style extension (used by the large end-to-end simulations, since
//!   the paper's own prototype relied on OT extension for exactly this
//!   reason, §5.3).
//! * [`party`] — the per-party GMW state machine
//!   ([`party::GmwParty`]): a [`dstress_net::NodeActor`] that evaluates
//!   free gates locally and batches all of a circuit layer's AND-gate OTs
//!   into one message exchange with each peer through a
//!   [`dstress_net::Transport`] ([`party::GmwBatching`]), so a block's
//!   parties can run deterministically in process or one-per-thread with
//!   bit-identical results and round counts that scale with circuit
//!   depth.
//! * [`gmw`] — the GMW engine driving those parties: XOR-shared wires,
//!   free XOR/NOT gates, one OT per unordered party pair per AND gate
//!   (grouped per layer on the wire), per-pair traffic and operation
//!   accounting, and helpers for sharing inputs and reconstructing
//!   outputs.
//! * [`wire`] — the wire encoding of every [`party::GmwMessage`]:
//!   bit-packed choice/share planes plus the OT payloads, measured by the
//!   transports so byte totals come from real encodings.
//! * [`baseline`] — the naïve monolithic-MPC baseline of §5.5: an `N×N`
//!   fixed-point matrix-multiplication circuit evaluated under GMW, plus
//!   the extrapolation the paper uses to arrive at its "287 years"
//!   estimate.
//!
//! ## Example
//!
//! ```
//! use dstress_math::rng::Xoshiro256;
//! use dstress_mpc::{reconstruct_outputs, share_inputs};
//!
//! // XOR-share a bit vector among 3 parties and reconstruct it.
//! let mut rng = Xoshiro256::new(1);
//! let bits = vec![true, false, true, true];
//! let shares = share_inputs(&bits, 3, &mut rng);
//! assert_eq!(shares.len(), 3);
//! assert_eq!(reconstruct_outputs(&shares).unwrap(), bits);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod error;
pub mod gmw;
pub mod ot;
pub mod party;
pub mod wire;

pub use error::MpcError;
pub use gmw::{
    execute_batch, reconstruct_outputs, share_inputs, GmwConfig, GmwExecution, GmwJob, GmwProtocol,
    GmwTraffic,
};
pub use ot::{ElGamalOt, OtProvider, SimulatedOtExtension};
pub use party::{GmwBatching, GmwMessage, GmwParty, OtConfig};
