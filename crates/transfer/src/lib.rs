//! The DStress block setup and message transfer protocol.
//!
//! Two pieces of the system live here:
//!
//! * [`setup`] — the one-time trusted-party setup of §3.4: every node
//!   registers its public keys and `D` secret *neighbor keys*; the trusted
//!   party assigns each node a block of `k + 1` members (plus a special
//!   aggregation block) and issues `D` *block certificates* per block,
//!   each containing the members' public keys re-randomised with one of
//!   the owner's neighbor keys.  The TP never learns the graph topology
//!   and can go offline afterwards.
//! * [`protocol`] — the message transfer protocol of §3.5 that moves the
//!   XOR shares of a message from the sending block `B_i` to the receiving
//!   block `B_j` across the edge `(i, j)` without revealing the message to
//!   any `k`-collusion or the edge to anyone else.  All four protocol
//!   versions from the paper are implemented (strawmen #1–#3 and the
//!   final protocol with even geometric noise), so the ablation benches
//!   can compare their costs and tests can demonstrate exactly which
//!   attack each revision closes.
//!
//! ## Example
//!
//! ```
//! use dstress_crypto::Group;
//! use dstress_math::rng::Xoshiro256;
//! use dstress_transfer::setup::generate_system;
//! use dstress_transfer::TransferConfig;
//!
//! // Trusted-party setup for 6 nodes with collusion bound k = 2:
//! // every block has k + 1 = 3 members and a verifiable certificate.
//! let group = Group::sim64();
//! let mut rng = Xoshiro256::new(42);
//! let (secrets, setup) = generate_system(&group, 6, 2, 2, 8, &mut rng).unwrap();
//! assert_eq!(secrets.len(), 6);
//! assert!(setup.blocks.iter().all(|b| b.size() == 3));
//!
//! // The deployed protocol variant with noise parameter α = 0.6.
//! let config = TransferConfig::final_protocol(8, 0.6);
//! assert_eq!(config.message_bits, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod protocol;
pub mod setup;
pub mod wire;

pub use error::TransferError;
pub use protocol::{transfer_message, ProtocolVariant, TransferConfig, TransferOutcome};
pub use setup::{Block, BlockCertificate, NodeSecrets, SystemSetup, TrustedParty};
pub use wire::TransferWire;
