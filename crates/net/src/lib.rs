//! Simulated network substrate for the DStress reproduction.
//!
//! The original DStress prototype ran on up to 100 EC2 instances; its
//! evaluation reports two quantities per experiment: *computation time*
//! and *per-node traffic*.  This crate provides the bookkeeping that lets
//! our in-process reproduction report the same quantities:
//!
//! * [`traffic`] — a per-node (and per-pair) byte accountant.  Every
//!   protocol component in the workspace records here the bytes a
//!   transport tallied or a codec measured for its sends, so the traffic
//!   numbers in Figures 4–6 are measured, not estimated.
//! * [`transport`] — the [`transport::Transport`] abstraction: protocol
//!   code written as per-node actors runs unchanged on the deterministic
//!   in-process backend ([`transport::SimTransport`]) or over real TCP
//!   connections, driven on the calling thread
//!   ([`socket::SocketTransport`]).  A
//!   [`transport::Session`] keeps what connects the nodes across runs and
//!   drives several independent actor groups over it at once.
//! * [`frame`] — length-prefixed framing that restores message boundaries
//!   on a TCP byte stream, with typed errors for torn frames, trailing
//!   garbage, and oversized length prefixes.
//! * [`socket`] — the TCP backend and [`socket::FramedConn`], the framed
//!   non-blocking connection the master/worker deployment layer reuses.
//! * [`wire`] — the hand-rolled wire format ([`wire::Wire`], varints,
//!   bit-packed planes).  Both transport backends route every send
//!   through `encode → bytes → decode` and return a [`wire::WireTally`]
//!   of the *measured* encoded bytes per node pair.
//! * [`pool`] — the worker pool used to execute independent simulation
//!   tasks (blocks, sweep points) concurrently with deterministic results.
//! * [`cost`] — the calibrated cost model used to convert operation counts
//!   (exponentiations, oblivious transfers, measured bytes, rounds) into projected
//!   wall-clock time on the paper's reference hardware, which is how the
//!   paper-scale projection of Figure 6 is produced.
//!
//! ## Example
//!
//! ```
//! use dstress_net::{NodeId, TrafficAccountant};
//!
//! let mut traffic = TrafficAccountant::new();
//! traffic.record(NodeId(0), NodeId(1), 128);
//! traffic.record(NodeId(1), NodeId(0), 64);
//! assert_eq!(traffic.node(NodeId(0)).total_bytes(), 192);
//! assert_eq!(traffic.report().total_bytes, 192);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod frame;
pub mod pool;
pub mod socket;
pub mod traffic;
pub mod transport;
pub mod wire;

pub use cost::{CostModel, OperationCounts};
pub use frame::{FrameDecoder, FrameError, FRAME_HEADER_LEN, FRAME_MAGIC, MAX_FRAME_PAYLOAD};
pub use socket::{FramedConn, Hello, SocketSession, SocketTransport};
pub use traffic::{NodeId, TrafficAccountant, TrafficReport};
pub use transport::{
    ActorStatus, Endpoint, NodeActor, Session, SimTransport, Transport, TransportError,
};
pub use wire::{Wire, WireError, WireTally};
