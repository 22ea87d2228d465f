//! The transport abstraction: how simulated nodes exchange protocol
//! messages.
//!
//! Protocol components in this workspace are written as *node actors*:
//! resumable state machines that make as much progress as they can, send
//! messages through an [`Endpoint`], and yield ([`ActorStatus::Idle`])
//! whenever they are waiting for a message that has not arrived yet.  A
//! [`Transport`] takes a set of actors (one per simulated node, addressed
//! by dense local indices `0..n`) and drives them to completion.
//!
//! A transport does that through a [`Session`]: [`Transport::open`]
//! builds whatever connects `n` nodes — nothing in process, a TCP mesh on
//! sockets — and hands it to the caller, who keeps it for as many runs as
//! it likes.  One [`Session::run`] drives *several* actor groups at once,
//! each group the `n` parties of one independent protocol execution (one
//! block MPC); a group's messages travel as one *stream* of the session,
//! so groups share the connections without ever seeing each other's
//! messages.  [`Transport::run`] is the one-group, one-run case.
//!
//! Two backends are provided:
//!
//! * [`SimTransport`] (this module) — the deterministic in-process
//!   backend.  All actors run on the calling thread, round-robin, with
//!   messages queued as encoded bytes in one lane per `(recipient,
//!   sender)`.  This is the reference backend: its schedule is fully
//!   deterministic, and a stalled protocol (every actor idle with no
//!   message in flight) is reported as [`TransportError::Stalled`] rather
//!   than deadlocking.
//! * [`crate::socket::SocketTransport`] — real bytes.  One driver loop on
//!   the calling thread polls every node, and the nodes exchange framed
//!   messages over the loopback TCP connections of the session's mesh,
//!   every live group multiplexed over the same connections; each frame
//!   is checked on arrival and queued in a byte lane per `(stream,
//!   peer)`.
//!
//! Both backends move bytes, never message objects: an actor writes each
//! message's encoding straight into a lane ([`Endpoint::send_bytes`]) and
//! reads a peer's as a borrowed slice ([`Endpoint::recv_bytes`]); the
//! typed [`Endpoint::send`] / [`Endpoint::try_recv_from`] wrap those with
//! the message type's [`Wire`] codec.
//!
//! Actors must be written so that their *outputs* do not depend on the
//! schedule: they may only consume messages from one named peer at a time
//! (per-peer FIFO order, which both backends guarantee), never on
//! cross-peer arrival order.  Under that discipline the two backends
//! produce bit-identical results — the property the workspace's
//! determinism suite asserts for the GMW engine.
//!
//! ## Example
//!
//! ```
//! use dstress_net::socket::SocketTransport;
//! use dstress_net::transport::{ActorStatus, Endpoint, NodeActor, SimTransport, Transport};
//!
//! /// Node 0 sends a number to node 1, which doubles and echoes it back.
//! struct Pinger(Option<u64>);
//! struct Echoer(bool);
//!
//! impl NodeActor<u64> for Pinger {
//!     fn poll(&mut self, ep: &mut dyn Endpoint<u64>) -> ActorStatus {
//!         if self.0.is_none() {
//!             ep.send(1, 21);
//!             match ep.try_recv_from(1) {
//!                 Some(v) => self.0 = Some(v),
//!                 None => return ActorStatus::Idle,
//!             }
//!         }
//!         ActorStatus::Done
//!     }
//! }
//!
//! impl NodeActor<u64> for Echoer {
//!     fn poll(&mut self, ep: &mut dyn Endpoint<u64>) -> ActorStatus {
//!         match ep.try_recv_from(0) {
//!             Some(v) => {
//!                 ep.send(0, 2 * v);
//!                 self.0 = true;
//!                 ActorStatus::Done
//!             }
//!             None => ActorStatus::Idle,
//!         }
//!     }
//! }
//!
//! for transport in [
//!     Box::new(SimTransport) as Box<dyn Transport<u64>>,
//!     Box::new(SocketTransport::new()),
//! ] {
//!     let mut pinger = Pinger(None);
//!     let mut echoer = Echoer(false);
//!     {
//!         let mut actors: Vec<&mut dyn NodeActor<u64>> = vec![&mut pinger, &mut echoer];
//!         transport.run(&mut actors).unwrap();
//!     }
//!     assert_eq!(pinger.0, Some(42));
//! }
//! ```

use crate::frame::FrameError;
use crate::wire::{Wire, WireError, WireTally};
use core::fmt;

/// One sender → recipient FIFO of encoded messages in one byte buffer,
/// each entry `u32 LE length ‖ encoding` — the queue both backends put
/// between a send and the receive that matches it.
///
/// Writers append in place ([`Lane::push_with`]) and readers borrow
/// ([`Lane::pop`]), so queueing a message copies it at most once and,
/// once the buffer has grown to the lane's working size, allocates
/// nothing.  A lane whose every entry was delivered starts over at the
/// front of its buffer and gives back a buffer grown past
/// [`LANE_KEEP_BYTES`] (one large message — an OT set-up — must not pin
/// its size for the rest of a run); delivered entries in front of
/// undelivered ones are compacted away once they fill half the buffer.
#[derive(Debug, Default)]
pub(crate) struct Lane {
    buf: Vec<u8>,
    /// Offset of the oldest undelivered entry.
    head: usize,
}

/// Capacity a drained lane keeps for its next message.
const LANE_KEEP_BYTES: usize = 256;

/// Bytes of a lane entry's length prefix.
const LANE_ENTRY_HEADER: usize = 4;

impl Lane {
    /// Drops delivered entries.  Every lane method starts here, so the
    /// slice the last [`Lane::pop`] lent is no longer borrowed.
    fn compact(&mut self) {
        if self.head == self.buf.len() {
            if self.buf.capacity() > LANE_KEEP_BYTES {
                self.buf = Vec::new();
            } else {
                self.buf.clear();
            }
            self.head = 0;
        } else if self.head >= self.buf.len() / 2 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }

    /// Appends one entry whose encoding `write` appends to the buffer it
    /// is handed; returns the encoding's length.
    ///
    /// # Panics
    ///
    /// If `write` shrinks the buffer — a writer appends, never truncates.
    pub(crate) fn push_with(&mut self, write: &mut dyn FnMut(&mut Vec<u8>)) -> usize {
        self.compact();
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0; LANE_ENTRY_HEADER]);
        write(&mut self.buf);
        let len = self
            .buf
            .len()
            .checked_sub(at + LANE_ENTRY_HEADER)
            .expect("a lane writer appends, never truncates");
        self.buf[at..at + LANE_ENTRY_HEADER].copy_from_slice(&(len as u32).to_le_bytes());
        len
    }

    /// Appends a copy of `bytes` as one entry.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        self.push_with(&mut |out| out.extend_from_slice(bytes));
    }

    /// Delivers the oldest undelivered entry, borrowed until the lane is
    /// next used.
    pub(crate) fn pop(&mut self) -> Option<&[u8]> {
        self.compact();
        let start = self.head + LANE_ENTRY_HEADER;
        let header = self.buf.get(self.head..start)?;
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        self.head = start + len;
        Some(&self.buf[start..self.head])
    }
}

/// What an actor reports after a [`NodeActor::poll`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActorStatus {
    /// The actor is blocked waiting for a message that has not arrived.
    Idle,
    /// The actor has finished its protocol role; it will not be polled
    /// again.
    Done,
    /// The actor rejected what a peer sent and abandoned its protocol
    /// role; the run ends at once with [`TransportError::Aborted`], and
    /// the actor's own state says why.
    Failed,
}

/// A resumable protocol state machine bound to one simulated node.
///
/// `poll` must make as much progress as possible: process every available
/// message, send everything it can, and return [`ActorStatus::Idle`] only
/// when genuinely blocked on a missing message.  Implementations must be
/// schedule-independent: consume messages only from one named peer at a
/// time ([`Endpoint::try_recv_from`], [`Endpoint::recv_bytes`]) in an
/// order fixed by the protocol itself.
pub trait NodeActor<M: Wire> {
    /// Advances the actor as far as it can go.
    fn poll(&mut self, endpoint: &mut dyn Endpoint<M>) -> ActorStatus;
}

/// A node's handle onto the transport: send to peers, receive from a
/// specific peer.
///
/// The transport moves bytes.  [`Endpoint::send_bytes`] hands the caller
/// the lane toward a peer to write one encoding into, and
/// [`Endpoint::recv_bytes`] lends it the oldest encoding a peer sent; the
/// typed [`Endpoint::send`] and [`Endpoint::try_recv_from`] wrap them
/// with `M`'s [`Wire`] codec.  A protocol with a hot path writes and reads
/// its messages in place through the byte methods, so a message costs no
/// allocation of its own.
///
/// Nodes are addressed by dense local indices `0..nodes()`; mapping local
/// indices to global [`crate::traffic::NodeId`]s (for traffic accounting)
/// is the actor's business, which keeps the transport payload-agnostic.
pub trait Endpoint<M: Wire> {
    /// Number of nodes attached to this transport run.
    fn nodes(&self) -> usize;

    /// Sends one message to local node `to` by writing its encoding in
    /// place: `write` appends exactly one encoding of an `M` to the buffer
    /// it is handed and leaves what the buffer already holds alone.  The
    /// appended length is what the run's [`WireTally`] records.  Sends
    /// never block.
    fn send_bytes(&mut self, to: usize, write: &mut dyn FnMut(&mut Vec<u8>));

    /// The encoding of the oldest undelivered message *from `peer`*, if
    /// any, borrowed from its lane until the endpoint is next used.  On
    /// sockets it passed [`Wire::check_exact`] on arrival; in process it
    /// is what the sender wrote.
    ///
    /// Messages from one peer are always delivered in the order they were
    /// sent; ordering across different peers is unspecified (and actors
    /// must not depend on it).
    fn recv_bytes(&mut self, peer: usize) -> Option<&[u8]>;

    /// Sends `message` to local node `to`: its encoding, written by
    /// [`Wire::encode_into`].  Sends never block.
    fn send(&mut self, to: usize, message: M) {
        self.send_bytes(to, &mut |out| message.encode_into(out));
    }

    /// Sends a batch of messages in one call (the batch entry point used
    /// by round-structured protocols to queue a whole round at once).
    fn send_many(&mut self, batch: Vec<(usize, M)>) {
        for (to, message) in batch {
            self.send(to, message);
        }
    }

    /// Receives the oldest undelivered message *from `peer`*, if any,
    /// decoded from [`Endpoint::recv_bytes`].
    ///
    /// # Panics
    ///
    /// If that message is not an encoding of `M`.  Sockets check every
    /// frame on arrival, so only an in-process actor that wrote a
    /// malformed encoding through [`Endpoint::send_bytes`] gets here — a
    /// codec bug of the sender's, not a peer's input.
    fn try_recv_from(&mut self, peer: usize) -> Option<M> {
        let bytes = self.recv_bytes(peer)?;
        Some(M::decode_exact(bytes).expect("an in-process sender wrote a malformed encoding"))
    }
}

/// Errors reported by a transport run.
///
/// The in-process backend can only fail with [`TransportError::Stalled`]
/// (its lanes hold what its own actors wrote) or, on either backend, an
/// actor's [`TransportError::Aborted`]; the socket backend adds the failure
/// modes a real network has: I/O errors, framing violations from hostile
/// or desynchronised peers, payloads that do not decode, and peers that
/// never complete the connection handshake.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// Every unfinished actor is idle and no message is in flight (a
    /// protocol bug: the run can never complete).
    Stalled {
        /// Actors that had finished when the stall was detected.
        done: usize,
        /// Total actors in the run.
        actors: usize,
    },
    /// A socket operation failed.  Only the [`std::io::ErrorKind`] is
    /// kept (with a static context string) so the error stays `Clone`
    /// and comparable in tests.
    Io {
        /// Which operation failed (e.g. `"connect"`, `"read"`).
        context: &'static str,
        /// The kind of I/O failure.
        kind: std::io::ErrorKind,
    },
    /// A peer violated the frame layer: bad magic, oversized length
    /// prefix, or a stream torn mid-frame.
    Frame {
        /// Local index of the offending peer (0 when unknown).
        peer: usize,
        /// The frame-layer violation.
        error: FrameError,
    },
    /// A complete frame arrived but its payload failed
    /// [`Wire::check_exact`] for the expected message type.  Unlike the
    /// in-process backend — whose lanes hold what its own actors wrote —
    /// bytes from a remote peer are untrusted input, checked before they
    /// are queued, and fail typed.
    Codec {
        /// Local index of the offending peer.
        peer: usize,
        /// The wire-format decode failure.
        error: WireError,
    },
    /// A peer failed to complete the connection handshake (hello /
    /// registration) within the deadline, or sent a hello that does not
    /// match the run.
    Handshake {
        /// What went wrong.
        context: &'static str,
    },
    /// A frame named a stream the session has not opened yet.  (A frame
    /// for a stream that has *retired* is late, not hostile, and is
    /// dropped.)
    UnknownStream {
        /// Local index of the offending peer.
        peer: usize,
        /// The stream id the frame carried.
        stream: u64,
    },
    /// A group handed to [`Session::run`] does not have one actor per
    /// node of the session.
    GroupSize {
        /// Nodes the session was opened for.
        expected: usize,
        /// Actors in the offending group.
        actual: usize,
    },
    /// An actor returned [`ActorStatus::Failed`]: it rejected what a peer
    /// sent, and its own state holds the reason.
    Aborted {
        /// Local index of the actor that failed.
        node: usize,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Stalled { done, actors } => write!(
                f,
                "transport stalled: {done}/{actors} actors done, rest idle with no messages in flight"
            ),
            TransportError::Io { context, kind } => {
                write!(f, "socket i/o failed during {context}: {kind}")
            }
            TransportError::Frame { peer, error } => {
                write!(f, "frame violation from peer {peer}: {error}")
            }
            TransportError::Codec { peer, error } => {
                write!(f, "undecodable payload from peer {peer}: {error}")
            }
            TransportError::Handshake { context } => {
                write!(f, "handshake failed: {context}")
            }
            TransportError::UnknownStream { peer, stream } => {
                write!(f, "frame from peer {peer} names stream {stream}, which was never opened")
            }
            TransportError::GroupSize { expected, actual } => write!(
                f,
                "a group of {actual} actors cannot run on a session of {expected} nodes"
            ),
            TransportError::Aborted { node } => {
                write!(f, "node {node} rejected a peer's message and aborted the run")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// A backend that drives sets of node actors to completion.
///
/// Messages must implement [`Wire`]: every send writes an encoding into a
/// byte lane, and a run returns a [`WireTally`] of the measured encoded
/// bytes per `(from, to)` pair.
pub trait Transport<M: Wire> {
    /// Short backend name, for logs and benchmark tables.
    fn name(&self) -> &'static str;

    /// Connects `nodes` nodes and returns the session that owns whatever
    /// connects them, for as long as the caller keeps it.
    ///
    /// # Errors
    ///
    /// The socket backend returns [`TransportError::Io`] or
    /// [`TransportError::Handshake`] when its mesh cannot be built.
    fn open(&self, nodes: usize) -> Result<Box<dyn Session<M> + '_>, TransportError>;

    /// Runs every actor until all are [`ActorStatus::Done`], returning
    /// the measured wire traffic of the run: one group on a session
    /// opened for it and dropped afterwards.
    ///
    /// Actor `i` is local node `i`.  The actors are borrowed, not
    /// consumed, so the caller can extract their results afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Stalled`] if the protocol can never
    /// complete (all remaining actors idle, no messages in flight), or
    /// any error of [`Transport::open`] and [`Session::run`].
    fn run(&self, actors: &mut [&mut dyn NodeActor<M>]) -> Result<WireTally, TransportError> {
        let mut tallies = self.open(actors.len())?.run(&mut [actors])?;
        Ok(tallies.pop().expect("one group yields one tally"))
    }
}

/// `n` connected nodes, kept for as many runs as the caller likes.
///
/// Every group of a run is one independent protocol execution among the
/// session's `n` nodes — actor `i` of each group is local node `i` — and
/// travels as its own stream: an actor only ever receives what the same
/// group's actors sent.  Stream ids rise over the session's life, so a
/// message that arrives after its group finished (or after its run
/// ended) is recognised as late and dropped.
pub trait Session<M: Wire> {
    /// Number of nodes the session connects.
    fn nodes(&self) -> usize;

    /// Drives every actor of every group to [`ActorStatus::Done`] and
    /// returns each group's measured wire traffic, in group order.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::GroupSize`] (before anything runs) for a
    /// group that does not have one actor per node,
    /// [`TransportError::Stalled`] if some group can never complete,
    /// [`TransportError::Aborted`] as soon as an actor fails, and on
    /// sockets the typed frame, codec, stream and I/O errors.  An
    /// error ends the whole run: no group's result may be used.
    fn run(
        &mut self,
        groups: &mut [&mut [&mut dyn NodeActor<M>]],
    ) -> Result<Vec<WireTally>, TransportError>;
}

/// The shape check both backends' sessions start a run with.
pub(crate) fn check_group_sizes<M: Wire>(
    nodes: usize,
    groups: &[&mut [&mut dyn NodeActor<M>]],
) -> Result<(), TransportError> {
    match groups.iter().find(|group| group.len() != nodes) {
        Some(group) => Err(TransportError::GroupSize {
            expected: nodes,
            actual: group.len(),
        }),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// SimTransport
// ---------------------------------------------------------------------------

/// The deterministic single-threaded backend.
///
/// Actors are polled round-robin in index order; every `(recipient,
/// sender)` pair has its own byte lane, which is exactly the order a
/// receive from one peer exposes — a receive borrows the lane's oldest
/// encoding, never searches.  A send writes the encoding into the
/// recipient's lane and a receive reads it there: nothing is decoded on
/// the way, and no message is copied.  The schedule — and therefore every
/// observable of a run — is fully deterministic.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimTransport;

struct SimEndpoint<'a> {
    node: usize,
    nodes: usize,
    /// Lane `to * nodes + from` holds what `from` sent to `to`.
    lanes: &'a mut [Lane],
    tally: &'a mut WireTally,
    /// Sends plus successful receives, used for stall detection.
    activity: &'a mut u64,
}

impl<M: Wire> Endpoint<M> for SimEndpoint<'_> {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn send_bytes(&mut self, to: usize, write: &mut dyn FnMut(&mut Vec<u8>)) {
        *self.activity += 1;
        let bytes = self.lanes[to * self.nodes + self.node].push_with(write);
        self.tally.record(self.node, to, bytes as u64);
    }

    fn recv_bytes(&mut self, peer: usize) -> Option<&[u8]> {
        let message = self.lanes[self.node * self.nodes + peer].pop();
        if message.is_some() {
            *self.activity += 1;
        }
        message
    }
}

impl<M: Wire> Transport<M> for SimTransport {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn open(&self, nodes: usize) -> Result<Box<dyn Session<M> + '_>, TransportError> {
        Ok(Box::new(SimSession { nodes }))
    }
}

/// The in-process session: nothing to connect, so nothing to own but the
/// node count.  Its groups run one after another, each on the
/// deterministic round-robin schedule — the reference every other way of
/// running them is compared against.
struct SimSession {
    nodes: usize,
}

impl<M: Wire> Session<M> for SimSession {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn run(
        &mut self,
        groups: &mut [&mut [&mut dyn NodeActor<M>]],
    ) -> Result<Vec<WireTally>, TransportError> {
        check_group_sizes(self.nodes, groups)?;
        groups
            .iter_mut()
            .map(|actors| run_sim_group(actors))
            .collect()
    }
}

fn run_sim_group<M: Wire>(
    actors: &mut [&mut dyn NodeActor<M>],
) -> Result<WireTally, TransportError> {
    let n = actors.len();
    let mut lanes: Vec<Lane> = (0..n * n).map(|_| Lane::default()).collect();
    let mut tally = WireTally::new(n);
    let mut done = vec![false; n];
    let mut done_count = 0usize;
    while done_count < n {
        let mut activity = 0u64;
        for (i, actor) in actors.iter_mut().enumerate() {
            if done[i] {
                continue;
            }
            let mut endpoint = SimEndpoint {
                node: i,
                nodes: n,
                lanes: &mut lanes,
                tally: &mut tally,
                activity: &mut activity,
            };
            match actor.poll(&mut endpoint) {
                ActorStatus::Idle => {}
                ActorStatus::Done => {
                    done[i] = true;
                    done_count += 1;
                    activity += 1;
                }
                ActorStatus::Failed => return Err(TransportError::Aborted { node: i }),
            }
        }
        if activity == 0 {
            return Err(TransportError::Stalled {
                done: done_count,
                actors: n,
            });
        }
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::SocketTransport;

    /// Every node sends its index to every other node, then sums what it
    /// receives from each peer in index order.
    struct Summer {
        node: usize,
        nodes: usize,
        sent: bool,
        next_peer: usize,
        sum: u64,
    }

    impl Summer {
        fn new(node: usize, nodes: usize) -> Self {
            Summer {
                node,
                nodes,
                sent: false,
                next_peer: 0,
                sum: 0,
            }
        }
    }

    impl NodeActor<u64> for Summer {
        fn poll(&mut self, ep: &mut dyn Endpoint<u64>) -> ActorStatus {
            if !self.sent {
                let batch: Vec<(usize, u64)> = (0..self.nodes)
                    .filter(|&p| p != self.node)
                    .map(|p| (p, self.node as u64))
                    .collect();
                ep.send_many(batch);
                self.sent = true;
            }
            while self.next_peer < self.nodes {
                if self.next_peer == self.node {
                    self.next_peer += 1;
                    continue;
                }
                match ep.try_recv_from(self.next_peer) {
                    Some(v) => {
                        self.sum += v;
                        self.next_peer += 1;
                    }
                    None => return ActorStatus::Idle,
                }
            }
            ActorStatus::Done
        }
    }

    fn run_summers(transport: &dyn Transport<u64>, n: usize) -> Vec<u64> {
        let mut actors: Vec<Summer> = (0..n).map(|i| Summer::new(i, n)).collect();
        {
            let mut refs: Vec<&mut dyn NodeActor<u64>> = actors
                .iter_mut()
                .map(|a| a as &mut dyn NodeActor<u64>)
                .collect();
            transport.run(&mut refs).unwrap();
        }
        actors.iter().map(|a| a.sum).collect()
    }

    #[test]
    fn lanes_deliver_in_order_and_give_back_large_buffers() {
        let mut lane = Lane::default();
        assert_eq!(lane.pop(), None);
        lane.push(b"one");
        assert_eq!(
            lane.push_with(&mut |out| out.extend_from_slice(b"second")),
            6
        );
        lane.push(b"");
        assert_eq!(lane.pop(), Some(&b"one"[..]));
        assert_eq!(lane.pop(), Some(&b"second"[..]));
        assert_eq!(lane.pop(), Some(&b""[..]));
        assert_eq!(lane.pop(), None);
        // A drained lane gives a buffer grown past the keep size back.
        lane.push(&[7; 1000]);
        assert_eq!(lane.pop().map(<[u8]>::len), Some(1000));
        assert_eq!(lane.pop(), None);
        assert_eq!(lane.buf.capacity(), 0);
        // A lane read half as fast as it is written keeps its delivered
        // entries at most as large as its undelivered ones.
        let mut next = 0u8;
        for i in 0..200u8 {
            lane.push(&[i; 10]);
            if i % 2 == 1 {
                assert_eq!(lane.pop(), Some(&[next; 10][..]));
                next += 1;
            }
        }
        assert!(lane.buf.len() <= 2 * 100 * (LANE_ENTRY_HEADER + 10));
        while let Some(entry) = lane.pop() {
            assert_eq!(entry, &[next; 10]);
            next += 1;
        }
        assert_eq!(next, 200);
    }

    #[test]
    fn sim_all_to_all_sums() {
        let sums = run_summers(&SimTransport, 5);
        // Each node receives 0+1+2+3+4 minus its own index.
        for (i, sum) in sums.iter().enumerate() {
            assert_eq!(*sum, 10 - i as u64);
        }
    }

    #[test]
    fn sim_lanes_are_per_sender_fifo() {
        /// Nodes 1 and 2 each send two numbered messages to node 0, which
        /// reads node 2's lane first: a receive never sees another
        /// sender's message and keeps each sender's order.
        struct Lanes(Vec<u64>);
        impl NodeActor<u64> for Lanes {
            fn poll(&mut self, ep: &mut dyn Endpoint<u64>) -> ActorStatus {
                if self.0.is_empty() {
                    self.0.push(u64::MAX);
                    return ActorStatus::Idle;
                }
                self.0.clear();
                for peer in [2, 1, 2, 1, 1] {
                    self.0.extend(ep.try_recv_from(peer));
                }
                ActorStatus::Done
            }
        }
        struct Sender(u64);
        impl NodeActor<u64> for Sender {
            fn poll(&mut self, ep: &mut dyn Endpoint<u64>) -> ActorStatus {
                ep.send(0, self.0);
                ep.send(0, self.0 + 1);
                ActorStatus::Done
            }
        }
        let (mut reader, mut a, mut b) = (Lanes(Vec::new()), Sender(10), Sender(20));
        let mut refs: Vec<&mut dyn NodeActor<u64>> = vec![&mut reader, &mut a, &mut b];
        SimTransport.run(&mut refs).unwrap();
        assert_eq!(reader.0, vec![20, 10, 21, 11]);
    }

    #[test]
    fn tally_measures_encoded_bytes_identically_on_both_backends() {
        // Every Summer message is one u64 = 8 encoded bytes; n = 5 nodes
        // send to every peer exactly once.
        let run_tally = |transport: &dyn Transport<u64>| {
            let mut actors: Vec<Summer> = (0..5).map(|i| Summer::new(i, 5)).collect();
            let mut refs: Vec<&mut dyn NodeActor<u64>> = actors
                .iter_mut()
                .map(|a| a as &mut dyn NodeActor<u64>)
                .collect();
            transport.run(&mut refs).unwrap()
        };
        let sim = run_tally(&SimTransport);
        let socket = run_tally(&SocketTransport::new());
        assert_eq!(sim, socket);
        assert_eq!(sim.total_messages(), 5 * 4);
        assert_eq!(sim.total_bytes(), 5 * 4 * 8);
        assert_eq!(sim.bytes_between(0, 1), 8);
        assert_eq!(sim.bytes_between(0, 0), 0);
        assert_eq!(sim.sent_bytes(2), 4 * 8);
        assert_eq!(sim.received_bytes(2), 4 * 8);
    }

    #[test]
    fn empty_run_completes() {
        let mut refs: Vec<&mut dyn NodeActor<u64>> = Vec::new();
        assert!(SimTransport.run(&mut refs).is_ok());
        assert!(SocketTransport::new().run(&mut refs).is_ok());
        assert_eq!(<SimTransport as Transport<u64>>::name(&SimTransport), "sim");
    }

    /// An actor that waits forever for a message nobody sends.
    struct Starved;

    impl NodeActor<u64> for Starved {
        fn poll(&mut self, ep: &mut dyn Endpoint<u64>) -> ActorStatus {
            match ep.try_recv_from(0) {
                Some(_) => ActorStatus::Done,
                None => ActorStatus::Idle,
            }
        }
    }

    #[test]
    fn a_failed_actor_aborts_the_run_at_once() {
        // Node 1 fails on its first poll while node 0 waits for a message
        // it will never get: both backends end with node 1's abort, not a
        // stall (which sockets would only declare after their timeout).
        struct Quitter;
        impl NodeActor<u64> for Quitter {
            fn poll(&mut self, _: &mut dyn Endpoint<u64>) -> ActorStatus {
                ActorStatus::Failed
            }
        }
        for transport in [
            Box::new(SimTransport) as Box<dyn Transport<u64>>,
            Box::new(SocketTransport::new()),
        ] {
            let (mut waiting, mut quitter) = (Starved, Quitter);
            let mut refs: Vec<&mut dyn NodeActor<u64>> = vec![&mut waiting, &mut quitter];
            let err = transport.run(&mut refs).unwrap_err();
            assert_eq!(
                err,
                TransportError::Aborted { node: 1 },
                "{}",
                transport.name()
            );
            assert!(err.to_string().contains("node 1"));
        }
    }

    #[test]
    fn sim_detects_stall() {
        let mut a = Starved;
        let mut b = Starved;
        let mut refs: Vec<&mut dyn NodeActor<u64>> = vec![&mut a, &mut b];
        let err = SimTransport.run(&mut refs).unwrap_err();
        assert_eq!(err, TransportError::Stalled { done: 0, actors: 2 });
        assert!(err.to_string().contains("stalled"));
    }
}
