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
//! Two backends are provided:
//!
//! * [`SimTransport`] — the deterministic in-process backend.  All actors
//!   run on the calling thread, round-robin, with messages queued in one
//!   FIFO per `(recipient, sender)`.  This is the reference backend: its
//!   schedule is fully deterministic, and a stalled protocol (every actor
//!   idle with no message in flight) is reported as
//!   [`TransportError::Stalled`] rather than deadlocking.
//! * [`ThreadedTransport`] — real concurrency.  Nodes are sharded across
//!   a worker pool (sized by [`std::thread::available_parallelism`] by
//!   default) and exchange messages over per-node [`std::sync::mpsc`]
//!   channels.
//!
//! Actors must be written so that their *outputs* do not depend on the
//! schedule: they may only consume messages via
//! [`Endpoint::try_recv_from`] (per-peer FIFO order, which both backends
//! guarantee), never on cross-peer arrival order.  Under that discipline
//! the two backends produce bit-identical results — the property the
//! workspace's determinism suite asserts for the GMW engine.
//!
//! ## Example
//!
//! ```
//! use dstress_net::transport::{
//!     ActorStatus, Endpoint, NodeActor, SimTransport, ThreadedTransport, Transport,
//! };
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
//!     Box::new(ThreadedTransport::with_threads(2)),
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
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Encodes a message through the wire format, measures the encoding, and
/// decodes it back — the boundary every transport send passes through.
/// Both backends deliver the *decoded* copy, so a message type whose
/// codec cannot round-trip fails loudly in any test that exchanges it.
/// The encoding lands in `scratch`, an endpoint-owned buffer reused from
/// send to send.
///
/// A decode failure here is an encoder/decoder mismatch in the message
/// type itself (never data-dependent), so it panics rather than poisoning
/// the run.
fn through_wire<M: Wire>(message: M, scratch: &mut Vec<u8>) -> (M, u64) {
    scratch.clear();
    message.encode_into(scratch);
    let decoded = M::decode_exact(scratch)
        .expect("wire round-trip failed: the message type's encoder and decoder disagree");
    (decoded, scratch.len() as u64)
}

/// What an actor reports after a [`NodeActor::poll`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActorStatus {
    /// The actor is blocked waiting for a message that has not arrived.
    Idle,
    /// The actor has finished its protocol role; it will not be polled
    /// again.
    Done,
}

/// A resumable protocol state machine bound to one simulated node.
///
/// `poll` must make as much progress as possible: process every available
/// message, send everything it can, and return [`ActorStatus::Idle`] only
/// when genuinely blocked on a missing message.  Implementations must be
/// schedule-independent: consume messages only through
/// [`Endpoint::try_recv_from`] in an order fixed by the protocol itself.
pub trait NodeActor<M>: Send {
    /// Advances the actor as far as it can go.
    fn poll(&mut self, endpoint: &mut dyn Endpoint<M>) -> ActorStatus;
}

/// A node's handle onto the transport: send to peers, receive from a
/// specific peer.
///
/// Nodes are addressed by dense local indices `0..nodes()`; mapping local
/// indices to global [`crate::traffic::NodeId`]s (for traffic accounting)
/// is the actor's business, which keeps the transport payload-agnostic.
pub trait Endpoint<M> {
    /// Number of nodes attached to this transport run.
    fn nodes(&self) -> usize;

    /// Sends `message` to local node `to`.  Sends never block.
    fn send(&mut self, to: usize, message: M);

    /// Sends a batch of messages in one call (the batch entry point used
    /// by round-structured protocols to queue a whole round at once).
    fn send_many(&mut self, batch: Vec<(usize, M)>) {
        for (to, message) in batch {
            self.send(to, message);
        }
    }

    /// Receives the oldest undelivered message *from `peer`*, if any.
    ///
    /// Messages from one peer are always delivered in the order they were
    /// sent; ordering across different peers is unspecified (and actors
    /// must not depend on it).
    fn try_recv_from(&mut self, peer: usize) -> Option<M>;
}

/// Errors reported by a transport run.
///
/// The in-process backends can only fail with [`TransportError::Stalled`]
/// (their byte buffers never lie); the socket backend adds the failure
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
    /// A complete frame arrived but its payload failed to decode as the
    /// expected message type.  Unlike the in-process backends — where a
    /// codec mismatch is a local bug and panics — bytes from a remote
    /// peer are untrusted input and fail typed.
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
        }
    }
}

impl std::error::Error for TransportError {}

/// A backend that drives a set of node actors to completion.
///
/// Messages must implement [`Wire`]: every send is routed through
/// `encode → byte buffer → decode`, and the run returns a [`WireTally`]
/// of the measured encoded bytes per `(from, to)` pair.
pub trait Transport<M: Wire + Send> {
    /// Short backend name, for logs and benchmark tables.
    fn name(&self) -> &'static str;

    /// Runs every actor until all are [`ActorStatus::Done`], returning
    /// the measured wire traffic of the run.
    ///
    /// Actor `i` is local node `i`.  The actors are borrowed, not
    /// consumed, so the caller can extract their results afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Stalled`] if the protocol can never
    /// complete (all remaining actors idle, no messages in flight).
    fn run(&self, actors: &mut [&mut dyn NodeActor<M>]) -> Result<WireTally, TransportError>;
}

// ---------------------------------------------------------------------------
// SimTransport
// ---------------------------------------------------------------------------

/// The deterministic single-threaded backend.
///
/// Actors are polled round-robin in index order; every `(recipient,
/// sender)` pair has its own FIFO lane, which is exactly the order
/// [`Endpoint::try_recv_from`] exposes — a receive is a `pop_front`, never
/// a search.  The schedule — and therefore every observable of a run — is
/// fully deterministic.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimTransport;

struct SimEndpoint<'a, M> {
    node: usize,
    nodes: usize,
    /// Lane `to * nodes + from` holds what `from` sent to `to`.
    lanes: &'a mut [VecDeque<M>],
    scratch: &'a mut Vec<u8>,
    tally: &'a mut WireTally,
    /// Sends plus successful receives, used for stall detection.
    activity: &'a mut u64,
}

impl<M: Wire> Endpoint<M> for SimEndpoint<'_, M> {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn send(&mut self, to: usize, message: M) {
        *self.activity += 1;
        let (decoded, bytes) = through_wire(message, self.scratch);
        self.tally.record(self.node, to, bytes);
        self.lanes[to * self.nodes + self.node].push_back(decoded);
    }

    fn try_recv_from(&mut self, peer: usize) -> Option<M> {
        let message = self.lanes[self.node * self.nodes + peer].pop_front();
        if message.is_some() {
            *self.activity += 1;
        }
        message
    }
}

impl<M: Wire + Send> Transport<M> for SimTransport {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(&self, actors: &mut [&mut dyn NodeActor<M>]) -> Result<WireTally, TransportError> {
        let n = actors.len();
        let mut lanes: Vec<VecDeque<M>> = (0..n * n).map(|_| VecDeque::new()).collect();
        let mut scratch = Vec::new();
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
                    scratch: &mut scratch,
                    tally: &mut tally,
                    activity: &mut activity,
                };
                if actor.poll(&mut endpoint) == ActorStatus::Done {
                    done[i] = true;
                    done_count += 1;
                    activity += 1;
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
}

// ---------------------------------------------------------------------------
// ThreadedTransport
// ---------------------------------------------------------------------------

/// The multi-threaded backend: per-node mpsc channels, nodes sharded
/// across a worker pool.
///
/// Workers poll their shard of actors in a loop; an actor whose messages
/// have not arrived yet simply yields until they do.  With actors that
/// follow the [`NodeActor`] schedule-independence discipline, the results
/// are bit-identical to [`SimTransport`] — only the wall-clock differs.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedTransport {
    threads: usize,
    stall_timeout: Duration,
}

impl ThreadedTransport {
    /// A pool with one worker per available core.
    pub fn new() -> Self {
        ThreadedTransport {
            threads: crate::pool::default_threads(),
            stall_timeout: STALL_TIMEOUT,
        }
    }

    /// A pool with an explicit worker count (at least one is used).
    pub fn with_threads(threads: usize) -> Self {
        ThreadedTransport {
            threads: threads.max(1),
            stall_timeout: STALL_TIMEOUT,
        }
    }

    /// Overrides the stall timeout (how long the run tolerates global
    /// quiescence — every worker parked, no message in any queue — before
    /// failing).  Mostly useful to make stall tests fast.
    pub fn with_stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = timeout;
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for ThreadedTransport {
    fn default() -> Self {
        ThreadedTransport::new()
    }
}

/// How long a run tolerates global quiescence before declaring a stall.
/// Generous: it only matters for protocol bugs, which the deterministic
/// [`SimTransport`] surfaces first in any well-tested code path.
pub(crate) const STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// Per-node queue counters shared by a run's endpoints: how many messages
/// were pushed into each node's channel and how many its endpoint has
/// drained out.  `sent == drained` for every node means no message is in
/// flight anywhere — the quiescence half of stall detection.  (Counting
/// per node rather than globally keeps the counters useful for
/// diagnostics and avoids a single hot cacheline under fan-in.)
pub(crate) struct QueueCounters {
    pub(crate) sent: Vec<AtomicU64>,
    pub(crate) drained: Vec<AtomicU64>,
    /// Set once a node's actor is [`ActorStatus::Done`].  A finished
    /// node's channel may never be drained again (its worker may already
    /// have exited), so messages addressed to it are protocol garbage
    /// and must not count as traffic in flight — otherwise one late send
    /// to a finished node would disable stall detection and turn every
    /// genuine stall into an unbounded hang.
    pub(crate) finished: Vec<AtomicBool>,
}

impl QueueCounters {
    pub(crate) fn new(nodes: usize) -> Self {
        QueueCounters {
            sent: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            drained: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            finished: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Whether every message ever sent to a still-running node has been
    /// drained by its recipient.  Racy reads are fine: a message sent
    /// concurrently with this check implies progress, which independently
    /// resets the stall clock.
    pub(crate) fn quiescent(&self) -> bool {
        self.sent
            .iter()
            .zip(&self.drained)
            .zip(&self.finished)
            .all(|((s, d), f)| {
                f.load(Ordering::Relaxed) || s.load(Ordering::Relaxed) == d.load(Ordering::Relaxed)
            })
    }
}

/// Lock-free per-pair wire counters shared by a threaded run's endpoints;
/// folded into a plain [`WireTally`] once every worker has joined.
pub(crate) struct SharedTally {
    nodes: usize,
    bytes: Vec<AtomicU64>,
    messages: Vec<AtomicU64>,
}

impl SharedTally {
    pub(crate) fn new(nodes: usize) -> Self {
        SharedTally {
            nodes,
            bytes: (0..nodes * nodes).map(|_| AtomicU64::new(0)).collect(),
            messages: (0..nodes * nodes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub(crate) fn record(&self, from: usize, to: usize, bytes: u64) {
        let idx = from * self.nodes + to;
        self.bytes[idx].fetch_add(bytes, Ordering::Relaxed);
        self.messages[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot after all workers joined (the join is the happens-before
    /// edge that makes the relaxed counters complete).
    pub(crate) fn collect(&self) -> WireTally {
        let mut tally = WireTally::new(self.nodes);
        for from in 0..self.nodes {
            for to in 0..self.nodes {
                let idx = from * self.nodes + to;
                tally.add(
                    from,
                    to,
                    self.bytes[idx].load(Ordering::Relaxed),
                    self.messages[idx].load(Ordering::Relaxed),
                );
            }
        }
        tally
    }
}

struct ThreadedEndpoint<M> {
    node: usize,
    peers: Vec<mpsc::Sender<(usize, M)>>,
    inbox: mpsc::Receiver<(usize, M)>,
    /// Per-peer reorder buffers: the mpsc channel interleaves senders, but
    /// `try_recv_from` must expose per-peer FIFO streams.
    buffers: Vec<VecDeque<M>>,
    counters: Arc<QueueCounters>,
    wire: Arc<SharedTally>,
    /// Encode buffer of [`through_wire`].
    scratch: Vec<u8>,
    activity: u64,
}

impl<M> ThreadedEndpoint<M> {
    /// Moves everything from the channel into the per-peer buffers,
    /// updating the drained counter; returns how many messages moved.
    /// Workers call this for their whole shard before parking idle, so a
    /// batched message that is still sitting in a channel is never
    /// mistaken for quiescence.
    fn drain_inbox(&mut self) -> u64 {
        let mut moved = 0;
        while let Ok((from, message)) = self.inbox.try_recv() {
            self.buffers[from].push_back(message);
            moved += 1;
        }
        if moved > 0 {
            self.counters.drained[self.node].fetch_add(moved, Ordering::Relaxed);
        }
        moved
    }
}

impl<M: Wire> Endpoint<M> for ThreadedEndpoint<M> {
    fn nodes(&self) -> usize {
        self.peers.len()
    }

    fn send(&mut self, to: usize, message: M) {
        self.activity += 1;
        let (decoded, bytes) = through_wire(message, &mut self.scratch);
        self.wire.record(self.node, to, bytes);
        self.counters.sent[to].fetch_add(1, Ordering::Relaxed);
        // A closed peer channel means that actor already finished; its
        // protocol role no longer needs the message.
        let _ = self.peers[to].send((self.node, decoded));
    }

    fn try_recv_from(&mut self, peer: usize) -> Option<M> {
        self.drain_inbox();
        let message = self.buffers[peer].pop_front();
        if message.is_some() {
            self.activity += 1;
        }
        message
    }
}

/// Consecutive no-progress polling passes a worker tolerates before it
/// backs off from `yield_now` spinning to millisecond sleeps (so a peer
/// worker stuck in a long computation — or a stall running out the
/// timeout — does not burn a core).
pub(crate) const SPIN_PASSES_BEFORE_SLEEP: u32 = 256;

/// State shared by the workers of one run, used for *global* stall
/// detection.  A run is declared stalled only when the system is provably
/// quiescent: every worker is parked idle (or has finished its shard), no
/// message is in flight in any node's queue ([`QueueCounters`]), and no
/// progress event has happened anywhere for the stall timeout.  A single
/// busy worker — e.g. one actor deep in a long computation between
/// batched rounds — keeps the whole run alive, because workers unpark
/// *before* each polling pass, not after it.
pub(crate) struct WorkerShared {
    /// Progress events (sends, receives, completions) across all workers.
    pub(crate) progress: AtomicU64,
    /// Workers currently parked idle, plus workers that finished.
    pub(crate) idle_workers: AtomicUsize,
    /// Total workers in the run.
    pub(crate) workers: usize,
    /// Per-node sent/drained message counters for the quiescence check.
    pub(crate) counters: Arc<QueueCounters>,
    /// How long global quiescence is tolerated before failing the run.
    pub(crate) stall_timeout: Duration,
    /// Set when the run failed (stall or socket error); all workers
    /// bail out.
    pub(crate) failed: AtomicBool,
    /// The first non-stall failure any worker hit (socket backends only;
    /// a bare `failed` flag with an empty slot means a stall).
    pub(crate) failure: Mutex<Option<TransportError>>,
}

impl WorkerShared {
    pub(crate) fn new(
        counters: Arc<QueueCounters>,
        workers: usize,
        stall_timeout: Duration,
    ) -> Self {
        WorkerShared {
            progress: AtomicU64::new(0),
            idle_workers: AtomicUsize::new(0),
            workers,
            counters,
            stall_timeout,
            failed: AtomicBool::new(false),
            failure: Mutex::new(None),
        }
    }

    /// Records the first failure and tells every worker to bail out.
    pub(crate) fn fail(&self, error: TransportError) {
        let mut slot = self.failure.lock().expect("failure slot poisoned");
        if slot.is_none() {
            *slot = Some(error);
        }
        drop(slot);
        self.failed.store(true, Ordering::Relaxed);
    }

    /// Takes the recorded failure, if any (after all workers joined).
    pub(crate) fn take_failure(&self) -> Option<TransportError> {
        self.failure.lock().expect("failure slot poisoned").take()
    }
}

fn run_worker<M: Wire>(
    shard: &mut [&mut dyn NodeActor<M>],
    mut endpoints: Vec<ThreadedEndpoint<M>>,
    shared: &WorkerShared,
) -> usize {
    let mut done = vec![false; shard.len()];
    let mut remaining = shard.len();
    let mut parked_idle = false;
    let mut idle_passes = 0u32;
    let mut seen_progress = shared.progress.load(Ordering::Relaxed);
    let mut last_global_change = Instant::now();
    while remaining > 0 {
        if shared.failed.load(Ordering::Relaxed) {
            break;
        }
        // Unpark *before* polling: while this worker is inside a pass
        // (possibly a long batched-layer computation), the run must not
        // look globally idle to the other workers.
        if parked_idle {
            shared.idle_workers.fetch_sub(1, Ordering::Relaxed);
            parked_idle = false;
        }
        let mut progress = false;
        for (k, endpoint) in endpoints.iter_mut().enumerate() {
            if done[k] {
                continue;
            }
            let before = endpoint.activity;
            if shard[k].poll(endpoint) == ActorStatus::Done {
                done[k] = true;
                remaining -= 1;
                progress = true;
                // From here on nobody may ever drain this node again (in
                // particular once this worker's whole shard finishes and
                // the worker exits), so exclude it from the quiescence
                // check instead of letting late messages to it block
                // stall detection forever.
                shared.counters.finished[endpoint.node].store(true, Ordering::Relaxed);
            } else if endpoint.activity != before {
                progress = true;
            }
        }
        if !progress {
            // Sweep the shard's channels (including finished actors', so
            // late messages to them do not read as traffic in flight
            // forever).  Anything moved may unblock an actor, so a
            // non-empty sweep counts as progress.
            let drained: u64 = endpoints
                .iter_mut()
                .map(ThreadedEndpoint::drain_inbox)
                .sum();
            progress = drained > 0;
        }
        if progress {
            shared.progress.fetch_add(1, Ordering::Relaxed);
            idle_passes = 0;
        } else {
            shared.idle_workers.fetch_add(1, Ordering::Relaxed);
            parked_idle = true;
            let now_progress = shared.progress.load(Ordering::Relaxed);
            if now_progress != seen_progress {
                seen_progress = now_progress;
                last_global_change = Instant::now();
            } else if shared.idle_workers.load(Ordering::Relaxed) == shared.workers
                && shared.counters.quiescent()
                && last_global_change.elapsed() > shared.stall_timeout
            {
                shared.failed.store(true, Ordering::Relaxed);
                break;
            }
            idle_passes = idle_passes.saturating_add(1);
            if idle_passes > SPIN_PASSES_BEFORE_SLEEP {
                std::thread::sleep(Duration::from_millis(1));
            } else {
                std::thread::yield_now();
            }
        }
    }
    // A finished worker counts as idle so that peers blocked on a true
    // deadlock can still see "everyone idle" and time out.
    if !parked_idle {
        shared.idle_workers.fetch_add(1, Ordering::Relaxed);
    }
    shard.len() - remaining
}

impl<M: Wire + Send> Transport<M> for ThreadedTransport {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn run(&self, actors: &mut [&mut dyn NodeActor<M>]) -> Result<WireTally, TransportError> {
        let n = actors.len();
        if n == 0 {
            return Ok(WireTally::new(0));
        }
        let counters = Arc::new(QueueCounters::new(n));
        let wire = Arc::new(SharedTally::new(n));
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel::<(usize, M)>();
            senders.push(tx);
            receivers.push(rx);
        }
        let mut endpoints: Vec<ThreadedEndpoint<M>> = receivers
            .into_iter()
            .enumerate()
            .map(|(node, inbox)| ThreadedEndpoint {
                node,
                peers: senders.clone(),
                inbox,
                buffers: (0..n).map(|_| VecDeque::new()).collect(),
                counters: Arc::clone(&counters),
                wire: Arc::clone(&wire),
                scratch: Vec::new(),
                activity: 0,
            })
            .collect();
        // Drop the template senders so channels close once all endpoints
        // are gone.
        drop(senders);

        let workers = self.threads.clamp(1, n);
        let shard_size = n.div_ceil(workers);
        let shared = WorkerShared::new(counters, n.div_ceil(shard_size), self.stall_timeout);
        let completed: usize = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            let mut rest: &mut [&mut dyn NodeActor<M>] = actors;
            while !rest.is_empty() {
                let take = shard_size.min(rest.len());
                let (shard, tail) = std::mem::take(&mut rest).split_at_mut(take);
                rest = tail;
                let shard_endpoints: Vec<_> = endpoints.drain(..take).collect();
                let shared = &shared;
                handles.push(scope.spawn(move || run_worker(shard, shard_endpoints, shared)));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("transport worker panicked"))
                .sum()
        });
        if shared.failed.load(Ordering::Relaxed) {
            return Err(TransportError::Stalled {
                done: completed,
                actors: n,
            });
        }
        Ok(wire.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn threaded_matches_sim() {
        for threads in [1, 2, 4] {
            let threaded = run_summers(&ThreadedTransport::with_threads(threads), 6);
            let sim = run_summers(&SimTransport, 6);
            assert_eq!(threaded, sim, "threads = {threads}");
        }
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
        let threaded = run_tally(&ThreadedTransport::with_threads(3));
        assert_eq!(sim, threaded);
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
        assert!(ThreadedTransport::new().run(&mut refs).is_ok());
        assert!(ThreadedTransport::default().threads() >= 1);
        assert_eq!(<SimTransport as Transport<u64>>::name(&SimTransport), "sim");
        assert_eq!(
            <ThreadedTransport as Transport<u64>>::name(&ThreadedTransport::new()),
            "threaded"
        );
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
    fn sim_detects_stall() {
        let mut a = Starved;
        let mut b = Starved;
        let mut refs: Vec<&mut dyn NodeActor<u64>> = vec![&mut a, &mut b];
        let err = SimTransport.run(&mut refs).unwrap_err();
        assert_eq!(err, TransportError::Stalled { done: 0, actors: 2 });
        assert!(err.to_string().contains("stalled"));
    }

    #[test]
    fn threaded_detects_genuine_stall() {
        // Two actors each waiting for a message nobody sends: the system
        // is quiescent (no message in any queue), every worker parks, and
        // the timeout fires.
        let mut a = Starved;
        let mut b = Starved;
        let mut refs: Vec<&mut dyn NodeActor<u64>> = vec![&mut a, &mut b];
        let transport =
            ThreadedTransport::with_threads(2).with_stall_timeout(Duration::from_millis(50));
        let err = transport.run(&mut refs).unwrap_err();
        assert!(matches!(
            err,
            TransportError::Stalled { done: 0, actors: 2 }
        ));
    }

    /// Node 2 kicks node 0; node 0 then "computes" for longer than the
    /// stall timeout before emitting a large batched payload to node 1;
    /// node 1 consumes the batch.
    enum Batcher {
        Kicker,
        SlowProducer {
            batch: usize,
            payload: usize,
        },
        Consumer {
            received: usize,
            expected: usize,
            sum: u64,
        },
    }

    impl NodeActor<Vec<u64>> for Batcher {
        fn poll(&mut self, ep: &mut dyn Endpoint<Vec<u64>>) -> ActorStatus {
            match self {
                Batcher::Kicker => {
                    ep.send(0, vec![1]);
                    ActorStatus::Done
                }
                Batcher::SlowProducer { batch, payload } => {
                    if ep.try_recv_from(2).is_none() {
                        return ActorStatus::Idle;
                    }
                    // A long computation between rounds: the run must not
                    // be declared stalled while this worker is busy, even
                    // though every *other* worker is parked idle.
                    std::thread::sleep(Duration::from_millis(150));
                    let messages: Vec<(usize, Vec<u64>)> = (0..*batch)
                        .map(|i| (1usize, vec![i as u64; *payload]))
                        .collect();
                    ep.send_many(messages);
                    ActorStatus::Done
                }
                Batcher::Consumer {
                    received,
                    expected,
                    sum,
                } => {
                    while *received < *expected {
                        match ep.try_recv_from(0) {
                            Some(payload) => {
                                *sum += payload.iter().sum::<u64>();
                                *received += 1;
                            }
                            None => return ActorStatus::Idle,
                        }
                    }
                    ActorStatus::Done
                }
            }
        }
    }

    /// Regression test for spurious stalls: with the old idle accounting
    /// (workers unparked only *after* a pass with progress), a worker
    /// stuck in a long computation still counted as idle, so the timeout
    /// could fire with batched messages still in flight.  The quiescence
    /// check plus unpark-before-pass must ride out a computation much
    /// longer than the stall timeout.
    #[test]
    fn large_batched_payloads_do_not_trip_stall_detection() {
        let (batch, payload) = (64usize, 4096usize);
        let mut producer = Batcher::SlowProducer { batch, payload };
        let mut consumer = Batcher::Consumer {
            received: 0,
            expected: batch,
            sum: 0,
        };
        let mut kicker = Batcher::Kicker;
        let mut refs: Vec<&mut dyn NodeActor<Vec<u64>>> =
            vec![&mut producer, &mut consumer, &mut kicker];
        let transport =
            ThreadedTransport::with_threads(3).with_stall_timeout(Duration::from_millis(40));
        transport.run(&mut refs).unwrap();
        let Batcher::Consumer { received, sum, .. } = consumer else {
            unreachable!();
        };
        assert_eq!(received, batch);
        // sum of i * payload for i in 0..batch
        let expected: u64 = (0..batch as u64).map(|i| i * payload as u64).sum();
        assert_eq!(sum, expected);
    }

    /// A message sent to a node whose worker has already *exited* (so
    /// nobody can ever drain its channel again) must not count as
    /// traffic in flight, or a genuine stall would hang forever instead
    /// of timing out.
    #[test]
    fn messages_to_exited_workers_do_not_hang_stall_detection() {
        /// Node 1: finishes on its very first poll, so its worker exits.
        struct InstantDone;
        impl NodeActor<u64> for InstantDone {
            fn poll(&mut self, _ep: &mut dyn Endpoint<u64>) -> ActorStatus {
                ActorStatus::Done
            }
        }
        /// Node 0: sends to the long-gone node 1, then waits forever for
        /// a reply nobody will send.
        struct SendThenStarve {
            sent: bool,
        }
        impl NodeActor<u64> for SendThenStarve {
            fn poll(&mut self, ep: &mut dyn Endpoint<u64>) -> ActorStatus {
                if !self.sent {
                    // Give node 1's worker time to exit first, so the
                    // message lands in a channel nobody will ever drain.
                    std::thread::sleep(Duration::from_millis(20));
                    ep.send(1, 99);
                    self.sent = true;
                }
                match ep.try_recv_from(1) {
                    Some(_) => ActorStatus::Done,
                    None => ActorStatus::Idle,
                }
            }
        }
        let mut starver = SendThenStarve { sent: false };
        let mut instant = InstantDone;
        let mut refs: Vec<&mut dyn NodeActor<u64>> = vec![&mut starver, &mut instant];
        let transport =
            ThreadedTransport::with_threads(2).with_stall_timeout(Duration::from_millis(50));
        let err = transport.run(&mut refs).unwrap_err();
        assert!(matches!(
            err,
            TransportError::Stalled { done: 1, actors: 2 }
        ));
    }

    /// A message that its recipient will never consume must not be read
    /// as "in flight" forever — the idle sweep drains it into the reorder
    /// buffers so a genuinely stalled run still times out.
    #[test]
    fn unconsumed_messages_do_not_mask_a_stall() {
        struct FireAndForget;
        impl NodeActor<u64> for FireAndForget {
            fn poll(&mut self, ep: &mut dyn Endpoint<u64>) -> ActorStatus {
                ep.send(0, 7);
                ActorStatus::Done
            }
        }
        // Node 0 only ever waits on a message from itself, so node 1's
        // message sits in node 0's buffers unconsumed.
        let mut starved = Starved;
        let mut sender = FireAndForget;
        let mut refs: Vec<&mut dyn NodeActor<u64>> = vec![&mut starved, &mut sender];
        let transport =
            ThreadedTransport::with_threads(2).with_stall_timeout(Duration::from_millis(50));
        let err = transport.run(&mut refs).unwrap_err();
        assert!(matches!(
            err,
            TransportError::Stalled { done: 1, actors: 2 }
        ));
    }
}
