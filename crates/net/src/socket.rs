//! [`SocketTransport`]: the concurrent [`Transport`] backend — real TCP.
//!
//! Where [`crate::transport::SimTransport`] queues messages in memory on
//! one thread, this backend shards the actors across a worker pool and
//! moves every message through an actual kernel socket: each pair of
//! nodes shares one loopback TCP connection, messages travel as
//! length-prefixed frames ([`crate::frame`]) carrying the exact
//! [`Wire`]-encoded payload the in-process backend accounts, and the
//! returned [`WireTally`] records the *payload* bytes only — so measured
//! `wire_bytes` are byte-identical across both backends while the frame
//! header is charged to transport overhead.
//!
//! There is no async runtime in this workspace (the shims environment has
//! no tokio), and none is needed: streams are switched to non-blocking
//! mode and polled readiness-style by the worker loop — actors are polled
//! until idle, sockets are drained/flushed on every pass, and the
//! quiescence check (per-node sent/drained counters plus parked-worker
//! accounting) turns a genuine protocol stall into a typed
//! [`TransportError::Stalled`] instead of a hang.  Socket-specific
//! failures — torn frames, trailing garbage, oversized length prefixes,
//! undecodable payloads, I/O errors — surface as the typed
//! [`TransportError`] variants rather than panics, because bytes read
//! from a socket are untrusted input even on loopback.
//!
//! The module also exposes [`FramedConn`], the single-connection building
//! block (non-blocking stream + frame codec + write buffer), which the
//! deployment layer reuses for master↔worker control connections.

use crate::frame::{encode_frame_into, FrameDecoder};
use crate::transport::{ActorStatus, Endpoint, NodeActor, Transport, TransportError};
use crate::wire::{get_u32_le, get_u8, put_u32_le, put_u8, Wire, WireError, WireTally};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long [`SocketTransport`] waits for mesh peers to complete the
/// hello handshake before failing the run.
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// The first frame on every mesh connection: who is calling whom, and
/// how many nodes the caller thinks the run has.  A connection whose
/// hello does not match the run topology is rejected with
/// [`TransportError::Handshake`] before any protocol bytes flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Local index of the connecting node.
    pub from: u32,
    /// Local index of the accepting node.
    pub to: u32,
    /// Total nodes in the run (topology cross-check).
    pub nodes: u32,
}

/// Tag byte opening an encoded [`Hello`] (`'H'`).
pub const HELLO_TAG: u8 = 0x48;

impl Wire for Hello {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u8(out, HELLO_TAG);
        put_u32_le(out, self.from);
        put_u32_le(out, self.to);
        put_u32_le(out, self.nodes);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let tag = get_u8(input)?;
        if tag != HELLO_TAG {
            return Err(WireError::BadTag {
                tag,
                what: "socket hello",
            });
        }
        Ok(Hello {
            from: get_u32_le(input)?,
            to: get_u32_le(input)?,
            nodes: get_u32_le(input)?,
        })
    }
}

/// I/O error kinds that mean "the peer is gone", which the transport
/// does not treat as a run-failing error: a finished actor's worker may
/// drop its sockets while slower peers still hold late messages for it,
/// and its protocol role no longer needs them.
fn peer_gone(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
    )
}

// ---------------------------------------------------------------------------
// FramedConn
// ---------------------------------------------------------------------------

/// One non-blocking TCP connection speaking length-prefixed frames.
///
/// This is the building block under both the [`SocketTransport`] mesh and
/// the master↔worker deployment protocol: a stream in non-blocking mode,
/// an incremental [`FrameDecoder`] on the read side, and an elastic write
/// buffer on the write side so sends never block an actor.
#[derive(Debug)]
pub struct FramedConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    outbuf: VecDeque<u8>,
    /// Local index of the peer, used to label typed errors.
    peer: usize,
    /// Read side saw EOF (clean close after the torn-frame check).
    closed: bool,
}

impl FramedConn {
    /// Wraps a stream (peer label 0), switching it to non-blocking mode.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        FramedConn::with_peer(stream, 0)
    }

    /// Wraps a stream with an explicit peer label for error reporting.
    pub fn with_peer(stream: TcpStream, peer: usize) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(FramedConn {
            stream,
            decoder: FrameDecoder::new(),
            outbuf: VecDeque::new(),
            peer,
            closed: false,
        })
    }

    /// The peer label this connection reports errors against.
    pub fn peer(&self) -> usize {
        self.peer
    }

    /// Whether the read side has seen a clean EOF.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Bytes queued on the write side but not yet accepted by the kernel.
    pub fn pending_out(&self) -> usize {
        self.outbuf.len()
    }

    /// Queues `payload` as one frame and flushes as much as the socket
    /// will take without blocking.
    pub fn send_frame(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        encode_frame_into(&mut self.outbuf, payload);
        self.flush().map(|_| ())
    }

    /// Encodes a [`Wire`] message and queues it as one frame; returns the
    /// encoded payload length (the number a [`WireTally`] records).
    pub fn send_msg<M: Wire>(&mut self, message: &M) -> Result<u64, TransportError> {
        let payload = message.encode();
        self.send_frame(&payload)?;
        Ok(payload.len() as u64)
    }

    /// Writes buffered bytes until the kernel would block; returns how
    /// many bytes were accepted.
    pub fn flush(&mut self) -> Result<u64, TransportError> {
        let mut written = 0u64;
        while !self.outbuf.is_empty() {
            let (head, _) = self.outbuf.as_slices();
            match self.stream.write(head) {
                Ok(0) => {
                    return Err(TransportError::Io {
                        context: "write",
                        kind: ErrorKind::WriteZero,
                    })
                }
                Ok(k) => {
                    self.outbuf.drain(..k);
                    written += k as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(TransportError::Io {
                        context: "write",
                        kind: e.kind(),
                    })
                }
            }
        }
        Ok(written)
    }

    /// Flushes until the write buffer is empty or `timeout` expires.
    pub fn flush_blocking(&mut self, timeout: Duration) -> Result<(), TransportError> {
        let deadline = Instant::now() + timeout;
        loop {
            self.flush()?;
            if self.outbuf.is_empty() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(TransportError::Io {
                    context: "flush",
                    kind: ErrorKind::TimedOut,
                });
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Non-blocking receive: reads whatever the socket has, returns the
    /// next complete frame payload if one has arrived.
    ///
    /// All frame-layer violations come back as typed errors: bad magic
    /// (trailing garbage), oversized length prefixes, and — on EOF — a
    /// torn frame.  A clean EOF just marks the connection closed.
    pub fn poll_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        let peer = self.peer;
        let framed = |error| TransportError::Frame { peer, error };
        if let Some(frame) = self.decoder.next_frame().map_err(framed)? {
            return Ok(Some(frame));
        }
        let mut scratch = [0u8; 16 * 1024];
        while !self.closed {
            match self.stream.read(&mut scratch) {
                Ok(0) => {
                    self.closed = true;
                    self.decoder.finish().map_err(framed)?;
                }
                Ok(k) => {
                    self.decoder.push(&scratch[..k]);
                    if let Some(frame) = self.decoder.next_frame().map_err(framed)? {
                        return Ok(Some(frame));
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if peer_gone(e.kind()) => {
                    // A reset loses bytes in flight: apply the same torn
                    // check a clean close gets.
                    self.closed = true;
                    self.decoder.finish().map_err(framed)?;
                }
                Err(e) => {
                    return Err(TransportError::Io {
                        context: "read",
                        kind: e.kind(),
                    })
                }
            }
        }
        Ok(None)
    }

    /// Blocking receive with a deadline: the next frame payload, a typed
    /// frame/I/O error, `UnexpectedEof` if the peer closed first, or
    /// `TimedOut` if nothing arrives in time.
    pub fn recv_frame(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        let deadline = Instant::now() + timeout;
        let mut idle_passes = 0u32;
        loop {
            if let Some(frame) = self.poll_frame()? {
                return Ok(frame);
            }
            if self.closed {
                return Err(TransportError::Io {
                    context: "read",
                    kind: ErrorKind::UnexpectedEof,
                });
            }
            if Instant::now() >= deadline {
                return Err(TransportError::Io {
                    context: "read",
                    kind: ErrorKind::TimedOut,
                });
            }
            idle_passes = idle_passes.saturating_add(1);
            if idle_passes > SPIN_PASSES_BEFORE_SLEEP {
                std::thread::sleep(Duration::from_millis(1));
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Blocking receive of one [`Wire`] message with a deadline.  Decode
    /// failures are typed [`TransportError::Codec`] errors — socket bytes
    /// are untrusted input, never a panic.
    pub fn recv_msg<M: Wire>(&mut self, timeout: Duration) -> Result<M, TransportError> {
        let payload = self.recv_frame(timeout)?;
        M::decode_exact(&payload).map_err(|error| TransportError::Codec {
            peer: self.peer,
            error,
        })
    }
}

// ---------------------------------------------------------------------------
// SocketTransport
// ---------------------------------------------------------------------------

/// The TCP loopback backend: nodes sharded across a worker pool, one real
/// socket per node pair, frames on the wire.
///
/// Workers poll their shard of actors in a loop; an actor whose messages
/// have not arrived yet simply yields until they do.  With actors that
/// follow the [`NodeActor`] schedule-independence discipline, the results
/// are bit-identical to [`crate::transport::SimTransport`] — only the
/// wall-clock differs.
#[derive(Clone, Copy, Debug)]
pub struct SocketTransport {
    threads: usize,
    stall_timeout: Duration,
    handshake_timeout: Duration,
}

impl SocketTransport {
    /// A pool with one worker per available core.
    pub fn new() -> Self {
        SocketTransport {
            threads: crate::pool::default_threads(),
            stall_timeout: STALL_TIMEOUT,
            handshake_timeout: HANDSHAKE_TIMEOUT,
        }
    }

    /// A pool with an explicit worker count (at least one is used).
    pub fn with_threads(threads: usize) -> Self {
        SocketTransport {
            threads: threads.max(1),
            ..SocketTransport::new()
        }
    }

    /// Overrides the stall timeout (how long the run tolerates global
    /// quiescence before failing).
    pub fn with_stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = timeout;
        self
    }

    /// Overrides the mesh handshake deadline.
    pub fn with_handshake_timeout(mut self, timeout: Duration) -> Self {
        self.handshake_timeout = timeout;
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Builds the full loopback mesh: node `i` dials node `j` for every
    /// `i < j` and introduces itself with a [`Hello`] frame, which the
    /// acceptor validates against the run topology.
    fn connect_mesh(&self, n: usize) -> Result<Vec<Vec<Option<FramedConn>>>, TransportError> {
        let io_err = |context: &'static str| {
            move |e: std::io::Error| TransportError::Io {
                context,
                kind: e.kind(),
            }
        };
        let mut links: Vec<Vec<Option<FramedConn>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        if n < 2 {
            return Ok(links);
        }
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind(("127.0.0.1", 0)))
            .collect::<std::io::Result<_>>()
            .map_err(io_err("bind"))?;
        let addrs: Vec<std::net::SocketAddr> = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<std::io::Result<_>>()
            .map_err(io_err("local_addr"))?;
        #[allow(clippy::needless_range_loop)] // i and j both index `links` symmetrically
        for i in 0..n {
            for j in (i + 1)..n {
                let client = TcpStream::connect(addrs[j]).map_err(io_err("connect"))?;
                let mut dialed = FramedConn::with_peer(client, j).map_err(io_err("configure"))?;
                dialed.send_msg(&Hello {
                    from: i as u32,
                    to: j as u32,
                    nodes: n as u32,
                })?;
                dialed.flush_blocking(self.handshake_timeout)?;
                let (server, _) = listeners[j].accept().map_err(io_err("accept"))?;
                let mut accepted = FramedConn::with_peer(server, i).map_err(io_err("configure"))?;
                let hello: Hello =
                    accepted
                        .recv_msg(self.handshake_timeout)
                        .map_err(|e| match e {
                            TransportError::Io {
                                kind: ErrorKind::TimedOut | ErrorKind::UnexpectedEof,
                                ..
                            } => TransportError::Handshake {
                                context: "peer never completed the hello handshake",
                            },
                            other => other,
                        })?;
                if hello.from != i as u32 || hello.to != j as u32 || hello.nodes != n as u32 {
                    return Err(TransportError::Handshake {
                        context: "hello does not match the run topology",
                    });
                }
                links[i][j] = Some(dialed);
                links[j][i] = Some(accepted);
            }
        }
        Ok(links)
    }
}

impl Default for SocketTransport {
    fn default() -> Self {
        SocketTransport::new()
    }
}

/// How long a run tolerates global quiescence before declaring a stall.
/// Generous: it only matters for protocol bugs, which the deterministic
/// [`crate::transport::SimTransport`] surfaces first in any well-tested
/// code path.
const STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// Per-node queue counters shared by a run's endpoints: how many messages
/// were sent to each node and how many its endpoint has drained out of
/// its sockets.  `sent == drained` for every node means no message is in
/// flight anywhere — the quiescence half of stall detection.  (Counting
/// per node rather than globally keeps the counters useful for
/// diagnostics and avoids a single hot cacheline under fan-in.)
struct QueueCounters {
    sent: Vec<AtomicU64>,
    drained: Vec<AtomicU64>,
    /// Set once a node's actor is [`ActorStatus::Done`].  A finished
    /// node's sockets may never be drained again (its worker may already
    /// have exited), so messages addressed to it are protocol garbage
    /// and must not count as traffic in flight — otherwise one late send
    /// to a finished node would disable stall detection and turn every
    /// genuine stall into an unbounded hang.
    finished: Vec<AtomicBool>,
}

impl QueueCounters {
    fn new(nodes: usize) -> Self {
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
    fn quiescent(&self) -> bool {
        self.sent
            .iter()
            .zip(&self.drained)
            .zip(&self.finished)
            .all(|((s, d), f)| {
                f.load(Ordering::Relaxed) || s.load(Ordering::Relaxed) == d.load(Ordering::Relaxed)
            })
    }
}

/// Lock-free per-pair wire counters shared by a run's endpoints;
/// folded into a plain [`WireTally`] once every worker has joined.
struct SharedTally {
    nodes: usize,
    bytes: Vec<AtomicU64>,
    messages: Vec<AtomicU64>,
}

impl SharedTally {
    fn new(nodes: usize) -> Self {
        SharedTally {
            nodes,
            bytes: (0..nodes * nodes).map(|_| AtomicU64::new(0)).collect(),
            messages: (0..nodes * nodes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, from: usize, to: usize, bytes: u64) {
        let idx = from * self.nodes + to;
        self.bytes[idx].fetch_add(bytes, Ordering::Relaxed);
        self.messages[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot after all workers joined (the join is the happens-before
    /// edge that makes the relaxed counters complete).
    fn collect(&self) -> WireTally {
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

/// Consecutive no-progress polling passes a worker tolerates before it
/// backs off from `yield_now` spinning to millisecond sleeps (so a peer
/// worker stuck in a long computation — or a stall running out the
/// timeout — does not burn a core).
const SPIN_PASSES_BEFORE_SLEEP: u32 = 256;

/// State shared by the workers of one run, used for *global* stall
/// detection.  A run is declared stalled only when the system is provably
/// quiescent: every worker is parked idle (or has finished its shard), no
/// message is in flight in any node's queue ([`QueueCounters`]), and no
/// progress event has happened anywhere for the stall timeout.  A single
/// busy worker — e.g. one actor deep in a long computation between
/// batched rounds — keeps the whole run alive, because workers unpark
/// *before* each polling pass, not after it.
struct WorkerShared {
    /// Progress events (sends, receives, completions) across all workers.
    progress: AtomicU64,
    /// Workers currently parked idle, plus workers that finished.
    idle_workers: AtomicUsize,
    /// Total workers in the run.
    workers: usize,
    /// Per-node sent/drained message counters for the quiescence check.
    counters: Arc<QueueCounters>,
    /// How long global quiescence is tolerated before failing the run.
    stall_timeout: Duration,
    /// Set when the run failed (stall or socket error); all workers
    /// bail out.
    failed: AtomicBool,
    /// The first non-stall failure any worker hit (a bare `failed` flag
    /// with an empty slot means a stall).
    failure: Mutex<Option<TransportError>>,
}

impl WorkerShared {
    fn new(counters: Arc<QueueCounters>, workers: usize, stall_timeout: Duration) -> Self {
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
    fn fail(&self, error: TransportError) {
        let mut slot = self.failure.lock().expect("failure slot poisoned");
        if slot.is_none() {
            *slot = Some(error);
        }
        drop(slot);
        self.failed.store(true, Ordering::Relaxed);
    }

    /// Takes the recorded failure, if any (after all workers joined).
    fn take_failure(&self) -> Option<TransportError> {
        self.failure.lock().expect("failure slot poisoned").take()
    }
}

/// A node's endpoint onto the socket mesh: per-peer framed connections
/// plus per-peer reorder buffers of already-decoded messages.
struct SocketEndpoint<M> {
    node: usize,
    links: Vec<Option<FramedConn>>,
    buffers: Vec<VecDeque<M>>,
    counters: Arc<QueueCounters>,
    wire: Arc<SharedTally>,
    activity: u64,
    /// First socket failure hit by this endpoint; the worker loop lifts
    /// it into the run's shared failure slot.
    error: Option<TransportError>,
}

impl<M: Wire> SocketEndpoint<M> {
    fn set_error(&mut self, error: TransportError) {
        if self.error.is_none() {
            self.error = Some(error);
        }
    }

    /// Reads everything `peer`'s socket has, decodes complete frames into
    /// the reorder buffer; returns how many messages arrived.
    fn pump(&mut self, peer: usize) -> u64 {
        if peer == self.node {
            return 0;
        }
        let Some(link) = self.links[peer].as_mut() else {
            return 0;
        };
        let mut moved = 0u64;
        loop {
            match link.poll_frame() {
                Ok(Some(payload)) => match M::decode_exact(&payload) {
                    Ok(message) => {
                        self.buffers[peer].push_back(message);
                        moved += 1;
                    }
                    Err(error) => {
                        self.set_error(TransportError::Codec { peer, error });
                        break;
                    }
                },
                Ok(None) => break,
                Err(error) => {
                    self.set_error(error);
                    break;
                }
            }
        }
        if moved > 0 {
            self.counters.drained[self.node].fetch_add(moved, Ordering::Relaxed);
        }
        moved
    }

    /// Pumps every peer connection; returns how many messages moved.
    fn sweep(&mut self) -> u64 {
        (0..self.buffers.len()).map(|peer| self.pump(peer)).sum()
    }

    /// Flushes every peer connection's write buffer; returns bytes the
    /// kernel accepted.  Peers that vanished (worker exited after its
    /// actor finished) are dropped silently.
    fn flush_all(&mut self) -> u64 {
        let mut written = 0u64;
        for peer in 0..self.links.len() {
            let Some(link) = self.links[peer].as_mut() else {
                continue;
            };
            match link.flush() {
                Ok(k) => written += k,
                Err(TransportError::Io { kind, .. }) if peer_gone(kind) => {
                    self.links[peer] = None;
                }
                Err(error) => self.set_error(error),
            }
        }
        written
    }

    /// Bytes still queued for peers whose actors have not finished (the
    /// only bytes worth waiting on during the end-of-shard flush).
    fn pending_to_unfinished(&self) -> usize {
        self.links
            .iter()
            .enumerate()
            .filter_map(|(peer, link)| link.as_ref().map(|l| (peer, l)))
            .filter(|(peer, _)| !self.counters.finished[*peer].load(Ordering::Relaxed))
            .map(|(_, link)| link.pending_out())
            .sum()
    }
}

impl<M: Wire> Endpoint<M> for SocketEndpoint<M> {
    fn nodes(&self) -> usize {
        self.buffers.len()
    }

    fn send(&mut self, to: usize, message: M) {
        self.activity += 1;
        if to == self.node {
            // Self-sends never touch a socket; deliver through the same
            // encode → decode boundary the in-process backend uses.
            let payload = message.encode();
            let decoded = M::decode_exact(&payload)
                .expect("wire round-trip failed: the message type's encoder and decoder disagree");
            self.wire.record(to, to, payload.len() as u64);
            self.counters.sent[to].fetch_add(1, Ordering::Relaxed);
            self.buffers[to].push_back(decoded);
            self.counters.drained[to].fetch_add(1, Ordering::Relaxed);
            return;
        }
        let payload = message.encode();
        self.wire.record(self.node, to, payload.len() as u64);
        self.counters.sent[to].fetch_add(1, Ordering::Relaxed);
        if let Some(link) = self.links[to].as_mut() {
            match link.send_frame(&payload) {
                Ok(()) => {}
                Err(TransportError::Io { kind, .. }) if peer_gone(kind) => {
                    self.links[to] = None;
                }
                Err(error) => self.set_error(error),
            }
        }
    }

    fn try_recv_from(&mut self, peer: usize) -> Option<M> {
        self.pump(peer);
        let message = self.buffers[peer].pop_front();
        if message.is_some() {
            self.activity += 1;
        }
        message
    }
}

/// The worker loop: a poll/park/stall cycle over one shard of actors,
/// with socket draining and flushing folded into the idle sweep, and
/// typed socket errors lifted into the run's shared failure slot.
fn run_socket_worker<M: Wire>(
    shard: &mut [&mut dyn NodeActor<M>],
    mut endpoints: Vec<SocketEndpoint<M>>,
    shared: &WorkerShared,
) -> usize {
    let mut done = vec![false; shard.len()];
    let mut remaining = shard.len();
    let mut parked_idle = false;
    let mut idle_passes = 0u32;
    let mut seen_progress = shared.progress.load(Ordering::Relaxed);
    let mut last_global_change = Instant::now();
    'run: while remaining > 0 {
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
            // Idle sweep: drain every socket (including finished actors',
            // so late messages to them do not fill kernel buffers and
            // stall senders) and push out any back-pressured writes.
            let drained: u64 = endpoints.iter_mut().map(SocketEndpoint::sweep).sum();
            let flushed: u64 = endpoints.iter_mut().map(SocketEndpoint::flush_all).sum();
            progress = drained > 0 || flushed > 0;
        }
        for endpoint in endpoints.iter_mut() {
            if let Some(error) = endpoint.error.take() {
                shared.fail(error);
                break 'run;
            }
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
    // Before dropping the shard's sockets, push out bytes that running
    // peers still need; bytes addressed to finished nodes are theirs to
    // ignore.  Bounded by the stall timeout so a wedged peer cannot pin
    // this worker forever.
    let deadline = Instant::now() + shared.stall_timeout;
    while !shared.failed.load(Ordering::Relaxed) && Instant::now() < deadline {
        let pending: usize = endpoints
            .iter()
            .map(SocketEndpoint::pending_to_unfinished)
            .sum();
        if pending == 0 {
            break;
        }
        let flushed: u64 = endpoints.iter_mut().map(SocketEndpoint::flush_all).sum();
        // Keep draining too: a peer blocked writing to us frees its own
        // write buffer only if we read.
        let drained: u64 = endpoints.iter_mut().map(SocketEndpoint::sweep).sum();
        for endpoint in endpoints.iter_mut() {
            if let Some(error) = endpoint.error.take() {
                shared.fail(error);
            }
        }
        if flushed == 0 && drained == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    shard.len() - remaining
}

impl<M: Wire + Send> Transport<M> for SocketTransport {
    fn name(&self) -> &'static str {
        "socket"
    }

    fn run(&self, actors: &mut [&mut dyn NodeActor<M>]) -> Result<WireTally, TransportError> {
        let n = actors.len();
        if n == 0 {
            return Ok(WireTally::new(0));
        }
        let links = self.connect_mesh(n)?;
        let counters = Arc::new(QueueCounters::new(n));
        let wire = Arc::new(SharedTally::new(n));
        let mut endpoints: Vec<SocketEndpoint<M>> = links
            .into_iter()
            .enumerate()
            .map(|(node, links)| SocketEndpoint {
                node,
                links,
                buffers: (0..n).map(|_| VecDeque::new()).collect(),
                counters: Arc::clone(&counters),
                wire: Arc::clone(&wire),
                activity: 0,
                error: None,
            })
            .collect();
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
                handles
                    .push(scope.spawn(move || run_socket_worker(shard, shard_endpoints, shared)));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("socket transport worker panicked"))
                .sum()
        });
        if shared.failed.load(Ordering::Relaxed) {
            return Err(shared.take_failure().unwrap_or(TransportError::Stalled {
                done: completed,
                actors: n,
            }));
        }
        Ok(wire.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::hex;

    #[test]
    fn hello_golden_fixture_and_rejection() {
        let hello = Hello {
            from: 1,
            to: 2,
            nodes: 5,
        };
        let bytes = hello.encode();
        assert_eq!(hex(&bytes), "48010000000200000005000000");
        assert_eq!(Hello::decode_exact(&bytes).unwrap(), hello);
        // Wrong tag byte.
        let mut bad = bytes.clone();
        bad[0] = 0x47;
        assert!(matches!(
            Hello::decode_exact(&bad),
            Err(WireError::BadTag { tag: 0x47, .. })
        ));
        // Truncations at every split point.
        for cut in 0..bytes.len() {
            assert!(Hello::decode_exact(&bytes[..cut]).is_err(), "cut = {cut}");
        }
        // Trailing byte.
        let mut long = bytes;
        long.push(0);
        assert!(matches!(
            Hello::decode_exact(&long),
            Err(WireError::Trailing { remaining: 1 })
        ));
    }

    #[test]
    fn default_transport_has_workers() {
        let transport = SocketTransport::default();
        assert!(transport.threads() >= 1);
        assert_eq!(
            <SocketTransport as Transport<u64>>::name(&transport),
            "socket"
        );
    }
}
