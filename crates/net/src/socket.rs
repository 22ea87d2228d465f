//! [`SocketTransport`]: the concurrent [`Transport`] backend — real TCP.
//!
//! Where [`crate::transport::SimTransport`] queues messages in memory on
//! one thread, this backend shards the nodes across a worker pool and
//! moves every message through an actual kernel socket: each pair of
//! nodes shares one loopback TCP connection, messages travel as
//! length-prefixed frames ([`crate::frame`]) carrying the exact
//! [`Wire`]-encoded payload the in-process backend accounts, and the
//! returned [`WireTally`] records the *payload* bytes only — so measured
//! `wire_bytes` are byte-identical across both backends while the frame
//! header and the stream id are charged to transport overhead.
//!
//! ## Sessions and streams
//!
//! The mesh belongs to a [`SocketSession`] ([`SocketTransport::connect`],
//! or [`Transport::open`] behind the trait): listeners bound, `n(n−1)/2`
//! connections dialled and [`Hello`]-checked once, then kept for every
//! [`Session::run`] the caller makes.  A run drives several actor groups
//! at once; group `g` of a run is stream `first + g`, where `first` is
//! the number of groups the session has run before, and every mesh
//! frame's payload is
//!
//! ```text
//! uvarint(stream) ‖ Wire payload
//! ```
//!
//! so the groups share the connections.  A frame whose stream has
//! retired — its group finished on that node, or its run is over — is
//! late and dropped; a frame for a stream not opened yet is a typed
//! [`TransportError::UnknownStream`], an undecodable id a
//! [`TransportError::Codec`].
//!
//! ## Byte lanes
//!
//! A send writes `uvarint(stream)` and then the caller's encoding straight
//! into the worker's frame scratch, which is framed onto the link's write
//! queue — the message is never an object of its own.  On the read side
//! each frame is checked where it arrives: its stream id, then
//! [`Wire::check_exact`] on the payload (a typed
//! [`TransportError::Codec`] if it is not one message), and only then is
//! the payload copied, borrowed from the frame decoder's buffer, into the
//! `(stream, peer)` byte lane its actor reads from
//! ([`Endpoint::recv_bytes`]).  A payload is never decoded into a message
//! unless an actor asks for one ([`Endpoint::try_recv_from`]).
//!
//! ## One driver
//!
//! There is no async runtime in this workspace (the shims environment has
//! no tokio), and none is needed: streams are non-blocking and every
//! worker runs the same pass over its nodes until they finish —
//!
//! 1. poll every unfinished actor of every live group: a send only
//!    *queues* a frame on its link, a receive borrows the oldest entry of
//!    the `(stream, peer)` lane, neither is a syscall;
//! 2. flush each link once — one `write` carries what all groups queued;
//! 3. drain each link once — one `read`, then every complete frame is
//!    routed to its stream's buffer.
//!
//! So a pass costs two syscalls per link whatever the number of groups in
//! flight, which is what makes many small block MPCs on one session cheap.
//! The quiescence check (per-node sent/drained counters plus
//! parked-worker accounting) turns a genuine protocol stall into a typed
//! [`TransportError::Stalled`] instead of a hang.  Socket-specific
//! failures — torn frames, trailing garbage, oversized length prefixes,
//! undecodable payloads, a connection that closes under a live session,
//! I/O errors — surface as the typed [`TransportError`] variants rather
//! than panics, because bytes read from a socket are untrusted input even
//! on loopback; any of them ends the whole run, as does an actor that
//! rejects a well-framed message ([`ActorStatus::Failed`]) — at once, not
//! after the stall timeout.
//!
//! The module also exposes [`FramedConn`], the single-connection building
//! block (non-blocking stream + frame codec + write buffer), which the
//! deployment layer reuses for master↔worker control connections.

use crate::frame::{encode_frame_into, FrameDecoder};
use crate::transport::{
    check_group_sizes, ActorStatus, Endpoint, Lane, NodeActor, Session, Transport, TransportError,
};
use crate::wire::{
    get_u32_le, get_u8, get_uvarint, put_u32_le, put_u8, put_uvarint, Wire, WireError, WireTally,
};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
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

/// I/O error kinds that mean "the peer is gone".  On the read side they
/// close the connection after the torn-frame check; on a session's write
/// side they are left to the read side of the same connection to
/// diagnose (see [`flush_links`]).
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

    /// Queues `payload` as one frame without touching the socket; a later
    /// [`FramedConn::flush`] writes everything queued in one go.
    pub fn queue_frame(&mut self, payload: &[u8]) {
        encode_frame_into(&mut self.outbuf, payload);
    }

    /// Queues `payload` as one frame and flushes as much as the socket
    /// will take without blocking.
    pub fn send_frame(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.queue_frame(payload);
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

    /// One `read` into `scratch`, fed to the frame decoder; returns the
    /// bytes read — zero when the socket has nothing (`WouldBlock`) or
    /// has closed, which [`FramedConn::is_closed`] tells apart.  A close
    /// (clean, or a reset, which loses bytes in flight) in the middle of
    /// a frame is the typed torn-frame error.
    fn read_once(&mut self, scratch: &mut [u8]) -> Result<usize, TransportError> {
        let peer = self.peer;
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {}
                Ok(k) => {
                    self.decoder.push(&scratch[..k]);
                    return Ok(k);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(0),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if peer_gone(e.kind()) => {}
                Err(e) => {
                    return Err(TransportError::Io {
                        context: "read",
                        kind: e.kind(),
                    })
                }
            }
            self.closed = true;
            return self
                .decoder
                .finish()
                .map(|()| 0)
                .map_err(|error| TransportError::Frame { peer, error });
        }
    }

    /// The next complete frame already read off the socket, if any,
    /// borrowed from the frame decoder.  Frame-layer violations — bad
    /// magic (trailing garbage), an oversized length prefix — come back
    /// as typed errors.
    fn next_buffered_frame(&mut self) -> Result<Option<&[u8]>, TransportError> {
        let peer = self.peer;
        self.decoder
            .next_frame_slice()
            .map_err(|error| TransportError::Frame { peer, error })
    }

    /// Non-blocking receive: reads whatever the socket has, returns the
    /// next complete frame payload if one has arrived.
    ///
    /// All frame-layer violations come back as typed errors: bad magic
    /// (trailing garbage), oversized length prefixes, and — on EOF — a
    /// torn frame.  A clean EOF just marks the connection closed.
    pub fn poll_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = self.next_buffered_frame()? {
                return Ok(Some(frame.to_vec()));
            }
            if self.closed || self.read_once(&mut scratch)? == 0 {
                return Ok(None);
            }
        }
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
/// Workers poll their shard of nodes in a loop; an actor whose messages
/// have not arrived yet simply yields until they do.  With actors that
/// follow the [`NodeActor`] schedule-independence discipline, the results
/// are bit-identical to [`crate::transport::SimTransport`] — only the
/// wall-clock differs.
#[derive(Clone, Copy, Debug)]
pub struct SocketTransport {
    threads: usize,
    stall_timeout: Duration,
}

impl SocketTransport {
    /// A pool with one worker per available core.
    pub fn new() -> Self {
        SocketTransport {
            threads: crate::pool::default_threads(),
            stall_timeout: STALL_TIMEOUT,
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

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Builds the loopback mesh of `nodes` nodes and returns the session
    /// that owns it ([`Transport::open`] is this behind the trait).
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if a socket cannot be bound, dialled or
    /// configured, [`TransportError::Handshake`] if a hello never arrives
    /// or does not match the topology.
    pub fn connect(&self, nodes: usize) -> Result<SocketSession, TransportError> {
        Ok(SocketSession {
            links: self.connect_mesh(nodes)?,
            threads: self.threads,
            stall_timeout: self.stall_timeout,
            next_stream: 0,
        })
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
                dialed.flush_blocking(HANDSHAKE_TIMEOUT)?;
                let (server, _) = listeners[j].accept().map_err(io_err("accept"))?;
                let mut accepted = FramedConn::with_peer(server, i).map_err(io_err("configure"))?;
                let hello: Hello = accepted.recv_msg(HANDSHAKE_TIMEOUT).map_err(|e| match e {
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

impl<M: Wire + Send> Transport<M> for SocketTransport {
    fn name(&self) -> &'static str {
        "socket"
    }

    fn open(&self, nodes: usize) -> Result<Box<dyn Session<M> + '_>, TransportError> {
        Ok(Box::new(self.connect(nodes)?))
    }
}

/// How long a run tolerates global quiescence before declaring a stall.
/// Generous: it only matters for protocol bugs, which the deterministic
/// [`crate::transport::SimTransport`] surfaces first in any well-tested
/// code path.
const STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// Consecutive no-progress passes a worker tolerates before it backs off
/// from `yield_now` spinning to millisecond sleeps (so a peer worker
/// stuck in a long computation — or a stall running out the timeout —
/// does not burn a core).
const SPIN_PASSES_BEFORE_SLEEP: u32 = 256;

/// Queued bytes at which a link is flushed in the middle of a pass, right
/// after the poll that queued them, instead of at the pass's end.  A pass
/// in which every group in flight sends its largest message at once (the
/// 5 KB OT set-up of each block MPC) would otherwise grow every link's
/// write queue to the sum of them — measured on `deploy-loopback` with 8
/// groups in flight: an 82 KB queue per link end, 2 MB over the 24 link
/// ends of a two-worker fleet — and the queue never shrinks.  Ordinary
/// passes queue far less and keep their one write per link.
const EARLY_FLUSH_BYTES: usize = 8 * 1024;

/// Bytes one drain `read` asks a link for.  A pass's worth of small GMW
/// frames from every group in flight fits, so a pass reads each link
/// once; only a read that fills the buffer is followed by another.  The
/// buffer lives on the worker's stack.
const READ_CHUNK: usize = 16 * 1024;

// ---------------------------------------------------------------------------
// SocketSession
// ---------------------------------------------------------------------------

/// Appends the payload of one mesh frame to `out` — `uvarint(stream) ‖
/// Wire payload` — and returns where the `Wire` payload starts in it (the
/// bytes from there on are what a [`WireTally`] counts).
pub fn encode_stream_payload<M: Wire>(out: &mut Vec<u8>, stream: u64, message: &M) -> usize {
    put_stream_payload(out, stream, &mut |out| message.encode_into(out))
}

/// [`encode_stream_payload`] for an encoding `write` appends in place —
/// the one place the envelope is laid out.
fn put_stream_payload(
    out: &mut Vec<u8>,
    stream: u64,
    write: &mut dyn FnMut(&mut Vec<u8>),
) -> usize {
    put_uvarint(out, stream);
    let envelope = out.len();
    write(out);
    envelope
}

/// Splits the payload of one mesh frame into its stream id and the `Wire`
/// payload that follows it.
///
/// # Errors
///
/// [`WireError::Truncated`] or [`WireError::VarintOverflow`] when the
/// payload does not start with a well-formed stream id.
pub fn split_stream_payload(mut payload: &[u8]) -> Result<(u64, &[u8]), WireError> {
    let stream = get_uvarint(&mut payload)?;
    Ok((stream, payload))
}

/// An open loopback mesh: the per-pair connections of `n` nodes, kept for
/// every [`Session::run`] until the session is dropped.
#[derive(Debug)]
pub struct SocketSession {
    /// `links[i][j]` is node `i`'s end of its connection with node `j`.
    links: Vec<Vec<Option<FramedConn>>>,
    threads: usize,
    stall_timeout: Duration,
    /// The stream id of the next run's first group; every id below it
    /// has retired.
    next_stream: u64,
}

impl SocketSession {
    /// A second handle on the socket node `from` uses toward node `to`,
    /// so a fault-injection test can put arbitrary bytes on a connection
    /// the session is multiplexing streams over.  Bytes written through
    /// it bypass the session's write queue.
    ///
    /// # Errors
    ///
    /// `NotFound` when the pair has no connection (`from == to`, or an
    /// index outside the session), else whatever the clone reports.
    pub fn raw_link(&self, from: usize, to: usize) -> std::io::Result<TcpStream> {
        self.links
            .get(from)
            .and_then(|row| row.get(to)?.as_ref())
            .ok_or(ErrorKind::NotFound)?
            .stream
            .try_clone()
    }
}

impl<M: Wire + Send> Session<M> for SocketSession {
    fn nodes(&self) -> usize {
        self.links.len()
    }

    fn run(
        &mut self,
        groups: &mut [&mut [&mut dyn NodeActor<M>]],
    ) -> Result<Vec<WireTally>, TransportError> {
        let n = self.links.len();
        check_group_sizes(n, groups)?;
        let first_stream = self.next_stream;
        self.next_stream += groups.len() as u64;
        let actors = n * groups.len();
        if actors == 0 {
            return Ok(groups.iter().map(|_| WireTally::new(n)).collect());
        }
        // Nodes are sharded over the workers; a worker serves its nodes
        // in every group.
        let shard_size = n.div_ceil(self.threads.clamp(1, n));
        let mut shards: Vec<Shard<'_, '_, M>> = self
            .links
            .chunks_mut(shard_size)
            .enumerate()
            .map(|(worker, rows)| Shard {
                first_node: worker * shard_size,
                rows,
                actors: Vec::with_capacity(groups.len()),
                first_stream,
            })
            .collect();
        for group in groups.iter_mut() {
            let mut rest: &mut [&mut dyn NodeActor<M>] = group;
            for shard in &mut shards {
                let (mine, tail) = rest.split_at_mut(shard.rows.len());
                shard.actors.push(mine);
                rest = tail;
            }
        }
        let shared = RunShared::new(n, shards.len(), self.stall_timeout);
        let outcomes: Vec<(usize, Vec<WireTally>)> = if shards.len() == 1 {
            // One worker: the calling thread is it.
            shards.into_iter().map(|s| s.drive(&shared)).collect()
        } else {
            std::thread::scope(|scope| {
                let shared = &shared;
                let handles: Vec<_> = shards
                    .into_iter()
                    .map(|shard| scope.spawn(move || shard.drive(shared)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("socket transport worker panicked"))
                    .collect()
            })
        };
        if shared.failed.load(Ordering::Relaxed) {
            return Err(shared.take_failure().unwrap_or(TransportError::Stalled {
                done: outcomes.iter().map(|(done, _)| done).sum(),
                actors,
            }));
        }
        // A pair's sends are tallied by the sender's worker, so the
        // per-worker tallies of a group add up without overlap.
        let mut outcomes = outcomes.into_iter();
        let (_, mut tallies) = outcomes.next().expect("a run has at least one worker");
        for (_, partial) in outcomes {
            for (tally, part) in tallies.iter_mut().zip(&partial) {
                for (from, to, bytes, messages) in part.pairs() {
                    tally.add(from, to, bytes, messages);
                }
            }
        }
        Ok(tallies)
    }
}

/// Per-node queue counters shared by a run's workers: how many messages
/// were sent to each node and how many its worker has drained out of its
/// sockets.  `drained >= sent` for every node means no message is in
/// flight anywhere — the quiescence half of stall detection.  (Counting
/// per node rather than globally keeps the counters useful for
/// diagnostics and avoids a single hot cacheline under fan-in.)
struct QueueCounters {
    sent: Vec<AtomicU64>,
    drained: Vec<AtomicU64>,
    /// Set once a node's actor is [`ActorStatus::Done`] in every group.
    /// A finished node's sockets may not be drained again in this run
    /// (its worker may already have returned), so messages addressed to
    /// it are protocol garbage and must not count as traffic in flight —
    /// otherwise one late send to a finished node would disable stall
    /// detection and turn every genuine stall into an unbounded hang.
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
    /// resets the stall clock.  "At least as many drained as sent", not
    /// "equal": a frame that reached a live stream without a send of this
    /// run behind it (a duplicate, a forgery) must not leave the counters
    /// unequal forever and turn a genuine stall into a hang.
    fn quiescent(&self) -> bool {
        self.sent
            .iter()
            .zip(&self.drained)
            .zip(&self.finished)
            .all(|((s, d), f)| {
                f.load(Ordering::Relaxed) || d.load(Ordering::Relaxed) >= s.load(Ordering::Relaxed)
            })
    }
}

/// State shared by the workers of one run, used for *global* stall
/// detection.  A run is declared stalled only when the system is provably
/// quiescent: every worker is parked idle (or has finished its shard), no
/// message is in flight in any node's queue ([`QueueCounters`]), and no
/// progress event has happened anywhere for the stall timeout.  A single
/// busy worker — e.g. one actor deep in a long computation between
/// batched rounds — keeps the whole run alive, because workers unpark
/// *before* each pass, not after it.
struct RunShared {
    /// Progress events (sends, receives, completions) across all workers.
    progress: AtomicU64,
    /// Workers currently parked idle, plus workers that finished.
    idle_workers: AtomicUsize,
    /// Total workers in the run.
    workers: usize,
    /// Per-node sent/drained message counters for the quiescence check.
    counters: QueueCounters,
    /// How long global quiescence is tolerated before failing the run.
    stall_timeout: Duration,
    /// Set when the run failed (stall or socket error); all workers
    /// bail out.
    failed: AtomicBool,
    /// The first non-stall failure any worker hit (a bare `failed` flag
    /// with an empty slot means a stall).
    failure: Mutex<Option<TransportError>>,
}

impl RunShared {
    fn new(nodes: usize, workers: usize, stall_timeout: Duration) -> Self {
        RunShared {
            progress: AtomicU64::new(0),
            idle_workers: AtomicUsize::new(0),
            workers,
            counters: QueueCounters::new(nodes),
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

/// One actor's endpoint for one poll: its node's links to queue frames
/// on, its `(stream, peer)` lanes to receive from.
struct StreamEndpoint<'a> {
    node: usize,
    stream: u64,
    /// The node's end of its connection with every peer.
    links: &'a mut [Option<FramedConn>],
    /// This actor's byte lane per peer, in arrival order.
    inbox: &'a mut [Lane],
    tally: &'a mut WireTally,
    counters: &'a QueueCounters,
    /// Frame payload buffer, reused from send to send.
    scratch: &'a mut Vec<u8>,
    /// Sends plus successful receives, the worker's progress signal.
    activity: &'a mut u64,
}

impl<M: Wire> Endpoint<M> for StreamEndpoint<'_> {
    fn nodes(&self) -> usize {
        self.inbox.len()
    }

    fn send_bytes(&mut self, to: usize, write: &mut dyn FnMut(&mut Vec<u8>)) {
        *self.activity += 1;
        if to == self.node {
            // Self-sends never touch a socket: straight into the lane.
            let bytes = self.inbox[to].push_with(write);
            self.tally.record(self.node, to, bytes as u64);
            return;
        }
        self.scratch.clear();
        let envelope = put_stream_payload(self.scratch, self.stream, write);
        let bytes = self.scratch.len() - envelope;
        self.tally.record(self.node, to, bytes as u64);
        self.counters.sent[to].fetch_add(1, Ordering::Relaxed);
        if let Some(link) = self.links[to].as_mut() {
            link.queue_frame(self.scratch);
        }
    }

    fn recv_bytes(&mut self, peer: usize) -> Option<&[u8]> {
        let message = self.inbox[peer].pop();
        if message.is_some() {
            *self.activity += 1;
        }
        message
    }
}

/// Writes the queued frames of every link of one node that has at least
/// `at_least` bytes queued — one `write` per link unless the kernel takes
/// less — and returns the bytes accepted.
///
/// A write that finds the peer gone is not the run's error to report: the
/// read side of the same connection sees the close too, and knows whether
/// it tore a frame.  Reporting from both sides would make the run's error
/// a race; the unsendable bytes are dropped instead.
fn flush_links(row: &mut [Option<FramedConn>], at_least: usize) -> Result<u64, TransportError> {
    let mut written = 0u64;
    for link in row.iter_mut().flatten() {
        if link.pending_out() < at_least {
            continue;
        }
        match link.flush() {
            Ok(k) => written += k,
            Err(TransportError::Io { kind, .. }) if peer_gone(kind) => link.outbuf.clear(),
            Err(error) => return Err(error),
        }
    }
    Ok(written)
}

/// One worker's part of a run: a contiguous range of nodes — their link
/// rows, and their actors in every group.
struct Shard<'a, 'b, M: Wire> {
    first_node: usize,
    /// `rows[k]` holds node `first_node + k`'s connections.
    rows: &'a mut [Vec<Option<FramedConn>>],
    /// `actors[g][k]` is node `first_node + k`'s actor in group `g`.
    actors: Vec<&'a mut [&'b mut dyn NodeActor<M>]>,
    /// Stream id of group 0; group `g` is stream `first_stream + g`.
    first_stream: u64,
}

/// What a worker keeps per run besides its shard: which actors are done
/// and what has arrived for the others.
struct ShardState {
    /// `done[g * width + k]`: node `k`'s actor in group `g` finished.
    done: Vec<bool>,
    /// Lane `(g * width + k) * n + peer`: the checked encodings `peer`
    /// sent to node `k` on stream `g`, in arrival order.
    inbox: Vec<Lane>,
}

impl<M: Wire> Shard<'_, '_, M> {
    /// The worker loop: poll, flush, drain, park — until every actor of
    /// the shard is done or the run has failed.  Returns how many actors
    /// finished and the shard's senders' part of every group's tally.
    fn drive(mut self, shared: &RunShared) -> (usize, Vec<WireTally>) {
        let width = self.rows.len();
        let n = shared.counters.sent.len();
        let groups = self.actors.len();
        let mut state = ShardState {
            done: vec![false; groups * width],
            inbox: (0..groups * width * n).map(|_| Lane::default()).collect(),
        };
        // Groups in which each node still has an unfinished actor.
        let mut open_groups = vec![groups; width];
        let mut tallies: Vec<WireTally> = (0..groups).map(|_| WireTally::new(n)).collect();
        let mut encode_scratch = Vec::new();
        let mut read_scratch = [0u8; READ_CHUNK];
        let mut remaining = groups * width;
        let mut parked_idle = false;
        let mut idle_passes = 0u32;
        let mut seen_progress = shared.progress.load(Ordering::Relaxed);
        let mut last_global_change = Instant::now();
        while remaining > 0 && !shared.failed.load(Ordering::Relaxed) {
            // Unpark *before* polling: while this worker is inside a pass
            // (possibly a long batched-layer computation), the run must not
            // look globally idle to the other workers.
            if parked_idle {
                shared.idle_workers.fetch_sub(1, Ordering::Relaxed);
                parked_idle = false;
            }
            let mut activity = 0u64;
            for (g, actors) in self.actors.iter_mut().enumerate() {
                for (k, actor) in actors.iter_mut().enumerate() {
                    let slot = g * width + k;
                    if state.done[slot] {
                        continue;
                    }
                    let mut endpoint = StreamEndpoint {
                        node: self.first_node + k,
                        stream: self.first_stream + g as u64,
                        links: &mut self.rows[k],
                        inbox: &mut state.inbox[slot * n..(slot + 1) * n],
                        tally: &mut tallies[g],
                        counters: &shared.counters,
                        scratch: &mut encode_scratch,
                        activity: &mut activity,
                    };
                    let status = actor.poll(&mut endpoint);
                    if status == ActorStatus::Failed {
                        shared.fail(TransportError::Aborted {
                            node: self.first_node + k,
                        });
                    }
                    if let Err(error) = flush_links(&mut self.rows[k], EARLY_FLUSH_BYTES) {
                        shared.fail(error);
                    }
                    if status == ActorStatus::Done {
                        state.done[slot] = true;
                        remaining -= 1;
                        activity += 1;
                        open_groups[k] -= 1;
                        if open_groups[k] == 0 {
                            // Nobody may drain this node again in this run
                            // (once the whole shard finishes, the worker
                            // returns), so exclude it from the quiescence
                            // check instead of letting late messages to it
                            // block stall detection forever.
                            shared.counters.finished[self.first_node + k]
                                .store(true, Ordering::Relaxed);
                        }
                    }
                }
            }
            // One write and one read per link carry the whole pass, for
            // every group at once.
            let moved = match self.move_bytes(&mut state, shared, &mut read_scratch) {
                Ok(moved) => moved,
                Err(error) => {
                    shared.fail(error);
                    break;
                }
            };
            if activity > 0 || moved > 0 {
                shared.progress.fetch_add(1, Ordering::Relaxed);
                idle_passes = 0;
                continue;
            }
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
        // A finished worker counts as idle so that peers blocked on a true
        // deadlock can still see "everyone idle" and time out.
        if !parked_idle {
            shared.idle_workers.fetch_add(1, Ordering::Relaxed);
        }
        // Before returning, push out bytes that running peers still need.
        // Bytes addressed to finished nodes may stay queued: the next
        // run's first flush sends them and their reader drops them as
        // retired.  Bounded by the stall timeout so a wedged peer cannot
        // pin this worker forever.
        let deadline = Instant::now() + shared.stall_timeout;
        while !shared.failed.load(Ordering::Relaxed)
            && self.pending_to_unfinished(&shared.counters) > 0
            && Instant::now() < deadline
        {
            // Keep draining too: a peer blocked writing to us frees its own
            // write buffer only if we read.
            match self.move_bytes(&mut state, shared, &mut read_scratch) {
                Ok(0) => std::thread::sleep(Duration::from_millis(1)),
                Ok(_) => {}
                Err(error) => shared.fail(error),
            }
        }
        (groups * width - remaining, tallies)
    }

    /// The I/O half of a pass: flush every link, then drain every link.
    /// Returns the bytes moved either way.
    fn move_bytes(
        &mut self,
        state: &mut ShardState,
        shared: &RunShared,
        scratch: &mut [u8],
    ) -> Result<u64, TransportError> {
        let mut flushed = 0;
        for row in self.rows.iter_mut() {
            flushed += flush_links(row, 1)?;
        }
        Ok(flushed + self.drain_links(state, shared, scratch)?)
    }

    /// Reads every link once and routes each complete frame to its
    /// stream's buffer; returns the bytes read.
    fn drain_links(
        &mut self,
        state: &mut ShardState,
        shared: &RunShared,
        scratch: &mut [u8],
    ) -> Result<u64, TransportError> {
        let width = self.rows.len();
        let n = shared.counters.sent.len();
        let live = self.actors.len() as u64;
        let mut read = 0u64;
        for (k, row) in self.rows.iter_mut().enumerate() {
            let mut drained = 0u64;
            for (peer, link) in row.iter_mut().enumerate() {
                let Some(link) = link else { continue };
                // Frames are routed after every read, so the decoder never
                // buffers more than one read and the frame it cuts.
                loop {
                    let got = link.read_once(scratch)?;
                    read += got as u64;
                    // The session owns both ends of every link, so nothing
                    // closes one while the session lives except a fault.
                    if link.is_closed() {
                        return Err(TransportError::Io {
                            context: "read",
                            kind: ErrorKind::UnexpectedEof,
                        });
                    }
                    while let Some(frame) = link.next_buffered_frame()? {
                        let (stream, payload) = split_stream_payload(frame)
                            .map_err(|error| TransportError::Codec { peer, error })?;
                        let Some(g) = stream.checked_sub(self.first_stream) else {
                            continue; // a late frame of an earlier run: retired
                        };
                        if g >= live {
                            return Err(TransportError::UnknownStream { peer, stream });
                        }
                        drained += 1;
                        let slot = g as usize * width + k;
                        if state.done[slot] {
                            continue; // its actor finished: retired on this node
                        }
                        M::check_exact(payload)
                            .map_err(|error| TransportError::Codec { peer, error })?;
                        state.inbox[slot * n + peer].push(payload);
                    }
                    if got < scratch.len() {
                        break;
                    }
                }
            }
            if drained > 0 {
                shared.counters.drained[self.first_node + k].fetch_add(drained, Ordering::Relaxed);
            }
        }
        Ok(read)
    }

    /// Bytes still queued for peers that have an unfinished actor (the
    /// only bytes worth waiting on once this shard's actors are done).
    fn pending_to_unfinished(&self, counters: &QueueCounters) -> usize {
        self.rows
            .iter()
            .flat_map(|row| row.iter().enumerate())
            .filter(|(peer, _)| !counters.finished[*peer].load(Ordering::Relaxed))
            .filter_map(|(_, link)| link.as_ref())
            .map(FramedConn::pending_out)
            .sum()
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
