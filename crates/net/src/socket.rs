//! [`SocketTransport`]: the real-TCP [`Transport`] backend.
//!
//! Where [`crate::transport::SimTransport`] queues messages in memory,
//! this backend moves every message through an actual kernel socket: each
//! pair of nodes shares one loopback TCP connection, messages travel as
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
//! into the driver's frame scratch, which is framed onto the link's write
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
//! no tokio), and none is needed: streams are non-blocking and a run is
//! one loop on the calling thread, which owns every node of the session
//! and repeats the same pass until every actor finishes —
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
//! Concurrency comes from running several sessions at once, never from
//! inside one.  Because one thread owns every node, a pass that sends,
//! receives, finishes and moves nothing means the whole run is idle; once
//! that has lasted the stall timeout the run fails with a typed
//! [`TransportError::Stalled`] instead of hanging.  Socket-specific
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

/// The TCP loopback backend: one real socket per node pair, frames on the
/// wire, every node of a session driven on the calling thread.
///
/// The driver polls every node in a loop; an actor whose messages have
/// not arrived yet simply yields until they do.  With actors that
/// follow the [`NodeActor`] schedule-independence discipline, the results
/// are bit-identical to [`crate::transport::SimTransport`] — only the
/// wall-clock differs.
#[derive(Clone, Copy, Debug)]
pub struct SocketTransport {
    stall_timeout: Duration,
}

impl SocketTransport {
    /// A transport with the default stall timeout.
    pub fn new() -> Self {
        SocketTransport {
            stall_timeout: STALL_TIMEOUT,
        }
    }

    /// The same as [`SocketTransport::new`]; the argument is ignored.
    /// Only the benchmark still calls it, and it goes with the benchmark
    /// edits of ROADMAP item 16 (f).
    pub fn with_threads(_threads: usize) -> Self {
        SocketTransport::new()
    }

    /// Overrides the stall timeout (how long a run may go without any
    /// progress before failing).
    pub fn with_stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = timeout;
        self
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

impl<M: Wire> Transport<M> for SocketTransport {
    fn name(&self) -> &'static str {
        "socket"
    }

    fn open(&self, nodes: usize) -> Result<Box<dyn Session<M> + '_>, TransportError> {
        Ok(Box::new(self.connect(nodes)?))
    }
}

/// How long a run may go without sending, receiving, finishing or moving
/// a byte before it is declared stalled.  Generous: it only matters for
/// protocol bugs, which the deterministic
/// [`crate::transport::SimTransport`] surfaces first in any well-tested
/// code path.
const STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// Consecutive no-progress passes a loop tolerates before it backs off
/// from `yield_now` spinning to millisecond sleeps (so a peer still
/// computing — or a stall running out the timeout — does not burn a
/// core).
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
/// buffer lives on the driver's stack.
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

impl<M: Wire> Session<M> for SocketSession {
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
        let driver = Driver {
            links: &mut self.links,
            first_stream,
            done: vec![false; actors],
            inbox: (0..actors * n).map(|_| Lane::default()).collect(),
        };
        driver.drive(groups, self.stall_timeout)
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
    /// Frame payload buffer, reused from send to send.
    scratch: &'a mut Vec<u8>,
    /// Sends plus successful receives, the driver's progress signal.
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
/// depend on which side the pass reached first; the unsendable bytes are
/// dropped instead.
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

/// One run of a session, driven on the calling thread: every node's
/// links, which actors are done, and what has arrived for the others.
struct Driver<'a> {
    /// `links[k][peer]` is node `k`'s end of its connection with `peer`.
    links: &'a mut [Vec<Option<FramedConn>>],
    /// Stream id of group 0; group `g` is stream `first_stream + g`.
    first_stream: u64,
    /// `done[g * n + k]`: node `k`'s actor in group `g` finished.
    done: Vec<bool>,
    /// Lane `(g * n + k) * n + peer`: the checked encodings `peer` sent
    /// to node `k` on stream `g`, in arrival order.
    inbox: Vec<Lane>,
}

impl Driver<'_> {
    /// Poll, flush, drain — until every actor is done.  The first actor
    /// that fails or link that errs ends the run with its error; a run
    /// in which nothing is sent, received, finished or moved for
    /// `stall_timeout` ends [`TransportError::Stalled`].  One thread owns
    /// every node, so a pass without activity is the whole run idle.
    fn drive<M: Wire>(
        mut self,
        groups: &mut [&mut [&mut dyn NodeActor<M>]],
        stall_timeout: Duration,
    ) -> Result<Vec<WireTally>, TransportError> {
        let n = self.links.len();
        let mut tallies: Vec<WireTally> = groups.iter().map(|_| WireTally::new(n)).collect();
        let mut encode_scratch = Vec::new();
        let mut read_scratch = [0u8; READ_CHUNK];
        let mut remaining = self.done.len();
        let mut idle_passes = 0u32;
        let mut last_progress = Instant::now();
        while remaining > 0 {
            let mut activity = 0u64;
            for (g, actors) in groups.iter_mut().enumerate() {
                for (k, actor) in actors.iter_mut().enumerate() {
                    let slot = g * n + k;
                    if self.done[slot] {
                        continue;
                    }
                    let mut endpoint = StreamEndpoint {
                        node: k,
                        stream: self.first_stream + g as u64,
                        links: &mut self.links[k],
                        inbox: &mut self.inbox[slot * n..(slot + 1) * n],
                        tally: &mut tallies[g],
                        scratch: &mut encode_scratch,
                        activity: &mut activity,
                    };
                    match actor.poll(&mut endpoint) {
                        ActorStatus::Idle => {}
                        ActorStatus::Done => {
                            self.done[slot] = true;
                            remaining -= 1;
                            activity += 1;
                        }
                        ActorStatus::Failed => return Err(TransportError::Aborted { node: k }),
                    }
                    flush_links(&mut self.links[k], EARLY_FLUSH_BYTES)?;
                }
            }
            // One write and one read per link carry the whole pass, for
            // every group at once.
            let mut moved = 0;
            for row in self.links.iter_mut() {
                moved += flush_links(row, 1)?;
            }
            moved += self.drain_links::<M>(groups.len() as u64, &mut read_scratch)?;
            if activity > 0 || moved > 0 {
                last_progress = Instant::now();
                idle_passes = 0;
                continue;
            }
            if last_progress.elapsed() > stall_timeout {
                return Err(TransportError::Stalled {
                    done: self.done.len() - remaining,
                    actors: self.done.len(),
                });
            }
            idle_passes = idle_passes.saturating_add(1);
            if idle_passes > SPIN_PASSES_BEFORE_SLEEP {
                std::thread::sleep(Duration::from_millis(1));
            } else {
                std::thread::yield_now();
            }
        }
        // Bytes still queued go out with the next run's first flush, and
        // their reader drops them as retired.
        Ok(tallies)
    }

    /// Reads every link once and routes each complete frame of the run's
    /// `live` streams to its lane; returns the bytes read.
    fn drain_links<M: Wire>(
        &mut self,
        live: u64,
        scratch: &mut [u8],
    ) -> Result<u64, TransportError> {
        let n = self.links.len();
        let mut read = 0u64;
        for (k, row) in self.links.iter_mut().enumerate() {
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
                        let slot = g as usize * n + k;
                        if self.done[slot] {
                            continue; // its actor finished: retired on this node
                        }
                        M::check_exact(payload)
                            .map_err(|error| TransportError::Codec { peer, error })?;
                        self.inbox[slot * n + peer].push(payload);
                    }
                    if got < scratch.len() {
                        break;
                    }
                }
            }
        }
        Ok(read)
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
    fn default_transport_is_named_socket() {
        let transport = SocketTransport::default();
        assert_eq!(
            <SocketTransport as Transport<u64>>::name(&transport),
            "socket"
        );
    }
}
