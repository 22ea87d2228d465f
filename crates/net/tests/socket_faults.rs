//! Fault injection for the socket/frame layer, plus the net-level
//! Sim-vs-Socket agreement check.
//!
//! Every hostile input — torn frames, trailing garbage, oversized length
//! prefixes, mid-message disconnects, a peer that never completes
//! registration — must surface as a *typed* [`TransportError`] within the
//! configured timeout: never a hang, never a panic.  The driver's
//! timeout-based stall detection is exercised on real sockets as well:
//! genuine stalls time out, long computations and late or unconsumed
//! messages do not confuse it.
//!
//! The same faults are then injected *mid-stream on a shared connection*:
//! a session multiplexing several live groups over one mesh must end the
//! whole run with the matching typed error — no group's result survives —
//! while a late frame for a retired stream is dropped and costs nothing.

use dstress_net::frame::encode_frame;
use dstress_net::socket::{
    encode_stream_payload, FramedConn, Hello, SocketSession, SocketTransport,
};
use dstress_net::transport::{
    ActorStatus, Endpoint, NodeActor, Session, SimTransport, Transport, TransportError,
};
use dstress_net::{FrameError, WireError, WireTally, FRAME_MAGIC};
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// A deadline generous enough for CI yet far below the default stall
/// timeout: every fault in this file must be *diagnosed*, not waited out.
const FAULT_DEADLINE: Duration = Duration::from_secs(5);

/// Builds a connected loopback pair: (raw writer for injecting bytes,
/// framed reader under test).
fn loopback_pair() -> (TcpStream, FramedConn) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let writer = TcpStream::connect(addr).unwrap();
    let (accepted, _) = listener.accept().unwrap();
    let reader = FramedConn::with_peer(accepted, 7).unwrap();
    (writer, reader)
}

/// Runs `f` and asserts it produced its result within the fault deadline.
fn within_deadline<T>(f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let result = f();
    assert!(
        start.elapsed() < FAULT_DEADLINE,
        "fault took {:?} to surface; must be diagnosed, not timed out",
        start.elapsed()
    );
    result
}

#[test]
fn torn_frame_surfaces_as_typed_error() {
    let (mut writer, mut reader) = loopback_pair();
    // Header claims 100 payload bytes; only 10 arrive before the close.
    let mut bytes = vec![FRAME_MAGIC];
    bytes.extend_from_slice(&100u32.to_le_bytes());
    bytes.extend_from_slice(&[0xAB; 10]);
    writer.write_all(&bytes).unwrap();
    drop(writer);
    let err = within_deadline(|| reader.recv_frame(FAULT_DEADLINE).unwrap_err());
    assert_eq!(
        err,
        TransportError::Frame {
            peer: 7,
            error: FrameError::Torn { buffered: 15 }
        }
    );
}

#[test]
fn mid_message_disconnect_surfaces_as_typed_error() {
    let (mut writer, mut reader) = loopback_pair();
    // One complete frame, then a second torn off mid-payload by an
    // explicit write-side shutdown while the connection stays open.
    let mut conn = FramedConn::new(writer.try_clone().unwrap()).unwrap();
    conn.send_msg(&0x1122_3344_5566_7788u64).unwrap();
    let mut torn = vec![FRAME_MAGIC];
    torn.extend_from_slice(&64u32.to_le_bytes());
    torn.extend_from_slice(&[0xCD; 5]);
    writer.write_all(&torn).unwrap();
    writer.shutdown(Shutdown::Write).unwrap();
    // The complete frame still decodes; the torn tail is a typed error.
    let first: u64 = reader.recv_msg(FAULT_DEADLINE).unwrap();
    assert_eq!(first, 0x1122_3344_5566_7788);
    let err = within_deadline(|| reader.recv_frame(FAULT_DEADLINE).unwrap_err());
    assert_eq!(
        err,
        TransportError::Frame {
            peer: 7,
            error: FrameError::Torn { buffered: 10 }
        }
    );
}

#[test]
fn trailing_garbage_surfaces_as_bad_magic() {
    let (mut writer, mut reader) = loopback_pair();
    let mut conn = FramedConn::new(writer.try_clone().unwrap()).unwrap();
    conn.send_msg(&42u64).unwrap();
    writer.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let first: u64 = reader.recv_msg(FAULT_DEADLINE).unwrap();
    assert_eq!(first, 42);
    let err = within_deadline(|| reader.recv_frame(FAULT_DEADLINE).unwrap_err());
    assert_eq!(
        err,
        TransportError::Frame {
            peer: 7,
            error: FrameError::BadMagic { found: b'G' }
        }
    );
}

#[test]
fn oversized_length_prefix_surfaces_before_any_allocation() {
    let (mut writer, mut reader) = loopback_pair();
    let mut bytes = vec![FRAME_MAGIC];
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    writer.write_all(&bytes).unwrap();
    let err = within_deadline(|| reader.recv_frame(FAULT_DEADLINE).unwrap_err());
    assert!(
        matches!(
            err,
            TransportError::Frame {
                peer: 7,
                error: FrameError::Oversized {
                    length: u32::MAX,
                    ..
                }
            }
        ),
        "unexpected error: {err:?}"
    );
}

#[test]
fn undecodable_payload_surfaces_as_codec_error_not_panic() {
    let (writer, mut reader) = loopback_pair();
    let mut conn = FramedConn::new(writer).unwrap();
    // A 3-byte frame payload can never decode as a u64.
    conn.send_frame(&[1, 2, 3]).unwrap();
    let err = within_deadline(|| reader.recv_msg::<u64>(FAULT_DEADLINE).unwrap_err());
    assert!(
        matches!(err, TransportError::Codec { peer: 7, .. }),
        "unexpected error: {err:?}"
    );
}

#[test]
fn silent_peer_times_out_with_typed_error() {
    // A peer that connects and then never completes registration: the
    // read deadline fires with a typed timeout, not a hang.
    let (_writer, mut reader) = loopback_pair();
    let err = within_deadline(|| {
        reader
            .recv_msg::<Hello>(Duration::from_millis(100))
            .unwrap_err()
    });
    assert_eq!(
        err,
        TransportError::Io {
            context: "read",
            kind: std::io::ErrorKind::TimedOut,
        }
    );
}

#[test]
fn clean_disconnect_before_registration_is_unexpected_eof() {
    let (writer, mut reader) = loopback_pair();
    drop(writer);
    let err = within_deadline(|| reader.recv_msg::<Hello>(FAULT_DEADLINE).unwrap_err());
    assert_eq!(
        err,
        TransportError::Io {
            context: "read",
            kind: std::io::ErrorKind::UnexpectedEof,
        }
    );
}

// ---------------------------------------------------------------------------
// Backend agreement and socket stall detection
// ---------------------------------------------------------------------------

/// Every node sends its index to every other node, then sums what it
/// receives from each peer in index order (the transport.rs reference
/// actor, re-stated here for the cross-backend contract).
struct Summer {
    node: usize,
    nodes: usize,
    sent: bool,
    next_peer: usize,
    sum: u64,
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

fn run_summers(transport: &dyn Transport<u64>, n: usize) -> (Vec<u64>, dstress_net::WireTally) {
    let mut actors: Vec<Summer> = (0..n)
        .map(|node| Summer {
            node,
            nodes: n,
            sent: false,
            next_peer: 0,
            sum: 0,
        })
        .collect();
    let tally = {
        let mut refs: Vec<&mut dyn NodeActor<u64>> = actors
            .iter_mut()
            .map(|a| a as &mut dyn NodeActor<u64>)
            .collect();
        transport.run(&mut refs).unwrap()
    };
    (actors.iter().map(|a| a.sum).collect(), tally)
}

#[test]
fn socket_backend_matches_sim_including_measured_bytes() {
    for n in [2, 3, 5, 6] {
        let (sim_sums, sim_tally) = run_summers(&SimTransport, n);
        let (sock_sums, sock_tally) = run_summers(&SocketTransport::new(), n);
        assert_eq!(sock_sums, sim_sums, "n = {n}");
        // The tally records Wire payload bytes only — frame headers are
        // transport overhead — so both backends measure the same
        // wire_bytes, message for message.
        assert_eq!(sock_tally, sim_tally, "n = {n}");
    }
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
fn socket_backend_detects_genuine_stall_within_timeout() {
    let mut a = Starved;
    let mut b = Starved;
    let mut refs: Vec<&mut dyn NodeActor<u64>> = vec![&mut a, &mut b];
    let transport = SocketTransport::new().with_stall_timeout(Duration::from_millis(100));
    let err = within_deadline(|| transport.run(&mut refs).unwrap_err());
    assert_eq!(err, TransportError::Stalled { done: 0, actors: 2 });
}

#[test]
fn messages_to_finished_socket_actors_do_not_hang_stall_detection() {
    /// Finishes immediately; its sockets may be gone by the time the
    /// starver's late message arrives.
    struct InstantDone;
    impl NodeActor<u64> for InstantDone {
        fn poll(&mut self, _ep: &mut dyn Endpoint<u64>) -> ActorStatus {
            ActorStatus::Done
        }
    }
    struct SendThenStarve {
        sent: bool,
    }
    impl NodeActor<u64> for SendThenStarve {
        fn poll(&mut self, ep: &mut dyn Endpoint<u64>) -> ActorStatus {
            if !self.sent {
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
    let transport = SocketTransport::new().with_stall_timeout(Duration::from_millis(100));
    let err = within_deadline(|| transport.run(&mut refs).unwrap_err());
    assert_eq!(err, TransportError::Stalled { done: 1, actors: 2 });
}

/// Node 2 kicks node 0; node 0 then "computes" for longer than the stall
/// timeout before emitting a large batched payload to node 1; node 1
/// consumes the batch.
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
                // A long computation between rounds, three times the
                // stall timeout: the run must not be declared stalled
                // while this actor is busy, though every other is idle.
                std::thread::sleep(Duration::from_millis(300));
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

/// Regression test for spurious stalls: a poll that computes for longer
/// than the stall timeout is not idleness — the clock restarts when its
/// pass sends — and the 2 MiB batch it then emits must cross the sockets
/// intact.
#[test]
fn large_batched_payloads_do_not_trip_stall_detection() {
    let (batch, payload) = (64usize, 4096usize);
    let transport = SocketTransport::new().with_stall_timeout(Duration::from_millis(100));
    let mut session = transport.connect(3).unwrap();
    // Twice on one session: the mesh outlives a run and its buffers carry
    // nothing over.
    for run in 0..2 {
        let mut producer = Batcher::SlowProducer { batch, payload };
        let mut consumer = Batcher::Consumer {
            received: 0,
            expected: batch,
            sum: 0,
        };
        let mut kicker = Batcher::Kicker;
        let mut refs: Vec<&mut dyn NodeActor<Vec<u64>>> =
            vec![&mut producer, &mut consumer, &mut kicker];
        within_deadline(|| session.run(&mut [&mut refs[..]]).unwrap());
        let Batcher::Consumer { received, sum, .. } = consumer else {
            unreachable!();
        };
        assert_eq!(received, batch, "run {run}");
        // sum of i * payload for i in 0..batch
        let expected: u64 = (0..batch as u64).map(|i| i * payload as u64).sum();
        assert_eq!(sum, expected, "run {run}");
    }
}

/// A message that its recipient will never consume must not be read as
/// "in flight" forever — the idle sweep drains it out of the socket into
/// the reorder buffers so a genuinely stalled run still times out.
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
    let transport = SocketTransport::new().with_stall_timeout(Duration::from_millis(100));
    let mut session = transport.connect(2).unwrap();
    let err = within_deadline(|| session.run(&mut [&mut refs[..]]).unwrap_err());
    assert_eq!(err, TransportError::Stalled { done: 1, actors: 2 });
}

// ---------------------------------------------------------------------------
// Faults on a shared connection: several streams live on one session
// ---------------------------------------------------------------------------

/// What a [`Chatter`] does when it reaches its trigger round.
enum Fault {
    /// Nothing: an ordinary member of its group.
    None,
    /// Writes these raw bytes onto the connection it shares with every
    /// other group, behind the session's back, and carries on.
    Inject(TcpStream, Vec<u8>),
    /// Writes the bytes, then shuts the connection's write side down.
    InjectAndClose(TcpStream, Vec<u8>),
    /// Goes silent: never sends or finishes again.
    Silence,
}

/// A multi-round all-to-all exchange: in every round each node sends
/// `round * 100 + node` to every peer, then sums what the peers sent.
/// One actor of one group may carry a [`Fault`] that fires when it enters
/// round `trigger` — mid-stream, with earlier rounds already exchanged
/// and later ones still to come on every group.
struct Chatter {
    node: usize,
    nodes: usize,
    rounds: u64,
    round: u64,
    sent: bool,
    next_peer: usize,
    sum: u64,
    trigger: u64,
    fault: Fault,
}

impl Chatter {
    fn new(node: usize, nodes: usize, rounds: u64) -> Self {
        Chatter {
            node,
            nodes,
            rounds,
            round: 0,
            sent: false,
            next_peer: 0,
            sum: 0,
            trigger: 0,
            fault: Fault::None,
        }
    }
}

impl NodeActor<u64> for Chatter {
    fn poll(&mut self, ep: &mut dyn Endpoint<u64>) -> ActorStatus {
        while self.round < self.rounds {
            if !self.sent {
                if self.round == self.trigger {
                    match std::mem::replace(&mut self.fault, Fault::None) {
                        Fault::None => {}
                        Fault::Inject(mut raw, bytes) => raw.write_all(&bytes).unwrap(),
                        Fault::InjectAndClose(mut raw, bytes) => {
                            raw.write_all(&bytes).unwrap();
                            raw.shutdown(Shutdown::Write).unwrap();
                        }
                        Fault::Silence => {
                            self.fault = Fault::Silence;
                            return ActorStatus::Idle;
                        }
                    }
                }
                for peer in (0..self.nodes).filter(|&p| p != self.node) {
                    ep.send(peer, self.round * 100 + self.node as u64);
                }
                self.sent = true;
            }
            while self.next_peer < self.nodes {
                if self.next_peer != self.node {
                    match ep.try_recv_from(self.next_peer) {
                        Some(v) => self.sum += v,
                        None => return ActorStatus::Idle,
                    }
                }
                self.next_peer += 1;
            }
            self.round += 1;
            self.sent = false;
            self.next_peer = 0;
        }
        ActorStatus::Done
    }
}

const CHAT_NODES: usize = 3;
const CHAT_ROUNDS: u64 = 6;

fn chat_groups(groups: usize) -> Vec<Vec<Chatter>> {
    (0..groups)
        .map(|_| {
            (0..CHAT_NODES)
                .map(|node| Chatter::new(node, CHAT_NODES, CHAT_ROUNDS))
                .collect()
        })
        .collect()
}

/// Runs the groups as one run of `session`; returns the run's result and
/// every actor's sum.
fn run_chat(
    session: &mut dyn Session<u64>,
    groups: &mut [Vec<Chatter>],
) -> (Result<Vec<WireTally>, TransportError>, Vec<Vec<u64>>) {
    let result = {
        let mut refs: Vec<Vec<&mut dyn NodeActor<u64>>> = groups
            .iter_mut()
            .map(|g| g.iter_mut().map(|a| a as &mut dyn NodeActor<u64>).collect())
            .collect();
        let mut slices: Vec<&mut [&mut dyn NodeActor<u64>]> =
            refs.iter_mut().map(Vec::as_mut_slice).collect();
        session.run(&mut slices)
    };
    let sums = groups
        .iter()
        .map(|g| g.iter().map(|a| a.sum).collect())
        .collect();
    (result, sums)
}

/// One mesh frame carrying `value` on `stream`, as the session writes it.
fn stream_frame(stream: u64, value: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_stream_payload(&mut payload, stream, &value);
    encode_frame(&payload)
}

fn fault_session() -> SocketSession {
    SocketTransport::new()
        .with_stall_timeout(Duration::from_millis(200))
        .connect(CHAT_NODES)
        .unwrap()
}

/// Four groups share the session; node 0 of group 2 fires `fault` on its
/// link to node 1 as it enters round 3.  Returns how the run ended.
fn run_with_fault(fault: impl FnOnce(TcpStream) -> Fault) -> TransportError {
    let mut session = fault_session();
    let mut groups = chat_groups(4);
    groups[2][0].trigger = 3;
    groups[2][0].fault = fault(session.raw_link(0, 1).unwrap());
    let (result, _) = within_deadline(|| run_chat(&mut session, &mut groups));
    // An error is the whole run's: no group's tally comes back.
    result.unwrap_err()
}

#[test]
fn shared_connection_faults_end_the_run_with_their_typed_error() {
    // A frame header promising 100 bytes, 10 of them, then the close.
    let mut torn = vec![FRAME_MAGIC];
    torn.extend_from_slice(&100u32.to_le_bytes());
    torn.extend_from_slice(&[0xAB; 10]);
    // One whole, valid frame of a live stream, then a second one torn off
    // mid-payload by the disconnect.
    let mut mid_message = stream_frame(1, 7);
    mid_message.push(FRAME_MAGIC);
    mid_message.extend_from_slice(&64u32.to_le_bytes());
    mid_message.extend_from_slice(&[0xCD; 5]);
    let mut oversized = vec![FRAME_MAGIC];
    oversized.extend_from_slice(&u32::MAX.to_le_bytes());

    let err = run_with_fault(|raw| Fault::InjectAndClose(raw, torn.clone()));
    assert_eq!(
        err,
        TransportError::Frame {
            peer: 0,
            error: FrameError::Torn { buffered: 15 }
        },
        "torn frame"
    );

    let err = run_with_fault(|raw| Fault::InjectAndClose(raw, mid_message.clone()));
    assert_eq!(
        err,
        TransportError::Frame {
            peer: 0,
            error: FrameError::Torn { buffered: 10 }
        },
        "mid-message disconnect"
    );

    let err = run_with_fault(|raw| Fault::Inject(raw, b"GET /healthz HTTP/1.0\r\n\r\n".to_vec()));
    assert_eq!(
        err,
        TransportError::Frame {
            peer: 0,
            error: FrameError::BadMagic { found: b'G' }
        },
        "trailing garbage"
    );

    let err = run_with_fault(|raw| Fault::Inject(raw, oversized.clone()));
    assert!(
        matches!(
            err,
            TransportError::Frame {
                peer: 0,
                error: FrameError::Oversized {
                    length: u32::MAX,
                    ..
                }
            }
        ),
        "oversized prefix: {err:?}"
    );

    // A frame whose payload ends inside the stream id.
    let err = run_with_fault(|raw| Fault::Inject(raw, encode_frame(&[0x80])));
    assert_eq!(
        err,
        TransportError::Codec {
            peer: 0,
            error: WireError::Truncated {
                needed: 1,
                available: 0
            }
        },
        "truncated stream id"
    );

    // A stream id that runs past 64 bits.
    let err = run_with_fault(|raw| Fault::Inject(raw, encode_frame(&[0xFF; 11])));
    assert_eq!(
        err,
        TransportError::Codec {
            peer: 0,
            error: WireError::VarintOverflow
        },
        "overflowing stream id"
    );

    // A well-formed frame of a live stream whose payload is not a u64.
    let mut short = vec![0x01];
    short.extend_from_slice(&[1, 2, 3]);
    let err = run_with_fault(|raw| Fault::Inject(raw, encode_frame(&short)));
    assert!(
        matches!(err, TransportError::Codec { peer: 0, .. }),
        "undecodable payload: {err:?}"
    );

    // The session has opened streams 0..4 and nothing else.
    let err = run_with_fault(|raw| Fault::Inject(raw, stream_frame(4, 7)));
    assert_eq!(
        err,
        TransportError::UnknownStream { peer: 0, stream: 4 },
        "stream never opened"
    );

    // A peer that goes silent starves its own group; the other three
    // finish, and the stall is diagnosed inside the timeout.
    let err = run_with_fault(|_raw| Fault::Silence);
    assert_eq!(
        err,
        TransportError::Stalled {
            done: 3 * CHAT_NODES,
            actors: 4 * CHAT_NODES
        },
        "silent peer"
    );
}

#[test]
fn late_frames_for_retired_streams_are_dropped() {
    // The reference: the same groups on the in-process backend.
    let mut reference = chat_groups(3);
    let (expected_tallies, expected_sums) = {
        let mut session = Transport::<u64>::open(&SimTransport, CHAT_NODES).unwrap();
        let (result, sums) = run_chat(&mut *session, &mut reference);
        (result.unwrap(), sums)
    };

    let mut session = fault_session();
    let mut raw = session.raw_link(0, 1).unwrap();

    // Run 1 opens and retires streams 0..3.
    let mut first = chat_groups(3);
    let (result, sums) = within_deadline(|| run_chat(&mut session, &mut first));
    assert_eq!(result.unwrap(), expected_tallies);
    assert_eq!(sums, expected_sums);

    // A straggler of stream 1 arrives between the runs, and another
    // in the middle of run 2 — which is streams 3..6.
    raw.write_all(&stream_frame(1, 999)).unwrap();
    let mut second = chat_groups(3);
    second[1][0].trigger = 2;
    second[1][0].fault = Fault::Inject(raw.try_clone().unwrap(), stream_frame(2, 999));
    let (result, sums) = within_deadline(|| run_chat(&mut session, &mut second));
    assert_eq!(result.unwrap(), expected_tallies);
    assert_eq!(sums, expected_sums);

    // The same bytes on a stream of run 2 would have been delivered:
    // a frame for stream 6, which the *next* run would open, is not
    // late but unknown.
    let mut third = chat_groups(3);
    third[0][0].trigger = 1;
    third[0][0].fault = Fault::Inject(raw.try_clone().unwrap(), stream_frame(9, 999));
    let (result, _) = within_deadline(|| run_chat(&mut session, &mut third));
    assert_eq!(
        result.unwrap_err(),
        TransportError::UnknownStream { peer: 0, stream: 9 }
    );
}

#[test]
fn golden_stream_frame_is_delivered_to_its_stream() {
    // The envelope as bytes: frame header, uvarint stream id 2, then the
    // u64 payload — written by hand, read by the session.
    let golden: Vec<u8> = vec![
        0xD5, 0x09, 0x00, 0x00, 0x00, // magic, payload length 9
        0x02, // stream 2
        0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 42u64, little-endian
    ];
    assert_eq!(stream_frame(2, 42), golden);

    /// Node 1 of its group waits for one message from node 0, which never
    /// sends one through the session: the golden bytes are its message.
    struct Expect(Option<u64>);
    impl NodeActor<u64> for Expect {
        fn poll(&mut self, ep: &mut dyn Endpoint<u64>) -> ActorStatus {
            self.0 = self.0.or_else(|| ep.try_recv_from(0));
            match self.0 {
                Some(_) => ActorStatus::Done,
                None => ActorStatus::Idle,
            }
        }
    }
    struct Quiet;
    impl NodeActor<u64> for Quiet {
        fn poll(&mut self, _ep: &mut dyn Endpoint<u64>) -> ActorStatus {
            ActorStatus::Done
        }
    }

    let mut session = fault_session();
    session.raw_link(0, 1).unwrap().write_all(&golden).unwrap();
    let mut waiting: Vec<Expect> = (0..3).map(|_| Expect(None)).collect();
    let (mut q0, mut q1, mut q2, mut q3, mut q4, mut q5) =
        (Quiet, Quiet, Quiet, Quiet, Quiet, Quiet);
    let [w0, w1, w2] = &mut waiting[..] else {
        unreachable!()
    };
    // Streams 0 and 1 wait too, and must not see stream 2's message.
    let mut g0: Vec<&mut dyn NodeActor<u64>> = vec![&mut q0, w0, &mut q1];
    let mut g1: Vec<&mut dyn NodeActor<u64>> = vec![&mut q2, w1, &mut q3];
    let mut g2: Vec<&mut dyn NodeActor<u64>> = vec![&mut q4, w2, &mut q5];
    let result = within_deadline(|| {
        Session::<u64>::run(&mut session, &mut [&mut g0[..], &mut g1[..], &mut g2[..]])
    });
    // Groups 0 and 1 starve (nobody sends to them); group 2 got the frame.
    assert_eq!(
        result.unwrap_err(),
        TransportError::Stalled { done: 7, actors: 9 }
    );
    assert_eq!(waiting[0].0, None);
    assert_eq!(waiting[1].0, None);
    assert_eq!(waiting[2].0, Some(42));
}

#[test]
fn a_group_of_the_wrong_size_is_refused_before_it_runs() {
    let mut actors = chat_groups(1).remove(0);
    actors.pop();
    let mut refs: Vec<&mut dyn NodeActor<u64>> = actors
        .iter_mut()
        .map(|a| a as &mut dyn NodeActor<u64>)
        .collect();
    let expected = TransportError::GroupSize {
        expected: CHAT_NODES,
        actual: CHAT_NODES - 1,
    };
    let mut sim = Transport::<u64>::open(&SimTransport, CHAT_NODES).unwrap();
    assert_eq!(sim.run(&mut [&mut refs[..]]).unwrap_err(), expected);
    let mut socket = fault_session();
    assert_eq!(
        Session::<u64>::run(&mut socket, &mut [&mut refs[..]]).unwrap_err(),
        expected
    );
    drop(refs);
    assert!(
        actors.iter().all(|a| a.round == 0 && !a.sent),
        "nothing ran"
    );
}
