//! Fault injection for the socket/frame layer, plus the net-level
//! Sim-vs-Socket agreement check.
//!
//! Every hostile input — torn frames, trailing garbage, oversized length
//! prefixes, mid-message disconnects, a peer that never completes
//! registration — must surface as a *typed* [`TransportError`] within the
//! configured timeout: never a hang, never a panic.  The worker pool's
//! quiescence-based stall detection is exercised on real sockets as well:
//! genuine stalls time out, long computations and late or unconsumed
//! messages do not confuse it.

use dstress_net::socket::{FramedConn, Hello, SocketTransport};
use dstress_net::transport::{
    ActorStatus, Endpoint, NodeActor, SimTransport, Transport, TransportError,
};
use dstress_net::{FrameError, FRAME_MAGIC};
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
        for threads in [1, 2, 4] {
            let (sock_sums, sock_tally) = run_summers(&SocketTransport::with_threads(threads), n);
            assert_eq!(sock_sums, sim_sums, "n = {n}, threads = {threads}");
            // The tally records Wire payload bytes only — frame headers
            // are transport overhead — so both backends measure the same
            // wire_bytes, message for message.
            assert_eq!(sock_tally, sim_tally, "n = {n}, threads = {threads}");
        }
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
    let transport = SocketTransport::with_threads(2).with_stall_timeout(Duration::from_millis(100));
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
    let transport = SocketTransport::with_threads(2).with_stall_timeout(Duration::from_millis(100));
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
                // A long computation between rounds: the run must not be
                // declared stalled while this worker is busy, even though
                // every *other* worker is parked idle.
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

/// Regression test for spurious stalls: with idle accounting that unparks
/// a worker only *after* a pass with progress, a worker stuck in a long
/// computation still counts as idle, so the timeout can fire with batched
/// messages still to come.  The quiescence check plus unpark-before-pass
/// must ride out a computation much longer than the stall timeout, and
/// the 2 MiB batch must then cross the sockets intact.
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
    let transport = SocketTransport::with_threads(3).with_stall_timeout(Duration::from_millis(100));
    within_deadline(|| transport.run(&mut refs).unwrap());
    let Batcher::Consumer { received, sum, .. } = consumer else {
        unreachable!();
    };
    assert_eq!(received, batch);
    // sum of i * payload for i in 0..batch
    let expected: u64 = (0..batch as u64).map(|i| i * payload as u64).sum();
    assert_eq!(sum, expected);
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
    let transport = SocketTransport::with_threads(2).with_stall_timeout(Duration::from_millis(100));
    let err = within_deadline(|| transport.run(&mut refs).unwrap_err());
    assert_eq!(err, TransportError::Stalled { done: 1, actors: 2 });
}
