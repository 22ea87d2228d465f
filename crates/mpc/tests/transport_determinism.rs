//! The repo's core invariants, proven for the concurrent runtime:
//!
//! 1. GMW executions are bit-identical across transport backends.  For
//!    random circuits, inputs and seeds, running the same per-party state
//!    machines on the deterministic [`SimTransport`] and on the
//!    multi-threaded, real-TCP [`SocketTransport`] must produce identical
//!    output shares, identical `OperationCounts`, identical per-party
//!    byte totals and identical traffic reports — concurrency and real
//!    sockets may only change wall-clock, never results.  This contract is
//!    what lets the deployment layer place block MPCs on remote workers
//!    without changing a bit of any run.
//! 2. GMW executions are bit-identical across [`GmwBatching`] modes in
//!    everything except the round structure: layer batching regroups the
//!    same OT payloads into fewer messages, so output shares and byte
//!    totals match the per-gate path exactly while rounds drop from
//!    O(AND gates) to O(depth) and the message count shrinks.

use dstress_circuit::builder::CircuitBuilder;
use dstress_circuit::{evaluate, Circuit, WireId};
use dstress_math::rng::{DetRng, SplitMix64, Xoshiro256};
use dstress_mpc::gmw::{reconstruct_outputs, share_inputs, GmwConfig, GmwProtocol};
use dstress_mpc::party::{GmwBatching, OtConfig};
use dstress_mpc::GmwExecution;
use dstress_net::socket::SocketTransport;
use dstress_net::traffic::TrafficAccountant;
use dstress_net::transport::{SimTransport, Transport};
use proptest::prelude::*;

/// Builds a random circuit mixing AND / XOR / NOT / MUX gates over a
/// growing wire pool, with a handful of outputs.
fn random_circuit(seed: u64, inputs: usize, extra_gates: usize) -> Circuit {
    let mut rng = SplitMix64::new(seed);
    let mut builder = CircuitBuilder::new();
    let mut pool: Vec<WireId> = (0..inputs).map(|_| builder.input()).collect();
    for _ in 0..extra_gates {
        let a = pool[rng.next_below(pool.len() as u64) as usize];
        let b = pool[rng.next_below(pool.len() as u64) as usize];
        let wire = match rng.next_below(4) {
            0 => builder.and(a, b),
            1 => builder.xor(a, b),
            2 => builder.not(a),
            _ => {
                let sel = pool[rng.next_below(pool.len() as u64) as usize];
                builder.mux(sel, a, b)
            }
        };
        pool.push(wire);
    }
    for &wire in pool.iter().rev().take(4) {
        builder.output(wire);
    }
    builder
        .build()
        .expect("random circuits are topologically valid")
}

fn run_on(
    transport: &dyn Transport<dstress_mpc::GmwMessage>,
    circuit: &Circuit,
    shares: &[Vec<bool>],
    parties: usize,
    ot: &OtConfig,
    master_seed: u64,
    batching: GmwBatching,
) -> (GmwExecution, TrafficAccountant) {
    let protocol =
        GmwProtocol::new(GmwConfig::with_default_ids(parties).with_batching(batching)).unwrap();
    let mut traffic = TrafficAccountant::new();
    let exec = protocol
        .execute_seeded(transport, circuit, shares, ot, &mut traffic, master_seed)
        .expect("execution succeeds");
    (exec, traffic)
}

/// Shared fixture: circuit, plaintext inputs, shares and master seed for
/// one deterministic scenario.
fn scenario(seed: u64, parties: usize) -> (Circuit, Vec<bool>, Vec<Vec<bool>>, u64) {
    let circuit = random_circuit(seed, 3 + (seed % 6) as usize, 12 + (seed % 20) as usize);
    let mut input_rng = SplitMix64::new(seed ^ 0xC1C0);
    let inputs: Vec<bool> = (0..circuit.num_inputs())
        .map(|_| input_rng.next_bool())
        .collect();
    let mut share_rng = Xoshiro256::new(seed ^ 0x5EED);
    let shares = share_inputs(&inputs, parties, &mut share_rng);
    let master_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (circuit, inputs, shares, master_seed)
}

fn assert_backends_agree(
    seed: u64,
    parties: usize,
    ot: &OtConfig,
    threads: usize,
    batching: GmwBatching,
) {
    let (circuit, inputs, shares, master_seed) = scenario(seed, parties);

    let (sim, sim_traffic) = run_on(
        &SimTransport,
        &circuit,
        &shares,
        parties,
        ot,
        master_seed,
        batching,
    );
    let (sock, sock_traffic) = run_on(
        &SocketTransport::with_threads(threads),
        &circuit,
        &shares,
        parties,
        ot,
        master_seed,
        batching,
    );

    // Bit-identical shares, not merely identical reconstructions.
    assert_eq!(sim.output_shares, sock.output_shares, "seed {seed}");
    assert_eq!(sim.counts, sock.counts, "seed {seed}");
    assert_eq!(sim.rounds, sock.rounds, "seed {seed}");
    assert_eq!(
        sim.bytes_sent_per_party, sock.bytes_sent_per_party,
        "seed {seed}"
    );
    // Measured wire bytes — the encoded sizes of the actual messages —
    // are as deterministic as the modeled totals, even when the messages
    // crossed real TCP frames.
    assert_eq!(
        sim.wire_bytes_per_party, sock.wire_bytes_per_party,
        "seed {seed}"
    );
    assert_eq!(sim.counts.wire_bytes, sock.counts.wire_bytes, "seed {seed}");
    assert_eq!(sim_traffic.report(), sock_traffic.report(), "seed {seed}");

    // Both must also be *correct*: reconstruction equals the plaintext
    // evaluation.
    let expected = evaluate(&circuit, &inputs).unwrap();
    assert_eq!(reconstruct_outputs(&sim.output_shares).unwrap(), expected);
}

/// Batched vs per-gate GMW on the *same* backend: identical output
/// shares and byte totals, fewer rounds and messages when batching.
fn assert_batching_modes_agree(
    seed: u64,
    parties: usize,
    transport: &dyn Transport<dstress_mpc::GmwMessage>,
) {
    let (circuit, _, shares, master_seed) = scenario(seed, parties);
    let ot = OtConfig::extension();
    let (batched, batched_traffic) = run_on(
        transport,
        &circuit,
        &shares,
        parties,
        &ot,
        master_seed,
        GmwBatching::Layered,
    );
    let (per_gate, per_gate_traffic) = run_on(
        transport,
        &circuit,
        &shares,
        parties,
        &ot,
        master_seed,
        GmwBatching::PerGate,
    );

    assert_eq!(batched.output_shares, per_gate.output_shares, "seed {seed}");
    assert_eq!(
        batched.bytes_sent_per_party, per_gate.bytes_sent_per_party,
        "seed {seed}"
    );
    let br = batched_traffic.report();
    let pr = per_gate_traffic.report();
    assert_eq!(br.total_bytes, pr.total_bytes, "seed {seed}");
    assert_eq!(br.max_node_bytes, pr.max_node_bytes, "seed {seed}");
    // Identical work; only the round structure and the measured message
    // *framing* change (batching pays one header per layer where the
    // per-gate path pays one per gate, so the measured wire bytes differ
    // even though every modeled count matches).
    let mut b = batched.counts;
    let mut p = per_gate.counts;
    assert!(b.rounds <= p.rounds, "seed {seed}");
    if circuit.and_gates() > 0 {
        assert!(br.total_messages <= pr.total_messages, "seed {seed}");
    } else {
        // With no AND gates neither mode exchanges OT messages, so even
        // the measured wire bytes are identical.
        assert_eq!(b.wire_bytes, p.wire_bytes, "seed {seed}");
    }
    b.rounds = 0;
    p.rounds = 0;
    b.wire_bytes = 0;
    p.wire_bytes = 0;
    assert_eq!(b, p, "seed {seed}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_backends_are_bit_identical(
        seed in any::<u64>(),
        parties in 2usize..6,
        threads in 1usize..5,
        batched in any::<bool>(),
    ) {
        let batching = if batched { GmwBatching::Layered } else { GmwBatching::PerGate };
        assert_backends_agree(seed, parties, &OtConfig::extension(), threads, batching);
    }

    #[test]
    fn prop_batched_and_per_gate_gmw_are_bit_identical(
        seed in any::<u64>(),
        parties in 2usize..6,
        on_sockets in any::<bool>(),
    ) {
        if on_sockets {
            assert_batching_modes_agree(seed, parties, &SocketTransport::with_threads(2));
        } else {
            assert_batching_modes_agree(seed, parties, &SimTransport);
        }
    }
}

#[test]
fn backends_agree_batched_mode() {
    assert_backends_agree(0xBA7C, 4, &OtConfig::extension(), 3, GmwBatching::Layered);
}

#[test]
fn backends_agree_per_gate_mode() {
    assert_backends_agree(0xBA7C, 4, &OtConfig::extension(), 3, GmwBatching::PerGate);
}

#[test]
fn backends_agree_with_real_elgamal_ot() {
    assert_backends_agree(
        0xE16A,
        3,
        &OtConfig::elgamal(dstress_crypto::group::GroupKind::Sim64),
        2,
        GmwBatching::Layered,
    );
}

#[test]
fn backends_agree_per_gate_with_real_elgamal_ot() {
    assert_backends_agree(
        0xE16B,
        3,
        &OtConfig::elgamal(dstress_crypto::group::GroupKind::Sim64),
        2,
        GmwBatching::PerGate,
    );
}

/// Measured byte totals across the full backend × batching grid —
/// {Sim, Socket} × {Layered, PerGate}: within each batching mode both
/// backends must agree bit for bit, and the batched framing must never
/// exceed the per-gate framing.
#[test]
fn measured_wire_bytes_bit_identical_across_the_grid() {
    let parties = 4;
    let (circuit, _, shares, master_seed) = scenario(0x2B17, parties);
    let ot = OtConfig::extension();
    let mut grid = Vec::new();
    for batching in [GmwBatching::Layered, GmwBatching::PerGate] {
        let (sim, sim_traffic) = run_on(
            &SimTransport,
            &circuit,
            &shares,
            parties,
            &ot,
            master_seed,
            batching,
        );
        let (sock, sock_traffic) = run_on(
            &SocketTransport::with_threads(3),
            &circuit,
            &shares,
            parties,
            &ot,
            master_seed,
            batching,
        );
        assert_eq!(
            sim.counts.wire_bytes, sock.counts.wire_bytes,
            "{batching:?}"
        );
        assert_eq!(
            sim.wire_bytes_per_party, sock.wire_bytes_per_party,
            "{batching:?}"
        );
        assert_eq!(
            sim_traffic.report().total_wire_bytes,
            sock_traffic.report().total_wire_bytes,
            "{batching:?}"
        );
        assert!(sim.counts.wire_bytes > 0, "{batching:?}");
        grid.push(sim.counts.wire_bytes);
    }
    let (layered, per_gate) = (grid[0], grid[1]);
    assert!(layered <= per_gate, "batched framing must not cost more");
}

/// The satellite regression: on a `w`-wide single-AND-layer circuit the
/// batched `Choices` message is two bit-packed planes — at most
/// `2·⌈w/8⌉` bytes plus a bounded header — where the per-gate path pays
/// a whole headed message per gate.  Run with κ = 0 so no OT payload
/// rides along and the framing itself is what gets measured.
#[test]
fn batched_choices_payload_is_bit_packed_on_the_wire() {
    let w = 64usize;
    let mut builder = CircuitBuilder::new();
    let mut outs = Vec::new();
    for _ in 0..w {
        let x = builder.input();
        let y = builder.input();
        outs.push(builder.and(x, y));
    }
    for o in outs {
        builder.output(o);
    }
    let circuit = builder.build().unwrap();
    let mut share_rng = Xoshiro256::new(0xB17);
    let shares = share_inputs(&vec![true; circuit.num_inputs()], 2, &mut share_rng);
    let ot = OtConfig::Extension {
        security_parameter: 0,
    };

    let (batched, _) = run_on(
        &SimTransport,
        &circuit,
        &shares,
        2,
        &ot,
        9,
        GmwBatching::Layered,
    );
    // Party 1 (the OT receiver toward pair owner 0) sends exactly one
    // Choices message: two w-bit planes plus the header.
    let header_max = dstress_mpc::wire::BATCH_HEADER_MAX as u64;
    assert!(
        batched.wire_bytes_per_party[1] <= (2 * w.div_ceil(8)) as u64 + header_max,
        "batched choices cost {} bytes for w = {w}",
        batched.wire_bytes_per_party[1]
    );

    let (per_gate, _) = run_on(
        &SimTransport,
        &circuit,
        &shares,
        2,
        &ot,
        9,
        GmwBatching::PerGate,
    );
    // Per-gate framing pays at least tag + gate id + packed byte +
    // payload length per AND gate — measurably more than the bit-packed
    // batch.
    assert!(per_gate.wire_bytes_per_party[1] >= (3 * w) as u64);
    assert!(batched.wire_bytes_per_party[1] * 4 < per_gate.wire_bytes_per_party[1]);
}

#[test]
fn same_seed_reproduces_across_repeated_threaded_runs() {
    let circuit = random_circuit(42, 6, 24);
    let mut input_rng = SplitMix64::new(43);
    let inputs: Vec<bool> = (0..circuit.num_inputs())
        .map(|_| input_rng.next_bool())
        .collect();
    let mut share_rng = Xoshiro256::new(44);
    let shares = share_inputs(&inputs, 4, &mut share_rng);
    let ot = OtConfig::extension();
    let (a, _) = run_on(
        &SocketTransport::with_threads(4),
        &circuit,
        &shares,
        4,
        &ot,
        99,
        GmwBatching::Layered,
    );
    let (b, _) = run_on(
        &SocketTransport::with_threads(2),
        &circuit,
        &shares,
        4,
        &ot,
        99,
        GmwBatching::Layered,
    );
    assert_eq!(a.output_shares, b.output_shares);
    assert_eq!(a.counts, b.counts);
}

// ---------------------------------------------------------------------------
// Pinned execution fingerprint
// ---------------------------------------------------------------------------
//
// The suites above compare backends and batchings *with each other*, so a
// change that moved all of them together would pass.  The constants below
// were captured once, on the commit before the layered hot path was
// rebuilt, and pin every observable of a layered execution absolutely:
// output shares, operation counts, rounds, the per-pair wire tally, the
// accountant's node and pair flows, and a fold over every encoded message
// in lane order.

use dstress_mpc::GmwMessage;
use dstress_net::cost::OperationCounts;
use dstress_net::traffic::NodeId;
use dstress_net::transport::{ActorStatus, Endpoint, NodeActor, TransportError};
use dstress_net::wire::{Wire, WireTally};
use std::sync::Mutex;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a, continued from `h`.
fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn fold_u64s(h: u64, values: &[u64]) -> u64 {
    values.iter().fold(h, |h, v| fold(h, &v.to_le_bytes()))
}

/// An endpoint that folds the encoding of every message its actor sends
/// into the sender's per-recipient lane hash before passing it on.
struct RecordingEndpoint<'a> {
    inner: &'a mut dyn Endpoint<GmwMessage>,
    lanes: &'a mut [u64],
}

impl RecordingEndpoint<'_> {
    fn record(&mut self, to: usize, message: &GmwMessage) {
        let bytes = message.encode();
        let h = fold(self.lanes[to], &(bytes.len() as u64).to_le_bytes());
        self.lanes[to] = fold(h, &bytes);
    }
}

impl Endpoint<GmwMessage> for RecordingEndpoint<'_> {
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }
    fn send(&mut self, to: usize, message: GmwMessage) {
        self.record(to, &message);
        self.inner.send(to, message);
    }
    fn send_many(&mut self, batch: Vec<(usize, GmwMessage)>) {
        for (to, message) in &batch {
            self.record(*to, message);
        }
        self.inner.send_many(batch);
    }
    fn try_recv_from(&mut self, peer: usize) -> Option<GmwMessage> {
        self.inner.try_recv_from(peer)
    }
}

struct RecordingActor<'a> {
    inner: &'a mut dyn NodeActor<GmwMessage>,
    /// One running hash per recipient: this sender's lanes.
    lanes: Vec<u64>,
}

impl NodeActor<GmwMessage> for RecordingActor<'_> {
    fn poll(&mut self, endpoint: &mut dyn Endpoint<GmwMessage>) -> ActorStatus {
        self.inner.poll(&mut RecordingEndpoint {
            inner: endpoint,
            lanes: &mut self.lanes,
        })
    }
}

/// Wraps any backend; after a run, holds the run's tally and the fold of
/// all `(from, to)` lane hashes in index order.
struct RecordingTransport<'t> {
    inner: &'t dyn Transport<GmwMessage>,
    seen: Mutex<Option<(WireTally, u64)>>,
}

impl Transport<GmwMessage> for RecordingTransport<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(
        &self,
        actors: &mut [&mut dyn NodeActor<GmwMessage>],
    ) -> Result<WireTally, TransportError> {
        let n = actors.len();
        let mut recorders: Vec<RecordingActor> = actors
            .iter_mut()
            .map(|actor| RecordingActor {
                inner: &mut **actor,
                lanes: vec![FNV_OFFSET; n],
            })
            .collect();
        let tally = {
            let mut refs: Vec<&mut dyn NodeActor<GmwMessage>> = recorders
                .iter_mut()
                .map(|r| r as &mut dyn NodeActor<GmwMessage>)
                .collect();
            self.inner.run(&mut refs)?
        };
        let messages = recorders
            .iter()
            .fold(FNV_OFFSET, |h, r| fold_u64s(h, &r.lanes));
        *self.seen.lock().unwrap() = Some((tally.clone(), messages));
        Ok(tally)
    }
}

/// Everything observable about one layered execution.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    /// Fold over every party's output shares.
    shares: u64,
    /// `OperationCounts`, in field order.
    counts: [u64; 10],
    rounds: u64,
    /// Fold over the tally's `(from, to, bytes, messages)` pairs.
    tally: u64,
    /// Fold over every encoded message, lane by lane.
    messages: u64,
    /// Fold over the accountant's per-node counters and pair flows.
    traffic: u64,
}

fn counts_array(c: &OperationCounts) -> [u64; 10] {
    [
        c.exponentiations,
        c.fixed_base_exponentiations,
        c.group_multiplications,
        c.base_ots,
        c.extended_ots,
        c.and_gates,
        c.free_gates,
        c.bytes_sent,
        c.wire_bytes,
        c.rounds,
    ]
}

/// A ≈500-layer chain, three AND gates per layer: the shape of the
/// Eisenberg–Noe update circuit (deep, narrow).
fn deep_narrow_circuit() -> Circuit {
    let mut b = CircuitBuilder::new();
    let mut s = [b.input(), b.input(), b.input()];
    let k = b.input();
    for _ in 0..500 {
        let t0 = b.and(s[0], s[1]);
        let t1 = b.and(s[1], s[2]);
        let t2 = b.and(s[2], s[0]);
        let n2 = b.not(t2);
        s = [b.xor(t0, s[2]), b.xor(t1, k), b.xor(n2, s[1])];
    }
    for wire in s {
        b.output(wire);
    }
    b.build().unwrap()
}

/// Two wide layers (701 and 350 AND gates — neither a multiple of eight,
/// so both bit planes end in padding).
fn wide_shallow_circuit() -> Circuit {
    let mut b = CircuitBuilder::new();
    let first: Vec<WireId> = (0..701)
        .map(|_| {
            let x = b.input();
            let y = b.input();
            b.and(x, y)
        })
        .collect();
    let second: Vec<WireId> = first.chunks_exact(2).map(|p| b.and(p[0], p[1])).collect();
    for &wire in second.iter().step_by(25).chain(first.iter().step_by(100)) {
        b.output(wire);
    }
    b.build().unwrap()
}

fn fingerprint(
    transport: &dyn Transport<GmwMessage>,
    circuit: &Circuit,
    parties: usize,
    ot: &OtConfig,
) -> Fingerprint {
    let mut input_rng = SplitMix64::new(0xF1A6);
    let inputs: Vec<bool> = (0..circuit.num_inputs())
        .map(|_| input_rng.next_bool())
        .collect();
    let shares = share_inputs(&inputs, parties, &mut Xoshiro256::new(0x5A17));
    let node_ids: Vec<NodeId> = (0..parties).map(|p| NodeId(100 + 7 * p)).collect();
    let protocol = GmwProtocol::new(GmwConfig::with_node_ids(node_ids.clone())).unwrap();
    let recording = RecordingTransport {
        inner: transport,
        seen: Mutex::new(None),
    };
    let mut traffic = TrafficAccountant::with_pair_tracking();
    let exec = protocol
        .execute_seeded(
            &recording,
            circuit,
            &shares,
            ot,
            &mut traffic,
            0x0D57_2E55_F1A6,
        )
        .expect("execution succeeds");
    assert_eq!(
        reconstruct_outputs(&exec.output_shares).unwrap(),
        evaluate(circuit, &inputs).unwrap()
    );
    let (tally, messages) = recording.seen.lock().unwrap().take().expect("one run");

    let share_bytes: Vec<u8> = exec
        .output_shares
        .iter()
        .flat_map(|party| party.iter().map(|&bit| bit as u8))
        .collect();
    let tally_fold = tally.pairs().fold(FNV_OFFSET, |h, (from, to, b, m)| {
        fold_u64s(h, &[from as u64, to as u64, b, m])
    });
    let mut traffic_fold = FNV_OFFSET;
    for (id, t) in traffic.sorted_node_entries() {
        traffic_fold = fold_u64s(
            traffic_fold,
            &[
                id.0 as u64,
                t.bytes_sent,
                t.bytes_received,
                t.messages_sent,
                t.messages_received,
                t.wire_bytes_sent,
                t.wire_bytes_received,
            ],
        );
    }
    for &from in &node_ids {
        for &to in &node_ids {
            let bytes = traffic.pair_bytes(from, to).expect("pair tracking is on");
            traffic_fold = fold_u64s(traffic_fold, &[bytes]);
        }
    }
    Fingerprint {
        shares: fold(FNV_OFFSET, &share_bytes),
        counts: counts_array(&exec.counts),
        rounds: exec.rounds,
        tally: tally_fold,
        messages,
        traffic: traffic_fold,
    }
}

/// Captured on the parent of the hot-path rebuild (commit b69d153) with
/// `SimTransport`; never regenerate these to make a change pass.
#[rustfmt::skip]
const PINNED: [(&str, &str, usize, Fingerprint); 12] = [
    ("deep", "extension", 3, Fingerprint { shares: 5123522497241910172, counts: [720, 0, 0, 240, 4500, 1500, 2000, 80220, 98970, 1003], rounds: 1003, tally: 17503285370796608251, messages: 14997814937247267381, traffic: 13601190562446389833 }),
    ("deep", "extension", 5, Fingerprint { shares: 7631902638434219146, counts: [2400, 0, 0, 800, 15000, 1500, 2000, 267400, 329900, 1003], rounds: 1003, tally: 16033738224191658465, messages: 1147820364187734940, traffic: 12373332802621121609 }),
    ("deep", "extension", 8, Fingerprint { shares: 16428961054209189680, counts: [6720, 0, 0, 2240, 42000, 1500, 2000, 748720, 923720, 1003], rounds: 1003, tally: 14797853441262008245, messages: 3793855001994877100, traffic: 4717705037886606649 }),
    ("deep", "elgamal", 3, Fingerprint { shares: 5123522497241910172, counts: [72000, 0, 0, 4500, 0, 1500, 2000, 432000, 452232, 1001], rounds: 1001, tally: 12272581752034311900, messages: 15507424422150957847, traffic: 1864713179926586181 }),
    ("deep", "elgamal", 5, Fingerprint { shares: 7631902638434219146, counts: [240000, 0, 0, 15000, 0, 1500, 2000, 1440000, 1507440, 1001], rounds: 1001, tally: 5559117139399330305, messages: 7220901252255997288, traffic: 14707509370068110721 }),
    ("deep", "elgamal", 8, Fingerprint { shares: 16428961054209189680, counts: [672000, 0, 0, 42000, 0, 1500, 2000, 4032000, 4220832, 1001], rounds: 1001, tally: 5737559769125257045, messages: 1622164794988598037, traffic: 10016635184815943653 }),
    ("wide", "extension", 3, Fingerprint { shares: 18301796936191437206, counts: [720, 0, 0, 240, 3153, 1051, 0, 65403, 66681, 7], rounds: 7, tally: 9969474062762851432, messages: 12289296861088390307, traffic: 11719017552131503470 }),
    ("wide", "extension", 5, Fingerprint { shares: 9260127984839528710, counts: [2400, 0, 0, 800, 10510, 1051, 0, 218010, 222270, 7], rounds: 7, tally: 921918314326206805, messages: 17019116995583694260, traffic: 10494882322554984077 }),
    ("wide", "extension", 8, Fingerprint { shares: 11010598065292202474, counts: [6720, 0, 0, 2240, 29428, 1051, 0, 610428, 622356, 7], rounds: 7, tally: 9801018694936820445, messages: 10169534055813686848, traffic: 4561413460450917537 }),
    ("wide", "elgamal", 3, Fingerprint { shares: 18301796936191437206, counts: [50448, 0, 0, 3153, 0, 1051, 0, 302688, 303957, 5], rounds: 5, tally: 3297569108055309822, messages: 12473165375077455620, traffic: 13491381051174720114 }),
    ("wide", "elgamal", 5, Fingerprint { shares: 9260127984839528710, counts: [168160, 0, 0, 10510, 0, 1051, 0, 1008960, 1013190, 5], rounds: 5, tally: 5298078028870286773, messages: 623907360314115871, traffic: 4602794964473352569 }),
    ("wide", "elgamal", 8, Fingerprint { shares: 11010598065292202474, counts: [470848, 0, 0, 29428, 0, 1051, 0, 2825088, 2836932, 5], rounds: 5, tally: 274950429683024685, messages: 8986842107210137925, traffic: 7987394551177103733 }),
];

/// The pinned fingerprints hold on every backend, for both providers.
#[test]
fn layered_execution_matches_the_pinned_fingerprints() {
    let (deep, wide) = (deep_narrow_circuit(), wide_shallow_circuit());
    assert_eq!(dstress_circuit::CircuitLayers::of(&deep).rounds(), 500);
    let backends: [(&str, Box<dyn Transport<GmwMessage>>); 2] = [
        ("sim", Box::new(SimTransport)),
        ("socket", Box::new(SocketTransport::with_threads(2))),
    ];
    for (circuit_name, ot_name, parties, expected) in &PINNED {
        let circuit = if *circuit_name == "deep" {
            &deep
        } else {
            &wide
        };
        let ot = if *ot_name == "extension" {
            OtConfig::extension()
        } else {
            OtConfig::elgamal(dstress_crypto::group::GroupKind::Sim64)
        };
        for (backend, transport) in &backends {
            assert_eq!(
                &fingerprint(&**transport, circuit, *parties, &ot),
                expected,
                "{circuit_name} / {ot_name} / {parties} parties on {backend}"
            );
        }
    }
}
