//! The repo's core invariants, proven for the concurrent runtime:
//!
//! 1. GMW executions are bit-identical across transport backends.  For
//!    random circuits, inputs and seeds, running the same per-party state
//!    machines on the deterministic [`SimTransport`] and on the
//!    multi-threaded, real-TCP [`SocketTransport`] must produce identical
//!    output shares, identical `OperationCounts`, identical per-pair
//!    byte tallies and identical per-node traffic — concurrency and real
//!    sockets may only change wall-clock, never results.  This contract is
//!    what lets the deployment layer place block MPCs on remote workers
//!    without changing a bit of any run.
//!    The same holds when executions share a transport *session*: run as
//!    concurrent streams of one mesh, each execution's observables equal
//!    those of running it alone.
//! 2. GMW executions are bit-identical across [`GmwBatching`] modes in
//!    everything except the round structure: one party state machine
//!    walks the depth layering or the serial one (one AND gate per
//!    layer), regrouping the same OT payloads, so output shares and byte
//!    totals match exactly while rounds drop from O(AND gates) to
//!    O(depth) and the message count shrinks.  Both reconstruct to the
//!    plaintext evaluation, and the layered path is pinned to committed
//!    fingerprints.

use dstress_circuit::builder::CircuitBuilder;
use dstress_circuit::{evaluate, Circuit, WireId};
use dstress_math::rng::{DetRng, SplitMix64, Xoshiro256};
use dstress_mpc::gmw::{execute_batch, reconstruct_outputs, share_inputs, GmwJob};
use dstress_mpc::party::{GmwBatching, OtConfig};
use dstress_mpc::GmwExecution;
use dstress_net::socket::{encode_stream_payload, split_stream_payload, SocketTransport};
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

/// Runs `job` alone through the one-shot door, on a session of its own.
fn run_alone(
    transport: &dyn Transport<dstress_mpc::GmwMessage>,
    circuit: &Circuit,
    ot: &OtConfig,
    batching: GmwBatching,
    job: GmwJob,
) -> GmwExecution {
    let mut session = transport.open(job.node_ids.len()).expect("session opens");
    execute_batch(&mut *session, circuit, batching, ot, vec![job])
        .expect("execution succeeds")
        .pop()
        .expect("one job yields one execution")
}

fn run_on(
    transport: &dyn Transport<dstress_mpc::GmwMessage>,
    circuit: &Circuit,
    shares: &[Vec<bool>],
    parties: usize,
    ot: &OtConfig,
    master_seed: u64,
    batching: GmwBatching,
) -> GmwExecution {
    let job = GmwJob {
        node_ids: (0..parties).map(NodeId).collect(),
        input_shares: shares.to_vec(),
        master_seed,
    };
    run_alone(transport, circuit, ot, batching, job)
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

fn assert_backends_agree(seed: u64, parties: usize, ot: &OtConfig, batching: GmwBatching) {
    let (circuit, inputs, shares, master_seed) = scenario(seed, parties);

    let sim = run_on(
        &SimTransport,
        &circuit,
        &shares,
        parties,
        ot,
        master_seed,
        batching,
    );
    let sock = run_on(
        &SocketTransport::new(),
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
    // Measured wire bytes — the encoded sizes of the actual messages —
    // are deterministic, even when the messages crossed real TCP frames.
    assert_eq!(sim.traffic.tally(), sock.traffic.tally(), "seed {seed}");
    assert_eq!(sim.counts.wire_bytes, sock.counts.wire_bytes, "seed {seed}");
    assert_eq!(
        sim.traffic.node_entries(),
        sock.traffic.node_entries(),
        "seed {seed}"
    );

    // Both must also be *correct*: reconstruction equals the plaintext
    // evaluation.
    let expected = evaluate(&circuit, &inputs).unwrap();
    assert_eq!(reconstruct_outputs(&sim.output_shares).unwrap(), expected);
}

/// Batched vs per-gate GMW on the *same* backend: identical output
/// shares and byte totals, fewer rounds and messages when batching, and
/// both equal to the plaintext evaluation.
fn assert_batching_modes_agree(
    seed: u64,
    parties: usize,
    transport: &dyn Transport<dstress_mpc::GmwMessage>,
) {
    let (circuit, inputs, shares, master_seed) = scenario(seed, parties);
    let ot = OtConfig::extension();
    let batched = run_on(
        transport,
        &circuit,
        &shares,
        parties,
        &ot,
        master_seed,
        GmwBatching::Layered,
    );
    let per_gate = run_on(
        transport,
        &circuit,
        &shares,
        parties,
        &ot,
        master_seed,
        GmwBatching::PerGate,
    );

    // The plaintext evaluator is the oracle of both schedules.
    let expected = evaluate(&circuit, &inputs).unwrap();
    for execution in [&batched, &per_gate] {
        let outputs = reconstruct_outputs(&execution.output_shares).unwrap();
        assert_eq!(outputs, expected, "seed {seed}");
    }
    assert_eq!(batched.output_shares, per_gate.output_shares, "seed {seed}");
    // Identical work; only the round structure and the message *framing*
    // change: batching pays one header per layer and bit-packs the layer's
    // choices, where the per-gate path pays one header per gate, so the
    // batched schedule never sends more bytes.
    let mut b = batched.counts;
    let mut p = per_gate.counts;
    assert!(b.rounds <= p.rounds, "seed {seed}");
    assert!(b.wire_bytes <= p.wire_bytes, "seed {seed}");
    if circuit.and_gates() == 0 {
        // With no AND gates neither mode exchanges OT messages, so even
        // the traffic is identical.
        assert_eq!(b.wire_bytes, p.wire_bytes, "seed {seed}");
        assert_eq!(
            batched.traffic.node_entries(),
            per_gate.traffic.node_entries(),
            "seed {seed}"
        );
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
        batched in any::<bool>(),
    ) {
        let batching = if batched { GmwBatching::Layered } else { GmwBatching::PerGate };
        assert_backends_agree(seed, parties, &OtConfig::extension(), batching);
    }

    #[test]
    fn prop_batched_and_per_gate_gmw_are_bit_identical(
        seed in any::<u64>(),
        parties in 2usize..6,
        on_sockets in any::<bool>(),
    ) {
        if on_sockets {
            assert_batching_modes_agree(seed, parties, &SocketTransport::new());
        } else {
            assert_batching_modes_agree(seed, parties, &SimTransport);
        }
    }
}

#[test]
fn backends_agree_batched_mode() {
    assert_backends_agree(0xBA7C, 4, &OtConfig::extension(), GmwBatching::Layered);
}

#[test]
fn backends_agree_per_gate_mode() {
    assert_backends_agree(0xBA7C, 4, &OtConfig::extension(), GmwBatching::PerGate);
}

#[test]
fn backends_agree_with_real_elgamal_ot() {
    assert_backends_agree(
        0xE16A,
        3,
        &OtConfig::elgamal(dstress_crypto::group::GroupKind::Sim64),
        GmwBatching::Layered,
    );
}

#[test]
fn backends_agree_per_gate_with_real_elgamal_ot() {
    assert_backends_agree(
        0xE16B,
        3,
        &OtConfig::elgamal(dstress_crypto::group::GroupKind::Sim64),
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
        let sim = run_on(
            &SimTransport,
            &circuit,
            &shares,
            parties,
            &ot,
            master_seed,
            batching,
        );
        let sock = run_on(
            &SocketTransport::new(),
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
        assert_eq!(sim.traffic.tally(), sock.traffic.tally(), "{batching:?}");
        assert_eq!(
            sim.traffic.node_entries(),
            sock.traffic.node_entries(),
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
/// `2·⌈w/8⌉` bytes plus a bounded header — where the per-gate schedule
/// pays a whole headed message per gate.  Run with κ = 0 so no OT payload
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

    let batched = run_on(
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
        batched.traffic.tally().sent_bytes(1) <= (2 * w.div_ceil(8)) as u64 + header_max,
        "batched choices cost {} bytes for w = {w}",
        batched.traffic.tally().sent_bytes(1)
    );

    let per_gate = run_on(
        &SimTransport,
        &circuit,
        &shares,
        2,
        &ot,
        9,
        GmwBatching::PerGate,
    );
    // Per-gate framing pays a whole one-gate `Choices` per AND gate — at
    // least tag + layer + width + two plane bytes + payload length —
    // measurably more than the bit-packed batch.
    let (batched, per_gate) = (batched.traffic.tally(), per_gate.traffic.tally());
    assert!(per_gate.sent_bytes(1) >= (3 * w) as u64);
    assert!(batched.sent_bytes(1) * 4 < per_gate.sent_bytes(1));
}

/// Two socket runs of one seed, each on a mesh of its own, agree.
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
    let a = run_on(
        &SocketTransport::new(),
        &circuit,
        &shares,
        4,
        &ot,
        99,
        GmwBatching::Layered,
    );
    let b = run_on(
        &SocketTransport::new(),
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
// execution's per-node traffic, and a fold over every encoded message in
// lane order.

use dstress_mpc::GmwMessage;
use dstress_net::cost::OperationCounts;
use dstress_net::traffic::NodeId;
use dstress_net::transport::{ActorStatus, Endpoint, NodeActor, Session, TransportError};
use dstress_net::wire::{hex, Wire, WireError, WireTally};
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

/// Folds one encoded message into a lane hash.
fn record(lane: &mut u64, bytes: &[u8]) {
    let h = fold(*lane, &(bytes.len() as u64).to_le_bytes());
    *lane = fold(h, bytes);
}

impl Endpoint<GmwMessage> for RecordingEndpoint<'_> {
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }
    fn send_bytes(&mut self, to: usize, write: &mut dyn FnMut(&mut Vec<u8>)) {
        let lane = &mut self.lanes[to];
        self.inner.send_bytes(to, &mut |out| {
            let at = out.len();
            write(out);
            record(lane, &out[at..]);
        });
    }
    fn recv_bytes(&mut self, peer: usize) -> Option<&[u8]> {
        self.inner.recv_bytes(peer)
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

/// Wraps any backend; holds, for every group its sessions have run (in
/// run and group order), the group's tally and the fold of all its
/// `(from, to)` lane hashes in index order.
struct RecordingTransport<'t> {
    inner: &'t dyn Transport<GmwMessage>,
    seen: Mutex<Vec<(WireTally, u64)>>,
}

impl<'t> RecordingTransport<'t> {
    fn new(inner: &'t dyn Transport<GmwMessage>) -> Self {
        RecordingTransport {
            inner,
            seen: Mutex::new(Vec::new()),
        }
    }
}

impl Transport<GmwMessage> for RecordingTransport<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn open(&self, nodes: usize) -> Result<Box<dyn Session<GmwMessage> + '_>, TransportError> {
        Ok(Box::new(RecordingSession {
            inner: self.inner.open(nodes)?,
            seen: &self.seen,
        }))
    }
}

struct RecordingSession<'t> {
    inner: Box<dyn Session<GmwMessage> + 't>,
    seen: &'t Mutex<Vec<(WireTally, u64)>>,
}

impl Session<GmwMessage> for RecordingSession<'_> {
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn run(
        &mut self,
        groups: &mut [&mut [&mut dyn NodeActor<GmwMessage>]],
    ) -> Result<Vec<WireTally>, TransportError> {
        let mut recorders: Vec<Vec<RecordingActor>> = groups
            .iter_mut()
            .map(|actors| {
                let n = actors.len();
                actors
                    .iter_mut()
                    .map(|actor| RecordingActor {
                        inner: &mut **actor,
                        lanes: vec![FNV_OFFSET; n],
                    })
                    .collect()
            })
            .collect();
        let tallies = {
            let mut refs: Vec<Vec<&mut dyn NodeActor<GmwMessage>>> = recorders
                .iter_mut()
                .map(|group| {
                    group
                        .iter_mut()
                        .map(|r| r as &mut dyn NodeActor<GmwMessage>)
                        .collect()
                })
                .collect();
            let mut slices: Vec<&mut [&mut dyn NodeActor<GmwMessage>]> =
                refs.iter_mut().map(Vec::as_mut_slice).collect();
            self.inner.run(&mut slices)?
        };
        let mut seen = self.seen.lock().unwrap();
        for (group, tally) in recorders.iter().zip(&tallies) {
            let messages = group.iter().fold(FNV_OFFSET, |h, r| fold_u64s(h, &r.lanes));
            seen.push((tally.clone(), messages));
        }
        Ok(tallies)
    }
}

/// Everything observable about one layered execution.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    /// Fold over every party's output shares.
    shares: u64,
    /// `OperationCounts`, in field order, but the retired analytic byte
    /// model (`bytes_sent`).
    counts: [u64; 9],
    rounds: u64,
    /// Fold over the tally's `(from, to, bytes, messages)` pairs.
    tally: u64,
    /// Fold over every encoded message, lane by lane.
    messages: u64,
    /// Fold over the execution's per-node measured byte counters.
    traffic: u64,
}

fn counts_array(c: &OperationCounts) -> [u64; 9] {
    [
        c.exponentiations,
        c.fixed_base_exponentiations,
        c.group_multiplications,
        c.base_ots,
        c.extended_ots,
        c.and_gates,
        c.free_gates,
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

/// The pinned scenario's inputs, shares, node identities and seed.
fn pinned_job(circuit: &Circuit, parties: usize) -> (Vec<bool>, GmwJob) {
    let mut input_rng = SplitMix64::new(0xF1A6);
    let inputs: Vec<bool> = (0..circuit.num_inputs())
        .map(|_| input_rng.next_bool())
        .collect();
    let job = GmwJob {
        node_ids: (0..parties).map(|p| NodeId(100 + 7 * p)).collect(),
        input_shares: share_inputs(&inputs, parties, &mut Xoshiro256::new(0x5A17)),
        master_seed: 0x0D57_2E55_F1A6,
    };
    (inputs, job)
}

/// The pinned scenario on a session of its own.
fn fingerprint(
    transport: &dyn Transport<GmwMessage>,
    circuit: &Circuit,
    parties: usize,
    ot: &OtConfig,
) -> Fingerprint {
    let (inputs, job) = pinned_job(circuit, parties);
    let recording = RecordingTransport::new(transport);
    let exec = run_alone(&recording, circuit, ot, GmwBatching::Layered, job);
    assert_eq!(
        reconstruct_outputs(&exec.output_shares).unwrap(),
        evaluate(circuit, &inputs).unwrap()
    );
    let (tally, messages) = recording.seen.lock().unwrap().pop().expect("one run");
    fold_fingerprint(&exec, &tally, messages)
}

fn fold_fingerprint(exec: &GmwExecution, tally: &WireTally, messages: u64) -> Fingerprint {
    let share_bytes: Vec<u8> = exec
        .output_shares
        .iter()
        .flat_map(|party| party.iter().map(|&bit| bit as u8))
        .collect();
    let tally_fold = tally.pairs().fold(FNV_OFFSET, |h, (from, to, b, m)| {
        fold_u64s(h, &[from as u64, to as u64, b, m])
    });
    let mut traffic_fold = FNV_OFFSET;
    for (id, t) in exec.traffic.node_entries() {
        traffic_fold = fold_u64s(
            traffic_fold,
            &[id.0 as u64, t.wire_bytes_sent, t.wire_bytes_received],
        );
    }
    Fingerprint {
        shares: fold(FNV_OFFSET, &share_bytes),
        counts: counts_array(&exec.counts),
        rounds: exec.counts.rounds,
        tally: tally_fold,
        messages,
        traffic: traffic_fold,
    }
}

/// An execution that has nothing to do with the pinned one but the
/// circuit: its own inputs, shares, node identities and seed.
fn unrelated_job(circuit: &Circuit, parties: usize, salt: u64) -> GmwJob {
    let mut input_rng = SplitMix64::new(salt);
    let inputs: Vec<bool> = (0..circuit.num_inputs())
        .map(|_| input_rng.next_bool())
        .collect();
    GmwJob {
        node_ids: (0..parties)
            .map(|p| NodeId(salt as usize % 50 + 3 * p))
            .collect(),
        input_shares: share_inputs(&inputs, parties, &mut Xoshiro256::new(salt ^ 0xABCD)),
        master_seed: salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    }
}

/// The pinned scenario as one of several concurrent streams: every
/// (circuit, provider) combination is one run of the *same* session, the
/// pinned job surrounded by unrelated ones.  Returns the pinned job's
/// fingerprint per run, in `runs` order.
fn multiplexed_fingerprints(
    transport: &dyn Transport<GmwMessage>,
    parties: usize,
    runs: &[(&Circuit, OtConfig)],
) -> Vec<Fingerprint> {
    let recording = RecordingTransport::new(transport);
    let mut session = recording.open(parties).expect("session opens");
    let mut fingerprints = Vec::new();
    for (run, (circuit, ot)) in runs.iter().enumerate() {
        let (inputs, pinned) = pinned_job(circuit, parties);
        // The pinned job sits at a different position in every run.
        let position = run % 3;
        let mut jobs: Vec<GmwJob> = (0..2)
            .map(|i| unrelated_job(circuit, parties, 0xD00D + (run * 2 + i) as u64))
            .collect();
        jobs.insert(position, pinned);
        let mut executions = execute_batch(&mut *session, circuit, GmwBatching::Layered, ot, jobs)
            .expect("batch succeeds");
        let exec = executions.swap_remove(position);
        assert_eq!(
            reconstruct_outputs(&exec.output_shares).unwrap(),
            evaluate(circuit, &inputs).unwrap()
        );
        let (tally, messages) = {
            let mut seen = recording.seen.lock().unwrap();
            let group = seen.swap_remove(position);
            seen.clear();
            group
        };
        fingerprints.push(fold_fingerprint(&exec, &tally, messages));
    }
    fingerprints
}

/// Captured on the parent of the hot-path rebuild (commit b69d153) with
/// `SimTransport`; never regenerate these to make a change pass.
///
/// **Re-captured once, 2026-10-17, for a named field set.**  The analytic
/// byte model (`OperationCounts::bytes_sent`, `NodeTraffic`'s modeled
/// `bytes_*` / `messages_*` counters and its modeled pair flows) leaves the
/// workspace, so the fingerprints hold measured bytes only.  What moved:
/// every `counts` array drops its entry 7 (`bytes_sent`) and keeps the
/// nine other values as they were; `traffic` now folds each node's id,
/// `wire_bytes_sent` and `wire_bytes_received` and no pair flow (the
/// measured pair bytes are what `tally` folds).  Checked not to have moved:
/// every `shares`, `rounds`, `tally` and `messages`, and the nine surviving
/// entries of every `counts` array.
///
/// **Re-captured a second time, 2026-10-19, for a named field set.**  A
/// party starts on set-up OT-extension sessions, so the one-shot door
/// charges each pair's two `OtSetup` encodings (their length in
/// `counts.wire_bytes`, the parties' bytes and the pair flows) instead of
/// sending them over the transport.  What moved: `tally` and `messages` of
/// the six `extension` rows, whose lanes no longer carry the `OtSetup`
/// messages:
/// * `deep` / `extension` / 3: `tally` 17503285370796608251 → 8474811611503250079, `messages`
///   14997814937247267381 → 9431749928553953402.
/// * `deep` / `extension` / 5: `tally` 16033738224191658465 → 10695830862977669209, `messages`
///   1147820364187734940 → 13635463065594701586.
/// * `deep` / `extension` / 8: `tally` 14797853441262008245 → 17912817930428695317, `messages`
///   3793855001994877100 → 6264988458429384020.
/// * `wide` / `extension` / 3: `tally` 9969474062762851432 → 8242908096311541414, `messages`
///   12289296861088390307 → 7219349605706018414.
/// * `wide` / `extension` / 5: `tally` 921918314326206805 → 18294866749854402725, `messages`
///   17019116995583694260 → 696129122198206168.
/// * `wide` / `extension` / 8: `tally` 9801018694936820445 → 16879101589057536557, `messages`
///   10169534055813686848 → 1320608682739237376.
///
/// Checked not to have moved: `shares`, `counts`, `rounds` and `traffic` of
/// every row, and every field of the six `elgamal` rows (public-key OT has
/// no session setup) — so the charge equals what was sent.
#[rustfmt::skip]
const PINNED: [(&str, &str, usize, Fingerprint); 12] = [
    ("deep", "extension", 3, Fingerprint { shares: 5123522497241910172, counts: [720, 0, 0, 240, 4500, 1500, 2000, 98970, 1003], rounds: 1003, tally: 8474811611503250079, messages: 9431749928553953402, traffic: 2007239899318507136 }),
    ("deep", "extension", 5, Fingerprint { shares: 7631902638434219146, counts: [2400, 0, 0, 800, 15000, 1500, 2000, 329900, 1003], rounds: 1003, tally: 10695830862977669209, messages: 13635463065594701586, traffic: 4498935978259914481 }),
    ("deep", "extension", 8, Fingerprint { shares: 16428961054209189680, counts: [6720, 0, 0, 2240, 42000, 1500, 2000, 923720, 1003], rounds: 1003, tally: 17912817930428695317, messages: 6264988458429384020, traffic: 12062708151925411961 }),
    ("deep", "elgamal", 3, Fingerprint { shares: 5123522497241910172, counts: [72000, 0, 0, 4500, 0, 1500, 2000, 452232, 1001], rounds: 1001, tally: 12272581752034311900, messages: 15507424422150957847, traffic: 6766117502739781128 }),
    ("deep", "elgamal", 5, Fingerprint { shares: 7631902638434219146, counts: [240000, 0, 0, 15000, 0, 1500, 2000, 1507440, 1001], rounds: 1001, tally: 5559117139399330305, messages: 7220901252255997288, traffic: 12938298148733452889 }),
    ("deep", "elgamal", 8, Fingerprint { shares: 16428961054209189680, counts: [672000, 0, 0, 42000, 0, 1500, 2000, 4220832, 1001], rounds: 1001, tally: 5737559769125257045, messages: 1622164794988598037, traffic: 18427200231210025593 }),
    ("wide", "extension", 3, Fingerprint { shares: 18301796936191437206, counts: [720, 0, 0, 240, 3153, 1051, 0, 66681, 7], rounds: 7, tally: 8242908096311541414, messages: 7219349605706018414, traffic: 10624199351743005712 }),
    ("wide", "extension", 5, Fingerprint { shares: 9260127984839528710, counts: [2400, 0, 0, 800, 10510, 1051, 0, 222270, 7], rounds: 7, tally: 18294866749854402725, messages: 696129122198206168, traffic: 2107345151003063249 }),
    ("wide", "extension", 8, Fingerprint { shares: 11010598065292202474, counts: [6720, 0, 0, 2240, 29428, 1051, 0, 622356, 7], rounds: 7, tally: 16879101589057536557, messages: 1320608682739237376, traffic: 6511711784476484873 }),
    ("wide", "elgamal", 3, Fingerprint { shares: 18301796936191437206, counts: [50448, 0, 0, 3153, 0, 1051, 0, 303957, 5], rounds: 5, tally: 3297569108055309822, messages: 12473165375077455620, traffic: 5422436204272775872 }),
    ("wide", "elgamal", 5, Fingerprint { shares: 9260127984839528710, counts: [168160, 0, 0, 10510, 0, 1051, 0, 1013190, 5], rounds: 5, tally: 5298078028870286773, messages: 623907360314115871, traffic: 5243472062545353489 }),
    ("wide", "elgamal", 8, Fingerprint { shares: 11010598065292202474, counts: [470848, 0, 0, 29428, 0, 1051, 0, 2836932, 5], rounds: 5, tally: 274950429683024685, messages: 8986842107210137925, traffic: 3341594041729593521 }),
];

fn pinned_circuit<'c>(name: &str, deep: &'c Circuit, wide: &'c Circuit) -> &'c Circuit {
    if name == "deep" {
        deep
    } else {
        wide
    }
}

fn pinned_ot(name: &str) -> OtConfig {
    if name == "extension" {
        OtConfig::extension()
    } else {
        OtConfig::elgamal(dstress_crypto::group::GroupKind::Sim64)
    }
}

/// The pinned fingerprints hold on every backend, for both providers.
#[test]
fn layered_execution_matches_the_pinned_fingerprints() {
    let (deep, wide) = (deep_narrow_circuit(), wide_shallow_circuit());
    assert_eq!(dstress_circuit::CircuitLayers::of(&deep).rounds(), 500);
    let backends: [(&str, Box<dyn Transport<GmwMessage>>); 2] = [
        ("sim", Box::new(SimTransport)),
        ("socket", Box::new(SocketTransport::new())),
    ];
    for (circuit_name, ot_name, parties, expected) in &PINNED {
        let circuit = pinned_circuit(circuit_name, &deep, &wide);
        for (backend, transport) in &backends {
            assert_eq!(
                &fingerprint(&**transport, circuit, *parties, &pinned_ot(ot_name)),
                expected,
                "{circuit_name} / {ot_name} / {parties} parties on {backend}"
            );
        }
    }
}

/// The pinned fingerprints hold, unregenerated, for an execution that is
/// one of several streams multiplexed over a session reused from run to
/// run.  (A test of its own so it runs beside the one-group arm.)
#[test]
fn layered_execution_matches_the_pinned_fingerprints_multiplexed() {
    let (deep, wide) = (deep_narrow_circuit(), wide_shallow_circuit());
    let backends: [(&str, Box<dyn Transport<GmwMessage>>); 2] = [
        ("sim session", Box::new(SimTransport)),
        ("socket session", Box::new(SocketTransport::new())),
    ];
    for parties in [3usize, 5, 8] {
        // Both providers at 3 parties; the public-key one, whose cost
        // grows with the pair count and which the transport cannot tell
        // from the other but by payload size, is left out above that.
        let pinned: Vec<_> = PINNED
            .iter()
            .filter(|p| p.2 == parties && (p.1 == "extension" || parties == 3))
            .collect();
        let runs: Vec<(&Circuit, OtConfig)> = pinned
            .iter()
            .map(|(circuit_name, ot_name, ..)| {
                (
                    pinned_circuit(circuit_name, &deep, &wide),
                    pinned_ot(ot_name),
                )
            })
            .collect();
        for (backend, transport) in &backends {
            let fingerprints = multiplexed_fingerprints(&**transport, parties, &runs);
            for ((circuit_name, ot_name, _, expected), got) in pinned.iter().zip(&fingerprints) {
                assert_eq!(
                    got, expected,
                    "{circuit_name} / {ot_name} / {parties} parties multiplexed on {backend}"
                );
            }
        }
    }
}

/// Everything observable about one execution of a batch, and the
/// transport's view of it.
#[derive(Debug, PartialEq)]
struct Observed {
    execution: (Vec<Vec<bool>>, OperationCounts),
    node_flows: Vec<(NodeId, dstress_net::traffic::NodeTraffic)>,
    /// The per-pair tally of the execution's traffic record.
    record: WireTally,
    tally: WireTally,
    messages: u64,
}

fn observe(exec: GmwExecution, seen: (WireTally, u64)) -> Observed {
    Observed {
        execution: (exec.output_shares, exec.counts),
        node_flows: exec.traffic.node_entries(),
        record: exec.traffic.tally().clone(),
        tally: seen.0,
        messages: seen.1,
    }
}

/// Runs `jobs` as one batch on one session of `transport`.
fn observe_batch(
    transport: &dyn Transport<GmwMessage>,
    circuit: &Circuit,
    batching: GmwBatching,
    jobs: &[GmwJob],
) -> Vec<Observed> {
    let recording = RecordingTransport::new(transport);
    let mut session = recording.open(jobs[0].node_ids.len()).unwrap();
    let executions = execute_batch(
        &mut *session,
        circuit,
        batching,
        &OtConfig::extension(),
        jobs.to_vec(),
    )
    .expect("batch succeeds");
    let seen = std::mem::take(&mut *recording.seen.lock().unwrap());
    executions
        .into_iter()
        .zip(seen)
        .map(|(exec, seen)| observe(exec, seen))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random circuits, group counts and seeds: a batch on a `Sim`
    /// session, the same batch on a `Socket` session, and every job run
    /// alone on a session of its own agree in shares, counts, rounds,
    /// per-pair wire tallies, message bytes and per-node traffic.
    #[test]
    fn prop_multiplexed_sessions_equal_one_group_runs(
        seed in any::<u64>(),
        parties in 2usize..6,
        groups in 1usize..7,
        batched in any::<bool>(),
    ) {
        let batching = if batched { GmwBatching::Layered } else { GmwBatching::PerGate };
        let circuit = random_circuit(seed, 3 + (seed % 6) as usize, 12 + (seed % 20) as usize);
        let jobs: Vec<GmwJob> = (0..groups as u64)
            .map(|g| unrelated_job(&circuit, parties, seed.rotate_left(7) ^ g))
            .collect();

        let alone: Vec<Observed> = jobs
            .iter()
            .map(|job| {
                let recording = RecordingTransport::new(&SimTransport);
                let ot = OtConfig::extension();
                let exec = run_alone(&recording, &circuit, &ot, batching, job.clone());
                let seen = recording.seen.lock().unwrap().pop().unwrap();
                observe(exec, seen)
            })
            .collect();
        let sim = observe_batch(&SimTransport, &circuit, batching, &jobs);
        let socket = observe_batch(
            &SocketTransport::new(),
            &circuit,
            batching,
            &jobs,
        );
        prop_assert_eq!(&sim, &alone);
        prop_assert_eq!(&socket, &alone);
    }
}

/// The mesh frame payload is `uvarint(stream) ‖ Wire payload`, pinned as
/// bytes; a payload that ends inside the stream id or whose id runs past
/// 64 bits is rejected.
#[test]
fn stream_envelope_golden_fixture_and_rejection() {
    let message = GmwMessage::Choices {
        layer: 1,
        pairs: vec![(true, false), (true, true), (false, true)],
        ot_payload: vec![0x11, 0x22],
    };
    for (stream, id_hex) in [
        (0u64, "00"),
        (127, "7f"),
        (128, "8001"),
        (300, "ac02"),
        (u64::MAX, "ffffffffffffffffff01"),
    ] {
        let mut payload = Vec::new();
        let envelope = encode_stream_payload(&mut payload, stream, &message);
        assert_eq!(envelope, id_hex.len() / 2, "stream {stream}");
        // The id, then exactly the message's own golden encoding.
        assert_eq!(
            hex(&payload),
            format!("{id_hex}0301030306021122"),
            "stream {stream}"
        );
        let (id, rest) = split_stream_payload(&payload).unwrap();
        assert_eq!(id, stream);
        assert_eq!(GmwMessage::decode_exact(rest).unwrap(), message);
        // Cut inside the id: truncated.  Cut inside the message: the id
        // still splits off, the message does not decode.
        for cut in 0..payload.len() {
            match split_stream_payload(&payload[..cut]) {
                Err(error) => {
                    assert!(cut < envelope, "stream {stream}, cut {cut}");
                    assert!(matches!(error, WireError::Truncated { .. }));
                }
                Ok((id, rest)) => {
                    assert!(cut >= envelope, "stream {stream}, cut {cut}");
                    assert_eq!(id, stream);
                    assert!(GmwMessage::decode_exact(rest).is_err());
                }
            }
        }
    }
    // Ten continuation bytes, and a tenth byte carrying more than bit 63.
    assert_eq!(
        split_stream_payload(&[0xFF; 11]).unwrap_err(),
        WireError::VarintOverflow
    );
    let mut wide = vec![0xFF; 9];
    wide.push(0x02);
    assert_eq!(
        split_stream_payload(&wide).unwrap_err(),
        WireError::VarintOverflow
    );
}
