//! Measured bytes against their closed form, as a regression gate.
//!
//! *Measured* bytes are the summed lengths of the actual wire encodings
//! every message passes through, as the transport tallies them.  The
//! closed form ([`execution_wire_bytes`]) derives the same number from
//! the layering a GMW execution walks, the party count and the OT
//! provider's payload sizes alone.  The two must be equal to the byte, on
//! every backend, batching mode and door — that is what makes the
//! measured traffic figures explainable and the counts-only §5.5 baseline
//! honest.

use dstress_bench::mpc_micro::{build_circuit, run_mpc_micro_with, MpcCircuitKind};
use dstress_circuit::{Circuit, CircuitBuilder, CircuitLayers, WireId};
use dstress_crypto::group::GroupKind;
use dstress_finance::CircuitParams;
use dstress_math::rng::{DetRng, SplitMix64, Xoshiro256};
use dstress_mpc::gmw::{
    execute_batch, execute_established, execution_wire_bytes, share_inputs, GmwJob,
};
use dstress_mpc::{GmwBatching, GmwMessage, OtConfig};
use dstress_net::traffic::NodeId;
use dstress_net::transport::{SimTransport, Transport};
use dstress_net::SocketTransport;

/// A random circuit mixing AND / XOR / NOT / MUX gates over a growing
/// wire pool.
fn random_circuit(seed: u64) -> Circuit {
    let mut rng = SplitMix64::new(seed);
    let mut builder = CircuitBuilder::new();
    let mut pool: Vec<WireId> = (0..6).map(|_| builder.input()).collect();
    for _ in 0..40 {
        let pick = |rng: &mut SplitMix64, pool: &[WireId]| {
            pool[rng.next_below(pool.len() as u64) as usize]
        };
        let (a, b) = (pick(&mut rng, &pool), pick(&mut rng, &pool));
        let wire = match rng.next_below(4) {
            0 => builder.and(a, b),
            1 => builder.xor(a, b),
            2 => builder.not(a),
            _ => {
                let select = pick(&mut rng, &pool);
                builder.mux(select, a, b)
            }
        };
        pool.push(wire);
    }
    for &wire in pool.iter().rev().take(4) {
        builder.output(wire);
    }
    builder.build().expect("random circuits are well formed")
}

/// Runs `circuit` once among `parties` parties through the one-shot door
/// or on established sessions and returns its measured `wire_bytes`.
fn measured(
    transport: &dyn Transport<GmwMessage>,
    circuit: &Circuit,
    parties: usize,
    batching: GmwBatching,
    ot: &OtConfig,
    established: bool,
) -> u64 {
    let mut rng = Xoshiro256::new(0xC105 ^ circuit.len() as u64);
    let inputs: Vec<bool> = (0..circuit.num_inputs()).map(|_| rng.next_bool()).collect();
    let job = GmwJob {
        node_ids: (0..parties).map(|p| NodeId(3 * p + 1)).collect(),
        input_shares: share_inputs(&inputs, parties, &mut rng),
        master_seed: rng.next_u64(),
    };
    let mut session = transport.open(parties).expect("session opens");
    let door = if established {
        execute_established
    } else {
        execute_batch
    };
    let mut executions =
        door(&mut *session, circuit, batching, ot, vec![job]).expect("execution succeeds");
    let (execution, traffic) = executions.pop().expect("one job, one execution");
    assert_eq!(traffic.report().total_bytes, execution.counts.wire_bytes);
    execution.counts.wire_bytes
}

#[test]
fn closed_form_wire_bytes_equal_the_measured_bytes() {
    let en_step = build_circuit(
        MpcCircuitKind::EisenbergNoeStep,
        4,
        10,
        CircuitParams::default_params(),
    );
    let random: Vec<Circuit> = (0..3).map(|seed| random_circuit(0xB17E + seed)).collect();
    let socket = SocketTransport::with_threads(2);
    let backends: [&dyn Transport<GmwMessage>; 2] = [&SimTransport, &socket];
    let extension = OtConfig::extension();
    let elgamal = OtConfig::elgamal(GroupKind::Sim64);
    // The EN step with OT extension; the random circuits also with
    // public-key OT, which sends no OtSetup.
    let mut cases: Vec<(&str, &Circuit, &OtConfig)> = vec![("EN step", &en_step, &extension)];
    for circuit in &random {
        cases.push(("random", circuit, &extension));
        cases.push(("random", circuit, &elgamal));
    }
    for (name, circuit, ot) in cases {
        assert!(circuit.layers().and_gates() > 0, "{name}");
        let serial = CircuitLayers::serial(circuit);
        for (batching, layers) in [
            (GmwBatching::Layered, circuit.layers()),
            (GmwBatching::PerGate, &serial),
        ] {
            for established in [false, true] {
                let parties = 3;
                let expected = execution_wire_bytes(layers, parties, ot, established);
                for transport in backends {
                    assert_eq!(
                        measured(transport, circuit, parties, batching, ot, established),
                        expected,
                        "{name} / {ot:?} / {batching:?} / established={established} / {}",
                        transport.name()
                    );
                }
            }
        }
    }
}

#[test]
fn batched_framing_is_measurably_smaller_than_per_gate() {
    // The acceptance criterion: bit-packed, layer-batched
    // Choices/Responses payloads beat the per-gate path in *measured*
    // bytes.  On the EN step circuit the saving is well over 1.5x.
    let batched = run_mpc_micro_with(
        MpcCircuitKind::EisenbergNoeStep,
        4,
        10,
        50,
        0xBEC1,
        GmwBatching::Layered,
    );
    let per_gate = run_mpc_micro_with(
        MpcCircuitKind::EisenbergNoeStep,
        4,
        10,
        50,
        0xBEC1,
        GmwBatching::PerGate,
    );
    assert!(
        (batched.counts.wire_bytes as f64) * 1.5 < per_gate.counts.wire_bytes as f64,
        "batched {} vs per-gate {}",
        batched.counts.wire_bytes,
        per_gate.counts.wire_bytes
    );
}
