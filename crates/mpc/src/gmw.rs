//! The GMW protocol over Boolean circuits.
//!
//! In GMW every wire value is XOR-shared among the parties.  XOR and NOT
//! gates are evaluated locally (for NOT, a designated party flips its
//! share); each AND gate requires one 1-out-of-4 oblivious transfer per
//! unordered party pair.  All OTs of one circuit *layer* are independent,
//! so the engine batches them into a single message exchange per pair per
//! layer ([`GmwBatching::Layered`], the default): the number of
//! sequential communication rounds scales with the circuit's AND depth,
//! not its AND-gate count — the amortisation that makes the paper's
//! wide-area deployment viable (§5.1).  There is one party state machine;
//! [`GmwBatching::PerGate`] runs it over the serial layering
//! ([`CircuitLayers::serial`], one AND gate per layer) for A/B round
//! measurements, bit-identical in everything but rounds and framing.
//! What keeps both honest is the plaintext [`dstress_circuit::evaluate`]
//! and the layered path's pinned fingerprints
//! (`tests/transport_determinism.rs`).  This is
//! exactly the protocol the DStress prototype runs inside each block
//! (§3.3, §5.1), and its cost structure — traffic quadratic in the block
//! size overall but linear per node, time linear in block size because
//! the pairwise work proceeds in parallel — is what produces the shapes
//! of Figures 3 and 4.
//!
//! The protocol is implemented as per-party state machines
//! ([`crate::party::GmwParty`]) driven by a
//! [`dstress_net::transport::Transport`]: the same parties run
//! deterministically in process ([`SimTransport`]) or genuinely
//! concurrently across a worker pool over TCP
//! ([`dstress_net::SocketTransport`]), with bit-identical results.
//! [`GmwProtocol::execute`] is the convenience entry point over the
//! deterministic backend.
//!
//! Two doors run batches, both over one body: each runs several
//! executions of one circuit — each a [`GmwJob`] with its own members,
//! shares and seed — as the concurrent groups of one
//! [`dstress_net::transport::Session`], so the block MPCs of a window
//! share a socket mesh instead of building one each.  Executions never
//! interact: an execution's shares, counts, rounds and bytes are the same
//! alone, in a batch, and on either backend.
//!
//! * [`execute_established`] is the engine's door: every block,
//!   aggregation and noising MPC of a run goes through it, on the pairs'
//!   OT-extension sessions the run set up once, in its Initialization
//!   step.
//! * [`execute_batch`] is the one-shot door: each execution sets its
//!   pairs' sessions up itself.  [`GmwProtocol::execute_seeded`] is its
//!   batch of one on a session of its own.
//!
//! A party that rejects a peer's message ends the batch at once with
//! [`MpcError::UnexpectedMessage`], on every backend.
//!
//! The executor measures, for every run: the bytes each party sent and
//! received (the transport's tally of the encoded messages), the number
//! of OTs and AND gates, and the number of communication rounds.  Those
//! measurements feed the harness directly; [`execution_wire_bytes`] is
//! the closed form the measured bytes equal.

use crate::error::MpcError;
use crate::party::{GmwBatching, GmwMessage, GmwParty, OtConfig};
use crate::wire::{encoded_len, GmwKind};
use dstress_circuit::{Circuit, CircuitLayers, Gate};
use dstress_crypto::sharing::{split_xor_bit, xor_reconstruct_bit};
use dstress_math::rng::DetRng;
use dstress_net::cost::OperationCounts;
use dstress_net::traffic::{NodeId, TrafficAccountant};
use dstress_net::transport::{NodeActor, Session, SimTransport, Transport, TransportError};
use dstress_net::wire::WireTally;

/// Configuration of a GMW execution: one party (the DStress block has
/// `k + 1`) per node identity.
#[derive(Clone, Debug)]
pub struct GmwConfig {
    /// Node identities used for traffic accounting, one per party.
    pub node_ids: Vec<NodeId>,
    /// Which layering the parties walk: the depth layering by default
    /// (one exchange per AND layer), the serial one (one exchange per
    /// AND gate) for A/B round measurements.
    pub batching: GmwBatching,
}

impl GmwConfig {
    /// Creates a configuration for `parties` parties with node ids
    /// `0..parties`.
    pub fn with_default_ids(parties: usize) -> Self {
        GmwConfig::with_node_ids((0..parties).map(NodeId).collect())
    }

    /// Creates a configuration with explicit node identities.
    pub fn with_node_ids(node_ids: Vec<NodeId>) -> Self {
        GmwConfig {
            node_ids,
            batching: GmwBatching::default(),
        }
    }

    /// Selects the AND-gate batching mode.
    pub fn with_batching(mut self, batching: GmwBatching) -> Self {
        self.batching = batching;
        self
    }
}

/// Result of a GMW execution.
#[derive(Clone, Debug)]
pub struct GmwExecution {
    /// Output shares, indexed `[party][output bit]`; XORing across parties
    /// reconstructs each output bit.
    pub output_shares: Vec<Vec<bool>>,
    /// Operation counts accumulated during the execution (including the
    /// OT provider's counts for this run).
    pub counts: OperationCounts,
    /// Measured sequential one-way communication rounds per party pair
    /// (pairs exchange in parallel, so this is the critical path, not a
    /// sum over pairs): the OT session setup (not on established
    /// sessions, [`execute_established`]), two rounds per layer of the
    /// layering the parties walked — per AND layer
    /// ([`GmwBatching::Layered`]) or per AND gate
    /// ([`GmwBatching::PerGate`]) — plus the output-reconstruction round.
    pub rounds: u64,
    /// Per-party bytes *measured* on the wire: the summed encoded sizes
    /// of every message the party sent through the transport.
    pub wire_bytes_per_party: Vec<u64>,
}

/// The GMW protocol executor.
#[derive(Clone, Debug)]
pub struct GmwProtocol {
    config: GmwConfig,
}

impl GmwProtocol {
    /// Creates an executor for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MpcError::TooFewParties`] for fewer than two parties.
    pub fn new(config: GmwConfig) -> Result<Self, MpcError> {
        let parties = config.node_ids.len();
        if parties < 2 {
            return Err(MpcError::TooFewParties { parties });
        }
        Ok(GmwProtocol { config })
    }

    /// Number of parties: one per configured node identity.
    pub fn parties(&self) -> usize {
        self.config.node_ids.len()
    }

    /// Executes `circuit` on XOR-shared inputs with the deterministic
    /// in-process transport ([`SimTransport`]).
    ///
    /// `input_shares[p]` holds party `p`'s share of every input bit (so
    /// each inner vector has length `circuit.num_inputs()`, and XORing the
    /// vectors across parties yields the plaintext inputs).  The
    /// [`OtConfig`] selects the provider each party pair instantiates for
    /// its AND-gate transfers; traffic is recorded against the configured
    /// node ids.
    ///
    /// # Errors
    ///
    /// Returns [`MpcError::InputShareMismatch`] if the share vectors have
    /// the wrong shape.
    pub fn execute(
        &self,
        circuit: &Circuit,
        input_shares: &[Vec<bool>],
        ot: &OtConfig,
        traffic: &mut TrafficAccountant,
        rng: &mut dyn DetRng,
    ) -> Result<GmwExecution, MpcError> {
        self.execute_on(&SimTransport, circuit, input_shares, ot, traffic, rng)
    }

    /// Executes `circuit` on the given transport backend, drawing the
    /// master seed from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`MpcError::InputShareMismatch`] for malformed share
    /// vectors and [`MpcError::Transport`] if the transport stalls.
    pub fn execute_on(
        &self,
        transport: &dyn Transport<GmwMessage>,
        circuit: &Circuit,
        input_shares: &[Vec<bool>],
        ot: &OtConfig,
        traffic: &mut TrafficAccountant,
        rng: &mut dyn DetRng,
    ) -> Result<GmwExecution, MpcError> {
        let master_seed = rng.next_u64();
        self.execute_seeded(transport, circuit, input_shares, ot, traffic, master_seed)
    }

    /// Executes `circuit` on the given transport backend with an explicit
    /// master seed.
    ///
    /// Every party's randomness and every pair's OT provider derive
    /// deterministically from `master_seed`, so the same seed produces
    /// bit-identical output shares and identical [`OperationCounts`] on
    /// every backend — the invariant the workspace's determinism suite
    /// asserts across [`SimTransport`] and
    /// [`dstress_net::SocketTransport`].
    ///
    /// # Errors
    ///
    /// Returns [`MpcError::InputShareMismatch`] for malformed share
    /// vectors and [`MpcError::Transport`] if the transport stalls.
    pub fn execute_seeded(
        &self,
        transport: &dyn Transport<GmwMessage>,
        circuit: &Circuit,
        input_shares: &[Vec<bool>],
        ot: &OtConfig,
        traffic: &mut TrafficAccountant,
        master_seed: u64,
    ) -> Result<GmwExecution, MpcError> {
        // The memoised layering is built on first use and is the largest
        // transient of a big circuit's run: build it before the shares
        // are copied, not while every copy exists.
        circuit.layers();
        let job = GmwJob {
            node_ids: self.config.node_ids.clone(),
            input_shares: input_shares.to_vec(),
            master_seed,
        };
        // Shapes first: a malformed job must not cost a mesh.
        job.check(circuit)?;
        let mut session = transport
            .open(self.parties())
            .map_err(MpcError::Transport)?;
        let (execution, flows) =
            execute_batch(&mut *session, circuit, self.config.batching, ot, vec![job])?
                .pop()
                .expect("one job yields one execution");
        traffic.merge(&flows);
        Ok(execution)
    }
}

/// One execution of a batch: what differs between the block MPCs that
/// share a session (the circuit, the batching mode and the OT provider
/// are the batch's).
#[derive(Clone, Debug)]
pub struct GmwJob {
    /// Node identities used for traffic accounting, one per party.
    pub node_ids: Vec<NodeId>,
    /// `input_shares[p]` is party `p`'s share of every circuit input.
    pub input_shares: Vec<Vec<bool>>,
    /// Seed of every party's randomness and every pair's OT provider.
    pub master_seed: u64,
}

impl GmwJob {
    /// The shape checks [`execute_batch`] starts with, for a caller that
    /// wants them before it opens a session.
    ///
    /// # Errors
    ///
    /// [`MpcError::TooFewParties`] for fewer than two parties,
    /// [`MpcError::InputShareMismatch`] unless every party has one share
    /// bit per circuit input.
    pub fn check(&self, circuit: &Circuit) -> Result<(), MpcError> {
        let n = self.node_ids.len();
        if n < 2 {
            return Err(MpcError::TooFewParties { parties: n });
        }
        if self.input_shares.len() != n {
            return Err(MpcError::InputShareMismatch {
                expected: n,
                actual: self.input_shares.len(),
            });
        }
        match self
            .input_shares
            .iter()
            .find(|shares| shares.len() != circuit.num_inputs())
        {
            Some(shares) => Err(MpcError::InputShareMismatch {
                expected: circuit.num_inputs(),
                actual: shares.len(),
            }),
            None => Ok(()),
        }
    }
}

/// Executes `circuit` once per job, all jobs at once as the groups of one
/// run of `session`, and returns each job's execution with its traffic
/// (node totals and pair flows, as the transport tallied them), in job
/// order.
///
/// The jobs are consumed: each party takes its input share by move, and
/// the parties of the whole batch exist until the run returns — the
/// caller bounds memory by bounding the batch.
///
/// # Errors
///
/// Returns [`MpcError::TooFewParties`] or
/// [`MpcError::InputShareMismatch`] for a malformed job, before the
/// session is touched, [`MpcError::UnexpectedMessage`] as soon as a party
/// rejects a peer's message, and [`MpcError::Transport`] if the run fails
/// otherwise — a job whose party count is not the session's node count
/// included.
pub fn execute_batch(
    session: &mut dyn Session<GmwMessage>,
    circuit: &Circuit,
    batching: GmwBatching,
    ot: &OtConfig,
    jobs: Vec<GmwJob>,
) -> Result<Vec<(GmwExecution, TrafficAccountant)>, MpcError> {
    run_batch(session, circuit, batching, ot, jobs, false)
}

/// [`execute_batch`] for parties whose pairs already hold OT-extension
/// sessions, set up once per run outside the batch: no execution sends an
/// `OtSetup` message or charges base OTs or their two rounds.  Shares and
/// every other count equal [`execute_batch`]'s.
///
/// # Errors
///
/// As [`execute_batch`].
pub fn execute_established(
    session: &mut dyn Session<GmwMessage>,
    circuit: &Circuit,
    batching: GmwBatching,
    ot: &OtConfig,
    jobs: Vec<GmwJob>,
) -> Result<Vec<(GmwExecution, TrafficAccountant)>, MpcError> {
    run_batch(session, circuit, batching, ot, jobs, true)
}

/// The one body of [`execute_batch`] and [`execute_established`]; only
/// `established` tells them apart.
fn run_batch(
    session: &mut dyn Session<GmwMessage>,
    circuit: &Circuit,
    batching: GmwBatching,
    ot: &OtConfig,
    jobs: Vec<GmwJob>,
    established: bool,
) -> Result<Vec<(GmwExecution, TrafficAccountant)>, MpcError> {
    for job in &jobs {
        job.check(circuit)?;
    }
    let serial;
    let layers = match batching {
        GmwBatching::Layered => circuit.layers(),
        GmwBatching::PerGate => {
            serial = CircuitLayers::serial(circuit);
            &serial
        }
    };
    let mut members = Vec::with_capacity(jobs.len());
    let mut parties: Vec<Vec<GmwParty>> = Vec::with_capacity(jobs.len());
    for job in jobs {
        parties.push(
            job.input_shares
                .into_iter()
                .enumerate()
                .map(|(p, share)| {
                    GmwParty::new(
                        circuit,
                        p,
                        job.node_ids.len(),
                        share,
                        ot,
                        job.master_seed,
                        layers,
                    )
                    .with_established_sessions(established)
                })
                .collect(),
        );
        members.push(job.node_ids);
    }
    let tallies = {
        let mut actors: Vec<Vec<&mut dyn NodeActor<GmwMessage>>> = parties
            .iter_mut()
            .map(|group| {
                group
                    .iter_mut()
                    .map(|p| p as &mut dyn NodeActor<GmwMessage>)
                    .collect()
            })
            .collect();
        let mut groups: Vec<&mut [&mut dyn NodeActor<GmwMessage>]> =
            actors.iter_mut().map(Vec::as_mut_slice).collect();
        session.run(&mut groups)
    };
    let tallies = tallies.map_err(|error| match error {
        // The party that ended the run knows why: the first group in
        // which that node's party failed.
        TransportError::Aborted { node } => parties
            .iter()
            .find_map(|group| group.get(node)?.failure().cloned())
            .unwrap_or(MpcError::Transport(error)),
        error => MpcError::Transport(error),
    })?;
    // One allocation-free pass: the gate counts are all the merge needs
    // of the circuit's statistics.
    let free_gates = circuit
        .gates()
        .iter()
        .filter(|gate| matches!(gate, Gate::Xor(..) | Gate::Not(_)))
        .count() as u64;
    Ok(members
        .iter()
        .zip(&parties)
        .zip(&tallies)
        .map(|((node_ids, parties), tally)| {
            merge_execution(circuit, free_gates, node_ids, parties, tally)
        })
        .collect())
}

/// Folds the finished parties of one execution and the transport's tally
/// of it into the execution's result and its traffic.
fn merge_execution(
    circuit: &Circuit,
    free_gates: u64,
    node_ids: &[NodeId],
    parties: &[GmwParty],
    tally: &WireTally,
) -> (GmwExecution, TrafficAccountant) {
    // Counts are sums and therefore order-independent.
    let mut counts = OperationCounts::default();
    for party in parties {
        counts.merge(party.counts());
    }
    // Rounds are *measured* from the parties' exchange counters, not
    // derived from circuit statistics: every pair exchanges in
    // parallel, so the critical path is the per-pair maximum plus the
    // final output-reconstruction round.
    let rounds = parties.iter().map(GmwParty::rounds).max().unwrap_or(0) + 1;
    counts.and_gates += circuit.layers().and_gates() as u64;
    counts.free_gates += free_gates;
    counts.rounds += rounds;

    // The traffic is the transport's tally (local indices) attributed
    // to the configured node identities.
    let mut traffic = TrafficAccountant::with_pair_tracking();
    let mut wire_bytes_per_party = vec![0u64; node_ids.len()];
    for (from, to, bytes, _messages) in tally.pairs() {
        traffic.record(node_ids[from], node_ids[to], bytes);
        wire_bytes_per_party[from] += bytes;
    }
    counts.wire_bytes += tally.total_bytes();

    let execution = GmwExecution {
        output_shares: parties.iter().map(GmwParty::output_share).collect(),
        counts,
        rounds,
        wire_bytes_per_party,
    };
    (execution, traffic)
}

/// The bytes one execution of `parties` parties walking `layers` puts on
/// the wire, in closed form.  Each unordered party pair sends one
/// `Choices` and one `Responses` per AND layer, each as long as
/// [`GmwMessage::encoded_len`] makes a batch of the layer's width carrying
/// `ot`'s per-OT payloads.  On the one-shot door (`established` false) a
/// circuit with an AND layer adds the pair's two `OtSetup` messages, when
/// `ot` has a session setup.  Equal to the measured `counts.wire_bytes` of
/// every such execution, on every transport.
pub fn execution_wire_bytes(
    layers: &CircuitLayers,
    parties: usize,
    ot: &OtConfig,
    established: bool,
) -> u64 {
    let (receiver, sender) = (
        ot.wire_receiver_bytes_per_ot(),
        ot.wire_sender_bytes_per_ot(),
    );
    let mut per_pair: usize = layers
        .and_layers()
        .iter()
        .enumerate()
        .map(|(layer, gates)| {
            let (layer, width) = (layer as u32, gates.len());
            encoded_len(GmwKind::Choices, layer, width, width * receiver)
                + encoded_len(GmwKind::Responses, layer, width, width * sender)
        })
        .sum();
    let (to_peer, to_owner) = ot.wire_setup_bytes();
    if !established && layers.rounds() > 0 && (to_peer, to_owner) != (0, 0) {
        per_pair += encoded_len(GmwKind::OtSetup, 0, 0, to_peer)
            + encoded_len(GmwKind::OtSetup, 0, 0, to_owner);
    }
    (parties * (parties - 1) / 2 * per_pair) as u64
}

/// Splits plaintext input bits into XOR shares for `parties` parties.
pub fn share_inputs(inputs: &[bool], parties: usize, rng: &mut dyn DetRng) -> Vec<Vec<bool>> {
    let mut shares: Vec<Vec<bool>> = vec![Vec::with_capacity(inputs.len()); parties];
    for &bit in inputs {
        let bit_shares = split_xor_bit(bit, parties, rng);
        for (p, share) in bit_shares.into_iter().enumerate() {
            shares[p].push(share);
        }
    }
    shares
}

/// Reconstructs plaintext outputs from per-party output shares.
///
/// # Errors
///
/// Returns [`MpcError::OutputShareMismatch`] if the share vectors disagree
/// in length or no shares are provided.
pub fn reconstruct_outputs(output_shares: &[Vec<bool>]) -> Result<Vec<bool>, MpcError> {
    let first = output_shares.first().ok_or(MpcError::OutputShareMismatch)?;
    let len = first.len();
    if output_shares.iter().any(|s| s.len() != len) {
        return Err(MpcError::OutputShareMismatch);
    }
    Ok((0..len)
        .map(|i| xor_reconstruct_bit(&output_shares.iter().map(|s| s[i]).collect::<Vec<_>>()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::GmwView;
    use dstress_circuit::builder::{decode_word, encode_word, CircuitBuilder};
    use dstress_circuit::evaluate;
    use dstress_crypto::group::GroupKind;
    use dstress_math::rng::Xoshiro256;
    use dstress_net::transport::{ActorStatus, Endpoint};
    use dstress_net::wire::{self, Wire, WireError};
    use dstress_net::SocketTransport;
    use proptest::prelude::*;

    fn adder_circuit(width: u32) -> Circuit {
        let mut b = CircuitBuilder::new();
        let x = b.input_word(width);
        let y = b.input_word(width);
        let s = b.add(&x, &y);
        b.output_word(&s);
        b.build().unwrap()
    }

    fn run_gmw(
        circuit: &Circuit,
        inputs: &[bool],
        parties: usize,
        seed: u64,
    ) -> (Vec<bool>, GmwExecution) {
        let mut rng = Xoshiro256::new(seed);
        let shares = share_inputs(inputs, parties, &mut rng);
        let protocol = GmwProtocol::new(GmwConfig::with_default_ids(parties)).unwrap();
        let mut traffic = TrafficAccountant::new();
        let exec = protocol
            .execute(
                circuit,
                &shares,
                &OtConfig::extension(),
                &mut traffic,
                &mut rng,
            )
            .unwrap();
        let outputs = reconstruct_outputs(&exec.output_shares).unwrap();
        (outputs, exec)
    }

    #[test]
    fn rejects_single_party() {
        assert!(matches!(
            GmwProtocol::new(GmwConfig::with_default_ids(1)).unwrap_err(),
            MpcError::TooFewParties { parties: 1 }
        ));
    }

    #[test]
    fn parties_are_counted_from_the_node_ids() {
        // Once a stored field beside `node_ids`: three parties with five
        // ids was rejected as "at least 2 parties, got 5".
        let five = (0..5).map(|i| NodeId(10 + i)).collect();
        let protocol = GmwProtocol::new(GmwConfig::with_node_ids(five)).unwrap();
        assert_eq!(protocol.parties(), 5);
        let protocol = GmwProtocol::new(GmwConfig::with_default_ids(3)).unwrap();
        assert_eq!(protocol.parties(), 3);
        assert_eq!(
            GmwProtocol::new(GmwConfig::with_node_ids(vec![NodeId(7)])).unwrap_err(),
            MpcError::TooFewParties { parties: 1 }
        );
    }

    #[test]
    fn matches_plaintext_adder() {
        let circuit = adder_circuit(16);
        let mut inputs = encode_word(1234, 16);
        inputs.extend(encode_word(4321, 16));
        let expected = evaluate(&circuit, &inputs).unwrap();
        for parties in [2usize, 3, 5, 8] {
            let (outputs, _) = run_gmw(&circuit, &inputs, parties, 7);
            assert_eq!(outputs, expected, "parties = {parties}");
            assert_eq!(decode_word(&outputs), 5555);
        }
    }

    #[test]
    fn matches_plaintext_on_all_gate_kinds() {
        // Circuit exercising XOR, AND, NOT, constants and MUX.
        let mut b = CircuitBuilder::new();
        let x = b.input_word(8);
        let y = b.input_word(8);
        let lt = b.lt_unsigned(&x, &y);
        let mn = b.mux_word(lt, &x, &y);
        let t = b.const_bit(true);
        let flipped = b.not(lt);
        let both = b.and(t, flipped);
        b.output_word(&mn);
        b.output(both);
        let circuit = b.build().unwrap();

        for (a, bb) in [(5u64, 9u64), (9, 5), (7, 7), (0, 255)] {
            let mut inputs = encode_word(a, 8);
            inputs.extend(encode_word(bb, 8));
            let expected = evaluate(&circuit, &inputs).unwrap();
            let (outputs, _) = run_gmw(&circuit, &inputs, 3, 11);
            assert_eq!(outputs, expected, "a={a} b={bb}");
        }
    }

    #[test]
    fn works_with_real_elgamal_ot() {
        let mut b = CircuitBuilder::new();
        let x = b.input_word(4);
        let y = b.input_word(4);
        let p = b.mul(&x, &y);
        b.output_word(&p);
        let circuit = b.build().unwrap();

        let mut inputs = encode_word(5, 4);
        inputs.extend(encode_word(3, 4));
        let mut rng = Xoshiro256::new(3);
        let shares = share_inputs(&inputs, 3, &mut rng);
        let protocol = GmwProtocol::new(GmwConfig::with_default_ids(3)).unwrap();
        let mut traffic = TrafficAccountant::new();
        let exec = protocol
            .execute(
                &circuit,
                &shares,
                &OtConfig::elgamal(GroupKind::Sim64),
                &mut traffic,
                &mut rng,
            )
            .unwrap();
        let outputs = reconstruct_outputs(&exec.output_shares).unwrap();
        assert_eq!(decode_word(&outputs), 15);
        assert!(exec.counts.exponentiations > 0);
    }

    #[test]
    fn input_share_shape_is_checked() {
        let circuit = adder_circuit(4);
        let protocol = GmwProtocol::new(GmwConfig::with_default_ids(3)).unwrap();
        let ot = OtConfig::extension();
        let mut traffic = TrafficAccountant::new();
        let mut rng = Xoshiro256::new(1);
        // Wrong number of parties.
        let err = protocol
            .execute(
                &circuit,
                &vec![vec![false; 8]; 2],
                &ot,
                &mut traffic,
                &mut rng,
            )
            .unwrap_err();
        assert!(matches!(err, MpcError::InputShareMismatch { .. }));
        // Wrong number of bits.
        let err = protocol
            .execute(
                &circuit,
                &vec![vec![false; 7]; 3],
                &ot,
                &mut traffic,
                &mut rng,
            )
            .unwrap_err();
        assert!(matches!(err, MpcError::InputShareMismatch { .. }));
    }

    #[test]
    fn counts_scale_with_parties() {
        let circuit = adder_circuit(16);
        let mut inputs = encode_word(100, 16);
        inputs.extend(encode_word(200, 16));
        let (_, exec_small) = run_gmw(&circuit, &inputs, 4, 5);
        let (_, exec_large) = run_gmw(&circuit, &inputs, 8, 5);
        // AND gates are a circuit property, independent of party count.
        assert_eq!(exec_small.counts.and_gates, exec_large.counts.and_gates);
        // But OTs scale with the number of pairs: 6 pairs vs 28 pairs.
        assert_eq!(
            exec_small.counts.extended_ots * 28 / 6,
            exec_large.counts.extended_ots
        );
        assert!(exec_large.counts.wire_bytes > exec_small.counts.wire_bytes);
    }

    fn run_gmw_with(
        circuit: &Circuit,
        inputs: &[bool],
        parties: usize,
        seed: u64,
        batching: GmwBatching,
    ) -> GmwExecution {
        let mut rng = Xoshiro256::new(seed);
        let shares = share_inputs(inputs, parties, &mut rng);
        let protocol =
            GmwProtocol::new(GmwConfig::with_default_ids(parties).with_batching(batching)).unwrap();
        let mut traffic = TrafficAccountant::new();
        protocol
            .execute(
                circuit,
                &shares,
                &OtConfig::extension(),
                &mut traffic,
                &mut rng,
            )
            .unwrap()
    }

    /// A wide, shallow circuit: `width` independent AND gates, depth 1.
    fn wide_shallow_circuit(width: usize) -> Circuit {
        let mut b = CircuitBuilder::new();
        let mut outs = Vec::new();
        for _ in 0..width {
            let x = b.input();
            let y = b.input();
            outs.push(b.and(x, y));
        }
        for o in outs {
            b.output(o);
        }
        b.build().unwrap()
    }

    /// A circuit with no AND gates: XOR/NOT/constants only.
    fn xor_only_circuit(width: u32) -> Circuit {
        let mut b = CircuitBuilder::new();
        let x = b.input_word(width);
        let y = b.input_word(width);
        let z = b.xor_word(&x, &y);
        let flipped = b.not(z[0]);
        b.output_word(&z);
        b.output(flipped);
        b.build().unwrap()
    }

    #[test]
    fn zero_and_circuit_pays_no_ot_setup() {
        // The lazy-setup regression: a session that never reaches an AND
        // gate performs no oblivious transfers, so it must not be charged
        // OT-extension setup — no OtSetup exchange, no wire bytes, no
        // base OTs, no setup rounds.  Only the output-reconstruction
        // round remains.
        let circuit = xor_only_circuit(8);
        let mut inputs = encode_word(0xA5, 8);
        inputs.extend(encode_word(0x3C, 8));
        let expected = evaluate(&circuit, &inputs).unwrap();
        for batching in [GmwBatching::Layered, GmwBatching::PerGate] {
            for parties in [2usize, 4] {
                let exec = run_gmw_with(&circuit, &inputs, parties, 21, batching);
                assert_eq!(
                    reconstruct_outputs(&exec.output_shares).unwrap(),
                    expected,
                    "{batching:?} parties={parties}"
                );
                assert_eq!(exec.counts.base_ots, 0, "{batching:?} parties={parties}");
                assert_eq!(exec.counts.extended_ots, 0);
                assert_eq!(exec.counts.exponentiations, 0);
                assert_eq!(exec.counts.wire_bytes, 0, "no measured setup bytes");
                assert_eq!(exec.rounds, 1, "only the output round remains");
            }
        }

        // Sanity: the moment one AND gate appears, the lazy setup fires
        // exactly once per pair with the full κ = 80 base-OT charge.
        let mut b = CircuitBuilder::new();
        let x = b.input();
        let y = b.input();
        let z = b.and(x, y);
        b.output(z);
        let with_and = b.build().unwrap();
        let exec = run_gmw_with(&with_and, &[true, true], 3, 21, GmwBatching::Layered);
        assert_eq!(exec.counts.base_ots, 80 * 3, "3 pairs x kappa base OTs");
        assert!(exec.counts.wire_bytes > 0);
        assert_eq!(exec.rounds, 2 + 2 + 1, "setup + one layer + output");
    }

    /// Runs `job`'s parties, on established sessions or not, as one group
    /// of `transport` and returns how many `OtSetup` messages they sent.
    fn setups_on_the_wire(
        transport: &dyn Transport<GmwMessage>,
        circuit: &Circuit,
        job: &GmwJob,
        established: bool,
    ) -> usize {
        /// A party whose every send is checked for `OtSetup` on its way out.
        struct Counted<'c>(GmwParty<'c>, usize);
        struct Counting<'e>(&'e mut dyn Endpoint<GmwMessage>, &'e mut usize);
        impl Endpoint<GmwMessage> for Counting<'_> {
            fn nodes(&self) -> usize {
                self.0.nodes()
            }
            fn send_bytes(&mut self, to: usize, write: &mut dyn FnMut(&mut Vec<u8>)) {
                let setups = &mut *self.1;
                self.0.send_bytes(to, &mut |out| {
                    let at = out.len();
                    write(out);
                    let kind = GmwView::parse_exact(&out[at..]).map(|view| view.kind);
                    *setups += usize::from(kind == Ok(GmwKind::OtSetup));
                });
            }
            fn recv_bytes(&mut self, peer: usize) -> Option<&[u8]> {
                self.0.recv_bytes(peer)
            }
        }
        impl NodeActor<GmwMessage> for Counted<'_> {
            fn poll(&mut self, endpoint: &mut dyn Endpoint<GmwMessage>) -> ActorStatus {
                self.0.poll(&mut Counting(endpoint, &mut self.1))
            }
        }
        let ot = OtConfig::extension();
        let mut parties: Vec<Counted> = (0..job.node_ids.len())
            .map(|p| {
                let share = job.input_shares[p].clone();
                let (n, seed) = (job.node_ids.len(), job.master_seed);
                let party = GmwParty::new(circuit, p, n, share, &ot, seed, circuit.layers());
                Counted(party.with_established_sessions(established), 0)
            })
            .collect();
        let mut actors: Vec<&mut dyn NodeActor<GmwMessage>> = parties
            .iter_mut()
            .map(|p| p as &mut dyn NodeActor<GmwMessage>)
            .collect();
        transport.run(&mut actors).unwrap();
        parties.iter().map(|p| p.1).sum()
    }

    #[test]
    fn established_sessions_save_exactly_one_setup_per_pair() {
        // The same job through both doors, on both backends: identical
        // shares, and counts that differ by one session setup per pair —
        // κ base OTs, 3κ exponentiations, the key material each way (plus
        // its framing on the wire) — and by the setup's two rounds.
        type Door = fn(
            &mut dyn Session<GmwMessage>,
            &Circuit,
            GmwBatching,
            &OtConfig,
            Vec<GmwJob>,
        ) -> Result<Vec<(GmwExecution, TrafficAccountant)>, MpcError>;
        let circuit = adder_circuit(8);
        let parties = 4;
        let pairs = (parties * (parties - 1) / 2) as u64;
        let mut inputs = encode_word(77, 8);
        inputs.extend(encode_word(99, 8));
        let job = GmwJob {
            node_ids: (0..parties).map(|p| NodeId(10 + 3 * p)).collect(),
            input_shares: share_inputs(&inputs, parties, &mut Xoshiro256::new(0x5E55)),
            master_seed: 0x5E55,
        };
        let ot = OtConfig::extension();
        let (to_peer, to_owner) = ot.wire_setup_bytes();
        let framed = |len| {
            GmwMessage::OtSetup {
                ot_payload: vec![0; len],
            }
            .encoded_len() as u64
        };
        let setup = OperationCounts {
            base_ots: pairs * 80,
            exponentiations: pairs * 3 * 80,
            wire_bytes: pairs * (framed(to_peer) + framed(to_owner)),
            rounds: 2,
            ..OperationCounts::default()
        };
        let socket = SocketTransport::with_threads(2);
        for transport in [&SimTransport as &dyn Transport<GmwMessage>, &socket] {
            let run = |door: Door| {
                let mut session = transport.open(parties).unwrap();
                let batch = door(
                    &mut *session,
                    &circuit,
                    GmwBatching::Layered,
                    &ot,
                    vec![job.clone()],
                );
                batch.unwrap().pop().unwrap().0
            };
            let lazy = run(execute_batch);
            let established = run(execute_established);
            let name = transport.name();
            assert_eq!(lazy.output_shares, established.output_shares, "{name}");
            assert_eq!(lazy.counts, established.counts.combined(&setup), "{name}");
            assert_eq!(lazy.rounds, established.rounds + 2, "{name}");
            let lazy_setups = setups_on_the_wire(transport, &circuit, &job, false);
            assert_eq!(lazy_setups, parties * (parties - 1), "{name}");
            assert_eq!(
                setups_on_the_wire(transport, &circuit, &job, true),
                0,
                "{name}"
            );
        }
    }

    /// What the node-1 actors of an [`OutOfProtocol`] session do.
    #[derive(Clone)]
    enum Script {
        /// Run their party, but send `Responses` wherever its `Choices`
        /// are due.
        Swap,
        /// Write these bytes to node 0 through the byte send, then wait.
        Raw(Vec<u8>),
    }

    /// A session whose node-1 actors are scripted out of protocol.
    struct OutOfProtocol<'s>(Box<dyn Session<GmwMessage> + 's>, Script);

    struct Swapping<'e>(&'e mut dyn Endpoint<GmwMessage>);

    impl Endpoint<GmwMessage> for Swapping<'_> {
        fn nodes(&self) -> usize {
            self.0.nodes()
        }
        fn send_bytes(&mut self, to: usize, write: &mut dyn FnMut(&mut Vec<u8>)) {
            let mut bytes = Vec::new();
            write(&mut bytes);
            let message =
                match GmwMessage::decode_exact(&bytes).expect("a party writes one message") {
                    GmwMessage::Choices {
                        layer,
                        pairs,
                        ot_payload,
                    } => GmwMessage::Responses {
                        layer,
                        bits: pairs.iter().map(|&(x, _)| x).collect(),
                        ot_payload,
                    },
                    other => other,
                };
            self.0.send(to, message);
        }
        fn recv_bytes(&mut self, peer: usize) -> Option<&[u8]> {
            self.0.recv_bytes(peer)
        }
    }

    /// One actor of an [`OutOfProtocol`] run, scripted or not.
    enum Member<'a> {
        Party(&'a mut dyn NodeActor<GmwMessage>),
        Swapping(&'a mut dyn NodeActor<GmwMessage>),
        Raw { bytes: &'a [u8], sent: bool },
    }

    impl NodeActor<GmwMessage> for Member<'_> {
        fn poll(&mut self, endpoint: &mut dyn Endpoint<GmwMessage>) -> ActorStatus {
            match self {
                Member::Party(actor) => actor.poll(endpoint),
                Member::Swapping(actor) => actor.poll(&mut Swapping(endpoint)),
                Member::Raw { bytes, sent } => {
                    if !*sent {
                        endpoint.send_bytes(0, &mut |out| out.extend_from_slice(bytes));
                        *sent = true;
                    }
                    ActorStatus::Idle
                }
            }
        }
    }

    impl Session<GmwMessage> for OutOfProtocol<'_> {
        fn nodes(&self) -> usize {
            self.0.nodes()
        }
        fn run(
            &mut self,
            groups: &mut [&mut [&mut dyn NodeActor<GmwMessage>]],
        ) -> Result<Vec<WireTally>, TransportError> {
            let script = &self.1;
            let mut members: Vec<Vec<Member>> = groups
                .iter_mut()
                .map(|group| {
                    let actors = group.iter_mut().enumerate();
                    actors
                        .map(|(i, actor)| match (i, script) {
                            (1, Script::Swap) => Member::Swapping(&mut **actor),
                            (1, Script::Raw(bytes)) => Member::Raw { bytes, sent: false },
                            _ => Member::Party(&mut **actor),
                        })
                        .collect()
                })
                .collect();
            let mut actors: Vec<Vec<&mut dyn NodeActor<GmwMessage>>> = members
                .iter_mut()
                .map(|group| {
                    let members = group.iter_mut();
                    members
                        .map(|m| m as &mut dyn NodeActor<GmwMessage>)
                        .collect()
                })
                .collect();
            let mut groups: Vec<&mut [&mut dyn NodeActor<GmwMessage>]> =
                actors.iter_mut().map(Vec::as_mut_slice).collect();
            self.0.run(&mut groups)
        }
    }

    /// The two-party job the out-of-protocol tests run, on established
    /// sessions so that node 1's first message is its layer-0 `Choices`:
    /// the circuit, the job, and that batch's width and OT payload length.
    fn out_of_protocol_job() -> (Circuit, GmwJob, usize, usize) {
        let circuit = adder_circuit(8);
        let mut inputs = encode_word(5, 8);
        inputs.extend(encode_word(6, 8));
        let job = GmwJob {
            node_ids: vec![NodeId(3), NodeId(4)],
            input_shares: share_inputs(&inputs, 2, &mut Xoshiro256::new(0xBAD)),
            master_seed: 0xBAD,
        };
        let gates = circuit.layers().and_layers()[0].len();
        let payload = gates * OtConfig::extension().wire_receiver_bytes_per_ot();
        (circuit, job, gates, payload)
    }

    /// Party 0's rejection of a `found` message from party 1 where its
    /// layer-0 `Choices` are due.
    fn choices_expected(found: GmwKind, found_gates: usize, found_payload: usize) -> MpcError {
        let (_, _, gates, payload) = out_of_protocol_job();
        MpcError::UnexpectedMessage {
            party: 0,
            peer: 1,
            expected: GmwKind::Choices,
            layer: 0,
            gates,
            payload,
            found,
            found_layer: 0,
            found_gates,
            found_payload,
        }
    }

    /// Runs [`out_of_protocol_job`] with node 1 scripted, on Sim and on
    /// Socket, and asserts each run ends with `expected` within a second
    /// — long before the sockets' 60 s stall timeout.
    fn assert_script_ends_the_run(script: Script, expected: &MpcError) {
        let (circuit, job, ..) = out_of_protocol_job();
        let socket = SocketTransport::with_threads(2);
        for transport in [&SimTransport as &dyn Transport<GmwMessage>, &socket] {
            let mut session = OutOfProtocol(transport.open(2).unwrap(), script.clone());
            let started = std::time::Instant::now(); // lint:allow-nondeterminism -- test-only deadline
            let error = execute_established(
                &mut session,
                &circuit,
                GmwBatching::Layered,
                &OtConfig::extension(),
                vec![job.clone()],
            )
            .unwrap_err();
            assert_eq!(&error, expected, "{}", transport.name());
            assert!(
                started.elapsed() < std::time::Duration::from_secs(1),
                "{} took {:?}",
                transport.name(),
                started.elapsed()
            );
        }
    }

    /// A layer-0 `Choices` batch from party 1 of `gates` gates and
    /// `payload` OT payload bytes, encoded.
    fn choices_bytes(gates: usize, payload: usize) -> Vec<u8> {
        let message = GmwMessage::Choices {
            layer: 0,
            pairs: vec![(true, false); gates],
            ot_payload: vec![0xA5; payload],
        };
        message.encode()
    }

    #[test]
    fn out_of_protocol_peer_ends_the_run_typed_within_a_second() {
        // Party 1 answers with `Responses` where its layer-0 `Choices` are
        // due, or writes bytes that are no message or the wrong batch in
        // their place: party 0 rejects them and the run ends with that
        // typed error at once, on sockets too — never a panic of the
        // worker.  Bytes that do not parse are the same codec error on
        // both backends: the socket checks each frame on arrival, and the
        // in-process party parses with the same parser.
        let (_, _, gates, payload) = out_of_protocol_job();
        assert_script_ends_the_run(
            Script::Swap,
            &choices_expected(GmwKind::Responses, gates, payload),
        );
        let well_formed = choices_bytes(gates, payload);
        // tag · layer · count, then the x-plane, whose last byte's top bit
        // is padding.
        assert_ne!(gates % 8, 0, "layer 0 leaves plane padding");
        let mut dirty = well_formed.clone();
        dirty[3 + wire::bits_len(gates) - 1] |= 0x80;
        let mut trailing = well_formed.clone();
        trailing.push(0);
        let truncated = well_formed[..well_formed.len() - 1].to_vec();
        let codec = |error| MpcError::Transport(TransportError::Codec { peer: 1, error });
        let cases = [
            (
                dirty,
                codec(WireError::Invalid {
                    what: "bit-plane padding",
                }),
            ),
            (
                truncated,
                codec(WireError::Truncated {
                    needed: payload,
                    available: payload - 1,
                }),
            ),
            (trailing, codec(WireError::Trailing { remaining: 1 })),
            (
                vec![0x01, 0x00, 0x00],
                codec(WireError::BadTag {
                    tag: 0x01,
                    what: "GmwMessage",
                }),
            ),
            (
                choices_bytes(gates + 1, payload + 10),
                choices_expected(GmwKind::Choices, gates + 1, payload + 10),
            ),
        ];
        for (bytes, expected) in cases {
            assert_script_ends_the_run(Script::Raw(bytes), &expected);
        }
    }

    #[test]
    fn short_ot_payload_ends_the_run_typed() {
        // Once accepted on layer and width alone: a `Choices` batch one
        // OT payload byte short of the provider's length for its width.
        let (_, _, gates, payload) = out_of_protocol_job();
        assert_script_ends_the_run(
            Script::Raw(choices_bytes(gates, payload - 1)),
            &choices_expected(GmwKind::Choices, gates, payload - 1),
        );
    }

    #[test]
    fn batched_rounds_match_layering_analysis() {
        // The measured round count of a batched run reconciles with the
        // analytical estimate from the circuit layering: 2 setup rounds
        // (base OTs) + 2 per AND layer + 1 output round.
        let circuit = adder_circuit(8);
        let layers = dstress_circuit::CircuitLayers::of(&circuit);
        let mut inputs = encode_word(1, 8);
        inputs.extend(encode_word(2, 8));
        let (_, exec) = run_gmw(&circuit, &inputs, 3, 9);
        assert_eq!(exec.rounds, 2 + 2 * layers.rounds() as u64 + 1);
        assert_eq!(exec.counts.rounds, exec.rounds);
        // The layering covers *all* gates (GMW evaluates them all), so it
        // can only be at least the output-reachable AND depth.
        let stats = dstress_circuit::CircuitStats::of(&circuit);
        assert!(layers.rounds() >= stats.and_depth);
    }

    #[test]
    fn batched_rounds_scale_with_depth_not_gate_count() {
        // The acceptance criterion: on a wide shallow circuit (many
        // independent AND gates, depth 1), batched rounds stay constant
        // while per-gate rounds grow with the gate count.
        let narrow = wide_shallow_circuit(4);
        let wide = wide_shallow_circuit(64);
        let narrow_inputs = vec![true; narrow.num_inputs()];
        let wide_inputs = vec![true; wide.num_inputs()];

        let narrow_batched = run_gmw_with(&narrow, &narrow_inputs, 3, 5, GmwBatching::Layered);
        let wide_batched = run_gmw_with(&wide, &wide_inputs, 3, 5, GmwBatching::Layered);
        // 16x the AND gates, same depth: identical round count (2 setup
        // + 2 for the single layer + 1 output).
        assert_eq!(narrow_batched.rounds, 5);
        assert_eq!(wide_batched.rounds, 5);
        assert_eq!(wide_batched.counts.and_gates, 64);

        let narrow_per_gate = run_gmw_with(&narrow, &narrow_inputs, 3, 5, GmwBatching::PerGate);
        let wide_per_gate = run_gmw_with(&wide, &wide_inputs, 3, 5, GmwBatching::PerGate);
        assert_eq!(narrow_per_gate.rounds, 2 + 2 * 4 + 1);
        assert_eq!(wide_per_gate.rounds, 2 + 2 * 64 + 1);
        assert!(wide_batched.rounds < wide_per_gate.rounds);
    }

    #[test]
    fn batching_modes_are_bit_identical_except_rounds_and_framing() {
        // Layer batching regroups the same OT payloads into fewer
        // messages: output shares and every work count are bit-identical;
        // the round count drops, and the *measured* wire bytes shrink
        // because one batched message pays one header where the per-gate
        // path pays one per gate.  A multiplier has wide layers (a ripple
        // adder has one AND gate per layer, which leaves nothing to
        // batch).
        let mut builder = CircuitBuilder::new();
        let x = builder.input_word(8);
        let y = builder.input_word(8);
        let product = builder.mul_full(&x, &y);
        builder.output_word(&product);
        let circuit = builder.build().unwrap();
        let mut inputs = encode_word(200, 8);
        inputs.extend(encode_word(123, 8));
        for parties in [2usize, 3, 5] {
            let batched = run_gmw_with(&circuit, &inputs, parties, 77, GmwBatching::Layered);
            let per_gate = run_gmw_with(&circuit, &inputs, parties, 77, GmwBatching::PerGate);
            assert_eq!(batched.output_shares, per_gate.output_shares);
            let mut b = batched.counts;
            let mut p = per_gate.counts;
            assert!(b.rounds < p.rounds, "parties = {parties}");
            assert!(
                b.wire_bytes < p.wire_bytes,
                "parties = {parties}: batched framing must be smaller"
            );
            b.rounds = 0;
            p.rounds = 0;
            b.wire_bytes = 0;
            p.wire_bytes = 0;
            assert_eq!(b, p, "parties = {parties}");
        }
    }

    #[test]
    fn traffic_is_attributed_to_node_ids() {
        let circuit = adder_circuit(8);
        let mut inputs = encode_word(3, 8);
        inputs.extend(encode_word(4, 8));
        let mut rng = Xoshiro256::new(13);
        let shares = share_inputs(&inputs, 3, &mut rng);
        let ids = vec![NodeId(10), NodeId(20), NodeId(30)];
        let protocol = GmwProtocol::new(GmwConfig::with_node_ids(ids.clone())).unwrap();
        let mut traffic = TrafficAccountant::new();
        let exec = protocol
            .execute(
                &circuit,
                &shares,
                &OtConfig::extension(),
                &mut traffic,
                &mut rng,
            )
            .unwrap();
        for &id in &ids {
            assert!(
                traffic.node(id).wire_bytes_sent > 0,
                "node {id} sent nothing"
            );
        }
        // Per-party bytes in the execution agree with the accountant and
        // sum to the execution's total.
        for (p, &id) in ids.iter().enumerate() {
            assert_eq!(
                traffic.node(id).wire_bytes_sent,
                exec.wire_bytes_per_party[p]
            );
        }
        assert_eq!(
            exec.wire_bytes_per_party.iter().sum::<u64>(),
            exec.counts.wire_bytes
        );
    }

    #[test]
    fn reconstruct_rejects_inconsistent_shares() {
        assert!(reconstruct_outputs(&[]).is_err());
        assert!(reconstruct_outputs(&[vec![true], vec![true, false]]).is_err());
        assert_eq!(
            reconstruct_outputs(&[vec![true, false], vec![true, true]]).unwrap(),
            vec![false, true]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_gmw_matches_plaintext(a in 0u64..65536, b in 0u64..65536, seed in any::<u64>()) {
            let circuit = adder_circuit(16);
            let mut inputs = encode_word(a, 16);
            inputs.extend(encode_word(b, 16));
            let expected = evaluate(&circuit, &inputs).unwrap();
            let (outputs, _) = run_gmw(&circuit, &inputs, 3, seed);
            prop_assert_eq!(outputs, expected);
        }

        #[test]
        fn prop_share_reconstruct_roundtrip(bits in proptest::collection::vec(any::<bool>(), 1..64), parties in 2usize..10, seed in any::<u64>()) {
            let mut rng = Xoshiro256::new(seed);
            let shares = share_inputs(&bits, parties, &mut rng);
            prop_assert_eq!(shares.len(), parties);
            let rebuilt = reconstruct_outputs(&shares).unwrap();
            prop_assert_eq!(rebuilt, bits);
        }
    }
}
