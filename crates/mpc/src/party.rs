//! The per-party GMW state machine.
//!
//! A [`GmwParty`] is one party's half of the GMW protocol, written as a
//! resumable [`NodeActor`]: it evaluates free gates locally and performs
//! the AND-gate oblivious transfers with each peer through the transport.
//! Because each party is a self-contained actor, a block's parties can run
//! round-robin on one thread ([`dstress_net::SimTransport`]) or genuinely
//! concurrently over TCP, one node per worker
//! ([`dstress_net::SocketTransport`]) — with bit-identical results, since parties consume messages in a
//! protocol-fixed per-peer order and derive all randomness from their own
//! seeded streams.
//!
//! ## Wire protocol
//!
//! For every AND gate, each unordered party pair `(i, j)` with `i < j`
//! performs one 1-out-of-4 OT in which `i` is the sender.  A party walks
//! one schedule, a [`CircuitLayers`] lent to it: free gates run locally
//! between AND layers, and all of a layer's OTs ride in **one** message
//! pair per peer:
//!
//! 1. `j` sends [`GmwMessage::Choices`] (its shares of every gate input in
//!    the layer).
//! 2. `i` serves the whole layer through the pair's
//!    [`OtProvider::transfer_many`] and answers with one
//!    [`GmwMessage::Responses`].
//!
//! There is one state machine; the [`GmwBatching`] knob only chooses the
//! layering it walks.  [`GmwBatching::Layered`] (the default) lends the
//! circuit's depth layering ([`Circuit::layers`]), so rounds per pair
//! scale with the circuit's AND *depth*, the dominant wide-area cost in
//! the paper's model.  [`GmwBatching::PerGate`] lends the serial layering
//! ([`CircuitLayers::serial`], one AND gate per layer, in wire order), so
//! rounds scale with the AND *gate count* — kept for A/B round
//! measurements.
//!
//! A pair's OTs extend from an OT-extension *session*: κ base OTs whose
//! key material one [`GmwMessage::OtSetup`] message carries in each
//! direction (sized by [`OtConfig::session_setup`]; no message for
//! providers with no setup).  The door that built the parties decides
//! who pays for it.  Parties of a one-shot execution
//! ([`crate::gmw::GmwProtocol::execute_seeded`],
//! [`crate::gmw::execute_batch`]) set their sessions up *lazily*, at the
//! first AND layer and only then: a
//! circuit with no AND gates performs no oblivious transfers and
//! therefore pays no setup rounds, bytes or base OTs.  Parties built by
//! [`crate::gmw::execute_established`] start on sessions the engine set up
//! once per node pair per run, in its Initialization step, and send no
//! `OtSetup` at all.
//!
//! Each `Choices` message additionally carries the OT receiver-side
//! payload (extension-matrix columns or public keys) and each `Responses`
//! the sender-side payload, sized by the [`OtConfig`], so the OT traffic
//! is on the wire and measured with everything else; see [`crate::wire`]
//! for the exact layouts and [`crate::gmw::execution_wire_bytes`] for the
//! closed form of an execution's bytes.  Payload *content* is derived
//! from the pair's seed ([`crate::wire::ot_payload`]), so transcripts are
//! replayable and byte-identical across backends by construction.
//!
//! Two layerings exchange the same OT payloads in a different grouping:
//! every AND-gate mask is derived from the pair `(wire, peer)` rather than
//! drawn from a sequential stream, so output shares and operation counts
//! are bit-identical across [`GmwBatching`] modes (and across transport
//! backends); only the measured round count and the measured per-message
//! framing bytes differ.
//!
//! The lower-indexed party owns the pair's OT provider and accounts the
//! pair's operation counts.  A party keeps no byte count of its own: the
//! transport tallies every message's encoded bytes, and the execution's
//! traffic is that tally ([`crate::gmw::execute_batch`]).
//!
//! ## The layered hot path: who owns which buffer
//!
//! A deep, narrow circuit (the Eisenberg–Noe step: 106 layers of ≈ 11
//! AND gates) makes the per-message overhead, not the gate work, the
//! cost of an execution, so one pair-layer exchange hashes nothing and,
//! once the buffers have grown to a layer's size, allocates nothing:
//!
//! * **The circuit** owns its layering ([`Circuit::layers`], computed
//!   once per circuit): each layer's wire ids with its operand indices
//!   beside them.  Parties borrow it; nothing re-matches `Gate::And`.
//! * **The party** owns its scratch, reused from layer to layer: its
//!   `(x, y)` input shares for the layer in flight (read once when the
//!   layer starts) and the same shares as the two packed choice planes
//!   (packed once per layer, however many pair owners receive them), the
//!   accumulating output share per gate, the [`OtRequest`]s toward the
//!   peer being served and the bits the provider returns for them.
//! * **The transport** owns the bytes: one lane per sender → recipient
//!   (per stream and peer on sockets).  A party writes each `Choices` /
//!   `Responses` straight into the lane ([`Endpoint::send_bytes`] with
//!   the in-place writers of [`crate::wire`]): header, planes, and the
//!   seed-derived OT payload generated in place.
//!   It reads a peer's batch as a view borrowed from the lane
//!   ([`Endpoint::recv_bytes`]), whose planes feed the OT requests and
//!   the share XORs directly; the payload's length is checked and its
//!   bytes are never copied.
//!
//! None of this is visible from outside: the bytes a party writes are
//! `GmwMessage::encode`'s by construction (one writer, [`crate::wire`]),
//! every AND mask is still the seed-keyed
//! `derive_seed(mask_seed, "and_mask", wire · parties + peer)` (its two
//! index-independent mixing rounds are hoisted out of the per-gate loop),
//! and the bytes, counts, rounds and shares of an execution are pinned
//! absolutely by `tests/transport_determinism.rs`.
//!
//! Peer bytes are untrusted input, and a party never panics on them.
//! Bytes that are not one [`GmwMessage`] end the run with
//! [`MpcError::Transport`] carrying [`TransportError::Codec`] — the error
//! a socket's arrival check reports for the same bytes; a message of the
//! wrong kind, or a batch whose layer tag, width or OT payload length
//! does not match the layer in flight, with
//! [`MpcError::UnexpectedMessage`], naming party, peer and layer.  Either
//! way, in every build profile, the party stops and returns
//! [`ActorStatus::Failed`], which ends the run at once on every transport.
//!
//! ## Example
//!
//! ```
//! use dstress_circuit::builder::{decode_word, encode_word, CircuitBuilder};
//! use dstress_math::rng::Xoshiro256;
//! use dstress_mpc::gmw::{reconstruct_outputs, share_inputs, GmwConfig, GmwProtocol};
//! use dstress_mpc::party::OtConfig;
//! use dstress_net::{SimTransport, SocketTransport, TrafficAccountant};
//!
//! let mut b = CircuitBuilder::new();
//! let x = b.input_word(8);
//! let y = b.input_word(8);
//! let s = b.add(&x, &y);
//! b.output_word(&s);
//! let circuit = b.build().unwrap();
//!
//! let mut inputs = encode_word(20, 8);
//! inputs.extend(encode_word(22, 8));
//! let mut rng = Xoshiro256::new(7);
//! let shares = share_inputs(&inputs, 3, &mut rng);
//! let protocol = GmwProtocol::new(GmwConfig::with_default_ids(3)).unwrap();
//!
//! // The same parties run on the deterministic backend or a worker pool.
//! let mut traffic = TrafficAccountant::new();
//! let sim = protocol
//!     .execute_seeded(&SimTransport, &circuit, &shares, &OtConfig::extension(), &mut traffic, 99)
//!     .unwrap();
//! let mut traffic = TrafficAccountant::new();
//! let socket = protocol
//!     .execute_seeded(
//!         &SocketTransport::with_threads(2),
//!         &circuit,
//!         &shares,
//!         &OtConfig::extension(),
//!         &mut traffic,
//!         99,
//!     )
//!     .unwrap();
//!
//! assert_eq!(sim.output_shares, socket.output_shares);
//! assert_eq!(sim.counts, socket.counts);
//! assert_eq!(decode_word(&reconstruct_outputs(&sim.output_shares).unwrap()), 42);
//! ```

use crate::error::MpcError;
use crate::ot::{ElGamalOt, OtProvider, OtRequest, SimulatedOtExtension, BASE_OT_ELEMENT_BYTES};
use crate::wire::{self, GmwKind, GmwView};
use dstress_circuit::{Circuit, CircuitLayers, Gate};
use dstress_crypto::group::{Group, GroupKind};
use dstress_math::rng::splitmix64_finalize as mix;
use dstress_net::cost::OperationCounts;
use dstress_net::transport::{ActorStatus, Endpoint, NodeActor, TransportError};
use dstress_net::wire::bits_len;

/// A GMW protocol message, routed between parties by a transport.
///
/// Every variant has a hand-rolled wire encoding (see [`crate::wire`]):
/// the batched choice/share bits are bit-packed (one bit each), and the
/// `ot_payload` fields carry the oblivious-transfer
/// traffic that rides in the same round — base-OT key material at setup,
/// extension-matrix columns with the choices, masked messages with the
/// responses.  The payload *sizes* are protocol-faithful (the per-OT and
/// per-setup figures of [`OtConfig`]); the payload *content* is derived
/// from the pair's seed by [`crate::wire::ot_payload`] — the simulated OT
/// providers deliver their outputs in-process, but the bytes on the wire
/// are a pure function of the execution seed, so transcripts replay
/// byte-identically on every backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GmwMessage {
    /// Per-pair OT session setup (both directions): the base-OT key
    /// material of the pair's extension session.  A one-shot execution
    /// exchanges it lazily, at the pair's first AND layer; parties on
    /// established sessions never send it, nor does any party for a
    /// circuit without AND gates or a provider with no per-session setup
    /// (public-key OT).
    OtSetup {
        /// Seed-derived key material sized by the provider's setup cost.
        ot_payload: Vec<u8>,
    },
    /// OT receiver → sender: the receiver's input shares (its 1-out-of-4
    /// choices) for *every* AND gate of one layer, in layer order — a
    /// whole round's worth of choices in one message, two bit-packed
    /// planes.  Flows from the higher-indexed to the lower-indexed party
    /// of a pair.
    Choices {
        /// Index of the AND layer, for in-order delivery checks.
        layer: u32,
        /// `(x, y)` input shares per gate of the layer.
        pairs: Vec<(bool, bool)>,
        /// The layer's batched receiver-side OT payload (extension-matrix
        /// columns or ElGamal public keys), sized by the provider.
        ot_payload: Vec<u8>,
    },
    /// OT sender → receiver: the masked table entries the receiver chose,
    /// for every AND gate of one layer, one bit-packed plane.
    Responses {
        /// Index of the AND layer.
        layer: u32,
        /// The received bit per gate of the layer.
        bits: Vec<bool>,
        /// The layer's batched sender-side OT payload (masked messages or
        /// ElGamal ciphertexts), sized by the provider.
        ot_payload: Vec<u8>,
    },
}

/// Which layering a party's one schedule walks, and so how its AND-gate
/// OTs group into messages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GmwBatching {
    /// One message exchange per AND gate per pair: the serial layering
    /// ([`CircuitLayers::serial`]), so rounds scale with the AND-gate
    /// count.  Kept for A/B measurements against the paper's round model.
    PerGate,
    /// One message exchange per AND *layer* per pair: the depth layering
    /// ([`Circuit::layers`]), so rounds scale with the circuit's AND depth
    /// (the paper's §5.1 amortisation).  The default.
    #[default]
    Layered,
}

/// Which oblivious-transfer provider the parties instantiate per pair.
///
/// With per-party state machines, each unordered pair owns an independent
/// provider (held by the lower-indexed party), so parties can run on
/// different threads without sharing mutable state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OtConfig {
    /// Simulated IKNP-style OT extension with the given statistical
    /// security parameter κ (the paper's prototype used κ = 80).
    Extension {
        /// The statistical security parameter.
        security_parameter: u32,
    },
    /// Real public-key OT over ElGamal in the given group (slow; used by
    /// crypto-level tests and microbenchmarks).
    ElGamal {
        /// The group to instantiate.
        group: GroupKind,
    },
}

impl OtConfig {
    /// The default provider: OT extension with the paper's κ = 80.
    pub fn extension() -> Self {
        OtConfig::Extension {
            security_parameter: 80,
        }
    }

    /// Real ElGamal OT over the given group.
    pub fn elgamal(group: GroupKind) -> Self {
        OtConfig::ElGamal { group }
    }

    /// Instantiates a provider for one party pair.
    pub fn provider(&self, seed: u64) -> Box<dyn OtProvider + Send> {
        match *self {
            OtConfig::Extension { security_parameter } => Box::new(
                SimulatedOtExtension::with_security_parameter(security_parameter),
            ),
            OtConfig::ElGamal { group } => Box::new(ElGamalOt::new(Group::new(group), seed)),
        }
    }

    /// Wire bytes the OT *receiver* contributes per transfer: the κ-bit
    /// extension-matrix column (IKNP) or the four public keys (ElGamal).
    pub fn wire_receiver_bytes_per_ot(&self) -> usize {
        match *self {
            OtConfig::Extension { security_parameter } => (security_parameter as usize).div_ceil(8),
            OtConfig::ElGamal { group } => 4 * Group::new(group).element_bytes(),
        }
    }

    /// Wire bytes the OT *sender* contributes per transfer: the masked
    /// message bits padded to a byte (IKNP) or the four ciphertexts
    /// (ElGamal).
    pub fn wire_sender_bytes_per_ot(&self) -> usize {
        match *self {
            OtConfig::Extension { .. } => 1,
            OtConfig::ElGamal { group } => 4 * 2 * Group::new(group).element_bytes(),
        }
    }

    /// Wire bytes of the per-pair session setup as
    /// `(owner_to_peer, peer_to_owner)`: κ base OTs worth of key material
    /// each way for extension providers, nothing for public-key OT.
    pub fn wire_setup_bytes(&self) -> (usize, usize) {
        match *self {
            OtConfig::Extension { security_parameter } => {
                // Two group elements per base OT in each direction (see
                // `SimulatedOtExtension::session_setup`).
                let each = security_parameter as usize * 2 * BASE_OT_ELEMENT_BYTES as usize;
                (each, each)
            }
            OtConfig::ElGamal { .. } => (0, 0),
        }
    }

    /// What setting up one pair's session costs: the one source of the
    /// setup charge, for a one-shot execution's lazy setup and for a
    /// run's Initialization step alike.
    pub fn session_setup(&self) -> SessionSetup {
        let OtConfig::Extension { security_parameter } = *self else {
            // Public-key OT needs no per-session setup.
            return SessionSetup::default();
        };
        let mut provider = SimulatedOtExtension::with_security_parameter(security_parameter);
        provider.session_setup();
        let mut counts = OperationCounts::default();
        absorb_provider_counts(&mut counts, &provider.counts());
        SessionSetup {
            counts,
            rounds: provider.counts().rounds,
            wire: self.wire_setup_bytes(),
        }
    }
}

/// One party pair's OT-extension session setup ([`OtConfig::session_setup`]):
/// the κ base OTs whose seeds every later extended OT of the pair draws
/// on, and the [`GmwMessage::OtSetup`] exchange that carries their key
/// material.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionSetup {
    /// Compute charged: base OTs and their exponentiations (no bytes, no
    /// rounds).
    pub counts: OperationCounts,
    /// One-way rounds of the exchange.
    pub rounds: u64,
    /// `OtSetup` payload lengths `(owner → peer, peer → owner)`; both 0
    /// when the provider exchanges no setup messages.
    pub wire: (usize, usize),
}

impl SessionSetup {
    /// The pair's `OtSetup` message from its owner (`from_owner`) or from
    /// its peer, the key material derived from `pair_seed`.
    pub fn message(&self, pair_seed: u64, from_owner: bool) -> GmwMessage {
        let (len, direction) = if from_owner {
            (self.wire.0, crate::wire::PAYLOAD_SETUP_FROM_OWNER)
        } else {
            (self.wire.1, crate::wire::PAYLOAD_SETUP_FROM_PEER)
        };
        GmwMessage::OtSetup {
            ot_payload: crate::wire::ot_payload(pair_seed, direction, 0, len),
        }
    }
}

impl Default for OtConfig {
    fn default() -> Self {
        OtConfig::extension()
    }
}

/// Domain tags for [`derive_seed`] streams.
const TAG_PARTY_RNG: u64 = 0x7061_7274_795F_726E; // "party_rn"
const TAG_PAIR_OT: u64 = 0x7061_6972_5F6F_745F; // "pair_ot_"
const TAG_AND_MASK: u64 = 0x616e_645f_6d61_736b; // "and_mask"
const TAG_PAIR_PAYLOAD: u64 = 0x7061_6972_5F70_6179; // "pair_pay"

/// Derives an independent sub-seed from a master seed, a domain tag and
/// an index; used to give every party, every pair and every AND-gate mask
/// its own stream.
///
/// Each input passes through its own
/// [`splitmix64_finalize`](dstress_math::rng::splitmix64_finalize) round
/// before the next is folded in, so no linear relation between
/// `(master, tag, index)` tuples survives into the output.  (The previous
/// implementation XOR-ed the three inputs into a single SplitMix64 step,
/// which left adjacent pair indices with correlated — and occasionally
/// colliding — streams.)
pub fn derive_seed(master: u64, tag: u64, index: u64) -> u64 {
    mix(derive_stream(master, tag) ^ index)
}

/// The rounds of [`derive_seed`] that depend only on the master seed and
/// the domain tag: `derive_seed(m, t, i) == mix(derive_stream(m, t) ^ i)`.
/// A loop deriving many indices of one stream mixes these once.
fn derive_stream(master: u64, tag: u64) -> u64 {
    mix(mix(master.wrapping_add(0x9E37_79B9_7F4A_7C15)) ^ tag)
}

/// The OT-sender mask for one AND gate toward one peer:
/// `derive_seed(mask_seed, TAG_AND_MASK, wire · parties + peer)`, from the
/// party's mask stream (`derive_stream(mask_seed, TAG_AND_MASK)`, whose
/// index-independent mixing rounds are hoisted out of the per-gate loop).
///
/// Keying the mask by `(wire, peer)` — instead of drawing from a
/// sequential stream — makes the mask independent of the layering the
/// gates are processed in, which is what keeps every [`GmwBatching`]
/// mode bit-identical in its output shares.
fn mask_bit(mask_stream: u64, parties: usize, wire: usize, peer: usize) -> bool {
    mix(mask_stream ^ (wire * parties + peer) as u64) & 1 == 1
}

/// In-flight state of the AND layer a party is evaluating; the layer's
/// share accumulators live in the party's scratch buffers.
#[derive(Clone, Copy, Debug)]
struct LayerState {
    /// Index of the layer in the circuit's [`CircuitLayers`].
    layer: usize,
    /// Whether the batched choices to lower-indexed peers went out.
    choices_sent: bool,
    /// Next higher-indexed peer whose Choices this party still serves.
    next_sender_peer: usize,
    /// Next lower-indexed peer whose Responses this party still awaits.
    next_receiver_peer: usize,
}

/// One party of a GMW execution, runnable on any transport backend.
pub struct GmwParty<'c> {
    circuit: &'c Circuit,
    /// The layering the schedule walks ([`GmwBatching`]).
    layers: &'c CircuitLayers,
    index: usize,
    parties: usize,
    /// This party's AND-mask stream (see [`mask_bit`]).
    mask_stream: u64,
    /// OT provider for every pair this party owns (peers with a larger
    /// index); `None` for peers whose pair the peer owns.
    ots: Vec<Option<Box<dyn OtProvider + Send>>>,
    /// Per-peer payload-stream seed, identical at both ends of a pair, so
    /// the simulated OT payload *content* on the wire is replayable by
    /// construction (see [`crate::wire::ot_payload`]).
    pair_payload_seed: Vec<u64>,
    /// Receiver-side wire payload per OT (cached from the [`OtConfig`]).
    ot_recv_payload: usize,
    /// Sender-side wire payload per OT.
    ot_send_payload: usize,
    /// The provider configuration, whose session setup the lazy path
    /// charges ([`OtConfig::session_setup`]).
    ot: OtConfig,
    input_share: Vec<bool>,
    /// Wire values, indexed by wire id (filled as the schedule runs).
    wires: Vec<bool>,
    counts: OperationCounts,
    /// Scratch reused across layers: this party's `(x, y)` input shares
    /// of the layer in flight, the same shares packed as a `Choices`
    /// batch's two planes, its accumulating output share per gate, and
    /// the OT requests toward the peer being served with the bits the
    /// provider returns for them.
    layer_inputs: Vec<(bool, bool)>,
    choice_planes: Vec<u8>,
    layer_shares: Vec<bool>,
    requests: Vec<OtRequest>,
    received: Vec<bool>,
    /// Measured one-way message rounds this party participated in per
    /// pair: session setup, then 2 per exchange (choices out, responses
    /// back).  All pairs run in parallel, so this is the sequential
    /// critical path, not a sum over pairs.
    protocol_rounds: u64,
    // Schedule cursor.
    round: usize,
    free_done: bool,
    layer_state: Option<LayerState>,
    /// Whether this party's setup costs were charged and its OtSetup
    /// messages went out.
    setup_sent: bool,
    /// Next peer whose OtSetup message this party still awaits.
    setup_recv_peer: usize,
    setup_done: bool,
    finished: bool,
    /// Why the party stopped, once a peer's message broke the schedule.
    failure: Option<MpcError>,
}

impl<'c> GmwParty<'c> {
    /// Creates party `index` of `parties` parties, walking
    /// `layers` — a layering of `circuit`: its depth layering
    /// ([`Circuit::layers`]) or its serial one ([`CircuitLayers::serial`]),
    /// as [`GmwBatching`] chooses.
    ///
    /// `input_share` is this party's XOR share of every circuit input.
    /// All party and pair randomness derives from `master_seed`, so a
    /// fixed seed yields bit-identical executions on every backend — and,
    /// because AND masks are keyed by `(wire, peer)`, over every layering.
    pub fn new(
        circuit: &'c Circuit,
        index: usize,
        parties: usize,
        input_share: Vec<bool>,
        ot: &OtConfig,
        master_seed: u64,
        layers: &'c CircuitLayers,
    ) -> Self {
        let mask_seed = derive_seed(master_seed, TAG_PARTY_RNG, index as u64);
        let ots = (0..parties)
            .map(|peer| {
                (peer > index).then(|| {
                    let pair = (index * parties + peer) as u64;
                    ot.provider(derive_seed(master_seed, TAG_PAIR_OT, pair))
                })
            })
            .collect();
        // Keyed by the unordered pair (lower index first), so both ends
        // derive the same payload stream.
        let pair_payload_seed = (0..parties)
            .map(|peer| {
                let (lo, hi) = (index.min(peer), index.max(peer));
                derive_seed(master_seed, TAG_PAIR_PAYLOAD, (lo * parties + hi) as u64)
            })
            .collect();
        GmwParty {
            circuit,
            layers,
            index,
            parties,
            mask_stream: derive_stream(mask_seed, TAG_AND_MASK),
            ots,
            pair_payload_seed,
            ot_recv_payload: ot.wire_receiver_bytes_per_ot(),
            ot_send_payload: ot.wire_sender_bytes_per_ot(),
            ot: *ot,
            input_share,
            wires: vec![false; circuit.len()],
            counts: OperationCounts::default(),
            layer_inputs: Vec::new(),
            choice_planes: Vec::new(),
            layer_shares: Vec::new(),
            requests: Vec::new(),
            received: Vec::new(),
            protocol_rounds: 0,
            round: 0,
            free_done: false,
            layer_state: None,
            setup_sent: false,
            setup_recv_peer: 0,
            setup_done: false,
            finished: false,
            failure: None,
        }
    }

    /// With `established`, starts every pair of this party on an
    /// OT-extension session set up before the execution — once per node
    /// pair per run, in the engine's Initialization step — so the party
    /// sends no `OtSetup` and charges no setup.
    pub(crate) fn with_established_sessions(mut self, established: bool) -> Self {
        self.setup_done = established;
        self
    }

    /// This party's index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Whether the party has completed its protocol role.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The operation counts this party accounted (pair owners account
    /// their pairs' OT work; gate and round counts are added once at the
    /// execution level).  Complete once the party has finished: it folds
    /// its providers' counts in then.
    pub fn counts(&self) -> &OperationCounts {
        &self.counts
    }

    /// Measured sequential message rounds this party took part in (its
    /// pairwise exchanges run in parallel, so this counts exchanges, not
    /// exchanges × pairs): the OT session setup plus two one-way rounds
    /// per layer of its layering — per AND layer, or per AND gate on the
    /// serial one.
    pub fn rounds(&self) -> u64 {
        self.protocol_rounds
    }

    /// Why the party stopped, if a peer's message broke its schedule
    /// (it then polls [`ActorStatus::Failed`]).
    pub(crate) fn failure(&self) -> Option<&MpcError> {
        self.failure.as_ref()
    }

    /// This party's share of every circuit output.
    ///
    /// # Panics
    ///
    /// Panics if the party has not finished.
    pub fn output_share(&self) -> Vec<bool> {
        assert!(self.finished, "party {} has not finished", self.index);
        self.circuit
            .outputs()
            .iter()
            .map(|&wire| self.wires[wire])
            .collect()
    }

    /// Charges the per-pair OT session setup for every pair this party
    /// owns (the compute; its key material goes out as `OtSetup`
    /// messages).  The pairs' setups run in parallel, so the measured
    /// rounds are one setup exchange's — and none for a party that owns
    /// no pair.
    fn session_setup(&mut self, session: &SessionSetup) {
        let owned = (self.parties - self.index - 1) as u64;
        if owned > 0 {
            self.counts.add(&session.counts.scaled(owned));
            self.protocol_rounds += session.rounds;
        }
    }

    /// Evaluates one non-AND gate locally.
    fn eval_free_gate(&mut self, w: usize) {
        self.wires[w] = match self.circuit.gates()[w] {
            Gate::Input(i) => self.input_share[i],
            Gate::ConstFalse => false,
            // Party 0 holds constants and NOT flips; all other parties'
            // shares are zero.
            Gate::ConstTrue => self.index == 0,
            Gate::Xor(a, b) => self.wires[a] ^ self.wires[b],
            Gate::Not(a) => self.wires[a] ^ (self.index == 0),
            Gate::And(_, _) => unreachable!("AND gates go through the OT path"),
        };
    }

    /// Drives the in-flight AND layer as far as possible; returns `true`
    /// when the whole layer completed and its output shares were
    /// committed.
    ///
    /// # Errors
    ///
    /// [`MpcError::Transport`] ([`TransportError::Codec`]) when a peer's
    /// bytes are not one message; [`MpcError::UnexpectedMessage`] when a
    /// peer sends anything but this layer's `Choices` (a higher-indexed
    /// peer) or `Responses` (a lower-indexed one) with one entry per gate
    /// of the layer and the provider's OT payload for that many gates.
    fn advance_layer(&mut self, endpoint: &mut dyn Endpoint<GmwMessage>) -> Result<bool, MpcError> {
        let mut st = self.layer_state.take().expect("a layer is in flight");
        let gates = &self.layers.and_layers()[st.layer];
        let width = gates.len();
        let layer_tag = st.layer as u32;

        // As OT receiver: announce the whole layer's choices to every
        // pair owner in one message each — the planes packed once, each
        // owner's payload generated into its lane.
        if !st.choices_sent {
            self.choice_planes.clear();
            self.choice_planes.resize(2 * bits_len(width), 0);
            wire::pack_choice_planes(&self.layer_inputs, &mut self.choice_planes);
            let planes = &self.choice_planes;
            let payload_len = width * self.ot_recv_payload;
            for owner in 0..self.index {
                let seed = self.pair_payload_seed[owner];
                endpoint.send_bytes(owner, &mut |out| {
                    wire::write_choices(out, layer_tag, width, planes, seed, payload_len)
                });
            }
            st.choices_sent = true;
        }

        // As OT sender (pair owner): serve each higher-indexed peer's
        // whole layer through one batched transfer and one response
        // message.
        while st.next_sender_peer < self.parties {
            let peer = st.next_sender_peer;
            let Some(bytes) = endpoint.recv_bytes(peer) else {
                self.layer_state = Some(st);
                return Ok(false);
            };
            // Checked in every build: a peer's bytes are untrusted input,
            // and a short batch would otherwise be zipped into wrong
            // shares.
            let choices =
                self.expect(peer, bytes, GmwKind::Choices, width * self.ot_recv_payload)?;
            let (xs, ys) = (choices.plane(0), choices.plane(1));
            // The sender's masks; each pair's cross terms x_i·y_j ⊕ x_j·y_i
            // are encoded in the table, indexed by the receiver's choice.
            self.requests.clear();
            let own = self.layer_inputs.iter().zip(&mut self.layer_shares);
            for (i, (&w, (&(x, y), share))) in gates.iter().zip(own).enumerate() {
                let choice = (wire::plane_bit(xs, i), wire::plane_bit(ys, i));
                let r = mask_bit(self.mask_stream, self.parties, w, peer);
                self.requests.push(([r, r ^ x, r ^ y, r ^ x ^ y], choice));
                *share ^= r;
            }
            let provider = self.ots[peer].as_mut().expect("pair owner has a provider");
            self.received.clear();
            provider.transfer_many_into(&self.requests, &mut self.received);
            let (bits, seed) = (&self.received, self.pair_payload_seed[peer]);
            let payload_len = width * self.ot_send_payload;
            endpoint.send_bytes(peer, &mut |out| {
                wire::write_responses(out, layer_tag, bits, seed, payload_len)
            });
            st.next_sender_peer += 1;
        }

        // As OT receiver: fold in each owner's batched responses in index
        // order.
        while st.next_receiver_peer < self.index {
            let owner = st.next_receiver_peer;
            let Some(bytes) = endpoint.recv_bytes(owner) else {
                self.layer_state = Some(st);
                return Ok(false);
            };
            let responses = self.expect(
                owner,
                bytes,
                GmwKind::Responses,
                width * self.ot_send_payload,
            )?;
            let plane = responses.plane(0);
            for (i, share) in self.layer_shares.iter_mut().enumerate() {
                *share ^= wire::plane_bit(plane, i);
            }
            st.next_receiver_peer += 1;
        }

        // Commit the layer's output shares and advance the schedule.
        for (&w, &share) in gates.iter().zip(&self.layer_shares) {
            self.wires[w] = share;
        }
        // One layer = one choices/responses exchange = two one-way
        // rounds, regardless of how many gates it carried.
        self.protocol_rounds += 2;
        self.round = st.layer + 1;
        self.free_done = false;
        Ok(true)
    }

    /// Walks the schedule as far as the peers' messages allow: each gap's
    /// free gates, then the next AND layer, the OT sessions set up before
    /// the first one unless they are established.
    fn run_schedule(
        &mut self,
        endpoint: &mut dyn Endpoint<GmwMessage>,
    ) -> Result<ActorStatus, MpcError> {
        loop {
            if self.layer_state.is_some() && !self.advance_layer(endpoint)? {
                return Ok(ActorStatus::Idle);
            }
            if !self.free_done {
                let layers = self.layers;
                for &w in &layers.free_schedule()[self.round] {
                    self.eval_free_gate(w);
                }
                self.free_done = true;
            }
            if self.round == self.layers.rounds() {
                break;
            }
            // Lazy OT setup: the first AND layer is each pair's first
            // transfer, so the session setup (and its key-material
            // exchange) is charged here — a circuit with no AND layers
            // never pays it.
            if !self.setup_done {
                if !self.advance_setup(endpoint)? {
                    return Ok(ActorStatus::Idle);
                }
                self.setup_done = true;
            }
            // Start the next layer: read the party's input shares once
            // and seed each gate's share with the local cross term
            // x_i · y_i.
            let wires = &self.wires;
            self.layer_inputs.clear();
            self.layer_inputs.extend(
                self.layers
                    .and_operands(self.round)
                    .map(|(a, b)| (wires[a], wires[b])),
            );
            self.layer_shares.clear();
            self.layer_shares
                .extend(self.layer_inputs.iter().map(|&(x, y)| x && y));
            self.layer_state = Some(LayerState {
                layer: self.round,
                choices_sent: false,
                next_sender_peer: self.index + 1,
                next_receiver_peer: 0,
            });
        }
        // Fold in the compute each owned pair's provider counted (each
        // provider starts at zero and serves only this party).
        for provider in self.ots.iter().flatten() {
            absorb_provider_counts(&mut self.counts, &provider.counts());
        }
        self.finished = true;
        Ok(ActorStatus::Done)
    }
}

/// Folds the compute side of an OT provider's counts into a party's
/// counts.  Rounds are excluded: they are measured by the party's own
/// exchange counter (the provider's internal round notion would
/// double-count the exchanges its messages ride on).
fn absorb_provider_counts(counts: &mut OperationCounts, provider: &OperationCounts) {
    counts.exponentiations += provider.exponentiations;
    counts.group_multiplications += provider.group_multiplications;
    counts.base_ots += provider.base_ots;
    counts.extended_ots += provider.extended_ots;
}

impl GmwParty<'_> {
    /// Drives the session-setup message exchange: charge the setup costs,
    /// send the base-OT key material to every peer, and wait until every
    /// peer's material arrived.  Returns `false` while still waiting.
    ///
    /// Parties on established sessions never get here.  For the others
    /// the exchange is *lazy*: it runs at a pair's first AND layer, never
    /// up front — and since every pair serves every AND layer in GMW,
    /// that is the circuit's first AND work.  A circuit with no AND gates
    /// therefore never reaches this path and pays **zero** setup rounds,
    /// bytes and base OTs, matching a session that never needs an
    /// oblivious transfer.
    ///
    /// Providers with no per-session setup (both payloads empty) skip the
    /// message exchange.
    ///
    /// # Errors
    ///
    /// As [`GmwParty::expect`], when a peer opens with anything but its
    /// `OtSetup` of the session's key material.
    fn advance_setup(&mut self, endpoint: &mut dyn Endpoint<GmwMessage>) -> Result<bool, MpcError> {
        let session = self.ot.session_setup();
        let exchanges = session.wire != (0, 0);
        if !self.setup_sent {
            self.session_setup(&session);
            if exchanges {
                // Pair owners (lower index) send the sender-side key
                // material; the peer answers with the receiver side.
                let batch: Vec<(usize, GmwMessage)> = (0..self.parties)
                    .filter(|&peer| peer != self.index)
                    .map(|peer| {
                        let from_owner = peer > self.index;
                        let seed = self.pair_payload_seed[peer];
                        (peer, session.message(seed, from_owner))
                    })
                    .collect();
                endpoint.send_many(batch);
            }
            self.setup_sent = true;
        }
        if exchanges {
            while self.setup_recv_peer < self.parties {
                let peer = self.setup_recv_peer;
                if peer == self.index {
                    self.setup_recv_peer += 1;
                    continue;
                }
                let Some(bytes) = endpoint.recv_bytes(peer) else {
                    return Ok(false);
                };
                // A lower-indexed peer owns the pair and sends its side.
                let payload = if peer < self.index {
                    session.wire.0
                } else {
                    session.wire.1
                };
                self.expect(peer, bytes, GmwKind::OtSetup, payload)?;
                self.setup_recv_peer += 1;
            }
        }
        Ok(true)
    }

    /// Parses `bytes` from `peer` as the message the schedule expects
    /// now: of kind `expected` with `payload` OT payload bytes and, for a
    /// batch, the layer in flight's tag and width (the next layer's,
    /// during setup).
    ///
    /// # Errors
    ///
    /// [`MpcError::Transport`] ([`TransportError::Codec`]) when `bytes`
    /// are not one message, [`MpcError::UnexpectedMessage`] when the
    /// message is not the expected one.
    // Inlined with the parser into the hot path: returned through memory,
    // the view's `Result` was re-read as wider words than it was written
    // in, and those store-forwarding stalls cost a quarter of an
    // `en-fig5` block MPC.
    #[inline(always)]
    fn expect<'b>(
        &self,
        peer: usize,
        bytes: &'b [u8],
        expected: GmwKind,
        payload: usize,
    ) -> Result<GmwView<'b>, MpcError> {
        let view = GmwView::parse_exact(bytes)
            .map_err(|error| MpcError::Transport(TransportError::Codec { peer, error }))?;
        let layer = self.round as u32;
        let gates = self.layers.and_layers()[self.round].len();
        let batch_matches =
            expected == GmwKind::OtSetup || (view.layer, view.gates) == (layer, gates);
        if view.kind == expected && batch_matches && view.ot_payload.len() == payload {
            return Ok(view);
        }
        Err(MpcError::UnexpectedMessage {
            party: self.index,
            peer,
            expected,
            layer,
            gates,
            payload,
            found: view.kind,
            found_layer: view.layer,
            found_gates: view.gates,
            found_payload: view.ot_payload.len(),
        })
    }
}

impl NodeActor<GmwMessage> for GmwParty<'_> {
    fn poll(&mut self, endpoint: &mut dyn Endpoint<GmwMessage>) -> ActorStatus {
        if self.finished {
            return ActorStatus::Done;
        }
        if self.failure.is_some() {
            return ActorStatus::Failed;
        }
        self.run_schedule(endpoint).unwrap_or_else(|error| {
            self.failure = Some(error);
            ActorStatus::Failed
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstress_circuit::builder::CircuitBuilder;
    use dstress_net::wire::{Wire, WireError};
    use std::collections::HashSet; // lint:allow-nondeterminism -- test-only membership set

    fn tiny_and_circuit() -> Circuit {
        let mut b = CircuitBuilder::new();
        let x = b.input();
        let y = b.input();
        let z = b.and(x, y);
        b.output(z);
        b.build().unwrap()
    }

    #[test]
    fn ot_config_builds_providers() {
        let mut ext = OtConfig::extension().provider(1);
        let outcome = ext.transfer([true, false, true, false], (false, false));
        assert!(outcome.received);
        let mut eg = OtConfig::elgamal(GroupKind::Sim64).provider(2);
        let outcome = eg.transfer([false, true, false, false], (false, true));
        assert!(outcome.received);
        assert_eq!(OtConfig::default(), OtConfig::extension());
        // Public-key OT needs no per-session setup.
        let none = OtConfig::elgamal(GroupKind::Sim64).session_setup();
        assert_eq!(none, SessionSetup::default());
        assert_eq!(GmwBatching::default(), GmwBatching::Layered);
    }

    #[test]
    fn derive_seed_separates_streams() {
        let a = derive_seed(1, TAG_PARTY_RNG, 0);
        let b = derive_seed(1, TAG_PARTY_RNG, 1);
        let c = derive_seed(1, TAG_PAIR_OT, 0);
        let d = derive_seed(2, TAG_PARTY_RNG, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a, derive_seed(1, TAG_PARTY_RNG, 0));
    }

    #[test]
    fn derive_seed_has_no_collisions_across_streams() {
        // Adjacent indices under every domain tag, several masters: no
        // collisions anywhere in the cross product.
        let mut seen = HashSet::new(); // lint:allow-nondeterminism -- test-only, order never observed
        for master in [0u64, 1, 2, 0x9E37_79B9_7F4A_7C15] {
            for tag in [TAG_PARTY_RNG, TAG_PAIR_OT, TAG_AND_MASK] {
                for index in 0..2048u64 {
                    assert!(
                        seen.insert(derive_seed(master, tag, index)),
                        "collision at master={master:#x} tag={tag:#x} index={index}"
                    );
                }
            }
        }
    }

    #[test]
    fn derive_seed_avalanches_on_single_bit_flips() {
        // Flipping any single input bit (of the index or the master)
        // flips about half the output bits on average.
        let mut total = 0u64;
        let mut samples = 0u64;
        for index in 0..32u64 {
            let base = derive_seed(7, TAG_PAIR_OT, index);
            for bit in 0..64 {
                total +=
                    (base ^ derive_seed(7, TAG_PAIR_OT, index ^ (1 << bit))).count_ones() as u64;
                total +=
                    (base ^ derive_seed(7 ^ (1 << bit), TAG_PAIR_OT, index)).count_ones() as u64;
                samples += 2;
            }
        }
        let mean = total as f64 / samples as f64;
        assert!((28.0..36.0).contains(&mean), "mean avalanche {mean}");
        // In particular, adjacent pair indices share no visible structure.
        for index in 0..64u64 {
            let a = derive_seed(9, TAG_PAIR_OT, index);
            let b = derive_seed(9, TAG_PAIR_OT, index + 1);
            assert!((a ^ b).count_ones() >= 10, "index {index}");
        }
    }

    #[test]
    fn masks_are_order_independent() {
        // The mask of a gate/peer pair is a pure function — it does not
        // depend on how many masks were drawn before it.
        let stream = |seed| derive_stream(seed, TAG_AND_MASK);
        let a = mask_bit(stream(42), 4, 17, 2);
        let _ = mask_bit(stream(42), 4, 3, 1);
        let _ = mask_bit(stream(42), 4, 99, 3);
        assert_eq!(a, mask_bit(stream(42), 4, 17, 2));
        // Different parties draw from different streams.
        let bits_a: Vec<bool> = (0..64).map(|w| mask_bit(stream(1), 4, w, 2)).collect();
        let bits_b: Vec<bool> = (0..64).map(|w| mask_bit(stream(2), 4, w, 2)).collect();
        assert_ne!(bits_a, bits_b);
    }

    /// A loop-back endpoint for driving a single party by hand: decodes
    /// everything the party writes and feeds it scripted encodings.
    struct ScriptedEndpoint {
        nodes: usize,
        sent: Vec<(usize, GmwMessage)>,
        inbox: Vec<Vec<Vec<u8>>>,
        /// The encoding the last receive lent out.
        lent: Vec<u8>,
    }

    impl ScriptedEndpoint {
        fn new(nodes: usize) -> Self {
            ScriptedEndpoint {
                nodes,
                sent: Vec::new(),
                inbox: (0..nodes).map(|_| Vec::new()).collect(),
                lent: Vec::new(),
            }
        }

        fn feed(&mut self, from: usize, message: GmwMessage) {
            self.inbox[from].push(message.encode());
        }
    }

    impl Endpoint<GmwMessage> for ScriptedEndpoint {
        fn nodes(&self) -> usize {
            self.nodes
        }
        fn send_bytes(&mut self, to: usize, write: &mut dyn FnMut(&mut Vec<u8>)) {
            let mut bytes = Vec::new();
            write(&mut bytes);
            let message = GmwMessage::decode_exact(&bytes).expect("a party writes one message");
            self.sent.push((to, message));
        }
        fn recv_bytes(&mut self, peer: usize) -> Option<&[u8]> {
            if self.inbox[peer].is_empty() {
                return None;
            }
            self.lent = self.inbox[peer].remove(0);
            Some(&self.lent)
        }
    }

    #[test]
    fn wire_payload_content_is_derived_from_the_pair_seed() {
        // Drive party 1 of a 2-party single-AND execution by hand and pin
        // the exact payload bytes it puts on the wire against the
        // documented derivation — the "replayable by construction" claim.
        let circuit = tiny_and_circuit();
        let master = 0xFEED;
        let ot = OtConfig::extension();
        let mut party = GmwParty::new(
            &circuit,
            1,
            2,
            vec![true, false],
            &ot,
            master,
            circuit.layers(),
        );
        let pair_seed = derive_seed(master, TAG_PAIR_PAYLOAD, 1);
        let mut endpoint = ScriptedEndpoint::new(2);

        // First poll: party 1 sends its OtSetup (peer side) and waits for
        // the owner's.
        assert_eq!(party.poll(&mut endpoint), ActorStatus::Idle);
        let (to, setup) = &endpoint.sent[0];
        assert_eq!(*to, 0);
        let GmwMessage::OtSetup { ot_payload } = setup else {
            panic!("first message must be the lazy OtSetup");
        };
        let (_, peer_to_owner) = ot.wire_setup_bytes();
        assert_eq!(
            ot_payload,
            &crate::wire::ot_payload(
                pair_seed,
                crate::wire::PAYLOAD_SETUP_FROM_PEER,
                0,
                peer_to_owner
            )
        );

        // Feed the owner's OtSetup; the party then sends its layer-0
        // Choices with the receiver-side payload from the same stream.
        let (owner_to_peer, _) = ot.wire_setup_bytes();
        endpoint.feed(
            0,
            GmwMessage::OtSetup {
                ot_payload: crate::wire::ot_payload(
                    pair_seed,
                    crate::wire::PAYLOAD_SETUP_FROM_OWNER,
                    0,
                    owner_to_peer,
                ),
            },
        );
        assert_eq!(party.poll(&mut endpoint), ActorStatus::Idle);
        let (to, choices) = endpoint.sent.last().unwrap();
        assert_eq!(*to, 0);
        let GmwMessage::Choices {
            layer, ot_payload, ..
        } = choices
        else {
            panic!("after setup the party batches its layer-0 choices");
        };
        assert_eq!(*layer, 0);
        let expected = crate::wire::ot_payload(
            pair_seed,
            crate::wire::PAYLOAD_RECEIVER,
            0,
            ot.wire_receiver_bytes_per_ot(),
        );
        assert_eq!(ot_payload, &expected);
        assert!(expected.iter().any(|&b| b != 0), "payload is key material");
    }

    /// One layer of two independent AND gates.
    fn two_and_circuit() -> Circuit {
        let mut b = CircuitBuilder::new();
        let (w, x, y, z) = (b.input(), b.input(), b.input(), b.input());
        let p = b.and(w, x);
        let q = b.and(y, z);
        b.output(p);
        b.output(q);
        b.build().unwrap()
    }

    /// Drives party `index` of a two-party run over [`two_and_circuit`]
    /// on `script` from its peer and returns why it failed.  A failed
    /// party stays failed: polled again, it reports the same.
    fn reject(index: usize, script: Vec<GmwMessage>) -> MpcError {
        let circuit = two_and_circuit();
        let ot = OtConfig::extension();
        let mut party = GmwParty::new(&circuit, index, 2, vec![true; 4], &ot, 3, circuit.layers());
        let mut endpoint = ScriptedEndpoint::new(2);
        for message in script {
            endpoint.feed(1 - index, message);
        }
        assert_eq!(party.poll(&mut endpoint), ActorStatus::Failed);
        assert_eq!(party.poll(&mut endpoint), ActorStatus::Failed);
        assert!(!party.is_finished());
        party.failure().cloned().expect("a failed party says why")
    }

    /// The owner's `OtSetup`, then `batch` as the layer-0 message.
    fn setup_then(batch: GmwMessage) -> Vec<GmwMessage> {
        let setup = GmwMessage::OtSetup {
            ot_payload: vec![0; OtConfig::extension().wire_setup_bytes().0],
        };
        vec![setup, batch]
    }

    /// [`MpcError::UnexpectedMessage`] for layer 0 of [`two_and_circuit`]
    /// under the extension provider: `expected` carries its payload
    /// (10 bytes per gate with `Choices`, 1 with `Responses`, the key
    /// material with `OtSetup`), `found` the message's kind, layer, width
    /// and payload.
    fn unexpected(
        party: usize,
        expected: GmwKind,
        (found, found_layer, found_gates, found_payload): (GmwKind, u32, usize, usize),
    ) -> MpcError {
        let payload = match expected {
            GmwKind::Choices => 20,
            GmwKind::Responses => 2,
            GmwKind::OtSetup => OtConfig::extension().wire_setup_bytes().0,
        };
        MpcError::UnexpectedMessage {
            party,
            peer: 1 - party,
            expected,
            layer: 0,
            gates: 2,
            payload,
            found,
            found_layer,
            found_gates,
            found_payload,
        }
    }

    #[test]
    fn short_choices_batch_is_rejected_in_every_build() {
        // Once a `debug_assert`: a release build indexed past the end of
        // the short batch.
        let error = reject(
            0,
            setup_then(GmwMessage::Choices {
                layer: 0,
                pairs: vec![(true, false)],
                ot_payload: vec![0; 10],
            }),
        );
        assert_eq!(
            error,
            unexpected(0, GmwKind::Choices, (GmwKind::Choices, 0, 1, 10))
        );
        assert_eq!(
            error.to_string(),
            "party 0: Choices from party 1 carry layer 0 with 1 gates and 10 payload bytes, \
             expected Choices for layer 0 with 2 gates and 20 payload bytes"
        );
    }

    #[test]
    fn short_responses_batch_is_rejected_in_every_build() {
        // Once a `debug_assert`: a release build zipped the short batch
        // into its shares and finished with a wrong output.
        let error = reject(
            1,
            setup_then(GmwMessage::Responses {
                layer: 0,
                bits: vec![true],
                ot_payload: vec![0],
            }),
        );
        assert_eq!(
            error,
            unexpected(1, GmwKind::Responses, (GmwKind::Responses, 0, 1, 1))
        );
        assert_eq!(
            error.to_string(),
            "party 1: Responses from party 0 carry layer 0 with 1 gates and 1 payload bytes, \
             expected Responses for layer 0 with 2 gates and 2 payload bytes"
        );
    }

    #[test]
    fn out_of_order_layer_tag_is_rejected_in_every_build() {
        let error = reject(
            1,
            setup_then(GmwMessage::Responses {
                layer: 7,
                bits: vec![true, false],
                ot_payload: vec![0; 2],
            }),
        );
        assert_eq!(
            error,
            unexpected(1, GmwKind::Responses, (GmwKind::Responses, 7, 2, 2))
        );
    }

    #[test]
    fn short_ot_payloads_are_rejected_in_every_build() {
        // Once accepted on layer and width alone: a batch or a set-up
        // whose OT payload is not the provider's length for it is out of
        // protocol, one byte short as much as empty.
        let choices = GmwMessage::Choices {
            layer: 0,
            pairs: vec![(true, false); 2],
            ot_payload: vec![0; 19],
        };
        assert_eq!(
            reject(0, setup_then(choices)),
            unexpected(0, GmwKind::Choices, (GmwKind::Choices, 0, 2, 19))
        );
        let responses = GmwMessage::Responses {
            layer: 0,
            bits: vec![true, false],
            ot_payload: vec![0; 1],
        };
        assert_eq!(
            reject(1, setup_then(responses)),
            unexpected(1, GmwKind::Responses, (GmwKind::Responses, 0, 2, 1))
        );
        let (from_owner, _) = OtConfig::extension().wire_setup_bytes();
        let setup = GmwMessage::OtSetup {
            ot_payload: vec![0; from_owner - 1],
        };
        assert_eq!(
            reject(1, vec![setup]),
            unexpected(
                1,
                GmwKind::OtSetup,
                (GmwKind::OtSetup, 0, 0, from_owner - 1)
            )
        );
    }

    #[test]
    fn bytes_that_are_not_one_message_end_the_party_with_the_codec_error() {
        // What a socket's arrival check reports for the same bytes.
        let circuit = two_and_circuit();
        let mut party = GmwParty::new(
            &circuit,
            0,
            2,
            vec![true; 4],
            &OtConfig::extension(),
            3,
            circuit.layers(),
        )
        .with_established_sessions(true);
        let mut endpoint = ScriptedEndpoint::new(2);
        endpoint.inbox[1].push(vec![0x01, 0x00, 0x00]);
        assert_eq!(party.poll(&mut endpoint), ActorStatus::Failed);
        let error = WireError::BadTag {
            tag: 0x01,
            what: "GmwMessage",
        };
        assert_eq!(
            party.failure(),
            Some(&MpcError::Transport(TransportError::Codec {
                peer: 1,
                error
            }))
        );
    }

    #[test]
    fn a_message_of_the_wrong_kind_is_rejected_wherever_it_arrives() {
        let responses = || GmwMessage::Responses {
            layer: 0,
            bits: vec![true, false],
            ot_payload: vec![0; 2],
        };
        let choices = GmwMessage::Choices {
            layer: 0,
            pairs: vec![(true, false); 2],
            ot_payload: vec![0; 20],
        };
        // Where the peer's OtSetup is due.
        assert_eq!(
            reject(1, vec![responses()]),
            unexpected(1, GmwKind::OtSetup, (GmwKind::Responses, 0, 2, 2))
        );
        // Where Choices are due: Responses, or a second OtSetup.
        assert_eq!(
            reject(0, setup_then(responses())),
            unexpected(0, GmwKind::Choices, (GmwKind::Responses, 0, 2, 2))
        );
        let second_setup = setup_then(GmwMessage::OtSetup { ot_payload: vec![] });
        assert_eq!(
            reject(0, second_setup),
            unexpected(0, GmwKind::Choices, (GmwKind::OtSetup, 0, 0, 0))
        );
        // Where Responses are due.
        assert_eq!(
            reject(1, setup_then(choices)),
            unexpected(1, GmwKind::Responses, (GmwKind::Choices, 0, 2, 20))
        );
    }

    #[test]
    fn hoisted_mask_mixing_matches_the_per_gate_derivation() {
        for (seed, parties, wire, peer) in [(42u64, 4usize, 17usize, 2usize), (7, 8, 9_000, 7)] {
            let stream = derive_stream(seed, TAG_AND_MASK);
            let index = (wire * parties + peer) as u64;
            assert_eq!(mix(stream ^ index), derive_seed(seed, TAG_AND_MASK, index));
            assert_eq!(
                derive_seed(seed, TAG_AND_MASK, index) & 1 == 1,
                mask_bit(stream, parties, wire, peer)
            );
        }
    }

    #[test]
    #[should_panic(expected = "has not finished")]
    fn output_share_requires_completion() {
        let circuit = tiny_and_circuit();
        let party = GmwParty::new(
            &circuit,
            0,
            2,
            vec![false, true],
            &OtConfig::extension(),
            7,
            circuit.layers(),
        );
        let _ = party.output_share();
    }
}
