//! The per-party GMW state machine.
//!
//! A [`GmwParty`] is one party's half of the GMW protocol, written as a
//! resumable [`NodeActor`]: it evaluates free gates locally and performs
//! the AND-gate oblivious transfers with each peer through the transport.
//! Because each party is a self-contained actor, a block's parties can run
//! round-robin through in-process queues ([`dstress_net::SimTransport`])
//! or over real loopback TCP, every node driven from one loop on the
//! calling thread ([`dstress_net::SocketTransport`]) — with bit-identical
//! results, since parties consume messages in a protocol-fixed per-peer
//! order and derive all randomness from their own seeded streams.
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
//! 2. `i` forms the layer's four message planes `r, r⊕x, r⊕y, r⊕x⊕y`
//!    (`r` its masks, `x, y` its own input shares), serves the whole
//!    layer through the pair's packed door
//!    [`OtProvider::transfer_planes`] with `j`'s choice planes, and
//!    answers with one [`GmwMessage::Responses`] carrying the selected
//!    plane.
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
//! direction (sized by [`OtConfig::session_setup`]).  A party starts on
//! its pairs' sessions already set up, sends no `OtSetup` and charges no
//! setup: whoever built the parties paid for the sessions, through one
//! function ([`SessionSetup::encode_exchange`]).  An engine run pays once
//! per node pair, in its Initialization step; the one-shot door
//! ([`crate::gmw::execute_batch`]) charges each execution with an AND
//! layer one setup per pair, so a circuit with no AND gates pays no setup
//! rounds, bytes or base OTs.
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
//! traffic is that tally ([`crate::gmw::execute_established`]).
//!
//! ## The layered hot path: who owns which buffer
//!
//! A deep, narrow circuit (the Eisenberg–Noe step: 106 layers of ≈ 11
//! AND gates) makes the per-message overhead, not the gate work, the
//! cost of an execution, so one pair-layer exchange hashes nothing and,
//! once the buffers have grown to a layer's size, allocates nothing:
//!
//! * **The circuit** owns its layering ([`Circuit::layers`], computed
//!   once per circuit): each layer's wire ids, nothing else.  Parties
//!   borrow it and read each AND gate's operands from the gate list
//!   ([`Circuit::and_inputs`]) as a layer starts.
//! * **The party** holds its wire shares as a bitset, one bit per wire,
//!   and its scratch as word planes reused from layer to layer: gate `i`
//!   of the layer in flight is bit `i % 64` of word `i / 64`, the
//!   LSB-first order of the wire's bit planes, so a plane is copied to
//!   or from a message as little-endian words.  Its x- and y-input
//!   shares are gathered from the bitset once when the layer starts (and
//!   written to every pair owner from there); its accumulating output
//!   shares start as the local cross term `x & y` and fold in masks and
//!   responses a word — 64 gates — at a time; toward the peer being
//!   served it holds that peer's two choice planes, the four message
//!   planes and the plane the provider selects from them.  A finished
//!   layer's shares are scattered back into the bitset.
//! * **The transport** owns the bytes: one lane per sender → recipient
//!   (per stream and peer on sockets).  A party writes each `Choices` /
//!   `Responses` straight into the lane ([`Endpoint::send_bytes`] with
//!   the in-place writers of [`crate::wire`]): header, planes, and the
//!   seed-derived OT payload generated in place.
//!   It reads a peer's batch as a view borrowed from the lane
//!   ([`Endpoint::recv_bytes`]), whose planes are read as words into
//!   the provider's choice planes or straight into the share XORs; the
//!   payload's length is checked and its bytes are never copied.
//!
//! None of this is visible from outside: the bytes a party writes are
//! `GmwMessage::encode`'s by construction (one writer, [`crate::wire`]),
//! every AND mask is still the seed-keyed
//! `derive_seed(mask_seed, "and_mask", wire · parties + peer)` (its two
//! index-independent mixing rounds are hoisted out of the per-gate loop;
//! the bits are packed 64 to a word), every provider's packed door
//! selects and charges what one [`OtProvider::transfer`] per gate would,
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
//! // The same parties run on the deterministic backend or over TCP.
//! let ot = OtConfig::extension();
//! let mut traffic = TrafficAccountant::new();
//! let sim = protocol
//!     .execute_on(&SimTransport, &circuit, &shares, &ot, &mut traffic, &mut Xoshiro256::new(99))
//!     .unwrap();
//! let mut traffic = TrafficAccountant::new();
//! let socket = protocol
//!     .execute_on(
//!         &SocketTransport::new(),
//!         &circuit,
//!         &shares,
//!         &ot,
//!         &mut traffic,
//!         &mut Xoshiro256::new(99),
//!     )
//!     .unwrap();
//!
//! assert_eq!(sim.output_shares, socket.output_shares);
//! assert_eq!(sim.counts, socket.counts);
//! assert_eq!(decode_word(&reconstruct_outputs(&sim.output_shares).unwrap()), 42);
//! ```

use crate::error::MpcError;
use crate::ot::{
    pack_plane, plane_bit, plane_words, set_plane_bit, ElGamalOt, OtProvider, SimulatedOtExtension,
    BASE_OT_ELEMENT_BYTES,
};
use crate::wire::{self, GmwKind, GmwView};
use dstress_circuit::{Circuit, CircuitError, CircuitLayers, Gate, WireId};
use dstress_crypto::group::{Group, GroupKind};
use dstress_math::rng::splitmix64_finalize as mix;
use dstress_net::cost::OperationCounts;
use dstress_net::transport::{ActorStatus, Endpoint, NodeActor, TransportError};
use dstress_net::wire::{Wire, WireError};

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
    /// material of the pair's extension session.  No party sends it: a
    /// party starts on set-up sessions, and whoever set them up — a run's
    /// Initialization step, or the one-shot door for an execution with an
    /// AND layer — encodes each pair's two `OtSetup` messages and charges
    /// their bytes ([`SessionSetup::encode_exchange`]).  A provider with no
    /// per-session setup (public-key OT) has none.  A party that receives
    /// one rejects it.
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
    pub fn provider(&self, seed: u64) -> Box<dyn OtProvider> {
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
    /// setup charge, for a run's Initialization step and for each
    /// one-shot execution with an AND layer alike — both charge it through
    /// [`SessionSetup::encode_exchange`].
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
    /// Writes the pair's two `OtSetup` encodings into `scratch` in turn —
    /// the owner's, then the peer's answer, each with key material
    /// derived from `pair_seed`
    /// ([`crate::wire::write_ot_setup`]) — checks each as one message and
    /// returns their lengths `(owner → peer, peer → owner)`: the bytes a
    /// session's setup charges.  `(0, 0)` when the provider exchanges no
    /// setup messages.  The one place an `OtSetup` is encoded.
    ///
    /// # Errors
    ///
    /// The [`WireError`] of an encoding that is not one message.
    pub fn encode_exchange(
        &self,
        pair_seed: u64,
        scratch: &mut Vec<u8>,
    ) -> Result<(usize, usize), WireError> {
        if self.wire == (0, 0) {
            return Ok((0, 0));
        }
        let mut encode = |len, direction| {
            scratch.clear();
            wire::write_ot_setup(scratch, pair_seed, direction, len);
            GmwMessage::check_exact(scratch).map(|()| scratch.len())
        };
        Ok((
            encode(self.wire.0, wire::PAYLOAD_SETUP_FROM_OWNER)?,
            encode(self.wire.1, wire::PAYLOAD_SETUP_FROM_PEER)?,
        ))
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

/// The payload-stream seed of the pair of parties `a` and `b`, keyed by
/// the unordered pair (lower index first) so both ends derive the same
/// stream (see [`crate::wire::ot_payload`]).
pub(crate) fn pair_payload_seed(master_seed: u64, parties: usize, a: usize, b: usize) -> u64 {
    let (lo, hi) = (a.min(b), a.max(b));
    derive_seed(master_seed, TAG_PAIR_PAYLOAD, (lo * parties + hi) as u64)
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
    ots: Vec<Option<Box<dyn OtProvider>>>,
    /// Per-peer payload-stream seed, identical at both ends of a pair, so
    /// the simulated OT payload *content* on the wire is replayable by
    /// construction (see [`crate::wire::ot_payload`]).
    pair_payload_seed: Vec<u64>,
    /// Receiver-side wire payload per OT (cached from the [`OtConfig`]).
    ot_recv_payload: usize,
    /// Sender-side wire payload per OT.
    ot_send_payload: usize,
    /// This party's share of every circuit input, bit `i` for input `i`
    /// (bit `i % 64` of word `i / 64`).
    input_share: Vec<u64>,
    /// This party's share of every wire, bit `w` for wire id `w` in the
    /// same layout (filled as the schedule runs).
    wires: Vec<u64>,
    counts: OperationCounts,
    /// Scratch reused across layers, each a word plane over the gates of
    /// the layer in flight (gate `i` is bit `i % 64` of word `i / 64`):
    /// this party's x- and y-input shares and its accumulating output
    /// shares; toward the peer being served, that peer's x- and y-choice
    /// planes, the four OT message planes `r, r⊕x, r⊕y, r⊕x⊕y` back to
    /// back, and the plane the provider selects from them.
    xs: Vec<u64>,
    ys: Vec<u64>,
    shares: Vec<u64>,
    peer_xs: Vec<u64>,
    peer_ys: Vec<u64>,
    messages: Vec<u64>,
    selected: Vec<u64>,
    /// Measured one-way message rounds this party participated in per
    /// pair: 2 per exchange (choices out, responses back).  All pairs run
    /// in parallel, so this is the sequential critical path, not a sum
    /// over pairs.
    protocol_rounds: u64,
    // Schedule cursor.
    round: usize,
    free_done: bool,
    layer_state: Option<LayerState>,
    finished: bool,
    /// Why the party stopped, once a peer's message broke the schedule.
    failure: Option<MpcError>,
}

impl<'c> GmwParty<'c> {
    /// Creates party `index` of `parties` parties, walking
    /// `layers` — a layering of `circuit`: its depth layering
    /// ([`Circuit::layers`]) or its serial one ([`CircuitLayers::serial`]),
    /// as [`GmwBatching`] chooses.  Its pairs' OT-extension sessions are
    /// already set up: the party sends no `OtSetup` and charges no setup.
    ///
    /// `input_share` is this party's XOR share of every circuit input; the
    /// party keeps it packed, one bit per input.
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
        let pair_payload_seed = (0..parties)
            .map(|peer| pair_payload_seed(master_seed, parties, index, peer))
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
            input_share: pack_plane(&input_share),
            wires: vec![0; plane_words(circuit.len())],
            counts: OperationCounts::default(),
            xs: Vec::new(),
            ys: Vec::new(),
            shares: Vec::new(),
            peer_xs: Vec::new(),
            peer_ys: Vec::new(),
            messages: Vec::new(),
            selected: Vec::new(),
            protocol_rounds: 0,
            round: 0,
            free_done: false,
            layer_state: None,
            finished: false,
            failure: None,
        }
    }

    /// This party's index.
    pub fn index(&self) -> usize {
        self.index
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
    /// exchanges × pairs): two one-way rounds per layer of its layering —
    /// per AND layer, or per AND gate on the serial one.
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
            .map(|&wire| plane_bit(&self.wires, wire as usize) == 1)
            .collect()
    }

    /// Evaluates one non-AND gate locally.
    ///
    /// # Errors
    ///
    /// [`CircuitError::LayeringMismatch`] if `w` is an AND gate: the
    /// layering is not this circuit's.
    #[inline(always)]
    fn eval_free_gate(&mut self, w: WireId) -> Result<(), MpcError> {
        let wire = |w: WireId| plane_bit(&self.wires, w as usize);
        // Party 0 holds constants and NOT flips; all other parties'
        // shares are zero.
        let flip = u64::from(self.index == 0);
        let value = match self.circuit.gate(w) {
            Gate::Input(i) => plane_bit(&self.input_share, i as usize),
            Gate::ConstFalse => 0,
            Gate::ConstTrue => flip,
            Gate::Xor(a, b) => wire(a) ^ wire(b),
            Gate::Not(a) => wire(a) ^ flip,
            Gate::And(_, _) => return Err(CircuitError::LayeringMismatch { wire: w }.into()),
        };
        set_plane_bit(&mut self.wires, w as usize, value);
        Ok(())
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
        // pair owner in one message each — the share words written as
        // they are, each owner's payload generated into its lane.
        if !st.choices_sent {
            let planes = [&self.xs[..], &self.ys[..]];
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
            self.peer_xs.clear();
            self.peer_xs.extend(wire::word_plane(choices.plane(0)));
            self.peer_ys.clear();
            self.peer_ys.extend(wire::word_plane(choices.plane(1)));
            // The sender's masks, 64 to a word; each pair's cross terms
            // x_i·y_j ⊕ x_j·y_i are encoded in the message planes, indexed
            // by the receiver's choice.
            let words = plane_words(width);
            self.messages.clear();
            self.messages.resize(4 * words, 0);
            let (r, rest) = self.messages.split_at_mut(words);
            let (r_x, rest) = rest.split_at_mut(words);
            let (r_y, r_xy) = rest.split_at_mut(words);
            for (k, chunk) in gates.chunks(64).enumerate() {
                let masks = chunk.iter().enumerate().fold(0, |word, (shift, &w)| {
                    let r = mask_bit(self.mask_stream, self.parties, w as usize, peer);
                    word | u64::from(r) << shift
                });
                let (x, y) = (self.xs[k], self.ys[k]);
                (r[k], r_x[k], r_y[k], r_xy[k]) = (masks, masks ^ x, masks ^ y, masks ^ x ^ y);
                self.shares[k] ^= masks;
            }
            let provider = self.ots[peer].as_mut().expect("pair owner has a provider");
            let choice_planes = [&self.peer_xs[..], &self.peer_ys[..]];
            let message_planes = [&*r, &*r_x, &*r_y, &*r_xy];
            provider.transfer_planes(message_planes, choice_planes, width, &mut self.selected);
            let (plane, seed) = (&self.selected, self.pair_payload_seed[peer]);
            let payload_len = width * self.ot_send_payload;
            endpoint.send_bytes(peer, &mut |out| {
                wire::write_responses(out, layer_tag, width, plane, seed, payload_len)
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
            for (share, word) in self
                .shares
                .iter_mut()
                .zip(wire::word_plane(responses.plane(0)))
            {
                *share ^= word;
            }
            st.next_receiver_peer += 1;
        }

        // Commit the layer's output shares and advance the schedule.
        for (i, &w) in gates.iter().enumerate() {
            set_plane_bit(&mut self.wires, w as usize, plane_bit(&self.shares, i));
        }
        // One layer = one choices/responses exchange = two one-way
        // rounds, regardless of how many gates it carried.
        self.protocol_rounds += 2;
        self.round = st.layer + 1;
        self.free_done = false;
        Ok(true)
    }

    /// Walks the schedule as far as the peers' messages allow: each gap's
    /// free gates, then the next AND layer.
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
                    self.eval_free_gate(w)?;
                }
                self.free_done = true;
            }
            if self.round == self.layers.rounds() {
                break;
            }
            // Start the next layer: gather the party's input shares into
            // word planes once, each gate's operands read from the gate
            // list, and seed each gate's share with the local cross term
            // x_i · y_i, 64 gates per word.
            // (Each word is built in a register: or-ing bit by bit into
            // the plane would make every gate wait on the previous store.)
            self.xs.clear();
            self.ys.clear();
            let (circuit, gates) = (self.circuit, &self.layers.and_layers()[self.round]);
            let (mut x, mut y) = (0, 0);
            for (i, &w) in gates.iter().enumerate() {
                let (a, b) = circuit.and_inputs(w)?;
                x |= plane_bit(&self.wires, a as usize) << (i % 64);
                y |= plane_bit(&self.wires, b as usize) << (i % 64);
                if i % 64 == 63 {
                    self.xs.push(x);
                    self.ys.push(y);
                    (x, y) = (0, 0);
                }
            }
            if gates.len() % 64 != 0 {
                self.xs.push(x);
                self.ys.push(y);
            }
            self.shares.clear();
            self.shares
                .extend(self.xs.iter().zip(&self.ys).map(|(x, y)| x & y));
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
    /// Parses `bytes` from `peer` as the message the schedule expects
    /// now: of kind `expected` with `payload` OT payload bytes and the
    /// layer in flight's tag and width.
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
        if view.kind == expected
            && (view.layer, view.gates) == (layer, gates)
            && view.ot_payload.len() == payload
        {
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

        // First poll: party 1 sends its layer-0 Choices with the
        // receiver-side payload from the pair's stream.
        assert_eq!(party.poll(&mut endpoint), ActorStatus::Idle);
        assert_eq!(endpoint.sent.len(), 1, "no OtSetup goes out first");
        let (to, choices) = endpoint.sent.last().unwrap();
        assert_eq!(*to, 0);
        let GmwMessage::Choices {
            layer, ot_payload, ..
        } = choices
        else {
            panic!("the party opens with its layer-0 choices");
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

    #[test]
    fn encode_exchange_writes_the_seed_derived_key_material_each_way() {
        // The owner's `OtSetup`, then the peer's, each carrying the key
        // material of its direction from the pair's stream; the scratch
        // buffer holds the last one.
        let session = OtConfig::extension().session_setup();
        let mut scratch = Vec::new();
        let lengths = session.encode_exchange(0xFEED, &mut scratch).unwrap();
        let message = |direction, len| GmwMessage::OtSetup {
            ot_payload: crate::wire::ot_payload(0xFEED, direction, 0, len),
        };
        let to_peer = message(crate::wire::PAYLOAD_SETUP_FROM_OWNER, session.wire.0);
        let to_owner = message(crate::wire::PAYLOAD_SETUP_FROM_PEER, session.wire.1);
        assert_eq!(lengths, (to_peer.encoded_len(), to_owner.encoded_len()));
        assert_eq!(scratch, to_owner.encode());
        // Public-key OT exchanges nothing.
        let none = OtConfig::elgamal(GroupKind::Sim64).session_setup();
        assert_eq!(none.encode_exchange(0xFEED, &mut scratch), Ok((0, 0)));
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
        assert!(!party.finished);
        party.failure().cloned().expect("a failed party says why")
    }

    #[test]
    fn another_circuits_layering_ends_the_party_typed() {
        // [`two_and_circuit`] with XOR gates where it has AND gates: its
        // layering puts wire 4 among the free gates, and the AND
        // circuit's puts it in an AND layer.
        let and = two_and_circuit();
        let mut b = CircuitBuilder::new();
        let (w, x, y, z) = (b.input(), b.input(), b.input(), b.input());
        let p = b.xor(w, x);
        let q = b.xor(y, z);
        b.output(p);
        b.output(q);
        let xor = b.build().unwrap();
        let ot = OtConfig::extension();
        for (circuit, layers) in [(&and, xor.layers()), (&xor, and.layers())] {
            let mut party = GmwParty::new(circuit, 0, 2, vec![true; 4], &ot, 3, layers);
            let mut endpoint = ScriptedEndpoint::new(2);
            assert_eq!(party.poll(&mut endpoint), ActorStatus::Failed);
            let misplaced = MpcError::Circuit(CircuitError::LayeringMismatch { wire: 4 });
            assert_eq!(party.failure(), Some(&misplaced));
        }
    }

    /// [`MpcError::UnexpectedMessage`] for layer 0 of [`two_and_circuit`]
    /// under the extension provider: `expected` carries its payload
    /// (10 bytes per gate with `Choices`, 1 with `Responses`), `found` the
    /// message's kind, layer, width and payload.
    fn unexpected(
        party: usize,
        expected: GmwKind,
        (found, found_layer, found_gates, found_payload): (GmwKind, u32, usize, usize),
    ) -> MpcError {
        let payload = if expected == GmwKind::Choices { 20 } else { 2 };
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
            vec![GmwMessage::Choices {
                layer: 0,
                pairs: vec![(true, false)],
                ot_payload: vec![0; 10],
            }],
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
            vec![GmwMessage::Responses {
                layer: 0,
                bits: vec![true],
                ot_payload: vec![0],
            }],
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
            vec![GmwMessage::Responses {
                layer: 7,
                bits: vec![true, false],
                ot_payload: vec![0; 2],
            }],
        );
        assert_eq!(
            error,
            unexpected(1, GmwKind::Responses, (GmwKind::Responses, 7, 2, 2))
        );
    }

    #[test]
    fn short_ot_payloads_are_rejected_in_every_build() {
        // Once accepted on layer and width alone: a batch whose OT payload
        // is not the provider's length for it is out of protocol, one byte
        // short as much as empty.
        let choices = GmwMessage::Choices {
            layer: 0,
            pairs: vec![(true, false); 2],
            ot_payload: vec![0; 19],
        };
        assert_eq!(
            reject(0, vec![choices]),
            unexpected(0, GmwKind::Choices, (GmwKind::Choices, 0, 2, 19))
        );
        let responses = GmwMessage::Responses {
            layer: 0,
            bits: vec![true, false],
            ot_payload: vec![0; 1],
        };
        assert_eq!(
            reject(1, vec![responses]),
            unexpected(1, GmwKind::Responses, (GmwKind::Responses, 0, 2, 1))
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
        );
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
        // A party starts on set-up sessions, so an `OtSetup` is out of
        // protocol wherever it arrives.
        let (from_owner, from_peer) = OtConfig::extension().wire_setup_bytes();
        let setup = |len| GmwMessage::OtSetup {
            ot_payload: vec![0; len],
        };
        // Where Choices are due: Responses, or the peer's OtSetup.
        assert_eq!(
            reject(0, vec![responses()]),
            unexpected(0, GmwKind::Choices, (GmwKind::Responses, 0, 2, 2))
        );
        assert_eq!(
            reject(0, vec![setup(from_peer)]),
            unexpected(0, GmwKind::Choices, (GmwKind::OtSetup, 0, 0, from_peer))
        );
        // Where Responses are due: Choices, or the owner's OtSetup.
        assert_eq!(
            reject(1, vec![choices]),
            unexpected(1, GmwKind::Responses, (GmwKind::Choices, 0, 2, 20))
        );
        assert_eq!(
            reject(1, vec![setup(from_owner)]),
            unexpected(1, GmwKind::Responses, (GmwKind::OtSetup, 0, 0, from_owner))
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
