//! Oblivious transfer providers.
//!
//! GMW needs exactly one primitive beyond XOR-sharing: a 1-out-of-4
//! oblivious transfer per AND gate per party pair.  The sender holds four
//! bits, the receiver holds a two-bit choice, and the receiver learns only
//! the chosen bit while the sender learns nothing about the choice.
//!
//! Two providers are implemented:
//!
//! * [`ElGamalOt`] — a real public-key OT in the style of Bellare–Micali:
//!   the receiver publishes four public keys of which it knows the secret
//!   key for exactly the chosen index; the sender encrypts each bit under
//!   the corresponding key.  Honest-but-curious security only, which is
//!   DStress's threat model (§3.2).  Expensive (≈10 exponentiations per
//!   transfer), so it is used by unit tests and the cryptographic
//!   microbenchmarks.
//! * [`SimulatedOtExtension`] — a functionally-correct stand-in for
//!   IKNP-style OT extension [41, 46], which is what the prototype's GMW
//!   implementation uses (§5.3 credits OT extension for the low traffic).
//!   It delivers the chosen bit directly and *accounts* the amortised
//!   per-OT work (one extended OT each), plus the κ base OTs per party
//!   pair charged at session setup.  The bytes the extension would move
//!   ride on the wire as seed-derived payloads sized by
//!   [`crate::party::OtConfig`] (≈11 bytes per OT with the GMW statistical
//!   parameter κ = 80), and are measured there.  See `DESIGN.md` for the
//!   substitution argument.

use dstress_crypto::elgamal::{self, KeyPair, PublicKey};
use dstress_crypto::group::Group;
use dstress_crypto::DlogTable;
use dstress_math::rng::Xoshiro256;
use dstress_net::cost::OperationCounts;

/// The result of a single oblivious transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OtOutcome {
    /// The bit the receiver learned.
    pub received: bool,
}

/// The result of a batch of oblivious transfers performed in one message
/// exchange (one circuit layer's worth for a round-batched evaluator).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchOtOutcome {
    /// The bit the receiver learned from each transfer, in request order.
    pub received: Vec<bool>,
}

/// One batched-transfer request: the sender's four messages and the
/// receiver's two-bit choice.
pub type OtRequest = ([bool; 4], (bool, bool));

/// Words of a `gates`-bit plane as [`OtProvider::transfer_planes`] reads
/// and writes it: gate `i` is bit `i % 64` of word `i / 64` (LSB-first,
/// the bit order of the GMW wire planes).
pub fn plane_words(gates: usize) -> usize {
    gates.div_ceil(64)
}

/// The live bits of a `gates`-bit plane's last word: the bits of the
/// gates it holds, none of the padding above them.
pub(crate) fn last_word_mask(gates: usize) -> u64 {
    match gates % 64 {
        0 => u64::MAX,
        live => (1 << live) - 1,
    }
}

/// Bit `i` of a word plane (bit `i % 64` of word `i / 64`), as 0 or 1.
///
/// Bits stay `u64`s from the plane to the plane they are written into:
/// converting each to `bool` and back made a GMW party's free-gate walk
/// about a fifth slower.
pub(crate) fn plane_bit(plane: &[u64], i: usize) -> u64 {
    plane[i / 64] >> (i % 64) & 1
}

/// Sets bit `i` of a word plane, which is still clear, to `bit` (0 or 1).
pub(crate) fn set_plane_bit(plane: &mut [u64], i: usize, bit: u64) {
    plane[i / 64] |= bit << (i % 64);
}

/// `bits` packed into a word plane, bit `i` at bit `i % 64` of word
/// `i / 64`.
pub(crate) fn pack_plane(bits: &[bool]) -> Vec<u64> {
    bits.chunks(64)
        .map(|chunk| chunk.iter().rev().fold(0, |word, &b| word << 1 | b as u64))
        .collect()
}

/// A provider of 1-out-of-4 oblivious transfers.
pub trait OtProvider {
    /// Performs one 1-out-of-4 OT.  `messages[m]` is indexed by
    /// `m = 2·choice.0 + choice.1`.
    fn transfer(&mut self, messages: [bool; 4], choice: (bool, bool)) -> OtOutcome;

    /// Performs a batch of OTs that share one message exchange, as when a
    /// whole circuit layer's transfers ride in a single round: the
    /// requests packed into planes and served by
    /// [`OtProvider::transfer_planes`].
    ///
    /// Batching changes the round structure, never the work: the
    /// accounted totals are *identical* to per-gate execution.
    fn transfer_many(&mut self, requests: &[OtRequest]) -> BatchOtOutcome {
        let (gates, words) = (requests.len(), plane_words(requests.len()));
        // Six planes back to back: the four messages, then the two choices.
        let mut planes = vec![0u64; 6 * words];
        for (k, chunk) in requests.chunks(64).enumerate() {
            let mut word = [0u64; 6];
            for &([m0, m1, m2, m3], (c0, c1)) in chunk.iter().rev() {
                let bits = [m0, m1, m2, m3, c0, c1];
                word = std::array::from_fn(|p| word[p] << 1 | bits[p] as u64);
            }
            for (p, plane) in word.into_iter().enumerate() {
                planes[p * words + k] = plane;
            }
        }
        let plane = |p: usize| &planes[p * words..(p + 1) * words];
        let mut selected = Vec::with_capacity(words);
        self.transfer_planes(
            [plane(0), plane(1), plane(2), plane(3)],
            [plane(4), plane(5)],
            gates,
            &mut selected,
        );
        let mut received = Vec::with_capacity(gates);
        for (k, word) in selected.into_iter().enumerate() {
            let live = (gates - 64 * k).min(64);
            received.extend((0..live).map(|shift| word >> shift & 1 == 1));
        }
        BatchOtOutcome { received }
    }

    /// Performs `gates` OTs given as bit planes of [`plane_words`]`(gates)`
    /// words each: gate `i` is bit `i % 64` of word `i / 64` of every
    /// plane, `messages[m]` holds message `m` of every gate and `choices`
    /// the receiver's two choice bits, so gate `i` receives message
    /// `2·choices[0] + choices[1]` (as [`OtProvider::transfer`] indexes
    /// them).  Replaces `selected` by the received plane, whose bits
    /// above `gates` are zero whatever the input planes hold there.
    ///
    /// The default implementation runs [`OtProvider::transfer`] once per
    /// gate, in gate order, so it draws and charges exactly what the
    /// per-gate loop does; providers whose transfer is a selection (OT
    /// extension) override it with word-wise selection charging the same
    /// totals.
    fn transfer_planes(
        &mut self,
        messages: [&[u64]; 4],
        choices: [&[u64]; 2],
        gates: usize,
        selected: &mut Vec<u64>,
    ) {
        selected.clear();
        selected.resize(plane_words(gates), 0);
        for i in 0..gates {
            let bit = |plane: &[u64]| plane_bit(plane, i) == 1;
            let outcome = self.transfer(messages.map(bit), (bit(choices[0]), bit(choices[1])));
            set_plane_bit(selected, i, u64::from(outcome.received));
        }
    }

    /// Cumulative operation counts performed by this provider.
    fn counts(&self) -> OperationCounts;
}

/// Converts a two-bit choice into a message index.
pub fn choice_index(choice: (bool, bool)) -> usize {
    (choice.0 as usize) * 2 + (choice.1 as usize)
}

/// Real public-key 1-out-of-4 OT over ElGamal.
pub struct ElGamalOt {
    group: Group,
    rng: Xoshiro256,
    table: DlogTable,
    counts: OperationCounts,
}

impl ElGamalOt {
    /// Creates a provider over the given group with a deterministic seed.
    pub fn new(group: Group, seed: u64) -> Self {
        let table = DlogTable::new(&group, 1);
        ElGamalOt {
            group,
            rng: Xoshiro256::new(seed),
            table,
            counts: OperationCounts::default(),
        }
    }
}

impl OtProvider for ElGamalOt {
    fn transfer(&mut self, messages: [bool; 4], choice: (bool, bool)) -> OtOutcome {
        let chosen = choice_index(choice);

        // Receiver: generate a real key pair for the chosen index and
        // random public keys (with discarded secrets) for the others.
        // Under the honest-but-curious model the receiver follows this
        // prescription, so the sender's other messages stay hidden from it
        // and the choice stays hidden from the sender (all four keys are
        // uniformly distributed group elements).
        let mut public_keys = Vec::with_capacity(4);
        let mut chosen_keypair = None;
        for idx in 0..4 {
            let kp = KeyPair::generate(&self.group, &mut self.rng);
            self.counts.exponentiations += 1;
            if idx == chosen {
                chosen_keypair = Some(kp);
            }
            public_keys.push(kp.public);
        }
        let chosen_keypair = chosen_keypair.expect("chosen index is in 0..4");
        // Erase the relationship for non-chosen keys: replace them with
        // fresh elements whose discrete log the receiver does not retain.
        for (idx, pk) in public_keys.iter_mut().enumerate() {
            if idx != chosen {
                let r = self.group.random_nonzero_exponent(&mut self.rng);
                *pk = PublicKey::from_element(self.group.generator_pow(&r));
                self.counts.exponentiations += 1;
            }
        }

        // Sender: encrypt each message bit under the matching key.
        let mut cts = Vec::with_capacity(4);
        for (idx, pk) in public_keys.iter().enumerate() {
            let ct =
                elgamal::encrypt_exponent(&self.group, pk, messages[idx] as u64, &mut self.rng);
            self.counts.exponentiations += 2;
            cts.push(ct);
        }

        // Receiver: decrypt the chosen ciphertext.
        let elem = elgamal::decrypt(&self.group, &chosen_keypair.secret, &cts[chosen])
            .expect("ciphertext was produced by encrypt");
        self.counts.exponentiations += 1;
        let received = self
            .table
            .lookup(&self.group, elem)
            .expect("message is a bit")
            == 1;

        self.counts.base_ots += 1;
        self.counts.rounds += 2;

        OtOutcome { received }
    }

    fn counts(&self) -> OperationCounts {
        self.counts
    }
}

/// Bytes of one group element of base-OT key material (the 256-bit
/// group): what [`crate::party::OtConfig::wire_setup_bytes`] puts on the
/// wire per element.
pub const BASE_OT_ELEMENT_BYTES: u64 = 32;

/// Functionally-correct simulation of IKNP OT extension with faithful cost
/// accounting.
pub struct SimulatedOtExtension {
    /// Statistical security parameter κ (the prototype used κ = 80).
    security_parameter: u32,
    counts: OperationCounts,
}

impl SimulatedOtExtension {
    /// Creates a provider with the paper's default parameters (κ = 80,
    /// base OTs over the 256-bit group).
    pub fn new() -> Self {
        SimulatedOtExtension::with_security_parameter(80)
    }

    /// Creates a provider with an explicit statistical security parameter.
    pub fn with_security_parameter(kappa: u32) -> Self {
        SimulatedOtExtension {
            security_parameter: kappa,
            counts: OperationCounts::default(),
        }
    }

    /// The configured statistical security parameter.
    pub fn security_parameter(&self) -> u32 {
        self.security_parameter
    }

    /// Charges the per-session setup cost for one party pair: κ base OTs
    /// (Bellare–Micali style, three exponentiations each) over two
    /// rounds.  Their key material — two group elements per base OT in
    /// each direction — rides on the wire
    /// ([`crate::party::OtConfig::wire_setup_bytes`]).
    pub fn session_setup(&mut self) {
        let kappa = self.security_parameter as u64;
        self.counts.base_ots += kappa;
        self.counts.exponentiations += 3 * kappa;
        self.counts.rounds += 2;
    }
}

impl Default for SimulatedOtExtension {
    fn default() -> Self {
        SimulatedOtExtension::new()
    }
}

impl OtProvider for SimulatedOtExtension {
    fn transfer(&mut self, messages: [bool; 4], choice: (bool, bool)) -> OtOutcome {
        self.counts.extended_ots += 1;
        OtOutcome {
            received: messages[choice_index(choice)],
        }
    }

    /// The amortised batch path: one extension-matrix exchange serves the
    /// whole layer, 64 selections per word.  Totals are bit-identical to
    /// looping [`Self::transfer`] (a unit test pins them against each
    /// other); what the batch saves is per-call overhead and, at the
    /// protocol level, message rounds.
    fn transfer_planes(
        &mut self,
        messages: [&[u64]; 4],
        choices: [&[u64]; 2],
        gates: usize,
        selected: &mut Vec<u64>,
    ) {
        let [m0, m1, m2, m3] = messages;
        let [c0, c1] = choices;
        selected.clear();
        selected.extend((0..plane_words(gates)).map(|k| {
            let (a, b) = (c0[k], c1[k]);
            (!a & !b & m0[k]) | (!a & b & m1[k]) | (a & !b & m2[k]) | (a & b & m3[k])
        }));
        if let Some(last) = selected.last_mut() {
            *last &= last_word_mask(gates);
        }
        self.counts.extended_ots += gates as u64;
    }

    fn counts(&self) -> OperationCounts {
        self.counts
    }
}

/// Exhaustively checks an OT provider against the ideal functionality on
/// all 64 (message, choice) combinations.  Used by tests for both
/// providers and available to downstream crates' tests.
pub fn check_ot_correctness(provider: &mut dyn OtProvider) -> bool {
    for mask in 0u32..16 {
        let messages = [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0, mask & 8 != 0];
        for c in 0..4usize {
            let choice = (c & 2 != 0, c & 1 != 0);
            let outcome = provider.transfer(messages, choice);
            if outcome.received != messages[choice_index(choice)] {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstress_crypto::group::Group;
    use dstress_math::rng::DetRng;

    #[test]
    fn choice_indexing() {
        assert_eq!(choice_index((false, false)), 0);
        assert_eq!(choice_index((false, true)), 1);
        assert_eq!(choice_index((true, false)), 2);
        assert_eq!(choice_index((true, true)), 3);
    }

    #[test]
    fn simulated_extension_is_correct() {
        let mut ot = SimulatedOtExtension::new();
        assert!(check_ot_correctness(&mut ot));
        let counts = ot.counts();
        assert_eq!(counts.extended_ots, 64);
        assert_eq!(counts.wire_bytes, 0, "a provider puts nothing on the wire");
    }

    #[test]
    fn simulated_extension_setup_cost() {
        let mut ot = SimulatedOtExtension::new();
        assert_eq!(ot.security_parameter(), 80);
        ot.session_setup();
        assert_eq!(ot.counts().base_ots, 80);
        assert_eq!(ot.counts().exponentiations, 3 * 80);
        assert_eq!(ot.counts().rounds, 2);

        let mut small = SimulatedOtExtension::with_security_parameter(8);
        small.session_setup();
        assert_eq!(small.counts().base_ots, 8);
    }

    #[test]
    fn elgamal_ot_is_correct() {
        let mut ot = ElGamalOt::new(Group::sim64(), 42);
        // A reduced sweep (the full 64-case sweep is used for the simulated
        // provider; public-key OT is slower).
        for (messages, choice) in [
            ([true, false, false, true], (false, false)),
            ([true, false, false, true], (true, true)),
            ([false, true, true, false], (false, true)),
            ([false, true, true, false], (true, false)),
        ] {
            let outcome = ot.transfer(messages, choice);
            assert_eq!(outcome.received, messages[choice_index(choice)]);
        }
        assert!(ot.counts().exponentiations >= 4 * 10);
    }

    #[test]
    fn batched_transfers_match_per_transfer_totals() {
        let requests: Vec<OtRequest> = (0u32..48)
            .map(|i| {
                let m = [i & 1 != 0, i & 2 != 0, i & 4 != 0, i & 8 != 0];
                (m, (i & 16 != 0, i & 32 != 0))
            })
            .collect();

        // The extension provider's vectorised path charges exactly what the
        // per-transfer loop charges.
        let mut batched = SimulatedOtExtension::new();
        let mut looped = SimulatedOtExtension::new();
        let outcome = batched.transfer_many(&requests);
        let expected_bits: Vec<bool> = requests
            .iter()
            .map(|&(messages, choice)| looped.transfer(messages, choice).received)
            .collect();
        assert_eq!(outcome.received, expected_bits);
        assert_eq!(batched.counts(), looped.counts());

        // The default (looping) implementation serves providers without a
        // vectorised path, e.g. ElGamal OT.
        let mut eg = ElGamalOt::new(Group::sim64(), 9);
        let small = &requests[..4];
        let outcome = eg.transfer_many(small);
        for (bit, &(messages, choice)) in outcome.received.iter().zip(small) {
            assert_eq!(*bit, messages[choice_index(choice)]);
        }
        assert_eq!(eg.counts().base_ots, 4);
    }

    /// Holds `packed`'s [`OtProvider::transfer_planes`] to `looped`'s
    /// [`OtProvider::transfer`] per gate on random planes (garbage above
    /// the width included): the same selected bits, zero above `gates`,
    /// and the same counts.
    fn check_packed_door(packed: &mut dyn OtProvider, looped: &mut dyn OtProvider) {
        let mut rng = Xoshiro256::new(0x0D00);
        for gates in [1usize, 8, 63, 64, 65, 130] {
            let words = plane_words(gates);
            let mut random_plane = || (0..words).map(|_| rng.next_u64()).collect::<Vec<_>>();
            let messages: [Vec<u64>; 4] = std::array::from_fn(|_| random_plane());
            let choices: [Vec<u64>; 2] = std::array::from_fn(|_| random_plane());
            let mut selected = vec![u64::MAX; 7];
            packed.transfer_planes(
                messages.each_ref().map(Vec::as_slice),
                choices.each_ref().map(Vec::as_slice),
                gates,
                &mut selected,
            );
            assert_eq!(selected.len(), words, "gates {gates}");
            for i in 0..gates {
                let bit = |plane: &Vec<u64>| plane_bit(plane, i) == 1;
                let outcome = looped.transfer(
                    messages.each_ref().map(bit),
                    (bit(&choices[0]), bit(&choices[1])),
                );
                assert_eq!(bit(&selected), outcome.received, "gates {gates}, gate {i}");
            }
            let last = selected[words - 1];
            assert_eq!(
                last & !last_word_mask(gates),
                0,
                "padding above {gates} gates"
            );
            assert_eq!(packed.counts(), looped.counts(), "gates {gates}");
        }
    }

    #[test]
    fn packed_door_equals_per_gate_transfer() {
        // OT extension: word-wise selection, `gates` extended OTs.
        let (mut packed, mut looped) = (SimulatedOtExtension::new(), SimulatedOtExtension::new());
        check_packed_door(&mut packed, &mut looped);
        assert_eq!(packed.counts().extended_ots, 1 + 8 + 63 + 64 + 65 + 130);
        // ElGamal: the default door, one real OT per gate drawing from the
        // provider's stream in gate order — exponentiations and base OTs.
        let mut packed = ElGamalOt::new(Group::sim64(), 5);
        let mut looped = ElGamalOt::new(Group::sim64(), 5);
        check_packed_door(&mut packed, &mut looped);
        assert_eq!(packed.counts().base_ots, 1 + 8 + 63 + 64 + 65 + 130);
        assert!(packed.counts().exponentiations > 0);
    }

    #[test]
    fn elgamal_ot_accounts_traffic_by_group_size() {
        // The payloads a public-key OT puts on the wire: four public keys
        // from the receiver, four two-element ciphertexts from the sender.
        use crate::party::OtConfig;
        use dstress_crypto::group::GroupKind;
        let small = OtConfig::elgamal(GroupKind::Sim64);
        let large = OtConfig::elgamal(GroupKind::Prod256);
        assert_eq!(small.wire_receiver_bytes_per_ot(), 4 * 8);
        assert_eq!(small.wire_sender_bytes_per_ot(), 4 * 2 * 8);
        assert_eq!(large.wire_receiver_bytes_per_ot(), 4 * 32);
        assert_eq!(large.wire_sender_bytes_per_ot(), 4 * 2 * 32);
    }
}
