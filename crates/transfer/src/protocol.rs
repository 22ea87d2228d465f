//! The message transfer protocol (§3.5).
//!
//! When vertex `i` sends a message `m` to its neighbour `j`, the members
//! of block `B_i` each hold one XOR share of `m` (left over from the
//! computation-step MPC) and the members of `B_j` must end up holding
//! fresh XOR shares of the same `m`, such that
//!
//! * no coalition of up to `k` nodes learns `m`, and
//! * nobody outside `{i, j}` learns that the edge `(i, j)` exists.
//!
//! The paper develops the protocol through three strawmen, each fixing a
//! weakness of the previous one; all four are implemented here so the
//! benches can quantify what each revision costs and the tests can
//! document which attack each closes:
//!
//! | Variant | Mechanism | Weakness addressed by the next variant |
//! |---|---|---|
//! | [`ProtocolVariant::Strawman1`] | each `B_i` member encrypts its whole share to one `B_j` member | a node in both blocks (or one colluder in each) learns two shares |
//! | [`ProtocolVariant::Strawman2`] | shares are split into per-recipient sub-shares | colluders can recognise forwarded sub-shares and infer the edge |
//! | [`ProtocolVariant::Strawman3`] | sub-shares are bit-decomposed, encrypted bit-wise and homomorphically summed by `i` | the plaintext bit-sums still leak a little information about the edge |
//! | [`ProtocolVariant::Final`] | `i` adds even two-sided geometric noise to every bit-sum | — (remaining leakage is ε-DP, Appendix B) |
//!
//! Routing is always `B_i → i → j → B_j`: only the two endpoints of the
//! edge ever see traffic related to it, which is what preserves edge
//! privacy (§3.3).

use crate::error::TransferError;
use crate::setup::{Block, BlockCertificate, NodeSecrets};
use crate::wire::{adjusted_wire_len, aggregated_wire_len, subshares_wire_len, TransferWire};
use dstress_crypto::dlog::DlogTable;
use dstress_crypto::elgamal::{adjust_ciphertext, decrypt, encrypt_with_ephemeral, Ciphertext};
use dstress_crypto::group::Group;
use dstress_crypto::kernels::{CombDigits, CombPow};
use dstress_crypto::sharing::{split_xor, BitMessage};
use dstress_crypto::CryptoError;
use dstress_dp::geometric::TwoSidedGeometric;
use dstress_math::rng::DetRng;
use dstress_math::U256;
use dstress_net::cost::OperationCounts;
use dstress_net::traffic::{NodeId, TrafficAccountant};
use dstress_net::wire::Wire;

/// Which revision of the transfer protocol to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProtocolVariant {
    /// Whole shares encrypted one-to-one (§3.5 strawman #1).
    Strawman1,
    /// Per-recipient sub-shares (§3.5 strawman #2).
    Strawman2,
    /// Bit-decomposed sub-shares with homomorphic aggregation at `i`
    /// (§3.5 strawman #3).
    Strawman3,
    /// Strawman #3 plus even geometric noise `2·Geo(α^{2/(k+1)})` added by
    /// `i` to every bit-sum (the deployed protocol).
    Final {
        /// The privacy parameter α ∈ (0, 1) of Appendix B.
        alpha: f64,
    },
}

/// Configuration of a transfer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransferConfig {
    /// Protocol revision to run.
    pub variant: ProtocolVariant,
    /// Message width `L` in bits (the prototype used 12).
    pub message_bits: u32,
}

impl TransferConfig {
    /// The deployed protocol with the given noise parameter.
    pub fn final_protocol(message_bits: u32, alpha: f64) -> Self {
        TransferConfig {
            variant: ProtocolVariant::Final { alpha },
            message_bits,
        }
    }
}

/// The result of one message transfer.
#[derive(Clone, Debug)]
pub struct TransferOutcome {
    /// The new shares held by the members of the receiving block, aligned
    /// with `receiver_block.members`.
    pub receiver_shares: Vec<BitMessage>,
    /// Operation counts for the whole transfer (all roles combined).
    pub counts: OperationCounts,
}

/// Homomorphically adds a (possibly negative) plaintext constant into an
/// exponential-ElGamal ciphertext through the generator table: negative
/// values are encoded as `g^(q − |v|)` — the subgroup inverse of `g^|v|` —
/// so no Fermat inversion is needed.
fn homomorphic_add_signed(group: &Group, ct: &Ciphertext, value: i64) -> Ciphertext {
    let magnitude = U256::from_u64(value.unsigned_abs()).rem(&group.q());
    let exponent = if value >= 0 {
        magnitude
    } else {
        group.q().wrapping_sub(&magnitude)
    };
    Ciphertext {
        c1: ct.c1,
        c2: group.mul(ct.c2, group.generator_pow(&exponent)),
    }
}

/// The parameter of the per-bit-sum noise: the sensitivity of the bit-sum
/// query is the block size `k + 1`, so the protocol samples from
/// `Geo(alpha^{2/(k+1)})` and doubles.
fn edge_noise_parameter(alpha: f64, block_size: usize) -> f64 {
    alpha.powf(2.0 / block_size as f64)
}

/// What a strawman-#3 (or, `noised`, a final-protocol) transfer costs at
/// block size `b = k + 1` and `L` message bits, all roles combined: every
/// [`OperationCounts`] field but `wire_bytes`, which the hops measure.
/// Both the real transfer and [`account_final_transfer`] charge from here.
fn bitwise_counts(block_size: usize, bits: u32, noised: bool) -> OperationCounts {
    let (b, l) = (block_size as u64, u64::from(bits));
    let noise = if noised { b * l } else { 0 };
    OperationCounts {
        // Steps 1+2: a key term per bit of each bundle; step 4: an adjust.
        exponentiations: b * b * l + b,
        // Each bundle's `c1`, each noise encoding, each fused decryption.
        fixed_base_exponentiations: b * b + noise + b * l,
        // Each bit folded in; per receiver and further sender one `c1` and
        // `L` `c2` products at `i`; each noise term.
        group_multiplications: b * b * l + b * (l + 1) * b.saturating_sub(1) + noise,
        rounds: 3,
        ..OperationCounts::default()
    }
}

/// What strawman #1 or #2 costs per whole-value ciphertext: its encryption
/// (`g^m` and `c1 = g^y` through the generator table, `h^y` variable-base),
/// one adjust and a two-pow decryption.
fn whole_value_counts(ciphertexts: usize) -> OperationCounts {
    let n = ciphertexts as u64;
    OperationCounts {
        exponentiations: 4 * n,
        fixed_base_exponentiations: 2 * n,
        rounds: 3,
        ..OperationCounts::default()
    }
}

/// The final protocol's cost without running it: `bitwise_counts` plus
/// the encoded length of every hop, recorded in `traffic` against the
/// edge's node ids and summed into `wire_bytes` — byte for byte what the
/// real transfer measures.  It needs no key material, which is what lets
/// a remote worker run it.
pub fn account_final_transfer(
    group: &Group,
    message_bits: u32,
    sender_vertex: NodeId,
    receiver_vertex: NodeId,
    sender_members: &[NodeId],
    receiver_members: &[NodeId],
    traffic: &mut TrafficAccountant,
) -> OperationCounts {
    let (bits, elem) = (message_bits as usize, group.element_bytes());
    let block_size = sender_members.len();
    let mut counts = bitwise_counts(block_size, message_bits, true);
    let mut hop = |from, to, bytes| {
        traffic.record(from, to, bytes);
        counts.wire_bytes += bytes;
    };
    for &x_node in sender_members {
        for y in 0..block_size {
            hop(x_node, sender_vertex, subshares_wire_len(y, bits, elem));
        }
    }
    let aggregated = aggregated_wire_len(block_size, bits, elem);
    hop(sender_vertex, receiver_vertex, aggregated);
    for &y_node in receiver_members {
        hop(receiver_vertex, y_node, adjusted_wire_len(bits, elem));
    }
    counts
}

/// Transfers the shares of one message from block `B_i` to block `B_j`
/// along the edge `(i, j)`.
///
/// * `sender_shares[x]` is the `L`-bit share held by
///   `sender_block.members[x]`.
/// * `node_secrets` is indexed by node id and must contain the bit keys of
///   every member of the receiving block (the simulation plays all roles).
/// * `certificate` is `B_j`'s block certificate as held by the members of
///   `B_i` (i.e. re-randomised with `j`'s neighbor key for `i`), and
///   `neighbor_key` is that key (known to `j`, used in the adjust step).
/// * `dlog` must be a signed lookup table wide enough for the bit-sums
///   plus noise; an undersized table surfaces as
///   [`TransferError::DecryptionFailure`], the paper's `P_fail` event.
///
/// # Errors
///
/// Returns shape-mismatch errors for inconsistent blocks/certificates,
/// [`CryptoError::ShareCountMismatch`] for a sender share that is not `L`
/// bits wide, [`TransferError::MissingNodeSecrets`] when `node_secrets`
/// does not hold `L` bit keys for a receiver member,
/// [`TransferError::InvalidNoiseAlpha`] for a noise parameter outside
/// `(0, 1)` — all before the first RNG draw or traffic record — and
/// [`TransferError::DecryptionFailure`] when a noised sum falls outside
/// the lookup window.
#[allow(clippy::too_many_arguments)]
pub fn transfer_message(
    group: &Group,
    config: &TransferConfig,
    sender_vertex: NodeId,
    receiver_vertex: NodeId,
    sender_block: &Block,
    receiver_block: &Block,
    sender_shares: &[BitMessage],
    node_secrets: &[NodeSecrets],
    certificate: &BlockCertificate,
    neighbor_key: &U256,
    dlog: &DlogTable,
    traffic: &mut TrafficAccountant,
    rng: &mut dyn DetRng,
) -> Result<TransferOutcome, TransferError> {
    let edge = Edge {
        group,
        bits: config.message_bits as usize,
        sender_vertex,
        receiver_vertex,
        sender_block,
        receiver_block,
        certificate,
        neighbor_key,
        node_secrets,
        dlog,
    };
    edge.validate(config, sender_shares)?;
    let block_size = sender_block.size();
    let mut counts = match config.variant {
        ProtocolVariant::Strawman1 => whole_value_counts(block_size),
        ProtocolVariant::Strawman2 => whole_value_counts(block_size * block_size),
        ProtocolVariant::Strawman3 => bitwise_counts(block_size, config.message_bits, false),
        ProtocolVariant::Final { .. } => bitwise_counts(block_size, config.message_bits, true),
    };
    let mut meter = Meter {
        traffic,
        wire_bytes: 0,
    };
    let receiver_shares = match config.variant {
        ProtocolVariant::Strawman1 => edge.whole_values(false, sender_shares, &mut meter, rng),
        ProtocolVariant::Strawman2 => edge.whole_values(true, sender_shares, &mut meter, rng),
        ProtocolVariant::Strawman3 => edge.bitwise_protocol(sender_shares, None, &mut meter, rng),
        ProtocolVariant::Final { alpha } => {
            let noise = TwoSidedGeometric::new(edge_noise_parameter(alpha, block_size));
            edge.bitwise_protocol(sender_shares, Some(&noise), &mut meter, rng)
        }
    }?;
    counts.wire_bytes = meter.wire_bytes;
    Ok(TransferOutcome {
        receiver_shares,
        counts,
    })
}

/// The wire under a transfer.  Every hop's message is encoded, its
/// *measured* length recorded against the real node ids and summed, and
/// the bytes decoded again — so the next role works on what crossed the
/// codec, and a broken encoding fails the transfer instead of going
/// unnoticed.
struct Meter<'t> {
    traffic: &'t mut TrafficAccountant,
    wire_bytes: u64,
}

impl Meter<'_> {
    fn hop(
        &mut self,
        from: NodeId,
        to: NodeId,
        message: TransferWire,
    ) -> Result<TransferWire, TransferError> {
        let encoded = message.encode();
        self.traffic.record(from, to, encoded.len() as u64);
        self.wire_bytes += encoded.len() as u64;
        Ok(TransferWire::decode_exact(&encoded)?)
    }
}

/// The public-key work of steps 1+2 for all `k + 1` senders of the block:
/// returns `[y][x]`, the bundle sender member `x` encrypts for receiver
/// member `y` — exactly what [`encrypt_bits_shared_c1`] yields for `x`'s
/// sub-share and ephemeral (a unit test pins that).  Every share is
/// `bits` wide ([`transfer_message`] checks that first).
///
/// The simulation plays every sender, and all of them raise the same `L`
/// certificate keys of member `y` to their own ephemerals.  So the draws
/// happen first, in `(x, y)` order (the RNG order is pinned), with
/// `c1 = g^e` through the generator table and `e` recoded once; then the
/// key terms go key-outer: one comb table per certificate key serves the
/// `k + 1` ephemerals in lock-step and is dropped, so a single 2 KB table
/// is live at a time.
///
/// [`encrypt_bits_shared_c1`]: dstress_crypto::elgamal::encrypt_bits_shared_c1
fn encrypt_subshares(
    group: &Group,
    certificate: &BlockCertificate,
    sender_shares: &[BitMessage],
    bits: usize,
    rng: &mut dyn DetRng,
) -> Vec<Vec<Vec<Ciphertext>>> {
    let block_size = sender_shares.len();
    // Indexed [y][x], so each key's lanes are one slice: the sub-share
    // with its `c1`, and the recoded ephemeral.
    let mut bundles = vec![Vec::new(); block_size];
    let mut digits = vec![Vec::new(); block_size];
    for share in sender_shares {
        for (y_idx, subshare) in split_xor(*share, block_size, rng).into_iter().enumerate() {
            let ephemeral = group.random_nonzero_exponent(rng);
            bundles[y_idx].push((subshare.value(), group.generator_pow(&ephemeral)));
            digits[y_idx].push(CombPow::recode(group, &ephemeral));
        }
    }

    // The message bits are folded in with multiplications.
    let bit_elems = [group.encode_exponent(0), group.encode_exponent(1)];
    let mut key_terms = vec![group.identity(); block_size];
    // (`vec![v; n]` would clone away the capacity.)
    let mut encrypted: Vec<Vec<Vec<Ciphertext>>> = (0..block_size)
        .map(|_| (0..block_size).map(|_| Vec::with_capacity(bits)).collect())
        .collect();
    for (y_idx, member_keys) in certificate.keys.iter().enumerate() {
        for (l, key) in member_keys.iter().enumerate() {
            CombPow::new(group, key.element()).pow_many(&digits[y_idx], &mut key_terms);
            let lanes = encrypted[y_idx].iter_mut().zip(&bundles[y_idx]);
            for ((cts, &(subshare, c1)), &key_term) in lanes.zip(&key_terms) {
                let bit = (subshare >> l) & 1;
                cts.push(Ciphertext {
                    c1,
                    c2: group.mul(bit_elems[bit as usize], key_term),
                });
            }
        }
    }
    encrypted
}

/// One edge `(i, j)` as the protocol's four roles see it — every
/// `x ∈ B_i`, vertex `i`, vertex `j` and every `y ∈ B_j`.
/// [`transfer_message`] builds it once and validates it before any role
/// step runs, so the steps index blocks, certificate and bit keys freely.
struct Edge<'a> {
    group: &'a Group,
    /// The message width `L`.
    bits: usize,
    sender_vertex: NodeId,
    receiver_vertex: NodeId,
    sender_block: &'a Block,
    receiver_block: &'a Block,
    /// `B_j`'s certificate as the members of `B_i` hold it.
    certificate: &'a BlockCertificate,
    /// `j`'s neighbor key for `i`.
    neighbor_key: &'a U256,
    node_secrets: &'a [NodeSecrets],
    dlog: &'a DlogTable,
}

impl Edge<'_> {
    /// Rejects outside input with a typed error before any RNG draw or
    /// traffic record.
    fn validate(
        &self,
        config: &TransferConfig,
        sender_shares: &[BitMessage],
    ) -> Result<(), TransferError> {
        let block_size = self.sender_block.size();
        let bits = self.bits;
        for actual in [sender_shares.len(), self.receiver_block.size()] {
            if actual != block_size {
                let expected = block_size;
                return Err(TransferError::BlockSizeMismatch { expected, actual });
            }
        }
        if let Some(share) = sender_shares.iter().find(|s| s.bits() as usize != bits) {
            return Err(TransferError::Crypto(CryptoError::ShareCountMismatch {
                expected: bits,
                actual: share.bits() as usize,
            }));
        }
        let keys = &self.certificate.keys;
        if keys.len() != block_size || keys.iter().any(|k| k.len() != bits) {
            return Err(TransferError::CertificateShapeMismatch);
        }
        for &member in &self.receiver_block.members {
            let keys = self
                .node_secrets
                .get(member.0)
                .map_or(0, |s| s.bit_keys.len());
            if keys < bits {
                return Err(TransferError::MissingNodeSecrets { node: member.0 });
            }
        }
        if let ProtocolVariant::Final { alpha } = config.variant {
            // The protocol samples from Geo(α^{2/(k+1)}); an α one ulp below 1
            // can round that to 1, so the derived parameter is checked too.
            let in_range = |a: f64| a > 0.0 && a < 1.0;
            if !in_range(alpha) || !in_range(edge_noise_parameter(alpha, block_size)) {
                return Err(TransferError::InvalidNoiseAlpha);
            }
        }
        Ok(())
    }

    /// Strawmen #1 and #2 (`split`): whole values, each encrypted under the
    /// first bit key of its receiver member, that `i` forwards to `j`
    /// unopened.  In #1 member `x` encrypts its whole share for receiver
    /// member `x`; in #2 it splits the share into one XOR sub-share per
    /// receiver member.
    fn whole_values(
        &self,
        split: bool,
        sender_shares: &[BitMessage],
        meter: &mut Meter,
        rng: &mut dyn DetRng,
    ) -> Result<Vec<BitMessage>, TransferError> {
        let (group, block_size) = (self.group, self.sender_block.size());
        // filed[y]: the ciphertexts `i` holds for receiver member y.
        let mut filed: Vec<Vec<Ciphertext>> = vec![Vec::new(); block_size];
        let senders = self.sender_block.members.iter().zip(sender_shares);
        for (x_idx, (&x_node, &share)) in senders.enumerate() {
            // The parts x encrypts, for receiver members `first_y..`.
            let (first_y, parts) = if split {
                (0, split_xor(share, block_size, rng))
            } else {
                (x_idx, vec![share])
            };
            let cts: Vec<Ciphertext> = (first_y..)
                .zip(&parts)
                .map(|(y_idx, part)| {
                    let pk = self.certificate.keys[y_idx][0];
                    let ephemeral = group.random_nonzero_exponent(rng);
                    let message = group.encode_exponent(part.value());
                    encrypt_with_ephemeral(group, &pk, message, &ephemeral)
                })
                .collect();
            // One hop per member: its ciphertexts to `i`.
            let message = TransferWire::adjusted(group, &cts);
            let sent = meter.hop(x_node, self.sender_vertex, message)?;
            for (y_idx, ct) in (first_y..).zip(sent.into_adjusted(group)?) {
                filed[y_idx].push(ct);
            }
        }
        // `i` forwards them all to `j` unopened.
        let forwarded = TransferWire::adjusted(group, &filed.concat());
        let forwarded = meter
            .hop(self.sender_vertex, self.receiver_vertex, forwarded)?
            .into_adjusted(group)?;
        let per_member = if split { block_size } else { 1 };
        let members = self.receiver_block.members.iter();
        members
            .zip(forwarded.chunks(per_member))
            .map(|(&y_node, cts)| self.open_whole_values(y_node, cts, meter))
            .collect()
    }

    /// Steps 4 and 5 of strawmen #1 and #2: `j` adjusts each of member `y`'s
    /// ciphertexts with its neighbor key and hands them over; `y` decrypts
    /// each whole value, looks it up and XORs the values into its share.
    fn open_whole_values(
        &self,
        y_node: NodeId,
        cts: &[Ciphertext],
        meter: &mut Meter,
    ) -> Result<BitMessage, TransferError> {
        let group = self.group;
        let adjusted: Vec<Ciphertext> = cts
            .iter()
            .map(|ct| adjust_ciphertext(group, ct, self.neighbor_key))
            .collect();
        let message = TransferWire::adjusted(group, &adjusted);
        let adjusted = meter.hop(self.receiver_vertex, y_node, message)?;
        let adjusted = adjusted.into_adjusted(group)?;
        let secret = &self.node_secrets[y_node.0].bit_keys[0].secret;
        let width = self.bits as u32;
        adjusted
            .iter()
            .try_fold(BitMessage::zero(width), |share, ct| {
                let value = self
                    .dlog
                    .lookup(group, decrypt(group, secret, ct)?)
                    .map_err(|_| TransferError::DecryptionFailure)?;
                Ok(share.xor(&BitMessage::new(value, width)?))
            })
    }

    /// Strawman #3 and the final protocol (`noise` set): one call per role
    /// step.  The ciphertexts flow `B_i → i → j → B_j`, every hop through
    /// the [`Meter`].
    fn bitwise_protocol(
        &self,
        sender_shares: &[BitMessage],
        noise: Option<&TwoSidedGeometric>,
        meter: &mut Meter,
        rng: &mut dyn DetRng,
    ) -> Result<Vec<BitMessage>, TransferError> {
        let encrypted = self.send_subshares(sender_shares, meter, rng)?;
        let aggregated = self.aggregate_and_noise(&encrypted, noise, meter, rng)?;
        let adjusted = self.adjust(aggregated, meter)?;
        self.decrypt_bits(&adjusted)
    }

    /// Steps 1+2, at every `x ∈ B_i`: split the share into one sub-share
    /// per receiver member, bit-decompose and encrypt each with the
    /// Kurosawa single-ephemeral optimisation ([`encrypt_subshares`]), and
    /// send the bundles to `i`, which files what it decodes per receiver
    /// member: `[y][x][l]`, bit `l` of `x`'s sub-share for `y`.
    fn send_subshares(
        &self,
        sender_shares: &[BitMessage],
        meter: &mut Meter,
        rng: &mut dyn DetRng,
    ) -> Result<Vec<Vec<Vec<Ciphertext>>>, TransferError> {
        let group = self.group;
        let mut encrypted =
            encrypt_subshares(group, self.certificate, sender_shares, self.bits, rng);
        // The hops, in (x, y) order: each bundle crosses as a SubShares
        // message, its ephemeral encoded once.
        for (x_idx, &x_node) in self.sender_block.members.iter().enumerate() {
            for y_idx in 0..encrypted.len() {
                let bundle = TransferWire::subshares(group, y_idx, &encrypted[y_idx][x_idx]);
                let (receiver, decoded) = meter
                    .hop(x_node, self.sender_vertex, bundle)?
                    .into_subshares(group)?;
                encrypted[receiver][x_idx] = decoded;
            }
        }
        Ok(encrypted)
    }

    /// Step 3, at `i`: homomorphically sum every receiver member's bundles
    /// per bit position, fold even geometric noise into each sum (final
    /// protocol only), and forward the sums to `j`.
    fn aggregate_and_noise(
        &self,
        encrypted: &[Vec<Vec<Ciphertext>>],
        noise: Option<&TwoSidedGeometric>,
        meter: &mut Meter,
        rng: &mut dyn DetRng,
    ) -> Result<Vec<Vec<Ciphertext>>, TransferError> {
        let group = self.group;
        let mut aggregated = Vec::with_capacity(encrypted.len());
        for per_receiver in encrypted {
            let (first, rest) = (&per_receiver[0], &per_receiver[1..]);
            // Every sender's L ciphertexts for this receiver share one
            // ephemeral component, so the aggregated `c1` is identical at
            // every bit position: one product per receiver instead of L.
            let c1 = rest
                .iter()
                .fold(first[0].c1, |c1, cts| group.mul(c1, cts[0].c1));
            let mut per_bit = Vec::with_capacity(self.bits);
            for l in 0..self.bits {
                let c2 = rest
                    .iter()
                    .fold(first[l].c2, |c2, cts| group.mul(c2, cts[l].c2));
                let sum = Ciphertext { c1, c2 };
                per_bit.push(match noise {
                    Some(dist) => homomorphic_add_signed(group, &sum, dist.sample_even(rng)),
                    None => sum,
                });
            }
            aggregated.push(per_bit);
        }
        // The hop carries a full `(c1, c2)` pair per bit.
        let message = TransferWire::aggregated(group, &aggregated);
        meter
            .hop(self.sender_vertex, self.receiver_vertex, message)?
            .into_aggregated(group)
    }

    /// Step 4, at `j`: adjust the ephemeral keys with the neighbor key for
    /// `i` and forward each receiver member its `L` ciphertexts.
    fn adjust(
        &self,
        aggregated: Vec<Vec<Ciphertext>>,
        meter: &mut Meter,
    ) -> Result<Vec<Vec<Ciphertext>>, TransferError> {
        let group = self.group;
        let members = self.receiver_block.members.iter();
        members
            .zip(aggregated)
            .map(|(&y_node, per_bit)| {
                // The aggregated ciphertexts share their ephemeral
                // component, so the expensive `c1^r` happens once per
                // receiver member.
                let c1 = group.pow(per_bit[0].c1, self.neighbor_key);
                let adjusted: Vec<Ciphertext> = per_bit
                    .iter()
                    .map(|ct| Ciphertext { c1, c2: ct.c2 })
                    .collect();
                let message = TransferWire::adjusted(group, &adjusted);
                let adjusted = meter.hop(self.receiver_vertex, y_node, message)?;
                adjusted.into_adjusted(group)
            })
            .collect()
    }

    /// Step 5, at every `y ∈ B_j`: decrypt each bit-sum and keep its
    /// parity — the noise is always even, so an odd sum means the XOR of
    /// the sub-share bits is 1 — as the member's fresh share.
    fn decrypt_bits(&self, bundles: &[Vec<Ciphertext>]) -> Result<Vec<BitMessage>, TransferError> {
        let group = self.group;
        let members = self.receiver_block.members.iter();
        members
            .zip(bundles)
            .map(|(&y_node, cts)| {
                // All L ciphertexts share one ephemeral component, so one
                // comb table on it serves every fused decryption
                // `c2 · c1^(q − x_l)`, the L secrets in lock-step.
                let negated: Vec<CombDigits> = self.node_secrets[y_node.0].bit_keys[..self.bits]
                    .iter()
                    .map(|kp| {
                        let neg = group
                            .q()
                            .wrapping_sub(&kp.secret.exponent().rem(&group.q()));
                        CombPow::recode(group, &neg)
                    })
                    .collect();
                let mut masks = vec![group.identity(); self.bits];
                CombPow::new(group, cts[0].c1).pow_many(&negated, &mut masks);
                let parities = cts.iter().zip(&masks).map(|(ct, &mask)| {
                    let sum = self.dlog.lookup_signed(group, group.mul(ct.c2, mask));
                    sum.map(|s| s.rem_euclid(2) == 1)
                        .map_err(|_| TransferError::DecryptionFailure)
                });
                let parities: Vec<bool> = parities.collect::<Result<_, _>>()?;
                Ok(BitMessage::from_bits(&parities))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::generate_system;
    use dstress_crypto::elgamal::encrypt_bits_shared_c1;
    use dstress_crypto::sharing::xor_reconstruct;
    use dstress_math::rng::Xoshiro256;
    use proptest::prelude::*;

    const BITS: u32 = 8;
    const FINAL: ProtocolVariant = ProtocolVariant::Final { alpha: 0.5 };

    struct Fixture {
        group: Group,
        secrets: Vec<NodeSecrets>,
        setup: crate::setup::SystemSetup,
        dlog: DlogTable,
    }

    fn fixture(collusion_bound: usize) -> Fixture {
        let group = Group::sim64();
        let mut rng = Xoshiro256::new(0xF1CE);
        let (secrets, setup) =
            generate_system(&group, 12, collusion_bound, 3, BITS, &mut rng).unwrap();
        // Signed window wide enough for bit sums (≤ block size) plus noise.
        let dlog = DlogTable::new_signed(&group, 600);
        Fixture {
            group,
            secrets,
            setup,
            dlog,
        }
    }

    /// A transfer over the edge (0, 1) from `rng`'s position, with the
    /// inputs one test may bend: returns the result, the traffic it
    /// recorded and the RNG.  The module's one `transfer_message` call.
    fn transfer(
        fx: &Fixture,
        variant: ProtocolVariant,
        sender_shares: &[BitMessage],
        secrets: &[NodeSecrets],
        dlog: &DlogTable,
        mut rng: Xoshiro256,
    ) -> (
        Result<TransferOutcome, TransferError>,
        TrafficAccountant,
        Xoshiro256,
    ) {
        let config = TransferConfig {
            variant,
            message_bits: BITS,
        };
        let mut traffic = TrafficAccountant::new();
        // Receiver vertex 1 treats vertex 0 as its first neighbour, so the
        // certificate is blocks[1]'s certificate 0 and the matching
        // neighbor key is secrets[1].neighbor_keys[0].
        let result = transfer_message(
            &fx.group,
            &config,
            NodeId(0),
            NodeId(1),
            &fx.setup.blocks[0],
            &fx.setup.blocks[1],
            sender_shares,
            secrets,
            &fx.setup.certificates[1][0],
            &fx.secrets[1].neighbor_keys[0],
            dlog,
            &mut traffic,
            &mut rng,
        );
        (result, traffic, rng)
    }

    /// The sender shares of `value` drawn from a fresh RNG seeded by
    /// `seed`, and that RNG.
    fn shares_of(fx: &Fixture, value: u64, seed: u64) -> (Vec<BitMessage>, Xoshiro256) {
        let mut rng = Xoshiro256::new(seed);
        let message = BitMessage::new(value, BITS).unwrap();
        (split_xor(message, fx.setup.blocks[0].size(), &mut rng), rng)
    }

    /// Runs a transfer of `value` over the edge (0, 1) and returns the
    /// outcome plus the reconstructed received value.
    fn run_transfer(
        fx: &Fixture,
        variant: ProtocolVariant,
        value: u64,
        seed: u64,
    ) -> (TransferOutcome, u64) {
        let (sender_shares, rng) = shares_of(fx, value, seed);
        let outcome = transfer(fx, variant, &sender_shares, &fx.secrets, &fx.dlog, rng)
            .0
            .unwrap();
        let received = xor_reconstruct(&outcome.receiver_shares).unwrap().value();
        (outcome, received)
    }

    #[test]
    fn all_variants_are_correct() {
        let fx = fixture(3);
        for variant in [
            ProtocolVariant::Strawman1,
            ProtocolVariant::Strawman2,
            ProtocolVariant::Strawman3,
            ProtocolVariant::Final { alpha: 0.5 },
        ] {
            for value in [0u64, 1, 0xAB, 0xFF] {
                let (_, received) = run_transfer(&fx, variant, value, 77);
                assert_eq!(received, value, "variant {variant:?}, value {value}");
            }
        }
    }

    #[test]
    fn final_protocol_shares_differ_from_sender_shares() {
        // The receiving block's shares must be fresh (not recognisable as
        // the sender's shares) — this is what defeats the strawman-2
        // recognition attack.
        let fx = fixture(3);
        let message = BitMessage::new(0x5A, BITS).unwrap();
        let (sender_shares, _) = shares_of(&fx, 0x5A, 5);
        let (outcome, _) = run_transfer(&fx, FINAL, 0x5A, 5);
        assert_ne!(outcome.receiver_shares, sender_shares);
        assert_eq!(xor_reconstruct(&outcome.receiver_shares).unwrap(), message);
    }

    #[test]
    fn traffic_matches_paper_roles() {
        // §5.3: node i receives (k+1)^2 encrypted sub-shares; members of
        // B_i each send k+1; members of B_j receive a constant amount.
        let fx = fixture(3);
        let block_size = 4u64;
        let (sender_shares, rng) = shares_of(&fx, 0x3C, 21);
        let (result, traffic, _) = transfer(&fx, FINAL, &sender_shares, &fx.secrets, &fx.dlog, rng);
        result.unwrap();

        let elem = fx.group.element_bytes();
        // Vertex i (node 0) receives the (k+1)^2 encrypted sub-shares, each
        // (L+1) elements wide thanks to the shared ephemeral.
        let i_received = traffic.node(NodeId(0)).wire_bytes_received;
        let per_sender: u64 = (0..block_size as usize)
            .map(|y| crate::wire::subshares_wire_len(y, BITS as usize, elem))
            .sum();
        let expected_subshare_bytes = block_size * per_sender;
        // Node 0 is also a member of its own block, so it may receive a bit
        // more if it appears in B_j; with this fixture it does not.
        assert_eq!(i_received, expected_subshare_bytes);

        // Members of B_j each receive exactly L ciphertexts from j.
        for &member in &fx.setup.blocks[1].members {
            if member == NodeId(1) {
                continue; // j itself also receives the aggregate from i.
            }
            let received = traffic.node(member).wire_bytes_received;
            assert!(
                received >= crate::wire::adjusted_wire_len(BITS as usize, elem),
                "member {member} received {received}"
            );
        }
    }

    #[test]
    fn undersized_table_reports_p_fail() {
        let fx = fixture(3);
        // A lookup window of 1 cannot hold bit sums up to k+1 = 4.
        let tiny = DlogTable::new_signed(&fx.group, 1);
        let (sender_shares, rng) = shares_of(&fx, 0xFF, 2);
        let variant = ProtocolVariant::Final { alpha: 0.9 };
        let err = transfer(&fx, variant, &sender_shares, &fx.secrets, &tiny, rng)
            .0
            .unwrap_err();
        assert_eq!(err, TransferError::DecryptionFailure);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let fx = fixture(3);
        // Wrong number of sender shares.
        let err = try_transfer(&fx, FINAL, &[BitMessage::zero(BITS); 2], &fx.secrets)
            .0
            .unwrap_err();
        assert!(matches!(err, TransferError::BlockSizeMismatch { .. }));
    }

    /// A transfer of `sender_shares` over the edge (0, 1) from the fixed
    /// seed [`assert_untouched`] compares against.
    fn try_transfer(
        fx: &Fixture,
        variant: ProtocolVariant,
        sender_shares: &[BitMessage],
        secrets: &[NodeSecrets],
    ) -> (
        Result<TransferOutcome, TransferError>,
        TrafficAccountant,
        Xoshiro256,
    ) {
        let rng = Xoshiro256::new(31);
        transfer(fx, variant, sender_shares, secrets, &fx.dlog, rng)
    }

    /// A rejected transfer drew nothing and recorded nothing.
    fn assert_untouched(traffic: &TrafficAccountant, mut rng: Xoshiro256) {
        assert!(traffic.sorted_node_entries().is_empty());
        assert_eq!(rng.next_u64(), Xoshiro256::new(31).next_u64());
    }

    #[test]
    fn out_of_range_noise_alpha_is_a_typed_error() {
        let fx = fixture(3);
        // The last one is inside (0, 1) but α^{2/(k+1)} rounds to 1.
        for alpha in [1.0, 0.0, -0.5, 4.0, f64::NAN, 1.0 - f64::EPSILON / 2.0] {
            let (result, traffic, rng) = try_transfer(
                &fx,
                ProtocolVariant::Final { alpha },
                &[BitMessage::zero(BITS); 4],
                &fx.secrets,
            );
            assert_eq!(
                result.unwrap_err(),
                TransferError::InvalidNoiseAlpha,
                "{alpha}"
            );
            assert_untouched(&traffic, rng);
        }
        let smallest = ProtocolVariant::Final {
            alpha: f64::MIN_POSITIVE,
        };
        assert!(
            try_transfer(&fx, smallest, &[BitMessage::zero(BITS); 4], &fx.secrets)
                .0
                .is_ok()
        );
    }

    #[test]
    fn missing_node_secrets_are_a_typed_error() {
        let fx = fixture(3);
        let last_member = fx.setup.blocks[1]
            .members
            .iter()
            .map(|m| m.0)
            .max()
            .unwrap();
        // Secrets that stop short of a receiver member ...
        let truncated = &fx.secrets[..last_member];
        // ... and secrets that cover it with fewer than L bit keys.
        let mut short_keys = fx.secrets.clone();
        short_keys[last_member].bit_keys.truncate(BITS as usize - 1);
        for variant in [
            ProtocolVariant::Strawman1,
            ProtocolVariant::Strawman2,
            ProtocolVariant::Strawman3,
            ProtocolVariant::Final { alpha: 0.5 },
        ] {
            for secrets in [truncated, &short_keys[..]] {
                let (result, traffic, rng) =
                    try_transfer(&fx, variant, &[BitMessage::zero(BITS); 4], secrets);
                assert_eq!(
                    result.unwrap_err(),
                    TransferError::MissingNodeSecrets { node: last_member }
                );
                assert_untouched(&traffic, rng);
            }
        }
    }

    #[test]
    fn key_outer_sender_path_equals_per_sender_encryption() {
        // The sender side builds one table per certificate key and serves
        // all k + 1 ephemerals from it; every bundle must be exactly the
        // ciphertexts the per-sender reference computes for that ephemeral.
        for (group, collusion_bound) in [(Group::sim64(), 2), (Group::prod256(), 7)] {
            let block_size = collusion_bound + 1;
            let mut rng = Xoshiro256::new(0xE0);
            let (_, setup) =
                generate_system(&group, 9, collusion_bound, 1, BITS, &mut rng).unwrap();
            let certificate = &setup.certificates[1][0];
            let message = BitMessage::new(0xC5, BITS).unwrap();
            let sender_shares = split_xor(message, block_size, &mut rng);

            let mut reference_rng = rng.clone();
            let encrypted =
                encrypt_subshares(&group, certificate, &sender_shares, BITS as usize, &mut rng);
            assert_eq!(encrypted.len(), block_size);
            for (x_idx, share) in sender_shares.iter().enumerate() {
                let subshares = split_xor(*share, block_size, &mut reference_rng);
                for (y_idx, subshare) in subshares.iter().enumerate() {
                    let ephemeral = group.random_nonzero_exponent(&mut reference_rng);
                    let reference = encrypt_bits_shared_c1(
                        &group,
                        &certificate.keys[y_idx],
                        &subshare.to_bits(),
                        &ephemeral,
                    )
                    .unwrap();
                    assert_eq!(encrypted[y_idx][x_idx], reference, "x={x_idx} y={y_idx}");
                }
            }
            assert_eq!(rng.next_u64(), reference_rng.next_u64());
        }
    }

    #[test]
    fn share_width_mismatch_is_a_typed_error() {
        // One check in `transfer_message` serves all four variants: a share
        // one bit too narrow or too wide is rejected before any draw.
        let fx = fixture(3);
        for variant in [
            ProtocolVariant::Strawman1,
            ProtocolVariant::Strawman2,
            ProtocolVariant::Strawman3,
            FINAL,
        ] {
            for width in [BITS - 1, BITS + 1] {
                let shares = [BitMessage::zero(width); 4];
                let (result, traffic, rng) = try_transfer(&fx, variant, &shares, &fx.secrets);
                assert_eq!(
                    result.unwrap_err(),
                    TransferError::Crypto(CryptoError::ShareCountMismatch {
                        expected: BITS as usize,
                        actual: width as usize,
                    }),
                    "{variant:?} width {width}"
                );
                assert_untouched(&traffic, rng);
            }
        }
    }

    #[test]
    fn wire_traffic_is_recorded_per_node() {
        let fx = fixture(3);
        let (sender_shares, rng) = shares_of(&fx, 0x4D, 8);
        let (result, traffic, _) = transfer(&fx, FINAL, &sender_shares, &fx.secrets, &fx.dlog, rng);
        result.unwrap();
        // Vertex i (node 0) received the measured sub-share bundles and
        // forwarded the measured aggregate to j.
        assert!(traffic.node(NodeId(0)).wire_bytes_received > 0);
        assert!(traffic.node(NodeId(0)).wire_bytes_sent > 0);
        assert!(traffic.report().total_bytes > 0);
    }

    #[test]
    fn strawman_costs_grow_toward_final() {
        // The revisions trade cost for privacy: the bitwise protocols do
        // more exponentiations than the whole-share strawmen.
        let fx = fixture(3);
        let (s1, _) = run_transfer(&fx, ProtocolVariant::Strawman1, 0x12, 9);
        let (s2, _) = run_transfer(&fx, ProtocolVariant::Strawman2, 0x12, 9);
        let (s3, _) = run_transfer(&fx, ProtocolVariant::Strawman3, 0x12, 9);
        let (fin, _) = run_transfer(&fx, ProtocolVariant::Final { alpha: 0.5 }, 0x12, 9);
        assert!(s2.counts.exponentiations > s1.counts.exponentiations);
        assert!(s3.counts.exponentiations > s2.counts.exponentiations);
        assert!(fin.counts.exponentiations >= s3.counts.exponentiations);
        // The final protocol performs the homomorphic noise additions.
        assert!(fin.counts.group_multiplications > s3.counts.group_multiplications);
    }

    #[test]
    fn cost_scales_with_block_size() {
        // §5.2: transfer time is roughly linear in k (the dominant cost is
        // the k+1 sub-share encryptions per member), with a quadratic
        // number of ciphertexts handled at i.
        let small = fixture(3); // block size 4
        let large = fixture(7); // block size 8
        let (o_small, _) = run_transfer(&small, ProtocolVariant::Final { alpha: 0.5 }, 0x55, 4);
        let (o_large, _) = run_transfer(&large, ProtocolVariant::Final { alpha: 0.5 }, 0x55, 4);
        let ratio = o_large.counts.exponentiations as f64 / o_small.counts.exponentiations as f64;
        // Quadratic component: 8^2/4^2 = 4; linear components pull it down.
        assert!(ratio > 2.0 && ratio < 5.0, "ratio = {ratio}");
        assert!(o_large.counts.wire_bytes > o_small.counts.wire_bytes);
    }

    #[test]
    fn kernel_counts_match_the_analytic_model() {
        // Cross-check `bitwise_counts`, which both transfer modes charge:
        // for block size b and L message bits the final protocol does
        // b²L + b variable-base and b² + 2bL fixed-base exponentiations.
        let fx = fixture(3);
        let (b, l) = (4u64, BITS as u64);
        let (out, _) = run_transfer(&fx, ProtocolVariant::Final { alpha: 0.5 }, 0x2F, 13);
        assert_eq!(out.counts.exponentiations, b * b * l + b);
        assert_eq!(out.counts.fixed_base_exponentiations, b * b + 2 * b * l);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn prop_final_protocol_roundtrip(value in 0u64..256, seed in any::<u64>()) {
            let fx = fixture(2);
            let (_, received) = run_transfer(&fx, ProtocolVariant::Final { alpha: 0.5 }, value, seed);
            prop_assert_eq!(received, value);
        }
    }
}
