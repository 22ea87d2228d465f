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
use crate::wire::TransferWire;
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

/// Routes a ciphertext bundle through the wire format: encode, record
/// the *measured* bytes of the hop, decode, and hand the decoded copy
/// back — so every hop's values genuinely pass through the codec and a
/// broken encoding fails the transfer instead of going unnoticed.
fn wire_hop_cts(
    group: &Group,
    traffic: &mut TrafficAccountant,
    counts: &mut OperationCounts,
    from: NodeId,
    to: NodeId,
    cts: Vec<Ciphertext>,
) -> Result<Vec<Ciphertext>, TransferError> {
    let encoded = TransferWire::adjusted(group, &cts).encode();
    traffic.record_wire(from, to, encoded.len() as u64);
    counts.wire_bytes += encoded.len() as u64;
    TransferWire::decode_exact(&encoded)?.into_adjusted(group)
}

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

/// Transfers the shares of one message from block `B_i` to block `B_j`
/// along the edge `(i, j)`.
///
/// * `sender_shares[x]` is the share held by `sender_block.members[x]`.
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
/// [`TransferError::MissingNodeSecrets`] when `node_secrets` does not
/// hold `L` bit keys for a receiver member,
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
    let block_size = sender_block.size();
    let bits = config.message_bits as usize;
    if sender_shares.len() != block_size {
        return Err(TransferError::BlockSizeMismatch {
            expected: block_size,
            actual: sender_shares.len(),
        });
    }
    if receiver_block.size() != block_size {
        return Err(TransferError::BlockSizeMismatch {
            expected: block_size,
            actual: receiver_block.size(),
        });
    }
    if certificate.keys.len() != block_size || certificate.keys.iter().any(|k| k.len() != bits) {
        return Err(TransferError::CertificateShapeMismatch);
    }
    for &member in &receiver_block.members {
        if node_secrets.get(member.0).map_or(0, |s| s.bit_keys.len()) < bits {
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

    let run = match config.variant {
        ProtocolVariant::Strawman1 => strawman1,
        ProtocolVariant::Strawman2 => strawman2,
        ProtocolVariant::Strawman3 | ProtocolVariant::Final { .. } => bitwise_protocol,
    };
    run(
        group,
        config,
        sender_vertex,
        receiver_vertex,
        sender_block,
        receiver_block,
        sender_shares,
        node_secrets,
        certificate,
        neighbor_key,
        dlog,
        traffic,
        rng,
    )
}

/// Strawman #1: whole shares, one recipient each.
#[allow(clippy::too_many_arguments)]
fn strawman1(
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
    let block_size = sender_block.size();
    let elem_bytes = group.element_bytes() as u64;
    let ct_bytes = 2 * elem_bytes;
    let mut counts = OperationCounts::default();

    // Each sender member x encrypts its whole share under the first bit
    // key of the x-th receiver member.
    let mut forwarded = Vec::with_capacity(block_size);
    for (x_idx, &x_node) in sender_block.members.iter().enumerate() {
        let pk = certificate.keys[x_idx][0];
        let ephemeral = group.random_nonzero_exponent(rng);
        let ct = encrypt_with_ephemeral(
            group,
            &pk,
            group.encode_exponent(sender_shares[x_idx].value()),
            &ephemeral,
        );
        // The message encoding and `c1 = g^y` go through the generator
        // table; only the key term `h^y` is a variable-base pow.
        counts.exponentiations += 1;
        counts.fixed_base_exponentiations += 2;
        traffic.record(x_node, sender_vertex, ct_bytes);
        counts.bytes_sent += ct_bytes;
        let ct = wire_hop_cts(group, traffic, &mut counts, x_node, sender_vertex, vec![ct])?
            .pop()
            .expect("one ciphertext in, one out");
        forwarded.push(ct);
    }

    // i forwards everything to j.
    traffic.record(sender_vertex, receiver_vertex, block_size as u64 * ct_bytes);
    counts.bytes_sent += block_size as u64 * ct_bytes;
    let forwarded = wire_hop_cts(
        group,
        traffic,
        &mut counts,
        sender_vertex,
        receiver_vertex,
        forwarded,
    )?;

    // j adjusts and distributes one ciphertext to each member of B_j.
    let mut receiver_shares = Vec::with_capacity(block_size);
    for (y_idx, &y_node) in receiver_block.members.iter().enumerate() {
        let adjusted = adjust_ciphertext(group, &forwarded[y_idx], neighbor_key);
        counts.exponentiations += 1;
        traffic.record(receiver_vertex, y_node, ct_bytes);
        counts.bytes_sent += ct_bytes;
        let adjusted = wire_hop_cts(
            group,
            traffic,
            &mut counts,
            receiver_vertex,
            y_node,
            vec![adjusted],
        )?
        .pop()
        .expect("one ciphertext in, one out");
        let secret = &node_secrets[y_node.0].bit_keys[0].secret;
        let elem = decrypt(group, secret, &adjusted)?;
        counts.exponentiations += 2;
        let value = dlog
            .lookup(group, elem)
            .map_err(|_| TransferError::DecryptionFailure)?;
        receiver_shares
            .push(BitMessage::new(value, config.message_bits).map_err(TransferError::Crypto)?);
    }
    counts.rounds += 3;

    Ok(TransferOutcome {
        receiver_shares,
        counts,
    })
}

/// Strawman #2: per-recipient sub-shares, still encrypted as whole values.
#[allow(clippy::too_many_arguments)]
fn strawman2(
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
    let block_size = sender_block.size();
    let elem_bytes = group.element_bytes() as u64;
    let ct_bytes = 2 * elem_bytes;
    let mut counts = OperationCounts::default();

    // subshare_cts[y] collects the ciphertexts destined for receiver y.
    let mut subshare_cts: Vec<Vec<Ciphertext>> = vec![Vec::with_capacity(block_size); block_size];
    for (x_idx, &x_node) in sender_block.members.iter().enumerate() {
        let subshares = split_xor(sender_shares[x_idx], block_size, rng);
        let mut row = Vec::with_capacity(block_size);
        for (y_idx, subshare) in subshares.iter().enumerate() {
            let pk = certificate.keys[y_idx][0];
            let ephemeral = group.random_nonzero_exponent(rng);
            let ct = encrypt_with_ephemeral(
                group,
                &pk,
                group.encode_exponent(subshare.value()),
                &ephemeral,
            );
            counts.exponentiations += 1;
            counts.fixed_base_exponentiations += 2;
            traffic.record(x_node, sender_vertex, ct_bytes);
            counts.bytes_sent += ct_bytes;
            row.push(ct);
        }
        // One wire hop per member: its k+1 encrypted sub-shares to i.
        let row = wire_hop_cts(group, traffic, &mut counts, x_node, sender_vertex, row)?;
        for (y_idx, ct) in row.into_iter().enumerate() {
            subshare_cts[y_idx].push(ct);
        }
    }

    // i forwards all (k+1)^2 ciphertexts to j.
    let forwarded_bytes = (block_size * block_size) as u64 * ct_bytes;
    traffic.record(sender_vertex, receiver_vertex, forwarded_bytes);
    counts.bytes_sent += forwarded_bytes;
    let flat: Vec<Ciphertext> = subshare_cts.iter().flatten().copied().collect();
    let flat = wire_hop_cts(
        group,
        traffic,
        &mut counts,
        sender_vertex,
        receiver_vertex,
        flat,
    )?;
    let mut flat = flat.into_iter();
    let subshare_cts: Vec<Vec<Ciphertext>> = (0..block_size)
        .map(|_| flat.by_ref().take(block_size).collect())
        .collect();

    // j adjusts everything and hands each receiver its k+1 sub-shares.
    let mut receiver_shares = Vec::with_capacity(block_size);
    for (y_idx, &y_node) in receiver_block.members.iter().enumerate() {
        traffic.record(receiver_vertex, y_node, block_size as u64 * ct_bytes);
        counts.bytes_sent += block_size as u64 * ct_bytes;
        let bundle = wire_hop_cts(
            group,
            traffic,
            &mut counts,
            receiver_vertex,
            y_node,
            subshare_cts[y_idx].clone(),
        )?;
        let mut share = BitMessage::zero(config.message_bits);
        for ct in &bundle {
            let adjusted = adjust_ciphertext(group, ct, neighbor_key);
            counts.exponentiations += 1;
            let secret = &node_secrets[y_node.0].bit_keys[0].secret;
            let elem = decrypt(group, secret, &adjusted)?;
            counts.exponentiations += 2;
            let value = dlog
                .lookup(group, elem)
                .map_err(|_| TransferError::DecryptionFailure)?;
            share = share
                .xor(&BitMessage::new(value, config.message_bits).map_err(TransferError::Crypto)?);
        }
        receiver_shares.push(share);
    }
    counts.rounds += 3;

    Ok(TransferOutcome {
        receiver_shares,
        counts,
    })
}

/// The public-key work of steps 1+2 for all `k + 1` senders of the block:
/// returns `[y][x]`, the bundle sender member `x` encrypts for receiver
/// member `y` — exactly what [`encrypt_bits_shared_c1`] yields for `x`'s
/// sub-share and ephemeral (a unit test pins that).
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
) -> Result<Vec<Vec<Vec<Ciphertext>>>, TransferError> {
    let block_size = sender_shares.len();
    if let Some(share) = sender_shares.iter().find(|s| s.bits() as usize != bits) {
        return Err(TransferError::Crypto(CryptoError::ShareCountMismatch {
            expected: bits,
            actual: share.bits() as usize,
        }));
    }
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
    Ok(encrypted)
}

/// Strawmen #3 and the final protocol: bit decomposition, homomorphic
/// aggregation at `i`, optional geometric noise.
///
/// The ciphertexts flow `B_i → i → j → B_j`; every hop crosses the wire
/// codec, and what the next role works on is the decoded copy, with the
/// analytic wire-format sizes recorded against the real node ids.
#[allow(clippy::too_many_arguments)]
fn bitwise_protocol(
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
    let block_size = sender_block.size();
    let bits = config.message_bits as usize;
    let elem_bytes = group.element_bytes() as u64;
    let mut counts = OperationCounts::default();

    // Step 1+2: every sender member splits its share into sub-shares (one
    // per receiver member), bit-decomposes each sub-share, encrypts the
    // bits with the Kurosawa single-ephemeral optimisation, and sends the
    // bundles to its vertex `i`, which files them per receiver member.
    //
    // encrypted[y][x][l] = ciphertext of bit l of x's sub-share for y.
    let mut encrypted = encrypt_subshares(group, certificate, sender_shares, bits, rng)?;
    // The hops, in (x, y) order; what vertex `i` files is the decoded copy.
    for (x_idx, &x_node) in sender_block.members.iter().enumerate() {
        for y_idx in 0..block_size {
            // What member x's bundle for y costs *in the protocol*: `c1`
            // through the generator table, then per bit one key-term
            // exponentiation and one multiply folding the bit in.
            counts.fixed_base_exponentiations += 1;
            counts.exponentiations += bits as u64;
            counts.group_multiplications += bits as u64;
            // Analytic wire size: the shared ephemeral component plus one
            // masked element per bit.
            let bytes = (bits as u64 + 1) * elem_bytes;
            traffic.record(x_node, sender_vertex, bytes);
            counts.bytes_sent += bytes;
            // The measured hop: the bundle crosses the wire as a
            // SubShares message (ephemeral encoded once).
            let encoded = TransferWire::subshares(group, y_idx, &encrypted[y_idx][x_idx]).encode();
            traffic.record_wire(x_node, sender_vertex, encoded.len() as u64);
            counts.wire_bytes += encoded.len() as u64;
            let (receiver, decoded) =
                TransferWire::decode_exact(&encoded)?.into_subshares(group)?;
            encrypted[receiver][x_idx] = decoded;
        }
    }

    // Step 3: vertex i homomorphically aggregates per receiver member and
    // bit position, and (final protocol only) folds in even geometric
    // noise.
    let noise = match config.variant {
        ProtocolVariant::Final { alpha } => Some(TwoSidedGeometric::new(edge_noise_parameter(
            alpha, block_size,
        ))),
        _ => None,
    };
    let mut aggregated: Vec<Vec<Ciphertext>> = Vec::with_capacity(block_size);
    for per_receiver in &encrypted {
        // Every sender's L ciphertexts for this receiver share one
        // ephemeral component, so the aggregated `c1` is identical at
        // every bit position: one product per receiver instead of L.
        let mut c1 = per_receiver[0][0].c1;
        for sender_cts in per_receiver.iter().skip(1) {
            c1 = group.mul(c1, sender_cts[0].c1);
            counts.group_multiplications += 1;
        }
        let mut per_bit = Vec::with_capacity(bits);
        for l in 0..bits {
            let mut c2 = per_receiver[0][l].c2;
            for sender_cts in per_receiver.iter().skip(1) {
                c2 = group.mul(c2, sender_cts[l].c2);
                counts.group_multiplications += 1;
            }
            let mut acc = Ciphertext { c1, c2 };
            if let Some(dist) = &noise {
                let noise_value = dist.sample_even(rng);
                acc = homomorphic_add_signed(group, &acc, noise_value);
                counts.fixed_base_exponentiations += 1;
                counts.group_multiplications += 1;
            }
            per_bit.push(acc);
        }
        aggregated.push(per_bit);
    }

    // i forwards the aggregated ciphertexts to j.  After aggregation the
    // ephemeral components differ per bit (they are products of the
    // senders' ephemerals), so each bit costs a full ciphertext.
    let forwarded_bytes = (block_size * bits) as u64 * 2 * elem_bytes;
    traffic.record(sender_vertex, receiver_vertex, forwarded_bytes);
    counts.bytes_sent += forwarded_bytes;
    let encoded = TransferWire::aggregated(group, &aggregated).encode();
    traffic.record_wire(sender_vertex, receiver_vertex, encoded.len() as u64);
    counts.wire_bytes += encoded.len() as u64;
    let aggregated = TransferWire::decode_exact(&encoded)?.into_aggregated(group)?;

    // Step 4: j adjusts the ephemeral keys with its neighbor key for i
    // and forwards each receiver member its L ciphertexts.
    let mut adjusted_bundles = Vec::with_capacity(block_size);
    for (&y_node, per_bit) in receiver_block.members.iter().zip(aggregated) {
        let member_bytes = bits as u64 * 2 * elem_bytes;
        traffic.record(receiver_vertex, y_node, member_bytes);
        counts.bytes_sent += member_bytes;
        // The aggregated ciphertexts share their ephemeral component, so
        // the expensive `c1^r` happens once per receiver.
        counts.exponentiations += 1;
        let shared_c1 = group.pow(per_bit[0].c1, neighbor_key);
        let adjusted: Vec<Ciphertext> = per_bit
            .iter()
            .map(|ct| Ciphertext {
                c1: shared_c1,
                c2: ct.c2,
            })
            .collect();
        adjusted_bundles.push(wire_hop_cts(
            group,
            traffic,
            &mut counts,
            receiver_vertex,
            y_node,
            adjusted,
        )?);
    }

    // Step 5: every receiver member decrypts its bits and assembles its
    // fresh share.
    let mut receiver_shares = Vec::with_capacity(block_size);
    for (&y_node, cts) in receiver_block.members.iter().zip(&adjusted_bundles) {
        // All L adjusted ciphertexts share one ephemeral component, so one
        // comb table on it serves every fused decryption
        // `c2 · c1^(q − x_l)`, the L secrets in lock-step.
        let negated: Vec<CombDigits> = node_secrets[y_node.0].bit_keys[..bits]
            .iter()
            .map(|kp| {
                let neg = group
                    .q()
                    .wrapping_sub(&kp.secret.exponent().rem(&group.q()));
                CombPow::recode(group, &neg)
            })
            .collect();
        let mut masks = vec![group.identity(); bits];
        CombPow::new(group, cts[0].c1).pow_many(&negated, &mut masks);
        let mut bit_shares = Vec::with_capacity(bits);
        for (ct, &mask) in cts.iter().zip(&masks) {
            counts.fixed_base_exponentiations += 1;
            let elem = group.mul(ct.c2, mask);
            let sum = dlog
                .lookup_signed(group, elem)
                .map_err(|_| TransferError::DecryptionFailure)?;
            // Even sum (noise is always even) means the XOR of the sub-share
            // bits was zero.
            bit_shares.push(sum.rem_euclid(2) == 1);
        }
        receiver_shares.push(BitMessage::from_bits(&bit_shares));
    }
    counts.rounds += 3;

    Ok(TransferOutcome {
        receiver_shares,
        counts,
    })
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

    /// Runs a transfer of `value` over the edge (0, 1) and returns the
    /// outcome plus the reconstructed received value.
    fn run_transfer(
        fx: &Fixture,
        variant: ProtocolVariant,
        value: u64,
        seed: u64,
    ) -> (TransferOutcome, u64) {
        let config = TransferConfig {
            variant,
            message_bits: BITS,
        };
        let mut rng = Xoshiro256::new(seed);
        let sender_vertex = NodeId(0);
        let receiver_vertex = NodeId(1);
        let sender_block = &fx.setup.blocks[0];
        let receiver_block = &fx.setup.blocks[1];
        let message = BitMessage::new(value, BITS).unwrap();
        let sender_shares = split_xor(message, sender_block.size(), &mut rng);
        // Receiver vertex 1 treats vertex 0 as its first neighbour, so the
        // certificate is blocks[1]'s certificate 0 and the matching
        // neighbor key is secrets[1].neighbor_keys[0].
        let certificate = &fx.setup.certificates[1][0];
        let neighbor_key = &fx.secrets[1].neighbor_keys[0];
        let mut traffic = TrafficAccountant::new();
        let outcome = transfer_message(
            &fx.group,
            &config,
            sender_vertex,
            receiver_vertex,
            sender_block,
            receiver_block,
            &sender_shares,
            &fx.secrets,
            certificate,
            neighbor_key,
            &fx.dlog,
            &mut traffic,
            &mut rng,
        )
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
        let mut rng = Xoshiro256::new(5);
        let message = BitMessage::new(0x5A, BITS).unwrap();
        let sender_shares = split_xor(message, 4, &mut rng);
        let config = TransferConfig::final_protocol(BITS, 0.5);
        let mut traffic = TrafficAccountant::new();
        let outcome = transfer_message(
            &fx.group,
            &config,
            NodeId(0),
            NodeId(1),
            &fx.setup.blocks[0],
            &fx.setup.blocks[1],
            &sender_shares,
            &fx.secrets,
            &fx.setup.certificates[1][0],
            &fx.secrets[1].neighbor_keys[0],
            &fx.dlog,
            &mut traffic,
            &mut rng,
        )
        .unwrap();
        assert_ne!(outcome.receiver_shares, sender_shares);
        assert_eq!(xor_reconstruct(&outcome.receiver_shares).unwrap(), message);
    }

    #[test]
    fn traffic_matches_paper_roles() {
        // §5.3: node i receives (k+1)^2 encrypted sub-shares; members of
        // B_i each send k+1; members of B_j receive a constant amount.
        let fx = fixture(3);
        let block_size = 4u64;
        let config = TransferConfig::final_protocol(BITS, 0.5);
        let mut rng = Xoshiro256::new(21);
        let message = BitMessage::new(0x3C, BITS).unwrap();
        let sender_shares = split_xor(message, block_size as usize, &mut rng);
        let mut traffic = TrafficAccountant::new();
        transfer_message(
            &fx.group,
            &config,
            NodeId(0),
            NodeId(1),
            &fx.setup.blocks[0],
            &fx.setup.blocks[1],
            &sender_shares,
            &fx.secrets,
            &fx.setup.certificates[1][0],
            &fx.secrets[1].neighbor_keys[0],
            &fx.dlog,
            &mut traffic,
            &mut rng,
        )
        .unwrap();

        let elem = fx.group.element_bytes() as u64;
        // Vertex i (node 0) receives the (k+1)^2 encrypted sub-shares, each
        // (L+1) elements wide thanks to the shared ephemeral.
        let i_received = traffic.node(NodeId(0)).bytes_received;
        let expected_subshare_bytes = block_size * block_size * (BITS as u64 + 1) * elem;
        // Node 0 is also a member of its own block, so it may receive a bit
        // more if it appears in B_j; with this fixture it does not.
        assert_eq!(i_received, expected_subshare_bytes);

        // Members of B_j each receive exactly L ciphertexts from j.
        for &member in &fx.setup.blocks[1].members {
            if member == NodeId(1) {
                continue; // j itself also receives the aggregate from i.
            }
            let received = traffic.node(member).bytes_received;
            assert!(
                received >= BITS as u64 * 2 * elem,
                "member {member} received {received}"
            );
        }
    }

    #[test]
    fn undersized_table_reports_p_fail() {
        let fx = fixture(3);
        let group = &fx.group;
        // A lookup window of 1 cannot hold bit sums up to k+1 = 4.
        let tiny = DlogTable::new_signed(group, 1);
        let config = TransferConfig::final_protocol(BITS, 0.9);
        let mut rng = Xoshiro256::new(2);
        let message = BitMessage::new(0xFF, BITS).unwrap();
        let sender_shares = split_xor(message, 4, &mut rng);
        let mut traffic = TrafficAccountant::new();
        let err = transfer_message(
            group,
            &config,
            NodeId(0),
            NodeId(1),
            &fx.setup.blocks[0],
            &fx.setup.blocks[1],
            &sender_shares,
            &fx.secrets,
            &fx.setup.certificates[1][0],
            &fx.secrets[1].neighbor_keys[0],
            &tiny,
            &mut traffic,
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(err, TransferError::DecryptionFailure);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let fx = fixture(3);
        let config = TransferConfig::final_protocol(BITS, 0.5);
        let mut rng = Xoshiro256::new(3);
        let mut traffic = TrafficAccountant::new();
        // Wrong number of sender shares.
        let err = transfer_message(
            &fx.group,
            &config,
            NodeId(0),
            NodeId(1),
            &fx.setup.blocks[0],
            &fx.setup.blocks[1],
            &[BitMessage::zero(BITS); 2],
            &fx.secrets,
            &fx.setup.certificates[1][0],
            &fx.secrets[1].neighbor_keys[0],
            &fx.dlog,
            &mut traffic,
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, TransferError::BlockSizeMismatch { .. }));
    }

    /// A fixed-seed transfer over the edge (0, 1) whose arguments one test
    /// can bend: returns the result, the traffic it recorded and the RNG.
    fn try_transfer(
        fx: &Fixture,
        variant: ProtocolVariant,
        secrets: &[NodeSecrets],
    ) -> (
        Result<TransferOutcome, TransferError>,
        TrafficAccountant,
        Xoshiro256,
    ) {
        let config = TransferConfig {
            variant,
            message_bits: BITS,
        };
        let mut rng = Xoshiro256::new(31);
        let mut traffic = TrafficAccountant::new();
        let result = transfer_message(
            &fx.group,
            &config,
            NodeId(0),
            NodeId(1),
            &fx.setup.blocks[0],
            &fx.setup.blocks[1],
            &[BitMessage::zero(BITS); 4],
            secrets,
            &fx.setup.certificates[1][0],
            &fx.secrets[1].neighbor_keys[0],
            &fx.dlog,
            &mut traffic,
            &mut rng,
        );
        (result, traffic, rng)
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
            let (result, traffic, rng) =
                try_transfer(&fx, ProtocolVariant::Final { alpha }, &fx.secrets);
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
        assert!(try_transfer(&fx, smallest, &fx.secrets).0.is_ok());
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
            ProtocolVariant::Strawman3,
            ProtocolVariant::Final { alpha: 0.5 },
        ] {
            for secrets in [truncated, &short_keys[..]] {
                let (result, traffic, rng) = try_transfer(&fx, variant, secrets);
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
                encrypt_subshares(&group, certificate, &sender_shares, BITS as usize, &mut rng)
                    .unwrap();
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
        // A share narrower than L used to surface from the per-bundle
        // encryption; the key-outer path checks it before any draw.
        let fx = fixture(3);
        let mut rng = Xoshiro256::new(1);
        let err = encrypt_subshares(
            &fx.group,
            &fx.setup.certificates[1][0],
            &[BitMessage::zero(BITS - 1); 4],
            BITS as usize,
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            TransferError::Crypto(CryptoError::ShareCountMismatch { .. })
        ));
        assert_eq!(rng.next_u64(), Xoshiro256::new(1).next_u64());
    }

    #[test]
    fn measured_wire_bytes_reconcile_with_the_analytic_model() {
        // Every hop routes its ciphertexts through the wire codec, so
        // `wire_bytes` is measured from real encodings.  For the final
        // protocol the SubShares hop encodes the shared ephemeral once —
        // the analytic model's (L+1)-element figure — so measured lands
        // within [1.0, 1.1]× of modeled: equal payloads plus per-message
        // headers (tag, width, varints).
        let fx = fixture(3);
        for variant in [
            ProtocolVariant::Strawman3,
            ProtocolVariant::Final { alpha: 0.5 },
        ] {
            let (outcome, _) = run_transfer(&fx, variant, 0x21, 5);
            assert!(outcome.counts.wire_bytes > 0);
            let ratio = outcome.counts.wire_bytes as f64 / outcome.counts.bytes_sent as f64;
            assert!(
                (1.0..1.1).contains(&ratio),
                "{variant:?}: measured/modeled = {ratio}"
            );
        }
        // The whole-share strawmen cross the wire too (their hops are
        // measured as plain ciphertext bundles).
        let (s1, _) = run_transfer(&fx, ProtocolVariant::Strawman1, 0x21, 5);
        assert!(s1.counts.wire_bytes > s1.counts.bytes_sent);
    }

    #[test]
    fn wire_traffic_is_recorded_per_node() {
        let fx = fixture(3);
        let config = TransferConfig::final_protocol(BITS, 0.5);
        let mut rng = Xoshiro256::new(8);
        let message = BitMessage::new(0x4D, BITS).unwrap();
        let sender_shares = split_xor(message, 4, &mut rng);
        let mut traffic = TrafficAccountant::new();
        transfer_message(
            &fx.group,
            &config,
            NodeId(0),
            NodeId(1),
            &fx.setup.blocks[0],
            &fx.setup.blocks[1],
            &sender_shares,
            &fx.secrets,
            &fx.setup.certificates[1][0],
            &fx.secrets[1].neighbor_keys[0],
            &fx.dlog,
            &mut traffic,
            &mut rng,
        )
        .unwrap();
        // Vertex i (node 0) received the measured sub-share bundles and
        // forwarded the measured aggregate to j.
        assert!(traffic.node(NodeId(0)).wire_bytes_received > 0);
        assert!(traffic.node(NodeId(0)).wire_bytes_sent > 0);
        assert!(traffic.report().total_wire_bytes > 0);
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
        assert!(o_large.counts.bytes_sent > o_small.counts.bytes_sent);
    }

    #[test]
    fn kernel_counts_match_the_analytic_model() {
        // Cross-check with `dstress-core`'s accounted execution model: for
        // block size b and L message bits the final protocol does
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
