//! §5.2–5.3: message-transfer micro-benchmarks.
//!
//! The paper measures the time to transfer a single 12-bit message between
//! two blocks (285 ms with 8-node blocks, 610 ms with 20-node blocks —
//! roughly linear in `k` with a quadratic aggregation component) and the
//! traffic per role: vertex `i` receives `(k+1)²` encrypted sub-shares
//! (97–595 kB), each member of `B_i` sends `k+1` sub-shares (≤ 29 kB), and
//! each member of `B_j` receives a constant amount (~1.4 kB).
//!
//! This module runs the real protocol (ElGamal and all) and reports both
//! measured wall-clock time and the projected prototype-scale time, plus
//! the per-role traffic; it also supports the protocol-ablation comparison
//! across the strawman variants.

use dstress_crypto::dlog::DlogTable;
use dstress_crypto::group::Group;
use dstress_crypto::sharing::{split_xor, BitMessage};
use dstress_math::rng::Xoshiro256;
use dstress_net::cost::{CostModel, OperationCounts};
use dstress_net::traffic::{NodeId, TrafficAccountant};
use dstress_transfer::protocol::{transfer_message, ProtocolVariant, TransferConfig};
use dstress_transfer::setup::generate_system;
use dstress_transfer::wire::{adjusted_wire_len, aggregated_wire_len, subshares_wire_len};
use std::time::Instant;

/// One measured transfer row.
#[derive(Clone, Debug)]
pub struct TransferRow {
    /// Protocol variant.
    pub variant: ProtocolVariant,
    /// Block size `k + 1`.
    pub block_size: usize,
    /// Message width in bits.
    pub message_bits: u32,
    /// Measured wall-clock seconds of one transfer (in-process, 64-bit
    /// simulation group).
    pub measured_seconds: f64,
    /// Projected seconds with the paper's cost model (secp384r1-class
    /// exponentiations).
    pub projected_seconds: f64,
    /// Bytes received by the sending vertex `i` (the `(k+1)²` sub-shares).
    pub vertex_i_received_bytes: u64,
    /// Bytes sent by one member of the sending block.
    pub sender_member_sent_bytes: u64,
    /// Bytes received by one member of the receiving block (excluding the
    /// receiving vertex itself).
    pub receiver_member_received_bytes: u64,
    /// Operation counts of the transfer.
    pub counts: OperationCounts,
}

/// Runs one transfer with the given block size and variant and returns the
/// measured row.
pub fn run_transfer_micro(
    variant: ProtocolVariant,
    block_size: usize,
    message_bits: u32,
    seed: u64,
) -> TransferRow {
    let group = Group::sim64();
    let mut rng = Xoshiro256::new(seed);
    let collusion_bound = block_size - 1;
    // A minimal system with enough nodes for distinct blocks.
    let nodes = (3 * block_size).max(8);
    let (secrets, setup) =
        generate_system(&group, nodes, collusion_bound, 2, message_bits, &mut rng)
            .expect("setup succeeds for benchmark parameters");
    let dlog = DlogTable::new_signed(&group, 4 * (1 << message_bits.min(14)) as u64 + 200);

    let config = TransferConfig {
        variant,
        message_bits,
    };
    let message = BitMessage::new(0xABC & ((1 << message_bits) - 1), message_bits)
        .expect("value fits the width");
    let sender_shares = split_xor(message, block_size, &mut rng);
    let mut traffic = TrafficAccountant::new();

    let start = Instant::now();
    let outcome = transfer_message(
        &group,
        &config,
        NodeId(0),
        NodeId(1),
        &setup.blocks[0],
        &setup.blocks[1],
        &sender_shares,
        &secrets,
        &setup.certificates[1][0],
        &secrets[1].neighbor_keys[0],
        &dlog,
        &mut traffic,
        &mut rng,
    )
    .expect("benchmark transfer succeeds");
    let measured_seconds = start.elapsed().as_secs_f64();

    // Project the *completion time* of the transfer on the prototype's
    // hardware: the sub-share encryptions and decryptions run in parallel
    // across the block members (so their cost divides by the block size),
    // while the homomorphic aggregation is serialised at vertex `i` — this
    // is exactly why the paper reports a roughly-linear-in-`k` latency with
    // a small quadratic component (§5.2).  Traffic is what the same
    // messages encode to with the prototype's 48-byte secp384r1 elements.
    let cost = CostModel::paper_reference();
    let projected_bytes = wire_bytes_at(variant, block_size, message_bits as usize, 48) as f64;
    let projected_seconds = outcome.counts.exponentiations as f64 / block_size as f64
        * cost.seconds_per_exponentiation
        + outcome.counts.fixed_base_exponentiations as f64 / block_size as f64
            * cost.seconds_per_fixed_base_exponentiation
        + outcome.counts.group_multiplications as f64 * cost.seconds_per_group_multiplication
        + projected_bytes / cost.bandwidth_bytes_per_second
        + outcome.counts.rounds as f64 * cost.latency_per_round;

    let sender_member = setup.blocks[0]
        .members
        .iter()
        .copied()
        .find(|&m| m != NodeId(0) && !setup.blocks[1].members.contains(&m))
        .unwrap_or(setup.blocks[0].members[1]);
    let receiver_member = setup.blocks[1]
        .members
        .iter()
        .copied()
        .find(|&m| m != NodeId(1) && !setup.blocks[0].members.contains(&m))
        .unwrap_or(setup.blocks[1].members[1]);

    TransferRow {
        variant,
        block_size,
        message_bits,
        measured_seconds,
        projected_seconds,
        vertex_i_received_bytes: traffic.node(NodeId(0)).wire_bytes_received,
        sender_member_sent_bytes: traffic.node(sender_member).wire_bytes_sent,
        receiver_member_received_bytes: traffic.node(receiver_member).wire_bytes_received,
        counts: outcome.counts,
    }
}

/// The bytes one transfer of `variant` between blocks of `block_size`
/// members puts on the wire with `elem_bytes`-byte group elements, from
/// the codec's closed-form encoded lengths.  The whole-share strawmen
/// send plain ciphertext bundles on every hop (`x → i`, `i → j`,
/// `j → y`); the bitwise variants send sub-share bundles, one aggregate
/// and the adjusted bits.
pub fn wire_bytes_at(
    variant: ProtocolVariant,
    block_size: usize,
    bits: usize,
    elem_bytes: usize,
) -> u64 {
    let members = block_size as u64;
    match variant {
        ProtocolVariant::Strawman1 => {
            2 * members * adjusted_wire_len(1, elem_bytes)
                + adjusted_wire_len(block_size, elem_bytes)
        }
        ProtocolVariant::Strawman2 => {
            2 * members * adjusted_wire_len(block_size, elem_bytes)
                + adjusted_wire_len(block_size * block_size, elem_bytes)
        }
        ProtocolVariant::Strawman3 | ProtocolVariant::Final { .. } => {
            let per_sender: u64 = (0..block_size)
                .map(|y| subshares_wire_len(y, bits, elem_bytes))
                .sum();
            members * per_sender
                + aggregated_wire_len(block_size, bits, elem_bytes)
                + members * adjusted_wire_len(bits, elem_bytes)
        }
    }
}

/// The §5.2 sweep: the final protocol across block sizes.
pub fn block_size_sweep(block_sizes: &[usize], message_bits: u32) -> Vec<TransferRow> {
    block_size_sweep_with_threads(block_sizes, message_bits, 1)
}

/// [`block_size_sweep`] with the points fanned out over a worker pool.
pub fn block_size_sweep_with_threads(
    block_sizes: &[usize],
    message_bits: u32,
    threads: usize,
) -> Vec<TransferRow> {
    dstress_net::pool::parallel_map(block_sizes.to_vec(), threads, |_idx, b| {
        run_transfer_micro(ProtocolVariant::Final { alpha: 0.9 }, b, message_bits, 0x7B)
    })
}

/// The protocol ablation: all four variants at a fixed block size.
pub fn variant_sweep(block_size: usize, message_bits: u32) -> Vec<TransferRow> {
    [
        ProtocolVariant::Strawman1,
        ProtocolVariant::Strawman2,
        ProtocolVariant::Strawman3,
        ProtocolVariant::Final { alpha: 0.9 },
    ]
    .into_iter()
    .map(|v| run_transfer_micro(v, block_size, message_bits, 0x7C))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_wire_bytes_equal_the_measured_transfer() {
        // At the simulation group's element size the closed form is the
        // measured byte count of every variant, so at 48 bytes it is what
        // the prototype's encodings would measure.
        let elem = Group::sim64().element_bytes();
        for row in variant_sweep(4, 12) {
            assert_eq!(
                wire_bytes_at(row.variant, 4, 12, elem),
                row.counts.wire_bytes,
                "{:?}",
                row.variant
            );
        }
    }

    #[test]
    fn transfer_time_grows_with_block_size() {
        // §5.2: completion time roughly proportional to k (285 ms at block
        // size 8 vs 610 ms at block size 20 in the paper — about 2.1×).
        let rows = block_size_sweep(&[8, 20], 12);
        let ratio = rows[1].projected_seconds / rows[0].projected_seconds;
        assert!((1.5..4.0).contains(&ratio), "projected ratio was {ratio}");
        // The projected absolute numbers land in the right regime
        // (hundreds of milliseconds, not microseconds or minutes).
        assert!(rows[0].projected_seconds > 0.02 && rows[0].projected_seconds < 2.0);
        assert!(rows[1].projected_seconds > rows[0].projected_seconds);
    }

    #[test]
    fn traffic_matches_paper_roles() {
        // §5.3: i's received volume is quadratic in the block size, the
        // sender members' volume linear, and the receiver members' volume
        // constant.
        let rows = block_size_sweep(&[8, 16], 12);
        let quad_ratio =
            rows[1].vertex_i_received_bytes as f64 / rows[0].vertex_i_received_bytes as f64;
        assert!(
            (3.0..5.0).contains(&quad_ratio),
            "vertex-i ratio {quad_ratio}"
        );
        let lin_ratio =
            rows[1].sender_member_sent_bytes as f64 / rows[0].sender_member_sent_bytes as f64;
        assert!(
            (1.5..3.0).contains(&lin_ratio),
            "sender-member ratio {lin_ratio}"
        );
        let const_ratio = rows[1].receiver_member_received_bytes as f64
            / rows[0].receiver_member_received_bytes as f64;
        assert!(const_ratio < 1.6, "receiver-member ratio {const_ratio}");
    }

    #[test]
    fn strawmen_are_cheaper_than_final() {
        let rows = variant_sweep(6, 8);
        assert_eq!(rows.len(), 4);
        let exps: Vec<u64> = rows.iter().map(|r| r.counts.exponentiations).collect();
        assert!(exps[0] < exps[2], "strawman1 vs strawman3: {exps:?}");
        assert!(exps[2] <= exps[3], "strawman3 vs final: {exps:?}");
    }
}
