//! Pins all four transfer protocol variants to constants.
//!
//! The bitwise protocol used to have three kernel modes that were only ever
//! compared with each other.  With one path left, these constants are
//! what anchors it: they were captured on the commit that still had all
//! three modes (where `transfer_message` ran the `Auto` arm), and the
//! surviving path must reproduce them to the bit — receiver shares,
//! every [`OperationCounts`] field, every per-node traffic counter, and
//! the RNG's next draw after the transfer returns (so the draw *order*
//! and *count* are pinned, not only the values derived from them).
//!
//! `PINNED_STRAWMEN` holds the same fingerprint for the whole-value
//! strawmen #1 and #2 over the same group × block grid.  Those rows were
//! captured on `1b3f76f`, before `protocol.rs` was split into one function
//! per role step, so the refactor is held to the strawmen's shares,
//! counts, traffic and draw order too.  The strawmen decrypt whole
//! `L`-bit values, so their lookup table covers `±2^L`.
//!
//! Never regenerate these constants to make a change pass: a mismatch
//! means the change altered shares, accounting, traffic or RNG draw order.

use dstress_crypto::dlog::DlogTable;
use dstress_crypto::group::{Group, GroupKind};
use dstress_crypto::sharing::{split_xor, xor_reconstruct, BitMessage};
use dstress_math::rng::{DetRng, Xoshiro256};
use dstress_net::cost::OperationCounts;
use dstress_net::traffic::{NodeId, NodeTraffic, TrafficAccountant};
use dstress_transfer::setup::generate_system;
use dstress_transfer::{transfer_message, ProtocolVariant, TransferConfig};

const BITS: u32 = 12;
const MESSAGE: u64 = 0xA5C;
const FINAL: ProtocolVariant = ProtocolVariant::Final { alpha: 0.5 };

/// One pinned system (group × block size) and everything observable about
/// the two bitwise variants' transfers over it.  The final protocol's
/// noise is even and is drawn after every sub-share is encrypted, so it
/// changes neither the receiver shares nor the traffic — only the
/// noise-folding counts and the RNG position.
struct Pinned {
    group: GroupKind,
    block: usize,
    /// Receiver shares, aligned with the receiving block's members.
    shares: &'static [u64],
    /// `sorted_node_entries()` as `(node, [wire_bytes_sent,
    /// wire_bytes_received])`.
    traffic: &'static [(usize, [u64; 2])],
    /// Per variant: `OperationCounts` in declaration order
    /// (exponentiations, fixed_base_exponentiations,
    /// group_multiplications, base_ots, extended_ots, and_gates,
    /// free_gates, wire_bytes, rounds), then
    /// `rng.next_u64()` right after `transfer_message` returns.
    strawman3: ([u64; 9], u64),
    final_protocol: ([u64; 9], u64),
}

#[derive(Debug, PartialEq)]
struct Observed {
    shares: Vec<u64>,
    counts: [u64; 9],
    traffic: Vec<(usize, [u64; 2])>,
    next_rng: u64,
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

fn traffic_array(t: &NodeTraffic) -> [u64; 2] {
    [t.wire_bytes_sent, t.wire_bytes_received]
}

/// Sets up a 12-node system with blocks of `block` members and moves one
/// 12-bit message over the edge (0, 1).
fn observe(kind: GroupKind, variant: ProtocolVariant, block: usize) -> Observed {
    let group = Group::new(kind);
    let mut rng = Xoshiro256::new(0x9D57 ^ (block as u64) << 8);
    let (secrets, setup) = generate_system(&group, 12, block - 1, 2, BITS, &mut rng).unwrap();
    // The strawmen decrypt whole L-bit values, the bitwise variants
    // bit-sums plus noise.
    let window = match variant {
        ProtocolVariant::Strawman1 | ProtocolVariant::Strawman2 => 1 << BITS,
        _ => 600,
    };
    let dlog = DlogTable::new_signed(&group, window);
    let message = BitMessage::new(MESSAGE, BITS).unwrap();
    let sender_shares = split_xor(message, block, &mut rng);
    let config = TransferConfig {
        variant,
        message_bits: BITS,
    };
    let mut traffic = TrafficAccountant::new();
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
    .unwrap();
    assert_eq!(xor_reconstruct(&outcome.receiver_shares).unwrap(), message);
    Observed {
        shares: outcome.receiver_shares.iter().map(|s| s.value()).collect(),
        counts: counts_array(&outcome.counts),
        traffic: traffic
            .sorted_node_entries()
            .iter()
            .map(|(node, t)| (node.0, traffic_array(t)))
            .collect(),
        next_rng: rng.next_u64(),
    }
}

/// One pinned whole-value transfer (strawman #1 or #2) over the same
/// grid.  The strawmen route whole-value ciphertexts, so each row has its
/// own shares and traffic.
struct PinnedStrawman {
    group: GroupKind,
    block: usize,
    variant: ProtocolVariant,
    shares: &'static [u64],
    traffic: &'static [(usize, [u64; 2])],
    counts: [u64; 9],
    next_rng: u64,
}

#[test]
fn bitwise_transfer_matches_the_pinned_fingerprints() {
    assert_eq!(PINNED.len(), 4, "2 groups x 2 block sizes, 2 variants each");
    for pinned in PINNED {
        for (variant, (counts, next_rng)) in [
            (ProtocolVariant::Strawman3, pinned.strawman3),
            (FINAL, pinned.final_protocol),
        ] {
            let expected = Observed {
                shares: pinned.shares.to_vec(),
                counts,
                traffic: pinned.traffic.to_vec(),
                next_rng,
            };
            assert_eq!(
                observe(pinned.group, variant, pinned.block),
                expected,
                "{:?} {variant:?} block {}",
                pinned.group,
                pinned.block
            );
        }
    }
}

const PINNED: &[Pinned] = &[
    Pinned {
        group: GroupKind::Sim64,
        block: 3,
        shares: &[1836, 2180, 1524],
        traffic: &[
            (0, [906, 972]),
            (1, [909, 777]),
            (2, [324, 195]),
            (3, [0, 195]),
        ],
        strawman3: ([111, 45, 186, 0, 0, 0, 0, 2139, 3], 0x4ff9c2823f7fa113),
        final_protocol: ([111, 81, 222, 0, 0, 0, 0, 2139, 3], 0x39aac7f51e033269),
    },
    Pinned {
        group: GroupKind::Sim64,
        block: 8,
        shares: &[2676, 2238, 1894, 3495, 919, 3541, 763, 3822],
        traffic: &[
            (0, [2411, 6912]),
            (1, [2424, 1742]),
            (2, [0, 195]),
            (3, [0, 195]),
            (5, [864, 195]),
            (6, [864, 0]),
            (7, [864, 195]),
            (8, [864, 195]),
            (9, [864, 195]),
            (10, [864, 195]),
        ],
        strawman3: ([776, 160, 1496, 0, 0, 0, 0, 10019, 3], 0xeb8fff060c88c843),
        final_protocol: ([776, 256, 1592, 0, 0, 0, 0, 10019, 3], 0x398cddce6d367ac7),
    },
    Pinned {
        group: GroupKind::Prod256,
        block: 3,
        shares: &[1504, 81, 4077],
        traffic: &[
            (0, [3570, 3780]),
            (1, [2313, 3081]),
            (4, [0, 771]),
            (5, [0, 771]),
            (6, [1260, 0]),
            (7, [1260, 0]),
        ],
        strawman3: ([111, 45, 186, 0, 0, 0, 0, 8403, 3], 0x6e00c540bd477767),
        final_protocol: ([111, 81, 222, 0, 0, 0, 0, 8403, 3], 0xc8f5ccb5fb39727f),
    },
    Pinned {
        group: GroupKind::Prod256,
        block: 8,
        shares: &[1487, 2449, 2528, 1107, 2572, 3647, 3451, 761],
        traffic: &[
            (0, [9515, 26880]),
            (1, [6168, 6926]),
            (2, [3360, 0]),
            (3, [3360, 771]),
            (4, [3360, 771]),
            (5, [0, 771]),
            (6, [3360, 771]),
            (8, [0, 771]),
            (9, [3360, 0]),
            (10, [3360, 771]),
            (11, [3360, 771]),
        ],
        strawman3: ([776, 160, 1496, 0, 0, 0, 0, 39203, 3], 0x6d5d06a02ec73876),
        final_protocol: ([776, 256, 1592, 0, 0, 0, 0, 39203, 3], 0xbb3d3f4579a3153f),
    },
];

#[test]
fn whole_value_strawmen_match_the_pinned_fingerprints() {
    assert_eq!(
        PINNED_STRAWMEN.len(),
        8,
        "2 groups x 2 block sizes x 2 strawmen"
    );
    for pinned in PINNED_STRAWMEN {
        let expected = Observed {
            shares: pinned.shares.to_vec(),
            counts: pinned.counts,
            traffic: pinned.traffic.to_vec(),
            next_rng: pinned.next_rng,
        };
        assert_eq!(
            observe(pinned.group, pinned.variant, pinned.block),
            expected,
            "{:?} {:?} block {}",
            pinned.group,
            pinned.variant,
            pinned.block
        );
    }
}

const PINNED_STRAWMEN: &[PinnedStrawman] = &[
    PinnedStrawman {
        group: GroupKind::Sim64,
        block: 3,
        variant: ProtocolVariant::Strawman1,
        shares: &[3733, 3197, 2228],
        traffic: &[(0, [70, 57]), (1, [76, 70]), (2, [19, 19]), (3, [0, 19])],
        counts: [12, 6, 0, 0, 0, 0, 0, 165, 3],
        next_rng: 0x63430f53a38d17ce,
    },
    PinnedStrawman {
        group: GroupKind::Sim64,
        block: 3,
        variant: ProtocolVariant::Strawman2,
        shares: &[1836, 2180, 1524],
        traffic: &[
            (0, [198, 153]),
            (1, [204, 198]),
            (2, [51, 51]),
            (3, [0, 51]),
        ],
        counts: [36, 18, 0, 0, 0, 0, 0, 453, 3],
        next_rng: 0x4ff9c2823f7fa113,
    },
    PinnedStrawman {
        group: GroupKind::Sim64,
        block: 8,
        variant: ProtocolVariant::Strawman1,
        shares: &[711, 1091, 61, 506, 292, 3024, 1196, 839],
        traffic: &[
            (0, [150, 152]),
            (1, [171, 150]),
            (2, [0, 19]),
            (3, [0, 19]),
            (5, [19, 19]),
            (6, [19, 0]),
            (7, [19, 19]),
            (8, [19, 19]),
            (9, [19, 19]),
            (10, [19, 19]),
        ],
        counts: [32, 16, 0, 0, 0, 0, 0, 435, 3],
        next_rng: 0xf8df7ece9c7aaf12,
    },
    PinnedStrawman {
        group: GroupKind::Sim64,
        block: 8,
        variant: ProtocolVariant::Strawman2,
        shares: &[2676, 2238, 1894, 3495, 919, 3541, 763, 3822],
        traffic: &[
            (0, [1158, 1048]),
            (1, [1179, 1158]),
            (2, [0, 131]),
            (3, [0, 131]),
            (5, [131, 131]),
            (6, [131, 0]),
            (7, [131, 131]),
            (8, [131, 131]),
            (9, [131, 131]),
            (10, [131, 131]),
        ],
        counts: [256, 128, 0, 0, 0, 0, 0, 3123, 3],
        next_rng: 0xeb8fff060c88c843,
    },
    PinnedStrawman {
        group: GroupKind::Prod256,
        block: 3,
        variant: ProtocolVariant::Strawman1,
        shares: &[4022, 3376, 2266],
        traffic: &[
            (0, [262, 201]),
            (1, [201, 262]),
            (4, [0, 67]),
            (5, [0, 67]),
            (6, [67, 0]),
            (7, [67, 0]),
        ],
        counts: [12, 6, 0, 0, 0, 0, 0, 597, 3],
        next_rng: 0xa0ddf349a88beb2d,
    },
    PinnedStrawman {
        group: GroupKind::Prod256,
        block: 3,
        variant: ProtocolVariant::Strawman2,
        shares: &[1504, 81, 4077],
        traffic: &[
            (0, [774, 585]),
            (1, [585, 774]),
            (4, [0, 195]),
            (5, [0, 195]),
            (6, [195, 0]),
            (7, [195, 0]),
        ],
        counts: [36, 18, 0, 0, 0, 0, 0, 1749, 3],
        next_rng: 0x6e00c540bd477767,
    },
    PinnedStrawman {
        group: GroupKind::Prod256,
        block: 8,
        variant: ProtocolVariant::Strawman1,
        shares: &[3022, 3482, 498, 3824, 2363, 2824, 243, 458],
        traffic: &[
            (0, [582, 536]),
            (1, [536, 582]),
            (2, [67, 0]),
            (3, [67, 67]),
            (4, [67, 67]),
            (5, [0, 67]),
            (6, [67, 67]),
            (8, [0, 67]),
            (9, [67, 0]),
            (10, [67, 67]),
            (11, [67, 67]),
        ],
        counts: [32, 16, 0, 0, 0, 0, 0, 1587, 3],
        next_rng: 0x87e0f173b8a59fde,
    },
    PinnedStrawman {
        group: GroupKind::Prod256,
        block: 8,
        variant: ProtocolVariant::Strawman2,
        shares: &[1487, 2449, 2528, 1107, 2572, 3647, 3451, 761],
        traffic: &[
            (0, [4614, 4120]),
            (1, [4120, 4614]),
            (2, [515, 0]),
            (3, [515, 515]),
            (4, [515, 515]),
            (5, [0, 515]),
            (6, [515, 515]),
            (8, [0, 515]),
            (9, [515, 0]),
            (10, [515, 515]),
            (11, [515, 515]),
        ],
        counts: [256, 128, 0, 0, 0, 0, 0, 12339, 3],
        next_rng: 0x6d5d06a02ec73876,
    },
];
