//! Wire encoding of the engine's control messages.
//!
//! The runtime's two non-protocol message flows — the initialization
//! step's share distribution and the aggregation step's re-sharing into
//! the aggregation block — route their payloads through these encodings,
//! so the bytes charged for them are measured from real bit-packed
//! buffers rather than assumed.
//!
//! ## Layouts
//!
//! | message | layout |
//! |---|---|
//! | `InitShare` | `0x00` · uvarint(state bits) · uvarint(inbox bits) · state-plane · inbox-plane |
//! | `AggShare`  | `0x01` · uvarint(bits) · bit-plane |
//!
//! The round-boundary checkpoint formats (written by the state-store
//! layer, [`crate::store`]) also live here:
//!
//! | record | layout |
//! |---|---|
//! | `CheckpointManifest` | `0x4D` · u32 version · uvarint(round) · uvarint(iterations) · u64 fingerprint · 4×u64 RNG state · 3×phase costs · traffic entries · segment digests |
//! | `SegmentRecord` | `0x53` · u8 store · uvarint(index) · uvarint(words) · words as u64 LE · u64 FNV-1a digest |
//!
//! Phase costs are the nine [`OperationCounts`] uvarints followed by the
//! wall seconds as an `f64` bit pattern (u64 LE); segment digests are
//! `u8 store · uvarint(index) · u64 digest` each, uvarint-counted.  A
//! `SegmentRecord` whose digest does not match its words is rejected at
//! decode time, so a torn checkpoint write cannot resume silently.
//!
//! Bit planes pack LSB-first with zero padding (see
//! [`dstress_net::wire`]); an `InitShare` therefore costs
//! `⌈state/8⌉ + ⌈D·L/8⌉` bytes plus a few header bytes.

use crate::engine::PhaseCosts;
use crate::exec::{BlockStepOutcome, BlockStepTask, TransferOutcome, TransferTask};
use crate::store::digest64_words;
use dstress_net::cost::OperationCounts;
use dstress_net::traffic::{NodeId, NodeTraffic};
use dstress_net::wire::{self, Wire, WireError};

/// Message tags.
const TAG_INIT_SHARE: u8 = 0x00;
const TAG_AGG_SHARE: u8 = 0x01;
/// Checkpoint record tags (`'M'` and `'S'`).
const TAG_MANIFEST: u8 = 0x4D;
const TAG_SEGMENT: u8 = 0x53;
/// Layout version of the checkpoint manifest.  Version 2 dropped the
/// analytic byte model from the phase costs and the traffic snapshot.
pub(crate) const CHECKPOINT_VERSION: u32 = 2;

/// Takes a record's leading tag byte off `buf`.
fn expect_tag(buf: &mut &[u8], expected: u8, what: &'static str) -> Result<(), WireError> {
    match wire::get_u8(buf)? {
        tag if tag == expected => Ok(()),
        tag => Err(WireError::BadTag { tag, what }),
    }
}

/// Initialization: one block member's XOR share of a vertex's initial
/// state plus its `D` no-op inbox message slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InitShare {
    /// The member's share of the state bits.
    pub state: Vec<bool>,
    /// The member's share of all `D · L` inbox bits, slot-major.
    pub inbox: Vec<bool>,
}

impl Wire for InitShare {
    fn encode_into(&self, out: &mut Vec<u8>) {
        wire::put_u8(out, TAG_INIT_SHARE);
        wire::put_uvarint(out, self.state.len() as u64);
        wire::put_uvarint(out, self.inbox.len() as u64);
        wire::put_bits(out, &self.state);
        wire::put_bits(out, &self.inbox);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        expect_tag(buf, TAG_INIT_SHARE, "InitShare")?;
        let state_len = wire::get_uvarint(buf)? as usize;
        let inbox_len = wire::get_uvarint(buf)? as usize;
        Ok(InitShare {
            state: wire::get_bits(buf, state_len)?,
            inbox: wire::get_bits(buf, inbox_len)?,
        })
    }
}

/// Aggregation: one block member's sub-share of a vertex state, destined
/// for one aggregation-block member.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggShare {
    /// The sub-share bits.
    pub bits: Vec<bool>,
}

impl Wire for AggShare {
    fn encode_into(&self, out: &mut Vec<u8>) {
        wire::put_u8(out, TAG_AGG_SHARE);
        wire::put_uvarint(out, self.bits.len() as u64);
        wire::put_bits(out, &self.bits);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        expect_tag(buf, TAG_AGG_SHARE, "AggShare")?;
        let len = wire::get_uvarint(buf)? as usize;
        Ok(AggShare {
            bits: wire::get_bits(buf, len)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Executor task and outcome encodings
// ---------------------------------------------------------------------------
//
// These are the payloads the master/worker deployment layer ships inside
// its framed messages.  Layout building blocks: uvarints for all counts
// and indices, `u64` little-endian for the (uniformly random) task seeds,
// and LSB-first bit planes for share vectors.

/// Writes a list of bit vectors: uvarint count, then per vector a uvarint
/// bit length and the packed plane.
fn put_bit_vecs(out: &mut Vec<u8>, vecs: &[Vec<bool>]) {
    wire::put_uvarint(out, vecs.len() as u64);
    for bits in vecs {
        wire::put_uvarint(out, bits.len() as u64);
        wire::put_bits(out, bits);
    }
}

/// Reads a list written by [`put_bit_vecs`].
fn get_bit_vecs(buf: &mut &[u8]) -> Result<Vec<Vec<bool>>, WireError> {
    let count = wire::get_uvarint(buf)? as usize;
    let mut vecs = Vec::new();
    for _ in 0..count {
        let len = wire::get_uvarint(buf)? as usize;
        vecs.push(wire::get_bits(buf, len)?);
    }
    Ok(vecs)
}

impl Wire for BlockStepTask {
    fn encode_into(&self, out: &mut Vec<u8>) {
        wire::put_uvarint(out, self.vertex);
        wire::put_u64_le(out, self.seed);
        self.members.encode_into(out);
        wire::put_uvarint(out, self.out_slots);
        put_bit_vecs(out, &self.input_shares);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(BlockStepTask {
            vertex: wire::get_uvarint(buf)?,
            seed: wire::get_u64_le(buf)?,
            members: Vec::decode(buf)?,
            out_slots: wire::get_uvarint(buf)?,
            input_shares: get_bit_vecs(buf)?,
        })
    }
}

impl Wire for BlockStepOutcome {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_bit_vecs(out, &self.new_state);
        wire::put_uvarint(out, self.outgoing.len() as u64);
        for slot in &self.outgoing {
            put_bit_vecs(out, slot);
        }
        self.counts.encode_into(out);
        self.traffic.encode_into(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let new_state = get_bit_vecs(buf)?;
        let slots = wire::get_uvarint(buf)? as usize;
        let mut outgoing = Vec::new();
        for _ in 0..slots {
            outgoing.push(get_bit_vecs(buf)?);
        }
        Ok(BlockStepOutcome {
            new_state,
            outgoing,
            counts: OperationCounts::decode(buf)?,
            traffic: Vec::decode(buf)?,
        })
    }
}

impl Wire for TransferTask {
    fn encode_into(&self, out: &mut Vec<u8>) {
        wire::put_uvarint(out, self.edge_index);
        wire::put_u64_le(out, self.seed);
        wire::put_uvarint(out, self.from);
        wire::put_uvarint(out, self.to);
        wire::put_uvarint(out, self.in_slot);
        self.sender_members.encode_into(out);
        self.receiver_members.encode_into(out);
        put_bit_vecs(out, &self.shares);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(TransferTask {
            edge_index: wire::get_uvarint(buf)?,
            seed: wire::get_u64_le(buf)?,
            from: wire::get_uvarint(buf)?,
            to: wire::get_uvarint(buf)?,
            in_slot: wire::get_uvarint(buf)?,
            sender_members: Vec::decode(buf)?,
            receiver_members: Vec::decode(buf)?,
            shares: get_bit_vecs(buf)?,
        })
    }
}

impl Wire for TransferOutcome {
    fn encode_into(&self, out: &mut Vec<u8>) {
        wire::put_uvarint(out, self.to);
        wire::put_uvarint(out, self.in_slot);
        put_bit_vecs(out, &self.receiver_shares);
        self.counts.encode_into(out);
        self.traffic.encode_into(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(TransferOutcome {
            to: wire::get_uvarint(buf)?,
            in_slot: wire::get_uvarint(buf)?,
            receiver_shares: get_bit_vecs(buf)?,
            counts: OperationCounts::decode(buf)?,
            traffic: Vec::decode(buf)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Checkpoint encodings
// ---------------------------------------------------------------------------

impl Wire for PhaseCosts {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.counts.encode_into(out);
        wire::put_u64_le(out, self.wall_seconds.to_bits());
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(PhaseCosts {
            counts: OperationCounts::decode(buf)?,
            wall_seconds: f64::from_bits(wire::get_u64_le(buf)?),
        })
    }
}

/// The manifest's summary of one checkpoint segment: which store it
/// belongs to, its index, and the FNV-1a digest of its packed words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentDigest {
    /// Store id (0 = vertex state, 1 = the live inbox).
    pub store: u8,
    /// Segment index within the store.
    pub index: u64,
    /// [`digest64_words`] of the segment's packed words.
    pub digest: u64,
}

impl Wire for SegmentDigest {
    fn encode_into(&self, out: &mut Vec<u8>) {
        wire::put_u8(out, self.store);
        wire::put_uvarint(out, self.index);
        wire::put_u64_le(out, self.digest);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SegmentDigest {
            store: wire::get_u8(buf)?,
            index: wire::get_uvarint(buf)?,
            digest: wire::get_u64_le(buf)?,
        })
    }
}

/// A round-boundary checkpoint manifest: everything the engine needs —
/// besides the packed segments that follow it in the checkpoint file —
/// to resume a run from the top of round `round` and reach a
/// bit-identical final release.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointManifest {
    /// The round the resumed run continues *from* (the next to execute).
    pub round: u64,
    /// Total iterations of the checkpointed program, as a consistency
    /// check against the resuming configuration.
    pub iterations: u64,
    /// Digest of the run's shape (graph geometry, widths, seed), so a
    /// checkpoint cannot be resumed against a different run.
    pub fingerprint: u64,
    /// The engine RNG's 256-bit position at the round boundary.
    pub rng_state: [u64; 4],
    /// Accumulated initialization-phase costs.
    pub initialization: PhaseCosts,
    /// Accumulated computation-phase costs.
    pub computation: PhaseCosts,
    /// Accumulated communication-phase costs.
    pub communication: PhaseCosts,
    /// Per-node traffic snapshot, sorted by node id.
    pub traffic: Vec<(NodeId, NodeTraffic)>,
    /// Digests of every segment record that follows, in file order.
    pub segments: Vec<SegmentDigest>,
}

impl Wire for CheckpointManifest {
    fn encode_into(&self, out: &mut Vec<u8>) {
        wire::put_u8(out, TAG_MANIFEST);
        wire::put_u32_le(out, CHECKPOINT_VERSION);
        wire::put_uvarint(out, self.round);
        wire::put_uvarint(out, self.iterations);
        wire::put_u64_le(out, self.fingerprint);
        for word in self.rng_state {
            wire::put_u64_le(out, word);
        }
        self.initialization.encode_into(out);
        self.computation.encode_into(out);
        self.communication.encode_into(out);
        self.traffic.encode_into(out);
        self.segments.encode_into(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        expect_tag(buf, TAG_MANIFEST, "CheckpointManifest")?;
        if wire::get_u32_le(buf)? != CHECKPOINT_VERSION {
            return Err(WireError::Invalid {
                what: "unsupported checkpoint version",
            });
        }
        let word = wire::get_u64_le;
        Ok(CheckpointManifest {
            round: wire::get_uvarint(buf)?,
            iterations: wire::get_uvarint(buf)?,
            fingerprint: word(buf)?,
            rng_state: [word(buf)?, word(buf)?, word(buf)?, word(buf)?],
            initialization: PhaseCosts::decode(buf)?,
            computation: PhaseCosts::decode(buf)?,
            communication: PhaseCosts::decode(buf)?,
            traffic: Vec::decode(buf)?,
            segments: Vec::decode(buf)?,
        })
    }
}

/// The layout version a checkpoint file declares: the `u32` after its
/// manifest tag, or `None` when `bytes` do not start with one.
pub(crate) fn checkpoint_version(bytes: &[u8]) -> Option<u32> {
    let mut buf = bytes;
    expect_tag(&mut buf, TAG_MANIFEST, "CheckpointManifest").ok()?;
    wire::get_u32_le(&mut buf).ok()
}

/// One checkpointed store segment: its packed words, tagged with the
/// store id and segment index and sealed with a digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentRecord {
    /// Store id (0 = vertex state, 1 = the live inbox).
    pub store: u8,
    /// Segment index within the store.
    pub index: u64,
    /// The segment's packed words.
    pub words: Vec<u64>,
}

impl Wire for SegmentRecord {
    fn encode_into(&self, out: &mut Vec<u8>) {
        wire::put_u8(out, TAG_SEGMENT);
        wire::put_u8(out, self.store);
        wire::put_uvarint(out, self.index);
        self.words.encode_into(out);
        wire::put_u64_le(out, digest64_words(&self.words));
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        expect_tag(buf, TAG_SEGMENT, "SegmentRecord")?;
        let store = wire::get_u8(buf)?;
        let index = wire::get_uvarint(buf)?;
        let words = Vec::<u64>::decode(buf)?;
        if wire::get_u64_le(buf)? != digest64_words(&words) {
            return Err(WireError::Invalid {
                what: "segment digest mismatch",
            });
        }
        Ok(SegmentRecord {
            store,
            index,
            words,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstress_net::wire::hex;
    use proptest::prelude::*;

    #[test]
    fn both_variants_round_trip() {
        let init = InitShare {
            state: vec![true, false, true],
            inbox: vec![false; 10],
        };
        assert_eq!(InitShare::decode_exact(&init.encode()).unwrap(), init);
        let agg = AggShare {
            bits: vec![true; 9],
        };
        assert_eq!(AggShare::decode_exact(&agg.encode()).unwrap(), agg);
    }

    #[test]
    fn golden_encodings() {
        let init = InitShare {
            state: vec![true, false, true],
            inbox: vec![true, true, false, false, true, false, false, false, true],
        };
        // tag 00 · state bits 03 · inbox bits 09 · state plane (1,0,1)=05 ·
        // inbox planes 0b10011 = 13, then bit 8 set = 01
        assert_eq!(hex(&init.encode()), "000309051301");
        let agg = AggShare {
            bits: vec![false, true],
        };
        // tag 01 · bits 02 · plane (0,1) = 02
        assert_eq!(hex(&agg.encode()), "010202");
    }

    /// Every strict prefix and a trailing byte are rejected.
    fn assert_rejects_cut_and_trailing<M: Wire + std::fmt::Debug>(msg: &M) {
        let encoded = msg.encode();
        for cut in 0..encoded.len() {
            assert!(M::decode_exact(&encoded[..cut]).is_err());
        }
        let mut trailing = encoded;
        trailing.push(0xFF);
        assert!(M::decode_exact(&trailing).is_err());
    }

    #[test]
    fn truncation_trailing_and_bad_tags_error_not_panic() {
        let init = InitShare {
            state: vec![true; 12],
            inbox: vec![false; 24],
        };
        let agg = AggShare {
            bits: vec![true, false, true],
        };
        assert_rejects_cut_and_trailing(&init);
        assert_rejects_cut_and_trailing(&agg);
        assert!(matches!(
            InitShare::decode_exact(&[0x05]),
            Err(WireError::BadTag { .. })
        ));
        // Each layout refuses the other's tag.
        assert!(matches!(
            AggShare::decode_exact(&init.encode()),
            Err(WireError::BadTag { tag: 0x00, .. })
        ));
        assert!(matches!(
            InitShare::decode_exact(&agg.encode()),
            Err(WireError::BadTag { tag: 0x01, .. })
        ));
        // Dirty padding bits in the plane are rejected.
        assert!(matches!(
            AggShare::decode_exact(&[TAG_AGG_SHARE, 0x02, 0xFF]),
            Err(WireError::Invalid { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_engine_messages_round_trip(
            state in proptest::collection::vec(any::<bool>(), 0..64),
            inbox in proptest::collection::vec(any::<bool>(), 0..128),
        ) {
            let init = InitShare { state: state.clone(), inbox };
            prop_assert_eq!(InitShare::decode_exact(&init.encode()).unwrap(), init);
            let agg = AggShare { bits: state };
            prop_assert_eq!(AggShare::decode_exact(&agg.encode()).unwrap(), agg);
        }
    }

    fn sample_block_step_task() -> BlockStepTask {
        BlockStepTask {
            vertex: 2,
            seed: 0x0102_0304_0506_0708,
            members: vec![NodeId(2), NodeId(5)],
            out_slots: 1,
            input_shares: vec![vec![true, false], vec![false, true]],
        }
    }

    fn sample_transfer_task() -> TransferTask {
        TransferTask {
            edge_index: 7,
            seed: 0x11,
            from: 0,
            to: 1,
            in_slot: 0,
            sender_members: vec![NodeId(0), NodeId(2)],
            receiver_members: vec![NodeId(1), NodeId(3)],
            shares: vec![vec![true], vec![true]],
        }
    }

    #[test]
    fn executor_task_golden_encodings() {
        // vertex 02 · seed LE · ids [02 05] · slots 01 · 2 planes of 2 bits
        assert_eq!(
            hex(&sample_block_step_task().encode()),
            "020807060504030201020205010202010202"
        );
        // edge 07 · seed LE · from 00 · to 01 · slot 00 · senders [00 02] ·
        // receivers [01 03] · 2 planes of 1 bit
        assert_eq!(
            hex(&sample_transfer_task().encode()),
            "0711000000000000000001000200020201030201010101"
        );
    }

    #[test]
    fn executor_outcome_golden_encodings() {
        let step = BlockStepOutcome {
            new_state: vec![vec![true], vec![false]],
            outgoing: vec![vec![vec![true, true], vec![false, false]]],
            counts: OperationCounts {
                and_gates: 1,
                rounds: 2,
                ..Default::default()
            },
            traffic: vec![(
                NodeId(1),
                NodeTraffic {
                    wire_bytes_sent: 3,
                    ..Default::default()
                },
            )],
        };
        // states · 1 slot of 2 planes · 9 count uvarints · 1 entry.  The
        // analytic byte model left the layout: the count uvarint before
        // `wire_bytes`, and the entry's four modeled counters.
        assert_eq!(
            hex(&step.encode()),
            "020101010001020203020000000000000100000201010300"
        );
        let transfer = TransferOutcome {
            to: 1,
            in_slot: 0,
            receiver_shares: vec![vec![false]],
            counts: OperationCounts::default(),
            traffic: Vec::new(),
        };
        assert_eq!(hex(&transfer.encode()), "010001010000000000000000000000");
    }

    #[test]
    fn executor_messages_reject_truncation_and_trailing_bytes() {
        let task = sample_block_step_task().encode();
        for cut in 0..task.len() {
            assert!(BlockStepTask::decode_exact(&task[..cut]).is_err());
        }
        let mut trailing = task;
        trailing.push(0x00);
        assert!(BlockStepTask::decode_exact(&trailing).is_err());

        let transfer = sample_transfer_task().encode();
        for cut in 0..transfer.len() {
            assert!(TransferTask::decode_exact(&transfer[..cut]).is_err());
        }
        let mut trailing = transfer;
        trailing.push(0x00);
        assert!(TransferTask::decode_exact(&trailing).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_executor_tasks_round_trip(
            vertex in any::<u64>(),
            seed in any::<u64>(),
            members in proptest::collection::vec(0usize..1000, 1..6),
            shares in proptest::collection::vec(
                proptest::collection::vec(any::<bool>(), 0..48), 0..6),
        ) {
            let task = BlockStepTask {
                vertex,
                seed,
                members: members.iter().copied().map(NodeId).collect(),
                out_slots: shares.len() as u64,
                input_shares: shares.clone(),
            };
            prop_assert_eq!(BlockStepTask::decode_exact(&task.encode()).unwrap(), task);
            let transfer = TransferTask {
                edge_index: vertex,
                seed,
                from: vertex / 2,
                to: vertex / 3,
                in_slot: vertex % 7,
                sender_members: members.iter().copied().map(NodeId).collect(),
                receiver_members: members.iter().copied().map(|m| NodeId(m + 1)).collect(),
                shares: shares.clone(),
            };
            prop_assert_eq!(TransferTask::decode_exact(&transfer.encode()).unwrap(), transfer);
            let outcome = BlockStepOutcome {
                new_state: shares.clone(),
                outgoing: vec![shares.clone(), shares.clone()],
                counts: OperationCounts { and_gates: vertex, ..Default::default() },
                traffic: members
                    .iter()
                    .map(|&m| (NodeId(m), NodeTraffic { wire_bytes_sent: seed, ..Default::default() }))
                    .collect(),
            };
            prop_assert_eq!(
                BlockStepOutcome::decode_exact(&outcome.encode()).unwrap(),
                outcome
            );
            let delivered = TransferOutcome {
                to: vertex,
                in_slot: vertex % 5,
                receiver_shares: shares,
                counts: OperationCounts::default(),
                traffic: Vec::new(),
            };
            prop_assert_eq!(
                TransferOutcome::decode_exact(&delivered.encode()).unwrap(),
                delivered
            );
        }
    }

    fn sample_manifest() -> CheckpointManifest {
        CheckpointManifest {
            round: 1,
            iterations: 3,
            fingerprint: 0xF00D,
            rng_state: [1, 2, 3, 4],
            initialization: PhaseCosts::default(),
            computation: PhaseCosts::default(),
            communication: PhaseCosts::default(),
            traffic: vec![(
                NodeId(1),
                NodeTraffic {
                    wire_bytes_sent: 3,
                    ..Default::default()
                },
            )],
            segments: vec![SegmentDigest {
                store: 0,
                index: 2,
                digest: 0x0102_0304_0506_0708,
            }],
        }
    }

    #[test]
    fn checkpoint_manifest_golden_encoding() {
        // tag 4d · version 2 · round 01 · iterations 03 · fingerprint ·
        // rng [1,2,3,4] · three zero phase-cost blocks (9 uvarints +
        // f64 bits) · 1 traffic entry · 1 segment digest.  Version 1 had
        // one more uvarint per phase-cost block (the analytic byte model)
        // and four more per traffic entry (its modeled counters).
        let zero_costs = "0000000000000000000000000000000000";
        let expected = [
            "4d",
            "02000000",
            "01",
            "03",
            "0df0000000000000",
            "0100000000000000",
            "0200000000000000",
            "0300000000000000",
            "0400000000000000",
            zero_costs,
            zero_costs,
            zero_costs,
            "01",
            "01",
            "0300",
            "01",
            "00",
            "02",
            "0807060504030201",
        ]
        .concat();
        let manifest = sample_manifest();
        assert_eq!(hex(&manifest.encode()), expected);
        assert_eq!(
            CheckpointManifest::decode_exact(&manifest.encode()).unwrap(),
            manifest
        );
    }

    #[test]
    fn segment_record_golden_encoding() {
        let record = SegmentRecord {
            store: 1,
            index: 2,
            words: vec![0x0B],
        };
        // tag 53 · store 01 · index 02 · word count 01 · word LE · digest
        let expected = format!(
            "53010201{}{}",
            hex(&0x0Bu64.to_le_bytes()),
            hex(&digest64_words(&[0x0B]).to_le_bytes())
        );
        assert_eq!(hex(&record.encode()), expected);
        assert_eq!(
            SegmentRecord::decode_exact(&record.encode()).unwrap(),
            record
        );
    }

    #[test]
    fn checkpoint_records_reject_truncation_trailing_and_corruption() {
        let manifest = sample_manifest().encode();
        for cut in 0..manifest.len() {
            assert!(CheckpointManifest::decode_exact(&manifest[..cut]).is_err());
        }
        let mut trailing = manifest.clone();
        trailing.push(0x00);
        assert!(CheckpointManifest::decode_exact(&trailing).is_err());
        assert!(matches!(
            CheckpointManifest::decode_exact(&[0x7F]),
            Err(WireError::BadTag { .. })
        ));
        // An unknown version is rejected, not misinterpreted.
        let mut wrong_version = manifest;
        wrong_version[1] = 0x09;
        assert!(matches!(
            CheckpointManifest::decode_exact(&wrong_version),
            Err(WireError::Invalid { .. })
        ));

        let record = SegmentRecord {
            store: 0,
            index: 1,
            words: vec![0xAA, 0xBB, 0xCC],
        }
        .encode();
        for cut in 0..record.len() {
            assert!(SegmentRecord::decode_exact(&record[..cut]).is_err());
        }
        let mut trailing = record.clone();
        trailing.push(0x00);
        assert!(SegmentRecord::decode_exact(&trailing).is_err());
        // Any flipped payload byte fails the digest check.
        let mut corrupted = record;
        corrupted[5] ^= 0x01;
        assert!(matches!(
            SegmentRecord::decode_exact(&corrupted),
            Err(WireError::Invalid {
                what: "segment digest mismatch"
            })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_checkpoint_records_round_trip(
            round in any::<u64>(),
            rng0 in any::<u64>(),
            rng1 in any::<u64>(),
            wall in any::<u32>(),
            nodes in proptest::collection::vec(0usize..5000, 0..5),
            words in proptest::collection::vec(any::<u64>(), 0..64),
        ) {
            let rng_state = [rng0, rng1, rng0 ^ rng1, rng0.wrapping_add(rng1)];
            let manifest = CheckpointManifest {
                round,
                iterations: round / 2,
                fingerprint: rng_state[0],
                rng_state,
                initialization: PhaseCosts {
                    counts: OperationCounts { and_gates: round, ..Default::default() },
                    wall_seconds: f64::from(wall) * 0.125,
                },
                computation: PhaseCosts::default(),
                communication: PhaseCosts::default(),
                traffic: nodes
                    .iter()
                    .map(|&n| (NodeId(n), NodeTraffic { wire_bytes_sent: round, ..Default::default() }))
                    .collect(),
                segments: words
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| SegmentDigest { store: (i % 2) as u8, index: i as u64, digest: w })
                    .collect(),
            };
            prop_assert_eq!(
                CheckpointManifest::decode_exact(&manifest.encode()).unwrap(),
                manifest
            );
            let record = SegmentRecord { store: 1, index: round, words };
            prop_assert_eq!(SegmentRecord::decode_exact(&record.encode()).unwrap(), record);
        }
    }
}
