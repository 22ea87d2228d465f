//! The master↔worker deployment protocol.
//!
//! Every message travels as one length-prefixed frame
//! ([`dstress_net::frame`]) whose payload is a [`DeployMsg`] in the
//! workspace [`Wire`] format.  The conversation is strictly
//! master-driven after registration:
//!
//! ```text
//! worker → master   Register { version }
//! master → worker   Job(JobSpec)                 run-wide parameters + blocks
//! master → worker   BlockSteps(tasks)        ┐
//! worker → master   BlockStepResults(..)     │ repeated per window,
//! master → worker   Transfers(tasks)         │ in engine schedule order
//! worker → master   TransferResults(..)      ┘
//! master → worker   Finish
//! worker → master   Report { traffic }           per-node totals, then close
//! ```
//!
//! The task and outcome payloads are exactly the engine's serializable
//! executor types ([`dstress_core::exec`]); the protocol adds only
//! envelope tags and the registration/job/report bookkeeping.  Workers
//! are deterministic functions of `Job` plus the task stream, so a
//! remote fleet is bit-identical to the in-process pool.

use dstress_core::{BlockStepOutcome, BlockStepTask, TransferOutcome, TransferTask, TransportKind};
use dstress_crypto::group::GroupKind;
use dstress_mpc::GmwBatching;
use dstress_net::traffic::{NodeId, NodeTraffic};
use dstress_net::wire::{self, Wire, WireError};

/// Protocol version sent in `Register`; the master rejects mismatches.
/// Version 2 dropped the analytic byte model from the operation counts and
/// the traffic entries that `BatchResults` and `Report` carry.
pub const PROTOCOL_VERSION: u64 = 2;

/// Run-wide parameters a worker needs to execute tasks bit-identically
/// to the master's in-process pool, plus the block assignment it hosts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// This worker's index in the fleet (assigned in registration order).
    pub worker: u32,
    /// Fleet size; vertex `v` is hosted by worker `v % fleet`.
    pub fleet: u32,
    /// Counter program word width (state and message bits).
    pub width: u32,
    /// Counter program iteration count.
    pub rounds: u32,
    /// Public degree bound `D` of the run's graph.
    pub degree_bound: u32,
    /// GMW AND-gate batching mode of every block MPC.
    pub batching: GmwBatching,
    /// Transport backend the worker's block MPCs run on.
    pub transport: TransportKind,
    /// ElGamal group of the run (sizes the accounted transfer costs).
    pub group: GroupKind,
    /// The blocks this worker hosts: `(vertex, members)` pairs from the
    /// master's replicated `generate_block_assignment`, owner first.
    pub blocks: Vec<(u64, Vec<NodeId>)>,
}

/// Reads a `u32` parameter written as a uvarint; a value that does not
/// fit is rejected, not truncated.
fn get_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    u32::try_from(wire::get_uvarint(buf)?).map_err(|_| WireError::Invalid {
        what: "JobSpec u32 parameter",
    })
}

impl Wire for JobSpec {
    fn encode_into(&self, out: &mut Vec<u8>) {
        wire::put_uvarint(out, self.worker as u64);
        wire::put_uvarint(out, self.fleet as u64);
        wire::put_uvarint(out, self.width as u64);
        wire::put_uvarint(out, self.rounds as u64);
        wire::put_uvarint(out, self.degree_bound as u64);
        wire::put_u8(
            out,
            match self.batching {
                GmwBatching::PerGate => 0,
                GmwBatching::Layered => 1,
            },
        );
        wire::put_u8(
            out,
            match self.transport {
                TransportKind::Sim => 0,
                TransportKind::Socket => 1,
            },
        );
        wire::put_u8(
            out,
            match self.group {
                GroupKind::Sim64 => 0,
                GroupKind::Prod256 => 1,
            },
        );
        wire::put_uvarint(out, self.blocks.len() as u64);
        for (vertex, members) in &self.blocks {
            wire::put_uvarint(out, *vertex);
            members.encode_into(out);
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let worker = get_u32(buf)?;
        let fleet = get_u32(buf)?;
        let width = get_u32(buf)?;
        let rounds = get_u32(buf)?;
        let degree_bound = get_u32(buf)?;
        let batching = match wire::get_u8(buf)? {
            0 => GmwBatching::PerGate,
            1 => GmwBatching::Layered,
            tag => {
                return Err(WireError::BadTag {
                    tag,
                    what: "JobSpec batching",
                })
            }
        };
        let transport = match wire::get_u8(buf)? {
            0 => TransportKind::Sim,
            1 => TransportKind::Socket,
            tag => {
                return Err(WireError::BadTag {
                    tag,
                    what: "JobSpec transport",
                })
            }
        };
        let group = match wire::get_u8(buf)? {
            0 => GroupKind::Sim64,
            1 => GroupKind::Prod256,
            tag => {
                return Err(WireError::BadTag {
                    tag,
                    what: "JobSpec group",
                })
            }
        };
        let block_count = wire::get_uvarint(buf)? as usize;
        let mut blocks = Vec::new();
        for _ in 0..block_count {
            blocks.push((wire::get_uvarint(buf)?, Vec::decode(buf)?));
        }
        Ok(JobSpec {
            worker,
            fleet,
            width,
            rounds,
            degree_bound,
            batching,
            transport,
            group,
            blocks,
        })
    }
}

/// One frame of the master↔worker conversation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeployMsg {
    /// Worker → master, first frame on the connection.
    Register {
        /// The worker's [`PROTOCOL_VERSION`].
        version: u64,
    },
    /// Master → worker: run-wide parameters and the block assignment.
    Job(JobSpec),
    /// Master → worker: one window's computation-step tasks.
    BlockSteps(Vec<BlockStepTask>),
    /// Worker → master: outcomes, in task order.
    BlockStepResults(Vec<BlockStepOutcome>),
    /// Master → worker: one window's transfer tasks.
    Transfers(Vec<TransferTask>),
    /// Worker → master: outcomes, in task order.
    TransferResults(Vec<TransferOutcome>),
    /// Master → worker: the run is complete; report and close.
    Finish,
    /// Worker → master: per-node traffic totals the worker accounted.
    Report {
        /// `(node, totals)` entries, ascending node order.
        traffic: Vec<(NodeId, NodeTraffic)>,
    },
}

const TAG_REGISTER: u8 = 0x01;
const TAG_JOB: u8 = 0x02;
const TAG_BLOCK_STEPS: u8 = 0x03;
const TAG_BLOCK_STEP_RESULTS: u8 = 0x04;
const TAG_TRANSFERS: u8 = 0x05;
const TAG_TRANSFER_RESULTS: u8 = 0x06;
const TAG_FINISH: u8 = 0x07;
const TAG_REPORT: u8 = 0x08;

impl Wire for DeployMsg {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            DeployMsg::Register { version } => {
                wire::put_u8(out, TAG_REGISTER);
                wire::put_uvarint(out, *version);
            }
            DeployMsg::Job(spec) => {
                wire::put_u8(out, TAG_JOB);
                spec.encode_into(out);
            }
            DeployMsg::BlockSteps(tasks) => {
                wire::put_u8(out, TAG_BLOCK_STEPS);
                tasks.encode_into(out);
            }
            DeployMsg::BlockStepResults(outcomes) => {
                wire::put_u8(out, TAG_BLOCK_STEP_RESULTS);
                outcomes.encode_into(out);
            }
            DeployMsg::Transfers(tasks) => {
                wire::put_u8(out, TAG_TRANSFERS);
                tasks.encode_into(out);
            }
            DeployMsg::TransferResults(outcomes) => {
                wire::put_u8(out, TAG_TRANSFER_RESULTS);
                outcomes.encode_into(out);
            }
            DeployMsg::Finish => wire::put_u8(out, TAG_FINISH),
            DeployMsg::Report { traffic } => {
                wire::put_u8(out, TAG_REPORT);
                traffic.encode_into(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match wire::get_u8(buf)? {
            TAG_REGISTER => Ok(DeployMsg::Register {
                version: wire::get_uvarint(buf)?,
            }),
            TAG_JOB => Ok(DeployMsg::Job(JobSpec::decode(buf)?)),
            TAG_BLOCK_STEPS => Ok(DeployMsg::BlockSteps(Vec::decode(buf)?)),
            TAG_BLOCK_STEP_RESULTS => Ok(DeployMsg::BlockStepResults(Vec::decode(buf)?)),
            TAG_TRANSFERS => Ok(DeployMsg::Transfers(Vec::decode(buf)?)),
            TAG_TRANSFER_RESULTS => Ok(DeployMsg::TransferResults(Vec::decode(buf)?)),
            TAG_FINISH => Ok(DeployMsg::Finish),
            TAG_REPORT => Ok(DeployMsg::Report {
                traffic: Vec::decode(buf)?,
            }),
            tag => Err(WireError::BadTag {
                tag,
                what: "DeployMsg",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstress_net::wire::hex;
    use proptest::prelude::*;

    fn sample_job() -> JobSpec {
        JobSpec {
            worker: 1,
            fleet: 3,
            width: 8,
            rounds: 2,
            degree_bound: 4,
            batching: GmwBatching::Layered,
            transport: TransportKind::Socket,
            group: GroupKind::Sim64,
            blocks: vec![
                (0, vec![NodeId(0), NodeId(5)]),
                (3, vec![NodeId(3), NodeId(1)]),
            ],
        }
    }

    #[test]
    fn golden_encodings() {
        assert_eq!(hex(&DeployMsg::Register { version: 1 }.encode()), "0101");
        assert_eq!(hex(&DeployMsg::Finish.encode()), "07");
        // tag · worker 01 · fleet 03 · width 08 · rounds 02 · degree 04 ·
        // batching 01 · transport 01 · group 00 · 2 blocks of
        // (vertex · id list)
        assert_eq!(
            hex(&DeployMsg::Job(sample_job()).encode()),
            "020103080204010100020002000503020301"
        );
        // tag · 1 entry · NodeId(1) · the traffic.rs golden NodeTraffic.
        // Version 1's entry led with the four modeled counters
        // (01 c801 03 04) the analytic byte model kept.
        let report = DeployMsg::Report {
            traffic: vec![(
                NodeId(1),
                NodeTraffic {
                    wire_bytes_sent: 70_000,
                    wire_bytes_received: 6,
                },
            )],
        };
        assert_eq!(hex(&report.encode()), "080101".to_string() + "f0a20406");
    }

    #[test]
    fn batch_frames_reuse_executor_encodings() {
        let task = BlockStepTask {
            vertex: 2,
            seed: 0x0102_0304_0506_0708,
            members: vec![NodeId(2), NodeId(5)],
            out_slots: 1,
            input_shares: vec![vec![true, false], vec![false, true]],
        };
        // tag · count 01 · the core wire.rs BlockStepTask golden
        assert_eq!(
            hex(&DeployMsg::BlockSteps(vec![task]).encode()),
            "0301020807060504030201020205010202010202"
        );
        let transfer = TransferTask {
            edge_index: 7,
            seed: 0x11,
            from: 0,
            to: 1,
            in_slot: 0,
            sender_members: vec![NodeId(0), NodeId(2)],
            receiver_members: vec![NodeId(1), NodeId(3)],
            shares: vec![vec![true], vec![true]],
        };
        assert_eq!(
            hex(&DeployMsg::Transfers(vec![transfer]).encode()),
            "05010711000000000000000001000200020201030201010101"
        );
    }

    #[test]
    fn all_variants_round_trip() {
        let messages = vec![
            DeployMsg::Register {
                version: PROTOCOL_VERSION,
            },
            DeployMsg::Job(sample_job()),
            DeployMsg::BlockSteps(vec![BlockStepTask {
                vertex: 9,
                seed: 42,
                members: vec![NodeId(9), NodeId(1), NodeId(4)],
                out_slots: 2,
                input_shares: vec![vec![true; 5]; 3],
            }]),
            DeployMsg::BlockStepResults(vec![BlockStepOutcome {
                new_state: vec![vec![false, true]],
                outgoing: vec![vec![vec![true]]],
                counts: Default::default(),
                traffic: vec![(NodeId(2), NodeTraffic::default())],
            }]),
            DeployMsg::Transfers(vec![]),
            DeployMsg::TransferResults(vec![TransferOutcome {
                to: 3,
                in_slot: 1,
                receiver_shares: vec![vec![true, false, true]],
                counts: Default::default(),
                traffic: vec![],
            }]),
            DeployMsg::Finish,
            DeployMsg::Report {
                traffic: vec![(NodeId(0), NodeTraffic::default())],
            },
        ];
        for message in messages {
            let encoded = message.encode();
            assert_eq!(DeployMsg::decode_exact(&encoded).unwrap(), message);
        }
    }

    #[test]
    fn rejects_truncation_trailing_and_bad_tags() {
        let encoded = DeployMsg::Job(sample_job()).encode();
        for cut in 0..encoded.len() {
            assert!(DeployMsg::decode_exact(&encoded[..cut]).is_err());
        }
        let mut trailing = encoded;
        trailing.push(0x00);
        assert!(DeployMsg::decode_exact(&trailing).is_err());
        // Unknown envelope tag.
        assert!(matches!(
            DeployMsg::decode_exact(&[0xAB]),
            Err(WireError::BadTag { tag: 0xAB, .. })
        ));
        // Unknown enum byte inside a JobSpec.
        let mut bad_group = DeployMsg::Job(sample_job()).encode();
        // tag(1) + 5 uvarints + batching + transport, then the group byte.
        bad_group[8] = 9;
        assert!(DeployMsg::decode_exact(&bad_group).is_err());
        // A parameter past `u32` is rejected, not truncated: worker = 2³² + 1
        // would otherwise decode as worker 1.
        let mut wide_worker = vec![TAG_JOB];
        wire::put_uvarint(&mut wide_worker, (1 << 32) + 1);
        wide_worker.extend_from_slice(&DeployMsg::Job(sample_job()).encode()[2..]);
        assert!(matches!(
            DeployMsg::decode_exact(&wide_worker),
            Err(WireError::Invalid { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_register_and_report_round_trip(
            version in any::<u64>(),
            ids in proptest::collection::vec(any::<u64>(), 0..8),
        ) {
            let register = DeployMsg::Register { version };
            prop_assert_eq!(DeployMsg::decode_exact(&register.encode()).unwrap(), register);
            let traffic: Vec<(NodeId, NodeTraffic)> = ids
                .into_iter()
                .map(|id| (
                    NodeId((id % 251) as usize),
                    NodeTraffic {
                        wire_bytes_sent: id.rotate_left(17),
                        wire_bytes_received: id,
                    },
                ))
                .collect();
            let report = DeployMsg::Report { traffic };
            prop_assert_eq!(DeployMsg::decode_exact(&report.encode()).unwrap(), report);
        }

        #[test]
        fn prop_job_spec_round_trips(
            worker in 0u32..64,
            fleet in 1u32..64,
            width in 1u32..32,
            rounds in 0u32..8,
            degree in 0u32..16,
            vertices in proptest::collection::vec(any::<u32>(), 0..6),
        ) {
            // Derive each block's members from its vertex so block shapes
            // vary without needing tuple strategies.
            let blocks: Vec<(u64, Vec<usize>)> = vertices
                .into_iter()
                .map(|v| (v as u64, (0..(v % 5) as usize).map(|i| v as usize + i).collect()))
                .collect();
            let spec = JobSpec {
                worker,
                fleet,
                width,
                rounds,
                degree_bound: degree,
                batching: if worker % 2 == 0 { GmwBatching::Layered } else { GmwBatching::PerGate },
                transport: if fleet % 2 == 0 { TransportKind::Sim } else { TransportKind::Socket },
                group: if width % 2 == 0 { GroupKind::Sim64 } else { GroupKind::Prod256 },
                blocks: blocks
                    .into_iter()
                    .map(|(v, members)| (v, members.into_iter().map(NodeId).collect()))
                    .collect(),
            };
            prop_assert_eq!(JobSpec::decode_exact(&spec.encode()).unwrap(), spec);
        }
    }
}
