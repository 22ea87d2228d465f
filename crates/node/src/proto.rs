//! The master↔worker deployment protocol.
//!
//! Every message travels as one length-prefixed frame
//! ([`dstress_net::frame`]) whose payload is a [`DeployMsg`] in the
//! workspace [`Wire`] format.  The conversation is strictly
//! master-driven after registration:
//!
//! ```text
//! worker → master   Register { version }
//! master → worker   Job(JobSpec)                 run-wide parameters
//! master → worker   BlockSteps(tasks)        ┐
//! worker → master   BlockStepResults(..)     │ repeated per window,
//! master → worker   Transfers(tasks)         │ in engine schedule order
//! worker → master   TransferResults(..)      ┘
//! master → worker   Finish
//! worker → master   Finish                       drained, then close
//! ```
//!
//! The task and outcome payloads are exactly the engine's serializable
//! executor types ([`dstress_core::exec`]); the protocol adds only
//! envelope tags and the registration/job bookkeeping.  Every task
//! carries its block's members and its derived seed, so a worker is a
//! deterministic function of `Job` plus the task stream and can take any
//! task: a remote fleet is bit-identical to the in-process pool.  The
//! traffic a worker measures comes back inside the outcomes, which the
//! engine merges into the run record.

use dstress_core::{BlockStepOutcome, BlockStepTask, TransferOutcome, TransferTask, TransportKind};
use dstress_crypto::group::GroupKind;
use dstress_net::wire::{self, Wire, WireError};

/// Protocol version sent in `Register`; the master rejects mismatches.
/// Version 2 dropped the analytic byte model from the operation counts and
/// the traffic entries that `BatchResults` and `Report` carry; version 3
/// dropped the batching byte from `Job`: every deployed block MPC walks
/// the depth layering (`GmwBatching::Layered`); version 4 dropped
/// `worker`, `fleet`, `rounds` and the block table from `Job`, and the
/// `Report` frame: a worker acknowledges `Finish` with `Finish`.
pub const PROTOCOL_VERSION: u64 = 4;

/// The run-wide parameters a worker computes with: the same job for
/// every worker, so that outcomes are bit-identical to the master's
/// in-process pool wherever a task is placed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Counter program word width (state and message bits).
    pub width: u32,
    /// Public degree bound `D` of the run's graph.
    pub degree_bound: u32,
    /// Transport backend the worker's block MPCs run on.
    pub transport: TransportKind,
    /// ElGamal group of the run (sizes the accounted transfer costs).
    pub group: GroupKind,
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
        wire::put_uvarint(out, self.width as u64);
        wire::put_uvarint(out, self.degree_bound as u64);
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
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let width = get_u32(buf)?;
        let degree_bound = get_u32(buf)?;
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
        Ok(JobSpec {
            width,
            degree_bound,
            transport,
            group,
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
    /// Master → worker: the run-wide parameters.
    Job(JobSpec),
    /// Master → worker: one window's computation-step tasks.
    BlockSteps(Vec<BlockStepTask>),
    /// Worker → master: outcomes, in task order.
    BlockStepResults(Vec<BlockStepOutcome>),
    /// Master → worker: one window's transfer tasks.
    Transfers(Vec<TransferTask>),
    /// Worker → master: outcomes, in task order.
    TransferResults(Vec<TransferOutcome>),
    /// Master → worker: the run is complete.  Worker → master: every
    /// batch is answered; the worker closes.
    Finish,
}

const TAG_REGISTER: u8 = 0x01;
const TAG_JOB: u8 = 0x02;
const TAG_BLOCK_STEPS: u8 = 0x03;
const TAG_BLOCK_STEP_RESULTS: u8 = 0x04;
const TAG_TRANSFERS: u8 = 0x05;
const TAG_TRANSFER_RESULTS: u8 = 0x06;
const TAG_FINISH: u8 = 0x07;

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
    use dstress_net::traffic::{NodeId, NodeTraffic};
    use dstress_net::wire::hex;
    use proptest::prelude::*;

    fn sample_job() -> JobSpec {
        JobSpec {
            width: 8,
            degree_bound: 4,
            transport: TransportKind::Socket,
            group: GroupKind::Sim64,
        }
    }

    #[test]
    fn golden_encodings() {
        assert_eq!(hex(&DeployMsg::Register { version: 1 }.encode()), "0101");
        assert_eq!(hex(&DeployMsg::Finish.encode()), "07");
        // tag · width 08 · degree 04 · transport 01 · group 00.
        // Version 3 led with worker 01 · fleet 03 and carried rounds 02
        // after the width and 2 blocks of (vertex · id list) after the
        // group: "0201030802040100020002000503020301".  Version 2 also
        // carried a batching byte (01) before the transport.  Version 3's
        // Report frame (tag 08 · entries) is gone with the variant.
        assert_eq!(hex(&DeployMsg::Job(sample_job()).encode()), "0208040100");
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
        // tag(1) + 2 uvarints + transport, then the group byte (version
        // 3: tag + 5 uvarints + transport, index 7).
        bad_group[4] = 9;
        assert!(DeployMsg::decode_exact(&bad_group).is_err());
        // A parameter past `u32` is rejected, not truncated: width = 2³² + 1
        // would otherwise decode as width 1 (version 3 widened the worker
        // index, which led the job then).
        let mut wide_width = vec![TAG_JOB];
        wire::put_uvarint(&mut wide_width, (1 << 32) + 1);
        wide_width.extend_from_slice(&DeployMsg::Job(sample_job()).encode()[2..]);
        assert!(matches!(
            DeployMsg::decode_exact(&wide_width),
            Err(WireError::Invalid { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_register_round_trips(version in any::<u64>()) {
            let register = DeployMsg::Register { version };
            prop_assert_eq!(DeployMsg::decode_exact(&register.encode()).unwrap(), register);
        }

        #[test]
        fn prop_job_spec_round_trips(
            width in any::<u32>(),
            degree in any::<u32>(),
            socket in any::<bool>(),
            prod in any::<bool>(),
        ) {
            let spec = JobSpec {
                width,
                degree_bound: degree,
                transport: if socket { TransportKind::Socket } else { TransportKind::Sim },
                group: if prod { GroupKind::Prod256 } else { GroupKind::Sim64 },
            };
            prop_assert_eq!(JobSpec::decode_exact(&spec.encode()).unwrap(), spec);
        }
    }
}
