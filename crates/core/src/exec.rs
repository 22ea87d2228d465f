//! Step executors: *where* the independent tasks of a phase run.
//!
//! The engine's windowed pipeline (`run_windowed` in
//! [`crate::engine`]) builds one serializable task per independent unit
//! of work — a vertex's computation step, an edge's message transfer —
//! and hands the batch to a [`StepExecutor`].  The executor decides
//! placement:
//!
//! * [`LocalExecutor`] shards the batch across the in-process worker
//!   pool ([`dstress_net::pool::parallel_map`]), with as many of the
//!   configured workers as the batch has work for — the default.
//! * The `dstress-node` deployment crate implements the same trait by
//!   shipping task batches to registered worker processes over framed
//!   TCP and collecting the outcomes.
//!
//! Placement cannot change results: every task carries its own derived
//! seed, executes against only the data in the task, and returns its
//! outcome with per-node traffic entries that the engine merges in task
//! order.  The task-level entry points ([`execute_block_step_task`],
//! [`execute_accounted_transfer_task`]) are plain functions of the task
//! bytes, so a remote worker that decodes a task computes bit-for-bit
//! what the local pool would have.
//!
//! A window's computation steps go through one function wherever they
//! run — [`execute_block_steps`], called by [`LocalExecutor`] and by the
//! deployment worker alike.  It cuts the window into *lanes*, one
//! [`dstress_net::transport::Session`] each, and a lane keeps a bounded
//! number of block MPCs in flight on its session as concurrent streams
//! ([`dstress_mpc::gmw::execute_established`]: every node pair's
//! OT-extension session was set up once, in the run's Initialization
//! step, so no block MPC sets one up).  On sockets a lane is a
//! worker's contiguous share of the window, so a window costs one TCP
//! mesh per worker instead of one per block MPC; in process a session
//! costs nothing and every task is a lane of its own.
//! [`execute_block_step_task`] is the lane of one task.
//!
//! Because tasks carry *copies* of their input shares, the engine's
//! [`crate::store::StateStore`] backends are only ever touched from the
//! scheduling thread — workers (threads or remote processes) never see a
//! store, which is what lets the disk-spilling backend use plain
//! single-threaded interior mutability and page segments during task
//! building.

use crate::config::{DStressConfig, TransferMode, TransportKind};
use crate::engine::RuntimeError;
use dstress_circuit::Circuit;
use dstress_crypto::dlog::DlogTable;
use dstress_crypto::group::Group;
use dstress_crypto::sharing::{split_xor, xor_reconstruct, BitMessage};
use dstress_math::rng::{DetRng, Xoshiro256};
use dstress_mpc::gmw::{execute_established, GmwJob};
use dstress_mpc::party::OtConfig;
use dstress_mpc::{GmwBatching, GmwMessage, MpcError};
use dstress_net::cost::OperationCounts;
use dstress_net::pool::parallel_map;
use dstress_net::socket::SocketTransport;
use dstress_net::traffic::{NodeId, NodeTraffic, TrafficAccountant};
use dstress_net::transport::{Session, SimTransport, Transport};
use dstress_transfer::protocol::{account_final_transfer, transfer_message, TransferConfig};
use dstress_transfer::setup::{NodeSecrets, SystemSetup};

/// One vertex's computation step: a GMW evaluation of the program's
/// update circuit among the vertex's block members.
///
/// The task is self-contained — members, seed and input shares travel
/// with it — so the executing worker needs only the run-wide job
/// parameters (circuit, widths, batching, transport), never the master's
/// setup state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockStepTask {
    /// The vertex whose block computes.
    pub vertex: u64,
    /// The task's derived seed (`task_seed(comp_seed, vertex)`).
    pub seed: u64,
    /// The block members, owner first (the GMW node identities).
    pub members: Vec<NodeId>,
    /// Number of *actual* out-edges whose message shares the outcome
    /// must carry (the circuit's remaining padded slots are dropped).
    pub out_slots: u64,
    /// Per-member GMW input shares.
    pub input_shares: Vec<Vec<bool>>,
}

/// The result of one [`BlockStepTask`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockStepOutcome {
    /// Per-member shares of the vertex's new state.
    pub new_state: Vec<Vec<bool>>,
    /// Per-member shares of each outgoing message: `outgoing[slot][m]`.
    pub outgoing: Vec<Vec<Vec<bool>>>,
    /// Operation counts of the block MPC.
    pub counts: OperationCounts,
    /// Per-node traffic entries, ascending node order.
    pub traffic: Vec<(NodeId, NodeTraffic)>,
}

/// One edge's message transfer: moves the sender block's message shares
/// to the receiver block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransferTask {
    /// Global (vertex-major) edge index of the round.
    pub edge_index: u64,
    /// The task's derived seed (`task_seed(comm_seed, edge_index)`).
    pub seed: u64,
    /// Sending vertex.
    pub from: u64,
    /// Receiving vertex.
    pub to: u64,
    /// The receiver's inbox slot this edge delivers into.
    pub in_slot: u64,
    /// The sender's block members.
    pub sender_members: Vec<NodeId>,
    /// The receiver's block members.
    pub receiver_members: Vec<NodeId>,
    /// Per-sender-member shares of the message bits.
    pub shares: Vec<Vec<bool>>,
}

/// The result of one [`TransferTask`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransferOutcome {
    /// Receiving vertex (copied from the task so outcomes are
    /// self-describing when they return out of order from a fleet).
    pub to: u64,
    /// The receiver's inbox slot.
    pub in_slot: u64,
    /// Per-receiver-member shares of the delivered message bits.
    pub receiver_shares: Vec<Vec<bool>>,
    /// Operation counts of the transfer.
    pub counts: OperationCounts,
    /// Per-node traffic entries, ascending node order.
    pub traffic: Vec<(NodeId, NodeTraffic)>,
}

/// Everything an executor needs beyond the tasks themselves.  Remote
/// executors use only the plain job parameters (config, widths); the
/// borrowed setup state exists for the local real-crypto transfer path,
/// whose certificates and key material never leave the master.
pub struct StepContext<'a> {
    /// The run configuration.
    pub config: &'a DStressConfig,
    /// The program's update circuit (shared by every computation step).
    pub update_circuit: &'a Circuit,
    /// State width in bits.
    pub state_bits: usize,
    /// Message width in bits.
    pub message_bits: usize,
    /// The ElGamal group of the run.
    pub group: &'a Group,
    /// System setup (blocks; certificates in real-crypto mode).
    pub setup: &'a SystemSetup,
    /// Per-node secrets (empty in accounted mode).
    pub secrets: &'a [NodeSecrets],
    /// Discrete-log table (real-crypto mode only).
    pub dlog: Option<&'a DlogTable>,
}

/// Where a phase's independent tasks execute.
///
/// Implementations MUST return outcomes in task order and MUST compute
/// each outcome exactly as the task-level entry points do — placement is
/// not allowed to change a single bit of the run.
pub trait StepExecutor {
    /// Executes one window's computation-step tasks.
    fn run_block_steps(
        &self,
        ctx: &StepContext<'_>,
        tasks: Vec<BlockStepTask>,
    ) -> Result<Vec<BlockStepOutcome>, RuntimeError>;

    /// Executes one window's transfer tasks.
    fn run_transfers(
        &self,
        ctx: &StepContext<'_>,
        tasks: Vec<TransferTask>,
    ) -> Result<Vec<TransferOutcome>, RuntimeError>;
}

/// Pairwise AND evaluations (AND gates × member pairs) a batch of block
/// steps must hold per worker before [`LocalExecutor`] gives it that
/// worker.  A deep block MPC costs ≈ 49 ns per AND-pair with word-packed
/// GMW parties (`en-fig5`'s traced `mpc.ns_per_and_pair`, median of 5
/// passes on a shared 2-vCPU Xeon, 28–52 ns with the host's load; the
/// counter workloads' small circuits cost more per AND-pair, since the
/// per-execution fixed cost dominates there), so 16 384 of them are
/// ≈ 0.8 ms of GMW work at the median figure: at least the half
/// millisecond the constant was sized for (0.46 ms at the fastest pass),
/// several times what starting and joining a helper thread costs.
/// Below it the helper's start-up would be the batch's critical path,
/// and a wait whose length is the host's scheduling latency rather than
/// anything the run computes.
pub(crate) const MIN_AND_PAIRS_PER_WORKER: usize = 16_384;

/// The in-process executor: shards tasks across the worker pool
/// configured by [`crate::config::ConcurrencyMode`], using as many of its
/// workers as the batch has work for.
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalExecutor;

impl StepExecutor for LocalExecutor {
    fn run_block_steps(
        &self,
        ctx: &StepContext<'_>,
        tasks: Vec<BlockStepTask>,
    ) -> Result<Vec<BlockStepOutcome>, RuntimeError> {
        // One worker per `MIN_AND_PAIRS_PER_WORKER` of estimated work, at
        // most the configured pool: a streaming window of small block
        // MPCs stays on the calling thread, where its time does not
        // depend on how soon the host schedules a second thread.  (A
        // socket MPC is bound by the syscalls of its passes, not by its
        // gates, and a lane shares those among the MPCs it keeps in
        // flight — so socket windows get the configured pool at any
        // gate count.)
        let configured = ctx.config.concurrency.worker_threads();
        let threads = match ctx.config.transport {
            TransportKind::Socket => configured,
            TransportKind::Sim => {
                let member_pairs: usize = tasks
                    .iter()
                    .map(|task| task.members.len() * task.members.len().saturating_sub(1) / 2)
                    .sum();
                let and_pairs =
                    member_pairs.saturating_mul(ctx.update_circuit.layers().and_gates());
                configured.min((and_pairs / MIN_AND_PAIRS_PER_WORKER).max(1))
            }
        };
        execute_block_steps(
            ctx.update_circuit,
            ctx.config.gmw_batching,
            ctx.config.transport,
            ctx.state_bits,
            ctx.message_bits,
            tasks,
            threads,
        )
    }

    fn run_transfers(
        &self,
        ctx: &StepContext<'_>,
        tasks: Vec<TransferTask>,
    ) -> Result<Vec<TransferOutcome>, RuntimeError> {
        match ctx.config.transfer_mode {
            TransferMode::RealCrypto => {
                let threads = ctx.config.concurrency.worker_threads();
                parallel_map(tasks, threads, |_off, task| real_crypto_transfer(ctx, task))
                    .into_iter()
                    .collect()
            }
            // An accounted transfer is bookkeeping — about a microsecond,
            // against tens of microseconds to start a helper thread — so
            // the batch runs on the calling thread in every mode.
            TransferMode::Accounted => {
                // The program's `u32` width, widened when the run opened.
                let bits = ctx.message_bits as u32;
                Ok(tasks
                    .iter()
                    .map(|task| execute_accounted_transfer_task(ctx.group, bits, task))
                    .collect())
            }
        }
    }
}

/// The transport a lane, or the aggregation block, opens its session on.
///
/// A `Socket` session is one real loopback TCP mesh between `k + 1`
/// parties, driven on the lane's own thread — lanes already run side by
/// side in the executor's pool — and the block MPCs of the lane run on it
/// as streams.
pub fn mpc_transport(kind: TransportKind) -> Box<dyn Transport<GmwMessage>> {
    match kind {
        TransportKind::Sim => Box::new(SimTransport),
        TransportKind::Socket => Box::new(SocketTransport::new()),
    }
}

/// Block MPCs a lane keeps in flight on its session at once.
///
/// Every execution in flight holds its parties (wire values, OT state)
/// and whatever of its messages sits in the links' queues and buffers, so
/// the number is a trade of syscalls shared against memory held.
/// Measured on 2 vCPUs with 600 block-3 counter MPCs (width 8, D = 5) on
/// one lane, µs per MPC over five runs: 1 in flight 212–275, 4 in flight
/// 70–80, 8 in flight 60–73, 16 in flight 64–72, against 30–39 in
/// process.  `deploy-loopback` `peak_heap_bytes` (bound: 3 % of 3.68 MB)
/// reads 3 675 182 B at 1 and at 8, 3 677 634 B at 16 — flat, because the
/// driver flushes a link's write queue early once it holds 8 KiB; without
/// that the same 8 in flight read 5.29 MB.  Past 8 nothing is gained: the
/// remaining cost is the per-pass reads and the GMW work itself.
const STREAMS_IN_FLIGHT: usize = 8;

/// Executes one window's computation-step tasks on `threads` workers and
/// returns their outcomes in task order — the one fan-out behind
/// [`LocalExecutor`] and the deployment worker.
///
/// The window is cut into lanes, each with a transport session of its
/// own.  A socket session costs a TCP mesh, so socket lanes are as long as
/// the pool allows: one contiguous lane per worker.  An in-process session
/// costs nothing, so there every task is its own lane and the pool hands
/// them out one by one.  Any window is fine — empty, one task, fewer tasks
/// than workers, tasks of different block sizes.
///
/// # Errors
///
/// Returns the first failing task's error: [`RuntimeError::Mpc`] for a
/// malformed task (fewer than two members, misshapen input shares —
/// refused before a session is opened for its sub-batch) or a failed
/// transport run.
pub fn execute_block_steps(
    update_circuit: &Circuit,
    batching: GmwBatching,
    transport: TransportKind,
    state_bits: usize,
    message_bits: usize,
    tasks: Vec<BlockStepTask>,
    threads: usize,
) -> Result<Vec<BlockStepOutcome>, RuntimeError> {
    let total = tasks.len();
    let lane_len = match transport {
        TransportKind::Sim => 1,
        TransportKind::Socket => total.div_ceil(threads.max(1)).max(1),
    };
    let mut tasks = tasks.into_iter();
    let lanes: Vec<Vec<BlockStepTask>> = (0..total.div_ceil(lane_len))
        .map(|_| tasks.by_ref().take(lane_len).collect())
        .collect();
    let lanes = parallel_map(lanes, threads, |_off, lane| {
        run_lane(
            update_circuit,
            batching,
            transport,
            state_bits,
            message_bits,
            lane,
        )
    });
    let mut outcomes = Vec::with_capacity(total);
    for lane in lanes {
        outcomes.extend(lane?);
    }
    Ok(outcomes)
}

/// Executes one computation-step task: a pure function of the task and
/// the run-wide job parameters, identical on every placement.  This is
/// the lane of one task, on a session of its own.
pub fn execute_block_step_task(
    update_circuit: &Circuit,
    batching: GmwBatching,
    transport: TransportKind,
    state_bits: usize,
    message_bits: usize,
    task: BlockStepTask,
) -> Result<BlockStepOutcome, RuntimeError> {
    let mut outcomes = run_lane(
        update_circuit,
        batching,
        transport,
        state_bits,
        message_bits,
        vec![task],
    )?;
    Ok(outcomes.pop().expect("one task yields one outcome"))
}

/// Runs a lane's tasks in order over one session, [`STREAMS_IN_FLIGHT`]
/// at a time.  Each task is consumed as its sub-batch starts (its shares
/// move into the GMW parties) and its outcome is cut as the sub-batch
/// retires, so at most one sub-batch of parties exists at any moment.
///
/// A session connects a fixed number of nodes, so a sub-batch is a run of
/// tasks with one block size; where the size changes the lane opens a new
/// session for it.
fn run_lane(
    update_circuit: &Circuit,
    batching: GmwBatching,
    transport: TransportKind,
    state_bits: usize,
    message_bits: usize,
    lane: Vec<BlockStepTask>,
) -> Result<Vec<BlockStepOutcome>, RuntimeError> {
    let transport = mpc_transport(transport);
    let ot = OtConfig::extension();
    let mut session: Option<Box<dyn Session<GmwMessage> + '_>> = None;
    let mut outcomes = Vec::with_capacity(lane.len());
    let mut lane = lane.into_iter().peekable();
    while let Some(first) = lane.peek() {
        let block_size = first.members.len();
        let mut jobs = Vec::with_capacity(STREAMS_IN_FLIGHT);
        let mut out_slots = Vec::with_capacity(STREAMS_IN_FLIGHT);
        while jobs.len() < STREAMS_IN_FLIGHT {
            let Some(task) = lane.next_if(|task| task.members.len() == block_size) else {
                break;
            };
            let job = GmwJob {
                node_ids: task.members,
                input_shares: task.input_shares,
                master_seed: Xoshiro256::new(task.seed).next_u64(),
            };
            // Shapes first: a malformed task must not cost a mesh.
            job.check(update_circuit)?;
            jobs.push(job);
            out_slots.push(task.out_slots as usize);
        }
        let session = match &mut session {
            Some(open) if open.nodes() == block_size => open,
            stale => stale.insert(transport.open(block_size).map_err(MpcError::Transport)?),
        };
        let executions = execute_established(&mut **session, update_circuit, batching, &ot, jobs)?;
        for (execution, out_slots) in executions.into_iter().zip(out_slots) {
            let mut new_state = Vec::with_capacity(block_size);
            let mut outgoing = vec![vec![Vec::new(); block_size]; out_slots];
            for (m_idx, member_outputs) in execution.output_shares.iter().enumerate() {
                new_state.push(member_outputs[..state_bits].to_vec());
                for (slot, per_member) in outgoing.iter_mut().enumerate() {
                    let start = state_bits + slot * message_bits;
                    per_member[m_idx] = member_outputs[start..start + message_bits].to_vec();
                }
            }
            outcomes.push(BlockStepOutcome {
                new_state,
                outgoing,
                counts: execution.counts,
                traffic: execution.traffic.node_entries(),
            });
        }
    }
    Ok(outcomes)
}

/// The local real-crypto transfer path: certificates and key material
/// live only in the master's [`StepContext`], which is why real-crypto
/// runs cannot be placed on remote workers.
fn real_crypto_transfer(
    ctx: &StepContext<'_>,
    task: TransferTask,
) -> Result<TransferOutcome, RuntimeError> {
    let mut rng = Xoshiro256::new(task.seed);
    let mut traffic = TrafficAccountant::new();
    let from = NodeId(task.from as usize);
    let to = NodeId(task.to as usize);
    let in_slot = task.in_slot as usize;
    let message_shares: Vec<BitMessage> = task
        .shares
        .iter()
        .map(|bits| BitMessage::from_bits(bits))
        .collect();
    let bits = ctx.message_bits as u32;
    let config = TransferConfig::final_protocol(bits, ctx.config.edge_noise_alpha);
    let outcome = transfer_message(
        ctx.group,
        &config,
        from,
        to,
        ctx.setup.block_of(from),
        ctx.setup.block_of(to),
        &message_shares,
        ctx.secrets,
        &ctx.setup.certificates[to.0][in_slot],
        &ctx.secrets[to.0].neighbor_keys[in_slot],
        ctx.dlog.expect("real-crypto mode builds a lookup table"),
        &mut traffic,
        &mut rng,
    )?;
    Ok(TransferOutcome {
        to: task.to,
        in_slot: task.in_slot,
        receiver_shares: outcome
            .receiver_shares
            .iter()
            .map(BitMessage::to_bits)
            .collect(),
        counts: outcome.counts,
        traffic: traffic.sorted_node_entries(),
    })
}

/// Cost-accounted message transfer: moves the shares in plaintext while
/// recording exactly the operation counts and traffic that
/// [`transfer_message`] with [`dstress_transfer::ProtocolVariant::Final`]
/// would generate — both charged by
/// [`dstress_transfer::protocol::account_final_transfer`].  A unit test
/// pins the two modes against each other field by field.
///
/// This is the only transfer path a remote worker can run: it is a pure
/// function of the task and the group, with no key material.
pub fn execute_accounted_transfer_task(
    group: &Group,
    message_bits: u32,
    task: &TransferTask,
) -> TransferOutcome {
    let mut rng = Xoshiro256::new(task.seed);
    let mut traffic = TrafficAccountant::new();
    let counts = account_final_transfer(
        group,
        message_bits,
        NodeId(task.from as usize),
        NodeId(task.to as usize),
        &task.sender_members,
        &task.receiver_members,
        &mut traffic,
    );

    // Correct, fresh re-sharing of the message for the receiving block.
    let sender_shares: Vec<BitMessage> = task
        .shares
        .iter()
        .map(|bits| BitMessage::from_bits(bits))
        .collect();
    let message = xor_reconstruct(&sender_shares).expect("sender shares are non-empty");
    let receiver_shares = split_xor(message, task.receiver_members.len(), &mut rng);
    TransferOutcome {
        to: task.to,
        in_slot: task.in_slot,
        receiver_shares: receiver_shares.iter().map(BitMessage::to_bits).collect(),
        counts,
        traffic: traffic.sorted_node_entries(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{CounterProgram, SecureVertexProgram};

    const DEGREE: usize = 2;

    fn program() -> CounterProgram {
        CounterProgram {
            width: 6,
            rounds: 1,
        }
    }

    /// A well-formed task for vertex `v` with `block_size` members.
    fn task(circuit: &Circuit, v: u64, block_size: usize) -> BlockStepTask {
        let mut rng = Xoshiro256::new(0xB10C ^ v);
        BlockStepTask {
            vertex: v,
            seed: rng.next_u64(),
            members: (0..block_size)
                .map(|m| NodeId(v as usize * 10 + m))
                .collect(),
            out_slots: v % (DEGREE as u64 + 1),
            input_shares: (0..block_size)
                .map(|_| (0..circuit.num_inputs()).map(|_| rng.next_bool()).collect())
                .collect(),
        }
    }

    fn run_window(
        circuit: &Circuit,
        transport: TransportKind,
        tasks: Vec<BlockStepTask>,
        threads: usize,
    ) -> Result<Vec<BlockStepOutcome>, RuntimeError> {
        let p = program();
        execute_block_steps(
            circuit,
            GmwBatching::Layered,
            transport,
            p.state_bits() as usize,
            p.message_bits() as usize,
            tasks,
            threads,
        )
    }

    /// The reference: every task alone through the per-task door, in
    /// process.
    fn one_by_one(circuit: &Circuit, tasks: &[BlockStepTask]) -> Vec<BlockStepOutcome> {
        let p = program();
        tasks
            .iter()
            .map(|task| {
                execute_block_step_task(
                    circuit,
                    GmwBatching::Layered,
                    TransportKind::Sim,
                    p.state_bits() as usize,
                    p.message_bits() as usize,
                    task.clone(),
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn windows_of_any_size_equal_the_per_task_door() {
        let circuit = program().update_circuit(DEGREE);
        // Empty, one task, fewer tasks than lanes, and enough that every
        // lane's session rolls over into further sub-batches.
        for size in [0usize, 1, 3, 2 * STREAMS_IN_FLIGHT * 2 + 3] {
            let tasks: Vec<BlockStepTask> =
                (0..size as u64).map(|v| task(&circuit, v, 3)).collect();
            let expected = one_by_one(&circuit, &tasks);
            for transport in [TransportKind::Sim, TransportKind::Socket] {
                for threads in [0, 1, 2, 4] {
                    let got = run_window(&circuit, transport, tasks.clone(), threads).unwrap();
                    assert_eq!(
                        got, expected,
                        "{size} tasks, {transport:?}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn mixed_block_sizes_run_as_separate_sub_batches() {
        // A lane whose tasks disagree on the member count: every run of
        // equal sizes gets a session of that size.
        let circuit = program().update_circuit(DEGREE);
        let sizes = [3usize, 3, 4, 4, 4, 2, 3, 5, 5, 3];
        let tasks: Vec<BlockStepTask> = sizes
            .iter()
            .enumerate()
            .map(|(v, &block_size)| task(&circuit, v as u64, block_size))
            .collect();
        let expected = one_by_one(&circuit, &tasks);
        for transport in [TransportKind::Sim, TransportKind::Socket] {
            for threads in [1, 2, 3] {
                let got = run_window(&circuit, transport, tasks.clone(), threads).unwrap();
                assert_eq!(got, expected, "{transport:?}, {threads} threads");
            }
        }
    }

    #[test]
    fn malformed_tasks_are_typed_errors_not_panics() {
        let circuit = program().update_circuit(DEGREE);
        for transport in [TransportKind::Sim, TransportKind::Socket] {
            // A block of one, in the middle of a lane of well-formed tasks.
            let mut tasks: Vec<BlockStepTask> = (0..5).map(|v| task(&circuit, v, 3)).collect();
            tasks[2] = task(&circuit, 2, 1);
            let err = run_window(&circuit, transport, tasks, 2).unwrap_err();
            assert!(
                matches!(
                    err,
                    RuntimeError::Mpc(MpcError::TooFewParties { parties: 1 })
                ),
                "{transport:?}: {err:?}"
            );
            // No members at all.
            let err = run_window(&circuit, transport, vec![task(&circuit, 0, 0)], 2).unwrap_err();
            assert!(
                matches!(
                    err,
                    RuntimeError::Mpc(MpcError::TooFewParties { parties: 0 })
                ),
                "{transport:?}: {err:?}"
            );
            // Fewer share vectors than members, and a share of the wrong
            // width.
            let mut short = task(&circuit, 1, 3);
            short.input_shares.pop();
            let mut narrow = task(&circuit, 1, 3);
            narrow.input_shares[1].pop();
            for bad in [short, narrow] {
                let tasks = vec![task(&circuit, 0, 3), bad, task(&circuit, 2, 3)];
                let err = run_window(&circuit, transport, tasks, 1).unwrap_err();
                assert!(
                    matches!(err, RuntimeError::Mpc(MpcError::InputShareMismatch { .. })),
                    "{transport:?}: {err:?}"
                );
            }
        }
    }
}
